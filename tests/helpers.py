"""Shared generators for the test suite: random bi-Hilbertian bimodules,
random graphs and expectations, and the named corpus used by the
"every test bimodule" style criteria."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from bimod import (
    GraphSpec,
    HilbertBimodule,
    Inclusion,
    MultiMatrixAlgebra,
    column_bimodule,
    contragredient,
    from_hilbert_space,
    from_expectation,
    from_weight_graph,
    identity_bimodule,
    module_operator_algebra,
    quasi_basis,
    relative_commutant,
    tensor,
    tensor_lift,
    tensor_push,
    tight_frame,
    trace_weighted_expectation,
    validate,
)
from bimod.bimodule import (
    CheckResult,
    ValidationReport,
    _embed,
    _gram_big,
    _unit_blocks,
    _unit_images,
    _unit_layout,
    _w_frames,
)
from bimod.conjugation import (
    MoritaReport,
    VerifyReport,
    _product_coords,
    min_dimension,
    verify_conjugate,
)
from bimod.constructors import ExpectationSpec
from bimod.index import (
    BASIC_SAMPLES,
    BasicConstruction,
    CPMap,
    IndexReport,
    _attaining_vector,
    _cp_verdict,
    _extension_cp_map,
    _multiplicities,
    right_index,
)
from bimod.multimatrix import (
    RANK_TOL,
    AlgebraElement,
    ContractError,
    MultiMatrixAlgebra,
    StarAlgebraDecomposition,
    StructureError,
    hermitian_part,
)
from bimod.serde import ParseError


def random_posdef(n: int, rng: np.random.Generator, spread: float = 2.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    eigs = np.exp(spread * (rng.random(n) - 0.5))
    return (q * eigs) @ q.conj().T


def random_element(alg: MultiMatrixAlgebra, rng: np.random.Generator) -> AlgebraElement:
    return AlgebraElement(alg, [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                                for n in alg.blocks])


def random_hermitian(alg: MultiMatrixAlgebra, rng: np.random.Generator) -> AlgebraElement:
    x = random_element(alg, rng)
    return AlgebraElement(alg, [hermitian_part(b) for b in x.blocks])


def random_hermitian_mat(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def well_conditioned(n: int, rng: np.random.Generator, spread: float = 0.6) -> np.ndarray:
    g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q1, _ = np.linalg.qr(g1)
    q2, _ = np.linalg.qr(g2)
    return (q1 * (1.0 + spread * rng.random(n))) @ q2


def random_bimodule(A_blocks, B_blocks, mult, seed: int = 0,
                    gauge: bool = True, twist: bool = True) -> HilbertBimodule:
    """A random bi-Hilbertian A-B bimodule.

    Underlying space: for each (k, l) pair, ``mult[k][l]`` copies of the
    m_k x n_l matrix space with the obvious actions.  The two Gram tensors
    are twisted by random positive operators acting on the copy indices, and
    the whole coordinate system is moved by a well-conditioned basis change.
    """
    rng = np.random.default_rng(seed)
    A = MultiMatrixAlgebra(A_blocks)
    B = MultiMatrixAlgebra(B_blocks)
    mult = np.asarray(mult, dtype=int)
    if mult.shape != (A.num_blocks, B.num_blocks):
        raise ValueError("multiplicity shape mismatch")
    index = {}
    d = 0
    for k, m in enumerate(A.blocks):
        for l, n in enumerate(B.blocks):
            for c in range(mult[k, l]):
                for r in range(m):
                    for s in range(n):
                        index[(k, l, c, r, s)] = d
                        d += 1
    if d == 0:
        raise ValueError("empty bimodule")
    G = np.zeros((d, d, B.rep_dim, B.rep_dim), dtype=complex)
    L = np.zeros((d, d, A.rep_dim, A.rep_dim), dtype=complex)
    K = {}
    Q = {}
    for k in range(A.num_blocks):
        for l in range(B.num_blocks):
            mu = mult[k, l]
            if mu == 0:
                continue
            K[(k, l)] = random_posdef(mu, rng, 1.0) if twist else np.eye(mu)
            Q[(k, l)] = random_posdef(mu, rng, 1.0) if twist else np.eye(mu)
    for (k, l, c, r, s), p in index.items():
        for (k2, l2, c2, r2, s2), q in index.items():
            if (k, l) != (k2, l2):
                continue
            if r == r2:
                sb = B.block_slice(l)
                G[p, q, sb.start + s, sb.start + s2] = K[(k, l)][c, c2]
            if s == s2:
                sa = A.block_slice(k)
                L[p, q, sa.start + r, sa.start + r2] = Q[(k, l)][c, c2]
    Phi = np.zeros((A.rep_dim, A.rep_dim, d, d), dtype=complex)
    Psi = np.zeros((B.rep_dim, B.rep_dim, d, d), dtype=complex)
    for (k, l, c, r, s), p in index.items():
        sa, sb = A.block_slice(k), B.block_slice(l)
        for i in range(A.blocks[k]):
            Phi[sa.start + i, sa.start + r, index[(k, l, c, i, s)], p] = 1.0
        for j in range(B.blocks[l]):
            Psi[sb.start + s, sb.start + j, index[(k, l, c, r, j)], p] = 1.0
    if gauge:
        W = well_conditioned(d, rng)
        Winv = np.linalg.inv(W)
        G = np.einsum("Pp,Qq,PQab->pqab", W.conj(), W, G, optimize=True)
        L = np.einsum("Pp,Qq,PQab->pqab", W, W.conj(), L, optimize=True)
        Phi = np.einsum("iP,abPQ,Qj->abij", Winv, Phi, W, optimize=True)
        Psi = np.einsum("iP,abPQ,Qj->abij", Winv, Psi, W, optimize=True)
    return HilbertBimodule(A, B, d, G, Phi, Psi, L)


def relative_commutant_of_right_action(X: HilbertBimodule) -> np.ndarray:
    """Basis of K(X_B) = L(X_B), all matrices commuting with the right
    action: the units of ``module_operator_algebra`` in coordinates,
    orthonormalized."""
    units = np.concatenate([u.reshape(-1, X.dim, X.dim) for u in module_operator_algebra(X).units])
    flat = X.op_unrep(units).reshape(len(units), -1)
    return np.linalg.qr(flat.T)[0].T.reshape(-1, X.dim, X.dim)


# The seeded averaging projection that ``bimod.commutant_of`` sampled before
# it read matrix units off the actions, kept verbatim as a test-only oracle.
# It takes the actions in coordinates, homomorphisms or anti-homomorphisms.

_COMMUTANT_SEED = 20110331     # fixed, so that seeded reports stay byte-identical
_OVERSAMPLE = 4


def _average(units: list[np.ndarray], T: np.ndarray) -> np.ndarray:
    """P(T) = sum_k (1/n_k) sum_ij act[e^k_ij] T act[e^k_ji] on a stack T
    (s, d, d).  For a unital homomorphism or anti-homomorphism act, P is
    idempotent onto the commutant of its image."""
    out = np.zeros_like(T)
    for L in units:
        n = len(L)
        for i in range(n):      # one row of units at a time: (n, s, d, d) scratch
            out += (L[i][:, None] @ T @ L[:, i][:, None]).sum(axis=0) / n
    return out


def averaging_commutant(mats, dim: int) -> np.ndarray:
    """Orthonormal basis (stack (m, dim, dim)) of all dim x dim matrices that
    commute with the actions in ``mats``.

    ``mats`` is a sequence of (MultiMatrixAlgebra, action tensor
    (N, N, dim, dim)) pairs, each a unital homomorphism or anti-homomorphism
    with commuting images.  The basis is the range of the composed averaging
    projections, sampled on m + 4 Gaussian matrices.  The dimension m is read
    beforehand as sum Lambda^2 over the multiplicities (``_multiplicities``);
    the sampled rank must equal it, and every basis element must commute with
    every unit image, or StructureError is raised.
    """
    pairs = [(alg, _unit_images(alg, np.asarray(act, dtype=complex))) for alg, act in mats]
    m = int(np.sum(np.square(_multiplicities(pairs, dim))))
    units = [_unit_blocks(act, alg) for alg, act in pairs]
    rng = np.random.default_rng(_COMMUTANT_SEED)
    shape = (m + _OVERSAMPLE, dim, dim)
    T = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for blocks in units:
        T = _average(blocks, T)
    _, s, vh = np.linalg.svd(T.reshape(len(T), dim * dim), full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    if rank != m:
        raise StructureError(f"averaging projection has rank {rank}, "
                             f"the multiplicities give {m}")
    basis = vh[:m].reshape(m, dim, dim)
    images = np.concatenate([L.reshape(-1, dim, dim) for blocks in units for L in blocks])
    scale = max(float(np.linalg.norm(K, 2)) for K in images)
    res = max(float(np.linalg.norm(K @ basis - basis @ K, axis=(1, 2)).max())
              for K in images)
    if res > 2 * RANK_TOL * scale:
        raise StructureError(f"commutant basis fails to commute (residual {res:.3g})")
    return basis


def averaging_relative_commutant(X: HilbertBimodule) -> np.ndarray:
    """The relative commutant through the averaging oracle, on the actions
    in coordinates."""
    return averaging_commutant([(X.A, X.left_action), (X.B, X.right_action)], X.dim)


def kron_commutant(X: HilbertBimodule, left: bool = True) -> np.ndarray:
    """Reference relative commutant (with ``left=False``, the commutant of
    the right action alone): the null space of the stacked Kronecker system
    K (x) 1 - 1 (x) K^T over the unit images K, with the threshold floored
    at their scale.  Orthonormal stack (m, d, d)."""
    gens = [X.psi(u) for u in X.B.units_embedded()]
    if left:
        gens = [X.phi(u) for u in X.A.units_embedded()] + gens
    eye = np.eye(X.dim)
    scale = max(float(np.linalg.norm(K, 2)) for K in gens)
    rows = np.vstack([np.kron(K, eye) - np.kron(eye, K.T) for K in gens])
    # rows >= columns, so the thin factor already spans the null space
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    null_dim = int(np.sum(s <= 1e-9 * max(float(s.max()), scale)))
    return vh.conj()[len(s) - null_dim:].reshape(-1, X.dim, X.dim)


# The pre-quotient body of ``bimod.tensor`` before it went quotient-first,
# kept as a test-only oracle: it builds the four dense (D, D, N, N) and
# (N, N, D, D) product tensors and compresses them by the kernel of the
# scalar trace form of the dense right Gram.


def dense_tensor(X: HilbertBimodule, Y: HilbertBimodule,
                 rank_tol: float = RANK_TOL) -> HilbertBimodule:
    """Reference interior tensor product X (x)_B Y through the dense
    pre-quotient Gram and action tensors, in the coordinates of the quotient
    isometry V (``meta["oracle_tensor"]``: ``lift`` = V, ``push`` = V^*;
    ``lift_matrix`` and ``push_matrix`` read them)."""
    if X.B != Y.A:
        raise ContractError(
            f"middle algebras differ: {X.B.blocks} vs {Y.A.blocks}")
    X._need_left()
    Y._need_left()
    dx, dy = X.dim, Y.dim
    D = dx * dy
    # right Gram over C: (f_u | phi_Y((e_p|e_q)_B) f_v)_C
    phiG = np.einsum("pqab,abwv->pqwv", X.right_gram, Y.left_action, optimize=True)
    G = np.einsum("uwcd,pqwv->puqvcd", Y.right_gram, phiG, optimize=True)
    G = G.reshape(D, D, Y.B.rep_dim, Y.B.rep_dim)
    # left Gram over A: _A(e_p . _B(f_u|f_v) | e_q)
    psiL = np.einsum("uvab,abrp->uvrp", Y.left_gram, X.right_action, optimize=True)
    L = np.einsum("uvrp,rqcd->puqvcd", psiL, X.left_gram, optimize=True)
    L = L.reshape(D, D, X.A.rep_dim, X.A.rep_dim)
    PhiT = np.einsum("abij,uv->abiujv", X.left_action, np.eye(dy)).reshape(
        X.A.rep_dim, X.A.rep_dim, D, D)
    PsiT = np.einsum("ij,abuv->abiujv", np.eye(dx), Y.right_action).reshape(
        Y.B.rep_dim, Y.B.rep_dim, D, D)

    g = hermitian_part(np.einsum("pqaa->pq", G))
    w, v = np.linalg.eigh(g)
    keep = w > rank_tol * max(float(w.max()), 1e-300)
    if keep.all():
        V = np.eye(D, dtype=complex)
    else:
        V = v[:, keep]
    d2 = V.shape[1]
    G2 = np.einsum("Pi,Qj,PQab->ijab", V.conj(), V, G, optimize=True)
    L2 = np.einsum("Pi,Qj,PQab->ijab", V, V.conj(), L, optimize=True)
    Phi2 = np.einsum("Pi,abPQ,Qj->abij", V.conj(), PhiT, V, optimize=True)
    Psi2 = np.einsum("Pi,abPQ,Qj->abij", V.conj(), PsiT, V, optimize=True)
    Z = HilbertBimodule(X.A, Y.B, d2, G2, Phi2, Psi2, L2,
                        meta={"oracle_tensor": {"lift": V, "push": V.conj().T}})
    return Z


# The body of ``bimod.validate`` before it went to the support of the Gram
# tensors, kept as a test-only oracle: every adjointability and linearity
# check contracts the whole (d, d, N, N) Gram per matrix unit, the products
# with matrix units are batched N x N matmuls, and each positivity check is
# one ``eigvalsh`` of the (dN, dN) matrix.


def _act_first(M: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """[p, q] = sum_r M[r, p] gram[r, q], as one matrix product."""
    return (M.T @ gram.reshape(len(gram), -1)).reshape(gram.shape)


def _act_second(M: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """[p, q] = sum_s M[s, q] gram[p, s], as one matrix product."""
    return np.tensordot(gram, M, axes=([1], [0])).transpose(0, 3, 1, 2)


def unit_loop_validate(X: HilbertBimodule, tol: float = 1e-8) -> ValidationReport:
    """Reference ``validate``: the same checks, names and order, contracted
    on all N^2 algebra entries with one matrix-unit product per unit.  The
    psd and adjointable lines are taken on the algebra-valued Grams, where
    ``validate`` reads the scalar trace forms (``scalar_form_lines``)."""
    checks: list[CheckResult] = []
    d = X.dim
    G, Phi, Psi = X.right_gram, X.left_action, X.right_action

    def add(name, residual, passed=None):
        residual = float(residual)
        checks.append(CheckResult(name, residual, residual <= tol if passed is None else passed))

    scale = max(float(np.abs(G).max()), 1e-300)
    add("right_gram_hermitian",
        np.abs(G.conj().transpose(1, 0, 3, 2) - G).max() / scale)
    big = _gram_big(G)
    w = np.linalg.eigvalsh(hermitian_part(big))
    add("right_gram_psd", max(0.0, -float(w.min())) / max(float(w.max()), 1e-300))
    gw = np.linalg.eigvalsh(X.scalar_gram)
    add("right_gram_definite", 0.0,
        passed=float(gw.min()) > RANK_TOL * max(float(gw.max()), 1e-300))

    units_A = X.A.units_embedded()
    units_B = X.B.units_embedded()
    phis = np.einsum("uab,abij->uij", units_A, Phi)
    psis = np.einsum("uab,abij->uij", units_B, Psi)
    pscale = max(float(np.abs(phis).max()), 1e-300)

    # phi is a unital *-homomorphism, adjointable for the right inner product
    prod_err = 0.0
    triples = X.A.unit_triples()
    adj_index = {t: triples.index((t[0], t[2], t[1])) for t in triples}
    for u, (k, i, j) in enumerate(triples):
        for v, (l, s, r) in enumerate(triples):
            expected = phis[triples.index((k, i, r))] if (k == l and j == s) else 0.0
            prod_err = max(prod_err, float(np.abs(phis[u] @ phis[v] - expected).max()))
    add("left_action_homomorphism", prod_err / pscale)
    add("left_action_unital", np.abs(X.phi(X.A.identity()) - np.eye(d)).max())
    adj_err = 0.0
    for u, trip in enumerate(triples):
        lhs = _act_first(phis[u].conj(), G)
        rhs = _act_second(phis[adj_index[trip]], G)
        adj_err = max(adj_err, float(np.abs(lhs - rhs).max()))
    add("left_action_adjointable", adj_err / scale)

    # psi is a unital *-antihomomorphism and the right gram is B-linear
    triples_B = X.B.unit_triples()
    aprod_err = 0.0
    for u, (k, i, j) in enumerate(triples_B):
        for v, (l, s, r) in enumerate(triples_B):
            expected = psis[triples_B.index((k, i, r))] if (k == l and j == s) else 0.0
            aprod_err = max(aprod_err, float(np.abs(psis[v] @ psis[u] - expected).max()))
    add("right_action_antihomomorphism", aprod_err / max(float(np.abs(psis).max()), 1e-300))
    add("right_action_unital", np.abs(X.psi(X.B.identity()) - np.eye(d)).max())
    lin_err = 0.0
    for u in range(len(triples_B)):
        lhs = _act_second(psis[u], G)
        rhs = G @ units_B[u]
        lin_err = max(lin_err, float(np.abs(lhs - rhs).max()))
    add("right_gram_B_linear", lin_err / scale)

    comm_err = max(float(np.abs(P @ psis - psis @ P).max()) for P in phis)
    add("actions_commute", comm_err / pscale)

    if X.left_gram is not None:
        L = X.left_gram
        lscale = max(float(np.abs(L).max()), 1e-300)
        add("left_gram_hermitian",
            np.abs(L.conj().transpose(1, 0, 3, 2) - L).max() / lscale)
        bigl = _gram_big(L)
        wl = np.linalg.eigvalsh(hermitian_part(bigl))
        add("left_gram_psd", max(0.0, -float(wl.min())) / max(float(wl.max()), 1e-300))
        glw = np.linalg.eigvalsh(X.scalar_left_gram)
        add("left_gram_definite", 0.0,
            passed=float(glw.min()) > RANK_TOL * max(float(glw.max()), 1e-300))
        alin_err = 0.0
        for u in range(len(triples)):
            lhs = _act_first(phis[u], L)
            rhs = units_A[u] @ L
            alin_err = max(alin_err, float(np.abs(lhs - rhs).max()))
        add("left_gram_A_linear", alin_err / lscale)
        radj_err = 0.0
        for u, trip in enumerate(triples_B):
            lhs = _act_first(psis[u], L)
            rhs = _act_second(psis[triples_B.index((trip[0], trip[2], trip[1]))].conj(), L)
            radj_err = max(radj_err, float(np.abs(lhs - rhs).max()))
        add("right_action_left_adjointable", radj_err / lscale)

    return ValidationReport(checks)


def scalar_form_lines(X: HilbertBimodule) -> dict[str, float]:
    """The four lines ``validate`` reads off the scalar trace forms, computed
    densely: each form summed from the dense Gram, its full spectrum, and
    adjointability on every matrix unit, not only on the generators."""
    def psd(form):
        w = np.linalg.eigvalsh(form)
        return max(0.0, -float(w.min())) / max(float(w.max()), 1e-300)

    def adjoints(alg, action):
        mats = np.einsum("uab,abij->uij", alg.units_embedded(), action)
        triples = alg.unit_triples()
        return mats, mats[[triples.index((k, j, i)) for k, i, j in triples]]

    G = hermitian_part(np.einsum("pqaa->pq", X.right_gram))
    phis, phi_stars = adjoints(X.A, X.left_action)
    lines = {"right_gram_psd": psd(G),
             "left_action_adjointable": max(
                 float(np.abs(P.conj().T @ G - G @ Ps).max()) for P, Ps in zip(phis, phi_stars))
             / max(float(np.abs(G).max()), 1e-300)}
    if X.left_gram is not None:
        H = hermitian_part(np.einsum("pqaa->qp", X.left_gram))
        psis, psi_stars = adjoints(X.B, X.right_action)
        lines["left_gram_psd"] = psd(H)
        lines["right_action_left_adjointable"] = max(
            float(np.abs(H @ P - Ps.conj().T @ H).max()) for P, Ps in zip(psis, psi_stars)) \
            / max(float(np.abs(H).max()), 1e-300)
    return lines


# The body of ``bimod.tensor`` before it went through the blocks of the
# middle algebra, kept as a test-only oracle: the quotient comes from one
# ``eigh`` of the D x D scalar trace form (D = d_X d_Y).


def eigh_tensor(X: HilbertBimodule, Y: HilbertBimodule,
                rank_tol: float = RANK_TOL) -> HilbertBimodule:
    """Reference interior tensor product X (x)_B Y of an A-B and a B-C bimodule.

    The algebraic tensor basis e_p (x) f_u is reduced by the kernel of the
    right Gram tensor (vectors of seminorm zero); the quotient isometry V is
    kept in ``meta["oracle_tensor"]`` as ``lift`` and its adjoint as ``push``.

    The quotient is found first, from the D x D scalar trace form of the
    right Gram (D = d_X d_Y), and the four structure tensors are then
    contracted from the factors straight into its d_2 coordinates.  Cost:
    one O(D^3) ``eigh`` of the trace form plus O(D^2 d_2) contractions; no
    intermediate is larger than O(D d_2 N^2), N the largest algebra
    representation, where the pre-quotient tensors would take D^2 N^2.
    """
    if X.B != Y.A:
        raise ContractError(
            f"middle algebras differ: {X.B.blocks} vs {Y.A.blocks}")
    X._need_left()
    Y._need_left()
    dx, dy = X.dim, Y.dim
    D = dx * dy
    na, nc = X.A.rep_dim, Y.B.rep_dim
    # phiG[p, q, w, v] = phi_Y((e_p|e_q)_B)[w, v]
    phiG = np.tensordot(X.right_gram, Y.left_action, axes=([2, 3], [0, 1]))
    # scalar trace form g[(p,u),(q,v)] = sum_w tr (f_u|f_w)_C phiG[p,q,w,v]
    g = np.tensordot(np.einsum("uwcc->uw", Y.right_gram), phiG, axes=([1], [2]))
    g = hermitian_part(g.transpose(1, 0, 2, 3).reshape(D, D))
    w, v = np.linalg.eigh(g)
    del g
    keep = w > rank_tol * max(float(w.max()), 1e-300)
    V = np.eye(D, dtype=complex) if keep.all() else np.ascontiguousarray(v[:, keep])
    del v
    d2 = V.shape[1]
    Vh = V.conj().T

    # right Gram over C: (f_u | phi_Y((e_p|e_q)_B) f_v)_C, compressed by V
    T = (phiG.transpose(0, 2, 1, 3).reshape(D, D) @ V).reshape(dx, dy, d2)  # [p, w, j]
    del phiG
    GY = Y.right_gram.transpose(0, 2, 3, 1).reshape(dy * nc * nc, dy)   # [(u,c,d), w]
    S = np.matmul(GY, T).reshape(D, nc * nc * d2)                        # [(p,u), (c,d,j)]
    del T
    G2 = (Vh @ S).reshape(d2, nc, nc, d2).transpose(0, 3, 1, 2)
    del S
    # left Gram over A: _A(e_p . _B(f_u|f_v) | e_q), linear in the first leg
    psiL = np.tensordot(Y.left_gram, X.right_action, axes=([2, 3], [0, 1]))  # [u, v, r, p]
    T = psiL.transpose(1, 2, 3, 0).reshape(D, D) @ V                         # [(v,r), i]
    del psiL
    T = T.reshape(dy, dx, d2).transpose(0, 2, 1).reshape(dy * d2, dx)        # [(v,i), r]
    LX = X.left_gram.transpose(1, 0, 2, 3).reshape(dx, dx, na * na)           # [q, r, (c,d)]
    S = np.matmul(T, LX).reshape(D, d2 * na * na)                             # [(q,v), (i,c,d)]
    del T
    L2 = (Vh @ S).reshape(d2, d2, na, na).transpose(1, 0, 2, 3)
    del S
    # actions: phi_X(a) (x) 1 and 1 (x) psi_Y(c), compressed by V
    PV = np.matmul(X.left_action.reshape(na * na, dx, dx), V.reshape(dx, dy * d2))
    Phi2 = np.matmul(Vh, PV.reshape(na * na, D, d2)).reshape(na, na, d2, d2)
    del PV
    PV = np.matmul(Y.right_action.reshape(nc * nc, 1, dy, dy), V.reshape(dx, dy, d2))
    Psi2 = np.matmul(Vh, PV.reshape(nc * nc, D, d2)).reshape(nc, nc, d2, d2)
    return HilbertBimodule(X.A, Y.B, d2, np.ascontiguousarray(G2), Phi2, Psi2,
                           np.ascontiguousarray(L2),
                           meta={"oracle_tensor": {"lift": V, "push": V.conj().T}})


def lift_matrix(Z: HilbertBimodule) -> np.ndarray:
    """The D x d_2 matrix of ``lift`` of a tensor bimodule: an oracle's stored
    isometry, or ``tensor_lift`` applied to each basis vector."""
    if "oracle_tensor" in Z.meta:
        return Z.meta["oracle_tensor"]["lift"]
    return np.array([tensor_lift(Z, e) for e in np.eye(Z.dim)]).T


def push_matrix(Z: HilbertBimodule) -> np.ndarray:
    """The d_2 x D matrix of ``push`` of a tensor bimodule, as ``lift_matrix``."""
    if "oracle_tensor" in Z.meta:
        return Z.meta["oracle_tensor"]["push"]
    D = int(np.prod(Z.meta["tensor"]["dims"]))
    return np.array([tensor_push(Z, e) for e in np.eye(D)]).T


# The product pairings of ``bimod.conjugation`` before they went through the
# corners of B, kept as test-only oracles: phi_Y enters whole, so ``dense_pair``
# holds d_X d_Y^3 elements twice.


def _phi_leg(X: HilbertBimodule, Y: HilbertBimodule, s: np.ndarray) -> np.ndarray:
    """[..., (q, a, b), w] = sum_v phi_Y(e_ab)[w, v] s[..., q, v]."""
    dx, dy, nb = X.dim, Y.dim, X.B.rep_dim
    return (s @ Y.left_action.reshape(nb * nb * dy, dy).T).reshape(
        s.shape[:-2] + (dx * nb * nb, dy))


def dense_peel(X: HilbertBimodule, Y: HilbertBimodule, s: np.ndarray) -> np.ndarray:
    """m[p, w]: coordinates in Y of the vectors m_p = sum_{q,v}
    phi_Y((e_p|e_q)_B) f_v s[q, v], so that (e_p (x) f | s)_C = (f | m_p)_C."""
    return X.right_gram.reshape(X.dim, -1) @ _phi_leg(X, Y, s)


def dense_inner(X: HilbertBimodule, Y: HilbertBimodule, r: np.ndarray,
                s: np.ndarray) -> np.ndarray:
    """(r|s)_C in X (x)_B Y, embedded in M_{N_C}, for product coordinates r, s
    of one shape (..., d_X, d_Y).  (e_p (x) f_u | e_q (x) f_v)_C =
    (f_u | phi_Y((e_p|e_q)_B) f_v)_C, contracted in O(d^3 N^2)."""
    dx, dy, nc = X.dim, Y.dim, Y.B.rep_dim
    lead = s.shape[:-2]
    # [..., u, (q, a, b)] = sum_p conj(r[..., p, u]) (e_p|e_q)_B[a, b]
    r_g = np.swapaxes(r.conj(), -1, -2) @ X.right_gram.reshape(dx, -1)
    k = (r_g @ _phi_leg(X, Y, s)).reshape(lead + (dy * dy,))
    return (k @ Y.right_gram.reshape(dy * dy, nc * nc)).reshape(lead + (nc, nc))


def dense_pair(X: HilbertBimodule, Y: HilbertBimodule, r: np.ndarray) -> np.ndarray:
    """[t, u] = (r | e_t (x) f_u)_C in X (x)_B Y, embedded in M_{N_C}, for r
    (d_X, d_Y).  conj(r) meets G_X, then phi_Y, then G_Y: at most d_X d_Y^3
    elements are held at once."""
    dx, dy, nb, nc = X.dim, Y.dim, X.B.rep_dim, Y.B.rep_dim
    # [(u', t, a, b)] = sum_p conj(r[p, u']) (e_p|e_t)_B[a, b]
    r_g = r.conj().T @ X.right_gram.reshape(dx, dx * nb * nb)
    # [(u', t), (w, u)] = sum_ab r_g[u', t, a, b] phi_Y(e_ab)[w, u]
    k = r_g.reshape(dy * dx, nb * nb) @ Y.left_action.reshape(nb * nb, dy * dy)
    k = k.reshape(dy, dx, dy, dy).transpose(1, 3, 0, 2).reshape(dx * dy, dy * dy)
    return (k @ Y.right_gram.reshape(dy * dy, nc * nc)).reshape(dx, dy, nc, nc)


# The einsum chains that ``bimod.conjugation`` used for the equation maps,
# the recovered left Gram and the pair identities before they went through
# ``_inner``/``_pair``, kept as test-only oracles.  The identities are
# checked on ``trials`` random vector pairs rather than on the basis.


def einsum_equation_maps(X: HilbertBimodule, Y: HilbertBimodule,
                         r_full: np.ndarray, rbar_full: np.ndarray):
    """The two composites of the conjugate equations as matrices on X and Y.

    ``r_full`` has shape (dY, dX) (coordinates of R in Y (x) X), ``rbar_full``
    (dX, dY).  Equation one sends x to sum phi_X((Rbar | x (x) f_u)_A) e_s
    over the expansion of R; equation two is symmetric.
    """
    GX, GY = X.right_gram, Y.right_gram
    phiYG = np.einsum("PpAB,ABwu->Ppwu", GX, Y.left_action, optimize=True)
    AG = np.einsum("PU,Ppwu,Uwab->puab", rbar_full.conj(), phiYG, GY, optimize=True)
    phiAG = np.einsum("tuab,abis->tuis", AG, X.left_action, optimize=True)
    E1 = np.einsum("us,tuis->it", r_full, phiAG, optimize=True)

    phiXG = np.einsum("UuAB,ABwp->Uuwp", GY, X.left_action, optimize=True)
    BG = np.einsum("UP,Uuwp,Pwab->upab", r_full.conj(), phiXG, GX, optimize=True)
    phiBG = np.einsum("tpab,abjq->tpjq", BG, Y.left_action, optimize=True)
    E2 = np.einsum("pq,tpjq->jt", rbar_full, phiBG, optimize=True)
    return E1, E2


def einsum_inner_from_conjugate(X: HilbertBimodule, Y: HilbertBimodule, R, Rbar,
                                tol: float = 1e-8) -> np.ndarray:
    """Left Gram tensor induced by a verified solution:
    _A(e_p|e_q) = Rbar* (theta^r_{e_p,e_q} (x) 1_Y) Rbar.

    The returned tensor makes X bi-Hilbertian of finite index; feeding the
    solution produced by ``build_conjugate`` recovers the original left Gram.
    """
    verify_conjugate(X, Y, R, Rbar, tol=tol)
    rbar_full = _product_coords(Rbar, X, Y, "Rbar")
    GX, GY = X.right_gram, Y.right_gram
    psiG = np.einsum("qsab,abip->qsip", GX, X.right_action, optimize=True)
    phiYG = np.einsum("PpAB,ABwu->Ppwu", GX, Y.left_action, optimize=True)
    L = np.einsum("PU,qsip,su,Piwu,Uwab->pqab",
                  rbar_full.conj(), psiG, rbar_full, phiYG, GY, optimize=True)
    # clean Hermitian symmetry of the result
    return 0.5 * (L + L.conj().transpose(1, 0, 3, 2))


def einsum_conjugate_pair_identities(X: HilbertBimodule, Y: HilbertBimodule, R, Rbar,
                                     left_gram: np.ndarray,
                                     seed: int = 0, trials: int = 20) -> dict:
    """Residuals of Rbar*(x (x) V xbar') = _A(x|x') and R*(V xbar (x) x') =
    (x|x')_B after identifying Y with the contragredient via
    V(xbar) = lambda_x* Rbar."""
    r_full = _product_coords(R, Y, X, "R")
    rbar_full = _product_coords(Rbar, X, Y, "Rbar")
    GX, GY = X.right_gram, Y.right_gram
    phiYG = np.einsum("rpAB,ABjq->rpjq", GX, Y.left_action, optimize=True)
    Vmat = np.einsum("pq,rpjq->jr", rbar_full, phiYG, optimize=True)
    phiXG = np.einsum("UuAB,ABwp->Uuwp", GY, X.left_action, optimize=True)
    rng = np.random.default_rng(seed)
    res_right = res_left = 0.0
    for _ in range(trials):
        x = rng.standard_normal(X.dim) + 1j * rng.standard_normal(X.dim)
        xp = rng.standard_normal(X.dim) + 1j * rng.standard_normal(X.dim)
        vx = Vmat @ x.conj()
        lhs_r = np.einsum("UP,Uuwp,Pwab,u,p->ab", r_full.conj(), phiXG, GX, vx, xp,
                          optimize=True)
        rhs_r = np.einsum("p,q,pqab->ab", x.conj(), xp, GX)
        res_right = max(res_right, float(np.abs(lhs_r - rhs_r).max()))
        vxp = Vmat @ xp.conj()
        lhs_l = np.einsum("PU,Ppwu,Uwab,p,u->ab", rbar_full.conj(), phiYG, GY, x, vxp,
                          optimize=True)
        rhs_l = np.einsum("p,q,pqab->ab", x, xp.conj(), np.asarray(left_gram))
        res_left = max(res_left, float(np.abs(lhs_l - rhs_l).max()))
    return {"right_identity_residual": res_right, "left_identity_residual": res_left}


# The body of ``bimod.verify_conjugate`` from before solutions moved to
# product coordinates, kept as a test-only oracle: R and Rbar are quotient
# coordinates of the tensor bimodules, whose norms and unit actions are read
# off their own Gram and action tensors.


def _quotient_intertwiner_residual(Z: HilbertBimodule, vec: np.ndarray) -> float:
    units = Z.A.units_embedded()
    scale = max(Z.vector_norm(vec), 1e-300)
    res = 0.0
    for u in units:
        diff = (Z.phi(u) - Z.psi(u)) @ vec
        res = max(res, Z.vector_norm(diff))
    return res / scale


def quotient_verify_conjugate(X: HilbertBimodule, Y: HilbertBimodule, R, Rbar,
                              tol: float = 1e-8, ZR: HilbertBimodule | None = None,
                              ZRbar: HilbertBimodule | None = None,
                              intertwine_tol: float = 1e-6) -> VerifyReport:
    """Reference conjugate-equation check for R, Rbar in the quotient
    coordinates of ZR = tensor(Y, X) and ZRbar = tensor(X, Y) (or of any
    tensor bimodules passed in their place)."""
    ZR = ZR if ZR is not None else tensor(Y, X)
    ZRbar = ZRbar if ZRbar is not None else tensor(X, Y)
    R = np.asarray(R, dtype=complex).reshape(-1)
    Rbar = np.asarray(Rbar, dtype=complex).reshape(-1)
    int_R = _quotient_intertwiner_residual(ZR, R)
    int_Rbar = _quotient_intertwiner_residual(ZRbar, Rbar)
    if max(int_R, int_Rbar) > intertwine_tol:
        raise ContractError(
            f"candidate does not intertwine the unit actions "
            f"(residuals {int_R:.3g}, {int_Rbar:.3g})")
    r_full = (lift_matrix(ZR) @ R).reshape(Y.dim, X.dim)
    rbar_full = (lift_matrix(ZRbar) @ Rbar).reshape(X.dim, Y.dim)
    E1, E2 = einsum_equation_maps(X, Y, r_full, rbar_full)
    res1 = X.op_norm(E1 - np.eye(X.dim))
    res2 = Y.op_norm(E2 - np.eye(Y.dim))
    dim_rel = ZR.vector_norm(R) * ZRbar.vector_norm(Rbar)
    return VerifyReport(res1, res2, dim_rel, int_R, int_Rbar, tol,
                        ZR.right_inner(R, R).embed(), ZRbar.right_inner(Rbar, Rbar).embed())


# The multi-start descent that ``bimod.min_dimension`` used before it took
# the closed form ||Lambda||_2, kept as a test-only oracle: every value it
# reaches is the objective r_num * l_num at an actual rescaling, so its
# square root can never fall below the minimal dimension.


@dataclass
class DescentResult:
    dim_hat: float
    Q_star: np.ndarray
    evaluations: int
    budget_exhausted: bool
    restart_values: list[float]
    history: list[float]


def _rescaling_directions(X: HilbertBimodule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real basis of trace-free self-adjoint directions in the relative
    commutant (left-inner-product involution), in the conjugated picture."""
    comm = relative_commutant(X)
    hats = [X.left_op_rep(c) for c in comm]
    cands = []
    for h in hats:
        cands.append(hermitian_part(h))
        cands.append(hermitian_part(1j * h))
    d = X.dim
    eye = np.eye(d) / np.sqrt(d)
    vecs = []
    for h in cands:
        h = h - np.trace(h) / d * np.eye(d)   # remove the flat scaling direction
        vecs.append(np.concatenate([h.real.reshape(-1), h.imag.reshape(-1)]))
    if not vecs:
        return np.zeros((0, d, d)), *X._gl_half()
    V = np.array(vecs)
    u, s, vh = np.linalg.svd(V, full_matrices=False)
    keep = s > 1e-9 * max(float(s.max()), 1e-300)
    basis = []
    for row in vh[keep]:
        basis.append(row[:d * d].reshape(d, d) + 1j * row[d * d:].reshape(d, d))
    sq, isq = X._gl_half()
    return np.array(basis) if basis else np.zeros((0, d, d)), sq, isq


def descent_min_dimension(X: HilbertBimodule, seed: int = 0, restarts: int = 8,
                          budget: int = 5000, grad_step: float = 1e-5) -> DescentResult:
    """Minimize the product of the two numerical indices over all left
    rescalings Q = exp(H), H trace-free self-adjoint in the relative
    commutant; returns the square root of the best value found.

    Multi-start descent with central-difference gradients; deterministic for
    a fixed seed.  When the evaluation budget runs out the best point so far
    is returned with ``budget_exhausted`` set.
    """
    X._need_left()
    basis, gl_sq, gl_isq = _rescaling_directions(X)
    nparams = len(basis)
    U = tight_frame(X, spanning=np.eye(X.dim)).coords
    psi_bar = X.left_action.transpose(1, 0, 2, 3).conj()   # right action of X-bar
    d = X.dim
    evals = 0

    def objective(theta: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        if nparams:
            H = np.einsum("r,rij->ij", theta, basis)
            w, v = np.linalg.eigh(hermitian_part(H))
            Q = gl_isq @ ((v * np.exp(w)) @ v.conj().T) @ gl_sq
        else:
            Q = np.eye(d)
        LQ = np.einsum("rp,rqab->pqab", Q, X.left_gram)
        r_emb = np.einsum("mp,mq,pqab->ab", U, U.conj(), LQ, optimize=True)
        r_num = float(np.linalg.eigvalsh(hermitian_part(r_emb)).max())
        # left frame of the rescaled structure via the contragredient
        S_bar = np.einsum("sqab,abis->iq", LQ, psi_bar, optimize=True)
        g_bar = hermitian_part(np.einsum("pqaa->pq", LQ))
        wb, vb = np.linalg.eigh(g_bar)
        wb = np.clip(wb, 1e-300, None)
        sqb = (vb * np.sqrt(wb)) @ vb.conj().T
        isqb = (vb / np.sqrt(wb)) @ vb.conj().T
        Sh = hermitian_part(sqb @ S_bar @ isqb)
        ws, vs = np.linalg.eigh(Sh)
        ws = np.clip(ws, 1e-300, None)
        S_isqrt = isqb @ ((vs / np.sqrt(ws)) @ vs.conj().T) @ sqb
        Fr = S_isqrt.T
        # the left index sums the frame in the left Gram of the contragredient,
        # which is the (Q-independent) right Gram of X
        l_emb = np.einsum("mp,mq,pqab->ab", Fr, Fr.conj(), X.right_gram, optimize=True)
        l_num = float(np.linalg.eigvalsh(hermitian_part(l_emb)).max())
        return r_num * l_num

    rng = np.random.default_rng(seed)
    best_theta = np.zeros(nparams)
    best_val = objective(best_theta)
    history = [best_val]
    restart_values = []
    exhausted = False
    for restart in range(restarts):
        if evals >= budget:
            exhausted = True
            break
        theta = (np.zeros(nparams) if restart == 0
                 else 0.4 * rng.standard_normal(nparams))
        if nparams == 0:
            restart_values.append(best_val)
            break
        f = objective(theta)
        lr = 0.25
        while evals + 2 * nparams + 1 <= budget:
            grad = np.zeros(nparams)
            for i in range(nparams):
                e = np.zeros(nparams)
                e[i] = grad_step
                grad[i] = (objective(theta + e) - objective(theta - e)) / (2 * grad_step)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-9:
                break
            step, moved = lr, False
            while step > 1e-12 and evals < budget:
                cand = theta - step * grad / gnorm
                fc = objective(cand)
                if fc < f - 1e-14:
                    theta, f, moved = cand, fc, True
                    lr = min(1.0, step * 1.5)
                    break
                step *= 0.5
            if not moved:
                break
            if f < best_val:
                best_val, best_theta = f, theta.copy()
            history.append(min(history[-1], f))
        restart_values.append(f)
        if evals >= budget:
            exhausted = True
    if nparams:
        H = np.einsum("r,rij->ij", best_theta, basis)
        w, v = np.linalg.eigh(hermitian_part(H))
        Q_star = gl_isq @ ((v * np.exp(w)) @ v.conj().T) @ gl_sq
    else:
        Q_star = np.eye(d, dtype=complex)
    return DescentResult(dim_hat=float(np.sqrt(best_val)), Q_star=Q_star,
                         evaluations=evals, budget_exhausted=exhausted,
                         restart_values=restart_values, history=history)


def _ratio_paths(X: HilbertBimodule, vecs: np.ndarray) -> tuple[list, list]:
    """Contraction paths of the two Gram contractions of :func:`_ratio_batch`
    for a stack of this shape."""
    return (np.einsum_path("sp,sq,pqab->sab", vecs, vecs, X.left_gram, optimize=True)[0],
            np.einsum_path("sp,sq,pqab->sab", vecs, vecs, X.right_gram, optimize=True)[0])


def _ratio_batch(X: HilbertBimodule, vecs: np.ndarray,
                 paths: tuple[list, list] | None = None) -> np.ndarray:
    """||_A(x|x)|| / ||(x|x)_B|| for each row x of ``vecs``; ``paths`` from
    :func:`_ratio_paths` skips re-planning the contractions on every call."""
    left, right = paths if paths is not None else (True, True)
    num = np.einsum("sp,sq,pqab->sab", vecs, vecs.conj(), X.left_gram, optimize=left)
    den = np.einsum("sp,sq,pqab->sab", vecs.conj(), vecs, X.right_gram, optimize=right)
    top = np.linalg.eigvalsh(0.5 * (num + np.conj(np.swapaxes(num, 1, 2))))[:, -1]
    bot = np.linalg.eigvalsh(0.5 * (den + np.conj(np.swapaxes(den, 1, 2))))[:, -1]
    return np.real(top) / np.maximum(np.real(bot), 1e-300)


def _coordinate_descent(X: HilbertBimodule, x0: np.ndarray, sign: float,
                        steps: int, paths: tuple[list, list]) -> tuple[np.ndarray, float]:
    """Minimize sign * ratio by cyclic moves on the 2d real coordinates;
    ``paths`` are the single-vector contraction paths."""
    def val(v):
        return sign * float(_ratio_batch(X, v[None, :], paths)[0])

    x = x0 / np.linalg.norm(x0)
    best = val(x)
    h = 0.25
    d = len(x)
    used = 0
    while used < steps and h > 1e-8:
        improved = False
        for i in range(d):
            for delta in (h, -h, 1j * h, -1j * h):
                if used >= steps:
                    break
                cand = x.copy()
                cand[i] += delta
                cand /= np.linalg.norm(cand)
                v = val(cand)
                used += 1
                if v < best - 1e-15:
                    best, x = v, cand
                    improved = True
        if not improved:
            h *= 0.5
    return x, sign * best


def descent_best_constants(X: HilbertBimodule, seed: int = 0, samples: int = 10000,
                           refine_steps: int = 400, top: int = 3) -> tuple[float, float]:
    """(lambda, lambda') estimated by seeded sampling plus coordinate-descent
    refinement of the ``top`` best samples: the search that the seeded ascent
    (:func:`sequential_largest_ratio`) replaced, kept as an oracle.  Every
    evaluated ratio is attained, so the first value is a lower bound for
    lambda and the second an upper bound for lambda'."""
    X._need_left()
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((samples, X.dim)) + 1j * rng.standard_normal((samples, X.dim))
    ratios = _ratio_batch(X, vecs)
    order = np.argsort(ratios)
    paths = _ratio_paths(X, vecs[:1])
    lo = float(ratios[order[0]])
    for idx in order[:top]:
        _, v = _coordinate_descent(X, vecs[idx], +1.0, refine_steps, paths)
        lo = min(lo, v)
    hi = float(ratios[order[-1]])
    for idx in order[-top:]:
        _, v = _coordinate_descent(X, vecs[idx], -1.0, refine_steps, paths)
        hi = max(hi, v)
    return hi, lo


def sequential_largest_ratio(X: HilbertBimodule, seed: int,
                             starts: int = 5) -> tuple[float, np.ndarray]:
    """(value, attaining vector) of the seeded ascent that the closed form of
    ``best_constants`` replaced, kept as its oracle: from each of ``starts``
    random unit xi in C^{N_A}, two exact steps alternate while the value
    rises.  P_l spans the top r_l = min(M_l, n_l) eigenvectors of C^T,
    C[i, j] = xi* F(u_l(i, j)) xi (Ky Fan), then xi is the top eigenvector
    of F(P).  The value is attained, so it never exceeds lambda."""
    imgs = _extension_cp_map(X).unit_images
    ranks = [min(w.shape[1], X.B.blocks[l]) for l, w in _w_frames(X)]
    na = X.A.rep_dim
    best, rng = -np.inf, np.random.default_rng(seed)
    for _ in range(starts):
        xi = rng.standard_normal(na) + 1j * rng.standard_normal(na)
        value, xi = -np.inf, xi / np.linalg.norm(xi)
        for _ in range(200):
            C = [np.einsum("a,ijab,b->ji", xi.conj(), img, xi) for img in imgs]
            vs = [np.linalg.eigh(hermitian_part(c))[1][:, -r:] for c, r in zip(C, ranks)]
            FP = sum(np.einsum("ij,ijab->ab", V @ V.conj().T, img) for V, img in zip(vs, imgs))
            w, v = np.linalg.eigh(hermitian_part(FP))
            if w[-1] <= value:
                break
            value, xi, found = float(w[-1]), v[:, -1], vs
        if value > best:
            best, best_v = value, found
    return best, _attaining_vector(X, best_v)


def _operator_cp_map(X: HilbertBimodule, f, target: MultiMatrixAlgebra | None = None,
                     alg: StarAlgebraDecomposition | None = None) -> CPMap:
    """The map u -> f(u) on the units u of L(X_B): the rank-ones
    theta_{w_i, w_j} over the w-frame of each block (``X.rank_one``), or the
    units of ``alg`` (op_rep picture) mapped back with op_unrep.  ``f`` maps
    a stack (s, d, d) of operators on X in coordinates to their images, once
    for all units.

    The dense route that the Choi blocks in the w-frame of L(X_B) replaced,
    kept as their oracle (with the three maps below)."""
    if alg is None:
        ws = [w for _, w in _w_frames(X)]
        source = MultiMatrixAlgebra([w.shape[1] for w in ws])
        units = [np.array([[X.rank_one(a, b) for b in w.T] for a in w.T]) for w in ws]
    else:
        source, units = alg.algebra, [X.op_unrep(u) for u in alg.units]
    flat = np.concatenate([u.reshape(-1, X.dim, X.dim) for u in units])
    images = np.split(f(flat), np.cumsum([len(u) ** 2 for u in units])[:-1])
    return CPMap(source, [img.reshape(u.shape[:2] + img.shape[1:])
                          for img, u in zip(images, units)], target=target)


def frame_extension(X: HilbertBimodule, frame):
    """T -> sum_i _A(T u_i | u_i) over the tight frame {u_i} of ``frame``,
    embedded in M_{N_A}; T may be a stack (s, d, d).  The extension of the
    left inner product by its definition, on any frame: the oracle of the
    frame independence of ``extend_left_inner``, which takes the w-frame."""
    U = frame.coords

    def apply(T: np.ndarray) -> np.ndarray:
        TU = np.einsum("...pq,iq->...ip", np.asarray(T, dtype=complex), U)   # T u_i
        # _A(x|y) = x^T L y^* at each unit of A
        return _embed(np.einsum("...ip,cpq,iq->...c", TU, X.left_stack, U.conj()), X.A)
    return apply


def frame_solution(X: HilbertBimodule, right, left) -> tuple[np.ndarray, np.ndarray]:
    """(R, Rbar) in product coordinates summed over any two frames (``FrameSet``):
    Rbar = sum_i u_i (x) conj(u_i) over the right frame {u_i} and R = sum_j
    conj(v_j) (x) v_j over the left frame {v_j}.  ``build_conjugate`` sums
    the same over the w-frames of X and of its contragredient."""
    U, V = right.coords, left.coords
    return np.einsum("jp,jq->pq", V.conj(), V), np.einsum("ip,iq->pq", U, U.conj())


def dense_extension_cp_map(X: HilbertBimodule) -> CPMap:
    """F on the units of L(X_B) through the S^(-1/2) tight frame of the
    coordinate basis."""
    F = frame_extension(X, tight_frame(X, spanning=np.eye(X.dim)))
    return _operator_cp_map(X, F, target=X.A)


def dense_basic_cp_map(bco: BasicConstruction) -> CPMap:
    """phi.E on the units of L(X_B), into M_d in the op_rep picture."""
    X = bco.bimodule
    return _operator_cp_map(X, lambda T: X.op_rep(bco.phi_expectation(T)))


def _multiplier_certificate(choi_min, c: AlgebraElement, scale: float, delta: float,
                            tol: float) -> tuple[float, list[dict], bool]:
    """Certificate that the central element c is the smallest multiplier
    keeping a map completely positive.

    ``choi_min`` returns the least Choi eigenvalue of the map at a multiplier.
    Each nonzero central block of c is scaled by 1 - delta in turn, and the
    Choi matrix must then leave the positive cone (fall below -tol * scale).
    Returns the Choi minimum at c, one record per perturbed block, and
    whether every perturbation left the cone.

    The search that ``index.least_multipliers`` replaced with the closed
    form, kept as its oracle (with the two maps below).
    """
    base = choi_min(c)
    cut = RANK_TOL * max(c.norm(), 1e-300)
    perturbed = []
    for k, blk in enumerate(c.blocks):
        if float(np.real(np.trace(blk)) / len(blk)) <= cut:
            continue
        c2 = c.copy()
        c2.blocks[k] = (1.0 - delta) * c2.blocks[k]
        mn = choi_min(c2)
        perturbed.append({"block": k, "choi_min": mn, "non_psd": mn < -tol * scale})
    return base, perturbed, all(p["non_psd"] for p in perturbed)


def phi_frame_map(X: HilbertBimodule, cp: CPMap) -> CPMap:
    """phi after a map ``cp`` from L(X_B) into A, as a map into L(X_B) in the
    frame of its units: target block l holds tr (w_r | phi(a) w_s)_B, read
    off the scalar Gram, so each Choi block is M_l' M_l.

    The composite that ``index.least_multipliers`` no longer forms, kept as
    its oracle (with ``iota_e``)."""
    alg, L, P = cp.source, _unit_layout(X.A.blocks), phi_frame(X)
    return CPMap(alg, [np.tensordot(img[:, :, L.rows, L.cols], P, axes=1)
                       for img in cp.unit_images], target=alg)


def phi_frame(X: HilbertBimodule) -> np.ndarray:
    """phi at the units of A into L(X_B) in the frame of its units, block by
    block: (U_A, sum M_l, sum M_l), [u, r, s] = tr (w_r | phi(e_u) w_s)_B in
    block l and exact zeros between blocks: the homomorphism back of
    ``cp_characterization``, which reads it in two products whose entries
    between blocks are zero up to round-off."""
    alg = MultiMatrixAlgebra([w.shape[1] for _, w in _w_frames(X)])
    P = np.zeros((len(X.phis), alg.rep_dim, alg.rep_dim), dtype=complex)
    for s, (_, w) in zip(map(alg.block_slice, range(alg.num_blocks)), _w_frames(X)):
        P[:, s, s] = (X.scalar_gram @ w).conj().T @ X.phis @ w
    return P


def iota_e(spec: ExpectationSpec) -> CPMap:
    """iota.E as an endomorphism of B: the images iota(E(E^k_rs)) of the units
    of each block k, stacked with shape (n_k, n_k, N_B, N_B)."""
    B, N = spec.B, spec.B.rep_dim
    units = np.split(B.units_embedded(), np.cumsum([n * n for n in B.blocks])[:-1])
    return CPMap(B, [spec.inclusion.embed_stack(spec.apply_stack(u)).reshape(n, n, N, N)
                     for u, n in zip(units, B.blocks)], target=B)


def composite_least_multipliers(cp: CPMap, tol: float = 1e-9) -> tuple[bool, np.ndarray, np.ndarray]:
    """``index.least_multipliers`` on the composite endomorphism Phi = ``cp``
    (``phi_frame_map`` or ``iota_e``) itself: one ``eigh`` of each diagonal
    Choi block C_ll, cut at ``tol`` times its largest eigenvalue, and
    ``eigvalsh`` of the others for the verdict."""
    least, residual, ends = [], [], []
    for t, choi in enumerate(cp.choi_blocks()):
        if t % (cp.source.num_blocks + 1):     # off the diagonal
            ends.append(np.linalg.eigvalsh(hermitian_part(choi))[[0, -1]])
            continue
        m = cp.source.blocks[t // cp.source.num_blocks]
        w, v = np.linalg.eigh(hermitian_part(choi))
        ends.append(w[[0, -1]])
        keep = w > tol * w[-1]
        weight = np.abs(v[::m + 1, keep].sum(axis=0)) ** 2     # |v_i^* Omega_l|^2
        least.append(float(np.sum(weight / w[keep])))
        residual.append(float(m - weight.sum()) / m)
    return _cp_verdict(ends)[0], np.array(least), np.array(residual)


def frame_multiplier_cp_map(X: HilbertBimodule):
    """c -> T -> psi(c) phi(F(T)) - T into L(X_B), both sides in the frame of
    its units (``phi_frame_map``).  For central c, w.c = c_l w on
    X.e^l_11, so psi(c) scales target block l by c_l = tr (w_1 | w_1.c)_B."""
    phi_F = phi_frame_map(X, _extension_cp_map(X))
    alg = phi_F.source
    ident = np.split(alg.units_embedded(), np.cumsum(np.square(alg.blocks))[:-1])
    w1 = np.array([w[:, 0] for _, w in _w_frames(X)]).T

    def at(c: AlgebraElement) -> CPMap:
        c_l = np.einsum("pl,pl->l", (X.scalar_gram @ w1).conj(), X.psi(c) @ w1)
        return CPMap(alg, [np.repeat(c_l, alg.blocks)[:, None] * img - u.reshape(img.shape)
                           for img, u in zip(phi_F.unit_images, ident)], target=alg)
    return at


def l_ind_coefficients(X: HilbertBimodule) -> np.ndarray:
    """The scalar of the central l-ind of ``right_index`` on each block of B
    that X reaches (tr psi(e^l_11) > 0), the blocks of L(X_B) in order."""
    l_ind = right_index(X).l_ind
    reached = np.flatnonzero(_multiplicities([(X.B, X.psis)], X.dim))
    return np.array([np.trace(l_ind.blocks[k]).real / X.B.blocks[k] for k in reached])


def delta_cp_characterization(X: HilbertBimodule, delta: float = 1e-3,
                              tol: float = 1e-8) -> dict:
    """The verdicts of ``cp_characterization`` by the delta search: the Choi
    blocks of ``frame_multiplier_cp_map`` at l-ind, and each central
    coefficient scaled down by ``delta``."""
    rep = right_index(X)
    at = frame_multiplier_cp_map(X)
    scale = 1.0 + rep.l_num
    mn, _, certified = _multiplier_certificate(lambda c: at(c).is_completely_positive()[1],
                                               rep.l_ind, scale, delta, tol)
    return {"passed_at_index": mn >= -tol * scale, "minimality_certified": certified}


def delta_minimal_cp_multiplier(spec: ExpectationSpec, delta: float = 1e-3) -> dict:
    """The verdicts of ``minimal_cp_multiplier`` by the delta search on the
    Choi blocks of c E - id, at the index element of ``quasi_basis``."""
    B, N = spec.B, spec.B.rep_dim
    _, ind = quasi_basis(spec)
    units = np.split(B.units_embedded(), np.cumsum([n * n for n in B.blocks])[:-1])
    own = [u.reshape(n, n, N, N) for u, n in zip(units, B.blocks)]
    iota = iota_e(spec).unit_images

    def choi_min(c: AlgebraElement) -> float:
        c_emb = c.embed()
        return CPMap(B, [c_emb @ i - o for i, o in zip(iota, own)]).is_completely_positive()[1]

    scale = 1.0 + ind.norm()
    base, _, certified = _multiplier_certificate(choi_min, ind, scale, delta, 1e-9)
    return {"passed_at_index": base >= -1e-8 * scale, "minimality_certified": certified}


def frame_right_index(X: HilbertBimodule) -> IndexReport:
    """Index elements and numerical indices of a bi-Hilbertian bimodule.

    The right element is the frame sum of left inner products; the left half
    is the same computation on the contragredient.

    The tight-frame route that ``right_index`` replaced with the dual basis
    of the Gram, kept as its oracle, on the S^(-1/2) frames of the
    coordinate bases.
    """
    X._need_left()
    r_ind, l_ind = (Y.A.from_embedded(frame_extension(Y, tight_frame(Y, spanning=np.eye(Y.dim)))(
                        np.eye(Y.dim))) for Y in (X, contragredient(X)))
    return IndexReport(r_ind=r_ind, l_ind=l_ind, r_num=r_ind.norm(), l_num=l_ind.norm())


def choi_spectrum(cp: CPMap, mult=None) -> np.ndarray:
    """All Choi eigenvalues of ``cp``, sorted; with ``mult``, those of the
    blocks cut to target block k repeat mult[k] times (the multiplicities
    that the frame of L(X_B) drops)."""
    out = []
    blocks = cp.choi_blocks()
    per_source = len(blocks) // len(cp.unit_images)
    for i, c in enumerate(blocks):
        w = np.linalg.eigvalsh(hermitian_part(c))
        out.append(w if mult is None else np.repeat(w, mult[i % per_source]))
    return np.sort(np.concatenate(out))


def assert_matches_composite(got: tuple, composite: CPMap) -> None:
    """(verdict, c_l*, range residuals) of ``index.least_multipliers`` are
    those of ``composite_least_multipliers`` on the composite hom.cp: the
    same verdict, c_l* to 1e-12 relative and the residuals to 1e-12."""
    ok, least, residual = composite_least_multipliers(composite)
    assert got[0] == ok
    assert np.abs(got[1] - least).max() <= 1e-12 * np.abs(least).max(), (got[1], least)
    assert np.abs(got[2] - residual).max() <= 1e-12, (got[2], residual)


def assert_least_multipliers_factorize_once(cp: CPMap, hom: np.ndarray, composite: CPMap,
                                            monkeypatch) -> None:
    """``index.least_multipliers(cp, hom)`` runs one ``eigh`` per Choi block
    (l, k) of ``cp`` with hom(e^k_11) != 0 and no ``eigvalsh``; it reaches
    the verdict and least eigenvalue of ``composite.is_completely_positive()``
    on the composite hom.cp (``phi_frame_map`` or ``iota_e``), and its
    c_l* and residuals (``assert_matches_composite``)."""
    from bimod import index
    calls, seen = {"eigh": [], "eigvalsh": []}, []

    def counted(name, f):
        return lambda a, *args, **kwargs: calls[name].append(np.shape(a)) or f(a, *args, **kwargs)

    verdict = index._cp_verdict
    with monkeypatch.context() as mp:
        for name in calls:
            mp.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        mp.setattr(index, "_cp_verdict", lambda ends: seen.append(verdict(ends)) or seen[-1])
        got = index.least_multipliers(cp, hom)
    reached = [np.trace(h[0, 0]).real > 0.5 for h in _unit_blocks(hom, cp.target)]
    blocks = cp.choi_blocks()
    assert calls["eigh"] == [c.shape for t, c in enumerate(blocks) if reached[t % len(reached)]]
    assert not calls["eigvalsh"]
    ref_ok, ref_mn = composite.is_completely_positive()
    (ok, mn), = seen
    scale = max(float(np.abs(np.linalg.eigvalsh(hermitian_part(c))).max())
                for c in composite.choi_blocks())
    assert ok == ref_ok and abs(mn - ref_mn) <= 1e-12 * (1 + scale), (mn, ref_mn)
    assert_matches_composite(got, composite)


def sanitize(obj):
    """The recursive walk that turned numpy scalars and arrays of a report
    into JSON types and sorted its keys, before each handler returned JSON
    types itself: kept as the oracle of the JSON output."""
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    return obj


def sequential_best_constants(X: HilbertBimodule, seed: int = 0) -> tuple[float, float]:
    """(lambda, lambda') attained by :func:`sequential_largest_ratio` on X and
    its contragredient: a lower bound for lambda, an upper one for lambda'."""
    return (sequential_largest_ratio(X, seed)[0],
            1.0 / sequential_largest_ratio(contragredient(X), seed)[0])


def loop_basic_checks(bco: BasicConstruction, lam: float, rng: np.random.Generator) -> dict:
    """The checks of ``BasicConstruction.sampled_checks`` one operator at a
    time on X, kept as their oracle: the conditional property on each unit
    e_u of A, idempotency on each unit theta_{w_i, w_j} of L(X_B), both read
    through ``phi_expectation`` and ``X.op_norm``, and the Pimsner-Popa line
    on BASIC_SAMPLES rank-one T = ``X.rank_one(x, x)``, each x from 2d
    normals (re x, then im x)."""
    X = bco.bimodule
    cond = max(X.op_norm(bco.phi_expectation(X.phi(X.A.unit(*t))) - X.phi(bco.p * X.A.unit(*t)))
               for t in X.A.unit_triples())
    idem = 0.0
    for _, w in _w_frames(X):
        for i in range(w.shape[1]):
            for j in range(w.shape[1]):
                e1 = bco.phi_expectation(X.rank_one(w[:, i], w[:, j]))
                idem = max(idem, X.op_norm(bco.phi_expectation(e1) - e1))
    pp_min = np.inf
    for _ in range(BASIC_SAMPLES):
        x = rng.standard_normal(X.dim) + 1j * rng.standard_normal(X.dim)
        T = X.rank_one(x, x)
        resid = lam * X.op_rep(X.phi(bco.F.apply(T))) - X.op_rep(T)
        pp_min = min(pp_min, float(np.linalg.eigvalsh(0.5 * (resid + resid.conj().T)).min()))
    return {"idempotency_residual": idem, "conditional_residual": cond,
            "pp_inequality_min_eig": pp_min}


def per_element_apply(spec: ExpectationSpec, b: AlgebraElement) -> AlgebraElement:
    """E(b) one element at a time, the route that the stacked
    ``ExpectationSpec.apply_stack`` replaced."""
    emb = np.zeros((spec.A.rep_dim, spec.A.rep_dim), dtype=complex)
    for k, img in enumerate(spec.images):
        emb += np.einsum("rs,rsab->ab", b.blocks[k], img)
    return spec.A.from_embedded(emb)


def per_element_iota(inc: Inclusion, a: AlgebraElement) -> AlgebraElement:
    """iota(a) copy by copy, the route of the stacked ``Inclusion.embed_stack``."""
    out = inc.B.zero()
    for k in range(inc.B.num_blocks):
        for j in range(inc.A.num_blocks):
            m = inc.A.blocks[j]
            for c in range(inc.multiplicity[k, j]):
                off = inc.copy_offset(k, j, c)
                out.blocks[k][off:off + m, off:off + m] = a.blocks[j]
    return out


def per_element_check(spec: ExpectationSpec, tol: float = 1e-9) -> dict:
    """``ExpectationSpec.check`` one element at a time: the oracle of the
    stacked check (the bimodule property on every generator of A against
    every unit of B, the same Gram K)."""
    A, B = spec.A, spec.B

    def E(b):
        return per_element_apply(spec, b)

    def iota(a):
        return per_element_iota(spec.inclusion, a)

    unital = (E(B.identity()) - A.identity()).norm()
    idem = 0.0
    for j in range(A.num_blocks):
        for i in range(A.blocks[j]):
            for jj in range(A.blocks[j]):
                a = A.unit(j, i, jj)
                idem = max(idem, (E(iota(a)) - a).norm())
    bimod = 0.0
    for (j, i, jj) in A.unit_triples():
        if i and jj:
            continue                    # a product of the generators e_i0 and e_0jj
        g = A.unit(j, i, jj)
        for b in (B.unit(*t) for t in B.unit_triples()):
            bimod = max(bimod, (E(iota(g) * b) - g * E(b)).norm(),
                        (E(b * iota(g)) - E(b) * g).norm())
    nb = B.linear_dim
    K = np.zeros((nb, nb), dtype=complex)
    triples = B.unit_triples()
    for u in range(nb):
        for v in range(nb):
            ku, iu, ju = triples[u]
            kv, iv, jv = triples[v]
            if ku != kv:
                continue
            prod = B.zero()
            if iu == iv:
                prod.blocks[ku][ju, jv] = 1.0   # (E_iu_ju)* E_iv_jv
            K[u, v] = np.trace(E(prod).embed())
    faithful = float(np.linalg.eigvalsh(hermitian_part(K)).min()) > tol
    ok = unital <= tol and idem <= tol and bimod <= 1e-7 and faithful
    return {"passed": bool(ok), "unital": unital, "idempotent": idem,
            "bimodule": bimod, "faithful": bool(faithful)}


# The rank searches and the least-squares candidate that ``morita_check`` and
# ``fiber_decomposition`` ran before they read the multiplicity matrix Lambda,
# and the least-squares closure check of ``fiber_decomposition``, kept
# verbatim as test-only oracles.


def rank_morita_check(X: HilbertBimodule, tol: float = 1e-7) -> MoritaReport:
    """``morita_check`` by numerical ranks and a d^2 x d^2 least squares."""
    d = X.dim
    # fullness of the right inner product
    span = X.right_gram.reshape(d * d, -1)
    right_full = int(np.linalg.matrix_rank(span, tol=1e-9)) == X.B.linear_dim
    # phi(A) = K(X_B): compare dim phi(A) with dim L(X_B) = sum M_l^2, the M_l
    # the multiplicities of the right action
    phis = np.array([X.phi(u) for u in X.A.units_embedded()])
    dim_kx = int(np.sum(np.square(_multiplicities([(X.B, X.psis)], d))))
    dim_phi = int(np.linalg.matrix_rank(phis.reshape(len(phis), -1), tol=1e-9))
    surjective = dim_phi == dim_kx

    candidate_valid = False
    res_r = res_l = None
    if surjective:
        flat = phis.reshape(len(phis), -1).T
        # column (p, q) is theta_{e_p,e_q}[i, r] = sum_ab psi(e_ab)[i, p] (e_q|e_r)_B[a, b]
        thetas = np.tensordot(X.right_action, X.right_gram, axes=([0, 1], [2, 3]))
        thetas = thetas.transpose(0, 3, 1, 2).reshape(d * d, d * d)
        coeff, *_ = np.linalg.lstsq(flat, thetas, rcond=None)
        if np.abs(flat @ coeff - thetas).max() <= 1e-8:
            L = np.tensordot(coeff, X.A.units_embedded(), axes=([0], [0])).reshape(
                d, d, X.A.rep_dim, X.A.rep_dim)
            cand = X.with_left_gram(L)
            if validate(cand, tol=1e-7).passed:
                candidate_valid = True
                idx = right_index(cand)
                res_r = float((idx.r_ind - X.A.identity()).norm())
                res_l = float((idx.l_ind - X.B.identity()).norm())
    is_morita = candidate_valid and res_r <= tol and res_l <= tol and right_full
    target = X if X.is_bihilbertian else (cand if candidate_valid else None)
    min_dim = min_dimension(target).dim_hat if target is not None else None
    agree = min_dim is None or is_morita == (abs(min_dim - 1.0) <= 1e-9)
    return MoritaReport(is_morita=is_morita, right_full=right_full,
                        action_surjective=surjective,
                        candidate_valid=candidate_valid,
                        r_ind_identity_residual=res_r, l_ind_identity_residual=res_l,
                        min_dim=min_dim, conditions_agree=agree)


def rank_fiber_dimensions(X: HilbertBimodule) -> list[int]:
    """Fiber dimensions of ``fiber_decomposition`` as the ranks of the cuts of
    the relative commutant by the images of the central projections of A."""
    comm = relative_commutant(X)
    dims = []
    for k in range(X.A.num_blocks):
        z = X.A.zero()
        z.blocks[k] = np.eye(X.A.blocks[k])
        pz = X.phi(z)
        cut = np.einsum("ij,mjk->mik", pz, comm)
        dims.append(int(np.linalg.matrix_rank(cut.reshape(len(comm), -1), tol=1e-9)))
    return dims


def lstsq_left_adjoint_residual(X: HilbertBimodule) -> float:
    """``left_adjoint_residual`` of ``fiber_decomposition`` by least squares:
    the left adjoint of each member of the orthonormal relative commutant,
    fitted in the span of the commutant (a (d^2, sum Lambda^2) system)."""
    comm = relative_commutant(X)
    flat = comm.reshape(len(comm), -1).T
    adj = np.array([X.left_op_adjoint(M) for M in comm]).reshape(len(comm), -1).T
    coeff, *_ = np.linalg.lstsq(flat, adj, rcond=None)
    return float(np.abs(flat @ coeff - adj).max())


def span_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Max-abs distance between the orthogonal projections onto the spans of
    two orthonormal stacks of matrices; inf when their dimensions differ.
    The d^2 x d^2 difference is formed 512 rows at a time."""
    if len(U) != len(V):
        return np.inf
    if not len(U):
        return 0.0
    u, v = U.reshape(len(U), -1), V.reshape(len(V), -1)
    rows, cols = np.concatenate([u, v]).T, np.concatenate([u.conj(), -v.conj()])
    return max(float(np.abs(rows[i:i + 512] @ cols).max()) for i in range(0, len(rows), 512))


def random_graph(seed: int, max_vertices: int = 12, extra_edges: int = 6) -> GraphSpec:
    """Random weighted graph where every vertex has in- and out-degree >= 1
    (a permutation cycle cover plus extra random edges)."""
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(2, max_vertices + 1))
    names = [f"v{i}" for i in range(nv)]
    perm = rng.permutation(nv)
    edges = {}
    for i in range(nv):
        edges[(i, int(perm[i]))] = float(0.2 + 2.8 * rng.random())
    for _ in range(int(rng.integers(0, extra_edges + 1))):
        i, j = int(rng.integers(nv)), int(rng.integers(nv))
        if (i, j) not in edges:
            edges[(i, j)] = float(0.2 + 2.8 * rng.random())
    return GraphSpec(names, [(names[i], names[j], w) for (i, j), w in edges.items()])


def diag_expectation_m2():
    """The diagonal compression of M_2 onto C^2 (index 2)."""
    inc = Inclusion(MultiMatrixAlgebra([1, 1]), MultiMatrixAlgebra([2]), [[1, 1]])
    return trace_weighted_expectation(inc)


def two_block_expectation():
    """M_2 embedded diagonally into M_2 (+) M_2 with weights (1/2, 1/2)."""
    inc = Inclusion(MultiMatrixAlgebra([2]), MultiMatrixAlgebra([2, 2]), [[1], [1]])
    return trace_weighted_expectation(inc, [[0.5], [0.5]])


def degenerate_action_bimodule() -> HilbertBimodule:
    """C^2 over C^2-C with the second central summand of A acting as zero:
    the right index element is not invertible and phi is not injective."""
    A = MultiMatrixAlgebra([1, 1])
    C = MultiMatrixAlgebra([1])
    d = 2
    G = np.eye(d, dtype=complex).reshape(d, d, 1, 1)
    L = np.zeros((d, d, 2, 2), dtype=complex)
    L[:, :, 0, 0] = np.diag([1.0, 2.0])
    Phi = np.zeros((2, 2, d, d), dtype=complex)
    Phi[0, 0] = np.eye(d)
    Psi = np.eye(d, dtype=complex).reshape(1, 1, d, d)
    return HilbertBimodule(A, C, d, G, Phi, Psi, L)


def zero_block_bimodule() -> HilbertBimodule:
    """A [2, 1]-[1, 2] module whose second B block acts with multiplicity
    zero: a zero column of Lambda, so L(X_B) has no block for it and the
    right inner product is not full."""
    return random_bimodule([2, 1], [1, 2], [[1, 0], [2, 0]], seed=3)


def zero_row_bimodule() -> HilbertBimodule:
    """A [1, 1]-[1] module whose second A block acts as zero: a zero row of
    Lambda, so r-ind and p vanish there and phi is not injective.  E's Choi
    blocks at that block are zero, so a CP test of E that kept it would
    read a least eigenvalue of 0 where phi.E reads 1."""
    return random_bimodule([1, 1], [1], [[1], [0]], seed=4)


def four_cycle_graph() -> GraphSpec:
    vs = ["a", "b", "c", "d"]
    return GraphSpec(vs, [(vs[i], vs[(i + 1) % 4], 1.0) for i in range(4)])


def bidirected_cycle_graph() -> GraphSpec:
    vs = ["a", "b", "c", "d"]
    edges = []
    for i in range(4):
        edges.append((vs[i], vs[(i + 1) % 4], 0.5))
        edges.append((vs[(i + 1) % 4], vs[i], 0.5))
    return GraphSpec(vs, edges)


def star_graph(m: int) -> GraphSpec:
    vs = ["hub"] + [f"leaf{i}" for i in range(m)]
    edges = [("hub", f"leaf{i}", 1.0 / m) for i in range(m)]
    edges += [(f"leaf{i}", "hub", 1.0) for i in range(m)]
    return GraphSpec(vs, edges)


@st.composite
def small_shapes(draw):
    """(A blocks, B blocks, Lambda), at most 3 blocks a side and Lambda
    entries at most 2, of a module of dimension d <= 30 whose product with
    its contragredient has dimension at most 60."""
    a = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    b = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    lam = np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=len(b), max_size=len(b)),
                                 min_size=len(a), max_size=len(a))))
    ranks = np.array(a) @ lam                  # M_l = rank psi(e^l_11)
    assume(0 < ranks @ b <= 30 and ranks @ ranks <= 60)
    return a, b, lam.tolist()


_RANDOM_SHAPES = [
    ([1], [1], [[2]]),
    ([2], [1], [[1]]),
    ([1], [2], [[1]]),
    ([1, 1], [2], [[1], [1]]),
    ([2], [2, 1], [[1, 1]]),
    ([2, 1], [1, 1], [[1, 0], [1, 1]]),
]


def random_bimodule_family(count: int, seed: int = 0, shapes=None):
    """Deterministic family of random bi-Hilbertian bimodules."""
    shapes = shapes if shapes is not None else _RANDOM_SHAPES
    out = []
    for i in range(count):
        a, b, m = shapes[i % len(shapes)]
        out.append(random_bimodule(a, b, m, seed=seed + 17 * i))
    return out


def corpus():
    """The named test bimodules used by the "every instance" criteria."""
    rng = np.random.default_rng(5)
    entries = [
        ("hilbert_diag12", from_hilbert_space(2, np.diag([1.0, 2.0]))),
        ("hilbert_random3", from_hilbert_space(3, random_posdef(3, rng))),
        ("column2", column_bimodule(2)),
        ("identity_M2", identity_bimodule(MultiMatrixAlgebra([2]))),
        ("identity_C2", identity_bimodule(MultiMatrixAlgebra([1, 1]))),
        ("graph_cycle4", from_weight_graph(four_cycle_graph()).bimodule),
        ("graph_bidirected", from_weight_graph(bidirected_cycle_graph()).bimodule),
        ("expectation_M2", from_expectation(diag_expectation_m2())[0]),
        ("expectation_2block", from_expectation(two_block_expectation())[0]),
        ("random_11", random_bimodule([1], [1], [[2]], seed=1)),
        ("random_21", random_bimodule([2], [1], [[1]], seed=2)),
        ("random_112", random_bimodule([1, 1], [2], [[1], [1]], seed=3)),
    ]
    return entries


def random_compact(X: HilbertBimodule, rng: np.random.Generator,
                   terms: int = 3) -> np.ndarray:
    """A random element of K(X_B): a short sum of rank-one operators."""
    T = np.zeros((X.dim, X.dim), dtype=complex)
    for _ in range(terms):
        x = rng.standard_normal(X.dim) + 1j * rng.standard_normal(X.dim)
        y = rng.standard_normal(X.dim) + 1j * rng.standard_normal(X.dim)
        T += X.rank_one(x, y)
    return T


def random_compact_positive(X: HilbertBimodule, rng: np.random.Generator,
                            terms: int = 3) -> np.ndarray:
    """A random positive element T* T of K(X_B)."""
    T = random_compact(X, rng, terms)
    return X.op_adjoint(T) @ T


def random_positive_operator(X: HilbertBimodule, rng: np.random.Generator) -> np.ndarray:
    """Random positive element of K(X_B) (not just any PSD matrix)."""
    return random_compact_positive(X, rng)


# -- reference serde: the per-scalar encoder and decoder that the block codec of
# bimod.serde replaced, kept verbatim as the oracle for byte-identical output
# and bitwise-identical decoded tensors.


def _reference_encode_complex_matrix(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _reference_decode_complex_matrix(obj, what: str = "matrix") -> np.ndarray:
    try:
        rows = []
        for row in obj:
            out = []
            for z in row:
                if isinstance(z, (int, float)):
                    out.append(complex(z))
                else:
                    out.append(complex(float(z[0]), float(z[1])))
            rows.append(out)
        mat = np.array(rows, dtype=complex)
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"cannot read {what}: {exc}") from exc
    if mat.ndim != 2:
        raise ParseError(f"{what} is not two-dimensional")
    if not np.isfinite(mat).all():
        raise ParseError(f"{what} has a non-finite entry")
    return mat


def _reference_decode_algebra(obj, what: str = "algebra") -> MultiMatrixAlgebra:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ParseError(f"{what} must be an object with a 'blocks' list")
    try:
        return MultiMatrixAlgebra(obj["blocks"])
    except (StructureError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {what}: {exc}") from exc


def _reference_encode_element(x: AlgebraElement) -> dict:
    return {"blocks": [_reference_encode_complex_matrix(b) for b in x.blocks]}


def _reference_decode_element(alg: MultiMatrixAlgebra, obj, what: str = "element") -> AlgebraElement:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ParseError(f"{what} must be an object with a 'blocks' list")
    mats = [_reference_decode_complex_matrix(b, what) for b in obj["blocks"]]
    try:
        return AlgebraElement(alg, mats)
    except StructureError as exc:
        raise ParseError(f"bad {what}: {exc}") from exc


def _reference_encode_action(action: np.ndarray, alg: MultiMatrixAlgebra) -> list:
    """(N, N, d, d) action tensor -> per-block matrix-unit images."""
    out = []
    for k in range(alg.num_blocks):
        s = alg.block_slice(k)
        n = alg.blocks[k]
        out.append([[_reference_encode_complex_matrix(action[s.start + i, s.start + j])
                     for j in range(n)] for i in range(n)])
    return out


def _reference_decode_action(obj, alg: MultiMatrixAlgebra, d: int, what: str) -> np.ndarray:
    action = np.zeros((alg.rep_dim, alg.rep_dim, d, d), dtype=complex)
    if not isinstance(obj, list) or len(obj) != alg.num_blocks:
        raise ParseError(f"{what} must list matrix-unit images for each block")
    for k, blk in enumerate(obj):
        s, n = alg.block_slice(k), alg.blocks[k]
        for i in range(n):
            for j in range(n):
                mat = _reference_decode_complex_matrix(blk[i][j], f"{what}[{k}][{i}][{j}]")
                if mat.shape != (d, d):
                    raise ParseError(f"{what}[{k}][{i}][{j}] is not {d} x {d}")
                action[s.start + i, s.start + j] = mat
    return action


def _reference_encode_gram(gram: np.ndarray, alg: MultiMatrixAlgebra) -> list:
    d = gram.shape[0]
    return [[_reference_encode_element(alg.from_embedded(gram[p, q])) for q in range(d)]
            for p in range(d)]


def _reference_decode_gram(obj, alg: MultiMatrixAlgebra, d: int, what: str) -> np.ndarray:
    gram = np.zeros((d, d, alg.rep_dim, alg.rep_dim), dtype=complex)
    if not isinstance(obj, list) or len(obj) != d:
        raise ParseError(f"{what} must be a {d} x {d} array of elements")
    for p in range(d):
        for q in range(d):
            gram[p, q] = _reference_decode_element(alg, obj[p][q], f"{what}[{p}][{q}]").embed()
    return gram


def reference_encode_bimodule(X: HilbertBimodule) -> dict:
    out = {"kind": "bimodule",
           "A": {"blocks": list(X.A.blocks)}, "B": {"blocks": list(X.B.blocks)},
           "dim": X.dim,
           "right_gram": _reference_encode_gram(X.right_gram, X.B),
           "left_action": _reference_encode_action(X.left_action, X.A),
           "right_action": _reference_encode_action(X.right_action, X.B)}
    if X.left_gram is not None:
        out["left_gram"] = _reference_encode_gram(X.left_gram, X.A)
    return out


def reference_decode_bimodule(obj) -> HilbertBimodule:
    A, B, d, tensors = reference_decode_tensors(obj)
    try:
        return HilbertBimodule(A, B, d, *tensors)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


def reference_decode_tensors(obj) -> tuple:
    """(A, B, dim, [right_gram, left_action, right_action, left_gram]): the
    dense tensors of a bimodule file, read one scalar at a time."""
    for key in ("A", "B", "dim", "right_gram", "left_action", "right_action"):
        if key not in obj:
            raise ParseError(f"bimodule file is missing '{key}'")
    A = _reference_decode_algebra(obj["A"], "A")
    B = _reference_decode_algebra(obj["B"], "B")
    try:
        d = int(obj["dim"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"cannot read dim: {exc}") from exc
    right_gram = _reference_decode_gram(obj["right_gram"], B, d, "right_gram")
    left_action = _reference_decode_action(obj["left_action"], A, d, "left_action")
    right_action = _reference_decode_action(obj["right_action"], B, d, "right_action")
    left_gram = None
    if obj.get("left_gram") is not None:
        left_gram = _reference_decode_gram(obj["left_gram"], A, d, "left_gram")
    return A, B, d, [right_gram, left_action, right_action, left_gram]
