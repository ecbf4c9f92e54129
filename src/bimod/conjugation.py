"""Both directions of the index <-> conjugation equivalence.

Solutions R in Y (x)_A X and Rbar in X (x)_B Y are stored in product
coordinates; coordinates that differ by a null vector of the product give
the same solution.  Everything checked of them is an inner product in a
product, read off one routine and no tensor bimodule: ``_peel`` gives the
vectors m_p of Y with (e_p (x) f | s)_C = (f | m_p)_C, and three readings of
Y's right Gram take them: ``_inner`` gives (r|s) (norms, R*R, intertwiner
residuals), ``_pair`` (r | e_t (x) f_u) = (m_t | f_u) for all basis vectors
(the equation maps and the pair identities, exhaustive on the basis) and
``_left_pairing`` (m_p | m_q) (the recovered left Gram).  ``_peel`` runs
through the corners of B: phi_Y(e_ab) = F[a] H[b] for a, b in block l, with
F and H the factor stacks of the corner record of phi_Y
(``bimodule._corner_ranges``), so no term holds more than O(d^2 U) elements;
a value in C is given at its matrix units, U of them.

Convention: in the two equations the tensor product is applied before the
composition, i.e. the map checked on X is x -> (Rbar* (x) 1_X)(x (x) R).

The minimal dimension over left rescalings is taken in closed form: it is
||Lambda||_2, the spectral norm of the integer multiplicity matrix of the two
actions.  ``min_dimension`` certifies it by building the rescaling that
attains it and evaluating the product of the numerical indices there;
``morita_check`` reads the value alone.  Nothing is searched.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .multimatrix import (
    RANK_TOL,
    AlgebraElement,
    ContractError,
    center_decompose,
    hermitian_part,
)
from .bimodule import (
    HilbertBimodule,
    _corner_ranges,
    _embed,
    _frame_rows,
    _gram_matrix,
    _max_abs,
    _trace,
    _unit_blocks,
    _unit_layout,
    _w_frames,
    contragredient,
    tensor,
    validate,
)
from .index import (
    _certificate,
    _extension_cp_map,
    _multiplicities,
    least_multipliers,
    right_index,
)


# -- vectors of a tensor product in product coordinates -------------------------


def _peel(X: HilbertBimodule, Y: HilbertBimodule, s: np.ndarray) -> np.ndarray:
    """m[..., p, w]: coordinates in Y of the vectors m_p = sum_{q,v}
    phi_Y((e_p|e_q)_B) f_v s[..., q, v], so that (e_p (x) f | s)_C =
    (f | m_p)_C.  Per block l of B with K_l > 0, by the corner record of
    phi_Y (module docstring): s H^T, the Gram block, then F, as (n_l K_l,
    d_Y) matrices H[(b, k), u] = H[b][k, u] and F[(a, k), w] = F[a][w, k]."""
    dx, dy, lead = X.dim, Y.dim, s.shape[:-2]
    m = np.zeros(lead + (dx, dy), dtype=complex)
    parts = _unit_blocks(X.right_stack, X.B)
    for l, (U, F, H) in enumerate(_corner_ranges(Y, left=True)):
        if U.shape[1]:
            G = _gram_matrix(parts[l])
            t = (s @ H.reshape(-1, dy).T).reshape(lead + (G.shape[0], -1))
            m += (G @ t).reshape(lead + (dx, -1)) @ F.transpose(0, 2, 1).reshape(-1, dy)
    return m


def _inner(X: HilbertBimodule, Y: HilbertBimodule, r: np.ndarray,
           s: np.ndarray) -> np.ndarray:
    """(r|s)_C in X (x)_B Y, embedded in M_{N_C}, for product coordinates r, s
    of one shape (..., d_X, d_Y): sum_{p,u} conj(r[p, u]) (f_u | m_p)_C with
    m = ``_peel(s)``, in O(d^3 U)."""
    dy, lead = Y.dim, s.shape[:-2]
    k = (np.swapaxes(r.conj(), -1, -2) @ _peel(X, Y, s)).reshape(lead + (dy * dy,))
    return _embed(k @ Y.right_stack.reshape(len(Y.right_stack), -1).T, Y.B)


def _pair(X: HilbertBimodule, Y: HilbertBimodule, r: np.ndarray) -> np.ndarray:
    """[t, u, c] = (r | e_t (x) f_u)_C at the unit c of C, in X (x)_B Y, for r
    (d_X, d_Y): the adjoint of (e_t (x) f_u | r)_C = (f_u | m_t)_C, so
    (m_t | f_u)_C with m = ``_peel(r)``, read off the right Gram of Y."""
    return np.tensordot(_peel(X, Y, r).conj(), Y.right_stack, axes=([1], [1])).transpose(0, 2, 1)


def _norm(emb: np.ndarray) -> np.ndarray:
    """||r|| = ||(r|r)_C||^(1/2) from (r|r)_C embedded (``_inner``), for a stack;
    a non-finite (r|r)_C, from vectors too large to evaluate, raises ContractError."""
    if not np.isfinite(emb).all():
        raise ContractError("the vectors are too large to evaluate: (r|r) is not finite")
    w = np.linalg.eigvalsh(hermitian_part(emb))
    return np.sqrt(np.maximum(w[..., -1], 0.0))


def _product_coords(vec, X: HilbertBimodule, Y: HilbertBimodule, what: str) -> np.ndarray:
    """A vector of X (x) Y, flat or not, as its (d_X, d_Y) product coordinates."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.size != X.dim * Y.dim:
        raise ContractError(f"{what} has {vec.size} coordinates, expected {X.dim * Y.dim} "
                            "product coordinates (re-run `bimod conjugate` for files "
                            "in the quotient coordinates of schema 3 and earlier)")
    return vec.reshape(X.dim, Y.dim)


def _intertwiner_residual(X: HilbertBimodule, Y: HilbertBimodule,
                          r: np.ndarray, norm: float) -> float:
    """max over the units c of ||phi_X(c) r - r psi_Y(c)^T|| / ||r||: how far r
    in the C-C bimodule X (x) Y is from intertwining the unit actions."""
    diff = X.phis @ r - r @ np.swapaxes(Y.psis, -1, -2)
    return float(_norm(_inner(X, Y, diff, diff)).max()) / max(norm, 1e-300)


# -- solutions of the conjugate equations ---------------------------------------


@dataclass
class ConjugateSolution:
    """A conjugate pair (Y, R, Rbar) for X in product coordinates: R[u, p] is
    the coefficient of f_u (x) e_p in Y (x)_A X, Rbar[p, u] that of
    e_p (x) f_u in X (x)_B Y.  The other fields are its ``VerifyReport``'s."""

    X: HilbertBimodule
    Y: HilbertBimodule
    R: np.ndarray
    Rbar: np.ndarray
    residual_1: float
    residual_2: float
    dim_rel: float
    rr: np.ndarray
    bb: np.ndarray

    @property
    def R_star_R(self) -> AlgebraElement:
        """R*R = (R|R)_B; l-ind for the solution of ``build_conjugate``."""
        return self.X.B.from_embedded(self.rr)

    @property
    def Rbar_star_Rbar(self) -> AlgebraElement:
        """Rbar*Rbar = (Rbar|Rbar)_A; r-ind for ``build_conjugate``."""
        return self.X.A.from_embedded(self.bb)

    @property
    def norm_R(self) -> float:
        return float(_norm(self.rr))

    @property
    def norm_Rbar(self) -> float:
        return float(_norm(self.bb))


def _equation_map(X: HilbertBimodule, Y: HilbertBimodule,
                  r: np.ndarray, rbar: np.ndarray) -> np.ndarray:
    """x -> (Rbar* (x) 1_X)(x (x) R) as a matrix on X: E[i, t] = sum_{u,s}
    R[u, s] phi_X((Rbar | e_t (x) f_u)_A)[i, s].  With X and Y swapped (and
    R, Rbar) it is the map of the second equation, on Y."""
    # [u, c, i] = sum_s R[u, s] phi_X(e_c)[i, s], c the units of A
    r_phi = np.tensordot(r, X.phis, axes=([1], [2]))
    return (_pair(X, Y, rbar).reshape(X.dim, -1) @ r_phi.reshape(-1, X.dim)).T


@dataclass
class VerifyReport:
    residual_1: float
    residual_2: float
    dim_rel: float
    intertwine_R: float
    intertwine_Rbar: float
    tol: float
    rr: np.ndarray               # (R|R)_B, embedded
    bb: np.ndarray               # (Rbar|Rbar)_A, embedded

    @property
    def passed(self) -> bool:
        return self.residual_1 <= self.tol and self.residual_2 <= self.tol

    def as_dict(self) -> dict:
        return {"passed": self.passed, "residual_1": self.residual_1,
                "residual_2": self.residual_2, "dim_rel": self.dim_rel,
                "intertwine_R": self.intertwine_R,
                "intertwine_Rbar": self.intertwine_Rbar}


_INTERTWINE_TOL = 1e-6


def verify_conjugate(X: HilbertBimodule, Y: HilbertBimodule, R, Rbar,
                     tol: float = 1e-8) -> VerifyReport:
    """Evaluate both conjugate-equation residuals for a candidate pair.

    ``R`` and ``Rbar`` are product coordinates in Y (x) X and X (x) Y (see
    ``ConjugateSolution``), as matrices or flattened row-major.  Candidates
    that fail to intertwine the unit actions beyond ``_INTERTWINE_TOL`` are
    rejected: they are not morphisms from the units in the first place.
    """
    r_full = _product_coords(R, Y, X, "R")
    rbar_full = _product_coords(Rbar, X, Y, "Rbar")
    rr, bb = _inner(Y, X, r_full, r_full), _inner(X, Y, rbar_full, rbar_full)
    norm_r, norm_rbar = float(_norm(rr)), float(_norm(bb))
    int_R = _intertwiner_residual(Y, X, r_full, norm_r)
    int_Rbar = _intertwiner_residual(X, Y, rbar_full, norm_rbar)
    if max(int_R, int_Rbar) > _INTERTWINE_TOL:
        raise ContractError(
            f"candidate does not intertwine the unit actions "
            f"(residuals {int_R:.3g}, {int_Rbar:.3g})")
    res1 = X.op_norm(_equation_map(X, Y, r_full, rbar_full) - np.eye(X.dim))
    res2 = Y.op_norm(_equation_map(Y, X, rbar_full, r_full) - np.eye(Y.dim))
    return VerifyReport(res1, res2, norm_r * norm_rbar, int_R, int_Rbar, tol, rr, bb)


def build_conjugate(X: HilbertBimodule) -> ConjugateSolution:
    """Solve the conjugate equations with Y = the contragredient of X: Rbar =
    sum_i u_i (x) conj(u_i) over the w-frame of X (``_frame_rows``), and R
    the same sum over that of Y, tight frames by construction; the
    equations are evaluated by ``verify_conjugate``."""
    X._need_left()
    Y = contragredient(X)
    R, Rbar = (np.einsum("ip,iq->pq", U, U.conj()) for U in (_frame_rows(Y), _frame_rows(X)))
    rep = verify_conjugate(X, Y, R, Rbar)
    return ConjugateSolution(X, Y, R, Rbar, rep.residual_1, rep.residual_2, rep.dim_rel,
                             rep.rr, rep.bb)


# -- recovering the left inner product ------------------------------------------


def _left_pairing(Y: HilbertBimodule, m: np.ndarray) -> np.ndarray:
    """[p, q] = Rbar* (theta_{e_p,e_q} (x) 1_Y) Rbar = (m_p | m_q) in Y, with
    m_q = V(e_q-bar) = ``_peel(Rbar)``; embedded."""
    return _embed((m.conj() @ Y.right_stack @ m.T).transpose(1, 2, 0), Y.B)


def inner_from_conjugate(X: HilbertBimodule, Y: HilbertBimodule, R, Rbar) -> np.ndarray:
    """Left Gram tensor induced by a verified solution:
    _A(e_p|e_q) = Rbar* (theta^r_{e_p,e_q} (x) 1_Y) Rbar.

    The returned tensor makes X bi-Hilbertian of finite index; feeding the
    solution produced by ``build_conjugate`` recovers the original left Gram.
    """
    verify_conjugate(X, Y, R, Rbar)
    L = _left_pairing(Y, _peel(X, Y, _product_coords(Rbar, X, Y, "Rbar")))
    # clean Hermitian symmetry of the result
    return 0.5 * (L + L.conj().transpose(1, 0, 3, 2))


def conjugate_pair_identities(X: HilbertBimodule, Y: HilbertBimodule, R, Rbar,
                              left_gram: np.ndarray) -> dict:
    """Residuals of Rbar*(x (x) V xbar') = _A(x|x') and R*(V xbar (x) x') =
    (x|x')_B after identifying Y with the contragredient via
    V(xbar) = lambda_x* Rbar.

    Both sides are sesquilinear in (x, x'), so the check on the coordinate
    basis is exhaustive: each residual is the largest |lhs - rhs| over the
    basis pairs (e_p, e_q) and the matrix entries of the values."""
    r_full = _product_coords(R, Y, X, "R")
    rbar_full = _product_coords(Rbar, X, Y, "Rbar")
    m = _peel(X, Y, rbar_full)
    # [p, q, c] = R*(V e_p-bar (x) e_q) = sum_u m_p[u] (R | f_u (x) e_q)_B at the unit c
    right = np.tensordot(m, _pair(Y, X, r_full), axes=([1], [0]))
    left = _left_pairing(Y, m)
    return {"right_identity_residual":
            float(np.abs(right - X.right_stack.transpose(1, 2, 0)).max()),
            "left_identity_residual": float(np.abs(left - np.asarray(left_gram)).max())}


# -- rescaling the left structure -------------------------------------------------


def rescale_left(X: HilbertBimodule, Q: np.ndarray) -> HilbertBimodule:
    """Replace the left inner product by _A(Q x | y) for Q positive invertible
    in the relative commutant (positivity taken with respect to the left
    inner product); commutation is checked on the generator images of phi
    and psi, whose products give every unit.  The result carries X's values
    cached of its right half (``with_left_stack``)."""
    X._need_left()
    Q = np.asarray(Q, dtype=complex)
    scale = max(float(np.abs(Q).max()), 1e-300)
    gens = chain(X.phis[_unit_layout(X.A.blocks).gens], X.psis[_unit_layout(X.B.blocks).gens])
    comm_res = max(_max_abs(Q @ u - u @ Q) for u in gens) / scale
    if comm_res > 1e-8:
        raise ContractError(f"Q is not in the relative commutant (residual {comm_res:.3g})")
    Qh = X.left_op_rep(Q)
    dev = float(np.abs(Qh - Qh.conj().T).max())
    if dev > 1e-8 * (1.0 + np.abs(Qh).max()):
        raise ContractError("Q is not self-adjoint for the left inner product")
    w = np.linalg.eigvalsh(hermitian_part(Qh))
    if w.min() <= RANK_TOL * max(float(w.max()), 1e-300):
        raise ContractError("Q is not positive invertible")
    # [u, p, q] = sum_r Q[r, p] left_stack[u, r, q]
    return X.with_left_stack(Q.T @ X.left_stack)


# -- minimal dimension --------------------------------------------------------------


CERTIFICATE_TOL = 1e-10


@dataclass
class MinDimResult:
    """The minimal dimension and its certificate.

    ``certificate_residual`` is |r_num l_num - dim_hat^2| / dim_hat^2 for X
    rescaled by ``Q_star``, or None when that rescaled module fails
    validation, so that no index is read off it.  ``evaluations`` counts
    objective evaluations (always one).
    """

    dim_hat: float
    Q_star: np.ndarray
    multiplicities: np.ndarray
    certificate_residual: float | None
    evaluations: int = 1

    @property
    def certified(self) -> bool:
        return self.certificate_residual is not None and self.certificate_residual <= CERTIFICATE_TOL


def _trace_left_gram(X: HilbertBimodule) -> np.ndarray:
    """The left Gram L0 fixed by Tr_A(a _A(x|y)) = Tr_B((y|a x)_B) with
    unnormalized block traces, as a stack over A: L0[p, q][b, a] =
    sum_r phi(e_ab)[r, p] tr (e_q|e_r)_B."""
    phi_star = np.swapaxes(X.phis[_unit_layout(X.A.blocks).star], 1, 2)   # phi(e_ab)^T at e_ba
    return phi_star @ _trace(X.right_stack, X.B).T


def _perron_weights(lam: np.ndarray) -> np.ndarray:
    """c[k, l] = v_l / u_k where Lambda_kl > 0, with u, v the Perron vectors
    of the connected component of Lambda's bipartite graph holding (k, l):
    Lambda_c v = ||Lambda_c|| u and Lambda_c^T u = ||Lambda_c|| v."""
    na, nb = lam.shape
    link = np.eye(na + nb, dtype=int)
    link[:na, na:] = lam > 0
    link[na:, :na] = (lam > 0).T
    for _ in range((na + nb).bit_length()):
        link = (link @ link > 0).astype(int)
    label = link.argmax(axis=1)     # smallest vertex of each component
    c = np.zeros(lam.shape)
    for comp in np.flatnonzero(label == np.arange(na + nb)):   # one root per component
        rows, cols = np.flatnonzero(label[:na] == comp), np.flatnonzero(label[na:] == comp)
        if len(rows) and len(cols):
            u, _, vh = np.linalg.svd(lam[np.ix_(rows, cols)])
            c[np.ix_(rows, cols)] = np.abs(vh[0])[None, :] / np.abs(u[:, 0])[:, None]
    return c * (lam > 0)


def _rescaling_centre(X: HilbertBimodule, lam: np.ndarray) -> np.ndarray:
    """C = sum_kl w_kl phi(z_k) psi(z_l), w = ``_perron_weights``(lam): one
    d x d product per linked pair (k, l)."""
    phis = [X.phi(z) for z in center_decompose(X.A)]
    psis = [X.psi(z) for z in center_decompose(X.B)]
    w = _perron_weights(lam)
    return sum((w[k, l] * phis[k] @ psis[l] for k, l in zip(*np.nonzero(w))),
               np.zeros((X.dim, X.dim), dtype=complex))


def min_dimension(X: HilbertBimodule) -> MinDimResult:
    """Minimal dimension of X over all left rescalings: ||Lambda||_2, the
    largest singular value of the integer multiplicity matrix Lambda
    (Goodman-de la Harpe-Jones), with a rescaling that attains it.

    The reference left Gram L0, fixed by Tr_A(a _A(x|y)) = Tr_B((y|a x)_B)
    with unnormalized block traces, has r-ind_k = sum_l Lambda_kl and
    l-ind_l = sum_k Lambda_kl.  Weighting it by the central element
    C = sum_kl (v_l / u_k) phi(z_k) psi(z_l) (see ``_perron_weights``) makes
    both index elements ||Lambda_c|| on each component c.  Q_star carries the
    left Gram of X to C L0, read off the two scalar trace forms; the
    certificate rescales X by it (``rescale_left`` checks that Q_star is
    positive in the relative commutant), validates the result and compares
    r_num l_num there with ||Lambda||_2^2; after a ``validate`` of X, only
    the 5 left lines of the rescaled module are computed.
    """
    X._need_left()
    lam = _multiplicities([(X.A, X.phis), (X.B, X.psis)], X.dim)
    dim_hat = float(np.linalg.norm(lam, 2))
    L_star = _rescaling_centre(X, lam).T @ _trace_left_gram(X)      # C L0, as a stack over A
    # a rescaling Q multiplies the scalar form tr _A(e_p|e_q) by Q^T on the left
    Q_star = np.linalg.solve(X.scalar_left_gram, _trace(L_star, X.A).T)
    X_star = rescale_left(X, Q_star)
    residual = None
    if validate(X_star).passed:
        rep = right_index(X_star)
        residual = float(abs(rep.r_num * rep.l_num - dim_hat ** 2) / dim_hat ** 2)
    return MinDimResult(dim_hat=dim_hat, Q_star=Q_star, multiplicities=lam,
                        certificate_residual=residual)


# -- characterization of the index by complete positivity ---------------------------


@dataclass
class CPCharacterization:
    least_multiplier: list[float]
    range_residual: list[float]
    passed_at_index: bool
    minimality_certified: bool


def cp_characterization(X: HilbertBimodule) -> CPCharacterization:
    """The left index element is the smallest central multiplier c for which
    T -> psi(c) phi(F(T)) - T is completely positive on K(X_B).

    In the frame of the units of L(X_B) psi(c) scales block l by c_l = tr
    (w_1 | w_1.c)_B, as w.c = c_l w on X.e^l_11, so the least multiplier
    c_l* of phi F is taken in closed form from the Choi blocks of F and phi
    in that frame (``least_multipliers``, with no phi F formed) and
    compared with the l-ind of ``right_index`` (``index._certificate``).
    """
    X._need_left()
    w1, w = np.array([v[:, 0] for _, v in _w_frames(X)]).T, _frame_rows(X).T
    c = np.einsum("pl,pl->l", (X.scalar_gram @ w1).conj(), X.psi(right_index(X).l_ind) @ w1).real
    phi = (X.scalar_gram @ w).conj().T @ X.phis @ w         # tr (w_r | phi(e_u) w_s)_B
    found = least_multipliers(_extension_cp_map(X), phi)
    return CPCharacterization(found[1].tolist(), found[2].tolist(), *_certificate(found, c))


# -- Morita equivalence ---------------------------------------------------------------


@dataclass
class MoritaReport:
    is_morita: bool
    right_full: bool
    action_surjective: bool
    candidate_valid: bool
    r_ind_identity_residual: float | None    # None when no candidate was validated
    l_ind_identity_residual: float | None
    min_dim: float | None        # ||Lambda||_2, or None when no left inner product is at hand
    conditions_agree: bool

    def as_dict(self) -> dict:
        return asdict(self)


def morita_check(X: HilbertBimodule) -> MoritaReport:
    """Decide whether X can carry a left inner product making it a strong
    Morita equivalence: both index elements become identities.

    Both structural conditions are read off the integer multiplicity matrix
    Lambda of the two actions.  X = (+)_kl C^{a_k} (x) C^{Lambda_kl} (x)
    C^{n_l}, so the right inner product is full iff every column of Lambda
    is nonzero, and phi(A) = K(X_B) = (+)_l M_{sum_k a_k Lambda_kl} iff
    every column sum is at most 1 and every row has at most one nonzero
    entry.  Then the candidate _A(x|y) = phi^{-1}(theta^r_{x,y}) is the
    trace-compatible left Gram L0 of ``min_dimension``: Tr theta_{x,y} =
    sum_l n_l tr_l (y|x)_B and Tr phi(e^k_11) = n_l for the block l that k
    fills.  The candidate is validated and its index elements compared with
    the identities to 1e-7; with no valid candidate both residuals are None.
    When X or the candidate carries a left inner product, ``min_dim`` is
    ||Lambda||_2, the minimal dimension of ``min_dimension`` read off the
    same Lambda with no certificate run, and it must be 1 for an
    equivalence; otherwise it is None.
    """
    lam = _multiplicities([(X.A, X.phis), (X.B, X.psis)], X.dim)
    right_full = bool(lam.any(axis=0).all())
    surjective = bool((lam.sum(axis=0) <= 1).all() and ((lam > 0).sum(axis=1) <= 1).all())

    candidate_valid = False
    res_r = res_l = None
    if surjective:
        cand = X.with_left_stack(_trace_left_gram(X))
        if validate(cand, tol=1e-7).passed:
            candidate_valid = True
            idx = right_index(cand)
            res_r = float((idx.r_ind - X.A.identity()).norm())
            res_l = float((idx.l_ind - X.B.identity()).norm())
    is_morita = candidate_valid and res_r <= 1e-7 and res_l <= 1e-7 and right_full
    min_dim = float(np.linalg.norm(lam, 2)) if X.is_bihilbertian or candidate_valid else None
    agree = min_dim is None or is_morita == (abs(min_dim - 1.0) <= 1e-9)
    return MoritaReport(is_morita=is_morita, right_full=right_full,
                        action_surjective=surjective,
                        candidate_valid=candidate_valid,
                        r_ind_identity_residual=res_r, l_ind_identity_residual=res_l,
                        min_dim=min_dim, conditions_agree=agree)


# -- composing conjugates over a tensor product ---------------------------------------


def _pushed_pair(Z: HilbertBimodule, W: HilbertBimodule, P: np.ndarray,
                 Q: np.ndarray) -> np.ndarray:
    """[g, c] = sum push_Z[g, (p, u)] P[p, q] Q[u, v] push_W[c, (v, q)] for
    tensor bimodules Z and W (``tensor``), block by block of both: with
    push = (+)_l sum_s JX_l[s] (x) JY_l[s], entry ((i, j), (i', j')) of block
    (l, l') is sum_{s,t} (JX_l[s] P JY_l'[t]^T)[i, j'] (JY_l[s] Q JX_l'[t]^T)[j, i'],
    so nothing of the size of either product's coordinates is formed."""
    zb, wb = Z.meta["tensor"]["blocks"], W.meta["tensor"]["blocks"]
    return np.block([[np.einsum("stiJ,stjI->ijIJ",
                                (JXZ @ P)[:, None] @ JYW.swapaxes(1, 2),
                                (JYZ @ Q)[:, None] @ JXW.swapaxes(1, 2)).reshape(
                          JXZ.shape[1] * JYZ.shape[1], JXW.shape[1] * JYW.shape[1])
                      for _, _, JXW, JYW in wb] for _, _, JXZ, JYZ in zb])


def tensor_conjugate(sol_X: ConjugateSolution, sol_Y: ConjugateSolution) -> ConjugateSolution:
    """Conjugate solution for X (x) Y with conjugate Ybar (x) Xbar, assembled
    from the two factor solutions by inserting each R into the middle leg and
    pushing the result into both tensor bimodules (``_pushed_pair``)."""
    X, x_conj = sol_X.X, sol_X.Y
    Y, y_conj = sol_Y.X, sol_Y.Y
    if X.B != Y.A:
        raise ContractError("middle algebras of the two solutions differ")
    Z = tensor(X, Y)
    W = tensor(y_conj, x_conj)
    # R = (1 (x) R_X (x) 1) R_Y: R_Y[a, b] R_X[c, d] at (a, c), (d, b)
    R = _pushed_pair(Z, W, sol_X.R.T, sol_Y.R.T).T
    # Rbar = (1 (x) Rbar_Y (x) 1) Rbar_X: Rbar_X[p, q] Rbar_Y[u, v] at (p, u), (v, q)
    Rbar = _pushed_pair(Z, W, sol_X.Rbar, sol_Y.Rbar)
    rep = verify_conjugate(Z, W, R, Rbar)
    return ConjugateSolution(Z, W, R, Rbar, rep.residual_1, rep.residual_2, rep.dim_rel,
                             rep.rr, rep.bb)
