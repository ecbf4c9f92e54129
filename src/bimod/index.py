"""The index engine: extension of the left inner product to compact operators,
index elements and numerical indices, best norm-equivalence constants, the
Jones basic construction, and the fiber decomposition of the relative
commutant.

Commutants are read off the actions, with no seed and no search
(``commutant_of``).  For a unital *-homomorphism rho of (+)_k M_{n_k} the
space splits as (+)_k C^{n_k} (x) C^{M_k}, and the commutant is
(+)_k M_{M_k} with matrix units lifted from an orthonormal basis W_k of
ran rho(e^k_11) by rho(e^k_s1).  Further commuting actions restrict to
W_k^* act W_k and are read the same way, level by level.  Three checks
certify the result: the rank of each rho(e^k_11) is the multiplicity read
from the traces of the central-projection images, the unit columns form a
unitary Q, and in that basis every unit image has the form (+)_b 1 (x) R_b
of the algebra G the actions generate.  L(X_B) is the commutant of the
right action alone (``module_operator_algebra``), and the relative
commutant C that of both, in the standard-involution picture
(``X.op_rep``).  There the left-inner-product adjoint is u -> H^-1 u^* H,
H = g^(-1/2) g_l g^(-1/2) with g, g_l the scalar Gram forms; as C is
closed under u^*, it is closed under the left adjoint when H lies in C,
that is when g^-1 g_l commutes with both actions (``fiber_decomposition``).

At finite dimension the compacts K(X_B) coincide with all adjointable
B-linear maps, so the extension map serves simultaneously as the norm and
strict extensions; maps are checked for complete positivity through Choi
blocks over the matrix units of L(X_B).  F is held only as its images
there (``_extension_cp_map``), and r-ind = F(1) is read off them.  The
best constants are read in closed form on the same units, one Ky Fan sum
per block of A (``best_constants``).

The least central c for which T -> c Phi(T) - T stays completely positive,
Phi = hom.cp with cp completely positive into A and hom a unital
*-homomorphism back, is taken in closed form (``least_multipliers``): Choi
block (l, l') of that map is c_l' C_ll' - delta_ll' Omega_l Omega_l^*, with
C the Choi matrix of Phi and Omega_l = vec 1.  By the pseudo-inverse Schur
test (Albert, SIAM J. Appl. Math., 1969), c_l C_ll >= Omega_l Omega_l^*
iff Omega_l lies in ran C_ll and c_l >= c_l* = Omega_l^* C_ll^+ Omega_l.
No multiplier is searched and Phi is not formed: C_ll is read off the
Choi blocks of cp, of size m_l a_k.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .multimatrix import (
    DEFAULT_TOL,
    RANK_TOL,
    AlgebraElement,
    ContractError,
    MultiMatrixAlgebra,
    StarAlgebraDecomposition,
    StructureError,
    hermitian_part,
    inverse_on_support,
    support_projection,
)
from .bimodule import (
    HilbertBimodule,
    ModuleOperator,
    _corner_rank,
    _element,
    _embed,
    _max_abs,
    _read_only,
    _unit_blocks,
    _unit_images,
    _unit_layout,
    _w_frames,
    contragredient,
)


# -- commutants and concrete operator algebras ---------------------------------


def _multiplicities(pairs, dim: int) -> np.ndarray:
    """Integer multiplicities Lambda of the joint central blocks, one axis per
    pair (algebra, images (U, dim, dim) at its matrix units): the trace of
    the product of the central-projection images over the pairs (the last
    pair's images enter only the trace) over the product of the block
    sizes, an integer for unital (anti-)homomorphisms.  For the two actions
    of X it is the K_A x K_B matrix of the relative commutant (+)_kl M_{Lambda_kl}."""
    centres = [[(n, np.einsum("iiab->ab", L)) for n, L in zip(alg.blocks, _unit_blocks(act, alg))]
               for alg, act in pairs]
    terms = [(1, np.eye(dim, dtype=complex))]
    for centre in centres[:-1]:
        terms = [(den * n, M @ Z) for den, M in terms for n, Z in centre]
    terms = [(den * n, np.einsum("ab,ba->", M, Z).real) for den, M in terms for n, Z in centres[-1]]
    lam = np.array([t / den for den, t in terms])
    if np.abs(lam - np.round(lam)).max() > 1e-6:
        raise StructureError(f"multiplicities {np.round(lam, 6).tolist()} are not integers: "
                             "the action is not a homomorphism")
    lam = np.round(lam).astype(int)
    sizes = np.array([den for den, _ in terms])
    if int(lam @ sizes) != dim:
        raise StructureError("the actions are not unital")
    return lam.reshape([alg.num_blocks for alg, _ in pairs])


def _commutant_columns(pairs, dim: int) -> list[np.ndarray]:
    """Per block of the commutant of the actions ``pairs`` (algebra, images
    (U, dim, dim) at its matrix units): columns K (dim, Lambda, multiplicity)
    with units u(i, j) = sum_t K[:, i, t] K[:, j, t]^*.

    The first action rho splits C^dim as (+)_k C^{n_k} (x) C^{M_k}: with W_k
    an orthonormal basis of ran rho(e^k_11), the isometries rho(e^k_s1) W_k
    carry the units of M_{M_k}.  The further actions commute with rho, so
    W_k^* act W_k is an action on C^{M_k}, whose units are read the same way
    and lifted through rho(e^k_s1) W_k.  The rank of each rho(e^k_11) must
    equal the multiplicity M_k read from the traces, or StructureError."""
    (alg, act), rest = pairs[0], pairs[1:]
    lam = _multiplicities([(alg, act)], dim)
    out = []
    for k, L in enumerate(_unit_blocks(act, alg)):
        w, v = np.linalg.eigh(hermitian_part(L[0, 0]))
        W = v[:, w > 0.5]
        if W.shape[1] != lam[k]:
            raise StructureError(f"the image of e^{k}_11 has rank {W.shape[1]}, "
                                 f"the multiplicity is {lam[k]}")
        if not lam[k]:
            continue
        V = L[:, 0] @ W                                   # rho(e^k_s1) W, (n_k, dim, M_k)
        if not rest:
            out.append(V.transpose(1, 2, 0))
            continue
        inner = [(a, W.conj().T @ b @ W) for a, b in rest]
        out += [np.tensordot(V, K, axes=([2], [0])).transpose(1, 2, 0, 3)
                .reshape(dim, K.shape[1], -1) for K in _commutant_columns(inner, int(lam[k]))]
    return out


def _block_form_residual(cols, mats: np.ndarray, Q: np.ndarray) -> float:
    """Max-abs distance of Q^* M Q from (+)_b 1_{Lambda_b} (x) R_b (R_b the
    mean of its diagonal blocks) over the stack ``mats``: for the unitary Q of
    the columns ``cols``, zero iff each M lies in the algebra G the actions
    generate, the commutant of ``cols``."""
    images, start = Q.conj().T @ mats @ Q, 0
    for K in cols:
        lam, mult = K.shape[1:]
        s, start = slice(start, start + lam * mult), start + lam * mult
        R = np.einsum("siuiv->suv", images[:, s, s].reshape(-1, lam, mult, lam, mult)) / lam
        images[:, s, s] -= np.einsum("ij,suv->siujv", np.eye(lam), R).reshape(images[:, s, s].shape)
    return float(np.abs(images).max())


def _commutant(pairs, dim: int) -> StarAlgebraDecomposition:
    """``commutant_of`` on (algebra, unit images (U, dim, dim)) pairs: the
    units of ``_commutant_columns``, after the checks of their unitary Q."""
    cols, mats = _commutant_columns(pairs, dim), np.concatenate([act for _, act in pairs])
    Q = np.concatenate([K.reshape(dim, -1) for K in cols], axis=1)
    res = max(np.abs(Q.conj().T @ Q - np.eye(dim)).max(), _block_form_residual(cols, mats, Q))
    if res > 1e-8:
        raise StructureError(f"matrix units of the commutant fail their relations or do not "
                             f"commute with the actions (residual {res:.3g})")
    units = [np.tensordot(K, K.conj(), axes=([2], [2])).transpose(1, 3, 0, 2) for K in cols]
    return StarAlgebraDecomposition(MultiMatrixAlgebra([K.shape[1] for K in cols]), units,
                                    [K.shape[2] for K in cols], dim)


def commutant_of(mats, dim: int) -> StarAlgebraDecomposition:
    """The commutant of the actions in ``mats`` as a multimatrix algebra with
    explicit matrix units (``_commutant_columns``).

    ``mats`` is a sequence of (MultiMatrixAlgebra, action tensor
    (N, N, dim, dim)) pairs, each a unital *-homomorphism with commuting
    images; each tensor is read at the matrix units of its algebra.  The
    columns of all blocks must form a unitary Q, which is the full set of
    unit relations u_ij u_ka = delta_jk u_ia and sum u_ii = 1; and in the
    basis Q every unit image must be (+)_b 1_{Lambda_b} (x) R_b, so that it
    commutes with every unit.  Either failure raises StructureError.  With
    the ranks matched to the multiplicities at every level, the units span
    sum Lambda^2 dimensions, all of the commutant.
    """
    return _commutant([(alg, _unit_images(alg, np.asarray(act, dtype=complex)))
                       for alg, act in mats], dim)


def _psi_hat(X: HilbertBimodule) -> tuple[MultiMatrixAlgebra, np.ndarray]:
    """e_ij -> psi_hat(e_ji), psi_hat = op_rep.psi: the right action in the
    standard-involution picture with its unit indices transposed, a unital
    *-homomorphism of B^op (whose blocks are those of B), at its units."""
    return X.B, X.op_rep(X.psis)[_unit_layout(X.B.blocks).star]


def relative_commutant(X: HilbertBimodule) -> np.ndarray:
    """Matrices commuting with the left A-action and the right B-action
    (automatically adjointable at finite dimension); orthonormal stack of
    shape (m, d, d).  It is spanned by the units of the commutant of
    phi_hat = op_rep.phi and ``_psi_hat``, mapped back with op_unrep."""
    d = X.dim
    dec = _commutant([(X.A, X.op_rep(X.phis)), _psi_hat(X)], d)
    units = X.op_unrep(np.concatenate([u.reshape(-1, d, d) for u in dec.units]))
    return np.linalg.qr(units.reshape(len(units), -1).T)[0].T.reshape(-1, d, d)


def module_operator_algebra(X: HilbertBimodule) -> StarAlgebraDecomposition:
    """L(X_B) = K(X_B) presented as a multimatrix algebra, with matrix units
    read off the right action: the commutant of ``_psi_hat`` (``commutant_of``
    with one action).  The package reads L(X_B) through the rank-ones of
    ``bimodule._w_frames``, these units up to a unitary of each block.

    The units live in the standard-involution picture obtained by
    conjugating with the square root of the scalar Gram form (use
    ``X.op_rep`` / ``X.op_unrep`` to translate).  There X_B = (+)_l C^{M_l}
    (x) C^{n_l} with n_l the size of block l of B.  With E_l =
    psi_hat(e^l_11), W_l an orthonormal basis of its range and J_s =
    psi_hat(e^l_1s), block l of L(X_B) is M_{M_l} with multiplicity n_l and
    units u_l(i, j) = sum_s (J_s W_l)_i (J_s W_l)_j^*; blocks with M_l = 0
    are left out.  The three checks of ``commutant_of`` (rank E_l = M_l,
    the unit relations, psi_hat(B) commuting with the units) raise
    StructureError.
    """
    return _commutant([_psi_hat(X)], X.dim)


# -- completely positive maps ---------------------------------------------------


@dataclass
class CPMap:
    """A linear map between multimatrix algebras, stored as the images of the
    source matrix units; completely positive iff its Choi blocks are PSD.

    ``unit_images[l]`` has shape (m_l, m_l, t, t): the image of the (i, j)
    unit of source block l in a faithful standard-involution representation
    of the target, its block-diagonal embedding when ``target`` is given.
    L(X_B) is a source only, in the frame of its units u_l(i, j) =
    theta_{w_i, w_j} (``bimodule._w_frames``), so each Choi block is m_l a_k.
    """

    source: MultiMatrixAlgebra
    unit_images: list[np.ndarray]
    target: MultiMatrixAlgebra | None = None

    def apply(self, x: AlgebraElement) -> np.ndarray:
        """Image (in the target representation) of an abstract source element."""
        if x.algebra != self.source:
            raise ContractError("element does not belong to the source algebra")
        return sum(np.einsum("ij,ijab->ab", b, img) for b, img in zip(x.blocks, self.unit_images))

    def choi_blocks(self) -> list[np.ndarray]:
        """The Choi matrix [Phi(E_ij)]_{ij} of each source block l, cut to
        each block k of the target (the images are block diagonal there):
        size m_l n_k, source-block major.  Without a target, one block of
        size m_l t per source block."""
        cuts = ([slice(None)] if self.target is None else
                [self.target.block_slice(k) for k in range(self.target.num_blocks)])
        cut = [img[:, :, s, s] for img in self.unit_images for s in cuts]
        return [c.transpose(0, 2, 1, 3).reshape(c.shape[0] * c.shape[2], -1) for c in cut]

    def is_hermitian_preserving(self, tol: float = DEFAULT_TOL) -> bool:
        return all(np.abs(c - c.conj().T).max() <= tol * (1 + np.abs(c).max())
                   for c in self.choi_blocks())

    def is_completely_positive(self, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
        """(least Choi eigenvalue >= -tol (1 + s), that eigenvalue), with s the
        largest |Choi eigenvalue|: a scale that no change of the source or
        target bases moves."""
        return _cp_verdict([np.linalg.eigvalsh(hermitian_part(c))[[0, -1]]
                            for c in self.choi_blocks()], tol)


def _cp_verdict(ends, tol: float) -> tuple[bool, float]:
    """``CPMap.is_completely_positive`` from each Choi block's (least, largest) eigenvalue."""
    ends = np.array(ends)
    mn = float(ends[:, 0].min())
    return mn >= -tol * (1.0 + float(np.abs(ends).max())), mn


def _extension_cp_map(X: HilbertBimodule) -> CPMap:
    """F on the units of L(X_B), into A: F(theta_{x,y}) = _A(x|y), so the
    images of block l are the left Gram [_A(w_i|w_j)]_ij of its w-frame.
    Built once per module, with read-only images and no reference to X."""
    def build():
        ws = [w for _, w in _w_frames(X)]
        # [i, j] = _A(w_i|w_j) = w_i^T L w_j^* at each unit of A, embedded
        return CPMap(MultiMatrixAlgebra([w.shape[1] for w in ws]), [_read_only(_embed(
            (w.T @ X.left_stack @ w.conj()).transpose(1, 2, 0), X.A)) for w in ws], target=X.A)
    return X._cached("F_units", build)


def least_multipliers(cp: CPMap, hom: np.ndarray,
                      tol: float = 1e-9) -> tuple[bool, np.ndarray, np.ndarray]:
    """(hom.cp completely positive, c_l*, range residuals) per block l of S
    (module docstring): ``cp`` maps S = (+)_l M_{m_l} into A, and ``hom``,
    its images (U_A, N_S, N_S) at the units of A, is a unital
    *-homomorphism back.  Up to a unitary C_ll = (+)_k C_lk (x) 1, over the
    k that hom takes into block l, and Omega_l Omega_l^* cut to k is
    Q_kl[(i, s), (j, r)] = hom(e^k_rs)[j, i]; so c_l* = sum_k tr C_lk^+
    Q_kl, each Choi block C_lk of ``cp`` cut at ``tol`` times the largest of
    their eigenvalues, and the residual is sum_k tr (1 - P_lk) Q_kl / m_l.
    One ``eigh`` per (l, k) with hom(e^k_11) != 0 also gives the verdict."""
    S, images = cp.source, _unit_blocks(hom, cp.target)
    chois, least, residual, ends = iter(cp.choi_blocks()), [], [], []
    for l, m in enumerate(S.blocks):
        s, terms = S.block_slice(l), []
        for h, choi in zip(images, chois):                      # C_lk, k in order
            if np.trace(h[0, 0]).real > 0.5:                     # hom(e^k_11) != 0
                w, v = np.linalg.eigh(hermitian_part(choi))
                ends.append(w[[0, -1]])
                Q = h[:, :, s, s].transpose(3, 1, 2, 0).reshape(len(w), -1)
                if np.trace(Q).real > 0.5:                       # hom reaches block l
                    terms.append((w, v, Q))
        top, c, miss = max(w[-1] for w, _, _ in terms), 0.0, 0.0
        for w, v, Q in terms:
            keep = w > tol * top
            q = np.einsum("ji,ji->i", v[:, keep].conj(), Q @ v[:, keep]).real   # v_i^* Q v_i
            c, miss = c + np.sum(q / w[keep]), miss + np.trace(Q).real - q.sum()
        least.append(float(c))
        residual.append(float(miss) / m)
    return _cp_verdict(ends, DEFAULT_TOL)[0], np.array(least), np.array(residual)


# -- the extension of the left inner product -----------------------------------


class LeftInnerExtension:
    """The positive A-bilinear extension F of the left inner product to
    K(X_B), F(theta_{x,y}) = _A(x|y), so T -> sum_i _A(T u_i | u_i) over
    any normalized tight frame.  It holds only X and reads F off its
    images at the units u_l(i, j) = theta_{w_i, w_j} of L(X_B) (``as_cp_map``)."""

    def __init__(self, X: HilbertBimodule):
        X._need_left()
        self.bimodule = X

    def apply_matrix(self, T: np.ndarray) -> np.ndarray:
        """F(T), embedded in M_{N_A}; T must lie in L(X_B), and may be a stack
        (s, d, d) of such T.  There T = sum_lij t_l(i, j) u_l(i, j) with
        t_l(i, j) e^l_11 = (w_i|T w_j)_B, so F(T) = sum_lij t_l(i, j)
        F(u_l(i, j)), with t_l = w^* G_l T w and G_l the right Gram at e^l_11."""
        X, T = self.bimodule, np.asarray(T, dtype=complex)
        starts = _unit_layout(X.B.blocks).starts
        return sum(np.tensordot(w.conj().T @ X.right_stack[starts[l]] @ T @ w, img,
                                axes=([-2, -1], [0, 1]))
                   for (l, w), img in zip(_w_frames(X), self.as_cp_map().unit_images))

    def apply(self, T: np.ndarray) -> AlgebraElement:
        return self.bimodule.A.from_embedded(self.apply_matrix(T))

    def index_element(self) -> AlgebraElement:
        """F(1) = sum_l sum_i _A(w_i|w_i), the right index element."""
        cp = self.as_cp_map()
        return self.bimodule.A.from_embedded(cp.apply(cp.source.identity()))

    def as_cp_map(self) -> CPMap:
        """F on the matrix units u_l(i, j) = theta_{w_i, w_j} of L(X_B), read
        off the left Gram (``_extension_cp_map``)."""
        return _extension_cp_map(self.bimodule)


def extend_left_inner(X: HilbertBimodule) -> LeftInnerExtension:
    """Extend the left inner product to a positive A-bilinear map on K(X_B)."""
    return LeftInnerExtension(X)


# -- index reports ---------------------------------------------------------------


@dataclass
class IndexReport:
    r_ind: AlgebraElement
    l_ind: AlgebraElement
    r_num: float
    l_num: float
    p: AlgebraElement
    q: AlgebraElement
    ind_x: ModuleOperator
    constants: BestConstants | None = None

    def as_dict(self) -> dict:
        from .serde import encode_element
        out = {"r_num": self.r_num, "l_num": self.l_num,
               "r_ind": encode_element(self.r_ind), "l_ind": encode_element(self.l_ind),
               "p": encode_element(self.p), "q": encode_element(self.q)}
        if self.constants is not None:
            out.update(self.constants.as_dict())
        return out


def _dual_basis_sum(alg: MultiMatrixAlgebra, gram: np.ndarray, corners: np.ndarray,
                    other_gram: np.ndarray, what: str) -> np.ndarray:
    """sum_i <u_i|v_i>, the other inner product (``other_gram``, linear in
    its first argument) over a quasi-basis {u_i, v_i} for the Gram ``gram``
    over ``alg``, with no frame built.  The Grams are stacks at the matrix
    units (``HilbertBimodule``), and so is the result, at the units of the
    other algebra; ``corners`` (K, d, d) are the idempotents E_l by which
    the units e^l_11 of ``alg`` act, named ``what`` in messages.

    For block l the vectors x_p = E_l e_p span X.e^l_11, of complex
    dimension M_l = tr E_l, and their Gram is the d x d matrix G_l = gram at
    e^l_11.  With G_l^+ its inverse on the top M_l eigenpairs, sum_pq
    theta_{x_p, x_q} G_l^+[p, q] is the unit of L(X_B) on X.e^l_11, so the
    sum is sum_pq <e_p|e_q> Z[p, q] with Z = sum_l E_l G_l^+ E_l^*."""
    d = gram.shape[-1]
    Z = np.zeros((d, d), dtype=complex)
    for l, (o, E) in enumerate(zip(_unit_layout(alg.blocks).starts, corners)):
        rank = _corner_rank(E, alg.block_slice(l).start, what)
        if not rank:
            continue
        w, u = np.linalg.eigh(hermitian_part(gram[o]))
        if rank > len(w) or w[-rank] <= RANK_TOL * max(w[-1], 1e-300):
            raise StructureError(f"the Gram at e^{l}_11 has rank below tr {what}(e^{l}_11) = "
                                 f"{rank}: the inner product is degenerate")
        Eu = E @ u[:, -rank:]
        Z += (Eu / w[-rank:]) @ Eu.conj().T
    return np.tensordot(other_gram, Z, axes=([1, 2], [0, 1]))


def right_index(X: HilbertBimodule, rank_tol: float = RANK_TOL) -> IndexReport:
    """Index elements and numerical indices of a bi-Hilbertian bimodule.

    r-ind = F(1) = sum_i _A(u_i|v_i) over a quasi-basis read off the d x d
    right Gram at each e^l_11 of B (``_dual_basis_sum``), and l-ind is the
    same sum for the contragredient, whose right Gram is the left Gram and
    whose corners are conj phi(e^k_11), taken on X's own tensors: no frame
    and no contragredient is built or cached.  Support projections come
    from a rank-tolerant spectral cut.
    """
    X._need_left()
    a11, b11 = (_unit_layout(alg.blocks).starts for alg in (X.A, X.B))
    r_ind = _element(X.A, _dual_basis_sum(X.B, X.right_stack, X.psis[b11], X.left_stack, "psi"))
    l_ind = _element(X.B, _dual_basis_sum(X.A, X.left_stack, X.phis[a11].conj(),
                                          X.right_stack, "phi"))
    r_num, l_num = r_ind.norm(), l_ind.norm()
    p = support_projection(r_ind, rank_tol)
    q = support_projection(l_ind, rank_tol)
    return IndexReport(r_ind=r_ind, l_ind=l_ind, r_num=r_num, l_num=l_num, p=p, q=q,
                       ind_x=ModuleOperator(X, X.psi(l_ind) @ X.phi(r_ind)))


def index_element(X: HilbertBimodule) -> ModuleOperator:
    """The operator psi(l-ind) phi(r-ind) on X; positive and central in the
    relative commutant."""
    return right_index(X).ind_x


# -- best norm-equivalence constants ---------------------------------------------


@dataclass
class BestConstants:
    """lambda = sup ||_A(x|x)|| / ||(x|x)_B|| and lambda', the infimum, as
    brackets: the ``_hat`` ends are ratios attained by explicit vectors."""

    lambda_hat: float            # lambda_hat <= lambda <= lambda_upper
    lambda_prime_hat: float      # lambda_prime_lower <= lambda' <= lambda_prime_hat
    lambda_upper: float
    lambda_prime_lower: float

    @property
    def exact(self) -> bool:
        """Both brackets closed to 1e-12 relative."""
        hi, lo = self.lambda_upper, self.lambda_prime_lower
        return hi - self.lambda_hat <= 1e-12 * hi and self.lambda_prime_hat - lo <= 1e-12 * lo

    def as_dict(self) -> dict:
        return {**asdict(self), "constants_exact": self.exact}


def _norm_ratio_batch(X: HilbertBimodule, vecs: np.ndarray) -> np.ndarray:
    """||_A(x|x)|| / ||(x|x)_B|| for each row x of ``vecs``."""
    num = _embed(np.einsum("sp,upq,sq->su", vecs, X.left_stack, vecs.conj()), X.A)
    den = _embed(np.einsum("sp,upq,sq->su", vecs.conj(), X.right_stack, vecs), X.B)
    top = np.linalg.eigvalsh(hermitian_part(num))[:, -1]
    bot = np.linalg.eigvalsh(hermitian_part(den))[:, -1]
    return np.real(top) / np.maximum(np.real(bot), 1e-300)


def _largest_ratio(X: HilbertBimodule) -> tuple[float, float, np.ndarray]:
    """lambda of X as (attained value, upper bound, attaining vector).

    theta_{x,x} ranges over the positive P = (+)_l P_l u_l of block ranks
    r_l = min(M_l, n_l), so lambda is the largest xi* F(P) xi over unit xi
    and such P.  As F(phi(u)^* T phi(u)) = u^* F(T) u for each unitary u of
    A, and conjugation by phi(u) permutes those P, the largest value is the
    same for every unit xi in block k of A.  At xi = e_{s_k}, the first row
    of block k, it is sum_l KyFan_{r_l}(C_kl), C_kl[i, j] = F(u_l(i, j))[s_k,
    s_k], attained at P_l spanning the top r_l eigenvectors of C_kl^T.  The
    bound reads every entry of F's Choi blocks instead: block (l, k) is
    h_kl (x) Omega Omega^* with |Omega|^2 = a_k, so lambda is also
    max_k sum_l KyFan_{r_l}(Choi block (l, k)) / a_k.  Vector:
    ``_attaining_vector``.
    """
    cp, A = _extension_cp_map(X), X.A
    ranks = [min(w.shape[1], X.B.blocks[l]) for l, w in _w_frames(X)]
    rows = [A.block_slice(k).start for k in range(A.num_blocks)]
    value, found = np.zeros(A.num_blocks), []
    for img, r in zip(cp.unit_images, ranks):
        w, v = np.linalg.eigh(hermitian_part(img[:, :, rows, rows].T))     # C_kl^T, k-major
        value += w[:, -r:].sum(axis=1)
        found.append(v[..., -r:])
    kyfan = np.zeros(A.num_blocks)
    blocks = iter(cp.choi_blocks())
    for r in ranks:
        for k in range(A.num_blocks):
            kyfan[k] += np.linalg.eigvalsh(hermitian_part(next(blocks)))[-r:].sum() / A.blocks[k]
    best = int(np.argmax(value))
    return float(value[best]), float(kyfan.max()), _attaining_vector(X, [V[best] for V in found])


def _attaining_vector(X: HilbertBimodule, vs: list[np.ndarray]) -> np.ndarray:
    """sum_lit V_l[i, t] w^l_i.e^l_1t with V_l spanning P_l (r_l <= n_l
    columns): theta_{w_i.e_1t, w_j.e_1t'} = delta_tt' u_l(i, j), so
    theta_{x,x} = P.  x.e^l_1t is psi(e^l_1t) x, at the unit s_l + t."""
    starts = _unit_layout(X.B.blocks).starts
    return sum(np.einsum("tab,bt->a", X.psis[starts[l]:starts[l] + V.shape[1]], w @ V)
               for (l, w), V in zip(_w_frames(X), vs))


def best_constants(X: HilbertBimodule, seed: int = 0) -> BestConstants:
    """lambda and lambda', each bracketed by an attained value and a bound
    read apart (``_largest_ratio``); lambda' = 1 / lambda(Xbar), as the
    contragredient exchanges the two inner products.  Both attaining
    vectors (for lambda' the conjugate of the Xbar one) are re-evaluated
    through the norm ratio of X; a mismatch beyond 1e-10 relative raises
    StructureError.  No search and no random draw is involved: ``seed`` is
    accepted and does not affect the constants."""
    X._need_left()
    if X.dim == 0:
        raise ContractError("zero module")
    lam, lam_up, x = _largest_ratio(X)
    inv, inv_up, xbar = _largest_ratio(contragredient(X))
    ratios = _norm_ratio_batch(X, np.array([x, xbar.conj()]))
    for ratio, value in zip(ratios, (lam, 1.0 / inv)):
        if abs(ratio - value) > 1e-10 * value:
            raise StructureError(f"attaining vector gives ratio {ratio:.12g}, not {value:.12g}")
    return BestConstants(lambda_hat=lam, lambda_prime_hat=1.0 / inv,
                         lambda_upper=lam_up, lambda_prime_lower=1.0 / inv_up)


def index_report(X: HilbertBimodule, seed: int = 0) -> IndexReport:
    """Full report: indices plus the bracketed best constants (``seed`` does
    not affect them)."""
    return replace(right_index(X), constants=best_constants(X, seed=seed))


# -- Jones basic construction -----------------------------------------------------


BASIC_SAMPLES = 20


@dataclass
class BasicConstruction:
    """The conditional expectation phi.E onto the left action, E = z' F."""

    bimodule: HilbertBimodule
    F: LeftInnerExtension
    p: AlgebraElement
    z_prime: AlgebraElement

    def expectation(self, T: np.ndarray) -> AlgebraElement:
        """E(T) = z' F(T) in A."""
        return self.z_prime * self.F.apply(T)

    def phi_expectation(self, T: np.ndarray) -> np.ndarray:
        """phi(E(T)) as an operator on X; T may be a stack (s, d, d)."""
        return self.bimodule.phi(self.z_prime.embed() @ self.F.apply_matrix(T))

    def as_cp_map(self) -> CPMap:
        """E = z' F on the units of L(X_B), into pA: the blocks k with p_k != 0,
        where phi is injective.  (1 (x) phi) takes the Choi blocks of E (M_l
        a_k) to those of phi.E up to a unitary and multiplicities, so both
        have the same verdict, least eigenvalue and scale."""
        A, F, kept = self.bimodule.A, _extension_cp_map(self.bimodule), [
            k for k, b in enumerate(self.p.blocks) if np.trace(b).real > 0.5]
        rows = np.r_[tuple(A.block_slice(k) for k in kept)]
        z = self.z_prime.embed()[np.ix_(rows, rows)]
        return CPMap(F.source, [z @ f[:, :, rows[:, None], rows] for f in F.unit_images],
                     target=MultiMatrixAlgebra([A.blocks[k] for k in kept]))

    def sampled_checks(self, lam: float, rng: np.random.Generator) -> dict:
        """The sampled checks of the basic construction, on BASIC_SAMPLES
        pairs (T, a) of a random positive compact T and a random a in A
        (``_basic_samples``), evaluated as one stack:

        * ``idempotency_residual``: max ||phi E(phi E(T)) - phi E(T)||;
        * ``conditional_residual``: max ||phi E(phi(a)) - phi(p a)||;
        * ``pp_inequality_min_eig``: the least eigenvalue of
          lam phi(F(T)) - T, the Pimsner-Popa bound, over the samples.
        """
        X, samples = self.bimodule, BASIC_SAMPLES
        T, a = _basic_samples(X, rng, samples)
        e = self.phi_expectation(np.concatenate([T, X.phi(a)]))
        diffs = np.concatenate([self.phi_expectation(e[:samples]) - e[:samples],
                                e[samples:] - X.phi(self.p.embed() @ a)])
        norms = np.linalg.norm(X.op_rep(diffs), 2, axis=(-2, -1))
        resid = lam * X.op_rep(X.phi(self.F.apply_matrix(T))) - X.op_rep(T)
        return {"idempotency_residual": float(norms[:samples].max()),
                "conditional_residual": float(norms[samples:].max()),
                "pp_inequality_min_eig": float(np.linalg.eigvalsh(hermitian_part(resid)).min())}


def _basic_samples(X: HilbertBimodule, rng: np.random.Generator,
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` samples for the basic-construction checks from one draw of
    normals.  Each sample takes, in this order, three rank-one terms x, y
    (re x, im x, re y, im y) and then ``random_element(X.A, rng)``'s draws.
    Returns the positive compacts T* T (count, d, d), T the sum of the three
    theta_{x,y}, and the elements of A embedded (count, N_A, N_A)."""
    d, terms = X.dim, 3
    z = rng.standard_normal((count, 4 * terms * d + 2 * X.A.linear_dim))
    v = z[:, :4 * terms * d].reshape(count, terms, 4, d)    # per term: re x, im x, re y, im y
    x, y = v[:, :, 0] + 1j * v[:, :, 1], v[:, :, 2] + 1j * v[:, :, 3]
    # theta_{x,y}[i, q] = sum_u (x.e_u)_i (y|e_q)_B at e_u, summed over the terms
    xb = np.tensordot(x, X.psis, axes=([2], [2]))                    # (c, t, u, i)
    yz = np.tensordot(y.conj(), X.right_stack, axes=([2], [1]))      # (c, t, u, q)
    T = np.moveaxis(xb, 3, 1).reshape(count, d, -1) @ yz.reshape(count, -1, d)
    return X.op_adjoint(T) @ T, X.A.embedded_from_normals(z[:, 4 * terms * d:])


def basic_construction(X: HilbertBimodule, rank_tol: float = RANK_TOL) -> BasicConstruction:
    """E = z' F with z' the inverse of the right index element on its support;
    phi.E is a conditional expectation from K(X_B) onto phi(A)."""
    F = extend_left_inner(X)
    r_ind = F.index_element()
    p = support_projection(r_ind, rank_tol)
    z_prime = inverse_on_support(r_ind, rank_tol)
    return BasicConstruction(X, F, p, z_prime)


# -- fiber decomposition -----------------------------------------------------------


@dataclass
class Fiber:
    block: int
    dimension: int
    index_value: float
    bound: int

    @property
    def within_bound(self) -> bool:
        return self.dimension <= self.bound


@dataclass
class FiberReport:
    fibers: list[Fiber]
    commutant_dim: int
    lambda_prime: float
    left_adjoint_residual: float
    constants_exact: bool

    @property
    def passed(self) -> bool:
        return all(f.within_bound for f in self.fibers)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "commutant_dim": self.commutant_dim,
                "lambda_prime": self.lambda_prime,
                "left_adjoint_residual": self.left_adjoint_residual,
                "constants_exact": self.constants_exact,
                "fibers": [{"block": f.block, "dimension": f.dimension,
                            "index_value": f.index_value, "bound": f.bound,
                            "within_bound": f.within_bound} for f in self.fibers]}


def fiber_decomposition(X: HilbertBimodule, seed: int = 0) -> FiberReport:
    """Fibers of the bundle of bimodule endomorphisms over the centre of A.

    The relative commutant C is (+)_kl M_{Lambda_kl}, Lambda the integer
    multiplicity matrix of the two actions, so the fiber over block k of A
    has dimension sum_l Lambda_kl^2.  Each is checked against the square of
    the integer part of r-ind / lambda', with r-ind = F(1) off the F that
    ``best_constants`` builds and lambda' the lower end of its exact bracket
    (``constants_exact``; ``seed`` does not affect it).  C is closed under
    the left adjoint when H lies in C (module docstring), that is when T =
    g^-1 g_l = op_unrep(H) commutes with both actions:
    ``left_adjoint_residual`` is max |T m - m T| / max |T| over the
    generator images m of phi and psi.  Where ``validate`` passes, phi and
    psi have the same adjoints for both scalar forms, so it is round-off.
    """
    X._need_left()
    bc = best_constants(X, seed=seed)
    r_ind = extend_left_inner(X).index_element()
    lam = _multiplicities([(X.A, X.phis), (X.B, X.psis)], X.dim)
    fibers = [Fiber(block=k, dimension=int(np.sum(np.square(lam[k]))), index_value=c_k,
                    bound=int(np.floor(c_k / bc.lambda_prime_lower + 1e-9)) ** 2)
              for k, c_k in enumerate(float(np.real(np.trace(b)) / len(b)) for b in r_ind.blocks)]
    T = np.linalg.solve(X.scalar_gram, X.scalar_left_gram)
    drift = max(_max_abs(T @ act[u] - act[u] @ T) for alg, act in ((X.A, X.phis), (X.B, X.psis))
                for u in _unit_layout(alg.blocks).gens)
    return FiberReport(fibers=fibers, commutant_dim=int(np.sum(np.square(lam))),
                       lambda_prime=bc.lambda_prime_lower, constants_exact=bc.exact,
                       left_adjoint_residual=drift / max(_max_abs(T), 1e-300))


# -- invertibility trichotomy -------------------------------------------------------


def invertibility_trichotomy(X: HilbertBimodule, rank_tol: float = RANK_TOL) -> dict:
    """Three independently evaluated conditions that must agree: full left
    inner product, invertible right index element, injective left action."""
    X._need_left()
    span = X.left_stack.reshape(len(X.left_stack), -1).T
    full_rank = int(np.linalg.matrix_rank(span, tol=1e-9))
    # compare with the dimension of the block-diagonal subspace of M_{N_A}
    alg_dim = X.A.linear_dim
    left_full = full_rank == alg_dim
    rep = right_index(X)
    spec_min = min(float(np.linalg.eigvalsh(hermitian_part(b)).min())
                   for b in rep.r_ind.blocks)
    invertible = spec_min > rank_tol * max(rep.r_num, 1e-300)
    injective = int(np.linalg.matrix_rank(X.phis.reshape(len(X.phis), -1), tol=1e-9)) == alg_dim
    return {"left_inner_full": bool(left_full),
            "r_ind_invertible": bool(invertible),
            "phi_injective": bool(injective),
            "agree": left_full == invertible == injective}
