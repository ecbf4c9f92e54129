"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks.

An algebra is an ordered list of block sizes; an element carries one complex
matrix per block.  The functional calculus takes a plain function of one
real variable and applies it to the eigenvalues from numpy's Hermitian
eigensolver, after an explicit Hermitianization gate, so results are
reliable to ~1e-12 relative.  The support projection and the inverse on the
support of a positive element are the two functions the package applies.

The module also contains a generic structure-recognition routine,
``decompose_star_algebra``, that presents any concrete *-closed matrix
algebra as an abstract multimatrix algebra with explicit matrix units; its
random draws come from one fixed seed, so it is deterministic.  No library
path calls it: L(X_B) takes its units from the right action
(``index.module_operator_algebra``).  It stays as public API and serves the
test suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9
RANK_TOL = 1e-9


class ToolkitError(Exception):
    """Base class for all structured errors raised by this package."""


class StructureError(ToolkitError):
    """Shapes or algebraic structure of the inputs are inconsistent."""


class ContractError(ToolkitError):
    """A caller violated an operation precondition."""


def _as_complex(mat) -> np.ndarray:
    return np.asarray(mat, dtype=complex)


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(M + M*) / 2, of each matrix in a stack (..., n, n), halved before the
    sum so that no entry below the double range overflows."""
    return 0.5 * mat + 0.5 * mat.swapaxes(-1, -2).conj()


class MultiMatrixAlgebra:
    """A direct sum of full matrix algebras, ordered by block.

    ``blocks`` are the side lengths n_k; elements are represented either as
    per-block matrices or embedded block-diagonally in M_N with N = sum(n_k).
    The embedding is a faithful *-representation, so operator norms and
    positivity computed on embedded matrices are the C*-algebra ones.
    """

    def __init__(self, blocks: Sequence[int]):
        blocks = tuple(int(n) for n in blocks)
        if len(blocks) == 0:
            raise StructureError("an algebra needs at least one block")
        if any(n < 1 for n in blocks):
            raise StructureError(f"block sizes must be >= 1, got {blocks}")
        self.blocks = blocks
        self.rep_dim = sum(blocks)                 # N, size of the embedding
        self.linear_dim = sum(n * n for n in blocks)
        offs = np.cumsum((0,) + blocks)
        self._slices = [slice(int(a), int(b)) for a, b in zip(offs[:-1], offs[1:])]

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiMatrixAlgebra) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        return f"MultiMatrixAlgebra{self.blocks}"

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_slice(self, k: int) -> slice:
        return self._slices[k]

    # -- element construction -------------------------------------------------

    def element(self, block_mats: Sequence) -> "AlgebraElement":
        return AlgebraElement(self, block_mats)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.zeros((n, n), dtype=complex) for n in self.blocks])

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(n, dtype=complex) for n in self.blocks])

    def unit(self, k: int, i: int, j: int) -> "AlgebraElement":
        """The matrix unit E_ij of block k, zero elsewhere."""
        x = self.zero()
        x.blocks[k][i, j] = 1.0
        return x

    def embed(self, x: "AlgebraElement") -> np.ndarray:
        """Block-diagonal representation of ``x`` in M_N."""
        out = np.zeros((self.rep_dim, self.rep_dim), dtype=complex)
        for k, s in enumerate(self._slices):
            out[s, s] = x.blocks[k]
        return out

    def from_embedded(self, mat: np.ndarray) -> "AlgebraElement":
        """Read back an element from its block-diagonal representation."""
        mat = _as_complex(mat)
        if mat.shape != (self.rep_dim, self.rep_dim):
            raise StructureError(
                f"embedded shape {mat.shape} does not match rep dimension {self.rep_dim}")
        return AlgebraElement(self, [mat[s, s].copy() for s in self._slices])

    def block_part(self, mats: np.ndarray) -> np.ndarray:
        """The block-diagonal part of each matrix of a stack (..., N, N): what
        ``from_embedded`` keeps, embedded again."""
        mats = _as_complex(mats)
        out = np.zeros_like(mats)
        for s in self._slices:
            out[..., s, s] = mats[..., s, s]
        return out

    def units_embedded(self) -> np.ndarray:
        """All matrix units, embedded; shape (linear_dim, N, N)."""
        out = np.zeros((self.linear_dim, self.rep_dim, self.rep_dim), dtype=complex)
        rows, cols = np.concatenate([np.indices((n, n)).reshape(2, -1) + s.start
                                     for n, s in zip(self.blocks, self._slices)], axis=1)
        out[np.arange(self.linear_dim), rows, cols] = 1.0
        return out

    def unit_triples(self) -> list[tuple[int, int, int]]:
        """(block, row, col) in the same order as :meth:`units_embedded`."""
        return [(k, i, j) for k, n in enumerate(self.blocks)
                for i in range(n) for j in range(n)]

    def identity_embedded(self) -> np.ndarray:
        return np.eye(self.rep_dim, dtype=complex)


class AlgebraElement:
    """One complex matrix per block of a :class:`MultiMatrixAlgebra`."""

    def __init__(self, algebra: MultiMatrixAlgebra, block_mats: Sequence):
        if len(block_mats) != algebra.num_blocks:
            raise StructureError(
                f"expected {algebra.num_blocks} blocks, got {len(block_mats)}")
        mats = []
        for n, m in zip(algebra.blocks, block_mats):
            m = _as_complex(m)
            if m.shape != (n, n):
                raise StructureError(f"block shape {m.shape} does not match size {n}")
            mats.append(m.copy())
        self.algebra = algebra
        self.blocks = mats

    def copy(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.blocks)

    def embed(self) -> np.ndarray:
        return self.algebra.embed(self)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [b.conj().T for b in self.blocks])

    def trace(self) -> complex:
        return complex(sum(np.trace(b) for b in self.blocks))

    def norm(self) -> float:
        return operator_norm(self)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            return AlgebraElement(self.algebra,
                                  [a @ b for a, b in zip(self.blocks, other.blocks)])
        return AlgebraElement(self.algebra, [complex(other) * b for b in self.blocks])

    def __rmul__(self, other) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [complex(other) * b for b in self.blocks])

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [-b for b in self.blocks])

    def _check_same(self, other: "AlgebraElement") -> None:
        if self.algebra != other.algebra:
            raise StructureError("elements belong to different algebras")

    def __repr__(self) -> str:
        return f"AlgebraElement({self.algebra.blocks}, norm={self.norm():.6g})"


# -- spectral operations ------------------------------------------------------


def operator_norm(x: AlgebraElement) -> float:
    """Max over blocks of the largest singular value; zero iff x = 0."""
    return max(float(np.linalg.norm(b, 2)) if b.size else 0.0 for b in x.blocks)


def functional_calculus(x: AlgebraElement, f: Callable) -> AlgebraElement:
    """Apply a scalar function to a Hermitian element blockwise.

    The element is symmetrized when its anti-Hermitian part is below
    DEFAULT_TOL*(1+norm) and rejected above it; f must be defined on the spectrum.
    """
    scale = 1.0 + operator_norm(x)
    f = np.vectorize(f, otypes=[float])
    out = []
    for b in x.blocks:
        dev = np.abs(b - b.conj().T).max()
        if dev > DEFAULT_TOL * scale:
            raise ContractError(
                f"functional_calculus expects a Hermitian element; anti-Hermitian part "
                f"{dev:.3g} exceeds {DEFAULT_TOL:.3g}*(1+norm)")
        w, v = np.linalg.eigh(hermitian_part(b))
        out.append((v * f(w)) @ v.conj().T)
    return AlgebraElement(x.algebra, out)


def support_projection(x: AlgebraElement) -> AlgebraElement:
    """Spectral projection of a positive element onto eigenvalues above
    RANK_TOL * max eigenvalue."""
    cut = RANK_TOL * max(operator_norm(x), 1e-300)
    return functional_calculus(x, lambda t: 1.0 if t > cut else 0.0)


def inverse_on_support(x: AlgebraElement) -> AlgebraElement:
    """Inverse of a positive element on its support (``support_projection``), zero on the kernel."""
    cut = RANK_TOL * max(operator_norm(x), 1e-300)
    return functional_calculus(x, lambda t: 1.0 / t if abs(t) > cut else 0.0)


def center_decompose(alg: MultiMatrixAlgebra) -> list[AlgebraElement]:
    """The minimal central projections, one per block; they sum to 1 and span
    the centre."""
    out = []
    for k in range(alg.num_blocks):
        p = alg.zero()
        p.blocks[k] = np.eye(alg.blocks[k], dtype=complex)
        out.append(p)
    return out


# -- recognition of concrete *-closed matrix algebras -------------------------

_DECOMPOSE_TOL = 1e-8  # closure of a span given to ``decompose_star_algebra``


@dataclass
class StarAlgebraDecomposition:
    """A concrete *-closed subalgebra of M_t presented as a multimatrix algebra.

    ``units[l]`` has shape (k_l, k_l, t, t): the matrix realizing the (i, j)
    unit of block l.  ``multiplicities[l]`` is the multiplicity with which
    block l acts on the carrier space.
    """

    algebra: MultiMatrixAlgebra
    units: list[np.ndarray]
    multiplicities: list[int]
    carrier_dim: int


def _cluster(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group sorted indices of ``values`` by gaps larger than ``tol``."""
    order = np.argsort(values)
    groups, cur = [], [order[0]]
    for idx in order[1:]:
        if values[idx] - values[cur[-1]] > tol:
            groups.append(np.array(cur))
            cur = [idx]
        else:
            cur.append(idx)
    groups.append(np.array(cur))
    return groups


def _orthonormal_span(mats: np.ndarray) -> np.ndarray:
    """Orthonormal basis (Hilbert-Schmidt) of the span of a stack of matrices."""
    m, t, _ = mats.shape
    flat = mats.reshape(m, t * t)
    u, s, vh = np.linalg.svd(flat, full_matrices=False)
    keep = s > 1e-10 * max(s.max(), 1e-300)
    return vh[keep].reshape(-1, t, t)


def _matrix_nullspace(rows: np.ndarray, scale: float) -> np.ndarray:
    """Null space, cut at 1e-9 times the largest singular value floored at the
    scale of the generators, so an all-noise system (e.g. commutators of
    identity actions) keeps its full null space.

    ``rows`` must have at least as many rows as columns: then the thin SVD
    has one singular value per column and its right factor already spans
    the null space, with no (rows x rows) left factor formed.
    """
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    smax = max(float(s.max()), scale, 1e-300) if s.size else 1.0
    null_dim = int(np.sum(s <= 1e-9 * smax))
    if null_dim == 0:
        return np.zeros((0, vh.shape[1]), dtype=complex)
    return vh.conj()[-null_dim:]


def _center_basis(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Basis of the centre of the algebra spanned by ``basis``.

    The centraliser of a couple of random elements is computed first (cheap)
    and then verified against the whole basis; generically one draw suffices.
    """
    m, t, _ = basis.shape
    for _ in range(6):
        rows = []
        for _ in range(2):
            coeff = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            r = np.einsum("a,aij->ij", coeff, basis)
            comm = np.einsum("aij,jk->aik", basis, r) - np.einsum("ij,ajk->aik", r, basis)
            rows.append(comm.reshape(m, t * t).T)
        # basis elements are HS-normalized, so commutators live on an O(1)
        # scale; floor the cutoff there to survive all-noise (abelian) systems
        null = _matrix_nullspace(np.vstack(rows), 1.0)
        if len(null) == 0:
            continue
        cand = np.einsum("ca,aij->cij", null, basis)
        res = max(np.abs(np.einsum("cij,ajk->caik", cand, basis)
                         - np.einsum("aij,cjk->caik", basis, cand)).max(), 0.0)
        if res <= _DECOMPOSE_TOL * 10:
            return cand
    raise StructureError("could not isolate the centre of the algebra")


def decompose_star_algebra(span) -> StarAlgebraDecomposition:
    """Present a *-closed subalgebra of M_t (standard involution) as a
    multimatrix algebra with explicit units.

    ``span`` is a stack of matrices generating the algebra linearly (it must
    already be closed under products and adjoints up to ``_DECOMPOSE_TOL``).
    Central projections come from the spectral projections of a random
    Hermitian central element; units inside each factor from a random
    Hermitian element and rank-one polar parts, all drawn at one fixed seed.  The algebra need not contain the identity of
    M_t; a kernel cluster is detected and skipped.
    """
    span = np.asarray(span, dtype=complex)
    if span.ndim != 3 or span.shape[1] != span.shape[2]:
        raise StructureError("span must be a stack of square matrices")
    t = span.shape[1]
    basis = _orthonormal_span(span)
    m = basis.shape[0]
    rng = np.random.default_rng(7)
    center = _center_basis(basis, rng)
    null_dim = center.shape[0]

    for _ in range(8):
        coeff = rng.standard_normal(null_dim)
        z = hermitian_part(np.einsum("c,cij->ij", coeff, center))
        w, v = np.linalg.eigh(z)
        spread = max(w.max() - w.min(), 1.0)
        groups = _cluster(w, 1e-7 * spread)
        units, mults = [], []
        ok = True
        for g in groups:
            vecs = v[:, g]
            proj = vecs @ vecs.conj().T
            if _project_residual(proj, basis) > _DECOMPOSE_TOL * 10:
                # acceptable only as the kernel of a non-unital-on-M_t algebra
                if np.abs(np.einsum("aij,jk->aik", basis, proj)).max() < _DECOMPOSE_TOL * 10:
                    continue
                ok = False
                break
            u_blk, mu = _factor_units(proj, basis, rng)
            if u_blk is None:
                ok = False
                break
            units.append(u_blk)
            mults.append(mu)
        if ok and units and _dims_consistent(units, mults, m):
            alg = MultiMatrixAlgebra([u.shape[0] for u in units])
            return StarAlgebraDecomposition(alg, units, mults, t)
    raise StructureError("failed to recognize the multimatrix structure")


def _project_residual(mat: np.ndarray, basis: np.ndarray) -> float:
    coeffs = np.einsum("aji,ji->a", basis.conj(), mat)
    back = np.einsum("a,aij->ij", coeffs, basis)
    return float(np.abs(back - mat).max())


def _dims_consistent(units, mults, span_dim) -> bool:
    return sum(u.shape[0] ** 2 for u in units) == span_dim


def _factor_units(proj: np.ndarray, basis: np.ndarray, rng: np.random.Generator):
    """Matrix units of one factor p*S*p known to be isomorphic to M_k with
    multiplicity mu; returns (units (k,k,t,t), mu) or (None, None)."""
    t = proj.shape[0]
    compressed = np.einsum("ij,ajk,kl->ail", proj, basis, proj)
    sub = _orthonormal_span(compressed)
    k2 = sub.shape[0]
    k = int(round(np.sqrt(k2)))
    if k * k != k2:
        return None, None
    rank = int(round(np.trace(proj).real))
    if rank % k != 0:
        return None, None
    mu = rank // k
    if k == 1:
        return proj.reshape(1, 1, t, t), mu
    for _ in range(6):
        h = hermitian_part(np.einsum("a,aij->ij", rng.standard_normal(k2), sub))
        # shift by the support projection so eigenvectors inside the factor
        # separate cleanly from the kernel of the compression
        shift = 2.0 + 2.0 * float(np.linalg.norm(h, 2))
        w, v = np.linalg.eigh(h + shift * proj)
        inside = w > 0.5 * shift
        wi, vi = w[inside], v[:, inside]
        if len(wi) != k * mu:
            continue
        spread = max(wi.max() - wi.min(), 1e-12)
        groups = _cluster(wi, 1e-6 * spread)
        if len(groups) != k or any(len(g) != mu for g in groups):
            continue
        projs = [vi[:, g] @ vi[:, g].conj().T for g in groups]
        h2 = np.einsum("a,aij->ij", rng.standard_normal(k2), sub)
        vs = [projs[0]]
        good = True
        for i in range(1, k):
            wmat = projs[i] @ h2 @ projs[0]
            c = np.trace(wmat.conj().T @ wmat).real / mu
            if c < 1e-12:
                good = False
                break
            vs.append(wmat / np.sqrt(c))
        if not good:
            continue
        units = np.zeros((k, k, t, t), dtype=complex)
        for i in range(k):
            for j in range(k):
                units[i, j] = vs[i] @ vs[j].conj().T
        # relation check: E_ij E_jl = E_il
        err = 0.0
        for i in range(k):
            for j in range(k):
                err = max(err, np.abs(units[i, j] @ units[j, i] - units[i, i]).max())
        if err < 100 * _DECOMPOSE_TOL:
            return units, mu
    return None, None
