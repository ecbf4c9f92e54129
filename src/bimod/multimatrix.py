"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks.

An algebra is an ordered list of block sizes; an element carries one complex
matrix per block.  The functional calculus takes a plain function of one
real variable and applies it to the eigenvalues from numpy's Hermitian
eigensolver, after an explicit Hermitianization gate, so results are
reliable to ~1e-12 relative.  The support projection and the inverse on the
support of a positive element are the two functions the package applies.

The module also contains a generic structure-recognition routine,
``decompose_star_algebra``, that presents any concrete *-closed matrix
algebra as an abstract multimatrix algebra with explicit matrix units, read
off minimal projections and the partial isometries between them.  No library
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


def _orthonormal_span(mats: np.ndarray) -> np.ndarray:
    """Orthonormal basis (Hilbert-Schmidt) of the span of a stack of matrices."""
    m, t, _ = mats.shape
    flat = mats.reshape(m, t * t)
    u, s, vh = np.linalg.svd(flat, full_matrices=False)
    keep = s > 1e-10 * max(s.max(), 1e-300)
    return vh[keep].reshape(-1, t, t)


def _minimal_projections(basis: np.ndarray, q: np.ndarray) -> list[np.ndarray]:
    """Split the projection q q* of the *-algebra S spanned by ``basis`` (q an
    isometry) into mutually orthogonal minimal projections of S, returned as
    isometries.

    The corner q*Sq is C 1 iff all its Hermitian elements are scalars.
    Otherwise the Hermitian part farthest from a scalar splits q at the
    largest gap of its spectrum; both spectral projections lie in S.
    """
    r = q.shape[1]
    corner = q.conj().T @ basis @ q
    herm = np.concatenate([hermitian_part(corner), hermitian_part(-1j * corner)])
    herm -= np.trace(herm, axis1=1, axis2=2)[:, None, None] / r * np.eye(r)
    norms = np.linalg.norm(herm, axis=(1, 2))
    a = int(norms.argmax())
    if norms[a] <= _DECOMPOSE_TOL:
        return [q]
    w, v = np.linalg.eigh(herm[a])
    cut = int(np.diff(w).argmax()) + 1
    return [p for half in (v[:, :cut], v[:, cut:]) for p in _minimal_projections(basis, q @ half)]


def decompose_star_algebra(span) -> StarAlgebraDecomposition:
    """Present a *-closed subalgebra S of M_t (standard involution) as a
    multimatrix algebra with explicit units.

    ``span`` is a stack of matrices spanning S linearly (it must already be
    closed under products and adjoints up to ``_DECOMPOSE_TOL``).  The unit of
    S projects onto the joint range of its elements, so S need not contain
    the identity of M_t.  The unit splits into minimal projections q_i; q_i
    and q_j lie in one block iff q_i S q_j != 0, and with q_1 the first of a
    block, v_i is the polar part of q_i s q_1 for the element s of the
    orthonormal basis with the largest such compression.  The units are
    v_i v_j* and the multiplicity is rank q_1.  Nothing is drawn at random.
    """
    span = np.asarray(span, dtype=complex)
    if span.ndim != 3 or span.shape[1] != span.shape[2]:
        raise StructureError("span must be a stack of square matrices")
    if not np.any(span):
        raise StructureError("the span is empty or zero")
    t = span.shape[1]
    basis = _orthonormal_span(span)
    m = len(basis)
    u, s, _ = np.linalg.svd(basis.transpose(1, 0, 2).reshape(t, m * t), full_matrices=False)
    qs = _minimal_projections(basis, u[:, s > _DECOMPOSE_TOL * s[0]])
    offs = np.cumsum([0] + [q.shape[1] for q in qs])
    sl = [slice(a, b) for a, b in zip(offs[:-1], offs[1:])]
    w = np.concatenate(qs, axis=1)
    comp = w.conj().T @ basis @ w
    left, vs = list(range(len(qs))), []
    while left:
        f = left[0]
        block = [i for i in left
                 if i == f or np.linalg.norm(comp[:, sl[i], sl[f]]) > _DECOMPOSE_TOL]
        left = [i for i in left if i not in block]
        v = []
        for i in block:
            c = comp[:, sl[i], sl[f]]
            x, _, yh = np.linalg.svd(c[np.linalg.norm(c, axis=(1, 2)).argmax()],
                                     full_matrices=False)
            v.append(qs[i] @ x @ yh)
        vs.append(np.array(v))
    # units v_i v_j* satisfy E_ij E_kl = delta_jk E_il across all blocks iff
    # the v's are orthonormal columns, and they span S iff they hold the basis
    # and their count is dim S
    cols = np.concatenate([vi for v in vs for vi in v], axis=1)
    units = [np.einsum("iam,jbm->ijab", v, v.conj()) for v in vs]
    mults = [v.shape[2] for v in vs]
    flat = np.concatenate([e.reshape(-1, t * t) / np.sqrt(mu) for e, mu in zip(units, mults)])
    rest = basis.reshape(m, -1) - (basis.reshape(m, -1) @ flat.conj().T) @ flat
    if (np.abs(cols.conj().T @ cols - np.eye(cols.shape[1])).max() > _DECOMPOSE_TOL
            or sum(len(v) ** 2 for v in vs) != m or np.abs(rest).max() > _DECOMPOSE_TOL):
        raise StructureError("the span is not a *-algebra: its matrix units do not close")
    return StarAlgebraDecomposition(MultiMatrixAlgebra([len(v) for v in vs]), units, mults, t)
