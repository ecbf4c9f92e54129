"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks.

An algebra is an ordered list of block sizes; an element carries one complex
matrix per block.  Everything spectral (norms, positivity, functional
calculus) goes through numpy's Hermitian eigensolver after an explicit
Hermitianization gate, so results are reliable to ~1e-12 relative.

The module also contains a generic, seeded structure-recognition routine,
``decompose_star_algebra``, that presents any concrete *-closed matrix
algebra as an abstract multimatrix algebra with explicit matrix units.  No
library path calls it: L(X_B) takes its units from the right action
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


class SpectrumDomainError(ToolkitError):
    """A scalar function was evaluated outside its declared domain."""


def _as_complex(mat) -> np.ndarray:
    return np.asarray(mat, dtype=complex)


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(M + M*) / 2, of each matrix in a stack (..., n, n)."""
    return 0.5 * (mat + mat.swapaxes(-1, -2).conj())


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

    def embedded_from_normals(self, z: np.ndarray) -> np.ndarray:
        """The embedded stack (s, N, N) of the elements that ``random_element``
        makes from the normals in the rows of z (s, 2 * linear_dim): per block,
        the n x n real parts, then the n x n imaginary parts."""
        out = np.zeros((len(z), self.rep_dim, self.rep_dim), dtype=complex)
        start = 0
        for n, s in zip(self.blocks, self._slices):
            re, im = z[:, start:start + n * n], z[:, start + n * n:start + 2 * n * n]
            out[:, s, s] = (re + 1j * im).reshape(-1, n, n)
            start += 2 * n * n
        return out

    def units_embedded(self) -> np.ndarray:
        """All matrix units, embedded; shape (linear_dim, N, N)."""
        out = np.zeros((self.linear_dim, self.rep_dim, self.rep_dim), dtype=complex)
        t = 0
        for k, s in enumerate(self._slices):
            n = self.blocks[k]
            for i in range(n):
                for j in range(n):
                    out[t, s.start + i, s.start + j] = 1.0
                    t += 1
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


# -- scalar functions ---------------------------------------------------------


class ScalarFunction:
    """A real function of one real variable, as a rule or a breakpoint list.

    Breakpoint lists are interpolated linearly (numpy.interp) and carry their
    own domain; a plain callable may declare a domain explicitly.
    """

    def __init__(self, rule: Callable | None = None,
                 breakpoints: Sequence[tuple[float, float]] | None = None,
                 domain: tuple[float, float] | None = None,
                 name: str = "f"):
        if (rule is None) == (breakpoints is None):
            raise StructureError("provide exactly one of rule / breakpoints")
        self.name = name
        if breakpoints is not None:
            pts = sorted((float(a), float(b)) for a, b in breakpoints)
            self._xs = np.array([p[0] for p in pts])
            self._ys = np.array([p[1] for p in pts])
            self._rule = None
            self.domain = (self._xs[0], self._xs[-1]) if domain is None else domain
        else:
            self._rule = rule
            self._xs = self._ys = None
            self.domain = domain

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self._rule is not None:
            return np.vectorize(self._rule, otypes=[float])(t)
        return np.interp(t, self._xs, self._ys)

    def check_domain(self, values: np.ndarray, tol: float = 1e-9) -> None:
        if self.domain is None:
            return
        lo, hi = self.domain
        slack = tol * (1.0 + max(abs(lo), abs(hi)))
        if values.min() < lo - slack or values.max() > hi + slack:
            raise SpectrumDomainError(
                f"{self.name} is defined on [{lo}, {hi}] but the spectrum "
                f"reaches [{values.min():.6g}, {values.max():.6g}]")


def dyadic_partition_function(n: int) -> ScalarFunction:
    """Tent function of the dyadic partition of unity on (0, 1].

    The family is supported on [2^-n, 2^-(n-2)], sums to 1 on (0, 1], and has
    f_n * f_m = 0 whenever |n - m| >= 2.
    """
    if n < 1:
        raise ContractError("partition index must be >= 1")
    if n == 1:
        pts = [(0.0, 0.0), (0.5, 0.0), (1.0, 1.0)]
    else:
        left, peak, right = 2.0 ** (-n), 2.0 ** (-n + 1), min(2.0 ** (-n + 2), 1.0)
        pts = [(0.0, 0.0), (left, 0.0), (peak, 1.0)]
        if right > peak:
            pts.append((right, 0.0))
        if right < 1.0:
            pts.append((1.0, 0.0))
    return ScalarFunction(breakpoints=pts, name=f"tent_{n}")


# -- spectral operations ------------------------------------------------------


def operator_norm(x: AlgebraElement) -> float:
    """Max over blocks of the largest singular value; zero iff x = 0."""
    return max(float(np.linalg.norm(b, 2)) if b.size else 0.0 for b in x.blocks)


def _hermitian_blocks(x: AlgebraElement, tol: float, who: str) -> list[np.ndarray]:
    scale = 1.0 + operator_norm(x)
    out = []
    for b in x.blocks:
        dev = np.abs(b - b.conj().T).max() if b.size else 0.0
        if dev > tol * scale:
            raise ContractError(
                f"{who} expects a Hermitian element; anti-Hermitian part {dev:.3g} "
                f"exceeds {tol:.3g}*(1+norm)")
        out.append(hermitian_part(b))
    return out


def positivity_check(x: AlgebraElement, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether x >= 0 up to tol*(1+||x||); returns (flag, min eigenvalue)."""
    blocks = _hermitian_blocks(x, tol, "positivity_check")
    min_eig = min(float(np.linalg.eigvalsh(b).min()) for b in blocks)
    return min_eig >= -tol * (1.0 + operator_norm(x)), min_eig


def functional_calculus(x: AlgebraElement, f: ScalarFunction | Callable,
                        tol: float = DEFAULT_TOL) -> AlgebraElement:
    """Apply a scalar function to a Hermitian element blockwise.

    The element is symmetrized when its anti-Hermitian part is below
    tol*(1+norm) and rejected above it; f must be defined on the spectrum.
    """
    blocks = _hermitian_blocks(x, tol, "functional_calculus")
    if not isinstance(f, ScalarFunction):
        f = ScalarFunction(rule=f)
    out = []
    for b in blocks:
        w, v = np.linalg.eigh(b)
        f.check_domain(w, tol)
        out.append((v * f(w)) @ v.conj().T)
    return AlgebraElement(x.algebra, out)


def support_projection(x: AlgebraElement, rank_tol: float = RANK_TOL) -> AlgebraElement:
    """Spectral projection of a positive element onto eigenvalues above
    rank_tol * max eigenvalue."""
    cut = rank_tol * max(operator_norm(x), 1e-300)
    return functional_calculus(x, lambda t: 1.0 if t > cut else 0.0)


def inverse_on_support(x: AlgebraElement, rank_tol: float = RANK_TOL) -> AlgebraElement:
    """Inverse of a positive element on its support, zero on the kernel."""
    cut = rank_tol * max(operator_norm(x), 1e-300)
    return functional_calculus(x, lambda t: 1.0 / t if abs(t) > cut else 0.0)


def element_sqrt(x: AlgebraElement, tol: float = DEFAULT_TOL) -> AlgebraElement:
    ok, mn = positivity_check(x, tol)
    if not ok:
        raise ContractError(f"square root of a non-positive element (min eig {mn:.3g})")
    return functional_calculus(x, lambda t: np.sqrt(max(t, 0.0)), tol)


def center_decompose(alg: MultiMatrixAlgebra) -> list[AlgebraElement]:
    """The minimal central projections, one per block; they sum to 1 and span
    the centre."""
    out = []
    for k in range(alg.num_blocks):
        p = alg.zero()
        p.blocks[k] = np.eye(alg.blocks[k], dtype=complex)
        out.append(p)
    return out


def random_element(alg: MultiMatrixAlgebra, rng: np.random.Generator) -> AlgebraElement:
    return AlgebraElement(alg, [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                                for n in alg.blocks])


def random_hermitian(alg: MultiMatrixAlgebra, rng: np.random.Generator) -> AlgebraElement:
    x = random_element(alg, rng)
    return AlgebraElement(alg, [hermitian_part(b) for b in x.blocks])


def random_positive(alg: MultiMatrixAlgebra, rng: np.random.Generator,
                    shift: float = 0.1) -> AlgebraElement:
    """Random strictly positive element, min eigenvalue >= shift."""
    x = random_element(alg, rng)
    return AlgebraElement(alg, [b @ b.conj().T + shift * np.eye(n)
                                for n, b in zip(alg.blocks, x.blocks)])


# -- recognition of concrete *-closed matrix algebras -------------------------


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

    def realize(self, x: AlgebraElement) -> np.ndarray:
        """Abstract element -> concrete matrix."""
        out = np.zeros((self.carrier_dim, self.carrier_dim), dtype=complex)
        for l, u in enumerate(self.units):
            out += np.einsum("ij,ijab->ab", x.blocks[l], u)
        return out

    def coords(self, mat: np.ndarray) -> AlgebraElement:
        """Concrete matrix (assumed in the algebra) -> abstract element."""
        blocks = []
        for l, u in enumerate(self.units):
            mu = self.multiplicities[l]
            blocks.append(np.einsum("ijab,ab->ij", u.conj(), mat) / mu)
        return AlgebraElement(self.algebra, blocks)

    def residual(self, mat: np.ndarray) -> float:
        """Distance of ``mat`` from the span of the units (max-abs)."""
        back = self.realize(self.coords(mat))
        return float(np.abs(back - mat).max())


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


def _orthonormal_span(mats: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (Hilbert-Schmidt) of the span of a stack of matrices."""
    m, t, _ = mats.shape
    flat = mats.reshape(m, t * t)
    u, s, vh = np.linalg.svd(flat, full_matrices=False)
    keep = s > tol * max(s.max(), 1e-300)
    return vh[keep].reshape(-1, t, t)


def _matrix_nullspace(rows: np.ndarray, scale: float, rel_tol: float = 1e-9) -> np.ndarray:
    """Null space with a threshold floored at the scale of the generators, so
    an all-noise system (e.g. commutators of identity actions) keeps its full
    null space.

    ``rows`` must have at least as many rows as columns: then the thin SVD
    has one singular value per column and its right factor already spans
    the null space, with no (rows x rows) left factor formed.
    """
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    smax = max(float(s.max()), scale, 1e-300) if s.size else 1.0
    null_dim = int(np.sum(s <= rel_tol * smax))
    if null_dim == 0:
        return np.zeros((0, vh.shape[1]), dtype=complex)
    return vh.conj()[-null_dim:]


def _center_basis(basis: np.ndarray, rng: np.random.Generator, tol: float) -> np.ndarray:
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
        if res <= tol * 10:
            return cand
    raise StructureError("could not isolate the centre of the algebra")


def decompose_star_algebra(span, tol: float = 1e-8,
                           seed: int = 7) -> StarAlgebraDecomposition:
    """Present a *-closed subalgebra of M_t (standard involution) as a
    multimatrix algebra with explicit units.

    ``span`` is a stack of matrices generating the algebra linearly (it must
    already be closed under products and adjoints up to ``tol``).  Central
    projections come from the spectral projections of a random Hermitian
    central element; units inside each factor from a random Hermitian element
    and rank-one polar parts.  The algebra need not contain the identity of
    M_t; a kernel cluster is detected and skipped.
    """
    span = np.asarray(span, dtype=complex)
    if span.ndim != 3 or span.shape[1] != span.shape[2]:
        raise StructureError("span must be a stack of square matrices")
    t = span.shape[1]
    basis = _orthonormal_span(span)
    m = basis.shape[0]
    rng = np.random.default_rng(seed)
    center = _center_basis(basis, rng, tol)
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
            if _project_residual(proj, basis) > tol * 10:
                # acceptable only as the kernel of a non-unital-on-M_t algebra
                if np.abs(np.einsum("aij,jk->aik", basis, proj)).max() < tol * 10:
                    continue
                ok = False
                break
            u_blk, mu = _factor_units(proj, basis, rng, tol)
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


def _factor_units(proj: np.ndarray, basis: np.ndarray, rng: np.random.Generator,
                  tol: float):
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
        if err < 100 * tol:
            return units, mu
    return None, None
