"""Finite-dimensional right Hilbert and bi-Hilbertian A-B bimodules.

A bimodule fixes a complex coordinate basis e_1..e_d.  Structure tensors:

* ``right_gram[p, q]``  = (e_p | e_q)_B, embedded in M_{N_B}; the right inner
  product is conjugate-linear in the first argument.
* ``left_gram[p, q]``   = _A(e_p | e_q), embedded in M_{N_A}; the left inner
  product is linear in the first argument.
* ``left_action[a, b]`` = the d x d matrix of phi(unit at embedded position
  (a, b) of A); phi(x) acts on coordinate columns.
* ``right_action``      analogous for psi(b): x -> x.b.

An inner product takes values in its algebra, a direct sum of matrix blocks,
so no Gram entry gram[p, q, a, b] has a and b in two different blocks, and an
action has no image there, as no matrix unit sits at such an (a, b).  So a
bimodule stores each tensor as its values at the matrix units e_u of its
algebra, one (U, d, d) stack in ``_unit_layout`` order, U = sum n_k^2 of the
N^2 embedded positions: ``right_stack[u][p, q] = (e_p|e_q)_B`` at e_u,
``left_stack`` likewise over A, ``phis[u] = phi(e_u)`` and ``psis[u] =
psi(e_u)``.  The dense constructor refuses a Gram entry between two blocks
beyond round-off (``OFF_BLOCK_TOL``) and slices the stacks out; the four
dense tensors above are read-only properties, assembled from the stacks on
each access, and the package itself reads the stacks.  ``validate`` checks
the actions on the generators e^k_i1, e^k_1i of the algebras.

Operator norms in L(X_B) are evaluated through the scalar trace form of the
right Gram tensor: g[p,q] = tr (e_p|e_q)_B.  Conjugating by g^{1/2} is an
injective *-homomorphism into M_d with the standard involution, so C*-norms,
positivity and functional calculus of module operators reduce to ordinary
Hermitian linear algebra there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .multimatrix import (
    DEFAULT_TOL,
    RANK_TOL,
    AlgebraElement,
    ContractError,
    MultiMatrixAlgebra,
    StructureError,
    hermitian_part,
)

# the largest entry between two blocks of an algebra that a Gram tensor over
# it may carry, relative to its largest entry: round-off, not an inner product
OFF_BLOCK_TOL = 1e-12


def _psd_sqrt_and_inv(mat: np.ndarray):
    w, v = np.linalg.eigh(hermitian_part(mat))
    cut = RANK_TOL * max(w.max(), 1e-300)
    if w.min() <= cut:
        raise StructureError(
            f"scalar Gram form is singular (min eig {w.min():.3g}); "
            "the inner product is degenerate on the presented space")
    sq = (v * np.sqrt(w)) @ v.conj().T
    isq = (v / np.sqrt(w)) @ v.conj().T
    return sq, isq


class HilbertBimodule:
    """A finite-dimensional A-B bimodule with right (and optional left) Gram
    tensors, stored at the matrix units of its algebras (module docstring).
    Immutable after construction.

    The arguments are the dense tensors, or with ``units`` the four stacks,
    taken as they are: a stack holds nothing between two blocks, so it needs
    no check of that."""

    def __init__(self, A: MultiMatrixAlgebra, B: MultiMatrixAlgebra, dim: int,
                 right_gram: np.ndarray, left_action: np.ndarray,
                 right_action: np.ndarray, left_gram: np.ndarray | None = None,
                 meta: dict | None = None, *, units: bool = False):
        d = int(dim)
        if not units:
            left_action = _action_units(left_action, A, d, "left_action")
            right_action = _action_units(right_action, B, d, "right_action")
            if left_gram is not None:
                left_gram = _gram_units(left_gram, A, d, "left_gram")
            right_gram = _gram_units(right_gram, B, d, "right_gram")
        self.A, self.B, self.dim = A, B, d
        # read-only, so that no user of X can change it under ``_cache``
        self.right_stack, self.phis, self.psis, self.left_stack = (
            None if a is None else _read_only(a)
            for a in (right_gram, left_action, right_action, left_gram))
        self.meta = dict(meta or {})
        self._cache: dict = {}

    # -- the dense tensors, assembled on each access ------------------------------

    @property
    def right_gram(self) -> np.ndarray:
        return _assemble(self.right_stack, self.B, gram=True)

    @property
    def left_gram(self) -> np.ndarray | None:
        return None if self.left_stack is None else _assemble(self.left_stack, self.A, gram=True)

    @property
    def left_action(self) -> np.ndarray:
        return _assemble(self.phis, self.A, gram=False)

    @property
    def right_action(self) -> np.ndarray:
        return _assemble(self.psis, self.B, gram=False)

    # -- basic structure -------------------------------------------------------

    @property
    def is_bihilbertian(self) -> bool:
        return self.left_stack is not None

    def phi(self, a) -> np.ndarray:
        """Matrix of the left action of a (AlgebraElement, or embedded; may be a stack)."""
        return np.tensordot(_unit_values(a, self.A), self.phis, axes=1)

    def psi(self, b) -> np.ndarray:
        """Matrix of the right action x -> x.b (AlgebraElement, or embedded; may be a stack)."""
        return np.tensordot(_unit_values(b, self.B), self.psis, axes=1)

    def right_inner(self, x, y) -> AlgebraElement:
        """(x|y)_B for coordinate vectors; conjugate-linear in x."""
        x, y = _coords(self, x), _coords(self, y)
        return _element(self.B, x.conj() @ self.right_stack @ y)

    def left_inner(self, x, y) -> AlgebraElement:
        """_A(x|y) for coordinate vectors; linear in x."""
        self._need_left()
        x, y = _coords(self, x), _coords(self, y)
        return _element(self.A, x @ self.left_stack @ y.conj())

    def vector_norm(self, x) -> float:
        """||x|| = ||(x|x)_B||^(1/2)."""
        x = _coords(self, x)
        return _sqrt_top(_element(self.B, x.conj() @ self.right_stack @ x))

    def left_vector_norm(self, x) -> float:
        self._need_left()
        x = _coords(self, x)
        return _sqrt_top(_element(self.A, x @ self.left_stack @ x.conj()))

    def rank_one(self, x, y) -> np.ndarray:
        """Matrix of z -> x (y|z)_B."""
        x, y = _coords(self, x), _coords(self, y)
        # [u, i] = (x.e_u)_i and [u, q] = (y|e_q)_B at e_u
        return (self.psis @ x).T @ (y.conj() @ self.right_stack)

    def _need_left(self) -> None:
        if self.left_stack is None:
            raise ContractError("operation requires a left inner product (left_gram)")

    # -- scalar trace forms and the module-operator calculus -------------------

    # the cached values that read only the right Gram and the actions (``with_left_stack``)
    _RIGHT_KEYS = frozenset({"g", "gh", "phi_corners", "psi_corners", "w", "frame",
                             "right_lines"})

    def _cached(self, key: str, build: Callable):
        """``build()``, once per module; the value must not refer to the module."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def scalar_gram(self) -> np.ndarray:
        return self._cached("g", lambda: hermitian_part(_trace(self.right_stack, self.B)))

    @property
    def scalar_left_gram(self) -> np.ndarray:
        self._need_left()
        return self._cached("gl", lambda: hermitian_part(_trace(self.left_stack, self.A).T))

    def _g_half(self):
        return self._cached("gh", lambda: _psd_sqrt_and_inv(self.scalar_gram))

    def _gl_half(self):
        return self._cached("glh", lambda: _psd_sqrt_and_inv(self.scalar_left_gram))

    def op_rep(self, T: np.ndarray) -> np.ndarray:
        """g^(1/2) T g^(-1/2): the standard-involution picture of L(X_B)."""
        sq, isq = self._g_half()
        return sq @ np.asarray(T, dtype=complex) @ isq

    def op_unrep(self, M: np.ndarray) -> np.ndarray:
        sq, isq = self._g_half()
        return isq @ np.asarray(M, dtype=complex) @ sq

    def op_norm(self, T: np.ndarray) -> float:
        """C*-norm of a module operator given by its coordinate matrix."""
        return float(np.linalg.norm(self.op_rep(T), 2))

    def op_adjoint(self, T: np.ndarray) -> np.ndarray:
        """Adjoint with respect to the right inner product; T may be a stack."""
        sq, isq = self._g_half()
        return isq @ np.conj(np.swapaxes(sq @ np.asarray(T, dtype=complex) @ isq, -1, -2)) @ sq

    def left_op_adjoint(self, T: np.ndarray) -> np.ndarray:
        """Adjoint with respect to the left inner product."""
        sq, isq = self._gl_half()
        return isq @ (sq @ np.asarray(T, dtype=complex) @ isq).conj().T @ sq

    def left_op_rep(self, T: np.ndarray) -> np.ndarray:
        """Standard-involution picture of L_B(_AX) via the left trace form."""
        sq, isq = self._gl_half()
        return sq @ np.asarray(T, dtype=complex) @ isq

    def left_op_unrep(self, M: np.ndarray) -> np.ndarray:
        sq, isq = self._gl_half()
        return isq @ np.asarray(M, dtype=complex) @ sq

    def _self_adjoint_rep(self, T: np.ndarray) -> np.ndarray:
        """The Hermitian part of ``op_rep(T)``, after refusing a T that is not self-adjoint."""
        M = self.op_rep(T)
        dev = float(np.abs(M - M.conj().T).max())
        if dev > DEFAULT_TOL * (1.0 + np.linalg.norm(M, 2)):
            raise ContractError(f"operator is not self-adjoint in L(X_B) (dev {dev:.3g})")
        return hermitian_part(M)

    def op_spectrum(self, T: np.ndarray) -> np.ndarray:
        """Spectrum of a self-adjoint module operator."""
        return np.linalg.eigvalsh(self._self_adjoint_rep(T))

    def op_function(self, T: np.ndarray, f: Callable) -> np.ndarray:
        """f(T) for a self-adjoint module operator T."""
        w, v = np.linalg.eigh(self._self_adjoint_rep(T))
        return self.op_unrep((v * f(w)) @ v.conj().T)

    def op_is_positive(self, T: np.ndarray) -> tuple[bool, float]:
        """(least eigenvalue >= -DEFAULT_TOL (1 + s), that eigenvalue) of the
        Hermitian part of ``op_rep(T)``, s its largest |eigenvalue|."""
        M = hermitian_part(self.op_rep(T))
        w = np.linalg.eigvalsh(M)
        mn, mx = float(w.min()), float(np.abs(w).max())
        return mn >= -DEFAULT_TOL * (1.0 + mx), mn

    # -- derived bimodules ------------------------------------------------------

    def with_left_gram(self, left_gram: np.ndarray) -> "HilbertBimodule":
        """X with the dense left Gram ``left_gram``, checked as the constructor checks it."""
        return self.with_left_stack(_gram_units(left_gram, self.A, self.dim, "left_gram"))

    def with_left_stack(self, left_stack: np.ndarray) -> "HilbertBimodule":
        """X with the left Gram given at the matrix units of A.  It shares X's
        right Gram and actions, and X's values cached of them (``_RIGHT_KEYS``)."""
        Y = HilbertBimodule(self.A, self.B, self.dim, self.right_stack, self.phis,
                            self.psis, left_stack, units=True)
        Y._cache.update((k, v) for k, v in self._cache.items() if k in self._RIGHT_KEYS)
        return Y

    def __repr__(self) -> str:
        tag = "bi-Hilbertian" if self.is_bihilbertian else "right Hilbert"
        return (f"HilbertBimodule({tag}, A={self.A.blocks}, B={self.B.blocks}, "
                f"dim={self.dim})")


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _action_units(action, alg: MultiMatrixAlgebra, d: int, what: str) -> np.ndarray:
    """A dense (N, N, d, d) action tensor -> its images at the matrix units."""
    action = np.asarray(action, dtype=complex)
    n = alg.rep_dim
    if action.shape != (n, n, d, d):
        raise StructureError(f"{what} shape {action.shape} != {(n, n, d, d)}")
    return _unit_images(alg, action)


def _gram_units(gram, alg: MultiMatrixAlgebra, d: int, what: str) -> np.ndarray:
    """A dense (d, d, N, N) Gram tensor -> its values at the matrix units,
    after refusing an entry between two blocks (``_check_block_diagonal``)."""
    gram = np.asarray(gram, dtype=complex)
    n = alg.rep_dim
    if gram.shape != (d, d, n, n):
        raise StructureError(f"{what} shape {gram.shape} != {(d, d, n, n)}")
    _check_block_diagonal(gram, alg, what)
    return _unit_images(alg, gram.transpose(2, 3, 0, 1))


def _assemble(stack: np.ndarray, alg: MultiMatrixAlgebra, gram: bool) -> np.ndarray:
    """The dense tensor of a stack at the matrix units of ``alg``, zero
    between blocks and read-only: (d, d, N, N) for a Gram, (N, N, d, d) for
    an action."""
    dense = _embed(stack.transpose(1, 2, 0), alg)
    return _read_only(dense if gram else np.ascontiguousarray(dense.transpose(2, 3, 0, 1)))


def _embed(vals: np.ndarray, alg: MultiMatrixAlgebra) -> np.ndarray:
    """Values (..., U) at the matrix units of ``alg`` -> the embedded (..., N, N)."""
    L, n = _unit_layout(alg.blocks), alg.rep_dim
    out = np.zeros(vals.shape[:-1] + (n, n), dtype=complex)
    out[..., L.rows, L.cols] = vals
    return out


def _unit_values(x, alg: MultiMatrixAlgebra) -> np.ndarray:
    """The entries (..., U) of x at the matrix units of ``alg``: x an
    AlgebraElement, or embedded (..., N, N), whose entries between blocks
    no action sees."""
    if isinstance(x, AlgebraElement):
        return np.concatenate([b.reshape(-1) for b in x.blocks])
    L = _unit_layout(alg.blocks)
    return np.asarray(x, dtype=complex)[..., L.rows, L.cols]


def _element(alg: MultiMatrixAlgebra, vals: np.ndarray) -> AlgebraElement:
    """The element of ``alg`` with the values ``vals`` (U,) at its matrix units."""
    starts = _unit_layout(alg.blocks).starts
    return AlgebraElement(alg, [vals[o:o + n * n].reshape(n, n)
                                for o, n in zip(starts, alg.blocks)])


def _sqrt_top(x: AlgebraElement) -> float:
    """The square root of the largest eigenvalue of the Hermitian part of x, floored at 0."""
    top = max(float(np.linalg.eigvalsh(hermitian_part(b)).max()) for b in x.blocks)
    return float(np.sqrt(max(top, 0.0)))


def _trace(stack: np.ndarray, alg: MultiMatrixAlgebra) -> np.ndarray:
    """sum_a gram[p, q, a, a] of a Gram stack: its scalar trace form, unsymmetrized."""
    return stack[_unit_layout(alg.blocks).diag].sum(axis=0)


def _unit_blocks(stack: np.ndarray, alg: MultiMatrixAlgebra) -> list[np.ndarray]:
    """Per block k of ``alg``, the part (n_k, n_k, ...) of a stack at its units e^k_ij."""
    starts = _unit_layout(alg.blocks).starts
    return [stack[o:o + n * n].reshape((n, n) + stack.shape[1:])
            for o, n in zip(starts, alg.blocks)]


def _coords(X: HilbertBimodule, x) -> np.ndarray:
    x = np.asarray(x, dtype=complex).reshape(-1)
    if x.shape != (X.dim,):
        raise StructureError(f"coordinate vector has length {len(x)}, expected {X.dim}")
    return x


@dataclass
class ModuleOperator:
    """A module map on X given by its coordinate matrix."""

    bimodule: HilbertBimodule
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.bimodule.dim
        if self.matrix.shape != (d, d):
            raise StructureError("operator matrix shape does not match the bimodule")

    def norm(self) -> float:
        return self.bimodule.op_norm(self.matrix)


@dataclass
class FrameSet:
    """Vectors u_1..u_m with sum_i theta^r_{u_i,u_i} = 1 within ``residual``."""

    bimodule: HilbertBimodule
    coords: np.ndarray          # shape (m, d)
    residual: float

    def __len__(self) -> int:
        return self.coords.shape[0]


# -- validation ----------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    residual: float
    passed: bool


@dataclass
class ValidationReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def as_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": [{"name": c.name, "residual": c.residual, "passed": c.passed}
                           for c in self.checks]}


def _gram_big(gram: np.ndarray) -> np.ndarray:
    """(d,d,N,N) Gram tensor -> (dN, dN) matrix of the M_d(algebra) element."""
    d, _, n, _ = gram.shape
    return gram.transpose(0, 2, 1, 3).reshape(d * n, d * n)


def _gram_matrix(part: np.ndarray) -> np.ndarray:
    """G[(p, a), (q, b)] = gram[p, q, a, b] from the part (n, n, d, d) of a
    Gram stack at the units of one block (``_unit_blocks``): the Gram is the
    direct sum of these (d n)-square matrices as an element of M_d(alg)."""
    n, _, d, _ = part.shape
    return part.transpose(2, 0, 3, 1).reshape(d * n, d * n)


def _max_abs(arr: np.ndarray) -> float:
    return float(np.abs(arr).max()) if arr.size else 0.0


@functools.lru_cache(maxsize=64)
def _unit_layout(blocks: tuple[int, ...]) -> SimpleNamespace:
    """Index arrays of the matrix units e^k_ij of an algebra, in ``unit_triples``
    order, once per tuple of block sizes: ``place`` (offset of the block, its
    size, i, j), ``starts`` (the offset of each block), the embedded ``rows``
    and ``cols``, ``star`` (the unit e_ji of each e_ij), ``diag`` (the e_ii),
    ``col_gens`` and ``row_gens`` (e^k_i1 and e^k_1i at each embedded index
    s_k + i) and ``gens`` (both, each once)."""
    offsets = np.cumsum((0,) + tuple(n * n for n in blocks)).tolist()
    place = [(o, n, i, j) for o, n in zip(offsets, blocks) for i in range(n) for j in range(n)]
    o, n, i, j = np.array(place, dtype=np.intp).T
    first = np.repeat(np.cumsum((0,) + blocks[:-1]), [m * m for m in blocks])
    return SimpleNamespace(place=place, starts=offsets[:-1], rows=first + i, cols=first + j,
                           star=o + j * n + i, diag=np.flatnonzero(i == j),
                           col_gens=np.flatnonzero(j == 0), row_gens=np.flatnonzero(i == 0),
                           gens=np.flatnonzero(i * j == 0))


def _unit_images(alg: MultiMatrixAlgebra, tensor: np.ndarray) -> np.ndarray:
    """``tensor[a, b]`` at every matrix unit (a, b) of ``alg``, taken by indexing."""
    L = _unit_layout(alg.blocks)
    return np.ascontiguousarray(tensor[L.rows, L.cols])


def _check_block_diagonal(gram: np.ndarray, alg: MultiMatrixAlgebra, what: str) -> None:
    """Refuse a Gram tensor with an entry between two blocks of ``alg`` beyond
    round-off.  Sizes are the largest real or imaginary part at each (a, b),
    reduced over the two views: N x N arrays, nothing of the tensor's size."""
    if alg.num_blocks == 1 or not gram.size:
        return
    size = np.max([np.maximum(part.max(axis=(0, 1)), -part.min(axis=(0, 1)))
                   for part in (gram.real, gram.imag)], axis=0)
    owner = np.repeat(np.arange(alg.num_blocks), alg.blocks)
    off, top = float(size[owner[:, None] != owner].max()), float(size.max())
    if off > OFF_BLOCK_TOL * top:
        raise StructureError(
            f"{what} has an entry of size {off:.3g} ({off / top:.3g} of its largest) between "
            f"two blocks of the algebra {alg.blocks}: an inner product takes values in it")


def _gram_terms(live: np.ndarray, alg: MultiMatrixAlgebra, acts: np.ndarray,
                left: bool) -> tuple:
    """(Hermitian residual, linearity residual, max |gram|) of a Gram stack
    ``live[u] = gram[:, :, a_u, b_u]`` over ``alg``, whose generators e_u act
    on the coordinates by ``acts[u]``: on the second leg, or on the first
    with ``left``.  An action is a matrix product on the U d^2 entries
    (U = sum n_k^2), and the product with e_ij a row or column copy:
    (gram e_ij)[.., a, j] = gram[.., a, i] and (e_ij gram)[.., i, b] =
    gram[.., j, b].  Positivity and adjointability are read off the scalar
    trace form (``validate``)."""
    L = _unit_layout(alg.blocks)

    def linearity(u: int) -> float:
        o, n, i, j = L.place[u]
        if left:
            diff = np.matmul(acts[u].T, live)       # [t, p, q] = sum_r M[r, p] live[t, r, q]
            diff[o + i * n:o + i * n + n] -= live[o + j * n:o + j * n + n]
        else:
            diff = np.matmul(live, acts[u])         # [t, p, q] = sum_s live[t, p, s] M[s, q]
            diff[o + j:o + n * n:n] -= live[o + i:o + n * n:n]
        return _max_abs(diff)

    herm = _max_abs(live[L.star].conj().transpose(0, 2, 1) - live)
    return herm, max(linearity(u) for u in L.gens), _max_abs(live)


def _generator_residual(mats: np.ndarray, L: SimpleNamespace, anti: bool) -> float:
    """How far the unit images ``mats`` are from a homomorphism, or with
    ``anti`` from an antihomomorphism (e_ij -> m(e_ji) a homomorphism).  With
    f_i = m(e^k_i1), g_j = m(e^k_1j): max |f_i g_j - m(e^k_ij)| within each
    block and |g_j f_l - delta_jl m(e^k_11)| over all pairs of generators,
    across blocks too.  These pair identities imply all the others, as
    m(e_ij) m(e_rs) = f_i (g_j f_r) g_s."""
    F = mats[L.row_gens if anti else L.col_gens]      # f at each embedded index
    err = 0.0
    for a, u in enumerate(L.col_gens):
        o, n, i, _ = L.place[u]
        # the g_j and the m(e_ij) of the block: its first row and its row i,
        # or columns if anti
        g = mats[o:o + n * n:n] if anti else mats[o:o + n]
        row = mats[o + i:o + n * n:n] if anti else mats[o + i * n:o + i * n + n]
        err = max(err, _max_abs(F[a] @ g - row))
        prod = g[i] @ F
        prod[a] -= F[a - i]                     # f_1 = m(e_11) of the block
        err = max(err, _max_abs(prod))
    return err


def _form_adjoint_term(F: np.ndarray, mats: np.ndarray, L: SimpleNamespace) -> tuple:
    """(max |m(e_u)^H F - F m(e_u*)| over the generators e_u = e^k_i1, max |F|)."""
    err = max(_max_abs(mats[u].conj().T @ F - F @ mats[L.star[u]]) for u in L.col_gens)
    return err, _max_abs(F)


def _right_terms(X: HilbertBimodule) -> list[tuple]:
    """The terms of the ``validate`` lines that read only the right Gram and
    the actions, each (name, raw residual, scale) for ``_lines``."""
    d, LA, LB = X.dim, _unit_layout(X.A.blocks), _unit_layout(X.B.blocks)
    phis, psis = X.phis, X.psis
    herm, lin_err, scale = _gram_terms(X.right_stack, X.B, psis, left=False)
    Q, pscale = psis[LB.gens], _max_abs(phis)
    return [
        ("right_gram_hermitian", herm, scale),
        _spectrum_term("right", X.scalar_gram),
        # phi is a unital *-homomorphism, adjointable for the right inner product
        ("left_action_homomorphism", _generator_residual(phis, LA, False), pscale),
        ("left_action_unital", _max_abs(phis[LA.diag].sum(axis=0) - np.eye(d)), 1.0),
        ("left_action_adjointable", *_form_adjoint_term(X.scalar_gram, phis, LA)),
        # psi is a unital *-antihomomorphism and the right gram is B-linear
        ("right_action_antihomomorphism", _generator_residual(psis, LB, True), _max_abs(psis)),
        ("right_action_unital", _max_abs(psis[LB.diag].sum(axis=0) - np.eye(d)), 1.0),
        ("right_gram_B_linear", lin_err, scale),
        ("actions_commute", max(_max_abs(phis[u] @ Q - Q @ phis[u]) for u in LA.gens), pscale)]


def _left_terms(X: HilbertBimodule) -> list[tuple]:
    """The terms of the 5 ``validate`` lines that read the left Gram."""
    herm, alin_err, scale = _gram_terms(X.left_stack, X.A, X.phis, left=True)
    return [("left_gram_hermitian", herm, scale),
            _spectrum_term("left", X.scalar_left_gram),
            ("left_gram_A_linear", alin_err, scale),
            # H psi(e_u) = psi(e_u*)^H H, conjugate-transposed
            ("right_action_left_adjointable",
             *_form_adjoint_term(X.scalar_left_gram, X.psis, _unit_layout(X.B.blocks)))]


def _spectrum_term(side: str, form: np.ndarray) -> tuple:
    """(side, -least eigenvalue, largest eigenvalue) of a scalar trace form:
    the psd and definite lines of that side (``_lines``)."""
    w = np.linalg.eigvalsh(form)                        # ascending
    return side, -float(w[0]), float(w[-1])


def _lines(terms: list[list[tuple]]) -> tuple:
    """The lines (name, residual, tol-free verdict or None) of the terms of
    each direct summand (``_summands``).  Each raw residual and each scale
    is the largest over the summands, as the module is zero between them:
    so a line is its residual on the module, up to round-off, and the psd
    and definite lines read its least and largest eigenvalue."""
    lines = []
    for group in zip(*terms):
        name = group[0][0]
        raw = max(t[1] for t in group)
        scale = max(max(t[2] for t in group), 1e-300)
        if name in ("right", "left"):
            lines += [(f"{name}_gram_psd", max(0.0, raw) / scale, None),
                      (f"{name}_gram_definite", 0.0, -raw > RANK_TOL * scale)]
        else:
            lines.append((name, raw / scale, None))
    return tuple(lines)


# ``validate``'s cost per call that does not grow with d, in units of its d^3 cost
_CALL_COST = 18 ** 3


def _summands(X: HilbertBimodule) -> list[HilbertBimodule]:
    """X as the direct sum of the modules on the ranges of coordinates
    between which all four of its stacks are zero, when validating them one
    by one costs less than validating X; otherwise [X].  ``tensor`` lays its
    products out so, one range per block l of the middle algebra
    (X e^l_11 (x) e^l_11 Y, whose sum is additive: Longo-Roberts).  A
    summand's stacks are views of X's.  The ranges are looked for only when
    d^3 > _CALL_COST, and used when sum_c (d_c^3 + _CALL_COST) < d^3 +
    _CALL_COST."""
    d = X.dim
    if d ** 3 <= _CALL_COST:
        return [X]
    stacks = (X.right_stack, X.phis, X.psis, X.left_stack)
    live = [s for s in stacks if s is not None]
    if any(s[:, 0, -1].any() or s[:, -1, 0].any() for s in live):
        return [X]                  # the first and last coordinates share a range
    link = np.logical_or.reduce([s.any(axis=0) for s in live])
    link |= link.T
    # the farthest coordinate each one is linked to; a range ends where none before reaches past
    reach = np.maximum.accumulate(d - 1 - np.argmax(link[:, ::-1], axis=1))
    bounds = [0, *(np.flatnonzero(reach == np.arange(d)) + 1).tolist()]
    sizes = np.diff(bounds)
    if np.sum(sizes ** 3 + _CALL_COST) >= d ** 3 + _CALL_COST:
        return [X]
    return [HilbertBimodule(X.A, X.B, b - a, *(s if s is None else s[:, a:b, a:b] for s in stacks),
                            units=True) for a, b in zip(bounds, bounds[1:])]


def validate(X: HilbertBimodule, tol: float = 1e-8) -> ValidationReport:
    """Check every structural invariant; the report carries one line per check.

    Each Gram is read at the matrix units of its algebra, where the module
    keeps it (``_gram_terms``).  Positivity and adjointability are
    read off the faithful scalar trace form <x, y> = tr (x|y)_B,
    ``X.scalar_gram`` (``X.scalar_left_gram`` over A): its spectrum, and
    phi(e_u)^H G = G phi(e_u*), d x d per generator.  Once the Hermitian,
    linearity and ``actions_commute`` lines pass, they hold there iff they
    hold for the B-valued Gram, as tr(b*(x|x)_B b) = <x.b, x.b> and tr is
    faithful.  The identities of the actions are checked on the generators
    e^k_i1 and e^k_1i, which imply them on every unit once the
    (anti)homomorphism lines hold: adjointability on the e_i1, linearity and
    commutation on the e_i1 and the e_1i.  Two caveats, ``passed`` false
    either way: once one of those lines fails, the later ones can miss a
    broken unit that is not a generator; and once a linearity line or
    ``actions_commute`` fails, the scalar psd and adjointable lines can pass
    where the B-valued Gram fails them.

    A module that is a direct sum over ranges of its coordinates is checked
    one summand at a time where that costs less (``_summands``, ``_lines``).
    The 10 lines up to ``actions_commute`` read only the right Gram and the
    actions: built once per set of those stacks, they are carried by
    ``with_left_stack``, and each call applies its own ``tol`` to them.
    """
    parts = _summands(X)
    lines = X._cached("right_lines", lambda: _lines([_right_terms(Y) for Y in parts]))
    if X.left_stack is not None:
        lines += _lines([_left_terms(Y) for Y in parts])
    return ValidationReport([CheckResult(name, float(res), res <= tol if ok is None else ok)
                             for name, res, ok in lines])


# -- frames, rank-one sums, generalized bases ----------------------------------


def rank_one_sum_norm(X: HilbertBimodule, xs, ys) -> float:
    """Norm of sum_i theta^r_{x_i, y_i} via the Gram half-product formula."""
    xs = [_coords(X, x) for x in xs]
    ys = [_coords(X, y) for y in ys]
    if len(xs) != len(ys):
        raise ContractError(f"lists have lengths {len(xs)} != {len(ys)}")
    if not xs:
        return 0.0
    # the Gram matrices [(x_i|x_j)_B]_ij and [(y_i|y_j)_B]_ij in M_n(B)
    P, Q = (_gram_big(_embed(np.einsum("ip,upq,jq->iju", v.conj(), X.right_stack, v), X.B))
            for v in (np.array(xs), np.array(ys)))
    return float(np.linalg.norm(_psd_half(P) @ _psd_half(Q), 2))


def _psd_half(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(hermitian_part(mat))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def frame_operator(X: HilbertBimodule, vectors) -> np.ndarray:
    """sum_v theta^r_{v,v} in one contraction: with P = sum_v v v^*, the
    matrices M_u = P^T G_u at the units give S = sum_u psi(e_u) M_u."""
    vecs = np.array([_coords(X, v) for v in vectors]).reshape(-1, X.dim)
    M = np.matmul(vecs.T @ vecs.conj(), X.right_stack)                   # [u, j, q]
    return X.psis.transpose(1, 0, 2).reshape(X.dim, -1) @ M.reshape(-1, X.dim)


def tight_frame(X: HilbertBimodule, spanning=None) -> FrameSet:
    """Normalized tight frame.

    Without a spanning set it is the w-frame (``_frame_rows``).  A given
    spanning set is taken to S^(-1/2) of it, S its frame operator; an S
    whose spectrum reaches RANK_TOL times its top means the right inner
    product is degenerate on a complement, and is rejected.
    """
    if spanning is None:
        out = _frame_rows(X)
    else:
        vecs = np.array([_coords(X, v) for v in spanning])
        S = frame_operator(X, vecs)
        spec = X.op_spectrum(S)
        if spec.min() <= RANK_TOL * max(spec.max(), 1e-300):
            raise StructureError(
                "frame operator is singular: the spanning set does not generate "
                "a module with definite inner product")
        out = vecs @ X.op_function(S, lambda t: 1.0 / np.sqrt(t)).T
    return FrameSet(X, out, X.op_norm(frame_operator(X, out) - np.eye(X.dim)))


def left_tight_frame(X: HilbertBimodule, spanning=None) -> FrameSet:
    """Tight frame for the left module structure: sum theta^l_{v,v} = 1.

    Computed as the contragredient image of a right tight frame of X-bar;
    the returned coordinates are vectors of X itself and the residual is
    measured on X-bar.
    """
    fr = tight_frame(contragredient(X), spanning=None if spanning is None else np.conj(spanning))
    return FrameSet(X, fr.coords.conj(), fr.residual)


def generalized_basis_step(X: HilbertBimodule, mu) -> tuple[FrameSet, ModuleOperator]:
    """One step of the generalized-basis net: from vectors x_1..x_n build
    u = (1/n + S)^(-1/2) x_i and T = S (1/n + S)^(-1), S the frame operator."""
    vecs = np.array([_coords(X, v) for v in mu])
    n = vecs.shape[0]
    if n == 0:
        raise ContractError("mu must be nonempty")
    S = frame_operator(X, vecs)
    shrink = X.op_function(S, lambda t: 1.0 / np.sqrt(1.0 / n + t))
    T = X.op_function(S, lambda t: t / (1.0 / n + t))
    out = vecs @ shrink.T
    resid = X.op_norm(frame_operator(X, out) - T)
    return FrameSet(X, out, resid), ModuleOperator(X, T)


# -- contragredient, amplification, tensor product ------------------------------


def contragredient(X: HilbertBimodule) -> HilbertBimodule:
    """The conjugate B-A bimodule: b.xbar = (x b*)bar, xbar.a = (a* x)bar,
    so e_ij acts on either side by the conjugate image of e_ji, with the two
    Gram stacks exchanged (shared, as both are read-only).  Built once per
    module; it holds no reference back to X."""
    X._need_left()
    star_a, star_b = _unit_layout(X.A.blocks).star, _unit_layout(X.B.blocks).star

    def conj_at(stack, star):
        out = stack[star]                       # a copy, conjugated in place
        return np.conjugate(out, out=out)
    return X._cached("bar", lambda: HilbertBimodule(
        X.B, X.A, X.dim, X.left_stack, conj_at(X.psis, star_b), conj_at(X.phis, star_a),
        X.right_stack, units=True))


def identity_bimodule(alg: MultiMatrixAlgebra) -> HilbertBimodule:
    """The algebra over itself: (x|y) = x* y on the right, x y* on the left,
    written at the units.  On the basis of units, block by block,
    (e_ij|e_it) = e_jt, e_ij e_jt = e_it and _A(e_it|e_jt) = e_ij, so the
    left Gram is phi, and psi(e_u) = (.|.) at e_u*."""
    lay, U = _unit_layout(alg.blocks), alg.linear_dim
    G, Phi = np.zeros((2, U, U, U), dtype=complex)
    for o, n in zip(lay.starts, alg.blocks):
        i, j, t = np.indices((n, n, n))
        ij, it, jt = o + i * n + j, o + i * n + t, o + j * n + t
        G[jt, ij, it] = 1.0
        Phi[ij, it, jt] = 1.0
    return HilbertBimodule(alg, alg, U, G, Phi, G[lay.star], Phi, units=True)


def amplify(X: HilbertBimodule, n: int) -> HilbertBimodule:
    """Column amplification: the direct sum of n copies of X as an
    M_n(A)-B bimodule, built at the matrix units.  Copy c holds the
    coordinates c d .. c d + d - 1; B acts on each copy, so its stacks are
    1_n (x) its own, and the unit e^k_(c i),(c' j) of M_n(A) acts, and pairs
    on the left, as E_cc' (x) e^k_ij."""
    if n < 1:
        raise ContractError("amplification order must be >= 1")
    X._need_left()
    E = np.eye(n * n).reshape(n, n, n, n)[:, None, :, None]     # E_cc' at [c, :, c', :]

    def spread(stack):
        return np.concatenate([_kron(E, part[None, :, None, :]).reshape(-1, n * X.dim, n * X.dim)
                               for part in _unit_blocks(stack, X.A)])
    return HilbertBimodule(MultiMatrixAlgebra([n * m for m in X.A.blocks]), X.B, n * X.dim,
                           _kron(np.eye(n), X.right_stack), spread(X.phis),
                           _kron(np.eye(n), X.psis), spread(X.left_stack), units=True)


def _corner_rank(E: np.ndarray, b: int, what: str) -> int:
    """The rank of the idempotent E, the image of the unit at (b, b), read
    from its trace."""
    t = float(np.trace(E).real)
    rank = int(round(t))
    if abs(t - rank) > 1e-6:
        raise StructureError(f"{what} of the unit at ({b}, {b}) has trace {t:.6g}, "
                             "not an integer: the action is not a homomorphism")
    return rank


def _corner_ranges(X: HilbertBimodule, left: bool) -> list[tuple]:
    """The corner record of phi_X (left) or psi_X, built once per module: per
    block l of A or B, (W, F, H) with W orthonormal columns spanning the
    range of the idempotent E = act(e^l_11), its rank read from the trace,
    and the factor stacks F[s] = phi(e^l_s1) W, H[s] = W^* phi(e^l_1s), so
    that phi(e^l_ab) = F[a] H[b]; for the antihomomorphism psi, F[s] =
    psi(e^l_1s) W and H[s] = W^* psi(e^l_s1), so psi(e^l_ab) = F[b] H[a].
    Both hold as W W^* is the identity on ran E, which holds the ranges of
    phi(e_1b) and psi(e_a1)."""
    alg, stack, what = (X.A, X.phis, "phi") if left else (X.B, X.psis, "psi")

    def corner(l, o, n):
        E, rank = stack[o], _corner_rank(stack[o], alg.block_slice(l).start, what)
        W = np.linalg.svd(E)[0][:, :rank] if rank else E[:, :0]
        col, row = stack[o:o + n * n:n], stack[o:o + n]           # the e_s1 and the e_1s
        return (W, col @ W, W.conj().T @ row) if left else (W, row @ W, W.conj().T @ col)
    return X._cached(what + "_corners", lambda: [
        corner(l, o, alg.blocks[l]) for l, o in enumerate(_unit_layout(alg.blocks).starts)])


def _w_frames(X: HilbertBimodule) -> list[tuple[int, np.ndarray]]:
    """The frame of L(X_B), built once per module: per block l of B with
    M_l = rank psi(e^l_11) > 0, (l, w^l) with w^l = W_l gamma_l^(-1/2), W_l
    the orthonormal columns of ``_corner_ranges`` and gamma_l = W_l^*
    (e_p|e_q)_B[e^l_11] W_l the scalar corner that ``tensor`` reads.  So
    (w_i|w_j)_B = delta_ij e^l_11, theta_{w_i, w_j} = u_l(i, j) are the
    matrix units of L(X_B) = (+)_l M_{M_l}, and the sum_l M_l vectors w^l_i
    form a normalized tight frame.  A singular gamma_l raises
    StructureError."""
    def build():
        starts = _unit_layout(X.B.blocks).starts
        return [(l, _read_only(W @ _psd_sqrt_and_inv(W.conj().T @ X.right_stack[o] @ W)[1]))
                for l, ((W, _, _), o) in enumerate(zip(_corner_ranges(X, left=False), starts))
                if W.shape[1]]
    return X._cached("w", build)


def _frame_rows(X: HilbertBimodule) -> np.ndarray:
    """The w^l_i of ``_w_frames`` as the rows of one read-only (sum_l M_l, d)
    array, built once per module: the tight frame that every command reads."""
    return X._cached("frame", lambda: _read_only(np.array(
        [v for _, w in _w_frames(X) for v in w.T], dtype=complex).reshape(-1, X.dim)))


def _kron(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Batched Kronecker product: [..., (i, j), (i', j')] = P[..., i, i'] Q[..., j, j']."""
    m, k = P.shape[-1], Q.shape[-1]
    out = P[..., :, None, :, None] * Q[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * k, m * k))


def tensor(X: HilbertBimodule, Y: HilbertBimodule) -> HilbertBimodule:
    """Interior tensor product X (x)_B Y of an A-B and a B-C bimodule.

    The product splits over the blocks l of B:
    X (x)_B Y = (+)_l X.e^l_11 (x) e^l_11.Y, of dimension d_2 = sum_l M_l K_l,
    with M_l = rank psi_X(e^l_11) and K_l = rank phi_Y(e^l_11).  Its
    coordinates are those of the basis b_(l,i,j) = w_i (x) y_j, l-major, with
    w_i and y_j the orthonormal columns of W_X,l and W_Y,l spanning those
    ranges (``_corner_ranges``); it is not orthonormal across blocks l.  The
    structure tensors are block diagonal over l, with Kronecker blocks,
    written straight into the product's stacks at the matrix units: right
    Gram gamma_l (x) (y_j|y_j')_C, gamma_l the scalar corner of (w_i|w_i')_B;
    left Gram _A(w_i|w_i') (x) beta_l, beta_l the scalar corner of
    _B(y_j|y_j'); actions (W_X,l^* phi_X(a) W_X,l) (x) 1 and
    1 (x) (W_Y,l^* psi_Y(c) W_Y,l).  ``meta["tensor"]`` keeps, per block l,
    the factors (W_X,l, W_Y,l, JX_l, JY_l), with JX_l[s] = W_X,l^*
    psi_X(e^l_s1) and JY_l[s] = W_Y,l^* phi_Y(e^l_1s), the H stacks of the
    two corner records.  On the product
    coordinates e_p (x) f_u (row-major in (p, u), D = d_X d_Y) they give
    ``lift`` = (+)_l W_X,l (x) W_Y,l (``tensor_lift``), which writes
    b_(l,i,j) there, and the balanced map ``push`` = (+)_l sum_s JX_l[s] (x)
    JY_l[s] (``tensor_push``), which takes them to their class: push lift = 1,
    and push annihilates the product's null vectors.  No D x d_2 array is
    stored.  Cost O(d_2^2 U), U the number of matrix units of A and C.
    """
    if X.B != Y.A:
        raise ContractError(f"middle algebras differ: {X.B.blocks} vs {Y.A.blocks}")
    X._need_left()
    Y._need_left()
    psi_X, phi_Y = _corner_ranges(X, left=False), _corner_ranges(Y, left=True)
    d2 = sum(WX.shape[1] * WY.shape[1] for (WX, _, _), (WY, _, _) in zip(psi_X, phi_Y))
    G2, Psi2 = (np.zeros((len(Y.psis), d2, d2), dtype=complex) for _ in range(2))
    L2, Phi2 = (np.zeros((len(X.phis), d2, d2), dtype=complex) for _ in range(2))
    blocks, r = [], slice(0, 0)
    for o, (WX, _, JX), (WY, _, JY) in zip(_unit_layout(X.B.blocks).starts, psi_X, phi_Y):
        m, k = WX.shape[1], WY.shape[1]
        r = slice(r.stop, r.stop + m * k)
        blocks.append((WX, WY, JX, JY))
        # right Gram over C: gamma_l (x) (y_j|y_j')_C
        G2[:, r, r] = _kron(WX.conj().T @ X.right_stack[o] @ WX, WY.conj().T @ Y.right_stack @ WY)
        # left Gram over A, linear in the first leg: _A(w_i|w_i') (x) beta_l
        L2[:, r, r] = _kron(WX.T @ X.left_stack @ WX.conj(), WY.T @ Y.left_stack[o] @ WY.conj())
        # actions: phi_X(a) (x) 1 and 1 (x) psi_Y(c)
        Phi2[:, r, r] = _kron(WX.conj().T @ X.phis @ WX, np.eye(k))
        Psi2[:, r, r] = _kron(np.eye(m), WY.conj().T @ Y.psis @ WY)
    return HilbertBimodule(X.A, Y.B, d2, G2, Phi2, Psi2, L2, units=True,
                           meta={"tensor": {"blocks": blocks, "dims": (X.dim, Y.dim)}})


def _tensor_info(Z: HilbertBimodule) -> dict:
    """``meta["tensor"]`` of a tensor bimodule: its per-block factors and dims."""
    info = Z.meta.get("tensor")
    if info is None:
        raise ContractError("bimodule was not produced by tensor()")
    return info


def tensor_lift(Z: HilbertBimodule, vec) -> np.ndarray:
    """Coordinates of a tensor bimodule, on the basis w_i (x) y_j of
    ``tensor``, -> product coordinates (``lift``), block by block:
    (W_X,l (x) W_Y,l) vec(V) = vec(W_X,l V W_Y,l^T).  ``tensor_push`` undoes it."""
    info, v, start = _tensor_info(Z), _coords(Z, vec), 0
    out = np.zeros(info["dims"], dtype=complex)
    for WX, WY, _, _ in info["blocks"]:
        m, k = WX.shape[1], WY.shape[1]
        out += WX @ v[start:start + m * k].reshape(m, k) @ WY.T
        start += m * k
    return out.reshape(-1)


def tensor_push(Z: HilbertBimodule, vec_full: np.ndarray) -> np.ndarray:
    """Product coordinates -> coordinates of their class in a tensor bimodule
    (``push``), block by block: sum_s JX_l[s] F JY_l[s]^T for F the product
    coordinates as a d_X x d_Y matrix.  It undoes ``tensor_lift`` and sends
    the null vectors to zero."""
    info = _tensor_info(Z)
    F = np.asarray(vec_full, dtype=complex).reshape(info["dims"])
    return np.concatenate([(JX @ F @ JY.swapaxes(1, 2)).sum(axis=0).reshape(-1)
                           for _, _, JX, JY in info["blocks"]])


def bimodule_map_residual(W: np.ndarray, X: HilbertBimodule,
                          Y: HilbertBimodule) -> float:
    """How far the linear map W: X -> Y is from a bi-inner-product-preserving
    bimodule isomorphism (max residual over all structure tensors, compared
    at the matrix units)."""
    W = np.asarray(W, dtype=complex)
    res = _max_abs(W.conj().T @ Y.right_stack @ W - X.right_stack)
    if X.is_bihilbertian and Y.is_bihilbertian:
        res = max(res, _max_abs(W.T @ Y.left_stack @ W.conj() - X.left_stack))
    for act_x, act_y in ((X.phis, Y.phis), (X.psis, Y.psis)):
        res = max(res, _max_abs(W @ act_x - act_y @ W))
    return res
