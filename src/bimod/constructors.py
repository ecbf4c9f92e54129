"""Builders for the concrete bimodule families: weighted finite-dimensional
Hilbert spaces, conditional-expectation bimodules, and weighted finite
directed graphs.  Each builder writes its module's four stacks, and an
expectation its images, by index at the matrix units: no dense tensor is
formed, and no coordinate is visited in a Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .multimatrix import (
    AlgebraElement,
    ContractError,
    MultiMatrixAlgebra,
    StructureError,
    hermitian_part,
)
from .bimodule import (
    HilbertBimodule,
    _frame_rows,
    _unit_layout,
    _unit_values,
    contragredient,
    frame_operator,
    identity_bimodule,
    tensor,
)
from .index import CPMap, _certificate, least_multipliers


# -- weighted Hilbert spaces -----------------------------------------------------


def from_hilbert_space(n: int, T: np.ndarray) -> HilbertBimodule:
    """C^n as a C-C bimodule with (x|y) = sum conj(x_i) y_i on the right and
    _C(x|y) = (y|Tx) on the left, for a positive invertible weight T; its
    stacks, at the one unit of C, are 1, 1, 1 and T^T."""
    T = np.asarray(T, dtype=complex)
    if T.shape != (n, n):
        raise ContractError(f"weight shape {T.shape} does not match n={n}")
    if np.abs(T - T.conj().T).max() > 1e-10 * (1 + np.abs(T).max()):
        raise ContractError("weight matrix must be Hermitian")
    if np.linalg.eigvalsh(hermitian_part(T)).min() <= 0:
        raise ContractError("weight matrix must be positive definite")
    C, one = MultiMatrixAlgebra([1]), np.eye(n, dtype=complex)[None]
    return HilbertBimodule(C, C, n, one, one, one, T.T.copy()[None], units=True)


def column_bimodule(n: int) -> HilbertBimodule:
    """C^n as an M_n-C imprimitivity bimodule: _A(x|y) is the rank-one
    operator x y*; both index elements are identities.  Written at the units:
    _A(e_p|e_q) and phi(e_ab) are both the unit matrix E_ab at e_ab."""
    E, one = np.eye(n * n, dtype=complex).reshape(n * n, n, n), np.eye(n, dtype=complex)[None]
    return HilbertBimodule(MultiMatrixAlgebra([n]), MultiMatrixAlgebra([1]), n, one, E, one, E,
                           units=True)


# -- conditional expectations ------------------------------------------------------


@dataclass
class Inclusion:
    """A unital embedding of a multimatrix algebra A into B.

    Block k of B decomposes as the direct sum over j of ``multiplicity[k][j]``
    copies of block j of A; unitality forces n_k = sum_j multiplicity[k][j] * m_j.
    """

    A: MultiMatrixAlgebra
    B: MultiMatrixAlgebra
    multiplicity: np.ndarray      # shape (K_B, K_A), nonnegative ints

    def __post_init__(self):
        mult = np.asarray(self.multiplicity, dtype=int)
        if mult.shape != (self.B.num_blocks, self.A.num_blocks):
            raise StructureError("multiplicity matrix has the wrong shape")
        if (mult < 0).any():
            raise StructureError("multiplicities must be nonnegative")
        for k, n in enumerate(self.B.blocks):
            if int(np.dot(mult[k], self.A.blocks)) != n:
                raise StructureError(
                    f"block {k}: sum of multiplicities * sizes != {n} (not unital)")
        if (mult.sum(axis=0) == 0).any():
            raise StructureError("some block of A does not embed anywhere")
        self.multiplicity = mult

    def copy_offset(self, k: int, j: int, c: int) -> int:
        """Start offset of copy c of A-block j inside B-block k."""
        mult, sizes = self.multiplicity, self.A.blocks
        off = int(np.dot(mult[k, :j], sizes[:j])) + c * sizes[j]
        return off

    def embed(self, a: AlgebraElement) -> AlgebraElement:
        """iota(a) as an element of B."""
        return self.B.from_embedded(self.embed_stack(a.embed()[None])[0])

    def embed_stack(self, a: np.ndarray) -> np.ndarray:
        """iota of each matrix of a stack (s, N_A, N_A) of embedded elements
        of A, as embedded elements of B (s, N_B, N_B): every copy of A-block
        j in B-block k receives block j."""
        out = np.zeros(a.shape[:-2] + (self.B.rep_dim, self.B.rep_dim), dtype=complex)
        for k in range(self.B.num_blocks):
            start = self.B.block_slice(k).start
            for j in range(self.A.num_blocks):
                src, m = self.A.block_slice(j), self.A.blocks[j]
                for c in range(self.multiplicity[k, j]):
                    off = start + self.copy_offset(k, j, c)
                    out[..., off:off + m, off:off + m] = a[..., src, src]
        return out


@dataclass
class ExpectationSpec:
    """A conditional expectation E: B -> A given on the matrix units of B.

    ``images[k]`` has shape (n_k, n_k, N_A, N_A): the image in A (embedded)
    of the (r, s) unit of B-block k.  A spec is not modified after
    construction, so its check, bimodule and least multipliers are computed once.
    """

    inclusion: Inclusion
    images: list[np.ndarray]
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def A(self) -> MultiMatrixAlgebra:
        return self.inclusion.A

    @property
    def B(self) -> MultiMatrixAlgebra:
        return self.inclusion.B

    def apply(self, b: AlgebraElement) -> AlgebraElement:
        return self.A.from_embedded(self.apply_stack(b.embed()[None])[0])

    def apply_stack(self, b: np.ndarray) -> np.ndarray:
        """E of each matrix of a stack (s, N_B, N_B) of embedded elements of
        B (entries off the blocks of B are ignored), as embedded elements of
        A (s, N_A, N_A): one contraction per block of B."""
        out = sum(np.einsum("xrs,rsab->xab", b[:, s, s], img)
                  for s, img in zip(map(self.B.block_slice, range(self.B.num_blocks)),
                                    self.images))
        return self.A.block_part(out)

    def as_cp_map(self) -> CPMap:
        """E on the matrix units of B, into A."""
        return CPMap(self.B, [img.copy() for img in self.images], target=self.A)

    def check(self) -> dict:
        """Invariants: unital, idempotent onto A, bimodule property, faithful."""
        if "check" not in self._cache:
            self._cache["check"] = self._check()
        return dict(self._cache["check"])

    def _multipliers(self) -> tuple:
        """``least_multipliers`` on ``_cp_pair``, once."""
        if "multipliers" not in self._cache:
            self._cache["multipliers"] = least_multipliers(*_cp_pair(self))
        return self._cache["multipliers"]

    def _check(self) -> dict:
        A, B, iota, tol = self.A, self.B, self.inclusion.embed_stack, 1e-9
        units = A.units_embedded()
        # six seeded samples a1, a2 in A, b in B, drawn in that order
        wa, wb = 2 * A.linear_dim, 2 * B.linear_dim
        z = np.random.default_rng(11).standard_normal((6, 2 * wa + wb))
        a1, a2 = A.embedded_from_normals(z[:, :wa]), A.embedded_from_normals(z[:, wa:2 * wa])
        b = B.embedded_from_normals(z[:, 2 * wa:])
        # the stacks are block diagonal, so the spectral norm of each matrix
        # is the operator norm of its element of A
        unital, idem, bimod = (float(np.linalg.norm(diff, 2, axis=(-2, -1)).max()) for diff in (
            self.apply_stack(B.identity_embedded()[None]) - np.eye(A.rep_dim),
            self.apply_stack(iota(units)) - units,
            self.apply_stack(iota(a1) @ b @ iota(a2)) - a1 @ self.apply_stack(b) @ a2))
        # faithfulness through the kernel of the sesquilinear form
        # K[u, v] = tr E(u* v) on the units: (E^k_ij)* E^k_i'j' = delta_ii' E^k_jj',
        # so block k of K is 1 (x) t_k, t_k = [tr E(E^k_jj')], and K is definite
        # iff every t_k is
        traces = np.trace(self.apply_stack(B.units_embedded()), axis1=1, axis2=2)
        per_block = np.split(traces, np.cumsum([n * n for n in B.blocks])[:-1])
        faithful = min(float(np.linalg.eigvalsh(hermitian_part(t.reshape(n, n))).min())
                       for n, t in zip(B.blocks, per_block)) > tol
        ok = unital <= tol and idem <= tol and bimod <= 1e-7 and faithful
        return {"passed": bool(ok), "unital": unital, "idempotent": idem,
                "bimodule": bimod, "faithful": bool(faithful)}


def trace_weighted_expectation(inclusion: Inclusion,
                               weights: np.ndarray | None = None) -> ExpectationSpec:
    """The expectation that compresses each B-block onto the embedded copies
    of A and averages them with the given positive weights.

    ``weights[k][j]`` scales the copy-compressions of A-block j inside
    B-block k; unitality requires sum_k weights[k,j] * multiplicity[k,j] = 1
    and the default is the uniform choice.  Each image is written by index at
    the units: E(e^k_xy) = w_kj e_ab wherever iota(e_ab), e_ab in block j of A,
    has a 1 at (x, y).
    """
    A, B, mult = inclusion.A, inclusion.B, inclusion.multiplicity
    if weights is None:
        weights = np.where(mult > 0, 1 / mult.sum(axis=0), 0)
    weights = np.asarray(weights, dtype=float)
    norm = np.einsum("kj,kj->j", weights, mult)
    if np.abs(norm - 1.0).max() > 1e-12:
        raise ContractError("weights do not sum to a unital expectation")
    if ((weights <= 0) & (mult > 0)).any():
        raise ContractError("weights must be strictly positive on present copies")
    L = _unit_layout(A.blocks)
    owner = np.repeat(np.arange(A.num_blocks), A.blocks)[L.rows]
    iota = inclusion.embed_stack(A.units_embedded())
    images = []
    for k, n in enumerate(B.blocks):
        s = B.block_slice(k)
        u, x, y = np.nonzero(iota[:, s, s])
        img = np.zeros((n, n, A.rep_dim, A.rep_dim), dtype=complex)
        img[x, y, L.rows[u], L.cols[u]] = weights[k, owner[u]]
        images.append(img)
    return ExpectationSpec(inclusion, images)


def _expectation_module(spec: ExpectationSpec) -> HilbertBimodule:
    """X = B as a B-A bimodule with the E-twisted right inner product, after
    checking that E is a faithful conditional expectation; built once per
    spec, at the matrix units."""
    if "module" in spec._cache:
        return spec._cache["module"]
    chk = spec.check()
    if not chk["passed"]:
        raise ContractError(f"not a faithful conditional expectation: {chk}")
    A, B, I = spec.A, spec.B, identity_bimodule(spec.B)
    # X = B over itself with (x|y)_A = E((x|y)_B) and x.a = x iota(a): E at
    # the units of B and iota at those of A, each read at the other's units
    E = np.concatenate([img.reshape(-1, A.rep_dim, A.rep_dim) for img in spec.images])
    GX = np.tensordot(_unit_values(E, A), I.right_stack, axes=([0], [0]))
    iota = spec.inclusion.embed_stack(A.units_embedded())
    Psi = np.tensordot(_unit_values(iota, B), I.psis, axes=1)
    spec._cache["module"] = HilbertBimodule(B, A, I.dim, GX, I.phis, Psi, I.left_stack,
                                            units=True)
    return spec._cache["module"]


def from_expectation(spec: ExpectationSpec):
    """The three bimodules of a finite-index conditional expectation:
    X = B as a B-A bimodule, Y its contragredient A-B structure, Z = the
    A-A bimodule, all with E-twisted inner products."""
    X = _expectation_module(spec)
    Y = contragredient(X)
    return X, Y, tensor(Y, X)


def quasi_basis(spec: ExpectationSpec) -> tuple[np.ndarray, AlgebraElement]:
    """A quasi-basis {u_i} for E (x = sum_i u_i E(u_i* x)) and the associated
    index element sum_i u_i u_i* in B: the w-frame of B as a right A-module
    (``_frame_rows``), a normalized tight frame by construction."""
    coords = _frame_rows(_expectation_module(spec))
    u = np.tensordot(coords, spec.B.units_embedded(), axes=1)          # the u_i, embedded
    return coords, spec.B.from_embedded(np.einsum("sij,skj->ik", u, u.conj()))


def _cp_pair(spec: ExpectationSpec) -> tuple[CPMap, np.ndarray]:
    """E into A and iota back, at the units of A (U_A, N_B, N_B): the pair of
    ``least_multipliers``; iota is the right action of ``_expectation_module``."""
    return spec.as_cp_map(), spec.inclusion.embed_stack(spec.A.units_embedded())


def expectation_cp_gap(spec: ExpectationSpec) -> float:
    """The Pimsner-Popa constant: the largest c such that E - c*id is
    completely positive, in closed form.

    E - c id is completely positive iff 1/c id.E - id is, so the gap is
    1 / max_k c_k* with c_k* the least multiplier of iota.E on block k of B,
    read off the Choi blocks of E and iota (``least_multipliers``, with no
    iota.E formed), and 0 when vec 1 leaves the range of a diagonal Choi
    block of iota.E beyond 1e-9.
    """
    cp_ok, least, residual = spec._multipliers()
    if not cp_ok:
        raise ContractError("expectation is not even positive")
    if (residual > 1e-9).any():
        return 0.0
    return 1.0 / float(least.max())


def minimal_cp_multiplier(spec: ExpectationSpec) -> dict:
    """Certify that the index element of E (``quasi_basis``) is the smallest
    central c with c E - id completely positive: per block k of B, the least
    multiplier c_k* of iota.E (``least_multipliers`` on E and iota, with no
    iota.E formed) against the index element's coefficient c_k
    (``index._certificate``)."""
    _, ind = quasi_basis(spec)
    c = np.array([np.trace(b).real / len(b) for b in ind.blocks])
    found = spec._multipliers()
    passed, certified = _certificate(found, c)
    return {"index_element": ind, "least_multiplier": found[1].tolist(),
            "range_residual": found[2].tolist(),
            "passed_at_index": passed, "minimality_certified": certified}


# -- weighted graphs ----------------------------------------------------------------


@dataclass
class GraphSpec:
    """A finite directed graph with strictly positive edge weights."""

    vertices: list[str]
    edges: list[tuple[str, str, float]]

    def __post_init__(self):
        if not self.vertices:
            raise StructureError("graph needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise StructureError("vertex names must be distinct")
        pos = {v: i for i, v in enumerate(self.vertices)}
        seen = set()
        for s, r, w in self.edges:
            if s not in pos or r not in pos:
                raise StructureError(f"edge ({s}, {r}) uses an unknown vertex")
            if (s, r) in seen:
                raise StructureError(f"duplicate edge ({s}, {r})")
            if not w > 0:
                raise StructureError(f"edge ({s}, {r}) has non-positive weight {w}")
            seen.add((s, r))
        outs = {s for s, _, _ in self.edges}
        ins = {r for _, r, _ in self.edges}
        missing_out = [v for v in self.vertices if v not in outs]
        missing_in = [v for v in self.vertices if v not in ins]
        if missing_out or missing_in:
            raise StructureError(
                f"every vertex needs an outgoing and an incoming edge; "
                f"no out-edge at {missing_out}, no in-edge at {missing_in}")

    @property
    def vertex_index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}


@dataclass
class GraphReport:
    bimodule: HilbertBimodule
    c1: float
    c2: float
    r_ind_closed: np.ndarray     # per-vertex sum of out-weights
    l_ind_closed: np.ndarray     # per-vertex sum of reciprocal in-weights
    right_frame_residual: float
    left_frame_residual: float


def _graph_bimodule(g: GraphSpec):
    """(X, source, range, weight of each edge): the edge bimodule of a weighted graph
    over the vertex algebra.  Edges are the coordinate basis; the right Gram is
    the sum over in-edges, the left Gram weights out-edges by T.  Written at the
    units e^v_11 of the vertex algebra, where each stack is diagonal in the edges."""
    nv, d = len(g.vertices), len(g.edges)
    A = MultiMatrixAlgebra([1] * nv)
    idx = g.vertex_index
    src = np.array([idx[s] for s, _, _ in g.edges])
    dst = np.array([idx[r] for _, r, _ in g.edges])
    wts = np.array([w for _, _, w in g.edges], dtype=float)
    G, L, Phi, Psi = (np.zeros((nv, d, d), dtype=complex) for _ in range(4))
    e = np.arange(d)
    G[dst, e, e], L[src, e, e], Phi[src, e, e], Psi[dst, e, e] = 1.0, wts, 1.0, 1.0
    return HilbertBimodule(A, A, d, G, Phi, Psi, L, units=True), src, dst, wts


def from_weight_graph(g: GraphSpec) -> GraphReport:
    """The edge bimodule of a weighted graph (``_graph_bimodule``), with its
    closed-form index elements, the row sums of T and the column sums of
    1/T, and the residuals of its two coordinate frames."""
    X, src, dst, wts = _graph_bimodule(g)
    W, one = np.zeros((2, len(g.vertices), len(g.vertices))), np.eye(X.dim)
    W[0, src, dst], W[1, src, dst] = wts, 1.0 / wts
    r_closed, l_closed = W[0].sum(axis=1), W[1].sum(axis=0)
    right_res = X.op_norm(frame_operator(X, one) - one)
    # {w^{-1/2} delta_e} as a left tight frame, a right one of the contragredient
    Xbar = contragredient(X)
    left_res = Xbar.op_norm(frame_operator(Xbar, np.diag(1.0 / np.sqrt(wts))) - one)
    return GraphReport(bimodule=X, c1=float(r_closed.max()), c2=float(l_closed.max()),
                       r_ind_closed=r_closed, l_ind_closed=l_closed,
                       right_frame_residual=right_res, left_frame_residual=left_res)
