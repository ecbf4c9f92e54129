"""Seeded input files and request lists for the three benchmark workloads.

Everything here runs before timing starts.  The program under test only
ever sees the JSON files written by :func:`build_workload`; the seed decides
every random entry of them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import bimod
from bimod import cli, serde

# (A blocks, B blocks, multiplicity matrix) -> module dimension d.  The ladder
# has no d = 16 rung: one pass over d = 13 and 18 already takes 25-35 s on
# 2 cores, and a full evaluation runs each workload 22 times.
LADDER_SHAPES = [
    ([2, 1], [2, 1], [[1, 1], [2, 3]]),   # d = 13
    ([2, 1], [2, 1], [[2, 2], [2, 2]]),   # d = 18
]
ROUNDTRIP_SHAPES = [
    ([2, 1, 1], [2, 1, 1], [[1, 1, 0], [1, 1, 1], [0, 1, 2]]),  # d = 13
    ([2, 1, 1], [2, 1, 1], [[2, 1, 0], [1, 1, 1], [0, 2, 2]]),  # d = 18
    ([2, 1, 1], [2, 1, 1], [[2, 1, 1], [2, 1, 1], [1, 2, 2]]),  # d = 24
]
ROUNDTRIP_TENSOR_MAX_D = 18   # tensor X (x) conj(X) takes ~44 s at d = 24
BUDGET = 2000
MODULE_COMMANDS = ("validate", "index", "conjugate", "verify", "mindim", "basic",
                   "fibers", "morita", "tensor")


@dataclass
class Request:
    """One CLI call.  ``argv`` names files; ``solution_from`` names the
    request whose conjugate report becomes this request's solution file."""

    name: str
    argv: list[str]
    oracle: dict = field(default_factory=dict)
    solution_from: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    requests: list[Request]
    input_files: list[str]
    pass_seconds: float     # typical time of one pass on 2 cores, 1 BLAS thread


# -- random bimodules ------------------------------------------------------------
#
# A copy, kept on purpose, of the generators in tests/helpers.py (same draws in
# the same order, so the same modules).  A change that edits the test helpers
# must not move the benchmark's inputs between it and its parent.


def _random_posdef(n, rng, spread=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return (q * np.exp(spread * (rng.random(n) - 0.5))) @ q.conj().T


def _well_conditioned(n, rng, spread=0.6):
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q1 * (1.0 + spread * rng.random(n))) @ q2


def random_bimodule(A_blocks, B_blocks, mult, seed):
    """The random bi-Hilbertian bimodule of the test suite's helper: for each
    block pair (k, l), mult[k][l] copies of the m_k x n_l matrix space, Gram
    tensors twisted by random positive matrices on the copy index, and the
    whole basis moved by a random well-conditioned change of coordinates."""
    rng = np.random.default_rng(seed)
    A, B = bimod.MultiMatrixAlgebra(A_blocks), bimod.MultiMatrixAlgebra(B_blocks)
    mult = np.asarray(mult, dtype=int)
    coords = [(k, l, c, r, s)
              for k, m in enumerate(A.blocks) for l, n in enumerate(B.blocks)
              for c in range(mult[k, l]) for r in range(m) for s in range(n)]
    pos = {key: p for p, key in enumerate(coords)}
    d = len(coords)
    twist_r, twist_l = {}, {}
    for k in range(A.num_blocks):
        for l in range(B.num_blocks):
            if mult[k, l]:
                twist_r[k, l] = _random_posdef(mult[k, l], rng)
                twist_l[k, l] = _random_posdef(mult[k, l], rng)
    G = np.zeros((d, d, B.rep_dim, B.rep_dim), dtype=complex)
    L = np.zeros((d, d, A.rep_dim, A.rep_dim), dtype=complex)
    for p, (k, l, c, r, s) in enumerate(coords):
        sa, sb = A.block_slice(k).start, B.block_slice(l).start
        for q, (k2, l2, c2, r2, s2) in enumerate(coords):
            if (k, l) != (k2, l2):
                continue
            if r == r2:
                G[p, q, sb + s, sb + s2] = twist_r[k, l][c, c2]
            if s == s2:
                L[p, q, sa + r, sa + r2] = twist_l[k, l][c, c2]
    Phi = np.zeros((A.rep_dim, A.rep_dim, d, d), dtype=complex)
    Psi = np.zeros((B.rep_dim, B.rep_dim, d, d), dtype=complex)
    for p, (k, l, c, r, s) in enumerate(coords):
        sa, sb = A.block_slice(k).start, B.block_slice(l).start
        for i in range(A.blocks[k]):
            Phi[sa + i, sa + r, pos[k, l, c, i, s], p] = 1.0
        for j in range(B.blocks[l]):
            Psi[sb + s, sb + j, pos[k, l, c, r, j], p] = 1.0
    W = _well_conditioned(d, rng)
    Winv = np.linalg.inv(W)
    G = np.einsum("Pp,Qq,PQab->pqab", W.conj(), W, G, optimize=True)
    L = np.einsum("Pp,Qq,PQab->pqab", W, W.conj(), L, optimize=True)
    Phi = np.einsum("iP,abPQ,Qj->abij", Winv, Phi, W, optimize=True)
    Psi = np.einsum("iP,abPQ,Qj->abij", Winv, Psi, W, optimize=True)
    return bimod.HilbertBimodule(A, B, d, G, Phi, Psi, L)


# -- small families -------------------------------------------------------------


def _hilbert_spec(T):
    return {"kind": "hilbert", "n": int(T.shape[0]),
            "T": [[[float(z.real), float(z.imag)] for z in row] for row in T]}


def _graph_spec(edges, vertices):
    return {"kind": "graph", "vertices": vertices,
            "edges": [[s, r, float(w)] for s, r, w in edges]}


def _random_graph(rng, nv):
    """A cycle through every vertex plus a few extra edges, so that each vertex
    has an incoming and an outgoing edge."""
    names = [f"v{i}" for i in range(nv)]
    perm = rng.permutation(nv)
    edges = {(i, int(perm[i])): 0.2 + 2.8 * rng.random() for i in range(nv)}
    for _ in range(int(rng.integers(1, 4))):
        i, j = int(rng.integers(nv)), int(rng.integers(nv))
        edges.setdefault((i, j), 0.2 + 2.8 * rng.random())
    return _graph_spec([(names[i], names[j], w) for (i, j), w in edges.items()], names)


def _expectation_spec(B_blocks, A_blocks, mult, weights):
    return {"kind": "expectation", "B": {"blocks": B_blocks},
            "A_blocks": {"blocks": A_blocks, "multiplicity": mult},
            "E_weights": weights}


def _cycle_graph():
    vs = ["a", "b", "c", "d"]
    return _graph_spec([(vs[i], vs[(i + 1) % 4], 1.0) for i in range(4)], vs)


def _bidirected_graph():
    vs = ["a", "b", "c", "d"]
    edges = []
    for i in range(4):
        edges += [(vs[i], vs[(i + 1) % 4], 0.5), (vs[(i + 1) % 4], vs[i], 0.5)]
    return _graph_spec(edges, vs)


def _corpus(rng, seed):
    """The twelve named shapes of the test corpus (every d <= 8).  Fixed
    entries stay fixed; random entries draw from the workload seed."""
    return [
        ("hilbert_diag12", _hilbert_spec(np.diag([1.0, 2.0]).astype(complex))),
        ("hilbert_random3", _hilbert_spec(_random_posdef(3, rng, 2.0))),
        ("column2", serde.encode_bimodule(bimod.column_bimodule(2))),
        ("identity_M2", serde.encode_bimodule(
            bimod.identity_bimodule(bimod.MultiMatrixAlgebra([2])))),
        ("identity_C2", serde.encode_bimodule(
            bimod.identity_bimodule(bimod.MultiMatrixAlgebra([1, 1])))),
        ("graph_cycle4", _cycle_graph()),
        ("graph_bidirected", _bidirected_graph()),
        ("expectation_M2", _expectation_spec([2], [1, 1], [[1, 1]], [[1.0, 1.0]])),
        ("expectation_2block", _expectation_spec([2, 2], [2], [[1], [1]], [[0.5], [0.5]])),
        ("random_11", serde.encode_bimodule(random_bimodule([1], [1], [[2]], seed + 1))),
        ("random_21", serde.encode_bimodule(random_bimodule([2], [1], [[1]], seed + 2))),
        ("random_112", serde.encode_bimodule(
            random_bimodule([1, 1], [2], [[1], [1]], seed + 3))),
    ]


# -- workloads ------------------------------------------------------------------


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        self.files = []

    def write(self, name, obj):
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        self.files.append(path)
        return path

    def contragredient(self, name, path):
        """Write the contragredient of the module that a CLI command builds
        from the file at ``path``."""
        X = cli._as_bimodule(*cli.parse_spec(path))
        return self.write(name + "_bar", serde.encode_bimodule(bimod.contragredient(X)))


def _hilbert_oracle(spec):
    """Closed forms for C^n with weight T: r_num = tr T, l_num = tr T^-1; the
    best constants are the extreme eigenvalues of T."""
    T = np.array([[complex(*z) for z in row] for row in spec["T"]])
    eigs = np.linalg.eigvalsh(T)
    return {"r_num": float(np.trace(T).real),
            "l_num": float(np.trace(np.linalg.inv(T)).real),
            "eig_min": float(eigs[0]), "eig_max": float(eigs[-1])}


def _requests(w, name, spec, commands, seed, budget=None):
    """Requests running ``commands`` on one module.  ``verify`` reads the
    solution emitted by this module's ``conjugate``; ``tensor`` pairs the
    module with its contragredient."""
    path = w.write(name, spec)
    oracle = _hilbert_oracle(spec) if spec["kind"] == "hilbert" else {}
    extra = ["--seed", str(seed)] + (["--budget", str(budget)] if budget else [])
    out = []
    for cmd in commands:
        if cmd == "verify":
            out.append(Request(f"verify:{name}", ["verify", path, "<solution>"] + extra,
                               solution_from=f"conjugate:{name}"))
        elif cmd == "tensor":
            out.append(Request(f"tensor:{name}",
                               ["tensor", path, w.contragredient(name, path)] + extra))
        else:
            out.append(Request(f"{cmd}:{name}", [cmd, path] + extra,
                               oracle if cmd in ("index", "hilbert") else {}))
    return out


def _corpus_small(w, seed):
    rng = np.random.default_rng(seed)
    reqs = []
    for name, spec in _corpus(rng, seed):
        reqs += _requests(w, name, spec, MODULE_COMMANDS, seed, budget=BUDGET)
    wts = rng.random(2) + 0.5
    wts = wts / wts.sum()
    reqs += _requests(w, "hilbert_extra", _hilbert_spec(_random_posdef(4, rng, 2.0)),
                      ["hilbert"], seed)
    reqs += _requests(w, "graph_extra", _random_graph(rng, 5), ["graph"], seed)
    reqs += _requests(w, "expectation_extra", _expectation_spec(
        [2, 2], [2], [[1], [1]], [[wts[0]], [wts[1]]]), ["expectation"], seed)
    return reqs


def _commutant_ladder(w, seed):
    reqs = []
    for i, (a, b, m) in enumerate(LADDER_SHAPES):
        X = random_bimodule(a, b, m, seed * 101 + i)
        reqs += _requests(w, f"ladder_d{X.dim}", serde.encode_bimodule(X),
                          ["fibers", "basic", "mindim", "morita"], seed, budget=BUDGET)
    return reqs


def _conjugate_roundtrip(w, seed):
    reqs = []
    for i, (a, b, m) in enumerate(ROUNDTRIP_SHAPES):
        X = random_bimodule(a, b, m, seed * 101 + i)
        commands = ["conjugate", "verify", "validate"] if X.dim >= 18 else []
        if X.dim <= ROUNDTRIP_TENSOR_MAX_D:
            commands.append("tensor")
        reqs += _requests(w, f"roundtrip_d{X.dim}", serde.encode_bimodule(X), commands, seed)
    return reqs


_BUILDERS = {"corpus-small": (_corpus_small, 30.0),
             "commutant-ladder": (_commutant_ladder, 28.0),
             "conjugate-roundtrip": (_conjugate_roundtrip, 9.0)}


def build_workload(name, seed, workdir):
    """Write the workload's input files under ``workdir``; return its requests."""
    w = _Writer(workdir)
    build, pass_seconds = _BUILDERS[name]
    reqs = build(w, seed)
    return Workload(name, reqs, list(w.files), pass_seconds)
