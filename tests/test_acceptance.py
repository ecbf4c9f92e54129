"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing a single pass/fail line.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import json

import numpy as np

from bimod import (
    best_constants,
    basic_construction,
    build_conjugate,
    column_bimodule,
    expectation_cp_gap,
    fiber_decomposition,
    from_hilbert_space,
    from_weight_graph,
    generalized_basis_step,
    inner_from_conjugate,
    min_dimension,
    minimal_cp_multiplier,
    morita_check,
    rank_one_sum_norm,
    right_index,
    tensor_conjugate,
    tight_frame,
)
from bimod.cli import CommandRequest, run

from helpers import (
    corpus,
    diag_expectation_m2,
    random_bimodule,
    random_bimodule_family,
    random_compact_positive,
    random_graph,
    random_posdef,
)

_RESULTS = []


def _report(num, label, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    _RESULTS.append((num, passed))
    assert passed, line


def test_c01_gram_norm_formula():
    # 200 random instances, d <= 16: half-product value vs direct norm <= 1e-8
    rng = np.random.default_rng(101)
    shapes = [([1], [1], [[4]]), ([2], [2], [[2]]), ([1], [2, 2], [[1, 1]]),
              ([2, 1], [2], [[1], [2]]), ([1, 1], [1, 1], [[2, 1], [1, 2]])]
    worst = 0.0
    for i in range(200):
        a, b, m = shapes[i % len(shapes)]
        X = random_bimodule(a, b, m, seed=900 + i)
        n = int(rng.integers(1, 7))
        xs = rng.standard_normal((n, X.dim)) + 1j * rng.standard_normal((n, X.dim))
        ys = rng.standard_normal((n, X.dim)) + 1j * rng.standard_normal((n, X.dim))
        direct = X.op_norm(sum(X.rank_one(x, y) for x, y in zip(xs, ys)))
        formula = rank_one_sum_norm(X, xs, ys)
        worst = max(worst, abs(formula - direct) / max(direct, 1e-12))
    _report(1, "rank-one sum norm = Gram half-product norm", worst <= 1e-8,
            f"worst relative gap {worst:.2e} over 200 instances")


def test_c02_weighted_space_traces():
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(2, 17))
        T = random_posdef(n, rng)
        rep = right_index(from_hilbert_space(n, T))
        tr = float(np.trace(T).real)
        tri = float(np.trace(np.linalg.inv(T)).real)
        worst = max(worst, abs(rep.r_num - tr) / tr, abs(rep.l_num - tri) / tri)
    _report(2, "weighted C^n indices equal Tr(T) and Tr(T^-1)", worst <= 1e-9,
            f"worst relative gap {worst:.2e} over 50 weights")


def test_c03_conjugate_identities():
    worst_res, worst_id = 0.0, 0.0
    for name, X in corpus():
        sol = build_conjugate(X)
        idx = right_index(X)
        worst_res = max(worst_res, sol.residual_1, sol.residual_2)
        rr, bb = sol.R_star_R, sol.Rbar_star_Rbar
        worst_id = max(worst_id,
                       (rr - idx.l_ind).norm() / (1 + idx.l_num),
                       (bb - idx.r_ind).norm() / (1 + idx.r_num),
                       abs(sol.norm_Rbar ** 2 - idx.r_num) / (1 + idx.r_num))
    ok = worst_res <= 1e-8 and worst_id <= 1e-8
    _report(3, "conjugate equations with R*R and Rbar*Rbar index identities", ok,
            f"max residual {worst_res:.2e}, max identity gap {worst_id:.2e}")


def test_c04_left_inner_round_trip():
    worst = 0.0
    for i in range(30):
        shapes = [([1], [1], [[2]]), ([2], [1], [[1]]), ([1], [2], [[1]]),
                  ([1, 1], [2], [[1], [1]]), ([2], [2, 1], [[1, 1]]),
                  ([2, 1], [1, 1], [[1, 0], [1, 1]])]
        a, b, m = shapes[i % len(shapes)]
        X = random_bimodule(a, b, m, seed=400 + i)
        sol = build_conjugate(X)
        L = inner_from_conjugate(X, sol.Y, sol.R, sol.Rbar)
        scale = max(np.abs(X.left_gram).max(), 1.0)
        worst = max(worst, float(np.abs(L - X.left_gram).max()) / scale)
    _report(4, "solution -> left inner product round trip", worst <= 1e-8,
            f"worst entrywise gap {worst:.2e} over 30 modules")


def test_c05_smallest_multiplier_and_gap():
    spec = diag_expectation_m2()
    cert = minimal_cp_multiplier(spec)
    ind = cert["index_element"]
    two = (ind - 2.0 * spec.B.identity()).norm() < 1e-10
    gap = expectation_cp_gap(spec)
    ok = (two and cert["passed_at_index"] and cert["minimality_certified"]
          and abs(gap - 0.5) <= 1e-6)
    _report(5, "diagonal expectation: minimal multiplier 2I, CP gap 1/2", ok,
            f"gap {gap:.9f}, certificate {cert['minimality_certified']}")


def test_c06_graph_closed_forms():
    worst = 0.0
    exact = True
    for i in range(50):
        g = random_graph(2000 + i, max_vertices=12, extra_edges=6)
        rep = from_weight_graph(g)
        idx = right_index(rep.bimodule)
        r_eng = np.array([b[0, 0].real for b in idx.r_ind.blocks])
        l_eng = np.array([b[0, 0].real for b in idx.l_ind.blocks])
        worst = max(worst, float(np.abs(r_eng - rep.r_ind_closed).max()),
                    float(np.abs(l_eng - rep.l_ind_closed).max()))
        W = np.zeros((len(g.vertices), len(g.vertices)))
        Winv = np.zeros_like(W)
        pos = g.vertex_index
        for s, r, w in g.edges:
            W[pos[s], pos[r]] = w
            Winv[pos[s], pos[r]] = 1.0 / w
        exact = exact and rep.c1 == W.sum(axis=1).max() and rep.c2 == Winv.sum(axis=0).max()
    ok = worst <= 1e-10 and exact
    _report(6, "graph index elements match row/column sums", ok,
            f"worst entrywise gap {worst:.2e} over 50 graphs, maxima exact: {exact}")


def test_c07_imprimitivity_identities():
    X = column_bimodule(3)
    rep = right_index(X)
    mor = morita_check(X)
    md = min_dimension(X)
    ok = ((rep.r_ind - X.A.identity()).norm() < 1e-9
          and (rep.l_ind - X.B.identity()).norm() < 1e-9
          and mor.is_morita and abs(md.dim_hat - 1.0) <= 1e-10 and md.certified)
    _report(7, "column bimodule: identity index elements, Morita, dim 1", ok,
            f"min dim {md.dim_hat:.8f}")


def test_c08_minimal_dimension_optimizer():
    worst = cert = 0.0
    rng = np.random.default_rng(108)
    for n in (2, 3, 5):
        T = random_posdef(n, rng)
        res = min_dimension(from_hilbert_space(n, T))
        worst = max(worst, abs(res.dim_hat - n))
        cert = max(cert, res.certificate_residual)
    ok = worst <= 1e-10 and cert <= 1e-10
    _report(8, "minimal dimension of weighted C^n is n, certified", ok,
            f"worst gap {worst:.2e}, worst certificate residual {cert:.2e}")


def test_c09_fiber_bound():
    all_ok = True
    for i in range(30):
        shapes = [([1], [1], [[2]]), ([2], [1], [[1]]), ([1], [2], [[1]]),
                  ([1, 1], [2], [[1], [1]]), ([2], [2, 1], [[1, 1]]),
                  ([2, 1], [1, 1], [[1, 0], [1, 1]])]
        a, b, m = shapes[i % len(shapes)]
        X = random_bimodule(a, b, m, seed=500 + i)
        rep = fiber_decomposition(X)
        all_ok = all_ok and rep.passed
    Xeq = from_hilbert_space(3, np.eye(3))
    req = fiber_decomposition(Xeq)
    equality = req.fibers[0].dimension == 9 and req.fibers[0].bound == 9
    ok = all_ok and equality
    _report(9, "fiber dimensions bounded by [index/lambda']^2, equality at T=I", ok,
            f"30 random modules pass: {all_ok}, equality case: {equality}")


def test_c10_basic_construction():
    rng = np.random.default_rng(110)
    names = ["hilbert_diag12", "column2", "expectation_M2", "random_112"]
    entries = [e for e in corpus() if e[0] in names]
    worst_idem, worst_pp = 0.0, 0.0
    cp_all = True
    for name, X in entries:
        bco = basic_construction(X)
        lam = 1.0 / best_constants(X).lambda_prime_hat
        scale = 1 + bco.F.index_element().norm()
        for _ in range(50):
            T = random_compact_positive(X, rng)
            e1 = bco.phi_expectation(T)
            worst_idem = max(worst_idem,
                             X.op_norm(bco.phi_expectation(e1) - e1)
                             / (scale * (1 + X.op_norm(T))))
            resid = lam * X.op_rep(X.phi(bco.F.apply(T))) - X.op_rep(T)
            mn = float(np.linalg.eigvalsh(0.5 * (resid + resid.conj().T)).min())
            worst_pp = min(worst_pp, mn / (1 + X.op_norm(T)))
        cp_all = cp_all and bco.as_cp_map().is_completely_positive()[0]
    ok = worst_idem <= 1e-9 and worst_pp >= -1e-8 and cp_all
    _report(10, "basic construction: idempotent CP expectation with the index bound",
            ok, f"idempotency {worst_idem:.2e}, PP min eig {worst_pp:.2e}")


def test_c11_composed_conjugates():
    worst_res = 0.0
    bounds_ok = True
    pair_shapes = [((([1], [2], [[1]]), ([2], [1], [[1]]))),
                   ((([2], [1, 1], [[1, 1]]), ([1, 1], [1], [[1], [1]]))),
                   ((([1], [1], [[2]]), ([1], [2], [[1]])))]
    for i in range(20):
        (a1, b1, m1), (a2, b2, m2) = pair_shapes[i % len(pair_shapes)]
        X = random_bimodule(a1, b1, m1, seed=700 + 2 * i)
        Y = random_bimodule(a2, b2, m2, seed=701 + 2 * i)
        solX, solY = build_conjugate(X), build_conjugate(Y)
        sol = tensor_conjugate(solX, solY)
        worst_res = max(worst_res, sol.residual_1, sol.residual_2)
        bounds_ok = bounds_ok and sol.norm_R <= solX.norm_R * solY.norm_R + 1e-9
        bounds_ok = bounds_ok and sol.norm_Rbar <= solX.norm_Rbar * solY.norm_Rbar + 1e-9
    ok = worst_res <= 1e-7 and bounds_ok
    _report(11, "composed conjugate solutions verify with norm bounds", ok,
            f"worst residual {worst_res:.2e} over 20 pairs")


def test_c12_generalized_basis_step():
    rng = np.random.default_rng(112)
    worst = 0.0
    X_pool = random_bimodule_family(5, seed=77)
    for i in range(100):
        X = X_pool[i % len(X_pool)]
        n = int(rng.integers(1, 5))
        mu = rng.standard_normal((n, X.dim)) + 1j * rng.standard_normal((n, X.dim))
        _, T = generalized_basis_step(X, mu)
        for x in mu:
            dev = X.vector_norm((T.matrix - np.eye(X.dim)) @ x) ** 2
            worst = max(worst, dev - 1.0 / (4 * n))
    chains_ok = True
    for i in range(50):
        X = X_pool[i % len(X_pool)]
        mu = rng.standard_normal((2, X.dim)) + 1j * rng.standard_normal((2, X.dim))
        extra = rng.standard_normal((1, X.dim)) + 1j * rng.standard_normal((1, X.dim))
        _, Tmu = generalized_basis_step(X, mu)
        _, Tnu = generalized_basis_step(X, np.vstack([mu, extra]))
        ok_psd, _ = X.op_is_positive(Tnu.matrix - Tmu.matrix)
        chains_ok = chains_ok and ok_psd
    ok = worst <= 1e-12 and chains_ok
    _report(12, "generalized basis step: 1/(4n) bound and monotone net", ok,
            f"worst excess {worst:.2e}, chains monotone: {chains_ok}")


def test_c13_basis_independence():
    from helpers import frame_extension, well_conditioned
    rng = np.random.default_rng(113)
    worst = 0.0
    for name, X in corpus():
        rep = right_index(X)
        for _ in range(2):
            W = well_conditioned(X.dim, rng)
            F = frame_extension(X, tight_frame(X, spanning=W))
            alt = X.A.from_embedded(F(np.eye(X.dim)))
            worst = max(worst,
                        max(np.abs(a - b).max() for a, b in zip(alt.blocks,
                                                                rep.r_ind.blocks))
                        / (1 + rep.r_num))
    _report(13, "index element independent of the tight frame", worst <= 1e-8,
            f"worst entrywise gap {worst:.2e} across 3 frames per module")


def test_c14_cli_determinism(tmp_path):
    from bimod.serde import encode_bimodule, encode_vector
    from bimod import build_conjugate

    def put(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    hilbert = put("h.json", {"kind": "hilbert", "n": 2, "T": [[1, 0], [0, 2]]})
    graph = put("g.json", {"kind": "graph", "vertices": ["a", "b"],
                           "edges": [["a", "b", 0.5], ["b", "a", 2.0]]})
    exp = put("e.json", {"kind": "expectation", "B": {"blocks": [2]},
                         "A_blocks": {"blocks": [1, 1], "multiplicity": [[1, 1]]},
                         "E_weights": [[1.0, 1.0]]})
    mn = put("mn.json", encode_bimodule(column_bimodule(2)))
    sol = build_conjugate(from_hilbert_space(2, np.diag([1.0, 2.0])))
    solution = put("s.json", {"kind": "solution", "R": encode_vector(sol.R),
                              "Rbar": encode_vector(sol.Rbar)})
    jobs = [("validate", [hilbert]), ("index", [hilbert]), ("conjugate", [hilbert]),
            ("verify", [hilbert, solution]), ("mindim", [hilbert]),
            ("basic", [hilbert]), ("fibers", [hilbert]), ("morita", [mn]),
            ("tensor", [hilbert, hilbert]), ("graph", [graph]),
            ("expectation", [exp]), ("hilbert", [hilbert])]
    identical = True
    for command, inputs in jobs:
        blobs = []
        for _ in range(2):
            status, report = run(CommandRequest(command=command, inputs=inputs, seed=0))
            report.pop("wall_time_ms")
            blobs.append(json.dumps(report, sort_keys=True).encode())
        identical = identical and blobs[0] == blobs[1]
    _report(14, "CLI reports byte-identical for fixed seed (modulo wall time)",
            identical, f"{len(jobs)} commands x 2 runs")
