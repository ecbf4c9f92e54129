import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bimod import (
    ContractError,
    GraphSpec,
    HilbertBimodule,
    Inclusion,
    MultiMatrixAlgebra,
    StructureError,
    best_constants,
    column_bimodule,
    expectation_cp_gap,
    from_expectation,
    from_hilbert_space,
    from_weight_graph,
    identity_bimodule,
    minimal_cp_multiplier,
    quasi_basis,
    right_index,
    trace_weighted_expectation,
    validate,
)
from bimod import constructors
from bimod.constructors import _cp_pair, _expectation_module
from bimod.index import least_multipliers

from helpers import (
    assert_least_multipliers_factorize_once,
    assert_matches_composite,
    bidirected_cycle_graph,
    delta_minimal_cp_multiplier,
    diag_expectation_m2,
    four_cycle_graph,
    iota_e,
    per_element_apply,
    per_element_check,
    per_element_iota,
    random_element,
    random_graph,
    random_posdef,
    star_graph,
    two_block_expectation,
)


# -- weighted Hilbert spaces --------------------------------------------------


def test_hilbert_space_identity_weight():
    X = from_hilbert_space(2, np.eye(2))
    rep = right_index(X)
    assert rep.r_num == pytest.approx(2.0)
    assert rep.l_num == pytest.approx(2.0)


def test_hilbert_space_trace_oracle():
    X = from_hilbert_space(2, np.diag([1.0, 2.0]))
    assert validate(X).passed
    rep = right_index(X)
    assert rep.r_num == pytest.approx(3.0, rel=1e-12)
    assert rep.l_num == pytest.approx(1.5, rel=1e-12)


def test_hilbert_space_rayleigh_constants():
    T = random_posdef(3, np.random.default_rng(0))
    X = from_hilbert_space(3, T)
    eigs = np.linalg.eigvalsh(T)
    bc = best_constants(X)
    assert bc.lambda_prime_hat == pytest.approx(eigs.min(), abs=1e-7)
    assert bc.lambda_hat == pytest.approx(eigs.max(), abs=1e-7)


def test_hilbert_space_rejects_bad_weight():
    with pytest.raises(ContractError):
        from_hilbert_space(2, np.diag([1.0, -2.0]))
    with pytest.raises(ContractError):
        from_hilbert_space(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


# -- conditional expectations ---------------------------------------------------


def test_expectation_identity_inclusion():
    B = MultiMatrixAlgebra([2])
    inc = Inclusion(B, B, [[1]])
    E = trace_weighted_expectation(inc)
    X, Y, Z = from_expectation(E)
    _, ind = quasi_basis(E)
    assert (ind - B.identity()).norm() < 1e-10
    rep = right_index(X)
    assert (rep.r_ind - B.identity()).norm() < 1e-9


def test_expectation_diag_m2():
    E = diag_expectation_m2()
    assert E.check()["passed"]
    X, Y, Z = from_expectation(E)
    assert validate(X).passed and validate(Y).passed and validate(Z).passed
    _, ind = quasi_basis(E)
    assert np.abs(ind.blocks[0] - 2.0 * np.eye(2)).max() < 1e-9
    rep = right_index(X)
    assert (rep.l_ind - X.B.identity()).norm() < 1e-9
    assert (rep.r_ind - ind).norm() < 1e-8


def test_expectation_round_trip_identity():
    # r-ind of X is l-ind of its contragredient, and Ind(E) = r-ind (Watatani):
    # the quasi-basis sum sum_i u_i u_i^* (the w-frame route) matches r-ind
    # read off the dual basis of the Gram
    for spec in (diag_expectation_m2(), two_block_expectation()):
        X, Y, _ = from_expectation(spec)
        repX, repY = right_index(X), right_index(Y)
        assert (repX.r_ind - repY.l_ind).norm() <= 1e-9 * (1 + repX.r_num)
        assert (quasi_basis(spec)[1] - repX.r_ind).norm() <= 1e-12 * (1 + repX.r_num)


def test_expectation_two_block():
    E = two_block_expectation()
    X, Y, Z = from_expectation(E)
    _, ind = quasi_basis(E)
    assert (ind - 2.0 * E.B.identity()).norm() < 1e-9
    assert expectation_cp_gap(E) == pytest.approx(0.5, abs=1e-6)
    cert = minimal_cp_multiplier(E)
    assert cert["passed_at_index"] and cert["minimality_certified"]


def test_expectation_quasi_basis_reconstruction():
    E = diag_expectation_m2()
    qb, _ = quasi_basis(E)
    rng = np.random.default_rng(1)
    units = E.B.units_embedded()
    for _ in range(50):
        x = random_element(E.B, rng)
        acc = E.B.zero()
        for u in qb:
            umat = E.B.from_embedded(np.einsum("p,pij->ij", u, units))
            acc = acc + umat * E.inclusion.embed(E.apply(umat.adjoint() * x))
        assert (acc - x).norm() <= 1e-9 * (1 + x.norm())


# (B blocks, A blocks, multiplicity, weights or None for uniform, gap)
PIMSNER_POPA_CASES = [
    ([2], [1, 1], [[1, 1]], None, 1 / 2),
    ([2, 2], [2], [[1], [1]], [[.3], [.7]], 0.3),
    ([3], [1, 1], [[2, 1]], [[.5, 1]], 1 / 5),
    ([3, 1], [1, 1], [[2, 1], [0, 1]], None, 1 / 6),
    ([4], [2], [[2]], None, 1 / 4),
    ([3, 2], [1, 2], [[1, 1], [0, 1]], [[1, .2], [0, .8]], 1 / 6),
    ([2, 2, 1], [1, 1], [[1, 1], [2, 0], [0, 1]], [[.2, .6], [.4, 0], [0, .4]], 0.15),
]


def test_expectation_pimsner_popa_norm_bound():
    # the gap of a trace-weighted expectation is min_k 1 / sum_j mult[k,j] / weights[k,j];
    # E(b) >= gap * b forces ||E(b)|| >= gap ||b|| on positive b
    specs = [diag_expectation_m2(), two_block_expectation()]
    for b_blocks, a_blocks, mult, weights, exact in PIMSNER_POPA_CASES:
        inc = Inclusion(MultiMatrixAlgebra(a_blocks), MultiMatrixAlgebra(b_blocks), mult)
        spec = trace_weighted_expectation(inc, weights)
        m = np.array(mult, dtype=float)
        w = (np.where(m > 0, 1.0 / m.sum(axis=0), 0.0) if weights is None
             else np.array(weights, dtype=float))
        closed = float((1.0 / np.divide(m, w, out=np.zeros_like(m), where=m > 0)
                        .sum(axis=1)).min())
        assert closed == pytest.approx(exact, abs=1e-15)
        assert abs(expectation_cp_gap(spec) - closed) <= 1e-12
        specs.append(spec)
    for spec in specs:
        gap = expectation_cp_gap(spec)
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_element(spec.B, rng)
            b = g.adjoint() * g
            assert spec.apply(b).norm() >= gap * b.norm() - 1e-10


def _expectation_specs():
    out = [pytest.param(diag_expectation_m2(), id="diag_m2"),
           pytest.param(two_block_expectation(), id="two_block")]
    for i, (b_blocks, a_blocks, mult, weights, _) in enumerate(PIMSNER_POPA_CASES):
        inc = Inclusion(MultiMatrixAlgebra(a_blocks), MultiMatrixAlgebra(b_blocks), mult)
        out.append(pytest.param(trace_weighted_expectation(inc, weights), id=f"pp{i}"))
    return out


@pytest.mark.parametrize("spec", _expectation_specs())
def test_least_multipliers_are_the_index_element(spec, monkeypatch):
    # c_k* of iota.E is the coefficient of the quasi-basis index element on
    # block k of B, the gap is 1 / max_k c_k*, and the verdicts are those of
    # the delta search on the Choi blocks of c E - id
    assert_least_multipliers_factorize_once(*_cp_pair(spec), iota_e(spec), monkeypatch)
    _, ind = quasi_basis(spec)
    c = np.array([np.trace(b).real / len(b) for b in ind.blocks])
    got = minimal_cp_multiplier(spec)
    assert np.abs(np.array(got["least_multiplier"]) - c).max() <= 1e-12 * c.max()
    assert max(got["range_residual"]) <= 1e-12
    assert abs(expectation_cp_gap(spec) - 1.0 / c.max()) <= 1e-12 / c.max()
    ref = delta_minimal_cp_multiplier(spec)
    assert got["passed_at_index"] and got["minimality_certified"]
    assert (got["passed_at_index"], got["minimality_certified"]) == \
        (ref["passed_at_index"], ref["minimality_certified"])
    # one block of the index element scaled by 0.999 fails at the index
    shrunk = ind.copy()
    shrunk.blocks[0] = 0.999 * shrunk.blocks[0]
    monkeypatch.setattr(constructors, "quasi_basis", lambda spec: (None, shrunk))
    assert not minimal_cp_multiplier(spec)["passed_at_index"]


@st.composite
def _weighted_expectations(draw):
    """trace_weighted_expectation of a random unital inclusion: at most 3
    blocks of A of size at most 3, at most 3 blocks of B, multiplicities at
    most 2, B of linear dimension at most 24 (the dimension of its module),
    and positive weights normalized to a unital expectation."""
    a = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rows = draw(st.integers(1, 3))
    mult = np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=len(a), max_size=len(a)),
                                  min_size=rows, max_size=rows)))
    assume((mult.sum(axis=0) > 0).all() and (mult.sum(axis=1) > 0).all())
    assume(np.square(mult @ a).sum() <= 24)
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=mult.size,
                                 max_size=mult.size))).reshape(mult.shape) * (mult > 0)
    inc = Inclusion(MultiMatrixAlgebra(a), MultiMatrixAlgebra((mult @ a).tolist()), mult)
    return trace_weighted_expectation(inc, raw / np.einsum("kj,kj->j", raw, mult))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_weighted_expectations())
def test_expectation_multipliers_match_the_composite_oracle(spec):
    # c_k*, the range residuals and the verdict from the blocks of E and
    # iota are those of the composite iota.E, and so are the gap and the
    # certificate built on them
    got, ref = least_multipliers(*_cp_pair(spec)), iota_e(spec)
    assert_matches_composite(got, ref)
    assert got[0] and max(got[2]) <= 1e-12
    gap = expectation_cp_gap(spec)
    assert abs(gap - 1.0 / max(got[1])) <= 1e-12 * gap
    _, ind = quasi_basis(spec)
    c = np.array([np.trace(b).real / len(b) for b in ind.blocks])
    cert = minimal_cp_multiplier(spec)
    assert np.abs(np.array(cert["least_multiplier"]) - c).max() <= 1e-12 * c.max()
    assert cert["passed_at_index"] and cert["minimality_certified"]


def test_expectation_tensor_matches_direct():
    # Z = Y (x)_B X is isomorphic to the direct A-A structure on B with
    # inner products E(x* y) and E(x y*), via y (x) x -> y x
    from bimod.bimodule import bimodule_map_residual
    from helpers import lift_matrix
    E = diag_expectation_m2()
    X, Y, Z = from_expectation(E)
    assert Z.dim == X.dim       # B (x)_B B ~ B as a linear space
    assert validate(Z).passed
    repZ = right_index(Z)
    assert repZ.r_num == pytest.approx(2.0, abs=1e-8)

    A, B, inc = E.A, E.B, E.inclusion
    units = B.units_embedded()
    d = B.linear_dim
    GD = np.zeros((d, d, A.rep_dim, A.rep_dim), dtype=complex)
    LD = np.zeros((d, d, A.rep_dim, A.rep_dim), dtype=complex)
    for p in range(d):
        for q in range(d):
            up, uq = B.from_embedded(units[p]), B.from_embedded(units[q])
            GD[p, q] = E.apply(up.adjoint() * uq).embed()
            LD[p, q] = E.apply(up * uq.adjoint()).embed()
    # direct two-sided structure lives on B itself; the conjugate-side basis
    # vector with index p corresponds to u_p* under the involution
    act = np.zeros((A.rep_dim, A.rep_dim, d, d), dtype=complex)
    act_r = np.zeros_like(act)
    for t, (j, i, jj) in enumerate(A.unit_triples()):
        a = inc.embed(A.unit(j, i, jj)).embed()
        sl = A.block_slice(j)
        left = np.einsum("ij,qjk->qik", a, units)
        right = np.einsum("qij,jk->qik", units, a)
        act[sl.start + i, sl.start + jj] = np.einsum("pji,qji->pq", units.conj(), left)
        act_r[sl.start + i, sl.start + jj] = np.einsum("pji,qji->pq", units.conj(), right)
    Z_direct = HilbertBimodule(A, A, d, GD, act, act_r, LD)
    assert validate(Z_direct).passed
    # multiplication map on the product basis of Y (x) X, pushed to Z coords
    lift = lift_matrix(Z)
    Wfull = np.zeros((d, d * d), dtype=complex)
    for p in range(d):
        for q in range(d):
            prod = units[p].conj().T @ units[q]
            Wfull[:, p * d + q] = np.einsum("rji,ji->r", units.conj(), prod)
    W = Wfull @ lift
    assert bimodule_map_residual(W, Z, Z_direct) < 1e-9


def test_inclusion_validation():
    with pytest.raises(StructureError):
        Inclusion(MultiMatrixAlgebra([2]), MultiMatrixAlgebra([3]), [[1]])
    with pytest.raises(StructureError):
        Inclusion(MultiMatrixAlgebra([1, 1]), MultiMatrixAlgebra([2]), [[1, 0]])
    with pytest.raises(ContractError):
        trace_weighted_expectation(
            Inclusion(MultiMatrixAlgebra([1, 1]), MultiMatrixAlgebra([2]), [[1, 1]]),
            [[0.5, 1.0]])


def test_expectation_faithfulness_check():
    # zero weight would make E non-faithful and is rejected upstream
    E = diag_expectation_m2()
    assert E.check()["faithful"]


def _oracle_specs():
    """The corpus expectations, the benchmark's weighted two-block one, and
    an inclusion with two A-blocks copied into blocks of B of size 3 and 2."""
    weighted = trace_weighted_expectation(
        Inclusion(MultiMatrixAlgebra([2]), MultiMatrixAlgebra([2, 2]), [[1], [1]]),
        [[0.3], [0.7]])
    mixed = trace_weighted_expectation(
        Inclusion(MultiMatrixAlgebra([1, 1]), MultiMatrixAlgebra([3, 2]), [[2, 1], [1, 1]]),
        [[0.2, 0.5], [0.6, 0.5]])
    return [("expectation_M2", diag_expectation_m2()),
            ("expectation_2block", two_block_expectation()),
            ("weighted_2block", weighted), ("mixed_3_2", mixed)]


_SPECS = [pytest.param(spec, id=name) for name, spec in _oracle_specs()]


@pytest.mark.parametrize("spec", _SPECS)
def test_stacked_expectation_check_matches_per_element_oracle(spec):
    got, ref = spec._check(), per_element_check(spec)
    assert (got["passed"], got["faithful"]) == (ref["passed"], ref["faithful"]) == (True, True)
    for field in ("unital", "idempotent", "bimodule"):
        assert abs(got[field] - ref[field]) <= 1e-12, field


def test_a_map_that_is_no_bimodule_map_fails_the_check_on_both_routes():
    # E = the diagonal of M_2 onto C + C, plus c (b_01 + b_10) (1 (+) -1), c = 1/4:
    # unital, the identity on A and faithful, but E(e_00 e_01) = c (1 (+) -1)
    # and e_00 E(e_01) = c (1 (+) 0) are c apart
    spec = diag_expectation_m2()
    images = [img.copy() for img in spec.images]
    images[0][0, 1] = images[0][1, 0] = 0.25 * np.diag([1.0, -1.0])
    bad = constructors.ExpectationSpec(spec.inclusion, images)
    got, ref = bad._check(), per_element_check(bad)
    assert (got["unital"], got["idempotent"], got["faithful"]) == (0.0, 0.0, True)
    assert not got["passed"] and not ref["passed"]
    assert got["bimodule"] == pytest.approx(0.25, rel=1e-12)
    assert abs(got["bimodule"] - ref["bimodule"]) <= 1e-12


@pytest.mark.parametrize("spec", _SPECS)
def test_stacked_apply_and_iota_match_the_per_element_routes(spec):
    rng = np.random.default_rng(4)
    for _ in range(5):
        b, a = random_element(spec.B, rng), random_element(spec.A, rng)
        assert np.abs(spec.apply(b).embed() - per_element_apply(spec, b).embed()).max() <= 1e-14
        assert np.array_equal(spec.inclusion.embed(a).embed(),
                              per_element_iota(spec.inclusion, a).embed())
    # unit inputs: the images and the module's tensors are bitwise those of
    # the per-element routes
    A, B = spec.A, spec.B
    X, I = _expectation_module(spec), identity_bimodule(B)
    units = [B.from_embedded(u) for u in B.units_embedded()]
    gram = np.array([[per_element_apply(spec, u.adjoint() * v).embed() for v in units]
                     for u in units])
    assert np.array_equal(X.right_gram, gram)
    for (j, i, ii) in A.unit_triples():
        p, q = A.block_slice(j).start + i, A.block_slice(j).start + ii
        ref = I.psi(per_element_iota(spec.inclusion, A.unit(j, i, ii)))
        assert np.array_equal(X.right_action[p, q], ref)
    for k, img in enumerate(iota_e(spec).unit_images):
        n = B.blocks[k]
        ref = [[per_element_iota(spec.inclusion, per_element_apply(spec, B.unit(k, r, t))).embed()
                for t in range(n)] for r in range(n)]
        assert np.array_equal(img, np.array(ref))


# -- weighted graphs ---------------------------------------------------------------


def test_graph_four_cycle():
    rep = from_weight_graph(four_cycle_graph())
    assert rep.c1 == 1.0 and rep.c2 == 1.0
    assert np.all(rep.r_ind_closed == 1.0)
    assert np.all(rep.l_ind_closed == 1.0)
    assert rep.right_frame_residual < 1e-12
    assert rep.left_frame_residual < 1e-12
    assert validate(rep.bimodule).passed


def test_graph_bidirected_cycle():
    rep = from_weight_graph(bidirected_cycle_graph())
    assert rep.c1 == pytest.approx(1.0)
    assert rep.c2 == pytest.approx(4.0)
    idx = right_index(rep.bimodule)
    r_eng = np.array([b[0, 0].real for b in idx.r_ind.blocks])
    l_eng = np.array([b[0, 0].real for b in idx.l_ind.blocks])
    assert np.abs(r_eng - 1.0).max() < 1e-10
    assert np.abs(l_eng - 4.0).max() < 1e-10


def test_graph_star():
    m = 5
    rep = from_weight_graph(star_graph(m))
    # hub: out-weights m * (1/m) = 1; leaves: single out-edge of weight 1
    assert rep.c1 == pytest.approx(1.0)
    # into hub: m edges of weight 1; into leaves: one edge of weight 1/m
    assert rep.c2 == pytest.approx(max(m, m))
    idx = right_index(rep.bimodule)
    r_eng = np.array([b[0, 0].real for b in idx.r_ind.blocks])
    assert np.abs(r_eng - rep.r_ind_closed).max() < 1e-10


def test_graph_closed_forms_match_engine():
    for seed in range(8):
        g = random_graph(seed, max_vertices=7, extra_edges=5)
        rep = from_weight_graph(g)
        idx = right_index(rep.bimodule)
        r_eng = np.array([b[0, 0].real for b in idx.r_ind.blocks])
        l_eng = np.array([b[0, 0].real for b in idx.l_ind.blocks])
        assert np.abs(r_eng - rep.r_ind_closed).max() <= 1e-10
        assert np.abs(l_eng - rep.l_ind_closed).max() <= 1e-10


def test_graph_constant_band():
    # both norm-equivalence constants live in [1/c2, c1]
    for seed in (3, 4):
        g = random_graph(seed, max_vertices=6, extra_edges=4)
        rep = from_weight_graph(g)
        bc = best_constants(rep.bimodule)
        assert bc.lambda_prime_hat >= 1.0 / rep.c2 - 1e-7
        assert bc.lambda_hat <= rep.c1 + 1e-7


def test_graph_rejects_bad_specs():
    with pytest.raises(StructureError):
        GraphSpec(["a", "b"], [("a", "b", -1.0), ("b", "a", 1.0)])
    with pytest.raises(StructureError):
        GraphSpec(["a", "b"], [("a", "b", 1.0)])            # b has no out-edge
    with pytest.raises(StructureError):
        GraphSpec(["a"], [("a", "z", 1.0)])                 # unknown vertex
    with pytest.raises(StructureError):
        GraphSpec(["a", "b"], [("a", "b", 1.0), ("a", "b", 2.0), ("b", "a", 1.0)])


def test_column_bimodule_morita_data():
    X = column_bimodule(4)
    rep = right_index(X)
    assert (rep.r_ind - X.A.identity()).norm() < 1e-10
    assert (rep.l_ind - X.B.identity()).norm() < 1e-10


# -- the builders write their stacks at the matrix units ----------------------------


def _graph_of(V: int) -> GraphSpec:
    """V vertices, 3V edges: v -> v + 1, v + 2, v + 3 (mod V), weights 2, 3, 4."""
    vs = [f"v{i}" for i in range(V)]
    return GraphSpec(vs, [(vs[i], vs[(i + k) % V], 1.0 + k) for i in range(V) for k in (1, 2, 3)])


def _stacks(X) -> list:
    return [X.right_stack, X.phis, X.psis, X.left_stack]


def _dense_hilbert():
    T = np.array([[2.0, 0.5j, 0.0], [-0.5j, 1.0, 0.25], [0.0, 0.25, 3.0]])
    I, C = np.eye(3), MultiMatrixAlgebra([1])
    return (lambda: _stacks(from_hilbert_space(3, T)),
            lambda: _stacks(HilbertBimodule(C, C, 3, I[:, :, None, None], I[None, None],
                                            I[None, None], T.T[:, :, None, None])))


def _dense_column():
    # _A(e_p|e_q)[a, b] = phi(e_ab)[p, q] = delta_pa delta_qb
    n, I = 4, np.eye(4)
    E = np.einsum("pa,qb->pqab", I, I)
    return (lambda: _stacks(column_bimodule(n)),
            lambda: _stacks(HilbertBimodule(MultiMatrixAlgebra([n]), MultiMatrixAlgebra([1]), n,
                                            I[:, :, None, None], E, I[None, None], E)))


def _dense_identity(blocks):
    # (u_p|u_q) = u_p* u_q, _A(u_p|u_q) = u_p u_q*, and the coordinates of
    # e_ab u_q and u_q e_ab on the orthonormal units u_p
    alg = MultiMatrixAlgebra(blocks)

    def dense():
        u = alg.units_embedded()
        return _stacks(HilbertBimodule(
            alg, alg, alg.linear_dim, np.einsum("pba,qbc->pqac", u.conj(), u),
            np.einsum("pai,qbi->abpq", u.conj(), u), np.einsum("pjb,qja->abpq", u.conj(), u),
            np.einsum("pab,qcb->pqac", u, u.conj())))
    return lambda: _stacks(identity_bimodule(alg)), dense


def _dense_graph():
    # edge e pairs at its range on the right and at its source on the left,
    # with weight w_e there, and e_v fixes the edges from (phi) or into (psi) v
    g = _graph_of(6)
    src, dst = (np.eye(6)[[int(e[i][1:]) for e in g.edges]] for i in (0, 1))
    w, I, A = np.array([e[2] for e in g.edges]), np.eye(len(g.edges)), MultiMatrixAlgebra([1] * 6)
    return (lambda: _stacks(constructors._graph_bimodule(g)[0]),
            lambda: _stacks(HilbertBimodule(
                A, A, len(g.edges), np.einsum("pq,pa,pb->pqab", I, dst, dst),
                np.einsum("pq,pa,pb->abpq", I, src, src), np.einsum("pq,pa,pb->abpq", I, dst, dst),
                np.einsum("pq,pa,pb,p->pqab", I, src, src, w))))


def _dense_expectation():
    # E(e^k_xy) = sum_u w_kj(u) iota(e_u)[x, y] e_u, j(u) the block of A of u
    weights = np.array([[0.2, 0.5], [0.4, 0.5]])
    inc = Inclusion(MultiMatrixAlgebra([1, 2]), MultiMatrixAlgebra([3, 4]), [[1, 1], [2, 1]])
    units = inc.A.units_embedded()
    iota, owner = inc.embed_stack(units), np.repeat([0, 1], [1, 4])

    def built():
        spec = trace_weighted_expectation(inc, weights)
        _expectation_module(spec)
        return spec.images
    return built, lambda: [np.einsum("u,uxy,uab->xyab", weights[k, owner], iota[:, s, s], units)
                           for k, s in enumerate(map(inc.B.block_slice, (0, 1)))]


@pytest.mark.parametrize("case", [
    pytest.param(_dense_hilbert, id="hilbert"),
    pytest.param(_dense_column, id="column"),
    pytest.param(lambda: _dense_identity([3, 2, 1]), id="identity-3-2-1"),
    pytest.param(lambda: _dense_identity([4, 1, 2]), id="identity-4-1-2"),
    pytest.param(_dense_graph, id="graph"),
    pytest.param(_dense_expectation, id="expectation"),
])
def test_builders_write_the_dense_definition_at_the_units(case, monkeypatch):
    # built with the dense constructor's slicing switched off, each stack is
    # bitwise (signed zeros too) the one the dense tensors of its definition give
    from bimod import bimodule

    def refuse(*args):
        raise AssertionError("a builder handed dense tensors to the constructor")
    build, dense = case()
    monkeypatch.setattr(bimodule, "_gram_units", refuse)
    monkeypatch.setattr(bimodule, "_action_units", refuse)
    got = build()
    monkeypatch.undo()
    ref = dense()
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(b, dtype=complex)
        assert a.shape == b.shape and a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes()


def test_graph_bimodule_peaks_at_the_size_of_its_stacks():
    # 40 vertices, 120 edges: four (E, E, V, V) dense tensors would take 1.4 GB,
    # the four (V, E, E) stacks take 4 V E^2 complex numbers
    import tracemalloc
    g = _graph_of(40)
    tracemalloc.start()
    try:
        X = constructors._graph_bimodule(g)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stacks = sum(s.nbytes for s in _stacks(X))
    assert stacks == 4 * 40 * 120 ** 2 * 16
    assert peak < 2 * stacks, (peak, stacks)
