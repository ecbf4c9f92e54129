import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimod import (
    HilbertBimodule,
    MultiMatrixAlgebra,
    basic_construction,
    best_constants,
    column_bimodule,
    contragredient,
    cp_characterization,
    decompose_star_algebra,
    expectation_cp_gap,
    extend_left_inner,
    fiber_decomposition,
    from_expectation,
    from_hilbert_space,
    index_element,
    invertibility_trichotomy,
    minimal_cp_multiplier,
    module_operator_algebra,
    relative_commutant,
    right_index,
    tensor,
    tight_frame,
)
from bimod import bimodule, conjugation, constructors, index
from bimod.cli import CommandRequest, run
from bimod.index import (
    BASIC_SAMPLES,
    BasicConstruction,
    _basic_samples,
    _largest_ratio,
    commutant_of,
)
from bimod.multimatrix import StructureError, support_projection
from bimod.serde import encode_bimodule

from helpers import (
    _RANDOM_SHAPES,
    _operator_cp_map,
    assert_least_multipliers_factorize_once,
    assert_matches_composite,
    averaging_relative_commutant,
    choi_spectrum,
    corpus,
    dense_basic_cp_map,
    dense_extension_cp_map,
    degenerate_action_bimodule,
    delta_cp_characterization,
    descent_best_constants,
    diag_expectation_m2,
    frame_extension,
    frame_multiplier_cp_map,
    frame_right_index,
    kron_commutant,
    l_ind_coefficients,
    loop_basic_checks,
    lstsq_left_adjoint_residual,
    phi_frame,
    phi_frame_map,
    random_bimodule,
    random_bimodule_family,
    random_compact,
    random_element,
    random_posdef,
    random_positive_operator,
    rank_fiber_dimensions,
    relative_commutant_of_right_action,
    sequential_best_constants,
    sequential_largest_ratio,
    small_shapes,
    span_distance,
    well_conditioned,
    zero_block_bimodule,
    zero_row_bimodule,
)


# -- the extension map -----------------------------------------------------------


def test_extension_on_rank_ones():
    rng = np.random.default_rng(0)
    for X in random_bimodule_family(4, seed=11):
        F = extend_left_inner(X)
        for _ in range(12):
            x = rng.standard_normal(X.dim) + 1j * rng.standard_normal(X.dim)
            y = rng.standard_normal(X.dim) + 1j * rng.standard_normal(X.dim)
            lhs = F.apply(X.rank_one(x, y))
            rhs = X.left_inner(x, y)
            assert (lhs - rhs).norm() <= 1e-9 * (1 + rhs.norm())


def test_extension_identity_map_on_imprimitivity():
    # when _A(x|y) realizes the rank-one operator, F is the identity on K(X_B)
    X = column_bimodule(3)
    F = extend_left_inner(X)
    rng = np.random.default_rng(1)
    for _ in range(10):
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.abs(F.apply(T).blocks[0] - T).max() < 1e-10


def test_extension_trace_formula():
    T = np.diag([1.0, 2.0, 3.0])
    X = from_hilbert_space(3, T)
    F = extend_left_inner(X)
    rng = np.random.default_rng(2)
    for _ in range(10):
        S = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert F.apply(S).blocks[0][0, 0] == pytest.approx(np.trace(T @ S), rel=1e-12)


def test_extension_bilinear_and_frame_independent():
    rng = np.random.default_rng(3)
    for X in random_bimodule_family(3, seed=19):
        F = extend_left_inner(X)
        a = random_element(X.A, rng)
        T = random_compact(X, rng)        # frame independence needs T in K(X_B)
        lhs = F.apply(X.phi(a) @ T)
        rhs = a * F.apply(T)
        assert (lhs - rhs).norm() < 1e-9 * (1 + rhs.norm())
        lhs2 = F.apply(T @ X.phi(a))
        rhs2 = F.apply(T) * a
        assert (lhs2 - rhs2).norm() < 1e-9 * (1 + rhs2.norm())
        # the frame sum over a second frame, from a gauged spanning set
        W = well_conditioned(X.dim, rng)
        alt = X.A.from_embedded(frame_extension(X, tight_frame(X, spanning=W))(T))
        assert (F.apply(T) - alt).norm() <= 1e-8 * (1 + F.apply(T).norm())


def test_extension_is_completely_positive():
    for name, X in corpus()[:8]:
        cp = extend_left_inner(X).as_cp_map()
        ok, mn = cp.is_completely_positive()
        assert ok, f"{name}: choi min {mn}"
        assert cp.is_hermitian_preserving()


def test_extension_central_multiplier():
    # F(phi(b)) = r-ind * b for central b
    for name, X in corpus()[:6]:
        F = extend_left_inner(X)
        r_ind = F.index_element()
        for z in range(X.A.num_blocks):
            b = X.A.zero()
            b.blocks[z] = np.eye(X.A.blocks[z])
            lhs = F.apply(X.phi(b))
            rhs = r_ind * b
            assert (lhs - rhs).norm() < 1e-9 * (1 + rhs.norm()), name


def test_pimsner_popa_lower_bound():
    rng = np.random.default_rng(4)
    for X in random_bimodule_family(3, seed=29):
        lam_p = best_constants(X).lambda_prime_hat
        F = extend_left_inner(X)
        for _ in range(34):
            T = random_positive_operator(X, rng)
            resid = X.op_rep(X.phi(F.apply(T))) - lam_p * X.op_rep(T)
            mn = float(np.linalg.eigvalsh(0.5 * (resid + resid.conj().T)).min())
            assert mn >= -1e-8 * (1 + X.op_norm(T))


# -- index elements ---------------------------------------------------------------


def test_right_index_identity_weight():
    X = from_hilbert_space(3, np.eye(3))
    rep = right_index(X)
    assert rep.r_num == pytest.approx(3.0, abs=1e-12)
    assert rep.l_num == pytest.approx(3.0, abs=1e-12)


def test_right_index_trace_oracle():
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(2, 7))
        T = random_posdef(n, rng)
        X = from_hilbert_space(n, T)
        rep = right_index(X)
        tr = float(np.trace(T).real)
        tri = float(np.trace(np.linalg.inv(T)).real)
        assert rep.r_num == pytest.approx(tr, rel=1e-9)
        assert rep.l_num == pytest.approx(tri, rel=1e-9)


def test_right_index_centrality_and_frame_independence():
    rng = np.random.default_rng(6)
    for name, X in corpus():
        rep = right_index(X)
        r_mat = rep.r_ind.embed()
        for _ in range(20):
            a = random_element(X.A, rng)
            ae = a.embed()
            assert np.abs(r_mat @ ae - ae @ r_mat).max() <= 1e-9 * (1 + a.norm()) * (1 + rep.r_num), name
        for trial in range(2):
            W = well_conditioned(X.dim, rng)
            F = frame_extension(X, tight_frame(X, spanning=W))
            alt = X.A.from_embedded(F(np.eye(X.dim)))
            assert (alt - rep.r_ind).norm() <= 1e-8 * (1 + rep.r_num), name


def test_imprimitivity_index_elements_are_identities():
    X = column_bimodule(4)
    rep = right_index(X)
    assert (rep.r_ind - X.A.identity()).norm() < 1e-10
    assert (rep.l_ind - X.B.identity()).norm() < 1e-10


def test_index_norm_consistency():
    for name, X in corpus():
        rep = right_index(X)
        assert rep.r_num == pytest.approx(rep.r_ind.norm(), rel=1e-12)
        assert rep.r_num * rep.l_num >= 1.0 - 1e-9, name


def test_support_projection_bounds():
    for name, X in corpus()[:8]:
        rep = right_index(X)
        p = support_projection(rep.r_ind)
        assert (p * p - p).norm() < 1e-10
        assert (rep.r_ind * p - rep.r_ind).norm() < 1e-9 * (1 + rep.r_num)


# -- best constants ----------------------------------------------------------------


def test_best_constants_equal_grams():
    X = column_bimodule(2)     # _A(x|x) and (x|x)_B have equal norms
    bc = best_constants(X)
    assert bc.lambda_hat == pytest.approx(1.0, abs=1e-12)
    assert bc.lambda_prime_hat == pytest.approx(1.0, abs=1e-12)
    assert bc.exact


def test_best_constants_rayleigh_oracle():
    T = np.diag([1.0, 2.0])
    X = from_hilbert_space(2, T)
    bc = best_constants(X)
    # the brackets hold the true constants and close on them
    assert bc.lambda_prime_lower <= 1.0 + 1e-12 and bc.lambda_prime_hat >= 1.0 - 1e-12
    assert bc.lambda_hat <= 2.0 + 1e-12 and bc.lambda_upper >= 2.0 - 1e-12
    assert bc.lambda_prime_hat - bc.lambda_prime_lower <= 1e-12
    assert bc.lambda_upper - bc.lambda_hat <= 2e-12
    assert bc.exact


def test_best_constants_cp_gap_consistency():
    # contragredient of the expectation bimodule: lambda' is the CP gap
    spec = diag_expectation_m2()
    X, Y, _ = from_expectation(spec)
    gap = expectation_cp_gap(spec)
    bc = best_constants(Y)
    assert abs(bc.lambda_prime_hat - gap) <= 1e-10 * gap
    assert bc.exact


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_best_constants_weighted_hilbert_space_closed_form(n):
    # C^n with _C(x|x) = (x|Tx): lambda and lambda' are the extreme eigenvalues of T
    T = random_posdef(n, np.random.default_rng(100 + n))
    eigs = np.linalg.eigvalsh(T)
    bc = best_constants(from_hilbert_space(n, T))
    assert abs(bc.lambda_hat - eigs.max()) <= 1e-12 * eigs.max()
    assert abs(bc.lambda_prime_hat - eigs.min()) <= 1e-12 * eigs.min()
    assert bc.exact


# the module shapes of the benchmark's commutant ladder, d = 13 and d = 18
_LADDER_SHAPES = [([2, 1], [2, 1], [[1, 1], [2, 3]]),
                  ([2, 1], [2, 1], [[2, 2], [2, 2]])]
# and of its round-trip workload, d = 13, 18 and 24
_ROUNDTRIP_SHAPES = [([2, 1, 1], [2, 1, 1], [[1, 1, 0], [1, 1, 1], [0, 1, 2]]),
                     ([2, 1, 1], [2, 1, 1], [[2, 1, 0], [1, 1, 1], [0, 2, 2]]),
                     ([2, 1, 1], [2, 1, 1], [[2, 1, 1], [2, 1, 1], [1, 2, 2]])]
_D45_SHAPE = ([3, 2, 1], [3, 2, 1], [[2, 1, 1], [1, 1, 1], [1, 1, 1]])
_D80_SHAPE = ([3, 2, 1], [3, 2, 1], [[4, 2, 1], [2, 2, 1], [1, 1, 2]])


def _shape_modules():
    out = []
    for tag, shapes in (("ladder", _LADDER_SHAPES), ("roundtrip", _ROUNDTRIP_SHAPES)):
        for shape in shapes:
            for seed in (0, 141):
                X = random_bimodule(*shape, seed=seed)
                out.append((f"{tag}_d{X.dim}_s{seed}", X))
    return out


def _shape_cases():
    return [pytest.param(X, id=name) for name, X in _shape_modules()]


def _family_cases():
    return [pytest.param(X, id=f"family{i}")
            for i, X in enumerate(random_bimodule_family(20, seed=5))]


def _constant_cases():
    X45 = random_bimodule(*_D45_SHAPE, seed=1)
    return ([pytest.param(X, id=name) for name, X in corpus()] + _shape_cases()
            + [pytest.param(X45, id="d45")] + _family_cases()
            + [pytest.param(zero_block_bimodule(), id="zero_block"),
               pytest.param(zero_row_bimodule(), id="zero_row"),
               pytest.param(random_bimodule(*_D80_SHAPE, seed=1), id="d80"),
               pytest.param(column_bimodule(20), id="col20"),
               pytest.param(tensor(X45, contragredient(X45)), id="p153")])


@pytest.mark.parametrize("X", _constant_cases())
def test_best_constants_bracket_and_attaining_vector(X):
    bc = best_constants(X)
    assert bc.lambda_hat <= bc.lambda_upper * (1 + 1e-12)
    assert bc.lambda_prime_lower <= bc.lambda_prime_hat * (1 + 1e-12)
    assert bc.lambda_prime_hat <= bc.lambda_hat * (1 + 1e-12)
    assert bc.exact
    # the attaining vectors, evaluated through the two vector norms of X
    for Y, conj, expected in ((X, False, bc.lambda_hat),
                              (contragredient(X), True, bc.lambda_prime_hat)):
        x = _largest_ratio(Y)[2]
        x = x.conj() if conj else x
        ratio = (X.left_vector_norm(x) / X.vector_norm(x)) ** 2
        assert abs(ratio - expected) <= 1e-10 * expected


def test_best_constants_reach_the_maximum_the_ascent_missed(tmp_path):
    # from seed 0 the two-step ascent stopped at 1.8980 on this module (d = 4);
    # 200 Nelder-Mead starts and seeds 3 and 4 of the ascent reach 2.32997
    X = list(random_bimodule_family(20, seed=5))[11]
    assert best_constants(X).lambda_hat == pytest.approx(2.32996622274, abs=1e-10)
    path = tmp_path / "family11.json"
    path.write_text(json.dumps(encode_bimodule(X)))
    status, report = run(CommandRequest(command="index", inputs=[str(path)]))
    assert status == 0 and report["results"]["constants_exact"] is True
    assert report["results"]["lambda_hat"] == pytest.approx(2.32996622274, abs=1e-10)


@pytest.mark.parametrize("X", _shape_cases())
def test_best_constants_default_starts_do_not_stall(X):
    # one start of the ascent can stop at a fixed point of its two steps below
    # the maximum (conj(X) of the round-trip d = 13 module stops at 3.0954
    # against 3.1748); the closed form must reach what 200 starts reach
    for Y in (X, contragredient(X)):
        closed = _largest_ratio(Y)[0]
        many = sequential_largest_ratio(Y, 0, starts=200)[0]
        assert abs(closed - many) <= 1e-10 * many


@pytest.mark.parametrize("X", [pytest.param(X, id=name) for name, X in corpus()]
                         + _shape_cases()[::3] + _family_cases()[::4])
def test_corner_ky_fan_sum_is_the_same_at_every_row_of_a_block(X):
    # F(phi(u)^* T phi(u)) = u^* F(T) u makes the largest xi^* F(P) xi the
    # same for every unit xi in block k: the Ky Fan sum of the corners at
    # each row s of block k must not depend on s
    for Y in (X, contragredient(X)):
        imgs = index._extension_cp_map(Y).unit_images
        ranks = [min(w.shape[1], Y.B.blocks[l]) for l, w in bimodule._w_frames(Y)]
        for k in range(Y.A.num_blocks):
            rows = range(Y.A.block_slice(k).start, Y.A.block_slice(k).stop)
            sums = [sum(np.linalg.eigvalsh(img[:, :, s, s].T)[-r:].sum()
                        for img, r in zip(imgs, ranks)) for s in rows]
            assert np.ptp(sums) <= 1e-12 * (1 + max(sums)), (k, sums)


@pytest.mark.parametrize("X", [pytest.param(X, id=name) for name, X in corpus()]
                         + _shape_cases() + _family_cases())
def test_sequential_ascent_never_beats_the_closed_form(X):
    # every value the seeded ascent reaches is attained, so it bounds lambda
    # from below and lambda' from above
    bc = best_constants(X)
    for seed in range(5):
        lam, lam_prime = sequential_best_constants(X, seed=seed)
        assert lam <= bc.lambda_hat * (1 + 1e-12)
        assert lam_prime >= bc.lambda_prime_hat * (1 - 1e-12)


@pytest.mark.parametrize("X", [pytest.param(X, id=name) for name, X in corpus()]
                         + _shape_cases()[::4])
def test_descent_oracle_never_beats_the_ascent(X):
    lam, lam_prime = descent_best_constants(X, seed=0, samples=4000)
    bc = best_constants(X)
    assert lam <= bc.lambda_hat * (1 + 1e-12)
    assert lam_prime >= bc.lambda_prime_hat * (1 - 1e-12)


def _oracle_modules():
    """The 12 corpus modules, ladder d = 13 and 18, round-trip d = 18 and 24."""
    shaped = [random_bimodule(*shape, seed=0)
              for shape in _LADDER_SHAPES + _ROUNDTRIP_SHAPES[1:]]
    return corpus() + [(f"d{X.dim}_{'ladder' if i < 2 else 'roundtrip'}", X)
                       for i, X in enumerate(shaped)]


_ORACLE_MODULES = _oracle_modules()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("X", [pytest.param(X, id=name) for name, X in _ORACLE_MODULES])
def test_lockstep_ascent_matches_sequential_oracle(X, seed):
    # the closed form that replaced the lockstep ascent must match the
    # sequential ascent from 200 starts at this seed; its 5 default starts can
    # stop lower (d18_ladder at seed 1, by 21 %) but never above
    got = best_constants(X)
    assert got.exact
    for Y, closed, flip in ((X, got.lambda_hat, False),
                            (contragredient(X), got.lambda_prime_hat, True)):
        ref = sequential_largest_ratio(Y, seed, starts=200)[0]
        ref = 1.0 / ref if flip else ref
        assert abs(closed - ref) <= 1e-14 * ref
    lam, lam_prime = sequential_best_constants(X, seed=seed)
    assert lam <= got.lambda_hat * (1 + 1e-14)
    assert lam_prime >= got.lambda_prime_hat * (1 - 1e-14)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("X", [pytest.param(X, id=name) for name, X in _ORACLE_MODULES])
def test_stacked_basic_matches_loop_oracle(X, seed, tmp_path, monkeypatch):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(encode_bimodule(X)))
    request = CommandRequest(command="basic", inputs=[str(path)], seed=seed)
    status, report = run(request)
    monkeypatch.setattr(BasicConstruction, "sampled_checks", loop_basic_checks)
    ref_status, ref_report = run(request)
    assert (status, report["passed"]) == (ref_status, ref_report["passed"]) == (0, True)
    got, ref = report["results"], ref_report["results"]
    assert got["constants_exact"] == ref["constants_exact"]
    assert abs(got["lambda_used"] - ref["lambda_used"]) <= 1e-14 * ref["lambda_used"]
    # the Pimsner-Popa eigenvalue can be large (about 2e3 at d = 24), so each
    # field is compared at the scale of the check plus its own size
    scale = 1 + basic_construction(X).F.index_element().norm()
    for field in ("idempotency_residual", "conditional_residual", "pp_inequality_min_eig"):
        assert abs(got[field] - ref[field]) <= 1e-12 * (scale + abs(ref[field])), field
    # the two linear identities, read on the matrix units, hold to round-off
    assert max(got["idempotency_residual"], got["conditional_residual"]) <= 1e-14


@pytest.mark.parametrize("seed", [0, 3])
def test_stacked_sampler_draws_what_the_loop_draws(seed):
    X = _ORACLE_MODULES[-3][1]                  # ladder d = 18
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    T = _basic_samples(X, rng, BASIC_SAMPLES)
    assert T.shape == (BASIC_SAMPLES, X.dim, X.dim)
    for t in T:
        x = ref_rng.standard_normal(X.dim) + 1j * ref_rng.standard_normal(X.dim)
        ref_T = X.rank_one(x, x)
        assert np.abs(t - ref_T).max() <= 1e-12 * np.abs(ref_T).max()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_basic_unit_residuals_do_not_depend_on_the_seed(tmp_path):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(encode_bimodule(dict(_ORACLE_MODULES)["d18_ladder"])))
    reports = [run(CommandRequest(command="basic", inputs=[str(path)], seed=seed))[1]["results"]
               for seed in (0, 7)]
    for field in ("idempotency_residual", "conditional_residual"):
        assert reports[0][field] == reports[1][field], field


@pytest.mark.parametrize("name", ["hilbert_random3", "expectation_2block", "random_112",
                                  "d18_ladder"])
def test_halved_lambda_fails_pimsner_popa_on_both_routes(name):
    X = dict(_ORACLE_MODULES)[name]
    bco = basic_construction(X)
    lam = 0.5 / best_constants(X).lambda_prime_hat
    scale = 1 + bco.F.index_element().norm()
    for route in (bco.sampled_checks, lambda *args: loop_basic_checks(bco, *args)):
        checks = route(lam, np.random.default_rng(0))
        assert checks["pp_inequality_min_eig"] < -1e-8 * scale


# -- index element operator -----------------------------------------------------------


def test_index_element_examples():
    X = column_bimodule(3)
    op = index_element(X)
    assert np.abs(op.matrix - np.eye(3)).max() < 1e-10

    T = np.diag([1.0, 2.0])
    X2 = from_hilbert_space(2, T)
    op2 = index_element(X2)
    expect = np.trace(T) * np.trace(np.linalg.inv(T))
    assert np.abs(op2.matrix - expect * np.eye(2)).max() < 1e-10

    spec = diag_expectation_m2()
    Xe, _, _ = from_expectation(spec)
    ope = index_element(Xe)
    rep = right_index(Xe)
    expect_mat = Xe.psi(rep.l_ind) @ Xe.phi(rep.r_ind)
    assert np.abs(ope.matrix - expect_mat).max() < 1e-8
    ok, _ = Xe.op_is_positive(ope.matrix)
    assert ok
    for c in relative_commutant(Xe):
        assert np.abs(ope.matrix @ c - c @ ope.matrix).max() < 1e-8


# -- basic construction ----------------------------------------------------------------


def test_basic_construction_identity_case():
    X = column_bimodule(3)
    bco = basic_construction(X)
    rng = np.random.default_rng(7)
    for _ in range(10):
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.abs(bco.phi_expectation(T) - T).max() < 1e-10


def test_basic_construction_normalized_trace():
    n = 3
    X = from_hilbert_space(n, np.eye(n))
    bco = basic_construction(X)
    rng = np.random.default_rng(8)
    for _ in range(10):
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.abs(bco.phi_expectation(S) - np.trace(S) / n * np.eye(n)).max() < 1e-10


def test_basic_construction_dual_expectation_formula():
    # on the expectation bimodule, E(theta_{x,y}) = Ind[E]^{-1} x y*
    spec = diag_expectation_m2()
    X, _, _ = from_expectation(spec)
    bco = basic_construction(X)
    rep = right_index(X)
    ind_inv = np.linalg.inv(rep.r_ind.embed())
    rng = np.random.default_rng(9)
    units = X.A.units_embedded()     # coordinates of X = B index the units of B
    for _ in range(10):
        x = rng.standard_normal(X.dim) + 1j * rng.standard_normal(X.dim)
        y = rng.standard_normal(X.dim) + 1j * rng.standard_normal(X.dim)
        xm = np.einsum("p,pij->ij", x, units)
        ym = np.einsum("p,pij->ij", y, units)
        lhs = bco.expectation(X.rank_one(x, y)).embed()
        rhs = ind_inv @ xm @ ym.conj().T
        assert np.abs(lhs - rhs).max() < 1e-8


def test_basic_construction_properties():
    rng = np.random.default_rng(10)
    for name, X in corpus()[:8]:
        bco = basic_construction(X)
        lam = 1.0 / best_constants(X).lambda_prime_hat
        scale = 1 + bco.F.index_element().norm()
        for _ in range(10):
            T = random_positive_operator(X, rng)
            e1 = bco.phi_expectation(T)
            assert X.op_norm(bco.phi_expectation(e1) - e1) <= 1e-9 * scale * (1 + X.op_norm(T))
            resid = lam * X.op_rep(X.phi(bco.F.apply(T))) - X.op_rep(T)
            assert np.linalg.eigvalsh(0.5 * (resid + resid.conj().T)).min() >= \
                -1e-8 * (1 + X.op_norm(T))
            a = random_element(X.A, rng)
            lhs = bco.phi_expectation(X.phi(a))
            rhs = X.phi(bco.p * a)
            assert X.op_norm(lhs - rhs) <= 1e-9 * (1 + a.norm()) * scale, name
        ok, mn = bco.as_cp_map().is_completely_positive()
        assert ok, f"{name}: choi min {mn}"


# -- fibers ---------------------------------------------------------------------------


def test_fibers_equality_case():
    X = from_hilbert_space(3, np.eye(3))
    rep = fiber_decomposition(X)
    assert len(rep.fibers) == 1
    assert rep.fibers[0].dimension == 9
    assert rep.fibers[0].bound == 9
    assert rep.passed


def test_fibers_imprimitivity():
    X = column_bimodule(3)
    rep = fiber_decomposition(X)
    assert all(f.dimension == 1 for f in rep.fibers)
    assert all(f.bound >= 1 for f in rep.fibers)
    assert rep.passed


@pytest.mark.parametrize("X", [pytest.param(X, id=name) for name, X in corpus()] + [
    pytest.param(random_bimodule(*_LADDER_SHAPES[0], seed=0), id="ladder_d13"),
    pytest.param(zero_block_bimodule(), id="zero_block")])
def test_fibers_graph_matches_direct_commutant(X):
    fib = fiber_decomposition(X)
    assert fib.commutant_dim == len(relative_commutant(X))
    assert [f.dimension for f in fib.fibers] == rank_fiber_dimensions(X)
    assert fib.passed
    assert fib.left_adjoint_residual < 1e-8


def _closure_cases():
    return [pytest.param(X, id=name) for name, X in corpus()] + [
        pytest.param(zero_block_bimodule(), id="zero_block"),
        pytest.param(random_bimodule(*_LADDER_SHAPES[0], seed=0), id="ladder_d13"),
        pytest.param(random_bimodule(*_LADDER_SHAPES[1], seed=0), id="ladder_d18"),
        pytest.param(random_bimodule(*_D45_SHAPE, seed=1), id="d45")]


@pytest.mark.parametrize("X", _closure_cases())
def test_left_adjoint_closure_matches_the_lstsq_oracle(X, monkeypatch):
    # the distance of H from the relative commutant C (T = g^-1 g_l against
    # the generators of both actions) and the least-squares fit of the left
    # adjoints in C's span
    rep = fiber_decomposition(X)
    assert rep.left_adjoint_residual <= 1e-12 and lstsq_left_adjoint_residual(X) <= 1e-12
    # the left Gram of S x, S = 1 + 1e-3 N, is not A-linear and leaves psi
    # without a left adjoint.  The oracle flags it except on a commutant of
    # the scalars or of all of M_d, which every involution leaves in place;
    # H then lies outside C unless C = M_d, where the actions are scalars
    z = np.random.default_rng(0).standard_normal((2, X.dim, X.dim))
    S = np.eye(X.dim) + 1e-3 * (z[0] + 1j * z[1])
    Y = X.with_left_stack(S.T @ X.left_stack @ S.conj())
    bc = best_constants(X)
    # best_constants raises on such a Y (its attaining vectors disagree);
    # X's constants stand in for it
    monkeypatch.setattr(index, "best_constants", lambda X: bc)
    got, ref = fiber_decomposition(Y).left_adjoint_residual, lstsq_left_adjoint_residual(Y)
    if 1 < rep.commutant_dim < X.dim ** 2:
        assert ref > 1e-4, ref
    else:
        assert ref <= 1e-12, ref
    if rep.commutant_dim < X.dim ** 2:
        assert got > 1e-4, got
    else:
        assert got <= 1e-12, got
    # H in C implies the closure the oracle fits
    assert got > 1e-12 or ref <= 1e-12, (got, ref)


def test_fibers_bound_on_random_modules():
    for X in random_bimodule_family(6, seed=37):
        rep = fiber_decomposition(X)
        assert rep.passed
        assert rep.left_adjoint_residual < 1e-7


@pytest.mark.parametrize("X", [pytest.param(X, id=name) for name, X in corpus()]
                         + _family_cases() + _shape_cases()[:4])
def test_fibers_pass_with_the_exact_lambda_prime(X):
    rep = fiber_decomposition(X)
    assert rep.passed and rep.constants_exact
    assert rep.lambda_prime == pytest.approx(best_constants(X).lambda_prime_hat, rel=1e-12)


# -- index elements from the dual basis of the Gram -----------------------------------


def _with_conjugate(X):
    """The product X (x) conj(X)."""
    return tensor(X, contragredient(X))


def _dual_basis_cases():
    cases = [pytest.param(X, id=name) for name, X in corpus()]
    cases.append(pytest.param(zero_block_bimodule(), id="zero_block"))
    for tag, shapes in (("roundtrip", _ROUNDTRIP_SHAPES), ("ladder", _LADDER_SHAPES)):
        for shape in shapes:
            X = random_bimodule(*shape, seed=1)
            cases.append(pytest.param(X, id=f"{tag}_d{X.dim}"))
    for shape in _ROUNDTRIP_SHAPES[:2]:
        Z = _with_conjugate(random_bimodule(*shape, seed=1))
        cases.append(pytest.param(Z, id=f"product_d{Z.dim}"))
    return cases + [pytest.param(random_bimodule(*_D45_SHAPE, seed=1), id="d45")]


@pytest.mark.parametrize("X", _dual_basis_cases())
def test_index_elements_match_the_frame_route(X):
    got, ref = right_index(X), frame_right_index(X)
    for what, num in (("r_ind", ref.r_num), ("l_ind", ref.l_num)):
        gap = (getattr(got, what) - getattr(ref, what)).norm()
        assert gap <= 1e-12 * num, (what, gap / num)
    assert abs(got.r_num - ref.r_num) <= 1e-12 * ref.r_num
    assert abs(got.l_num - ref.l_num) <= 1e-12 * ref.l_num
    for what in ("r_ind", "l_ind"):
        gap = (support_projection(getattr(got, what)) - support_projection(getattr(ref, what)))
        assert gap.norm() <= 1e-12, what


@pytest.mark.parametrize("shape, product, dim, peak_mb, kept_mb",
                         [(_D80_SHAPE, False, 80, 2, 1), (_D45_SHAPE, True, 153, 6, 3)],
                         ids=["d80", "product_d153"])
def test_right_index_memory(shape, product, dim, peak_mb, kept_mb):
    # the dual basis read off the (d n_l)-square Gram blocks peaked at 4.6 MB
    # at d = 80 and 16.8 MB on the 153-dim product X (x) conj(X) of the d = 45
    # module; the d x d Grams at the e^l_11 peak at 0.8 and 2.9 MB
    import tracemalloc
    X = random_bimodule(*shape, seed=1)
    X = _with_conjugate(X) if product else X
    tracemalloc.start()
    try:
        rep = right_index(X)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.dim == dim and rep.r_num > 0
    assert peak <= peak_mb * 2 ** 20, peak
    assert kept <= kept_mb * 2 ** 20, kept


def test_right_index_solves_no_eigenproblem_beyond_the_module_size(monkeypatch):
    # the dual basis of the (d n_l)-square Gram blocks took an eigh of side
    # 198 on this product; the Grams at the e^l_11 are d x d
    Z = _with_conjugate(random_bimodule(*_ROUNDTRIP_SHAPES[2], seed=1))
    sides = []
    for name in ("eigvalsh", "eigh"):
        def spy(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            sides.append(np.shape(a)[-1])
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    rep = right_index(Z)
    monkeypatch.undo()
    assert Z.dim == 99 and rep.r_num > 0
    assert sides and max(sides) <= Z.dim, sides


def test_basic_construction_builds_no_tight_frame(monkeypatch):
    # F reads its frame off the corners of psi (``_w_frames``): the w-frame's
    # residual, a frame operator on X, is never formed
    X = random_bimodule(*_ROUNDTRIP_SHAPES[0], seed=1)

    def forbidden(*args, **kwargs):
        raise AssertionError("a tight frame or a frame operator was built")

    for module in (index, bimodule):
        for name in ("tight_frame", "frame_operator"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    bco = basic_construction(X)
    checks = bco.sampled_checks(1.0, np.random.default_rng(0))
    ok, _ = bco.as_cp_map().is_completely_positive()
    assert ok and max(checks["idempotency_residual"], checks["conditional_residual"]) <= 1e-8
    # F is held once, as its Choi images: no contraction of a frame is cached
    assert "F" not in X._cache and "F_units" in X._cache, set(X._cache)


def test_right_index_builds_no_frame_and_no_contragredient(monkeypatch):
    X = random_bimodule(*_ROUNDTRIP_SHAPES[0], seed=1)

    def forbidden(*args, **kwargs):
        raise AssertionError("a frame or a contragredient was built")

    for module in (index, bimodule):
        for name in ("tight_frame", "frame_operator", "contragredient"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    rep = right_index(X)
    # nothing is cached: no operator on X, and so no scalar Gram, is built
    assert rep.r_num > 0 and not X._cache, set(X._cache)


@pytest.mark.parametrize("side, fault", [
    pytest.param("right", "rank", id="right"), pytest.param("left", "rank", id="left"),
    pytest.param("right", "trace", id="right_trace_above_d"),
    pytest.param("left", "trace", id="left_trace_above_d")])
def test_right_index_rejects_a_rank_deficient_gram_block(side, fault):
    # built directly, not through validate.  "rank": the Gram at e^1_11 (at
    # embedded position 2) loses its smallest nonzero eigenvalue, so it has
    # rank below tr act(e^1_11).  "trace": act(e^1_11) has trace d + 1, more
    # eigenpairs than the d x d Gram has, which is StructureError, not IndexError
    X = random_bimodule(*_ROUNDTRIP_SHAPES[0], seed=1)
    gram = (X.right_gram if side == "right" else X.left_gram).copy()
    act = (X.right_action if side == "right" else X.left_action).copy()
    if fault == "rank":
        rank = int(round(np.trace(act[2, 2]).real))
        w, v = np.linalg.eigh(gram[:, :, 2, 2])
        gram[:, :, 2, 2] -= w[-rank] * np.outer(v[:, -rank], v[:, -rank].conj())
    else:
        act[2, 2] = (X.dim + 1) / X.dim * np.eye(X.dim)
    Y = (HilbertBimodule(X.A, X.B, X.dim, gram, X.left_action, act, X.left_gram)
         if side == "right" else HilbertBimodule(X.A, X.B, X.dim, X.right_gram, act,
                                                 X.right_action, gram))
    with pytest.raises(StructureError, match="rank below"):
        right_index(Y)


# -- the commutant routine ------------------------------------------------------------

_ZERO_BLOCK = pytest.param(zero_block_bimodule(), id="zero_block")


def _commutant_cases():
    cases = [pytest.param(X, id=name) for name, X in corpus()]
    for tag, shapes, seed in (("ladder", _LADDER_SHAPES, 41),
                              ("roundtrip", _ROUNDTRIP_SHAPES, 51)):
        for i, (a, b, m) in enumerate(shapes):
            X = random_bimodule(a, b, m, seed=seed + i)
            cases.append(pytest.param(X, id=f"{tag}_d{X.dim}"))
    return cases + [_ZERO_BLOCK]


def _hat_actions(X):
    """phi_hat = op_rep.phi and ``index._psi_hat`` as the dense action
    tensors that ``commutant_of`` takes, writable."""
    return [(alg, bimodule._assemble(stack, alg, gram=False).copy())
            for alg, stack in ((X.A, X.op_rep(X.phis)), index._psi_hat(X))]


@pytest.mark.parametrize("X", _commutant_cases())
def test_commutant_spans_match_kronecker_oracle(X):
    comm = relative_commutant(X)
    assert span_distance(comm, kron_commutant(X)) <= 1e-10
    lam = index._multiplicities([(X.A, X.phis), (X.B, X.psis)], X.dim)
    assert len(comm) == int(np.sum(np.square(lam)))
    assert span_distance(relative_commutant_of_right_action(X),
                         kron_commutant(X, left=False)) <= 1e-10


# the Kronecker system at d = 45 has 56,700 x 2,025 complex entries (1.8 GB),
# so the largest modules are checked against the averaging oracle instead
@pytest.mark.parametrize("shape", [_D45_SHAPE, _D80_SHAPE], ids=["d45", "d80"])
def test_commutant_matches_averaging_oracle(shape):
    X = random_bimodule(*shape, seed=1)
    assert span_distance(relative_commutant(X), averaging_relative_commutant(X)) <= 1e-10


def test_commutant_path_draws_no_random_numbers(monkeypatch):
    X = random_bimodule(*_LADDER_SHAPES[0], seed=4)
    ref, bc = fiber_decomposition(X).as_dict(), best_constants(X)

    def no_draws(*args, **kwargs):
        raise AssertionError("a random generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    commutant_of(_hat_actions(X), X.dim)
    relative_commutant(X)
    module_operator_algebra(X)
    assert best_constants(X) == bc
    assert fiber_decomposition(X).as_dict() == ref


def test_commutant_dimension_is_sum_of_squared_multiplicities():
    for i, (a, b, m) in enumerate(_RANDOM_SHAPES + _LADDER_SHAPES):
        X = random_bimodule(a, b, m, seed=60 + i)
        assert len(relative_commutant(X)) == int(np.sum(np.square(m)))


@pytest.mark.parametrize("tamper", ["off_diagonal_unit", "scaled_diagonal_unit"])
def test_commutant_rejects_broken_homomorphism(tamper):
    X = random_bimodule([2, 1], [2, 1], [[1, 1], [2, 3]], seed=4)
    (_, act), psi_hat = _hat_actions(X)     # phi_hat, a *-homomorphism
    if tamper == "off_diagonal_unit":
        act[0, 1] = np.random.default_rng(0).standard_normal((X.dim, X.dim))
    else:
        act[0, 0] *= 1.5
    with pytest.raises(StructureError):
        commutant_of([(X.A, act), psi_hat], X.dim)


# -- the matrix units of L(X_B) and trichotomy -------------------------------------


def _choi_min(cp):
    scale = max(float(np.abs(c).max()) for c in cp.choi_blocks())
    return cp.is_completely_positive()[1], scale


def _frame_cases():
    cases = [pytest.param(X, id=name) for name, X in corpus()]
    cases += [pytest.param(random_bimodule(*shape, seed=1), id=f"ladder_{i}")
              for i, shape in enumerate(_LADDER_SHAPES)]
    return cases + [pytest.param(zero_block_bimodule(), id="zero_block"),
                    pytest.param(zero_row_bimodule(), id="zero_row"),
                    pytest.param(random_bimodule(*_D45_SHAPE, seed=1), id="d45")]


def _assert_same_spectrum(got, ref, what):
    assert got.shape == ref.shape, what
    scale = max(float(np.abs(ref).max()), 1e-300)
    assert np.abs(got - ref).max() <= 1e-12 * scale, (what, np.abs(got - ref).max() / scale)


def _assert_basic_cp_matches_the_dense_route(bco):
    # E = z'F into pA has the verdict and least Choi eigenvalue of the dense
    # phi.E, whose Choi blocks are M_l d; its own are M_l a_k over the
    # blocks k of A where phi is injective (nonzero rows of Lambda)
    X, E, dense = bco.bimodule, bco.as_cp_map(), dense_basic_cp_map(bco)
    (ok, mn), (ref_ok, ref_mn) = E.is_completely_positive(), dense.is_completely_positive()
    scale = float(np.abs(choi_spectrum(dense)).max())
    assert ok == ref_ok and abs(mn - ref_mn) <= 1e-12 * (1 + scale), (mn, ref_mn)
    lam = index._multiplicities([(X.A, X.phis), (X.B, X.psis)], X.dim)
    kept = [a for a, row in zip(X.A.blocks, lam) if row.any()]
    assert [len(c) for c in E.choi_blocks()] == [m * a for m in E.source.blocks for a in kept]


def test_extension_map_is_built_once_per_module(monkeypatch):
    # F on the units of L(X_B) is cached on the module with read-only images:
    # best_constants, fibers, basic's CP check and cp_characterization share
    # one build
    X = random_bimodule(*_LADDER_SHAPES[0], seed=0)
    ref = index._extension_cp_map(X.with_left_stack(X.left_stack)).unit_images
    builds, init = [], index.CPMap.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builds.append(self)

    monkeypatch.setattr(index.CPMap, "__init__", counted_init)
    best_constants(X)
    fiber_decomposition(X)
    basic_construction(X).as_cp_map()
    cp_characterization(X)
    F = index._extension_cp_map(X)
    assert F is index._extension_cp_map(X)
    assert not any(img.flags.writeable for img in F.unit_images)
    assert sum(len(b.unit_images) == len(ref) and all(
        a.shape == r.shape and np.array_equal(a, r) for a, r in zip(b.unit_images, ref))
        for b in builds) == 1


@pytest.mark.parametrize("X", _frame_cases())
def test_frame_choi_blocks_match_the_dense_route(X):
    # the Choi blocks of F in the w-frame of L(X_B) have the spectra of the
    # dense route through op_unrep
    got, ref = extend_left_inner(X).as_cp_map(), dense_extension_cp_map(X)
    _assert_same_spectrum(choi_spectrum(got), choi_spectrum(ref), "F")
    assert got.is_completely_positive()[0] == ref.is_completely_positive()[0]
    _assert_basic_cp_matches_the_dense_route(basic_construction(X))


@pytest.mark.parametrize("X", _frame_cases())
def test_least_multipliers_are_l_ind(X, monkeypatch):
    # c_l* of phi F is the coefficient of l-ind on each block of B that X
    # reaches (the blocks of L(X_B)), read off right_index's dual basis, and
    # the verdicts are those of the delta search on the Choi blocks
    cp = index._extension_cp_map(X)
    assert_least_multipliers_factorize_once(cp, phi_frame(X), phi_frame_map(X, cp),
                                            monkeypatch)
    rep, c = right_index(X), l_ind_coefficients(X)
    got = cp_characterization(X)
    assert np.abs(np.array(got.least_multiplier) - c).max() <= 1e-12 * c.max()
    assert max(got.range_residual) <= 1e-12
    ref = delta_cp_characterization(X)
    assert got.passed_at_index and got.minimality_certified
    assert (got.passed_at_index, got.minimality_certified) == \
        (ref["passed_at_index"], ref["minimality_certified"])
    # one block of l-ind scaled by 0.999 leaves the cone, by either route
    shrunk = rep.l_ind.copy()
    shrunk.blocks[0] = 0.999 * shrunk.blocks[0]
    assert frame_multiplier_cp_map(X)(shrunk).is_completely_positive()[1] < -1e-8 * (1 + rep.l_num)
    monkeypatch.setattr(conjugation, "right_index", lambda X: replace(rep, l_ind=shrunk))
    low = cp_characterization(X)
    assert not low.passed_at_index and low.minimality_certified


def test_least_multipliers_on_a_range_miss(monkeypatch):
    # conjugation by the trace-zero unitary U = [[0, 1], [1, 0]] is
    # completely positive with Choi matrix rank one along (1 (x) U) vec 1,
    # which is orthogonal to vec 1: no multiplier makes c Phi - id CP.  As
    # the pair (Ad U, the identity of M_2), for the module and for E
    B, U = MultiMatrixAlgebra([2]), np.array([[0.0, 1.0], [1.0, 0.0]])
    units = B.units_embedded()
    cp = index.CPMap(B, [U @ units.reshape(2, 2, 2, 2) @ U], target=B)
    got = index.least_multipliers(cp, units)
    assert got[0] and abs(got[2][0] - 1.0) <= 1e-12
    assert_matches_composite(got, cp)
    monkeypatch.setattr(constructors, "_cp_pair", lambda spec: (cp, units))
    assert expectation_cp_gap(diag_expectation_m2()) == 0.0
    assert not minimal_cp_multiplier(diag_expectation_m2())["passed_at_index"]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(small_shapes(), st.integers(0, 2**16))
def test_cp_tests_match_the_composite_oracles_on_random_shapes(shape, seed):
    # c_l*, the range residuals and the verdict of phi F from the blocks of F
    # and phi are those of the composite; E's verdict and least Choi
    # eigenvalue are those of the dense phi.E
    X = random_bimodule(*shape, seed=seed)
    cp = index._extension_cp_map(X)
    assert_matches_composite(index.least_multipliers(cp, phi_frame(X)),
                             phi_frame_map(X, cp))
    _assert_basic_cp_matches_the_dense_route(basic_construction(X))


def test_cp_tests_on_the_product_form_choi_blocks_of_side_90(monkeypatch):
    # on X (x) conj(X) of the d = 45 module (dim 153) the largest Choi block
    # of the basic CP check and of cp_characterization is max_lk M_l a_k = 90,
    # where phi.E and phi.F have blocks of side M_l M_l' = 900
    Z = _with_conjugate(random_bimodule(*_D45_SHAPE, seed=1))
    sides, choi = [], index.CPMap.choi_blocks

    def spy(self):
        blocks = choi(self)
        sides.extend(len(c) for c in blocks)
        return blocks

    monkeypatch.setattr(index.CPMap, "choi_blocks", spy)
    assert basic_construction(Z).as_cp_map().is_completely_positive()[0]
    rep = cp_characterization(Z)
    assert Z.dim == 153 and rep.passed_at_index and rep.minimality_certified
    top = max(w.shape[1] for _, w in bimodule._w_frames(Z)) * max(Z.A.blocks)
    assert max(sides) == top == 90, sides


@pytest.mark.parametrize("X", _frame_cases())
def test_best_constants_match_the_dense_route(X, monkeypatch):
    got = best_constants(X)
    monkeypatch.setattr(index, "_extension_cp_map", dense_extension_cp_map)
    ref = best_constants(X)
    for field in ("lambda_hat", "lambda_prime_hat", "lambda_upper", "lambda_prime_lower"):
        assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=1e-12, abs=0)
    assert got.exact == ref.exact


def _w_frame_cases():
    cases = _frame_cases()
    Z = _with_conjugate(random_bimodule(*_D45_SHAPE, seed=1))
    return cases + [pytest.param(Z, id=f"product_d{Z.dim}")]


@pytest.mark.parametrize("X", _w_frame_cases())
def test_rank_ones_of_the_w_frame_are_the_units_of_operator_algebra(X):
    # theta_{w_i, w_j} over the w-frame of each block: the unit relations,
    # which hold iff (w_i|w_j)_B = delta_ij e^l_11; one system per block of
    # module_operator_algebra, of its size M_l; the sum of the diagonal ones
    # is 1; and each block's rank-ones span that block of the oracle's units
    # (taken where the units fit in memory, d <= 45)
    frames = bimodule._w_frames(X)
    starts = bimodule._unit_layout(X.B.blocks).starts
    for l, w in frames:
        gram = w.conj().T @ X.right_stack @ w          # [u, i, j] = (w_i|w_j)_B at e_u
        expected = np.zeros_like(gram)
        expected[starts[l]] = np.eye(w.shape[1])
        assert np.abs(gram - expected).max() <= 1e-12, l
    ones = np.concatenate([w.T for _, w in frames])
    assert X.op_norm(bimodule.frame_operator(X, ones) - np.eye(X.dim)) <= 1e-12
    if X.dim > 45:
        lam = index._multiplicities([(X.B, X.psis)], X.dim)
        assert [w.shape[1] for _, w in frames] == [m for m in lam if m]
        return
    dec = module_operator_algebra(X)
    assert [w.shape[1] for _, w in frames] == list(dec.algebra.blocks)
    for (l, w), u in zip(frames, dec.units):
        theta = np.array([[X.rank_one(a, b) for b in w.T] for a in w.T])
        m = w.shape[1]
        scale = max(np.abs(theta).max(), 1.0)
        for i in range(m):          # theta_ij theta_kl = delta_jk theta_il
            rel = np.einsum("jab,klbc->jklac", theta[i], theta)
            rel -= np.einsum("jk,lac->jklac", np.eye(m), theta[i])
            assert np.abs(rel).max() <= 1e-12 * scale, (l, i)
        # the oracle's units in coordinates are combinations of the rank-ones
        flat, ref = theta.reshape(m * m, -1).T, X.op_unrep(u).reshape(m * m, -1).T
        coeff = np.linalg.lstsq(flat, ref, rcond=None)[0]
        assert np.abs(flat @ coeff - ref).max() <= 1e-12 * np.abs(ref).max(), l
        assert np.linalg.matrix_rank(coeff) == m * m


@pytest.mark.parametrize("X", _commutant_cases())
def test_module_operator_algebra_matches_recognizer(X):
    dec = module_operator_algebra(X)
    hat = np.array([X.op_rep(b) for b in kron_commutant(X, left=False)])
    ref = decompose_star_algebra(hat)
    assert sorted(zip(dec.algebra.blocks, dec.multiplicities)) == \
        sorted(zip(ref.algebra.blocks, ref.multiplicities))
    assert dec.carrier_dim == X.dim
    assert sum(k * k for k in dec.algebra.blocks) == len(hat)
    # the units are orthogonal with squared HS norm n_l, so they rescale to an
    # orthonormal stack spanning L(X_B)
    flat = np.concatenate([u.reshape(-1, X.dim, X.dim) / np.sqrt(n)
                           for u, n in zip(dec.units, dec.multiplicities)])
    basis = np.linalg.svd(hat.reshape(len(hat), -1), full_matrices=False)[2]
    assert span_distance(flat, basis) <= 1e-10
    for u in dec.units:         # u_ij u_ja = u_ia for every j
        assert np.abs(np.einsum("ijab,jkbc->ijkac", u, u) - u[:, None]).max() <= 1e-12
    if not X.is_bihilbertian:
        return
    F = extend_left_inner(X)
    bco = basic_construction(X)
    phi_E = lambda T: X.op_rep(bco.phi_expectation(T))
    for f, target in ((F.apply_matrix, X.A), (phi_E, None)):
        mn, scale = _choi_min(_operator_cp_map(X, f, target=target))
        mn_ref, _ = _choi_min(_operator_cp_map(X, f, target=target, alg=ref))
        assert abs(mn - mn_ref) <= 1e-12 * (1 + scale)


def test_no_command_path_reaches_the_recognizer(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise AssertionError("decompose_star_algebra reached")

    for target in ("bimod.decompose_star_algebra", "bimod.multimatrix.decompose_star_algebra",
                   "bimod.index.decompose_star_algebra"):
        monkeypatch.setattr(target, boom, raising=False)
    for name, X in corpus():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(encode_bimodule(X)))
        for command in ("basic", "morita", "fibers", "index"):
            status, report = run(CommandRequest(command=command, inputs=[str(path)]))
            # a patched recognizer would surface as an internal error (status 3)
            assert status == 0 and "error" not in report, (name, command, report)
        cp_characterization(X)


def test_no_command_path_builds_a_frame_set(monkeypatch, tmp_path):
    # every command reads the w-frame as built (``_frame_rows``): no FrameSet
    # and no frame residual is formed on the way
    def boom(*args, **kwargs):
        raise AssertionError("a FrameSet was built")

    for module in ("bimod", "bimod.bimodule", "bimod.conjugation", "bimod.constructors"):
        for name in ("tight_frame", "left_tight_frame"):
            monkeypatch.setattr(f"{module}.{name}", boom, raising=False)
    requests = [("expectation", tmp_path / "expectation.json", {
        "kind": "expectation", "B": {"blocks": [2]},
        "A_blocks": {"blocks": [1, 1], "multiplicity": [[1, 1]]}, "E_weights": [[1.0, 1.0]]})]
    for name, X in corpus():
        requests += [(command, tmp_path / f"{name}.json", encode_bimodule(X)) for command in
                     ("index", "conjugate", "basic", "fibers", "mindim", "morita", "validate")]
    for command, path, spec in requests:
        path.write_text(json.dumps(spec))
        status, report = run(CommandRequest(command=command, inputs=[str(path)]))
        # a patched frame builder would surface as an internal error (status 3)
        assert status != 3 and "error" not in report, (path.stem, command, report)


@pytest.mark.parametrize("tamper", ["scaled_e11", "trace_preserving"])
def test_module_operator_algebra_rejects_tampered_right_action(tamper):
    X = random_bimodule([2, 1], [2, 1], [[1, 1], [2, 3]], seed=4)
    act = X.right_action.copy()
    act[0, 0] *= 1.5          # psi(e^0_11) is no longer a projection
    match = None
    if tamper == "trace_preserving":
        act[1, 1] *= 0.5      # the multiplicities still read as integers
        match = "matrix units"
    Y = HilbertBimodule(X.A, X.B, X.dim, X.right_gram, X.left_action, act, X.left_gram)
    with pytest.raises(StructureError, match=match):
        module_operator_algebra(Y)


def test_invertibility_trichotomy_on_corpus():
    for name, X in corpus():
        out = invertibility_trichotomy(X)
        assert out["agree"], name
        assert out["r_ind_invertible"], name


def test_invertibility_trichotomy_degenerate():
    X = degenerate_action_bimodule()
    out = invertibility_trichotomy(X)
    assert out["agree"]
    assert not out["r_ind_invertible"]
    assert not out["phi_injective"]
    assert not out["left_inner_full"]


def test_finite_basis_smoke():
    # with a unital A the module always admits a normalized tight frame and
    # the index element lives in A itself
    for name, X in corpus()[:6]:
        fr = tight_frame(X)
        assert fr.residual < 1e-9
        rep = right_index(X)
        assert rep.r_ind.algebra == X.A
