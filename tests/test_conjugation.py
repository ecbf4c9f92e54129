from itertools import chain

import numpy as np
import pytest

from bimod import (
    ContractError,
    HilbertBimodule,
    MultiMatrixAlgebra,
    amplify,
    build_conjugate,
    column_bimodule,
    conjugate_pair_identities,
    contragredient,
    cp_characterization,
    fiber_decomposition,
    from_expectation,
    from_hilbert_space,
    from_weight_graph,
    identity_bimodule,
    inner_from_conjugate,
    min_dimension,
    morita_check,
    relative_commutant,
    rescale_left,
    right_index,
    tensor,
    tensor_conjugate,
    tensor_push,
    validate,
    verify_conjugate,
)
from bimod import bimodule, conjugation, index
from bimod.bimodule import _corner_ranges, _embed, _w_frames, tight_frame
from bimod.conjugation import (
    _corner_factors,
    _equation_map,
    _inner,
    _pair,
    _peel,
    _perron_weights,
    _rescaling_centre,
)
from bimod.index import _multiplicities
from bimod.multimatrix import center_decompose

from helpers import (
    bidirected_cycle_graph,
    corpus,
    degenerate_action_bimodule,
    dense_inner,
    dense_pair,
    dense_peel,
    descent_min_dimension,
    diag_expectation_m2,
    einsum_conjugate_pair_identities,
    einsum_equation_maps,
    einsum_inner_from_conjugate,
    four_cycle_graph,
    quotient_verify_conjugate,
    random_bimodule,
    random_bimodule_family,
    random_posdef,
    rank_morita_check,
    zero_block_bimodule,
)


# -- building and verifying solutions -----------------------------------------


def test_build_conjugate_scalar():
    X = from_hilbert_space(1, np.eye(1))
    sol = build_conjugate(X)
    assert sol.residual_1 < 1e-14 and sol.residual_2 < 1e-14
    assert sol.dim_rel == pytest.approx(1.0, abs=1e-12)


def test_build_conjugate_identity_weight():
    X = from_hilbert_space(2, np.eye(2))
    sol = build_conjugate(X)
    # Rbar = e1 (x) e1-bar + e2 (x) e2-bar, norm^2 = 2
    assert sol.norm_Rbar ** 2 == pytest.approx(2.0, abs=1e-10)
    assert sol.dim_rel == pytest.approx(2.0, abs=1e-10)
    rbar_full = sol.Rbar.reshape(2, 2)
    assert np.abs(rbar_full - np.eye(2)).max() < 1e-10


def test_solution_identities_on_corpus():
    for name, X in corpus():
        sol = build_conjugate(X)
        idx = right_index(X)
        assert sol.residual_1 <= 1e-8, name
        assert sol.residual_2 <= 1e-8, name
        rr, bb = sol.R_star_R, sol.Rbar_star_Rbar
        assert (rr - idx.l_ind).norm() <= 1e-8 * (1 + idx.l_num), name
        assert (bb - idx.r_ind).norm() <= 1e-8 * (1 + idx.r_num), name
        assert sol.norm_Rbar ** 2 == pytest.approx(idx.r_num, abs=1e-8 * (1 + idx.r_num))
        assert sol.norm_R ** 2 == pytest.approx(idx.l_num, abs=1e-8 * (1 + idx.l_num))
        assert sol.dim_rel >= 1.0 - 1e-9, name


def test_rbar_gram_identity():
    # Rbar* (theta_{x,x'} (x) 1) Rbar = _A(x|x')
    rng = np.random.default_rng(0)
    for X in random_bimodule_family(3, seed=51):
        sol = build_conjugate(X)
        ZRbar = tensor(X, sol.Y)
        Rbar = tensor_push(ZRbar, sol.Rbar)
        dX, dY = X.dim, sol.Y.dim
        for _ in range(6):
            x = rng.standard_normal(dX) + 1j * rng.standard_normal(dX)
            xp = rng.standard_normal(dX) + 1j * rng.standard_normal(dX)
            theta = X.rank_one(x, xp)
            big = np.kron(theta, np.eye(dY))
            w = tensor_push(ZRbar, big @ sol.Rbar.reshape(-1))
            lhs = ZRbar.right_inner(Rbar, w)
            rhs = X.left_inner(x, xp)
            assert (lhs - rhs).norm() <= 1e-8 * (1 + rhs.norm())


def test_solution_frame_independence():
    from bimod import tight_frame, left_tight_frame
    from helpers import frame_solution, well_conditioned
    rng = np.random.default_rng(1)
    X = random_bimodule([1, 1], [2], [[1], [1]], seed=53)
    sol1 = build_conjugate(X)
    W1, W2 = well_conditioned(X.dim, rng), well_conditioned(X.dim, rng)
    fr_r = tight_frame(X, spanning=W1)
    fr_l = left_tight_frame(X, spanning=W2)
    R2, Rbar2 = frame_solution(X, fr_r, fr_l)
    # product coordinates may differ by null vectors: compare in the quotients
    ZR, ZRbar = tensor(sol1.Y, X), tensor(X, sol1.Y)
    assert np.abs(tensor_push(ZR, sol1.R - R2)).max() < 1e-8
    assert np.abs(tensor_push(ZRbar, sol1.Rbar - Rbar2)).max() < 1e-8


def test_verify_scaled_candidate_fails():
    X = from_hilbert_space(2, np.diag([1.0, 2.0]))
    sol = build_conjugate(X)
    rep = verify_conjugate(X, sol.Y, 2.0 * sol.R, sol.Rbar)
    assert not rep.passed
    assert rep.residual_1 == pytest.approx(1.0, abs=1e-10)


def test_verify_conjugate_fails_the_solution_of_a_loose_frame():
    # the 0.5 1 frame sums 0.25 of each theta: Rbar is a quarter of the tight
    # frame's, and both equation maps are 0.25 1
    from bimod import FrameSet, left_tight_frame
    from helpers import frame_solution
    X = from_hilbert_space(2, np.diag([1.0, 2.0]))
    loose = FrameSet(X, 0.5 * np.eye(2, dtype=complex), residual=0.75)
    R, Rbar = frame_solution(X, loose, left_tight_frame(X))
    rep = verify_conjugate(X, contragredient(X), R, Rbar)
    assert not rep.passed
    assert rep.residual_1 == pytest.approx(0.75, abs=1e-12)
    assert rep.residual_2 == pytest.approx(0.75, abs=1e-12)


def test_verify_rejects_non_intertwiner():
    X = random_bimodule([1], [2], [[1]], seed=57)
    sol = build_conjugate(X)
    bad = sol.R.copy()
    bad[0] += 0.7          # breaks the unit intertwining in a generic way
    with pytest.raises(ContractError):
        verify_conjugate(X, sol.Y, bad, sol.Rbar)


# the d = 13 and d = 18 shapes of the conjugate round trip
_ROUNDTRIP = [([2, 1, 1], [2, 1, 1], [[1, 1, 0], [1, 1, 1], [0, 1, 2]]),
              ([2, 1, 1], [2, 1, 1], [[2, 1, 0], [1, 1, 1], [0, 2, 2]])]


def test_product_coordinates_match_quotient_oracle():
    mods = corpus() + [(f"roundtrip_{i}", random_bimodule(*shape, seed=1))
                       for i, shape in enumerate(_ROUNDTRIP)]
    for name, X in mods:
        sol = build_conjugate(X)
        Y = sol.Y
        ZR, ZRbar = tensor(Y, X), tensor(X, Y)
        R, Rbar = tensor_push(ZR, sol.R), tensor_push(ZRbar, sol.Rbar)
        ref = quotient_verify_conjugate(X, Y, R, Rbar, ZR=ZR, ZRbar=ZRbar)
        rep = verify_conjugate(X, Y, sol.R, sol.Rbar)
        assert abs(rep.residual_1 - ref.residual_1) <= 1e-12, name
        assert abs(rep.residual_2 - ref.residual_2) <= 1e-12, name
        assert abs(rep.dim_rel - ref.dim_rel) <= 1e-12 * ref.dim_rel, name
        assert abs(sol.norm_R - ZR.vector_norm(R)) <= 1e-12 * sol.norm_R, name
        assert abs(sol.norm_Rbar - ZRbar.vector_norm(Rbar)) <= 1e-12 * sol.norm_Rbar, name
        rr, bb = ZR.right_inner(R, R), ZRbar.right_inner(Rbar, Rbar)
        assert (sol.R_star_R - rr).norm() <= 1e-12 * rr.norm(), name
        assert (sol.Rbar_star_Rbar - bb).norm() <= 1e-12 * bb.norm(), name


def _replayed_trials(dim, seed=0, trials=20):
    # the random vector pairs that einsum_conjugate_pair_identities draws
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        xp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        yield x, xp


def test_conjugation_contractions_match_einsum_oracle():
    mods = corpus() + [(f"roundtrip_{i}", random_bimodule(*shape, seed=1))
                       for i, shape in enumerate(_ROUNDTRIP)]
    rng = np.random.default_rng(7)
    for name, X in mods:
        sol = build_conjugate(X)
        Y, r, rbar = sol.Y, sol.R, sol.Rbar
        E1, E2 = einsum_equation_maps(X, Y, r, rbar)
        assert np.abs(_equation_map(X, Y, r, rbar) - E1).max() <= 1e-12 * np.abs(E1).max(), name
        assert np.abs(_equation_map(Y, X, rbar, r) - E2).max() <= 1e-12 * np.abs(E2).max(), name
        L_ref = einsum_inner_from_conjugate(X, Y, r, rbar)
        L = inner_from_conjugate(X, Y, r, rbar)
        assert np.abs(L - L_ref).max() <= 1e-12 * np.abs(L_ref).max(), name
        # at a solution both routes read rounding only
        scale = max(np.abs(X.right_gram).max(), np.abs(X.left_gram).max())
        for ids in (conjugate_pair_identities(X, Y, r, rbar, X.left_gram),
                    einsum_conjugate_pair_identities(X, Y, r, rbar, X.left_gram)):
            assert max(ids.values()) <= 1e-12 * X.dim * scale, (name, ids)
        # a left Gram off by delta: the basis form reads max |delta|, the
        # oracle the largest value of delta on its own random pairs
        delta = 0.1 * (rng.standard_normal(X.left_gram.shape)
                       + 1j * rng.standard_normal(X.left_gram.shape))
        new = conjugate_pair_identities(X, Y, r, rbar, X.left_gram + delta)
        ref = einsum_conjugate_pair_identities(X, Y, r, rbar, X.left_gram + delta)
        seen = max(np.abs(np.einsum("p,q,pqab->ab", x, xp.conj(), delta)).max()
                   for x, xp in _replayed_trials(X.dim))
        exact = np.abs(delta).max()
        assert abs(new["left_identity_residual"] - exact) <= 1e-12 * exact, name
        assert abs(ref["left_identity_residual"] - seen) <= 1e-12 * seen, name


def test_pair_identities_read_a_one_entry_change_of_left_gram():
    eps = 1e-3
    for name, X in corpus()[-3:] + [("roundtrip", random_bimodule(*_ROUNDTRIP[0], seed=1))]:
        sol = build_conjugate(X)
        L = X.left_gram.copy()
        L[X.dim - 1, 0, 0, 0] += eps
        ids = conjugate_pair_identities(X, sol.Y, sol.R, sol.Rbar, L)
        assert abs(ids["left_identity_residual"] - eps) <= 1e-12, name
        assert ids["right_identity_residual"] <= 1e-12, name


def test_verify_conjugate_peak_memory_at_d24():
    import tracemalloc
    X = random_bimodule([2, 1, 1], [2, 1, 1], [[2, 1, 1], [2, 1, 1], [1, 2, 2]], seed=0)
    sol = build_conjugate(X)
    tracemalloc.start()
    try:
        rep = verify_conjugate(X, sol.Y, sol.R, sol.Rbar)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.dim == 24 and rep.passed
    assert peak < 13.5e6, peak


_SHAPE_24 = ([2, 1, 1], [2, 1, 1], [[2, 1, 1], [2, 1, 1], [1, 2, 2]])
_SHAPE_45 = ([3, 2, 1], [3, 2, 1], [[2, 1, 1], [1, 1, 1], [1, 1, 1]])


def _corner_oracle_cases():
    cases = [pytest.param(lambda X=X: X, id=name) for name, X in corpus()]
    shapes = [("roundtrip_13", _ROUNDTRIP[0]), ("roundtrip_18", _ROUNDTRIP[1]),
              ("roundtrip_24", _SHAPE_24), ("d45", _SHAPE_45)]
    cases += [pytest.param(lambda shape=shape: random_bimodule(*shape, seed=1), id=name)
              for name, shape in shapes]
    # block 1 of B acts on X with multiplicity zero: K_l = 0 there in X (x) Xbar
    return cases + [pytest.param(zero_block_bimodule, id="zero_block")]


@pytest.mark.parametrize("order", ["X_Xbar", "Xbar_X"])
@pytest.mark.parametrize("make", _corner_oracle_cases())
def test_corner_pairings_match_dense_oracle(make, order):
    X = make()
    a, b = (X, contragredient(X)) if order == "X_Xbar" else (contragredient(X), X)
    rng = np.random.default_rng(a.dim)
    r = rng.standard_normal((a.dim, b.dim)) + 1j * rng.standard_normal((a.dim, b.dim))
    s = rng.standard_normal((3, a.dim, b.dim)) + 1j * rng.standard_normal((3, a.dim, b.dim))
    # _pair gives its values at the matrix units of C, the oracle embedded
    for got, ref in ((_embed(_pair(a, b, r), b.B), dense_pair(a, b, r)),
                     (_peel(a, b, s), dense_peel(a, b, s)),
                     (_inner(a, b, r, s), dense_inner(a, b, r, s))):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _traced_peak(f):
    import tracemalloc
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_and_verify_peak_memory_at_d45():
    # the dense pairing held two d_X d_Y^3 arrays: 134-136 MB here
    X = random_bimodule(*_SHAPE_45, seed=1)
    sol, peak_build = _traced_peak(lambda: build_conjugate(X))
    X = random_bimodule(*_SHAPE_45, seed=1)     # fresh, with nothing cached
    rep, peak_verify = _traced_peak(lambda: verify_conjugate(X, contragredient(X), sol.R, sol.Rbar))
    assert X.dim == 45 and rep.passed
    assert peak_build <= 20e6 and peak_verify <= 20e6, (peak_build, peak_verify)


def test_tensor_conjugate_at_the_153_dim_product():
    X = random_bimodule(*_SHAPE_45, seed=1)
    sol = tensor_conjugate(build_conjugate(X), build_conjugate(contragredient(X)))
    assert sol.X.dim == 153
    assert sol.residual_1 <= 1e-10 and sol.residual_2 <= 1e-10


def _frame_route_cases():
    X45 = random_bimodule(*_SHAPE_45, seed=1)
    cases = [pytest.param(X, id=name) for name, X in corpus()]
    for shape in ([2, 1], [2, 1], [[1, 1], [2, 3]]), ([2, 1], [2, 1], [[2, 2], [2, 2]]):
        X = random_bimodule(*shape, seed=1)
        cases.append(pytest.param(X, id=f"ladder_d{X.dim}"))
    return cases + [pytest.param(X45, id="d45"),
                    pytest.param(tensor(X45, contragredient(X45)), id="product_d153")]


@pytest.mark.parametrize("X", _frame_route_cases())
def test_w_frame_solution_matches_the_tight_frame_route(X):
    # build_conjugate over the w-frames of X and Xbar against the S^(-1/2)
    # frames of the coordinate bases: the same pairings with every basis
    # vector, both residuals at round-off, and R*R and Rbar*Rbar against the
    # dual basis of right_index, as F(1) over the w-frame is
    from bimod import extend_left_inner, left_tight_frame, tight_frame
    from helpers import frame_solution
    sol, eye = build_conjugate(X), np.eye(X.dim)
    ref_R, ref_Rbar = frame_solution(X, tight_frame(X, spanning=eye),
                                     left_tight_frame(X, spanning=eye))
    Y = sol.Y
    for got, want in ((_pair(X, Y, sol.Rbar), _pair(X, Y, ref_Rbar)),
                      (_pair(Y, X, sol.R), _pair(Y, X, ref_R))):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert max(sol.residual_1, sol.residual_2) <= 1e-12
    idx = right_index(X)
    for got, want, num in ((sol.R_star_R, idx.l_ind, idx.l_num),
                           (sol.Rbar_star_Rbar, idx.r_ind, idx.r_num),
                           (extend_left_inner(X).index_element(), idx.r_ind, idx.r_num)):
        assert (got - want).norm() <= 1e-12 * num


@pytest.mark.parametrize("k", [1, 8])
def test_solution_survives_last_bit_change_of_gram(k):
    # random_112's products have a kernel; quotient coordinates followed the
    # eigh phases of the trace form, so this perturbation broke its solution
    X = dict(corpus())["random_112"]
    sol = build_conjugate(X)
    X2 = HilbertBimodule(X.A, X.B, X.dim, X.right_gram * (1 + k * 2.0 ** -52),
                         X.left_action, X.right_action, X.left_gram)
    assert verify_conjugate(X2, contragredient(X2), sol.R, sol.Rbar).passed


def test_verify_rejects_quotient_length():
    X = dict(corpus())["random_112"]
    sol = build_conjugate(X)
    R = tensor_push(tensor(sol.Y, X), sol.R)
    assert R.size < sol.R.size
    with pytest.raises(ContractError, match=f"expected {sol.R.size}"):
        verify_conjugate(X, sol.Y, R, sol.Rbar)


def test_solve_and_verify_build_no_tensor_product(monkeypatch):
    import bimod.conjugation

    def no_tensor(*args, **kwargs):
        raise AssertionError("tensor() called")

    monkeypatch.setattr(bimod.conjugation, "tensor", no_tensor)
    for name, X in corpus() + [("roundtrip", random_bimodule(*_ROUNDTRIP[0], seed=1))]:
        sol = build_conjugate(X)
        assert verify_conjugate(X, sol.Y, sol.R, sol.Rbar).passed, name
        L = inner_from_conjugate(X, sol.Y, sol.R, sol.Rbar)
        assert np.abs(L - X.left_gram).max() <= 1e-8 * max(np.abs(X.left_gram).max(), 1.0)
        ids = conjugate_pair_identities(X, sol.Y, sol.R, sol.Rbar, X.left_gram)
        assert max(ids.values()) <= 1e-8, name


def test_transported_solution_passes():
    # (U (x) 1) R and (1 (x) (U*)^{-1}) Rbar solve the equations for any
    # invertible intertwiner U of the conjugate side
    for seed in (60, 61):
        X = random_bimodule([1], [1], [[2]], seed=seed)
        sol = build_conjugate(X)
        Y = sol.Y
        comm = relative_commutant(Y)
        rng = np.random.default_rng(seed)
        coeff = 0.3 * rng.standard_normal(len(comm))
        H = np.einsum("c,cij->ij", coeff, comm)
        U = np.eye(Y.dim) + H      # small perturbation keeps U invertible
        Ustar_inv = np.linalg.inv(Y.op_adjoint(U))
        r2 = U @ sol.R.reshape(Y.dim, X.dim)
        rbar2 = sol.Rbar.reshape(X.dim, Y.dim) @ Ustar_inv.T
        rep = verify_conjugate(X, Y, r2.reshape(-1), rbar2.reshape(-1))
        assert rep.passed, rep.as_dict()


# -- recovering the left inner product ------------------------------------------


def test_round_trip_left_gram_on_corpus():
    for name, X in corpus():
        sol = build_conjugate(X)
        L = inner_from_conjugate(X, sol.Y, sol.R, sol.Rbar)
        scale = max(np.abs(X.left_gram).max(), 1.0)
        assert np.abs(L - X.left_gram).max() <= 1e-8 * scale, name


def test_round_trip_external_solution():
    # a verified external solution yields a bimodule whose own solution passes
    X = random_bimodule([2], [1, 1], [[1, 1]], seed=63)
    sol = build_conjugate(X)
    L = inner_from_conjugate(X, sol.Y, sol.R, sol.Rbar)
    X2 = X.with_left_gram(L)
    sol2 = build_conjugate(X2)
    assert sol2.residual_1 <= 1e-7 and sol2.residual_2 <= 1e-7


def test_pair_identities_after_identification():
    for name, X in corpus()[:6]:
        sol = build_conjugate(X)
        ids = conjugate_pair_identities(X, sol.Y, sol.R, sol.Rbar, X.left_gram)
        assert ids["right_identity_residual"] <= 1e-8, name
        assert ids["left_identity_residual"] <= 1e-8, name


def test_recovered_gram_weight_structure():
    # for the weighted C^n bimodule the recovered product is (y|Tx)
    T = random_posdef(3, np.random.default_rng(2))
    X = from_hilbert_space(3, T)
    sol = build_conjugate(X)
    L = inner_from_conjugate(X, sol.Y, sol.R, sol.Rbar)
    assert np.abs(L[:, :, 0, 0] - T.T).max() < 1e-9


def test_unitary_transport_preserves_recovered_gram():
    X = random_bimodule([1], [1], [[2]], seed=64)
    sol = build_conjugate(X)
    Y = sol.Y
    comm = relative_commutant(Y)
    rng = np.random.default_rng(3)
    coeff = rng.standard_normal(len(comm))
    H = np.einsum("c,cij->ij", coeff, comm)
    Hh = Y.op_rep(H)
    Hh = 0.5 * (Hh + Hh.conj().T)
    w, v = np.linalg.eigh(Hh)
    U = Y.op_unrep((v * np.exp(1j * w)) @ v.conj().T)    # unitary in L(Y_B)
    r_full = sol.R.reshape(Y.dim, X.dim)
    rbar_full = sol.Rbar.reshape(X.dim, Y.dim)
    Ustar_inv = np.linalg.inv(Y.op_adjoint(U))
    R2 = (U @ r_full).reshape(-1)
    Rbar2 = (rbar_full @ Ustar_inv.T).reshape(-1)
    L2 = inner_from_conjugate(X, Y, R2, Rbar2)
    assert np.abs(L2 - X.left_gram).max() <= 1e-8 * max(np.abs(X.left_gram).max(), 1.0)


# -- rescaling --------------------------------------------------------------------


def test_rescale_identity():
    X = from_hilbert_space(2, np.diag([1.0, 2.0]))
    X2 = rescale_left(X, np.eye(2))
    assert np.abs(X2.left_gram - X.left_gram).max() == 0.0


def test_rescale_scaling_homogeneity():
    X = from_hilbert_space(2, np.diag([1.0, 2.0]))
    idx = right_index(X)
    X2 = rescale_left(X, 2.0 * np.eye(2))
    idx2 = right_index(X2)
    assert idx2.r_num == pytest.approx(2.0 * idx.r_num, rel=1e-10)
    assert idx2.l_num == pytest.approx(0.5 * idx.l_num, rel=1e-10)
    assert idx2.r_num * idx2.l_num == pytest.approx(idx.r_num * idx.l_num, rel=1e-10)


def test_rescale_trace_oracle():
    T = np.diag([1.0, 2.0, 3.0])
    Q = np.diag([2.0, 1.0, 0.5])
    X = from_hilbert_space(3, T)
    X2 = rescale_left(X, Q)
    idx = right_index(X2)
    TQ = T @ Q
    assert idx.r_num == pytest.approx(np.trace(TQ).real, rel=1e-10)
    assert idx.l_num == pytest.approx(np.trace(np.linalg.inv(TQ)).real, rel=1e-10)


def test_rescale_rejects_bad_q():
    X, _, _ = from_expectation(diag_expectation_m2())
    with pytest.raises(ContractError):
        rescale_left(X, np.diag([1.0, 2.0, 3.0, 4.0]))   # not in the commutant
    X2 = from_hilbert_space(2, np.diag([1.0, 2.0]))
    with pytest.raises(ContractError):
        rescale_left(X2, np.diag([1.0, -1.0]))           # not positive


def test_rescale_refuses_q_that_fails_only_a_non_diagonal_generator():
    # Q = phi(diag(1, 2)) in the 2 x 2 block of A commutes with every psi
    # image and every phi(e_ii), but not with phi(e_21), a generator
    X = random_bimodule([2, 1], [2], [[1], [1]], seed=7)
    a = np.zeros((X.A.rep_dim, X.A.rep_dim))
    a[0, 0], a[1, 1], a[2, 2] = 1.0, 2.0, 1.0
    Q = X.phi(a)
    L = bimodule._unit_layout(X.A.blocks)
    assert max(np.abs(Q @ u - u @ Q).max() for u in chain(X.psis, X.phis[L.diag])) <= 1e-12
    e21 = X.phis[L.starts[0] + 2]
    assert np.abs(Q @ e21 - e21 @ Q).max() > 0.1
    with pytest.raises(ContractError, match="relative commutant"):
        rescale_left(X, Q)


def test_validate_after_rescale():
    X = random_bimodule([1], [1], [[2]], seed=65)
    comm = relative_commutant(X)
    rng = np.random.default_rng(4)
    H = np.einsum("c,cij->ij", rng.standard_normal(len(comm)), comm)
    Hh = X.left_op_rep(H)
    Hh = 0.5 * (Hh + Hh.conj().T)
    w, v = np.linalg.eigh(Hh)
    Q = X.left_op_unrep((v * np.exp(w)) @ v.conj().T)
    X2 = rescale_left(X, Q)
    assert validate(X2).passed


# -- the right-half validate lines, carried by with_left_stack ------------------------

_LADDER_SHAPES = [([2, 1], [2, 1], [[1, 1], [2, 3]]), ([2, 1], [2, 1], [[2, 2], [2, 2]])]
_ROUNDTRIP_SHAPES = [([2, 1, 1], [2, 1, 1], [[1, 1, 0], [1, 1, 1], [0, 1, 2]]),
                     ([2, 1, 1], [2, 1, 1], [[2, 1, 0], [1, 1, 1], [0, 2, 2]]),
                     ([2, 1, 1], [2, 1, 1], [[2, 1, 1], [2, 1, 1], [1, 2, 2]])]


def _carried_cases():
    """Builders, so that every test starts from a module with an empty cache."""
    cases = [(name, lambda name=name: dict(corpus())[name]) for name, _ in corpus()]
    for tag, shapes in (("ladder", _LADDER_SHAPES), ("roundtrip", _ROUNDTRIP_SHAPES)):
        cases += [(f"{tag}_{i}", lambda shape=shape, i=i: random_bimodule(*shape, seed=i))
                  for i, shape in enumerate(shapes)]
    cases.append(("zero_block", zero_block_bimodule))
    return [pytest.param(make, id=name) for name, make in cases]


def _fresh_copy(Y):
    """Y rebuilt from copies of its four stacks: a module with nothing cached."""
    stacks = (Y.right_stack, Y.phis, Y.psis, Y.left_stack)
    return HilbertBimodule(Y.A, Y.B, Y.dim, *(np.array(s) for s in stacks), units=True)


def _lines(rep):
    return [(c.name, c.residual.hex(), c.passed) for c in rep.checks]


def _count_generator_residuals(monkeypatch) -> list:
    calls, real = [], bimodule._generator_residual
    monkeypatch.setattr(bimodule, "_generator_residual",
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("make", _carried_cases())
def test_validate_of_a_rescaled_module_computes_only_its_left_lines(make, monkeypatch):
    calls = _count_generator_residuals(monkeypatch)
    Q = min_dimension(make()).Q_star
    # a parent that never ran validate: all 15 lines, as a fresh module
    X = make()
    calls.clear()
    cold = validate(rescale_left(X, Q))
    assert len(calls) == 2
    assert validate(X).passed
    calls.clear()
    X_star = rescale_left(X, Q)
    got = validate(X_star)
    assert calls == [], "a right-half line was computed again"
    ref = validate(_fresh_copy(X_star))
    assert len(got.checks) == 15 and _lines(got) == _lines(ref) == _lines(cold)


@pytest.mark.parametrize("stack, unit", [("right_stack", 0), ("psis", 1), ("phis", 0)])
def test_a_right_half_defect_still_fails_the_module_built_on_it(stack, unit):
    X = random_bimodule(*_LADDER_SHAPES[0], seed=0)
    stacks = {name: np.array(getattr(X, name)) for name in ("right_stack", "phis", "psis")}
    stacks[stack][unit, 0, 1] += 1e-3
    bad = HilbertBimodule(X.A, X.B, X.dim, stacks["right_stack"], stacks["phis"],
                          stacks["psis"], X.left_stack, units=True)
    failing = [c.name for c in validate(bad).failures()]
    assert any(name in failing for name in (
        "right_gram_hermitian", "right_action_antihomomorphism", "left_action_homomorphism"))
    Y = bad.with_left_stack(2.0 * X.left_stack)
    assert [c.name for c in validate(Y).failures()] == failing
    assert _lines(validate(Y)) == _lines(validate(_fresh_copy(Y)))


def test_each_validate_call_applies_its_own_tol_to_the_carried_lines():
    X = random_bimodule(*_ROUNDTRIP_SHAPES[0], seed=1)
    fresh = _fresh_copy(X)
    strict = validate(X, tol=1e-30)
    assert not strict.passed and _lines(strict) == _lines(validate(fresh, tol=1e-30))
    loose = validate(X)
    assert loose.passed and _lines(loose) == _lines(validate(fresh))
    # and on the module that carries them
    Y = X.with_left_stack(3.0 * X.left_stack)
    assert _lines(validate(Y, tol=1e-30)) == _lines(validate(_fresh_copy(Y), tol=1e-30))
    assert validate(Y).passed


def _bitwise_equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_bitwise_equal, a, b))
    if isinstance(a, float):
        return a.hex() == b.hex()
    return type(a) is type(b) and a == b


def _build_right_keys(Y) -> None:
    Y._g_half()
    _corner_ranges(Y, left=True)
    tight_frame(Y)
    _corner_factors(Y)
    validate(Y)


@pytest.mark.parametrize("make", _carried_cases()[::4])
def test_carried_values_equal_a_fresh_modules_own_builds(make):
    X = make()
    _build_right_keys(X)
    assert HilbertBimodule._RIGHT_KEYS <= set(X._cache)
    Y = X.with_left_stack(2.0 * X.left_stack)
    assert set(Y._cache) == HilbertBimodule._RIGHT_KEYS
    fresh = _fresh_copy(Y)
    _build_right_keys(fresh)
    for key in sorted(HilbertBimodule._RIGHT_KEYS):
        assert _bitwise_equal(Y._cache[key], fresh._cache[key]), key
    assert _w_frames(Y) is X._cache["w"]


def test_morita_candidate_carries_the_right_half_lines(monkeypatch):
    X = column_bimodule(20)
    assert validate(X).passed
    calls = _count_generator_residuals(monkeypatch)
    rep = morita_check(X)
    assert rep.is_morita and rep.candidate_valid and calls == []


# -- minimal dimension ---------------------------------------------------------------


def test_min_dimension_weighted_spaces():
    for n in (2, 3):
        T = random_posdef(n, np.random.default_rng(10 + n))
        X = from_hilbert_space(n, T)
        res = min_dimension(X)
        assert abs(res.dim_hat - n) <= 1e-10
        assert res.certificate_residual <= 1e-10


def test_min_dimension_imprimitivity():
    X = column_bimodule(3)
    res = min_dimension(X)
    assert abs(res.dim_hat - 1.0) <= 1e-10


def test_min_dimension_markov_inclusion():
    X, _, _ = from_expectation(diag_expectation_m2())
    res = min_dimension(X)
    assert abs(res.dim_hat ** 2 - 2.0) <= 1e-10


def test_min_dimension_invariant_under_rescaling():
    X = from_hilbert_space(2, np.diag([1.0, 3.0]))
    res1 = min_dimension(X)
    X2 = rescale_left(X, np.diag([3.0, 1.0]))
    res2 = min_dimension(X2)
    assert abs(res1.dim_hat - res2.dim_hat) <= 1e-12
    for name, Y in corpus():
        rng = np.random.default_rng(len(name))
        comm = relative_commutant(Y)
        H = Y.left_op_rep(np.einsum("m,mij->ij", rng.standard_normal(len(comm)), comm))
        w, v = np.linalg.eigh(0.5 * (H + H.conj().T))
        Q = Y.left_op_unrep((v * np.exp(0.5 * w)) @ v.conj().T)
        assert abs(min_dimension(rescale_left(Y, Q)).dim_hat
                   - min_dimension(Y).dim_hat) <= 1e-12, name


_EXACT_MIN_DIM = {
    "hilbert_diag12": 2.0, "hilbert_random3": 3.0, "column2": 1.0, "identity_M2": 1.0,
    "identity_C2": 1.0, "graph_cycle4": 1.0, "graph_bidirected": 2.0,
    "expectation_M2": np.sqrt(2.0), "expectation_2block": np.sqrt(2.0),
    "random_11": 2.0, "random_21": 1.0, "random_112": np.sqrt(2.0),
}

# (A blocks, B blocks, Lambda, ||Lambda||_2)
_MIN_DIM_SHAPES = [
    ([1, 1], [1, 1], [[2, 1], [1, 1]], 2.6180339887498949),    # golden ratio squared
    ([1, 1], [1, 1], [[1, 1], [1, 1]], 2.0),
    ([1, 1], [1, 1], [[1, 0], [0, 2]], 2.0),
    ([2, 1], [2, 1], [[1, 1], [2, 3]], 3.8643284505408246),    # ladder, d = 13
    ([2, 1], [2, 1], [[2, 2], [2, 2]], 4.0),                   # ladder, d = 18
]


def _min_dim_cases(shapes=_MIN_DIM_SHAPES):
    cases = [pytest.param(X, _EXACT_MIN_DIM[name], id=name) for name, X in corpus()]
    for i, (a, b, m, exact) in enumerate(shapes):
        X = random_bimodule(a, b, m, seed=80 + i)
        tag = "_".join("".join(map(str, row)) for row in m)
        cases.append(pytest.param(X, exact, id=f"lambda_{tag}"))
    return cases


@pytest.mark.parametrize("X, exact", _min_dim_cases())
def test_min_dimension_is_spectral_norm_of_multiplicities(X, exact):
    res = min_dimension(X)
    assert abs(res.dim_hat - exact) <= 1e-10
    assert res.certificate_residual <= 1e-10
    # the rescaled module balances the two numerical indices at ||Lambda||_2
    rep = right_index(rescale_left(X, res.Q_star))
    assert abs(rep.r_num - exact) <= 1e-10 * exact
    assert abs(rep.l_num - exact) <= 1e-10 * exact


@pytest.mark.parametrize("X, exact", _min_dim_cases())
def test_rescaling_centre_matches_the_einsum_oracle(X, exact):
    # the three-operand einsum the pairwise products replaced
    lam = _multiplicities([(X.A, X.phis), (X.B, X.psis)], X.dim)
    phis = np.array([X.phi(z) for z in center_decompose(X.A)])
    psis = np.array([X.psi(z) for z in center_decompose(X.B)])
    ref = np.einsum("kl,kij,ljm->im", _perron_weights(lam), phis, psis)
    got = _rescaling_centre(X, lam)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _random_multiplicities(rng) -> np.ndarray:
    """A Lambda with 2-4 connected components, a zero row and a zero column,
    its rows and columns shuffled."""
    blocks = [rng.integers(1, 4, size=rng.integers(1, 4, size=2))
              for _ in range(rng.integers(2, 5))]
    na, nb = sum(b.shape[0] for b in blocks) + 1, sum(b.shape[1] for b in blocks) + 1
    lam, r, c = np.zeros((na, nb), dtype=int), 0, 0
    for b in blocks:
        lam[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return lam[rng.permutation(na)][:, rng.permutation(nb)]


def test_perron_weights_match_the_unique_based_reference():
    def reference(lam):
        # the components from np.unique of the smallest-vertex labels
        na, nb = lam.shape
        link = np.eye(na + nb, dtype=int)
        link[:na, na:], link[na:, :na] = lam > 0, (lam > 0).T
        for _ in range(na + nb):
            link = (link @ link > 0).astype(int)
        label, c = link.argmax(axis=1), np.zeros(lam.shape)
        for comp in np.unique(label):
            rows, cols = np.flatnonzero(label[:na] == comp), np.flatnonzero(label[na:] == comp)
            if len(rows) and len(cols):
                u, _, vh = np.linalg.svd(lam[np.ix_(rows, cols)])
                c[np.ix_(rows, cols)] = np.abs(vh[0])[None, :] / np.abs(u[:, 0])[:, None]
        return c * (lam > 0)

    rng = np.random.default_rng(11)
    for _ in range(25):
        lam = _random_multiplicities(rng)
        assert not lam.any(axis=1).all() and not lam.any(axis=0).all()
        got = _perron_weights(lam)
        assert got.tobytes() == reference(lam).tobytes(), lam
        # every linked pair (k, l) is weighted, and nothing else
        assert (got > 0).sum() == (lam > 0).sum()


# without the ladder shapes, where the descent takes about a second each
@pytest.mark.parametrize("X, exact", _min_dim_cases(_MIN_DIM_SHAPES[:3]))
def test_descent_oracle_never_beats_the_closed_form(X, exact):
    # every value the descent reaches is r_num * l_num at an actual rescaling
    assert descent_min_dimension(X, budget=2000).dim_hat >= exact * (1 - 1e-9)


# -- complete positivity characterization ----------------------------------------------


def test_cp_characterization_imprimitivity():
    X = column_bimodule(2)
    rep = cp_characterization(X)
    assert rep.passed_at_index
    assert rep.minimality_certified


def test_cp_characterization_weighted_space():
    X = from_hilbert_space(2, np.diag([1.0, 2.0]))
    idx = right_index(X)
    assert idx.l_num == pytest.approx(1.5)
    rep = cp_characterization(X)
    assert rep.passed_at_index
    assert rep.minimality_certified


def test_cp_characterization_on_corpus():
    for name, X in corpus():
        rep = cp_characterization(X)
        assert rep.passed_at_index, name
        assert rep.minimality_certified, name


# -- Morita -----------------------------------------------------------------------------


def test_morita_column_bimodule():
    rep = morita_check(column_bimodule(3))
    assert rep.is_morita and rep.conditions_agree
    assert rep.r_ind_identity_residual < 1e-8
    assert rep.l_ind_identity_residual < 1e-8


def test_morita_weighted_space_is_not():
    rep = morita_check(from_hilbert_space(2, np.diag([1.0, 2.0])))
    assert not rep.is_morita
    assert rep.conditions_agree
    assert rep.min_dim > 1.5


def test_morita_identity_bimodule():
    rep = morita_check(identity_bimodule(MultiMatrixAlgebra([2, 1])))
    assert rep.is_morita and rep.conditions_agree


def test_morita_four_cycle():
    rep = morita_check(from_weight_graph(four_cycle_graph()).bimodule)
    assert rep.is_morita


def test_morita_works_without_left_gram():
    X = column_bimodule(2)
    stripped = type(X)(X.A, X.B, X.dim, X.right_gram, X.left_action, X.right_action)
    rep = morita_check(stripped)
    assert rep.is_morita


def _morita_oracle_cases():
    X = column_bimodule(2)
    stripped = type(X)(X.A, X.B, X.dim, X.right_gram, X.left_action, X.right_action)
    cases = corpus() + [
        ("column3", column_bimodule(3)),
        ("column2_stripped", stripped),
        ("identity_21", identity_bimodule(MultiMatrixAlgebra([2, 1]))),
        ("zero_block", zero_block_bimodule()),                 # a zero column of Lambda
        ("degenerate_action", degenerate_action_bimodule()),   # a zero row
        ("permuted", random_bimodule([2, 1], [1, 2], [[0, 1], [1, 0]], seed=4)),
        ("ladder_d13", random_bimodule([2, 1], [2, 1], [[1, 1], [2, 3]], seed=0)),
        ("amplified_321", amplify(identity_bimodule(MultiMatrixAlgebra([3, 2, 1])), 2)),
    ]
    return [pytest.param(X, id=name) for name, X in cases]


@pytest.mark.parametrize("X", _morita_oracle_cases())
def test_morita_from_multiplicities_matches_rank_oracle(X):
    got, ref = morita_check(X), rank_morita_check(X)
    for field in ("is_morita", "right_full", "action_surjective", "candidate_valid",
                  "min_dim", "conditions_agree"):
        assert getattr(got, field) == getattr(ref, field), field
    for field in ("r_ind_identity_residual", "l_ind_identity_residual"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a == b if np.isinf(b) else abs(a - b) <= 1e-12, field


def test_morita_and_fibers_run_no_rank_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a numerical search ran")

    modules = [X for _, X in corpus()]
    expected = [morita_check(X).as_dict() for X in modules]
    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    with monkeypatch.context() as m:
        # the closure under the left adjoint is read off g^-1 g_l and the
        # generators: no commutant columns, no block form, no dense units,
        # no orthonormal basis, no adjoint per unit
        m.setattr(np.linalg, "qr", refuse)
        m.setattr(index, "relative_commutant", refuse)
        m.setattr(index, "_commutant_columns", refuse)
        m.setattr(index, "_block_form_residual", refuse)
        m.setattr(HilbertBimodule, "left_op_adjoint", refuse)
        for X in modules:
            fiber_decomposition(X)
    # min_dim is ||Lambda||_2 of morita_check's own Lambda: no certificate
    monkeypatch.setattr(conjugation, "min_dimension", refuse)
    monkeypatch.setattr(conjugation, "rescale_left", refuse)
    assert [morita_check(X).as_dict() for X in modules] == expected


# -- composing conjugates ------------------------------------------------------------


def test_tensor_conjugate_weighted_spaces():
    X = from_hilbert_space(2, np.eye(2))
    Y = from_hilbert_space(3, np.eye(3))
    solX, solY = build_conjugate(X), build_conjugate(Y)
    sol = tensor_conjugate(solX, solY)
    assert sol.residual_1 <= 1e-7 and sol.residual_2 <= 1e-7
    assert sol.dim_rel == pytest.approx(6.0, abs=1e-8)


def test_tensor_conjugate_norm_bounds():
    X = random_bimodule([1], [2], [[1]], seed=70)
    Y = random_bimodule([2], [1, 1], [[1, 1]], seed=71)
    solX, solY = build_conjugate(X), build_conjugate(Y)
    sol = tensor_conjugate(solX, solY)
    assert sol.residual_1 <= 1e-7 and sol.residual_2 <= 1e-7
    assert sol.norm_R <= solX.norm_R * solY.norm_R + 1e-9
    assert sol.norm_Rbar <= solX.norm_Rbar * solY.norm_Rbar + 1e-9


def test_tensor_conjugate_graphs():
    repA = from_weight_graph(four_cycle_graph())
    repB = from_weight_graph(bidirected_cycle_graph())
    solA, solB = build_conjugate(repA.bimodule), build_conjugate(repB.bimodule)
    sol = tensor_conjugate(solA, solB)
    assert sol.residual_1 <= 1e-7 and sol.residual_2 <= 1e-7


def test_tensor_conjugate_algebra_mismatch():
    X = from_hilbert_space(2, np.eye(2))
    Y = column_bimodule(2)
    solX, solY = build_conjugate(X), build_conjugate(Y)
    with pytest.raises(ContractError):
        tensor_conjugate(solX, solY)


def test_tensor_conjugate_with_unit_object():
    # composing with the unit bimodule reproduces the original dimension
    X = random_bimodule([1], [2], [[1]], seed=73)
    solX = build_conjugate(X)
    unit = identity_bimodule(X.B)
    sol_unit = build_conjugate(unit)
    assert sol_unit.dim_rel == pytest.approx(1.0, abs=1e-9)
    sol = tensor_conjugate(solX, sol_unit)
    assert sol.residual_1 <= 1e-7 and sol.residual_2 <= 1e-7
    assert sol.dim_rel == pytest.approx(solX.dim_rel, abs=1e-8)


def test_contragredient_of_equivalence_is_inverse():
    # the conjugate side of an imprimitivity bimodule is again an equivalence
    X = column_bimodule(3)
    Xbar = contragredient(X)
    rep = right_index(Xbar)
    assert (rep.r_ind - Xbar.A.identity()).norm() < 1e-9
    assert (rep.l_ind - Xbar.B.identity()).norm() < 1e-9
    assert morita_check(Xbar).is_morita
