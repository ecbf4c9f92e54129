import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimod import (
    ContractError,
    basic_construction,
    best_constants,
    build_conjugate,
    cp_characterization,
    fiber_decomposition,
    HilbertBimodule,
    MultiMatrixAlgebra,
    StructureError,
    amplify,
    contragredient,
    frame_operator,
    from_hilbert_space,
    generalized_basis_step,
    identity_bimodule,
    rank_one_sum_norm,
    right_index,
    tensor,
    tight_frame,
    validate,
    verify_conjugate,
)
from bimod.bimodule import (OFF_BLOCK_TOL, _corner_ranges, _summands, _unit_blocks,
                            bimodule_map_residual)

from helpers import (
    _act_first,
    _act_second,
    corpus,
    dense_tensor,
    eigh_tensor,
    four_cycle_graph,
    lift_matrix,
    push_matrix,
    random_bimodule,
    random_bimodule_family,
    scalar_form_lines,
    small_shapes,
    unit_loop_validate,
)
from bimod import from_weight_graph, GraphSpec


def test_validate_trivial_module():
    X = from_hilbert_space(1, np.eye(1))
    rep = validate(X)
    assert rep.passed and rep.worst == 0.0


def test_validate_corpus():
    for name, X in corpus():
        rep = validate(X)
        assert rep.passed, f"{name}: {[(c.name, c.residual) for c in rep.failures()]}"


def test_gram_actions_match_einsum_reference():
    # the unit-loop oracle's adjointability and linearity checks contract one
    # operator into a Gram index; the einsum forms are the reference
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    G = rng.standard_normal((5, 5, 3, 3)) + 1j * rng.standard_normal((5, 5, 3, 3))
    assert np.abs(_act_first(M, G) - np.einsum("rp,rqab->pqab", M, G)).max() <= 1e-13
    assert np.abs(_act_second(M, G) - np.einsum("sq,psab->pqab", M, G)).max() <= 1e-13


def test_actions_commute_matches_broadcast_form():
    # validate commutes the generators e^k_i1, e^k_1i of A with those of B;
    # the (U_A, U_B, d, d) broadcast of all commutators at once is the
    # reference: the residual is the max over a subset of its terms
    X13 = random_bimodule(*ROUNDTRIP_13, seed=1)
    mods = corpus() + [("roundtrip_13 (x) conj", tensor(X13, contragredient(X13)))]
    for name, X in mods:
        phis = np.einsum("uab,abij->uij", X.A.units_embedded(), X.left_action)
        psis = np.einsum("uab,abij->uij", X.B.units_embedded(), X.right_action)
        comm = phis[:, None] @ psis[None] - psis[None] @ phis[:, None]
        ref = float(np.abs(comm).max() / max(float(np.abs(phis).max()), 1e-300))
        got = {c.name: c for c in validate(X).checks}["actions_commute"]
        assert got.residual <= ref + 1e-15, name
        assert got.passed == (ref <= 1e-8), name


def test_validate_flags_non_hermitian_gram():
    X = from_hilbert_space(2, np.diag([1.0, 2.0]))
    G = X.right_gram.copy()
    G[0, 1, 0, 0] = 0.3        # breaks (e_p|e_q)* = (e_q|e_p)
    bad = type(X)(X.A, X.B, X.dim, G, X.left_action, X.right_action, X.left_gram)
    rep = validate(bad)
    assert not rep.passed
    assert any(c.name == "right_gram_hermitian" and not c.passed for c in rep.checks)


def test_validate_rejects_degenerate_gram():
    X = from_hilbert_space(2, np.diag([1.0, 2.0]))
    G = X.right_gram.copy()
    G[1, 1] = 0.0
    bad = type(X)(X.A, X.B, X.dim, G, X.left_action, X.right_action, X.left_gram)
    rep = validate(bad)
    assert any(c.name == "right_gram_definite" and not c.passed for c in rep.checks)


def _m2_valued(side):
    # d = 2 over C (+) C with (e_p|e_q) = e_pq in M_2: positive, hermitian,
    # linear and adjointable, but not valued in C (+) C.  As the left Gram,
    # A and B swap
    CC, C = MultiMatrixAlgebra([1, 1]), MultiMatrixAlgebra([1])
    E = np.eye(2, dtype=complex)
    units = np.einsum("pa,qb->pqab", E, E)                # [p, q] = e_pq
    proj = np.einsum("ai,bi,aj->abij", E, E, E)           # the action of e_aa is e_aa
    one, scalar = E.reshape(1, 1, 2, 2), E.reshape(2, 2, 1, 1)
    if side == "right":
        return C, CC, 2, units, one, proj, scalar
    return CC, C, 2, scalar, proj, one, units


def test_gram_off_the_block_diagonal_is_refused_at_construction():
    for side in ("right", "left"):
        with pytest.raises(StructureError, match=f"{side}_gram has an entry of size 1 "):
            HilbertBimodule(*_m2_valued(side))
    # one right-Gram entry between blocks 0 and 1 of B, without its mirror
    X = random_bimodule(*ROUNDTRIP_13, seed=1)
    assert X.B.blocks == (2, 1, 1)
    G = X.right_gram.copy()
    G[0, 1, 2, 0] = 0.3
    with pytest.raises(StructureError, match="right_gram .* between two blocks"):
        HilbertBimodule(X.A, X.B, X.dim, G, X.left_action, X.right_action, X.left_gram)
    # the bound is relative to the largest entry: round-off passes, and the
    # same entry is refused beside a Gram a thousand times smaller
    top = np.abs(X.right_gram).max()
    G[0, 1, 2, 0] = 0.5 * OFF_BLOCK_TOL * top
    HilbertBimodule(X.A, X.B, X.dim, G, X.left_action, X.right_action, X.left_gram)
    small = 1e-3 * X.right_gram
    small[0, 1, 2, 0] = G[0, 1, 2, 0]
    with pytest.raises(StructureError, match="right_gram"):
        HilbertBimodule(X.A, X.B, X.dim, small, X.left_action, X.right_action, X.left_gram)
    G[0, 1, 2, 0] = 0.0
    G[0, 1, 3, 2] = 1j * 2 * OFF_BLOCK_TOL * top           # in the imaginary part too
    with pytest.raises(StructureError, match="right_gram"):
        HilbertBimodule(X.A, X.B, X.dim, G, X.left_action, X.right_action, X.left_gram)
    L = X.left_gram.copy()
    L[1, 0, 3, 1] = 0.1
    with pytest.raises(StructureError, match="left_gram"):
        X.with_left_gram(L)


def _broken_b_linearity():
    # (x|y)' = c (x|y) c with c positive and not central in B: hermitian,
    # positive and phi-adjointable, but not B-linear
    X = random_bimodule(*ROUNDTRIP_13, seed=1)
    c = np.diag([1.0, 2.0, 1.0, 1.0])
    G = np.einsum("ab,pqbc,cd->pqad", c, X.right_gram, c)
    return HilbertBimodule(X.A, X.B, X.dim, G, X.left_action, X.right_action, X.left_gram)


def _non_psd_in_one_block():
    # the right Gram negated on the last block of B only
    X = random_bimodule(*ROUNDTRIP_13, seed=1)
    G = X.right_gram.copy()
    G[:, :, 3, 3] *= -1.0
    return HilbertBimodule(X.A, X.B, X.dim, G, X.left_action, X.right_action, X.left_gram)


def _cross_block_overlap():
    # phi(e^1_11) += 1e-3 phi(e^0_11): the images of two blocks of A overlap.
    # The change is self-adjoint and commutes with psi, so it shows in the
    # homomorphism, the unit and the left Gram's A-linearity
    X = random_bimodule(*ROUNDTRIP_13, seed=1)
    Phi = X.left_action.copy()
    Phi[2, 2] += 1e-3 * Phi[0, 0]
    return HilbertBimodule(X.A, X.B, X.dim, X.right_gram, Phi, X.right_action, X.left_gram)


def _non_generator_unit():
    # phi(e^0_22) (1-based), the one unit of A that is not an e_i1 or an
    # e_1j, moved by a self-adjoint change that commutes with psi.  Of the
    # generator identities only f_2 g_2 = phi(e_22) sees it.  The module is
    # right Hilbert: a left Gram is definite, so it would see any change of a
    # unit in the oracle's A-linearity line, which runs over every unit
    X = random_bimodule(*ROUNDTRIP_13, seed=1)
    Phi = X.left_action.copy()
    Phi[1, 1] += 1e-3 * Phi[2, 2]
    return HilbertBimodule(X.A, X.B, X.dim, X.right_gram, Phi, X.right_action)


def _psi_across_blocks():
    # psi(e^2) becomes the idempotent P_2 + 1e-3 P_2 Y P_1 (P_l = psi(e^l),
    # the units of the two one-dimensional blocks of B): each block is still
    # an antihomomorphism, but psi(e^2) psi(e^1) = 1e-3 P_2 Y P_1 is not zero
    X = random_bimodule(*ROUNDTRIP_13, seed=1)
    Psi = X.right_action.copy()
    Y = np.random.default_rng(0).standard_normal((X.dim, X.dim))
    Psi[3, 3] += 1e-3 * Psi[3, 3] @ Y @ Psi[2, 2]
    return HilbertBimodule(X.A, X.B, X.dim, X.right_gram, X.left_action, Psi, X.left_gram)


def _gram_off_the_trace():
    # eps K at the unit e_12 of B and eps K^H at e_21, eps = 5 max |G|: still
    # Hermitian, but not B-linear, and the B-valued Gram is not PSD.  The
    # trace does not see those units, so the scalar form is unchanged
    X = random_bimodule(*ROUNDTRIP_13, seed=1)
    assert X.B.blocks == (2, 1, 1)
    G = X.right_gram.copy()
    rng = np.random.default_rng(0)
    K = rng.standard_normal((X.dim, X.dim)) + 1j * rng.standard_normal((X.dim, X.dim))
    eps = 5 * np.abs(G).max() / np.abs(K).max()
    G[:, :, 0, 1] += eps * K
    G[:, :, 1, 0] += eps * K.conj().T
    return HilbertBimodule(X.A, X.B, X.dim, G, X.left_action, X.right_action, X.left_gram)


def _validate_oracle_modules():
    mods = corpus() + [(f"roundtrip_{X.dim}", X) for X in (
        random_bimodule(*shape, seed=1) for shape in (ROUNDTRIP_13, ROUNDTRIP_18, ROUNDTRIP_24))]
    for name, X in list(mods):
        Xbar = contragredient(X)
        mods += [(f"{name} (x) conj", tensor(X, Xbar)), (f"conj (x) {name}", tensor(Xbar, X))]
    # block 1 of B acts with multiplicity zero: its Gram block vanishes
    zero_block = random_bimodule([2, 1], [1, 2], [[1, 0], [2, 0]], seed=3)
    zero = mods[0][1]
    zero_gram = HilbertBimodule(zero.A, zero.B, zero.dim, 0 * zero.right_gram,
                                zero.left_action, zero.right_action, 0 * zero.left_gram)
    return mods + [("zero_block", zero_block), ("zero_gram", zero_gram),
                   ("broken_b_linearity", _broken_b_linearity()),
                   ("non_psd_in_one_block", _non_psd_in_one_block()),
                   ("cross_block_overlap", _cross_block_overlap()),
                   ("non_generator_unit", _non_generator_unit()),
                   ("psi_across_blocks", _psi_across_blocks()),
                   ("gram_off_the_trace", _gram_off_the_trace())]


# the lines that validate takes on the generators of the algebras: each
# residual is the max over a subset of the oracle's terms
GENERATOR_LINES = {"left_action_homomorphism", "right_action_antihomomorphism",
                   "right_gram_B_linear", "actions_commute", "left_gram_A_linear"}
# the lines that validate reads off the scalar trace forms; their oracle is
# scalar_form_lines, and their verdicts are unit_loop_validate's wherever
# the linearity lines and actions_commute pass
SCALAR_FORM_LINES = {"right_gram_psd", "left_action_adjointable",
                     "left_gram_psd", "right_action_left_adjointable"}


def test_validate_matches_unit_loop_oracle():
    for name, X in _validate_oracle_modules():
        got, ref, dense = validate(X), unit_loop_validate(X), scalar_form_lines(X)
        assert [c.name for c in got.checks] == [c.name for c in ref.checks], name
        if name != "gram_off_the_trace":       # built to differ: the next test
            assert [c.passed for c in got.checks] == [c.passed for c in ref.checks], name
        for c, r in zip(got.checks, ref.checks):
            if c.name.endswith("_psd"):
                assert abs(c.residual - dense[c.name]) <= 1e-14, (name, c.name, c.residual)
            elif c.name in SCALAR_FORM_LINES:
                # the generators are a subset of the units
                assert c.residual <= dense[c.name] + 1e-15, (name, c.name, c.residual)
            elif c.name in GENERATOR_LINES:
                # 1e-15 of slack for batched products
                assert c.residual <= r.residual + 1e-15, (name, c.name, c.residual, r.residual)
            else:
                assert abs(c.residual - r.residual) <= 1e-14, (name, c.name, c.residual, r.residual)


def test_validate_oracle_cases_fail_where_built_to():
    def failed(X):
        got = {c.name for c in validate(X).failures()}
        assert got == {c.name for c in unit_loop_validate(X).failures()}
        return got

    assert failed(_broken_b_linearity()) == {"right_gram_B_linear"}
    # negated on a central block, the scalar trace form is indefinite too
    assert failed(_non_psd_in_one_block()) == {"right_gram_psd", "right_gram_definite"}
    assert failed(_cross_block_overlap()) == {
        "left_action_homomorphism", "left_action_unital", "left_gram_A_linear"}
    assert failed(_non_generator_unit()) == {"left_action_homomorphism", "left_action_unital"}
    assert "right_action_antihomomorphism" in failed(_psi_across_blocks())
    # not B-linear: the scalar form passes the psd and adjointable lines that
    # the B-valued Gram fails, and passed is false either way
    X = _gram_off_the_trace()
    rep = validate(X)
    assert not rep.passed
    assert {c.name for c in rep.failures()} == {"right_gram_B_linear"}
    assert {c.name for c in unit_loop_validate(X).failures()} == {
        "right_gram_B_linear", "right_gram_psd", "left_action_adjointable"}


def test_validate_memory_below_the_module():
    # the unit-loop route peaked at 1.7 times the four structure tensors
    import tracemalloc
    X = random_bimodule(*ROUNDTRIP_24, seed=1)
    Z = tensor(X, contragredient(X))
    out = sum(t.nbytes for t in (Z.right_gram, Z.left_gram, Z.left_action, Z.right_action))
    tracemalloc.start()
    try:
        rep = validate(Z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Z.dim == 99 and rep.passed
    assert peak <= out, (peak, out)
    # the constructor's check of the block diagonal reduces to N x N sizes:
    # past the stacks it slices out, it holds a tenth of the dense tensors
    dense = (Z.right_gram, Z.left_action, Z.right_action, Z.left_gram)
    stacks = sum(t.nbytes for t in (Z.right_stack, Z.left_stack, Z.phis, Z.psis))
    tracemalloc.start()
    try:
        HilbertBimodule(Z.A, Z.B, Z.dim, *dense)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stacks + out / 10, (peak, stacks, out)


def test_validate_solves_no_eigenproblem_beyond_the_module_size(monkeypatch):
    # the B-valued positivity route took one eigvalsh per (d n_l)-square
    # Gram block, 198 on this product; the scalar forms are d x d
    X = random_bimodule(*ROUNDTRIP_24, seed=1)
    Z = tensor(X, contragredient(X))
    sides = []
    for name in ("eigvalsh", "eigh"):
        def spy(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            sides.append(np.shape(a)[-1])
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    rep = validate(Z)
    monkeypatch.undo()
    assert Z.dim == 99 and rep.passed
    assert sides and max(sides) <= Z.dim, sides


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_shapes(), st.integers(0, 2**16))
def test_validate_verdicts_match_the_oracle_on_random_shapes(shape, seed):
    X = random_bimodule(*shape, seed=seed)
    for Y in (X, tensor(X, contragredient(X))):
        got, ref = validate(Y), unit_loop_validate(Y)
        assert got.passed, [(c.name, c.residual) for c in got.failures()]
        assert [(c.name, c.passed) for c in got.checks] == [(c.name, c.passed) for c in ref.checks]
    # the right Gram negated on one central block of B that the module reaches
    l = int(np.flatnonzero(np.array(shape[0]) @ np.array(shape[2]))[0])
    G = X.right_gram.copy()
    G[:, :, X.B.block_slice(l), X.B.block_slice(l)] *= -1.0
    Y = HilbertBimodule(X.A, X.B, X.dim, G, X.left_action, X.right_action, X.left_gram)
    for rep in (validate(Y), unit_loop_validate(Y)):
        assert "right_gram_psd" in {c.name for c in rep.failures()}


# -- validate per direct summand --------------------------------------------------

# a d = 19 module whose product with its contragredient (d = 74) splits in two
SPLIT_19 = ([3, 1], [2, 1], [[2, 1], [1, 2]])


def _split_products():
    """X (x)_B conj(X) for the round-trip shapes (d = 34, 59, 99) and SPLIT_19."""
    return [tensor(X, contragredient(X)) for X in (
        random_bimodule(*shape, seed=1) for shape in (ROUNDTRIP_13, ROUNDTRIP_18, ROUNDTRIP_24,
                                                      SPLIT_19))]


def _uncached(Z, right_stack=None):
    """Z rebuilt on its stacks (or on ``right_stack``): nothing cached, no right lines."""
    return HilbertBimodule(Z.A, Z.B, Z.dim, Z.right_stack if right_stack is None else right_stack,
                           Z.phis, Z.psis, Z.left_stack, units=True)


def test_validate_per_summand_matches_the_whole_module_and_the_oracle(monkeypatch):
    # the products are direct sums over the blocks of B, one coordinate range
    # each; split or whole, validate gives the same verdicts and the
    # residuals of the unit-loop oracle
    for Z in _split_products():
        parts = _summands(Z)
        assert len(parts) > 1 and sum(Y.dim for Y in parts) == Z.dim, [Y.dim for Y in parts]
        split = validate(_uncached(Z))
        with monkeypatch.context() as m:
            m.setattr("bimod.bimodule._summands", lambda X: [X])
            whole = validate(_uncached(Z))
        ref = unit_loop_validate(Z)
        assert split.passed
        assert [(c.name, c.passed) for c in split.checks] == \
            [(c.name, c.passed) for c in whole.checks]
        for rep in (split, whole):
            worst = max(abs(c.residual - r.residual) for c, r in zip(rep.checks, ref.checks))
            assert worst <= 1e-13, (Z.dim, worst)


def test_a_defect_inside_a_summand_or_between_two_fails_as_the_oracle_says(monkeypatch):
    # one right-Gram entry moved without its mirror breaks Hermitian symmetry
    # and B-linearity: inside the first summand the module still splits,
    # between the two it no longer does.  Either way the lines match the
    # whole-module route, and the oracles as test_validate_matches_unit_loop_oracle
    # compares them: the scalar-form lines with scalar_form_lines, as
    # B-linearity fails, and the others with unit_loop_validate
    X = random_bimodule(*SPLIT_19, seed=1)
    Z = tensor(X, contragredient(X))
    assert [Y.dim for Y in _summands(Z)] == [49, 25]
    for (p, q), parts in (((0, 1), 2), ((0, 60), 1)):
        G = np.array(Z.right_stack)
        G[0, p, q] += 1e-3 * np.abs(G).max()
        Y = _uncached(Z, G)
        assert len(_summands(Y)) == parts
        got, ref, dense = validate(Y), unit_loop_validate(Y), scalar_form_lines(Y)
        with monkeypatch.context() as m:
            m.setattr("bimod.bimodule._summands", lambda X: [X])
            whole = validate(_uncached(Y))
        failing = {c.name for c in got.failures()}
        assert {"right_gram_hermitian", "right_gram_B_linear"} <= failing
        assert failing - SCALAR_FORM_LINES == {c.name for c in ref.failures()} - SCALAR_FORM_LINES
        for c, w, r in zip(got.checks, whole.checks, ref.checks):
            assert c.passed == w.passed and abs(c.residual - w.residual) <= 1e-13, (parts, c.name)
            if c.name.endswith("_psd"):
                assert abs(c.residual - dense[c.name]) <= 1e-14, (parts, c.name, c.residual)
            elif c.name in SCALAR_FORM_LINES:
                assert c.residual <= dense[c.name] + 1e-15, (parts, c.name, c.residual)
            elif c.name in GENERATOR_LINES:
                assert c.residual <= r.residual + 1e-15, (parts, c.name, c.residual, r.residual)
            else:
                assert abs(c.residual - r.residual) <= 1e-13, (parts, c.name, c.residual, r.residual)


def test_no_corpus_module_or_product_splits(monkeypatch):
    # the fixed cost of a validate call outweighs the d^3 cost it would save
    # there: no module of the corpus, nor its products with its
    # contragredient, is split
    counts = []
    monkeypatch.setattr("bimod.bimodule._summands",
                        lambda X: counts.append(len(_summands(X))) or [X])
    for _, X in corpus():
        for Y in (X, tensor(X, contragredient(X)), tensor(contragredient(X), X)):
            assert validate(Y).passed
    assert len(counts) == 36 and set(counts) == {1}


# -- Gram half-product formula -------------------------------------------------


def test_rank_one_sum_norm_single_unit_vector():
    X = from_hilbert_space(2, np.eye(2))
    x = np.array([1.0, 0.0])
    assert rank_one_sum_norm(X, [x], [x]) == pytest.approx(1.0)


def test_rank_one_sum_norm_orthonormal_identity():
    X = from_hilbert_space(2, np.eye(2))
    assert rank_one_sum_norm(X, np.eye(2), np.eye(2)) == pytest.approx(1.0)


def test_rank_one_sum_norm_vs_direct_operator_norm():
    rng = np.random.default_rng(10)
    for X in random_bimodule_family(6, seed=3):
        for trial in range(20):
            n = int(rng.integers(1, 6))
            xs = rng.standard_normal((n, X.dim)) + 1j * rng.standard_normal((n, X.dim))
            ys = rng.standard_normal((n, X.dim)) + 1j * rng.standard_normal((n, X.dim))
            S = sum(X.rank_one(x, y) for x, y in zip(xs, ys))
            direct = X.op_norm(S)
            formula = rank_one_sum_norm(X, xs, ys)
            assert formula == pytest.approx(direct, rel=1e-8, abs=1e-10)


def test_rank_one_sum_norm_length_mismatch():
    X = from_hilbert_space(2, np.eye(2))
    with pytest.raises(ContractError):
        rank_one_sum_norm(X, np.eye(2), [np.array([1.0, 0.0])])


# -- frames ---------------------------------------------------------------------


def test_tight_frame_from_scaled_spanning_set():
    X = from_hilbert_space(2, np.eye(2))
    fr = tight_frame(X, spanning=[np.array([2.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(np.abs(fr.coords), np.eye(2))
    assert fr.residual < 1e-12


def test_tight_frame_idempotent():
    for name, X in corpus()[:6]:
        fr = tight_frame(X)
        fr2 = tight_frame(X, spanning=fr.coords)
        assert fr2.residual < 1e-9
        assert np.abs(fr2.coords - fr.coords).max() < 1e-8, name


def test_frame_reconstruction():
    rng = np.random.default_rng(11)
    for name, X in corpus():
        fr = tight_frame(X)
        for _ in range(10):
            x = rng.standard_normal(X.dim) + 1j * rng.standard_normal(X.dim)
            acc = np.zeros(X.dim, dtype=complex)
            for u in fr.coords:
                acc += X.psi(X.right_inner(u, x)) @ u
            assert X.vector_norm(acc - x) <= 1e-8 * max(X.vector_norm(x), 1e-12), name


def test_frame_subfamily_contraction():
    rng = np.random.default_rng(12)
    for name, X in corpus()[:8]:
        fr = tight_frame(X)
        m = len(fr)
        for _ in range(5):
            mask = rng.random(m) < 0.5
            sub = fr.coords[mask]
            if len(sub) == 0:
                continue
            S = frame_operator(X, sub)
            assert X.op_norm(S) <= 1.0 + 1e-10, name
            ok, mn = X.op_is_positive(S)
            assert ok, name


def test_frame_norms_at_most_one():
    for name, X in corpus()[:8]:
        fr = tight_frame(X)
        for u in fr.coords:
            assert X.vector_norm(u) <= 1.0 + 1e-10, name


def test_frame_operator_is_sum_of_rank_ones():
    rng = np.random.default_rng(14)
    for name, X in corpus():
        x, y, z = rng.standard_normal((3, X.dim)) + 1j * rng.standard_normal((3, X.dim))
        # theta_{x,y} z = x . (y|z)_B
        direct = X.psi(X.right_inner(y, z)) @ x
        assert np.abs(X.rank_one(x, y) @ z - direct).max() <= 1e-12 * np.abs(direct).max(), name
        for m in (1, 3, X.dim + 2):
            vs = rng.standard_normal((m, X.dim)) + 1j * rng.standard_normal((m, X.dim))
            S = sum(X.rank_one(v, v) for v in vs)
            err = np.abs(frame_operator(X, vs) - S).max()
            assert err <= 1e-12 * max(np.abs(S).max(), 1.0), name


def test_finite_sum_inequality_with_estimated_constant():
    # lambda' * ||sum theta|| <= ||sum _A(x_i|x_i)|| for the attained lambda'
    from bimod import best_constants
    rng = np.random.default_rng(13)
    for X in random_bimodule_family(4, seed=23):
        lam_p = best_constants(X).lambda_prime_hat
        for _ in range(10):
            n = int(rng.integers(1, 5))
            xs = rng.standard_normal((n, X.dim)) + 1j * rng.standard_normal((n, X.dim))
            S = sum(X.rank_one(x, x) for x in xs)
            left = X.left_inner(xs[0], xs[0])
            for x in xs[1:]:
                left = left + X.left_inner(x, x)
            assert lam_p * X.op_norm(S) <= left.norm() + 1e-8


# -- generalized bases ------------------------------------------------------------


def test_generalized_basis_scalar_case():
    X = from_hilbert_space(1, np.eye(1))
    fr, T = generalized_basis_step(X, [np.array([1.0])])
    assert fr.coords[0, 0] == pytest.approx(1.0 / np.sqrt(2.0))
    assert T.matrix[0, 0] == pytest.approx(0.5)
    one = np.array([1.0])
    dev = X.vector_norm((T.matrix - np.eye(1)) @ one) ** 2
    assert dev == pytest.approx(0.25)


def test_generalized_basis_orthonormal_case():
    d = 4
    X = from_hilbert_space(d, np.eye(d))
    _, T = generalized_basis_step(X, np.eye(d))
    assert np.abs(T.matrix - d / (1.0 + d) * np.eye(d)).max() < 1e-12


def test_generalized_basis_contraction_and_chain():
    rng = np.random.default_rng(14)
    for X in random_bimodule_family(4, seed=31):
        mu = rng.standard_normal((2, X.dim)) + 1j * rng.standard_normal((2, X.dim))
        extra = rng.standard_normal((2, X.dim)) + 1j * rng.standard_normal((2, X.dim))
        nu = np.vstack([mu, extra])
        _, Tmu = generalized_basis_step(X, mu)
        _, Tnu = generalized_basis_step(X, nu)
        spec = X.op_spectrum(Tmu.matrix)
        assert spec.min() >= -1e-12 and spec.max() <= 1.0 + 1e-12
        ok, _ = X.op_is_positive(Tnu.matrix - Tmu.matrix)
        assert ok
        n = mu.shape[0]
        for x in mu:
            dev = X.vector_norm((Tmu.matrix - np.eye(X.dim)) @ x) ** 2
            assert dev <= 1.0 / (4 * n) + 1e-12


def test_generalized_basis_empty():
    X = from_hilbert_space(2, np.eye(2))
    with pytest.raises(ContractError):
        generalized_basis_step(X, [])


# -- contragredient, amplification, tensor ----------------------------------------


def test_contragredient_involution():
    for name, X in corpus()[:8]:
        XX = contragredient(contragredient(X))
        assert np.abs(XX.right_gram - X.right_gram).max() < 1e-14, name
        assert np.abs(XX.left_gram - X.left_gram).max() < 1e-14
        assert np.abs(XX.left_action - X.left_action).max() < 1e-14
        assert np.abs(XX.right_action - X.right_action).max() < 1e-14


def test_structure_tensors_and_the_default_frame_are_read_only():
    # the per-module caches rely on it; the caller's own arrays stay writable,
    # and the module, which keeps its own stacks at the matrix units, does not
    # see a later change to them
    X = random_bimodule([2, 1], [2, 1], [[1, 1], [2, 3]], seed=4)
    G = X.right_gram.copy()
    Y = HilbertBimodule(X.A, X.B, X.dim, G, X.left_action, X.right_action, X.left_gram)
    for arr in (Y.right_gram, Y.left_action, Y.right_action, Y.left_gram,
                Y.right_stack, Y.left_stack, Y.phis, Y.psis,
                tight_frame(Y).coords, contragredient(Y).left_gram):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    G[0, 0] = 7.0
    assert Y.right_gram[0, 0, 0, 0] == X.right_gram[0, 0, 0, 0] != 7.0


def test_cached_frames_and_contragredient_keep_no_module_alive():
    # the caches hold no reference back to their module, so a module is freed
    # by reference counting alone once its last user lets go of it
    X = random_bimodule([2, 1], [2, 1], [[1, 1], [2, 3]], seed=4)
    enabled = gc.isenabled()
    gc.disable()
    try:
        best_constants(X)
        right_index(X)
        build_conjugate(X)
        basic_construction(X).as_cp_map().is_completely_positive()
        fiber_decomposition(X)
        cp_characterization(X)
        assert contragredient(X) is contragredient(X)
        assert tight_frame(X).coords is tight_frame(X).coords
        refs = [weakref.ref(X), weakref.ref(contragredient(X))]
        del X
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_contragredient_swaps_indices():
    X = from_hilbert_space(3, np.diag([1.0, 2.0, 4.0]))
    rep = right_index(X)
    rep_bar = right_index(contragredient(X))
    assert rep_bar.r_num == pytest.approx(rep.l_num, rel=1e-10)
    assert rep_bar.l_num == pytest.approx(rep.r_num, rel=1e-10)


def test_contragredient_requires_left_gram():
    X = from_hilbert_space(2, np.eye(2))
    stripped = type(X)(X.A, X.B, X.dim, X.right_gram, X.left_action, X.right_action)
    with pytest.raises(ContractError):
        contragredient(stripped)


def test_tensor_unit_object():
    for name, X in corpus()[:6]:
        IB = identity_bimodule(X.B)
        Z = tensor(X, IB)
        assert Z.dim == X.dim, name
        # canonical map [x (x) b] -> x.b on product coordinates
        units = X.B.units_embedded()
        Wfull = np.zeros((X.dim, X.dim * IB.dim), dtype=complex)
        for p in range(X.dim):
            for q in range(IB.dim):
                Wfull[:, p * IB.dim + q] = X.psi(units[q]) @ np.eye(X.dim)[p]
        W = Wfull @ lift_matrix(Z)
        assert bimodule_map_residual(W, Z, X) < 1e-10, name


# the d = 13, 18 and 24 shapes of the conjugate round trip, and a d = 45 shape
ROUNDTRIP_13 = ([2, 1, 1], [2, 1, 1], [[1, 1, 0], [1, 1, 1], [0, 1, 2]])
ROUNDTRIP_18 = ([2, 1, 1], [2, 1, 1], [[2, 1, 0], [1, 1, 1], [0, 2, 2]])
ROUNDTRIP_24 = ([2, 1, 1], [2, 1, 1], [[2, 1, 1], [2, 1, 1], [1, 2, 2]])
SHAPE_45 = ([3, 2, 1], [3, 2, 1], [[2, 1, 1], [1, 1, 1], [1, 1, 1]])


_ORACLE_MODULES = dict(corpus() + [
    ("roundtrip_13", random_bimodule(*ROUNDTRIP_13, seed=1)),
    ("roundtrip_18", random_bimodule(*ROUNDTRIP_18, seed=1)),
    # block 1 of B acts with multiplicity zero, so X (x) Xbar skips it
    ("zero_block", random_bimodule([2, 1], [1, 2], [[1, 0], [2, 0]], seed=3))])


@pytest.mark.parametrize("order", ["X_Xbar", "Xbar_X"])
@pytest.mark.parametrize("name", list(_ORACLE_MODULES))
def test_tensor_matches_eigh_oracle(name, order):
    # both orders pin the index order of the balanced map: with e_1s (x) e_s1
    # in place of e_s1 (x) e_1s the projector is wrong on several modules
    X = _ORACLE_MODULES[name]
    a, b = (X, contragredient(X)) if order == "X_Xbar" else (contragredient(X), X)
    Z, Ze = tensor(a, b), eigh_tensor(a, b)
    lift, push, Ve = lift_matrix(Z), push_matrix(Z), lift_matrix(Ze)
    D = a.dim * b.dim
    assert Z.dim == Ze.dim and Z.meta["tensor"]["dims"] == (a.dim, b.dim)
    # push undoes lift and sends the null vectors (orthogonal to the oracle's isometry) to zero
    assert np.abs(push @ lift - np.eye(Z.dim)).max() <= 1e-12
    assert np.abs(push @ (np.eye(D) - Ve @ Ve.conj().T)).max() <= 1e-12
    assert bimodule_map_residual(Ve.conj().T @ lift, Z, Ze) <= 1e-10


def test_tensor_without_kernel_lift_inverts_push():
    count = 0
    for name, X in corpus():
        for a, b in ((X, contragredient(X)), (contragredient(X), X)):
            Z, D = tensor(a, b), a.dim * b.dim
            if Z.dim == D:
                assert np.abs(lift_matrix(Z) @ push_matrix(Z) - np.eye(D)).max() <= 1e-12, name
                count += 1
    assert count >= 6


def test_tensor_takes_no_eigh_of_the_product_size(monkeypatch):
    # nor any QR or inverse: the product stays in the basis it is built in
    X = random_bimodule(*ROUNDTRIP_24, seed=0)
    Xbar = contragredient(X)
    D = Xbar.dim * X.dim
    eigh = np.linalg.eigh

    def guarded(a, *args, **kwargs):
        if np.shape(a)[-1] == D:
            raise AssertionError(f"eigh of side D = {D}")
        return eigh(a, *args, **kwargs)

    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} in tensor")
        return call

    monkeypatch.setattr(np.linalg, "eigh", guarded)
    monkeypatch.setattr(np.linalg, "qr", refused("qr"))
    monkeypatch.setattr(np.linalg, "inv", refused("inv"))
    Z = tensor(Xbar, X)
    monkeypatch.undo()
    Ze = eigh_tensor(Xbar, X)
    push, Ve = push_matrix(Z), lift_matrix(Ze)
    assert Z.dim == Ze.dim < D
    assert np.abs(push @ (np.eye(D) - Ve @ Ve.conj().T)).max() <= 1e-12


def test_tensor_memory_at_d45():
    # the eigh route peaked at 6.1 times the returned dense tensors (328 MB);
    # the bound is now taken against the stacks the product keeps
    import tracemalloc
    X = random_bimodule(*SHAPE_45, seed=1)
    Xbar = contragredient(X)
    tracemalloc.start()
    try:
        Z = tensor(Xbar, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = sum(t.nbytes for t in (Z.right_stack, Z.left_stack, Z.phis, Z.psis))
    assert Z.dim == 153
    assert peak <= 2.5 * out, (peak, out)


def test_tensor_rejects_non_integer_corner_rank():
    X = dict(corpus())["random_112"]
    bad = HilbertBimodule(X.A, X.B, X.dim, X.right_gram, X.left_action,
                          1.3 * X.right_action, X.left_gram)
    with pytest.raises(StructureError, match="not an integer"):
        tensor(bad, contragredient(X))


def test_tensor_matches_dense_oracle():
    from bimod import build_conjugate
    from helpers import quotient_verify_conjugate
    mods = corpus() + [("roundtrip_13", random_bimodule(*ROUNDTRIP_13, seed=1))]
    for name, X in mods:
        Xbar = contragredient(X)
        for a, b in ((X, Xbar), (Xbar, X)):
            Z, Zd = tensor(a, b), dense_tensor(a, b)
            assert Z.dim == Zd.dim, name
            # coordinates of Z -> quotient coordinates of the oracle, and back
            W = push_matrix(Zd) @ lift_matrix(Z)
            back = push_matrix(Z) @ lift_matrix(Zd) @ W
            assert np.abs(back - np.eye(Z.dim)).max() <= 1e-10, name
            assert bimodule_map_residual(W, Z, Zd) <= 1e-10, name
        # the solution pushed into the oracle's quotient verifies there
        sol = build_conjugate(X)
        ZR, ZRbar = dense_tensor(Xbar, X), dense_tensor(X, Xbar)
        R, Rbar = push_matrix(ZR) @ sol.R.reshape(-1), push_matrix(ZRbar) @ sol.Rbar.reshape(-1)
        assert quotient_verify_conjugate(X, Xbar, R, Rbar, ZR=ZR, ZRbar=ZRbar).passed, name


def test_tensor_stays_below_dense_footprint():
    import tracemalloc
    X = random_bimodule(*ROUNDTRIP_24, seed=0)
    Xbar = contragredient(X)
    D = X.dim * Xbar.dim
    dense = 16 * D * D * 2 * (Xbar.A.rep_dim ** 2 + X.B.rep_dim ** 2)
    tracemalloc.start()
    try:
        Z = tensor(Xbar, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Z.dim < D
    assert peak < 0.3 * dense, (peak, dense)


def test_tensor_middle_algebra_mismatch():
    X = from_hilbert_space(2, np.eye(2))
    Y = identity_bimodule(MultiMatrixAlgebra([2]))
    with pytest.raises(ContractError):
        tensor(X, Y)


def test_tensor_associativity_spectra():
    X = random_bimodule([1], [2], [[1]], seed=41)
    Y = random_bimodule([2], [1, 1], [[1, 1]], seed=42)
    Z = random_bimodule([1, 1], [1], [[1], [1]], seed=43)
    left = tensor(tensor(X, Y), Z)
    right = tensor(X, tensor(Y, Z))
    assert left.dim == right.dim
    sl = np.linalg.eigvalsh(left.scalar_gram)
    sr = np.linalg.eigvalsh(right.scalar_gram)
    # the Gram spectra agree after matching normalization conventions
    gl = np.linalg.eigvalsh(np.einsum("pqaa->pq", left.right_gram))
    gr = np.linalg.eigvalsh(np.einsum("pqaa->pq", right.right_gram))
    assert np.abs(np.sort(gl) - np.sort(gr)).max() < 1e-8


def test_tensor_graph_path_count():
    g = four_cycle_graph()
    rep = from_weight_graph(g)
    h = GraphSpec(["a", "b", "c", "d"],
                  [("a", "c", 1.0), ("c", "a", 0.5), ("b", "d", 2.0), ("d", "b", 1.0)])
    rep2 = from_weight_graph(h)
    Z = tensor(rep.bimodule, rep2.bimodule)
    paths = 0
    for _, r1, _ in g.edges:
        for s2, _, _ in h.edges:
            paths += int(r1 == s2)
    assert Z.dim == paths
    assert validate(Z).passed


def test_amplify_identity_and_structure():
    X = random_bimodule([1], [2], [[1]], seed=44)
    X1 = amplify(X, 1)
    assert np.abs(X1.right_gram - X.right_gram).max() == 0.0
    Y = amplify(X, 3)
    assert Y.dim == 3 * X.dim
    assert Y.A.blocks == (3,)
    assert validate(Y).passed


def test_amplify_preserves_indices():
    X = from_hilbert_space(2, np.diag([1.0, 2.0]))
    rep = right_index(X)
    rep2 = right_index(amplify(X, 2))
    assert rep2.r_num == pytest.approx(rep.r_num, abs=1e-8)
    assert rep2.l_num == pytest.approx(rep.l_num, abs=1e-8)
    Xr = random_bimodule([2], [1], [[1]], seed=45)
    repr_ = right_index(Xr)
    rep3 = right_index(amplify(Xr, 3))
    assert rep3.r_num == pytest.approx(repr_.r_num, abs=1e-8)
    assert rep3.l_num == pytest.approx(repr_.l_num, abs=1e-8)


def test_amplify_rejects_bad_order():
    X = from_hilbert_space(2, np.eye(2))
    with pytest.raises(ContractError):
        amplify(X, 0)


# -- the corner record ---------------------------------------------------------------

_LADDER_SHAPES = [([2, 1], [2, 1], [[1, 1], [2, 3]]), ([2, 1], [2, 1], [[2, 2], [2, 2]])]


def _corner_record_cases():
    cases = [pytest.param(X, id=name) for name, X in corpus()]
    cases += [pytest.param(random_bimodule(*shape, seed=1), id=f"ladder_{i}")
              for i, shape in enumerate(_LADDER_SHAPES)]
    X = random_bimodule(*_LADDER_SHAPES[0], seed=1)
    return cases + [pytest.param(tensor(X, contragredient(X)), id="product")]


@pytest.mark.parametrize("X", _corner_record_cases())
def test_corner_record_factors_every_unit_image(X):
    # per block l, W is orthonormal with the rank of act(e^l_11), and the
    # factor stacks give phi(e^l_ab) = F[a] H[b] and psi(e^l_ab) = F[b] H[a]
    for left, alg, stack in ((True, X.A, X.phis), (False, X.B, X.psis)):
        scale = np.abs(stack).max()
        for (W, F, H), part in zip(_corner_ranges(X, left), _unit_blocks(stack, alg)):
            assert W.shape[1] == round(np.trace(part[0, 0]).real)
            assert np.abs(W.conj().T @ W - np.eye(W.shape[1])).max() <= 1e-12
            prod = F[:, None] @ H[None]                     # [a, b] = F[a] H[b]
            image = part if left else part.transpose(1, 0, 2, 3)
            assert np.abs(prod - image).max() <= 1e-12 * scale, (left, alg.blocks)


def test_corner_records_take_one_svd_per_block_side_and_module(monkeypatch):
    # tensor(X, Xbar), build_conjugate(X) and verify_conjugate read the corner
    # records of both sides of X and Xbar, each built once, with one SVD per
    # block of nonzero rank
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(a.shape)
                        or svd(a, *args, **kw))
    X = random_bimodule(*_LADDER_SHAPES[1], seed=1)
    Xbar = contragredient(X)
    tensor(X, Xbar)
    sol = build_conjugate(X)
    assert sol.Y is Xbar
    verify_conjugate(X, Xbar, sol.R, sol.Rbar)
    blocks = sum(np.trace(act[o]).real > 0.5 for M in (X, Xbar)
                 for alg, act in ((M.A, M.phis), (M.B, M.psis))
                 for o in np.cumsum([0] + [n * n for n in alg.blocks[:-1]]))
    assert blocks == 2 * (len(X.A.blocks) + len(X.B.blocks))
    assert calls == [(X.dim, X.dim)] * blocks
