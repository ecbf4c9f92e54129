import numpy as np
import pytest

from bimod import (
    CPMap,
    ContractError,
    MultiMatrixAlgebra,
    center_decompose,
    decompose_star_algebra,
    from_hilbert_space,
    functional_calculus,
    operator_norm,
)
from bimod.multimatrix import DEFAULT_TOL

from helpers import random_element, random_hermitian


def test_operator_norm_identity_and_diag():
    M2 = MultiMatrixAlgebra([2])
    assert operator_norm(M2.identity()) == pytest.approx(1.0)
    assert operator_norm(M2.element([np.diag([1.0, 2.0])])) == pytest.approx(2.0)


def test_operator_norm_matches_eigen_oracle():
    alg = MultiMatrixAlgebra([3, 2])
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = random_hermitian(alg, rng)
        oracle = max(np.abs(np.linalg.eigvalsh(b)).max() for b in x.blocks)
        assert operator_norm(x) == pytest.approx(oracle, rel=1e-10)


def test_operator_norm_zero_iff_zero():
    alg = MultiMatrixAlgebra([2, 2])
    assert operator_norm(alg.zero()) == 0.0


def test_cstar_identity():
    alg = MultiMatrixAlgebra([3, 1, 2])
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = random_element(alg, rng)
        assert operator_norm(x.adjoint() * x) == pytest.approx(operator_norm(x) ** 2,
                                                               rel=1e-10)


def test_positivity_rejects_non_hermitian():
    M2 = MultiMatrixAlgebra([2])
    x = M2.element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ContractError):
        functional_calculus(x, np.sqrt)


def _positivity_by_module(top, least):
    X = from_hilbert_space(2, np.diag([1.0, 2.0]))
    return X.op_is_positive(X.op_unrep(np.diag([top, least])))


def _positivity_by_choi(top, least):
    source = MultiMatrixAlgebra([1])
    return CPMap(source, [np.diag([top, least]).reshape(1, 1, 2, 2)]).is_completely_positive()


@pytest.mark.parametrize("verdict", [_positivity_by_module, _positivity_by_choi])
def test_positivity_verdicts_share_default_tol(verdict):
    """Each verdict is least eigenvalue >= -DEFAULT_TOL (1 + s), with s = 7
    its own scale: the largest |eigenvalue| of op_rep(T) and the largest
    |Choi eigenvalue|.  Half the slack passes, twice it fails."""
    slack = DEFAULT_TOL * (1 + 7.0)
    ok, mn = verdict(7.0, -0.5 * slack)
    assert ok and mn == pytest.approx(-0.5 * slack, rel=1e-6)
    ok, mn = verdict(7.0, -2.0 * slack)
    assert not ok and mn == pytest.approx(-2.0 * slack, rel=1e-6)


def test_functional_calculus_sqrt_and_identity():
    alg = MultiMatrixAlgebra([2])
    x = alg.element([np.diag([4.0, 9.0])])
    s = functional_calculus(x, np.sqrt)
    assert np.allclose(s.blocks[0], np.diag([2.0, 3.0]))
    rng = np.random.default_rng(3)
    h = random_hermitian(alg, rng)
    assert (functional_calculus(h, lambda t: t) - h).norm() < 1e-12


def test_functional_calculus_commutes_and_multiplicative():
    alg = MultiMatrixAlgebra([3, 2])
    rng = np.random.default_rng(4)
    h = random_hermitian(alg, rng)
    f = lambda t: t ** 2 - 1.0
    g = lambda t: 0.5 * t + 2.0
    fg = functional_calculus(h, f) * functional_calculus(h, g)
    combined = functional_calculus(h, lambda t: f(t) * g(t))
    assert (fg - combined).norm() < 1e-9
    assert (functional_calculus(h, f) * h - h * functional_calculus(h, f)).norm() < 1e-10


def test_center_decompose():
    assert len(center_decompose(MultiMatrixAlgebra([2]))) == 1
    ps = center_decompose(MultiMatrixAlgebra([1, 1]))
    assert len(ps) == 2
    assert np.allclose((ps[0] + ps[1]).embed(), np.eye(2))
    ps = center_decompose(MultiMatrixAlgebra([2, 3]))
    ranks = [int(np.trace(p.embed()).real) for p in ps]
    assert ranks == [2, 3]


def test_central_projections_properties():
    alg = MultiMatrixAlgebra([2, 3, 1])
    ps = center_decompose(alg)
    rng = np.random.default_rng(6)
    for i, p in enumerate(ps):
        assert (p * p - p).norm() < 1e-14
        assert (p - p.adjoint()).norm() < 1e-14
        for j in range(i + 1, len(ps)):
            assert (p * ps[j]).norm() < 1e-14
    for _ in range(100):
        x = random_element(alg, rng)
        for p in ps:
            assert (p * x - x * p).norm() < 1e-12 * (1 + x.norm())


def test_decompose_star_algebra_recovers_blocks():
    # M_2 (+) C embedded with multiplicities (2, 3) and conjugated by a unitary
    rng = np.random.default_rng(7)
    alg = MultiMatrixAlgebra([2, 1])
    t = 2 * 2 + 1 * 3
    g = rng.standard_normal((t, t)) + 1j * rng.standard_normal((t, t))
    u, _ = np.linalg.qr(g)
    span = []
    for k, i, j in alg.unit_triples():
        mat = np.zeros((t, t), dtype=complex)
        if k == 0:
            for c in range(2):
                mat[2 * c + i, 2 * c + j] = 1.0
        else:
            for c in range(3):
                mat[4 + c, 4 + c] = 1.0
        span.append(u @ mat @ u.conj().T)
    dec = decompose_star_algebra(np.array(span))
    assert sorted(dec.algebra.blocks) == [1, 2]
    assert sorted(dec.multiplicities) == [2, 3]
    # units must reproduce the span and satisfy the relations
    for blk in dec.units:
        k = blk.shape[0]
        for i in range(k):
            for j in range(k):
                for a in range(k):
                    prod = blk[i, j] @ blk[j, a]
                    assert np.abs(prod - blk[i, a]).max() < 1e-8
    # each matrix of the span is its projection onto the units: the units of
    # a block are orthogonal with Hilbert-Schmidt norm^2 its multiplicity
    for mat in span:
        back = sum(np.einsum("ij,ijab->ab", np.einsum("ijab,ab->ij", u.conj(), mat) / mu, u)
                   for u, mu in zip(dec.units, dec.multiplicities))
        assert np.abs(back - mat).max() < 1e-8


@pytest.mark.parametrize("blocks", [[1], [3], [2, 1], [3, 2, 1], [1, 1, 1], [4, 2]])
def test_units_embedded_is_the_embedding_of_each_unit(blocks):
    # in unit_triples order, bitwise the embedding of each AlgebraElement unit
    alg = MultiMatrixAlgebra(blocks)
    got = alg.units_embedded()
    ref = np.stack([alg.unit(*t).embed() for t in alg.unit_triples()])
    assert got.shape == ref.shape and got.view(np.uint64).tobytes() == ref.view(np.uint64).tobytes()
