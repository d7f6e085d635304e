from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierarchon.cyclo import CycloScalar
from hierarchon.diagonal import (
    RankKPoly,
    dxd_step,
    gen_delta_k,
    precision_degree,
    rank_polys,
    twist,
    verify_cgk,
)
from hierarchon.exactmat import ExactMatrix, ScaledUnitary
from hierarchon.hierarchy import enumerate_level, membership
from hierarchon.phasespace import pauli_x, pauli_z, to_matrix


def key(M):
    return M.canonical_rep().to_key()


def keyset(gates):
    return {key(D) for D in gates}


def test_precision_degree_examples():
    assert precision_degree(1, 3)[1:] == (1, 1)
    assert precision_degree(3, 3)[1:] == (2, 1)
    assert precision_degree(4, 5)[1:] == (1, 4)
    with pytest.raises(ValueError):
        precision_degree(0, 3)


@given(d=st.sampled_from([3, 5, 7]), k=st.integers(1, 40))
def test_precision_degree_is_a_bijection(d, k):
    _, m, a = precision_degree(k, d)
    assert 1 <= a <= d - 1 and m >= 1
    assert (m - 1) * (d - 1) + a == k


def test_rank_poly_validation():
    with pytest.raises(ValueError, match="vanish"):
        RankKPoly(3, 1, (0, 1))
    with pytest.raises(ValueError, match="coefficient per power"):
        RankKPoly(3, 1, (1,))
    # degree-2 coefficient is free once k reaches the degree
    RankKPoly(3, 2, (0, 1))


def test_rank_poly_lifts_points_to_integers():
    # phi(z) = z**2 at precision 2: phi(2) = 4, not 4 mod 3
    phi = RankKPoly(3, 4, (0, 1))
    assert phi(2) == 4
    z9 = CycloScalar.zeta(3, 2, 1)
    assert phi.gate().entry(2, 2) == z9 ** 4


def test_delta_one_is_the_z_line():
    Z = to_matrix(pauli_z(3, 1, 1))
    assert keyset(gen_delta_k(3, 1)) == keyset([ExactMatrix.identity(3, 3, 1), Z, Z.pow_int(2)])


@pytest.mark.parametrize("d,k", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2)])
def test_delta_family_size_and_normalisation(d, k):
    fam = gen_delta_k(d, k)
    assert len(fam) == d ** k
    assert len(keyset(fam)) == d ** k
    one = CycloScalar.from_rational(d, Fraction(1))
    for D in fam:
        assert D.is_diagonal()
        assert D.entry(0, 0) == one


def test_delta_three_contains_the_nine_phase_gate():
    z9 = CycloScalar.zeta(3, 2, 1)
    one = CycloScalar.from_rational(3, Fraction(1))
    T9 = ExactMatrix.diag(3, [one, z9, z9 * z9])
    assert key(T9) in keyset(gen_delta_k(3, 3))


def test_twist_worked_example():
    phi = RankKPoly(3, 3, (1, 0))
    z9 = CycloScalar.zeta(3, 2, 1)
    assert twist(phi, 1) == ExactMatrix.diag(3, [z9 ** 7, z9, z9])
    assert twist(phi, 0).is_identity()
    assert twist(phi, 2).is_diagonal()


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 4),
    seed=st.integers(0, 10 ** 6),
    q=st.integers(0, 2),
)
def test_twist_matches_the_conjugation_product(k, seed, q):
    import random

    rng = random.Random(seed)
    _, m, a = precision_degree(k, 3)
    mod = 3 ** m
    coeffs = [rng.randrange(mod) if j <= a else 3 * rng.randrange(mod // 3) for j in (1, 2)]
    phi = RankKPoly(3, k, coeffs)
    D = phi.gate()
    X = to_matrix(pauli_x(3, 1, 1))
    Xq = X.pow_int(q) if q else ExactMatrix.identity(3, 3, 1)
    shifted = Xq @ D @ Xq.dagger()
    assert twist(phi, q) == D @ shifted.dagger()


def test_twist_drops_one_level():
    for k in (2, 3, 4):
        lower = keyset(gen_delta_k(3, k - 1))
        for phi in rank_polys(3, k):
            for q in range(3):
                assert key(twist(phi, q)) in lower
    for phi in rank_polys(3, 1):
        for q in range(3):
            assert twist(phi, q).scalar_if_scalar() is not None


def test_delta_nesting():
    for k in (1, 2, 3, 4, 5):
        assert keyset(gen_delta_k(3, k)) <= keyset(gen_delta_k(3, k + 1))


def test_delta_is_a_group_up_to_normalisation():
    for k in (1, 2, 3, 4):
        fam = gen_delta_k(3, k)
        keys = keyset(fam)
        for A in fam:
            for B in fam:
                assert key(A @ B) in keys


def test_dxd_step_on_z():
    Z = to_matrix(pauli_z(3, 1, 1))
    down, phases = dxd_step(Z)
    assert down.is_identity()
    assert phases == [CycloScalar.omega(3, j) for j in range(3)]


def test_dxd_step_on_the_nine_phase_gate():
    one = CycloScalar.from_rational(3, Fraction(1))
    z9 = CycloScalar.zeta(3, 2, 1)
    w = CycloScalar.omega(3)
    down, phases = dxd_step(ExactMatrix.diag(3, [one, z9, z9 * z9]))
    assert down == ExactMatrix.diag(3, [one, w, w])
    X = to_matrix(pauli_x(3, 1, 1))
    lam = (down @ X).pow_int(3).scalar_if_scalar()
    assert lam is not None
    for ph in phases:
        assert (ph ** 3) * lam == one


def test_dxd_step_rejects_nondiagonal():
    with pytest.raises(ValueError, match="diagonal"):
        dxd_step(to_matrix(pauli_x(3, 1, 1)))


def test_dxd_step_lands_one_level_down():
    import random

    rng = random.Random(5)
    fam = gen_delta_k(3, 3)
    for D in fam:
        down, _ = dxd_step(D)
        assert membership(ScaledUnitary.exact(down), 2)
    for D in rng.sample(gen_delta_k(3, 4), 6):
        down, _ = dxd_step(D)
        assert membership(ScaledUnitary.exact(down), 3)


def test_verify_cgk_reports():
    for d, k, total in [(3, 1, 3), (3, 3, 27), (5, 2, 25)]:
        report = verify_cgk(d, k, enumerate_level(d, k))
        assert set(report) == {"d", "k", "delta_count", "diagonal_in_catalog", "missing", "extra"}
        assert report["d"] == d and report["k"] == k
        assert report["delta_count"] == total
        assert report["diagonal_in_catalog"] == total
        assert report["missing"] == [] and report["extra"] == []


def test_verify_cgk_flags_a_wrong_catalog():
    # the level-1 catalog misses every nontrivial level-2 diagonal
    report = verify_cgk(3, 2, enumerate_level(3, 1))
    assert report["delta_count"] == 9
    assert len(report["missing"]) == 6
    assert report["diagonal_in_catalog"] == 3
    # the level-3 catalog holds 27 - 9 diagonal classes the level-2 family misses
    report = verify_cgk(3, 2, enumerate_level(3, 3))
    assert report["missing"] == [] and len(report["extra"]) == 18
    assert report["diagonal_in_catalog"] == 27
