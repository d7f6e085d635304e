import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierarchon.cyclo import (
    Conductor,
    CycloScalar,
    conductor,
    max_abs,
    monomial_log,
    norm_inverse,
    normalize,
    root_of_unity_log,
)
from hierarchon.exactmat import _entry_inverse


def embed(s):
    """Independent oracle: evaluate at zeta = exp(2*pi*i/c) in floats."""
    c = s.cond.c
    z = cmath.exp(2j * cmath.pi / c)
    return sum(n * z ** e for e, n in enumerate(s.nums)) / s.den


def close(a, b, tol=1e-9):
    return abs(a - b) < tol


# ---------------------------------------------------------------------------
# fixed values

def test_primitive_relation_vanishes():
    z = CycloScalar.zeta(3, 1)
    assert (1 + z + z * z).is_zero()


def test_zeta9_inverse_power():
    z = CycloScalar.zeta(3, 2)
    assert z * z ** 8 == 1


def test_promotion_matches_power():
    w = CycloScalar.omega(3)
    z9 = CycloScalar.zeta(3, 2)
    assert w.promote(2) == z9 ** 3
    assert w == z9 ** 3  # mixed-conductor comparison promotes on its own


def test_reduced_form_of_omega_squared():
    w2 = CycloScalar.omega(3) ** 2
    assert w2.nums == (-1, -1)
    assert w2.root_of_unity_log() == 2


def test_inverse_of_one_plus_omega():
    w = CycloScalar.omega(3)
    inv = (1 + w).inverse()
    assert inv == -w
    assert inv * (1 + w) == 1


def test_demotion_of_embedded_element():
    z9 = CycloScalar.zeta(3, 2)
    back = (z9 ** 3).demote_min()
    assert back.m == 1
    assert back == CycloScalar.omega(3)
    assert (z9 ** 1).demote_min().m == 2


def test_minus_one_is_not_an_odd_root():
    s = CycloScalar.from_rational(3, -1, 2)
    with pytest.raises(ValueError, match="not a pure phase"):
        s.root_of_unity_log()


def test_unit_circle_element_that_is_no_root():
    # (8 + 3*omega)/7 has |.| = 1 but infinite multiplicative order
    w = CycloScalar.omega(3)
    a = (8 + 3 * w) / 7
    assert a.abs2() == 1
    with pytest.raises(ValueError, match="not a pure phase"):
        a.root_of_unity_log()
    assert close(abs(embed(a)), 1.0)


def test_norm_inverse_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        CycloScalar.zero(3).inverse()


def test_normalize_clears_content_and_sign():
    nums, den = normalize(np.array([6, -9], dtype=np.int64), -3)
    assert list(nums) == [-2, 3] and den == 1


@pytest.mark.parametrize("d,m", [(3, 1), (3, 2), (5, 1), (7, 1), (3, 3)])
def test_conductor_tables(d, m):
    cond = conductor(d, m)
    assert cond.phi == cond.c - cond.c // d
    # every raw exponent reduces to something that embeds equal
    z = cmath.exp(2j * cmath.pi / cond.c)
    for e in range(cond.c):
        vec = cond.zeta_vec(e)
        val = sum(int(n) * z ** i for i, n in enumerate(vec))
        assert close(val, z ** e)
        got = root_of_unity_log(vec, 1, cond)
        assert got == e


# ---------------------------------------------------------------------------
# properties

small_int = st.integers(min_value=-9, max_value=9)


def scalars(d, m):
    cond = conductor(d, m)
    return st.builds(
        lambda nums, den: CycloScalar(d, m, nums, den),
        st.lists(small_int, min_size=cond.phi, max_size=cond.phi),
        st.integers(min_value=1, max_value=7),
    )


@given(scalars(3, 2), scalars(3, 2), scalars(3, 2))
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(scalars(3, 2))
def test_embed_respects_product(a):
    assert close(embed(a * a), embed(a) ** 2)


@given(scalars(5, 1))
def test_inverse_roundtrip(a):
    if a.is_zero():
        return
    assert a * a.inverse() == 1


@given(scalars(3, 2))
def test_conjugation_is_an_involution(a):
    assert a.conjugate().conjugate() == a
    assert close(embed(a.conjugate()), embed(a).conjugate())


@given(scalars(3, 2), st.sampled_from([1, 2, 4, 5, 7, 8]))
def test_galois_is_a_field_map(a, u):
    assert close(
        embed(a.galois(u)),
        sum(n * cmath.exp(2j * cmath.pi * u * e / 9) for e, n in enumerate(a.nums))
        / a.den,
    )
    assert a.galois(u).galois(pow(u, -1, 9)) == a


@given(st.sampled_from([3, 5, 7]), st.integers(min_value=0, max_value=48))
def test_root_log_roundtrip(d, t):
    z = CycloScalar.zeta(d, 2, t)
    assert z.root_of_unity_log() == t % (d * d)
    with pytest.raises(ValueError):
        (2 * z).root_of_unity_log()


@given(scalars(3, 1), st.integers(min_value=1, max_value=3))
def test_promotion_preserves_arithmetic(a, m):
    b = a.promote(m)
    assert close(embed(a), embed(b))
    assert b.demote_min() == a.demote_min()


@settings(max_examples=30)
@given(scalars(7, 1), scalars(7, 1))
def test_scalar_product_matches_embedding(a, b):
    assert close(embed(a * b), embed(a) * embed(b))


@settings(max_examples=20)
@given(scalars(5, 1))
def test_norm_inverse_arbitrary_elements(a):
    if a.is_zero():
        return
    nums, den = norm_inverse(np.array(a.nums, dtype=object), a.den, conductor(5, 1))
    inv = CycloScalar(5, 1, np.asarray(nums, dtype=object), den)
    assert inv * a == 1


@pytest.mark.parametrize("d,m", [(3, 2), (5, 2), (3, 3)], ids=["c9", "c25", "c27"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_product_and_inverse_at_prime_power_conductors(d, m, data):
    a = data.draw(scalars(d, m))
    b = data.draw(scalars(d, m))
    assert close(embed(a * b), embed(a) * embed(b))
    if a.is_zero():
        return
    nums, den = norm_inverse(np.array(a.nums, dtype=object), a.den, conductor(d, m))
    inv = CycloScalar(d, m, np.asarray(nums, dtype=object), den)
    assert inv * a == 1
    assert close(embed(inv), 1 / embed(a))


# ---------------------------------------------------------------------------
# reduction and monomials


def table_reduce(cond, arr):
    """The reduction as a product with the tail rows of a table built per exponent."""
    tail = np.zeros((cond.step, cond.phi), dtype=np.int64)
    for e in range(cond.phi, cond.c):
        for j in range(cond.d - 1):
            tail[e - cond.phi, j * cond.step + e - cond.phi] = -1
    return arr[..., : cond.phi] + arr[..., cond.phi:] @ tail


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
def test_reduce_matches_the_table_oracle(d, m, dtype, lead):
    cond = conductor(d, m)
    raw = np.random.default_rng(d * 100 + m).integers(-50, 50, size=lead + (cond.c,))
    if dtype is object:
        raw = raw.astype(object) * 2 ** 70
    got = cond.reduce(raw.astype(dtype))
    want = table_reduce(cond, raw.astype(dtype))
    assert got.shape == lead + (cond.phi,)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d,m", [(3, 2), (5, 2), (7, 2)], ids=["c9", "c25", "c49"])
def test_monomial_log_finds_every_monomial(d, m):
    cond = conductor(d, m)
    for t in range(cond.c):
        for v in (1, -1, 2, -2):
            assert monomial_log(v * cond.zeta_vec(t), cond) == (t, v)
            assert monomial_log(v * cond.zeta_vec(t, dtype=object), cond) == (t, v)


@pytest.mark.parametrize("d,m", [(3, 2), (5, 2), (7, 2)], ids=["c9", "c25", "c49"])
def test_monomial_log_rejects_non_monomials(d, m):
    cond = conductor(d, m)
    coset = cond.zeta_vec(cond.phi)
    uneven = coset.copy()
    uneven[0] = -2
    spaced = np.zeros(cond.phi, dtype=np.int64)
    spaced[: d - 1] = -1  # d-1 equal entries off the coset spacing
    for vec in (0 * coset, cond.zeta_vec(0) + cond.zeta_vec(1), uneven, spaced,
                coset + cond.zeta_vec(1), np.ones(cond.phi, dtype=np.int64)):
        assert monomial_log(vec, cond) is None


@pytest.mark.parametrize("d,m", [(3, 2), (5, 2)], ids=["c9", "c25"])
def test_entry_inverse_of_a_monomial_is_the_norm_inverse(d, m):
    cond = conductor(d, m)
    for t in range(cond.c):
        for v in (1, -1, 2, -3):
            vec = v * cond.zeta_vec(t)
            fast_nums, fast_den = _entry_inverse(vec, cond)
            fast = CycloScalar(d, m, np.asarray(fast_nums, dtype=object), fast_den)
            slow_nums, slow_den = norm_inverse(vec, 1, cond)
            assert fast == CycloScalar(d, m, np.asarray(slow_nums, dtype=object), slow_den)
            assert fast * CycloScalar(d, m, vec.astype(object)) == 1


def min_level_then_demote(cond, arr):
    """Demotion as first written: find the level, then check the support again."""
    m_new = cond.m
    while m_new > 1:
        f = cond.c // conductor(cond.d, m_new - 1).c
        if np.any(arr.reshape(arr.shape[:-1] + (cond.phi // f, f))[..., 1:]):
            break
        m_new -= 1
    if m_new == cond.m:
        return m_new, np.array(arr)
    f = cond.c // conductor(cond.d, m_new).c
    split = arr.reshape(arr.shape[:-1] + (cond.phi // f, f))
    assert not np.any(split[..., 1:])
    return m_new, split[..., 0].copy()


@pytest.mark.parametrize("d,m", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3)])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_demote_min_matches_min_level_then_demote(d, m, dtype):
    cond = conductor(d, m)
    rng = np.random.default_rng(d * 10 + m)
    levels = set()
    for lead in ((), (3,), (2, 3)):
        for m0 in range(1, m + 1):
            small = conductor(d, m0)
            for _ in range(4):
                arr = rng.integers(-9, 10, size=lead + (small.phi,)) * rng.integers(0, 2)
                if m0 < m:
                    arr = small.promote_tensor(arr, m)
                if rng.integers(3) == 0:
                    arr = arr.copy()
                    arr[(0,) * len(lead) + (rng.integers(cond.phi),)] += 1
                if dtype is object:
                    arr = arr.astype(object) * 2 ** 70
                got_m, got = cond.demote_min(arr)
                want_m, want = min_level_then_demote(cond, arr)
                assert got_m == want_m
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert np.array_equal(got, want)
                levels.add(got_m)
    assert levels == set(range(1, m + 1))


# ---------------------------------------------------------------------------
# input checks


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: Conductor(2, 1), ValueError, "power of an odd prime"),
        (lambda: Conductor(3, 0), ValueError, "power of an odd prime"),
        # odd composites: phi(d) is not d - 1, so no reduction table is right
        (lambda: Conductor(9, 1), ValueError, "power of an odd prime"),
        (lambda: Conductor(15, 1), ValueError, "power of an odd prime"),
        (lambda: conductor(3, 2).galois(np.zeros(6, dtype=np.int64), 3), ValueError, "gcd"),
        (lambda: conductor(3, 2).promote_tensor(np.zeros(6, dtype=np.int64), 1), ValueError,
         "cannot shrink"),
        (lambda: normalize([1, 2], 0), ZeroDivisionError, "zero denominator"),
        (lambda: CycloScalar(3, 1, [1, 2, 3]), ValueError, "expected 2 coefficients"),
        (lambda: CycloScalar.omega(3) + CycloScalar.omega(5), ValueError, "mixed base primes"),
        (lambda: CycloScalar.omega(3).as_fraction(), ValueError, "not rational"),
    ],
    ids=["d-even", "m-zero", "d-nine", "d-fifteen", "galois-non-unit", "promote-shrinks",
         "zero-den", "coefficient-count", "mixed-primes", "irrational-fraction"],
)
def test_input_checks_refuse(call, error, match):
    with pytest.raises(error, match=match):
        call()


w3, w5 = CycloScalar.omega(3), CycloScalar.omega(5)


@pytest.mark.parametrize(
    "got, want",
    [
        (max_abs(np.zeros((0, 2), dtype=np.int64)), 0),
        (1 - w3, -(w3 - 1)),
        (1 / w3, w3.inverse()),
        (w3 ** -1, w3.conjugate()),
        (w3 ** -2, w3),
        (w3 == "w", False),
        # across base primes only rational values compare, by value
        (CycloScalar.from_rational(3, Fraction(2, 3)) == CycloScalar.from_rational(5, Fraction(2, 3)),
         True),
        (CycloScalar.from_rational(3, 2) == CycloScalar.from_rational(5, 3), False),
        (w3 == w5, False),
    ],
    ids=["max-abs-empty", "rsub", "rtruediv", "pow-minus-one", "pow-minus-two", "eq-other-type",
         "eq-rational-across-primes", "eq-rational-differs", "eq-irrational-across-primes"],
)
def test_reflected_operators_and_mixed_comparisons(got, want):
    assert got == want and type(got) is type(want)
