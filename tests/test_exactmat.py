import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierarchon.cyclo import CycloScalar, _is_prime, conductor
from hierarchon.exactmat import (
    INTERCHANGE_VERSION,
    ExactMatrix,
    FingerprintContext,
    ScaledUnitary,
    canonical_reps,
    conjugate_action,
    equal_up_to_phase,
    _field,
    _is_int,
    from_interchange,
    kron,
    matmul_many,
    max_conductor,
    orbit_sum,
    powers,
    to_interchange,
)
from hierarchon.phasespace import PauliElement, times_pauli


def to_complex(M):
    """Independent oracle: the matrix evaluated at zeta = exp(2*pi*i/c) in floats."""
    pows = np.exp(2j * np.pi / M.cond.c) ** np.arange(M.cond.phi)
    return (M.nums.astype(np.complex128) @ pows) / M.den


def zmat(d):
    w = CycloScalar.omega(d)
    return ExactMatrix.diag(d, [w ** z for z in range(d)])


def xmat(d):
    grid = [[1 if i == (j + 1) % d else 0 for j in range(d)] for i in range(d)]
    return ExactMatrix.from_scalars(d, grid)


def fmat(d):
    """Unnormalised DFT, entries omega**(z*y); a ScaledUnitary with scale2 = d."""
    w = CycloScalar.omega(d)
    grid = [[w ** (z * y) for y in range(d)] for z in range(d)]
    return ScaledUnitary(ExactMatrix.from_scalars(d, grid), d)


def rand_mat(rng, d, m, dim, span=9):
    cond = conductor(d, m)
    return ExactMatrix(
        d, m, rng.integers(-span, span, size=(dim, dim, cond.phi)),
        int(rng.integers(1, 5)),
    )


rng = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# arithmetic against the complex embedding

def test_matmul_matches_embedding():
    a = rand_mat(rng, 3, 2, 4)
    b = rand_mat(rng, 3, 2, 4)
    assert np.allclose(to_complex(a @ b), to_complex(a) @ to_complex(b))
    assert np.allclose(to_complex(a + b), to_complex(a) + to_complex(b))
    assert np.allclose(to_complex(a - b), to_complex(a) - to_complex(b))


def test_mixed_conductor_product_promotes():
    a = rand_mat(rng, 3, 1, 3)
    b = rand_mat(rng, 3, 2, 3)
    prod = a @ b
    assert prod.m == 2
    assert np.allclose(to_complex(prod), to_complex(a) @ to_complex(b))


def test_dagger_is_conjugate_transpose():
    a = rand_mat(rng, 5, 1, 4)
    assert np.allclose(to_complex(a.dagger()), to_complex(a).conj().T)


def test_scale_by_scalar():
    a = rand_mat(rng, 3, 2, 3)
    s = CycloScalar(3, 2, [1, -2, 0, 3, 0, 1], 5)
    got = a.scale(s)
    z = np.exp(2j * np.pi / 9)
    sval = sum(n * z ** e for e, n in enumerate(s.nums)) / s.den
    assert np.allclose(to_complex(got), sval * to_complex(a))


def test_object_dtype_path_kicks_in():
    big = 2 ** 45
    nums = np.zeros((2, 2, 2), dtype=np.int64)
    nums[0, 0, 0] = big
    nums[1, 1, 1] = big
    a = ExactMatrix(3, 1, nums)
    prod = a @ a
    assert prod.nums.dtype == object
    assert prod.entry(0, 0) == CycloScalar(3, 1, [big * big, 0])
    # and back to int64 once values shrink
    shrunk = prod.scale_q(Fraction(1, big * big))
    assert shrunk.nums.dtype == np.int64


@pytest.mark.parametrize("d,m", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_powers_and_orbit_sum_match_pow_int(d, m):
    """powers and orbit_sum against pow_int for k = 1..d, on both lanes."""
    gen = np.random.default_rng(10 * d + m)
    M, N = rand_mat(gen, d, m, d, span=3), rand_mat(gen, d, m, d, span=3)
    W = M.scale_q(2 ** 70)
    assert M.nums.dtype == np.int64 and W.nums.dtype == object
    for k in range(1, d + 1):
        expect = [[A.pow_int(j) for j in range(k)] for A in (M, N, W)]
        assert powers([M, N, W], k) == expect
        assert powers([W], k) == expect[2:]
        for A, pows in zip((M, N, W), expect):
            total = pows[0]
            for P in pows[1:]:
                total = total + P
            assert orbit_sum(A, k) == total


@pytest.mark.parametrize("d,m", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_int64_and_object_lanes_agree(d, m):
    """M on int64 and 2^70 M on Python objects agree once scaled back."""
    big = 2 ** 70
    gen = np.random.default_rng(100 * d + m)
    M, N = rand_mat(gen, d, m, d), rand_mat(gen, d, m, d)
    W = M.scale_q(big)
    assert M.nums.dtype == np.int64 and W.nums.dtype == object

    def back(x):
        assert x.nums.dtype == object
        return x.scale_q(Fraction(1, big))

    assert back(W @ N) == M @ N
    assert back(N @ W) == N @ M
    (prod,) = matmul_many([W], [N])
    assert back(prod) == M @ N
    assert back(kron(W, N)) == kron(M, N)
    assert back(kron(N, W)) == kron(N, M)
    assert back(W + N.scale_q(big)) == M + N
    vec = gen.integers(-5, 5, size=conductor(d, m).phi)
    assert back(W.scale_vec(vec, 3)) == M.scale_vec(vec, 3)
    P = PauliElement(d, 1, (1,), (2,))
    assert back(times_pauli(W, P)) == times_pauli(M, P)
    assert equal_up_to_phase(W, M)
    assert equal_up_to_phase(W, M.scale_zeta(1))
    assert not equal_up_to_phase(W, N)
    assert equal_up_to_phase(W.scale_zeta(2), W)
    ctx = FingerprintContext(d)
    assert ctx.keys([M, W]) == [ctx.key(M)] * 2


def test_pauli_relation_zx():
    d = 3
    Z, X = zmat(d), xmat(d)
    w = CycloScalar.omega(d)
    assert Z @ X == (X @ Z).scale(w)
    assert Z.pow_int(d).is_identity()
    assert X.pow_int(d).is_identity()


# ---------------------------------------------------------------------------
# canonical representatives

def test_canonical_strips_phase():
    Z = zmat(3)
    wZ = Z.scale(CycloScalar.omega(3))
    assert Z.canonical_rep() == wZ.canonical_rep()
    want = ExactMatrix.diag(3, [1, CycloScalar.omega(3), CycloScalar.omega(3) ** 2])
    assert Z.canonical_rep() == want


def test_canonical_of_dft_normalises_corner():
    F = fmat(3).mat
    c = F.canonical_rep()
    assert c.entry(0, 0) == 1
    assert c == F  # corner already 1
    assert F.scale_zeta(5).canonical_rep() == c


def test_canonical_idempotent_and_phase_invariant():
    for _ in range(6):
        a = rand_mat(rng, 3, 2, 3)
        if a.is_zero():
            continue
        c = a.canonical_rep()
        assert c.canonical_rep() == c
        e = int(rng.integers(0, 9))
        assert a.scale_zeta(e).canonical_rep() == c
        assert a.scale_q(Fraction(-7, 3)).canonical_rep() == c


def test_canonical_with_nonmonomial_leading_entry():
    w = CycloScalar.omega(3)
    a = ExactMatrix.from_scalars(3, [[1 + w, 2], [w, 1]])
    c = a.canonical_rep()
    assert c.entry(0, 0) == 1
    assert c.entry(1, 0) == w / (1 + w)
    assert c.canonical_rep() == c


def test_canonical_reps_divide_each_matrix_by_its_leading_entry():
    w = CycloScalar.omega(3)
    # leading entries past int64, a non-monomial one, and a zero first row
    big = ExactMatrix.from_scalars(3, [[0, (2 ** 63 + 5) * (1 + w)], [w, 2 ** 70]])
    mats = [big, zmat(3), rand_mat(rng, 3, 2, 3), big.promote(2), fmat(5).mat, big.scale_zeta(1)]
    mats += [m.scale_q(Fraction(-7, 3)) for m in mats]
    for M, C in zip(mats, canonical_reps(mats)):
        i, j = divmod(int(np.flatnonzero((M.nums != 0).any(axis=-1))[0]), M.shape[1])
        assert C.entry(i, j) == 1
        assert C == M.scale(M.entry(i, j).inverse())
        assert C == M.canonical_rep()


def test_zero_matrix_has_no_canonical():
    with pytest.raises(ValueError):
        ExactMatrix.zeros(3, 1, 2).canonical_rep()


# ---------------------------------------------------------------------------
# scaled unitaries

def test_dft_is_scaled_unitary():
    for d in (3, 5, 7):
        F = fmat(d)
        assert F.verify()


def test_verify_rejects_nonunitary():
    bad = ScaledUnitary(ExactMatrix.from_scalars(3, [[1, 1], [0, 1]]), 1)
    with pytest.raises(ValueError):
        bad.verify()


def test_conjugation_of_z_by_dft():
    d = 3
    F = fmat(d)
    Z, X = zmat(d), xmat(d)
    assert conjugate_action(F, Z) == X.pow_int(d - 1)  # X^-1
    assert conjugate_action(F, X) == Z
    ident = ScaledUnitary.exact(ExactMatrix.identity(d, d))
    assert conjugate_action(ident, Z) == Z
    assert conjugate_action(F, ExactMatrix.identity(d, d)).is_identity()


def test_conjugation_preserves_products():
    d = 3
    F = fmat(d)
    a = rand_mat(rng, 3, 1, 3)
    b = rand_mat(rng, 3, 1, 3)
    lhs = conjugate_action(F, a @ b)
    rhs = conjugate_action(F, a) @ conjugate_action(F, b)
    assert lhs == rhs


def test_f_squared_is_flip():
    d = 3
    F = fmat(d)
    M = F.mat @ F.mat
    flip = ExactMatrix.from_scalars(
        3, [[d if (i + j) % d == 0 else 0 for j in range(d)] for i in range(d)]
    )
    assert M == flip


# ---------------------------------------------------------------------------
# interchange

def test_interchange_roundtrip_bit_exact():
    F = fmat(3)
    doc = to_interchange(F, 1)
    blob = json.dumps(doc)
    su, n = from_interchange(json.loads(blob))
    assert n == 1
    assert su.scale2 == F.scale2
    assert su.mat == F.mat
    assert su.mat.to_key() == F.mat.to_key()


def test_interchange_carries_fractions():
    w = CycloScalar.omega(3)
    mat = ExactMatrix.diag(3, [w / 3, (1 + w) / 5, 1])
    # not unitary; wrap loosely just to serialise
    su = ScaledUnitary(mat, Fraction(1))
    doc = to_interchange(su, 1)
    # hand-check one cell: (1+w)/5 -> [[1,5],[1,5]]
    assert doc["entries"][4] == [[1, 5], [1, 5]]
    back, _ = from_interchange(doc)
    assert back.mat == mat


def _fraction_entries(mat):
    """The entries as one Fraction per coefficient, reduced, den positive."""
    out = []
    r, s = mat.shape
    for i in range(r):
        for j in range(s):
            cell = []
            for e in range(mat.cond.phi):
                f = Fraction(int(mat.nums[i, j, e]), mat.den)
                cell.append([f.numerator, f.denominator])
            out.append(cell)
    return out


def _interchange_cases():
    small = rng.integers(-6, 7, size=(3, 3, 2))
    small[0, 0] = 0
    small[1, 2] = [-4, 6]
    big = np.array(rng.integers(-9, 9, size=(3, 3, 6)), dtype=object) * (2 ** 63 + 1)
    big[2, 1, 3] = -(2 ** 70)
    return [
        ExactMatrix(3, 1, small, 12),  # negative and zero coefficients, den > 1
        ExactMatrix(3, 2, rng.integers(-50, 50, size=(3, 3, 6)), 1),
        ExactMatrix(3, 2, big, 2 ** 5 * 3),  # Python-object tensor past 2**62
        ExactMatrix(5, 1, rng.integers(-9, 9, size=(5, 5, 4)), 2 ** 64 + 7),  # den past int64
    ]


@pytest.mark.parametrize("mat", _interchange_cases(), ids=["small", "m2", "object", "huge-den"])
def test_interchange_entries_match_the_fraction_formula(mat):
    doc = to_interchange(ScaledUnitary(mat, Fraction(7, 3)), 1)
    assert doc["entries"] == _fraction_entries(mat)
    assert all(type(x) is int for cell in doc["entries"] for pq in cell for x in pq)
    back, n = from_interchange(json.loads(json.dumps(doc)))
    assert n == 1 and back.scale2 == Fraction(7, 3)
    assert back.mat == mat
    assert back.mat.to_key() == mat.to_key()


@pytest.mark.parametrize("count", [8, 10, 81])
def test_interchange_entry_count_must_be_d_to_the_2n(count):
    doc = to_interchange(fmat(3), 1)
    doc["entries"] = (doc["entries"] * 9)[:count]
    with pytest.raises(ValueError, match="entry count does not match"):
        from_interchange(doc)


def test_interchange_rejects_bad_conductor():
    doc = to_interchange(fmat(3), 1)
    doc["conductor"] = 6
    with pytest.raises(ValueError):
        from_interchange(doc)


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
def test_interchange_version_must_be_the_integer_one(version):
    doc = to_interchange(fmat(3), 1)
    doc["version"] = version
    with pytest.raises(ValueError, match="unknown interchange version"):
        from_interchange(json.loads(json.dumps(doc)))


def _from_interchange_by_loop(doc):
    """from_interchange as it was written one coefficient at a time: the oracle
    for the checks that now run over whole lists."""
    if not isinstance(doc, dict):
        raise ValueError("interchange document must be a JSON object")
    if not (_is_int(doc.get("version")) and doc["version"] == INTERCHANGE_VERSION):
        raise ValueError("unknown interchange version")
    d = _field(doc, "d", lambda x: _is_int(x) and x > 2 and _is_prime(x), "an odd prime")
    n = _field(doc, "n", lambda x: _is_int(x) and x >= 1, "a positive integer")
    c = _field(doc, "conductor", _is_int, "an integer")
    scale2 = _field(doc, "scale2", lambda x: isinstance(x, str), "a string p/q")
    entries = _field(doc, "entries", lambda x: isinstance(x, list), "a list")
    if c > max_conductor(d):
        raise ValueError("conductor %d is past the supported %d" % (c, max_conductor(d)))
    m = 0
    cc = c
    while cc > 1 and cc % d == 0:
        cc //= d
        m += 1
    if cc != 1 or m < 1:
        raise ValueError("conductor is not a power of d")
    cond = conductor(d, m)
    dim = 1
    for _ in range(n):
        dim *= d
        if dim * dim > len(entries):
            raise ValueError("entry count does not match d^n")
    if dim * dim != len(entries):
        raise ValueError("entry count does not match d^n")
    if not re.fullmatch(r"[0-9]+(/0*[1-9][0-9]*)?", scale2) or Fraction(scale2) <= 0:
        raise ValueError("interchange field 'scale2' must be a positive fraction p/q")
    den = 1
    for cell in entries:
        if type(cell) is not list or len(cell) != cond.phi:
            raise ValueError("every entry must list phi(conductor) = %d coefficients" % cond.phi)
        for pq in cell:
            if type(pq) is not list or len(pq) != 2 or not (_is_int(pq[0]) and _is_int(pq[1])):
                raise ValueError("every coefficient must be an integer pair [num, den]")
            if pq[1] == 0:
                raise ValueError("a coefficient has a zero denominator")
            if pq[1] != 1:
                den = math.lcm(den, pq[1])
    flat = [p * (den // q) for cell in entries for p, q in cell]
    nums = np.array(flat, dtype=object).reshape(dim, dim, cond.phi)
    return ScaledUnitary(ExactMatrix(d, m, nums, den), Fraction(scale2)), n


_BIG = [2 ** 62 - 1, 2 ** 62, -(2 ** 62), 2 ** 63 - 1, 2 ** 63, -(2 ** 63), 2 ** 64 + 5, -(2 ** 70)]
_JUNK = st.sampled_from([True, False, 1.0, 0.5, None, "1", "", [], {}, [1], [1, 2, 3], [[1, 1]]])


@st.composite
def _documents(draw, faults):
    """A d=3 one-wire document, then `faults` edits, each of which may break it."""
    m = draw(st.sampled_from([1, 2]))
    phi = conductor(3, m).phi
    # the denominators of one document come from one pool, so some have none
    den = st.sampled_from(draw(st.sampled_from([[1], [1, -1], [1, 2, 3, -1, -4, 6]])))
    entries = [[[draw(st.integers(-9, 9)), draw(den)] for _ in range(phi)] for _ in range(9)]
    # a few coefficients near or past int64, so that one can set the dtype alone
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, 8)), draw(st.integers(0, phi - 1))
        entries[i][j][draw(st.integers(0, 1))] = draw(st.sampled_from(_BIG + [-b for b in _BIG]))
    for _ in range(draw(faults)):
        i = draw(st.integers(0, 8))
        if type(entries[i]) is not list or not entries[i]:
            entries[i] = [[0, 1] for _ in range(phi)]  # an earlier edit's junk
        cell = entries[i]
        j = draw(st.integers(0, len(cell) - 1))
        kind = draw(st.sampled_from(
            ["num", "den", "pair", "cell", "grow", "shrink", "zero", "short", "long"]
        ))
        if kind in ("num", "den"):
            cell[j] = list(cell[j]) if type(cell[j]) is list and len(cell[j]) == 2 else [0, 1]
            cell[j][kind == "den"] = draw(_JUNK)
        elif kind == "pair":
            cell[j] = draw(_JUNK)
        elif kind == "cell":
            entries[i] = draw(_JUNK)
        elif kind == "grow":
            cell.append([1, 1])
        elif kind == "shrink":
            cell.pop()
        elif kind == "zero":
            cell[j] = [draw(st.integers(-9, 9)), 0]
        else:
            cell[j] = [1] if kind == "short" else [1, 1, 1]
    scale2 = draw(st.sampled_from(["1", "3", "7/3", "2/04"]))
    return {"version": 1, "d": 3, "n": 1, "conductor": 3 ** m, "scale2": scale2, "entries": entries}


def _outcome(read, doc):
    try:
        su, n = read(json.loads(json.dumps(doc)))
    except ValueError as e:
        return "refused", str(e)
    mat = su.mat
    return "read", (n, su.scale2, mat.d, mat.m, mat.den, mat.nums.dtype, mat.nums.tolist())


@settings(max_examples=400, deadline=None)
@given(doc=_documents(st.integers(0, 3)))
def test_from_interchange_accepts_what_the_loop_accepts(doc):
    got, want = _outcome(from_interchange, doc), _outcome(_from_interchange_by_loop, doc)
    assert got[0] == want[0]
    if got[0] == "read":
        assert got == want


@settings(max_examples=400, deadline=None)
@given(doc=_documents(st.just(1)))
def test_from_interchange_refuses_one_fault_as_the_loop_does(doc):
    assert _outcome(from_interchange, doc) == _outcome(_from_interchange_by_loop, doc)


@pytest.mark.parametrize(
    "pairs",
    [[[2 ** 62, 1]], [[-(2 ** 62), 1]], [[2 ** 63, 1]], [[2 ** 63, -1]], [[2 ** 63, 1], [-1, 1]],
     [[2 ** 64 + 1, 1]]],
    ids=["2^62", "-2^62", "2^63", "2^63/-1", "2^63,-1", "past-2^64"],
)
def test_from_interchange_keeps_ints_past_int64_exact(pairs):
    """numpy alone would read [2**63] as uint64 and [2**63, -1] as float64, and
    as_int64_if_safe keeps Python objects from 2**62 on."""
    entries = [[[0, 1], [0, 1]] for _ in range(9)]
    for idx, pq in enumerate(pairs):
        entries[idx][0] = pq
    doc = {"version": 1, "d": 3, "n": 1, "conductor": 3, "scale2": "1", "entries": entries}
    got = _outcome(from_interchange, doc)
    assert got == _outcome(_from_interchange_by_loop, doc)
    assert got[1][5] == object


def test_max_conductor_is_the_fingerprint_headroom_within_the_table_cap():
    from hierarchon.exactmat import fingerprint_headroom, max_conductor

    assert [max_conductor(d) for d in (3, 5, 7, 11, 31, 37)] == [243, 125, 343, 121, 961, 37]
    for d in (3, 5, 7):
        assert max_conductor(d) == d ** fingerprint_headroom(d)


# ---------------------------------------------------------------------------
# fingerprints

def test_fingerprint_matches_on_equal_values():
    ctx = FingerprintContext(3)
    Z = zmat(3)
    assert ctx.key(Z) == ctx.key(Z.scale(CycloScalar.omega(3)))
    assert ctx.key(Z) == ctx.key(Z.scale_q(Fraction(3, 7)))
    # promoted copies key identically: the evaluation commutes with promotion
    assert ctx.key(Z) == ctx.key(Z.promote(3))


def test_fingerprint_separates_distinct_gates():
    ctx = FingerprintContext(3)
    Z, X = zmat(3), xmat(3)
    seen = {ctx.key(Z), ctx.key(X), ctx.key(Z @ X), ctx.key(fmat(3).mat)}
    assert len(seen) == 4


def test_fingerprint_zero_slot_fallback():
    ctx = FingerprintContext(3)
    p = ctx.primes[0]
    a = ExactMatrix.from_scalars(3, [[p, 1], [0, 1]])
    b = a.scale_q(2)
    assert ctx.key(a) == ctx.key(b)
    c = ExactMatrix.from_scalars(3, [[p, 2], [0, 1]])
    assert ctx.key(a) != ctx.key(c)


def test_fingerprint_primes_are_usable():
    for d, m in ((3, 5), (5, 3), (7, 3)):
        ctx = FingerprintContext(d)
        assert ctx.m_max == m
        for p in ctx.primes:
            assert p < 2 ** 23 and (p - 1) % d ** m == 0
        assert ctx.primes[0] != ctx.primes[1]
        # generator tables really have multiplicative order d**m
        tab = ctx.powvec(0, m)
        assert tab[0] == 1
        if conductor(d, m).phi > 1:
            assert tab[1] != 1


# ---------------------------------------------------------------------------
# input checks

I3, I5 = ExactMatrix.identity(3, 3), ExactMatrix.identity(5, 5)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: ExactMatrix(3, 1, np.zeros((2, 2), dtype=np.int64)), r"\(rows, cols, phi\)"),
        (lambda: ExactMatrix(3, 1, np.zeros((2, 2, 3), dtype=np.int64)), r"\(rows, cols, phi\)"),
        (lambda: ExactMatrix.zeros(3, 1, 2, 3).dim, "not square"),
        (lambda: I3 + I5, "mixed base primes"),
        (lambda: I3.scale(CycloScalar.omega(5)), "mixed base primes"),
        (lambda: kron(I3, I5), "mixed base primes"),
        (lambda: matmul_many([I3], [I5]), "mixed base primes"),
        (lambda: ExactMatrix.identity(3, 2) @ I3, "dim mismatch"),
        (lambda: matmul_many([ExactMatrix.identity(3, 2)], [I3]), "dim mismatch"),
        (lambda: I3.pow_int(-1), "negative matrix powers"),
        (lambda: ScaledUnitary(I3, 0), "scale2 must be positive"),
        (lambda: ScaledUnitary(I3, -2), "scale2 must be positive"),
        (lambda: FingerprintContext(3).keys([I3, ExactMatrix.zeros(3, 1, 3)]), "zero matrix"),
    ],
    ids=["tensor-ndim", "tensor-phi", "dim-not-square", "common-mixed", "scale-mixed",
         "kron-mixed", "matmul-many-mixed", "matmul-dims", "matmul-many-dims", "pow-negative",
         "scale2-zero", "scale2-negative", "keys-zero-matrix"],
)
def test_input_checks_refuse(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize(
    "got, want",
    [
        (I3 == "I", False),
        (I3 == I5, False),
        (equal_up_to_phase(I3, ExactMatrix.identity(3, 2)), False),
        (equal_up_to_phase(ExactMatrix.zeros(3, 1, 3, 1), ExactMatrix.zeros(3, 1, 1, 3)), False),
        (_is_prime(1), False),
        (_is_prime(0), False),
    ],
    ids=["eq-other-type", "eq-other-prime", "phase-shapes", "phase-transposed",
         "prime-one", "prime-zero"],
)
def test_mixed_comparisons_are_false(got, want):
    assert got is want
