import cmath
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierarchon import _kernels as K
from hierarchon import exactmat
from hierarchon.cyclo import conductor
from hierarchon.exactmat import ExactMatrix


rng = np.random.default_rng(11)


def embed_tensor(arr, c):
    z = cmath.exp(2j * cmath.pi / c)
    pows = np.array([z ** e for e in range(arr.shape[-1])])
    return arr @ pows


# ---------------------------------------------------------------------------
# group-ring matmul

def loop_product(A, B, cond):
    """Reduced (r, m, phi) x (m, s, phi) product, one Python-int term at a time."""
    r, mm, phi = A.shape
    s = B.shape[1]
    raw = np.zeros((r, s, cond.c), dtype=object)
    for i, j, k in itertools.product(range(r), range(mm), range(s)):
        for u in range(phi):
            for v in range(phi):
                raw[i, k, (u + v) % cond.c] += int(A[i, j, u]) * int(B[j, k, v])
    return cond.reduce(raw)


@pytest.mark.parametrize(
    "d,m,dim", [(3, 1, 3), (3, 2, 4), (5, 1, 5), (7, 1, 2), (5, 2, 3), (7, 2, 2)]
)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_matmul_lanes_agree(d, m, dim, data):
    """Batched and 3-D gr_matmul, on int64 and object, against the loop product."""
    cond = conductor(d, m)
    batch = data.draw(st.integers(1, 64), label="batch")
    r, k, s = (data.draw(st.integers(1, dim)) for _ in range(3))
    gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    A = gen.integers(-20, 20, size=(batch, r, k, cond.phi))
    B = gen.integers(-20, 20, size=(batch, k, s, cond.phi))
    got = cond.reduce(K.gr_matmul_batch(A, B, cond.c))
    assert got.shape == (batch, r, s, cond.phi)
    big = 2 ** 70
    got_obj = cond.reduce(K.gr_matmul_batch(A.astype(object) * big, B.astype(object), cond.c))
    assert got_obj.dtype == object
    assert np.array_equal(got_obj, got.astype(object) * big)
    for i in range(batch):
        want = loop_product(A[i], B[i], cond)
        assert np.array_equal(got[i], want)
        assert np.array_equal(cond.reduce(K.gr_matmul(A[i], B[i], cond.c)), want)


def test_matmul_batch_broadcasts_and_chunks(monkeypatch):
    cond = conductor(3, 2)
    A = rng.integers(-9, 9, size=(5, 1, 3, 2, cond.phi))
    B = rng.integers(-9, 9, size=(4, 2, 3, cond.phi))
    whole = K.gr_matmul_batch(A, B, cond.c)
    assert whole.shape == (5, 4, 3, 3, cond.c)
    assert np.array_equal(whole[3, 2], K.gr_matmul(A[3, 0], B[2], cond.c))
    # a tiny chunk bound splits the batch without changing a bit
    monkeypatch.setattr(K, "_CHUNK_CELLS", 1)
    assert np.array_equal(K.gr_matmul_batch(A, B, cond.c), whole)


@pytest.mark.parametrize("d,m,dim", [(3, 6, 3), (5, 4, 2)])
def test_matmul_large_conductor_stays_small(d, m, dim):
    """Exponent blocks keep a product at c = 729 or 625 within a few MB."""
    import tracemalloc

    cond = conductor(d, m)
    A = rng.integers(-9, 9, size=(dim, dim, cond.phi))
    B = rng.integers(-9, 9, size=(dim, dim, cond.phi))
    tracemalloc.start()
    try:
        got = K.gr_matmul(A, B, cond.c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    # oracle: each entry is a sum of polynomial products folded mod x**c - 1
    want = np.zeros((dim, dim, cond.c), dtype=np.int64)
    for i, j, k in itertools.product(range(dim), repeat=3):
        conv = np.convolve(A[i, j], B[j, k])
        want[i, k, :len(conv)] += conv[:cond.c]
        want[i, k, :len(conv) - cond.c] += conv[cond.c:]
    assert np.array_equal(got, want)
    assert np.array_equal(cond.reduce(got), cond.reduce(K.gr_matmul_batch(A, B, cond.c)))


def test_int64_bound_still_takes_the_object_path(monkeypatch):
    calls = []
    real = exactmat._gr_matmul_obj

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(exactmat, "_gr_matmul_obj", spy)
    cond = conductor(3, 1)
    big = 2 ** 40
    nums = np.array([[[big + 1, 1], [0, big]], [[1, 0], [big, 3]]], dtype=np.int64)
    A = ExactMatrix(3, 1, nums, 1)
    want = loop_product(nums, nums, cond)
    prod = A @ A
    assert calls == [1]
    assert prod.nums.dtype == object
    assert np.array_equal(prod.nums, want)
    (batched,) = exactmat.matmul_many([A], [A])
    assert calls == [1, 1]
    assert batched == prod
    # the phase comparison falls back to Python objects past the bound too
    assert exactmat.equal_up_to_phase(prod, prod.scale_zeta(1))
    assert not exactmat.equal_up_to_phase(prod, A)
    # one batched object call per comparison
    assert len(calls) == 4


def test_matmul_matches_complex_oracle():
    cond = conductor(3, 2)
    A = rng.integers(-5, 5, size=(3, 4, cond.phi))
    B = rng.integers(-5, 5, size=(4, 2, cond.phi))
    raw = K.gr_matmul(A, B, cond.c)
    red = cond.reduce(raw)
    got = embed_tensor(red, cond.c)
    want = embed_tensor(A, cond.c) @ embed_tensor(B, cond.c)
    assert np.allclose(got, want)


def test_matmul_identity():
    cond = conductor(5, 1)
    A = rng.integers(-9, 9, size=(5, 5, cond.phi))
    eye = np.zeros((5, 5, cond.phi), dtype=np.int64)
    eye[np.arange(5), np.arange(5), 0] = 1
    assert np.array_equal(cond.reduce(K.gr_matmul(A, eye, cond.c)), A)
    assert np.array_equal(cond.reduce(K.gr_matmul(eye, A, cond.c)), A)


# ---------------------------------------------------------------------------
# fingerprint evaluation

def test_fp_eval_matches_direct_sum():
    p = 19927
    cond = conductor(3, 2)
    g = 7  # any value works; real roots are found elsewhere
    powvec = np.array([pow(g, e, p) for e in range(cond.phi)], dtype=np.int64)
    nums = rng.integers(-(2 ** 40), 2 ** 40, size=(4, 3, 3, cond.phi))
    for arr in (nums, nums.astype(object) * 2 ** 70 + 1):
        out = K.fp_eval(arr, powvec, p)
        assert out.shape == (4, 3, 3)
        assert out.dtype == np.int64
        direct = [
            sum(int(v) * pow(g, e, p) for e, v in enumerate(cell)) % p
            for cell in arr.reshape(-1, cond.phi)
        ]
        assert list(out.reshape(-1)) == direct


# ---------------------------------------------------------------------------
# two-qutrit semibasis table

def symp(u, v):
    """Symplectic product of (p1, q1, p2, q2) vectors mod 3."""
    return (u[0] * v[1] - u[1] * v[0] + u[2] * v[3] - u[3] * v[2]) % 3


def dependent(u, v):
    """Whether u and v span at most a line over Z_3."""
    return not any(u) or any(
        all((lam * a - b) % 3 == 0 for a, b in zip(u, v)) for lam in range(3)
    )


def brute_force_plane(mat):
    """Whether two independent kernel vectors pair to zero, over all 81 vectors."""
    kernel = [
        v for v in itertools.product(range(3), repeat=4)
        if any(v) and all(sum(a * b for a, b in zip(row, v)) % 3 == 0 for row in mat)
    ]
    return any(
        not dependent(u, v) and symp(u, v) == 0 for u, v in itertools.combinations(kernel, 2)
    )


def unpack(code):
    digits = []
    x = code
    for _ in range(12):
        digits.append(x % 3)
        x //= 3
    return [
        [digits[0], digits[3], digits[6], digits[9]],
        [digits[1], digits[4], digits[7], digits[10]],
        [digits[2], digits[5], digits[8], digits[11]],
    ]


def test_witness_agrees_with_brute_force():
    for code in rng.integers(0, 3 ** 12, size=400):
        mat = unpack(int(code))
        wit = K.isotropic_plane_witness(mat)
        assert (wit is not None) == brute_force_plane(mat)
        if wit is not None:
            u, v = wit
            assert not dependent(u, v)
            assert symp(u, v) == 0
            for row in mat:
                assert sum(a * b for a, b in zip(row, u)) % 3 == 0
                assert sum(a * b for a, b in zip(row, v)) % 3 == 0


def test_zero_matrix_has_plane():
    assert K.isotropic_plane_witness([[0] * 4, [0] * 4, [0] * 4]) is not None


def test_full_rank_matrix_has_none():
    mat = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    # kernel is a line; no plane fits
    assert K.isotropic_plane_witness(mat) is None


def test_hyperbolic_kernel_has_none():
    # kernel = span(e1, e2) carries a nondegenerate symplectic form
    mat = [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    assert K.isotropic_plane_witness(mat) is None


def test_lagrangian_kernel_has_plane():
    # kernel = span(e1, e3) is isotropic
    mat = [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    wit = K.isotropic_plane_witness(mat)
    assert wit is not None


def test_lut_is_pinned():
    """Shape, count and digest of the table the parent's Python loop built."""
    lut = K.semibasis_lut()
    assert lut.shape == (3 ** 12,)
    assert lut.dtype == np.uint8
    assert int(lut.sum()) == 26001
    assert hashlib.sha256(lut.tobytes()).hexdigest() == (
        "7b055fa047155c87dabf59dc2075a73962b5bf16d902a0264134bb09ad38c586"
    )


def test_lut_spot_checks_against_witness():
    lut = K.semibasis_lut()
    assert lut.shape == (3 ** 12,)
    for code in rng.integers(0, 3 ** 12, size=300):
        mat = unpack(int(code))
        assert bool(lut[int(code)]) == (K.isotropic_plane_witness(mat) is not None)


@pytest.mark.extended
def test_lut_matches_witness_everywhere():
    lut = K.semibasis_lut()
    for code in range(3 ** 12):
        want = K.isotropic_plane_witness(unpack(code)) is not None
        assert bool(lut[code]) == want, code


# ---------------------------------------------------------------------------
# two-qutrit survey join

def dense_survey_join(pairu, pairv, ok0, stkey, start, stop, stride):
    """The per-row join: every row tests every pair against its valid set."""
    hist = np.zeros((729, 729), dtype=np.int64)
    for r in range(start, stop, stride):
        valid = ok0[pairu[r]] & ok0[pairv[r]]
        good = (valid[pairu] & valid[pairv]).astype(bool)
        hist[stkey[r]] += np.bincount(stkey[good], minlength=729)
    return hist


@st.composite
def pair_lists(draw):
    n = draw(st.integers(1, 9), label="septuples")
    size = draw(st.integers(0, 60), label="pairs")
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    pairu = np.sort(gen.integers(0, n, size=size))
    pairv = gen.integers(0, n, size=size)
    ok0 = (gen.random((n, n)) < draw(st.floats(0, 1), label="density")).astype(np.uint8)
    stkey = gen.integers(0, 729, size=size)
    start = draw(st.integers(0, size), label="start")
    stop = draw(st.integers(0, size), label="stop")
    stride = draw(st.integers(1, 7), label="stride")
    return pairu, pairv, ok0, stkey, start, stop, stride


@settings(max_examples=200, deadline=None)
@given(args=pair_lists())
def test_survey_join_matches_the_dense_join(args):
    assert np.array_equal(K.survey_join(*args), dense_survey_join(*args))


def test_survey_walk_crosses_block_boundaries(monkeypatch):
    gen = np.random.default_rng(3)
    pairu = np.sort(gen.integers(0, 6, size=50))
    pairv = gen.integers(0, 6, size=50)
    ok0 = (gen.random((6, 6)) < 0.7).astype(np.uint8)
    stkey = gen.integers(0, 729, size=50)
    want = dense_survey_join(pairu, pairv, ok0, stkey, 1, 50, 2)
    monkeypatch.setattr(K, "_WALK_ROWS", 3)
    assert np.array_equal(K.survey_join(pairu, pairv, ok0, stkey, 1, 50, 2), want)


@pytest.fixture(scope="module")
def qutrit_pairs():
    from hierarchon.qutrit3 import _pair_list

    pairs, ok0, colcode = _pair_list()
    pu, pv = pairs[:, 0], pairs[:, 1]
    return pu, pv, ok0, colcode[pu] + 27 * colcode[pv]


@pytest.mark.parametrize("stride,total", [(1000, 3912), (50, 84120)])
def test_survey_join_on_the_qutrit_pairs(qutrit_pairs, stride, total):
    pu, pv, ok0, stkey = qutrit_pairs
    got = K.survey_join(pu, pv, ok0, stkey, 0, len(pu), stride)
    assert int(got.sum()) == total
    assert np.array_equal(got, dense_survey_join(pu, pv, ok0, stkey, 0, len(pu), stride))


def test_survey_walk_steps_stay_within_their_candidate_bound(qutrit_pairs):
    """The premise of _WALK_ROWS, checked on the qutrit pair list.

    A row's candidates are the pairs whose first member lies in its valid
    set; no row has more than 2,916, and a stride-1 walk yields one block
    per _WALK_ROWS consecutive rows, so no step expands more than
    2,916 * _WALK_ROWS.
    """
    pu, pv, ok0, _ = qutrit_pairs
    ok = ok0.view(bool)
    deg = np.bincount(pu, minlength=len(ok)).astype(np.int32)
    cand = np.concatenate([
        (ok[pu[lo:lo + 2048]] & ok[pv[lo:lo + 2048]]).astype(np.int32) @ deg
        for lo in range(0, len(pu), 2048)
    ])
    assert cand.max() == 2916
    starts = np.arange(0, len(pu), K._WALK_ROWS)
    assert np.add.reduceat(cand, starts).max() <= 2916 * K._WALK_ROWS

    blocks = 0
    for rows, _ in K.survey_walk(pu, pv, ok0, 0, len(pu), 1):
        lo = blocks * K._WALK_ROWS
        assert rows.size == 0 or lo <= rows.min() <= rows.max() < lo + K._WALK_ROWS
        blocks += 1
    assert blocks == len(starts)


def test_survey_walk_needs_sorted_first_members():
    pairu = np.array([0, 2, 1])
    pairv = np.array([1, 0, 2])
    ok0 = np.ones((3, 3), dtype=np.uint8)
    with pytest.raises(ValueError, match="non-decreasing"):
        K.survey_join(pairu, pairv, ok0, np.zeros(3, dtype=np.int64), 0, 3, 1)


def test_survey_join_counts_every_repeat_of_a_code(monkeypatch):
    # every row matches every pair and every pair has one code, so the
    # matches of a block land in one bin many times over
    pairu = np.zeros(40, dtype=np.int64)
    pairv = np.zeros(40, dtype=np.int64)
    ok0 = np.ones((2, 2), dtype=np.uint8)
    stkey = np.full(40, 5, dtype=np.int64)
    monkeypatch.setattr(K, "_WALK_ROWS", 7)
    got = K.survey_join(pairu, pairv, ok0, stkey, 0, 40, 1)
    assert got[5, 5] == 40 * 40 and int(got.sum()) == 40 * 40
    assert np.array_equal(got, dense_survey_join(pairu, pairv, ok0, stkey, 0, 40, 1))
