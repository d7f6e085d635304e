"""Septuple algebra against exact matrices, and the two-qutrit tuple survey."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierarchon import _kernels
from hierarchon.cli import main
from hierarchon.qutrit3 import (
    Septuple,
    TupleQuadruple,
    _commutator,
    _pair_list,
    commutation_check,
    enumerate_tuples,
    kernel_semibasis_check,
    quadruple_relations,
    septuple_from_index,
    septuple_index,
    septuple_matrix,
    survey,
)

Z1 = Septuple(0, 0, 0, 1, 0, 0, 0)
X1 = Septuple(0, 0, 0, 0, 0, 1, 0)
Z2 = Septuple(0, 0, 0, 0, 1, 0, 0)
X2 = Septuple(0, 0, 0, 0, 0, 0, 1)
ZERO = Septuple(0, 0, 0, 0, 0, 0, 0)


def quad(d1, d2, d3):
    return Septuple(d1, d2, d3, 0, 0, 0, 0)


def test_zero_septuples_commute():
    assert commutation_check(ZERO, ZERO) == 0


def test_z_against_x_gives_the_weyl_phase():
    assert commutation_check(Z1, X1) == 1
    assert commutation_check(X1, Z1) == 2
    assert commutation_check(Z1, Z2) == 0
    assert commutation_check(Z1, X2) == 0


def test_failed_linear_equations_return_none():
    assert commutation_check(quad(1, 0, 0), X1) is None


@settings(max_examples=50, deadline=None)
@given(i=st.integers(0, 3 ** 7 - 1))
def test_septuple_index_round_trip(i):
    assert septuple_index(septuple_from_index(i)) == i


def _oracle_pairs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        s1 = septuple_from_index(rng.randrange(3 ** 7))
        s2 = septuple_from_index(rng.randrange(3 ** 7))
        c = commutation_check(s1, s2)
        U, V = septuple_matrix(s1), septuple_matrix(s2)
        UV, VU = U @ V, V @ U
        matches = [e for e in range(3) if UV == VU.scale_zeta(e)]
        assert matches == ([] if c is None else [c]), (s1, s2, c, matches)


def test_commutation_matches_matrix_algebra():
    _oracle_pairs(300, seed=5)


@pytest.mark.extended
def test_commutation_matches_matrix_algebra_extended():
    _oracle_pairs(10 ** 4, seed=6)


def test_standard_tuple_is_conjugate_and_passes():
    std = TupleQuadruple(Z1, X1, Z2, X2)
    assert quadruple_relations(std) == (1, 1, 0, 0, 0, 0)
    ok, witness = kernel_semibasis_check(std)
    assert ok
    assert witness == ((1, 0, 0, 0), (0, 0, 1, 0))


def test_rank_three_quadratics_fail_the_kernel_check():
    q = TupleQuadruple(quad(1, 0, 0), quad(0, 1, 0), quad(0, 0, 1), ZERO)
    ok, witness = kernel_semibasis_check(q)
    assert not ok and witness is None


def test_two_dim_hyperbolic_kernel_fails():
    # kernel is the (p1, q1) plane, where the symplectic form is nonzero
    q = TupleQuadruple(ZERO, ZERO, quad(1, 0, 0), quad(0, 1, 0))
    ok, witness = kernel_semibasis_check(q)
    assert not ok and witness is None


@settings(max_examples=50, deadline=None)
@given(codes=st.lists(st.integers(0, 26), min_size=4, max_size=4))
def test_kernel_check_survives_pair_relabeling(codes):
    parts = [quad(c // 9, (c // 3) % 3, c % 3) for c in codes]
    q = TupleQuadruple(*parts)
    swapped = TupleQuadruple(parts[2], parts[3], parts[0], parts[1])
    assert kernel_semibasis_check(q)[0] == kernel_semibasis_check(swapped)[0]


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError, match="stride"):
        next(enumerate_tuples(stride=0))


def test_enumerated_sample_passes_everything():
    n = 0
    for q in enumerate_tuples(stride=5000):
        assert quadruple_relations(q) == (1, 1, 0, 0, 0, 0)
        assert kernel_semibasis_check(q)[0]
        n += 1
    assert n == survey(stride=5000)["total"] == 984


def dense_tuples(stride):
    """The per-row enumeration: every row tests every pair against its valid set."""
    pairs, ok0, _ = _pair_list()
    pu, pv = pairs[:, 0], pairs[:, 1]
    ok0 = ok0.astype(bool)
    for r in range(0, len(pairs), stride):
        valid = ok0[pu[r]] & ok0[pv[r]]
        for q in np.nonzero(valid[pu] & valid[pv])[0]:
            yield TupleQuadruple(*(septuple_from_index(int(i)) for i in (pu[r], pv[r], pu[q], pv[q])))


def full_grid_pair_list(d=3):
    """_pair_list by the full-grid formula: _commutator on every pair of septuples."""
    idx = np.arange(d ** 7)
    digs = [(idx // d ** pw % d).astype(np.int16) for pw in range(6, -1, -1)]
    lin, c = _commutator([x[:, None] for x in digs], [x[None, :] for x in digs], d)
    d1, d2, d3 = digs[:3]
    colcode = (d1 + 3 * d2 + 9 * d3).astype(np.int64)
    return np.argwhere(lin & (c == 1)), (lin & (c == 0)).astype(np.uint8), colcode


def test_pair_list_matches_the_full_grid_formula():
    for got, want in zip(_pair_list(), full_grid_pair_list()):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_enumeration_matches_the_dense_loop():
    got = list(enumerate_tuples(stride=997))
    assert len(got) > 0
    assert got == list(dense_tuples(997))


def test_quick_survey_tier():
    report = survey(stride=100)
    assert report["pairs"] == 174960
    assert report["total"] == 42192
    assert report["passed"] == 42192
    assert report["failed"] == 0
    assert report["failures"] == []
    assert "normal form" in report["scope"]
    assert sorted(report) == [
        "d", "failed", "failures", "pairs", "passed", "scope", "stride", "total",
    ]


@pytest.mark.parametrize("stride", [50, 5])
def test_survey_working_memory_stays_near_the_tables_it_keeps(stride):
    """Peak allocation within 1.5x the pair tables, histogram and semibasis table.

    The walk's scratch is bounded per step, so the bound does not grow as
    the stride shrinks.
    """
    pairs, ok0, _ = _pair_list()
    kept = ok0.nbytes + pairs.nbytes + len(pairs) * 8 + 729 * 729 * (8 + 1)  # + stkey, hist, lut
    del pairs, ok0
    survey(stride=5000)  # the first call pays the imports and lazy tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = survey(stride=stride)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["failed"] == 0
    assert peak - base < 1.5 * kept


def test_survey_is_deterministic():
    assert survey(stride=300) == survey(stride=300)


def _table_code(q):
    """Index of the tuple's quadratic matrix in the semibasis table."""
    def col(s):
        return s.d1 + 3 * s.d2 + 9 * s.d3

    return col(q.u) + 27 * col(q.v) + 729 * (col(q.s) + 27 * col(q.t))


def test_survey_lists_the_tuples_of_a_failing_entry(monkeypatch, capsys):
    tuples = list(enumerate_tuples(stride=1000))
    codes = [_table_code(q) for q in tuples]
    cleared = max(set(codes), key=codes.count)
    real = _kernels.semibasis_lut

    def table():
        lut = real()
        lut[cleared] = 0
        return lut

    monkeypatch.setattr(_kernels, "semibasis_lut", table)
    report = survey(stride=1000)
    assert report["total"] == len(tuples)
    assert report["failed"] == codes.count(cleared) > 20
    assert report["passed"] == report["total"] - report["failed"]
    failing = [q for q, code in zip(tuples, codes) if code == cleared]
    assert report["failures"] == [
        {key: list(s) for key, s in zip("uvst", q)} for q in failing[:20]
    ]
    for f in report["failures"]:
        q = TupleQuadruple(*(Septuple(*f[key]) for key in "uvst"))
        assert _table_code(q) == cleared
    assert main(["qutrit3", "survey", "--stride", "1000"]) == 1
    assert "; %d fail" % report["failed"] in capsys.readouterr().out


def test_full_survey():
    report = survey()
    assert report["total"] == 4199040
    assert report["passed"] == 4199040
    assert report["failed"] == 0
    assert report["failures"] == []
