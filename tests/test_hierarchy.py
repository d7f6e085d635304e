import hashlib
import json
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierarchon.cyclo import CycloScalar, conductor
from hierarchon.exactmat import (
    ExactMatrix,
    ScaledUnitary,
    equal_up_to_phase,
    powers,
    to_interchange,
)
from hierarchon.hierarchy import (
    REFERENCE_COUNTS,
    _closure_gaps,
    _monomials,
    enumerate_level,
    enumerate_levels,
    membership,
    order_d_corrections,
)
from hierarchon.phasespace import PauliElement, pauli_x, pauli_z, to_matrix, weyl
from hierarchon.svn import ConjugateTuple, reconstruct, tuple_of


def dft(d):
    w = CycloScalar.omega(d)
    grid = [[w ** (z * y) for y in range(d)] for z in range(d)]
    return ScaledUnitary(ExactMatrix.from_scalars(d, grid), d)


def zx(d):
    return to_matrix(pauli_z(d, 1, 1)), to_matrix(pauli_x(d, 1, 1))


def rat(d, q):
    return CycloScalar.from_rational(d, Fraction(q))


def diag9(*exps):
    z9 = CycloScalar.zeta(3, 2, 1)
    return ExactMatrix.diag(3, [z9 ** e for e in exps])


def companion(top):
    zero, one = rat(3, 0), rat(3, 1)
    return ExactMatrix.from_scalars(3, [[zero, zero, top], [one, zero, zero], [zero, one, zero]])


def cnot(d):
    # |z1 z2> -> |z1, z2 + z1>, wire 1 most significant
    phi = conductor(d, 1).phi
    nums = np.zeros((d * d, d * d, phi), dtype=object)
    for z1 in range(d):
        for z2 in range(d):
            nums[z1 * d + (z2 + z1) % d, z1 * d + z2, 0] = 1
    return ExactMatrix(d, 1, nums, 1)


@pytest.fixture(scope="module")
def d3(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("levels"))
    return {k: enumerate_level(3, 1, k, cache_dir=cache) for k in range(1, 5)}


# ---------------------------------------------------------------------------
# order-d corrections


def test_corrections_of_weyl_are_the_phase_orbit():
    Z, _ = zx(3)
    out = order_d_corrections(Z)
    assert len(out) == 3
    for j, g in enumerate(out):
        assert g.phase == CycloScalar.omega(3, j)
        assert g.matrix().pow_int(3).is_identity()


def test_corrections_rescale_scaled_weyls():
    Z, _ = zx(3)
    w = CycloScalar.omega(3)
    one = rat(3, 1)
    # (1+w) and (1-w) exercise the unit and the Gauss-sum witness branches
    cases = [
        (Z.scale(rat(3, 3)), rat(3, Fraction(1, 3))),
        (Z.scale(rat(3, 2)), rat(3, Fraction(1, 2))),
        (Z.scale(one + w), -one),
        (Z.scale(one + (-w)), (-(one + w + w)) * rat(3, Fraction(1, 3))),
    ]
    for M, c0 in cases:
        out = order_d_corrections(M)
        assert out is not None
        assert out[0].phase == c0
        for g in out:
            assert equal_up_to_phase(g.matrix(), Z)
            assert g.matrix().pow_int(3).is_identity()


def test_corrections_promote_the_conductor():
    M = companion(CycloScalar.zeta(3, 2, 1))
    out = order_d_corrections(M)
    assert len(out) == 3
    # M**3 = zeta9 I, so the base correction is zeta27**-1
    assert out[0].phase == CycloScalar.zeta(3, 3, 26)
    for g in out:
        assert g.matrix().pow_int(3).is_identity()


def test_corrections_refuse_uncorrectable_gates():
    one = rat(3, 1)
    z9 = CycloScalar.zeta(3, 2, 1)
    assert order_d_corrections(ExactMatrix.diag(3, [one, z9, z9 * z9])) is None
    assert order_d_corrections(dft(3).mat) is None
    # cube is 2I and 2 has no rational cube root
    assert order_d_corrections(companion(rat(3, 2))) is None


def test_corrections_in_dimension_five():
    Z, X = zx(5)
    out = order_d_corrections(Z.scale(rat(5, 5)))
    assert out[0].phase == rat(5, Fraction(1, 5))
    out = order_d_corrections(X.scale(rat(5, 2)))
    assert out[0].phase == rat(5, Fraction(1, 2))
    for g in out:
        assert equal_up_to_phase(g.matrix(), X)
        assert g.matrix().pow_int(5).is_identity()


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([3, 5]),
    p=st.integers(0, 4),
    q=st.integers(0, 4),
    num=st.integers(-9, 9).filter(bool),
    den=st.integers(1, 9),
)
def test_corrections_exist_for_rational_weyl_multiples(d, p, q, num, den):
    W = to_matrix(weyl(d, (p % d,), (q % d,)))
    M = W.scale(rat(d, Fraction(num, den)))
    out = order_d_corrections(M)
    assert out is not None and len(out) == d
    for g in out:
        assert equal_up_to_phase(g.matrix(), W)
        assert g.matrix().pow_int(d).is_identity()


# ---------------------------------------------------------------------------
# membership


def test_membership_ladder_for_named_gates():
    Z, _ = zx(3)
    assert membership(ScaledUnitary.exact(Z), 1)
    F = dft(3)
    assert not membership(F, 1)
    assert membership(F, 2)
    assert membership(F, 3)
    T9 = ScaledUnitary.exact(diag9(0, 1, 2))
    assert not membership(T9, 2)
    assert membership(T9, 3)


def test_membership_tracks_precision_and_degree():
    # linear zeta27 diagonal enters two levels above the linear zeta9 one,
    # and the quadratic zeta9 diagonal sits between them
    one = rat(3, 1)
    z27 = CycloScalar.zeta(3, 3, 1)
    T27 = ScaledUnitary.exact(ExactMatrix.diag(3, [one, z27, z27 * z27]))
    assert not membership(T27, 3)
    assert not membership(T27, 4)
    assert membership(T27, 5)
    Q9 = ScaledUnitary.exact(diag9(0, 1, 4))
    assert not membership(Q9, 3)
    assert membership(Q9, 4)


def test_membership_on_two_wires():
    CX = ScaledUnitary.exact(cnot(3))
    assert not membership(CX, 1)
    assert membership(CX, 2)


def test_membership_rejects_bad_inputs():
    Z, _ = zx(3)
    with pytest.raises(ValueError, match="levels start at 1"):
        membership(ScaledUnitary.exact(Z), 0)
    odd = ScaledUnitary.exact(ExactMatrix.identity(3, 4, 1))
    with pytest.raises(ValueError, match="power of d"):
        membership(odd, 2)


def test_membership_catalog_shortcut_agrees(d3):
    gates = [
        dft(3),
        ScaledUnitary.exact(diag9(0, 1, 2)),
        ScaledUnitary.exact(zx(3)[0]),
    ]
    for G in gates:
        for k in (2, 3):
            assert membership(G, k, catalogs=d3) == membership(G, k)


# ---------------------------------------------------------------------------
# enumeration


def test_level_counts_and_meta_d3(d3):
    assert {k: len(cat) for k, cat in d3.items()} == {1: 9, 2: 216, 3: 1944, 4: 7128}
    assert {k: d3[k].meta["pairs"] for k in (2, 3, 4)} == {2: 24, 3: 216, 4: 792}
    assert {k: d3[k].meta["candidates"] for k in (2, 3, 4)} == {2: 9, 3: 81, 4: 225}
    for k in (2, 3, 4):
        assert len(d3[k]) == 9 * d3[k].meta["pairs"]
        assert len(d3[k]) == REFERENCE_COUNTS[(3, 1)][k]
    assert d3[4].meta["closure_failure_count"] == 0


def test_level_counts_d5_d7():
    cat5 = enumerate_level(5, 1, 2)
    assert len(cat5) == 3000 and cat5.meta["pairs"] == 120
    cat7 = enumerate_level(7, 1, 2)
    assert len(cat7) == 16464 and cat7.meta["pairs"] == 336


def test_catalog_nesting(d3):
    for k in (2, 3, 4):
        lower, upper = d3[k - 1], d3[k]
        assert all(upper.contains(su.mat) for su in lower.representatives())


def test_catalog_orbits_and_divisibility(d3):
    for k, cat in d3.items():
        assert len(cat) % 9 == 0
    cat3 = d3[3]
    rng = random.Random(7)
    picks = rng.sample(range(len(cat3)), 4)
    for idx in picks:
        G = cat3._rep(idx)
        for p in range(3):
            for q in range(3):
                P = to_matrix(pauli_z(3, 1, 1)).pow_int(p) @ to_matrix(pauli_x(3, 1, 1)).pow_int(q)
                assert cat3.contains(G.mat @ P)


def test_clifford_multiples_stay_in_level(d3):
    rng = random.Random(11)
    cliffords = [d3[2]._rep(i) for i in rng.sample(range(len(d3[2])), 5)]
    gates = [d3[3]._rep(i) for i in rng.sample(range(len(d3[3])), 5)]
    for C in cliffords:
        for G in gates:
            assert d3[3].contains(C.mat @ G.mat)
            assert d3[3].contains(G.mat @ C.mat)


def test_catalog_members_pass_recursive_membership(d3):
    rng = random.Random(3)
    for idx in rng.sample(range(len(d3[3])), 5):
        assert membership(d3[3]._rep(idx), 3)


def test_rephasing_a_tuple_member_is_a_right_pauli():
    w = CycloScalar.omega(3)
    Z, X = zx(3)
    for G in (dft(3), ScaledUnitary.exact(diag9(0, 1, 2))):
        (U, V), = tuple_of(G, 1).pairs
        G1 = reconstruct(ConjugateTuple(3, 1, [(U.scale(w), V)]))
        assert equal_up_to_phase(G1.mat, G.mat @ X.pow_int(2))
        G2 = reconstruct(ConjugateTuple(3, 1, [(U, V.scale(w))]))
        assert equal_up_to_phase(G2.mat, G.mat @ Z)


def closure_gaps(T, catalog):
    """The lift's closure gaps (i, j) of a one-wire tuple (U, V) against a catalog."""
    pows = powers(T.members(), T.d)
    monos = _monomials([(pows[0], pows[1])], T.d)
    return _closure_gaps(monos, catalog.digests_of(monos), catalog)


def test_closure_gaps_of_single_wire_tuples(d3):
    Z, X = zx(3)
    assert closure_gaps(ConjugateTuple(3, 1, [(Z, X)]), d3[1]) == []
    assert closure_gaps(tuple_of(dft(3), 1), d3[1]) == []
    T9 = ScaledUnitary.exact(diag9(0, 1, 2))
    # U = T9 Z T9* is Z, while every V**j with j > 0 sits at level 2
    assert closure_gaps(tuple_of(T9, 1), d3[1]) == [(i, j) for i in range(3) for j in (1, 2)]
    assert closure_gaps(tuple_of(T9, 1), d3[2]) == []


def _level_pairs(cat):
    """(phased, pairs) of the lift from cat to the level above it."""
    from hierarchon import hierarchy

    reps, phased, _ = hierarchy._rephase_all([su.mat for su in cat.representatives()], cat.d)
    return phased, hierarchy._omega_pairs(cat.fp, reps, cat.d)


@pytest.mark.parametrize("batch", [512, 1])
def test_closure_failures_match_a_per_monomial_oracle(d3, monkeypatch, batch):
    from hierarchon import hierarchy

    monkeypatch.setattr(hierarchy, "_BATCH", batch)
    # the level-3 lift's pairs, whose monomials mostly lie past level 1
    phased, pairs = _level_pairs(d3[2])
    got = hierarchy._closure_failures(phased, pairs, d3[1])
    want = [
        [
            (i, j)
            for i in range(3)
            for j in range(3)
            if not d3[1].contains(phased[a].pow_int(i) @ phased[b].pow_int(j))
        ]
        for a, b in pairs
    ]
    assert got == want
    assert any(got) and not all(got)


def test_closure_decides_each_distinct_monomial_once(d3, monkeypatch):
    from hierarchon import hierarchy

    original = hierarchy.LevelCatalog.contains
    for batch in (512, 1):
        monkeypatch.setattr(hierarchy, "_BATCH", batch)
        seen = []

        def spy(self, gate, digest=None):
            seen.append(gate.to_key())
            return original(self, gate, digest)

        monkeypatch.setattr(hierarchy.LevelCatalog, "contains", spy)
        cat = hierarchy._lift_level(d3[3])
        # the 7,128 monomials of the 792 pairs are 597 distinct matrices
        assert len(seen) == len(set(seen)) == 597
        assert cat.digests == d3[4].digests
        assert cat.meta["closure_failure_count"] == 0


def test_enumerate_rejects_bad_requests():
    with pytest.raises(ValueError, match="levels start at 1"):
        enumerate_level(3, 1, 0)
    with pytest.raises(ValueError, match="two-wire"):
        enumerate_level(3, 2, 2)
    with pytest.raises(ValueError, match="capped"):
        enumerate_level(3, 3, 1)


# ---------------------------------------------------------------------------
# cache and determinism


def test_cache_roundtrip(tmp_path):
    cache = str(tmp_path)
    first = enumerate_level(3, 1, 2, cache_dir=cache)
    assert "cache_path" in first.meta
    second = enumerate_level(3, 1, 2, cache_dir=cache)
    assert second.meta["from_cache"] == first.meta["cache_path"]
    assert second.digests == first.digests
    assert second.meta["pairs"] == 24


def test_cache_detects_tampering(tmp_path):
    cache = str(tmp_path)
    path = enumerate_level(3, 1, 2, cache_dir=cache).meta["cache_path"]
    with open(path, "rb") as fh:
        doc = json.load(fh)

    def rewrite(d):
        with open(path, "w") as fh:
            json.dump(d, fh)

    bad = dict(doc)
    bad["gates"] = [doc["gates"][1]] + [doc["gates"][0]] + doc["gates"][2:]
    rewrite(bad)
    with pytest.raises(ValueError, match="content hash"):
        enumerate_level(3, 1, 2, cache_dir=cache)

    bad = dict(doc)
    bad["gates"] = doc["gates"][:-1]
    rewrite(bad)
    with pytest.raises(ValueError, match="truncated"):
        enumerate_level(3, 1, 2, cache_dir=cache)

    bad = dict(doc)
    bad["k"] = 3
    rewrite(bad)
    with pytest.raises(ValueError, match="does not describe"):
        enumerate_level(3, 1, 2, cache_dir=cache)

    for bad in (doc["gates"], {k: v for k, v in doc.items() if k != "gates"}):
        rewrite(bad)
        with pytest.raises(ValueError, match="malformed"):
            enumerate_level(3, 1, 2, cache_dir=cache)

    # the header's meta: a JSON object, with a non-negative int failure count
    for meta in (5, None, [], {"closure_failure_count": "x"},
                 {"closure_failure_count": -1}, {"closure_failure_count": True}):
        rewrite(dict(doc, meta=meta))
        with pytest.raises(ValueError, match="malformed"):
            enumerate_level(3, 1, 2, cache_dir=cache)


def _content_hash(gates):
    h = hashlib.sha256()
    for g in gates:
        h.update(json.dumps(g, separators=(",", ":"), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "field,value",
    [("version", True), ("version", 1.0), ("d", 3.0), ("n", True), ("n", 1.0),
     ("k", True), ("k", 1.0), ("count", True), ("count", 1.0)],
)
def test_cache_header_fields_must_be_ints(tmp_path, field, value):
    """JSON true and 1.0 compare equal to 1 in Python, but are no header integers."""
    cache = str(tmp_path)
    path = enumerate_level(3, 1, 1, cache_dir=cache).meta["cache_path"]
    with open(path, "rb") as fh:
        doc = json.load(fh)
    if field == "count":
        # a one-gate level whose hash holds, so only the count's type is wrong
        doc["gates"] = doc["gates"][:1]
        doc["content_hash"] = _content_hash(doc["gates"])
    doc[field] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match="malformed|does not describe"):
        enumerate_level(3, 1, 1, cache_dir=cache)


def test_cache_rejects_a_gate_of_another_base_prime(tmp_path):
    cache = str(tmp_path)
    path = enumerate_level(3, 1, 1, cache_dir=cache).meta["cache_path"]
    with open(path, "rb") as fh:
        doc = json.load(fh)
    x7 = ScaledUnitary.exact(to_matrix(pauli_x(7, 1, 1)))
    doc["gates"][0] = to_interchange(x7, 1)
    h = hashlib.sha256()
    for g in doc["gates"]:
        h.update(json.dumps(g, separators=(",", ":"), sort_keys=True).encode())
    doc["content_hash"] = h.hexdigest()
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match="mixes base primes"):
        enumerate_level(3, 1, 1, cache_dir=cache)


def test_cache_resume_recomputes_only_the_top(tmp_path):
    import os

    cache = str(tmp_path)
    full = enumerate_level(3, 1, 3, cache_dir=cache)
    top = full.meta["cache_path"]
    os.remove(top)
    again = enumerate_level(3, 1, 3, cache_dir=cache)
    assert again.digests == full.digests
    assert os.path.exists(top)


def test_cache_resume_reads_only_the_highest_cached_level(tmp_path, monkeypatch):
    from hierarchon import hierarchy

    cache = str(tmp_path)
    full = enumerate_level(3, 1, 3, cache_dir=cache)
    os.remove(full.meta["cache_path"])
    read = []
    real = hierarchy._load_cache

    def spy(d, n, k, cache_dir, fp):
        cat = real(d, n, k, cache_dir, fp)
        if cat is not None:
            read.append(k)
        return cat

    monkeypatch.setattr(hierarchy, "_load_cache", spy)
    assert enumerate_level(3, 1, 3, cache_dir=cache).digests == full.digests
    assert read == [2]
    assert enumerate_level(3, 1, 3, cache_dir=cache).digests == full.digests
    assert read == [2, 3]


def _tree_sha256(root):
    """One sha256 over every file under root: relative path, then content hash."""
    h = hashlib.sha256()
    for base, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, root).encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


# Recorded from the per-product lift that preceded the batched one: the plain
# JSON cache tree of d=3 through level 3, and the d=3 level-4 digest list.
PINNED_D3_TREE = "d78f6cb4b453e450fc2d53bc09e4078c6fa6e6b0bb76312ecd7ce79bf382fba7"
PINNED_D3_LEVEL4 = "6a78d7fb4ed01d68d5ad30e21cbf2982441f7c3fafea9cdf6fdc8cc9a6742356"


def test_catalog_bytes_are_pinned(tmp_path, d3):
    assert hashlib.sha256(b"".join(d3[4].digests)).hexdigest() == PINNED_D3_LEVEL4
    enumerate_level(3, 1, 3, cache_dir=str(tmp_path))
    assert _tree_sha256(str(tmp_path)) == PINNED_D3_TREE


def test_level_walk_and_single_level_write_identical_caches(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    walked = list(enumerate_levels(3, 1, 3, cache_dir=a))
    single = enumerate_level(3, 1, 3, cache_dir=b)
    assert walked[-1].digests == single.digests
    assert _tree_sha256(a) == _tree_sha256(b)


def test_enumerate_levels_lifts_each_level_once(monkeypatch):
    from hierarchon import hierarchy

    lifted = []
    real = hierarchy._lift_level

    def spy(prev):
        lifted.append(prev.k + 1)
        return real(prev)

    monkeypatch.setattr(hierarchy, "_lift_level", spy)
    counts = [len(cat) for cat in enumerate_levels(3, 1, 3, cache_dir=False)]
    assert counts == [9, 216, 1944]
    assert lifted == [2, 3]


def test_lift_rephases_each_gate_once_from_the_batched_power(d3, monkeypatch):
    from hierarchon import hierarchy

    seen = []
    real = hierarchy._corrections_reason

    def spy(M, power=None):
        seen.append(power is not None)
        return real(M, power)

    def no_pow(self, k):
        raise AssertionError("the lift recomputed a power")

    monkeypatch.setattr(hierarchy, "_corrections_reason", spy)
    monkeypatch.setattr(ExactMatrix, "pow_int", no_pow)
    cat = hierarchy._lift_level(d3[2])
    assert cat.digests == d3[3].digests
    assert seen == [True] * len(d3[2])
    assert cat.meta["candidates"] + sum(cat.meta["skipped"].values()) == len(d3[2])
    assert cat.meta["skipped"]


def test_lift_blocks_change_nothing(d3, monkeypatch):
    from hierarchon import hierarchy

    # one gate or pair per pass through the screen, the closure and the sweep
    monkeypatch.setattr(hierarchy, "_BATCH", 1)
    cat = hierarchy._lift_level(d3[3])
    assert cat.digests == d3[4].digests
    assert cat.meta == {k: v for k, v in d3[4].meta.items() if k != "cache_path"}


def test_right_pauli_sweep_is_exact_near_and_past_int64():
    from hierarchon.hierarchy import _right_pauli_sweep

    phi = conductor(5, 1).phi
    paulis = [to_matrix(PauliElement(5, 0, (p,), (q,))) for p in range(5) for q in range(5)]
    for big in (2 ** 62 - 1, 2 ** 70):
        nums = np.zeros((5, 5, phi), dtype=object)
        for i in range(5):
            nums[i, (2 * i + 1) % 5] = [big, -big + i, 3, -big]
        G = ExactMatrix(5, 1, nums, 1)
        assert _right_pauli_sweep([G, G], 5, 1) == [G @ P for P in paulis] * 2


def test_batched_keys_match_single_keys(d3):
    fp = d3[1].fp
    p = fp.primes[0]
    # a first nonzero entry of p vanishes mod p and takes the canonical path
    phi = conductor(3, 1).phi
    nums = np.zeros((3, 3, phi), dtype=np.int64)
    nums[0, 0, 0] = p
    nums[1, 1, 1] = 1
    nums[2, 2, 0] = 2
    mats = [su.mat for su in list(d3[3].representatives())[:40]]
    mats += [m.promote(3) for m in mats[:5]]
    big = nums.astype(object)
    big[2, 2, 0] = 2 ** 70  # past int64, so the batch holds Python objects
    mats += [ExactMatrix(3, 1, nums, 1), ExactMatrix(3, 1, big, 1)]
    assert mats[-1].nums.dtype == object
    mats += [zx(3)[0], dft(3).mat]
    assert fp.keys(mats) == [fp.key(m) for m in mats]
    assert d3[3].digests_of(mats) == [d3[3]._digest(m) for m in mats]


# equal_up_to_phase calls of the d=3 walk to level 3 on one-byte digests
COLLISION_COMPARES = 7480


def test_fingerprint_collisions_reach_the_exact_comparison(monkeypatch):
    from hierarchon import hierarchy

    # one-byte digests put hundreds of classes in a bucket, so the counts
    # rest on the exact comparison alone
    digest, digests_of = hierarchy.LevelCatalog._digest, hierarchy.LevelCatalog.digests_of
    monkeypatch.setattr(
        hierarchy.LevelCatalog, "_digest", lambda self, mat: digest(self, mat)[:1]
    )
    monkeypatch.setattr(
        hierarchy.LevelCatalog, "digests_of",
        lambda self, mats: [dig[:1] for dig in digests_of(self, mats)],
    )
    compares = []
    real = hierarchy.equal_up_to_phase

    def spy(a, b):
        compares.append(1)
        return real(a, b)

    monkeypatch.setattr(hierarchy, "equal_up_to_phase", spy)
    counts = [len(cat) for cat in enumerate_levels(3, 1, 3, cache_dir=False)]
    assert counts == [9, 216, 1944]
    assert len(compares) == COLLISION_COMPARES


# rephased level-3 representatives, in _rephase_all order, whose pair is no
# conjugate tuple: four of its monomials lie past level 3
NOT_A_TUPLE = (97, 1)


def test_a_closure_failure_is_recorded_and_the_cli_exits_1(d3, tmp_path, capsys, monkeypatch):
    from hierarchon import hierarchy
    from hierarchon.cli import main

    # levels 1-3 cached first, so the CLI below lifts only level 4 with the pair
    cache = str(tmp_path)
    enumerate_level(3, 1, 3, cache_dir=cache)
    real = hierarchy._omega_pairs
    monkeypatch.setattr(
        hierarchy, "_omega_pairs", lambda fp, mats, d: [NOT_A_TUPLE] + real(fp, mats, d)[:4]
    )
    cat = hierarchy._lift_level(d3[3])
    assert cat.meta["closure_failure_count"] == 1
    assert cat.meta["closure_failures"] == [
        {"pair": list(NOT_A_TUPLE), "gaps": [(1, 1), (1, 2), (2, 1), (2, 2)]}
    ]
    assert cat.meta["pairs"] == 4

    # the whole level-4 lift with the pair in front: the catalog is whole,
    # and the failure alone fails the run
    monkeypatch.setattr(
        hierarchy, "_omega_pairs", lambda fp, mats, d: [NOT_A_TUPLE] + real(fp, mats, d)
    )
    argv = ["enumerate", "--d", "3", "--max-level", "4", "--cache-dir", cache, "--format", "json"]
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["closure_failures"] == 1
    assert [lv["verdict"] for lv in doc["levels"]] == ["MATCH"] * 4


def test_closure_keys_object_lane_monomials_exactly(d3, monkeypatch):
    from hierarchon import hierarchy

    lanes = []
    real = hierarchy._exact_key

    def spy(M, m):
        lanes.append(M.nums.dtype)
        return real(M, m)

    monkeypatch.setattr(hierarchy, "_exact_key", spy)
    U, V = tuple_of(ScaledUnitary.exact(diag9(0, 1, 2)), 1).members()
    # U * 2**40 squares past int64; scaling changes no phase class
    big = U.scale_q(Fraction(2 ** 40))
    for cat, want in ((d3[1], [(i, j) for i in range(3) for j in (1, 2)]), (d3[2], [])):
        assert hierarchy._closure_failures([big, V], [(0, 1)], cat) == [want]
    assert object in lanes


# ---------------------------------------------------------------------------
# heavier tiers


@pytest.mark.extended
def test_level_five_and_six_d3(tmp_path):
    cache = str(tmp_path)
    assert len(enumerate_level(3, 1, 5, cache_dir=cache)) == 22680
    assert len(enumerate_level(3, 1, 6, cache_dir=cache)) == 69336


@pytest.mark.extended
def test_level_three_d5():
    cat = enumerate_level(5, 1, 3)
    # the reference table records 7500 here; the run lands on 25 * pairs
    # reproducibly, and the same d**2 ratio holds at d=3 and d=7
    assert cat.meta["pairs"] == 3000
    assert len(cat) == 75000
    assert len(cat) == 25 * cat.meta["pairs"]


def test_cache_save_serialises_each_gate_once(tmp_path, monkeypatch):
    from hierarchon import hierarchy

    calls = []
    real = hierarchy.to_interchange

    def spy(su, n):
        calls.append(1)
        return real(su, n)

    cat = enumerate_level(3, 1, 2, cache_dir=False)
    monkeypatch.setattr(hierarchy, "to_interchange", spy)
    path = hierarchy._save_cache(cat, str(tmp_path))
    assert len(calls) == len(cat) == 216
    assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
