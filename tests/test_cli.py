"""End-to-end checks of the command line front end.

A shared cache directory keeps the catalog builds to one per session; the
byte-identity tests rerun commands against the warm cache and compare
stdout verbatim.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import hierarchon.cli
import hierarchon.semiclifford
from hierarchon.cli import SIZE_CEILING, _estimate_members, _verdict, main
from hierarchon.cyclo import CycloScalar
from hierarchon.exactmat import ExactMatrix, ScaledUnitary, max_conductor, to_interchange
from hierarchon.phasespace import pauli_x, to_matrix


@pytest.fixture(scope="module", autouse=True)
def cache_env(tmp_path_factory):
    cache = tmp_path_factory.mktemp("clicache")
    old = os.environ.get("HIERARCHON_CACHE")
    os.environ["HIERARCHON_CACHE"] = str(cache)
    yield str(cache)
    if old is None:
        del os.environ["HIERARCHON_CACHE"]
    else:
        os.environ["HIERARCHON_CACHE"] = old


def _t9_doc():
    z9 = CycloScalar.zeta(3, 2, 1)
    return to_interchange(ScaledUnitary.exact(ExactMatrix.diag(3, [z9 ** 0, z9, z9 ** 2])), 1)


def _root_diag_doc(d, m):
    """diag(1, zeta, ..., zeta**(d-1)) for zeta a primitive d**m-th root."""
    z = CycloScalar.zeta(d, m, 1)
    return to_interchange(ScaledUnitary.exact(ExactMatrix.diag(d, [z ** j for j in range(d)])), 1)


@pytest.fixture(scope="module")
def t9_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("gates") / "t9.json"
    path.write_text(json.dumps(_t9_doc()))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_matches_reference_table(capsys):
    code, out, _ = run(capsys, ["enumerate", "--d", "3", "--max-level", "3"])
    assert code == 0
    assert out.splitlines()[0].split() == ["level", "count", "reference", "verdict"]
    assert out.count("MATCH") == 3
    assert "MISMATCH" not in out


def test_enumerate_json_schema_is_pinned(capsys):
    code, out, _ = run(
        capsys, ["enumerate", "--d", "3", "--max-level", "2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == {
        "schema": "hierarchon.enumerate/1",
        "library": "0.1.0",
        "d": 3,
        "n": 1,
        "max_level": 2,
        "levels": [
            {"level": 1, "count": 9, "reference": 9, "verdict": "MATCH"},
            {"level": 2, "count": 216, "reference": 216, "verdict": "MATCH"},
        ],
        "closure_failures": 0,
    }


def test_enumerate_is_deterministic_across_reruns(capsys):
    argv = ["enumerate", "--d", "3", "--max-level", "3", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_enumerate_refuses_two_wire_levels(capsys):
    code, _, err = run(capsys, ["enumerate", "--d", "3", "--n", "2", "--max-level", "2"])
    assert code == 2
    assert "survey" in err


def test_enumerate_refuses_runaway_sizes(capsys):
    code, _, err = run(capsys, ["enumerate", "--d", "3", "--max-level", "8"])
    assert code == 2
    assert "ceiling" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--d", "3", "--max-level", "8"],
        ["semiclifford", "--catalog", "9", "--d", "7"],
        ["diagonal", "verify", "--d", "7", "--k", "40"],
    ],
    ids=["enumerate", "semiclifford", "diagonal"],
)
def test_every_catalog_walk_refuses_runaway_sizes(capsys, monkeypatch, argv):
    def no_lift(*args, **kwargs):
        raise AssertionError("a lift started")

    monkeypatch.setattr(hierarchon.cli, "enumerate_level", no_lift)
    monkeypatch.setattr(hierarchon.cli, "enumerate_levels", no_lift)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ceiling of %d" % SIZE_CEILING in err


@pytest.mark.parametrize(
    "max_level, estimated",
    [("8", "estimated"), ("5000", "estimated at least"), ("100000", "estimated at least")],
)
def test_runaway_levels_are_refused_without_forming_their_estimate(
    capsys, monkeypatch, max_level, estimated
):
    levels = []
    original = hierarchon.cli._estimate_members

    def estimate(d, n, k):
        levels.append(k)
        return original(d, n, k)

    monkeypatch.setattr(hierarchon.cli, "_estimate_members", estimate)
    code, out, err = run(capsys, ["enumerate", "--d", "3", "--max-level", max_level])
    assert (code, out) == (2, "")
    assert err == "error: %s %d gates at level %s is past the ceiling of %d\n" % (
        estimated, 69336 * 81, max_level, SIZE_CEILING)
    # the walk stops at level 8, the first whose estimate passes the ceiling
    assert levels == list(range(1, 9))


def test_size_estimates_track_the_reference_table():
    assert _estimate_members(3, 1, 4) == 7128
    assert _estimate_members(3, 1, 7) == 69336 * 9
    assert _estimate_members(7, 1, 3) == 806736
    assert _estimate_members(7, 1, 4) <= SIZE_CEILING * 10
    assert _estimate_members(3, 2, 1) == 81


def test_verdict_column():
    assert _verdict(1944, 1944) == "MATCH"
    assert _verdict(75000, 7500) == "MISMATCH"
    assert _verdict(42, None) == "NEW"


def test_membership_places_the_ninth_root_diagonal(capsys, t9_file):
    code, out, _ = run(capsys, ["membership", t9_file, "--max-level", "4"])
    assert code == 0
    assert out.strip() == "level: 3"


def test_membership_json_reports_the_gate_hash(capsys, t9_file):
    code, out, _ = run(
        capsys, ["membership", t9_file, "--max-level", "3", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hierarchon.membership/1"
    assert doc["level"] == 3
    assert doc["gate_hash"] == (
        "d8343ca4f09c8d26ecb19206a57fc5175ccae95df45d4564e6f10f2d4eaaa9d8"
    )


def test_membership_above_max_level_is_null_not_an_error(capsys, t9_file):
    code, out, _ = run(
        capsys, ["membership", t9_file, "--max-level", "2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["level"] is None


def test_membership_rejects_a_broken_gate_file(capsys, tmp_path, t9_file):
    doc = json.loads(open(t9_file).read())
    doc["entries"][0][0][0] = 5  # no longer unitary
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["membership", str(bad)])
    assert code == 2
    assert "scale2" in err


def _cell(doc, idx):
    return doc["entries"][idx % len(doc["entries"])]


def _inplace(change):
    """An edit that mutates the document and returns it."""
    return lambda doc: (change(doc), doc)[1]


# each edit leaves a document the loader must refuse
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-50, 50), st.floats(allow_nan=False),
    st.text(max_size=4),
    # a two-integer list can be a valid coefficient, so lengths skip two
    st.lists(st.integers(-3, 3), max_size=3).filter(lambda v: len(v) != 2),
)


def _keeps_the_document_valid(field, value):
    if field == "scale2" and isinstance(value, str):
        try:
            return Fraction(value) == 1
        except (ValueError, ZeroDivisionError):
            return False
    return value == {"d": 3, "n": 1, "conductor": 9}.get(field) and not isinstance(value, bool)


_MALFORMED = st.one_of(
    _JSON_VALUES.map(lambda v: lambda doc: v),  # not an object at all
    st.sampled_from(["version", "d", "n", "conductor", "scale2", "entries"]).map(
        lambda f: lambda doc: {k: v for k, v in doc.items() if k != f}
    ),
    st.tuples(st.sampled_from(["d", "n", "conductor", "scale2", "entries"]), _JSON_VALUES)
    .filter(lambda fv: not _keeps_the_document_valid(*fv))
    .map(lambda fv: lambda doc: dict(doc, **{fv[0]: fv[1]})),
    st.sampled_from([1, 4, 9, 15, 2 ** 61 - 1]).map(lambda d: lambda doc: dict(doc, d=d)),
    st.sampled_from([0, 1, 3 ** 6, 3 ** 8, 5 ** 4, 18, 27 * 5]).map(
        lambda c: lambda doc: dict(doc, conductor=c)
    ),
    # valid unitaries one conductor past max_conductor(d)
    st.sampled_from([(3, 6), (5, 4)]).map(lambda dm: lambda doc: _root_diag_doc(*dm)),
    st.sampled_from([2, 3, 10 ** 18]).map(lambda n: lambda doc: dict(doc, n=n)),
    st.sampled_from(["0", "1/0", "-1", "1.5", "1e9", "x", ""]).map(
        lambda v: lambda doc: dict(doc, scale2=v)
    ),
    st.integers(0, 80).map(lambda i: lambda doc: dict(doc, entries=doc["entries"][:i % 9])),
    st.integers(0, 8).map(lambda i: _inplace(lambda doc: _cell(doc, i).append([1, 1]))),
    st.integers(0, 8).map(lambda i: _inplace(lambda doc: _cell(doc, i).pop())),
    st.tuples(st.integers(0, 8), st.integers(0, 5)).map(
        lambda ij: _inplace(lambda doc: _cell(doc, ij[0]).__setitem__(ij[1], [1, 0]))
    ),
    st.tuples(st.integers(0, 8), st.integers(0, 5), _JSON_VALUES).map(
        lambda ijv: _inplace(lambda doc: _cell(doc, ijv[0]).__setitem__(ijv[1], ijv[2]))
    ),
    st.tuples(st.integers(0, 8), _JSON_VALUES).map(
        lambda iv: _inplace(lambda doc: doc["entries"].__setitem__(iv[0], iv[1]))
    ),
)


@settings(max_examples=150, deadline=None)
@given(edit=_MALFORMED)
def test_malformed_gate_files_exit_two_with_one_line(edit):
    doc = edit(_t9_doc())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gate.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["membership", path, "--max-level", "1"])
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("d", [3, 5])
def test_membership_takes_the_largest_supported_conductor(capsys, tmp_path, d):
    c = max_conductor(d)
    m = round(math.log(c, d))
    assert d ** m == c
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(_root_diag_doc(d, m)))
    code, out, err = run(capsys, ["membership", str(path), "--max-level", "1"])
    assert (code, err) == (0, "")
    assert "not within levels 1..1" in out
    path.write_text(json.dumps(_root_diag_doc(d, m + 1)))
    code, _, err = run(capsys, ["membership", str(path), "--max-level", "1"])
    assert code == 2
    assert err.startswith("error: conductor %d is past the supported %d" % (c * d, c))


def test_membership_stops_at_the_first_level_that_holds_the_gate(capsys, tmp_path):
    gate = tmp_path / "x3.json"
    gate.write_text(json.dumps(to_interchange(ScaledUnitary.exact(to_matrix(pauli_x(3, 1, 1))), 1)))
    store = tmp_path / "store"
    code, out, _ = run(capsys, ["membership", str(gate), "--cache-dir", str(store)])
    assert (code, out) == (0, "level: 1\n")
    assert os.listdir(store / "d3_n1") == ["level_1.json"]


def _gate_file(path, mat, n):
    path.write_text(json.dumps(to_interchange(ScaledUnitary.exact(mat), n)))
    return str(path)


@pytest.mark.parametrize("max_level", [[], ["--max-level", "3"]], ids=["default", "3"])
def test_membership_places_an_eleven_dimensional_x_below_the_ceiling(capsys, tmp_path, max_level):
    gate = _gate_file(tmp_path / "x11.json", to_matrix(pauli_x(11, 1, 1)), 1)
    code, out, err = run(capsys, ["membership", gate] + max_level)
    assert (code, out, err) == (0, "level: 1\n", "")


@pytest.mark.parametrize("max_level", [[], ["--max-level", "2"]], ids=["default", "2"])
def test_membership_places_a_two_wire_x_below_the_ceiling(capsys, tmp_path, max_level):
    gate = _gate_file(tmp_path / "x1.json", to_matrix(pauli_x(3, 2, 1)), 2)
    code, out, err = run(capsys, ["membership", gate] + max_level)
    assert (code, out, err) == (0, "level: 1\n", "")


def test_membership_refuses_where_its_walk_reaches_a_limit(capsys, tmp_path):
    """A gate in no level within the limits meets the refusal for --max-level."""
    z9 = CycloScalar.zeta(3, 2, 1)
    t9_on_wire_1 = ExactMatrix.diag(3, [z9 ** (i // 3) for i in range(9)])
    gate = _gate_file(tmp_path / "t9_1.json", t9_on_wire_1, 2)
    store = tmp_path / "store"
    code, out, err = run(capsys, ["membership", gate, "--cache-dir", str(store)])
    assert (code, out) == (2, "")
    assert err == "error: estimated %d gates at level 4 is past the ceiling of %d\n" % (
        _estimate_members(3, 2, 4), SIZE_CEILING)
    assert os.listdir(store / "d3_n2") == ["level_1.json"]
    code, out, err = run(capsys, ["membership", gate, "--max-level", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: two-wire enumeration above level 1 is out of reach")


def test_membership_rejects_a_missing_file(capsys):
    code, _, err = run(capsys, ["membership", "/nonexistent/gate.json"])
    assert code == 2
    assert "error" in err


def test_diagonal_verify(capsys):
    code, out, _ = run(capsys, ["diagonal", "verify", "--d", "3", "--k", "3"])
    assert code == 0
    assert "pass: 27 diagonal classes" in out


def test_diagonal_verify_json(capsys):
    code, out, _ = run(
        capsys, ["diagonal", "verify", "--d", "3", "--k", "2", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hierarchon.diagonal/1"
    assert doc["verdict"] == "pass"
    assert doc["delta_count"] == 9
    assert doc["diagonal_in_catalog"] == 9
    assert doc["missing"] == [] and doc["extra"] == []


def test_semiclifford_gate_mode(capsys, t9_file):
    code, out, _ = run(capsys, ["semiclifford", t9_file, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hierarchon.semiclifford/1"
    assert doc["mode"] == "gate"
    assert doc["report"]["semi_clifford"] is True
    assert doc["report"]["witness"]["semibasis"] == [[[1], [0]]]


def test_semiclifford_catalog_mode(capsys):
    code, out, _ = run(
        capsys, ["semiclifford", "--catalog", "2", "--d", "3", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "catalog"
    assert doc["total"] == 216
    assert doc["semi_clifford"] == 216
    assert doc["counterexamples"] == []


def test_semiclifford_needs_exactly_one_input(capsys, t9_file):
    code, _, err = run(capsys, ["semiclifford"])
    assert code == 2
    code, _, err = run(capsys, ["semiclifford", t9_file, "--catalog", "2"])
    assert code == 2
    assert "not both" in err


def test_teleport_verify(capsys):
    code, out, _ = run(
        capsys,
        ["teleport", "verify", "--samples", "4", "--seed", "9", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hierarchon.teleport/1"
    assert doc["seed"] == 9
    assert doc["branches_checked"] == 12
    assert doc["failures"] == []


@pytest.mark.parametrize("samples", ["-3", "0"])
def test_teleport_refuses_an_empty_sample(capsys, samples):
    # a report of zero checked branches must not pass as a verification
    code, out, err = run(capsys, ["teleport", "verify", "--samples", samples])
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: --samples must be at least 1"]


# sha256 of stdout, recorded before the certificate path was made to do
# each piece of exact work once; the reports must not move by a byte
PINNED_REPORTS = [
    (
        ["semiclifford", "--catalog", "2", "--d", "3", "--certificates", "--format", "json"],
        "b5a8fd29d4ff75f5bc2d51388622c84a59adb76e2ea96b0d30cef265a57e9f24",
    ),
    (
        ["teleport", "verify", "--samples", "20", "--seed", "3", "--format", "json"],
        "713a00cddac6aab99c045cf726b4931b9df330ef79d27df87a15ba2ad80c0944",
    ),
    # the 1,944 level-3 certificates, where the most factor documents are shared
    (
        ["semiclifford", "--catalog", "3", "--d", "3", "--certificates", "--format", "json"],
        "e3beaa914ca0cff7264b6e9efa2f113d6061cc092a2aaf147f7f644848283c17",
    ),
    # the 3,000 d=5 level-2 certificates, recorded before they were batched
    (
        ["semiclifford", "--catalog", "2", "--d", "5", "--certificates", "--format", "json"],
        "23593079c65e67646f372e64ab74c02567d27f507bbedf5f370efaf2ea048cd6",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    PINNED_REPORTS,
    ids=["certificates", "gadget", "level3-certificates", "d5-certificates"],
)
def test_certificate_and_gadget_reports_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout, recorded before the closure decided each distinct
# monomial once and the survey's pair tables were built from digit groups
PINNED_LIFT_AND_SURVEY = [
    (
        ["enumerate", "--d", "3", "--max-level", "4", "--format", "json"],
        "1f397580b4aff7c4175e89c568e8b84b44c5c4401deb639402d814e0480f30c0",
    ),
    (
        ["qutrit3", "survey", "--stride", "50", "--format", "json"],
        "1e99b75914804e30e8545f1bc0f82531b2040c26b442bd2c5361ad581d942422",
    ),
    (
        ["qutrit3", "survey", "--stride", "1", "--format", "json"],
        "03bf11abf10d24334efbbf31705c407414f9c03894229a2af5e3761283645948",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_LIFT_AND_SURVEY, ids=["level4-lift", "survey-50", "survey-1"]
)
def test_lift_and_survey_reports_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_catalog_certificates_search_each_gate_once(capsys, monkeypatch):
    calls = []
    original = hierarchon.semiclifford.find_witnesses

    def counted(gates):
        calls.extend(gates)
        return original(gates)

    # both bindings, so a search from either module is counted
    monkeypatch.setattr(hierarchon.cli, "find_witnesses", counted)
    monkeypatch.setattr(hierarchon.semiclifford, "find_witnesses", counted)
    code, out, _ = run(
        capsys,
        ["semiclifford", "--catalog", "2", "--d", "3", "--certificates", "--format", "json"],
    )
    assert code == 0
    assert len(json.loads(out)["certificates"]) == 216
    # every representative is searched, and none twice
    assert len(calls) == 216
    assert len({id(G) for G in calls}) == 216


def test_catalog_certificates_share_equal_factor_documents(capsys, monkeypatch):
    emitted = []
    monkeypatch.setattr(hierarchon.cli, "_emit", lambda args, report, lines: emitted.append(report))
    code, _, _ = run(capsys, ["semiclifford", "--catalog", "2", "--d", "3", "--certificates"])
    assert code == 0
    (report,) = emitted
    docs = [c[f] for c in report["certificates"] for f in ("C1", "C2", "D")]
    assert len(docs) == 3 * 216
    by_id = {id(doc): json.dumps(doc, sort_keys=True) for doc in docs}
    # one object per distinct encoding, so equal documents are one object
    assert len(by_id) == len(set(by_id.values()))
    assert len(by_id) < len(docs)


def test_out_file_holds_the_bytes_printed(capsys, tmp_path):
    path = tmp_path / "report.json"
    argv = ["semiclifford", "--catalog", "2", "--d", "3", "--certificates", "--format", "json"]
    code, out, _ = run(capsys, argv + ["--out", str(path)])
    assert code == 0
    assert path.read_bytes() == out.encode()


_KEYS = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["", "a", "\u00e9", "\"", "\\", "\n", "\x00", "\u2028", "\U0001f600"]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 63 - 2, max_value=2 ** 70),
    st.integers(min_value=-(2 ** 70), max_value=-(2 ** 63) + 2),
    st.floats(),
    _KEYS,
)


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=4).map(tuple),
            st.lists(st.dictionaries(_KEYS, kids, max_size=3), max_size=3),
            st.dictionaries(_KEYS, kids, max_size=4),
            st.dictionaries(st.integers(-3, 3), kids, max_size=3),
        ),
        max_leaves=12,
    )


def _repeated(tree):
    # the same subtree object at several depths, inside objects and arrays
    return st.tuples(tree, tree).map(
        lambda ab: {"a": ab[0], "b": [ab[0], {"c": ab[0], "d": [[ab[0]], ab[1]]}], "e": ab[1]}
    )


_TREES = _trees(_SCALARS)


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(_TREES, _repeated(_TREES), st.sampled_from([{}, [], (), [{}], {"": []}])))
# equal unsorted encodings at one depth, sorted differently: int keys by value
@example(value={"a": [[{2: 0, 10: 1}]], "b": [[{"2": 0, "10": 1}]]})
def test_dumps_matches_the_indented_json_encoding(value):
    chunks = []
    hierarchon.cli._dump(value, chunks.append)
    assert "".join(chunks) == json.dumps(value, indent=2, sort_keys=True)


def test_dump_streams_chunks_and_encodes_shared_subtrees_once(monkeypatch):
    doc = {"conductor": 3, "entries": [[[1, -1], [0, 2 ** 70]]], "name": "\u00e9"}
    value = {"certificates": [{"C1": doc, "D": doc, "id": k} for k in range(50)], "doc": doc}
    calls = []
    original = json.dumps

    def counted(v, *args, **kwargs):
        calls.append(v)
        return original(v, *args, **kwargs)

    monkeypatch.setattr(hierarchon.cli, "_FLUSH_PARTS", 16)
    monkeypatch.setattr(hierarchon.cli.json, "dumps", counted)
    chunks = []
    hierarchon.cli._dump(value, chunks.append)
    assert len(chunks) > 1
    assert "".join(chunks) == original(value, indent=2, sort_keys=True)
    # json.dumps runs on the leaf list alone: compact and indented at each
    # of its two depths, and compact once more when the second meeting of
    # the certificates' document encodes it into the string the other 98
    # meetings reuse
    assert calls == [doc["entries"]] * 5


def test_qutrit3_survey_quick(capsys):
    code, out, _ = run(
        capsys, ["qutrit3", "survey", "--stride", "5000", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hierarchon.qutrit3/1"
    assert doc["total"] == doc["passed"] == 984
    assert doc["failed"] == 0


def test_out_flag_writes_the_same_document(capsys, tmp_path):
    path = tmp_path / "report.json"
    _, out, _ = run(
        capsys,
        ["qutrit3", "survey", "--stride", "5000", "--format", "json", "--out", str(path)],
    )
    assert json.loads(path.read_text()) == json.loads(out)


def test_cache_dir_flag_beats_the_environment(capsys, tmp_path):
    flag_cache = tmp_path / "flagcache"
    code, _, _ = run(
        capsys,
        ["enumerate", "--d", "3", "--max-level", "1", "--cache-dir", str(flag_cache)],
    )
    assert code == 0
    assert (flag_cache / "d3_n1").exists()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--d", "4"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_os_errors_exit_two_with_one_line(capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run(capsys, ["enumerate", "--d", "3", "--max-level", "1", "--out", str(missing)])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    code, out, err = run(
        capsys, ["enumerate", "--d", "3", "--max-level", "1", "--cache-dir", str(not_a_dir)]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _deep_json(path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("[" * 100000 + "]" * 100000)


def test_deep_gate_file_exits_two_with_one_line(capsys, tmp_path):
    gate = tmp_path / "deep.json"
    _deep_json(gate)
    code, out, err = run(capsys, ["membership", str(gate), "--max-level", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deep_store_level_file_exits_two_with_one_line(capsys, tmp_path):
    store = tmp_path / "store"
    _deep_json(store / "d3_n1" / "level_1.json")
    code, out, err = run(
        capsys, ["enumerate", "--d", "3", "--max-level", "1", "--cache-dir", str(store)]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("meta", [5, {"closure_failure_count": "x"}], ids=["meta", "count"])
def test_malformed_store_header_exits_two_with_one_line(capsys, tmp_path, meta):
    store = str(tmp_path / "store")
    assert run(capsys, ["enumerate", "--d", "3", "--max-level", "2", "--cache-dir", store])[0] == 0
    path = os.path.join(store, "d3_n1", "level_2.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["meta"] = meta
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(
        capsys, ["enumerate", "--d", "3", "--max-level", "2", "--cache-dir", store]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "malformed" in err and err.count("\n") == 1


def test_store_header_true_for_one_exits_two_with_one_line(capsys, tmp_path):
    store = str(tmp_path / "store")
    assert run(capsys, ["enumerate", "--d", "3", "--max-level", "1", "--cache-dir", store])[0] == 0
    path = os.path.join(store, "d3_n1", "level_1.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["version"] = True
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(
        capsys, ["enumerate", "--d", "3", "--max-level", "1", "--cache-dir", store]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--d", "3", "--max-level", "0"], ["qutrit3", "survey", "--stride", "0"]],
    ids=["max-level-0", "stride-0"],
)
def test_nonpositive_counts_exit_two_with_one_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_benchmark_tracer_wraps_every_boundary(tmp_path):
    """The traced benchmark's install() finds every name it wraps, and the CLI runs."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "clibench", "tracer.py"), str(trace),
         "enumerate", "--d", "3", "--max-level", "1", "--cache-dir", str(tmp_path / "cache")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(trace.read_text())


def test_table_mode_without_out_builds_no_document(capsys, monkeypatch):
    def no_dumps(*args, **kwargs):
        raise AssertionError("a report document was serialised")

    monkeypatch.setattr(hierarchon.cli.json, "dumps", no_dumps)
    code, out, _ = run(capsys, ["qutrit3", "survey", "--stride", "5000"])
    assert code == 0
    assert "tuples contain a Lagrangian semibasis" in out
