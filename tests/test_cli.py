"""End-to-end checks of the command line front end.

A shared store keeps the catalog builds to one per module: run() hands it to
every catalog command that names no --cache-dir of its own.  The
byte-identity tests rerun commands against the warm store and compare
stdout verbatim.
"""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import hierarchon.cli
import hierarchon.hierarchy
import hierarchon.semiclifford
from hierarchon import __version__
from hierarchon.cli import _verdict, main
from hierarchon.cyclo import CycloScalar
from hierarchon.exactmat import ExactMatrix, ScaledUnitary, max_conductor, to_interchange
from hierarchon.hierarchy import REFERENCE_COUNTS, SIZE_CEILING, level_size
from hierarchon.phasespace import pauli_x, to_matrix


# the commands that read catalogs, the ones that take --cache-dir
CATALOG_COMMANDS = ("enumerate", "membership", "diagonal", "semiclifford", "teleport")

_store = {}


@pytest.fixture(scope="module", autouse=True)
def store(tmp_path_factory):
    """The module's shared store."""
    _store["path"] = str(tmp_path_factory.mktemp("clicache"))
    yield _store["path"]
    del _store["path"]


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
    """main(argv)'s exit code and output; a catalog command with no store shares the module's.

    semiclifford reads a store only with --catalog: a lone gate file refuses one.
    """
    lone_gate = argv[:1] == ["semiclifford"] and "--catalog" not in argv
    if argv[:1] and argv[0] in CATALOG_COMMANDS and "--cache-dir" not in argv and not lone_gate:
        argv = argv + ["--cache-dir", _store["path"]]
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


def test_enumerate_takes_no_wire_count(capsys):
    # catalogs are one-wire; two qutrits are the qutrit3 survey's
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 1" in capsys.readouterr().err


def test_enumerate_refuses_runaway_sizes(capsys):
    code, _, err = run(capsys, ["enumerate", "--d", "3", "--max-level", "9"])
    assert code == 2
    assert "ceiling" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--d", "3", "--max-level", "9"],
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
    [("9", "estimated"), ("5000", "estimated at least"), ("100000", "estimated at least")],
)
def test_runaway_levels_are_refused_without_forming_their_estimate(
    capsys, monkeypatch, max_level, estimated
):
    levels = []
    original = hierarchon.hierarchy.level_size

    def estimate(d, n, k):
        levels.append(k)
        return original(d, n, k)

    monkeypatch.setattr(hierarchon.hierarchy, "level_size", estimate)
    code, out, err = run(capsys, ["enumerate", "--d", "3", "--max-level", max_level])
    assert (code, out) == (2, "")
    assert err == "error: %s %d gates at level %s is past the ceiling of %d\n" % (
        estimated, 1888920, max_level, SIZE_CEILING)
    # the walk stops at level 9, the first whose size passes the ceiling
    assert levels == list(range(1, 10))


def test_size_estimates_track_the_reference_table():
    for (d, n), counts in REFERENCE_COUNTS.items():
        for k, count in counts.items():
            # the lift finds 75,000 at d=5, k=3 against the published 7,500
            assert level_size(d, n, k) == (75000 if (d, n, k) == (5, 1, 3) else count)


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
    assert doc["library"] == __version__
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
    with open(t9_file) as fh:
        doc = json.load(fh)
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
    # level 1 needs no catalog, so nothing is walked or stored
    assert not store.exists()
    w = CycloScalar.omega(3)
    gate.write_text(json.dumps(to_interchange(ScaledUnitary.exact(
        ExactMatrix.diag(3, [w ** (z * z) for z in range(3)])), 1)))
    code, out, _ = run(capsys, ["membership", str(gate), "--cache-dir", str(store)])
    assert (code, out) == (0, "level: 2\n")
    assert sorted(os.listdir(store / "d3_n1")) == ["level_1.jsonl", "level_2.jsonl"]


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


@pytest.mark.parametrize("max_level", [[], ["--max-level", "1"]], ids=["default", "1"])
def test_membership_refuses_a_three_wire_pauli(capsys, tmp_path, max_level):
    # level 1 is decided without a catalog, but the wire cap still comes first
    gate = _gate_file(tmp_path / "x3q.json", to_matrix(pauli_x(3, 3, 1)), 3)
    code, out, err = run(capsys, ["membership", gate] + max_level)
    assert (code, out, err) == (2, "", "error: n is capped at 2\n")


def test_membership_refuses_where_its_walk_reaches_a_limit(capsys, tmp_path):
    """A gate in no level within the limits meets the refusal for --max-level."""
    z9 = CycloScalar.zeta(3, 2, 1)
    t9_on_wire_1 = ExactMatrix.diag(3, [z9 ** (i // 3) for i in range(9)])
    gate = _gate_file(tmp_path / "t9_1.json", t9_on_wire_1, 2)
    store = tmp_path / "store"
    code, out, err = run(capsys, ["membership", gate, "--cache-dir", str(store)])
    assert (code, out) == (2, "")
    assert err.startswith("error: two-wire enumeration above level 1 is out of reach")
    assert err.count("\n") == 1
    # two wires reach level 1 alone, which needs no catalog
    assert not store.exists()
    code, out, err = run(capsys, ["membership", gate, "--max-level", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: two-wire enumeration above level 1 is out of reach")


def test_membership_of_a_d17_clifford_stops_at_the_ceiling_without_a_lift(
    capsys, monkeypatch, tmp_path
):
    def no_lift(prev):
        raise AssertionError("a level was lifted")

    monkeypatch.setattr(hierarchon.hierarchy, "_lift_level", no_lift)
    w = CycloScalar.omega(17)
    quadratic_phase = ExactMatrix.diag(17, [w ** (z * z) for z in range(17)])
    gate = _gate_file(tmp_path / "q17.json", quadratic_phase, 1)
    code, out, err = run(capsys, ["membership", gate])
    assert (code, out) == (2, "")
    # level 2 alone holds N(17, 2) = 17^3 (17^2 - 1) Cliffords up to phase
    assert err == (
        "error: estimated at least 1414944 gates at level 4 is past the ceiling of 1000000\n"
    )


def test_membership_places_a_d61_identity_at_level_one(capsys, tmp_path):
    # no two fingerprint primes below 2**23 are 1 mod 61^3, so no d=61 catalog exists
    gate = _gate_file(tmp_path / "i61.json", ExactMatrix.identity(61, 61, 1), 1)
    code, out, err = run(capsys, ["membership", gate])
    assert (code, out, err) == (0, "level: 1\n", "")


def test_membership_of_a_d61_clifford_past_level_one_exits_two(capsys, tmp_path):
    w = CycloScalar.omega(61)
    quadratic_phase = ExactMatrix.diag(61, [w ** (z * z) for z in range(61)])
    gate = _gate_file(tmp_path / "q61.json", quadratic_phase, 1)
    code, out, err = run(capsys, ["membership", gate, "--max-level", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
def test_gate_file_version_must_be_the_integer_one(capsys, tmp_path, version):
    doc = to_interchange(ScaledUnitary.exact(to_matrix(pauli_x(3, 1, 1))), 1)
    doc["version"] = version
    path = tmp_path / "x3.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["membership", str(path)])
    assert (code, out, err) == (2, "", "error: unknown interchange version\n")


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
    assert doc["library"] == __version__
    assert doc["verdict"] == "pass"
    assert doc["delta_count"] == 9
    assert doc["diagonal_in_catalog"] == 9
    assert doc["missing"] == [] and doc["extra"] == []


@pytest.mark.parametrize(
    "k,served,line",
    [(3, 2, "missing from catalog: 18"), (2, 3, "extra diagonal classes: 18")],
    ids=["missing", "extra"],
)
def test_diagonal_verify_exits_1_on_the_wrong_level(capsys, monkeypatch, k, served, line):
    real = hierarchon.cli.enumerate_level

    def wrong_level(d, k, cache_dir=None):
        return real(d, served, cache_dir=cache_dir)

    monkeypatch.setattr(hierarchon.cli, "enumerate_level", wrong_level)
    code, out, _ = run(capsys, ["diagonal", "verify", "--d", "3", "--k", str(k)])
    assert code == 1
    assert out.startswith("fail: ") and line in out.splitlines()


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


@pytest.mark.parametrize(
    "flag", [["--certificates"], ["--cache-dir"], ["--d", "5"]], ids=["certificates", "cache", "d"]
)
def test_semiclifford_gate_mode_refuses_catalog_flags(capsys, tmp_path, t9_file, flag):
    store = tmp_path / "store"
    argv = ["semiclifford", t9_file] + (flag + [str(store)] if flag == ["--cache-dir"] else flag)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", "error: %s needs --catalog K, not a gate file\n" % flag[0])
    assert not store.exists()


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
    monkeypatch.setattr(
        hierarchon.cli, "_emit", lambda args, report, lines, shared: emitted.append((report, shared))
    )
    code, _, _ = run(capsys, ["semiclifford", "--catalog", "2", "--d", "3", "--certificates"])
    assert code == 0
    ((report, shared),) = emitted
    docs = [c[f] for c in report["certificates"] for f in ("C1", "C2", "D")]
    assert len(docs) == 3 * 216
    by_id = {id(doc): json.dumps(doc, sort_keys=True) for doc in docs}
    # one object per distinct encoding, so equal documents are one object
    assert len(by_id) == len(set(by_id.values()))
    assert len(by_id) < len(docs)
    # and the encoder is told of each, so it encodes each once per depth
    assert set(by_id) == {id(doc) for doc in shared}


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
@example(value={"a": {10: [], -1: {}, 2: [[]]}, "b": [[], {}, ()]})
def test_dumps_matches_the_indented_json_encoding(value):
    chunks = []
    hierarchon.cli._dump(value, chunks.append)
    assert "".join(chunks) == json.dumps(value, indent=2, sort_keys=True)


def test_dump_streams_chunks_and_encodes_shared_subtrees_once(monkeypatch):
    class Walked(dict):
        """A dict that counts the walks over its keys."""

        walks = 0

        def __iter__(self):
            self.walks += 1
            return super().__iter__()

    doc = Walked(conductor=3, entries=[[[1, -1], [0, 2 ** 70]]], name="\u00e9")
    value = {
        "certificates": [{"C1": doc, "D": doc, "id": k, "ok": k % 2 == 0} for k in range(50)],
        "doc": doc,
    }
    calls = []
    original = json.dumps

    def counted(v, *args, **kwargs):
        calls.append(v)
        return original(v, *args, **kwargs)

    monkeypatch.setattr(hierarchon.cli, "_FLUSH_CHARS", 256)
    monkeypatch.setattr(hierarchon.cli.json, "dumps", counted)
    chunks = []
    hierarchon.cli._dump(value, chunks.append, [doc])
    assert len(chunks) > 1
    assert "".join(chunks) == original(value, indent=2, sort_keys=True)
    # json.dumps runs on scalars alone, here the 50 booleans, never on an
    # array or a dict
    assert calls == [k % 2 == 0 for k in range(50)]
    assert not any(isinstance(v, (list, tuple, dict)) for v in calls)
    # the document is met 101 times at two depths, and walked once at each:
    # the first meeting at a depth encodes it into the string every later
    # meeting reuses
    assert "".join(chunks).count('"name": "\\u00e9"') == 101
    assert doc.walks == 2
    # no chunk is much past the flush size: the largest holds at most one
    # part on top of it, here one encoding of the document
    assert max(map(len, chunks)) < 256 + len(original(doc, indent=2)) + 64


def test_dump_refuses_the_keys_json_dumps_refuses():
    for value in ({(1, 2): 0}, {"a": [{"b": {frozenset(): 1}}]}):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as refused:
            hierarchon.cli._dump(value, [].append)
        assert str(refused.value) == str(expected.value)


def _fresh(rows, docs):
    """Each row as a new dict holding one of docs, built as it is asked for.

    The walk drops each dict once it is written, so a later one may be
    given the id of one before it.
    """
    for k, row in enumerate(rows):
        yield dict(copy.deepcopy(row), doc=docs[k % len(docs)] if docs else None)


_ROWS = st.lists(st.dictionaries(_KEYS, _TREES, max_size=3), max_size=8)
_DOCS = st.lists(st.dictionaries(_KEYS, _TREES, min_size=1, max_size=3), max_size=3)


@settings(max_examples=300, deadline=None)
@given(rows=_ROWS, docs=_DOCS, share=st.booleans(), flush=st.sampled_from([1, 64, 1 << 16]))
@example(rows=[{"x": [k, {"y": k}]} for k in range(40)], docs=[], share=False, flush=1)
# a shared document that holds an int-keyed dict and an empty list
@example(
    rows=[{"x": []}, {}, {"y": {3: [], 1: 0}}],
    docs=[{"a": {10: [], 2: {}}, "b": []}],
    share=True,
    flush=1,
)
def test_dump_of_a_generator_of_fresh_dicts_matches_its_list(rows, docs, share, flush):
    chunks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hierarchon.cli, "_FLUSH_CHARS", flush)
        hierarchon.cli._dump(
            {"certificates": _fresh(rows, docs), "docs": docs}, chunks.append, docs if share else ()
        )
    listed = {"certificates": list(_fresh(rows, docs)), "docs": docs}
    assert "".join(chunks) == json.dumps(listed, indent=2, sort_keys=True)


def test_dump_of_an_empty_generator_is_an_empty_array():
    cases = [(iter(()), []), ({"a": iter(()), "b": [{}, iter(())]}, {"a": [], "b": [{}, []]})]
    for value, listed in cases:
        chunks = []
        hierarchon.cli._dump(value, chunks.append)
        assert "".join(chunks) == json.dumps(listed, indent=2, sort_keys=True)


# the two encoder fuzz tests above at 5000 examples, for the extended tier
@pytest.mark.extended
@settings(max_examples=5000, deadline=None)
@given(value=st.one_of(_TREES, _repeated(_TREES), st.sampled_from([{}, [], (), [{}], {"": []}])))
def test_dumps_matches_the_indented_json_encoding_extended(value):
    test_dumps_matches_the_indented_json_encoding.hypothesis.inner_test(value)


@pytest.mark.extended
@settings(max_examples=5000, deadline=None)
@given(rows=_ROWS, docs=_DOCS, share=st.booleans(), flush=st.sampled_from([1, 64, 1 << 16]))
def test_dump_of_a_generator_of_fresh_dicts_matches_its_list_extended(rows, docs, share, flush):
    test_dump_of_a_generator_of_fresh_dicts_matches_its_list.hypothesis.inner_test(
        rows, docs, share, flush
    )


def test_every_certificate_is_checked_before_any_output(capsys, monkeypatch, tmp_path):
    """A split that fails its check in the last block leaves no report behind."""
    blocks = []
    original = hierarchon.semiclifford.diagonalize_many

    def fails_last(gates, witnesses):
        blocks.append(len(gates))
        if sum(blocks) == 216:
            raise ValueError("diagonalisation does not reproduce the gate")
        return original(gates, witnesses)

    monkeypatch.setattr(hierarchon.semiclifford, "diagonalize_many", fails_last)
    path = tmp_path / "report.json"
    argv = ["semiclifford", "--catalog", "2", "--d", "3", "--certificates", "--format", "json"]
    code, out, err = run(capsys, argv + ["--out", str(path)])
    assert len(blocks) > 1
    assert (code, out) == (2, "")
    assert err == "error: diagonalisation does not reproduce the gate\n"
    assert not path.exists()


def test_certificate_report_is_streamed_in_bounded_memory(capsys, store):
    """Certificates add under the memory of the run without them.

    Both runs read the warm store and write their report to the null
    device.  Before the certificates were streamed, the run with them held
    every certificate until the dump and peaked at 3.2 times the other.
    """
    base = ["semiclifford", "--catalog", "3", "--d", "3", "--out", os.devnull,
            "--cache-dir", store]
    runs = [base, base + ["--certificates"]]
    # the first runs write the store and fill the memoised syntheses
    for argv in runs:
        assert run(capsys, argv)[0] == 0
    peaks = []
    for argv in runs:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] < 2 * peaks[0], peaks


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


def test_the_environment_names_no_store(capsys, monkeypatch, tmp_path):
    # a store is kept only where --cache-dir names one, whatever the environment holds
    env_store = tmp_path / "envstore"
    monkeypatch.setenv("HIERARCHON_CACHE", str(env_store))
    assert main(["enumerate", "--d", "3", "--max-level", "2"]) == 0
    capsys.readouterr()
    assert not env_store.exists()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--d", "4"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    # the survey reads no catalog, so it takes no store
    with pytest.raises(SystemExit) as exc:
        main(["qutrit3", "survey", "--cache-dir", "X"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache-dir X" in capsys.readouterr().err


def _readme_commands():
    """The argv of each `hierarchon ...` line in README's "Command line" block."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("hierarchon ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(CATALOG_COMMANDS) | {"qutrit3"}
    parser = hierarchon.cli._build_parser()
    for argv in commands:
        # parsed, not run: a flag or value the parser refuses exits 2 here
        assert parser.parse_args(argv).command == argv[0]


def test_readme_names_every_option():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        named = set(re.findall(r"--[a-z][a-z-]*", fh.read()))
    parser = hierarchon.cli._build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        (command, option)
        for command, sub in subs.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    assert sorted((c, o) for c, o in options if o not in named) == []


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


def _deep_json(path, end=""):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("[" * 100000 + "]" * 100000 + end)


def test_deep_gate_file_exits_two_with_one_line(capsys, tmp_path):
    gate = tmp_path / "deep.json"
    _deep_json(gate)
    code, out, err = run(capsys, ["membership", str(gate), "--max-level", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deep_store_level_file_exits_two_with_one_line(capsys, tmp_path):
    store = tmp_path / "store"
    _deep_json(store / "d3_n1" / "level_1.jsonl", "\n")
    code, out, err = run(
        capsys, ["enumerate", "--d", "3", "--max-level", "1", "--cache-dir", str(store)]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _store_level(capsys, store, k):
    """The path of d=3 level k in a store the CLI has just written, and its argv."""
    argv = ["enumerate", "--d", "3", "--max-level", str(k), "--cache-dir", store]
    assert run(capsys, argv)[0] == 0
    return os.path.join(store, "d3_n1", "level_%d.jsonl" % k), argv


def _read_level(path):
    """The header, the gate documents and the trailer line of a level file."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:-1]], lines[-1]


def _write_level(path, head, gates, trailer=None):
    """A level file in the writer's layout; trailer None recomputes the content hash.

    A gate given as a str is written as that line.
    """
    lines = [json.dumps(head, sort_keys=True)] + [
        g if isinstance(g, str) else json.dumps(g, separators=(",", ":"), sort_keys=True)
        for g in gates
    ]
    body = "".join(line + "\n" for line in lines).encode()
    if trailer is None:
        trailer = b'{"content_hash": "%s"}\n' % hashlib.sha256(body).hexdigest().encode()
    with open(path, "wb") as fh:
        fh.write(body + trailer)


def _refusal(capsys, argv):
    """The one error line of a CLI run that must exit 2."""
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("meta", [5, {"closure_failure_count": "x"}], ids=["meta", "count"])
def test_malformed_store_header_exits_two_with_one_line(capsys, tmp_path, meta):
    path, argv = _store_level(capsys, str(tmp_path / "store"), 2)
    head, gates, _ = _read_level(path)
    _write_level(path, dict(head, meta=meta), gates)
    assert "malformed" in _refusal(capsys, argv)


def test_store_with_a_repeated_class_exits_two_with_one_line(capsys, tmp_path):
    path, argv = _store_level(capsys, str(tmp_path / "store"), 2)
    head, gates, _ = _read_level(path)
    gates.append(gates[0])
    _write_level(path, dict(head, count=len(gates)), gates)
    assert "repeats a class" in _refusal(capsys, argv)


def test_store_header_true_for_one_exits_two_with_one_line(capsys, tmp_path):
    path, argv = _store_level(capsys, str(tmp_path / "store"), 1)
    head, gates, _ = _read_level(path)
    _write_level(path, dict(head, version=True), gates)
    assert "does not describe" in _refusal(capsys, argv)


@pytest.mark.parametrize(
    "edit",
    [
        lambda head: head["meta"].update(closure_failure_count=3),
        lambda head: head.update(library="0.0.0"),
        lambda head: head.update(conductor=head["conductor"] * 3),
    ],
    ids=["closure-failures", "library", "conductor"],
)
def test_store_header_edits_fail_the_content_hash(capsys, tmp_path, edit):
    """The content hash covers the header, meta included, not the gates alone."""
    path, argv = _store_level(capsys, str(tmp_path / "store"), 2)
    head, gates, trailer = _read_level(path)
    edit(head)
    _write_level(path, head, gates, trailer)
    assert _refusal(capsys, argv).endswith(" fails its content hash\n")


@pytest.mark.parametrize(
    "count,rehash,message",
    [(0, False, "content hash"), (1, True, "truncated"), (0, True, "zero denominator")],
    ids=["hash", "count", "held"],
)
def test_a_broken_gate_is_reported_after_the_header_checks(
    capsys, tmp_path, count, rehash, message
):
    """A gate's own error is raised only once the hash, header and count hold."""
    path, argv = _store_level(capsys, str(tmp_path / "store"), 2)
    head, gates, trailer = _read_level(path)
    cells = gates[3]["entries"]
    cells[1] = [[1, 0]] * len(cells[1])
    head["count"] += count
    _write_level(path, head, gates, None if rehash else trailer)
    assert message in _refusal(capsys, argv)


_LAYOUT = {
    "empty": (lambda raw: b"", "malformed"),
    "no-final-newline": (lambda raw: raw[:-1], "malformed"),
    "cut": (lambda raw: raw[: len(raw) // 2], "malformed"),
    "data-after-trailer": (lambda raw: raw + b'{"x": 1}\n', "malformed"),
    "trailer-twice": (lambda raw: raw + raw.splitlines(keepends=True)[-1], "content hash"),
}


@pytest.mark.parametrize("name", sorted(_LAYOUT))
def test_store_level_layout_faults_exit_two_with_one_line(capsys, tmp_path, name):
    path, argv = _store_level(capsys, str(tmp_path / "store"), 1)
    edit, message = _LAYOUT[name]
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(edit(raw))
    assert message in _refusal(capsys, argv)


def test_deep_gate_in_a_store_level_exits_two_with_one_line(capsys, tmp_path):
    path, argv = _store_level(capsys, str(tmp_path / "store"), 1)
    head, gates, _ = _read_level(path)
    deep = "[" * 100000 + "]" * 100000
    _write_level(path, dict(head, count=len(gates) + 1), [deep] + gates)
    assert "nested too deeply" in _refusal(capsys, argv)


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
    """The traced benchmark's install() finds every name it wraps, and the CLI runs.

    The hooks that read a boundary's arguments or result by position count
    what the reports say: the bytes of the store levels a run reloads, and
    the survey rows the stride keeps.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    trace, report, store = tmp_path / "trace.json", tmp_path / "report.json", tmp_path / "cache"

    def traced(*argv):
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "clibench", "tracer.py"), str(trace)]
            + list(argv) + ["--out", str(report)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(trace.read_text())["counts"]

    enumerate_argv = ["enumerate", "--d", "3", "--max-level", "2", "--cache-dir", str(store)]
    assert "hierarchy.store_load.bytes" not in traced(*enumerate_argv)
    levels = [store / "d3_n1" / ("level_%d.jsonl" % k) for k in (1, 2)]
    assert traced(*enumerate_argv)["hierarchy.store_load.bytes"] == sum(
        os.path.getsize(p) for p in levels
    )
    counts = traced("qutrit3", "survey", "--stride", "5000")
    pairs = json.loads(report.read_text())["pairs"]
    assert counts["kernels.survey_join.rows"] == len(range(0, pairs, 5000))
    assert counts["kernels.survey_join.pair_checks"] == len(range(0, pairs, 5000)) * pairs


def test_table_mode_without_out_builds_no_document(capsys, monkeypatch):
    def no_dump(*args, **kwargs):
        raise AssertionError("a report document was serialised")

    monkeypatch.setattr(hierarchon.cli, "_dump", no_dump)
    code, out, _ = run(capsys, ["qutrit3", "survey", "--stride", "5000"])
    assert code == 0
    assert "tuples contain a Lagrangian semibasis" in out
