"""Tests of the CLI benchmark on its smoke workloads.

    python3 -m pytest -q clibench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from workloads import SMOKE, WORKLOADS, Command, Workload, enumerate_cmd  # noqa: E402


def _run(workload, trace=False, **kw):
    return run.run_workload(workload, seed=1, seconds=0, trace=trace, root=ROOT, **kw)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_workload_passes_with_every_end_to_end_metric(name):
    result, record = _run(SMOKE[name])
    assert result["correct"], record["ops"]
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert run.SETUPS <= len(record["setup_s_each"]) <= run.SETUPS_MAX
    assert set(record["stamp"]) >= {"numba_lane", "python", "numpy", "nproc", "zstandard"}
    assert all(len(c["sha256"]) == 64 for c in record["ops"][0]["commands"])


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_traced_run_reports_every_layer_and_passes_its_self_check(name):
    result, record = _run(SMOKE[name], trace=True)
    assert record["self_check"] == []
    assert result["correct"] and result["attempted"] == 3
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_report_with_a_wrong_count_is_a_failed_op():
    wrong = Workload("wrong", (enumerate_cmd(3, (9, 216, 1945)),))
    result, record = _run(wrong)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert "1945" in record["ops"][0]["reason"]
    assert record["fail_ratio"] == 1.0


def test_nonzero_exit_is_a_failed_op():
    bad = Command(("enumerate", "--max-level", "0"), lambda r, s: None, lambda r: 1)
    result, record = _run(Workload("bad", (bad,)))
    assert result["failed"] == 1
    assert record["ops"][0]["reason"].endswith("exit code 2")


def test_timed_out_op_is_a_failed_op():
    result, record = _run(SMOKE["cold"], timeout=0.01)
    assert result["failed"] == 1
    assert "timed out" in record["ops"][0]["reason"]


def test_op_that_writes_the_store_it_should_read_fails():
    # set-up stores levels 1-2; the op then computes and stores level 3
    writes = Workload("writes", (enumerate_cmd(3, (9, 216, 1944), cache=True),),
                      setup=(enumerate_cmd(3, (9, 216), cache=True).argv,))
    result, record = _run(writes)
    assert result["failed"] == 1
    assert "catalog store" in record["ops"][0]["reason"]


def test_a_boundary_the_op_never_enters_fails_the_self_check():
    never = Workload("never", SMOKE["cold"].commands[:1],
                     layers=frozenset({"phasespace.synthesize_clifford",
                                       "teleport.gadget_run"}))
    result, record = _run(never, trace=True)
    assert not result["correct"] and result["failed"] == 0
    assert record["self_check"] == ["boundary teleport.gadget_run recorded no call"]


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_without_the_program_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "clibench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", "cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def _entry(op_s, stamp):
    metrics = {"op_s": {"value": op_s, "unit": "s"}}
    return {"record": {"workload": "cold", "trace": 0, "seed": 1, "stamp": stamp,
                       "self_check": []},
            "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}


def test_compare_flags_regressions_and_differing_stamps(tmp_path, capsys):
    import compare

    def write(name, entries):
        path = tmp_path / name
        path.write_text("".join(json.dumps(e) + "\n" for e in entries))
        return str(path)

    lane = {"numba_lane": False}
    base = write("base.jsonl", [_entry(10.0, lane), _entry(10.2, lane), _entry(9.8, lane)])
    same = write("same.jsonl", [_entry(10.1, lane), _entry(9.9, lane), _entry(10.0, lane)])
    slow = write("slow.jsonl", [_entry(14.0, lane), _entry(14.2, lane), _entry(13.8, lane)])
    other = write("other.jsonl", [_entry(10.0, {"numba_lane": True})] * 3)
    assert compare.main([base, same]) == 0
    assert compare.main([base, slow]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.main([base, other]) == 1
    assert "STAMPS DIFFER" in capsys.readouterr().out
