"""CLI-level benchmark for hierarchon.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 clibench/run.py --workload all --seed N --seconds S [--smoke]

Run it from the root of a hierarchon checkout; the program is run from that
checkout's `src`.  Workloads are defined in workloads.py.

Each op runs the workload's commands one after another, every command a
fresh `python -m hierarchon.cli` process, with one client in a closed loop:
the next op starts only when the previous one has exited, so at most one op
process runs beside the idle harness.  An op is timed from the launch of its
first process to the exit of its last, and its peak RSS is the largest
`ru_maxrss` that `wait4` reports for its processes, which launcher.py starts
so that the harness's own memory is not counted.  Every report is checked
against the expected counts; an op fails when a process exits non-zero, a
report is wrong, the op times out, or an op that should only read the
catalog store changes it.  Failed ops are never retried.

With `--trace 0` ops repeat until `--seconds` have passed (at least one op)
and the last line is the end-to-end result.  Set-up (the environment probe
plus any untimed commands that write the catalog store) is done at least
three times, and more until it has taken two seconds in all (at most nine),
and `setup_s` is the median.  With `--trace 1` the run does one set-up
through the tracer, one untraced op and two traced ops, and reports the
per-layer metrics.  The traced run checks itself: every boundary the
workload is meant to load records a call, exact counts repeat across the two
traced ops, and tracing leaves every report byte unchanged.

The line before the last is a JSON record of the run: the environment stamp,
each op's commands, exit codes, times and report sha256, and the self-check.
`--record FILE` appends that record and the result to FILE for compare.py.
`--smoke` runs the tiny form of every workload, for the benchmark's tests.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SMOKE, WORKLOADS  # noqa: E402

TRACER = os.path.join(HERE, "tracer.py")
LAUNCHER = os.path.join(HERE, "launcher.py")
WORK_DIR = ".clibench_work"
SETUPS = 3  # at least; more while set-up has taken under SETUP_MIN_S
SETUPS_MAX = 9
SETUP_MIN_S = 2.0
OP_TIMEOUT_S = 150.0

END_TO_END = {
    "op_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric -> unit; "X.calls" and "X.self_s" read span X, other
# names read the tracer's counters (see tracer.py for the boundaries)
PER_LAYER = {}
for _span, _extra in (
    ("hierarchy.rephase", ("skipped",)),
    ("hierarchy.omega_screen", ("survivors", "confirmed")),
    ("hierarchy.closure", ()),
    ("hierarchy.lift", ()),
    ("hierarchy.catalog_add", ("exact_compares", "collisions")),
    ("hierarchy.catalog_contains", ()),
    ("hierarchy.store_load", ("bytes",)),
    ("hierarchy.store_save", ("bytes",)),
    ("svn.reconstruct", ("fixed_vector", "rotated")),
    ("svn.omega_commutes", ()),
    ("exactmat.matmul", ("object_calls",)),
    ("exactmat.fingerprint", ()),
    ("exactmat.equal_up_to_phase", ()),
    ("exactmat.from_interchange", ()),
    ("exactmat.to_interchange", ()),
    ("cyclo.reduce", ()),
    ("cyclo.scalar_mul", ()),
    ("kernels.gr_matmul", ("madds",)),
    ("kernels.fp_eval", ()),
    ("kernels.semibasis_lut", ()),
    ("kernels.survey_join", ("rows", "pair_checks")),
    ("phasespace.recognize_pauli", ()),
    ("phasespace.synthesize_clifford", ()),
    ("semiclifford.find_witness", ("semibases_tried",)),
    ("semiclifford.diagonalize", ()),
    ("teleport.gadget_run", ()),
    ("qutrit3.pair_list", ()),
):
    PER_LAYER[_span + ".calls"] = "count"
    PER_LAYER[_span + ".self_s"] = "s"
    for _name in _extra:
        PER_LAYER["%s.%s" % (_span, _name)] = "B" if _name == "bytes" else "count"
PER_LAYER.update({"cli.startup_s": "s", "cli.emit_s": "s", "trace.overhead_ratio": "ratio"})

# counts that a deterministic program must reproduce exactly on a rerun
EXACT_COUNTS = (
    "exactmat.matmul.calls", "hierarchy.omega_screen.survivors",
    "svn.reconstruct.calls", "svn.reconstruct.fixed_vector",
    "svn.reconstruct.rotated", "kernels.survey_join.rows",
)


class SetupError(RuntimeError):
    pass


def op_env(root):
    """The whole environment of an op process; HIERARCHON_CACHE is never set."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": os.environ.get("HOME", root),
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONIOENCODING": "utf-8",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


class Launcher:
    """The launcher.py process through which every command of a run starts."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __call__(self, cmd, env, cwd, out_path, timeout):
        """Run cmd to its exit: (exit code or None on timeout, seconds, peak RSS MB)."""
        req = {"cmd": cmd, "env": env, "cwd": cwd, "out": out_path, "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise OSError("the launcher process exited")
        reply = json.loads(line)
        return reply["exit"], reply["seconds"], reply["rss_mb"]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def fill(argv, cache, seed):
    return [a.format(cache=cache, seed=seed) for a in argv] + ["--format", "json"]


def cli_cmd(argv, trace_path=None):
    if trace_path is None:
        return [sys.executable, "-m", "hierarchon.cli"] + argv
    return [sys.executable, TRACER, trace_path] + argv


PROBE = r"""
import importlib.util, json, os, platform, numpy, hierarchon, hierarchon.cli
from hierarchon import _kernels
print(json.dumps({
    "hierarchon": hierarchon.__version__,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "numba_lane": bool(_kernels.USE_NUMBA),
    "nproc": len(os.sched_getaffinity(0)),
    "zstandard": importlib.util.find_spec("zstandard") is not None,
    "machine": platform.machine(),
}, sort_keys=True))
"""


def probe(env, cwd):
    """The environment stamp, read by the interpreter and path the ops use.

    Importing the CLI also leaves the program's bytecode cache warm."""
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=cwd, capture_output=True,
        timeout=60, check=True,
    )
    return json.loads(out.stdout)


def store_state(cache):
    """(path, size, mtime) of every file in the catalog store, and total bytes."""
    files = []
    for dirpath, _, names in os.walk(cache):
        for name in names:
            st = os.stat(os.path.join(dirpath, name))
            files.append((os.path.relpath(os.path.join(dirpath, name), cache),
                          st.st_size, st.st_mtime_ns))
    return sorted(files), sum(f[1] for f in files)


def set_up(launch, workload, work, env, seed, traced):
    """One set-up into a fresh directory: (seconds, dir, cache, stamp, trace)."""
    t0 = time.perf_counter()
    sdir = tempfile.mkdtemp(dir=work, prefix="setup-")
    cache = os.path.join(sdir, "cache")
    stamp = probe(env, sdir)
    trace = _empty_trace()
    for i, argv in enumerate(workload.setup):
        tpath = os.path.join(sdir, "setup%d.trace.json" % i) if traced else None
        code, _, _ = launch(cli_cmd(fill(argv, cache, seed), tpath), env, sdir,
                            os.path.join(sdir, "setup%d.out" % i), OP_TIMEOUT_S)
        if code != 0:
            raise SetupError("set-up command %s exited %s" % (" ".join(argv), code))
        if traced:
            trace = _merge(trace, _read_trace(tpath))
    return time.perf_counter() - t0, sdir, cache, stamp, trace


def _empty_trace():
    return {"spans": {}, "counts": {}, "times": {}, "edges": {}}


def _read_trace(path):
    with open(path) as fh:
        return json.load(fh)


def _merge(a, b):
    """The trace of two processes run one after the other."""
    out = {part: dict(a[part]) for part in ("counts", "times", "edges")}
    for part in out:
        for k, v in b[part].items():
            out[part][k] = out[part].get(k, 0) + v
    out["spans"] = {k: dict(v) for k, v in a["spans"].items()}
    for k, v in b["spans"].items():
        s = out["spans"].setdefault(k, {"calls": 0, "self_s": 0.0})
        s["calls"] += v["calls"]
        s["self_s"] += v["self_s"]
    return out


def run_op(launch, workload, cache, seed, env, cwd, index, traced, timeout=OP_TIMEOUT_S):
    """One op: the workload's commands in order, each checked; a dict record."""
    before = store_state(cache)[0] if workload.setup else None
    rec = {"op": index, "traced": traced, "ok": True, "reason": None,
           "seconds": 0.0, "rss_mb": 0.0, "items": 0, "commands": []}
    trace = _empty_trace()
    for ci, command in enumerate(workload.commands):
        argv = fill(command.argv, cache, seed)
        out_path = os.path.join(cwd, "op%d-%d.json" % (index, ci))
        tpath = out_path + ".trace" if traced else None
        code, seconds, rss = launch(cli_cmd(argv, tpath), env, cwd, out_path, timeout)
        rec["seconds"] += seconds
        rec["rss_mb"] = max(rec["rss_mb"], rss)
        with open(out_path, "rb") as fh:
            raw = fh.read()
        cmd = {"argv": argv, "exit": code, "seconds": seconds, "rss_mb": rss,
               "sha256": hashlib.sha256(raw).hexdigest()}
        rec["commands"].append(cmd)
        reason = None
        if code is None:
            reason = "timed out after %.0f s" % timeout
        elif code != 0:
            reason = "exit code %d" % code
        else:
            try:
                report = json.loads(raw)
                reason = command.check(report, seed)
                cmd["items"] = command.items(report)
            except (ValueError, KeyError, TypeError) as e:
                reason = "malformed report: %s" % e
        if reason is None and traced:
            trace = _merge(trace, _read_trace(tpath))
        if reason is not None:
            rec["ok"] = False
            rec["reason"] = "%s: %s" % (" ".join(command.argv), reason)
            break
    if rec["ok"] and before is not None and store_state(cache)[0] != before:
        rec["ok"] = False
        rec["reason"] = "the op changed the catalog store it should only read"
    if rec["ok"]:
        rec["items"] = sum(c["items"] for c in rec["commands"])
    if traced:
        rec["trace"] = trace
    return rec, trace


def layer_metrics(trace, setup_trace):
    """Per-layer values from one traced op (store_save from the traced set-up)."""
    out = {}
    for name in PER_LAYER:
        src = setup_trace if name.startswith("hierarchy.store_save") else trace
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            out[name] = src["spans"].get(span, {}).get(field, 0)
        elif name == "cli.emit_s":
            out[name] = src["spans"].get("cli.emit", {}).get("self_s", 0.0)
        elif name == "cli.startup_s":
            out[name] = src["times"].get(name, 0.0)
        else:
            out[name] = src["counts"].get(name, 0)
    return out


def self_check(workload, untraced, traced, traces, setup_trace):
    """Problems with the traced run; an empty list passes."""
    problems = []
    for t in traces:
        for name in sorted(workload.layers):
            if not t["spans"].get(name, {}).get("calls"):
                problems.append("boundary %s recorded no call" % name)
    for name in sorted(workload.setup_layers):
        if not setup_trace["spans"].get(name, {}).get("calls"):
            problems.append("set-up boundary %s recorded no call" % name)
    first, second = (layer_metrics(t, setup_trace) for t in traces)
    for name in EXACT_COUNTS:
        if first[name] != second[name]:
            problems.append("%s differs across traced ops: %s vs %s"
                            % (name, first[name], second[name]))
    shas = [[c["sha256"] for c in rec["commands"]] for rec in [untraced] + traced]
    if any(s != shas[0] for s in shas):
        problems.append("tracing changed report bytes")
    return sorted(set(problems))


def end_to_end_values(ops, setups):
    return {
        "op_s": statistics.median(rec["seconds"] for rec in ops),
        "items_per_s": sum(rec["items"] for rec in ops) / sum(rec["seconds"] for rec in ops),
        "peak_rss_mb": statistics.median(rec["rss_mb"] for rec in ops),
        "setup_s": statistics.median(s[0] for s in setups),
    }


def per_layer_values(ops, traces, setup_trace):
    """Times are the median of the traced ops; counts repeat, so take the first."""
    per_op = [layer_metrics(t, setup_trace) for t in traces]
    values = {name: statistics.median(m[name] for m in per_op) if unit == "s"
              else per_op[0][name] for name, unit in PER_LAYER.items()}
    values["trace.overhead_ratio"] = (
        statistics.median(rec["seconds"] for rec in ops[1:]) / ops[0]["seconds"]
    )
    return values


def run_workload(workload, seed, seconds, trace, root, timeout=OP_TIMEOUT_S):
    """Set up, run ops, check them; (result dict, record dict)."""
    base = os.path.join(root, WORK_DIR)
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(dir=base, prefix=workload.name + "-")
    launch = Launcher()
    try:
        env = op_env(root)
        setups = [set_up(launch, workload, work, env, seed, trace)]
        while not trace and (len(setups) < SETUPS or (
                len(setups) < SETUPS_MAX and sum(s[0] for s in setups) < SETUP_MIN_S)):
            setups.append(set_up(launch, workload, work, env, seed, trace))
        _, sdir, cache, stamp, setup_trace = setups[-1]
        ops, traces = [], []
        if trace:
            for traced in (False, True, True):
                rec, t = run_op(launch, workload, cache, seed, env, sdir, len(ops), traced,
                                timeout)
                ops.append(rec)
                if traced:
                    traces.append(t)
        else:
            t0 = time.perf_counter()
            while True:
                ops.append(run_op(launch, workload, cache, seed, env, sdir, len(ops), False,
                                  timeout)[0])
                if time.perf_counter() - t0 >= seconds:
                    break
        failed = sum(not rec["ok"] for rec in ops)
        problems = []
        if trace:
            if not failed:
                problems = self_check(workload, ops[0], ops[1:], traces, setup_trace)
            values, units = per_layer_values(ops, traces, setup_trace), PER_LAYER
        else:
            values, units = end_to_end_values(ops, setups), END_TO_END
        record = {
            "workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "stamp": stamp,
            "setup_s_each": [s[0] for s in setups],
            "cache_mb": store_state(cache)[1] / 1e6,
            "fail_ratio": failed / len(ops),
            "ops": ops, "self_check": problems,
        }
        result = {
            "correct": not failed and not problems, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }
        return result, record
    finally:
        launch.close()
        shutil.rmtree(work, ignore_errors=True)


def _print_table(name, result, record):
    for metric, m in result["metrics"].items():
        print("%-15s %-36s %14.6g %s" % (name, metric, m["value"], m["unit"]))
    print("%-15s %-36s %14.6g %s" % (name, "fail_ratio", record["fail_ratio"], "ratio"))
    print("%-15s %-36s %14.6g %s" % (name, "cache_mb", record["cache_mb"], "MB"))
    for problem in record["self_check"]:
        print("%-15s self-check: %s" % (name, problem))
    for rec in record["ops"]:
        if not rec["ok"]:
            print("%-15s op %d failed: %s" % (name, rec["op"], rec["reason"]))


def main(argv=None):
    table = WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(table) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, same paths")
    parser.add_argument("--record", default=None, help="append the run record to this file")
    args = parser.parse_args(argv)
    if args.smoke:
        table = SMOKE
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hierarchon", "cli.py")):
        print("error: run from the root of a hierarchon checkout "
              "(src/hierarchon/cli.py is missing)", file=sys.stderr)
        return 2
    names = sorted(table) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result, record = run_workload(table[name], args.seed, args.seconds,
                                          bool(args.trace), root)
        except (SetupError, subprocess.SubprocessError, OSError) as e:
            print("error: %s set-up failed: %s" % (name, e), file=sys.stderr)
            return 1
        ok = ok and result["correct"]
        if args.record:
            with open(args.record, "a") as fh:
                fh.write(json.dumps({"record": record, "result": result}) + "\n")
        if args.workload == "all":
            _print_table(name, result, record)
        else:
            print(json.dumps(record))
            print(json.dumps(result))
    return 0 if ok or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
