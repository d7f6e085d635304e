"""Summarise or compare benchmark runs recorded with `run.py --record FILE`.

    python3 clibench/compare.py RUNS.jsonl            # medians and spreads
    python3 clibench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

For every workload and metric this prints the median, the quartiles and the
spread (distance between the quartiles as a share of the median) of each
file.  Given two files, an end-to-end metric whose NEW median is worse than
the BASE median by more than its bound in BENCHMARK.json is a REGRESSION;
one whose spread in either file exceeds the bound is UNRESOLVED.  Runs whose
environment stamps differ (kernel lane, Python or numpy version, core count,
zstandard) are not comparable, and the comparison is flagged.  The exit code
is 1 when anything regressed, a run failed an op or its self-check, or the
stamps differ.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                entry = json.loads(line)
                rec = entry["record"]
                runs.setdefault((rec["workload"], rec["trace"]), []).append(entry)
    return runs


def bounds():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def summary(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def stamps(runs):
    return {json.dumps(e["record"]["stamp"], sort_keys=True)
            for entries in runs.values() for e in entries}


def problems(runs):
    out = []
    for (workload, _), entries in sorted(runs.items()):
        for e in entries:
            res, rec = e["result"], e["record"]
            if res["failed"] or not res["correct"]:
                out.append("%s seed %s: %d/%d ops failed, self-check %s"
                           % (workload, rec["seed"], res["failed"], res["attempted"],
                              rec["self_check"] or "passed"))
    return out


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    sets = [load(p) for p in argv]
    spec = bounds()
    bad = False
    all_stamps = set().union(*(stamps(r) for r in sets))
    if len(all_stamps) > 1:
        bad = True
        print("STAMPS DIFFER, the runs are not comparable:")
        for s in sorted(all_stamps):
            print("  " + s)
    for runs in sets:
        for p in problems(runs):
            bad = True
            print("FAILED " + p)
    keys = sorted(set().union(*sets))
    for key in keys:
        workload, trace = key
        print("\n%s%s (%s runs)" % (workload, " traced" if trace else "",
                                    " / ".join(str(len(r.get(key, []))) for r in sets)))
        names = sorted({n for r in sets for e in r.get(key, []) for n in e["result"]["metrics"]})
        for name in names:
            cells, sums = [], []
            for runs in sets:
                vals = [e["result"]["metrics"][name]["value"] for e in runs.get(key, [])
                        if name in e["result"]["metrics"]]
                if not vals:
                    cells.append("%40s" % "-")
                    sums.append(None)
                    continue
                s = summary(vals)
                sums.append(s)
                cells.append("%12.5g [%10.5g %10.5g] %5.1f%%"
                             % (s["median"], s["q1"], s["q3"], 100 * s["spread"]))
            verdict = ""
            if len(sets) == 2 and name in spec and None not in sums and not trace:
                base, new = sums
                bound = spec[name]["bound"]
                change = (new["median"] - base["median"]) / base["median"]
                worse = change if spec[name]["better"] == "lower" else -change
                if worse > bound:
                    verdict = "REGRESSION %+.1f%%" % (100 * change)
                    bad = True
                elif max(base["spread"], new["spread"]) > bound:
                    verdict = "UNRESOLVED %+.1f%%" % (100 * change)
                else:
                    verdict = "ok %+.1f%%" % (100 * change)
            print("  %-40s %s %s" % (name, "  ".join(cells), verdict))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
