"""The benchmark's workloads: CLI commands, set-up, expected reports, layers.

An op is the workload's commands run back to back, each one a `hierarchon`
CLI invocation in a fresh interpreter, as a user running a batch job would.
Each command carries a check that returns None for a right report and a
one-line reason otherwise, and a count of the verified work in the report.

`cold` computes everything from scratch: the level lift up to the closure
check at level 4, then the two-qutrit survey.  `stored` works from a catalog
store written during set-up: it reloads the stored levels, then certifies
the level-3 gates semi-Clifford and checks the teleportation gadget.  Only
`stored` consumes the workload seed, as the teleport `--seed`; `cold` is
deterministic, its inputs fixed by the commands.

Every workload has a full form, timed by the benchmark, and a smoke form on
tiny inputs that runs the same code paths in seconds (the cold form still
pays the 3^12 semibasis table, about 12 s, which every survey run builds).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  `{cache}` and `{seed}` in argv are filled per run."""

    argv: tuple
    check: object  # (report, seed) -> None or a reason
    items: object  # report -> units of verified work


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    setup: tuple = ()  # untimed commands that write the catalog store the op reads
    layers: frozenset = frozenset()  # trace boundaries a traced op must enter
    setup_layers: frozenset = frozenset()  # the same, for the traced set-up


def _differs(what, got, want):
    return "%s is %r, expected %r" % (what, got, want)


def enumerate_cmd(d, counts, cache=False):
    argv = ("enumerate", "--d", str(d), "--max-level", str(len(counts)))
    if cache:
        argv += ("--cache-dir", "{cache}")

    def check(report, seed):
        got = [lv["count"] for lv in report["levels"]]
        if report["d"] != d or got != list(counts):
            return _differs("d=%d level counts" % d, got, list(counts))
        if report["closure_failures"] != 0:
            return _differs("closure_failures", report["closure_failures"], 0)
        return None

    return Command(argv, check, lambda report: sum(lv["count"] for lv in report["levels"]))


def survey_cmd(stride, total, pairs):
    def check(report, seed):
        for key, want in (("total", total), ("failed", 0), ("pairs", pairs)):
            if report[key] != want:
                return _differs("survey " + key, report[key], want)
        return None

    return Command(
        ("qutrit3", "survey", "--stride", str(stride)), check, lambda report: report["total"]
    )


def semiclifford_cmd(k, total):
    def check(report, seed):
        got = (report["total"], report["semi_clifford"], len(report["certificates"]))
        if got != (total, total, total):
            return _differs("(total, semi-Clifford, certificates)", got, (total,) * 3)
        if report["counterexamples"]:
            return _differs("counterexamples", len(report["counterexamples"]), 0)
        return None

    argv = ("semiclifford", "--catalog", str(k), "--d", "3", "--certificates",
            "--cache-dir", "{cache}")
    return Command(argv, check, lambda report: report["semi_clifford"])


def teleport_cmd(samples):
    def check(report, seed):
        got = (report["seed"], report["samples"], report["branches_checked"])
        if got != (seed, samples, 3 * samples):
            return _differs("(seed, samples, branches)", got, (seed, samples, 3 * samples))
        if report["failures"]:
            return _differs("gadget failures", len(report["failures"]), 0)
        return None

    argv = ("teleport", "verify", "--samples", str(samples), "--seed", "{seed}",
            "--cache-dir", "{cache}")
    return Command(argv, check, lambda report: report["samples"])


D3 = (9, 216, 1944, 7128)
D5 = (25, 3000)

# Boundaries (see tracer.py) each workload is meant to load; the traced run
# fails its self-check when one of them records no call.
LIFT = frozenset({
    "hierarchy.rephase", "hierarchy.omega_screen", "hierarchy.lift",
    "hierarchy.catalog_add", "svn.reconstruct", "svn.omega_commutes",
    "exactmat.matmul", "exactmat.fingerprint", "cyclo.reduce",
    "kernels.gr_matmul", "kernels.fp_eval", "cli.emit",
})
STORE_READ = frozenset({
    "hierarchy.store_load", "hierarchy.catalog_add", "exactmat.fingerprint",
    "exactmat.from_interchange", "kernels.fp_eval", "cli.emit",
})
SURVEY = frozenset({
    "kernels.semibasis_lut", "kernels.survey_join", "qutrit3.pair_list", "cli.emit",
})
CERTIFY = frozenset({
    "hierarchy.store_load", "exactmat.from_interchange", "exactmat.matmul",
    "exactmat.to_interchange", "exactmat.equal_up_to_phase", "cyclo.scalar_mul",
    "phasespace.recognize_pauli", "phasespace.synthesize_clifford",
    "semiclifford.find_witness", "semiclifford.diagonalize", "teleport.gadget_run",
    "svn.reconstruct", "cli.emit",
})
STORE_WRITE = frozenset({"hierarchy.store_save", "exactmat.to_interchange"})


def _workloads(smoke):
    # the smoke forms stop d=3 at level 3, below the closure check, and drop d=5
    d3 = D3[:3] if smoke else D3
    survey = survey_cmd(1000, 3912, 174960) if smoke else survey_cmd(50, 84120, 174960)
    closure = frozenset() if smoke else frozenset(
        {"hierarchy.closure", "hierarchy.catalog_contains", "exactmat.equal_up_to_phase"}
    )
    stored = [enumerate_cmd(3, D3[:3], cache=True)]
    if not smoke:
        stored.append(enumerate_cmd(5, D5, cache=True))
    certify = (semiclifford_cmd(2, 216) if smoke else semiclifford_cmd(3, 1944),
               teleport_cmd(5 if smoke else 300))
    return {
        "cold": Workload("cold", (enumerate_cmd(3, d3), survey),
                         layers=LIFT | SURVEY | closure),
        "stored": Workload(
            "stored", tuple(stored) + certify, setup=tuple(c.argv for c in stored),
            layers=STORE_READ | CERTIFY, setup_layers=STORE_WRITE,
        ),
    }


WORKLOADS = _workloads(smoke=False)
SMOKE = _workloads(smoke=True)
