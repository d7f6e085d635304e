"""Run the hierarchon CLI with spans and counts recorded at layer boundaries.

    python clibench/tracer.py TRACE.json <hierarchon CLI arguments>

The program is not changed: before `hierarchon.cli.main` runs, each boundary
function or method is replaced, in every hierarchon module that holds it, by
a wrapper that records a span.  Spans nest on one stack, so a span's self
time is its duration minus the time its child spans cover, and each span is
also counted against the span that caused it.  The aggregate is written to
TRACE.json when main returns; the exit code is main's.

If the environment variable CLIBENCH_LAUNCH_T holds the wall time at which
the parent launched this process, `cli.startup_s` is the time from that
launch to the call of main.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, self seconds]
        self.edges = defaultdict(int)  # "parent>child" -> calls
        self.counts = defaultdict(int)
        self.times = {}
        self._stack = []  # open spans: [name, seconds covered by children]

    def span(self, name, fn, after=None):
        """fn wrapped in a span; after(args, result, parent span name) adds counts."""
        stack = self._stack
        spans = self.spans
        edges = self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0]
                rec[0] += 1
                rec[1] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    edges[stack[-1][0] + ">" + name] += 1
            if after is not None:
                after(args, out, stack[-1][0] if stack else None)
            return out

        return traced

    def counter(self, name, fn):
        """fn wrapped to count its calls under `name`, with no span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def report(self):
        return {
            "spans": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
            "times": self.times,
            "edges": dict(sorted(self.edges.items())),
        }


def _replace_everywhere(original, wrapper):
    """Point every hierarchon module attribute bound to original at wrapper.

    Patching only the defining module would miss callers that imported the
    name (hierarchy's `reconstruct`, semiclifford's `recognize_pauli`).
    """
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if modname == "hierarchon" or modname.startswith("hierarchon."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    hits += 1
    if not hits:
        raise RuntimeError("no hierarchon module holds %r" % original)


def _method(tracer, cls, attr, name, after=None):
    setattr(cls, attr, tracer.span(name, getattr(cls, attr), after))


def _counting_iter(tracer, name, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tracer.counts[name] += 1
            yield item

    return counted


def install(tracer):
    """Wrap every boundary the benchmark's per-layer metrics name."""
    import hierarchon.cli as cli
    from hierarchon import _kernels, cyclo, exactmat, hierarchy, phasespace
    from hierarchon import qutrit3, semiclifford, svn, teleport

    def fn(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.span(name, original, after))

    def count(module, attr, name):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.counter(name, original))

    c = tracer.counts

    def rephase(args, out, parent):
        if out[0] is None:
            c["hierarchy.rephase.skipped"] += 1

    def screened(args, out, parent):
        c["hierarchy.omega_screen.confirmed"] += len(out)

    def omega_commutes(args, out, parent):
        if parent == "hierarchy.omega_screen":
            c["hierarchy.omega_screen.survivors"] += 1

    def compared(args, out, parent):
        if parent == "hierarchy.catalog_add":
            c["hierarchy.catalog_add.exact_compares"] += 1
            if not out:
                c["hierarchy.catalog_add.collisions"] += 1

    def loaded(args, out, parent):
        if out is not None:
            c["hierarchy.store_load.bytes"] += os.path.getsize(out.meta["from_cache"])

    def saved(args, out, parent):
        c["hierarchy.store_save.bytes"] += os.path.getsize(out)

    def madds(args, out, parent):
        (r, m, phi), s = args[0].shape, args[1].shape[1]
        c["kernels.gr_matmul.madds"] += r * m * s * phi * phi

    def joined(args, out, parent):
        pairu, start, stop, stride = args[0], args[4], args[5], args[6]
        rows = len(range(start, stop, stride))
        c["kernels.survey_join.rows"] += rows
        c["kernels.survey_join.pair_checks"] += rows * len(pairu)

    # hierarchy: the lift stages, named where _lift_level looks them up
    fn(hierarchy, "_corrections_reason", "hierarchy.rephase", rephase)
    fn(hierarchy, "_omega_pairs", "hierarchy.omega_screen", screened)
    fn(hierarchy, "_closure_gaps", "hierarchy.closure")
    fn(hierarchy, "_lift_level", "hierarchy.lift")
    fn(hierarchy, "_load_cache", "hierarchy.store_load", loaded)
    fn(hierarchy, "_save_cache", "hierarchy.store_save", saved)
    _method(tracer, hierarchy.LevelCatalog, "add", "hierarchy.catalog_add")
    _method(tracer, hierarchy.LevelCatalog, "contains", "hierarchy.catalog_contains")
    # svn
    fn(svn, "reconstruct", "svn.reconstruct")
    count(svn, "_rational_fixed_vector", "svn.reconstruct.fixed_vector")
    count(svn, "_rotated_reconstruct", "svn.reconstruct.rotated")
    fn(svn, "_omega_commutes", "svn.omega_commutes", omega_commutes)
    # exactmat
    _method(tracer, exactmat.ExactMatrix, "__matmul__", "exactmat.matmul")
    count(exactmat, "_gr_matmul_obj", "exactmat.matmul.object_calls")
    _method(tracer, exactmat.FingerprintContext, "key", "exactmat.fingerprint")
    fn(exactmat, "equal_up_to_phase", "exactmat.equal_up_to_phase", compared)
    fn(exactmat, "from_interchange", "exactmat.from_interchange")
    fn(exactmat, "to_interchange", "exactmat.to_interchange")
    # cyclo
    _method(tracer, cyclo.Conductor, "reduce", "cyclo.reduce")
    mul = tracer.span("cyclo.scalar_mul", cyclo.CycloScalar.__mul__)
    cyclo.CycloScalar.__mul__ = cyclo.CycloScalar.__rmul__ = mul
    # _kernels, through the module attribute every caller uses
    fn(_kernels, "gr_matmul", "kernels.gr_matmul", madds)
    fn(_kernels, "fp_eval", "kernels.fp_eval")
    fn(_kernels, "semibasis_lut", "kernels.semibasis_lut")
    fn(_kernels, "survey_join", "kernels.survey_join", joined)
    # phasespace, semiclifford, teleport, qutrit3
    fn(phasespace, "recognize_pauli", "phasespace.recognize_pauli")
    fn(phasespace, "synthesize_clifford", "phasespace.synthesize_clifford")
    original = semiclifford.enumerate_semibases
    semiclifford.enumerate_semibases = _counting_iter(
        tracer, "semiclifford.find_witness.semibases_tried", original
    )
    fn(semiclifford, "find_witness", "semiclifford.find_witness")
    fn(semiclifford, "diagonalize", "semiclifford.diagonalize")
    fn(teleport, "gadget_run", "teleport.gadget_run")
    fn(qutrit3, "_pair_list", "qutrit3.pair_list")
    # cli: report serialisation
    fn(cli, "_emit", "cli.emit")
    return cli


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    launch = os.environ.get("CLIBENCH_LAUNCH_T")
    if launch:
        tracer.times["cli.startup_s"] = time.time() - float(launch)
    rc = cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump(tracer.report(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
