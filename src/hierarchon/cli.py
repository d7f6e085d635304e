"""Command line front end over enumeration, verification and survey runs.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 bad usage or
configuration.  Machine reports are JSON documents with a versioned schema
field; nothing time- or host-dependent goes into them, so a rerun with the
same configuration produces identical bytes.
"""

import argparse
import contextlib
import json
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .diagonal import verify_cgk
from .exactmat import from_interchange
from .hierarchy import REFERENCE_COUNTS, _check_request, enumerate_level, enumerate_levels
from .qutrit3 import survey
from .semiclifford import find_witness, find_witnesses, gate_hash, gate_report, gate_reports
from .teleport import verify_gadget

# refuse enumerations whose estimated size runs away; the estimate leans on
# the reference table and the d^2n-per-level growth beyond it
SIZE_CEILING = 1_000_000

# representatives a catalog run certifies per batch: the stacked tensors of
# one block are small, so peak memory stays flat however large the catalog
_CERTIFY_BLOCK = 128


def _cache_dir(args):
    # None lets the hierarchy fall back to the HIERARCHON_CACHE variable
    return args.cache_dir or None


def _estimate_members(d, n, k):
    ref = REFERENCE_COUNTS.get((d, n), {})
    if k in ref:
        return ref[k]
    if not ref:
        return (d ** (2 * n)) ** k
    # the reference tables run from level 1 without gaps
    last = max(ref)
    return ref[last] * (d ** (2 * n)) ** (k - last)


def _check_size(d, n, k):
    """Refuse, before any lift starts, a walk to a level past the ceiling.

    The estimate does not fall from one level to the next, so the levels
    are walked up to the first past the ceiling; the estimate of a runaway
    level, a power of thousands of digits, is never formed.
    """
    for level in range(1, k + 1):
        est = _estimate_members(d, n, level)
        if est > SIZE_CEILING:
            break
    else:
        return
    if level == k:
        raise ValueError(
            "estimated %d gates at level %d is past the ceiling of %d" % (est, k, SIZE_CEILING)
        )
    raise ValueError(
        "estimated at least %d gates at level %d is past the ceiling of %d"
        % (est, k, SIZE_CEILING)
    )


def _verdict(count, reference):
    if reference is None:
        return "NEW"
    return "MATCH" if count == reference else "MISMATCH"


_INDENT = "  "

# parts the encoder gathers before it hands them on joined
_FLUSH_PARTS = 8192


def _dump(value, write):
    """Pass json.dumps(value, indent=2, sort_keys=True) to write, in chunks.

    The walk goes through dicts with str keys and through arrays (lists and
    tuples) that hold a dict.  Any other array or dict is encoded once per
    distinct compact form and depth: json.dumps encodes it standalone, and
    its line breaks are shifted by the depth's indent.  A subtree object met
    a second time at one depth, as a catalog's certificates share their
    factor documents, is encoded once more into one string that every later
    meeting reuses; ids are stable because value holds every subtree while
    the walk runs.  str and int scalars are encoded as json.dumps encodes
    them, without its call.  Chunks go to write as the walk produces them,
    so the whole document is never held as one string.
    """
    parts = []
    leaves = {}
    seen = set()
    shared = {}
    capturing = 0  # open captures; parts are handed on only outside one

    def walk(v, depth):
        nonlocal capturing
        if type(v) is str:
            parts.append(encode_basestring_ascii(v))
            return
        if isinstance(v, int) and not isinstance(v, bool):
            parts.append(int.__repr__(v))
            return
        if not isinstance(v, (list, tuple, dict)):
            # a scalar's encoding has no line break to shift
            parts.append(json.dumps(v))
            return
        key = (id(v), depth)
        text = shared.get(key)
        if text is not None:
            parts.append(text)
            return
        if key in seen:
            start = len(parts)
            capturing += 1
            encode(v, depth)
            capturing -= 1
            shared[key] = "".join(parts[start:])
            del parts[start:]
            parts.append(shared[key])
            return
        seen.add(key)
        encode(v, depth)
        if not capturing and len(parts) >= _FLUSH_PARTS:
            write("".join(parts))
            parts.clear()

    def encode(v, depth):
        if isinstance(v, (list, tuple)) and any(isinstance(x, dict) for x in v):
            brackets, items = "[]", [("", x) for x in v]
        elif isinstance(v, dict) and v and all(isinstance(k, str) for k in v):
            brackets, items = "{}", [
                (encode_basestring_ascii(k) + ": ", v[k]) for k in sorted(v)
            ]
        else:
            # sorted like the indented form, so the compact form fixes it:
            # {10: 0, 2: 1} and {"10": 0, "2": 1} sort their keys differently
            key = (json.dumps(v, sort_keys=True), depth)
            if key not in leaves:
                indented = json.dumps(v, indent=2, sort_keys=True)
                leaves[key] = indented.replace("\n", "\n" + _INDENT * depth)
            parts.append(leaves[key])
            return
        inner = "\n" + _INDENT * (depth + 1)
        parts.append(brackets[0])
        for i, (head, x) in enumerate(items):
            parts.append(("" if i == 0 else ",") + inner + head)
            walk(x, depth + 1)
        parts.append("\n" + _INDENT * depth + brackets[1])

    walk(value, 0)
    if parts:
        write("".join(parts))


def _emit(args, report, table_lines):
    as_json = getattr(args, "format", "table") == "json"
    # the indented document of a large catalog takes a second to build, so
    # a table run without --out does not build it; otherwise its chunks go
    # to every sink as they are encoded
    if as_json or args.out:
        with contextlib.ExitStack() as stack:
            sinks = [stack.enter_context(open(args.out, "w")).write] if args.out else []
            if as_json:
                sinks.append(sys.stdout.write)

            def write(chunk):
                for sink in sinks:
                    sink(chunk)

            _dump(report, write)
            write("\n")
    if not as_json:
        for line in table_lines:
            print(line)


def cmd_enumerate(args):
    if args.max_level < 1:
        print("error: --max-level must be at least 1", file=sys.stderr)
        return 2
    _check_size(args.d, args.n, args.max_level)
    cache = _cache_dir(args)
    refs = REFERENCE_COUNTS.get((args.d, args.n), {})
    levels = []
    lines = ["level  count    reference  verdict"]
    closure_failures = 0
    for k, cat in enumerate(enumerate_levels(args.d, args.n, args.max_level, cache), 1):
        ref = refs.get(k)
        verdict = _verdict(len(cat), ref)
        closure_failures += cat.meta.get("closure_failure_count", 0)
        levels.append(
            {"level": k, "count": len(cat), "reference": ref, "verdict": verdict}
        )
        lines.append(
            "%5d  %-7d  %-9s  %s"
            % (k, len(cat), "-" if ref is None else ref, verdict)
        )
    report = {
        "schema": "hierarchon.enumerate/1",
        "library": __version__,
        "d": args.d,
        "n": args.n,
        "max_level": args.max_level,
        "levels": levels,
        "closure_failures": closure_failures,
    }
    _emit(args, report, lines)
    return 0 if closure_failures == 0 else 1


def _load_gate(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("gate file %s is nested too deeply" % path) from None
    su, n = from_interchange(doc)
    su.verify()
    return su, n


def _check_walk(d, n, k):
    """Refuse a walk to level k: past the size ceiling, or a request the lift refuses."""
    _check_size(d, n, k)
    _check_request(d, n, k)


def cmd_membership(args):
    su, n = _load_gate(args.gate)
    # the walk stops at the first level that holds the gate, so each limit
    # is checked only when the walk would reach its level
    reach = 0
    while reach < args.max_level:
        try:
            _check_walk(su.d, n, reach + 1)
        except ValueError:
            break
        reach += 1
    level = None
    if reach:
        for k, cat in enumerate(enumerate_levels(su.d, n, reach, _cache_dir(args)), 1):
            if cat.contains(su.mat):
                level = k
                break
    if level is None:
        _check_walk(su.d, n, args.max_level)
    report = {
        "schema": "hierarchon.membership/1",
        "library": __version__,
        "d": su.d,
        "n": n,
        "max_level": args.max_level,
        "gate_hash": gate_hash(su),
        "level": level,
    }
    line = (
        "level: %d" % level
        if level is not None
        else "not within levels 1..%d" % args.max_level
    )
    _emit(args, report, [line])
    return 0


def cmd_diagonal(args):
    _check_size(args.d, 1, args.k)
    cache = _cache_dir(args)
    catalog = enumerate_level(args.d, 1, args.k, cache_dir=cache)
    result = verify_cgk(args.d, args.k, catalog)
    ok = not result["missing"] and not result["extra"]
    report = {
        "schema": "hierarchon.diagonal/1",
        "library": __version__,
        "verdict": "pass" if ok else "fail",
    }
    report.update(result)
    lines = [
        "%s: %d diagonal classes at level %d (d=%d)"
        % (report["verdict"], result["delta_count"], args.k, args.d)
    ]
    if result["missing"]:
        lines.append("missing from catalog: %d" % len(result["missing"]))
    if result["extra"]:
        lines.append("extra diagonal classes: %d" % len(result["extra"]))
    _emit(args, report, lines)
    return 0 if ok else 1


def cmd_semiclifford(args):
    if (args.catalog is None) == (args.gate is None):
        print("error: pass a gate file or --catalog K, not both", file=sys.stderr)
        return 2
    if args.gate is not None:
        su, _ = _load_gate(args.gate)
        rep = gate_report(su, find_witness(su))
        report = {
            "schema": "hierarchon.semiclifford/1",
            "library": __version__,
            "mode": "gate",
            "report": rep,
        }
        line = "semi-Clifford" if rep["semi_clifford"] else "not semi-Clifford"
        _emit(args, report, [line])
        return 0
    _check_size(args.d, 1, args.catalog)
    cache = _cache_dir(args)
    catalog = enumerate_level(args.d, 1, args.catalog, cache_dir=cache)
    reps = list(catalog.representatives())
    total = len(reps)
    found = 0
    counterexamples = []
    certificates = []
    # one interchange document per distinct factor, for this report only
    documents = {}
    for lo in range(0, total, _CERTIFY_BLOCK):
        block = reps[lo:lo + _CERTIFY_BLOCK]
        witnesses = find_witnesses(block)
        found += sum(w is not None for w in witnesses)
        # a counterexample is always reported, a certificate when asked for
        keep = [k for k, w in enumerate(witnesses) if w is None or args.certificates]
        for rep in gate_reports([block[k] for k in keep], [witnesses[k] for k in keep], documents):
            (certificates if rep["semi_clifford"] else counterexamples).append(rep)
    report = {
        "schema": "hierarchon.semiclifford/1",
        "library": __version__,
        "mode": "catalog",
        "d": args.d,
        "k": args.catalog,
        "total": total,
        "semi_clifford": found,
        "counterexamples": counterexamples,
    }
    if args.certificates:
        report["certificates"] = certificates
    _emit(
        args,
        report,
        ["%d/%d semi-Clifford at level %d (d=%d)" % (found, total, args.catalog, args.d)],
    )
    return 0 if found == total else 1


def cmd_teleport(args):
    if args.samples < 1:
        print("error: --samples must be at least 1", file=sys.stderr)
        return 2
    cache = _cache_dir(args)
    catalog = enumerate_level(args.d, 1, 3, cache_dir=cache)
    result = verify_gadget(args.d, samples=args.samples, seed=args.seed, catalog=catalog)
    report = {
        "schema": "hierarchon.teleport/1",
        "library": __version__,
        "seed": args.seed,
    }
    report.update(result)
    lines = [
        "%d failures across %d branches (%d samples, seed %d)"
        % (len(result["failures"]), result["branches_checked"], args.samples, args.seed)
    ]
    _emit(args, report, lines)
    return 0 if not result["failures"] else 1


def cmd_qutrit3(args):
    result = survey(stride=args.stride)
    report = {"schema": "hierarchon.qutrit3/1", "library": __version__}
    report.update(result)
    lines = [
        "%d/%d tuples contain a Lagrangian semibasis; %d fail"
        % (result["passed"], result["total"], result["failed"])
    ]
    _emit(args, report, lines)
    return 0 if result["failed"] == 0 else 1


def _common(sub):
    sub.add_argument("--cache-dir", default=None)
    sub.add_argument("--format", choices=("table", "json"), default="table")
    sub.add_argument("--out", default=None)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hierarchon",
        description="Exact Clifford hierarchy workbench.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="build hierarchy level catalogs")
    p.add_argument("--d", type=int, choices=(3, 5, 7), default=3)
    p.add_argument("--n", type=int, choices=(1, 2), default=1)
    p.add_argument("--max-level", type=int, default=3)
    _common(p)
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("membership", help="place a gate file in the hierarchy")
    p.add_argument("gate", help="gate in interchange JSON")
    p.add_argument("--max-level", type=int, default=4)
    _common(p)
    p.set_defaults(func=cmd_membership)

    p = subs.add_parser("diagonal", help="diagonal gate classification checks")
    p.add_argument("action", choices=("verify",))
    p.add_argument("--d", type=int, choices=(3, 5, 7), default=3)
    p.add_argument("--k", type=int, default=3)
    _common(p)
    p.set_defaults(func=cmd_diagonal)

    p = subs.add_parser("semiclifford", help="witness and diagonalise gates")
    p.add_argument("gate", nargs="?", default=None, help="gate in interchange JSON")
    p.add_argument("--catalog", type=int, default=None, metavar="K")
    p.add_argument("--d", type=int, choices=(3, 5, 7), default=3)
    p.add_argument("--certificates", action="store_true")
    _common(p)
    p.set_defaults(func=cmd_semiclifford)

    p = subs.add_parser("teleport", help="gate teleportation checks")
    p.add_argument("action", choices=("verify",))
    p.add_argument("--d", type=int, choices=(3,), default=3)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _common(p)
    p.set_defaults(func=cmd_teleport)

    p = subs.add_parser("qutrit3", help="two-qutrit third-level survey")
    p.add_argument("action", choices=("survey",))
    p.add_argument("--stride", type=int, default=1)
    _common(p)
    p.set_defaults(func=cmd_qutrit3)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
