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
from collections.abc import Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii

from . import __version__
from .diagonal import verify_cgk
from .exactmat import from_interchange
from .hierarchy import REFERENCE_COUNTS, _check_request, enumerate_level, enumerate_levels
from .hierarchy import membership, top_level
from .qutrit3 import survey
from .semiclifford import (
    certificate_report,
    certify,
    find_witness,
    find_witnesses,
    gate_hash,
)
from .teleport import verify_gadget

# representatives a catalog run certifies per batch: the stacked tensors of
# one block are small, so peak memory stays flat however large the catalog
_CERTIFY_BLOCK = 128


def _verdict(count, reference):
    if reference is None:
        return "NEW"
    return "MATCH" if count == reference else "MISMATCH"


_INDENT = "  "

# characters of text the encoder gathers before it hands them on
_FLUSH_CHARS = 1 << 16


def _dump(value, write, shared=()):
    """Pass json.dumps(value, indent=2, sort_keys=True) to write, in chunks.

    One walk over dicts, lists, tuples and iterators, an iterator written as
    a list, that writes str and int scalars itself.  Each object in shared,
    kept alive by the caller so its id names it, is encoded once per depth.
    Text goes to write in chunks of about _FLUSH_CHARS characters, never whole.
    """
    parts = []
    size = 0  # characters in parts
    texts = {id(obj): {} for obj in shared}  # id -> depth -> text

    def send(text):
        nonlocal size
        parts.append(text)
        size += len(text)
        if size >= _FLUSH_CHARS:
            write("".join(parts))
            parts.clear()
            size = 0

    def walk(v, depth, put, memo=True):
        if isinstance(v, str):
            put(encode_basestring_ascii(v))
        elif isinstance(v, int) and not isinstance(v, bool):
            put(int.__repr__(v))
        elif not isinstance(v, (list, tuple, dict, Iterator)):
            put(json.dumps(v))
        elif memo and id(v) in texts:
            if depth not in texts[id(v)]:
                text = []
                walk(v, depth, text.append, memo=False)
                texts[id(v)][depth] = "".join(text)
            put(texts[id(v)][depth])
        else:
            if isinstance(v, dict):
                brackets, items = "{}", ((_key(k), v[k]) for k in sorted(v))
            else:
                brackets, items = "[]", (("", x) for x in v)
            put(brackets[0])
            sep = "\n"
            for head, x in items:
                put(sep + _INDENT * (depth + 1) + head)
                sep = ",\n"
                walk(x, depth + 1, put)
            # nothing written inside: an empty array or dict is [] or {}
            put(brackets[1] if sep == "\n" else "\n" + _INDENT * depth + brackets[1])

    walk(value, 0, send)
    if parts:
        write("".join(parts))


def _key(k):
    # json.dumps writes a key that is not a str as its own encoding, quoted
    if not isinstance(k, str):
        if k is not None and not isinstance(k, (int, float)):
            raise TypeError("keys must be str, int, float, bool or None, not " + type(k).__name__)
        k = json.dumps(k)
    return encode_basestring_ascii(k) + ": "


def _emit(args, report, table_lines, shared=()):
    report = {"schema": "hierarchon.%s/1" % args.command, "library": __version__, **report}
    as_json = args.format == "json"
    # the indented document of a large catalog takes a second to build, so
    # a table run without --out does not build it; otherwise its chunks go
    # to every sink as they are encoded, each object in shared encoded once
    if as_json or args.out:
        with contextlib.ExitStack() as stack:
            sinks = [stack.enter_context(open(args.out, "w")).write] if args.out else []
            if as_json:
                sinks.append(sys.stdout.write)

            def write(chunk):
                for sink in sinks:
                    sink(chunk)

            _dump(report, write, shared)
            write("\n")
    if not as_json:
        for line in table_lines:
            print(line)


def cmd_enumerate(args):
    _check_request(args.d, 1, args.max_level)
    refs = REFERENCE_COUNTS.get((args.d, 1), {})
    levels = []
    lines = ["level  count    reference  verdict"]
    closure_failures = 0
    for k, cat in enumerate(enumerate_levels(args.d, args.max_level, args.cache_dir), 1):
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
        "d": args.d,
        "n": 1,
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


def cmd_membership(args):
    su, n = _load_gate(args.gate)
    # the wire cap and the level-1 ceiling hold for any file, placed or not
    _check_request(su.d, n, 1)
    # level 1 is decided exactly with no catalog; the walk from level 2 stops
    # at the first level that holds the gate, so a limit below --max-level is
    # met only by a gate that no level within it holds
    reach = min(args.max_level, top_level(su.d, n))
    level = 1 if reach >= 1 and membership(su, 1) else None
    if level is None and reach >= 2:
        above_one = islice(enumerate_levels(su.d, reach, args.cache_dir), 1, None)
        level = next((cat.k for cat in above_one if cat.contains(su.mat)), None)
    if level is None:
        _check_request(su.d, n, args.max_level)
    report = {
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
    _check_request(args.d, 1, args.k)
    catalog = enumerate_level(args.d, args.k, cache_dir=args.cache_dir)
    result = verify_cgk(args.d, args.k, catalog)
    ok = not result["missing"] and not result["extra"]
    report = dict(result, verdict="pass" if ok else "fail")
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
        # the gate's own file fixes d, and a lone gate reads no store
        catalog_only = {"--d": args.d is not None, "--cache-dir": args.cache_dir is not None,
                        "--certificates": args.certificates}
        flag = next((flag for flag, given in catalog_only.items() if given), None)
        if flag:
            print("error: %s needs --catalog K, not a gate file" % flag, file=sys.stderr)
            return 2
        su, _ = _load_gate(args.gate)
        rep = certificate_report(*certify([su], [find_witness(su)], {})[0])
        line = "semi-Clifford" if rep["semi_clifford"] else "not semi-Clifford"
        _emit(args, {"mode": "gate", "report": rep}, [line])
        return 0
    d = 3 if args.d is None else args.d
    _check_request(d, 1, args.catalog)
    catalog = enumerate_level(d, args.catalog, cache_dir=args.cache_dir)
    reps = list(catalog.representatives())
    total = len(reps)
    found = 0
    # each kept gate's hash, witness and factor documents, as certify
    # returns them; the documents are one per distinct factor, for this
    # report only
    entries = []
    documents = {}
    for lo in range(0, total, _CERTIFY_BLOCK):
        block = reps[lo:lo + _CERTIFY_BLOCK]
        witnesses = find_witnesses(block)
        found += sum(w is not None for w in witnesses)
        # a counterexample is always reported, a certificate when asked for
        keep = [k for k, w in enumerate(witnesses) if w is None or args.certificates]
        entries += certify([block[k] for k in keep], [witnesses[k] for k in keep], documents)
    report = {
        "mode": "catalog",
        "d": d,
        "k": args.catalog,
        "total": total,
        "semi_clifford": found,
        "counterexamples": [certificate_report(*e) for e in entries if e[1] is None],
    }
    if args.certificates:
        # every split is checked above, so the encoder builds each
        # certificate as it writes it and drops it after
        report["certificates"] = (certificate_report(*e) for e in entries if e[1] is not None)
    _emit(
        args,
        report,
        ["%d/%d semi-Clifford at level %d (d=%d)" % (found, total, args.catalog, d)],
        documents.values(),
    )
    return 0 if found == total else 1


def cmd_teleport(args):
    if args.samples < 1:
        print("error: --samples must be at least 1", file=sys.stderr)
        return 2
    catalog = enumerate_level(args.d, 3, cache_dir=args.cache_dir)
    result = verify_gadget(catalog, samples=args.samples, seed=args.seed)
    lines = [
        "%d failures across %d branches (%d samples, seed %d)"
        % (len(result["failures"]), result["branches_checked"], args.samples, args.seed)
    ]
    _emit(args, dict(result, seed=args.seed), lines)
    return 0 if not result["failures"] else 1


def cmd_qutrit3(args):
    result = survey(stride=args.stride)
    lines = [
        "%d/%d tuples contain a Lagrangian semibasis; %d fail"
        % (result["passed"], result["total"], result["failed"])
    ]
    _emit(args, result, lines)
    return 0 if result["failed"] == 0 else 1


def _common(sub, store=True):
    # only the commands that read catalogs take a store
    if store:
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
    # 3 when unset, in catalog mode alone
    p.add_argument("--d", type=int, choices=(3, 5, 7), default=None)
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
    _common(p, store=False)
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
