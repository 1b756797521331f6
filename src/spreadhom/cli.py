"""Command-line driver: validate files, print invariants, compare modules.

A module file is read over the poset its own `poset:` names.  Every command
prints through `Reporter` (text, or --jsonl records), and each kind reads at
most one of --family and --collection (FAMILY_OPTION).

Exit codes: 0 ok; 1 usage, validation or parse failure; 2 well-posed but undecided
(truncated resolution, enumeration cap); 3 unsupported input (e.g. a barcode
request off a path-shaped poset).
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .approx import DEFAULT_MAX_DEPTH, resolve
from .errors import (
    CapExceededError,
    FileFormatError,
    NotTypeAError,
    PosetMismatchError,
    ResolutionTruncatedError,
    SpreadHomError,
)
from .field import DEFAULT_PRIME, PrimeField
from .files import load_family, load_module, load_poset
from .invariants import COMPARE_KINDS, barcode, class_route, invariant_key
from .poset import DEFAULT_CAP

INVARIANT_KINDS = COMPARE_KINDS + ("barcode", "resolve")
FORMAT_TAG = "spreadhom.v1"
FAMILY_OPTION = {"class": "family", "dimhom": "family", "resolve": "family",
                 "genrank": "collection", "diagram": "collection"}


class Reporter:
    def __init__(self, jsonl: bool, command: str, options: dict):
        self.jsonl = jsonl
        if jsonl:
            head = {"record": "header", "format": FORMAT_TAG, "command": command}
            head.update(options)
            print(json.dumps(head, sort_keys=True))

    def record(self, text: str, **payload):
        if self.jsonl:
            print(json.dumps(payload, sort_keys=True))
        else:
            print(text)


def _family(args, poset):
    """The --family or --collection that args.kind reads, over poset; None if neither."""
    option = FAMILY_OPTION.get(args.kind)
    return None if option is None else load_family(getattr(args, option), poset, args.cap)


def cmd_validate(args) -> int:
    """Check POSET, then each module over its own `poset:`, which must equal POSET."""
    poset = load_poset(args.poset)
    rep = Reporter(args.jsonl, "validate", {"poset": args.poset, "prime": args.prime})
    rep.record(f"ok poset {args.poset}: {poset.n} elements, {len(poset.covers)} covers",
               record="poset", path=args.poset, elements=poset.n, covers=len(poset.covers))
    field = PrimeField(args.prime)
    posets = {os.path.realpath(args.poset): poset}
    for path in args.modules:
        module, module_poset, ref = load_module(path, field, posets)
        if module_poset != poset:
            raise PosetMismatchError(f"{path}: its poset {ref!r} is not equal to {args.poset}")
        dims = {poset.label(a): d for a, d in enumerate(module.dims) if d}
        rep.record(f"ok module {path}: dims {dims}", record="module", path=path, dims=dims)
    return 0


def cmd_invariant(args) -> int:
    kind = args.kind
    module, poset, _ = load_module(args.module, PrimeField(args.prime))
    family = _family(args, poset)
    rep = Reporter(args.jsonl, "invariant", {"kind": kind, "module": args.module, "prime": args.prime})

    if kind == "barcode":
        value = barcode(module, args.cap)
    elif kind != "resolve":
        value = invariant_key(kind, module, family=family, max_depth=args.max_depth)

    if kind == "dimvec":
        dims = {poset.label(a): int(d) for a, d in enumerate(value)}
        rep.record(f"dimension vector: {dims}", record="invariant", kind=kind, dims=dims)
        return 0

    if kind == "rank":
        entries = [
            [poset.label(a), poset.label(b), int(r)]
            for (a, b), r in sorted(value.items())
        ]
        rep.record("\n".join(f"{a} <= {b}: {r}" for a, b, r in entries),
                   record="invariant", kind=kind, entries=entries)
        return 0

    if kind in ("dimhom", "genrank"):
        shown = {s.render(): int(v) for s, v in zip(family.members, value)}
        text = "\n".join(f"{k}: {v}" for k, v in shown.items())
        rep.record(text, record="invariant", kind=kind, values=shown)
        return 0

    if kind in ("class", "diagram", "barcode"):
        route = {"route": class_route(family)} if kind == "class" else {}
        label = {"class": f"class ({route.get('route')})", "diagram": "signed diagram"}.get(kind, kind)
        rep.record(f"{label}: {value.render()}",
                   record="invariant", kind=kind, coeffs=value.nonzero(), **route)
        return 0

    # resolve
    res = resolve(family, module, args.max_depth)
    term_dicts = [{s.render(): int(c) for s, c in zip(family.members, term) if c} for term in res.terms]
    lines = [f"term {k}: {shown or '0'}" for k, shown in enumerate(term_dicts)]
    lines.append(f"status: {res.status}")
    if res.periodicity is not None:
        lines.append(f"periodicity hint: kernels {res.periodicity[0]} and {res.periodicity[1]} look alike")
    rep.record(
        "\n".join(lines),
        record="invariant", kind=kind, terms=term_dicts, status=res.status,
        periodicity=list(res.periodicity) if res.periodicity else None,
    )
    return 0 if res.status == "finite" else 2


def cmd_compare(args) -> int:
    """Verdicts for all pairs; each file, family and invariant key is computed once."""
    field = PrimeField(args.prime)
    if args.batch:
        if args.module_a:
            raise ValueError("compare takes two module files or --batch DIR, not both")
        try:
            names = os.listdir(args.batch)
        except OSError as e:
            raise FileFormatError(f"{args.batch}: {e.strerror or e}") from None
        paths = sorted(os.path.join(args.batch, f) for f in names if f.endswith((".yaml", ".yml")))
        pairs = list(itertools.combinations(paths, 2))
    else:
        if not args.module_b:
            raise FileFormatError("compare needs two module files (or --batch DIR)")
        pairs = [(args.module_a, args.module_b)]
    rep = Reporter(args.jsonl, "compare", {"kind": args.kind, "prime": args.prime})
    posets, modules, families, keys = {}, {}, {}, {}

    def key(path):
        if path not in keys:
            m = modules[path]
            if m.poset not in families:
                families[m.poset] = _family(args, m.poset)
            keys[path] = invariant_key(args.kind, m, family=families[m.poset], max_depth=args.max_depth)
        return keys[path]

    for path_a, path_b in pairs:
        for path in (path_a, path_b):
            if path not in modules:
                modules[path] = load_module(path, field, posets=posets)[0]
        if modules[path_a].poset != modules[path_b].poset:
            raise PosetMismatchError(f"{path_a} and {path_b} live over different posets")
        verdict = "equal" if key(path_a) == key(path_b) else "distinguished"
        rep.record(
            f"{path_a} vs {path_b}: {verdict}",
            record="compare", kind=args.kind, a=path_a, b=path_b, verdict=verdict,
        )
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error into `main`, which prints it as one line and exits 1."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spreadhom",
        description="Invariants of persistence modules over finite posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                       help=f"field characteristic (default {DEFAULT_PRIME})")
        p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH, dest="max_depth",
                       help=f"resolution depth limit (default {DEFAULT_MAX_DEPTH})")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help=f"spread enumeration cap (default {DEFAULT_CAP})")
        p.add_argument("--jsonl", action="store_true",
                       help="emit line-delimited records instead of text")

    v = sub.add_parser("validate", help="parse and validate poset/module files")
    v.add_argument("poset")
    v.add_argument("modules", nargs="*")
    common(v)
    v.set_defaults(fn=cmd_validate)

    i = sub.add_parser("invariant", help="compute one invariant of one module")
    i.add_argument("kind", choices=INVARIANT_KINDS)
    i.add_argument("module")
    i.add_argument("--family", help="builtin family name or family file")
    i.add_argument("--collection", help="spread collection (same format as --family)")
    common(i)
    i.set_defaults(fn=cmd_invariant)

    c = sub.add_parser("compare", help="equal/distinguished verdict for module pairs")
    c.add_argument("kind", choices=COMPARE_KINDS)
    c.add_argument("module_a", nargs="?")
    c.add_argument("module_b", nargs="?")
    c.add_argument("--batch", help="directory of module files; compares all pairs")
    c.add_argument("--family", help="family for class/dimhom")
    c.add_argument("--collection", help="spread collection for genrank/diagram")
    common(c)
    c.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for option in ("max_depth", "cap"):
            if (value := getattr(args, option)) < 0:
                raise ValueError(f"{option} must be non-negative, got {value}")
        wanted = FAMILY_OPTION.get(getattr(args, "kind", None))
        for option in ("family", "collection"):
            spec = getattr(args, option, None)
            if spec is not None and option != wanted:
                raise ValueError(f"kind {args.kind!r} does not read --{option}")
            if not spec and option == wanted:
                raise FileFormatError(f"kind {args.kind!r} needs --{option}")
        return args.fn(args)
    except (ResolutionTruncatedError, CapExceededError) as e:
        print(f"undecided: {e}", file=sys.stderr)
        return 2
    except NotTypeAError as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return 3
    except (FileFormatError, SpreadHomError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
