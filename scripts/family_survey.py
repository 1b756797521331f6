#!/usr/bin/env python3
"""Survey resolution behaviour of random modules across posets and families.

For each (poset, family-kind) pair this draws random modules, resolves each
one, and tabulates: how many resolutions terminate, the distribution of
x-dimensions among the finite ones, and the deepest resolution seen.  The
interesting open end is which families resolve everything in bounded depth
on which posets; the table is the raw evidence.

    python3 scripts/family_survey.py --count 40 --posets grid2x2 grid2x3 fan3
    python3 scripts/family_survey.py --posets grid3x3 path:udud --families hooks
"""

import argparse
import collections
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spreadhom import (
    MissingProjectivesError,
    PrimeField,
    builtin_family,
    resolve,
)
from spreadhom.gallery import generator_posets, grid, path_poset
from spreadhom.randmod import random_module

KINDS = ("single_source", "hooks", "intervals", "connected_upsets")


def named_poset(name):
    if name.startswith("grid") and "x" in name:
        nx, ny = name[4:].split("x")
        return grid(int(nx), int(ny))
    if name.startswith("path:"):
        return path_poset(name[5:])
    table = dict(generator_posets(max_n=99))
    if name not in table:
        raise SystemExit(f"unknown poset {name!r}; known: {', '.join(sorted(table))}")
    return table[name]


def survey_one(p, kind, count, rng, max_depth, field):
    x = builtin_family(p, kind)
    finite = 0
    deepest = 0
    xdims = collections.Counter()
    for _ in range(count):
        m = random_module(p, field, rng)
        try:
            res = resolve(x, m, max_depth)
        except MissingProjectivesError as e:
            return None, str(e)
        deepest = max(deepest, res.depth)
        if res.status == "finite":
            finite += 1
            xdims[max(res.depth - 1, 0)] += 1
    return (len(x.members), finite, deepest, xdims), None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--posets", nargs="+", default=["grid2x2", "grid2x3", "fan3", "funnel"],
                    help="generator names, gridNxM, or path:PATTERN")
    ap.add_argument("--families", nargs="+", default=list(KINDS), choices=KINDS)
    ap.add_argument("--count", type=int, default=25, help="modules per cell")
    ap.add_argument("--max-depth", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--prime", type=int, default=32003)
    args = ap.parse_args(argv)

    field = PrimeField(args.prime)
    print(f"{args.count} random modules per cell, max depth {args.max_depth}, "
          f"prime {args.prime}, seed {args.seed}")
    header = f"{'poset':12s} {'family':17s} {'members':>7s} {'finite':>8s} {'deepest':>7s}  x-dim histogram"
    print(header)
    print("-" * len(header))
    for pname in args.posets:
        p = named_poset(pname)
        for kind in args.families:
            rng = random.Random(f"{args.seed}:{pname}:{kind}")
            cell, skip = survey_one(p, kind, args.count, rng, args.max_depth, field)
            if cell is None:
                print(f"{pname:12s} {kind:17s} {'—':>7s}  skipped: {skip}")
                continue
            members, finite, deepest, xdims = cell
            hist = " ".join(f"{d}:{xdims[d]}" for d in sorted(xdims)) or "—"
            print(f"{pname:12s} {kind:17s} {members:7d} {finite:5d}/{args.count:<2d} "
                  f"{deepest:7d}  {hist}")


if __name__ == "__main__":
    main()
