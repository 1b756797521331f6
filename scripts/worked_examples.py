#!/usr/bin/env python3
"""Walk through the showcase computations on the built-in galleries.

Prints, in order: the 5x3-grid hom-space pair, the equal-rank 2x2 pair that
classes and resolutions separate, the doubled-source cycle family with its
truncated resolution, the 2x3-grid signed diagram and its collision pair, and
a zigzag barcode.  Everything here is recomputed live; nothing is hardcoded
except the prime.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spreadhom import (
    HomMatrixSingularError,
    PrimeField,
    barcode,
    builtin_family,
    check_family,
    class_via_hom_matrix,
    compare,
    direct_sum,
    hom_dim,
    rank_invariant,
    resolve,
    signed_diagram,
    spread_from_antichains,
    spread_from_convex,
    spread_hom_dim,
    spread_module,
    x_dimension,
)
from spreadhom.gallery import (
    atilde5_family,
    grid53_hom_pair,
    grid23_diagram_modules,
    path_poset,
    equal_rank_pair,
)

FIELD = PrimeField()


def heading(text):
    print()
    print(text)
    print("-" * len(text))


def show_terms(family, res):
    labels = family.labels()
    for d, term in enumerate(res.terms):
        parts = [f"{c}*{lbl}" if c > 1 else lbl for lbl, c in zip(labels, term) if c]
        print(f"  term {d}: " + (" + ".join(parts) if parts else "0"))


def main():
    heading("Hom space between two spreads on the 5x3 grid")
    _, s, t = grid53_hom_pair()
    print(f"  S = {s.render()}")
    print(f"  T = {t.render()}")
    print(f"  counted components: dim Hom = {spread_hom_dim(s, t)}")
    ms, mt = spread_module(s, FIELD), spread_module(t, FIELD)
    print(f"  naturality solver:  dim Hom = {hom_dim(ms, mt)}")

    heading("Equal ranks, different classes (2x2 grid)")
    p, m, mprime = equal_rank_pair(FIELD)
    print(f"  dim vectors: M {m.dims}  M' {mprime.dims}")
    same = rank_invariant(m) == rank_invariant(mprime)
    print(f"  rank invariants equal: {same}")
    x = builtin_family(p, "intervals")
    for name, mod in (("M ", m), ("M'", mprime)):
        print(f"  [{name}] = {class_via_hom_matrix(x, mod).render()}")
    res = resolve(x, mprime)
    xdim = x_dimension(x, mprime)
    print(f"  minimal interval resolution of M' ({res.status}, x-dimension {xdim}):")
    show_terms(x, res)
    spreads = builtin_family(p, "connected_spreads")
    families = {"genrank": spreads, "diagram": spreads, "dimhom": x, "class": x}
    for kind in ("dimvec", "rank", "genrank", "diagram", "dimhom", "class"):
        verdict = compare(kind, m, mprime, family=families.get(kind))
        print(f"  compare {kind:8s}: {verdict}")

    heading("A family whose Hom digraph has a cycle")
    p6, fam = atilde5_family()
    diag = check_family(fam)
    cycle = " -> ".join(fam.members[i].render() for i in diag.hom_cycle)
    print(f"  members: {len(fam.members)}, hom-acyclic: {diag.hom_acyclic}")
    print(f"  cycle: {cycle} -> ...")
    m16 = spread_module(spread_from_antichains(p6, ["1"], ["6"]), FIELD)
    try:
        class_via_hom_matrix(fam, m16)
    except HomMatrixSingularError as e:
        print(f"  class solve refuses: {e}")
    res = resolve(fam, m16, max_depth=6)
    print(f"  resolution of M[1,6]: {res.status} at depth {res.depth}, "
          f"kernel signatures repeat at {res.periodicity}")
    show_terms(fam, res)

    heading("Signed diagram over all connected spreads (2x3 grid)")
    g = grid23_diagram_modules(FIELD)
    spreads = builtin_family(g["poset"], "connected_spreads")
    d = signed_diagram(g["m"], spreads)
    print(f"  delta(M) = {d.render()}")
    dn, dl = signed_diagram(g["n"], spreads), signed_diagram(g["l"], spreads)
    print(f"  delta(N) == delta(L): {dn.coeffs == dl.coeffs}  "
          "(same diagram, non-isomorphic modules)")
    print(f"  witness X separates them: dim Hom(X, N) = {hom_dim(g['x'], g['n'])}, "
          f"dim Hom(X, L) = {hom_dim(g['x'], g['l'])}")

    heading("Barcode of a zigzag module")
    pz = path_poset("udud")
    segments = [["1", "2", "3"], ["1", "2", "3"], ["2", "3", "4"], ["4"]]
    mz = direct_sum([
        spread_module(spread_from_convex(pz, seg), FIELD) for seg in segments
    ])
    bc = barcode(mz)
    print(f"  module dims {mz.dims} over path u-d-u-d")
    print(f"  barcode: {bc.render()}")


if __name__ == "__main__":
    main()
