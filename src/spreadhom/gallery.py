"""Named posets and ready-made modules used across tests and scripts."""
from __future__ import annotations

from .approx import Family
from .field import PrimeField
from .modules import PersistenceModule, direct_sum, spread_module
from .poset import Poset, spread_from_antichains


def chain(n: int) -> Poset:
    return Poset(n, [(i, i + 1) for i in range(n - 1)], [str(i + 1) for i in range(n)])


def grid(nx: int, ny: int, base: int = 0) -> Poset:
    """The product of two chains; element (i, j) is labeled f"{i+base}{j+base}".

    Once a coordinate can reach two digits the label puts a "-" between
    them, since (1, 11) and (11, 1) would both read "111".
    """
    def ident(i, j):
        return i * ny + j

    sep = "-" if max(nx, ny) - 1 + base >= 10 else ""
    names = [f"{i + base}{sep}{j + base}" for i in range(nx) for j in range(ny)]
    covers = []
    for i in range(nx):
        for j in range(ny):
            if i + 1 < nx:
                covers.append((ident(i, j), ident(i + 1, j)))
            if j + 1 < ny:
                covers.append((ident(i, j), ident(i, j + 1)))
    return Poset(nx * ny, covers, names)


def fan(k: int) -> Poset:
    """One bottom element under k incomparable tops."""
    return Poset(k + 1, [(0, i) for i in range(1, k + 1)],
                 [str(i) for i in range(k + 1)])


def crown(k: int) -> Poset:
    """k bottoms, k tops, every bottom under every top (the Hasse graph is K_{k,k})."""
    covers = [(b, k + t) for b in range(k) for t in range(k)]
    return Poset(2 * k, covers, [str(i + 1) for i in range(2 * k)])


def path_poset(pattern: str) -> Poset:
    """A path-shaped Hasse graph; pattern 'u'/'d' gives each edge's direction."""
    n = len(pattern) + 1
    covers = []
    for i, c in enumerate(pattern):
        if c == "u":
            covers.append((i, i + 1))
        elif c == "d":
            covers.append((i + 1, i))
        else:
            raise ValueError(f"pattern character {c!r}; expected 'u' or 'd'")
    return Poset(n, covers, [str(i + 1) for i in range(n)])


def funnel() -> Poset:
    """Five elements, two branches merging below a chain; every principal
    up-set is totally ordered even though the poset is not a chain."""
    names = ["1", "2", "3", "4", "5"]
    covers = [(0, 1), (1, 3), (2, 3), (3, 4)]
    return Poset(5, covers, names)


def atilde5() -> Poset:
    """Three minimal and three maximal elements whose Hasse graph is a 6-cycle."""
    names = ["1", "2", "3", "4", "5", "6"]
    covers = [(0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (2, 5)]
    return Poset(6, covers, names)


def atilde5_family():
    """The 9-member family: all projectives plus the three doubled spreads."""
    p = atilde5()
    members = [
        spread_from_antichains(p, ["1"], ["4", "6"]),
        spread_from_antichains(p, ["2"], ["4", "5"]),
        spread_from_antichains(p, ["3"], ["5", "6"]),
        spread_from_antichains(p, ["4"], ["4"]),
        spread_from_antichains(p, ["5"], ["5"]),
        spread_from_antichains(p, ["6"], ["6"]),
        spread_from_antichains(p, ["1", "2"], ["4", "6"]),
        spread_from_antichains(p, ["2", "3"], ["4", "5"]),
        spread_from_antichains(p, ["1", "3"], ["5", "6"]),
    ]
    return p, Family(p, members)


def grid53_hom_pair():
    """The 5x3-grid pair of spreads with a one-dimensional Hom space."""
    p = grid(5, 3, base=1)
    s = spread_from_antichains(p, ["13", "41"], ["43"])
    t = spread_from_antichains(p, ["11"], ["23", "51"])
    return p, s, t


def equal_rank_pair(field: PrimeField):
    """Two modules on the 2x2 grid with equal rank invariants: the first is a
    sum of two intervals, the second is the twisted variant.

    Both have dims (2, 1, 1, 0) at 00, 01, 10, 11.  In M the maps out of 00
    send e1 to 01 and e2 to 10, so M = M_[00,01] + M_[00,10].  In M' both
    maps send e1 to the generator, so M' = M_{00,01,10} + S_00.
    """
    p = grid(2, 2)
    e = {lbl: p.element(lbl) for lbl in p.names}

    def mod(right_map):
        dims = [0] * 4
        dims[e["00"]] = 2
        dims[e["01"]] = 1
        dims[e["10"]] = 1
        maps = {
            (e["00"], e["01"]): [[1, 0]],
            (e["00"], e["10"]): right_map,
        }
        return PersistenceModule(p, field, dims, maps)

    return p, mod([[0, 1]]), mod([[1, 0]])


def grid23_diagram_modules(field: PrimeField):
    """The 2x3-grid batch: M, the spread module X, and the sums N = M ⊕ X and
    L whose signed diagrams collide while Hom(X, -) separates them."""
    p = grid(2, 3, base=1)
    e = {lbl: p.element(lbl) for lbl in p.names}
    dims = [0] * 6
    dims[e["11"]] = 1
    dims[e["12"]] = 2
    dims[e["13"]] = 1
    dims[e["21"]] = 1
    dims[e["22"]] = 1
    maps = {
        (e["11"], e["12"]): [[1], [1]],
        (e["12"], e["13"]): [[0, 1]],
        (e["11"], e["21"]): [[1]],
        (e["12"], e["22"]): [[1, 0]],
        (e["21"], e["22"]): [[1]],
    }
    m = PersistenceModule(p, field, dims, maps)

    s1 = spread_from_antichains(p, ["11"], ["21", "13"])
    s2 = spread_from_antichains(p, ["11"], ["22"])
    s3 = spread_from_antichains(p, ["12"], ["12"])
    s4 = spread_from_antichains(p, ["11"], ["12", "21"])
    x = spread_module(s4, field)
    n = direct_sum([m, x])
    l = direct_sum([spread_module(s1, field), spread_module(s2, field), spread_module(s3, field)])
    return {
        "poset": p,
        "m": m,
        "x": x,
        "n": n,
        "l": l,
        "spreads": (s1, s2, s3, s4),
    }


def generator_posets(max_n: int = 6) -> list[tuple[str, Poset]]:
    """The fixed small-poset generator: chains, grids, fans, crowns, paths,
    the 6-cycle Hasse poset, and the funnel."""
    candidates = [
        ("chain1", chain(1)),
        ("chain2", chain(2)),
        ("chain3", chain(3)),
        ("chain4", chain(4)),
        ("chain6", chain(6)),
        ("grid2x2", grid(2, 2)),
        ("grid2x3", grid(2, 3, base=1)),
        ("fan3", fan(3)),
        ("fan5", fan(5)),
        ("crown2", crown(2)),
        ("atilde5", atilde5()),
        ("funnel", funnel()),
        ("zigzag_ud", path_poset("ud")),
        ("zigzag_udud", path_poset("udud")),
    ]
    return [(name, p) for name, p in candidates if p.n <= max_n]
