"""Finite posets, convex subsets and spreads.

Elements are dense integer ids 0..n-1 with optional string labels; subsets
are Python-int bitmasks.  A poset is built from an explicit irredundant
cover list and validated on construction (acyclic, no transitive edges).

Every closure of a subset S is one union of per-element masks (`union_over`):
the up-set ↑S, the down-set ↓S, the convex hull ↑S ∩ ↓S, the spread [A, B]
as ↑A ∩ ↓B, and min S as S minus the strict up-sets of its elements.
"""
from __future__ import annotations

import heapq
from operator import index
from typing import Iterable, Iterator

from .errors import (
    AntichainOrderError,
    CapExceededError,
    CycleError,
    DuplicateSpreadError,
    NotAntichainError,
    NotComparableError,
    NotConvexError,
    RedundantCoverError,
)

DEFAULT_CAP = 100_000  # most spreads one enumeration may produce

BUILTIN_FAMILIES = (
    "projectives",
    "hooks",
    "intervals",
    "single_source",
    "connected_spreads",
    "connected_upsets",
)


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def iter_mask(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def elements_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_mask(mask))


def union_over(table, mask: int) -> int:
    """The union of the masks table[a] over the elements a of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def kahn_order(succs) -> tuple[list[int], list[int]]:
    """Kahn's algorithm on the digraph i -> succs[i], least ready node first.

    Returns the order and the in-degrees left over; the nodes left with a
    positive in-degree are exactly those missing from the order.
    """
    indeg = [0] * len(succs)
    for out in succs:
        for j in out:
            indeg[j] += 1
    ready = [i for i, d in enumerate(indeg) if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    return order, indeg


class Poset:
    """Finite poset given by elements 0..n-1 and an irredundant cover list."""

    def __init__(self, n: int, covers: Iterable[tuple[int, int]], names: Iterable[str] | None = None):
        if n < 0:
            raise ValueError("n must be >= 0")
        self._n = n
        covers = tuple((index(a), index(b)) for a, b in covers)
        names = tuple(names) if names is not None else tuple(str(i) for i in range(n))
        if len(names) != n:
            raise ValueError(f"{len(names)} names for {n} elements")
        if len(set(names)) != n:
            raise ValueError("element labels must be distinct")
        for lbl in names:  # a module file's map key 'a->b' is split at its first '->' and each side stripped
            if not isinstance(lbl, str):
                raise ValueError(f"element label {lbl!r} is not a string")
            if "->" in lbl or lbl != lbl.strip():
                raise ValueError(f"no map key can name label {lbl!r}: "
                                 "it holds '->' or starts or ends with whitespace")
        self._names = names
        self._name_to_id = {lbl: i for i, lbl in enumerate(names)}

        seen = set()
        children = [[] for _ in range(n)]
        parents = [[] for _ in range(n)]
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"cover ({a},{b}) out of range")
            if a == b:
                raise CycleError(f"cover ({names[a]},{names[a]}) is a self-loop")
            if (a, b) in seen:
                raise RedundantCoverError(f"cover ({names[a]},{names[b]}) listed twice")
            seen.add((a, b))
            children[a].append(b)
            parents[b].append(a)
        self._covers = tuple(sorted(seen))
        self._children = tuple(tuple(sorted(c)) for c in children)
        self._parents = tuple(tuple(sorted(c)) for c in parents)

        self._topo = self._toposort()
        # reachability masks: up[a] = {x : a <= x}; the strict above[a] = {x : a < x}
        up = [0] * n
        for a in reversed(self._topo):
            m = 1 << a
            for c in self._children[a]:
                m |= up[c]
            up[a] = m
        down = [0] * n
        for a in self._topo:
            m = 1 << a
            for c in self._parents[a]:
                m |= down[c]
            down[a] = m
        self._up = tuple(up)
        self._down = tuple(down)
        self._above = tuple(m & ~(1 << a) for a, m in enumerate(up))
        self._below = tuple(m & ~(1 << a) for a, m in enumerate(down))

        for a, b in self._covers:
            for c in self._children[a]:
                if c != b and self.leq(c, b):
                    raise RedundantCoverError(
                        f"cover ({names[a]},{names[b]}) is transitive via {names[c]}"
                    )

        self._adj = tuple(
            mask_of(self._children[a]) | mask_of(self._parents[a]) for a in range(n)
        )
        self._mobius_memo: dict[tuple[int, int], int] = {}
        self._hash = hash((n, self._names, self._covers))

    def _toposort(self) -> tuple[int, ...]:
        order, indeg = kahn_order(self._children)
        if len(order) != self._n:
            stuck = [self._names[i] for i in range(self._n) if indeg[i] > 0]
            raise CycleError(f"cover relation has a cycle through {{{', '.join(stuck)}}}")
        return tuple(order)

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        return self._covers

    @property
    def topo_order(self) -> tuple[int, ...]:
        return self._topo

    @property
    def full_mask(self) -> int:
        return (1 << self._n) - 1

    def element(self, label: str) -> int:
        try:
            return self._name_to_id[label]
        except KeyError:
            raise KeyError(f"unknown element label {label!r}") from None

    def label(self, a: int) -> str:
        return self._names[a]

    def leq(self, a: int, b: int) -> bool:
        return bool(self._up[a] >> b & 1)

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    def up_mask(self, a: int) -> int:
        return self._up[a]

    def down_mask(self, a: int) -> int:
        return self._down[a]

    def up_set(self, mask: int) -> int:
        """↑S = {x : s <= x for some s in S}."""
        return union_over(self._up, mask)

    def down_set(self, mask: int) -> int:
        """↓S = {x : x <= s for some s in S}."""
        return union_over(self._down, mask)

    def children(self, a: int) -> tuple[int, ...]:
        return self._children[a]

    def parents(self, a: int) -> tuple[int, ...]:
        return self._parents[a]

    def interval_mask(self, a: int, b: int) -> int:
        return self._up[a] & self._down[b]

    def comparable_pairs(self) -> tuple[tuple[int, int], ...]:
        """All (a, b) with a <= b, sorted."""
        return tuple(
            (a, b) for a in range(self._n) for b in elements_of(self._up[a])
        )

    def subset_mask(self, ids) -> int:
        """Bitmask from a bitmask, or from element ids or labels (mixed is fine)."""
        m = ids if isinstance(ids, int) else mask_of(self.element(x) if isinstance(x, str) else index(x) for x in ids)
        if m & ~self.full_mask:  # a negative mask has every high bit set
            raise ValueError("subset contains out-of-range elements")
        return m

    def label_set(self, mask: int) -> tuple[str, ...]:
        return tuple(self._names[i] for i in iter_mask(mask))

    # -- subset predicates ----------------------------------------------------

    def is_antichain(self, mask: int) -> bool:
        return self.minimal_elements(mask) == mask

    def is_convex(self, mask: int) -> bool:
        return self.convex_closure(mask) == mask

    def convex_closure(self, mask: int) -> int:
        return self.up_set(mask) & self.down_set(mask)

    def is_connected(self, mask: int) -> bool:
        """Connected in the Hasse diagram restricted to the subset; empty is not."""
        if mask == 0:
            return False
        start = mask & -mask
        comp = self.component_of(start.bit_length() - 1, mask)
        return comp == mask

    def component_of(self, a: int, mask: int) -> int:
        """The component of a in the Hasse graph restricted to mask; a must lie in mask."""
        comp = frontier = 1 << a
        while frontier:
            frontier = union_over(self._adj, frontier) & mask & ~comp
            comp |= frontier
        return comp

    def connected_components(self, mask: int) -> tuple[int, ...]:
        comps = []
        rest = mask
        while rest:
            a = (rest & -rest).bit_length() - 1
            comp = self.component_of(a, rest)
            comps.append(comp)
            rest &= ~comp
        return tuple(comps)

    def minimal_elements(self, mask: int) -> int:
        return mask & ~union_over(self._above, mask)

    def maximal_elements(self, mask: int) -> int:
        return mask & ~union_over(self._below, mask)

    # -- order notions on antichains -----------------------------------------

    def antichain_leq(self, amask: int, bmask: int) -> bool:
        """A <= B: every a lies below some b and every b lies above some a."""
        return not (amask & ~self.down_set(bmask) or bmask & ~self.up_set(amask))

    # -- structure tests -------------------------------------------------------

    def is_path(self) -> bool:
        """True when the Hasse graph is a simple path (one element counts)."""
        return (len(self._covers) == self._n - 1 and self.is_connected(self.full_mask)
                and all(adj.bit_count() <= 2 for adj in self._adj))

    # -- moebius ---------------------------------------------------------------

    def mobius(self, x: int, y: int) -> int:
        """Moebius function of the poset; requires x <= y."""
        if not self.leq(x, y):
            raise NotComparableError(f"{self._names[x]} <= {self._names[y]} fails")
        memo = self._mobius_memo
        key = (x, y)
        if key in memo:
            return memo[key]
        # fill mu(x, z) for all z in [x, y] in topological order
        interval = self.interval_mask(x, y)
        for z in self._topo:
            if not (interval >> z & 1) or (x, z) in memo:
                continue
            if z == x:
                memo[(x, z)] = 1
                continue
            s = 0
            for w in iter_mask(self.interval_mask(x, z) & ~(1 << z)):
                s += memo[(x, w)]
            memo[(x, z)] = -s
        return memo[key]

    # -- misc ---------------------------------------------------------------

    def subposet(self, mask: int) -> "SubPoset":
        return SubPoset(self, mask)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and other._n == self._n
            and other._names == self._names
            and other._covers == self._covers
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Poset(n={self._n}, covers={len(self._covers)})"


class SubPoset:
    """An induced subposet, with its own Poset and the element translation."""

    def __init__(self, parent: Poset, mask: int):
        if mask & ~parent.full_mask:
            raise ValueError("subset contains out-of-range elements")
        self.parent = parent
        self.mask = mask
        self.elements = elements_of(mask)  # sub id -> parent id
        sub_id = {e: i for i, e in enumerate(self.elements)}
        covers = [(i, sub_id[b]) for i, a in enumerate(self.elements)
                  for b in iter_mask(parent.minimal_elements(parent._above[a] & mask))]
        names = tuple(parent.label(e) for e in self.elements)
        self.poset = Poset(len(self.elements), covers, names)

    def to_parent(self, i: int) -> int:
        return self.elements[i]


class Spread:
    """A convex subset recorded as [sources, targets] antichains (bitmasks); immutable.

    Built directly, the support must be convex, with the sources as its
    minimal elements and the targets as its maximal ones: `is_connected`
    and the Hom routes read them so.  Every builder in this module gives that.
    """

    __slots__ = ("poset", "support", "sources", "targets")

    def __init__(self, poset: Poset, support: int, sources: int, targets: int):
        for name, value in zip(self.__slots__, (poset, support, sources, targets)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _key(self):
        return self.poset, self.support, self.sources, self.targets

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # copy and pickle rebuild through __init__, since fields cannot be assigned
        return self.__class__, self._key()

    def __len__(self):
        return bin(self.support).count("1")

    def is_connected(self) -> bool:
        """Connected support.  One source lies below, or one target above, every element: no search."""
        if self.sources.bit_count() == 1 or self.targets.bit_count() == 1:
            return True
        return self.poset.is_connected(self.support)

    def render(self) -> str:
        def side(mask: int) -> str:
            labels = [self.poset.label(i) for i in iter_mask(mask)]
            return labels[0] if len(labels) == 1 else "{" + ",".join(labels) + "}"

        return f"[{side(self.sources)},{side(self.targets)}]"

    def __repr__(self):
        return f"Spread{self.render()}"


def spread_from_antichains(p: Poset, sources, targets) -> Spread:
    """Build the spread [A, B] from antichains with A <= B."""
    amask, bmask = p.subset_mask(sources), p.subset_mask(targets)
    if amask == 0 or bmask == 0:
        raise NotAntichainError("source/target antichains must be nonempty")
    if not p.is_antichain(amask):
        raise NotAntichainError(f"sources {p.label_set(amask)} are not an antichain")
    if not p.is_antichain(bmask):
        raise NotAntichainError(f"targets {p.label_set(bmask)} are not an antichain")
    if not p.antichain_leq(amask, bmask):
        raise AntichainOrderError(
            f"antichain order fails: {p.label_set(amask)} <= {p.label_set(bmask)}"
        )
    return Spread(p, p.up_set(amask) & p.down_set(bmask), amask, bmask)


def spread_from_convex(p: Poset, subset) -> Spread:
    """Canonical spread presentation [min S, max S] of a convex subset S."""
    mask = p.subset_mask(subset)
    if mask == 0:
        raise NotConvexError("the empty subset is not a spread")
    if not p.is_convex(mask):
        missing = p.label_set(p.convex_closure(mask) & ~mask)
        raise NotConvexError(f"subset is not convex (closure adds {{{', '.join(missing)}}})")
    return Spread(p, mask, p.minimal_elements(mask), p.maximal_elements(mask))


def _antichain_masks(p: Poset, ground: int) -> Iterator[int]:
    """All nonempty antichain masks inside `ground` (elements in id order)."""
    elems = elements_of(ground)
    # depth-first over (next element, antichain so far), without e before with e
    stack = [(0, 0)]
    while stack:
        i, cur = stack.pop()
        if i == len(elems):
            if cur:
                yield cur
            continue
        e = elems[i]
        if not (cur & (p.up_mask(e) | p.down_mask(e))):
            stack.append((i + 1, cur | (1 << e)))
        stack.append((i + 1, cur))


def enumerate_spreads(p: Poset, kind: str, cap: int = DEFAULT_CAP) -> list[Spread]:
    """Enumerate the spreads of one of the BUILTIN_FAMILIES, sorted by support bitmask.

    projectives (the principal up-sets), hooks (including the one-endpoint
    hooks = principal up-sets), intervals, single_source, connected_spreads
    (all connected convex subsets), connected_upsets.
    """
    if kind not in BUILTIN_FAMILIES:
        raise ValueError(f"unknown spread kind {kind!r}; expected one of {BUILTIN_FAMILIES}")
    cap = index(cap)
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    supports: set[int] = set()

    def add(mask: int):
        supports.add(mask)
        if len(supports) > cap:
            raise CapExceededError(f"more than cap={cap} spreads of kind {kind!r}")

    if kind == "projectives":
        for a in range(p.n):
            add(p.up_mask(a))
    elif kind == "intervals":
        for a in range(p.n):
            for b in elements_of(p.up_mask(a)):
                add(p.interval_mask(a, b))
    elif kind == "hooks":
        for a in range(p.n):
            add(p.up_mask(a))
            for b in elements_of(p.up_mask(a) & ~(1 << a)):
                add(p.up_mask(a) & ~p.up_mask(b))
    elif kind == "single_source":
        for a in range(p.n):
            for bmask in _antichain_masks(p, p.up_mask(a)):
                add(p.up_mask(a) & p.down_set(bmask))
    elif kind == "connected_upsets":
        for amask in _antichain_masks(p, p.full_mask):
            support = p.up_set(amask)
            if p.is_connected(support):
                add(support)
    else:  # connected_spreads: grow connected convex sets one Hasse neighbour at a time
        frontier = [1 << a for a in range(p.n)]
        for m in frontier:
            add(m)
        while frontier:
            nxt = []
            for s in frontier:
                for y in iter_mask(union_over(p._adj, s) & ~s):
                    grown = p.convex_closure(s | (1 << y))
                    if grown not in supports:
                        add(grown)
                        nxt.append(grown)
            frontier = nxt

    return [Spread(p, m, p.minimal_elements(m), p.maximal_elements(m)) for m in sorted(supports)]


def containment_poset(spreads: list[Spread]) -> Poset:
    """The poset of a spread collection ordered by support containment."""
    if not spreads:
        return Poset(0, [])
    seen = set()
    for s in spreads:
        if s.support in seen:
            raise DuplicateSpreadError(f"spread {s.render()} appears twice")
        seen.add(s.support)
    n = len(spreads)
    leq = [[spreads[i].support | spreads[j].support == spreads[j].support for j in range(n)] for i in range(n)]
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n)):
                continue
            covers.append((i, j))
    names = tuple(s.render() for s in spreads)
    if len(set(names)) != n:  # renders can collide across posets; fall back to indices
        names = tuple(str(i) for i in range(n))
    return Poset(n, covers, names)
