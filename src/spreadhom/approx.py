"""Right approximations and resolutions by a fixed family of spread modules.

A Family is a finite set of connected spreads (their modules are bricks and
pairwise non-isomorphic, which the minimality formula below relies on).
Multiplicities of the minimal approximation of M are computed as
dim Hom(R, M) minus the dimension of the span of all composites through the
other members; representatives of a complement realize the approximation.
They are kept as coordinates, the picked columns of each Hom(R, M), which
fix the morphism ⊕ R -> M: no approximation builds a module or a morphism.

The member Hom digraph is computed row by row, on first use, and kept
sparse: row i holds the members j with Hom(R_i, R_j) != 0.  Two exact tests
keep the work small.  Hom(R_i, R_j) is 0 unless a source of R_i lies in R_j
and a target of R_j lies in R_i, because every component that carries a
morphism holds one of each (`spread_hom_components`); a row finds the j
that pass, all at once, from two member bitsets per element, and decides
each of them from masks.  Hom(R, M) is 0
unless M is nonzero at a source of R, because it embeds in ⊕ M_a over those
sources; a minimal approximation does Hom work only for the members that
pass.

The span of the composites is the radical of Hom(R, M), and the radical of
End(⊕X) for a finite family X of bricks is generated by irreducible maps
(Auslander-Reiten-Smalø, Representation Theory of Artin Algebras, ch. V).
So each member keeps, derived once from its row, only the radical
generators that do not visibly factor through a third member
(`Family.radical_generators`): the indicator of a component that is itself
a member's support, R_K, is the composite R_i ->> R_K >-> R_j.  The span,
and every pivot read off it, is the same as over all basis maps.

The span lies in Hom(R, M), so it is reduced one column at a time (`Span`),
each block evaluated only when reached.  Once the span is as wide as
Hom(R, M) it is all of it: the multiplicity is 0, and the blocks left are
never evaluated.  Otherwise the representatives are the basis columns that
leave the span, the pivots an rref of [radical | basis] would give.  This
pick reads Hom(X, M) through its composites only (`_approximate`), so it
runs in any coordinates: `minimal_approximation` is the first stage of
`resolve`, in the source coordinates of the Yoneda bases.

X holds the projectives, so Hom(X, -) takes the minimal X-resolution of M
to the minimal projective resolution of the End(X)-module Hom(X, M)
(Auslander-Solberg, Relative homology and representation theory I, 1993).
`resolve` therefore solves Hom(X, M) by Yoneda once and builds no kernel:
a kernel K inside P = ⊕ R_j is kept as the kernels Hom(R_l, K) of
Hom(R_l, P) -> Hom(R_l, T), T the module P maps onto, each in the
indicator coordinates of Hom(R_l, P), and dim K_a = dim P_a - dim T_a.
Hom(P_a, K) = K_a at each principal up-set P_a checks that P -> T is onto.
"""
from __future__ import annotations

from itertools import combinations
from operator import index
from typing import NamedTuple

from .errors import (
    DuplicateSpreadError,
    MissingProjectivesError,
    NotConnectedError,
    PosetMismatchError,
    SpreadHomError,
)
from .field import Matrix, PrimeField, Span
from .hom import spread_hom_components, yoneda_basis, yoneda_values
from .modules import PersistenceModule, spread_module
from .poset import BUILTIN_FAMILIES, DEFAULT_CAP, Poset, enumerate_spreads, iter_mask, kahn_order, union_over

DEFAULT_MAX_DEPTH = 32  # most terms one resolution computes before it is truncated


class Family:
    """An ordered set of pairwise-distinct connected spreads over one poset, checked here once.

    The duplicate check leaves one map from each support to its member
    index, which coverage and `radical_generators` read.  Its loop also
    keeps, for each element a, two member bitsets: `_holding[a]`, the
    members whose support holds a, and `_ending[a]`, the members with a
    target at a.  The Hom digraph is derived from the members, and each
    `hom_row` decides only the pairs that these bitsets leave.
    """

    def __init__(self, poset: Poset, members):
        self.poset = poset
        members = tuple(members)
        index: dict[int, int] = {}  # support -> member index
        holding = [0] * poset.n  # a -> the members whose support holds a, as a bitset
        ending = [0] * poset.n   # a -> the members with a target at a, as a bitset
        for i, s in enumerate(members):
            if s.poset != poset:
                raise PosetMismatchError(f"member {s.render()} lives over a different poset")
            if not s.is_connected():
                raise NotConnectedError(f"member {s.render()} has disconnected support")
            if index.setdefault(s.support, i) != i:
                raise DuplicateSpreadError(f"spread {s.render()} appears twice")
            bit = 1 << i
            for a in iter_mask(s.support):
                holding[a] |= bit
            for a in iter_mask(s.targets):
                ending[a] |= bit
        self.members = members
        self._index = index
        self._holding, self._ending = holding, ending
        self._rows: dict[int, dict[int, tuple[int, ...]]] = {}  # i -> `hom_row(i)`
        self._radical: dict[int, tuple[tuple[int, int], ...]] = {}  # i -> `radical_generators(i)`
        self._diagnostics: FamilyDiagnostics | None = None

    def __len__(self):
        return len(self.members)

    def labels(self) -> tuple[str, ...]:
        return tuple(s.render() for s in self.members)

    def missing_projectives(self) -> tuple[str, ...]:
        return tuple(
            self.poset.label(a)
            for a in range(self.poset.n)
            if self.poset.up_mask(a) not in self._index
        )

    def member_modules(self, field: PrimeField) -> list[PersistenceModule]:
        return [spread_module(s, field) for s in self.members]

    def hom_row(self, i: int) -> dict[int, tuple[int, ...]]:
        """{j: `pair_hom(i, j)`} for each j with Hom(member_i, member_j) != 0, by j.

        Row i of the sparse member Hom digraph, combinatorial and field-free;
        computed on first read.  Hom(member_i, member_j) is 0 unless member_j
        holds a source of member_i and has a target in it, so the union of
        `_holding` over the sources of member_i, cut by the union of
        `_ending` over its support, is every j worth deciding, and
        `spread_hom_components` decides each from masks.
        """
        row = self._rows.get(i)
        if row is None:
            members, s = self.members, self.members[i]
            candidates = union_over(self._holding, s.sources) & union_over(self._ending, s.support)
            row = self._rows[i] = {
                j: comps for j in iter_mask(candidates) if (comps := spread_hom_components(s, members[j]))
            }
        return row

    def hom_rows(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        """Every `hom_row`, in member order: the whole member Hom digraph."""
        return tuple(map(self.hom_row, range(len(self.members))))

    def radical_generators(self, i: int) -> tuple[tuple[int, int], ...]:
        """Pairs (j, sources of member i in X) whose composites span rad(R_i, -).

        One pair per basis map R_i -> R_j (j != i), the indicator of a
        component X; g∘h_X depends only on the pair.  The components are
        disjoint and each holds a source of member i, so no two basis maps
        share a pair.  An X that is the support of a third member is left out
        (see the module docstring).  Field-free; derived from `hom_row(i)` on
        first use.
        """
        gens = self._radical.get(i)
        if gens is None:
            sources, index = self.members[i].sources, self._index
            gens = self._radical[i] = tuple(
                (j, sources & comp)
                for j, comps in self.hom_row(i).items() if j != i
                for comp in comps
                if index.get(comp, i) in (i, j)  # no third member's support
            )
        return gens

    def pair_hom(self, i: int, j: int) -> tuple[int, ...]:
        """Supports of the indicator basis of Hom(member_i, member_j), field-free."""
        return self.hom_row(i).get(j, ())

    def hom_matrix(self) -> tuple[tuple[int, ...], ...]:
        """H[i][j] = dim Hom(member_i, member_j): a dense view of `hom_rows`."""
        n = len(self.members)
        return tuple(tuple(len(row.get(j, ())) for j in range(n)) for row in self.hom_rows())


def builtin_family(poset: Poset, name: str, cap: int = DEFAULT_CAP) -> Family:
    """One of the named families; see BUILTIN_FAMILIES."""
    return Family(poset, enumerate_spreads(poset, name, cap))


class FamilyDiagnostics(NamedTuple):
    """The member Hom digraph of a family: a topological order, or one directed cycle."""

    topo_order: tuple[int, ...] | None  # members ordered so Hom(i,j) != 0 => i first
    hom_cycle: tuple[int, ...] | None   # member indices of one directed cycle

    @property
    def hom_acyclic(self) -> bool:
        return self.topo_order is not None


def _hom_digraph_topo(rows) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """Topological order of i -> j whenever row i holds j (i != j), or a cycle."""
    n = len(rows)
    succs = [[j for j in row if j != i] for i, row in enumerate(rows)]
    order, indeg = kahn_order(succs)
    if len(order) == n:
        return tuple(order), None
    # Every node Kahn leaves behind keeps a predecessor that was left behind
    # too, so walking predecessors must close a cycle.
    start = next(i for i in range(n) if indeg[i] > 0)
    walk = [start]
    seen = {start: 0}
    while True:
        cur = walk[-1]
        prev = next(i for i in range(n) if i != cur and indeg[i] > 0 and cur in rows[i])
        if prev in seen:
            cycle = walk[seen[prev]:][::-1]
            k = cycle.index(min(cycle))  # start at the least index
            return None, tuple(cycle[k:] + cycle[:k])
        seen[prev] = len(walk)
        walk.append(prev)


def check_family(x: Family) -> FamilyDiagnostics:
    """The member Hom digraph: a topological order, or one directed cycle.

    Computed once per family, which is immutable after construction.
    """
    if x._diagnostics is None:
        x._diagnostics = FamilyDiagnostics(*_hom_digraph_topo(x.hom_rows()))
    return x._diagnostics


def _projectives(x: Family) -> list[int]:
    """The member index of the principal up-set P_a, for each element a; refuses a family that lacks one."""
    if missing := x.missing_projectives():
        raise MissingProjectivesError(f"family lacks the principal up-sets at {{{', '.join(missing)}}}")
    return [x._index[x.poset.up_mask(a)] for a in range(x.poset.n)]


def _require_same_poset(x: Family, m: PersistenceModule):
    if m.poset is not x.poset and m.poset != x.poset:  # identity first: the common case
        raise PosetMismatchError("the module and the family live over different posets")


def _member_homs(x: Family, m: PersistenceModule) -> dict[int, Matrix]:
    """{j: the `yoneda_basis` of Hom(member_j, m)}, for each j where it is nonzero."""
    _require_same_poset(x, m)
    # Hom(R_j, m) embeds in ⊕ m_a over the sources of R_j, so it is 0 unless one lies in supp m
    supp = m.support_mask()
    homs = {j: yoneda_basis(s, m) for j, s in enumerate(x.members) if s.sources & supp}
    return {j: w for j, w in homs.items() if w.shape[1]}


def minimal_approximation(x: Family, m: PersistenceModule):
    """Multiplicity vector and picked maps of the minimal right approximation of m.

    Returns (multiplicities, {i: the picked columns of the `yoneda_basis` of
    Hom(R_i, m)}): one summand R_i per column, mapped to m by it.
    Multiplicity at member R is dim Hom(R,m) minus the rank of the span of
    composites R -> R' -> m over the other members R' (`_approximate`), in
    the source coordinates ⊕_{a in sources(R)} m_a of Hom(R, m).  The picks
    are checked onto m by the kernel widths at the principal up-sets
    (`_kernel_homs`), as in every stage of `resolve`.
    """
    projectives = _projectives(x)
    homs = _member_homs(x, m)
    target = _source_coordinates(x, m, homs)
    picked = _approximate(x, m.field, target)
    _kernel_homs(x, m.field, target, picked, m.dims, projectives)
    return _multiplicities(x, picked), {i: homs[i].columns(cols) for i, cols in picked.items()}


def _multiplicities(x: Family, picked) -> tuple[int, ...]:
    out = [0] * len(x)
    for i, cols in picked.items():
        out[i] = len(cols)
    return tuple(out)


def _approximate(x: Family, field: PrimeField, target) -> dict[int, list[int]]:
    """{i: the basis columns of Hom(R_i, T) that the minimal approximation of T picks}, where any are picked.

    target is (basis, composites) for a module T, in any coordinates: basis[j]
    lists the columns of a basis of each nonzero Hom(R_j, T), and
    composites(i, j, mask) lists g∘h for each column g of basis[j], where h
    is the indicator R_i -> R_j whose sources of R_i are mask.  The span of
    those composites over the `Family.radical_generators` of R_i is reduced
    column by column, each block evaluated only when reached, and only until
    it fills Hom(R_i, T): the multiplicity is then 0.  Otherwise the picks
    are the basis columns that still leave it, each joining it in turn.
    """
    basis, composites = target
    picked = {}
    for i, columns in basis.items():
        span = Span(field)
        for v in (v for j, mask in x.radical_generators(i) if j in basis for v in composites(i, j, mask)):
            if span.add(v) and len(span) == len(columns):
                break  # the radical is all of Hom(R_i, T): multiplicity 0
        else:
            if cols := [c for c, v in enumerate(columns) if span.add(v)]:
                picked[i] = cols
    return picked


def _source_coordinates(x: Family, m: PersistenceModule, homs):
    """Hom(X, m) in source coordinates, as `_approximate` reads a target.

    For the indicator h of a component X and g in Hom(R_j, m), g∘h has the
    value of g at each source a of R_i in X and 0 at the other sources.
    """
    members, dims = x.members, m.dims
    values = {}  # (j, a) -> the basis of Hom(R_j, m) evaluated at a

    def composites(i, j, mask):
        rows = []
        for a in iter_mask(members[i].sources):
            if mask >> a & 1:
                if (j, a) not in values:
                    values[(j, a)] = yoneda_values(members[j], m, homs[j], a).rows
                rows += values[(j, a)]
            else:
                rows += [[0] * homs[j].shape[1]] * dims[a]
        return list(zip(*rows))

    return {j: list(zip(*w.rows)) for j, w in homs.items()}, composites


def _indicator_coordinates(x: Family, js, layouts, basis):
    """Hom(X, K) for K ⊆ P = ⊕_s R_{js[s]}, in indicator coordinates, as `_approximate` reads a target.

    Coordinate (s, W) of basis[l], listed in layouts[l], is the indicator
    R_l -> R_{js[s]} of a component W in `pair_hom(l, js[s])`.  A morphism
    out of a spread module is fixed by its values at the sources, so the
    coefficient of (s, W) in g∘h, for h the indicator R_l -> R_j whose
    sources of R_l are mask, is [a ∈ mask] · g[s, Y ∋ a] at any source a of
    R_l in W.  Each call reads the least one, and the position of (s, Y) in
    layouts[j], afresh: both lists are a few entries long.
    """
    members = x.members

    def composites(l, j, mask):
        sources, layout = members[l].sources, layouts[j]
        gather = []
        for s, w in layouts[l]:
            a = sources & w
            a &= -a & mask  # the least source of R_l in W, or 0 when mask leaves it out
            n = -1
            for k, (t, y) in enumerate(layout):
                if t == s and y & a:
                    n = k
                    break
            gather.append(n)
        return [[g[n] if n >= 0 else 0 for n in gather] for g in basis[j]]

    return basis, composites


def _kernel_homs(x: Family, field: PrimeField, target, picked, dims, projectives):
    """Hom(X, K) and dims(K) for the kernel K of the approximation P -> T that `picked` gives; dims = dims(T).

    P = ⊕_t R_{j_t}, one summand per pick (j_t, c_t), maps by g_t, column c_t
    of the basis of Hom(R_{j_t}, T).  P is onto T, so dim K_a is dim P_a, the
    number of summands whose support holds a, minus dim T_a.  Hom(R_l, K) is
    the kernel of Hom(R_l, P) -> Hom(R_l, T): its column (t, Z) is g_t∘h_Z,
    column c_t of the composites through the indicator h_Z, evaluated anew
    for each column (the same composites rarely recur in one R_l), and it
    is all of Hom(R_l, P) when Hom(R_l, T) = 0.  It is solved only where a
    source of R_l lies in supp K, else it is 0, and at the principal up-set
    P_a = projectives[a] of each a: Hom(P_a, K) = K_a, so a width other
    than dim K_a means that P -> T is not onto at a.
    """
    basis, composites = target
    members = x.members
    summands = [(j, c) for j, cols in picked.items() for c in cols]
    js = [j for j, _ in summands]
    kernel_dims = [-d for d in dims]
    for j in js:
        for a in iter_mask(members[j].support):
            kernel_dims[a] += 1
    supp = sum(1 << a for a, d in enumerate(kernel_dims) if d)
    checked = set(projectives)
    kernel, layouts = {}, {}
    for l, s in enumerate(members):
        if not (s.sources & supp or l in checked):
            continue
        row = x.hom_row(l)
        layout = [(t, z) for t, j in enumerate(js) for z in row.get(j, ())]
        if not layout:
            continue
        if l in basis:
            cols = [composites(l, js[t], z & s.sources)[summands[t][1]] for t, z in layout]
            columns = list(zip(*field.kernel_basis(Matrix(list(zip(*cols)), len(cols))).rows))
        else:
            columns = field.eye(len(layout)).rows
        if columns:
            kernel[l], layouts[l] = columns, layout
    for a, d in enumerate(kernel_dims):
        if len(kernel.get(projectives[a], ())) != d:
            raise SpreadHomError(f"approximation fails to be onto at {x.poset.label(a)}")
    return _indicator_coordinates(x, js, layouts, kernel), tuple(kernel_dims)


class Resolution(NamedTuple):
    """The terms of the minimal resolution of a module, as far as it was computed."""

    terms: tuple[tuple[int, ...], ...]          # multiplicity vector per degree
    status: str                                 # "finite" | "truncated"
    periodicity: tuple[int, int] | None = None  # kernels with matching signatures

    @property
    def depth(self) -> int:
        return len(self.terms)


def resolve(x: Family, m: PersistenceModule, max_depth: int = DEFAULT_MAX_DEPTH) -> Resolution:
    """Resolve m by minimal approximations until the kernel dies or depth runs out.

    X holds the projectives, so Hom(X, -) takes the minimal X-resolution of m
    to the minimal projective resolution of the End(X)-module Hom(X, m)
    (Auslander-Solberg, Relative homology and representation theory I, 1993).
    Only Hom(X, m) is solved by Yoneda (`_member_homs`).  Every kernel K,
    inside P = ⊕ R_j, is kept as its Hom spaces Hom(R_l, K) ⊆ Hom(R_l, P) in
    indicator coordinates (`_kernel_homs`), and dims(K) is dims(P) minus the
    dimensions of the module P maps onto; no module is built.  A kernel is
    signed by dims(K) and the width of each nonzero Hom(R_j, K).
    """
    max_depth = index(max_depth)
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    _require_same_poset(x, m)
    projectives = _projectives(x)
    if m.is_zero():
        return Resolution((), "finite")
    if not max_depth:
        return Resolution((), "truncated")
    target = _source_coordinates(x, m, _member_homs(x, m))
    dims = m.dims
    terms = []
    sigs = []  # one per kernel
    while True:
        picked = _approximate(x, m.field, target)
        terms.append(_multiplicities(x, picked))
        target, dims = _kernel_homs(x, m.field, target, picked, dims, projectives)
        if not any(dims):
            return Resolution(tuple(terms), "finite")
        sigs.append((dims, {j: len(columns) for j, columns in target[0].items()}))
        if len(terms) == max_depth:
            periodicity = next(((i, j) for i, j in combinations(range(len(sigs)), 2) if sigs[i] == sigs[j]), None)
            return Resolution(tuple(terms), "truncated", periodicity)


def x_dimension(x: Family, m: PersistenceModule, max_depth: int = DEFAULT_MAX_DEPTH) -> int | None:
    """Length of the minimal resolution, or None when truncation leaves it unknown."""
    res = resolve(x, m, max_depth)
    if res.status != "finite":
        return None
    return max(len(res.terms) - 1, 0)

