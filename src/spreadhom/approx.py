"""Right approximations and resolutions by a fixed family of spread modules.

A Family is a finite set of connected spreads (their modules are bricks and
pairwise non-isomorphic, which the minimality formula below relies on).
Multiplicities of the minimal approximation of M are computed as
dim Hom(R, M) minus the dimension of the span of all composites through the
other members; representatives of a complement realize the approximation.

The member Hom digraph is computed once per family and kept sparse: row i
lists the members j with Hom(R_i, R_j) != 0.  Two exact tests keep the work
small.  Hom(R_i, R_j) is 0 unless a source of R_i lies in R_j and a target
of R_j lies in R_i, because every component that carries a morphism holds
one of each (`spread_hom_components`).  Hom(R, M) is 0 unless M is nonzero
at a source of R, because it embeds in ⊕ M_a over those sources; a minimal
approximation does Hom work only for the members that pass.

The span of the composites is the radical of Hom(R, M), and the radical of
End(⊕X) for a finite family X of bricks is generated by irreducible maps
(Auslander-Reiten-Smalø, Representation Theory of Artin Algebras, ch. V).
So each member keeps, once per family, only the radical generators that do
not visibly factor through a third member (`Family.radical_generators`):
the indicator of a component that is itself a member's support, R_K, is the
composite R_i ->> R_K >-> R_j.  The span, and every pivot read off it, is
the same as over all basis maps.

The span lies in Hom(R, M), so it is reduced one column at a time (`Span`),
each block evaluated only when reached.  Once the span is as wide as
Hom(R, M) it is all of it: the multiplicity is 0, and the blocks left are
never evaluated.  Otherwise the representatives are the basis columns that
leave the span, the pivots an rref of [radical | basis] would give.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import index

from .errors import (
    DuplicateSpreadError,
    MissingProjectivesError,
    NotConnectedError,
    PosetMismatchError,
    SpreadHomError,
)
from .field import Matrix, PrimeField, Span, hstack
from .hom import kernel_module, spread_hom_components, yoneda_basis, yoneda_values
from .modules import (
    Morphism,
    PersistenceModule,
    direct_sum,
    spread_module,
    zero_module,
)
from .poset import BUILTIN_FAMILIES, DEFAULT_CAP, Poset, enumerate_spreads, iter_mask, kahn_order

DEFAULT_MAX_DEPTH = 32  # most terms one resolution computes before it is truncated


class Family:
    """An ordered set of pairwise-distinct connected spreads over one poset.

    Coverage and the Hom digraph are derived from the members.
    """

    def __init__(self, poset: Poset, members):
        self.poset = poset
        members = tuple(members)
        seen = set()
        for s in members:
            if s.poset != poset:
                raise PosetMismatchError(f"member {s.render()} lives over a different poset")
            if not s.is_connected():
                raise NotConnectedError(f"member {s.render()} has disconnected support")
            if s.support in seen:
                raise DuplicateSpreadError(f"spread {s.render()} appears twice")
            seen.add(s.support)
        self.members = members
        self._supports = frozenset(seen)
        self._modules: dict[tuple[int, int], PersistenceModule] = {}  # (p, i) -> module
        self._rows: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...] | None = None
        self._radical: tuple[tuple[tuple[int, int], ...], ...] | None = None
        self._diagnostics: FamilyDiagnostics | None = None

    def __len__(self):
        return len(self.members)

    def labels(self) -> tuple[str, ...]:
        return tuple(s.render() for s in self.members)

    def missing_projectives(self) -> tuple[str, ...]:
        return tuple(
            self.poset.label(a)
            for a in range(self.poset.n)
            if self.poset.up_mask(a) not in self._supports
        )

    def member_module(self, i: int, field: PrimeField) -> PersistenceModule:
        """The spread module of member i over `field`, built on first use."""
        mod = self._modules.get((field.p, i))
        if mod is None:
            mod = self._modules[(field.p, i)] = spread_module(self.members[i], field)
        return mod

    def member_modules(self, field: PrimeField) -> list[PersistenceModule]:
        return [self.member_module(i, field) for i in range(len(self.members))]

    def hom_rows(self) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """Row i: (j, `pair_hom(i, j)`) for each j with Hom(member_i, member_j) != 0, by j.

        The sparse member Hom digraph, combinatorial and field-free; built on
        first use.
        """
        if self._rows is None:
            members = self.members
            self._rows = tuple(
                tuple((j, comps) for j, t in enumerate(members)
                      if (comps := spread_hom_components(s, t)))
                for s in members
            )
        return self._rows

    def radical_generators(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Row i: pairs (j, sources of member i in X) whose composites span rad(R_i, -).

        One pair per basis map R_i -> R_j (j != i), the indicator of a
        component X; g∘h_X depends only on the pair, so each is kept once.  An
        X that is the support of a third member is left out (see the module
        docstring).  Field-free; built on first use.
        """
        if self._radical is None:
            members, supports = self.members, self._supports
            self._radical = tuple(
                tuple(dict.fromkeys(
                    (j, s.sources & comp)
                    for j, comps in row if j != i
                    for comp in comps
                    if comp not in supports or comp in (s.support, members[j].support)
                ))
                for i, (s, row) in enumerate(zip(members, self.hom_rows()))
            )
        return self._radical

    def pair_hom(self, i: int, j: int) -> tuple[int, ...]:
        """Supports of the indicator basis of Hom(member_i, member_j), field-free."""
        return next((comps for k, comps in self.hom_rows()[i] if k == j), ())

    def hom_matrix(self) -> tuple[tuple[int, ...], ...]:
        """H[i][j] = dim Hom(member_i, member_j): a dense view of `hom_rows`."""
        n = len(self.members)
        return tuple(tuple(len(row.get(j, ())) for j in range(n)) for row in map(dict, self.hom_rows()))


def builtin_family(poset: Poset, name: str, cap: int = DEFAULT_CAP) -> Family:
    """One of the named families; see BUILTIN_FAMILIES."""
    return Family(poset, enumerate_spreads(poset, name, cap))


@dataclass(frozen=True)
class FamilyDiagnostics:
    topo_order: tuple[int, ...] | None   # members ordered so Hom(i,j) != 0 => i first
    hom_cycle: tuple[int, ...] | None    # member indices of one directed cycle

    @property
    def hom_acyclic(self) -> bool:
        return self.topo_order is not None


def _hom_digraph_topo(rows) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """Topological order of i -> j whenever row i lists j (i != j), or a cycle."""
    n = len(rows)
    succs = [[j for j, _ in row if j != i] for i, row in enumerate(rows)]
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
        prev = next(i for i in range(n) if indeg[i] > 0 and cur in succs[i])
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


def _require_coverage(x: Family):
    if missing := x.missing_projectives():
        raise MissingProjectivesError(f"family lacks the principal up-sets at {{{', '.join(missing)}}}")


def _require_same_poset(x: Family, m: PersistenceModule):
    if m.poset is not x.poset and m.poset != x.poset:  # identity first: this runs per kernel
        raise PosetMismatchError("the module and the family live over different posets")


def _member_homs(x: Family, m: PersistenceModule) -> dict[int, Matrix]:
    """{j: the `yoneda_basis` of Hom(member_j, m)}, for each j where it is nonzero."""
    _require_same_poset(x, m)
    # Hom(R_j, m) embeds in ⊕ m_a over the sources of R_j, so it is 0 unless one lies in supp m
    supp = m.support_mask()
    homs = {j: yoneda_basis(s, m) for j, s in enumerate(x.members) if s.sources & supp}
    return {j: w for j, w in homs.items() if w.shape[1]}


def _assemble(x: Family, m: PersistenceModule, coords) -> Morphism:
    """The epimorphism ⊕_j R_j^{k_j} -> m with the k_j source-coordinate columns of coords[j]."""
    field = m.field
    summands = [x.member_module(j, field) for j, w in coords.items() for _ in range(w.shape[1])]
    dom = direct_sum(summands) if summands else zero_module(m.poset, field)
    comps = []
    for a in range(m.poset.n):
        blocks = [yoneda_values(x.members[j], m, w, a)
                  for j, w in coords.items() if x.members[j].support >> a & 1]
        comps.append(hstack(blocks) if blocks else field.zeros(m.dims[a], 0))
    f = Morphism._build(dom, m, comps)
    for a, (_, pivots) in enumerate(f.reduced()):
        if len(pivots) != m.dims[a]:
            raise SpreadHomError(f"approximation fails to be onto at {m.poset.label(a)}")
    return f


def minimal_approximation(x: Family, m: PersistenceModule):
    """Multiplicity vector and morphism of the minimal right approximation.

    Multiplicity at member R is dim Hom(R,m) minus the rank of the span of
    composites R -> R' -> m over the other members R'.  That span is reduced
    column by column over the `Family.radical_generators` of R only, and only
    until it fills Hom(R, m); the representatives are the basis columns that
    then still leave it, each joining it in turn.  Everything runs in the
    source coordinates ⊕_{a in sources(R)} m_a of Hom(R, m): for the
    indicator h of a component X and g in Hom(R', m), g∘h has the value of g
    at each source a of R in X and 0 at the others.
    """
    _require_coverage(x)
    return _approximate(x, m, _member_homs(x, m))


def _approximate(x: Family, m: PersistenceModule, homs):
    """`minimal_approximation` of m, given its `_member_homs`."""
    field = m.field
    members = x.members
    generators = x.radical_generators()
    values = {}  # (j, a) -> the basis of Hom(R_j, m) evaluated at a

    def value_at(j, a):
        out = values.get((j, a))
        if out is None:
            out = values[(j, a)] = yoneda_values(members[j], m, homs[j], a)
        return out

    def radical_columns(i):
        """The columns of member i's radical blocks, in generator order; each block built when reached."""
        own = tuple(iter_mask(members[i].sources))
        for j, sources in generators[i]:
            if j in homs:
                block = []
                for a in own:  # zeros at the sources of R_i outside the component
                    block += value_at(j, a).rows if sources >> a & 1 else [[0] * homs[j].shape[1]] * m.dims[a]
                yield from zip(*block)

    multiplicities = [0] * len(members)
    chosen = {}  # i -> the picked columns of the basis
    for i, w in homs.items():
        span = Span(field)
        full = w.shape[1]  # dim Hom(R_i, m), which holds the radical
        for v in radical_columns(i):
            if span.add(v) and len(span) == full:
                break  # the radical is all of Hom(R_i, m): multiplicity 0
        else:  # the columns of the basis w that leave the span
            cols = [c for c, v in enumerate(zip(*w.rows)) if span.add(v)]
            multiplicities[i] = len(cols)
            if cols:
                chosen[i] = w.columns(cols)
    return tuple(multiplicities), _assemble(x, m, chosen)


@dataclass
class Resolution:
    """The terms of the minimal resolution of a module, as far as it was computed."""

    terms: tuple[tuple[int, ...], ...]          # multiplicity vector per degree
    status: str                                 # "finite" | "truncated"
    periodicity: tuple[int, int] | None = None  # kernels with matching signatures

    @property
    def depth(self) -> int:
        return len(self.terms)


def resolve(x: Family, m: PersistenceModule, max_depth: int = DEFAULT_MAX_DEPTH) -> Resolution:
    """Resolve m by minimal approximations until the kernel dies or depth runs out.

    The Hom spaces from the members into each module of the sequence are
    solved once.  They give its approximation and, for a kernel K, its
    periodicity signature: dims(K) and the width of each nonzero Hom(R_j, K).
    A truncated run solves them for its last kernel too, to sign it.
    """
    max_depth = index(max_depth)
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    _require_same_poset(x, m)
    _require_coverage(x)
    terms = []
    sigs = []  # one per kernel
    current = m
    while not current.is_zero():
        if not max_depth:
            return Resolution((), "truncated")
        homs = _member_homs(x, current)
        if terms:
            sigs.append((current.dims, {j: w.shape[1] for j, w in homs.items()}))
        if len(terms) == max_depth:
            periodicity = next(((i, j) for i, j in combinations(range(len(sigs)), 2) if sigs[i] == sigs[j]), None)
            return Resolution(tuple(terms), "truncated", periodicity)
        mult, f = _approximate(x, current, homs)
        terms.append(mult)
        current, _ = kernel_module(f)
    return Resolution(tuple(terms), "finite")


def x_dimension(x: Family, m: PersistenceModule, max_depth: int = DEFAULT_MAX_DEPTH) -> int | None:
    """Length of the minimal resolution, or None when truncation leaves it unknown."""
    res = resolve(x, m, max_depth)
    if res.status != "finite":
        return None
    return max(len(res.terms) - 1, 0)

