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
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DuplicateMemberError,
    MissingProjectivesError,
    NotConnectedError,
    OutOfRangeError,
    PosetMismatchError,
    SpreadHomError,
)
from .field import PrimeField
from .hom import kernel_module, spread_hom_components, yoneda_basis, yoneda_values
from .modules import (
    Morphism,
    PersistenceModule,
    direct_sum,
    spread_module,
    zero_module,
)
from .poset import BUILTIN_FAMILIES, Poset, enumerate_spreads, iter_mask, kahn_order


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
                raise DuplicateMemberError(f"member {s.render()} appears twice")
            seen.add(s.support)
        self.members = members
        self._supports = frozenset(seen)
        self._modules: dict[tuple[int, int], PersistenceModule] = {}  # (p, i) -> module
        self._rows: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...] | None = None
        self._diagnostics: FamilyDiagnostics | None = None

    def __len__(self):
        return len(self.members)

    def labels(self) -> tuple[str, ...]:
        return tuple(s.render() for s in self.members)

    @property
    def contains_projectives(self) -> bool:
        return not self.missing_projectives()

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

    def pair_hom(self, i: int, j: int) -> tuple[int, ...]:
        """Supports of the indicator basis of Hom(member_i, member_j), field-free."""
        return next((comps for k, comps in self.hom_rows()[i] if k == j), ())

    def hom_matrix(self) -> tuple[tuple[int, ...], ...]:
        """H[i][j] = dim Hom(member_i, member_j): a dense view of `hom_rows`."""
        n = len(self.members)
        return tuple(tuple(len(row.get(j, ())) for j in range(n)) for row in map(dict, self.hom_rows()))


def builtin_family(poset: Poset, name: str, cap: int = 100_000) -> Family:
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
    if not x.contains_projectives:
        raise MissingProjectivesError(
            f"family lacks the principal up-sets at {{{', '.join(x.missing_projectives())}}}"
        )


def _member_homs(x: Family, m: PersistenceModule) -> dict[int, tuple[dict[int, int], np.ndarray]]:
    """{j: (offsets, basis)}: Hom(member_j, m) in source coordinates, for each j where it is nonzero."""
    # Hom(R_j, m) embeds in ⊕ m_a over the sources of R_j, so it is 0 unless one lies in supp m
    supp = m.support_mask()
    homs = {j: yoneda_basis(s, m) for j, s in enumerate(x.members) if s.sources & supp}
    return {j: h for j, h in homs.items() if h[1].shape[1]}


def _assemble(x: Family, m: PersistenceModule, coords) -> Morphism:
    """The epimorphism ⊕_j R_j^{k_j} -> m with the k_j columns of coords[j] = (offsets, w)."""
    field = m.field
    summands = [x.member_module(j, field) for j, (_, w) in coords.items() for _ in range(w.shape[1])]
    dom = direct_sum(summands) if summands else zero_module(m.poset, field)
    comps = []
    for a in range(m.poset.n):
        blocks = [yoneda_values(x.members[j], m, offsets, w, a)
                  for j, (offsets, w) in coords.items() if x.members[j].support >> a & 1]
        comps.append(np.concatenate(blocks, axis=1) if blocks else field.zeros(m.dims[a], 0))
        if field.rank(comps[a]) != m.dims[a]:
            raise SpreadHomError(f"approximation fails to be onto at {m.poset.label(a)}")
    return Morphism(dom, m, comps, validate=False)


def universal_approximation(x: Family, m: PersistenceModule) -> Morphism:
    """The epimorphism ⊕_R R^{dim Hom(R,m)} -> m collecting full Hom bases."""
    _require_coverage(x)
    return _assemble(x, m, _member_homs(x, m))


def minimal_approximation(x: Family, m: PersistenceModule):
    """Multiplicity vector and morphism of the minimal right approximation.

    Multiplicity at member R is dim Hom(R,m) minus the rank of the span of
    composites R -> R' -> m over the other members R'; the representatives
    are read off the pivots of one elimination per member.  Everything runs
    in the source coordinates ⊕_{a in sources(R)} m_a of Hom(R, m): for the
    indicator h of a component X and g in Hom(R', m), g∘h has the value of g
    at each source a of R in X and 0 at the others.
    """
    _require_coverage(x)
    field = m.field
    members = x.members
    rows = x.hom_rows()
    homs = _member_homs(x, m)
    values = {}  # (j, a) -> the basis of Hom(R_j, m) evaluated at a

    def value_at(j, a):
        out = values.get((j, a))
        if out is None:
            offsets, w = homs[j]
            out = values[(j, a)] = yoneda_values(members[j], m, offsets, w, a)
        return out

    multiplicities = [0] * len(members)
    chosen = {}  # i -> (offsets, the picked columns of the basis)
    for i, (offsets, w) in homs.items():
        s = members[i]
        blocks = []
        for j, comps in rows[i]:
            if j == i or j not in homs:
                continue
            for comp in comps:
                block = field.zeros(w.shape[0], homs[j][1].shape[1])
                for a in iter_mask(s.sources & comp):
                    block[offsets[a]:offsets[a] + m.dims[a]] = value_at(j, a)
                blocks.append(block)
        blocks.append(w)
        stacked = np.concatenate(blocks, axis=1)
        start = stacked.shape[1] - w.shape[1]
        _, pivots = field.rref(stacked)
        cols = [c - start for c in pivots if c >= start]
        multiplicities[i] = len(cols)
        if cols:
            chosen[i] = (offsets, w[:, cols])
    return tuple(multiplicities), _assemble(x, m, chosen)


@dataclass
class Resolution:
    """Iterated minimal approximations of successive kernels."""

    family: Family
    module: PersistenceModule
    terms: tuple[tuple[int, ...], ...]          # multiplicity vector per degree
    approximations: tuple[Morphism, ...]        # term k onto kernel k-1 (or module)
    kernels: tuple[PersistenceModule, ...]
    kernel_inclusions: tuple[Morphism, ...]
    status: str                                 # "finite" | "truncated"
    periodicity: tuple[int, int] | None = None  # kernels with matching signatures

    @property
    def depth(self) -> int:
        return len(self.terms)

    def connecting(self, k: int) -> Morphism:
        """The chain map R_k -> R_{k-1} (k >= 1) through the kernel inclusion."""
        if not 1 <= k < len(self.terms):
            raise OutOfRangeError(f"no connecting map at degree {k}")
        return self.kernel_inclusions[k - 1] @ self.approximations[k]


def _kernel_signature(x: Family, k: PersistenceModule):
    return k.dims, {j: w.shape[1] for j, (_, w) in _member_homs(x, k).items()}


def resolve(x: Family, m: PersistenceModule, max_depth: int = 32) -> Resolution:
    """Resolve m by minimal approximations until the kernel dies or depth runs out."""
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    terms = []
    approxs = []
    kernels = []
    inclusions = []
    current = m
    status = "truncated"
    while True:
        if current.is_zero():
            status = "finite"
            break
        if len(terms) >= max_depth:
            break
        mult, f = minimal_approximation(x, current)
        terms.append(mult)
        approxs.append(f)
        ker, incl = kernel_module(f)
        kernels.append(ker)
        inclusions.append(incl)
        current = ker
    sigs = [_kernel_signature(x, k) for k in kernels] if status == "truncated" else []
    periodicity = next(((i, j) for i, j in combinations(range(len(sigs)), 2) if sigs[i] == sigs[j]), None)
    return Resolution(
        family=x,
        module=m,
        terms=tuple(terms),
        approximations=tuple(approxs),
        kernels=tuple(kernels),
        kernel_inclusions=tuple(inclusions),
        status=status,
        periodicity=periodicity,
    )


def x_dimension(x: Family, m: PersistenceModule, max_depth: int = 32) -> int | None:
    """Length of the minimal resolution, or None when truncation leaves it unknown."""
    res = resolve(x, m, max_depth)
    if res.status != "finite":
        return None
    return max(len(res.terms) - 1, 0)


def betti(res: Resolution, k: int) -> tuple[int, ...]:
    """Multiplicity vector of resolution term k; zero beyond a finite resolution."""
    if k < 0:
        raise OutOfRangeError("negative degree")
    if k < len(res.terms):
        return res.terms[k]
    if res.status == "finite":
        return (0,) * len(res.family.members)
    raise OutOfRangeError(
        f"resolution truncated at depth {res.depth}; degree {k} is undetermined"
    )
