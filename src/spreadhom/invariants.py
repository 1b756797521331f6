"""The invariant layer.

Grothendieck-style classes relative to a family (two independent algorithms,
one of which `class_route` picks), dim-hom vectors, the classical rank
invariant (directly and from hook Hom spaces), generalized ranks over
connected spreads, signed diagrams, the type-A barcode, and comparison; each
unitriangular integer system is solved in place, where its rows are stored.
"""
from __future__ import annotations

from itertools import combinations

from .approx import (DEFAULT_MAX_DEPTH, Family, _member_homs, _projectives, _require_same_poset,
                     builtin_family, check_family, resolve)
from .errors import (
    HomMatrixSingularError,
    NotConnectedError,
    NotTypeAError,
    PosetMismatchError,
    ResolutionTruncatedError,
    UnknownInvariantError,
)
from .field import Matrix, hstack
from .hom import agreement_system, hom_dim, stacked_offsets, yoneda_values
from .modules import PersistenceModule, hook_module
from .poset import DEFAULT_CAP, Spread, iter_mask

COMPARE_KINDS = ("dimvec", "rank", "class", "dimhom", "genrank", "diagram")


class GrothClass:
    """An integer combination of spreads: a class relative to a family, a barcode or a signed diagram."""

    __slots__ = ("spreads", "coeffs")

    def __init__(self, spreads: tuple[Spread, ...], coeffs: tuple[int, ...]):
        if len(coeffs) != len(spreads):
            raise ValueError("one coefficient per spread expected")
        self.spreads, self.coeffs = spreads, coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.spreads, self.coeffs) == (other.spreads, other.coeffs)

    __hash__ = None

    def __repr__(self):
        return f"GrothClass(spreads={self.spreads!r}, coeffs={self.coeffs!r})"

    def __add__(self, other: "GrothClass") -> "GrothClass":
        if other.__class__ is not self.__class__:
            return NotImplemented
        if other.spreads != self.spreads:
            raise ValueError("classes over different spreads")
        return GrothClass(self.spreads, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def nonzero(self) -> dict[str, int]:
        return {s.render(): c for s, c in zip(self.spreads, self.coeffs) if c != 0}

    def render(self) -> str:
        """"+[a,b] -2*[c,d] ..." over the nonzero coefficients, or "0"."""
        parts = []
        for s, c in zip(self.spreads, self.coeffs):
            if c == 0:
                continue
            sign = "+" if c > 0 else "-"
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(f"{sign}{mag}{s.render()}")
        return " ".join(parts) if parts else "0"


def dim_hom_vector(x: Family, m: PersistenceModule) -> tuple[int, ...]:
    """(dim Hom(R, m))_{R in x}: the widths of the Yoneda bases that approximations use."""
    homs = _member_homs(x, m)
    return tuple(homs[j].shape[1] if j in homs else 0 for j in range(len(x)))


def class_via_resolution(x: Family, m: PersistenceModule, max_depth: int = DEFAULT_MAX_DEPTH) -> GrothClass:
    """Alternating sum of the terms of the minimal resolution; x must hold the principal up-sets."""
    res = resolve(x, m, max_depth)
    if res.status != "finite":
        dims = {m.poset.label(a): d for a, d in enumerate(m.dims) if d}
        terms = [{s.render(): c for s, c in zip(x.members, term) if c} for term in res.terms]
        raise ResolutionTruncatedError(
            f"resolution of the module with dims {dims} did not terminate within depth {max_depth}"
            f"; partial terms: {terms}",
            terms=res.terms,
        )
    coeffs = [0] * len(x)
    sign = 1
    for term in res.terms:
        for i, c in enumerate(term):
            coeffs[i] += sign * c
        sign = -sign
    return GrothClass(x.members, tuple(coeffs))


def class_via_hom_matrix(x: Family, m: PersistenceModule) -> GrothClass:
    """Solve dim Hom(R', m) = Σ_R c_R dim Hom(R', R) over the integers.

    Needs the principal up-sets in x (else a solution is no class) and an
    acyclic member-to-member Hom digraph: the matrix is then unitriangular in
    a topological order, solved in reverse along each `Family.hom_row`.
    """
    _projectives(x)
    diag = check_family(x)
    if not diag.hom_acyclic:
        cycle = " -> ".join(x.members[i].render() for i in diag.hom_cycle)
        raise HomMatrixSingularError(f"Hom digraph has a cycle: {cycle} -> ...")
    b = dim_hom_vector(x, m)
    c = {}  # member -> c, for each nonzero c; row i names no unsolved j != i
    for i in reversed(diag.topo_order):
        row = x.hom_row(i)
        if ci := b[i] - sum(len(row[j]) * cj for j, cj in c.items() if j in row):
            c[i] = ci
    return GrothClass(x.members, tuple(c.get(i, 0) for i in range(len(x))))


def class_route(x: Family) -> str:
    """The route by which `invariant_key` reads a class over x.

    "hom_matrix" when the member Hom digraph is acyclic, "resolution" otherwise.
    """
    return "hom_matrix" if check_family(x).hom_acyclic else "resolution"


def rank_invariant(m: PersistenceModule) -> dict[tuple[int, int], int]:
    """{(a, b): rank m(a -> b)} over all comparable pairs a <= b; m(a -> a) is the identity."""
    return {
        (a, b): m.dims[a] if a == b else m.field.rank(m.map_along(a, b))
        for a, b in m.poset.comparable_pairs()
    }


def rank_via_hooks(m: PersistenceModule) -> dict[tuple[int, int], int]:
    """The same table assembled purely from Hom dimensions against hooks."""
    p = m.poset
    field = m.field
    at_source = {a: hom_dim(hook_module(p, field, a), m) for a in range(p.n)}
    entries = {}
    for a, b in p.comparable_pairs():
        if a == b:
            entries[(a, b)] = at_source[a]
        else:
            entries[(a, b)] = at_source[a] - hom_dim(hook_module(p, field, a, b), m)
    return entries


def generalized_rank(m: PersistenceModule, s: Spread) -> int:
    """Rank of the canonical map from the limit to the colimit of m over the spread.

    The checked entry for one spread (`_limit_to_colimit_rank` solves it): it
    refuses a spread over another poset or with disconnected support.
    """
    if s.poset is not m.poset and s.poset != m.poset:
        raise PosetMismatchError("the spread and the module live over different posets")
    if not s.is_connected():
        raise NotConnectedError(f"spread {s.render()} has disconnected support")
    return _limit_to_colimit_rank(m, s, m.support_mask())


def _limit_to_colimit_rank(m: PersistenceModule, s: Spread, supp: int) -> int:
    """Rank of the canonical map from the limit to the colimit of m over a connected spread, unchecked.

    The limit is the kernel of the agreement system in ⊕_{a ∈ min S} m_a.  The
    colimit is ⊕_{b ∈ max S} m_b modulo m(x -> b) w - m(x -> c) w, written
    once for each pair of targets b, c and each maximal x of
    S ∩ down(b) ∩ down(c).  At any lower x' of that set the relation is this
    one pulled back along m(x' -> x), so the relations span the same
    subspace as with every pair at every x.  The canonical map reads the
    limit at a target, pushed from a source below it (`yoneda_values`; any
    pair will do, by connectedness).  It is 0, unsolved, when S ⊄ supp, the
    support of m.
    """
    if s.support & ~supp:
        return 0
    field = m.field
    p = m.poset
    lim = field.kernel_basis(agreement_system(s, m))
    tgt, total = stacked_offsets(s.targets, m)
    if lim.shape[1] == 0 or total == 0:
        return 0
    cols = [field.zeros(total, 0)]
    for b, c in combinations(iter_mask(s.targets), 2):
        for x in iter_mask(p.maximal_elements(s.support & p.down_mask(b) & p.down_mask(c))):
            if m.dims[x]:
                col = field.zeros(total, m.dims[x]).rows
                col[tgt[b]:tgt[b] + m.dims[b]] = m.map_along(x, b).rows
                col[tgt[c]:tgt[c] + m.dims[c]] = field.neg(m.map_along(x, c)).rows
                cols.append(Matrix(col, m.dims[x]))
    rel = hstack(cols)
    b = next(iter_mask(s.targets))
    image = field.zeros(total, lim.shape[1]).rows
    image[tgt[b]:tgt[b] + m.dims[b]] = yoneda_values(s, m, lim, b).rows
    # rank [rel | image] - rank rel: the pivots that fall in the image columns
    _, pivots = field.rref(hstack([rel, Matrix(image, lim.shape[1])]))
    return sum(j >= rel.shape[1] for j in pivots)


def generalized_rank_vector(m: PersistenceModule, x: Family) -> tuple[int, ...]:
    """The generalized rank of m over each member of x, whose members were checked where x was built."""
    _require_same_poset(x, m)
    supp = m.support_mask()
    return tuple(_limit_to_colimit_rank(m, s, supp) for s in x.members)


def signed_diagram(m: PersistenceModule, x: Family) -> GrothClass:
    """The δ with rk(m, X) = Σ_{Y ⊇ X in x} δ(Y): 0 unless X ⊆ supp m, largest X first."""
    delta = {}  # support -> δ, for each nonzero δ
    for s, r in sorted(zip(x.members, generalized_rank_vector(m, x)), key=lambda sr: -sr[0].support.bit_count()):
        if d := r - sum(v for y, v in delta.items() if s.support & y == s.support):
            delta[s.support] = d
    return GrothClass(x.members, tuple(delta.get(s.support, 0) for s in x.members))


def barcode(m: PersistenceModule, cap: int = DEFAULT_CAP) -> GrothClass:
    """Interval multiplicities over a path-shaped poset, as a class.

    The class relative to all connected spread modules, read by `invariant_key`
    like any other class.  Type-A quivers are representation-directed, so the
    member Hom digraph is acyclic and the class is back-substituted.
    """
    if not m.poset.is_path():
        raise NotTypeAError("the Hasse graph of the poset is not a simple path")
    return invariant_key("class", m, family=builtin_family(m.poset, "connected_spreads", cap))


def invariant_key(kind: str, m: PersistenceModule, *, family: Family | None = None,
                  max_depth: int = DEFAULT_MAX_DEPTH):
    """The value of the named invariant of m that `compare` tests for equality.

    kind: dimvec | rank | class | dimhom | genrank | diagram.  Every kind but
    dimvec and rank is taken over family=.  A class is read by the route that
    `class_route` names.
    """
    if kind in ("class", "dimhom", "genrank", "diagram") and family is None:
        raise ValueError(f"kind {kind!r} needs family=")
    if kind == "dimvec":
        return m.dims
    if kind == "rank":
        return rank_invariant(m)
    if kind == "class":
        if class_route(family) == "hom_matrix":
            return class_via_hom_matrix(family, m)
        return class_via_resolution(family, m, max_depth)
    if kind == "dimhom":
        return dim_hom_vector(family, m)
    if kind == "genrank":
        return generalized_rank_vector(m, family)
    if kind == "diagram":
        return signed_diagram(m, family)
    raise UnknownInvariantError(
        f"unknown invariant {kind!r}; expected one of {COMPARE_KINDS}"
    )


def compare(kind: str, m: PersistenceModule, n: PersistenceModule, **options) -> str:
    """'equal' or 'distinguished' under the named invariant.

    The options (family=, max_depth=) are those of `invariant_key`.
    """
    if m.poset != n.poset:
        raise PosetMismatchError("modules being compared live over different posets")
    same = invariant_key(kind, m, **options) == invariant_key(kind, n, **options)
    return "equal" if same else "distinguished"
