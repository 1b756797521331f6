"""Brute-force oracles and generators shared across the suite.

The poset oracles are deliberately independent of the library internals:
they work on explicit pair sets computed by graph search over cover lists,
never on the bitmask machinery they are checking.  The module fixtures
(inclusions of summands, zero morphisms, the rank-blind pair and the
non-thin bricks), the up-set predicate and the morphisms read back from the
spread-level Hom routes (held against `hom_basis`, whose columns
`hom_morphisms` reads back) are used by tests only.
The module route keeps every approximation, kernel and inclusion of a
resolution; it is the oracle of `resolve`, which keeps only the terms, and
its steps give the connecting maps.  Its approximations are the morphisms
that `assemble` builds from the picks of `minimal_approximation`.
The commutativity oracle checks every parent of c above a, for every
a < c, where the validator checks one square per pair of parents of a
join.  The limit and colimit oracle writes every equation out, at every
element of the spread.  The approximation oracle is the earlier production
route, kept to hold its replacement to the same bytes, and the numpy
elimination at the end is the reference for `PrimeField.rref`.  The dense
back-substitution, which re-checks every row, is the reference for the
in-place solves of `class_via_hom_matrix` and `signed_diagram`.
"""

import itertools
from collections import namedtuple

import numpy as np

from spreadhom import (
    Morphism,
    PersistenceModule,
    Poset,
    SpreadHomError,
    direct_sum,
    enumerate_spreads,
    hom_basis,
    interval_module,
    kernel_module,
    minimal_approximation,
    morphism_from_vec,
    spread_from_antichains,
    spread_module,
    zero_module,
)
from spreadhom.approx import DEFAULT_MAX_DEPTH, _member_homs
from spreadhom.gallery import atilde5, crown, funnel, grid
from spreadhom.field import Matrix, hstack
from spreadhom.hom import spread_hom_components, stacked_offsets, yoneda_basis, yoneda_values
from spreadhom.poset import elements_of, iter_mask


def closure_pairs(n, covers):
    """All (x, y) with x <= y, by DFS over the cover relation."""
    adj = {i: [] for i in range(n)}
    for a, b in covers:
        adj[a].append(b)
    pairs = set()
    for x in range(n):
        stack = [x]
        seen = {x}
        while stack:
            y = stack.pop()
            pairs.add((x, y))
            for z in adj[y]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return pairs


def oracle_is_antichain(p, subset):
    leq = closure_pairs(p.n, p.covers)
    return all(
        (x, y) not in leq and (y, x) not in leq
        for x, y in itertools.combinations(subset, 2)
    )


def oracle_is_convex(p, subset):
    leq = closure_pairs(p.n, p.covers)
    s = set(subset)
    for x in s:
        for z in s:
            for y in range(p.n):
                if (x, y) in leq and (y, z) in leq and y not in s:
                    return False
    return True


def oracle_is_connected(p, subset):
    s = set(subset)
    if not s:
        return False
    edges = [(a, b) for a, b in p.covers if a in s and b in s]
    comp = {next(iter(s))}
    grew = True
    while grew:
        grew = False
        for a, b in edges:
            if (a in comp) != (b in comp):
                comp.update((a, b))
                grew = True
    return comp == s


def oracle_connected_convex_subsets(p):
    """All nonempty connected convex subsets, by filtering the power set."""
    out = set()
    for r in range(1, p.n + 1):
        for subset in itertools.combinations(range(p.n), r):
            if oracle_is_convex(p, subset) and oracle_is_connected(p, subset):
                out.add(frozenset(subset))
    return out


def random_poset(rng, n):
    """Random poset on n elements: random DAG in a shuffled linear order,
    then reduce to covers."""
    order = list(range(n))
    rng.shuffle(order)
    rel = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rel.add((order[i], order[j]))
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    covers = [
        (a, b)
        for a, b in rel
        if not any((a, c) in rel and (c, b) in rel for c in range(n))
    ]
    return Poset(n, covers)


def mask_to_set(mask):
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return out


def principal_upsets_totally_ordered(p):
    """True when every up-set {x : a <= x} of p is a chain."""
    for a in range(p.n):
        ups = elements_of(p.up_mask(a))
        for i, x in enumerate(ups):
            for y in ups[i + 1:]:
                if not (p.leq(x, y) or p.leq(y, x)):
                    return False
    return True


def to_np(mat):
    """A Matrix as an int64 numpy array of the same shape."""
    return np.array(mat.rows, dtype=np.int64).reshape(mat.shape)


def summand_inclusions(total, summands):
    """Inclusions of the given summands into their direct sum (block layout)."""
    out = []
    offsets = [0] * total.poset.n
    for m in summands:
        comps = []
        for a in range(total.poset.n):
            blk = np.zeros((total.dims[a], m.dims[a]), dtype=np.int64)
            blk[offsets[a]:offsets[a] + m.dims[a], :] = np.eye(m.dims[a], dtype=np.int64)
            comps.append(total.field.arr(blk))
            offsets[a] += m.dims[a]
        out.append(Morphism(m, total, comps))
    return out


def zero_morphism(source, target):
    comps = [source.field.zeros(target.dims[a], source.dims[a]) for a in range(source.poset.n)]
    return Morphism(source, target, comps)


def indicator_morphisms(s, t, field):
    """Hom(M_s, M_t) from `spread_hom_components`: per component, 1 on it and 0 elsewhere, checked."""
    ms, mt = spread_module(s, field), spread_module(t, field)
    return [
        Morphism(ms, mt, [field.eye(1) if comp >> x & 1 else field.zeros(mt.dims[x], ms.dims[x])
                          for x in range(s.poset.n)])
        for comp in spread_hom_components(s, t)
    ]


def hom_morphisms(m, n):
    """The columns of `hom_basis(m, n)`, read back as checked morphisms by `morphism_from_vec`."""
    return [morphism_from_vec(m, n, list(col)) for col in zip(*hom_basis(m, n).rows)]


def yoneda_morphisms(s, n):
    """Hom(M_s, n) from the `yoneda_basis` columns, read back at each x of s by `yoneda_values`, checked."""
    field = n.field
    m = spread_module(s, field)
    return [
        Morphism(m, n, [yoneda_values(s, n, Matrix([[v] for v in col], 1), x)
                        if s.support >> x & 1 else field.zeros(n.dims[x], 0) for x in range(s.poset.n)])
        for col in zip(*yoneda_basis(s, n).rows)
    ]


def every_parent_failure(m):
    """The first failure of checking every comparable a < c against every parent of c above a."""
    p, f = m.poset, m.field
    for a in range(p.n):
        for c in p.topo_order:
            if c != a and p.leq(a, c):
                for q in p.parents(c):
                    if p.leq(a, q) and f.matmul(m.maps[(q, c)], m.map_along(a, q)) != m.map_along(a, c):
                        return a, c, q
    return None


Step = namedtuple("Step", "approximation kernel inclusion")


def assemble(x, m, coords):
    """The epimorphism ⊕_j R_j^{k_j} -> m with the k_j source-coordinate columns of coords[j].

    coords is what `minimal_approximation` returns beside the multiplicities;
    each component of the morphism is checked onto by its rank.
    """
    field = m.field
    summands = [spread_module(x.members[j], field) for j, w in coords.items() for _ in range(w.shape[1])]
    dom = direct_sum(summands) if summands else zero_module(m.poset, field)
    comps = []
    for a in range(m.poset.n):
        blocks = [yoneda_values(x.members[j], m, w, a)
                  for j, w in coords.items() if x.members[j].support >> a & 1]
        comps.append(hstack(blocks) if blocks else field.zeros(m.dims[a], 0))
    for a, c in enumerate(comps):
        if field.rank(c) != m.dims[a]:
            raise SpreadHomError(f"approximation fails to be onto at {m.poset.label(a)}")
    return Morphism._build(dom, m, comps)


def approximation_morphism(x, m):
    """The multiplicities of `minimal_approximation` and the morphism its picks fix."""
    mult, coords = minimal_approximation(x, m)
    return mult, assemble(x, m, coords)


def module_route(x, m, max_depth=DEFAULT_MAX_DEPTH):
    """The resolution of m with every module and map kept: the oracle of `resolve`.

    `approximation_morphism`, then `kernel_module`, until the kernel dies or
    depth runs out; each kernel of a truncated run is signed by a second
    `_member_homs`, and the first two kernels with equal signatures are the
    periodicity.  Returns ((terms, status, periodicity), steps), with one
    `Step` per term.
    """
    terms, steps = [], []
    current = m
    while not current.is_zero() and len(terms) < max_depth:
        mult, f = approximation_morphism(x, current)
        current, incl = kernel_module(f)
        terms.append(mult)
        steps.append(Step(f, current, incl))
    if current.is_zero():
        return (tuple(terms), "finite", None), steps
    sigs = [(s.kernel.dims, {j: w.shape[1] for j, w in _member_homs(x, s.kernel).items()}) for s in steps]
    periodicity = next(((i, j) for i, j in itertools.combinations(range(len(sigs)), 2) if sigs[i] == sigs[j]), None)
    return (tuple(terms), "truncated", periodicity), steps


def connecting(steps, k):
    """The chain map R_k -> R_{k-1} (k >= 1) of a resolution, through the kernel inclusion."""
    return steps[k - 1].inclusion @ steps[k].approximation


def branching_vertex(p):
    """First element with two distinct covers, as (a, b, c); None on chains-of-covers."""
    for a in range(p.n):
        ch = p.children(a)
        if len(ch) >= 2:
            return a, ch[0], ch[1]
    return None


def rank_blind_pair(p, field):
    """A pair with equal rank invariants that single-source classes separate.

    Built at the first branching vertex a with covers b, c:
    interval[a,b] ⊕ interval[a,c]  versus  interval[a,a] ⊕ spread[a,{b,c}].
    """
    found = branching_vertex(p)
    if found is None:
        raise SpreadHomError("poset has no branching vertex; every up-set is a chain")
    a, b, c = found
    first = direct_sum([interval_module(p, field, a, b), interval_module(p, field, a, c)])
    wide = spread_from_antichains(p, [a], [b, c])
    second = direct_sum([
        interval_module(p, field, a, a),
        spread_module(wide, field),
    ])
    return first, second


def nonthin_brick(field, lam):
    """On the 2-crown: all four maps are 1 except one, which is lam.  For
    lam not in {0, 1} this is thin but not isomorphic to a spread module."""
    p = crown(2)
    maps = {
        (0, 2): [[1]],
        (0, 3): [[1]],
        (1, 2): [[1]],
        (1, 3): [[lam]],
    }
    return PersistenceModule(p, field, (1, 1, 1, 1), maps)


# posets with multi-source and multi-target spreads, for the spread-system oracles
ORACLE_POSETS = {"grid3x3": grid(3, 3), "funnel": funnel(), "crown2": crown(2), "atilde5": atilde5()}
ORACLE_SPREADS = {k: enumerate_spreads(p, "connected_spreads") for k, p in ORACLE_POSETS.items()}


def unreduced_limit_colimit(m, s):
    """The limit of m over s and the rank of the canonical map to the colimit.

    Every equation is written at every x in s: the limit is cut out of
    ⊕ m_a over the sources a by m(a -> x) v_a = m(b -> x) v_b for every pair
    of sources a, b below x, and the colimit is ⊕ m_b over the targets b
    modulo m(x -> b) w - m(x -> c) w for every pair of targets b, c above x.
    The canonical map pushes the limit from the last source to the last
    target above it.  Returns (the canonical basis of the limit, the rank).
    """
    p, field = m.poset, m.field
    sources, targets = elements_of(s.sources), elements_of(s.targets)
    src, n_src = stacked_offsets(s.sources, m)
    tgt, n_tgt = stacked_offsets(s.targets, m)
    equations = [np.zeros((0, n_src), dtype=np.int64)]
    relations = [np.zeros((n_tgt, 0), dtype=np.int64)]
    for x in elements_of(s.support):
        for a, b in itertools.combinations([a for a in sources if p.leq(a, x)], 2):
            row = np.zeros((m.dims[x], n_src), dtype=np.int64)
            row[:, src[a]:src[a] + m.dims[a]] = to_np(m.map_along(a, x))
            row[:, src[b]:src[b] + m.dims[b]] = to_np(field.neg(m.map_along(b, x)))
            equations.append(row)
        for b, c in itertools.combinations([b for b in targets if p.leq(x, b)], 2):
            col = np.zeros((n_tgt, m.dims[x]), dtype=np.int64)
            col[tgt[b]:tgt[b] + m.dims[b]] = to_np(m.map_along(x, b))
            col[tgt[c]:tgt[c] + m.dims[c]] = to_np(field.neg(m.map_along(x, c)))
            relations.append(col)
    limit = field.kernel_basis(np.concatenate(equations))
    rel = np.concatenate(relations, axis=1)
    a = sources[-1]
    b = [b for b in targets if p.leq(a, b)][-1]
    image = np.zeros((n_tgt, limit.shape[1]), dtype=np.int64)
    image[tgt[b]:tgt[b] + m.dims[b]] = to_np(field.matmul(m.map_along(a, b), field.arr(to_np(limit)[src[a]:src[a] + m.dims[a]])))
    return limit, field.rank(np.concatenate([rel, image], axis=1)) - field.rank(rel)


def full_row_minimal_approximation(x, m):
    """`minimal_approximation` composing every basis map R_i -> R_j (j != i).

    One block per component of each `Family.hom_row`, none dropped or
    merged, as before `Family.radical_generators`.  A block is laid out in
    the source coordinates of Hom(R_i, m) by `stacked_offsets`.  Returns the
    multiplicities and the picked columns of each Yoneda basis.
    """
    field = m.field
    homs = _member_homs(x, m)
    multiplicities = [0] * len(x)
    chosen = {}
    for i, w in homs.items():
        offsets, _ = stacked_offsets(x.members[i].sources, m)
        blocks = []
        for j, comps in x.hom_row(i).items():
            if j == i or j not in homs:
                continue
            for comp in comps:
                block = np.zeros((w.shape[0], homs[j].shape[1]), dtype=np.int64)
                for a in iter_mask(x.members[i].sources & comp):
                    block[offsets[a]:offsets[a] + m.dims[a]] = to_np(yoneda_values(x.members[j], m, homs[j], a))
                blocks.append(block)
        blocks.append(to_np(w))
        stacked = np.concatenate(blocks, axis=1)
        start = stacked.shape[1] - w.shape[1]
        cols = [c - start for c in field.rref(stacked)[1] if c >= start]
        multiplicities[i] = len(cols)
        if cols:
            chosen[i] = w.columns(cols)
    return tuple(multiplicities), chosen


def numpy_rref(a, p):
    """The reference elimination: `PrimeField.rref` of a nonempty int64 array reduced mod p, in place.

    The same pivot rule with numpy row operations; returns (array, pivots).
    """
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        elim = np.nonzero(col)[0]
        if elim.size:
            a[elim] = (a[elim] - np.outer(col[elim], a[r])) % p
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def back_substitute(b, rows, order):
    """The exact integer c with Σ_{(j, w) in rows[i]} w · c_j = b_i for all i, re-checked.

    Row i includes (i, 1); `order` visits each i after every other j it names.
    """
    c = [0] * len(b)
    for i in order:
        c[i] = b[i] - sum(w * c[j] for j, w in rows[i] if j != i)
    if any(sum(w * c[j] for j, w in row) != bi for row, bi in zip(rows, b)):
        raise SpreadHomError("back-substitution failed to verify")
    return tuple(c)
