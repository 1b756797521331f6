"""Hom spaces between persistence modules, at two levels.

- Modules: `hom_basis` is the canonical kernel of one linear system over
  all covers (`_naturality_system`), a `Matrix` whose columns are morphisms
  in the layout of `Morphism.vec`, so the basis depends only on the values
  of the endpoints; `hom_dim` is its width.  It solves any pair, and the
  tests hold the spread-level routes against it.
- Spreads, for a module M_S known by its spread S:
  - into M_T: one indicator morphism per valid component of the
    intersection of the supports (`spread_hom_components`), and
    `spread_hom_dim` counts them.  Hom(M_S, M_T) is 0 unless a source of S
    lies in T and a target of T lies in S: a valid component contains the
    sources of S below it and the targets of T above it, hence one of each.
  - into any N: Yoneda.  M_S is a quotient of ⊕_{a ∈ min S} P_a and
    Hom(P_a, N) = N_a, so a morphism is a column (v_a) of N_a stacked over
    the sources a of S by increasing id, its source coordinates, whose pushes
    N(a -> x) v_a agree on S (`agreement_system`) and vanish off S
    (`yoneda_basis`, read back at any x of S by `yoneda_values`).
    Hom(M_S, N) is 0 when N is 0 at every source of S: it embeds in ⊕ N_a.
"""
from __future__ import annotations

from itertools import accumulate, combinations

from .errors import PosetMismatchError
from .field import Matrix, free_columns
from .modules import Morphism, PersistenceModule
from .poset import Spread, iter_mask


def _naturality_system(m: PersistenceModule, n: PersistenceModule) -> Matrix:
    """Rows: one equation block per cover; columns: unknown entries of all f_a.

    Unknowns are ordered element-major, each component column-major, matching
    Morphism.vec.  For a cover (a, b) the equation f_b M_ab - N_ab f_a = 0
    vectorizes to kron(M_ab^T, I) vec(f_b) - kron(I, N_ab) vec(f_a) = 0: the
    row of entry (i, j) is sum_k M_ab[k][j] f_b[i][k] - sum_l N_ab[i][l] f_a[l][j].
    """
    p = n.field.p
    offsets = list(accumulate((m.dims[a] * n.dims[a] for a in range(m.poset.n)), initial=0))
    rows = []
    for a, b in m.poset.covers:
        mab, nab = m.maps[(a, b)].rows, n.maps[(a, b)].rows
        na, nb = n.dims[a], n.dims[b]
        for j in range(m.dims[a]):
            for i in range(nb):
                row = [0] * offsets[-1]
                for k, mrow in enumerate(mab):
                    row[offsets[b] + k * nb + i] = mrow[j]
                for l, x in enumerate(nab[i]):
                    row[offsets[a] + j * na + l] = -x % p
                rows.append(row)
    return Matrix(rows, offsets[-1])


def _check_endpoints(m: PersistenceModule, n: PersistenceModule):
    if m.poset != n.poset:
        raise PosetMismatchError("hom endpoints live over different posets")
    if m.field != n.field:
        raise PosetMismatchError("hom endpoints use different primes")


def stacked_offsets(mask: int, n: PersistenceModule) -> tuple[dict[int, int], int]:
    """Row offset of each n_a, a in mask, when they are stacked as ⊕ n_a; and the total."""
    offsets = {}
    total = 0
    for a in iter_mask(mask):
        offsets[a] = total
        total += n.dims[a]
    return offsets, total


def _placed(total: int, blocks) -> list[list[int]]:
    """Rows of width total, zero but for each (column offset, matrix) block; the blocks share a height.

    One block as wide as total is its own rows, shared, not copied.
    """
    if len(blocks) == 1 and blocks[0][1].shape[1] == total:
        return blocks[0][1].rows
    out = []
    for i in range(blocks[0][1].shape[0]):
        row = [0] * total
        for off, blk in blocks:
            row[off:off + blk.shape[1]] = blk.rows[i]
        out.append(row)
    return out


def agreement_system(s: Spread, n: PersistenceModule) -> Matrix:
    """Equations on the source coordinates (v_a)_{a in sources(s)} of Hom(M_s, n).

    Each pair of sources a, b writes N(a -> x) v_a = N(b -> x) v_b once, at
    each minimal x of S ∩ up(a) ∩ up(b).  At any higher x' of that set the
    equation is this one pushed along N(x -> x'), so the kernel is the same
    as with every pair at every x: the limit of n over S, read off at the
    sources.
    """
    p = s.poset
    if n.poset is not p and n.poset != p:  # identity first: this runs per member and module
        raise PosetMismatchError("the spread and the module live over different posets")
    offsets, total = stacked_offsets(s.sources, n)
    rows = []
    if not total or not s.sources & (s.sources - 1):  # no unknowns, or one source
        return Matrix(rows, total)
    for a, b in combinations(iter_mask(s.sources), 2):
        for x in iter_mask(p.minimal_elements(s.support & p.up_mask(a) & p.up_mask(b))):
            if n.dims[x]:
                rows += _placed(total, [(offsets[a], n.map_along(a, x)),
                                        (offsets[b], n.field.neg(n.map_along(b, x)))])
    return Matrix(rows, total)


def yoneda_basis(s: Spread, n: PersistenceModule) -> Matrix:
    """Hom(M_s, n): its basis columns in source coordinates.

    The system is the agreement system plus N(a -> y) v_a = 0 for each source
    a and each minimal y of up(a) outside S.  A morphism vanishes off S, so
    these rows hold on Hom; the vanishing at any other y ≥ a outside S is one
    of them pushed along N(y' -> y), for a minimal y' ≤ y.  So the solution
    space is Hom(M_s, n) itself.  A system with no rows needs no elimination:
    its canonical kernel basis is the identity.
    """
    p = s.poset
    agree = agreement_system(s, n)
    total = agree.shape[1]
    rows = list(agree.rows)
    offset = 0
    for a in iter_mask(s.sources):
        for y in iter_mask(p.minimal_elements(p.up_mask(a) & ~s.support)):
            if n.dims[y]:
                rows += _placed(total, [(offset, n.map_along(a, y))])
        offset += n.dims[a]
    if not rows:
        return n.field.eye(total)
    return n.field.kernel_basis(Matrix(rows, total))


def yoneda_values(s: Spread, n: PersistenceModule, w: Matrix, x: int) -> Matrix:
    """Components at x in supp(s), pushed from its least source below x, of the columns of w.

    At a source x itself that is the block of w at x, sharing its rows.
    """
    offset = 0
    for a in iter_mask(s.sources):
        if s.poset.leq(a, x):
            block = Matrix(w.rows[offset:offset + n.dims[a]], w.shape[1])
            return block if a == x else n.field.matmul(n.map_along(a, x), block)
        offset += n.dims[a]
    raise ValueError(f"{s.poset.label(x)} lies above no source of the spread {s.render()}")


def hom_basis(m: PersistenceModule, n: PersistenceModule) -> Matrix:
    """A basis of the space of morphisms m -> n: the canonical kernel of the naturality system.

    Its columns are in the layout of `Morphism.vec`; `morphism_from_vec`
    reads one back.  It depends only on the values of m and n, never on how
    they were built.
    """
    _check_endpoints(m, n)
    return m.field.kernel_basis(_naturality_system(m, n))


def hom_dim(m: PersistenceModule, n: PersistenceModule) -> int:
    """dim Hom(m, n): the width of `hom_basis`."""
    return hom_basis(m, n).shape[1]


def spread_hom_components(s: Spread, t: Spread) -> tuple[int, ...]:
    """Supports of the indicator basis of Hom(M_s, M_t), by largest element id.

    A component X of the support intersection carries a morphism when every
    source of s lying below X belongs to X and every target of t lying above
    X belongs to X.  Such an X holds a source of s and a target of t, so a
    pair without a source of s in t or a target of t in s is rejected before
    any component is computed.
    """
    p = s.poset
    if t.poset is not p and t.poset != p:  # identity first: this runs per member pair
        raise PosetMismatchError("spreads live over different posets")
    if not (s.sources & t.support and t.targets & s.support):
        return ()
    out = []
    for comp in p.connected_components(s.support & t.support):
        if not p.up_set(s.sources & ~comp) & comp and not p.down_set(t.targets & ~comp) & comp:
            out.append(comp)
    if len(out) > 1:
        out.sort(key=int.bit_length)
    return tuple(out)


def spread_hom_dim(s: Spread, t: Spread) -> int:
    """dim Hom of two spread modules: the number of `spread_hom_components`."""
    return len(spread_hom_components(s, t))


def _subfunctor(m: PersistenceModule, bases, coords, what: str):
    """The submodule of m spanned at each a by the columns of bases[a]; returns (module, inclusion).

    coords(b, v) gives the coordinates of the columns v in bases[b], or None
    when they leave its span.
    """
    field = m.field
    maps = {}
    for a, b in m.poset.covers:
        x = coords(b, field.matmul(m.maps[(a, b)], bases[a]))
        if x is None:  # naturality guarantees the span is preserved
            raise AssertionError(f"{what} is not preserved by a structure map")
        maps[(a, b)] = x
    sub = PersistenceModule._build(m.poset, field, tuple(b.shape[1] for b in bases), maps)
    return sub, Morphism._build(sub, m, bases)


def kernel_module(f: Morphism):
    """The kernel subfunctor of a morphism; returns (module, inclusion).

    The kernel bases come from one rref of each component.  Each is the
    identity on its free rows, so the coordinates of columns v in the basis
    at b are the free rows of v; one product checks that v lies in the
    kernel's span.
    """
    field = f.source.field
    reduced = [field.rref(c) for c in f.components]
    bases = [field.kernel_of_rref(red, pivots) for red, pivots in reduced]
    free = [free_columns(red.shape[1], pivots) for red, pivots in reduced]

    def coords(b, v):
        x = Matrix([v.rows[i] for i in free[b]], v.shape[1])
        return x if field.matmul(bases[b], x) == v else None

    return _subfunctor(f.source, bases, coords, "kernel")


def image_module(f: Morphism):
    """The image subfunctor of a morphism; returns (module, inclusion into target), by one solve per cover."""
    field = f.target.field
    bases = [field.column_space_basis(c) for c in f.components]
    return _subfunctor(f.target, bases, lambda b, v: field.solve(bases[b], v), "image")
