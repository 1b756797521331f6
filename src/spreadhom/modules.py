"""Persistence modules over a finite poset, and their morphisms.

A module assigns a finite-dimensional F_p vector space to each element and a
matrix to each cover, such that every diamond commutes.  Matrices act on
column vectors: the map along a cover (a, b) has shape (dim_b, dim_a).
"""
from __future__ import annotations

from itertools import combinations
from operator import index

from .errors import (
    CommutativityError,
    HookOrderError,
    NotComparableError,
    PosetMismatchError,
    ShapeError,
)
from .field import Matrix, PrimeField
from .poset import Poset, Spread, iter_mask, spread_from_convex


def _matrix(field: PrimeField, data, cols: int) -> Matrix:
    """`field.arr(data)`, where a matrix written with no rows, such as [], has `cols` columns."""
    m = field.arr(data)
    return Matrix([], cols) if m.shape == (0, 0) else m


class PersistenceModule:
    """A vector space per element and a matrix per cover, every diamond commuting.

    The constructor reduces each map mod p, checks the dimensions, each map's
    shape and that its key is a cover (a missing cover is the zero map), and
    validates commutativity.  The library's own constructions go through
    `_build`, which checks nothing.
    """

    def __init__(self, poset: Poset, field: PrimeField, dims, maps=None):
        dims = tuple(index(d) for d in dims)
        if len(dims) != poset.n:
            raise ShapeError(f"{len(dims)} dimensions for {poset.n} elements")
        if any(d < 0 for d in dims):
            raise ShapeError("negative dimension")
        maps = dict(maps or {})
        self.maps = {}
        for a, b in poset.covers:
            m = maps.pop((a, b), None)
            m = self.maps[(a, b)] = field.zeros(dims[b], dims[a]) if m is None else _matrix(field, m, dims[a])
            if m.shape != (dims[b], dims[a]):
                raise ShapeError(
                    f"map {poset.label(a)}->{poset.label(b)} has shape {m.shape}, "
                    f"expected {(dims[b], dims[a])}"
                )
        if maps:
            raise ShapeError(f"maps given for non-cover pairs: {sorted(maps)}")
        self.poset, self.field, self.dims, self._along = poset, field, dims, {}
        self._validate_commutativity()

    @classmethod
    def _build(cls, poset: Poset, field: PrimeField, dims: tuple[int, ...], maps):
        """Reduced maps of the right shapes (a missing cover is 0), unchecked."""
        out = cls.__new__(cls)
        out.poset, out.field, out.dims, out._along = poset, field, dims, {}
        out.maps = {(a, b): maps.get((a, b)) or field.zeros(dims[b], dims[a]) for a, b in poset.covers}
        return out

    def _validate_commutativity(self):
        # Two cover-paths into c through parents q and r start at a common
        # lower bound of q and r, which lies below a maximal one a.  With c
        # visited in topological order every square below c already holds, so
        # the two paths agree exactly when M(q->c)M(a->q) = M(r->c)M(a->r).
        p, f = self.poset, self.field
        for c in p.topo_order:
            for q, r in combinations(p.parents(c), 2):
                for a in iter_mask(p.maximal_elements(p.down_mask(q) & p.down_mask(r))):
                    if (f.matmul(self.maps[(q, c)], self.map_along(a, q))
                            != f.matmul(self.maps[(r, c)], self.map_along(a, r))):
                        raise CommutativityError(
                            f"paths {p.label(a)} -> {p.label(c)} disagree (one through {p.label(r)})"
                        )

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def support_mask(self) -> int:
        m = 0
        for a, d in enumerate(self.dims):
            if d:
                m |= 1 << a
        return m

    def map_along(self, a: int, b: int) -> Matrix:
        """The structure map M(a -> b) for any comparable pair a <= b."""
        cached = self._along.get((a, b))
        if cached is not None:
            return cached
        if not self.poset.leq(a, b):
            raise NotComparableError(
                f"{self.poset.label(a)} <= {self.poset.label(b)} fails"
            )
        # Down the first parent above a to a cached map (or a itself), then
        # back up, caching each step: a loop, however long the chain.
        path = []
        while b != a and (a, b) not in self._along:
            p = next(q for q in self.poset.parents(b) if self.poset.leq(a, q))
            path.append((p, b))
            b = p
        out = None if b == a else self._along[(a, b)]  # a cached identity at a is never multiplied
        if out is None:
            if not path:
                out = self._along[(a, a)] = self.field.eye(self.dims[a])
            else:  # the first step is the cover map itself: a Matrix is immutable, so share it
                p, c = path.pop()
                out = self._along[(a, c)] = self.maps[(p, c)]
        for p, c in reversed(path):
            out = self._along[(a, c)] = self.field.matmul(self.maps[(p, c)], out)
        return out

    def restrict(self, mask: int):
        """Restriction to an induced subposet; returns (module, SubPoset)."""
        sub = self.poset.subposet(mask)
        dims = tuple(self.dims[sub.to_parent(i)] for i in range(sub.poset.n))
        maps = {(i, j): self.map_along(sub.to_parent(i), sub.to_parent(j)) for i, j in sub.poset.covers}
        return PersistenceModule._build(sub.poset, self.field, dims, maps), sub

    def __eq__(self, other):
        return (
            isinstance(other, PersistenceModule)
            and self.poset == other.poset
            and self.field == other.field
            and self.dims == other.dims
            and all(self.maps[k] == other.maps[k] for k in self.maps)
        )

    def __repr__(self):
        return f"PersistenceModule(dims={self.dims})"


class Morphism:
    """A natural transformation f: M -> N given by one matrix per element.

    The constructor checks that the endpoints share poset and prime, reduces
    each component mod p, checks its shape, and validates naturality on every
    cover.  The library's own constructions go through `_build`, which checks nothing.
    """

    def __init__(self, source: PersistenceModule, target: PersistenceModule, components):
        if source.poset != target.poset:
            raise PosetMismatchError("morphism endpoints live over different posets")
        if source.field != target.field:
            raise PosetMismatchError("morphism endpoints use different primes")
        field = source.field
        comps = []
        for a in range(source.poset.n):
            c = _matrix(field, components[a], source.dims[a])
            if c.shape != (target.dims[a], source.dims[a]):
                raise ShapeError(
                    f"component at {source.poset.label(a)} has shape {c.shape}, "
                    f"expected {(target.dims[a], source.dims[a])}"
                )
            comps.append(c)
        self.source, self.target, self.components = source, target, tuple(comps)
        self._validate_naturality()

    @classmethod
    def _build(cls, source: PersistenceModule, target: PersistenceModule, components):
        """Reduced components of the right shapes, unchecked."""
        out = cls.__new__(cls)
        out.source, out.target, out.components = source, target, tuple(components)
        return out

    def _validate_naturality(self):
        f = self.source.field
        for a, b in self.source.poset.covers:
            left = f.matmul(self.components[b], self.source.maps[(a, b)])
            right = f.matmul(self.target.maps[(a, b)], self.components[a])
            if left != right:
                raise CommutativityError(
                    f"naturality fails on cover "
                    f"{self.source.poset.label(a)}->{self.source.poset.label(b)}"
                )

    def __matmul__(self, other: "Morphism") -> "Morphism":
        if other.target is not self.source and other.target != self.source:
            raise PosetMismatchError("composition endpoints do not match")
        f = self.source.field
        comps = [f.matmul(self.components[a], other.components[a]) for a in range(self.source.poset.n)]
        return Morphism._build(other.source, self.target, comps)

    def vec(self) -> list[int]:
        """Flatten to one column: per element, the component in column-major order."""
        return [x for c in self.components for col in zip(*c.rows) for x in col]

    def is_zero(self) -> bool:
        return not any(any(row) for c in self.components for row in c.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and all(a == b for a, b in zip(self.components, other.components))
        )

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def morphism_from_vec(source: PersistenceModule, target: PersistenceModule, v) -> Morphism:
    """Inverse of Morphism.vec for the same element/column-major layout, checked like any `Morphism`."""
    comps = []
    off = 0
    for a in range(source.poset.n):
        rows, cols = target.dims[a], source.dims[a]
        block = v[off:off + rows * cols]
        off += rows * cols
        comps.append(Matrix([block[i::rows] for i in range(rows)], cols))
    if off != len(v):
        raise ShapeError(f"vector of length {len(v)}, expected {off}")
    return Morphism(source, target, comps)


# -- constructors --------------------------------------------------------------


def zero_module(poset: Poset, field: PrimeField) -> PersistenceModule:
    return PersistenceModule._build(poset, field, (0,) * poset.n, {})


def spread_module(spr: Spread, field: PrimeField) -> PersistenceModule:
    """The thin indecomposable with the spread's support: all maps inside are 1."""
    p = spr.poset
    dims = tuple(1 if spr.support >> a & 1 else 0 for a in range(p.n))
    maps = {}
    one = Matrix([[1]], 1)
    for a, b in p.covers:
        if spr.support >> a & 1 and spr.support >> b & 1:
            maps[(a, b)] = one
    return PersistenceModule._build(p, field, dims, maps)


def interval_module(p: Poset, field: PrimeField, a: int, b: int) -> PersistenceModule:
    return spread_module(spread_from_convex(p, p.interval_mask(a, b)), field)


def simple_module(p: Poset, field: PrimeField, a: int) -> PersistenceModule:
    return spread_module(spread_from_convex(p, 1 << a), field)


def projective_module(p: Poset, field: PrimeField, a: int) -> PersistenceModule:
    return spread_module(spread_from_convex(p, p.up_mask(a)), field)


def hook_module(p: Poset, field: PrimeField, a: int, b: int | None = None) -> PersistenceModule:
    """The hook at a with upper cut b: support up(a) minus up(b).

    With b omitted this is the full principal up-set at a (the projective).
    """
    if b is None:
        return projective_module(p, field, a)
    if not p.lt(a, b):
        raise HookOrderError(f"{p.label(a)} < {p.label(b)} fails")
    support = p.up_mask(a) & ~p.up_mask(b)
    return spread_module(spread_from_convex(p, support), field)


def direct_sum(summands) -> PersistenceModule:
    summands = list(summands)
    if not summands:
        raise ValueError("direct_sum of nothing; use zero_module")
    p = summands[0].poset
    field = summands[0].field
    for m in summands[1:]:
        if m.poset != p or m.field != field:
            raise PosetMismatchError("direct summands must share poset and prime")
    dims = tuple(sum(m.dims[a] for m in summands) for a in range(p.n))
    maps = {}
    for a, b in p.covers:
        rows = []
        c = 0
        for m in summands:
            blk = m.maps[(a, b)]
            left, right = [0] * c, [0] * (dims[a] - c - blk.shape[1])
            rows.extend(left + row + right for row in blk.rows)
            c += blk.shape[1]
        maps[(a, b)] = Matrix(rows, dims[a])
    return PersistenceModule._build(p, field, dims, maps)
