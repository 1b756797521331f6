"""Hom spaces between persistence modules.

`hom_dim` and `hom_basis` pick one of three routes by what the endpoints are
(method="auto"):

- both modules are tagged with their spread: the combinatorial route.  The
  basis is one indicator morphism per valid component of the intersection
  of the supports (`spread_hom_components`), and `spread_hom_dim` counts
  them.
- only the source is a tagged spread module M_S: Yoneda.  M_S is a quotient
  of ⊕_{a ∈ min S} P_a and Hom(P_a, N) = N_a, so a morphism is a tuple
  (v_a) in ⊕ N_a whose pushes N(a -> x) v_a agree at every x in S and
  vanish across every cover leaving S (`yoneda_basis`).
- otherwise: the naturality solver, one linear system over all covers.

method="solver" forces the solver for any pair; the tests hold the other two
routes against it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PosetMismatchError
from .modules import Morphism, PersistenceModule, morphism_from_vec
from .poset import Spread, iter_mask


@dataclass
class HomBasis:
    source: PersistenceModule
    target: PersistenceModule
    basis: tuple[Morphism, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> np.ndarray:
        """Basis vectors as columns (vec layout of Morphism.vec)."""
        u = sum(self.source.dims[a] * self.target.dims[a] for a in range(self.source.poset.n))
        if not self.basis:
            return np.zeros((u, 0), dtype=np.int64)
        return np.stack([f.vec() for f in self.basis], axis=1)

    def linear_combination(self, coeffs) -> Morphism:
        field = self.source.field
        coeffs = field.arr(coeffs).reshape(-1)
        if coeffs.shape[0] != len(self.basis):
            raise ValueError(f"{coeffs.shape[0]} coefficients for {len(self.basis)} basis morphisms")
        v = (self.matrix() @ coeffs) % field.p
        return morphism_from_vec(self.source, self.target, v)


def _naturality_system(m: PersistenceModule, n: PersistenceModule) -> np.ndarray:
    """Rows: one equation block per cover; columns: unknown entries of all f_a.

    Unknowns are ordered element-major, each component column-major, matching
    Morphism.vec.  For a cover (a, b) the equation f_b M_ab - N_ab f_a = 0
    vectorizes to kron(M_ab^T, I) vec(f_b) - kron(I, N_ab) vec(f_a) = 0.
    """
    p = m.poset
    field = m.field
    sizes = [m.dims[a] * n.dims[a] for a in range(p.n)]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rows = []
    for a, b in p.covers:
        neq = n.dims[b] * m.dims[a]
        if neq == 0:
            continue
        block = np.zeros((neq, total), dtype=np.int64)
        if sizes[b]:
            block[:, offsets[b]:offsets[b + 1]] = np.kron(m.maps[(a, b)].T, np.eye(n.dims[b], dtype=np.int64))
        if sizes[a]:
            block[:, offsets[a]:offsets[a + 1]] = (
                block[:, offsets[a]:offsets[a + 1]]
                - np.kron(np.eye(m.dims[a], dtype=np.int64), n.maps[(a, b)])
            )
        rows.append(block % field.p)
    if not rows:
        return np.zeros((0, total), dtype=np.int64)
    return np.concatenate(rows, axis=0)


def _check_endpoints(m: PersistenceModule, n: PersistenceModule):
    if m.poset != n.poset:
        raise PosetMismatchError("hom endpoints live over different posets")
    if m.field != n.field:
        raise PosetMismatchError("hom endpoints use different primes")


def _least_source_below(s: Spread, x: int) -> int:
    below = s.sources & s.poset.down_mask(x)
    return (below & -below).bit_length() - 1


def _yoneda_system(s: Spread, n: PersistenceModule):
    """Equations on (v_a)_{a in sources(s)}, stacked in ⊕ n_a; returns (system, offsets).

    Each x in S has N(a0 -> x) v_a0 = N(a -> x) v_a for its least source a0
    and every other source a below it; each cover x -> y leaving S has
    N(a0 -> y) v_a0 = 0.
    """
    p = s.poset
    field = n.field
    offsets = {}
    total = 0
    for a in iter_mask(s.sources):
        offsets[a] = total
        total += n.dims[a]

    def row(x, a, mat):
        r = np.zeros((n.dims[x], total), dtype=np.int64)
        r[:, offsets[a]:offsets[a] + n.dims[a]] = mat
        return r

    rows = []
    exits = set()
    for x in iter_mask(s.support):
        a0 = _least_source_below(s, x)
        if n.dims[x]:
            for a in iter_mask(s.sources & p.down_mask(x) & ~(1 << a0)):
                r = row(x, a0, n.map_along(a0, x))
                r[:, offsets[a]:offsets[a] + n.dims[a]] = field.neg(n.map_along(a, x))
                rows.append(r)
        for y in p.children(x):
            if not (s.support >> y & 1) and n.dims[y] and (a0, y) not in exits:
                exits.add((a0, y))
                rows.append(row(y, a0, n.map_along(a0, y)))
    if not rows:
        return np.zeros((0, total), dtype=np.int64), offsets
    return np.concatenate(rows, axis=0), offsets


def yoneda_basis(s: Spread, n: PersistenceModule) -> tuple[dict[int, int], np.ndarray]:
    """Hom(M_s, n) in source coordinates: (row offset of each source in ⊕ n_a, basis columns)."""
    system, offsets = _yoneda_system(s, n)
    return offsets, n.field.kernel_basis(system)


def yoneda_values(s: Spread, n: PersistenceModule, offsets, w: np.ndarray, x: int) -> np.ndarray:
    """Components at x in supp(s) of the morphisms with source coordinates w (columns)."""
    a = _least_source_below(s, x)
    return n.field.matmul(n.map_along(a, x), w[offsets[a]:offsets[a] + n.dims[a]])


def yoneda_morphism(m: PersistenceModule, n: PersistenceModule, offsets, v) -> Morphism:
    """The morphism from the spread module m with source coordinates v."""
    s = m.spread
    w = np.asarray(v, dtype=np.int64).reshape(-1, 1)
    comps = [
        yoneda_values(s, n, offsets, w, x) if s.support >> x & 1 else n.field.zeros(n.dims[x], 0)
        for x in range(s.poset.n)
    ]
    return Morphism(m, n, comps, validate=False)


def _indicator(m: PersistenceModule, n: PersistenceModule, comp: int) -> Morphism:
    field = m.field
    comps = [
        field.eye(1) if comp >> x & 1 else field.zeros(n.dims[x], m.dims[x])
        for x in range(m.poset.n)
    ]
    return Morphism(m, n, comps, validate=False)


def hom_basis(m: PersistenceModule, n: PersistenceModule, method: str = "auto") -> HomBasis:
    """A basis of the space of morphisms m -> n, deterministic for fixed input.

    method: auto (route by spread tags, see the module docstring) | solver.
    """
    if method not in ("auto", "solver"):
        raise ValueError(f"unknown method {method!r}")
    _check_endpoints(m, n)
    if method == "auto" and m.spread is not None:
        if n.spread is not None:
            comps = spread_hom_components(m.spread, n.spread)
            return HomBasis(m, n, tuple(_indicator(m, n, c) for c in comps))
        offsets, w = yoneda_basis(m.spread, n)
        return HomBasis(m, n, tuple(
            yoneda_morphism(m, n, offsets, w[:, j]) for j in range(w.shape[1])
        ))
    kernel = m.field.kernel_basis(_naturality_system(m, n))
    basis = tuple(
        morphism_from_vec(m, n, kernel[:, j], validate=False)
        for j in range(kernel.shape[1])
    )
    return HomBasis(m, n, basis)


def hom_dim(m: PersistenceModule, n: PersistenceModule, method: str = "auto") -> int:
    """dim Hom(m, n).  method: auto | solver | spread (both tagged, counted)."""
    if method not in ("auto", "solver", "spread"):
        raise ValueError(f"unknown method {method!r}")
    if method != "solver" and m.spread is not None and n.spread is not None:
        return spread_hom_dim(m.spread, n.spread)
    if method == "spread":
        raise ValueError("spread method needs both modules tagged with their spread")
    _check_endpoints(m, n)
    if method == "auto" and m.spread is not None:
        system, _ = _yoneda_system(m.spread, n)
    else:
        system = _naturality_system(m, n)
    return system.shape[1] - m.field.rank(system)


def spread_hom_components(s: Spread, t: Spread) -> tuple[int, ...]:
    """Supports of the indicator basis of Hom(M_s, M_t), by largest element id.

    A component X of the support intersection carries a morphism when every
    source of s lying below X belongs to X and every target of t lying above
    X belongs to X.
    """
    p = s.poset
    if t.poset is not p and t.poset != p:  # identity first: this runs per member pair
        raise PosetMismatchError("spreads live over different posets")
    both = s.support & t.support
    if not both:
        return ()
    out = []
    for comp in p.connected_components(both):
        for a in iter_mask(s.sources & ~comp):
            if p.up_mask(a) & comp:
                break
        else:
            for d in iter_mask(t.targets & ~comp):
                if p.down_mask(d) & comp:
                    break
            else:
                out.append(comp)
    if len(out) > 1:
        out.sort(key=int.bit_length)
    return tuple(out)


def spread_hom_dim(s: Spread, t: Spread) -> int:
    """dim Hom of two spread modules: the number of `spread_hom_components`."""
    return len(spread_hom_components(s, t))


def kernel_module(f: Morphism):
    """The kernel subfunctor of a morphism; returns (module, inclusion)."""
    m, n = f.source, f.target
    field = m.field
    p = m.poset
    bases = [field.kernel_basis(f.components[a]) for a in range(p.n)]
    dims = tuple(b.shape[1] for b in bases)
    maps = {}
    for a, b in p.covers:
        # M_ab maps ker f_a into ker f_b; rewrite in the kernel bases.
        img = field.matmul(m.maps[(a, b)], bases[a])
        sol = field.solve(bases[b], img)
        if sol is None:  # naturality guarantees solvability
            raise AssertionError("kernel is not preserved by a structure map")
        maps[(a, b)] = sol
    k = PersistenceModule(p, field, dims, maps, validate=False)
    incl = Morphism(k, m, bases, validate=False)
    return k, incl


def image_module(f: Morphism):
    """The image subfunctor of a morphism; returns (module, inclusion into target)."""
    m, n = f.source, f.target
    field = m.field
    p = m.poset
    bases = [field.column_space_basis(f.components[a]) for a in range(p.n)]
    dims = tuple(b.shape[1] for b in bases)
    maps = {}
    for a, b in p.covers:
        img = field.matmul(n.maps[(a, b)], bases[a])
        sol = field.solve(bases[b], img)
        if sol is None:
            raise AssertionError("image is not preserved by a structure map")
        maps[(a, b)] = sol
    i = PersistenceModule(p, field, dims, maps, validate=False)
    incl = Morphism(i, n, bases, validate=False)
    return i, incl
