"""Seeded benchmark inputs and the benchmark's own oracles.

Nothing here imports spreadhom; all linear algebra is F_p elimination on
plain Python integers.  There are two draws.

The `resolve` modules follow spreadhom.randmod.random_module: a base-changed
sum of up to three spread modules (connected convex subsets of the 4x4 grid),
or, 40 % of the time, the kernel of a uniformly random morphism into another
such sum.  The Hom spaces for that morphism are solved here, so a change to
how the library picks Hom bases cannot change the workload.

The batch files are subquotients of a constant module F_p^k on the 3x3
grid: generic birth vectors w_i appear at elements b_i, generic death
vectors u_j are quotiented out from elements d_j on, and

    V_x = (B_x + D_x) / D_x,   B_x = span{w_i : b_i <= x},  D_x = span{u_j : d_j <= x}

with every structure map induced by the identity of F_p^k, so every square
commutes by construction.  Four of them are base-changed copies of others.

The oracles are second routes for the batch comparisons:

- `compare diagram --collection intervals`: the builtin `intervals`
  collection is the segments [a, b] = {x : a <= x <= b}, a <= b.  A segment
  has a least and a greatest element, so the limit over it is M_a, the
  colimit is M_b, and its generalized rank is rank M(a->b).  The generalized
  rank vector over the collection is therefore the rank invariant over
  comparable pairs, and Moebius inversion over the containment poset is
  invertible, so two signed diagrams agree exactly when the rank invariants
  do.  (Over all connected convex sets this would not hold.)
- `compare class --family single_source`: the class relative to the family
  is fixed by the dim-Hom vector against its members, with
  Hom(M_S, N) = {v in N_a : N(a->y) v = 0 for y in up(a) outside S} for a
  single-source spread S with source a.
"""
from __future__ import annotations

import hashlib
import json
import random

PRIME = 32003


# -- F_p elimination on lists of rows ------------------------------------------


def rref(rows, ncols, p=PRIME):
    """Reduced row echelon form of a list of rows; returns (rows, pivot columns)."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def rank(rows, ncols, p=PRIME):
    return len(rref(rows, ncols, p)[1]) if rows and ncols else 0


def kernel_basis(mat, ncols, p=PRIME):
    """A basis (list of vectors) of the null space of a matrix given as rows."""
    red, piv = rref(mat, ncols, p)
    free = [c for c in range(ncols) if c not in piv]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(piv):
            v[c] = -red[i][f] % p
        basis.append(v)
    return basis


def coordinates(basis, vec, p=PRIME):
    """Coefficients c with sum c_i basis[i] = vec; basis vectors independent."""
    n = len(basis)
    k = len(vec)
    aug = [[basis[j][i] for j in range(n)] + [vec[i]] for i in range(k)]
    red, piv = rref(aug, n + 1, p)
    if n in piv:
        raise ValueError("vector outside the span")
    coeffs = [0] * n
    for i, c in enumerate(piv):
        coeffs[c] = red[i][n]
    return coeffs


def matmul(a, b, cols, p=PRIME):
    """a (r x m) times b (m x cols) for lists of rows; m may be 0."""
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) % p for j in range(cols)]
            for i in range(len(a))]


def inverse(u, p=PRIME):
    d = len(u)
    red, piv = rref([row + [int(i == j) for j in range(d)] for i, row in enumerate(u)], 2 * d, p)
    if piv[:d] != list(range(d)):
        raise ValueError("singular")
    return [row[d:] for row in red]


# -- grids ------------------------------------------------------------------------


class Grid:
    """The product of two chains; element i*ny+j is labeled f"{i}{j}"."""

    def __init__(self, nx, ny):
        self.nx, self.ny = nx, ny
        self.n = nx * ny
        self.names = [f"{i}{j}" for i in range(nx) for j in range(ny)]
        self.covers = []
        for i in range(nx):
            for j in range(ny):
                if i + 1 < nx:
                    self.covers.append((i * ny + j, (i + 1) * ny + j))
                if j + 1 < ny:
                    self.covers.append((i * ny + j, i * ny + j + 1))

    def leq(self, a, b):
        return a // self.ny <= b // self.ny and a % self.ny <= b % self.ny

    def transpose(self, a):
        """The mirror image (i, j) -> (j, i) of an element of a square grid."""
        return (a % self.ny) * self.ny + a // self.ny

    def up(self, a):
        return [b for b in range(self.n) if self.leq(a, b)]


class Module:
    """dims per element and a dict cover -> matrix (list of rows, dim_b x dim_a)."""

    def __init__(self, grid, dims, maps):
        self.grid, self.dims, self.maps = grid, list(dims), dict(maps)

    def along(self, a, b):
        """The composite along a cover path a -> b (a <= b), as a matrix."""
        g = self.grid
        mat = [[int(i == j) for j in range(self.dims[a])] for i in range(self.dims[a])]
        cur = a
        while cur != b:
            step = cur + g.ny if cur // g.ny < b // g.ny else cur + 1
            mat = matmul(self.maps[(cur, step)], mat, self.dims[a])
            cur = step
        return mat


# -- random draws --------------------------------------------------------------------


def _vec(rng, k):
    return [rng.randrange(PRIME) for _ in range(k)]


def draw_shape(grid, rng):
    """Ambient dimension and the birth and death elements of one module."""
    k = rng.choice((2, 3))
    births = [0] + [rng.randrange(grid.n) for _ in range(k - 1 + rng.randint(0, 2))]
    deaths = [rng.randrange(grid.n) for _ in range(rng.randint(1, 2))]
    return k, births, deaths


def subquotient_module(grid, shape, rng, transpose=False):
    """The subquotient module of a shape, with generic vectors drawn from rng."""
    k, births, deaths = shape
    if transpose:
        births, deaths = ([grid.transpose(x) for x in xs] for xs in (births, deaths))
    births = [(x, _vec(rng, k)) for x in births]
    deaths = [(x, _vec(rng, k)) for x in deaths]
    dbasis, ext = [], []
    for x in range(grid.n):
        dx = [u for d, u in deaths if grid.leq(d, x)]
        red, piv = rref(dx, k)
        red = red[:len(piv)]
        chosen = []
        for b, w in births:
            if grid.leq(b, x) and rank(red + chosen + [w], k) > len(red) + len(chosen):
                chosen.append(w)
        dbasis.append(red)
        ext.append(chosen)
    maps = {}
    for a, b in grid.covers:
        basis = dbasis[b] + ext[b]
        cols = [coordinates(basis, e)[len(dbasis[b]):] for e in ext[a]]
        maps[(a, b)] = [[cols[j][i] for j in range(len(cols))] for i in range(len(ext[b]))]
    return Module(grid, [len(e) for e in ext], maps)


def _invertible(rng, d):
    while True:
        u = [_vec(rng, d) for _ in range(d)]
        if rank(u, d) == d:
            return u


def base_change(m, rng):
    """An isomorphic copy with random bases at every element."""
    us = [_invertible(rng, d) for d in m.dims]
    maps = {}
    for (a, b), mat in m.maps.items():
        if m.dims[a] and m.dims[b]:
            maps[(a, b)] = matmul(us[b], matmul(mat, inverse(us[a]), m.dims[a]), m.dims[a])
        else:
            maps[(a, b)] = mat
    return Module(m.grid, m.dims, maps)


# -- random spread sums, drawn as spreadhom.randmod.random_module draws them -------


def connected_convex_sets(grid):
    """Every connected convex subset of the grid (its spreads), as sorted tuples.

    Grown from single elements one Hasse neighbour at a time, each step closed
    under convexity; a convex hull of a connected set stays connected.
    """
    adj = [set() for _ in range(grid.n)]
    for a, b in grid.covers:
        adj[a].add(b)
        adj[b].add(a)

    def hull(s):
        return frozenset(x for x in range(grid.n)
                         if any(grid.leq(a, x) for a in s) and any(grid.leq(x, b) for b in s))

    seen = {frozenset([a]) for a in range(grid.n)}
    frontier = list(seen)
    while frontier:
        grown = set()
        for s in frontier:
            for y in set().union(*(adj[x] for x in s)) - s:
                h = hull(s | {y})
                if h not in seen:
                    seen.add(h)
                    grown.add(h)
        frontier = list(grown)
    return sorted(tuple(sorted(s)) for s in seen)


def spread_sum(grid, supports):
    """The direct sum of the spread modules (F_p on the support, identity maps)."""
    index = [[i for i, s in enumerate(supports) if x in s] for x in range(grid.n)]
    maps = {(a, b): [[int(i == j and a in supports[i]) for j in index[a]] for i in index[b]]
            for a, b in grid.covers}
    return Module(grid, [len(ix) for ix in index], maps)


def hom_basis(m, n):
    """A basis of Hom(m, n): families (f_x) with n(a->b) f_a = f_b m(a->b) on covers.

    The unknowns are the entries of every f_x (dim n_x x dim m_x, row-major);
    a basis vector is returned as the dict x -> f_x.
    """
    g = m.grid
    offsets, total = [], 0
    for x in range(g.n):
        offsets.append(total)
        total += n.dims[x] * m.dims[x]

    def var(x, i, j):
        return offsets[x] + i * m.dims[x] + j

    rows = []
    for a, b in g.covers:
        ma, nab = m.maps[(a, b)], n.maps[(a, b)]
        for i in range(n.dims[b]):
            for j in range(m.dims[a]):
                row = [0] * total
                for t in range(n.dims[a]):      # (n(a->b) f_a)[i][j]
                    if nab[i][t]:
                        row[var(a, t, j)] += nab[i][t]
                for t in range(m.dims[b]):      # (f_b m(a->b))[i][j]
                    if ma[t][j]:
                        row[var(b, i, t)] -= ma[t][j]
                rows.append(row)
    basis = []
    for v in kernel_basis(rows, total) if total else []:
        basis.append({x: [[v[var(x, i, j)] for j in range(m.dims[x])] for i in range(n.dims[x])]
                      for x in range(g.n)})
    return basis


def random_morphism(m_parts, n_parts, rng):
    """A uniformly random morphism between two spread sums, as x -> f_x.

    Hom of sums is the sum of the Homs between summands, so each block is a
    random combination of that block's basis; the result is uniform on
    Hom(m, n) whatever bases are used.
    """
    g = m_parts[0].grid
    f = {x: [[0] * sum(s.dims[x] for s in m_parts) for _ in range(sum(t.dims[x] for t in n_parts))]
         for x in range(g.n)}
    for j, s in enumerate(m_parts):
        for i, t in enumerate(n_parts):
            for h in hom_basis(s, t):
                c = rng.randrange(PRIME)
                for x in range(g.n):
                    if s.dims[x] and t.dims[x]:
                        row = sum(tt.dims[x] for tt in n_parts[:i])
                        col = sum(ss.dims[x] for ss in m_parts[:j])
                        f[x][row][col] = (f[x][row][col] + c * h[x][0][0]) % PRIME
    return f


def kernel_module(m, f):
    """The kernel of f: m -> n, with the structure maps m induces on it."""
    g = m.grid
    kb = [kernel_basis(f[x], m.dims[x]) if m.dims[x] else [] for x in range(g.n)]
    maps = {}
    for a, b in g.covers:
        cols = [coordinates(kb[b], [sum(r[t] * v[t] for t in range(len(v))) % PRIME
                                    for r in m.maps[(a, b)]]) for v in kb[a]]
        maps[(a, b)] = [[cols[j][i] for j in range(len(cols))] for i in range(len(kb[b]))]
    return Module(g, [len(k) for k in kb], maps)


def random_module(grid, spreads, design, rng, max_summands=3):
    """A base-changed sum of up to max_summands spreads or, 40 % of the time,
    the kernel of a random morphism into another such sum.

    This follows spreadhom.randmod.random_module draw for draw, with two
    differences: the choices that fix the module's shape (how many spreads,
    which ones, kernel or not) come from `design`, and the Hom basis is
    computed here, so no library Hom basis ever reaches the inputs.
    """
    def picks():
        return [spreads[design.randrange(len(spreads))]
                for _ in range(design.randint(1, max_summands))]

    m_supports = picks()
    m = spread_sum(grid, m_supports)
    if design.random() < 0.4:
        f = random_morphism([spread_sum(grid, [s]) for s in m_supports],
                            [spread_sum(grid, [t]) for t in picks()], rng)
        ker = kernel_module(m, f)
        if any(ker.dims):
            m = ker
    return base_change(m, rng)


# The shape of every module comes from a fixed design (DESIGN_SEED); --seed
# draws the generic coefficients: vectors, morphisms, base changes, the order
# and orientation of the modules.  The amount of work per run is then the
# same for every seed, so a change in the timings is a change in the
# program, not in the draw.
DESIGN_SEED = "spreadhom-bench-design-1"


def resolve_inputs(seed, count):
    """count random modules on the 4x4 grid for the library resolve workload."""
    grid = Grid(4, 4)
    spreads = connected_convex_sets(grid)
    design = random.Random(f"{DESIGN_SEED}:resolve")
    rng = random.Random(f"resolve:{seed}")
    mods = [random_module(grid, spreads, design, rng) for _ in range(count)]
    rng.shuffle(mods)
    return grid, mods


def batch_inputs(seed, count, copies):
    """count subquotient module files on the 3x3 grid; `copies` of them are
    base-changed copies of others."""
    grid = Grid(3, 3)
    design = random.Random(f"{DESIGN_SEED}:batch")
    rng = random.Random(f"batch:{seed}")
    shapes = [draw_shape(grid, design) for _ in range(count - copies)]
    mods = [subquotient_module(grid, s, rng, rng.random() < 0.5) for s in shapes]
    mods += [base_change(m, rng) for m in mods[:copies]]
    rng.shuffle(mods)
    return grid, mods


# -- files --------------------------------------------------------------------------


def dump_poset(grid):
    covers = [[grid.names[a], grid.names[b]] for a, b in grid.covers]
    return f"elements: {json.dumps(grid.names)}\ncovers: {json.dumps(covers)}\n"


def dump_module(m, poset_ref):
    g = m.grid
    dims = {g.names[a]: d for a, d in enumerate(m.dims) if d}
    lines = [f"poset: {json.dumps(poset_ref)}", f"dims: {json.dumps(dims)}", "maps:"]
    for a, b in g.covers:
        mat = m.maps[(a, b)]
        if m.dims[a] and m.dims[b]:
            lines.append(f"  {json.dumps(g.names[a] + '->' + g.names[b])}: {json.dumps(mat)}")
    if lines[-1] == "maps:":
        lines[-1] = "maps: {}"
    return "\n".join(lines) + "\n"


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


# -- oracles ----------------------------------------------------------------------------


def rank_invariant(m):
    g = m.grid
    return tuple(
        rank(m.along(a, b), m.dims[a]) if m.dims[a] and m.dims[b] else 0
        for a in range(g.n) for b in g.up(a)
    )


def single_source_supports(grid):
    """Supports (frozensets) of all single-source spreads, with their source."""
    out = {}
    for a in range(grid.n):
        up = grid.up(a)
        antichains = [[]]
        for b in up:
            antichains += [c + [b] for c in antichains
                           if not any(grid.leq(b, e) or grid.leq(e, b) for e in c)]
        for c in antichains[1:]:
            supp = frozenset(x for x in up if any(grid.leq(x, e) for e in c))
            out.setdefault(supp, a)
    return sorted(out.items(), key=lambda kv: sorted(kv[0]))


def dim_hom_vector(m, supports):
    """dim Hom(M_S, m) for each single-source spread S (source a)."""
    out = []
    for supp, a in supports:
        d = m.dims[a]
        if d == 0:
            out.append(0)
            continue
        g = m.grid
        outside = [y for y in g.up(a) if y not in supp]
        rows = [row for y in outside if m.dims[y] for row in m.along(a, y)]
        out.append(d - rank(rows, d))
    return tuple(out)
