"""Exact linear algebra over a prime field F_p.

Matrices are `Matrix` values: rows of Python ints reduced into [0, p), and
the shape, so that a matrix with no rows still knows its columns.  Data from
outside is reduced once, where it enters (`PrimeField.arr`, and through it
the `PersistenceModule` constructor); every operation keeps entries in
[0, p), so `rref` copies a `Matrix` without reducing it again.  Spread Hom
spaces and resolutions meet small matrices, where a loop over Python ints
costs less than an array library's per-call overhead and needs no import;
a module file may hold up to `files.MAX_DENSE_CELLS` (10**7) cells.  All
eliminations use Gauss-Jordan with first-nonzero pivoting, so every basis
this module hands out is deterministic for a given input.
"""
from __future__ import annotations

from itertools import chain
from operator import index, mul

DEFAULT_PRIME = 32003

# The documented bound on p.  Python ints are exact at any size; the bound
# keeps each product of two entries below 2**40, the int64 margin that the
# refusal message names.
_MAX_PRIME = 1 << 20


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def free_columns(cols: int, pivots) -> list[int]:
    """The columns 0..cols-1 that are not pivots, in order."""
    taken = set(pivots)
    return [c for c in range(cols) if c not in taken]


class Matrix:
    """A matrix over F_p: `rows`, lists of ints in [0, p), and its `shape`.

    The constructor checks nothing: whoever builds one keeps its entries in
    [0, p), which `PrimeField.rref` relies on (`PrimeField.arr` reduces data
    from outside).  A Matrix is not changed once made: every operation returns
    a new one, and two matrices may share rows.
    """

    __slots__ = ("rows", "shape")

    def __init__(self, rows: list[list[int]], cols: int):
        self.rows = rows
        self.shape = (len(rows), cols)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.shape == other.shape and self.rows == other.rows

    def __repr__(self):
        return f"Matrix({self.rows!r}, cols={self.shape[1]})"

    def tolist(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def columns(self, idx) -> Matrix:
        """The columns idx, in that order."""
        return Matrix([[row[c] for c in idx] for row in self.rows], len(idx))


def hstack(blocks) -> Matrix:
    """The blocks side by side; all have the same number of rows."""
    rows = [list(chain.from_iterable(parts)) for parts in zip(*(b.rows for b in blocks), strict=True)]
    return Matrix(rows, sum(b.shape[1] for b in blocks))


class PrimeField:
    """F_p arithmetic on `Matrix` values."""

    def __init__(self, p: int = DEFAULT_PRIME):
        p = index(p)  # a Python int from here on, whatever integer type came in
        # the bound first: trial division up to sqrt(p) is slow for large p
        if p >= _MAX_PRIME:
            raise ValueError(f"p = {p} too large (need p < 2**20 for exact int64 products)")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    # -- construction -----------------------------------------------------

    def arr(self, data) -> Matrix:
        """A new Matrix with entries x % p, from a Matrix or any nested sequence of rows.

        An entry that is not an integer raises TypeError.  A sequence with no
        rows takes its column count from a 2-d `shape` (an array object has
        one), else 0.
        """
        p = self.p
        if isinstance(data, Matrix):
            return Matrix([[index(x) % p for x in row] for row in data.rows], data.shape[1])
        rows = [[index(x) % p for x in row] for row in data]
        if not rows:
            shape = getattr(data, "shape", ())
            return Matrix(rows, shape[1] if len(shape) == 2 else 0)
        cols = len(rows[0])
        if any(len(row) != cols for row in rows):
            raise ValueError("rows of unequal length")
        return Matrix(rows, cols)

    def zeros(self, rows: int, cols: int) -> Matrix:
        return Matrix([[0] * cols for _ in range(rows)], cols)

    def eye(self, n: int) -> Matrix:
        return Matrix([[int(i == j) for j in range(n)] for i in range(n)], n)

    def matmul(self, a: Matrix, b: Matrix) -> Matrix:
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
        if not b.rows:
            return self.zeros(a.shape[0], b.shape[1])
        p = self.p
        cols = list(zip(*b.rows))
        return Matrix([[sum(map(mul, row, col)) % p for col in cols] for row in a.rows], b.shape[1])

    def neg(self, a: Matrix) -> Matrix:
        p = self.p
        return Matrix([[-x % p for x in row] for row in a.rows], a.shape[1])

    # -- elimination --------------------------------------------------------

    def rref(self, m) -> tuple[Matrix, tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns.

        Pivot choice: scan columns left to right, take the first row with a
        nonzero entry at or below the working row.  The input is left alone:
        a `Matrix` has its rows copied as they are, relying on its entries
        lying in [0, p); anything else is reduced by `arr`.
        """
        # fresh rows, eliminated in place
        out = Matrix([list(row) for row in m.rows], m.shape[1]) if isinstance(m, Matrix) else self.arr(m)
        rows, cols = out.shape
        if not rows or not cols:
            return out, ()
        p = self.p
        a = out.rows
        pivots = []
        r = 0
        for c in range(cols):
            for i in range(r, rows):
                if a[i][c]:
                    break
            else:
                continue
            a[r], a[i] = a[i], a[r]
            row = a[r]
            if row[c] != 1:
                inv = pow(row[c], -1, p)
                row = a[r] = [x * inv % p for x in row]
            for k in range(rows):
                f = a[k][c]
                if f and k != r:
                    a[k] = [(x - f * y) % p for x, y in zip(a[k], row)]
            pivots.append(c)
            r += 1
            if r == rows:
                break
        return out, tuple(pivots)

    def rank(self, m) -> int:
        return len(self.rref(m)[1])

    def kernel_basis(self, m) -> Matrix:
        """Columns form the canonical basis of {v : m v = 0}.

        Free variables are set to 1 one at a time, ordered by column index.
        Shape (cols, nullity).
        """
        return self.kernel_of_rref(*self.rref(m))

    def kernel_of_rref(self, red: Matrix, pivots) -> Matrix:
        """`kernel_basis` of a matrix, read off its (rref, pivots) without eliminating again.

        The basis is the identity on the free rows (the non-pivot columns).
        """
        cols = red.shape[1]
        if len(pivots) == cols:  # trivial kernel
            return Matrix([[] for _ in range(cols)], 0)
        p = self.p
        free = free_columns(cols, pivots)
        basis = [[0] * len(free) for _ in range(cols)]
        for k, fc in enumerate(free):
            basis[fc][k] = 1
        for row, pc in zip(red.rows, pivots):
            basis[pc] = [-row[fc] % p for fc in free]
        return Matrix(basis, len(free))

    def solve(self, a, b) -> Matrix | None:
        """A particular solution x of a x = b (b: stacked right-hand sides), or None if inconsistent.

        Free variables are set to 0.
        """
        a = self.arr(a)
        b = self.arr(b)
        rows, cols = a.shape
        if b.shape[0] != rows:
            raise ValueError(f"rhs has {b.shape[0]} rows, matrix has {rows}")
        red, pivots = self.rref(hstack([a, b]))
        if any(pc >= cols for pc in pivots):
            return None
        x = [[0] * b.shape[1] for _ in range(cols)]
        for row, pc in zip(red.rows, pivots):
            x[pc] = row[cols:]
        return Matrix(x, b.shape[1])

    def column_space_basis(self, m) -> Matrix:
        """The pivot columns of m, in order (a deterministic image basis)."""
        a = self.arr(m)
        return a.columns(self.rref(a)[1])


class Span:
    """A growing span of vectors in F_p^n, kept as an echelon basis.

    `add` a vector (entries in [0, p)) to reduce it against the basis and learn
    whether it left the span.  The vectors that do are exactly the pivot
    columns of `PrimeField.rref` of the vectors side by side, in the order
    added: a column is a pivot when it lies outside the span of those before it.
    """

    __slots__ = ("p", "basis")

    def __init__(self, field: PrimeField):
        self.p = field.p
        self.basis: list[tuple[int, list[int]]] = []  # (pivot, row): 1 at pivot, 0 at earlier pivots

    def __len__(self):
        return len(self.basis)

    def add(self, v) -> bool:
        """Reduce v against the basis; True, and v joins it, when v is not in the span."""
        p = self.p
        for c, row in self.basis:
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is None:
            return False
        inv = pow(v[c], -1, p)
        self.basis.append((c, [x * inv % p for x in v]))
        return True
