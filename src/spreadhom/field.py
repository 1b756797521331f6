"""Exact linear algebra over a prime field F_p.

Matrices are int64 numpy arrays with entries reduced into [0, p).  All
eliminations use Gauss-Jordan with first-nonzero pivoting, so every basis
this module hands out is deterministic for a given input.

`PrimeField.rref` runs one of two inner loops on the same pivot rule: a
matrix of at most SMALL_RREF_CELLS cells is eliminated on Python ints,
where numpy's per-call overhead would cost more than the arithmetic, and a
larger one by numpy row operations.  The reduced row echelon form of a
matrix is unique, so the two return the same bytes.
"""
from __future__ import annotations

import numpy as np

DEFAULT_PRIME = 32003

# products must stay below 2**63 in int64 intermediates, with headroom for
# accumulation inside matmul
_MAX_PRIME = 1 << 20

# Crossover of the two rref loops, per call on a 2-core x86-64 host: a dense
# 3x3 takes 15 µs on Python ints against 50 µs in numpy, a dense 8x8 87
# against 97 µs, a dense 6x27 187 against 79 µs, and a 60x80 27 ms against 3 ms.
SMALL_RREF_CELLS = 64


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


def _rref_small(a: list[list[int]], p: int) -> tuple[list[list[int]], tuple[int, ...]]:
    """`PrimeField.rref` of a nonempty matrix of reduced Python ints, in place."""
    rows, cols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        i = next((i for i in range(r, rows) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p)
        row = a[r] = [x * inv % p for x in a[r]]
        for k in range(rows):
            f = a[k][c]
            if f and k != r:
                a[k] = [(x - f * y) % p for x, y in zip(a[k], row)]
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def _rref_wide(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """`PrimeField.rref` of a nonempty reduced int64 matrix, in place."""
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


class PrimeField:
    """F_p arithmetic on numpy int64 matrices."""

    def __init__(self, p: int = DEFAULT_PRIME):
        # the bound first: trial division up to sqrt(p) is slow for large p
        if isinstance(p, int) and p >= _MAX_PRIME:
            raise ValueError(f"p = {p} too large (need p < 2**20 for exact int64 products)")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"p = {p!r} is not prime")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    # -- construction -----------------------------------------------------

    def arr(self, data) -> np.ndarray:
        """Coerce to an int64 array with entries reduced mod p."""
        a = np.asarray(data, dtype=np.int64)
        return np.mod(a, self.p)

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def matmul(self, a, b) -> np.ndarray:
        return np.mod(a @ b, self.p)

    def neg(self, a) -> np.ndarray:
        return np.mod(-np.asarray(a, dtype=np.int64), self.p)

    def inv_scalar(self, x: int) -> int:
        return pow(int(x) % self.p, -1, self.p)

    # -- elimination --------------------------------------------------------

    def rref(self, m) -> tuple[np.ndarray, tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns.

        Pivot choice: scan columns left to right, take the first row with a
        nonzero entry at or below the working row.  An empty matrix returns
        at once; one of at most SMALL_RREF_CELLS cells is eliminated on
        Python ints, a larger one with numpy.  Both loops follow this rule,
        and the reduced form is unique, so they agree byte for byte.
        """
        a = self.arr(m)  # a fresh array: np.mod allocates its result
        rows, cols = a.shape
        if not rows or not cols:
            return a, ()
        if rows * cols <= SMALL_RREF_CELLS:
            red, pivots = _rref_small(a.tolist(), self.p)
            return np.array(red, dtype=np.int64), pivots
        return _rref_wide(a, self.p)

    def rank(self, m) -> int:
        return len(self.rref(m)[1])

    def kernel_basis(self, m) -> np.ndarray:
        """Columns form the canonical basis of {v : m v = 0}.

        Free variables are set to 1 one at a time, ordered by column index.
        Shape (cols, nullity).
        """
        return self.kernel_of_rref(*self.rref(m))

    def kernel_of_rref(self, red, pivots) -> np.ndarray:
        """`kernel_basis` of a matrix, read off its (rref, pivots) without eliminating again.

        The basis is the identity on the free rows (the non-pivot columns).
        """
        cols = red.shape[1]
        free = free_columns(cols, pivots)
        basis = np.zeros((cols, len(free)), dtype=np.int64)
        for k, fc in enumerate(free):
            basis[fc, k] = 1
            for i, pc in enumerate(pivots):
                basis[pc, k] = (-red[i, fc]) % self.p
        return basis

    def solve(self, a, b):
        """A particular solution of a x = b, or None if inconsistent.

        b may be a vector or a matrix of stacked right-hand sides; free
        variables are set to 0.
        """
        a = self.arr(a)
        b = self.arr(b)
        rows, cols = a.shape
        vector_rhs = b.ndim == 1
        rhs = b.reshape(rows, -1) if vector_rhs else b
        if rhs.shape[0] != rows:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, matrix has {rows}")
        red, pivots = self.rref(np.hstack([a, rhs]))
        if any(pc >= cols for pc in pivots):
            return None
        x = np.zeros((cols, rhs.shape[1]), dtype=np.int64)
        for i, pc in enumerate(pivots):
            x[pc] = red[i, cols:]
        return x[:, 0] if vector_rhs else x

    def column_space_basis(self, m) -> np.ndarray:
        """The pivot columns of m, in order (a deterministic image basis)."""
        a = self.arr(m)
        return a[:, list(self.rref(a)[1])]
