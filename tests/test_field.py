import random
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadhom import PersistenceModule, PrimeField, builtin_family, resolve
from spreadhom.field import Matrix, Span
from spreadhom.gallery import grid
from spreadhom.randmod import random_module

from helpers import module_route, numpy_rref, to_np

matrices = st.integers(1, 12).flatmap(
    lambda r: st.integers(1, 12).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-50, 50), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def test_prime_validation():
    PrimeField(2)
    PrimeField(5)
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField((1 << 20) + 7)  # prime, but past the int64 safety bound
    # any integer type is read as a Python int; a float is not an integer
    p = PrimeField(np.int64(7))
    assert type(p.p) is int and p == PrimeField(7)
    with pytest.raises(TypeError):
        PrimeField(7.0)


def test_huge_prime_is_refused_before_primality_testing():
    # 2**61 - 1 is prime; trial division up to its square root would take minutes
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"too large \(need p < 2\*\*20"):
        PrimeField(2**61 - 1)
    assert time.perf_counter() - start < 1.0


def test_arr_reduces_mod_p():
    f = PrimeField(7)
    a = f.arr([[-1, 8], [14, 3]])
    assert a.tolist() == [[6, 1], [0, 3]]
    assert all(type(x) is int for row in a.rows for x in row)
    # numpy arrays too, a (0, k) one keeping its k columns
    assert f.arr(np.array([[9, -8]])).rows == [[2, 6]]
    assert f.arr(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)
    assert f.arr([]).shape == (0, 0)
    with pytest.raises(ValueError):
        f.arr([[1, 2], [3]])


def test_rref_worked_example():
    f = PrimeField(5)
    m = f.arr([[1, 2, 3], [2, 4, 1], [0, 0, 4]])
    r, pivots = f.rref(m)
    assert pivots == (0, 2)
    assert r.tolist() == [[1, 2, 0], [0, 0, 1], [0, 0, 0]]


def test_rref_idempotent(field):
    m = field.arr([[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8]])
    r, pivots = field.rref(m)
    r2, pivots2 = field.rref(r)
    assert r == r2
    assert pivots == pivots2


@given(matrices)
def test_rank_nullity(data):
    f = PrimeField(31)
    m = f.arr(data)
    k = f.kernel_basis(m)
    assert f.rank(m) + k.shape[1] == m.shape[1]


@given(matrices)
def test_transpose_rank(data):
    f = PrimeField(31)
    m = f.arr(data)
    assert f.rank(m) == f.rank(np.array(data).T)


@given(matrices)
def test_kernel_basis_annihilates(data):
    f = PrimeField(31)
    m = f.arr(data)
    k = f.kernel_basis(m)
    assert not any(map(any, f.matmul(m, k).rows))
    # the basis really is one: full column rank
    assert f.rank(k) == k.shape[1]


@given(matrices)
def test_kernel_basis_is_the_identity_on_free_rows(data):
    # kernel_module reads kernel coordinates off the free rows, and reuses
    # an elimination through kernel_of_rref
    f = PrimeField(31)
    m = f.arr(data)
    red, pivots = f.rref(m)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    k = f.kernel_basis(m)
    assert [k.rows[c] for c in free] == f.eye(len(free)).rows
    assert f.kernel_of_rref(red, pivots) == k


@given(matrices, st.lists(st.integers(0, 30), min_size=12, max_size=12))
def test_solve_consistent_system(data, xs):
    f = PrimeField(31)
    a = f.arr(data)
    x = f.arr([[v] for v in xs[: a.shape[1]]])
    b = f.matmul(a, x)
    got = f.solve(a, b)
    assert got is not None
    assert f.matmul(a, got) == b


def test_solve_inconsistent_returns_none(field):
    a = field.arr([[1, 0], [0, 0]])
    b = field.arr([[0], [1]])
    assert field.solve(a, b) is None
    with pytest.raises(ValueError, match="rhs has 1 rows, matrix has 2"):
        field.solve(a, field.arr([[0]]))


def test_pivot_columns_and_column_space(field):
    m = field.arr([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    # column 1 is twice column 0
    assert field.rref(m)[1] == (0, 2)
    cs = field.column_space_basis(m)
    assert cs.shape == (3, 2)
    assert cs == field.arr([[1, 3], [2, 6], [0, 1]])


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_matrices_with_a_zero_dimension(field, shape):
    rows, cols = shape
    m = field.zeros(rows, cols)
    red, pivots = field.rref(m)
    assert red.shape == shape and pivots == ()
    assert field.rank(m) == 0
    assert field.kernel_basis(m) == field.eye(cols)
    assert field.solve(m, field.zeros(rows, 2)) == field.zeros(cols, 2)
    if rows:
        assert field.solve(m, field.arr([[1]] * rows)) is None


def test_rref_leaves_its_input_alone(field):
    for rows, cols in [(2, 2), (9, 9)]:
        m = field.arr(np.arange(3, 3 + rows * cols).reshape(rows, cols) ** 2)
        before = m.tolist()
        field.rref(m)
        assert m.tolist() == before


@st.composite
def prime_matrices(draw):
    """(p, matrix) with 0-12 rows and 0-48 columns, sparse or dense, entries in [0, p)."""
    p = draw(st.sampled_from([2, 31, 32003, 1048573]))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 48))
    entry = st.integers(1, p - 1)
    if draw(st.booleans()):  # sparse: mostly zeros
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    cells = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return p, np.array(cells, dtype=np.int64).reshape(rows, cols)


def _kernel_written_out(red, pivots, p):
    """The canonical kernel basis of an rref: the identity on the free rows, the negated free entries of
    each pivot row on its pivot's row."""
    cols = red.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = [[int(c == fc) for fc in free] for c in range(cols)]
    for row, pc in zip(red.rows, pivots):
        basis[pc] = [-row[fc] % p for fc in free]
    return Matrix(basis, len(free))


@given(prime_matrices())
def test_the_two_rref_loops_agree(pm):
    # the Python loop of PrimeField.rref against the numpy reference loop, on an array, which `arr`
    # reduces, and on a Matrix, whose rows are copied as they are
    p, m = pm
    f = PrimeField(p)
    red, pivots = f.rref(m)
    assert red.shape == m.shape
    given_matrix = f.arr(m)
    before = given_matrix.tolist()
    copied, copied_pivots = f.rref(given_matrix)
    assert given_matrix.tolist() == before
    assert not any(out is row for out in copied.rows for row in given_matrix.rows)
    assert (copied, copied_pivots) == (red, pivots)
    if not m.size:  # returns at once
        assert pivots == ()
        return
    wide, wide_pivots = numpy_rref(m.copy(), p)
    assert pivots == wide_pivots
    assert (red.shape, red.rows) == (wide.shape, wide.tolist())
    kernel = f.kernel_of_rref(red, pivots)
    assert kernel == f.kernel_of_rref(f.arr(wide), wide_pivots) == f.kernel_basis(m)
    assert kernel == _kernel_written_out(red, pivots, p)
    assert not np.mod(m @ to_np(kernel), p).any()
    # the pivot columns have full column rank: kernel_of_rref returns the (cols, 0) matrix at once
    full = f.arr(m[:, list(pivots)])
    full_red, full_pivots = f.rref(full)
    assert full_pivots == tuple(range(len(pivots)))
    full_kernel = f.kernel_of_rref(full_red, full_pivots)
    assert full_kernel == _kernel_written_out(full_red, full_pivots, p) == Matrix([[]] * len(pivots), 0)


def test_resolving_reduces_no_matrix_again(monkeypatch):
    # data from outside is reduced where it enters: the module constructor reduces these maps, which
    # are written with entries outside [0, p); after that the resolution never calls `arr`
    p, field = grid(4, 4), PrimeField()
    x = builtin_family(p, "hooks")
    drawn = random_module(p, field, random.Random(3))
    maps = {cover: [[v - field.p for v in row] for row in mat.rows] for cover, mat in drawn.maps.items()}
    m = PersistenceModule(p, field, drawn.dims, maps)
    assert m.maps == drawn.maps
    want = module_route(x, m, 8)[0]
    assert len(want[0]) > 1

    def refuse(self, data):
        raise AssertionError("PrimeField.arr reached")

    monkeypatch.setattr(PrimeField, "arr", refuse)
    with pytest.raises(AssertionError, match="arr reached"):
        PersistenceModule(p, field, drawn.dims, maps)
    res = resolve(x, m, 8)
    assert (res.terms, res.status, res.periodicity) == want


@given(prime_matrices(), st.data())
def test_a_span_adds_exactly_the_rref_pivots(pm, data):
    # the columns again in a drawn order, with repeats and a zero column mixed in
    p, m = pm
    rows, cols = m.shape
    m = np.concatenate([m, np.zeros((rows, 1), dtype=np.int64)], axis=1)
    picks = data.draw(st.lists(st.integers(0, cols), max_size=8))
    m = m[:, data.draw(st.permutations(list(range(cols + 1)) + picks))]
    f = PrimeField(p)
    span = Span(f)
    added = tuple(c for c, v in enumerate(m.T.tolist()) if span.add(v))
    assert added == f.rref(m)[1]
    assert len(span) == f.rank(m)


def test_matmul_matches_integer_arithmetic():
    f = PrimeField(32003)
    rng = np.random.default_rng(7)
    a = rng.integers(0, 32003, size=(6, 4))
    b = rng.integers(0, 32003, size=(4, 5))
    want = (a.astype(object) @ b.astype(object)) % 32003
    got = f.matmul(f.arr(a), f.arr(b))
    assert got.tolist() == want.tolist()
    assert f.matmul(f.zeros(2, 0), f.zeros(0, 3)) == f.zeros(2, 3)
    with pytest.raises(ValueError):
        f.matmul(f.arr(a), f.arr(a))


def test_deterministic_bases(field):
    m = field.arr([[1, 3, 2, 0], [2, 6, 4, 1]])
    k1 = field.kernel_basis(m)
    k2 = field.kernel_basis(field.arr(m.tolist()))
    assert k1 == k2
