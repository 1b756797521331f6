import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadhom import PrimeField
from spreadhom.field import _rref_small, _rref_wide

# up to 12 x 12, past SMALL_RREF_CELLS, so both rref loops run
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
    assert a.dtype == np.int64


def test_inv_scalar():
    f = PrimeField(32003)
    for x in [1, 2, 5, 32002, -3]:
        assert (f.inv_scalar(x) * x) % 32003 == 1
    with pytest.raises(ValueError):
        f.inv_scalar(0)


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
    assert np.array_equal(r, r2)
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
    assert f.rank(m) == f.rank(m.T)


@given(matrices)
def test_kernel_basis_annihilates(data):
    f = PrimeField(31)
    m = f.arr(data)
    k = f.kernel_basis(m)
    assert not np.mod(m @ k, 31).any()
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
    assert np.array_equal(k[free], np.eye(len(free), dtype=np.int64))
    assert np.array_equal(f.kernel_of_rref(red, pivots), k)


@given(matrices, st.lists(st.integers(0, 30), min_size=12, max_size=12))
def test_solve_consistent_system(data, xs):
    f = PrimeField(31)
    a = f.arr(data)
    x = f.arr(xs[: a.shape[1]]).reshape(-1, 1)
    b = f.matmul(a, x)
    got = f.solve(a, b)
    assert got is not None
    assert np.array_equal(f.matmul(a, got), b)


def test_solve_inconsistent_returns_none(field):
    a = field.arr([[1, 0], [0, 0]])
    b = field.arr([[0], [1]])
    assert field.solve(a, b) is None


def test_pivot_columns_and_column_space(field):
    m = field.arr([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    # column 1 is twice column 0
    assert field.rref(m)[1] == (0, 2)
    cs = field.column_space_basis(m)
    assert cs.shape == (3, 2)
    assert np.array_equal(cs, m[:, [0, 2]])


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_matrices_with_a_zero_dimension(field, shape):
    rows, cols = shape
    m = field.zeros(rows, cols)
    red, pivots = field.rref(m)
    assert red.shape == shape and pivots == ()
    assert field.rank(m) == 0
    assert np.array_equal(field.kernel_basis(m), field.eye(cols))
    assert np.array_equal(field.solve(m, field.zeros(rows, 2)), field.zeros(cols, 2))
    if rows:
        assert field.solve(m, np.ones(rows, dtype=np.int64)) is None


def test_rref_leaves_its_input_alone(field):
    for rows, cols in [(2, 2), (9, 9)]:  # one for each rref loop
        m = field.arr(np.arange(3, 3 + rows * cols).reshape(rows, cols) ** 2)
        before = m.copy()
        field.rref(m)
        assert np.array_equal(m, before)


@st.composite
def prime_matrices(draw):
    """(p, matrix) with 0-12 rows and columns, sparse or dense, entries in [0, p)."""
    p = draw(st.sampled_from([2, 31, 32003, 1048573]))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    entry = st.integers(1, p - 1)
    if draw(st.booleans()):  # sparse: mostly zeros
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    cells = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return p, np.array(cells, dtype=np.int64).reshape(rows, cols)


@given(prime_matrices())
def test_the_two_rref_loops_agree(pm):
    p, m = pm
    f = PrimeField(p)
    red, pivots = f.rref(m)
    if not m.size:  # the shared early return: neither loop runs
        assert red.shape == m.shape and pivots == ()
        return
    small, small_pivots = _rref_small(m.tolist(), p)
    small = np.array(small, dtype=np.int64)
    wide, wide_pivots = _rref_wide(m.copy(), p)
    assert small_pivots == wide_pivots == pivots
    assert small.dtype == wide.dtype == red.dtype
    assert small.shape == wide.shape == m.shape
    assert small.tobytes() == wide.tobytes() == red.tobytes()
    kernel = f.kernel_of_rref(small, small_pivots)
    assert kernel.tobytes() == f.kernel_of_rref(wide, wide_pivots).tobytes()
    assert not np.mod(m @ kernel, p).any()


def test_matmul_matches_integer_arithmetic():
    f = PrimeField(32003)
    rng = np.random.default_rng(7)
    a = rng.integers(0, 32003, size=(6, 4))
    b = rng.integers(0, 32003, size=(4, 5))
    want = (a.astype(object) @ b.astype(object)) % 32003
    got = f.matmul(a.astype(np.int64), b.astype(np.int64))
    assert got.tolist() == want.tolist()


def test_deterministic_bases(field):
    m = field.arr([[1, 3, 2, 0], [2, 6, 4, 1]])
    k1 = field.kernel_basis(m)
    k2 = field.kernel_basis(m.copy())
    assert np.array_equal(k1, k2)
