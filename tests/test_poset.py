import copy
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadhom import (
    AntichainOrderError,
    CapExceededError,
    CycleError,
    DuplicateSpreadError,
    NotAntichainError,
    NotComparableError,
    NotConvexError,
    Poset,
    RedundantCoverError,
    builtin_family,
    containment_poset,
    enumerate_spreads,
    spread_from_antichains,
    spread_from_convex,
)
from spreadhom.gallery import (
    chain,
    crown,
    fan,
    funnel,
    generator_posets,
    grid,
    path_poset,
)
from spreadhom.poset import BUILTIN_FAMILIES, elements_of, mask_of

from helpers import (
    closure_pairs,
    mask_to_set,
    oracle_connected_convex_subsets,
    oracle_is_antichain,
    oracle_is_connected,
    oracle_is_convex,
    principal_upsets_totally_ordered,
    random_poset,
)


# -- construction ----------------------------------------------------------


def test_cycle_rejected():
    with pytest.raises(CycleError):
        Poset(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleError):
        Poset(1, [(0, 0)])


def test_redundant_covers_rejected():
    with pytest.raises(RedundantCoverError):
        Poset(2, [(0, 1), (0, 1)])
    # (0, 2) follows from (0, 1), (1, 2)
    with pytest.raises(RedundantCoverError):
        Poset(3, [(0, 1), (1, 2), (0, 2)])


def test_bad_labels_rejected():
    with pytest.raises(ValueError):
        Poset(2, [], names=["a"])
    with pytest.raises(ValueError):
        Poset(2, [], names=["a", "a"])
    with pytest.raises(ValueError):
        Poset(2, [(0, 3)])
    with pytest.raises(ValueError, match="n must be >= 0"):
        Poset(-1, [])


def test_a_label_that_is_no_string_is_refused():
    # refused by name, like every other bad label, not by a TypeError from the '->' test
    with pytest.raises(ValueError, match=r"element label 1 is not a string"):
        Poset(2, [(0, 1)], [1, 2])


def test_empty_and_singleton():
    p0 = Poset(0, [])
    assert p0.n == 0
    assert not p0.is_path()
    p1 = Poset(1, [])
    assert p1.leq(0, 0)
    assert p1.is_path()


def test_non_integer_ids_and_caps_raise_type_error():
    # a float is refused, not truncated; numpy integers are integers
    with pytest.raises(TypeError):
        Poset(2, [(0.0, 1.9)])
    with pytest.raises(TypeError):
        chain(3).subset_mask([1.0])
    with pytest.raises(TypeError):
        enumerate_spreads(chain(3), "intervals", 10.5)
    assert Poset(2, np.array([[0, 1]])).covers == ((0, 1),)
    assert chain(3).subset_mask(np.array([1, 2])) == 0b110


def test_structural_equality():
    assert grid(2, 2) == grid(2, 2)
    assert grid(2, 2) != grid(2, 3)
    assert chain(3) == path_poset("uu")  # same covers, same labels
    assert chain(3) != Poset(3, [(0, 1), (1, 2)], names=["a", "b", "c"])


def test_grid_labels_stay_distinct_past_ten():
    # one digit per coordinate up to side 10, as every data file and golden output reads them
    for nx in range(1, 11):
        for ny in range(1, 11):
            assert grid(nx, ny).names == tuple(f"{i}{j}" for i in range(nx) for j in range(ny))
    assert grid(9, 9, base=1).names == tuple(f"{i}{j}" for i in range(1, 10) for j in range(1, 10))
    # (1, 10) and (11, 0) would both read "110"
    p = grid(12, 11)
    assert len(set(p.names)) == p.n == 132
    assert (p.label(1 * 11 + 10), p.label(11 * 11), p.label(12 * 11 - 1)) == ("1-10", "11-0", "11-10")
    assert grid(10, 10, base=1).label(0) == "1-1"


# -- order queries against the closure oracle --------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_leq_matches_reachability(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randint(1, 8))
    leq = closure_pairs(p.n, p.covers)
    for x in range(p.n):
        for y in range(p.n):
            assert p.leq(x, y) == ((x, y) in leq)
            assert p.lt(x, y) == ((x, y) in leq and x != y)
        assert mask_to_set(p.up_mask(x)) == {y for y in range(p.n) if (x, y) in leq}
        assert mask_to_set(p.down_mask(x)) == {y for y in range(p.n) if (y, x) in leq}


def test_interval_mask():
    p = grid(2, 2)
    a, b = p.element("00"), p.element("11")
    assert mask_to_set(p.interval_mask(a, b)) == {0, 1, 2, 3}
    assert p.interval_mask(b, a) == 0
    assert mask_to_set(p.interval_mask(a, a)) == {a}


def test_comparable_pairs():
    p = chain(3)
    assert set(p.comparable_pairs()) == {
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)
    }


def test_min_max_elements():
    p = funnel()
    assert p.label_set(p.minimal_elements(p.full_mask)) == ("1", "3")
    assert p.label_set(p.maximal_elements(p.full_mask)) == ("5",)


# -- subset predicates against power-set oracles ------------------------------


@pytest.mark.parametrize("name,p", generator_posets(max_n=5))
def test_subset_predicates_match_oracles(name, p):
    for r in range(0, p.n + 1):
        for subset in itertools.combinations(range(p.n), r):
            mask = mask_of(subset)
            assert p.is_antichain(mask) == oracle_is_antichain(p, subset), subset
            assert p.is_convex(mask) == oracle_is_convex(p, subset), subset
            if subset:
                assert p.is_connected(mask) == oracle_is_connected(p, subset), subset


@given(st.integers(0, 2**31), st.integers(2, 7))
def test_convex_closure_is_convex_and_minimal(seed, n):
    rng = random.Random(seed)
    p = random_poset(rng, n)
    subset = [x for x in range(n) if rng.random() < 0.5]
    closed = p.convex_closure(mask_of(subset))
    assert oracle_is_convex(p, elements_of(closed))
    assert closed & mask_of(subset) == mask_of(subset)
    # minimality: closure is exactly the union of intervals inside the subset
    leq = closure_pairs(p.n, p.covers)
    want = set(subset)
    for x in subset:
        for z in subset:
            want |= {y for y in range(n) if (x, y) in leq and (y, z) in leq}
    assert mask_to_set(closed) == want


def test_connected_components():
    p = fan(3)
    tops = mask_of([1, 2, 3])
    comps = p.connected_components(tops)
    assert sorted(mask_to_set(c) for c in comps) == [{1}, {2}, {3}]
    assert p.connected_components(0) == ()
    assert len(p.connected_components(p.full_mask)) == 1


def test_antichain_leq():
    p = grid(2, 2)
    a00 = mask_of([p.element("00")])
    tops = mask_of([p.element("01"), p.element("10")])
    a11 = mask_of([p.element("11")])
    assert p.antichain_leq(a00, tops)
    assert p.antichain_leq(tops, a11)
    assert not p.antichain_leq(a11, tops)
    # {01} vs {10}: neither related
    assert not p.antichain_leq(mask_of([p.element("01")]), mask_of([p.element("10")]))


def test_principal_upsets_totally_ordered():
    assert principal_upsets_totally_ordered(chain(4))
    assert principal_upsets_totally_ordered(funnel())
    assert principal_upsets_totally_ordered(path_poset("ud"))
    assert not principal_upsets_totally_ordered(grid(2, 2))
    assert not principal_upsets_totally_ordered(fan(2))
    assert not principal_upsets_totally_ordered(crown(2))
    # the W zigzag has a valley whose up-set holds two incomparable peaks
    assert not principal_upsets_totally_ordered(path_poset("udud"))


def test_is_path():
    assert chain(4).is_path()
    assert path_poset("ud").is_path()
    assert not grid(2, 2).is_path()
    assert not fan(3).is_path()
    # disconnected Hasse graph is not a path
    assert not Poset(2, []).is_path()


@given(st.integers(0, 2**31), st.integers(1, 6))
def test_is_path_is_a_walk_along_every_cover(seed, n):
    # n - 1 covers make a path exactly when some order of the elements steps along covers only
    p = random_poset(random.Random(seed), n)
    covers = {frozenset(c) for c in p.covers}
    walk = any(all(frozenset(step) in covers for step in zip(order, order[1:]))
               for order in itertools.permutations(range(n)))
    assert p.is_path() == (len(covers) == n - 1 and walk)


# -- Möbius ------------------------------------------------------------------


@pytest.mark.parametrize("name,p", generator_posets(max_n=6))
def test_mobius_defining_property(name, p):
    for x in range(p.n):
        for y in range(p.n):
            if not p.leq(x, y):
                continue
            total = sum(p.mobius(x, z) for z in elements_of(p.interval_mask(x, y)))
            assert total == (1 if x == y else 0)


def test_mobius_chain_and_grid_values():
    c = chain(4)
    assert c.mobius(0, 0) == 1
    assert c.mobius(0, 1) == -1
    assert c.mobius(0, 2) == 0
    g = grid(2, 2)
    # product of two 2-chains: mu factors, (-1) * (-1) = 1 at the diagonal step
    assert g.mobius(g.element("00"), g.element("11")) == 1
    assert g.mobius(g.element("00"), g.element("01")) == -1


def test_mobius_incomparable_raises():
    g = grid(2, 2)
    with pytest.raises(NotComparableError):
        g.mobius(g.element("01"), g.element("10"))


# -- subposets ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_subposet_covers_are_reduced_restriction(seed):
    rng = random.Random(100 + seed)
    p = random_poset(rng, 7)
    subset = sorted(rng.sample(range(7), 4))
    sub = p.subposet(mask_of(subset))
    leq = closure_pairs(p.n, p.covers)
    # order of the subposet = restriction of the parent order
    for i, x in enumerate(subset):
        for j, y in enumerate(subset):
            assert sub.poset.leq(i, j) == ((x, y) in leq)
    # covers are irredundant by construction (constructor would raise), and
    # they map back into parent strict order
    for i, j in sub.poset.covers:
        assert (subset[i], subset[j]) in leq
    assert [sub.to_parent(i) for i in range(4)] == subset


def check_closures_against_definitions(p):
    """Every mask of p: the closures, predicates and subposet covers, read
    off the pairs x <= y; every pair of antichains: their order and spread."""
    leq = closure_pairs(p.n, p.covers)
    lt = {(x, y) for x, y in leq if x != y}
    ground = range(p.n)
    antichains = []
    for mask in range(1 << p.n):
        s = mask_to_set(mask)
        assert mask_to_set(p.up_set(mask)) == {y for y in ground if any((x, y) in leq for x in s)}
        assert mask_to_set(p.down_set(mask)) == {y for y in ground if any((y, x) in leq for x in s)}
        assert mask_to_set(p.minimal_elements(mask)) == {x for x in s if not any((y, x) in lt for y in s)}
        assert mask_to_set(p.maximal_elements(mask)) == {x for x in s if not any((x, y) in lt for y in s)}
        antichain = not any((x, y) in lt for x in s for y in s)
        assert p.is_antichain(mask) == antichain
        if antichain and s:
            antichains.append((mask, s))
        elems = sorted(s)
        covers = {(i, j) for i, x in enumerate(elems) for j, y in enumerate(elems)
                  if (x, y) in lt and not any((x, z) in lt and (z, y) in lt for z in s)}
        assert set(p.subposet(mask).poset.covers) == covers
    for a, sa in antichains:
        for b, sb in antichains:
            below = all(any((x, y) in leq for y in sb) for x in sa)
            above = all(any((x, y) in leq for x in sa) for y in sb)
            assert p.antichain_leq(a, b) == (below and above)
            if below and above:
                support = {z for z in ground
                           if any((x, z) in leq and (z, y) in leq for x in sa for y in sb)}
                assert mask_to_set(spread_from_antichains(p, a, b).support) == support
            else:
                with pytest.raises(AntichainOrderError):
                    spread_from_antichains(p, a, b)


@pytest.mark.parametrize("name,p", generator_posets(max_n=6) + [("grid3x3", grid(3, 3)), ("crown3", crown(3))])
def test_closures_match_their_definitions_on_every_mask(name, p):
    check_closures_against_definitions(p)


@given(st.integers(0, 2**31), st.integers(1, 8))
def test_closures_match_their_definitions_on_random_posets(seed, n):
    check_closures_against_definitions(random_poset(random.Random(seed), n))


# -- spreads -------------------------------------------------------------------


def test_spread_from_antichains_support():
    p = grid(5, 3, base=1)
    s = spread_from_antichains(p, ["13", "41"], ["43"])
    assert set(p.label_set(s.support)) == {"13", "23", "33", "43", "41", "42"}
    assert s.render() == "[{13,41},43]"
    # a spread is an immutable value: equal ones hash equal, and copies and pickles are equal
    with pytest.raises(AttributeError, match="cannot assign to field 'support'"):
        s.support = 0
    again = spread_from_antichains(p, ["41", "13"], ["43"])
    assert again is not s and again == s and hash(again) == hash(s)
    assert copy.copy(s) == s and pickle.loads(pickle.dumps(s)) == s


def test_spread_antichain_validation():
    p = grid(2, 2)
    with pytest.raises(NotAntichainError):
        spread_from_antichains(p, [], ["11"])
    with pytest.raises(NotAntichainError):
        spread_from_antichains(p, ["00", "01"], ["11"])
    with pytest.raises(NotAntichainError, match="targets"):
        spread_from_antichains(p, ["00"], ["01", "11"])
    with pytest.raises(AntichainOrderError):
        spread_from_antichains(p, ["11"], ["00"])
    with pytest.raises(AntichainOrderError):
        # 01 is below nothing in {10}
        spread_from_antichains(p, ["01"], ["10"])


def test_spread_from_convex():
    p = grid(2, 2)
    s = spread_from_convex(p, ["00", "01", "10"])
    assert elements_of(s.sources) == (p.element("00"),)
    assert set(p.label_set(s.targets)) == {"01", "10"}
    with pytest.raises(NotConvexError):
        spread_from_convex(p, ["00", "11"])
    with pytest.raises(NotConvexError, match="the empty subset is not a spread"):
        spread_from_convex(p, [])


@pytest.mark.parametrize("mask", [1 << 4, -1])
def test_a_mask_outside_the_poset_is_refused_by_both_builders(mask):
    # bit 4 is one past grid(2, 2), and -1 sets every bit
    p = grid(2, 2)
    assert p.subset_mask(0b1011) == 0b1011
    for build in (lambda: spread_from_convex(p, mask), lambda: spread_from_antichains(p, 1, mask),
                  lambda: spread_from_antichains(p, mask, 1 << 3), lambda: p.subset_mask(mask)):
        with pytest.raises(ValueError, match="out-of-range elements"):
            build()


def test_spread_canonical_antichains():
    # every builtin spread equals the one rebuilt, convexity checked, from its support
    for name, p in generator_posets(max_n=6):
        for kind in BUILTIN_FAMILIES:
            for s in enumerate_spreads(p, kind):
                again = spread_from_convex(p, elements_of(s.support))
                assert again == s, (name, kind, s.render())
                assert mask_to_set(s.sources) == mask_to_set(p.minimal_elements(s.support))
                assert mask_to_set(s.targets) == mask_to_set(p.maximal_elements(s.support))


@pytest.mark.parametrize("name,p", generator_posets(max_n=6))
def test_enumerate_connected_all_matches_powerset_oracle(name, p):
    got = {frozenset(elements_of(s.support)) for s in enumerate_spreads(p, "connected_spreads")}
    assert got == oracle_connected_convex_subsets(p)


@pytest.mark.parametrize("name,p", generator_posets(max_n=6))
def test_enumerate_kinds_are_the_right_subsets(name, p):
    conn = {s.support: s for s in enumerate_spreads(p, "connected_spreads")}
    intervals = {s.support for s in enumerate_spreads(p, "intervals")}
    want_intervals = set()
    for a in range(p.n):
        for b in range(p.n):
            if p.leq(a, b):
                want_intervals.add(p.interval_mask(a, b))
    assert intervals == want_intervals

    single = {s.support for s in enumerate_spreads(p, "single_source")}
    want_single = {
        m for m, s in conn.items() if len(elements_of(p.minimal_elements(m))) == 1
    }
    assert single == want_single

    upsets = {s.support for s in enumerate_spreads(p, "connected_upsets")}
    want_upsets = set()
    for m in conn:
        if all(p.up_mask(x) & ~m == 0 for x in elements_of(m)):
            want_upsets.add(m)
    assert upsets == want_upsets

    hooks = {s.support for s in enumerate_spreads(p, "hooks")}
    want_hooks = set()
    for a in range(p.n):
        want_hooks.add(p.up_mask(a))
        for b in range(p.n):
            if p.lt(a, b):
                want_hooks.add(p.up_mask(a) & ~p.up_mask(b))
    assert hooks == want_hooks

    projectives = {s.support for s in enumerate_spreads(p, "projectives")}
    assert projectives == {p.up_mask(a) for a in range(p.n)}


def test_hooks_are_connected_spreads():
    for name, p in generator_posets(max_n=6):
        conn = {s.support for s in enumerate_spreads(p, "connected_spreads")}
        for s in enumerate_spreads(p, "hooks"):
            assert s.support in conn, (name, s.render())


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_spreads(grid(3, 3), "connected_spreads", cap=10)
    # the projectives obey the cap like every other builtin family
    with pytest.raises(CapExceededError):
        builtin_family(grid(3, 3), "projectives", cap=8)
    with pytest.raises(ValueError, match="cap must be non-negative, got -1"):
        enumerate_spreads(grid(2, 2), "intervals", cap=-1)
    assert len(builtin_family(grid(3, 3), "projectives", cap=9)) == 9
    for old in "connected_all interval hook connected_upset".split():
        with pytest.raises(ValueError, match="unknown spread kind"):
            enumerate_spreads(grid(2, 2), old)


def test_antichain_families_reach_the_cap_on_a_long_chain():
    # the antichain search is as deep as the poset is long; it must not recurse per element
    p = chain(1100)
    for kind in ("single_source", "connected_upsets"):
        with pytest.raises(CapExceededError, match=f"cap=10 spreads of kind '{kind}'"):
            builtin_family(p, kind, cap=10)


def test_enumeration_deterministic():
    p = grid(2, 3)
    a = [s.render() for s in enumerate_spreads(p, "connected_spreads")]
    b = [s.render() for s in enumerate_spreads(p, "connected_spreads")]
    assert a == b


# -- containment poset -----------------------------------------------------


def test_containment_poset_is_inclusion_order():
    p = grid(2, 2)
    spreads = enumerate_spreads(p, "connected_spreads")
    cp = containment_poset(spreads)
    assert cp.n == len(spreads)
    for i, s in enumerate(spreads):
        for j, t in enumerate(spreads):
            want = s.support | t.support == t.support  # s subset of t
            assert cp.leq(i, j) == want


def test_containment_poset_rejects_duplicates():
    p = grid(2, 2)
    s = spread_from_convex(p, ["00"])
    with pytest.raises(DuplicateSpreadError):
        containment_poset([s, s])
