import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadhom import (
    DuplicateSpreadError,
    Family,
    MissingProjectivesError,
    Morphism,
    NotConnectedError,
    PersistenceModule,
    PrimeField,
    Spread,
    SpreadHomError,
    builtin_family,
    check_family,
    class_via_resolution,
    direct_sum,
    enumerate_spreads,
    hom_basis,
    hom_dim,
    kernel_module,
    minimal_approximation,
    resolve,
    simple_module,
    spread_from_antichains,
    spread_from_convex,
    spread_module,
    x_dimension,
    zero_module,
)
from spreadhom.gallery import (
    atilde5_family,
    chain,
    fan,
    funnel,
    generator_posets,
    grid,
    equal_rank_pair,
)
from spreadhom import approx, hom, modules
from spreadhom.approx import BUILTIN_FAMILIES, Family, _member_homs
from spreadhom.hom import spread_hom_components
from spreadhom.poset import iter_mask, kahn_order, mask_of
from spreadhom.randmod import random_module

from helpers import (
    ORACLE_SPREADS,
    approximation_morphism,
    assemble,
    connecting,
    full_row_minimal_approximation,
    hom_morphisms,
    module_route,
)


# -- family construction and diagnostics -------------------------------------


def test_family_rejects_duplicates_and_disconnected():
    p = grid(2, 2)
    s = spread_from_convex(p, ["00"])
    with pytest.raises(DuplicateSpreadError, match=r"spread \[00,00\] appears twice"):
        Family(p, [s, spread_from_convex(p, ["00"])])
    disconnected = Spread(
        p, mask_of([p.element("01"), p.element("10")]),
        mask_of([p.element("01"), p.element("10")]),
        mask_of([p.element("01"), p.element("10")]),
    )
    with pytest.raises(NotConnectedError):
        Family(p, [disconnected])


def test_builtin_families_acyclic_on_small_posets():
    # every builtin family has an acyclic Hom digraph on the whole generator;
    # cycles need hand-built collections like the doubled-source trio below
    for name, p in generator_posets(max_n=6):
        for fam in ("single_source", "hooks", "connected_upsets", "intervals"):
            d = check_family(builtin_family(p, fam))
            assert d.hom_acyclic, (name, fam)
            assert d.topo_order is not None and d.hom_cycle is None


def test_check_family_reports_missing_projectives(field):
    p = fan(3)
    x = builtin_family(p, "intervals")
    assert x.missing_projectives() == ("0",)
    with pytest.raises(MissingProjectivesError, match=r"principal up-sets at \{0\}"):
        resolve(x, simple_module(p, field, 0))
    # hooks subsume the up-sets, so nothing is missing
    assert builtin_family(p, "hooks").missing_projectives() == ()


def test_hom_matrix_diagonal_is_one(field):
    x = builtin_family(grid(2, 2), "single_source")
    h = x.hom_matrix()
    for i in range(len(x)):
        assert h[i][i] == 1
    # matrix agrees with the solver on a sample
    mods = x.member_modules(field)
    for i in (0, 3, 7):
        for j in (1, 5, 9):
            assert h[i][j] == hom_basis(mods[i], mods[j]).shape[1]


def test_doubled_source_trio_has_hom_cycle():
    p, x = atilde5_family()
    d = check_family(x)
    assert not d.hom_acyclic
    assert d.topo_order is None
    cyc = d.hom_cycle
    assert cyc is not None and len(cyc) == 3
    h = x.hom_matrix()
    for i, j in zip(cyc, cyc[1:] + cyc[:1]):
        assert h[i][j] > 0


def test_hom_cycle_found_behind_a_sink():
    # some nodes Kahn leaves over lie downstream of a cycle and have no
    # left-over successor, so a walk along successors can get stuck there;
    # a walk along predecessors always closes a cycle
    x = builtin_family(grid(3, 3), "connected_spreads")
    d = check_family(x)
    assert d.hom_acyclic is False
    cyc = d.hom_cycle
    assert cyc is not None and len(cyc) >= 2
    h = x.hom_matrix()
    for i, j in zip(cyc, cyc[1:] + cyc[:1]):
        assert h[i][j] != 0, (x.members[i].render(), x.members[j].render())


def test_check_family_is_computed_once():
    x = builtin_family(grid(2, 2), "single_source")
    d = check_family(x)
    assert check_family(x) is d
    assert d.hom_acyclic and len(d.topo_order) == len(x)


def _all_components(s, t):
    """spread_hom_components without its source/target rejection: every component is tested."""
    p = s.poset
    out = [
        comp for comp in p.connected_components(s.support & t.support)
        if not any(p.up_mask(a) & comp for a in iter_mask(s.sources & ~comp))
        and not any(p.down_mask(d) & comp for d in iter_mask(t.targets & ~comp))
    ]
    return tuple(sorted(out, key=int.bit_length))


def _dense_topo(h):
    """Kahn and the predecessor walk on the dense matrix, as before the sparse rows."""
    n = len(h)
    order, indeg = kahn_order([[j for j in range(n) if j != i and h[i][j]] for i in range(n)])
    if len(order) == n:
        return tuple(order), None
    walk = [next(i for i in range(n) if indeg[i] > 0)]
    seen = {walk[0]: 0}
    while True:
        prev = next(i for i in range(n) if i != walk[-1] and h[i][walk[-1]] and indeg[i] > 0)
        if prev in seen:
            cycle = walk[seen[prev]:][::-1]
            k = cycle.index(min(cycle))
            return None, tuple(cycle[k:] + cycle[:k])
        seen[prev] = len(walk)
        walk.append(prev)


def _assert_rows_match_unfiltered(x):
    rows = x.hom_rows()
    h = x.hom_matrix()
    for i, s in enumerate(x.members):
        want = [(j, _all_components(s, t)) for j, t in enumerate(x.members)]
        assert rows[i] == {j: c for j, c in want if c}, s.render()
        assert list(rows[i]) == sorted(rows[i])  # by j
        for j, comps in want:
            assert spread_hom_components(s, x.members[j]) == x.pair_hom(i, j) == comps
            assert h[i][j] == len(comps)
    d = check_family(x)
    assert (d.topo_order, d.hom_cycle) == _dense_topo(h)


def test_hom_rows_match_unfiltered_components_on_small_posets():
    # every builtin kind, so the one-source and one-target shortcuts and the
    # member index meet single- and multi-source members alike
    for p in [p for _, p in generator_posets(max_n=5)] + [grid(4, 4), chain(12)]:
        for kind in BUILTIN_FAMILIES:
            _assert_rows_match_unfiltered(builtin_family(p, kind))


@given(st.sampled_from(sorted(ORACLE_SPREADS)), st.data())
def test_spread_hom_components_match_the_unfiltered_search(name, data):
    spreads = ORACLE_SPREADS[name]
    s, t = (spreads[data.draw(st.integers(0, len(spreads) - 1))] for _ in range(2))
    assert spread_hom_components(s, t) == _all_components(s, t), (s.render(), t.render())


def test_spread_is_connected_matches_the_poset_search():
    # the oracle spreads are connected; their support intersections are
    # convex and often not, with several sources and targets
    for name, spreads in ORACLE_SPREADS.items():
        p = spreads[0].poset
        convex = {s.support & t.support for s in spreads for t in spreads} - {0}
        for mask in convex:
            s = spread_from_convex(p, mask)
            assert s.is_connected() == p.is_connected(mask), (name, s.render())
        assert any(not p.is_connected(mask) for mask in convex) or name == "funnel", name


GRID33_SPREADS = enumerate_spreads(grid(3, 3), "connected_spreads")


def _covering_grid33_members(picks):
    """The `GRID33_SPREADS` picks, in that order, then the principal up-sets of grid(3, 3) they lack."""
    p = grid(3, 3)
    members = [GRID33_SPREADS[k] for k in picks]
    supports = {s.support for s in members}
    return members + [spread_from_convex(p, p.up_mask(a)) for a in range(p.n) if p.up_mask(a) not in supports]


@given(st.lists(st.integers(0, len(GRID33_SPREADS) - 1), min_size=1, max_size=40, unique=True))
def test_hom_rows_match_unfiltered_components_on_random_families(picks):
    # members in a random order and subset, so both acyclic and cyclic digraphs occur
    _assert_rows_match_unfiltered(Family(grid(3, 3), [GRID33_SPREADS[k] for k in picks]))


@given(st.lists(st.integers(0, len(GRID33_SPREADS) - 1), min_size=1, max_size=40, unique=True),
       st.integers(0, 10_000))
def test_rows_on_demand_change_no_resolution(picks, seed):
    # a fresh family builds the rows it reads; its twin builds them all first
    p = grid(3, 3)
    members = _covering_grid33_members(picks)
    fresh, twin = Family(p, members), Family(p, members)
    check_family(twin)
    m = random_module(p, PrimeField(), random.Random(seed))
    assert resolve(fresh, m, max_depth=8) == resolve(twin, m, max_depth=8)
    full = twin.hom_rows()
    assert fresh._rows and all(row == full[i] for i, row in fresh._rows.items())


def test_one_resolve_builds_only_the_rows_it_reads(field, monkeypatch):
    # one module over a fresh grid(4, 4) connected_spreads family (678
    # members) reads some of the member Hom rows, each built once
    x = builtin_family(grid(4, 4), "connected_spreads")
    pairs = []
    components = approx.spread_hom_components
    monkeypatch.setattr(approx, "spread_hom_components",
                        lambda s, t: pairs.append((s.support, t.support)) or components(s, t))
    resolve(x, random_module(x.poset, field, random.Random(0)), max_depth=16)
    assert len(x) == 678 and 0 < len(pairs) < 678 ** 2
    assert len(set(pairs)) == len(pairs)


def test_coverage_guard(field):
    p = fan(3)
    x = builtin_family(p, "intervals")  # lacks the up-set at the hub
    m = simple_module(p, field, 0)
    with pytest.raises(MissingProjectivesError):
        minimal_approximation(x, m)
    # resolve checks before it answers anything, for the zero module and at depth 0 too
    for m, depth in ((m, 8), (zero_module(p, field), 8), (m, 0)):
        for call in (resolve, x_dimension):
            with pytest.raises(MissingProjectivesError):
                call(x, m, depth)


# -- minimal approximations -------------------------------------------------


def _approximation_spans(x, picked, m):
    """For each member T: (dim of full Hom(T,m), dim of the span reached by
    composing picked maps with Hom(T, R_i))."""
    field = m.field
    mods = x.member_modules(field)
    out = []
    for j in range(len(x)):
        full = hom_basis(mods[j], m)
        cols = []
        for i, g in picked:
            for h in hom_morphisms(mods[j], mods[i]):
                cols.append((g @ h).vec())
        if cols:
            reached = field.rank(np.array(cols).T)
        else:
            reached = 0
        out.append((full.shape[1], reached))
    return out


def _greedy_minimal(x, m):
    """Summand-removal oracle: start from the universal pick list and drop
    maps while the factoring property survives; return the multiplicities."""
    field = m.field
    mods = x.member_modules(field)
    picked = []
    for i, r in enumerate(mods):
        for g in hom_morphisms(r, m):
            picked.append((i, g))

    def is_approximation(subset):
        return all(full == reached for full, reached in _approximation_spans(x, subset, m))

    assert is_approximation(picked)
    changed = True
    while changed:
        changed = False
        for k in range(len(picked)):
            trial = picked[:k] + picked[k + 1:]
            if is_approximation(trial):
                picked = trial
                changed = True
                break
    mult = [0] * len(x)
    for i, _ in picked:
        mult[i] += 1
    return tuple(mult)


def _summand_maps(x, f, counts):
    """The columns of f: (i, f restricted to one summand R_i), in domain order.

    counts[i] is the number of summands R_i in the domain.
    """
    field = f.target.field
    p = f.target.poset
    out = []
    col = [0] * p.n
    for i, r in enumerate(x.member_modules(field)):
        for _ in range(counts[i]):
            comps = []
            for a in range(p.n):
                comps.append(f.components[a].columns(range(col[a], col[a] + r.dims[a])))
                col[a] += r.dims[a]
            out.append((i, Morphism(r, f.target, comps)))  # validates naturality
    assert col == [f.source.dims[a] for a in range(p.n)]
    return out


def test_minimal_approximation_factors_everything(field, rng):
    p = grid(2, 2)
    x = builtin_family(p, "single_source")
    targets = [random_module(p, field, rng) for _ in range(4)]
    # a spread module as a target too, next to the random ones
    targets.append(spread_module(spread_from_antichains(p, ["00"], ["01", "10"]), field))
    for m in targets:
        mult, f = approximation_morphism(x, m)
        # pointwise surjective
        for a in range(m.poset.n):
            assert field.rank(f.components[a]) == m.dims[a]
        # one summand per unit of the multiplicity vector, and Hom(T, f) is
        # onto for every member T
        picked = _summand_maps(x, f, mult)
        assert all(
            full == reached for full, reached in _approximation_spans(x, picked, m)
        )


def test_minimal_approximation_of_member_is_itself(field):
    for fam in ("single_source", "hooks"):
        x = builtin_family(grid(2, 2), fam)
        for i, s in enumerate(x.members):
            mult, _ = minimal_approximation(x, spread_module(s, field))
            want = [0] * len(x)
            want[i] = 1
            assert mult == tuple(want), (fam, s.render())


def test_minimal_approximation_of_member_sum(field):
    x = builtin_family(grid(2, 2), "single_source")
    m = direct_sum([spread_module(x.members[0], field),
                    spread_module(x.members[0], field),
                    spread_module(x.members[4], field)])
    mult, _ = minimal_approximation(x, m)
    want = [0] * len(x)
    want[0], want[4] = 2, 1
    assert mult == tuple(want)


def test_minimal_matches_greedy_oracle(field, rng):
    # summand-removal from the universal approximation lands on the same
    # multiplicity vector as the radical-quotient formula
    cases = [
        (grid(2, 2), "single_source"),
        (fan(3), "hooks"),
        (funnel(), "connected_upsets"),
    ]
    for p, fam in cases:
        x = builtin_family(p, fam)
        assert len(x) <= 13
        for _ in range(4):
            m = random_module(p, field, rng)
            mult, f = approximation_morphism(x, m)
            assert mult == _greedy_minimal(x, m), (fam, m.dims)
            # domain multiplicities are what the vector says
            dom_dim = sum(
                k * sum(spread_module(s, field).dims)
                for k, s in zip(mult, x.members)
            )
            assert sum(f.source.dims) == dom_dim


def _assert_matches_full_row_oracle(x, m, depth=3):
    """minimal_approximation equals the full-row oracle byte for byte, on m and its next kernels."""
    for _ in range(depth):
        if m.is_zero():
            return
        mult, coords = minimal_approximation(x, m)
        want_mult, want_coords = full_row_minimal_approximation(x, m)
        assert mult == want_mult
        assert coords == want_coords
        f, want = assemble(x, m, coords), assemble(x, m, want_coords)
        assert f.source == want.source
        for got_c, want_c in zip(f.components, want.components):
            assert (got_c.shape, got_c.rows) == (want_c.shape, want_c.rows)
        m, _ = kernel_module(f)


ORACLE_POSETS = dict(generator_posets(max_n=5), grid33=grid(3, 3))  # the funnel among them
ORACLE_CASES = [
    (name, kind) for name, p in ORACLE_POSETS.items() for kind in BUILTIN_FAMILIES
    if not builtin_family(p, kind).missing_projectives()
]


@given(st.sampled_from(ORACLE_CASES), st.integers(0, 10_000))
def test_minimal_approximation_matches_full_row_oracle(case, seed):
    name, kind = case
    p = ORACLE_POSETS[name]
    m = random_module(p, PrimeField(), random.Random(seed))
    _assert_matches_full_row_oracle(builtin_family(p, kind), m)


def test_minimal_approximation_matches_full_row_oracle_on_the_funnel(field, rng):
    p = funnel()
    for kind in BUILTIN_FAMILIES:
        x = builtin_family(p, kind)
        if not x.missing_projectives():
            for _ in range(3):
                _assert_matches_full_row_oracle(x, random_module(p, field, rng))


@given(st.lists(st.integers(0, len(GRID33_SPREADS) - 1), min_size=1, max_size=40, unique=True),
       st.integers(0, 10_000))
def test_minimal_approximation_matches_full_row_oracle_on_random_families(picks, seed):
    # a random sub-family in a random order, completed by the principal up-sets it lacks
    p = grid(3, 3)
    m = random_module(p, PrimeField(), random.Random(seed))
    _assert_matches_full_row_oracle(Family(p, _covering_grid33_members(picks)), m)


@given(st.integers(0, 10_000))
def test_minimal_approximation_matches_full_row_oracle_on_atilde5(seed):
    p, x = atilde5_family()
    _assert_matches_full_row_oracle(x, random_module(p, PrimeField(), random.Random(seed)), depth=6)


def test_minimal_approximation_matches_full_row_oracle_deep_in_a_periodic_resolution(field):
    # M_[1,6] never resolves: its terms cycle through the three doubled spreads
    p, x = atilde5_family()
    m = spread_module(spread_from_antichains(p, ["1"], ["6"]), field)
    assert resolve(x, m, max_depth=12).status == "truncated"
    _assert_matches_full_row_oracle(x, m, depth=12)


def test_radical_generators_drop_maps_through_a_third_member():
    # on grid(4, 4) the indicator of a member's support, between two other
    # members, adds nothing; no two components share their sources, since
    # they are disjoint and each holds a source
    for kind, kept, total in (("intervals", 600, 1125), ("hooks", 800, 1775)):
        x = builtin_family(grid(4, 4), kind)
        rows = x.hom_rows()
        assert sum(len(comps) for i, row in enumerate(rows) for j, comps in row.items() if j != i) == total
        assert sum(len(x.radical_generators(i)) for i in range(len(x))) == kept
        assert all(x.radical_generators(i) is x.radical_generators(i) for i in range(len(x)))


def test_a_resolution_step_eliminates_once_per_quantity(field, monkeypatch):
    # one rref per Yoneda system on the input module M, at most one per member
    # with a source in supp M, and one per kernel Hom space Hom(R_l, K) whose
    # map into Hom(R_l, T) is not zero, that is, where Hom(R_l, T) != 0, for
    # each module T that is approximated; and no solve: the radical is
    # reduced column by column, not by an rref, and no kernel is built
    p = grid(4, 4)
    x = builtin_family(p, "intervals")
    rng = random.Random(4)
    mods = [random_module(p, field, rng) for _ in range(3)]
    calls = {"rref": 0, "solve": 0}
    for name in calls:
        def counted(self, *args, _name=name, _orig=getattr(PrimeField, name)):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(PrimeField, name, counted)
    resolutions = [resolve(x, m) for m in mods]
    monkeypatch.undo()
    budget = 0
    for m, res in zip(mods, resolutions):
        assert res.status == "finite" and res.depth >= 2
        _, steps = module_route(x, m)
        budget += sum(1 for s in x.members if s.sources & m.support_mask())
        budget += sum(len(_member_homs(x, stage)) for stage in (m, *[step.kernel for step in steps[:-1]]))
    assert calls["solve"] == 0
    assert 0 < calls["rref"] <= budget


def test_an_approximation_stops_reading_the_radical_once_it_fills_hom(field, monkeypatch):
    # once the radical blocks read so far span Hom(R_i, M), the rest are never evaluated
    p = grid(4, 4)
    x = builtin_family(p, "intervals")
    calls = []
    yoneda_values = approx.yoneda_values
    monkeypatch.setattr(approx, "yoneda_values", lambda *args: calls.append(args) or yoneda_values(*args))
    rng = random.Random(4)
    for _ in range(3):
        m = random_module(p, field, rng)
        homs = _member_homs(x, m)
        radical = [(j, sources) for i in homs for j, sources in x.radical_generators(i) if j in homs]
        # each block reads Hom(R_j, M) at the sources it holds, evaluated once per (j, a)
        values = {(j, a) for j, sources in radical for a in iter_mask(sources)}
        calls.clear()
        approx._approximate(x, field, approx._source_coordinates(x, m, homs))
        assert 0 < len(calls) < min(len(values), len(radical))


def test_twisted_corner_module_minimal_multiplicities(field):
    # the twisted equal-rank module needs four interval summands: the three
    # simples it contains plus the full square
    p, _, mprime = equal_rank_pair(field)
    x = builtin_family(p, "intervals")
    labels = dict(zip(x.labels(), minimal_approximation(x, mprime)[0]))
    assert {k: v for k, v in labels.items() if v} == {
        "[00,00]": 1,
        "[01,01]": 1,
        "[10,10]": 1,
        "[00,11]": 1,
    }


def test_zero_module_resolution(field):
    x = builtin_family(grid(2, 2), "single_source")
    res = resolve(x, zero_module(grid(2, 2), field))
    assert res.status == "finite"
    assert res.terms == ()
    assert x_dimension(x, zero_module(grid(2, 2), field)) == 0


# -- resolutions ---------------------------------------------------------------


def test_resolution_of_member_sum_has_depth_zero(field):
    x = builtin_family(grid(2, 2), "single_source")
    m = direct_sum([spread_module(x.members[2], field), spread_module(x.members[6], field)])
    res = resolve(x, m)
    assert res.status == "finite"
    assert len(res.terms) == 1
    assert x_dimension(x, m) == 0


def test_a_depth_that_is_not_an_integer_raises(field):
    # 2.5 is refused rather than compared with the number of terms, which
    # never equals it: a periodic resolution would run on without end
    x = builtin_family(grid(2, 2), "single_source")
    m = direct_sum([spread_module(x.members[2], field), spread_module(x.members[6], field)])
    assert resolve(x, m, np.int64(2)).status == "finite"
    for call in (resolve, x_dimension, class_via_resolution):
        with pytest.raises(TypeError):
            call(x, m, 2.5)
    with pytest.raises(ValueError, match="max_depth must be non-negative, got -1"):
        resolve(x, m, max_depth=-1)


def test_resolution_is_exact(field, rng):
    p = grid(2, 2)
    x = builtin_family(p, "single_source")
    for _ in range(4):
        m = random_module(p, field, rng)
        (terms, status, _), steps = module_route(x, m)
        assert status == "finite"
        # each approximation is onto its stage
        for step in steps:
            f = step.approximation
            for a in range(p.n):
                assert field.rank(f.components[a]) == f.target.dims[a]
        # consecutive connecting maps compose to zero, with matching ranks
        for k in range(1, len(terms)):
            q = connecting(steps, k)
            if k >= 2:
                assert (connecting(steps, k - 1) @ q).is_zero()
            # image of connecting = kernel of previous stage, pointwise
            ker, _ = kernel_module(steps[k - 1].approximation)
            for a in range(p.n):
                assert field.rank(q.components[a]) == ker.dims[a]


def test_resolution_first_step_is_additive_on_hom(field, rng):
    # dim Hom(T, domain) = dim Hom(T, kernel) + dim Hom(T, module) across the
    # first approximation: the defining exactness of the relative structure
    p = grid(2, 2)
    x = builtin_family(p, "single_source")
    mods = x.member_modules(field)
    for _ in range(3):
        m = random_module(p, field, rng)
        _, steps = module_route(x, m)
        if not steps:
            continue
        dom = steps[0].approximation.source
        ker = steps[0].kernel
        for t in mods:
            assert hom_dim(t, dom) == hom_dim(t, ker) + hom_dim(t, m)


def test_truncation_and_periodicity(field):
    p, x = atilde5_family()
    m = spread_module(spread_from_antichains(p, ["1"], ["6"]), field)
    res = resolve(x, m, max_depth=6)
    assert res.status == "truncated"
    assert len(res.terms) == 6
    assert res.periodicity is not None
    i, j = res.periodicity
    assert 0 <= i < j < 6
    assert x_dimension(x, m, max_depth=6) is None
    assert x_dimension(x, m, max_depth=12) is None


# every covering builtin family on the small posets and on grid(3, 3) (multi-source
# connected_spreads among them), the benchmark's grid(4, 4) intervals and hooks,
# and the cyclic atilde5 family, whose truncated runs are signed and compared
RESOLVE_FAMILIES = [
    x for p in [p for _, p in generator_posets(5)] + [grid(3, 3)] for kind in BUILTIN_FAMILIES
    if not (x := builtin_family(p, kind)).missing_projectives()
] + [builtin_family(grid(4, 4), kind) for kind in ("intervals", "hooks")] + [atilde5_family()[1]]


@settings(max_examples=200)
@given(st.sampled_from(range(len(RESOLVE_FAMILIES))), st.integers(0, 12), st.integers(0, 10_000))
def test_resolve_matches_the_module_route(k, depth, seed):
    x = RESOLVE_FAMILIES[k]
    m = random_module(x.poset, PrimeField(), random.Random(seed))
    res = resolve(x, m, depth)
    assert (res.terms, res.status, res.periodicity) == module_route(x, m, depth)[0]


def test_resolve_matches_the_module_route_deep_in_a_periodic_resolution(field):
    # M_[1,6] over atilde5 never resolves: every depth to 12 is truncated and
    # signed, and from depth 4 two kernels match
    p, x = atilde5_family()
    m = spread_module(spread_from_antichains(p, ["1"], ["6"]), field)
    for depth in range(13):
        res = resolve(x, m, depth)
        assert (res.terms, res.status, res.periodicity) == module_route(x, m, depth)[0]
        assert res.status == "truncated" and (res.periodicity is not None) == (depth >= 4)


def test_resolve_solves_the_homs_into_each_module_once(field, rng, monkeypatch):
    # one `_member_homs`, on the input module, whatever the depth: no kernel
    # is solved by Yoneda, and depth 0 solves nothing
    calls = []
    member_homs = approx._member_homs
    monkeypatch.setattr(approx, "_member_homs", lambda x, k: calls.append(k) or member_homs(x, k))
    p, x = atilde5_family()
    m = spread_module(spread_from_antichains(p, ["1"], ["6"]), field)
    for depth in (0, 1, 6, 12):
        calls.clear()
        res = resolve(x, m, max_depth=depth)
        assert res.status == "truncated" and res.depth == depth
        assert calls == ([m] if depth else [])
    x = builtin_family(grid(2, 2), "single_source")
    for _ in range(3):
        calls.clear()
        m = random_module(grid(2, 2), field, rng)
        res = resolve(x, m)
        assert res.status == "finite" and res.depth >= 1 and calls == [m]


def _refuse_module_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a module or morphism was built")

    for target, name in ((hom, "kernel_module"), (modules, "direct_sum"), (modules, "spread_module"),
                         (approx, "spread_module"), (PersistenceModule, "__init__"),
                         (PersistenceModule, "_build"), (Morphism, "_build")):
        monkeypatch.setattr(target, name, refuse)


def test_resolve_builds_no_module(field, rng, monkeypatch):
    cases = [(builtin_family(grid(4, 4), "hooks"), random_module(grid(4, 4), field, rng), 16)]
    p, x = atilde5_family()
    cases.append((x, spread_module(spread_from_antichains(p, ["1"], ["6"]), field), 8))
    want = [module_route(x, m, depth)[0] for x, m, depth in cases]
    _refuse_module_building(monkeypatch)
    for (x, m, depth), (terms, status, periodicity) in zip(cases, want):
        res = resolve(x, m, depth)
        assert (res.terms, res.status, res.periodicity) == (terms, status, periodicity)
        assert res.depth >= 2


def test_minimal_approximation_builds_no_module(field, rng, monkeypatch):
    # the picks are coordinates: no module, direct sum, spread module or morphism is built
    cases = [(builtin_family(grid(4, 4), "hooks"), random_module(grid(4, 4), field, rng))]
    p, x = atilde5_family()
    cases.append((x, spread_module(spread_from_antichains(p, ["1"], ["6"]), field)))
    want = [full_row_minimal_approximation(x, m) for x, m in cases]
    _refuse_module_building(monkeypatch)
    got = [minimal_approximation(x, m) for x, m in cases]
    assert got == want
    assert all(coords for _, coords in got)


@pytest.mark.parametrize("coordinates, call", [
    pytest.param("_source_coordinates", resolve, id="_source_coordinates"),
    pytest.param("_indicator_coordinates", resolve, id="_indicator_coordinates"),
    pytest.param("_source_coordinates", minimal_approximation, id="minimal_approximation"),
])
def test_a_broken_composition_rule_fails_the_self_check(field, monkeypatch, coordinates, call):
    # each composite read with its anchor shifted down one element: the kernel
    # widths at the principal up-sets then miss dims(K), and resolve refuses,
    # as does minimal_approximation, whose one onto check is the same
    build = getattr(approx, coordinates)

    def shifted(*args):
        basis, composites = build(*args)
        return basis, lambda l, j, mask: composites(l, j, mask << 1)

    monkeypatch.setattr(approx, coordinates, shifted)
    p = grid(4, 4)
    m = random_module(p, field, random.Random(4))
    with pytest.raises(SpreadHomError, match="fails to be onto"):
        call(builtin_family(p, "intervals"), m)
