import hashlib
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadhom import (
    Morphism,
    PersistenceModule,
    Poset,
    PosetMismatchError,
    PrimeField,
    builtin_family,
    dim_hom_vector,
    direct_sum,
    enumerate_spreads,
    hom_basis,
    hom_dim,
    image_module,
    kernel_module,
    morphism_from_vec,
    projective_module,
    rank_invariant,
    rank_via_hooks,
    simple_module,
    spread_from_antichains,
    spread_hom_dim,
    spread_module,
)
from spreadhom.gallery import (
    chain,
    grid53_hom_pair,
    funnel,
    generator_posets,
    grid,
    equal_rank_pair,
)
from spreadhom.approx import BUILTIN_FAMILIES
from spreadhom.field import Matrix
from spreadhom.files import dump_module
from spreadhom.hom import _subfunctor, agreement_system, stacked_offsets, yoneda_basis, yoneda_values
from spreadhom.poset import elements_of
from spreadhom.randmod import random_module

from helpers import (
    ORACLE_POSETS,
    ORACLE_SPREADS,
    hom_morphisms,
    indicator_morphisms,
    nonthin_brick,
    to_np,
    yoneda_morphisms,
    zero_morphism,
)


def test_only_spread_module_tags_a_spread(field):
    # S_1 + S_2 on a 2-chain has the support of the interval [1, 2] but not
    # its Hom into S_2, and no constructor takes a spread to say otherwise
    p = chain(2)
    s = spread_from_antichains(p, ["1"], ["2"])
    with pytest.raises(TypeError):
        PersistenceModule(p, field, [1, 1], {}, spread=s)
    m = PersistenceModule(p, field, [1, 1])
    top = simple_module(p, field, 1)
    assert hom_dim(m, top) == 1
    assert hom_dim(spread_module(s, field), top) == 0


def test_grid5x3_pair_has_one_dim_hom(field):
    p, s, t = grid53_hom_pair()
    assert spread_hom_dim(s, t) == 1
    assert hom_dim(spread_module(s, field), spread_module(t, field)) == 1


def test_spread_route_matches_solver_on_small_posets(field):
    # the counting route and the naturality-kernel route must agree everywhere
    for name, p in generator_posets(max_n=5):
        spreads = enumerate_spreads(p, "connected_spreads")
        mods = [spread_module(s, field) for s in spreads]
        for s, ms in zip(spreads, mods):
            for t, mt in zip(spreads, mods):
                combinatorial = spread_hom_dim(s, t)
                solved = hom_dim(ms, mt)
                assert combinatorial == solved, (name, s.render(), t.render())


def test_indicator_basis_is_the_solver_basis(field):
    # the component indicators of spread_hom_components, ordered by largest
    # element id, are exactly the solver's canonical kernel basis
    for name, p in generator_posets(max_n=5):
        spreads = enumerate_spreads(p, "connected_spreads")
        mods = [spread_module(s, field) for s in spreads]
        for s, ms in zip(spreads, mods):
            for t, mt in zip(spreads, mods):
                got = [f.vec() for f in indicator_morphisms(s, t, field)]
                want = [list(col) for col in zip(*hom_basis(ms, mt).rows)]
                assert got == want, (name, s.render(), t.render())


def test_equal_modules_get_equal_bases(field):
    # the basis is a function of the values of the endpoints: a spread module
    # and its copy through the public constructor give the same bytes
    for name, p in generator_posets(max_n=5):
        n = random_module(p, field, random.Random(1))
        for s in enumerate_spreads(p, "connected_spreads"):
            m = spread_module(s, field)
            copy = PersistenceModule(p, field, m.dims, m.maps)
            assert copy == m
            assert hom_basis(m, n) == hom_basis(copy, n), (name, s.render())


def test_hom_basis_builds_no_morphism(field, rng, monkeypatch):
    # the basis is the kernel matrix itself: no column is read back as a
    # Morphism, checked or not, to be counted or flattened again
    p = funnel()
    pairs = [(random_module(p, field, rng), random_module(p, field, rng)) for _ in range(6)]
    pairs.append((projective_module(p, field, 0), direct_sum([m for m, _ in pairs])))
    want = [(hom_basis(m, n), hom_dim(m, n)) for m, n in pairs]
    assert sum(d for _, d in want) > 0

    def refuse(*args, **kwargs):
        raise AssertionError("a Morphism was built")

    monkeypatch.setattr(Morphism, "__init__", refuse)
    monkeypatch.setattr(Morphism, "_build", refuse)
    assert [(hom_basis(m, n), hom_dim(m, n)) for m, n in pairs] == want
    assert all(b.shape[1] == d for b, d in want)


def test_random_module_draws_are_pinned(field):
    # random_module combines the Hom basis columns itself: every draw, dumped,
    # is byte for byte the draw of the earlier route through one Morphism per column
    digest = hashlib.sha256()
    for name, p in [*generator_posets(6), ("grid3x3", grid(3, 3))]:
        spreads = enumerate_spreads(p, "connected_spreads")
        for seed in range(12):
            rng = random.Random(seed)
            for _ in range(4):
                digest.update(dump_module(random_module(p, field, rng, spreads), name).encode())
    assert digest.hexdigest()[:16] == "18dde0a375c804cd"


def test_hom_basis_never_reaches_spread_level(field, rng, monkeypatch):
    # hom_basis is the oracle of the spread-level routes, so with them all
    # refusing it still gives the Yoneda widths, the hook-counted ranks and
    # the counted components
    cases = []
    for _, p in generator_posets(max_n=4):
        x = builtin_family(p, "connected_spreads")
        m = random_module(p, field, rng)
        counts = [[spread_hom_dim(s, t) for t in x.members] for s in x.members]
        cases.append((x, m, dim_hom_vector(x, m), counts))

    def refuse(*args, **kwargs):
        raise AssertionError("hom_basis reached spread level")

    for name in ("yoneda_basis", "agreement_system", "spread_hom_components"):
        monkeypatch.setattr(f"spreadhom.hom.{name}", refuse)
    for x, m, widths, counts in cases:
        mods = x.member_modules(field)
        assert tuple(hom_dim(r, m) for r in mods) == widths
        assert rank_via_hooks(m) == rank_invariant(m)
        assert [[hom_basis(r, q).shape[1] for q in mods] for r in mods] == counts


YONEDA_POSETS = {"grid2x2": grid(2, 2), "grid3x3": grid(3, 3), "funnel": funnel()}
YONEDA_SPREADS = {k: enumerate_spreads(p, "connected_spreads") for k, p in YONEDA_POSETS.items()}


@given(st.sampled_from(sorted(YONEDA_POSETS)), st.integers(0, 10_000))
def test_yoneda_basis_is_empty_when_the_target_vanishes_at_the_sources(name, seed):
    # Hom(M_s, n) embeds in ⊕ n_a over the sources a of s; when that is 0 the
    # basis is empty at once, otherwise it has the solver's dimension
    field = PrimeField()
    n = random_module(YONEDA_POSETS[name], field, random.Random(seed))
    for s in YONEDA_SPREADS[name]:
        w = yoneda_basis(s, n)
        m = spread_module(s, field)
        want = hom_dim(m, n)
        rows = sum(n.dims[a] for a in elements_of(s.sources))
        if rows:
            assert w.shape == (rows, want), s.render()
        else:
            assert w.shape == (0, 0) and want == 0, s.render()


@given(st.sampled_from(sorted(YONEDA_POSETS)), st.integers(0, 10_000))
def test_yoneda_route_matches_solver(name, seed):
    # Hom out of every connected spread, multi-source ones included, into a
    # random module: the Yoneda columns read back as natural morphisms (the
    # helper checks each) that span the solver's basis, of its dimension
    field = PrimeField()
    p = YONEDA_POSETS[name]
    n = random_module(p, field, random.Random(seed))
    for s in YONEDA_SPREADS[name]:
        m = spread_module(s, field)
        got = [f.vec() for f in yoneda_morphisms(s, n)]
        want = hom_basis(m, n)
        assert len(got) == want.shape[1], s.render()
        cols = np.array(got, dtype=np.int64).reshape(len(got), want.shape[0]).T
        both = np.concatenate([cols, to_np(want)], axis=1)
        assert field.rank(cols) == field.rank(both) == want.shape[1], s.render()


@given(st.sampled_from(sorted(ORACLE_POSETS)), st.integers(0, 10_000))
def test_yoneda_basis_is_the_canonical_basis_of_the_solver_span(name, seed):
    # every column pinned: the solver's basis, read at the sources in
    # increasing id order, spans Hom(M_s, n) in ⊕ n_a, and the kernel of the
    # kernel of its transpose is the canonical basis of that span
    field = PrimeField()
    n = random_module(ORACLE_POSETS[name], field, random.Random(seed))
    for s in ORACLE_SPREADS[name]:
        w = yoneda_basis(s, n)
        sources = elements_of(s.sources)
        basis = hom_morphisms(spread_module(s, field), n)
        v = np.zeros((sum(n.dims[a] for a in sources), len(basis)), dtype=np.int64)
        for j, f in enumerate(basis):
            v[:, j] = np.concatenate([to_np(f.components[a])[:, 0] for a in sources])
        want = field.kernel_basis(to_np(field.kernel_basis(v.T)).T)
        assert w == want, s.render()


def test_hom_basis_methods(field):
    # one route, with no option to pick another: the removed method= is refused
    s = spread_from_antichains(grid(2, 2), ["00"], ["11"])
    ms = spread_module(s, field)
    assert hom_basis(ms, ms).shape[1] == hom_dim(ms, ms) == 1
    with pytest.raises(TypeError):
        hom_basis(ms, ms, method="spread")


def test_hom_dim_methods_agree(field):
    p = grid(2, 2)
    s = spread_from_antichains(p, ["00"], ["01", "10"])
    t = spread_from_antichains(p, ["00"], ["11"])
    ms, mt = spread_module(s, field), spread_module(t, field)
    assert hom_dim(ms, mt) == hom_basis(ms, mt).shape[1] == spread_hom_dim(s, t)
    with pytest.raises(TypeError):
        hom_dim(ms, mt, method="magic")


def test_hom_endpoints_must_share_poset_and_prime():
    s = spread_from_antichains(grid(2, 2), ["00"], ["11"])
    m2, m3 = spread_module(s, PrimeField(2)), spread_module(s, PrimeField(3))
    other = spread_module(spread_from_antichains(chain(4), ["1"], ["4"]), PrimeField(2))
    for target in (m3, other, random_module(grid(2, 2), PrimeField(3), random.Random(0))):
        for fn in (hom_dim, hom_basis):
            with pytest.raises(PosetMismatchError):
                fn(m2, target)


def test_spread_level_solvers_refuse_a_module_over_another_poset(field):
    # the spread's bitmasks would otherwise be read against the module's elements
    s = builtin_family(grid(2, 2), "intervals").members[0]
    m = random_module(chain(4), field, random.Random(0))
    for fn in (agreement_system, yoneda_basis):
        with pytest.raises(PosetMismatchError):
            fn(s, m)
    with pytest.raises(PosetMismatchError, match="spreads live over different posets"):
        spread_hom_dim(s, spread_from_antichains(chain(4), ["1"], ["4"]))
    # a module over an equal poset, built separately, is accepted
    n = spread_module(spread_from_antichains(grid(2, 2), ["00"], ["00"]), field)
    assert n.poset is not s.poset
    assert yoneda_basis(s, n).shape == (1, 1)


YONEDA_FAMILIES = [
    x for p in [p for _, p in generator_posets(5)] + [grid(3, 3)] for kind in BUILTIN_FAMILIES
    if not (x := builtin_family(p, kind)).missing_projectives()
]


@given(st.sampled_from(range(len(YONEDA_FAMILIES))), st.integers(0, 10_000))
def test_yoneda_values_match_the_product_route(k, seed):
    # at a source the values are the basis block itself, with no product by the identity, and a
    # one-source basis is solved from the exit maps' own rows; both against the product with
    # n(a -> x) at the least source a <= x, for every member, multi-source connected spreads included
    x = YONEDA_FAMILIES[k]
    field = PrimeField()
    n = random_module(x.poset, field, random.Random(seed))
    for s in x.members:
        w = yoneda_basis(s, n)
        offsets, _ = stacked_offsets(s.sources, n)
        for e in elements_of(s.support):
            a = next(a for a in elements_of(s.sources) if x.poset.leq(a, e))
            block = Matrix(w.rows[offsets[a]:offsets[a] + n.dims[a]], w.shape[1])
            assert yoneda_values(s, n, w, e) == field.matmul(n.map_along(a, e), block), (s.render(), e)


def test_yoneda_values_refuses_an_element_above_no_source(field):
    # the least source below x is looked up, never guessed: on grid(2, 2), 00
    # lies above no source of [01, 11]; on a chain numbered top down, the last
    # element lies below x = mid, which is above no source of [top, top]
    p = grid(2, 2)
    s = spread_from_antichains(p, ["01"], ["11"])
    n = random_module(p, field, random.Random(0))
    w = yoneda_basis(s, n)
    with pytest.raises(ValueError, match=r"00 lies above no source of the spread \[01,11\]"):
        yoneda_values(s, n, w, p.element("00"))
    q = Poset(3, [(2, 1), (1, 0)], ["top", "mid", "bot"])
    t = spread_from_antichains(q, ["top"], ["top"])
    n = spread_module(spread_from_antichains(q, ["bot"], ["top"]), field)
    with pytest.raises(ValueError, match="mid lies above no source"):
        yoneda_values(t, n, yoneda_basis(t, n), q.element("mid"))


def test_hom_from_projective_is_fiber_dim(field, rng):
    # maps out of the up-set spread at a are one per basis vector of M(a)
    for name, p in [("grid2x2", grid(2, 2)), ("funnel", funnel())]:
        for _ in range(5):
            m = random_module(p, field, rng)
            for a in range(p.n):
                proj = projective_module(p, field, a)
                assert hom_dim(proj, m) == m.dims[a], (name, a)


def test_connected_spread_modules_are_bricks(field):
    for name, p in generator_posets(max_n=5):
        for s in enumerate_spreads(p, "connected_spreads"):
            m = spread_module(s, field)
            assert hom_dim(m, m) == 1, (name, s.render())


def test_hom_basis_morphisms_are_natural(field, rng):
    p = funnel()
    for _ in range(4):
        m = random_module(p, field, rng)
        n = random_module(p, field, rng)
        basis = hom_basis(m, n)
        for f in hom_morphisms(m, n):
            Morphism(m, n, f.components)  # run full validation
        # the basis matrix has full column rank
        if basis.shape[1]:
            assert field.rank(basis) == basis.shape[1]


def test_hom_additive_in_target(field, rng):
    p = grid(2, 2)
    for _ in range(5):
        r = random_module(p, field, rng)
        a = random_module(p, field, rng)
        b = random_module(p, field, rng)
        assert hom_dim(r, direct_sum([a, b])) == hom_dim(r, a) + hom_dim(r, b)


def test_nonthin_bricks(field):
    # all four crown maps nonzero: endomorphisms are scalars, and two such
    # modules only map to each other when the defining scalars match
    for lam in (2, 3, 7):
        n = nonthin_brick(field, lam)
        assert hom_dim(n, n) == 1
    a, b = nonthin_brick(field, 2), nonthin_brick(field, 3)
    assert hom_dim(a, b) == 0
    assert hom_dim(b, a) == 0
    assert hom_dim(a, nonthin_brick(field, 2)) == 1


def test_kernel_module(field):
    # the twisted equal-rank module maps onto the straight one at the top corner?
    # simpler: kernel of the projection interval -> bottom simple is the top part
    p = chain(3)
    from spreadhom import interval_module

    full = interval_module(p, field, 0, 2)
    bottom = simple_module(p, field, 0)
    proj = Morphism(full, bottom, [field.arr([[1]]), field.zeros(0, 1), field.zeros(0, 1)])
    ker, inc = kernel_module(proj)
    assert ker.dims == (0, 1, 1)
    assert (proj @ inc).is_zero()
    Morphism(ker, full, inc.components)  # inclusion is natural
    for a in range(p.n):
        assert field.rank(inc.components[a]) == ker.dims[a]


def test_kernel_of_zero_is_identity_like(field, rng):
    p = grid(2, 2)
    m = random_module(p, field, rng)
    n = random_module(p, field, rng)
    ker, inc = kernel_module(zero_morphism(m, n))
    assert ker.dims == m.dims
    for a in range(p.n):
        assert field.rank(inc.components[a]) == m.dims[a]


@given(st.sampled_from(sorted(YONEDA_POSETS)), st.integers(0, 10_000))
def test_kernel_module_matches_the_solve_route(name, seed):
    # coordinates read off the free rows of each kernel basis are the ones
    # a solve per cover finds, byte for byte
    field = PrimeField()
    p = YONEDA_POSETS[name]
    rng = random.Random(seed)
    m, n = random_module(p, field, rng), random_module(p, field, rng)
    basis = hom_basis(m, n)
    coeffs = Matrix([[rng.randrange(field.p)] for _ in range(basis.shape[1])], 1)
    f = morphism_from_vec(m, n, [row[0] for row in field.matmul(basis, coeffs).rows])
    ker, inc = kernel_module(f)
    bases = [field.kernel_basis(c) for c in f.components]
    want, want_inc = _subfunctor(m, bases, lambda b, v: field.solve(bases[b], v), "kernel")
    assert ker.dims == want.dims
    for key, mat in want.maps.items():
        assert (ker.maps[key].shape, ker.maps[key].rows) == (mat.shape, mat.rows)
    for got_c, want_c in zip(inc.components, want_inc.components):
        assert (got_c.shape, got_c.rows) == (want_c.shape, want_c.rows)


def test_kernel_module_refuses_a_morphism_that_is_not_natural(field):
    # 0 at the bottom and 1 at the top of [0, 1]: the kernel at 0 is all of
    # m_0, and the structure map carries it out of the kernel at 1
    from spreadhom import interval_module

    m = interval_module(chain(2), field, 0, 1)
    f = Morphism._build(m, m, [field.zeros(1, 1), field.eye(1)])
    with pytest.raises(AssertionError, match="kernel is not preserved"):
        kernel_module(f)


def test_image_module(field):
    p = chain(2)
    from spreadhom import interval_module

    full = interval_module(p, field, 0, 1)
    top = simple_module(p, field, 1)
    inc = Morphism(top, full, [field.zeros(1, 0), field.arr([[1]])])
    img, emb = image_module(inc)
    assert img.dims == (0, 1)
    Morphism(img, full, emb.components)
    for a in range(p.n):
        assert field.rank(emb.components[a]) == img.dims[a]


def test_kernel_image_ranks_add_up(field, rng):
    # for every component: dim ker + dim im = dim source
    p = funnel()
    for _ in range(5):
        m = random_module(p, field, rng)
        n = random_module(p, field, rng)
        basis = hom_morphisms(m, n)
        if not basis:
            continue
        f = basis[0]
        ker, _ = kernel_module(f)
        img, _ = image_module(f)
        for a in range(p.n):
            assert ker.dims[a] + img.dims[a] == m.dims[a]


def test_equal_rank_pair_kernel_story(field):
    # the twisted module is covered by up-set-at-corner plus corner simple,
    # with kernel the top-corner simple
    p, _, mprime = equal_rank_pair(field)
    e = {lbl: p.element(lbl) for lbl in p.names}
    proj = projective_module(p, field, e["00"])
    s00 = simple_module(p, field, e["00"])
    dom = direct_sum([proj, s00])
    comps = []
    for a in range(p.n):
        if a == e["00"]:
            comps.append(field.arr([[1, 0], [0, 1]]))
        elif a in (e["01"], e["10"]):
            comps.append(field.arr([[1]]))
        else:
            comps.append(field.zeros(0, 1))
    f = Morphism(dom, mprime, comps)
    for a in range(p.n):
        assert field.rank(f.components[a]) == mprime.dims[a]  # epi
    ker, _ = kernel_module(f)
    want = [0] * 4
    want[e["11"]] = 1
    assert ker.dims == tuple(want)


@given(st.integers(0, 10_000))
def test_spread_hom_dim_is_symmetric_under_field_choice(seed):
    # the counting route is field-free; solver answers match across primes
    rng = random.Random(seed)
    p = grid(2, 2)
    spreads = enumerate_spreads(p, "connected_spreads")
    s = rng.choice(spreads)
    t = rng.choice(spreads)
    d = spread_hom_dim(s, t)
    for prime in (2, 3, 32003):
        f = PrimeField(prime)
        assert hom_dim(spread_module(s, f), spread_module(t, f)) == d
