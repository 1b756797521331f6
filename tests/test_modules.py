import collections
import itertools

import numpy as np
import pytest

from spreadhom import (
    CommutativityError,
    HookOrderError,
    Morphism,
    NotComparableError,
    PersistenceModule,
    PosetMismatchError,
    PrimeField,
    ShapeError,
    builtin_family,
    direct_sum,
    enumerate_spreads,
    hook_module,
    image_module,
    interval_module,
    morphism_from_vec,
    projective_module,
    simple_module,
    spread_from_antichains,
    spread_module,
    zero_module,
)
from spreadhom.field import hstack
from spreadhom.gallery import chain, funnel, generator_posets, grid
from spreadhom.poset import Poset, elements_of
from spreadhom.randmod import base_change, random_module

from helpers import (
    ORACLE_POSETS,
    closure_pairs,
    every_parent_failure,
    hom_morphisms,
    mask_to_set,
    module_route,
    summand_inclusions,
    zero_morphism,
)


def test_missing_maps_filled_with_zeros(field):
    p = chain(3)
    m = PersistenceModule(p, field, [1, 1, 0])
    assert m.map_along(0, 1).shape == (1, 1)
    assert m.map_along(0, 1).tolist() == [[0]]
    assert m.map_along(1, 2).shape == (0, 1)


def test_shape_validation(field):
    p = chain(2)
    with pytest.raises(ShapeError):
        PersistenceModule(p, field, [1, 1], {(0, 1): [[1, 2]]})  # wants 1x1
    with pytest.raises(ShapeError):
        PersistenceModule(p, field, [1])  # wrong dims length
    with pytest.raises(ShapeError):
        PersistenceModule(p, field, [1, -1])
    with pytest.raises(ShapeError):
        # (0, 1) is fine but (1, 0) is not a cover
        PersistenceModule(p, field, [1, 1], {(1, 0): [[1]]})


def test_a_matrix_with_no_rows_has_the_expected_columns(field):
    p = chain(2)
    m = PersistenceModule(p, field, [2, 0], {(0, 1): []})
    assert m == PersistenceModule(p, field, [2, 0]) and m.maps[(0, 1)].shape == (0, 2)
    assert Morphism(m, zero_module(p, field), [[], []]).is_zero()
    with pytest.raises(ShapeError):
        PersistenceModule(p, field, [2, 1], {(0, 1): []})
    with pytest.raises(ShapeError):  # an array keeps its own column count
        PersistenceModule(p, field, [2, 0], {(0, 1): np.zeros((0, 3), dtype=int)})


def test_non_integers_raise_type_error(field):
    # a float is refused, not truncated; numpy integers are integers
    p = chain(2)
    with pytest.raises(TypeError):
        PersistenceModule(p, PrimeField(7), [1.7, 1], {(0, 1): [[1]]})
    with pytest.raises(TypeError):
        PersistenceModule(p, PrimeField(7), [1, 1], {(0, 1): [[2.9]]})
    with pytest.raises(TypeError):
        field.arr([[0.5]])
    m = PersistenceModule(p, field, np.array([1, 1]), {(0, 1): np.array([[3]])})
    assert m.dims == (1, 1) and m.maps[(0, 1)].rows == [[3]]
    with pytest.raises(TypeError):
        Morphism(m, m, [[[1.0]], [[3]]])


def test_the_constructors_reduce_a_matrix_of_another_prime():
    six = PrimeField(7).arr([[6]])
    f5 = PrimeField(5)
    m = PersistenceModule(chain(2), f5, [1, 1], {(0, 1): six})
    assert m.maps[(0, 1)].rows == [[1]]
    assert Morphism(m, m, [six, six]).components == (f5.eye(1), f5.eye(1))


def test_commutativity_enforced(field):
    p = grid(2, 2)
    e = {lbl: p.element(lbl) for lbl in p.names}
    maps = {
        (e["00"], e["01"]): [[1]],
        (e["00"], e["10"]): [[1]],
        (e["01"], e["11"]): [[1]],
        (e["10"], e["11"]): [[2]],  # 1*1 != 2*1 around the square
    }
    with pytest.raises(CommutativityError):
        PersistenceModule(p, field, [1, 1, 1, 1], maps)
    maps[(e["10"], e["11"])] = [[1]]
    PersistenceModule(p, field, [1, 1, 1, 1], maps)  # now fine


CUBE = Poset(8, [(i, i | 1 << k) for i in range(8) for k in range(3) if not i >> k & 1],
             [format(i, "03b") for i in range(8)])
# the parents q, r of the top have two maximal common lower bounds
BOWTIE = Poset(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)], ["a", "b", "q", "r", "c"])


def _perturbed(m, rng):
    """m with one entry changed in one or two nonempty cover maps, not validated."""
    field = m.field
    maps = dict(m.maps)
    nonempty = [c for c in m.poset.covers if all(maps[c].shape)]
    for cover in rng.sample(nonempty, min(len(nonempty), rng.randint(1, 2))):
        rows = maps[cover].tolist()
        rows[0][0] = (rows[0][0] + 1) % field.p
        maps[cover] = field.arr(rows)
    return PersistenceModule._build(m.poset, field, m.dims, maps)


def _square_fails(m, a, c, r):
    """Some path a -> c through a parent other than r disagrees with the one through r."""
    p, f = m.poset, m.field
    through_r = f.matmul(m.maps[(r, c)], m.map_along(a, r))
    return any(f.matmul(m.maps[(q, c)], m.map_along(a, q)) != through_r
               for q in p.parents(c) if q != r and p.leq(a, q))


def _first_failing_square(m):
    """(a, c, r) of the full check, in its order.

    Joins c in topological order, then pairs of parents q < r of c, then the
    maximal common lower bounds a of q and r, least first; the square fails
    when the paths a -> q -> c and a -> r -> c disagree.  The order relation
    comes from the cover list, not from the poset's masks.
    """
    p, f = m.poset, m.field
    leq = closure_pairs(p.n, p.covers)
    for c in p.topo_order:
        for q, r in itertools.combinations(p.parents(c), 2):
            lower = [a for a in range(p.n) if (a, q) in leq and (a, r) in leq]
            for a in lower:
                if any(b != a and (a, b) in leq for b in lower):
                    continue
                if f.matmul(m.maps[(q, c)], m.map_along(a, q)) != f.matmul(m.maps[(r, c)], m.map_along(a, r)):
                    return a, c, r
    return None


@pytest.mark.parametrize("p", [grid(3, 3), grid(2, 4), CUBE, BOWTIE], ids=["grid3x3", "grid2x4", "cube", "bowtie"])
def test_validation_reports_the_first_failure_of_the_full_check(field, rng, p):
    for _ in range(20):
        m = _perturbed(random_module(p, field, rng), rng)
        want = _first_failing_square(m)
        assert (want is None) == (every_parent_failure(m) is None)
        if want is None:
            PersistenceModule(p, field, m.dims, m.maps)
            continue
        assert _square_fails(m, *want)
        a, c, r = (p.label(x) for x in want)
        with pytest.raises(CommutativityError, match=f"^paths {a} -> {c} disagree \\(one through {r}\\)$"):
            PersistenceModule(p, field, m.dims, m.maps)


VALIDATION_POSETS = dict(generator_posets(5)) | ORACLE_POSETS | {"cube": CUBE, "grid2x4": grid(2, 4), "bowtie": BOWTIE}


def test_validation_refuses_exactly_what_every_parent_check_refuses(field, rng):
    refused = total = 0
    for name, p in sorted(VALIDATION_POSETS.items()):
        spreads = enumerate_spreads(p, "connected_spreads")
        for _ in range(30):
            m = _perturbed(random_module(p, field, rng, spreads), rng)
            try:
                PersistenceModule(p, field, m.dims, m.maps)
            except CommutativityError:
                accepted = False
            else:
                accepted = True
            assert accepted == (every_parent_failure(m) is None), name
            refused += not accepted
            total += 1
    assert 0 < refused < total


@pytest.fixture
def map_along_calls(monkeypatch):
    """The (a, b) of every `map_along` call while the test runs."""
    calls = []
    along = PersistenceModule.map_along
    monkeypatch.setattr(PersistenceModule, "map_along",
                        lambda self, a, b: calls.append((a, b)) or along(self, a, b))
    return calls


def test_validating_a_chain_composes_nothing(field, map_along_calls):
    # every element of a chain has one parent, so no two paths can disagree
    p = chain(2000)
    PersistenceModule(p, field, [1] * p.n, {c: [[2]] for c in p.covers})
    assert map_along_calls == []


def test_validating_a_chain_topped_by_a_diamond_composes_only_at_the_diamond(field, map_along_calls):
    # the join's two parents have one maximal common lower bound: the top of the chain
    counts = []
    for n in (1000, 3000):
        map_along_calls.clear()
        covers = [(i, i + 1) for i in range(n - 1)] + [(n - 1, n), (n - 1, n + 1), (n, n + 2), (n + 1, n + 2)]
        p = Poset(n + 3, covers)
        PersistenceModule(p, field, [1] * p.n, {c: [[2]] for c in p.covers})
        counts.append(len(map_along_calls))
    assert counts[0] == counts[1] > 0


def test_map_along_a_long_chain(field):
    # far past the interpreter's recursion limit
    p = chain(3000)
    m = PersistenceModule(p, field, [1] * p.n, {c: [[2]] for c in p.covers})  # a chain validates without composing
    assert m.map_along(0, p.n - 1).tolist() == [[pow(2, p.n - 1, field.p)]]
    assert m.map_along(1, p.n - 1).tolist() == [[pow(2, p.n - 2, field.p)]]


def test_map_along_one_cover_is_the_cover_map(field, monkeypatch):
    # no product with the identity: the map along one cover is the cover map
    # itself, and a chain of two covers takes one product
    p = chain(3)
    m = PersistenceModule(p, field, [2, 3, 1], {(0, 1): [[1, 2], [3, 4], [5, 6]], (1, 2): [[1, 1, 1]]})
    short = PersistenceModule(chain(2), field, [2, 3], {(0, 1): [[1, 2], [3, 4], [5, 6]]})
    calls = collections.Counter()
    for name in ("matmul", "eye"):
        def counted(self, *args, _name=name, _orig=getattr(PrimeField, name)):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(PrimeField, name, counted)
    assert m.map_along(0, 2).tolist() == [[9, 12]]
    assert calls == {"matmul": 1}
    assert m.map_along(0, 1) is m.maps[(0, 1)] and m.map_along(1, 2) is m.maps[(1, 2)]
    assert calls == {"matmul": 1}
    # M(a -> a) read first, and cached: the cover above a is still shared, not multiplied
    calls.clear()
    assert short.map_along(0, 0).tolist() == [[1, 0], [0, 1]]
    assert short.map_along(0, 1) is short.maps[(0, 1)]
    assert calls == {"eye": 1}


def test_map_along_is_path_product(field, rng):
    p = funnel()
    for _ in range(10):
        m = random_module(p, field, rng)
        for a in range(p.n):
            for b in range(p.n):
                if not p.leq(a, b):
                    continue
                got = m.map_along(a, b)
                # multiply along one explicit greedy cover path
                path = [a]
                while path[-1] != b:
                    nxt = next(c for c in p.children(path[-1]) if p.leq(c, b))
                    path.append(nxt)
                acc = field.eye(m.dims[a])
                for x, y in zip(path, path[1:]):
                    acc = field.matmul(m.map_along(x, y), acc)
                assert got == acc


def test_map_along_incomparable_raises(field):
    p = grid(2, 2)
    m = zero_module(p, field)
    with pytest.raises(NotComparableError):
        m.map_along(p.element("01"), p.element("10"))


def test_spread_module_shape(field):
    p = grid(2, 2)
    s = spread_from_antichains(p, ["00"], ["01", "10"])
    m = spread_module(s, field)
    assert m.dims == (1, 1, 1, 0)
    assert m.map_along(p.element("00"), p.element("01")).tolist() == [[1]]
    assert mask_to_set(m.support_mask()) == set(elements_of(s.support))


def test_named_module_builders(field):
    p = funnel()
    proj = projective_module(p, field, 0)
    assert proj.dims == (1, 1, 0, 1, 1)
    simp = simple_module(p, field, 3)
    assert simp.dims == (0, 0, 0, 1, 0)
    ivl = interval_module(p, field, 0, 3)
    assert ivl.dims == (1, 1, 0, 1, 0)
    hook = hook_module(p, field, 0, 3)
    assert hook.dims == (1, 1, 0, 0, 0)
    full_hook = hook_module(p, field, 0)
    assert full_hook.dims == proj.dims
    with pytest.raises(HookOrderError):
        hook_module(p, field, 0, 2)  # 2 is not above 0


def test_direct_sum_and_inclusions(field, rng):
    p = grid(2, 2)
    parts = [random_module(p, field, rng) for _ in range(3)]
    total = direct_sum(parts)
    assert total.dims == tuple(
        sum(q.dims[a] for q in parts) for a in range(p.n)
    )
    incs = summand_inclusions(total, parts)
    for inc in incs:
        inc2 = Morphism(inc.source, inc.target, inc.components)  # re-validate
        assert inc2.target is total
    # inclusions have pairwise orthogonal, jointly full column spans
    for a in range(p.n):
        stacked = hstack([inc.components[a] for inc in incs])
        assert stacked.shape == (total.dims[a], total.dims[a])
        assert field.rank(stacked) == total.dims[a]
    with pytest.raises(ValueError, match="use zero_module"):
        direct_sum([])
    with pytest.raises(PosetMismatchError, match="must share poset and prime"):
        direct_sum([parts[0], random_module(chain(4), field, rng)])


def test_zero_and_total_dim(field):
    p = chain(3)
    z = zero_module(p, field)
    assert z.is_zero()
    m = interval_module(p, field, 0, 2)
    assert not m.is_zero()


def test_restrict_commutes(field, rng):
    p = grid(2, 2)
    for _ in range(5):
        m = random_module(p, field, rng)
        mask = p.interval_mask(p.element("00"), p.element("11")) & ~(1 << p.element("10"))
        sub_m, sub = m.restrict(mask)
        assert sub_m.poset is sub.poset
        # re-validate the restricted maps from scratch
        PersistenceModule(
            sub.poset,
            field,
            [sub_m.dims[i] for i in range(sub.poset.n)],
            {(i, j): sub_m.map_along(i, j) for i, j in sub.poset.covers},
        )
        for i in range(sub.poset.n):
            assert sub_m.dims[i] == m.dims[sub.to_parent(i)]


def test_morphism_validation(field):
    p = chain(2)
    m = interval_module(p, field, 0, 1)
    top = simple_module(p, field, 1)
    bottom = simple_module(p, field, 0)
    # the top simple includes, the interval projects onto the bottom simple
    Morphism(top, m, [field.zeros(1, 0), field.arr([[1]])])
    Morphism(m, bottom, [field.arr([[1]]), field.zeros(0, 1)])
    # the reverse directions break naturality along the cover
    with pytest.raises(CommutativityError):
        Morphism(m, top, [field.zeros(0, 1), field.arr([[1]])])
    with pytest.raises(CommutativityError):
        Morphism(bottom, m, [field.arr([[1]]), field.zeros(1, 0)])
    with pytest.raises(ShapeError):
        Morphism(m, top, [field.zeros(1, 1), field.arr([[1]])])
    with pytest.raises(PosetMismatchError):
        Morphism(m, interval_module(chain(3), field, 0, 0), [field.arr([[1]]), field.zeros(0, 1)])
    with pytest.raises(PosetMismatchError, match="different primes"):
        Morphism(m, interval_module(p, PrimeField(7), 0, 1), [[[1]], [[1]]])
    inc = Morphism(top, m, [field.zeros(1, 0), field.arr([[1]])])
    with pytest.raises(PosetMismatchError, match="composition endpoints do not match"):
        inc @ Morphism(m, bottom, [field.arr([[1]]), field.zeros(0, 1)])
    with pytest.raises(ShapeError, match="vector of length 2, expected 1"):
        morphism_from_vec(m, bottom, [1, 0])


def test_morphism_composition(field):
    p = chain(3)
    top = simple_module(p, field, 2)
    mid = interval_module(p, field, 1, 2)
    full = interval_module(p, field, 0, 2)
    inc = Morphism(top, mid, [field.zeros(0, 0), field.zeros(1, 0), field.arr([[1]])])
    ext = Morphism(mid, full, [field.zeros(1, 0), field.arr([[1]]), field.arr([[1]])])
    composite = ext @ inc
    assert composite.source is top and composite.target is full
    assert composite.components[2].tolist() == [[1]]
    assert composite.components[1].shape == (1, 0)
    z = zero_morphism(full, top)
    assert z.is_zero()
    assert (z @ ext).is_zero()


def test_vec_round_trip(field, rng):
    p = grid(2, 2)
    m = random_module(p, field, rng)
    n = random_module(p, field, rng)
    f = zero_morphism(m, n)
    v = f.vec()
    assert morphism_from_vec(m, n, v) == f
    # a nonzero natural map: scalar multiple of identity on m
    g = Morphism(m, m, [field.arr(2 * np.eye(m.dims[a], dtype=np.int64)) for a in range(p.n)])
    assert morphism_from_vec(m, m, g.vec()) == g


def test_identity_is_neutral(field, rng):
    p = funnel()
    m = random_module(p, field, rng)
    i = Morphism(m, m, [field.eye(d) for d in m.dims])
    assert i @ i == i


def _checked(x):
    """A module or morphism rebuilt through the public constructor, which checks everything."""
    if isinstance(x, Morphism):
        return Morphism(_checked(x.source), _checked(x.target), x.components)
    return PersistenceModule(x.poset, x.field, x.dims, x.maps)


def test_what_the_library_builds_unchecked_passes_the_public_checks(field, rng):
    built = collections.defaultdict(list)
    for _, p in generator_posets(5):
        spreads = enumerate_spreads(p, "connected_spreads")
        x = builtin_family(p, "connected_spreads")
        for _ in range(4):
            m, n = random_module(p, field, rng, spreads), random_module(p, field, rng, spreads)
            s, t = (spread_module(rng.choice(spreads), field) for _ in range(2))
            _, steps = module_route(x, m, 3)
            built["modules"] += [m, n, s, t, direct_sum([m, n, s]), base_change(m, rng),
                                 m.restrict(rng.randrange(1, 1 << p.n))[0], *[step.kernel for step in steps]]
            built["resolution maps"] += [f for step in steps for f in (step.approximation, step.inclusion)]
            # Hom bases spread -> spread, spread -> module and module -> module
            into_m, m_to_n = hom_morphisms(s, m), hom_morphisms(m, n)
            built["hom bases"] += [*hom_morphisms(s, t), *into_m, *m_to_n]
            built["composites"] += [g @ f for f in into_m for g in m_to_n]
            built["image inclusions"] += [image_module(g)[1] for g in m_to_n]
    assert min(map(len, built.values())) > 20, {k: len(v) for k, v in built.items()}
    for y in itertools.chain(*built.values()):
        assert _checked(y) == y
