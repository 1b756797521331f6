import ast
import itertools
import json
import random
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadhom import (
    DuplicateSpreadError,
    Family,
    GrothClass,
    HomMatrixSingularError,
    MissingProjectivesError,
    NotConnectedError,
    NotTypeAError,
    PersistenceModule,
    Poset,
    PosetMismatchError,
    PrimeField,
    ResolutionTruncatedError,
    Spread,
    UnknownInvariantError,
    barcode,
    builtin_family,
    check_family,
    class_via_hom_matrix,
    class_via_resolution,
    compare,
    containment_poset,
    dim_hom_vector,
    direct_sum,
    enumerate_spreads,
    generalized_rank,
    generalized_rank_vector,
    hom_basis,
    hom_dim,
    interval_module,
    invariant_key,
    kernel_module,
    minimal_approximation,
    morphism_from_vec,
    rank_invariant,
    rank_via_hooks,
    resolve,
    signed_diagram,
    simple_module,
    spread_from_antichains,
    spread_from_convex,
    spread_module,
    x_dimension,
    zero_module,
)
from spreadhom import approx, cli, files, invariants
from spreadhom.approx import BUILTIN_FAMILIES
from spreadhom.gallery import (
    atilde5,
    atilde5_family,
    chain,
    crown,
    fan,
    funnel,
    generator_posets,
    grid23_diagram_modules,
    grid,
    path_poset,
    equal_rank_pair,
)
from spreadhom.field import Matrix
from spreadhom.hom import agreement_system
from spreadhom.invariants import COMPARE_KINDS
from spreadhom.poset import elements_of, mask_of
from spreadhom.randmod import base_change, random_module, random_spread_sum

from helpers import (
    ORACLE_POSETS,
    ORACLE_SPREADS,
    back_substitute,
    branching_vertex,
    principal_upsets_totally_ordered,
    rank_blind_pair,
    unreduced_limit_colimit,
)

DATA = Path(__file__).resolve().parent.parent / "data"


# -- dim-hom vectors ----------------------------------------------------------


def test_dim_hom_vector_zero_module(field):
    x = builtin_family(grid(2, 2), "single_source")
    assert dim_hom_vector(x, zero_module(grid(2, 2), field)) == (0,) * len(x)


def test_dim_hom_vector_upset_entries_are_fiber_dims(field, rng):
    p = grid(2, 2)
    x = builtin_family(p, "connected_upsets")
    for _ in range(5):
        m = random_module(p, field, rng)
        v = dim_hom_vector(x, m)
        for s, d in zip(x.members, v):
            mins = elements_of(p.minimal_elements(s.support))
            if len(mins) == 1 and s.support == p.up_mask(mins[0]):
                assert d == m.dims[mins[0]]


DIMHOM_FAMILIES = {
    (name, fam): builtin_family(p, fam)
    for name, p in generator_posets(max_n=5)
    for fam in ("connected_spreads", "single_source")
}


@given(st.sampled_from(sorted(DIMHOM_FAMILIES)), st.sampled_from(["random", "spread", "zero"]),
       st.integers(0, 10_000))
def test_dim_hom_vector_matches_hom_dim_over_member_modules(key, target, seed):
    # the Yoneda widths against the naturality solver on each built member module
    field = PrimeField()
    rng = random.Random(seed)
    x = DIMHOM_FAMILIES[key]
    if target == "random":
        m = random_module(x.poset, field, rng)
    elif target == "spread":
        m = spread_module(rng.choice(DIMHOM_FAMILIES[key[0], "connected_spreads"].members), field)
    else:
        m = zero_module(x.poset, field)
    assert dim_hom_vector(x, m) == tuple(hom_dim(r, m) for r in x.member_modules(field))


# -- Grothendieck classes -------------------------------------------------------


def test_class_of_member_is_unit(field):
    x = builtin_family(grid(2, 2), "single_source")
    for i, s in enumerate(x.members):
        m = spread_module(s, field)
        for cls in (class_via_hom_matrix(x, m), class_via_resolution(x, m)):
            want = [0] * len(x)
            want[i] = 1
            assert cls.coeffs == tuple(want)


def test_class_routes_agree_on_random_modules(field, rng):
    for p in (grid(2, 2), grid(2, 3)):
        for fam in ("single_source", "hooks"):
            x = builtin_family(p, fam)
            for _ in range(6):
                m = random_module(p, field, rng)
                a = class_via_hom_matrix(x, m)
                b = class_via_resolution(x, m)
                assert a.coeffs == b.coeffs, (fam, m.dims)


def test_class_additive_under_direct_sum(field, rng):
    p = grid(2, 2)
    x = builtin_family(p, "single_source")
    for _ in range(5):
        m = random_module(p, field, rng)
        n = random_module(p, field, rng)
        cm = class_via_hom_matrix(x, m)
        cn = class_via_hom_matrix(x, n)
        cs = class_via_hom_matrix(x, direct_sum([m, n]))
        assert cs.coeffs == (cm + cn).coeffs


def test_class_render(field):
    p = grid(2, 2)
    x = builtin_family(p, "single_source")
    m = direct_sum([
        spread_module(x.members[0], field),
        spread_module(x.members[0], field),
    ])
    cls = class_via_hom_matrix(x, m)
    assert f"2*[{x.labels()[0][1:-1]}]" in cls.render() or "2*" in cls.render()
    z = GrothClass(x.members, (0,) * len(x))
    assert z.render() == "0"
    assert z.nonzero() == {}


def test_groth_class_is_its_spreads_and_coefficients():
    p = grid(2, 2)
    x, y = builtin_family(p, "intervals"), builtin_family(p, "intervals")
    assert x is not y
    ones = (1,) * len(x)
    # two separately built families of one poset give equal classes, which add
    assert GrothClass(x.members, ones) == GrothClass(y.members, ones)
    assert GrothClass(x.members, ones) + GrothClass(y.members, ones) == GrothClass(x.members, (2,) * len(x))
    # the same coefficients over other spreads make another class
    assert GrothClass(x.members[:2], (1, 2)) != GrothClass(x.members[1:3], (1, 2))
    assert GrothClass(x.members[:2], (1, 2)) != GrothClass(x.members[1::-1], (1, 2))
    with pytest.raises(ValueError):
        GrothClass(x.members, ones[1:])
    with pytest.raises(ValueError):
        GrothClass(x.members[:2], (1, 2)) + GrothClass(x.members[1:3], (1, 2))
    # another operand is not a class: == is False and + raises TypeError, both through NotImplemented
    assert (GrothClass(x.members, ones) == 1) is False
    with pytest.raises(TypeError):
        GrothClass(x.members, ones) + 1


# every public route where a module meets a family
FAMILY_ROUTES = {
    "minimal_approximation": minimal_approximation,
    "resolve": resolve,
    "resolve_zero": lambda x, m: resolve(x, zero_module(m.poset, m.field)),
    "x_dimension": x_dimension,
    "dim_hom_vector": dim_hom_vector,
    "class_via_hom_matrix": class_via_hom_matrix,
    "class_via_resolution": class_via_resolution,
    "compare_class": lambda x, m: compare("class", m, m, family=x),
    "compare_dimhom": lambda x, m: compare("dimhom", m, m, family=x),
}


@pytest.mark.parametrize("route", sorted(FAMILY_ROUTES))
def test_a_family_over_another_poset_is_refused(field, route):
    # the members' bitmasks would otherwise be read against the module's elements
    x = builtin_family(grid(2, 2), "intervals")
    m = random_module(chain(4), field, random.Random(0))
    with pytest.raises(PosetMismatchError):
        FAMILY_ROUTES[route](x, m)


def test_class_via_hom_matrix_raises_on_cycle(field):
    p, x = atilde5_family()
    m = spread_module(spread_from_antichains(p, ["1"], ["6"]), field)
    with pytest.raises(HomMatrixSingularError):
        class_via_hom_matrix(x, m)
    with pytest.raises(ResolutionTruncatedError) as exc:
        class_via_resolution(x, m, max_depth=6)
    assert len(exc.value.terms) == 6


# Over the cyclic atilde5 family, H c = b (H_ij = dim Hom(R_i, R_j), b_i =
# dim Hom(R_i, M)) has an integral solution for these two modules, yet their
# resolutions are periodic, so neither has a class.  A route that took an
# exactly checking integral solution for the class would print one where the
# truncated resolution refuses (exit 2 in the CLI).  Drawn by `random_module`
# over the connected spreads with random.Random(1), draws 6 and 63.
PERIODIC_WITH_INTEGRAL_SOLUTION = {
    "draw6": ((1, 1, 2, 1, 2, 0),
              {"1->4": [[27496]], "2->4": [[12890]], "2->5": [[0], [0]],
               "3->5": [[30210, 3708], [4075, 25253]]},
              (0, 0, 0, 0, 0, -1, 0, 1, 1)),
    "draw63": ((1, 2, 2, 2, 1, 1),
               {"1->4": [[2743], [12791]], "1->6": [[24120]], "2->4": [[4095, 25721], [12313, 16529]],
                "2->5": [[0, 0]], "3->5": [[3220, 29459]], "3->6": [[6964, 25124]]},
               (0, 0, 1, 0, -1, -1, 1, 1, 0)),
}


@pytest.mark.parametrize("name", sorted(PERIODIC_WITH_INTEGRAL_SOLUTION))
def test_an_integral_hom_matrix_solution_is_not_a_class(field, name):
    dims, maps, solution = PERIODIC_WITH_INTEGRAL_SOLUTION[name]
    p, x = atilde5_family()
    m = PersistenceModule(p, field, dims, {tuple(map(p.element, k.split("->"))): v for k, v in maps.items()})
    h = np.zeros((len(x), len(x)), dtype=np.int64)
    for i, row in enumerate(x.hom_rows()):
        for j, comps in row.items():
            h[i, j] = len(comps)
    # H is invertible over Q, so the solution is the rational one, and it is integral
    assert np.linalg.matrix_rank(h) == len(x) == 9
    assert (h @ np.array(solution) == np.array(dim_hom_vector(x, m))).all()
    res = resolve(x, m, max_depth=40)
    assert (res.status, res.depth, res.periodicity) == ("truncated", 40, (1, 4))
    with pytest.raises(ResolutionTruncatedError):
        invariant_key("class", m, family=x)


def test_both_class_routes_need_the_principal_up_sets(field):
    # without them an integer solution of H c = dimhom is no class, and the
    # resolution is refused anyway; the zero module is refused alike
    for name, p in generator_posets(max_n=6):
        for kind in BUILTIN_FAMILIES:
            x = builtin_family(p, kind)
            for m in (zero_module(p, field), simple_module(p, field, p.n - 1)):
                for route in ("hom_matrix", "resolution"):
                    try:
                        if route == "hom_matrix":
                            class_via_hom_matrix(x, m)
                        else:
                            class_via_resolution(x, m, max_depth=2)
                        missing = False
                    except MissingProjectivesError:
                        missing = True
                    except (HomMatrixSingularError, ResolutionTruncatedError):
                        missing = False
                    assert missing == bool(x.missing_projectives()), (name, kind, route, m.dims)


# every builtin family that covers, on the small posets and grid(3, 3), with
# whether it holds every hook as a member
COVERING_FAMILIES = [
    (p, x, {s.support for s in enumerate_spreads(p, "hooks")} <= {s.support for s in x.members})
    for p in [p for _, p in generator_posets(max_n=5)] + [grid(3, 3)]
    for x in [builtin_family(p, kind) for kind in BUILTIN_FAMILIES]
    if not x.missing_projectives()
]


@settings(max_examples=8)
@given(st.integers(0, 10_000))
def test_a_class_recovers_dims_and_ranks_linearly(seed):
    # the class c of M satisfies dim Hom(R, M) = Σ_j c_j dim Hom(R, R_j) for
    # every member R; dim M_a is dim Hom(P_a, M) and rank M(a -> b) is
    # dim Hom(P_a, M) - dim Hom(hook(a, b), M), so both are linear in c when
    # the principal up-sets, and then the hooks, are members
    field = PrimeField()
    rng = random.Random(seed)
    checked = 0
    for p, x, holds_hooks in COVERING_FAMILIES:
        m = random_module(p, field, rng)
        try:
            c = invariant_key("class", m, family=x).coeffs
        except ResolutionTruncatedError:  # no class to read
            continue
        members = [spread_module(s, field) for s in x.members]
        assert m.dims == tuple(sum(cj * r.dims[a] for cj, r in zip(c, members)) for a in range(p.n))
        if holds_hooks:
            ranks = [rank_invariant(r) for r in members]
            assert rank_invariant(m) == {
                ab: sum(cj * rank[ab] for cj, rank in zip(c, ranks)) for ab in ranks[0]
            }
        checked += 1
    assert checked >= len(COVERING_FAMILIES) - 1


def _relabel(p, perm):
    """p with element a renumbered perm[a]; labels travel with their elements."""
    names = [None] * p.n
    for a, b in enumerate(perm):
        names[b] = p.label(a)
    return Poset(p.n, [(perm[a], perm[b]) for a, b in p.covers], names)


def _moved_spread(s, q, perm):
    return spread_from_antichains(q, mask_of(perm[a] for a in elements_of(s.sources)),
                                  mask_of(perm[a] for a in elements_of(s.targets)))


def _moved_module(m, q, perm):
    dims = [0] * q.n
    for a, d in enumerate(m.dims):
        dims[perm[a]] = d
    return PersistenceModule(q, m.field, dims, {(perm[a], perm[b]): f for (a, b), f in m.maps.items()})


def _label_values(x, m, depth):
    """Resolution terms, status and periodicity, the class and the signed diagram
    over the members, each spread read as its sets of source and target labels."""
    p = x.poset

    def by_label(spreads, coeffs):
        return {(frozenset(p.label_set(s.sources)), frozenset(p.label_set(s.targets))): c
                for s, c in zip(spreads, coeffs) if c}

    res = resolve(x, m, depth)
    try:
        c = invariant_key("class", m, family=x, max_depth=depth)
        cls = by_label(c.spreads, c.coeffs)
    except ResolutionTruncatedError:
        cls = None
    diagram = signed_diagram(m, x)
    return ([by_label(x.members, t) for t in res.terms], res.status, res.periodicity, cls,
            by_label(diagram.spreads, diagram.coeffs))


# every covering builtin family on the small posets and on grid(3, 3), funnel(),
# crown(3) and atilde5(), and the cyclic atilde5 family
RELABEL_FAMILIES = [
    x for p in [p for _, p in generator_posets(max_n=5)] + [grid(3, 3), funnel(), crown(3), atilde5()]
    for kind in BUILTIN_FAMILIES if not (x := builtin_family(p, kind)).missing_projectives()
] + [atilde5_family()[1]]


@settings(max_examples=200)
@given(st.sampled_from(range(len(RELABEL_FAMILIES))), st.integers(0, 10_000))
def test_relabelling_and_base_change_change_no_invariant(k, seed):
    # the invariants are read off bases that hang on element ids (the least
    # source an indicator is anchored at, the order of the radical generators
    # and of the Span picks), and member order; none of them may show
    x = RELABEL_FAMILIES[k]
    rng = random.Random(seed)
    m = random_module(x.poset, PrimeField(), rng)
    perm = list(range(x.poset.n))
    rng.shuffle(perm)
    order = list(range(len(x)))
    rng.shuffle(order)
    q = _relabel(x.poset, perm)
    y = Family(q, [_moved_spread(x.members[i], q, perm) for i in order])
    want = _label_values(x, m, 8)
    assert _label_values(y, _moved_module(m, q, perm), 8) == want
    assert _label_values(x, base_change(m, rng), 8) == want


def _spread_labels(render):
    """"[{13,41},43]" as its sets of source and target labels; `Spread.render` lists them in id order."""
    sources, targets = re.fullmatch(r"\[(\{[^}]*\}|[^,]*),(\{[^}]*\}|[^,]*)\]", render).groups()
    return frozenset(sources.strip("{}").split(",")), frozenset(targets.strip("{}").split(","))


def _label_record(line):
    """A --jsonl record with its spreads read as label sets, its rank entries as a set and no file path."""
    record = json.loads(line)
    record.pop("module", None)
    for key in ("values", "coeffs"):
        if key in record:
            record[key] = {_spread_labels(k): v for k, v in record[key].items()}
    if "terms" in record:
        record["terms"] = [{_spread_labels(k): v for k, v in term.items()} for term in record["terms"]]
    if "entries" in record:
        record["entries"] = sorted(record["entries"])
    return record


def _label_refusal(err):
    """The stderr of a run: a truncated class's `undecided:` line with its dims and its partial terms read
    by label, spreads as label sets, else only the kind of refusal."""
    found = re.fullmatch(r"undecided: resolution of the module with dims (\{.*?\}) did not terminate "
                         r"within depth (\d+); partial terms: (\[.*\])\n", err)
    if found is None:
        return err.split(":")[0]
    dims, depth, terms = found.groups()
    return (ast.literal_eval(dims), int(depth),
            [{_spread_labels(k): v for k, v in term.items()} for term in ast.literal_eval(terms)])


@pytest.mark.parametrize("poset_file, module_file, family", [
    ("grid2x3.yaml", "diagram_m.yaml", "hooks"),
    ("zigzag_w.yaml", "zigzag_module.yaml", "single_source"),
    ("atilde5.yaml", "m16.yaml", "atilde5_family.yaml"),  # cyclic: class and resolve truncate
])
def test_permuting_the_elements_of_a_poset_file_changes_no_cli_value(tmp_path, capsys, poset_file, module_file,
                                                                     family):
    p = files.load_poset(str(DATA / poset_file))
    (tmp_path / poset_file).write_text(files.dump_poset(_relabel(p, list(reversed(range(p.n))))))
    for name in (module_file, family):
        if name.endswith(".yaml"):
            shutil.copy(DATA / name, tmp_path / name)
    truncated = []
    for kind in cli.INVARIANT_KINDS:
        option = cli.FAMILY_OPTION.get(kind)
        chosen = family if option == "family" else "connected_spreads"
        outputs = []
        for home in (DATA, tmp_path):
            extra = [f"--{option}", str(home / chosen) if chosen.endswith(".yaml") else chosen] if option else []
            code = cli.main(["invariant", kind, str(home / module_file), *extra, "--max-depth", "6", "--jsonl"])
            out, err = capsys.readouterr()
            outputs.append((code, [_label_record(line) for line in out.splitlines()], _label_refusal(err)))
        assert outputs[0] == outputs[1], kind
        assert outputs[0][0] in (0, 2, 3)
        if isinstance(outputs[0][2], tuple):
            truncated.append(kind)
    # over the cyclic atilde5 family the class is read off a resolution that does not terminate
    assert truncated == (["class"] if family == "atilde5_family.yaml" else [])


# -- rank invariants -------------------------------------------------------


def test_rank_of_spread_module_is_indicator(field):
    p = grid(2, 3, base=1)
    s = spread_from_antichains(p, ["11"], ["13", "21"])
    m = spread_module(s, field)
    ri = rank_invariant(m)
    supp = set(elements_of(s.support))
    for (a, b), r in ri.items():
        want = 1 if (a in supp and b in supp) else 0
        assert r == want


def test_rank_via_hooks_matches_linear_algebra(field, rng):
    for p in (grid(2, 2), grid(2, 3), grid(3, 3)):
        for _ in range(8):
            m = random_module(p, field, rng)
            assert rank_via_hooks(m) == rank_invariant(m)


def test_rank_invariant_eliminates_no_identity(field, monkeypatch):
    # rank m(a -> a) is dim m_a: on chain(2) only the cover map is eliminated
    m = PersistenceModule(chain(2), field, [2, 3], {(0, 1): [[1, 2], [3, 4], [5, 6]]})
    shapes = []
    rref = PrimeField.rref
    monkeypatch.setattr(PrimeField, "rref", lambda self, a: shapes.append(a.shape) or rref(self, a))
    assert rank_invariant(m) == {(0, 0): 2, (0, 1): 2, (1, 1): 3}
    assert shapes == [(3, 2)]


def test_rank_monotone_and_submultiplicative(field, rng):
    p = grid(3, 3)
    for _ in range(5):
        m = random_module(p, field, rng)
        ri = rank_invariant(m)
        for (a, b), r in ri.items():
            assert 0 <= r <= min(m.dims[a], m.dims[b])
            for c in range(p.n):
                if p.leq(b, c):
                    assert ri[(a, c)] <= min(r, ri[(b, c)])


def test_rank_table_renders(field, tmp_path, capsys):
    # the table is rendered by the CLI, one `a <= b: r` line per entry, sorted by ids
    p = chain(3)
    m = interval_module(p, field, 0, 1)
    (tmp_path / "chain.yaml").write_text(files.dump_poset(p))
    (tmp_path / "m.yaml").write_text(files.dump_module(m, "chain.yaml"))
    assert cli.main(["invariant", "rank", str(tmp_path / "m.yaml")]) == 0
    want = "".join(
        f"{p.label(a)} <= {p.label(b)}: {r}\n" for (a, b), r in sorted(rank_invariant(m).items())
    )
    assert capsys.readouterr() == (want, "")
    assert set(rank_invariant(m).values()) == {0, 1}


# -- generalized rank ---------------------------------------------------------


def test_generalized_rank_on_intervals_is_classical(field, rng):
    p = grid(2, 3)
    for _ in range(5):
        m = random_module(p, field, rng)
        ri = rank_invariant(m)
        for a in range(p.n):
            for b in range(p.n):
                if p.leq(a, b):
                    s = spread_from_antichains(p, [a], [b])
                    assert generalized_rank(m, s) == ri[(a, b)]


def test_generalized_rank_of_spread_over_itself(field):
    p = grid(2, 3, base=1)
    for s in enumerate_spreads(p, "connected_spreads")[:12]:
        assert generalized_rank(spread_module(s, field), s) == 1


def test_generalized_rank_needs_connected(field):
    p = fan(2)
    tops = mask_of([1, 2])
    disconnected = Spread(p, tops, tops, tops)
    m = zero_module(p, field)
    with pytest.raises(NotConnectedError):
        generalized_rank(m, disconnected)


def test_generalized_rank_rejects_another_poset(field):
    m = spread_module(spread_from_antichains(grid(2, 2), ["00"], ["11"]), field)
    s = spread_from_antichains(chain(4), ["1"], ["4"])
    with pytest.raises(PosetMismatchError):
        generalized_rank(m, s)


GENRANK_POSETS = {"grid2x2": grid(2, 2), "grid3x3": grid(3, 3), "funnel": funnel()}
GENRANK_SPREADS = {k: enumerate_spreads(p, "connected_spreads") for k, p in GENRANK_POSETS.items()}


@given(st.sampled_from(sorted(GENRANK_POSETS)), st.sampled_from([32003, 2]), st.integers(0, 10_000))
def test_generalized_rank_counts_summands_containing_the_spread(name, prime, seed):
    # rk(M_T, S) is 1 when S ⊆ T and 0 otherwise, for connected spreads S and
    # T; rank is additive and blind to base change
    field = PrimeField(prime)
    rng = random.Random(seed)
    spreads = GENRANK_SPREADS[name]
    picks = [rng.choice(spreads) for _ in range(rng.randint(1, 3))]
    m = base_change(direct_sum([spread_module(t, field) for t in picks]), rng)
    for s in spreads:
        want = sum(s.support & ~t.support == 0 for t in picks)
        assert generalized_rank(m, s) == want, (s.render(), [t.render() for t in picks])


@given(st.sampled_from(sorted(ORACLE_POSETS)), st.integers(0, 10_000))
def test_generalized_rank_matches_the_unreduced_oracle(name, seed):
    # every limit equation and colimit relation written at every element of
    # the spread: the same limit basis and the same rank, on a random module
    # and on the kernel of a random morphism out of it
    field = PrimeField()
    rng = random.Random(seed)
    p = ORACLE_POSETS[name]
    m, n = random_module(p, field, rng), random_module(p, field, rng)
    basis = hom_basis(m, n)
    coeffs = Matrix([[rng.randrange(field.p)] for _ in range(basis.shape[1])], 1)
    kernel, _ = kernel_module(morphism_from_vec(m, n, [row[0] for row in field.matmul(basis, coeffs).rows]))
    for mod in (m, kernel):
        for s in ORACLE_SPREADS[name]:
            limit, want = unreduced_limit_colimit(mod, s)
            assert field.kernel_basis(agreement_system(s, mod)) == limit, s.render()
            assert generalized_rank(mod, s) == want, s.render()


def test_generalized_rank_relations_start_at_the_largest_common_lower_bound(field):
    # x0 < x1 < b, c: the relation at x1 kills the image of the limit, while
    # its pullback to x0 alone would leave rank 1
    p = Poset(4, [(0, 1), (1, 2), (1, 3)], ["x0", "x1", "b", "c"])
    m = PersistenceModule(p, field, (1, 2, 1, 1), {
        (0, 1): field.arr([[1], [0]]),
        (1, 2): field.arr([[1, 1]]),
        (1, 3): field.arr([[1, 0]]),
    })
    s = spread_from_convex(p, ["x0", "x1", "b", "c"])
    assert generalized_rank(m, s) == unreduced_limit_colimit(m, s)[1] == 0


def test_generalized_rank_additive(field, rng):
    p = grid(2, 2)
    s = spread_from_antichains(p, ["00"], ["01", "10"])
    for _ in range(4):
        m = random_spread_sum(p, field, rng)
        n = random_spread_sum(p, field, rng)
        assert generalized_rank(direct_sum([m, n]), s) == generalized_rank(
            m, s
        ) + generalized_rank(n, s)


@given(st.sampled_from(sorted(GENRANK_POSETS)), st.sampled_from(["zero", "spreads", "random"]), st.integers(0, 10_000))
def test_generalized_rank_vector_is_the_rank_of_each_member(name, shape, seed):
    # the vector reads a member outside supp m as 0 and solves the rest
    # unchecked; each entry is the checked rank of that one spread
    field = PrimeField()
    rng = random.Random(seed)
    p, spreads = GENRANK_POSETS[name], GENRANK_SPREADS[name]
    if shape == "zero":
        m = zero_module(p, field)
    elif shape == "spreads":  # the full spread, at least, lies outside supp m
        proper = [s for s in spreads if s.support != p.full_mask]
        m = base_change(direct_sum([spread_module(rng.choice(proper), field) for _ in range(rng.randint(1, 2))]), rng)
    else:
        m = random_module(p, field, rng, spreads)
    x = Family(p, rng.sample(spreads, rng.randint(0, len(spreads))))
    assert generalized_rank_vector(m, x) == tuple(generalized_rank(m, s) for s in x.members)


# -- signed diagrams ---------------------------------------------------


def test_signed_diagram_of_collection_member_sum(field):
    p = grid(2, 2)
    x = builtin_family(p, "connected_spreads")
    members = x.members
    m = direct_sum([
        spread_module(members[0], field),
        spread_module(members[0], field),
        spread_module(members[3], field),
    ])
    d = signed_diagram(m, x)
    want = {members[0].render(): 2, members[3].render(): 1}
    assert d.nonzero() == want


def test_signed_diagram_inverts_generalized_rank(field, rng):
    # Möbius round trip: summing the diagram over supersets returns the rank
    p = grid(2, 2)
    x = builtin_family(p, "connected_spreads")
    for _ in range(4):
        m = random_module(p, field, rng)
        ranks = generalized_rank_vector(m, x)
        d = signed_diagram(m, x)
        for i, s in enumerate(x.members):
            back = sum(
                c for t, c in zip(x.members, d.coeffs)
                if s.support | t.support == t.support
            )
            assert back == ranks[i], s.render()


def test_signed_diagram_duplicate_collection(field):
    # a diagram is taken over a Family, which refuses a bad collection where
    # it is built; the diagram itself refuses only a Family over another poset
    p = grid(2, 2)
    m = zero_module(p, field)
    s = spread_from_convex(p, ["00"])
    with pytest.raises(DuplicateSpreadError, match=r"spread \[00,00\] appears twice"):
        Family(p, [s, s])
    # the members are refused in order: a repeat before a later disconnected
    # member, a disconnected member before its own repeat
    tops = mask_of([p.element("01"), p.element("10")])
    disconnected = Spread(p, tops, tops, tops)
    with pytest.raises(DuplicateSpreadError):
        Family(p, [s, s, disconnected])
    with pytest.raises(NotConnectedError):
        Family(p, [disconnected, s, disconnected])
    with pytest.raises(PosetMismatchError):
        Family(p, [s, spread_from_antichains(chain(4), ["1"], ["4"])])
    with pytest.raises(PosetMismatchError):
        signed_diagram(m, builtin_family(chain(4), "connected_spreads"))
    assert signed_diagram(m, Family(p, [])).coeffs == ()


@given(st.sampled_from(sorted(GENRANK_POSETS)), st.integers(0, 10_000))
def test_signed_diagram_matches_mobius_inversion(name, seed):
    # oracle: δ(X) = Σ_{Y ⊇ X} μ(X, Y) · rk(Y), with μ the Möbius function of
    # the containment poset of a random shuffled sub-collection
    field = PrimeField()
    rng = random.Random(seed)
    spreads = GENRANK_SPREADS[name]
    p = GENRANK_POSETS[name]
    m = random_module(p, field, rng, spreads)
    x = Family(p, rng.sample(spreads, rng.randint(0, len(spreads))))
    ranks = generalized_rank_vector(m, x)
    q = containment_poset(x.members)
    want = tuple(
        sum(q.mobius(i, j) * ranks[j] for j in elements_of(q.up_mask(i)))
        for i in range(len(x))
    )
    assert signed_diagram(m, x).coeffs == want


def test_signed_diagram_solves_no_limit_outside_the_support(field, rng, monkeypatch):
    # a spread not inside supp m has rank 0 and coefficient 0, read without
    # its limit; every spread inside supp m is still solved
    p = grid(3, 3)
    x = builtin_family(p, "connected_spreads")
    row, column = spread_from_convex(p, ["00", "01", "02"]), spread_from_convex(p, ["01", "11"])
    m = base_change(direct_sum([spread_module(row, field), spread_module(column, field)]), rng)
    seen = []
    solve = invariants.agreement_system

    def record(s, mod):
        seen.append(s.support)
        return solve(s, mod)

    monkeypatch.setattr(invariants, "agreement_system", record)
    d = signed_diagram(m, x)
    assert d.nonzero() == {row.render(): 1, column.render(): 1}
    supp = m.support_mask()
    assert sorted(seen) == [s.support for s in x.members if not s.support & ~supp]


def test_a_diagram_over_a_family_tests_no_connectivity(field, rng, monkeypatch):
    # the members were checked where the Family was built; only the checked
    # single-spread entry tests a spread again
    p = grid(3, 3)
    x = builtin_family(p, "connected_spreads")
    m = random_module(p, field, rng)
    tested = []
    is_connected = Poset.is_connected
    monkeypatch.setattr(Poset, "is_connected", lambda self, mask: tested.append(mask) or is_connected(self, mask))
    assert any(signed_diagram(m, x).coeffs)
    assert tested == []
    generalized_rank(m, x.members[0])
    assert tested == [x.members[0].support]


SOLVE_POSETS = dict(generator_posets(5), grid3x3=grid(3, 3))
SOLVE_SPREADS = {k: enumerate_spreads(p, "connected_spreads") for k, p in SOLVE_POSETS.items()}
SOLVE_FAMILIES = {  # every builtin family that covers its poset and has an acyclic Hom digraph
    name: [x for kind in BUILTIN_FAMILIES
           if not (x := builtin_family(p, kind)).missing_projectives() and check_family(x).hom_acyclic]
    for name, p in SOLVE_POSETS.items()
}


@given(st.sampled_from(sorted(SOLVE_POSETS)), st.sampled_from(["zero", "spread", "random"]), st.integers(0, 10_000))
def test_class_and_diagram_match_the_dense_back_substitution(name, shape, seed):
    # the in-place solves against the dense solver that re-checks every row:
    # the class over a random such family, the diagram over a random
    # duplicate-free sub-collection of the connected spreads, maybe empty
    field = PrimeField()
    rng = random.Random(seed)
    p, spreads, x = SOLVE_POSETS[name], SOLVE_SPREADS[name], rng.choice(SOLVE_FAMILIES[name])
    if shape == "zero":
        m = zero_module(p, field)
    elif shape == "spread":
        m = spread_module(rng.choice([s for s in spreads if s.support != p.full_mask] or spreads), field)
    else:
        m = random_module(p, field, rng)
    rows = [[(j, len(comps)) for j, comps in row.items()] for row in x.hom_rows()]
    want = back_substitute(dim_hom_vector(x, m), rows, reversed(check_family(x).topo_order))
    assert class_via_hom_matrix(x, m).coeffs == want
    y = Family(p, rng.sample(spreads, rng.randint(0, len(spreads))))
    supports = [s.support for s in y.members]
    rows = [[(j, 1) for j, b in enumerate(supports) if a & b == a] for a in supports]
    order = sorted(range(len(supports)), key=lambda i: -supports[i].bit_count())
    want = back_substitute(generalized_rank_vector(m, y), rows, order)
    assert signed_diagram(m, y).coeffs == want


def test_grid2x3_diagram_collision(field):
    g = grid23_diagram_modules(field)
    spreads = builtin_family(g["poset"], "connected_spreads")
    dn = signed_diagram(g["n"], spreads)
    dl = signed_diagram(g["l"], spreads)
    assert dn.coeffs == dl.coeffs
    x = g["x"]
    assert hom_dim(x, g["n"]) == 1
    assert hom_dim(x, g["l"]) == 0


# -- barcodes -----------------------------------------------------------


def test_barcode_of_interval_sum(field):
    p = chain(4)
    m = direct_sum([
        interval_module(p, field, 0, 2),
        interval_module(p, field, 0, 2),
        interval_module(p, field, 1, 3),
        simple_module(p, field, 3),
    ])
    bc = barcode(m)
    assert bc.nonzero() == {"[1,3]": 2, "[2,4]": 1, "[4,4]": 1}


def test_barcode_zigzag(field, rng):
    p = path_poset("udud")
    for _ in range(6):
        m = random_module(p, field, rng)
        bc = barcode(m)
        assert all(c >= 0 for c in bc.coeffs)
        rebuilt = direct_sum(
            [spread_module(s, field) for s, c in zip(bc.spreads, bc.coeffs) for _ in range(c)]
            or [zero_module(p, field)]
        )
        assert rebuilt.dims == m.dims
        x = Family(p, bc.spreads)
        assert dim_hom_vector(x, rebuilt) == dim_hom_vector(x, m)


def test_barcode_is_the_resolution_class_on_every_small_path(field, rng):
    # type A is representation-directed: the connected spreads of a path
    # poset have an acyclic Hom digraph, so the barcode is back-substituted
    for n in range(1, 7):
        for pattern in itertools.product("ud", repeat=n - 1):
            p = path_poset("".join(pattern))
            x = builtin_family(p, "connected_spreads")
            assert check_family(x).hom_acyclic, pattern
            for _ in range(2):
                m = random_module(p, field, rng)
                assert barcode(m) == class_via_resolution(x, m), (pattern, m.dims)


def test_barcode_never_resolves(field, rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("barcode resolved")

    monkeypatch.setattr(approx, "resolve", refuse)
    monkeypatch.setattr(invariants, "resolve", refuse)
    p = path_poset("udud")
    for m in (random_module(p, field, rng), zero_module(p, field)):
        bc = barcode(m)
        assert sum(c * len(s) for s, c in zip(bc.spreads, bc.coeffs)) == sum(m.dims)


def test_barcode_rejects_branching(field):
    with pytest.raises(NotTypeAError):
        barcode(zero_module(grid(2, 2), field))
    with pytest.raises(NotTypeAError):
        barcode(zero_module(fan(3), field))


# -- rank-blind pairs and compare ------------------------------------------


def test_equal_rank_pair_rank_equal_class_distinct(field):
    p, m, mprime = equal_rank_pair(field)
    assert rank_invariant(m) == rank_invariant(mprime)
    x = builtin_family(p, "single_source")
    cm = class_via_hom_matrix(x, m)
    cmp_ = class_via_hom_matrix(x, mprime)
    assert cm.coeffs != cmp_.coeffs
    assert compare("rank", m, mprime) == "equal"
    assert compare("class", m, mprime, family=x) == "distinguished"


def test_rank_blind_pair_on_every_branching_poset(field):
    for name, p in generator_posets(max_n=6):
        if principal_upsets_totally_ordered(p):
            assert branching_vertex(p) is None or name == "atilde5"
            continue
        m, mprime = rank_blind_pair(p, field)
        assert rank_invariant(m) == rank_invariant(mprime), name
        x = builtin_family(p, "single_source")
        a = class_via_hom_matrix(x, m)
        b = class_via_hom_matrix(x, mprime)
        assert a.coeffs != b.coeffs, name


def test_class_equal_implies_rank_equal(field, rng):
    # sampled check that single-source classes refine the rank invariant
    for name, p in generator_posets(max_n=5):
        x = builtin_family(p, "single_source")
        seen = 0
        for _ in range(30):
            m = random_module(p, field, rng)
            n = random_module(p, field, rng)
            if compare("class", m, n, family=x) == "equal":
                seen += 1
                assert compare("rank", m, n) == "equal", name
        # direct sums in two orders give guaranteed equal-class pairs
        m = random_module(p, field, rng)
        n = random_module(p, field, rng)
        assert compare("class", direct_sum([m, n]), direct_sum([n, m]), family=x) == "equal"
        assert compare("rank", direct_sum([m, n]), direct_sum([n, m])) == "equal"


def test_compare_kinds(field):
    p, m, mprime = equal_rank_pair(field)
    x = builtin_family(p, "single_source")
    spreads = builtin_family(p, "connected_spreads")
    assert compare("dimvec", m, mprime) == "equal"
    assert compare("rank", m, mprime) == "equal"
    # over all connected spreads the generalized rank already separates the
    # pair (the wide spread at the corner has rank 0 vs 1), so the diagram does too
    assert compare("genrank", m, mprime, family=spreads) == "distinguished"
    assert compare("diagram", m, mprime, family=spreads) == "distinguished"
    assert compare("dimhom", m, mprime, family=x) == "distinguished"
    assert compare("class", m, mprime, family=x) == "distinguished"
    wide = spread_from_antichains(p, ["00"], ["01", "10"])
    assert generalized_rank(m, wide) == 0
    assert generalized_rank(mprime, wide) == 1
    with pytest.raises(UnknownInvariantError):
        compare("frobnicate", m, mprime)
    with pytest.raises(PosetMismatchError):
        compare("rank", m, zero_module(chain(2), field))


def test_invariant_key_is_the_value_compare_tests(field):
    p, m, mprime = equal_rank_pair(field)
    x = builtin_family(p, "single_source")
    spreads = builtin_family(p, "connected_spreads")
    assert invariant_key("dimvec", m) == m.dims
    assert invariant_key("rank", m) == rank_invariant(m)
    assert invariant_key("class", m, family=x) == class_via_hom_matrix(x, m)
    assert invariant_key("dimhom", m, family=x) == dim_hom_vector(x, m)
    assert invariant_key("genrank", m, family=spreads) == generalized_rank_vector(m, spreads)
    assert invariant_key("diagram", m, family=spreads) == signed_diagram(m, spreads)
    families = {"class": x, "dimhom": x, "genrank": spreads, "diagram": spreads}
    for kind in COMPARE_KINDS:
        key_m = invariant_key(kind, m, family=families.get(kind))
        key_n = invariant_key(kind, mprime, family=families.get(kind))
        want = "equal" if key_m == key_n else "distinguished"
        assert compare(kind, m, mprime, family=families.get(kind)) == want
    for kind in ("class", "dimhom", "genrank", "diagram"):
        with pytest.raises(ValueError, match="needs"):
            invariant_key(kind, m)
    with pytest.raises(UnknownInvariantError):
        invariant_key("frobnicate", m)


def test_compare_class_falls_back_to_resolution(field):
    # a family with a Hom-cycle still compares classes when both resolutions
    # terminate inside the depth bound
    from spreadhom.gallery import atilde5_family

    p, x = atilde5_family()
    m = spread_module(x.members[0], field)
    n = spread_module(x.members[1], field)
    assert compare("class", m, n, family=x) == "distinguished"
    assert compare("class", m, m, family=x) == "equal"
    # and propagates truncation when they do not
    bad = spread_module(spread_from_antichains(p, ["1"], ["6"]), field)
    with pytest.raises(ResolutionTruncatedError):
        compare("class", bad, n, family=x, max_depth=6)
