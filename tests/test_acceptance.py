"""Acceptance gate: ten end-to-end criteria, one printed PASS/FAIL line each.

Each test prints its verdict line immediately (bypassing capture) so a plain
pytest run shows the scoreboard, then asserts.  Expected values are frozen
literals; random checks use fixed seeds.  Each criterion also carries a wall
clock budget.
"""

import random
import time

import numpy as np

from spreadhom import (
    Family,
    HomMatrixSingularError,
    PrimeField,
    builtin_family,
    class_via_hom_matrix,
    class_via_resolution,
    check_family,
    compare,
    dim_hom_vector,
    direct_sum,
    enumerate_spreads,
    generalized_rank,
    hom_dim,
    rank_invariant,
    rank_via_hooks,
    resolve,
    signed_diagram,
    spread_from_antichains,
    spread_hom_dim,
    spread_module,
    barcode,
    zero_module,
)
from spreadhom.gallery import (
    atilde5_family,
    grid53_hom_pair,
    generator_posets,
    grid23_diagram_modules,
    grid,
    path_poset,
    equal_rank_pair,
)
from spreadhom.randmod import random_module

from helpers import principal_upsets_totally_ordered, rank_blind_pair

FIELD = PrimeField()


def report(capsys, num, budget, t0, ok, desc, detail=""):
    elapsed = time.perf_counter() - t0
    line = f"[acceptance {num:02d}] {'PASS' if ok and elapsed < budget else 'FAIL'} {elapsed:6.2f}s  {desc}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line + ("\n" + detail if detail else "")
    assert elapsed < budget, f"{line}\nexceeded the {budget:.0f}s budget"


def test_criterion_01_grid5x3_hom_pair(capsys):
    t0 = time.perf_counter()
    _, s, t = grid53_hom_pair()
    counted = spread_hom_dim(s, t)
    solved = hom_dim(spread_module(s, FIELD), spread_module(t, FIELD))
    ok = counted == 1 and solved == 1
    report(
        capsys, 1, 1.0, t0, ok,
        f"5x3-grid pair dim Hom = 1 by both routes (counted={counted}, solved={solved})",
    )


def test_criterion_02_spread_hom_oracle(capsys):
    t0 = time.perf_counter()
    mismatches = []
    pairs = 0
    for name, p in generator_posets(max_n=6):
        spreads = enumerate_spreads(p, "connected_spreads")
        mods = [spread_module(s, FIELD) for s in spreads]
        for s, ms in zip(spreads, mods):
            for t, mt in zip(spreads, mods):
                pairs += 1
                a = spread_hom_dim(s, t)
                b = hom_dim(ms, mt)
                if a != b:
                    mismatches.append((name, s.render(), t.render(), a, b))
    report(
        capsys, 2, 60.0, t0, not mismatches,
        f"component-count = solver on all {pairs} connected-spread pairs, "
        f"{len(mismatches)} mismatches",
        detail=f"first mismatches: {mismatches[:5]}",
    )


def test_criterion_03_rank_via_hooks(capsys):
    t0 = time.perf_counter()
    rng = random.Random(3)
    bad = 0
    total = 0
    for p, count in ((grid(2, 2), 67), (grid(2, 3), 67), (grid(3, 3), 66)):
        for _ in range(count):
            m = random_module(p, FIELD, rng)
            assert all(d <= 3 for d in m.dims)
            total += 1
            if rank_via_hooks(m) != rank_invariant(m):
                bad += 1
    report(
        capsys, 3, 60.0, t0, bad == 0,
        f"rank table = hook-counting table on {total} random modules, {bad} mismatches",
    )


def test_criterion_04_equal_rank_pair_class_and_resolution(capsys):
    t0 = time.perf_counter()
    p, m, mprime = equal_rank_pair(FIELD)
    x = builtin_family(p, "intervals")
    labels = x.labels()
    members = dict(zip(labels, x.members))

    rank_ok = rank_invariant(m) == rank_invariant(mprime)

    # Reckoned by hand from M' = M_{00,01,10} + S_00 (see equal_rank_pair).
    # The minimal right approximation is S_00 + S_01 + S_10 + M_[00,11]; its
    # kernel is the upper V M_{01,10,11}, covered by M_[01,11] + M_[10,11]
    # with kernel S_11.
    want_terms = [
        {"[00,00]": 1, "[01,01]": 1, "[10,10]": 1, "[00,11]": 1},
        {"[01,11]": 1, "[10,11]": 1},
        {"[11,11]": 1},
    ]
    want_class = {
        "[00,00]": 1, "[01,01]": 1, "[10,10]": 1, "[00,11]": 1,
        "[01,11]": -1, "[10,11]": -1, "[11,11]": 1,
    }

    # The values pinned here before, class +[00,11] +[00,00] -[11,11] and
    # resolution [{[00,11],[00,00]}, {[11,11]}], cannot be right: a class of
    # M' must pair to dim Hom(S_01, M') = 1 against [01,01], yet Hom(S_01, -)
    # vanishes on every one of those terms, so they pair to 0.
    s01 = members["[01,01]"]
    old_terms = ("[00,11]", "[00,00]", "[11,11]")
    old_ok = hom_dim(spread_module(s01, FIELD), mprime) == 1 and all(
        spread_hom_dim(s01, members[lbl]) == 0 for lbl in old_terms
    )

    cls = class_via_hom_matrix(x, mprime)
    got_class = {lbl: c for lbl, c in zip(labels, cls.coeffs) if c}
    class_ok = got_class == want_class

    res = resolve(x, mprime)
    got_terms = [
        {lbl: c for lbl, c in zip(labels, term) if c} for term in res.terms
    ]
    resolution_ok = res.status == "finite" and got_terms == want_terms

    compare_ok = (
        compare("rank", m, mprime) == "equal"
        and compare("class", m, mprime, family=x) == "distinguished"
    )

    ok = rank_ok and old_ok and class_ok and resolution_ok and compare_ok
    detail = (
        f"computed class: {cls.render()}\n"
        f"expected class: {want_class}\n"
        f"computed resolution terms: {got_terms} (status {res.status})\n"
        f"expected resolution terms: {want_terms}\n"
        f"Hom(S_01, M') = 1 and Hom(S_01, -) = 0 on the old terms: {old_ok}"
    )
    report(
        capsys, 4, 1.0, t0, ok,
        "equal-rank 2x2 pair: "
        f"rank={'ok' if rank_ok else 'MISMATCH'} "
        f"class={'ok' if class_ok else 'MISMATCH'} "
        f"resolution={'ok' if resolution_ok else 'MISMATCH'} "
        f"compare={'ok' if compare_ok else 'MISMATCH'}",
        detail=detail,
    )


def test_criterion_05_single_source_classes_refine_rank(capsys):
    t0 = time.perf_counter()
    rng = random.Random(5)
    violations = []
    pairs = 0
    families = {}
    for name, p in generator_posets(max_n=6):
        families[name] = builtin_family(p, "single_source")
    for name, p in generator_posets(max_n=6):
        x = families[name]
        for k in range(40):
            if k % 4 == 0:
                # guaranteed class-equal pairs: the same summands, reordered
                a = random_module(p, FIELD, rng)
                b = random_module(p, FIELD, rng)
                m, n = direct_sum([a, b]), direct_sum([b, a])
            else:
                m = random_module(p, FIELD, rng)
                n = random_module(p, FIELD, rng)
            pairs += 1
            class_equal = (
                class_via_hom_matrix(x, m).coeffs == class_via_hom_matrix(x, n).coeffs
            )
            if class_equal and rank_invariant(m) != rank_invariant(n):
                violations.append((name, m.dims, n.dims))

    blind_fail = []
    for name, p in generator_posets(max_n=6):
        if principal_upsets_totally_ordered(p):
            continue
        m, n = rank_blind_pair(p, FIELD)
        x = families[name]
        if rank_invariant(m) != rank_invariant(n):
            blind_fail.append((name, "ranks differ"))
        if class_via_hom_matrix(x, m).coeffs == class_via_hom_matrix(x, n).coeffs:
            blind_fail.append((name, "classes agree"))

    ok = pairs >= 500 and not violations and not blind_fail
    report(
        capsys, 5, 120.0, t0, ok,
        f"class-equal => rank-equal on {pairs} pairs ({len(violations)} violations); "
        f"constructed blind pairs separated on every branching poset "
        f"({len(blind_fail)} failures)",
        detail=f"violations: {violations[:3]} blind: {blind_fail[:3]}",
    )


def test_criterion_06_grid2x3_signed_diagram(capsys):
    t0 = time.perf_counter()
    g = grid23_diagram_modules(FIELD)
    spreads = builtin_family(g["poset"], "connected_spreads")
    d = signed_diagram(g["m"], spreads)
    got = d.nonzero()
    want = {"[12,12]": 1, "[11,{12,21}]": -1, "[11,{13,21}]": 1, "[11,22]": 1}
    diagram_ok = got == want
    dn = signed_diagram(g["n"], spreads)
    dl = signed_diagram(g["l"], spreads)
    collide_ok = dn.coeffs == dl.coeffs
    hom_ok = hom_dim(g["x"], g["n"]) == 1 and hom_dim(g["x"], g["l"]) == 0
    ok = diagram_ok and collide_ok and hom_ok
    report(
        capsys, 6, 5.0, t0, ok,
        f"2x3-grid signed diagram has the four expected terms ({'ok' if diagram_ok else got}); "
        f"diagrams collide for N and L ({collide_ok}); Hom(X,N)=1, Hom(X,L)=0 ({hom_ok})",
    )


def test_criterion_07_hom_cycle_and_truncated_resolution(capsys):
    t0 = time.perf_counter()
    p, x = atilde5_family()
    diag = check_family(x)
    cycle_ok = not diag.hom_acyclic and diag.hom_cycle is not None

    m16 = spread_module(spread_from_antichains(p, ["1"], ["6"]), FIELD)
    singular_ok = False
    try:
        class_via_hom_matrix(x, m16)
    except HomMatrixSingularError:
        singular_ok = True

    res = resolve(x, m16, max_depth=6)
    labels = x.labels()
    got_terms = [
        {lbl: c for lbl, c in zip(labels, term) if c} for term in res.terms[:4]
    ]
    want_terms = [
        {"[{1,2},{4,6}]": 1},
        {"[{2,3},{4,5}]": 1},
        {"[{1,3},{5,6}]": 1},
        {"[{1,2},{4,6}]": 1},
    ]
    resolve_ok = res.status == "truncated" and got_terms == want_terms
    ok = cycle_ok and singular_ok and resolve_ok
    report(
        capsys, 7, 2.0, t0, ok,
        f"doubled-source trio: Hom cycle found ({cycle_ok}), class solve "
        f"refuses ({singular_ok}), truncated resolution cycles through the trio ({resolve_ok})",
        detail=f"terms: {got_terms}",
    )


def test_criterion_08_class_route_equivalence(capsys):
    t0 = time.perf_counter()
    rng = random.Random(8)
    bad = 0
    total = 0
    for p in (grid(2, 2), grid(2, 3), grid(3, 3)):
        for fam in ("single_source", "hooks"):
            x = builtin_family(p, fam)
            for _ in range(34):
                m = random_module(p, FIELD, rng)
                total += 1
                a = class_via_hom_matrix(x, m)
                b = class_via_resolution(x, m)
                if a.coeffs != b.coeffs:
                    bad += 1
    report(
        capsys, 8, 120.0, t0, bad == 0,
        f"alternating resolution sum = triangular solve on {total} random "
        f"modules across grids and two family kinds, {bad} mismatches",
    )


def test_criterion_09_zigzag_barcodes(capsys):
    t0 = time.perf_counter()
    rng = random.Random(9)
    bad = []
    for k in range(100):
        n = rng.randint(1, 6)
        pattern = "".join(rng.choice("ud") for _ in range(n - 1))
        p = path_poset(pattern)
        m = random_module(p, FIELD, rng)
        bc = barcode(m)
        if any(c < 0 for c in bc.coeffs):
            bad.append((pattern, "negative coefficient"))
            continue
        rebuilt = direct_sum(
            [
                spread_module(s, FIELD)
                for s, c in zip(bc.spreads, bc.coeffs)
                for _ in range(c)
            ]
            or [zero_module(p, FIELD)]
        )
        x = Family(p, bc.spreads)
        if dim_hom_vector(x, rebuilt) != dim_hom_vector(x, m):
            bad.append((pattern, "dim-hom vector differs"))
    report(
        capsys, 9, 60.0, t0, not bad,
        f"100 zigzag barcodes: non-negative and rebuild to the same dim-hom "
        f"vector, {len(bad)} failures",
        detail=f"failures: {bad[:5]}",
    )


def test_criterion_10_property_suites(capsys):
    t0 = time.perf_counter()
    rng = random.Random(10)
    failures = []

    # Grothendieck class additivity under direct sum
    p = grid(2, 2)
    x = builtin_family(p, "single_source")
    for _ in range(20):
        m = random_module(p, FIELD, rng)
        n = random_module(p, FIELD, rng)
        lhs = class_via_hom_matrix(x, direct_sum([m, n])).coeffs
        rhs = (class_via_hom_matrix(x, m) + class_via_hom_matrix(x, n)).coeffs
        if lhs != rhs:
            failures.append("class additivity")

    # containment Möbius inversion round trip
    for q in (grid(2, 2), grid(2, 3)):
        spreads = builtin_family(q, "connected_spreads")
        for _ in range(5):
            m = random_module(q, FIELD, rng)
            d = signed_diagram(m, spreads)
            for s in spreads.members:
                back = sum(
                    c
                    for t, c in zip(spreads.members, d.coeffs)
                    if s.support | t.support == t.support
                )
                if back != generalized_rank(m, s):
                    failures.append(f"inversion at {s.render()}")

    # rank-nullity and transpose-rank over two primes
    for prime in (2, 32003):
        f = PrimeField(prime)
        nprng = np.random.default_rng(prime)
        for _ in range(25):
            a = nprng.integers(0, prime, size=(nprng.integers(1, 6), nprng.integers(1, 6)))
            if f.rank(a) + f.kernel_basis(a).shape[1] != a.shape[1]:
                failures.append("rank-nullity")
            if f.rank(a) != f.rank(a.T):
                failures.append("transpose rank")

    # generalized rank on intervals = classical rank entries
    q = grid(2, 3)
    for _ in range(6):
        m = random_module(q, FIELD, rng)
        entries = rank_invariant(m)
        for (a, b), r in entries.items():
            s = spread_from_antichains(q, [a], [b])
            if generalized_rank(m, s) != r:
                failures.append(f"interval rank at ({a},{b})")

    report(
        capsys, 10, 60.0, t0, not failures,
        f"additivity, inversion round trip, rank-nullity/transpose, "
        f"interval generalized ranks: {len(failures)} failures",
        detail=f"failures: {failures[:5]}",
    )
