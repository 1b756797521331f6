"""One benchmark child process; run.py starts it with PYTHONPATH=<checkout>/src.

    child.py resolve INPUTS OUT [--trace SPANS] [--check]
        Set up (import, build the intervals and hooks families, check_family,
        load the input modules), then resolve every module against each
        family in a timed loop.  With --check, afterwards and untimed, compare
        the alternating sum of each resolution with class_via_hom_matrix.
        Writes its timings and results as JSON to OUT.
    child.py cli SPANS ARG...
        Run `spreadhom ARG...` with every layer traced; spans go to SPANS.
"""
import json
import resource
import sys
import time

FAMILIES = ("intervals", "hooks")
MAX_DEPTH = 16


def resolve_main(inputs_path, out_path, trace_path, check):
    from spreadhom import PersistenceModule, PrimeField, Poset, builtin_family, check_family

    with open(inputs_path) as fh:
        data = json.load(fh)
    poset = Poset(len(data["names"]), [tuple(c) for c in data["covers"]], data["names"])
    field = PrimeField(data["prime"])
    families = [builtin_family(poset, name) for name in FAMILIES]
    for fam in families:
        check_family(fam)
    modules = [
        PersistenceModule(poset, field, m["dims"], {(a, b): mat for a, b, mat in m["maps"]})
        for m in data["modules"]
    ]
    setup_done = time.perf_counter()
    if trace_path:
        import tracer

        tracer.install(trace_path)
    from spreadhom import approx

    latencies, statuses, terms = [], [], []
    clock = time.perf_counter
    start = clock()
    for fam in families:
        for m in modules:
            t0 = clock()
            res = approx.resolve(fam, m, MAX_DEPTH)
            latencies.append(clock() - t0)
            statuses.append(res.status)
            terms.append([list(t) for t in res.terms])
    loop_s = clock() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checks = []
    if check:
        pairs = [(fam, m) for fam in families for m in modules]
        checks = [_second_route_agrees(fam, m, t) for (fam, m), t in zip(pairs, terms)]
    with open(out_path, "w") as fh:
        json.dump({"setup_done": setup_done, "loop_s": loop_s, "latencies": latencies,
                   "statuses": statuses, "terms": terms, "rss_kb": rss_kb,
                   "checks": checks}, fh)


def _second_route_agrees(fam, module, terms):
    from spreadhom import class_via_hom_matrix

    alternating = [0] * len(fam)
    for k, term in enumerate(terms):
        for i, c in enumerate(term):
            alternating[i] += c if k % 2 == 0 else -c
    return list(class_via_hom_matrix(fam, module).coeffs) == alternating


def cli_main(spans_path, argv):
    import tracer

    tracer.install(spans_path)
    from spreadhom import cli

    return cli.main(argv)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "resolve":
        args = sys.argv[2:]
        trace = args[args.index("--trace") + 1] if "--trace" in args else None
        resolve_main(args[0], args[1], trace, "--check" in args)
    elif mode == "cli":
        sys.exit(cli_main(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
