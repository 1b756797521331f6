#!/usr/bin/env python3
"""Fixed-seed benchmark of spreadhom, run from the root of a checkout.

    python3 bench/run.py --workload resolve --seed 0 --seconds 50 --trace 0

Workloads (README.md in this directory gives the reason for each):
  resolve          library resolve of 4x4-grid modules against intervals and hooks
  compare-class    `spreadhom compare class --batch` over 16 module files
  compare-diagram  `spreadhom compare diagram --batch` over the same kind of files;
                   for manual runs only, BENCHMARK.json lists the other two

One caller, one workload process at a time, never --jobs.  Timed repeats
run until --seconds of measured time (at least MIN_REPEATS of them), each in
a fresh process.  With --trace 1 the repeats run with every layer traced
and the per-layer metrics are reported instead.  Human-readable lines and
one {"report": ...} line precede the last line, the result object.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("resolve", "compare-class", "compare-diagram")
DEFAULT_SEED = 0
RESOLVE_MODULES = 6         # per family; one resolution each per repeat
BATCH_FILES, BATCH_COPIES = 16, 4
SETUP_REPEATS = 5
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {"run_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# resolve only, so reported with quartiles but not gated: a gated metric must
# exist on every workload, and a CLI run shows no per-pair latency
UNITS = dict(END_TO_END, item_p50_s="s")
PER_LAYER = (
    "hom.self_s", "hom.hom_basis.calls", "hom.kernel_module.calls",
    "approx.pair_hom.calls", "approx.pair_hom.hit_ratio",
    "approx.minimal_approximation.calls", "approx.self_s",
    "hom.hom_dim.calls", "hom.spread_hom_dim.calls", "approx.check_family.calls",
    "approx.hom_matrix.calls", "invariants.class_via_hom_matrix.calls",
    "invariants.compare.calls",
    "invariants.generalized_rank.calls", "invariants.self_s", "poset.mobius.calls",
    "poset.containment_poset.calls", "poset.self_s",
    "files.load_module.calls", "files.load_poset.calls", "files.load_family.calls",
    "files.bytes", "files.self_s", "cli.self_s",
    "field.rref.calls", "field.rref.cells", "field.self_s", "modules.construct.calls",
    "modules.self_s", "poset.spreads_enumerated", "trace.overhead_s",
)
CLI_ARGS = {
    "compare-class": ["compare", "class", "--batch", "mods", "--family", "single_source"],
    "compare-diagram": ["compare", "diagram", "--batch", "mods", "--collection", "intervals"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary(values):
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Proc:
    """One finished child: wall time from spawn to exit, output, exit code, peak RSS."""

    def __init__(self, cmd, cwd, env):
        self.spawn = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        err = []
        drain = threading.Thread(target=lambda: err.append(child.stderr.read()))
        drain.start()
        try:
            out = child.stdout.read()
            # wait4 rather than wait(): it also returns the child's own peak RSS
            _, status, usage = os.wait4(child.pid, 0)
            self.run_s = time.perf_counter() - self.spawn
            child.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if child.returncode is None:
                child.kill()
                child.wait()
            drain.join()
            child.stdout.close()
            child.stderr.close()
        self.returncode = child.returncode
        self.stdout = out
        self.stderr = err[0].decode(errors="replace")
        self.rss_mb = usage.ru_maxrss / 1024

    @property
    def clean(self):
        return self.returncode == 0 and "Traceback" not in self.stderr


class Bench:
    def __init__(self, root, work, args):
        self.work, self.args = work, args
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.samples = {name: [] for name in UNITS}
        self.layers = []          # one summarize() result per traced repeat
        self.untraced_run_s = []
        self.traced_run_s = []
        self.spent = 0.0          # wall time of the repeats that count towards --seconds
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.info = {}
        with open(os.path.join(HERE, "expected.json")) as fh:
            self.expected = json.load(fh)

    def fail(self, items, why):
        self.failed += items
        self.problems.append(why)

    def python(self, *argv):
        """A fresh interpreter on the checkout's sources, in the work directory."""
        return Proc([sys.executable, *argv], self.work, self.env)

    def repeats(self):
        """Yield (index, traced) until --seconds are spent and enough repeats ran.

        With --trace 1, untraced and traced repeats alternate, the untraced
        ones being the reference for trace.overhead_s.  The caller adds the
        wall time of every repeat, traced or not, to self.spent, so a traced
        run takes about as long as an untraced one.
        """
        n = 0
        while self.spent < self.args.seconds or n < MIN_REPEATS:
            if self.args.trace:
                yield 2 * n, False
                yield 2 * n + 1, True
            else:
                yield n, False
            n += 1

    def warm_up(self):
        """Compile the package to bytecode once, before anything is timed."""
        p = self.python("-c", "import spreadhom.cli, spreadhom.gallery, spreadhom.randmod")
        if not p.clean:
            raise SystemExit(f"bench: importing spreadhom failed:\n{p.stderr}")

    def check_digest(self, key, digest, items):
        """Byte-level check against the digests recorded for the default seed."""
        self.info[f"{key}_sha256"] = digest
        if self.args.seed == DEFAULT_SEED and digest != self.expected[self.args.workload][key]:
            self.fail(items, f"{key} digest {digest} differs from the recorded one")


# -- resolve --------------------------------------------------------------------


def run_resolve(b: Bench):
    grid, mods = inputs.resolve_inputs(b.args.seed, RESOLVE_MODULES)
    b.info["inputs_sha256"] = inputs.digest(inputs.dump_module(m, "grid4x4") for m in mods)
    path = os.path.join(b.work, "inputs.json")
    with open(path, "w") as fh:
        json.dump({
            "names": grid.names, "covers": grid.covers, "prime": inputs.PRIME,
            "modules": [{"dims": m.dims, "maps": [[a, c, mat] for (a, c), mat in m.maps.items()
                                                  if m.dims[a] and m.dims[c]]} for m in mods],
        }, fh)
    b.warm_up()
    items = 2 * len(mods)
    terms_seen = None
    for k, traced in b.repeats():
        out = os.path.join(b.work, f"out{k}.json")
        argv = [os.path.join(HERE, "child.py"), "resolve", path, out]
        spans = os.path.join(b.work, f"spans{k}.jsonl")
        if traced:
            argv += ["--trace", spans]
        if k == 0:
            argv.append("--check")
        p = b.python(*argv)
        b.attempted += items
        b.spent += p.run_s
        if not p.clean:
            b.fail(items, f"resolve child exited {p.returncode}: {p.stderr.strip()[-500:]}")
            continue
        with open(out) as fh:
            res = json.load(fh)
        bad = [i for i, s in enumerate(res["statuses"]) if s != "finite"]
        bad += [i for i, ok in enumerate(res["checks"]) if not ok and i not in bad]
        if bad:
            b.fail(len(bad), f"{len(bad)} resolutions not finite or not matching class_via_hom_matrix")
        terms = json.dumps(res["terms"]).encode()
        if terms_seen is None:
            terms_seen = terms
            b.check_digest("output", sha256(terms), items)
        elif terms != terms_seen:
            b.fail(items, "resolution terms differ between repeats")
        if traced:
            b.traced_run_s.append(res["loop_s"])
            b.layers.append(tracer.summarize(spans))
            continue
        if b.args.trace:
            b.untraced_run_s.append(res["loop_s"])
            continue
        b.samples["run_s"].append(res["loop_s"])
        b.samples["items_per_s"].append((items - len(bad)) / res["loop_s"])
        b.samples["item_p50_s"].extend(res["latencies"])
        b.samples["setup_s"].append(res["setup_done"] - p.spawn)
        b.samples["peak_rss_mb"].append(res["rss_kb"] / 1024)


# -- compare --batch --------------------------------------------------------------


def run_compare(b: Bench):
    kind = b.args.workload.split("-")[1]
    grid, mods = inputs.batch_inputs(b.args.seed, BATCH_FILES, BATCH_COPIES)
    os.makedirs(os.path.join(b.work, "mods"))
    names = [f"mods/m{i:02d}.yaml" for i in range(len(mods))]
    texts = [inputs.dump_poset(grid)] + [inputs.dump_module(m, "../poset.yaml") for m in mods]
    for name, text in zip(["poset.yaml"] + names, texts):
        with open(os.path.join(b.work, name), "w") as fh:
            fh.write(text)
    b.info["inputs_sha256"] = inputs.digest(texts)
    if kind == "class":
        supports = inputs.single_source_supports(grid)
        keys = [inputs.dim_hom_vector(m, supports) for m in mods]
    else:
        keys = [inputs.rank_invariant(m) for m in mods]
    expected = [
        f"{names[i]} vs {names[j]}: {'equal' if keys[i] == keys[j] else 'distinguished'}"
        for i, j in itertools.combinations(range(len(mods)), 2)
    ]
    cli = ["-m", "spreadhom"]
    b.warm_up()
    for _ in range(1 if b.args.trace else SETUP_REPEATS):
        p = b.python(*cli, "validate", "poset.yaml", *names)
        if not p.clean or len(p.stdout.splitlines()) != len(names) + 1:
            raise SystemExit(f"bench: validate failed ({p.returncode}):\n{p.stderr}")
        if not b.args.trace:
            b.samples["setup_s"].append(p.run_s)
    first = None
    for k, traced in b.repeats():
        spans = os.path.join(b.work, f"spans{k}.jsonl")
        if traced:
            p = b.python(os.path.join(HERE, "child.py"), "cli", spans, *CLI_ARGS[b.args.workload])
        else:
            p = b.python(*cli, *CLI_ARGS[b.args.workload])
        b.attempted += len(expected)
        b.spent += p.run_s
        if not p.clean:
            b.fail(len(expected), f"compare exited {p.returncode}: {p.stderr.strip()[-500:]}")
            continue
        got = p.stdout.decode(errors="replace").splitlines()
        wrong = sum(g != e for g, e in zip(got, expected)) + abs(len(expected) - len(got))
        if wrong:
            b.fail(min(wrong, len(expected)), f"{wrong} compare lines differ from the oracle")
        if first is None:
            first = p.stdout
            b.check_digest("output", sha256(p.stdout), len(expected))
        elif p.stdout != first:
            b.fail(len(expected), "compare output differs between repeats")
        if traced:
            b.traced_run_s.append(p.run_s)
            b.layers.append(tracer.summarize(spans))
            continue
        if b.args.trace:
            b.untraced_run_s.append(p.run_s)
            continue
        b.samples["run_s"].append(p.run_s)
        b.samples["items_per_s"].append((len(expected) - min(wrong, len(expected))) / p.run_s)
        b.samples["peak_rss_mb"].append(p.rss_mb)


# -- report -------------------------------------------------------------------------


def environment(root):
    rev = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
        rev = out.stdout.strip() or rev
    src = os.path.join(root, "src", "spreadhom")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"git_rev": rev, "src_sha256": h.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spreadhom", "__init__.py")):
        raise SystemExit("bench: no src/spreadhom here; run from the root of a spreadhom checkout")
    # inside the checkout, so the benchmark writes nowhere else
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=root) as work:
        b = Bench(root, work, args)
        (run_resolve if args.workload == "resolve" else run_compare)(b)

    if not (b.layers and b.untraced_run_s if args.trace else b.samples["run_s"]):
        raise SystemExit("bench: every repeat failed:\n" + "\n".join(b.problems))
    if args.trace:
        per_layer = {}
        for name in PER_LAYER[:-1]:
            per_layer[name] = {"value": statistics.median_low(l[name][0] for l in b.layers),
                               "unit": b.layers[0][name][1]}
        stats = {name: dict(summary([l[name][0] for l in b.layers]), unit=b.layers[0][name][1])
                 for name in b.layers[0]}
        # each traced repeat against the untraced one just before it
        overhead = [t - u for u, t in zip(b.untraced_run_s, b.traced_run_s)]
        stats["trace.overhead_s"] = dict(summary(overhead), unit="s")
        per_layer["trace.overhead_s"] = {"value": stats["trace.overhead_s"]["median"], "unit": "s"}
        metrics = per_layer
    else:
        stats = {name: dict(summary(v), unit=UNITS[name]) for name, v in b.samples.items() if v}
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    fail_ratio = b.failed / b.attempted
    for name, s in stats.items():
        print(f"{args.workload} {name}: {s['median']:.6g} {s['unit']} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"{args.workload} fail_ratio: {fail_ratio:.6g} ({b.failed}/{b.attempted})")
    for why in b.problems:
        print(f"{args.workload} problem: {why}")
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(root), **b.info,
        "stats": stats, "fail_ratio": fail_ratio,
    }}, sort_keys=True))
    print(json.dumps({"correct": b.failed == 0 and not b.problems, "attempted": b.attempted,
                      "failed": b.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
