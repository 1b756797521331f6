"""Golden CLI output: stdout, stderr and exit code of `invariant` and `compare`
over every module file in data/.

The runs go through `cli.main` in-process, from inside data/, so that the
paths the CLI prints are the bare file names.  `golden_cli.json` maps each
command line to [exit code, stdout, stderr].  To regenerate it after an
intended output change (and say why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden_cli.py

which prints each command line whose entry it adds, removes or changes, so
that the diff of golden_cli.json can be reviewed against that list.
"""
import contextlib
import io
import itertools
import json
import os
from pathlib import Path

import yaml

from spreadhom.approx import BUILTIN_FAMILIES
from spreadhom.cli import INVARIANT_KINDS, main
from spreadhom.invariants import COMPARE_KINDS

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).with_name("golden_cli.json")

FAMILIES = BUILTIN_FAMILIES + ("atilde5_family.yaml",)
COLLECTIONS = ("intervals", "single_source", "connected_spreads")


def _module_posets():
    """Module file name -> its `poset:` reference, for every module file in data/."""
    out = {}
    for path in sorted(DATA.glob("*.yaml")):
        data = yaml.safe_load(path.read_text())
        if "poset" in data:
            out[path.name] = data["poset"]
    return out


def _kind_options(kind):
    if kind in ("class", "dimhom", "resolve"):
        return [["--family", f, "--max-depth", "8"] for f in FAMILIES]
    if kind in ("genrank", "diagram"):
        return [["--collection", c] for c in COLLECTIONS]
    return [[]]


def golden_argvs():
    mods = _module_posets()
    argvs = []
    for mod in mods:
        for kind in INVARIANT_KINDS:
            argvs += [["invariant", kind, mod] + opts for opts in _kind_options(kind)]
    for a, b in itertools.combinations(mods, 2):
        # a pair over unequal posets fails before any invariant: one kind pins it
        kinds = COMPARE_KINDS if mods[a] == mods[b] else ("dimvec",)
        for kind in kinds:
            argvs += [["compare", kind, a, b] + opts for opts in _kind_options(kind)]
    return argvs


def run_all():
    out = {}
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        for argv in golden_argvs():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            out[" ".join(argv)] = [code, stdout.getvalue(), stderr.getvalue()]
    finally:
        os.chdir(cwd)
    return out


def test_cli_output_matches_golden():
    want = json.loads(GOLDEN.read_text())
    got = run_all()
    assert sorted(got) == sorted(want), "the set of golden command lines changed"
    diff = [cmd for cmd in want if got[cmd] != want[cmd]]
    assert not diff, f"{len(diff)} runs differ, first: {diff[0]}: {got[diff[0]]} != {want[diff[0]]}"


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = run_all()
    for cmd in sorted(old.keys() | new.keys()):
        if old.get(cmd) != new.get(cmd):
            print(cmd)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
