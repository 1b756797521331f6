import collections
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import spreadhom
from spreadhom import FileFormatError, PrimeField, ShapeError, dim_hom_vector, direct_sum
from spreadhom import cli, files
from spreadhom.cli import main
from spreadhom.files import (
    dump_family,
    dump_module,
    dump_poset,
    load_family,
    load_module,
    load_poset,
)
from spreadhom.gallery import atilde5, chain
from spreadhom.invariants import COMPARE_KINDS, class_route
from spreadhom.modules import PersistenceModule
from spreadhom.poset import Poset

DATA = Path(__file__).resolve().parent.parent / "data"

POSET_FILES = ["grid2x2.yaml", "grid2x3.yaml", "atilde5.yaml", "zigzag_w.yaml"]
MODULE_FILES = [
    "equal_rank_m.yaml",
    "equal_rank_mprime.yaml",
    "diagram_m.yaml",
    "diagram_x.yaml",
    "diagram_n.yaml",
    "diagram_l.yaml",
    "m16.yaml",
    "zigzag_module.yaml",
]


# -- round trips -------------------------------------------------------------


@pytest.mark.parametrize("name", POSET_FILES)
def test_poset_round_trip_is_byte_identical(name):
    raw = (DATA / name).read_text()
    assert dump_poset(load_poset(str(DATA / name))) == raw


@pytest.mark.parametrize("name", MODULE_FILES)
def test_module_round_trip_is_byte_identical(name, field):
    raw = (DATA / name).read_text()
    m, _, ref = load_module(str(DATA / name), field)
    assert dump_module(m, ref) == raw


def test_family_round_trip_is_byte_identical():
    raw = (DATA / "atilde5_family.yaml").read_text()
    fam = load_family(str(DATA / "atilde5_family.yaml"), atilde5())
    assert dump_family(fam.members) == raw
    assert len(fam) == 9


# -- parsing details --------------------------------------------------------


def test_identity_shorthand(tmp_path, field):
    (tmp_path / "p.yaml").write_text('elements: ["a", "b"]\ncovers: [["a", "b"]]\n')
    (tmp_path / "m.yaml").write_text(
        'poset: "p.yaml"\ndims: {"a": 2, "b": 2}\nmaps:\n  "a->b": id\n'
    )
    m, _, _ = load_module(str(tmp_path / "m.yaml"), field)
    assert m.maps[(0, 1)] == field.eye(2)


def test_chain_file_loads_with_one_look_at_the_covers(tmp_path, field, monkeypatch):
    # the cover check of each map key must not rebuild the cover set
    reads = collections.Counter()
    covers = Poset.covers
    monkeypatch.setattr(Poset, "covers", property(lambda p: reads.update([p.n]) or covers.fget(p)))

    def reads_to_load_chain(n):
        p = chain(n)
        m = PersistenceModule(p, field, [1] * n, {c: [[c[0] % 7 + 1]] for c in p.covers})
        (tmp_path / f"chain{n}.yaml").write_text(dump_poset(p))
        (tmp_path / f"m{n}.yaml").write_text(dump_module(m, f"chain{n}.yaml"))
        reads.clear()
        assert load_module(str(tmp_path / f"m{n}.yaml"), field)[0] == m
        return reads[n]

    assert reads_to_load_chain(2000) == reads_to_load_chain(100)


def test_identity_shorthand_needs_equal_dims(tmp_path, field):
    (tmp_path / "p.yaml").write_text('elements: ["a", "b"]\ncovers: [["a", "b"]]\n')
    (tmp_path / "m.yaml").write_text(
        'poset: "p.yaml"\ndims: {"a": 2, "b": 1}\nmaps:\n  "a->b": id\n'
    )
    with pytest.raises(FileFormatError):
        load_module(str(tmp_path / "m.yaml"), field)


@pytest.mark.parametrize(
    "body,exc",
    [
        ("elements: 3\ncovers: []\n", FileFormatError),           # elements not a list
        ('elements: ["a"]\ncovers: [["a"]]\n', FileFormatError),  # cover not a pair
        ('elements: ["a"]\ncovers: [["a", "z"]]\n', FileFormatError),  # unknown label
        ('elements: ["a"]\ncovers: []\nextra: 1\n', FileFormatError),  # unknown key
        ("covers: []\n", FileFormatError),                        # missing elements
        ("- 1\n- 2\n", FileFormatError),                          # not a mapping
        ("{", FileFormatError),                                   # not YAML
    ],
)
def test_poset_file_errors(tmp_path, body, exc):
    path = tmp_path / "p.yaml"
    path.write_text(body)
    with pytest.raises(exc):
        load_poset(str(path))


def test_module_file_errors(tmp_path, field):
    (tmp_path / "p.yaml").write_text('elements: ["a", "b"]\ncovers: [["a", "b"]]\n')

    def modfile(body):
        path = tmp_path / "m.yaml"
        path.write_text(body)
        return str(path)

    with pytest.raises(FileFormatError):  # unknown label in dims
        load_module(modfile('poset: "p.yaml"\ndims: {"z": 1}\n'), field)
    with pytest.raises(FileFormatError):  # negative dimension
        load_module(modfile('poset: "p.yaml"\ndims: {"a": -1}\n'), field)
    with pytest.raises(FileFormatError):  # key is not a cover
        load_module(
            modfile('poset: "p.yaml"\ndims: {"a": 1, "b": 1}\nmaps:\n  "b->a": [[1]]\n'),
            field,
        )
    with pytest.raises(FileFormatError):  # malformed key
        load_module(
            modfile('poset: "p.yaml"\ndims: {"a": 1}\nmaps:\n  "a": [[1]]\n'), field
        )
    with pytest.raises(ShapeError):  # wrong matrix shape
        load_module(
            modfile('poset: "p.yaml"\ndims: {"a": 1, "b": 1}\nmaps:\n  "a->b": [[1, 2]]\n'),
            field,
        )
    with pytest.raises(FileFormatError):  # no such file
        load_module(str(tmp_path / "missing.yaml"), field)


def test_load_family_forms(tmp_path):
    p = atilde5()
    assert len(load_family("single_source", p)) == 15
    assert len(load_family("connected_upsets", p)) == 10
    indirect = tmp_path / "fam.yaml"  # a builtin family is named by its name, not by a file
    indirect.write_text('family: "connected_upsets"\n')
    with pytest.raises(FileFormatError, match=re.escape("unknown keys ['family']")):
        load_family(str(indirect), p)
    bad = tmp_path / "bad.yaml"
    bad.write_text('family: "everything"\n')
    with pytest.raises(FileFormatError):
        load_family(str(bad), p)
    with pytest.raises(FileFormatError):
        load_family("no_such_family_or_file", p)
    malformed = tmp_path / "spr.yaml"
    malformed.write_text('spreads:\n  - {sources: ["1"]}\n')
    with pytest.raises(FileFormatError):
        load_family(str(malformed), p)


# -- command line ------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_validate(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate",
        str(DATA / "grid2x2.yaml"),
        str(DATA / "equal_rank_m.yaml"),
        str(DATA / "equal_rank_mprime.yaml"),
    )
    assert code == 0
    assert out.count("ok module") == 2
    assert "ok poset" in out


def test_cli_validate_rejects_garbage(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("covers: []\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "error:" in err


def _two_chains(tmp_path):
    """chain.yaml (1 < 2), same.yaml (a copy) and other.yaml (2 < 1) in tmp_path."""
    chain2 = 'elements: ["1", "2"]\ncovers: [["1", "2"]]\n'
    (tmp_path / "chain.yaml").write_text(chain2)
    (tmp_path / "same.yaml").write_text(chain2)
    (tmp_path / "other.yaml").write_text('elements: ["1", "2"]\ncovers: [["2", "1"]]\n')
    return str(tmp_path / "chain.yaml")


def test_cli_validate_reads_each_module_over_its_own_poset(capsys, tmp_path):
    chain2 = _two_chains(tmp_path)
    # 1->2 is a cover of chain.yaml but not of other.yaml, which m.yaml names
    m = tmp_path / "m.yaml"
    m.write_text('poset: "other.yaml"\ndims: {"1": 1, "2": 1}\nmaps: {"1->2": [[1]]}\n')
    code, out, err = run_cli(capsys, "invariant", "dimvec", str(m))
    _one_line_error(code, err, "m.yaml", "'1->2' is not a cover")
    code, out, err = run_cli(capsys, "validate", chain2, str(m))
    _one_line_error(code, err, "m.yaml", "'1->2' is not a cover")
    # a module that loads over its own poset is still refused when that is not POSET
    m.write_text('poset: "other.yaml"\ndims: {"1": 1}\n')
    code, out, err = run_cli(capsys, "validate", chain2, str(m))
    _one_line_error(code, err, "m.yaml", "'other.yaml'", "chain.yaml")
    assert out.splitlines() == [f"ok poset {chain2}: 2 elements, 1 covers"]
    # a poset file that differs only in name passes, and the text is unchanged
    m.write_text('poset: "same.yaml"\ndims: {"1": 1, "2": 1}\nmaps: {"1->2": [[1]]}\n')
    code, out, err = run_cli(capsys, "validate", chain2, str(m))
    assert (code, err) == (0, "")
    assert out == f"ok poset {chain2}: 2 elements, 1 covers\nok module {m}: dims {{'1': 1, '2': 1}}\n"


def test_cli_validate_jsonl(capsys, tmp_path):
    chain2 = _two_chains(tmp_path)
    m = tmp_path / "m.yaml"
    m.write_text('poset: "chain.yaml"\ndims: {"2": 3}\n')
    code, out, err = run_cli(capsys, "validate", chain2, str(m), str(m), "--jsonl", "--prime", "5")
    assert (code, err) == (0, "")
    assert [json.loads(line) for line in out.splitlines()] == [
        {"record": "header", "format": "spreadhom.v1", "command": "validate", "poset": chain2, "prime": 5},
        {"record": "poset", "path": chain2, "elements": 2, "covers": 1},
        {"record": "module", "path": str(m), "dims": {"2": 3}},
        {"record": "module", "path": str(m), "dims": {"2": 3}},
    ]


@pytest.mark.parametrize("argv, option", [
    (["invariant", "dimvec", "m16.yaml", "--family", "/no/such.yaml"], "--family"),
    (["invariant", "barcode", "zigzag_module.yaml", "--collection", "intervals"], "--collection"),
    (["invariant", "class", "m16.yaml", "--family", "intervals", "--collection", "intervals"], "--collection"),
    (["invariant", "diagram", "m16.yaml", "--family", "intervals", "--collection", "intervals"], "--family"),
    (["compare", "rank", "equal_rank_m.yaml", "equal_rank_mprime.yaml", "--collection", "nope"], "--collection"),
    (["compare", "genrank", "equal_rank_m.yaml", "equal_rank_mprime.yaml", "--family", "intervals"], "--family"),
], ids=["dimvec-family", "barcode-collection", "class-collection", "diagram-family",
        "rank-collection", "genrank-family"])
def test_cli_refuses_a_family_option_the_kind_does_not_read(capsys, argv, option):
    argv = [str(DATA / a) if a.endswith("yaml") and "/" not in a else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    _one_line_error(code, err, f"kind {argv[1]!r}", option)
    assert out == ""


def _grid2x3_variant(tmp_path, old, new, name="m.yaml"):
    """diagram_m.yaml over grid2x3.yaml with one line replaced."""
    shutil.copy(DATA / "grid2x3.yaml", tmp_path / "grid2x3.yaml")
    text = (DATA / "diagram_m.yaml").read_text()
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new))
    return str(path)


def test_cli_rejects_bool_dimension(capsys, tmp_path):
    path = _grid2x3_variant(tmp_path, '"11": 1,', '"11": true,')
    code, out, err = run_cli(capsys, "invariant", "dimvec", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "dims['11']" in err and len(err.splitlines()) == 1
    path = _grid2x3_variant(tmp_path, 'dims: {"11": 1, "12": 2, "13": 1, "21": 1, "22": 1}', "dims: [1, 2]")
    code, out, err = run_cli(capsys, "invariant", "dimvec", path)
    _one_line_error(code, err, "m.yaml", "'dims' must map labels to counts")
    assert out == ""


def test_cli_rejects_fractional_entry(capsys, tmp_path):
    path = _grid2x3_variant(tmp_path, '"11->12": [[1], [1]]', '"11->12": [[1.5], [1]]')
    code, out, err = run_cli(capsys, "invariant", "dimvec", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "1.5" in err and len(err.splitlines()) == 1
    _one_line_error(code, err, "m.yaml", "map '11->12' has entry 1.5, not an integer")


def test_cli_reduces_huge_entry_exactly(capsys, tmp_path, field):
    # an integer entry of any size is read as its residue mod p, like every
    # other entry, instead of overflowing int64
    huge = 99999999999999999999
    path = _grid2x3_variant(tmp_path, '"11->12": [[1], [1]]', f'"11->12": [[1], [{huge}]]')
    code, out, err = run_cli(capsys, "invariant", "rank", path)
    assert code == 0 and err == ""
    m, _, _ = load_module(path, field)
    assert m.maps[(0, 1)].tolist() == [[1], [huge % field.p]]
    want = _grid2x3_variant(
        tmp_path, '"11->12": [[1], [1]]', f'"11->12": [[1], [{huge % field.p}]]', "residue.yaml"
    )
    assert run_cli(capsys, "invariant", "rank", want) == (0, out, "")


def test_cli_rank(capsys):
    # the text is made in the CLI from the library's {(a, b): rank} table, sorted by ids
    code, out, err = run_cli(capsys, "invariant", "rank", str(DATA / "equal_rank_m.yaml"))
    assert (code, err) == (0, "")
    assert out == (
        "00 <= 00: 2\n00 <= 01: 1\n00 <= 10: 1\n00 <= 11: 0\n01 <= 01: 1\n"
        "01 <= 11: 0\n10 <= 10: 1\n10 <= 11: 0\n11 <= 11: 0\n"
    )


def test_cli_class_needs_family(capsys):
    code, _, err = run_cli(capsys, "invariant", "class", str(DATA / "equal_rank_m.yaml"))
    assert code == 1
    assert "family" in err


def test_cli_class_intervals(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariant", "class", str(DATA / "equal_rank_mprime.yaml"),
        "--family", "intervals",
    )
    assert code == 0
    assert "hom_matrix" in out
    assert "[00,11]" in out


@pytest.mark.parametrize("module, options, route", [
    ("equal_rank_mprime.yaml", ["--family", "intervals"], "hom_matrix"),
    ("m16.yaml", ["--family", "connected_spreads", "--max-depth", "8"], "resolution"),
])
def test_cli_class_route_is_class_route(capsys, field, module, options, route):
    path = str(DATA / module)
    code, out, _ = run_cli(capsys, "invariant", "class", path, *options, "--jsonl")
    assert code == 0
    record = json.loads(out.splitlines()[-1])
    _, poset, _ = load_module(path, field)
    assert record["route"] == class_route(load_family(options[1], poset, 100_000)) == route
    code, out, _ = run_cli(capsys, "invariant", "class", path, *options)
    assert code == 0 and out.startswith(f"class ({route}): ")


def test_cli_resolve_truncates_with_exit_2(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariant", "resolve", str(DATA / "m16.yaml"),
        "--family", str(DATA / "atilde5_family.yaml"),
        "--max-depth", "6",
    )
    assert code == 2
    assert "status: truncated" in out
    assert "periodicity hint" in out
    assert out.count("term ") == 6


def test_cli_resolve_finite(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariant", "resolve", str(DATA / "equal_rank_mprime.yaml"),
        "--family", "single_source",
    )
    assert code == 0
    assert "status: finite" in out


def test_cli_resolve_refuses_a_family_without_the_principal_up_sets_as_class_does(capsys, tmp_path):
    # resolve checks the family before it answers, at depth 0 and for the zero module too
    shutil.copy(DATA / "atilde5.yaml", tmp_path)
    (tmp_path / "zero.yaml").write_text('poset: "atilde5.yaml"\ndims: {}\n')
    for module, depth in ((DATA / "m16.yaml", "0"), (tmp_path / "zero.yaml", "8")):
        for kind in ("resolve", "class"):
            code, out, err = run_cli(capsys, "invariant", kind, str(module),
                                     "--family", "intervals", "--max-depth", depth)
            assert (code, out) == (1, ""), (module, kind)
            assert err == "error: family lacks the principal up-sets at {1, 2, 3}\n"


def test_cli_class_on_cyclic_family_reports_undecided(capsys):
    code, _, err = run_cli(
        capsys,
        "invariant", "class", str(DATA / "m16.yaml"),
        "--family", str(DATA / "atilde5_family.yaml"),
        "--max-depth", "6",
    )
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("undecided: ")
    # the module by its labelled dims, each partial term by its spreads
    assert err.startswith("undecided: resolution of the module with dims {'1': 1, '6': 1} did not terminate")
    assert "; partial terms: [{'[{1,2},{4,6}]': 1}, " in err


def test_cli_rejects_negative_max_depth(capsys):
    code, out, err = run_cli(
        capsys,
        "invariant", "resolve", str(DATA / "m16.yaml"),
        "--family", str(DATA / "atilde5_family.yaml"),
        "--max-depth", "-1",
    )
    _one_line_error(code, err, "max_depth", "-1")
    assert out == ""


def test_cli_rejects_negative_cap(capsys):
    code, out, err = run_cli(
        capsys,
        "invariant", "class", str(DATA / "equal_rank_m.yaml"), "--family", "intervals", "--cap", "-1",
    )
    _one_line_error(code, err, "cap", "-1")
    assert out == ""


def test_cli_rejects_negative_max_depth_on_the_acyclic_route(capsys):
    # the hom-matrix route never resolves, so the depth is checked where it is parsed
    code, out, err = run_cli(
        capsys,
        "invariant", "class", str(DATA / "equal_rank_m.yaml"), "--family", "intervals",
        "--max-depth", "-1",
    )
    assert err == "error: max_depth must be non-negative, got -1\n"
    assert code == 1 and out == ""


def test_cli_rejects_negative_cap_with_a_family_file(capsys):
    # a family file enumerates nothing, so the cap is checked where it is parsed
    code, out, err = run_cli(
        capsys,
        "invariant", "class", str(DATA / "m16.yaml"),
        "--family", str(DATA / "atilde5_family.yaml"), "--cap", "-1",
    )
    assert err == "error: cap must be non-negative, got -1\n"
    assert code == 1 and out == ""


def test_cli_barcode_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "invariant", "barcode", str(DATA / "zigzag_module.yaml"))
    assert code == 0
    assert "barcode:" in out
    code, _, err = run_cli(capsys, "invariant", "barcode", str(DATA / "equal_rank_m.yaml"))
    assert code == 3
    assert "unsupported" in err


def test_cli_dimhom(capsys, field):
    path = str(DATA / "diagram_n.yaml")
    code, out, _ = run_cli(capsys, "invariant", "dimhom", path, "--family", "single_source")
    assert code == 0
    m, poset, _ = load_module(path, field)
    x = load_family("single_source", poset)
    want = [f"{s.render()}: {v}" for s, v in zip(x.members, dim_hom_vector(x, m))]
    assert out.splitlines() == want


def test_cli_genrank_and_diagram(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariant", "genrank", str(DATA / "diagram_m.yaml"),
        "--collection", "connected_spreads",
    )
    assert code == 0
    assert "[11,22]" in out
    code, out, _ = run_cli(
        capsys,
        "invariant", "diagram", str(DATA / "diagram_m.yaml"),
        "--collection", "connected_spreads",
    )
    assert code == 0
    assert "signed diagram:" in out


def test_cli_compare(capsys):
    a, b = str(DATA / "equal_rank_m.yaml"), str(DATA / "equal_rank_mprime.yaml")
    code, out, _ = run_cli(capsys, "compare", "rank", a, b)
    assert code == 0 and "equal" in out
    code, out, _ = run_cli(capsys, "compare", "class", a, b, "--family", "single_source")
    assert code == 0 and "distinguished" in out
    code, out, _ = run_cli(
        capsys, "compare", "genrank", a, b, "--collection", "connected_spreads"
    )
    assert code == 0 and "distinguished" in out


def test_cli_compare_batch(capsys, tmp_path):
    mods = tmp_path / "mods"
    mods.mkdir()
    shutil.copy(DATA / "grid2x2.yaml", tmp_path / "grid2x2.yaml")
    for name in ("equal_rank_m.yaml", "equal_rank_mprime.yaml"):
        text = (DATA / name).read_text().replace('"grid2x2.yaml"', '"../grid2x2.yaml"')
        (mods / name).write_text(text)
    code, out, _ = run_cli(capsys, "compare", "rank", "--batch", str(mods))
    assert code == 0
    assert out.count(": equal") == 1


def _one_line_error(code, err, *needles):
    assert code == 1
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("error:") and all(n in err for n in needles), err


@pytest.mark.parametrize("argv, needle", [
    (["invariant", "nope", "m16.yaml"], "invalid choice: 'nope'"),
    (["invariant", "dimvec", "m16.yaml", "--max-depth", "x"], "invalid int value: 'x'"),
    ([], "required: command"),
    (["invariant", "dimvec", "m16.yaml", "--bogus"], "unrecognized arguments: --bogus"),
    (["compare"], "required: kind"),
    (["compare", "class", "m16.yaml", "--family", "intervals"], "compare needs two module files (or --batch DIR)"),
], ids=["unknown-kind", "depth-not-an-int", "no-command", "unknown-option", "compare-without-kind",
        "compare-one-file"])
def test_cli_usage_error_is_one_line_with_exit_1(capsys, argv, needle):
    # 2 means an undecided answer, so a usage error exits 1 like any bad input
    argv = [str(DATA / a) if a.endswith(".yaml") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    _one_line_error(code, err, needle)
    assert out == ""


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["invariant", "--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spreadhom invariant")


def _grid2x2_batch(tmp_path, field):
    """Four grid2x2 modules in tmp_path/mods, the last a renamed copy of the first."""
    mods = tmp_path / "mods"
    mods.mkdir()
    shutil.copy(DATA / "grid2x2.yaml", tmp_path / "grid2x2.yaml")
    texts = [
        (DATA / name).read_text().replace('"grid2x2.yaml"', '"../grid2x2.yaml"')
        for name in ("equal_rank_m.yaml", "equal_rank_mprime.yaml")
    ]
    m, _, _ = load_module(str(DATA / "equal_rank_m.yaml"), field)
    mprime, _, _ = load_module(str(DATA / "equal_rank_mprime.yaml"), field)
    texts.append(dump_module(direct_sum([m, mprime]), "../grid2x2.yaml"))
    texts.append(texts[0])
    paths = []
    for i, text in enumerate(texts):
        (mods / f"m{i}.yaml").write_text(text)
        paths.append(str(mods / f"m{i}.yaml"))
    return mods, paths


KIND_OPTIONS = {
    "dimvec": [], "rank": [],
    "class": ["--family", "single_source"], "dimhom": ["--family", "intervals"],
    "genrank": ["--collection", "connected_spreads"], "diagram": ["--collection", "connected_spreads"],
}


@pytest.mark.parametrize("jsonl", [[], ["--jsonl"]])
@pytest.mark.parametrize("kind", COMPARE_KINDS)
def test_cli_compare_batch_prints_the_pairwise_lines(capsys, tmp_path, field, kind, jsonl):
    mods, paths = _grid2x2_batch(tmp_path, field)
    options = KIND_OPTIONS[kind] + jsonl
    want = []
    for a, b in itertools.combinations(paths, 2):
        code, out, err = run_cli(capsys, "compare", kind, a, b, *options)
        assert code == 0 and err == ""
        lines = out.splitlines()
        header, body = (lines[0], lines[1:]) if jsonl else (None, lines)
        want += body
    if jsonl:
        want.insert(0, header)
    code, out, err = run_cli(capsys, "compare", kind, "--batch", str(mods), *options)
    assert code == 0 and err == ""
    assert out.splitlines() == want
    assert "equal" in out and "distinguished" in out


def test_cli_compare_batch_does_linear_work(capsys, tmp_path, field, monkeypatch):
    mods, paths = _grid2x2_batch(tmp_path, field)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(files, "load_poset", counted("load_poset", files.load_poset))
    for name in ("load_module", "load_family", "invariant_key"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    code, out, _ = run_cli(
        capsys, "compare", "class", "--batch", str(mods), "--family", "single_source"
    )
    assert code == 0 and len(out.splitlines()) == 6
    n = len(paths)
    assert calls == {"load_poset": 1, "load_module": n, "load_family": 1, "invariant_key": n}


def test_cli_compare_batch_stops_at_the_first_bad_pair(capsys, tmp_path, field):
    mods, paths = _grid2x2_batch(tmp_path, field)
    (mods / "m3.yaml").write_text('poset: "../grid2x2.yaml"\ndims: {"00": true}\n')
    code, out, err = run_cli(capsys, "compare", "rank", "--batch", str(mods))
    _one_line_error(code, err, "m3.yaml", "dims['00']")
    want = []
    for a, b in [(paths[0], paths[1]), (paths[0], paths[2])]:
        want += run_cli(capsys, "compare", "rank", a, b)[1].splitlines()
    assert out.splitlines() == want


def test_cli_compare_batch_needs_a_directory(capsys, tmp_path):
    code, out, err = run_cli(capsys, "compare", "rank", "--batch", str(tmp_path / "missing"))
    _one_line_error(code, err, "missing")
    assert out == ""
    (tmp_path / "file.yaml").write_text("{}\n")
    code, out, err = run_cli(capsys, "compare", "rank", "--batch", str(tmp_path / "file.yaml"))
    _one_line_error(code, err, "file.yaml")
    assert out == ""


def test_cli_compare_refuses_module_files_with_batch(capsys, tmp_path, field):
    # the files would otherwise be dropped, and only the directory compared
    mods, paths = _grid2x2_batch(tmp_path, field)
    for named in (paths[:1], paths[:2]):
        code, out, err = run_cli(capsys, "compare", "rank", *named, "--batch", str(mods))
        _one_line_error(code, err, "--batch", "not both")
        assert out == ""


def test_cli_compare_reads_each_file_over_its_own_poset(capsys, tmp_path):
    # other.yaml is grid2x2 without the cover 10->11; m_other.yaml is
    # equal_rank_m.yaml over it, which loads fine (it has no map into 11)
    grid = (DATA / "grid2x2.yaml").read_text()
    assert ', ["10", "11"]' in grid
    (tmp_path / "grid2x2.yaml").write_text(grid)
    (tmp_path / "other.yaml").write_text(grid.replace(', ["10", "11"]', ""))
    (tmp_path / "same.yaml").write_text(grid)
    text = (DATA / "equal_rank_m.yaml").read_text()
    m = tmp_path / "m.yaml"
    m.write_text(text)
    m_other = tmp_path / "m_other.yaml"
    m_other.write_text(text.replace('"grid2x2.yaml"', '"other.yaml"'))
    m_same = tmp_path / "m_same.yaml"
    m_same.write_text(text.replace('"grid2x2.yaml"', '"same.yaml"'))
    for argv in (["class", str(m), str(m_other), "--family", "intervals"],
                 ["rank", str(m), str(m_other)]):
        code, out, err = run_cli(capsys, "compare", *argv)
        _one_line_error(code, err, "m_other.yaml", "different posets")
        assert out == ""
    # two poset files that describe equal posets still compare
    code, out, err = run_cli(capsys, "compare", "class", str(m), str(m_same), "--family", "intervals")
    assert (code, err) == (0, "") and out.endswith(": equal\n")


def test_cli_rejects_maps_that_are_not_a_mapping(capsys, tmp_path):
    # only null or an absent key means no maps: a falsy value is refused too
    shutil.copy(DATA / "grid2x3.yaml", tmp_path / "grid2x3.yaml")
    path = tmp_path / "m.yaml"
    for value in ("[1]", "false", "[]", '""'):
        path.write_text(f'poset: "grid2x3.yaml"\ndims: {{"11": 1}}\nmaps: {value}\n')
        code, out, err = run_cli(capsys, "invariant", "dimvec", str(path))
        _one_line_error(code, err, "m.yaml", "'maps'")
        assert out == "", value


def test_null_covers_and_absent_or_null_maps_still_load(tmp_path, field):
    (tmp_path / "p.yaml").write_text('elements: ["a", "b"]\ncovers: null\n')
    assert load_poset(str(tmp_path / "p.yaml")).covers == ()
    (tmp_path / "q.yaml").write_text('elements: ["a", "b"]\ncovers: [["a", "b"]]\n')
    for tail in ("", "maps: null\n", "maps: {}\n", "maps:\n"):
        (tmp_path / "m.yaml").write_text('poset: "q.yaml"\ndims: {"a": 1, "b": 1}\n' + tail)
        m = load_module(str(tmp_path / "m.yaml"), field)[0]
        assert m.dims == (1, 1) and m.maps[(0, 1)].rows == [[0]], tail


def test_cli_rejects_ragged_matrix(capsys, tmp_path):
    path = _grid2x3_variant(tmp_path, '"11->12": [[1], [1]]', '"11->12": [[1, 0], [1]]')
    code, out, err = run_cli(capsys, "invariant", "dimvec", path)
    _one_line_error(code, err, "m.yaml", "'11->12'", "unequal length")
    assert out == ""


def test_cli_rejects_two_keys_for_one_cover(capsys, tmp_path):
    # neither key may silently win over the other
    path = _grid2x3_variant(tmp_path, '  "11->21": id\n', '  "11->21": id\n  "11 -> 12": [[1], [0]]\n')
    code, out, err = run_cli(capsys, "invariant", "rank", path)
    _one_line_error(code, err, "m.yaml", "'11->12'", "'11 -> 12'", "same cover")
    assert out == ""
    # nor may a key name a label the poset lacks
    path = _grid2x3_variant(tmp_path, '"11->21": id', '"11->zz": id')
    code, out, err = run_cli(capsys, "invariant", "rank", path)
    _one_line_error(code, err, "m.yaml", "map key '11->zz': unknown element label 'zz'")
    assert out == ""


def test_cli_rejects_a_repeated_yaml_key(capsys, tmp_path):
    # yaml.safe_load alone would keep the later of two equal keys
    path = _grid2x3_variant(tmp_path, '  "11->21": id\n', '  "11->21": id\n  "11->12": [[1], [0]]\n')
    code, out, err = run_cli(capsys, "invariant", "rank", path)
    _one_line_error(code, err, "m.yaml", "duplicate key '11->12'")
    assert out == ""


def test_cli_reports_invalid_yaml_on_one_line(capsys, tmp_path):
    # an unclosed mapping, and a key with no space before its value
    for old, new in [('"22": 1}', '"22": 1'), ("dims: {", "dims:{")]:
        path = _grid2x3_variant(tmp_path, old, new)
        code, out, err = run_cli(capsys, "invariant", "rank", path)
        _one_line_error(code, err, "m.yaml", "not valid YAML")
        assert out == ""


def test_files_parse_with_libyaml_when_present(capsys, tmp_path):
    # the C parser feeds the same constructor, so the repeated-key refusal
    # and the one-line report of malformed YAML stay as they were
    if yaml.__with_libyaml__:
        assert issubclass(files._Loader, yaml.CSafeLoader)
    assert issubclass(files._Loader, yaml.constructor.SafeConstructor)
    cases = [
        ('  "11->21": id\n', '  "11->21": id\n  "11->21": id\n', "duplicate key '11->21'"),
        ('"22": 1}', '"22": 1', "not valid YAML"),
    ]
    for old, new, needle in cases:
        path = _grid2x3_variant(tmp_path, old, new)
        code, out, err = run_cli(capsys, "invariant", "rank", path)
        _one_line_error(code, err, "m.yaml", needle)
        assert out == ""


def test_cli_refuses_a_module_too_large_to_build(capsys, tmp_path):
    # an identity at 00 alone would have 10**22 cells: refused before any matrix is built
    shutil.copy(DATA / "grid2x2.yaml", tmp_path / "grid2x2.yaml")
    path = tmp_path / "m.yaml"
    for dims, maps in [('{"00": 100000000000}', "{}"),
                       ('{"00": 100000000000, "01": 100000000000}', '{"00->01": id}')]:
        path.write_text(f'poset: "grid2x2.yaml"\ndims: {dims}\nmaps: {maps}\n')
        code, out, err = run_cli(capsys, "invariant", "dimvec", str(path))
        _one_line_error(code, err, "m.yaml", "dense matrix cells", str(files.MAX_DENSE_CELLS))
        assert out == ""


def test_the_size_bound_counts_each_cover_and_element(capsys, tmp_path, monkeypatch):
    # dims 2 at 00 and 3 at 01: 2*3 for the cover 00->01, and 2*2 + 3*3 for the elements
    shutil.copy(DATA / "grid2x2.yaml", tmp_path / "grid2x2.yaml")
    path = tmp_path / "m.yaml"
    path.write_text('poset: "grid2x2.yaml"\ndims: {"00": 2, "01": 3}\n')
    monkeypatch.setattr(files, "MAX_DENSE_CELLS", 19)
    assert run_cli(capsys, "invariant", "dimvec", str(path))[0] == 0
    monkeypatch.setattr(files, "MAX_DENSE_CELLS", 18)
    code, out, err = run_cli(capsys, "invariant", "dimvec", str(path))
    _one_line_error(code, err, "m.yaml", "19 dense matrix cells, more than 18")


def test_cli_rejects_wrong_shape_matrix(capsys, tmp_path):
    path = _grid2x3_variant(tmp_path, '"11->12": [[1], [1]]', '"11->12": []')
    code, out, err = run_cli(capsys, "invariant", "dimvec", path)
    _one_line_error(code, err, "m.yaml", "'11->12'", "expected (2, 1)")
    assert out == ""
    path = _grid2x3_variant(tmp_path, '"11->12": [[1], [1]]', '"11->12": 5')
    code, out, err = run_cli(capsys, "invariant", "dimvec", path)
    _one_line_error(code, err, "m.yaml", "map '11->12' must be a matrix (list of rows) or 'id'")
    assert out == ""


def test_a_map_of_height_zero_may_be_written_with_no_rows(capsys, tmp_path, field):
    # 00->10 has shape dim(10) x dim(00) = 0 x 2, and [] is that matrix
    shutil.copy(DATA / "grid2x2.yaml", tmp_path / "grid2x2.yaml")
    head = 'poset: "grid2x2.yaml"\ndims: {"00": 2, "01": 1}\nmaps:\n  "00->01": [[1, 0]]\n'
    (tmp_path / "m.yaml").write_text(head + '  "00->10": []\n')
    (tmp_path / "omitted.yaml").write_text(head)
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "grid2x2.yaml"), str(tmp_path / "m.yaml"))
    assert (code, err) == (0, "") and "ok module" in out
    m = load_module(str(tmp_path / "m.yaml"), field)[0]
    assert m == load_module(str(tmp_path / "omitted.yaml"), field)[0]
    assert m.maps[(0, 2)].shape == (0, 2)
    # where dim(b) > 0, [] is still a matrix of the wrong shape
    (tmp_path / "m.yaml").write_text(head.replace("[[1, 0]]", "[]"))
    code, out, err = run_cli(capsys, "invariant", "dimvec", str(tmp_path / "m.yaml"))
    _one_line_error(code, err, "m.yaml", "'00->01'", "shape (0, 2), expected (1, 2)")
    assert out == ""


def test_cli_rejects_maps_that_do_not_commute(capsys, tmp_path):
    path = _grid2x3_variant(tmp_path, '"11->12": [[1], [1]]', '"11->12": [[0], [1]]')
    code, out, err = run_cli(capsys, "invariant", "dimvec", path)
    _one_line_error(code, err, "m.yaml", "paths 11 -> 22 disagree")
    assert out == ""


def test_cli_rejects_poset_reference_that_is_not_a_name(capsys, tmp_path):
    path = _grid2x3_variant(tmp_path, 'poset: "grid2x3.yaml"', 'poset: ["grid2x3.yaml"]')
    code, out, err = run_cli(capsys, "invariant", "dimvec", path)
    _one_line_error(code, err, "m.yaml", "'poset' must be a file name")
    assert out == ""


def test_cli_rejects_quotient_closed_that_is_not_a_bool(capsys, tmp_path):
    # closure is derived from the members, so the key is refused whatever its value
    fam = tmp_path / "fam.yaml"
    for value in ('"no"', "true"):
        fam.write_text(f'quotient_closed: {value}\nspreads:\n  - {{sources: ["1"], targets: ["4", "6"]}}\n')
        code, out, err = run_cli(
            capsys, "invariant", "class", str(DATA / "m16.yaml"), "--family", str(fam)
        )
        _one_line_error(code, err, "fam.yaml", "unknown keys ['quotient_closed']")
        assert out == ""


def test_cli_rejects_spread_sources_that_are_not_a_list(capsys, tmp_path):
    fam = tmp_path / "fam.yaml"
    fam.write_text('spreads:\n  - {sources: 3, targets: ["4", "6"]}\n')
    code, out, err = run_cli(
        capsys, "invariant", "class", str(DATA / "m16.yaml"), "--family", str(fam)
    )
    _one_line_error(code, err, "fam.yaml", "'sources'")
    assert out == ""


@pytest.mark.parametrize("spreads,needle", [
    ('[{sources: ["00", "01"], targets: ["11"]}]', "sources ('00', '01') are not an antichain"),
    ('[{sources: ["00"], targets: ["11"]}, {sources: ["00"], targets: ["11"]}]', "spread [00,11] appears twice"),
    ('[{sources: ["01", "10"], targets: ["01", "10"]}]', "member [{01,10},{01,10}] has disconnected support"),
    ('[{sources: ["00", "00"], targets: ["11"]}]', "spread 'sources' lists label '00' twice"),
    ('[{sources: ["00"], targets: ["01", "10", "01"]}]', "spread 'targets' lists label '01' twice"),
    ("{a: 1}", "'spreads' must be a list"),
], ids=["not-an-antichain", "repeated-spread", "disconnected", "repeated-source", "repeated-target",
        "spreads-not-a-list"])
def test_cli_family_file_errors_name_the_file_once(capsys, tmp_path, spreads, needle):
    fam = tmp_path / "fam.yaml"
    fam.write_text(f"spreads: {spreads}\n")
    code, out, err = run_cli(
        capsys, "invariant", "class", str(DATA / "equal_rank_m.yaml"), "--family", str(fam)
    )
    _one_line_error(code, err, f"error: {fam}: {needle}")
    assert err.count("fam.yaml") == 1
    assert out == ""


def test_cli_rejects_two_dims_keys_for_one_label(capsys, tmp_path):
    # YAML reads "1" and 1 as two keys; neither may silently win
    (tmp_path / "p.yaml").write_text('elements: ["1", "2"]\ncovers: [["1", "2"]]\n')
    path = tmp_path / "m.yaml"
    path.write_text('poset: "p.yaml"\ndims: {"1": 1, 1: 2}\n')
    code, out, err = run_cli(capsys, "invariant", "dimvec", str(path))
    _one_line_error(code, err, "m.yaml", "'1' twice")
    assert out == ""


@pytest.mark.parametrize("body,needles", [
    ('elements: ["a", "b"]\ncovers: 5\n', ["'covers'"]),
    ('elements: [["a"], "b"]\ncovers: []\n', ["['a']", "not a string or an integer"]),
    ('elements: ["a", "b"]\ncovers: [["a", "b"], ["b", "a"]]\n', ["cycle through {a, b}"]),
    ('elements: ["a", "b"]\ncovers: false\n', ["'covers' must be a list", "False"]),
    ('elements: ["a", "b"]\ncovers: 0\n', ["'covers' must be a list", "got 0"]),
    ('elements: ["a", "b"]\ncovers: {}\n', ["'covers' must be a list", "{}"]),
    ("", ["expected a mapping at the top level"]),
    ('elements: ["a"]\ncovers: []\ncovers: []\n', ["not valid YAML (found duplicate key 'covers'"]),
    ('elements: ["a"]\ncovers: {"a": 1, "a": 2}\n', ["not valid YAML (found duplicate key 'a'"]),
], ids=["covers-not-a-list", "list-as-label", "cyclic-covers", "covers-false", "covers-zero", "covers-empty-map",
        "empty-file", "repeated-key", "repeated-json-key"])
def test_cli_poset_file_errors_name_the_file(capsys, tmp_path, body, needles):
    path = tmp_path / "p.yaml"
    path.write_text(body)
    code, out, err = run_cli(capsys, "validate", str(path))
    _one_line_error(code, err, "p.yaml", *needles)
    assert out == ""


@pytest.mark.parametrize("label", ["a->b", " a", "a\t"])
def test_a_poset_label_no_map_key_can_name_is_refused(capsys, tmp_path, field, label):
    # a map key is split at its first '->' and each side stripped, so no map key
    # could name this label: the poset refuses it, and so does every file reader
    with pytest.raises(ValueError, match=re.escape(repr(label))):
        Poset(2, [(0, 1)], [label, "c"])
    quoted = json.dumps(label)
    (tmp_path / "p.yaml").write_text(f'elements: [{quoted}, "c"]\ncovers: [[{quoted}, "c"]]\n')
    (tmp_path / "m.yaml").write_text('poset: "p.yaml"\ndims: {"c": 1}\n')
    with pytest.raises(ValueError, match=re.escape(f"p.yaml: no map key can name label {label!r}")):
        load_poset(str(tmp_path / "p.yaml"))
    with pytest.raises(ValueError, match=re.escape(f"p.yaml: no map key can name label {label!r}")):
        load_module(str(tmp_path / "m.yaml"), field)
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "p.yaml"), str(tmp_path / "m.yaml"))
    _one_line_error(code, err, "p.yaml", repr(label))
    assert out == ""


# -- loader fuzzing ------------------------------------------------------------

FUZZ_FILES = {
    "p.yaml": (DATA / "grid2x2.yaml").read_text(),
    "m.yaml": (DATA / "equal_rank_m.yaml").read_text().replace("grid2x2.yaml", "p.yaml"),
    "n.yaml": (DATA / "equal_rank_mprime.yaml").read_text().replace("grid2x2.yaml", "p.yaml"),
    "fam.yaml": (
        "spreads:\n"
        '  - {sources: ["00"], targets: ["11"]}\n'
        '  - {sources: ["01"], targets: ["11"]}\n'
        '  - {sources: ["10"], targets: ["11"]}\n'
        '  - {sources: ["11"], targets: ["11"]}\n'
        '  - {sources: ["00"], targets: ["01", "10"]}\n'
    ),
}
FUZZ_TOKENS = [
    '"', "'", ",", ":", "[", "]", "{", "}", "-", "\n", "  ", "0", "1", "-1", "1.5", "1e3",
    "true", "null", "id", "->", "&a", "*a", "!!binary", "99999999999999999999", '"00"', '"11"',
    '"zz"', '"p.yaml"', '"m.yaml"', '"fam.yaml"', "[[1]]", "[[0, 1]]", "[]", "{}",
]
FUZZ_RUNS = [
    ["invariant", "rank", "m.yaml"],
    ["invariant", "class", "m.yaml", "--family", "fam.yaml"],
    ["invariant", "diagram", "m.yaml", "--collection", "fam.yaml"],
    ["compare", "class", "m.yaml", "n.yaml", "--family", "fam.yaml"],
    ["compare", "genrank", "m.yaml", "n.yaml", "--collection", "fam.yaml"],
]
# (position, characters cut there, token put in their place)
FUZZ_EDITS = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 4), st.sampled_from(FUZZ_TOKENS)), max_size=3
)


def _mutated(text, ops):
    for pos, cut, token in ops:
        pos %= len(text) + 1
        text = text[:pos] + token + text[pos + cut:]
    return text


@settings(max_examples=40)
@given(FUZZ_EDITS, FUZZ_EDITS, FUZZ_EDITS)
def test_cli_survives_mutated_input_files(poset_ops, module_ops, family_ops):
    # every run ends in a documented exit code with at most one stderr line
    ops = {"p.yaml": poset_ops, "m.yaml": module_ops, "fam.yaml": family_ops}
    with tempfile.TemporaryDirectory() as d:
        for name, text in FUZZ_FILES.items():
            Path(d, name).write_text(_mutated(text, ops.get(name, [])))
        for argv in FUZZ_RUNS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([str(Path(d, a)) if a.endswith(".yaml") else a for a in argv])
            err = err.getvalue()
            assert code in (0, 1, 2, 3), (argv, err)
            assert len(err.splitlines()) <= 1 and "Traceback" not in err, (argv, err)


# -- the plain reader ----------------------------------------------------------


def _nesting(value):
    if not isinstance(value, (dict, list)):
        return 0
    return 1 + max(map(_nesting, value.values() if isinstance(value, dict) else value), default=0)


def _read_plain_alike(text):
    """Whether the plain reader reads `text`; if it does, both yaml loaders read it alike without raising."""
    got = files._read_plain(text)
    if got is None:
        return False
    for loader in (files._Loader, yaml.SafeLoader):  # libyaml when present, and the pure-Python parser
        assert repr(yaml.load(text, Loader=loader)) == repr(got), (loader, text)
    assert _nesting(got) <= files.MAX_NESTING, text
    return True


LONG_KEY = "k" * 1000  # the longest key read: its ':' is 1 002 characters past its start, within yaml's 1 024
PLAIN_CASES = [
    ("", False),  # yaml reads an empty file as null
    ('dims:{"00": 1}\n', False),  # yaml needs a space after a block key's ':'
    ("maps:\n", False),  # yaml reads a key with neither value nor entries as null
    ('maps:\ndims: {"00": 1}\n', False),
    ('maps:\n  "00->01": id\n', True),
    (f'dims: {{"{LONG_KEY}": 1}}\n', True),
    (f'dims: {{"{LONG_KEY}k": 1}}\n', False),
    (f'maps:\n  "{LONG_KEY}": id\n', True),
    (f'maps:\n  "{LONG_KEY}k": id\n', False),
    ('dims: {"00" : 1}\n', False),
    ('covers: [[1.5]]\n', False),
    ('covers: [true]\n', False),
    ('poset: "p.yaml"\r\n', False),
    ('poset: "p #1.yaml"\n', False),
]


def test_the_plain_reader_reads_what_dump_writes_as_yaml_does():
    # the golden runs read the data files; of those and the fuzzing seeds, all but the family files are read
    texts = {path.name: path.read_text() for path in sorted(DATA.glob("*.yaml"))}
    texts.update(FUZZ_FILES)
    assert {name: _read_plain_alike(text) for name, text in texts.items()} == {
        name: "spreads" not in text for name, text in texts.items()}
    assert [_read_plain_alike(text) for text, _ in PLAIN_CASES] == [read for _, read in PLAIN_CASES]


# labels that yaml and json might read apart: quotes, backslashes, '->',
# non-ASCII, YAML indicators and spaces
PLAIN_LABELS = st.lists(st.sampled_from(["a", "0", '"', "\\", "->", "é", " ", ":", "#", "&", "*", "[", "{", ",", "'"]),
                        max_size=4).map("".join)
EDIT_CHARS = list(' :,"[]{}-01.ei\n\t\r\\#&*!?|>%@`\'é')
PLAIN_EDITS = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 3), st.text(st.sampled_from(EDIT_CHARS), max_size=3)),
    min_size=1, max_size=3,
)


@st.composite
def plain_texts(draw):
    """A poset or module file as dump_poset and dump_module write it, over drawn labels."""
    labels = draw(st.lists(PLAIN_LABELS, min_size=1, max_size=4, unique=True))
    dumps = draw(st.sampled_from([json.dumps, lambda x: json.dumps(x, ensure_ascii=False)]))
    covers = list(zip(labels, labels[1:]))
    if draw(st.booleans()):
        return f"elements: {dumps(labels)}\ncovers: {dumps([list(c) for c in covers])}\n"
    dims = {lbl: draw(st.integers(0, 2)) for lbl in labels}
    lines = [f"poset: {dumps(draw(PLAIN_LABELS))}", f"dims: {dumps(dims)}"]
    entries = []
    for a, b in covers:
        mat = [[draw(st.integers(-3, 10 ** 20)) for _ in range(dims[a])] for _ in range(dims[b])]
        value = draw(st.sampled_from(["id", dumps(mat)]))
        entries.append(f"  {dumps(a + '->' + b)}: {value}")
    lines += ["maps:", *entries] if entries else ["maps: {}"]
    return "\n".join(lines) + "\n"


@given(plain_texts(), PLAIN_EDITS)
def test_the_plain_reader_reads_only_what_yaml_reads_alike(text, ops):
    _read_plain_alike(text)
    _read_plain_alike(_mutated(text, ops))


@given(st.lists(st.sampled_from(["a", "1", "x y", "é", "a:b"]), min_size=1, max_size=4, unique=True), PLAIN_EDITS)
def test_the_plain_reader_reads_dumped_files_as_yaml_does(labels, ops):
    # a chain over the labels with a random map on each cover, through the real emitters
    p = Poset(len(labels), [(i, i + 1) for i in range(len(labels) - 1)], labels)
    f = PrimeField(5)
    dims = [(i * 7 + len(labels)) % 3 for i in range(p.n)]
    maps = {(a, b): [[(a + 2 * b + i + j) % 5 for j in range(dims[a])] for i in range(dims[b])] for a, b in p.covers}
    for text in (dump_poset(p), dump_module(PersistenceModule(p, f, dims, maps), "p.yaml")):
        assert _read_plain_alike(text) == ("\\" not in text)  # json.dumps escapes non-ASCII
        _read_plain_alike(_mutated(text, ops))


def test_cli_jsonl_records(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariant", "rank", str(DATA / "equal_rank_m.yaml"), "--jsonl",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0]["record"] == "header"
    assert lines[0]["format"] == "spreadhom.v1"
    assert lines[0]["command"] == "invariant"
    assert lines[1]["record"] == "invariant"
    assert lines[1]["kind"] == "rank"
    assert lines[1]["entries"] == [
        ["00", "00", 2], ["00", "01", 1], ["00", "10", 1], ["00", "11", 0], ["01", "01", 1],
        ["01", "11", 0], ["10", "10", 1], ["10", "11", 0], ["11", "11", 0],
    ]


@pytest.mark.parametrize("argv, record", [
    (["diagram", "diagram_x.yaml", "--collection", "intervals"],
     {"record": "invariant", "kind": "diagram", "coeffs": {"[11,11]": -1, "[11,12]": 1, "[11,21]": 1}}),
    (["barcode", "zigzag_module.yaml"],
     {"record": "invariant", "kind": "barcode", "coeffs": {"[1,2]": 1, "[3,2]": 1, "[3,4]": 1}}),
])
def test_cli_jsonl_groth_class_records(capsys, argv, record):
    path = str(DATA / argv[1])
    code, out, err = run_cli(capsys, "invariant", argv[0], path, *argv[2:], "--jsonl")
    assert (code, err) == (0, "")
    assert [json.loads(line) for line in out.splitlines()] == [
        {"record": "header", "format": "spreadhom.v1", "command": "invariant",
         "kind": argv[0], "module": path, "prime": 32003},
        record,
    ]


def test_cli_jsonl_resolve_payload(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariant", "resolve", str(DATA / "m16.yaml"),
        "--family", str(DATA / "atilde5_family.yaml"),
        "--max-depth", "6", "--jsonl",
    )
    assert code == 2
    lines = [json.loads(line) for line in out.strip().splitlines()]
    body = lines[1]
    assert body["status"] == "truncated"
    assert len(body["terms"]) == 6
    assert body["periodicity"] is not None


def _run_python(*args, timeout=None):
    """`python *args` in a child that imports the same spreadhom, installed or not."""
    home = str(Path(spreadhom.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def _run_entry_point(*args, timeout=None):
    """`python -m spreadhom *args` in a child."""
    return _run_python("-m", "spreadhom", *args, timeout=timeout)


def test_cli_entry_point_runs():
    proc = _run_entry_point("invariant", "dimvec", str(DATA / "diagram_x.yaml"))
    assert proc.returncode == 0
    assert "dimension vector" in proc.stdout


# the CLI with an import hook that refuses numpy and its submodules
CLI_WITHOUT_NUMPY = """\
import sys


class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is refused")


sys.meta_path.insert(0, RefuseNumpy())
from spreadhom.cli import main

sys.exit(main(sys.argv[1:]))
"""


def test_importing_the_cli_leaves_numpy_unloaded():
    proc = _run_python("-c", "import sys, spreadhom, spreadhom.cli; "
                             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# a CLI run that then prints its exit code and which PyYAML parser modules it loaded
CLI_THEN_YAML_MODULES = """\
import sys

from spreadhom.cli import main

code = main(sys.argv[1:])
print(code, sorted(m for m in ("yaml.constructor", "yaml.reader") if m in sys.modules))
"""


def test_canonical_files_never_run_pyyaml(tmp_path, field):
    # the files dump_poset and dump_module write are read by json alone; a
    # family file is outside the plain subset and still loads through yaml
    batch = tmp_path / "batch"
    batch.mkdir()
    (tmp_path / "grid2x3.yaml").write_text(dump_poset(load_poset(str(DATA / "grid2x3.yaml"))))
    for name in ("diagram_l.yaml", "diagram_m.yaml", "diagram_n.yaml", "diagram_x.yaml"):
        (batch / name).write_text(dump_module(load_module(str(DATA / name), field)[0], "../grid2x3.yaml"))
    runs = [
        (["validate", str(tmp_path / "grid2x3.yaml"), *sorted(map(str, batch.iterdir()))], "[]"),
        (["compare", "class", "--batch", str(batch), "--family", "single_source"], "[]"),
        (["invariant", "diagram", str(DATA / "m16.yaml"), "--collection", str(DATA / "atilde5_family.yaml")],
         "['yaml.constructor', 'yaml.reader']"),
    ]
    for argv, loaded in runs:
        proc = _run_python("-c", CLI_THEN_YAML_MODULES, *argv)
        assert proc.stdout.splitlines()[-1] == f"0 {loaded}", (argv, proc.stderr)


def _modules_by_poset():
    """{poset file name: the module files in data/ over it}."""
    groups = collections.defaultdict(list)
    for path in sorted(DATA.glob("*.yaml")):
        data = yaml.safe_load(path.read_text())
        if "poset" in data:
            groups[data["poset"]].append(path)
    return groups


def test_the_cli_runs_without_numpy(tmp_path):
    # validate every poset with its modules, and compare --batch the modules
    # of each poset that has several, as a normal run and with numpy refused
    runs = []
    for poset, mods in _modules_by_poset().items():
        runs.append(["validate", str(DATA / poset), *map(str, mods)])
        if len(mods) > 1:
            batch = tmp_path / Path(poset).stem
            batch.mkdir()
            for m in mods:
                (batch / m.name).write_text(m.read_text().replace(f'poset: "{poset}"', f'poset: "../{poset}"'))
            shutil.copy(DATA / poset, tmp_path / poset)
            runs.append(["compare", "class", "--batch", str(batch), "--family", "single_source"])
    assert sum(argv[0] == "compare" for argv in runs) >= 2
    for argv in runs:
        want = _run_entry_point(*argv)
        got = _run_python("-c", CLI_WITHOUT_NUMPY, *argv)
        assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, ""), argv
        assert want.returncode == 0 and want.stdout, argv


def test_cli_custom_prime(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariant", "rank", str(DATA / "equal_rank_m.yaml"), "--prime", "2",
    )
    assert code == 0
    code, _, err = run_cli(
        capsys,
        "invariant", "rank", str(DATA / "equal_rank_m.yaml"), "--prime", "6",
    )
    assert code == 1
    assert "prime" in err


def test_cli_refuses_a_huge_prime_at_once():
    # a prime past the int64 bound is refused before any trial division, in one line
    proc = _run_entry_point("invariant", "dimvec", str(DATA / "m16.yaml"),
                            "--prime", "2305843009213693951", timeout=20)
    assert proc.stdout == ""
    _one_line_error(proc.returncode, proc.stderr, "2305843009213693951 too large")


ALIAS_CHAIN = ", ".join(f"k{i}: &x{i} [{f'*x{i - 1}' if i else 1}]" for i in range(3000))
DEEP_OR_ALIASED_YAML = [
    ("elements: " + "[" * 30_000 + "]" * 30_000 + "\ncovers: []\n", "line 1: nested deeper than 16 levels"),
    ('elements: ["a"]\ncovers: ' + "[" * 1_000 + "]" * 1_000 + "\n", "line 2: nested deeper than 16 levels"),
    ('elements: ["a"]\ncovers: {' + ALIAS_CHAIN + "}\n", "line 2: YAML aliases are refused"),
]


@pytest.mark.parametrize("body,needle", DEEP_OR_ALIASED_YAML, ids=["30000-levels", "1000-levels", "alias-chain"])
def test_cli_refuses_deep_or_aliased_yaml(tmp_path, body, needle):
    # libyaml composes a document recursively, so 30 000 levels would overflow
    # the C stack, and the loader's messages would repr a 1 000-level value or
    # a 3 000-alias chain into a RecursionError; a child keeps a crash contained
    path = tmp_path / "p.yaml"
    path.write_text(body)
    proc = _run_entry_point("validate", str(path), timeout=60)
    assert proc.stdout == ""
    _one_line_error(proc.returncode, proc.stderr, "p.yaml", needle)


# the CLI with an import hook that refuses libyaml, so that files._Loader
# derives from the pure-Python SafeLoader
CLI_WITHOUT_LIBYAML = """\
import sys


class RefuseLibyaml:
    def find_spec(self, name, path=None, target=None):
        if name in ("yaml._yaml", "_yaml"):
            raise ImportError(f"{name} is refused")


sys.meta_path.insert(0, RefuseLibyaml())
import yaml

assert not yaml.__with_libyaml__
from spreadhom.cli import main

sys.exit(main(sys.argv[1:]))
"""


def test_the_cli_reads_files_alike_without_libyaml(tmp_path):
    # the data files validate, and the bounds and the repeated-key refusal
    # print the same lines, with the pure-Python parser as with libyaml
    runs = [["validate", str(DATA / poset), *map(str, mods)] for poset, mods in _modules_by_poset().items()]
    # the data files are in the plain subset, which skips both parsers; behind
    # a comment line, which the plain reader declines, both parsers read them
    commented = tmp_path / "commented"
    commented.mkdir()
    for path in DATA.glob("*.yaml"):
        (commented / path.name).write_text("# outside the plain subset\n" + path.read_text())
    runs += [["validate", str(commented / poset), *(str(commented / m.name) for m in mods)]
             for poset, mods in _modules_by_poset().items()]
    bodies = [body for body, _ in DEEP_OR_ALIASED_YAML]
    bodies.append('elements: ["a"]\nelements: ["b"]\ncovers: []\n')
    for k, body in enumerate(bodies):
        path = tmp_path / f"p{k}.yaml"
        path.write_text(body)
        runs.append(["validate", str(path)])
    codes = []
    for argv in runs:
        want = _run_entry_point(*argv, timeout=60)
        got = _run_python("-c", CLI_WITHOUT_LIBYAML, *argv, timeout=60)
        assert (got.returncode, got.stdout, got.stderr) == (want.returncode, want.stdout, want.stderr), argv
        codes.append(got.returncode)
    assert codes == [0] * (len(runs) - len(bodies)) + [1] * len(bodies)
    assert "found duplicate key 'elements'" in got.stderr
    # only the parser's own words inside "not valid YAML (...)" differ
    path = tmp_path / "malformed.yaml"
    path.write_text('elements: ["a"\ncovers: []\n')
    got = _run_python("-c", CLI_WITHOUT_LIBYAML, "validate", str(path), timeout=60)
    assert got.stdout == ""
    _one_line_error(got.returncode, got.stderr, f"error: {path}: not valid YAML (")


def test_the_nesting_bound_counts_mappings_and_lists(capsys, tmp_path, monkeypatch):
    # a module file needs 4 levels: the file, its maps, a matrix and a row
    shutil.copy(DATA / "grid2x2.yaml", tmp_path / "grid2x2.yaml")
    path = tmp_path / "m.yaml"
    shutil.copy(DATA / "equal_rank_m.yaml", path)
    argv = ["validate", str(tmp_path / "grid2x2.yaml"), str(path)]
    monkeypatch.setattr(files, "MAX_NESTING", 4)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(files, "MAX_NESTING", 3)
    code, out, err = run_cli(capsys, *argv)
    _one_line_error(code, err, "m.yaml", "line 4: nested deeper than 3 levels")
    assert out.startswith("ok poset")


def test_cli_names_a_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "p.yaml"
    path.write_bytes(b'elements: ["\xff"]\ncovers: []\n')
    code, out, err = run_cli(capsys, "validate", str(path))
    _one_line_error(code, err, "p.yaml", "not UTF-8 text", "can't decode byte 0xff")
    assert out == ""


def test_data_files_match_generator(tmp_path):
    # the checked-in files are exactly what scripts/make_data.py emits
    names = POSET_FILES + MODULE_FILES + ["atilde5_family.yaml"]
    before = {name: (DATA / name).read_text() for name in names}
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_data.py"
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    for name in names:
        assert (DATA / name).read_text() == before[name], name
