"""The README's code and tables still match the library.

Every Python name the "What is in the box" table puts in backticks exists.
A name in the row of `spreadhom.x` counts when it is an attribute of that
module (a dotted name is followed attribute by attribute), an attribute of
a class defined there, or a builtin family name.  Backticked text that is
not a name, such as a quoted string or a command line, is not checked.

The "Library quickstart" block runs, and each line it prints matches the
comment trailing its `print`.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

from spreadhom.poset import BUILTIN_FAMILIES

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
ROW = re.compile(r"^\| `(spreadhom\.\w+)` \| (.*) \|$")
NAME = re.compile(r"[A-Za-z_]\w*(\.\w+)*(\(\))?")


def _resolves(module, name):
    classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
    for root in (module, *classes):
        obj = root
        for part in name.removesuffix("()").split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return name in BUILTIN_FAMILIES


def unresolved_box_names(text):
    """"module: name" for each backticked name in the table that resolves to nothing."""
    box = text.split("## What is in the box", 1)[1].split("\n## ", 1)[0]
    found = []
    for line in box.splitlines():
        row = ROW.match(line)
        if row:
            module = importlib.import_module(row.group(1))
            for name in re.findall(r"`([^`]*)`", row.group(2)):
                if NAME.fullmatch(name) and not _resolves(module, name):
                    found.append(f"{row.group(1)}: {name}")
    return found


def test_every_name_in_the_box_table_exists():
    assert unresolved_box_names(README.read_text()) == []


def test_the_box_check_sees_a_removed_name():
    text = (
        "## What is in the box\n\n| module | contents |\n|---|---|\n"
        "| `spreadhom.hom` | `hom_basis`, `naturality_basis`, `Morphism.vec`, `\"finite\"` |\n"
        "| `spreadhom.approx` | `Family.hom_rows`, `missing_projectives()`, `hooks`, `Family.nope` |\n"
        "| `spreadhom.cli` | `spreadhom validate | invariant` |\n\n## CLI\n\n| `spreadhom.hom` | `gone` |\n"
    )
    # a removed function, a missing method, and nothing past the table
    assert unresolved_box_names(text) == ["spreadhom.hom: naturality_basis", "spreadhom.approx: Family.nope"]


def quickstart(text):
    """The source of the first python block under "## Library quickstart"."""
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def printed_matches(line, comment):
    """Whether a printed line is what the comment on its print says."""
    terms = re.fullmatch(r"(\d+) signed terms", comment)
    if terms:
        return len(re.findall(r"(?:^| )[+-]", line)) == len(line.split()) == int(terms[1])
    steps = re.fullmatch(r"(\d+)-step minimal resolution", comment)
    if steps:
        return len(ast.literal_eval(line)) == int(steps[1])
    return line == comment


def test_the_quickstart_prints_what_its_comments_say():
    source = quickstart(README.read_text())
    comments = [line.split("#", 1)[1].strip() for line in source.splitlines() if line.startswith("print(")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    printed = run.stdout.splitlines()
    assert comments == ["+[00,01] +[00,10]", "7 signed terms", "3-step minimal resolution"]
    assert len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        assert printed_matches(line, comment), (line, comment)


def test_the_quickstart_check_reads_each_kind_of_comment():
    assert printed_matches("+[0,1] -2*[1,1] +[2,2]", "3 signed terms")
    assert not printed_matches("+[0,1] -2*[1,1]", "3 signed terms")
    assert printed_matches("((1, 0), (0, 1))", "2-step minimal resolution")
    assert not printed_matches("((1, 0),)", "2-step minimal resolution")
    assert not printed_matches("+[00,01]", "+[00,01] +[00,10]")
