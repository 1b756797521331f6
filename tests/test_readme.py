"""Every Python name the README's "What is in the box" table puts in backticks exists.

A name in the row of `spreadhom.x` counts when it is an attribute of that
module (a dotted name is followed attribute by attribute), an attribute of
a class defined there, or a builtin family name.  Backticked text that is
not a name, such as a quoted string or a command line, is not checked.
"""

import importlib
import re
from pathlib import Path

from spreadhom.poset import BUILTIN_FAMILIES

README = Path(__file__).resolve().parent.parent / "README.md"
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
        "| `spreadhom.hom` | `hom_basis`, `naturality_basis`, `HomBasis.dim`, `\"finite\"` |\n"
        "| `spreadhom.approx` | `Family.hom_rows`, `missing_projectives()`, `hooks`, `Family.nope` |\n"
        "| `spreadhom.cli` | `spreadhom validate | invariant` |\n\n## CLI\n\n| `spreadhom.hom` | `gone` |\n"
    )
    # a removed function, a missing method, and nothing past the table
    assert unresolved_box_names(text) == ["spreadhom.hom: naturality_basis", "spreadhom.approx: Family.nope"]
