"""The scripts in scripts/ run to completion as documented.

`worked_examples.py` prints exactly the bytes of golden_worked_examples.txt.
To regenerate that file after an intended output change (and say why in
CHANGES.md):

    python scripts/worked_examples.py > tests/golden_worked_examples.txt
"""
import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).with_name("golden_worked_examples.txt")


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, timeout=120)


def test_worked_examples_print_the_golden_bytes():
    run = _run("worked_examples.py")
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == GOLDEN.read_bytes()


def test_family_survey_prints_one_row_per_poset_and_family():
    spec = importlib.util.spec_from_file_location("family_survey", SCRIPTS / "family_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    posets = ("grid2x2", "fan3")
    run = _run("family_survey.py", "--count", "2", "--posets", *posets)
    assert run.returncode == 0, run.stderr.decode()
    lines = run.stdout.decode().splitlines()
    rows = lines[lines.index("-" * len(lines[1])) + 1:]
    assert [tuple(row.split()[:2]) for row in rows] == [(p, k) for p in posets for k in survey.KINDS]
