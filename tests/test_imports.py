"""Every name a library module imports is read, there or by a module that imports it from there.

The package exports exactly what it imports, imports only at module level,
raises every error class it declares, and starts the CLI without `dataclasses`;
the approximations import nothing of the morphism layer.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spreadhom"


def _imports(tree):
    """{bound name: line} for the import statements of a module, `from __future__` aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _reexported(trees):
    """{module stem: names other library modules import from it}."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def unused_imports(src=SRC):
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    reexported = _reexported(trees)
    found = []
    for stem, tree in trees.items():
        if stem == "__init__":  # the package namespace: it imports in order to export
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name, line in _imports(tree).items():
            if name not in read and name not in reexported.get(stem, ()):
                found.append(f"{stem}.py:{line} {name}")
    return found


def export_mismatch(init=SRC / "__init__.py"):
    """Names the package module imports but leaves out of `__all__`, or lists but never imports."""
    tree = ast.parse(init.read_text(), str(init))
    listed = next(
        [elt.value for elt in node.value.elts]
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    return sorted(set(_imports(tree)) ^ set(listed)) + sorted({n for n in listed if listed.count(n) > 1})


def nested_imports(src=SRC):
    """Import statements inside a function body, as "file.py:line"."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{n.lineno}" for n in ast.walk(node)
                          if isinstance(n, (ast.Import, ast.ImportFrom))]
    return sorted(set(found))


def unraised_errors(src=SRC):
    """Exception classes declared in errors.py that no `raise` in the package names."""
    declared = [n.name for n in ast.parse((src / "errors.py").read_text()).body if isinstance(n, ast.ClassDef)]
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    return [name for name in declared if name not in raised]


def test_library_modules_read_every_name_they_import():
    assert unused_imports() == []


def test_the_scan_sees_an_unused_import(tmp_path):
    (tmp_path / "a.py").write_text("import os\nfrom .b import x, y\nprint(x)\n")
    (tmp_path / "b.py").write_text("from json import dumps as x\nfrom json import loads as y\n")
    (tmp_path / "c.py").write_text("from .a import os\nos.getcwd()\n")
    # a.y is never read; b's names are read by a's import; a.os by c's
    assert unused_imports(tmp_path) == ["a.py:2 y"]


def test_package_exports_exactly_what_it_imports():
    assert export_mismatch() == []


def test_the_export_check_sees_a_name_left_behind(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text('from . import errors\nfrom .a import x, y\n__all__ = ["errors", "x", "z", "x"]\n')
    # y is imported but not listed, z listed but not imported, x listed twice
    assert export_mismatch(init) == ["y", "z", "x"]


def test_every_declared_error_is_raised():
    assert unraised_errors() == []


def test_the_raise_check_sees_a_dead_error(tmp_path):
    (tmp_path / "errors.py").write_text("class A(Exception):\n    pass\n\n\nclass B(A):\n    pass\n\n\nclass C(A):\n    pass\n")
    (tmp_path / "a.py").write_text("from .errors import A, B, C\nraise A\n\n\ndef f():\n    raise B('x') from None\n")
    # C is imported but never raised
    assert unraised_errors(tmp_path) == ["C"]


# the morphism layer: the test oracles build modules and morphisms from the
# approximations' coordinates, and no approximation does
MORPHISM_LAYER = {"Morphism", "direct_sum", "zero_module", "kernel_module", "morphism_from_vec"}


def test_approximations_import_nothing_of_the_morphism_layer():
    assert sorted(MORPHISM_LAYER & set(_imports(ast.parse((SRC / "approx.py").read_text())))) == []


def test_library_modules_import_only_at_module_level():
    assert nested_imports() == []


def test_the_nested_import_check_sees_an_import_in_a_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n\n\nclass A:\n    def f(self):\n        def g():\n            from .b import x\n"
        "        import json\n"
    )
    # the module-level import is fine; both in the method are found, the nested one once
    assert nested_imports(tmp_path) == ["a.py:7", "a.py:8"]


def test_the_cli_starts_without_dataclasses():
    # `import dataclasses` costs about 5 ms of every CLI start; the value classes use __slots__ instead
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", "import sys, spreadhom.cli; print('dataclasses' in sys.modules)"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")
