"""The benchmark's tracer wraps library functions by name; every name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    missing = []
    for layer, names in _load_tracer().TARGETS.items():
        home = importlib.import_module(f"spreadhom.{layer}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(home, cls_name, None)
                ok = isinstance(cls, type) and meth in vars(cls)
            else:
                ok = callable(getattr(home, name, None))
            if not ok:
                missing.append(f"{layer}.{name}")
    assert not missing, f"bench/tracer.py TARGETS names that no longer exist: {missing}"
