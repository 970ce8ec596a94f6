"""The names the benchmark resolves in ``kummer`` still exist.

``perfbench/layertrace.py`` wraps the functions and methods it lists, and
``perfbench/worker.py`` calls a few library functions by their dotted
names.  A deletion in the package that removes one of them breaks the
benchmark's ``--trace 1`` run or its library ops; these tests catch it
without running the benchmark.
"""

import importlib
import importlib.util
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layertrace_names_resolve(monkeypatch):
    # load the tracer by path, leaving no bytecode beside it
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "layertrace_under_test", PERFBENCH / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for module, name in layertrace.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), name, None)), \
            f"{module}.{name}"
    for module, cls, method in layertrace.METHODS:
        owner = getattr(importlib.import_module(module), cls)
        assert method in owner.__dict__, f"{module}.{cls}.{method}"


def test_worker_library_calls_resolve():
    source = (PERFBENCH / "worker.py").read_text(encoding="utf-8")
    calls = set(re.findall(r"\bkummer\.(\w+)\.(\w+)\(", source))
    assert {name for _, name in calls} >= {
        "generate_group", "torsion_oracle", "orbifold_euler",
        "subgroup_class_poset", "quotient_poincare"}
    for module, name in calls:
        assert callable(getattr(importlib.import_module(f"kummer.{module}"), name,
                                None)), f"kummer.{module}.{name}"
