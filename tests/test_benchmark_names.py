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


def test_tracer_reads_a_stratification(monkeypatch, capsys):
    # the tracer's counters read report.strata, closure_edges and each
    # stratum's component_count, class_size, order and orbit_count
    import kummer.cli
    import kummer.strata
    from kummer.catalog import catalog

    monkeypatch.setattr("sys.dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "layertrace_under_test", PERFBENCH / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    tracer = layertrace.Tracer().install()
    try:
        report = kummer.strata.stratify(catalog("s4_standard_d2"))
        assert kummer.cli.main(["--catalog", "z6_sl2", "--format", "json"]) == 0
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert not hasattr(kummer.strata.stratify, "__wrapped__")
    reports = (report, kummer.strata.stratify(catalog("z6_sl2")))
    members = [sum(s.component_count * s.class_size for s in r.strata if s.order > 1)
               for r in reports]
    assert members[0] == 314
    assert metrics["strata.family_members"] == sum(members)
    assert metrics["strata.strata"] == sum(len(r.strata) for r in reports)
    assert metrics["strata.orbits"] == sum(s.orbit_count for r in reports
                                           for s in r.strata)
    assert metrics["strata.closure_edges"] == sum(len(r.closure_edges)
                                                  for r in reports) > 0
    assert metrics["strata.stratify.s"] > 0
