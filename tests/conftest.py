import importlib.util
import sys
from pathlib import Path

import pytest

from kummer.catalog import ACCEPTANCE_ACTIONS, catalog
from kummer.groupcore import generate_group
from kummer.strata import stratify


@pytest.fixture(scope="session")
def actions():
    """The five headline integral actions, built once."""
    return {name: catalog(name, d=d) for name, d in ACCEPTANCE_ACTIONS}


@pytest.fixture(scope="session")
def reports(actions):
    """Stratification reports for the five headline actions, built once."""
    return {name: stratify(action) for name, action in actions.items()}


@pytest.fixture(scope="session")
def perfbench_actions():
    """``perfbench_actions(seed)``: the benchmark's integral actions in the
    lattice bases its workloads use under that seed."""
    # perfbench/workloads.py is loaded by path, leaving no bytecode beside it
    spec = importlib.util.spec_from_file_location(
        "workloads_under_test",
        Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = writes

    def build(seed):
        return [generate_group(workloads.conjugated_generators(
            name, workloads.action_rng(seed, name)), d=d, label=f"{name}/{seed}")
            for name, (_, d, _, _) in workloads.ACTIONS.items()]
    return build
