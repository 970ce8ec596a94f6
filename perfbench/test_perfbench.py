"""Tests of the benchmark's own parts: basis changes, inputs, the tracer.

Run from the repository root with ``python3 -m pytest perfbench/test_perfbench.py``.
They are outside the package's ``testpaths``, so the tier-1 suite does not
collect them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import kummer.cli  # noqa: E402
import kummer.strata  # noqa: E402
from kummer.catalog import catalog  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
from layertrace import UNITS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ACTIONS, EXPECTED, MAX_ENTRY, WORKLOADS, basis_change, build_ops,
    conjugated_generators, identity, input_document, mat_mul, action_rng,
    summarize,
)


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("r", [2, 3, 4])
def test_basis_change_is_unimodular(seed, r):
    p, p_inv = basis_change(random.Random(seed), r)
    assert mat_mul(p, p_inv) == identity(r)
    assert mat_mul(p_inv, p) == identity(r)


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_conjugated_generators_are_small_and_seeded(name):
    a = conjugated_generators(name, action_rng(7, name))
    b = conjugated_generators(name, action_rng(7, name))
    assert a == b
    assert max(abs(x) for m in a for row in m for x in row) <= MAX_ENTRY


def test_pinned_generators_match_the_catalog():
    for name in ("z6_sl2", "octahedral_s4_sl3", "s4_standard_d2", "d8_b2"):
        gens = [[list(row) for row in g] for g in catalog(name).generators]
        assert gens == ACTIONS[name][3]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["z6_sl2", "s3_standard_d2"])
def test_seeded_basis_keeps_expected_values(name, seed, tmp_path):
    doc = input_document(name, random.Random(seed))
    assert doc["matrices"] != ACTIONS[name][3]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    op = {"kind": "integral", "name": name}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kummer.cli.main(["--input", str(path), "--format", "json"])
    summary = summarize(op, code, json.loads(out.getvalue()))
    assert summary == dict(EXPECTED[name], exit=0, failed_checks=[])


def test_summary_lists_failing_checks_except_known_false_ones():
    checks = [{"name": "t1_coefficient_zero", "pass": False},
              {"name": "torsion_oracle_n6", "pass": False},
              {"name": "euler_cross_check", "pass": True, "right": 0}]
    payload = {"checks": checks, "quotient": [1], "resolution": [1],
               "strata": []}
    known = summarize({"kind": "integral", "name": "natural_s4_d2"}, 1, payload)
    assert known["failed_checks"] == ["torsion_oracle_n6"]
    other = summarize({"kind": "integral", "name": "z6_sl2"}, 1, payload)
    assert other["failed_checks"] == ["t1_coefficient_zero", "torsion_oracle_n6"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ops_are_reproducible(workload, tmp_path):
    first = build_ops(workload, 5, str(tmp_path), "/checkout")
    assert first == build_ops(workload, 5, str(tmp_path), "/checkout")
    assert first != build_ops(workload, 6, str(tmp_path), "/checkout")


def test_tracer_counts_one_stratification_and_restores():
    stratify = kummer.strata.stratify
    contains = kummer.toruslat.AffineSubtorus.contains
    tracer = Tracer().install()
    try:
        report = kummer.cli.stratify(catalog("z6_sl2"))
    finally:
        tracer.uninstall()
    assert kummer.strata.stratify is stratify
    assert kummer.cli.stratify is stratify
    assert kummer.toruslat.AffineSubtorus.contains is contains
    metrics = tracer.metrics()
    assert set(metrics) == set(UNITS)
    assert metrics["strata.strata"] == len(report.strata)
    assert (metrics["strata.family_members"]
            == metrics["toruslat.generic_isotropy.calls"] > 0)
    assert 0 < metrics["strata.stratify.self_s"] < metrics["strata.stratify.s"]
    # the catalog binds generate_group by name too
    assert metrics["groupcore.generate_group.calls"] == 1
    assert metrics["groupcore.group_order"] == 6


def test_reference_loop_is_fixed_work():
    assert reference.reference_once() == reference.reference_once()
    times = reference.sample(2)
    assert len(times) == 2 and min(times) > 0


def test_scaled_times_fall_back_to_the_median_speed():
    class P:
        def __init__(self, pass_s, speed):
            self.pass_s, self.speed = pass_s, speed

    passes = [P(2.0, 0.5), P(4.0, 1.5), P(3.0, None), P(None, None)]
    assert run.scaled(passes, "pass_s") == [1.0, 6.0, 3.0, None]


def _one_op_jobs(tmp_path, workload, name):
    """A jobs file holding one op of a workload."""
    ops, jobs = run.write_inputs(workload, 3, tmp_path)
    ops = [op for op in ops if op["name"] == name]
    jobs.write_text(json.dumps(ops), encoding="utf-8")
    return ops, jobs


def test_gate_separates_wrong_values_from_failed_exits(tmp_path):
    ops, jobs = _one_op_jobs(tmp_path, "crosscheck", "z2_sl2")
    ok = run.Pass(ops, jobs, [], 60).check()
    assert ok.setup_s > 0 and ok.pass_s > 0 and ok.speed > 0 and not ok.failures

    ops[0]["expect"] = dict(ops[0]["expect"], exit=1)
    exit_only = run.Pass(ops, jobs, [], 60).check()
    assert len(exit_only.failures) == 1 and exit_only.wrong == 0

    ops[0]["expect"] = dict(ops[0]["expect"], exit=0, euler=25)
    wrong = run.Pass(ops, jobs, [], 60).check()
    assert len(wrong.failures) == 1 and wrong.wrong == 1


def test_pass_limit_kills_the_worker_and_fails_its_ops(tmp_path):
    ops, jobs = _one_op_jobs(tmp_path, "kummer6", "s4_standard_d2")
    cut = run.Pass(ops, jobs, [], 1.0).check()
    assert cut.timed_out and cut.returncode != 0
    assert cut.failures == [("s4_standard_d2", "pass exceeded its 1 s limit")]
    assert cut.wrong == 0
