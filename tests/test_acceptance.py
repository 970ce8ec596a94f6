"""End-to-end verification suite.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
all); every expected value is exact, with no tolerances anywhere.
"""

import pytest

from kummer.catalog import (
    binary_tetrahedral_eigendata,
    catalog,
    standard_rep_matrix,
    standard_sn,
)
from kummer.cli import JobSpec, run
from kummer.exactalg import (
    IntPolynomial,
    identity_matrix,
    mat_det,
    mat_sub,
)
from kummer.mckay import fiber_poincare, partition_fiber, partitions
from kummer.symcheck import (
    AnalyticEigenData,
    counting_feasibility,
    lefschetz_count,
    tetrahedral_obstruction_constraint,
)
from kummer.toruslat import component_count, isolated_count, orbifold_euler, torsion_oracle
from action_reference import integral_catalog_actions, stratum_by
from trace_reference import trace_exponents


def report_line(number, title, passed):
    status = "PASS" if passed else "FAIL"
    print(f"acceptance {number:>2} [{status}] {title}")
    assert passed, f"criterion {number}: {title}"


def poly(*coeffs):
    return IntPolynomial(coeffs)


def test_criterion_01_k3_from_order_six_action(reports):
    report = reports["z6_sl2"]
    quotient_ok = report.quotient == poly(1, 0, 4, 0, 1)
    resolution_ok = report.resolution == poly(1, 0, 22, 0, 1)
    pieces = {
        s.order: (s.orbit_count, s.fiber_plain[2])
        for s in report.strata if s.rank == 0
    }
    decomposition_ok = (
        pieces == {6: (1, 5), 3: (4, 2), 2: (5, 1)}
        and sum(n * c for n, c in pieces.values()) == 18
    )
    report_line(1, "K3 quotient and resolution with 18 exceptional classes",
                quotient_ok and resolution_ok and decomposition_ok)


def test_criterion_02_octahedral_threefold(reports):
    report = reports["octahedral_s4_sl3"]
    resolution_ok = report.resolution == poly(1, 0, 20, 14, 20, 0, 1)
    (open_stratum,) = stratum_by(report, order=1)
    one = poly(1, 0, 1)
    s3 = poly(1, 0, 1, 4, 1, 0, 1) - (15 * (one - 4) + 20)
    s12 = 10 * (one * one - 4 * one)
    s13 = poly(1, 0, 2, 2, 1) - 4 * one
    s14 = 4 * (poly(1, 0, 3, 2, 2) - 4 * poly(1, 0, 2))
    s0 = 4 * poly(1, 0, 3) + 16 * poly(1, 0, 4)
    curves2 = sum((s.x_poly for s in stratum_by(report, order=2, rank=1)),
                  IntPolynomial.zero())
    (z3,) = stratum_by(report, order=3, rank=1)
    (z4,) = stratum_by(report, order=4, rank=1)
    points = sum((s.x_poly for s in report.strata if s.rank == 0),
                 IntPolynomial.zero())
    strata_ok = (
        open_stratum.x_poly == s3 and curves2 == s12
        and z3.x_poly == s13 and z4.x_poly == s14 and points == s0
    )
    report_line(2, "octahedral threefold resolution and its strata listing",
                resolution_ok and strata_ok)


def test_criterion_03_generalized_kummer_sixfold(reports):
    expected = poly(1, 0, 7, 8, 51, 56, 458, 56, 51, 8, 7, 0, 1)
    report_line(3, "dimension-6 generalized Kummer resolution",
                reports["s4_standard_d2"].resolution == expected)


def test_criterion_04_dihedral_six(reports):
    from kummer.strata import assemble_from_ledger
    from kummer.repring import quotient_poincare

    expected = poly(1, 0, 7, 8, 108, 8, 7, 0, 1)
    integral_ok = reports["s3_standard_d2"].resolution == expected
    surface = poly(1, 4, 6, 4, 1)
    ledger = {
        "parameter": "m",
        "substitution": {"m": 1},
        "entries": [
            {"base": list(quotient_poincare(catalog("s3_standard_d2")).coeffs),
             "subtract": [{"multiplicity": {"param": 1},
                           "poly": list(surface.coeffs)}]},
            {"base": {"param": list(surface.coeffs)}, "fiber": [1, 0, 1],
             "subtract": [{"multiplicity": 81, "poly": [1]}]},
            {"base": [81], "fiber": [1, 0, 1, 0, 1]},
        ],
    }
    result = assemble_from_ledger(ledger)
    symbolic_ok = (
        result.const == poly(1, 0, 6, 4, 102, 4, 6, 0, 1)
        and result.linear == poly(0, 0, 1, 4, 6, 4, 1)
        and result.value == expected
    )
    report_line(4, "dihedral-6 fourfold: integral model and symbolic ledger",
                integral_ok and symbolic_ok)


def test_criterion_05_dihedral_eight(reports):
    report = reports["d8_b2"]
    ok = (
        report.resolution == poly(1, 0, 23, 0, 276, 0, 23, 0, 1)
        and report.quotient == poly(1, 0, 6, 0, 22, 0, 6, 0, 1)
    )
    report_line(5, "dihedral-8 fourfold resolution and quotient", ok)


def test_criterion_06_binary_tetrahedral_obstruction():
    group, exps = binary_tetrahedral_eigendata()
    data = AnalyticEigenData(group, exps)
    counts = {}
    for i, cls in enumerate(group.conjugacy_classes()):
        res = lefschetz_count(data, i)
        if res.isolated:
            counts.setdefault(group.element_order(cls[0]), set()).add(res.count)
    counts_ok = counts[2] == {256} and counts[6] == {16}
    infeasible = not counting_feasibility(tetrahedral_obstruction_constraint())
    report_line(6, "binary tetrahedral fixed-point counts and infeasibility",
                counts_ok and infeasible)


def test_criterion_07_torsion_oracle_matches_determinants():
    ok = True
    for action in integral_catalog_actions():
        ident = identity_matrix(action.r)
        cache = {}
        for g in action.elements:
            det = mat_det(mat_sub(ident, g))
            if det == 0:
                continue
            n = abs(det)
            if n not in cache:
                cache[n] = torsion_oracle(action, n)
            ok = ok and cache[n][g] == isolated_count(action, g) == n ** (2 * action.d)
    report_line(7, "torsion oracle equals determinant counts on the catalog", ok)


def test_criterion_08_strata_partition_the_quotient(actions, reports):
    from kummer.repring import quotient_poincare

    ok = all(
        reports[name].y_total == quotient_poincare(actions[name])
        for name in reports
    )
    report_line(8, "open-stratum polynomials sum to the quotient polynomial", ok)


def test_criterion_09_euler_cross_check(actions, reports):
    expected = {
        "z6_sl2": 24,
        "octahedral_s4_sl3": 28,
        "s4_standard_d2": 448,
        "s3_standard_d2": 108,
        "d8_b2": 324,
    }
    ok = True
    for name, report in reports.items():
        euler = orbifold_euler(actions[name])
        ok = ok and report.resolution(-1) == euler == expected[name]
    # the first value re-derived by hand: the commuting-pair sum over the
    # cyclic order-6 action is (36 + 6 + 30 + 36 + 30 + 6) / 6
    ok = ok and (36 + 6 + 30 + 36 + 30 + 6) // 6 == 24
    report_line(9, "resolution polynomial at -1 equals the orbifold Euler number", ok)


def test_criterion_10_property_suites(actions, reports):
    fibers_ok = all(
        fiber_poincare(standard_sn(n, d=2)).plain == partition_fiber(n)
        for n in range(1, 7)
    )
    shapes_ok = True
    for name, report in reports.items():
        action = actions[name]
        p = report.resolution
        shapes_ok = shapes_ok and (
            p == p.reciprocal(p.degree) and p[1] == 0 and p[0] == 1
            and p.degree == 2 * action.r * action.d
        )
    eigen_ok = True
    for name in ["octahedral_s4_sl3", "d4_sl3"]:
        action = catalog(name)
        for g in action.elements:
            if g == action.identity:
                continue
            eigen_ok = eigen_ok and trace_exponents(g).count(0) == 1
    s4 = actions["s4_standard_d2"]
    from math import gcd
    from functools import reduce

    def rep_of(partition):
        perm = []
        start = 0
        for part in partition:
            perm.extend(list(range(start + 1, start + part)) + [start])
            start += part
        return standard_rep_matrix(tuple(perm), 4)

    gcd_ok = all(
        component_count(s4, rep_of(p)) == reduce(gcd, p) ** 4
        for p in partitions(4)
    )
    report_line(10, "fiber oracle, shape, eigenvalue and component-count properties",
                fibers_ok and shapes_ok and eigen_ok and gcd_ok)
