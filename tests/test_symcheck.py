import json
from fractions import Fraction

import pytest

from kummer.catalog import binary_tetrahedral_eigendata, catalog
from kummer.cli import JobSpec, run
from kummer.exactalg import identity_matrix, mat_det, mat_sub
from kummer.groupcore import AbstractGroup, generate_group
from kummer.symcheck import (
    AnalyticEigenData,
    BLSResult,
    CountingConstraint,
    UnboundedSearch,
    bls_classify,
    counting_feasibility,
    lefschetz_count,
    symplectic_reflection_generated,
    tetrahedral_obstruction_constraint,
)
from kummer.toruslat import EnumerationTooLarge, isolated_count
from action_reference import integral_catalog_actions
from trace_reference import trace_exponents


@pytest.fixture(scope="module")
def tetra():
    group, exps = binary_tetrahedral_eigendata()
    return AnalyticEigenData(group, exps)


def class_of_order(data, order):
    group = data.group
    return [
        i for i, cls in enumerate(group.conjugacy_classes())
        if group.element_order(cls[0]) == order
    ]


class TestFromIntegral:
    @pytest.mark.parametrize("source", ["catalog", "perfbench/7", "perfbench/63"])
    def test_rank_exponents_match_the_trace_reference(self, source, perfbench_actions):
        # the exponents read off rank(1 - g^k) equal those counted from the
        # traces of g's powers, d copies of each
        if source == "catalog":
            sample = integral_catalog_actions()
        else:
            sample = perfbench_actions(int(source.split("/")[1]))
        for action in sample:
            data = AnalyticEigenData.from_integral(action)
            assert data.exponents == tuple(
                trace_exponents(g, action.d) for g in action.class_representatives()
            ), action.label


class TestLefschetzCount:
    def test_tetrahedral_counts(self, tetra):
        (i2,) = class_of_order(tetra, 2)
        assert lefschetz_count(tetra, i2).count == 256
        for i in class_of_order(tetra, 6):
            assert lefschetz_count(tetra, i).count == 16
        for i in class_of_order(tetra, 4):
            assert lefschetz_count(tetra, i).count == 16
        for i in class_of_order(tetra, 3):
            res = lefschetz_count(tetra, i)
            assert not res.isolated and res.dimension == 2

    def test_d6_order_three(self):
        data = AnalyticEigenData.from_integral(catalog("s3_standard_d2"))
        (i3,) = class_of_order(data, 3)
        assert lefschetz_count(data, i3).count == 81

    def test_counts_are_squares(self, tetra):
        from math import isqrt

        for i in range(len(tetra.exponents)):
            res = lefschetz_count(tetra, i)
            if res.isolated:
                assert isqrt(res.count) ** 2 == res.count

    def test_mode_consistency_with_integral_counts(self):
        # the companion matrix of x^6 + x^3 + 1 has order 9: its six classes
        # of order 9 count Phi_9(1)^2 = 9 points, an odd composite k
        companion = generate_group([[[0, 0, 0, 0, 0, -1], [1, 0, 0, 0, 0, 0],
                                     [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, -1],
                                     [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]]])
        assert companion.order == 9
        for action in [*map(catalog, ["z6_sl2", "octahedral_s4_sl3", "s3_standard_d2",
                                      "s4_standard_d2", "d8_b2"]), companion]:
            data = AnalyticEigenData.from_integral(action)
            ident = identity_matrix(action.r)
            for rep in action.class_representatives():
                if mat_det(mat_sub(ident, rep)) == 0:
                    continue
                res = lefschetz_count(data, rep)
                assert res.isolated
                assert res.count == isolated_count(action, rep)


class TestReflections:
    def test_standard_s4_doubled(self):
        data = AnalyticEigenData.from_integral(catalog("s4_standard_d2"))
        result = symplectic_reflection_generated(data)
        assert result.generated
        assert len(result.reflections) == 6  # the transpositions

    def test_d8_doubled(self):
        data = AnalyticEigenData.from_integral(catalog("d8_b2"))
        assert symplectic_reflection_generated(data).generated

    def test_minus_one_only_fails(self):
        data = AnalyticEigenData.from_integral(catalog("z2_sl2", d=2))
        result = symplectic_reflection_generated(data)
        assert not result.generated
        assert len(result.subgroup) == 1  # no reflections at all

    def test_tetrahedral_reflections(self, tetra):
        result = symplectic_reflection_generated(tetra)
        assert result.generated
        assert len(result.reflections) == 8  # both order-3 classes


class TestPurityReport:
    def test_tetrahedral(self, tetra):
        payload = run(JobSpec("analytic", catalog="binary_tetrahedral")).payload
        assert payload["purity_all_codim_two"] is False
        (i2,) = class_of_order(tetra, 2)
        assert tetra.codimension(i2) == 4
        assert lefschetz_count(tetra, i2).count == 256
        for i in class_of_order(tetra, 3):
            assert tetra.codimension(i) == 2
            assert lefschetz_count(tetra, i).count is None
        assert all(tetra.codimension(i) == 4 for i in class_of_order(tetra, 6))

    def test_d6(self):
        data = AnalyticEigenData.from_integral(catalog("s3_standard_d2"))
        (i2,), (i3,) = class_of_order(data, 2), class_of_order(data, 3)
        assert data.codimension(i2) == 2
        assert data.codimension(i3) == 4
        assert lefschetz_count(data, i3).count == 81

    def test_trivial_group_empty(self, tmp_path):
        # no class but the identity's: the verdict holds vacuously
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps({"generators": [[0]], "class_data": [
            {"representative": [0], "exponents": [[0, 1], [0, 1]]}]}))
        payload = run(JobSpec("analytic", input=str(path))).payload
        assert [row["codim"] for row in payload["classes"]] == [0]
        assert payload["purity_all_codim_two"] is True


class TestBLSClassification:
    def test_type_a(self):
        data = AnalyticEigenData.from_integral(catalog("s4_standard_d2"))
        assert bls_classify(data) == BLSResult("TypeA", n=3)

    def test_type_bc(self):
        data = AnalyticEigenData.from_integral(catalog("d8_b2"))
        assert bls_classify(data) == BLSResult("TypeBC", n=2, m=2)

    def test_binary_tetrahedral(self, tetra):
        assert bls_classify(tetra) == BLSResult("BinaryTetrahedral")

    def test_no_match(self):
        data = AnalyticEigenData.from_integral(catalog("z2_sl2", d=2))
        assert bls_classify(data).kind == "NoMatch"

    def test_shape_mismatch(self):
        z3 = AbstractGroup([(1, 2, 0)])
        third = Fraction(1, 3)
        data = AnalyticEigenData(z3, [(0, 0), (third, third),
                                      (2 * third, 2 * third)])
        assert bls_classify(data) == BLSResult("NoMatch")

    def test_dimension_zero_refused(self):
        # with no exponents the classification searched an empty range for n
        with pytest.raises(ValueError, match="dimension 0"):
            AnalyticEigenData(AbstractGroup([(1, 0)]), [(), ()])


class TestCountingFeasibility:
    def test_tetrahedral_identity_infeasible(self):
        result = counting_feasibility(tetrahedral_obstruction_constraint())
        assert not result
        assert "3*s = -192" in result.witness

    def test_d8_component_split(self):
        constraint = CountingConstraint(
            {"a": (1, 256), "b": (1, 256)},
            [({"a": 16, "b": 16}, -(256 - 16) - 32)],
            {"a": "power_of_2", "b": "power_of_2"},
        )
        result = counting_feasibility(constraint)
        assert result.feasible
        assert set(map(tuple, (sorted(s.items()) for s in result.solutions))) == {
            (("a", 1), ("b", 16)), (("a", 16), ("b", 1)),
        }

    def test_d6_power_conditions(self):
        constraint = CountingConstraint(
            {"m": (1, 81)}, [], {"m": ["power_of_2", "power_of_3"]},
        )
        result = counting_feasibility(constraint)
        assert result.solutions == ({"m": 1},)

    def test_budget_bounds_the_declared_assignments(self):
        # 256 * 256 declared assignments, of which 9 * 9 pass the conditions
        constraint = CountingConstraint(
            {"a": (1, 256), "b": (1, 256)}, [({"a": 1, "b": 1}, -17)],
            {"a": "power_of_2", "b": "power_of_2"},
        )
        result = counting_feasibility(constraint, budget=256 * 256)
        assert result.solutions == ({"a": 1, "b": 16}, {"a": 16, "b": 1})
        message = "counting search of 65536 assignments exceeds budget 65535"
        with pytest.raises(EnumerationTooLarge, match=message):
            counting_feasibility(constraint, budget=256 * 256 - 1)

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedSearch):
            CountingConstraint({"s": None}, [])

    @pytest.mark.parametrize("unknowns, conditions", [
        ({"s": (0, 5)}, {"s": "power_of_x"}),
        ({"s": (0, 5)}, {"s": ["power_of_2", "power_of_1"]}),
        ({"s": (0, 5)}, {"s": "power_of_0"}),
        ({"s": (0, 5)}, {"s": "square"}),
        ({"s": (5, 0)}, None),
    ], ids=["not_a_number", "power_of_one", "power_of_zero", "unknown_kind",
            "empty_range"])
    def test_bad_constraint_rejected_at_construction(self, unknowns, conditions):
        # before the search: powers of 1 would loop for ever there
        with pytest.raises(ValueError):
            CountingConstraint(unknowns, [], conditions)

    def test_undeclared_unknown_rejected_at_construction(self):
        with pytest.raises(ValueError, match="undeclared unknown 't'"):
            CountingConstraint({"s": (0, 5)}, [({"t": 1}, 0)])

    def test_condition_on_undeclared_unknown_rejected_at_construction(self):
        # it used to be ignored: s = 2 was reported feasible
        with pytest.raises(ValueError, match="condition names undeclared unknown 't'"):
            CountingConstraint({"s": (0, 3)}, [({"s": 1}, -2)], {"t": "power_of_2"})
