from fractions import Fraction

import pytest

from kummer.catalog import catalog, standard_sn
from kummer.exactalg import ConsistencyError, IntPolynomial, identity_matrix, mat_mul
from kummer.groupcore import _weyl_permutations, generate_group
from kummer.mckay import (
    NonIntegerAge,
    fiber_poincare,
    fiber_poincare_equivariant,
    partition_fiber,
    partitions,
    young_fiber,
)
from action_reference import integral_catalog_actions
from lattice_reference import weyl_reps
from trace_reference import trace_exponents


class TestFiberPoincare:
    def test_klein_in_sl3(self):
        assert fiber_poincare(catalog("d4_sl3")).plain == IntPolynomial([1, 0, 3])

    def test_standard_s4_surface(self):
        fib = fiber_poincare(catalog("s4_standard_d2"))
        assert fib.plain == IntPolynomial([1, 0, 1, 0, 2, 0, 1])

    def test_class_check_does_not_read_the_class_records(self, monkeypatch):
        # fiber_poincare walks its own classes: with one class record too
        # many, the count no longer matches, while the whole-group fiber
        # stratify asks for, given generators, reads the records
        group = generate_group(catalog("octahedral_s4_sl3").generators)
        group._class_number  # numbered from the true records, before the extra one
        records = group._classes
        monkeypatch.setattr(group, "_classes", (*records, records[-1]))
        with pytest.raises(ConsistencyError, match="do not match the conjugacy classes"):
            fiber_poincare(group)
        whole = fiber_poincare_equivariant(group, (1 << group.order) - 1, (),
                                           group._lattice[-1].gens)
        assert whole.plain(1) == len(records) + 1

    def test_trivial_group(self):
        triv = generate_group([((1,),)], d=1)
        assert fiber_poincare(triv).plain == IntPolynomial.one()

    def test_cyclic_chains(self):
        for name, order in [("z2_sl2", 2), ("z3_sl2", 3), ("z4_sl2", 4),
                            ("z6_sl2", 6)]:
            fib = fiber_poincare(catalog(name))
            assert fib.plain == IntPolynomial([1, 0, order - 1])

    def test_value_at_one_counts_classes(self):
        for name in ["octahedral_s4_sl3", "d8_b2", "s4_standard_d2"]:
            action = catalog(name)
            assert fiber_poincare(action).plain(1) == len(action.conjugacy_classes())

    def test_non_gorenstein_rejected(self):
        flip = generate_group([((0, 1), (1, 0))], d=1)
        with pytest.raises(NonIntegerAge, match=r"^class has fractional age 1/2$"):
            fiber_poincare(flip)

    def test_gorenstein_subgroup_of_a_non_gorenstein_group(self):
        # only the classes of H are graded: the flip's age 1/2 is outside H
        group = generate_group([((0, 1), (1, 0)), ((-1, 0), (0, -1))], d=1)
        minus = group._mask(group.subgroup_closure([((-1, 0), (0, -1))]))
        fib = fiber_poincare_equivariant(group, minus, weyl_reps(group, minus))
        assert fib.plain == IntPolynomial([1, 0, 1])


class TestIntegerAges:
    def test_rank_ages_match_the_exponents(self, perfbench_actions):
        """age(g) = d * rank(1 - g) / 2, as ``fiber_poincare_equivariant``
        grades by, equals the sum of g's eigenvalue exponents on d copies,
        taken from traces alone."""
        for action in integral_catalog_actions() + tuple(perfbench_actions(27182)):
            for cls in action._classes:
                assert Fraction(action.d * cls.rank, 2) == sum(trace_exponents(
                    action.elements[cls.rep], action.d))


class TestEquivariantFiber:
    def test_z4_weyl_character(self):
        octa = catalog("octahedral_s4_sl3")
        z4 = octa._mask(octa.subgroup_closure([((0, -1, 0), (1, 0, 0), (0, 0, 1))]))
        fib = fiber_poincare_equivariant(octa, z4, weyl_reps(octa, z4))
        assert fib.plain == IntPolynomial([1, 0, 3])
        assert fib.values[1] == IntPolynomial([1, 0, 1])  # 2 + sign at degree 2

    def test_z3_weyl_character(self):
        octa = catalog("octahedral_s4_sl3")
        z3 = octa._mask(octa.subgroup_closure([((0, 0, 1), (1, 0, 0), (0, 1, 0))]))
        fib = fiber_poincare_equivariant(octa, z3, weyl_reps(octa, z3))
        assert fib.plain == IntPolynomial([1, 0, 2])
        assert fib.values[1] == IntPolynomial([1])  # 1 + sign at degree 2

    def test_trivial_weyl_is_plain(self):
        s3 = standard_sn(3, d=2)
        sub = s3._mask(s3.subgroup_closure([s3.generators[0]]))
        fib = fiber_poincare_equivariant(s3, sub, weyl_reps(s3, sub))
        assert len(fib.values) == 1
        assert fib.values[0] == fib.plain

    def test_characters_are_bounded_counts(self):
        octa = catalog("octahedral_s4_sl3")
        z4 = octa._mask(octa.subgroup_closure([((0, -1, 0), (1, 0, 0), (0, 0, 1))]))
        fib = fiber_poincare_equivariant(octa, z4, weyl_reps(octa, z4))
        for character in fib.values:
            for degree, value in enumerate(character.coeffs):
                assert 0 <= value <= fib.plain[degree]


def inverse(g, among):
    return next(h for h in among if mat_mul(g, h) == identity_matrix(len(g)))


def conj(n, g, n_inv):
    return mat_mul(mat_mul(n, g), n_inv)


def reference_weyl_cosets(group, sub):
    """The left cosets gH of H = ``sub`` in N(H) = {g : g H g^-1 = H}, each
    sorted, by least member; from matrix products alone."""
    inv = {g: inverse(g, group.elements) for g in group.elements}
    norm = [g for g in group.elements if {conj(g, h, inv[g]) for h in sub} == sub]
    return sorted({tuple(sorted(mat_mul(g, h) for h in sub)) for g in norm})


def reference_fixed_classes(group, sub, cosets):
    """Per Weyl coset, the H-classes its first element n fixes (n C n^-1 = C),
    as an age-graded count; from matrix products alone."""
    classes = []
    for g in sorted(sub):
        if not any(g in cls for cls in classes):
            classes.append(frozenset(conj(h, g, inverse(h, sub)) for h in sub))
    ages = [int(sum(trace_exponents(min(cls), group.d))) for cls in classes]
    out = []
    for coset in cosets:
        n = coset[0]
        n_inv = inverse(n, group.elements)
        fixed = [frozenset(conj(n, g, n_inv) for g in cls) == cls for cls in classes]
        out.append(graded(a for a, f in zip(ages, fixed) if f))
    return graded(ages), out


def graded(ages):
    ages = list(ages)
    coeffs = [0] * (2 * max(ages, default=0) + 1)
    for a in ages:
        coeffs[2 * a] += 1
    return IntPolynomial(coeffs)


def test_weyl_traces_match_a_matrix_reference(actions, reports):
    # every isotropy class occurring in the five acceptance actions
    for name, action in actions.items():
        for stratum in reports[name].strata:
            sub, mask = stratum.isotropy, action._mask(stratum.isotropy)
            cosets = reference_weyl_cosets(action, sub)
            reps = [action._index_of[coset[0]] for coset in cosets]
            classes, perms = _weyl_permutations(action, mask, reps)
            plain, values = reference_fixed_classes(action, sub, cosets)
            fib = fiber_poincare_equivariant(action, mask, reps)
            assert fib.plain == plain, name
            assert list(fib.values) == values, name
            rep_ages = [int(sum(trace_exponents(action.elements[cls[0]], action.d)))
                        for cls in classes]
            assert [graded(a for j, a in enumerate(rep_ages) if perm[j] == j)
                    for perm in perms] == values, name


class TestPartitionCombinatorics:
    def test_partition_fiber_values(self):
        assert partition_fiber(1) == IntPolynomial.one()
        assert partition_fiber(3) == IntPolynomial([1, 0, 1, 0, 1])
        assert partition_fiber(4) == IntPolynomial([1, 0, 1, 0, 2, 0, 1])

    def test_young_fiber_values(self):
        assert young_fiber((3, 1)) == IntPolynomial([1, 0, 1, 0, 1])
        assert young_fiber((2, 2)) == IntPolynomial([1, 0, 1]) ** 2
        assert young_fiber((1, 1, 1, 1)) == IntPolynomial.one()
        with pytest.raises(ValueError):
            young_fiber((2, 0))

    def test_kappa_sums_to_partition_count(self):
        for n in range(1, 8):
            assert partition_fiber(n)(1) == sum(1 for _ in partitions(n))

    def test_age_oracle_matches_partitions(self):
        # the age grading of the doubled standard action reproduces the
        # co-length count for every symmetric group up to S6
        for n in range(1, 7):
            assert fiber_poincare(standard_sn(n, d=2)).plain == partition_fiber(n)
