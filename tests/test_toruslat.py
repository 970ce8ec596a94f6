from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest

from kummer.catalog import (
    catalog,
    natural_sn,
    standard_rep_matrix,
    standard_sn,
    wreath,
)
from kummer.exactalg import identity_matrix, mat_det, mat_sub, smith_normal_form
from kummer.groupcore import generate_group
from kummer.mckay import partitions
from kummer.toruslat import (
    AffineSubtorus,
    EnumerationTooLarge,
    NotIsolated,
    component_count,
    fix_locus,
    generic_isotropy,
    isolated_count,
    orbifold_euler,
    torsion_oracle,
)
from action_reference import integral_catalog_actions


@pytest.fixture(scope="module")
def octa():
    return catalog("octahedral_s4_sl3")


@pytest.fixture(scope="module")
def z6():
    return catalog("z6_sl2")


def cycle_type_rep(partition, n):
    """A permutation of 0..n-1 whose cycles have the given lengths."""
    perm = []
    start = 0
    for part in partition:
        block = list(range(start + 1, start + part)) + [start]
        perm.extend(block)
        start += part
    return tuple(perm)


class TestFixLocus:
    def test_octahedral_sign_pair(self, octa):
        g = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
        locus = fix_locus(octa, octa.subgroup_closure([g]))
        assert len(locus) == 16
        assert locus[0].rank == 1
        assert all(c.rank * octa.d == 1 for c in locus)

    def test_whole_symmetric_group(self):
        s4 = catalog("s4_standard_d2")
        locus = fix_locus(s4, s4.elements)
        assert len(locus) == 256
        assert locus[0].rank == 0

    def test_trivial_subgroup(self, octa):
        locus = fix_locus(octa, [octa.identity])
        assert len(locus) == 1
        assert locus[0].rank == 3


class TestCounts:
    def test_z6_isolated_counts(self, z6):
        by_order = {}
        for g in z6.elements:
            if g == z6.identity:
                continue
            by_order.setdefault(z6.element_order(g), set()).add(isolated_count(z6, g))
        assert by_order == {6: {1}, 3: {9}, 2: {16}}

    def test_double_transposition_components(self):
        s4 = catalog("s4_standard_d2")
        sigma = standard_rep_matrix((1, 0, 3, 2), 4)
        assert component_count(s4, sigma) == 16
        locus = fix_locus(s4, s4.subgroup_closure([sigma]))
        assert len(locus) == 16
        assert locus[0].rank == 1  # sixteen abelian-surface copies

    def test_identity_single_component(self, octa):
        assert component_count(octa, octa.identity) == 1
        with pytest.raises(NotIsolated):
            isolated_count(octa, octa.identity)

    def test_component_count_agrees_when_isolated(self, z6):
        for g in z6.elements:
            if g == z6.identity:
                continue
            assert component_count(z6, g) == isolated_count(z6, g)

    def test_component_count_matches_materialized_locus(self, octa):
        for g in octa.class_representatives():
            locus = fix_locus(octa, octa.subgroup_closure([g]))
            assert len(locus) == component_count(octa, g)

    def test_component_counts_match_partition_gcd(self):
        # the number of components of a cycle-type fixed locus is gcd^4
        from math import gcd
        from functools import reduce

        s4 = catalog("s4_standard_d2")
        for partition in partitions(4):
            sigma = standard_rep_matrix(cycle_type_rep(partition, 4), 4)
            expected = reduce(gcd, partition) ** 4
            assert component_count(s4, sigma) == expected

    def test_dimension_matches_partition_length(self):
        s4 = catalog("s4_standard_d2")
        for partition in partitions(4):
            sigma = standard_rep_matrix(cycle_type_rep(partition, 4), 4)
            locus = fix_locus(s4, s4.subgroup_closure([sigma]))
            assert locus[0].rank * 2 == 2 * (len(partition) - 1)


class TestIncidence:
    def test_diagonal_in_plane(self):
        diag = AffineSubtorus.from_lattice_and_translate(
            [(1, 1, 1)], [(0, 0, 0), (0, 0, 0)], 3, 2)
        plane = AffineSubtorus.from_lattice_and_translate(
            [(1, 1, 0), (0, 0, 1)], [(0, 0, 0), (0, 0, 0)], 3, 2)
        assert plane.contains(diag)
        assert not diag.contains(plane)

    def test_parallel_translates_disjoint(self):
        half = Fraction(1, 2)
        a = AffineSubtorus.from_lattice_and_translate(
            [(1, 0)], [(0, 0), (0, 0)], 2, 2)
        b = AffineSubtorus.from_lattice_and_translate(
            [(1, 0)], [(0, half), (0, 0)], 2, 2)
        assert a != b
        assert a.intersect(b) == ()

    def test_d8_transversal_intersection_counts(self):
        d8 = catalog("d8_b2")
        a = ((1, 0), (0, -1))
        b = ((0, 1), (1, 0))
        fix_a = fix_locus(d8, d8.subgroup_closure([a]))
        fix_b = fix_locus(d8, d8.subgroup_closure([b]))
        assert len(fix_a) == 16 and len(fix_b) == 1
        points = set()
        for ca in fix_a:
            for cb in fix_b:
                for p in ca.intersect(cb):
                    assert p.rank == 0
                    points.add(p)
        assert len(points) == 16  # the fully fixed 2-torsion points

    def test_conjugation_equivariance(self, octa):
        g = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
        h = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
        sub = octa.subgroup_closure([g])
        conj = octa.conjugate_subgroup(sub, h)
        direct = {c.key for c in fix_locus(octa, conj)}
        moved = {c.apply_matrix(h).key for c in fix_locus(octa, sub)}
        assert direct == moved


class TestInducedLatticeMatrix:
    def test_matrix_not_preserving_the_subtorus_raises(self):
        line = AffineSubtorus.from_lattice_and_translate(
            [(1, 0, 0)], [(0, 0, 0), (0, 0, 0)], 3, 2)
        with pytest.raises(ValueError, match="does not preserve the lattice"):
            line.induced_lattice_matrix(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
        with pytest.raises(ValueError, match="does not preserve the lattice"):
            line.induced_lattice_matrix(((1, 0, 0), (1, 1, 0), (0, 0, 1)))


class TestGenericIsotropy:
    def test_whole_torus_trivial(self, octa):
        whole = AffineSubtorus.whole_torus(3, 2)
        assert generic_isotropy(octa, whole) == frozenset({octa.identity})

    def test_origin_has_full_isotropy(self, octa):
        origin = AffineSubtorus.from_lattice_and_translate((), [(0, 0, 0), (0, 0, 0)], 3, 2)
        assert len(generic_isotropy(octa, origin)) == 24

    def test_diagonal_is_three_fold(self, octa):
        diag = AffineSubtorus.from_lattice_and_translate(
            [(1, 1, 1)], [(0, 0, 0), (0, 0, 0)], 3, 2)
        iso = generic_isotropy(octa, diag)
        assert len(iso) == 3


class TestTorsionOracle:
    def test_z6_small_levels(self, z6):
        order3 = ((-1, -1), (1, 0))
        assert torsion_oracle(z6, 3)[order3] == 9
        minus = ((-1, 0), (0, -1))
        assert torsion_oracle(z6, 2)[minus] == 16

    def test_identity_counts_everything(self, z6):
        for n in (1, 2, 3):
            assert torsion_oracle(z6, n)[z6.identity] == n ** (2 * z6.d * z6.r)

    def test_budget(self, z6):
        with pytest.raises(EnumerationTooLarge):
            torsion_oracle(z6, 100, budget=100)

    # level 6 is composite and shares 2 and 3 with the group orders; it is
    # taken where the per-element reference stays cheap (r <= 3)
    @pytest.mark.parametrize("action, levels", [
        *((action, (2, 3, 4, 6) if action.r <= 3 else (2, 3, 4))
          for action in integral_catalog_actions()),
        (natural_sn(4, 2), (2,)),
    ])
    def test_matches_per_element_enumeration(self, action, levels):
        # the reference solves (I - g) x = 0 over all of (Z/n)^r for every
        # element, with no conjugacy classes
        ident = identity_matrix(action.r)
        for n in levels:
            expected = {}
            for g in action.elements:
                m = mat_sub(ident, g)
                fixed = sum(
                    all(sum(a * b for a, b in zip(row, x)) % n == 0 for row in m)
                    for x in product(range(n), repeat=action.r)
                )
                expected[g] = fixed ** (2 * action.d)
            assert torsion_oracle(action, n) == expected

    def test_matches_smith_prediction_at_level_40(self):
        # every element's count against (prod gcd(d_i, n) * n^(r - k))^(2d)
        # from the Smith divisors d_1..d_k of I - g, as the CLI check has it;
        # the rank-deficient classes grow their image over many coset layers
        action, n = catalog("s4_standard_d2"), 40
        ident = identity_matrix(action.r)
        oracle = torsion_oracle(action, n)
        for g in action.elements:
            snf = smith_normal_form(mat_sub(ident, g))
            predicted = prod(gcd(dv, n) for dv in snf.divisors) * n ** (action.r - snf.rank)
            assert oracle[g] == predicted ** (2 * action.d)

    def test_matches_isolated_count_at_determinant_level(self):
        for name in ["z2_sl2", "z3_sl2", "z4_sl2", "z6_sl2", "d8_b2"]:
            action = catalog(name)
            ident = identity_matrix(action.r)
            oracles = {}
            for g in action.elements:
                det = mat_det(mat_sub(ident, g))
                if det == 0:
                    continue
                n = abs(det)
                if n not in oracles:
                    oracles[n] = torsion_oracle(action, n)
                assert oracles[n][g] == isolated_count(action, g)


class TestOrbifoldEuler:
    def test_z6_is_k3(self, z6):
        assert orbifold_euler(z6) == 24

    def test_trivial_group_torus(self):
        triv = generate_group([identity_matrix(2)], d=1)
        assert orbifold_euler(triv) == 0

    def test_octahedral(self, octa):
        assert orbifold_euler(octa) == 28

    @pytest.mark.parametrize("n, euler", [(3, 108), (4, 448), (5, 750), (6, 2592)])
    def test_generalized_kummer_is_n_cubed_sigma(self, n, euler):
        # e(K_{n-1}(A)) = n^3 sigma(n)
        assert euler == n ** 3 * sum(k for k in range(1, n + 1) if n % k == 0)
        assert orbifold_euler(standard_sn(n, d=2)) == euler

    @pytest.mark.parametrize("n, euler", [(2, 324), (3, 3200), (4, 25650)])
    def test_hilbert_scheme_of_k3_is_goettsche(self, n, euler):
        # e(Hilb^n(K3)): coefficient of q^n in prod_k (1 - q^k)^-24
        series = [1] + [0] * n
        for k in range(1, n + 1):
            for _ in range(24):
                for i in range(k, n + 1):
                    series[i] += series[i - k]
        assert series[n] == euler
        assert orbifold_euler(wreath(n, 2, d=2)) == euler
