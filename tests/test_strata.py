from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod
from pathlib import Path

import pytest

from kummer.catalog import (
    catalog, natural_sn, quotient_sn, standard_sn, wreath,
)
from kummer.exactalg import IntPolynomial
from kummer.repring import quotient_poincare
from kummer import groupcore, strata, toruslat
from kummer.exactalg import (
    det_one_plus_t, hermite_normal_form, identity_matrix, mat_mul, mat_sub, mat_vec,
    smith_normal_form,
)
from kummer.groupcore import (
    FiniteGroup, SubgroupClass, _bits, _element_classes, generate_group,
    subgroup_class_poset,
)
from action_reference import integral_catalog_actions, stratum_by
from lattice_reference import all_subgroups, assert_fibers_are_the_spanned_ones, class_of
from kummer.mckay import NonIntegerAge, fiber_poincare_equivariant
from kummer.strata import (
    MalformedLedger, TerminalStratum, _Classes, _fixed_trace, assemble_from_ledger,
    stratify,
)
from kummer.exactalg import ConsistencyError
from kummer.toruslat import (
    AffineSubtorus, EnumerationTooLarge, _row_lattice, fix_locus, generic_isotropy,
    orbifold_euler,
)
from trace_reference import trace_exponents

A = IntPolynomial([1, 4, 6, 4, 1])          # abelian surface
B = IntPolynomial([1, 0, 6, 0, 1])          # surface modulo -1
C = IntPolynomial([1, 0, 7, 4, 8, 4, 7, 0, 1])
F211 = IntPolynomial([1, 0, 1])
F22 = IntPolynomial([1, 0, 2, 0, 1])
F31 = IntPolynomial([1, 0, 1, 0, 1])
F4 = IntPolynomial([1, 0, 1, 0, 2, 0, 1])


def poly(*coeffs):
    return IntPolynomial(coeffs)


class TestEllipticCurveCases:
    def test_z6_resolution(self, reports):
        report = reports["z6_sl2"]
        assert report.quotient == poly(1, 0, 4, 0, 1)
        assert report.resolution == poly(1, 0, 22, 0, 1)

    def test_z6_exceptional_decomposition(self, reports):
        report = reports["z6_sl2"]
        contributions = {
            s.order: (s.orbit_count, s.fiber_plain[2])
            for s in report.strata if s.rank == 0
        }
        assert contributions == {2: (5, 1), 3: (4, 2), 6: (1, 5)}
        total = sum(n * c for n, c in contributions.values())
        assert total == 18
        assert report.resolution == report.quotient + poly(0, 0, total)

    def test_other_elliptic_quotients_are_k3(self):
        for name in ["z2_sl2", "z3_sl2", "z4_sl2"]:
            report = stratify(catalog(name))
            assert report.resolution == poly(1, 0, 22, 0, 1)
            assert report.resolution(-1) == orbifold_euler(catalog(name)) == 24


class TestOctahedral:
    def test_resolution(self, reports):
        assert reports["octahedral_s4_sl3"].resolution == poly(1, 0, 20, 14, 20, 0, 1)

    def test_open_stratum(self, reports):
        report = reports["octahedral_s4_sl3"]
        (s3,) = stratum_by(report, order=1)
        expected = poly(1, 0, 1, 4, 1, 0, 1) - (
            15 * (poly(1, 0, 1) - 4) + 20
        )
        assert s3.x_poly == expected

    def test_curve_strata(self, reports):
        report = reports["octahedral_s4_sl3"]
        s12 = sum((s.x_poly for s in stratum_by(report, order=2, rank=1)),
                  IntPolynomial.zero())
        assert s12 == 10 * (poly(1, 0, 1) * poly(1, 0, 1) - 4 * poly(1, 0, 1))
        (z3,) = stratum_by(report, order=3, rank=1)
        assert z3.x_poly == poly(1, 0, 2, 2, 1) - 4 * poly(1, 0, 1)
        (z4,) = stratum_by(report, order=4, rank=1)
        assert z4.x_poly == 4 * (poly(1, 0, 3, 2, 2) - 4 * poly(1, 0, 2))

    def test_point_strata(self, reports):
        report = reports["octahedral_s4_sl3"]
        (klein,) = stratum_by(report, order=4, rank=0)
        (d8,) = stratum_by(report, order=8, rank=0)
        (full,) = stratum_by(report, order=24, rank=0)
        s0 = klein.x_poly + d8.x_poly + full.x_poly
        assert s0 == 4 * poly(1, 0, 3) + (12 + 4) * poly(1, 0, 4)

    def test_component_orbit_counts(self, reports):
        report = reports["octahedral_s4_sl3"]
        curve_counts = sorted(
            s.orbit_count for s in report.strata if s.rank == 1
        )
        assert curve_counts == [1, 4, 4, 6]
        point_counts = sorted(
            s.orbit_count for s in report.strata if s.rank == 0
        )
        assert point_counts == [4, 4, 12]


class TestGeneralizedKummer:
    def test_resolution(self, reports):
        expected = poly(1, 0, 7, 8, 51, 56, 458, 56, 51, 8, 7, 0, 1)
        assert reports["s4_standard_d2"].resolution == expected

    def test_quotient_strata(self, reports):
        report = reports["s4_standard_d2"]
        (pairs,) = stratum_by(report, order=2)          # one two-cycle
        (double,) = stratum_by(report, order=4)         # two two-cycles
        (triple,) = stratum_by(report, order=6)         # one three-cycle
        (full,) = stratum_by(report, order=24)
        assert full.y_poly == poly(256)
        assert triple.y_poly == A - 256
        assert double.y_poly == 16 * B - 256
        assert pairs.y_poly == A * (B - 16) - (A - 256)

    def test_resolution_strata(self, reports):
        report = reports["s4_standard_d2"]
        (pairs,) = stratum_by(report, order=2)
        (double,) = stratum_by(report, order=4)
        (triple,) = stratum_by(report, order=6)
        (full,) = stratum_by(report, order=24)
        assert full.x_poly == 256 * F4
        assert triple.x_poly == (A - 256) * F31
        assert double.x_poly == 16 * C - 256 * F31
        assert pairs.x_poly == (A * (B - 16) - (A - 256)) * F211


class TestDihedralFourfolds:
    def test_d6_integral_model(self, reports):
        expected = poly(1, 0, 7, 8, 108, 8, 7, 0, 1)
        assert reports["s3_standard_d2"].resolution == expected

    def test_d8_integral_model(self, reports):
        report = reports["d8_b2"]
        assert report.quotient == poly(1, 0, 6, 0, 22, 0, 6, 0, 1)
        assert report.resolution == poly(1, 0, 23, 0, 276, 0, 23, 0, 1)

    def test_d8_strata_shape(self, reports):
        report = reports["d8_b2"]
        surfaces = stratum_by(report, order=2)
        assert sorted(s.orbit_count for s in surfaces) == [1, 16]
        for s in surfaces:
            assert s.x_poly == s.orbit_count * (B - 16) * poly(1, 0, 1)
        (klein,) = stratum_by(report, order=4)
        assert klein.orbit_count == 120
        assert klein.x_poly == 120 * poly(1, 0, 2, 0, 1)
        (full,) = stratum_by(report, order=8)
        assert full.x_poly == 16 * poly(1, 0, 2, 0, 2)


class TestGlobalInvariants:
    def test_partition_of_quotient(self, actions, reports):
        for name, report in reports.items():
            total = sum((s.y_poly for s in report.strata), IntPolynomial.zero())
            assert total == report.y_total == quotient_poincare(actions[name])
            weighted = sum((s.x_poly for s in report.strata), IntPolynomial.zero())
            assert weighted == report.resolution

    def test_euler_cross_check(self, actions, reports):
        for name, report in reports.items():
            assert report.resolution(-1) == orbifold_euler(actions[name])

    def test_shape_of_assembled_polynomials(self, actions, reports):
        for name, report in reports.items():
            action = actions[name]
            p = report.resolution
            assert p[0] == 1
            assert p[1] == 0
            assert p.degree == 2 * action.r * action.d
            assert p == p.reciprocal(p.degree)

    def test_closure_poset_has_minimum(self, reports):
        report = reports["octahedral_s4_sl3"]
        # every orbit node lies in the closure of the open stratum
        open_index = next(
            i for i, s in enumerate(report.strata) if s.order == 1
        )
        targets = {edge[1] for edge in report.closure_edges
                   if edge[0] == (open_index, 0)}
        nodes = {
            (si, oi)
            for si, s in enumerate(report.strata)
            for oi in range(len(s.orbits))
            if s.order != 1
        }
        assert targets == nodes

    def test_trivial_action_single_stratum(self):
        from kummer.groupcore import generate_group
        from kummer.exactalg import identity_matrix

        triv = generate_group([identity_matrix(2)], d=1)
        report = stratify(triv)
        assert len(report.strata) == 1
        assert report.resolution == report.quotient == poly(1, 2, 1) ** 2


# octahedral_s4_sl3 generators conjugated into two other lattice bases
OCTAHEDRAL_CONJUGATES = (
    [((-1, 0, 0), (0, -1, 2), (0, 0, 1)), ((-1, -2, 2), (1, 1, 0), (0, 0, 1)),
     ((-1, 0, 0), (1, 1, -2), (0, 0, -1)), ((-1, -1, 2), (1, 2, -2), (0, 1, -1))],
    [((-1, 0, 0), (0, 1, -2), (0, 0, -1)), ((0, 0, -1), (1, 1, -1), (1, 0, 0)),
     ((0, 0, 1), (1, -1, 1), (1, 0, 0)), ((0, -1, 1), (1, 0, -1), (1, 0, 0))],
)


# perfbench/workloads.py bases: s4_standard_d2 under seed 7 (points) and
# natural_s4_d2 under seed 63 (members of rank up to 3)
SEEDED_BASES = {
    "s4_standard_d2/7": (
        [((0, 1, -1), (0, 1, 0), (-1, 1, 0)),
         ((1, 0, -1), (4, 1, -3), (3, 1, -3))], 2),
    "natural_s4_d2/63": (
        [((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (1, -1, 0, 1)),
         ((1, 0, 0, 1), (1, 0, 0, 0), (-1, 1, 1, -1), (-2, 0, 1, -2))], 2),
}


@pytest.fixture(scope="module")
def seeded_actions():
    return {name: generate_group(gens, d=d)
            for name, (gens, d) in SEEDED_BASES.items()}


@pytest.fixture(scope="module")
def all_reports(reports, seeded_actions):
    """The headline reports and those of the seeded bases."""
    return {**reports, **{name: stratify(action)
                          for name, action in seeded_actions.items()}}


@lru_cache(maxsize=None)
def arrangement(action):
    """Every component of every fixed locus, by key, with its pointwise
    stabilizer: subgroups come in increasing order, so the last subgroup
    whose fixed locus yields a component is its stabilizer."""
    family = {}
    for sub in all_subgroups(action):
        for comp in fix_locus(action, sub):
            family[comp.key] = (comp, sub)
    return family


def fraction_order(t):
    return (t.normal, t.shifts)


@lru_cache(maxsize=None)
def moves_within(normal, den, shift, w):
    """Whether the matrix w moves the point section . shift / den of one
    copy's {N x = shift / den}, N = normal, back into it."""
    point = mat_vec(toruslat._section(normal, len(w)), shift) if normal else ()
    return all((n - s) % den == 0
               for n, s in zip(mat_vec(normal, mat_vec(w, point)), shift))


def maps_to_itself(t, w):
    """Whether the matrix w maps the component t onto itself, copy by copy.
    It uses neither the Smith frame of the traces nor a transport of keys."""
    return all(moves_within(t.normal, t.den, shift, w) for shift in t.scaled_shifts)


row_lattice = lru_cache(maxsize=None)(_row_lattice)


@lru_cache(maxsize=None)
def subtorus(action, isotropy, member):
    """The component of Fix(H) that an orbit member's torsion coordinates
    name, by the checked constructor: H's tangent lattice through the point
    V (z/d, 0) in each copy, U M V = D the Smith form of H's row lattice M."""
    r, rows = action.r, row_lattice(action, isotropy)
    v, _, divs = strata._frame(rows, r)
    top = max(divs, default=1)
    points = [[Fraction(x, top) for x in mat_vec(
        v, [x * (top // dv) for x, dv in zip(z, divs)] + [0] * (r - len(z)))]
        for z in member]
    return AffineSubtorus.from_lattice_and_translate(
        toruslat._kernel_basis(rows, r), points, r, 2 * action.d)


def node_of_member(report):
    """Orbit node (stratum, orbit) of every orbit member."""
    return {subtorus(report.action, s.isotropy, m).key: (si, oi)
            for si, s in enumerate(report.strata)
            for oi, o in enumerate(s.orbits) for m in o.members}


class TestArrangement:
    def test_closed_and_complete(self, actions, reports):
        # the components whose isotropy lies in a stratum's class number
        # its class size times its components, so the strata account for
        # every component of every fixed locus; that family is closed
        # under intersection
        for name, action in actions.items():
            family = arrangement(action)
            counts = Counter(class_of(action, h) for _, h in family.values())
            assert counts == {class_of(action, s.isotropy): s.class_size * s.component_count
                              for s in reports[name].strata}, name
            if name in ("d8_b2", "s3_standard_d2"):
                positive = [t for t, _ in family.values() if t.rank > 0]
                for i, a in enumerate(positive):
                    for b in positive[i + 1:]:
                        assert {c.key for c in a.intersect(b)} <= family.keys(), name


class TestLatticeConstruction:
    """Orbits, isotropy and closure edges built from the class
    representatives agree with their pointwise definitions."""

    def test_isotropy_is_the_pointwise_stabilizer(self, actions, reports):
        for name, action in actions.items():
            for s in reports[name].strata:
                for orbit in s.orbits:
                    for m in orbit.members:
                        assert generic_isotropy(
                            action, subtorus(action, s.isotropy, m)) == s.isotropy, name

    def test_supersets_match_the_containment_scan(self, actions, reports):
        # b -> a when some member of the whole arrangement in b's G-orbit
        # strictly contains a's representative (the actions the pairwise
        # test below leaves out)
        for name in ("z6_sl2", "s4_standard_d2"):
            action, report = actions[name], reports[name]
            node = node_of_member(report)
            family = [t for t, _ in arrangement(action).values()]

            @lru_cache(maxsize=None)
            def node_of(t):
                return next(node[k] for g in action.elements
                            if (k := t.apply_matrix(g).key) in node)

            expected = [
                (b, (si, oi))
                for si, s in enumerate(report.strata)
                for oi, orbit in enumerate(s.orbits)
                for rep in [subtorus(action, s.isotropy, orbit.representative)]
                for b in sorted({node_of(c) for c in family
                                 if c.rank > s.rank and c.contains(rep)})
            ]
            assert list(report.closure_edges) == expected, name

    def test_one_solve_per_lattice_matches_one_per_subgroup(self, all_reports):
        # a stratum's orbits hold exactly the components of its
        # representative's fixed locus that no larger subgroup fixes
        for name, report in all_reports.items():
            family = arrangement(report.action)
            for s in report.strata:
                got = [subtorus(report.action, s.isotropy, m).key
                       for o in s.orbits for m in o.members]
                assert len(got) == len(set(got)) == s.component_count, name
                assert set(got) == {k for k, (_, h) in family.items()
                                    if h == s.isotropy}, name

    @pytest.mark.parametrize("name, lattices", [("s4_standard_d2", 15), ("d8_b2", 7)])
    def test_one_fixed_locus_per_row_lattice(self, name, lattices, actions,
                                             monkeypatch):
        # distinct row lattices give distinct fixed loci (a lattice is the
        # annihilator of its fixed locus); stratify takes one Smith form per
        # row lattice of a class representative
        action = actions[name]
        loci = {frozenset(c.key for c in fix_locus(action, sub))
                for sub in all_subgroups(action)}
        assert len(loci) == lattices
        frames = []

        def counted(rows):
            frames.append(rows)
            return smith_normal_form(rows)

        monkeypatch.setattr(strata, "smith_normal_form", counted)
        strata._frame.cache_clear()
        stratify(action)
        expected = {_row_lattice(action, c.representative)
                    for c in subgroup_class_poset(action)} - {()}
        assert len(frames) == len(set(frames)) == len(expected) <= lattices
        assert set(frames) == expected

    def test_a_missing_component_is_inconsistent(self):
        # the open stratum's one component dropped from its orbit map:
        # every other stratum's representative lies on it
        report = stratify(catalog("d8_b2"))
        [s.orbits for s in report.strata]
        report._classes.detail[report.strata[0]._index][1].popitem()
        with pytest.raises(ConsistencyError, match="miss a component"):
            report.closure_edges

    @pytest.mark.parametrize("name", ["octahedral_s4_sl3", "d8_b2", "s3_standard_d2"])
    def test_closure_edges_match_the_pairwise_definition(self, name, actions, reports):
        # b -> a when some g . rep_b strictly contains rep_a
        action, report = actions[name], reports[name]
        nodes = [((si, oi), subtorus(action, s.isotropy, orbit.representative))
                 for si, s in enumerate(report.strata)
                 for oi, orbit in enumerate(s.orbits)]
        translates = [
            {rep.apply_matrix(g) for g in action.elements} for _, rep in nodes
        ]
        expected = [
            (b, a)
            for a, rep_a in nodes
            for (b, _), moved in zip(nodes, translates)
            if any(m.rank > rep_a.rank and m.contains(rep_a) for m in moved)
        ]
        assert list(report.closure_edges) == expected

    @pytest.mark.parametrize("action, count", [(standard_sn(5, 2), 3763),
                                               (wreath(3, 2, 2), 6171)],
                             ids=["standard_s5_d2", "wreath_3_2_d2"])
    def test_closure_edge_counts_are_pinned(self, action, count):
        # the counts taken when every member L <= H was carried on its own;
        # H-conjugate members carry Fix(H) alike, so one map each is enough
        assert len(stratify(action).closure_edges) == count


class TestBasisIndependence:
    def test_closure_edge_count(self, reports):
        from kummer.groupcore import generate_group

        counts = {len(reports["octahedral_s4_sl3"].closure_edges)}
        for gens in OCTAHEDRAL_CONJUGATES:
            counts.add(len(stratify(generate_group(gens, d=1)).closure_edges))
        assert counts == {95}

    def test_normalizer_orbit_edges_are_kept(self, reports):
        report = reports["octahedral_s4_sl3"]
        nodes = [((si, oi), [subtorus(report.action, s.isotropy, m) for m in orbit.members])
                 for si, s in enumerate(report.strata)
                 for oi, orbit in enumerate(s.orbits)]
        within_normalizer_orbits = {
            (b, a)
            for a, oa in nodes for b, ob in nodes
            if a != b and any(m.contains(oa[0]) for m in ob)
        }
        assert within_normalizer_orbits <= set(report.closure_edges)

    def test_natural_s4_in_a_conjugated_basis(self):
        # Hermite forms that depended on the spanning rows once gave one
        # member two keys here, and stratify raised
        from kummer.groupcore import generate_group

        gens = [((0, 1, 0, 0), (1, 0, 0, 0), (-2, 2, 1, 0), (0, 0, 0, 1)),
                ((0, 0, 0, 1), (1, 0, 0, 0), (-2, 1, 0, 0), (0, 2, 1, 0))]
        report = stratify(generate_group(gens, d=2))
        # Hilb^4 of an abelian surface, by Goettsche's formula
        assert report.resolution == poly(1, 4, 13, 40, 111, 276, 592, 996, 1198,
                                         996, 592, 276, 111, 40, 13, 4, 1)


def per_member_trace(action, t, deeper, supersets, family, n):
    """The trace of n on the open part of the member t by inclusion-exclusion
    over the members inside it that n maps to themselves."""
    power = 2 * action.d
    total = det_one_plus_t(t.induced_lattice_matrix(n), power)
    coeff = {}
    for i in sorted((i for i in deeper if family[i].apply_matrix(n) == family[i]),
                    key=lambda i: -family[i].rank):
        coeff[i] = 1 - sum(coeff[j] for j in supersets[i] if j in coeff)
        total = total - coeff[i] * det_one_plus_t(
            family[i].induced_lattice_matrix(n), power)
    return total


def direct_g(action, sub, w, memo):
    """g(L, w) by its definition: f(L, w) minus g(L', w) over every strict
    overgroup L' that w normalizes, with no class representatives."""
    if (sub, w) not in memo:
        value = _fixed_trace(action, _row_lattice(action, sub), w)
        for over in all_subgroups(action):
            if over > sub and action.conjugate_subgroup(over, w) == over:
                value = value - direct_g(action, over, w, memo)
        memo[sub, w] = value
    return memo[sub, w]


class TestPerNormalWork:
    """The traces taken per class and per normal agree with the
    per-member work they replace."""

    def test_orbits_are_closed_under_the_normalizer(self, all_reports):
        # each orbit's member keys, from the Smith frame's permutations, are
        # closed under the images apply_matrix builds by every element of N(H)
        ranks = set()
        for name, report in all_reports.items():
            classes = subgroup_class_poset(report.action)
            for s in report.strata:
                ranks.add(s.rank)
                cls = classes[class_of(report.action, s.isotropy)]
                normalizer = report.action._set(cls.norm)
                for o in s.orbits:
                    members = [subtorus(report.action, s.isotropy, m) for m in o.members]
                    assert {m.apply_matrix(n).key for m in members
                            for n in normalizer} == {m.key for m in members}, (name, s.label)
        assert ranks == {0, 1, 2, 3, 4}

    def test_family_order_is_the_fraction_order(self, all_reports):
        for name, report in all_reports.items():
            for s in report.strata:
                locus = fix_locus(report.action, s.isotropy)
                assert list(locus) == sorted(locus, key=fraction_order), name
                reps = [subtorus(report.action, s.isotropy, o.representative)
                        for o in s.orbits]
                assert reps == sorted(reps, key=fraction_order), name
                for o in s.orbits:
                    members = [subtorus(report.action, s.isotropy, m) for m in o.members]
                    assert members == sorted(members, key=fraction_order)
                    assert o.members[0] == o.representative, name

    @pytest.mark.parametrize("name", ["octahedral_s4_sl3", "s4_standard_d2", "d8_b2",
                                      "d4_sl3", "s3_standard_d2"])
    def test_moebius_per_normal_matches_per_member(self, name, actions):
        # g(H, w) for a class representative H is the sum, over the members
        # with isotropy H that w fixes, of their Moebius traces; these know
        # nothing of the traces' sharing per class of the Weyl group
        action = actions[name] if name in actions else catalog(name)
        family, isotropy = zip(*sorted(arrangement(action).values(),
                                       key=lambda pair: -pair[0].rank))
        supersets = [[j for j, c in enumerate(family[:i])
                      if c.rank > t.rank and c.contains(t)] for i, t in enumerate(family)]
        subsets = [[i for i, above in enumerate(supersets) if j in above]
                   for j in range(len(family))]
        classes = _Classes(action, 10**7)
        checked = 0
        for c, cls in enumerate(classes.classes):
            members = [i for i, h in enumerate(isotropy) if h == cls.representative]
            for n in action._set(cls.norm):
                expected = sum(
                    (per_member_trace(action, family[i], subsets[i], supersets, family, n)
                     for i in members
                     if maps_to_itself(family[i], n)),
                    IntPolynomial.zero())
                assert classes.g(c, action._index_of[n]) == expected, (name, c)
                checked += 1
        assert checked > len(action.elements)

    def test_a_matrix_off_the_components_is_inconsistent(self):
        # z/2 goes to 2z/4, but z/4 is no point of order 2, and a free
        # column may not feed a torsion row
        assert strata._component_map(((1,),), (2,), (4,)) == ((2,),)
        with pytest.raises(ConsistencyError, match="does not preserve"):
            strata._component_map(((1,),), (4,), (2,))
        with pytest.raises(ConsistencyError, match="does not preserve"):
            strata._component_map(((1, 1), (0, 1)), (2,), (2,))

    def test_an_unpreserved_lattice_is_inconsistent(self, actions):
        # the public matrix keeps its ValueError; the trace on a fixed locus
        # that the element moves is an internal inconsistency
        action = actions["octahedral_s4_sl3"]
        sub = next(cls.representative for cls in subgroup_class_poset(action)
                   if fix_locus(action, cls.representative)[0].rank == 1)
        t = fix_locus(action, sub)[0]
        g = next(g for g in action.elements if t.apply_matrix(g).normal != t.normal)
        with pytest.raises(ValueError, match="does not preserve"):
            t.induced_lattice_matrix(g)
        with pytest.raises(ConsistencyError, match="does not preserve"):
            _fixed_trace(action, _row_lattice(action, sub), g)

    def test_work_is_counted_per_normal(self, monkeypatch):
        # one stratify(s4_standard_d2) takes one f per (class, class of its
        # Weyl group) reached, and the orbits and closure edges solve no
        # torus system: they are read in the traces' Smith frames
        action = catalog("s4_standard_d2")
        traces, solved = [], []
        solve = toruslat.solve_torus_system

        def counted_trace(action, rows, w):
            traces.append((rows, w))
            return _fixed_trace(action, rows, w)

        def counted_solve(*args, **kw):
            solved.append(args)
            return solve(*args, **kw)

        monkeypatch.setattr(strata, "_fixed_trace", counted_trace)
        monkeypatch.setattr(toruslat, "solve_torus_system", counted_solve)
        report = stratify(action)
        assert len(traces) == 17
        assert len(traces) == len(report.strata[0]._classes.memo)
        assert report.closure_edges and not solved
        fix_locus(action, [action.identity])  # the counter sees a solve
        assert len(solved) == 1

    @pytest.mark.parametrize("action, count", [(standard_sn(5, 2), 29),
                                               (wreath(3, 2, 2), 57)],
                             ids=["standard_s5_d2", "wreath_3_2_d2"])
    def test_traces_are_counted_per_weyl_class(self, action, count, monkeypatch):
        # one f per (class, class of N(R)/R) reached, as in
        # test_work_is_counted_per_normal
        traced, trace = [], strata._fixed_trace
        monkeypatch.setattr(strata, "_fixed_trace",
                            lambda *args: traced.append(args) or trace(*args))
        classes = stratify(action).strata[0]._classes
        assert len(traced) == len(classes.memo) == count


def weyl_orbits(members, weyl_cosets):
    """Orbits of the Weyl group on the members with one exact isotropy, by
    breadth-first search over the cosets' images; each orbit in fraction
    order, the orbits ordered by least member."""
    members = sorted(members, key=fraction_order)
    unassigned = {t.key for t in members}
    orbits = []
    for start in members:
        if start.key not in unassigned:
            continue
        orbit, frontier = {start.key: start}, [start]
        while frontier:
            t = frontier.pop()
            for coset in weyl_cosets:
                image = t.apply_matrix(coset[0])
                if image.key not in orbit:
                    orbit[image.key] = image
                    frontier.append(image)
        unassigned -= orbit.keys()
        orbits.append([t.key for t in sorted(orbit.values(), key=fraction_order)])
    return orbits


class TestStratumLoop:
    """One loop over the isotropy classes: traces per (class, class of the
    Weyl group), and orbits from the representatives' fixed loci."""

    def test_orbits_match_the_weyl_coset_search(self, all_reports):
        s5 = standard_sn(5, 2)
        for name, report in {**all_reports, s5.label: stratify(s5)}.items():
            family = arrangement(report.action)
            classes = subgroup_class_poset(report.action)
            for s in report.strata:
                cls = classes[class_of(report.action, s.isotropy)]
                members = [t for t, h in family.values() if h == s.isotropy]
                got = [[subtorus(report.action, s.isotropy, m).key for m in o.members]
                       for o in s.orbits]
                elements = report.action.elements
                cosets = [tuple(map(elements.__getitem__, c)) for c in cls.cosets]
                assert got == weyl_orbits(members, cosets), (name, s.label)
                for o in s.orbits:
                    rep = subtorus(report.action, s.isotropy, o.representative)
                    stab = [c for c in cls.cosets
                            if rep.apply_matrix(elements[c[0]]) == rep]
                    assert list(o.stabilizer_cosets) == stab, (name, s.label)

    def test_weyl_cosets_are_grouped_once_per_stratum(self, monkeypatch):
        # s4_standard_d2 has 5 strata: each one's cosets in N(R) are grouped
        # once for its fiber, its Weyl classes and its orbits, and no
        # subgroup is read back from a set of elements
        action, calls = catalog("s4_standard_d2"), Counter()
        grouping, mask = SubgroupClass.cosets.func, FiniteGroup._mask
        # the body of the record's cached property groups the cosets
        monkeypatch.setattr(SubgroupClass.cosets, "func",
                            lambda cls: calls.update(["cosets"]) or grouping(cls))
        monkeypatch.setattr(FiniteGroup, "_mask",
                            lambda self, *args: calls.update(["_mask"]) or mask(self, *args))
        report = stratify(action)
        report.closure_edges  # reads every stratum's orbits
        assert len(report.strata) == 5
        assert (calls["cosets"], calls["_mask"]) == (5, 0)

    def test_one_trace_per_fixed_pair(self, monkeypatch):
        # g is memoised per (subgroup class, conjugacy class of its Weyl
        # group): one trace per such pair reached, at the pair's element
        traced = []
        trace = strata._fixed_trace

        def counted(action, rows, w):
            traced.append((rows, w))
            return trace(action, rows, w)

        monkeypatch.setattr(strata, "_fixed_trace", counted)
        for action in (catalog("s4_standard_d2"), catalog("octahedral_s4_sl3")):
            traced.clear()
            classes = stratify(action).strata[0]._classes
            assert len(traced) == len(classes.memo)
            assert len(classes.memo) < sum(len(classes.classes[c].weyl_classes[0])
                                           for c in classes.over)

    @pytest.mark.parametrize("name", ["octahedral_s4_sl3", "s4_standard_d2"])
    def test_class_traces_match_direct_traces(self, name, actions):
        # g(k R k^-1, w) = g(R, k^-1 w k): the memo per class representative
        # and class of its Weyl group gives g by its definition at every w
        action = actions[name]
        classes, memo, checked = _Classes(action, 10**7), {}, 0
        for c, cls in enumerate(classes.classes):
            for w in action._set(cls.norm):
                assert classes.g(c, action._index_of[w]) == direct_g(
                    action, cls.representative, w, memo), (name, c)
                checked += 1
        assert checked > len(action.elements)

    def test_bookkeeping_is_checked(self):
        # every class's occurring overgroups dropped, so every component of
        # Fix(H) looks as if its isotropy were exactly H: the orbits take
        # in components that the traces do not count
        report = stratify(catalog("octahedral_s4_sl3"))
        classes = report.strata[0]._classes
        classes.over = dict.fromkeys(classes.over, [])
        with pytest.raises(ConsistencyError, match="bookkeeping"):
            [s.orbits for s in report.strata]

    def test_ages_are_checked_before_the_lattice(self):
        # the diagonal sign group (Z/2)^6 at d = 1 has fractional ages; the
        # run stops before its subgroup lattice is built
        action = generate_group([tuple(tuple((i == j) - 2 * (i == j == k) for j in range(6))
                                       for i in range(6)) for k in range(6)], d=1)
        with pytest.raises(NonIntegerAge, match=r"^class has fractional age 1/2$"):
            stratify(action)
        assert action.order == 64 and "_lattice" not in action.__dict__

    def test_degree_is_checked_before_any_trace(self, monkeypatch):
        # natural_sn(3, d) has connected fixed loci, so the budget bounds it
        # through the degree 2rd alone: (2rd + 1)^2 coefficient products
        traced, trace = [], strata._fixed_trace
        monkeypatch.setattr(strata, "_fixed_trace",
                            lambda *args: traced.append(args) or trace(*args))
        with pytest.raises(EnumerationTooLarge, match=r"^polynomial degree 2rd = 12 "
                           r"exceeds budget 168: \(2rd \+ 1\)\^2 = 169 "):
            stratify(natural_sn(3, 2), budget=168)
        assert not traced
        assert stratify(natural_sn(3, 2), budget=169).resolution[2] == 13

    def test_overgroup_classes_are_prepared_in_subgroup_order(self):
        # a class's overgroup classes are asked whether they occur, and so
        # checked against the budget, in the (order, sorted elements) order
        # of each one's least member over it; in plain class order these
        # errors would name classes of order 16, 48 and 48
        action = standard_sn(6, 2)
        for budget, order, count in ((10, 8, 16), (100, 720, 1296), (1000, 720, 1296)):
            with pytest.raises(EnumerationTooLarge, match=(
                    f"^component enumeration exceeds budget {budget}: Fix of a "
                    f"subgroup of order {order} has {count} components$")):
                stratify(action, budget=budget)

    @pytest.mark.parametrize("action, label", [
        (generate_group([tuple(tuple(-(i == j) for j in range(4)) for i in range(4))], d=1),
         "o2a"),
        (quotient_sn(3, 2), "o3a"),
        (quotient_sn(4, 2), "o2a"),
    ], ids=["minus_identity_4", "quotient_s3_d2", "quotient_s4_d2"])
    def test_a_stratum_without_a_junior_class_is_terminal(self, action, label):
        # every non-trivial element of the isotropy has age at least 2, so
        # the transverse singularity is terminal (Reid-Tai)
        with pytest.raises(TerminalStratum, match=f"^stratum {label} has no junior class"):
            stratify(action)

    def test_reid_tai_leaves_only_reflection_generated_isotropy_in_b3(self):
        # each nontrivial subgroup class of B_3 = wreath(3, 2) as its own
        # action at d = 2: where no stratum is terminal, every isotropy is
        # generated by its symplectic reflections, rank(1 - h) = 1, as
        # Verbitsky's theorem needs; their orbits and edges are checked too
        b3, ident = wreath(3, 2, 2), identity_matrix(3)
        classes = subgroup_class_poset(b3)[1:]
        reports = []
        for cls in classes:
            action = b3.restrict(cls.representative)
            try:
                reports.append(stratify(action))
            except TerminalStratum:
                continue
            for s in reports[-1].strata:
                reflections = [h for h in s.isotropy
                               if len(hermite_normal_form(mat_sub(ident, h), 3)) == 1]
                assert action.subgroup_closure(reflections) == s.isotropy
                assert len(s.orbits) == s.orbit_count
            reports[-1].closure_edges
        assert (len(classes), len(reports)) == (32, 9)

    def test_orbit_count_is_checked(self):
        # with one Weyl coset of H = {1, -1} in z6_sl2 listed twice, four
        # cosets move H's points in orbits of three with trivial stabilizers
        report = stratify(catalog("z6_sl2"))
        (s,) = stratum_by(report, order=2)
        cls = report._classes.classes[s._index]
        cls.cosets += cls.cosets[1:2]
        with pytest.raises(ConsistencyError, match="orbit of size 3 and stabilizer "
                           "of order 1 in a Weyl group of order 4"):
            s.orbits

    def test_inexact_average_is_checked(self, monkeypatch):
        # one non-identity element's traces raised by 1, so the open
        # stratum's traces no longer average over z6_sl2
        action = catalog("z6_sl2")
        n = next(g for g in action.elements if g != action.identity)
        trace = strata._fixed_trace
        monkeypatch.setattr(strata, "_fixed_trace",
                            lambda action, rows, w: trace(action, rows, w) + (w == n))
        with pytest.raises(ConsistencyError, match="does not average"):
            stratify(action)


def integral_ages(action):
    """Whether every class of the action has an integer age, from traces."""
    return all(sum(trace_exponents(g, action.d)).denominator == 1
               for g in action.class_representatives())


def class_sum(action):
    """The Chen-Ruan class sum: over element classes [g], t^(2 age(g))
    times the average over the centralizer C(g) of the traces on H*(X^g),
    each from the components of X^g that an element maps to themselves;
    h is taken once per class of C(g)."""
    power, total = 2 * action.d, IntPolynomial.zero()
    for cls in action.conjugacy_classes():
        g = cls[0]
        locus = fix_locus(action, [g])
        centralizer = [action._index_of[h] for h in action.elements
                       if mat_mul(g, h) == mat_mul(h, g)]
        trace = IntPolynomial.zero()
        for hcls in _element_classes(action, centralizer, centralizer):
            h = action.elements[hcls[0]]
            fixed = sum(maps_to_itself(t, h) for t in locus)
            trace = trace + len(hcls) * fixed * det_one_plus_t(
                locus[0].induced_lattice_matrix(h), power)
        shift = IntPolynomial([0] * 2 * int(sum(trace_exponents(g, action.d))) + [1])
        total = total + (shift * trace).divide_exact(len(centralizer))
    return total


class TestFixedTraces:
    """f and the resolution against enumerated fixed loci."""

    @pytest.mark.parametrize("source", ["catalog", "perfbench/7", "perfbench/63"])
    def test_trace_matches_the_enumeration(self, source, perfbench_actions):
        # f(L, w) is the number of components of Fix(L) that w maps to
        # themselves times w's trace on one, for every subgroup L and every
        # w in its normalizer
        if source == "catalog":
            sample = integral_catalog_actions()
        else:
            sample = perfbench_actions(int(source.split("/")[1]))
        for action in sample:
            power = 2 * action.d
            for sub in all_subgroups(action):
                locus, rows = fix_locus(action, sub), _row_lattice(action, sub)
                for w in action.normalizer(sub):
                    fixed = sum(maps_to_itself(t, w) for t in locus)
                    assert _fixed_trace(action, rows, w) == fixed * det_one_plus_t(
                        locus[0].induced_lattice_matrix(w), power), action.label

    @pytest.mark.parametrize("action", [
        *(a for a in integral_catalog_actions() if integral_ages(a)),
        natural_sn(4, 2), standard_sn(5, 2), wreath(3, 2, 2),
    ], ids=lambda a: f"{a.label}_d{a.d}")
    def test_resolution_is_the_orbifold_class_sum(self, action):
        assert stratify(action).resolution == class_sum(action)


def generic_trace(action, rows, w):
    """f(L, w) by the general formula, with no case for w = 1: the fixed
    components |coker [B - I | D]|^2d times det(1 + t A_free)^2d."""
    v, v_inv, divs = strata._frame(rows, action.r)
    a, k, power = mat_mul(mat_mul(v_inv, w), v), len(divs), 2 * action.d
    b = strata._component_map(a, divs, divs)
    columns = [[b[i][j] - (i == j) for i in range(k)] for j in range(k)]
    columns += [[dv * (i == j) for i in range(k)] for j, dv in enumerate(divs)]
    fixed = prod(row[i] for i, row in enumerate(hermite_normal_form(columns, k)))
    return fixed ** power * det_one_plus_t(tuple(row[k:] for row in a[k:]), power)


def pair_sum_euler(action):
    """The orbifold Euler number over every commuting pair (g, h), g once per
    class, with no rank bound: |Z^r / L|^2d when L has full rank."""
    ident, total = identity_matrix(action.r), 0
    for cls in action.conjugacy_classes():
        g = cls[0]
        for h in action.elements:
            if mat_mul(g, h) == mat_mul(h, g):
                hnf = hermite_normal_form(mat_sub(ident, g) + mat_sub(ident, h),
                                          action.r)
                if len(hnf) == action.r:
                    total += len(cls) * prod(row[i] for i, row in enumerate(hnf)) ** (
                        2 * action.d)
    assert total % action.order == 0
    return total // action.order


INTEGRAL_AGES = [a for a in integral_catalog_actions() if integral_ages(a)]


class TestShortcuts:
    """Closed forms and prunings against the general computations."""

    @pytest.mark.parametrize("action", integral_catalog_actions(),
                             ids=lambda a: f"{a.label}_d{a.d}")
    def test_identity_trace_is_the_generic_formula(self, action):
        for cls in subgroup_class_poset(action):
            rows = _row_lattice(action, cls.representative)
            assert _fixed_trace(action, rows, action.identity) == generic_trace(
                action, rows, action.identity)

    @pytest.mark.parametrize("action", integral_catalog_actions(),
                             ids=lambda a: f"{a.label}_d{a.d}")
    def test_whole_torus_trace_is_the_framed_computation(self, action):
        # with no rows f(1, w) is det(1 + t w)^2d, read directly; the general
        # formula takes it through identity frames and an empty component map
        for w in action.elements:
            assert _fixed_trace(action, (), w) == generic_trace(action, (), w), w

    @pytest.mark.parametrize("action", [*INTEGRAL_AGES, standard_sn(5, 2), wreath(3, 2, 2)],
                             ids=lambda a: f"{a.label}_d{a.d}")
    def test_fibers_from_the_records_are_the_spanned_ones(self, action):
        assert_fibers_are_the_spanned_ones(stratify(action))

    @pytest.mark.parametrize("action", [*integral_catalog_actions(), standard_sn(5, 2)],
                             ids=lambda a: f"{a.label}_d{a.d}")
    def test_pruned_euler_is_the_pair_sum(self, action):
        assert orbifold_euler(action) == pair_sum_euler(action)

    @pytest.mark.parametrize("action", [*INTEGRAL_AGES, standard_sn(5, 2), wreath(3, 2, 2)],
                             ids=lambda a: f"{a.label}_d{a.d}")
    def test_fiber_characters_per_weyl_class_are_the_per_coset_ones(self, action):
        # a character of N(H)/H on the McKay fiber is a class function: taken
        # at one element per Weyl class, it gives every coset's value at its class
        for s in stratify(action).strata:
            cls = s._classes.classes[s._index]
            weyl, class_of = cls.weyl_classes
            per_class = fiber_poincare_equivariant(action, cls.mask, [w for w, _ in weyl])
            per_coset = fiber_poincare_equivariant(action, cls.mask,
                                                   [coset[0] for coset in cls.cosets])
            assert per_class.plain == per_coset.plain, s.label
            assert list(per_coset.values) == [per_class.values[class_of[i]]
                                              for i in range(len(cls.cosets))], s.label

    def test_euler_skips_pairs_below_full_rank(self, monkeypatch):
        # natural_sn(4, 2): 21 pairs of a class and a class of its
        # centralizer, 13 of them with ranks summing below r = 4, which no
        # single rank reaches, so no pair with g = 1 or h = 1 is left; each
        # of the 8 others takes a Hermite form of 1 - h with the Hermite
        # rows of g's class record, and the ranks are the records', one
        # Hermite form of 1 - g per class
        action, forms, ranks = natural_sn(4, 2), [], []
        rows = groupcore._row_lattice
        monkeypatch.setattr(toruslat, "_row_lattice",
                            lambda *args: forms.append(args) or rows(*args))
        monkeypatch.setattr(groupcore, "_row_lattice",
                            lambda *args: ranks.append(args) or rows(*args))
        assert orbifold_euler(action) == pair_sum_euler(action)
        assert len(forms) == 21 - 13
        assert len(ranks) == len(action.conjugacy_classes()) == 5
        records = {cls.rows for cls in action._classes}
        assert all(len(h) == 1 and g in records and g for _, h, g in forms)
        assert not any(len(args) > 2 for args in ranks)

    @pytest.mark.parametrize("action", integral_catalog_actions(),
                             ids=lambda a: f"{a.label}_d{a.d}")
    def test_full_normalizers_take_the_group_classes(self, action):
        # each subgroup class's Weyl classes partition N(R) into unions of
        # R-cosets closed under conjugation by all of N(R), as many as a
        # brute-force count of the classes of N(R)/R; for R = 1, N(R) = G
        # and they are the group's own classes
        classes, table, inv = _Classes(action, 10**7), action._table, action._inv_of
        for c, cls in enumerate(classes.classes):
            weyl, orbit_of = cls.weyl_classes
            norm, members = _bits(cls.norm), _bits(cls.mask)
            cosets = [list(coset) for coset in cls.cosets]
            assert sorted(orbit_of) == list(range(len(cosets)))
            class_of = {x: orbit_of[cls.coset_of[x]] for x in norm}
            assert cosets[0] == members and sorted(class_of) == norm
            blocks = [sorted(x for i in orbit for x in cosets[i]) for _, orbit in weyl]
            assert sorted(x for block in blocks for x in block) == norm
            for i, ((w, _), block) in enumerate(zip(weyl, blocks)):
                assert class_of[w] == i and {class_of[x] for x in block} == {i}
            assert all(class_of[table[table[n][x]][inv[n]]] == class_of[x]
                       for n in norm for x in norm)

            def coset(x):
                return frozenset(table[x][h] for h in members)

            assert len(weyl) == len({frozenset(coset(table[table[n][x]][inv[n]]) for n in norm)
                                     for x in norm})
            if c == 0:
                assert sorted(map(tuple, blocks)) == sorted(k.members for k in action._classes)
    @pytest.mark.parametrize("action", [*INTEGRAL_AGES, standard_sn(5, 2), wreath(3, 2, 2)],
                             ids=lambda a: f"{a.label}_d{a.d}")
    def test_orbit_members_equal_the_checked_ones(self, action):
        # the members, mapped to subtori, are the components of Fix(H) whose
        # pointwise stabilizer is H, in fix_locus order within each orbit
        # and by least member across orbits
        for s in stratify(action).strata:
            locus = fix_locus(action, s.isotropy)
            place = {t.key: i for i, t in enumerate(locus)}
            orbits = [[place[subtorus(action, s.isotropy, m).key] for m in o.members]
                      for o in s.orbits]
            assert all(o == sorted(o) for o in orbits)
            assert [o[0] for o in orbits] == sorted(o[0] for o in orbits)
            assert sorted(i for o in orbits for i in o) == [
                i for i, t in enumerate(locus) if generic_isotropy(action, t) == s.isotropy]

    def test_a_wrong_smith_inverse_is_inconsistent(self, monkeypatch):
        def doubled(rows):
            snf = smith_normal_form(rows)
            snf.v_inv = tuple(tuple(2 * x for x in row) for row in snf.v_inv)
            return snf

        monkeypatch.setattr(strata, "smith_normal_form", doubled)
        strata._frame.cache_clear()
        with pytest.raises(ConsistencyError, match="is not I"):
            strata._frame(((2, 0), (0, 3)), 2)
        strata._frame.cache_clear()


OPTIMIZED_SCRIPT = """
import sys
from kummer import exactalg, strata
from kummer.catalog import catalog
from kummer.exactalg import ConsistencyError, IntPolynomial
from kummer.groupcore import SubgroupClass
from kummer.toruslat import AffineSubtorus

if not sys.flags.optimize:
    sys.exit("run me under python -O")
raised = []
try:  # an annihilator that is not saturated
    AffineSubtorus(2, 1, ((2, 0),), 1, ((0,),)).scaled_points()
except ConsistencyError:
    raised.append("saturation")
try:  # a point of order 4 carried to torsion of order 2
    strata._component_map(((1,),), (4,), (2,))
except ConsistencyError:
    raised.append("component-map")
octa = catalog("octahedral_s4_sl3")
report = strata.stratify(octa)
classes = report.strata[0]._classes
classes.over = dict.fromkeys(classes.over, [])
try:  # components of a larger isotropy taken into the orbits
    [s.orbits for s in report.strata]
except ConsistencyError:
    raised.append("bookkeeping")
snf = strata.smith_normal_form
def doubled(rows):
    out = snf(rows)
    out.v_inv = tuple(tuple(2 * x for x in row) for row in out.v_inv)
    return out
strata.smith_normal_form = doubled
try:  # a Smith transform kept with a wrong inverse
    strata._frame(((2, 0), (0, 3)), 2)
except ConsistencyError:
    raised.append("smith-inverse")
strata.smith_normal_form = snf
try:  # a trace on a fixed locus that the element moves
    line = strata._row_lattice(octa, [((-1, 0, 0), (0, -1, 0), (0, 0, 1))])
    strata._fixed_trace(octa, line, ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
except ConsistencyError:
    raised.append("lattice")
report = strata.stratify(catalog("z6_sl2"))
(s,) = [s for s in report.strata if s.order == 2]
cls = report._classes.classes[s._index]
cls.cosets += cls.cosets[1:2]
try:  # a Weyl coset listed twice
    s.orbits
except ConsistencyError:
    raised.append("orbit-count")
z6 = catalog("z6_sl2")
n = next(g for g in z6.elements if g != z6.identity)
trace = strata._fixed_trace
strata._fixed_trace = lambda action, rows, w: trace(action, rows, w) + (w == n)
try:  # one element's traces raised by 1
    strata.stratify(z6)
except ConsistencyError:
    raised.append("average")
strata._fixed_trace = trace
strata.quotient_poincare = lambda action: IntPolynomial([1])
try:  # strata that cannot sum to the quotient polynomial
    strata.stratify(catalog("z6_sl2"))
except ConsistencyError:
    raised.append("partition")
z6 = catalog("z6_sl2")
cls = z6._lattice[0]
try:  # a normalizer too small for orbit-stabilizer
    SubgroupClass(z6, cls.members, cls.conjugators, cls.gens, cls.mask, cls.gens)
except ConsistencyError:
    raised.append("orbit-stabilizer")
product = exactalg.mat_mul
exactalg.mat_mul = lambda a, b: tuple(tuple(2 * x for x in row) for row in product(a, b))
try:  # Smith transforms whose product U M V is not D
    exactalg.smith_normal_form(((2, 0), (0, 3)))
except ConsistencyError:
    raised.append("smith-product")
exactalg.mat_mul = product
print(" ".join(raised))
"""


def test_checks_survive_optimized_mode():
    import os
    import subprocess
    import sys

    import kummer

    src = str(Path(kummer.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["saturation", "component-map", "bookkeeping",
                                  "smith-inverse", "lattice", "orbit-count",
                                  "average", "partition", "orbit-stabilizer",
                                  "smith-product"]


class TestLedger:
    def test_empty_ledger(self):
        assert assemble_from_ledger({"entries": []}).value == IntPolynomial.zero()

    def test_d6_symbolic_formula(self):
        ledger = {
            "parameter": "m",
            "substitution": {"m": 1},
            "entries": [
                {"base": list(quotient_poincare(catalog("s3_standard_d2")).coeffs),
                 "subtract": [{"multiplicity": {"param": 1},
                               "poly": list(A.coeffs)}]},
                {"base": {"param": list(A.coeffs)},
                 "fiber": [1, 0, 1],
                 "subtract": [{"multiplicity": 81, "poly": [1]}]},
                {"base": [81], "fiber": [1, 0, 1, 0, 1]},
            ],
        }
        result = assemble_from_ledger(ledger)
        assert result.const == poly(1, 0, 6, 4, 102, 4, 6, 0, 1)
        assert result.linear == poly(0, 0, 1, 4, 6, 4, 1)
        assert result.value == poly(1, 0, 7, 8, 108, 8, 7, 0, 1)

    def test_d8_pieces(self):
        ledger = {
            "entries": [
                {"base": [1, 0, 6, 0, 22, 0, 6, 0, 1],
                 "subtract": [
                     {"multiplicity": 17, "poly": [-15, 0, 6, 0, 1]},
                     {"multiplicity": 136, "poly": [1]},
                 ]},
                {"base": [17, 0, 102, 0, 17],
                 "fiber": [1, 0, 1],
                 "subtract": [{"multiplicity": 272, "poly": [1]}]},
                {"base": [120], "fiber": [1, 0, 2, 0, 1]},
                {"base": [16], "fiber": [1, 0, 2, 0, 2]},
            ],
        }
        result = assemble_from_ledger(ledger)
        assert result.value == poly(1, 0, 23, 0, 276, 0, 23, 0, 1)

    def test_molien_base(self):
        ledger = {
            "entries": [
                {"base": {"molien": {"generators": [[[0, -1], [1, 1]]], "d": 1}}},
            ],
        }
        assert assemble_from_ledger(ledger).value == poly(1, 0, 4, 0, 1)

    def test_malformed(self):
        for doc in [
            {},
            {"entries": [{"fiber": [1]}]},
            {"entries": [{"base": [1], "subtract": [{"multiplicity": 2}]}]},
            {"entries": [{"base": {"param": [1]}}]},   # undeclared parameter
            {"entries": [{"base": {"molien": {"d": 1}}}]},
        ]:
            with pytest.raises(MalformedLedger):
                assemble_from_ledger(doc)
