import pytest

from kummer.catalog import catalog
from kummer.exactalg import IntPolynomial
from kummer.repring import quotient_poincare
from kummer import strata, toruslat
from kummer.exactalg import det_one_plus_t
from kummer.groupcore import generate_group, subgroup_class_poset
from kummer.strata import (
    MalformedLedger,
    _element_permutations,
    _fixed_arrangement,
    _moebius_trace,
    _strict_supersets,
    _trace_memo,
    assemble_from_ledger,
    stratify,
    stratum_closure_quotient_poincare,
)
from kummer.exactalg import ConsistencyError
from kummer.toruslat import fix_locus, generic_isotropy, orbifold_euler

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
        (s3,) = report.stratum_by(order=1)
        expected = poly(1, 0, 1, 4, 1, 0, 1) - (
            15 * (poly(1, 0, 1) - 4) + 20
        )
        assert s3.x_poly == expected

    def test_curve_strata(self, reports):
        report = reports["octahedral_s4_sl3"]
        s12 = sum((s.x_poly for s in report.stratum_by(order=2, rank=1)),
                  IntPolynomial.zero())
        assert s12 == 10 * (poly(1, 0, 1) * poly(1, 0, 1) - 4 * poly(1, 0, 1))
        (z3,) = report.stratum_by(order=3, rank=1)
        assert z3.x_poly == poly(1, 0, 2, 2, 1) - 4 * poly(1, 0, 1)
        (z4,) = report.stratum_by(order=4, rank=1)
        assert z4.x_poly == 4 * (poly(1, 0, 3, 2, 2) - 4 * poly(1, 0, 2))

    def test_point_strata(self, reports):
        report = reports["octahedral_s4_sl3"]
        (klein,) = report.stratum_by(order=4, rank=0)
        (d8,) = report.stratum_by(order=8, rank=0)
        (full,) = report.stratum_by(order=24, rank=0)
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
        (pairs,) = report.stratum_by(order=2)          # one two-cycle
        (double,) = report.stratum_by(order=4)         # two two-cycles
        (triple,) = report.stratum_by(order=6)         # one three-cycle
        (full,) = report.stratum_by(order=24)
        assert full.y_poly == poly(256)
        assert triple.y_poly == A - 256
        assert double.y_poly == 16 * B - 256
        assert pairs.y_poly == A * (B - 16) - (A - 256)

    def test_resolution_strata(self, reports):
        report = reports["s4_standard_d2"]
        (pairs,) = report.stratum_by(order=2)
        (double,) = report.stratum_by(order=4)
        (triple,) = report.stratum_by(order=6)
        (full,) = report.stratum_by(order=24)
        assert full.x_poly == 256 * F4
        assert triple.x_poly == (A - 256) * F31
        assert double.x_poly == 16 * C - 256 * F31
        assert pairs.x_poly == (A * (B - 16) - (A - 256)) * F211

    def test_closure_quotients(self, reports):
        report = reports["s4_standard_d2"]
        (double,) = report.stratum_by(order=4)
        closure = stratum_closure_quotient_poincare(double.orbits[0], d=2)
        assert closure == B
        (pairs,) = report.stratum_by(order=2)
        closure = stratum_closure_quotient_poincare(pairs.orbits[0], d=2)
        assert closure == A * B


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
        surfaces = report.stratum_by(order=2)
        assert sorted(s.orbit_count for s in surfaces) == [1, 16]
        for s in surfaces:
            assert s.x_poly == s.orbit_count * (B - 16) * poly(1, 0, 1)
        (klein,) = report.stratum_by(order=4)
        assert klein.orbit_count == 120
        assert klein.x_poly == 120 * poly(1, 0, 2, 0, 1)
        (full,) = report.stratum_by(order=8)
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
            assert p.is_palindromic()

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


class TestArrangement:
    def test_closed_and_complete(self, actions):
        # independent of the construction from the subgroup lattice: the
        # family holds every element's fixed components and the components
        # of every pairwise intersection of its positive-rank members
        for name, action in actions.items():
            family, _ = _fixed_arrangement(action)
            keys = {t.key for t in family}
            assert len(keys) == len(family), name
            for g in action.elements:
                if g != action.identity:
                    assert {c.key for c in fix_locus(action, [g])} <= keys, name
            positive = [t for t in family if t.rank > 0]
            for i, a in enumerate(positive):
                for b in positive[i + 1:]:
                    assert {c.key for c in a.intersect(b)} <= keys, name


class TestLatticeConstruction:
    """Isotropy, containment and closure edges read off the subgroup
    lattice agree with their pointwise definitions."""

    def test_isotropy_is_the_pointwise_stabilizer(self, actions):
        for name, action in actions.items():
            family, isotropy = _fixed_arrangement(action)
            for t, h in zip(family, isotropy):
                assert h == generic_isotropy(action, t), name

    def test_supersets_match_the_containment_scan(self, actions):
        for name, action in actions.items():
            family, isotropy = _fixed_arrangement(action)
            scan = [
                [j for j, c in enumerate(family) if c.rank > t.rank and c.contains(t)]
                for t in family
            ]
            assert _strict_supersets(family, isotropy) == scan, name

    def test_one_solve_per_lattice_matches_one_per_subgroup(self, actions,
                                                             seeded_actions):
        for name, action in {**actions, **seeded_actions}.items():
            family, isotropy = _fixed_arrangement(action)
            got = {t.key: h for t, h in zip(family, isotropy)}
            assert len(got) == len(family), name
            assert got == per_subgroup_arrangement(action), name

    @pytest.mark.parametrize("name, lattices", [("s4_standard_d2", 15), ("d8_b2", 7)])
    def test_one_fixed_locus_per_row_lattice(self, name, lattices, actions,
                                             monkeypatch):
        # distinct row lattices give distinct fixed loci (a lattice is the
        # annihilator of its fixed locus), so count the loci
        action = actions[name]
        loci = {frozenset(c.key for c in fix_locus(action, sub))
                for sub in action.all_subgroups()}
        solved = []

        def counted(action, sub, budget):
            result = fix_locus(action, sub, budget=budget)
            solved.append(frozenset(c.key for c in result))
            return result

        monkeypatch.setattr(strata, "fix_locus", counted)
        _fixed_arrangement(action)
        assert len(solved) == len(set(solved)) == len(loci) == lattices
        assert set(solved) == loci

    def test_a_missing_component_is_inconsistent(self, actions):
        # member 0 is the whole torus; member 1 is a curve through points
        family, isotropy = _fixed_arrangement(actions["d8_b2"])
        with pytest.raises(ConsistencyError):
            _strict_supersets(family[:1] + family[2:], isotropy[:1] + isotropy[2:])

    @pytest.mark.parametrize("name", ["octahedral_s4_sl3", "d8_b2", "s3_standard_d2"])
    def test_closure_edges_match_the_pairwise_definition(self, name, actions, reports):
        # b -> a when some g . rep_b strictly contains rep_a
        action, report = actions[name], reports[name]
        nodes = [((si, oi), orbit.representative)
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


class TestBasisIndependence:
    def test_closure_edge_count(self, reports):
        from kummer.groupcore import generate_group

        counts = {len(reports["octahedral_s4_sl3"].closure_edges)}
        for gens in OCTAHEDRAL_CONJUGATES:
            counts.add(len(stratify(generate_group(gens, d=1)).closure_edges))
        assert counts == {95}

    def test_normalizer_orbit_edges_are_kept(self, reports):
        report = reports["octahedral_s4_sl3"]
        nodes = [((si, oi), orbit)
                 for si, s in enumerate(report.strata)
                 for oi, orbit in enumerate(s.orbits)]
        within_normalizer_orbits = {
            (b, a)
            for a, oa in nodes for b, ob in nodes
            if a != b and any(m.contains(oa.representative) for m in ob.members)
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


def per_subgroup_arrangement(action):
    """Each component's key mapped to its isotropy, with one fixed-locus
    solve per subgroup: the last subgroup yielding a component."""
    isotropy = {}
    for sub in action.all_subgroups():
        for comp in fix_locus(action, sub):
            isotropy[comp.key] = sub
    return isotropy


def per_member_trace(action, subtorus, deeper, supersets, family, images, n):
    """The Moebius trace with one determinant per fixed deeper member."""
    power = 2 * action.d
    total = det_one_plus_t(subtorus.induced_lattice_matrix(n), power)
    fixed = sorted((i for i in deeper if images[i] == i),
                   key=lambda i: -family[i].rank)
    coeff = {}
    for i in fixed:
        coeff[i] = 1 - sum(coeff[j] for j in supersets[i] if j in coeff)
        eta = family[i].induced_lattice_matrix(n)
        total = total - coeff[i] * det_one_plus_t(eta, power)
    return total


class TestPerNormalWork:
    """The work keyed by Hermite normal agrees with the per-member work it
    replaces."""

    def test_transport_matches_apply_matrix(self, actions, seeded_actions):
        ranks = set()
        for name, action in {**actions, **seeded_actions}.items():
            family, _ = _fixed_arrangement(action)
            ranks.update(t.rank for t in family)
            for t in family:
                for g in action.elements:
                    assert t.image_key(g) == t.apply_matrix(g).key, name
        assert ranks == {0, 1, 2, 3, 4}

    def test_family_order_is_the_fraction_order(self, actions, seeded_actions):
        for name, action in {**actions, **seeded_actions}.items():
            family, _ = _fixed_arrangement(action)
            by_fraction = sorted(family, key=lambda t: (-t.rank, t.normal, t.shifts))
            assert family == by_fraction, name

    @pytest.mark.parametrize("name", ["octahedral_s4_sl3", "s4_standard_d2"])
    def test_moebius_per_normal_matches_per_member(self, name, actions):
        action = actions[name]
        family, isotropy = _fixed_arrangement(action)
        perms = _element_permutations(action, family)
        supersets = _strict_supersets(family, isotropy)
        subsets = [[i for i, above in enumerate(supersets) if j in above]
                   for j in range(len(family))]
        trace = _trace_memo(action)
        whole = family[0]
        assert whole == toruslat.AffineSubtorus.whole_torus(action.r, 2 * action.d)
        assert subsets[0] == list(range(1, len(family)))
        checked = 0
        for n in action.elements:  # the open stratum's Weyl group is G
            assert _moebius_trace(whole, subsets[0], supersets, family, perms[n],
                                  n, trace) == per_member_trace(
                action, whole, subsets[0], supersets, family, perms[n], n)
            checked += 1
        for cls in subgroup_class_poset(action).classes[1:]:
            members = [i for i, h in enumerate(isotropy) if h == cls.representative]
            for coset in cls.weyl_cosets:
                n = coset[0]
                for i in members:
                    if perms[n][i] != i:
                        continue
                    args = (subsets[i], supersets, family, perms[n], n)
                    assert _moebius_trace(family[i], *args, trace) == \
                        per_member_trace(action, family[i], *args)
                    checked += 1
        assert checked > len(action.elements)

    def test_corrupted_transport_is_inconsistent(self, monkeypatch):
        action = catalog("s4_standard_d2")
        family, _ = _fixed_arrangement(action)
        section = toruslat._section

        def corrupted(rows, r):
            return tuple(tuple(2 * x for x in row) for row in section(rows, r))

        monkeypatch.setattr(toruslat, "_section", corrupted)
        toruslat._transport.cache_clear()
        try:
            with pytest.raises(ConsistencyError):
                family[1].image_key(action.generators[0])
        finally:
            toruslat._transport.cache_clear()

    def test_an_unpreserved_lattice_is_inconsistent(self, actions):
        # the public matrix keeps its ValueError; inside stratify the same
        # failure is an internal inconsistency
        action = actions["octahedral_s4_sl3"]
        family, _ = _fixed_arrangement(action)
        t = next(t for t in family if t.rank == 1)
        g = next(g for g in action.elements if t.image_key(g)[0] != t.normal)
        with pytest.raises(ValueError, match="does not preserve"):
            t.induced_lattice_matrix(g)
        with pytest.raises(ConsistencyError, match="does not preserve"):
            _trace_memo(action)(t.normal, g)

    def test_work_is_counted_per_normal(self, monkeypatch):
        # one stratify(s4_standard_d2): 315 members (the whole torus
        # among them), 15 normals, 2 generators
        action = catalog("s4_standard_d2")
        family, _ = _fixed_arrangement(action)
        normals = {t.normal for t in family}
        assert (len(family), len(normals), len(action.generators)) == (315, 15, 2)
        traces = []

        def counted(m, power=1):
            traces.append(m)
            return det_one_plus_t(m, power)

        monkeypatch.setattr(strata, "det_one_plus_t", counted)
        toruslat._transport.cache_clear()
        toruslat._induced_matrix.cache_clear()
        stratify(action)
        assert len(traces) <= 120
        assert toruslat._induced_matrix.cache_info().misses <= 120
        assert toruslat._transport.cache_info().misses <= 2 * 14


def weyl_orbits(members, weyl_cosets, perms):
    """Orbits of the Weyl group on the members with one exact isotropy, by
    breadth-first search over the cosets' permutations; each orbit sorted,
    the orbits ordered by least member."""
    unassigned = set(members)
    orbits = []
    while unassigned:
        start = min(unassigned)
        orbit, frontier = {start}, [start]
        while frontier:
            i = frontier.pop()
            for coset in weyl_cosets:
                j = perms[coset[0]][i]
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        unassigned -= orbit
        orbits.append(sorted(orbit))
    return orbits


class TestStratumLoop:
    """One loop over the isotropy classes: orbits from one G-orbit
    labelling, and one Moebius trace per fixed (Weyl coset, member) pair
    feeding the orbit sums and the bookkeeping check."""

    def test_orbits_match_the_weyl_coset_search(self, actions, seeded_actions):
        for name, action in {**actions, **seeded_actions}.items():
            family, isotropy = _fixed_arrangement(action)
            perms = _element_permutations(action, family)
            poset = subgroup_class_poset(action)
            index_of = {t.key: i for i, t in enumerate(family)}
            report = stratify(action)
            for s in report.strata:
                cls = poset.classes[poset.class_of(s.isotropy)]
                members = [i for i, h in enumerate(isotropy) if h == s.isotropy]
                expected = weyl_orbits(members, cls.weyl_cosets, perms)
                got = [[index_of[m.key] for m in o.members] for o in s.orbits]
                assert got == expected, (name, s.label)

    def test_one_trace_per_fixed_pair(self, monkeypatch):
        # a representative's traces: one per class of its stabilizer cosets
        # under conjugation by their union; any other member's: one per
        # coset fixing it
        from collections import Counter
        from kummer.exactalg import mat_inverse_unimodular, mat_mul

        action = catalog("s4_standard_d2")
        family, isotropy = _fixed_arrangement(action)
        perms = _element_permutations(action, family)
        conj = {(s, x): mat_mul(mat_mul(s, x), mat_inverse_unimodular(s))
                for s in action.elements for x in action.elements}
        expected = Counter()
        for cls in subgroup_class_poset(action).classes:
            members = [i for i, h in enumerate(isotropy) if h == cls.representative]
            for rep, *others in weyl_orbits(members, cls.weyl_cosets, perms):
                stab = [frozenset(c) for c in cls.weyl_cosets
                        if perms[c[0]][rep] == rep]
                union = [s for coset in stab for s in coset]
                classes = {
                    frozenset(frozenset(conj[s, x] for x in coset) for s in union)
                    for coset in stab
                }
                assert set().union(*classes) == set(stab)
                expected[family[rep].key] += len(classes)
                for i in others:
                    expected[family[i].key] += sum(perms[c[0]][i] == i
                                                   for c in cls.weyl_cosets)
        calls = Counter()
        moebius = strata._moebius_trace

        def counted(subtorus, deeper, supersets, family, images, n, trace):
            calls[subtorus.key] += 1
            return moebius(subtorus, deeper, supersets, family, images, n, trace)

        monkeypatch.setattr(strata, "_moebius_trace", counted)
        stratify(action)
        assert calls == expected
        assert sum(calls.values()) == 296
        assert calls[family[0].key] == 5

    @pytest.mark.parametrize("name", ["octahedral_s4_sl3", "s4_standard_d2"])
    def test_class_traces_match_direct_traces(self, name, actions, monkeypatch):
        # every representative's table entry, copied across a class of its
        # stabilizer cosets, is its own trace for that coset
        action = actions[name]
        tables = []
        trace_table = strata._trace_table

        def recorded(action, weyl_cosets, orbits, perms, moebius):
            orbits = list(orbits)
            table = trace_table(action, weyl_cosets, orbits, perms, moebius)
            tables.append((weyl_cosets, [orbit[0] for orbit in orbits], table))
            return table

        monkeypatch.setattr(strata, "_trace_table", recorded)
        stratify(action)
        family, isotropy = _fixed_arrangement(action)
        perms = _element_permutations(action, family)
        supersets = _strict_supersets(family, isotropy)
        subsets = [[i for i, above in enumerate(supersets) if j in above]
                    for j in range(len(family))]
        checked = 0
        for weyl_cosets, reps, table in tables:
            for rep in reps:
                fixed = [c for c, coset in enumerate(weyl_cosets)
                         if perms[coset[0]][rep] == rep]
                assert [c for c, row in enumerate(table) if rep in row] == fixed
                for c in fixed:
                    n = weyl_cosets[c][0]
                    assert table[c][rep] == per_member_trace(
                        action, family[rep], subsets[rep], supersets, family,
                        perms[n], n)
                    checked += 1
        assert checked > len(action.elements)

    def test_bookkeeping_is_checked(self, monkeypatch, reports):
        action = catalog("octahedral_s4_sl3")
        moved = next(o.members[1] for s in reports["octahedral_s4_sl3"].strata
                     for o in s.orbits if o.size > 1)
        moebius = strata._moebius_trace

        def perturbed(subtorus, *args):
            return moebius(subtorus, *args) + int(subtorus == moved)

        monkeypatch.setattr(strata, "_moebius_trace", perturbed)
        with pytest.raises(ConsistencyError, match="bookkeeping"):
            stratify(action)

    def test_orbit_count_is_checked(self, monkeypatch):
        # z6_sl2 is abelian, so every member's isotropy group represents its
        # class; a member that is not the least of its G-orbit is given a
        # label of its own, which splits an orbit of its stratum
        labels = strata._orbit_labels

        def split(action, perms):
            label = labels(action, perms)
            i = next(i for i, least in enumerate(label) if least != i)
            label[i] = i
            return label

        monkeypatch.setattr(strata, "_orbit_labels", split)
        with pytest.raises(ConsistencyError, match="orbit of size"):
            stratify(catalog("z6_sl2"))

    def test_inexact_average_is_checked(self, monkeypatch):
        # a non-generator element of z6_sl2 that moves members is made to fix
        # them all, so its trace on the open stratum comes out wrong
        action = catalog("z6_sl2")
        n = next(g for g in action.elements
                 if g != action.identity and g not in action.generators)
        permutations = strata._element_permutations

        def fixing(action, family):
            return {**permutations(action, family), n: tuple(range(len(family)))}

        monkeypatch.setattr(strata, "_element_permutations", fixing)
        with pytest.raises(ConsistencyError, match="does not average"):
            stratify(action)

OPTIMIZED_SCRIPT = """
import sys
from kummer import strata
from kummer.catalog import catalog
from kummer.exactalg import ConsistencyError, IntPolynomial
from kummer.groupcore import SubgroupClassPoset
from kummer import toruslat
from kummer.toruslat import AffineSubtorus

if not sys.flags.optimize:
    sys.exit("run me under python -O")
raised = []
try:  # an annihilator that is not saturated
    AffineSubtorus(2, 1, ((2, 0),), 1, ((0,),)).scaled_points()
except ConsistencyError:
    raised.append("saturation")
section = toruslat._section
toruslat._section = lambda rows, r: tuple(
    tuple(2 * x for x in row) for row in section(rows, r))
try:  # a change of rows that is not unimodular
    toruslat._transport(((1, 0), (0, 1)), ((0, -1), (1, 1)))
except ConsistencyError:
    raised.append("transport")
toruslat._section = section
octa = catalog("octahedral_s4_sl3")
moved = next(o.members[1] for s in strata.stratify(octa).strata
             for o in s.orbits if o.size > 1)
moebius = strata._moebius_trace
strata._moebius_trace = lambda t, *args: moebius(t, *args) + int(t == moved)
try:  # one non-representative member's traces perturbed
    strata.stratify(octa)
except ConsistencyError:
    raised.append("bookkeeping")
strata._moebius_trace = moebius
whole = strata._fixed_arrangement(octa)[0][0]
lead = octa.conjugacy_classes()[1][0]
strata._moebius_trace = lambda t, *args: moebius(t, *args) + int(
    t == whole and args[-2] == lead)
try:  # the representative's trace for one class of stabilizer cosets perturbed
    strata.stratify(octa)
except ConsistencyError:
    raised.append("representative")
strata._moebius_trace = moebius
labels = strata._orbit_labels

def split(action, perms):
    label = labels(action, perms)
    i = next(i for i, least in enumerate(label) if least != i)
    label[i] = i
    return label

strata._orbit_labels = split
try:  # one member of an orbit labelled apart from the rest
    strata.stratify(catalog("z6_sl2"))
except ConsistencyError:
    raised.append("orbit-count")
strata._orbit_labels = labels
z6 = catalog("z6_sl2")
n = next(g for g in z6.elements if g != z6.identity and g not in z6.generators)
permutations = strata._element_permutations
strata._element_permutations = lambda action, family: {
    **permutations(action, family), n: tuple(range(len(family)))}
try:  # an element made to fix every member
    strata.stratify(z6)
except ConsistencyError:
    raised.append("average")
strata._element_permutations = permutations
strata.quotient_poincare = lambda action: IntPolynomial([1])
try:  # strata that cannot sum to the quotient polynomial
    strata.stratify(catalog("z6_sl2"))
except ConsistencyError:
    raised.append("partition")
z6 = catalog("z6_sl2")
z6.normalizer = lambda sub: frozenset({z6.identity})
try:  # normalizers too small for orbit-stabilizer
    SubgroupClassPoset(z6)
except ConsistencyError:
    raised.append("orbit-stabilizer")
print(" ".join(raised))
"""


def test_checks_survive_optimized_mode():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import kummer

    src = str(Path(kummer.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["saturation", "transport", "bookkeeping",
                                  "representative", "orbit-count", "average",
                                  "partition", "orbit-stabilizer"]


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
        assert result.symbolic.const == poly(1, 0, 6, 4, 102, 4, 6, 0, 1)
        assert result.symbolic.linear == poly(0, 0, 1, 4, 6, 4, 1)
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
