import pytest

from kummer.catalog import (
    ACCEPTANCE_ACTIONS,
    binary_tetrahedral_group,
    catalog,
    natural_rep_matrix,
    natural_sn,
    quotient_rep_matrix,
    quotient_sn,
    standard_rep_matrix,
    standard_sn,
    wreath,
)
from kummer.exactalg import (
    char_poly,
    identity_matrix,
    kernel_basis,
    mat_mul,
    mat_sub,
    smith_normal_form,
)
from kummer.groupcore import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    NonInvertible,
    NotFiniteWithinCap,
    SpecialityViolation,
    generate_group,
    subgroup_class_poset,
    _bits,
    _mask_key,
    _weyl_permutations,
)
from kummer.toruslat import orbifold_euler
from action_reference import has_nonzero_fixed_vector, integral_catalog_actions
from lattice_reference import all_subgroups, class_of, subconjugacy, weyl_reps
from trace_reference import trace_exponents

import itertools
import math


class TestGenerateGroup:
    def test_cyclic_closures(self):
        assert generate_group([((0, -1), (1, 1))]).order == 6
        assert generate_group([((0, -1), (1, 0))]).order == 4
        assert generate_group([((0, -1), (1, -1))]).order == 3
        assert generate_group([identity_matrix(2)]).order == 1

    def test_octahedral_closure(self):
        assert catalog("octahedral_s4_sl3").order == 24

    def test_non_invertible_rejected(self):
        with pytest.raises(NonInvertible):
            generate_group([((2, 0), (0, 1))])

    def test_infinite_group_hits_cap(self):
        # every power has trace 2, within the bound, so the walk stops at the cap
        with pytest.raises(NotFiniteWithinCap, match="group closure exceeds cap 500"):
            generate_group([((1, 1), (0, 1))], cap=500)

    def test_infinite_group_beyond_the_trace_bound(self):
        # the generator's trace 3 exceeds r = 2: no cap is reached, and the
        # error names the trace and r
        message = r"^group is infinite: an element has trace 3, and \|trace\| > r = 2$"
        with pytest.raises(NotFiniteWithinCap, match=message):
            generate_group([((2, 1), (1, 1))], cap=500)

    def test_speciality(self):
        with pytest.raises(SpecialityViolation):
            generate_group([((0, 1), (1, 0))], special=True)
        assert catalog("z6_sl2").special

    def test_restrict(self):
        octa = catalog("octahedral_s4_sl3")
        sub = octa.subgroup_closure([((0, 0, 1), (1, 0, 0), (0, 1, 0))])
        assert octa.restrict(sub).order == 3

    @pytest.mark.parametrize("action", [catalog("octahedral_s4_sl3"), standard_sn(5, d=2),
                                        catalog("z6_sl2")], ids=lambda a: a.label)
    def test_restrict_to_the_whole_group(self, action):
        # closed from a generating set of the members, not from each of them
        whole = action.restrict(frozenset(action.elements))
        assert whole.elements == action.elements and (whole.r, whole.d) == (action.r, action.d)
        assert len(whole.generators) < action.order
        trivial = action.restrict(frozenset([action.identity]))
        assert trivial.elements == (action.identity,)


class TestConjugacyClasses:
    def test_octahedral_five_classes(self):
        assert len(catalog("octahedral_s4_sl3").conjugacy_classes()) == 5

    def test_abelian_singletons(self):
        z6 = catalog("z6_sl2")
        classes = z6.conjugacy_classes()
        assert len(classes) == 6
        assert all(len(c) == 1 for c in classes)

    def test_d8_five_classes(self):
        assert len(catalog("d8_b2").conjugacy_classes()) == 5

    def test_class_equation(self):
        for name in ["octahedral_s4_sl3", "d8_b2", "s4_standard_d2"]:
            g = catalog(name)
            assert sum(len(c) for c in g.conjugacy_classes()) == g.order
            assert all(g.order % len(c) == 0 for c in g.conjugacy_classes())

    @pytest.mark.parametrize("source", ["catalog", "perfbench/7"])
    def test_records_against_brute_force(self, source, perfbench_actions):
        # each class record's conjugators, rank and C(g)-classes against
        # matrix products: C(g) is the commuting elements, its classes the
        # orbits under conjugation by all of it
        sample = (integral_catalog_actions() if source == "catalog"
                  else perfbench_actions(7))
        for action in sample:
            elements, ident = action.elements, identity_matrix(action.r)
            inverse = {a: b for a in elements for b in elements
                       if mat_mul(a, b) == ident}
            for cls in action._classes:
                g = elements[cls.rep]
                assert [elements[i] for i in cls.members] == sorted(
                    {mat_mul(mat_mul(k, g), inverse[k]) for k in elements})
                for x, k in cls.conjugator_of.items():
                    assert mat_mul(mat_mul(elements[k], g), inverse[elements[k]]) == elements[x]
                assert cls.size == len(cls.members) and cls.order == action.element_order(g)
                assert cls.rank == action.r - len(kernel_basis(mat_sub(ident, g), action.r))
                centralizer = [h for h in elements if mat_mul(g, h) == mat_mul(h, g)]
                brute = {frozenset(mat_mul(mat_mul(k, h), inverse[k]) for k in centralizer)
                         for h in centralizer}
                got = [frozenset(elements[i] for i in hcls) for hcls in cls.centralizer_classes]
                assert set(got) == brute and len(got) == len(brute), action.label
                mask, gens = cls.centralizer
                assert action._closure(gens) == mask == action._mask(centralizer)
                assert [list(hcls) for hcls in cls.centralizer_classes] == sorted(
                    map(sorted, cls.centralizer_classes),
                    key=lambda c: (action._orders[c[0]], c[0]))


class TestSubgroupPoset:
    def test_s3_four_classes(self):
        classes = subgroup_class_poset(standard_sn(3, d=2))
        assert [c.order for c in classes] == [1, 2, 3, 6]
        assert [c.size for c in classes] == [1, 3, 1, 1]

    def test_z6_divisor_classes(self):
        classes = subgroup_class_poset(catalog("z6_sl2"))
        assert [c.order for c in classes] == [1, 2, 3, 6]
        assert all(c.size == 1 for c in classes)

    def test_binary_tetrahedral_lattice(self):
        group = binary_tetrahedral_group()
        classes = subgroup_class_poset(group)
        profile = [(c.order, c.size) for c in classes]
        assert profile == [(1, 1), (2, 1), (3, 4), (4, 3), (6, 4), (8, 1), (24, 1)]
        by_order = {c.order: i for i, c in enumerate(classes)}
        leq = subconjugacy(group)
        # chains: Z3 < Z6 < T and Z4 < Q8; the involution is central, inside
        # every subgroup of order not equal to 3
        assert leq[by_order[3]][by_order[6]]
        assert leq[by_order[6]][by_order[24]]
        assert leq[by_order[4]][by_order[8]]
        assert leq[by_order[2]][by_order[4]]
        assert leq[by_order[2]][by_order[6]]
        assert not leq[by_order[2]][by_order[3]]
        assert not leq[by_order[8]][by_order[6]]

    def test_orbit_stabilizer_and_extremes(self):
        for name in ["octahedral_s4_sl3", "d8_b2"]:
            g = catalog(name)
            classes = subgroup_class_poset(g)
            for c in classes:
                assert c.size * c.norm.bit_count() == g.order
            assert classes[0].order == 1
            assert classes[-1].order == g.order
            leq = subconjugacy(g)
            for i in range(len(classes)):
                assert leq[0][i]
                assert leq[i][-1]


    @pytest.mark.parametrize("make, count", [
        (lambda: catalog("s4_standard_d2"), 30),
        (lambda: natural_sn(4, 2), 30),
        (lambda: catalog("d8_b2"), 10),
    ])
    def test_subgroup_counts(self, make, count):
        group = make()
        subs = all_subgroups(group)
        assert len(subs) == len(set(subs)) == count
        assert all(group.is_subgroup(s) for s in subs)
        assert subs[0] == frozenset({group.identity})
        assert subs[-1] == frozenset(group.elements)

    def test_class_of_is_the_conjugacy_class(self):
        octa = catalog("octahedral_s4_sl3")
        classes = subgroup_class_poset(octa)
        sizes = [0] * len(classes)
        for sub in all_subgroups(octa):
            i = class_of(octa, sub)
            sizes[i] += 1
            rep = classes[i].representative
            assert any(octa.conjugate_subgroup(sub, g) == rep for g in octa.elements)
        assert sizes == [c.size for c in classes]
        with pytest.raises(ValueError):
            class_of(octa, frozenset({octa.identity, octa.generators[1]}))

    def test_set_level_methods_reject_a_non_subgroup(self):
        # {1, g} with g of order 3 is no subgroup of Z/6: its normalizer
        # means nothing
        z6 = catalog("z6_sl2")
        g = next(g for g in z6.elements if z6.element_order(g) == 3)
        for sub in ({z6.identity, g}, {g}, set(), {z6.identity, ((2, 0), (0, 2))}):
            assert not z6.is_subgroup(sub)
            with pytest.raises(ValueError, match="not a subgroup"):
                z6.normalizer(frozenset(sub))
        assert z6.normalizer(z6.subgroup_closure([g])) == frozenset(z6.elements)


def _as_matrix(g):
    """A group element as a matrix; a permutation p becomes the matrix
    sending e_j to e_p(j), so products of permutations are matrix products."""
    if isinstance(g[0], int):
        return tuple(tuple(int(i == x) for x in g) for i in range(len(g)))
    return g


def _plain_closure(gens):
    """The subgroup generated by matrices, closed with plain matrix products."""
    ident = identity_matrix(len(gens[0]))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                p = mat_mul(a, g)
                if p not in seen:
                    seen.add(p)
                    new.append(p)
        frontier = new
    return frozenset(seen)


KERNEL_GROUPS = [
    pytest.param(lambda name=name, d=d: catalog(name, d=d), id=name)
    for name, d in ACCEPTANCE_ACTIONS
] + [pytest.param(binary_tetrahedral_group, id="binary_tetrahedral")]


class TestIndexKernel:
    """The Cayley table and its users against plain matrix arithmetic."""

    @pytest.mark.parametrize("make", KERNEL_GROUPS)
    def test_table_and_inverses_match_matrix_products(self, make):
        group = make()
        assert list(group.elements) == sorted(group.elements)
        mats = [_as_matrix(g) for g in group.elements]
        position = {m: i for i, m in enumerate(mats)}
        ident = identity_matrix(len(mats[0]))
        assert position[ident] == group._e
        for i, a in enumerate(mats):
            assert list(group._table[i]) == [position[mat_mul(a, b)] for b in mats]
            inv = mats[group._inv_of[i]]
            assert mat_mul(a, inv) == ident == mat_mul(inv, a)

    def test_masks_sort_by_order_then_sorted_indices(self):
        # the lowest differing bit orders masks of one order as their
        # sorted index lists would
        masks = list(range(1 << 8))
        expected = sorted(masks, key=lambda m: (m.bit_count(), _bits(m)))
        assert sorted(reversed(masks), key=_mask_key) == expected

    @pytest.mark.parametrize("make", [
        lambda: catalog("s4_standard_d2"),
        lambda: catalog("octahedral_s4_sl3"),
        lambda: catalog("d8_b2"),
        lambda: natural_sn(4, 2),
    ], ids=["s4_standard_d2", "octahedral_s4_sl3", "d8_b2", "natural_sn4"])
    def test_subgroups_are_the_closures_of_pairs(self, make):
        # every subgroup of these groups is generated by two elements
        group = make()
        els = group.elements
        pairs = {_plain_closure([a, b]) for i, a in enumerate(els) for b in els[i:]}
        assert set(all_subgroups(group)) == pairs

    @pytest.mark.parametrize("name, d", [*ACCEPTANCE_ACTIONS, ("natural_sn4", 2)])
    def test_orbifold_euler_is_the_commuting_pair_sum(self, name, d):
        action = natural_sn(4, d) if name == "natural_sn4" else catalog(name, d=d)
        ident = identity_matrix(action.r)
        total = 0
        for g in action.elements:
            for h in action.elements:
                if mat_mul(g, h) != mat_mul(h, g):
                    continue
                snf = smith_normal_form(tuple(mat_sub(ident, g)) + tuple(mat_sub(ident, h)))
                if snf.rank == action.r:
                    total += math.prod(abs(x) for x in snf.divisors) ** (2 * d)
        assert total % action.order == 0
        assert orbifold_euler(action) == total // action.order


def _oracle_lattice(group):
    """The subgroups of a group and their conjugacy classes from plain
    products: a product table of the elements, every subgroup as the
    closure of a pair, checked to be closed under joining one more
    element, and each class as the images under conjugation by every
    element.  Returns ``(subgroups, classes, conjugate)``: index
    frozensets and ``conjugate(sub, k)``, the subgroup k sub k^-1."""
    mats = [_as_matrix(g) for g in group.elements]
    position = {m: i for i, m in enumerate(mats)}
    product = [[position[mat_mul(a, b)] for b in mats] for a in mats]
    inverse = [row.index(group._e) for row in product]

    def closure(gens):
        seen, frontier = {group._e}, [group._e]
        while frontier:
            frontier = [product[a][g] for a in frontier for g in gens]
            frontier = [p for p in set(frontier) if p not in seen]
            seen.update(frontier)
        return frozenset(seen)

    def conjugate(sub, k):
        return frozenset(product[product[k][h]][inverse[k]] for h in sub)

    n = len(mats)
    subgroups = {closure((a, b)) for a in range(n) for b in range(a, n)}
    assert all(closure((*sub, g)) in subgroups for sub in subgroups for g in range(n))
    classes = {frozenset(conjugate(sub, k) for k in range(n)) for sub in subgroups}
    return subgroups, classes, conjugate


class _MatrixClosure(FiniteGroup):
    """Generators closed with ``mat_mul`` on whole matrices."""

    _product = staticmethod(mat_mul)

    def __init__(self, gens):
        self._close(gens, identity_matrix(len(gens[0])), DEFAULT_ORDER_CAP)


class TestLatticeAgainstOracle:
    """The class-by-class lattice against brute force, on the integral
    catalog and on the benchmark's actions in two seeded bases."""

    @staticmethod
    def sample(source, perfbench_actions):
        if source == "catalog":
            return integral_catalog_actions()
        return perfbench_actions(int(source.split("/")[1]))

    @pytest.mark.parametrize("source", ["catalog", "perfbench/7", "perfbench/63"])
    def test_classes_normalizers_conjugators_generators(self, source,
                                                        perfbench_actions):
        for group in self.sample(source, perfbench_actions):
            subgroups, classes, conjugate = _oracle_lattice(group)
            lattice = group._lattice
            assert {frozenset(_bits(m)) for cls in lattice for m in cls.members} == subgroups
            got = [frozenset(frozenset(_bits(m)) for m in cls.members) for cls in lattice]
            assert set(got) == classes and len(got) == len(classes), group.label
            reps = [sorted(group._index_of[g] for g in c.representative) for c in lattice]
            assert reps == sorted(reps, key=lambda r: (len(r), r))
            for members, cls, rep in zip(got, lattice, reps):
                assert rep == min(sorted(m) for m in members), group.label
                assert rep == _bits(cls.members[0]) and cls.size == len(members)
                norm = {k for k in range(group.order)
                        if conjugate(frozenset(rep), k) == frozenset(rep)}
                assert set(_bits(cls.norm)) == norm
                assert group._set(cls.norm) == group.normalizer(cls.representative)
                for mask, k in zip(cls.members, cls.conjugators, strict=True):
                    assert conjugate(frozenset(rep), k) == frozenset(_bits(mask))
                for gens, mask in ((cls.gens, cls.mask), (cls.norm_gens, cls.norm)):
                    assert group._closure(gens) == mask
                    assert _plain_closure([_as_matrix(group.elements[g]) for g in gens]
                                          or [_as_matrix(group.identity)]) == frozenset(
                        _as_matrix(group.elements[i]) for i in _bits(mask))

    @pytest.mark.parametrize("source", ["catalog", "perfbench/7", "perfbench/63"])
    def test_row_orbit_closure_is_the_matrix_closure(self, source, perfbench_actions):
        for group in self.sample(source, perfbench_actions):
            plain = _MatrixClosure(group.generators)
            assert plain.elements == group.elements, group.label
            assert plain._e == group._e
            assert plain._right == group._right
            assert plain._tree == group._tree


class TestHeavyLattices:
    """The subgroup lattices of the dimension-8 and -10 generalized Kummers
    and of Hilb^3 and Hilb^4 of a K3 (the lattice only; stratifying them is
    not tier-1)."""

    def test_standard_s5(self):
        group = standard_sn(5, d=2)
        classes = subgroup_class_poset(group)
        assert len(all_subgroups(group)) == 156
        assert [(c.order, c.size) for c in classes] == [
            (1, 1), (2, 10), (2, 15), (3, 10), (4, 15), (4, 15), (4, 5), (5, 6),
            (6, 10), (6, 10), (6, 10), (8, 15), (10, 6), (12, 10), (12, 5),
            (20, 6), (24, 5), (60, 1), (120, 1),
        ]

    def test_wreath_3(self):
        group = wreath(3, 2, d=2)
        classes = subgroup_class_poset(group)
        assert len(all_subgroups(group)) == 98
        assert len(classes) == 33
        assert sum(c.size for c in classes) == 98

    @pytest.mark.parametrize("make, count, classes", [
        (lambda: standard_sn(6, d=2), 1455, 56),
        (lambda: wreath(4, 2, d=2), 1659, 193),
    ], ids=["standard_s6", "wreath_4"])
    def test_next_sizes(self, make, count, classes):
        group = make()
        records = subgroup_class_poset(group)
        assert len(all_subgroups(group)) == count
        assert len(records) == classes
        assert sum(c.size for c in records) == count


class TestWeylAction:
    def test_z4_in_octahedral(self):
        octa = catalog("octahedral_s4_sl3")
        z4 = octa._mask(octa.subgroup_closure([((0, -1, 0), (1, 0, 0), (0, 0, 1))]))
        classes, perms = _weyl_permutations(octa, z4, weyl_reps(octa, z4))
        assert len(perms) == 2
        orders = [octa.element_order(octa.elements[cls[0]]) for cls in classes]
        assert orders == [1, 2, 4, 4]
        assert perms[0] == (0, 1, 2, 3)
        assert perms[1] == (0, 1, 3, 2)  # swaps the two order-4 classes

    def test_z3_in_octahedral(self):
        octa = catalog("octahedral_s4_sl3")
        z3 = octa._mask(octa.subgroup_closure([((0, 0, 1), (1, 0, 0), (0, 1, 0))]))
        _, perms = _weyl_permutations(octa, z3, weyl_reps(octa, z3))
        assert perms[1] == (0, 2, 1)

    def test_self_normalizing_trivial_action(self):
        s3 = standard_sn(3, d=2)
        transposition = standard_rep_matrix((1, 0, 2), 3)
        sub = s3._mask(s3.subgroup_closure([transposition]))
        reps = weyl_reps(s3, sub)
        _, perms = _weyl_permutations(s3, sub, reps)
        assert len(reps) == 1
        assert perms == ((0, 1),)


class TestCatalogRepresentations:
    def test_standard_s4(self):
        s4 = standard_sn(4)
        assert s4.r == 3
        assert s4.order == 24
        assert not has_nonzero_fixed_vector(s4)

    def test_natural_has_fixed_vector(self):
        assert has_nonzero_fixed_vector(natural_sn(3))

    def test_wreath_orders(self):
        assert wreath(2, 2).order == 8
        assert wreath(3, 2).order == 48
        with pytest.raises(ValueError):
            wreath(2, 3)

    def test_natural_splits_off_standard(self):
        # trace of the natural action = 1 + trace of the standard action
        for perm in itertools.permutations(range(3)):
            nat = natural_rep_matrix(perm, 3)
            std = standard_rep_matrix(perm, 3)
            assert sum(nat[i][i] for i in range(3)) == 1 + sum(
                std[i][i] for i in range(2)
            )

    def test_standard_quotient_same_characters(self):
        # complexifications agree although the integral actions differ
        for n in (3, 4):
            for perm in itertools.permutations(range(n)):
                assert char_poly(standard_rep_matrix(perm, n)) == char_poly(
                    quotient_rep_matrix(perm, n)
                )
        assert quotient_sn(4).order == 24

    def test_one_dimensional_fixed_sets_in_sl3(self):
        # every non-identity element of the SL(3,Z) catalog entries has
        # eigenvalue 1 with multiplicity exactly one
        for name in ["octahedral_s4_sl3", "d4_sl3"]:
            action = catalog(name)
            for g in action.elements:
                if g == action.identity:
                    continue
                assert trace_exponents(g).count(0) == 1
