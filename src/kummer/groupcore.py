"""Finite matrix and permutation groups.

A group is stored as its full (small) element set plus multiplication
callbacks, so conjugacy classes, normalizers, Weyl groups and the poset
of subgroup classes are all computed by direct enumeration.  Orders stay
below a configurable cap (default 10000); the interesting actions in the
catalog have order at most 720.
"""

from __future__ import annotations

from .exactalg import (
    Matrix,
    identity_matrix,
    mat_det,
    mat_inverse_unimodular,
    mat_mul,
)

DEFAULT_ORDER_CAP = 10_000


class NonInvertible(ValueError):
    """A generator is not invertible over the integers."""


class NotFiniteWithinCap(ValueError):
    """Closure of the generators exceeded the configured order cap."""


class SpecialityViolation(ValueError):
    """A determinant -1 element appeared where determinant 1 is required."""


class NotNormalizer(ValueError):
    """The given set does not normalize the given subgroup."""


class FiniteGroup:
    """Common machinery for groups given by an explicit element list.

    Subclasses provide ``_mul``, ``_inv`` and ``identity``; elements must
    be hashable and totally ordered (for deterministic output).
    """

    elements: tuple

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    @property
    def identity(self):
        raise NotImplementedError

    # -- generic group theory ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self._element_set

    @property
    def _element_set(self):
        try:
            return self.__dict__["_eset"]
        except KeyError:
            s = self.__dict__["_eset"] = frozenset(self.elements)
            return s

    def element_order(self, g) -> int:
        n, p = 1, g
        while p != self.identity:
            p = self._mul(p, g)
            n += 1
        return n

    def conjugacy_classes(self) -> tuple[tuple, ...]:
        """Element conjugacy classes, each sorted, ordered deterministically.

        Classes are sorted by (order of elements, smallest member).
        Orbits are grown by conjugating with generators only, which
        reaches the full class since conjugation is multiplicative.
        """
        try:
            return self.__dict__["_classes"]
        except KeyError:
            pass
        gens = list(getattr(self, "generators", ())) or list(self.elements)
        gen_pairs = [(h, self._inv(h)) for h in gens]
        seen = set()
        classes = []
        for g in self.elements:
            if g in seen:
                continue
            orbit = {g}
            frontier = [g]
            while frontier:
                cur = frontier.pop()
                for h, hinv in gen_pairs:
                    c = self._mul(self._mul(h, cur), hinv)
                    if c not in orbit:
                        orbit.add(c)
                        frontier.append(c)
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=lambda c: (self.element_order(c[0]), c[0]))
        self.__dict__["_classes"] = tuple(classes)
        return self.__dict__["_classes"]

    def class_index(self, g) -> int:
        try:
            lookup = self.__dict__["_class_of"]
        except KeyError:
            lookup = self.__dict__["_class_of"] = {
                h: i for i, cls in enumerate(self.conjugacy_classes()) for h in cls
            }
        return lookup[g]

    def class_representatives(self) -> tuple:
        return tuple(cls[0] for cls in self.conjugacy_classes())

    def subgroup_closure(self, gens) -> frozenset:
        """Closure of a subset under multiplication; always contains 1."""
        seen = {self.identity} | set(gens)
        frontier = list(seen)
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    p = self._mul(a, g)
                    if p not in seen:
                        seen.add(p)
                        new.append(p)
            frontier = new
        return frozenset(seen)

    def all_subgroups(self) -> tuple[frozenset, ...]:
        """Every subgroup, by closing cyclic subgroups under pairwise joins."""
        try:
            return self.__dict__["_subgroups"]
        except KeyError:
            pass
        subs = {frozenset({self.identity})}
        for g in self.elements:
            subs.add(self.subgroup_closure([g]))
        while True:
            new = set()
            for a in subs:
                for b in subs:
                    if a < b or b < a or a == b:
                        continue
                    j = self.subgroup_closure(a | b)
                    if j not in subs:
                        new.add(j)
            if not new:
                break
            subs |= new
        result = tuple(sorted(subs, key=lambda s: (len(s), sorted(s))))
        self.__dict__["_subgroups"] = result
        return result

    def conjugate_subgroup(self, sub: frozenset, g) -> frozenset:
        gi = self._inv(g)
        return frozenset(self._mul(self._mul(g, h), gi) for h in sub)

    def normalizer(self, sub: frozenset) -> frozenset:
        return frozenset(
            g for g in self.elements if self.conjugate_subgroup(sub, g) == sub
        )

    def cosets(self, sub: frozenset, within=None) -> tuple[tuple, ...]:
        """Left cosets of ``sub`` inside ``within`` (default: whole group).

        Each coset is a sorted tuple; the coset of the identity comes
        first, the rest are ordered by smallest member.
        """
        ambient = self.elements if within is None else sorted(within)
        seen = set()
        out = []
        for g in ambient:
            if g in seen:
                continue
            coset = frozenset(self._mul(g, h) for h in sub)
            seen |= coset
            out.append(tuple(sorted(coset)))
        out.sort(key=lambda c: (self.identity not in c, c[0]))
        return tuple(out)

    def is_subgroup(self, sub) -> bool:
        sub = frozenset(sub)
        if self.identity not in sub:
            return False
        return all(self._mul(a, b) in sub for a in sub for b in sub)


class IntegralAction(FiniteGroup):
    """A finite group of invertible integer matrices acting on a torus power.

    ``r`` is the matrix size (the lattice rank), ``d`` the complex
    dimension of the abelian-variety factor, so the group acts on a
    complex torus of dimension ``r * d`` whose first cohomology has rank
    ``2 * r * d``.
    """

    def __init__(self, generators, d: int = 1, label: str = "",
                 cap: int = DEFAULT_ORDER_CAP, special: bool = False):
        gens = tuple(tuple(tuple(int(x) for x in row) for row in g) for g in generators)
        if not gens:
            raise NonInvertible("need at least one generator")
        r = len(gens[0])
        for g in gens:
            if len(g) != r or any(len(row) != r for row in g):
                raise NonInvertible("generators must be square of equal size")
            if mat_det(g) not in (1, -1):
                raise NonInvertible(f"generator has determinant {mat_det(g)}")
        if d < 1:
            raise ValueError("d must be a positive integer")
        ident = identity_matrix(r)
        seen = {ident}
        frontier = [ident]
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    p = mat_mul(a, g)
                    if p not in seen:
                        if len(seen) >= cap:
                            raise NotFiniteWithinCap(
                                f"group closure exceeds cap {cap}"
                            )
                        seen.add(p)
                        new.append(p)
            frontier = new
        self.generators = gens
        self.r = r
        self.d = d
        self.label = label or f"group of order {len(seen)} in GL({r},Z)"
        self.elements = tuple(sorted(seen))
        self._position = {g: i for i, g in enumerate(self.elements)}
        self._products = [None] * len(self.elements)
        self._identity = self.elements[self._position[ident]]
        self.special = all(mat_det(g) == 1 for g in self.elements)
        if special and not self.special:
            raise SpecialityViolation(
                "determinant -1 element in an action declared special"
            )

    @property
    def identity(self) -> Matrix:
        return self._identity

    def _mul(self, a, b):
        """Matrix product, memoised per pair of element indices.

        Products of group elements are returned as the element tuples
        themselves, so the table holds at most |G|^2 references.
        """
        pos = self._position
        i, j = pos.get(a), pos.get(b)
        if i is None or j is None:
            return mat_mul(a, b)
        row = self._products[i]
        if row is None:
            row = self._products[i] = [None] * len(pos)
        p = row[j]
        if p is None:
            p = row[j] = self.elements[pos[mat_mul(a, b)]]
        return p

    def _inv(self, a):
        try:
            cache = self.__dict__["_inverses"]
        except KeyError:
            cache = self.__dict__["_inverses"] = {}
        try:
            return cache[a]
        except KeyError:
            inv = cache[a] = mat_inverse_unimodular(a)
            return inv

    def restrict(self, sub, label: str = "") -> "IntegralAction":
        """The subgroup as an IntegralAction of its own (same r, d)."""
        sub = sorted(sub)
        return IntegralAction(sub, d=self.d, label=label or f"subgroup of {self.label}")

    def has_nonzero_fixed_vector(self) -> bool:
        """Whether some nonzero lattice vector is fixed by every element."""
        from .exactalg import mat_sub, kernel_basis

        stacked = []
        for g in self.generators:
            stacked.extend(mat_sub(identity_matrix(self.r), g))
        return len(kernel_basis(tuple(stacked), self.r)) > 0

    def __repr__(self):
        return f"IntegralAction({self.label!r}, order={self.order}, r={self.r}, d={self.d})"


def generate_group(generators, cap: int = DEFAULT_ORDER_CAP, d: int = 1,
                   label: str = "", special: bool = False) -> IntegralAction:
    """Close a set of integer matrices into a finite matrix group.

    >>> generate_group([((0, -1), (1, 1))]).order
    6
    >>> generate_group([identity_matrix(2)]).order
    1
    """
    return IntegralAction(generators, d=d, label=label, cap=cap, special=special)


class AbstractGroup(FiniteGroup):
    """A finite group of permutations (tuples of images of 0..n-1).

    Used for actions given only analytically, where no integer matrix
    model exists.
    """

    def __init__(self, generators, label: str = "", cap: int = DEFAULT_ORDER_CAP):
        gens = tuple(tuple(g) for g in generators)
        if not gens:
            raise ValueError("need at least one generator")
        n = len(gens[0])
        for g in gens:
            if sorted(g) != list(range(n)):
                raise ValueError(f"not a permutation of 0..{n - 1}: {g}")
        ident = tuple(range(n))
        seen = {ident}
        frontier = [ident]
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    p = tuple(a[g[i]] for i in range(n))
                    if p not in seen:
                        if len(seen) >= cap:
                            raise NotFiniteWithinCap(f"closure exceeds cap {cap}")
                        seen.add(p)
                        new.append(p)
            frontier = new
        self.generators = gens
        self.degree = n
        self.label = label or f"permutation group of order {len(seen)}"
        self.elements = tuple(sorted(seen))

    @property
    def identity(self):
        return tuple(range(self.degree))

    def _mul(self, a, b):
        # (a * b)(i) = a(b(i))
        return tuple(a[b[i]] for i in range(self.degree))

    def _inv(self, a):
        out = [0] * self.degree
        for i, x in enumerate(a):
            out[x] = i
        return tuple(out)

    def __repr__(self):
        return f"AbstractGroup({self.label!r}, order={self.order})"


def element_conjugacy_classes(group: FiniteGroup) -> tuple[tuple, ...]:
    """Partition of the elements into conjugacy classes.

    >>> z6 = generate_group([((0, -1), (1, 1))])
    >>> len(element_conjugacy_classes(z6))
    6
    """
    return group.conjugacy_classes()


class SubgroupClass:
    """One conjugacy class of subgroups with its normalizer data."""

    __slots__ = ("representative", "size", "normalizer", "weyl_cosets", "order")

    def __init__(self, representative, size, normalizer, weyl_cosets):
        self.representative = representative
        self.size = size
        self.normalizer = normalizer
        self.weyl_cosets = weyl_cosets
        self.order = len(representative)

    @property
    def weyl_order(self) -> int:
        return len(self.weyl_cosets)

    def __repr__(self):
        return (
            f"SubgroupClass(order={self.order}, size={self.size}, "
            f"weyl_order={self.weyl_order})"
        )


class SubgroupClassPoset:
    """Conjugacy classes of subgroups, ordered by subconjugacy.

    ``leq[i][j]`` says class i is subconjugate to class j (some member of
    class i is contained in some member of class j).
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        subs = group.all_subgroups()
        seen: set[frozenset] = set()
        classes = []
        for s in subs:
            if s in seen:
                continue
            orbit = {group.conjugate_subgroup(s, g) for g in group.elements}
            seen |= orbit
            rep = min(orbit, key=lambda x: sorted(x))
            norm = group.normalizer(rep)
            weyl = group.cosets(rep, within=norm)
            classes.append(SubgroupClass(rep, len(orbit), norm, weyl))
        classes.sort(key=lambda c: (c.order, sorted(c.representative)))
        self.classes = tuple(classes)
        n = len(classes)
        leq = [[False] * n for _ in range(n)]
        for i, ci in enumerate(classes):
            conjugates = {
                group.conjugate_subgroup(ci.representative, g)
                for g in group.elements
            }
            for j, cj in enumerate(classes):
                leq[i][j] = any(c <= cj.representative for c in conjugates)
        self.leq = tuple(tuple(row) for row in leq)
        # orbit-stabilizer and poset sanity
        for c in classes:
            assert c.size * len(c.normalizer) == group.order
        assert all(self.leq[i][i] for i in range(n))

    def __len__(self):
        return len(self.classes)

    def class_of(self, sub: frozenset) -> int:
        sub = frozenset(sub)
        for i, c in enumerate(self.classes):
            if len(c.representative) == len(sub) and any(
                self.group.conjugate_subgroup(sub, g) == c.representative
                for g in self.group.elements
            ):
                return i
        raise ValueError("not a subgroup of this group")

    def minimum(self) -> int:
        return 0

    def maximum(self) -> int:
        return len(self.classes) - 1


def subgroup_class_poset(group: FiniteGroup) -> SubgroupClassPoset:
    """The poset of conjugacy classes of subgroups.

    >>> s3 = generate_group([((-1, 1), (0, 1)), ((0, -1), (-1, 0))])
    >>> len(subgroup_class_poset(s3))
    4
    """
    return SubgroupClassPoset(group)


def weyl_action_on_classes(group: FiniteGroup, sub: frozenset, normalizer=None):
    """Permutation action of N(H)/H on the element classes of H.

    Returns ``(cosets, class_reps, perms)`` where ``perms[i]`` is the
    permutation of H's conjugacy classes induced by ``cosets[i]``.
    """
    sub = frozenset(sub)
    if not group.is_subgroup(sub):
        raise ValueError("not a subgroup")
    if normalizer is None:
        normalizer = group.normalizer(sub)
    else:
        normalizer = frozenset(normalizer)
        for n in normalizer:
            if group.conjugate_subgroup(sub, n) != sub:
                raise NotNormalizer(f"{n} does not normalize the subgroup")
    sub_classes = _subgroup_element_classes(group, sub)
    index_of = {h: i for i, cls in enumerate(sub_classes) for h in cls}
    cosets = group.cosets(sub, within=normalizer)
    perms = []
    for coset in cosets:
        n = coset[0]
        ninv = group._inv(n)
        perm = tuple(
            index_of[group._mul(group._mul(n, cls[0]), ninv)] for cls in sub_classes
        )
        perms.append(perm)
    return cosets, tuple(cls[0] for cls in sub_classes), tuple(perms)


def _subgroup_element_classes(group: FiniteGroup, sub: frozenset):
    """Conjugacy classes of the subgroup as a group of its own."""
    sub_sorted = sorted(sub)
    seen = set()
    classes = []
    for g in sub_sorted:
        if g in seen:
            continue
        orbit = {group._mul(group._mul(h, g), group._inv(h)) for h in sub_sorted}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (group.element_order(c[0]), c[0]))
    return tuple(classes)
