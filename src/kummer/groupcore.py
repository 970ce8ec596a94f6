"""Finite matrix and permutation groups on one integer kernel.

A group is stored as its full (small) element set, sorted, so that
element i is the i-th smallest and sorted index lists sort like sorted
element lists.  Closing the generators takes each (element, generator)
product once; those products give each generator's right action on the
indices, from which the Cayley table ``_table[i][j]`` is composed column
by column on first use.  A subgroup is an int bitmask over the indices
(containment is ``a & ~b == 0``), and closures, conjugates, normalizers,
cosets, element and subgroup classes, the Weyl permutations of a
subgroup's classes and the subgroup lattice are table lookups on
indices.  The public methods still take and return elements (matrices
or permutation tuples) and frozensets of them; matrices are multiplied
only to close the generators.  Orders stay below a configurable cap
(default 10000); the interesting actions in the catalog have order at
most 720.
"""

from __future__ import annotations

from functools import cached_property

from .exactalg import (
    ConsistencyError,
    identity_matrix,
    mat_det,
    mat_mul,
)

DEFAULT_ORDER_CAP = 10_000


class NonInvertible(ValueError):
    """A generator is not invertible over the integers."""


class NotFiniteWithinCap(ValueError):
    """Closure of the generators exceeded the configured order cap."""


class SpecialityViolation(ValueError):
    """A determinant -1 element appeared where determinant 1 is required."""


class FiniteGroup:
    """Common machinery for groups given by generators and closed here.

    Subclasses provide ``_product`` on raw elements and call
    :meth:`_close`; elements must be hashable and totally ordered (for
    deterministic output).
    """

    elements: tuple

    @staticmethod
    def _product(a, b):
        raise NotImplementedError

    def _close(self, gens, ident, cap: int):
        """Close ``gens`` from ``ident`` under right multiplication.

        Every (element, generator) product is taken once and kept: as
        ``_right[k]``, generator k's right action on the element indices,
        and as ``_tree``, one ``(j, k, g)`` per element in order of
        discovery with ``elements[j] = elements[k] * generators[g]``.
        """
        images = {ident: None}
        tree = []
        frontier = [ident]
        while frontier:
            new = []
            for a in frontier:
                row = []
                for k, g in enumerate(gens):
                    p = self._product(a, g)
                    if p not in images:
                        if len(images) >= cap:
                            raise NotFiniteWithinCap(f"group closure exceeds cap {cap}")
                        images[p] = None
                        tree.append((p, a, k))
                        new.append(p)
                    row.append(p)
                images[a] = row
            frontier = new
        self.generators = gens
        self.elements = tuple(sorted(images))
        index = self._index_of = {g: i for i, g in enumerate(self.elements)}
        self._e = index[ident]
        self._right = [[index[images[x][k]] for x in self.elements]
                       for k in range(len(gens))]
        self._tree = [(index[p], index[a], k) for p, a, k in tree]

    # -- the index kernel -----------------------------------------------------

    @cached_property
    def _table(self) -> list[tuple[int, ...]]:
        """``_table[i][j]`` is the index of ``elements[i] * elements[j]``.

        Column j is column k mapped through generator g's right action
        when ``elements[j] = elements[k] * g``, so no product is taken.
        """
        cols = [None] * len(self.elements)
        cols[self._e] = range(len(self.elements))
        for j, k, g in self._tree:
            cols[j] = list(map(self._right[g].__getitem__, cols[k]))
        return list(zip(*cols))

    @cached_property
    def _inv_of(self) -> list[int]:
        return [row.index(self._e) for row in self._table]

    @cached_property
    def _orders(self) -> list[int]:
        table, orders = self._table, []
        for i in range(len(self.elements)):
            n, p = 1, i
            while p != self._e:
                p = table[p][i]
                n += 1
            orders.append(n)
        return orders

    def _mask(self, elements) -> int:
        """Bitmask of a set of group elements (``KeyError`` for others)."""
        return sum(1 << i for i in {self._index_of[g] for g in elements})

    def _set(self, mask: int) -> frozenset:
        return frozenset(self.elements[i] for i in _bits(mask))

    def _closure(self, gens, seeds=None) -> int:
        """Mask of ``seeds`` times the subgroup generated by ``gens``.

        Both are element indices; with the default seed, the identity,
        this is the subgroup itself.
        """
        table = self._table
        frontier = [self._e] if seeds is None else seeds
        seen = sum(1 << a for a in frontier)
        while frontier:
            new = []
            for a in frontier:
                row = table[a]
                for g in gens:
                    p = row[g]
                    if not seen >> p & 1:
                        seen |= 1 << p
                        new.append(p)
            frontier = new
        return seen

    def _conjugation(self, g: int) -> list[int]:
        """Conjugation by element g as a permutation of the indices."""
        table, gi = self._table, self._inv_of[g]
        return [table[x][gi] for x in self._table[g]]

    def _centralizer(self, g: int) -> int:
        table = self._table
        return sum(1 << h for h, gh in enumerate(table[g]) if gh == table[h][g])

    def _normalizer(self, sub: int) -> int:
        table, inv, members = self._table, self._inv_of, _bits(sub)
        return sum(1 << g for g, row in enumerate(table)
                   if all(sub >> table[row[h]][inv[g]] & 1 for h in members))

    def _cosets(self, sub: int, within: int) -> tuple[tuple, ...]:
        """Left cosets of ``sub`` inside ``within``, as in :meth:`cosets`."""
        members, out = _bits(sub), []
        while within:
            row = self._table[(within & -within).bit_length() - 1]
            coset = sum(1 << row[h] for h in members)
            within &= ~coset
            out.append(coset)
        out.sort(key=lambda c: not c >> self._e & 1)
        return tuple(tuple(self.elements[i] for i in _bits(c)) for c in out)

    @cached_property
    def _subgroups(self) -> dict[int, tuple[int, ...]]:
        """Every subgroup as a mask, sorted by (order, sorted elements),
        mapped to indices of elements that generate it.

        Every subgroup is generated by its elements, so it is a join of
        cyclic subgroups: starting from the trivial group, each subgroup
        found is joined with every cyclic subgroup it does not contain.
        ``<H, x>`` is the same for every x in one double coset ``H g H``,
        so each double coset is joined once.  A join is closed from the
        generators that reached it plus the new cyclic generator.
        """
        table, cyclic = self._table, {}
        for g in range(len(self.elements)):
            cyclic.setdefault(self._closure((g,)), g)
        gens_of = {1 << self._e: ()}
        frontier = [1 << self._e]
        while frontier:
            new = []
            for sub in frontier:
                done, members = sub, _bits(sub)
                for g in cyclic.values():
                    if done >> g & 1:
                        continue
                    done |= self._closure(gens_of[sub], [table[h][g] for h in members])
                    gens = gens_of[sub] + (g,)
                    join = self._closure(gens)
                    if join not in gens_of:
                        gens_of[join] = gens
                        new.append(join)
            frontier = new
        return {m: gens_of[m]
                for m in sorted(gens_of, key=lambda m: (m.bit_count(), _bits(m)))}

    # -- generic group theory ------------------------------------------------

    @property
    def identity(self):
        return self.elements[self._e]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self._index_of

    def element_order(self, g) -> int:
        return self._orders[self._index_of[g]]

    def conjugacy_classes(self) -> tuple[tuple, ...]:
        """Element conjugacy classes, each sorted, ordered deterministically.

        Classes are sorted by (order of elements, smallest member).  The
        orbits come from :func:`_element_classes` with the generators as
        the conjugating set: conjugation is multiplicative, so closing
        under the generators reaches the full class.
        """
        return self._class_elements

    @cached_property
    def _class_elements(self) -> tuple[tuple, ...]:
        return tuple(tuple(self.elements[i] for i in cls) for cls in self._classes)

    @cached_property
    def _classes(self) -> tuple[tuple[int, ...], ...]:
        return _element_classes(self, range(len(self.elements)),
                                [self._index_of[g] for g in self.generators])

    def class_index(self, g) -> int:
        return self._class_of[g]

    @cached_property
    def _class_of(self) -> dict:
        return {h: i for i, cls in enumerate(self.conjugacy_classes()) for h in cls}

    def class_representatives(self) -> tuple:
        return tuple(cls[0] for cls in self.conjugacy_classes())

    def subgroup_closure(self, gens) -> frozenset:
        """Closure of a subset under multiplication; always contains 1."""
        return self._set(self._closure([self._index_of[g] for g in gens]))

    def all_subgroups(self) -> tuple[frozenset, ...]:
        """Every subgroup, sorted by (order, sorted elements)."""
        return tuple(map(self._set, self._subgroups))

    def conjugate_subgroup(self, sub: frozenset, g) -> frozenset:
        return self._set(_permuted(self._mask(sub),
                                   self._conjugation(self._index_of[g])))

    def normalizer(self, sub: frozenset) -> frozenset:
        return self._set(self._normalizer(self._mask(sub)))

    def cosets(self, sub: frozenset, within=None) -> tuple[tuple, ...]:
        """Left cosets of ``sub`` inside ``within`` (default: whole group).

        Each coset is a sorted tuple; the coset of the identity comes
        first, the rest are ordered by smallest member.
        """
        ambient = (1 << len(self.elements)) - 1 if within is None else self._mask(within)
        return self._cosets(self._mask(sub), ambient)

    def is_subgroup(self, sub) -> bool:
        try:
            mask = self._mask(sub)
        except KeyError:
            return False
        return self._closure(_bits(mask)) == mask


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _permuted(mask: int, perm) -> int:
    """Image of an index mask under an index permutation."""
    return sum(1 << perm[i] for i in _bits(mask))


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
        self._close(gens, identity_matrix(r), cap)
        self.r = r
        self.d = d
        self.label = label or f"group of order {self.order} in GL({r},Z)"
        self.special = all(mat_det(g) == 1 for g in gens)
        if special and not self.special:
            raise SpecialityViolation(
                "determinant -1 element in an action declared special"
            )

    _product = staticmethod(mat_mul)

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
        self.degree = n
        self._close(gens, tuple(range(n)), cap)
        self.label = label or f"permutation group of order {self.order}"

    @staticmethod
    def _product(a, b):
        # (a * b)(i) = a(b(i))
        return tuple(a[i] for i in b)

    def __repr__(self):
        return f"AbstractGroup({self.label!r}, order={self.order})"


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

    ``classes`` are sorted by (order, sorted representative), so
    ``classes[0]`` is the trivial group.  ``leq[i][j]`` says class i is
    subconjugate to class j (some member of class i is contained in some
    member of class j).
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        gens = [group._index_of[g] for g in group.generators]
        conjugations = [group._conjugation(g) for g in gens]
        # subgroups come sorted, so each conjugation orbit (closed under
        # the generators) is met first at its least member, and the
        # classes are met in their sort order
        self._index = {}  # subgroup mask -> class index
        self._conjugator = {}  # subgroup mask -> k with mask = k rep k^-1
        orbits, classes = [], []
        for rep in group._subgroups:
            if rep in self._index:
                continue
            self._index[rep] = len(orbits)
            self._conjugator[rep] = group._e
            orbit = [rep]
            for sub in orbit:
                for g, perm in zip(gens, conjugations):
                    image = _permuted(sub, perm)
                    if image not in self._index:
                        self._index[image] = len(orbits)
                        self._conjugator[image] = group._table[g][self._conjugator[sub]]
                        orbit.append(image)
            orbits.append(orbit)
            rep_set = group._set(rep)
            norm = group.normalizer(rep_set)
            if len(orbit) * len(norm) != group.order:
                raise ConsistencyError(
                    f"class of {len(orbit)} subgroups with a normalizer of order "
                    f"{len(norm)} in a group of order {group.order}"
                )
            classes.append(SubgroupClass(rep_set, len(orbit), norm,
                                         group._cosets(rep, group._mask(norm))))
        self.classes = tuple(classes)
        self.leq = tuple(
            tuple(any(not sub & ~other[0] for sub in orbit) for other in orbits)
            for orbit in orbits
        )
        if not all(self.leq[i][i] for i in range(len(classes))):
            raise ConsistencyError("subconjugacy is not reflexive")

    def __len__(self):
        return len(self.classes)

    def class_of(self, sub: frozenset) -> int:
        """Index of the class containing the subgroup."""
        try:
            return self._index[self.group._mask(sub)]
        except KeyError:
            raise ValueError("not a subgroup of this group") from None


def subgroup_class_poset(group: FiniteGroup) -> SubgroupClassPoset:
    """The poset of conjugacy classes of subgroups.

    >>> s3 = generate_group([((-1, 1), (0, 1)), ((0, -1), (-1, 0))])
    >>> len(subgroup_class_poset(s3))
    4
    """
    return SubgroupClassPoset(group)


def weyl_action_on_classes(group: FiniteGroup, sub: frozenset):
    """Permutation action of N(H)/H on the element classes of H.

    Returns ``(cosets, class_reps, perms)`` where ``perms[i]`` is the
    permutation of H's conjugacy classes induced by ``cosets[i]``, over
    the whole normalizer of H.
    """
    if not group.is_subgroup(sub):
        raise ValueError("not a subgroup")
    mask = group._mask(sub)
    cosets = group._cosets(mask, group._normalizer(mask))
    classes, perms = _weyl_permutations(group, mask, cosets)
    return cosets, tuple(group.elements[cls[0]] for cls in classes), perms


def _weyl_permutations(group: FiniteGroup, mask: int, cosets):
    """H's element classes (H conjugating) and, per coset, their permutation
    by conjugation with the coset's first element, as ``(classes, perms)``."""
    members = _bits(mask)
    classes = _element_classes(group, members, members)
    class_of = {h: i for i, cls in enumerate(classes) for h in cls}
    table, perms = group._table, []
    for coset in cosets:
        n = group._index_of[coset[0]]
        row, ninv = table[n], group._inv_of[n]
        perms.append(tuple(class_of[table[row[cls[0]]][ninv]] for cls in classes))
    return classes, tuple(perms)


def _element_classes(group: FiniteGroup, elements, conjugators) -> tuple[tuple, ...]:
    """Orbits of the indices ``elements`` under conjugation by the indices
    ``conjugators``.

    The whole group passes its generators (closing under them reaches the
    full class), a subgroup passes its own elements.  Each class is a
    sorted tuple of indices; classes are sorted by (order of elements,
    smallest member).
    """
    table = group._table
    pairs = [(table[h], group._inv_of[h]) for h in conjugators]
    seen = set()
    classes = []
    for g in elements:
        if g in seen:
            continue
        orbit = {g}
        frontier = [g]
        while frontier:
            cur = frontier.pop()
            for row, hinv in pairs:
                c = table[row[cur]][hinv]
                if c not in orbit:
                    orbit.add(c)
                    frontier.append(c)
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (group._orders[c[0]], c[0]))
    return tuple(classes)
