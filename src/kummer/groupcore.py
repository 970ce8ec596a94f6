"""Finite matrix and permutation groups on one integer kernel.

A group is stored as its full (small) element set, sorted, so that
element i is the i-th smallest and sorted index lists sort like sorted
element lists.  Closing the generators takes each (element, generator)
product once; those products give each generator's right action on the
indices, from which the Cayley table ``_table[i][j]`` is composed column
by column on first use; matrix and permutation groups share that walk.
A matrix is the tuple of its rows' places in the orbit of the basis rows
(row i of a * g is (row i of a) * g), a row imaged under g when a product
first needs it, and each new one must have |trace| <= r, as a matrix of
finite order does, so an infinite group stops early.  A subgroup is an
int bitmask over the indices (containment is ``a & ~b == 0``), and
closures, conjugates, normalizers, cosets, element and subgroup classes
and the Weyl permutations of a subgroup's classes are table lookups on
indices.  Each element class is one :class:`ConjugacyClass` record, which
every class-level number reads: rank(1 - g) from one Hermite form
(:func:`_row_lattice`, which the Euler pairs and the strata share; they
and ``--oracle`` read this one for g and <g>), and, on first read, C(g),
closed from the Schreier elements of the class's walk, with its classes
(the group's own for a central g).  The subgroup lattice is built class
by class from joins of class representatives with single elements, as
one :class:`SubgroupClass` record per class, with R's cosets in N(R)
grouped once as index tuples, and those cosets grouped into the classes
of the Weyl group N(R)/R; the records are all that their readers see of
it: no method lists subgroups or cosets as element sets.  Only the
public methods take and return elements (matrices or permutation tuples)
and frozensets of them.  Orders stay below a configurable cap (default
10000); the catalog's actions have order at most 720.
"""

from __future__ import annotations

from functools import cached_property, cmp_to_key
from math import gcd
from operator import getitem, mul, sub

from .exactalg import (
    ConsistencyError,
    hermite_normal_form,
    identity_matrix,
    mat_det,
)

DEFAULT_ORDER_CAP = 10_000


class NonInvertible(ValueError):
    """A generator is not invertible over the integers."""


class NotFiniteWithinCap(ValueError):
    """Closure passed the order cap, or reached an element of infinite order."""


class SpecialityViolation(ValueError):
    """A determinant -1 element appeared where determinant 1 is required."""


class FiniteGroup:
    """Common machinery for groups given by generators and closed here.

    Subclasses provide ``_product`` on closure words, may override
    ``_decode`` and ``_unbounded``, and call :meth:`_close`; elements must be
    hashable and totally ordered (for deterministic output).
    """

    elements: tuple

    @staticmethod
    def _decode(word):
        """The element a closure word stands for: itself by default."""
        return word

    @staticmethod
    def _unbounded(word) -> str | None:
        """Why the word's element cannot lie in a finite group, if it cannot."""
        return None

    def _close(self, gens, ident, cap: int):
        """Close the words ``gens`` from ``ident`` under right
        multiplication by ``_product``; ``_decode`` gives the elements.
        A new element past the cap, or one ``_unbounded`` names, stops the walk.

        Every (element, generator) product is taken once and kept: as
        ``_right[k]``, generator k's right action on the element indices,
        and as ``_tree``, one ``(j, k, g)`` per element in order of
        discovery with ``elements[j] = elements[k] * generators[g]``.
        """
        product, unbounded = self._product, self._unbounded
        images = {ident: None}
        tree = []
        frontier = [ident]
        while frontier:
            new = []
            for a in frontier:
                row = []
                for k, g in enumerate(gens):
                    p = product(a, g)
                    if p not in images:
                        if len(images) >= cap:
                            raise NotFiniteWithinCap(f"group closure exceeds cap {cap}")
                        if reason := unbounded(p):
                            raise NotFiniteWithinCap(reason)
                        images[p] = None
                        tree.append((p, a, k))
                        new.append(p)
                    row.append(p)
                images[a] = row
            frontier = new
        decoded = {a: self._decode(a) for a in images}
        words = sorted(images, key=decoded.__getitem__)
        self.elements = tuple(map(decoded.__getitem__, words))
        self._index_of = {g: i for i, g in enumerate(self.elements)}
        index = {a: i for i, a in enumerate(words)}
        self._e = index[ident]
        self._right = [[index[images[a][k]] for a in words] for k in range(len(gens))]
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
        frontier, seen = [self._e] if seeds is None else seeds, 0
        for a in frontier:
            seen |= 1 << a
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

    def _normalizer(self, sub: int) -> int:
        table, inv, members = self._table, self._inv_of, _bits(sub)
        return sum(1 << g for g, row in enumerate(table)
                   if all(sub >> table[row[h]][inv[g]] & 1 for h in members))

    @cached_property
    def _lattice(self) -> tuple[SubgroupClass, ...]:
        """The conjugacy classes of subgroups as :class:`SubgroupClass`
        records, sorted by (order, sorted indices) of their least members.

        Breadth first from the trivial group, each representative H is
        joined with one g per H-double coset, N(H)-conjugate and generator
        of <g>, all of which give conjugate joins; every subgroup is a
        chain of joins, so its class is reached.  A new join's class is
        listed at once by the generators' conjugations, so a later join
        is named by a lookup, and N(H) is closed from H and the Schreier
        elements of that listing.
        """
        table, inv, e, orders = self._table, self._inv_of, self._e, self._orders
        gens = [self._index_of[g] for g in self.generators]
        perms = [self._conjugation(g) for g in gens]
        found, known = [], set()

        def add_class(join, join_gens):
            orbit, conj, edges = [join], {join: e}, []
            for sub in orbit:
                for x, perm in zip(gens, perms):
                    image = _permuted(sub, perm)
                    if image in conj:
                        edges.append((sub, x, image))
                    else:
                        conj[image] = table[x][conj[sub]]
                        orbit.append(image)
            rep = min(orbit, key=_mask_key)
            k, k_inv = conj[rep], inv[conj[rep]]
            rep_gens = tuple(table[table[k][a]][k_inv] for a in join_gens)
            conj = {sub: table[conj[sub]][k_inv] for sub in orbit}  # sub = k rep k^-1
            schreier = (table[table[inv[conj[image]]][x]][conj[sub]] for sub, x, image in edges)
            norm, norm_gens = _span(self, schreier, rep_gens, rep)
            known.update(orbit)
            members = (rep, *(sub for sub in orbit if sub != rep))
            found.append(SubgroupClass(self, members, tuple(map(conj.get, members)),
                                       rep_gens, norm, tuple(norm_gens)))

        add_class(1 << e, ())
        everything = (1 << len(table)) - 1
        for cls in found:
            members, done, sub_gens = _bits(cls.mask), cls.mask, cls.gens
            while done != everything:
                rest = everything & ~done
                g = (rest & -rest).bit_length() - 1
                cyclic, p = [], g
                for n in range(1, orders[g]):
                    if gcd(n, orders[g]) == 1:
                        cyclic.append(p)
                    p = table[p][g]
                seen = set(cyclic)
                for x in cyclic:
                    for n in cls.norm_gens:
                        y = table[table[n][x]][inv[n]]
                        if y not in seen:
                            seen.add(y)
                            cyclic.append(y)
                for x in cyclic:
                    if not done >> x & 1:
                        done |= self._closure(sub_gens, [table[h][x] for h in members])
                join = self._closure(sub_gens + (g,), members)
                if join not in known:
                    add_class(join, sub_gens + (g,))
        return tuple(sorted(found, key=lambda cls: _mask_key(cls.mask)))

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
        """The :class:`ConjugacyClass` records' members as sorted tuples of
        elements, classes sorted by (order of elements, smallest member)."""
        return tuple(tuple(map(self.elements.__getitem__, cls.members)) for cls in self._classes)

    @cached_property
    def _classes(self) -> tuple[ConjugacyClass, ...]:
        return tuple(ConjugacyClass(self, orbit) for orbit in _class_orbits(
            self, range(len(self.elements)), [self._index_of[g] for g in self.generators]))

    def class_index(self, g) -> int:
        return self._class_number[self._index_of[g]]

    @cached_property
    def _class_number(self) -> list[int]:
        """The number of each element's conjugacy class, by element index."""
        pairs = sorted((h, i) for i, cls in enumerate(self._classes) for h in cls.members)
        return [i for _, i in pairs]

    def class_representatives(self) -> tuple:
        return tuple(cls[0] for cls in self.conjugacy_classes())

    def subgroup_closure(self, gens) -> frozenset:
        """Closure of a subset under multiplication; always contains 1."""
        return self._set(self._closure([self._index_of[g] for g in gens]))

    def conjugate_subgroup(self, sub: frozenset, g) -> frozenset:
        return self._set(_permuted(self._mask(sub),
                                   self._conjugation(self._index_of[g])))

    def normalizer(self, sub: frozenset) -> frozenset:
        """N(sub); ``ValueError`` unless ``sub`` is a subgroup."""
        if not self.is_subgroup(sub):
            raise ValueError("not a subgroup of this group")
        return self._set(self._normalizer(self._mask(sub)))

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


def _mask_order(a: int, b: int) -> int:
    """Negative, 0 or positive as mask a sorts before, with or after b by (order,
    sorted indices): of equal orders the owner of the lowest differing bit is first."""
    low = (a ^ b) & -(a ^ b)
    return a.bit_count() - b.bit_count() or (low & b) - (low & a)


_mask_key = cmp_to_key(_mask_order)


def _permuted(mask: int, perm) -> int:
    """Image of an index mask under an index permutation."""
    image = 0
    while mask:
        low = mask & -mask
        image |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return image


def _row_lattice(action, matrices, rows=()):
    """Hermite basis of the lattice spanned by ``rows`` and the rows of 1 - h,
    h in ``matrices``: their common fixed locus depends on it only, and it
    has at most r rows."""
    ident = identity_matrix(action.r)
    return hermite_normal_form([*rows, *(list(map(sub, e, row)) for h in matrices
                                         for e, row in zip(ident, h))], action.r)


class _RowImages(dict):
    """A generator g on the orbit of the basis rows, which ``rows`` begins
    with: ``self[i]`` is the place of ``rows[i] * g``, g's row i for a basis
    row and otherwise imaged on its first lookup; a new image joins ``rows``
    and ``index`` (row to place)."""

    def __init__(self, g, rows: list, index: dict):
        self.g_columns, self.rows, self.index = tuple(zip(*g)), rows, index
        super().__init__(enumerate(map(self._place, g)))

    def __missing__(self, i):
        row = self.rows[i]
        self[i] = j = self._place(tuple([sum(map(mul, row, col)) for col in self.g_columns]))
        return j

    def _place(self, row) -> int:
        j = self.index.setdefault(row, len(self.rows))
        if j == len(self.rows):
            self.rows.append(row)
        return j


class IntegralAction(FiniteGroup):
    """A finite group of invertible integer matrices acting on a torus power.

    ``r`` is the matrix size (the lattice rank), ``d`` the complex
    dimension of the abelian-variety factor, so the group acts on a
    complex torus of dimension ``r * d`` whose first cohomology has rank
    ``2 * r * d``.
    """

    def __init__(self, generators, d: int = 1, label: str = "",
                 cap: int = DEFAULT_ORDER_CAP, special: bool = False):
        gens = tuple(tuple(tuple(map(int, row)) for row in g) for g in generators)
        if not gens:
            raise NonInvertible("need at least one generator")
        r, dets = len(gens[0]), []
        for g in gens:
            if len(g) != r or any(len(row) != r for row in g):
                raise NonInvertible("generators must be square of equal size")
            dets.append(mat_det(g))
            if dets[-1] not in (1, -1):
                raise NonInvertible(f"generator has determinant {dets[-1]}")
        if d < 1:
            raise ValueError("d must be a positive integer")
        self.generators, self.r, self.d = gens, r, d
        self._rows = list(identity_matrix(r))
        index = {row: i for i, row in enumerate(self._rows)}
        self._close([_RowImages(g, self._rows, index).__getitem__ for g in gens],
                    tuple(range(r)), cap)
        self.label = label or f"group of order {self.order} in GL({r},Z)"
        self.special = all(det == 1 for det in dets)
        if special and not self.special:
            raise SpecialityViolation(
                "determinant -1 element in an action declared special"
            )

    @staticmethod
    def _product(a, g):
        # a is the tuple of a matrix's rows' places in the row orbit, and row
        # i of a * g is (row i of a) * g: g maps a row's place to its image's
        return tuple(map(g, a))

    def _unbounded(self, a) -> str | None:
        # a matrix of finite order has roots of unity as eigenvalues
        if abs(trace := sum(map(getitem, map(self._rows.__getitem__, a), range(self.r)))) > self.r:
            return f"group is infinite: an element has trace {trace}, and |trace| > r = {self.r}"

    def _decode(self, a):
        return tuple(map(self._rows.__getitem__, a))

    def restrict(self, sub, label: str = "") -> "IntegralAction":
        """The subgroup as an action (same r, d), from :func:`_span`'s generators."""
        gens = _span(self, sorted(map(self._index_of.__getitem__, sub)), (), 1 << self._e)[1]
        return IntegralAction([self.elements[g] for g in gens] or [self.identity], d=self.d,
                              label=label or f"subgroup of {self.label}")

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
        self.generators = gens
        self._close(gens, tuple(range(n)), cap)
        self.label = label or f"permutation group of order {self.order}"

    @staticmethod
    def _product(a, b):
        # (a * b)(i) = a(b(i))
        return tuple(a[i] for i in b)

    def __repr__(self):
        return f"AbstractGroup({self.label!r}, order={self.order})"


class ConjugacyClass:
    """One conjugacy class of elements: ``members`` (sorted indices), the
    least one ``rep`` (g) with ``conjugator_of[x]`` = k for x = k g k^-1,
    ``size`` and element ``order``.  Built on first read: the classes of
    C(g) and, for an integral action, the Hermite ``rows`` of 1 - g (their
    number is the ``rank``; the strata engine and ``--oracle`` read them for
    <g>, and the Euler pairs with every h).  C(g)'s generators are rebuilt on
    each read: their one reader takes them once."""

    def __init__(self, group, conjugator_of):
        self.group, self.conjugator_of = group, conjugator_of
        self.members = tuple(sorted(conjugator_of))
        self.rep, self.size = self.members[0], len(self.members)
        self.order = group._orders[self.rep]

    @cached_property
    def rows(self) -> tuple:
        """The Hermite basis of the rows of 1 - g (:func:`_row_lattice`)."""
        return _row_lattice(self.group, (self.group.elements[self.rep],))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def centralizer(self) -> tuple[int, list[int]]:
        """C(g) as (mask, generators), by :func:`_span`.  An edge
        x -> y = s x s^-1 of the class's walk under a generator s gives the
        Schreier element k_y^-1 s k_x of C(g), and those generate it."""
        group, conj = self.group, self.conjugator_of
        table, inv = group._table, group._inv_of

        def schreier():
            for s in map(group._index_of.__getitem__, group.generators):
                row = table[s]
                for x in self.members:
                    y = table[row[x]][inv[s]]  # s x s^-1
                    yield table[table[inv[conj[y]]][s]][conj[x]]

        return _span(group, schreier(), (), 1 << group._e)

    @cached_property
    def centralizer_classes(self) -> tuple[tuple[int, ...], ...]:
        """C(g)'s classes under its own conjugation, by :func:`_element_classes`;
        for a central g, C(g) is the group and they are its class records'."""
        if self.size == 1:
            return tuple(cls.members for cls in self.group._classes)
        mask, gens = self.centralizer
        return _element_classes(self.group, _bits(mask), gens)


class SubgroupClass:
    """One conjugacy class of subgroups: ``members`` as masks, least member R
    first, ``members[i]`` = k R k^-1 for k = ``conjugators[i]``, R generated
    by ``gens`` and N(R) (mask ``norm``) by ``norm_gens``, all indices.  The
    orbit-stabilizer count is checked; R as elements, the Weyl cosets, as
    index tuples, and their Weyl classes are built when read."""

    def __init__(self, group, members, conjugators, gens, norm, norm_gens):
        self.group, self.members, self.conjugators = group, members, conjugators
        self.gens, self.norm, self.norm_gens = gens, norm, norm_gens
        self.mask, self.size, self.order = members[0], len(members), members[0].bit_count()
        if self.size * norm.bit_count() != group.order:
            raise ConsistencyError(
                f"class of {self.size} subgroups with a normalizer of order "
                f"{norm.bit_count()} in a group of order {group.order}")

    @cached_property
    def cosets(self) -> tuple[tuple[int, ...], ...]:
        """The Weyl cosets gR of R in N(R) as sorted index tuples: R first,
        the rest by least member."""
        table, members = self.group._table, _bits(self.mask)
        cosets, rest = [tuple(members)], self.norm & ~self.mask
        while rest:
            row = table[(rest & -rest).bit_length() - 1]
            cosets.append(tuple(sorted(row[h] for h in members)))
            rest &= ~sum(1 << x for x in cosets[-1])
        return tuple(cosets)

    @cached_property
    def coset_of(self) -> dict[int, int]:
        """Each index in N(R) mapped to the number of its coset in ``cosets``."""
        return {g: i for i, coset in enumerate(self.cosets) for g in coset}

    @cached_property
    def weyl_classes(self) -> tuple[list, dict[int, int]]:
        """The classes of N(R)/R: per class an element and its R-cosets
        (numbered as in ``cosets``), R's class first, and each coset's
        number mapped to its class.  They are the orbits of the cosets under
        conjugation by N(R)'s generators."""
        table, inv, coset_of = self.group._table, self.group._inv_of, self.coset_of
        pairs = [(table[x], inv[x]) for x in self.norm_gens]
        classes, orbit_of = [], {}
        for i, (g, *_) in enumerate(self.cosets):
            if i not in orbit_of:
                orbit_of[i], orbit = len(classes), [g]
                for y in orbit:
                    for row, x_inv in pairs:
                        z = table[row[y]][x_inv]
                        if coset_of[z] not in orbit_of:
                            orbit_of[coset_of[z]] = len(classes)
                            orbit.append(z)
                classes.append((g, [coset_of[y] for y in orbit]))
        return classes, orbit_of

    @cached_property
    def representative(self) -> frozenset:
        return self.group._set(self.mask)

    def __repr__(self):
        return (f"SubgroupClass(order={self.order}, size={self.size}, "
                f"weyl_order={self.norm.bit_count() // self.order})")


def subgroup_class_poset(group: FiniteGroup) -> tuple[SubgroupClass, ...]:
    """The conjugacy classes of subgroups, as the group's
    :meth:`~FiniteGroup._lattice` records: sorted by (order, sorted
    representative), so the trivial group comes first.

    >>> s3 = generate_group([((-1, 1), (0, 1)), ((0, -1), (-1, 0))])
    >>> len(subgroup_class_poset(s3))
    4
    """
    return group._lattice


def _weyl_permutations(group: FiniteGroup, mask: int, reps, gens=None):
    """H's element classes (H conjugating) and, per index in ``reps``, their
    permutation by conjugation with it, as ``(classes, perms)``: the orbits
    under ``gens``, H's record's generators, or :func:`_span`'s from H's
    members if none are given; for H = G with ``gens``, the class records."""
    members = _bits(mask)
    if gens is not None and len(members) == group.order:
        classes = tuple(cls.members for cls in group._classes)
    else:
        classes = _element_classes(group, members, _span(group, members, (), 1 << group._e)[1]
                                   if gens is None else gens)
    class_of = {h: i for i, cls in enumerate(classes) for h in cls}
    table, inv = group._table, group._inv_of
    return classes, tuple(tuple(class_of[table[table[n][cls[0]]][inv[n]]] for cls in classes)
                          for n in reps)


def _span(group: FiniteGroup, candidates, gens, span: int) -> tuple[int, list[int]]:
    """The subgroup that the indices ``gens``, whose closure is the mask
    ``span``, and the indices ``candidates`` generate, as ``(mask,
    generators)``: a candidate is kept, and the span closed again, only when
    the span so far does not hold it.  It gives N(H) from H and Schreier
    elements, C(g) from Schreier elements and a subgroup's generating set
    from its members."""
    gens = list(gens)
    for x in candidates:
        if not span >> x & 1:
            gens.append(x)
            span = group._closure(gens)
    return span, gens


def _element_classes(group: FiniteGroup, elements, conjugators) -> tuple[tuple, ...]:
    """The orbits of :func:`_class_orbits` as sorted index tuples."""
    return tuple(tuple(sorted(orbit)) for orbit in _class_orbits(group, elements, conjugators))


def _class_orbits(group: FiniteGroup, elements, conjugators) -> list[dict[int, int]]:
    """Orbits of the ascending indices ``elements`` under conjugation by the
    indices ``conjugators``, each mapping a member x to a product k of
    conjugators with x = k g k^-1, g the orbit's least member.

    Closing under generators of a group reaches the full class, so the
    whole group passes its generators and a subgroup a generating set of
    its own (:func:`_span`).  Orbits are sorted by (order of
    elements, least member).
    """
    table = group._table
    pairs = [(table[h], group._inv_of[h]) for h in conjugators]
    seen = set()
    orbits = []
    for g in elements:
        if g in seen:
            continue
        orbit = {g: group._e}
        frontier = [g]
        while frontier:
            cur = frontier.pop()
            for row, hinv in pairs:
                c = table[row[cur]][hinv]
                if c not in orbit:
                    orbit[c] = row[orbit[cur]]
                    frontier.append(c)
        seen |= orbit.keys()
        orbits.append((group._orders[g], g, orbit))
    return [orbit for _, _, orbit in sorted(orbits)]
