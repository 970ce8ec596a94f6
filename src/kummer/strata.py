"""Isotropy stratification and the resolution Poincaré polynomial.

The quotient of the torus power decomposes into locally closed strata,
one per conjugacy class of occurring isotropy groups.  Everything is
computed upstairs, on the torus, with exact equivariant bookkeeping:

* the arrangement ("the family") is the set of components of Fix(H) for
  every subgroup H, taken from the subgroup lattice and solved once per
  lattice spanned by the rows of 1 - h.  Fix(1) is the whole torus, so
  the open stratum is the stratum of the trivial group;
* each component's pointwise stabilizer is read off the same walk: it is
  the largest subgroup whose fixed locus has the component among its
  components.  These stabilizers single out the strata;
* containment is read off the lattice too: a member strictly containing
  a member t has a stabilizer H strictly inside t's, and is the component
  of Fix(H) through t, so it is found by key, with no pairwise test;
* the group permutes the members: a generator carries a member's normal
  and shifts along one unimodular change of rows that depends on the
  normal only, so the images are keys computed per normal;
* the members of one G-orbit whose isotropy is exactly H form one orbit
  of the normalizer of H, so one labelling of the G-orbits gives each
  stratum's orbits (the downstairs components) and the closure nodes;
* on each member, the points with strictly larger isotropy form a union
  of family members, and an inclusion-exclusion over the members fixed
  by a Weyl element yields that element's trace on the cohomology (with
  compact supports) of the open part.  A representative's traces are
  taken once per conjugacy class of its stabilizer, any other member's
  once per Weyl coset fixing it, and each (normal, element) torus trace
  once per stratification;
* averaging a representative's traces over its stabilizer computes the
  quotient polynomial of its orbit, and weighting by the fiber polynomial
  first computes its share of the resolution.

Summing the unweighted strata must reproduce the quotient polynomial,
and the weighted total evaluated at -1 must match the orbifold Euler
number; both identities are asserted by the test suite on every catalog
action.  The resolution total is what the locally-product and McKay
hypotheses predict; the hypotheses themselves are recorded, not checked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import lcm

from .exactalg import ConsistencyError, IntPolynomial, det_one_plus_t, mat_vec
from .groupcore import IntegralAction, subgroup_class_poset
from .mckay import FiberPolynomial, fiber_poincare_equivariant
from .repring import quotient_poincare
from .toruslat import (
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationTooLarge,
    _induced_matrix,
    _reduced,
    _row_lattice,
    fix_locus,
)


class MalformedLedger(ValueError):
    """A ledger document does not follow the expected schema."""


class ComponentOrbit:
    """One normalizer orbit of components with a fixed exact isotropy."""

    __slots__ = (
        "representative", "members", "stabilizer_cosets", "fiber",
        "y_poly", "x_poly",
    )

    def __init__(self, representative, members, stabilizer_cosets, fiber,
                 y_poly, x_poly):
        self.representative = representative
        self.members = members
        self.stabilizer_cosets = stabilizer_cosets
        self.fiber = fiber
        self.y_poly = y_poly
        self.x_poly = x_poly

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def stabilizer_order(self) -> int:
        return len(self.stabilizer_cosets)


class Stratum:
    """All orbits sharing one conjugacy class of isotropy groups."""

    __slots__ = (
        "isotropy", "label", "class_size", "weyl_order", "rank", "orbits",
        "fiber_plain",
    )

    def __init__(self, isotropy, label, class_size, weyl_order, rank, orbits,
                 fiber_plain):
        self.isotropy = isotropy
        self.label = label
        self.class_size = class_size
        self.weyl_order = weyl_order
        self.rank = rank
        self.orbits = orbits
        self.fiber_plain = fiber_plain

    @property
    def order(self) -> int:
        return len(self.isotropy)

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    @property
    def component_count(self) -> int:
        return sum(o.size for o in self.orbits)

    @property
    def y_poly(self) -> IntPolynomial:
        return sum((o.y_poly for o in self.orbits), IntPolynomial.zero())

    @property
    def x_poly(self) -> IntPolynomial:
        return sum((o.x_poly for o in self.orbits), IntPolynomial.zero())

    def __repr__(self):
        return (
            f"Stratum({self.label}, order={self.order}, rank={self.rank}, "
            f"orbits={self.orbit_count})"
        )


class StrataReport:
    """Result of :func:`stratify`: strata, totals, and the closure poset."""

    __slots__ = ("action", "strata", "quotient", "resolution", "closure_edges")

    def __init__(self, action, strata, quotient, resolution, closure_edges):
        self.action = action
        self.strata = strata
        self.quotient = quotient
        self.resolution = resolution
        self.closure_edges = closure_edges

    def stratum_by(self, order: int, rank: int | None = None):
        """All strata with the given isotropy order (and tangent rank)."""
        return tuple(
            s for s in self.strata
            if s.order == order and (rank is None or s.rank == rank)
        )

    @property
    def y_total(self) -> IntPolynomial:
        return sum((s.y_poly for s in self.strata), IntPolynomial.zero())

    def __repr__(self):
        return f"StrataReport({self.action.label!r}, {len(self.strata)} strata)"


# ---------------------------------------------------------------------------
# the arrangement of fixed loci


def _fixed_arrangement(action: IntegralAction,
                       budget: int = DEFAULT_ENUMERATION_BUDGET):
    """The canonical components of Fix(H) for every subgroup H, and the
    pointwise stabilizer of each, as ``(family, isotropy)``.

    Fix(1) is the whole torus, which sorts first: member 0, with isotropy
    the trivial group.  A component of an intersection of fixed loci is a
    component of the fixed locus of the subgroup the elements generate,
    so this is the closure of the element fixed loci under intersection.
    A component C of Fix(H) is a component of Fix(K) exactly for the K
    with H ≤ K ≤ Iso(C); subgroups come in increasing order, so the last
    one whose fixed locus yields C is C's pointwise stabilizer Iso(C).
    Fix(H) depends only on the lattice spanned by the rows of 1 - h for h
    in H, so ``fix_locus`` runs once per lattice (keyed by its Hermite
    basis) and every subgroup with that lattice reuses its components.

    ``budget`` bounds each distinct fixed locus's component enumeration,
    and also the family times |G|, the size of the element permutations
    that :func:`stratify` builds on it; :class:`EnumerationTooLarge` is
    raised as soon as the growing family passes it.  The family is sorted
    by (-rank, normal, shifts), the shifts compared over one common
    denominator.
    """
    seen: dict = {}
    loci: dict = {}  # row lattice -> components of its fixed locus
    for sub in action.all_subgroups():
        rows = _row_lattice(action, sub)
        comps = loci.get(rows)
        if comps is None:
            comps = loci[rows] = fix_locus(action, sub, budget=budget)
        for comp in comps:
            seen[comp.key] = (comp, sub)
        if len(seen) * action.order > budget:
            raise EnumerationTooLarge(
                f"component enumeration exceeds budget {budget}: {len(seen)} "
                f"fixed components times group order {action.order}"
            )
    den = lcm(1, *(t.den for t, _ in seen.values()))

    def order(pair):
        t = pair[0]
        scale = den // t.den
        return (-t.rank, t.normal,
                tuple(tuple(s * scale for s in copy) for copy in t.scaled_shifts))

    pairs = sorted(seen.values(), key=order)
    return [t for t, _ in pairs], [h for _, h in pairs]


def _strict_supersets(family, isotropy):
    """For each member, the ascending indices of the members strictly
    containing it.

    A member C strictly containing t has Iso(C) = H ⊊ Iso(t), and C is
    then the component of Fix(H) through t.  All components of Fix(H)
    share one normal, so C is looked up by the key of the subtorus with
    H's normal through t's points, built as a plain tuple; it is a strict
    superset exactly when its own stabilizer is H.
    """
    # many members share a point in one copy, and the points of one
    # superset share their shifts
    @lru_cache(maxsize=None)
    def moved_shift(normal, den, pt):
        return tuple(x % den for x in mat_vec(normal, pt))

    @lru_cache(maxsize=None)
    def key_of(normal, den, shifts):
        return (normal, *_reduced(den, shifts))

    index_of = {t.key: i for i, t in enumerate(family)}
    normal_of: dict = {}
    for t, h in zip(family, isotropy):
        normal_of.setdefault(h, t.normal)
    smaller = {
        iso: [(h, normal) for h, normal in normal_of.items() if h < iso]
        for iso in normal_of
    }
    supersets = []
    for t, iso in zip(family, isotropy):
        den, pts = t.scaled_points()
        above = []
        for h, normal in smaller[iso]:
            shifts = tuple(moved_shift(normal, den, pt) for pt in pts)
            j = index_of.get(key_of(normal, den, shifts))
            if j is None:
                raise ConsistencyError(
                    "the family misses a component of a fixed locus"
                )
            if isotropy[j] == h:
                above.append(j)
        supersets.append(sorted(above))
    return supersets


def _moebius_trace(subtorus, deeper, supersets, family, images, n, trace):
    """Trace of the coset of n on the open part of the subtorus.

    ``deeper`` lists, in ascending order, the family indices strictly
    inside the subtorus, and ``images`` is n's permutation of the family;
    inclusion-exclusion runs over the deeper members fixed by n.  The
    family is sorted by decreasing rank, so each member comes after its
    supersets.  ``trace(normal, n)`` is det(1 + t η)^{2d} for n's matrix η
    on the tangent lattice of ``normal``; it depends on a member only
    through its normal, so the coefficients are summed per normal and each
    normal is subtracted once.
    """
    coeff: dict[int, int] = {}
    per_normal: dict = {}
    for i in deeper:
        if images[i] != i:
            continue
        c = coeff[i] = 1 - sum(map(coeff.get, supersets[i], repeat(0)))
        if c:
            normal = family[i].normal
            per_normal[normal] = per_normal.get(normal, 0) + c
    total = trace(subtorus.normal, n)
    for normal, c in per_normal.items():
        if c:
            total = total - c * trace(normal, n)
    return total


def _element_permutations(action, family):
    """Each element's permutation of the family, composed from generators.

    A generator's image of a member is read off the member's key
    (``AffineSubtorus.image_key``): the transport of its normal is
    memoised per (normal, generator), so no member needs its lattice
    basis or points.  An element reached in the closure as ``a * g``
    sends member i to ``a(g(i))``.
    """
    index_of = {t.key: i for i, t in enumerate(family)}
    gen_perms = []
    for g in action.generators:
        perm = tuple(index_of.get(t.image_key(g)) for t in family)
        if None in perm:
            raise ConsistencyError("the family is not stable under the group")
        gen_perms.append(perm)
    perms = [None] * action.order
    perms[action._e] = tuple(range(len(family)))
    for j, k, g in action._tree:
        perms[j] = tuple(map(perms[k].__getitem__, gen_perms[g]))
    return dict(zip(action.elements, perms))


def _trace_memo(action):
    """``trace(normal, n)``: det(1 + t η)^{2d} with η the matrix of n on
    the tangent lattice of ``normal``, computed once per (normal, n)."""
    power = 2 * action.d
    traces: dict = {}

    def trace(normal, n):
        value = traces.get((normal, n))
        if value is None:
            try:
                eta = _induced_matrix(normal, action.r, n)
            except ValueError as exc:
                raise ConsistencyError(f"{exc}: {n} on normal {normal}") from None
            value = traces[normal, n] = det_one_plus_t(eta, power)
        return value

    return trace


def _trace_table(action, weyl_cosets, orbits, perms, moebius):
    """``table[c][i]``: the trace of Weyl coset c on the open part of each
    member i of ``orbits`` that c fixes.  Conjugation by S, the union of a
    representative's stabilizer cosets, fixes its open part, so its traces
    are taken once per S-class of cosets; other members' once per coset."""
    index, mult, inv = action._index_of, action._table, action._inv_of
    coset_of = {index[g]: c for c, coset in enumerate(weyl_cosets) for g in coset}
    ns = [coset[0] for coset in weyl_cosets]
    table = [{} for _ in ns]
    for rep, *others in orbits:
        stab = [c for c, n in enumerate(ns) if perms[n][rep] == rep]
        conjugators = [index[ns[c]] for c in stab]
        for c, x in zip(stab, conjugators):
            if rep not in table[c]:
                value = moebius(rep, ns[c])
                for s in conjugators:
                    table[coset_of[mult[mult[s][x]][inv[s]]]][rep] = value
        for c, n in enumerate(ns):
            table[c].update((i, moebius(i, n)) for i in others if perms[n][i] == i)
    return table


def _orbit_labels(action, perms):
    """For each member, the least index in its G-orbit, walked along the
    generators' permutations only."""
    steps = [perms[g] for g in action.generators]
    label = [None] * len(steps[0])
    for start in range(len(label)):
        if label[start] is None:
            label[start] = start
            frontier = [start]
            while frontier:
                i = frontier.pop()
                for images in steps:
                    j = images[i]
                    if label[j] is None:
                        label[j] = start
                        frontier.append(j)
    return label


def _average(total: IntPolynomial, count: int) -> IntPolynomial:
    """total / count, which must be exact."""
    if any(c % count for c in total.coeffs):
        raise ConsistencyError(f"{total} does not average over {count} cosets")
    return total.divide_exact(count)


def stratify(action: IntegralAction,
             budget: int = DEFAULT_ENUMERATION_BUDGET) -> StrataReport:
    """Full isotropy stratification with per-stratum polynomials.

    ``budget`` bounds the component enumeration of each fixed locus, and
    the family times |G|; :class:`~kummer.toruslat.EnumerationTooLarge`
    is raised beyond it.

    >>> from .catalog import catalog
    >>> report = stratify(catalog("z6_sl2"))
    >>> print(report.resolution)
    1 + 22*t^2 + t^4
    """
    poset = subgroup_class_poset(action)
    family, isotropy = _fixed_arrangement(action, budget)
    perms = _element_permutations(action, family)
    trace = _trace_memo(action)
    label = _orbit_labels(action, perms)

    # strict containments: supersets[i] = indices of members strictly above i,
    # subsets[j] = indices of members strictly inside j
    supersets = _strict_supersets(family, isotropy)
    subsets: list[list[int]] = [[] for _ in family]
    for i, above in enumerate(supersets):
        for j in above:
            subsets[j].append(i)

    # group components by their exact isotropy subgroup
    by_subgroup: dict[frozenset, list[int]] = {}
    for i, h in enumerate(isotropy):
        by_subgroup.setdefault(h, []).append(i)

    # one stratum per occurring class of isotropy groups, the open stratum
    # of the trivial group first; the family is stable under the group, so
    # every occurring class representative occurs itself
    strata = []
    reps = []  # family index of each orbit representative, over all strata
    label_count: dict[int, int] = {}
    zero = IntPolynomial.zero()

    occurring = sorted({poset.class_of(h) for h in by_subgroup})
    for cls in (poset.classes[k] for k in occurring):
        subgroup, weyl_cosets = cls.representative, cls.weyl_cosets
        members = by_subgroup[subgroup]
        # the members of one G-orbit whose isotropy is exactly H form one
        # orbit of its normalizer
        orbit_members: dict[int, list[int]] = {}
        for i in members:
            orbit_members.setdefault(label[i], []).append(i)
        table = _trace_table(
            action, weyl_cosets, orbit_members.values(), perms,
            lambda i, n: _moebius_trace(family[i], subsets[i], supersets,
                                        family, perms[n], n, trace))
        fiber = fiber_poincare_equivariant(action, subgroup, weyl_cosets, action.d)
        orbits = []
        for orbit in orbit_members.values():
            rep = orbit[0]
            # stabilizer of the representative inside the Weyl group
            stab = [c for c, row in enumerate(table) if rep in row]
            if len(stab) * len(orbit) != len(weyl_cosets):
                raise ConsistencyError(
                    f"orbit of size {len(orbit)} and stabilizer of order "
                    f"{len(stab)} in a Weyl group of order {len(weyl_cosets)}"
                )
            y_sum = sum((table[c][rep] for c in stab), zero)
            x_sum = sum((table[c][rep] * fiber.values[c] for c in stab), zero)
            orbits.append(ComponentOrbit(
                family[rep], tuple(family[i] for i in orbit),
                tuple(weyl_cosets[c] for c in stab),
                FiberPolynomial(fiber.plain, fiber.class_ages,
                                [fiber.values[c] for c in stab]),
                _average(y_sum, len(stab)), _average(x_sum, len(stab)),
            ))
            reps.append(rep)

        # over all members and the whole Weyl group, each orbit's traces
        # add up to |W| times its average
        table_sum = sum((t for row in table for t in row.values()), zero)
        if table_sum != len(weyl_cosets) * sum((o.y_poly for o in orbits), zero):
            raise ConsistencyError("orbit/stabilizer bookkeeping is inconsistent")

        order = len(subgroup)
        label_count[order] = label_count.get(order, 0) + 1
        suffix = chr(ord("a") + label_count[order] - 1)
        strata.append(Stratum(
            subgroup, "1" if order == 1 else f"o{order}{suffix}", cls.size,
            len(weyl_cosets), family[members[0]].rank, tuple(orbits), fiber.plain,
        ))

    quotient = quotient_poincare(action)
    resolution = sum((s.x_poly for s in strata), zero)

    # closure poset: orbit node a lies in the closure of orbit node b when
    # some G-translate of b's representative strictly contains a's.  The
    # orbit nodes are the G-orbits of members, named by their labels
    nodes = [(si, oi) for si, s in enumerate(strata) for oi in range(len(s.orbits))]
    node_of = {label[rep]: b for b, rep in enumerate(reps)}
    edges = [
        (nodes[b], nodes[a])
        for a, rep in enumerate(reps)
        for b in sorted({node_of[label[j]] for j in supersets[rep]})
    ]

    report = StrataReport(action, tuple(strata), quotient, resolution, tuple(edges))
    if report.y_total != quotient:
        raise ConsistencyError(
            f"strata sum to {report.y_total}, not the quotient polynomial {quotient}"
        )
    return report


def stratum_closure_quotient_poincare(orbit: ComponentOrbit, d: int) -> IntPolynomial:
    """Quotient polynomial of the closed image of one component orbit.

    Averages the torus traces of the stabilizer over the representative,
    with no deeper-locus subtraction (translations do not act on
    cohomology).
    """
    power = 2 * d
    total = IntPolynomial.zero()
    for coset in orbit.stabilizer_cosets:
        eta = orbit.representative.induced_lattice_matrix(coset[0])
        total = total + det_one_plus_t(eta, power)
    return total.divide_exact(len(orbit.stabilizer_cosets))


# ---------------------------------------------------------------------------
# manual strata ledgers


class ParamPoly:
    """A polynomial with coefficients linear in one integer parameter."""

    __slots__ = ("const", "linear")

    def __init__(self, const=None, linear=None):
        self.const = const if const is not None else IntPolynomial.zero()
        self.linear = linear if linear is not None else IntPolynomial.zero()

    def __add__(self, other):
        return ParamPoly(self.const + other.const, self.linear + other.linear)

    def __sub__(self, other):
        return ParamPoly(self.const - other.const, self.linear - other.linear)

    def times_poly(self, p: IntPolynomial) -> "ParamPoly":
        return ParamPoly(self.const * p, self.linear * p)

    def substitute(self, value: int) -> IntPolynomial:
        return self.const + value * self.linear

    def __eq__(self, other):
        return (
            isinstance(other, ParamPoly)
            and self.const == other.const
            and self.linear == other.linear
        )

    def __repr__(self):
        return f"ParamPoly(const={self.const!r}, linear={self.linear!r})"


class LedgerResult:
    __slots__ = ("symbolic", "value", "parameter", "substitution")

    def __init__(self, symbolic, value, parameter, substitution):
        self.symbolic = symbolic
        self.value = value
        self.parameter = parameter
        self.substitution = substitution


def _ledger_coeffs(obj) -> IntPolynomial:
    try:
        return IntPolynomial(obj)
    except TypeError as exc:
        raise MalformedLedger(f"bad polynomial {obj!r}: {exc}") from None


def _ledger_poly(obj, parameter) -> ParamPoly:
    if isinstance(obj, list):
        return ParamPoly(_ledger_coeffs(obj))
    if isinstance(obj, dict):
        if "molien" in obj:
            spec = obj["molien"]
            try:
                gens = [tuple(tuple(int(x) for x in row) for row in g)
                        for g in spec["generators"]]
                d = int(spec["d"])
                if d < 1:
                    raise ValueError("d must be a positive integer")
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedLedger(f"bad molien spec: {exc}") from None
            from .groupcore import generate_group

            return ParamPoly(quotient_poincare(generate_group(gens, d=d)))
        const = _ledger_coeffs(obj.get("const", []))
        lin = _ledger_coeffs(obj.get("param", []))
        if lin and parameter is None:
            raise MalformedLedger("parameter used but not declared")
        return ParamPoly(const, lin)
    raise MalformedLedger(f"cannot read polynomial from {obj!r}")


def _ledger_scalar(obj, parameter):
    if isinstance(obj, int):
        return (obj, 0)
    if isinstance(obj, dict):
        try:
            c = int(obj.get("const", 0))
            m = int(obj.get("param", 0))
        except (TypeError, ValueError):
            raise MalformedLedger(f"cannot read multiplicity from {obj!r}") from None
        if m and parameter is None:
            raise MalformedLedger("parameter used but not declared")
        return (c, m)
    raise MalformedLedger(f"cannot read multiplicity from {obj!r}")


def assemble_from_ledger(doc: dict) -> LedgerResult:
    """Evaluate a hand-authored strata ledger.

    Each entry contributes ``(base - sum(mult * poly)) * fiber``; base
    coefficients and multiplicities may be linear in one declared integer
    parameter, and an optional substitution map produces a plain result.

    >>> res = assemble_from_ledger({"entries": []})
    >>> res.symbolic.const
    IntPolynomial([])
    """
    if not isinstance(doc, dict) or "entries" not in doc:
        raise MalformedLedger("ledger must be a mapping with an 'entries' list")
    parameter = doc.get("parameter")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise MalformedLedger("'entries' must be a list")
    total = ParamPoly()
    for entry in entries:
        if not isinstance(entry, dict) or "base" not in entry:
            raise MalformedLedger(f"bad entry {entry!r}")
        base = _ledger_poly(entry["base"], parameter)
        fiber = _ledger_coeffs(entry.get("fiber", [1]))
        subtractions = entry.get("subtract", [])
        if not isinstance(subtractions, list):
            raise MalformedLedger(f"'subtract' must be a list, not {subtractions!r}")
        for sub in subtractions:
            if not isinstance(sub, dict) or "poly" not in sub:
                raise MalformedLedger(f"bad subtraction {sub!r}")
            c, m = _ledger_scalar(sub.get("multiplicity", 1), parameter)
            poly = _ledger_coeffs(sub["poly"])
            base = base - ParamPoly(c * poly, m * poly)
        total = total + base.times_poly(fiber)
    substitution = doc.get("substitution")
    value = None
    if substitution is not None:
        if parameter is None:
            value = total.substitute(0)
            if total.linear:
                raise MalformedLedger("substitution given but no parameter declared")
        else:
            try:
                value = total.substitute(int(substitution[parameter]))
            except (KeyError, TypeError, ValueError):
                raise MalformedLedger(
                    f"substitution must give an integer for {parameter!r}"
                ) from None
    elif not total.linear:
        value = total.const
    return LedgerResult(total, value, parameter, substitution)
