"""Isotropy stratification and the resolution Poincaré polynomial.

The quotient of the torus power decomposes into locally closed strata,
one per conjugacy class of occurring isotropy groups.  Each stratum is
computed from traces on the cohomology of fixed loci, once per class of
subgroups, with exact equivariant bookkeeping and no list of components:

* f(L, w) is the trace of w on the cohomology of Fix(L), for w
  normalizing L.  It takes one Smith form U M V = D of the lattice M
  spanned by the rows of 1 - l, l in L: with A = V^-1 w V, the components
  of Fix(L) are the torsion coordinates z in the sum of the Z/d_i, which
  w maps by B_ij = d_i A_ij / d_j.  So w fixes |coker [B - I | D]|^{2d}
  of them, on each with the trace det(1 + t A_free)^{2d} of A's block on
  the free coordinates;
* g(L, w) is the trace of w on the cohomology with compact supports of
  the points whose isotropy is exactly L.  It is f(L, w) minus g(L', w)
  over the overgroups L' of L that w normalizes and that occur, i.e.
  g(L', 1) != 0.  R fixes Fix(R) pointwise, so g(R, w) depends only on
  the class of wR in the Weyl group N(R)/R; since g(k R k^-1, w) =
  g(R, k^-1 w k), g is memoised per class representative R and Weyl class;
* a stratum's quotient polynomial y_H averages g(H, w) over N(H), and its
  share x_H of the resolution weights each w by its trace on the McKay
  fiber first, w taken once per Weyl class of H, as is the fiber's
  character, a class function too.  The rank, the components and the
  orbits are the top degree of g(H, 1) over 2d and the top coefficients
  of g(H, 1) and y_H;
* the orbit detail (``Stratum.orbits``) and the closure edges are built
  when first read, for the class representatives H only, in the same
  frames: a component is one z per copy, which a matrix carrying one
  fixed locus into another maps by B (``_component_map``).  Its isotropy
  is larger than H iff it is one of Fix(S), S > H occurring, of its rank.

Summing the unweighted strata must reproduce the quotient polynomial,
and the weighted total evaluated at -1 must match the orbifold Euler
number; both identities are asserted by the test suite on every catalog
action.  The resolution total is what the locally-product and McKay
hypotheses predict; the hypotheses themselves are recorded, not checked.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from math import comb, prod
from operator import and_, mul

from .exactalg import (
    ConsistencyError, IntPolynomial, det_one_plus_t, hermite_normal_form,
    identity_matrix, mat_mul, smith_normal_form,
)
from .groupcore import (
    DEFAULT_ORDER_CAP, IntegralAction, _mask_key, _row_lattice, generate_group,
)
from .mckay import FiberPolynomial, _class_ages, fiber_poincare_equivariant
from .repring import _average, quotient_poincare
from .toruslat import DEFAULT_ENUMERATION_BUDGET, EnumerationTooLarge


class MalformedLedger(ValueError):
    """A ledger document does not follow the expected schema."""


class TerminalStratum(ValueError):
    """A stratum's isotropy has no junior class, so its transverse
    singularity is terminal and no crepant resolution exists (Reid-Tai)."""


class ComponentOrbit:
    """One normalizer orbit of components of Fix(H) with isotropy exactly H.

    A member is a component's torsion coordinates in the Smith frame
    U M V = D of H's row lattice M: one z per copy, 0 <= z_i < d_i, and
    V (z/d, 0) is a point of it.  Members are in ``fix_locus`` order, and
    the representative is the first.  ``stabilizer_cosets`` are the Weyl
    cosets (index tuples of the lattice record) that fix it.
    """

    __slots__ = ("representative", "members", "stabilizer_cosets", "fiber")

    def __init__(self, representative, members, stabilizer_cosets, fiber):
        self.representative = representative
        self.members = members
        self.stabilizer_cosets = stabilizer_cosets
        self.fiber = fiber

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def stabilizer_order(self) -> int:
        return len(self.stabilizer_cosets)


class Stratum:
    """All orbits sharing one conjugacy class of isotropy groups.

    ``orbits`` is built on first read and checked against the counts on each read.
    """

    __slots__ = (
        "isotropy", "label", "class_size", "weyl_order", "rank",
        "component_count", "orbit_count", "y_poly", "x_poly", "fiber_plain",
        "_classes", "_index",
    )

    def __init__(self, isotropy, label, class_size, weyl_order, rank,
                 component_count, orbit_count, y_poly, x_poly, fiber_plain,
                 classes, index):
        self.isotropy = isotropy
        self.label = label
        self.class_size = class_size
        self.weyl_order = weyl_order
        self.rank = rank
        self.component_count = component_count
        self.orbit_count = orbit_count
        self.y_poly = y_poly
        self.x_poly = x_poly
        self.fiber_plain = fiber_plain
        self._classes = classes
        self._index = index

    @property
    def order(self) -> int:
        return len(self.isotropy)

    @property
    def orbits(self) -> tuple[ComponentOrbit, ...]:
        orbits = self._classes.orbits(self._index)
        if (len(orbits), sum(o.size for o in orbits)) != (
                self.orbit_count, self.component_count):
            raise ConsistencyError("orbit/stabilizer bookkeeping is inconsistent")
        return orbits

    def __repr__(self):
        return (
            f"Stratum({self.label}, order={self.order}, rank={self.rank}, "
            f"orbits={self.orbit_count})"
        )


class StrataReport:
    """Result of :func:`stratify`: strata, totals, and the closure poset,
    which is built on first read."""

    __slots__ = ("action", "strata", "quotient", "resolution", "_classes", "_edges")

    def __init__(self, action, strata, quotient, resolution, classes):
        self.action = action
        self.strata = strata
        self.quotient = quotient
        self.resolution = resolution
        self._classes = classes
        self._edges = None

    @property
    def y_total(self) -> IntPolynomial:
        return sum((s.y_poly for s in self.strata), IntPolynomial.zero())

    @property
    def closure_edges(self) -> tuple:
        if self._edges is None:
            self._edges = self._classes.closure_edges(self.strata)
        return self._edges

    def __repr__(self):
        return f"StrataReport({self.action.label!r}, {len(self.strata)} strata)"


# ---------------------------------------------------------------------------
# traces on fixed loci


@lru_cache(maxsize=None)
def _frame(rows, r: int):
    """``(V, V^-1, divisors)`` from the Smith form U rows V = D of a row
    lattice, V^-1 as the form kept it; the identity frame when there are no rows."""
    if not rows:
        return identity_matrix(r), identity_matrix(r), ()
    snf = smith_normal_form(rows)
    if mat_mul(snf.v, snf.v_inv) != identity_matrix(r):
        raise ConsistencyError(f"Smith transform {snf.v} times {snf.v_inv} is not I")
    return snf.v, snf.v_inv, snf.divisors


def _component_map(a, source, target):
    """B_ij = target_i a_ij / source_j, with which the framed matrix a carries
    component z of a fixed locus with Smith divisors ``source`` to B z of one
    with ``target``; a must be 0 from free columns to torsion rows."""
    k = len(target)
    if any(a[i][j] for i in range(k) for j in range(len(source), len(a))) or any(
            target[i] * a[i][j] % dj for i in range(k) for j, dj in enumerate(source)):
        raise ConsistencyError(f"matrix does not preserve the lattice: {a} from "
                               f"divisors {source} to {target}")
    return tuple(tuple(target[i] * a[i][j] // dj for j, dj in enumerate(source))
                 for i in range(k))


def _fixed_trace(action: IntegralAction, rows, w) -> IntPolynomial:
    """f: the trace of the matrix w on the cohomology of the fixed locus
    {x : rows x = 0 mod Z^k} of a row lattice, which w must preserve; with no
    rows, the whole torus's det(1 + t w)^{2d}, which quotient_poincare reads."""
    v, v_inv, divs = _frame(rows, action.r)
    k, power = len(divs), 2 * action.d
    if w == action.identity:  # every component, each with trace (1 + t)^{2d(r - k)}
        n, count = power * (action.r - k), prod(divs) ** power
        return IntPolynomial._of([count * comb(n, i) for i in range(n + 1)])
    if not rows:
        return det_one_plus_t(w, power)
    a = mat_mul(mat_mul(v_inv, w), v)
    b = _component_map(a, divs, divs)
    free = det_one_plus_t(tuple(row[k:] for row in a[k:]), power)
    if prod(divs) == 1:
        return free  # Fix(L) is connected, and w fixes its one component
    # the columns of [B - I | D], whose lattice has index |coker [B - I | D]|
    columns = [[b[i][j] - (i == j) for i in range(k)] for j in range(k)]
    columns += [[dv * (i == j) for i in range(k)] for j, dv in enumerate(divs)]
    fixed = prod(row[i] for i, row in enumerate(hermite_normal_form(columns, k)))
    return fixed ** power * free


def _degree_within(action: IntegralAction, budget: int) -> None:
    """``EnumerationTooLarge`` if a product of two of the action's
    polynomials, of degree 2rd, takes more than ``budget`` coefficient
    products, (2rd + 1)^2."""
    degree = 2 * action.r * action.d
    if (degree + 1) ** 2 > budget:
        raise EnumerationTooLarge(
            f"polynomial degree 2rd = {degree} exceeds budget {budget}: "
            f"(2rd + 1)^2 = {(degree + 1) ** 2} coefficient products")


class _Classes:
    """The traces g(R, w) per subgroup class and class of its Weyl group
    N(R)/R, and the orbit detail and closure edges built from the class
    representatives' components; class c is the lattice record ``classes[c]``,
    whose one grouping of R's cosets in N(R), by index, the Weyl classes,
    the fiber and the orbits share.  The occurring overgroups that g
    subtracts are the one test of a component's isotropy."""

    def __init__(self, action: IntegralAction, budget: int):
        self.action, self.budget, self.classes = action, budget, action._lattice
        self.rows, self.over = {}, {}
        self.fibers, self.detail, self.coords = {}, {}, {}
        self.memo: dict = {}

    def _prepare(self, c):
        action, cls = self.action, self.classes[c]
        # <g> for g an element class's representative: its record took the form
        record = len(cls.gens) == 1 and action._classes[action._class_number[cls.gens[0]]]
        rows = self.rows[c] = (record.rows if record and record.rep == cls.gens[0]
                               else _row_lattice(action, [action.elements[g] for g in cls.gens]))
        # |pi_0 Fix(R)| = base^power, before any trace; it exceeds the
        # budget unformed when base > 1 and power exceeds its bit length
        base, power = prod(_frame(rows, action.r)[2]), 2 * action.d
        small = base == 1 or power <= self.budget.bit_length()
        if not small or base ** power > self.budget:
            count = base ** power if small else f"{base}^{power}"
            raise EnumerationTooLarge(
                f"component enumeration exceeds budget {self.budget}: Fix of a subgroup of "
                f"order {cls.order} has {count} components")
        # the occurring strict overgroups k R k^-1 of R, among the later
        # classes' members; asking a class whether it occurs prepares it, so
        # the classes are asked in the order of their least member over R by
        # (order, sorted elements), which fixes the class a budget error names
        above = []
        for c2, cls2 in enumerate(self.classes[c + 1:], c + 1):
            subs = [(sub, k) for sub, k in zip(cls2.members, cls2.conjugators)
                    if sub & cls.mask == cls.mask]
            if subs:
                above.append((min(_mask_key(sub) for sub, _ in subs), c2, subs))
        over = []
        for _, c2, subs in sorted(above):
            if self.g(c2, action._e):
                over.extend((c2, k, action._inv_of[k]) for _, k in subs)
        self.over[c] = over

    def g(self, c, w) -> IntPolynomial:
        """g(R, w) for R the representative of class c and w in N(R)."""
        if c not in self.over:
            self._prepare(c)
        cls = self.classes[c]
        key = (c, 0 if w == self.action._e else cls.weyl_classes[1][cls.coset_of[w]])
        value = self.memo.get(key)
        if value is None:
            if not self.memo:  # before the first trace
                _degree_within(self.action, self.budget)
            table = self.action._table
            value = _fixed_trace(self.action, self.rows[c], self.action.elements[w])
            for c2, k, k_inv in self.over[c]:
                w2 = table[table[k_inv][w]][k]
                if self.classes[c2].norm >> w2 & 1:
                    value = value - self.g(c2, w2)
            self.memo[key] = value
        return value

    def _coords(self, c):
        """``(V, V^-1, divisors, zs, index_of)`` for class c: its Smith frame
        and one copy's torsion coordinates z, in fix_locus order and numbered."""
        if c not in self.coords:
            v, v_inv, divs = _frame(self.rows[c], self.action.r)
            top = max(divs, default=1)
            # ordered by the shifts N V (z/d), times top, N the Hermite
            # annihilator of the free columns of V
            normal = hermite_normal_form(v_inv[:len(divs)], self.action.r)
            nv = [[sum(map(mul, n, col)) * (top // dj) for col, dj in zip(zip(*v), divs)]
                  for n in normal]
            shift = {z: tuple(sum(map(mul, row, z)) % top for row in nv)
                     for z in product(*map(range, divs))}
            zs = sorted(shift, key=shift.get)
            self.coords[c] = v, v_inv, divs, zs, {z: i for i, z in enumerate(zs)}
        return self.coords[c]

    def _carry(self, g, source, target):
        """Per copy, the position among class ``target``'s components of the
        one that the matrix g carries each of class ``source``'s into."""
        v, _, divs, zs, _ = self._coords(source)
        _, v_inv, tdivs, _, index_of = self._coords(target)
        b = _component_map(mat_mul(mat_mul(v_inv, g), v), divs, tdivs)
        return [index_of[tuple(sum(map(mul, row, z)) % dv for row, dv in zip(b, tdivs))]
                for z in zs]

    def orbits(self, c) -> tuple[ComponentOrbit, ...]:
        """The N(H)-orbits of the components of Fix(H) (one z per copy) with
        isotropy exactly H, by least member and led by it.  A component's
        isotropy S occurs, and the component is one of Fix(S), of its rank."""
        if c not in self.detail:
            action, cls, fiber = self.action, self.classes[c], self.fibers[c]
            class_of = cls.weyl_classes[1]
            _, _, divs, zs, _ = self._coords(c)
            # per copy's z, a bit for each such S = k R k^-1 whose fixed locus
            # has it: k carries the components of Fix(R) onto those of Fix(S)
            fixed = [0] * len(zs)
            for t, (c2, k, _) in enumerate(self.over[c]):
                if len(_frame(self.rows[c2], action.r)[2]) == len(divs):
                    for i in self._carry(action.elements[k], c2, c):
                        fixed[i] |= 1 << t
            # H fixes Fix(H) pointwise, so one element per Weyl coset gives
            # the whole N(H)-action on its components
            weyl = [self._carry(action.elements[coset[0]], c, c) for coset in cls.cosets]
            orbits, orbit_of, starts = [], {}, []
            for start in product(range(len(zs)), repeat=2 * action.d):
                if start in orbit_of or reduce(and_, map(fixed.__getitem__, start)):
                    continue
                images = [tuple(map(perm.__getitem__, start)) for perm in weyl]
                orbit = sorted(set(images))
                stab = [i for i, y in enumerate(images) if y == start]
                if len(stab) * len(orbit) != len(weyl):
                    raise ConsistencyError(
                        f"orbit of size {len(orbit)} and stabilizer of order "
                        f"{len(stab)} in a Weyl group of order {len(weyl)}"
                    )
                orbit_of.update(dict.fromkeys(orbit, len(orbits)))
                starts.append(start)
                members = tuple(tuple(map(zs.__getitem__, x)) for x in orbit)
                orbits.append(ComponentOrbit(
                    members[0], members, tuple(cls.cosets[i] for i in stab),
                    FiberPolynomial(fiber.plain, [fiber.values[class_of[i]] for i in stab]),
                ))
            self.detail[c] = tuple(orbits), orbit_of, fixed, starts
        return self.detail[c][0]

    def closure_edges(self, strata) -> tuple:
        """(b, a) for orbit nodes a, b when some G-translate of b's
        representative strictly contains a's, ordered by a, then by b."""
        action = self.action
        node = {(s._index, oi): (si, oi)
                for si, s in enumerate(strata) for oi in range(len(s.orbits))}
        edges = []
        for si, s in enumerate(strata):
            # the members strictly containing a component with isotropy H
            # are, one each, the components through it of Fix(L), L < H of
            # a larger rank, whose isotropy is exactly L.  H fixes Fix(H)
            # pointwise, so H-conjugate L give the same map, kept once
            c, cls, above = s._index, self.classes[s._index], {}
            for t in strata[:si]:
                if t.rank == s.rank:
                    continue
                tcls = self.classes[t._index]
                for sub, k in zip(tcls.members, tcls.conjugators):
                    if not sub & ~cls.mask:
                        # k^-1 maps Fix(H) into Fix(R), component by component
                        carried = self._carry(action.elements[action._inv_of[k]], c, t._index)
                        above[t._index, tuple(carried)] = self.detail[t._index][1:3]
            for oi, start in enumerate(self.detail[c][3]):
                targets = set()
                for (c2, carried), (orbit_of, fixed) in above.items():
                    key = tuple(map(carried.__getitem__, start))
                    if key in orbit_of:
                        targets.add(node[c2, orbit_of[key]])
                    elif not reduce(and_, map(fixed.__getitem__, key)):  # exactly L
                        raise ConsistencyError("the orbits miss a component of a "
                                               "fixed locus")
                edges.extend((b, node[c, oi]) for b in sorted(targets))
        return tuple(edges)


def stratify(action: IntegralAction,
             budget: int = DEFAULT_ENUMERATION_BUDGET) -> StrataReport:
    """Full isotropy stratification with per-stratum polynomials.

    ``budget`` bounds the number of components of Fix(H) for the
    representative H of every subgroup class, read off the Smith divisors
    before the class's first trace, and the (2rd + 1)^2 coefficient products
    of a product of two traces, before the first trace;
    :class:`~kummer.toruslat.EnumerationTooLarge` is raised beyond it, and
    :class:`~kummer.mckay.NonIntegerAge` before the lattice.  A stratum
    H != 1 whose McKay fiber has no t^2 term raises :class:`TerminalStratum`.

    >>> from .catalog import catalog
    >>> report = stratify(catalog("z6_sl2"))
    >>> print(report.resolution)
    1 + 22*t^2 + t^4
    """
    _class_ages(action, range(len(action._classes)))  # before the lattice
    classes = _Classes(action, budget)
    strata, label_count, zero = [], {}, IntPolynomial.zero()
    power = 2 * action.d
    for c, cls in enumerate(classes.classes):
        top = classes.g(c, action._e)
        if not top:
            continue  # no point has isotropy exactly H
        order, weyl_order = cls.order, len(cls.cosets)
        label_count[order] = label_count.get(order, 0) + 1
        suffix = chr(ord("a") + label_count[order] - 1)
        label = "1" if order == 1 else f"o{order}{suffix}"
        fiber = classes.fibers[c] = fiber_poincare_equivariant(
            action, cls.mask, [w for w, _ in cls.weyl_classes[0]], cls.gens)
        if order > 1 and not fiber.plain[2]:
            raise TerminalStratum(
                f"stratum {label} has no junior class: its isotropy of order "
                f"{order} gives a terminal singularity, so there is no crepant resolution")
        y_sum = x_sum = zero
        for (w, cosets), character in zip(cls.weyl_classes[0], fiber.values):
            trace = len(cosets) * order * classes.g(c, w)
            y_sum = y_sum + trace
            x_sum = x_sum + trace * character
        normalizer_order = order * weyl_order
        y_poly = _average(y_sum, normalizer_order)
        strata.append(Stratum(
            cls.representative, label, cls.size, weyl_order, top.degree // power,
            top[top.degree], y_poly[top.degree], y_poly, _average(x_sum, normalizer_order),
            fiber.plain, classes, c,
        ))

    quotient = quotient_poincare(action)
    resolution = sum((s.x_poly for s in strata), zero)
    report = StrataReport(action, tuple(strata), quotient, resolution, classes)
    if report.y_total != quotient:
        raise ConsistencyError(
            f"strata sum to {report.y_total}, not the quotient polynomial {quotient}"
        )
    return report


# ---------------------------------------------------------------------------
# manual strata ledgers


class LedgerResult:
    """A ledger's total ``const + parameter * linear``, and ``value``, the
    total at the substitution (``None`` if the total needs one not given)."""

    __slots__ = ("const", "linear", "value", "parameter", "substitution")

    def __init__(self, const, linear, value, parameter, substitution):
        self.const = const
        self.linear = linear
        self.value = value
        self.parameter = parameter
        self.substitution = substitution


def _ledger_coeffs(obj) -> IntPolynomial:
    try:
        if not isinstance(obj, list):
            raise TypeError("not a list")
        for c in obj:
            if isinstance(c, bool):
                raise TypeError(f"non-integer coefficient {c!r}")
        return IntPolynomial(obj)
    except TypeError as exc:
        raise MalformedLedger(f"bad polynomial {obj!r}: {exc}") from None


def _ledger_poly(obj, parameter, cap: int,
                 budget: int) -> tuple[IntPolynomial, IntPolynomial]:
    """The ``(const, linear)`` parts of a ledger polynomial."""
    if isinstance(obj, list):
        return _ledger_coeffs(obj), IntPolynomial.zero()
    if isinstance(obj, dict) and obj:
        if "molien" in obj:
            _only_keys(obj, ("molien",), "a molien base", MalformedLedger)
            spec = obj["molien"]
            _only_keys(spec, ("generators", "d"), "a molien spec", MalformedLedger)
            try:
                gens = _ledger_matrices(spec["generators"])
                d = _ledger_int(spec["d"])
                if d < 1:
                    raise ValueError("d must be a positive integer")
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedLedger(f"bad molien spec: {exc}") from None
            group = generate_group(gens, cap=cap, d=d)
            _degree_within(group, budget)
            return quotient_poincare(group), IntPolynomial.zero()
        _only_keys(obj, ("const", "param"), "a polynomial", MalformedLedger)
        const = _ledger_coeffs(obj.get("const", []))
        lin = _ledger_coeffs(obj.get("param", []))
        if lin and parameter is None:
            raise MalformedLedger("parameter used but not declared")
        return const, lin
    raise MalformedLedger(f"cannot read polynomial from {obj!r}")


def _ledger_int(obj) -> int:
    """``int(obj)``, refusing booleans, strings and numbers it would truncate."""
    if isinstance(obj, (bool, str)) or (isinstance(obj, float) and not obj.is_integer()):
        raise ValueError(f"{obj!r} is not an integer")
    return int(obj)


def _ledger_matrices(obj) -> list:
    """Integer matrices by :func:`_ledger_int`, refusing 0 x 0 ones (rank 0 is for S_1)."""
    matrices = [tuple(tuple(_ledger_int(x) for x in row) for row in m) for m in obj]
    if matrices and not any(matrices):
        raise ValueError("the matrices are 0 x 0: a torus of dimension 0")
    return matrices


def _only_keys(obj, keys, what: str, error=ValueError) -> None:
    """Refuse, with ``error``, a key of the mapping ``obj`` outside ``keys``:
    a key that nothing reads is a typo that would change the answer unseen.
    Anything but a mapping is left to its reader."""
    for key in obj if isinstance(obj, dict) else ():
        if key not in keys:
            raise error(f"unknown key {key!r} in {what}")


def _ledger_scalar(obj, parameter):
    if isinstance(obj, int) and not isinstance(obj, bool):
        return (obj, 0)
    if isinstance(obj, dict) and obj:
        _only_keys(obj, ("const", "param"), "a multiplicity", MalformedLedger)
        try:
            c = _ledger_int(obj.get("const", 0))
            m = _ledger_int(obj.get("param", 0))
        except (TypeError, ValueError) as exc:
            raise MalformedLedger(f"cannot read multiplicity from {obj!r}: {exc}") from None
        if m and parameter is None:
            raise MalformedLedger("parameter used but not declared")
        return (c, m)
    raise MalformedLedger(f"cannot read multiplicity from {obj!r}")


def assemble_from_ledger(doc: dict, cap: int = DEFAULT_ORDER_CAP,
                         budget: int = DEFAULT_ENUMERATION_BUDGET) -> LedgerResult:
    """Evaluate a hand-authored strata ledger.

    Each entry contributes ``(base - sum(mult * poly)) * fiber``; base
    coefficients and multiplicities may be linear in one declared integer
    parameter, named by a string, and a substitution, which maps that name
    and no other to an integer, produces a plain result.  A molien spec's
    group is closed under the order cap ``cap``, and its polynomials of
    degree 2rd are refused as in :func:`stratify` when (2rd + 1)^2 exceeds
    ``budget``.

    >>> res = assemble_from_ledger({"entries": []})
    >>> res.const
    IntPolynomial([])
    """
    if not isinstance(doc, dict) or "entries" not in doc:
        raise MalformedLedger("ledger must be a mapping with an 'entries' list")
    _only_keys(doc, ("entries", "parameter", "substitution", "label"), "the ledger",
               MalformedLedger)
    parameter, substitution = doc.get("parameter"), doc.get("substitution")
    if parameter is not None and not isinstance(parameter, str):
        raise MalformedLedger(f"parameter {parameter!r} is not a string")
    if substitution is not None and parameter is None:
        raise MalformedLedger("substitution given but no parameter declared")
    _only_keys(substitution, (parameter,), "the substitution", MalformedLedger)
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise MalformedLedger("'entries' must be a list")
    const = linear = IntPolynomial.zero()
    for entry in entries:
        if not isinstance(entry, dict) or "base" not in entry:
            raise MalformedLedger(f"bad entry {entry!r}")
        _only_keys(entry, ("base", "fiber", "subtract", "label"), "an entry", MalformedLedger)
        base, base_linear = _ledger_poly(entry["base"], parameter, cap, budget)
        fiber = _ledger_coeffs(entry.get("fiber", [1]))
        subtractions = entry.get("subtract", [])
        if not isinstance(subtractions, list):
            raise MalformedLedger(f"'subtract' must be a list, not {subtractions!r}")
        for sub in subtractions:
            if not isinstance(sub, dict) or "poly" not in sub:
                raise MalformedLedger(f"bad subtraction {sub!r}")
            _only_keys(sub, ("poly", "multiplicity", "label"), "a subtraction",
                       MalformedLedger)
            c, m = _ledger_scalar(sub.get("multiplicity", 1), parameter)
            poly = _ledger_coeffs(sub["poly"])
            base, base_linear = base - c * poly, base_linear - m * poly
        const, linear = const + base * fiber, linear + base_linear * fiber
    # an undeclared parameter is refused where it is used, so then linear is 0
    value = None
    if substitution is not None:
        try:
            value = const + _ledger_int(substitution[parameter]) * linear
        except (KeyError, TypeError, ValueError):
            raise MalformedLedger(
                f"substitution must give an integer for {parameter!r}"
            ) from None
    elif not linear:
        value = const
    return LedgerResult(const, linear, value, parameter, substitution)
