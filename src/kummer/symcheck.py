"""Analytic-mode fixed-point counting and symplectic-resolution obstructions.

Some actions on a complex torus are specified only through the eigenvalue
exponents of each conjugacy class on the tangent space, with no integral
matrix model.  This module counts fixed points by the holomorphic
Lefschetz formula directly from that cyclotomic data, reports codimension
tables, tests generation by symplectic reflections, matches the action
against the classified list of quotients admitting symplectic
resolutions, and settles the small integer counting identities that such
a resolution would force.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, gcd, prod

from .exactalg import ConsistencyError, euler_phi
from .groupcore import FiniteGroup, IntegralAction
from .mckay import partitions
from .toruslat import DEFAULT_ENUMERATION_BUDGET, EnumerationTooLarge


class UnboundedSearch(ValueError):
    """A counting search was requested without bounds on the unknowns."""


class AnalyticEigenData:
    """Per-conjugacy-class tangent eigenvalue exponents for a group.

    ``exponents[i]`` is the sorted tuple of Fractions in [0, 1) for the
    i-th conjugacy class of ``group``; its length is the complex torus
    dimension.
    """

    __slots__ = ("group", "exponents")

    def __init__(self, group: FiniteGroup, exponents):
        classes = group._classes
        exps = tuple(tuple(sorted(Fraction(x) for x in e)) for e in exponents)
        if len(exps) != len(classes):
            raise ValueError("one exponent multiset per conjugacy class")
        dims = {len(e) for e in exps}
        if len(dims) != 1:
            raise ValueError("all classes must act on the same dimension")
        if dims == {0}:
            raise ValueError("every exponent list is empty: dimension 0")
        if outside := [x for e in exps for x in e if not 0 <= x < 1]:
            raise ValueError(f"exponent {outside[0]} is not in [0, 1)")
        if any(exps[0]):  # the identity's class comes first
            raise ValueError("the identity class must have all-zero exponents")
        for cls, e in zip(classes, exps):
            if any((x * cls.order).denominator != 1 for x in e):
                raise ValueError(f"exponents {e} incompatible with element order {cls.order}")
            # the action on H^1 is rational: each primitive k-th root of
            # unity occurs equally often in the doubled multiset
            if any(m % euler_phi(k) for k, m in _doubled_by_order(e).items()):
                raise ValueError(f"exponents {e} are not Galois closed")
        self.group = group
        self.exponents = exps

    @classmethod
    def from_integral(cls, action: IntegralAction) -> "AnalyticEigenData":
        """Tangent data of an integral action: d copies of each matrix.

        Read off the class records' ranks, with nothing factored: for each k
        dividing the order of g, r - rank(1 - g^k) eigenvalues of g satisfy
        x^k = 1.  Less those of exact order j for each divisor j < k of k,
        that leaves n_k of exact order k, and each primitive k-th root of
        unity occurs n_k / phi(k) times.

        >>> from .catalog import catalog
        >>> data = AnalyticEigenData.from_integral(catalog("z6_sl2"))
        >>> [" ".join(map(str, e)) for e in data.exponents]
        ['0 0', '1/2 1/2', '1/3 2/3', '1/3 2/3', '1/6 5/6', '1/6 5/6']
        """
        table, classes, exponents = action._table, action._classes, []
        for record in classes:
            g, order = record.rep, record.order
            exact, power, entries = {}, g, []
            for k in range(1, order + 1):  # power is g^k
                if order % k == 0:
                    fixed = action.r - classes[action._class_number[power]].rank
                    exact[k] = fixed - sum(n for j, n in exact.items() if k % j == 0)
                    roots = [Fraction(a, k) for a in range(k) if gcd(a, k) == 1]
                    entries += roots * (exact[k] // len(roots) * action.d)
                power = table[power][g]
            exponents.append(entries)
        return cls(action, exponents)

    @property
    def dimension(self) -> int:
        return len(self.exponents[0])

    def codimension(self, index: int) -> int:
        """Complex codimension of the fixed locus of the class."""
        e = self.exponents[index]
        return len(e) - sum(1 for x in e if x == 0)

    def is_self_dual(self) -> bool:
        """Whether every class multiset is stable under a -> 1 - a."""
        for e in self.exponents:
            mirrored = tuple(sorted((1 - x) % 1 for x in e))
            if mirrored != e:
                return False
        return True


def _doubled_by_order(exps) -> dict[int, int]:
    """Multiplicity of each denominator in the exponents and their 1 - x."""
    by_order: dict[int, int] = {}
    for x in tuple(exps) + tuple((1 - x) % 1 for x in exps):
        by_order[x.denominator] = by_order.get(x.denominator, 0) + 1
    return by_order


class LefschetzCount:
    """Outcome of the fixed-point formula for one class."""

    __slots__ = ("isolated", "count", "dimension")

    def __init__(self, isolated, count, dimension):
        self.isolated = isolated
        self.count = count
        self.dimension = dimension

    def __repr__(self):
        if self.isolated:
            return f"LefschetzCount(isolated, {self.count})"
        return f"LefschetzCount(dimension={self.dimension})"


def lefschetz_count(data: AnalyticEigenData, g_or_index) -> LefschetzCount:
    """|det(1 - action on H^1)| of a class, or its fixed dimension.

    The action on first cohomology is the tangent representation plus
    its conjugate, so the count is a product of cyclotomic values
    Phi_k(1) and is computed exactly.

    >>> from .catalog import binary_tetrahedral_eigendata
    >>> group, exps = binary_tetrahedral_eigendata()
    >>> data = AnalyticEigenData(group, exps)
    >>> minus_one = next(g for g in group.elements
    ...                  if g != group.identity and group.element_order(g) == 2)
    >>> lefschetz_count(data, minus_one).count
    256
    """
    if isinstance(g_or_index, int):
        index = g_or_index
    else:
        index = data.group.class_index(g_or_index)
    exps = data.exponents[index]
    zero = sum(1 for x in exps if x == 0)
    if zero:
        return LefschetzCount(False, None, zero)
    count = 1
    for k, mult in _doubled_by_order(exps).items():
        phi = euler_phi(k)
        if mult % phi:
            raise ConsistencyError(f"exponents {exps} are not Galois closed")
        count *= _cyclotomic_at_one(k) ** (mult // phi)
    return LefschetzCount(True, count, 0)


def _cyclotomic_at_one(k: int) -> int:
    """Phi_k(1): p for prime-power k = p^e, else 1 (k > 1)."""
    n = k
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else 1
        p += 1
    return n  # k prime


class ReflectionReport:
    """Result of the reflection-generation test."""

    __slots__ = ("generated", "reflections", "subgroup")

    def __init__(self, generated, reflections, subgroup):
        self.generated = generated
        self.reflections = reflections
        self.subgroup = subgroup

    def __bool__(self):
        return self.generated


def symplectic_reflection_generated(data: AnalyticEigenData) -> ReflectionReport:
    """Do the codimension-2 classes generate the group?

    Returns the generating reflections, or the proper subgroup they
    generate as a certificate of failure.

    >>> from .catalog import catalog
    >>> d = AnalyticEigenData.from_integral(catalog("s4_standard_d2"))
    >>> bool(symplectic_reflection_generated(d))
    True
    """
    group = data.group
    reflections = []
    for i, cls in enumerate(group.conjugacy_classes()):
        if data.codimension(i) == 2:
            reflections.extend(cls)
    sub = group.subgroup_closure(reflections)
    return ReflectionReport(len(sub) == group.order, tuple(reflections), sub)


class BLSResult:
    """Best-effort match against the symplectic-resolution classification."""

    __slots__ = ("kind", "n", "m")

    def __init__(self, kind, n=None, m=None):
        self.kind = kind  # "TypeA" | "TypeBC" | "BinaryTetrahedral" | "NoMatch"
        self.n = n
        self.m = m

    def __repr__(self):
        if self.kind == "TypeA":
            return f"TypeA({self.n})"
        if self.kind == "TypeBC":
            return f"TypeBC({self.n}, {self.m})"
        return self.kind

    def __eq__(self, other):
        return (
            isinstance(other, BLSResult)
            and (self.kind, self.n, self.m) == (other.kind, other.n, other.m)
        )


def bls_classify(data: AnalyticEigenData) -> BLSResult:
    """Fingerprint the action against the groups whose doubled quotient
    admits a symplectic resolution.

    Checks structural invariants only (order, class count, a normal
    abelian subgroup, the unique involution); ``NoMatch`` never asserts
    impossibility.  The classified list holds only data of the shape
    V + V*, of even dimension, so other data are ``NoMatch``.

    >>> from .catalog import catalog
    >>> bls_classify(AnalyticEigenData.from_integral(catalog("s4_standard_d2")))
    TypeA(3)
    >>> bls_classify(AnalyticEigenData.from_integral(catalog("d8_b2")))
    TypeBC(2, 2)
    """
    if not data.is_self_dual() or data.dimension % 2:
        return BLSResult("NoMatch")
    group = data.group
    n = data.dimension // 2
    order = group.order
    classes = len(group.conjugacy_classes())
    # symmetric group on n+1 letters in its standard reflection action
    if order == factorial(n + 1) and classes == sum(1 for _ in partitions(n + 1)):
        if symplectic_reflection_generated(data):
            return BLSResult("TypeA", n=n)
    # wreath-type: normal abelian subgroup of order m^n, quotient order n!
    target = order // factorial(n) if order % factorial(n) == 0 else 0
    if target >= 2:
        m = next(m for m in range(2, target + 1) if m**n >= target)
        if m**n == target and _has_normal_abelian(group, target) and \
                symplectic_reflection_generated(data):
            return BLSResult("TypeBC", n=n, m=m)
    # binary tetrahedral: order 24, n = 2, a unique involution
    if order == 24 and n == 2:
        involutions = [
            g for g in group.elements
            if g != group.identity and group.element_order(g) == 2
        ]
        if len(involutions) == 1:
            return BLSResult("BinaryTetrahedral")
    return BLSResult("NoMatch")


def _has_normal_abelian(group: FiniteGroup, order: int) -> bool:
    """Whether a normal abelian subgroup has the given order: a class of
    one subgroup in the lattice, whose generators commute."""
    table = group._table
    return any(cls.size == 1 and cls.order == order and all(table[a][b] == table[b][a]
               for a in cls.gens for b in cls.gens) for cls in group._lattice)


# ---------------------------------------------------------------------------
# bounded integer counting


class CountingConstraint:
    """Linear identities over bounded non-negative integer unknowns.

    ``unknowns`` maps names to (lower, upper) bounds; ``equations`` is a
    list of (coefficient dict, constant) meaning sum + constant = 0;
    ``conditions`` maps a name to one "power_of_<p>" string or a list of
    them (all must hold), p an integer at least 2; they are kept as the
    tuple of their p.
    """

    __slots__ = ("unknowns", "equations", "conditions")

    def __init__(self, unknowns, equations, conditions=None):
        self.unknowns = dict(unknowns)
        self.equations = [
            ({k: int(v) for k, v in coeffs.items()}, int(const))
            for coeffs, const in equations
        ]
        self.conditions = {
            name: tuple(map(_power_base, (conds,) if isinstance(conds, str) else conds))
            for name, conds in (conditions or {}).items()
        }
        for name, bounds in self.unknowns.items():
            if bounds is None:
                raise UnboundedSearch(f"no bounds declared for {name!r}")
            lo, hi = bounds
            if lo > hi:
                raise ValueError(f"empty range for {name!r}")
            if lo < 0:
                raise ValueError("unknowns are non-negative integers")
        for name in sorted({k for coeffs, _ in self.equations for k in coeffs}):
            if name not in self.unknowns:
                raise ValueError(f"equation names undeclared unknown {name!r}")
        for name in sorted(self.conditions):
            if name not in self.unknowns:
                raise ValueError(f"condition names undeclared unknown {name!r}")


class FeasibilityResult:
    __slots__ = ("feasible", "solutions", "witness")

    def __init__(self, feasible, solutions, witness):
        self.feasible = feasible
        self.solutions = solutions
        self.witness = witness

    def __bool__(self):
        return self.feasible

    def __repr__(self):
        if self.feasible:
            return f"feasible({list(self.solutions)})"
        return f"infeasible({self.witness})"


def _power_base(cond) -> int:
    """p of a "power_of_<p>" condition; ``ValueError`` unless p >= 2."""
    prefix = "power_of_"
    digits = cond[len(prefix):] if isinstance(cond, str) and cond.startswith(prefix) else ""
    if not (digits.isdecimal() and int(digits) >= 2):
        raise ValueError(f"unknown condition {cond!r}: expected power_of_<p>, p >= 2")
    return int(digits)


def _is_power_of(x: int, p: int) -> bool:
    if x < 1:
        return False
    while x % p == 0:
        x //= p
    return x == 1


def counting_feasibility(constraint: CountingConstraint,
                         budget: int = DEFAULT_ENUMERATION_BUDGET) -> FeasibilityResult:
    """Exhaustive search for solutions within the declared bounds;
    ``EnumerationTooLarge`` before it if they span more than ``budget``
    assignments.

    >>> c = CountingConstraint({"s": (0, 300)}, [({"s": 3}, 192)])
    >>> bool(counting_feasibility(c))
    False
    >>> c = CountingConstraint({"a": (1, 256), "b": (1, 256)},
    ...                        [({"a": 1, "b": 1}, -17)],
    ...                        {"a": "power_of_2", "b": "power_of_2"})
    >>> counting_feasibility(c).solutions
    ({'a': 1, 'b': 16}, {'a': 16, 'b': 1})
    """
    names = sorted(constraint.unknowns)
    size = prod(hi - lo + 1 for lo, hi in constraint.unknowns.values())
    if size > budget:
        raise EnumerationTooLarge(
            f"counting search of {size} assignments exceeds budget {budget}")
    ranges = []
    for name in names:
        lo, hi = constraint.unknowns[name]
        values = range(lo, hi + 1)
        for p in constraint.conditions.get(name, ()):
            values = [v for v in values if _is_power_of(v, p)]
        ranges.append(values)
    equations = [([(names.index(k), c) for k, c in coeffs.items()], const)
                 for coeffs, const in constraint.equations]
    solutions = tuple(
        dict(zip(names, values)) for values in product(*ranges)
        if all(const + sum(c * values[i] for i, c in terms) == 0
               for terms, const in equations))
    if solutions:
        return FeasibilityResult(True, solutions, None)
    return FeasibilityResult(False, (), _infeasibility_witness(constraint, names))


def _infeasibility_witness(constraint: CountingConstraint, names) -> str:
    if len(names) == 1 and len(constraint.equations) == 1:
        name = names[0]
        coeffs, const = constraint.equations[0]
        c = coeffs.get(name, 0)
        return (
            f"{c}*{name} = {-const} has no admissible solution with "
            f"{name} in {constraint.unknowns[name]}"
        )
    return "no assignment within the declared bounds satisfies the identities"


def tetrahedral_obstruction_constraint() -> CountingConstraint:
    """The fixed-point count identity a symplectic resolution would force
    on the binary tetrahedral action: 256 = 4*(16 - s) + s, s >= 0."""
    return CountingConstraint({"s": (0, 256)}, [({"s": 3}, 256 - 64)])
