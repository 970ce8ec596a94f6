"""Fiber Poincaré polynomials of crepant resolutions of C^n / H.

For a finite group H acting with determinant one, conjugacy classes of H
are graded by the age of their eigenvalue exponents, and the central
fiber of a crepant resolution carries one cohomology class per conjugacy
class, in degree twice the age.  For an integral g acting on d copies,
every eigenvalue other than 1 pairs with its conjugate (exponents a and
1 - a) or is -1 (exponent 1/2), so age(g) = d * rank(1 - g) / 2 and no
eigenvalue is computed.  The Weyl group N(H)/H permutes the classes, and
a coset's trace on the fiber counts the classes it fixes.

The symmetric-group case has an independent combinatorial description by
partition lengths, used as an oracle against the age computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .exactalg import ConsistencyError, IntPolynomial
from .groupcore import IntegralAction, _weyl_permutations


class NonIntegerAge(ValueError):
    """An element has fractional age: the action is not Gorenstein."""


class FiberPolynomial:
    """Cohomology of the central resolution fiber, with Weyl traces.

    ``plain`` is the ordinary Poincaré polynomial, and ``values`` holds,
    per element of N(H) taken, the polynomial of its traces on fiber
    cohomology: a class function of the Weyl group N(H)/H.
    """

    __slots__ = ("plain", "values")

    def __init__(self, plain, values):
        self.plain = plain
        self.values = tuple(values)

    def __repr__(self):
        return f"FiberPolynomial({self.plain})"


def _class_ages(group: IntegralAction, indices) -> list[int]:
    """age(g) = d * rank(1 - g) / 2 for the conjugacy classes of the group
    with the given indices; the least fractional one is reported."""
    twice = [group.d * group._classes[i].rank for i in indices]
    if odd := [t for t in twice if t % 2]:
        raise NonIntegerAge(f"class has fractional age {Fraction(min(odd), 2)}")
    return [t // 2 for t in twice]


def fiber_poincare(subaction: IntegralAction) -> FiberPolynomial:
    """Fiber polynomial of the quotient by a matrix group, graded by age.

    Ages are computed from the full matrices; fixed directions add nothing
    to rank(1 - g), so the transverse grading is unchanged.
    The classes come from conjugation by a generating set picked greedily
    from the elements, and are checked against the group's own classes,
    closed under its given generators.

    >>> from .catalog import catalog
    >>> print(fiber_poincare(catalog("d4_sl3")).plain)
    1 + 3*t^2
    >>> print(fiber_poincare(catalog("s4_standard_d2")).plain)
    1 + t^2 + 2*t^4 + t^6
    """
    fiber = fiber_poincare_equivariant(subaction, (1 << subaction.order) - 1, ())
    if fiber.plain(1) != len(subaction.conjugacy_classes()):
        raise ConsistencyError("fiber classes do not match the conjugacy classes")
    return fiber


def fiber_poincare_equivariant(group: IntegralAction, mask: int, reps,
                               gens=None) -> FiberPolynomial:
    """Fiber polynomial of C^n / H with the Weyl permutation action.

    H is the index mask ``mask``, and ``reps`` holds indices of elements
    of its normalizer, such as one per Weyl class; the coefficient of
    t^(2a) in ``values[i]`` is the number of age-a classes of H that
    ``reps[i]`` fixes.  H's classes are :func:`_weyl_permutations`'s, under
    ``gens`` if given; the ages are read off the class records' ranks.

    >>> from .catalog import catalog
    >>> octa = catalog("octahedral_s4_sl3")
    >>> z4 = octa._lattice[6]  # the quarter turns about one axis
    >>> [octa.elements[g] for g in z4.gens]
    [((0, -1, 0), (1, 0, 0), (0, 0, 1))]
    >>> fib = fiber_poincare_equivariant(octa, z4.mask, [c[0] for c in z4.cosets])
    >>> print(fib.plain); print(fib.values[1])
    1 + 3*t^2
    1 + t^2
    """
    classes, perms = _weyl_permutations(group, mask, reps, gens)
    ages = _class_ages(group, [group._class_number[cls[0]] for cls in classes])

    def graded(indices):
        coeffs = [0] * (2 * max(ages) + 1)
        for i in indices:
            coeffs[2 * ages[i]] += 1
        return IntPolynomial._of(coeffs)

    return FiberPolynomial(
        graded(range(len(ages))),
        [graded(i for i, j in enumerate(perm) if i == j) for perm in perms],
    )


# ---------------------------------------------------------------------------
# partition combinatorics: the symmetric-group oracle


def partitions(n: int):
    """All partitions of n as non-increasing tuples.

    >>> sorted(partitions(4))
    [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    """
    if n == 0:
        yield ()
        return

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def partition_fiber(n: int) -> IntPolynomial:
    """Sum of t^(2i) over partitions of n, graded by co-length.

    The coefficient of t^(2i) counts partitions of n of length n - i.

    >>> print(partition_fiber(4))
    1 + t^2 + 2*t^4 + t^6
    >>> print(partition_fiber(1))
    1
    """
    if n < 1:
        raise ValueError("n must be positive")
    kappa = [0] * n
    for p in partitions(n):
        kappa[n - len(p)] += 1
    return IntPolynomial(
        [kappa[i // 2] if i % 2 == 0 else 0 for i in range(2 * (n - 1) + 1)]
    )


def young_fiber(partition) -> IntPolynomial:
    """Product of partition fibers over the parts.

    >>> print(young_fiber((3, 1)))
    1 + t^2 + t^4
    >>> print(young_fiber((2, 2)))
    1 + 2*t^2 + t^4
    """
    return prod(map(partition_fiber, partition), start=IntPolynomial.one())
