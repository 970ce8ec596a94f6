"""Molien averages: the Poincaré polynomial of the quotient of a torus.

The representation-ring coefficients of the strata are the per-class
traces that :mod:`kummer.strata` keeps; this module keeps only the
average the pipeline checks them against, and the exact division both use.
"""

from __future__ import annotations

from .exactalg import ConsistencyError, IntPolynomial, det_one_plus_t
from .groupcore import IntegralAction


def _average(total: IntPolynomial, count: int) -> IntPolynomial:
    """total / count, which must be exact."""
    if any(c % count for c in total.coeffs):
        raise ConsistencyError(f"{total} does not average over {count} elements")
    return total.divide_exact(count)


def quotient_poincare(action: IntegralAction) -> IntPolynomial:
    """Poincaré polynomial of the quotient of the torus power.

    The t^i coefficient of det(I + t g)^(2d) is the trace of g on H^i of
    the torus; its average over the group, one term per conjugacy class
    weighted by the class size, is the invariant part (a Molien sum).

    >>> from .catalog import catalog
    >>> print(quotient_poincare(catalog("z6_sl2")))
    1 + 4*t^2 + t^4
    """
    elements, power = action.elements, 2 * action.d
    total = sum((cls.size * det_one_plus_t(elements[cls.rep], power)
                 for cls in action._classes), IntPolynomial.zero())
    return _average(total, action.order)
