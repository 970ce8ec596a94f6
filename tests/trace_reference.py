"""Eigenvalue exponents of a finite-order integer matrix from the traces of
its powers alone: no ranks, no characteristic polynomial."""

from fractions import Fraction
from math import gcd


def _phi(n):
    return sum(1 for a in range(n) if gcd(a, n) == 1)


def _mobius(n):
    sign, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def trace_exponents(g, copies=1):
    """The exponents a/k in [0, 1) of g's eigenvalues, ``copies`` times each.

    With m = ord(g), N_k = (1/m) sum_{j<m} c_k(j) tr(g^j) eigenvalues have
    exact order k, where c_k(j) = mu(q) phi(k) / phi(q), q = k / gcd(k, j),
    is the Ramanujan sum over the primitive k-th roots; each of those roots
    occurs N_k / phi(k) times.

    >>> [str(x) for x in trace_exponents(((0, -1), (1, 1)))]
    ['1/6', '5/6']
    """
    n = len(g)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    traces, power = [n], g
    while power != ident:
        traces.append(sum(power[i][i] for i in range(n)))
        power = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*g))
                      for row in power)
    m, out = len(traces), []
    for k in (k for k in range(1, m + 1) if m % k == 0):
        total = sum(_mobius(k // gcd(k, j)) * _phi(k) // _phi(k // gcd(k, j)) * t
                    for j, t in enumerate(traces))
        count, rest = divmod(total, m * _phi(k))
        assert rest == 0, (g, k, total)
        out += [Fraction(a, k) for a in range(k) if gcd(a, k) == 1] * (count * copies)
    return tuple(sorted(out))
