"""Exact integer and rational linear algebra.

Everything downstream (fixed-point counts, Molien averages, age gradings)
must be bit-exact, so this module works with plain Python integers,
``fractions.Fraction`` and hand-rolled normal forms instead of floating
point.  Matrices are immutable tuples of tuples of ints, row-major.

The main exports are

* :class:`IntPolynomial` -- dense polynomials over the integers,
* :func:`char_poly` / :func:`det_one_plus_t` -- characteristic data of an
  integer matrix, computed fraction-free,
* :func:`smith_normal_form` / :func:`hermite_normal_form` -- unimodular
  normal forms with transforms.

Nothing here factors a polynomial: the eigenvalues of a finite-order
integer matrix g are read off the ranks of 1 - g^k, each a Hermite normal
form (see ``AnalyticEigenData.from_integral``).

The kernels work on whole rows and coefficient slices, with one shared
immutable :func:`identity_matrix` per size, but take the same elementary
operations in the same order as the entry-by-entry versions that
``tests/kernel_reference.py`` keeps: every transform and result is theirs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, mul, neg, sub


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; unlike ``assert``, kept under ``-O``."""


Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# integer matrices


@lru_cache(maxsize=None)
def identity_matrix(n: int) -> Matrix:
    """The n x n identity, one shared tuple per n."""
    return tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])


def mat_mul(a, b) -> Matrix:
    """Product of two matrices (tuples of rows; entries int or Fraction)."""
    bt = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_sub(a, b) -> Matrix:
    return tuple([tuple(map(sub, ra, rb)) for ra, rb in zip(a, b)])


def mat_det(m) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    >>> mat_det(((0, -1), (1, 1)))
    1
    >>> mat_det(((2, 0, 0), (0, 3, 0), (0, 0, 4)))
    24
    """
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# integer polynomials


class IntPolynomial:
    """A polynomial with integer coefficients, stored low degree first.

    >>> p = IntPolynomial([1, 0, 2])
    >>> p
    IntPolynomial([1, 0, 2])
    >>> print(p)
    1 + 2*t^2
    >>> print(p * p)
    1 + 4*t^2 + 4*t^4
    >>> (p * p)(1)
    9
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                if isinstance(c, Fraction) and c.denominator == 1:
                    continue
                raise TypeError(f"non-integer coefficient {c!r}")
        self.coeffs = tuple(int(c) for c in cs)

    @classmethod
    def _of(cls, cs: list) -> "IntPolynomial":
        """The polynomial of a list of ints built by arithmetic here:
        trailing zeros are trimmed (in place), nothing is checked."""
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial having degree -1."""
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, (other,) if isinstance(other, int) else other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(map(add, a, b))
        out += a[len(b):]
        return IntPolynomial._of(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial._of([-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self.coeffs, (other,) if isinstance(other, int) else other.coeffs
        out = list(map(sub, a, b))
        out += a[len(b):] if len(a) > len(b) else map(neg, b[len(a):])
        return IntPolynomial._of(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial._of([other * c for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial.zero()
        if len(a) < len(b):  # the shorter factor in the outer loop: fewer passes
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                for j, x in enumerate(a, i):
                    out[j] += x * y
        return IntPolynomial._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = IntPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divide_exact(self, n: int) -> "IntPolynomial":
        """Divide every coefficient by ``n``, which must be exact."""
        if any(c % n for c in self.coeffs):
            raise ValueError(f"coefficients {self.coeffs} not divisible by {n}")
        return IntPolynomial._of([c // n for c in self.coeffs])

    def reciprocal(self, degree: int) -> "IntPolynomial":
        """Coefficients reversed relative to the given top degree."""
        if degree < self.degree:
            raise ValueError("degree too small")
        return IntPolynomial(tuple(self[degree - i] for i in range(degree + 1)))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}t" if i == 1 else f"{mag}t^{i}"
                if not parts:
                    parts.append(term if c > 0 else f"-{term}")
                    continue
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# characteristic polynomials


@lru_cache(maxsize=None)
def char_poly(m: Matrix) -> IntPolynomial:
    """det(x*I - M) by the Faddeev-LeVerrier recursion; always monic.

    >>> print(char_poly(((0, -1), (1, 1))))
    1 - t + t^2
    >>> print(char_poly(identity_matrix(3)))
    -1 + 3*t - 3*t^2 + t^3
    """
    n = len(m)
    coeffs = [1]  # descending: x^n, x^{n-1}, ...
    # M_1 = I, M_k = A M_{k-1} + c_{k-1} I and c_k = -tr(A M_k) / k; every
    # M_k is an integer matrix because every c_k is an integer
    am = m
    for k in range(1, n + 1):
        trace = sum([row[i] for i, row in enumerate(am)])
        if trace % k:
            raise ConsistencyError(
                f"Faddeev-LeVerrier trace {trace} is not divisible by {k}"
            )
        c = -trace // k
        coeffs.append(c)
        if k < n:
            mk = [list(row) for row in am]
            for i, row in enumerate(mk):
                row[i] += c
            am = mat_mul(m, mk)
    return IntPolynomial._of(coeffs[::-1])


@lru_cache(maxsize=None)
def det_one_plus_t(m: Matrix, power: int = 1) -> IntPolynomial:
    """det(I + t*M) ** power, the Lefschetz trace series of M on a torus.

    The coefficient of t^i is the trace of M on the i-th exterior power.

    >>> print(det_one_plus_t(((0, -1), (1, 1))))
    1 + t + t^2
    >>> print(det_one_plus_t(identity_matrix(1), 2))
    1 + 2*t + t^2
    """
    n = len(m)
    cp = char_poly(m)
    base = IntPolynomial._of([(-1) ** i * cp[n - i] for i in range(n + 1)])
    return base**power


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


# ---------------------------------------------------------------------------
# Smith and Hermite normal forms


class SmithDecomposition:
    """U * M * V = D with U, V unimodular and D diagonal, d1 | d2 | ...

    Zero diagonal entries come last; ``divisors`` lists the nonzero ones.
    ``v_inv`` is V^-1, kept through the column operations that built V.
    """

    __slots__ = ("u", "d", "v", "v_inv", "rows", "cols")

    def __init__(self, u, d, v, v_inv, rows, cols):
        self.u = u
        self.d = d
        self.v = v
        self.v_inv = v_inv
        self.rows = rows
        self.cols = cols

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(self.rows, self.cols)))

    @property
    def divisors(self) -> tuple[int, ...]:
        return tuple(x for x in self.diagonal if x != 0)

    @property
    def rank(self) -> int:
        return len(self.divisors)

    def __repr__(self):
        return f"SmithDecomposition(diagonal={list(self.diagonal)})"


def smith_normal_form(m) -> SmithDecomposition:
    """Smith normal form with exact transforms.

    >>> snf = smith_normal_form(((2, 0), (0, 2)))
    >>> snf.divisors
    (2, 2)
    >>> snf = smith_normal_form(((2, 1), (-1, 1)))
    >>> snf.divisors
    (1, 3)
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = list(map(list, m))
    u = list(map(list, identity_matrix(rows)))
    vt = list(map(list, identity_matrix(cols)))  # V by columns
    w = list(map(list, identity_matrix(cols)))  # V^-1: a column op on V is a row op on it

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j; row_j += q * row_i of V^-1
        for r in a:
            r[i] -= q * r[j]
        vt[i] = [x - q * y for x, y in zip(vt[i], vt[j])]
        w[j] = [x + q * y for x, y in zip(w[j], w[i])]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        vt[i], vt[j] = vt[j], vt[i]
        w[i], w[j] = w[j], w[i]

    t, size = 0, min(rows, cols)
    while t < size:
        # find a pivot: the first nonzero entry of smallest absolute value
        best = 0
        for i in range(t, rows):
            sizes = list(map(abs, a[i][t:]))
            least = min(filter(None, sizes), default=0)
            if least and (not best or least < best):
                best, pi, pj = least, i, t + sizes.index(least)
                if best == 1:
                    break
        if not best:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            swap_cols(t, pj)
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_op(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_op(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility: a[t][t] must divide everything below-right;
        # the first offending row is folded in and the pivot redone
        p = a[t][t]
        for i in range(t + 1, rows):
            if any([x % p for x in a[i][t + 1:]]):
                row_op(t, i, -1)
                break
        else:
            if p < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            t += 1

    um = tuple(map(tuple, u))
    vm = tuple(zip(*vt))
    dm = tuple(map(tuple, a))
    snf = SmithDecomposition(um, dm, vm, tuple(map(tuple, w)), rows, cols)
    if mat_mul(mat_mul(um, m), vm) != dm:
        raise ConsistencyError(f"Smith transforms do not reproduce {dm}")
    divs = [a[i][i] for i in range(t)]  # the nonzero diagonal: D is 0 from (t, t) on
    if any(divs[i + 1] % divs[i] for i in range(len(divs) - 1)):
        raise ConsistencyError(f"Smith divisors {divs} do not divide in turn")
    return snf


def hermite_normal_form(rows_in, width: int | None = None) -> Matrix:
    """Row-style Hermite normal form; zero rows are dropped.

    Pivots are positive, entries above a pivot are reduced to [0, pivot).
    The result is a canonical basis of the row span: it depends on the
    lattice only, not on the spanning rows given.

    >>> hermite_normal_form(((2, 4), (1, 1)))
    ((1, 1), (0, 2))
    >>> hermite_normal_form(((1, 3), (2, 4)))
    ((1, 1), (0, 2))
    """
    rest = [list(r) for r in rows_in if any(r)]
    if width is None:
        width = len(rows_in[0]) if rows_in else 0
    out: list[list[int]] = []
    for j in range(width):
        # Euclid down column j until one remaining row has a nonzero entry
        live = [r for r in rest if r[j]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[j]))
            pivot = live[0]
            p, left = pivot[j], [pivot]
            for r in live[1:]:
                q = r[j] // p
                r[:] = [x - q * y for x, y in zip(r, pivot)]
                if r[j]:
                    left.append(r)
            live = left
        pivot = live[0]
        if pivot[j] < 0:
            pivot[:] = [-x for x in pivot]
        # pivot is zero left of j, so this leaves earlier pivot columns reduced
        p = pivot[j]
        for r in out:
            q = r[j] // p
            if q:
                r[:] = [x - q * y for x, y in zip(r, pivot)]
        out.append(pivot)
        rest.remove(pivot)  # the one row of rest nonzero at j; zero rows are never live
    return tuple(map(tuple, out))


def kernel_basis(m, width: int | None = None) -> Matrix:
    """Basis (HNF rows) of the integer kernel {x : M x = 0}; saturated.

    >>> kernel_basis(((1, 1, 1),))
    ((1, 0, -1), (0, 1, -1))
    """
    rows = len(m)
    if width is None:
        width = len(m[0]) if rows else 0
    if rows == 0:
        return identity_matrix(width)
    snf = smith_normal_form(m)
    rank = snf.rank
    cols = [tuple(snf.v[i][j] for i in range(width)) for j in range(rank, width)]
    if not cols:
        return ()
    return hermite_normal_form(cols, width)
