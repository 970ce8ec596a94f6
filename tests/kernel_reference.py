"""The exact kernels as they were before they worked on whole rows: the
entry-by-entry Smith and Hermite forms, matrix product, Faddeev-LeVerrier
recursion and polynomial arithmetic, kept verbatim (less their doctests and
``char_poly``'s cache) so that tests can ask the package's kernels for the
same transforms and results, not merely valid ones."""

from __future__ import annotations

from operator import mul

from kummer.exactalg import ConsistencyError

Matrix = tuple[tuple[int, ...], ...]


def mat_mul(a, b) -> Matrix:
    """Product of two matrices (tuples of rows; entries int or Fraction)."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


class IntPolynomial:
    """Coefficients low degree first; only the arithmetic that the package
    builds without its constructor's checks."""

    __slots__ = ("coeffs",)

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
        return cls._of([])

    def __add__(self, other):
        b = (other,) if isinstance(other, int) else other.coeffs
        out = list(self.coeffs)
        out.extend([0] * (len(b) - len(out)))
        for i, y in enumerate(b):
            out[i] += y
        return IntPolynomial._of(out)

    def __neg__(self):
        return IntPolynomial._of([-c for c in self.coeffs])

    def __sub__(self, other):
        b = (other,) if isinstance(other, int) else other.coeffs
        out = list(self.coeffs)
        out.extend([0] * (len(b) - len(out)))
        for i, y in enumerate(b):
            out[i] -= y
        return IntPolynomial._of(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial._of([other * c for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return IntPolynomial._of(out)


def char_poly(m: Matrix) -> IntPolynomial:
    """det(x*I - M) by the Faddeev-LeVerrier recursion; always monic."""
    n = len(m)
    coeffs = [1]  # descending: x^n, x^{n-1}, ...
    # M_1 = I, M_k = A M_{k-1} + c_{k-1} I and c_k = -tr(A M_k) / k; every
    # M_k is an integer matrix because every c_k is an integer
    am = m
    for k in range(1, n + 1):
        trace = sum(am[i][i] for i in range(n))
        if trace % k:
            raise ConsistencyError(
                f"Faddeev-LeVerrier trace {trace} is not divisible by {k}"
            )
        c = -trace // k
        coeffs.append(c)
        if k < n:
            mk = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
            am = [
                [sum(m[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
    return IntPolynomial._of(coeffs[::-1])


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
    """Smith normal form with exact transforms."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(r) for r in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    w = [row[:] for row in v]  # V^-1: each column op on V is a row op on it

    def row_op(i, j, q):  # row_i -= q * row_j
        for k in range(cols):
            a[i][k] -= q * a[j][k]
        for k in range(rows):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):  # col_i -= q * col_j; row_j += q * row_i of V^-1
        for k in range(rows):
            a[k][i] -= q * a[k][j]
        for k in range(cols):
            v[k][i] -= q * v[k][j]
            w[j][k] += q * w[i][k]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for k in range(rows):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        for k in range(cols):
            v[k][i], v[k][j] = v[k][j], v[k][i]
        w[i], w[j] = w[j], w[i]

    t = 0
    while t < min(rows, cols):
        # find a pivot: nonzero entry of smallest absolute value
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility: a[t][t] must divide everything below-right
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # fold the offending row in, redo pivot
            continue
        if a[t][t] < 0:
            for k in range(cols):
                a[t][k] = -a[t][k]
            for k in range(rows):
                u[t][k] = -u[t][k]
        t += 1

    um = tuple(tuple(r) for r in u)
    vm = tuple(tuple(r) for r in v)
    dm = tuple(tuple(r) for r in a)
    snf = SmithDecomposition(um, dm, vm, tuple(map(tuple, w)), rows, cols)
    if mat_mul(mat_mul(um, m), vm) != dm:
        raise ConsistencyError(f"Smith transforms do not reproduce {dm}")
    divs = snf.divisors
    if any(divs[i + 1] % divs[i] for i in range(len(divs) - 1)):
        raise ConsistencyError(f"Smith divisors {divs} do not divide in turn")
    return snf


def hermite_normal_form(rows_in, width: int | None = None) -> Matrix:
    """Row-style Hermite normal form; zero rows are dropped.

    Pivots are positive, entries above a pivot are reduced to [0, pivot).
    The result is a canonical basis of the row span: it depends on the
    lattice only, not on the spanning rows given.
    """
    rest = [list(r) for r in rows_in if any(r)]
    if width is None:
        width = len(rows_in[0]) if rows_in else 0
    out: list[list[int]] = []
    for j in range(width):
        # Euclid down column j until one remaining row has a nonzero entry
        live = [r for r in rest if r[j]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[j]))
            pivot = live[0]
            for r in live[1:]:
                q = r[j] // pivot[j]
                r[:] = [x - q * y for x, y in zip(r, pivot)]
            live = [pivot] + [r for r in live[1:] if r[j]]
        if not live:
            continue
        pivot = live[0]
        if pivot[j] < 0:
            pivot[:] = [-x for x in pivot]
        # pivot is zero left of j, so this leaves earlier pivot columns reduced
        for r in out:
            q = r[j] // pivot[j]
            if q:
                r[:] = [x - q * y for x, y in zip(r, pivot)]
        out.append(pivot)
        rest = [r for r in rest if r is not pivot and any(r)]
    return tuple(tuple(r) for r in out)
