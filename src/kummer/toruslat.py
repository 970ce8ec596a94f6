"""Exact geometry of fixed loci on a power of an abelian variety.

A power of a d-dimensional abelian variety is modelled through its
lattice shadow: the real torus R^r/Z^r taken ``2d`` independent times
(one per generator of first homology of the variety factor).  A
component of a fixed locus is then a torsion translate of a subtorus,

    S = { x : N x = shift (mod Z) in every copy },

where N is the saturated annihilator of the tangent lattice.  The triple
(N in Hermite form, the least common denominator n of the shifts, the
integer vectors n * shift reduced mod n) is a canonical form, so
components can be hashed, compared, intersected and mapped around by
group elements with no ambiguity, in integer arithmetic only.  A fixed
locus is the tuple of its components.  N and the tangent lattice are
each other's integer kernel, both from one cached ``kernel_basis``.

The stratification counts, moves and lists components as torsion
coordinates in one Smith frame (``strata``) and builds none here; this
model, with images of a lattice basis and a translate, is its reference.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import gcd, lcm, prod

from .exactalg import (
    ConsistencyError,
    hermite_normal_form,
    identity_matrix,
    kernel_basis,
    mat_det,
    mat_sub,
    mat_vec,
    smith_normal_form,
)
from .groupcore import IntegralAction, _row_lattice

DEFAULT_ENUMERATION_BUDGET = 10_000_000


class NotIsolated(ValueError):
    """The fixed locus is positive dimensional."""


class EnumerationTooLarge(ValueError):
    """A brute-force enumeration exceeds the configured budget."""


def _scaled(vectors):
    """(den, integer vectors) with vectors == integer vectors / den, den least."""
    vecs = [[Fraction(x) for x in v] for v in vectors]
    den = lcm(1, *(x.denominator for v in vecs for x in v))
    return den, tuple(
        tuple(x.numerator * (den // x.denominator) for x in v) for v in vecs
    )


def _reduced(den: int, scaled_shifts):
    """(den, shifts) over their least common denominator, shifts in [0, den)."""
    g = gcd(den, *chain.from_iterable(scaled_shifts))
    if g != 1:
        den //= g
        scaled_shifts = [[s // g for s in copy] for copy in scaled_shifts]
    mod = den.__rmod__
    return den, tuple(tuple(map(mod, copy)) for copy in scaled_shifts)


_kernel_basis = lru_cache(maxsize=None)(kernel_basis)


@lru_cache(maxsize=None)
def _section(rows, r: int):
    """Integer r x k matrix S with rows @ S = I, from the Smith form.

    For an annihilator, ``S @ shift`` is a translate realising the shift;
    for a lattice basis, ``image @ S`` gives an image's coordinates.  The
    k rows must span a saturated lattice for S to exist.
    """
    snf = smith_normal_form(rows)
    if any(dv != 1 for dv in snf.divisors):
        raise ConsistencyError(f"rows {rows} do not span a saturated lattice")
    k = len(rows)
    return tuple(
        tuple(sum(snf.v[i][t] * snf.u[t][j] for t in range(k)) for j in range(k))
        for i in range(r)
    )


@lru_cache(maxsize=None)
def _induced_matrix(normal, r: int, g):
    """Matrix of g on the lattice annihilated by ``normal``, in its Hermite
    basis: the integer M with g . basis_j = sum_i M[i][j] basis_i."""
    if len(normal) == r:
        return ()
    basis = _kernel_basis(normal, r)
    # a lattice vector v has coordinates v @ S, where basis @ S = I
    to_coords = tuple(zip(*_section(basis, r)))
    from_coords = tuple(zip(*basis))
    out = []
    for row in basis:
        image = mat_vec(g, row)
        coords = mat_vec(to_coords, image)
        if mat_vec(from_coords, coords) != image:
            raise ValueError("matrix does not preserve the lattice")
        out.append(coords)
    # out[i] expresses the image of basis_i; we want column convention
    return tuple(zip(*out))


class AffineSubtorus:
    """A torsion translate of a saturated subtorus, in canonical form.

    ``normal`` is the Hermite basis of the annihilator of the tangent
    lattice.  For each of the ``copies`` circle factors the value of
    ``normal @ translate`` mod 1 is stored as ``scaled_shifts / den``:
    ``den`` is the least common denominator (1 when every shift is 0) and
    the integer entries are reduced into [0, den).
    """

    __slots__ = ("r", "copies", "normal", "den", "scaled_shifts", "_scaled")

    def __init__(self, r: int, copies: int, normal, den: int, scaled_shifts):
        self.r = r
        self.copies = copies
        self.normal = normal
        if len(scaled_shifts) != copies:
            raise ValueError("one shift vector per copy required")
        if any(len(copy) != len(self.normal) for copy in scaled_shifts):
            raise ValueError("shift length must match the number of equations")
        self.den, self.scaled_shifts = _reduced(den, scaled_shifts)
        self._scaled = None

    # -- construction --------------------------------------------------------

    @classmethod
    def whole_torus(cls, r: int, copies: int) -> "AffineSubtorus":
        return cls(r, copies, (), 1, ((),) * copies)

    @classmethod
    def from_lattice_and_translate(cls, basis_rows, translates, r: int,
                                   copies: int) -> "AffineSubtorus":
        """The translate of the lattice's subtorus by a rational point per copy."""
        basis_rows = tuple(tuple(int(x) for x in row) for row in basis_rows)
        return cls._from_scaled(basis_rows, *_scaled(translates), r, copies)

    @classmethod
    def _from_scaled(cls, basis_rows, den, points, r, copies):
        """The subtorus with tangent lattice ``basis_rows`` through points / den."""
        normal = _kernel_basis(basis_rows, r)
        shifts = tuple(mat_vec(normal, pt) for pt in points)
        return cls(r, copies, normal, den, shifts)

    # -- basic data -----------------------------------------------------------

    @property
    def lattice_basis(self):
        """Hermite basis rows of the tangent lattice (empty for a point)."""
        return _kernel_basis(self.normal, self.r)

    @property
    def rank(self) -> int:
        return self.r - len(self.normal)

    @property
    def shifts(self):
        """The shifts per copy as Fractions in [0, 1) (a read-only view)."""
        return tuple(
            tuple(Fraction(s, self.den) for s in copy) for copy in self.scaled_shifts
        )

    def scaled_points(self):
        """(den, integer point per copy): a canonical translate times den."""
        if self._scaled is None:
            if not self.normal:
                pts = ((0,) * self.r,) * self.copies
            else:
                section = _section(self.normal, self.r)
                pts = tuple(mat_vec(section, shift) for shift in self.scaled_shifts)
            self._scaled = (self.den, pts)
        return self._scaled

    # -- canonical identity ----------------------------------------------------

    @property
    def key(self):
        return (self.normal, self.den, self.scaled_shifts)

    def __eq__(self, other):
        return isinstance(other, AffineSubtorus) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return (
            f"AffineSubtorus(rank={self.rank}, normal={self.normal}, "
            f"den={self.den}, scaled_shifts={self.scaled_shifts})"
        )

    # -- geometry ---------------------------------------------------------------

    def contains(self, other: "AffineSubtorus") -> bool:
        """Whether ``other`` is a subset of this subtorus."""
        if (other.r, other.copies) != (self.r, self.copies):
            raise ValueError("different ambient tori")
        for row in other.lattice_basis:
            if any(sum(n * b for n, b in zip(nr, row)) != 0 for nr in self.normal):
                return False
        oden, opts = other.scaled_points()
        den = lcm(oden, self.den)
        oscale, sscale = den // oden, den // self.den
        for shift, pt in zip(self.scaled_shifts, opts):
            for row, s in zip(self.normal, shift):
                val = sum(n * x for n, x in zip(row, pt)) * oscale
                if (val - s * sscale) % den:
                    return False
        return True

    def apply_matrix(self, g) -> "AffineSubtorus":
        """Image under the lattice automorphism g (same matrix in each copy),
        built from the lattice basis and a translate."""
        basis = tuple(mat_vec(g, row) for row in self.lattice_basis) \
            if self.rank else ()
        den, pts = self.scaled_points()
        return AffineSubtorus._from_scaled(
            basis, den, tuple(mat_vec(g, pt) for pt in pts), self.r, self.copies
        )

    def induced_lattice_matrix(self, g):
        """Matrix of g on the tangent lattice, in the Hermite basis.

        Requires g to map the subtorus to itself; the result is the
        integer matrix M with g . basis_j = sum_i M[i][j] basis_i.
        """
        return _induced_matrix(self.normal, self.r, g)

    def intersect(self, other: "AffineSubtorus") -> tuple["AffineSubtorus", ...]:
        """All components of the intersection, in canonical form."""
        if (other.r, other.copies) != (self.r, self.copies):
            raise ValueError("different ambient tori")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        rhs = tuple(
            tuple(x * a for x in sa) + tuple(y * b for y in sb)
            for sa, sb in zip(self.scaled_shifts, other.scaled_shifts)
        )
        return solve_torus_system(
            self.normal + other.normal, den, rhs, self.r, self.copies
        )


def solve_torus_system(system_rows, den: int, rhs_per_copy, r: int, copies: int,
                       budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Components of { x : A x = b / den (mod Z) in each copy }.

    ``system_rows`` is an integer matrix A with r columns; ``rhs_per_copy``
    gives the integer vector b for each circle copy.  Returns a tuple of
    canonical components, ordered by their shifts (empty when
    inconsistent).
    """
    rows = tuple(tuple(int(x) for x in row) for row in system_rows)
    if not rows:
        return (AffineSubtorus.whole_torus(r, copies),)
    snf = smith_normal_form(rows)
    rank = snf.rank
    m = len(rows)
    lattice = tuple(
        tuple(snf.v[i][j] for i in range(r)) for j in range(rank, r)
    )
    normal = _kernel_basis(hermite_normal_form(lattice, r) if lattice else (), r)
    divisors = snf.divisors
    top = divisors[-1] if divisors else 1  # every divisor divides the last
    full = den * top
    # with c = U b, x = V z solves the system for z_i = (c_i / den + j) / d_i;
    # the shifts are normal @ x, i.e. (normal @ V) z, kept scaled by `full`
    normal_v = tuple(
        tuple(sum(nrow[i] * snf.v[i][j] for i in range(r)) for j in range(rank))
        for nrow in normal
    )
    # copies with the same right-hand side share their shift set; the
    # budget still counts every copy
    size = prod(divisors)
    per_copy = []
    shift_sets: dict = {}
    count = 1
    for rhs in rhs_per_copy:
        rhs = tuple(rhs)
        shifts = shift_sets.get(rhs)
        if shifts is None:
            c = [sum(snf.u[i][j] * rhs[j] for j in range(m)) for i in range(m)]
            # zero rows of D demand integral right-hand side
            if any(c[i] % den for i in range(rank, m)):
                return ()
        count *= size
        if count > budget:
            raise EnumerationTooLarge(
                f"component enumeration exceeds budget {budget}"
            )
        if shifts is None:
            options = [
                [(c[i] + j * den) * (top // di) for j in range(di)]
                for i, di in enumerate(divisors)
            ]
            shifts = shift_sets[rhs] = sorted({
                tuple(sum(a * zj for a, zj in zip(row, z)) % full for row in normal_v)
                for z in product(*options)
            })
        per_copy.append(shifts)
    # the product of per-copy sorted shifts is in lexicographic order
    return tuple(
        AffineSubtorus(r, copies, normal, full, combo)
        for combo in product(*per_copy)
    )


def fix_locus(action: IntegralAction, subgroup,
              budget: int = DEFAULT_ENUMERATION_BUDGET) -> tuple[AffineSubtorus, ...]:
    """Components of the common fixed locus of a set of group elements.

    It is solved from :func:`_row_lattice`, and the components come
    ordered as :func:`solve_torus_system` returns them.  Raises
    :class:`EnumerationTooLarge` beyond ``budget`` components.

    >>> from .catalog import catalog
    >>> octa = catalog("octahedral_s4_sl3")
    >>> g = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
    >>> len(fix_locus(octa, [g]))
    16
    """
    rows = _row_lattice(action, subgroup)
    copies = 2 * action.d
    rhs = tuple((0,) * len(rows) for _ in range(copies))
    return solve_torus_system(rows, 1, rhs, action.r, copies, budget)


def component_count(action: IntegralAction, g) -> int:
    """Number of components of Fix(g), from Smith divisors of I - g.

    >>> from .catalog import catalog
    >>> octa = catalog("octahedral_s4_sl3")
    >>> component_count(octa, ((-1, 0, 0), (0, -1, 0), (0, 0, 1)))
    16
    """
    snf = smith_normal_form(mat_sub(identity_matrix(action.r), g))
    return prod(map(abs, snf.divisors)) ** (2 * action.d)


def isolated_count(action: IntegralAction, g) -> int:
    """|det(I - g)| ** 2d; raises :class:`NotIsolated` when singular."""
    m = mat_sub(identity_matrix(action.r), g)
    det = mat_det(m)
    if det == 0:
        raise NotIsolated("fixed locus is positive dimensional")
    return abs(det) ** (2 * action.d)


def generic_isotropy(action: IntegralAction, s: AffineSubtorus) -> frozenset:
    """The subgroup fixing the component pointwise.

    >>> from .catalog import catalog
    >>> octa = catalog("octahedral_s4_sl3")
    >>> whole = AffineSubtorus.whole_torus(3, 2)
    >>> sorted(generic_isotropy(octa, whole)) == [octa.identity]
    True
    """
    basis = s.lattice_basis
    den, ipts = s.scaled_points()
    return frozenset(
        g for g in action.elements
        if all(mat_vec(g, row) == row for row in basis)
        and all((a - b) % den == 0 for pt in ipts for a, b in zip(mat_vec(g, pt), pt))
    )


def torsion_oracle(action: IntegralAction, n: int,
                   budget: int = DEFAULT_ENUMERATION_BUDGET) -> dict:
    """Count n-torsion fixed points of every element by brute force.

    The n-torsion points fixed by g are the kernel of x -> (I - g) x on
    (Z/n)^r, so their number is n^r over the size of the image H; it is
    raised to the power 2d for the independent homology copies.  H is
    enumerated as a set, grown one column c of I - g at a time by coset
    layers: H is a group, so each coset H + kc, k = 1, 2, ..., is either
    disjoint from the cosets before it or H itself, and the layers stop
    at the first k with kc already in H.  So at most n^r vectors are
    held, and each vector of the final H is built once, besides one
    shift vector per coset: fewer than 2 * n^r + r tuples per class, at
    most r * n^r when r > 1.  No Smith or Hermite form is taken, so the
    counts check the determinant and Smith counts independently of all
    normal-form machinery.  x -> kx maps the fixed points of g onto
    those of kgk^-1, so the enumeration runs once per conjugacy class
    and every member gets its class representative's count.

    >>> from .catalog import catalog
    >>> z6 = catalog("z6_sl2")
    >>> oracle = torsion_oracle(z6, 2)
    >>> oracle[((-1, 0), (0, -1))]
    16
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n ** action.r > budget:
        raise EnumerationTooLarge(f"{n}^{action.r} exceeds budget {budget}")
    ident = identity_matrix(action.r)
    counts = [0] * action.order
    for cls in action._classes:
        images = {(0,) * action.r}
        for col in zip(*mat_sub(ident, action.elements[cls.rep])):
            layer = tuple(images)  # H before this column
            shift = step = tuple(x % n for x in col)
            while shift not in images:  # H + shift is a new coset
                images.update(tuple([(a + b) % n for a, b in zip(w, shift)])
                              for w in layer)
                shift = tuple([(a + b) % n for a, b in zip(shift, step)])
        count = (n ** action.r // len(images)) ** (2 * action.d)
        for g in cls.members:
            counts[g] = count
    return dict(zip(action.elements, counts))


def orbifold_euler(action: IntegralAction) -> int:
    """Orbifold Euler number: average over commuting pairs of chi(common fix).

    A positive-dimensional union of subtori has Euler characteristic 0; a
    finite fixed set of a pair (g, h) contributes |Z^r / L|^(2d), read off
    the pivots of the Hermite basis of L, which g's record's Hermite rows
    and the rows of I - h span.  Conjugate pairs fix isomorphic sets, so g
    runs over the class records and h over the classes of the centralizer
    C(g) under conjugation by C(g) (k (g, h) k^-1 = (g, khk^-1) for k in
    C(g)), which g's record holds, each weighted by both class sizes.  L
    has rank at most rank(1 - g) + rank(1 - h), so pairs whose ranks sum
    below r are skipped; the ranks are the records'.  When g or h is 1,
    the other has rank r and L is its record's row lattice, so no form is
    taken for the pair.  The total is sum over classes of
    |G| * e(X^g / C(g)) (Hirzebruch-Hoefer), so it must be divisible by |G|.

    >>> from .catalog import catalog
    >>> orbifold_euler(catalog("z6_sl2"))
    24
    """
    r, classes, elements, total = action.r, action._classes, action.elements, 0
    top = max(cls.rank for cls in classes)
    for cls in classes:
        if cls.rank + top < r:
            continue  # no h makes a finite fixed set with g
        for hcls in cls.centralizer_classes:
            h = classes[action._class_number[hcls[0]]]
            if cls.rank + h.rank < r:
                continue  # positive-dimensional: chi = 0
            if cls.rank and h.rank:
                hnf = _row_lattice(action, (elements[hcls[0]],), cls.rows)
                if len(hnf) < r:
                    continue  # positive-dimensional: chi = 0
            else:  # g or h is 1; the other has rank r, and its record the rows
                hnf = (h if h.rank else cls).rows
            # full rank: row i's pivot sits in column i
            index = prod(row[i] for i, row in enumerate(hnf))
            total += cls.size * len(hcls) * index ** (2 * action.d)
    if total % action.order:
        raise ConsistencyError(
            f"fixed-point total {total} is not divisible by |G| = {action.order}"
        )
    return total // action.order
