"""Named group actions used throughout the library and the CLI.

Integral entries are :class:`~kummer.groupcore.IntegralAction` instances;
the binary tetrahedral group has no integral model and is provided as a
permutation group together with per-class eigenvalue exponents of its
four-dimensional tangent representation.
"""

from __future__ import annotations

from fractions import Fraction

from .groupcore import AbstractGroup, IntegralAction, generate_group


class UnknownCatalogEntry(KeyError):
    """No catalog entry with the requested name."""


# ---------------------------------------------------------------------------
# symmetric-group representations


def natural_rep_matrix(perm, n: int):
    """Permutation matrix of perm (tuple of images) on Z^n."""
    return tuple(tuple(1 if perm[j] == i else 0 for j in range(n)) for i in range(n))


def standard_rep_matrix(perm, n: int):
    """Matrix of perm on the sum-zero sublattice, basis f_i = e_{i-1} - e_i.

    >>> standard_rep_matrix((1, 0, 2, 3), 4)
    ((-1, 1, 0), (0, 1, 0), (0, 0, 1))
    """
    r = n - 1

    def diff(a, b):  # e_a - e_b in the f basis
        v = [0] * r
        if a < b:
            for i in range(a + 1, b + 1):
                v[i - 1] += 1
        else:
            for i in range(b + 1, a + 1):
                v[i - 1] -= 1
        return v

    cols = [diff(perm[i - 1], perm[i]) for i in range(1, n)]
    return tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))


def quotient_rep_matrix(perm, n: int):
    """Matrix of perm on Z^n modulo the diagonal, basis = classes of e_1..e_{n-1}.

    The class of e_0 is minus the sum of the basis vectors.
    """
    r = n - 1

    def cls(i):  # class of e_i
        if i == 0:
            return [-1] * r
        v = [0] * r
        v[i - 1] = 1
        return v

    cols = [cls(perm[i]) for i in range(1, n)]
    return tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))


def _sn_generators(n: int):
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return [swap, cycle] if n > 2 else [swap]


def natural_sn(n: int, d: int = 1) -> IntegralAction:
    """S_n permuting the coordinates of Z^n."""
    gens = [natural_rep_matrix(p, n) for p in _sn_generators(n)]
    return generate_group(gens, d=d, label=f"natural_s{n}")


def standard_sn(n: int, d: int = 1) -> IntegralAction:
    """S_n on the rank n-1 sum-zero sublattice of the natural action.

    >>> standard_sn(4).order
    24
    """
    gens = [standard_rep_matrix(p, n) for p in _sn_generators(n)]
    return generate_group(gens, d=d, label=f"standard_s{n}")


def quotient_sn(n: int, d: int = 1) -> IntegralAction:
    """S_n on Z^n modulo the fixed diagonal (rank n-1, dual to standard)."""
    gens = [quotient_rep_matrix(p, n) for p in _sn_generators(n)]
    return generate_group(gens, d=d, label=f"quotient_s{n}")


def wreath(r: int, m: int = 2, d: int = 2) -> IntegralAction:
    """Sign-and-permutation matrices: the wreath-type group of order m^r * r!.

    Only m = 2 has an integral model in rank r; larger m is rejected.

    >>> wreath(2, 2).order
    8
    """
    if m != 2:
        raise ValueError("only m = 2 admits an integral model in rank r")
    sign = tuple(
        tuple((-1 if i == j == 0 else (1 if i == j else 0)) for j in range(r))
        for i in range(r)
    )
    gens = [sign]
    if r > 1:
        gens.append(natural_rep_matrix(tuple([1, 0] + list(range(2, r))), r))
    if r > 2:
        gens.append(natural_rep_matrix(tuple(list(range(1, r)) + [0]), r))
    return generate_group(gens, d=d, label=f"wreath_{r}_{m}")


# ---------------------------------------------------------------------------
# binary tetrahedral group: SL(2, F_3), no integral model


def binary_tetrahedral_group() -> AbstractGroup:
    """The order 24 group SL(2, F_3) permuting the eight nonzero vectors
    of F_3^2, generated by [[0, -1], [1, 0]] and [[1, 1], [0, 1]].

    >>> binary_tetrahedral_group().order
    24
    """
    vectors = [(a, b) for a in range(3) for b in range(3) if a or b]
    gens = [tuple(vectors.index(((p * a + q * b) % 3, (u * a + v * b) % 3))
                  for a, b in vectors)
            for (p, q), (u, v) in (((0, -1), (1, 0)), ((1, 1), (0, 1)))]
    return AbstractGroup(gens, label="binary_tetrahedral")


def binary_tetrahedral_eigendata():
    """Per-class tangent eigenvalue exponents of the obstruction action.

    The group acts on a four-dimensional complex torus through the sum of
    its two dual two-dimensional representations; only the element order
    matters for the exponent multiset.
    """
    group = binary_tetrahedral_group()
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    by_order = {
        1: (Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
        2: (half, half, half, half),
        4: (Fraction(1, 4), Fraction(1, 4), Fraction(3, 4), Fraction(3, 4)),
        3: (Fraction(0), Fraction(0), third, 2 * third),
        6: (sixth, half, half, 5 * sixth),
    }
    return group, tuple(tuple(sorted(by_order[cls.order])) for cls in group._classes)


# ---------------------------------------------------------------------------
# the registry


class CatalogEntry:
    __slots__ = ("name", "kind", "build", "description")

    def __init__(self, name, kind, build, description):
        self.name = name
        self.kind = kind  # "integral" or "analytic"
        self.build = build
        self.description = description


def _sl2_entry(name, matrix, description):
    return CatalogEntry(
        name, "integral",
        lambda d=1: generate_group([matrix], d=d, label=name, special=True),
        description,
    )


_ENTRIES: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry):
    _ENTRIES[entry.name] = entry


_register(_sl2_entry("z2_sl2", ((-1, 0), (0, -1)),
                     "Z2 on an elliptic-curve square: the classical Kummer surface"))
_register(_sl2_entry("z3_sl2", ((0, -1), (1, -1)),
                     "Z3 in SL(2,Z), nine isolated fixed points"))
_register(_sl2_entry("z4_sl2", ((0, -1), (1, 0)),
                     "Z4 in SL(2,Z)"))
_register(_sl2_entry("z6_sl2", ((0, -1), (1, 1)),
                     "Z6 in SL(2,Z): K3 with A5 + A2 + A1 configurations"))
_register(CatalogEntry(
    "d4_sl3", "integral",
    lambda d=1: generate_group(
        [((-1, 0, 0), (0, -1, 0), (0, 0, 1)), ((-1, 0, 0), (0, 1, 0), (0, 0, -1))],
        d=d, label="d4_sl3", special=True),
    "Klein four-group of diagonal signs in SL(3,Z)"))
_register(CatalogEntry(
    "octahedral_s4_sl3", "integral",
    lambda d=1: generate_group(
        [((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
         ((0, -1, 0), (1, 0, 0), (0, 0, 1)),
         ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
         ((0, 0, 1), (1, 0, 0), (0, 1, 0))],
        d=d, label="octahedral_s4_sl3", special=True),
    "rotation group of the cube: S4 in SL(3,Z), Calabi-Yau threefold quotient"))
_register(CatalogEntry(
    "s3_standard", "integral", lambda d=2: standard_sn(3, d=d),
    "S3 on the rank-2 sum-zero lattice"))
_register(CatalogEntry(
    "s4_standard", "integral", lambda d=2: standard_sn(4, d=d),
    "S4 on the rank-3 sum-zero lattice"))
_register(CatalogEntry(
    "s3_standard_d2", "integral", lambda d=2: standard_sn(3, d=d),
    "dimension-4 generalized Kummer: S3 standard action on an abelian-surface square"))
_register(CatalogEntry(
    "s4_standard_d2", "integral", lambda d=2: standard_sn(4, d=d),
    "Beauville generalized Kummer, dim 6"))
_register(CatalogEntry(
    "standard_s4_d2", "integral", lambda d=2: standard_sn(4, d=d),
    "Beauville generalized Kummer, dim 6 (alias)"))
_register(CatalogEntry(
    "d8_b2", "integral", lambda d=2: wreath(2, 2, d=d),
    "dihedral order 8 as signed 2x2 permutations (square symmetries), dim 4"))
_register(CatalogEntry(
    "wreath_2_2", "integral", lambda d=2: wreath(2, 2, d=d),
    "signed permutation group of rank 2 (alias of d8_b2)"))
_register(CatalogEntry(
    "natural_s3", "integral", lambda d=1: natural_sn(3, d=d),
    "S3 permuting three coordinates (has a fixed line)"))
_register(CatalogEntry(
    "quotient_s3", "integral", lambda d=1: quotient_sn(3, d=d),
    "S3 on Z^3 modulo the diagonal"))
_register(CatalogEntry(
    "binary_tetrahedral", "analytic", lambda d=None: binary_tetrahedral_eigendata(),
    "binary tetrahedral group with its symplectic-obstruction eigenvalue data"))


def catalog(name: str, d: int | None = None):
    """Build a catalog action by name.

    >>> catalog("z6_sl2").order
    6
    >>> catalog("wreath_2_2").order
    8
    """
    try:
        entry = _ENTRIES[name]
    except KeyError:
        raise UnknownCatalogEntry(name) from None
    if entry.kind == "analytic":
        return entry.build()
    return entry.build() if d is None else entry.build(d=d)


def catalog_kind(name: str) -> str:
    try:
        return _ENTRIES[name].kind
    except KeyError:
        raise UnknownCatalogEntry(name) from None


def list_catalog() -> tuple[tuple[str, str], ...]:
    """All catalog names with one-line descriptions, in stable order."""
    return tuple((name, _ENTRIES[name].description) for name in sorted(_ENTRIES))


ACCEPTANCE_ACTIONS = (
    ("z6_sl2", 1),
    ("octahedral_s4_sl3", 1),
    ("s4_standard_d2", 2),
    ("s3_standard_d2", 2),
    ("d8_b2", 2),
)
"""The five integral actions exercised by the full verification suite."""
