"""Test-side readings of integral actions that no entry point needs: the
integral catalog's distinct actions, whether an action fixes a nonzero
lattice vector, and a report's strata of one isotropy order."""

from kummer.catalog import catalog, catalog_kind, list_catalog
from kummer.exactalg import identity_matrix, kernel_basis, mat_sub


def integral_catalog_actions():
    """The integral catalog actions at default d, by name, one per
    (elements, d): aliases of one action are built but kept once."""
    seen = {}
    for name, _ in list_catalog():
        if catalog_kind(name) == "integral":
            action = catalog(name)
            seen.setdefault((action.elements, action.d), action)
    return tuple(seen.values())


def has_nonzero_fixed_vector(action):
    """Whether some nonzero lattice vector is fixed by every element: the
    rows of 1 - g, stacked over the generators g, have a nonzero kernel."""
    ident = identity_matrix(action.r)
    stacked = tuple(row for g in action.generators for row in mat_sub(ident, g))
    return len(kernel_basis(stacked, action.r)) > 0


def stratum_by(report, order, rank=None):
    """The report's strata with isotropy of the given order (and tangent rank)."""
    return tuple(s for s in report.strata
                 if s.order == order and (rank is None or s.rank == rank))
