"""Exact cohomology of torus quotients by finite integral group actions.

The package computes, with exact integer arithmetic throughout:

* fixed loci of finite groups of integer matrices acting on a power of
  an abelian variety, read as torsion coordinates in Smith frames (as
  canonical subtorus translates in ``fix_locus``, the tests' reference);
* the stratification of the quotient by isotropy classes;
* Poincaré polynomials of the quotient (Molien averages) and, under the
  locally-product and McKay hypotheses, of a crepant resolution;
* obstruction checks for symplectic resolutions from analytic
  eigenvalue data alone.
"""

from .exactalg import (
    IntPolynomial,
    SmithDecomposition,
    char_poly,
    hermite_normal_form,
    smith_normal_form,
)
from .groupcore import (
    AbstractGroup,
    IntegralAction,
    generate_group,
    subgroup_class_poset,
)
from .catalog import (
    catalog,
    list_catalog,
    natural_sn,
    quotient_sn,
    standard_sn,
    wreath,
)
from .repring import quotient_poincare
from .toruslat import (
    AffineSubtorus,
    component_count,
    fix_locus,
    generic_isotropy,
    isolated_count,
    orbifold_euler,
    torsion_oracle,
)
from .mckay import (
    FiberPolynomial,
    fiber_poincare,
    fiber_poincare_equivariant,
    partition_fiber,
    young_fiber,
)
from .strata import (
    ComponentOrbit,
    StrataReport,
    Stratum,
    assemble_from_ledger,
    stratify,
)
from .symcheck import (
    AnalyticEigenData,
    CountingConstraint,
    bls_classify,
    counting_feasibility,
    lefschetz_count,
    symplectic_reflection_generated,
)

__version__ = "0.1.0"
