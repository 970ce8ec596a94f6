"""Why the binary tetrahedral action admits no global symplectic resolution.

The binary tetrahedral group has no integral model in rank 4; its action
on a four-dimensional torus is specified by eigenvalue exponents per
conjugacy class.  The fixed-point counts come from the holomorphic
Lefschetz formula, and a symplectic resolution would force an integer
identity on the count of fully fixed points that has no solution.
"""

from kummer import (
    AnalyticEigenData,
    bls_classify,
    counting_feasibility,
    lefschetz_count,
    symplectic_reflection_generated,
)
from kummer.catalog import binary_tetrahedral_eigendata
from kummer.symcheck import tetrahedral_obstruction_constraint

group, exponents = binary_tetrahedral_eigendata()
data = AnalyticEigenData(group, exponents)
print(f"group: {group.label}, order {group.order}, torus dimension "
      f"{data.dimension}")
print(f"classification: {bls_classify(data)}")
print(f"generated by symplectic reflections: "
      f"{bool(symplectic_reflection_generated(data))}")
print()

print("class table:")
for i, cls in enumerate(group.conjugacy_classes()):
    res = lefschetz_count(data, i)
    what = (f"{res.count} isolated fixed points" if res.isolated
            else f"fixed locus of complex dimension {res.dimension}")
    print(f"  order {group.element_order(cls[0])}, size {len(cls)}: {what}")
print()

all_codim_two = all(data.codimension(i) == 2 for i in range(1, len(data.exponents)))
print(f"every non-identity fixed locus has codimension 2: {all_codim_two}")
print("a symplectic resolution tolerates no stray isolated points, so the 256")
print("fixed points of the central involution would have to lie on the four")
print("order-6 fixed sets of 16 points each, sharing the s fully fixed points:")
print("256 = 4*(16 - s) + s, and the search for s says")
result = counting_feasibility(tetrahedral_obstruction_constraint())
print(f"  {result.witness}")
print()
print("conclusion: no global symplectic resolution exists for this action")
