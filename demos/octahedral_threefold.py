"""A Calabi-Yau threefold from the rotation group of the cube.

The 24 rotations of the cube act on the third power of an elliptic curve
by integer matrices.  Every non-trivial element fixes a one-dimensional
set, the isotropy stratification has four curve classes and three point
classes, and assembling the fiber-weighted strata gives the Poincaré
polynomial of a crepant resolution of the quotient.
"""

from kummer import catalog, fix_locus, stratify

octa = catalog("octahedral_s4_sl3")
print(f"group: {octa.label}, order {octa.order}, acting on a rank-3 lattice")
print()

print("fixed curves of the non-trivial cyclic classes:")
for g in octa.class_representatives():
    if g == octa.identity:
        continue
    locus = fix_locus(octa, octa.subgroup_closure([g]))
    print(f"  order {octa.element_order(g)}: {len(locus)} elliptic curves")
print()

report = stratify(octa)
print("strata of the quotient (isotropy order, ambient curves, quotient "
      "components, resolution fiber):")
for s in report.strata:
    kind = "curve" if s.rank == 1 else ("point" if s.rank == 0 else "open")
    print(f"  {kind:>5} stratum, isotropy order {s.order:>2}: "
          f"{s.component_count:>3} components in {s.orbit_count:>2} orbits, "
          f"fiber {s.fiber_plain}")
print()
print(f"quotient polynomial  : {report.quotient}")
print(f"resolution polynomial: {report.resolution}")
print(f"Euler number         : {report.resolution(-1)}")
