"""Two dihedral actions on four-dimensional tori, by machine and by hand.

The dihedral groups of order 6 and 8 act on the square of an abelian
surface through their rank-2 integral reflection representations.  Both
quotients admit symplectic resolutions, and the resolution cohomology is
computed twice: from the integral model through the full stratification
machinery, and from a hand-authored strata ledger that mirrors the
counting arguments (including a symbolic component count m that the
integral model pins to 1).
"""

import json
from pathlib import Path

from kummer import assemble_from_ledger, catalog, stratify

HERE = Path(__file__).resolve().parent

for name, ledger_file in [
    ("s3_standard_d2", "dihedral6_symbolic.json"),
    ("d8_b2", "dihedral8_pieces.json"),
]:
    action = catalog(name)
    report = stratify(action)
    print(f"== {name}: order {action.order}, quotient {report.quotient}")
    print(f"   machine resolution : {report.resolution}")

    ledger = json.loads((HERE / "ledgers" / ledger_file).read_text())
    result = assemble_from_ledger(ledger)
    if result.parameter is not None:
        print(f"   ledger, symbolic {result.parameter}: "
              f"({result.const}) + {result.parameter}*({result.linear})")
        print(f"   substituting {result.substitution}: {result.value}")
    else:
        print(f"   ledger resolution  : {result.value}")
    assert result.value == report.resolution
    print("   the two routes agree")
    print()
