"""Workload definitions: pinned actions, seeded basis changes, expected values.

Every integral action is pinned here by its generator matrices, copied
from the catalog, so the benchmark's inputs do not change when the
program's catalog does.  A workload seed picks, per action, a unimodular
basis change ``P`` (a short product of +-1 elementary transvections) and
the program receives the generators ``P g P^-1``.
Poincaré polynomials, strata counts, Euler numbers, subgroup-class counts
and torsion-point totals do not depend on the basis, so the expected
values below hold for every seed.

Only the standard library is used: ``run.py`` imports this module and
never imports the program.
"""

from __future__ import annotations

import random

# -- pinned actions ---------------------------------------------------------
#
# name -> (label, d, special, generators).  Generators are the catalog's at
# the seed commit; ``natural_s4_d2`` is ``catalog.natural_sn(4, d=2)``.

ACTIONS = {
    "z2_sl2": ("z2_sl2", 1, True, [[[-1, 0], [0, -1]]]),
    "z3_sl2": ("z3_sl2", 1, True, [[[0, -1], [1, -1]]]),
    "z4_sl2": ("z4_sl2", 1, True, [[[0, -1], [1, 0]]]),
    "z6_sl2": ("z6_sl2", 1, True, [[[0, -1], [1, 1]]]),
    "s3_standard_d2": ("standard_s3", 2, False,
                       [[[-1, 1], [0, 1]], [[0, -1], [1, -1]]]),
    "d4_sl3": ("d4_sl3", 1, True,
               [[[-1, 0, 0], [0, -1, 0], [0, 0, 1]],
                [[-1, 0, 0], [0, 1, 0], [0, 0, -1]]]),
    "octahedral_s4_sl3": ("octahedral_s4_sl3", 1, True,
                          [[[-1, 0, 0], [0, -1, 0], [0, 0, 1]],
                           [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                           [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
                           [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]),
    "d8_b2": ("wreath_2_2", 2, False, [[[-1, 0], [0, 1]], [[0, 1], [1, 0]]]),
    "s4_standard_d2": ("standard_s4", 2, False,
                       [[[-1, 1, 0], [0, 1, 0], [0, 0, 1]],
                        [[0, 0, -1], [1, 0, -1], [0, 1, -1]]]),
    "natural_s4_d2": ("natural_s4", 2, False,
                      [[[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                       [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]),
}

# -- expected values ----------------------------------------------------------
#
# Integral CLI jobs: quotient and resolution coefficients, orbifold Euler
# number, number of strata.  Where ``tests/`` pins a value it is copied from
# there (z6_sl2, octahedral_s4_sl3, s4_standard_d2, s3_standard_d2, d8_b2);
# the rest is the seed commit's output in the catalog basis, and every
# Euler number agrees with ``orbifold_euler`` and with the resolution at -1.

EXPECTED = {
    "z2_sl2": {"quotient": [1, 0, 6, 0, 1], "resolution": [1, 0, 22, 0, 1],
               "euler": 24, "strata": 2},
    "z3_sl2": {"quotient": [1, 0, 4, 0, 1], "resolution": [1, 0, 22, 0, 1],
               "euler": 24, "strata": 2},
    "z4_sl2": {"quotient": [1, 0, 4, 0, 1], "resolution": [1, 0, 22, 0, 1],
               "euler": 24, "strata": 3},
    "z6_sl2": {"quotient": [1, 0, 4, 0, 1], "resolution": [1, 0, 22, 0, 1],
               "euler": 24, "strata": 4},
    "s3_standard_d2": {"quotient": [1, 0, 6, 4, 21, 4, 6, 0, 1],
                       "resolution": [1, 0, 7, 8, 108, 8, 7, 0, 1],
                       "euler": 108, "strata": 3},
    "d4_sl3": {"quotient": [1, 0, 3, 8, 3, 0, 1],
               "resolution": [1, 0, 51, 8, 51, 0, 1], "euler": 96, "strata": 5},
    "octahedral_s4_sl3": {"quotient": [1, 0, 1, 4, 1, 0, 1],
                          "resolution": [1, 0, 20, 14, 20, 0, 1],
                          "euler": 28, "strata": 8},
    "d8_b2": {"quotient": [1, 0, 6, 0, 22, 0, 6, 0, 1],
              "resolution": [1, 0, 23, 0, 276, 0, 23, 0, 1],
              "euler": 324, "strata": 5},
    "s4_standard_d2": {"quotient": [1, 0, 6, 4, 22, 24, 62, 24, 22, 4, 6, 0, 1],
                       "resolution": [1, 0, 7, 8, 51, 56, 458, 56, 51, 8, 7,
                                      0, 1],
                       "euler": 448, "strata": 5},
    # Hilb^4 of an abelian surface.  The report's t1_coefficient_zero check
    # is false here (b1 = 4), so the job exits 1 and counts as failed even
    # though every value below matches.
    "natural_s4_d2": {"quotient": [1, 4, 12, 32, 75, 160, 312, 508, 608, 508,
                                   312, 160, 75, 32, 12, 4, 1],
                      "resolution": [1, 4, 13, 40, 111, 276, 592, 996, 1198,
                                     996, 592, 276, 111, 40, 13, 4, 1],
                      "euler": 0, "strata": 5},
}

# Library-call expectations on the ladder and kummer6 groups: subgroup
# conjugacy classes, and the total over all elements of the n-torsion
# fixed-point counts from ``torsion_oracle`` at the given n (seed output in
# the catalog basis; conjugating by P permutes the n-torsion points).
LIBRARY_EXPECTED = {
    "d4_sl3": {"subgroup_classes": 5, "torsion_n": 6, "torsion_total": 48384},
    "octahedral_s4_sl3": {"subgroup_classes": 11, "torsion_n": 6,
                          "torsion_total": 50400},
    "d8_b2": {"subgroup_classes": 8, "torsion_n": 6, "torsion_total": 1723968},
    "s4_standard_d2": {"subgroup_classes": 11, "torsion_n": 6,
                       "torsion_total": 2186932704},
    "natural_s4_d2": {"subgroup_classes": 11, "torsion_n": 4,
                      "torsion_total": 4396353024},
}

ANALYTIC_EXPECTED = {"classes": 7, "obstructed": True, "reflections": True,
                     "classification": "BinaryTetrahedral"}

# Report checks known to be false at the seed commit, per action.  A
# summary lists the report's failing checks minus these, and every op
# expects that list empty: a check that starts failing (the torsion oracle
# against the Smith form, say) is a wrong value, while a known false check
# only makes the job exit 1 and so counts as failed.
KNOWN_FALSE_CHECKS = {"natural_s4_d2": ("t1_coefficient_zero",)}

LEDGERS = {
    "dihedral8_pieces": ("demos/ledgers/dihedral8_pieces.json",
                         [1, 0, 23, 0, 276, 0, 23, 0, 1]),
    "dihedral6_symbolic": ("demos/ledgers/dihedral6_symbolic.json",
                           [1, 0, 7, 8, 108, 8, 7, 0, 1]),
}

# -- workloads ----------------------------------------------------------------

KUMMER6 = ("s4_standard_d2",)
LADDER = ("octahedral_s4_sl3", "d4_sl3", "d8_b2", "natural_s4_d2")
ORACLE_JOBS = ("z2_sl2", "z3_sl2", "z4_sl2", "z6_sl2")
ORACLE_N = 6
LIBRARY_CALLS = ("torsion_oracle", "orbifold_euler", "subgroup_class_poset",
                 "quotient_poincare")

WORKLOADS = ("kummer6", "ladder", "crosscheck")


# -- seeded basis change --------------------------------------------------------

MAX_ENTRY = 5
TRANSVECTIONS = 2


def identity(r):
    return [[int(i == j) for j in range(r)] for i in range(r)]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transvection(r, i, j, s):
    """I + s * e_ij, an elementary unimodular matrix."""
    m = identity(r)
    m[i][j] = s
    return m


def basis_change(rng: random.Random, r: int, steps: int = TRANSVECTIONS):
    """A product of ``steps`` random +-1 transvections and its exact inverse."""
    p, p_inv = identity(r), identity(r)
    for _ in range(steps):
        i, j = rng.sample(range(r), 2)
        s = rng.choice((1, -1))
        p = mat_mul(p, transvection(r, i, j, s))
        p_inv = mat_mul(transvection(r, i, j, -s), p_inv)
    return p, p_inv


def conjugated_generators(name: str, rng: random.Random):
    """Generators ``P g P^-1`` of a pinned action, entries at most MAX_ENTRY.

    Draws basis changes from ``rng`` until every conjugated generator's
    entries are at most MAX_ENTRY in absolute value, so the result is a
    function of the generator's state alone.
    """
    gens = ACTIONS[name][3]
    r = len(gens[0])
    while True:
        p, p_inv = basis_change(rng, r)
        out = [mat_mul(mat_mul(p, g), p_inv) for g in gens]
        if max(abs(x) for m in out for row in m for x in row) <= MAX_ENTRY:
            return out


def input_document(name: str, rng: random.Random) -> dict:
    """The ``kummer --input`` document for a pinned action in a seeded basis."""
    label, d, special, _ = ACTIONS[name]
    return {"name": label, "matrices": conjugated_generators(name, rng),
            "d": d, "special": special}


def action_rng(seed: int, name: str) -> random.Random:
    """Independent stream per (seed, action): same seed, same inputs."""
    return random.Random(f"{seed}/{name}")


def build_ops(workload: str, seed: int, input_dir: str, root: str):
    """Ops for every pass, as JSON-ready dicts, and the input documents.

    ``docs`` maps a path under ``input_dir`` to the document to write there;
    ledger inputs are read from the demos under the checkout ``root``.

    Each op carries what the worker runs (``argv`` for a ``kummer`` command
    line or ``call`` for a library function), and ``expect``: the summary
    the worker's result must equal for the op to pass.
    """
    ops, docs = [], {}

    def integral(name, extra=()):
        path = f"{input_dir}/{name}.json"
        docs[path] = input_document(name, action_rng(seed, name))
        ops.append({
            "name": name, "kind": "integral",
            "argv": ["--input", path, "--format", "json", *extra],
            "expect": dict(EXPECTED[name], exit=0, failed_checks=[]),
        })

    if workload == "kummer6":
        for name in KUMMER6:
            integral(name)
    elif workload == "ladder":
        for name in LADDER:
            integral(name)
    elif workload == "crosscheck":
        for name in ORACLE_JOBS:
            integral(name, ("--oracle", str(ORACLE_N)))
        integral("s3_standard_d2", ("--equivariant",))
        ops.append({
            "name": "binary_tetrahedral", "kind": "analytic",
            "argv": ["--mode", "analytic", "--catalog", "binary_tetrahedral",
                     "--format", "json"],
            "expect": dict(ANALYTIC_EXPECTED, exit=0, failed_checks=[]),
        })
        for name, (path, resolution) in LEDGERS.items():
            ops.append({
                "name": name, "kind": "ledger",
                "argv": ["--mode", "ledger", "--input", f"{root}/{path}",
                         "--format", "json"],
                "expect": {"exit": 0, "resolution": resolution,
                           "failed_checks": []},
            })
        for name in KUMMER6 + LADDER:
            _, d, _, _ = ACTIONS[name]
            gens = conjugated_generators(name, action_rng(seed, name))
            for call in LIBRARY_CALLS:
                ops.append({
                    "name": f"{call}:{name}", "kind": "library", "call": call,
                    "matrices": gens, "d": d,
                    "n": LIBRARY_EXPECTED[name]["torsion_n"],
                    "expect": _library_expect(name, call),
                })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, docs


def _library_expect(name, call):
    if call == "orbifold_euler":
        return {"euler": EXPECTED[name]["euler"]}
    if call == "quotient_poincare":
        return {"quotient": EXPECTED[name]["quotient"]}
    if call == "subgroup_class_poset":
        return {"classes": LIBRARY_EXPECTED[name]["subgroup_classes"]}
    return {"total": LIBRARY_EXPECTED[name]["torsion_total"]}


# -- summaries the worker reports and run.py compares ---------------------------


def summarize(op: dict, exit_code: int, payload) -> dict:
    """Reduce a ``kummer`` report to the fields ``expect`` names."""
    kind = op["kind"]
    known = KNOWN_FALSE_CHECKS.get(op["name"], ())
    summary = {"exit": exit_code,
               "failed_checks": [c["name"] for c in payload["checks"]
                                 if not c["pass"] and c["name"] not in known]}
    if kind == "integral":
        euler = next(c["right"] for c in payload["checks"]
                     if c["name"] == "euler_cross_check")
        summary.update(quotient=payload["quotient"],
                       resolution=payload["resolution"], euler=euler,
                       strata=len(payload["strata"]))
    elif kind == "analytic":
        summary.update(classes=len(payload["classes"]),
                       obstructed=payload.get("symplectic_resolution_obstructed"),
                       reflections=payload["reflections"],
                       classification=payload["classification"])
    else:
        summary["resolution"] = payload["resolution"]
    return summary
