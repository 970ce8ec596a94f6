"""Command-line front end.

Runs the full pipeline on a catalog action, an input file, or a manual
strata ledger, prints a human-readable or JSON report, and exits 0 only
when every internal cross-check passes (1 on check failure, 2 on input
errors).  Reports are deterministic: identical inputs produce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .catalog import (
    UnknownCatalogEntry,
    catalog as catalog_build,
    catalog_kind,
    list_catalog as catalog_listing,
)
from .exactalg import (
    ConsistencyError, IntPolynomial, mat_sub, identity_matrix, smith_normal_form,
)
from .groupcore import (
    AbstractGroup,
    IntegralAction,
    NonInvertible,
    NotFiniteWithinCap,
    SpecialityViolation,
    generate_group,
)
from .mckay import NonIntegerAge
from .strata import MalformedLedger, assemble_from_ledger, stratify
from .symcheck import (
    AnalyticEigenData,
    CountingConstraint,
    bls_classify,
    codim2_purity_report,
    counting_feasibility,
    lefschetz_count,
    symplectic_reflection_generated,
    tetrahedral_obstruction_constraint,
)
from .toruslat import EnumerationTooLarge, orbifold_euler, torsion_oracle

REPORT_VERSION = 1


class InputError(ValueError):
    """Bad job specification or input document."""


class JobSpec:
    """What to run: mode, source, and options."""

    __slots__ = (
        "mode", "catalog_name", "input_path", "d", "oracle", "equivariant",
        "max_group_order", "max_enumeration",
    )

    def __init__(self, mode, catalog_name=None, input_path=None, d=None,
                 oracle=None, equivariant=False, max_group_order=10_000,
                 max_enumeration=10_000_000):
        if mode not in ("integral", "analytic", "ledger"):
            raise InputError(f"unknown mode {mode!r}")
        if (catalog_name is None) == (input_path is None):
            raise InputError("exactly one of --catalog or --input is required")
        if oracle is not None and oracle < 1:
            raise InputError("--oracle must be a positive integer")
        if d is not None and d < 1:
            raise InputError("--d must be a positive integer")
        self.mode = mode
        self.catalog_name = catalog_name
        self.input_path = input_path
        self.d = d
        self.oracle = oracle
        self.equivariant = equivariant
        self.max_group_order = max_group_order
        self.max_enumeration = max_enumeration


class Report:
    """A deterministic, JSON-serializable run report."""

    def __init__(self, payload: dict):
        self.payload = payload

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.payload.get("checks", []))

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls(json.loads(text))

    def to_text(self) -> str:
        p = self.payload
        lines = [f"kummer report (version {p['report_version']}, mode {p['mode']})"]
        lines.append(f"input: {json.dumps(p['input'], sort_keys=True)}")
        if "group" in p:
            g = p["group"]
            lines.append(
                f"group: {g['label']}  order {g['order']}, rank {g.get('r', '-')}, "
                f"d {g.get('d', '-')}"
            )
        if "quotient" in p:
            lines.append(f"quotient Poincare polynomial: {_poly_str(p['quotient'])}")
        if "strata" in p:
            lines.append("strata (label | isotropy order | dim | components | "
                         "orbits | weyl | fiber | quotient stratum | "
                         "resolution stratum):")
            for s in p["strata"]:
                lines.append(
                    f"  {s['label']:>6} | {s['isotropy_order']:>3} | {s['dim']:>3} "
                    f"| {s['components']:>4} | {s['orbits']:>4} | {s['weyl_order']:>3} "
                    f"| {_poly_str(s['fiber'])} | {_poly_str(s['y'])} | {_poly_str(s['x'])}"
                )
        if "resolution" in p and p["resolution"] is not None:
            lines.append(f"resolution Poincare polynomial: {_poly_str(p['resolution'])}")
        if "symbolic" in p:
            sym = p["symbolic"]
            lines.append(
                f"symbolic result: ({_poly_str(sym['const'])}) + "
                f"{sym['parameter']} * ({_poly_str(sym['linear'])})"
            )
        if "classes" in p:
            lines.append("classes (order | size | codim | fixed):")
            for row in p["classes"]:
                fixed = (f"{row['count']} points" if row["count"] is not None
                         else f"dim {row['dim']}")
                lines.append(
                    f"  order {row['order']:>2} | size {row['size']:>3} "
                    f"| codim {row['codim']} | {fixed}"
                )
        if "reflections" in p:
            lines.append(f"generated by symplectic reflections: {p['reflections']}")
        if "classification" in p:
            lines.append(f"classification: {p['classification']}")
        if "constraints" in p:
            for c in p["constraints"]:
                lines.append(f"constraint {c['label']}: {c['outcome']}")
        if "assumptions" in p:
            assume = ", ".join(f"{k}={v}" for k, v in sorted(p["assumptions"].items()))
            lines.append(f"assumptions: {assume}")
        lines.append("checks:")
        for c in p.get("checks", []):
            status = "pass" if c["pass"] else "FAIL"
            lines.append(f"  [{status}] {c['name']}: {c['left']} vs {c['right']}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _poly_str(coeffs) -> str:
    return str(IntPolynomial(coeffs)) if coeffs is not None else "-"


def _poly(p: IntPolynomial):
    return list(p.coeffs)


def _check(name, left, right):
    return {"name": name, "pass": left == right, "left": left, "right": right}


def _fraction_pair(x: Fraction):
    return [x.numerator, x.denominator]


# ---------------------------------------------------------------------------
# input documents


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _integral_from_file(doc, d_override, cap) -> IntegralAction:
    try:
        matrices = [tuple(tuple(int(x) for x in row) for row in m)
                    for m in doc["matrices"]]
        d = d_override if d_override is not None else int(doc.get("d", 1))
        if d < 1:
            raise ValueError("d must be a positive integer")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad integral spec: {exc}") from None
    return generate_group(
        matrices, cap=cap, d=d, label=str(doc.get("name", "input")),
        special=bool(doc.get("special", False)),
    )


def _within_cap(group, cap):
    """The group, or the error its closure under ``cap`` would raise: the
    catalog closes its groups without the cap."""
    if group.order > cap:
        raise NotFiniteWithinCap(f"group closure exceeds cap {cap}")
    return group


def _analytic_from_file(doc, cap):
    try:
        gens = [tuple(int(x) for x in g) for g in doc["generators"]]
        group = AbstractGroup(gens, label=str(doc.get("name", "input")), cap=cap)
        per_class = {}
        for row in doc["class_data"]:
            rep = tuple(int(x) for x in row["representative"])
            exps = tuple(Fraction(n, d) for n, d in row["exponents"])
            per_class[group.class_index(rep)] = exps
        classes = group.conjugacy_classes()
        if sorted(per_class) != list(range(len(classes))):
            raise ValueError(
                "class_data must cover every conjugacy class exactly once"
            )
        data = AnalyticEigenData(
            group, tuple(per_class[i] for i in range(len(classes)))
        )
    except NotFiniteWithinCap:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad analytic spec: {exc}") from None
    constraints = []
    for cdoc in doc.get("constraints", ()):
        constraints.append((str(cdoc.get("label", "constraint")),
                            _constraint_from_doc(cdoc)))
    return data, constraints


def _constraint_from_doc(doc) -> CountingConstraint:
    try:
        unknowns = {
            str(name): (int(lo), int(hi))
            for name, (lo, hi) in doc["unknowns"].items()
        }
        equations = [
            ({str(k): int(v) for k, v in eq.get("coeffs", {}).items()},
             int(eq.get("constant", 0)))
            for eq in doc.get("equations", [])
        ]
        conditions = doc.get("conditions", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad constraint: {exc}") from None
    return CountingConstraint(unknowns, equations, conditions)


# ---------------------------------------------------------------------------
# the pipeline


def run(job: JobSpec) -> Report:
    """Execute a job and return its report.

    >>> job = JobSpec("integral", catalog_name="z6_sl2")
    >>> report = run(job)
    >>> report.payload["resolution"]
    [1, 0, 22, 0, 1]
    >>> report.passed
    True
    """
    if job.mode == "integral":
        return _run_integral(job)
    if job.mode == "analytic":
        return _run_analytic(job)
    return _run_ledger(job)


def _resolve_integral_action(job) -> IntegralAction:
    if job.catalog_name is not None:
        if catalog_kind(job.catalog_name) != "integral":
            raise InputError(f"{job.catalog_name} is not an integral entry")
        return _within_cap(catalog_build(job.catalog_name, d=job.d),
                           job.max_group_order)
    return _integral_from_file(_load_json(job.input_path), job.d, job.max_group_order)


def _run_integral(job: JobSpec) -> Report:
    action = _resolve_integral_action(job)
    report = stratify(action, budget=job.max_enumeration)
    resolution = report.resolution
    quotient = report.quotient
    euler = orbifold_euler(action)

    payload = {
        "report_version": REPORT_VERSION,
        "mode": "integral",
        "input": _input_echo(job),
        "group": {
            "label": action.label,
            "order": action.order,
            "r": action.r,
            "d": action.d,
            "special": action.special,
        },
        "quotient": _poly(quotient),
        "resolution": _poly(resolution),
        "assumptions": {
            "locally_product_resolution": "assumed",
            "mckay_correspondence": "assumed",
        },
    }
    strata_rows = []
    for s in report.strata:
        row = {
            "label": s.label,
            "isotropy_order": s.order,
            "class_size": s.class_size,
            "dim": s.rank * action.d,
            "components": s.component_count,
            "orbits": s.orbit_count,
            "weyl_order": s.weyl_order,
            "fiber": _poly(s.fiber_plain),
            "y": _poly(s.y_poly),
            "x": _poly(s.x_poly),
        }
        if job.equivariant:
            row["orbit_detail"] = [
                {
                    "size": o.size,
                    "stabilizer_order": o.stabilizer_order,
                    "fiber_characters": [list(v.coeffs) for v in o.fiber.values],
                }
                for o in s.orbits
            ]
        strata_rows.append(row)
    payload["strata"] = strata_rows

    checks = [
        _check("constant_term_one", resolution[0], 1),
        _check("degree", resolution.degree, 2 * action.r * action.d),
        _check("palindromic", _poly(resolution),
               _poly(resolution.reciprocal(2 * action.r * action.d))),
        # a crepant resolution keeps b1; the check keeps its name so reports
        # with b1 = 0 read as before
        _check("t1_coefficient_zero", resolution[1], quotient[1]),
        _check("partition_of_quotient", _poly(report.y_total), _poly(quotient)),
        _check("euler_cross_check", resolution(-1), euler),
    ]
    if job.oracle is not None:
        oracle = torsion_oracle(action, job.oracle, budget=job.max_enumeration)
        ident = identity_matrix(action.r)
        mism = []
        for g in action.elements:
            snf = smith_normal_form(mat_sub(ident, g))
            predicted = 1
            for dv in snf.divisors:
                predicted *= math.gcd(abs(dv), abs(job.oracle))
            predicted = (predicted * job.oracle ** (action.r - snf.rank)) \
                ** (2 * action.d)
            if oracle[g] != predicted:
                mism.append([list(map(list, g)), oracle[g], predicted])
        checks.append(_check(f"torsion_oracle_n{job.oracle}", mism, []))
    payload["checks"] = checks
    return Report(payload)


def _run_analytic(job: JobSpec) -> Report:
    if job.catalog_name is not None:
        if catalog_kind(job.catalog_name) != "analytic":
            raise InputError(f"{job.catalog_name} is not an analytic entry")
        group, exps = catalog_build(job.catalog_name)
        data = AnalyticEigenData(_within_cap(group, job.max_group_order), exps)
        constraints = [("symplectic_resolution_count",
                        tetrahedral_obstruction_constraint())]
    else:
        data, constraints = _analytic_from_file(_load_json(job.input_path),
                                                job.max_group_order)
    group = data.group

    rows = []
    square_failures = []
    for i, cls in enumerate(group.conjugacy_classes()):
        res = lefschetz_count(data, i)
        rows.append({
            "order": group.element_order(cls[0]),
            "size": len(cls),
            "codim": data.codimension(i),
            "count": res.count,
            "dim": res.dimension,
            "exponents": [_fraction_pair(x) for x in data.exponents[i]],
        })
        if res.isolated and math.isqrt(res.count) ** 2 != res.count:
            square_failures.append([i, res.count])
    purity = codim2_purity_report(data)
    reflections = symplectic_reflection_generated(data)
    classification = repr(bls_classify(data)) if data.is_self_dual() else "NoMatch"

    constraint_rows = []
    obstructed = None
    for label, constraint in constraints:
        res = counting_feasibility(constraint)
        constraint_rows.append({
            "label": label,
            "outcome": ("feasible " + json.dumps(list(res.solutions), sort_keys=True)
                        if res.feasible else f"infeasible: {res.witness}"),
            "feasible": res.feasible,
        })
        obstructed = obstructed or not res.feasible

    payload = {
        "report_version": REPORT_VERSION,
        "mode": "analytic",
        "input": _input_echo(job),
        "group": {"label": group.label, "order": group.order,
                  "dimension": data.dimension},
        "classes": rows,
        "purity_all_codim_two": purity.all_codim_two,
        "reflections": bool(reflections),
        "classification": classification,
        "constraints": constraint_rows,
        "checks": [
            _check("self_dual_shape", data.is_self_dual(), True),
            _check("isolated_counts_are_squares", square_failures, []),
        ],
    }
    if obstructed is not None:
        payload["symplectic_resolution_obstructed"] = obstructed
    return Report(payload)


def _run_ledger(job: JobSpec) -> Report:
    if job.input_path is None:
        raise InputError("ledger mode requires --input")
    doc = _load_json(job.input_path)
    try:
        result = assemble_from_ledger(doc)
    except MalformedLedger as exc:
        raise InputError(str(exc)) from None
    payload = {
        "report_version": REPORT_VERSION,
        "mode": "ledger",
        "input": _input_echo(job),
        "resolution": _poly(result.value) if result.value is not None else None,
        "checks": [],
    }
    if result.parameter is not None:
        payload["symbolic"] = {
            "parameter": result.parameter,
            "const": _poly(result.symbolic.const),
            "linear": _poly(result.symbolic.linear),
        }
    if result.value is not None:
        payload["checks"] = [
            _check("constant_term_one", result.value[0], 1),
            _check("palindromic", _poly(result.value),
                   _poly(result.value.reciprocal(result.value.degree))),
            _check("t1_coefficient_zero", result.value[1], 0),
        ]
    return Report(payload)


def _input_echo(job: JobSpec) -> dict:
    echo = {"mode": job.mode}
    if job.catalog_name is not None:
        echo["catalog"] = job.catalog_name
    if job.input_path is not None:
        echo["input"] = str(job.input_path)
    if job.d is not None:
        echo["d"] = job.d
    if job.oracle is not None:
        echo["oracle"] = job.oracle
    return echo


def list_catalog() -> str:
    """Stable listing of catalog names with descriptions."""
    lines = [f"{name}: {desc}" for name, desc in catalog_listing()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummer",
        description="Exact cohomology of torus quotients by integral "
                    "finite-group actions and of their crepant resolutions.",
    )
    parser.add_argument("--mode", choices=["integral", "analytic", "ledger"],
                        default="integral")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--catalog", help="name of a catalog action")
    source.add_argument("--input", help="path to a JSON input document")
    parser.add_argument("--d", type=int, default=None,
                        help="abelian-variety dimension (integral mode)")
    parser.add_argument("--oracle", type=int, default=None, metavar="N",
                        help="cross-check fixed points against N-torsion counts")
    parser.add_argument("--equivariant", action="store_true",
                        help="include per-orbit Weyl character detail")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--max-group-order", type=int, default=10_000)
    parser.add_argument("--max-enumeration", type=int, default=10_000_000)
    parser.add_argument("--list", action="store_true",
                        help="list catalog entries and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        sys.stdout.write(list_catalog())
        return 0
    try:
        job = JobSpec(
            args.mode, catalog_name=args.catalog, input_path=args.input,
            d=args.d, oracle=args.oracle, equivariant=args.equivariant,
            max_group_order=args.max_group_order,
            max_enumeration=args.max_enumeration,
        )
        report = run(job)
    except (InputError, NonInvertible, NotFiniteWithinCap, SpecialityViolation,
            NonIntegerAge, UnknownCatalogEntry) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except EnumerationTooLarge as exc:
        sys.stderr.write(f"error: {exc} (set by --max-enumeration)\n")
        return 2
    except ConsistencyError as exc:
        sys.stderr.write(f"error: internal inconsistency: {exc}\n")
        return 1
    sys.stdout.write(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
