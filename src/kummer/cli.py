"""Command-line front end.

Runs the full pipeline on a catalog action, an input file, or a manual
strata ledger, prints a human-readable or JSON report, and exits 0 only
when every internal cross-check passes (1 on check failure, 2 on input
errors).  Reports are deterministic: identical inputs produce identical
bytes.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .catalog import (
    UnknownCatalogEntry,
    catalog as catalog_build,
    catalog_kind,
    list_catalog as catalog_listing,
)
from .exactalg import ConsistencyError, IntPolynomial
from .groupcore import (
    DEFAULT_ORDER_CAP,
    AbstractGroup,
    IntegralAction,
    NonInvertible,
    NotFiniteWithinCap,
    SpecialityViolation,
    generate_group,
)
from .mckay import NonIntegerAge
from .strata import (
    MalformedLedger, TerminalStratum, _frame, _ledger_int, _ledger_matrices, _only_keys,
    assemble_from_ledger, stratify,
)
from .symcheck import (
    AnalyticEigenData,
    CountingConstraint,
    bls_classify,
    counting_feasibility,
    lefschetz_count,
    symplectic_reflection_generated,
    tetrahedral_obstruction_constraint,
)
from .toruslat import (
    DEFAULT_ENUMERATION_BUDGET, EnumerationTooLarge, orbifold_euler, torsion_oracle,
)

REPORT_VERSION = 1


class InputError(ValueError):
    """Bad job specification or input document."""


# long option -> (default, how its value is read: int, a set of choices, str,
# or None for a flag without one, metavar, help); JobSpec has a field for
# each and checks the rest
OPTIONS = {
    "mode": ("integral", str, "MODE", "integral, analytic or ledger"),
    "catalog": (None, str, "NAME", "name of a catalog action"),
    "input": (None, str, "PATH", "path to a JSON input document"),
    "d": (None, int, "INT", "abelian-variety dimension (integral mode)"),
    "oracle": (None, int, "N", "cross-check fixed points against N-torsion counts"),
    "equivariant": (False, None, "", "include per-orbit Weyl character detail"),
    "format": ("text", {"text", "json"}, "FORMAT", "text or json"),
    "max-group-order": (DEFAULT_ORDER_CAP, int, "INT", "cap on the group order"),
    "max-enumeration": (DEFAULT_ENUMERATION_BUDGET, int, "INT", "brute-force budget"),
    "list": (False, None, "", "list catalog entries and exit"),
    "help": (False, None, "", "show this help and exit (also -h)"),
}


class JobSpec:
    """A checked command line: a field for each option of ``OPTIONS``, named
    with "_" for "-" and defaulting to the table's; ``InputError`` unless
    the options go together.  ``main`` reads ``--format``, ``--list`` and
    ``--help`` itself; ``run`` reads the rest."""

    __slots__ = tuple(name.replace("-", "_") for name in OPTIONS)

    def __init__(self, mode, **options):
        options["mode"] = mode
        for name, option in OPTIONS.items():
            field = name.replace("-", "_")
            setattr(self, field, options.pop(field, option[0]))
        if options:
            raise TypeError(f"JobSpec() got unexpected options {sorted(options)}")
        if mode not in ("integral", "analytic", "ledger"):
            raise InputError(f"unknown mode {mode!r}")
        if (self.catalog is None) == (self.input is None):
            raise InputError("exactly one of --catalog or --input is required")
        for flag in ("oracle", "d", "max-group-order", "max-enumeration"):
            value = getattr(self, flag.replace("-", "_"))
            # a bool or a float is refused, as in an input document
            if value is not None and (type(value) is not int or value < 1):
                raise InputError(f"--{flag} must be a positive integer")
        for flag in ("d", "oracle", "equivariant"):
            if getattr(self, flag) and mode != "integral":
                raise InputError(f"--{flag} applies only in integral mode")
        if mode == "ledger" and self.input is None:
            raise InputError("ledger mode requires --input")
        if self.catalog is not None and catalog_kind(self.catalog) != mode:
            raise InputError(f"{self.catalog} is not an {mode} entry")


class Report:
    """A deterministic, JSON-serializable run report."""

    def __init__(self, payload: dict):
        self.payload = payload

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.payload.get("checks", []))

    def to_json(self) -> str:
        """The payload as ``json.dumps(payload, sort_keys=True, indent=2)``
        writes it, plus a newline, byte for byte.

        ``json.dumps`` drops to its pure-Python encoder whenever ``indent``
        is set, which made writing the report a sizeable share of a short
        run; :func:`_json_text` writes the same bytes in one pass.
        """
        return _json_text(self.payload, "\n") + "\n"

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


# how json.dumps writes each scalar a report holds, by exact type
_JSON_LEAVES = {str: encode_basestring_ascii, int: int.__repr__,
                bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def _json_text(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it.

    ``newline`` is a newline and the indent of the line ``value`` starts
    on.  Takes the types a report holds: dicts with str keys, lists,
    tuples, str, int, bool and None; anything else raises ``TypeError``.
    """
    leaf = _JSON_LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            leaf = _JSON_LEAVES.get(type(item))
            text = _json_text(item, inner) if leaf is None else leaf(item)
            items.append(f"{encode_basestring_ascii(key)}: {text}")
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all([type(item) is int for item in value]):
            body = ("," + inner).join(map(str, value))
        else:
            body = ("," + inner).join([_json_text(item, inner) for item in value])
        return f"[{inner}{body}{newline}]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
        if not isinstance(doc, dict):
            raise ValueError("the document must be a JSON object")
        _only_keys(doc, ("name", "matrices", "d", "special"), "the document")
        matrices = _ledger_matrices(doc["matrices"])
        d = d_override if d_override is not None else _ledger_int(doc.get("d", 1))
        if d < 1:
            raise ValueError("d must be a positive integer")
        special = doc.get("special", False)
        if not isinstance(special, bool):
            raise ValueError(f"special {special!r} is not a boolean")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad integral spec: {exc}") from None
    return generate_group(
        matrices, cap=cap, d=d, label=str(doc.get("name", "input")), special=special,
    )


def _within_cap(group, cap):
    """The group, or the error its closure under ``cap`` would raise: the
    catalog closes its groups without the cap."""
    if group.order > cap:
        raise NotFiniteWithinCap(f"group closure exceeds cap {cap}")
    return group


def _analytic_from_file(doc, cap):
    try:
        if not isinstance(doc, dict):
            raise ValueError("the document must be a JSON object")
        _only_keys(doc, ("name", "generators", "class_data", "constraints"), "the document")
        gens = [tuple(_ledger_int(x) for x in g) for g in doc["generators"]]
        group = AbstractGroup(gens, label=str(doc.get("name", "input")), cap=cap)
        per_class = {}
        for row in doc["class_data"]:
            _only_keys(row, ("representative", "exponents"), "a class_data row")
            rep = tuple(_ledger_int(x) for x in row["representative"])
            exps = tuple(Fraction(_ledger_int(n), _ledger_int(d))
                         for n, d in row["exponents"])
            per_class[group.class_index(rep)] = exps
        classes = group.conjugacy_classes()
        if (len(per_class) != len(doc["class_data"])
                or sorted(per_class) != list(range(len(classes)))):
            raise ValueError(
                "class_data must cover every conjugacy class exactly once"
            )
        data = AnalyticEigenData(
            group, tuple(per_class[i] for i in range(len(classes)))
        )
    except NotFiniteWithinCap:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad analytic spec: {exc}") from None
    constraints = doc.get("constraints", [])
    if not isinstance(constraints, list):
        raise InputError(f"bad constraint: constraints {constraints!r} are not a list")
    return data, [_constraint_from_doc(cdoc) for cdoc in constraints]


def _constraint_from_doc(doc) -> tuple[str, CountingConstraint]:
    """The label and constraint of one constraint document."""
    try:
        _only_keys(doc, ("label", "unknowns", "equations", "conditions"), "a constraint")
        unknowns = {
            str(name): (_ledger_int(lo), _ledger_int(hi))
            for name, (lo, hi) in doc["unknowns"].items()
        }
        equations = []
        for eq in doc.get("equations", []):
            _only_keys(eq, ("coeffs", "constant"), "an equation")
            coeffs = {str(k): _ledger_int(v) for k, v in eq.get("coeffs", {}).items()}
            equations.append((coeffs, _ledger_int(eq.get("constant", 0))))
        return (str(doc.get("label", "constraint")),
                CountingConstraint(unknowns, equations, doc.get("conditions", {})))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad constraint: {exc}") from None


# ---------------------------------------------------------------------------
# the pipeline


def run(job: JobSpec) -> Report:
    """Execute a job and return its report.

    >>> job = JobSpec("integral", catalog="z6_sl2")
    >>> report = run(job)
    >>> report.payload["resolution"]
    [1, 0, 22, 0, 1]
    >>> report.passed
    True
    """
    body = {"integral": _run_integral, "analytic": _run_analytic, "ledger": _run_ledger}
    return Report({"report_version": REPORT_VERSION, "mode": job.mode,
                   "input": _input_echo(job), **body[job.mode](job)})


def _run_integral(job: JobSpec) -> dict:
    if job.catalog is not None:
        action = _within_cap(catalog_build(job.catalog, d=job.d), job.max_group_order)
    else:
        action = _integral_from_file(_load_json(job.input), job.d, job.max_group_order)
    report = stratify(action, budget=job.max_enumeration)
    resolution = report.resolution
    quotient = report.quotient
    euler = orbifold_euler(action)

    payload = {
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
        oracle, mism = torsion_oracle(action, job.oracle, budget=job.max_enumeration), []
        by_class = [(math.prod(math.gcd(dv, job.oracle) for dv in _frame(cls.rows, action.r)[2])
                     * job.oracle ** (action.r - cls.rank)) ** (2 * action.d)
                    for cls in action._classes]  # the count is a class function
        for g in action.elements:
            predicted = by_class[action.class_index(g)]
            if oracle[g] != predicted:
                mism.append([list(map(list, g)), oracle[g], predicted])
        checks.append(_check(f"torsion_oracle_n{job.oracle}", mism, []))
    payload["checks"] = checks
    return payload


def _run_analytic(job: JobSpec) -> dict:
    if job.catalog is not None:
        group, exps = catalog_build(job.catalog)
        data = AnalyticEigenData(_within_cap(group, job.max_group_order), exps)
        constraints = [("symplectic_resolution_count",
                        tetrahedral_obstruction_constraint())]
    else:
        data, constraints = _analytic_from_file(_load_json(job.input),
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
    reflections = symplectic_reflection_generated(data)

    constraint_rows = []
    obstructed = None
    for label, constraint in constraints:
        res = counting_feasibility(constraint, budget=job.max_enumeration)
        constraint_rows.append({
            "label": label,
            "outcome": ("feasible " + json.dumps(list(res.solutions), sort_keys=True)
                        if res.feasible else f"infeasible: {res.witness}"),
            "feasible": res.feasible,
        })
        obstructed = obstructed or not res.feasible

    payload = {
        "group": {"label": group.label, "order": group.order,
                  "dimension": data.dimension},
        "classes": rows,
        # the identity's class comes first
        "purity_all_codim_two": all(row["codim"] == 2 for row in rows[1:]),
        "reflections": bool(reflections),
        "classification": repr(bls_classify(data)),
        "constraints": constraint_rows,
        "checks": [
            _check("self_dual_shape", data.is_self_dual(), True),
            _check("isolated_counts_are_squares", square_failures, []),
        ],
    }
    if obstructed is not None:
        payload["symplectic_resolution_obstructed"] = obstructed
    return payload


def _run_ledger(job: JobSpec) -> dict:
    doc = _load_json(job.input)
    try:
        result = assemble_from_ledger(doc, cap=job.max_group_order,
                                      budget=job.max_enumeration)
    except MalformedLedger as exc:
        raise InputError(str(exc)) from None
    payload = {
        "resolution": _poly(result.value) if result.value is not None else None,
        "checks": [],
    }
    if result.parameter is not None:
        payload["symbolic"] = {
            "parameter": result.parameter,
            "const": _poly(result.const),
            "linear": _poly(result.linear),
        }
    if result.value is not None:
        payload["checks"] = [
            _check("constant_term_one", result.value[0], 1),
            _check("palindromic", _poly(result.value),
                   _poly(result.value.reciprocal(result.value.degree))),
            _check("t1_coefficient_zero", result.value[1], 0),
        ]
    return payload


def _input_echo(job: JobSpec) -> dict:
    """The mode and each option without a default that the job sets, read
    as the command line reads it (a path as its str)."""
    echo = {"mode": job.mode}
    for name, (default, kind, *_) in OPTIONS.items():
        value = getattr(job, name.replace("-", "_"))
        if default is None and value is not None:
            echo[name] = kind(value)
    return echo


def list_catalog() -> str:
    """Stable listing of catalog names with descriptions."""
    lines = [f"{name}: {desc}" for name, desc in catalog_listing()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _help() -> str:
    lines = ["usage: kummer (--catalog NAME | --input PATH) [options]",
             "Exact cohomology of torus quotients by integral finite-group",
             "actions and of their crepant resolutions.", "options:"]
    for name, (default, _, metavar, text) in OPTIONS.items():
        shown = f" (default {default})" if default not in (None, False) else ""
        lines.append(f"  --{name} {metavar:<{22 - len(name)}}{text}{shown}")
    return "\n".join(lines) + "\n"


def parse_argv(argv) -> dict:
    """Each option of a ``kummer`` command line by long name, its default
    if absent; ``InputError`` on an argv error.  Read as GNU getopt reads
    it, with its error texts: ``--opt value``, ``--opt=value``, prefixes."""
    pairs, rest, args = [], [], iter(argv)
    for arg in args:
        if arg == "--":
            rest += args
        elif arg.startswith("--"):
            name, attached, value = arg[2:].partition("=")
            matches = [option for option in OPTIONS if option.startswith(name)]
            if name not in OPTIONS and len(matches) != 1:
                raise InputError(f"option --{name} not "
                                 + ("a unique prefix" if matches else "recognized"))
            name = name if name in OPTIONS else matches[0]
            if OPTIONS[name][1] is None:
                if attached:
                    raise InputError(f"option --{name} must not have an argument")
            elif not attached:
                value = next(args, None)
                if value is None:
                    raise InputError(f"option --{name} requires argument")
            pairs.append((name, value))
        elif arg.startswith("-") and arg != "-":
            for letter in arg[1:]:
                if letter != "h":
                    raise InputError(f"option -{letter} not recognized")
            pairs.append(("help", ""))
        else:
            rest.append(arg)
    if rest:
        raise InputError(f"unexpected argument {rest[0]!r}")
    opts = {name: option[0] for name, option in OPTIONS.items()}
    for name, value in pairs:
        kind, flag = OPTIONS[name][1], f"--{name}"
        if kind is None:
            value = True
        elif kind is int:
            try:
                value = int(value)
            except ValueError:
                raise InputError(f"{flag}: invalid int value {value!r}") from None
        elif kind is not str and value not in kind:
            raise InputError(f"{flag}: invalid choice {value!r} "
                             f"(choose from {', '.join(sorted(kind))})")
        opts[name] = value
    return opts


def main(argv=None) -> int:
    try:
        opts = parse_argv(sys.argv[1:] if argv is None else argv)
        if opts["help"] or opts["list"]:
            sys.stdout.write(_help() if opts["help"] else list_catalog())
            return 0
        report = run(JobSpec(**{name.replace("-", "_"): value
                                for name, value in opts.items()}))
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
    except TerminalStratum as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(report.to_json() if opts["format"] == "json" else report.to_text())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
