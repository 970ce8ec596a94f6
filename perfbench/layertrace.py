"""Per-layer spans and counters, recorded from outside the program.

:class:`Tracer` wraps the public functions and methods of the ``kummer``
layers listed in :data:`FUNCTIONS` and :data:`METHODS`.  A wrapped name is
replaced in every ``kummer`` module that binds it (the modules import
each other's functions with ``from .x import``), and a method is replaced
on its class.  Each call records a span ``(name, start, end, parent)``
in memory; :meth:`Tracer.metrics` turns the spans and a few counters into
the flat per-layer metric dict the benchmark reports.

A layer's ``.s`` is the time inside its outermost spans (a call nested in
a call of the same name is not counted twice); ``.self_s`` subtracts the
time covered by child spans of other wrapped names.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref

# (module, function name) wrapped wherever a kummer module binds it
FUNCTIONS = (
    ("kummer.groupcore", "generate_group"),
    ("kummer.groupcore", "subgroup_class_poset"),
    ("kummer.exactalg", "smith_normal_form"),
    ("kummer.exactalg", "char_poly"),
    ("kummer.exactalg", "det_one_plus_t"),
    ("kummer.toruslat", "fix_locus"),
    ("kummer.toruslat", "generic_isotropy"),
    ("kummer.toruslat", "torsion_oracle"),
    ("kummer.toruslat", "orbifold_euler"),
    ("kummer.mckay", "fiber_poincare_equivariant"),
    ("kummer.repring", "quotient_poincare"),
    ("kummer.strata", "stratify"),
    ("kummer.strata", "assemble_from_ledger"),
    ("kummer.cli", "main"),
)
# (module, class, method) wrapped on the class that defines it
METHODS = (
    ("kummer.toruslat", "AffineSubtorus", "apply_matrix"),
    ("kummer.toruslat", "AffineSubtorus", "contains"),
    ("kummer.toruslat", "AffineSubtorus", "intersect"),
    ("kummer.groupcore", "FiniteGroup", "conjugacy_classes"),
    ("kummer.groupcore", "FiniteGroup", "normalizer"),
    ("kummer.groupcore", "FiniteGroup", "conjugate_subgroup"),
)
SYMCHECK = "kummer.symcheck"  # every public function, summed as symcheck.s
CACHED = ("char_poly", "det_one_plus_t")  # lru_cache'd: hit ratio reported

# per-layer metric -> unit, in the order the benchmark reports them
UNITS = {}
for _name in ("toruslat.apply_matrix", "toruslat.contains",
              "toruslat.generic_isotropy", "mckay.fiber_poincare_equivariant",
              "toruslat.intersect", "toruslat.fix_locus",
              "groupcore.generate_group", "groupcore.conjugacy_classes",
              "groupcore.normalizer", "groupcore.conjugate_subgroup",
              "groupcore.subgroup_class_poset", "exactalg.smith_normal_form"):
    UNITS[f"{_name}.calls"] = "count"
    UNITS[f"{_name}.s"] = "s"
UNITS.update({
    "toruslat.contains.true_ratio": "ratio",
    "toruslat.intersect.yield": "members/call",
    "strata.stratify.s": "s",
    "strata.stratify.self_s": "s",
    "toruslat.torsion_oracle.s": "s",
    "toruslat.torsion_oracle.vectors": "count",
    "toruslat.orbifold_euler.s": "s",
    "repring.quotient_poincare.s": "s",
    "strata.assemble_from_ledger.s": "s",
    "symcheck.s": "s",
    "cli.main.self_s": "s",
    "exactalg.det_one_plus_t.calls": "count",
    "exactalg.det_one_plus_t.hit_ratio": "ratio",
    "exactalg.char_poly.calls": "count",
    "exactalg.char_poly.hit_ratio": "ratio",
    "strata.family_members": "count",
    "strata.strata": "count",
    "strata.orbits": "count",
    "strata.closure_edges": "count",
    "groupcore.group_order": "count",
    "groupcore.class_count": "count",
})


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Install wrappers, collect spans and counters, restore on uninstall."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._cached = {}
        self._cache_base = {}
        self.counts = dict.fromkeys((
            "contains_true", "intersect_new", "torsion_vectors",
            "family_members", "strata", "orbits", "closure_edges",
            "group_order", "class_count"), 0)
        self._family_keys = set()
        self._class_counted = weakref.WeakSet()

    # -- installation -----------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "kummer" or name.startswith("kummer.")}
        exactalg = modules["kummer.exactalg"]
        self._cached = {n: getattr(exactalg, n) for n in CACHED}
        self._cache_base = {n: fn.cache_info() for n, fn in self._cached.items()}
        for mod_name, fname in FUNCTIONS:
            self._wrap_function(modules, getattr(modules[mod_name], fname),
                                f"{_layer(mod_name)}.{fname}")
        symcheck = modules[SYMCHECK]
        for fname, fn in vars(symcheck).items():
            if (inspect.isfunction(fn) and not fname.startswith("_")
                    and fn.__module__ == SYMCHECK):
                self._wrap_function(modules, fn, f"symcheck.{fname}")
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrapper(original, f"{_layer(mod_name)}.{meth}"))
            self._patches.append((cls, meth, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_function(self, modules, original, span_name):
        wrapper = self._wrapper(original, span_name)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def _wrapper(self, original, span_name):
        after = getattr(self, "_after_" + span_name.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index] = (span_name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters recorded at the layer boundaries --------------------------------

    def _after_toruslat_contains(self, args, result):
        self.counts["contains_true"] += bool(result)

    def _after_toruslat_fix_locus(self, args, result):
        self._family_keys.update(c.key for c in result)

    def _after_toruslat_intersect(self, args, result):
        for comp in result:
            if comp.key not in self._family_keys:
                self._family_keys.add(comp.key)
                self.counts["intersect_new"] += 1

    def _after_toruslat_torsion_oracle(self, args, result):
        action, n = args[0], args[1]
        self.counts["torsion_vectors"] += n ** action.r

    def _after_strata_stratify(self, args, report):
        self._family_keys.clear()
        c = self.counts
        c["family_members"] += sum(s.component_count * s.class_size
                                   for s in report.strata if s.order > 1)
        c["strata"] += len(report.strata)
        c["orbits"] += sum(s.orbit_count for s in report.strata)
        c["closure_edges"] += len(report.closure_edges)

    def _after_groupcore_generate_group(self, args, group):
        self.counts["group_order"] += group.order

    # conjugacy_classes caches on the instance: count classes once per group
    def _after_groupcore_conjugacy_classes(self, args, classes):
        group = args[0]
        if group not in self._class_counted:
            self._class_counted.add(group)
            self.counts["class_count"] += len(classes)

    # -- aggregation --------------------------------------------------------------

    def metrics(self) -> dict:
        """Flat per-layer metrics for everything recorded since install."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start

        def outermost(i, same):
            p = spans[i][3]
            while p >= 0 and not same(spans[p][0]):
                p = spans[p][3]
            return p < 0

        total, self_time, calls = {}, {}, {}
        symcheck = 0.0
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
            if outermost(i, name.__eq__):
                total[name] = total.get(name, 0.0) + (end - start)
            if name.startswith("symcheck.") and outermost(
                    i, lambda n: n.startswith("symcheck.")):
                symcheck += end - start

        out = {}
        for metric in UNITS:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(layer, 0)
            elif field == "s":
                out[metric] = total.get(layer, 0.0)
            elif field == "self_s":
                out[metric] = self_time.get(layer, 0.0)
        out["symcheck.s"] = symcheck
        out["toruslat.contains.true_ratio"] = _ratio(
            self.counts["contains_true"], calls.get("toruslat.contains", 0))
        out["toruslat.intersect.yield"] = _ratio(
            self.counts["intersect_new"], calls.get("toruslat.intersect", 0))
        out["toruslat.torsion_oracle.vectors"] = self.counts["torsion_vectors"]
        for name, fn in self._cached.items():
            info, base = fn.cache_info(), self._cache_base[name]
            hits, misses = info.hits - base.hits, info.misses - base.misses
            out[f"exactalg.{name}.hit_ratio"] = _ratio(hits, hits + misses)
        for key in ("family_members", "strata", "orbits", "closure_edges"):
            out[f"strata.{key}"] = self.counts[key]
        for key in ("group_order", "class_count"):
            out[f"groupcore.{key}"] = self.counts[key]
        return out


def _ratio(num, den):
    return num / den if den else 0.0
