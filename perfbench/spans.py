"""Traced mode: spans around calls into fslat's public functions.

The tracer swaps wrappers into every ``fslat`` module namespace that holds
one of the listed functions, so call sites reached through
``from .algebras import hom_extend`` are covered as well as
``algebras.hom_extend``.  Spans live in flat in-memory arrays (name,
parent, op id, start, end) and are written out as CSV after the run.
``install`` and ``uninstall`` are cheap, so the harness can time each op
once untraced and once traced.

``groups.mul`` and ``algebras.act`` stay unwrapped: a census calls them
millions of times and a span each would swamp the measurement.
"""

from __future__ import annotations

import sys
import time
from array import array

# Functions timed with a span, by module.
SPANS = {
    "groups": ("subgroups", "subgroup_from_elements", "presentation", "cosets"),
    "constructions": ("maroti", "twisted_multiple"),
    "algebras": ("hom_extend", "subalgebra_generated", "congruences", "validate_axioms", "cover_edges"),
    "quasivar": ("verify_bijection", "is_minimal_free", "stabilizer", "decompose_ku", "holds_quasi_identity"),
    "irrationals": ("rational_between", "check_separating_identity"),
    "cli": ("run",),
}

# Functions only counted: they run too often for a span each.
COUNTS = {
    "quasivar": ("eval_term",),
    "irrationals": ("compare_with_rational",),
}

# Each op's entry point: every op runs inside one of these spans, so their
# self time is the part of an op that no layer below them accounts for.
ENTRY_POINTS = ("cli.run", "quasivar.verify_bijection")

# Metrics a traced run reports, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    ("groups.subgroups.self_s", "s"),
    ("groups.subgroups.calls", "count"),
    ("groups.subgroup_from_elements.self_s", "s"),
    ("groups.subgroup_from_elements.calls", "count"),
    ("groups.presentation.self_s", "s"),
    ("groups.cosets.self_s", "s"),
    ("constructions.maroti.self_s", "s"),
    ("constructions.twisted_multiple.self_s", "s"),
    ("algebras.hom_extend.self_s", "s"),
    ("algebras.hom_extend.calls", "count"),
    ("algebras.hom_extend.ok_ratio", "ratio"),
    ("algebras.subalgebra_generated.self_s", "s"),
    ("algebras.subalgebra_generated.calls", "count"),
    ("algebras.congruences.self_s", "s"),
    ("algebras.validate_axioms.self_s", "s"),
    ("algebras.cover_edges.self_s", "s"),
    ("quasivar.verify_bijection.self_s", "s"),
    ("quasivar.is_minimal_free.self_s", "s"),
    ("quasivar.stabilizer.self_s", "s"),
    ("quasivar.decompose_ku.self_s", "s"),
    ("quasivar.holds_quasi_identity.self_s", "s"),
    ("quasivar.eval_term.calls", "count"),
    ("irrationals.rational_between.self_s", "s"),
    ("irrationals.compare_with_rational.calls", "count"),
    ("irrationals.check_separating_identity.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
)


PACKAGE = "fslat"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.op_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, list[int]] = {}
        self.hom_ok = [0]
        self._swaps: list[tuple[object, str, object, object]] = []
        self._build()

    def _build(self) -> None:
        wrappers = {}
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for short, names in table.items():
                mod = sys.modules[f"{PACKAGE}.{short}"]
                for name in names:
                    fn = getattr(mod, name)
                    wrappers[id(fn)] = (fn, make(f"{short}.{name}", fn))
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._swaps.append((mod, attr, value, hit[1]))

    def _span_wrapper(self, label: str, fn):
        name_id = len(self.names)
        self.names.append(label)
        name_of, parent, op_of, start, end = self.name_of, self.parent, self.op_of, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns
        hom_ok = self.hom_ok if label == "algebras.hom_extend" else None

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hom_ok is not None and result.ok:
                hom_ok[0] += 1
            return result

        return wrapper

    def _count_wrapper(self, label: str, fn):
        cell = self.counts.setdefault(label, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapped in self._swaps:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._swaps:
            setattr(mod, attr, original)

    def span_count(self) -> int:
        return len(self.start)

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time (seconds) and call count per span name."""
        n = len(self.start)
        child = [0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            self_ns[k] += dur[i] - child[i]
            calls[k] += 1
        return (
            {name: self_ns[k] / 1e9 for k, name in enumerate(self.names)},
            {name: calls[k] for k, name in enumerate(self.names)},
        )

    def metrics(self, traced_s: float, untraced_paired_s: float, traced_paired_s: float) -> dict[str, float]:
        self_s, calls = self.totals()
        values: dict[str, float] = {}
        for name, _ in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if kind == "self_s":
                values[name] = self_s[layer]
            elif kind == "calls":
                values[name] = calls[layer] if layer in calls else self.counts[layer][0]
        attempts = calls["algebras.hom_extend"]
        values["algebras.hom_extend.ok_ratio"] = self.hom_ok[0] / attempts if attempts else 0.0
        values["trace.overhead_ratio"] = traced_paired_s / untraced_paired_s if untraced_paired_s else 0.0
        below = sum(t for name, t in self_s.items() if name not in ENTRY_POINTS)
        values["trace.coverage"] = below / traced_s if traced_s else 0.0
        return values

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.op_of[i]},{self.names[self.name_of[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )
