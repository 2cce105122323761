"""Spans around the calls into daggereq's modules, installed from outside.

Each wrapper replaces a public function in the module namespace its
caller looks it up in, so the package itself is unchanged.  A span
records its layer, start, end, parent span, the type of any exception
that left it, and one count taken from the arguments or the result.
Spans stay in memory; :class:`LayerTotals` reduces them at the end.

Recursive functions such as ``terms.type_check`` are never wrapped: a
wrapper doubles the stack frames per level and would move the depth at
which deep terms crash.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass


def _poly_terms(args, result):
    return sum(1 for _ in result.terms()) if hasattr(result, "terms") else 0


def _assignments(args, result):
    d, interp = args[0], args[1]
    return math.prod(interp.dim(a) for a in d.wire_labels)


# (module, attribute, span name, count taken after a normal return)
PATCHES = (
    ("cli", "parse_signature", "signature.parse", None),
    ("terms", "parse_term_file", "terms.parse", None),
    ("terms", "close_pair", "terms.close_pair", None),
    ("diagram", "compile_term", "diagram.compile",
     lambda args, d: (d.n_boxes, d.n_wires)),
    ("diagram", "int_translate", "signature.int_translate", None),
    ("diagram", "find_isos", "diagram.find_isos", lambda args, isos: len(isos)),
    ("semantics", "iso_count_semantic", "semantics.iso_count", None),
    ("semantics", "m_interpretation", "semantics.m_interpretation", None),
    ("semantics", "denote", "semantics.denote", _poly_terms),
    ("semantics", "denote_naive", "semantics.denote_naive", _assignments),
    ("semantics", "random_interpretation", "semantics.random_interpretation", None),
    ("semantics", "find_witness", "semantics.find_witness",
     lambda args, w: int(w is not None)),
)


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    count: object = None


class Tracer:
    """Installs the wrappers and keeps the spans of the current check."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, modules: dict) -> None:
        for module_name, attr, name, count in PATCHES:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        """The spans of the check just run; starts a fresh list."""
        spans, self.spans = self.spans, []
        self._stack.clear()
        return spans

    def _wrap(self, original, name, count):
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            finally:
                stack.pop()
            span.end = time.perf_counter()
            if count is not None:
                span.count = count(args, result)
            return result

        return wrapper


# Per-layer metrics, all means per check except the yield.
LAYER_METRICS = (
    ("diagram.find_isos_s", "s/check"),
    ("diagram.isos_enumerated", "count/check"),
    ("semantics.denote_poly_s", "s/check"),
    ("semantics.poly_terms", "count/check"),
    ("semantics.m_interpretation_s", "s/check"),
    ("semantics.iso_count_s", "s/check"),
    ("semantics.denote_naive_s", "s/check"),
    ("semantics.naive_assignments", "count/check"),
    ("semantics.denote_gauss_s", "s/check"),
    ("semantics.random_interpretation_s", "s/check"),
    ("semantics.witness_trials", "count/check"),
    ("semantics.witness_yield", "ratio"),
    ("semantics.find_witness_s", "s/check"),
    ("terms.parse_s", "s/check"),
    ("terms.close_pair_s", "s/check"),
    ("terms.failures", "count/check"),
    ("diagram.compile_s", "s/check"),
    ("diagram.boxes", "count/check"),
    ("diagram.wires", "count/check"),
    ("diagram.failures", "count/check"),
    ("signature.parse_s", "s/check"),
    ("signature.int_translate_s", "s/check"),
    ("cli.self_s", "s/check"),
    ("trace.overhead_s", "s/check"),
)


class LayerTotals:
    """Sums span self times and counts over the checks of a traced run."""

    def __init__(self) -> None:
        self.sums: dict[str, float] = defaultdict(float)
        self.checks = 0
        self.check_time = 0.0
        self.witness_calls = 0

    def add_check(self, spans: list[Span], elapsed: float) -> None:
        self.checks += 1
        self.check_time += elapsed
        child_time = [0.0] * len(spans)
        child_error = [False] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
                child_error[span.parent] |= span.error is not None
        top = 0.0
        s = self.sums
        for i, span in enumerate(spans):
            duration = span.end - span.start
            if span.parent < 0:
                top += duration
            own = duration - child_time[i]
            parent = spans[span.parent].name if span.parent >= 0 else ""
            name = span.name
            if name == "semantics.denote":
                if parent == "semantics.find_witness":
                    name = "semantics.denote_gauss"
                else:
                    name = "semantics.denote_poly"
                    if span.count is not None:
                        s["semantics.poly_terms"] += span.count
            s[name + "_s"] += own
            if span.error is not None and not child_error[i]:
                s[span.name.split(".")[0] + ".failures"] += 1
            if name == "semantics.random_interpretation" and parent == "semantics.find_witness":
                s["semantics.witness_trials"] += 1
            elif name == "semantics.find_witness":
                self.witness_calls += 1
            if span.count is None:
                continue
            if name == "diagram.find_isos":
                s["diagram.isos_enumerated"] += span.count
            elif name == "diagram.compile":
                s["diagram.boxes"] += span.count[0]
                s["diagram.wires"] += span.count[1]
            elif name == "semantics.denote_naive":
                s["semantics.naive_assignments"] += span.count
            elif name == "semantics.find_witness":
                s["semantics.witnesses"] += span.count
        s["cli.self_s"] += elapsed - top

    def metrics(self, overhead_s: float) -> dict[str, float]:
        n = max(self.checks, 1)
        out = {}
        for name, _ in LAYER_METRICS:
            out[name] = self.sums.get(name, 0.0) / n
        out["semantics.witness_yield"] = (
            self.sums.get("semantics.witnesses", 0.0) / self.witness_calls
            if self.witness_calls else 0.0)
        out["trace.overhead_s"] = overhead_s / n
        return out

    def accounted(self) -> float:
        """Sum of every layer's self time plus cli.self_s, in seconds."""
        return sum(v for k, v in self.sums.items() if k.endswith("_s"))
