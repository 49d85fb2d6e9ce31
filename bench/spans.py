"""Span tracing for the benchmark's traced run.

`Tracer` wraps the public functions of each superschur layer, from the
benchmark's own files: every call becomes a span (name, start, end, parent
span, case id) kept in memory, and counts of work are recorded at the same
boundaries.  A name is replaced in every superschur namespace that binds
it, because callers look names up where they imported them
(`superschur.residue.hook_schur_eval` is not `superschur.hookschur`'s).
Leaving the `with` block restores every original and checks that no wrapper
is left behind.

Hit ratios are computed from the arguments: a call is a hit when its key
was seen earlier in the same run.  No private cache is read.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

# Per-layer metrics reported by a traced pass, with their units.
LAYER_METRICS = {
    "laurent.mul.calls": "count",
    "laurent.mul.self_s": "s",
    "laurent.mul.term_pairs": "count",
    "laurent.mul.max_out_terms": "count",
    "laurent.mul.self_s.under_residue": "s",
    "laurent.mul.self_s.under_hookschur": "s",
    "laurent.mul.self_s.under_poincare": "s",
    "laurent.add.calls": "count",
    "laurent.add.self_s": "s",
    "residue.constant_term_with_delta.calls": "count",
    "residue.constant_term_with_delta.self_s": "s",
    "residue.constant_term_with_delta.in_terms": "count",
    "residue.hs_on_z.calls": "count",
    "residue.hs_on_z.self_s": "s",
    "residue.hs_on_z.hit_ratio": "ratio",
    "residue.delta_numerator.self_s": "s",
    "hookschur.hook_schur_eval.calls": "count",
    "hookschur.hook_schur_eval.self_s": "s",
    "hookschur.hook_schur_eval.hit_ratio": "ratio",
    "hookschur.super_hom_sequence.calls": "count",
    "hookschur.super_hom_sequence.self_s": "s",
    "characters.kronecker.calls": "count",
    "characters.kronecker.self_s": "s",
    "characters.kronecker.hit_ratio": "ratio",
    "characters.m_lambda.calls": "count",
    "characters.m_lambda.self_s": "s",
    "characters.m_bar_lambda.calls": "count",
    "characters.chi_entries": "count",
    "characters.kron_entries": "count",
    "partitions.enumerate_partitions.calls": "count",
    "partitions.enumerate_partitions.self_s": "s",
    "qseries.closed_form_series.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "poincare.p_series.self_s": "s",
    "poincare.verify_budzik.self_s": "s",
    "poincare.check_derivative_relation.self_s": "s",
}

# Spans named "<module>.<function>".  Helpers called ~10^5 times
# (class_size, _mn) are left alone: wrapping them would swamp the run.
FUNCTIONS = (
    "partitions.enumerate_partitions",
    "characters.kronecker",
    "characters.m_lambda",
    "characters.m_bar_lambda",
    "hookschur.hook_schur_eval",
    "hookschur.super_hom_sequence",
    "residue.constant_term_with_delta",
    "residue.hs_on_z",
    "residue.delta_numerator",
    "qseries.closed_form_series",
    "poincare.p_series",
    "poincare.verify_budzik",
    "poincare.check_derivative_relation",
    "cli.main",
)
METHODS = {
    "laurent.mul": ("__mul__", "__rmul__"),
    "laurent.add": ("__add__", "__radd__"),
}
UNDER = ("residue", "hookschur", "poincare")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None at top level
    case: Optional[int]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its direct
    children (the union of their intervals, clipped to the span)."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Installs the span wrappers on entry and removes them on exit."""

    def __init__(self):
        self.spans: list = []
        self.case: Optional[int] = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)
        self.term_pairs = 0
        self.max_out_terms = 0
        self.in_terms = 0
        self._seen = defaultdict(set)
        self.hits = Counter()

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.case)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.bench_span = name
        return wrapper

    def _keyed(self, name, key):
        seen, hits = self._seen[name], self.hits

        def before(args):
            k = key(args)
            if k in seen:
                hits[name] += 1
            else:
                seen.add(k)
        return before

    def _mul_before(self, args):
        a, b = args
        self.term_pairs += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)

    def _mul_after(self, result):
        if len(result.terms) > self.max_out_terms:
            self.max_out_terms = len(result.terms)

    def _ct_before(self, args):
        self.in_terms += len(args[0].terms)

    def _hooks(self, name):
        if name == "laurent.mul":
            return self._mul_before, self._mul_after
        if name == "residue.constant_term_with_delta":
            return self._ct_before, None
        if name == "residue.hs_on_z":
            return self._keyed(name, lambda a: (tuple(a[0]), tuple(a[1]))), None
        if name == "hookschur.hook_schur_eval":
            return self._keyed(name, lambda a: (tuple(a[0]), a[1], a[2])), None
        if name == "characters.kronecker":
            return self._keyed(name, lambda a: tuple(a[:3])), None
        return None, None

    # -- install / remove ----------------------------------------------

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if n == "superschur" or n.startswith("superschur.")]

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        from superschur.laurent import LaurentPoly

        originals = {}
        for name in FUNCTIONS:
            module, attr = name.split(".")
            originals[name] = getattr(importlib.import_module(f"superschur.{module}"), attr)
        modules = self._modules()
        for name, original in originals.items():
            wrapper = self._wrap(name, original, *self._hooks(name))
            attr = name.split(".")[1]
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for name, attrs in METHODS.items():
            wrapper = self._wrap(name, getattr(LaurentPoly, attrs[0]), *self._hooks(name))
            for attr in attrs:
                self._patch(LaurentPoly, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        from superschur.laurent import LaurentPoly

        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        owners = self._modules() + [LaurentPoly]
        left = [f"{getattr(o, '__name__', o)}.{a}" for o in owners
                for a, v in vars(o).items() if hasattr(v, "bench_span")]
        if left:
            raise RuntimeError(f"span wrappers left installed: {left}")

    # -- results -------------------------------------------------------

    def metrics(self) -> dict:
        """Every LAYER_METRICS entry for the spans recorded so far."""
        from superschur import default_cache

        calls = Counter(span.name for span in self.spans)
        self_s = defaultdict(float)
        under = defaultdict(float)
        for span, t in zip(self.spans, self_times(self.spans)):
            self_s[span.name] += t
            if span.name == "laurent.mul" and span.parent is not None:
                under[self.spans[span.parent].name.split(".")[0]] += t

        def ratio(name):
            return self.hits[name] / calls[name] if calls[name] else 0.0

        out = {}
        for name in FUNCTIONS + tuple(METHODS):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in ("residue.hs_on_z", "hookschur.hook_schur_eval",
                     "characters.kronecker"):
            out[f"{name}.hit_ratio"] = ratio(name)
        for module in UNDER:
            out[f"laurent.mul.self_s.under_{module}"] = under[module]
        out["laurent.mul.term_pairs"] = self.term_pairs
        out["laurent.mul.max_out_terms"] = self.max_out_terms
        out["residue.constant_term_with_delta.in_terms"] = self.in_terms
        out["characters.chi_entries"] = len(default_cache().chi)
        out["characters.kron_entries"] = len(default_cache().kron)
        return {name: out[name] for name in LAYER_METRICS}

    def write(self, path: Path) -> Path:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name,
                                     "start": span.start - origin,
                                     "end": span.end - origin,
                                     "parent": span.parent,
                                     "case": span.case}) + "\n")
        return path
