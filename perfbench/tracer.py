"""Span tracer that wraps slred's public functions from outside the package.

The benchmark records spans around calls into each layer of `src/slred`
without changing that code.  A function is wrapped by replacing every
reference to the original function object in every loaded `slred.*` module
and in every class those modules define, because modules import each other
with `from .lie import rank_of_rows` and classes alias methods
(`Poly.__rmul__ = __mul__`).  Patching only the defining module would miss
those call sites silently.

Spans are kept in memory as `[item, name, start, end, parent]` rows, where
`parent` is the index of the enclosing span or -1, and written out once at
the end of a run.  A layer's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter
from typing import Callable, Optional

# (span name, module, attribute path, extra counter).  The extra counter
# receives `cost(args, result)` on every call.
WRAPPED = (
    ("lie.rank_of_rows", "slred.lie", "rank_of_rows", "cells"),
    ("lie.jordan_type", "slred.lie", "jordan_type", None),
    ("lie.inverse", "slred.lie", "inverse", None),
    ("lie.nullspace_of_rows", "slred.lie", "nullspace_of_rows", None),
    ("pyramids.is_good_grading", "slred.pyramids", "is_good_grading", None),
    ("pyramids.align_for_theorem", "slred.pyramids", "align_for_theorem", None),
    ("star.check_star", "slred.star", "check_star", None),
    ("reduction.build_reduction", "slred.reduction", "build_reduction", None),
    ("reduction.build_case_one", "slred.reduction", "build_case_one", None),
    ("reduction.verify_conjugation", "slred.reduction", "verify_conjugation", None),
    ("orbits.reduction_path", "slred.orbits", "reduction_path", None),
    ("orbits.dominance_leq", "slred.orbits", "dominance_leq", None),
    ("orbits.box_move_witness", "slred.orbits", "box_move_witness", None),
    ("orbits.partitions_of", "slred.orbits", "partitions_of", None),
    ("orbits.covers_of", "slred.orbits", "covers_of", None),
    ("screening.screening_coeffs", "slred.screening", "screening_coeffs", None),
    ("screening.left_action_coeffs", "slred.screening", "left_action_coeffs", None),
    (
        "screening.UnipotentChart.generic_element",
        "slred.screening",
        "UnipotentChart.generic_element",
        None,
    ),
    ("screening.fourier_signs", "slred.screening", "fourier_signs", None),
    ("cli.main", "slred.cli", "main", None),
    ("cli.emit", "slred.cli", "emit", "bytes"),
)

# Called about 260k times per screening sweep: counted, never spanned.
COUNTED = (("screening.poly_mul", "slred.screening", "Poly.__mul__"),)

_COSTS: dict[str, Callable] = {
    # Sum of rows x cols handed to the elimination kernel.
    "cells": lambda args, result: len(args[0]) * (len(args[0][0]) if args[0] else 0),
    "bytes": lambda args, result: len(result.encode()),
}

ORBIT_SPANS = tuple(name for name, *_ in WRAPPED if name.startswith("orbits."))

# Wrappers that must fire on each workload, or the traced run fails.
EXPECTED = {
    "reduce-n12": (
        "lie.rank_of_rows", "lie.jordan_type", "lie.inverse", "lie.nullspace_of_rows",
        "pyramids.is_good_grading", "pyramids.align_for_theorem", "star.check_star",
        "reduction.build_reduction", "reduction.build_case_one",
        "reduction.verify_conjugation", "orbits.box_move_witness",
    ),
    "screen-9to10": (
        "screening.screening_coeffs", "screening.left_action_coeffs",
        "screening.UnipotentChart.generic_element", "screening.fourier_signs",
        "screening.poly_mul", "lie.inverse",
    ),
    "chain-n11": (
        "reduction.build_reduction", "reduction.build_case_one",
        "orbits.reduction_path", "orbits.dominance_leq", "orbits.covers_of",
        "lie.rank_of_rows", "pyramids.is_good_grading", "star.check_star",
    ),
    "cli-cold": (
        "cli.main", "cli.emit", "orbits.partitions_of", "orbits.covers_of",
        "orbits.reduction_path", "orbits.box_move_witness",
        "reduction.build_reduction", "screening.screening_coeffs",
        "screening.fourier_signs", "screening.poly_mul",
    ),
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return getattr(owner, attr)


def _replace_everywhere(original, replacement) -> int:
    """Point every slred module and class attribute bound to `original` at
    `replacement`; returns how many references were replaced."""
    replaced = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "slred" or modname.startswith("slred.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
            elif isinstance(value, type) and value.__module__.startswith("slred"):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, cattr, replacement)
                        replaced += 1
    return replaced


class Tracer:
    """In-memory span recorder; `install()` wraps every layer function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item: Optional[str] = None
        self._stack: list[int] = []

    def install(self) -> None:
        for name, module, path, cost in WRAPPED:
            original = _resolve(module, path)
            self._patch(original, self._spanning(name, original, cost))
        for name, module, path in COUNTED:
            original = _resolve(module, path)
            self._patch(original, self._counting(name, original))

    @staticmethod
    def _patch(original, wrapper) -> None:
        wrapper.__wrapped__ = original
        if _replace_everywhere(original, wrapper) == 0:
            raise RuntimeError(f"no reference to {original!r} found in slred")

    def _spanning(self, name: str, original, cost: Optional[str]):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        measure = _COSTS[cost] if cost else None
        cost_key = f"{name}.{cost}"

        def wrapper(*args, **kwargs):
            span = [self.item, name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if measure is not None:
                counts[cost_key] += measure(args, result)
            return result

        return wrapper

    def _counting(self, name: str, original):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def report(self) -> dict:
        """Per span name: calls, seconds in outermost spans and self seconds;
        plus the plain counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _item, _name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        summary: dict[str, dict] = {}
        for index, (_item, name, start, end, parent) in enumerate(spans):
            entry = summary.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            while parent >= 0 and spans[parent][1] != name:
                parent = spans[parent][4]
            if parent < 0:  # not inside another call of the same function
                entry["s"] += end - start
        return {"summary": summary, "counts": dict(self.counts)}

    def dump(self, path) -> None:
        """Write spans as gzip'd JSON lines: item, name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge(reports) -> dict:
    """Sum traced reports from several processes (the cli-cold invocations)."""
    summary: dict[str, dict] = {}
    counts: Counter = Counter()
    for report in reports:
        for name, entry in report["summary"].items():
            total = summary.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field, value in entry.items():
                total[field] += value
        counts.update(report["counts"])
    return {"summary": summary, "counts": dict(counts)}


def fired(report) -> set:
    names = {name for name, entry in report["summary"].items() if entry["calls"]}
    names.update(key.rsplit(".", 1)[0] for key, value in report["counts"].items() if value)
    return names


# Per-layer metrics of the traced run, with units.  `NAME.calls`, `NAME.s` and
# `NAME.self_s` read span NAME; other names are counters or derived below.
LAYER_METRICS = {
    "lie.rank_of_rows.calls": "count",
    "lie.rank_of_rows.s": "s",
    "lie.rank_of_rows.cells": "count",
    "lie.jordan_type.calls": "count",
    "lie.jordan_type.s": "s",
    "lie.inverse.s": "s",
    "lie.nullspace_of_rows.s": "s",
    "pyramids.is_good_grading.calls": "count",
    "pyramids.is_good_grading.s": "s",
    "pyramids.is_good_grading.self_s": "s",
    "pyramids.align_for_theorem.calls": "count",
    "star.check_star.calls": "count",
    "star.check_star.self_s": "s",
    "reduction.build_reduction.calls": "count",
    "reduction.build_reduction.s": "s",
    "reduction.build_reduction.self_s": "s",
    "reduction.build_reduction.misses": "count",
    "reduction.cache_hit_ratio": "ratio",
    "reduction.verify_conjugation.s": "s",
    "orbits.calls": "count",
    "orbits.self_s": "s",
    "screening.screening_coeffs.s": "s",
    "screening.left_action_coeffs.calls": "count",
    "screening.left_action_coeffs.s": "s",
    "screening.UnipotentChart.generic_element.calls": "count",
    "screening.UnipotentChart.generic_element.s": "s",
    "screening.fourier_signs.s": "s",
    "screening.poly_mul.calls": "count",
    "cli.import_s": "s",
    "cli.main.s": "s",
    "cli.emit.s": "s",
    "cli.emit.bytes": "bytes",
    "trace.overhead": "ratio",
}


def layer_values(report) -> dict:
    """Every per-layer metric except `trace.overhead`, from one sweep's report."""
    summary, counts = report["summary"], report["counts"]

    def span(name: str, field: str):
        return summary.get(name, {}).get(field, 0)

    calls = span("reduction.build_reduction", "calls")
    # build_case_one runs exactly once per miss of the build_reduction memo.
    misses = span("reduction.build_case_one", "calls")
    derived = {
        "reduction.build_reduction.misses": misses,
        "reduction.cache_hit_ratio": (calls - misses) / calls if calls else 0.0,
        "orbits.calls": sum(span(name, "calls") for name in ORBIT_SPANS),
        "orbits.self_s": sum(span(name, "self_s") for name in ORBIT_SPANS),
    }
    values = {}
    for metric in LAYER_METRICS:
        if metric == "trace.overhead":
            continue
        if metric in derived:
            values[metric] = derived[metric]
        elif metric in counts:
            values[metric] = counts[metric]
        else:
            name, field = metric.rsplit(".", 1)
            values[metric] = span(name, field)
    return values
