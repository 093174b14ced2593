"""In-memory span tracing around filtra's public functions.

Nothing under ``src/`` is instrumented.  ``Tracer.patch`` swaps a
traced wrapper in for a public function in every ``filtra`` module
that holds it (the defining module and each importer, ``filtra.cli``
included), or for a method on its class, so calls made by the program
itself are traced as well as the benchmark's own calls, and each span's
self time excludes the traced calls nested inside it.  ``Tracer.restore``
puts the originals back.

A span is ``(span_id, parent_id, case, name, start, end, self_s)``;
spans stay in a list until ``write_spans`` dumps them once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

# metric prefix -> (defining module, attribute or Class.method, time unit)
TRACED = {
    "formulas.parse_formula": ("filtra.formulas", "parse_formula", "us"),
    "worlds.truth_set": ("filtra.worlds", "truth_set", "us"),
    "beliefs.contains": ("filtra.beliefs", "BeliefSet.contains", "us"),
    "revision.revision_from_preorder": ("filtra.revision", "revision_from_preorder", "ms"),
    "revision.revision_from_selection": ("filtra.revision", "revision_from_selection", "ms"),
    "revision.check_agm": ("filtra.revision", "check_agm", "ms"),
    "revision.build_filtered": ("filtra.revision", "build_filtered", "ms"),
    "revision.check_filtered": ("filtra.revision", "check_filtered", "ms"),
    "revision.recover_basic": ("filtra.revision", "recover_basic", "ms"),
    "revision.revise": ("filtra.revision", "RevisionTable.revise", "us"),
    "choice.validate_structure": ("filtra.choice", "validate_structure", "us"),
    "choice.check_agm_consistency": ("filtra.choice", "check_agm_consistency", "us"),
    "choice.agm_consistency_bruteforce": ("filtra.choice", "agm_consistency_bruteforce", "us"),
    "reports.render_text": ("filtra.reports", "CheckReport.render_text", "us"),
    "reports.to_json": ("filtra.reports", "CheckReport.to_json", "us"),
    "scenario.load_scenario": ("filtra.scenario", "load_scenario", "ms"),
    "scenario.save_scenario": ("filtra.scenario", "save_scenario", "ms"),
    "sampling.random_plausibility_order": ("filtra.sampling", "random_plausibility_order", "ms"),
    "sampling.random_selection_function": ("filtra.sampling", "random_selection_function", "ms"),
    "sampling.random_labeling": ("filtra.sampling", "random_labeling", "ms"),
    "sampling.random_choice_structure": ("filtra.sampling", "random_choice_structure", "us"),
}


def _count_witnesses(counts: Counter, report, args, kwargs) -> None:
    counts["revision.witnesses"] += sum(len(result.witnesses) for result in report.results)


def _count_valuations(counts: Counter, outcome, args, kwargs) -> None:
    counts["choice.valuations_checked"] += outcome.valuations_checked


def _path_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _count_read(counts: Counter, scenario, args, kwargs) -> None:
    counts["scenario.bytes_read"] += _path_size(args[0])


def _count_written(counts: Counter, _none, args, kwargs) -> None:
    counts["scenario.bytes_written"] += _path_size(args[1])


COUNTERS: dict[str, Callable] = {
    "revision.check_agm": _count_witnesses,
    "revision.check_filtered": _count_witnesses,
    "choice.validate_structure": _count_witnesses,
    "choice.check_agm_consistency": _count_witnesses,
    "choice.agm_consistency_bruteforce": _count_valuations,
    "scenario.load_scenario": _count_read,
    "scenario.save_scenario": _count_written,
}


class Tracer:
    """Records spans and counts; one per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.case = -1
        self.active = True  # cleared while the harness verifies outcomes
        self._stack: list[list] = []  # [span_id, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append(
            (frame[0], parent[0] if parent else None, self.case, name, start, end, duration - frame[1])
        )

    @contextmanager
    def span(self, name: str):
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, start, time.perf_counter())

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, name, start, clock())
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return traced

    def patch(self) -> None:
        """Wrap every ``TRACED`` target in every loaded filtra module."""
        modules = [mod for key, mod in sys.modules.items() if key == "filtra" or key.startswith("filtra.")]
        for name, (module_name, attribute, _) in TRACED.items():
            owner = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original, COUNTERS.get(name)))
                continue
            original = getattr(owner, attribute)
            wrapper = self.wrap(name, original, COUNTERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def self_seconds(self, cases: set[int] | None = None) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds), over ``cases`` if given."""
        totals: dict[str, list] = {}
        for _, _, case, name, _, _, self_s in self.spans:
            if cases is not None and case not in cases:
                continue
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, span_name, start, end, _ in self.spans if span_name == name]

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "case", "name", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
