"""Span recorder for the traced run, installed from outside the program.

Each traced public function is replaced, in every ``dynred`` module namespace
that binds it, by a wrapper that records a span: name, start, end and the
index of the enclosing span. Spans stay in memory until the run ends. A
layer's self time is the duration of its spans minus the time their child
spans cover; the layer of a span is the module that defines the function.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (defining module, function) pairs, as the CLI pipeline reaches them.
TRACED = (
    ("table", "parse_decision_table"),
    ("table", "sample_family"),
    ("rough", "condition_classes"),
    ("rough", "positive_region"),
    ("rough", "discernibility_matrix"),
    ("reducts", "discernibility_function"),
    ("reducts", "absorb"),
    ("reducts", "all_reducts"),
    ("reducts", "core_of"),
    ("dynamic", "analyze_family"),
    ("dynamic", "stability_report"),
    ("dynamic", "verify_theorems"),
    ("cli", "run"),
)
LAYERS = ("table", "rough", "reducts", "dynamic", "cli")


class Recorder:
    """Collects spans as [name, start, end, parent] lists; parent -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()

        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


class Tracing:
    """Context manager that installs a recorder's wrappers and restores the originals.

    It may be entered again after each exit. ``absent`` lists the TRACED
    functions the package no longer defines; they are skipped, not an error.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.absent = []
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dynred" or name.startswith("dynred."))
        ]
        for layer, func in TRACED:
            owner = sys.modules.get(f"dynred.{layer}")
            original = getattr(owner, func, None)
            if original is None:
                self.absent.append(f"{layer}.{func}")
                continue
            wrapper = self.recorder.wrap(f"{layer}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per layer: span duration minus the duration of its children.

    The program is single-threaded, so children of one span never overlap
    and the time they cover is the sum of their durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), t in zip(spans, own):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def call_counts(spans: list[list]) -> Counter:
    return Counter(name for name, *_ in spans)
