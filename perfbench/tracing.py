"""Spans and counts for the traced run, recorded from outside the package.

The traced run wraps the package's public functions at every place a module
binds them (the package namespace the benchmark calls through, and the
module globals the package's own code calls through), so a call made by the
benchmark and the calls it makes inside the package each get a span.
Nothing in the package is edited; the wrappers are installed only while a
traced op runs and are removed afterwards, so untraced ops run the plain
functions.

Span names are ``<layer>.<stage>``; the layers are the package's modules.
Spans are kept in memory as (name, start, end, parent, op) and written out
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import statistics
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "stateio", "states", "schwarz", "concurrence", "oracle")

# (module, attribute, span name).  The "qconc" rows cover the benchmark's
# own calls; the others cover calls the package makes internally.
PATCH_POINTS = (
    ("qconc", "concurrence", "concurrence.concurrence"),
    ("qconc", "is_separable_cut", "concurrence.certificate"),
    ("qconc", "full_separability", "concurrence.full_separability"),
    ("qconc", "parse_state", "stateio.parse"),
    ("qconc", "emit_state", "stateio.emit"),
    ("qconc", "sample_state", "stateio.sample"),
    ("qconc", "make_state", "states.make_state"),
    ("qconc.cli", "cli_main", "cli.main"),
    ("qconc.cli", "concurrence", "concurrence.concurrence"),
    ("qconc.cli", "is_separable_cut", "concurrence.certificate"),
    ("qconc.cli", "full_separability", "concurrence.full_separability"),
    ("qconc.cli", "factorize_cut", "concurrence.factorize"),
    ("qconc.cli", "parse_state", "stateio.parse"),
    ("qconc.cli", "emit_state", "stateio.emit"),
    ("qconc.cli", "sample_state", "stateio.sample"),
    ("qconc.concurrence", "is_separable_cut", "concurrence.certificate"),
    ("qconc.concurrence", "matricize", "schwarz.matricize"),
    ("qconc.concurrence", "minor_sum_sq", "schwarz.minor_sum"),
    ("qconc.concurrence", "max_abs_minor", "schwarz.max_minor"),
    ("qconc.concurrence", "normalize", "states.normalize"),
    ("qconc.stateio", "make_state", "states.make_state"),
    ("qconc.stateio", "normalize", "states.normalize"),
)

# Span names whose median duration per call is reported as "<name>_s".
TIMED_SPANS = (
    "cli.startup",
    "cli.main",
    "stateio.parse",
    "stateio.emit",
    "stateio.sample",
    "states.normalize",
    "states.make_state",
    "schwarz.matricize",
    "schwarz.minor_sum",
    "schwarz.max_minor",
    "concurrence.concurrence",
    "concurrence.certificate",
    "concurrence.full_separability",
)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


class Tracer:
    """In-memory span recorder with counters observed at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # (max_abs_minor, tolerance * peak^2, separable) per certificate
        self.certificates: list[tuple[float, float, bool]] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._observers = {
            "stateio.parse": self._saw_parse,
            "stateio.emit": self._saw_emit,
            "schwarz.minor_sum": self._saw_kernel,
            "schwarz.max_minor": self._saw_kernel,
            "concurrence.certificate": self._saw_certificate,
            "concurrence.full_separability": self._saw_full_separability,
        }

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install span wrappers on every patch point; restore on exit."""
        saved = []
        try:
            for module_name, attr, name in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- observers: counts taken where the work happens ---------------------

    def _saw_parse(self, args, kwargs, result):
        self.counts["stateio.bytes_parsed"] += len(args[0].encode("utf-8"))

    def _saw_emit(self, args, kwargs, result):
        self.counts["stateio.bytes_emitted"] += len(result.encode("utf-8"))

    def _saw_kernel(self, args, kwargs, result):
        rows, cols = getattr(args[0], "entries", args[0]).shape
        self.counts["schwarz.minors_exhaustive"] += _pairs(rows) * _pairs(cols)

    def _saw_certificate(self, args, kwargs, result):
        scale = float(np.max(np.abs(args[0].amps))) ** 2
        self.certificates.append(
            (result.max_abs_minor, result.tolerance * scale, result.separable)
        )

    def _saw_full_separability(self, args, kwargs, result):
        self.counts["concurrence.factors_extracted"] += len(result.factors)

    def count_cli(self, stdout: str) -> None:
        self.counts["cli.invocations"] += 1
        self.counts["cli.stdout_bytes"] += len(stdout.encode("utf-8"))

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics derived from the spans and counts.

        Times per stage are medians per call; counts are totals over the run;
        ``<layer>.busy_share`` is the layer's self time (span time not covered
        by nested spans) as a share of the run's wall time ``wall_s``.
        """
        durations: dict[str, list[float]] = {}
        self_time = Counter()
        calls = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            durations.setdefault(name, []).append(end - start)
            layer = name.split(".", 1)[0]
            self_time[layer] += end - start - child_time[index]
            calls[layer] += 1

        out: dict[str, float] = {}
        for name in TIMED_SPANS:
            out[f"{name}_s"] = statistics.median(durations.get(name, [0.0]))
        out["oracle.check_s"] = math.fsum(durations.get("oracle.check", []))
        for key in ("cli.invocations", "cli.stdout_bytes", "stateio.bytes_parsed",
                    "stateio.bytes_emitted", "schwarz.minors_exhaustive",
                    "concurrence.factors_extracted"):
            out[key] = self.counts[key]
        kernel_s = math.fsum(durations.get("schwarz.minor_sum", []) +
                             durations.get("schwarz.max_minor", []))
        out["schwarz.minor_rate_per_s"] = (
            self.counts["schwarz.minors_exhaustive"] / kernel_s if kernel_s else 0.0
        )
        certs = self.certificates
        out["concurrence.cuts_tested"] = len(certs)
        out["concurrence.separable_share"] = (
            sum(1 for *_, sep in certs if sep) / len(certs) if certs else 0.0
        )
        out["concurrence.min_threshold_margin"] = min(
            (abs(math.log10(worst / bound)) for worst, bound, _ in certs if worst > 0.0),
            default=0.0,
        )
        for layer in LAYERS:
            out[f"{layer}.busy_share"] = self_time[layer] / wall_s
            out[f"{layer}.calls"] = calls[layer]
        return out
