"""Spans around the public entry points of align-lab, and the per-layer
metrics derived from them.

The tracer replaces each entry point where its caller looks it up (for
example ``align_lab.harness.generate``, which ``harness.run`` calls) with a
wrapper that records a span: name, start, end, parent span, trial id, the
counts taken from the arguments and the result, and optionally the peak
of traced heap memory inside the span.  Spans stay in memory until the
unit ends.  Nothing under ``src/`` is edited.

Memory is measured with ``tracemalloc``, which sees Python objects and numpy
buffers; it is the heap the call allocated, not resident set size.  It
slows allocation-heavy Python code several times over, so the benchmark
takes span times from units traced without it and peaks from a separate
unit traced with it.
"""

from __future__ import annotations

import functools
import math
import time
import tracemalloc
from collections import defaultdict

MB = float(1 << 20)


class Tracer:
    """Records spans of wrapped calls; one instance per traced unit.

    With ``memory`` the caller must have started ``tracemalloc``, and every
    span gets ``peak_mb``: the traced heap peak above its start.
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._trial = -1

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for span in self._open:
            span["_peak"] = max(span["_peak"], peak)

    def wrap(self, name, func, counts=None, starts_trial=False):
        """``func`` wrapped to record a span named ``name``.

        ``counts(args, result)`` returns a dict of counts stored on the span.
        A wrapper with ``starts_trial`` opens a new trial id.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if starts_trial:
                self._trial += 1
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1]["id"] if self._open else None,
                "trial": self._trial,
            }
            if self.memory:
                # tracemalloc keeps one peak per process: fold it into every
                # open span before resetting it for this one
                self._fold_peak()
                tracemalloc.reset_peak()
                span["_base"] = span["_peak"] = tracemalloc.get_traced_memory()[0]
            self.spans.append(span)
            self._open.append(span)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if self.memory:
                    self._fold_peak()
                    span["peak_mb"] = (span.pop("_peak") - span.pop("_base")) / MB
                self._open.pop()
            if counts is not None:
                span.update(counts(args, result))
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    import align_lab.harness as harness
    import align_lab.perms as perms
    import align_lab.recovery as recovery
    from align_lab.model import Graph

    harness.parse_config = tracer.wrap("harness.parse_config", harness.parse_config)
    harness.run = tracer.wrap("harness.run", harness.run)
    harness.generate = tracer.wrap(
        "model.generate",
        harness.generate,
        lambda a, r: {"edges_out": r.g_a.num_edges + r.g_b.num_edges},
        starts_trial=True,
    )
    Graph.from_edges = classmethod(tracer.wrap("model.graph_build", Graph.from_edges.__func__))
    harness.is_good = tracer.wrap("recovery.is_good", harness.is_good)
    recovery.intersection_degrees = tracer.wrap(
        "recovery.intersection_degrees",
        recovery.intersection_degrees,
        lambda a, r: {"probes": a[0].num_edges},
    )
    harness.find_good = tracer.wrap(
        "recovery.find_good",
        harness.find_good,
        lambda a, r: {"perms": r.tested, "hits": int(r.permutation is not None)},
    )
    harness.map_estimate = tracer.wrap(
        "recovery.map_estimate",
        harness.map_estimate,
        lambda a, r: {"perms": math.factorial(a[0].n)},
    )
    harness.theory_report = tracer.wrap("theory.theory_report", harness.theory_report)
    perms.decompose = tracer.wrap(
        "perms.decompose",
        perms.decompose,
        lambda a, r: {"pairs": r.n * (r.n - 1), "orbits": len(r.cycles)},
        starts_trial=True,
    )


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of that
    interval its direct child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: span["end"] - span["start"] - covered(children[span["id"]], span["start"], span["end"])
        for span in spans
    }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced unit; layers the unit never called read 0."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_s(name):
        return sum(own[s["id"]] for s in by_name[name])

    def count(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    def peak(name):
        return max((s.get("peak_mb", 0.0) for s in by_name[name]), default=0.0)

    m = {
        "model.generate_s": busy("model.generate"),
        "model.sample_s": self_s("model.generate"),
        "model.graph_build_s": busy("model.graph_build"),
        "model.edges_out": count("model.generate", "edges_out"),
        "model.generate_peak_mb": peak("model.generate"),
        "recovery.is_good_s": busy("recovery.is_good"),
        "recovery.intersection_degrees_s": busy("recovery.intersection_degrees"),
        "recovery.probes": count("recovery.intersection_degrees", "probes"),
        "recovery.is_good_peak_mb": peak("recovery.is_good"),
        "recovery.find_good_s": busy("recovery.find_good"),
        "recovery.find_good_perms": count("recovery.find_good", "perms"),
        "recovery.find_good_hits": count("recovery.find_good", "hits"),
        "recovery.map_estimate_s": busy("recovery.map_estimate"),
        "recovery.map_perms": count("recovery.map_estimate", "perms"),
        "perms.decompose_s": busy("perms.decompose"),
        "perms.pairs": count("perms.decompose", "pairs"),
        "perms.orbits": count("perms.decompose", "orbits"),
        "perms.decompose_peak_mb": peak("perms.decompose"),
        "theory.theory_report_s": busy("theory.theory_report"),
        "theory.theory_report_calls": len(by_name["theory.theory_report"]),
        "harness.parse_config_s": busy("harness.parse_config"),
        "harness.run_s": busy("harness.run"),
        "harness.self_s": self_s("harness.run"),
    }
    m["model.edges_per_s"] = _rate(m["model.edges_out"], m["model.generate_s"])
    m["recovery.probes_per_s"] = _rate(m["recovery.probes"], m["recovery.intersection_degrees_s"])
    m["recovery.find_good_perms_per_s"] = _rate(m["recovery.find_good_perms"], m["recovery.find_good_s"])
    m["recovery.map_perms_per_s"] = _rate(m["recovery.map_perms"], m["recovery.map_estimate_s"])
    m["perms.pairs_per_s"] = _rate(m["perms.pairs"], m["perms.decompose_s"])
    return m
