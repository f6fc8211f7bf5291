"""In-memory spans around the layer calls that ``bandcross.harness`` makes.

``harness`` binds the layer functions by name at import time
(``from .direct import propagate``), so a span must replace the attribute of
the ``bandcross.harness`` module; replacing ``bandcross.direct.propagate``
would record nothing.  A few calls are looked up through their own module at
call time and are wrapped there (see ``MODULE_CALLS``).  Every replaced
attribute is restored when the ``Tracer`` context exits.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter
from dataclasses import dataclass

# layer -> functions that bandcross.harness imported by name from that layer
HARNESS_CALLS = {
    "potential": ("make_m_gap", "make_cosine", "potential_from_coeffs",
                  "linear_ramp", "cosine_external", "zero_external"),
    "bloch": ("smooth_continuation", "coupling_coefficient", "band_path"),
    "classical": ("integrate_flow", "extend_through_crossing"),
    "envelope": ("coefficients_from_trajectory", "evolve_a0", "evolve_a1",
                 "excited_envelope", "excited_buildup"),
    "ansatz": ("assemble_wp0", "assemble_wp1", "path_dp_chi",
               "predict_excited_mass"),
    "direct": ("propagate", "band_mass", "l2_error"),
}

# (module, function, layer) looked up through the module at call time:
# extend_through_crossing calls classical.integrate_flow, and the solver
# planner imports periodize_external / evaluate_periodic inside its body
MODULE_CALLS = (
    ("bandcross.classical", "integrate_flow", "classical"),
    ("bandcross.direct", "periodize_external", "direct"),
    ("bandcross.potential", "evaluate_periodic", "potential"),
)

LAYERS = tuple(HARNESS_CALLS)

# per Strang step: fft (read+write), kinetic multiply (two reads, one
# write), ifft (read+write), two potential multiplies (two reads, one write
# each); 16 bytes per complex128 grid value
BYTES_PER_POINT_STEP = 16 * (2 + 3 + 2 + 3 + 3)
FFTS_PER_STEP = 2


@dataclass
class Span:
    layer: str
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    depth: int


def _count_work(name, bound, result, counts):
    """Exact work counts read from a call's arguments or its result."""
    if name == "propagate":
        counts["direct.strang_steps"] += int(result.n_steps)
        counts["direct.grid_n"] = max(counts["direct.grid_n"],
                                      int(bound.arguments["psi0"].grid.n))
    elif name == "integrate_flow":
        counts["classical.rk4_steps"] += len(result.t_grid) - 1
    elif name in ("evolve_a0", "evolve_a1"):
        t0, t1 = (float(t) for t in bound.arguments["t_span"])
        counts["envelope.transport_steps"] += max(
            1, int(round((t1 - t0) / bound.arguments["dt"])))
    elif name == "band_path":
        counts["bloch.samples"] += int(result.p_samples.size)
    elif name == "smooth_continuation":
        counts["bloch.samples"] += int(result.plus.p_samples.size)


class Tracer:
    """Context manager that records one span per wrapped layer call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []

    def _wrap(self, fn, layer, name):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)          # child time accumulated by nested spans
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
            with self._lock:
                self.spans.append(Span(layer, name, threading.get_ident(),
                                       start, end, end - start - child,
                                       len(stack)))
                _count_work(name, sig.bind(*args, **kwargs), result,
                            self.counts)
            return result

        return wrapper

    def __enter__(self):
        harness = importlib.import_module("bandcross.harness")
        targets = [(harness, name, layer)
                   for layer, names in HARNESS_CALLS.items() for name in names]
        targets += [(importlib.import_module(mod), name, layer)
                    for mod, name, layer in MODULE_CALLS]
        try:
            for module, name, layer in targets:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(original, layer, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def layer_metrics(tracer: Tracer, windows, solve_window) -> tuple:
    """(per-layer metrics, inclusive time per call name) of a traced unit.

    ``windows`` are the traced harness calls: the set-up build and the timed
    unit.  ``harness.self_s`` is the window time during which no layer span
    was open on any thread.  On one thread it and the layer self times add
    up to ``trace.window_s``; on the pool the layer times are summed over
    the workers, so they add up to more.
    """
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    by_name, calls = Counter(), Counter()
    for s in tracer.spans:
        out[f"{s.layer}.self_s"] += s.self_s
        by_name[s.name] += s.end - s.start
        calls[s.name] += 1
    outer = [s for s in tracer.spans if s.depth == 0]
    window_s = sum(hi - lo for lo, hi in windows)
    covered = sum(_union_length([(s.start, s.end) for s in outer
                                 if lo <= s.start and s.end <= hi])
                  for lo, hi in windows)
    out["harness.self_s"] = window_s - covered

    solve_s = solve_window[1] - solve_window[0]
    busy = Counter()
    for s in outer:
        if s.start >= solve_window[0] and s.end <= solve_window[1]:
            busy[s.thread] += s.end - s.start
    workers = max(1, len(busy))
    out["harness.pool_workers"] = len(busy)
    out["harness.pool_busy_frac"] = sum(busy.values()) / (workers * solve_s)

    counts = tracer.counts
    steps = counts["direct.strang_steps"]
    flow_steps = counts["classical.rk4_steps"]
    out.update({
        "direct.propagate_s": by_name["propagate"],
        "direct.strang_steps": steps,
        "direct.grid_n": counts["direct.grid_n"],
        "direct.ms_per_step": 1e3 * by_name["propagate"] / max(steps, 1),
        "direct.fft_calls": FFTS_PER_STEP * steps,
        "direct.bytes_per_step":
            BYTES_PER_POINT_STEP * counts["direct.grid_n"],
        "direct.band_mass_calls": calls["band_mass"],
        "direct.l2_error_s": by_name["l2_error"],
        "classical.flow_s": by_name["integrate_flow"],
        "classical.rk4_steps": flow_steps,
        "classical.us_per_rk4_step":
            1e6 * by_name["integrate_flow"] / max(flow_steps, 1),
        "bloch.samples": counts["bloch.samples"],
        "envelope.transport_s": by_name["evolve_a0"] + by_name["evolve_a1"],
        "envelope.transport_steps": counts["envelope.transport_steps"],
        "envelope.coeffs_s": by_name["coefficients_from_trajectory"],
        "ansatz.assemble_s": by_name["assemble_wp0"] + by_name["assemble_wp1"],
        "ansatz.assemble_calls":
            calls["assemble_wp0"] + calls["assemble_wp1"],
        "trace.window_s": window_s,
    })
    return out, by_name
