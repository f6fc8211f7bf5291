"""One benchmark unit in a fresh interpreter: set up, run once, check, report.

Run from the root of a checkout as

    python3 perfbench/unit.py --workload crossing32 --spawned <perf_counter>

where ``--spawned`` is the parent's ``time.perf_counter()`` just before it
started this process (a system-wide monotonic clock on Linux), so that
``setup_s`` covers interpreter start, imports, the config and, on
``crossing32``, the scenario build.  The last stdout line is a JSON object.
A fresh interpreter per unit keeps every harness and fiber cache cold.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import sys
import time
import traceback
from contextlib import nullcontext


@dataclasses.dataclass(frozen=True)
class Workload:
    """set_up(harness) -> unit; check(result) -> named output values."""

    set_up: object
    check: object
    gates: dict        # value name -> (low, high), the study's own gates
    reference: dict    # value name -> value recorded at the defining commit


# Relative tolerance against the recorded reference values.  It must admit
# a more accurate solver: rerun at a quarter of the planned dt, the
# crossing32 ratios moved by under 0.1% and the isolated32 wp1 error by 0.2%.
REFERENCE_RTOL = 0.02


def _crossing32(h):
    # The crossing default at eps = 1/32: 1/64 (about 75 s a case on a
    # 2-vCPU Xeon VM) does not fit a run.  The pair window is widened to hold
    # the longer 1/32 horizon, and the t* - eps^xi' readout, which lands at
    # t = 0 at 1/32, is left out.
    cfg = dataclasses.replace(
        h.default_config("crossing"),
        epsilons=(1 / 32, 1 / 64, 1 / 128), measurements=("crossing", "inner"),
        pair_halfwidth=1.9, pair_samples=1789,
        domain_length={"32": 14, "64": 12, "128": 10, "256": 10})
    h.clear_caches()
    h.build_crossing_scenario(cfg)
    return lambda: h.run_crossing_case(cfg, 1 / 32)


def _crossing_values(case):
    predicted = case.excited_mass_predicted
    _, _, measured, predicted_late = case.inner_rows[-1]
    return {"overlap": case.overlap,
            "excited_mass_ratio": case.excited_mass_measured / predicted,
            "band_mass_ratio": case.band_mass_measured / predicted,
            "late_window_ratio": measured / predicted_late}


def _isolated32(h):
    cfg = h.default_config("isolated")

    def unit():
        h.clear_caches()
        return h.run_isolated_case(cfg, 1 / 32)
    return unit


def _isolated_values(case):
    return {"error_wp1": case.error_wp1, "error_wp0": case.error_wp0,
            "wp1_over_wp0": case.error_wp1 / case.error_wp0}


def _isolated_sweep(h):
    # 1/16 .. 1/32 rather than the default 1/32 .. 1/128 (about 65 s a
    # sweep on a 2-vCPU Xeon VM), so that two sweeps fit a run
    cfg = dataclasses.replace(h.default_config("isolated"),
                              epsilons=(1 / 16, 1 / 24, 1 / 32))

    def unit():
        h.clear_caches()
        return h.run_isolated_band(cfg)
    return unit


def _sweep_values(report):
    slopes = {fit.label: fit.slope for fit in report.fits}
    return {"passed": float(report.passed),
            "slope_wp1": slopes["wp1_error"], "slope_wp0": slopes["wp0_error"]}


WORKLOADS = {
    "crossing32": Workload(
        _crossing32, _crossing_values,
        gates={"overlap": (0.9, math.inf), "excited_mass_ratio": (0.8, 1.2),
               "band_mass_ratio": (0.8, 1.2), "late_window_ratio": (0.8, 1.2)},
        reference={"overlap": 0.961985, "excited_mass_ratio": 1.078560,
                   "band_mass_ratio": 1.000340,
                   "late_window_ratio": 1.004004}),
    "isolated32": Workload(
        _isolated32, _isolated_values,
        gates={"wp1_over_wp0": (0.0, 1.0)},
        reference={"error_wp1": 2.028518e-3, "error_wp0": 1.350790e-2}),
    "isolated_sweep": Workload(
        _isolated_sweep, _sweep_values,
        gates={"passed": (1.0, 1.0)},
        reference={"slope_wp1": 1.045210, "slope_wp0": 0.537479}),
}


def check_failures(workload: Workload, values: dict) -> list:
    """Gate and reference violations, as readable strings."""
    out = []
    for name, (lo, hi) in workload.gates.items():
        if not lo <= values[name] <= hi:
            out.append(f"{name}={values[name]:.6g} outside [{lo}, {hi}]")
    for name, ref in workload.reference.items():
        if abs(values[name] - ref) > REFERENCE_RTOL * abs(ref):
            out.append(f"{name}={values[name]:.6g} differs from reference "
                       f"{ref:.6g} by more than {REFERENCE_RTOL:.0%}")
    return out


def run_unit(name: str, trace: bool, spawned: float,
             setup_only: bool = False) -> dict:
    """Set up and run one unit of a workload in this process."""
    from bandcross import harness
    from spans import Tracer, layer_metrics

    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    with tracer or nullcontext():
        t_setup = time.perf_counter()
        unit = workload.set_up(harness)
        t0 = time.perf_counter()
        out = {"setup_s": t0 - spawned}
        if setup_only:
            return out
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        result = unit()
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    out.update({
        "solve_s": t1 - t0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "values": workload.check(result),
    })
    out["failures"] = check_failures(workload, out["values"])
    if tracer is not None:
        out["layers"], out["calls_s"] = layer_metrics(
            tracer, [(t_setup, t0), (t0, t1)], (t0, t1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    try:
        out = run_unit(args.workload, bool(args.trace), args.spawned,
                       args.setup_only)
    except Exception as exc:  # reported to the parent as a failed unit
        traceback.print_exc()
        out = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
