"""Benchmark of the bandcross pipeline: time to a gated result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload crossing32 --seed 1 --seconds 40 --trace 0

Each unit (one case, or one whole study) runs in a fresh interpreter, one
after another, until ``--seconds`` are used up; at least one unit runs, and
set-up-only interpreters are added until set-up has been timed three times.
With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the units); with ``--trace 1`` units alternate untraced and
traced, and it carries the per-layer metrics of the traced units.  The
workloads are fixed physics configs: ``--seed`` is recorded and drives no
input.  Every unit's outputs are checked against the study's gates and the
values recorded when the benchmark was defined.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
UNIT = os.path.join(HERE, "unit.py")
SOURCE = os.path.join("src", "bandcross")
WORKLOADS = ("crossing32", "isolated32", "isolated_sweep")
MIN_SETUPS = 3
UNIT_TIMEOUT_S = 170.0

END_TO_END = {"setup_s": "s", "solve_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "potential.self_s": "s", "bloch.self_s": "s", "classical.self_s": "s",
    "envelope.self_s": "s", "ansatz.self_s": "s", "direct.self_s": "s",
    "harness.self_s": "s",
    "direct.propagate_s": "s", "direct.strang_steps": "count",
    "direct.grid_n": "count", "direct.ms_per_step": "ms",
    "direct.fft_calls": "count", "direct.bytes_per_step": "B",
    "direct.band_mass_calls": "count", "direct.l2_error_s": "s",
    "classical.flow_s": "s", "classical.rk4_steps": "count",
    "classical.us_per_rk4_step": "us", "bloch.samples": "count",
    "envelope.transport_s": "s", "envelope.transport_steps": "count",
    "envelope.coeffs_s": "s", "ansatz.assemble_s": "s",
    "ansatz.assemble_calls": "count", "harness.pool_workers": "count",
    "harness.pool_busy_frac": "frac", "trace.window_s": "s",
    "trace.solve_s": "s", "trace.overhead_s": "s",
}
# work counts that must repeat exactly from unit to unit
EXACT_COUNTS = ("direct.strang_steps", "direct.grid_n",
                "direct.band_mass_calls", "classical.rk4_steps",
                "bloch.samples", "envelope.transport_steps",
                "ansatz.assemble_calls")


def environment(seed: int) -> dict:
    import numpy
    import scipy
    sys.path.insert(0, os.path.abspath("src"))
    from bandcross.harness import worker_count
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ,
                             "GIT_CEILING_DIRECTORIES": os.path.dirname(
                                 os.getcwd())}).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        **{k: os.environ.get(k, "") for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "BCL_THREADS")},
        "worker_count_3": worker_count(3),
        "commit": commit or "unknown (not a git checkout)",
    }


def spawn_unit(workload: str, trace: bool, setup_only: bool,
               deadline: float) -> dict:
    """Run one unit in a fresh interpreter; a crash becomes an 'error'."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, UNIT, "--workload", workload,
           "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"error": "unit timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"unit exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    out = json.loads(lines[-1])
    if "error" in out:
        sys.stderr.write(proc.stderr)
    return out


def run_units(workload: str, seconds: float, trace: bool) -> list:
    """Units back to back until the time is used; (traced, result) pairs."""
    start = time.perf_counter()
    deadline = start + UNIT_TIMEOUT_S
    done, rounds = [], 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            done.append((traced, spawn_unit(workload, traced, False,
                                            deadline)))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    if not trace:
        setups = sum(1 for _, r in done if "setup_s" in r)
        for _ in range(MIN_SETUPS - setups):
            done.append((False, spawn_unit(workload, False, True, deadline)))
    return done


def unit_failures(done: list) -> list:
    """Per unit: its errors, failed checks, and any disagreement with the
    run's first unit in output values or (traced) work counts."""
    first = next((r for _, r in done if "values" in r), None)
    first_traced = next((r for _, r in done if "layers" in r), None)
    out = []
    for _, r in done:
        bad = [r["error"]] if "error" in r else list(r.get("failures", []))
        if "values" in r and r["values"] != first["values"]:
            bad.append("output values differ from the first unit's")
        if "layers" in r:
            bad += [f"{key} {r['layers'][key]} differs from the first traced "
                    f"unit's {first_traced['layers'][key]}"
                    for key in EXACT_COUNTS
                    if r["layers"][key] != first_traced["layers"][key]]
        out.append(bad)
    return out


def metrics_of(done: list, trace: bool) -> dict:
    """Medians over the run's units; empty if no unit of a needed kind ran."""
    good = [(t, r) for t, r in done if "error" not in r]
    if not trace:
        return {key: {"value": statistics.median(r[key] for _, r in good
                                                 if key in r), "unit": unit}
                for key, unit in END_TO_END.items()
                if any(key in r for _, r in good)}
    plain = [r for t, r in good if not t]
    traced = [r for t, r in good if t]
    if not traced or not plain:
        return {}
    layers = {key: statistics.median(r["layers"][key] for r in traced)
              for key in traced[0]["layers"]}
    layers["trace.solve_s"] = statistics.median(r["solve_s"] for r in traced)
    layers["trace.overhead_s"] = layers["trace.solve_s"] - statistics.median(
        r["solve_s"] for r in plain)
    return {key: {"value": layers[key], "unit": unit}
            for key, unit in PER_LAYER.items()}


def print_trace_table(done: list):
    traced = [r for t, r in done if t and "calls_s" in r]
    if not traced:
        return
    r = traced[-1]
    layers = r["layers"]
    window = layers["trace.window_s"]
    print(f"last traced unit: solve {r['solve_s']:.3f} s, traced window "
          f"(set-up build + solve) {window:.3f} s; inclusive time per call, "
          "summed over threads:")
    for name, secs in sorted(r["calls_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:30s} {secs:10.4f} s  {secs / window:7.1%}")
    accounted = sum(layers[f"{k}.self_s"] for k in LAYERS + ("harness",))
    print(f"  layer self times + harness.self_s = {accounted:.4f} s; "
          f"direct.propagate_s / solve = "
          f"{layers['direct.propagate_s'] / r['solve_s']:.1%}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"no {SOURCE} package under {os.getcwd()}; run from the root "
              "of a bandcross checkout", file=sys.stderr)
        return 2

    print(json.dumps({"workload": args.workload,
                      "env": environment(args.seed)}), flush=True)
    trace = bool(args.trace)
    done = run_units(args.workload, args.seconds, trace)
    failures = unit_failures(done)
    for (traced, r), bad in zip(done, failures):
        if "values" in r:
            print(json.dumps({"traced": traced, "values": r["values"],
                              "solve_s": r["solve_s"]}))
        if bad:
            print("FAILED unit: " + "; ".join(bad))
    if trace:
        print_trace_table(done)
    metrics = metrics_of(done, trace)
    if set(metrics) != set(PER_LAYER if trace else END_TO_END):
        print("no unit completed; no result", file=sys.stderr)
        return 1
    failed = sum(1 for bad in failures if bad)
    print(json.dumps({"correct": failed == 0, "attempted": len(done),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
