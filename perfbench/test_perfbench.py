"""Fast checks of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict

import pytest

from bandcross import harness
from spans import HARNESS_CALLS, LAYERS, MODULE_CALLS, Tracer, layer_metrics
from unit import WORKLOADS, check_failures

HERE = os.path.dirname(os.path.abspath(__file__))

# the free-particle isolated config of tests/test_harness.py: exact to
# solver accuracy at eps = 1/32
FREE_PARTICLE = dict(
    study="isolated", potential={"kind": "free"},
    external={"kind": "linear", "alpha": 0.25, "q_ref": 0.0},
    band=1, q0=3.5, p0=1.3, sigma=1.0, epsilons=(1 / 32,), t_final=0.5,
    domain_length=10, envelope_half_width=24.0, envelope_points=768,
    band_window=(0.7, 2.1),
    solver={"quartic_constant": 1.0e3, "strang_constant": 15.0,
            "error_budget": 0.25, "signal_prefactor": 0.05})


def _wrapped_targets():
    targets = [(harness, name) for names in HARNESS_CALLS.values()
               for name in names]
    targets += [(importlib.import_module(mod), name)
                for mod, name, _ in MODULE_CALLS]
    return {(m.__name__, name): getattr(m, name) for m, name in targets}


def _free_particle_case():
    harness.clear_caches()
    return asdict(harness.run_isolated_case(
        harness.RunConfig(**FREE_PARTICLE), 1 / 32))


def test_tracing_changes_no_output_and_restores_attributes():
    originals = _wrapped_targets()
    plain = _free_particle_case()
    with Tracer() as tracer:
        t0 = time.perf_counter()
        traced = _free_particle_case()
        t1 = time.perf_counter()
    assert traced == plain
    assert plain["error_wp1"] < 1e-5
    assert _wrapped_targets() == originals

    metrics, _ = layer_metrics(tracer, [(t0, t1)], (t0, t1))
    accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert accounted + metrics["harness.self_s"] == pytest.approx(t1 - t0)
    assert metrics["direct.strang_steps"] > 0
    assert metrics["direct.fft_calls"] == 2 * metrics["direct.strang_steps"]
    assert metrics["direct.grid_n"] == 10 * 32 * 32
    assert metrics["bloch.samples"] == 513
    assert metrics["classical.rk4_steps"] > 0
    assert metrics["envelope.transport_steps"] > 0
    assert metrics["harness.pool_workers"] == 1


def test_attributes_restored_when_the_unit_raises():
    originals = _wrapped_targets()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            assert _wrapped_targets() != originals
            1 / 0
    assert _wrapped_targets() == originals


def test_checks_flag_gate_and_reference_violations():
    crossing = WORKLOADS["crossing32"]
    good = dict(crossing.reference)
    assert check_failures(crossing, good) == []
    bad = dict(good, overlap=0.85)
    assert len(check_failures(crossing, bad)) == 2   # gate and reference
    sweep = WORKLOADS["isolated_sweep"]
    assert check_failures(sweep, {**sweep.reference, "passed": 0.0})


def test_runner_without_the_package_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "isolated32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_tables_match_benchmark_json():
    from run import END_TO_END, PER_LAYER, WORKLOADS as RUN_WORKLOADS
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(RUN_WORKLOADS)
    assert set(RUN_WORKLOADS) == set(WORKLOADS)


def test_units_that_disagree_with_the_first_are_failed():
    from run import EXACT_COUNTS, unit_failures
    counts = {key: 1 for key in EXACT_COUNTS}
    plain = {"values": {"overlap": 0.96}, "failures": [], "solve_s": 1.0}
    traced = dict(plain, layers=counts)
    done = [(False, plain), (True, traced),
            (False, dict(plain, values={"overlap": 0.97})),
            (True, dict(traced, layers=dict(counts, **{
                "direct.strang_steps": 2}))),
            (False, {"error": "GridOverflow: collar"})]
    assert [bool(bad) for bad in unit_failures(done)] == [
        False, False, True, True, True]
