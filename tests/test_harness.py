"""Study orchestration tests: configs, fits, reports, and cheap end-to-end runs."""
import json
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcross import direct, envelope, harness
from bandcross.ansatz import Grid, GridState
from bandcross.direct import collocation_error
from bandcross.envelope import BOUNDARY_TOL
from bandcross.errors import DegenerateFit, GridOverflow, SolverBudgetExceeded
from bandcross.harness import (
    GateResult,
    RunConfig,
    ScalingReport,
    StudyReport,
    _as_epsilon,
    _crossing_times,
    _lz_transfer,
    _snap,
    build_crossing_scenario,
    build_isolated_scenario,
    build_external,
    build_potential,
    default_config,
    fit_scaling,
    make_scaling_report,
    run_breakdown_study,
    run_crossing_case,
    run_crossing_study,
    run_isolated_band,
    run_isolated_case,
    worker_count,
)


class TestFitScaling:
    def test_pure_power_law_recovered(self):
        eps = [1 / 32, 1 / 64, 1 / 128, 1 / 256]
        pairs = [(e, 3.0 * e ** 0.5) for e in eps]
        slope, intercept, r2 = fit_scaling(pairs)
        assert abs(slope - 0.5) < 1e-12
        assert abs(intercept - np.log(3.0)) < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    @given(st.floats(-2.0, 2.0), st.floats(-10.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_power_law_property(self, slope_in, log_c):
        eps = [1 / 16, 1 / 64, 1 / 512]
        pairs = [(e, np.exp(log_c) * e ** slope_in) for e in eps]
        slope, intercept, r2 = fit_scaling(pairs)
        assert abs(slope - slope_in) < 1e-8
        assert abs(intercept - log_c) < 1e-6

    def test_subleading_term_small_bias(self):
        # m = eps + eps^2 over small eps stays close to slope 1
        eps = [1 / 32, 1 / 64, 1 / 128]
        slope, _, _ = fit_scaling([(e, e + e ** 2) for e in eps])
        assert abs(slope - 1.0) < 0.05

    def test_too_few_points(self):
        with pytest.raises(DegenerateFit):
            fit_scaling([(1 / 32, 1.0), (1 / 64, 0.5)])

    def test_nonpositive_values(self):
        with pytest.raises(DegenerateFit):
            fit_scaling([(1 / 32, 1.0), (1 / 64, 0.0), (1 / 128, 0.1)])

    def test_repeated_epsilons(self):
        with pytest.raises(DegenerateFit):
            fit_scaling([(1 / 32, 1.0), (1 / 32, 0.9), (1 / 64, 0.5)])

    def test_report_gate(self):
        rep = make_scaling_report("x", [(e, e) for e in (1 / 4, 1 / 8, 1 / 16)],
                                  target=1.0, tolerance=0.1)
        assert rep.passed
        rep = make_scaling_report("x", [(e, e) for e in (1 / 4, 1 / 8, 1 / 16)],
                                  target=0.5, tolerance=0.1)
        assert not rep.passed


class TestRunConfig:
    def test_epsilons_sorted_and_parsed(self):
        cfg = RunConfig(epsilons=("256", 64, 1 / 128))
        assert cfg.epsilons == (1 / 64, 1 / 128, 1 / 256)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(epsilons=(0.013,))

    def test_duplicate_epsilons_rejected(self):
        # an empty sweep is refused by the same check
        for epsilons in ((64, 1 / 64, 128), ()):
            with pytest.raises(ValueError, match="non-empty and distinct"):
                RunConfig(epsilons=epsilons)

    def test_fine_epsilon_needs_flag(self):
        with pytest.raises(ValueError):
            RunConfig(epsilons=(512,))
        cfg = RunConfig(epsilons=(512,), allow_fine=True)
        assert cfg.epsilons == (1 / 512,)

    def test_removed_fields_rejected(self):
        # the window exponents, initial action, flow pad, plane-wave cut and
        # inner readout count are module constants, not config keys
        for name, value in (("xi", 0.45), ("xi_prime", 0.40), ("s0", 0.0),
                            ("horizon_pad", 0.02), ("m_cut", 15),
                            ("n_inner", 8)):
            with pytest.raises(ValueError, match="unknown config keys"):
                RunConfig.from_dict({name: value})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"study": "crossing", "bogus": 1})

    def test_unknown_solver_keys_rejected(self):
        # step doubling is always on and dt always planned, so the keys
        # that once switched them off are unknown too
        for solver in ({"step": 1e-4}, {"richardson": True}, {"dt": {}}):
            with pytest.raises(ValueError):
                RunConfig(solver=solver)

    def test_envelope_dt_is_not_a_solver_key(self):
        # the envelope step is derived by step doubling (march_envelopes)
        with pytest.raises(ValueError, match="unknown solver keys"):
            RunConfig(solver={"envelope_dt": 1e-3})

    def test_dt_cap_is_not_a_solver_key(self):
        # the direct step comes from plan_solver's W and eps rules alone
        with pytest.raises(ValueError, match="unknown solver keys"):
            RunConfig(solver={"dt_cap": 1e-3})

    def test_band_below_one_rejected(self):
        # bands are 1-based, and a study reads band + 2 of the 2 M_CUT + 1
        # = 31 bands in the Bloch tables; each of these fails deep inside
        # bloch unless the config refuses it
        for band in (0, -1, 2 * harness.M_CUT, 40):
            with pytest.raises(ValueError, match="band"):
                RunConfig(band=band)
        assert RunConfig(band=2 * harness.M_CUT - 1).band == 29

    def test_measurements_validated(self):
        with pytest.raises(ValueError):
            RunConfig(measurements=("breakdown", "spectral"))
        with pytest.raises(ValueError):
            RunConfig(measurements=())
        cfg = RunConfig(measurements=("inner", "breakdown"))
        assert cfg.measurements == ("breakdown", "inner")

    def test_fingerprint_ignores_study_and_out_dir(self):
        a = RunConfig(study="crossing", out_dir="x")
        b = RunConfig(study="inner", out_dir="y")
        assert a.fingerprint() == b.fingerprint()

    def test_default_configs_exist(self):
        for study in ("isolated", "breakdown", "crossing", "inner"):
            cfg = default_config(study)
            assert cfg.study == study
        assert default_config("breakdown").measurements == ("breakdown",)
        assert default_config("crossing").fingerprint() == \
            default_config("inner").fingerprint()
        with pytest.raises(ValueError):
            default_config("bands")

    def test_default_configs_restate_no_default(self, monkeypatch):
        # a keyword that repeats RunConfig's own default is a second copy of
        # it to keep in step; study names the config, so it is exempt
        passed = []
        real = harness.RunConfig

        def recording(**kwargs):
            passed.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(harness, "RunConfig", recording)
        for study in ("isolated", "breakdown", "crossing", "inner"):
            default_config(study)
        base = real()
        for kwargs in passed:
            study = kwargs.pop("study")
            solver = kwargs.pop("solver", {})
            same = [k for k, v in kwargs.items() if v == getattr(base, k)]
            same += [f"solver.{k}" for k, v in solver.items()
                     if v == harness._SOLVER_DEFAULTS[k]]
            assert not same, (study, same)


class TestBuilders:
    def test_potential_kinds(self):
        assert np.abs(build_potential({"kind": "free"}).coeffs).max() == 0.0
        v = build_potential({"kind": "cosine", "amplitude": 4.0})
        assert abs(v.coeff(1) - 2.0) < 1e-12
        v = build_potential({"kind": "one_gap", "omega_prime": 0.8,
                             "m_max": 6})
        assert v.m_max == 6 and abs(v.coeff(1)) > 0
        v = build_potential({"kind": "coeffs", "values": {"2": 2.0}})
        assert abs(v.coeff(2) - 2.0) < 1e-12 and abs(v.coeff(-2) - 2.0) < 1e-12
        with pytest.raises(ValueError):
            build_potential({"kind": "smooth"})

    def test_external_kinds(self):
        w = build_external({"kind": "linear", "alpha": 2.0, "q_ref": 1.0})
        assert abs(w.dw(5.0) + 2.0) < 1e-12
        assert build_external({"kind": "none"}).w(3.0) == 0.0
        w = build_external({"kind": "cosine", "beta": 0.5, "omega": 1.5})
        assert abs(w.w(0.0) - 0.5) < 1e-12
        with pytest.raises(ValueError):
            build_external({"kind": "quadratic"})


class TestSnap:
    @given(st.floats(0.1, 2.0), st.floats(1e-4, 0.3),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_snapped_times_are_step_multiples(self, t_run, dt, fracs):
        # every label gets a whole step count in [0, n_total], and the latest
        # label, the run's end, sits at n_total
        times = {f"t{j}": f * t_run for j, f in enumerate(fracs)}
        times["end"] = t_run
        dt_eff, steps = _snap(times, dt, t_run)
        n_total = steps["end"]
        assert abs(n_total * dt_eff - t_run) < 1e-12 * max(1.0, t_run)
        for n in steps.values():
            assert isinstance(n, int)
            assert 0 <= n <= n_total

    def test_snap_respects_run_end(self):
        dt_eff, steps = _snap({"end": 0.5}, 1e-3, 0.5)
        assert steps == {"end": 500}
        assert abs(500 * dt_eff - 0.5) < 1e-12


class TestWorkerCount:
    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("BCL_THREADS", "2")
        assert worker_count(8) == 2
        assert worker_count(1) == 1
        monkeypatch.setenv("BCL_THREADS", "")
        assert worker_count(3) >= 1


class TestStudyReport:
    def _report(self):
        fit = ScalingReport(label="err", epsilons=(1 / 4, 1 / 8, 1 / 16),
                            values=(1e-2, 5e-3, 2.5e-3), slope=1.0,
                            intercept=-3.0, r_squared=0.999, target=1.0,
                            tolerance=0.3)
        gate = GateResult(name="slope[err]", value=1.0,
                          requirement="1.0 +/- 0.3", passed=True)
        rows = [{"epsilon": 0.25, "error": 1e-2},
                {"epsilon": 0.125, "error": 5e-3}]
        return StudyReport(study="isolated", version="0", config={"a": 1},
                           rows=rows, fits=[fit], gates=[gate])

    def test_passed_logic(self):
        rep = self._report()
        assert rep.passed
        rep.gates.append(GateResult(name="x", value=0.0,
                                    requirement="y", passed=False))
        assert not rep.passed

    def test_write_is_deterministic(self, tmp_path):
        rep = self._report()
        rep.write(str(tmp_path / "a"))
        rep.write(str(tmp_path / "b"))
        for name in ("isolated_summary.json", "isolated_rows.csv"):
            pa = (tmp_path / "a" / name).read_bytes()
            pb = (tmp_path / "b" / name).read_bytes()
            assert pa == pb
        summary = json.loads((tmp_path / "a" / "isolated_summary.json")
                             .read_text())
        assert summary["passed"] is True
        assert summary["study"] == "isolated"


class TestFreeParticleIsolated:
    """V = 0: the first-order wavepacket is an exact coherent-state solution,
    so the direct run must match it to solver accuracy."""

    CFG = RunConfig(
        study="isolated",
        potential={"kind": "free"},
        external={"kind": "linear", "alpha": 0.25, "q_ref": 0.0},
        band=1, q0=3.5, p0=1.3, sigma=1.0,
        epsilons=(1 / 32,), t_final=0.5, domain_length=10,
        envelope_half_width=24.0, envelope_points=768,
        band_window=(0.7, 2.1),
        solver={"error_budget": 0.25, "signal_prefactor": 0.05},
    )

    def test_free_particle_exactness(self):
        case = run_isolated_case(self.CFG, 1 / 32)
        assert case.solver_error <= case.solver_target
        assert case.error_wp1 < 1e-5
        # the corrector vanishes identically, so both orders coincide
        assert abs(case.error_wp1 - case.error_wp0) < 1e-10
        assert case.norm_drift < 1e-10

    def test_rows_record_solver_and_band_diagnostics(self):
        (row,) = run_isolated_band(self.CFG).rows
        assert 0.0 <= row["collar_mass"] <= 1e-8
        assert 0.0 <= row["slope_check"] < 1e-6
        assert row["ppw"] == 32          # the RunConfig default pins it
        # plane waves are exact on any grid, so the derived ppw is the floor
        (derived,) = run_isolated_band(replace(self.CFG, ppw=None)).rows
        assert derived["ppw"] == 16

    def test_degenerate_fit_summary_is_strict_json(self, tmp_path):
        # two epsilons cannot be fitted: each slope gate records a NaN value,
        # which the summary must write as null, not as the non-JSON NaN
        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        rep = run_isolated_band(replace(self.CFG, epsilons=(1 / 16, 1 / 32)))
        rep.write(str(tmp_path))
        summary = json.loads((tmp_path / "isolated_summary.json").read_text(),
                             parse_constant=reject)
        slopes = [g for g in summary["gates"] if g["name"].startswith("slope")]
        assert len(slopes) == 2
        assert all(g["value"] is None and not g["passed"] for g in slopes)


@pytest.fixture(scope="module")
def trivial_cfg():
    # single-harmonic m = 2 potential: the (1, 2) crossings at p = pi are
    # trivial (the coupling coefficient vanishes identically), so the
    # first-order ansatz stays accurate straight through the window
    return RunConfig(
        study="breakdown",
        potential={"kind": "coeffs", "values": {"2": 2.0}},
        external={"kind": "linear", "alpha": 3.0, "q_ref": 6.0},
        band=1, p_star=float(np.pi), q0=3.5, p0=float(np.pi) - 1.0,
        sigma=2.0, epsilons=(1 / 32, 1 / 64),
        domain_length=9, pair_halfwidth=1.7, pair_samples=801,
        solver={"signal_prefactor": 0.05},
        measurements=("breakdown",),
    )


class TestTrivialCrossing:
    def test_coupling_vanishes(self, trivial_cfg):
        scenario = build_crossing_scenario(trivial_cfg)
        assert abs(scenario.kappa) < 1e-12

    def test_lz_transfer_vanishes_without_coupling(self, trivial_cfg):
        scenario = build_crossing_scenario(trivial_cfg)
        uncoupled = replace(scenario, kappa=0.0)
        assert _lz_transfer(uncoupled, 1 / 32, scenario.ext.t_star) == 0.0
        assert _lz_transfer(scenario, 1 / 32, scenario.ext.t_star) < 1e-20

    def test_one_band_spline_per_branch(self, trivial_cfg, monkeypatch):
        # the scenario's slope checks and the Landau-Zener levels read the
        # splines that the two branch flows were integrated on
        from bandcross.classical import SplineBand
        built = []
        init = SplineBand.__init__

        def counting(self, path):
            built.append(path)
            init(self, path)

        monkeypatch.setattr(SplineBand, "__init__", counting)
        monkeypatch.setattr(harness, "_SCENARIO_CACHE", {})
        scenario = build_crossing_scenario(trivial_cfg)
        for eps in trivial_cfg.epsilons:
            _lz_transfer(scenario, eps, scenario.ext.t_star)
        assert len(built) == 2
        assert built[0] is scenario.pair.plus
        assert built[1] is scenario.pair.minus
        assert scenario.diagnostics["slope_check_minus"] == (
            scenario.ext.minus.band.slope_check)

    def test_error_stays_first_order(self, trivial_cfg):
        # no eps^{1-xi} blow-up near t*: the error keeps an O(eps) bound
        for eps in trivial_cfg.epsilons:
            case = run_crossing_case(trivial_cfg, eps)
            for label in ("breakdown_xi", "breakdown_xi_prime"):
                raw, _ = case.errors[label]
                assert raw <= 0.02 * eps, (label, eps, raw)
            assert case.norm_drift < 1e-10

    def test_case_cache_returns_same_object(self, trivial_cfg):
        a = run_crossing_case(trivial_cfg, 1 / 32)
        b = run_crossing_case(trivial_cfg, 1 / 32)
        assert a is b

    def test_breakdown_only_case_skips_crossing_sections(self, trivial_cfg):
        case = run_crossing_case(trivial_cfg, 1 / 32)
        assert case.residual_norm is None
        assert case.inner_rows is None
        assert set(case.errors) == {"breakdown_xi", "breakdown_xi_prime"}

    def test_study_report_structure(self, trivial_cfg, tmp_path):
        # two epsilons cannot support an exponent fit: the study must come
        # back as failed gates, not crash
        rep = run_breakdown_study(trivial_cfg)
        assert len(rep.rows) == 2
        assert rep.fits == []
        assert len(rep.gates) == 2 and not rep.passed
        rep.write(str(tmp_path))
        assert (tmp_path / "breakdown_summary.json").exists()
        assert (tmp_path / "breakdown_rows.csv").exists()

    def test_tight_budget_halves_dt(self, trivial_cfg):
        # a target just under half the planned run's estimate needs one
        # halving (the estimate falls ~4x), so steps run go from n + 2n to
        # n + 2n + 4n
        planned = run_crossing_case(trivial_cfg, 1 / 32)
        assert planned.solver_error <= planned.solver_target
        scale = 0.5 * planned.solver_error / planned.solver_target
        budget = trivial_cfg.solver["error_budget"] * scale
        tight = replace(trivial_cfg,
                        solver={**trivial_cfg.solver, "error_budget": budget})
        case = run_crossing_case(tight, 1 / 32)
        assert case.n_steps == planned.n_steps // 3 * 7
        assert case.dt == pytest.approx(planned.dt / 2)
        assert case.solver_error <= case.solver_target

    def test_rows_record_flow_and_envelope_diagnostics(self, trivial_cfg):
        scenario = build_crossing_scenario(trivial_cfg)
        drift = max(scenario.ext.plus.energy_drift,
                    scenario.ext.minus.energy_drift)
        for row in run_breakdown_study(trivial_cfg).rows:
            assert row["energy_drift"] == drift
            assert row["ppw"] == trivial_cfg.ppw
            assert 0.0 < row["envelope_boundary_mass"] <= BOUNDARY_TOL
            # the linear drive is transported exactly, so the two marches
            # agree to roundoff
            assert 0.0 <= row["envelope_error"] <= harness.ROUNDOFF_FLOOR
            # the accepted march halved the first step at least once
            assert 0.0 < row["envelope_dt"] <= row["breakdown_xi_time"] / 32

    def test_summary_records_the_scenario_diagnostics(self, trivial_cfg):
        rep = run_breakdown_study(trivial_cfg)
        block = rep.summary()["scenario"]
        assert set(block) == {"pair_margin", "slope_fd_mismatch",
                              "slope_check_plus", "slope_check_minus"}
        assert all(math.isfinite(v) for v in block.values())
        assert block["pair_margin"] > 0.0
        for row in rep.rows:
            assert 0.0 <= row["collar_mass"] <= 1e-8

    def test_coarse_epsilon_rejected(self, trivial_cfg):
        scenario = build_crossing_scenario(trivial_cfg)
        with pytest.raises(ValueError):
            _crossing_times(trivial_cfg, scenario, 1 / 8)


class TestSolverOverlap:
    """Each crossing case runs its direct solve on a helper thread."""

    @pytest.fixture(autouse=True)
    def fresh_cases(self, monkeypatch):
        # a private case cache, so every test here runs its case
        monkeypatch.setattr(harness, "_CASE_CACHE", {})
        threads = threading.active_count()
        yield
        assert threading.active_count() == threads

    def test_solver_runs_off_the_calling_thread(self, trivial_cfg,
                                                monkeypatch):
        # propagate_richardson runs the coarse run on one helper thread, and
        # the first fine run (dt/2) runs beside it on the other
        seen, runs = [], []
        real, real_run = harness.propagate_richardson, harness.propagate

        def recording(*args, **kwargs):
            seen.append(threading.get_ident())
            return real(*args, **kwargs)

        def recording_run(psi0, V, W, dt, steps):
            runs.append((dt, threading.get_ident()))
            return real_run(psi0, V, W, dt, steps)

        monkeypatch.setattr(harness, "propagate_richardson", recording)
        monkeypatch.setattr(harness, "propagate", recording_run)
        case = run_crossing_case(trivial_cfg, 1 / 32)
        assert len(seen) == 1 and seen[0] != threading.get_ident()
        assert case.solver_error <= case.solver_target
        assert len(runs) == 2
        (coarse_dt, coarse_thread), = [r for r in runs if r[0] == case.dt]
        (fine_dt, fine_thread), = [r for r in runs if r[0] != case.dt]
        assert fine_dt == pytest.approx(coarse_dt / 2)
        assert coarse_thread == seen[0]
        assert fine_thread not in (coarse_thread, threading.get_ident())

    def test_fine_run_error_reaches_the_caller(self, trivial_cfg,
                                               monkeypatch):
        planned = run_crossing_case(trivial_cfg, 1 / 32)
        harness._CASE_CACHE.clear()
        error = GridOverflow("raised in the early fine run")
        real = harness.propagate

        def failing_fine(psi0, V, W, dt, steps):
            if dt < 0.75 * planned.dt:
                raise error
            return real(psi0, V, W, dt, steps)

        monkeypatch.setattr(harness, "propagate", failing_fine)
        with pytest.raises(GridOverflow) as caught:
            run_crossing_case(trivial_cfg, 1 / 32)
        assert caught.value is error

    def test_solver_error_reaches_the_caller(self, trivial_cfg):
        cfg = replace(trivial_cfg,
                      solver={**trivial_cfg.solver, "error_budget": 1e-300})
        with pytest.raises(SolverBudgetExceeded):
            run_crossing_case(cfg, 1 / 32)

    def test_envelope_error_reaches_the_caller(self, trivial_cfg):
        # sigma = 2 on a half width of 7 leaves edge mass above the guard
        cfg = replace(trivial_cfg, envelope_half_width=7.0)
        with pytest.raises(GridOverflow):
            run_crossing_case(cfg, 1 / 32)


class TestScenarioFanOut:
    def test_scenario_built_once_for_the_pool(self, trivial_cfg, monkeypatch):
        # every worker looks the scenario up; it must already be cached, so
        # the band pair is diagonalized once however many workers start
        monkeypatch.setenv("BCL_THREADS", "2")
        cfg = replace(trivial_cfg, epsilons=(1 / 32, 1 / 64, 1 / 128))
        calls = []
        real = harness.smooth_continuation

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        def stub_case(cfg, eps):
            build_crossing_scenario(cfg)
            return eps

        monkeypatch.setattr(harness, "smooth_continuation", counting)
        assert harness._cases_for(cfg, build_crossing_scenario,
                                  stub_case) == list(cfg.epsilons)
        assert len(calls) == 1

    def test_isolated_scenario_built_once_for_the_sweep(self, monkeypatch):
        # one band path and one flow serve every epsilon of the study
        monkeypatch.setenv("BCL_THREADS", "2")
        for name in ("_SCENARIO_CACHE", "_CASE_CACHE"):
            monkeypatch.setattr(harness, name, {})
        calls = {"band_path": 0, "derived_flow": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(harness, name),
                         **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(harness, name, counting)
        cfg = replace(TestFreeParticleIsolated.CFG,
                      epsilons=(1 / 16, 1 / 24, 1 / 32))
        assert len(run_isolated_band(cfg).rows) == 3
        assert calls == {"band_path": 1, "derived_flow": 1}

    def test_isolated_and_crossing_scenarios_kept_apart(self, trivial_cfg,
                                                        monkeypatch):
        # the fingerprint drops the study, so the two configs share it; the
        # band window holds the isolated flow below the crossing at p = pi
        monkeypatch.setattr(harness, "_SCENARIO_CACHE", {})
        crossing = replace(trivial_cfg, band_window=(1.5, 3.0), t_final=0.1)
        isolated = replace(crossing, study="isolated")
        assert isolated.fingerprint() == crossing.fingerprint()
        pair_scenario = build_crossing_scenario(crossing)
        band_scenario = build_isolated_scenario(isolated)
        assert isinstance(pair_scenario, harness.CrossingScenario)
        assert isinstance(band_scenario, harness.IsolatedScenario)
        assert build_crossing_scenario(crossing) is pair_scenario
        assert build_isolated_scenario(isolated) is band_scenario


class TestCaseRows:
    def test_every_row_carries_every_case_field(self, trivial_cfg):
        names = {f.name for f in fields(harness.Case)}
        assert len(names) == 13
        crossing = replace(trivial_cfg, study="crossing", epsilons=(1 / 32,),
                           measurements=("crossing",))
        for rows in (run_isolated_band(TestFreeParticleIsolated.CFG).rows,
                     run_breakdown_study(trivial_cfg).rows,
                     run_crossing_study(crossing).rows):
            assert rows
            for row in rows:
                assert names <= set(row), names - set(row)


class TestEpsilonParsing:
    def test_reciprocal_forms(self):
        assert _as_epsilon(64) == 1 / 64
        assert _as_epsilon("128") == 1 / 128
        assert _as_epsilon(1 / 32) == 1 / 32
        with pytest.raises(ValueError):
            _as_epsilon(0.013)
        with pytest.raises(ValueError):
            _as_epsilon(1.5)


class TestStepDoubling:
    @pytest.fixture(autouse=True)
    def collar_guard_off(self, monkeypatch):
        # the packet of _problem fills its 4-unit box, collar included
        real = harness.propagate
        monkeypatch.setattr(
            harness, "propagate",
            lambda psi0, V, W, dt, steps: real(psi0, V, W, dt, steps,
                                               check_collar=False))

    @staticmethod
    def _problem():
        from bandcross.ansatz import Grid, GridState
        from bandcross.potential import cosine_external, make_cosine
        grid = Grid(length=4, epsilon=1.0 / 8, ppw=16)
        y = (grid.x - 2.0) / np.sqrt(grid.epsilon)
        psi0 = GridState(grid, np.exp(-y ** 2 / 2 + 0.7j * grid.x
                                      / grid.epsilon))
        return psi0, make_cosine(4.0), cosine_external(0.5, 0.7), 1e-2, [10]

    def test_unreachable_budget_raises(self):
        psi0, V, W, dt, steps = self._problem()
        with pytest.raises(SolverBudgetExceeded, match="after 3 halvings"):
            harness.propagate_richardson(psi0, V, W, dt, steps,
                                         target=1e-300)

    def test_collar_mass_is_the_peak_of_both_runs(self):
        psi0, V, W, dt, steps = self._problem()
        result, _ = harness.propagate_richardson(psi0, V, W, dt, steps,
                                                 target=math.inf)
        runs = [harness.propagate(psi0, V, W, dt, steps),
                harness.propagate(psi0, V, W, dt / 2, [2 * n for n in steps])]
        assert result.collar_mass == max(r.collar_mass for r in runs)
        assert result.collar_mass > 0.0

    def test_coarse_and_fine_snapshots_share_their_times(self):
        # the fine run takes twice the steps of half the step, so each of its
        # snapshots falls on the coarse one's time exactly, through every
        # halving; the extrapolated snapshots keep those times
        psi0, V, W, dt, _ = self._problem()
        steps = [0, 3, 7, 10]
        runs = []
        real = harness.propagate

        def recording(*args):
            runs.append(real(*args))
            return runs[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "propagate", recording)
            with pytest.raises(SolverBudgetExceeded):
                harness.propagate_richardson(psi0, V, W, dt, steps, 1e-300)
        assert len(runs) == 5
        for j, run in enumerate(runs):
            assert [s.t for s in run.snapshots] == [n * dt for n in steps]
            assert run.n_steps == steps[-1] << j
        result, _ = harness.propagate_richardson(psi0, V, W, dt, steps,
                                                 math.inf)
        assert [s.t for s in result.snapshots] == [n * dt for n in steps]

    @pytest.mark.parametrize("halvings", [0, 1])
    def test_overlapped_pair_equals_the_sequential_pair(self, halvings):
        # the first fine run started on another thread gives the same result
        # bit for bit, with and without a halving after it
        psi0, V, W, dt, steps = self._problem()
        _, first = harness.propagate_richardson(psi0, V, W, dt, steps,
                                                math.inf)
        target = math.inf if halvings == 0 else 0.5 * first
        seq, seq_est = harness.propagate_richardson(psi0, V, W, dt, steps,
                                                    target)
        with ThreadPoolExecutor(max_workers=1) as pool:
            fine_run = pool.submit(harness.propagate, psi0, V, W, dt / 2,
                                   [2 * n for n in steps])
            par, par_est = harness.propagate_richardson(psi0, V, W, dt, steps,
                                                        target, fine_run)
        assert seq.dt == pytest.approx(dt / 2 ** halvings, rel=1e-15)
        assert par_est == seq_est
        assert (par.n_steps, par.dt, par.collar_mass, par.norm_drift_rate) \
            == (seq.n_steps, seq.dt, seq.collar_mass, seq.norm_drift_rate)
        assert len(par.snapshots) == len(seq.snapshots)
        for a, b in zip(par.snapshots, seq.snapshots):
            assert a.t == b.t
            assert np.array_equal(a.values, b.values)


class TestGatedCrossingCase:
    """One through-crossing case at eps = 1/32 with the study's gates."""

    CFG = replace(default_config("crossing"), epsilons=(1 / 32,),
                  measurements=("crossing", "inner"),
                  pair_halfwidth=1.9, pair_samples=1789, domain_length=14)

    @pytest.fixture(scope="class")
    def counted_case(self):
        """The case run cold, with the shape of every eigh call it made."""
        build_crossing_scenario(self.CFG)
        shapes = []
        real = np.linalg.eigh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        # the coarse and fine runs start together and ask for the fiber
        # basis at once; a short switch interval makes a lost check-then-act
        # on the fiber cache show as a second batched eigh
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(harness, "_CASE_CACHE", {})
                mp.setattr(direct, "_FIBER_CACHE", {})
                mp.setattr(np.linalg, "eigh", counting)
                case = run_crossing_case(self.CFG, 1 / 32)
        finally:
            sys.setswitchinterval(interval)
        return case, shapes

    def test_crossing_gates(self, counted_case):
        case, _ = counted_case
        assert case.solver_error <= case.solver_target
        predicted = case.excited_mass_predicted
        assert case.overlap >= 0.9
        assert 0.8 <= case.excited_mass_measured / predicted <= 1.2
        assert 0.8 <= case.band_mass_measured / predicted <= 1.2
        lz = _lz_transfer(build_crossing_scenario(self.CFG), 1 / 32,
                          case.times["crossing"])
        assert 0.8 <= lz / case.band_mass_measured <= 1.2
        _, _, measured, predicted_late = case.inner_rows[-1]
        assert 0.8 <= measured / predicted_late <= 1.2

    def test_one_fiber_eigh_per_case(self, counted_case):
        # the coarse and fine step-doubling runs and all nine band-mass
        # projections share one batched eigh of the 14 * 32 fibers (the
        # 2-D calls are the Bloch modes of the predicted packets)
        case, shapes = counted_case
        batched = [shape for shape in shapes if len(shape) == 3]
        assert batched == [(14 * 32, case.ppw, case.ppw)]

    def test_ppw_is_the_smallest_that_meets_the_tolerance(self, counted_case):
        case, _ = counted_case
        V = build_crossing_scenario(self.CFG).V
        t_run = max(case.times.values())
        tol = 0.01 * case.solver_target * case.epsilon / t_run
        n_bands = self.CFG.band + 2
        assert case.ppw == 20
        assert (collocation_error(V, case.ppw, n_bands) <= tol
                < collocation_error(V, case.ppw - 2, n_bands))


class TestPlanSolver:
    def test_constant_shift_of_w_keeps_dt(self):
        # the crossing ramp and the same ramp raised by 40 (q_ref moved by
        # 10) plan the same dt, set by half the range of the periodized W
        cfg = replace(default_config("crossing"), ppw=32)
        V = build_potential(cfg.potential)
        plans = [harness.plan_solver(cfg, 1 / 128, 1.0, V,
                                     build_external({**cfg.external,
                                                     "q_ref": q_ref}),
                                     {"end": 0.6})
                 for q_ref in (6.0, 16.0)]
        w = direct.periodize_external(build_external(cfg.external),
                                      plans[0].grid)
        half_range = 0.5 * (w.max() - w.min())
        assert plans[0].dt < (1 / 128) / 10    # the phase rule binds
        # the planned step is the phase rule's, rounded to whole steps
        dt, steps = _snap({"end": 0.6}, 0.45 / 128 / half_range, 0.6)
        for plan in plans:
            assert plan.dt == pytest.approx(dt, rel=1e-12)
            assert plan.steps == steps


class TestClearCaches:
    def test_fiber_cache_is_emptied(self, monkeypatch):
        # private caches, so the other tests keep their cached cases
        for name in ("_SCENARIO_CACHE", "_CASE_CACHE"):
            monkeypatch.setattr(harness, name, {})
        for name in ("_FIBER_CACHE", "_PPW_LADDER"):
            monkeypatch.setattr(direct, name, {})
        grid = Grid(length=4, epsilon=1.0 / 8, ppw=16)
        V = build_potential({"kind": "cosine", "amplitude": 4.0})
        direct.band_mass(GridState(grid, np.ones(grid.n)), V)
        direct.points_per_period(V, 3, 1e-10)
        assert direct._FIBER_CACHE and direct._PPW_LADDER
        harness.clear_caches()
        assert direct._FIBER_CACHE == {} and direct._PPW_LADDER == {}


class TestDerivedFlow:
    """The band flow's step comes from step doubling, not a set constant."""

    @staticmethod
    def _band():
        from bandcross.bloch import band_path
        from bandcross.classical import SplineBand
        from bandcross.potential import make_cosine
        return SplineBand(band_path(make_cosine(4.0), 1, (0.7, 2.1),
                                   n_samples=257, m_cut=12))

    def test_halving_the_accepted_step_moves_the_flow_within_the_bound(self):
        from bandcross.classical import integrate_flow
        from bandcross.potential import cosine_external
        band, W, tol = self._band(), cosine_external(0.3, 0.9), 1e-10
        traj = harness.derived_flow(band, W, 0.4, 1.3, (0.0, 0.6), 0.2,
                                    tol=tol)
        dt = traj.t_grid[1] - traj.t_grid[0]
        half = integrate_flow(band, W, 0.4, 1.3, (0.0, 0.6), dt / 2, s0=0.2)
        assert half.t_grid.size == 2 * traj.t_grid.size - 1
        for name in ("q", "p", "S"):
            moved = np.abs(getattr(half, name)[::2] - getattr(traj, name))
            assert np.max(moved) <= tol, name

    def test_exhausted_halvings_raise(self):
        from bandcross.potential import cosine_external
        with pytest.raises(SolverBudgetExceeded,
                           match="flow step-doubling estimate .* after 8 "):
            harness.derived_flow(self._band(), cosine_external(0.3, 0.9), 0.4,
                                 1.3, (0.0, 0.6), tol=1e-300)

    def test_no_hand_set_trajectory_step(self):
        assert not hasattr(harness, "TRAJECTORY_DT")

    def test_default_crossing_flow_takes_few_steps(self, monkeypatch):
        # 11100 RK4 steps at the old fixed 1e-4 step
        monkeypatch.setattr(harness, "_SCENARIO_CACHE", {})
        steps = []
        real = harness.integrate_flow

        def counting(*args, **kwargs):
            traj = real(*args, **kwargs)
            steps.append(traj.t_grid.size - 1)
            return traj

        monkeypatch.setattr(harness, "integrate_flow", counting)
        build_crossing_scenario(default_config("crossing"))
        assert 0 < sum(steps) <= 2000


class TestRealFiberStacks:
    def test_default_scenarios_solve_only_real_stacks(self, monkeypatch):
        # every default potential is even, so each stack eigh receives while
        # the crossing and isolated scenarios are built is float64
        monkeypatch.setattr(harness, "_SCENARIO_CACHE", {})
        dtypes = []
        real = np.linalg.eigh

        def recording(a, *args, **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        build_crossing_scenario(default_config("crossing"))
        build_isolated_scenario(default_config("isolated"))
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}


class TestExactEnvelopeTransport:
    def test_default_isolated_march_is_exact_at_the_first_pair(self,
                                                               monkeypatch):
        # the default drive is linear, so the 16- and 32-step marches agree
        # to roundoff and the 32-step one is accepted; no Strang step runs
        monkeypatch.setattr(harness, "_CASE_CACHE", {})
        calls = []
        real = envelope._apply_h_strang

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(envelope, "_apply_h_strang", counting)
        cfg = default_config("isolated")
        case = run_isolated_case(cfg, 1 / 32)
        # one stop, at t_final: 2 x ENVELOPE_START_STEPS steps over it
        assert case.envelope_dt == pytest.approx(cfg.t_final / 32, rel=1e-12)
        assert case.envelope_error <= harness.ROUNDOFF_FLOOR
        assert calls == []
