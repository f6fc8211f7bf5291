"""The ``bcl`` command line."""
import json

import pytest

from bandcross import cli, harness


def write_config(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestLoadConfig:
    def test_overlay_keeps_unset_defaults(self, tmp_path):
        cfg = cli.load_config("isolated", write_config(
            tmp_path, {"epsilons": [16, 24],
                       "solver": {"error_budget": 0.05}}))
        default = harness.default_config("isolated")
        assert cfg.epsilons == (1 / 16, 1 / 24)
        assert cfg.sigma == default.sigma
        assert cfg.solver["error_budget"] == 0.05
        assert cfg.solver["signal_prefactor"] == (
            default.solver["signal_prefactor"])

    def test_unknown_key_is_a_usage_error(self, tmp_path):
        path = write_config(tmp_path, {"no_such_key": 1})
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "isolated", "--config", path])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key", ["s0", "xi", "xi_prime", "horizon_pad",
                                     "m_cut", "n_inner", "p_star"])
    def test_removed_field_is_a_usage_error(self, tmp_path, key):
        path = write_config(tmp_path, {key: 1})
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "crossing", "--config", path])
        assert exc.value.code == 2

    def test_empty_epsilons_is_a_usage_error(self, tmp_path):
        path = write_config(tmp_path, {"epsilons": []})
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "crossing", "--config", path])
        assert exc.value.code == 2

    @pytest.mark.parametrize("potential", [
        {"kind": "coeffs", "values": {"1": 2.0, "16": 0.01}},
        {"kind": "one_gap", "omega_prime": 0.3, "m_max": 16}],
        ids=["coeffs", "one_gap"])
    def test_potential_above_m_cut_is_a_usage_error(self, tmp_path, capsys,
                                                     potential):
        path = write_config(tmp_path, {"potential": potential})
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "isolated", "--config", path])
        assert exc.value.code == 2
        assert "harmonic 16" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, key", [
        ({"potential": {"kind": "cosine"}}, "amplitude"),
        ({"external": {"kind": "linear"}}, "alpha")],
        ids=["potential", "external"])
    def test_missing_spec_key_is_a_usage_error(self, tmp_path, capsys, spec,
                                               key):
        # refused at config load with the key named, not a KeyError
        # traceback from inside the run
        path = write_config(tmp_path, spec)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "isolated", "--config", path])
        assert exc.value.code == 2
        assert repr(key) in capsys.readouterr().err

    def test_deleted_solver_key_is_a_usage_error(self, tmp_path):
        path = write_config(tmp_path, {"solver": {"envelope_dt": 1e-3}})
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "isolated", "--config", path])
        assert exc.value.code == 2

    def test_dt_cap_is_a_usage_error(self, tmp_path):
        path = write_config(tmp_path, {"solver": {"dt_cap": 1e-3}})
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "isolated", "--config", path])
        assert exc.value.code == 2

    def test_other_study_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli.load_config("isolated",
                            write_config(tmp_path, {"study": "crossing"}))


class TestRun:
    def test_isolated_sweep_passes(self, tmp_path):
        path = write_config(tmp_path, {"epsilons": [16, 24, 32]})
        out = tmp_path / "out"
        assert cli.main(["run", "isolated", "--config", path,
                         "--out", str(out)]) == 0
        summary = json.loads((out / "isolated_summary.json").read_text())
        assert summary["passed"] is True
        assert summary["config"]["out_dir"] == str(out)
        header = (out / "isolated_rows.csv").read_text().splitlines()[0]
        assert {"energy_drift", "envelope_dt", "envelope_error",
                "envelope_boundary_mass"} <= set(
            header.split(","))

    def test_failed_gate_exits_nonzero(self, tmp_path, monkeypatch):
        def failing(cfg):
            gate = harness.GateResult("g", 0.0, "== 1", passed=False)
            return harness.StudyReport("isolated", "0", cfg.resolved(), [],
                                       [], [gate])

        monkeypatch.setattr(harness, "run_isolated_band", failing)
        assert cli.main(["run", "isolated", "--out", str(tmp_path)]) == 1
        assert (tmp_path / "isolated_summary.json").exists()
