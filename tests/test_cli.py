import json

import numpy as np
import pytest

from noisychaos import sff_variance
from noisychaos.cli import ConfigError, config_hash, main, run, time_grid


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


SFF_CONFIG = {
    "experiment": "sff_scan",
    "spectrum": {"sample": "gue", "dim": 8, "n_realizations": 3, "seed": 5},
    "noise": {"ensemble": "gue", "profile": {"type": "const", "J": 1.0}},
    "t_grid": {"t_min": 0.1, "t_max": 2.0, "n_points": 12, "spacing": "log"},
    "J_list": [0.0, 1.0],
}

ORACLE_CONFIG = {
    "experiment": "oracle_compare",
    "spectrum": {"sample": "gue", "dim": 4, "seed": 11},
    "noise": {"ensemble": "gue", "profile": {"type": "const", "J": 1.0}},
    "t_grid": {"t_min": 0.25, "t_max": 1.0, "n_points": 4},
    "J_list": [1.0],
    "montecarlo": {"dt": 0.0025, "t_max": 1.0, "n_traj": 200, "seed": 7},
}


class TestConfigParsing:
    def test_time_grid_linear(self):
        t = time_grid({"t_min": 0.0, "t_max": 1.0, "n_points": 5})
        assert np.allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_time_grid_log_requires_positive(self):
        with pytest.raises(ConfigError):
            time_grid({"t_min": 0.0, "t_max": 1.0, "n_points": 5, "spacing": "log"})

    def test_missing_field_path_in_message(self):
        with pytest.raises(ConfigError, match="t_grid.t_max"):
            time_grid({"t_min": 0.0, "n_points": 5})

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError):
            run({"experiment": "nope", "J_list": [1.0]}, out_dir=tmp_path)

    def test_empty_j_list(self, tmp_path):
        cfg = dict(SFF_CONFIG, J_list=[])
        with pytest.raises(ConfigError):
            run(cfg, out_dir=tmp_path)


class TestRunExperiments:
    def test_sff_scan_outputs(self, tmp_path):
        summary = run(SFF_CONFIG, out_dir=tmp_path)
        assert summary["pass"] is True
        assert (tmp_path / "summary.json").exists()
        for j in (0, 1):
            csv = tmp_path / f"sff_gue_J{j}.csv"
            assert csv.exists()
            assert csv.read_text().splitlines()[0] == "t,re,im,stderr"
            doc = json.loads((tmp_path / f"sff_gue_J{j}.json").read_text())
            assert doc["metadata"]["config_hash"] == config_hash(SFF_CONFIG)

    def test_sff_scan_idempotent(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(SFF_CONFIG, out_dir=out1)
        run(SFF_CONFIG, out_dir=out2)
        for name in ("sff_gue_J0.csv", "sff_gue_J1.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_lanczos_scan(self, tmp_path):
        cfg = {
            "experiment": "lanczos_scan",
            "J_list": [0.0, 2.0],
            "lanczos": {"n_max": 12, "dps": 60},
        }
        run(cfg, out_dir=tmp_path)
        doc = json.loads((tmp_path / "lanczos_J0.json").read_text())
        # The recursion is exact: lanczos.dps is accepted and has no effect.
        assert doc["values_re"] == list(range(1, 13))
        assert "dps" not in doc["metadata"]

    def test_sff_variance_scan(self, tmp_path, spec5):
        spec_path = tmp_path / "spec.json"
        spec5.save(spec_path)
        cfg = {
            "experiment": "sff_variance_scan",
            "spectrum": {"file": str(spec_path)},
            "t_grid": {"t_min": 0.0, "t_max": 4.0, "n_points": 9},
            "J_list": [0.5],
        }
        run(cfg, out_dir=tmp_path / "out")
        moments = sff_variance(spec5, 0.5, np.linspace(0.0, 4.0, 9))
        for stem, expected in (("sff_squared", moments.second_moment),
                               ("sff_variance", moments.variance)):
            doc = json.loads((tmp_path / "out" / f"{stem}_J0.5.json").read_text())
            assert doc["values_re"] == list(expected)
            assert doc["values_im"] == [0.0] * 9

    def test_spectrum_from_file(self, tmp_path, spec5):
        spec_path = tmp_path / "spec.json"
        spec5.save(spec_path)
        cfg = dict(SFF_CONFIG, spectrum={"file": str(spec_path)})
        summary = run(cfg, out_dir=tmp_path / "out")
        assert summary["pass"] is True

    def test_missing_spectrum_file(self, tmp_path):
        cfg = dict(SFF_CONFIG, spectrum={"file": str(tmp_path / "nope.json")})
        with pytest.raises(ConfigError):
            run(cfg, out_dir=tmp_path)

    def test_return_scan(self, tmp_path):
        cfg = {
            "experiment": "return_scan",
            "spectrum": {"sample": "gue", "dim": 6, "seed": 2},
            "t_grid": {"t_min": 0.0, "t_max": 2.0, "n_points": 6},
            "J_list": [0.7],
        }
        run(cfg, out_dir=tmp_path)
        doc = json.loads((tmp_path / "return_J0.7.json").read_text())
        assert doc["values_re"][0] == 1.0


class TestOracleCompare:
    def test_oracle_pass_and_summary(self, tmp_path):
        summary = run(ORACLE_CONFIG, out_dir=tmp_path, threads=2)
        assert summary["comparisons"], "oracle run must emit comparisons"
        assert summary["pass"] is True
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["pass"] is True
        assert all(c["max_sigma"] <= 3.0 for c in doc["comparisons"])
        (health,) = doc["mc_health"]
        assert health["J"] == 1.0
        assert 0.0 < health["max_unitarity_drift"] <= 1e-8
        # lambda_ij = J/D, so dt |lambda|_inf D = J dt.
        assert health["step_margin"] == pytest.approx(0.0025)

    def test_thread_invariance_byte_identical(self, tmp_path):
        outs = []
        for n in (1, 4):
            out = tmp_path / f"t{n}"
            run(ORACLE_CONFIG, out_dir=out, threads=n)
            outs.append(out)
        for name in sorted(p.name for p in outs[0].iterdir()):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestMainEntry:
    def test_exit_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SFF_CONFIG)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0

    def test_exit_one_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_exit_one_on_config_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"experiment": "nope", "J_list": [1]})
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1

    def test_exit_one_on_lanczos_breakdown(self, tmp_path, capsys):
        # J = alpha = 1 exhausts the Krylov space: b_1^2 = 1 - J^2 = 0.
        cfg = {
            "experiment": "lanczos_scan",
            "J_list": [1.0],
            "lanczos": {"alpha": 1.0, "n_max": 8, "dps": 30},
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "error: Lanczos recursion breakdown" in capsys.readouterr().err

    def test_oracle_prints_comparison_lines(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, ORACLE_CONFIG)
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--threads", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sff_J1" in out and "[pass]" in out


class TestUnsupportedSettings:
    BASE = {
        "spectrum": {"sample": "gue", "dim": 4, "seed": 3},
        "noise": {"ensemble": "gue", "profile": {"type": "const", "J": 1.0}},
        "t_grid": {"t_min": 0.0, "t_max": 1.0, "n_points": 3},
        "J_list": [1.0],
        "montecarlo": {"dt": 0.01, "t_max": 1.0, "n_traj": 4, "seed": 1},
    }
    GOE = {"ensemble": "goe", "profile": {"type": "const", "J": 1.0}}
    GIBBS = {"ensemble": "gue", "profile": {"type": "gibbs", "J": 1.0, "beta": 0.5}}
    MATRIX = {"ensemble": "gue", "profile": {"type": "matrix", "lambda": [[0.25] * 4] * 4}}
    MANY = {"sample": "gue", "dim": 4, "seed": 3, "n_realizations": 2}

    @pytest.mark.parametrize(
        "experiment, override, field",
        [
            ("return_scan", {"noise": GOE}, "noise.ensemble"),
            ("otoc_scan", {"noise": GOE}, "noise.ensemble"),
            ("sff_variance_scan", {"noise": GOE}, "noise.ensemble"),
            ("sff_scan", {"noise": GIBBS}, "noise.profile.type"),
            ("transfer_scan", {"noise": MATRIX}, "noise.profile.type"),
            ("transfer_scan", {"spectrum": MANY}, "spectrum.n_realizations"),
            ("return_scan", {"spectrum": MANY}, "spectrum.n_realizations"),
            ("sff_variance_scan", {"spectrum": MANY}, "spectrum.n_realizations"),
            ("oracle_compare", {"spectrum": MANY}, "spectrum.n_realizations"),
        ],
    )
    def test_config_error_names_field(self, tmp_path, experiment, override, field):
        cfg = {**self.BASE, "experiment": experiment, **override}
        with pytest.raises(ConfigError, match=field):
            run(cfg, out_dir=tmp_path)
        assert not (tmp_path / "summary.json").exists()

    def test_supported_settings_still_run(self, tmp_path):
        cfg = {**self.BASE, "experiment": "two_point_scan", "noise": self.GOE,
               "spectrum": self.MANY}
        assert run(cfg, out_dir=tmp_path)["pass"] is True
