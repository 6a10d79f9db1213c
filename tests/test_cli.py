import json
import re

import numpy as np
import pytest

import noisychaos as nc
from noisychaos import sff_variance
from noisychaos.cli import (
    EXPERIMENTS,
    ConfigError,
    config_hash,
    main,
    random_traceless_hermitian,
    run,
    time_grid,
)


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

    @pytest.mark.parametrize("bad_j", [-0.5, float("inf"), float("nan")])
    @pytest.mark.parametrize("experiment", ["sff_scan", "lanczos_scan", "transfer_scan"])
    def test_invalid_j_names_j_list(self, tmp_path, experiment, bad_j):
        cfg = dict(SFF_CONFIG, experiment=experiment, J_list=[0.5, bad_j],
                   spectrum={"sample": "gue", "dim": 4, "seed": 5})
        with pytest.raises(ConfigError, match="J_list"):
            run(cfg, out_dir=tmp_path)
        assert not (tmp_path / "summary.json").exists()

    def test_zero_realizations(self, tmp_path):
        cfg = dict(SFF_CONFIG, spectrum={"sample": "gue", "dim": 4, "n_realizations": 0})
        with pytest.raises(ConfigError, match="spectrum.n_realizations"):
            run(cfg, out_dir=tmp_path)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("formats", [["xml"], ["csv", "xml"], "csv"])
    def test_unknown_output_format(self, tmp_path, formats):
        cfg = dict(SFF_CONFIG, output={"formats": formats})
        with pytest.raises(ConfigError, match="output.formats"):
            run(cfg, out_dir=tmp_path)
        assert not (tmp_path / "summary.json").exists()


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

    def test_spectrum_file_refuses_realizations(self, tmp_path, spec5):
        # One file is one spectrum: averaging "3 realizations" of it would
        # write a series of n_realizations 1.
        spec_path = tmp_path / "spec.json"
        spec5.save(spec_path)
        cfg = dict(SFF_CONFIG, spectrum={"file": str(spec_path), "n_realizations": 3})
        with pytest.raises(ConfigError, match="spectrum.n_realizations"):
            run(cfg, out_dir=tmp_path / "out")
        assert not (tmp_path / "out" / "summary.json").exists()

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


def _scan_cases():
    for experiment, (ensembles, *_) in EXPERIMENTS.items():
        for ensemble in ensembles or (None,):
            yield experiment, ensemble


def _expected_series(experiment, ensemble, cfg):
    """Each series an experiment writes, by file stem, from the library
    directly, with operators drawn from operator_seed in the cli's order."""
    j_list = cfg["J_list"]
    if experiment == "lanczos_scan":
        mu = nc.sech_moments(6, alpha=0.75)
        return {f"lanczos_J{j:g}": nc.signed_lanczos_noisy(mu, j, 1.0, 6)
                for j in j_list}
    sp = cfg["spectrum"]
    rng = np.random.default_rng(np.random.SeedSequence(sp["seed"]))
    spectra = [nc.sample_gue_spectrum(sp["dim"], rng) for _ in range(sp["n_realizations"])]
    spec, dim = spectra[0], sp["dim"]
    t = np.linspace(0.25, 1.0, 4)
    op_rng = np.random.default_rng(np.random.SeedSequence(cfg["operator_seed"]))

    def mean(fn):
        return np.mean([fn(s) for s in spectra], axis=0)

    def model(j):
        return {"gue": nc.gue_constant, "goe": nc.goe_constant}[ensemble](j, dim)

    sff = getattr(nc, f"sff_{ensemble}_const", None)
    two_point = getattr(nc, f"two_point_{ensemble}_const", None)
    out = {}
    if experiment == "sff_scan":
        for j in j_list:
            out[f"sff_{ensemble}_J{j:g}"] = mean(lambda s: sff(s, j, t).values)
    elif experiment == "two_point_scan":
        o = random_traceless_hermitian(dim, op_rng)
        for j in j_list:
            out[f"two_point_J{j:g}"] = mean(lambda s: two_point(s, j, o, t).values)
    elif experiment == "otoc_scan":
        a = random_traceless_hermitian(dim, op_rng)
        b = random_traceless_hermitian(dim, op_rng)
        for j in j_list:
            out[f"otoc_J{j:g}"] = mean(lambda s: nc.otoc(s, j, t, a, b))
    elif experiment == "transfer_scan":
        for j in j_list:
            out[f"transfer_J{j:g}"] = nc.transfer_probability(spec, model(j), 0, 1, t).values
    elif experiment == "return_scan":
        for j in j_list:
            out[f"return_J{j:g}"] = nc.return_probability(spec, j, None, t).values
    elif experiment == "sff_variance_scan":
        for j in j_list:
            moments = sff_variance(spec, j, t)
            out[f"sff_squared_J{j:g}"] = moments.second_moment
            out[f"sff_variance_J{j:g}"] = moments.variance
    elif experiment == "oracle_compare":
        mc = cfg["montecarlo"]
        traj = nc.TrajectoryConfig(mc["dt"], mc["t_max"], mc["n_traj"], mc["seed"])
        o = random_traceless_hermitian(dim, op_rng)
        for j in j_list:
            observables = {
                "sff": nc.sff_observable(),
                "two_point": nc.two_point_observable(o),
                "transfer": nc.transfer_observable(0, 1),
            }
            if ensemble == "gue":
                observables["sff_squared"] = nc.sff_squared_observable()
                a = random_traceless_hermitian(dim, op_rng)
                b = random_traceless_hermitian(dim, op_rng)
                observables["otoc"] = nc.otoc_observable(a, b)
            run_ = nc.estimate_observables(spec, model(j), traj, t, observables)
            for key, series in run_.series.items():
                out[f"mc_{key}_J{j:g}"] = series.values
    return out


class TestExperimentTable:
    @pytest.mark.parametrize("experiment, ensemble", list(_scan_cases()))
    def test_series_match_library(self, tmp_path, experiment, ensemble):
        averages = EXPERIMENTS[experiment][1]
        cfg = {
            "experiment": experiment,
            "spectrum": {"sample": "gue", "dim": 5, "seed": 3,
                         "n_realizations": 2 if averages else 1},
            "noise": {"ensemble": ensemble or "gue", "profile": {"type": "const", "J": 1.0}},
            "t_grid": {"t_min": 0.25, "t_max": 1.0, "n_points": 4},
            "J_list": [0.5, 1.0],
            "operator_seed": 11,
            "lanczos": {"alpha": 0.75, "n_max": 6},
            "montecarlo": {"dt": 0.05, "t_max": 1.0, "n_traj": 6, "seed": 2},
            "compare_otoc": True,
        }
        summary = run(cfg, out_dir=tmp_path, threads=2)
        expected = _expected_series(experiment, ensemble, cfg)
        assert summary["files"] == [f"{stem}.{ext}" for stem in expected for ext in ("csv", "json")]
        for stem, values in expected.items():
            doc = json.loads((tmp_path / f"{stem}.json").read_text())
            written = np.asarray(doc["values_re"]) + 1j * np.asarray(doc["values_im"])
            assert np.array_equal(written, values), stem
            assert doc["metadata"]["config_hash"] == config_hash(cfg), stem


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

    @pytest.mark.parametrize(
        "experiment, override, field",
        [
            ("sff_scan", {"J_list": 5}, "J_list"),
            ("lanczos_scan", {"J_list": "05"}, "J_list"),
            ("sff_scan", {"J_list": [0.5, "1"]}, "J_list"),
            ("sff_scan", {"noise": "gue"}, "noise"),
            ("sff_scan", {"noise": {"ensemble": "gue", "profile": "const"}}, "noise.profile"),
            ("sff_scan", {"spectrum": [4]}, "spectrum"),
            ("sff_scan", {"spectrum": {"sample": "gue", "dim": 4, "n_realizations": "2"}},
             "spectrum.n_realizations"),
            ("sff_scan", {"t_grid": 5}, "t_grid"),
            ("oracle_compare", {"montecarlo": 0.01}, "montecarlo"),
            ("lanczos_scan", {"lanczos": 3}, "lanczos"),
            ("sff_scan", {"output": ["csv"]}, "output"),
        ],
    )
    def test_malformed_type_names_field(self, tmp_path, experiment, override, field):
        cfg = {**self.BASE, "experiment": experiment, **override}
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}="):
            run(cfg, out_dir=tmp_path)
        assert not (tmp_path / "summary.json").exists()
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize(
        "states, field",
        [
            ({"state_i": 9}, "state_i=9"),
            ({"state_i": -1}, "state_i=-1"),
            ({"state_j": 6}, "state_j=6"),
            ({"state_i": "1"}, "state_i='1'"),
            ({"state_j": 1.5}, "state_j=1.5"),
        ],
    )
    def test_transfer_state_out_of_range(self, tmp_path, states, field):
        spectrum = {"sample": "gue", "dim": 6, "seed": 3}
        cfg = {**self.BASE, "experiment": "transfer_scan", "spectrum": spectrum, **states}
        with pytest.raises(ConfigError, match=re.escape(field)):
            run(cfg, out_dir=tmp_path)
        assert not (tmp_path / "summary.json").exists()

    def test_supported_settings_still_run(self, tmp_path):
        cfg = {**self.BASE, "experiment": "two_point_scan", "noise": self.GOE,
               "spectrum": self.MANY}
        assert run(cfg, out_dir=tmp_path)["pass"] is True
