import hashlib
import json
import math
import platform
import re
from pathlib import Path

import numpy as np
import pytest

import noisychaos as nc
from noisychaos import cli, sff_variance
from noisychaos.cli import (
    CONFIG,
    EXPERIMENTS,
    ConfigError,
    config_hash,
    main,
    random_traceless_hermitian,
    resolve,
    run,
    sample_spectra,
    time_grid,
)


def reads(experiment, config):
    """The keys of ``config`` that ``experiment`` reads."""
    return {key: value for key, value in config.items() if experiment in CONFIG[key][-1]}


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
        grid = {"t_min": 0.0, "t_max": 1.0, "n_points": 5}
        t = time_grid(resolve(dict(SFF_CONFIG, t_grid=grid)))
        assert np.allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_time_grid_log_requires_positive(self):
        with pytest.raises(ConfigError):
            time_grid(resolve(dict(SFF_CONFIG, t_grid={"t_min": 0.0, "t_max": 1.0, "n_points": 5,
                                                       "spacing": "log"})))

    def test_missing_field_path_in_message(self):
        with pytest.raises(ConfigError, match="t_grid.t_max"):
            resolve(dict(SFF_CONFIG, t_grid={"t_min": 0.0, "n_points": 5}))

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError):
            run({"experiment": "nope", "J_list": [1.0]}, out_dir=tmp_path)

    def test_empty_j_list(self, tmp_path):
        cfg = dict(SFF_CONFIG, J_list=[])
        with pytest.raises(ConfigError):
            run(cfg, out_dir=tmp_path)

    @pytest.mark.parametrize("bad_j", [-0.5, float("inf"), float("nan"), True])
    @pytest.mark.parametrize("experiment", ["sff_scan", "lanczos_scan", "transfer_scan"])
    def test_invalid_j_names_j_list(self, tmp_path, experiment, bad_j):
        cfg = dict(SFF_CONFIG, experiment=experiment, J_list=[0.5, bad_j],
                   spectrum={"sample": "gue", "dim": 4, "seed": 5})
        with pytest.raises(ConfigError, match="J_list"):
            run(cfg, out_dir=tmp_path)
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("j_list, stem", [([1.0, 1.0000001], "J1"), ([0.5, 0.5], "J0.5")])
    def test_shared_file_stem_names_j_list(self, tmp_path, j_list, stem):
        # Two entries with one stem would write the same files twice.
        cfg = dict(SFF_CONFIG, J_list=j_list)
        with pytest.raises(ConfigError, match=f"^J_list=.*{re.escape(stem)}$"):
            run(cfg, out_dir=tmp_path)
        assert not (tmp_path / "summary.json").exists()

    def test_negative_zero_shares_the_stem_of_zero(self, tmp_path):
        cfg = dict(SFF_CONFIG, J_list=[0.0, -0.0])
        with pytest.raises(ConfigError, match="^J_list=.*J0$"):
            run(cfg, out_dir=tmp_path)
        assert not (tmp_path / "summary.json").exists()
        cfg = {"experiment": "return_scan", "spectrum": {"sample": "gue", "dim": 4, "seed": 2},
               "t_grid": {"t_min": 0.0, "t_max": 1.0, "n_points": 3}, "J_list": [-0.0]}
        assert run(cfg, out_dir=tmp_path)["files"] == ["return_J0.csv", "return_J0.json"]
        doc = json.loads((tmp_path / "return_J0.json").read_text())
        assert math.copysign(1.0, doc["metadata"]["J"]) == 1.0

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
    def test_summary_records_environment(self, tmp_path):
        run(SFF_CONFIG, out_dir=tmp_path, threads=3)
        env = json.loads((tmp_path / "summary.json").read_text())["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": 3,
            "blas": {"name": blas["name"], "version": blas["version"]},
        }

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

    @pytest.mark.parametrize(
        "extra, flags, refused",
        [({"dim": 64}, [], "spectrum.dim=64"),
         ({"sample": "goe"}, [], "spectrum.sample='goe'"),
         ({"seed": 3}, [], "spectrum.seed=3"),
         ({"dim": 64, "sample": "goe", "seed": 3}, [], "spectrum.sample='goe'"),
         ({}, ["--seed", "3"], "--seed=3")],
        ids=["dim", "sample", "seed", "all", "seed-flag"],
    )
    def test_spectrum_file_refuses_what_it_would_ignore(self, tmp_path, capsys, spec4, extra,
                                                        flags, refused):
        # The file's D = 4 spectrum would run, and exit 0, whatever these say.
        spec_path = tmp_path / "spec.json"
        spec4.save(spec_path)
        cfg = dict(SFF_CONFIG, spectrum={"file": str(spec_path), **extra})
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out), *flags]) == 1
        assert f"error: {refused} is not read: spectrum.file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [None, '{"dim": 3}', "[0.0, 1.0]", '{"energies": 5}', '{"dim": 3, "energies": [0.0, 1.0]}',
         '{"dim": 3, "energies": [NaN, 0.1, 0.5]}', '{"dim": 2, "energies": [0.1, Infinity]}',
         '{"dim": 3.7, "energies": [0.0, 0.5, 1.0]}', '{"dim": true, "energies": [0.0, 1.0]}'],
        ids=["absent", "no-energies", "list", "scalar-energies", "dim-mismatch", "nan", "inf",
             "fractional-dim", "bool-dim"],
    )
    def test_missing_spectrum_file(self, tmp_path, content):
        spec_path = tmp_path / "spec.json"
        if content is not None:
            spec_path.write_text(content)
        cfg = dict(SFF_CONFIG, spectrum={"file": str(spec_path)})
        with pytest.raises(ConfigError, match="spectrum.file"):
            run(cfg, out_dir=tmp_path / "out")
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_spectrum_file_that_is_a_directory(self, tmp_path, capsys):
        # open() raised IsADirectoryError, which main printed without the key.
        cfg = dict(SFF_CONFIG, spectrum={"file": str(tmp_path)})
        with pytest.raises(ConfigError, match="^spectrum.file .* cannot be read: Is a directory"):
            run(cfg, out_dir=tmp_path / "out")
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "error: spectrum.file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
            out[f"sff_{ensemble}_J{j:g}"] = mean(lambda s: sff(s, j, t))
    elif experiment == "two_point_scan":
        o = random_traceless_hermitian(dim, op_rng)
        for j in j_list:
            out[f"two_point_J{j:g}"] = mean(lambda s: two_point(s, j, o, t))
    elif experiment == "otoc_scan":
        a = random_traceless_hermitian(dim, op_rng)
        b = random_traceless_hermitian(dim, op_rng)
        for j in j_list:
            out[f"otoc_J{j:g}"] = mean(lambda s: nc.otoc(s, j, t, a, b))
    elif experiment == "transfer_scan":
        for j in j_list:
            out[f"transfer_J{j:g}"] = nc.transfer_probability(spec, model(j), 0, 1, t)
    elif experiment == "return_scan":
        for j in j_list:
            out[f"return_J{j:g}"] = nc.return_probability(spec, model(j), t)
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
        cfg = reads(experiment, {
            "experiment": experiment,
            "spectrum": {"sample": "gue", "dim": 5, "seed": 3,
                         "n_realizations": 2 if averages else 1},
            "noise": {"ensemble": ensemble or "gue", "profile": {"type": "const", "J": 1.0}},
            "t_grid": {"t_min": 0.25, "t_max": 1.0, "n_points": 4},
            "J_list": [0.5, 1.0],
            "operator_seed": 11,
            "lanczos": {"alpha": 0.75, "n_max": 6},
            "montecarlo": {"dt": 0.05, "t_max": 1.0, "n_traj": 6, "seed": 2},
            "compare_otoc": ensemble != "goe",
        })
        summary = run(cfg, out_dir=tmp_path, threads=2)
        expected = _expected_series(experiment, ensemble, cfg)
        assert summary["files"] == [f"{stem}.{ext}" for stem in expected for ext in ("csv", "json")]
        for stem, values in expected.items():
            doc = json.loads((tmp_path / f"{stem}.json").read_text())
            written = np.asarray(doc["values_re"]) + 1j * np.asarray(doc["values_im"])
            assert np.array_equal(written, values), stem
            assert doc["metadata"]["config_hash"] == config_hash(cfg), stem
            # Every series of a spectrum experiment names its J and ensemble.
            assert doc["metadata"]["J"] == float(stem.rpartition("_J")[2]), stem
            if ensemble is not None:
                assert doc["metadata"]["ensemble"] == ensemble, stem

    def test_spectrum_series_name_their_spectrum(self, tmp_path, spec5):
        # Every series written from a spectrum carries its D and the hash of
        # its energies; one spectrum file gives every scan the hash of a
        # transfer_scan, and a mean over realizations hashes them in order.
        spec_path = tmp_path / "spec.json"
        spec5.save(spec_path)
        hashes = {}
        for experiment in ("transfer_scan", "sff_scan", "two_point_scan", "otoc_scan", "return_scan",
                           "sff_variance_scan"):
            out = tmp_path / experiment
            run(reads(experiment, {
                "experiment": experiment, "spectrum": {"file": str(spec_path)},
                "noise": {"ensemble": "gue"}, "t_grid": {"t_min": 0.0, "t_max": 1.0, "n_points": 3},
                "J_list": [0.5],
            }), out_dir=out)
            for path in sorted(out.glob("*_J0.5.json")):
                meta = json.loads(path.read_text())["metadata"]
                assert meta["dim"] == 5, path.name
                hashes[path.name] = meta["spectrum_hash"]
        assert len(hashes) == 7
        assert set(hashes.values()) == {hashes["transfer_J0.5.json"]}
        run(SFF_CONFIG, out_dir=tmp_path / "mean")
        meta = json.loads((tmp_path / "mean" / "sff_gue_J1.json").read_text())["metadata"]
        energies = b"".join(s.energies.tobytes() for s in sample_spectra(resolve(SFF_CONFIG)))
        assert meta["n_realizations"] == 3 and meta["dim"] == 8
        assert meta["spectrum_hash"] == hashlib.sha256(energies).hexdigest()[:16]


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

    def test_comparisons_record_time_points(self, tmp_path):
        summary = run(ORACLE_CONFIG, out_dir=tmp_path)
        t = time_grid(resolve(ORACLE_CONFIG))
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["comparisons"] == summary["comparisons"]
        for comp in doc["comparisons"]:
            assert comp["n_points"] == t.size == len(comp["z"])
            assert all(z >= 0.0 for z in comp["z"])
            assert max(comp["z"]) == comp["max_sigma"]
            assert comp["worst_t"] == t[int(np.argmax(comp["z"]))]

    def test_state_pair_is_compared(self, tmp_path):
        cfg = {**ORACLE_CONFIG, "state_i": 2, "state_j": 3,
               "montecarlo": {**ORACLE_CONFIG["montecarlo"], "n_traj": 20}}
        run(cfg, out_dir=tmp_path)
        doc = json.loads((tmp_path / "mc_transfer_J1.json").read_text())
        assert (doc["metadata"]["i"], doc["metadata"]["j"]) == (2, 3)
        spec = sample_spectra(resolve(cfg))[0]
        mc = cfg["montecarlo"]
        expected = nc.estimate_transfer(
            spec, nc.gue_constant(1.0, spec.dim),
            nc.TrajectoryConfig(mc["dt"], mc["t_max"], mc["n_traj"], mc["seed"]),
            2, 3, time_grid(resolve(cfg)),
        )
        assert np.array_equal(doc["values_re"], expected.values.real)

    def test_state_pair_out_of_range_exits_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {**ORACLE_CONFIG, "state_i": 4})
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "state_i=4" in capsys.readouterr().err

    def test_mc_series_carry_name_and_metadata(self, tmp_path):
        cfg = {**ORACLE_CONFIG, "compare_otoc": True,
               "montecarlo": {**ORACLE_CONFIG["montecarlo"], "n_traj": 8}}
        summary = run(cfg, out_dir=tmp_path)
        keys = ("sff", "two_point", "transfer", "sff_squared", "otoc")
        assert sorted(f for f in summary["files"] if f.endswith(".json")) == sorted(
            f"mc_{key}_J1.json" for key in keys
        )
        for key in keys:
            doc = json.loads((tmp_path / f"mc_{key}_J1.json").read_text())
            assert doc["name"] == f"mc_{key}"
            expected = {"dim", "spectrum_hash", "J", "ensemble", "noise", "dt", "n_traj", "seed",
                        "config_hash"}
            assert set(doc["metadata"]) == expected | ({"i", "j"} if key == "transfer" else set())

    def test_thread_invariance_byte_identical(self, tmp_path):
        outs = []
        for n in (1, 4):
            out = tmp_path / f"t{n}"
            run(ORACLE_CONFIG, out_dir=out, threads=n)
            outs.append(out)
        for name in sorted(p.name for p in outs[0].iterdir()):
            first, second = ((out / name).read_bytes() for out in outs)
            if name == "summary.json":
                # The environment record names the thread count; nothing else may differ.
                first, second = (json.loads(doc) for doc in (first, second))
                assert (first["environment"].pop("threads"),
                        second["environment"].pop("threads")) == (1, 4)
            assert first == second, name


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
        # J = alpha = 1 exhausts the Krylov space: b_1^2 = 1 - J^2 = 0.  The
        # series of J = 0.5, computed first, is not written either.
        cfg = {
            "experiment": "lanczos_scan",
            "J_list": [0.5, 1.0],
            "lanczos": {"alpha": 1.0, "n_max": 8, "dps": 30},
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: Lanczos recursion breakdown at level 3 for J_list entry 1.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--threads", "0"),
                                             ("--threads", "-3")])
    def test_exit_one_on_bad_flag(self, tmp_path, capsys, flag, value):
        cfg_path = write_config(tmp_path, SFF_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out), flag, value]) == 1
        assert f"error: {flag}={value} must be at least" in capsys.readouterr().err
        assert not out.exists()

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

    @classmethod
    def config(cls, experiment, **override):
        """The keys of BASE that ``experiment`` reads, with ``override``."""
        return {**reads(experiment, cls.BASE), "experiment": experiment, **override}

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
            ("sff_scan", {"noise": {"ensemble": "gue", "profile": {"type": "const", "J": 3.0}}},
             "noise.profile.J"),
            ("oracle_compare", {"noise": GOE, "compare_otoc": True}, "compare_otoc"),
        ],
    )
    def test_config_error_names_field(self, tmp_path, experiment, override, field):
        cfg = self.config(experiment, **override)
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
            ("sff_scan", {"spectrum": {"sample": "gue", "dim": [4]}}, "spectrum.dim"),
            ("sff_scan", {"spectrum": {"sample": "gue", "dim": "4"}}, "spectrum.dim"),
            ("sff_scan", {"spectrum": {"sample": "gue", "dim": 4.0}}, "spectrum.dim"),
            ("sff_scan", {"spectrum": {"sample": "gue", "dim": 4, "seed": "3"}},
             "spectrum.seed"),
            ("sff_scan", {"t_grid": {"t_min": "0", "t_max": 1.0, "n_points": 3}}, "t_grid.t_min"),
            ("sff_scan", {"t_grid": {"t_min": 0.0, "t_max": [1.0], "n_points": 3}},
             "t_grid.t_max"),
            ("sff_scan", {"t_grid": {"t_min": 0.0, "t_max": 1.0, "n_points": True}},
             "t_grid.n_points"),
            ("oracle_compare", {"montecarlo": {"dt": "0.01", "t_max": 1.0, "n_traj": 4,
                                               "seed": 1}}, "montecarlo.dt"),
            ("oracle_compare", {"montecarlo": {"dt": 0.01, "t_max": None, "n_traj": 4,
                                               "seed": 1}}, "montecarlo.t_max"),
            ("oracle_compare", {"montecarlo": {"dt": 0.01, "t_max": 1.0, "n_traj": 4.5,
                                               "seed": 1}}, "montecarlo.n_traj"),
            ("oracle_compare", {"montecarlo": {"dt": 0.01, "t_max": 1.0, "n_traj": 4,
                                               "seed": True}}, "montecarlo.seed"),
            ("lanczos_scan", {"lanczos": {"alpha": "2"}}, "lanczos.alpha"),
            ("lanczos_scan", {"lanczos": {"n_max": [8]}}, "lanczos.n_max"),
            ("lanczos_scan", {"lanczos": {"trace_ratio": False}}, "lanczos.trace_ratio"),
            ("sff_scan", {"operator_seed": "7"}, "operator_seed"),
            ("sff_scan", {"spectrum": {"file": 5}}, "spectrum.file"),
            ("sff_scan", {"output": {"dir": 5}}, "output.dir"),
            ("oracle_compare", {"compare_otoc": "no"}, "compare_otoc"),
            ("lanczos_scan", {"lanczos": {"dps": "x"}}, "lanczos.dps"),
            ("sff_scan", {"spectrum": {"sample": "gue", "dim": 4, "seed": -1}}, "spectrum.seed"),
            ("sff_scan", {"operator_seed": -1}, "operator_seed"),
            ("oracle_compare", {"montecarlo": {"dt": 0.01, "t_max": 1.0, "n_traj": 4,
                                               "seed": -1}}, "montecarlo.seed"),
            ("sff_scan", {"spectrum": {"sample": "gue", "dim": 1}}, "spectrum.dim"),
            ("oracle_compare", {"montecarlo": {"dt": 0.01, "t_max": 1.0, "n_traj": 0,
                                               "seed": 1}}, "montecarlo.n_traj"),
            ("lanczos_scan", {"lanczos": {"n_max": 0}}, "lanczos.n_max"),
            ("lanczos_scan", {"lanczos": {"n_max": -3}}, "lanczos.n_max"),
            ("sff_scan", {"spectrum": {"sample": "gue", "dim": 4, "n_realizations": 0}},
             "spectrum.n_realizations"),
            ("lanczos_scan", {"lanczos": {"alpha": float("inf")}}, "lanczos.alpha"),
            ("lanczos_scan", {"lanczos": {"alpha": float("nan")}}, "lanczos.alpha"),
            ("lanczos_scan", {"lanczos": {"trace_ratio": float("inf")}}, "lanczos.trace_ratio"),
            ("oracle_compare", {"montecarlo": {"dt": float("nan"), "t_max": 1.0, "n_traj": 4,
                                               "seed": 1}}, "montecarlo.dt"),
            ("sff_scan", {"t_grid": {"t_min": 0.0, "t_max": float("-inf"), "n_points": 3}},
             "t_grid.t_max"),
            ("lanczos_scan", {"lanczos": {"trace_ratio": -3.0}}, "lanczos.trace_ratio"),
            ("lanczos_scan", {"lanczos": {"trace_ratio": 1.5}}, "lanczos.trace_ratio"),
            ("otoc_scan", {"spectrum": {"sample": "gue", "dim": 2}}, "spectrum.dim"),
            ("sff_variance_scan", {"spectrum": {"sample": "gue", "dim": 2}}, "spectrum.dim"),
            ("oracle_compare", {"spectrum": {"sample": "gue", "dim": 2}, "compare_otoc": True},
             "spectrum.dim"),
            ("oracle_compare", {"montecarlo": {"dt": 0.0, "t_max": 1.0, "n_traj": 4,
                                               "seed": 1}}, "montecarlo.dt"),
            ("oracle_compare", {"montecarlo": {"dt": 0.01, "t_max": 0, "n_traj": 4,
                                               "seed": 1}}, "montecarlo.t_max"),
            # Misspelled keys, which would otherwise be ignored.
            ("sff_scan", {"spectrum": {"sample": "gue", "dim": 4, "n_realisations": 5}},
             "spectrum.n_realisations"),
            ("sff_scan", {"J_lsit": [0.5]}, "J_lsit"),
            ("oracle_compare", {"montecarlo": {"dt": 0.01, "t_max": 1.0, "n_traj": 4, "seed": 1,
                                               "n_trajectories": 4096}},
             "montecarlo.n_trajectories"),
        ],
    )
    def test_malformed_type_names_field(self, tmp_path, experiment, override, field):
        cfg = self.config(experiment, **override)
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
        cfg = self.config("transfer_scan", spectrum=spectrum, **states)
        with pytest.raises(ConfigError, match=re.escape(field)):
            run(cfg, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_two_replica_file_spectrum_names_file(self, tmp_path):
        spec_path = tmp_path / "spec2.json"
        nc.Spectrum(np.array([-0.5, 0.5])).save(spec_path)
        cfg = self.config("otoc_scan", spectrum={"file": str(spec_path)})
        with pytest.raises(ConfigError, match="^spectrum.file=.* holds D=2; otoc_scan"):
            run(cfg, out_dir=tmp_path)

    @pytest.mark.parametrize(
        "t_grid, fields",
        [
            ({"t_min": 0.1, "t_max": 1.0, "n_points": 3, "spacing": "log"},
             ("t_grid.*", "montecarlo.dt=0.01")),
            ({"t_min": 0.0, "t_max": 2.0, "n_points": 3},
             ("t_grid.t_max=2.0", "montecarlo.t_max=1.0")),
        ],
    )
    def test_oracle_grid_names_fields(self, tmp_path, t_grid, fields):
        cfg = {**self.BASE, "experiment": "oracle_compare", "t_grid": t_grid}
        with pytest.raises(ConfigError) as info:
            run(cfg, out_dir=tmp_path)
        assert all(field in str(info.value) for field in fields)
        assert not (tmp_path / "summary.json").exists()
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1

    def test_oracle_one_trajectory_refused(self, tmp_path, capsys):
        # One trajectory has no error bar to compare against.
        cfg = {**self.BASE, "experiment": "oracle_compare",
               "montecarlo": {**self.BASE["montecarlo"], "n_traj": 1}}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "montecarlo.n_traj=1 must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oracle_refusals_come_before_simulating(self, tmp_path, capsys, monkeypatch):
        # The OTOC comparison refuses D = 2 while it builds its cases.  J = 40
        # at D = 4 has |lambda|_inf = 10, so dt = 0.5 gives the step margin 20.
        def simulate(*args, **kwargs):
            raise AssertionError("a trajectory ran before the refusal")

        monkeypatch.setattr(cli, "estimate_observables", simulate)
        cfg = {**self.BASE, "experiment": "oracle_compare", "compare_otoc": True,
               "spectrum": {"sample": "gue", "dim": 2, "seed": 3}}
        with pytest.raises(ConfigError, match="^spectrum.dim=2; oracle_compare needs D >= 3"):
            run(cfg, out_dir=tmp_path / "out")
        cfg = {**self.BASE, "experiment": "oracle_compare", "J_list": [0.1, 40.0],
               "noise": {"ensemble": "gue"},
               "t_grid": {"t_min": 0.5, "t_max": 1.0, "n_points": 2},
               "montecarlo": {**self.BASE["montecarlo"], "dt": 0.5}}
        with pytest.raises(ConfigError, match=r"^montecarlo\.dt=0\.5 .*J_list entry 40\.0"):
            run(cfg, out_dir=tmp_path / "out")
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: montecarlo.dt=0.5 ")
        assert not (tmp_path / "out").exists()

    def test_oracle_two_levels_without_otoc(self, tmp_path):
        # Only the OTOC comparison needs D >= 3; the rest runs at D = 2.
        cfg = {**self.BASE, "experiment": "oracle_compare",
               "spectrum": {"sample": "gue", "dim": 2, "seed": 3}}
        assert "mc_sff_J1.json" in run(cfg, out_dir=tmp_path)["files"]

    def test_supported_settings_still_run(self, tmp_path):
        cfg = self.config("two_point_scan", noise=self.GOE, spectrum=self.MANY)
        assert run(cfg, out_dir=tmp_path)["pass"] is True


class TestUnreadSettings:
    """A key or flag that the chosen experiment does not read is refused by
    its path, not ignored."""

    @pytest.mark.parametrize(
        "experiment, override, field",
        [
            ("sff_scan", {"lanczos": {"n_max": "x"}}, "lanczos"),
            ("sff_scan", {"montecarlo": {"dt": -1}}, "montecarlo"),
            ("sff_scan", {"compare_otoc": "yes"}, "compare_otoc"),
            ("sff_scan", {"state_j": 99}, "state_j"),
            ("return_scan", {"state_i": 0}, "state_i"),
            ("transfer_scan", {"lanczos": {"dps": 30}}, "lanczos"),
            ("two_point_scan", {"compare_otoc": False}, "compare_otoc"),
            ("lanczos_scan", {"spectrum": {"sample": "gue", "dim": 4}}, "spectrum"),
            ("lanczos_scan", {"noise": {"ensemble": "gue"}}, "noise"),
            ("lanczos_scan", {"t_grid": {"t_min": 0.0, "t_max": 1.0, "n_points": 3}}, "t_grid"),
            ("lanczos_scan", {"operator_seed": 7}, "operator_seed"),
            ("lanczos_scan", {"state_i": 0}, "state_i"),
            ("sff_scan", {"noise": {"profile": {"type": "const", "beta": 0.5}}},
             "noise.profile.beta"),
        ],
    )
    def test_key_not_read_names_path(self, tmp_path, capsys, experiment, override, field):
        cfg = TestUnsupportedSettings.config(experiment, **override)
        message = f"^{re.escape(field)}=.* is not read by {experiment}$"
        with pytest.raises(ConfigError, match=message):
            run(cfg, out_dir=tmp_path / "out")
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {field}=" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [({}, "--seed=5 is not read: lanczos_scan reads no spectrum"),
         ({"t_grid": {"t_min": 0.0, "t_max": 1.0, "n_points": 3},
           "montecarlo": {"dt": 0.01, "t_max": 1.0, "n_traj": 4, "seed": 1}, "state_i": 0},
          "state_i=0 is not read by lanczos_scan")],
        ids=["plain", "extra-keys"],
    )
    def test_lanczos_scan_refuses_seed_flag(self, tmp_path, capsys, extra, message):
        # lanczos_scan reads no spectrum, so --seed would change nothing.
        cfg = {"experiment": "lanczos_scan", "J_list": [0.5], **extra}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out), "--seed", "5"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_union_config_refused(self, tmp_path, capsys):
        # Every key here is read by some experiment, and none by sff_scan.
        cfg = {**SFF_CONFIG, "lanczos": {"n_max": "x"}, "montecarlo": {"dt": -1},
               "compare_otoc": "yes", "state_j": 99}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "is not read by sff_scan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSummaryConfig:
    """summary.json's config: every key the experiment read, defaults filled in."""

    def test_sampled_spectrum_with_seed_flag(self, tmp_path):
        run(SFF_CONFIG, out_dir=tmp_path, seed=9)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["config"] == {
            "experiment": "sff_scan", "J_list": [0.0, 1.0], "operator_seed": 7,
            "spectrum.sample": "gue", "spectrum.dim": 8, "spectrum.seed": 9,
            "spectrum.n_realizations": 3, "spectrum.file": None,
            "noise.ensemble": "gue", "noise.profile.type": "const", "noise.profile.J": 1.0,
            "t_grid.t_min": 0.1, "t_grid.t_max": 2.0, "t_grid.n_points": 12,
            "t_grid.spacing": "log", "output.dir": ".", "output.formats": ["csv", "json"],
        }

    def test_lanczos_defaults(self, tmp_path):
        run({"experiment": "LANCZOS_SCAN", "J_list": [-0.0]}, out_dir=tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["config"] == {
            "experiment": "lanczos_scan", "J_list": [0.0], "lanczos.alpha": 1.0,
            "lanczos.n_max": 30, "lanczos.trace_ratio": 1.0, "lanczos.dps": 0,
            "output.dir": ".", "output.formats": ["csv", "json"],
        }
        assert math.copysign(1.0, doc["config"]["J_list"][0]) == 1.0

    def test_file_spectrum_and_state_pair(self, tmp_path, spec4):
        spec_path = tmp_path / "spec.json"
        spec4.save(spec_path)
        cfg = {"experiment": "transfer_scan", "spectrum": {"file": str(spec_path)},
               "t_grid": {"t_min": 0, "t_max": 1, "n_points": 3}, "J_list": [1],
               "output": {"formats": ["json"]}}
        run(cfg, out_dir=tmp_path / "out")
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["config"] == {
            "experiment": "transfer_scan", "J_list": [1.0], "operator_seed": 7,
            "state_i": 0, "state_j": 1, "spectrum.n_realizations": 1,
            "spectrum.file": str(spec_path), "noise.ensemble": "gue",
            "noise.profile.type": "const", "noise.profile.J": None, "t_grid.t_min": 0.0,
            "t_grid.t_max": 1.0, "t_grid.n_points": 3, "t_grid.spacing": "linear",
            "output.dir": ".", "output.formats": ["json"],
        }
        assert doc["files"] == ["transfer_J1.json"]


def _readers(cell):
    """The experiments a README "read by" cell names."""
    names = set(re.findall(r"`(\w+)`", cell))
    return set(EXPERIMENTS) - names if cell.startswith("all") else names


def test_readme_lists_every_config_key():
    # README's key table lists exactly CONFIG's keys, each with its readers.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.partition("## Config keys")[2].partition("\n## ")[0]
    rows = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in section.splitlines() if line.startswith("| `")]
    listed = {row[0].strip("`"): _readers(row[3]) for row in rows}
    assert len(listed) == len(rows)
    assert listed == {path: set(row[-1]) for path, row in CONFIG.items()}
