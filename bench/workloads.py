"""The benchmark's workloads, driven only through ``noisychaos.cli.run``
configs and names exported from ``noisychaos``.

Each workload builds its inputs from the benchmark seed in ``__init__``
(the set-up phase), runs one pass of its work in ``run_pass`` (the timed
phase, which returns the output values delivered), and checks the outputs
of the last pass in ``check``.  A check is ``(name, ok, detail)``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import noisychaos as nc
from noisychaos import cli

REFERENCE = Path(__file__).resolve().parent / "reference" / "analytic_grid.json"

# The cli's own oracle gate is 3 sigma per comparison.  Over the 8
# comparisons x 4 time points of one mc_oracle pass a correct program misses
# it at 10-20% of seeds: the transfer estimator |U_ji|^2 is skewed like a
# chi-square with one degree of freedom, and at 128 trajectories the
# t-statistic of such samples exceeds 5 with probability ~4e-4 and 6 with
# ~7e-5 per point.  A benchmark run on arbitrary seeds therefore counts a
# comparison as failed only past this gate and reports 3-sigma misses
# separately.
SIGMA_GATE = 6.0

SIZES = {
    "full": {
        "mc_oracle": {
            "configs": [("gue", 8, 256), ("goe", 16, 128)],
            "dt": 0.005,
            "t_max": 1.0,
        },
        "analytic_grid": {"dim": 256, "n_points": 200, "otoc_points": 20, "t_max": 20.0},
        "exact_channels": {
            "dims": (16, 64),
            "n_times": 25,
            "t_max": 5.0,
            "n_max": 30,
            "dps": 120,
            # J = alpha = 1 is an exact Krylov breakdown (b_1^2 = 1 - J^2).
            "J_list": [0.0] + [k / 8 for k in range(1, 17) if k != 8],
        },
    },
    "smoke": {
        "mc_oracle": {"configs": [("gue", 4, 16), ("goe", 4, 16)], "dt": 0.025, "t_max": 1.0},
        "analytic_grid": {"dim": 16, "n_points": 40, "otoc_points": 8, "t_max": 20.0},
        "exact_channels": {
            "dims": (4,),
            "n_times": 5,
            "t_max": 5.0,
            "n_max": 8,
            "dps": 30,
            "J_list": [0.0, 0.5, 1.5],
        },
    },
}


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1)[0])


def _read_series(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Times and complex values of a series the cli wrote as JSON."""
    with open(path) as fh:
        data = json.load(fh)
    return np.asarray(data["times"]), np.asarray(data["values_re"]) + 1j * np.asarray(data["values_im"])


def _json_outputs(summary: dict) -> list[str]:
    return [f for f in summary["files"] if f.endswith(".json")]


def _compare(series: dict, reference: dict, prefix: str) -> list[tuple[str, bool, str]]:
    """Each reference series against the one written, within a relative 1e-9
    of the reference's largest magnitude."""
    checks = []
    for name, files in reference.items():
        for f, ref in files.items():
            ref = np.asarray(ref["re"]) + 1j * np.asarray(ref["im"])
            got = series.get(name, {}).get(f, (None, None))[1]
            if got is None or got.shape != ref.shape:
                checks.append((f"{prefix}.{name}.{f}", False, "series missing or resized"))
                continue
            err = float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))
            checks.append((f"{prefix}.{name}.{f}", err <= 1e-9, f"relative error {err:.2e}"))
    return checks


class McOracle:
    """oracle_compare under GUE and GOE noise with threads=2."""

    name = "mc_oracle"

    def __init__(self, seed: int, size: str, work: Path):
        p = SIZES[size][self.name]
        ss = np.random.SeedSequence([seed, 1]).spawn(len(p["configs"]))
        self.runs = []
        for (ensemble, dim, n_traj), child in zip(p["configs"], ss):
            spec_ss, op_ss, mc_ss = child.spawn(3)
            sampler = nc.sample_gue_spectrum if ensemble == "gue" else nc.sample_goe_spectrum
            spec = sampler(dim, np.random.default_rng(spec_ss))
            spec_path = work / f"{self.name}_{ensemble}_spectrum.json"
            spec.save(spec_path)
            config = {
                "experiment": "oracle_compare",
                "spectrum": {"file": str(spec_path)},
                "noise": {"ensemble": ensemble, "profile": {"type": "const", "J": 1.0}},
                "t_grid": {"t_min": 0.25, "t_max": p["t_max"], "n_points": 4},
                "J_list": [1.0],
                "operator_seed": _seed_int(op_ss),
                "montecarlo": {
                    "dt": p["dt"],
                    "t_max": p["t_max"],
                    "n_traj": n_traj,
                    "seed": _seed_int(mc_ss),
                },
                "compare_otoc": ensemble == "gue",
            }
            # GUE runs sff, two-point, transfer, sff^2 and otoc; GOE the first three.
            expected = 5 if ensemble == "gue" else 3
            self.runs.append((f"{self.name}_{ensemble}", config, work / ensemble, expected))
        self.summaries: dict[str, dict] = {}

    def run_pass(self) -> int:
        points = 0
        for name, config, out, _ in self.runs:
            summary = cli.run(config, out_dir=out, threads=2)
            self.summaries[name] = summary
            points += len(_json_outputs(summary)) * config["t_grid"]["n_points"]
        return points

    def check(self) -> list[tuple[str, bool, str]]:
        checks = []
        for name, _, out, expected in self.runs:
            summary = self.summaries[name]
            comparisons = summary["comparisons"]
            checks.append((f"{name}.comparisons", len(comparisons) == expected,
                           f"{len(comparisons)} of {expected}"))
            for comp in comparisons:
                checks.append((
                    f"{name}.{comp['name']}",
                    comp["max_sigma"] <= SIGMA_GATE,
                    f"max_sigma={comp['max_sigma']:.3f} gate3={'pass' if comp['pass'] else 'miss'}",
                ))
            finite = all(np.all(np.isfinite(_read_series(out / f)[1])) for f in _json_outputs(summary))
            checks.append((f"{name}.finite", finite, "all mc series finite"))
        return checks

    def gate3_misses(self) -> int:
        return sum(not c["pass"] for s in self.summaries.values() for c in s["comparisons"])


class AnalyticGrid:
    """Closed-form scans of one GUE spectrum on a shared time grid; no MC."""

    name = "analytic_grid"
    J = 0.5

    def __init__(self, seed: int, size: str, work: Path):
        p = SIZES[size][self.name]
        self.size, self.seed, self.work = size, seed, work
        work.mkdir(parents=True, exist_ok=True)
        spec_ss, op_ss = np.random.SeedSequence([seed, 2]).spawn(2)
        self.spec = nc.sample_gue_spectrum(p["dim"], np.random.default_rng(spec_ss))
        spec_path = work / f"{self.name}_spectrum.json"
        self.spec.save(spec_path)
        grid = {"t_min": 0.0, "t_max": p["t_max"], "n_points": p["n_points"]}
        base = {
            "spectrum": {"file": str(spec_path)},
            "J_list": [self.J],
            "operator_seed": _seed_int(op_ss),
        }

        def task(experiment, ensemble="gue", n_points=p["n_points"]):
            return {
                **base,
                "experiment": experiment,
                "noise": {"ensemble": ensemble, "profile": {"type": "const", "J": self.J}},
                "t_grid": {**grid, "n_points": n_points},
            }

        self.tasks = {
            "sff_gue": task("sff_scan"),
            "sff_goe": task("sff_scan", "goe"),
            "two_point_gue": task("two_point_scan"),
            "two_point_goe": task("two_point_scan", "goe"),
            "otoc": task("otoc_scan", n_points=p["otoc_points"]),
            "sff_variance": task("sff_variance_scan"),
            "return": task("return_scan"),
        }
        self.summaries: dict[str, dict] = {}

    def run_pass(self) -> int:
        points = 0
        for name, config in self.tasks.items():
            summary = cli.run(config, out_dir=self.work / name)
            self.summaries[name] = summary
            points += len(_json_outputs(summary)) * config["t_grid"]["n_points"]
        return points

    def series(self) -> dict[str, dict[str, tuple[np.ndarray, np.ndarray]]]:
        """Times and values of every series the last pass wrote, by task and file."""
        return {
            name: {f: _read_series(self.work / name / f) for f in _json_outputs(summary)}
            for name, summary in self.summaries.items()
        }

    def check(self) -> list[tuple[str, bool, str]]:
        series = self.series()
        checks = []
        for ensemble, build in (("gue", nc.u1_gue_const), ("goe", nc.u1_goe_const)):
            (t, k), = series[f"sff_{ensemble}"].values()
            sample = np.unique(np.linspace(0, t.size - 1, 10).astype(int))
            checks.append((f"sff_{ensemble}.K0", abs(k[0] - 1.0) <= 1e-12, f"K(0)={k[0].real!r}"))
            err = max(
                abs(nc.sff_from_channel(build(self.spec, self.J, t[i])) - k[i]) for i in sample
            )
            checks.append((f"sff_{ensemble}.channel", err <= 1e-9, f"max |diff|={err:.2e}"))
        with open(REFERENCE) as fh:
            reference = json.load(fh)
        if self.seed == reference["seed"]:
            checks += _compare(series, reference["sizes"][self.size], f"reference.{self.size}")
        # The smoke-size reference is cheap to recompute, so every run, at any
        # seed, also compares against a recorded series.
        small = AnalyticGrid(reference["seed"], "smoke", self.work / "reference")
        small.run_pass()
        checks += _compare(small.series(), reference["sizes"]["smoke"], "reference.smoke")
        return checks


class ExactChannels:
    """General-lambda U1 channels (ODE path) and the mpmath Lanczos scan."""

    name = "exact_channels"
    J = 1.0
    beta = 0.5

    def __init__(self, seed: int, size: str, work: Path):
        p = SIZES[size][self.name]
        self.work = work
        self.times = np.linspace(0.0, p["t_max"], p["n_times"])
        self.cases = []
        for dim, child in zip(p["dims"], np.random.SeedSequence([seed, 3]).spawn(len(p["dims"]))):
            rng = np.random.default_rng(child)
            spec = nc.sample_gue_spectrum(dim, rng)
            x = rng.random((dim, dim))
            lam = self.J * (x + x.T) / (2.0 * dim)
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = x @ x.conj().T
            rho /= np.trace(rho)
            for ensemble in (nc.Ensemble.GUE, nc.Ensemble.GOE):
                models = {
                    "gibbs": nc.NoiseModel(ensemble, nc.GibbsProfile(self.J, self.beta, spec), dim),
                    "matrix": nc.NoiseModel(ensemble, nc.MatrixProfile(lam), dim),
                }
                self.cases.append((f"D{dim}_{ensemble.value}", ensemble, spec, models, rho))
        self.lanczos = {
            "experiment": "lanczos_scan",
            "J_list": p["J_list"],
            "lanczos": {"alpha": 1.0, "n_max": p["n_max"], "dps": p["dps"]},
        }
        self.channels: dict[str, list] = {}
        self.lanczos_summary: dict = {}

    @staticmethod
    def _channel_fns(ensemble):
        # Looked up on the package at call time, so the traced run sees them.
        if ensemble is nc.Ensemble.GUE:
            return nc.u1_gue_general, nc.u1_gue_const
        return nc.u1_goe_general, nc.u1_goe_const

    def run_pass(self) -> int:
        self.channels = {}
        for name, ensemble, spec, models, _ in self.cases:
            general, const = self._channel_fns(ensemble)
            for profile, model in models.items():
                self.channels[f"{name}_{profile}"] = [general(spec, model, t) for t in self.times]
            self.channels[f"{name}_const"] = [const(spec, self.J, t) for t in self.times]
        self.lanczos_summary = cli.run(self.lanczos, out_dir=self.work / "lanczos")
        n_bn = len(_json_outputs(self.lanczos_summary)) * self.lanczos["lanczos"]["n_max"]
        return sum(len(chs) for chs in self.channels.values()) + n_bn

    def check(self) -> list[tuple[str, bool, str]]:
        checks = []
        for name, ensemble, spec, _, rho in self.cases:
            for profile in ("gibbs", "matrix", "const"):
                err = max(
                    abs(np.trace(nc.apply_channel(ch, rho)) - 1.0)
                    for ch in self.channels[f"{name}_{profile}"]
                )
                checks.append((f"{name}_{profile}.trace", err <= 1e-10, f"max |Tr - 1|={err:.2e}"))
            general, const = self._channel_fns(ensemble)
            flat = nc.NoiseModel(ensemble, nc.GibbsProfile(self.J, 0.0, spec), spec.dim)
            err = 0.0
            for t in self.times[:: max(1, self.times.size // 3)]:
                a, b = general(spec, flat, t), const(spec, self.J, t)
                for coeff in ("coeff_A", "coeff_B", "coeff_G"):
                    err = max(err, float(np.max(np.abs(getattr(a, coeff) - getattr(b, coeff)))))
            checks.append((f"{name}_gibbs_beta0.const", err <= 1e-9, f"max |diff|={err:.2e}"))
        out = self.work / "lanczos"
        b0 = _read_series(out / "lanczos_J0.json")[1].real
        n = np.arange(1, b0.size + 1)
        err = float(np.max(np.abs(b0 - n) / n))
        checks.append(("lanczos.J0", err <= 1e-9, f"max |b_n/n - 1|={err:.2e}"))
        files = _json_outputs(self.lanczos_summary)
        finite = len(files) == len(self.lanczos["J_list"]) and all(
            np.all(np.isfinite(_read_series(out / f)[1])) for f in files
        )
        checks.append(("lanczos.finite", finite, f"{len(files)} series"))
        return checks


WORKLOADS = {w.name: w for w in (McOracle, AnalyticGrid, ExactChannels)}
