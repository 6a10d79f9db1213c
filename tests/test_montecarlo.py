import sys

import numpy as np
import pytest

from noisychaos import (
    Ensemble,
    GibbsProfile,
    MatrixProfile,
    NoiseModel,
    Spectrum,
    TrajectoryConfig,
    apply_channel,
    estimate_observables,
    estimate_otoc,
    estimate_sff,
    estimate_sff_squared,
    estimate_transfer,
    estimate_two_point,
    goe_constant,
    gue_constant,
    otoc_noiseless,
    otoc_observable,
    sample_gue_spectrum,
    sff_from_channel,
    sff_goe_const,
    sff_gue_const,
    sff_observable,
    sff_squared_observable,
    transfer_observable,
    transfer_probability,
    two_point_gue_const,
    two_point_observable,
    u1_goe_general,
    u1_gue_general,
)
from noisychaos import montecarlo
from noisychaos.montecarlo import (
    NOISE_BUDGET_BYTES,
    THETA_7,
    chunk_bounds,
    expm_hermitian_step,
    validate_step,
)

from conftest import random_hermitian
from oracles import evolve_trajectory

T_GRID = np.linspace(0.0, 1.0, 5)


def small_cfg(n_traj=300, dt=2e-3, seed=42):
    return TrajectoryConfig(dt=dt, t_max=1.0, n_traj=n_traj, seed=seed)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(dt=0.0, t_max=1.0, n_traj=10, seed=0)
        with pytest.raises(ValueError):
            TrajectoryConfig(dt=0.01, t_max=1.0, n_traj=0, seed=0)

    def test_step_bound(self):
        # dt * ||lambda||_inf * D > 1 exceeds the regularization's validity.
        with pytest.raises(ValueError):
            validate_step(gue_constant(100.0, 4), 0.05)
        validate_step(gue_constant(1.0, 4), 0.01)


class TestTrajectory:
    def test_noiseless_diagonal_evolution(self, spec4):
        cfg = TrajectoryConfig(dt=0.01, t_max=0.5, n_traj=1, seed=0)
        us = evolve_trajectory(spec4, gue_constant(0.0, 4), cfg,
                               np.random.default_rng(0))
        t_n = 0.5
        expected = np.diag(np.exp(-1j * spec4.energies * t_n))
        assert np.max(np.abs(us[-1] - expected)) < 1e-10
        assert np.max(np.abs(us[0] - np.eye(4))) == 0.0

    def test_unitarity(self, spec4):
        cfg = TrajectoryConfig(dt=0.005, t_max=0.5, n_traj=1, seed=3)
        us = evolve_trajectory(spec4, gue_constant(1.0, 4), cfg,
                               np.random.default_rng(3))
        for u in us[:: len(us) // 5]:
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10


def eigh_exp(x):
    """exp(-iX) of a Hermitian batch from its eigendecomposition."""
    evals, evecs = np.linalg.eigh(x)
    return (evecs * np.exp(-1j * evals)[..., None, :]) @ evecs.conj().swapaxes(-1, -2)


def hermitian_batch(rng, n, d, real, norms):
    """n random Hermitian (real symmetric if ``real``) D x D matrices with
    the given 1-norms."""
    x = rng.standard_normal((n, d, d))
    if not real:
        x = x + 1j * rng.standard_normal((n, d, d))
    x = x + x.conj().swapaxes(-1, -2)
    return x * (np.asarray(norms) / np.abs(x).sum(axis=-2).max(axis=-1))[:, None, None]


class TestPadeStep:
    NORMS = np.geomspace(0.01, 20.0, 24)

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("d", [2, 8, 16])
    def test_matches_eigh_and_unitary(self, real, d):
        # |X|_1 up to 20 = 2^4.4 THETA_7 squares up to 5 times.
        x = hermitian_batch(np.random.default_rng(d), self.NORMS.size, d, real, self.NORMS)
        assert np.ceil(np.log2(self.NORMS.max() / THETA_7)) == 5
        r = expm_hermitian_step(x)
        assert r.dtype == complex
        assert np.abs(r - eigh_exp(x)).max() <= 1e-13
        assert np.abs(r.conj().swapaxes(-1, -2) @ r - np.eye(d)).max() <= 1e-13

    @pytest.mark.parametrize("real", [False, True])
    def test_scaling_is_per_matrix(self, real):
        # Each matrix's bits are its own, whatever its batch-mates' norms.
        x = hermitian_batch(np.random.default_rng(5), 4, 6, real, [0.02, 0.5, 1.5, 20.0])
        batch = expm_hermitian_step(x)
        for k in range(4):
            alone = expm_hermitian_step(x[k:k + 1])
            assert np.array_equal(batch[k], alone[0])
            for big in (x[3:], x[2:3]):
                mixed = expm_hermitian_step(np.concatenate([x[k:k + 1], big]))
                assert np.array_equal(mixed[0], alone[0])

    @pytest.mark.parametrize("make", [gue_constant, goe_constant])
    def test_trajectory_matches_eigh_steps(self, spec4, make):
        # The same noise stream stepped by eigendecompositions.
        model = make(1.0, 4)
        cfg = TrajectoryConfig(dt=0.01, t_max=0.3, n_traj=1, seed=0)
        us = evolve_trajectory(spec4, model, cfg, np.random.default_rng(21))
        eta = montecarlo.sample_noise_sequence(model, cfg.dt, cfg.n_steps, np.random.default_rng(21))
        u = np.eye(4, dtype=complex)
        for n in range(cfg.n_steps):
            u = eigh_exp(cfg.dt * (np.diag(spec4.energies) + eta[n])) @ u
            assert np.abs(us[n + 1] - u).max() <= 1e-13

    @pytest.mark.parametrize("make, dtype", [(gue_constant, complex), (goe_constant, float)])
    def test_noise_buffers_follow_ensemble(self, spec4, monkeypatch, make, dtype):
        # GOE noise is real from the draw to the step: the lent buffers are
        # float64, half the bytes of complex ones.
        seen = []
        sample = montecarlo.sample_noise_sequence

        def recording(model, dt, n_steps, rng, out=None):
            seen.append(out.dtype)
            return sample(model, dt, n_steps, rng, out=out)

        monkeypatch.setattr(montecarlo, "sample_noise_sequence", recording)
        run = estimate_observables(spec4, make(1.0, 4), small_cfg(6), T_GRID,
                                   {"sff": sff_observable()}, threads=2)
        assert seen == [np.dtype(dtype)] * 6
        assert 0.0 < run.max_drift <= 1e-8


class TestEstimators:
    def test_sff_t0_exact(self, spec4):
        est = estimate_sff(spec4, gue_constant(1.0, 4), small_cfg(50), T_GRID)
        assert est.values[0] == 1.0
        assert est.stderr[0] == 0.0

    def test_sff_matches_gue_closed_form(self, spec4):
        est = estimate_sff(spec4, gue_constant(1.0, 4), small_cfg(), T_GRID)
        closed = sff_gue_const(spec4, 1.0, T_GRID).values
        resid = np.abs(est.values - closed)[1:]
        assert np.all(resid < 3.0 * est.stderr[1:] + 5e-3)

    def test_sff_matches_goe_closed_form(self, spec4):
        est = estimate_sff(spec4, goe_constant(1.0, 4), small_cfg(), T_GRID)
        closed = sff_goe_const(spec4, 1.0, T_GRID).values
        resid = np.abs(est.values - closed)[1:]
        assert np.all(resid < 3.0 * est.stderr[1:] + 5e-3)

    def test_two_point_t0(self, spec4, rng):
        o = random_hermitian(4, rng)
        est = estimate_two_point(spec4, gue_constant(1.0, 4), small_cfg(50), o, T_GRID)
        assert abs(est.values[0] - np.trace(o.conj().T @ o) / 4) < 1e-12

    def test_two_point_matches_closed_form(self, spec4, rng):
        o = random_hermitian(4, rng)
        est = estimate_two_point(spec4, gue_constant(1.0, 4), small_cfg(), o, T_GRID)
        closed = two_point_gue_const(spec4, 1.0, o, T_GRID).values
        resid = np.abs(est.values - closed)[1:]
        assert np.all(resid < 3.0 * est.stderr[1:] + 5e-2)

    def test_otoc_t0_and_noiseless(self, spec4, rng):
        a = random_hermitian(4, rng, traceless=True)
        b = random_hermitian(4, rng, traceless=True)
        est = estimate_otoc(spec4, gue_constant(0.0, 4), small_cfg(4), a, b, T_GRID)
        assert abs(est.values[0] - np.trace(a @ b @ a @ b) / 4) < 1e-12
        for k, t in enumerate(T_GRID):
            assert abs(est.values[k] - otoc_noiseless(spec4, t, a, b)) < 1e-10

    def test_transfer_matches_closed_form(self, spec4):
        model = gue_constant(1.0, 4)
        est = estimate_transfer(spec4, model, small_cfg(), 0, 1, T_GRID)
        closed = transfer_probability(spec4, model, 0, 1, T_GRID).values
        resid = np.abs(est.values - closed)[1:]
        assert np.all(resid < 3.0 * est.stderr[1:] + 5e-3)


class TestGeneralProfiles:
    # The general-lambda channels against the oracle: SFF and transfer
    # probability contracted from U1 at each time point.  The profiles are
    # far from flat: the constant channel of the same mean rate misses the
    # transfer estimates by 4-16 sigma.
    T = np.array([0.25, 0.5, 0.75, 1.0])
    LAMBDA = np.array([
        [0.1, 1.2, 0.0, 0.3],
        [1.2, 0.1, 0.05, 0.0],
        [0.0, 0.05, 0.6, 0.2],
        [0.3, 0.0, 0.2, 0.1],
    ])

    @pytest.mark.parametrize("ensemble, build", [
        (Ensemble.GUE, u1_gue_general), (Ensemble.GOE, u1_goe_general),
    ])
    @pytest.mark.parametrize("kind", ["gibbs", "matrix"])
    def test_sff_and_transfer_match_channel(self, spec4, ensemble, build, kind):
        profile = GibbsProfile(2.0, 1.0, spec4) if kind == "gibbs" else MatrixProfile(self.LAMBDA)
        model = NoiseModel(ensemble, profile, 4)
        run = estimate_observables(spec4, model, small_cfg(), self.T, {
            "sff": sff_observable(), "transfer": transfer_observable(0, 1),
        })
        channels = [build(spec4, model, t) for t in self.T]
        start = np.diag([1.0, 0.0, 0.0, 0.0])
        exact = {
            "sff": [sff_from_channel(ch) for ch in channels],
            "transfer": [apply_channel(ch, start)[1, 1].real for ch in channels],
        }
        for key, values in exact.items():
            series = run.series[key]
            assert np.all(np.abs(series.values - values) <= 4.0 * series.stderr), key


class TestReproducibility:
    def test_same_seed_bitwise(self, spec4):
        model = gue_constant(1.0, 4)
        a = estimate_sff(spec4, model, small_cfg(60), T_GRID, threads=1)
        b = estimate_sff(spec4, model, small_cfg(60), T_GRID, threads=1)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.stderr, b.stderr)

    def test_thread_count_invariant(self, spec4):
        model = goe_constant(0.8, 4)
        runs = [
            estimate_sff(spec4, model, small_cfg(60), T_GRID, threads=n)
            for n in (1, 4, 16)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0].values, other.values)
            assert np.array_equal(runs[0].stderr, other.stderr)

    def test_thread_count_invariant_uneven_chunks(self, spec4, rng):
        # 61 trajectories split unevenly over 2 and 3 threads.
        cfg = small_cfg(61)
        for threads in (2, 3):
            assert len(chunk_bounds(cfg.n_traj, cfg.n_steps, 4, threads)) > 1
        a = random_hermitian(4, rng, traceless=True)
        b = random_hermitian(4, rng, traceless=True)
        observables = {"sff": sff_observable(), "otoc": otoc_observable(a, b)}
        runs = [
            estimate_observables(spec4, gue_constant(1.0, 4), cfg, T_GRID, observables, threads=n)
            for n in (1, 2, 3)
        ]
        for other in runs[1:]:
            assert other.max_drift == runs[0].max_drift
            for key in observables:
                assert np.array_equal(runs[0].series[key].values, other.series[key].values)
                assert np.array_equal(runs[0].series[key].stderr, other.series[key].stderr)

    def test_noise_buffers_lent_one_chunk_at_a_time(self, spec4, monkeypatch):
        # A one-byte budget makes every trajectory its own chunk, so each of
        # the 4 threads' noise buffers serves 3 chunks in turn; a short switch
        # interval interleaves the threads as often as it can.  A buffer held
        # by two chunks at once would mix their noise.
        monkeypatch.setattr(montecarlo, "NOISE_BUDGET_BYTES", 1.0)
        cfg = small_cfg(12, dt=1e-2)
        model = gue_constant(1.0, 4)
        assert len(chunk_bounds(cfg.n_traj, cfg.n_steps, 4, 4)) == 12
        serial = estimate_sff(spec4, model, cfg, T_GRID, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = estimate_sff(spec4, model, cfg, T_GRID, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.values, threaded.values)
        assert np.array_equal(serial.stderr, threaded.stderr)

    def test_different_seed_differs(self, spec4):
        model = gue_constant(1.0, 4)
        a = estimate_sff(spec4, model, small_cfg(60, seed=1), T_GRID)
        b = estimate_sff(spec4, model, small_cfg(60, seed=2), T_GRID)
        assert not np.array_equal(a.values, b.values)


class TestSharedSimulation:
    def test_shared_equals_separate_estimates(self, spec4, rng):
        model = gue_constant(1.0, 4)
        cfg = small_cfg(40)
        o = random_hermitian(4, rng)
        a = random_hermitian(4, rng, traceless=True)
        b = random_hermitian(4, rng, traceless=True)
        shared = estimate_observables(spec4, model, cfg, T_GRID, {
            "sff": sff_observable(),
            "sff_squared": sff_squared_observable(),
            "two_point": two_point_observable(o),
            "otoc": otoc_observable(a, b),
            "transfer": transfer_observable(0, 1),
        }, threads=2)
        separate = {
            "sff": estimate_sff(spec4, model, cfg, T_GRID),
            "sff_squared": estimate_sff_squared(spec4, model, cfg, T_GRID),
            "two_point": estimate_two_point(spec4, model, cfg, o, T_GRID),
            "otoc": estimate_otoc(spec4, model, cfg, a, b, T_GRID),
            "transfer": estimate_transfer(spec4, model, cfg, 0, 1, T_GRID),
        }
        assert 0.0 < shared.max_drift <= 1e-8
        for key, series in separate.items():
            assert shared.series[key].name == series.name
            assert np.array_equal(shared.series[key].values, series.values)
            assert np.array_equal(shared.series[key].stderr, series.stderr)

    @pytest.mark.parametrize("n_traj, n_steps, dim, threads", [
        (61, 400, 4, 1), (61, 400, 4, 3), (256, 200, 8, 2), (128, 200, 16, 2),
        (1000, 1000, 32, 4), (3, 10, 4, 8),
    ])
    def test_chunk_bounds_balanced_within_budget(self, n_traj, n_steps, dim, threads):
        bounds = chunk_bounds(n_traj, n_steps, dim, threads)
        assert bounds[0][0] == 0 and bounds[-1][1] == n_traj
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        if n_traj >= threads:
            assert len(bounds) % threads == 0
        concurrent = min(threads, len(bounds)) * max(sizes) * n_steps * dim * dim * 16
        assert max(sizes) == 1 or concurrent <= NOISE_BUDGET_BYTES


class TestConvergence:
    def test_weak_first_order_in_dt(self):
        # Richardson-style check: the estimator bias vs the closed form
        # shrinks roughly linearly as dt is halved twice.
        spec = Spectrum(np.array([-0.5, 0.7]))
        model = gue_constant(1.0, 2)
        t = np.array([0.0, 1.0])
        closed = sff_gue_const(spec, 1.0, t).values[1]
        biases = []
        for dt in (0.04, 0.02, 0.01):
            cfg = TrajectoryConfig(dt=dt, t_max=1.0, n_traj=4000, seed=9)
            est = estimate_sff(spec, model, cfg, t)
            biases.append(abs(est.values[1] - closed))
        # noise floor ~ stderr; only require a clear downward trend
        assert biases[2] < biases[0]
