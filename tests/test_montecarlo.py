import math
import re
import sys
import tracemalloc

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
    otoc,
    otoc_observable,
    sample_gue_spectrum,
    sff,
    sff_from_channel,
    sff_goe_const,
    sff_gue_const,
    sff_observable,
    sff_squared_observable,
    transfer_observable,
    transfer_probability,
    two_point,
    two_point_gue_const,
    two_point_observable,
    u1_goe_general,
    u1_gue_general,
)
from noisychaos import montecarlo
from noisychaos.montecarlo import (
    THETA_15,
    WORKSPACE_BUDGET_BYTES,
    chunk_bounds,
    expm_hermitian_step,
    validate_step,
    workspace_bytes,
)
from noisychaos.noise import noise_width, sample_noise_sequence

from conftest import random_hermitian
from oracles import evolve_trajectory, noise_rows, reference_estimates, scheme_superoperator

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

    def test_grid_off_the_lattice_refused(self):
        # 40.0003 lies 0.3 steps off the dt = 0.001 lattice; a tolerance
        # relative to t would take it as step 40000.
        with pytest.raises(ValueError, match="integer multiples of dt"):
            montecarlo.grid_steps([0.0, 40.0003], 0.001)
        assert np.array_equal(montecarlo.grid_steps(np.linspace(0.0, 0.97, 98), 0.01), np.arange(98))

    @pytest.mark.parametrize("t_grid", [
        [0.0, 0.05, 0.05], [0.0, 0.05, 0.04], [0.0, 0.05, 0.05 + 1e-12], [-0.01, 0.05],
        [], [[0.0, 0.05]],
    ])
    def test_grid_steps_must_increase(self, spec4, t_grid):
        # A repeated step (of equal times or not), an unordered one or a
        # negative one would leave a record slot unwritten: [0, 0.05, 0.05]
        # returned an SFF of 0 at t = 0.05.  An empty grid, or one not 1-d,
        # is refused by its shape, not by numpy's reductions.
        shape = np.shape(t_grid)
        match = "strictly increasing steps" if shape[0] and len(shape) == 1 else re.escape(f"shape {shape}")
        with pytest.raises(ValueError, match=match):
            montecarlo.grid_steps(t_grid, 0.01)
        with pytest.raises(ValueError, match=match):
            estimate_observables(spec4, gue_constant(1.0, 4), small_cfg(4, dt=0.01), t_grid,
                                 {"sff": sff_observable()})


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
    # The class keeps its name, from the Pade step the Taylor step replaced,
    # so that the suite's test ids stay stable.
    NORMS = np.geomspace(0.01, 20.0, 24)

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("d", [2, 8, 16])
    def test_matches_eigh_and_unitary(self, real, d):
        # |X|_1 up to 20 = 2^4.9 THETA_15 squares up to 5 times.
        x = hermitian_batch(np.random.default_rng(d), self.NORMS.size, d, real, self.NORMS)
        assert np.ceil(np.log2(self.NORMS.max() / THETA_15)) == 5
        r = expm_hermitian_step(x)
        assert r.dtype == float and r.shape == (self.NORMS.size, 2 * d, 2 * d)
        # r = [[Re, -Im], [Im, Re]], with its block structure exact.
        assert np.array_equal(r[..., :d, :d], r[..., d:, d:])
        assert np.array_equal(r[..., d:, :d], -r[..., :d, d:])
        e = r[..., :d, :d] + 1j * r[..., d:, :d]
        assert np.abs(e - eigh_exp(x)).max() <= 1e-13
        assert np.abs(e.conj().swapaxes(-1, -2) @ e - np.eye(d)).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 8, 16])
    def test_complex_branch_matches_real_branch(self, d):
        # A real X given as complex takes the 2D x 2D branch.
        x = hermitian_batch(np.random.default_rng(d + 1), self.NORMS.size, d, True, self.NORMS)
        assert np.abs(expm_hermitian_step(x + 0j) - expm_hermitian_step(x)).max() <= 1e-14

    def test_theta_bounds_taylor_remainder(self):
        assert THETA_15**16 / math.factorial(16) <= 2.0**-53

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
        eta = montecarlo.noise_slices(model, noise_rows(model, cfg.dt, cfg.n_steps, np.random.default_rng(21)))
        u = np.eye(4, dtype=complex)
        for n in range(cfg.n_steps):
            u = eigh_exp(cfg.dt * (np.diag(spec4.energies) + eta[n])) @ u
            assert np.abs(us[n + 1] - u).max() <= 1e-13

    @pytest.mark.parametrize("make, width", [(gue_constant, 16), (goe_constant, 10)])
    def test_noise_buffers_follow_ensemble(self, spec4, monkeypatch, make, width):
        # The noise is drawn a block of 7 steps at a time for each chunk's
        # batch, as float64 rows of a slice's independent real entries: the
        # D^2 = 16 of a GUE row as its x half, upper triangle and diagonal
        # (10), then its y half (6), per block; the D(D+1)/2 = 10 of a GOE
        # row, its x half, per block.  6 trajectories on 2 threads run as 2
        # chunks of 3, of 500 steps each.
        seen = []
        sample = montecarlo.sample_noise_sequence

        def recording(model, dt, n_steps, gens, out, scratch):
            seen.append((len(gens), out.shape, out.dtype))
            return sample(model, dt, n_steps, gens, out, scratch)

        monkeypatch.setattr(montecarlo, "sample_noise_sequence", recording)
        monkeypatch.setattr(montecarlo, "NOISE_BLOCK_STEPS", 7)
        run = estimate_observables(spec4, make(1.0, 4), small_cfg(6), T_GRID,
                                   {"sff": sff_observable()}, threads=2)
        blocks = [7] * 71 + [3]
        # the widths of the halves: x, then under GUE y
        halves = [(width + 4) // 2, (width - 4) // 2] if make is gue_constant else [width]
        per_chunk = [(3, (3, n, half), np.dtype(float)) for half in halves for n in blocks]
        assert sorted(seen, key=str) == sorted(per_chunk * 2, key=str)
        assert 0.0 < run.max_drift <= 1e-8

    @pytest.mark.parametrize("block", [1, 4, 5, 7, 30])
    @pytest.mark.parametrize("n_steps", [1, 20])
    @pytest.mark.parametrize("make", [gue_constant, goe_constant])
    def test_block_rows_equal_one_draw(self, monkeypatch, make, n_steps, block):
        # The rows each step reads, drawn a block at a time for a batch,
        # are those of one sample_noise_sequence call per trajectory, bit
        # for bit: blocks that divide n_steps, that do not, and that are
        # longer than it.
        monkeypatch.setattr(montecarlo, "NOISE_BLOCK_STEPS", block)
        model = make(1.3, 5)
        work = montecarlo._workspace(montecarlo._workspace_layout(model, n_steps), 3)
        for a in vars(work).values():
            a.fill(np.nan)
        # One generator per trajectory for each half of a row, all of a
        # trajectory's from the same seed; the oracle draws from one.
        halves = 2 if make is gue_constant else 1
        gens = [[np.random.default_rng(s) for s in (4, 5, 6)] for _ in range(halves)]
        rows = [r.copy() for r in montecarlo._noise_rows(model, 0.01, n_steps, gens, work)]
        assert len(rows) == n_steps
        expected = [noise_rows(model, 0.01, n_steps, np.random.default_rng(s)) for s in (4, 5, 6)]
        assert np.array_equal(np.stack(rows, axis=1), np.stack(expected))


class TestEstimators:
    def test_sff_t0_exact(self, spec4):
        est = estimate_sff(spec4, gue_constant(1.0, 4), small_cfg(50), T_GRID)
        assert est.values[0] == 1.0
        assert est.stderr[0] == 0.0

    def test_sff_matches_gue_closed_form(self, spec4):
        est = estimate_sff(spec4, gue_constant(1.0, 4), small_cfg(), T_GRID)
        closed = sff_gue_const(spec4, 1.0, T_GRID)
        resid = np.abs(est.values - closed)[1:]
        assert np.all(resid < 3.0 * est.stderr[1:] + 5e-3)

    def test_sff_matches_goe_closed_form(self, spec4):
        est = estimate_sff(spec4, goe_constant(1.0, 4), small_cfg(), T_GRID)
        closed = sff_goe_const(spec4, 1.0, T_GRID)
        resid = np.abs(est.values - closed)[1:]
        assert np.all(resid < 3.0 * est.stderr[1:] + 5e-3)

    def test_two_point_t0(self, spec4, rng):
        o = random_hermitian(4, rng)
        est = estimate_two_point(spec4, gue_constant(1.0, 4), small_cfg(50), o, T_GRID)
        assert abs(est.values[0] - np.trace(o.conj().T @ o) / 4) < 1e-12

    def test_two_point_matches_closed_form(self, spec4, rng):
        o = random_hermitian(4, rng)
        est = estimate_two_point(spec4, gue_constant(1.0, 4), small_cfg(), o, T_GRID)
        closed = two_point_gue_const(spec4, 1.0, o, T_GRID)
        resid = np.abs(est.values - closed)[1:]
        assert np.all(resid < 3.0 * est.stderr[1:] + 5e-2)

    def test_otoc_t0_and_noiseless(self, spec4, rng):
        a = random_hermitian(4, rng, traceless=True)
        b = random_hermitian(4, rng, traceless=True)
        est = estimate_otoc(spec4, gue_constant(0.0, 4), small_cfg(4), a, b, T_GRID)
        assert abs(est.values[0] - np.trace(a @ b @ a @ b) / 4) < 1e-12
        for k, t in enumerate(T_GRID):
            assert abs(est.values[k] - otoc(spec4, 0.0, t, a, b)) < 1e-10

    def test_transfer_matches_closed_form(self, spec4):
        model = gue_constant(1.0, 4)
        est = estimate_transfer(spec4, model, small_cfg(), 0, 1, T_GRID)
        closed = transfer_probability(spec4, model, 0, 1, T_GRID)
        resid = np.abs(est.values - closed)[1:]
        assert np.all(resid < 3.0 * est.stderr[1:] + 5e-3)


class TestGeneralProfiles:
    # The general-lambda channels against the oracle: SFF, two-point
    # function and transfer probability, both contracted from U1 at each
    # time point and from the grid forms.  The profiles are far from flat:
    # the constant channel of the same mean rate misses the transfer
    # estimates by 4-16 sigma.
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
    def test_observables_match_channel_and_grid_forms(self, spec4, ensemble, build, kind):
        profile = GibbsProfile(2.0, 1.0, spec4) if kind == "gibbs" else MatrixProfile(self.LAMBDA)
        model = NoiseModel(ensemble, profile, 4)
        o = random_hermitian(4, np.random.default_rng(5))
        run = estimate_observables(spec4, model, small_cfg(), self.T, {
            "sff": sff_observable(), "two_point": two_point_observable(o),
            "transfer": transfer_observable(0, 1),
        })
        channels = [build(spec4, model, t) for t in self.T]
        start = np.diag([1.0, 0.0, 0.0, 0.0])
        per_point = {
            "sff": [sff_from_channel(ch) for ch in channels],
            "two_point": [np.trace(o @ apply_channel(ch, o)) / 4 for ch in channels],
            "transfer": [apply_channel(ch, start)[1, 1].real for ch in channels],
        }
        grid = {
            "sff": sff(spec4, model, self.T),
            "two_point": two_point(spec4, model, o, self.T),
            "transfer": transfer_probability(spec4, model, 0, 1, self.T),
        }
        for exact in (per_point, grid):
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

    @pytest.mark.parametrize("threads", [0, -2])
    def test_bad_thread_count_refused(self, spec4, threads):
        with pytest.raises(ValueError, match="threads"):
            estimate_sff(spec4, gue_constant(1.0, 4), small_cfg(4), T_GRID, threads=threads)

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
        traj_bytes = workspace_bytes(gue_constant(1.0, 4), cfg.n_steps)
        for threads in (2, 3):
            assert len(chunk_bounds(cfg.n_traj, traj_bytes, threads)) > 1
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

    def test_each_worker_reuses_its_noise_buffer(self, spec4, monkeypatch):
        # A one-byte budget makes every trajectory its own chunk, so each of
        # the 4 workers reuses its own workspace for 3 one-trajectory
        # chunks; a short switch interval interleaves the workers as often as
        # it can.  A workspace two workers shared would mix their noise.
        monkeypatch.setattr(montecarlo, "WORKSPACE_BUDGET_BYTES", 1.0)
        cfg = small_cfg(12, dt=1e-2)
        model = gue_constant(1.0, 4)
        traj_bytes = workspace_bytes(model, cfg.n_steps)
        assert len(chunk_bounds(cfg.n_traj, traj_bytes, 4)) == 12
        serial = estimate_sff(spec4, model, cfg, T_GRID, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = estimate_sff(spec4, model, cfg, T_GRID, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.values, threaded.values)
        assert np.array_equal(serial.stderr, threaded.stderr)

    @pytest.mark.parametrize("make", [gue_constant, goe_constant])
    def test_trajectory_k_takes_child_k_of_seed(self, spec4, make):
        # Each worker seeds its own chunk; trajectory k still draws from
        # child k of SeedSequence(seed).spawn(n_traj).
        model, cfg = make(1.0, 4), small_cfg(3, dt=1e-2, seed=17)
        steps = montecarlo.grid_steps(T_GRID, cfg.dt)
        run = estimate_observables(spec4, model, cfg, T_GRID, {"sff": sff_observable()})
        per_traj = [
            sff_observable()(evolve_trajectory(spec4, model, cfg, np.random.default_rng(c))[None, steps])
            for c in np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj)
        ]
        # The estimate averages complex slots; a real mean rounds differently.
        mean = np.concatenate(per_traj).astype(complex).mean(axis=0)
        assert np.array_equal(run.series["sff"].values, mean)

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
            assert np.array_equal(shared.series[key].values, series.values)
            assert np.array_equal(shared.series[key].stderr, series.stderr)

    # widths: GUE D = 4, 8, 32 (D^2) and GOE D = 16 (D(D+1)/2)
    @pytest.mark.parametrize("n_traj, n_steps, width, threads", [
        (61, 400, 16, 1), (61, 400, 16, 3), (256, 200, 64, 2), (128, 200, 136, 2),
        (1000, 1000, 1024, 4), (3, 10, 16, 8),
    ])
    def test_chunk_bounds_balanced_within_budget(self, n_traj, n_steps, width, threads):
        model = {16: gue_constant(1.0, 4), 64: gue_constant(1.0, 8), 136: goe_constant(1.0, 16),
                 1024: gue_constant(1.0, 32)}[width]
        assert noise_width(model) == width
        traj_bytes = workspace_bytes(model, n_steps)
        bounds = chunk_bounds(n_traj, traj_bytes, threads)
        assert bounds[0][0] == 0 and bounds[-1][1] == n_traj
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        if n_traj >= threads:
            assert len(bounds) % threads == 0
        concurrent = min(threads, len(bounds)) * max(sizes) * traj_bytes
        assert max(sizes) == 1 or concurrent <= WORKSPACE_BUDGET_BYTES

    @pytest.mark.parametrize("make, dim, n_traj, n_steps, n_record", [
        (gue_constant, 3, 17, 97, 4), (gue_constant, 8, 256, 200, 4), (goe_constant, 5, 9, 50, 1),
        (goe_constant, 16, 128, 200, 4),
    ])
    def test_workspace_bytes_count_every_array(self, make, dim, n_traj, n_steps, n_record):
        # The budget counts all a workspace holds, exactly: a block's rows
        # and the scratch of their draws, a step's rows, the step's arrays,
        # U, the next U and one recorded U, however many steps are recorded
        # or run.  Each array of a chunk is a view of the array the worker
        # allocated for its largest chunk (its base), C-contiguous, or in
        # the power-major Taylor arrays C-contiguous in each power's slab,
        # and no two overlap.  The step loop hands U at each of n_record
        # steps to its observer in that one recorded U.
        model = make(1.0, dim)
        traj_bytes = workspace_bytes(model, n_steps)
        d, k, block = dim, noise_width(model), min(montecarlo.NOISE_BLOCK_STEPS, n_steps)
        gue = make is gue_constant
        noise = block * k + block * d * d + k
        # X, |X| and its column sums, the Taylor arrays, a block column, the result
        step = (2 + 1 + 8 + 8) * d * d if gue else (1 + 1 + 4 + 1 + 4 + 2) * d * d
        step += d + (2 + 4) * d * d
        floats = noise + step + 2 * 2 * d * d + 2 * d * d
        assert traj_bytes == floats * 8
        space = montecarlo._workspace(montecarlo._workspace_layout(model, n_steps), n_traj)
        assert sum(a.nbytes for a in vars(space).values()) == n_traj * traj_bytes
        assert space.block.shape == (n_traj, block * k)
        powers = {"m", "b"} if gue else {"y", "p", "q"}
        for batch in (n_traj, n_traj - 1):
            work = montecarlo._chunk(space, batch)
            assert vars(work).keys() == vars(space).keys()
            for name, a in vars(work).items():
                assert a.base is getattr(space, name)
                if name in powers:
                    assert a.shape[1] == batch and all(slab.flags.c_contiguous for slab in a)
                else:
                    assert a.flags.c_contiguous and a.shape[0] == batch
            arrays = list(vars(work).values())
            assert not any(np.may_share_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
            assert work.record.shape == (batch, d, d) and work.record.dtype == complex
        seen = []
        gens = [[np.random.default_rng(s) for s in range(n_traj - 1)] for _ in range(2 if gue else 1)]
        record_steps = np.arange(n_steps - n_record + 1, n_steps + 1)
        montecarlo._evolve_recorded(np.linspace(-1.0, 1.0, d), model, 0.01, record_steps, gens, work,
                                    lambda k, u: seen.append((k, u)))
        assert [k for k, _ in seen] == list(range(n_record))
        assert all(u is work.record for _, u in seen)

    def test_bench_chunking_unchanged(self):
        # The oracle configs the benchmark runs on 2 threads: GUE D = 8 with
        # 256 trajectories and GOE D = 16 with 128, 200 steps, in two chunks
        # each.
        for make, dim, n_traj, size in ((gue_constant, 8, 256, 128), (goe_constant, 16, 128, 64)):
            bounds = chunk_bounds(n_traj, workspace_bytes(make(1.0, dim), 200), 2)
            assert [hi - lo for lo, hi in bounds] == [size, size]

    @pytest.mark.parametrize("make", [gue_constant, goe_constant])
    def test_workspace_independent_of_horizon(self, make):
        # Each block draws its own steps' x and y halves, so nothing in a
        # workspace grows with the number of steps; the x halves of every
        # step that GUE kept took 57.6 KB a trajectory at 200 steps.
        model = make(1.0, 8)
        assert workspace_bytes(model, 50) == workspace_bytes(model, 4000)

    def test_long_horizon_chunking(self):
        # 256 GUE trajectories of D = 8 and 4000 steps on 2 threads run as
        # one chunk per thread, as at 200 steps; keeping every step's x
        # halves cut them into 20.
        bounds = chunk_bounds(256, workspace_bytes(gue_constant(1.0, 8), 4000), 2)
        assert bounds == [(0, 128), (128, 256)]

    def test_long_gue_run_equals_up_front_reference(self, spec4, monkeypatch):
        # 250 steps in blocks of 7: the y generators draw past the x draws
        # of all 250 steps in pieces of their chunk's draw scratch, 3 to 6
        # of them with a ragged last one, and every block's x and y halves,
        # the last block of 5 steps, then give the estimates of one up-front
        # draw per trajectory, bit for bit, at every thread count.
        monkeypatch.setattr(montecarlo, "NOISE_BLOCK_STEPS", 7)
        model = gue_constant(1.0, 4)
        cfg = TrajectoryConfig(dt=0.01, t_max=2.5, n_traj=13, seed=4)
        t = np.array([0.07, 1.0, 2.5])
        observables = {"sff": sff_observable(), "transfer": transfer_observable(1, 2)}
        expected = reference_estimates(spec4, model, cfg, t, observables)
        for threads in (1, 2, 3):
            run = estimate_observables(spec4, model, cfg, t, observables, threads=threads)
            for key, (values, stderr) in expected.items():
                assert np.array_equal(run.series[key].values, values)
                assert np.array_equal(run.series[key].stderr, stderr)

    @pytest.mark.parametrize("threads, chunks", [(1, 1), (2, 2), (3, 3)])
    def test_run_records_chunks_and_workspace(self, spec4, threads, chunks):
        # 37 trajectories on 1, 2 and 3 threads: one chunk per thread, and
        # each worker's workspace is sized for its largest chunk.
        model = gue_constant(1.0, 4)
        run = estimate_observables(spec4, model, small_cfg(37, dt=1e-2), T_GRID,
                                   {"sff": sff_observable()}, threads=threads)
        assert run.chunks == chunks
        assert run.workspace_bytes == -(-37 // chunks) * workspace_bytes(model, 100)

    def test_single_thread_buffer_below_mmap_cap(self):
        # glibc maps an allocation above 32 MiB afresh on every call and
        # unmaps it on free, so such a buffer faults in every page each call
        # (GOE D = 16, 512 trajectories of 200 steps: 43 MB in one chunk).
        traj_bytes = workspace_bytes(goe_constant(1.0, 16), 200)
        sizes = [hi - lo for lo, hi in chunk_bounds(512, traj_bytes, 1)]
        assert 512 * traj_bytes > 2**25
        assert max(sizes) * traj_bytes < 2**25

    @pytest.mark.parametrize("make", [gue_constant, goe_constant])
    @pytest.mark.parametrize("block", [6, 25])
    def test_estimates_equal_up_front_reference(self, spec4, rng, monkeypatch, make, block):
        # Noise drawn a block at a time, in a workspace per worker, and
        # observables evaluated on each chunk at each recorded step give the
        # estimates of streams drawn in one piece, stepped in one batch and
        # reduced over all recorded U at once, bit for bit, at every thread
        # count; 37 steps of dt = 0.01 to 0.37 leave a ragged last block,
        # and 2 and 3 threads chunks of 19 and 13 trajectories.
        monkeypatch.setattr(montecarlo, "NOISE_BLOCK_STEPS", block)
        model = make(1.0, 4)
        cfg = TrajectoryConfig(dt=0.01, t_max=0.37, n_traj=37, seed=8)
        t = np.array([0.0, 0.12, 0.25, 0.37])
        o = random_hermitian(4, rng)
        a = random_hermitian(4, rng, traceless=True)
        b = random_hermitian(4, rng, traceless=True)
        observables = {"sff": sff_observable(), "two_point": two_point_observable(o),
                       "otoc": otoc_observable(a, b), "transfer": transfer_observable(0, 1)}
        expected = reference_estimates(spec4, model, cfg, t, observables)
        for threads in (1, 2, 3):
            run = estimate_observables(spec4, model, cfg, t, observables, threads=threads)
            for key, (values, stderr) in expected.items():
                assert np.array_equal(run.series[key].values, values)
                assert np.array_equal(run.series[key].stderr, stderr)

    def test_traced_peak_of_oracle_call(self, monkeypatch):
        # GOE D = 16, 128 trajectories of 200 steps on 2 threads: the two
        # workspaces (10.7 MB) and the values, 11.9 MB; drawing each chunk's
        # noise up front took 34 MB.
        spec = sample_gue_spectrum(16, np.random.default_rng(1))
        cfg = TrajectoryConfig(dt=0.005, t_max=1.0, n_traj=128, seed=3)
        t = np.array([0.25, 0.5, 0.75, 1.0])
        tracemalloc.start()
        try:
            estimate_observables(spec, goe_constant(1.0, 16), cfg, t, {"sff": sff_observable()}, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_traced_peak_of_dense_grid(self, monkeypatch):
        # The same call recording U at all 200 steps: the workspace holds
        # one recorded U per trajectory whatever the grid, so the chunks are
        # those of the 4-point grid and the peak stays under the same bound.
        # Stacking U for the whole grid cut 8 chunks of 16 and peaked at
        # 29.75 MB.
        spec = sample_gue_spectrum(16, np.random.default_rng(1))
        cfg = TrajectoryConfig(dt=0.005, t_max=1.0, n_traj=128, seed=3)
        model = goe_constant(1.0, 16)
        chunk, sizes = montecarlo._chunk, []

        def spy(w, n):
            sizes.append(n)
            return chunk(w, n)

        monkeypatch.setattr(montecarlo, "_chunk", spy)
        estimate_observables(spec, model, cfg, [0.25, 0.5, 0.75, 1.0], {"sff": sff_observable()}, threads=2)
        assert sizes == [64, 64]
        sizes.clear()
        tracemalloc.start()
        try:
            estimate_observables(spec, model, cfg, cfg.dt * np.arange(1, cfg.n_steps + 1),
                                 {"sff": sff_observable()}, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [64, 64]
        assert peak <= 16e6, f"traced peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("make", [gue_constant, goe_constant])
    def test_step_loop_does_not_allocate(self, make):
        # Once a worker's workspace is allocated, a chunk's noise blocks and
        # steps allocate no array of the batch's size, only numpy's
        # iteration buffers of at most 64 KiB an operand: at 256
        # trajectories of D = 8, in a workspace sized for 257, the traced
        # peak of 60 steps stays below half a (256, 2D, 2D) block form,
        # 256 KiB.
        model, batch = make(1.0, 8), 256
        space = montecarlo._workspace(montecarlo._workspace_layout(model, 60), batch + 1)
        work = montecarlo._chunk(space, batch)
        gens = [[np.random.default_rng(s) for s in range(batch)]
                for _ in range(2 if make is gue_constant else 1)]
        h0 = np.diag(np.linspace(-1.0, 1.0, 8)).astype(work.x.dtype)
        work.u[:] = np.eye(16, 8)
        tracemalloc.start()
        try:
            for rows in montecarlo._noise_rows(model, 0.01, 60, gens, work):
                montecarlo._step(model, h0, 0.01, rows, work.u, work, out=work.u_next)
                work.u[:] = work.u_next
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < batch * 16 * 16 * 8 / 2, f"traced peak {peak} B"
        u = work.u[:, :8] + 1j * work.u[:, 8:]
        assert np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(8)).max() <= 1e-12


class TestConvergence:
    def test_weak_first_order_in_dt(self):
        # Richardson-style check: the estimator bias vs the closed form
        # shrinks roughly linearly as dt is halved twice.
        spec = Spectrum(np.array([-0.5, 0.7]))
        model = gue_constant(1.0, 2)
        t = np.array([0.0, 1.0])
        closed = sff_gue_const(spec, 1.0, t)[1]
        biases = []
        for dt in (0.04, 0.02, 0.01):
            cfg = TrajectoryConfig(dt=dt, t_max=1.0, n_traj=4000, seed=9)
            est = estimate_sff(spec, model, cfg, t)
            biases.append(abs(est.values[1] - closed))
        # noise floor ~ stderr; only require a clear downward trend
        assert biases[2] < biases[0]

    def test_weak_order_richardson(self):
        # At dt J = 1 the first-order bias of the SFF at t = 0.5 is about
        # -8 sigma; halving dt halves it, so the Richardson combination
        # 2 b(dt/2) - b(dt) cancels it to within the noise.  A step whose
        # bias is absent or does not scale as dt fails one or the other.
        # The two step sizes use independent seeds, so their errors add.
        spec = Spectrum(np.array([-0.5, 0.7]))
        model = gue_constant(4.0, 2)
        t = np.array([0.0, 0.5])
        closed = sff_gue_const(spec, 4.0, t)[1]
        biases = []
        for dt, seed in ((0.25, 1), (0.125, 2)):
            cfg = TrajectoryConfig(dt=dt, t_max=0.5, n_traj=12000, seed=seed)
            est = estimate_sff(spec, model, cfg, t, threads=2)
            biases.append((est.values[1].real - closed, est.stderr[1]))
        (b, s), (b_half, s_half) = biases
        assert b < -4.0 * s
        assert abs(2.0 * b_half - b) <= 3.0 * np.hypot(2.0 * s_half, s)


# The scheme oracle's cases: the spectrum and noise of
# test_weak_first_order_in_dt under GUE and GOE noise at D = 2, and GOE at
# D = 3, with the Gauss-Hermite nodes per noise entry that its superoperator
# takes.
SCHEME_CASES = {
    "gue-2": (np.array([-0.5, 0.7]), gue_constant, 6),
    "goe-2": (np.array([-0.5, 0.7]), goe_constant, 6),
    "goe-3": (np.array([-0.6, 0.1, 0.8]), goe_constant, 5),
}


def scheme_means(spec, model, dt, nodes, t):
    """The scheme's exact SFF and 0 -> 1 transfer probability at the times
    t, from S^N."""
    d = spec.dim
    s = scheme_superoperator(spec, model, dt, nodes)
    powers = [np.linalg.matrix_power(s, n) for n in montecarlo.grid_steps(t, dt)]
    return {"sff": np.array([np.trace(p).real / d**2 for p in powers]),
            "transfer": np.array([p[d + 1, 0].real for p in powers])}


def scaled_rows(model, dt, n_steps, gens, out, scratch):
    """The sampler with every row entry 3% too large."""
    sample_noise_sequence(model, dt, n_steps, gens, out, scratch)
    out *= 1.03
    return out


def rows_without_diagonal(model, dt, n_steps, gens, out, scratch):
    """The sampler with the diagonal entries, the last D of the x half,
    dropped."""
    sample_noise_sequence(model, dt, n_steps, gens, out, scratch)
    if out.shape[-1] == model.dim * (model.dim + 1) // 2:
        out[..., -model.dim:] = 0.0
    return out


class TestSchemeOracle:
    """The Monte Carlo scheme's exact means E[U_N (x) conj(U_N)] = S^N, with
    no sampling: its weak bias against the closed forms, and the sampler
    against them at the same dt."""

    @pytest.mark.parametrize("case", SCHEME_CASES)
    def test_nodes_converged(self, case):
        # n and n + 4 nodes per entry agree at the widest noise, dt = 0.04.
        energies, make, nodes = SCHEME_CASES[case]
        spec, model = Spectrum(energies), make(1.0, energies.size)
        s = scheme_superoperator(spec, model, 0.04, nodes)
        assert np.abs(s - scheme_superoperator(spec, model, 0.04, nodes + 4)).max() <= 1e-12

    @pytest.mark.parametrize("case", SCHEME_CASES)
    def test_weak_first_order_exact(self, case):
        # The scheme's bias at t = 1 halves with dt: GUE D = 2 reads
        # -1.889760e-3, -9.475476e-4, -4.744239e-4 on the SFF at dt = 0.04,
        # 0.02, 0.01.
        energies, make, nodes = SCHEME_CASES[case]
        spec, model = Spectrum(energies), make(1.0, energies.size)
        t = np.array([1.0])
        closed = {"sff": sff(spec, model, t).real, "transfer": transfer_probability(spec, model, 0, 1, t)}
        biases = [{key: v - closed[key] for key, v in scheme_means(spec, model, dt, nodes, t).items()}
                  for dt in (0.04, 0.02, 0.01)]
        for key in closed:
            b = [bias[key][0] for bias in biases]
            assert 1.9 <= b[0] / b[1] <= 2.1 and 1.9 <= b[1] / b[2] <= 2.1, (key, b)

    # 12000 trajectories put the 3% mutation's shift at 6.4 (GUE) and 8.4
    # (GOE) sigma on its most visible comparison, from the exact means of
    # the mutated variance, and the dropped diagonal's at 38 and 59 sigma.
    @pytest.mark.parametrize("sampler, passes", [
        (None, True), (scaled_rows, False), (rows_without_diagonal, False),
    ], ids=["real", "scaled", "no-diagonal"])
    @pytest.mark.parametrize("case", ["gue-2", "goe-3"])
    def test_sampler_matches_scheme(self, monkeypatch, case, sampler, passes):
        # The estimates at dt = 0.04 carry no discretization bias against
        # S^N at the same dt, so the 3-sigma gate tests the sampler itself:
        # the stream, the sigma scaling, the row expansion and the step.
        energies, make, nodes = SCHEME_CASES[case]
        spec, model = Spectrum(energies), make(1.0, energies.size)
        t = np.array([0.4, 1.0])
        exact = scheme_means(spec, model, 0.04, nodes, t)
        if sampler is not None:
            monkeypatch.setattr(montecarlo, "sample_noise_sequence", sampler)
        cfg = TrajectoryConfig(dt=0.04, t_max=1.0, n_traj=12000, seed=1)
        run = estimate_observables(spec, model, cfg, t,
                                   {"sff": sff_observable(), "transfer": transfer_observable(0, 1)})
        z = max(np.max(np.abs(run.series[key].values - exact[key]) / run.series[key].stderr)
                for key in exact)
        assert (z <= 3.0) == passes, z
