import numpy as np
import pytest

from noisychaos import (
    ConstantOverD,
    Ensemble,
    GibbsProfile,
    InvalidStepError,
    MatrixProfile,
    NoiseModel,
    goe_constant,
    gue_constant,
    model_from_config,
    noise_slices,
    sample_noise_sequence,
)
from noisychaos.noise import noise_width

from oracles import noise_rows


def reference_noise_sequence(model, dt, n_steps, rng):
    """The noise stream as first written: full D x D draws x (then y for
    GUE), masked to the upper triangle, mirrored, the diagonal from x."""
    d = model.dim
    lam = model.lambda_matrix()
    sig_off = np.sqrt(lam / (2.0 * dt))
    sig_diag = np.sqrt(np.diag(lam) / dt)
    upper = np.triu(np.ones((d, d), dtype=bool), k=1)
    x = rng.standard_normal((n_steps, d, d))
    if model.ensemble is Ensemble.GUE:
        y = rng.standard_normal((n_steps, d, d))
        eta = np.zeros((n_steps, d, d), dtype=complex)
        up = np.where(upper, sig_off * (x + 1j * y), 0.0)
        eta += up + up.conj().transpose(0, 2, 1)
    else:
        eta = np.zeros((n_steps, d, d), dtype=float)
        up = np.where(upper, sig_off * x, 0.0)
        eta += up + up.transpose(0, 2, 1)
    idx = np.arange(d)
    eta[:, idx, idx] = sig_diag * x[:, idx, idx]
    return eta


class TestProfiles:
    def test_constant_expands_exactly(self):
        lam = ConstantOverD(J=1.0).matrix(4)
        assert np.array_equal(lam, np.full((4, 4), 0.25))

    def test_row_sums_constant(self):
        assert np.array_equal(gue_constant(1.0, 4).lambda_matrix().sum(axis=1), np.ones(4))

    def test_row_sums_matrix(self):
        model = NoiseModel(Ensemble.GUE, MatrixProfile(0.3 * np.eye(3)), 3)
        assert np.allclose(model.lambda_matrix().sum(axis=1), 0.3)

    def test_gibbs_beta_zero_is_constant(self, spec4):
        gibbs = GibbsProfile(J=1.0, beta=0.0, spectrum=spec4)
        assert np.array_equal(gibbs.matrix(4), ConstantOverD(1.0).matrix(4))
        model = NoiseModel(Ensemble.GUE, gibbs, 4)
        assert np.array_equal(model.lambda_matrix().sum(axis=1), np.ones(4))

    def test_gibbs_decay(self, spec4):
        lam = GibbsProfile(J=1.0, beta=2.0, spectrum=spec4).matrix(4)
        gaps = np.abs(spec4.gaps())
        assert np.allclose(lam, 0.25 * np.exp(-2.0 * gaps))

    def test_asymmetric_matrix_rejected(self):
        lam = np.array([[0.1, 0.2], [0.3, 0.1]])
        with pytest.raises(ValueError):
            NoiseModel(Ensemble.GUE, MatrixProfile(lam), 2)

    def test_lambda_built_once_read_only(self):
        # The model keeps the matrix it validated; the caller's array is
        # copied, not frozen.
        lam = np.array([[0.1, 0.2], [0.2, 0.3]])
        model = NoiseModel(Ensemble.GOE, MatrixProfile(lam), 2)
        assert model.lambda_matrix() is model.lambda_matrix()
        assert not model.lambda_matrix().flags.writeable
        assert lam.flags.writeable and not np.shares_memory(lam, model.lambda_matrix())

    def test_negative_entries_rejected(self):
        lam = -np.eye(2)
        with pytest.raises(ValueError):
            NoiseModel(Ensemble.GUE, MatrixProfile(lam), 2)


class TestConfig:
    def test_round_trip_const(self):
        model = goe_constant(0.7, 5)
        back = model_from_config(model.to_config(), 5)
        assert back.ensemble is Ensemble.GOE
        assert np.array_equal(back.lambda_matrix(), model.lambda_matrix())

    def test_round_trip_matrix(self, rng):
        lam = rng.random((3, 3))
        lam = (lam + lam.T) / 2
        model = NoiseModel(Ensemble.GUE, MatrixProfile(lam), 3)
        back = model_from_config(model.to_config(), 3)
        assert np.allclose(back.lambda_matrix(), lam)

    def test_gibbs_needs_spectrum(self, spec4):
        cfg = {"ensemble": "gue", "profile": {"type": "gibbs", "J": 1.0, "beta": 0.5}}
        with pytest.raises(ValueError):
            model_from_config(cfg, 4)
        model = model_from_config(cfg, 4, spectrum=spec4)
        assert model.lambda_matrix().shape == (4, 4)


class TestSampling:
    def test_invalid_step(self):
        with pytest.raises(InvalidStepError):
            noise_rows(gue_constant(1.0, 2), 0.0, 1, np.random.default_rng(0))

    def test_zero_noise_is_zero(self):
        model = gue_constant(0.0, 3)
        eta = noise_slices(model, noise_rows(model, 0.01, 1, np.random.default_rng(0)))[0]
        assert np.array_equal(eta, np.zeros((3, 3)))

    def test_gue_hermitian_goe_symmetric(self, rng):
        gue, goe = gue_constant(1.0, 4), goe_constant(1.0, 4)
        eta = noise_slices(gue, noise_rows(gue, 0.01, 1, rng))[0]
        assert np.array_equal(eta, eta.conj().T)
        etag = noise_slices(goe, noise_rows(goe, 0.01, 1, rng))[0]
        assert np.isrealobj(etag)
        assert np.array_equal(etag, etag.T)

    def test_gue_second_moments(self):
        # E[eta_ij eta_kl] = lam_ij d_il d_jk / dt; lam_12 = J/D = 0.5.
        rng = np.random.default_rng(5)
        dt, n = 0.01, 100_000
        model = gue_constant(1.0, 2)
        eta = noise_slices(model, noise_rows(model, dt, n, rng))
        m_abs = np.mean(np.abs(eta[:, 0, 1]) ** 2) * dt
        assert abs(m_abs - 0.5) < 3 * 0.5 / np.sqrt(n)
        # E[eta_12 eta_12] = 0 for the complex entry
        m_sq = np.mean(eta[:, 0, 1] ** 2) * dt
        assert abs(m_sq) < 3 * 0.5 / np.sqrt(n)
        # diagonal variance lam_ii / dt
        m_d = np.mean(eta[:, 0, 0] ** 2) * dt
        assert abs(m_d - 0.5) < 3 * np.sqrt(2) * 0.5 / np.sqrt(n)

    def test_goe_second_moments(self):
        # GOE: E[eta_ij eta_kl] = lam_ij (d_ik d_jl + d_il d_jk)/2 / dt.
        rng = np.random.default_rng(6)
        dt, n = 0.01, 100_000
        model = goe_constant(1.0, 2)
        eta = noise_slices(model, noise_rows(model, dt, n, rng))
        m_off = np.mean(eta[:, 0, 1] ** 2) * dt
        assert abs(m_off - 0.25) < 3 * np.sqrt(2) * 0.25 / np.sqrt(n)
        m_d = np.mean(eta[:, 0, 0] ** 2) * dt
        assert abs(m_d - 0.5) < 3 * np.sqrt(2) * 0.5 / np.sqrt(n)

    def test_mean_zero(self):
        rng = np.random.default_rng(7)
        model = gue_constant(1.0, 3)
        eta = noise_slices(model, noise_rows(model, 0.01, 50_000, rng))
        assert np.max(np.abs(eta.mean(axis=0))) < 0.6  # sigma ~ 10/sqrt(5e4) ~ 0.045*10


class TestFrozenStream:
    # A change to the draws (e.g. drawing only the upper triangle) changes
    # every Monte Carlo output; it must be made on purpose, here.
    LAMBDA = np.array([
        [0.1, 1.2, 0.0, 0.3, 0.2],
        [1.2, 0.1, 0.05, 0.0, 0.4],
        [0.0, 0.05, 0.6, 0.2, 0.0],
        [0.3, 0.0, 0.2, 0.1, 0.7],
        [0.2, 0.4, 0.0, 0.7, 0.9],
    ])

    @pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
    @pytest.mark.parametrize("profile", [ConstantOverD(1.3), MatrixProfile(LAMBDA)])
    def test_stream_matches_reference(self, ensemble, profile):
        model = NoiseModel(ensemble, profile, 5)
        expected = reference_noise_sequence(model, 0.01, 30, np.random.default_rng(11))
        fresh = noise_rows(model, 0.01, 30, np.random.default_rng(11))
        width = 25 if ensemble is Ensemble.GUE else 15
        assert fresh.shape == (30, width) and fresh.dtype == np.float64
        slices = noise_slices(model, fresh)
        assert slices.dtype == expected.dtype
        assert np.array_equal(slices, expected)
        # into a slice of a larger worker buffer, as the Monte Carlo does
        buf = np.full((2, 40, width), np.nan)
        into = noise_rows(model, 0.01, 30, np.random.default_rng(11), out=buf[1, :30])
        assert np.shares_memory(into, buf)
        assert np.array_equal(noise_slices(model, buf[1, :30]), expected)
        assert np.isnan(buf[0]).all() and np.isnan(buf[1, 30:]).all()

    @pytest.mark.parametrize("pieces", [(4, 4, 4), (5, 5, 2), (12,), (1,)])
    @pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
    def test_pieces_of_a_batch_continue_the_stream(self, ensemble, pieces):
        # A batch of generators drawing their rows in pieces of steps, under
        # GUE all x halves first, then the y halves, draws each generator's
        # stream of one call: the rows are those of one call per generator.
        model = NoiseModel(ensemble, MatrixProfile(self.LAMBDA), 5)
        gens = [np.random.default_rng(s) for s in (11, 12, 13)]
        scratch = np.empty(3 * max(pieces) * 25)
        halves = {"x": slice(0, 15), "y": slice(15, 25)}
        if ensemble is Ensemble.GOE:
            del halves["y"]

        def draw(half, cols):
            return np.concatenate([sample_noise_sequence(model, 0.01, n, gens, np.empty((3, n, cols.stop - cols.start)),
                                                         scratch, half)
                                   for n in pieces], axis=1)

        rows = np.concatenate([draw(half, cols) for half, cols in halves.items()], axis=-1)
        assert rows.shape == (3, sum(pieces), noise_width(model))
        one_call = [noise_rows(model, 0.01, sum(pieces), np.random.default_rng(s)) for s in (11, 12, 13)]
        assert np.array_equal(rows, np.stack(one_call))
        # a strided out, as a step-major layout would give, gets the same rows
        strided = np.full((sum(pieces), 3, noise_width(model)), np.nan)
        gens = [np.random.default_rng(s) for s in (11, 12, 13)]
        for half, cols in halves.items():
            sample_noise_sequence(model, 0.01, sum(pieces), gens, strided.transpose(1, 0, 2)[..., cols],
                                  np.empty(3 * sum(pieces) * 25), half)
        assert np.array_equal(strided.transpose(1, 0, 2), rows)

    def test_half_needs_gue(self):
        # "x" is a whole GOE row, so GOE has no "y" half.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="half"):
            sample_noise_sequence(goe_constant(1.0, 3), 0.01, 2, [rng], np.empty((1, 2, 3)), np.empty(18), "y")
        with pytest.raises(ValueError, match="half"):
            sample_noise_sequence(gue_constant(1.0, 3), 0.01, 2, [rng], np.empty((1, 2, 6)), np.empty(18), "z")
