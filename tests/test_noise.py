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
    # The descriptor the Monte Carlo series metadata writes, and the bench's
    # tracer keys its trajectories on, exactly.
    def test_to_config_const(self):
        assert goe_constant(0.7, 5).to_config() == {"ensemble": "goe", "profile": {"type": "const", "J": 0.7}}

    def test_to_config_matrix(self):
        lam = np.array([[0.5, 0.25], [0.25, 1.0]])
        assert NoiseModel(Ensemble.GUE, MatrixProfile(lam), 2).to_config() == {
            "ensemble": "gue", "profile": {"type": "matrix", "lambda": [[0.5, 0.25], [0.25, 1.0]]}}

    def test_to_config_gibbs(self, spec4):
        model = NoiseModel(Ensemble.GUE, GibbsProfile(1.0, 0.5, spec4), 4)
        assert model.to_config() == {"ensemble": "gue", "profile": {"type": "gibbs", "J": 1.0, "beta": 0.5}}


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
        # the x half's columns, then under GUE the y half's
        halves = [slice(0, 15), slice(15, 25)][:2 if ensemble is Ensemble.GUE else 1]

        def draw(cols):
            return np.concatenate([sample_noise_sequence(model, 0.01, n, gens, np.empty((3, n, cols.stop - cols.start)),
                                                         scratch)
                                   for n in pieces], axis=1)

        rows = np.concatenate([draw(cols) for cols in halves], axis=-1)
        assert rows.shape == (3, sum(pieces), noise_width(model))
        one_call = [noise_rows(model, 0.01, sum(pieces), np.random.default_rng(s)) for s in (11, 12, 13)]
        assert np.array_equal(rows, np.stack(one_call))
        # a strided out, as a step-major layout would give, gets the same rows
        strided = np.full((sum(pieces), 3, noise_width(model)), np.nan)
        gens = [np.random.default_rng(s) for s in (11, 12, 13)]
        for cols in halves:
            sample_noise_sequence(model, 0.01, sum(pieces), gens, strided.transpose(1, 0, 2)[..., cols],
                                  np.empty(3 * sum(pieces) * 25))
        assert np.array_equal(strided.transpose(1, 0, 2), rows)

    @pytest.mark.parametrize("make, width", [(gue_constant, w) for w in (0, 2, 4, 5, 7, 9)]
                             + [(goe_constant, w) for w in (0, 3, 5, 9)])
    def test_width_names_half(self, make, width):
        # The width of out says which half a call fills: at D = 3 the x
        # half's 6, the whole GOE row, or under GUE the y half's 3.  GOE
        # has no y half, and no other width is either half.
        with pytest.raises(ValueError, match=f"out width {width} "):
            sample_noise_sequence(make(1.0, 3), 0.01, 2, [np.random.default_rng(0)], np.empty((1, 2, width)),
                                  np.empty(18))
