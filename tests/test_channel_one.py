import numpy as np
import pytest

from noisychaos import (
    ConstantOverD,
    GibbsProfile,
    MatrixProfile,
    NoiseModel,
    Spectrum,
    apply_channel,
    goe_constant,
    gue_constant,
    return_probability,
    sample_gue_spectrum,
    sff_goe_const,
    two_point_goe_const,
    u1_goe_const,
    u1_goe_general,
    u1_gue_const,
    u1_gue_general,
)
from noisychaos.channel_one import MarkovFactors, goe_params
from noisychaos.noise import Ensemble

from conftest import random_density, random_hermitian
from oracles import (
    apply_generator,
    build_L1,
    choi_matrix,
    dense_coefficients,
    dense_generator,
    dense_superoperator,
    expm,
    forced_linear,
)


def random_symmetric_lambda(dim, rng, scale=0.5):
    lam = scale * rng.random((dim, dim))
    return (lam + lam.T) / 2.0


def flat_matrix(ensemble, J, dim):
    """The constant profile as a matrix profile, which takes the general
    (eigendecomposition) route for B rather than the constant closed form."""
    return NoiseModel(ensemble, MatrixProfile(np.full((dim, dim), J / dim)), dim)


ALL_BUILDERS = [
    lambda spec, J, t: u1_gue_const(spec, J, t),
    lambda spec, J, t: u1_gue_general(spec, flat_matrix(Ensemble.GUE, J, spec.dim), t),
    lambda spec, J, t: u1_goe_const(spec, J, t),
    lambda spec, J, t: u1_goe_general(spec, flat_matrix(Ensemble.GOE, J, spec.dim), t),
]


class TestGenerator:
    def test_gue_const_flat_spectrum(self):
        spec = Spectrum(np.zeros(2))
        gen = build_L1(spec, gue_constant(1.0, 2))
        assert np.allclose(gen.w, -1.0)
        assert np.allclose(gen.cross, 0.5)
        assert gen.exch is None

    def test_noiseless_limit(self, spec4):
        gen = build_L1(spec4, gue_constant(0.0, 4))
        assert np.allclose(gen.w, -1j * spec4.gaps())
        assert np.allclose(gen.cross, 0.0)

    def test_goe_const_flat_spectrum(self):
        spec = Spectrum(np.zeros(2))
        gen = build_L1(spec, goe_constant(1.0, 2))
        assert np.allclose(gen.w, -0.75)  # -(1 + D)/(2D) J at D=2
        assert np.allclose(gen.cross, 0.25)
        assert np.allclose(gen.exch, 0.25)

    def test_dimension_mismatch(self, spec4):
        with pytest.raises(ValueError):
            build_L1(spec4, gue_constant(1.0, 5))

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_finite_difference_consistency(self, builder, spec4, rng):
        # d U1/dt at t=0 applied to rho should match the generator to O(h).
        ensemble = Ensemble.GUE if builder in ALL_BUILDERS[:2] else Ensemble.GOE
        model = (
            gue_constant(0.8, 4) if ensemble is Ensemble.GUE else goe_constant(0.8, 4)
        )
        gen = build_L1(spec4, model)
        rho = random_density(4, rng)
        h = 1e-5
        deriv = (
            apply_channel(builder(spec4, 0.8, h), rho)
            - apply_channel(builder(spec4, 0.8, 0.0), rho)
        ) / h
        assert np.max(np.abs(deriv - apply_generator(gen, rho))) < 50 * h


class TestGueConst:
    def test_identity_at_t0(self, spec4, rng):
        ch = u1_gue_const(spec4, 1.0, 0.0)
        rho = random_density(4, rng)
        assert np.max(np.abs(apply_channel(ch, rho) - rho)) < 1e-12

    def test_flat_spectrum_values(self):
        # D=2, E=0, J=1, t=ln 2: A = e^{-J t} = 1/2, B = (1/2)(1 - 1/2) = 1/4.
        spec = Spectrum(np.zeros(2))
        ch = u1_gue_const(spec, 1.0, np.log(2.0))
        assert np.allclose(ch.coeff_A, 0.5, atol=1e-14)
        assert np.allclose(ch.coeff_B, 0.25, atol=1e-14)
        assert np.allclose(ch.coeff_G, 0.0)

    def test_late_time_maximally_mixed(self, spec4, rng):
        ch = u1_gue_const(spec4, 1.0, 80.0)
        rho = random_density(4, rng)
        assert np.max(np.abs(apply_channel(ch, rho) - np.eye(4) / 4)) < 1e-12

    def test_negative_time_rejected(self, spec4):
        with pytest.raises(ValueError):
            u1_gue_const(spec4, 1.0, -0.1)

    def test_taylor_matches_generator(self, spec4, rng):
        rho = random_density(4, rng)
        gen = build_L1(spec4, gue_constant(0.6, 4))
        for t in (1e-3, 5e-4):
            step = apply_channel(u1_gue_const(spec4, 0.6, t), rho)
            lin = rho + t * apply_generator(gen, rho)
            assert np.max(np.abs(step - lin)) < 5 * t**2

    def test_semigroup(self, spec4, rng):
        rho = random_density(4, rng)
        lhs = apply_channel(u1_gue_const(spec4, 0.9, 1.7), rho)
        rhs = apply_channel(
            u1_gue_const(spec4, 0.9, 1.0),
            apply_channel(u1_gue_const(spec4, 0.9, 0.7), rho),
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def pair(p, i, j):
    """Position of the level pair (i, j), i <= j, in goe_params' vectors."""
    (k,) = np.flatnonzero((p.i == i) & (p.j == j))
    return k


class TestGoeParams:
    def test_pair_indices_shared_and_read_only(self, spec5):
        a, b = goe_params(spec5, goe_constant(0.5, 5)), goe_params(spec5, goe_constant(1.5, 5))
        assert a.i is b.i and a.j is b.j
        for k, want in zip((a.i, a.j), np.triu_indices(5)):
            assert np.array_equal(k, want)
            assert not k.flags.writeable

    def test_identities(self, spec5):
        d = spec5.dim
        model = goe_constant(0.8, d)
        p = goe_params(spec5, model)
        gen = build_L1(spec5, model)
        w, wt = gen.w[p.i, p.j], gen.w[p.j, p.i]
        lam = model.lambda_matrix()[p.i, p.j]
        assert np.array_equal(p.i, np.triu_indices(d)[0])
        assert np.array_equal(p.j, np.triu_indices(d)[1])
        assert np.max(np.abs(-2.0 * p.kappa - (w + wt))) < 1e-12
        assert np.max(np.abs(p.q * np.abs(p.q) - ((w - wt) ** 2 + lam**2) / 4)) < 1e-12

    def test_diagonal_const_case(self, spec5):
        d = spec5.dim
        J = 0.8
        p = goe_params(spec5, goe_constant(J, d))
        on = p.i == p.j
        assert np.allclose(-p.kappa[on] + p.q[on], -J / 2)
        assert np.allclose(p.q[on], J / (2 * d))
        assert np.allclose(p.half_lam[on], J / (2 * d))
        assert np.all(p.delta[on] == 0.0)

    def test_small_J_expansion(self, spec4):
        # q^2 < 0 with |q| ~ |E_ij|; l/|q| ~ J/(2D|E_ij|) (the old g);
        # delta/|q| ~ sgn(E_ij) (the old c+- = 1 -+ sgn(E_ij)); kappa = (D+1)J/(2D).
        d = spec4.dim
        J = 1e-3 * np.abs(spec4.gaps()[~np.eye(d, dtype=bool)]).min()
        p = goe_params(spec4, goe_constant(J, d))
        off = p.i != p.j
        delta, q = p.delta[off], p.q[off]
        assert np.all(q < 0.0)
        absg = np.abs(delta)
        assert np.max(np.abs(-q - absg) / absg) < 1e-5
        g_exp = J / (2 * d * absg)
        assert np.max(np.abs(p.half_lam[off] / -q - g_exp) / g_exp) < 1e-5
        assert np.max(np.abs(delta / -q - np.sign(delta))) < 1e-5
        assert np.allclose(p.kappa, (d + 1) * J / (2 * d))

    def test_large_J_expansion(self, spec4):
        # q -> lambda_ij/2 = J/(2D); l/q ~ 1 (the old g) up to (2 D E_ij/J)^2/2
        # ~ 1e-4; delta/q ~ 2 D E_ij/J (the old c+- = 1 -+ 2iDE_ij/J).
        d = spec4.dim
        J = 1e3 * np.abs(spec4.gaps()[~np.eye(d, dtype=bool)]).max()
        p = goe_params(spec4, goe_constant(J, d))
        off = p.i != p.j
        delta, q = p.delta[off], p.q[off]
        assert np.all(q > 0.0)
        assert np.max(np.abs(p.half_lam[off] / q - 1.0)) < 1e-4
        assert np.max(np.abs(delta / q - 2 * d * delta / J)) < 1e-5
        assert np.max(np.abs(q - J / (2 * d))) / J < 1e-5


class TestDegenerateGoePair:
    """A degenerate level pair with lambda_12 = 0 makes the GOE root vanish
    at (1, 2), whose block is then -kappa times the identity."""

    # Dyadic entries keep every sum exact, so w_12 = w_21 and the root is 0.
    LAM = np.array([
        [0.5, 0.25, 0.125, 0.25],
        [0.25, 0.375, 0.0, 0.125],
        [0.125, 0.0, 0.625, 0.25],
        [0.25, 0.125, 0.25, 0.5],
    ])

    def case(self):
        spec = Spectrum(np.array([-1.0, 0.3, 0.3, 1.2]))
        return spec, NoiseModel(Ensemble.GOE, MatrixProfile(self.LAM), 4)

    def test_params_finite_at_vanishing_root(self):
        p = goe_params(*self.case())
        for field in p:
            assert np.all(np.isfinite(field))
        k = pair(p, 1, 2)
        assert p.q[k] == 0.0 and p.delta[k] == 0.0 and p.half_lam[k] == 0.0

    def test_trace_preserving(self):
        ch = u1_goe_general(*self.case(), 50.0)
        tp = ch.coeff_A.diagonal() + ch.coeff_B.sum(axis=0) + ch.coeff_G.diagonal()
        assert np.max(np.abs(tp - 1.0)) < 1e-9

    def test_generator_at_positive_time(self, rng):
        spec, model = self.case()
        rho = random_density(4, rng)
        t, h = 1.3, 1e-5
        deriv = (
            apply_channel(u1_goe_general(spec, model, t + h), rho)
            - apply_channel(u1_goe_general(spec, model, t - h), rho)
        ) / (2 * h)
        expected = apply_generator(build_L1(spec, model), apply_channel(
            u1_goe_general(spec, model, t), rho))
        assert np.max(np.abs(deriv - expected)) < 1e-8


class TestExceptionalGoePair:
    """lambda_ij = 2|E_i - E_j| makes q vanish at a nondegenerate pair: its
    block is not diagonalizable, and C, S become e^{-kappa t}, t e^{-kappa t}.
    On E = (0, 1/8, 1/2, 1) the constant profile J = 1, D = 4 does it at
    (0, 1); the dyadic matrix profile at (0, 1) and (2, 3)."""

    SPEC = Spectrum(np.array([0.0, 0.125, 0.5, 1.0]))
    LAM = np.array([
        [0.5, 0.25, 0.125, 0.25],
        [0.25, 0.375, 0.0, 0.125],
        [0.125, 0.0, 0.625, 1.0],
        [0.25, 0.125, 1.0, 0.5],
    ])
    CASES = {
        "const": (goe_constant(1.0, 4), [(0, 1)]),
        "matrix": (NoiseModel(Ensemble.GOE, MatrixProfile(LAM), 4), [(0, 1), (2, 3)]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_q_vanishes_exactly(self, case):
        model, pairs = self.CASES[case]
        p = goe_params(self.SPEC, model)
        assert [(int(p.i[k]), int(p.j[k])) for k in np.flatnonzero(p.q == 0.0)] == pairs

    @pytest.mark.parametrize("t", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("case", CASES)
    def test_channel_at_the_pair(self, case, t):
        model, pairs = self.CASES[case]
        p = goe_params(self.SPEC, model)
        ch = u1_goe_general(self.SPEC, model, t)
        for i, j in pairs:
            k = pair(p, i, j)
            decay = np.exp(-p.kappa[k] * t)
            assert abs(ch.coeff_A[i, j] - decay * (1 - 1j * p.delta[k] * t)) < 1e-14
            assert abs(ch.coeff_A[j, i] - decay * (1 + 1j * p.delta[k] * t)) < 1e-14
            for g in (ch.coeff_G[i, j], ch.coeff_G[j, i]):
                assert abs(g - p.half_lam[k] * t * decay) < 1e-14

    @pytest.mark.parametrize("case", CASES)
    def test_channel_is_exponential_of_generator(self, case):
        model, _ = self.CASES[case]
        dense = dense_generator(build_L1(self.SPEC, model))
        for t in (0.5, 3.0):
            ch = u1_goe_general(self.SPEC, model, t)
            assert np.max(np.abs(dense_superoperator(ch) - expm(dense * t))) < 1e-13

    @pytest.mark.parametrize("case", CASES)
    def test_generator_at_positive_time(self, case, rng):
        model, _ = self.CASES[case]
        rho = random_density(4, rng)
        t, h = 0.5, 1e-5
        deriv = (
            apply_channel(u1_goe_general(self.SPEC, model, t + h), rho)
            - apply_channel(u1_goe_general(self.SPEC, model, t - h), rho)
        ) / (2 * h)
        expected = apply_generator(build_L1(self.SPEC, model), apply_channel(
            u1_goe_general(self.SPEC, model, t), rho))
        assert np.max(np.abs(deriv - expected)) < 1e-8


class TestNearExceptionalPair:
    # E = (0, 1/8 - eps, 1/2, 1) under constant GOE noise, J = 1, D = 4:
    # the pair (0, 1) has |delta| = lambda_01/2 - eps, so 0 < q^2 << lambda^2
    # and (e+ - e-)/(2q) would cancel, by 2.4e-11 at eps = 1e-14.
    @pytest.mark.parametrize("eps", [1e-14, 1e-9])
    def test_channel_is_exponential_of_generator(self, eps):
        spec = Spectrum(np.array([0.0, 0.125 - eps, 0.5, 1.0]))
        model = goe_constant(1.0, 4)
        p = goe_params(spec, model)
        k = pair(p, 0, 1)
        assert 0.0 < p.q[k] < 1e-3
        dense = dense_generator(build_L1(spec, model))
        for t in (0.5, 2.0, 8.0):
            ch = u1_goe_general(spec, model, t)
            assert np.max(np.abs(dense_superoperator(ch) - expm(dense * t))) <= 1e-13


class TestLargeGoeJ:
    def test_finite_at_huge_J(self, spec4, rng):
        # lambda^2 overflows near J ~ 5e154 at D = 4; |q| is taken without it.
        t = np.linspace(0.0, 2.0, 5)
        o = random_hermitian(4, rng)
        k = sff_goe_const(spec4, 1e200, t)
        assert k[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(k))
        assert np.all(np.isfinite(two_point_goe_const(spec4, 1e200, o, t)))
        ch = u1_goe_const(spec4, 1e200, 0.5)
        for coeff in (ch.coeff_A, ch.coeff_B, ch.coeff_G):
            assert np.all(np.isfinite(coeff))


class TestGoeConst:
    def test_identity_at_t0(self, spec4, rng):
        ch = u1_goe_const(spec4, 1.0, 0.0)
        rho = random_density(4, rng)
        assert np.max(np.abs(apply_channel(ch, rho) - rho)) < 1e-12

    def test_strong_noise_degenerate_limit(self):
        # E = 0 makes every pair diagonal-like: A and G become the
        # cosh/sinh combination of e^{-Jt/2} and e^{-Jt/2 - Jt/D}.
        d, J, t = 4, 1.3, 0.9
        spec = Spectrum(np.zeros(d))
        ch = u1_goe_const(spec, J, t)
        ep = np.exp(-J * t / 2)
        em = np.exp(-J * t / 2 - J * t / d)
        assert np.max(np.abs(ch.coeff_A - (ep + em) / 2)) < 1e-12
        assert np.max(np.abs(ch.coeff_G - (ep - em) / 2)) < 1e-12
        assert np.max(np.abs(ch.coeff_B - (1 - ep) / d)) < 1e-12


class TestGeneralReductions:
    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0, 5.0])
    def test_gue_general_reduces_to_const(self, spec4, t):
        const = u1_gue_const(spec4, 0.8, t)
        general = u1_gue_general(spec4, flat_matrix(Ensemble.GUE, 0.8, 4), t)
        assert np.max(np.abs(general.coeff_A - const.coeff_A)) < 1e-9
        assert np.max(np.abs(general.coeff_B - const.coeff_B)) < 1e-9

    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0, 5.0])
    def test_goe_general_reduces_to_const(self, spec4, t):
        const = u1_goe_const(spec4, 0.8, t)
        general = u1_goe_general(spec4, flat_matrix(Ensemble.GOE, 0.8, 4), t)
        assert np.max(np.abs(general.coeff_A - const.coeff_A)) < 1e-9
        assert np.max(np.abs(general.coeff_B - const.coeff_B)) < 1e-9
        assert np.max(np.abs(general.coeff_G - const.coeff_G)) < 1e-9

    @pytest.mark.parametrize("profile", ["matrix", "gibbs"])
    @pytest.mark.parametrize("t", [0.0, 0.9, 4.0])
    def test_goe_populations_are_gue_at_half_time(self, profile, t):
        spec, gue_model, _, _ = general_case(6, profile, Ensemble.GUE)
        goe_model = NoiseModel(Ensemble.GOE, gue_model.profile, 6)
        goe = u1_goe_general(spec, goe_model, t).coeff_B
        gue = u1_gue_general(spec, gue_model, t / 2.0).coeff_B
        assert np.max(np.abs(goe - gue)) < 1e-14
        # The GOE system as derived: P/2, forcing lambda/2 at rate nu = -J/2.
        lam = goe_model.lambda_matrix()
        j_row = lam.sum(axis=1)
        halved = forced_linear((lam - np.diag(j_row)) / 2.0, lam / 2.0, -j_row / 2.0, t)
        assert np.max(np.abs(goe - halved)) < 1e-14

    def test_gue_general_noiseless(self, spec4):
        ch = u1_gue_general(spec4, gue_constant(0.0, 4), 1.4)
        assert np.max(np.abs(ch.coeff_A - np.exp(-1j * spec4.gaps() * 1.4))) < 1e-12
        assert np.max(np.abs(ch.coeff_B)) < 1e-9

    @pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
    def test_random_lambda_trace_preservation(self, spec4, rng, ensemble):
        lam = random_symmetric_lambda(4, rng)
        model = NoiseModel(ensemble, MatrixProfile(lam), 4)
        build = u1_gue_general if ensemble is Ensemble.GUE else u1_goe_general
        for t in (0.3, 1.1, 3.0):
            ch = build(spec4, model, t)
            tp = ch.coeff_A.diagonal() + ch.coeff_B.sum(axis=0) + ch.coeff_G.diagonal()
            assert np.max(np.abs(tp - 1.0)) < 1e-9


class TestPopulationModes:
    """NoiseModel.population_modes: the population system's one
    eigendecomposition per model."""

    @staticmethod
    def count_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    @pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
    def test_one_eigh_per_model(self, monkeypatch, ensemble):
        spec, model, build, _ = general_case(6, "gibbs", ensemble)
        calls = self.count_eigh(monkeypatch)
        for t in np.linspace(0.0, 5.0, 25):
            build(spec, model, t)
        assert calls == [(6, 6)]

    @pytest.mark.parametrize("build", [u1_gue_const, u1_goe_const])
    def test_constant_profile_takes_none(self, monkeypatch, spec4, build):
        calls = self.count_eigh(monkeypatch)
        for t in np.linspace(0.0, 5.0, 25):
            build(spec4, 0.8, t)
        assert calls == []

    def test_modes_read_only(self):
        _, model, _, _ = general_case(6, "matrix", Ensemble.GUE)
        for a in model.population_modes:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
    @pytest.mark.parametrize("profile", ["matrix", "gibbs"])
    def test_cold_and_warm_builds_match_one_shot(self, profile, ensemble):
        # B = e^{sP} - diag(e^{-J s}) from a fresh eigh of P.
        spec, model, build, _ = general_case(6, profile, ensemble)
        t = 1.7
        s = t if ensemble is Ensemble.GUE else t / 2.0
        lam = model.lambda_matrix()
        j_row = lam.sum(axis=1)
        mu, v = np.linalg.eigh(lam - np.diag(j_row))
        reference = (v * np.exp(mu * s)) @ v.T - np.diag(np.exp(-j_row * s))
        cold = build(spec, model, t).coeff_B
        warm = build(spec, model, t).coeff_B
        assert np.array_equal(cold, reference)
        assert np.array_equal(warm, reference)

    @pytest.mark.parametrize("profile", ["matrix", "gibbs"])
    def test_ensembles_sharing_a_profile_share_modes(self, profile):
        _, gue_model, _, _ = general_case(6, profile, Ensemble.GUE)
        goe_model = NoiseModel(Ensemble.GOE, gue_model.profile, 6)
        for gue, goe in zip(gue_model.population_modes, goe_model.population_modes):
            assert np.array_equal(gue, goe)


class TestMarkovIdentity:
    """B = e^{sP} - diag(e^{-J s}) against the populations solved as a
    forced linear system, B' = P.B + lambda e^{-J_j s}."""

    CASES = [(6, "matrix"), (6, "gibbs"), (4, "degenerate")]

    @staticmethod
    def model(dim, profile, ensemble):
        if profile == "degenerate":  # lambda_12 = 0
            return NoiseModel(ensemble, MatrixProfile(TestDegenerateGoePair.LAM), 4)
        return general_case(dim, profile, ensemble)[1]

    @pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
    @pytest.mark.parametrize("dim, profile", CASES)
    @pytest.mark.parametrize("t", [0.0, 1e-6, 0.3, 2.5, 40.0, 5000.0])
    def test_builder_matches_forced_linear(self, dim, profile, ensemble, t):
        model = self.model(dim, profile, ensemble)
        spec = Spectrum(np.linspace(-1.0, 1.0, dim))
        build = u1_gue_general if ensemble is Ensemble.GUE else u1_goe_general
        s = t if ensemble is Ensemble.GUE else t / 2.0
        lam = model.lambda_matrix()
        j_row = lam.sum(axis=1)
        reference = forced_linear(lam - np.diag(j_row), lam, -j_row, s)
        assert np.max(np.abs(build(spec, model, t).coeff_B - reference)) <= 1e-14

    @pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
    @pytest.mark.parametrize("dim, profile", CASES)
    def test_return_probability_is_mean_mode_decay(self, dim, profile, ensemble):
        model = self.model(dim, profile, ensemble)
        spec = Spectrum(np.linspace(-1.0, 1.0, dim))
        t = np.linspace(0.0, 40.0, 81)
        s = t if ensemble is Ensemble.GUE else t / 2.0
        mean = np.exp(np.multiply.outer(s, model.population_modes.mu)).mean(axis=1)
        assert np.max(np.abs(return_probability(spec, model, t) - mean)) <= 1e-14


def general_case(dim, profile, ensemble):
    """Spectrum, noise model and builder for one case of a profile."""
    rng = np.random.default_rng(100 + dim)
    spec = sample_gue_spectrum(dim, rng)
    if profile == "matrix":
        prof = MatrixProfile(random_symmetric_lambda(dim, rng))
    elif profile == "const":
        prof = ConstantOverD(1.2)
    else:
        prof = GibbsProfile(1.2, 0.7, spec)
    build = u1_gue_general if ensemble is Ensemble.GUE else u1_goe_general
    return spec, NoiseModel(ensemble, prof, dim), build, random_density(dim, rng)


@pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
@pytest.mark.parametrize("profile", ["matrix", "gibbs"])
@pytest.mark.parametrize("dim", [4, 6])
class TestGeneralClosedForm:
    """The general-lambda channels checked against the dynamics they solve,
    independently of the constant-profile reduction."""

    def test_semigroup(self, dim, profile, ensemble):
        spec, model, build, rho = general_case(dim, profile, ensemble)
        s, t = 0.7, 1.6
        lhs = apply_channel(build(spec, model, s + t), rho)
        rhs = apply_channel(build(spec, model, t), apply_channel(build(spec, model, s), rho))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_generator_at_positive_time(self, dim, profile, ensemble):
        spec, model, build, rho = general_case(dim, profile, ensemble)
        gen = build_L1(spec, model)
        t, h = 1.3, 1e-5
        deriv = (
            apply_channel(build(spec, model, t + h), rho)
            - apply_channel(build(spec, model, t - h), rho)
        ) / (2 * h)
        expected = apply_generator(gen, apply_channel(build(spec, model, t), rho))
        assert np.max(np.abs(deriv - expected)) < 1e-8

    def test_large_time_finite_and_trace_preserving(self, dim, profile, ensemble):
        spec, model, build, _ = general_case(dim, profile, ensemble)
        ch = build(spec, model, 5000.0)
        for coeff in (ch.coeff_A, ch.coeff_B, ch.coeff_G):
            assert np.all(np.isfinite(coeff))
        tp = ch.coeff_A.diagonal() + ch.coeff_B.sum(axis=0) + ch.coeff_G.diagonal()
        assert np.max(np.abs(tp - 1.0)) < 1e-9


class TestChannelInvariants:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    @pytest.mark.parametrize("t", [0.4, 1.7])
    def test_trace_and_hermiticity(self, builder, spec4, rng, t):
        ch = builder(spec4, 0.7, t)
        rho = random_density(4, rng)
        out = apply_channel(ch, rho)
        assert abs(np.trace(out) - 1.0) < 1e-9
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    @pytest.mark.parametrize("t", [0.0, 0.6, 2.5])
    def test_choi_complete_positivity(self, builder, spec4, t):
        choi = choi_matrix(builder(spec4, 0.7, t))
        assert np.linalg.eigvalsh(choi).min() > -1e-9

    def test_apply_matches_dense_superoperator(self, spec4, rng):
        ch = u1_goe_const(spec4, 0.7, 1.1)
        rho = random_density(4, rng)
        sup = dense_superoperator(ch)
        out_dense = (sup @ rho.reshape(-1)).reshape(4, 4)
        assert np.max(np.abs(out_dense - apply_channel(ch, rho))) < 1e-12

    def test_shape_mismatch(self, spec4, rng):
        ch = u1_gue_const(spec4, 1.0, 1.0)
        with pytest.raises(ValueError):
            apply_channel(ch, np.eye(3))

    def test_nested_list(self):
        ch = u1_goe_const(Spectrum(np.array([-1.0, 0.2, 0.9])), 1.0, 0.4)
        rho = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
        assert np.array_equal(apply_channel(ch, rho), apply_channel(ch, np.array(rho)))
        with pytest.raises(ValueError, match=r"rho shape \(2, 2\) != \(3, 3\)"):
            apply_channel(ch, [[1, 0], [0, 0]])



@pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
@pytest.mark.parametrize("profile", ["const", "gibbs", "matrix"])
class TestStorage:
    """A ChannelOne keeps only the factors its ensemble and profile produce,
    and each read of a coefficient builds a grid from them: a constant B is
    a broadcast of one number, G is a broadcast zero under GUE noise and
    real under GOE noise, and every array is read-only."""

    def test_dtypes_and_shapes(self, profile, ensemble):
        spec, model, build, _ = general_case(6, profile, ensemble)
        ch = build(spec, model, 0.9)
        assert (ch.coeff_A.dtype, ch.coeff_A.shape) == (np.complex128, (6, 6))
        assert (ch.coeff_B.dtype, ch.coeff_B.shape) == (np.float64, (6, 6))
        assert (ch.coeff_G.dtype, ch.coeff_G.shape) == (np.float64, (6, 6))
        assert ch.coeff_A.strides == (96, 16)
        assert ch.coeff_B.strides == ((0, 0) if profile == "const" else (48, 8))
        if ensemble is Ensemble.GUE:
            assert ch.coeff_G.strides == (0, 0)
            assert not np.any(ch.coeff_G)
        else:
            assert ch.coeff_G.strides == (48, 8)

    def test_read_only(self, profile, ensemble):
        spec, model, build, _ = general_case(6, profile, ensemble)
        ch = build(spec, model, 0.9)
        for coeff in (ch.coeff_A, ch.coeff_B, ch.coeff_G):
            assert not coeff.flags.writeable
            with pytest.raises(ValueError):
                coeff[0, 1] = 1.0

    @pytest.mark.parametrize("t", [0.0, 0.9, 30.0])
    def test_apply_matches_dense_contraction(self, profile, ensemble, t):
        # The coefficients contracted as a dense D^2 x D^2 superoperator,
        # against apply_channel on the same channel.
        spec, model, build, _ = general_case(6, profile, ensemble)
        ch = build(spec, model, t)
        rho = np.random.default_rng(7).standard_normal((6, 6, 2)) @ [1.0, 1j]
        want = (dense_superoperator(ch) @ rho.reshape(-1)).reshape(6, 6)
        assert np.max(np.abs(apply_channel(ch, rho) - want)) <= 1e-14

    def test_each_read_is_a_new_read_only_grid(self, profile, ensemble):
        # A read builds its grid from the stored factors and keeps nothing,
        # so two reads are equal and share no memory; nothing stored or read
        # can be written.
        spec, model, build, _ = general_case(6, profile, ensemble)
        ch = build(spec, model, 0.9)
        for name in ("coeff_A", "coeff_B", "coeff_G"):
            first, second = getattr(ch, name), getattr(ch, name)
            assert np.array_equal(first, second)
            assert not np.shares_memory(first, second)
            assert not first.flags.writeable and not second.flags.writeable
        b = ch.b_part if isinstance(ch.b_part, MarkovFactors) else ()
        for factor in (ch.a_part, ch.g_part, *b):
            assert factor is None or not factor.flags.writeable
        assert isinstance(ch.b_part, MarkovFactors) is (profile != "const")


class TestDenseIdentity:
    """Each builder's grids, built from its factors at each read, against
    ``oracles.dense_coefficients``, which scatters the same closed forms
    into dense grids: equal entry for entry, and byte for byte for every
    GUE grid and every B."""

    TIMES = (0.0, 1e-6, 0.3, 2.5, 40.0)

    @staticmethod
    def assert_identical(ch, spec, model, t):
        for name, want in zip(("coeff_A", "coeff_B", "coeff_G"), dense_coefficients(spec, model, t)):
            got = getattr(ch, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (name, t)
            if model.ensemble is Ensemble.GUE or name == "coeff_B":
                assert got.tobytes() == want.tobytes(), (name, t)

    @pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
    @pytest.mark.parametrize("profile", ["const", "gibbs", "matrix"])
    @pytest.mark.parametrize("dim", [3, 6, 16, 64])
    def test_general_builders(self, dim, profile, ensemble):
        spec, model, build, _ = general_case(dim, profile, ensemble)
        for t in self.TIMES:
            self.assert_identical(build(spec, model, t), spec, model, t)

    @pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
    @pytest.mark.parametrize("dim", [3, 6, 16, 64])
    def test_const_builders(self, dim, ensemble):
        spec = general_case(dim, "const", ensemble)[0]
        build, model = ((u1_gue_const, gue_constant(0.8, dim)) if ensemble is Ensemble.GUE
                        else (u1_goe_const, goe_constant(0.8, dim)))
        for t in self.TIMES:
            self.assert_identical(build(spec, 0.8, t), spec, model, t)


class TestGuePhases:
    """The GUE A as the rank-one p_i conj(p_j) of D phases, against the
    entrywise exponential of the gap grid."""

    @pytest.mark.parametrize("profile", ["const", "gibbs", "matrix"])
    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_rank_one_matches_gap_exponential(self, dim, profile):
        spec, model, _, _ = general_case(dim, profile, Ensemble.GUE)
        j_row = model.lambda_matrix().sum(axis=1)
        w = -1j * spec.gaps() - 0.5 * (j_row[:, None] + j_row[None, :])
        for t in (0.0, 1e-6, 0.3, 2.5, 40.0, 5000.0):
            a = u1_gue_general(spec, model, t).coeff_A
            assert np.max(np.abs(a - np.exp(w * t))) <= 1e-15

    def test_finite_at_huge_J(self, spec4):
        assert np.all(u1_gue_const(spec4, 1e200, 0.0).coeff_A == 1.0)
        for t in (0.0, 1e-6, 0.5):
            ch = u1_gue_const(spec4, 1e200, t)
            for coeff in (ch.coeff_A, ch.coeff_B, ch.coeff_G):
                assert np.all(np.isfinite(coeff))


ENSEMBLE_OF = {u1_gue_general: Ensemble.GUE, u1_goe_general: Ensemble.GOE}


@pytest.mark.parametrize("build", [u1_gue_general, u1_goe_general])
class TestBuilderTimes:
    """Each builder takes one nonnegative finite time through the check the
    diagnostics use."""

    @pytest.mark.parametrize("t", [-0.1, -1e-300, np.nan, -np.inf, np.inf],
                             ids=["negative", "tiny", "nan", "-inf", "inf"])
    def test_refuses_negative_or_nan(self, build, t):
        spec, model, _, _ = general_case(4, "const", ENSEMBLE_OF[build])
        with pytest.raises(ValueError, match="t must be nonnegative"):
            build(spec, model, t)

    @pytest.mark.parametrize("t", [np.array([0.0, 1.0]), [0.5], np.zeros((2, 2))],
                             ids=["array", "list", "grid"])
    def test_refuses_an_array(self, build, t):
        spec, model, _, _ = general_case(4, "const", ENSEMBLE_OF[build])
        with pytest.raises(ValueError, match=r"t must be one time, got an array of shape \("):
            build(spec, model, t)

    def test_zero_dimensional_times(self, build):
        spec, model, _, _ = general_case(4, "gibbs", ENSEMBLE_OF[build])
        want = build(spec, model, 0.7)
        for t in (np.float64(0.7), np.array(0.7)):
            got = build(spec, model, t)
            for name in ("coeff_A", "coeff_B", "coeff_G"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
