import numpy as np
import pytest

from noisychaos import (
    GibbsProfile,
    MatrixProfile,
    NoiseModel,
    Spectrum,
    apply_channel,
    goe_constant,
    gue_constant,
    sample_gue_spectrum,
    u1_goe_const,
    u1_goe_general,
    u1_gue_const,
    u1_gue_general,
)
from noisychaos.channel_one import _forced_linear, goe_params
from noisychaos.noise import Ensemble

from conftest import random_density, random_hermitian
from oracles import apply_generator, build_L1, choi_matrix, dense_superoperator


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


class TestGoeParams:
    def test_identities(self, spec5):
        d = spec5.dim
        model = goe_constant(0.8, d)
        p = goe_params(spec5, model)
        gen = build_L1(spec5, model)
        w, wt = gen.w, gen.w.T
        lam = model.lambda_matrix()
        assert np.max(np.abs(p.c_plus + p.c_minus - 2.0)) < 1e-12
        assert np.max(np.abs(p.z_plus + p.z_minus - (w + wt))) < 1e-12
        assert (
            np.max(np.abs((p.z_plus - p.z_minus) ** 2 - ((w - wt) ** 2 + lam**2)))
            < 1e-12
        )

    def test_diagonal_const_case(self, spec5):
        d = spec5.dim
        J = 0.8
        p = goe_params(spec5, goe_constant(J, d))
        i = np.arange(d)
        assert np.allclose(p.g[i, i], 1.0)
        assert np.allclose(p.c_plus[i, i], 1.0)
        assert np.allclose(p.c_minus[i, i], 1.0)
        assert np.allclose(p.z_plus[i, i], -(d + 1) * J / (2 * d) + J / (2 * d))
        assert np.allclose(p.z_minus[i, i], -(d + 1) * J / (2 * d) - J / (2 * d))

    def test_small_J_expansion(self, spec4):
        # g ~ -iJ/(2 D|E_ij|); c± ~ 1 ∓ sgn(E_ij); z± ~ ±i|E_ij| - (D+1)J/(2D).
        d = spec4.dim
        gaps = spec4.gaps()
        off = ~np.eye(d, dtype=bool)
        J = 1e-3 * np.abs(gaps[off]).min()
        p = goe_params(spec4, goe_constant(J, d))
        absg = np.abs(gaps)[off]
        g_exp = -1j * J / (2 * d * absg)
        assert np.max(np.abs(p.g[off] - g_exp) / np.abs(g_exp)) < 1e-5
        cp_exp = 1.0 - gaps[off] / absg
        cm_exp = 1.0 + gaps[off] / absg
        assert np.max(np.abs(p.c_plus[off] - cp_exp)) < 1e-5
        assert np.max(np.abs(p.c_minus[off] - cm_exp)) < 1e-5
        zp_exp = 1j * absg - (d + 1) * J / (2 * d)
        zm_exp = -1j * absg - (d + 1) * J / (2 * d)
        assert np.max(np.abs(p.z_plus[off] - zp_exp) / np.abs(zp_exp)) < 1e-5
        assert np.max(np.abs(p.z_minus[off] - zm_exp) / np.abs(zm_exp)) < 1e-5

    def test_large_J_expansion(self, spec4):
        # g ~ 1; c± ~ 1 ∓ 2iDE_ij/J; z± ~ -(D+1)J/(2D) ± J/(2D).
        d = spec4.dim
        gaps = spec4.gaps()
        off = ~np.eye(d, dtype=bool)
        J = 1e3 * np.abs(gaps[off]).max()
        p = goe_params(spec4, goe_constant(J, d))
        # g = 1 + O(J^-2); the neglected term is (2 D E_ij / J)^2 / 2 ~ 1e-4
        assert np.max(np.abs(p.g[off] - 1.0)) < 1e-4
        assert np.max(np.abs(p.c_plus[off] - (1.0 - 2j * d * gaps[off] / J))) < 1e-5
        assert np.max(np.abs(p.c_minus[off] - (1.0 + 2j * d * gaps[off] / J))) < 1e-5
        z_scale = J
        assert (
            np.max(np.abs(p.z_plus[off] - (-(d + 1) * J / (2 * d) + J / (2 * d))))
            / z_scale
            < 1e-5
        )
        assert (
            np.max(np.abs(p.z_minus[off] - (-(d + 1) * J / (2 * d) - J / (2 * d))))
            / z_scale
            < 1e-5
        )


class TestDegenerateGoePair:
    """A degenerate level pair with lambda_12 = 0 makes the GOE root vanish
    at (1, 2), where g and the ratio are taken as 0."""

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
        for grid in (p.g, p.c_plus, p.c_minus, p.z_plus, p.z_minus):
            assert np.all(np.isfinite(grid))
        for i, j in ((1, 2), (2, 1)):
            assert p.g[i, j] == 0.0
            assert p.c_plus[i, j] == 1.0 and p.c_minus[i, j] == 1.0

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
        halved = _forced_linear((lam - np.diag(j_row)) / 2.0, lam / 2.0, -j_row / 2.0, t)
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


def general_case(dim, profile, ensemble):
    """Spectrum, non-constant noise model and builder for one general case."""
    rng = np.random.default_rng(100 + dim)
    spec = sample_gue_spectrum(dim, rng)
    if profile == "matrix":
        prof = MatrixProfile(random_symmetric_lambda(dim, rng))
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

