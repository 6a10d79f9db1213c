import mpmath
import numpy as np
import pytest
import sympy as sp

from noisychaos import (
    LanczosBreakdownError,
    lanczos_from_moments,
    noisy_moments,
    sech_moments,
    signed_lanczos_noisy,
)


class TestSechMoments:
    def test_exact_integers(self):
        # mu_2n of sech(t) are the unsigned Euler numbers.
        mu = sech_moments(5)
        assert mu[:6] == [1, 1, 5, 61, 1385, 50521]

    def test_alpha_scaling(self):
        mu = sech_moments(3, alpha=2.0)
        ref = sech_moments(3)
        for n in range(4):
            assert abs(float(mu[n]) - ref[n] * 4.0**n) < 1e-9 * ref[n] * 4.0**n


class TestNoisyMoments:
    def test_zero_noise_reduces(self):
        mu = sech_moments(3)
        out = noisy_moments(mu, 0.0, tr_o=1.0, tr_odag=1.0, D=2, k_max=6)
        for k in range(7):
            if k % 2:
                assert abs(out[k]) == 0
            else:
                assert abs(out[k] - mu[k // 2]) == 0

    def test_k0_trace_term_cancels(self):
        mu = sech_moments(1)
        out = noisy_moments(mu, 2.0, tr_o=3.0, tr_odag=5.0, D=2, k_max=0)
        assert abs(out[0] - 1) == 0

    def test_series_composition_oracle(self):
        # Independent oracle: C_J(t) = e^{-Jt}(C_0(t) - r) + r with
        # r = TrO TrO+/D^2 and C_0 = sech; mu_{J;k} is the k-th Taylor
        # coefficient of C_J times k!/i^k.
        t, r = sp.symbols("t"), sp.Rational(3, 10)
        J = sp.Rational(1, 2)
        expr = sp.exp(-J * t) * (sp.sech(t) - r) + r
        series = sp.series(expr, t, 0, 9).removeO()
        got = noisy_moments(sech_moments(4), 0.5, tr_o=0.3, tr_odag=1.0, D=1, k_max=8)
        for k in range(9):
            expected = complex(series.coeff(t, k) * sp.factorial(k) / sp.I**k)
            assert abs(complex(got[k]) - expected) < 1e-12 * max(1.0, abs(expected))

    def test_even_moments_real(self):
        out = noisy_moments(sech_moments(5), 1.3, tr_o=1.0, tr_odag=1.0, D=1, k_max=10)
        for k in range(0, 11, 2):
            assert abs(complex(out[k]).imag) < 1e-25


class TestLanczos:
    def test_sech_linear_growth(self):
        res = lanczos_from_moments(sech_moments(12), 12)
        assert np.max(np.abs(res.b_signed - np.arange(1, 13))) < 1e-6

    def test_cos_breakdown(self):
        # cos has mu_2k = 1: the Krylov space is two-dimensional, so b_1 = 1
        # and the recursion must terminate at level 2.
        with pytest.raises(LanczosBreakdownError) as info:
            lanczos_from_moments([1, 1, 1, 1], 3)
        assert info.value.level == 2
        res = lanczos_from_moments([1, 1], 1)
        assert res.b_signed[0] == 1.0

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            lanczos_from_moments([2, 1, 1], 2)

    def test_too_few_moments(self):
        with pytest.raises(ValueError):
            lanczos_from_moments([1, 1], 5)

    def test_precision_matters_past_n15(self):
        # The recursion loses digits rapidly with n: 8-digit arithmetic is
        # off by ~0.4 at n = 25 where the 60-digit run is exact to 1e-6.
        # This guards the extended-precision design choice.
        mu = sech_moments(25)
        hi = lanczos_from_moments(mu, 25, dps=60)
        lo = lanczos_from_moments(mu, 25, dps=8)
        assert np.max(np.abs(hi.b_signed - np.arange(1, 26))) < 1e-6
        assert np.max(np.abs(lo.b_signed - np.arange(1, 26))) > 1e-3


class TestSignedNoisy:
    def test_sign_oscillations_present(self):
        # Noisy sech runs show sign oscillations (negative b_n^2 entries).
        mu = sech_moments(30)
        for J in (0.5, 1.5, 2.0):
            b = signed_lanczos_noisy(mu, J, 1.0, 30, dps=200).b_signed
            assert np.any(b < 0)
            assert np.all(np.isfinite(b))

    def test_exact_degeneracy_at_matched_rate(self):
        # With C(t) = sech(t), trace ratio 1 and J equal to the sech rate,
        # the even part of the noisy autocorrelation C_J(-it) collapses to
        # 2 - cos(t): a three-point signed spectral measure.  The Krylov
        # space is exactly three-dimensional, so the recursion must stop
        # with b_3 = 0 rather than emit noise-amplified garbage.
        mu = sech_moments(30)
        with pytest.raises(LanczosBreakdownError) as info:
            signed_lanczos_noisy(mu, 1.0, 1.0, 30, dps=200)
        assert info.value.level == 3
        head = signed_lanczos_noisy(mu, 1.0, 1.0, 2, dps=60).b_signed
        assert abs(head[0] - 1.0) < 1e-12
        assert abs(head[1] + np.sqrt(2.0)) < 1e-12

    def test_zero_noise_path_matches(self):
        mu = sech_moments(10)
        a = signed_lanczos_noisy(mu, 0.0, 1.0, 10).b_signed
        b = lanczos_from_moments(mu, 10).b_signed
        assert np.array_equal(a, b)


class TestScaleFreeBreakdown:
    def test_small_scale_is_not_a_breakdown(self):
        # sech(alpha t) has b_n = n alpha; b_1^2 = 1e-16 is a value, not a
        # closed Krylov space.
        res = lanczos_from_moments(sech_moments(10, alpha=1e-8), 10)
        n = np.arange(1, 11)
        assert np.max(np.abs(res.b_signed / (n * 1e-8) - 1.0)) < 1e-9

    @pytest.mark.parametrize("dps", [30, 60])
    @pytest.mark.parametrize("s", [1e-8, 1.0, 1e10])
    def test_finite_spectrum_closes_at_any_scale(self, s, dps):
        # Levels at +-1.1 s and +-2.3 s: a four-point symmetric measure has
        # three b_n, and the recursion must stop at level 4 whatever s is.
        with mpmath.workdps(dps):
            e1, e2 = mpmath.mpf("1.1") * s, mpmath.mpf("2.3") * s
            mu = [(e1 ** (2 * k) + e2 ** (2 * k)) / 2 for k in range(9)]
        with pytest.raises(LanczosBreakdownError) as info:
            lanczos_from_moments(mu, 8, dps=dps)
        assert info.value.level == 4
        head = lanczos_from_moments(mu, 3, dps=dps).b_signed / s
        assert np.all(head > 0.0)
        assert abs(head[0] - np.sqrt((1.1**2 + 2.3**2) / 2)) < 1e-12
