import random
from fractions import Fraction

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
from oracles import fraction_lanczos_from_moments, fraction_noisy_moments


class TestSechMoments:
    def test_exact_integers(self):
        # mu_2n of sech(t) are the unsigned Euler numbers.
        mu = sech_moments(5)
        assert mu[:6] == [1, 1, 5, 61, 1385, 50521]

    def test_euler_numbers_match_sympy(self):
        assert sech_moments(60) == [abs(sp.euler(2 * n)) for n in range(61)]

    def test_alpha_scaling(self):
        mu = sech_moments(3, alpha=2.0)
        ref = sech_moments(3)
        assert mu == [ref[n] * 4**n for n in range(4)]

    def test_alpha_is_taken_exactly(self):
        # 0.1 is the dyadic rational nearest 1/10, not 1/10 itself.
        assert sech_moments(2, alpha=0.1)[1] == Fraction(0.1) ** 2


class TestNoisyMoments:
    def test_zero_noise_reduces(self):
        mu = sech_moments(3)
        assert noisy_moments(mu, 0.0, 0.25, 3) == mu

    def test_k0_trace_term_cancels(self):
        mu = sech_moments(1)
        assert noisy_moments(mu, 2.0, 15 / 4, 0) == [1]

    @pytest.mark.parametrize(
        "J, r, J_exact, r_exact",
        [
            (0.5, 0.375, sp.Rational(1, 2), sp.Rational(3, 8)),
            (Fraction(1, 3), Fraction(3, 10), sp.Rational(1, 3), sp.Rational(3, 10)),
        ],
    )
    def test_series_composition_oracle(self, J, r, J_exact, r_exact):
        # Independent oracle: C_J(t) = e^{-Jt}(C_0(t) - r) + r with
        # r = TrO TrO+/D^2 and C_0 = sech; mu_{J;2n} is the 2n-th Taylor
        # coefficient of C_J times (2n)!/i^{2n}.
        t = sp.symbols("t")
        expr = sp.exp(-J_exact * t) * (sp.sech(t) - r_exact) + r_exact
        series = sp.series(expr, t, 0, 11).removeO()
        got = noisy_moments(sech_moments(5), J, r, 5)
        for n in range(6):
            expected = series.coeff(t, 2 * n) * sp.factorial(2 * n) * (-1) ** n
            assert got[n] == Fraction(int(expected.p), int(expected.q))

    def test_too_few_moments(self):
        with pytest.raises(ValueError):
            noisy_moments([1, 1], 0.5, 1.0, 2)


class TestLanczos:
    def test_sech_linear_growth(self):
        res = lanczos_from_moments(sech_moments(12), 12)
        assert np.array_equal(res, np.arange(1, 13))

    def test_cos_breakdown(self):
        # cos has mu_2k = 1: the Krylov space is two-dimensional, so b_1 = 1
        # and the recursion must terminate at level 2.
        with pytest.raises(LanczosBreakdownError) as info:
            lanczos_from_moments([1, 1, 1, 1], 3)
        assert info.value.level == 2
        res = lanczos_from_moments([1, 1], 1)
        assert res[0] == 1.0

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            lanczos_from_moments([2, 1, 1], 2)
        with pytest.raises(ValueError):
            lanczos_from_moments([1 + 2.0**-52, 1, 1], 2)

    def test_too_few_moments(self):
        with pytest.raises(ValueError):
            lanczos_from_moments([1, 1], 5)

    def test_exact_past_n15(self):
        # In floating point the recursion loses digits rapidly with n (8
        # digits are off by ~0.4 at n = 25); exactly, b_n = n.
        res = lanczos_from_moments(sech_moments(25), 25)
        assert np.array_equal(res, np.arange(1, 26))

    def test_random_finite_measures_close_at_their_size(self):
        # m distinct point pairs +-x_i with positive weights w_i: the Krylov
        # space of a 2m-point symmetric measure has dimension 2m, so
        # b_1..b_{2m-1} > 0 and b_{2m}^2 = 0.
        rng = random.Random(2503)
        for _ in range(20):
            m = rng.randint(1, 4)
            points = set()
            while len(points) < m:
                points.add(Fraction(rng.randint(1, 40), rng.randint(1, 12)))
            weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in points]
            total = sum(weights)
            mu = [sum(w * x ** (2 * k) for w, x in zip(weights, points)) / total
                  for k in range(2 * m + 1)]
            head = lanczos_from_moments(mu, 2 * m - 1)
            assert np.all(head > 0.0)
            with pytest.raises(LanczosBreakdownError) as info:
                lanczos_from_moments(mu, 2 * m)
            assert info.value.level == 2 * m


class TestSignedNoisy:
    def test_sign_oscillations_present(self):
        # Noisy sech runs show sign oscillations (negative b_n^2 entries).
        mu = sech_moments(30)
        for J in (0.5, 1.5, 2.0):
            b = signed_lanczos_noisy(mu, J, 1.0, 30)
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
            signed_lanczos_noisy(mu, 1.0, 1.0, 30)
        assert info.value.level == 3
        head = signed_lanczos_noisy(mu, 1.0, 1.0, 2)
        assert head[0] == 1.0
        assert head[1] == -np.sqrt(2.0)

    def test_zero_noise_path_matches(self):
        mu = sech_moments(10)
        a = signed_lanczos_noisy(mu, 0.0, 1.0, 10)
        b = lanczos_from_moments(mu, 10)
        assert np.array_equal(a, b)


class TestScaleFreeBreakdown:
    def test_small_scale_is_not_a_breakdown(self):
        # sech(alpha t) has b_n = n alpha; b_1^2 = 1e-16 is a value, not a
        # closed Krylov space.
        res = lanczos_from_moments(sech_moments(10, alpha=1e-8), 10)
        n = np.arange(1, 11)
        assert np.max(np.abs(res / (n * 1e-8) - 1.0)) < 1e-15

    @pytest.mark.parametrize("levels", [("1.1", "2.3"), ("0.7", "3.1")])
    @pytest.mark.parametrize("s", [1e-8, 1.0, 1e10])
    def test_finite_spectrum_closes_at_any_scale(self, s, levels):
        # Levels at +-e1 s and +-e2 s: a four-point symmetric measure has
        # three b_n, and the recursion must stop at level 4 whatever s is.
        e1, e2 = (Fraction(e) * Fraction(s) for e in levels)
        mu = [(e1 ** (2 * k) + e2 ** (2 * k)) / 2 for k in range(9)]
        with pytest.raises(LanczosBreakdownError) as info:
            lanczos_from_moments(mu, 8)
        assert info.value.level == 4
        head = lanczos_from_moments(mu, 3) / s
        assert np.all(head > 0.0)
        x1, x2 = (float(e) for e in levels)
        assert abs(head[0] - np.sqrt((x1**2 + x2**2) / 2)) < 1e-12


def _lanczos_outcome(lanczos, moments, n_max):
    """The b_n bytes, or the breakdown level."""
    try:
        return lanczos(moments, n_max).tobytes()
    except LanczosBreakdownError as exc:
        return ("breakdown", exc.level)


class TestIntegerRowsMatchFractionOracle:
    """The integer-row moments and recursion against the Fraction-per-entry
    reference: equal moments, bit-identical b_n and the same breakdown
    levels."""

    @staticmethod
    def _check(moments, n_max):
        got = _lanczos_outcome(lanczos_from_moments, moments, n_max)
        assert got == _lanczos_outcome(fraction_lanczos_from_moments, moments, n_max)
        return got

    @staticmethod
    def _finite_measure(rng, n_points, signed):
        # Symmetric measure on n_points pairs +-x_i, normalized to mu_0 = 1;
        # signed weights make b_n^2 < 0 possible, as noise does.
        points = set()
        while len(points) < n_points:
            points.add(Fraction(rng.randint(1, 30), rng.randint(1, 9)))
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in points]
        if signed:
            weights = [w * rng.choice((-1, 1)) for w in weights]
        total = sum(weights)
        if total == 0:
            weights[0] += 1
            total += 1
        return lambda k: sum(w * x ** (2 * k) for w, x in zip(weights, points)) / total

    def test_random_inputs(self):
        rng = random.Random(1403)
        rates = (0.0, 0.25, 0.5, 1.5, Fraction(1, 3), 0.1, Fraction(7, 5))
        breakdowns = set()
        for case in range(60):
            n_max = rng.randint(1, 14)
            kind = case % 3
            if kind == 0:
                mu = sech_moments(n_max, alpha=rng.choice((1.0, 0.5, 0.1, Fraction(1, 3))))
            elif kind == 1:
                measure = self._finite_measure(rng, rng.randint(1, 4), signed=case % 2 == 0)
                mu = [measure(k) for k in range(n_max + 1)]
            else:
                mu = [Fraction(1)] + [
                    Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(n_max)
                ]
            J, r = rng.choice(rates), rng.choice((1.0, 0.375, 0.0, Fraction(1, 3)))
            moments = noisy_moments(mu, J, r, n_max)
            assert moments == fraction_noisy_moments(mu, J, r, n_max)
            for seq in (mu, moments):
                got = self._check(seq, n_max)
                if isinstance(got, tuple):
                    breakdowns.add(got[1])
        # The finite measures close their Krylov space at several levels.
        assert len(breakdowns) >= 3

    def test_bench_rates_at_n60(self):
        mu = sech_moments(60)
        for J in [0.0] + [k / 8 for k in range(1, 17)]:
            moments = noisy_moments(mu, J, 1.0, 60)
            assert moments == fraction_noisy_moments(mu, J, 1.0, 60)
            got = self._check(moments, 60)
            assert isinstance(got, tuple) is (J == 1.0)

