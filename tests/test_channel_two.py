from fractions import Fraction

import numpy as np
import pytest

from noisychaos import (
    Spectrum,
    UnsupportedDimensionError,
    decay_rates,
    f_coefficients,
    f_matrix,
    otoc,
    sff_squared_mean,
    sff_variance,
    sample_gue_spectrum,
)
from noisychaos.diagnostics import sff_gue_const

from conftest import random_hermitian
from oracles import build_M, generator_rows, sff_moments_reference


class TestFCoefficients:
    @pytest.mark.parametrize("D", [3, 5, 10, 100])
    def test_identity_at_t0(self, D):
        f = f_coefficients(D, 1.7, 0.0)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.max(np.abs(f - expected)) < 1e-12

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_noiseless_limit(self, t):
        f = f_coefficients(7, 0.0, t)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.max(np.abs(f - expected)) < 1e-12

    @pytest.mark.parametrize("t", [-0.5, np.nan, np.array([0.0, np.nan]), np.inf,
                                   np.array([0.0, np.inf])],
                             ids=["negative", "nan", "nan-in-grid", "inf", "inf-in-grid"])
    @pytest.mark.parametrize("form", ["f_coefficients", "sff_squared_mean", "sff_variance",
                                      "otoc"])
    def test_refuse_negative_or_nan_times(self, form, t):
        spec = sample_gue_spectrum(4, np.random.default_rng(3))
        a = np.diag([1.0, -1.0, 1.0, -1.0])
        b = np.roll(np.eye(4), 1, axis=0) + np.roll(np.eye(4), -1, axis=0)
        calls = {
            "f_coefficients": lambda: f_coefficients(4, 1.0, t),
            "sff_squared_mean": lambda: sff_squared_mean(spec, 1.0, t),
            "sff_variance": lambda: sff_variance(spec, 1.0, t),
            "otoc": lambda: otoc(spec, 1.0, t, a, b),
        }
        with pytest.raises(ValueError, match="t must be nonnegative"):
            calls[form]()

    @pytest.mark.parametrize("D", [1, 2])
    def test_small_dims_rejected(self, D):
        with pytest.raises(UnsupportedDimensionError):
            f_coefficients(D, 1.0, 1.0)

    def test_rows_are_exact_fractions(self):
        rows = f_matrix(5)
        assert len(rows) == 8 and all(len(r) == 5 for r in rows)
        assert all(isinstance(x, Fraction) for r in rows for x in r)
        # each row sums to f_a(0): 1 for the first row, 0 for the rest
        sums = [sum(r) for r in rows]
        assert sums[0] == 1
        assert all(s == 0 for s in sums[1:])

    def test_ode_residual(self):
        # f solves f' = M~ f with M~ = M at w = -2J; central differences.
        D, J, h = 10, 1.0, 1e-4
        m = build_M(D, J, -2.0 * J)
        grid = np.linspace(2 * h, 5.0, 200)
        worst = 0.0
        for t in grid:
            deriv = (f_coefficients(D, J, t + h) - f_coefficients(D, J, t - h)) / (2 * h)
            worst = max(worst, np.max(np.abs(deriv - m @ f_coefficients(D, J, t))))
        assert worst < 1e-6

    def test_sum_rules(self):
        # f1 + f6 = e^{-2Jt} cosh(2Jt/D) and 2 f3 = -e^{-2Jt} sinh(2Jt/D).
        D, J = 6, 0.9
        for t in (0.2, 1.0, 3.5):
            f = f_coefficients(D, J, t)
            assert abs(f[0] + f[5] - np.exp(-2 * J * t) * np.cosh(2 * J * t / D)) < 1e-12
            assert abs(2 * f[2] + np.exp(-2 * J * t) * np.sinh(2 * J * t / D)) < 1e-12


class TestBuildM:
    def test_dimension_two_is_not_diagonalizable(self):
        # With build_M's guard lifted, the generator of f (M at w = -2J) at
        # D = 2 has only four distinct rates, {0, -1, -2, -3} at J = 1, and
        # prod (M - r) over them is not 0: f then carries x e^{-x} terms,
        # which no rows over the five exponentials give.  At D >= 3 the five
        # rates are distinct and the product vanishes.
        J = Fraction(1)
        for D, vanishes in ((2, False), (3, True), (5, True)):
            m = np.array(generator_rows(D, J), dtype=object) - 2 * J * np.eye(8, dtype=int)
            rates = {Fraction(0), -J, -(2 - Fraction(2, D)) * J, -2 * J, -(2 + Fraction(2, D)) * J}
            assert len(rates) == (4 if D == 2 else 5)
            product = np.eye(8, dtype=int).astype(object)
            for r in rates:
                product = product @ (m - r * np.eye(8, dtype=int))
            assert all(isinstance(x, Fraction) for x in product.flat)
            assert max(abs(x) for x in product.flat) == (0 if vanishes else 1)

    def test_zero_noise_is_scalar(self):
        w = -0.3 + 0.2j
        assert np.allclose(build_M(9, 0.0, w), w * np.eye(8))

    def test_printed_entries(self):
        D, J, w = 7, 1.3, 0.0
        m = build_M(D, J, w)
        assert m[0, 2] == pytest.approx(-2 * J / D)
        assert m[4, 4] == pytest.approx(2 * J + w)

    def test_decay_rate_spectrum(self):
        # Eigenvalues of M~ lie in the five exponential rates.
        D, J = 10, 0.8
        ev = np.linalg.eigvals(build_M(D, J, -2.0 * J))
        rates = decay_rates(D, J)
        dist = np.abs(ev[:, None] - rates[None, :]).min(axis=1)
        assert np.max(dist) < 1e-10


class TestSffVariance:
    def test_t0_is_exact_fourth_power(self, spec5):
        assert sff_squared_mean(spec5, 0.9, 0.0) == spec5.dim**4

    def test_zero_noise_deterministic(self, spec5):
        # J=0: E[(TrU TrU+)^2] = (TrU0 TrU0+)^2, and the variance is exactly 0
        # on a whole grid, as it is at t = 0 under noise.
        t = 1.3
        phases = np.exp(-1j * spec5.energies * t)
        tr2 = np.abs(phases.sum()) ** 2
        assert abs(sff_squared_mean(spec5, 0.0, t) - tr2**2) < 1e-10
        grid = np.linspace(0.0, 20.0, 101)
        assert np.all(sff_variance(spec5, 0.0, grid).variance == 0.0)
        assert sff_variance(spec5, 0.9, 0.0).variance == 0.0

    @pytest.mark.parametrize("t", [0.4, 1.1, 2.6])
    def test_variance_nonnegative(self, spec5, t):
        assert sff_variance(spec5, 0.9, t).variance > -1e-9

    def test_second_moment_consistency(self, spec5):
        # sff_variance must assemble its mean from the same K_J closed form.
        t, J = 1.1, 0.9
        sv = sff_variance(spec5, J, t)
        k = sff_gue_const(spec5, J, [0.0, t])[1]
        d = spec5.dim
        assert abs(sv.second_moment - sv.variance - (d**2 * k) ** 2) < 1e-9

    @pytest.mark.parametrize("J", [1e-6, 1e-3, 0.1, 1.0])
    def test_variance_against_reference(self, spec5, J):
        # A 60-digit evaluation of E|TrU|^4 - (D^2 K_J)^2.  Small J t is where
        # subtracting the two moments in floating point loses digits.
        t = np.linspace(0.0, 20.0, 101)
        _, expected = sff_moments_reference(spec5, J, t)
        variance = sff_variance(spec5, J, t).variance
        nonzero = expected != 0.0
        assert np.all(variance[~nonzero] == 0.0)
        assert np.max(np.abs(variance - expected)[nonzero] / np.abs(expected[nonzero])) <= 1e-12


class TestOtoc:
    @pytest.fixture
    def ops(self, rng):
        a = random_hermitian(6, rng, traceless=True)
        b = random_hermitian(6, rng, traceless=True)
        return a, b

    def test_zero_noise_reduction(self, ops):
        # J = 0 is (1/D) Tr(A B_t A B_t) with B_t = U^+ B U, U = e^{-iH0 t}.
        spec = sample_gue_spectrum(6, np.random.default_rng(3))
        a, b = ops
        for t in (0.0, 0.7, 2.1):
            u = np.diag(np.exp(-1j * spec.energies * t))
            b_t = u.conj().T @ b @ u
            direct = np.trace(a @ b_t @ a @ b_t) / 6
            assert abs(otoc(spec, 0.0, t, a, b) - direct) < 1e-12

    def test_t0_untouched_by_noise(self, ops):
        spec = sample_gue_spectrum(6, np.random.default_rng(3))
        a, b = ops
        direct = np.trace(a @ b @ a @ b) / 6
        assert abs(otoc(spec, 1.7, 0.0, a, b) - direct) < 1e-12

    def test_traceless_precondition(self, spec5, rng):
        a = random_hermitian(5, rng, traceless=True)
        b = random_hermitian(5, rng)  # traceful
        with pytest.raises(ValueError):
            otoc(spec5, 1.0, 1.0, a, b)

    @pytest.mark.parametrize("scale", [1e-6, 1e3, 1e7])
    @pytest.mark.parametrize("which", ["A", "B"])
    def test_hermitian_precondition_is_relative(self, spec5, rng, which, scale):
        # Each operator is refused once an entry of op - op+ exceeds 1e-10
        # of its largest entry, whatever the operator's size.
        ops = {k: scale * random_hermitian(5, rng, traceless=True) for k in "AB"}
        top = np.abs(ops[which]).max()
        for skew, refused in ((2e-10, True), (5e-11, False)):
            op = ops[which].astype(complex)
            op[0, 1] += skew * top
            args = {**ops, which: op}
            if refused:
                with pytest.raises(ValueError, match=f"{which} must be Hermitian"):
                    otoc(spec5, 1.0, 1.0, args["A"], args["B"])
            else:
                assert np.isfinite(otoc(spec5, 1.0, 1.0, args["A"], args["B"]))

    def test_traceless_precondition_is_relative(self, rng):
        # At D = 64 a traceless operator scaled by 1e7 keeps a roundoff
        # trace of about 1e-9, above an absolute 1e-10, and is accepted;
        # 1e-12 (I + A), whose trace 6.4e-11 is below it, has a diagonal
        # mean as large as its entries and is refused.
        d = 64
        spec = sample_gue_spectrum(d, np.random.default_rng(2))
        a = random_hermitian(d, rng, traceless=True)
        b = random_hermitian(d, rng, traceless=True)
        big = 1e7 * a
        assert abs(np.trace(big)) > 1e-10
        assert np.isfinite(otoc(spec, 1.0, 0.5, big, b))
        small = 1e-12 * (np.eye(d) + a)
        assert abs(np.trace(small)) < 1e-10
        with pytest.raises(ValueError, match="A must be traceless"):
            otoc(spec, 1.0, 0.5, small, b)

    @pytest.mark.parametrize("shape", [(15,), (3, 5)])
    def test_phases_match_dense(self, shape):
        # The traces take B_t from D phases per point.  At J = 0 the OTOC
        # is (1/D) Tr(A B_t A B_t), B_t = U+ B U; at J = 1 the dense traces
        # enter the closed form.
        d = 100
        rng = np.random.default_rng(8)
        spec = sample_gue_spectrum(d, rng)
        a = random_hermitian(d, rng, traceless=True) / np.sqrt(d)
        b = random_hermitian(d, rng, traceless=True) / np.sqrt(d)
        t = np.linspace(0.0, 12.0, 15).reshape(shape)
        otoc0, tr_ab = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        for idx in np.ndindex(shape):
            u = np.diag(np.exp(-1j * spec.energies * t[idx]))
            b_t = u.conj().T @ b @ u
            otoc0[idx] = np.trace(a @ b_t @ a @ b_t) / d
            tr_ab[idx] = np.trace(a @ b_t)
        f = f_coefficients(d, 1.0, t)
        otoc1 = (f[..., 0] + f[..., 5]) * otoc0 + (2.0 / d) * f[..., 2] * tr_ab**2
        for J, dense in ((0.0, otoc0), (1.0, otoc1)):
            values = otoc(spec, J, t, a, b)
            assert values.shape == shape
            assert np.max(np.abs(values - dense)) < 1e-12

    def test_large_D_factorized_law(self):
        # |OTOC_J - e^{-2Jt} OTOC_0| <= C/D with C stable across D.
        # Operators are Pauli-normalized, Tr(A^2) = D, so OTOC_0 is O(1).
        J, t = 1.0, 1.0
        cs = []
        for d in (8, 16, 32, 64):
            rng = np.random.default_rng(d)
            spec = sample_gue_spectrum(d, rng)
            a = random_hermitian(d, rng, traceless=True)
            b = random_hermitian(d, rng, traceless=True)
            a *= np.sqrt(d / np.trace(a @ a).real)
            b *= np.sqrt(d / np.trace(b @ b).real)
            gap = abs(
                otoc(spec, J, t, a, b)
                - np.exp(-2 * J * t) * otoc(spec, 0.0, t, a, b)
            )
            cs.append(gap * d)
        assert max(cs) < 10.0 * max(min(cs), 1e-3)


class TestGridCalls:
    # A grid call must give its points' scalar calls exactly.
    T = np.array([0.0, 0.3, 1.1, 2.6, 9.0, 40.0])

    def test_f_coefficients(self):
        grid = f_coefficients(7, 0.9, self.T)
        assert grid.shape == (self.T.size, 8)
        assert np.array_equal(grid, [f_coefficients(7, 0.9, t) for t in self.T])

    def test_sff_squared_mean_and_variance(self, spec5):
        grid = sff_squared_mean(spec5, 0.9, self.T)
        assert grid.shape == self.T.shape
        assert np.array_equal(grid, [sff_squared_mean(spec5, 0.9, t) for t in self.T])
        var = sff_variance(spec5, 0.9, self.T).variance
        assert np.array_equal(var, [sff_variance(spec5, 0.9, t).variance for t in self.T])

    def test_otoc(self, rng):
        spec = sample_gue_spectrum(6, np.random.default_rng(3))
        a = random_hermitian(6, rng, traceless=True)
        b = random_hermitian(6, rng, traceless=True)
        grid = otoc(spec, 0.9, self.T, a, b)
        assert grid.shape == self.T.shape
        assert np.array_equal(grid, [otoc(spec, 0.9, t, a, b) for t in self.T])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            f_coefficients(5, 1.0, np.array([0.0, -1e-3]))
