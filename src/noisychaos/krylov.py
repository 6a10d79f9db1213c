"""Moments of the noise-averaged autocorrelation and Lanczos coefficients.

Every input is rational: the Euler numbers are integers, and a float J,
alpha or trace ratio is an exact dyadic rational.  The moment-to-b_n
recursion loses digits catastrophically past n ~ 15 in floating point, so
the moments and the recursion run exactly in ``fractions.Fraction``; b_n is
rounded to float once, at the end, and a Krylov breakdown is b_m^2 == 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np


class LanczosBreakdownError(ArithmeticError):
    """The Krylov space is exhausted at some level: b_m^2 is exactly 0."""

    def __init__(self, level: int):
        super().__init__(f"Lanczos recursion breakdown at level {level}")
        self.level = level


def sech_moments(n_max: int, alpha: float = 1.0) -> list[Fraction]:
    """Even moments mu_2n of C(t) = sech(alpha t), n = 0..n_max, exactly:
    C(-it) = sec(alpha t), so mu_2n = |E_2n| alpha^2n.

    |E_2n| is the zigzag number A_2n, the last entry of row 2n of the
    Seidel-Entringer boustrophedon triangle.
    """
    row, euler = [1], [1]
    for k in range(1, 2 * n_max + 1):
        row = list(accumulate(reversed(row), initial=0))
        if k % 2 == 0:
            euler.append(row[-1])
    a2 = Fraction(alpha) ** 2
    return [e * a2**n for n, e in enumerate(euler)]


def noisy_moments(
    mu_even, J: float, trace_product_ratio: float, n_max: int
) -> list[Fraction]:
    """Even moments mu_{J;2n}, n = 0..n_max, of C_J(-it) for constant GUE
    noise, exactly.

    From C_J(t) = e^{-Jt}(C_0(t) - r) + r with r = TrO TrO+/D^2, and odd
    mu_k vanishing, only even powers of iJ enter:

        mu_{J;2n} = sum_j binom(2n, 2j) (-J^2)^j mu_{2n-2j}
                    + r (delta_{n0} - (-J^2)^n)
    """
    if len(mu_even) < n_max + 1:
        raise ValueError(f"need {n_max + 1} even moments, got {len(mu_even)}")
    mu = [Fraction(m) for m in mu_even[: n_max + 1]]
    r = Fraction(trace_product_ratio)
    step = -Fraction(J) ** 2
    powers = [Fraction(1)]  # (-J^2)^j
    for _ in range(n_max):
        powers.append(powers[-1] * step)
    return [
        sum(math.comb(2 * n, 2 * j) * powers[j] * mu[n - j] for j in range(n + 1))
        + r * ((n == 0) - powers[n])
        for n in range(n_max + 1)
    ]


def lanczos_from_moments(moments, n_max: int) -> np.ndarray:
    """Signed Lanczos coefficients sgn(b_n^2)|b_n|, n = 1..n_max, as a
    float64 array, from even moments via the moment recursion, in exact
    rational arithmetic.

    ``moments[k]`` is mu_2k (k = 0..n_max at least), the Taylor data of
    C(-it), each an int, float or Fraction; moments[0] must be exactly 1.
    b_n = sqrt(M^(n)_2n); for noisy inputs M^(n)_2n can turn negative, in
    which case the signed value sgn(M) sqrt(|M|) is reported (b_n purely
    imaginary).  The Krylov space has closed at level m when b_m^2 == 0.
    """
    if len(moments) < n_max + 1:
        raise ValueError(
            f"need {n_max + 1} even moments for n_max={n_max}, got {len(moments)}"
        )
    mu = [Fraction(m) for m in moments[: n_max + 1]]
    if mu[0] != 1:
        raise ValueError(f"moments must be normalized, mu_0 = {mu[0]}")
    # prev1[k] = M^(m-1)_2k and prev2[k] = M^(m-2)_2k, with M^(-1) = 0 and
    # M^(0)_2k = mu_2k; b2 = [b_{m-2}^2, b_{m-1}^2], b_{-1}^2 = b_0^2 = 1.
    prev2, prev1 = [Fraction(0)] * (n_max + 1), mu
    b2 = [Fraction(1), Fraction(1)]
    signed = []
    for m in range(1, n_max + 1):
        row = [Fraction(0)] * m + [
            prev1[k] / b2[1] - prev2[k - 1] / b2[0] for k in range(m, n_max + 1)
        ]
        if row[m] == 0:
            raise LanczosBreakdownError(m)
        # sqrt(p/q) = sqrt(p q 4^64)/(q 2^64); the integer floor is off by
        # < 2^-63 relative, so this rounds as the exact |b_m| does unless
        # that lies within 2^-63 of a midpoint between two floats.
        p, q = abs(row[m].numerator), row[m].denominator
        root = Fraction(math.isqrt(p * q << 128), q << 64)
        signed.append(math.copysign(float(root), row[m]))
        b2 = [b2[1], row[m]]
        prev2, prev1 = prev1, row
    return np.array(signed)


def signed_lanczos_noisy(
    mu_even, J: float, trace_product_ratio: float, n_max: int
) -> np.ndarray:
    """Signed b_n of the noisy autocorrelation: the exact even moments
    mu_{J;2n} through the exact recursion.  ``trace_product_ratio`` is
    TrO TrO+ / D^2 (the only combination that enters, so D drops out)."""
    return lanczos_from_moments(
        noisy_moments(mu_even, J, trace_product_ratio, n_max), n_max
    )
