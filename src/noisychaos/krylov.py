"""Moments of the noise-averaged autocorrelation and Lanczos coefficients.

Every input is rational: the Euler numbers are integers, and a float J,
alpha or trace ratio is an exact dyadic rational.  The moment-to-b_n
recursion loses digits catastrophically past n ~ 15 in floating point, so
the moments and the recursion run exactly, on Python ints.  The moments
share one denominator, so each mu_{J;2n} is one integer ratio.  The
recursion reads only ratios within a row, so each row is an integer vector
divided by the gcd of its entries, and its integers stay about the size of
the reduced fractions.  b_n is rounded to float once, at the end, and a
Krylov breakdown is b_m^2 == 0.
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


def _integer_row(values) -> tuple[list[int], int]:
    """Integers a_k and L > 0 with values[k] == a_k / L exactly, L the
    least common denominator."""
    fracs = [Fraction(v) for v in values]
    big_l = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (big_l // f.denominator) for f in fracs], big_l


def noisy_moments(
    mu_even, J: float, trace_product_ratio: float, n_max: int
) -> list[Fraction]:
    """Even moments mu_{J;2n}, n = 0..n_max, of C_J(-it) for constant GUE
    noise, exactly.

    From C_J(t) = e^{-Jt}(C_0(t) - r) + r with r = TrO TrO+/D^2, and odd
    mu_k vanishing, only even powers of iJ enter:

        mu_{J;2n} = sum_j binom(2n, 2j) (-J^2)^j mu_{2n-2j}
                    + r (delta_{n0} - (-J^2)^n)

    With J = p/q, r = s/u and mu_2k = a_k/L, the sum is an integer over
    q^2n L, so each mu_{J;2n} is one integer ratio, reduced once.
    """
    if len(mu_even) < n_max + 1:
        raise ValueError(f"need {n_max + 1} even moments, got {len(mu_even)}")
    a, big_l = _integer_row(mu_even[: n_max + 1])
    jj, r = Fraction(J), Fraction(trace_product_ratio)
    step, q2 = -jj.numerator**2, jj.denominator**2
    powers, q_powers = [1], [1]  # (-p^2)^j and q^2j
    for _ in range(n_max):
        powers.append(powers[-1] * step)
        q_powers.append(q_powers[-1] * q2)
    qa = [qk * ak for qk, ak in zip(q_powers, a)]  # q^2k a_k
    s, u = r.numerator * big_l, r.denominator
    return [
        Fraction(
            u * sum(math.comb(2 * n, 2 * j) * powers[j] * qa[n - j] for j in range(n + 1))
            + s * ((n == 0) - powers[n]),
            q_powers[n] * big_l * u,
        )
        for n in range(n_max + 1)
    ]


def lanczos_from_moments(moments, n_max: int) -> np.ndarray:
    """Signed Lanczos coefficients sgn(b_n^2)|b_n|, n = 1..n_max, as a
    float64 array, from even moments via the moment recursion, in exact
    integer arithmetic.

    ``moments[k]`` is mu_2k (k = 0..n_max at least), the Taylor data of
    C(-it), each an int, float or Fraction; moments[0] must be exactly 1.
    b_n = sqrt(M^(n)_2n); for noisy inputs M^(n)_2n can turn negative, in
    which case the signed value sgn(M) sqrt(|M|) is reported (b_n purely
    imaginary).  The Krylov space has closed at level m when b_m^2 == 0.

    The recursion M^(m)_2k = M^(m-1)_2k / b_{m-1}^2 - M^(m-2)_2k-2 / b_{m-2}^2
    has b_{m-1}^2 = M^(m-1)_2m-2, so it reads only ratios within each row,
    and any multiple of a row serves as well: each row is kept as an integer
    vector divided by the gcd of its entries, and two such rows give the
    next with integer products.
    """
    if len(moments) < n_max + 1:
        raise ValueError(
            f"need {n_max + 1} even moments for n_max={n_max}, got {len(moments)}"
        )
    row, big_l = _integer_row(moments[: n_max + 1])
    if row[0] != big_l:
        raise ValueError(f"moments must be normalized, mu_0 = {Fraction(row[0], big_l)}")
    # a[i] = N^(m-1)_{m-1+i} and b[i] = N^(m-2)_{m-2+i}: integer multiples
    # of the rows M^(m-1) and M^(m-2) from their pivot on.  N^(0) = mu L;
    # N^(-1) = (1, 0, 0, ...) has the pivot b_{-1}^2 = 1 and zeros that drop
    # the second term at m = 1.  Before its gcd is divided out, the new row
    # is M^(m) a[0] b[0], so b_m^2 = row[0] / (a[0] b[0]).
    a, b = row, [1] + [0] * (n_max + 1)
    signed = []
    for m in range(1, n_max + 1):
        a0, b0 = a[0], b[0]
        row = [b0 * x - a0 * y for x, y in zip(a[1:], b[1:])]
        if row[0] == 0:
            raise LanczosBreakdownError(m)
        # sqrt(p/q) = sqrt(p q 4^64)/(q 2^64) for the reduced p/q; the
        # integer floor is off by < 2^-63 relative, so this rounds as the
        # exact |b_m| does unless that lies within 2^-63 of a midpoint
        # between two floats.  int / int is correctly rounded.
        b2 = Fraction(row[0], a0 * b0)
        p, q = abs(b2.numerator), b2.denominator
        root = math.isqrt(p * q << 128) / (q << 64)
        signed.append(root if b2 > 0 else -root)
        g = math.gcd(*row)
        b, a = a, row if g == 1 else [x // g for x in row]
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
