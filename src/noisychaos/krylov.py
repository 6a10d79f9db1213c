"""Moments of the noise-averaged autocorrelation and Lanczos coefficients.

The moment-to-b_n recursion loses digits catastrophically past n ~ 15, so
all recursion arithmetic runs in mpmath extended precision (default 60
significant digits, configurable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np


class LanczosBreakdownError(ArithmeticError):
    """The Krylov space is exhausted (or numerically degenerate) at some level."""

    def __init__(self, level: int):
        super().__init__(f"Lanczos recursion breakdown at level {level}")
        self.level = level


@dataclass(frozen=True)
class LanczosResult:
    """Signed Lanczos coefficients sgn(b_n^2)|b_n| and the moments that
    produced them."""

    moments: list
    b_signed: np.ndarray
    n_max: int = 0


def sech_moments(n_max: int, alpha: float = 1.0, dps: int = 60) -> list:
    """Even moments mu_2n of C(t) = sech(alpha t): C(-it) = sec(alpha t),
    so mu_2n = |E_2n| alpha^2n with E_2n the Euler numbers.

    For alpha = 1 the moments are exact integers.
    """
    if alpha == 1.0:
        return [abs(mpmath.eulernum(2 * n, exact=True)) for n in range(n_max + 1)]
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        return [
            abs(mpmath.eulernum(2 * n, exact=True)) * a ** (2 * n)
            for n in range(n_max + 1)
        ]


def noisy_moments(
    mu_even,
    J: float,
    tr_o: complex,
    tr_odag: complex,
    D: int,
    k_max: int,
    dps: int = 60,
) -> list:
    """Moments mu_{J;k} of C_J(-it) for constant GUE noise.

    From C_J(t) = e^{-Jt} C_0(t) + (TrO TrO+/D^2)(1 - e^{-Jt}):

        mu_{J;k} = sum_i binom(k, i) (iJ)^i mu_{k-i}
                   + (TrO TrO+/D^2) (delta_{k0} - (iJ)^k)

    with odd mu vanishing.  Returned as mpmath complex numbers at the
    requested precision.
    """
    with mpmath.workdps(dps):
        jj = mpmath.mpc(0, J)
        trace_weight = mpmath.mpc(tr_o) * mpmath.mpc(tr_odag) / D**2
        mu = {2 * n: mpmath.mpf(m) if not isinstance(m, mpmath.mpf) else m
              for n, m in enumerate(mu_even)}
        out = []
        for k in range(k_max + 1):
            total = mpmath.mpc(0)
            for i in range(k + 1):
                if (k - i) % 2 or (k - i) not in mu:
                    continue
                total += math.comb(k, i) * jj**i * mu[k - i]
            total += trace_weight * ((1 if k == 0 else 0) - jj**k)
            out.append(total)
        return out


def lanczos_from_moments(moments, n_max: int, dps: int = 60) -> LanczosResult:
    """Signed Lanczos coefficients from even moments via the moment
    recursion.

    ``moments[k]`` is mu_2k (k = 0..n_max at least), the Taylor data of
    C(-it); moments[0] must be 1.  b_n = sqrt(M^(n)_2n); for noisy inputs
    M^(n)_2n can turn negative, in which case the signed value
    sgn(M) sqrt(|M|) is reported (b_n purely imaginary).  The Krylov space
    has closed when b_m^2 cancels below 10^(-dps/2) of the two terms it is
    the difference of, whatever the units of the moments.
    """
    if len(moments) < n_max + 1:
        raise ValueError(
            f"need {n_max + 1} even moments for n_max={n_max}, got {len(moments)}"
        )
    with mpmath.workdps(dps):
        mu = [mpmath.mpf(m) if not isinstance(m, (mpmath.mpf, mpmath.mpc)) else m
              for m in moments]
        mu = [m.real if isinstance(m, mpmath.mpc) else m for m in mu]
        if abs(mu[0] - 1) > mpmath.mpf("1e-12"):
            raise ValueError(f"moments must be normalized, mu_0 = {mu[0]}")
        n_keep = n_max + 1
        # rows indexed by recursion level m; M[m][k] = M^(m)_2k
        prev2 = [mpmath.mpf(0)] * n_keep  # M^(-1)
        prev1 = list(mu[:n_keep])  # M^(0) = mu_2k
        b2 = [mpmath.mpf(1), mpmath.mpf(1)]  # b_{-1}^2, b_0^2
        tol = mpmath.mpf(10) ** (-dps / 2)
        signed = []
        for m in range(1, n_max + 1):
            t1, t2 = prev1[m] / b2[-1], prev2[m - 1] / b2[-2]
            b2_m = t1 - t2
            if abs(b2_m) <= tol * (abs(t1) + abs(t2)):
                raise LanczosBreakdownError(m)
            row = [mpmath.mpf(0)] * n_keep
            row[m] = b2_m
            for k in range(m + 1, n_keep):
                row[k] = prev1[k] / b2[-1] - prev2[k - 1] / b2[-2]
            sign = 1 if b2_m > 0 else -1
            signed.append(sign * mpmath.sqrt(abs(b2_m)))
            b2.append(b2_m)
            prev2, prev1 = prev1, row
        b_signed = np.array([float(s) for s in signed])
    return LanczosResult(
        moments=list(moments), b_signed=b_signed, n_max=n_max
    )


def signed_lanczos_noisy(
    mu_even,
    J: float,
    trace_product_ratio: float,
    n_max: int,
    dps: int = 60,
) -> LanczosResult:
    """Convenience pipeline for the noisy figure reproduction: build
    mu_{J;k}, keep the even-index moments (real for even k) and run the
    signed recursion.  ``trace_product_ratio`` is TrO TrO+ / D^2 (the only
    combination that enters, so D drops out)."""
    noisy = noisy_moments(
        mu_even, J, trace_product_ratio, 1.0, 1, 2 * n_max, dps=dps
    )
    even = [noisy[2 * k].real for k in range(n_max + 1)]
    return lanczos_from_moments(even, n_max, dps=dps)
