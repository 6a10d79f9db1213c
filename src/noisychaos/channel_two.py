"""Two-replica GUE channel U2(t) = e^{-i E_ijkl t} sum_a f_a(t) F_a.

The eight graph-group coefficients f_a are linear combinations of five
exponentials with rational coefficients.  The rationals are kept exact
(integer numerators over a common denominator) so that f(0) = (1, 0, ..., 0)
and the J = 0 limit hold exactly in floating point.  Graph groups are never
materialized; observables supply their 8-component contraction vector.
Every function of t takes a scalar or a whole time grid (numpy broadcasting).
The OTOC's two traces take D phases and one GEMM per point, not D^2
exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .diagnostics import nonnegative_times, sff_gue_const
from .spectra import Spectrum


class UnsupportedDimensionError(ValueError):
    """D in {1, 2}: the printed coefficients have poles at D^2 = 1, 4."""


def f_matrix(D: int) -> list[list[Fraction]]:
    """Exact 8 x 5 coefficient matrix mapping the five exponentials
    (1, e^{-Jt}, e^{-(2-2/D)Jt}, e^{-2Jt}, e^{-(2+2/D)Jt}) to f_1..f_8."""
    if D < 3:
        raise UnsupportedDimensionError(f"need D >= 3, got {D}")
    F = Fraction
    return [
        [F(0), F(0), F(1, 4), F(1, 2), F(1, 4)],
        [
            F(0),
            F(D * D - 2, D * (D * D - 4)),
            F(-1, 4 * (D - 2)),
            F(-1, 2 * D),
            F(-1, 4 * (D + 2)),
        ],
        [F(0), F(0), F(-1, 4), F(0), F(1, 4)],
        [F(0), F(-1, D * D - 4), F(1, 4 * (D - 2)), F(0), F(-1, 4 * (D + 2))],
        [
            F(1, D * D - 1),
            F(-2, D * D - 4),
            F(1, 2 * (D - 1) * (D - 2)),
            F(0),
            F(1, 2 * (D + 1) * (D + 2)),
        ],
        [F(0), F(0), F(1, 4), F(-1, 2), F(1, 4)],
        [
            F(-1, D**3 - D),
            F(4, D * (D * D - 4)),
            F(-1, 2 * (D - 1) * (D - 2)),
            F(0),
            F(1, 2 * (D + 1) * (D + 2)),
        ],
        [F(0), F(2, D * (D * D - 4)), F(-1, 4 * (D - 2)), F(1, 2 * D), F(-1, 4 * (D + 2))],
    ]


def decay_rates(D: int, J: float) -> np.ndarray:
    """The five exponential rates (0, -J, -(2-2/D)J, -2J, -(2+2/D)J)."""
    return np.array(
        [0.0, -J, -(2.0 - 2.0 / D) * J, -2.0 * J, -(2.0 + 2.0 / D) * J]
    )


@cache
def _integer_rows(D: int):
    """Per-row integer numerators and common denominator of f_matrix (shared, read-only)."""
    rows = f_matrix(D)
    nums = np.zeros((8, 5), dtype=float)
    dens = np.zeros(8)
    for a, row in enumerate(rows):
        q = math.lcm(*[frac.denominator for frac in row])
        dens[a] = q
        for b, frac in enumerate(row):
            nums[a, b] = frac.numerator * (q // frac.denominator)
    nums.flags.writeable = dens.flags.writeable = False
    return nums, dens


def f_coefficients(D: int, J: float, t) -> np.ndarray:
    """The eight coefficients f_a(t), shape t.shape + (8,); f(0) = (1, 0, ..., 0).

    The exponent row sums vanish exactly in integer arithmetic, so both
    t = 0 and J = 0 give the identity coefficients without roundoff.
    """
    t = nonnegative_times(t)
    nums, dens = _integer_rows(D)
    exps = np.exp(np.multiply.outer(t, decay_rates(D, J)))
    return (exps[..., None, :] * nums).sum(axis=-1) / dens


@dataclass(frozen=True)
class SffVariance:
    """Second moment E[(TrU TrU+)^2] and the variance against (D^2 K_J)^2."""

    second_moment: float | np.ndarray
    variance: float | np.ndarray


def sff_contraction_vector(spec: Spectrum, t) -> np.ndarray:
    """V_a(SFF), shape t.shape + (8,): the eight graph groups contracted for
    the squared SFF, built from the noiseless traces."""
    d = spec.dim
    et = np.multiply.outer(np.asarray(t, dtype=float), spec.energies)
    tr1 = np.exp(-1j * et).sum(axis=-1)
    tr2 = np.exp(-2j * et).sum(axis=-1)
    # Real arithmetic rounds numpy scalars and arrays alike (complex abs does not).
    x, y = tr1.real, tr1.imag
    k1 = (x * x + y * y) / d**2
    k2 = (tr2.real * tr2.real + tr2.imag * tr2.imag) / d**2
    re_v3 = tr2.real * (x * x - y * y) + 2.0 * tr2.imag * x * y  # Re tr2 conj(tr1)^2
    return np.stack(np.broadcast_arrays(
        d**4 * k1 * k1, 4 * d**3 * k1, 2.0 * re_v3, 8 * d**2 * k1,
        2.0 * d**2, d**2 * k2, 2.0 * d, 4.0 * d,
    ), axis=-1)


def sff_squared_mean(spec: Spectrum, J: float, t):
    """E[(TrU_t TrU_t+)^2] = sum_a f_a(t) V_a(SFF), with the shape of t."""
    f = f_coefficients(spec.dim, J, t)
    return (f * sff_contraction_vector(spec, t)).sum(axis=-1)


def sff_variance(spec: Spectrum, J: float, t) -> SffVariance:
    """Second moment of TrU TrU+ and its variance against the squared mean
    E[TrU TrU+] = D^2 K_J(t), with K_J from diagnostics.sff_gue_const."""
    second = sff_squared_mean(spec, J, t)
    return SffVariance(second, second - (spec.dim**2 * sff_gue_const(spec, J, t)) ** 2)


def _check_operator(name: str, op: np.ndarray, d: int) -> None:
    if op.shape != (d, d):
        raise ValueError(f"{name} shape {op.shape} != ({d}, {d})")
    if not np.abs(op - op.conj().T).max() <= 1e-10:
        raise ValueError(f"{name} must be Hermitian")
    if abs(np.trace(op)) > 1e-10:
        raise ValueError(f"{name} must be traceless, got trace {np.trace(op)}")


def _otoc_traces(spec: Spectrum, t, A: np.ndarray, B: np.ndarray):
    """(1/D) Tr(A B_t A B_t) and Tr(A B_t) at each point of t, any shape.

    B_t = Phi B Phi*, Phi = diag(phi), phi_i = e^{i E_i t}, so
    M = A B_t = ((A o phi^T) B) o phi*^T: scale A's columns, one GEMM,
    scale the product's columns.  A point takes D phases, not D^2
    exponentials, and Tr(M M) = sum_ij M_ij M_ji and Tr M are read from M
    without a transposed copy.  Each point is its own product, so a grid
    gives its scalar calls exactly.
    """
    t = np.asarray(t, dtype=float)
    ts = t.reshape(-1)
    out = np.empty((ts.size, 2), dtype=complex)
    for k, tk in enumerate(ts):
        phi = np.exp(1j * tk * spec.energies)
        m = (A * phi) @ B
        m *= phi.conj()
        out[k] = np.einsum("ij,ji", m, m) / spec.dim, np.trace(m)
    return out[:, 0].reshape(t.shape), out[:, 1].reshape(t.shape)


def otoc(spec: Spectrum, J: float, t, A: np.ndarray, B: np.ndarray):
    """Noise-averaged infinite-temperature OTOC for traceless Hermitian A, B.

    Only the groups 1, 3 and 6 survive the traceless contraction:

        OTOC_J = (f1 + f6) OTOC_{J=0} + (2/D) f3 Tr(A B_t)^2

    with f1 + f6 = e^{-2Jt} cosh(2Jt/D) and
    2 f3 = -e^{-2Jt} sinh(2Jt/D), derived from the coefficient matrix rows.
    At J = 0, f1 + f6 = 1 and f3 = 0 exactly: J = 0 gives the noiseless OTOC.
    """
    d = spec.dim
    _check_operator("A", A, d)
    _check_operator("B", B, d)
    f = f_coefficients(d, J, t)
    otoc0, tr_ab = _otoc_traces(spec, t, A, B)
    return ((f[..., 0] + f[..., 5]) * otoc0 + (2.0 / d) * f[..., 2] * tr_ab**2)[()]
