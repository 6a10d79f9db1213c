"""Two-replica GUE channel U2(t) = e^{-i E_ijkl t} sum_a f_a(t) F_a.

The eight graph-group coefficients f_a are linear combinations of five
exponentials with rational coefficients.  The rationals are kept exact
(integer numerators over a common denominator) so that f(0) = (1, 0, ..., 0)
and the J = 0 limit hold exactly in floating point.  Graph groups are never
materialized; observables supply their 8-component contraction vector (the
SFF's from one pass of D phases per point).  The SFF variance is that vector
contracted with rows h = f - g, g those of (D^2 K_J)^2; each h row sums to 0,
so h sums expm1 terms and is exactly 0 at J = 0 and t = 0, with no subtraction.
Every function of t takes a scalar or a whole time grid (numpy broadcasting).
The OTOC's two traces take D phases and one GEMM per point, not D^2
exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .channel_one import nonnegative_times
from .krylov import _integer_row
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
    """Integer rows and per-row denominators of f_matrix and of h = f - g, g the rows of
    (D^2 K_J)^2 = e^{-2x} V1 + (e^{-x} - e^{-2x}) V4/4 + (1 - e^{-x})^2 V5/(2D^2), x = Jt."""
    f, q, s = f_matrix(D), Fraction(1, 4), Fraction(1, 2 * D * D)
    g = {0: [0, 0, 0, 1, 0], 3: [0, q, 0, -q, 0], 4: [s, -2 * s, 0, s, 0]}
    h = [[a - b for a, b in zip(row, g.get(i, [0] * 5))] for i, row in enumerate(f)]
    rows = [_integer_row(row) for row in f + h]
    nums = np.array([n for n, _ in rows], dtype=float).reshape(2, 8, 5)
    dens = np.array([den for _, den in rows], dtype=float).reshape(2, 8)
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
    return (exps[..., None, :] * nums[0]).sum(axis=-1) / dens[0]


@dataclass(frozen=True)
class SffVariance:
    """Second moment E[(TrU TrU+)^2] and the variance against (D^2 K_J)^2."""

    second_moment: float | np.ndarray
    variance: float | np.ndarray


def sff_contraction_vector(spec: Spectrum, t) -> np.ndarray:
    """V_a(SFF), shape t.shape + (8,): the eight graph groups contracted for
    the squared SFF, built from the noiseless traces."""
    d = spec.dim
    p = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), spec.energies))
    tr1, tr2 = p.sum(axis=-1), (p * p).sum(axis=-1)
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
    E[TrU TrU+] = D^2 K_J(t): sum_a f_a V_a and sum_a h_a V_a of one V."""
    t, d = nonnegative_times(t), spec.dim
    v, (nums, dens) = sff_contraction_vector(spec, t), _integer_rows(d)
    expm1s = np.expm1(np.multiply.outer(t, decay_rates(d, J)))
    h = (expm1s[..., None, :] * nums[1]).sum(axis=-1) / dens[1]
    return SffVariance((f_coefficients(d, J, t) * v).sum(axis=-1), (h * v).sum(axis=-1))


def _check_operator(name: str, op: np.ndarray, d: int) -> None:
    """Refuse ``op`` unless it is D x D, Hermitian and traceless, each to
    1e-10 of its largest entry: an entry of op - op+, or the mean of its
    diagonal, Tr op / D, may be at most that large."""
    if op.shape != (d, d):
        raise ValueError(f"{name} shape {op.shape} != ({d}, {d})")
    scale = np.abs(op).max()
    if not np.abs(op - op.conj().T).max() <= 1e-10 * scale:
        raise ValueError(f"{name} must be Hermitian")
    if not abs(np.trace(op)) <= 1e-10 * d * scale:
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
    """Noise-averaged infinite-temperature OTOC for traceless Hermitian A, B:

        OTOC_J = (f1 + f6) OTOC_{J=0} + (2/D) f3 Tr(A B_t)^2

    with f1 + f6 = e^{-2Jt} cosh(2Jt/D) and
    2 f3 = -e^{-2Jt} sinh(2Jt/D), derived from the coefficient matrix rows.
    The form omits (4/D) f4 Tr(A^2 B_t^2) + (1/D) f7 Tr(A^2) Tr(B^2).  It is exact
    at t = 0 and at J = 0 (f1 + f6 = 1, f3 = f4 = f7 = 0: the noiseless OTOC).
    For J > 0 it misses an exact diagram reference by up to 0.125 at D = 3 and
    tends to 0, not to the Haar value -<A^2><B^2>/(D^2 - 1), <X> = Tr X / D; its
    fix waits until bench/reference/analytic_grid.json is recorded again.
    """
    d = spec.dim
    _check_operator("A", A, d)
    _check_operator("B", B, d)
    f = f_coefficients(d, J, t)
    otoc0, tr_ab = _otoc_traces(spec, t, A, B)
    return ((f[..., 0] + f[..., 5]) * otoc0 + (2.0 / d) * f[..., 2] * tr_ab**2)[()]
