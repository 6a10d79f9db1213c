"""Single-replica noise-averaged channel U1(t) = E[U_t (x) U_t*].

The channel is stored in the delta-structure basis: three D x D coefficient
grids A, B, G multiplying delta_{ii'}delta_{jj'}, delta_{ij}delta_{i'j'} and
delta_{ij'}delta_{ji'} respectively, so memory is O(D^2) instead of O(D^4).
All four solved cases are covered: GUE/GOE with constant or general
variance profile.  Every case is an exact closed form: A and G are
entrywise exponentials, and for a general profile B solves a linear system
with a symmetric constant matrix and exponential forcing, which one
eigendecomposition of that matrix solves at any t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import Ensemble, NoiseModel, goe_constant
from .spectra import Spectrum


@dataclass(frozen=True)
class ChannelOne:
    """Averaged single-replica channel at a fixed time.

    Applying the channel to a density matrix rho gives

        rho'_ij = A_ij rho_ij + delta_ij sum_k B_ik rho_kk + G_ij rho_ji

    (G is identically zero for GUE noise).
    """

    dim: int
    coeff_A: np.ndarray
    coeff_B: np.ndarray
    coeff_G: np.ndarray


@dataclass(frozen=True)
class GoeClosedFormParams:
    """Entrywise parameters of the GOE closed form.

    Identities (tested): c_plus + c_minus = 2, z_plus + z_minus = w_ij + w_ji,
    (z_plus - z_minus)^2 = (w_ij - w_ji)^2 + lambda_ij^2.
    """

    g: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    z_plus: np.ndarray
    z_minus: np.ndarray


def _check_dims(spec: Spectrum, model: NoiseModel) -> None:
    if spec.dim != model.dim:
        raise ValueError(f"spectrum dim {spec.dim} != noise model dim {model.dim}")


def u1_gue_const(spec: Spectrum, J: float, t: float) -> ChannelOne:
    """Closed form for constant GUE noise lambda_ij = J/D.

    A_ij = exp(w_ij t) with w_ij = -i(E_i - E_j) - J,
    B = (1/D)(1 - e^{-Jt}), G = 0.
    """
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    d = spec.dim
    w = -1j * spec.gaps() - J
    coeff_a = np.exp(w * t)
    coeff_b = np.full((d, d), -np.expm1(-J * t) / d, dtype=complex)
    coeff_g = np.zeros((d, d), dtype=complex)
    return ChannelOne(d, coeff_a, coeff_b, coeff_g)


def _forced_linear(p: np.ndarray, f: np.ndarray, nu: np.ndarray, t: float) -> np.ndarray:
    """Exact B(t) for B' = p.B + f * exp(nu_j t) (column j), B(0) = 0.

    With p = V diag(mu) V^T symmetric, B = V [phi(mu_k, nu_j; t) o (V^T f)]
    where phi = int_0^t e^{mu (t-s) + nu s} ds, evaluated as
    t e^{max(mu, nu) t} h(|mu - nu| t) with h(x) = -expm1(-x)/x, h(0) = 1:
    h lies in (0, 1], so no factor outgrows phi itself (the textbook
    e^{nu t} expm1((mu - nu) t)/(mu - nu) gives 0 * inf once (mu - nu) t
    exceeds ~709), and mu = nu (the constant profile) is exact.
    """
    mu, v = np.linalg.eigh(p)
    x = np.abs(mu[:, None] - nu[None, :]) * t
    h = np.ones_like(x)
    nz = x > 0.0
    h[nz] = -np.expm1(-x[nz]) / x[nz]
    phi = t * np.exp(np.maximum(mu[:, None], nu[None, :]) * t) * h
    return (v @ (phi * (v.T @ f))).astype(complex)


def u1_gue_general(spec: Spectrum, model: NoiseModel, t: float) -> ChannelOne:
    """General-lambda GUE channel, in closed form.

    A is the exact exponential exp(w_ij t).  B solves B' = P.B + Q(t),
    B(0) = 0, with P = lambda - diag(J) (symmetric, minus a graph
    Laplacian) and Q(t)_ij = lambda_ij exp(-J_j t).  With P = V diag(mu) V^T,

        B = V [phi(mu_k, -J_j; t) o (V^T lambda)],
        phi(mu, nu; t) = t e^{max(mu, nu) t} h(|mu - nu| t),
        h(x) = (1 - e^{-x})/x, h(0) = 1,

    the overflow-free form of (e^{nu t} - e^{mu t})/(nu - mu).
    """
    _check_dims(spec, model)
    if model.ensemble is not Ensemble.GUE:
        raise ValueError("u1_gue_general requires a GUE noise model")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    d = spec.dim
    lam = model.lambda_matrix()
    j_row = lam.sum(axis=1)
    w = -1j * spec.gaps() - 0.5 * (j_row[:, None] + j_row[None, :])
    coeff_b = _forced_linear(lam - np.diag(j_row), lam, -j_row, t)
    coeff_a = np.exp(w * t)
    coeff_g = np.zeros((d, d), dtype=complex)
    return ChannelOne(d, coeff_a, coeff_b, coeff_g)


def goe_params(spec: Spectrum, model: NoiseModel) -> GoeClosedFormParams:
    """Entrywise g, c+-, z+- for the GOE closed form.

    The square root is the principal branch of
    sqrt((w_ij - w_ji)^2 + lambda_ij^2); a global sign flip of the root
    leaves the channel unchanged (tested).
    """
    _check_dims(spec, model)
    if model.ensemble is not Ensemble.GOE:
        raise ValueError("goe_params requires a GOE noise model")
    lam = model.lambda_matrix()
    j_row = lam.sum(axis=1)
    ld = np.diag(lam)
    # In place where a buffer is free: 5 D x D complex outputs and at most
    # 2 more grids alive at once.
    w = -1j * spec.gaps()
    w -= 0.25 * (j_row[:, None] + j_row[None, :] + ld[:, None] + ld[None, :])
    diff = w - w.T
    w += w.T  # numpy buffers the overlapping operand
    root = np.square(diff)
    root += np.square(lam.astype(complex))
    np.sqrt(root, out=root)
    # lambda_ii > 0 guarantees a nonzero root on the diagonal; off-diagonal
    # zeros can only occur for degenerate levels with lambda_ij = 0, where
    # g = 0/0 is taken as 0 (the exchange term carries weight lambda_ij).
    nonzero = root != 0.0
    g = np.zeros_like(root)
    np.divide(lam, root, out=g, where=nonzero)
    ratio = np.divide(diff, root, out=diff, where=nonzero)
    ratio[~nonzero] = 0.0
    c_plus = 1.0 + ratio
    c_minus = np.subtract(1.0, ratio, out=ratio)
    z_plus = w + root
    z_plus *= 0.5
    w -= root
    z_minus = np.multiply(w, 0.5, out=w)
    return GoeClosedFormParams(g, c_plus, c_minus, z_plus, z_minus)


def _goe_ag(params: GoeClosedFormParams, t: float):
    ep = np.exp(params.z_plus * t)
    em = np.exp(params.z_minus * t)
    coeff_a = 0.5 * (params.c_minus * em + params.c_plus * ep)
    coeff_g = 0.5 * params.g * (ep - em)
    return coeff_a, coeff_g


def u1_goe_const(spec: Spectrum, J: float, t: float) -> ChannelOne:
    """Closed form for constant GOE noise lambda_ij = J/D.

    A_ij = (c- e^{z- t} + c+ e^{z+ t})/2, B = (1/D)(1 - e^{-Jt/2}),
    G_ij = g (e^{z+ t} - e^{z- t})/2.
    """
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    d = spec.dim
    params = goe_params(spec, goe_constant(J, d))
    coeff_a, coeff_g = _goe_ag(params, t)
    coeff_b = np.full((d, d), -np.expm1(-J * t / 2.0) / d, dtype=complex)
    return ChannelOne(d, coeff_a, coeff_b, coeff_g)


def u1_goe_general(spec: Spectrum, model: NoiseModel, t: float) -> ChannelOne:
    """General-lambda GOE channel, in closed form.

    A and G are the entrywise closed forms.  B solves the first-order system

        B' = (w_ii + lambda_ii/2) B_ii' + (lambda/2).B
             + (lambda_ii'/2)(C_i'i'(t) + G_i'i'(t)),  B(0) = 0,

    i.e. B' = P.B + (lambda/2) e^{nu_j t} with P = (lambda - diag(J))/2 and
    nu_j = Re z+_jj = -J_j/2.  It is solved as in u1_gue_general: one
    eigendecomposition of P and the overflow-free phi(mu_k, nu_j; t).
    """
    _check_dims(spec, model)
    if model.ensemble is not Ensemble.GOE:
        raise ValueError("u1_goe_general requires a GOE noise model")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    d = spec.dim
    lam = model.lambda_matrix()
    params = goe_params(spec, model)
    coeff_a, coeff_g = _goe_ag(params, t)
    j_row = lam.sum(axis=1)
    # C_jj(t) + G_jj(t) = e^{z+_jj t} from the closed forms (c_jj+- = g_jj = 1).
    zp_diag = np.diag(params.z_plus).real
    coeff_b = _forced_linear(0.5 * (lam - np.diag(j_row)), 0.5 * lam, zp_diag, t)
    return ChannelOne(d, coeff_a, coeff_b, coeff_g)


def apply_channel(ch: ChannelOne, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a D x D matrix.

    Contraction of the delta structure with rho_{i'j'}:
    delta_{ii'}delta_{jj'} keeps the entry (elementwise A), delta_{ij}
    delta_{i'j'} redistributes the diagonal (B acting on diag rho), and
    delta_{ij'}delta_{ji'} transposes (elementwise G on rho^T).
    """
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"rho shape {rho.shape} != ({ch.dim}, {ch.dim})")
    out = ch.coeff_A * rho
    out += np.diag(ch.coeff_B @ np.diag(rho))
    out += ch.coeff_G * rho.T
    return out

