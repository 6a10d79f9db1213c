"""Single-replica noise-averaged channel U1(t) = E[U_t (x) U_t*].

The channel is stored in the delta-structure basis: three D x D coefficient
grids A, B, G multiplying delta_{ii'}delta_{jj'}, delta_{ij}delta_{i'j'} and
delta_{ij'}delta_{ji'} respectively, so memory is O(D^2) instead of O(D^4).
Each ensemble has one builder for any variance profile; u1_gue_const and
u1_goe_const are those builders on lambda_ij = J/D.  Every case is an exact
closed form: A and G are entrywise exponentials, and B, the populations,
solves a linear system with a symmetric constant matrix and exponential
forcing, which one eigendecomposition solves at any t (the constant profile
needs none).  The GOE populations are the GUE ones at t/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import ConstantOverD, Ensemble, NoiseModel, goe_constant, gue_constant
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


def _populations(model: NoiseModel, t: float) -> np.ndarray:
    """B(t), the delta_ij delta_i'j' block, of either ensemble.

    Under GUE noise B' = P.B + lambda_ij e^{-J_j t}, B(0) = 0, with the
    symmetric P = lambda - diag(J) (minus a graph Laplacian), which
    _forced_linear solves; the constant profile gives B = (1 - e^{-Jt})/D.
    The GOE system is this one halved (P/2, lambda/2 and rate -J/2), so its
    B at t is the GUE B at t/2.
    """
    d = model.dim
    s = t if model.ensemble is Ensemble.GUE else t / 2.0
    if isinstance(model.profile, ConstantOverD):
        return np.full((d, d), -np.expm1(-model.profile.J * s) / d, dtype=complex)
    lam = model.lambda_matrix()
    j_row = lam.sum(axis=1)
    return _forced_linear(lam - np.diag(j_row), lam, -j_row, s)


def u1_gue_general(spec: Spectrum, model: NoiseModel, t: float) -> ChannelOne:
    """GUE channel of any variance profile: A_ij = exp(w_ij t) with
    w_ij = -i(E_i - E_j) - (J_i + J_j)/2, B from _populations, G = 0."""
    _check_dims(spec, model)
    if model.ensemble is not Ensemble.GUE:
        raise ValueError("u1_gue_general requires a GUE noise model")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    d = spec.dim
    j_row = model.lambda_matrix().sum(axis=1)
    w = -1j * spec.gaps() - 0.5 * (j_row[:, None] + j_row[None, :])
    return ChannelOne(d, np.exp(w * t), _populations(model, t), np.zeros((d, d), dtype=complex))


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


def u1_goe_general(spec: Spectrum, model: NoiseModel, t: float) -> ChannelOne:
    """GOE channel of any variance profile.  A = (c- e^{z- t} + c+ e^{z+ t})/2
    and G = g (e^{z+ t} - e^{z- t})/2 entrywise, from goe_params.  B solves

        B' = (w_ii + lambda_ii/2) B_ii' + (lambda/2).B
             + (lambda_ii'/2)(C_i'i'(t) + G_i'i'(t)),  B(0) = 0,

    where w_ii + lambda_ii/2 = -J_i/2 and C_jj + G_jj = e^{z+_jj t} = e^{-J_j t/2}:
    the GUE system of _populations halved, so B is the GUE B at t/2.
    """
    _check_dims(spec, model)
    if model.ensemble is not Ensemble.GOE:
        raise ValueError("u1_goe_general requires a GOE noise model")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    params = goe_params(spec, model)
    ep = np.exp(params.z_plus * t)
    em = np.exp(params.z_minus * t)
    coeff_a = 0.5 * (params.c_minus * em + params.c_plus * ep)
    coeff_g = 0.5 * params.g * (ep - em)
    return ChannelOne(spec.dim, coeff_a, _populations(model, t), coeff_g)


def u1_gue_const(spec: Spectrum, J: float, t: float) -> ChannelOne:
    """u1_gue_general of the constant profile lambda_ij = J/D.  The name
    stays because bench/workloads.py builds it and bench/tracer.py times it."""
    return u1_gue_general(spec, gue_constant(J, spec.dim), t)


def u1_goe_const(spec: Spectrum, J: float, t: float) -> ChannelOne:
    """u1_goe_general of the constant profile lambda_ij = J/D.  The name
    stays because bench/workloads.py builds it and bench/tracer.py times it."""
    return u1_goe_general(spec, goe_constant(J, spec.dim), t)


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

