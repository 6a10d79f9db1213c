"""Single-replica noise-averaged channel U1(t) = E[U_t (x) U_t*].

The channel is stored in the delta-structure basis: three D x D coefficient
grids A, B, G multiplying delta_{ii'}delta_{jj'}, delta_{ij}delta_{i'j'} and
delta_{ij'}delta_{ji'} respectively, so memory is O(D^2) instead of O(D^4).
Each ensemble has one builder for any variance profile; u1_gue_const and
u1_goe_const are those builders on lambda_ij = J/D.  Every case is an exact
closed form: A and G are entrywise exponentials, and the populations are a
Markov chain, so B is a matrix exponential, which ``populations`` evaluates
at one t for the builders or contracted on a whole grid for the diagnostics.
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


def check_dims(spec: Spectrum, model: NoiseModel) -> None:
    if spec.dim != model.dim:
        raise ValueError(f"spectrum dim {spec.dim} != noise model dim {model.dim}")


def populations(model: NoiseModel, t, m=None, propagator: bool = False) -> np.ndarray:
    """The population block B, the delta_ij delta_i'j' coefficients, of
    either ensemble: B(t) at one t without weights m, and with D x D weights
    m the sum_ij m_ij B_ij(t) shaped like the grid t, or with ``propagator``
    the same sum over e^{sP} = B(t) + diag(e^{-J s}).

    The populations obey rho_jj' = sum_i lambda_ji rho_ii - J_j rho_jj, a
    Markov chain with the symmetric generator P = lambda - diag(J), so they
    evolve by e^{sP}, with s = t under GUE noise and s = t/2 under GOE (its
    generator is the GUE one halved).  The diagonal of A (+ G) carries the
    e^{-J s} of it that never left its state, so B = e^{sP} - diag(e^{-J s}).
    The constant profile gives B = -expm1(-Js)/D everywhere; any other takes
    the model's modes, e^{sP} = V diag(e^{mu s}) V^T, and a contraction needs
    only diag(V^T m V): O(T D) on T points.  P is minus a graph Laplacian,
    negative semidefinite, so e^{mu s} <= 1 and no t overflows.
    """
    s = np.asarray(t, dtype=float) / (2.0 if model.ensemble is Ensemble.GOE else 1.0)
    d = model.dim
    if isinstance(model.profile, ConstantOverD):
        flat = -np.expm1(-model.profile.J * s) / d
        if m is None:
            return np.full((d, d), flat)
        kept = np.exp(-model.profile.J * s) * np.trace(m) if propagator else 0.0
        return flat * np.sum(m) + kept
    mu, v, j_row = model.population_modes
    if m is None:
        return (v * np.exp(mu * s)) @ v.T - np.diag(np.exp(-j_row * s))
    out = np.exp(np.multiply.outer(s, mu)) @ ((m @ v) * v).sum(axis=0)
    return out if propagator else out - np.exp(np.multiply.outer(s, -j_row)) @ np.diagonal(m)


def u1_gue_general(spec: Spectrum, model: NoiseModel, t: float) -> ChannelOne:
    """GUE channel of any variance profile: A_ij = exp(w_ij t) with
    w_ij = -i(E_i - E_j) - (J_i + J_j)/2, B from populations, G = 0."""
    check_dims(spec, model)
    if model.ensemble is not Ensemble.GUE:
        raise ValueError("u1_gue_general requires a GUE noise model")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    d = spec.dim
    j_row = model.lambda_matrix().sum(axis=1)
    w = -1j * spec.gaps() - 0.5 * (j_row[:, None] + j_row[None, :])
    return ChannelOne(d, np.exp(w * t), populations(model, t), np.zeros((d, d), dtype=complex))


def goe_params(spec: Spectrum, model: NoiseModel) -> GoeClosedFormParams:
    """Entrywise g, c+-, z+- for the GOE closed form.

    The square root is the principal branch of
    sqrt((w_ij - w_ji)^2 + lambda_ij^2); a global sign flip of the root
    leaves the channel unchanged (tested).
    """
    check_dims(spec, model)
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
    the GUE populations' system halved, so ``populations`` takes it at t/2.
    """
    check_dims(spec, model)
    if model.ensemble is not Ensemble.GOE:
        raise ValueError("u1_goe_general requires a GOE noise model")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    params = goe_params(spec, model)
    ep = np.exp(params.z_plus * t)
    em = np.exp(params.z_minus * t)
    coeff_a = 0.5 * (params.c_minus * em + params.c_plus * ep)
    coeff_g = 0.5 * params.g * (ep - em)
    return ChannelOne(spec.dim, coeff_a, populations(model, t), coeff_g)


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

