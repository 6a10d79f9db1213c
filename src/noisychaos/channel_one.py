"""Single-replica noise-averaged channel U1(t) = E[U_t (x) U_t*].

The channel is stored in the delta-structure basis: three D x D coefficient
arrays A, B, G multiplying delta_{ii'}delta_{jj'}, delta_{ij}delta_{i'j'} and
delta_{ij'}delta_{ji'} respectively, so memory is O(D^2) instead of O(D^4).
Each ensemble has one builder for any variance profile; u1_gue_const and
u1_goe_const are those builders on lambda_ij = J/D.  Every case is an exact
closed form.  Under GUE noise A has rank one, A_ij = p_i conj(p_j) with the
phases p_i = e^{-(i E_i + J_i/2) t} (``gue_phases``), and G is zero; under GOE
noise each level pair i <= j is one 2 x 2 block with real kappa and q^2
(``GoePairs``), so A and G are its cosh and sinh, and G is real.  The
populations are a Markov chain, so B is a matrix exponential, which
``populations`` evaluates at one t for the builders or contracted on a whole
grid for the diagnostics; under the constant profile it is one number.
A builder stores only what its ensemble and profile produce: a zero G and a
constant B are read-only broadcasts of one value, and every array of a
``ChannelOne`` is read-only, so a broadcast and a dense grid behave alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .noise import ConstantOverD, Ensemble, NoiseModel, goe_constant, gue_constant
from .spectra import Spectrum


@dataclass(frozen=True)
class ChannelOne:
    """Averaged single-replica channel at a fixed time.

    Applying the channel to a density matrix rho gives

        rho'_ij = A_ij rho_ij + delta_ij sum_k B_ik rho_kk + G_ij rho_ji

    Each coefficient is a read-only array that broadcasts as D x D: A is a
    complex grid; B is a real grid, or under the constant profile a
    broadcast of its one value; G is a broadcast zero under GUE noise and a
    real grid under GOE noise.  The arrays are stored as read-only views,
    so the caller's arrays keep their own flags.
    """

    dim: int
    coeff_A: np.ndarray
    coeff_B: np.ndarray
    coeff_G: np.ndarray

    def __post_init__(self):
        for name in ("coeff_A", "coeff_B", "coeff_G"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)


class GoePairs(NamedTuple):
    """The GOE block of each level pair i <= j, real vectors over the
    D(D+1)/2 pairs in np.triu_indices order.  rho_ij and rho_ji evolve by
    [[w_ij, l], [l, w_ji]], w_ij = -i delta - kappa and l = lambda_ij/2,
    whose traceless part squares to q^2 = l^2 - delta^2 times the identity.
    q holds |q| with the sign of q^2, so it is 0 exactly where l = |delta|;
    on the diagonal q = lambda_ii/2 and -kappa + q = -J_i/2.
    """

    i: np.ndarray
    j: np.ndarray
    delta: np.ndarray  # E_i - E_j
    kappa: np.ndarray  # (J_i + J_j + lambda_ii + lambda_jj)/4
    half_lam: np.ndarray  # l = lambda_ij/2
    q: np.ndarray


def check_dims(spec: Spectrum, model: NoiseModel) -> None:
    if spec.dim != model.dim:
        raise ValueError(f"spectrum dim {spec.dim} != noise model dim {model.dim}")


def nonnegative_times(t_grid) -> np.ndarray:
    """t_grid as a float array of any shape, refused if a time is negative,
    infinite or NaN: each closed form and builder takes it before it
    computes anything."""
    t = np.asarray(t_grid, dtype=float)
    bad = ~((t >= 0.0) & (t < np.inf))
    if bad.any():
        raise ValueError(f"t must be nonnegative and finite, got {t[bad].flat[0]}")
    return t


def _one_time(t) -> float:
    """A builder's t: one nonnegative finite time."""
    if np.ndim(t) != 0:
        raise ValueError(f"t must be one time, got an array of shape {np.shape(t)}")
    return float(nonnegative_times(t))


def gue_phases(spec: Spectrum, model: NoiseModel, t) -> np.ndarray:
    """p_i(t) = e^{-(i E_i + J_i/2) t} on the times t, shape t.shape + (D,):
    the GUE A part has rank one, A_ij = p_i conj(p_j)."""
    rate = 1j * spec.energies + 0.5 * model.lambda_matrix().sum(axis=1)
    p = np.multiply.outer(t, rate)
    return np.exp(np.negative(p, out=p), out=p)


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
    The constant profile gives B = -expm1(-Js)/D everywhere, returned at one
    t as a read-only broadcast of that number; any other takes
    the model's modes, e^{sP} = V diag(e^{mu s}) V^T, and a contraction needs
    only diag(V^T m V): O(T D) on T points.  P is minus a graph Laplacian,
    negative semidefinite, so e^{mu s} <= 1 and no t overflows.
    """
    s = np.asarray(t, dtype=float) / (2.0 if model.ensemble is Ensemble.GOE else 1.0)
    d = model.dim
    if isinstance(model.profile, ConstantOverD):
        flat = -np.expm1(-model.profile.J * s) / d
        if m is None:
            return np.broadcast_to(flat, (d, d))
        kept = np.exp(-model.profile.J * s) * np.trace(m) if propagator else 0.0
        return flat * np.sum(m) + kept
    mu, v, j_row = model.population_modes
    if m is None:
        return (v * np.exp(mu * s)) @ v.T - np.diag(np.exp(-j_row * s))
    out = np.exp(np.multiply.outer(s, mu)) @ ((m @ v) * v).sum(axis=0)
    return out if propagator else out - np.exp(np.multiply.outer(s, -j_row)) @ np.diagonal(m)


def u1_gue_general(spec: Spectrum, model: NoiseModel, t: float) -> ChannelOne:
    """GUE channel of any variance profile: A_ij = exp(w_ij t) with
    w_ij = -i(E_i - E_j) - (J_i + J_j)/2, taken as the rank-one p_i conj(p_j)
    of the D phases, B from populations, and G a read-only broadcast zero."""
    check_dims(spec, model)
    if model.ensemble is not Ensemble.GUE:
        raise ValueError("u1_gue_general requires a GUE noise model")
    t = _one_time(t)
    d = spec.dim
    p = gue_phases(spec, model, t)
    coeff_a = np.multiply.outer(p, p.conj())
    return ChannelOne(d, coeff_a, populations(model, t), np.broadcast_to(0.0, (d, d)))


@functools.lru_cache(maxsize=None)
def _pair_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(dim), read-only: the level pairs i <= j."""
    i, j = np.triu_indices(dim)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def goe_params(spec: Spectrum, model: NoiseModel) -> GoePairs:
    """The GOE pair blocks.  |q| = sqrt|l - |delta|| sqrt(l + |delta|)
    neither overflows for large lambda nor cancels near l = |delta|."""
    check_dims(spec, model)
    if model.ensemble is not Ensemble.GOE:
        raise ValueError("goe_params requires a GOE noise model")
    lam = model.lambda_matrix()
    i, j = _pair_indices(spec.dim)
    delta = spec.energies[i] - spec.energies[j]
    quarter = (lam.sum(axis=1) + np.diag(lam)) / 4
    half_lam, gap = lam[i, j] / 2, np.abs(delta)
    q = np.sqrt(np.abs(half_lam - gap)) * np.sqrt(half_lam + gap)
    return GoePairs(i, j, delta, quarter[i] + quarter[j], half_lam, np.copysign(q, half_lam - gap))


def goe_cos_sin(q: np.ndarray, kappa: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """C = (e+ + e-)/2 and S = (e+ - e-)/(2q), e+- = e^{(-kappa +- q) t}, of
    GOE pairs with the roots q (signed as ``GoePairs.q``) and decays kappa,
    at times t that broadcast against them; S = t e^{-kappa t} where q = 0.
    Each root type is taken in real arithmetic: for real q > 0, S =
    -e+ expm1(-2qt)/(2q), which neither cancels for q << lambda_ij nor
    overflows; for imaginary roots C = e^{-kappa t} cos(|q|t) and S =
    e^{-kappa t} sin(|q|t)/|q|."""
    aq, decay = np.abs(q), np.exp(-kappa * t)
    real = q > 0.0
    grow = np.exp((np.where(real, aq, 0.0) - kappa) * t)  # e+ of the real roots
    c = np.where(real, (grow + np.exp((-aq - kappa) * t)) / 2, decay * np.cos(aq * t))
    s = t * decay
    np.divide(-grow * np.expm1(-2.0 * aq * t), 2.0 * aq, out=s, where=real)
    np.divide(decay * np.sin(aq * t), aq, out=s, where=q < 0.0)
    return c, s


def u1_goe_general(spec: Spectrum, model: NoiseModel, t: float) -> ChannelOne:
    """GOE channel of any variance profile.  Per pair, with C and S of
    ``goe_cos_sin``: A_ij = C - i delta S = conj(A_ji) and G_ij = G_ji = l S.
    The populations feel the noise at half the GUE rate (A_jj + G_jj =
    e^{-J_j t/2}), so ``populations`` takes B at t/2.  A is a complex grid
    and G a real one."""
    check_dims(spec, model)
    if model.ensemble is not Ensemble.GOE:
        raise ValueError("u1_goe_general requires a GOE noise model")
    t = _one_time(t)
    p = goe_params(spec, model)
    c, s = goe_cos_sin(p.q, p.kappa, t)
    coeff_a = np.empty((spec.dim, spec.dim), dtype=complex)
    coeff_g = np.empty((spec.dim, spec.dim))
    coeff_a[p.i, p.j], coeff_a[p.j, p.i] = c - 1j * p.delta * s, c + 1j * p.delta * s
    coeff_g[p.i, p.j] = coeff_g[p.j, p.i] = p.half_lam * s
    return ChannelOne(spec.dim, coeff_a, populations(model, t), coeff_g)


def u1_gue_const(spec: Spectrum, J: float, t: float) -> ChannelOne:
    """u1_gue_general of the constant profile lambda_ij = J/D, whose B is
    one number broadcast.  The name stays because bench/workloads.py builds
    it and bench/tracer.py times it."""
    return u1_gue_general(spec, gue_constant(J, spec.dim), t)


def u1_goe_const(spec: Spectrum, J: float, t: float) -> ChannelOne:
    """u1_goe_general of the constant profile lambda_ij = J/D, whose B is
    one number broadcast.  The name stays because bench/workloads.py builds
    it and bench/tracer.py times it."""
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

