"""Single-replica noise-averaged channel U1(t) = E[U_t (x) U_t*].

The channel is read in the delta-structure basis: three D x D coefficient
arrays A, B, G multiplying delta_{ii'}delta_{jj'}, delta_{ij}delta_{i'j'} and
delta_{ij'}delta_{ji'} respectively, so memory is O(D^2) instead of O(D^4).
Each ensemble has one builder for any variance profile; u1_gue_const and
u1_goe_const are those builders on lambda_ij = J/D.  Every case is an exact
closed form, and a built ``ChannelOne`` keeps only the factors the form
produces, building a grid when it is read.  Under GUE noise A has rank one,
A_ij = p_i conj(p_j) with the phases p_i = e^{-(i E_i + J_i/2) t}
(``gue_phases``), so the channel keeps the D phases, and G is zero; under GOE
noise each level pair i <= j is one 2 x 2 block with real kappa and q^2
(``GoePairs``), so A and G are its cosh and sinh, one complex and one real
value per pair.  The populations are a Markov chain, so B is a matrix
exponential: the channel keeps the model's shared modes and two D-vectors,
and ``populations`` contracts it on a whole grid for the diagnostics; under
the constant profile it is one number.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .noise import ConstantOverD, Ensemble, NoiseModel, goe_constant, gue_constant
from .spectra import Spectrum


class MarkovFactors(NamedTuple):
    """B = (v e^{mu s}) v^T - diag(e^{-J s}) at one Markov time s: the
    model's shared population modes v and two D-vectors."""

    modes: np.ndarray
    growth: np.ndarray  # e^{mu s}
    kept: np.ndarray  # e^{-J s}


def _read_only(a) -> np.ndarray:
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class ChannelOne:
    """Averaged single-replica channel at a fixed time.

    Applying the channel to a density matrix rho gives

        rho'_ij = A_ij rho_ij + delta_ij sum_k B_ik rho_kk + G_ij rho_ji

    The channel keeps the factors its closed form produces, each stored as
    a read-only view:

    - ``a_part``: under GUE noise the D phases p, A = p p^H; under GOE noise
      a = C - i delta S over the level pairs i <= j (``_pair_indices``),
      A_ij = a and A_ji = conj(a);
    - ``g_part``: None under GUE noise, where G is zero; under GOE noise
      g = (lambda_ij/2) S over the level pairs, G_ij = G_ji = g;
    - ``b_part``: the constant profile's one value of B, a float, or B's
      ``MarkovFactors``.

    ``coeff_A``, ``coeff_B`` and ``coeff_G`` build a new read-only array
    that broadcasts as D x D at each read, and keep nothing: A is a complex
    grid; B is a real grid, or under the constant profile a broadcast of its
    one value; G is a broadcast zero under GUE noise and a real grid under
    GOE noise.
    """

    dim: int
    a_part: np.ndarray
    g_part: np.ndarray | None
    b_part: float | MarkovFactors

    def __post_init__(self):
        b = self.b_part
        b = MarkovFactors(*map(_read_only, b)) if isinstance(b, MarkovFactors) else float(b)
        object.__setattr__(self, "a_part", _read_only(self.a_part))
        if self.g_part is not None:
            object.__setattr__(self, "g_part", _read_only(self.g_part))
        object.__setattr__(self, "b_part", b)

    @property
    def coeff_A(self) -> np.ndarray:
        if self.g_part is None:
            return _read_only(np.multiply.outer(self.a_part, self.a_part.conj()))
        i, j = _pair_indices(self.dim)
        out = np.empty((self.dim, self.dim), dtype=complex)
        out[j, i] = self.a_part.conj()  # the lower triangle first: a holds the diagonal
        out[i, j] = self.a_part
        return _read_only(out)

    @property
    def coeff_B(self) -> np.ndarray:
        if not isinstance(self.b_part, MarkovFactors):
            return np.broadcast_to(self.b_part, (self.dim, self.dim))
        v, growth, kept = self.b_part
        return _read_only((v * growth) @ v.T - np.diag(kept))

    @property
    def coeff_G(self) -> np.ndarray:
        if self.g_part is None:
            return np.broadcast_to(0.0, (self.dim, self.dim))
        i, j = _pair_indices(self.dim)
        out = np.empty((self.dim, self.dim))
        out[i, j] = out[j, i] = self.g_part
        return _read_only(out)


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


def _markov_time(model: NoiseModel, t) -> np.ndarray:
    """The populations' time s: t under GUE noise, t/2 under GOE (its
    generator is the GUE one halved)."""
    return np.asarray(t, dtype=float) / (2.0 if model.ensemble is Ensemble.GOE else 1.0)


def populations(model: NoiseModel, t, m, propagator: bool = False) -> np.ndarray:
    """The population block B, the delta_ij delta_i'j' coefficients, of
    either ensemble contracted with D x D weights m: sum_ij m_ij B_ij(t)
    shaped like the grid t, or with ``propagator`` the same sum over
    e^{sP} = B(t) + diag(e^{-J s}).

    The populations obey rho_jj' = sum_i lambda_ji rho_ii - J_j rho_jj, a
    Markov chain with the symmetric generator P = lambda - diag(J), so they
    evolve by e^{sP} at the time s of ``_markov_time``.  The diagonal of
    A (+ G) carries the e^{-J s} of it that never left its state, so
    B = e^{sP} - diag(e^{-J s}).  The constant profile gives
    B = -expm1(-Js)/D everywhere; any other takes the model's modes,
    e^{sP} = V diag(e^{mu s}) V^T, and a contraction needs only
    diag(V^T m V): O(T D) on T points.  P is minus a graph Laplacian,
    negative semidefinite, so e^{mu s} <= 1 and no t overflows.
    """
    s = _markov_time(model, t)
    if isinstance(model.profile, ConstantOverD):
        kept = np.exp(-model.profile.J * s) * np.trace(m) if propagator else 0.0
        return -np.expm1(-model.profile.J * s) / model.dim * np.sum(m) + kept
    mu, v, j_row = model.population_modes
    out = np.exp(np.multiply.outer(s, mu)) @ ((m @ v) * v).sum(axis=0)
    return out if propagator else out - np.exp(np.multiply.outer(s, -j_row)) @ np.diagonal(m)


def _population_factors(model: NoiseModel, t: float) -> float | MarkovFactors:
    """B at one time, as a builder keeps it: the constant profile's one
    value -expm1(-Js)/D, or the ``MarkovFactors`` of the model's modes."""
    s = _markov_time(model, t)
    if isinstance(model.profile, ConstantOverD):
        return -np.expm1(-model.profile.J * s) / model.dim
    mu, v, j_row = model.population_modes
    return MarkovFactors(v, np.exp(mu * s), np.exp(-j_row * s))


def u1_gue_general(spec: Spectrum, model: NoiseModel, t: float) -> ChannelOne:
    """GUE channel of any variance profile: A_ij = exp(w_ij t) with
    w_ij = -i(E_i - E_j) - (J_i + J_j)/2, kept as the D phases of the
    rank-one p_i conj(p_j), B's factors, and no G."""
    check_dims(spec, model)
    if model.ensemble is not Ensemble.GUE:
        raise ValueError("u1_gue_general requires a GUE noise model")
    t = _one_time(t)
    return ChannelOne(spec.dim, gue_phases(spec, model, t), None, _population_factors(model, t))


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
    ``goe_cos_sin``: A_ij = C - i delta S = conj(A_ji) and G_ij = G_ji = l S,
    kept as one complex and one real value per pair.  The populations feel
    the noise at half the GUE rate (A_jj + G_jj = e^{-J_j t/2}), so B's
    factors are taken at t/2."""
    check_dims(spec, model)
    if model.ensemble is not Ensemble.GOE:
        raise ValueError("u1_goe_general requires a GOE noise model")
    t = _one_time(t)
    p = goe_params(spec, model)
    c, s = goe_cos_sin(p.q, p.kappa, t)
    return ChannelOne(spec.dim, c - 1j * p.delta * s, p.half_lam * s, _population_factors(model, t))


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
    rho = np.asarray(rho)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"rho shape {rho.shape} != ({ch.dim}, {ch.dim})")
    out = ch.coeff_A * rho
    out += np.diag(ch.coeff_B @ np.diag(rho))
    out += ch.coeff_G * rho.T
    return out

