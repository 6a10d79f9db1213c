"""Reference objects that only the tests use: the single-replica generator
L1, the dense D^2 x D^2 superoperator and Choi matrix of a channel, the
8 x 8 two-replica generator M, and one full Monte Carlo trajectory.

Each is an independent statement of the dynamics the closed forms in
``noisychaos`` solve, so the tests check the package against it.
"""

from dataclasses import dataclass

import numpy as np

from noisychaos import ChannelOne, Ensemble, NoiseModel, Spectrum, TrajectoryConfig
from noisychaos.channel_two import UnsupportedDimensionError
from noisychaos.montecarlo import _evolve_recorded, validate_step
from noisychaos.noise import noise_dtype


@dataclass(frozen=True)
class GeneratorOne:
    """Delta-structure form of the generator L1.

    w multiplies delta_{ii'}delta_{jj'}; cross[i, i'] multiplies
    delta_{ij}delta_{i'j'}; exch (GOE only) multiplies delta_{ij'}delta_{ji'}.
    """

    dim: int
    ensemble: Ensemble
    w: np.ndarray
    cross: np.ndarray
    exch: np.ndarray | None


def build_L1(spec: Spectrum, model: NoiseModel) -> GeneratorOne:
    """Generator of the averaged single-replica dynamics.

    GUE: w_ij = -i E_i + i E_j - (J_i + J_j)/2, cross term lambda_ii'.
    GOE: w_ij = -i E_i + i E_j - (J_i + J_j + lambda_ii + lambda_jj)/4,
    cross and exchange terms lambda_ii'/2.
    """
    if spec.dim != model.dim:
        raise ValueError(f"spectrum dim {spec.dim} != noise model dim {model.dim}")
    lam = model.lambda_matrix()
    j_row = lam.sum(axis=1)
    phase = -1j * spec.gaps()
    if model.ensemble is Ensemble.GUE:
        w = phase - 0.5 * (j_row[:, None] + j_row[None, :])
        return GeneratorOne(spec.dim, model.ensemble, w, lam.copy(), None)
    ld = np.diag(lam)
    w = phase - 0.25 * (
        j_row[:, None] + j_row[None, :] + ld[:, None] + ld[None, :]
    )
    return GeneratorOne(spec.dim, model.ensemble, w, lam / 2.0, lam / 2.0)


def apply_generator(gen: GeneratorOne, rho: np.ndarray) -> np.ndarray:
    """Contract L1 against a matrix (same index structure as apply_channel)."""
    if rho.shape != (gen.dim, gen.dim):
        raise ValueError(f"rho shape {rho.shape} != ({gen.dim}, {gen.dim})")
    out = gen.w * rho
    out += np.diag(gen.cross @ np.diag(rho))
    if gen.exch is not None:
        out = out + gen.exch * rho.T
    return out


def dense_superoperator(ch: ChannelOne) -> np.ndarray:
    """Materialize the D^2 x D^2 superoperator matrix."""
    d = ch.dim
    s = np.zeros((d, d, d, d), dtype=complex)
    idx = np.arange(d)
    s[idx[:, None], idx[None, :], idx[:, None], idx[None, :]] += ch.coeff_A
    s[idx[:, None], idx[:, None], idx[None, :], idx[None, :]] += ch.coeff_B
    s[idx[:, None], idx[None, :], idx[None, :], idx[:, None]] += ch.coeff_G
    return s.reshape(d * d, d * d)


def choi_matrix(ch: ChannelOne) -> np.ndarray:
    """Choi matrix C[(i,i'),(j,j')] = U1_{ij;i'j'}; PSD for a CP channel."""
    d = ch.dim
    s = dense_superoperator(ch).reshape(d, d, d, d)
    return s.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def build_M(D: int, J: float, w: complex) -> np.ndarray:
    """The 8 x 8 generator on graph-group coefficients: L2.F_a = M_ba F_b."""
    if D < 3:
        raise UnsupportedDimensionError(f"need D >= 3, got {D}")
    j = J / D
    m = np.array(
        [
            [0, 0, -2 * j, 0, 0, 0, 0, 0],
            [j, J, 0, 0, 0, 0, 0, 0],
            [-j, 0, 0, 0, 0, -j, 0, 0],
            [0, 0, j, J, 0, 0, 0, 0],
            [0, 2 * j, 0, 0, 2 * J, 0, 0, 2 * j],
            [0, 0, -2 * j, 0, 0, 0, 0, 0],
            [0, 0, 0, 4 * j, 0, 0, 2 * J, 0],
            [0, 0, 0, 0, 0, j, 0, J],
        ],
        dtype=complex,
    )
    m += w * np.eye(8)
    return m


def evolve_trajectory(
    spec: Spectrum, model: NoiseModel, cfg: TrajectoryConfig, rng: np.random.Generator
) -> np.ndarray:
    """One full trajectory: U(t_n) for n = 0..n_steps, shape (n+1, D, D)."""
    validate_step(model, cfg.dt)
    steps = np.arange(cfg.n_steps + 1)
    eta = np.empty((1, cfg.n_steps, spec.dim, spec.dim), dtype=noise_dtype(model))
    u_rec, _ = _evolve_recorded(spec.energies, model, cfg.dt, steps, [rng], eta)
    return u_rec[0]
