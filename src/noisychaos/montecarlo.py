"""Stochastic-trajectory oracle for the averaged channels.

Each trajectory evolves U(t_{n+1}) = exp(-i (H0 + eta_n) dt) U(t_n), eta_n
drawn from the regularized noise model, entirely in real arithmetic: U is
carried as its real block column [Re U; Im U], and each step is the real
form of exp(-iX) from a degree-15 Taylor polynomial with per-matrix scaling
and squaring (``expm_hermitian_step``).  One simulation feeds every
requested observable: ``estimate_observables`` records U on the time grid
once per chunk of trajectories and reduces each observable from those same
unitaries; the ``estimate_*`` functions are that path with a single
observable.  A chunk draws its noise up front into a float64 buffer of
K = ``noise_width(model)`` independent entries per slice, n_steps x K x 8
bytes per trajectory (``chunk_bounds`` sizes the chunks by those bytes),
and expands one step's slices at a time.  Trajectory k draws its noise from
child k of the SeedSequence of the seed, and results land in per-trajectory
slots before a fixed-order reduction, so estimates are bit-identical
regardless of thread count, chunking, and which observables share the
simulation.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .noise import NoiseModel, noise_slices, noise_width, sample_noise_sequence
from .spectra import Spectrum


# Noise bytes, the float64 rows of K independent entries per slice that
# sample_noise_sequence writes, that the chunks running at once may hold.
# It stays below 32 MiB, glibc's cap on its dynamic mmap threshold: a larger
# buffer is always mapped afresh and unmapped on free, so every call would
# fault in every page of it again.
NOISE_BUDGET_BYTES = 32e6

# The bound (2^-53 16!)^(1/16) on |X|_1 within which the degree-15 Taylor
# remainder |X|^16 / 16! of exp(-iX) lies below double-precision roundoff.
THETA_15 = 0.6845053769594961
# Paterson-Stockmeyer coefficients of that polynomial, one row per block
# polynomial in the powers 0 .. 3 of its variable.  Rows of EXP_15: B_i in
# exp(M) = sum_i M^4i B_i(M), B_i(M) = sum_j M^j / (4i + j)!.  Rows of
# COS_SIN_15: the low and high halves of cos X and of sin X / X as
# polynomials in Y = X^2, each low(Y) + Y^4 high(Y).
EXP_15 = np.array([[1.0 / math.factorial(4 * i + j) for j in range(4)] for i in range(4)])
COS_SIN_15 = np.array([
    [(-1) ** k / math.factorial(2 * k + odd) for k in range(half, half + 4)]
    for odd in (0, 1) for half in (0, 4)
])


class UnitarityError(RuntimeError):
    """Unitarity drifted beyond tolerance (step too large)."""


@dataclass(frozen=True)
class TrajectoryConfig:
    """Discretization and ensemble-size parameters for the oracle."""

    dt: float
    t_max: float
    n_traj: int
    seed: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt={self.dt!r} must be positive")
        if self.t_max <= 0.0:
            raise ValueError(f"t_max={self.t_max!r} must be positive")
        if self.n_traj < 1:
            raise ValueError(f"n_traj={self.n_traj!r} must be positive")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))


def step_margin(model: NoiseModel, dt: float) -> float:
    """dt |lambda|_inf D: the regularized variance is valid while this is <= 1."""
    return dt * float(np.max(model.lambda_matrix())) * model.dim


def validate_step(model: NoiseModel, dt: float) -> None:
    """Hard validity bound on the regularized variance: dt |lambda|_inf D <= 1."""
    if step_margin(model, dt) > 1.0:
        lam_max = float(np.max(model.lambda_matrix()))
        raise ValueError(
            f"dt={dt} too large for |lambda|_inf={lam_max}, D={model.dim}: "
            "regularized variance exceeds perturbative validity"
        )


def _block(col: np.ndarray) -> np.ndarray:
    """The real form [[Re Z, -Im Z], [Im Z, Re Z]] of a complex matrix Z
    from its block column [Re Z; Im Z] of shape (..., 2D, D)."""
    d = col.shape[-1]
    full = np.empty(col.shape[:-1] + (2 * d,))
    full[..., :d] = col
    full[..., :d, d:] = -col[..., d:, :]
    full[..., d:, d:] = col[..., :d, :]
    return full


def _combine(coef: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """coef @ powers over the stacking axis -3 of (..., 4, m, n) powers, in
    one small product per matrix of the batch."""
    flat = powers.reshape(powers.shape[:-2] + (-1,))
    return (coef @ flat).reshape(powers.shape)


def _taylor_real(x: np.ndarray) -> np.ndarray:
    """[cos X; -sin X], the block column of exp(-iX) for real symmetric X,
    from Y = X^2 .. Y^4: 7 real D x D products."""
    d = x.shape[-1]
    y = np.empty(x.shape[:-2] + (4, d, d))
    y[..., 0, :, :] = np.eye(d)
    np.matmul(x, x, out=y[..., 1, :, :])
    np.matmul(y[..., 1, :, :], y[..., 1, :, :], out=y[..., 2, :, :])
    np.matmul(y[..., 1, :, :], y[..., 2, :, :], out=y[..., 3, :, :])
    y4 = y[..., 2, :, :] @ y[..., 2, :, :]
    p = _combine(COS_SIN_15, y)
    p[..., ::2, :, :] += y4[..., None, :, :] @ p[..., 1::2, :, :]
    return np.concatenate([p[..., 0, :, :], -(x @ p[..., 2, :, :])], axis=-2)


def _taylor_complex(x: np.ndarray) -> np.ndarray:
    """[Re; Im], the block column of exp(-iX) for Hermitian X: exp(M) of
    the real form M = [[Im X, Re X], [-Re X, Im X]] of -iX, from M .. M^4
    and three Horner steps in M^4.  Each of the 6 products is a 2D x 2D
    matrix times a 2D x D block column."""
    d = x.shape[-1]
    m = np.zeros(x.shape[:-2] + (4, 2 * d, d))
    m[..., 0, :d, :] = np.eye(d)
    m[..., 1, :d, :] = x.imag
    m[..., 1, d:, :] = -x.real
    m1 = _block(m[..., 1, :, :])
    np.matmul(m1, m[..., 1, :, :], out=m[..., 2, :, :])
    np.matmul(m1, m[..., 2, :, :], out=m[..., 3, :, :])
    m4 = _block(m1 @ m[..., 3, :, :])
    b = _combine(EXP_15, m)
    col = b[..., 3, :, :]
    for i in (2, 1, 0):
        col = b[..., i, :, :] + m4 @ col
    return col


def expm_hermitian_step(x: np.ndarray) -> np.ndarray:
    """exp(-iX) for a batch (..., D, D) of Hermitian or real symmetric X, as
    the real (..., 2D, 2D) matrix [[Re, -Im], [Im, Re]].

    Both branches sum the degree-15 Taylor polynomial of exp(-iX) by
    Paterson-Stockmeyer in real arithmetic: real X as cos X - i sin X
    (``_taylor_real``), complex X as exp of a real antisymmetric 2D x 2D
    matrix (``_taylor_complex``).  Each X is scaled by its own 2^-s into
    |X|_1 <= THETA_15 and its result squared s times, so a matrix's result
    does not depend on its batch-mates; as |X|_2 <= |X|_1 for Hermitian X,
    the Taylor remainder |X|^16 / 16! is below 2^-53.
    """
    norm = np.abs(x).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm / THETA_15, 1.0))).astype(int)
    if s.any():
        x = x * np.exp2(-s)[..., None, None]
    r = _block(_taylor_real(x) if np.isrealobj(x) else _taylor_complex(x))
    d = x.shape[-1]
    for k in range(int(s.max(initial=0))):
        sq = s > k
        rs = r[sq]
        r[sq] = _block(rs @ rs[..., :d])
    return r


def _evolve_recorded(
    energies: np.ndarray,
    model: NoiseModel,
    dt: float,
    record_steps: np.ndarray,
    gens: list[np.random.Generator],
    eta: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Evolve a batch of trajectories, returning U at the recorded step
    indices with shape (n_batch, n_record, D, D) and the batch's largest
    unitarity drift max |U+U - 1| at the last step.  The noise is drawn into
    ``eta`` (at least n_batch x n_steps x K float64, K = ``noise_width(model)``,
    overwritten) as rows of independent entries, and each step expands its
    rows into the batch's full slices.  U is carried as its real block column
    [Re U; Im U]."""
    d = energies.size
    n_steps = int(record_steps.max())
    batch = len(gens)
    eta = eta[:batch, :n_steps]
    for b, gen in enumerate(gens):
        sample_noise_sequence(model, dt, n_steps, gen, out=eta[b])
    u = np.zeros((batch, 2 * d, d))
    u[:, :d] = np.eye(d)
    out = np.empty((batch, record_steps.size, d, d), dtype=complex)
    rec = {step: k for k, step in enumerate(record_steps)}
    h0 = np.diag(energies)
    for n in range(n_steps + 1):
        if n:
            x = h0 + noise_slices(model, eta[:, n - 1])
            x *= dt
            u = expm_hermitian_step(x) @ u
        if n in rec:
            out[:, rec[n]].real = u[:, :d]
            out[:, rec[n]].imag = u[:, d:]
    u = u[:, :d] + 1j * u[:, d:]
    drift = float(np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(d)).max())
    if drift > 1e-8:
        raise UnitarityError(f"unitarity drift {drift:.2e} exceeds 1e-8")
    return out, drift


def grid_steps(t_grid: np.ndarray, dt: float) -> np.ndarray:
    """The step index n of each grid time t = n dt."""
    steps = np.round(np.asarray(t_grid, dtype=float) / dt).astype(int)
    if not np.allclose(steps * dt, t_grid, atol=1e-9):
        raise ValueError("t_grid times must be integer multiples of dt")
    return steps


def chunk_bounds(n_traj: int, n_steps: int, width: int, threads: int = 1) -> list[tuple[int, int]]:
    """Split trajectories 0..n_traj into chunks of equal size (to within one)
    whose count is a multiple of ``threads``, so every thread gets the same
    work, and small enough that the noise of ``threads`` chunks running at
    once, n_steps rows of ``width`` float64 entries per trajectory, fits
    ``NOISE_BUDGET_BYTES``.  There are never more chunks than trajectories."""
    per_traj = n_steps * width * 8
    cap = max(1, int(NOISE_BUDGET_BYTES / (threads * per_traj)))
    n_chunks = min(n_traj, threads * -(-n_traj // (threads * cap)))
    return [(n_traj * k // n_chunks, n_traj * (k + 1) // n_chunks) for k in range(n_chunks)]


# A per-trajectory observable of the recorded unitaries: it maps U of shape
# (batch, n_times, D, D) to values of shape (batch, n_times), each
# trajectory's from its own unitaries only.
Observable = Callable[[np.ndarray], np.ndarray]


def sff_observable() -> Observable:
    """|TrU|^2 / D^2, whose mean is the SFF K_J(t)."""

    def value(u_rec):
        d = u_rec.shape[-1]
        tr = np.trace(u_rec, axis1=-2, axis2=-1)
        return np.abs(tr) ** 2 / d**2

    return value


def sff_squared_observable() -> Observable:
    """(TrU TrU+)^2 = |TrU|^4."""

    def value(u_rec):
        tr = np.trace(u_rec, axis1=-2, axis2=-1)
        return np.abs(tr) ** 4

    return value


def two_point_observable(O: np.ndarray) -> Observable:
    """(1/D) Tr(O+ U+ O U), whose mean is the two-point function C_J(t)."""
    o_dag = O.conj().T

    def value(u_rec):
        d = u_rec.shape[-1]
        o_t = u_rec.conj().transpose(0, 1, 3, 2) @ O @ u_rec
        return np.trace(o_dag @ o_t, axis1=-2, axis2=-1) / d

    return value


def otoc_observable(A: np.ndarray, B: np.ndarray) -> Observable:
    """(1/D) Tr(A B_t A B_t) with B_t = U+ B U, whose mean is OTOC_J(t)."""

    def value(u_rec):
        d = u_rec.shape[-1]
        b_t = u_rec.conj().transpose(0, 1, 3, 2) @ B @ u_rec
        ab = A @ b_t
        return np.trace(ab @ ab, axis1=-2, axis2=-1) / d

    return value


def transfer_observable(i: int, j: int) -> Observable:
    """|U_ji|^2, whose mean is the transfer probability i -> j."""

    def value(u_rec):
        return np.abs(u_rec[:, :, j, i]) ** 2

    return value


class Estimate(NamedTuple):
    """The mean of an observable over the trajectories at each grid time and
    its standard error (zero when there is one trajectory)."""

    values: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True)
class OracleRun:
    """The estimates of one simulation, keyed as the observables were, and
    the largest unitarity drift over all its trajectories."""

    series: dict[str, Estimate]
    max_drift: float


def estimate_observables(
    spec: Spectrum,
    model: NoiseModel,
    cfg: TrajectoryConfig,
    t_grid,
    observables: Mapping[str, Observable],
    threads: int = 1,
) -> OracleRun:
    """Monte Carlo estimates of several observables from one simulation.

    Each chunk of trajectories (see ``chunk_bounds``) is evolved once and
    every observable fills its own (n_traj, n_times) slots from the same
    recorded unitaries, so each estimate equals the one a separate estimate
    of that observable alone would give.
    """
    validate_step(model, cfg.dt)
    steps = grid_steps(t_grid, cfg.dt)
    if steps.max() > cfg.n_steps:
        raise ValueError("t_grid extends beyond cfg.t_max")
    threads = max(1, threads)
    n_steps = int(steps.max())
    width = noise_width(model)
    bounds = chunk_bounds(cfg.n_traj, max(n_steps, 1), width, threads)
    values = {key: np.empty((cfg.n_traj, steps.size), dtype=complex) for key in observables}
    # Worker w runs chunks w, w + workers, ... in its own noise buffer.  The
    # buffers are allocated here: were each worker to allocate its own,
    # every call's fresh pool threads would hold tens of MB in per-thread
    # malloc arenas, and a thread starting before the last call's threads
    # have released theirs gets a new arena, so peak memory would depend on
    # thread timing.
    workers = min(threads, len(bounds))
    largest = max(hi - lo for lo, hi in bounds)
    buffers = [np.empty((largest, n_steps, width)) for _ in range(workers)]

    def run_share(w: int, eta: np.ndarray) -> float:
        drifts = []
        for lo, hi in bounds[w::workers]:
            # Trajectory k's seed is child k of SeedSequence(cfg.seed).spawn(n_traj).
            gens = [np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(k,)))
                    for k in range(lo, hi)]
            u_rec, drift = _evolve_recorded(spec.energies, model, cfg.dt, steps, gens, eta)
            for key, value in observables.items():
                values[key][lo:hi] = value(u_rec)
            drifts.append(drift)
        return max(drifts)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        max_drift = max(pool.map(run_share, range(workers), buffers))
    n = cfg.n_traj
    series = {
        key: Estimate(v.mean(axis=0),
                      v.std(axis=0, ddof=1) / np.sqrt(n) if n >= 2 else np.zeros(steps.size))
        for key, v in values.items()
    }
    return OracleRun(series, max_drift)


def _estimate_one(spec, model, cfg, t_grid, key, obs, threads) -> Estimate:
    return estimate_observables(spec, model, cfg, t_grid, {key: obs}, threads).series[key]


def estimate_sff(
    spec: Spectrum, model: NoiseModel, cfg: TrajectoryConfig, t_grid, threads: int = 1
) -> Estimate:
    """Monte Carlo estimate of K_J(t) = E|TrU|^2 / D^2 with error bars."""
    return _estimate_one(spec, model, cfg, t_grid, "sff", sff_observable(), threads)


def estimate_sff_squared(
    spec: Spectrum, model: NoiseModel, cfg: TrajectoryConfig, t_grid, threads: int = 1
) -> Estimate:
    """Monte Carlo estimate of E[(TrU TrU+)^2]."""
    return _estimate_one(spec, model, cfg, t_grid, "sff_squared", sff_squared_observable(), threads)


def estimate_two_point(
    spec: Spectrum,
    model: NoiseModel,
    cfg: TrajectoryConfig,
    O: np.ndarray,
    t_grid,
    threads: int = 1,
) -> Estimate:
    """Monte Carlo estimate of C_J(t) = (1/D) E[Tr(O+ U+ O U)]."""
    return _estimate_one(spec, model, cfg, t_grid, "two_point", two_point_observable(O), threads)


def estimate_otoc(
    spec: Spectrum,
    model: NoiseModel,
    cfg: TrajectoryConfig,
    A: np.ndarray,
    B: np.ndarray,
    t_grid,
    threads: int = 1,
) -> Estimate:
    """Monte Carlo estimate of OTOC_J = (1/D) E[Tr(A B_t A B_t)]."""
    return _estimate_one(spec, model, cfg, t_grid, "otoc", otoc_observable(A, B), threads)


def estimate_transfer(
    spec: Spectrum,
    model: NoiseModel,
    cfg: TrajectoryConfig,
    i: int,
    j: int,
    t_grid,
    threads: int = 1,
) -> Estimate:
    """Monte Carlo estimate of the transfer probability E|U_ji|^2."""
    return _estimate_one(spec, model, cfg, t_grid, "transfer", transfer_observable(i, j), threads)
