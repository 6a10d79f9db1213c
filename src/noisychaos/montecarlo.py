"""Stochastic-trajectory oracle for the averaged channels.

Each trajectory evolves U(t_{n+1}) = exp(-i (H0 + eta_n) dt) U(t_n) with the
Hermitian exponential taken by Pade 7, scaling and squaring, eta_n drawn from
the regularized noise model.  One simulation feeds every requested observable:
``estimate_observables`` records U on the time grid once per chunk of
trajectories and reduces each observable from those same unitaries; the
``estimate_*`` functions are that path with a single observable.
Trajectories get independent child seeds from a splittable SeedSequence and
results land in per-trajectory slots before a fixed-order reduction, so
estimates are bit-identical regardless of thread count, chunking, and which
observables share the simulation.
"""

from __future__ import annotations

import queue
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticSeries, _meta
from .noise import NoiseModel, noise_dtype, sample_noise_sequence
from .spectra import Spectrum


# Noise bytes (counted as complex128 slices) that the chunks running at once
# may hold.
NOISE_BUDGET_BYTES = 64e6

# Higham's bound on |X|_1 within which the [7/7] Pade approximant of exp is
# accurate to double precision, and its coefficients b_0 .. b_7.
THETA_7 = 0.9504178996162932
PADE_7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)


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
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_max <= 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be positive, got {self.n_traj}")

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


def expm_hermitian_step(x: np.ndarray) -> np.ndarray:
    """exp(-iX) for a batch (..., D, D) of Hermitian or real symmetric X.

    With Y = X^2 the [7/7] Pade approximant of exp(-iX) is
    (Q + iW)^-1 (Q - iW), W = X (b1 - b3 Y + b5 Y^2 - b7 Y^3) and
    Q = b0 - b2 Y + b4 Y^2 - b6 Y^3, exactly unitary in exact arithmetic
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).  Each X is scaled
    by its own 2^-s into |X|_1 <= THETA_7 and its result squared s times,
    so a matrix's result does not depend on its batch-mates.  For real X
    only the solve is complex.
    """
    b = PADE_7
    norm = np.abs(x).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm / THETA_7, 1.0))).astype(int)
    if s.any():
        x = x * np.exp2(-s)[..., None, None]
    eye = np.eye(x.shape[-1])
    y1 = x @ x
    y2 = y1 @ y1
    y3 = y1 @ y2
    w = x @ (b[1] * eye - b[3] * y1 + b[5] * y2 - b[7] * y3)
    q = b[0] * eye - b[2] * y1 + b[4] * y2 - b[6] * y3
    r = np.linalg.solve(q + 1j * w, q - 1j * w)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
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
    ``eta`` (at least n_batch x n_steps x D x D of ``noise_dtype(model)``,
    overwritten)."""
    d = energies.size
    n_steps = int(record_steps.max())
    batch = len(gens)
    eta = eta[:batch, :n_steps]
    for b, gen in enumerate(gens):
        sample_noise_sequence(model, dt, n_steps, gen, out=eta[b])
    u = np.broadcast_to(np.eye(d, dtype=complex), (batch, d, d)).copy()
    out = np.empty((batch, record_steps.size, d, d), dtype=complex)
    rec = {step: k for k, step in enumerate(record_steps)}
    if 0 in rec:
        out[:, rec[0]] = u
    h0 = np.diag(energies)
    for n in range(1, n_steps + 1):
        x = h0 + eta[:, n - 1]
        x *= dt
        u = expm_hermitian_step(x) @ u
        if n in rec:
            out[:, rec[n]] = u
    drift = float(np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(d)).max())
    if drift > 1e-8:
        raise UnitarityError(f"unitarity drift {drift:.2e} exceeds 1e-8")
    return out, drift


def _grid_steps(t_grid: np.ndarray, dt: float) -> np.ndarray:
    steps = np.round(np.asarray(t_grid, dtype=float) / dt).astype(int)
    if not np.allclose(steps * dt, t_grid, atol=1e-9):
        raise ValueError("t_grid times must be integer multiples of dt")
    return steps


def chunk_bounds(n_traj: int, n_steps: int, dim: int, threads: int = 1) -> list[tuple[int, int]]:
    """Split trajectories 0..n_traj into chunks of equal size (to within one)
    whose count is a multiple of ``threads``, so every thread gets the same
    work, and small enough that the noise of ``threads`` chunks running at
    once fits ``NOISE_BUDGET_BYTES``.  There are never more chunks than
    trajectories."""
    per_traj = n_steps * dim * dim * 16
    cap = max(1, int(NOISE_BUDGET_BYTES / (threads * per_traj)))
    n_chunks = min(n_traj, threads * -(-n_traj // (threads * cap)))
    return [(n_traj * k // n_chunks, n_traj * (k + 1) // n_chunks) for k in range(n_chunks)]


@dataclass(frozen=True)
class Observable:
    """A per-trajectory observable of the recorded unitaries.

    ``value`` maps U of shape (batch, n_times, D, D) to values of shape
    (batch, n_times), each trajectory's from its own unitaries only.  The
    estimated series is called ``name``.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]


def sff_observable() -> Observable:
    """|TrU|^2 / D^2, whose mean is the SFF K_J(t)."""

    def value(u_rec):
        d = u_rec.shape[-1]
        tr = np.trace(u_rec, axis1=-2, axis2=-1)
        return np.abs(tr) ** 2 / d**2

    return Observable("mc_sff", value)


def sff_squared_observable() -> Observable:
    """(TrU TrU+)^2 = |TrU|^4."""

    def value(u_rec):
        tr = np.trace(u_rec, axis1=-2, axis2=-1)
        return np.abs(tr) ** 4

    return Observable("mc_sff_squared", value)


def two_point_observable(O: np.ndarray) -> Observable:
    """(1/D) Tr(O+ U+ O U), whose mean is the two-point function C_J(t)."""
    o_dag = O.conj().T

    def value(u_rec):
        d = u_rec.shape[-1]
        o_t = u_rec.conj().transpose(0, 1, 3, 2) @ O @ u_rec
        return np.trace(o_dag @ o_t, axis1=-2, axis2=-1) / d

    return Observable("mc_two_point", value)


def otoc_observable(A: np.ndarray, B: np.ndarray) -> Observable:
    """(1/D) Tr(A B_t A B_t) with B_t = U+ B U, whose mean is OTOC_J(t)."""

    def value(u_rec):
        d = u_rec.shape[-1]
        b_t = u_rec.conj().transpose(0, 1, 3, 2) @ B @ u_rec
        ab = A @ b_t
        return np.trace(ab @ ab, axis1=-2, axis2=-1) / d

    return Observable("mc_otoc", value)


def transfer_observable(i: int, j: int) -> Observable:
    """|U_ji|^2, whose mean is the transfer probability i -> j."""

    def value(u_rec):
        return np.abs(u_rec[:, :, j, i]) ** 2

    return Observable("mc_transfer", value)


@dataclass(frozen=True)
class OracleRun:
    """The series of one simulation, keyed as the observables were, and the
    largest unitarity drift over all its trajectories."""

    series: dict[str, DiagnosticSeries]
    max_drift: float


def _reduce(name, spec, model, cfg, t_grid, values) -> DiagnosticSeries:
    mean = values.mean(axis=0)
    if cfg.n_traj >= 2:
        stderr = values.std(axis=0, ddof=1) / np.sqrt(cfg.n_traj)
    else:
        stderr = np.zeros(mean.size)
    meta = _meta(
        spec,
        noise=model.to_config(),
        dt=cfg.dt,
        n_traj=cfg.n_traj,
        seed=cfg.seed,
    )
    return DiagnosticSeries(name, np.asarray(t_grid, dtype=float), mean, stderr, meta)


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
    recorded unitaries, so each series equals the one a separate estimate
    of that observable alone would give.
    """
    validate_step(model, cfg.dt)
    t_grid = np.asarray(t_grid)
    steps = _grid_steps(t_grid, cfg.dt)
    if steps.max() > cfg.n_steps:
        raise ValueError("t_grid extends beyond cfg.t_max")
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj)
    gens = [np.random.default_rng(c) for c in children]
    threads = max(1, threads)
    n_steps = int(steps.max())
    bounds = chunk_bounds(cfg.n_traj, max(n_steps, 1), spec.dim, threads)
    values = {key: np.empty((cfg.n_traj, steps.size), dtype=complex) for key in observables}
    # The noise buffers, one per chunk running at once, are allocated here
    # and lent to the chunks.  Were each chunk to allocate its own, every
    # call's fresh pool threads would hold tens of MB in per-thread malloc
    # arenas, and a thread starting before the last call's threads have
    # released theirs gets a new arena: peak memory would then depend on
    # thread timing.
    largest = max(hi - lo for lo, hi in bounds)
    buffers = queue.SimpleQueue()
    for _ in range(min(threads, len(bounds))):
        buffers.put(np.empty((largest, n_steps, spec.dim, spec.dim), dtype=noise_dtype(model)))

    def run_chunk(bound: tuple[int, int]) -> float:
        lo, hi = bound
        eta = buffers.get()
        try:
            u_rec, drift = _evolve_recorded(spec.energies, model, cfg.dt, steps, gens[lo:hi], eta)
        finally:
            buffers.put(eta)
        for key, obs in observables.items():
            values[key][lo:hi] = obs.value(u_rec)
        return drift

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            drifts = list(pool.map(run_chunk, bounds))
    else:
        drifts = [run_chunk(b) for b in bounds]
    series = {
        key: _reduce(obs.name, spec, model, cfg, t_grid, values[key])
        for key, obs in observables.items()
    }
    return OracleRun(series, max(drifts))


def _estimate_one(spec, model, cfg, t_grid, obs: Observable, threads: int) -> DiagnosticSeries:
    return estimate_observables(spec, model, cfg, t_grid, {obs.name: obs}, threads).series[obs.name]


def estimate_sff(
    spec: Spectrum, model: NoiseModel, cfg: TrajectoryConfig, t_grid, threads: int = 1
) -> DiagnosticSeries:
    """Monte Carlo estimate of K_J(t) = E|TrU|^2 / D^2 with error bars."""
    return _estimate_one(spec, model, cfg, t_grid, sff_observable(), threads)


def estimate_sff_squared(
    spec: Spectrum, model: NoiseModel, cfg: TrajectoryConfig, t_grid, threads: int = 1
) -> DiagnosticSeries:
    """Monte Carlo estimate of E[(TrU TrU+)^2]."""
    return _estimate_one(spec, model, cfg, t_grid, sff_squared_observable(), threads)


def estimate_two_point(
    spec: Spectrum,
    model: NoiseModel,
    cfg: TrajectoryConfig,
    O: np.ndarray,
    t_grid,
    threads: int = 1,
) -> DiagnosticSeries:
    """Monte Carlo estimate of C_J(t) = (1/D) E[Tr(O+ U+ O U)]."""
    return _estimate_one(spec, model, cfg, t_grid, two_point_observable(O), threads)


def estimate_otoc(
    spec: Spectrum,
    model: NoiseModel,
    cfg: TrajectoryConfig,
    A: np.ndarray,
    B: np.ndarray,
    t_grid,
    threads: int = 1,
) -> DiagnosticSeries:
    """Monte Carlo estimate of OTOC_J = (1/D) E[Tr(A B_t A B_t)]."""
    return _estimate_one(spec, model, cfg, t_grid, otoc_observable(A, B), threads)


def estimate_transfer(
    spec: Spectrum,
    model: NoiseModel,
    cfg: TrajectoryConfig,
    i: int,
    j: int,
    t_grid,
    threads: int = 1,
) -> DiagnosticSeries:
    """Monte Carlo estimate of the transfer probability E|U_ji|^2."""
    return _estimate_one(spec, model, cfg, t_grid, transfer_observable(i, j), threads)
