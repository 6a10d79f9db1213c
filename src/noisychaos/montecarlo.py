"""Stochastic-trajectory oracle for the averaged channels.

Each trajectory evolves U(t_{n+1}) = exp(-i (H0 + eta_n) dt) U(t_n), eta_n
drawn from the regularized noise model, entirely in real arithmetic: U is
carried as its real block column [Re U; Im U], and each step is the real
form of exp(-iX) from a degree-15 Taylor polynomial with per-matrix scaling
and squaring (``expm_hermitian_step``).  One simulation feeds every
requested observable: ``estimate_observables`` evolves each chunk of
trajectories once and, at each step on the time grid, evaluates every
observable on the chunk's U at that step; the ``estimate_*`` functions are
that path with a single observable.

Each worker runs its chunks in one workspace: one array per entry of its
layout, allocated once per call in the calling thread for the worker's
largest chunk, whatever the number of steps.  The batch axis comes first,
except in the Taylor powers, which lie power-major, (power, batch, ...), so
that each power is one contiguous slab.  Each chunk takes the leading
trajectories of every array, and every step reuses them, so only the
observables, at a recorded step, allocate arrays of the batch's size.  Per
trajectory it holds the noise rows of one block of ``NOISE_BLOCK_STEPS``
steps with the scratch of their normal draws, one step's noise row of K =
``noise_width`` entries, the step's slices, Taylor powers, block forms and
next U, and U at a recorded step, which the observables read.  A GUE row
is its x half, D(D+1)/2 entries laid out as a whole GOE row, then its y
half.  A trajectory's stream is all of its x draws, then under GUE all of
its y draws; GUE walks it with two generators from the same seed, one for
the x halves and one that first draws past every x half, so each block
draws its own steps' x and y halves and nothing is kept between blocks.
``chunk_bounds`` sizes the chunks so that the workspaces of the chunks
running at once, ``workspace_bytes`` per trajectory, fit
``WORKSPACE_BUDGET_BYTES``.  Trajectory k draws its noise from child k of
the SeedSequence of the seed, a block at a time in the order of one
up-front draw, and results land in per-trajectory slots before a
fixed-order reduction, so estimates are bit-identical regardless of thread
count, chunking, block length, and which observables share the simulation.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .noise import Ensemble, NoiseModel, noise_slices, noise_width, sample_noise_sequence
from .spectra import Spectrum


# Workspace bytes that the chunks running at once may hold.  It stays below
# 32 MiB, glibc's cap on its dynamic mmap threshold: a larger array is
# always mapped afresh and unmapped on free, so every call would fault in
# every page of it again.
WORKSPACE_BUDGET_BYTES = 32e6
# Steps whose noise a chunk draws at once.
NOISE_BLOCK_STEPS = 10

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


# A layout maps each array of a workspace to its shape per trajectory and
# its dtype; the workspace of a batch puts the batch axis first, except in
# the Taylor powers, which put it after the power.
Layout = dict[str, tuple[tuple[int, ...], type]]
POWERS = frozenset({"y", "p", "q", "m", "b"})


def _block(col: np.ndarray, out: np.ndarray, where=True) -> np.ndarray:
    """The real form [[Re Z, -Im Z], [Im Z, Re Z]] of a complex matrix Z
    from its block column [Re Z; Im Z] of shape (..., 2D, D), written into
    ``out`` (..., 2D, 2D) where ``where`` holds."""
    d = col.shape[-1]
    np.copyto(out[..., :d], col, where=where)
    np.negative(col[..., d:, :], out=out[..., :d, d:], where=where)
    np.copyto(out[..., d:, d:], col[..., :d, :], where=where)
    return out


def _combine(coef: np.ndarray, powers: np.ndarray, out: np.ndarray) -> np.ndarray:
    """coef @ powers over axis 0 of power-major (4, batch, m, n) powers, as
    one product over each power's flat slab, written into ``out``."""
    flat = powers.reshape(powers.shape[0], -1)
    np.matmul(coef, flat, out=out.reshape(flat.shape))
    return out


def _taylor_real(x: np.ndarray, w: SimpleNamespace) -> np.ndarray:
    """[cos X; -sin X], the block column of exp(-iX) for real symmetric X,
    from Y = X^2 .. Y^4: 7 real D x D products."""
    d = x.shape[-1]
    y, p = w.y, w.p
    np.matmul(x, x, out=y[1])
    np.matmul(y[1], y[1], out=y[2])
    np.matmul(y[1], y[2], out=y[3])
    np.matmul(y[2], y[2], out=w.y4)
    _combine(COS_SIN_15, y, out=p)
    np.matmul(w.y4, p[1::2], out=w.q)
    p[::2] += w.q
    w.col[:, :d] = p[0]
    np.matmul(x, p[2], out=w.col[:, d:])
    np.negative(w.col[:, d:], out=w.col[:, d:])
    return w.col


def _taylor_complex(x: np.ndarray, w: SimpleNamespace) -> np.ndarray:
    """[Re; Im], the block column of exp(-iX) for Hermitian X: exp(M) of
    the real form M = [[Im X, Re X], [-Re X, Im X]] of -iX, from M .. M^4
    and three Horner steps in M^4.  Each of the 6 products is a 2D x 2D
    matrix times a 2D x D block column.  M, then M^4, is formed in
    ``w.r``, which the step's result overwrites."""
    d = x.shape[-1]
    m, b, mb = w.m, w.b, w.r
    m[1, :, :d] = x.imag
    np.negative(x.real, out=m[1, :, d:])
    _block(m[1], out=mb)
    np.matmul(mb, m[1], out=m[2])
    np.matmul(mb, m[2], out=m[3])
    np.matmul(mb, m[3], out=w.col)
    _block(w.col, out=mb)
    _combine(EXP_15, m, out=b)
    for i in (2, 1, 0):
        np.matmul(mb, b[i + 1], out=w.col)
        np.add(b[i], w.col, out=b[i])
    return b[0]


def _step_layout(d: int, real: bool) -> Layout:
    """The arrays one step of a batch writes into: X, |X| and its column
    sums, the Taylor powers and products of ``_taylor_real`` (Y^0 .. Y^3,
    Y^4, the block polynomials and Y^4 times their high halves) or of
    ``_taylor_complex`` (M^0 .. M^3 as block columns and the Horner
    blocks), a block column, and the result.  The arrays of ``POWERS``
    hold one matrix per power, their leading axis."""
    shapes = {"x": ((d, d), float if real else complex), "abs": ((d, d), float), "colsum": ((d,), float)}
    if real:
        shapes |= {"y": ((4, d, d), float), "y4": ((d, d), float), "p": ((4, d, d), float),
                   "q": ((2, d, d), float)}
    else:
        shapes |= {"m": ((4, 2 * d, d), float), "b": ((4, 2 * d, d), float)}
    return shapes | {"col": ((2 * d, d), float), "r": ((2 * d, 2 * d), float)}


def _workspace(layout: Layout, batch: int) -> SimpleNamespace:
    """One array per entry of ``layout`` at ``batch`` trajectories, the
    batch axis first but second in ``POWERS``, with the Taylor step's
    power 0, the identity, written in."""
    w = SimpleNamespace(**{
        name: np.empty(shape[:1] + (batch,) + shape[1:] if name in POWERS else (batch,) + shape, dtype)
        for name, (shape, dtype) in layout.items()
    })
    d = w.x.shape[-1]
    if hasattr(w, "y"):
        w.y[0] = np.eye(d)
    else:
        w.m[0] = np.eye(2 * d, d)
    return w


def _chunk(w: SimpleNamespace, n: int) -> SimpleNamespace:
    """The first ``n`` trajectories of the workspace ``w``: C-contiguous
    views, or in ``POWERS`` views whose every power is a C-contiguous
    slab."""
    return SimpleNamespace(**{name: a[:, :n] if name in POWERS else a[:n] for name, a in vars(w).items()})


def _exp_step(w: SimpleNamespace) -> np.ndarray:
    """exp(-iX) of the batch X in ``w.x`` (scaled in place) into ``w.r``;
    see ``expm_hermitian_step``."""
    x = w.x
    d = x.shape[-1]
    np.abs(x, out=w.abs)
    np.einsum("nij->nj", w.abs, out=w.colsum)
    norm = w.colsum.max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm / THETA_15, 1.0))).astype(int)
    if s.any():
        x *= np.exp2(-s)[:, None, None]
    _block(_taylor_real(x, w) if np.isrealobj(x) else _taylor_complex(x, w), out=w.r)
    for k in range(int(s.max(initial=0))):
        np.matmul(w.r, w.r[..., :d], out=w.col)
        _block(w.col, out=w.r, where=(s > k)[:, None, None])
    return w.r


def expm_hermitian_step(x: np.ndarray) -> np.ndarray:
    """exp(-iX) for a batch (..., D, D) of Hermitian or real symmetric X, as
    the real (..., 2D, 2D) matrix [[Re, -Im], [Im, Re]].

    Both branches sum the degree-15 Taylor polynomial of exp(-iX) by
    Paterson-Stockmeyer in real arithmetic: real X as cos X - i sin X
    (``_taylor_real``), complex X as exp of a real antisymmetric 2D x 2D
    matrix (``_taylor_complex``).  Each X is scaled by its own 2^-s into
    |X|_1 <= THETA_15 and its result squared s times, so a matrix's result
    does not depend on its batch-mates; as |X|_2 <= |X|_1 for Hermitian X,
    the Taylor remainder |X|^16 / 16! is below 2^-53.  The step writes
    every temporary into a workspace of ``_step_layout``, the one a Monte
    Carlo worker reuses for all its steps; this call makes its own.
    """
    x = np.asarray(x)
    d = x.shape[-1]
    n = math.prod(x.shape[:-2])
    layout = _step_layout(d, np.isrealobj(x))
    w = _workspace(layout, n)
    w.x[...] = x.reshape(n, d, d)
    return _exp_step(w).reshape(x.shape[:-2] + (2 * d, 2 * d))


def _workspace_layout(model: NoiseModel, n_steps: int) -> Layout:
    """One worker's workspace: one block of steps' rows and the scratch of
    their normal draws; one step's rows, and the step's arrays; U and the
    next U as block columns; and U at a recorded step, however many are
    recorded.  Only a run shorter than a block holds less."""
    d = model.dim
    k = noise_width(model)
    block = max(1, min(NOISE_BLOCK_STEPS, n_steps))
    return {
        "block": ((block * k,), float),
        "draws": ((block * d * d,), float),
        "row": ((k,), float),
        **_step_layout(d, model.ensemble is Ensemble.GOE),
        "u": ((2 * d, d), float),
        "u_next": ((2 * d, d), float),
        "record": ((d, d), complex),
    }


def workspace_bytes(model: NoiseModel, n_steps: int) -> int:
    """Bytes per trajectory of a worker's workspace for ``n_steps`` steps:
    the sum of its arrays' bytes, whatever the number of recorded steps,
    and the same for every run of at least a block of steps."""
    layout = _workspace_layout(model, n_steps)
    return sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout.values())


def _generators(model: NoiseModel, seed: int, lo: int, hi: int) -> list[list[np.random.Generator]]:
    """For each half of a noise row, x and under GUE y, a generator per
    trajectory lo .. hi - 1, each of trajectory k's from child k of
    SeedSequence(seed).spawn(n_traj)."""
    halves = 2 if model.ensemble is Ensemble.GUE else 1
    return [[np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))) for k in range(lo, hi)]
            for _ in range(halves)]


def _noise_rows(
    model: NoiseModel, dt: float, n_steps: int, gens: list[list[np.random.Generator]],
    w: SimpleNamespace,
) -> Iterator[np.ndarray]:
    """Each step's noise rows, (n_batch, K) in ``w.row``, drawn a block of
    steps at a time: per block and half of a row, one normal draw per
    trajectory and one gather and scale for the batch, into rows laid out
    (n_batch, steps, width), the x halves then the y halves, in
    ``w.block``.  ``gens`` holds a generator per trajectory for each half
    (see ``_generators``).  A trajectory's stream is its x draws for every
    step, then under GUE its y draws, so before the first block the y
    generators draw past the x draws of all n_steps steps, each in pieces
    of the whole batch's ``w.draws``.  A row is its x half, then its y
    half."""
    d = model.dim
    batch, length = len(gens[0]), w.draws.shape[1] // (d * d)
    draws = w.draws.reshape(-1)
    x = d * (d + 1) // 2
    widths = (x, w.row.shape[1] - x)  # under GOE, zip with gens keeps the x half alone
    for half, half_gens in enumerate(gens):
        skip = half * n_steps * d * d  # the normals of the x halves, which the y generators pass
        for gen in half_gens:
            for s0 in range(0, skip, draws.size):
                gen.standard_normal(out=draws[:min(draws.size, skip - s0)])
    for s0 in range(0, n_steps, length):
        n = min(length, n_steps - s0)
        halves, start = [], 0
        for half_gens, width in zip(gens, widths):
            out = w.block.reshape(-1)[start:start + batch * n * width].reshape(batch, n, width)
            halves.append(sample_noise_sequence(model, dt, n, half_gens, out, draws))
            start += out.size
        for j in range(n):
            np.concatenate([rows[:, j] for rows in halves], axis=1, out=w.row)
            yield w.row


def _step(
    model: NoiseModel, h0: np.ndarray, dt: float, rows: np.ndarray, u: np.ndarray,
    w: SimpleNamespace, out: np.ndarray,
) -> np.ndarray:
    """exp(-i (H0 + eta) dt) U into ``out`` for the batch's noise rows (n_batch,
    K), with U as block columns and every temporary in the workspace ``w``."""
    x = noise_slices(model, rows, out=w.x)
    np.add(h0, x, out=x)
    np.multiply(x, dt, out=x)
    return np.matmul(_exp_step(w), u, out=out)


def _evolve_recorded(
    energies: np.ndarray,
    model: NoiseModel,
    dt: float,
    record_steps: np.ndarray,
    gens: list[list[np.random.Generator]],
    w: SimpleNamespace,
    observe: Callable[[int, np.ndarray], None],
) -> float:
    """Evolve a batch of trajectories in the workspace ``w`` (a
    ``_workspace_layout`` at n_batch trajectories), drawing their noise
    from ``gens``, n_batch generators for each half of a row (see
    ``_generators``); at the k-th recorded step, as ``grid_steps`` gives
    them, copy U into ``w.record``, (n_batch, D, D), and call
    ``observe(k, w.record)``.  Returns the batch's largest unitarity drift
    max |U+U - 1| at the last step.  Each step expands its noise rows into
    the batch's full slices; U is carried as its real block column
    [Re U; Im U]."""
    d = energies.size
    h0 = np.diag(energies).astype(w.x.dtype)
    u, u_next = w.u, w.u_next
    u[:] = np.eye(2 * d, d)
    rows = _noise_rows(model, dt, int(record_steps[-1]), gens, w)
    n = 0  # the steps taken
    for k, stop in enumerate(record_steps):
        for _ in range(stop - n):
            _step(model, h0, dt, next(rows), u, w, out=u_next)
            u, u_next = u_next, u
        n = stop
        w.record.real = u[:, :d]
        w.record.imag = u[:, d:]
        observe(k, w.record)
    u = u[:, :d] + 1j * u[:, d:]
    drift = float(np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(d)).max())
    if drift > 1e-8:
        raise UnitarityError(f"unitarity drift {drift:.2e} exceeds 1e-8")
    return drift


def grid_steps(t_grid: np.ndarray, dt: float) -> np.ndarray:
    """The step index n of each grid time t = n dt, each within 1e-9 of its
    lattice point whatever its size; the steps must be nonnegative and
    strictly increasing, so that each records its own slot."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError(f"times must form a nonempty 1-d grid, got shape {t.shape}")
    steps = np.round(t / dt).astype(int)
    if np.any(np.abs(steps * dt - t) > 1e-9):
        raise ValueError("times must be integer multiples of dt")
    if np.any(steps < 0) or np.any(np.diff(steps) <= 0):
        raise ValueError("times must fall on nonnegative, strictly increasing steps")
    return steps


def chunk_bounds(n_traj: int, traj_bytes: int, threads: int = 1) -> list[tuple[int, int]]:
    """Split trajectories 0..n_traj into chunks of equal size (to within one)
    whose count is a multiple of ``threads``, so every thread gets the same
    work, and small enough that the workspaces of ``threads`` chunks running
    at once, ``traj_bytes`` per trajectory, fit ``WORKSPACE_BUDGET_BYTES``.
    There are never more chunks than trajectories."""
    cap = max(1, int(WORKSPACE_BUDGET_BYTES / (threads * traj_bytes)))
    n_chunks = min(n_traj, threads * -(-n_traj // (threads * cap)))
    return [(n_traj * k // n_chunks, n_traj * (k + 1) // n_chunks) for k in range(n_chunks)]


# A per-trajectory observable of U at a recorded step: it maps unitaries of
# any leading shape (..., D, D), such as (batch, D, D) at one step, to
# values of shape (...), each from its own unitary only.
Observable = Callable[[np.ndarray], np.ndarray]


def sff_observable() -> Observable:
    """|TrU|^2 / D^2, whose mean is the SFF K_J(t)."""

    def value(u):
        d = u.shape[-1]
        tr = np.trace(u, axis1=-2, axis2=-1)
        return np.abs(tr) ** 2 / d**2

    return value


def sff_squared_observable() -> Observable:
    """(TrU TrU+)^2 = |TrU|^4."""

    def value(u):
        tr = np.trace(u, axis1=-2, axis2=-1)
        return np.abs(tr) ** 4

    return value


def two_point_observable(O: np.ndarray) -> Observable:
    """(1/D) Tr(O+ U+ O U), whose mean is the two-point function C_J(t)."""
    o_dag = O.conj().T

    def value(u):
        d = u.shape[-1]
        o_t = u.conj().swapaxes(-1, -2) @ O @ u
        return np.trace(o_dag @ o_t, axis1=-2, axis2=-1) / d

    return value


def otoc_observable(A: np.ndarray, B: np.ndarray) -> Observable:
    """(1/D) Tr(A B_t A B_t) with B_t = U+ B U, whose mean is OTOC_J(t)."""

    def value(u):
        d = u.shape[-1]
        b_t = u.conj().swapaxes(-1, -2) @ B @ u
        ab = A @ b_t
        return np.trace(ab @ ab, axis1=-2, axis2=-1) / d

    return value


def transfer_observable(i: int, j: int) -> Observable:
    """|U_ji|^2, whose mean is the transfer probability i -> j."""

    def value(u):
        return np.abs(u[..., j, i]) ** 2

    return value


class Estimate(NamedTuple):
    """The mean of an observable over the trajectories at each grid time and
    its standard error (zero when there is one trajectory)."""

    values: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True)
class OracleRun:
    """The estimates of one simulation, keyed as the observables were, the
    largest unitarity drift over all its trajectories, the number of
    chunks its trajectories ran in, and the bytes of each worker's
    workspace."""

    series: dict[str, Estimate]
    max_drift: float
    chunks: int
    workspace_bytes: int


def estimate_observables(
    spec: Spectrum,
    model: NoiseModel,
    cfg: TrajectoryConfig,
    t_grid,
    observables: Mapping[str, Observable],
    threads: int = 1,
) -> OracleRun:
    """Monte Carlo estimates of several observables from one simulation.

    Each chunk of trajectories (see ``chunk_bounds``) is evolved once, and
    at each grid step every observable fills its own column of (n_traj,
    n_times) slots from the chunk's U at that step, so each estimate equals
    the one a separate estimate of that observable alone would give.
    """
    if threads < 1:
        raise ValueError(f"threads={threads!r} must be positive")
    validate_step(model, cfg.dt)
    steps = grid_steps(t_grid, cfg.dt)
    if steps.max() > cfg.n_steps:
        raise ValueError("t_grid extends beyond cfg.t_max")
    n_steps = int(steps.max())
    traj_bytes = workspace_bytes(model, n_steps)
    bounds = chunk_bounds(cfg.n_traj, traj_bytes, threads)
    values = {key: np.empty((cfg.n_traj, steps.size), dtype=complex) for key in observables}
    # Worker w runs chunks w, w + workers, ... in its own workspace.  The
    # workspaces are allocated here: were each worker to allocate its own,
    # every call's fresh pool threads would hold tens of MB in per-thread
    # malloc arenas, and a thread starting before the last call's threads
    # have released theirs gets a new arena, so peak memory would depend on
    # thread timing.
    workers = min(threads, len(bounds))
    largest = max(hi - lo for lo, hi in bounds)
    layout = _workspace_layout(model, n_steps)
    spaces = [_workspace(layout, largest) for _ in range(workers)]

    def run_share(w: int, space: SimpleNamespace) -> float:
        drifts = []
        for lo, hi in bounds[w::workers]:
            gens = _generators(model, cfg.seed, lo, hi)

            def observe(k, u):
                for key, value in observables.items():
                    values[key][lo:hi, k] = value(u)

            drifts.append(_evolve_recorded(spec.energies, model, cfg.dt, steps, gens,
                                           _chunk(space, hi - lo), observe))
        return max(drifts)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        max_drift = max(pool.map(run_share, range(workers), spaces))
    n = cfg.n_traj
    series = {
        key: Estimate(v.mean(axis=0),
                      v.std(axis=0, ddof=1) / np.sqrt(n) if n >= 2 else np.zeros(steps.size))
        for key, v in values.items()
    }
    return OracleRun(series, max_drift, len(bounds), largest * traj_bytes)


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
