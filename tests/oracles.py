"""Reference objects that only the tests use: the single-replica generator
L1 and its dense D^2 x D^2 matrix, a matrix exponential by scaling and
squaring, the forced linear solve of the channel's populations, the dense
D^2 x D^2 superoperator and Choi matrix of a channel, the
8 x 8 two-replica generator M, one generator's full noise rows, one full
Monte Carlo trajectory and the estimates of a whole run, each drawing its
noise up front, the averaged
one-step superoperator of the Monte Carlo scheme, the effective
Hamiltonian, level-spacing statistics, the return probability
of a general partition, and the Krylov moments and moment recursion in
``fractions.Fraction``.

Each is an independent statement of the dynamics the closed forms in
``noisychaos`` solve, or of a result the paper derives from them, so the
tests check the package against it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from noisychaos import (
    ChannelOne,
    Ensemble,
    InvalidDimensionError,
    NoiseModel,
    Spectrum,
    TrajectoryConfig,
    two_point_gue_const,
)
from noisychaos.channel_two import UnsupportedDimensionError
from noisychaos.krylov import LanczosBreakdownError
from noisychaos.montecarlo import expm_hermitian_step, grid_steps, validate_step
from noisychaos.noise import noise_slices, noise_width, sample_noise_sequence


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


def forced_linear(p: np.ndarray, f: np.ndarray, nu: np.ndarray, t: float) -> np.ndarray:
    """Exact B(t) for B' = p.B + f * exp(nu_j t) (column j), B(0) = 0, with
    p symmetric: the populations as a forced linear system, independent of
    the Markov form e^{tp} - diag(e^{nu t}) that the package evaluates.

    With p = V diag(mu) V^T, B = V [phi(mu_k, nu_j; t) o (V^T f)] where
    phi = int_0^t e^{mu (t-s) + nu s} ds, evaluated as
    t e^{max(mu, nu) t} h(|mu - nu| t) with h(x) = -expm1(-x)/x, h(0) = 1:
    h lies in (0, 1], so no factor outgrows phi itself (the textbook
    e^{nu t} expm1((mu - nu) t)/(mu - nu) gives 0 * inf once (mu - nu) t
    exceeds ~709), and mu = nu is exact.
    """
    mu, v = np.linalg.eigh(p)
    x = np.abs(mu[:, None] - nu[None, :]) * t
    h = np.ones_like(x)
    nz = x > 0.0
    h[nz] = -np.expm1(-x[nz]) / x[nz]
    phi = t * np.exp(np.maximum(mu[:, None], nu[None, :]) * t) * h
    return v @ (phi * (v.T @ f))


def dense_superoperator(ch: ChannelOne) -> np.ndarray:
    """Materialize the D^2 x D^2 superoperator matrix."""
    d = ch.dim
    s = np.zeros((d, d, d, d), dtype=complex)
    idx = np.arange(d)
    s[idx[:, None], idx[None, :], idx[:, None], idx[None, :]] += ch.coeff_A
    s[idx[:, None], idx[:, None], idx[None, :], idx[None, :]] += ch.coeff_B
    s[idx[:, None], idx[None, :], idx[None, :], idx[:, None]] += ch.coeff_G
    return s.reshape(d * d, d * d)


def dense_generator(gen: GeneratorOne) -> np.ndarray:
    """L1 as a D^2 x D^2 matrix on row-major vec(rho), the layout of
    ``dense_superoperator``: column (i', j') is L1 applied to E_i'j'."""
    d = gen.dim
    basis = np.eye(d * d).reshape(d * d, d, d)
    return np.stack([apply_generator(gen, e).ravel() for e in basis], axis=1)


def expm(a: np.ndarray) -> np.ndarray:
    """e^a by scaling and squaring: a Taylor series on a / 2^s, whose
    1-norm is at most 1/2, squared s times.  It needs no eigenvectors, so
    it holds where a is not diagonalizable."""
    norm = np.abs(a).sum(axis=0).max()
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.0 else 0
    a = a / 2.0**s
    term = out = np.eye(a.shape[0], dtype=a.dtype)
    for k in range(1, 25):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


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


def noise_rows(
    model: NoiseModel, dt: float, n_steps: int, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """One generator's n_steps full noise rows, (n_steps, K), from the
    program's own ``sample_noise_sequence`` calls: the x halves of all
    steps in one piece, then under GUE the y halves.  They are written into
    ``out`` when it is given."""
    d = model.dim
    if out is None:
        out = np.empty((n_steps, noise_width(model)))
    x = d * (d + 1) // 2
    scratch = np.empty(n_steps * d * d)
    sample_noise_sequence(model, dt, n_steps, [rng], out[None, :, :x], scratch)
    if model.ensemble is Ensemble.GUE:
        sample_noise_sequence(model, dt, n_steps, [rng], out[None, :, x:], scratch)
    return out


def _evolve_batch(
    energies: np.ndarray, model: NoiseModel, dt: float, n_steps: int, gens: list
) -> np.ndarray:
    """U(t_n), n = 0..n_steps, of a batch of trajectories, shape (batch,
    n_steps + 1, D, D): each draws its whole noise stream in one piece
    (``noise_rows``) before the batch steps by ``expm_hermitian_step`` from
    the full slices."""
    d = energies.size
    eta = noise_slices(model, np.stack([noise_rows(model, dt, n_steps, g) for g in gens]))
    h0 = np.diag(energies)
    u = np.zeros((len(gens), 2 * d, d))
    u[:, :d] = np.eye(d)
    out = np.empty((len(gens), n_steps + 1, d, d), dtype=complex)
    for n in range(n_steps + 1):
        if n:
            x = h0 + eta[:, n - 1]
            x *= dt
            u = expm_hermitian_step(x) @ u
        out[:, n].real = u[:, :d]
        out[:, n].imag = u[:, d:]
    return out


def evolve_trajectory(
    spec: Spectrum, model: NoiseModel, cfg: TrajectoryConfig, rng: np.random.Generator
) -> np.ndarray:
    """One full trajectory: U(t_n) for n = 0..n_steps, shape (n+1, D, D)."""
    validate_step(model, cfg.dt)
    return _evolve_batch(spec.energies, model, cfg.dt, cfg.n_steps, [rng])[0]


def reference_estimates(
    spec: Spectrum, model: NoiseModel, cfg: TrajectoryConfig, t_grid, observables: dict
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The (mean, standard error) of each observable over all trajectories
    in one batch, each drawing its whole stream up front from child k of
    the seed: the reference for ``estimate_observables``."""
    steps = grid_steps(t_grid, cfg.dt)
    gens = [np.random.default_rng(c) for c in np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj)]
    u = _evolve_batch(spec.energies, model, cfg.dt, int(steps.max()), gens)[:, steps]
    n = cfg.n_traj
    out = {}
    for key, value in observables.items():
        v = np.empty((n, steps.size), dtype=complex)
        v[:] = value(u)
        out[key] = (v.mean(axis=0), v.std(axis=0, ddof=1) / np.sqrt(n))
    return out


def scheme_superoperator(spec: Spectrum, model: NoiseModel, dt: float, nodes: int) -> np.ndarray:
    """S = E[u (x) conj(u)], D^2 x D^2 with S[(i, k), (j, l)] = E[u_ij
    conj(u_kl)], of one step u = exp(-i (H0 + eta) dt) of the Monte Carlo
    scheme, by a Gauss-Hermite product rule of ``nodes`` nodes on each of
    the K = ``noise_width(model)`` independent normal entries of a noise
    row.

    eta is ``noise_slices`` of the row of nodes scaled by the standard
    deviations ``sample_noise_sequence`` gives its entries: sqrt(lambda_ij
    / (2 dt)) on the real parts above the diagonal, sqrt(lambda_ii / dt) on
    the diagonal, then under GUE sqrt(lambda_ij / (2 dt)) on the imaginary
    parts above the diagonal.  u is ``expm_hermitian_step``,
    the Monte Carlo's own step; its degree-15 Taylor remainder is below
    2^-53 per step, so S^N differs from the same average of the exact
    exponential only by roundoff, far below the scheme's O(dt) bias (at
    least 1e-4 in the tests).  As the steps draw independent rows,
    E[U_N (x) conj(U_N)] = S^N exactly: SFF = Tr S^N / D^2 and the
    transfer probability i -> j is S^N[(j, j), (i, i)].
    """
    d = spec.dim
    k = noise_width(model)
    lam = model.lambda_matrix()
    iu, ju = np.triu_indices(d, k=1)
    off = np.sqrt(lam[iu, ju] / (2.0 * dt))
    sigma = np.concatenate([off, np.sqrt(np.diag(lam) / dt)])
    if model.ensemble is Ensemble.GUE:
        sigma = np.concatenate([sigma, off])
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / np.sqrt(2.0 * np.pi)
    h0 = np.diag(spec.energies)
    s = np.zeros((d * d, d * d), dtype=complex)
    # The nodes^K points of the rule, 4096 at a time, so that the step's
    # workspace stays a few MB at K = 6.
    batch = 4096
    for start in range(0, nodes**k, batch):
        idx = np.unravel_index(np.arange(start, min(start + batch, nodes**k)), (nodes,) * k)
        rows = np.stack([x[i] for i in idx], axis=-1) * sigma
        weight = np.prod([w[i] for i in idx], axis=0)
        r = expm_hermitian_step((h0 + noise_slices(model, rows)) * dt)
        u = (r[:, :d, :d] + 1j * r[:, d:, :d]).reshape(-1, d * d)
        s += (weight[:, None] * u).T @ u.conj()
    return s.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def effective_hamiltonian(spec: Spectrum, J: float, t: float) -> Spectrum:
    """Eigenvalues of the noise-averaged Heisenberg evolution of diag(E):
    E_{J;i} = e^{-Jt} E_i + Ebar (1 - e^{-Jt}).  The map is affine
    increasing, so ordering and spacing ratios are preserved."""
    decay = np.exp(-J * t)
    e_bar = spec.energies.mean()
    return Spectrum(decay * spec.energies + e_bar * (1.0 - decay))


class DegenerateSpectrumError(ValueError):
    """A level spacing is exactly zero; ratio statistics are undefined."""

    def __init__(self, index: int):
        super().__init__(f"zero level spacing at index {index}")
        self.index = index


@dataclass(frozen=True)
class LevelStatistics:
    """Nearest-neighbour spacings s_n, ratios r_n = s_n/s_{n-1} and their
    min-folded variant in [0, 1]."""

    spacings: np.ndarray
    ratios: np.ndarray
    folded_ratios: np.ndarray
    mean_folded_ratio: float


def level_statistics(spec: Spectrum) -> LevelStatistics:
    """Spacings, consecutive-spacing ratios and min-folded ratios.

    Raises :class:`DegenerateSpectrumError` if any spacing vanishes.
    """
    if spec.dim < 3:
        raise InvalidDimensionError(f"need dim >= 3 for ratios, got {spec.dim}")
    s = np.diff(spec.energies)
    zero = np.flatnonzero(s == 0.0)
    if zero.size:
        raise DegenerateSpectrumError(int(zero[0]))
    r = s[1:] / s[:-1]
    folded = np.minimum(r, 1.0 / r)
    return LevelStatistics(
        spacings=s,
        ratios=r,
        folded_ratios=folded,
        mean_folded_ratio=float(folded.mean()),
    )


def _validate_partition(projectors: list[np.ndarray], d: int) -> None:
    total = np.zeros((d, d), dtype=complex)
    for k, p in enumerate(projectors):
        if p.shape != (d, d):
            raise ValueError(f"projector {k} has shape {p.shape}")
        if not np.allclose(p, p.conj().T, atol=1e-10):
            raise ValueError(f"projector {k} is not Hermitian")
        total += p
        for l, q in enumerate(projectors):
            if not np.allclose(p @ q, p if k == l else 0.0, atol=1e-10):
                raise ValueError(f"projectors {k}, {l} are not orthogonal idempotents")
    if not np.allclose(total, np.eye(d), atol=1e-10):
        raise ValueError("projectors do not sum to the identity")


def partition_return_probability(
    spec: Spectrum, J: float, projectors: list[np.ndarray], t_grid
) -> np.ndarray:
    """Mean return probability of a complete orthogonal partition under
    constant GUE noise: rho_s = Pi_s / Tr Pi_s returns with weight
    (D / Tr Pi_s) C_J(t) of O = Pi_s, averaged over the blocks s."""
    _validate_partition(projectors, spec.dim)
    t = np.asarray(t_grid, dtype=float)
    return sum(
        spec.dim / np.trace(p).real * two_point_gue_const(spec, J, p, t).real
        for p in projectors
    ) / len(projectors)


def fraction_noisy_moments(
    mu_even, J: float, trace_product_ratio: float, n_max: int
) -> list[Fraction]:
    """Even moments mu_{J;2n}, n = 0..n_max, of C_J(-it) for constant GUE
    noise, exactly, with a Fraction for every term: the reference for
    ``krylov.noisy_moments``.

    From C_J(t) = e^{-Jt}(C_0(t) - r) + r with r = TrO TrO+/D^2, and odd
    mu_k vanishing, only even powers of iJ enter:

        mu_{J;2n} = sum_j binom(2n, 2j) (-J^2)^j mu_{2n-2j}
                    + r (delta_{n0} - (-J^2)^n)
    """
    if len(mu_even) < n_max + 1:
        raise ValueError(f"need {n_max + 1} even moments, got {len(mu_even)}")
    mu = [Fraction(m) for m in mu_even[: n_max + 1]]
    r = Fraction(trace_product_ratio)
    step = -Fraction(J) ** 2
    powers = [Fraction(1)]  # (-J^2)^j
    for _ in range(n_max):
        powers.append(powers[-1] * step)
    return [
        sum(math.comb(2 * n, 2 * j) * powers[j] * mu[n - j] for j in range(n + 1))
        + r * ((n == 0) - powers[n])
        for n in range(n_max + 1)
    ]


def fraction_lanczos_from_moments(moments, n_max: int) -> np.ndarray:
    """Signed Lanczos coefficients sgn(b_n^2)|b_n|, n = 1..n_max, as a
    float64 array, from even moments via the moment recursion, with a
    Fraction for every row entry: the reference for
    ``krylov.lanczos_from_moments``.

    ``moments[k]`` is mu_2k (k = 0..n_max at least), the Taylor data of
    C(-it), each an int, float or Fraction; moments[0] must be exactly 1.
    b_n = sqrt(M^(n)_2n); for noisy inputs M^(n)_2n can turn negative, in
    which case the signed value sgn(M) sqrt(|M|) is reported (b_n purely
    imaginary).  The Krylov space has closed at level m when b_m^2 == 0.
    """
    if len(moments) < n_max + 1:
        raise ValueError(
            f"need {n_max + 1} even moments for n_max={n_max}, got {len(moments)}"
        )
    mu = [Fraction(m) for m in moments[: n_max + 1]]
    if mu[0] != 1:
        raise ValueError(f"moments must be normalized, mu_0 = {mu[0]}")
    # prev1[k] = M^(m-1)_2k and prev2[k] = M^(m-2)_2k, with M^(-1) = 0 and
    # M^(0)_2k = mu_2k; b2 = [b_{m-2}^2, b_{m-1}^2], b_{-1}^2 = b_0^2 = 1.
    prev2, prev1 = [Fraction(0)] * (n_max + 1), mu
    b2 = [Fraction(1), Fraction(1)]
    signed = []
    for m in range(1, n_max + 1):
        row = [Fraction(0)] * m + [
            prev1[k] / b2[1] - prev2[k - 1] / b2[0] for k in range(m, n_max + 1)
        ]
        if row[m] == 0:
            raise LanczosBreakdownError(m)
        # sqrt(p/q) = sqrt(p q 4^64)/(q 2^64); the integer floor is off by
        # < 2^-63 relative, so this rounds as the exact |b_m| does unless
        # that lies within 2^-63 of a midpoint between two floats.
        p, q = abs(row[m].numerator), row[m].denominator
        root = Fraction(math.isqrt(p * q << 128), q << 64)
        signed.append(math.copysign(float(root), row[m]))
        b2 = [b2[1], row[m]]
        prev2, prev1 = prev1, row
    return np.array(signed)
