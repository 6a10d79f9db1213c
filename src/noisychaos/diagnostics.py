"""The single-replica diagnostics of any noise model: SFF, two-point
function, transfer and return probabilities, each one closed form over
``(spec, model, t_grid)`` that returns an array shaped like the grid and
refuses a negative or NaN time.  Each contracts U1: its A part is a
rank-one phase sum under GUE noise; under GOE noise A and G are a sum over
the exponentials e^{(-kappa +- q) t} of the level pairs i <= j, which on a
uniform grid factor into one blocked GEMM (``_goe_contract``); its
populations are one ``populations`` contraction.
The ``_const`` names, which the CLI calls and the bench times, are these
forms on the constant profile.  DiagnosticSeries is the record the CLI writes.
Moments and Lanczos coefficients live in krylov.py, the two-replica
observables in channel_two.py."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .channel_one import (
    ChannelOne,
    GoePairs,
    check_dims,
    goe_cos_sin,
    goe_params,
    gue_phases,
    nonnegative_times,
    populations,
)
from .noise import Ensemble, NoiseModel, goe_constant, gue_constant
from .spectra import Spectrum


@dataclass(frozen=True)
class DiagnosticSeries:
    """The written record of an observable on an increasing time grid, with
    Monte Carlo error bars when estimated and its metadata."""

    name: str
    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValueError("times and values must be 1-d and of equal length")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if self.stderr is not None and np.asarray(self.stderr).shape != t.shape:
            raise ValueError("stderr length mismatch")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def _columns(self) -> tuple[list, list, list, list | None]:
        """Times, real and imaginary parts, and stderr as lists of Python
        floats, whose repr the files write."""
        re = np.real(self.values).astype(float).tolist()
        im = np.imag(self.values).astype(float).tolist()
        err = None if self.stderr is None else np.asarray(self.stderr, dtype=float).tolist()
        return self.times.tolist(), re, im, err

    def write_csv(self, path) -> None:
        times, re, im, err = self._columns()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "re", "im", "stderr"])
            for k, t in enumerate(times):
                e = "" if err is None else repr(err[k])
                writer.writerow([repr(t), repr(re[k]), repr(im[k]), e])

    def write_json(self, path) -> None:
        times, re, im, err = self._columns()
        payload = {
            "name": self.name,
            "times": times,
            "values_re": re,
            "values_im": im,
            "stderr": err,
            "metadata": self.metadata,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)


# Complex entries that one block's factors W and V hold together: 512 KiB,
# half a D x D grid at D = 256, small enough that both stay in L2 through
# their GEMM.
GOE_BLOCK = 1 << 15


def _grid_factors(ts: np.ndarray) -> tuple[int, int] | None:
    """(rows, m) of a uniform grid, every t_k within 4 ulp of t_0 + k h (as
    np.linspace gives), so that t_{a m + c} = t_0 + a m h + c h for a < rows
    and c < m, with m = ceil(sqrt(T)); None for any other grid."""
    n = ts.size
    h = (ts[-1] - ts[0]) / max(n - 1, 1)
    if np.any(np.abs(ts - (ts[0] + h * np.arange(n))) > 4 * np.spacing(abs(ts[-1]))):
        return None
    m = int(np.ceil(np.sqrt(n)))
    return -(-n // m), m


def _powers(out: np.ndarray, step: np.ndarray, first=1.0) -> None:
    """Fill out[..., r, :] with first * step**r by doubling: rows [k, 2k)
    are rows [0, k) times step**k, and step squares."""
    n = out.shape[-2]
    out[..., 0, :] = first
    done = 1
    while done < n:
        k = min(done, n - done)
        np.multiply(out[..., :k, :], step, out=out[..., done : done + k, :])
        done += k
        if done < n:
            step = step * step


def _goe_contract(p: GoePairs, alpha: np.ndarray, beta: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The sums over the level pairs of alpha C(t) + beta S(t), C and S of
    ``goe_cos_sin``, for K rows of real pair weights alpha and beta of
    shape (K, D(D+1)/2); shape (K,) + t.shape.

    Each row is Re sum_n y_n e^{z_n t} over N ~ D(D+1)/2 exponents.  A pair
    with an imaginary root has one, z = -kappa + i|q| with y = alpha -
    i beta/|q|: its two exponents are conjugates, so C and S are the real
    and imaginary parts of one exponential.  A pair with a real root has
    two, z = -kappa +- q with y = (alpha +- beta/q)/2.  A pair whose |q| is
    tiny against l + |delta|, q = 0 included, keeps only alpha there, as
    beta/q would cancel, and adds beta S at each point instead.

    On a uniform grid, t_{a m + c} = t_0 + (a m + c) h (``_grid_factors``),
    and e^{z t} factors as W[a] V[c], with W[a] = y e^{z (t_0 + a m h)} and
    V[c] = e^{z c h}.  Both come from e^{z h} by doubling products
    (``_powers``), so the grid costs one complex exp per exponent, and the
    sum over n is one real GEMM, Re(W V^T) = W.view(float) @
    conj(V).view(float).T over interleaved real and imaginary parts.  Any
    other grid takes the exact e^{z t} at each point as W, with V = 1: an
    exp, then a GEMV.  The exponents run in blocks whose W and V hold at
    most GOE_BLOCK complex entries together (at least one exponent), and
    the blocks' products add into the result.
    """
    ts = t.reshape(-1)
    aq = np.abs(p.q)
    # beta/q cancels to about ulp/|q| of beta; such pairs are rare away
    # from l = |delta|.
    near = aq <= 1e-2 * (p.half_lam + np.abs(p.delta))
    late = near & beta.any(axis=0)  # only these need the S term
    out = beta[:, late] @ goe_cos_sin(p.q[late], p.kappa[late], ts[:, None])[1].T
    g = np.divide(beta, aq, out=np.zeros_like(beta), where=~near)
    real = p.q >= 0.0
    k_rows, n_pairs = alpha.shape
    # The exponents z: -kappa + root of every pair, then -kappa - q of the
    # real roots, each with its weights y.
    z = np.zeros(n_pairs + np.count_nonzero(real), dtype=complex)
    np.subtract(np.maximum(p.q, 0.0), p.kappa, out=z.real[:n_pairs])
    np.maximum(-p.q, 0.0, out=z.imag[:n_pairs])
    np.negative(p.kappa[real] + p.q[real], out=z.real[n_pairs:])
    y = np.zeros((k_rows, z.size), dtype=complex)
    y.real[:, :n_pairs] = np.where(real, 0.5 * (alpha + g), alpha)
    np.negative(g, out=y.imag[:, :n_pairs])
    y.real[:, n_pairs:] = 0.5 * (alpha[:, real] - g[:, real])
    del aq, near, g, real
    if ts.size == 0:
        return out.reshape((k_rows,) + t.shape)
    factors = _grid_factors(ts)
    rows, m = factors or (ts.size, 1)
    h = (ts[-1] - ts[0]) / max(ts.size - 1, 1)
    width = max(1, GOE_BLOCK // (k_rows * rows + m))
    w_block = np.empty((k_rows, rows, min(width, z.size)), dtype=complex)
    v_block = np.ones((m, w_block.shape[-1]), dtype=complex)
    acc = np.zeros((k_rows * rows, m))
    for s in range(0, z.size, width):
        zs, first = z[s : s + width], y[:, s : s + width]
        w, v = w_block[..., : zs.size], v_block[:, : zs.size]
        if factors is None:
            np.multiply(first[:, None, :], np.exp(np.multiply.outer(ts, zs)), out=w)
        else:
            step = np.exp(h * zs)
            if ts[0] != 0.0:
                first = first * np.exp(ts[0] * zs)
            _powers(v, step.conj())
            _powers(w, step * v[-1].conj(), first)
        acc += w.view(float).reshape(k_rows * rows, -1) @ v.view(float).T
    out += acc.reshape(k_rows, -1)[:, : ts.size]
    return out.reshape((k_rows,) + t.shape)


def sff(spec: Spectrum, model: NoiseModel, t_grid) -> np.ndarray:
    """K(t) = (sum_ij A_ij + Tr G + Tr B)/D^2 of the channel of any profile,
    normalized K(0) = 1.  Under GUE noise sum_ij A_ij = |sum_i p_i|^2."""
    check_dims(spec, model)
    d = spec.dim
    t = nonnegative_times(t_grid)
    if model.ensemble is Ensemble.GUE:
        a = np.abs(gue_phases(spec, model, t).sum(axis=-1)) ** 2
    else:
        # A pair i < j adds A_ij + A_ji = 2C, and the diagonal A_ii + G_ii =
        # C + l S.
        p = goe_params(spec, model)
        on_diag = p.i == p.j
        a = _goe_contract(p, (2.0 - on_diag)[None], (p.half_lam * on_diag)[None], t)[0]
    return (a + populations(model, t, np.eye(d))) / d**2


def two_point(spec: Spectrum, model: NoiseModel, O: np.ndarray, t_grid) -> np.ndarray:
    """C(t) = (1/D) Tr(O+ U1(t)[O]) = (1/D) sum_ij conj(O_ij) U1(t)[O]_ij
    of the channel of any profile: A_ij weighted by |O_ij|^2, G_ij by
    conj(O_ij) O_ji, and B by conj(O_ii) O_jj.  Under GUE noise the A part
    is the row sum of (P W) o conj(P), P the phases p_i and W_ij =
    |O_ij|^2."""
    check_dims(spec, model)
    t = nonnegative_times(t_grid)
    diag_o = np.diagonal(O)
    b = populations(model, t, np.multiply.outer(diag_o.conj(), diag_o))
    sq = O.real**2 + O.imag**2
    if model.ensemble is Ensemble.GUE:
        p = gue_phases(spec, model, t)
        pw = p @ sq
        a = np.multiply(pw, np.conjugate(p, out=p), out=pw).sum(axis=-1)
    else:
        # A pair i < j weighs C by |O_ij|^2 + |O_ji|^2 and S by
        # 2 l Re(conj(O_ij) O_ji) + i delta (|O_ji|^2 - |O_ij|^2); the
        # diagonal counts each once and has delta = 0.  The imaginary row
        # vanishes for Hermitian O and is then skipped.
        p = goe_params(spec, model)
        on_diag = p.i == p.j
        lo, hi = sq[p.i, p.j], sq[p.j, p.i]
        cross = (O.real * O.real.T + O.imag * O.imag.T)[p.i, p.j]
        alpha = np.where(on_diag, hi, hi + lo)
        beta = np.stack([p.half_lam * np.where(on_diag, cross, 2.0 * cross), p.delta * (hi - lo)])
        if beta[1].any():
            re, im = _goe_contract(p, np.stack([alpha, np.zeros_like(alpha)]), beta, t)
            a = re + 1j * im
        else:
            a = _goe_contract(p, alpha[None], beta[:1], t)[0]
    return (a + b) / spec.dim


def sff_gue_const(spec: Spectrum, J: float, t_grid) -> np.ndarray:
    """sff of constant GUE noise, e^{-Jt} K_0(t) + (1 - e^{-Jt})/D^2."""
    return sff(spec, gue_constant(J, spec.dim), t_grid)


def sff_goe_const(spec: Spectrum, J: float, t_grid) -> np.ndarray:
    """sff of constant GOE noise."""
    return sff(spec, goe_constant(J, spec.dim), t_grid)


def two_point_gue_const(spec: Spectrum, J: float, O: np.ndarray, t_grid) -> np.ndarray:
    """two_point of constant GUE noise, e^{-Jt} C_0(t) + (1 - e^{-Jt}) |TrO/D|^2."""
    return two_point(spec, gue_constant(J, spec.dim), O, t_grid)


def two_point_goe_const(spec: Spectrum, J: float, O: np.ndarray, t_grid) -> np.ndarray:
    """two_point of constant GOE noise."""
    return two_point(spec, goe_constant(J, spec.dim), O, t_grid)


def sff_from_channel(ch: ChannelOne) -> float:
    """K_J from the channel contraction (i = i', j = j' summed over i, j):
    (sum_ij A_ij + Tr B + Tr G)/D^2.  Must agree with the closed forms."""
    d = ch.dim
    total = ch.coeff_A.sum() + np.trace(ch.coeff_B) + np.trace(ch.coeff_G)
    return float(total.real) / d**2


def transfer_probability(spec: Spectrum, model: NoiseModel, i: int, j: int, t_grid) -> np.ndarray:
    """E(P_{j<-i}) = e^{sP}_ji, the Markov chain of the populations: the
    channel's B_ji plus the e^{-J_i s} that A (and G) keep when i = j.  The
    constant profile gives delta_ij e^{-Js} + (1 - e^{-Js})/D."""
    check_dims(spec, model)
    d = spec.dim
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError(f"state indices ({i}, {j}) out of range for D={d}")
    m = np.zeros((d, d))
    m[j, i] = 1.0
    return populations(model, nonnegative_times(t_grid), m, propagator=True)


def return_probability(spec: Spectrum, model: NoiseModel, t_grid) -> np.ndarray:
    """Mean return probability of the eigenbasis rank-1 partition,
    Tr e^{sP} / D, the mean of e^{mu s} over the chain's modes; the constant
    profile gives P_{S;J}(t) = e^{-Js} + (1 - e^{-Js})/D."""
    check_dims(spec, model)
    t = nonnegative_times(t_grid)
    return populations(model, t, np.eye(spec.dim), propagator=True) / spec.dim
