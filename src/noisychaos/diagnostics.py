"""The single-replica diagnostics of any noise model: SFF, two-point
function, transfer and return probabilities, each one closed form over
``(spec, model, t_grid)`` that returns an array shaped like the grid and
refuses a negative or NaN time.  Each contracts U1: its A part is a
rank-one phase sum under GUE noise; under GOE noise A and G are a sum over the level pairs
i <= j, two exponentials e^{(-kappa +- q) t} each (``_goe_contract``); its
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

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "re", "im", "stderr"])
            for k, t in enumerate(self.times):
                v = complex(self.values[k])
                err = "" if self.stderr is None else repr(float(self.stderr[k]))
                writer.writerow([repr(float(t)), repr(v.real), repr(v.imag), err])

    def write_json(self, path) -> None:
        payload = {
            "name": self.name,
            "times": [float(t) for t in self.times],
            "values_re": [float(np.real(v)) for v in self.values],
            "values_im": [float(np.imag(v)) for v in self.values],
            "stderr": None
            if self.stderr is None
            else [float(s) for s in self.stderr],
            "metadata": self.metadata,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)


# Exponents per slice of the GOE recurrence: the slice's row, step and
# weights (256 KiB each) stay in L2 while it runs along the whole grid.
GOE_SLICE = 16384


def _goe_contract(spec: Spectrum, model: NoiseModel, wa, wg, t: np.ndarray) -> np.ndarray:
    """sum_ij [wa o A(t) + wg o G(t)]_ij of the GOE channel, shaped like t.

    A pair i <= j adds alpha C + beta S (see goe_cos_sin), with alpha =
    wa_ij + wa_ji and beta = -i delta (wa_ij - wa_ji) + l (wg_ij + wg_ji),
    each weight counted once on the diagonal: (alpha +- beta/q)/2 on
    e^{(-kappa +- q) t}, D(D+1) exponents z with weights b.  A pair whose
    |q| is tiny against l + |delta|, q = 0 included, puts alpha/2 on each
    and adds beta S at each point instead, S from ``goe_cos_sin``.

    The exponentials run along t by recurrence, e^{z t_{k+1}} = e^{z t_k}
    e^{z (t_{k+1} - t_k)}, in one row and one step buffer.  On a uniform
    grid (every t_k within 4 ulp of t_0 + k h, as np.linspace gives) the
    step e^{z h} is taken once, so the grid costs two rows of exp; any
    other grid takes its step exactly per point.  The exponents run in
    slices of GOE_SLICE, each along the whole grid, and the slices' dot
    products add into the result.
    """
    d = spec.dim
    p = goe_params(spec, model)
    off = p.i != p.j
    wa = np.broadcast_to(wa, (d, d))
    upper, lower = wa[p.i, p.j], wa[p.j, p.i]
    beta = -1j * p.delta * (upper - lower)
    beta += p.half_lam * (wg[p.i, p.j] + off * wg[p.j, p.i])
    alpha = upper + off * lower
    del upper, lower
    root = p.root()
    # beta/q cancels to about ulp/|q| of beta; such pairs are rare away
    # from l = |delta|.
    near = np.abs(p.q) <= 1e-2 * (p.half_lam + np.abs(p.delta))
    late = near & (beta != 0.0)  # only these need the S term
    ts = t.reshape(-1)
    out = goe_cos_sin(p.q[late], p.kappa[late], ts[:, None])[1] @ beta[late]
    np.divide(beta, root, out=beta, where=~near)
    beta[near] = 0.0
    z = np.concatenate([root - p.kappa, -root - p.kappa])
    del p, root
    b = np.concatenate([alpha + beta, alpha - beta])
    b *= 0.5
    del alpha, beta
    if ts.size == 0:
        return out.reshape(t.shape)
    h = (ts[-1] - ts[0]) / max(ts.size - 1, 1)
    uniform = np.all(np.abs(ts - (ts[0] + h * np.arange(ts.size))) <= 4 * np.spacing(abs(ts[-1])))
    for s in range(0, z.size, GOE_SLICE):
        zs, bs = z[s : s + GOE_SLICE], b[s : s + GOE_SLICE]
        row = np.exp(ts[0] * zs)
        step = np.exp(h * zs) if uniform else np.empty_like(zs)
        out[0] += row @ bs
        for k in range(1, ts.size):
            if not uniform:
                np.exp(np.multiply(ts[k] - ts[k - 1], zs, out=step), out=step)
            row *= step
            out[k] += row @ bs
    return out.reshape(t.shape)


def sff(spec: Spectrum, model: NoiseModel, t_grid) -> np.ndarray:
    """K(t) = (sum_ij A_ij + Tr G + Tr B)/D^2 of the channel of any profile,
    normalized K(0) = 1.  Under GUE noise sum_ij A_ij = |sum_i p_i|^2."""
    check_dims(spec, model)
    d = spec.dim
    t = nonnegative_times(t_grid)
    if model.ensemble is Ensemble.GUE:
        a = np.abs(gue_phases(spec, model, t).sum(axis=-1)) ** 2
    else:
        a = _goe_contract(spec, model, 1.0, np.eye(d), t).real
    return (a + populations(model, t, np.eye(d))) / d**2


def two_point(spec: Spectrum, model: NoiseModel, O: np.ndarray, t_grid) -> np.ndarray:
    """C(t) = (1/D) Tr(O+ U1(t)[O]) of the channel of any profile: A weighted
    by O+_ij O_ji, G by O+_ji O_ji, and B by conj(O_ii) O_jj.  Under GUE
    noise the A part is the row sum of (P W) o conj(P), P the phases p_i."""
    check_dims(spec, model)
    t = nonnegative_times(t_grid)
    diag_o = np.diagonal(O)
    b = populations(model, t, np.multiply.outer(diag_o.conj(), diag_o))
    w_dir = O.conj().T * O.T  # O+_ij O_ji
    if model.ensemble is Ensemble.GUE:
        p = gue_phases(spec, model, t)
        pw = p @ w_dir
        a = np.multiply(pw, np.conjugate(p, out=p), out=pw).sum(axis=-1)
    else:
        w_exch = O.conj() * O.T  # entry (i, j): O+_ji O_ji = conj(O_ij) O_ji
        a = _goe_contract(spec, model, w_dir, w_exch, t)
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
