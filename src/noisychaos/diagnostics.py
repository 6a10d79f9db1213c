"""Closed forms of the averaged channels, SFF, two-point functions, transfer
and return probabilities, each an array with the shape of the time grid t;
DiagnosticSeries is the record the CLI writes.
Moments and Lanczos coefficients live in krylov.py, the two-replica
observables in channel_two.py."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .channel_one import ChannelOne, goe_params
from .noise import ConstantOverD, Ensemble, NoiseModel, goe_constant
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


def sff_gue_const(spec: Spectrum, J: float, t_grid) -> np.ndarray:
    """K_J(t) = e^{-Jt} K_0(t) + (1 - e^{-Jt})/D^2, normalized K_J(0) = 1,
    with K_0(t) = |sum_i e^{-i E_i t}|^2 / D^2; J = 0 is the noiseless K_0."""
    t = np.asarray(t_grid, dtype=float)
    decay = np.exp(-J * t)
    phases = np.exp(-1j * np.multiply.outer(t, spec.energies))
    return decay * (np.abs(phases.sum(axis=-1)) ** 2 / spec.dim**2) + (1.0 - decay) / spec.dim**2


def _goe_contract(spec: Spectrum, J: float, wa, wg: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_ij [wa o A(t) + wg o G(t)]_ij of the constant GOE channel on t.

    The weights fold onto the exponentials, b+- = (wa c+- +- wg g)/2 on
    e^{z+- t}.  z+- are symmetric, so each exponent is taken once from the
    upper triangle with the weights of (i, j) and (j, i).  The weights fold
    in place and the channel is dropped once folded.

    The exponentials run along t by recurrence, e^{z t_{k+1}} = e^{z t_k}
    e^{z (t_{k+1} - t_k)}, in one row and one step buffer.  On a uniform
    grid (every t_k within 4 ulp of t_0 + k h, as np.linspace gives) the
    step e^{z h} is taken once, so the grid costs two rows of exp; any
    other grid takes its step exactly per point.
    """
    d = spec.dim
    params = goe_params(spec, goe_constant(J, d))
    up = np.triu_indices(d)
    z = np.concatenate([params.z_plus[up], params.z_minus[up]])
    g, c_plus, c_minus = params.g, params.c_plus, params.c_minus
    del params
    # In place on the parameter grids: g <- wg g, c+- <- (wa c+- +- g)/2
    # plus the transpose of its strict lower triangle.
    g *= wg
    c_plus *= wa
    c_plus += g
    c_minus *= wa
    c_minus -= g
    del g
    for c in (c_plus, c_minus):
        c *= 0.5
        c += np.tril(c, -1).T
    b = np.concatenate([c_plus[up], c_minus[up]])
    del c_plus, c_minus
    out = np.empty(t.size, dtype=complex)
    if t.size == 0:
        return out
    h = (t[-1] - t[0]) / max(t.size - 1, 1)
    uniform = np.all(np.abs(t - (t[0] + h * np.arange(t.size))) <= 4 * np.spacing(abs(t[-1])))
    row = np.exp(t[0] * z)
    step = np.exp(h * z) if uniform else np.empty_like(z)
    out[0] = row @ b
    for k in range(1, t.size):
        if not uniform:
            np.exp(np.multiply(t[k] - t[k - 1], z, out=step), out=step)
        row *= step
        out[k] = row @ b
    return out


def sff_goe_const(spec: Spectrum, J: float, t_grid) -> np.ndarray:
    """K_J(t) = (sum_ij A_ij + Tr G + Tr B)/D^2 of the constant GOE channel,
    with Tr B = 1 - e^{-Jt/2}."""
    d = spec.dim
    t = np.asarray(t_grid, dtype=float)
    total = _goe_contract(spec, J, 1.0, np.eye(d), t)
    return (total.real - np.expm1(-J * t / 2.0)) / d**2


def sff_from_channel(ch: ChannelOne) -> float:
    """K_J from the channel contraction (i = i', j = j' summed over i, j):
    (sum_ij A_ij + Tr B + Tr G)/D^2.  Must agree with the closed forms."""
    d = ch.dim
    total = ch.coeff_A.sum() + np.trace(ch.coeff_B) + np.trace(ch.coeff_G)
    return float(total.real) / d**2


def two_point_gue_const(spec: Spectrum, J: float, O: np.ndarray, t_grid) -> np.ndarray:
    """C_J(t) = e^{-Jt} C_0(t) + (1 - e^{-Jt}) TrO TrO+ / D^2, where
    C_0(t) = (1/D) sum_ij O+_ij O_ji e^{-i(E_i - E_j)t}; J = 0 is the
    noiseless C_0.  The phase grid has rank one, so with P = exp(-i t E),
    C_0 is the row sum of (P W) o conj(P)."""
    t = np.asarray(t_grid, dtype=float)
    decay = np.exp(-J * t)
    tr_term = np.trace(O) * np.conj(np.trace(O)) / spec.dim**2
    p = np.exp(-1j * np.multiply.outer(t, spec.energies))
    pw = p @ (O.conj().T * O.T)  # weights (i, j): O+_ij O_ji
    pw *= np.conjugate(p, out=p)
    return decay * (pw.sum(axis=-1) / spec.dim) + (1.0 - decay) * tr_term


def two_point_goe_const(spec: Spectrum, J: float, O: np.ndarray, t_grid) -> np.ndarray:
    """C_J(t) = (1/D) Tr(O+ U1[O]): the A term weighted by O+_ij O_ji, the
    exchange term G by O+_ji O_ji, and the universal trace term."""
    d = spec.dim
    t = np.asarray(t_grid, dtype=float)
    w_dir = O.conj().T * O.T  # O+_ij O_ji
    w_exch = O.conj() * O.T  # entry (i, j): O+_ji O_ji = conj(O_ij) O_ji
    tr_term = np.trace(O) * np.conj(np.trace(O)) / d**2
    return _goe_contract(spec, J, w_dir, w_exch, t) / d - np.expm1(-J * t / 2.0) * tr_term


def transfer_probability(
    spec: Spectrum, model: NoiseModel, i: int, j: int, t_grid
) -> np.ndarray:
    """E(P_{j<-i}) = delta_ij e^{-rt} + (1 - e^{-rt})/D, with r = J for GUE
    constant noise and r = J/2 for GOE (the GOE case is the GUE case under
    J -> 2J)."""
    if not isinstance(model.profile, ConstantOverD):
        raise ValueError("transfer_probability requires a constant profile")
    d = spec.dim
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError(f"state indices ({i}, {j}) out of range for D={d}")
    rate = model.profile.J if model.ensemble is Ensemble.GUE else model.profile.J / 2.0
    t = np.asarray(t_grid, dtype=float)
    decay = np.exp(-rate * t)
    return (1.0 if i == j else 0.0) * decay + (1.0 - decay) / d


def return_probability(spec: Spectrum, J: float, t_grid) -> np.ndarray:
    """Mean return probability of the eigenbasis rank-1 partition under
    constant GUE noise, P_{S;J}(t) = e^{-Jt} + (1 - e^{-Jt})/D."""
    t = np.asarray(t_grid, dtype=float)
    decay = np.exp(-J * t)
    return decay + (1.0 - decay) / spec.dim
