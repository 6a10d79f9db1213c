"""Scalar and series observables built on the averaged channels: SFF,
two-point functions, effective Hamiltonian, transfer and return
probabilities.  Moments and Lanczos coefficients live in krylov.py."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .channel_one import ChannelOne, goe_params
from .noise import Ensemble, NoiseModel, goe_constant
from .spectra import Spectrum


@dataclass(frozen=True)
class DiagnosticSeries:
    """A named observable sampled on a time grid, optionally with Monte
    Carlo error bars."""

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


def spectrum_hash(spec: Spectrum) -> str:
    return hashlib.sha256(spec.energies.tobytes()).hexdigest()[:16]


def _meta(spec: Spectrum, **extra) -> dict:
    meta = {"dim": spec.dim, "spectrum_hash": spectrum_hash(spec)}
    meta.update(extra)
    return meta


def sff_noiseless(spec: Spectrum, t_grid: np.ndarray) -> np.ndarray:
    """K_0(t) = |sum_i e^{-i E_i t}|^2 / D^2."""
    t = np.asarray(t_grid, dtype=float)
    phases = np.exp(-1j * np.outer(t, spec.energies))
    return np.abs(phases.sum(axis=1)) ** 2 / spec.dim**2


def sff_gue_const(spec: Spectrum, J: float, t_grid) -> DiagnosticSeries:
    """K_J(t) = e^{-Jt} K_0(t) + (1 - e^{-Jt})/D^2, normalized K_J(0) = 1."""
    t = np.asarray(t_grid, dtype=float)
    decay = np.exp(-J * t)
    values = decay * sff_noiseless(spec, t) + (1.0 - decay) / spec.dim**2
    return DiagnosticSeries(
        "sff_gue_const", t, values, metadata=_meta(spec, J=J, ensemble="gue")
    )


def sff_goe_const(spec: Spectrum, J: float, t_grid) -> DiagnosticSeries:
    """Three-term GOE closed form: spectral sum over (c-, c+) exponentials,
    universal (1 - e^{-Jt/2})/D^2, and the sinh exchange term."""
    d = spec.dim
    t = np.asarray(t_grid, dtype=float)
    params = goe_params(spec, goe_constant(J, d))
    values = np.empty(t.size)
    for k, tk in enumerate(t):
        a_sum = 0.5 * (
            params.c_minus * np.exp(params.z_minus * tk)
            + params.c_plus * np.exp(params.z_plus * tk)
        ).sum()
        term2 = -np.expm1(-J * tk / 2.0) / d**2
        term3 = (
            np.exp(-(d + 1) * J * tk / (2 * d)) * np.sinh(J * tk / (2 * d)) / d
        )
        values[k] = (a_sum / d**2).real + term2 + term3
    return DiagnosticSeries(
        "sff_goe_const", t, values, metadata=_meta(spec, J=J, ensemble="goe")
    )


def sff_from_channel(ch: ChannelOne) -> float:
    """K_J from the channel contraction (i = i', j = j' summed over i, j):
    (sum_ij A_ij + Tr B + Tr G)/D^2.  Must agree with the closed forms."""
    d = ch.dim
    total = ch.coeff_A.sum() + np.trace(ch.coeff_B) + np.trace(ch.coeff_G)
    return float(total.real) / d**2


def two_point_noiseless(spec: Spectrum, O: np.ndarray, t_grid) -> np.ndarray:
    """C_0(t) = (1/D) Tr(O+ O_t) via explicit phase sums (H0 diagonal)."""
    t = np.asarray(t_grid, dtype=float)
    gaps = spec.gaps()
    weights = O.conj().T * O.T  # entry (i, j): O+_ij O_ji
    out = np.empty(t.size, dtype=complex)
    for k, tk in enumerate(t):
        out[k] = (weights * np.exp(-1j * gaps * tk)).sum() / spec.dim
    return out


def two_point_gue_const(spec: Spectrum, J: float, O: np.ndarray, t_grid) -> DiagnosticSeries:
    """C_J(t) = e^{-Jt} C_0(t) + (1 - e^{-Jt}) TrO TrO+ / D^2."""
    t = np.asarray(t_grid, dtype=float)
    decay = np.exp(-J * t)
    tr_term = np.trace(O) * np.conj(np.trace(O)) / spec.dim**2
    values = decay * two_point_noiseless(spec, O, t) + (1.0 - decay) * tr_term
    return DiagnosticSeries(
        "two_point_gue_const", t, values, metadata=_meta(spec, J=J, ensemble="gue")
    )


def two_point_goe_const(spec: Spectrum, J: float, O: np.ndarray, t_grid) -> DiagnosticSeries:
    """GOE closed form: direct (c-, c+) sum, universal trace term, and the
    exchange term weighted by O+_ji O_ji."""
    d = spec.dim
    t = np.asarray(t_grid, dtype=float)
    params = goe_params(spec, goe_constant(J, d))
    w_dir = O.conj().T * O.T  # O+_ij O_ji
    w_exch = O.conj() * O.T  # entry (i, j): O+_ji O_ji = conj(O_ij) O_ji
    tr_term = np.trace(O) * np.conj(np.trace(O)) / d**2
    out = np.empty(t.size, dtype=complex)
    for k, tk in enumerate(t):
        ep = np.exp(params.z_plus * tk)
        em = np.exp(params.z_minus * tk)
        direct = ((params.c_minus * em + params.c_plus * ep) * w_dir).sum() / (2 * d)
        exch = (params.g * (ep - em) * w_exch).sum() / (2 * d)
        out[k] = direct + exch - np.expm1(-J * tk / 2.0) * tr_term
    return DiagnosticSeries(
        "two_point_goe_const", t, out, metadata=_meta(spec, J=J, ensemble="goe")
    )


def effective_hamiltonian(spec: Spectrum, J: float, t: float) -> Spectrum:
    """Eigenvalues of the noise-averaged Heisenberg evolution of diag(E):
    E_{J;i} = e^{-Jt} E_i + Ebar (1 - e^{-Jt}).  The map is affine
    increasing, so ordering and spacing ratios are preserved."""
    decay = np.exp(-J * t)
    e_bar = spec.mean_energy
    return Spectrum(decay * spec.energies + e_bar * (1.0 - decay))


def transfer_probability(
    spec: Spectrum, model: NoiseModel, i: int, j: int, t_grid
) -> DiagnosticSeries:
    """E(P_{j<-i}) = delta_ij e^{-rt} + (1 - e^{-rt})/D, with r = J for GUE
    constant noise and r = J/2 for GOE (the GOE case is the GUE case under
    J -> 2J)."""
    from .noise import ConstantOverD

    if not isinstance(model.profile, ConstantOverD):
        raise ValueError("transfer_probability requires a constant profile")
    d = spec.dim
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError(f"state indices ({i}, {j}) out of range for D={d}")
    rate = model.profile.J if model.ensemble is Ensemble.GUE else model.profile.J / 2.0
    t = np.asarray(t_grid, dtype=float)
    decay = np.exp(-rate * t)
    values = (1.0 if i == j else 0.0) * decay + (1.0 - decay) / d
    return DiagnosticSeries(
        "transfer_probability",
        t,
        values,
        metadata=_meta(spec, J=model.profile.J, ensemble=model.ensemble.value, i=i, j=j),
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
            prod = p @ q
            target = p if k == l else np.zeros_like(p)
            if not np.allclose(prod, target, atol=1e-10):
                raise ValueError(f"projectors {k}, {l} are not orthogonal idempotents")
    if not np.allclose(total, np.eye(d), atol=1e-10):
        raise ValueError("projectors do not sum to the identity")


def return_probability(
    spec: Spectrum, J: float, projectors: list[np.ndarray] | None, t_grid
) -> DiagnosticSeries:
    """Mean return probability under constant GUE noise.

    For the eigenbasis rank-1 partition (projectors=None) the closed form
    P_{S;J}(t) = e^{-Jt} + (1 - e^{-Jt})/D is used; a general complete
    orthogonal partition is contracted against the averaged channel.
    """
    d = spec.dim
    t = np.asarray(t_grid, dtype=float)
    decay = np.exp(-J * t)
    if projectors is None:
        values = decay + (1.0 - decay) / d
    else:
        _validate_partition(projectors, d)
        n_s = len(projectors)
        gaps = spec.gaps()
        values = np.zeros(t.size)
        for p in projectors:
            rank = np.trace(p).real  # initial state rho_s = Pi_s / Tr Pi_s
            weights = p * p.T  # Pi_ab Pi_ba summed against the phase grid
            tr_sq = abs(np.trace(p)) ** 2
            for k, tk in enumerate(t):
                direct = (weights * np.exp(-1j * gaps * tk)).sum().real
                values[k] += (
                    (decay[k] * direct + (1.0 - decay[k]) * tr_sq / d) / rank / n_s
                )
    return DiagnosticSeries(
        "return_probability", t, values, metadata=_meta(spec, J=J, ensemble="gue")
    )
