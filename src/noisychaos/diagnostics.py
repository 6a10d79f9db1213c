"""Series observables built on the averaged channels: SFF, two-point
functions, effective Hamiltonian, transfer and return probabilities, each
evaluated on a whole time grid at once.  Moments and Lanczos coefficients
live in krylov.py, the two-replica observables in channel_two.py."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .channel_one import ChannelOne, goe_params
from .noise import ConstantOverD, Ensemble, NoiseModel, goe_constant
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


def _meta(spec: Spectrum, **extra) -> dict:
    spectrum_hash = hashlib.sha256(spec.energies.tobytes()).hexdigest()[:16]
    meta = {"dim": spec.dim, "spectrum_hash": spectrum_hash}
    meta.update(extra)
    return meta


def sff_noiseless(spec: Spectrum, t_grid) -> np.ndarray:
    """K_0(t) = |sum_i e^{-i E_i t}|^2 / D^2, with the shape of t."""
    phases = np.exp(-1j * np.multiply.outer(np.asarray(t_grid, dtype=float), spec.energies))
    return np.abs(phases.sum(axis=-1)) ** 2 / spec.dim**2


def sff_gue_const(spec: Spectrum, J: float, t_grid) -> DiagnosticSeries:
    """K_J(t) = e^{-Jt} K_0(t) + (1 - e^{-Jt})/D^2, normalized K_J(0) = 1."""
    t = np.asarray(t_grid, dtype=float)
    decay = np.exp(-J * t)
    values = decay * sff_noiseless(spec, t) + (1.0 - decay) / spec.dim**2
    return DiagnosticSeries(
        "sff_gue_const", t, values, metadata=_meta(spec, J=J, ensemble="gue")
    )


def _goe_contract(spec: Spectrum, J: float, wa, wg: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_ij [wa o A(t) + wg o G(t)]_ij of the constant GOE channel on t.

    The weights fold onto the exponentials, b+- = (wa c+- +- wg g)/2 on
    e^{z+- t}.  z+- are symmetric, so each exponent is taken once from the
    upper triangle with the weights of (i, j) and (j, i).  The weights fold
    in place, the channel is dropped once folded and t runs in blocks of
    ~4 D x D exponentials in one reused buffer.
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
    rows = max(1, 4 * d * d // z.size)
    block = np.empty((rows, z.size), dtype=complex)
    out = np.empty(t.size, dtype=complex)
    for k in range(0, t.size, rows):
        e = np.multiply.outer(t[k:k + rows], z, out=block[:t.size - k])
        out[k:k + rows] = np.exp(e, out=e) @ b
    return out


def sff_goe_const(spec: Spectrum, J: float, t_grid) -> DiagnosticSeries:
    """K_J(t) = (sum_ij A_ij + Tr G + Tr B)/D^2 of the constant GOE channel,
    with Tr B = 1 - e^{-Jt/2}."""
    d = spec.dim
    t = np.asarray(t_grid, dtype=float)
    total = _goe_contract(spec, J, 1.0, np.eye(d), t)
    values = (total.real - np.expm1(-J * t / 2.0)) / d**2
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
    """C_0(t) = (1/D) sum_ij O+_ij O_ji e^{-i(E_i - E_j)t}.  The phase grid has
    rank one, so with P = exp(-i t E) this is the row sum of (P W) o conj(P)."""
    t = np.asarray(t_grid, dtype=float)
    p = np.exp(-1j * np.multiply.outer(t, spec.energies))
    pw = p @ (O.conj().T * O.T)  # weights (i, j): O+_ij O_ji
    pw *= np.conjugate(p, out=p)
    return pw.sum(axis=-1) / spec.dim


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
    """C_J(t) = (1/D) Tr(O+ U1[O]): the A term weighted by O+_ij O_ji, the
    exchange term G by O+_ji O_ji, and the universal trace term."""
    d = spec.dim
    t = np.asarray(t_grid, dtype=float)
    w_dir = O.conj().T * O.T  # O+_ij O_ji
    w_exch = O.conj() * O.T  # entry (i, j): O+_ji O_ji = conj(O_ij) O_ji
    tr_term = np.trace(O) * np.conj(np.trace(O)) / d**2
    values = _goe_contract(spec, J, w_dir, w_exch, t) / d - np.expm1(-J * t / 2.0) * tr_term
    return DiagnosticSeries(
        "two_point_goe_const", t, values, metadata=_meta(spec, J=J, ensemble="goe")
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
            if not np.allclose(p @ q, p if k == l else 0.0, atol=1e-10):
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
    t = np.asarray(t_grid, dtype=float)
    if projectors is None:
        decay = np.exp(-J * t)
        values = decay + (1.0 - decay) / spec.dim
    else:
        # rho_s = Pi_s / Tr Pi_s returns with weight (D / Tr Pi_s) C_J(t) of
        # O = Pi_s, averaged over the blocks s.
        _validate_partition(projectors, spec.dim)
        values = sum(
            spec.dim / np.trace(p).real * two_point_gue_const(spec, J, p, t).values.real
            for p in projectors
        ) / len(projectors)
    return DiagnosticSeries(
        "return_probability", t, values, metadata=_meta(spec, J=J, ensemble="gue")
    )
