"""Noise models: ensemble symmetry class plus variance profile lambda_ij.

Shared between the analytic channels and the Monte Carlo trajectory oracle.
The white-noise variance is regularized on a time grid as lambda/dt per step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from .spectra import Spectrum


class Ensemble(enum.Enum):
    GUE = "gue"
    GOE = "goe"


class InvalidStepError(ValueError):
    """Non-positive regularization time step."""


@dataclass(frozen=True)
class ConstantOverD:
    """lambda_ij = J/D for all i, j."""

    J: float

    def matrix(self, dim: int) -> np.ndarray:
        return np.full((dim, dim), self.J / dim)


@dataclass(frozen=True)
class MatrixProfile:
    """Arbitrary symmetric nonnegative variance matrix."""

    lam: np.ndarray

    def matrix(self, dim: int) -> np.ndarray:
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (dim, dim):
            raise ValueError(f"lambda matrix shape {lam.shape} != ({dim}, {dim})")
        return lam


@dataclass(frozen=True)
class GibbsProfile:
    """lambda_ij = (J/D) exp(-beta |E_i - E_j|), suppressing large-gap
    transitions; beta -> 0 recovers the constant profile exactly."""

    J: float
    beta: float
    spectrum: Spectrum

    def matrix(self, dim: int) -> np.ndarray:
        if self.spectrum.dim != dim:
            raise ValueError("Gibbs profile spectrum dimension mismatch")
        return (self.J / dim) * np.exp(-self.beta * np.abs(self.spectrum.gaps()))


Profile = Union[ConstantOverD, MatrixProfile, GibbsProfile]


@dataclass(frozen=True)
class NoiseModel:
    """White-noise model: symmetry class (GUE/GOE) and variance profile."""

    ensemble: Ensemble
    profile: Profile
    dim: int

    def __post_init__(self):
        lam = self.profile.matrix(self.dim)
        if np.any(lam < 0.0):
            raise ValueError("lambda_ij must be nonnegative")
        if not np.array_equal(lam, lam.T):
            raise ValueError("lambda_ij must be symmetric")

    def lambda_matrix(self) -> np.ndarray:
        return self.profile.matrix(self.dim)

    def to_config(self) -> dict:
        out = {"ensemble": self.ensemble.value}
        if isinstance(self.profile, ConstantOverD):
            out["profile"] = {"type": "const", "J": self.profile.J}
        elif isinstance(self.profile, GibbsProfile):
            out["profile"] = {
                "type": "gibbs",
                "J": self.profile.J,
                "beta": self.profile.beta,
            }
        else:
            out["profile"] = {
                "type": "matrix",
                "lambda": np.asarray(self.profile.lam).tolist(),
            }
        return out


def model_from_config(
    config: dict, dim: int, spectrum: Spectrum | None = None
) -> NoiseModel:
    """Build a NoiseModel from its JSON descriptor.

    A Gibbs profile needs the spectrum the variance is weighted by.
    """
    ensemble = Ensemble(config["ensemble"])
    prof = config["profile"]
    kind = prof["type"]
    if kind == "const":
        profile: Profile = ConstantOverD(float(prof["J"]))
    elif kind == "matrix":
        profile = MatrixProfile(np.asarray(prof["lambda"], dtype=float))
    elif kind == "gibbs":
        if spectrum is None:
            raise ValueError("gibbs profile requires a spectrum")
        profile = GibbsProfile(float(prof["J"]), float(prof["beta"]), spectrum)
    else:
        raise ValueError(f"unknown profile type {kind!r}")
    return NoiseModel(ensemble=ensemble, profile=profile, dim=dim)


def gue_constant(J: float, dim: int) -> NoiseModel:
    return NoiseModel(Ensemble.GUE, ConstantOverD(J), dim)


def goe_constant(J: float, dim: int) -> NoiseModel:
    return NoiseModel(Ensemble.GOE, ConstantOverD(J), dim)


def noise_dtype(model: NoiseModel) -> type:
    """Noise slices are complex for GUE and real for GOE."""
    return complex if model.ensemble is Ensemble.GUE else float


def sample_noise_sequence(
    model: NoiseModel,
    dt: float,
    n_steps: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """n_steps independent time slices of the regularized noise matrix.

    Each slice is Hermitian (GUE) or real symmetric (GOE) with second
    moments matching the delta-regularized variance lambda/dt:
    off-diagonal GUE entries have independent real/imaginary parts of
    variance lambda_ij/(2 dt), GOE off-diagonals have variance
    lambda_ij/(2 dt), diagonals have variance lambda_ii/dt in both cases.

    The slices are written into ``out`` (n_steps x D x D of
    ``noise_dtype(model)``) when it is given, else into a new array.  The
    stream is one full D x D normal draw x for all slices, then y for GUE;
    an entry above the diagonal is sigma_ij (x + i y)_ij, the diagonal
    sigma_ii x_ii.
    """
    if dt <= 0.0:
        raise InvalidStepError(f"dt must be positive, got {dt}")
    d = model.dim
    lam = model.lambda_matrix()
    sig_up = np.triu(np.sqrt(lam / (2.0 * dt)), k=1)
    sig_diag = np.sqrt(np.diag(lam) / dt)
    if out is None:
        out = np.empty((n_steps, d, d), dtype=noise_dtype(model))

    x = rng.standard_normal((n_steps, d, d))
    if model.ensemble is Ensemble.GUE:
        np.multiply(x, sig_up, out=out.real)
        np.multiply(rng.standard_normal((n_steps, d, d)), sig_up, out=out.imag)
        out += out.conj().transpose(0, 2, 1)
    else:
        np.multiply(x, sig_up, out=out)
        out += out.transpose(0, 2, 1)
    idx = np.arange(d)
    out[:, idx, idx] = sig_diag * x[:, idx, idx]
    return out
