"""Noise models: ensemble symmetry class plus variance profile lambda_ij.

Shared between the analytic channels and the Monte Carlo trajectory oracle.
The white-noise variance is regularized on a time grid as lambda/dt per step.
The oracle's noise slices are sampled as float64 rows of their K independent
entries (K = ``noise_width``), a half at a time, which the output's width
names (``sample_noise_sequence``), and expanded into full Hermitian or
symmetric slices (``noise_slices``) one step at a time; the draws are those
of full D x D slices, so the stream at a seed does not depend on the layout.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple, Union

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
        lam = np.array(self.lam, dtype=float)
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


class PopulationModes(NamedTuple):
    """Eigenmodes of the Markov generator P = lambda - diag(J) = V diag(mu)
    V^T of the single-replica channel's populations, with the row sums J."""

    mu: np.ndarray
    v: np.ndarray
    j_row: np.ndarray


@dataclass(frozen=True)
class NoiseModel:
    """White-noise model: symmetry class (GUE/GOE) and variance profile.

    The profile's lambda matrix, a new array from every profile, is built
    and checked once, on construction, and every ``lambda_matrix()`` call
    returns it, read-only.  ``population_modes``, the eigendecomposition of
    the Markov generator of the channel's populations, is taken once per
    model, on first use; the constant profile's closed form never uses it.
    """

    ensemble: Ensemble
    profile: Profile
    dim: int
    _lam: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = self.profile.matrix(self.dim)
        if (lam < 0.0).any():
            raise ValueError("lambda_ij must be nonnegative")
        if (lam != lam.T).any():
            raise ValueError("lambda_ij must be symmetric")
        lam.setflags(write=False)
        object.__setattr__(self, "_lam", lam)

    def lambda_matrix(self) -> np.ndarray:
        return self._lam

    @functools.cached_property
    def population_modes(self) -> PopulationModes:
        """The modes of P = lambda - diag(J), J_i = sum_j lambda_ij, all
        read-only: one ``eigh`` serves every t and both ensembles.  P is
        minus a graph Laplacian, so mu <= 0 up to roundoff."""
        lam = self._lam
        j_row = lam.sum(axis=1)
        mu, v = np.linalg.eigh(lam - np.diag(j_row))
        modes = PopulationModes(mu, v, j_row)
        for a in modes:
            a.setflags(write=False)
        return modes

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


def gue_constant(J: float, dim: int) -> NoiseModel:
    return NoiseModel(Ensemble.GUE, ConstantOverD(J), dim)


def goe_constant(J: float, dim: int) -> NoiseModel:
    return NoiseModel(Ensemble.GOE, ConstantOverD(J), dim)


def noise_width(model: NoiseModel) -> int:
    """K, the independent real entries of one noise slice: D^2 for GUE (the
    x half, upper-triangle real parts then the diagonal, then the y half,
    upper-triangle imaginary parts), D(D+1)/2 for GOE (the x half alone)."""
    d = model.dim
    return d * d if model.ensemble is Ensemble.GUE else d * (d + 1) // 2


def sample_noise_sequence(
    model: NoiseModel,
    dt: float,
    n_steps: int,
    gens: Sequence[np.random.Generator],
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """n_steps independent time slices of the regularized noise matrix for
    each generator of ``gens``, as one half of their rows of K =
    ``noise_width(model)`` entries, written into ``out`` (n_gens x n_steps
    x width float64, of any strides, unbuffered when C-contiguous).

    Each slice is Hermitian (GUE) or real symmetric (GOE) with second
    moments matching the delta-regularized variance lambda/dt:
    off-diagonal GUE entries have independent real/imaginary parts of
    variance lambda_ij/(2 dt), GOE off-diagonals have variance
    lambda_ij/(2 dt), diagonals have variance lambda_ii/dt in both cases.

    The width of ``out`` says which half a call fills.  D(D+1)/2 is the x
    half: x is drawn and sigma_ij x_ij written for i < j in
    ``np.triu_indices`` order, then sigma_ii x_ii, the whole row under
    GOE.  Under GUE, D(D-1)/2 is the y half: y is drawn and sigma_ij y_ij
    written in the same order; a row is its x half then its y half, and
    its slice is sigma_ij (x + i y)_ij above the diagonal and sigma_ii
    x_ii on it.  Each slice draws one full D x D normal matrix in
    ``scratch`` (room for n_gens x n_steps x D^2 floats) and discards the
    entries below the diagonal, so the stream, and with it every Monte
    Carlo estimate at a seed, is that of a sampler of full slices.  A
    generator's consecutive calls continue its stream: its x halves in
    pieces of steps, then its y halves, draw the stream of all its x
    slices followed by all its y slices.
    """
    if dt <= 0.0:
        raise InvalidStepError(f"dt must be positive, got {dt}")
    d = model.dim
    x_half = out.shape[-1] == d * (d + 1) // 2
    if not x_half and (out.shape[-1] != d * (d - 1) // 2 or model.ensemble is not Ensemble.GUE):
        raise ValueError(f"out width {out.shape[-1]} is not the x half, or under GUE the y half, of a D = {d} row")
    iu, ju = np.triu_indices(d, k=1)
    lam = model.lambda_matrix()
    # Each slice's draw as a flat row: the upper triangle, then the diagonal
    # every (D+1)-th entry, is one gather.
    index = iu * d + ju
    sigma = np.sqrt(lam[iu, ju] / (2.0 * dt))
    if x_half:
        index = np.concatenate([index, np.arange(0, d * d, d + 1)])
        sigma = np.concatenate([sigma, np.sqrt(np.diag(lam) / dt)])
    draws = scratch[:len(gens) * n_steps * d * d].reshape(len(gens), n_steps, d * d)
    for gen, draw in zip(gens, draws):
        gen.standard_normal(out=draw)
    np.take(draws, index, axis=-1, out=out, mode="wrap")
    np.multiply(out, sigma, out=out)
    return out


@functools.lru_cache(maxsize=None)
def _expansion(dim: int, gue: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Where each entry of a full slice sits in a row, as a flat gather
    index over the slice's D x D entries, or under GUE over their
    interleaved (real, imaginary) parts with the sign each part takes."""
    iu, ju = np.triu_indices(dim, k=1)
    m = iu.size
    real = np.empty((dim, dim), dtype=np.intp)
    real[iu, ju] = real[ju, iu] = np.arange(m)
    np.fill_diagonal(real, m + np.arange(dim))
    if not gue:
        return real.ravel(), None
    imag = np.zeros((dim, dim), dtype=np.intp)
    imag[iu, ju] = imag[ju, iu] = m + dim + np.arange(m)
    sign = np.zeros((dim, dim, 2))
    sign[..., 0] = 1.0
    sign[iu, ju, 1], sign[ju, iu, 1] = 1.0, -1.0
    return np.stack([real, imag], axis=-1).ravel(), sign.ravel()


def noise_slices(model: NoiseModel, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The full slices (..., D, D), complex Hermitian for GUE and real
    symmetric for GOE, of rows (..., K) laid out as ``sample_noise_sequence``
    writes them: one gather, and under GUE one sign product, which gives
    the diagonal an imaginary part of zero (of either sign).  They are
    written into ``out`` (C-contiguous) when it is given; rows that are
    C-contiguous are gathered without a copy."""
    d = model.dim
    gue = model.ensemble is Ensemble.GUE
    index, sign = _expansion(d, gue)
    if out is None:
        out = np.empty(rows.shape[:-1] + (d, d), dtype=complex if gue else float)
    flat = out.view(float).reshape(rows.shape[:-1] + (-1,))
    np.take(rows, index, axis=-1, out=flat, mode="wrap")
    if gue:
        np.multiply(flat, sign, out=flat)
    return out
