"""Energy spectra: random-matrix sampling and JSON I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class InvalidDimensionError(ValueError):
    """Hilbert-space dimension too small for the requested operation."""


@dataclass(frozen=True)
class Spectrum:
    """Ordered real energy levels of a D-dimensional system.

    Energies are sorted ascending on construction; ``dim >= 2`` and every
    energy is finite.
    """

    energies: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise InvalidDimensionError(
                f"spectrum needs at least 2 levels, got shape {e.shape}"
            )
        if not np.all(np.isfinite(e)):
            raise ValueError(f"energies must be finite, got {e.tolist()}")
        e = np.sort(e)
        e.setflags(write=False)
        object.__setattr__(self, "energies", e)

    @property
    def dim(self) -> int:
        return self.energies.size

    def gaps(self) -> np.ndarray:
        """Antisymmetric gap matrix E_ij = E_i - E_j."""
        e = self.energies
        return e[:, None] - e[None, :]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"dim": self.dim, "energies": self.energies.tolist()}, fh)

    @classmethod
    def load(cls, path) -> "Spectrum":
        with open(path) as fh:
            data = json.load(fh)
        spec = cls(np.asarray(data["energies"], dtype=float))
        if "dim" in data and int(data["dim"]) != spec.dim:
            raise ValueError(
                f"dim field {data['dim']} disagrees with {spec.dim} energies"
            )
        return spec


def sample_gue_spectrum(dim: int, rng: np.random.Generator) -> Spectrum:
    """Sorted eigenvalues of a GUE matrix normalized so the semicircle
    support is approximately [-2, 2].

    Diagonal entries are real N(0, 1/dim); off-diagonal entries are complex
    with real and imaginary parts each N(0, 1/(2 dim)).
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    x = rng.standard_normal((dim, dim))
    y = rng.standard_normal((dim, dim))
    a = (x + 1j * y) / np.sqrt(2.0)
    h = (a + a.conj().T) / np.sqrt(2.0 * dim)
    return Spectrum(np.linalg.eigvalsh(h))


def sample_goe_spectrum(dim: int, rng: np.random.Generator) -> Spectrum:
    """GOE analogue of :func:`sample_gue_spectrum` (real symmetric matrices)."""
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    x = rng.standard_normal((dim, dim))
    h = (x + x.T) / np.sqrt(2.0 * dim)
    return Spectrum(np.linalg.eigvalsh(h))

