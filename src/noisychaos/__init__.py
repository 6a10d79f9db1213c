"""Closed-form noise-averaged evolution channels and chaos diagnostics.

Single-particle spectra evolved under Hamiltonians with white-noise
perturbations drawn from the GUE or GOE admit exact ensemble-averaged
channels.  This package builds those channels, evaluates spectral and
operator diagnostics on top of them (spectral form factor, two-point
functions, out-of-time-order correlators, transfer and return
probabilities, Lanczos coefficients), and cross-validates everything
against a stochastic-trajectory Monte Carlo oracle.
"""

from .channel_one import (
    ChannelOne,
    apply_channel,
    u1_goe_const,
    u1_goe_general,
    u1_gue_const,
    u1_gue_general,
)
from .channel_two import (
    SffVariance,
    UnsupportedDimensionError,
    decay_rates,
    f_coefficients,
    f_matrix,
    otoc,
    sff_squared_mean,
    sff_variance,
)
from .diagnostics import (
    DiagnosticSeries,
    return_probability,
    sff_from_channel,
    sff_goe_const,
    sff_gue_const,
    transfer_probability,
    two_point_goe_const,
    two_point_gue_const,
)
from .krylov import (
    LanczosBreakdownError,
    lanczos_from_moments,
    noisy_moments,
    sech_moments,
    signed_lanczos_noisy,
)
from .montecarlo import (
    Estimate,
    OracleRun,
    TrajectoryConfig,
    UnitarityError,
    estimate_observables,
    estimate_otoc,
    estimate_sff,
    estimate_sff_squared,
    estimate_transfer,
    estimate_two_point,
    otoc_observable,
    sff_observable,
    sff_squared_observable,
    transfer_observable,
    two_point_observable,
)
from .noise import (
    ConstantOverD,
    Ensemble,
    GibbsProfile,
    InvalidStepError,
    MatrixProfile,
    NoiseModel,
    goe_constant,
    gue_constant,
    model_from_config,
    sample_noise_sequence,
)
from .spectra import (
    InvalidDimensionError,
    Spectrum,
    sample_goe_spectrum,
    sample_gue_spectrum,
)

__version__ = "0.1.0"
