"""Traced peak memory of the grid-native analytic layer.

Each function takes a whole 400-point time grid at D = 128, and its traced
peak, in D x D complex grids, must stay near what one time point needs.
A GOE form peaks at 6.7-8.7 such grids: goe_params' real vectors over the
D(D+1)/2 level pairs (goe_params itself peaks at 2.3), the pair weights,
the ~D(D+1)/2 exponents with their weights, one block's factors (2 grids at
D = 128), and the caller's weight grids.
The (T, D) phase matrices of the GUE forms take T/D ~ 3 grids each.  The
Gibbs-model entries also build the model's lambda and the
eigendecomposition of its Markov generator, under the same bounds.  A
(T, D, D) stack over the grid would take 400.

A built ChannelOne keeps only what its ensemble and profile produce: the
complex A (1 grid), a real B unless the profile is constant (0.5) and a
real G under GOE noise (0.5).  Dense grids for all three, with A and G
complex, would keep 2.5 in every case.
"""

import tracemalloc

import numpy as np
import pytest

from noisychaos import (
    ConstantOverD,
    Ensemble,
    GibbsProfile,
    MatrixProfile,
    NoiseModel,
    f_coefficients,
    goe_constant,
    gue_constant,
    otoc,
    return_probability,
    sample_gue_spectrum,
    sff,
    sff_goe_const,
    sff_gue_const,
    sff_squared_mean,
    sff_variance,
    transfer_probability,
    two_point,
    two_point_goe_const,
    two_point_gue_const,
    u1_goe_general,
    u1_gue_general,
)
from noisychaos.channel_one import goe_params

from conftest import random_hermitian
from oracles import partition_return_probability

D, T = 128, 400
BOUND = 16  # D x D complex grids
GOE_PARAMS_BOUND = 8  # its pair vectors and the temporaries of its arithmetic
# The GOE forms hold goe_params' pair vectors, the pair weights, the
# exponents with their weights, and the caller's weight grids.
GOE_BOUNDS = {"sff_goe_const": 10, "two_point_goe_const": 11.5,
              "sff_goe_gibbs": 10, "two_point_goe_gibbs": 11.5}

GIBBS_FORMS = {
    "sff": lambda s, m, o, t: sff(s, m, t),
    "two_point": lambda s, m, o, t: two_point(s, m, o, t),
    "transfer": lambda s, m, o, t: transfer_probability(s, m, 0, 1, t),
    "return": lambda s, m, o, t: return_probability(s, m, t),
}

GRID_FUNCTIONS = {
    "sff_gue_const": lambda s, o, a, b, t: sff_gue_const(s, 0.5, t),
    "sff_goe_const": lambda s, o, a, b, t: sff_goe_const(s, 0.5, t),
    "two_point_gue_const": lambda s, o, a, b, t: two_point_gue_const(s, 0.5, o, t),
    "two_point_goe_const": lambda s, o, a, b, t: two_point_goe_const(s, 0.5, o, t),
    "return_probability": lambda s, o, a, b, t: return_probability(s, gue_constant(0.5, D), t),
    # A Gibbs model, built inside the traced call, adds its lambda matrix and
    # the eigendecomposition of its Markov generator.
    **{
        f"{form}_{ensemble.value}_gibbs": (
            lambda s, o, a, b, t, form=form, ensemble=ensemble: GIBBS_FORMS[form](
                s, NoiseModel(ensemble, GibbsProfile(0.5, 0.5, s), D), o, t)
        )
        for form in ("sff", "two_point", "transfer", "return")
        for ensemble in (Ensemble.GUE, Ensemble.GOE)
    },
    # The test oracle of a general partition contracts the grid like the rest.
    "partition_return_probability": lambda s, o, a, b, t: partition_return_probability(
        s, 0.5, [np.diag(np.arange(D) < D // 2).astype(float),
                 np.diag(np.arange(D) >= D // 2).astype(float)], t),
    "f_coefficients": lambda s, o, a, b, t: f_coefficients(D, 0.5, t),
    "sff_squared_mean": lambda s, o, a, b, t: sff_squared_mean(s, 0.5, t),
    "sff_variance": lambda s, o, a, b, t: sff_variance(s, 0.5, t),
    "otoc": lambda s, o, a, b, t: otoc(s, 0.5, t, a, b),
}


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(128)
    spec = sample_gue_spectrum(D, rng)
    o = random_hermitian(D, rng)
    a = random_hermitian(D, rng, traceless=True)
    b = random_hermitian(D, rng, traceless=True)
    return spec, o, a, b, np.linspace(0.0, 20.0, T)


def traced_peak_grids(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / (D * D * 16)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", GRID_FUNCTIONS)
def test_grid_peak_stays_near_one_point(inputs, name):
    grids = traced_peak_grids(GRID_FUNCTIONS[name], *inputs)
    assert grids <= GOE_BOUNDS.get(name, BOUND), f"{name} peaked at {grids:.1f} D x D grids"


def test_goe_params_works_in_place(inputs):
    grids = traced_peak_grids(goe_params, inputs[0], goe_constant(0.5, D))
    assert grids <= GOE_PARAMS_BOUND, f"goe_params peaked at {grids:.1f} D x D grids"


# D x D complex grids a built channel keeps, by ensemble and profile.
KEPT_BOUNDS = {("gue", "const"): 1.05, ("gue", "gibbs"): 1.55, ("gue", "matrix"): 1.55,
               ("goe", "const"): 1.55, ("goe", "gibbs"): 2.05, ("goe", "matrix"): 2.05}


@pytest.mark.parametrize("ensemble, profile", KEPT_BOUNDS)
def test_channel_keeps_only_its_arrays(inputs, ensemble, profile):
    spec = inputs[0]
    rng = np.random.default_rng(5)
    lam = rng.random((D, D))
    prof = {"const": ConstantOverD(0.5), "gibbs": GibbsProfile(0.5, 0.5, spec),
            "matrix": MatrixProfile((lam + lam.T) / (4 * D))}[profile]
    model = NoiseModel(Ensemble(ensemble), prof, D)
    build = u1_gue_general if model.ensemble is Ensemble.GUE else u1_goe_general
    build(spec, model, 1.0)  # the model's modes and the pair indices, taken once
    tracemalloc.start()
    try:
        channel = build(spec, model, 1.3)
        grids = tracemalloc.get_traced_memory()[0] / (D * D * 16)
    finally:
        tracemalloc.stop()
    assert channel.dim == D
    assert grids <= KEPT_BOUNDS[ensemble, profile], f"the channel keeps {grids:.2f} D x D grids"
