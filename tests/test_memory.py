"""Traced peak memory of the grid-native analytic layer.

Each function takes a whole 400-point time grid at D = 128, and its traced
peak, in D x D complex grids, must stay near what one time point needs.
A GOE form peaks at 8-9.5 such grids while it takes the exponents' upper
triangles next to goe_params' five output grids, which goe_params itself
builds within 8, and folds its weights into those grids in place; the (T, D)
phase matrices of the GUE forms take T/D ~ 3 grids each.  A (T, D, D) stack
over the grid would take 400.
"""

import tracemalloc

import numpy as np
import pytest

from noisychaos import (
    f_coefficients,
    goe_constant,
    otoc,
    return_probability,
    sample_gue_spectrum,
    sff_goe_const,
    sff_gue_const,
    sff_squared_mean,
    sff_variance,
    two_point_goe_const,
    two_point_gue_const,
)
from noisychaos.channel_one import goe_params

from conftest import random_hermitian
from oracles import partition_return_probability

D, T = 128, 400
BOUND = 16  # D x D complex grids
GOE_PARAMS_BOUND = 8  # its five outputs and the temporaries of its arithmetic
# The GOE forms hold goe_params' five grids, the exponents' upper triangles
# and the caller's weights; their weights fold in place.
GOE_BOUNDS = {"sff_goe_const": 10, "two_point_goe_const": 11.5}

GRID_FUNCTIONS = {
    "sff_gue_const": lambda s, o, a, b, t: sff_gue_const(s, 0.5, t),
    "sff_goe_const": lambda s, o, a, b, t: sff_goe_const(s, 0.5, t),
    "two_point_gue_const": lambda s, o, a, b, t: two_point_gue_const(s, 0.5, o, t),
    "two_point_goe_const": lambda s, o, a, b, t: two_point_goe_const(s, 0.5, o, t),
    "return_probability": lambda s, o, a, b, t: return_probability(s, 0.5, t),
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
