"""One point contract for every public evaluator that takes points.

measure.as_points coerces every batch of points: it rejects NaN and inf
coordinates and a wrong number of coordinates.  The kernels and mu_ball add
the open positive orthant.
"""

import math

import numpy as np
import pytest

from lps.basis import PLAIN, Expansion, ell, ell_batch, ell_table, synthesize
from lps.gfunctions import gfun_exact, gfun_quadrature
from lps.kernels import (
    KernelKind,
    ZetaGrid,
    heat_kernel_closed,
    heat_kernel_schlafli,
    heat_kernel_spectral,
    kernel_values,
    poisson_kernel,
)
from lps.measure import as_points, mu_ball

ALPHA = (0.3, -0.5)
GRID = ZetaGrid(order=4, levels=4)
E = Expansion(ALPHA, PLAIN, {(0, 0): 0.5, (1, 2): 1.0})
OTHER = [0.5, 1.5]

# name -> (call at a point p, whether the open orthant is required)
EVALUATORS = {
    "ell": (lambda p: ell(ALPHA, (1, 2), p), False),
    "ell_table": (lambda p: ell_table(ALPHA, 3, p), False),
    "ell_batch": (lambda p: ell_batch(ALPHA, (1,), [(1, 2)], p), False),
    "synthesize": (lambda p: synthesize(E, p), False),
    "gfun_exact": (lambda p: gfun_exact(KernelKind("dT"), E, p), False),
    "gfun_quadrature": (lambda p: gfun_quadrature(KernelKind("dT"), E, p, GRID), False),
    "kernel_values-x": (lambda p: kernel_values(ALPHA, KernelKind("dT"), p, OTHER, GRID), True),
    "kernel_values-y": (lambda p: kernel_values(ALPHA, KernelKind("dT"), OTHER, p, GRID), True),
    "heat_kernel_closed": (lambda p: heat_kernel_closed(ALPHA, 0.5, p, OTHER), True),
    "heat_kernel_spectral": (lambda p: heat_kernel_spectral(ALPHA, 0.5, OTHER, p, 10), True),
    "heat_kernel_schlafli": (lambda p: heat_kernel_schlafli(ALPHA, 0.5, p, OTHER), True),
    "poisson_kernel": (lambda p: poisson_kernel(ALPHA, 0.5, OTHER, p, j=1), True),
    "mu_ball": (lambda p: mu_ball(ALPHA, p, 0.5), True),
}

BAD_POINTS = {
    "nan": ([1.0, math.nan], "finite"),
    "inf": ([math.inf, 2.0], "finite"),
    "-inf": ([1.0, -math.inf], "finite"),
    "three-coordinates": ([1.0, 2.0, 3.0], "(n, 2)"),
    "zero": ([0.0, 2.0], "orthant"),
}


@pytest.mark.parametrize("bad", list(BAD_POINTS))
@pytest.mark.parametrize("name", list(EVALUATORS))
def test_bad_points_are_rejected(name, bad):
    call, orthant = EVALUATORS[name]
    point, words = BAD_POINTS[bad]
    if bad == "zero" and not orthant:
        call(point)  # the basis lives on the closed orthant
        return
    with pytest.raises(ValueError) as info:
        call(point)
    assert "point" in str(info.value) and words in str(info.value)


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_good_point_is_accepted(name):
    call, _ = EVALUATORS[name]
    assert np.all(np.isfinite(call([1.0, 2.0])))


def test_as_points_shapes():
    for d, x, shape, single in ((1, 0.5, (1, 1), True), (1, [0.5, 0.7], (2, 1), False),
                                (2, [0.5, 0.7], (1, 2), True), (2, [[0.5, 0.7]], (1, 2), False),
                                (2, np.ones((3, 2)), (3, 2), False)):
        pts, got = as_points(d, x)
        assert pts.shape == shape and got == single
    with pytest.raises(ValueError, match="points must form an"):
        as_points(2, np.ones((2, 2, 2)))
