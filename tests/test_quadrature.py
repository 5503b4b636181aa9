import math

import numpy as np
import pytest

from mixedfrac import BadParameters, NonConvergedQuadrature
from mixedfrac import quadrature as quad


def test_gauss_rule_is_read_only():
    # the cached arrays are shared by every caller: a write must not reach them
    x, w = quad.gauss_rule(5)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0
    assert quad.gauss_rule(5)[0] is x and abs(w.sum() - 1.0) < 1e-15


def test_polynomial_exact():
    val = quad.adaptive(lambda x: 3 * x ** 2, 0.0, 2.0, rel_tol=1e-12)
    assert abs(val - 8.0) < 1e-12


def test_smooth_function():
    val = quad.adaptive(np.sin, 0.0, math.pi, rel_tol=1e-12)
    assert abs(val - 2.0) < 1e-11


def test_endpoint_singularity_power_substitution():
    # int_0^1 x^(-1/2) dx = 2
    val = quad.adaptive_power(lambda x: x ** -0.5, 0.0, 1.0, rel_tol=1e-10,
                              p_left=-0.5)
    assert abs(val - 2.0) < 1e-9


def test_both_endpoint_exponents_rejected():
    with pytest.raises(BadParameters):
        quad.adaptive_power(lambda x: x ** (-1 / 3) * (1 - x) ** (-1 / 3),
                            0.0, 1.0, p_left=-1 / 3, p_right=-1 / 3)


def test_nonintegrable_exponent_rejected():
    with pytest.raises(NonConvergedQuadrature):
        quad.adaptive_power(lambda x: x ** -1.2, 0.0, 1.0, p_left=-1.2)


def test_cos_tail_against_reference():
    # int_1^inf cos(x)/x^2 dx via scipy's oscillatory quadrature
    from scipy.integrate import quad as sciquad
    ref = sciquad(lambda x: x ** -2.0, 1, np.inf, weight="cos", wvar=1.0)[0]
    val = quad.cos_tail(2.0, 1.0, tol=1e-12)
    assert abs(val - ref) < 1e-10
