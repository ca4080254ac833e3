"""Tests for the bracketed Brent root solver."""

import math

import pytest

from eulerfan import NumericalError
from eulerfan.roots import brent


def test_known_root_to_rtol():
    root = brent(lambda x: x * x - 2.0, 1.0, 2.0, rtol=1e-12)
    assert abs(root - math.sqrt(2.0)) <= 1e-12 * math.sqrt(2.0)


def test_transcendental_root_either_bracket_order():
    for a, b in ((0.0, 2.0), (2.0, 0.0)):
        root = brent(lambda x: math.cos(x) - x, a, b, rtol=1e-12)
        assert root == pytest.approx(0.7390851332151607, rel=1e-12)


def test_interpolation_steps_converge_fast():
    """Brent's interpolation steps reach 1e-12 in 8 calls where plain
    bisection of the same bracket would need about 40."""
    calls = []

    def f(x):
        calls.append(x)
        return math.cos(x) - x

    brent(f, 0.0, 2.0, rtol=1e-12)
    assert len(calls) == 8


@pytest.mark.parametrize("a, b", [(3.0, 5.0), (1.0, 3.0)])
def test_bracket_end_that_is_the_root_is_returned(a, b):
    calls = []

    def f(x):
        calls.append(x)
        return x - 3.0

    assert brent(f, a, b, rtol=1e-12) == 3.0
    assert len(calls) == 2


def test_same_sign_bracket_raises():
    with pytest.raises(NumericalError, match="no sign change"):
        brent(lambda x: x * x + 1.0, -1.0, 1.0, rtol=1e-12)


def test_exhausted_iterations_raise():
    with pytest.raises(NumericalError, match="not converged after 3 iterations"):
        brent(lambda x: x ** 3 - 0.1, 0.0, 10.0, rtol=1e-12, maxiter=3)


def test_nan_value_raises():
    with pytest.raises(NumericalError, match="NaN"):
        brent(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, rtol=1e-12)
