"""Tests for the bracketed Brent root solver."""

import math

import pytest

import eulerfan.roots
from eulerfan import NumericalError
from eulerfan.roots import _RTOL, _XTOL, brent


def test_known_root_to_rtol():
    """The solve stops within Brent's tolerance _XTOL + _RTOL*|x|."""
    root = brent(lambda x: x * x - 2.0, 1.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= _XTOL + _RTOL * math.sqrt(2.0)


def test_transcendental_root_either_bracket_order():
    for a, b in ((0.0, 2.0), (2.0, 0.0)):
        root = brent(lambda x: math.cos(x) - x, a, b)
        assert root == pytest.approx(0.7390851332151607, rel=1e-12)


def test_interpolation_steps_converge_fast():
    """Brent's interpolation steps reach the solver's tolerance in 8
    calls where plain bisection of the same bracket would need about
    50."""
    calls = []

    def f(x):
        calls.append(x)
        return math.cos(x) - x

    brent(f, 0.0, 2.0)
    assert len(calls) == 8


@pytest.mark.parametrize("a, b", [(3.0, 5.0), (1.0, 3.0)])
def test_bracket_end_that_is_the_root_is_returned(a, b):
    calls = []

    def f(x):
        calls.append(x)
        return x - 3.0

    assert brent(f, a, b) == 3.0
    assert len(calls) == 2


def test_same_sign_bracket_raises():
    with pytest.raises(NumericalError, match="no sign change"):
        brent(lambda x: x * x + 1.0, -1.0, 1.0)


def test_exhausted_iterations_raise(monkeypatch):
    """Brent's bound is the only cap; a cap of 3 stands in for a solve
    that does not converge within it."""
    monkeypatch.setattr(eulerfan.roots, "_iteration_cap", lambda a, b: 3)
    with pytest.raises(NumericalError, match="not converged after 3 iterations"):
        brent(lambda x: x ** 3 - 0.1, 0.0, 10.0)


def test_nan_value_raises():
    with pytest.raises(NumericalError, match="NaN"):
        brent(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)


def test_underflowing_interpolation_denominator_bisects():
    """On this flat cubic the inverse-quadratic denominator underflows to
    zero; Brent's safeguard takes a bisection step instead of dividing."""
    root = brent(lambda x: 1e-200 * (x - 0.3) ** 3, 0.0, 1.0)
    assert abs(root - 0.3) <= _XTOL + _RTOL * 0.3


def test_flat_cubic_converges_within_brents_bound():
    """Near this flat triple root the interpolation steps creep: the
    solve takes more than 100 calls, which the cap, Brent's bound for
    the bracket and the tolerance, allows."""
    calls = []

    def f(x):
        calls.append(x)
        return 5.47e-20 * (x - 0.2685) ** 3

    root = brent(f, 0.0, 1.0)
    assert len(calls) > 100
    assert abs(root - 0.2685) <= _XTOL + _RTOL * 0.2685
