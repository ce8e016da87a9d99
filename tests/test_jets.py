"""Jet arithmetic against closed-form derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acim1d.jets import Jet, constant, jet_of_polynomial, variable


def test_variable_seed():
    j = variable(0.7, 3)
    assert j.value == 0.7
    assert j.deriv(1) == 1.0
    assert j.deriv(2) == 0.0


def test_polynomial_derivatives_exact():
    # p(t) = 2 - t + 3 t^2 + 0.5 t^3
    coeffs = [2.0, -1.0, 3.0, 0.5]
    t = np.array([-0.3, 0.0, 0.9])
    j = jet_of_polynomial(coeffs, t, 3)
    p = np.polynomial.polynomial.Polynomial(coeffs)
    for k in range(4):
        np.testing.assert_allclose(j.deriv(k), p.deriv(k)(t), rtol=1e-13)


def test_composition_sin_square():
    # f(t) = sin(2t) + t^2 at t = 0.4: derivatives by hand
    t0 = 0.4
    j = variable(t0, 3)
    f = (2.0 * j).sin() + j * j
    assert math.isclose(f.deriv(0), math.sin(0.8) + 0.16, rel_tol=1e-14)
    assert math.isclose(f.deriv(1), 2 * math.cos(0.8) + 0.8, rel_tol=1e-13)
    assert math.isclose(f.deriv(2), -4 * math.sin(0.8) + 2, rel_tol=1e-13)
    assert math.isclose(f.deriv(3), -8 * math.cos(0.8), rel_tol=1e-13)


def test_reciprocal_and_division():
    j = variable(2.0, 4)
    inv = 1.0 / j
    # d^k (1/t) = (-1)^k k! / t^{k+1}
    for k in range(5):
        expected = (-1) ** k * math.factorial(k) / 2.0 ** (k + 1)
        assert math.isclose(inv.deriv(k), expected, rel_tol=1e-12)


def test_integer_power_matches_mul():
    j = variable(1.3, 4)
    np.testing.assert_allclose((j ** 3).c, (j * j * j).c, rtol=1e-13)


@given(st.floats(min_value=-3.0, max_value=3.0))
def test_exp_log_roundtrip(x):
    j = variable(x, 3)
    back = j.exp().log()
    np.testing.assert_allclose(back.c, j.c, rtol=1e-9, atol=1e-9)


@given(st.floats(min_value=0.1, max_value=4.0))
def test_sqrt_consistency(x):
    j = variable(x, 3)
    s = j.sqrt()
    np.testing.assert_allclose((s * s).c, j.c, rtol=1e-10, atol=1e-12)


def _mul_loop(a, b):
    """Jet.__mul__'s coefficients as the per-(k, j) loop: the oracle."""
    K = a.shape[0] - 1
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for k in range(K + 1):
        for j in range(k + 1):
            out[k] += a[j] * b[k - j]
    return out


_ENTRIES = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-310, -1e308]))


@st.composite
def _jet_pairs(draw):
    K = draw(st.integers(0, 6))
    shapes = draw(st.sampled_from([((), ()), ((7,), (7,)), ((3, 4), (3, 4)),
                                   ((1, 4), (3, 1)), ((7,), (1,))]))
    a, b = (np.array(draw(st.lists(_ENTRIES, min_size=size, max_size=size)))
            .reshape((K + 1,) + shape)
            for shape, size in ((s, (K + 1) * math.prod(s)) for s in shapes))
    return a, b


def _same_bits(x, y):
    # a NaN's sign follows numpy's loop (an in-place add of one element
    # keeps the other operand's NaN, of two or more its own), so NaNs
    # match as NaNs and every other value, -0 included, bit for bit
    nan = np.isnan(x)
    bits = [np.where(nan, 0.0, v).view(np.int64) for v in (x, y)]
    return np.array_equal(nan, np.isnan(y)) and np.array_equal(*bits)


@given(_jet_pairs())
@settings(max_examples=300)
def test_mul_matches_loop_bit_for_bit(pair):
    a, b = pair
    with np.errstate(all="ignore"):
        assert _same_bits((Jet(a) * Jet(b)).c, _mul_loop(a, b))
        assert _same_bits((Jet(b) * Jet(a)).c, _mul_loop(b, a))


def test_mod1_only_shifts_value():
    j = variable(2.7, 2)
    m = j.mod1()
    assert math.isclose(m.value, 0.7, abs_tol=1e-12)
    assert m.deriv(1) == j.deriv(1)
    assert m.deriv(2) == j.deriv(2)


def test_vectorized_matches_scalar():
    xs = np.array([0.1, 0.5, 0.9])
    jv = variable(xs, 3)
    fv = (jv * (1.0 - jv)).exp()
    for i, x in enumerate(xs):
        fs = (variable(x, 3) * (1.0 - variable(x, 3))).exp()
        np.testing.assert_allclose(fv.c[:, i], fs.c, rtol=1e-13)


def test_bad_power_rejected():
    j = variable(1.0, 2)
    with pytest.raises(ValueError):
        j ** 0.5
