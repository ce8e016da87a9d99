"""acim1d.solvers against scipy.optimize, compared bit for bit.

Each case runs the port and scipy on the same function, records every
argument the function is called with (value bits and type), and asserts
that the two call sequences and the two results are identical, or that
both raise the same exception type.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq, minimize_scalar

import acim1d.branches as branches
import acim1d.maps as maps
from acim1d.maps import make_map, power_map
from acim1d.solvers import brentq, minimize_bounded


def _bits(x):
    return np.float64(x).tobytes()


def _recorded(f, calls):
    def g(x):
        calls.append((type(x), _bits(x)))
        return f(x)
    return g


def _outcome(solve, f):
    calls = []
    try:
        out = solve(_recorded(f, calls))
    except (ValueError, RuntimeError) as exc:
        return type(exc), calls
    return (type(out), _bits(out)), calls


def _scipy_minimum(f, lo, hi, xatol):
    return minimize_scalar(f, bounds=(lo, hi), method="bounded",
                           options={"xatol": xatol}).fun


def _scipy_brentq(f, a, b, xtol):
    return scipy_brentq(f, a, b, xtol=xtol)


def _assert_brentq_equal(f, a, b, xtol):
    ours = _outcome(lambda h: brentq(h, a, b, xtol), f)
    theirs = _outcome(lambda h: _scipy_brentq(h, a, b, xtol), f)
    assert ours == theirs
    return ours[0]


def _assert_minimum_equal(f, lo, hi, xatol):
    # the call sites read the minimum as a float: compare its bits, and
    # the argument sequence with its types
    ours = _outcome(lambda h: float(minimize_bounded(h, lo, hi, xatol)), f)
    theirs = _outcome(lambda h: float(_scipy_minimum(h, lo, hi, xatol)), f)
    assert ours == theirs
    return ours[0]


# smooth, cubic and oscillating families, scaled down to 1e-200 so that
# products of values underflow (interpolation denominators become 0)
def _family(kind, r, c, w, scale):
    if kind == "smooth":
        return lambda x: scale * (math.exp(x - r) - 1.0 + c * (x - r) ** 2)
    if kind == "cubic":
        return lambda x: scale * (x - r) * ((x - r - c) ** 2 + 1e-3)
    return lambda x: scale * (math.sin(w * (x - r)) + c * (x - r))


FAMILY = st.sampled_from(["smooth", "cubic", "oscillating"])
UNIT = st.floats(0.0, 1.0)
SCALES = st.sampled_from([1.0, 1e-200, 1e-300, 1e200])
XTOLS = st.sampled_from([1e-12, 1e-13, 2e-12])


@settings(max_examples=400, deadline=None)
@given(kind=FAMILY, r=UNIT, c=st.floats(0.0, 2.0), w=st.floats(1.0, 60.0),
       scale=SCALES, lo=st.floats(-1.0, 1.0), width=st.floats(1e-9, 2.0),
       xtol=XTOLS, f64=st.booleans())
def test_brentq_matches_scipy(kind, r, c, w, scale, lo, width, xtol, f64):
    f = _family(kind, r, c, w, scale)
    a, b = lo, lo + width
    if f64:
        a, b = np.float64(a), np.float64(b)
    _assert_brentq_equal(f, a, b, xtol)


def test_brentq_zero_denominators_match_scipy():
    # |f| ~ 1e-200: the extrapolation denominator dblk * dpre * (fblk - fpre)
    # underflows to 0, and C's +-inf/NaN step must become a bisection
    rng = np.random.default_rng(0)
    results = []
    for _ in range(300):
        r, c, w = rng.uniform(0, 1), rng.uniform(0, 2), rng.uniform(1, 60)
        for kind in ("smooth", "cubic", "oscillating"):
            f = _family(kind, r, c, w, 1e-200)
            results.append(_assert_brentq_equal(f, -0.1, 1.1, 1e-13))
    assert sum(isinstance(res, tuple) for res in results) > 300


def test_brentq_step_tie_matches_scipy():
    # f(0) = 1, f(8) = -(1 + 2^-52): f(0) - f(8) rounds to 2, so the first
    # secant step is exactly the bisection bound (2 |stry| == |spre|) and
    # must count as a bisection, which changes the later steps
    f = lambda x: float(np.interp(x, [0.0, 4.0, 8.0],
                                  [1.0, 0.5, -(1.0 + 2.0 ** -52)]))
    assert _assert_brentq_equal(f, 0.0, 8.0, 1e-12) == \
        (float, _bits(16.0 / 3.0))


@pytest.mark.parametrize("xtol", [1e-12, 1e-13])
def test_brentq_endpoint_roots(xtol):
    for a, b in ((0.25, 0.75), (-0.0, 1.0), (np.float64(0.5), 2.0)):
        assert _assert_brentq_equal(lambda x: x - a, a, b, xtol) == \
            (float, _bits(a))
        assert _assert_brentq_equal(lambda x: b - x, a, b, xtol) == \
            (float, _bits(b))


def test_brentq_errors_match_scipy():
    # equal signs (by signbit, including tiny values), a NaN value, and
    # non-convergence within 100 steps
    assert _assert_brentq_equal(lambda x: x * x + 1.0, -1.0, 1.0,
                                1e-12) is ValueError
    assert _assert_brentq_equal(lambda x: -1e-300 - x * x, -1.0, 1.0,
                                1e-12) is ValueError
    assert _assert_brentq_equal(lambda x: math.nan if x > 0.3 else x - 0.5,
                                0.0, 1.0, 1e-12) is ValueError
    assert _assert_brentq_equal(lambda x: x - 0.2 if x < 0.9 else math.nan,
                                0.0, 1.0, 1e-12) is ValueError
    assert _assert_brentq_equal(lambda x: -1.0 if x < 0.123 else 1.0,
                                -1e30, 1e30, 1e-12) is RuntimeError
    with pytest.raises(ValueError):
        brentq(lambda x: x, -1.0, 1.0, 0.0)


def _objective(kind, r, c, w, scale):
    if kind == "smooth":
        return lambda x: scale * ((x - r) ** 2 + c * math.cos(x))
    if kind == "cubic":
        return lambda x: scale * ((x - r) ** 3 - c * (x - r))
    if kind == "abs":
        return lambda x: -scale * abs(math.sin(w * x) + c * x)
    return lambda x: scale * (math.sin(w * (x - r)) + c * (x - r) ** 2)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["smooth", "cubic", "abs", "oscillating"]),
       r=UNIT, c=st.floats(0.0, 2.0), w=st.floats(1.0, 60.0), scale=SCALES,
       lo=st.floats(-1.0, 1.0), width=st.floats(0.0, 2.0),
       xatol=st.sampled_from([1e-12, 1e-13]), f64=st.booleans())
def test_minimize_bounded_matches_scipy(kind, r, c, w, scale, lo, width,
                                       xatol, f64):
    f = _objective(kind, r, c, w, scale)
    a, b = lo, lo + width
    if f64:
        a, b = np.float64(a), np.float64(b)
    _assert_minimum_equal(f, a, b, xatol)


def test_minimize_bounded_errors_and_cap_match_scipy():
    f = _objective("smooth", 0.3, 0.5, 1.0, 1.0)
    assert _assert_minimum_equal(f, 0.0, math.inf, 1e-12) is ValueError
    assert _assert_minimum_equal(f, 1.0, 0.0, 1e-12) is ValueError
    # golden sections from 1e300 down to 1e-300 take more than the cap:
    # both stop after 500 evaluations
    with np.errstate(over="ignore", invalid="ignore"):
        calls = []
        minimize_bounded(_recorded(lambda x: x, calls), 0.0, 1e300, 1e-300)
        assert len(calls) == 500
        _assert_minimum_equal(lambda x: x, 0.0, 1e300, 1e-300)


# the call sites, with scipy swapped in for the port


def _same(x, y):
    return repr(x) == repr(y) and type(x) is type(y)


def test_critical_set_logistic6_matches_scipy(monkeypatch):
    g = power_map(make_map("logistic"), 6)
    ours = maps.critical_set(g)
    monkeypatch.setattr(maps, "brentq", _scipy_brentq)
    theirs = maps.critical_set(g)
    assert len(ours) == 63
    assert [_bits(x) for x in ours] == [_bits(x) for x in theirs]


def test_estimate_norms_and_sup_slopes_doubling4_match_scipy(monkeypatch):
    g = power_map(make_map("doubling"), 4)
    ours = (maps.estimate_norms(g), branches.monotone_branches(g))
    monkeypatch.setattr(maps, "minimize_bounded", _scipy_minimum)
    monkeypatch.setattr(branches, "minimize_bounded", _scipy_minimum)
    theirs = (maps.estimate_norms(g), branches.monotone_branches(g))
    assert _same(ours[0], theirs[0])
    assert _same(ours[1].branches, theirs[1].branches)
    assert len(ours[1].branches) == 16


def test_circle_preimages_of_zero_match_scipy(monkeypatch):
    # perturbed_circle^2: two preimages of the marked point 0 fall between
    # grid points and are found by brentq
    g = power_map(make_map("perturbed_circle"), 2)
    ours = branches.monotone_branches(g)
    monkeypatch.setattr(maps, "brentq", _scipy_brentq)
    monkeypatch.setattr(branches, "brentq", _scipy_brentq)
    theirs = branches.monotone_branches(g)
    assert len(ours.branches) == 4
    assert _same(ours.cut_points, theirs.cut_points)
    assert _same(ours.branches, theirs.branches)
