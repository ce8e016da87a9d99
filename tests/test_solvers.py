"""acim1d.solvers against scipy.optimize, compared bit for bit, lane by lane.

Each case runs one solver call, records every argument each lane's
function is called with (value bits), and runs scipy on that lane's
function and bracket alone.  The two call sequences and the two results
must be identical, or both must raise the same exception type.  A lane
is checked alone and as one lane among others.
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


def _scipy_brentq(f, a, b, xtol):
    return scipy_brentq(f, a, b, xtol=xtol)


def _scipy_minimum(f, lo, hi, xatol):
    return minimize_scalar(f, bounds=(lo, hi), method="bounded",
                           options={"xatol": xatol}).fun


def _scipy_outcome(solve, f, lo, hi, tol):
    calls = []

    def g(x):
        calls.append(_bits(x))
        return f(x)
    try:
        out = solve(g, lo, hi, tol)
    except (ValueError, RuntimeError) as exc:
        return type(exc), calls
    return _bits(out), calls


def _lockstep_outcomes(solve, fs, lo, hi, tol):
    """Per lane (result bits, argument bits) of one call over the lanes fs
    on [lo[i], hi[i]], or (exception type, None) for every lane."""
    calls = [[] for _ in fs]

    def g(x, lanes):
        assert x.shape == lanes.shape and np.all(np.diff(lanes) > 0)
        out = []
        for t, i in zip(x.tolist(), lanes.tolist()):
            calls[i].append(_bits(t))
            out.append(fs[i](t))
        return np.array(out)
    try:
        res = solve(g, lo, hi, tol)
    except (ValueError, RuntimeError) as exc:
        return [(type(exc), None)] * len(fs)
    assert res.shape == (len(fs),)
    return [(_bits(r), c) for r, c in zip(res, calls)]


def _assert_lanes(solve, oracle, fs, lo, hi, tol):
    """Each lane of one call of solve over fs equals oracle on that lane
    alone, or the call raises what oracle raises on some lane; returns
    the oracle's outcomes."""
    ours = _lockstep_outcomes(solve, fs, lo, hi, tol)
    theirs = [_scipy_outcome(oracle, f, a, b, tol)
              for f, a, b in zip(fs, lo, hi)]
    if isinstance(ours[0][0], type):
        assert ours[0][0] in [t[0] for t in theirs]
    else:
        assert ours == theirs
    return [t[0] for t in theirs]


def _assert_alone_and_among(solve, oracle, f, a, b, tol, companions):
    """f on [a, b] as a single lane, then as the middle lane between
    companion lanes that converge on their own."""
    out = _assert_lanes(solve, oracle, [f], [a], [b], tol)[0]
    (f0, a0, b0), (f1, a1, b1) = companions
    _assert_lanes(solve, oracle, [f0, f, f1], [a0, a, a1], [b0, b, b1], tol)
    return out


# smooth, cubic and oscillating families, scaled down to 1e-200 so that
# products of values underflow (interpolation denominators become 0)
def _family(kind, r, c, w, scale):
    if kind == "smooth":
        return lambda x: scale * (math.exp(x - r) - 1.0 + c * (x - r) ** 2)
    if kind == "cubic":
        return lambda x: scale * (x - r) * ((x - r - c) ** 2 + 1e-3)
    return lambda x: scale * (math.sin(w * (x - r)) + c * (x - r))


ROOT_COMPANIONS = [(lambda x: x - 0.3, 0.0, 1.0),
                   (lambda x: math.sin(7.0 * x), 0.3, 0.6)]
FAMILY = st.sampled_from(["smooth", "cubic", "oscillating"])
UNIT = st.floats(0.0, 1.0)
SCALES = st.sampled_from([1.0, 1e-200, 1e-300, 1e200])
XTOLS = st.sampled_from([1e-12, 1e-13, 2e-12])


def _brentq_case(f, a, b, xtol):
    return _assert_alone_and_among(brentq, _scipy_brentq, f, a, b, xtol,
                                   ROOT_COMPANIONS)


@settings(max_examples=400, deadline=None)
@given(kind=FAMILY, r=UNIT, c=st.floats(0.0, 2.0), w=st.floats(1.0, 60.0),
       scale=SCALES, lo=st.floats(-1.0, 1.0), width=st.floats(1e-9, 2.0),
       xtol=XTOLS)
def test_brentq_matches_scipy(kind, r, c, w, scale, lo, width, xtol):
    _brentq_case(_family(kind, r, c, w, scale), lo, lo + width, xtol)


def test_brentq_zero_denominators_match_scipy():
    # |f| ~ 1e-200: the extrapolation denominator dblk * dpre * (fblk - fpre)
    # underflows to 0.  Python raises ZeroDivisionError there and the port
    # bisects, where numpy's step is +-inf or NaN: the lanes must bisect
    # too.  Every bracket alone, then all the valid ones in one call.
    rng = np.random.default_rng(0)
    fs = []
    for _ in range(300):
        r, c, w = rng.uniform(0, 1), rng.uniform(0, 2), rng.uniform(1, 60)
        fs += [_family(kind, r, c, w, 1e-200)
               for kind in ("smooth", "cubic", "oscillating")]
    alone = [_assert_lanes(brentq, _scipy_brentq, [f], [-0.1], [1.1],
                           1e-13)[0] for f in fs]
    valid = [f for f, res in zip(fs, alone) if isinstance(res, bytes)]
    assert len(valid) > 300
    _assert_lanes(brentq, _scipy_brentq, valid, [-0.1] * len(valid),
                  [1.1] * len(valid), 1e-13)


def test_brentq_step_tie_matches_scipy():
    # f(0) = 1, f(8) = -(1 + 2^-52): f(0) - f(8) rounds to 2, so the first
    # secant step is exactly the bisection bound (2 |stry| == |spre|) and
    # must count as a bisection, which changes the later steps
    f = lambda x: float(np.interp(x, [0.0, 4.0, 8.0],
                                  [1.0, 0.5, -(1.0 + 2.0 ** -52)]))
    assert _brentq_case(f, 0.0, 8.0, 1e-12) == _bits(16.0 / 3.0)


@pytest.mark.parametrize("xtol", [1e-12, 1e-13])
def test_brentq_endpoint_roots(xtol):
    for a, b in ((0.25, 0.75), (-0.0, 1.0), (0.5, 2.0)):
        assert _brentq_case(lambda x: x - a, a, b, xtol) == _bits(a)
        assert _brentq_case(lambda x: b - x, a, b, xtol) == _bits(b)


def test_brentq_errors_match_scipy():
    # equal signs (by signbit, including tiny values), a NaN value, and
    # non-convergence within 100 steps: alone and among converging lanes
    cases = [(lambda x: x * x + 1.0, -1.0, 1.0, ValueError),
             (lambda x: -1e-300 - x * x, -1.0, 1.0, ValueError),
             (lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0,
              ValueError),
             (lambda x: x - 0.2 if x < 0.9 else math.nan, 0.0, 1.0,
              ValueError),
             (lambda x: -1.0 if x < 0.123 else 1.0, -1e30, 1e30,
              RuntimeError)]
    for f, a, b, exc in cases:
        assert _brentq_case(f, a, b, 1e-12) is exc
    with pytest.raises(ValueError):
        brentq(lambda x, _: x, [-1.0], [1.0], 0.0)


def test_brentq_no_lanes():
    calls = []
    out = brentq(lambda x, _: calls.append(x), [], [], 1e-12)
    assert out.shape == (0,) and not calls


def _objective(kind, r, c, w, scale):
    if kind == "smooth":
        return lambda x: scale * ((x - r) ** 2 + c * math.cos(x))
    if kind == "cubic":
        return lambda x: scale * ((x - r) ** 3 - c * (x - r))
    if kind == "abs":
        return lambda x: -scale * abs(math.sin(w * x) + c * x)
    return lambda x: scale * (math.sin(w * (x - r)) + c * (x - r) ** 2)


MIN_COMPANIONS = [(lambda x: (x - 0.4) ** 2, 0.0, 1.0),
                  (lambda x: -abs(math.sin(9.0 * x)), 0.1, 0.9)]


def _minimum_case(f, lo, hi, xatol):
    return _assert_alone_and_among(minimize_bounded, _scipy_minimum, f, lo,
                                   hi, xatol, MIN_COMPANIONS)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["smooth", "cubic", "abs", "oscillating"]),
       r=UNIT, c=st.floats(0.0, 2.0), w=st.floats(1.0, 60.0), scale=SCALES,
       lo=st.floats(-1.0, 1.0), width=st.floats(0.0, 2.0),
       xatol=st.sampled_from([1e-12, 1e-13]))
def test_minimize_bounded_matches_scipy(kind, r, c, w, scale, lo, width,
                                       xatol):
    with np.errstate(over="ignore", invalid="ignore"):
        _minimum_case(_objective(kind, r, c, w, scale), lo, lo + width,
                      xatol)


def test_minimize_bounded_errors_and_cap_match_scipy():
    f = _objective("smooth", 0.3, 0.5, 1.0, 1.0)
    assert _minimum_case(f, 0.0, math.inf, 1e-12) is ValueError
    assert _minimum_case(f, 1.0, 0.0, 1e-12) is ValueError
    # golden sections from 1e300 down to 1e-300 take more than the cap:
    # the lane stops after 500 evaluations, as scipy does, while the
    # companions stop when they converge
    with np.errstate(over="ignore", invalid="ignore"):
        _minimum_case(lambda x: x, 0.0, 1e300, 1e-300)
        outcomes = _lockstep_outcomes(
            minimize_bounded, [MIN_COMPANIONS[0][0], lambda x: x],
            [0.0, 0.0], [1.0, 1e300], 1e-300)
    assert len(outcomes[1][1]) == 500 > len(outcomes[0][1])


def test_minimize_bounded_no_lanes():
    calls = []
    out = minimize_bounded(lambda x, _: calls.append(x), [], [], 1e-12)
    assert out.shape == (0,) and not calls


def test_minimize_bounded_nan_values_match_scipy():
    # scipy's bounded method does not check f for NaN: a NaN value loses
    # every comparison, so the lane goes on and returns what scipy returns
    # (NaN where the first value is NaN); nothing raises
    mid = lambda x: math.nan if 0.39 < x < 0.41 else (x - 0.4) ** 2
    out = _minimum_case(mid, 0.0, 1.0, 1e-12)
    calls = _scipy_outcome(_scipy_minimum, mid, 0.0, 1.0, 1e-12)[1]
    assert any(math.isnan(mid(np.frombuffer(c)[0])) for c in calls[1:])
    assert not math.isnan(np.frombuffer(out)[0])
    first = lambda x: math.nan if x < 0.5 else x
    assert math.isnan(np.frombuffer(_minimum_case(first, 0.0, 1.0,
                                                  1e-12))[0])


# one f call per step over the lanes still running


def _step_lanes(solve, oracle, fs, lo, hi, tol):
    """One call of solve over fs: each lane's results and arguments equal
    scipy's on that lane alone, and the lanes f is called with at each
    step are those whose scipy run evaluates f at that step; returns
    each lane's count of evaluations."""
    seen, calls = [], [[] for _ in fs]

    def g(x, lanes):
        assert lanes.dtype == np.intp and x.dtype == np.float64
        seen.append(lanes.tolist())
        for t, i in zip(x.tolist(), lanes.tolist()):
            calls[i].append(_bits(t))
        return np.array([fs[i](t) for t, i in zip(x.tolist(),
                                                  lanes.tolist())])
    res = solve(g, lo, hi, tol)
    theirs = [_scipy_outcome(oracle, f, a, b, tol)
              for f, a, b in zip(fs, lo, hi)]
    assert [(_bits(r), c) for r, c in zip(res, calls)] == theirs
    counts = [len(c) for c in calls]
    assert seen == [[i for i, n in enumerate(counts) if n > k]
                    for k in range(max(counts))]
    return counts


@pytest.mark.parametrize("solve, oracle, fs, lo, hi", [
    (brentq, _scipy_brentq,
     [lambda x: x - 0.25, lambda x: math.sin(7.0 * x), lambda x: x ** 3 - 0.1,
      lambda x: x - 0.5, lambda x: math.exp(x) - 2.0],
     [0.0, 0.3, 0.0, 0.5, 0.0], [1.0, 0.6, 1.0, 1.0, 10.0]),
    (minimize_bounded, _scipy_minimum,
     [lambda x: (x - 0.4) ** 2, lambda x: -abs(math.sin(9.0 * x)),
      lambda x: x, lambda x: math.cos(3.0 * x), lambda x: abs(x - 0.7)],
     [0.0, 0.1, 0.0, 0.0, 0.5], [1.0, 0.9, 1e-3, 2.0, 0.5])])
def test_f_sees_only_the_running_lanes(solve, oracle, fs, lo, hi):
    # lanes that stop after different numbers of steps, the 4th of each
    # call after its first evaluations (a root at an end, an empty
    # interval): f is called once per step of the longest lane, on the
    # lanes still running, in increasing order
    counts = _step_lanes(solve, oracle, fs, lo, hi, 1e-12)
    assert len(set(counts)) == len(counts)
    assert min(counts) <= 2


def test_300_lanes_match_scipy():
    # one call per solver over 300 lanes drawn from the Hypothesis
    # families, wider than any call a pipeline or verify run makes
    rng = np.random.default_rng(1)

    def draw(make, kinds):
        kind = kinds[rng.integers(len(kinds))]
        lo = rng.uniform(-1.0, 1.0)
        return (make(kind, rng.uniform(0, 1), rng.uniform(0, 2),
                     rng.uniform(1, 60), [1.0, 1e-200, 1e200][rng.integers(3)]),
                lo, lo + rng.uniform(1e-9, 2.0))

    roots = []
    while len(roots) < 300:
        f, a, b = draw(_family, ["smooth", "cubic", "oscillating"])
        if isinstance(_scipy_outcome(_scipy_brentq, f, a, b, 1e-13)[0],
                      bytes):
            roots.append((f, a, b))
    minima = [draw(_objective, ["smooth", "cubic", "abs", "oscillating"])
              for _ in range(300)]
    for solve, oracle, lanes in ((brentq, _scipy_brentq, roots),
                                 (minimize_bounded, _scipy_minimum, minima)):
        _step_lanes(solve, oracle, *map(list, zip(*lanes)), 1e-13)


# the call sites, with scipy swapped in lane by lane


def _scipy_lanes(solve):
    """A lockstep-solver stand-in that runs scipy on each lane alone,
    evaluating the lane's function on one-point arrays."""
    def lanes(f, lo, hi, *args, **kwargs):
        tol, = args or kwargs.values()      # brentq's call sites say xtol=
        lo, hi = np.reshape(lo, -1), np.reshape(hi, -1)
        return np.array([
            solve(lambda t, i=i: float(f(np.array([t]), np.array([i]))[0]),
                  float(a), float(b), tol)
            for i, (a, b) in enumerate(zip(lo, hi))])
    return lanes


def _same_repr(x, y):
    return repr(x) == repr(y) and type(x) is type(y)


def test_critical_set_logistic6_matches_scipy(monkeypatch):
    g = power_map(make_map("logistic"), 6)
    ours = maps.critical_set(g)
    monkeypatch.setattr(maps, "brentq", _scipy_lanes(_scipy_brentq))
    theirs = maps.critical_set(g)
    assert len(ours) == 63
    assert _same_repr(ours, theirs)


def _norms_and_slopes_match_scipy(monkeypatch, g):
    ours = (maps.estimate_norms(g), branches.monotone_branches(g))
    lanes = _scipy_lanes(_scipy_minimum)
    monkeypatch.setattr(maps, "minimize_bounded", lanes)
    monkeypatch.setattr(branches, "minimize_bounded", lanes)
    theirs = (maps.estimate_norms(g), branches.monotone_branches(g))
    assert _same_repr(ours[0], theirs[0])
    assert _same_repr(ours[1].branches, theirs[1].branches)
    return len(ours[1].branches)


def test_estimate_norms_and_sup_slopes_doubling4_match_scipy(monkeypatch):
    g = power_map(make_map("doubling"), 4)
    assert _norms_and_slopes_match_scipy(monkeypatch, g) == 16


@pytest.mark.parametrize("name,params,p,n_branches", [
    ("logistic", {}, 3, 8), ("logistic", {"smoothness_r": 4.0}, 2, 4),
    ("perturbed_circle", {}, 2, 4),
])
def test_estimate_norms_and_sup_slopes_match_scipy_on_more_maps(
        monkeypatch, name, params, p, n_branches):
    # higher orders share each lane's jet pass; the chain lane is last
    g = power_map(make_map(name, **params), p)
    assert _norms_and_slopes_match_scipy(monkeypatch, g) == n_branches


def test_circle_preimages_of_zero_match_scipy(monkeypatch):
    # perturbed_circle^2: two preimages of the marked point 0 fall between
    # grid points and are found by brentq
    g = power_map(make_map("perturbed_circle"), 2)
    ours = branches.monotone_branches(g)
    lanes = _scipy_lanes(_scipy_brentq)
    monkeypatch.setattr(maps, "brentq", lanes)
    monkeypatch.setattr(branches, "brentq", lanes)
    theirs = branches.monotone_branches(g)
    assert len(ours.branches) == 4
    assert _same_repr(ours.cut_points, theirs.cut_points)
    assert _same_repr(ours.branches, theirs.branches)


def _counting(module, name, monkeypatch):
    calls = []
    solve = getattr(module, name)

    def counted(f, lo, *args, **kwargs):
        calls.append(np.size(lo))
        return solve(f, lo, *args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_solver_call_per_scan(monkeypatch):
    # each scan hands all its brackets to one lockstep call: critical_set
    # one brentq call, monotone_branches one minimize_bounded call (all
    # sup slopes), estimate_norms at most two calls
    g = power_map(make_map("logistic", smoothness_r=3.0), 6)
    crit = _counting(maps, "brentq", monkeypatch)
    norm = _counting(maps, "minimize_bounded", monkeypatch)
    zero = _counting(branches, "brentq", monkeypatch)
    slope = _counting(branches, "minimize_bounded", monkeypatch)
    # 1/2 is a grid point: 62 of the 63 critical points are brentq lanes
    assert len(maps.critical_set(g)) == 63
    assert crit == [62]
    crit.clear()
    part = branches.monotone_branches(g)
    assert crit == [62] and len(zero) == 1 and slope == [64]
    assert len(part.branches) == 64
    maps.estimate_norms(g)
    assert 1 <= len(norm) <= 2 and sum(norm) == 3 * 3 + 1
