"""Map presets, orbits, Lyapunov data, norms, critical sets, compositions."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from acim1d.errors import UnresolvedCritical
from acim1d.maps import (
    BUCKETS, CIRCLE, FLAT_TOL, UNIT_INTERVAL, ExpressionMap, SortedTable,
    critical_set, estimate_norms, lyapunov_ft, make_map, orbit_grid,
    power_map,
)

LOG2 = math.log(2.0)


def _chain(lds):
    """log|(f^k)'(x)| for k = 0..n of a one-seed orbit."""
    return np.concatenate(([0.0], np.cumsum(lds[:, 0])))


def test_orbit_doubling():
    f = make_map("doubling")
    pts, lds = orbit_grid(f, [0.3], 3)
    np.testing.assert_allclose(pts[:, 0], [0.3, 0.6, 0.2, 0.4], atol=1e-12)
    np.testing.assert_allclose(lds[:, 0], [LOG2] * 3, rtol=0)
    np.testing.assert_allclose(_chain(lds),
                               [0.0, LOG2, 2 * LOG2, 3 * LOG2], rtol=1e-15)


def test_orbit_identity_affine():
    f = make_map("affine", c0=0.0, c1=1.0)
    _, lds = orbit_grid(f, [0.42], 5)
    assert np.all(lds == 0.0)


def test_orbit_hits_critical_point():
    f = make_map("logistic")
    _, lds = orbit_grid(f, [0.5], 1)
    assert lds[0, 0] == -np.inf


def test_lyapunov_doubling_and_identity():
    assert math.isclose(lyapunov_ft(make_map("doubling"), [0.123], 37)[0],
                        LOG2, rel_tol=1e-12)
    assert lyapunov_ft(make_map("affine", c0=0.0, c1=1.0), [0.9], 11)[0] \
        == 0.0


def test_lyapunov_logistic_birkhoff():
    # Oracle: the a.e. exponent of 4x(1-x) is log 2 (tent-map conjugacy);
    # cross-checked with Birkhoff averages from 10 random seeds and 0.1234.
    f = make_map("logistic")
    n = 10 ** 5
    rng = np.random.default_rng(7)
    xs = np.append(rng.uniform(0.05, 0.95, 10), 0.1234)
    assert np.all(np.abs(lyapunov_ft(f, xs, n) - LOG2) < 0.01)


def test_norms_doubling():
    norms = estimate_norms(make_map("doubling"))
    assert math.isclose(norms.sup_abs_deriv[1], 2.0, rel_tol=1e-12)
    assert math.isclose(norms.R_estimate, LOG2, rel_tol=1e-12)
    assert norms.R_estimate <= math.log(norms.sup_abs_deriv[1]) + 1e-9


def test_norms_logistic():
    norms = estimate_norms(make_map("logistic"))
    assert math.isclose(norms.sup_abs_deriv[1], 4.0, rel_tol=1e-10)
    assert math.isclose(norms.sup_abs_deriv[2], 8.0, rel_tol=1e-12)
    assert math.isclose(norms.f_prime_r_minus_1, 8.0, rel_tol=1e-10)


def test_norms_tent_growth_rate():
    # |(f^n)'| = s^n off a finite set, so R_estimate is exactly log s.
    norms = estimate_norms(make_map("tent", s=1.7), n_used=8)
    assert abs(norms.R_estimate - math.log(1.7)) < 1e-9


def test_norm_monotonicity_in_n():
    # submultiplicativity: the depth-2k rate cannot exceed the depth-k rate
    for name in ("doubling", "tent"):
        f = make_map(name)
        r1 = estimate_norms(f, n_used=4).R_estimate
        r2 = estimate_norms(f, n_used=8).R_estimate
        assert r2 <= r1 + 1e-9


def test_critical_set_logistic():
    crits = critical_set(make_map("logistic"))
    assert len(crits) == 1
    assert abs(crits[0] - 0.5) < 1e-10


def test_critical_set_doubling_empty():
    assert critical_set(make_map("doubling")) == []


def test_critical_set_cubic():
    # Oracle: f'(x) = 1 - 3(x-1/3)^2 vanishes in [0,1] only at 1/3 + 1/sqrt(3).
    root = 1.0 / 3.0 + 1.0 / math.sqrt(3.0)
    crits = critical_set(make_map("cubic"), tol=1e-12)
    assert len(crits) == 1
    assert abs(crits[0] - root) < 1e-10


class _GridDerivative:
    """Only f', built to hit each branch of critical_set's grid scan on the
    grids of 16 and 48 cells: a sign change between a point that is not
    small and f'(1/8) = 1e-11 < FLAT_TOL, an interior flat [1/4, 3/8], a
    grid-exact zero at 5/8 and a flat [7/8, 1] that runs to x = 1."""

    def deriv(self, k, x):
        x = np.asarray(x, dtype=float)
        return np.select([x < 0.25, x <= 0.375, x < 0.875],
                         [x - (0.125 - 1e-11), 0.0, x - 0.625], 0.0)


class _ZeroAtOne:
    """f'(x) = x - 1: the only small grid point is x = 1 itself."""

    def deriv(self, k, x):
        return np.asarray(x, dtype=float) - 1.0


def test_critical_set_grid_edge_cases():
    # the sub-FLAT_TOL point is both a grid root and the end of a
    # bracketed sign change; a flat piece ends at the first grid point
    # past it (on the 48-cell grid), or at x = 1; a small run that starts
    # at x = 1 is ignored
    assert critical_set(_GridDerivative(), grid_size=16) == [
        0.12499999999, 0.125, 0.625, (0.25, 0.3958333333333333),
        (0.875, 1.0)]
    assert critical_set(_ZeroAtOne(), grid_size=16) == []


def _critical_set_loop(f, tol=1e-12, grid_size=8192):
    """critical_set as a walk over the grid cells, one at a time, each root
    from scipy's brentq: the reference for its array scan and its one
    lockstep solver call."""
    def locate(m):
        xs = np.linspace(0.0, 1.0, m + 1)
        d = np.asarray(f.deriv(1, xs), dtype=float)
        small = np.abs(d) < FLAT_TOL
        roots, flats, i = [], [], 0
        while i < m:
            if small[i]:
                j = i
                while j < m + 1 and small[j]:
                    j += 1
                if j - i > 1:
                    flats.append((xs[i], xs[min(j, m)]))
                else:
                    roots.append(xs[i])
                i = j
                continue
            if d[i] * d[i + 1] < 0:
                roots.append(brentq(lambda t: float(f.deriv(1, t)),
                                    xs[i], xs[i + 1], xtol=tol))
            i += 1
        return roots, flats

    roots, flats = locate(grid_size)
    roots2, flats2 = locate(3 * grid_size)
    if len(roots2) != len(roots) or len(flats2) != len(flats):
        raise UnresolvedCritical("unstable")
    return sorted(roots2) + sorted(flats2)


class _PiecewiseDerivative:
    """f' = vals[k] (1 + slope (x - k/K)) on the k-th of K equal pieces."""

    def __init__(self, vals, slope):
        self.vals, self.slope = np.asarray(vals), slope

    def deriv(self, k, x):
        x = np.asarray(x, dtype=float)
        K = self.vals.size
        i = np.minimum((x * K).astype(int), K - 1)
        return self.vals[i] * (1.0 + self.slope * (x - i / K))


@settings(max_examples=150, deadline=None)
@given(vals=st.lists(st.sampled_from([-1.0, 1.0, 0.3, 0.0, 1e-12, -1e-12]),
                     min_size=3, max_size=30),
       slope=st.sampled_from([0.0, 1.0]), grid=st.integers(8, 60))
def test_critical_set_matches_cell_loop(vals, slope, grid):
    f = _PiecewiseDerivative(vals, slope)
    try:
        want = _critical_set_loop(f, grid_size=grid)
    except UnresolvedCritical:
        with pytest.raises(UnresolvedCritical):
            critical_set(f, grid_size=grid)
        return
    got = critical_set(f, grid_size=grid)
    assert repr(got) == repr(want)


def test_power_map_doubling():
    g = power_map(make_map("doubling"), 3)
    xs = np.linspace(0, 1, 11)
    np.testing.assert_allclose(g.eval(xs), (8 * xs) % 1.0, atol=1e-12)
    np.testing.assert_allclose(g.deriv(1, xs), 8.0, rtol=0)


def test_power_map_affine_higher_derivs_zero():
    g = power_map(make_map("affine", c0=0.31, c1=1.0, domain=CIRCLE), 4)
    xs = np.array([0.0, 0.25, 0.8])
    np.testing.assert_allclose(g.deriv(2, xs), 0.0, atol=1e-14)


def test_power_map_logistic_chain_rule():
    f = make_map("logistic")
    g = power_map(f, 2)
    x = 0.2
    d = float(g.deriv(1, x))
    expected = float(f.deriv(1, f.eval(x)) * f.deriv(1, x))
    assert math.isclose(d, expected, rel_tol=1e-14)
    h = 1e-6
    fd = (g.eval(x + h) - g.eval(x - h)) / (2 * h)
    assert math.isclose(d, float(fd), rel_tol=1e-6)


def test_power_map_bit_for_bit():
    f = make_map("logistic")
    g = power_map(f, 5)
    xs = np.random.default_rng(3).uniform(0, 1, 50)
    manual = xs.copy()
    for _ in range(5):
        manual = f.eval(manual)
    assert np.all(g.eval(xs) == manual)


@pytest.mark.parametrize("name,params", [
    ("logistic", {}), ("cubic", {}), ("perturbed_circle", {"d": 2, "delta": 0.05}),
])
def test_chain_rule_against_finite_differences(name, params):
    f = make_map(name, **params)
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.05, 0.95, 5):
        for n in (3, 7, 20):
            _, lds = orbit_grid(f, [x], n)
            if np.min(lds) <= -10:
                continue
            h = 1e-8
            y0, y1 = x - h, x + h
            for _ in range(n):
                y0, y1 = f.eval(y0), f.eval(y1)
            if f.domain.is_circle:
                diff = ((y1 - y0 + 0.5) % 1.0) - 0.5
            else:
                diff = y1 - y0
            fd = abs(diff) / (2 * h)
            if fd <= 0:
                continue
            assert math.isclose(_chain(lds)[n], math.log(fd),
                                rel_tol=1e-3, abs_tol=1e-4)


def test_expression_map_matches_preset():
    f = make_map("expr", expression="mod1(2*x + 0.1*sin(2*pi*x))",
                 domain=CIRCLE, smoothness_r=3.0,
                 holder_const=0.1 * (2 * math.pi) ** 3)
    g = make_map("perturbed_circle", d=2, delta=0.1)
    xs = np.linspace(0.01, 0.99, 31)
    np.testing.assert_allclose(f.eval(xs), g.eval(xs), atol=1e-12)
    for k in (1, 2, 3):
        np.testing.assert_allclose(f.deriv(k, xs), g.deriv(k, xs),
                                   rtol=1e-10, atol=1e-9)


def _closed_form(f, k, x):
    """The k-th derivative (k >= 1) of a preset in closed form: the oracle
    of the jet pass behind derivs."""
    x = np.asarray(x, dtype=float)
    kind = type(f).__name__
    if kind == "LogisticMap":
        if k == 1:
            return f.a * (1.0 - 2.0 * x)
        if k == 2:
            return np.full_like(x, -2.0 * f.a)
        return np.zeros_like(x)
    if kind == "TentMap":
        return np.where(x < 0.5, f.s, -f.s) if k == 1 else np.zeros_like(x)
    if kind == "LinearCircleMap":
        return np.full_like(x, f.d) if k == 1 else np.zeros_like(x)
    if kind == "PerturbedCircleMap":
        w = 2 * math.pi
        if k == 1:
            return f.d + f.delta * w * np.cos(w * x)
        trig = [np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)]
        return f.delta * w ** k * trig[k % 4](w * x)
    if kind == "CubicMap":
        if k == 1:
            return 1.0 - 3.0 * (x - 1.0 / 3.0) ** 2
        if k == 2:
            return -6.0 * (x - 1.0 / 3.0)
        return np.full_like(x, -6.0)
    if kind == "AffineMap":
        return np.full_like(x, f.c1) if k == 1 else np.zeros_like(x)
    raise AssertionError(kind)


@pytest.mark.parametrize("name,params", [
    ("logistic", {}), ("logistic", {"smoothness_r": 4.0}),
    ("logistic", {"a": 3.6786, "smoothness_r": 4.0}), ("tent", {}),
    ("doubling", {}), ("linear_circle", {"d": 3.0, "c": 0.2}),
    ("perturbed_circle", {}), ("perturbed_circle", {"smoothness_r": 5.0}),
    ("cubic", {}), ("affine", {"c0": 0.1, "c1": 0.8}),
    ("affine", {"c0": 0.31, "c1": 3.0, "domain": "circle"}),
])
def test_derivs_match_closed_forms(name, params):
    # f' is the closed form itself; the jet orders above it match the
    # closed forms in |value| bit for bit (a zero may carry either sign),
    # except the trig recurrence of perturbed_circle, which rounds apart
    f = make_map(name, **params)
    xs = np.concatenate((np.linspace(0.0, 1.0, 4097),
                         np.random.default_rng(6).uniform(0, 1, 2000),
                         [0.25 - 2.0 ** -54, 0.5 - 2.0 ** -53,
                          1.0 - 2.0 ** -53]))
    got = f.derivs(f.r_floor, xs)
    want = np.stack([_closed_form(f, k, xs) for k in range(1, f.r_floor + 1)])
    assert got[0].tobytes() == want[0].tobytes()
    if name == "perturbed_circle":
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-9)
    else:
        assert np.abs(got).tobytes() == np.abs(want).tobytes()


@pytest.mark.parametrize("name,params,p", [
    ("logistic", {}, 1), ("doubling", {}, 3),
    ("expr", {"expression": "4*x*(1-x)"}, 1),
])
def test_negative_derivative_order_rejected(name, params, p):
    g = power_map(make_map(name, **params), p)
    xs = np.array([0.1, 0.7])
    for k in (-1, -g.r_floor, -g.r_floor - 1):
        with pytest.raises(ValueError):
            g.deriv(k, xs)
        with pytest.raises(ValueError):
            g.derivs(k, xs)
    assert g.deriv(0, xs).tobytes() == g.eval(xs).tobytes()


@pytest.mark.parametrize("name,params,p", [
    ("logistic", {"smoothness_r": 4.0}, 1), ("tent", {}, 1),
    ("doubling", {}, 1), ("linear_circle", {"d": 3.0, "c": 0.2}, 1),
    ("perturbed_circle", {"smoothness_r": 5.0}, 1), ("cubic", {}, 1),
    ("affine", {"c0": 0.1, "c1": 0.8}, 1),
    ("logistic", {"smoothness_r": 4.0}, 5), ("perturbed_circle", {}, 3),
    ("expr", {"expression": "4*x*(1-x) + 0.01*sin(pi*x)**3 - "
                            "0.02*exp(x)/(2+cos(x)) + 0.001*log(1+x)*sqrt(x+1)",
              "smoothness_r": 4.0}, 1),
    ("expr", {"expression": "mod1(3*x + 0.05*sin(2*pi*x))",
              "domain": "circle", "smoothness_r": 3.0}, 2),
])
def test_derivs_bit_equal_to_deriv(name, params, p):
    # derivs(K) (f' from _d1: the closed form on a preset, the chain rule
    # on PowerMap, an order-1 jet on ExpressionMap; one jet pass of order
    # K above it) against one deriv call per order
    g = power_map(make_map(name, **params), p)
    xs = np.concatenate((np.random.default_rng(5).uniform(0, 1, 200),
                         [0.0, 0.25, 0.5, 1.0 - 2.0 ** -53]))
    for K in range(1, g.r_floor + 1):
        got, one = g.derivs(K, xs), g.derivs(K, xs[7])   # 0-d points too
        assert got.shape == (K, xs.size) and one.shape == (K,)
        for k in range(1, K + 1):
            assert got[k - 1].tobytes() == g.deriv(k, xs).tobytes(), (K, k)
            assert one[k - 1].tobytes() == g.deriv(k, xs[7]).tobytes()
    with pytest.raises(ValueError):
        g.derivs(g.r_floor + 1, xs)


# sha1 over eval and derivs(r_floor) of g = f and g = f^3 at 2004 points:
# the bits of each call and of folded constants, so that a change to how
# the expression's tree is evaluated must keep them
EXPRESSION_DIGESTS = {
    ("0.5 + 0.4*sin(2*pi*x)", "interval"):
        "794fc6fa0fb04322b69ee7de471055ac91ff655d",
    ("0.5 + 0.5*cos(pi*x)", "interval"):
        "c4ee31d686604dbe20ef1b1350c6728ec492090a",
    ("(exp(x) - 1)/(exp(1) - 1)", "interval"):
        "fff6e26a743676254b59cf78886291a5f97984cf",
    ("log(1 + x)/log(2)", "interval"):
        "b2dc6630c0405dce02e1a5e5aa146970db9f6475",
    ("0.2 + 0.7*sqrt(x)", "interval"):
        "14ba7a79a7f5c93fe1390f585491b5c32eb5396d",
    ("mod1(2*x + 0.1*sin(2*pi*x))", "circle"):
        "d616bed7e5a184d029f7b0257e4d76851d460a25",
    ("x*sqrt(x)", "interval"): "97ed7052726877c14c1721bf3898b40e81e913f9",
    ("+4*(+x)*(1 - x)", "interval"):
        "e9dc2c5f207f0fd872b24e4ad294b2489ad7242b",
    ("(1/3 + 2/3)*x**(1+1) + 2**-3*x*(1 - x)", "interval"):
        "08166eed62987acf58f4d913fbcc6c4530213a1f",
}


@pytest.mark.parametrize("expression,domain", list(EXPRESSION_DIGESTS))
def test_expression_map_bits_are_pinned(expression, domain):
    xs = np.linspace(0.001, 0.999, 2004)
    h = hashlib.sha1()
    with np.errstate(all="ignore"):     # sqrt's jet at 0 in PowerMap's grid
        for p in (1, 3):
            g = power_map(make_map("expr", expression=expression,
                                   domain=domain), p)
            h.update(g.eval(xs).tobytes())
            h.update(g.derivs(g.r_floor, xs).tobytes())
    assert h.hexdigest() == EXPRESSION_DIGESTS[expression, domain]


def test_expression_language_rejects_junk(monkeypatch):
    # the validator refuses each before the compiled tree is evaluated
    def evaluated(self, jet):
        raise AssertionError("junk reached the evaluator")
    monkeypatch.setattr(ExpressionMap, "jet_apply", evaluated)
    for expression in (
            "__import__('os')", "x + y", "x.real", "(x).__class__", "x[0]",
            "(lambda: x)()", "lambda: x", "[x for _ in ()][0]", "x < 1",
            "x if x else 1", "sin(x=x)", "sin(x, y=1)", "sin(x, x)",
            "x + '1.5'", "x + 'a'", "x + b'1'", "x + 1j", "x + True",
            "x + None", "(y := x)"):
        with pytest.raises(ValueError):
            make_map("expr", expression=expression)


@pytest.mark.parametrize("expression,second", [
    ("+x*(1-x)", -2.0), ("x**2.0", 2.0), ("x**(1+1)", 2.0)])
def test_expression_unary_plus_and_float_powers_build(expression, second):
    f = make_map("expr", expression=expression)
    assert f(0.5) == 0.25 and f.deriv(2, 0.5) == second


@pytest.mark.parametrize("expression", [
    "x**1.5", "mod1(x + x**1.5)", "x**-1", "x**x", "0.5 + 0.1*2**x", "3"])
def test_expression_jets_cannot_take_fail_as_the_map_is_built(expression):
    with pytest.raises((TypeError, ValueError)):
        make_map("expr", expression=expression)


def test_expression_sqrt_builds():
    f = make_map("expr", expression="x*sqrt(x)")
    assert f.deriv(1, 0.25) == 0.75


def check_map_invariants(f, samples=256, rng=None):
    """Sampled verification of the SmoothMap1D contract; returns a report."""
    rng = rng or np.random.default_rng(0)
    xs = rng.uniform(0.0, 1.0, samples)
    ys = f.eval(xs)
    top = ys < 1.0 + 1e-12 if f.domain.is_circle else ys <= 1.0 + 1e-12
    in_domain = bool(np.all((ys >= -1e-12) & top))

    h = 1e-6
    interior = xs[(xs > 2 * h) & (xs < 1 - 2 * h)]
    fd = (f._eval_raw(interior + h) - f._eval_raw(interior - h)) / (2 * h)
    d1 = f.deriv(1, interior)
    denom = np.maximum(np.abs(d1), 1.0)
    fd_rel = np.abs(fd - d1) / denom
    fd_ok_frac = float(np.mean(fd_rel < 1e-5))

    k = f.r_floor
    expo = f.smoothness_r - k
    pairs = rng.uniform(0.0, 1.0, (samples, 2))
    dk = np.abs(f.deriv(k, pairs[:, 0]) - f.deriv(k, pairs[:, 1]))
    gap = np.abs(pairs[:, 0] - pairs[:, 1])
    bound = f.holder_const * gap ** expo if expo > 0 else \
        np.full(samples, 2 * f.holder_const if f.holder_const else np.inf)
    if f.holder_const == 0.0 and expo == 0:
        holder_ok = bool(np.all(dk < 1e-9))
    else:
        holder_ok = bool(np.all(dk <= bound + 1e-9))
    return {
        "maps_into_domain": in_domain,
        "fd_match_fraction": fd_ok_frac,
        "holder_ok": holder_ok,
    }


def test_map_invariants_report():
    rep = check_map_invariants(make_map("logistic"))
    assert rep["maps_into_domain"]
    assert rep["fd_match_fraction"] > 0.95
    assert rep["holder_ok"]


def test_unresolved_critical_error_exists():
    # a wild oscillation packs sign changes below any fixed grid
    f = make_map("expr", expression="0.5 + 0.001*sin(500*pi*x)*x*(1-x)",
                 smoothness_r=2.0, holder_const=5e3)
    with pytest.raises(UnresolvedCritical):
        critical_set(f, grid_size=128)


# SortedTable tables: general entries with duplicates and bucket edges
# j/K, every entry in one bucket, or a single entry
_entry = st.one_of(
    st.floats(-0.5, 1.5), st.integers(0, BUCKETS).map(lambda j: j / BUCKETS),
    st.sampled_from([0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), -np.inf,
                     np.inf, 2.0 ** -1074]))
_general = st.lists(_entry, min_size=1, max_size=40).flatmap(
    lambda xs: st.integers(0, len(xs)).map(lambda d: xs + xs[:d]))
_one_bucket = st.tuples(
    st.integers(0, BUCKETS - 1),
    st.lists(st.integers(0, 2 ** 20 - 1), min_size=1, max_size=300)).map(
    lambda t: [t[0] / BUCKETS + k * 2.0 ** -33 for k in t[1]])


@settings(max_examples=300, deadline=None)
@given(table=st.one_of(_general, _one_bucket, _entry.map(lambda v: [v])),
       extra=st.lists(st.floats(allow_nan=False), max_size=20))
def test_sorted_table_matches_searchsorted(table, extra):
    c = np.sort(np.array(table, dtype=float))
    near = c[np.isfinite(c)]
    x = np.concatenate([
        c, np.nextafter(near, -np.inf), np.nextafter(near, np.inf),
        np.floor(near * BUCKETS) / BUCKETS, extra,
        [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), -1e-300, -0.5, 1.5, 7.0,
         np.inf, -np.inf]])
    table = SortedTable(c)
    assert table.start.nbytes <= 128 * 1024
    # never more steps than a binary search over the whole table
    assert table.steps <= c.size.bit_length()
    # |x| beyond about 2^1010 overflows x * BUCKETS to +-inf (numpy warns),
    # which clamps into an end bucket like any x outside [0, 1)
    with np.errstate(over="ignore"):
        for side in ("left", "right"):
            got = table.search(x, side)
            assert np.array_equal(got, np.searchsorted(c, x, side)), side
            assert np.array_equal(
                table.search(np.stack([x, -x]), side),
                np.stack([got, np.searchsorted(c, -x, side)]))
            assert table.search(x[0], side) == got[0]


def test_nearest_distance_non_finite():
    # NaN gives NaN; +-inf give +inf on the interval, -inf on the circle
    x = np.array([np.nan, np.inf, -np.inf, 0.25])
    d = UNIT_INTERVAL.nearest_distance(x, [0.5, 0.0])
    assert np.isnan(d[0]) and d[1:].tolist() == [np.inf, np.inf, 0.25]
    d = CIRCLE.nearest_distance(x, [0.5, 0.0])
    assert np.isnan(d[0]) and d[1:].tolist() == [-np.inf, -np.inf, 0.25]
