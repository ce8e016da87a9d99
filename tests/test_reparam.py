"""Boundedness certificates, epsilon selection, distortion, piece layout."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from acim1d import cli
from acim1d.jets import Jet, jet_of_polynomial
from acim1d.maps import make_map, power_map
from acim1d.reparam import (
    Reparametrization, affine_reparam, check_bounded, choose_epsilon,
    cover_centers, taylor_window_check,
)

EPS = 1.0 / 16.0


def test_affine_eps_bounded():
    sig = affine_reparam(0.4, EPS / 2.0)
    cert = check_bounded(sig, eps=EPS)
    assert cert.is_bounded and cert.is_eps_bounded
    assert math.isclose(cert.sup_first_deriv, EPS / 2.0, rel_tol=1e-12)
    assert not cert.sup_higher or max(cert.sup_higher.values()) == 0.0


def test_affine_bounded_not_eps_bounded():
    sig = affine_reparam(0.4, 2.0 * EPS)
    cert = check_bounded(sig, eps=EPS)
    assert cert.is_bounded and not cert.is_eps_bounded


def test_quadratic_unbounded():
    # sigma(t) = c + eps t + eps t^2: sup|sigma''| = 2 eps, sup|sigma'| <= 3 eps,
    # and 2 eps > 3 eps / 6, so the boundedness inequality fails.
    sig = Reparametrization(np.array([0.5, EPS, EPS]))
    cert = check_bounded(sig, eps=EPS)
    assert math.isclose(cert.sup_higher[2], 2.0 * EPS, rel_tol=1e-12)
    assert math.isclose(cert.sup_first_deriv, 3.0 * EPS, rel_tol=1e-10)
    assert not cert.is_bounded


def test_distortion_affine_is_one():
    assert math.isclose(check_bounded(affine_reparam(0.3, 0.01)).distortion,
                        1.0, rel_tol=1e-12)


def test_distortion_quadratic_exact():
    # sigma(t) = c + eps t + (eps/12) t^2: sigma' in [eps - eps/6, eps + eps/6],
    # ratio = (7/6)/(5/6) = 7/5 <= 3/2
    sig = Reparametrization(np.array([0.5, EPS, EPS / 12.0]))
    cert = check_bounded(sig, eps=EPS)
    assert cert.is_bounded
    ratio = cert.distortion
    assert math.isclose(ratio, 7.0 / 5.0, rel_tol=1e-9)
    assert ratio <= 1.5 + 1e-9


def test_choose_epsilon_norm_two():
    # (2 eps)^1 < 1/4 means eps < 1/8; largest dyadic with strict inequality
    # is 1/16 = 0.0625
    g = make_map("doubling")
    eps = choose_epsilon(g)
    assert eps == 2.0 ** -4


def test_choose_epsilon_affine_slope_one():
    from acim1d.maps import CIRCLE

    g = make_map("affine", c0=0.3, c1=1.0, domain=CIRCLE)
    eps = choose_epsilon(g)
    # ||g'||_{r-1} = 1 gives eps < 1/4; the 0.25 ceiling keeps it dyadic
    assert eps <= 0.25
    assert (2 * eps) < 1.0 / 2.0


def test_taylor_window_bound():
    g = make_map("doubling")
    rep = taylor_window_check(g, choose_epsilon(g))
    assert rep["ok"]
    g2 = make_map("logistic")
    eps2 = choose_epsilon(g2)
    rep2 = taylor_window_check(g2, eps2)
    assert rep2["ok"]
    # a window whose derivatives could not be evaluated fails; eps comes
    # first, as NaN jets would leave choose_epsilon's norms undefined
    g2.jet_apply = lambda jet: Jet(jet.c * np.nan)
    rep3 = taylor_window_check(g2, eps2)
    assert math.isnan(rep3["worst_margin"]) and not rep3["ok"]


def test_taylor_window_fails_on_collapsed_windows():
    # non-integer r: choose_epsilon's eps (~4e-31) lies below the float
    # resolution near x, so every window x + 2 eps t is the point x
    g = power_map(make_map("perturbed_circle", smoothness_r=4.5), 2)
    eps = choose_epsilon(g)
    assert eps < 1e-30
    rep = taylor_window_check(g, eps)
    assert math.isnan(rep["worst_margin"]) and not rep["ok"]
    assert cli._row("taylor_window", "", rep["worst_margin"], 0.0,
                    rep["worst_margin"], rep["ok"])[-1] == 0
    # the same map at integer r gets a window the check can measure
    g4 = power_map(make_map("perturbed_circle", smoothness_r=4.0), 2)
    assert taylor_window_check(g4, choose_epsilon(g4))["ok"]


def _taylor_window_per_sample(g, eps, samples=64):
    """taylor_window_check's worst margin with one jet pass per sample
    window: the oracle of the batched pass."""
    xs = np.random.default_rng(0).uniform(0.0, 1.0, samples)
    margins = []
    ts = np.linspace(-1.0, 1.0, 65)
    order = max(2, g.r_floor)
    for x in xs:
        window = Reparametrization(np.array([x, 2.0 * eps]))
        jet = g.jet_apply(jet_of_polynomial(window.poly(), ts, order))
        rhs = 3.0 * eps * max(1.0, abs(float(g.deriv(1, x))))
        for s in range(1, order + 1):
            margins.append(rhs - float(np.max(np.abs(jet.deriv(s)))))
    return float(np.min(margins))


@pytest.mark.parametrize("g", [
    power_map(make_map("doubling"), 4),
    power_map(make_map("logistic", smoothness_r=4.0), 6),
    power_map(make_map("perturbed_circle", smoothness_r=4.0), 2)],
    ids=lambda g: g.name)
def test_taylor_window_batched_equals_per_sample(g):
    for eps in (choose_epsilon(g), choose_epsilon(g) / 4.0):
        assert taylor_window_check(g, eps)["worst_margin"] == \
            _taylor_window_per_sample(g, eps)


@given(st.floats(-10.0, 10.0), st.floats(1e-6, 10.0),
       st.floats(1e-3, 0.5, exclude_max=True))
@settings(max_examples=300)
def test_cover_centers_layout(u0, width, frac):
    u1 = u0 + width
    rho = frac * (u1 - u0)
    assume(0.0 < rho < (u1 - u0) / 2.0)
    exp_c, plain_c = cover_centers(u0, u1, rho)
    tol = 1e-12  # absolute tolerance of the covering checks
    assert len(plain_c) == 2
    assert len(exp_c) <= 3.0 * (u1 - u0) / (2.0 * rho) + 1.0
    for c in [*exp_c, *plain_c]:
        assert u0 - tol <= c - rho and c + rho <= u1 + tol
    # plain pieces count with full images, expanding ones with middle thirds
    spans = sorted([(c - rho, c + rho) for c in plain_c] +
                   [(c - rho / 3.0, c + rho / 3.0) for c in exp_c])
    reach = u0
    for lo, hi in spans:
        assert lo <= reach + tol, (lo, reach)
        reach = max(reach, hi)
    assert reach >= u1 - tol


def _cover_centers_loop(u0, u1, rho):
    """cover_centers' expanding centres as the per-centre loop: the oracle."""
    expanding = []
    c = u0 + rho
    last = u1 - rho
    step = 2.0 * rho / 3.0
    while c < last - 1e-15:
        expanding.append(c)
        c += step
    expanding.append(last)
    return expanding


def _bits(xs):
    return np.asarray(xs, dtype=float).view(np.int64).tolist()


@given(st.floats(-1e3, 1e3), st.floats(0.0, 1e3),
       st.floats(1e-4, 0.6), st.sampled_from([1.0, 1e-3, 1e-6]))
@settings(max_examples=300)
def test_cover_centers_matches_loop(u0, width, frac, scale):
    # widths down to 0 put c >= last - 1e-15 from the start
    width *= scale
    rho = frac * width if width > 0.0 else frac * scale
    # where c + step rounds to c the loop never ends
    assume(2.0 * rho / 3.0 > math.ulp(abs(u0) + width))
    got, plain = cover_centers(u0, u0 + width, rho)
    assert _bits(got) == _bits(_cover_centers_loop(u0, u0 + width, rho))
    assert plain == [u0 + rho, u0 + width - rho]


@given(st.floats(), st.floats(), st.floats())
def test_cover_centers_matches_loop_where_it_stops_at_once(u0, u1, rho):
    # NaN, infinite or reversed ends: the loop lays no centre before last
    assume(not (u0 + rho < u1 - rho - 1e-15))
    got, _ = cover_centers(u0, u1, rho)
    assert _bits(got) == _bits(_cover_centers_loop(u0, u1, rho))


@pytest.mark.parametrize("u0, u1, rho", [
    (0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (1e3, 1e3 + 1e-9, 1e-14)])
def test_cover_centers_rejects_what_the_loop_never_ends_on(u0, u1, rho):
    with pytest.raises(ValueError):
        cover_centers(u0, u1, rho)


@pytest.mark.parametrize("u0, u1, rho", [
    (1.0 - 3e-5, 1.0, 3e-10),       # 1.5e5 centres
    (1e6, 1e6 + 2e-6, 3e-9),        # each c += step rounds 1% short, so
])                                  # the count from the width falls short
def test_cover_centers_long_layouts(u0, u1, rho):
    got, _ = cover_centers(u0, u1, rho)
    assert _bits(got) == _bits(_cover_centers_loop(u0, u1, rho))


def test_composition_certificates_through_map():
    # an eps-bounded affine seed stays bounded through one application of
    # the doubling map (derivative doubles, higher orders stay zero)
    g = make_map("doubling")
    eps = choose_epsilon(g)
    sig = affine_reparam(0.37, eps / 4.0)
    cert = check_bounded(sig, g, eps, n=2)
    assert cert.per_k[0].is_eps_bounded
    assert math.isclose(cert.per_k[1].sup_first_deriv, eps / 2.0, rel_tol=1e-10)
    assert cert.n_eps_bounded_up_to == 2
    assert math.isclose(cert.per_k[2].sup_first_deriv, eps, rel_tol=1e-10)


def test_marked_point_distance_recorded():
    g = make_map("doubling")
    sig = affine_reparam(0.37, 0.01)
    cert = check_bounded(sig, g, 0.0625, n=0)
    assert cert.min_marked_distance > 0.3


def test_logistic_power_window_bounded():
    # pieces of size ~eps stay bounded through one application of g
    g = power_map(make_map("logistic"), 2)
    eps = choose_epsilon(g)
    sig = affine_reparam(0.3, eps / 2.0)
    cert = check_bounded(sig, g, eps, n=1)
    assert cert.per_k[0].is_eps_bounded
    assert cert.per_k[1].is_bounded
