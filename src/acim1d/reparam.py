"""Bounded reparametrizations: certificates, epsilon selection, the
splitting layout.

A reparametrization is a map sigma : [-1,1] -> I with nonvanishing
derivative whose image on ]-1,1] avoids the marked point 0 (the circle
injectivity convention).  Here sigma is stored as a polynomial in t;
compositions with iterates of the dynamics are handled through jets, so
every derivative order that the certificates need is exact.

Certificates follow the definitions:
  bounded       max_{s in ]1,r]} ||d^s psi||_inf <= ||psi'||_inf / 6
  eps-bounded   bounded and ||psi'||_inf <= eps
  (n,eps)-bounded for g:  g^k o psi is eps-bounded for k = 0..n
Bounded implies the 3/2 distortion bound, which is what makes these
pieces usable for change-of-variable estimates.

The splitting construction is the reparametrization tree's (tree.py):
it tiles each expanding label run with the affine pieces laid out by
cover_centers, whose expanding pieces cover through their middle thirds
and whose two plain end caps count with their full images; the tree
certifies the pieces (verify_tree items 1-4).  There is no standalone
splitting function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jets import Jet, jet_of_polynomial
from .maps import estimate_norms

__all__ = [
    "Reparametrization", "BoundednessCertificate", "affine_reparam",
    "check_bounded", "choose_epsilon", "taylor_window_check", "cover_centers",
]


@dataclass
class Reparametrization:
    """sigma: a polynomial curve [-1,1] -> I, by its ascending
    coefficients."""

    base_coeffs: np.ndarray

    def __post_init__(self):
        self.base_coeffs = np.asarray(self.base_coeffs, dtype=float)

    def poly(self):
        """Coefficients of sigma (ascending)."""
        return np.atleast_1d(self.base_coeffs)

    def point(self, t, domain=None):
        v = np.polynomial.polynomial.polyval(np.asarray(t, dtype=float),
                                             self.poly())
        return domain.reduce(v) if domain is not None else v


def affine_reparam(center, slope):
    """sigma(t) = center + slope * t."""
    return Reparametrization(np.array([center, slope]))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class BoundednessCertificate:
    sup_first_deriv: float
    sup_higher: dict            # {2: .., ..., 'r': ..} entries over ]1, r]
    eps: float
    is_bounded: bool
    is_eps_bounded: bool
    n_eps_bounded_up_to: int = 0
    min_first_deriv: float = float("nan")
    min_marked_distance: float = float("nan")
    per_k: list = field(default_factory=list)

    @property
    def distortion(self):
        return self.sup_first_deriv / self.min_first_deriv


_HOLDER_STRIDES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
GRID = 1001    # certificate grid size on [-1, 1]


def _cert_from_jet(jet, ts, r, eps, domain=None):
    K = jet.order
    d1 = np.abs(jet.deriv(1))
    sup1 = float(np.max(d1))
    min1 = float(np.min(d1))
    sup_higher = {}
    for s in range(2, K + 1):
        sup_higher[s] = float(np.max(np.abs(jet.deriv(s))))
    if r > K:  # fractional part: Hoelder quotient of d^K over dyadic strides
        dK = jet.deriv(K) if K >= 1 else jet.c[0]
        expo = r - K
        best = 0.0
        for stride in _HOLDER_STRIDES:
            if stride >= ts.shape[0]:
                break
            num = np.abs(dK[stride:] - dK[:-stride])
            den = np.abs(ts[stride:] - ts[:-stride]) ** expo
            best = max(best, float(np.max(num / den)))
        sup_higher["r"] = best
    worst_higher = max(sup_higher.values()) if sup_higher else 0.0
    is_bounded = worst_higher <= sup1 / 6.0 + 1e-15
    vals = jet.c[0]
    if domain is not None and domain.is_circle:
        v = vals % 1.0
        dist = np.minimum(v, 1.0 - v)
    else:
        dist = np.abs(vals)
    # exclude t = -1 (the definition allows sigma(-1) = 0)
    min_marked = float(np.min(dist[1:])) if dist.shape[0] > 1 else float(dist[0])
    return BoundednessCertificate(
        sup_first_deriv=sup1,
        sup_higher=sup_higher,
        eps=eps,
        is_bounded=is_bounded,
        is_eps_bounded=is_bounded and sup1 <= eps * (1 + 1e-12),
        min_first_deriv=min1,
        min_marked_distance=min_marked,
    )


def check_bounded(sig, target_map=None, eps=np.inf, n=0, grid=GRID):
    """Certificate for sigma and its compositions g^k o sigma, k <= n.

    Sups are taken over a grid of [-1,1] with derivatives from jets; the
    fractional order r entry is a Hoelder quotient over dyadic-stride
    point pairs.  n_eps_bounded_up_to is the largest k such that every
    composition up to k is eps-bounded (-1 if sigma itself fails).
    """
    r = target_map.smoothness_r if target_map is not None else 2.0
    order = max(2, int(math.floor(r)))
    ts = np.linspace(-1.0, 1.0, grid)
    domain = target_map.domain if target_map is not None else None

    jet = jet_of_polynomial(sig.poly(), ts, order)
    certs = []
    for k in range(n + 1):
        if k > 0:
            jet = target_map.jet_apply(jet)
        certs.append(_cert_from_jet(jet, ts, r, eps, domain))
    top = certs[0]
    up_to = -1
    for k, c in enumerate(certs):
        if c.is_eps_bounded:
            up_to = k
        else:
            break
    top.n_eps_bounded_up_to = up_to
    top.per_k = certs
    return top


# ---------------------------------------------------------------------------
# epsilon selection
# ---------------------------------------------------------------------------


def choose_epsilon(g, norms=None):
    """Largest dyadic eps with (2 eps)^(r'-1) < 1 / (2 ||g'||_{r-1}).

    r' = min(2, r).  The norm ||g'||_{r-1} comes from measured grid
    estimates (for integer r the order-r entry is the measured
    sup|d^floor(r) g|, not a propagated Hoelder bound).
    """
    norms = norms or estimate_norms(g)
    sups = dict(norms.sup_abs_deriv)
    if float(g.smoothness_r).is_integer():
        sups["r"] = sups[g.r_floor]
    N = max(sups.values())
    rp = min(2.0, g.smoothness_r)
    if N <= 0:
        return 0.25
    # (2 eps)^(rp-1) < 1/(2N)  <=>  eps < (1/2) (2N)^(-1/(rp-1))
    bound = 0.5 * (2.0 * N) ** (-1.0 / (rp - 1.0))
    e = 2.0 ** math.floor(math.log2(bound))
    while not (2 * e) ** (rp - 1.0) < 1.0 / (2.0 * N):
        e /= 2.0
    return min(e, 0.25)


def taylor_window_check(g, eps, samples=64):
    """Sampled check of ||d^s(g^x_{2eps})||_inf <= 3 eps max(1, |g'(x)|).

    g^x_{2eps}(t) = g(x + 2 eps t); this is the Taylor-window bound that
    the epsilon inequality buys, and the reason pieces of that size can
    be re-bounded after one application of g.  A window that is not
    strictly increasing in float (eps below the resolution at x) measures
    nothing: then worst_margin is NaN and the check fails.
    """
    xs = np.random.default_rng(0).uniform(0.0, 1.0, samples)
    ts = np.linspace(-1.0, 1.0, 65)
    order = max(2, g.r_floor)
    # every window's jet at once: row i is x_i + 2 eps t on the ts grid
    c = np.zeros((order + 1, samples, ts.size))
    c[0] = xs[:, None] + 2.0 * eps * ts
    c[1] = 2.0 * eps
    jet = g.jet_apply(Jet(c))
    rhs = 3.0 * eps * np.fmax(1.0, np.abs(g.deriv(1, xs)))
    margins = [rhs - np.max(np.abs(jet.deriv(s)), axis=1)
               for s in range(1, order + 1)]
    worst = float(np.min(margins))     # NaN if any margin is NaN
    if not np.all(np.diff(c[0], axis=1) > 0):
        worst = float("nan")
    return {"worst_margin": worst, "ok": worst >= -1e-12, "samples": samples}


# ---------------------------------------------------------------------------
# the splitting construction
# ---------------------------------------------------------------------------


def cover_centers(u0, u1, rho):
    """Centers of the radius-rho pieces of the splitting layout on [u0, u1].

    Returns (expanding, plain): expanding centers, an array, step by
    2 rho / 3 from u0 + rho to u1 - rho, so their middle thirds cover
    [u0 + 2 rho / 3, u1 - 2 rho / 3]; the two plain end caps, a list, sit
    at u0 + rho and u1 - rho.
    """
    c, step, stop = u0 + rho, 2.0 * rho / 3.0, u1 - rho - 1e-15
    if not c < stop:
        return np.array([u1 - rho]), [u0 + rho, u1 - rho]
    if not rho > 0:
        raise ValueError(f"rho = {rho} lays no centres on [{u0}, {u1}]")
    size = int((stop - c) / step) + 3
    while True:     # add.accumulate adds in order: the floats of c += step
        cs = np.cumsum(np.r_[c, np.full(size, step)])
        cut = np.searchsorted(cs, stop)     # the first centre not < stop
        if cut <= size:
            return np.r_[cs[:cut], u1 - rho], [u0 + rho, u1 - rho]
        if cs[-1] == cs[-2]:    # c + step rounds to c: the loop never ends
            raise ValueError(f"rho = {rho} is below the float step at {c}")
        size *= 2
