"""Root finding and bounded minimization on arrays of brackets.

Each lane is scipy.optimize's scalar routine on Python floats (brentq:
its NaN guard and Zeros/brentq.c; the "bounded" minimize_scalar:
_minimize_scalar_bounded), written as a generator that yields each point
it wants evaluated and returns its result.  So each lane returns the
bits scipy 1.17 returns for that bracket alone.  One loop, _run, calls
f(x, lanes) once per step with the points of the lanes still running
and their indices into the input arrays (intp, increasing), sends each
value back to its lane and drops the lanes that have returned.  The
tests check every lane against scipy.

A step costs some microseconds per running lane and no fixed numpy
overhead, so calls of a few lanes are cheap; calls of hundreds of lanes
cost more than a lockstep array iteration would.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["brentq", "minimize_bounded"]

_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100          # brentq steps
_MAXFUN = 500           # minimize_bounded evaluations of f per lane
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _run(f, gens):
    """Each generator's return value, in lane order, calling f once per
    step on the points of the generators still running."""
    out = np.empty(len(gens))
    idx = list(range(len(gens)))
    pts = [next(g) for g in gens]
    lanes = np.arange(len(gens))
    while idx:
        values = np.asarray(f(np.array(pts), lanes), dtype=float).tolist()
        keep, pts = [], []
        for i, fx in zip(idx, values):
            try:
                pts.append(gens[i].send(fx))
                keep.append(i)
            except StopIteration as stop:
                out[i] = stop.value
        if len(keep) < len(idx):
            idx, lanes = keep, np.array(keep, dtype=np.intp)
    return out


def _not_nan(x, fx):
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def _brentq_lane(xpre, xcur, xtol):
    """Zeros/brentq.c on [xpre, xcur] with scipy's NaN guard."""
    fpre = _not_nan(xpre, (yield xpre))
    fcur = _not_nan(xcur, (yield xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # f values are not NaN, and nonzero where signs are compared, so
    # "< 0" is C's signbit
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf         # no short step: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:        # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                   # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass                    # C's step is +-inf or NaN: bisect
        bound = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _not_nan(xcur, (yield xcur))
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, "
                       f"value is {xcur:f}")


def brentq(f, a, b, xtol):
    """Roots of f in the brackets [a[i], b[i]] (f of opposite signs at
    the ends), Brent 1973, one array of roots in lane order.

    Raises ValueError on a NaN value of f or on equal signs at the ends
    of a bracket, RuntimeError when a lane does not converge in 100 steps.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    return _run(f, [_brentq_lane(lo, hi, xtol) for lo, hi in zip(
        np.reshape(a, -1).astype(float).tolist(),
        np.reshape(b, -1).astype(float).tolist())])


def _bounded_lane(a, b, xatol):
    """_minimize_scalar_bounded on [a, b]: the least value of f found.
    Like scipy, it does not check f's values for NaN."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if a > b:
        raise ValueError("The lower bound exceeds the upper bound.")
    # xf the best point so far, nfc the second best, fulc the third
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = fnfc = ffulc = yield xf
    rat = e = 0.0
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:               # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if (abs(p) < abs(0.5 * q * r) and p > q * (a - xf)
                    and p < q * (b - xf)):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = -tol1 if xm - xf < 0 else tol1
        if golden:                      # golden-section step
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf + (-step if rat < 0 else step)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return fx


def minimize_bounded(f, lo, hi, xatol):
    """The least values of f found on [lo[i], hi[i]] by Brent's bounded
    method (golden-section steps, parabolic steps where the fit is
    acceptable), each converged to xatol in x or stopped after 500
    evaluations of f; one array of minima in lane order."""
    return _run(f, [_bounded_lane(a, b, xatol) for a, b in zip(
        np.reshape(lo, -1).astype(float).tolist(),
        np.reshape(hi, -1).astype(float).tolist())])
