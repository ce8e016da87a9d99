"""Root finding and bounded minimization on arrays of brackets, in lockstep.

Each lane of a call runs the float steps of scipy.optimize's scalar
routine (brentq: its NaN guard and Zeros/brentq.c; the "bounded"
minimize_scalar: _minimize_scalar_bounded), so each lane returns the
bits scipy 1.17 returns for that bracket alone.  f(x, lanes) is called
once per iteration with the points of the lanes still running and their
indices into the input arrays; a lane stops when it converges.  The
tests check every lane against scipy.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["brentq", "minimize_bounded"]

_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100          # brentq steps
_MAXFUN = 500           # minimize_bounded evaluations of f per lane
_SQRT_EPS = np.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))


def _values(f, x, lanes):
    fx = np.asarray(f(x, lanes), dtype=float)
    if np.isnan(fx).any():
        bad = x[np.isnan(fx)][0]
        raise ValueError(f"The function value at x={bad} is NaN; "
                         "solver cannot continue.")
    return fx


def brentq(f, a, b, xtol):
    """Roots of f in the brackets [a[i], b[i]] (f of opposite signs at
    the ends), Brent 1973, one array of roots in lane order.

    Raises ValueError on a NaN value of f or on equal signs at the ends
    of a bracket, RuntimeError when a lane does not converge in 100 steps.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre = np.array(a, dtype=float).reshape(-1)
    xcur = np.array(b, dtype=float).reshape(-1)
    out = np.empty_like(xcur)
    if not out.size:
        return out
    lanes = np.arange(xcur.size)
    fpre = _values(f, xpre, lanes)
    fcur = _values(f, xcur, lanes)
    out[fcur == 0] = xcur[fcur == 0]
    out[fpre == 0] = xpre[fpre == 0]
    run = (fpre != 0) & (fcur != 0)
    # below, f values are not NaN, and nonzero where signs are compared,
    # so "< 0" is C's signbit
    if ((fpre[run] < 0) == (fcur[run] < 0)).any():
        raise ValueError("f(a) and f(b) must have different signs")
    if not run.any():
        return out
    lanes, xpre, xcur, fpre, fcur = (v[run] for v in
                                     (lanes, xpre, xcur, fpre, fcur))
    xblk, fblk, spre, scur = (np.zeros_like(xcur) for _ in range(4))
    for _ in range(_MAXITER):
        # numpy's errstate slows the scalar arithmetic of many f: it
        # covers the solver's own steps only
        with np.errstate(all="ignore"):
            flip = (fpre != 0) & (fcur != 0) & ((fpre < 0) != (fcur < 0))
            xblk = np.where(flip, xpre, xblk)
            fblk = np.where(flip, fpre, fblk)
            spre = np.where(flip, xcur - xpre, spre)
            scur = np.where(flip, xcur - xpre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre),
                                np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre),
                                np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))
            delta = (xtol + _RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta)
            if done.any():
                out[lanes[done]] = xcur[done]
                keep = ~done
                lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, \
                    delta, sbis = (v[keep] for v in (
                        lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre,
                        scur, delta, sbis))
                if not lanes.size:
                    return out
            # interpolate where xpre == xblk, else extrapolate; where
            # Python divides by zero, C's step is +-inf or NaN: bisect
            dx = xcur - xpre
            df = fcur - fpre
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            den = dblk * dpre * (fblk - fpre)
            interp = xpre == xblk
            stry = np.where(interp, -fcur * dx / df,
                            -fcur * (fblk * dblk - fpre * dpre) / den)
            zero = np.where(interp, df == 0,
                            (dx == 0) | (xblk - xcur == 0) | (den == 0))
            bound = 3 * np.abs(sbis) - delta
            aspre = np.abs(spre)
            good = ((aspre > delta) & (np.abs(fcur) < np.abs(fpre)) & ~zero
                    & (2 * np.abs(stry) < np.where(aspre < bound, aspre,
                                                   bound)))
            spre = np.where(good, scur, sbis)
            scur = np.where(good, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur,
                                   np.where(sbis > 0, delta, -delta))
        fcur = _values(f, xcur, lanes)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, "
                       f"value is {xcur[0]:f}")


def minimize_bounded(f, lo, hi, xatol):
    """The least values of f found on [lo[i], hi[i]] by Brent's bounded
    method (golden-section steps, parabolic steps where the fit is
    acceptable), each converged to xatol in x or stopped after 500
    evaluations of f; one array of minima in lane order."""
    a = np.array(lo, dtype=float).reshape(-1)
    b = np.array(hi, dtype=float).reshape(-1)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("Optimization bounds must be finite scalars.")
    if (a > b).any():
        raise ValueError("The lower bound exceeds the upper bound.")
    if not a.size:
        return a
    # each point is a column (x, f(x)): P the best so far, N the second
    # best, U the third, X the newest
    lanes = np.arange(a.size)
    X = np.empty((2, a.size))
    X[0] = a + _GOLDEN * (b - a)
    X[1] = f(X[0], lanes)
    P = N = U = X
    rat = e = np.zeros_like(a)
    out = np.empty_like(a)
    tol3 = xatol / 3.0
    num = 1
    while True:
        with np.errstate(all="ignore"):
            if num > 1:
                # f(x) <= f(xf): x becomes the best point and xf an end
                # of [a, b]; else x becomes an end, and maybe the second
                # or the third point
                (xf, fx), (x, fu) = P, X
                le = fu <= fx
                at_a = np.where(le, x >= xf, x < xf)
                end = np.where(le, xf, x)
                a = np.where(at_a, end, a)
                b = np.where(at_a, b, end)
                second = le | (fu <= N[1]) | (N[0] == xf)
                third = (fu <= U[1]) | (U[0] == xf) | (U[0] == N[0])
                U = np.where(second, N, np.where(third, X, U))
                N = np.where(le, P, np.where(second, X, N))
                P = np.where(le, X, P)
            xf = P[0]
            xm = 0.5 * (a + b)
            tol1 = _SQRT_EPS * np.abs(xf) + tol3
            tol2 = 2.0 * tol1
            go = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
            if num >= _MAXFUN:
                go[:] = False
            if np.count_nonzero(go) < go.size:
                out[lanes[~go]] = P[1, ~go]
                if not go.any():
                    return out
                lanes, a, b, rat, e, xm, tol1, tol2 = (v[go] for v in (
                    lanes, a, b, rat, e, xm, tol1, tol2))
                P, N, U = P[:, go], N[:, go], U[:, go]
                xf = P[0]
            # golden-section steps, or parabolic ones where |e| > tol1
            # and the fit is acceptable
            to_a, to_b = a - xf, b - xf
            eg = np.where(xf >= xm, to_a, to_b)
            fit = np.abs(e) > tol1
            if np.count_nonzero(fit):
                dn, du = P - N, P - U
                r = dn[0] * du[1]
                q = du[0] * dn[1]
                p = du[0] * q - dn[0] * r
                q = 2.0 * (q - r)
                p = np.where(q > 0.0, -p, p)
                q = np.abs(q)
                fit &= ((np.abs(p) < np.abs(0.5 * q * e)) & (p > q * to_a)
                        & (p < q * to_b))
                step = (p + 0.0) / q
                x = xf + step
                d = xm - xf
                step = np.where(((x - a) < tol2) | ((b - x) < tol2),
                                tol1 * (np.sign(d) + (d == 0)), step)
                e = np.where(fit, rat, eg)
                rat = np.where(fit, step, _GOLDEN * eg)
            else:
                e, rat = eg, _GOLDEN * eg
            X = np.empty((2, xf.size))
            np.add(xf, (np.sign(rat) + (rat == 0))
                   * np.maximum(np.abs(rat), tol1), out=X[0])
        X[1] = f(X[0], lanes)
        num += 1
