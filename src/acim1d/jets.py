"""Truncated Taylor-series (jet) arithmetic for high-order derivative oracles.

A jet of order K at a point x stores the Taylor coefficients
c[j] = f^(j)(x) / j! for j = 0..K.  Propagating a jet through the
elementary operations below yields the exact derivatives of arbitrary
compositions (up to float rounding), which is what the boundedness
certificates need: numerical differentiation is useless at order 3+.

Coefficients live in a numpy array of shape (K+1,) or (K+1, N), so a
single jet pass evaluates derivatives at N sample points at once.  The
recurrences for sin/cos/exp/log are the classical ones obtained by
differentiating the defining ODEs term by term.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Jet", "variable", "constant", "jet_of_polynomial", "FACTORIALS"]

FACTORIALS = np.array([float(math.factorial(k)) for k in range(21)])


class Jet:
    """Order-K truncated Taylor expansion supporting numpy-style arithmetic."""

    __slots__ = ("c",)
    __array_priority__ = 100  # keep numpy from absorbing us in mixed ops

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)

    @property
    def order(self):
        return self.c.shape[0] - 1

    @property
    def value(self):
        return self.c[0]

    def deriv(self, k):
        """k-th derivative values, i.e. k! * c[k]."""
        return self.c[k] * FACTORIALS[k]

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c + other.c)
        c = self.c.copy()
        c[0] = c[0] + other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * other)
        K = self.order
        a, b = self.c, other.c
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        for j in range(K + 1):      # out[k] sums a[j] b[k-j] in order of j
            out[j:] += a[j] * b[:K + 1 - j]
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c / other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not (isinstance(n, (int, np.integer)) and n >= 0):
            raise ValueError("jet powers must be nonnegative integers")
        result = constant(1.0, self.order, self.c.shape[1:])
        base = self
        n = int(n)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def reciprocal(self):
        K = self.order
        u = self.c
        out = np.zeros_like(u)
        out[0] = 1.0 / u[0]
        for k in range(1, K + 1):
            acc = np.zeros_like(u[0])
            for j in range(1, k + 1):
                acc = acc + u[j] * out[k - j]
            out[k] = -acc / u[0]
        return Jet(out)

    # -- elementary transcendentals ---------------------------------------

    def exp(self):
        K = self.order
        u = self.c
        out = np.zeros_like(u)
        out[0] = np.exp(u[0])
        for k in range(1, K + 1):
            acc = np.zeros_like(u[0])
            for j in range(1, k + 1):
                acc = acc + j * u[j] * out[k - j]
            out[k] = acc / k
        return Jet(out)

    def log(self):
        K = self.order
        u = self.c
        out = np.zeros_like(u)
        out[0] = np.log(u[0])
        for k in range(1, K + 1):
            acc = np.zeros_like(u[0])
            for j in range(1, k):
                acc = acc + j * out[j] * u[k - j]
            out[k] = (u[k] - acc / k) / u[0]
        return Jet(out)

    def sqrt(self):
        K = self.order
        u = self.c
        out = np.zeros_like(u)
        out[0] = np.sqrt(u[0])
        # out*out = u, solved coefficient by coefficient
        for k in range(1, K + 1):
            acc = np.zeros_like(u[0])
            for j in range(1, k):
                acc = acc + out[j] * out[k - j]
            out[k] = (u[k] - acc) / (2.0 * out[0])
        return Jet(out)

    def _sincos(self):
        K = self.order
        u = self.c
        s = np.zeros_like(u)
        c = np.zeros_like(u)
        s[0] = np.sin(u[0])
        c[0] = np.cos(u[0])
        for k in range(1, K + 1):
            sa = np.zeros_like(u[0])
            ca = np.zeros_like(u[0])
            for j in range(1, k + 1):
                sa = sa + j * u[j] * c[k - j]
                ca = ca + j * u[j] * s[k - j]
            s[k] = sa / k
            c[k] = -ca / k
        return Jet(s), Jet(c)

    def sin(self):
        return self._sincos()[0]

    def cos(self):
        return self._sincos()[1]

    def mod1(self):
        """Reduce the value to [0, 1); derivatives are untouched."""
        c = self.c.copy()
        c[0] = c[0] - np.floor(c[0])
        return Jet(c)


def variable(x, order):
    """Jet of the identity function at x (seed for derivative extraction)."""
    x = np.asarray(x, dtype=float)
    c = np.zeros((order + 1,) + x.shape)
    c[0] = x
    if order >= 1:
        c[1] = 1.0
    return Jet(c)


def constant(value, order, shape=()):
    c = np.zeros((order + 1,) + tuple(shape))
    c[0] = value
    return Jet(c)


def jet_of_polynomial(coeffs, t, order):
    """Jet of sum_i coeffs[i] * t**i at points t (coeffs ascending).

    Polynomial Taylor coefficients are exact, so this avoids the generic
    Horner-with-jets pass when seeding reparametrization compositions.
    """
    t = np.asarray(t, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros((order + 1,) + t.shape)
    d = coeffs
    fact = 1.0
    for j in range(order + 1):
        if d.size:
            out[j] = np.polynomial.polynomial.polyval(t, d) / fact
        d = d[1:] * np.arange(1, d.size) if d.size > 1 else np.zeros(0)
        fact *= j + 1
    return Jet(out)
