"""Smooth interval/circle maps with derivative oracles, norms, and orbits.

Conventions:
  - the phase space is [0,1] (UnitInterval) or R/Z (Circle); circle points
    are stored canonically in [0,1) via x - floor(x),
  - a map carries a smoothness parameter r > 1; derivatives up to
    floor(r) come from closed forms or jet propagation, and the Hoelder
    constant of the floor(r)-th derivative (exponent r - floor(r)) is the
    "order r" norm entry,
  - log|f'| values below LOG_FLOOR are recorded as -inf so that critical
    orbits carry an unambiguous sentinel instead of an IEEE underflow.

Derivative oracles for the preset families (logistic, tent, doubling and
integer-slope circle maps, perturbed circle endomorphisms, the cubic
interval map, affine maps) are closed form.  User-defined maps go through
a small arithmetic expression language evaluated with order-floor(r)
jets, so their high-order derivatives are exact too.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedNorm, UnresolvedCritical
from .jets import Jet, variable
from .solvers import brentq, minimize_bounded

LOG_FLOOR = -700.0  # log-derivative floor: |f'| below e^-700 counts as 0
FAA_DI_BRUNO_CONST = 2.0  # A in the Hoelder-norm bound of PowerMap
FLAT_TOL = 1e-9  # critical_set: |f'| below this on a grid point counts as 0

__all__ = [
    "Domain", "UNIT_INTERVAL", "CIRCLE", "SmoothMap1D", "MapNorms",
    "orbit_grid", "lyapunov_ft", "estimate_norms",
    "critical_set", "power_map", "make_map", "PRESETS", "LOG_FLOOR",
]


@dataclass(frozen=True)
class Domain:
    """Phase space: the unit interval or the circle R/Z."""

    kind: str  # "UnitInterval" | "Circle"

    @property
    def is_circle(self):
        return self.kind == "Circle"

    def reduce(self, x):
        """Canonical representative: identity on [0,1], x - floor(x) on R/Z."""
        x = np.asarray(x, dtype=float)
        if self.is_circle:
            return x - np.floor(x)
        return x

    def nearest_distance(self, x, pts):
        """min over c in pts (non-empty) of |x - c|, on the circle of
        min(|x - c|, 1 - |x - c|).  Rounding is monotone, so the sorted
        neighbours of x (and the extremes of pts, for the wrap) give it."""
        x = np.asarray(x, dtype=float)
        c = np.sort(np.asarray(pts, dtype=float))
        j = np.searchsorted(c, x)
        d = np.minimum(np.abs(x - c[np.maximum(j - 1, 0)]),
                       np.abs(x - c[np.minimum(j, c.size - 1)]))
        if self.is_circle:
            d = np.minimum(d, 1.0 - np.maximum(np.abs(x - c[0]),
                                               np.abs(x - c[-1])))
        return d

    def contains(self, x, tol=1e-12):
        x = np.asarray(x, dtype=float)
        if self.is_circle:
            return np.all((x >= -tol) & (x < 1.0 + tol))
        return np.all((x >= -tol) & (x <= 1.0 + tol))


UNIT_INTERVAL = Domain("UnitInterval")
CIRCLE = Domain("Circle")


class SmoothMap1D:
    """A C^r self-map of [0,1] or the circle with derivative oracles.

    Subclasses implement _eval_raw (before circle reduction) and either
    closed-form _deriv_raw or rely on the jet path, where _derivs_raw
    should be _jet_derivs (one jet pass for all orders).
    """

    def __init__(self, domain, smoothness_r, holder_const, name):
        if smoothness_r <= 1.0:
            raise ValueError("smoothness r must exceed 1")
        self.domain = domain
        self.smoothness_r = float(smoothness_r)
        self.holder_const = float(holder_const)
        self.name = name

    @property
    def r_floor(self):
        return int(math.floor(self.smoothness_r))

    # -- required oracle surface ------------------------------------------

    def _eval_raw(self, x):
        raise NotImplementedError

    def _deriv_raw(self, k, x):
        """k-th derivative by jets; subclasses override it with closed forms."""
        return self._jet_derivs(k, x)[-1]

    def _derivs_raw(self, K, x):
        """Orders 1..K, one _deriv_raw call each (the closed forms)."""
        return np.stack([self._deriv_raw(k, x) for k in range(1, K + 1)])

    def _jet_derivs(self, K, x):
        """Orders 1..K from one jet pass of order K.  A jet recurrence
        fills coefficient k from lower ones only, so each order has the
        bits of its own order-k pass."""
        jet = self.jet_apply(variable(np.asarray(x, dtype=float), K))
        return np.stack([jet.deriv(k) for k in range(1, K + 1)])

    def jet_apply(self, jet):
        raise NotImplementedError

    # -- public oracle surface --------------------------------------------

    def eval(self, x):
        y = self._eval_raw(np.asarray(x, dtype=float))
        return self.domain.reduce(y)

    __call__ = eval

    def deriv(self, k, x):
        if k == 0:
            return self.eval(x)
        if k > self.r_floor:
            raise ValueError(f"derivative order {k} exceeds floor(r)={self.r_floor}")
        return self._deriv_raw(k, x)

    def derivs(self, K, x):
        """[deriv(k, x) for k = 1..K] as one array of shape (K,) + x.shape."""
        if not 1 <= K <= self.r_floor:
            raise ValueError(f"derivative orders 1..{K} need 1 <= K <= "
                             f"floor(r)={self.r_floor}")
        return self._derivs_raw(K, x)

    def log_abs_deriv(self, x):
        """log|f'(x)| with the -inf floor applied."""
        d = np.abs(self.deriv(1, x))
        with np.errstate(divide="ignore"):
            out = np.log(d)
        return np.where(out < LOG_FLOOR, -np.inf, out)


# ---------------------------------------------------------------------------
# preset families
# ---------------------------------------------------------------------------


class LogisticMap(SmoothMap1D):
    """f(x) = a x (1-x) on [0,1]; a <= 4 keeps it a self-map."""

    def __init__(self, a=4.0, smoothness_r=2.0):
        if not 0 < a <= 4:
            raise ValueError("logistic parameter must be in (0, 4]")
        self.a = float(a)
        r = float(smoothness_r)
        holder = 2 * self.a if math.floor(r) == 2 else 0.0
        super().__init__(UNIT_INTERVAL, r, holder, f"logistic({a:g})")

    def _eval_raw(self, x):
        return self.a * x * (1.0 - x)

    def _deriv_raw(self, k, x):
        x = np.asarray(x, dtype=float)
        if k == 1:
            return self.a * (1.0 - 2.0 * x)
        if k == 2:
            return np.full_like(x, -2.0 * self.a)
        return np.zeros_like(x)

    def jet_apply(self, jet):
        return self.a * jet * (1.0 - jet)


class TentMap(SmoothMap1D):
    """Tent map of slope s: piecewise linear, not C^1 at the kink.

    Included for norm/orbit testing (|f'| = s off a single point); the
    smoothness machinery treats it as C^2 with zero higher derivatives
    away from the kink.
    """

    def __init__(self, s=1.7):
        if not 0 < s <= 2:
            raise ValueError("tent slope must be in (0, 2]")
        self.s = float(s)
        super().__init__(UNIT_INTERVAL, 2.0, 0.0, f"tent({s:g})")

    def _eval_raw(self, x):
        return self.s * np.minimum(x, 1.0 - x)

    def _deriv_raw(self, k, x):
        x = np.asarray(x, dtype=float)
        if k == 1:
            return np.where(x < 0.5, self.s, -self.s)
        return np.zeros_like(x)

    def jet_apply(self, jet):
        x = jet.value
        c = jet.c.copy()
        sign = np.where(x < 0.5, 1.0, -1.0)
        c[0] = self.s * np.minimum(x, 1.0 - x)
        c[1:] = self.s * sign * c[1:]
        return Jet(c)


class LinearCircleMap(SmoothMap1D):
    """f(x) = (d x + c) mod 1 on the circle; doubling is d=2, c=0."""

    def __init__(self, d=2.0, c=0.0):
        self.d = float(d)
        self.c = float(c)
        name = "doubling" if (d == 2 and c == 0) else f"linear_circle({d:g},{c:g})"
        super().__init__(CIRCLE, 2.0, 0.0, name)

    def _eval_raw(self, x):
        return self.d * x + self.c

    def _deriv_raw(self, k, x):
        x = np.asarray(x, dtype=float)
        if k == 1:
            return np.full_like(x, self.d)
        return np.zeros_like(x)

    def jet_apply(self, jet):
        c = self.d * jet.c      # (d jet + c).mod1() in one array
        c[0] += self.c
        c[0] -= np.floor(c[0])
        return Jet(c)


class PerturbedCircleMap(SmoothMap1D):
    """f(x) = (d x + delta sin(2 pi x)) mod 1, an analytic circle endomorphism."""

    def __init__(self, d=2, delta=0.1, smoothness_r=3.0):
        self.d = float(d)
        self.delta = float(delta)
        r = float(smoothness_r)
        k = math.floor(r)
        holder = abs(delta) * (2 * math.pi) ** (k + 1) if r > k else \
            abs(delta) * (2 * math.pi) ** k
        super().__init__(CIRCLE, r, holder,
                         f"perturbed_circle({d:g},{delta:g})")

    def _eval_raw(self, x):
        return self.d * x + self.delta * np.sin(2 * math.pi * x)

    def _deriv_raw(self, k, x):
        x = np.asarray(x, dtype=float)
        w = 2 * math.pi
        if k == 1:
            return self.d + self.delta * w * np.cos(w * x)
        phase = k % 4
        trig = [np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)][phase]
        return self.delta * w ** k * trig(w * x)

    def jet_apply(self, jet):
        out = self.d * jet + self.delta * (2 * math.pi * jet).sin()
        out.c[0] -= np.floor(out.c[0])      # .mod1() on our own temporary
        return out


class CubicMap(SmoothMap1D):
    """f(x) = x - (x - 1/3)^3 on [0,1]; one interior critical point."""

    def __init__(self):
        super().__init__(UNIT_INTERVAL, 3.0, 6.0, "cubic")

    def _eval_raw(self, x):
        return x - (x - 1.0 / 3.0) ** 3

    def _deriv_raw(self, k, x):
        x = np.asarray(x, dtype=float)
        if k == 1:
            return 1.0 - 3.0 * (x - 1.0 / 3.0) ** 2
        if k == 2:
            return -6.0 * (x - 1.0 / 3.0)
        return np.full_like(x, -6.0)

    def jet_apply(self, jet):
        u = jet - 1.0 / 3.0
        return jet - u * u * u


class AffineMap(SmoothMap1D):
    """f(x) = c0 + c1 x on [0,1] (must map into [0,1]) or mod 1 on the circle."""

    def __init__(self, c0=0.0, c1=1.0, domain=UNIT_INTERVAL):
        self.c0 = float(c0)
        self.c1 = float(c1)
        if not domain.is_circle:
            ends = [c0, c0 + c1]
            if min(ends) < -1e-12 or max(ends) > 1 + 1e-12:
                raise ValueError("affine interval map must map [0,1] into itself")
        super().__init__(domain, 2.0, 0.0, f"affine({c0:g},{c1:g})")

    def _eval_raw(self, x):
        return self.c0 + self.c1 * x

    def _deriv_raw(self, k, x):
        x = np.asarray(x, dtype=float)
        if k == 1:
            return np.full_like(x, self.c1)
        return np.zeros_like(x)

    def jet_apply(self, jet):
        out = self.c0 + self.c1 * jet
        return out.mod1() if self.domain.is_circle else out


class PowerMap(SmoothMap1D):
    """g = f^p by composition; derivatives by jet propagation (chain rule).

    The Hoelder norm is propagated by the Faa di Bruno-style bound
    ||(f^p)'||_{r-1} <= A^{p r} ||f'||_{r-1}^{p r} with A = FAA_DI_BRUNO_CONST.
    """

    def __init__(self, base, p):
        if p < 1:
            raise ValueError("power must be >= 1")
        self.base = base
        self.p = int(p)
        base_norm = max(_quick_norm(base, k) for k in range(1, base.r_floor + 1))
        base_norm = max(base_norm, base.holder_const)
        r = base.smoothness_r
        holder = (FAA_DI_BRUNO_CONST * max(base_norm, 1.0)) ** (self.p * r)
        super().__init__(base.domain, r, holder, f"{base.name}^{p}")

    def _eval_raw(self, x):
        y = np.asarray(x, dtype=float)
        for _ in range(self.p):
            y = self.base.eval(y)
        return y

    def eval(self, x):
        # already reduced by the base map at every stage
        return self._eval_raw(x)

    def _deriv_raw(self, k, x):
        x = np.asarray(x, dtype=float)
        if k == 1:
            # chain rule; cheaper and exactly matches the jet path
            y = x
            d = np.ones_like(y)
            for _ in range(self.p):
                d = d * self.base.deriv(1, y)
                y = self.base.eval(y)
            return d
        return super()._deriv_raw(k, x)

    def _derivs_raw(self, K, x):
        # the chain rule at order 1, one jet pass for the orders above
        d1 = self._deriv_raw(1, x)
        if K == 1:
            return d1[None]
        out = self._jet_derivs(K, x)
        out[0] = d1
        return out

    def jet_apply(self, jet):
        for _ in range(self.p):
            jet = self.base.jet_apply(jet)
        return jet


def power_map(f, p):
    """p-fold composition of f with derivative and norm propagation."""
    if p == 1:
        return f
    return PowerMap(f, p)


# ---------------------------------------------------------------------------
# expression-language maps
# ---------------------------------------------------------------------------

_ALLOWED_CALLS = {"sin", "cos", "exp", "log", "sqrt", "mod1"}
_ALLOWED_NAMES = {"x", "pi"}


class ExpressionMap(SmoothMap1D):
    """Map defined by an arithmetic expression in x.

    Grammar: +, -, *, /, ** (integer exponents), sin, cos, exp, log,
    sqrt, mod1, the variable x and the constant pi.  Derivatives come
    from jet propagation, so every order up to floor(r) is exact.
    """

    def __init__(self, expression, domain=UNIT_INTERVAL, smoothness_r=3.0,
                 holder_const=0.0, name=None):
        self.expression = expression
        self._tree = ast.parse(expression, mode="eval").body
        _validate_expr(self._tree)
        super().__init__(domain, smoothness_r, holder_const,
                         name or f"expr({expression})")

    def _eval_node(self, node, x):
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id == "x":
                return x
            if node.id == "pi":
                return math.pi
            raise ValueError(f"unknown name {node.id!r}")
        if isinstance(node, ast.UnaryOp):
            v = self._eval_node(node.operand, x)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp):
            a = self._eval_node(node.left, x)
            b = self._eval_node(node.right, x)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                return a / b
            if isinstance(node.op, ast.Pow):
                if isinstance(a, Jet):
                    if not isinstance(b, float) or b != int(b):
                        raise ValueError("jet powers must be integer constants")
                    return a ** int(b)
                return a ** b
            raise ValueError("unsupported operator")
        if isinstance(node, ast.Call):
            fname = node.func.id
            arg = self._eval_node(node.args[0], x)
            if isinstance(arg, Jet):
                if fname == "mod1":
                    return arg.mod1()
                return getattr(arg, fname)()
            if fname == "mod1":
                return arg - np.floor(arg)
            return getattr(np, fname)(arg)
        raise ValueError(f"unsupported syntax: {ast.dump(node)}")

    def _eval_raw(self, x):
        out = self._eval_node(self._tree, np.asarray(x, dtype=float))
        return np.asarray(out, dtype=float)

    _derivs_raw = SmoothMap1D._jet_derivs

    def jet_apply(self, jet):
        out = self._eval_node(self._tree, jet)
        if not isinstance(out, Jet):
            raise ValueError("expression does not depend on x")
        return out.mod1() if self.domain.is_circle else out


def _validate_expr(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if not isinstance(sub.func, ast.Name) or sub.func.id not in _ALLOWED_CALLS:
                raise ValueError("only sin/cos/exp/log/sqrt/mod1 calls allowed")
            if len(sub.args) != 1 or sub.keywords:
                raise ValueError("calls take exactly one positional argument")
        elif isinstance(sub, ast.Name):
            if sub.id not in _ALLOWED_NAMES | _ALLOWED_CALLS:
                raise ValueError(f"unknown name {sub.id!r}")
        elif not isinstance(sub, (ast.Expression, ast.BinOp, ast.UnaryOp,
                                  ast.Constant, ast.Add, ast.Sub, ast.Mult,
                                  ast.Div, ast.Pow, ast.USub, ast.UAdd,
                                  ast.Load)):
            raise ValueError(f"unsupported syntax element {type(sub).__name__}")


PRESETS = {
    "logistic": LogisticMap,
    "tent": TentMap,
    "doubling": lambda: LinearCircleMap(2.0, 0.0),
    "linear_circle": LinearCircleMap,
    "perturbed_circle": PerturbedCircleMap,
    "cubic": CubicMap,
    "affine": AffineMap,
}


def make_map(preset, **params):
    """Instantiate a preset by name, or an ExpressionMap via preset='expr'.

    The domain parameter (for affine/expr presets) accepts the Domain
    objects or the strings "circle" / "interval".
    """
    dom = params.get("domain")
    if isinstance(dom, str):
        params["domain"] = CIRCLE if dom.lower() in ("circle", "torus") \
            else UNIT_INTERVAL
    if preset == "expr":
        return ExpressionMap(**params)
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choices: {sorted(PRESETS)}")
    return PRESETS[preset](**params)


# ---------------------------------------------------------------------------
# orbits and Lyapunov data
# ---------------------------------------------------------------------------


def orbit_grid(f, xs, n):
    """Orbits of an array of seeds, one column each: (points, log_derivs)
    with points of shape (n+1, len(xs)) and log_derivs, log|f'| along
    them, of shape (n, len(xs)).  A single orbit is a one-seed array.
    """
    xs = f.domain.reduce(np.asarray(xs, dtype=float))
    pts = np.empty((n + 1, xs.shape[0]))
    pts[0] = xs
    for k in range(n):
        pts[k + 1] = f.eval(pts[k])
    lds = f.log_abs_deriv(pts[:-1].reshape(-1)).reshape(n, xs.shape[0])
    return pts, lds


def lyapunov_ft(f, xs, n):
    """Finite-time Lyapunov exponents (1/n) log|(f^n)'(x)| of an array of
    seeds; -inf on criticals.  The sum runs in orbit order (cumsum)."""
    _, lds = orbit_grid(f, xs, n)
    return np.cumsum(lds, axis=0)[-1] / n


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


@dataclass
class MapNorms:
    """Grid + refinement estimates of sup|d^k f| and the growth rate R(f).

    All sup entries are certified lower bounds of the true sup (they are
    attained values); upper_hints pads each by a local Lipschitz/Hoelder
    step and is heuristic.
    """

    sup_abs_deriv: dict        # {1: .., 2: .., ..., 'r': holder_const}
    f_prime_r_minus_1: float   # max over the index set
    R_estimate: float
    n_used: int
    upper_hints: dict = field(default_factory=dict)


def _quick_norm(f, k, grid_size=1024):
    xs = np.linspace(0.0, 1.0, grid_size)
    return float(np.max(np.abs(f.deriv(k, xs))))


def estimate_norms(f, grid_size=4096, refine_iters=3, n_used=8):
    """Estimate ||d^k f||_inf for k in [1, floor(r)] u {r} and R(f).

    Each sup is a grid scan plus bounded-Brent refinement around the
    best grid cells; R_estimate is (1/n) log+ of the refined sup of
    |(f^n)'| for the recorded n_used.  Every refinement window is a lane
    of one solver call.  A NaN estimate raises UndefinedNorm.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    xs = np.linspace(0.0, 1.0, grid_size + 1)
    h = 1.0 / grid_size
    K = f.r_floor
    grid = np.abs(f.derivs(K, xs))
    sups = {k: float(np.max(grid[k - 1])) for k in range(1, K + 1)}
    # R(f): sup over the grid of the chained log-derivative at depth n_used
    _, lds = orbit_grid(f, xs, n_used)
    chain = np.sum(lds, axis=0)
    finite = chain[np.isfinite(chain)]
    sup_log = float(np.max(finite)) if finite.size else -np.inf

    # windows around the best grid points: refine_iters for each order k,
    # then k = 0 for the chain where it is finite somewhere
    centres = [(k, i) for k in range(1, K + 1)
               for i in np.argsort(grid[k - 1])[::-1][:refine_iters]]
    if finite.size:
        centres.append((0, int(np.nanargmax(
            np.where(np.isfinite(chain), chain, -np.inf)))))
    ks = np.array([k for k, _ in centres])

    def chain_at(t):
        # the n_used orbit points first, then one derivative call on all
        orbit = [np.array([t])]
        for _ in range(n_used - 1):
            orbit.append(f.eval(orbit[-1]))
        acc = 0.0
        for d in np.abs(f.deriv(1, np.concatenate(orbit))).tolist():
            if d <= 0.0:
                return -np.inf
            acc += math.log(d)
        return acc

    def objective(t, lane):
        # lanes stay in order, so a running chain lane is the last one
        n = np.count_nonzero(ks[lane])
        out = np.empty(t.size)
        if n:
            k = ks[lane[:n]]
            out[:n] = -np.abs(f.derivs(k.max(), t[:n])[k - 1, np.arange(n)])
        if n < t.size:
            out[n] = -chain_at(t[n])
        return out

    best = -minimize_bounded(objective,
                             [max(0.0, xs[i] - h) for _, i in centres],
                             [min(1.0, xs[i] + h) for _, i in centres], 1e-12)
    for (k, _), v in zip(centres, best.tolist()):
        if k:
            sups[k] = max(sups[k], v)
        else:
            sup_log = max(sup_log, v)
    sups["r"] = f.holder_const
    hints = {}
    for k in range(1, f.r_floor + 1):
        if k < f.r_floor:
            hints[k] = sups[k] + 0.5 * h * sups[k + 1]
        else:
            expo = f.smoothness_r - f.r_floor
            pad = f.holder_const * (0.5 * h) ** expo if expo > 0 else f.holder_const * 0.0
            hints[k] = sups[k] + (pad if expo > 0 else 0.5 * h * f.holder_const)
    R_est = max(0.0, sup_log / n_used)
    nan = [f"sup_abs_deriv[{k!r}]" for k, v in sups.items() if math.isnan(v)]
    nan += ["R_estimate"] * math.isnan(R_est)
    if nan:
        raise UndefinedNorm(f"{f.name}: NaN estimate of {', '.join(nan)}")

    return MapNorms(
        sup_abs_deriv=sups,
        f_prime_r_minus_1=max(sups.values()),
        R_estimate=R_est,
        n_used=n_used,
        upper_hints=hints,
    )


# ---------------------------------------------------------------------------
# critical set
# ---------------------------------------------------------------------------


def critical_set(f, tol=1e-12, grid_size=8192):
    """Roots of f' located by sign-change bisection on a fine grid.

    Returns a list of floats (isolated roots) and (a, b) tuples for flat
    stretches where |f'| stays below FLAT_TOL.  Raises UnresolvedCritical
    when tripling the grid changes the root count, which is the symptom
    of two sign changes hiding in one cell.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def scan(m):
        """Grid xs of m cells, its grid roots and flat pieces (the runs of
        |f'| < FLAT_TOL that start before xs[m], of one point or more),
        and the cells where f' changes sign from a point that is not small."""
        xs = np.linspace(0.0, 1.0, m + 1)
        d = np.asarray(f.deriv(1, xs), dtype=float)
        small = np.abs(d) < FLAT_TOL
        edge = np.diff(np.concatenate(([0], small, [0])).astype(np.int8))
        starts, ends = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)
        keep = starts < m
        starts, ends = starts[keep], ends[keep]
        one = ends - starts == 1
        flats = list(zip(xs[starts[~one]], xs[np.minimum(ends[~one], m)]))
        cells = np.flatnonzero(~small[:-1] & (d[:-1] * d[1:] < 0))
        return xs, list(xs[starts[one]]), flats, cells

    _, roots, flats, cells = scan(grid_size)
    n_roots, n_flats = len(roots) + cells.size, len(flats)
    # refine by an odd factor: power-of-two refinements can alias in sync
    xs, roots, flats, cells = scan(3 * grid_size)
    if len(roots) + cells.size != n_roots or len(flats) != n_flats:
        raise UnresolvedCritical(
            f"critical count unstable under grid refinement "
            f"({n_roots}/{n_flats} vs {len(roots) + cells.size}/{len(flats)})")
    roots += brentq(lambda t, _: f.deriv(1, t), xs[cells], xs[cells + 1],
                    xtol=tol).tolist()
    return sorted(roots) + sorted(flats)
