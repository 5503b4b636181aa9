"""Kernel-level fractional calculus.

Closed forms and certified quadrature for the singular kernel
|x - y|^(-(N + 2s)): the normalization constant of the operator, cell-pair
integrals in 1D to a few ulps at any separation (the only implementation;
assembly's P0 values and geometry's condition C use it), the kernel moments
of a cell seen from a point (nonlocal_ops' exterior reconstruction uses
them), pointwise/integrated mass of a domain seen from outside (also the
far-field Dirichlet kernel mass of assembly), far-field tail mass, a
Dini-type integrability classifier, and the indicator-seminorm identity.

Everything here is a pure function of immutable inputs; divergence is always
decided by exponent tests, never by watching quadrature blow up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as _gamma, j0 as _j0

from . import quadrature as quad
from .errors import (
    BadParameters,
    DivergentIntegral,
    InconclusiveClassification,
    InvalidCells,
    NonConvergedQuadrature,
    OnBoundary,
)

INF = math.inf

# surface measure of the unit sphere S^(N-1)
_OMEGA = {1: 2.0, 2: 2.0 * math.pi}


# ---------------------------------------------------------------------------
# normalization constant
# ---------------------------------------------------------------------------

def gamma_form_constant(dimension: int, s: float) -> float:
    """The Gamma-function display 2^(2s-1) pi^(-N/2) Gamma((N+2s)/2)/|Gamma(-s)|."""
    return (2.0 ** (2 * s - 1) * math.pi ** (-dimension / 2.0)
            * _gamma((dimension + 2 * s) / 2.0) / abs(_gamma(-s)))


def _head_integral(factor, s: float, rel_tol: float) -> float:
    """int_0^1 factor(x) x^(1-2s) dx for a smooth bounded factor, via x = t^m."""
    if s <= 0.99:
        return quad.adaptive_power(lambda x: factor(x) * x ** (1.0 - 2 * s), 0.0, 1.0,
                                   rel_tol=rel_tol, p_left=1.0 - 2 * s)
    # the same substitution by hand: with m = ceil(1/(1-s)) > 100, t^m
    # underflows at Gauss nodes and x^(1-2s) overflows, so the power goes into
    # the Jacobian, m t^(m-1) x^(1-2s) = m t^(m(2-2s)-1)
    m = math.ceil(1.0 / (1.0 - s))
    return quad.adaptive(lambda t: factor(t ** m) * m * t ** (m * (2 - 2 * s) - 1.0),
                         0.0, 1.0, rel_tol=rel_tol)


def _defining_integral_1d(s: float, tol: float, refine: int) -> float:
    """int_R (1 - cos xi) |xi|^(-1-2s) dxi, split at 1 with oscillatory tail.

    The head integrand is written as 0.5 (sin(x/2)/(x/2))^2 x^(1-2s): free of
    the 1 - cos cancellation and of x^(-p) overflow at tiny nodes.
    """
    def half_sinc2(x):
        half = 0.5 * x
        sinc = np.where(half > 0, np.sin(half) / np.where(half > 0, half, 1.0), 1.0)
        return 0.5 * sinc ** 2

    head = _head_integral(half_sinc2, s, rel_tol=tol * 1e-2 / refine)
    tail_monotone = 1.0 / (2 * s)
    tail_osc = quad.cos_tail(1.0 + 2 * s, 1.0, tol=tol * 1e-2)
    return 2.0 * (head + tail_monotone - tail_osc)


def _defining_integral_2d(s: float, tol: float, refine: int) -> float:
    """int_R2 (1 - cos xi_1) |xi|^(-2-2s) dxi = 2 pi int_0^inf (1 - J0(r)) r^(-1-2s) dr."""
    p = 1.0 + 2 * s

    def quarter_ratio(r):
        r = np.asarray(r, dtype=float)
        z = (0.5 * r) ** 2
        # (1 - J0)/z, cancellation-free below r = 1/4
        poly = 1.0 - z / 4.0 * (1.0 - z / 9.0 * (1.0 - z / 16.0 * (1.0 - z / 25.0)))
        with np.errstate(invalid="ignore", divide="ignore"):
            direct = np.where(z > 0, (1.0 - _j0(r)) / np.where(z > 0, z, 1.0), 1.0)
        return 0.25 * np.where(r < 0.25, poly, direct)

    head = _head_integral(quarter_ratio, s, rel_tol=tol * 1e-2 / refine)
    tail = 1.0 / (2 * s) - quad.j0_tail(p, 1.0, tol=tol * 1e-2)
    return 2.0 * math.pi * (head + tail)


@dataclass(frozen=True)
class NormalizationResult:
    """Defining-integral value of a_{N,s} with the Gamma form for comparison."""

    value: float            # (defining integral)^(-1); normative
    gamma_form: float       # closed-form display from the literature extract
    ratio: float            # gamma_form / value (logged, not resolved)
    defining_integral: float
    dimension: int
    s: float

    def __float__(self) -> float:
        return self.value


def normalization_constant(dimension: int, s: float, tol: float = 1e-8,
                           refine: int = 1) -> NormalizationResult:
    """Normalization constant of the fractional Laplacian.

    The defining integral int (1 - cos xi_1)/|xi|^(N+2s) dxi is evaluated by
    adaptive quadrature with radial splitting (relative error <= tol) and
    inverted; the Gamma closed form is reported alongside with their ratio.
    ``refine`` doubles the quadrature resolution (determinism check hook).
    """
    if dimension not in (1, 2):
        raise BadParameters(f"dimension must be 1 or 2, got {dimension}")
    if not (0.0 < s < 1.0):
        raise BadParameters(f"s must lie in (0, 1), got {s}")
    if tol <= 0:
        raise BadParameters("tol must be positive")
    integral = (_defining_integral_1d if dimension == 1 else _defining_integral_2d)(
        s, tol, refine)
    value = 1.0 / integral
    gform = gamma_form_constant(dimension, s)
    return NormalizationResult(value=value, gamma_form=gform, ratio=gform / value,
                               defining_integral=integral, dimension=dimension, s=s)


@dataclass(frozen=True)
class FractionalOrder:
    """Dimension, exponent s in (0,1), and the kernel normalization a_{N,s}."""

    dimension: int
    s: float
    a_ns: float
    gamma_form: float = 0.0
    gamma_ratio: float = 0.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise BadParameters(f"dimension must be 1 or 2, got {self.dimension}")
        if not (0.0 < self.s < 1.0):
            raise BadParameters(f"s must lie in (0, 1), got {self.s}")
        if not self.a_ns > 0:
            raise BadParameters("a_ns must be positive")


@lru_cache(maxsize=64)
def make_order(dimension: int, s: float, tol: float = 1e-10) -> FractionalOrder:
    """FractionalOrder with a_{N,s} from the defining integral (cached)."""
    res = normalization_constant(dimension, s, tol=tol)
    return FractionalOrder(dimension=dimension, s=s, a_ns=res.value,
                           gamma_form=res.gamma_form, gamma_ratio=res.ratio)


# ---------------------------------------------------------------------------
# interval-pair integrals of the 1D kernel
# ---------------------------------------------------------------------------

def _far_pair(a, b, g, s: float):
    """int_0^(a+b) phi(t) (g+t)^(-1-2s) dt for g >= b >= a > 0, by Gauss.

    phi(t), the length of {(x, y) : y - x = g + t} in two cells of widths
    a <= b, is a trapezoid: t, a, a + b - t on [0, a], [a, b], [b, a + b].
    Each piece gets one 20-point rule in units of a, at machine precision
    because the kernel's singularity t = -g lies at least one piece length
    beyond each piece; the two sloped pieces share one sum.
    """
    T, W = quad.gauss_rule(20)
    x, c = (g / a)[:, None], (b / a)[:, None]
    k = -1.0 - 2 * s
    ends = ((x + c + T) ** k + (x + 1.0 - T) ** k) @ (W * (1.0 - T))
    flat = (x + 1.0 + (c - 1.0) * T) ** k @ W
    return a ** (1.0 - 2 * s) * (ends + (c[:, 0] - 1.0) * flat)


def _rise(x, w, beta: float):
    """((x + w)^beta - x^beta)/beta, log1p(w/x) at beta = 0, free of cancellation."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.log1p(w / x)
        if beta == 0.0:
            return lg
        return np.where(x > 0, x ** beta * np.expm1(beta * lg), w ** beta) / beta


def pair_integral(cell_a, cell_b, s: float):
    """int_{cell_a} int_{cell_b} |x-y|^(-(1+2s)) dy dx for 1D cells, to a few ulps.

    Cells are (lo, hi) with lo < hi; endpoints may be +-inf or arrays, which
    broadcast (an array in, an array out).  Interiors must be disjoint;
    touching closures require s < 1/2 and two half-lines s > 1/2 (exponent
    tests), otherwise DivergentIntegral is raised.  The value depends only on
    the gap g and the widths a <= b.  Pairs with g >= b are Gauss of the
    reduced 1D integral (``_far_pair``), where the closed form would lose
    log10((g/b)^2) digits; equal touching cells use expm1; half-lines and the
    other near pairs are first differences of the closed form in
    expm1/log1p form (``_rise``).
    """
    ends = [np.asarray(e, dtype=float) for e in (*cell_a, *cell_b)]
    p, q, r, u = np.broadcast_arrays(*map(np.atleast_1d, ends))
    if not (np.all(p < q) and np.all(r < u)):
        raise InvalidCells(f"empty or reversed interval in {cell_a}, {cell_b}")
    g = np.maximum(r - q, p - u)
    if np.any(g < 0):
        raise InvalidCells(f"cells {cell_a} and {cell_b} have overlapping interiors")
    a, b = np.minimum(q - p, u - r), np.maximum(q - p, u - r)
    if s >= 0.5 and np.any(g == 0):
        raise DivergentIntegral(
            f"touching cells with s = {s}: corner exponent 1 - 2s <= 0")
    if s <= 0.5 and np.any(np.isinf(a)):
        raise DivergentIntegral("two half-lines couple divergently for s <= 1/2")
    beta = 1.0 - 2 * s
    lines, half = np.isinf(a), np.isinf(b) & np.isfinite(a)
    far = g >= b
    touch = (g == 0) & (a == b)
    near = ~(np.isinf(b) | far | touch)
    out = np.empty(g.shape)
    out[lines] = g[lines] ** beta / (2 * s * (2 * s - 1.0))
    out[half] = _rise(g[half], a[half], beta) / (2 * s)
    out[far] = _far_pair(a[far], b[far], g[far], s)
    if np.any(touch):
        out[touch] = a[touch] ** beta * (
            2.0 * math.expm1(-2 * s * math.log(2.0)) / (2 * s * (2 * s - 1.0)))
    g, a, b = g[near], a[near], b[near]
    out[near] = (_rise(g, a, beta) - _rise(g + b, a, beta)) / (2 * s)
    return out if any(e.ndim for e in ends) else float(out[0])


# ---------------------------------------------------------------------------
# exterior mass I_Omega^alpha
# ---------------------------------------------------------------------------

def _omega_intervals(omega) -> list[tuple[float, float]]:
    """Accept (a, b), an object with .a/.b, or a list of disjoint intervals."""
    if hasattr(omega, "a") and hasattr(omega, "b"):
        return [(float(omega.a), float(omega.b))]
    if len(omega) == 2 and np.isscalar(omega[0]):
        return [(float(omega[0]), float(omega[1]))]
    return [(float(lo), float(hi)) for lo, hi in omega]


def cell_moments(t0, h, s: float):
    """(mass, near, far) moments of k(t) = t^(-1-2s) over cells [t0, t0 + h], t0 > 0.

    ``mass`` is int k; ``near`` and ``far`` are its integrals against the hat
    that is 1 at t0 and the hat that is 1 at t0 + h.  t0 and h broadcast.
    Cells at least one width from the singularity (t0 >= h) take one
    20-point Gauss rule in units of h, at machine precision as in
    ``_far_pair``; the closed form would lose log10((t0/h)^2) digits there.
    Nearer cells take first differences of the closed form (``_rise``), where
    no term cancels.
    """
    t0, h = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(h, dtype=float))
    if np.any(t0 <= 0):
        raise OnBoundary("evaluation point inside or on the closure of a cell")
    mass, near, far = (np.empty(t0.shape) for _ in range(3))
    gauss = t0 >= h
    x, w = t0[gauss], h[gauss]
    T, W = quad.gauss_rule(20)
    k = ((x / w)[:, None] + T) ** (-1.0 - 2 * s) * (w ** (-2 * s))[:, None]
    near[gauss], far[gauss] = k @ (W * (1.0 - T)), k @ (W * T)
    mass[gauss] = near[gauss] + far[gauss]
    x, w = t0[~gauss], h[~gauss]
    m, m1 = _rise(x, w, -2 * s), _rise(x, w, 1.0 - 2 * s)     # int k, int t k
    near[~gauss] = ((x + w) * m - m1) / w
    far[~gauss] = (m1 - x * m) / w
    mass[~gauss] = m
    return mass, near, far


def interval_mass(x, intervals, alpha: float):
    """sum over intervals of int |x-y|^(-(1+alpha)) dy, closed form; vectorized in x.

    One ``_rise`` per interval, to a few ulps at any distance; on a half-line
    it is exactly dist^(-alpha)/alpha.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for (p, q) in intervals:
        left = x < p
        if np.any(~(left | (x > q))):
            raise OnBoundary("evaluation point inside or on the closure of an interval")
        out += _rise(np.where(left, p - x, x - q), q - p, -alpha)
    return out


def exterior_mass(x, omega, order: FractionalOrder):
    """I_Omega^(2s): pointwise mass of Omega seen from x, or its cell integral.

    ``x`` is a point (or array of points) outside the closure of Omega for
    the pointwise form, or a 1D cell (lo, hi) contained in the complement for
    the integrated form.  The integrated form is divergent when the cell
    touches the boundary and s >= 1/2.
    """
    alpha = 2.0 * order.s
    if order.dimension != 1:
        raise BadParameters("use exterior_mass_disk for dimension 2")
    intervals = _omega_intervals(omega)
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim <= 1 and x.dtype != object):
        vals = interval_mass(x, intervals, alpha)
        return float(vals) if np.isscalar(x) else vals
    total = 0.0
    for piece in intervals:
        total += pair_integral(x, piece, order.s)
    return total


def exterior_mass_disk(x, center, radius: float, order: FractionalOrder,
                       tol: float = 1e-8) -> float:
    """I_Omega^(2s)(x) for a 2D disk, by angular reduction to a 1D integral."""
    if order.dimension != 2:
        raise BadParameters("exterior_mass_disk requires dimension 2")
    dx = (x[0] - center[0], x[1] - center[1])
    dist0 = math.hypot(*dx)
    if dist0 <= radius:
        raise OnBoundary("point inside or on the disk")
    p = 2.0 + 2 * order.s

    def arc(t):
        c = (t * t + dist0 * dist0 - radius * radius) / (2.0 * t * dist0)
        return 2.0 * np.arccos(np.clip(c, -1.0, 1.0)) * t ** (1.0 - p)

    return quad.adaptive_power(arc, dist0 - radius, dist0 + radius, rel_tol=tol,
                               p_left=0.5, p_right=0.5)


def tail_mass(R: float, order: FractionalOrder) -> float:
    """int_{|z| > R} |z|^(-(N+2s)) dz = omega_{N-1} R^(-2s) / (2s)."""
    if R <= 0:
        raise BadParameters("R must be positive")
    return _OMEGA[order.dimension] * R ** (-2.0 * order.s) / (2.0 * order.s)


# ---------------------------------------------------------------------------
# Dini-type integrability classifier
# ---------------------------------------------------------------------------

def _loglog_interp(t, table):
    """Log-log piecewise-linear interpolation with linear (slope) extrapolation."""
    ts = np.log(np.array([p[0] for p in table]))
    vs = np.log(np.array([p[1] for p in table]))
    x = np.log(np.maximum(np.asarray(t, dtype=float), 1e-300))
    y = np.interp(x, ts, vs)
    lo_slope = (vs[1] - vs[0]) / (ts[1] - ts[0])
    hi_slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])
    y = np.where(x < ts[0], vs[0] + lo_slope * (x - ts[0]), y)
    y = np.where(x > ts[-1], vs[-1] + hi_slope * (x - ts[-1]), y)
    return np.exp(y)


@dataclass(frozen=True)
class Profile:
    """A positive nondecreasing profile on (0, inf): t^exponent or a sampled table.

    Tables take >= 3 samples (t, value) at distinct t, every t and value
    positive and finite, values nondecreasing in t; they are read log-log
    linearly between samples, extended by the end slopes beyond them, and
    are 0 at t = 0.
    """

    kind: str                       # 'power' | 'table' | 'log_spine'
    exponent: float = 0.0           # t^exponent for kind='power'
    table: tuple = ()               # ((t, value), ...) for kind='table'

    @classmethod
    def power(cls, exponent: float):
        if not 0 < exponent < INF:
            raise BadParameters(f"power {cls.__name__} needs a finite exponent > 0")
        return cls(kind="power", exponent=exponent)

    @classmethod
    def from_table(cls, ts, values):
        ts = tuple(float(t) for t in ts)
        values = tuple(float(v) for v in values)
        if len(ts) < 3 or len(ts) != len(values):
            raise BadParameters("table needs >= 3 (t, value) samples")
        if not all(0 < x < INF for x in ts + values):
            raise BadParameters("table samples must be positive and finite")
        pairs = tuple(sorted(zip(ts, values)))
        if any(p[0] == q[0] or q[1] < p[1] for p, q in zip(pairs, pairs[1:])):
            raise BadParameters(
                f"{cls.__name__} samples need distinct t and nondecreasing values")
        return cls(kind="table", table=pairs)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            out = t ** self.exponent
        elif self.kind == "log_spine":
            out = np.where(t > 0, 1.0 / np.log(1.0 / np.where(t > 0, t, 0.5)), 0.0)
        else:
            out = np.where(t == 0, 0.0, _loglog_interp(t, self.table))
        return out if out.ndim else float(out)


class ModulusOfContinuity(Profile):
    """Boundary modulus omega0: [0, inf) -> [0, inf), omega0(0) = 0, increasing."""

    @classmethod
    def log_spine(cls) -> "ModulusOfContinuity":
        """omega0(t) = 1/log(1/t), the Lebesgue-spine modulus."""
        return cls(kind="log_spine")


class KernelOrder(Profile):
    """Kernel order Psi: (0, inf) -> (0, inf), positive and increasing."""


@dataclass(frozen=True)
class DiniResult:
    converges: bool
    value: float | None
    exponent: float          # estimated/exact local exponent of the integrand at 0

    @property
    def divergent(self) -> bool:
        return not self.converges


def _table_exponent(f, t_hi: float, levels: int = 18) -> float:
    """Local log-log slope of f near 0 from dyadic samples, Richardson style."""
    ts = t_hi * 2.0 ** -np.arange(levels, dtype=float)
    vals = np.array([f(t) for t in ts])
    slopes = np.diff(np.log(vals)) / np.diff(np.log(ts))
    return float(slopes[-3:].mean())


def dini_check(omega0: ModulusOfContinuity, Psi: KernelOrder, tol: float = 1e-6,
               quad_tol: float = 1e-9) -> DiniResult:
    """Classify int_0^1 (omega0(t)/t) Psi(1/t) dt as finite (with value) or divergent.

    Symbolic kinds (power, log_spine) are classified exactly by exponent
    arithmetic; sampled-table inputs fall back to a numeric local-exponent
    estimate at 0 and raise InconclusiveClassification when that estimate is
    within ``tol`` of the critical value -1.
    """
    def integrand(t):
        t = np.asarray(t, dtype=float)
        return omega0(t) / t * Psi(1.0 / t)

    if omega0.kind != "table" and Psi.kind == "power":
        # the log spine counts as t^0: 1/(t log(1/t)) t^-alpha has exponent
        # -1 - alpha and diverges for every alpha > 0 (its log factor even at
        # the critical alpha = 0, which power() excludes)
        exponent = omega0.exponent - Psi.exponent - 1.0
        converges = omega0.exponent > Psi.exponent
    else:
        exponent = _table_exponent(integrand, t_hi=2.0 ** -4)
        if abs(exponent + 1.0) < tol:
            raise InconclusiveClassification(
                f"local exponent {exponent:.3e} within {tol} of -1")
        converges = exponent > -1.0
    if not converges:
        return DiniResult(converges=False, value=None, exponent=exponent)

    # adaptive quadrature on (eps, 1) plus the local-power tail correction
    # f(eps) eps / (1 + p); eps is halved until two estimates agree
    def estimate(eps):
        body = quad.adaptive(integrand, eps, 1.0, rel_tol=quad_tol)
        return body + float(integrand(eps)) * eps / (1.0 + exponent)

    eps = 2.0 ** -8
    prev = estimate(eps)
    for _ in range(24):
        eps *= 0.5
        cur = estimate(eps)
        if abs(cur - prev) <= max(quad_tol * abs(cur), 1e-14):
            return DiniResult(converges=True, value=cur, exponent=exponent)
        prev = cur
    raise NonConvergedQuadrature("eps-extrapolation did not settle")


# ---------------------------------------------------------------------------
# indicator-seminorm identity
# ---------------------------------------------------------------------------

def _complement(intervals) -> list[tuple[float, float]]:
    """Complement of a disjoint interval union, as sorted intervals with +-inf."""
    out = []
    lo = -INF
    for (p, q) in sorted(intervals):
        if lo < p:
            out.append((lo, p))
        lo = max(lo, q)
    if lo < INF:
        out.append((lo, INF))
    return out


@dataclass(frozen=True)
class IndicatorReport:
    lhs: float
    rhs: float
    gap: float


def indicator_seminorm_identity(omega, alpha: float, tol: float = 1e-6) -> IndicatorReport:
    """Check int_{Omega^c} I_Omega^alpha dx = (1/2) iint (chi(x)-chi(y))^2 / |x-y|^(1+alpha).

    The left side is assembled from exact interval-pair integrals with
    analytic tails for the unbounded complement pieces; the right side is an
    independent quadrature: the outer integral over Omega of the closed-form
    exterior mass, integrated adaptively with the known dist^(-alpha)
    endpoint exponents removed by substitution.
    """
    if not (0.0 < alpha < 1.0):
        raise BadParameters("alpha must lie in (0, 1)")
    intervals = sorted(_omega_intervals(omega))
    comp = _complement(intervals)
    s_eff = alpha / 2.0
    lhs = 0.0
    for piece in comp:
        for om in intervals:
            lhs += pair_integral(piece, om, s_eff)
    # rhs = sum over Omega pieces of int_piece I_{Omega^c}^alpha(x) dx; the two
    # dist^(-alpha)/alpha endpoint singularities (from the complement pieces
    # touching the endpoints) are subtracted and integrated analytically,
    # leaving a bounded remainder for the adaptive rule
    rhs = 0.0
    for (p, q) in intervals:
        def remainder(x, _p=p, _q=q):
            return (interval_mass(x, comp, alpha)
                    - ((x - _p) ** -alpha + (_q - x) ** -alpha) / alpha)
        rhs += quad.adaptive(remainder, p, q, rel_tol=tol * 1e-2,
                             abs_floor=tol * 1e-2)
        rhs += 2.0 * (q - p) ** (1.0 - alpha) / (alpha * (1.0 - alpha))
    return IndicatorReport(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))
