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

from . import quadrature as quad
from .errors import (
    BadParameters,
    DivergentIntegral,
    InconclusiveClassification,
    InvalidCells,
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
            * math.gamma((dimension + 2 * s) / 2.0) / abs(math.gamma(-s)))


def _defining_integral_1d(s: float, tol: float) -> float:
    """int_R (1 - cos xi) |xi|^(-1-2s) dxi, split at 1 with oscillatory tail.

    The head integrand is written as 0.5 (sin(x/2)/(x/2))^2 x^(1-2s): free of
    the 1 - cos cancellation and of x^(-p) overflow at tiny nodes.
    """
    def half_sinc2(x):
        half = 0.5 * x
        sinc = np.where(half > 0, np.sin(half) / np.where(half > 0, half, 1.0), 1.0)
        return 0.5 * sinc ** 2

    if s <= 0.99:
        head = quad.adaptive_power(lambda x: half_sinc2(x) * x ** (1.0 - 2 * s), 0.0, 1.0,
                                   rel_tol=tol * 1e-2, p_left=1.0 - 2 * s)
    else:
        # the same substitution by hand: with m = ceil(1/(1-s)) > 100, t^m
        # underflows at Gauss nodes and x^(1-2s) overflows, so the power goes
        # into the Jacobian, m t^(m-1) x^(1-2s) = m t^(m(2-2s)-1)
        m = math.ceil(1.0 / (1.0 - s))
        head = quad.adaptive(lambda t: half_sinc2(t ** m) * m * t ** (m * (2 - 2 * s) - 1.0),
                             0.0, 1.0, rel_tol=tol * 1e-2)
    tail_monotone = 1.0 / (2 * s)
    tail_osc = quad.cos_tail(1.0 + 2 * s, 1.0, tol=tol * 1e-2)
    return 2.0 * (head + tail_monotone - tail_osc)


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


def normalization_constant(dimension: int, s: float, tol: float = 1e-8) -> NormalizationResult:
    """Normalization constant of the fractional Laplacian.

    The 1D defining integral int (1 - cos xi)/|xi|^(1+2s) dxi is evaluated by
    adaptive quadrature (relative error within 2 tol) and inverted.  The 2D
    one is exactly the 1D one times sqrt(pi) Gamma(s + 1/2)/Gamma(s + 1), the
    xi_2-integral of (t^2 + xi_2^2)^(-1-s) over |t|^(-1-2s).  The Gamma closed
    form is reported alongside with their ratio.
    """
    if dimension not in (1, 2):
        raise BadParameters(f"dimension must be 1 or 2, got {dimension}")
    if not (0.0 < s < 1.0):
        raise BadParameters(f"s must lie in (0, 1), got {s}")
    if tol <= 0:
        raise BadParameters("tol must be positive")
    integral = _defining_integral_1d(s, tol)
    if dimension == 2:
        integral *= math.sqrt(math.pi) * math.gamma(s + 0.5) / math.gamma(s + 1.0)
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

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise BadParameters(f"dimension must be 1 or 2, got {self.dimension}")
        if not (0.0 < self.s < 1.0):
            raise BadParameters(f"s must lie in (0, 1), got {self.s}")
        if not self.a_ns > 0:
            raise BadParameters("a_ns must be positive")


@lru_cache(maxsize=64)
def make_order(dimension: int, s: float) -> FractionalOrder:
    """FractionalOrder with a_{N,s} from the defining integral to 1e-10 (cached).

    The tolerance is fixed: a 1e-10 change of a_ns moves the criterion-7
    sweep's lambda_1 at k = 6 by 2.6e-8, beyond its references' rtol.
    """
    return FractionalOrder(dimension=dimension, s=s,
                           a_ns=normalization_constant(dimension, s, tol=1e-10).value)


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


GAUSS_ORDERS = (4, 6, 8, 12, 20)     # the Gauss-Legendre orders ``gauss_order`` picks from


def gauss_order(x):
    """Gauss-Legendre order for a cell whose near end lies x cell widths from a
    t^(-p) singularity; an int array shaped like x.

    The smallest entry g of ``GAUSS_ORDERS`` whose first g - 2 nodes already
    meet rho^(-2 (g - 2)) <= 1e-17, rho = 2x + 1 + sqrt((2x + 1)^2 - 1) the
    Bernstein ellipse of the cell that passes through the singularity
    (Trefethen, SIAM Rev. 50 (2008)); two nodes are spare.  Cells with
    x < 2 take 20.  The order never rises as x grows.
    """
    x = np.asarray(x, dtype=float)
    # log rho = arccosh(2x + 1); x < 2 is overridden below
    need = 2.0 + 17.0 * math.log(10.0) / (2.0 * np.arccosh(2.0 * np.maximum(x, 2.0) + 1.0))
    table = np.array(GAUSS_ORDERS)
    return np.where(x < 2.0, table[-1], table[np.searchsorted(table, need)])


def cell_moments(t0, h, s: float):
    """(mass, near, far) moments of k(t) = t^(-1-2s) over cells [t0, t0 + h], t0 > 0.

    ``mass`` is int k; ``near`` and ``far`` are its integrals against the hat
    that is 1 at t0 and the hat that is 1 at t0 + h.  t0 and h broadcast.
    Cells at least one width from the singularity (t0 >= h) take a Gauss
    rule in units of h of the order ``gauss_order(t0 / h)``, 20 points
    within two widths and down to 4 far off, at machine precision; the
    closed form would lose log10((t0/h)^2) digits there.  Each cell's sums
    run node by node, so its bits depend on its own t0, h and s alone.
    Nearer cells take first differences of the closed form (``_rise``), where
    no term cancels.
    """
    t0, h = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(h, dtype=float))
    if np.any(t0 <= 0):
        raise OnBoundary("evaluation point inside or on the closure of a cell")
    mass, near, far = (np.empty(t0.shape) for _ in range(3))
    gauss = t0 >= h
    x, w = t0[gauss], h[gauss]
    r, scale = x / w, w ** (-2 * s)
    orders = gauss_order(r)
    n_sum, f_sum = np.empty(len(r)), np.empty(len(r))
    for g in np.unique(orders):
        on = orders == g
        rg, sg = r[on], scale[on]
        n_g, f_g = np.zeros(len(rg)), np.zeros(len(rg))
        T, W = quad.gauss_rule(int(g))
        for t, a, b in zip(T, W * (1.0 - T), W * T):
            k = (rg + t) ** (-1.0 - 2 * s) * sg
            n_g += a * k
            f_g += b * k
        n_sum[on], f_sum[on] = n_g, f_g
    near[gauss], far[gauss] = n_sum, f_sum
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


def exterior_mass_disk(x, center, radius: float, order: FractionalOrder) -> float:
    """I_Omega^(2s)(x) for a 2D disk: pi r^2 rho^(-2-2s) 2F1(1+s, 1+s; 2; r^2/rho^2).

    rho = |x - center|; the closed form is the disk's Riesz potential.
    """
    from scipy.special import hyp2f1   # kept off the import path of make_order

    if order.dimension != 2:
        raise BadParameters("exterior_mass_disk requires dimension 2")
    rho = math.hypot(x[0] - center[0], x[1] - center[1])
    if rho <= radius:
        raise OnBoundary("point inside or on the disk")
    a = 1.0 + order.s
    return float(math.pi * radius ** 2 * rho ** (-2 * a)
                 * hyp2f1(a, a, 2.0, (radius / rho) ** 2))


def tail_mass(R: float, order: FractionalOrder) -> float:
    """int_{|z| > R} |z|^(-(N+2s)) dz = omega_{N-1} R^(-2s) / (2s)."""
    if R <= 0:
        raise BadParameters("R must be positive")
    return _OMEGA[order.dimension] * R ** (-2.0 * order.s) / (2.0 * order.s)


# ---------------------------------------------------------------------------
# Dini-type integrability classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """A positive nondecreasing profile on (0, inf): t^exponent or a sampled table.

    Tables take >= 3 samples (t, value) at distinct t, every t and value
    positive and finite, values nondecreasing in t; they are read log-log
    linearly between samples, extended by the end slopes beyond them, and
    are 0 at t = 0.  Either kind is a power of t between consecutive knots
    (a power has one knot, at t = 1), so ``log`` is exact on every piece.
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

    @property
    def _knots(self):
        """(t's, values) of the knots, sorted in t."""
        return np.array(self.table).T if self.kind == "table" else np.ones((2, 1))

    @property
    def end_slopes(self) -> tuple[float, float]:
        """Log-log slopes below the first knot and beyond the last (a power's
        exponent; 0 at t = 0 for the log spine, up to its log factor)."""
        if self.kind != "table":
            return self.exponent, self.exponent
        dt, dv = np.diff(np.log(self._knots), axis=1)
        return float(dv[0] / dt[0]), float(dv[-1] / dt[-1])

    def log(self, t):
        """log of the profile at t > 0, exact on every piece."""
        x = np.log(np.asarray(t, dtype=float))
        if self.kind == "log_spine":
            if np.any(x >= 0):
                raise BadParameters("the log spine 1/log(1/t) is defined for t < 1 only")
            out = -np.log(-x)
        else:
            (xs, ys), (lo, hi) = np.log(self._knots), self.end_slopes
            out = (np.interp(x, xs, ys) + lo * np.minimum(x - xs[0], 0.0)
                   + hi * np.maximum(x - xs[-1], 0.0))
        return out if out.ndim else float(out)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        out[t > 0] = np.exp(self.log(t[t > 0]))
        return out if out.ndim else float(out)


class ModulusOfContinuity(Profile):
    """Boundary modulus omega0: [0, inf) -> [0, inf), omega0(0) = 0, increasing."""

    @classmethod
    def log_spine(cls) -> "ModulusOfContinuity":
        """omega0(t) = 1/log(1/t) on [0, 1), the Lebesgue-spine modulus."""
        return cls(kind="log_spine")


class KernelOrder(Profile):
    """Kernel order Psi: (0, inf) -> (0, inf), positive and increasing."""


@dataclass(frozen=True)
class DiniResult:
    converges: bool
    value: float | None
    exponent: float          # local exponent of the integrand at 0

    @property
    def divergent(self) -> bool:
        return not self.converges


def dini_check(omega0: ModulusOfContinuity, Psi: KernelOrder,
               tol: float = 1e-6) -> DiniResult:
    """Classify int_0^1 (omega0(t)/t) Psi(1/t) dt as finite (with value) or divergent.

    Near 0 the integrand f is C t^(a - b - 1), a = omega0's end slope at 0 and
    b = Psi's at inf, so it converges iff a > b, compared directly.  A table's
    end slope comes from rounded samples, so with a table on either side
    |a - b| < tol raises InconclusiveClassification; power exponents are
    compared exactly.  The log spine diverges: f >= Psi(1)/(t log(1/t)).

    The value is exact.  Between consecutive knots in (0, 1] (omega0's sample
    t's and the reciprocals of Psi's) t f(t) is a power of t, so each piece
    has a closed form, the first, (0, b0], b0 f(b0)/(a - b).  The pieces are
    summed in log space; a sum beyond float64 raises InconclusiveClassification.
    """
    from scipy.special import logsumexp   # kept off the import path of make_order

    a, b = omega0.end_slopes[0], Psi.end_slopes[1]
    exponent = a - b - 1.0
    if omega0.kind == "log_spine":
        return DiniResult(converges=False, value=None, exponent=exponent)
    if "table" in (omega0.kind, Psi.kind) and abs(a - b) < tol:
        raise InconclusiveClassification(f"end slopes {a:.17g} and {b:.17g} within {tol}")
    if not a > b:
        return DiniResult(converges=False, value=None, exponent=exponent)
    t = np.concatenate([omega0._knots[0], 1.0 / Psi._knots[0], [1.0]])
    t = np.unique(t[t <= 1.0])
    lg = omega0.log(t) + Psi.log(1.0 / t)            # log of t f(t) at the knots
    d = np.diff(np.log(t))
    q = np.abs(np.diff(lg)) / d
    # int over a piece = (larger end of t f(t)) * (1 - e^(-|q| d))/|q|, d at q = 0
    width = np.divide(-np.expm1(-q * d), q, out=d.copy(), where=q > 0)
    logs = np.append(np.maximum(lg[:-1], lg[1:]) + np.log(width), lg[0] - math.log(a - b))
    try:
        value = math.exp(logsumexp(logs))
    except OverflowError:
        raise InconclusiveClassification(
            f"the integral converges (exponent {exponent:.6g}) but overflows float64"
        ) from None
    return DiniResult(converges=True, value=value, exponent=exponent)


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
