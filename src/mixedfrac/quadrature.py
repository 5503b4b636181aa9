"""Adaptive Gauss quadrature with interval-halving certification.

All tolerances are relative unless stated otherwise.  Certification follows
one scheme everywhere: an interval estimate is accepted when the two-half
refinement agrees with it within tolerance, else the interval is split.
The oscillatory cosine tail is reduced by repeated integration by parts
until absolutely convergent enough for a finite cut plus an envelope bound.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BadParameters, NonConvergedQuadrature

_GAUSS_N = 15


@lru_cache(maxsize=32)
def gauss_rule(n: int):
    """Gauss-Legendre nodes/weights on [0, 1], read-only: every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def fixed_gauss(f, a: float, b: float, n: int = _GAUSS_N) -> float:
    """Single-panel Gauss estimate of int_a^b f; f must accept arrays."""
    x, w = gauss_rule(n)
    return (b - a) * float(np.dot(w, f(a + (b - a) * x)))


def adaptive(f, a: float, b: float, rel_tol: float = 1e-8,
             abs_floor: float = 0.0, max_depth: int = 52) -> float:
    """Adaptive Gauss quadrature on a finite interval.

    Each subinterval is accepted when one halving changes its estimate by
    at most rel_tol (relative to the running total scale) or abs_floor.
    Raises NonConvergedQuadrature when the depth cap is hit.
    """
    if b <= a:
        return 0.0
    whole = fixed_gauss(f, a, b)
    scale = max(abs(whole), abs_floor / max(rel_tol, 1e-300), 1e-300)

    def recurse(lo, hi, est, depth):
        mid = 0.5 * (lo + hi)
        left = fixed_gauss(f, lo, mid)
        right = fixed_gauss(f, mid, hi)
        better = left + right
        err = abs(better - est)
        local_tol = max(rel_tol * scale * (hi - lo) / (b - a), abs_floor * (hi - lo) / (b - a))
        if err <= local_tol or err <= 1e-16 * scale \
                or err <= 64.0 * np.finfo(float).eps * (abs(est) + abs(better)):
            return better
        if depth >= max_depth:
            raise NonConvergedQuadrature(
                f"interval [{lo}, {hi}] not converged at depth {depth} (err {err:.2e})")
        return recurse(lo, mid, left, depth + 1) + recurse(mid, hi, right, depth + 1)

    return recurse(a, b, whole, 0)


def adaptive_power(f, a: float, b: float, rel_tol: float = 1e-8,
                   p_left: float | None = None, p_right: float | None = None,
                   abs_floor: float = 0.0) -> float:
    """Adaptive quadrature with known algebraic behavior at one endpoint removed.

    p_left or p_right (not both) gives the local exponent of f near that
    endpoint (f ~ (x-a)^p with p > -1); the substitution x = x0 + sign t^m
    from it, (x0, sign) = (a, +1) or (b, -1), with m(1+p) >= 2 makes the
    transformed integrand vanish there.
    """
    if p_left is not None and p_right is not None:
        raise BadParameters("adaptive_power takes p_left or p_right, not both")
    if b <= a:
        return 0.0
    if p_left is None and p_right is None:
        return adaptive(f, a, b, rel_tol, abs_floor=abs_floor)
    p, x0, sign = (p_left, a, 1.0) if p_left is not None else (p_right, b, -1.0)
    if p <= -1.0:
        raise NonConvergedQuadrature(f"endpoint exponent {p} not integrable")
    m = max(1.0, np.ceil(2.0 / (1.0 + p)))
    span = (b - a) ** (1.0 / m)

    def g(t):
        return f(x0 + sign * t ** m) * m * t ** (m - 1.0)

    return adaptive(g, 0.0, span, rel_tol, abs_floor=abs_floor)


def cos_tail(p: float, x0: float, tol: float = 1e-10) -> float:
    """int_{x0}^inf cos(x) x^(-p) dx for p > 0, x0 > 0.

    Integration by parts twice per round raises the decay rate by 2; once
    the exponent exceeds 5 the remainder beyond a finite cut is below an
    envelope bound and the finite part is integrated adaptively per period.
    """
    if p > 5.0:
        # envelope |int_X^inf| <= X^(-p)/(p-1)-ish; cut where it is < tol
        cut = max(x0 + 4 * np.pi, (1.0 / tol) ** (1.0 / p))
        return adaptive(lambda x: np.cos(x) * x ** (-p), x0, cut, rel_tol=min(1e-10, tol),
                        abs_floor=tol * 0.1)
    # int_{x0}^inf cos(x) x^-p dx = -sin(x0) x0^-p + p * int sin(x) x^-(p+1)
    # int_{x0}^inf sin(x) x^-q dx = cos(x0) x0^-q - q * int cos(x) x^-(q+1)
    q = p + 1.0
    s_part = np.cos(x0) * x0 ** (-q) - q * cos_tail(q + 1.0, x0, tol)
    return -np.sin(x0) * x0 ** (-p) + p * s_part
