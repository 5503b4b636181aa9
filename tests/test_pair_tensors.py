"""Pair tensors and cell-pair integrals against mpmath.

The chunked P1 tensors are also checked bitwise against the former one-shot
construction, kept here as the reference.

The grid tensors are checked at 30 digits: a cell pair (E, F) at
separation d, unit h, is integrated line by line
along t = eta - xi: the integrand restricted to a line is a polynomial of
degree <= 2 in xi, which 3-point Gauss integrates exactly, and the outer
integral over the kernel (d + t)^(-1-2s) is mpmath's tanh-sinh rule.  Each
half t < 0, t > 0 is written in the line length w, so the endpoint
singularity of the touching pair (d = 1) sits at w = 0 with no cancellation,
and w = v^10 on t < 0 makes it integrable in v for every s < 1/2 (P0) and
smooth for P1, where the integrand vanishes like w^(2-2s).

``fracops.pair_integral`` for general cells, and the point-to-cell
``fracops.cell_moments`` and ``interval_mass``, are checked against their
closed forms evaluated at 50 digits, where the cancellation that the double
precision routines avoid costs nothing.
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from mixedfrac import assembly
from mixedfrac import quadrature as quad
from mixedfrac.assembly import _p0_pair_values, _p1_adjacent_local, _p1_far_tensors
from mixedfrac.fracops import (GAUSS_ORDERS, _complement, cell_moments, gauss_order,
                               interval_mass, pair_integral)

mp.mp.dps = 30
SEPARATIONS = (1, 2, 10, 1000, 10000)
RTOL = 1e-13
HATS = (lambda x: 1 - x, lambda x: x)
GAUSS3 = [(mp.mpf(1) / 2 - mp.sqrt(15) / 10, mp.mpf(5) / 18), (mp.mpf(1) / 2, mp.mpf(8) / 18),
          (mp.mpf(1) / 2 + mp.sqrt(15) / 10, mp.mpf(5) / 18)]


def line_integral(d, s, F):
    """int_0^1 int_0^1 F(xi, eta) (d + eta - xi)^(-1-2s) dxi deta."""
    alpha = -1 - 2 * mp.mpf(s)

    def line(w, t, xi0):
        """int of F(xi, xi + t) over xi in [xi0, xi0 + w]."""
        return w * sum(c * F(xi0 + w * x, xi0 + w * x + t) for x, c in GAUSS3)

    def left(v):
        w = v ** 10
        return line(w, w - 1, 1 - w) * (d - 1 + w) ** alpha * 10 * v ** 9

    right = mp.quad(lambda w: line(w, 1 - w, 0) * (d + 1 - w) ** alpha, [0, 1])
    return mp.quad(left, [0, 1]) + right


def _assert_close(got, ref):
    ref = np.array(ref, dtype=float)
    assert np.all(np.abs(got - ref) <= RTOL * np.abs(ref)), (got, ref)


@pytest.mark.parametrize("s", (0.01, 0.25, 0.5, 0.75, 0.99))
def test_p1_far_tensors_match_mpmath(s):
    # assembly uses Gauss order 20 at every separation and 28 up to d = 41
    far = [d for d in SEPARATIONS if d >= 2]
    rules = [(_p1_far_tensors(max(far), s, 1.0, 20), max(far)),
             (_p1_far_tensors(41, s, 1.0, 28), 41)]
    for d in far:
        ref_A = np.array([[line_integral(d, s, lambda x, y: HATS[a](x) * HATS[c](x))
                           for c in range(2)] for a in range(2)], dtype=float)
        ref_B = [[line_integral(d, s, lambda x, y: HATS[a](x) * HATS[b](y))
                  for b in range(2)] for a in range(2)]
        for (A, B, D), d_max in rules:
            if d <= d_max:
                # reflecting both cells swaps the hats: D(d)[b, e] = A(d)[1-b, 1-e]
                _assert_close(A[d - 2], ref_A)
                _assert_close(D[d - 2], ref_A[::-1, ::-1])
                _assert_close(B[d - 2], ref_B)


@lru_cache(maxsize=None)
def one_shot_far_tensors(n_sep, s, h, g):
    """The former construction: all separations in one (n_sep - 1, g, g) array."""
    X, W = quad.gauss_rule(g)
    lam = np.stack([1.0 - X, X])                       # (2, g)
    ds = np.arange(2, n_sep + 1, dtype=float)
    kv = (ds[:, None, None] + X[None, None, :] - X[None, :, None]) ** (-1.0 - 2 * s)
    kw = kv * (W[:, None] * W[None, :])[None, :, :]
    row = kw.sum(axis=2)                               # (nd, g): sum over y-nodes
    col = kw.sum(axis=1)                               # (nd, g): sum over x-nodes
    A = np.einsum("ap,cp,dp->dac", lam, lam, row)
    D = np.einsum("bq,eq,dq->dbe", lam, lam, col)
    B = np.einsum("ap,bq,dpq->dab", lam, lam, kw)
    scale = h ** (1.0 - 2 * s)
    return A * scale, B * scale, D * scale


C = assembly._CHUNK
N_SEPS = (2, 41, C, C + 1, C + 2, 2 * C + 1, 2759)


@pytest.mark.parametrize("descending", (False, True))
@pytest.mark.parametrize("g", (20, 28))
@pytest.mark.parametrize("s", (0.3, 0.75))
def test_stored_far_tensors_equal_one_shot(s, g, descending):
    # chunked, in either order of requests, the tensors must not move one bit
    for n_sep in sorted(N_SEPS, reverse=descending):
        got = _p1_far_tensors(n_sep, s, 0.05, g)
        ref = one_shot_far_tensors(n_sep, s, 0.05, g)
        assert all(np.array_equal(x, y) for x, y in zip(got, ref, strict=True)), n_sep


@pytest.mark.parametrize("s", (0.01, 0.25, 0.5, 0.75, 0.99))
def test_p1_adjacent_local_matches_mpmath(s):
    # touching cells E = [0, 1] and F = [1, 2] (y = 1 + eta) carry the hats
    # of nodes 0, 1, 2
    on_E = (lambda x: 1 - x, lambda x: x, lambda x: 0)
    on_F = (lambda y: 0, lambda y: 1 - y, lambda y: y)
    ref = [[line_integral(1, s, lambda x, y: (on_E[i](x) - on_F[i](y)) * (on_E[j](x) - on_F[j](y)))
            for j in range(3)] for i in range(3)]
    _assert_close(_p1_adjacent_local(s, 1.0, g=64), ref)


@pytest.mark.parametrize("s", (0.01, 0.25, 0.45))
def test_p0_pair_values_match_mpmath(s):
    h = 2.0 ** -9
    f = _p0_pair_values(max(SEPARATIONS), s, h)
    scale = mp.mpf(h) ** (1 - 2 * mp.mpf(s))
    _assert_close(f[np.array(SEPARATIONS) - 1],
                  [scale * line_integral(d, s, lambda x, y: 1) for d in SEPARATIONS])


def test_p0_pair_values_do_not_depend_on_n_sep():
    # d >= 2 is one GEMV, whose last partial block of rows rounds its own way;
    # a cold P0 base asks for d_max values, its former construction for n - 1
    ref = _p0_pair_values(4 * C, 0.25, 2.0 ** -9)
    for n_sep in range(1, 2 * C + 3):
        assert np.array_equal(_p0_pair_values(n_sep, 0.25, 2.0 ** -9), ref[:n_sep]), n_sep


# ---------------------------------------------------------------------------
# fracops.pair_integral
# ---------------------------------------------------------------------------

S_ALL = (0.01, 0.25, 0.5, 0.75, 0.99)
S_TOUCH = (0.01, 0.25, 0.45)
INF = math.inf


def mp_pair(cell_a, cell_b, s):
    """Closed form: +-F over the four corner distances, F'' = t^(-1-2s), F(0) = 0.

    Infinite distances come in pairs whose F terms cancel in the limit, so
    they are dropped.
    """
    (p, q), (r, u) = sorted([cell_a, cell_b])
    with mp.workdps(50):
        s = mp.mpf(s)

        def F(t):
            if t == 0:
                return mp.mpf(0)
            return -mp.log(t) if s == 0.5 else t ** (1 - 2 * s) / (2 * s * (2 * s - 1))

        corners = [(1, u, p), (-1, u, q), (-1, r, p), (1, r, q)]
        return sum(sign * F(mp.mpf(hi) - mp.mpf(lo)) for sign, hi, lo in corners
                    if math.isfinite(hi - lo))


def _check(pairs, s):
    for a, b in pairs:
        got, ref = pair_integral(a, b, s), mp_pair(a, b, s)
        assert abs(got - ref) <= 1e-13 * abs(ref), (a, b, s, got, float(ref))


@pytest.mark.parametrize("s", S_ALL)
def test_pair_integral_unit_cells_match_mpmath(s):
    # the closed form loses log10(d^2) digits: 1.7e-7 at d = 1e4, s = 0.45
    _check([((0.0, 1.0), (d, d + 1.0)) for d in SEPARATIONS if d > 1 or s < 0.5], s)


@pytest.mark.parametrize("s", S_ALL)
def test_pair_integral_unequal_widths_match_mpmath(s):
    # gaps from well inside the near (closed form) range to 1e4 widths, the
    # narrow cell on either side
    pairs = []
    for g in (0.1, 0.3, 2.4, 2.5, 10.0, 2.5e3, 2.5e4):
        pairs += [((0.0, 1.0), (1.0 + g, 3.5 + g)), ((-2.5 - g, -g), (0.0, 1.0))]
    _check(pairs, s)


@pytest.mark.parametrize("s", S_TOUCH)
def test_pair_integral_touching_match_mpmath(s):
    _check([((-1.0, 0.0), (0.0, 1.0)), ((0.0, 0.25), (0.25, 3.0)),
            ((-3.0, 0.0), (0.0, 1e-3))], s)


@pytest.mark.parametrize("s", S_ALL)
def test_pair_integral_half_line_matches_mpmath(s):
    gaps = (0.5, 1.0, 1e3, 1e4) + ((0.0,) if s < 0.5 else ())
    _check([((0.0, 1.0), (1.0 + g, INF)) for g in gaps]
           + [((-INF, -g), (0.0, 1.0)) for g in gaps], s)
    if s > 0.5:
        _check([((-INF, 0.0), (g, INF)) for g in (0.5, 1e4)], s)


@pytest.mark.parametrize("s", S_TOUCH)
def test_pair_integral_over_complement_of_unbounded_union(s):
    union = [(-INF, -1.0), (0.5, 2.0), (3.0, INF)]
    comp = _complement(union)
    assert comp == [(-1.0, 0.5), (2.0, 3.0)]
    assert _complement([(-INF, 0.0), (1.0, INF)]) == [(0.0, 1.0)]
    got = sum(pair_integral(c, om, s) for c in comp for om in union)
    with mp.workdps(50):
        ref = sum(mp_pair(c, om, s) for c in comp for om in union)
    assert abs(got - ref) <= 1e-13 * abs(ref)


def test_pair_integral_vectorizes():
    d = np.array([1.0, 1.5, 2.0, 7.0, 1e4])
    got = pair_integral((0.0, 1.0), (d, d + 1.0 + 0.5 * (d > 5)), 0.25)
    ref = [pair_integral((0.0, 1.0), (x, x + 1.0 + 0.5 * (x > 5)), 0.25) for x in d]
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))


# ---------------------------------------------------------------------------
# fracops.cell_moments and interval_mass: a point against a cell
# ---------------------------------------------------------------------------

def mp_moments(t0, h, s):
    """(mass, near, far) of t^(-1-2s) over [t0, t0 + h] in closed form at 50 digits."""
    with mp.workdps(50):
        t0, h, s = mp.mpf(t0), mp.mpf(h), mp.mpf(s)
        t1 = t0 + h
        mass = (t0 ** (-2 * s) - t1 ** (-2 * s)) / (2 * s)
        first = (mp.log(t1 / t0) if s == 0.5
                 else (t1 ** (1 - 2 * s) - t0 ** (1 - 2 * s)) / (1 - 2 * s))
        return mass, (t1 * mass - first) / h, (first - t0 * mass) / h


@pytest.mark.parametrize("s", S_ALL)
def test_cell_moments_match_mpmath(s):
    h = 0.02
    # 3, 30, 3e3 and 3e5 widths off take 12, 8, 6 and 4 Gauss points
    t0 = h * np.array([1e-10, 1e-4, 0.3, 1.0, 1.5, 3.0, 30.0, 1e3, 3e3, 3e5, 1e6])
    got = np.array(cell_moments(t0, h, s))
    _assert_close(got, np.transpose([mp_moments(t, h, s) for t in t0]))
    grid = np.array(cell_moments(t0.reshape(1, -1), np.full((2, 1), h), s))
    assert grid.shape == (3, 2, len(t0)) and np.array_equal(grid[:, 1], got)


def test_gauss_order_follows_the_distance():
    x = np.r_[0.0, np.linspace(0.5, 1.999, 7), np.geomspace(2.0, 1e8, 400), np.inf]
    g = gauss_order(x)
    assert set(g) <= set(GAUSS_ORDERS) and g.shape == x.shape
    assert np.all(g[x < 2] == 20) and np.all(g[x >= 2] < 20)
    assert np.all(np.diff(g) <= 0)
    assert set(g) == set(GAUSS_ORDERS)           # every order is taken somewhere
    # g - 2 nodes meet rho^(-2 (g - 2)) <= 1e-17, and the next smaller order's do not
    far = (x >= 2) & np.isfinite(x)
    a = 2 * x[far] + 1
    log_rho = np.log(a + np.sqrt(a * a - 1))
    assert np.all(-2 * (g[far] - 2) * log_rho <= math.log(1e-17))
    table = np.array(GAUSS_ORDERS)
    smaller = table[np.maximum(np.searchsorted(table, g[far]) - 1, 0)]
    above = smaller < g[far]
    assert np.all(-2 * (smaller[above] - 2) * log_rho[above] > math.log(1e-17))
    assert gauss_order(5.0).ndim == 0 and gauss_order(5.0) == 12


@pytest.mark.parametrize("s", S_ALL)
def test_interval_mass_matches_mpmath(s):
    # a unit interval 1e4 widths away, seen from either side
    p, q = 1e4, 1e4 + 1.0
    x = np.array([0.0, 1e4 - 0.5, 1e4 + 1.5, 2e4 + 1.0])
    with mp.workdps(50):
        a = 2 * mp.mpf(s)
        near = [mp.mpf(p) - mp.mpf(v) if v < p else mp.mpf(v) - mp.mpf(q) for v in x]
        ref = [(d ** -a - (d + 1) ** -a) / a for d in near]
    _assert_close(interval_mass(x, [(p, q)], 2 * s), ref)
    # half-lines stay exactly dist^(-alpha)/alpha, so assembly's tails are unchanged
    a = 2 * s
    assert np.array_equal(interval_mass(x[:2], [(p, INF)], a), (p - x[:2]) ** -a / a)
    assert np.array_equal(interval_mass(x[2:], [(-INF, q)], a), (x[2:] - q) ** -a / a)
