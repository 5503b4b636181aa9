"""Parity of the arrow-stored operator with the dense assembly it replaced.

The reference below is the former dense path, kept as a test oracle: the
label-independent stiffness over all m grid DOFs built by stripe adds, the
free x free extraction with ``np.ix_``, the per-cell mass and far-field
tail loops, and a dense Schur complement.  It is only run on meshes of at
most 400 DOFs, except for the bitwise check of the P1 arrow pair, which also
covers a 577-DOF mesh, a 529-DOF long-collar mesh and the 2761-DOF mesh of
the criterion-7 sweep.  The P0 line is checked against the former gathered
P0 base (pair values to n - 1 and a fancy-index gather): its Toeplitz view
and K_II bitwise, the exterior mass to a few ulps.  The P1 band terms are
checked against their former summation, one masked block per chunk of
separations over every Omega column, on the benchmark's P1 meshes.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from conftest import band, dense
from mixedfrac import (
    Domain1D,
    PartitionFamily,
    assemble,
    build_mesh,
    full_dirichlet_partition,
    generate,
    make_order,
    schur_reduce,
    smallest_eigenpair,
)
from mixedfrac import assembly
from mixedfrac import quadrature as quad
from mixedfrac.fracops import interval_mass, pair_integral
from mixedfrac.assembly import (
    DOF_DIRICHLET,
    DOF_INTERIOR,
    DOF_NEUMANN,
    _band_terms,
    _base_arrow,
    _base_key,
    _build_base,
    _full_line,
    _line_rows,
    _omega_mass,
    _p0_pair_values,
    _p1_adjacent_local,
    _p1_far_tensors,
    _p1_same_cell_coeff,
    assembly_path,
    band_matvec,
)

OM = Domain1D(0.0, 1.0)
H, L = 0.05, 4.0


def _ranges(d, c_lo, c_hi, n):
    """i-ranges (inclusive pieces) of pairs (i, i+d) meeting the interior block."""
    a1, b1 = max(0, c_lo - d), min(n - 1 - d, c_hi - d)
    a2, b2 = max(0, c_lo), min(n - 1 - d, c_hi)
    if a1 > b1:
        return [(a2, b2)] if a2 <= b2 else []
    if a2 > b2:
        return [(a1, b1)]
    if a2 <= b1 + 1:
        return [(min(a1, a2), max(b1, b2))]
    return [(a1, b1), (a2, b2)]


def _stripe_add(K, lo, hi, row_off, col_off, value):
    """K[i + row_off, i + col_off] += value for i in [lo, hi)."""
    if hi <= lo:
        return
    m = K.shape[0]
    start = (lo + row_off) * m + (lo + col_off)
    stop = (hi - 1 + row_off) * m + (hi - 1 + col_off) + 1
    K.ravel()[start:stop:m + 1] += value


def reference_base(disc, order):
    """Dense label-independent stiffness over all grid DOFs."""
    s, a_ns, h = order.s, order.a_ns, disc.h
    n = disc.n_cells
    c_lo, c_hi = disc.interior_cells
    if disc.scheme == "P0":
        f = _p0_pair_values(n - 1, s, h)
        K = np.zeros((n, n))
        for d in range(1, n):
            v = -a_ns * f[d - 1]
            for (lo, hi) in _ranges(d, c_lo, c_hi, n):
                _stripe_add(K, lo, hi + 1, 0, d, v)
                _stripe_add(K, lo, hi + 1, d, 0, v)
        K[np.diag_indices(n)] = -K.sum(axis=1)
        return K
    Af, Bf, Df = _p1_far_tensors(n - 1, s, h, 20)
    A2, B2, D2 = _p1_far_tensors(min(n - 1, 41), s, h, 28)
    nd = A2.shape[0]
    Af[:nd], Bf[:nd], Df[:nd] = A2, B2, D2
    m = n + 1
    K = np.zeros((m, m))
    v0 = 0.5 * a_ns * _p1_same_cell_coeff(s, h)
    for (ro, co, sg) in ((0, 0, 1.0), (1, 1, 1.0), (0, 1, -1.0), (1, 0, -1.0)):
        _stripe_add(K, c_lo, c_hi + 1, ro, co, sg * v0)
    L1a = a_ns * _p1_adjacent_local(s, h, g=64)
    for (lo, hi) in _ranges(1, c_lo, c_hi, n):
        for r in range(3):
            for c in range(3):
                _stripe_add(K, lo, hi + 1, r, c, L1a[r, c])
    for d in range(2, n):
        Ad, Bd, Dd = a_ns * Af[d - 2], a_ns * Bf[d - 2], a_ns * Df[d - 2]
        for (lo, hi) in _ranges(d, c_lo, c_hi, n):
            for r in range(2):
                for c in range(2):
                    _stripe_add(K, lo, hi + 1, r, c, Ad[r, c])
                    _stripe_add(K, lo, hi + 1, d + r, d + c, Dd[r, c])
                    _stripe_add(K, lo, hi + 1, r, d + c, -Bd[r, c])
                    _stripe_add(K, lo, hi + 1, d + r, c, -Bd[c, r])
    return np.triu(K) + np.triu(K, 1).T


def reference_mass(disc):
    n = disc.n_cells
    i0, i1 = disc.interior_cells
    h = disc.h
    if disc.scheme == "P0":
        M = np.zeros((n, n))
        idx = np.arange(i0, i1 + 1)
        M[idx, idx] = h
        return M
    M = np.zeros((n + 1, n + 1))
    for e in range(i0, i1 + 1):
        M[e, e] += h / 3.0
        M[e + 1, e + 1] += h / 3.0
        M[e, e + 1] += h / 6.0
        M[e + 1, e] += h / 6.0
    return M


def reference_assemble(disc, order):
    """(K, M, tails, dirichlet_row_sums) over the free DOFs, densely."""
    base = reference_base(disc, order)
    free = np.where(disc.dof_label < DOF_DIRICHLET)[0]
    constrained = np.where(disc.dof_label == DOF_DIRICHLET)[0]
    K = base[np.ix_(free, free)].copy()
    M = reference_mass(disc)[np.ix_(free, free)]
    row_sums = base[constrained][:, free].sum(axis=0)
    tails = np.zeros(len(free))
    if "D" in disc.far_label:
        pos_of = {int(g): i for i, g in enumerate(free)}
        i0, i1 = disc.interior_cells
        Xg, Wg = quad.gauss_rule(8)
        lam = np.stack([1.0 - Xg, Xg])
        for e in range(i0, i1 + 1):
            tau = interval_mass(disc.nodes[e] + disc.h * Xg, disc.far_dirichlet, 2.0 * order.s)
            if disc.scheme == "P0":
                val = order.a_ns * disc.h * float(Wg @ tau)
                i = pos_of.get(e)
                if i is not None:
                    K[i, i] += val
                    tails[i] += val
                continue
            local = order.a_ns * disc.h * np.einsum("p,ap,bp->ab", Wg * tau, lam, lam)
            local[1, 0] = local[0, 1]
            for r in range(2):
                for c in range(2):
                    ir, ic = pos_of.get(e + r), pos_of.get(e + c)
                    if ir is not None and ic is not None:
                        K[ir, ic] += local[r, c]
                        if ir == ic and r == c:
                            tails[ir] += local[r, c]
    return K, M, tails, row_sums


def reference_lambda(K, M, interior, exterior, solver_tol=1e-12):
    """Principal eigenvalue through a dense Schur complement."""
    iI, iE = np.where(interior)[0], np.where(exterior)[0]
    K_eff = K[np.ix_(iI, iI)]
    if len(iE):
        K_IE = K[np.ix_(iI, iE)]
        K_eff = K_eff - K_IE @ cho_solve(cho_factor(K[np.ix_(iE, iE)]), K_IE.T)
        K_eff = 0.5 * (K_eff + K_eff.T)
    return smallest_eigenpair(K_eff, band(M[np.ix_(iI, iI)]), tol=solver_tol).value


def former_blocks(disc, order):
    """(K_II, K_IE, dirichlet_row_sums) as ``assemble`` cut them before slices.

    The Omega block copied whole with its far-field tails, then cut with
    ``np.ix_``, and the Omega rows of K 1_D as a GEMV of all of R.  P0 reads
    R through the line, its diagonal T(0) = 0 replaced by the negated row
    sum; no P0 row of K 1_D that is kept reads the exterior band.
    """
    key = _base_key(disc, order)
    if disc.scheme == "P0":
        R = _line_rows(_full_line(*key), disc.n_collar, disc.n_interior)
        ext = np.zeros((2, R.shape[1]))
    else:
        R, ext = _base_arrow(*key)
    omega_dofs = slice(disc.n_collar, disc.n_collar + R.shape[0])
    free = np.where(disc.dof_label < DOF_DIRICHLET)[0]
    interior = disc.dof_label[free] == DOF_INTERIOR
    rows = free[interior] - disc.n_collar
    cols_E = free[disc.dof_label[free] == DOF_NEUMANN]
    K_om = R[:, omega_dofs].copy()
    if disc.scheme == "P0":
        K_om[np.diag_indices(len(K_om))] = -R.sum(axis=1)
    if disc.far_dirichlet:
        i0, i1 = disc.interior_cells
        Xg, Wg = quad.gauss_rule(8)
        wtau = Wg * interval_mass(disc.nodes[i0:i1 + 1, None] + disc.h * Xg,
                                  disc.far_dirichlet, 2.0 * order.s)
        e = np.arange(disc.n_interior)
        if disc.scheme == "P0":
            K_om[e, e] += order.a_ns * disc.h * wtau.sum(axis=1)
        else:
            lam = np.stack([1.0 - Xg, Xg])
            local = order.a_ns * disc.h * np.einsum("ep,ap,bp->eab", wtau, lam, lam)
            for r, c in ((1, 1), (0, 0), (0, 1)):
                K_om[e + r, e + c] += local[:, r, c]
                if r != c:
                    K_om[e + c, e + r] += local[:, r, c]
    x = (disc.dof_label == DOF_DIRICHLET).astype(float)
    Kx = band_matvec(ext, x) + x[omega_dofs] @ R
    Kx[omega_dofs] = R @ x
    return K_om[np.ix_(rows, rows)], R[np.ix_(rows, cols_E)], Kx[free]


def explicit(**kw):
    return generate(PartitionFamily(kind="explicit", omega=OM, params=kw), 0)


PARTITIONS = {
    "dirichlet": lambda: full_dirichlet_partition(OM),
    "neumann": lambda: explicit(neumann="rest", dirichlet=[]),
    "mixed": lambda: explicit(neumann=[[1.0, 2.0]], dirichlet="rest"),
    # both P1 end nodes of Omega are Dirichlet, with Neumann DOFs beyond
    "mixed_gap": lambda: explicit(neumann=[[2.0, 3.0]], dirichlet="rest"),
    "mixed_far": lambda: explicit(dirichlet=[[-math.inf, -0.5]], neumann="rest"),
}
CASES = [("P0", 0.25, p) for p in PARTITIONS] + \
    [("P1", s, p) for s in (0.25, 0.5, 0.75) for p in PARTITIONS]


def _close(got, ref, rtol):
    return np.all(np.abs(got - ref) <= rtol * np.abs(ref))


@pytest.mark.parametrize("scheme,s,part", CASES)
def test_arrow_matches_dense_reference(scheme, s, part):
    order = make_order(1, s)
    disc = build_mesh(OM, PARTITIONS[part](), H, L, scheme, order=order)
    assert disc.n_dofs <= 400
    system = assemble(disc, order)
    K_ref, M_ref, tails_ref, rows_ref = reference_assemble(disc, order)
    K, M = dense(system)

    assert _close(K, K_ref, 1e-14)
    assert np.array_equal(K, K.T)
    assert np.array_equal(M, M_ref)
    assert _close(system.tail_corrections, tails_ref, 1e-14)
    scale = np.abs(K_ref).sum()
    assert np.all(np.abs(system.dirichlet_row_sums - rows_ref) <= 1e-14 * scale)
    former = former_blocks(disc, order)
    got = system.K_II, system.K_IE, system.dirichlet_row_sums
    if assembly_path(disc) == "arrow":
        # the slice cuts reproduce the former np.ix_ gathers and GEMV bitwise
        for block, ref in zip(got, former):
            assert np.array_equal(block, ref)
    else:
        # the closed form: T's blocks and the row sums from K 1 = 0; P0's
        # blocks are the line's own, bitwise
        assert scheme == "P0" or part in ("dirichlet", "mixed_gap")
        (K_II, K_IE, rows), (K_II_ref, K_IE_ref, rows_ref) = got, former
        if scheme == "P0":
            assert np.array_equal(K_II, K_II_ref) and np.array_equal(K_IE, K_IE_ref)
        assert np.abs(K_II - K_II_ref).max() <= 1e-14 * np.abs(K_II_ref).max()
        assert _close(K_IE, K_IE_ref, 1e-14)
        # with no Dirichlet cell P0's rows are 0, and K 1 = 0 leaves the
        # rounding of its terms, which the diagonal bounds
        scale = np.abs(rows_ref).max() if scheme == "P1" else np.abs(K_II_ref).max()
        assert np.abs(rows - rows_ref).max() <= 1e-14 * scale
    assert system.M_II.shape == (2, len(system.K_II))

    K_eff = schur_reduce(system).dense()
    assert np.array_equal(K_eff, K_eff.T)
    iI, iE = np.where(system.interior_mask)[0], np.where(system.exterior_mask)[0]
    if part == "dirichlet":
        assert len(iE) == 0 and np.array_equal(K_eff, system.K_II)
    else:
        K_schur = K[np.ix_(iI, iI)] - K[np.ix_(iI, iE)] @ np.linalg.solve(
            K[np.ix_(iE, iE)], K[np.ix_(iE, iI)])
        assert np.abs(K_eff - K_schur).max() <= 1e-13 * np.abs(K_schur).max()
    lam = smallest_eigenpair(K_eff, system.M_II).value
    lam_ref = reference_lambda(K_ref, M_ref, system.interior_mask, system.exterior_mask)
    assert abs(lam - lam_ref) <= 1e-12 * abs(lam_ref)


# n_int = 20 and 64; 65 and 129, where the pairs (i, i + d) meeting Omega
# split into two pieces at a chunk edge (d = n_int + 1); 1, 2 and 3, where
# they split from d = 2, 3, 4 on and the d = 2 term lands on the ends of the
# superdiagonal; n_int = 16 with a 256-cell collar, where the tensors stop
# at d_max = 271 of n - 1 = 527; and the 2761-DOF criterion-7 mesh
@pytest.mark.parametrize("a,b,h,L,s", [(0.0, 1.0, H, L, s) for s in (0.25, 0.3, 0.5, 0.7, 0.75)]
                         + [(0.0, 1.0, 1 / n, 4.0, s)
                            for n in (64, 1, 2, 3, 65, 129) for s in (0.3, 0.75)]
                         + [(0.0, 1.0, 1 / 16, 16.0, s) for s in (0.3, 0.75)]
                         + [(-1.0, 1.0, 0.05, 68.0, 0.75)])
def test_p1_arrow_bitwise_equals_dense_reference(a, b, h, L, s):
    om, order = Domain1D(a, b), make_order(1, s)
    disc = build_mesh(om, full_dirichlet_partition(om), h, L, "P1", order=order)
    K = reference_base(disc, order)
    c_lo, c_hi = disc.interior_cells
    ext = np.stack([np.concatenate(([0.0], np.diag(K, 1))), np.diag(K)])
    ext[1, c_lo:c_hi + 2] = 0.0
    ext[0, c_lo:c_hi + 3] = 0.0
    R_got, ext_got = _base_arrow(a, b, h, L, "P1", s, order.a_ns)
    assert np.array_equal(R_got, K[c_lo:c_hi + 2])
    assert np.array_equal(ext_got, ext)


def former_band_terms(diag, sup, A, B, D, c_lo, c_hi):
    """``_band_terms`` as it summed the Omega columns before the shared prefix.

    One block per chunk of separations over all 2 n_int + 3 columns, with
    the running values in its first row, masked by broadcast compares
    wherever a pair leaves the grid.
    """
    n, n_int = len(sup), c_hi - c_lo + 1

    # x(d) at index d <= d_max, zero for d < 2 (the touching pair is added already)
    a00, a11, a01, d00, d11, d01 = (np.r_[0.0, 0.0, x] for x in (
        A[:, 0, 0], A[:, 1, 1], A[:, 0, 1], D[:, 0, 0], D[:, 1, 1], D[:, 0, 1]))
    # left nodes by u = c_lo - j = 1..c_lo (node 0, the last, has no A11);
    # right nodes by e = j - c_hi - 1 = 1..m (node n, the last, has no D00)
    left, right, m = diag[:c_lo][::-1], diag[c_hi + 2:], n - c_hi - 1
    left += a00[1:c_lo + 1]
    right += d11[1:m + 1]
    for t in range(1, n_int):
        left += a00[1 + t:c_lo + 1 + t]
        left[:-1] += a11[1 + t:c_lo + t]
        right[:-1] += d00[1 + t:m + t]
        right += d11[1 + t:m + 1 + t]
    left[:-1] += a11[1 + n_int:c_lo + n_int]
    right[:-1] += d00[1 + n_int:m + n_int]
    # sup[j]: A01 from d = c_lo - j left of Omega, D01 from d = j - c_hi right
    left, right = sup[:c_lo - 1][::-1], sup[c_hi + 2:]
    for t in range(n_int):
        left += a01[2 + t:c_lo + 1 + t]
        right += d01[2 + t:m + 1 + t]

    # Omega: a column per node c_lo..c_hi+1 (diag), then per sup entry
    # c_lo-1..c_hi+1, x its index.  Per d the rows are [A00 | A01], [D00 |
    # D01], [A11 | -B10 (d = 2 only)], [D11 | 0], each the term of the pair
    # (i, i + d) with i = x - off; past n_int the D rows, whose pairs have
    # their right cell in Omega, go first: rows 1, 3, 0, 2
    x = np.r_[c_lo:c_hi + 2, c_lo - 1:c_hi + 2]
    ds = np.arange(2, max(c_hi, n - 1 - c_lo) + 1)
    vals = np.zeros((len(ds), 4, 2))
    vals[:, 0], vals[:, 1] = A[ds - 2, 0], D[ds - 2, 0]
    vals[:, 2, 0], vals[:, 3, 0] = A[ds - 2, 1, 1], D[ds - 2, 1, 1]
    vals[0, 2, 1] = -B[0, 1, 0]
    off = ([0, 0, 1, 1] + ds[:, None] * [0, 1, 0, 1])[:, :, None]
    past = (ds > n_int)[:, None, None]
    vals = np.where(past, vals[:, [1, 3, 0, 2]], vals)
    off = np.where(past, off[:, [1, 3, 0, 2]], off)
    # a pair misses Omega only at the end columns, and leaves the grid only
    # at the largest d; the terms of those pairs are zero
    ends = np.flatnonzero(np.isin(x, (c_lo - 1, c_lo, c_hi + 1)))
    i, d = x[ends] - off, ds[:, None, None]
    at_ends = np.where(ends <= n_int, vals[:, :, :1], vals[:, :, 1:]) * (
        (c_lo <= i) & (i <= c_hi) | (c_lo <= i + d) & (i + d <= c_hi))
    run = np.r_[diag[c_lo:c_hi + 2], sup[c_lo - 1:c_hi + 2]]
    for lo in range(0, len(ds), 64):
        c = slice(lo, lo + 64)
        blk = np.empty((4 * len(ds[c]) + 1, len(x)))
        blk[0] = run
        rows = blk[1:].reshape(-1, 4, len(x))
        rows[:, :, :n_int + 1], rows[:, :, n_int + 1:] = vals[c, :, :1], vals[c, :, 1:]
        rows[:, :, ends] = at_ends[c]
        x_lo, x_hi = off[c], n - d[c] + off[c]        # on the grid: x_lo <= x < x_hi
        if x_lo.max() > x.min() or x_hi.min() <= x.max():
            rows *= (x_lo <= x) & (x < x_hi)
        run = np.add.reduce(blk, axis=0)
    diag[c_lo:c_hi + 2], sup[c_lo - 1:c_hi + 2] = run[:n_int + 1], run[n_int + 1:]


def band_inputs(monkeypatch, a, b, h, L, s):
    """The arguments that a cold ``_p1_arrow`` build hands to ``_band_terms``, copied.

    The caller takes the ``cold_caches`` fixture: the base built here has no band.
    """
    got = []
    monkeypatch.setattr(assembly, "_band_terms",
                        lambda diag, sup, *rest: got.append((diag.copy(), sup.copy(), *rest)))
    _build_base(a, b, h, L, "P1", s, make_order(1, s).a_ns)
    return got[0]


# the benchmark's P1 meshes: c4_nested at both s, collar_sector and c4_ball /
# c7 (n_int = 40), too large for the dense reference; and n_int = 1, 2, 3,
# where the Omega columns are all or nearly all end columns
BAND_MESHES = ([(-1.0, 1.0, 2.0 ** -8, 8.0, 0.3),
                (-1.0, 1.0, 2.0 ** -8, 8.0, 0.7),
                (-1.0, 1.0, 0.01, 36.0, 0.5),
                (-1.0, 1.0, 0.05, 68.0, 0.75)]
               + [(0.0, 1.0, 1 / n, 4.0, s) for n in (1, 2, 3) for s in (0.3, 0.75)])


@pytest.mark.parametrize("a,b,h,L,s", BAND_MESHES)
def test_band_terms_bitwise_equal_former(cold_caches, monkeypatch, a, b, h, L, s):
    diag, sup, *rest = band_inputs(monkeypatch, a, b, h, L, s)
    ref = diag.copy(), sup.copy()
    former_band_terms(*ref, *rest)
    _band_terms(diag, sup, *rest)
    assert np.array_equal(diag, ref[0]) and np.array_equal(sup, ref[1])


@pytest.mark.parametrize("a,b,h,L,s", BAND_MESHES + [(0.0, 1.0, 1 / 16, 4.0, 0.3)])
def test_band_terms_distinct_start_values(cold_caches, monkeypatch, a, b, h, L, s):
    # every node its own start value: one prefix sum per Omega column, and
    # no exterior window sum may assume a zero start
    diag, sup, *rest = band_inputs(monkeypatch, a, b, h, L, s)
    rng = np.random.default_rng(5)
    diag, sup = rng.standard_normal(diag.shape), rng.standard_normal(sup.shape)
    ref = diag.copy(), sup.copy()
    former_band_terms(*ref, *rest)
    _band_terms(diag, sup, *rest)
    assert np.array_equal(diag, ref[0]) and np.array_equal(sup, ref[1])


def test_band_terms_memory(cold_caches, monkeypatch):
    # the tail is summed a chunk of separations at a time: one block over
    # its 4 n_int rows and 2 n_int columns would be 16.7 MiB here
    diag, sup, *rest = band_inputs(monkeypatch, -1.0, 1.0, 2.0 ** -8, 8.0, 0.3)
    tracemalloc.start()
    try:
        _band_terms(diag, sup, *rest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def former_p0_base(disc, order):
    """The P0 arrow pair (R, ext), materialized as ``_build_base`` built it
    before the separation cap and the line: the independent reference.

    Pair values f(d), d = 1..n - 1, in one call, the rows gathered by a 2-D
    fancy index, the row sums on the diagonal and the column sums in ext.
    """
    n, a_ns, s = disc.n_cells, order.a_ns, order.s
    c_lo, c_hi = disc.interior_cells
    d = np.arange(1, n, dtype=float)
    f = disc.h ** (1.0 - 2 * s) * pair_integral((0.0, 1.0), (d, d + 1.0), s)
    v = np.concatenate(([0.0], -a_ns * f))
    cells = np.arange(n)
    R = v[np.abs(cells[c_lo:c_hi + 1, None] - cells)]
    R[np.arange(disc.n_interior), cells[c_lo:c_hi + 1]] = -R.sum(axis=1)
    ext = np.stack([np.zeros(n), -R.sum(axis=0)])
    ext[1, c_lo:c_hi + 1] = 0.0
    return R, ext


# the criterion-6 mesh, and n_int = 1, 2, 3 and 64 on Omega = (0, 1)
@pytest.mark.parametrize("h", [2.0 ** -9, 1.0, 1 / 2, 1 / 3, 1 / 64])
def test_p0_arrow_bitwise_equals_former_gather(h):
    # an all-Neumann exterior: no far-field tails, and every exterior cell in K_EE
    order = make_order(1, 0.25)
    disc = build_mesh(OM, explicit(neumann="rest", dirichlet=[]), h, 4.0, "P0", order=order)
    system = assemble(disc, order)
    R, ext = former_p0_base(disc, order)
    c_lo, c_hi = disc.interior_cells
    cells = np.arange(disc.n_interior)
    # the line view holds the former rows off their diagonal, where T(0) = 0
    off = np.ones(R.shape, dtype=bool)
    off[cells, c_lo + cells] = False
    assert np.array_equal(system.R_I[off], R[off]) and not np.any(system.R_I[~off])
    assert np.array_equal(system.K_II, R[:, c_lo:c_hi + 1])
    # K_EE and the Gram's exterior mass: the former column sums, and mirror-exact
    E = np.flatnonzero(ext[1])
    assert np.array_equal(system.free_dofs[system.exterior_mask], E)
    assert not np.any(system.K_EE[0])
    assert_exterior_mass(system.K_EE[1], R, ext, E)
    assert np.array_equal(_omega_mass(system.R_I, E), system.K_EE[1])


def assert_exterior_mass(got, R, ext, E):
    """got is mirror-exact and within 2 eps of the exactly rounded column sums of
    R, and so within 2 eps plus their own error of the former sequential sums
    (9.06 eps from exact on the criterion-6 mesh)."""
    eps = np.finfo(float).eps
    exact = np.array([-math.fsum(R[:, q]) for q in E])
    assert np.all(np.abs(got - exact) <= 2 * eps * exact)
    assert np.all(np.abs(got - ext[1, E]) <= 2 * eps * exact + np.abs(ext[1, E] - exact))
    assert np.array_equal(got, got[::-1])


@pytest.mark.parametrize("s", [0.05, 0.25, 0.45])
def test_p0_exterior_mass_on_a_long_collar(s):
    # n_int = 1 and 1024 cells a side: a cell's mass T(g) is the difference of
    # two tails of the cumulative sum that are up to g / (2s) times larger
    order = make_order(1, s)
    disc = build_mesh(OM, explicit(neumann="rest", dirichlet=[]), 1.0, 1024.0, "P0",
                      order=order)
    system = assemble(disc, order)
    R, ext = former_p0_base(disc, order)
    assert_exterior_mass(system.K_EE[1], R, ext, np.flatnonzero(ext[1]))


@pytest.mark.parametrize("scheme", ["P0", "P1"])
def test_cold_build_computes_separations_up_to_d_max(cold_caches, monkeypatch, scheme):
    # pairs that meet Omega span at most d_max = n_collar + n_int - 1 cells
    # (271 here, with 49% of 2..n-1 = 527 beyond it); nothing further is built
    s = 0.3
    order = make_order(1, s)
    disc = build_mesh(OM, full_dirichlet_partition(OM), 1 / 16, 16.0, scheme, order=order)
    d_max = disc.n_collar + disc.n_interior - 1
    requested, blocks = [], []
    p0_values, unit_block = assembly._p0_pair_values, assembly._unit_far_block
    monkeypatch.setattr(assembly, "_p0_pair_values",
                        lambda n_sep, *args: requested.append(n_sep) or p0_values(n_sep, *args))
    monkeypatch.setattr(assembly, "_unit_far_block",
                        lambda ds, s, g: blocks.append((g, ds.max())) or unit_block(ds, s, g))
    (_full_line if scheme == "P0" else _base_arrow)(*_base_key(disc, order))
    if scheme == "P0":
        assert requested == [d_max] and not blocks
    else:
        assert not requested
        # the largest separation requested at each Gauss order
        assert {g: max(d for gg, d in blocks if gg == g) for g, _ in blocks} \
            == {20: d_max, 28: min(d_max, 41)}
