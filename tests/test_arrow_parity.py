"""Parity of the arrow-stored operator with the dense assembly it replaced.

The reference below is the former dense path, kept as a test oracle: the
label-independent stiffness over all m grid DOFs built by stripe adds, the
free x free extraction with ``np.ix_``, the per-cell mass and far-field
tail loops, and a dense Schur complement.  It is only run on meshes of at
most 400 DOFs.
"""

import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from conftest import dense
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
from mixedfrac import quadrature as quad
from mixedfrac.assembly import (
    DOF_DIRICHLET,
    _far_tau,
    _p0_pair_values,
    _p1_adjacent_local,
    _p1_far_tensors,
    _p1_same_cell_coeff,
    _ranges,
)

OM = Domain1D(0.0, 1.0)
H, L = 0.05, 4.0


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
            tau = _far_tau(disc.nodes[e] + disc.h * Xg, disc, order.s)
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
    return smallest_eigenpair(K_eff, M[np.ix_(iI, iI)], tol=solver_tol).value


def explicit(**kw):
    return generate(PartitionFamily(kind="explicit", omega=OM, params=kw), 0)


PARTITIONS = {
    "dirichlet": lambda: full_dirichlet_partition(OM),
    "neumann": lambda: explicit(neumann="rest", dirichlet=[]),
    "mixed": lambda: explicit(neumann=[[1.0, 2.0]], dirichlet="rest"),
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

    lam = smallest_eigenpair(schur_reduce(system).K_eff, system.M_II).value
    lam_ref = reference_lambda(K_ref, M_ref, system.interior_mask, system.exterior_mask)
    assert abs(lam - lam_ref) <= 1e-12 * abs(lam_ref)
