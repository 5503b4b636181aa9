"""Closed-form exterior products by convolution of windows of R_I, against the GEMVs.

Every P0 mesh and the P1 meshes with Dirichlet Omega end nodes take the
closed form, whose Omega rows R_I are a Toeplitz view of one line (a free
grid-end node's column is carried apart); the P0 memory guard is here too.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mixedfrac import (Domain1D, PartitionFamily, assemble, build_mesh, gauss_residual,
                       generate, make_order, neumann_cell_residuals, schur_reduce)
from mixedfrac.assembly import (DOF_DIRICHLET, _base_key, _build_interior, _full_line,
                                _line_rows)

OM01 = Domain1D(0.0, 1.0)
OM = Domain1D(-1.0, 1.0)
EPS = np.finfo(float).eps


def explicit(**kw):
    return generate(PartitionFamily(kind="explicit", omega=OM01, params=kw), 0)


def touching(k):
    """The criterion-6 record k: D = (-2^-k, 0) touching Omega = (0, 1), N the rest."""
    return generate(PartitionFamily(kind="shrinking_dirichlet_touching", omega=OM01,
                                    params={"r0": 1.0, "ratio": 2.0, "side": "left"}), k)


def p0_system(part, h=2.0 ** -9, L=4.0):
    order = make_order(1, 0.25)
    return assemble(build_mesh(OM01, part, h, L, "P0", order=order), order)


def nested_p1(k):
    """The criterion-4 nested record k, P1 at s = 0.3: one Neumann run, Dirichlet far field."""
    order = make_order(1, 0.3)
    part = generate(PartitionFamily(kind="nested_neumann", omega=OM,
                                    params={"left": 1.5, "length0": 1.0, "ratio": 2.0}), k)
    return assemble(build_mesh(OM, part, 2.0 ** -6, 8.0, "P1", order=order), order)


def half_line_p1():
    """A closed-form P1 record with a Neumann far field and both grid-end nodes free."""
    order = make_order(1, 0.5)
    part = generate(PartitionFamily(kind="explicit", omega=OM, params={
        "neumann": [[-9.0, -7.0], [2.0, np.inf]], "dirichlet": "rest"}), 0)
    system = assemble(build_mesh(OM, part, 2.0 ** -4, 8.0, "P1", order=order), order)
    assert system.path == "closed_form" and len(system.end_columns) == 2
    return system


# (system, runs of exterior Neumann DOFs): criterion 6, Neumann cells on both
# sides of a Dirichlet gap, n_int = 1, and closed-form P1 records, the last
# with end columns
CASES = {
    "c6": (lambda: p0_system(touching(1)), 2),
    "gap": (lambda: p0_system(explicit(dirichlet=[[2.0, 3.0]], neumann="rest"), 2.0 ** -6), 3),
    "n_int_1": (lambda: p0_system(explicit(dirichlet=[[-8.0, -4.0]], neumann="rest"), 1.0,
                                  12.0), 3),
    "p1_nested": (lambda: nested_p1(2), 1),
    "p1_half_line": (half_line_p1, 2),
}


def gemv(system):
    """The same system, not from ``assemble``: its path is "", so every product is a GEMV."""
    return dataclasses.replace(system)


@pytest.mark.parametrize("case", CASES)
def test_sequence_holds_every_exterior_column(case):
    make, n_runs = CASES[case]
    system = make()
    assert system.path == "closed_form" and gemv(system).path == ""
    assert len(system.runs_E) == n_runs
    # the exterior slices tile 0..n_E in order, one per run of its length
    at = 0
    for run, e in system.runs_E:
        assert (e.start, e.stop) == (at, at + run.stop - run.start)
        at = e.stop
        win = np.lib.stride_tricks.sliding_window_view(
            system._window(run), run.stop - run.start)[::-1]
        assert np.array_equal(win, system.R_I[:, run])
    assert at == np.count_nonzero(system.exterior_mask)


@pytest.mark.parametrize("case", CASES)
def test_products_match_the_gemvs(case):
    system = CASES[case][0]()
    K_IE = system.K_IE
    rng = np.random.default_rng(1)
    u_I, u_E = rng.standard_normal(K_IE.shape[0]), rng.standard_normal(K_IE.shape[1])
    a_I, a_E = np.abs(u_I), np.abs(u_E)
    # each output is a dot product of n_I or run terms summed in another order
    bound = 16 * EPS * (np.abs(K_IE).T @ a_I)
    assert np.all(np.abs(system.K_EI_matvec(u_I) - K_IE.T @ u_I) <= bound)
    assert np.all(np.abs(system.K_EI_matvec(a_I, absolute=True) - np.abs(K_IE).T @ a_I) <= bound)
    # K_IE u_E alone: the interior rows of K u with u_I = 0
    u = np.zeros(system.n_free)
    u[system.exterior_mask] = u_E
    got = system.matvec(u)[system.interior_mask]
    assert np.all(np.abs(got - K_IE @ u_E) <= 16 * EPS * (np.abs(K_IE) @ a_E))


@pytest.mark.parametrize("k", [1, 4, 7])
def test_back_map_and_gauss_residual_match_the_gemvs(k):
    system = p0_system(touching(k))
    u = np.random.default_rng(k).uniform(0.5, 1.5, system.n_free)
    u_I, u_E = u[system.interior_mask], u[system.exterior_mask]
    K_IE = np.abs(system.K_IE)
    back = schur_reduce(system).back_map(u_I)
    back_ref = schur_reduce(gemv(system)).back_map(u_I)
    assert np.abs(back - back_ref).max() <= 1e-12 * np.abs(back_ref).max()
    # |K| |u| summed over every row, the Dirichlet-row block included
    scale = (np.abs(system.K_II).sum(axis=0) @ u_I + K_IE.sum(axis=0) @ u_E
             + K_IE.sum(axis=1) @ u_I + np.abs(system.K_EE[1]) @ u_E
             + np.abs(system.dirichlet_row_sums) @ u)
    assert abs(gauss_residual(system, u) - gauss_residual(gemv(system), u)) <= 1e-12 * scale
    rows, rel = neumann_cell_residuals(system, u)
    rows_ref, rel_ref = neumann_cell_residuals(gemv(system), u)
    assert np.all(np.abs(rows - rows_ref) <= 1e-12 * np.abs(rows_ref).max())
    assert np.all(np.abs(rel - rel_ref) <= 1e-12 * np.abs(rel_ref).max())


@pytest.mark.parametrize("product", ["matvec", "cell_residuals"])
def test_warm_products_allocate_o_m(product):
    # a copy of R_I or of |R_I[:, run]| would be n_I x run doubles: 7 MiB here
    system = p0_system(touching(1))
    m = system.R_I.shape[1]
    u = np.ones(system.n_free)
    call = {"matvec": system.matvec,
            "cell_residuals": lambda u: neumann_cell_residuals(system, u)}[product]
    call(u)
    tracemalloc.start()
    try:
        call(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * m * 8


@pytest.mark.parametrize("make", [lambda: nested_p1(3), half_line_p1],
                         ids=["p1_closed_form", "p1_half_line"])
def test_row_sums_are_the_products_of_the_assembled_system(make):
    # assemble stamps the path before it takes -K 1, so P1's row sums come
    # from the very products that the assembled system computes
    system = make()
    disc, order, n_I = system.disc, system.order, len(system.K_II)
    n_om = disc.n_interior + (disc.scheme == "P1")
    R = _line_rows(_full_line(*_base_key(disc, order)), disc.n_collar, n_om)
    lo = int(system.free_dofs[system.interior_mask][0]) - disc.n_collar
    tail_rows = _build_interior(disc, order, R, lo, n_I)[2]
    rows = -system.matvec(np.ones(system.n_free))
    rows[system.interior_mask] += tail_rows
    assert np.array_equal(rows, system.dirichlet_row_sums)


def both_collars_far_d():
    """Dirichlet cells in both collars, the right far side Dirichlet, Neumann the rest."""
    return explicit(dirichlet=[[-3.0, -2.5], [2.0, 2.25], [4.5, np.inf]], neumann="rest")


@pytest.mark.parametrize("part", [lambda: touching(1), lambda: touching(7), both_collars_far_d],
                         ids=["touching_1", "touching_7", "both_collars_far_d"])
def test_p0_row_sums_are_the_dirichlet_columns(part):
    # by definition: each interior row sums R_I over the Dirichlet cells (the
    # far tails are not grid columns), and exterior pairs carry no energy
    system = p0_system(part())
    disc = system.disc
    D = np.flatnonzero(disc.dof_label == DOF_DIRICHLET)
    if part is both_collars_far_d:
        assert disc.far_label == ("N", "D")
        assert D[0] < disc.n_collar < disc.n_collar + disc.n_interior <= D[-1]
    ref = np.array([math.fsum(row) for row in system.R_I[:, D]])
    rows = system.dirichlet_row_sums
    assert np.all(ref < 0)
    assert np.all(np.abs(rows[system.interior_mask] - ref) <= 1e-15 * np.abs(ref))
    assert np.all(rows[system.exterior_mask] == 0.0)


def test_cold_p0_assemble_memory(cold_caches):
    # O(n_I^2 + m), the line and K_II: an n_I x m block would be 18 MiB here
    order = make_order(1, 0.25)
    disc = build_mesh(OM01, touching(4), 2.0 ** -9, 4.0, "P0", order=order)
    n_I = disc.n_interior
    tracemalloc.start()
    try:
        system = assemble(disc, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(system.K_II) == n_I
    assert peak < 2 * n_I * n_I * 8
