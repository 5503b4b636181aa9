import math

import numpy as np
import pytest

from conftest import dense
from mixedfrac import (
    BadParameters,
    DiscParams,
    Domain1D,
    IncompatibleScheme,
    MixedFarField,
    PartitionFamily,
    assemble,
    brute_force_energy,
    build_mesh,
    dirichlet_baseline,
    full_dirichlet_partition,
    generate,
    make_order,
    pair_integral,
    solve_mixed,
    tail_mass,
)
from mixedfrac.assembly import CELL_DIRICHLET, CELL_INTERIOR, CELL_NEUMANN

OM = Domain1D(-1.0, 1.0)
OM01 = Domain1D(0.0, 1.0)


def explicit(omega, **kw):
    return generate(PartitionFamily(kind="explicit", omega=omega, params=kw), 0)


def full_neumann(omega):
    return explicit(omega, neumann="rest",
                    dirichlet=[])


class TestBuildMesh:
    def test_full_dirichlet_classification(self):
        mesh = build_mesh(OM01, full_dirichlet_partition(OM01), 0.1, 4.0, "P1")
        assert mesh.n_interior == 10
        assert np.sum(mesh.cell_label == CELL_INTERIOR) == 10
        assert np.sum(mesh.cell_label == CELL_NEUMANN) == 0
        assert mesh.far_label == ("D", "D")
        assert mesh.nodes[mesh.n_collar] == OM01.a
        assert abs(mesh.nodes[mesh.n_collar + mesh.n_interior] - OM01.b) < 1e-14

    def test_full_neumann_classification(self):
        mesh = build_mesh(OM01, full_neumann(OM01), 0.1, 4.0, "P1")
        assert np.sum(mesh.cell_label == CELL_DIRICHLET) == 0
        assert mesh.far_label == ("N", "N")
        # no Dirichlet DOFs removed
        assert np.all(mesh.dof_label < 2)

    def test_mixed_far_field_rejected(self):
        # moving Neumann set beyond the collar with Dirichlet on both sides
        part = explicit(OM01, neumann=[[7.0, 8.0]], dirichlet="rest")
        with pytest.raises(MixedFarField):
            build_mesh(OM01, part, 0.1, 4.0, "P1")

    def test_incompatible_scheme(self):
        with pytest.raises(IncompatibleScheme):
            build_mesh(OM01, full_dirichlet_partition(OM01), 0.1, 4.0, "P0",
                       order=make_order(1, 0.6))

    def test_unresolved_feature_rejected(self):
        part = explicit(OM01, neumann=[[2.0, 2.2]], dirichlet="rest")
        with pytest.raises(BadParameters):
            build_mesh(OM01, part, 0.1, 4.0, "P1")

    def test_indivisible_h_rejected(self):
        with pytest.raises(BadParameters):
            build_mesh(OM01, full_dirichlet_partition(OM01), 0.3, 4.0, "P1")

    def test_snapping_within_half_cell(self):
        part = explicit(OM01, neumann=[[1.52, 2.48]], dirichlet="rest")
        mesh = build_mesh(OM01, part, 0.1, 4.0, "P1")
        assert 0 < mesh.max_snap <= 0.05 + 1e-12
        n_cells = np.sum(mesh.cell_label == CELL_NEUMANN)
        assert n_cells == 10    # snapped to (1.5, 2.5)

    def test_small_L_rejected(self):
        with pytest.raises(BadParameters):
            build_mesh(OM01, full_dirichlet_partition(OM01), 0.1, 3.0, "P1")

    @pytest.mark.parametrize("h, L", [(math.nan, 4.0), (0.1, math.nan), (0.1, math.inf)],
                             ids=["h-nan", "L-nan", "L-inf"])
    def test_nonfinite_h_or_L_rejected(self, h, L):
        with pytest.raises(BadParameters, match="finite"):
            build_mesh(OM01, full_dirichlet_partition(OM01), h, L, "P1")


@pytest.fixture(scope="module")
def small_mixed_p1():
    order = make_order(1, 0.5)
    part = explicit(OM01, neumann=[[1.0, 2.0]], dirichlet="rest")
    mesh = build_mesh(OM01, part, 0.25, 4.0, "P1", order=order)
    return assemble(mesh, order), order


@pytest.fixture(scope="module")
def small_mixed_p0():
    order = make_order(1, 0.25)
    part = explicit(OM01, neumann=[[1.0, 2.0]], dirichlet="rest")
    mesh = build_mesh(OM01, part, 0.25, 4.0, "P0", order=order)
    return assemble(mesh, order), order


class TestAssembleStructure:
    def test_symmetry_exact(self, small_mixed_p1, small_mixed_p0):
        for system, _ in (small_mixed_p1, small_mixed_p0):
            K, _ = dense(system)
            assert float(np.max(np.abs(K - K.T))) == 0.0

    def test_positive_semidefinite(self, small_mixed_p1, small_mixed_p0):
        for system, _ in (small_mixed_p1, small_mixed_p0):
            w = np.linalg.eigvalsh(dense(system)[0])
            assert w.min() >= -1e-12 * max(1.0, w.max())

    def test_constants_in_kernel_when_no_dirichlet(self):
        order = make_order(1, 0.5)
        mesh = build_mesh(OM, full_neumann(OM), 0.05, 8.0, "P1", order=order)
        system = assemble(mesh, order)
        K, _ = dense(system)
        ones = np.ones(system.n_free)
        resid = float(np.max(np.abs(K @ ones)))
        assert resid <= 1e-12 * float(np.max(np.abs(K)))

    def test_mass_row_sums_equal_omega(self, small_mixed_p1, small_mixed_p0):
        from mixedfrac.assembly import omega_mass
        for system, _ in (small_mixed_p1, small_mixed_p0):
            assert abs(float(omega_mass(system.disc).sum()) - OM01.length) < 1e-13

    def test_exterior_exterior_only_gram(self, small_mixed_p1):
        system, order = small_mixed_p1
        iE = np.where(system.exterior_mask)[0]
        gdofs = system.free_dofs[iE]
        K_EE = dense(system)[0][np.ix_(iE, iE)]
        # non-adjacent exterior nodes carry exactly zero coupling
        for a in range(len(iE)):
            for b in range(len(iE)):
                if abs(int(gdofs[a]) - int(gdofs[b])) > 1:
                    assert K_EE[a, b] == 0.0

    def test_p0_hand_assembled_pair(self):
        # two interior cells [0, 1/2], [1/2, 1]: off-diagonal -a * pair integral
        order = make_order(1, 0.25)
        mesh = build_mesh(OM01, full_dirichlet_partition(OM01), 0.5, 4.0, "P0",
                          order=order)
        system = assemble(mesh, order)
        assert system.n_free == 2
        expected = -order.a_ns * pair_integral((0.0, 0.5), (0.5, 1.0), order.s)
        assert abs(dense(system)[0][0, 1] - expected) < 1e-12 * abs(expected)

    def test_dirichlet_tail_corrections_positive(self, small_mixed_p1):
        system, order = small_mixed_p1
        assert np.all(system.tail_corrections[system.interior_mask] > 0)
        assert np.all(system.tail_corrections[system.exterior_mask] == 0)

    def test_gershgorin_interior_rows_full_dirichlet(self):
        order = make_order(1, 0.5)
        mesh = build_mesh(OM, full_dirichlet_partition(OM), 0.05, 8.0, "P1",
                          order=order)
        system = assemble(mesh, order)
        K, _ = dense(system)
        diag = np.diag(K)
        offsum = np.abs(K).sum(axis=1) - np.abs(diag)
        inner = system.interior_mask
        assert np.all(diag[inner] >= offsum[inner] - 1e-10 * diag[inner])


class TestBruteForceOracle:
    """Q_Omega exclusion: the assembled quadratic form equals an independent
    double sum over cell pairs with the (Omega^c)^2 pairs explicitly skipped."""

    @pytest.mark.parametrize("fixture", ["small_mixed_p1", "small_mixed_p0"])
    def test_quadratic_form_matches(self, fixture, request):
        system, order = request.getfixturevalue(fixture)
        rng = np.random.default_rng(7)
        for _ in range(3):
            u = rng.standard_normal(system.n_free)
            exact = float(u @ (dense(system)[0] @ u))
            brute = brute_force_energy(system, u)
            assert abs(exact - brute) <= 1e-10 * max(abs(exact), 1.0)

    def test_bilinear_form_matches(self, small_mixed_p1):
        system, order = small_mixed_p1
        rng = np.random.default_rng(11)
        u = rng.standard_normal(system.n_free)
        v = rng.standard_normal(system.n_free)
        exact = float(u @ (dense(system)[0] @ v))
        brute = brute_force_energy(system, u, v)
        assert abs(exact - brute) <= 1e-10 * max(abs(exact), 1.0)

    def test_large_mesh_rejected(self):
        order = make_order(1, 0.5)
        mesh = build_mesh(OM01, full_dirichlet_partition(OM01), 0.05, 4.0, "P1",
                          order=order)
        system = assemble(mesh, order)
        with pytest.raises(BadParameters):
            brute_force_energy(system, np.zeros(system.n_free))


class TestTruncationConsistency:
    def test_lambda_stable_under_collar_growth(self):
        # mixed partition with a genuine Neumann far field on the right
        order = make_order(1, 0.5)
        lams = {}
        for L in (8.0, 16.0, 32.0, 64.0):
            part = explicit(OM, dirichlet=[[-math.inf, -1.0]], neumann="rest")
            res = solve_mixed(OM, part, order, DiscParams(h=0.1, L=L, scheme="P1"))
            lams[L] = res.lambda1
        ratios = []
        for L in (8.0, 16.0, 32.0):
            diff = abs(lams[L] - lams[2 * L])
            ratios.append(diff / tail_mass(L, order))
        # |lambda(L) - lambda(2L)| <= C tail_mass(L) with stable fitted C
        assert max(ratios) / max(min(ratios), 1e-12) < 50.0
        assert all(r < 10.0 for r in ratios)


class TestCrossScheme:
    def test_p0_p1_agree_on_baseline(self):
        order = make_order(1, 0.3)
        disc0 = DiscParams(h=0.05, L=4.0, scheme="P0")
        disc1 = DiscParams(h=0.05, L=4.0, scheme="P1")
        l0 = dirichlet_baseline(OM01, order, disc0).lambda1
        l1 = dirichlet_baseline(OM01, order, disc1).lambda1
        assert abs(l0 - l1) / l1 < 0.03    # 1% gate at h=0.02 in acceptance
