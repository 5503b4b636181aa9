import math

import numpy as np
import pytest

from conftest import dense
from mixedfrac import (
    DiscParams,
    Domain1D,
    PartitionFamily,
    assemble,
    build_mesh,
    dirichlet_baseline,
    full_dirichlet_partition,
    generate,
    kernel_cell_integral,
    make_order,
    richardson_extrapolate,
    schur_reduce,
    smallest_eigenpair,
    solve_mixed,
)
OM = Domain1D(-1.0, 1.0)
OM01 = Domain1D(0.0, 1.0)


def explicit(omega, **kw):
    return generate(PartitionFamily(kind="explicit", omega=omega, params=kw), 0)


@pytest.fixture(scope="module")
def mixed_result():
    order = make_order(1, 0.5)
    part = explicit(OM, neumann=[[1.0, 2.0]], dirichlet="rest")
    return solve_mixed(OM, part, order, DiscParams(h=0.05, L=8.0, scheme="P1"))


class TestSchurReduce:
    def test_decoupled_blocks(self):
        # synthetic system: zero coupling leaves K_II untouched
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4))
        K_II = A @ A.T + 4 * np.eye(4)
        K_EE = np.stack([np.zeros(3), rng.uniform(1.0, 2.0, 3)])   # diagonal band

        class Dummy:
            pass

        sys = Dummy()
        sys.K_II = K_II
        sys.K_IE = np.zeros((4, 3))
        sys.K_EE = K_EE
        sys.dirichlet_row_sums = np.zeros(7)
        sys.M_II = np.eye(4)
        sys.interior_mask = np.array([True] * 4 + [False] * 3)
        sys.exterior_mask = ~sys.interior_mask
        red = schur_reduce(sys)
        assert np.allclose(red.K_eff, K_II, atol=1e-14)
        assert np.allclose(red.back_map(np.ones(4)), 0.0)

    def test_back_map_of_constants_is_one(self):
        order = make_order(1, 0.5)
        om = OM
        part = explicit(om, neumann="rest", dirichlet=[])
        mesh = build_mesh(om, part, 0.1, 8.0, "P1", order=order)
        system = assemble(mesh, order)
        red = schur_reduce(system)
        ones = np.ones(len(red.interior_idx))
        assert np.allclose(red.back_map(ones), 1.0, atol=1e-10)

    def test_p0_back_map_is_kernel_average(self):
        # P0 exterior block is diagonal, so every Neumann cell reconstructs
        # independently as the kernel-weighted average of the interior cells
        order = make_order(1, 0.25)
        h = 0.0625
        part = explicit(OM01, neumann=[[2.0, 2.0 + 4 * h]], dirichlet="rest")
        mesh = build_mesh(OM01, part, h, 4.0, "P0", order=order)
        system = assemble(mesh, order)
        red = schur_reduce(system)
        assert len(red.exterior_idx) == 4
        u = np.linspace(1.0, 2.0, len(red.interior_idx))
        got = red.back_map(u)
        omega_cells = [(x, x + h) for x in np.arange(0.0, 1.0, h)]
        for j in range(4):
            ecell = (2.0 + j * h, 2.0 + (j + 1) * h)
            weights = np.array([kernel_cell_integral(c, ecell, order)
                                for c in omega_cells])
            expected = float(weights @ u / weights.sum())
            assert abs(got[j] - expected) < 1e-12

    def test_rayleigh_consistency(self, mixed_result):
        res = mixed_result
        full = res.u_free
        K, M = dense(res.system)
        rq = float(full @ (K @ full)) / float(full @ (M @ full))
        assert abs(rq - res.lambda1) <= 1e-10 * max(res.lambda1, 1.0)


class TestSmallestEigenpair:
    def test_reference_pencil(self):
        # 1D Laplacian pencil with known smallest eigenvalue
        n = 40
        K = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        M = np.eye(n)
        pair = smallest_eigenpair(K, M, tol=1e-14, max_iter=2000)
        exact = 2 * (1 - math.cos(math.pi / (n + 1)))
        assert abs(pair.value - exact) < 1e-12
        assert pair.converged

    def test_empty_dirichlet_gives_zero_with_flag(self):
        order = make_order(1, 0.5)
        part = explicit(OM, neumann="rest", dirichlet=[])
        res = solve_mixed(OM, part, order, DiscParams(h=0.1, L=8.0, scheme="P1"))
        assert res.lambda1 == 0.0
        assert res.flagged_zero
        # constant eigenfunction
        u = res.u_interior / res.u_interior[0]
        assert np.allclose(u, 1.0, atol=1e-8)

    def test_full_dirichlet_baseline_value(self):
        # frozen during development; cross-checked against the literature
        # value 1.157774 by Richardson extrapolation (acceptance #3)
        order = make_order(1, 0.5)
        res = dirichlet_baseline(OM, order, DiscParams(h=0.04, L=8.0, scheme="P1"))
        assert abs(res.lambda1 - 1.16287616) < 5e-7
        assert res.converged

    def test_normalization_and_positivity(self, mixed_result):
        res = mixed_result
        assert abs(res.normalization - 1.0) <= 1e-12
        assert res.u_interior.min() >= -1e-10 * res.u_interior.max()
        assert np.all(res.u_exterior > 0.0)

    def test_exterior_bounded(self, mixed_result):
        # reconstruction is an interior average up to truncation-edge effects
        # on the outermost half-hat; a loose cap suffices here
        res = mixed_result
        assert res.u_exterior.max() <= 1.5 * res.u_interior.max()


class TestMonotonicity:
    def test_nested_dirichlet_pairs(self):
        order = make_order(1, 0.5)
        disc = DiscParams(h=0.1, L=8.0, scheme="P1")
        rng = np.random.default_rng(42)
        part_all = full_dirichlet_partition(OM)
        mesh = build_mesh(OM, part_all, disc.h, disc.L, disc.scheme, order=order)
        lam_all = solve_mixed(OM, part_all, order, disc).lambda1
        for _ in range(6):
            lo = round(rng.uniform(1.2, 4.0), 1)
            hi = lo + round(rng.uniform(0.5, 2.0), 1)
            hi2 = hi + round(rng.uniform(0.5, 2.0), 1)
            small = explicit(OM, dirichlet=[[lo, hi]], neumann="rest")
            large = explicit(OM, dirichlet=[[lo, hi2]], neumann="rest")
            lam_small = solve_mixed(OM, small, order, disc).lambda1
            lam_large = solve_mixed(OM, large, order, disc).lambda1
            assert lam_small <= lam_large + 1e-12
            assert 0.0 <= lam_small <= lam_all * (1 + 1e-10)

    def test_bounded_by_dirichlet_baseline(self, mixed_result):
        res = mixed_result
        order = make_order(1, 0.5)
        lam_d = dirichlet_baseline(OM, order,
                                   DiscParams(h=0.05, L=8.0, scheme="P1")).lambda1
        assert 0.0 <= res.lambda1 <= lam_d


class TestSolveMixedExamples:
    def test_far_neumann_close_to_baseline(self):
        # Neumann window far away: eigenvalue within 2% of the baseline
        order = make_order(1, 0.5)
        disc = DiscParams(h=0.05, L=12.0, scheme="P1")
        part = explicit(OM, neumann=[[9.0, 10.0]], dirichlet="rest")
        res = solve_mixed(OM, part, order, disc)
        base = dirichlet_baseline(OM, order, disc).lambda1
        assert abs(base - res.lambda1) <= 0.02 * base

    def test_touching_dirichlet_shrinks(self):
        order = make_order(1, 0.25)
        disc = DiscParams(h=2.0 ** -7, L=4.0, scheme="P0")
        lam = {}
        for r in (0.25, 2.0 ** -5):
            part = explicit(OM01, dirichlet=[[-r, 0.0]], neumann="rest")
            lam[r] = solve_mixed(OM01, part, order, disc).lambda1
        assert lam[2.0 ** -5] < lam[0.25]

    def test_poincare_positivity(self):
        # D with mass near Omega keeps lambda1 well above zero
        order = make_order(1, 0.5)
        part = explicit(OM, dirichlet=[[1.0, 2.0]], neumann="rest")
        res = solve_mixed(OM, part, order, DiscParams(h=0.1, L=8.0, scheme="P1"))
        assert res.lambda1 >= 1e-6

    def test_diagnostics_filled(self, mixed_result):
        d = mixed_result.diagnostics
        assert d["separation_D"] == 0.0    # D touches Omega at -1
        assert d["condition_C"] == math.inf   # touching D with s = 1/2
        assert d["measure_N_R2"] == 1.0    # N = (1,2) inside B_4


class TestRichardson:
    def test_exact_power_law_recovered(self):
        lam_star, c, p = 0.7, 0.3, 1.3
        hs = [0.04, 0.02, 0.01]
        lams = [lam_star + c * h ** p for h in hs]
        limit, rate = richardson_extrapolate(hs, lams)
        assert abs(limit - lam_star) < 1e-12
        assert abs(rate - p) < 1e-10

    def test_requires_constant_ratio(self):
        from mixedfrac import BadParameters
        with pytest.raises(BadParameters):
            richardson_extrapolate([0.04, 0.02, 0.015], [1.0, 1.1, 1.2])
