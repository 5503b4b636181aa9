import math

import mpmath as mp
import numpy as np
import pytest

from conftest import dense
from mixedfrac import (
    BadParameters,
    DiscParams,
    DiscreteFunction,
    DivergentIntegral,
    Domain1D,
    OnBoundary,
    PartitionFamily,
    assemble,
    build_mesh,
    dirichlet_baseline,
    e_of_r,
    exterior_mass,
    farfield_rate,
    gauss_residual,
    gauss_residual_relative,
    generate,
    make_order,
    neumann_cell_residuals,
    neumann_value,
    nonlocal_normal,
    parts_residual_relative,
    phi_integrability,
    phi_potential,
    solve_mixed,
)
from mixedfrac.fracops import interval_mass
from mixedfrac.nonlocal_ops import gauss_tail_bound

OM = Domain1D(-1.0, 1.0)


def explicit(omega, **kw):
    return generate(PartitionFamily(kind="explicit", omega=omega, params=kw), 0)


@pytest.fixture(scope="module")
def neumann_system():
    order = make_order(1, 0.5)
    part = explicit(OM, neumann="rest", dirichlet=[])
    mesh = build_mesh(OM, part, 0.05, 8.0, "P1", order=order)
    return assemble(mesh, order)


@pytest.fixture(scope="module")
def mixed_solution():
    # N = (4, inf): far field N on the right, Dirichlet elsewhere
    order = make_order(1, 0.5)
    part = explicit(OM, neumann=[[4.0, math.inf]], dirichlet="rest")
    res = solve_mixed(OM, part, order, DiscParams(h=0.02, L=8.0, scheme="P1"))
    return res


@pytest.fixture(scope="module")
def mixed_solution_p0():
    # mixed_solution on P0 cells (s < 1/2): far field D on the left, N on the right
    order = make_order(1, 0.3)
    part = explicit(OM, neumann=[[4.0, math.inf]], dirichlet="rest")
    return solve_mixed(OM, part, order, DiscParams(h=0.05, L=8.0, scheme="P0"))


@pytest.fixture(scope="module")
def dirichlet_phi():
    order = make_order(1, 0.5)
    res = dirichlet_baseline(OM, order, DiscParams(h=0.02, L=8.0, scheme="P1"))
    return res.u


class TestNonlocalNormal:
    def test_constant_gives_zero(self, neumann_system):
        fn = DiscreteFunction(neumann_system, np.ones(neumann_system.n_free))
        for x in (-3.0, 1.7, 5.5):
            assert abs(nonlocal_normal(fn, x)) < 1e-12

    def test_indicator_gives_minus_exterior_mass(self, neumann_system):
        # u = 1 on Omega (exactly: all interior nodes set), 0 at exterior
        # nodes: N_s u(x) = a (u(x) - 1) I_Omega(x) = -a I_Omega(x) wherever
        # the exterior representation has decayed to zero
        system = neumann_system
        vals = np.where(system.interior_mask, 1.0, 0.0)
        fn = DiscreteFunction(system, vals)
        order = system.order
        for x in (-3.0, 4.0):
            got = nonlocal_normal(fn, x)
            ref = -order.a_ns * exterior_mass(x, (OM.a, OM.b), order)
            assert abs(got - ref) < 1e-12

    def test_on_boundary_rejected(self, neumann_system):
        fn = DiscreteFunction(neumann_system, np.ones(neumann_system.n_free))
        with pytest.raises(OnBoundary):
            nonlocal_normal(fn, 0.3)

    def test_neumann_cells_satisfy_discrete_condition(self, mixed_solution):
        res = mixed_solution
        raw, rel = neumann_cell_residuals(res.u.system, res.u.values)
        assert np.max(np.abs(rel)) <= 1e-8


class TestNeumannValue:
    def test_constant_reconstructs_to_one(self, neumann_system):
        fn = DiscreteFunction(neumann_system, np.ones(neumann_system.n_free))
        for x in (-2.0, 3.0, 100.0):
            assert abs(neumann_value(fn, x) - 1.0) < 1e-12

    def test_lower_bound_from_separation(self, dirichlet_phi):
        # u(x) >= (delta/(2R))^(1+2s) mean(u) for x at distance delta, Omega in B_R
        fn = dirichlet_phi
        mean = fn.omega_mean()
        R = 4.0
        for x in (1.5, 2.0, 3.5):
            delta = x - OM.b
            if abs(x) >= R:
                continue
            val = neumann_value(fn, x)
            assert val >= (delta / (2 * R)) ** 2.0 * mean

    def test_far_value_approaches_mean(self, dirichlet_phi):
        fn = dirichlet_phi
        mean = fn.omega_mean()
        val = neumann_value(fn, 1e3)
        assert abs(val - mean) <= 2e-3 * mean

    def test_far_deviation_matches_mpmath(self, mixed_solution):
        # criterion 9's deviation u(x) - mean, which is ~1e-6 of u out here:
        # closed-form hat moments lost 9% of it at x = 1e4
        fn = mixed_solution.u
        disc = fn.disc
        i0, i1 = disc.interior_cells
        nodes = disc.nodes[i0:i1 + 2]
        with mp.workdps(30):
            u = [mp.mpf(v) for v in fn.full_dofs()[i0:i1 + 2]]
            h = mp.mpf(disc.h)
            mean = h * (sum(u) - (u[0] + u[-1]) / 2) / mp.mpf(disc.omega.length)
            for x in (1e3, 1e4):
                pot = mass = 0
                for j in range(len(u) - 1):
                    # s = 1/2, x right of the element: its right node is the near end
                    t0 = mp.mpf(x) - mp.mpf(nodes[j + 1])
                    m, first = 1 / t0 - 1 / (t0 + h), mp.log1p(h / t0)
                    pot += (u[j + 1] * ((t0 + h) * m - first) + u[j] * (first - t0 * m)) / h
                    mass += m
                ref = pot / mass - mean
                dev = neumann_value(fn, x) - fn.omega_mean()
                assert abs(dev - ref) <= 1e-8 * abs(ref), (x, dev, float(ref))


class TestP0Function:
    def test_beyond_span_far_dirichlet_is_zero(self, mixed_solution_p0):
        u = mixed_solution_p0.u
        assert u.disc.far_label[0] == "D"
        lo, _ = u.disc.span
        for x in (lo - 0.5, -40.0, -1e3):
            assert u(x) == 0.0

    def test_beyond_span_far_neumann_is_cell_weighted_mean(self, mixed_solution_p0):
        # P0 reconstruction: sum_c u_c m_c(x) / sum_c m_c(x), m_c the kernel
        # mass of Omega cell c seen from x
        u = mixed_solution_p0.u
        disc = u.disc
        assert disc.far_label[1] == "N"
        i0, i1 = disc.interior_cells
        u_c = u.full_dofs()[i0:i1 + 1]
        cells = list(zip(disc.nodes[i0:i1 + 1], disc.nodes[i0 + 1:i1 + 2]))
        _, hi = disc.span
        for x in (hi + 0.5, 40.0, 1e3):
            m = np.array([float(interval_mass(x, [cell], 2 * 0.3)) for cell in cells])
            expect = (u_c @ m) / m.sum()
            assert abs(u(x) - expect) <= 1e-12 * abs(expect)

    def test_inside_span_is_the_cell_value(self, mixed_solution_p0):
        u = mixed_solution_p0.u
        mids = 0.5 * (u.disc.nodes[:-1] + u.disc.nodes[1:])
        assert [u(x) for x in mids] == list(u.full_dofs())

    def test_omega_mean_is_mass_weighted(self, mixed_solution_p0):
        u = mixed_solution_p0.u
        system = u.system
        expect = np.sum(system.M_II @ u.values[system.interior_mask]) / OM.length
        assert abs(u.omega_mean() - expect) <= 1e-12 * abs(expect)


class TestFarfieldRate:
    def test_slope_is_minus_one_skewed(self):
        # strongly asymmetric solution: the first-moment term dominates the
        # whole window and the fit is cleanly -1
        order = make_order(1, 0.5)
        part = explicit(OM, neumann=[[1.0, math.inf]], dirichlet="rest")
        res = solve_mixed(OM, part, order, DiscParams(h=0.02, L=8.0, scheme="P1"))
        fn = res.u
        rep = farfield_rate(fn, np.logspace(1, 3, 9))
        assert not rep.degenerate
        assert abs(rep.slope + 1.0) <= 0.1

    def test_doubling_halves_deviation(self):
        order = make_order(1, 0.5)
        part = explicit(OM, neumann=[[1.0, math.inf]], dirichlet="rest")
        res = solve_mixed(OM, part, order, DiscParams(h=0.02, L=8.0, scheme="P1"))
        fn = res.u
        pts = np.array([50.0, 100.0, 200.0, 400.0])
        rep = farfield_rate(fn, pts)
        ratios = rep.values[1:] / rep.values[:-1]
        assert np.all(np.abs(ratios - 0.5) < 0.05)

    def test_constant_flagged_degenerate(self, neumann_system):
        fn = DiscreteFunction(neumann_system, np.ones(neumann_system.n_free))
        rep = farfield_rate(fn, np.logspace(1, 3, 5))
        assert rep.degenerate


class TestGaussAndParts:
    def test_constant_gauss_residual_zero(self, neumann_system):
        u = np.ones(neumann_system.n_free)
        assert gauss_residual(neumann_system, u) <= 1e-12

    def test_random_functions_exact_identity(self, neumann_system):
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = rng.standard_normal(neumann_system.n_free)
            v = rng.standard_normal(neumann_system.n_free)
            assert gauss_residual_relative(neumann_system, u) <= 1e-12
            assert parts_residual_relative(neumann_system, u, v) <= 1e-12

    def test_dirichlet_far_field_bounded_by_tail(self):
        # Dirichlet lives only beyond the collar: the Gauss defect is exactly
        # the analytic tail term, bounded by tail_mass(L) |u|_inf
        order = make_order(1, 0.5)
        span = 1.0 + 8.0
        part = explicit(OM, dirichlet=[[-math.inf, -span], [span, math.inf]],
                        neumann="rest")
        mesh = build_mesh(OM, part, 0.05, 8.0, "P1", order=order)
        system = assemble(mesh, order)
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.standard_normal(system.n_free)
            assert gauss_residual(system, u) <= gauss_tail_bound(system, u)

    def test_eigenfunction_bilinear_is_lambda(self, mixed_solution):
        res = mixed_solution
        u = res.u.values
        bil = float(u @ (dense(res.u.system)[0] @ u))
        assert abs(bil - res.lambda1) <= 1e-10 * max(1.0, res.lambda1)


class TestPhiPotential:
    def test_positive_on_exterior(self, dirichlet_phi):
        xs = np.array([-5.0, -1.5, 1.2, 3.0, 50.0])
        assert np.all(phi_potential(dirichlet_phi, xs) > 0)

    def test_far_ratio(self, dirichlet_phi):
        fn = dirichlet_phi
        x = 1e3
        mass = fn.omega_mean() * OM.length
        ref = abs(x) ** -2.0 * mass
        assert abs(phi_potential(fn, x) / ref - 1.0) < 0.01

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_integrability_table_cauchy(self, s):
        order = make_order(1, s)
        res = dirichlet_baseline(OM, order, DiscParams(h=0.05, L=8.0, scheme="P1"))
        fn = res.u
        table = phi_integrability(fn, [2.0, 4.0, 8.0, 16.0], tol=1e-7)
        assert table.cauchy
        vals = [row.integral for row in table.rows]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_refinement_stability_s075(self):
        # exercises the near-boundary cancellation at s >= 1/2
        order = make_order(1, 0.75)
        vals = []
        for h in (0.05, 0.025):
            res = dirichlet_baseline(OM, order, DiscParams(h=h, L=8.0, scheme="P1"))
            fn = res.u
            table = phi_integrability(fn, [16.0], tol=1e-7)
            vals.append(table.rows[0].integral)
        assert np.isfinite(vals).all()
        assert abs(vals[1] - vals[0]) <= 0.05 * vals[0]


class TestEofR:
    def test_scaling_slope(self):
        for s in (0.6, 0.7):
            rs = 2.0 ** -np.arange(3, 9)
            vals = np.array([e_of_r(r, s, dimension=2) for r in rs])
            slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
            assert abs(slope - (2 - 2 * s)) <= 0.05 * (2 - 2 * s)

    def test_prefactor_constancy(self):
        s = 0.6
        rs = 2.0 ** -np.arange(3, 9)
        pref = np.array([e_of_r(r, s) / r ** (2 - 2 * s) for r in rs])
        assert pref.max() / pref.min() - 1.0 < 0.05

    def test_divergent_beyond_threshold(self):
        with pytest.raises(DivergentIntegral):
            e_of_r(0.125, 0.8, dimension=2)
        with pytest.raises(DivergentIntegral):
            e_of_r(0.125, 0.75, dimension=2)

    def test_three_dimensional_threshold(self):
        # (N+1)/4 = 1 at N = 3: all s in (0,1) admissible
        val = e_of_r(0.1, 0.9, dimension=3)
        assert np.isfinite(val) and val > 0

    def test_r_range_enforced(self):
        with pytest.raises(BadParameters):
            e_of_r(0.3, 0.6)
