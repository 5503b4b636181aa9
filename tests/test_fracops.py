import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from mixedfrac import (
    DivergentIntegral,
    InvalidCells,
    KernelOrder,
    ModulusOfContinuity,
    OnBoundary,
    dini_check,
    exterior_mass,
    exterior_mass_disk,
    indicator_seminorm_identity,
    make_order,
    normalization_constant,
    pair_integral,
    tail_mass,
)
from mixedfrac.fracops import gamma_form_constant


# ---------------------------------------------------------------------------
# normalization constant
# ---------------------------------------------------------------------------

class TestNormalizationConstant:
    def test_1d_half_is_one_over_pi(self):
        res = normalization_constant(1, 0.5, 1e-8)
        assert abs(res.value - 1.0 / math.pi) <= 1e-6

    def test_gamma_form_value_and_ratio(self):
        res = normalization_constant(1, 0.5, 1e-8)
        assert abs(res.gamma_form - 1.0 / (2.0 * math.pi)) < 1e-12
        assert abs(res.ratio - 0.5) < 1e-6

    def test_refinement_stability(self):
        a = normalization_constant(1, 0.25, 1e-8).value
        b = normalization_constant(1, 0.25, 1e-10).value
        assert abs(a - b) <= 1e-8 * abs(a)

    def test_2d_value_agrees_with_standard_constant(self):
        # 4^s Gamma(N/2 + s) / (pi^(N/2) |Gamma(-s)|), the defining-integral value
        from scipy.special import gamma
        for s in (0.3, 0.5, 0.75):
            res = normalization_constant(2, s, 1e-9)
            std = 4.0 ** s * gamma(1.0 + s) / (math.pi * abs(gamma(-s)))
            assert abs(res.value - std) < 2e-9 * std

    @pytest.mark.parametrize("tol", (1e-8, 1e-10))
    @pytest.mark.parametrize("dimension", (1, 2))
    def test_within_twice_tol_of_exact_constant(self, dimension, tol):
        # the documented accuracy; the 1D quadrature reaches 1.06 tol at s = 3/4
        for s in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999):
            exact = (mp.mpf(4) ** s * mp.gamma(mp.mpf(dimension) / 2 + s)
                     / (mp.pi ** (mp.mpf(dimension) / 2) * abs(mp.gamma(-s))))
            value = normalization_constant(dimension, s, tol).value
            assert abs(value - exact) <= 2 * tol * exact, s

    @pytest.mark.parametrize("dimension", (1, 2))
    @pytest.mark.parametrize("s", (0.995, 0.999))
    def test_near_one_is_twice_gamma_form(self, dimension, s):
        # the head substitution x = t^m underflows here unless taken by hand
        a_ns = make_order(dimension, s).a_ns
        assert abs(a_ns - 2.0 * gamma_form_constant(dimension, s)) <= 1e-9 * a_ns


def test_make_order_does_not_import_scipy_special():
    # scipy.special costs start-up time; neither the 1D pipeline nor the 2D
    # constant needs it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
    code = ("import sys, mixedfrac; mixedfrac.make_order(1, 0.3); "
            "mixedfrac.make_order(2, 0.3); "
            "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


# ---------------------------------------------------------------------------
# kernel cell integrals
# ---------------------------------------------------------------------------

class TestKernelCellIntegral:
    def test_separated_pair_closed_form(self):
        # frozen from the closed form, cross-checked below by 2D quadrature
        val = pair_integral((0, 1), (2, 3), 0.25)
        assert abs(val - 0.3855052687092) < 1e-10

    def test_separated_pair_vs_quadrature(self):
        for s in (0.25, 0.5, 0.7):
            val = pair_integral((0, 1), (2, 3), s)
            ref = dblquad(lambda y, x: (y - x) ** (-1 - 2 * s), 0, 1, 2, 3,
                          epsabs=1e-12)[0]
            assert abs(val - ref) < 1e-9

    def test_touching_pair_closed_form(self):
        val = pair_integral((-1, 0), (0, 1), 0.25)
        assert abs(val - 2.3431457505076) < 1e-10
        # = 8 - 4 sqrt(2) from the second antiderivative with F(0) = 0
        assert abs(val - (8.0 - 4.0 * math.sqrt(2.0))) < 1e-12

    def test_touching_divergent_for_large_s(self):
        with pytest.raises(DivergentIntegral):
            pair_integral((-1, 0), (0, 1), 0.6)

    def test_log_form_at_half_vs_quadrature(self):
        val = pair_integral((0, 1), (2, 3), 0.5)
        assert abs(val - math.log(4.0 / 3.0)) < 1e-12
        ref = dblquad(lambda y, x: (y - x) ** -2.0, 0, 1, 2, 3, epsabs=1e-12)[0]
        assert abs(val - ref) < 1e-9

    def test_log_limit_consistency(self):
        # s -> 1/2 limit of the power antiderivative approaches the log form
        lim = pair_integral((0, 1), (2, 3), 0.5)
        for eps in (1e-5, 1e-6):
            assert abs(pair_integral((0, 1), (2, 3), 0.5 + eps) - lim) < 1e-3
            assert abs(pair_integral((0, 1), (2, 3), 0.5 - eps) - lim) < 1e-3

    def test_symmetric_in_cells(self):
        a = pair_integral((0, 1), (2.5, 4), 0.3)
        b = pair_integral((2.5, 4), (0, 1), 0.3)
        assert a == b

    def test_overlap_rejected(self):
        with pytest.raises(InvalidCells):
            pair_integral((0, 2), (1, 3), 0.25)

    def test_semi_infinite_tail(self):
        # int_0^1 int_2^inf (y-x)^(-1-2s) dy dx, s=0.25: 4(sqrt2 - 1)
        val = pair_integral((0, 1), (2, math.inf), 0.25)
        assert abs(val - 4.0 * (math.sqrt(2.0) - 1.0)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0.1, 3.0), st.floats(0.05, 4.0))
    def test_symmetry_property(self, s, width, gap):
        a = (0.0, width)
        b = (width + gap, width + gap + 1.3)
        assert pair_integral(a, b, s) == pair_integral(b, a, s)


# ---------------------------------------------------------------------------
# exterior mass
# ---------------------------------------------------------------------------

class TestExteriorMass:
    def test_pointwise_example(self):
        val = exterior_mass(-0.25, (0.0, 1.0), make_order(1, 0.25))
        expected = (1.0 / 0.5) * (0.25 ** -0.5 - 1.25 ** -0.5)
        assert abs(val - expected) < 1e-12
        assert abs(val - 2.2111456180) < 1e-9

    def test_on_boundary_rejected(self):
        with pytest.raises(OnBoundary):
            exterior_mass(0.0, (0.0, 1.0), make_order(1, 0.25))
        with pytest.raises(OnBoundary):
            exterior_mass(0.5, (0.0, 1.0), make_order(1, 0.25))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0.01, 50.0))
    def test_punctual_upper_bound(self, s, d):
        # I <= (omega_0 / 2s) dist^(-2s) = dist^(-2s)/s in 1D
        order = make_order(1, round(s, 6))
        val = exterior_mass(-d, (0.0, 1.0), order)
        assert val <= d ** (-2 * order.s) / order.s * (1 + 1e-12)

    def test_decay_at_infinity(self):
        order = make_order(1, 0.4)
        vals = [exterior_mass(-d, (0.0, 1.0), order) for d in (1, 10, 100, 1000)]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
        # I(-d) <= d^(-2s)/s -> 1000^(-0.8)/0.4 at s = 0.4
        assert vals[-1] <= 1000.0 ** -0.8 / 0.4

    def test_sharpness_lower_bound(self):
        # |B_{kr}(x) cap Omega| >= delta |B_{kr}(x)| forces I >= c r^(-2s)
        order = make_order(1, 0.3)
        omega = (0.0, 1.0)
        for d in (0.05, 0.1, 0.2):
            x = -d
            k = 3.0
            ball = (x - k * d, x + k * d)
            overlap = max(0.0, min(ball[1], omega[1]) - max(ball[0], omega[0]))
            delta = overlap / (2 * k * d)
            if delta <= 0:
                continue
            lower = delta / (k * d) ** (1 + 2 * order.s) * overlap
            assert exterior_mass(x, omega, order) >= lower * (1 - 1e-12)

    def test_integrated_cell_form(self):
        order = make_order(1, 0.25)
        val = exterior_mass((-0.5, -0.25), (0.0, 1.0), order)
        ref = pair_integral((-0.5, -0.25), (0.0, 1.0), 0.25)
        assert val == ref

    def test_integrated_touching_divergence_flag(self):
        order6 = make_order(1, 0.6)
        # pointwise finite for interior points of the touching cell
        assert np.isfinite(exterior_mass(-0.01, (0.0, 1.0), order6))
        with pytest.raises(DivergentIntegral):
            exterior_mass((-0.1, 0.0), (0.0, 1.0), order6)

    def test_integrated_monotone_and_cauchy_in_R(self):
        # int_{Omega^c cap B_R} I dx nondecreasing and Cauchy within tail bounds
        order = make_order(1, 0.2)  # alpha = 0.4 < 1
        omega = (0.0, 1.0)
        vals = []
        for R in (2.0, 4.0, 8.0, 16.0):
            v = pair_integral((-R, 0.0), omega, order.s) \
                + pair_integral((1.0, R), omega, order.s)
            vals.append(v)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for (R, a), b in zip(((2.0, vals[0]), (4.0, vals[1]), (8.0, vals[2])), vals[1:]):
            assert b - a <= tail_mass(R - 1.0, order)

    def test_disk_2d_upper_bound(self):
        order = make_order(2, 0.3)
        val = exterior_mass_disk((2.0, 0.0), (0.0, 0.0), 1.0, order)
        d = 1.0
        assert 0 < val <= 2 * math.pi / (2 * order.s) * d ** (-2 * order.s)


    @pytest.mark.parametrize("s", (0.1, 0.5, 0.9))
    def test_disk_2d_against_mpmath_angular_reduction(self, s):
        # I(x) = int over rho - r < t < rho + r of the arc 2 acos(.) t^(-1-2s)
        order = make_order(2, s)
        with mp.workdps(30):
            for q in (1.01, 1.5, 3.0, 100.0):
                rho = mp.mpf(q)

                def arc(t, rho=rho):
                    c = (t * t + rho * rho - 1) / (2 * t * rho)
                    return 2 * mp.acos(max(-1, min(1, c))) * t ** (-1 - 2 * s)

                ref = mp.quad(arc, [rho - 1, rho, rho + 1])
                val = exterior_mass_disk((q, 0.0), (0.0, 0.0), 1.0, order)
                assert abs(val - ref) <= 1e-12 * ref, q

class TestTailMass:
    def test_examples(self):
        assert abs(tail_mass(1.0, make_order(1, 0.5)) - 2.0) < 1e-12
        assert abs(tail_mass(4.0, make_order(1, 0.5)) - 0.5) < 1e-12
        assert abs(tail_mass(2.0, make_order(1, 0.25)) - 2.0 ** -0.5 / 0.25) < 1e-12

    def test_2d(self):
        order = make_order(2, 0.5)
        assert abs(tail_mass(1.0, order) - 2 * math.pi / 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Dini checker
# ---------------------------------------------------------------------------

class TestDini:
    def test_power_power_finite_value(self):
        res = dini_check(ModulusOfContinuity.power(0.6), KernelOrder.power(0.3))
        assert res.converges
        assert res.value == pytest.approx(10.0 / 3.0, rel=1e-13, abs=0)

    def test_borderline_divergent(self):
        res = dini_check(ModulusOfContinuity.power(0.3), KernelOrder.power(0.3))
        assert res.divergent

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_log_spine_divergent(self, alpha):
        res = dini_check(ModulusOfContinuity.log_spine(), KernelOrder.power(alpha))
        assert res.divergent

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_power_power_classification_exact(self, beta, alpha):
        res = dini_check(ModulusOfContinuity.power(beta), KernelOrder.power(alpha))
        assert res.converges == (beta > alpha)
        if res.converges:
            assert res.value == pytest.approx(1.0 / (beta - alpha), rel=1e-13, abs=0)

    def test_table_kinds_classified_numerically(self):
        ts = np.logspace(-9, -0.1, 60)
        om = ModulusOfContinuity.from_table(ts, ts ** 0.7)
        ker = KernelOrder.from_table(ts * 1e6, (ts * 1e6) ** 0.2)
        res = dini_check(om, ker)
        assert res.converges
        assert abs(res.value - 2.0) < 1e-12  # 1/(0.7 - 0.2)

    def test_curved_table_matches_piecewise_mpmath(self):
        # omega0 = sqrt(t) + t read log-log linearly: 10 pieces on (0, 1),
        # each a power of t, integrated separately by mpmath
        ts = np.linspace(0.05, 0.9, 9)
        vs = np.sqrt(ts) + ts
        res = dini_check(ModulusOfContinuity.from_table(ts, vs), KernelOrder.power(0.2))
        with mp.workdps(30):
            T, V = [mp.mpf(float(t)) for t in ts], [mp.mpf(float(v)) for v in vs]
            k = [mp.log(V[i + 1] / V[i]) / mp.log(T[i + 1] / T[i]) for i in range(8)]
            k = [k[0]] + k + [k[-1]]                  # slope left of each edge
            edges = [mp.mpf(0)] + T + [mp.mpf(1)]
            ref = mp.fsum(
                mp.quad(lambda t, i=i, j=min(i, 8): V[j] * (t / T[j]) ** k[i]
                        * t ** mp.mpf(-1.2), edges[i:i + 2])
                for i in range(10))
        assert res.converges
        assert res.value == pytest.approx(float(ref), rel=1e-9, abs=0)

    def test_flat_piece_closed_form(self):
        # f = 4 (8t)^-1/2 on (0, 1/8], 2 (2t)^-1/2 on (1/8, 1/2], 1/t on (1/2, 1]:
        # 1 + 1 + log 2, the last piece with t f(t) flat
        om = ModulusOfContinuity.from_table([0.25, 0.5, 1.0], [0.5, 1.0, 1.0])
        ker = KernelOrder.from_table([1.0, 2.0, 8.0], [1.0, 1.0, 2.0])
        res = dini_check(om, ker)
        assert res.value == pytest.approx(2.0 + math.log(2.0), rel=1e-13, abs=0)

    def test_log_spine_profile(self):
        from mixedfrac import BadParameters
        spine = ModulusOfContinuity.log_spine()
        assert spine(0.5) == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
        assert spine(0.0) == 0.0
        for t in (1.0, 2.0):
            with pytest.raises(BadParameters):
                spine(t)

    def test_log_spine_divergent_against_table_kernel(self):
        ts = np.logspace(-3, 3, 7)
        ker = KernelOrder.from_table(ts, ts ** 0.1)
        res = dini_check(ModulusOfContinuity.log_spine(), ker)
        assert res.divergent

    def test_modulus_validation(self):
        from mixedfrac import BadParameters
        with pytest.raises(BadParameters):
            ModulusOfContinuity.from_table([0.1, 0.2, 0.3], [0.3, 0.2, 0.1])

    @pytest.mark.parametrize("cls", [ModulusOfContinuity, KernelOrder])
    @pytest.mark.parametrize("ts, vs", [
        ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]), ([-1.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
        ([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, math.inf], [1.0, 2.0, 3.0]),
        ([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, 0.0, 3.0]),
        ([1.0, 2.0], [1.0, 2.0])],
        ids=["t-zero", "t-negative", "t-nan", "t-inf", "t-repeated", "v-zero", "two-samples"])
    def test_table_checks_shared(self, cls, ts, vs):
        from mixedfrac import BadParameters
        with pytest.raises(BadParameters):
            cls.from_table(ts, vs)

    @pytest.mark.parametrize("cls", [ModulusOfContinuity, KernelOrder])
    @pytest.mark.parametrize("p", [0.0, -0.5, math.nan, math.inf])
    def test_power_needs_finite_positive_exponent(self, cls, p):
        from mixedfrac import BadParameters
        with pytest.raises(BadParameters):
            cls.power(p)


# ---------------------------------------------------------------------------
# indicator-seminorm identity
# ---------------------------------------------------------------------------

class TestIndicatorIdentity:
    def test_unit_interval_equals_eight(self):
        rep = indicator_seminorm_identity((0.0, 1.0), 0.5, tol=1e-6)
        # per side 1/(alpha(1-alpha)) = 4
        assert abs(rep.lhs - 8.0) < 1e-9
        assert abs(rep.rhs - 8.0) < 1e-6
        assert rep.gap <= 1e-6 * rep.lhs

    def test_dilation_scaling(self):
        a = indicator_seminorm_identity((0.0, 1.0), 0.5).lhs
        b = indicator_seminorm_identity((0.0, 2.0), 0.5).lhs
        assert abs(b / a - 2.0 ** 0.5) < 1e-10

    def test_alpha_to_one_grows(self):
        vals = [indicator_seminorm_identity((0.0, 1.0), al).lhs
                for al in (0.9, 0.95, 0.99)]
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_interval_union(self, alpha):
        omega = [(0.0, 1.0), (2.5, 3.0)]
        rep = indicator_seminorm_identity(omega, alpha, tol=1e-6)
        assert rep.gap <= 1e-6 * rep.lhs
