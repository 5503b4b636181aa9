"""Acceptance suite: runs every criterion at its stated tolerance.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them).  Two sub-gates are
known to sit beyond continuum scaling limits for this problem and fail with
printed diagnostics rather than being weakened: the 10% decay gate of the
touching-Dirichlet family (criterion 6; lambda ~ r^(1-2s) gives a 12.5%
floor over six halvings at s = 1/4) and the -1 +/- 0.1 far-field fit window
(criterion 9; the mandated window straddles a sign change of the deviation).
"""

import math
import time

import numpy as np
import pytest

from conftest import dense
from mixedfrac import (
    DiscParams,
    DiscreteFunction,
    Domain1D,
    ExperimentConfig,
    KernelOrder,
    ModulusOfContinuity,
    PartitionFamily,
    SolverParams,
    assemble,
    brute_force_energy,
    build_mesh,
    dini_check,
    dirichlet_baseline,
    e_of_r,
    experiments,
    farfield_rate,
    full_dirichlet_partition,
    gauss_residual_relative,
    generate,
    indicator_seminorm_identity,
    make_order,
    normalization_constant,
    parts_residual_relative,
    richardson_extrapolate,
    solve_mixed,
)
from mixedfrac.errors import DivergentIntegral

OM = Domain1D(-1.0, 1.0)
OM01 = Domain1D(0.0, 1.0)

# rows collected from every sweep, checked in criterion 8
ALL_SWEEP_ROWS = []


def _report(num, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:2d}: {detail}  [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"
    return ok


def _sweep(cfg_dict):
    cfg = ExperimentConfig.from_dict(cfg_dict)
    result = experiments.run(cfg)
    assert result.n_failed == 0
    ALL_SWEEP_ROWS.extend(result.records)
    return result


def test_criterion_01_normalization_constant(capsys=None):
    t0 = time.perf_counter()
    res = normalization_constant(1, 0.5, tol=1e-8)
    err = abs(res.value - 1.0 / math.pi)
    ok = err <= 1e-6
    print(f"\n   gamma-form ratio logged: {res.ratio:.9f}")
    _report(1, ok, f"a(1,1/2) = {res.value:.9f}, |err vs 1/pi| = {err:.2e} <= 1e-6", t0, 1.0)
    assert ok


def test_criterion_02_identity_suite():
    t0 = time.perf_counter()
    order = make_order(1, 0.5)
    part = generate(PartitionFamily(kind="explicit", omega=OM,
                                    params={"neumann": "rest", "dirichlet": []}), 0)
    mesh = build_mesh(OM, part, 0.05, 8.0, "P1", order=order)
    system = assemble(mesh, order)
    rng = np.random.default_rng(0)
    worst_g = worst_p = 0.0
    for _ in range(10):
        u = rng.standard_normal(system.n_free)
        v = rng.standard_normal(system.n_free)
        worst_g = max(worst_g, gauss_residual_relative(system, u))
        worst_p = max(worst_p, parts_residual_relative(system, u, v))
    small = build_mesh(OM, part, 0.5, 8.0, "P1", order=order)
    ssys = assemble(small, order)
    assert ssys.disc.n_cells <= 40
    worst_bf = 0.0
    for _ in range(3):
        u = rng.standard_normal(ssys.n_free)
        exact = float(u @ (dense(ssys)[0] @ u))
        worst_bf = max(worst_bf, abs(exact - brute_force_energy(ssys, u))
                       / max(abs(exact), 1.0))
    ok = worst_g <= 1e-12 and worst_p <= 1e-12 and worst_bf <= 1e-10
    _report(2, ok, f"gauss {worst_g:.2e}, parts {worst_p:.2e} (<=1e-12); "
            f"brute-force {worst_bf:.2e} (<=1e-10)", t0, 10.0)
    assert ok


GOLDEN_BASELINE = 1.1577   # frozen from this repo's own extrapolation oracle


def test_criterion_03_dirichlet_baseline():
    t0 = time.perf_counter()
    order = make_order(1, 0.5)
    hs = [0.04, 0.02, 0.01]
    lams = [dirichlet_baseline(OM, order, DiscParams(h=h, L=8.0, scheme="P1"),
                               SolverParams(tol=1e-13)).lambda1 for h in hs]
    limit, rate = richardson_extrapolate(hs, lams)
    ok = abs(limit - GOLDEN_BASELINE) <= 5e-4 and abs(limit - 1.158) <= 0.01
    _report(3, ok, f"lambda1(h) = {[f'{v:.6f}' for v in lams]}, "
            f"extrapolated {limit:.6f} (rate {rate:.2f}) vs golden {GOLDEN_BASELINE}",
            t0, 120.0)
    assert ok


def _forward_config(s, kind, family_params, k_list, h, L):
    return {
        "schema": 1,
        "order": {"dimension": 1, "s": s},
        "omega": {"a": -1.0, "b": 1.0},
        "family": {"kind": kind, "params": family_params, "k_list": k_list},
        "discretization": {"h": h, "L": L, "scheme": "P1"},
        "solver": {"tol": 1e-13, "max_iter": 800},
        "outputs": {},
        "verify": {"gauss": True, "conditionC": False, "measures": True},
    }


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_criterion_04_diffusing_neumann_forward(s):
    t0 = time.perf_counter()
    # (a) traveling Neumann interval, offsets 2^0 .. 2^6
    res_a = _sweep(_forward_config(
        s, "traveling_ball",
        {"offset0": 1.0, "length": 1.0, "ratio": 2.0, "side": "right"},
        list(range(7)), h=0.05, L=68.0))
    gaps = [r.gap for r in res_a.records]
    base = res_a.baseline
    strict = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_a = gaps[-1] / base
    # (b) shrinking Neumann interval at a fixed location, lengths 2^-2 .. 2^-6
    res_b = _sweep(_forward_config(
        s, "nested_neumann", {"left": 1.5, "length0": 1.0, "ratio": 2.0},
        list(range(2, 7)), h=2.0 ** -8, L=8.0))
    final_b = res_b.records[-1].gap / res_b.baseline
    ok = strict and final_a <= 0.02 and final_b <= 0.02
    _report(4, ok, f"s={s}: traveling gaps strictly decreasing = {strict}, "
            f"final {final_a:.2e} <= 2%; shrinking final {final_b:.2e} <= 2%",
            t0, 300.0)
    assert ok


def test_criterion_05_non_diffusing_persistent_gap():
    t0 = time.perf_counter()
    cfg = _forward_config(0.5, "explicit",
                          {"neumann": [[1.0, 2.0]], "dirichlet": "rest"},
                          [0, 1, 2], h=0.05, L=8.0)
    result = _sweep(cfg)
    fracs = [r.gap / r.baseline for r in result.records]
    ok = all(f >= 0.05 for f in fracs)
    _report(5, ok, f"fixed N=(1,2): gap fraction {fracs[0]:.3f} >= 5% for all k "
            f"(identical records: {len(set(r.lambda1 for r in result.records)) == 1})",
            t0, 60.0)
    assert ok


def test_criterion_06_shrinking_touching_dirichlet():
    t0 = time.perf_counter()
    cfg = {
        "schema": 1,
        "order": {"dimension": 1, "s": 0.25},
        "omega": {"a": 0.0, "b": 1.0},
        "family": {"kind": "shrinking_dirichlet_touching",
                   "params": {"r0": 1.0, "ratio": 2.0, "side": "left"},
                   "k_list": list(range(1, 8))},
        "discretization": {"h": 2.0 ** -9, "L": 4.0, "scheme": "P0"},
        "solver": {"tol": 1e-13, "max_iter": 800},
        "outputs": {},
        "verify": {"gauss": True, "conditionC": True, "measures": True},
    }
    result = _sweep(cfg)
    lams = [r.lambda1 for r in result.records]
    condC = [r.condC for r in result.records]
    monotone = all(b < a for a, b in zip(lams, lams[1:]))
    cond_ok = all(np.isfinite(condC)) and all(b < a for a, b in zip(condC, condC[1:]))
    ratio = lams[-1] / lams[0]
    ratio_ok = ratio <= 0.10
    print(f"\n   lambda1 by k: {[f'{v:.5f}' for v in lams]}")
    print(f"   condition-C column: {[f'{v:.4f}' for v in condC]}")
    print(f"   measured ratio lambda(2^-7)/lambda(2^-1) = {ratio:.4f}; the"
          f" continuum scaling lambda ~ r^(1-2s) puts a floor of 2^-3 = 0.125"
          f" on this ratio at s = 1/4, so the 10% gate is not attainable;"
          f" per-step ratios {[f'{lams[i+1]/lams[i]:.3f}' for i in range(6)]}"
          f" stay above 2^(-1/2) = 0.707 as they must.")
    ok = monotone and cond_ok and ratio_ok
    _report(6, ok, f"monotone {monotone}, condC finite+decreasing {cond_ok}, "
            f"ratio {ratio:.3f} <= 0.10 is {ratio_ok}", t0, 180.0)
    assert ok


def test_criterion_07_far_dirichlet_any_s():
    t0 = time.perf_counter()
    cfg = _forward_config(0.75, "traveling_dirichlet",
                          {"offset0": 1.0, "length": 1.0, "ratio": 2.0,
                           "side": "right"},
                          list(range(7)), h=0.05, L=68.0)
    cfg["verify"]["conditionC"] = True
    result = _sweep(cfg)
    lams = [r.lambda1 for r in result.records]
    ratio = lams[-1] / lams[0]
    ok = ratio <= 0.05
    _report(7, ok, f"s=0.75 traveling Dirichlet: lambda(k=6)/lambda(k=0) = "
            f"{ratio:.2e} <= 5%", t0, 180.0)
    assert ok


def test_criterion_08_monotonicity_and_bounds():
    t0 = time.perf_counter()
    order = make_order(1, 0.5)
    disc = DiscParams(h=0.05, L=8.0, scheme="P1")
    base = dirichlet_baseline(OM, order, disc, SolverParams(tol=1e-13)).lambda1
    rng = np.random.default_rng(2024)
    worst_violation = -math.inf
    for _ in range(20):
        lo = round(float(rng.uniform(1.2, 4.0)), 1)
        w1 = round(float(rng.uniform(0.4, 2.0)), 1)
        w2 = round(float(rng.uniform(0.4, 2.0)), 1)
        small = generate(PartitionFamily(
            kind="explicit", omega=OM,
            params={"dirichlet": [[lo, lo + w1]], "neumann": "rest"}), 0)
        large = generate(PartitionFamily(
            kind="explicit", omega=OM,
            params={"dirichlet": [[lo, lo + w1 + w2]], "neumann": "rest"}), 0)
        lam_s = solve_mixed(OM, small, order, disc, SolverParams(tol=1e-13)).lambda1
        lam_l = solve_mixed(OM, large, order, disc, SolverParams(tol=1e-13)).lambda1
        worst_violation = max(worst_violation, lam_s - lam_l)
        assert 0.0 <= lam_s <= base * (1 + 1e-10)
    rows_ok = all(0.0 <= r.lambda1 <= r.baseline * (1 + 1e-8)
                  for r in ALL_SWEEP_ROWS)
    ok = worst_violation <= 1e-12 and rows_ok
    _report(8, ok, f"20 nested pairs: worst lambda(D) - lambda(D') = "
            f"{worst_violation:.2e} <= 1e-12; {len(ALL_SWEEP_ROWS)} sweep rows "
            f"respect 0 <= lambda <= baseline: {rows_ok}", t0, 120.0)
    assert ok


def test_criterion_09_farfield_rate():
    t0 = time.perf_counter()
    order = make_order(1, 0.5)
    part = generate(PartitionFamily(
        kind="explicit", omega=OM,
        params={"neumann": [[4.0, math.inf]], "dirichlet": "rest"}), 0)
    res = solve_mixed(OM, part, order, DiscParams(h=0.02, L=8.0, scheme="P1"))
    fn = DiscreteFunction(res.system, res.u_free)
    rep = farfield_rate(fn, np.logspace(1.0, 3.0, 9))
    slope_err = abs(rep.slope + 1.0)
    ok = (not rep.degenerate) and slope_err <= 0.1
    # diagnostics: the mandated window straddles a sign change of u(x) - mean
    mean = fn.omega_mean()
    from mixedfrac import neumann_value
    c1 = [(neumann_value(fn, float(x)) - mean) * x for x in (3e2, 1e3, 1e4)]
    clean = farfield_rate(fn, np.logspace(math.log10(300.0), 4.0, 9))
    print(f"\n   dev*x at 3e2..1e4: {[f'{v:+.3e}' for v in c1]} (constant -> 1/x"
          f" rate holds); clean-window slope {clean.slope:.3f}; the fitted"
          f" window slope is {rep.slope:.3f} because the deviation changes"
          f" sign near x = 52 inside the mandated window.")
    _report(9, ok, f"slope over [10,1e3] = {rep.slope:.3f}, need -1 +/- 0.1",
            t0, 30.0)
    assert ok


def test_criterion_10_tangent_ball_scaling_oracle():
    t0 = time.perf_counter()
    details = []
    ok = True
    for s in (0.6, 0.7):
        rs = 2.0 ** -np.arange(3, 9)
        vals = np.array([e_of_r(float(r), s, dimension=2) for r in rs])
        slope = float(np.polyfit(np.log(rs), np.log(vals), 1)[0])
        target = 2.0 - 2 * s
        ok &= abs(slope - target) <= 0.05 * target
        details.append(f"s={s}: slope {slope:.4f} vs {target:.1f}")
    for s in (0.75, 0.8):
        try:
            e_of_r(0.125, s, dimension=2)
            ok = False
            details.append(f"s={s}: missing divergence")
        except DivergentIntegral:
            details.append(f"s={s}: divergent as required")
    _report(10, ok, "; ".join(details), t0, 30.0)
    assert ok


def test_criterion_11_dini_checker():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for beta in (0.2, 0.45, 0.6, 0.9):
        for alpha in (0.1, 0.3, 0.45, 0.6, 0.8):
            res = dini_check(ModulusOfContinuity.power(beta), KernelOrder.power(alpha))
            ok &= res.converges == (beta > alpha)
            if res.converges:
                worst = max(worst, abs(res.value - 1.0 / (beta - alpha)))
    ok &= worst <= 1e-6
    for alpha in (0.1, 0.5):
        res = dini_check(ModulusOfContinuity.log_spine(), KernelOrder.power(alpha))
        ok &= res.divergent
    _report(11, ok, f"power/power classification exact, worst |value - 1/(b-a)|"
            f" = {worst:.2e} <= 1e-6; spine modulus divergent", t0, 10.0)
    assert ok


def test_criterion_12_cross_scheme_consistency():
    t0 = time.perf_counter()
    order = make_order(1, 0.3)
    cases = {
        "full Dirichlet": (full_dirichlet_partition(OM), 8.0),
        "touching Dirichlet": (generate(PartitionFamily(
            kind="explicit", omega=OM,
            params={"dirichlet": [[1.0, 1.25]], "neumann": "rest"}), 0), 8.0),
        "far Neumann": (generate(PartitionFamily(
            kind="explicit", omega=OM,
            params={"neumann": [[9.0, 10.0]], "dirichlet": "rest"}), 0), 12.0),
    }
    details = []
    ok = True
    for name, (part, L) in cases.items():
        l0 = solve_mixed(OM, part, order, DiscParams(h=0.02, L=L, scheme="P0"),
                         SolverParams(tol=1e-13)).lambda1
        l1 = solve_mixed(OM, part, order, DiscParams(h=0.02, L=L, scheme="P1"),
                         SolverParams(tol=1e-13)).lambda1
        rel = abs(l0 - l1) / l1
        ok &= rel <= 0.01
        details.append(f"{name}: {rel * 100:.2f}%")
    _report(12, ok, "P0 vs P1 at s=0.3, h=0.02: " + "; ".join(details) +
            " (all <= 1%)", t0, 120.0)
    assert ok


def test_criterion_13_indicator_identity():
    t0 = time.perf_counter()
    rep = indicator_seminorm_identity((0.0, 1.0), 0.5, tol=1e-6)
    ok = abs(rep.lhs - 8.0) <= 1e-6 and abs(rep.rhs - 8.0) <= 1e-6
    _report(13, ok, f"lhs = {rep.lhs:.9f}, rhs = {rep.rhs:.9f}, both within "
            f"1e-6 of the analytic value 8", t0, 5.0)
    assert ok
