"""Error paths and sweep-level eigenfunction invariants."""

import numpy as np
import pytest

from mixedfrac import (
    DiscParams,
    Domain1D,
    EntryToleranceFailure,
    ExperimentConfig,
    IndefinitePencil,
    InconclusiveClassification,
    KernelOrder,
    ModulusOfContinuity,
    PartitionFamily,
    SingularExteriorBlock,
    SolverParams,
    assemble,
    build_mesh,
    dini_check,
    dirichlet_baseline,
    e_of_r,
    experiments,
    fit_rate,
    full_dirichlet_partition,
    generate,
    make_order,
    schur_reduce,
    smallest_eigenpair,
    solve_mixed,
)

OM = Domain1D(-1.0, 1.0)


def test_dini_inconclusive_near_critical_exponent():
    ts = np.logspace(-9, -0.5, 50)
    om = ModulusOfContinuity.from_table(ts, ts ** 0.5)
    ker = KernelOrder.from_table(1.0 / ts[::-1], (1.0 / ts[::-1]) ** 0.5)
    with pytest.raises(InconclusiveClassification):
        dini_check(om, ker, tol=1e-3)


def test_entry_tolerance_failure():
    from mixedfrac.assembly import _base_arrow
    _base_arrow.cache_clear()
    order = make_order(1, 0.5)
    mesh = build_mesh(OM, full_dirichlet_partition(OM), 0.25, 8.0, "P1",
                      order=order)
    with pytest.raises(EntryToleranceFailure):
        assemble(mesh, order, entry_tol=0.0)
    _base_arrow.cache_clear()


def test_singular_exterior_block():
    class Dummy:
        pass

    sys = Dummy()
    sys.K_II = np.eye(2)
    sys.K_IE = np.zeros((2, 1))
    sys.K_EE = np.zeros((2, 1))           # band with a zero diagonal
    sys.M_II = np.eye(2)
    sys.dirichlet_row_sums = np.zeros(3)
    sys.interior_mask = np.array([True, True, False])
    sys.exterior_mask = np.array([False, False, True])
    with pytest.raises(SingularExteriorBlock):
        schur_reduce(sys)


def test_indefinite_pencil():
    K = np.diag([1.0, -5.0])
    M = np.eye(2)
    with pytest.raises(IndefinitePencil):
        smallest_eigenpair(K, M)


def test_max_iter_flagged_not_raised():
    order = make_order(1, 0.5)
    res = dirichlet_baseline(OM, order, DiscParams(h=0.1, L=8.0, scheme="P1"),
                             SolverParams(tol=1e-15, max_iter=2))
    assert not res.converged
    assert res.lambda1 > 0


def test_sweep_uniform_linf_and_mean_bounds():
    # eigenfunctions of a traveling-Neumann family: sup norms uniformly
    # bounded (max <= 2x median) and means bounded below (min >= 0.1x median)
    order = make_order(1, 0.5)
    disc = DiscParams(h=0.1, L=20.0, scheme="P1")
    fam = PartitionFamily(kind="traveling_ball", omega=OM,
                          params={"offset0": 1.0, "length": 1.0, "ratio": 2.0})
    sups, means = [], []
    for k in range(5):
        res = solve_mixed(OM, generate(fam, k), order, disc)
        sups.append(float(np.max(np.abs(res.u_interior))))
        means.append(float(np.sum(res.reduction.M_int @ res.u_interior))
                     / OM.length)
    assert max(sups) <= 2.0 * float(np.median(sups))
    assert min(means) >= 0.1 * float(np.median(means))


def test_fit_rate_on_tangent_ball_table():
    s = 0.6
    rows = [{"r": float(r), "E": e_of_r(float(r), s)} for r in 2.0 ** -np.arange(3, 9)]
    slope, _, r2 = fit_rate(rows, "r", "E")
    assert abs(slope - (2 - 2 * s)) < 0.01
    assert r2 > 0.9999


def test_runner_baseline_matches_fresh_solve():
    cfg = ExperimentConfig.from_dict({
        "schema": 1,
        "order": {"dimension": 1, "s": 0.5},
        "omega": {"a": -1.0, "b": 1.0},
        "family": {"kind": "explicit",
                   "params": {"neumann": [[1.0, 2.0]], "dirichlet": "rest"},
                   "k_list": [0]},
        "discretization": {"h": 0.1, "L": 8.0, "scheme": "P1"},
        "solver": {"tol": 1e-12, "max_iter": 500},
    })
    result = experiments.run(cfg)
    fresh = dirichlet_baseline(cfg.omega, make_order(1, 0.5), cfg.disc,
                               cfg.solver).lambda1
    assert abs(result.baseline - fresh) <= 1e-12
