import ast
import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import band, dense, unband
from mixedfrac import (
    DiscParams,
    Domain1D,
    ExperimentConfig,
    IndefinitePencil,
    PartitionFamily,
    SingularExteriorBlock,
    SolverParams,
    assemble,
    build_mesh,
    dirichlet_baseline,
    full_dirichlet_partition,
    generate,
    make_order,
    pair_integral,
    richardson_extrapolate,
    schur_reduce,
    smallest_eigenpair,
    solve_mixed,
)
from mixedfrac import BadParameters, assembly, eigensolver, experiments
from mixedfrac.assembly import (DOF_DIRICHLET, DOF_INTERIOR, DOF_NEUMANN, StiffnessSystem,
                                _base_arrow, _base_key, _omega_mass)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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

        # the mesh key of a P1 grid: its base band is not diagonal, so the
        # direct elimination runs on the synthetic blocks, whose K_IE is the
        # run of columns 0-2 of the zero rows R_I
        order = make_order(1, 0.5)
        sys = StiffnessSystem(
            disc=build_mesh(OM, full_dirichlet_partition(OM), 0.5, 8.0, "P1", order=order),
            order=order, K_II=K_II, R_I=np.zeros((4, 37)), K_EE=K_EE,
            runs_E=((slice(0, 3), slice(0, 3)),),
            M_II=band(np.eye(4)), free_dofs=np.arange(7),
            interior_mask=np.array([True] * 4 + [False] * 3),
            exterior_mask=np.array([False] * 4 + [True] * 3),
            tail_corrections=np.zeros(7), dirichlet_row_sums=np.zeros(7))
        assert sys.K_IE.shape == (4, 3)
        red = schur_reduce(sys)
        assert np.allclose(red.dense(), K_II, atol=1e-14)
        assert np.allclose(red.back_map(np.ones(4)), 0.0)

    def test_back_map_of_constants_is_one(self):
        order = make_order(1, 0.5)
        om = OM
        part = explicit(om, neumann="rest", dirichlet=[])
        mesh = build_mesh(om, part, 0.1, 8.0, "P1", order=order)
        system = assemble(mesh, order)
        red = schur_reduce(system)
        ones = np.ones(np.count_nonzero(system.interior_mask))
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
        assert np.count_nonzero(system.exterior_mask) == 4
        u = np.linspace(1.0, 2.0, np.count_nonzero(system.interior_mask))
        got = red.back_map(u)
        omega_cells = [(x, x + h) for x in np.arange(0.0, 1.0, h)]
        for j in range(4):
            ecell = (2.0 + j * h, 2.0 + (j + 1) * h)
            weights = np.array([pair_integral(c, ecell, order.s)
                                for c in omega_cells])
            expected = float(weights @ u / weights.sum())
            assert abs(got[j] - expected) < 1e-12

    def test_solve_back_substitutes_once(self, monkeypatch):
        # the exterior of the eigenfunction is one back_map of its interior
        from mixedfrac.eigensolver import SchurReduction
        calls = []
        back_map = SchurReduction.back_map
        monkeypatch.setattr(SchurReduction, "back_map",
                            lambda red, u: calls.append(u) or back_map(red, u))
        order = make_order(1, 0.5)
        part = explicit(OM, neumann=[[1.0, 2.0]], dirichlet="rest")
        res = solve_mixed(OM, part, order, DiscParams(h=0.1, L=8.0, scheme="P1"))
        assert len(calls) == 1
        assert np.array_equal(calls[0], res.u.values[res.u.system.interior_mask])

    def test_rayleigh_consistency(self, mixed_result):
        res = mixed_result
        full = res.u.values
        K, M = dense(res.u.system)
        rq = float(full @ (K @ full)) / float(full @ (M @ full))
        assert abs(rq - res.lambda1) <= 1e-10 * max(res.lambda1, 1.0)


def _touching(k):
    """The criterion-6 record k: D = (-2^-k, 0) touching Omega = (0, 1), P0."""
    order = make_order(1, 0.25)
    part = generate(PartitionFamily(kind="shrinking_dirichlet_touching", omega=OM01,
                                    params={"r0": 1.0, "ratio": 2.0, "side": "left"}), k)
    return assemble(build_mesh(OM01, part, 2.0 ** -9, 4.0, "P0", order=order), order)


def _assert_direct_form(system, monkeypatch):
    """schur_reduce eliminates N directly, without the cached Gram."""
    def forbidden(system):
        raise AssertionError("took the Gram update")

    monkeypatch.setattr(eigensolver, "_exterior_gram", forbidden)
    K_eff = schur_reduce(system).dense()
    X = system.K_IE.T / np.sqrt(system.K_EE[1])[:, None]
    K_direct = system.K_II - X.T @ X
    assert np.abs(K_eff - K_direct).max() <= 1e-13 * np.abs(K_direct).max()


class TestGramUpdate:
    """The cached all-exterior elimination G_E with the Dirichlet cells put back."""

    @pytest.mark.parametrize("k", [1, 7])
    def test_matches_direct_syrk_on_criterion_6(self, cold_caches, k, monkeypatch):
        # cold_caches: a cold factor builds G_E
        system = _touching(k)
        n_D = np.count_nonzero(system.disc.dof_label == DOF_DIRICHLET)
        assert n_D < system.K_IE.shape[1]
        calls = _counted(monkeypatch, "_exterior_gram")
        K_eff = schur_reduce(system).dense()
        assert len(calls) == 1
        X = system.K_IE.T / np.sqrt(system.K_EE[1])[:, None]
        K_direct = system.K_II - X.T @ X
        assert np.array_equal(K_eff, K_eff.T)
        assert np.abs(K_eff - K_direct).max() <= 1e-13 * np.abs(K_direct).max()

    def test_dirichlet_rows_are_the_scaled_columns(self):
        # X_D by runs, views of the line over the cached bands, is the former
        # gather R_I[:, D] / sqrt(mass) bitwise, in the order that dtrsm reads
        order = make_order(1, 0.25)
        part = explicit(OM01, dirichlet=[[-3.0, -2.875], [-0.125, 0.0], [2.0, 2.125]],
                        neumann="rest")
        system = assemble(build_mesh(OM01, part, 2.0 ** -6, 4.0, "P0", order=order), order)
        D = np.flatnonzero(system.disc.dof_label == DOF_DIRICHLET)
        assert len(assembly.runs(D)) == 3
        red = schur_reduce(system)
        assert red.form == "gram"
        X = (system.R_I[:, D] / np.sqrt(_omega_mass(system.R_I, D))).T
        assert np.array_equal(red.X, X) and red.X.T.flags.f_contiguous

    def test_p1_never_takes_the_update(self, monkeypatch):
        # isolated Neumann nodes: the trimmed K_EE is diagonal and |D| < |N|,
        # yet the P1 base band couples the exterior, so the direct path runs
        order = make_order(1, 0.5)
        disc = build_mesh(OM01, explicit(OM01, neumann="rest", dirichlet=[]), 0.2, 5.0,
                          "P1", order=order)
        j = np.arange(disc.n_dofs)
        label = np.where(np.minimum(j, j[::-1]) % 2 == 0, DOF_NEUMANN, DOF_DIRICHLET)
        label[disc.n_collar:disc.n_collar + disc.n_interior + 1] = DOF_INTERIOR
        label = label.astype(np.int8)
        system = assemble(dataclasses.replace(disc, dof_label=label), order)
        assert not np.any(system.K_EE[0])
        assert np.count_nonzero(label == DOF_DIRICHLET) < system.K_IE.shape[1]
        _assert_direct_form(system, monkeypatch)

    def test_dirichlet_heavy_p0_keeps_the_direct_form(self, monkeypatch):
        # |D| >= |N|: putting D back would cost more than eliminating N
        order = make_order(1, 0.25)
        part = explicit(OM01, neumann=[[2.0, 2.5]], dirichlet="rest")
        system = assemble(build_mesh(OM01, part, 2.0 ** -5, 4.0, "P0", order=order), order)
        assert np.count_nonzero(system.disc.dof_label == DOF_DIRICHLET) >= system.K_IE.shape[1]
        _assert_direct_form(system, monkeypatch)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_built_once_per_mesh(self, cold_caches, jobs, monkeypatch):
        cfg = ExperimentConfig.from_dict({
            "schema": 1,
            "order": {"dimension": 1, "s": 0.25},
            "omega": {"a": 0.0, "b": 1.0},
            "family": {"kind": "shrinking_dirichlet_touching",
                       "params": {"r0": 1.0, "ratio": 2.0, "side": "left"},
                       "k_list": [1, 2, 3, 4]},
            "discretization": {"h": 2.0 ** -6, "L": 4.0, "scheme": "P0"},
            "solver": {"tol": 1e-13, "max_iter": 800},
            "outputs": {},
            "verify": {"gauss": True, "conditionC": False, "measures": True},
        })
        # two concurrent records both arrive while it builds
        builds = _counted(monkeypatch, "_exterior_gram", sleep=0.05)
        result = experiments.run(cfg, jobs=jobs)
        assert result.n_failed == 0
        assert len(builds) == 1


class TestStore:
    """The one store of shared operator pieces: a re-entrant lock, two entries per kind."""

    def test_concurrent_first_calls_build_once(self, cold_caches):
        builds, barrier = [], threading.Barrier(2)

        def build():
            builds.append(None)
            time.sleep(0.05)      # the second thread arrives while the first builds
            return object()

        def first_call(_):
            barrier.wait(timeout=5)
            return assembly._cached("line", "key", build)

        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(first_call, range(2), timeout=60))
        assert len(builds) == 1 and got[0] is got[1]

    def test_a_third_key_evicts_the_least_recently_used_of_its_kind(self, cold_caches):
        def cached(kind, key):
            return assembly._cached(kind, key, lambda: [kind, key])   # a new list per build

        arrow = cached("arrow", 0)
        one, two = cached("line", 1), cached("line", 2)
        assert cached("line", 1) is one           # now the most recently used line
        cached("line", 3)                         # evicts line 2
        assert len(assembly._STORE["line"]) == 2
        assert cached("line", 1) is one and cached("arrow", 0) is arrow
        assert cached("line", 2) is not two

    def test_nested_builds_from_two_threads_finish(self):
        # a cold Gram factor builds G_E under the store's lock, from the
        # system's own rows and the left collar's band, which the record's
        # Dirichlet rows stored first with the line it is built from: one
        # build, and no kind stored but those; in a process of its own, so
        # that a deadlock fails this test alone
        code = textwrap.dedent("""
            from concurrent.futures import ThreadPoolExecutor
            from mixedfrac import (Domain1D, PartitionFamily, assemble, assembly, build_mesh,
                                   eigensolver, generate, make_order, schur_reduce)
            order, om = make_order(1, 0.25), Domain1D(0.0, 1.0)
            part = generate(PartitionFamily(kind="shrinking_dirichlet_touching", omega=om,
                            params={"r0": 1.0, "ratio": 2.0, "side": "left"}), 1)
            system = assemble(build_mesh(om, part, 2.0 ** -6, 4.0, "P0", order=order), order)
            assembly._STORE.clear()
            builds, gram = [], eigensolver._exterior_gram
            eigensolver._exterior_gram = lambda system: builds.append(1) or gram(system)
            with ThreadPoolExecutor(max_workers=2) as pool:
                a, b = pool.map(lambda _: schur_reduce(system).factor, range(2))
            assert a is b and len(builds) == 1
            assert set(assembly._STORE) == {"band", "factor", "line"}
        """)
        src = str(Path(assembly.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


def test_eigensolver_imports_only_the_store_and_omega_mass_of_assembly_privates():
    # the Schur step reads the system it is given, not assembly's bookkeeping
    tree = ast.parse(Path(eigensolver.__file__).read_text(encoding="utf-8"))
    private = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[-1] == "assembly"
               for alias in node.names if alias.name.startswith("_")}
    assert private <= {"_cached", "_omega_mass"}, private


def _p0_full_dirichlet(h, L):
    """(mesh, order) of D = Omega^c on Omega = (0, 1), P0, s = 1/4."""
    order = make_order(1, 0.25)
    return build_mesh(OM01, full_dirichlet_partition(OM01), h, L, "P0", order=order), order


class TestExteriorGram:
    """G_E from the left collar and its mirror image, against the two-sided sum."""

    # criterion 6 (n_int = 512, 2048 cells a side), n_int = 1, odd L / h, and odd
    # n_int > 1, whose middle row is its own mirror image: 5, and 257 with a
    # partial last chunk of 1028 cells a side
    @pytest.mark.parametrize("h,L", [(2.0 ** -9, 4.0), (1.0, 4.0), (1 / 16, 65 / 16),
                                     (1 / 5, 4.0), (1 / 257, 4.0)],
                             ids=["c6", "n_int_1", "odd_collar", "odd_n_int", "odd_chunks"])
    def test_matches_the_two_sided_sum(self, h, L):
        disc, order = _p0_full_dirichlet(h, L)
        system = assemble(disc, order)
        G_E = eigensolver._exterior_gram(system)
        R = system.R_I
        assert R.shape == (disc.n_interior, disc.n_cells)    # every Omega row
        E = np.r_[0:disc.n_collar, disc.n_collar + disc.n_interior:disc.n_cells]
        mass = -R[:, E].sum(axis=0)       # the column sums, each its own sum
        X = R[:, E] / np.sqrt(mass)
        ref = X @ X.T
        assert np.abs(G_E - ref).max() <= 1e-14 * np.abs(G_E).max()
        assert np.array_equal(G_E, G_E.T)
        assert np.array_equal(G_E, G_E[::-1, ::-1])
        assert not G_E.flags.writeable

    @pytest.mark.parametrize("h,L", [(2.0 ** -6, 4.0), (1 / 5, 4.0), (1.0, 4.0)])
    def test_columns_are_views_of_the_line(self, h, L):
        disc, order = _p0_full_dirichlet(h, L)
        system = assemble(disc, order)
        n_c, m = disc.n_collar, disc.n_cells
        for run in (slice(0, n_c), slice(1, 3), slice(m - n_c, m), slice(m - 3, m - 1)):
            cols = eigensolver._exterior_columns(system, run)
            assert np.array_equal(cols, system.R_I[:, run].T)
            assert not cols.flags.writeable


def _ball_in_sea():
    """A Dirichlet ball in a Neumann sea, P1: the exterior Neumann DOFs form three runs."""
    order = make_order(1, 0.75)
    part = explicit(OM, dirichlet=[[1.5, 2.5]], neumann="rest")
    return assemble(build_mesh(OM, part, 0.1, 8.0, "P1", order=order), order)


class TestExteriorInPlace:
    """K_IE is read in place from the cached base, by runs of exterior DOFs."""

    def test_three_runs_match_the_gathered_block(self):
        system = _ball_in_sea()
        assert len(system.runs_E) == 3
        R, ext = _base_arrow(*_base_key(system.disc, system.order))
        saved = [a.copy() for a in (system.K_II, R, ext)]
        K_IE = np.take(system.R_I, system.free_dofs[system.exterior_mask], axis=1)
        assert np.array_equal(system.K_IE, K_IE)
        red = schur_reduce(system)
        # the construction that copied K_IE: np.take, then the unit-diagonal
        # half-solve on f2py's copy
        X = _unit_half_solve(scipy.linalg.cholesky_banded(system.K_EE), K_IE.T)
        K_eff = scipy.linalg.blas.dsyrk(-1.0, X, beta=1.0, c=system.K_II, trans=1)
        np.copyto(K_eff, K_eff.T, where=np.tri(len(K_eff), k=-1, dtype=bool))
        assert np.array_equal(red.dense(), K_eff)
        for got, old in zip((system.K_II, R, ext), saved):
            assert np.array_equal(got, old)

        K, _ = dense(system)
        u = np.random.default_rng(5).standard_normal(system.n_free)
        assert np.abs(system.matvec(u) - K @ u).max() <= 1e-14 * np.abs(K @ u).max()
        iI, iE = np.flatnonzero(system.interior_mask), np.flatnonzero(system.exterior_mask)
        u_I = u[iI]
        ref = -np.linalg.solve(K[np.ix_(iE, iE)], K[np.ix_(iE, iI)] @ u_I)
        assert np.abs(red.back_map(u_I) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_gram_update_leaves_k_ii(self):
        system = _touching(1)
        K_II = system.K_II.copy()
        K_eff = schur_reduce(system).dense()
        assert K_eff is not system.K_II
        assert np.array_equal(system.K_II, K_II)

    def test_failed_triangular_solve_raises(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg.lapack, "dtbtrs", lambda ab, b, **kw: (b, 2))
        with pytest.raises(SingularExteriorBlock, match="info 2"):
            schur_reduce(_ball_in_sea())

    def test_memory_on_criterion_6(self):
        # numpy reports its buffers to tracemalloc; the line is cached first
        system = _touching(1)
        n_I, n_E = system.K_II.shape[0], np.count_nonzero(system.exterior_mask)
        tracemalloc.start()
        try:
            assemble(system.disc, system.order)
            warm = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            eigensolver._exterior_gram(system)
            cold = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # a warm assemble copies no K_IE (|I| |E| doubles, 15 MiB here)
        assert warm < n_I * n_E * 8 / 4
        # a cold G_E build holds G_E, the two half Grams and one chunk of each
        # half, never the |I| x |ext| scaled exterior columns (16 MiB here)
        h, hc, chunk = n_I // 2, (n_I + 1) // 2, eigensolver._GRAM_CHUNK
        assert cold < 8 * (n_I * n_I + hc * hc + h * h + chunk * (hc + h)) + 2 ** 20


INF = math.inf
# Neumann half-lines on Omega = (-1, 1), P1, h = 1/40, L = 8: n_I = 79, 320 nodes a
# collar; the low-rank records (2r <= n_I) and whole collars (r = 0), by Gram rows
HALF_LINES = {
    "right": ([[1.2, INF]], 8),
    "left": ([[-INF, -1.2]], 8),
    "both": ([[-INF, -1.1], [1.2, INF]], 12),
    "whole_right": ([[1.0, INF]], 0),
    "whole_left": ([[-INF, -1.0]], 0),
}


def _half_line(neumann, h=1 / 40):
    order = make_order(1, 0.5)
    part = explicit(OM, neumann=neumann, dirichlet="rest")
    return assemble(build_mesh(OM, part, h, 8.0, "P1", order=order), order)


class TestCollarForms:
    """Records whose collar runs start at the grid end, with fewer Dirichlet nodes on
    their Neumann collars than Neumann ones, take their rows from a cached collar
    half-solve; every other record keeps the per-record direct form."""

    @pytest.mark.parametrize("name", list(HALF_LINES))
    def test_matches_the_direct_form(self, cold_caches, name):
        neumann, rows = HALF_LINES[name]
        system = _half_line(neumann)
        red = schur_reduce(system)
        assert red.form == "collar_gram" and len(red.X) == rows
        assert 2 * rows <= len(system.K_II)
        K_eff, ref = red.dense(), _formed(system)
        assert np.abs(K_eff - ref).max() <= 1e-12 * np.abs(ref).max()
        lam = smallest_eigenpair(red, system.M_II, tol=1e-13, max_iter=800)
        want = smallest_eigenpair(ref, system.M_II, tol=1e-13, max_iter=800)
        assert lam.converged and want.converged
        assert abs(lam.value - want.value) <= 1e-12 * want.value

    def test_dense_record_matches_the_direct_form(self, cold_caches):
        # N = (2, inf): 10 Gram rows against n_I = 19, so K_eff is formed
        system = _half_line([[2.0, INF]], h=0.1)
        red = schur_reduce(system)
        assert red.form == "collar_gram" and not len(red.X)
        ref = _formed(system)
        assert np.abs(red.dense() - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("make", [
        _ball_in_sea,                                          # two runs on the right collar
        lambda: _half_line([[1.5, 3.0]]),                      # a run that misses the grid end
        lambda: _half_line([[-INF, -1.5], [1.5, 3.0]]),        # one anchored collar, one not
        # anchored, but 32 Neumann nodes a collar against 288 Dirichlet ones
        lambda: _half_line([[8.2, INF]]),
        lambda: _half_line([[-INF, -8.2]]),
        lambda: _half_line([[-INF, -8.6], [8.6, INF]]),
        lambda: _half_line([[-INF, -5.0], [5.0, INF]])],       # a tie: 160 rows either way
        ids=["two_runs", "misses_the_end", "one_collar_anchored", "short_right",
             "short_left", "short_both", "tie"])
    def test_other_records_keep_the_direct_form_bitwise(self, cold_caches, make, monkeypatch):
        system = make()
        collars = _counted(monkeypatch, "_collar_solve")
        red = schur_reduce(system)
        assert red.form == "direct" and not collars
        assert np.array_equal(red.dense(), _formed(system))

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_one_collar_solve_per_mesh_and_collar(self, cold_caches, jobs, monkeypatch):
        # both half-lines move outward: every record is anchored on both collars;
        # jobs = 3 runs every record at once, more threads than a 2-core machine
        # has, switching threads every 10 us
        cfg = _sweep_config("infinite_sector", {"R0": 2.0, "ratio": 2.0, "side": "both"},
                            [0, 1, 2], 1 / 32, 8.0, "P1", 0.5, (-1.0, 1.0))
        mesh = cfg.validate()[0]
        solves = []
        dtbtrs = scipy.linalg.lapack.dtbtrs
        monkeypatch.setattr(scipy.linalg.lapack, "dtbtrs",
                            lambda *a, **kw: solves.append(a) or dtbtrs(*a, **kw))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = experiments.run(cfg, jobs=jobs)
        finally:
            sys.setswitchinterval(interval)
        assert result.n_failed == 0
        # R = 2, 4: fewer Gram rows; R = 8: 32 nodes a side, fewer direct ones
        assert [r.schur for r in result.records] == ["collar_gram"] * 2 + ["direct"]
        # one per chunk of interior columns of each collar, one for R = 8
        chunks = -(-np.count_nonzero(mesh.dof_label == DOF_INTERIOR) // assembly.SOLVE_CHUNK)
        assert chunks == 2 and len(solves) == 2 * chunks + 1
        assert len(assembly._STORE["collar"]) == 2
        red = schur_reduce(assemble(mesh, make_order(1, 0.5)))
        assert len(solves) == 5 and red.form == "collar_gram"    # a warm record solves nothing


def _collar_sector_record():
    """The first record of perfbench's collar_sector sweep, assembled: N = (2, inf)."""
    cfg = _benchmark_sweep("collar_sector")
    return assemble(cfg.validate()[0], make_order(1, cfg.s))


class TestHalfSolve:
    """The division-free half-solve against plain dtbtrs on U, and the memory of a
    cold collar half-solve, which solves its columns in chunks."""

    def test_collar_matches_plain_dtbtrs(self, cold_caches):
        system = _collar_sector_record()
        disc = system.disc
        n_c, m = disc.n_collar, disc.n_dofs
        band = assembly.exterior_band(disc, system.order, "right")
        K_cc = np.stack([np.r_[0.0, band[0, ::-1][:-1]], band[1, ::-1]])
        B = system.columns(slice(m - 1, m - 1 - n_c, -1), slice(None),
                           np.empty((n_c, len(system.K_II)), order="F"))
        ref = scipy.linalg.lapack.dtbtrs(scipy.linalg.cholesky_banded(K_cc), B, trans="T")[0]
        X = eigensolver._collar_solve(system, "right")
        assert X.shape == (3600, 199)                  # seven chunks
        assert np.abs(X - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_direct_record_matches_plain_dtbtrs(self):
        cfg = _benchmark_sweep("c7_dirichlet_ball")
        system = assemble(cfg.validate()[6], make_order(1, cfg.s))
        U = eigensolver._band_cholesky(system.K_EE, "c7")
        assert U.shape[0] == 2                         # bidiagonal: the unit form
        B = np.asfortranarray(system.K_IE.T)
        ref = scipy.linalg.lapack.dtbtrs(U, B, trans="T")[0]
        X = eigensolver._half_solve(U, B, "c7")
        assert np.abs(X - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_cold_collar_solve_holds_one_chunk(self, cold_caches):
        # the half-solve X_c is kept; a build holds it, one n_collar x 32 chunk
        # and small bands, where a whole Fortran-order gather and a C-order
        # copy of X_c came to 11.5 MB against the 5.7 MB kept
        system = _collar_sector_record()
        assembly.exterior_band(system.disc, system.order, "right")    # built by assemble
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            X = eigensolver._collar_solve(system, "right")
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        chunk = system.disc.n_collar * assembly.SOLVE_CHUNK * 8
        assert peak <= X.nbytes + chunk + 2 ** 20


def _cut_bands(system):
    """Each collar's ``exterior_band`` on the system's Neumann DOFs, couplings across a
    gap zeroed: the bands laid out over every grid DOF, then cut."""
    disc = system.disc
    bands = [assembly.exterior_band(disc, system.order, side) for side in ("left", "right")]
    omega = np.zeros((2, disc.n_dofs - 2 * disc.n_collar))
    cols = system.free_dofs[system.exterior_mask]
    K_EE = np.concatenate([bands[0], omega, bands[1]], axis=1)[:, cols]
    K_EE[0] = np.where(np.diff(cols, prepend=-2) == 1, K_EE[0], 0.0)
    return K_EE


class TestSharedExteriorCut:
    """Every path cuts K_EE, and a collar half-solve K_cc, from one band per collar."""

    @pytest.mark.parametrize("name,k", [("c7_dirichlet_ball", 0), ("c7_dirichlet_ball", 6),
                                        ("collar_sector", 0), ("c6_touching_p0", 1)])
    def test_K_EE_is_the_cut_of_the_collar_bands(self, cold_caches, name, k):
        cfg = _benchmark_sweep(name)
        mesh = cfg.validate()[cfg.k_list.index(k)]
        system = assemble(mesh, make_order(1, cfg.s))
        assert np.array_equal(system.K_EE, _cut_bands(system))
        cols = system.free_dofs[system.exterior_mask]
        if name == "c7_dirichlet_ball":
            # a gap around the Dirichlet ball, and the arrow base's own cut
            assert system.path == "arrow" and np.any(np.diff(cols) > 1)
            ref = _base_arrow(*system.key[0])[1][:, cols]
            ref[0] = np.where(np.diff(cols, prepend=-2) == 1, ref[0], 0.0)
            assert np.array_equal(system.K_EE, ref)
        elif name == "collar_sector":
            assert system.path == "closed_form" and cols[-1] == mesh.n_dofs - 1
        else:
            assert mesh.scheme == "P0" and system.path == "closed_form"

    def test_arrow_path_collar_gram_cuts_K_cc_from_the_arrow_band(self, cold_caches,
                                                                   monkeypatch):
        # a free left Omega end node takes the arrow base; both Neumann collars
        # are runs from the grid end
        order = make_order(1, 0.5)
        part = explicit(OM, dirichlet=[[1.0, 3.0]], neumann="rest")
        system = assemble(build_mesh(OM, part, 0.05, 8.0, "P1", order=order), order)
        assert system.path == "arrow"
        bands = []
        band = eigensolver.exterior_band
        monkeypatch.setattr(eigensolver, "exterior_band",
                            lambda *a: bands.append(band(*a)) or bands[-1])
        assert schur_reduce(system).form == "collar_gram"
        ext = _base_arrow(*system.key[0])[1]
        assert len(bands) == 2 and all(np.shares_memory(b, ext) for b in bands)
        assert "band" not in assembly._STORE


def _neumann_interval():
    """A P1 Neumann interval in a Dirichlet sea: a rank-9 change of K_II (40 DOFs)."""
    order = make_order(1, 0.5)
    part = explicit(OM, neumann=[[1.0, 1.5]], dirichlet="rest")
    return assemble(build_mesh(OM, part, 0.05, 8.0, "P1", order=order), order)


def _unit_half_solve(U, B):
    """U^{-T} B for a bidiagonal U = diag(d) Ubar, Ubar unit upper bidiagonal: dtbtrs
    of Ubar^T Y = B, then the rows of Y over d."""
    d = U[1]
    unit = np.stack([np.r_[0.0, U[0, 1:] / d[:-1]], np.ones_like(d)])
    Y = scipy.linalg.lapack.dtbtrs(unit, B, trans="T", diag="U")[0]
    return Y / d[:, None]


def _formed(system):
    """K_eff as the dense path forms it: a half-solve (unit-diagonal on P1, dtbtrs on
    P0's diagonal) and a dsyrk on K_II (direct), or a dsyrk of the Dirichlet
    cells on K_II - G_E (Gram update, P0), mirrored; P0's Omega rows are R_I."""
    disc = system.disc
    D = np.flatnonzero(disc.dof_label == DOF_DIRICHLET)
    if disc.scheme == "P1" or len(D) >= system.K_EE.shape[1]:
        U = scipy.linalg.cholesky_banded(system.K_EE)
        if disc.scheme == "P1":
            X = _unit_half_solve(U, system.K_IE.T)
        else:
            X = scipy.linalg.lapack.dtbtrs(U, system.K_IE.T, trans="T")[0]
        alpha, base = -1.0, system.K_II
    else:
        R = system.R_I
        X = (R[:, D] / np.sqrt(_omega_mass(R, D))).T
        alpha, base = 1.0, (system.K_II - eigensolver._exterior_gram(system)).T
    K_eff = scipy.linalg.blas.dsyrk(alpha, X, beta=1.0, c=base, trans=1)
    np.copyto(K_eff, K_eff.T, where=np.tri(len(K_eff), k=-1, dtype=bool))
    return K_eff


def _counted(monkeypatch, name, sleep=0.0):
    """Wrap eigensolver.<name> to record its calls; the list of their arguments."""
    calls = []
    inner = getattr(eigensolver, name)

    def counted(*args):
        calls.append(args)
        time.sleep(sleep)
        return inner(*args)

    monkeypatch.setattr(eigensolver, name, counted)
    return calls


def _perfbench(module: str):
    """perfbench/<module>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(module, PERFBENCH / f"{module}.py")
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


def _benchmark_sweep(name: str, **solver) -> ExperimentConfig:
    """The config of one sweep of perfbench/workloads.py, with no outputs."""
    raw = _perfbench("workloads").SWEEPS[name]
    return ExperimentConfig.from_dict({**raw, "solver": {**raw["solver"], **solver},
                                       "outputs": {}})


def _sweep_config(kind, params, k_list, h, L, scheme, s, omega):
    return ExperimentConfig.from_dict({
        "schema": 1,
        "order": {"dimension": 1, "s": s},
        "omega": {"a": omega[0], "b": omega[1]},
        "family": {"kind": kind, "params": params, "k_list": k_list},
        "discretization": {"h": h, "L": L, "scheme": scheme},
        "solver": {"tol": 1e-13, "max_iter": 800},
        "outputs": {},
        "verify": {"gauss": True, "conditionC": False, "measures": True},
    })


class TestLowRankPath:
    """Records with 2r <= n_I solve on one cached factor per base by a capacitance update."""

    @pytest.mark.parametrize("make", [_neumann_interval, lambda: _touching(1),
                                      lambda: _touching(7)],
                             ids=["p1_interval", "touching1", "touching7"])
    def test_matches_the_dense_path(self, make):
        system = make()
        red = schur_reduce(system)
        assert 0 < 2 * len(red.X) <= len(system.K_II)
        K_eff = red.dense()
        assert np.array_equal(K_eff, _formed(system))
        low = smallest_eigenpair(red, system.M_II, tol=1e-13, max_iter=800)
        ref = smallest_eigenpair(K_eff, system.M_II, tol=1e-13, max_iter=800)
        assert low.converged and ref.converged
        assert abs(low.value - ref.value) <= 1e-12 * ref.value

    def test_rule_is_two_r_against_n(self):
        # touching k = 1: |D| = 256 Dirichlet cells against 512 interior ones
        system = _touching(1)
        red = schur_reduce(system)
        assert 2 * len(red.X) == len(system.K_II)
        assert red.factor is schur_reduce(system).factor
        # k = 0: |D| = 512, still fewer than the Neumann cells, so the Gram
        # update, but 2r > n_I: K_eff is formed and factored per record
        system = _touching(0)
        dense_red = schur_reduce(system)
        assert not len(dense_red.X) and dense_red.factor is not red.factor
        assert dense_red.factor is not schur_reduce(system).factor

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("sea,builds", [("dirichlet", 1), ("neumann", 2)])
    def test_one_factor_per_base(self, cold_caches, sea, builds, jobs, monkeypatch):
        if sea == "dirichlet":    # nested Neumann intervals off Omega, P1: the baseline's base
            cfg = _sweep_config("nested_neumann", {"left": 1.5, "length0": 1.0, "ratio": 2.0},
                                [2, 3, 4], 2.0 ** -6, 8.0, "P1", 0.3, (-1.0, 1.0))
        else:                     # touching Dirichlet intervals, P0: the baseline and K_II - G_E
            cfg = _sweep_config("shrinking_dirichlet_touching",
                                {"r0": 1.0, "ratio": 2.0, "side": "left"},
                                [1, 2, 3, 4], 2.0 ** -6, 4.0, "P0", 0.25, (0.0, 1.0))
        built = _counted(monkeypatch, "_factor", sleep=0.05)
        low_rank = _counted(monkeypatch, "_woodbury")
        result = experiments.run(cfg, jobs=jobs)
        assert result.n_failed == 0
        assert len(built) == builds
        # the baseline and every record solve on a cached factor
        assert len(low_rank) == 1 + len(cfg.k_list)
        assert len({id(red.factor) for (red,) in low_rank}) == builds

    def test_direct_base_is_the_shared_block(self, cold_caches):
        # the cached base of the direct form is the K_II of every record of
        # its key, not a copy of the first record's
        first = schur_reduce(_neumann_interval()).factor
        order = make_order(1, 0.5)
        part = explicit(OM, neumann=[[1.0, 1.3]], dirichlet="rest")
        system = assemble(build_mesh(OM, part, 0.05, 8.0, "P1", order=order), order)
        red = schur_reduce(system)
        assert red.factor is first and not red.factor.base.flags.writeable
        assert np.shares_memory(red.factor.base, system.K_II)

    def test_replaced_system_gets_its_own_factor(self):
        # the factor cache trusts that K_II and M_II are functions of the
        # system's key, which ``assemble`` alone sets
        order = make_order(1, 0.5)
        disc = build_mesh(OM, full_dirichlet_partition(OM), 0.5, 8.0, "P1", order=order)
        system = assemble(disc, order)
        assert system.key is not None
        real = smallest_eigenpair(schur_reduce(system), system.M_II).value   # caches its factor
        fake = dataclasses.replace(system, K_II=4 * np.eye(3))
        assert fake.key is None
        red = schur_reduce(fake)
        assert not len(red.X) and red.factor is not schur_reduce(fake).factor
        lam = smallest_eigenpair(red, fake.M_II).value
        dense_path = smallest_eigenpair(fake.K_II, fake.M_II).value
        assert abs(real - 1.2175) < 1e-4 and abs(dense_path - 8.8656) < 1e-4
        assert lam == pytest.approx(dense_path, rel=1e-12)
        # the real system still hits its cached factor
        assert schur_reduce(system).factor is schur_reduce(system).factor

    def test_indefinite_capacitance_raises(self):
        # K_eff = I - 4 e_0 e_0' is indefinite: C = 1 - 4 / (1 + sigma) < 0
        n = 4
        M = band(np.eye(n))
        X = np.zeros((1, n))
        X[0, 0] = 2.0
        red = eigensolver.SchurReduction(_solve_EE=None, _K_EI=None, alpha=-1.0, X=X,
                                         factor=eigensolver._factor(np.eye(n), M))
        with pytest.raises(IndefinitePencil, match="dpotrf info 1"):
            smallest_eigenpair(red, M)

    def test_memory_of_a_warm_record(self):
        system = _touching(4)
        n_I = len(system.K_II)
        smallest_eigenpair(schur_reduce(system), system.M_II)   # caches G_E and the factor
        tracemalloc.start()
        try:
            red = schur_reduce(system)
            pair = smallest_eigenpair(red, system.M_II, tol=1e-13, max_iter=800)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(red.X) and pair.converged
        assert peak < n_I * n_I * 8 / 2

    @pytest.mark.parametrize("make,layout", [(_neumann_interval, "C_CONTIGUOUS"),
                                             (lambda: _touching(1), "F_CONTIGUOUS")],
                             ids=["direct", "gram"])
    def test_matvec_matches_the_formed_operator(self, make, layout):
        # dsymv on the base's Fortran-order view: K_II's transpose (direct form)
        # or the Gram base itself
        red = schur_reduce(make())
        base, X = red.factor.base, red.X
        assert len(X) and base.flags[layout]
        _, matvec, _ = eigensolver._woodbury(red)
        K = red.dense()
        u = np.random.default_rng(0).standard_normal(len(K))
        got, ref = matvec(u), K @ u
        a = np.abs(u)
        # the rounding bound of u'K_eff u: eps |u|'|K_eff||u| <= eps (|u|'|base||u| + ||X||u||^2)
        Xa = np.abs(X) @ a
        assert abs(u @ got - u @ ref) <= np.finfo(float).eps * (a @ np.abs(base) @ a + Xa @ Xa)
        bound = (len(K) + len(X)) * np.finfo(float).eps * (np.abs(base) @ a
                                                            + np.abs(X).T @ (np.abs(X) @ a))
        assert np.all(np.abs(got - ref) <= bound)

    # the criterion-6 baseline (r = 0, the direct form on C-ordered K_II) and record
    @pytest.mark.parametrize("make", [lambda: assemble(*_p0_full_dirichlet(2.0 ** -9, 4.0)),
                                      lambda: _touching(1)], ids=["direct", "gram"])
    def test_matvec_copies_no_base(self, make):
        # f2py copies an array that is not in Fortran order: n^2 doubles here
        system = make()
        red = schur_reduce(system)
        assert red.factor is schur_reduce(system).factor
        n = len(red.factor.base)
        _, matvec, _ = eigensolver._woodbury(red)
        u = np.ones(n)
        matvec(u)
        tracemalloc.start()
        try:
            matvec(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    @pytest.mark.parametrize("sweep,forms", [
        ("c4_nested_s0.3", None), ("c6_touching_p0", None),
        # Neumann half-lines take the cached collar rows; c7's right collar holds
        # two runs around the Dirichlet ball
        ("collar_sector", {"collar_gram"}), ("c7_dirichlet_ball", {"direct"})],
        ids=["c4_nested_s0.3", "c6_touching_p0", "collar_sector", "c7_dirichlet_ball"])
    def test_benchmark_references(self, sweep, forms):
        # c4 and c6 are the benchmark sweeps whose records take the low-rank path
        refs = json.loads((PERFBENCH / "references.json").read_text())
        ref = refs["sweeps"][sweep]
        cfg = _benchmark_sweep(sweep)
        result = experiments.run(cfg)
        assert result.n_failed == 0
        assert abs(result.baseline - ref["baseline"]) <= refs["rtol"] * ref["baseline"]
        assert sorted(r.k for r in result.records) == sorted(map(int, ref["lambda1"]))
        for rec in result.records:
            want = ref["lambda1"][str(rec.k)]
            assert abs(rec.lambda1 - want) <= refs["rtol"] * want, rec.k
        if forms is not None:
            assert {r.schur for r in result.records} == forms


class TestSmallestEigenpair:
    def test_reference_pencil(self):
        # 1D Laplacian pencil with known smallest eigenvalue
        n = 40
        K = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        M = np.eye(n)
        pair = smallest_eigenpair(K, band(M), tol=1e-14, max_iter=2000)
        exact = 2 * (1 - math.cos(math.pi / (n + 1)))
        assert abs(pair.value - exact) < 1e-12
        assert pair.converged

    @pytest.mark.parametrize("scheme,s", [("P0", 0.25), ("P1", 0.5)])
    def test_band_mass_matches_generalized_eigh(self, scheme, s):
        # the left end node touches a Dirichlet cell and is cut from the P1
        # mass band; the right one touches the Neumann set and stays
        order = make_order(1, s)
        part = explicit(OM, neumann=[[1.0, 2.0]], dirichlet="rest")
        system = assemble(build_mesh(OM, part, 0.1, 8.0, scheme, order=order), order)
        K_eff = schur_reduce(system).dense()
        ref = scipy.linalg.eigh(K_eff, unband(system.M_II), subset_by_index=[0, 0],
                                eigvals_only=True)[0]
        pair = smallest_eigenpair(K_eff, system.M_II)
        assert pair.converged
        assert abs(pair.value - ref) <= 1e-12 * ref

    def test_criterion_7_converges_within_rtol(self):
        # criterion 7 at h = 0.05 (41 DOFs): |u|'|K_eff||u| / lambda reaches
        # 2.5e7 at k = 6, where roundoff bounds the residual; the Kato-Temple
        # term, quadratic in it, stops the loop within 4, 4 and 5 solves
        refs = json.loads((PERFBENCH / "references.json").read_text())
        ref = refs["sweeps"]["c7_dirichlet_ball"]["lambda1"]
        order = make_order(1, 0.75)
        family = PartitionFamily(kind="traveling_dirichlet", omega=OM, params={
            "offset0": 1.0, "length": 1.0, "ratio": 2.0, "side": "right"})
        disc = DiscParams(h=0.05, L=68.0, scheme="P1")
        solver = SolverParams(tol=1e-13, max_iter=800)
        for k, steps in ((4, 4), (5, 4), (6, 5)):
            res = solve_mixed(OM, generate(family, k), order, disc, solver,
                              with_diagnostics=False)
            assert res.converged and res.iterations <= steps
            assert abs(res.lambda1 - ref[str(k)]) <= refs["rtol"] * ref[str(k)], k

    @pytest.mark.parametrize("sweep,k", [("c7_dirichlet_ball", k) for k in range(5)]
                             + [("c4_ball_s0.3", 3)])
    def test_matches_generalized_eigh_on_benchmark_pencils(self, sweep, k):
        # c7 takes the dense path, c4_ball the low-rank one.  Each side carries
        # the rounding of the float pencil, eps |u|'|K||u| = eps kappa lambda:
        # kappa is 9.2e5 on c7 k = 4, so eigh itself moves by 1e-10 there
        cfg = _benchmark_sweep(sweep)
        order = make_order(1, cfg.s)
        system = assemble(cfg.validate()[cfg.k_list.index(k)], order)
        red = schur_reduce(system)
        K = red.dense()
        ref = scipy.linalg.eigh(K, unband(system.M_II), subset_by_index=[0, 0],
                                eigvals_only=True)[0]
        pair = smallest_eigenpair(red, system.M_II, tol=1e-13, max_iter=800)
        assert pair.converged
        a = np.abs(pair.vector)
        assert abs(pair.value - ref) <= 1e-12 * ref + 2 * np.finfo(float).eps * (a @ np.abs(K) @ a)

    @pytest.mark.parametrize("low_rank", [False, True])
    def test_first_step_never_converges(self, low_rank):
        # step 1 has no theta_2, so no Kato-Temple term, on an n > 1 pencil
        system = _neumann_interval()
        red = schur_reduce(system)
        pair = smallest_eigenpair(red if low_rank else red.dense(), system.M_II, max_iter=1)
        assert pair.iterations == 1 and pair.temple == math.inf
        assert pair.converged is False

    def test_unconverged_record_fails_the_benchmark_gate(self):
        # the benchmark gate reads non-convergence as iters >= max_iter: a
        # record whose Krylov space is exhausted (41 steps on c7) without
        # meeting the test restarts from its Ritz vector until max_iter
        gate = _perfbench("gate")
        cfg = _benchmark_sweep("c7_dirichlet_ball", tol=1e-30)
        cfg = dataclasses.replace(cfg, k_list=(6,))
        (rec,) = experiments.run(cfg).records
        max_iter = cfg.solver.max_iter
        assert rec.converged is False and rec.iters == max_iter > 41
        row = {"sweep": "c7_dirichlet_ball", "k": rec.k, "lambda1": rec.lambda1,
               "baseline": rec.baseline, "iters": rec.iters, "max_iter": max_iter,
               "error": rec.error, "ms": rec.ms}   # perfbench/worker.py's record_dicts
        assert gate.record_failure(row, gate.load_references()) == (
            f"not converged in {max_iter} iterations")

    @pytest.mark.parametrize("low_rank", [False, True])
    @pytest.mark.parametrize("kw", [{"max_iter": 0}, {"max_iter": -3}, {"max_iter": True},
                                    {"max_iter": 2.5}, {"tol": 0.0}, {"tol": -1e-12},
                                    {"tol": math.inf}, {"tol": math.nan}])
    def test_rejects_bad_solver_parameters(self, kw, low_rank):
        system = _neumann_interval()
        red = schur_reduce(system)
        assert len(red.X)
        with pytest.raises(BadParameters):
            smallest_eigenpair(red if low_rank else red.dense(), system.M_II, **kw)

    def test_empty_interior_raises(self):
        # one P1 cell whose two end nodes touch Dirichlet cells: n_I = 0
        order = make_order(1, 0.5)
        disc = DiscParams(h=1.0, L=4.0, scheme="P1")
        mesh = build_mesh(OM01, full_dirichlet_partition(OM01), disc.h, disc.L, disc.scheme)
        assert assemble(mesh, order).K_II.shape == (0, 0)
        with pytest.raises(BadParameters, match="empty interior system"):
            solve_mixed(OM01, full_dirichlet_partition(OM01), order, disc)

    def test_empty_dirichlet_gives_zero_with_flag(self):
        order = make_order(1, 0.5)
        part = explicit(OM, neumann="rest", dirichlet=[])
        res = solve_mixed(OM, part, order, DiscParams(h=0.1, L=8.0, scheme="P1"))
        assert res.lambda1 == 0.0
        assert res.flagged_zero
        # constant eigenfunction
        u_I = res.u.values[res.u.system.interior_mask]
        u = u_I / u_I[0]
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
        u_I = res.u.values[res.u.system.interior_mask]
        u_E = res.u.values[res.u.system.exterior_mask]
        assert abs(res.normalization - 1.0) <= 1e-12
        assert u_I.min() >= -1e-10 * u_I.max()
        assert np.all(u_E > 0.0)

    def test_exterior_bounded(self, mixed_result):
        # reconstruction is an interior average up to truncation-edge effects
        # on the outermost half-hat; a loose cap suffices here
        res = mixed_result
        u_I = res.u.values[res.u.system.interior_mask]
        u_E = res.u.values[res.u.system.exterior_mask]
        assert u_E.max() <= 1.5 * u_I.max()


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
        with pytest.raises(BadParameters):
            richardson_extrapolate([0.04, 0.02, 0.015], [1.0, 1.1, 1.2])

    def test_rejects_a_ratio_of_one(self):
        with pytest.raises(BadParameters, match="other than 1"):
            richardson_extrapolate([0.02, 0.02, 0.02], [1.0, 1.1, 1.2])
