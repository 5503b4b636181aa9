import ast
import dataclasses
import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import dense, unband
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
from mixedfrac import assembly, quadrature
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
def small_gap_p1():
    # both Omega end nodes Dirichlet and far field D: the closed-form path
    order = make_order(1, 0.5)
    part = explicit(OM01, neumann=[[2.0, 3.0]], dirichlet="rest")
    mesh = build_mesh(OM01, part, 0.25, 4.0, "P1", order=order)
    system = assemble(mesh, order)
    assert system.path == "closed_form" and system.n_free == 6
    return system, order


@pytest.fixture(scope="module")
def small_half_line_p1():
    # Dirichlet Omega end nodes, a Neumann far field on the right and free
    # grid-end nodes on both sides: the closed form with its end columns
    order = make_order(1, 0.5)
    part = explicit(OM01, neumann=[[-4.0, -3.0], [2.0, math.inf]], dirichlet="rest")
    mesh = build_mesh(OM01, part, 0.25, 4.0, "P1", order=order)
    system = assemble(mesh, order)
    assert system.path == "closed_form" and mesh.n_cells <= 40
    assert mesh.far_label == ("D", "N") and len(system.end_columns) == 2
    return system, order


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
            assert abs(float(unband(omega_mass(system.disc)).sum()) - OM01.length) < 1e-13

    @pytest.mark.parametrize("scheme", ["P0", "P1"])
    def test_omega_mass_band_is_exact_gauss(self, scheme):
        # int_Omega phi_i phi_j by Gauss on every Omega cell (exact for the
        # products of hats), end nodes included; the band holds all of it
        h = 0.125
        mesh = build_mesh(OM, full_neumann(OM), h, 8.0, scheme)
        X, W = quadrature.gauss_rule(4)
        n = mesh.n_interior
        x = (OM.a + h * (np.arange(n)[:, None] + X)).ravel()
        w = np.tile(h * W, n)
        if scheme == "P0":
            lo = OM.a + h * np.arange(n)[:, None]
            phi = ((x >= lo) & (x < lo + h)).astype(float)
        else:
            phi = np.maximum(0.0, 1.0 - np.abs(x - (OM.a + h * np.arange(n + 1))[:, None]) / h)
        M = (phi * w) @ phi.T
        got = assembly.omega_mass(mesh)
        assert got.shape == (2, len(phi)) and got[0, 0] == 0.0
        assert np.all(np.abs(unband(got) - M) <= 1e-15 * h)

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

    @pytest.mark.parametrize("scheme", ["P0", "P1"])
    def test_noncontiguous_interior_dofs_rejected(self, scheme):
        # the blocks are cut by slices, so a gap in the interior run must
        # raise, under python -O too
        order = make_order(1, 0.25)
        mesh = build_mesh(OM01, full_dirichlet_partition(OM01), 0.125, 4.0, scheme,
                          order=order)
        label = mesh.dof_label.copy()
        label[mesh.n_collar + 3] = assembly.DOF_DIRICHLET
        with pytest.raises(BadParameters, match="interior DOFs are not contiguous"):
            assemble(dataclasses.replace(mesh, dof_label=label), order)


def test_concurrent_first_assembles_build_the_base_once(cold_caches, monkeypatch):
    # two records of a new mesh that arrive together, as under run(jobs=2)
    order = make_order(1, 0.4)
    mesh = build_mesh(OM01, explicit(OM01, neumann=[[1.0, 2.0]], dirichlet="rest"),
                      0.125, 5.0, "P1", order=order)
    builds = []
    build = assembly._p1_arrow

    def slow_build(*args):
        builds.append(args)
        time.sleep(0.05)      # the second thread arrives while the first builds
        return build(*args)

    monkeypatch.setattr(assembly, "_p1_arrow", slow_build)
    with ThreadPoolExecutor(max_workers=2) as pool:
        systems = list(pool.map(lambda _: assemble(mesh, order), range(2)))
    assert len(builds) == 1
    assert np.array_equal(systems[0].K_II, systems[1].K_II)


_STORE_MUTATORS = {"setdefault", "pop", "popitem", "clear", "update", "__setitem__",
                   "__delitem__"}


def _store_writers(tree: ast.AST) -> set:
    """Names of the functions whose bodies assign into, delete from or mutate ``_STORE``
    (an entry of it included, as ``_STORE[kind][key] = ...``)."""
    def on_store(node):
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "_STORE"

    writers = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete)) else
                       [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            if any(isinstance(t, ast.Subscript) and on_store(t) for t in targets) or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _STORE_MUTATORS and on_store(node.func.value)):
                writers.add(func.name)
    return writers


def test_only_the_store_function_writes_the_store():
    # every shared piece goes through _cached, under its lock and slot count
    package = Path(assembly.__file__).parent
    writers = {(path.name, name) for path in sorted(package.glob("*.py"))
               for name in _store_writers(ast.parse(path.read_text(encoding="utf-8")))}
    assert writers == {("assembly.py", "_cached")}, writers


class TestSharedInteriorBlock:
    """K_II and its tails are built once per (mesh, far-field labels, interior slice)."""

    ORDER = make_order(1, 0.4)

    def system(self, neumann):
        part = explicit(OM01, neumann=neumann, dirichlet="rest")
        return assemble(build_mesh(OM01, part, 0.125, 5.0, "P1", order=self.ORDER), self.ORDER)

    def test_records_of_one_key_share_a_read_only_block(self):
        a, b = self.system([[1.0, 2.0]]), self.system([[1.0, 3.0]])
        assert a.K_II is b.K_II
        assert np.array_equal(a.tail_corrections[a.interior_mask],
                              b.tail_corrections[b.interior_mask])
        assert not a.K_II.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.K_II[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a.K_II.reshape(-1)[::len(a.K_II) + 1] += 1.0

    def test_another_slice_or_far_field_gets_another_block(self):
        a = self.system([[1.0, 2.0]])
        # a Dirichlet cell touches node 1: that end node is no longer free
        cut = self.system([[1.5, 2.5]])
        # a Neumann far field on the right: the same slice, one tail fewer
        far = self.system([[1.0, math.inf]])
        assert len(cut.K_II) == len(a.K_II) - 1 and len(far.K_II) == len(a.K_II)
        assert cut.K_II is not a.K_II and far.K_II is not a.K_II
        assert np.all(far.K_II.diagonal() < a.K_II.diagonal())

    def test_concurrent_first_assembles_build_it_once(self, cold_caches, monkeypatch):
        builds = []
        build = assembly._build_interior

        def slow_build(*args):
            builds.append(args)
            time.sleep(0.05)      # the second thread arrives while the first builds
            return build(*args)

        monkeypatch.setattr(assembly, "_build_interior", slow_build)
        with ThreadPoolExecutor(max_workers=2) as pool:
            systems = list(pool.map(self.system, ([[1.0, 2.0]], [[1.0, 3.0]])))
        assert len(builds) == 1
        assert systems[0].K_II is systems[1].K_II

    def test_many_threads_share_one_block_per_key(self, cold_caches, monkeypatch):
        # more threads than cores and frequent switches: two keys, two builds
        builds = []
        build = assembly._build_interior
        monkeypatch.setattr(assembly, "_build_interior",
                            lambda *args: builds.append(args) or build(*args))
        neumann = [[[1.0, 2.0 + k % 4]] if k % 2 else [[1.5, 2.5 + k % 4]] for k in range(32)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                systems = list(pool.map(self.system, neumann, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(builds) == 2
        assert len({id(system.K_II) for system in systems}) == 2

    def test_warm_assemble_copies_no_block(self):
        # the c4_nested mesh, n_I = 511: a copy of K_II would be 2 MiB
        order = make_order(1, 0.3)
        meshes = [build_mesh(OM, generate(PartitionFamily(
            kind="nested_neumann", omega=OM, params={"left": 1.5, "length0": 1.0, "ratio": 2.0}),
            k), 2.0 ** -8, 8.0, "P1", order=order) for k in (2, 3)]
        first = assemble(meshes[0], order)
        n_I = len(first.K_II)
        assert n_I == 511
        tracemalloc.start()
        try:
            system = assemble(meshes[1], order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_I ** 2 * 8 / 4
        assert system.K_II is first.K_II


class TestBruteForceOracle:
    """Q_Omega exclusion: the assembled quadratic form equals an independent
    double sum over cell pairs with the (Omega^c)^2 pairs explicitly skipped."""

    @pytest.mark.parametrize("fixture", ["small_mixed_p1", "small_mixed_p0", "small_gap_p1",
                                         "small_half_line_p1"])
    def test_quadratic_form_matches(self, fixture, request):
        system, order = request.getfixturevalue(fixture)
        rng = np.random.default_rng(7)
        for _ in range(3):
            u = rng.standard_normal(system.n_free)
            exact = float(u @ (dense(system)[0] @ u))
            brute = brute_force_energy(system, u)
            assert abs(exact - brute) <= 1e-10 * max(abs(exact), 1.0)

    def test_bilinear_form_matches(self, small_mixed_p1):
        self.check_bilinear_form(*small_mixed_p1)

    def test_bilinear_form_matches_on_the_closed_form(self, small_gap_p1):
        self.check_bilinear_form(*small_gap_p1)

    def test_bilinear_form_matches_on_a_half_line(self, small_half_line_p1):
        self.check_bilinear_form(*small_half_line_p1)

    @staticmethod
    def check_bilinear_form(system, order):
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
