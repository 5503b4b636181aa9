"""The closed-form stiffness of P1 meshes with Dirichlet Omega end nodes.

The full-line sequence delta^4 G(k) and the Omega-weighted Gram band of the
Neumann hats are checked against their definitions at 50 digits; the blocks
that ``assemble`` builds from them against the arrow base on the meshes of
the criterion-4 sweeps and on meshes with Neumann far sides and free
grid-end nodes; and a sweep whose meshes all take the closed form never
builds the arrow base.  The arrow base of a closed-form mesh is
reached by patching ``assembly.assembly_path``: the mesh alone picks the
path, and no public function takes it as an option.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from conftest import dense
from mixedfrac import (
    Domain1D,
    ExperimentConfig,
    PartitionFamily,
    assemble,
    build_mesh,
    full_dirichlet_partition,
    generate,
    make_order,
    schur_reduce,
)
from mixedfrac import assembly, experiments
from mixedfrac.assembly import (
    DOF_NEUMANN,
    _cell_gram,
    _unit_hat_sequence,
    assembly_path,
    dense_bytes,
    exterior_band,
)

SEPARATIONS = list(range(81)) + [100, 511, 2047, 4096, 5000]
EXPONENTS = (0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9)


def delta4_g(k, s):
    """delta^4 G(k) at 50 digits, G(t) = |t|^(3-2s) / ((3-2s)(2-2s)(1-2s)(-2s))
    or -t^2 log|t| / 2 at s = 1/2; the difference loses 4 log10(k) digits."""
    s = mp.mpf(s)

    def g(t):
        t = abs(mp.mpf(t))
        if t == 0:
            return mp.mpf(0)
        if s == mp.mpf(1) / 2:
            return -t ** 2 * mp.log(t) / 2
        return t ** (3 - 2 * s) / ((3 - 2 * s) * (2 - 2 * s) * (1 - 2 * s) * (-2 * s))

    return g(k + 2) - 4 * g(k + 1) + 6 * g(k) - 4 * g(k - 1) + g(k - 2)


@pytest.mark.parametrize("s", EXPONENTS)
def test_unit_hat_sequence_matches_mpmath(s):
    got = _unit_hat_sequence(max(SEPARATIONS), s)
    with mp.workdps(50):
        for k in SEPARATIONS:
            ref = delta4_g(k, s)
            assert abs((mp.mpf(got[k]) - ref) / ref) <= 2e-15, k


def test_hat_sequence_annihilates_constants():
    # K 1 = 0 on the full line: T(0) + 2 sum T(k) = 0, the tail summed in
    # closed form as 2 int_n^inf t^(-1-2s) = n^(-2s) / s
    s, n = 0.7, 5000
    t = _unit_hat_sequence(n, s)
    total = t[0] + 2 * math.fsum(t[1:]) + (n + 0.5) ** (-2 * s) / s
    assert abs(total) <= 1e-12 * abs(t[0])


@pytest.mark.parametrize("s", (0.3, 0.5, 0.75))
def test_neumann_band_matches_mpmath(s):
    # the right collar's band: nodes whose hats start 1, 4 and 1000 cells right
    # of Omega, and the grid-end node, whose hat is its in-grid half
    om, h, order = Domain1D(0.0, 1.0), 1 / 16, make_order(1, s)
    part = explicit(om, neumann=[[1.25, 1.75], [63.5, 64.0]], dirichlet="rest")
    disc = build_mesh(om, part, h, 64.0, "P1", order=order)
    assert assembly_path(disc) == "closed_form"
    band = exterior_band(disc, order, "right")
    first = disc.n_collar + disc.n_interior + 1           # the collar's first node
    cols = np.flatnonzero(disc.dof_label == DOF_NEUMANN)
    # a record's K_EE is the band's columns on its Neumann DOFs, gaps cut
    K_EE = assemble(disc, order).K_EE
    assert np.array_equal(K_EE[1], band[1, cols - first])
    assert np.array_equal(K_EE[0], np.where(np.diff(cols, prepend=-2) == 1,
                                            band[0, cols - first], 0.0))
    end = disc.n_dofs - 1
    with mp.workdps(50):
        ss = mp.mpf(s)

        def tau(x):
            return ((x - om.b) ** (-2 * ss) - (x - om.a) ** (-2 * ss)) / (2 * ss)

        def hat(node):
            x0 = mp.mpf(disc.nodes[node])
            return lambda x: max(0, 1 - abs(x - x0) / mp.mpf(h))

        def gram(p, q, pieces):
            return order.a_ns * mp.quad(lambda x: hat(p)(x) * hat(q)(x) * tau(x), pieces)

        for gap in (1, 4, 1000):
            j = int(np.searchsorted(disc.nodes, om.b + (gap + 1) * h - 1e-9))
            cells = [mp.mpf(disc.nodes[c]) for c in (j - 1, j, j + 1)]
            for got, ref in ((band[1, j - first], gram(j, j, cells)),
                             (band[0, j + 1 - first], gram(j, j + 1, cells[1:]))):
                assert abs((mp.mpf(got) - ref) / ref) <= 4e-15, (gap, got)
        cell = [mp.mpf(disc.nodes[c]) for c in (end - 1, end)]
        for got, ref in ((band[1, -1], gram(end, end, cell)),
                         (band[0, -1], gram(end - 1, end, cell))):
            assert abs((mp.mpf(got) - ref) / ref) <= 4e-15, ("grid end", got)


# the collar_sector and c4_nested meshes: (Omega, h, L); their bands are label-independent
COLLAR_MESHES = {"collar_sector": (Domain1D(-1.0, 1.0), 0.01, 36.0),
                 "c4_nested": (Domain1D(-1.0, 1.0), 2.0 ** -8, 8.0)}


@pytest.mark.parametrize("s", (0.01, 0.25, 0.5, 0.75, 0.99))
@pytest.mark.parametrize("mesh", list(COLLAR_MESHES))
def test_collar_cells_match_a_twenty_point_rule(cold_caches, mesh, s):
    # each cell's Gauss order follows its gap to Omega; every entry of each
    # collar's band stays within 1e-14 of the 20-point rule on every cell
    om, h, L = COLLAR_MESHES[mesh]
    order = make_order(1, s)
    disc = build_mesh(om, full_dirichlet_partition(om), h, L, "P1", order=order)
    n_c = disc.n_collar
    for side, first in (("left", 0), ("right", n_c + disc.n_interior)):
        got = exterior_band(disc, order, side)
        G = _cell_gram(disc, order, first + np.arange(n_c), [(om.a, om.b)], 20)
        ref = np.zeros((2, n_c))
        if side == "left":        # node j lies between cells j - 1 and j; node 0 is the grid end
            ref[1] = G[:, 0, 0]
            ref[1, 1:] += G[:-1, 1, 1]
            ref[0, 1:] = G[:-1, 0, 1]
        else:                     # node j between cells j and j + 1; the last is the grid end
            ref[1] = G[:, 1, 1]
            ref[1, :-1] += G[1:, 0, 0]
            ref[0, 1:] = G[1:, 0, 1]          # node 0's coupling across Omega's end node is 0
        assert got.shape == (2, n_c) and not got[0, 0] and not got.flags.writeable
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), side


def explicit(omega, **kw):
    return generate(PartitionFamily(kind="explicit", omega=omega, params=kw), 0)


OM = Domain1D(-1.0, 1.0)
_BALL = {"offset0": 1.0, "length": 1.0, "ratio": 2.0, "side": "right"}
_NESTED = {"left": 1.5, "length0": 1.0, "ratio": 2.0}
# the four meshes of the criterion-4 sweeps, each with two of its records
SEA = [(s, kind, params, k, h, L)
       for s in (0.3, 0.7)
       for kind, params, ks, h, L in (("traveling_ball", _BALL, (0, 6), 0.05, 68.0),
                                      ("nested_neumann", _NESTED, (2, 6), 2.0 ** -8, 8.0))
       for k in ks]


def arrow_path(monkeypatch):
    """From here on, ``assemble`` takes the arrow base on every mesh."""
    monkeypatch.setattr(assembly, "assembly_path", lambda disc: "arrow")


INF = math.inf
# meshes beyond the Dirichlet-far ones, each with Dirichlet Omega end nodes: far
# labels (D, N), (N, D) and (N, N), a free grid-end node on either side under a
# Dirichlet far side, and a Neumann run as near Omega as a Dirichlet end node lets
# it be (a Dirichlet feature is at least 4 cells wide, so the run's first hat
# starts 4 cells from Omega)
EDGES = [pytest.param(s, "explicit", {"neumann": neumann, "dirichlet": "rest"}, 0, h, 8.0, id=name)
         for name, s, neumann, h in (
             ("far_DN", 0.5, [[1.5, INF]], 0.05), ("far_ND", 0.3, [[-INF, -1.5]], 0.05),
             ("far_NN", 0.75, [[-INF, -1.5], [1.5, INF]], 0.05),
             ("free_left_grid_end", 0.4, [[-9.0, -5.0]], 0.25),
             ("free_right_grid_end", 0.4, [[5.0, 9.0]], 0.25),
             ("run_4_cells_from_omega", 0.3, [[1.2, INF]], 0.05))]


@pytest.mark.parametrize("s,kind,params,k,h,L", SEA + EDGES)
def test_closed_form_matches_the_arrow_base(cold_caches, monkeypatch, s, kind, params, k, h, L):
    order = make_order(1, s)
    part = generate(PartitionFamily(kind=kind, omega=OM, params=params), k)
    disc = build_mesh(OM, part, h, L, "P1", order=order)
    assert assembly_path(disc) == "closed_form"
    got = assemble(disc, order)
    arrow_path(monkeypatch)
    ref = assemble(disc, order)                          # _base_arrow + _build_interior
    assert (got.path, ref.path) == ("closed_form", "arrow")
    assert got.K_EE.shape[1] > 0 and np.array_equal(got.free_dofs, ref.free_dofs)
    # a free grid-end node has an end column, and no other node does
    free_ends = [q for q in (0, disc.n_dofs - 1) if disc.dof_label[q] == DOF_NEUMANN]
    assert [q for q, _, _ in got.end_columns] == free_ends and not ref.end_columns
    assert np.abs(got.K_II - ref.K_II).max() <= 1e-14 * np.abs(ref.K_II).max()
    assert np.array_equal(got.K_II, got.K_II.T)
    for block, block_ref in ((got.K_IE, ref.K_IE), (got.K_EE, ref.K_EE)):
        assert np.all(np.abs(block - block_ref) <= 1e-14 * np.abs(block_ref))
    # at the tolerances of the dense reference (test_arrow_matches_dense_reference)
    scale = np.abs(dense(ref)[0]).sum()
    assert np.all(np.abs(got.dirichlet_row_sums - ref.dirichlet_row_sums) <= 1e-14 * scale)
    assert np.all(np.abs(got.tail_corrections - ref.tail_corrections)
                  <= 1e-14 * np.abs(ref.tail_corrections))
    # R_I is a view of one mirrored sequence, not an n_I x m copy
    assert got.R_I.base is not None and not got.R_I.flags.writeable
    assert got.R_I.shape == ref.R_I.shape


def sweep(family_params, kind="explicit", k_list=(0, 1, 2)):
    return ExperimentConfig.from_dict({
        "schema": 1,
        "order": {"dimension": 1, "s": 0.4},
        "omega": {"a": -1.0, "b": 1.0},
        "family": {"kind": kind, "params": family_params, "k_list": list(k_list)},
        "discretization": {"h": 0.05, "L": 8.0, "scheme": "P1"},
        "solver": {"tol": 1e-12, "max_iter": 500},
        "outputs": {},
        "verify": {"gauss": True, "conditionC": False, "measures": True},
    })


def test_dirichlet_far_sweep_never_builds_the_arrow_base(cold_caches, monkeypatch):
    def refuse(*args):
        raise AssertionError("the arrow base was built")

    monkeypatch.setattr(assembly, "_p1_arrow", refuse)
    result = experiments.run(sweep(_NESTED, kind="nested_neumann"))
    assert result.n_failed == 0
    assert {r.assembly for r in result.records} == {"closed_form"}


def test_half_line_sweep_never_builds_the_arrow_base(cold_caches, monkeypatch):
    # collar_sector's shape: a Neumann half-line moves away from Omega, the
    # far field on; every record is anchored at the free right grid end
    cfg = sweep({"R0": 2.0, "ratio": 1.5, "side": "right"}, kind="infinite_sector")
    cfg.verify["farfield"] = True
    with monkeypatch.context() as patch:
        patch.setattr(assembly, "_p1_arrow", lambda *args: pytest.fail("arrow base built"))
        result = experiments.run(cfg)
    assert result.n_failed == 0 and len(result.farfield_slopes) == 3
    assert {(r.assembly, r.schur) for r in result.records} == {("closed_form", "collar_gram")}
    arrow_path(monkeypatch)
    ref = experiments.run(cfg)
    assert {(r.assembly, r.schur) for r in ref.records} == {("arrow", "collar_gram")}
    for r, want in zip(result.records, ref.records):
        assert abs(r.lambda1 - want.lambda1) <= 1e-12 * want.lambda1


@pytest.mark.parametrize("neumann", [[[1.0, math.inf]], [[1.0, 2.0]]],
                         ids=["neumann_far_field", "free_omega_end_node"])
def test_other_sweeps_build_the_arrow_base(cold_caches, monkeypatch, neumann):
    # each Neumann set touches Omega, so Omega's right end node is free
    builds = []
    build = assembly._p1_arrow
    monkeypatch.setattr(assembly, "_p1_arrow", lambda *args: builds.append(args) or build(*args))
    result = experiments.run(sweep({"neumann": neumann, "dirichlet": "rest"}))
    assert result.n_failed == 0 and len(builds) == 1
    assert {r.assembly for r in result.records} == {"arrow"}


def test_a_sweep_with_arrow_records_keeps_the_closed_form_baseline(cold_caches, monkeypatch):
    # the baseline's mesh takes the closed form; the records' Neumann set
    # frees Omega's right end node, so they take the arrow base
    cfg = sweep({"neumann": [[1.0, 2.0]], "dirichlet": "rest"})
    order = make_order(1, cfg.s)
    result = experiments.run(cfg)
    assert result.n_failed == 0 and result.baseline_assembly == "closed_form"
    assert {r.assembly for r in result.records} == {"arrow"}
    closed = experiments.dirichlet_baseline(OM, order, cfg.disc)
    assert closed.diagnostics["assembly"] == "closed_form"
    assert result.baseline == closed.lambda1
    arrow_path(monkeypatch)
    arrow = experiments.dirichlet_baseline(OM, order, cfg.disc)
    assert arrow.diagnostics["assembly"] == "arrow"
    assert abs(result.baseline - arrow.lambda1) <= 1e-12 * arrow.lambda1
    assert all(0.0 <= r.lambda1 <= result.baseline for r in result.records)


def test_closed_form_needs_dirichlet_omega_end_nodes():
    order = make_order(1, 0.4)
    disc = build_mesh(OM, full_dirichlet_partition(OM), 0.25, 8.0, "P1", order=order)
    assert assembly_path(disc) == "closed_form"
    # a Neumann interval that ends on the grid's left end: node 0 is free, and
    # the grid-end nodes do not matter
    part = explicit(OM, neumann=[[-9.0, -5.0]], dirichlet="rest")
    disc = build_mesh(OM, part, 0.25, 8.0, "P1", order=order)
    assert disc.far_label == ("D", "D") and disc.dof_label[0] == DOF_NEUMANN
    assert assembly_path(disc) == "closed_form"
    # nor do the far labels; a Neumann set that touches Omega frees an end node
    for neumann, path in (([[-INF, -2.0], [2.0, INF]], "closed_form"),
                          ([[-INF, -1.0]], "arrow"), ([[1.0, 2.0]], "arrow")):
        disc = build_mesh(OM, explicit(OM, neumann=neumann, dirichlet="rest"), 0.25, 8.0,
                          "P1", order=order)
        assert assembly_path(disc) == path, neumann


def test_half_line_record_holds_no_omega_rows(cold_caches, monkeypatch):
    # a cold record anchored at the free right grid end (collar_gram): the
    # closed form keeps no n_I x m array, so it peaks below the arrow path on
    # the same record less the arrow base's Omega rows R; a copy of R_I
    # (n_I x m doubles, 0.63 MiB here) would not
    order = make_order(1, 0.5)
    disc = build_mesh(OM, explicit(OM, neumann=[[2.0, INF]], dirichlet="rest"), 0.025, 12.0,
                      "P1", order=order)
    assert assembly_path(disc) == "closed_form" and disc.far_label == ("D", "N")
    _unit_hat_sequence(4, 0.5)                     # its first call imports decimal
    peaks = []
    for patch in (False, True):
        if patch:
            arrow_path(monkeypatch)
        assembly._STORE.clear()
        tracemalloc.start()
        try:
            red = schur_reduce(assemble(disc, order))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert red.form == "collar_gram"
    R = (disc.n_interior + 1) * disc.n_dofs * 8
    assert peaks[0] < peaks[1] - R


@pytest.mark.parametrize("neumann, path, collars", [
    ([], "closed_form", 0), ([[2.0, INF]], "closed_form", 1),
    ([[-INF, -2.0], [2.0, INF]], "closed_form", 2), ([[1.0, 2.0]], "arrow", 0),
    ([[1.0, INF]], "arrow", 1)])
def test_dense_bytes_follow_the_path(neumann, path, collars):
    # R only on the arrow path; a collar's half-solve, n_collar x n_I, only
    # where its grid-end node is free
    order = make_order(1, 0.4)
    disc = build_mesh(OM, explicit(OM, neumann=neumann, dirichlet="rest"), 1 / 32, 8.0, "P1",
                      order=order)
    assert assembly_path(disc) == path
    n_I = int(np.count_nonzero(disc.dof_label == 0))
    assert n_I == 63 + (path == "arrow")           # a free Omega end node
    doubles = 2 * n_I * n_I + collars * n_I * disc.n_collar
    if path == "arrow":
        doubles += (disc.n_interior + 1) * disc.n_dofs
    assert dense_bytes(disc) == 8 * doubles
