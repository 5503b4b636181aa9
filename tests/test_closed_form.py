"""The closed-form stiffness of Dirichlet-far P1 meshes.

The full-line sequence delta^4 G(k) and the Omega-weighted Gram band of the
Neumann hats are checked against their definitions at 50 digits; the blocks
that ``assemble`` builds from them against the arrow base on the meshes of
the criterion-4 sweeps; and a sweep whose meshes all take the closed form
never builds the arrow base.  The arrow base of a closed-form mesh is
reached by patching ``assembly.assembly_path``: the mesh alone picks the
path, and no public function takes it as an option.
"""

import math

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
)
from mixedfrac import assembly, experiments
from mixedfrac.assembly import (
    DOF_NEUMANN,
    _neumann_band,
    _unit_hat_sequence,
    assembly_path,
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
    # Neumann nodes whose hats start 4 and 1000 cells right of Omega
    om, h, order = Domain1D(0.0, 1.0), 1 / 16, make_order(1, s)
    part = explicit(om, neumann=[[1.25, 1.75], [63.5, 64.0]], dirichlet="rest")
    disc = build_mesh(om, part, h, 64.0, "P1", order=order)
    assert assembly_path(disc) == "closed_form"
    cols = np.flatnonzero(disc.dof_label == DOF_NEUMANN)
    band = _neumann_band(disc, order, None, cols)      # P1 reads no Omega rows
    for gap in (4, 1000):
        j = int(np.searchsorted(disc.nodes, om.b + (gap + 1) * h - 1e-9))
        i = int(np.searchsorted(cols, j))
        assert cols[i] == j and cols[i + 1] == j + 1
        with mp.workdps(50):
            ss = mp.mpf(s)

            def tau(x):
                return ((x - om.b) ** (-2 * ss) - (x - om.a) ** (-2 * ss)) / (2 * ss)

            def hat(node):
                x0 = mp.mpf(disc.nodes[node])
                return lambda x: max(0, 1 - abs(x - x0) / mp.mpf(h))

            cells = [mp.mpf(disc.nodes[c]) for c in (j - 1, j, j + 1)]
            for got, (p, q), pieces in ((band[1, i], (j, j), cells),
                                        (band[0, i + 1], (j, j + 1), cells[1:])):
                ref = order.a_ns * mp.quad(lambda x: hat(p)(x) * hat(q)(x) * tau(x), pieces)
                assert abs((mp.mpf(got) - ref) / ref) <= 4e-15, (gap, p, q)


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


@pytest.mark.parametrize("s,kind,params,k,h,L", SEA)
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


@pytest.mark.parametrize("neumann", [[[1.5, math.inf]], [[1.0, 2.0]]],
                         ids=["neumann_far_field", "free_omega_end_node"])
def test_other_sweeps_build_the_arrow_base(cold_caches, monkeypatch, neumann):
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


def test_full_dirichlet_closed_form_needs_dirichlet_grid_ends():
    order = make_order(1, 0.4)
    disc = build_mesh(OM, full_dirichlet_partition(OM), 0.25, 8.0, "P1", order=order)
    assert assembly_path(disc) == "closed_form"
    # a Neumann interval that ends on the grid's left end: node 0 is free
    part = explicit(OM, neumann=[[-9.0, -5.0]], dirichlet="rest")
    disc = build_mesh(OM, part, 0.25, 8.0, "P1", order=order)
    assert disc.far_label == ("D", "D") and disc.dof_label[0] == DOF_NEUMANN
    assert assembly_path(disc) == "arrow"
