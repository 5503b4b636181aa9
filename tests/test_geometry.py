import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedfrac import (
    BadParameters,
    Domain1D,
    EmptySet,
    ExteriorPartition,
    ExteriorSet,
    PartitionFamily,
    condition_C,
    diffusion_report,
    generate,
    make_order,
    measure_in_ball,
    pair_integral,
    separation,
)

OM = Domain1D(-1.0, 1.0)
OM01 = Domain1D(0.0, 1.0)


class TestTypes:
    def test_domain_requires_order(self):
        with pytest.raises(BadParameters):
            Domain1D(1.0, -1.0)

    def test_exterior_set_disjoint_sorted(self):
        es = ExteriorSet.of((3, 4), (1, 2))
        assert es.intervals == ((1.0, 2.0), (3.0, 4.0))
        with pytest.raises(BadParameters):
            ExteriorSet.of((0, 2), (1, 3))

    def test_partition_requires_coverage(self):
        with pytest.raises(BadParameters):
            ExteriorPartition(omega=OM, dirichlet=ExteriorSet.of((2, 3)),
                              neumann=ExteriorSet.of((5, 6)))

    def test_partition_requires_disjoint(self):
        d = ExteriorSet.of((-math.inf, -1), (1, 5))
        n = ExteriorSet.of((4, math.inf))
        with pytest.raises(BadParameters):
            ExteriorPartition(omega=OM, dirichlet=d, neumann=n)


class TestGenerate:
    def test_traveling_ball_example(self):
        fam = PartitionFamily(kind="traveling_ball", omega=OM,
                              params={"offset0": 1.0, "length": 1.0, "ratio": 2.0})
        p = generate(fam, 3)
        assert p.neumann.intervals == ((9.0, 10.0),)
        assert p.dirichlet.intervals == ((-math.inf, -1.0), (1.0, 9.0),
                                         (10.0, math.inf))

    def test_shrinking_dirichlet_touching_example(self):
        fam = PartitionFamily(kind="shrinking_dirichlet_touching", omega=OM01,
                              params={"r0": 1.0, "ratio": 2.0, "side": "left"})
        p = generate(fam, 2)
        assert p.dirichlet.intervals == ((-0.25, 0.0),)
        assert p.moving_label == "D"

    def test_nested_neumann_containment(self):
        fam = PartitionFamily(kind="nested_neumann", omega=OM,
                              params={"left": 1.0, "length0": 1.0, "ratio": 2.0})
        for k in range(5):
            nk = generate(fam, k).neumann
            nk1 = generate(fam, k + 1).neumann
            assert nk.contains_set(nk1)

    def test_traveling_ring_symmetric_pairs(self):
        fam = PartitionFamily(kind="traveling_ring", omega=OM,
                              params={"R0": 2.0, "length": 0.5, "ratio": 2.0})
        p = generate(fam, 1)
        assert p.neumann.intervals == ((-4.5, -4.0), (4.0, 4.5))

    def test_strip_and_sector_coincide_in_1d(self):
        strip = PartitionFamily(kind="traveling_strip", omega=OM,
                                params={"R0": 4.0, "ratio": 2.0})
        sector = PartitionFamily(kind="infinite_sector", omega=OM,
                                 params={"R0": 4.0, "ratio": 2.0})
        assert generate(strip, 2).neumann == generate(sector, 2).neumann

    def test_strip_on_both_sides(self):
        fam = PartitionFamily(kind="traveling_strip", omega=OM,
                              params={"R0": 4.0, "ratio": 2.0, "side": "both"})
        p = generate(fam, 1)
        assert p.neumann.intervals == ((-math.inf, -8.0), (8.0, math.inf))
        assert p.dirichlet.intervals == ((-8.0, -1.0), (1.0, 8.0))

    @pytest.mark.parametrize("kind, params", [
        ("traveling_ball", {"side": "rigth"}),
        ("shrinking_dirichlet_touching", {"side": "LEFT"}),
        ("traveling_dirichlet", {"side": "both"}),
        ("infinite_sector", {"side": None}),
        ("explicit", {"neuman": [[1.0, 2.0]], "dirichlet": "rest"})],
        ids=["ball-rigth", "touching-LEFT", "dirichlet-both", "sector-null", "neuman"])
    def test_misspelled_side_or_key_rejected(self, kind, params):
        # these used to fall back silently to the other side, or to N = rest
        with pytest.raises(BadParameters):
            PartitionFamily(kind=kind, omega=OM, params=params)

    def test_overlap_with_omega_rejected(self):
        fam = PartitionFamily(kind="shrinking_neumann", omega=OM,
                              params={"location": 1.0, "length0": 1.0, "ratio": 2.0})
        with pytest.raises(BadParameters):
            generate(fam, 0)   # (0.5, 1.5) overlaps Omega

    def test_explicit_family(self):
        fam = PartitionFamily(kind="explicit", omega=OM,
                              params={"neumann": [[1.0, 2.0]], "dirichlet": "rest"})
        p = generate(fam, 0)
        assert p.neumann.intervals == ((1.0, 2.0),)
        assert p.dirichlet.intervals == ((-math.inf, -1.0), (2.0, math.inf))

    def test_explicit_family_with_both_lists_is_verbatim(self):
        fam = PartitionFamily(kind="explicit", omega=OM, params={
            "dirichlet": [[-math.inf, -1.0], [3.0, math.inf]], "neumann": [[1.0, 3.0]]})
        p = generate(fam, 0)
        assert p.dirichlet.intervals == ((-math.inf, -1.0), (3.0, math.inf))
        assert p.neumann.intervals == ((1.0, 3.0),)
        assert p.moving_label is None

    def test_explicit_family_with_a_gap_rejected(self):
        fam = PartitionFamily(kind="explicit", omega=OM, params={
            "dirichlet": [[-math.inf, -1.0], [3.0, math.inf]], "neumann": [[1.5, 3.0]]})
        with pytest.raises(BadParameters, match=r"uncovered gap \(1.0, 1.5\)"):
            generate(fam, 0)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["traveling_ball", "traveling_ring", "traveling_strip",
                            "shrinking_dirichlet_touching", "nested_neumann",
                            "shrinking_dirichlet_interior"]),
           st.integers(0, 8))
    def test_generated_partitions_valid(self, kind, k):
        fam = PartitionFamily(kind=kind, omega=OM)
        p = generate(fam, k)   # constructor runs the partition invariants
        assert isinstance(p, ExteriorPartition)

    def test_separation_diverges_for_traveling(self):
        fam = PartitionFamily(kind="traveling_ball", omega=OM)
        seps = [separation(generate(fam, k).moving_set, OM) for k in range(8)]
        assert all(b > a for a, b in zip(seps, seps[1:]))
        assert seps[-1] >= 2.0 ** 7


class TestMeasures:
    def test_measure_in_ball_examples(self):
        assert measure_in_ball(ExteriorSet.of((3, 4)), 5.0) == 1.0
        assert measure_in_ball(ExteriorSet.of((3, 4)), 3.5) == 0.5
        assert measure_in_ball(ExteriorSet.of((10, math.inf)), 5.0) == 0.0

    def test_separation_examples(self):
        assert separation(ExteriorSet.of((2, 3)), OM01) == 1.0
        assert separation(ExteriorSet.of((-1, 0)), OM01) == 0.0
        assert separation(ExteriorSet.of((-math.inf, -5), (7, math.inf)), OM01) == 5.0
        with pytest.raises(EmptySet):
            separation(ExteriorSet(), OM01)

    def test_diffusion_report_traveling(self):
        fam = PartitionFamily(kind="traveling_ball", omega=OM,
                              params={"offset0": 1.0, "length": 1.0, "ratio": 2.0})
        rep = diffusion_report(fam, R_list=[8.0], k_list=range(6))
        assert rep.diffusing
        assert list(rep.measures[:, 0]) == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]

    def test_diffusion_report_fixed_set_not_diffusing(self):
        fam = PartitionFamily(kind="explicit", omega=OM,
                              params={"neumann": [[1.0, 2.0]], "dirichlet": "rest"})
        rep = diffusion_report(fam, R_list=[4.0, 16.0], k_list=range(5))
        assert not rep.diffusing
        assert np.all(rep.measures == 1.0)

    def test_diffusion_report_shrinking(self):
        fam = PartitionFamily(kind="nested_neumann", omega=OM,
                              params={"left": 1.5, "length0": 1.0, "ratio": 2.0})
        rep = diffusion_report(fam, R_list=[4.0], k_list=range(12))
        assert rep.diffusing
        assert np.allclose(rep.measures[:, 0], 2.0 ** -np.arange(12))


class TestConditionC:
    def test_touching_small_interval(self):
        val = condition_C(ExteriorSet.of((-0.01, 0.0)), OM01, make_order(1, 0.25))
        assert abs(val - 0.38004975) < 1e-7

    def test_far_interval_log_form(self):
        val = condition_C(ExteriorSet.of((10, 11)), OM01, make_order(1, 0.5))
        assert abs(val - math.log(100.0 / 99.0)) < 1e-12

    def test_touching_divergent_for_large_s(self):
        val = condition_C(ExteriorSet.of((-0.5, 0.0)), OM01, make_order(1, 0.75))
        assert val == math.inf

    def test_implies_condition_B_inequality(self):
        # condC(D) >= |D cap B_R| |Omega| / (2R)^(1+2s) whenever Omega in B_R
        order = make_order(1, 0.3)
        for d_set in (ExteriorSet.of((2, 3)), ExteriorSet.of((-4, -2), (1.5, 2.0)),
                      ExteriorSet.of((5, math.inf))):
            R = 8.0
            lhs = condition_C(d_set, OM01, order)
            rhs = measure_in_ball(d_set, R) * OM01.length / (2 * R) ** (1 + 2 * order.s)
            assert lhs >= rhs

    def test_additive_over_disjoint_splits(self):
        order = make_order(1, 0.4)
        whole = condition_C(ExteriorSet.of((2, 5)), OM01, order)
        split = condition_C(ExteriorSet.of((2, 3.5), (3.5, 5)), OM01, order)
        assert abs(whole - split) < 1e-12 * whole

    def test_unbounded_piece(self):
        order = make_order(1, 0.3)
        val = condition_C(ExteriorSet.of((2, math.inf)), OM01, order)
        assert val == pair_integral((2, math.inf), (0, 1), 0.3)
        assert np.isfinite(val)
