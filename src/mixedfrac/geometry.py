"""Domains, exterior partitions, and the parametric set families.

An exterior partition splits the complement of a bounded interval Omega into
a Dirichlet part D and a Neumann part N (disjoint open interval unions whose
union with Omega covers the line up to finitely many points).  Families
generate sequences of partitions indexed by k; every family varies one
designated set and assigns the remainder of the complement the other label.

All value types are immutable and all operations pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameters, EmptySet
from .fracops import FractionalOrder, _complement, pair_integral

INF = math.inf

@dataclass(frozen=True)
class Domain1D:
    """Omega = (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise BadParameters(f"need a < b, got ({self.a}, {self.b})")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def interval(self) -> tuple[float, float]:
        return (self.a, self.b)


@dataclass(frozen=True)
class ExteriorSet:
    """Ordered union of disjoint open intervals; endpoints may be +-inf."""

    intervals: tuple = ()

    @classmethod
    def of(cls, *intervals) -> "ExteriorSet":
        ivs = sorted((float(lo), float(hi)) for lo, hi in intervals)
        for lo, hi in ivs:
            if not lo < hi:
                raise BadParameters(f"empty or reversed interval ({lo}, {hi})")
        for (l0, h0), (l1, h1) in zip(ivs, ivs[1:]):
            if h0 > l1:
                raise BadParameters(f"overlapping intervals ({l0},{h0}) and ({l1},{h1})")
        return cls(intervals=tuple(ivs))

    @property
    def empty(self) -> bool:
        return not self.intervals

    def contains_set(self, other: "ExteriorSet", tol: float = 0.0) -> bool:
        """Every interval of ``other`` inside some interval of self."""
        return all(any(lo >= l0 - tol and hi <= h0 + tol for l0, h0 in self.intervals)
                   for lo, hi in other.intervals)

    def intersects(self, lo: float, hi: float) -> bool:
        return any(max(l0, lo) < min(h0, hi) for l0, h0 in self.intervals)


def measure_in_ball(exterior_set: ExteriorSet, R: float) -> float:
    """Exact Lebesgue measure of the set intersected with (-R, R)."""
    if R <= 0:
        raise BadParameters("R must be positive")
    return sum(max(0.0, min(hi, R) - max(lo, -R)) for lo, hi in exterior_set.intervals)


def separation(exterior_set: ExteriorSet, omega: Domain1D) -> float:
    """inf over intervals of dist(interval, Omega); 0 when touching."""
    if exterior_set.empty:
        raise EmptySet("separation of an empty set")
    dists = []
    for lo, hi in exterior_set.intervals:
        if hi <= omega.a:
            dists.append(omega.a - hi)
        elif lo >= omega.b:
            dists.append(lo - omega.b)
        else:
            dists.append(0.0)
    return min(dists)


def condition_C(dirichlet: ExteriorSet, omega: Domain1D, order: FractionalOrder) -> float:
    """int_D int_Omega |x-y|^(-(1+2s)) dy dx; +inf when D touches and s >= 1/2.

    The sum of ``pair_integral`` over the Dirichlet pieces, each to a few ulps
    at any distance (half-lines included).  Divergence is an exponent test: a
    touching piece integrates (dist)^(-2s) up to the boundary, finite iff
    s < 1/2.
    """
    total = 0.0
    for piece in dirichlet.intervals:
        touching = piece[1] == omega.a or piece[0] == omega.b
        if touching and order.s >= 0.5:
            return INF
        total += pair_integral(piece, omega.interval, order.s)
    return total


@dataclass(frozen=True)
class ExteriorPartition:
    """Disjoint open sets D (Dirichlet) and N (Neumann) covering Omega^c a.e."""

    omega: Domain1D
    dirichlet: ExteriorSet
    neumann: ExteriorSet
    moving_label: str | None = None     # which set the generating family varies

    def __post_init__(self):
        ivs = sorted(self.dirichlet.intervals + self.neumann.intervals
                     + (self.omega.interval,))
        for (l0, h0), (l1, h1) in zip(ivs, ivs[1:]):
            if h0 > l1 + 1e-12:
                raise BadParameters(
                    f"partition pieces overlap near ({l1}, {min(h0, h1)})")
        # coverage: the union must exhaust the line up to finitely many points
        if ivs[0][0] != -INF or ivs[-1][1] != INF:
            raise BadParameters("partition does not cover the line at infinity")
        for (l0, h0), (l1, h1) in zip(ivs, ivs[1:]):
            if l1 - h0 > 1e-12:
                raise BadParameters(f"uncovered gap ({h0}, {l1}) of positive measure")

    @property
    def moving_set(self) -> ExteriorSet:
        if self.moving_label == "D":
            return self.dirichlet
        if self.moving_label == "N":
            return self.neumann
        raise BadParameters("partition has no designated moving set")


def _complement_in_exterior(omega: Domain1D, taken: ExteriorSet) -> ExteriorSet:
    """Omega^c minus the taken set, as an interval union (the remainder label)."""
    return ExteriorSet(intervals=tuple(_complement(taken.intervals + (omega.interval,))))


# kind -> (label of the set the family moves, default parameters)
FAMILY_KINDS = {
    "shrinking_neumann": ("N", {"location": 1.5, "length0": 1.0, "ratio": 2.0}),
    "nested_neumann": ("N", {"left": 1.0, "length0": 1.0, "ratio": 2.0}),
    "traveling_ball": ("N", {"offset0": 1.0, "length": 1.0, "ratio": 2.0, "side": "right"}),
    "traveling_ring": ("N", {"R0": 2.0, "length": 1.0, "ratio": 2.0}),
    "traveling_strip": ("N", {"R0": 2.0, "ratio": 2.0, "side": "right"}),
    "infinite_sector": ("N", {"R0": 2.0, "ratio": 2.0, "side": "right"}),
    "shrinking_dirichlet_touching": ("D", {"r0": 1.0, "ratio": 2.0, "side": "left"}),
    "shrinking_dirichlet_interior": ("D", {"location": 2.0, "r0": 1.0, "ratio": 2.0}),
    "traveling_dirichlet": ("D", {"offset0": 1.0, "length": 1.0, "ratio": 2.0,
                                  "side": "right"}),
    "explicit": (None, {}),
}


@dataclass(frozen=True)
class PartitionFamily:
    """Parametric generator k -> ExteriorPartition.

    Conventions (1D realizations of the example families):

    - shrinking_neumann: N_k = (c - len_k/2, c + len_k/2) at fixed center c,
      len_k = length0 * ratio^-k.
    - nested_neumann: N_k = (left, left + length0 * ratio^-k); nested in k.
    - traveling_ball: N_k at offset offset0 * ratio^k from the chosen edge of
      Omega, fixed length.
    - traveling_ring: symmetric pair +-(R_k, R_k + length), R_k = R0 * ratio^k.
    - traveling_strip / infinite_sector: half line (R_k, inf) (or mirrored);
      in 1D both kinds realize the same set and are kept as aliases.
    - shrinking_dirichlet_touching: D_k = (a - r_k, a) (or mirrored at b),
      r_k = r0 * ratio^-k, touching the boundary.
    - shrinking_dirichlet_interior: D_k of length r_k at a fixed center
      strictly outside the closure of Omega.
    - traveling_dirichlet: as traveling_ball with the labels swapped.
    - explicit: params carry the interval lists verbatim; one of
      'dirichlet'/'neumann' may be the string 'rest'.
    """

    kind: str
    omega: Domain1D
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise BadParameters(f"unknown family kind {self.kind!r}")
        merged = dict(FAMILY_KINDS[self.kind][1])
        unknown = set(self.params) - set(merged) if self.kind != "explicit" else set()
        if unknown:
            raise BadParameters(f"unknown parameters {sorted(unknown)} for {self.kind}")
        merged.update(self.params)
        if "ratio" in merged and not 0 < merged["ratio"] < INF:
            raise BadParameters(
                f"params.ratio must be finite and > 0, got {merged['ratio']!r}")
        object.__setattr__(self, "params", merged)

    def generate(self, k: int) -> ExteriorPartition:
        return generate(self, k)


def family_param(family: PartitionFamily, k: int) -> float:
    """Scalar parameter of the k-th family member (offset, radius, or length)."""
    p = family.params
    kind = family.kind
    if kind in ("traveling_ball", "traveling_dirichlet"):
        return p["offset0"] * p["ratio"] ** k
    if kind in ("traveling_ring", "traveling_strip", "infinite_sector"):
        return p["R0"] * p["ratio"] ** k
    if kind in ("shrinking_neumann", "nested_neumann"):
        return p["length0"] * p["ratio"] ** -k
    if kind in ("shrinking_dirichlet_touching", "shrinking_dirichlet_interior"):
        return p["r0"] * p["ratio"] ** -k
    return float(k)


def _moving_intervals(family: PartitionFamily, k: int) -> list[tuple[float, float]]:
    """The moving set of the k-th member, placed by ``family_param``."""
    p = family.params
    om = family.omega
    kind = family.kind
    x = family_param(family, k)
    if kind == "shrinking_neumann":
        return [(p["location"] - x / 2.0, p["location"] + x / 2.0)]
    if kind == "nested_neumann":
        return [(p["left"], p["left"] + x)]
    if kind in ("traveling_ball", "traveling_dirichlet"):
        if p["side"] == "right":
            return [(om.b + x, om.b + x + p["length"])]
        return [(om.a - x - p["length"], om.a - x)]
    if kind == "traveling_ring":
        return [(-x - p["length"], -x), (x, x + p["length"])]
    if kind in ("traveling_strip", "infinite_sector"):
        if p["side"] == "right":
            return [(x, INF)]
        if p["side"] == "left":
            return [(-INF, -x)]
        return [(-INF, -x), (x, INF)]
    if kind == "shrinking_dirichlet_touching":
        if p["side"] == "left":
            return [(om.a - x, om.a)]
        return [(om.b, om.b + x)]
    if kind == "shrinking_dirichlet_interior":
        return [(p["location"] - x / 2.0, p["location"] + x / 2.0)]
    raise BadParameters(f"kind {kind} has no moving set")


def generate(family: PartitionFamily, k: int) -> ExteriorPartition:
    """The k-th partition of the family; remainder gets the complementary label."""
    if k < 0:
        raise BadParameters("k must be >= 0")
    om = family.omega
    if family.kind == "explicit":
        d_spec = family.params.get("dirichlet", "rest")
        n_spec = family.params.get("neumann", "rest")
        if d_spec == "rest" and n_spec == "rest":
            raise BadParameters("explicit family needs at least one interval list")
        if d_spec != "rest" and n_spec != "rest":
            d = ExteriorSet.of(*d_spec)
            n = ExteriorSet.of(*n_spec)
        elif d_spec == "rest":
            n = ExteriorSet.of(*n_spec)
            d = _complement_in_exterior(om, n)
        else:
            d = ExteriorSet.of(*d_spec)
            n = _complement_in_exterior(om, d)
        return ExteriorPartition(omega=om, dirichlet=d, neumann=n, moving_label=None)

    moving = ExteriorSet.of(*_moving_intervals(family, k))
    for lo, hi in moving.intervals:
        if max(lo, om.a) < min(hi, om.b):
            raise BadParameters(
                f"{family.kind}: set ({lo}, {hi}) overlaps Omega at k={k}")
    rest = _complement_in_exterior(om, moving)
    label = FAMILY_KINDS[family.kind][0]
    d, n = (rest, moving) if label == "N" else (moving, rest)
    return ExteriorPartition(omega=om, dirichlet=d, neumann=n, moving_label=label)


@dataclass(frozen=True)
class DiffusionReport:
    """Matrix |N_k cap B_R| with the diffusing classification."""

    R_values: tuple
    k_values: tuple
    measures: np.ndarray        # shape (len(k), len(R))
    diffusing: bool
    threshold_fraction: float


def diffusion_report(family: PartitionFamily, R_list, k_list,
                     threshold_fraction: float = 1e-3) -> DiffusionReport:
    """Tabulate |N_k cap B_R|; diffusing iff every column falls below
    threshold_fraction * |B_R| at the largest k without increasing."""
    R_list = tuple(float(R) for R in R_list)
    k_list = tuple(int(k) for k in k_list)
    if not R_list or not k_list:
        raise BadParameters("R_list and k_list must be nonempty")
    rows = []
    for k in k_list:
        part = generate(family, k)
        rows.append([measure_in_ball(part.neumann, R) for R in R_list])
    M = np.array(rows)
    diffusing = True
    for j, R in enumerate(R_list):
        col = M[:, j]
        if np.any(np.diff(col) > 1e-12) or col[-1] > threshold_fraction * 2 * R:
            diffusing = False
    return DiffusionReport(R_values=R_list, k_values=k_list, measures=M,
                           diffusing=diffusing, threshold_fraction=threshold_fraction)
