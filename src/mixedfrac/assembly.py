"""Meshing of Omega plus a truncated exterior collar, and stiffness assembly.

The energy is the quadratic form (a_{N,s}/2) iint_{Q_Omega} (u(x)-u(y))^2 /
|x-y|^(1+2s) over the pair region Q_Omega (at least one point in Omega);
exterior-exterior pairs carry no energy.  Two conforming spaces are
supported on a uniform grid over [a-L, b+L]:

- P0: piecewise constants on cells (jumps admissible, requires s < 1/2);
- P1: continuous piecewise linear hats on nodes.

The grid is uniform and the kernel translation-invariant, so every
cell-pair integral depends only on the separation d, and nothing past
d_max = n_collar + n_int - 1, the widest pair that meets Omega, is built
(closed form for the same-cell pair, P0 values from
``fracops.pair_integral``, Gauss of orders checked against mpmath in the
tests otherwise; P1 unit-cell tensors in chunks of separations, scaled by
h^(1-2s)).  Exterior pairs carry no energy, so K is an arrow matrix.
Couplings with the exterior beyond the collar are dropped on the Neumann
side and replaced by closed-form tail integrals on the Dirichlet side.
``assembly_path`` picks where the Omega rows come from:

- the closed form (every P0 mesh; every P1 mesh whose two Omega end nodes
  are Dirichlet): a strided view of one mirrored Toeplitz line T, in O(m)
  memory.  P0's T(d) = -a f(d), T(0) = 0; K_II's diagonal is the negated
  grid row sum, and K_EE, an exterior cell's Omega mass, and the
  Dirichlet row sums are differences of one reverse cumulative sum of T.
  P1's T(k) = -a h^(1-2s) delta^4 G(k), G'''' = |t|^(-1-2s), far tails
  included, is exact to a few ulps of 50-digit mpmath
  (``_unit_hat_sequence``); every interior hat is whole, K_II subtracts
  the Neumann far tails that the grid drops, a free grid-end node's half
  hat has its own column, and K_EE is cut from the Omega-weighted Gram
  band of each collar;
- the P1 arrow base, for P1 meshes with a free Omega end node, in
  O(n_int * m) memory: Omega rows Toeplitz off the band, and a band whose
  entries add their terms in one fixed order, by separation, so that it
  is bitwise reproducible: for the nodes outside Omega, sequential sums
  over strided windows of one interleaved sequence per side, a block of
  separations at a time; for the Omega entries, one sequential sum per
  distinct start value over the separations where every pair lies on the
  grid, and masked blocks over the rest.

One store (``_cached``) keeps the arrow pair or the mirrored T per mesh,
the closed form's exterior bands and end columns per (mesh, collar), K_II
with its tails per (mesh, far-field labels, interior slice, path), the key
stamped on the system, and the eigensolver's factors and collar
half-solves per that key, so the records of a sweep share them, read-only.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import quadrature as quad
from .errors import BadParameters, IncompatibleScheme, MixedFarField
from .fracops import FractionalOrder, cell_moments, gauss_order, interval_mass, pair_integral
from .geometry import Domain1D, ExteriorPartition

INF = math.inf

DOF_INTERIOR, DOF_NEUMANN, DOF_DIRICHLET = 0, 1, 2
CELL_INTERIOR, CELL_NEUMANN, CELL_DIRICHLET = 0, 1, 2
MAX_CELLS = 2 ** 26      # build_mesh's limit; h = 2^-18, L = 8, |Omega| = 2 has 4.7e6
# a sweep's limit on ``dense_bytes``; K_II and its factor alone allow n_I <= 16384
MAX_DENSE_BYTES = 2 ** 32
SOLVE_CHUNK = 32         # interior columns per dtbtrs of a collar half-solve (eigensolver)


# ---------------------------------------------------------------------------
# meshing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Discretization:
    """Uniform grid over [a-L, b+L] with per-cell partition labels."""

    omega: Domain1D
    partition: ExteriorPartition
    h: float
    L: float
    scheme: str                   # 'P0' | 'P1'
    n_collar: int                 # cells on each side of Omega
    n_interior: int
    nodes: np.ndarray
    cell_label: np.ndarray        # int8 per cell
    far_label: tuple              # ('D'|'N', 'D'|'N') for (left, right)
    snap_report: tuple            # ((original, snapped), ...)
    dof_label: np.ndarray         # int8 per DOF (nodes for P1, cells for P0)

    @property
    def n_cells(self) -> int:
        return 2 * self.n_collar + self.n_interior

    @property
    def n_dofs(self) -> int:
        return self.n_cells + 1 if self.scheme == "P1" else self.n_cells

    @property
    def span(self) -> tuple[float, float]:
        return (self.omega.a - self.L, self.omega.b + self.L)

    def far(self, label: str) -> list[tuple[float, float]]:
        """The half-lines beyond the grid span labelled ``label`` ('D' or 'N')."""
        lo, hi = self.span
        return [iv for iv, lab in zip(((-INF, lo), (hi, INF)), self.far_label) if lab == label]

    @property
    def far_dirichlet(self) -> list[tuple[float, float]]:
        """The Dirichlet half-lines beyond the grid span."""
        return self.far("D")

    @property
    def interior_cells(self) -> tuple[int, int]:
        """(first, last) inclusive cell indices inside Omega."""
        return (self.n_collar, self.n_collar + self.n_interior - 1)

    @property
    def max_snap(self) -> float:
        if not self.snap_report:
            return 0.0
        return max(abs(orig - snap) for orig, snap in self.snap_report)


def _count_cells(length: float, h: float, what: str) -> int:
    n = round(length / h)
    if n < 1 or abs(n * h - length) > 1e-9 * max(1.0, length):
        raise BadParameters(f"h = {h} does not divide {what} = {length}")
    return n


def _side_content(partition: ExteriorPartition, lo: float, hi: float):
    """Which labels appear in the open interval (lo, hi)."""
    labels = []
    if partition.dirichlet.intersects(lo, hi):
        labels.append("D")
    if partition.neumann.intersects(lo, hi):
        labels.append("N")
    return labels


def build_mesh(omega: Domain1D, partition: ExteriorPartition, h: float, L: float,
               scheme: str, order: FractionalOrder | None = None) -> Discretization:
    """Uniform grid with snapped partition labels and per-side far-field label.

    Preconditions: h > 0, L >= 4 |Omega|, h divides |Omega| and L, at most
    ``MAX_CELLS`` cells, every bounded partition feature intersecting the
    grid span is at least 4h wide (so shrinking sets stay resolved), and the
    partition is single-labeled beyond the span on each side.
    """
    if scheme not in ("P0", "P1"):
        raise BadParameters(f"unknown scheme {scheme!r}")
    if not 0 < h < INF:
        raise BadParameters(f"h = {h} must be positive and finite")
    if not 4.0 * omega.length - 1e-12 <= L < INF:
        raise BadParameters(f"L = {L} must be finite and >= 4 |Omega| = {4 * omega.length}")
    if (2.0 * L + omega.length) / h > MAX_CELLS:
        raise BadParameters(f"h = {h} and L = {L} give more than {MAX_CELLS} grid cells")
    if order is not None and scheme == "P0" and order.s >= 0.5:
        raise IncompatibleScheme("P0 jumps carry infinite energy for s >= 1/2")

    n_collar = _count_cells(L, h, "L")
    n_interior = _count_cells(omega.length, h, "|Omega|")
    n = 2 * n_collar + n_interior
    nodes = omega.a + h * (np.arange(n + 1) - n_collar)
    span_lo, span_hi = omega.a - L, omega.b + L

    # every bounded feature that meets the span must span >= 4 cells
    for name, eset in (("dirichlet", partition.dirichlet), ("neumann", partition.neumann)):
        for (lo, hi) in eset.intervals:
            if math.isinf(lo) or math.isinf(hi):
                continue
            if max(lo, span_lo) < min(hi, span_hi) and hi - lo < 4.0 * h - 1e-12:
                raise BadParameters(
                    f"{name} feature ({lo}, {hi}) narrower than 4h = {4 * h}")

    # midpoint classification == snapping every endpoint to the nearest node
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    label = np.full(n, -1, dtype=np.int8)
    i0, i1 = n_collar, n_collar + n_interior - 1
    label[i0:i1 + 1] = CELL_INTERIOR
    for lab, eset in ((CELL_DIRICHLET, partition.dirichlet),
                      (CELL_NEUMANN, partition.neumann)):
        for (lo, hi) in eset.intervals:
            sel = (mids > lo) & (mids < hi)
            sel[i0:i1 + 1] = False
            label[sel] = lab
    if np.any(label < 0):
        j = int(np.argmax(label < 0))
        raise BadParameters(f"cell at {mids[j]:.6g} not covered by the partition")

    snaps = []
    for eset in (partition.dirichlet, partition.neumann):
        for (lo, hi) in eset.intervals:
            for e in (lo, hi):
                if math.isfinite(e) and span_lo <= e <= span_hi:
                    snapped = omega.a + h * round((e - omega.a) / h)
                    snaps.append((e, snapped))

    far = []
    for side_lo, side_hi in ((-INF, span_lo), (span_hi, INF)):
        content = _side_content(partition, side_lo, side_hi)
        if len(content) != 1:
            raise MixedFarField(
                f"far field on ({side_lo}, {side_hi}) carries labels {content}")
        far.append(content[0])

    if scheme == "P1":
        dof = np.zeros(n + 1, dtype=np.int8)
        node_in_omega = (nodes >= omega.a - 1e-12) & (nodes <= omega.b + 1e-12)
        dof[~node_in_omega] = DOF_NEUMANN
        touch_d = np.zeros(n + 1, dtype=bool)
        touch_d[:-1] |= label == CELL_DIRICHLET
        touch_d[1:] |= label == CELL_DIRICHLET
        dof[touch_d] = DOF_DIRICHLET
    else:
        dof = label.copy()

    nodes.setflags(write=False)
    label.setflags(write=False)
    dof.setflags(write=False)
    return Discretization(omega=omega, partition=partition, h=h, L=L, scheme=scheme,
                          n_collar=n_collar, n_interior=n_interior, nodes=nodes,
                          cell_label=label, far_label=tuple(far),
                          snap_report=tuple(snaps), dof_label=dof)


# ---------------------------------------------------------------------------
# pair tensors on the uniform grid
# ---------------------------------------------------------------------------

_CHUNK = 64          # separations per block of pair tensors and of band terms


def _unit_far_block(ds: np.ndarray, s: float, g: int):
    """Unscaled A, B, D at the separations ``ds``; each d is computed on its own."""
    X, W = quad.gauss_rule(g)
    lam = np.stack([1.0 - X, X])                       # (2, g)
    kv = (ds[:, None, None] + X[None, None, :] - X[None, :, None]) ** (-1.0 - 2 * s)
    kw = kv * (W[:, None] * W[None, :])[None, :, :]
    row = kw.sum(axis=2)                               # (nd, g): sum over y-nodes
    col = kw.sum(axis=1)                               # (nd, g): sum over x-nodes
    A = np.einsum("ap,cp,dp->dac", lam, lam, row)
    D = np.einsum("bq,eq,dq->dbe", lam, lam, col)
    B = np.einsum("ap,bq,dpq->dab", lam, lam, kw)
    return A, B, D


def _p1_far_tensors(n_sep: int, s: float, h: float, g: int):
    """A(d), B(d), D(d) blocks for cell pairs at separations d = 2..n_sep.

    Unit-cell tensor Gauss with shared nodes, so each pair tensor annihilates
    constants exactly (the quadrature itself is in difference form), built
    ``_CHUNK`` separations at a time and scaled by h^(1-2s).
    """
    blocks = [_unit_far_block(np.arange(lo, min(lo + _CHUNK, n_sep + 1), dtype=float), s, g)
              for lo in range(2, n_sep + 1, _CHUNK)]
    scale = h ** (1.0 - 2 * s)
    return tuple(np.concatenate(t) * scale for t in zip(*blocks))


def _p1_adjacent_local(s: float, h: float, g: int) -> np.ndarray:
    """3x3 local matrix for the touching cell pair (nodes L, M, R).

    With continuity at the shared node, u(x)-u(y) = (alpha xi - beta eta)/h
    in corner coordinates; the Duffy split reduces the two corner moments to
    smooth 1D integrals.
    """
    T, W = quad.gauss_rule(g)
    ker = (1.0 + T) ** (-1.0 - 2 * s)
    c1 = float(W @ ker)
    c2 = float(W @ (T ** 2 * ker))
    c3 = float(W @ (T * ker))
    j2 = (c1 + c2) / (3.0 - 2 * s)
    jab = 2.0 * c3 / (3.0 - 2 * s)
    ea = np.array([1.0, -1.0, 0.0])
    eb = np.array([0.0, -1.0, 1.0])
    local = (j2 * (np.outer(ea, ea) + np.outer(eb, eb))
             - jab * (np.outer(ea, eb) + np.outer(eb, ea)))
    return h ** (1.0 - 2 * s) * local


def _p1_same_cell_coeff(s: float, h: float) -> float:
    """iint_{E^2} (x-y)^2 |x-y|^(-1-2s) / h^2 = 2 h^(1-2s)/((2-2s)(3-2s)), exact."""
    return 2.0 * h ** (1.0 - 2 * s) / ((2.0 - 2 * s) * (3.0 - 2 * s))


def _p0_pair_values(n_sep: int, s: float, h: float) -> np.ndarray:
    """Cell-pair integrals f(d), d = 1..n_sep: unit cells scaled by h^(1-2s).

    d >= 2 is one GEMV, which rounds a last partial block of rows its own way,
    so it gets whole chunks of ``_CHUNK`` rows: f(d) does not depend on n_sep.
    """
    d = np.arange(1, 2 + _CHUNK * -(-(n_sep - 1) // _CHUNK), dtype=float)
    return h ** (1.0 - 2 * s) * pair_integral((0.0, 1.0), (d, d + 1.0), s)[:n_sep]


def _band_terms(diag, sup, A, B, D, c_lo: int, c_hi: int) -> None:
    """Add the P1 band terms of d = 2..d_max (A, B, D) to (diag, sup) in place.

    Each entry adds its terms in the order of the dense stripe reference: by
    d, then by piece of the pairs (i, i + d) that meet Omega, then by tensor
    entry.  The pairs form one piece while d <= n_int; beyond, those with
    their right cell in Omega come first.

    A node j left of Omega gets A00(d) while cell j + d lies in Omega and
    A11(d) while cell j - 1 + d does, A00 first at one d: with u = c_lo - j,
    the terms are A00(u), A00(u + t), A11(u + t) for t = 1..n_int-1, then
    A11(u + n_int).  Nodes right of Omega get D11 and D00 likewise, and a
    superdiagonal entry outside Omega n_int terms of A01 or D01.  So the
    terms of consecutive nodes are windows, two entries apart, of the
    sequence A00(0), A11(0), A00(1), ... (D00, D11 on the right; one apart
    in A01 or D01), summed by ``_window_sums``; the last node on each side,
    which has no A11 (D00), is one ``np.add.accumulate``.

    The Omega nodes and sup[c_lo - 1 .. c_hi + 1] are columns of four terms
    per d, zero for a pair off the grid or, in the five end columns, one
    that misses Omega.  Every column is summed sequentially from its start
    value, so its bits depend on that value and its terms only.  The end
    columns take one block over every d, which ``np.add.reduce`` sums row
    by row, as it does for C-contiguous blocks at least two columns wide.
    The other columns of a class (diag or sup) share their terms while
    every pair lies on the grid, d <= n_collar, and share their start value
    on the meshes ``_p1_arrow`` builds: one ``np.add.accumulate`` per
    (class, start value) sums that prefix for all of them.  Only the last
    separations, at most n_int, take a block per chunk with the on-grid
    mask, gathered from a byte staircase; a masked zero leaves a sum as it
    was.
    """
    n, n_int = len(sup), c_hi - c_lo + 1

    # x(d) at index d <= d_max, zero for d < 2 (the touching pair is added already)
    a00, a11, a01, d00, d11, d01 = (np.r_[0.0, 0.0, x] for x in (
        A[:, 0, 0], A[:, 1, 1], A[:, 0, 1], D[:, 0, 0], D[:, 1, 1], D[:, 0, 1]))
    # left nodes by u = c_lo - j = 1..c_lo: A00(u), the 2 n_int - 2 terms
    # a0a1[2u + 2 ..], A11(u + n_int); node 0, the last, has only A00 terms
    left, right, m = diag[:c_lo][::-1], diag[c_hi + 2:], n - c_hi - 1
    a0a1 = np.stack([a00, a11], axis=1).reshape(-1)
    left[:-1] = _window_sums(left[:-1] + a00[1:c_lo], a0a1[4:], 2 * n_int - 2, 2)
    left[:-1] += a11[1 + n_int:c_lo + n_int]
    left[-1] = np.add.accumulate(np.r_[left[-1], a00[c_lo:c_hi + 1]])[-1]
    # right nodes by e = j - c_hi - 1 = 1..m: the 2 n_int terms d0d1[2e + 1 ..];
    # node n, the last, has only D11 terms
    d0d1 = np.stack([d00, d11], axis=1).reshape(-1)
    right[:-1] = _window_sums(right[:-1], d0d1[3:], 2 * n_int, 2)
    right[-1] = np.add.accumulate(np.r_[right[-1], d11[m:m + n_int]])[-1]
    # sup[j]: A01 from d = c_lo - j left of Omega, D01 from d = j - c_hi right
    left, right = sup[:c_lo - 1][::-1], sup[c_hi + 2:]
    left[:] = _window_sums(left, a01[2:], n_int, 1)
    right[:] = _window_sums(right, d01[2:], n_int, 1)

    # Omega: a column per node c_lo..c_hi+1 (diag), then per sup entry
    # c_lo-1..c_hi+1, x its index.  Per d the rows are [A00 | A01], [D00 |
    # D01], [A11 | -B10 (d = 2 only)], [D11 | 0], each the term of the pair
    # (i, i + d) with i = x - off; past n_int the D rows, whose pairs have
    # their right cell in Omega, go first: rows 1, 3, 0, 2
    ds = np.arange(2, max(c_hi, n - 1 - c_lo) + 1)
    vals = np.zeros((len(ds), 4, 2))
    vals[:, 0], vals[:, 1] = A[ds - 2, 0], D[ds - 2, 0]
    vals[:, 2, 0], vals[:, 3, 0] = A[ds - 2, 1, 1], D[ds - 2, 1, 1]
    vals[0, 2, 1] = -B[0, 1, 0]
    off = [0, 0, 1, 1] + ds[:, None] * [0, 1, 0, 1]
    past = (ds > n_int)[:, None]
    vals = np.where(past[:, :, None], vals[:, [1, 3, 0, 2]], vals)
    off = np.where(past, off[:, [1, 3, 0, 2]], off)
    run = np.r_[diag[c_lo:c_hi + 2], sup[c_lo - 1:c_hi + 2]]

    # the end columns, x = c_lo, c_hi + 1 (diag) and c_lo - 1, c_lo, c_hi + 1
    # (sup), hold the only pairs that miss Omega
    ends = [0, n_int, n_int + 1, n_int + 2, 2 * n_int + 2]
    i = np.array([c_lo, c_hi + 1, c_lo - 1, c_lo, c_hi + 1]) - off[:, :, None]
    d = ds[:, None, None]
    keep = ((c_lo <= i) & (i <= c_hi) | (c_lo <= i + d) & (i + d <= c_hi)) \
        & (0 <= i) & (i + d < n)
    terms = (vals[:, :, [0, 0, 1, 1, 1]] * keep).reshape(-1, len(ends))
    run[ends] = np.add.reduce(np.r_[run[None, ends], terms], axis=0)

    # the other columns, x = x0..c_hi in each class
    w, x0 = n_int - 1, c_lo + 1
    if w:
        mid = np.r_[1:n_int, n_int + 3:2 * n_int + 2]
        on = np.all((off <= x0) & (c_hi < n - ds[:, None] + off), axis=1)
        n_pre = len(ds) if on.all() else int(np.argmin(on))
        run_mid = run[mid]
        for k, cols in enumerate((slice(0, w), slice(w, 2 * w))):
            start, group = np.unique(run_mid[cols], return_inverse=True)
            seq = np.empty((1 + 4 * n_pre, len(start)))
            seq[0] = start
            seq[1:] = vals[:n_pre, :, k].reshape(-1, 1)
            run_mid[cols] = np.add.accumulate(seq, axis=0)[-1, group]
        # for column j = x - x0: j >= t at ge[w - t], j < t at lt[w - t]
        ge = np.lib.stride_tricks.sliding_window_view(np.arange(2 * w) >= w, w)
        lt = ge[::-1, ::-1]
        buf = np.empty((1 + 4 * _CHUNK, 2, w))
        for lo in range(n_pre, len(ds), _CHUNK):
            c = slice(lo, lo + _CHUNK)
            blk = buf[:1 + 4 * len(ds[c])]
            blk[0] = run_mid.reshape(2, w)
            rows = blk[1:].reshape(-1, 4, 2, w)
            rows[...] = 0.0
            t_lo = np.clip(off[c] - x0, 0, w)                 # on the grid: off <= x
            t_hi = np.clip(n - ds[c, None] + off[c] - x0, 0, w)   # and x < n - d + off
            np.copyto(rows, vals[c, :, :, None], where=(ge[w - t_lo] & lt[w - t_hi])[:, :, None])
            run_mid = np.add.reduce(blk.reshape(len(blk), -1), axis=0)
        run[mid] = run_mid
    diag[c_lo:c_hi + 2], sup[c_lo - 1:c_hi + 2] = run[:n_int + 1], run[n_int + 1:]


def _window_sums(run: np.ndarray, seq: np.ndarray, n_terms: int, step: int) -> np.ndarray:
    """run[j] + seq[step j] + seq[step j + 1] + ... + seq[step j + n_terms - 1], in that order.

    The windows are a strided view of ``seq``; ``_CHUNK`` of their rows at a
    time are copied into one C-contiguous block under the running sums, which
    ``np.add.reduce`` sums row by row (``run`` is at least two columns wide).
    """
    win = np.lib.stride_tricks.sliding_window_view(seq, n_terms)[:step * len(run):step].T
    buf = np.empty((1 + _CHUNK, len(run)))
    for lo in range(0, n_terms, _CHUNK):
        blk = buf[:1 + min(_CHUNK, n_terms - lo)]
        blk[0] = run
        blk[1:] = win[lo:lo + _CHUNK]
        run = np.add.reduce(blk, axis=0)
    return run


def band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Symmetric band (cholesky_banded upper layout, one superdiagonal) times x."""
    y = ab[1] * x
    y[1:] += ab[0, 1:] * x[:-1]
    y[:-1] += ab[0, 1:] * x[1:]
    return y


def runs(cols: np.ndarray) -> tuple[tuple[slice, slice], ...]:
    """Ascending indices by runs of consecutive values, as (values, positions) slices."""
    starts = np.flatnonzero(np.diff(cols, prepend=-2) != 1)
    ends = np.r_[starts[1:], len(cols)]
    return tuple((slice(int(cols[i]), int(cols[j - 1]) + 1), slice(int(i), int(j)))
                 for i, j in zip(starts, ends))


def _base_key(disc: Discretization, order: FractionalOrder) -> tuple:
    """The arguments of ``_base_arrow`` and ``_full_line``: the mesh's label-independent key."""
    return (disc.omega.a, disc.omega.b, disc.h, disc.L, disc.scheme, order.s, order.a_ns)


_LOCK = threading.RLock()         # re-entrant, so that a build may read the store
_SLOTS = 2                        # entries kept per kind, the most recently used
_STORE: dict = {}                 # kind -> {key: entry}, least recently used first


def _cached(kind: str, key, build):
    """The shared ``kind`` entry of ``key``, from ``build()`` on its first call.

    One lock for every kind: concurrent first calls build once, and a build
    may read other kinds.
    """
    with _LOCK:
        cache = _STORE.setdefault(kind, {})
        entry = cache.pop(key, None)
        if entry is None:
            entry = build()
        cache[key] = entry
        if len(cache) > _SLOTS:
            del cache[next(iter(cache))]
        return entry


def _base_arrow(*key) -> tuple[np.ndarray, np.ndarray]:
    """``_build_base(*key)``, shared."""
    return _cached("arrow", key, lambda: _build_base(*key))


def _build_base(a: float, b: float, h: float, L: float, scheme: str, s: float,
                a_ns: float) -> tuple[np.ndarray, np.ndarray]:
    """Label-independent P1 stiffness over all grid nodes as an arrow pair (R, ext).

    R holds the rows of the Omega nodes against all m grid nodes; ``ext`` the
    exterior block (only the Omega-weighted Gram term) as a cholesky_banded
    upper band over the grid nodes, zero on Omega; both cached and read-only.
    Nothing past d_max = n_collar + n_int - 1, the widest pair that meets
    Omega, is computed.  P0 meshes and P1 meshes with Dirichlet Omega end
    nodes never come here: they take the line.
    """
    n_collar = round(L / h)
    n_int = round((b - a) / h)
    R, ext = _p1_arrow(2 * n_collar + n_int, n_collar, n_collar + n_int - 1, s, h, a_ns)
    R.setflags(write=False)
    ext.setflags(write=False)
    return R, ext


def _p1_arrow(n: int, c_lo: int, c_hi: int, s: float, h: float, a_ns: float):
    """P1 (R, ext): a Toeplitz gather off the band, the band by separation.

    An entry K[lo, hi], k = hi - lo >= 2, sums X_rc(d) = -a_ns B(d)[r, c] over
    the cell pairs (lo - r, hi - c) on the grid that meet Omega (X_01(1) is
    the touching-pair entry).  All four pairs do so except on the two Omega
    boundary rows and the grid-end columns, so the other entries are one
    Toeplitz sequence T(k), |k| < d_max (the widest pair that meets Omega),
    gathered through a strided view; no tensor past d_max is built.  A band
    entry sums O(n) terms that nearly cancel its row, so its rounding sets
    the smallest eigenvalues (another order moves lambda_1 of the criterion-7
    sweep by up to 1e-7).  Every entry adds its terms in the order of the
    dense stripe reference -- same-cell, touching, then by separation, piece
    of pairs and tensor entry -- so K is reproduced bitwise, symmetric.  The
    same-cell and touching terms are slice adds here; ``_band_terms`` adds
    every separation d >= 2 in the same order.

    Only P1 meshes with a free Omega end node build it (c7 and its kind),
    because that node's hat straddles the boundary of Omega, and T counts
    the exterior pairs of its outer half; every other mesh takes the line.
    """
    d_max = max(c_hi, n - 1 - c_lo)
    # order 28 on the nearest separations; tests check both against mpmath
    A, B, D = _p1_far_tensors(d_max, s, h, 20)
    A2, B2, D2 = _p1_far_tensors(min(d_max, 41), s, h, 28)
    A[:len(A2)], B[:len(B2)], D[:len(D2)] = A2, B2, D2
    A, B, D = a_ns * A, a_ns * B, a_ns * D
    L1 = a_ns * _p1_adjacent_local(s, h, g=64)
    X = np.zeros((2, 2, d_max + 3))      # X[r, c, d], zero past d_max
    X[:, :, 2:d_max + 1] = -B.transpose(1, 2, 0)
    X[0, 1, 1] = L1[0, 2]

    def far(lo, hi):
        """K[lo, hi] over the cell pairs that meet Omega."""
        out = 0.0
        for r, c in ((0, 1), (0, 0), (1, 1), (1, 0)):
            cl, ch = lo - r, hi - c
            on = (c_lo <= cl) & (cl <= c_hi) | (c_lo <= ch) & (ch <= c_hi)
            out = out + np.where((cl >= 0) & (ch < n) & on, X[r, c, ch - cl], 0.0)
        return out

    T = np.zeros(n + 1)         # T[k] = K[p, p + k], 2 <= k < d_max, p inside Omega
    T[2:d_max] = far(c_lo + 1, c_lo + 1 + np.arange(2, d_max))
    rows = np.arange(c_lo, c_hi + 2)
    R = _line_rows(np.r_[T[:0:-1], T], c_lo, len(rows)).copy()
    ends, q = rows[[0, -1], None], np.arange(n + 1)
    R[[0, -1]] = far(np.minimum(ends, q), np.maximum(ends, q))
    R[:, 0], R[:, n] = far(0, rows), far(rows, n)

    diag, sup = np.zeros(n + 1), np.zeros(n)        # K[j, j], K[j, j + 1]
    v0 = 0.5 * a_ns * _p1_same_cell_coeff(s, h)
    diag[c_lo:c_hi + 1] += v0
    diag[c_lo + 1:c_hi + 2] += v0
    sup[c_lo:c_hi + 1] -= v0
    lo, hi = c_lo - 1, c_hi              # the touching pairs (i, i + 1) that meet Omega
    diag[lo:hi + 1] += L1[0, 0]
    sup[lo:hi + 1] += L1[0, 1]
    diag[lo + 1:hi + 2] += L1[1, 1]
    sup[lo + 1:hi + 2] += L1[1, 2]
    diag[lo + 2:hi + 3] += L1[2, 2]
    _band_terms(diag, sup, A, B, D, c_lo, c_hi)
    for off, band in ((0, diag[rows]), (1, sup[rows]), (-1, sup[rows - 1])):
        R[rows - c_lo, rows + off] = band
    ext = np.stack([np.concatenate(([0.0], sup)), diag])
    ext[1, c_lo:c_hi + 2] = 0.0
    ext[0, c_lo:c_hi + 3] = 0.0
    return R, ext


# ---------------------------------------------------------------------------
# the full-line P1 stiffness in closed form
# ---------------------------------------------------------------------------

# (2 sinh(x/2) / x)^4 = sum_j _DELTA4[j] x^(2j), so delta^4 = D^4 sum_j _DELTA4[j] D^(2j);
# the first omitted term is below 1e-20 of the sum from _SERIES_FROM on
_DELTA4 = (1.0, 1 / 6, 1 / 80, 17 / 30240, 31 / 1814400, 1 / 2661120,
           5461 / 871782912000, 257 / 3138418483200)
_SERIES_FROM = 32


def _unit_hat_sequence(n: int, s: float) -> np.ndarray:
    """delta^4 G(k), k = 0..n: the full-line stiffness of unit P1 hats k nodes apart over -a_ns.

    G(t) = |t|^(3-2s) / ((3-2s)(2-2s)(1-2s)(-2s)) has G'''' = |t|^(-1-2s),
    and the autocorrelation of a hat is the cubic B-spline B, so delta^4 G(k)
    = int B(u) |k + u|^(-1-2s) du (a finite part for k <= 1), delta^4 the
    fourth central difference.  Each k is taken where it is exact to a few ulps:

    - k <= 2: the difference itself, in 50-digit decimal, of G less its
      cubic part, t^2 expm1(beta log t) / beta with beta = 1 - 2s, which is
      t^2 log t at s = 1/2 (the difference cancels up to 200-fold at k = 1);
    - 3 <= k < _SERIES_FROM: one 20-point Gauss rule on each of the four
      cubic pieces of B, as in ``fracops._far_pair``: the singularity lies
      at least one piece length beyond each;
    - beyond: the series of delta^4 in D^2 on D^4 G = t^(-1-2s), whose
      derivatives are closed forms (the difference loses 4 log10(k) digits).

    Powers are taken as t^(-2s) / t, so that -1 - 2s is never rounded.
    """
    from decimal import Decimal, localcontext

    out = np.empty(n + 1)
    with localcontext() as ctx:
        ctx.prec = 50
        two_s = 2 * Decimal(s)
        beta = 1 - two_s
        c = (3 - two_s) * (2 - two_s) * -two_s

        def g(t):
            lg = Decimal(t).ln()
            return t * t * (lg if beta == 0 else ((beta * lg).exp() - 1) / beta) / c

        g2, g3, g4 = g(2), g(3), g(4)
        out[:3] = [float(v) for v in (2 * g2, g3 - 4 * g2, g4 - 4 * g3 + 6 * g2)][:n + 1]
    X, W = quad.gauss_rule(20)
    lo = np.array([-2.0, -1.0, 0.0, 1.0])         # B on the pieces [lo, lo + 1]
    v = np.abs(lo[:, None] + X)
    wb = W * np.where(v > 1.0, (2.0 - v) ** 3, 4.0 - 6.0 * v * v + 3.0 * v ** 3) / 6.0
    k = np.arange(3, min(n + 1, _SERIES_FROM), dtype=float)
    t = (k[:, None] + lo)[:, :, None] + X
    out[3:3 + len(k)] = (t ** (-2 * s) / t).reshape(len(k), wb.size) @ wb.reshape(-1)
    k = np.arange(_SERIES_FROM, n + 1, dtype=float)
    # D^(2j) t^(-1-2s) = prod_{i=1}^{2j} (2s + i) t^(-1-2s-2j)
    coef = np.multiply.accumulate([1.0] + [(2 * s + 2 * j - 1) * (2 * s + 2 * j)
                                           for j in range(1, len(_DELTA4))]) * _DELTA4
    x, acc = k ** -2.0, np.full(len(k), coef[-1])
    for cj in coef[-2::-1]:
        acc = acc * x + cj
    out[_SERIES_FROM:] = k ** (-2 * s) / k * acc
    return out


def _build_line(a: float, b: float, h: float, L: float, scheme: str, s: float,
                a_ns: float) -> np.ndarray:
    """T mirrored, T(|k|) at k + n, k = -n..n, n the widest separation of two grid
    DOFs; read-only.  P1: T(k) = -a_ns h^(1-2s) delta^4 G(k).  P0: T(d) = -a_ns
    f(d), T(0) = 0 and zero past d_max, which no Omega row reads.
    """
    n_collar, n_int = round(L / h), round((b - a) / h)
    n = 2 * n_collar + n_int                      # grid cells
    if scheme == "P0":
        T = np.zeros(n)
        T[1:n_collar + n_int] = -a_ns * _p0_pair_values(n_collar + n_int - 1, s, h)
    else:
        T = -a_ns * h ** (1.0 - 2 * s) * _unit_hat_sequence(n, s)
    line = np.concatenate((T[:0:-1], T))
    line.setflags(write=False)
    return line


def _full_line(*key) -> np.ndarray:
    """``_build_line(*key)``, shared."""
    return _cached("line", key, lambda: _build_line(*key))


def _line_rows(line: np.ndarray, first: int, n_rows: int) -> np.ndarray:
    """Rows first..first+n_rows-1 of the Toeplitz [T(|q - p|)] over all grid DOFs q.

    A read-only view of ``line``: row p starts at T(p), so the rows run
    backwards through one window view of the mirrored sequence.
    """
    m = (len(line) + 1) // 2                       # grid nodes
    win = np.lib.stride_tricks.sliding_window_view(line, m)
    top = m - first                                # row p is win[m - 1 - p]
    return win[top - n_rows:top][::-1]


def _collar_nodes(disc: Discretization, side: str) -> slice:
    """The grid DOFs of one collar, ascending: every DOF outside Omega on ``side``."""
    first = 0 if side == "left" else disc.n_dofs - disc.n_collar
    return slice(first, first + disc.n_collar)


def exterior_band(disc: Discretization, order: FractionalOrder, side: str) -> np.ndarray:
    """a_ns int phi_j phi_l tau_Omega over every DOF of one collar, ascending, as a band;
    read-only.

    tau_Omega is the kernel mass of Omega.  The band depends only on the
    mesh, so a record's K_EE is its columns on the Neumann DOFs, couplings
    across a gap zeroed, and a collar half-solve factors it whole.  On the
    arrow path it is a view of the arrow base's band.  On the closed form it
    is one store entry per (mesh, collar), built whole: P0 by
    ``_omega_mass`` of the Toeplitz Omega rows; P1 from the cells between
    the collar's nodes, the grid-end node's hat being its in-grid half.
    Each P1 cell takes ``_cell_gram`` at the order ``fracops.gauss_order``
    gives its gap to Omega in cell widths, 20 points within two widths and
    down to 4 far off; the rule is exact to a few ulps on every cell at
    least one width from Omega.  On the cell that touches Omega tau_Omega
    is singular at an end, so the node next to Omega is exact only at s =
    1/2; that node is never a Neumann DOF of a mesh with Dirichlet Omega
    end nodes, and in a collar half-solve its row cancels.
    cholesky_banded upper layout: each DOF's superdiagonal slot is its
    coupling to the grid DOF before it, zero across Omega's end node and
    beyond the grid end.
    """
    key, nodes = _base_key(disc, order), _collar_nodes(disc, side)
    if assembly_path(disc) == "arrow":
        return _base_arrow(*key)[1][:, nodes]

    def build():
        n_c = disc.n_collar
        if disc.scheme == "P0":
            R = _line_rows(_full_line(*key), n_c, disc.n_interior)
            band = np.stack([np.zeros(n_c), _omega_mass(R, np.arange(nodes.start, nodes.stop))])
        else:
            gaps = np.arange(n_c)            # the cell at gap c spans c to c + 1 widths from Omega
            cells = n_c - 1 - gaps if side == "left" else n_c + disc.n_interior + gaps
            orders = gauss_order(gaps)
            G = np.zeros((n_c + 1, 2, 2))    # by gap; the cell beyond the grid end is zero
            for g in np.unique(orders):
                on = np.flatnonzero(orders == g)
                G[on] = _cell_gram(disc, order, cells[on], [(disc.omega.a, disc.omega.b)], int(g))
            G[0, 0, 1] = 0.0                 # a coupling across Omega's end node
            # by position: the cell left of each node, then the last node's right cell
            G = G[::-1] if side == "left" else G
            band = np.stack([G[:-1, 0, 1], G[1:, 0, 0] + G[:-1, 1, 1]])
        band.setflags(write=False)
        return band

    return _cached("band", (key, side), build)


def _end_column(disc: Discretization, order: FractionalOrder, side: str) -> np.ndarray:
    """K's column of the grid-end node on ``side`` over the interior nodes of a P1
    closed-form mesh (every Omega node but the two ends); read-only, one per
    (mesh, collar) in the store.

    The grid-end node's hat is only its in-grid half, so its column is the
    full-line T(|q - p|) less the coupling -a_ns int phi_p(x) int phi_q k of
    the half beyond the grid: T(|q - p|) + a_ns int phi_p(x) near(|x_q - x|)
    dx, ``near`` the moment of the kernel over the cell beyond against that
    half hat (``fracops.cell_moments``), by one Gauss rule on each of
    phi_p's two cells, of the order ``fracops.gauss_order`` gives that
    cell's distance to x_q in cell widths.
    """
    def build():
        n_c, n_int, h = disc.n_collar, disc.n_interior, disc.h
        q = 0 if side == "left" else disc.n_dofs - 1
        T = _line_rows(_full_line(*_base_key(disc, order)), n_c + 1, n_int - 1)[:, q]
        # Omega cell i spans nodes n_c + i and n_c + i + 1
        ends = np.abs(disc.nodes[n_c:n_c + n_int + 1] - disc.nodes[q]) / h
        orders = gauss_order(np.minimum(ends[:-1], ends[1:]))
        rise, fall = np.empty(n_int), np.empty(n_int)
        for g in np.unique(orders):
            on = np.flatnonzero(orders == g)
            X, W = quad.gauss_rule(int(g))
            x = disc.nodes[n_c + on, None] + h * X          # the cells' Gauss points
            near = cell_moments(np.abs(disc.nodes[q] - x), h, order.s)[1]
            rise[on], fall[on] = near @ (W * X), near @ (W * (1.0 - X))
        # node n_c + 1 + i rises over Omega cell i and falls over cell i + 1
        col = T + order.a_ns * h * (rise[:-1] + fall[1:])
        col.setflags(write=False)
        return col

    return _cached("end", (_base_key(disc, order), side), build)


def _tail_sums(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with T(d) + ... + T(d_max) = hi[d] + lo[d], d = 0..d_max + 1, from the
    P0 Toeplitz Omega rows R.

    One reverse cumulative sum of R's row 0 from its diagonal, T(0..d_max),
    serves every d, mirror-exact; its rounding errors, exact by TwoSum, are
    summed alongside, so a difference of two tails (which cancels up to
    d / (2s)-fold) stays within an ulp or two of the exact window sum.
    """
    n_collar = (R.shape[1] - len(R)) // 2
    x = R[0, n_collar:][::-1]                            # T(d_max), ..., T(0)
    c = np.cumsum(x)
    b = c[1:] - c[:-1]
    err = np.cumsum(np.r_[0.0, (c[:-1] - (c[1:] - b)) + (x[1:] - b)])
    return tuple(np.r_[v[::-1], 0.0] for v in (c, err))


def _line_sums(tails, first, stop) -> np.ndarray:
    """T(first) + ... + T(stop - 1) from ``_tail_sums``, elementwise over the index arrays."""
    hi, lo = tails
    return (hi[first] - hi[stop]) + (lo[first] - lo[stop])


def _omega_mass(R: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Omega mass -(T(g) + ... + T(g + n_int - 1)) of the P0 exterior ``cells``, g
    their gap to Omega: minus their column sums in R, the Toeplitz Omega rows;
    a difference of two ``_tail_sums``.
    """
    n_int, n_collar = len(R), (R.shape[1] - len(R)) // 2
    gaps = np.where(cells < n_collar, n_collar - cells, cells - n_collar - n_int + 1)
    return -_line_sums(_tail_sums(R), gaps, gaps + n_int)


def _dirichlet_rows(R: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """sum_{q in cells} R[i, q] for every Omega row i of the P0 Toeplitz Omega rows R,
    ``cells`` exterior and ascending.

    A run of cells is a window of T in each row: on the left, cell q is
    n_collar + i - q from row i; on the right, q - n_collar - i.  So each
    run adds one difference of two ``_tail_sums`` per row, the runs in
    ascending order.
    """
    n_int, n_collar = len(R), (R.shape[1] - len(R)) // 2
    tails, i = _tail_sums(R), np.arange(n_int)
    out = np.zeros(n_int)
    for run, _ in runs(cells):
        if run.stop <= n_collar:
            out += _line_sums(tails, n_collar - run.stop + 1 + i, n_collar - run.start + 1 + i)
        else:
            out += _line_sums(tails, run.start - n_collar - i, run.stop - n_collar - i)
    return out


def _cell_gram(disc: Discretization, order: FractionalOrder, first: np.ndarray, sets,
               g: int) -> np.ndarray:
    """a_ns int_E phi_a phi_b tau on the cells E = [x_first, x_first + h], tau the
    kernel mass of ``sets``, by one g-point Gauss rule per cell.

    (cells, 2, 2) over the two hats of a P1 cell, (cells, 1, 1) over the
    constant of a P0 cell.  It serves the far tails (``_far_tails``, tau of
    the far half-lines) and the P1 collar cells of ``exterior_band`` (tau
    of Omega).
    """
    X, W = quad.gauss_rule(g)
    wtau = W * interval_mass(disc.nodes[first, None] + disc.h * X, sets, 2.0 * order.s)
    if disc.scheme == "P0":
        return order.a_ns * disc.h * wtau.sum(axis=1)[:, None, None]
    lam = np.stack([1.0 - X, X])
    return order.a_ns * disc.h * np.einsum("ep,ap,bp->eab", wtau, lam, lam)


# ---------------------------------------------------------------------------
# far-field Dirichlet tails and mass matrix
# ---------------------------------------------------------------------------

def omega_mass(disc: Discretization) -> np.ndarray:
    """M_ij = int_Omega phi_i phi_j over the Omega DOFs as a band; exact.

    cholesky_banded upper layout, (2, n): the superdiagonal in row 0 (entry
    0 unused, zero), the diagonal in row 1.  P0 is diagonal, h; P1 is
    tridiagonal, (h/6) (4, 1) with 2 h/6 on the two end nodes.
    """
    n = disc.n_interior
    if disc.scheme == "P0":
        return np.stack([np.zeros(n), np.full(n, disc.h)])
    c = disc.h / 6.0
    ab = np.full((2, n + 1), c)
    ab[0, 0] = 0.0
    ab[1] = 4.0 * c
    ab[1, [0, n]] = 2.0 * c
    return ab


@dataclass(frozen=True)
class StiffnessSystem:
    """Symmetric nonlocal stiffness over free DOFs in arrow blocks plus the Omega mass.

    K_EE is diagonal (P0) or tridiagonal (P1) and M_II is diagonal (P0) or
    tridiagonal (P1), so both are stored as bands.  K_IE is never copied:
    its columns are the runs ``runs_E`` of consecutive exterior Neumann grid
    DOFs, each cut once into its slices of R_I's columns and of the exterior
    DOFs, and read in place from ``R_I``: on the closed-form path a strided
    view of the Toeplitz T (its rows run backwards through one mirrored
    sequence), else the interior rows of the cached P1 arrow base.  On the
    closed-form path an exterior product is one convolution per run with a
    window of R_I (its reversed first column, then row 0 past it), which
    stays in cache.  The arrow rows are not Toeplitz at the Omega boundary
    rows, the grid-end columns and the band, so there, and on hand-made
    systems, it is one GEMV per run on R_I's columns.

    A free grid-end node of a P1 closed-form mesh has half a hat, so its
    column is not T's: ``end_columns`` carries it, (grid DOF, exterior
    position, column over the interior DOFs) per such node, and every
    reader of K_IE takes it from there, cutting the node off its run.
    """

    disc: Discretization
    order: FractionalOrder
    K_II: np.ndarray              # interior x interior, far-field D tails included; read-only,
                                  # shared by every system of its mesh, far labels and slice
    R_I: np.ndarray               # interior x all grid DOFs, a read-only view of the base or T
    runs_E: tuple                 # (R_I's columns, exterior DOFs) slice pairs, one per run
    K_EE: np.ndarray              # (2, n_E) cholesky_banded upper layout
    M_II: np.ndarray              # (2, n_I) Omega mass, same layout
    free_dofs: np.ndarray         # global DOF indices of the free unknowns
    interior_mask: np.ndarray     # within-free boolean
    exterior_mask: np.ndarray     # within-free boolean (exterior Neumann)
    tail_corrections: np.ndarray  # per-free-DOF diagonal far-field-D addition
    dirichlet_row_sums: np.ndarray  # column sums of the constrained row block: K 1_D over
                                    # the free DOFs, far tails left out; P0's by definition
    end_columns: tuple = ()       # (grid DOF, exterior position, read-only column) per free
                                  # grid-end node whose K_IE column R_I does not hold
    # (mesh, far-field labels, interior slice, path): the key that K_II and M_II
    # are functions of, set by ``assemble`` alone; ``dataclasses.replace`` and
    # hand-made systems get None
    key: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def path(self) -> str:
        """``assembly_path`` of the mesh, the key's last entry; "" without a key."""
        return self.key[-1] if self.key else ""

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    def _runs(self) -> tuple[tuple[slice, slice], ...]:
        """``runs_E`` with the grid-end nodes of ``end_columns`` cut off (an end node
        is its run's first or last DOF), runs left empty dropped."""
        if not self.end_columns:
            return self.runs_E
        out = []
        for run, e in self.runs_E:
            for q, _, _ in self.end_columns:
                if q == run.start:
                    run, e = slice(q + 1, run.stop), slice(e.start + 1, e.stop)
                elif q == run.stop - 1:
                    run, e = slice(run.start, q), slice(e.start, e.stop - 1)
            if run.start < run.stop:
                out.append((run, e))
        return tuple(out)

    def columns(self, nodes: slice, rows: slice, out: np.ndarray) -> np.ndarray:
        """K_IE's columns of the grid DOFs ``nodes`` (any of them, free or not, as R_I
        and ``end_columns`` hold them) over the interior DOFs ``rows``, as the rows of
        ``out``, which is returned."""
        out[...] = self.R_I[rows, nodes].T
        index = range(self.R_I.shape[1])[nodes]
        for q, _, col in self.end_columns:
            if q in index:
                out[index.index(q)] = col[rows]
        return out

    def _window(self, run: slice) -> np.ndarray:
        """Toeplitz R_I[:, run] as one sequence: R_I[i, q] = w[q - run.start - i + n_I - 1]."""
        return np.concatenate((self.R_I[::-1, run.start], self.R_I[0, run.start + 1:run.stop]))

    @property
    def K_IE(self) -> np.ndarray:
        """The interior x exterior Neumann block, copied on demand (tests only)."""
        K_IE = np.empty((len(self.R_I), np.count_nonzero(self.exterior_mask)))
        for run, e in self.runs_E:
            self.columns(run, slice(None), K_IE[:, e].T)
        return K_IE

    def K_EI_matvec(self, u_I: np.ndarray, absolute: bool = False) -> np.ndarray:
        """K_EI u_I, or |K_EI| u_I: per run, a convolution with its window or a GEMV,
        and one dot product per end column.

        Output q of a run is sum_i w[q - run.start - i + n_I - 1] u_I[i], the
        valid part of the convolution of the window w with u_I.
        """
        out = np.empty(np.count_nonzero(self.exterior_mask))
        for run, e in self._runs():
            if self.path == "closed_form":
                win = self._window(run)
                out[e] = np.convolve(np.abs(win) if absolute else win, u_I, "valid")
            else:
                block = self.R_I[:, run]
                out[e] = (np.abs(block) if absolute else block).T @ u_I
        for _, e, col in self.end_columns:
            out[e] = (np.abs(col) if absolute else col) @ u_I
        return out

    def matvec(self, u_free: np.ndarray) -> np.ndarray:
        """K u over the free DOFs."""
        u_I, u_E = u_free[self.interior_mask], u_free[self.exterior_mask]
        K_u_I = self.K_II @ u_I
        K_u_E = band_matvec(self.K_EE, u_E) + self.K_EI_matvec(u_I)
        for run, e in self._runs():
            if self.path == "closed_form":
                # row i is sum_q w[q - run.start - i + n_I - 1] u_E[q]: the correlation, reversed
                K_u_I += np.correlate(self._window(run), u_E[e], "valid")[::-1]
            else:
                K_u_I += self.R_I[:, run] @ u_E[e]
        for _, e, col in self.end_columns:
            K_u_I += col * u_E[e]
        out = np.empty(self.n_free)
        out[self.interior_mask] = K_u_I
        out[self.exterior_mask] = K_u_E
        return out


def dense_bytes(disc: Discretization) -> int:
    """Bytes of the largest dense arrays that the records of one mesh share.

    K_II and its factor, 2 n_I^2 doubles; on the arrow path also the base's
    Omega rows R, n_om x n_dofs; and, on either P1 path, the half-solve of
    each collar whose grid-end node is a free DOF (only there can a Neumann
    run be anchored), n_collar x n_I each, and one n_collar x SOLVE_CHUNK
    chunk of the one being built.  A collar Gram base and its factor, 2 n_I^2
    more, and the work arrays of a dense record are not counted: this is a
    floor on what a sweep holds, not its peak.
    """
    n_I = int(np.count_nonzero(disc.dof_label == DOF_INTERIOR))
    doubles = 2 * n_I * n_I
    if assembly_path(disc) == "arrow":
        doubles += (disc.n_interior + 1) * disc.n_dofs
    if disc.scheme == "P1":
        collars = int(np.count_nonzero(disc.dof_label[[0, -1]] < DOF_DIRICHLET))
        doubles += disc.n_collar * (collars * n_I + (collars > 0) * min(SOLVE_CHUNK, n_I))
    return 8 * doubles


def assembly_path(disc: Discretization) -> str:
    """Where ``assemble`` takes the Omega rows of K from: "closed_form" or "arrow".

    The closed form serves every P0 mesh, whose Omega rows are Toeplitz off
    their diagonal, and every P1 mesh whose two Omega end nodes are
    Dirichlet DOFs, whatever its far labels and grid-end nodes.  There every
    interior hat is whole inside Omega, so each Omega row that is read is
    the full-line Toeplitz T (far tails of both labels included) less the
    pairs that the grid drops: K_II subtracts the mass of the Neumann far
    half-lines, a free grid-end node has an end column
    (``StiffnessSystem.end_columns``), and K_EE is cut from the cached
    Omega-weighted Gram band of each collar.  A P1 mesh with a free Omega
    end node takes the arrow base: that node's hat straddles the boundary
    of Omega, and T counts the exterior pairs of its outer half.
    """
    ends = [disc.n_collar, disc.n_collar + disc.n_interior]
    closed = disc.scheme == "P0" or bool(np.all(disc.dof_label[ends] == DOF_DIRICHLET))
    return "closed_form" if closed else "arrow"


def _far_tails(disc: Discretization, order: FractionalOrder, n_om: int, label: str = "D"):
    """Far-field tails a * int_Omega phi_i phi_j tau(x) dx, tau the kernel mass of the
    half-lines beyond the grid labelled ``label``: (diagonal terms, superdiagonal).

    The diagonal terms are arrays over the Omega DOFs, added in list order;
    the superdiagonal holds the P1 coupling per Omega cell, None for P0 or
    when no far side has that label.
    """
    if not disc.far(label):
        return [], None
    i0, i1 = disc.interior_cells
    local = _cell_gram(disc, order, np.arange(i0, i1 + 1), disc.far(label), 8)
    if disc.scheme == "P0":
        return [local[:, 0, 0]], None
    # as cells ascend, a node gets the term of the cell on its left first:
    # node j adds local[j - 1, 1, 1], then local[j, 0, 0]
    adds = []
    for first, cell in ((1, local[:, 1, 1]), (0, local[:, 0, 0])):
        add = np.zeros(n_om)
        add[first:first + disc.n_interior] = cell
        adds.append(add)
    return adds, local[:, 0, 1]


def _build_interior(disc: Discretization, order: FractionalOrder, R: np.ndarray, lo: int,
                    n_I: int) -> tuple:
    """(K_II, tails, tail_rows) on the interior DOFs lo..lo+n_I-1; all read-only.

    R holds the rows of the Omega DOFs.  K_II is R's block on the interior
    DOFs: P0's diagonal is the negated sum of its grid row, since T(0) = 0.
    The far-field Dirichlet tails are added to its three diagonals, except
    on the P1 closed form, whose T holds them; that T holds the Neumann far
    half-lines too, which the grid drops, so their tails are subtracted
    there.  ``tails`` are the diagonal Dirichlet tails of those DOFs.
    ``tail_rows`` (P1 closed form only, else None) are the row sums of the
    Dirichlet tails among them.
    """
    n_om = R.shape[0]
    I = slice(lo, lo + n_I)
    K_II = R[I, disc.n_collar + lo:disc.n_collar + lo + n_I].copy()
    flat = K_II.reshape(-1)                      # views of K_II's three diagonals
    diag, sup, sub = flat[::n_I + 1], flat[1::n_I + 1], flat[n_I::n_I + 1]
    if disc.scheme == "P0":
        diag[:] = -R[I].sum(axis=1)
    def far_tails(label):
        adds, sup = _far_tails(disc, order, n_om, label)
        return adds, None if sup is None else sup[lo:lo + n_I - 1]

    d_adds, d_sup = far_tails("D")
    tails_om = np.zeros(n_om)
    for add in d_adds:
        tails_om += add
    tails = tails_om[I]
    line = disc.scheme == "P1" and assembly_path(disc) == "closed_form"
    # the P1 line holds every far tail, and the grid drops the Neumann ones
    sign, (adds, sup_tails) = (-1.0, far_tails("N")) if line else (1.0, (d_adds, d_sup))
    for add in adds:
        diag += sign * add[I]
    if sup_tails is not None:
        sup += sign * sup_tails
        sub += sign * sup_tails
    tail_rows = None
    if line:
        tail_rows = tails.copy()
        if d_sup is not None:                    # a Dirichlet far side
            tail_rows[1:] += d_sup
            tail_rows[:-1] += d_sup
        tail_rows.setflags(write=False)
    K_II.setflags(write=False)
    tails.setflags(write=False)
    return K_II, tails, tail_rows


def assemble(disc: Discretization, order: FractionalOrder) -> StiffnessSystem:
    """Arrow blocks of K (pairs meeting Q_Omega + Dirichlet tails) and M over free DOFs.

    The Omega rows are a view of the Toeplitz T or of the cached arrow base,
    as ``assembly_path`` picks from the mesh.  K_II and the tails come from
    ``_build_interior``, built by the first record of their key and shared;
    the system carries that key.  On every path K_EE is cut from each
    collar's ``exterior_band``; on the P1 closed form the column of a free
    grid-end node comes from the cached ``_end_column``.  The Dirichlet row
    sums are a GEMV on the arrow path, ``_dirichlet_rows`` on P0, and -K 1
    plus the tail rows on the P1 closed form.
    """
    if order.dimension != 1:
        raise BadParameters("assembly is 1D")
    if disc.scheme == "P0" and order.s >= 0.5:
        raise IncompatibleScheme("P0 jumps carry infinite energy for s >= 1/2")
    path, base = assembly_path(disc), _base_key(disc, order)
    closed = path == "closed_form"
    n_om = disc.n_interior + (disc.scheme == "P1")
    if closed:
        R = _line_rows(_full_line(*base), disc.n_collar, n_om)
    else:
        R, ext = _base_arrow(*base)
    omega_dofs = slice(disc.n_collar, disc.n_collar + n_om)
    free = np.where(disc.dof_label < DOF_DIRICHLET)[0]
    interior = disc.dof_label[free] == DOF_INTERIOR
    exterior = disc.dof_label[free] == DOF_NEUMANN
    rows = free[interior] - disc.n_collar
    cols_E = free[exterior]
    # the interior DOFs are one run of Omega DOFs: every cell (P0), or every
    # node but the ends that touch a Dirichlet cell (P1); so blocks are slices
    n_I = len(rows)
    lo = int(rows[0]) if n_I else 0
    if n_I and rows[-1] - lo != n_I - 1:
        raise BadParameters("interior DOFs are not contiguous")
    I = slice(lo, lo + n_I)
    key = (base, disc.far_label, lo, n_I, path)
    K_II, tails_I, tail_rows = _cached("block", key,
                                       lambda: _build_interior(disc, order, R, lo, n_I))
    M_II = omega_mass(disc)[:, I]
    M_II[0, :1] = 0.0                        # the coupling to a cut end node
    # column sums of the Dirichlet-row block, K 1_D by symmetry: the discrete
    # N_s mass on the constrained DOFs, needed by the Gauss-identity
    # diagnostics; of the Omega DOFs only the (P1) end nodes can be Dirichlet
    row_sums = np.zeros(len(free))
    ends = ()
    # K_EE: each collar's exterior band on its Neumann DOFs, which ascend
    K_EE = np.empty((2, len(cols_E)))
    split = int(np.searchsorted(cols_E, disc.n_collar))
    for side, e in (("left", slice(0, split)), ("right", slice(split, len(cols_E)))):
        if e.start < e.stop:
            band = exterior_band(disc, order, side)
            K_EE[:, e] = band[:, cols_E[e] - _collar_nodes(disc, side).start]
    K_EE[0, np.diff(cols_E, prepend=-2) != 1] = 0.0     # no coupling across a gap
    if disc.scheme == "P0":       # always the closed form
        # by definition, the Dirichlet columns of each interior row; exterior
        # pairs carry no energy and K_EE is diagonal, so exterior rows are 0
        row_sums[interior] = _dirichlet_rows(R, np.flatnonzero(disc.dof_label == DOF_DIRICHLET))
    elif closed:
        last = len(cols_E) - 1
        ends = tuple((q, e, _end_column(disc, order, side))
                     for q, e, side in ((0, 0, "left"), (disc.n_dofs - 1, last, "right"))
                     if len(cols_E) and cols_E[e] == q)
    else:
        dirichlet = disc.dof_label == DOF_DIRICHLET
        x = dirichlet.astype(float)
        Kx = band_matvec(ext, x) + R[dirichlet[omega_dofs]].sum(axis=0)
        Kx[omega_dofs] = R @ x
        row_sums[:] = Kx[free]
    tails = np.zeros(len(free))
    tails[interior] = tails_I

    system = StiffnessSystem(
        disc=disc, order=order, K_II=K_II, R_I=R[I], runs_E=runs(cols_E), K_EE=K_EE,
        M_II=M_II, free_dofs=free, interior_mask=interior, exterior_mask=exterior,
        tail_corrections=tails, dirichlet_row_sums=row_sums, end_columns=ends)
    object.__setattr__(system, "key", key)       # before matvec, whose path it selects
    if closed and disc.scheme == "P1":
        # the span-truncated stiffness annihilates constants, so a free row's
        # Dirichlet columns sum to minus its free ones, less the far tails
        # among the interior DOFs, which K holds and the grid does not
        row_sums[:] = -system.matvec(np.ones(len(free)))
        row_sums[interior] += tail_rows
    return system


# ---------------------------------------------------------------------------
# brute-force oracle (independent pair bookkeeping, small meshes only)
# ---------------------------------------------------------------------------

def _pair_energy_quadrature(e_lo, e_hi, f_lo, f_hi, ue, uf, ve, vf, s):
    """iint_{E x F} (u(x)-u(y))(v(x)-v(y)) k dx dy for linear u, v on each cell.

    Direct per-pair quadrature: tensor Gauss for separated pairs; for the
    touching pair (equal widths), corner coordinates and the diagonal Duffy
    split reduce both triangles to smooth 1D integrals evaluated adaptively.
    Node values are (left, right) per cell; touching pairs require continuity
    at the shared node.
    """
    h = e_hi - e_lo
    if f_lo > e_hi:          # separated
        X, W = quad.gauss_rule(40)
        x = e_lo + h * X
        y = f_lo + (f_hi - f_lo) * X
        ux = ue[0] + (ue[1] - ue[0]) * X
        vx = ve[0] + (ve[1] - ve[0]) * X
        uy = uf[0] + (uf[1] - uf[0]) * X
        vy = vf[0] + (vf[1] - vf[0]) * X
        kv = np.abs(x[:, None] - y[None, :]) ** (-1.0 - 2 * s)
        du = ux[:, None] - uy[None, :]
        dv = vx[:, None] - vy[None, :]
        return h * (f_hi - f_lo) * float((W[:, None] * W[None, :] * du * dv * kv).sum())
    # touching at e_hi == f_lo; xi = e_hi - x, eta = y - f_lo, u(x) - u(y) =
    # (al xi - be eta)/h; each Duffy triangle separates into xi- and T-factors
    assert abs((f_hi - f_lo) - h) < 1e-12
    assert abs(ue[1] - uf[0]) < 1e-12 and abs(ve[1] - vf[0]) < 1e-12
    al, be = ue[0] - ue[1], uf[1] - uf[0]
    ga, de = ve[0] - ve[1], vf[1] - vf[0]

    def lower(T):
        return (al - be * T) * (ga - de * T) * (1.0 + T) ** (-1.0 - 2 * s)

    def upper(T):
        return (al * T - be) * (ga * T - de) * (1.0 + T) ** (-1.0 - 2 * s)

    c_low = quad.adaptive(lower, 0.0, 1.0, rel_tol=1e-12, abs_floor=1e-14)
    c_up = quad.adaptive(upper, 0.0, 1.0, rel_tol=1e-12, abs_floor=1e-14)
    return h ** (1.0 - 2 * s) / (3.0 - 2 * s) * (c_low + c_up)


def brute_force_energy(system: StiffnessSystem, u: np.ndarray,
                       v: np.ndarray | None = None) -> float:
    """Independent double sum over cell pairs with (Omega^c)^2 pairs skipped.

    Python loops with per-pair quadrature/closed forms; restricted to meshes
    with at most 40 cells.  ``u``/``v`` are coefficient vectors over the free
    DOFs (Dirichlet DOFs are zero).
    """
    disc, order = system.disc, system.order
    if disc.n_cells > 40:
        raise BadParameters("brute-force oracle is limited to <= 40 cells")
    v = u if v is None else v
    s, a = order.s, order.a_ns
    full_u = np.zeros(disc.n_dofs)
    full_v = np.zeros(disc.n_dofs)
    full_u[system.free_dofs] = u
    full_v[system.free_dofs] = v
    i0, i1 = disc.interior_cells
    n = disc.n_cells
    total = 0.0
    for i in range(n):
        for j in range(i, n):
            i_in = i0 <= i <= i1
            j_in = i0 <= j <= i1
            if not (i_in or j_in):
                continue
            if disc.scheme == "P0":
                if i == j:
                    continue
                e = (full_u[i] - full_u[j]) * (full_v[i] - full_v[j]) \
                    * pair_integral((disc.nodes[i], disc.nodes[i + 1]),
                                    (disc.nodes[j], disc.nodes[j + 1]), s)
                total += a * e
                continue
            ue = (full_u[i], full_u[i + 1])
            ve = (full_v[i], full_v[i + 1])
            uf = (full_u[j], full_u[j + 1])
            vf = (full_v[j], full_v[j + 1])
            if i == j:
                c0 = _p1_same_cell_coeff(s, disc.h)
                total += 0.5 * a * c0 * (ue[1] - ue[0]) * (ve[1] - ve[0])
                continue
            e = _pair_energy_quadrature(disc.nodes[i], disc.nodes[i + 1],
                                        disc.nodes[j], disc.nodes[j + 1],
                                        ue, uf, ve, vf, s)
            total += a * e
    if disc.far_dirichlet:
        for e in range(i0, i1 + 1):
            def f(x):
                lam1 = (x - disc.nodes[e]) / disc.h
                if disc.scheme == "P0":
                    ux = np.full_like(x, full_u[e])
                    vx = np.full_like(x, full_v[e])
                else:
                    ux = full_u[e] * (1 - lam1) + full_u[e + 1] * lam1
                    vx = full_v[e] * (1 - lam1) + full_v[e + 1] * lam1
                return ux * vx * interval_mass(x, disc.far_dirichlet, 2.0 * s)
            total += a * quad.adaptive(f, disc.nodes[e], disc.nodes[e + 1],
                                       rel_tol=1e-11)
    return total
