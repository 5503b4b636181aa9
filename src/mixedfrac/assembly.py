"""Meshing of Omega plus a truncated exterior collar, and stiffness assembly.

The energy is the quadratic form (a_{N,s}/2) iint_{Q_Omega} (u(x)-u(y))^2 /
|x-y|^(1+2s) over the pair region Q_Omega (at least one point in Omega);
exterior-exterior pairs carry no energy.  Two conforming spaces are
supported on a uniform grid over [a-L, b+L]:

- P0: piecewise constants on cells (jumps admissible, requires s < 1/2);
- P1: continuous piecewise linear hats on nodes.

The grid is uniform, so every cell-pair integral depends only on the
separation d; local pair tensors are precomputed per d (closed forms for
P0 and the same-cell/adjacent P1 cases, certified tensor Gauss otherwise)
and scattered along diagonal stripes into an arrow matrix: exterior pairs
carry no energy, so only the Omega rows are dense and the exterior block
is a band, in O(n_int * m) memory.  Couplings with the exterior beyond the
collar are dropped on the Neumann side and replaced by closed-form tail
integrals on the Dirichlet side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quadrature as quad
from .errors import (
    BadParameters,
    EntryToleranceFailure,
    IncompatibleScheme,
    MixedFarField,
)
from .fracops import FractionalOrder, pair_integral
from .geometry import Domain1D, ExteriorPartition

INF = math.inf

DOF_INTERIOR, DOF_NEUMANN, DOF_DIRICHLET = 0, 1, 2
CELL_INTERIOR, CELL_NEUMANN, CELL_DIRICHLET = 0, 1, 2


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

    Preconditions: h > 0, L >= 4 |Omega|, h divides |Omega| and L, every
    bounded partition feature intersecting the grid span is at least 4h wide
    (so shrinking sets stay resolved), and the partition is single-labeled
    beyond the span on each side.
    """
    if scheme not in ("P0", "P1"):
        raise BadParameters(f"unknown scheme {scheme!r}")
    if h <= 0:
        raise BadParameters("h must be positive")
    if L < 4.0 * omega.length - 1e-12:
        raise BadParameters(f"L = {L} violates L >= 4 |Omega| = {4 * omega.length}")
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

def _p1_far_tensors(n_sep: int, s: float, h: float, g: int):
    """A(d), B(d), D(d) blocks for cell pairs at separations d = 2..n_sep.

    Unit-cell tensor Gauss with shared nodes, so each pair tensor annihilates
    constants exactly (the quadrature itself is in difference form).
    """
    X, W = quad.gauss_rule(g)
    lam = np.stack([1.0 - X, X])                       # (2, g)
    ds = np.arange(2, n_sep + 1, dtype=float)
    kv = (ds[:, None, None] + X[None, None, :] - X[None, :, None]) ** (-1.0 - 2 * s)
    kw = kv * (W[:, None] * W[None, :])[None, :, :]
    row = kw.sum(axis=2)                               # (nd, g): sum over y-nodes
    col = kw.sum(axis=1)                               # (nd, g): sum over x-nodes
    A = np.einsum("ap,cp,dp->dac", lam, lam, row)
    D = np.einsum("bq,eq,dq->dbe", lam, lam, col)
    B = np.einsum("ap,bq,dpq->dab", lam, lam, kw)
    scale = h ** (1.0 - 2 * s)
    return A * scale, B * scale, D * scale


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
    j11 = 2.0 * c3 / (3.0 - 2 * s)
    ea = np.array([1.0, -1.0, 0.0])
    eb = np.array([0.0, -1.0, 1.0])
    local = (j2 * (np.outer(ea, ea) + np.outer(eb, eb))
             - j11 * (np.outer(ea, eb) + np.outer(eb, ea)))
    return h ** (1.0 - 2 * s) * local


def _p1_same_cell_coeff(s: float, h: float) -> float:
    """iint_{E^2} (x-y)^2 |x-y|^(-1-2s) / h^2 = 2 h^(1-2s)/((2-2s)(3-2s)), exact."""
    return 2.0 * h ** (1.0 - 2 * s) / ((2.0 - 2 * s) * (3.0 - 2 * s))


def _p0_pair_values(n_sep: int, s: float, h: float) -> np.ndarray:
    """Exact cell-pair integrals f(d), d = 1..n_sep, via the second antiderivative."""
    d = np.arange(0, n_sep + 2, dtype=float) * h
    if s == 0.5:
        raise IncompatibleScheme("P0 requires s < 1/2")
    with np.errstate(divide="ignore"):
        F = np.where(d > 0, d ** (1.0 - 2 * s) / (2 * s * (2 * s - 1.0)), 0.0)
    return F[2:] - 2.0 * F[1:-1] + F[:-2]


def _stripe_add(R: np.ndarray, ext: np.ndarray, w_lo: int, lo: int, hi: int,
                row_off: int, col_off: int, value: float) -> None:
    """K[i + row_off, i + col_off] += value for i in [lo, hi), in arrow storage.

    Only the upper triangle is kept (the caller mirrors the Omega block):
    rows inside Omega go to R, rows left of Omega with the column inside go
    to the mirrored R entry, and exterior pairs go to the band ``ext``
    (``ext[1, j]`` diagonal, ``ext[0, j]`` the (j-1, j) coupling).
    """
    if col_off < row_off:
        return
    n_w, m = R.shape
    w_hi = w_lo + n_w
    for a, b, first in ((max(lo, w_lo - row_off), min(hi, w_hi - row_off),
                         (row_off - w_lo) * m + col_off),
                        (max(lo, w_lo - col_off), min(hi, w_lo - row_off, w_hi - col_off),
                         (col_off - w_lo) * m + row_off)):
        if a < b:
            R.reshape(-1)[first + a * (m + 1):first + b * (m + 1):m + 1] += value
    k = 1 + row_off - col_off
    if k < 0:      # wider stripes always meet an Omega DOF
        return
    ext[k, lo + col_off:min(hi + col_off, w_lo)] += value
    ext[k, max(lo, w_hi - row_off) + col_off:hi + col_off] += value


def _ranges(d: int, c_lo: int, c_hi: int, n: int):
    """i-ranges (inclusive pieces) of pairs (i, i+d) meeting the interior block."""
    a1, b1 = max(0, c_lo - d), min(n - 1 - d, c_hi - d)
    a2, b2 = max(0, c_lo), min(n - 1 - d, c_hi)
    if a1 > b1:
        return [(a2, b2)] if a2 <= b2 else []
    if a2 > b2:
        return [(a1, b1)]
    if a2 <= b1 + 1:
        return [(min(a1, a2), max(b1, b2))]
    return [(a1, b1), (a2, b2)]


def band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Symmetric band (cholesky_banded upper layout, one superdiagonal) times x."""
    y = ab[1] * x
    y[1:] += ab[0, 1:] * x[:-1]
    y[:-1] += ab[0, 1:] * x[1:]
    return y


@lru_cache(maxsize=2)
def _base_arrow(a: float, b: float, h: float, L: float, scheme: str, s: float,
                a_ns: float, entry_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Label-independent stiffness over all grid DOFs as an arrow pair (R, ext).

    R holds the rows of the Omega DOFs against all m grid DOFs; ``ext`` the
    exterior block (only the Omega-weighted Gram term) as a cholesky_banded
    upper band over the grid DOFs, zero on Omega.  P1 tensors are certified
    by one refinement level (Gauss order g and g + 8); P0 values are exact
    closed forms.  The pair is cached and returned read-only.
    """
    n_collar = round(L / h)
    n_int = round((b - a) / h)
    n = 2 * n_collar + n_int
    c_lo, c_hi = n_collar, n_collar + n_int - 1

    if scheme == "P0":
        v = np.concatenate(([0.0], -a_ns * _p0_pair_values(n - 1, s, h)))
        cells = np.arange(n)
        R = v[np.abs(cells[c_lo:c_hi + 1, None] - cells)]
        R[np.arange(n_int), cells[c_lo:c_hi + 1]] = -R.sum(axis=1)
        ext = np.stack([np.zeros(n), -R.sum(axis=0)])
        ext[1, c_lo:c_hi + 1] = 0.0
        R.setflags(write=False)
        ext.setflags(write=False)
        return R, ext

    g = 20
    Af, Bf, Df = _p1_far_tensors(n - 1, s, h, g)
    # certify by one refinement level on the nearest (worst-case) separations
    n_chk = min(n - 1, 41)
    A2, B2, D2 = _p1_far_tensors(n_chk, s, h, g + 8)
    nd = A2.shape[0]
    worst = max(
        float(np.max(np.abs(Af[:nd] - A2) / np.maximum(np.abs(A2), 1e-300))),
        float(np.max(np.abs(Bf[:nd] - B2) / np.maximum(np.abs(B2), 1e-300))),
        float(np.max(np.abs(Df[:nd] - D2) / np.maximum(np.abs(D2), 1e-300))))
    L1 = _p1_adjacent_local(s, h, g=48)
    L1_ref = _p1_adjacent_local(s, h, g=64)
    worst = max(worst, float(np.max(np.abs(L1 - L1_ref)) / np.max(np.abs(L1_ref))))
    if worst > entry_tol:
        raise EntryToleranceFailure(
            f"pair-tensor refinement check failed: {worst:.2e} > {entry_tol:.1e}")
    Af[:nd], Bf[:nd], Df[:nd] = A2, B2, D2

    R = np.zeros((n_int + 1, n + 1))
    ext = np.zeros((2, n + 1))
    v0 = 0.5 * a_ns * _p1_same_cell_coeff(s, h)
    for (ro, co, sg) in ((0, 0, 1.0), (1, 1, 1.0), (0, 1, -1.0), (1, 0, -1.0)):
        _stripe_add(R, ext, c_lo, c_lo, c_hi + 1, ro, co, sg * v0)
    L1a = a_ns * L1_ref
    for (lo, hi) in _ranges(1, c_lo, c_hi, n):
        for r in range(3):
            for c in range(3):
                _stripe_add(R, ext, c_lo, lo, hi + 1, r, c, L1a[r, c])
    for d in range(2, n):
        Ad, Bd, Dd = a_ns * Af[d - 2], a_ns * Bf[d - 2], a_ns * Df[d - 2]
        for (lo, hi) in _ranges(d, c_lo, c_hi, n):
            for r in range(2):
                for c in range(2):
                    _stripe_add(R, ext, c_lo, lo, hi + 1, r, c, Ad[r, c])
                    _stripe_add(R, ext, c_lo, lo, hi + 1, d + r, d + c, Dd[r, c])
                    _stripe_add(R, ext, c_lo, lo, hi + 1, r, d + c, -Bd[r, c])
    # mirror the upper triangle of the Omega block so K is symmetric bitwise;
    # transposed entries would accumulate the same addends in swapped order
    W = R[:, c_lo:c_hi + 2]
    R[:, c_lo:c_hi + 2] = np.triu(W) + np.triu(W, 1).T
    R.setflags(write=False)
    ext.setflags(write=False)
    return R, ext


# ---------------------------------------------------------------------------
# far-field Dirichlet tails and mass matrix
# ---------------------------------------------------------------------------

def _far_tau(x: np.ndarray, disc: Discretization, s: float) -> np.ndarray:
    """tau(x) = int over far-field Dirichlet sides of the kernel, closed form."""
    span_lo, span_hi = disc.span
    tau = np.zeros_like(x)
    if disc.far_label[0] == "D":
        tau += (x - span_lo) ** (-2.0 * s) / (2.0 * s)
    if disc.far_label[1] == "D":
        tau += (span_hi - x) ** (-2.0 * s) / (2.0 * s)
    return tau


def omega_mass(disc: Discretization) -> np.ndarray:
    """M_ij = int_Omega phi_i phi_j over the Omega DOFs (tridiagonal for P1); exact."""
    n = disc.n_interior
    if disc.scheme == "P0":
        return disc.h * np.eye(n)
    T = 4.0 * np.eye(n + 1) + np.eye(n + 1, k=1) + np.eye(n + 1, k=-1)
    T[0, 0] = T[n, n] = 2.0
    return disc.h / 6.0 * T


@dataclass(frozen=True)
class StiffnessSystem:
    """Symmetric nonlocal stiffness over free DOFs in arrow blocks plus the Omega mass.

    K_EE is diagonal (P0) or tridiagonal (P1), so it is stored as a band.
    """

    disc: Discretization
    order: FractionalOrder
    K_II: np.ndarray              # interior x interior, far-field D tails included
    K_IE: np.ndarray              # interior x exterior Neumann
    K_EE: np.ndarray              # (2, n_E) cholesky_banded upper layout
    M_II: np.ndarray              # interior x interior Omega mass
    free_dofs: np.ndarray         # global DOF indices of the free unknowns
    interior_mask: np.ndarray     # within-free boolean
    exterior_mask: np.ndarray     # within-free boolean (exterior Neumann)
    tail_corrections: np.ndarray  # per-free-DOF diagonal far-field-D addition
    dirichlet_row_sums: np.ndarray  # column sums of the constrained row block
    snap_report: tuple

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    def matvec(self, u_free: np.ndarray) -> np.ndarray:
        """K u over the free DOFs."""
        u_I, u_E = u_free[self.interior_mask], u_free[self.exterior_mask]
        out = np.empty(self.n_free)
        out[self.interior_mask] = self.K_II @ u_I + self.K_IE @ u_E
        out[self.exterior_mask] = self.K_IE.T @ u_I + band_matvec(self.K_EE, u_E)
        return out


def assemble(disc: Discretization, order: FractionalOrder,
             entry_tol: float = 1e-8) -> StiffnessSystem:
    """Arrow blocks of K (pairs meeting Q_Omega + Dirichlet tails) and M over free DOFs."""
    if order.dimension != 1:
        raise BadParameters("assembly is 1D")
    if disc.scheme == "P0" and order.s >= 0.5:
        raise IncompatibleScheme("P0 jumps carry infinite energy for s >= 1/2")
    om = disc.omega
    R, ext = _base_arrow(om.a, om.b, disc.h, disc.L, disc.scheme, order.s,
                         order.a_ns, entry_tol)
    omega_dofs = slice(disc.n_collar, disc.n_collar + R.shape[0])
    free = np.where(disc.dof_label < DOF_DIRICHLET)[0]
    interior = disc.dof_label[free] == DOF_INTERIOR
    exterior = disc.dof_label[free] == DOF_NEUMANN
    rows = free[interior] - disc.n_collar
    cols_E = free[exterior]

    # far-field Dirichlet tails a * int_Omega phi_i phi_j tau(x) dx touch
    # Omega DOFs only: add them to the Omega block before the free DOFs are cut
    K_om = R[:, omega_dofs].copy()
    tails_om = np.zeros(R.shape[0])
    if "D" in disc.far_label:
        i0, i1 = disc.interior_cells
        Xg, Wg = quad.gauss_rule(8)
        wtau = Wg * _far_tau(disc.nodes[i0:i1 + 1, None] + disc.h * Xg, disc, order.s)
        e = np.arange(disc.n_interior)
        if disc.scheme == "P0":
            tails_om += order.a_ns * disc.h * wtau.sum(axis=1)
            K_om[e, e] += tails_om
        else:
            lam = np.stack([1.0 - Xg, Xg])
            local = order.a_ns * disc.h * np.einsum("ep,ap,bp->eab", wtau, lam, lam)
            # as cells ascend, a node gets the term of the cell on its left first
            for r, c in ((1, 1), (0, 0), (0, 1)):
                K_om[e + r, e + c] += local[:, r, c]
                if r == c:
                    tails_om[e + r] += local[:, r, r]
                else:
                    K_om[e + c, e + r] += local[:, r, c]
    K_EE = ext[:, cols_E]
    K_EE[0] = np.where(np.diff(cols_E, prepend=-2) == 1, K_EE[0], 0.0)
    # column sums of the Dirichlet-row block, K 1_D by symmetry: the discrete
    # N_s mass on the constrained DOFs, needed by the Gauss-identity diagnostics
    x = (disc.dof_label == DOF_DIRICHLET).astype(float)
    Kx = band_matvec(ext, x) + x[omega_dofs] @ R
    Kx[omega_dofs] = R @ x
    tails = np.zeros(len(free))
    tails[interior] = tails_om[rows]

    block = np.ix_(rows, rows)
    return StiffnessSystem(
        disc=disc, order=order, K_II=K_om[block], K_IE=R[np.ix_(rows, cols_E)],
        K_EE=K_EE, M_II=omega_mass(disc)[block], free_dofs=free,
        interior_mask=interior, exterior_mask=exterior, tail_corrections=tails,
        dirichlet_row_sums=Kx[free], snap_report=disc.snap_report)


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
    if "D" in disc.far_label:
        for e in range(i0, i1 + 1):
            def f(x):
                lam1 = (x - disc.nodes[e]) / disc.h
                if disc.scheme == "P0":
                    ux = np.full_like(x, full_u[e])
                    vx = np.full_like(x, full_v[e])
                else:
                    ux = full_u[e] * (1 - lam1) + full_u[e + 1] * lam1
                    vx = full_v[e] * (1 - lam1) + full_v[e + 1] * lam1
                return ux * vx * _far_tau(x, disc, s)
            total += a * quad.adaptive(f, disc.nodes[e], disc.nodes[e + 1],
                                       rel_tol=1e-11)
    return total
