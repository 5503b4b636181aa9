"""Verification calculus on discrete solutions.

Pointwise nonlocal normal derivative, exterior reconstruction from interior
data (per-element kernel moments from fracops, so far-field points need no
mesh), Gauss / integration-by-parts residuals at the matrix level, the
eigenfunction potential and its integrability table, far-field asymptotics,
and the 2D scaling oracle for the ball-near-hyperplane distance integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from . import quadrature as quad
from .assembly import Discretization, StiffnessSystem, band_matvec
from .errors import BadParameters, DivergentIntegral, OnBoundary
from .fracops import cell_moments, interval_mass, tail_mass


@dataclass(frozen=True)
class DiscreteFunction:
    """Coefficients over the free DOFs of an assembled system.

    Dirichlet DOFs are implicitly zero.  P1 coefficients are nodal values,
    P0 coefficients are cell values.
    """

    system: StiffnessSystem
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.system.n_free:
            raise BadParameters(
                f"expected {self.system.n_free} coefficients, got {len(self.values)}")

    @property
    def disc(self) -> Discretization:
        return self.system.disc

    def full_dofs(self) -> np.ndarray:
        out = np.zeros(self.disc.n_dofs)
        out[self.system.free_dofs] = self.values
        return out

    def omega_mean(self) -> float:
        """(1/|Omega|) int_Omega u, exact for the FEM representation."""
        disc = self.disc
        full = self.full_dofs()
        i0, i1 = disc.interior_cells
        if disc.scheme == "P0":
            total = disc.h * full[i0:i1 + 1].sum()
        else:
            vals = full[i0:i1 + 2]
            total = disc.h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
        return total / disc.omega.length

    def __call__(self, x: float) -> float:
        """FEM value at x; Dirichlet regions give 0, beyond the grid the
        far-field label decides (0 on the D side, reconstruction on N)."""
        disc = self.disc
        lo, hi = disc.span
        if x < lo or x > hi:
            side = 0 if x < lo else 1
            if disc.far_label[side] == "D":
                return 0.0
            return neumann_value(self, x)
        full = self.full_dofs()
        if disc.scheme == "P0":
            j = min(int((x - lo) / disc.h), disc.n_cells - 1)
            return float(full[j])
        t = (x - lo) / disc.h
        j = min(int(t), disc.n_cells - 1)
        w = t - j
        return float((1.0 - w) * full[j] + w * full[j + 1])


def _potential_and_mass(fn: DiscreteFunction, x, s: float):
    """(int_Omega u(y) k(x, y) dy, int_Omega k(x, y) dy) from interior data.

    x may be an array of exterior points on either side of Omega; each
    element's kernel moments come from ``cell_moments``.
    """
    disc = fn.disc
    full = fn.full_dofs()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mass = interval_mass(x, [disc.omega.interval], 2.0 * s)
    i0, i1 = disc.interior_cells
    e_lo, e_hi = disc.nodes[i0:i1 + 1], disc.nodes[i0 + 1:i1 + 2]
    right = x[:, None] >= e_hi
    cell, near, far = cell_moments(np.where(right, x[:, None] - e_hi, e_lo - x[:, None]),
                                   disc.h, s)
    if disc.scheme == "P0":
        return cell @ full[i0:i1 + 1], mass
    # the element's left node is its near end when x lies to its left
    pot = (np.where(right, far, near) @ full[i0:i1 + 1]
           + np.where(right, near, far) @ full[i0 + 1:i1 + 2])
    return pot, mass


def neumann_value(fn: DiscreteFunction, x) -> float | np.ndarray:
    """Harmonic reconstruction int_Omega u k(x,.) / int_Omega k(x,.) at exterior x."""
    s = fn.system.order.s
    pot, mass = _potential_and_mass(fn, x, s)
    out = pot / mass
    return float(out[0]) if np.isscalar(x) else out


def nonlocal_normal(fn: DiscreteFunction, x: float) -> float:
    """a_{N,s} int_Omega (u(x) - u(y)) k(x, y) dy with u(x) read from the FEM
    representation (pointwise; see neumann_cell_residuals for the discrete
    optimality statement on Neumann cells)."""
    disc = fn.disc
    if disc.omega.a <= x <= disc.omega.b:
        raise OnBoundary(f"x = {x} lies in the closure of Omega")
    s = fn.system.order.s
    pot, mass = _potential_and_mass(fn, x, s)
    return fn.system.order.a_ns * (fn(x) * float(mass[0]) - float(pot[0]))


def neumann_cell_residuals(system: StiffnessSystem, u_free: np.ndarray):
    """Cell-averaged discrete N_s residual on exterior Neumann DOFs.

    Rows of K u on the exterior block vanish at the Schur optimum; returned
    both raw and relative to the row scale |K| |u|.
    """
    rows = system.matvec(u_free)[system.exterior_mask]
    scale = (np.abs(system.K_IE).T @ np.abs(u_free[system.interior_mask])
             + band_matvec(np.abs(system.K_EE), np.abs(u_free[system.exterior_mask])))
    return rows, rows / np.maximum(scale, 1e-300)


def gauss_residual(system: StiffnessSystem, u_free: np.ndarray) -> float:
    """|int_Omega (-Lap)^s u + int_{Omega^c} N_s u|, summed over row blocks.

    The interior rows of K u are the weak (-Lap)^s mass, the exterior Neumann
    rows the N_s mass there, and the constrained-row block (precomputed
    column sums) the N_s mass on the Dirichlet set; only the far-field
    Dirichlet tail escapes the sum, bounded by tail_mass(L) |u|_inf.
    """
    return abs(float(np.sum(system.matvec(u_free)))
               + float(system.dirichlet_row_sums @ u_free))


def gauss_residual_relative(system: StiffnessSystem, u_free: np.ndarray) -> float:
    Ku = system.matvec(u_free)
    total = abs(float(np.sum(Ku)) + float(system.dirichlet_row_sums @ u_free))
    return total / max(float(np.linalg.norm(Ku)), 1e-300)


def gauss_tail_bound(system: StiffnessSystem, u_free: np.ndarray) -> float:
    """Far-field-Dirichlet bound tail_mass(L) * |u|_inf for the Gauss defect."""
    return tail_mass(system.disc.L, system.order) * float(np.max(np.abs(u_free)))


def parts_residual(system: StiffnessSystem, u_free: np.ndarray,
                   v_free: np.ndarray) -> float:
    """|bilinear(u, v) - sum over row blocks of v (K u)|, an exact matrix identity."""
    Ku = system.matvec(u_free)
    bilinear = float(u_free @ system.matvec(v_free))
    blocks = float(v_free[system.interior_mask] @ Ku[system.interior_mask]
                   + v_free[system.exterior_mask] @ Ku[system.exterior_mask])
    return abs(bilinear - blocks)


def parts_residual_relative(system: StiffnessSystem, u_free, v_free) -> float:
    scale = max(abs(float(u_free @ system.matvec(v_free))), 1e-300)
    return parts_residual(system, u_free, v_free) / scale


@dataclass(frozen=True)
class FarfieldReport:
    points: np.ndarray
    values: np.ndarray            # |u(x) - mean|
    slope: float
    intercept: float
    degenerate: bool


def farfield_rate(fn: DiscreteFunction, points) -> FarfieldReport:
    """Deviation |u(x) - mean_Omega u| at far points and its log-log slope.

    The reconstruction formula is evaluated in closed form (no mesh out
    there); constant solutions are flagged degenerate instead of fitted.
    """
    pts = np.asarray(points, dtype=float)
    mean = fn.omega_mean()
    vals = np.abs(neumann_value(fn, pts) - mean)
    scale = max(abs(mean), float(np.max(np.abs(fn.values))), 1e-300)
    if np.max(vals) <= 1e-10 * scale:
        return FarfieldReport(points=pts, values=vals, slope=math.nan,
                              intercept=math.nan, degenerate=True)
    slope, intercept = np.polyfit(np.log(np.abs(pts)), np.log(vals), 1)
    return FarfieldReport(points=pts, values=vals, slope=float(slope),
                          intercept=float(intercept), degenerate=False)


def phi_potential(fn: DiscreteFunction, x) -> float | np.ndarray:
    """Phi(x) = int_Omega phi1(y) |x-y|^(-(1+2s)) dy for the Dirichlet
    eigenfunction phi1 (no normalization constant)."""
    pot, _ = _potential_and_mass(fn, x, fn.system.order.s)
    return float(pot[0]) if np.isscalar(x) else pot


@dataclass(frozen=True)
class IntegrabilityRow:
    R: float
    integral: float
    tail_bound: float


@dataclass(frozen=True)
class IntegrabilityTable:
    rows: tuple
    cauchy: bool                  # increments dominated by the analytic tail


def phi_integrability(fn: DiscreteFunction, R_list, tol: float = 1e-8) -> IntegrabilityTable:
    """int_{Omega^c cap B_R} Phi for increasing R, with the analytic tail bound.

    Phi decays like |x|^(-(1+2s)) far out, so the table must be Cauchy within
    tail(R) = |phi1|_{L1} * tail_mass(R - max|boundary|).
    """
    disc = fn.disc
    om = disc.omega
    s = fn.system.order.s
    c = max(abs(om.a), abs(om.b))
    phi_l1 = fn.omega_mean() * om.length   # phi1 >= 0
    R_list = sorted(float(R) for R in R_list)
    if R_list[0] <= c:
        raise BadParameters("R values must exceed the extent of Omega")

    def phi_arr(x):
        return phi_potential(fn, np.asarray(x, dtype=float))

    p_edge = min(0.0, 1.0 - 2 * s)
    rows = []
    for R in R_list:
        left = quad.adaptive_power(phi_arr, -R, om.a, rel_tol=tol,
                                   p_right=p_edge, abs_floor=1e-14)
        right = quad.adaptive_power(phi_arr, om.b, R, rel_tol=tol,
                                    p_left=p_edge, abs_floor=1e-14)
        tail = phi_l1 * tail_mass(R - c, fn.system.order)
        rows.append(IntegrabilityRow(R=R, integral=left + right, tail_bound=tail))
    cauchy = all(
        -1e-12 <= rows[j + 1].integral - rows[j].integral
        <= rows[j].tail_bound * (1.0 + 1e-6)
        for j in range(len(rows) - 1))
    return IntegrabilityTable(rows=tuple(rows), cauchy=cauchy)


def e_of_r(r: float, s: float, dimension: int = 2, tol: float = 1e-8) -> float:
    """int over the ball of radius r tangent to a hyperplane of dist^(-2s).

    Reduced to the 1D profile integral int_0^{2r} x^(-2s) |slice(x)| dx with
    |slice| the (N-1)-ball volume of radius sqrt(2 r x - x^2); finite iff
    s < (N+1)/4 (endpoint exponent test), else DivergentIntegral.
    """
    if not (0.0 < r <= 0.25):
        raise BadParameters("r must lie in (0, 1/4]")
    if not (0.0 < s < 1.0):
        raise BadParameters("s must lie in (0, 1)")
    if dimension < 2:
        raise BadParameters("the scaling oracle needs dimension >= 2")
    if s >= (dimension + 1) / 4.0:
        raise DivergentIntegral(
            f"profile exponent (N-1)/2 - 2s <= -1 at s = {s}, N = {dimension}")
    n1 = dimension - 1
    v_ball = math.pi ** (n1 / 2.0) / _gamma(n1 / 2.0 + 1.0)

    def profile(x):
        return v_ball * x ** (-2.0 * s) * (2.0 * r * x - x * x) ** (n1 / 2.0)

    return quad.adaptive_power(profile, 0.0, 2.0 * r, rel_tol=tol,
                               p_left=n1 / 2.0 - 2 * s, p_right=n1 / 2.0)
