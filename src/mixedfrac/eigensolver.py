"""Schur elimination of exterior Neumann DOFs and the principal eigenpair.

The stiffness arrives in arrow form: K_EE couples exterior DOFs only through
the Omega-weighted Gram term, so it is a diagonal (P0) or tridiagonal (P1)
band, eliminated by a banded Cholesky solve, and only K_II, K_IE and K_eff
are dense (O(n_int * m) memory).  The reduced symmetric-definite pencil
(K_eff, M) is solved by inverse iteration with a tiny fixed shift and a
deterministic all-ones start (the ground state is positive, so the overlap
is guaranteed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg import (
    LinAlgError,
    cho_factor,
    cho_solve,
    cho_solve_banded,
    cholesky_banded,
)

from .assembly import StiffnessSystem, assemble, build_mesh
from .errors import BadParameters, IndefinitePencil, SingularExteriorBlock
from .fracops import FractionalOrder
from .geometry import (
    Domain1D,
    ExteriorPartition,
    ExteriorSet,
    _complement_in_exterior,
    condition_C,
    measure_in_ball,
    separation,
)

ZERO_EIGENVALUE_FLOOR = 1e-9


@dataclass(frozen=True)
class SchurReduction:
    """Reduced interior pencil with the exterior back-substitution map."""

    K_eff: np.ndarray
    M_int: np.ndarray
    interior_idx: np.ndarray      # positions within the free DOF vector
    exterior_idx: np.ndarray
    _solve_EE: object             # callable rhs -> K_EE^{-1} rhs
    K_IE: np.ndarray

    def back_map(self, u_interior: np.ndarray) -> np.ndarray:
        """Exterior Neumann values -K_EE^{-1} K_EI u_I (discrete reconstruction)."""
        return -self._solve_EE(self.K_IE.T @ u_interior)

    def full_vector(self, u_interior: np.ndarray) -> np.ndarray:
        out = np.zeros(len(self.interior_idx) + len(self.exterior_idx))
        out[self.interior_idx] = u_interior
        out[self.exterior_idx] = self.back_map(u_interior)
        return out


def schur_reduce(system: StiffnessSystem) -> SchurReduction:
    """K_eff = K_II - K_IE K_EE^{-1} K_EI over interior DOFs, symmetric PSD."""
    iI = np.where(system.interior_mask)[0]
    iE = np.where(system.exterior_mask)[0]
    K_IE, K_EE = system.K_IE, system.K_EE
    if np.any(K_EE[1] <= 0.0):
        raise SingularExteriorBlock("exterior DOF with no interaction with Omega")
    try:
        solve_EE = partial(cho_solve_banded, (cholesky_banded(K_EE), False))
    except (LinAlgError, ValueError) as exc:
        raise SingularExteriorBlock(
            f"exterior Neumann block not positive definite: {exc}") from exc
    K_eff = system.K_II - K_IE @ solve_EE(K_IE.T)
    K_eff = 0.5 * (K_eff + K_eff.T)
    return SchurReduction(K_eff=K_eff, M_int=system.M_II, interior_idx=iI,
                          exterior_idx=iE, _solve_EE=solve_EE, K_IE=K_IE)


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray            # M-normalized interior coefficients
    iterations: int
    rq_residual: float
    converged: bool
    flagged_zero: bool


def smallest_eigenpair(K_eff: np.ndarray, M_int: np.ndarray, tol: float = 1e-12,
                       max_iter: int = 500) -> EigenPair:
    """Minimizer of the Rayleigh quotient u'Ku / u'Mu by shifted inverse iteration.

    Deterministic all-ones start; convergence requires the residual
    |K u - lambda M u| to fall below sqrt(tol) * max(1, lambda) and successive
    Rayleigh quotients to agree within tol * max(lambda, 1e-30), or their
    change to stop shrinking below the roundoff bound eps |u|'|K||u| of u'Ku
    (small lambda, where the first test is out of reach).  Eigenvalues
    below 1e-9 are reported as 0 with a flag (singular D = empty limit).
    """
    n = K_eff.shape[0]
    if n == 0:
        raise BadParameters("empty interior system")
    sigma = 1e-10 * (np.trace(K_eff) / max(np.trace(M_int), 1e-300))
    sigma = max(sigma, 1e-300)
    try:
        factor = cho_factor(K_eff + sigma * M_int)
    except LinAlgError as exc:
        raise IndefinitePencil(f"K + sigma M not positive definite: {exc}") from exc

    u = np.ones(n)
    u /= math.sqrt(u @ (M_int @ u))
    lam_prev = step_prev = lam = residual = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = cho_solve(factor, M_int @ u)
        mn = math.sqrt(max(w @ (M_int @ w), 0.0))
        if mn == 0.0 or not math.isfinite(mn):
            raise IndefinitePencil("inverse iteration collapsed")
        u = w / mn
        Ku = K_eff @ u
        lam = float(u @ Ku)
        residual = float(np.linalg.norm(Ku - lam * (M_int @ u)))
        step = abs(lam - lam_prev)
        noise = np.finfo(float).eps * float(np.abs(u) @ np.abs(K_eff) @ np.abs(u))
        if residual <= math.sqrt(tol) * max(1.0, abs(lam)) and (
                step <= tol * max(abs(lam), 1e-30) or step_prev <= step <= noise):
            converged = True
            break
        lam_prev, step_prev = lam, step
    if lam < -math.sqrt(np.finfo(float).eps):
        raise IndefinitePencil(f"negative Rayleigh quotient {lam}")
    flagged_zero = lam < ZERO_EIGENVALUE_FLOOR
    return EigenPair(value=0.0 if flagged_zero else lam, vector=u,
                     iterations=iterations, rq_residual=residual,
                     converged=converged, flagged_zero=flagged_zero)


@dataclass(frozen=True)
class DiscParams:
    h: float
    L: float
    scheme: str = "P1"


@dataclass(frozen=True)
class SolverParams:
    tol: float = 1e-12
    max_iter: int = 500


@dataclass(frozen=True)
class EigenResult:
    """Principal eigenvalue with interior/exterior eigenfunction values."""

    lambda1: float
    u_interior: np.ndarray
    u_exterior: np.ndarray        # reconstructed Neumann values
    iterations: int
    rq_residual: float
    normalization: float          # int_Omega u^2 (must be 1)
    converged: bool
    flagged_zero: bool
    system: StiffnessSystem
    reduction: SchurReduction
    diagnostics: dict = field(default_factory=dict)

    @property
    def u_free(self) -> np.ndarray:
        return self.reduction.full_vector(self.u_interior)


def solve_mixed(omega: Domain1D, partition: ExteriorPartition, order: FractionalOrder,
                disc: DiscParams, solver: SolverParams = SolverParams(),
                system: StiffnessSystem | None = None,
                with_diagnostics: bool = True) -> EigenResult:
    """build_mesh -> assemble -> schur_reduce -> smallest_eigenpair -> back_map.

    A pre-assembled ``system`` for the same mesh may be passed to reuse the
    stiffness across a family sweep.  The eigenfunction is sign-fixed
    (nonnegative mean) and L^2(Omega)-normalized.
    """
    if system is None:
        mesh = build_mesh(omega, partition, disc.h, disc.L, disc.scheme, order=order)
        system = assemble(mesh, order)
    red = schur_reduce(system)
    pair = smallest_eigenpair(red.K_eff, red.M_int, tol=solver.tol,
                              max_iter=solver.max_iter)
    u = pair.vector
    mean = float(np.sum(red.M_int @ u))
    if mean < 0:
        u = -u
    u_ext = red.back_map(u)
    normalization = float(u @ (red.M_int @ u))
    diagnostics = {}
    if with_diagnostics:
        from .nonlocal_ops import gauss_residual
        diagnostics["gauss_residual"] = gauss_residual(system, red.full_vector(u))
        diagnostics["separation_D"] = (
            separation(partition.dirichlet, omega)
            if not partition.dirichlet.empty else math.inf)
        diagnostics["condition_C"] = (
            condition_C(partition.dirichlet, omega, order)
            if not partition.dirichlet.empty else 0.0)
        for label, eset in (("N", partition.neumann), ("D", partition.dirichlet)):
            for mult in (2.0, 8.0):
                R = mult * omega.length
                diagnostics[f"measure_{label}_R{mult:g}"] = measure_in_ball(eset, R)
    return EigenResult(lambda1=pair.value, u_interior=u, u_exterior=u_ext,
                       iterations=pair.iterations, rq_residual=pair.rq_residual,
                       normalization=normalization, converged=pair.converged,
                       flagged_zero=pair.flagged_zero, system=system, reduction=red,
                       diagnostics=diagnostics)


def full_dirichlet_partition(omega: Domain1D) -> ExteriorPartition:
    """D = Omega^c, N = empty: the Dirichlet baseline configuration."""
    d = _complement_in_exterior(omega, ExteriorSet())
    return ExteriorPartition(omega=omega, dirichlet=d, neumann=ExteriorSet())


def dirichlet_baseline(omega: Domain1D, order: FractionalOrder, disc: DiscParams,
                       solver: SolverParams = SolverParams(),
                       system: StiffnessSystem | None = None) -> EigenResult:
    """Principal eigenvalue with Dirichlet data on the whole exterior."""
    return solve_mixed(omega, full_dirichlet_partition(omega), order, disc, solver,
                       system=system, with_diagnostics=False)


def richardson_extrapolate(h_values, lam_values) -> tuple[float, float]:
    """(limit, rate) from three geometrically refined mesh sizes.

    Fits lambda(h) = lambda* + C h^p through the three points; requires a
    constant refinement ratio.
    """
    h1, h2, h3 = (float(x) for x in h_values)
    l1, l2, l3 = (float(x) for x in lam_values)
    rho = h1 / h2
    if abs(h2 / h3 - rho) > 1e-9 * rho:
        raise BadParameters("richardson_extrapolate needs a constant ratio")
    d1, d2 = l2 - l1, l3 - l2
    if d1 == 0.0 or d2 == 0.0 or d1 * d2 < 0:
        return l3, math.nan
    p = math.log(abs(d1) / abs(d2)) / math.log(rho)
    limit = l3 + d2 / (rho ** p - 1.0)
    return limit, p
