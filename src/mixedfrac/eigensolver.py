"""Schur elimination of exterior Neumann DOFs and the principal eigenpair.

The stiffness arrives in arrow form: K_EE couples exterior DOFs only through
the Omega-weighted Gram term, so it is a diagonal (P0) or tridiagonal (P1)
band.  The Schur complement K_eff = K_II - K_IE K_EE^{-1} K_EI is one SYRK
K_eff = base + alpha X'X, symmetric by construction, from one of two sets
of operands:

- direct: base = K_II, alpha = -1 and X = U^{-T} K_EI, one banded
  triangular solve with K_EE = U'U (banded Cholesky on the band's true
  width), eliminating the Neumann DOFs N; K_EI is gathered once from its
  runs and solved in place;
- Gram update, when the label-independent base band is diagonal (every P0
  mesh) and the grid has fewer Dirichlet cells D than Neumann ones:
  base = K_II - G_E and alpha = +1 with X = X_D.  G_E = X_E'X_E,
  X_E = diag(ext_E)^{-1/2} R[:, E]', eliminates every exterior grid cell
  E = N + D; it is cached once per mesh, built by chunks of exterior
  columns, and a record only puts its Dirichlet cells back by a rank-|D|
  SYRK on its fresh base.  The two cost the same near |D| = |N|, so a
  Dirichlet-heavy P0 record keeps the direct form.

K_II, G_E and K_eff are dense n_int x n_int; K_IE is never copied: it is
read by runs of columns from the cached base rows (O(n_int * m) memory,
shared by every record of a mesh).  The exterior block K_EE and the Omega
mass M are bands.  The reduced pencil (K_eff, M) is solved by inverse
iteration with a tiny fixed shift and a deterministic all-ones start (the
ground state is positive, so the overlap is guaranteed).  M enters only
through band products and its two diagonals added to a copy of K_eff for
the shifted factorization.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
from scipy.linalg import (LinAlgError, blas, cho_factor, cho_solve, cho_solve_banded,
                          cholesky_banded, lapack)

from .assembly import (DOF_DIRICHLET, StiffnessSystem, _base_arrow, _base_key, assemble,
                       band_matvec, build_mesh, runs)
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
from .nonlocal_ops import DiscreteFunction

ZERO_EIGENVALUE_FLOOR = 1e-9


@dataclass(frozen=True)
class SchurReduction:
    """Reduced interior stiffness with the exterior back-substitution map."""

    K_eff: np.ndarray
    _solve_EE: object             # callable rhs -> K_EE^{-1} rhs
    _K_EI: object                 # callable u_I -> K_EI u_I (StiffnessSystem.K_EI_matvec)

    def back_map(self, u_interior: np.ndarray) -> np.ndarray:
        """Exterior Neumann values -K_EE^{-1} K_EI u_I (discrete reconstruction)."""
        return -self._solve_EE(self._K_EI(u_interior))


def schur_reduce(system: StiffnessSystem) -> SchurReduction:
    """K_eff = base + alpha X'X over interior DOFs by one SYRK (see the module doc)."""
    K_EE = system.K_EE
    if np.any(K_EE[1] <= 0.0):
        raise SingularExteriorBlock("exterior DOF with no interaction with Omega")
    try:                          # on the band's true width: kd = 0 for P0
        U = cholesky_banded(K_EE if np.any(K_EE[0]) else K_EE[1:])
    except (LinAlgError, ValueError) as exc:
        raise SingularExteriorBlock(
            f"exterior Neumann block not positive definite: {exc}") from exc
    K_eff = system.K_II
    if K_EE.shape[1]:             # BLAS/LAPACK with a zero dimension corrupt the heap
        alpha, X, K_eff = _schur_operands(system, U)
        if len(X):            # an all-Neumann P0 grid has no Dirichlet cell to put back
            # the Gram base is fresh, so dsyrk updates it in place; never K_II
            K_eff = blas.dsyrk(alpha, X, beta=1.0, c=K_eff, trans=1,
                               overwrite_c=K_eff is not system.K_II)
            np.copyto(K_eff, K_eff.T, where=np.tri(len(K_eff), k=-1, dtype=bool))
    return SchurReduction(K_eff=K_eff, _solve_EE=partial(cho_solve_banded, (U, False)),
                          _K_EI=system.K_EI_matvec)


_GRAM_LOCK = threading.Lock()     # one G_E build per mesh; never taken under the base lock
_GRAM_CHUNK = 256                 # exterior columns per dsyrk of the G_E build


def _schur_operands(system: StiffnessSystem, U: np.ndarray):
    """(alpha, X, base) of K_eff = base + alpha X'X: the Gram update or the direct form."""
    disc = system.disc
    key = _base_key(disc, system.order)
    R, ext = _base_arrow(*key)
    D = np.flatnonzero(disc.dof_label == DOF_DIRICHLET)
    n_E = system.K_EE.shape[1]
    if np.any(ext[0]) or len(D) >= n_E:
        # K_EI gathered once, in the Fortran order that dtbtrs solves in place
        X = np.empty((n_E, len(system.K_II)), order="F")
        for block, e in system.exterior_blocks():
            X[e] = block.T
        X, info = lapack.dtbtrs(U, X, trans="T", overwrite_b=True)
        if info:
            raise SingularExteriorBlock(f"exterior Neumann solve failed: dtbtrs info {info}")
        return -1.0, X, system.K_II
    with _GRAM_LOCK:
        G_E = _exterior_gram(*key)
    # a diagonal base band is P0's, whose Omega cells are all interior DOFs;
    # K_II - G_E is symmetric, so its transpose is the same matrix in the
    # Fortran order that dsyrk updates in place
    return 1.0, _scaled_columns(R, ext, D).T, (system.K_II - G_E).T


@lru_cache(maxsize=2)
def _exterior_gram(*key) -> np.ndarray:
    """G_E = X_E'X_E over every exterior grid cell E of a diagonal base band; read-only.

    One dsyrk per chunk of _GRAM_CHUNK consecutive exterior cells adds its
    X_c'X_c (beta = 1), with X_c' scaled into one reused buffer: R's
    exterior columns are never copied whole.
    """
    R, ext = _base_arrow(*key)
    n_I = len(R)
    G_E = np.zeros((n_I, n_I), order="F")
    buf = np.empty(n_I * _GRAM_CHUNK)
    root = np.sqrt(ext[1])
    for run in runs(np.flatnonzero(ext[1])):
        for lo in range(run.start, run.stop, _GRAM_CHUNK):
            hi = min(lo + _GRAM_CHUNK, run.stop)
            XT = np.divide(R[:, lo:hi], root[lo:hi], out=buf[:n_I * (hi - lo)].reshape(n_I, -1))
            G_E = blas.dsyrk(1.0, XT.T, beta=1.0, c=G_E, trans=1, overwrite_c=True)
    np.copyto(G_E, G_E.T, where=np.tri(n_I, k=-1, dtype=bool))
    G_E.setflags(write=False)
    return G_E


def _scaled_columns(R: np.ndarray, ext: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """X' = R[:, cells] diag(ext)^{-1/2} in C order, so dsyrk reads X in place.

    Used for the few Dirichlet cells that the Gram update puts back.
    ``np.take`` keeps C order; ``R[:, cells]`` comes back in Fortran order,
    and f2py would copy its transpose.
    """
    XT = np.take(R, cells, axis=1)
    XT /= np.sqrt(ext[1, cells])
    return XT


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray            # M-normalized interior coefficients
    iterations: int
    rq_residual: float
    converged: bool
    flagged_zero: bool


def smallest_eigenpair(K_eff: np.ndarray, M_band: np.ndarray, tol: float = 1e-12,
                       max_iter: int = 500) -> EigenPair:
    """Minimizer of the Rayleigh quotient u'Ku / u'Mu by shifted inverse iteration.

    K_eff is dense and symmetric; M is tridiagonal, given as a (2, n) band in
    cholesky_banded upper layout (``assembly.omega_mass``).  Deterministic
    all-ones start; convergence requires the residual
    |K u - lambda M u| to fall below sqrt(tol) * max(1, lambda) and successive
    Rayleigh quotients to agree within tol * max(lambda, 1e-30), or their
    change to stop shrinking below the roundoff bound eps |u|'|K||u| of u'Ku
    (small lambda, where the first test is out of reach).  Eigenvalues
    below 1e-9 are reported as 0 with a flag (singular D = empty limit).
    """
    n = K_eff.shape[0]
    if n == 0:
        raise BadParameters("empty interior system")
    sigma = 1e-10 * (np.trace(K_eff) / max(M_band[1].sum(), 1e-300))
    sigma = max(sigma, 1e-300)
    # K + sigma M in a Fortran-order copy (K is symmetric, so it is the same
    # matrix) that LAPACK factors in place; it reads the diagonal and above
    A = np.array(K_eff, order="F")
    flat = A.reshape(-1, order="F")
    flat[::n + 1] += sigma * M_band[1]
    flat[n::n + 1] += sigma * M_band[0, 1:]
    try:
        factor = cho_factor(A, overwrite_a=True)
    except LinAlgError as exc:
        raise IndefinitePencil(f"K + sigma M not positive definite: {exc}") from exc

    u = np.ones(n)
    u /= math.sqrt(u @ band_matvec(M_band, u))
    Mu = band_matvec(M_band, u)
    lam_prev = step_prev = lam = residual = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = cho_solve(factor, Mu, check_finite=False)
        mn = math.sqrt(max(w @ band_matvec(M_band, w), 0.0))
        if mn == 0.0 or not math.isfinite(mn):
            raise IndefinitePencil("inverse iteration collapsed")
        u = w / mn
        Ku = K_eff @ u
        Mu = band_matvec(M_band, u)
        lam = float(u @ Ku)
        residual = float(np.linalg.norm(Ku - lam * Mu))
        step = abs(lam - lam_prev)
        if residual <= math.sqrt(tol) * max(1.0, abs(lam)) and (
                step <= tol * max(abs(lam), 1e-30) or step_prev <= step <= _roundoff(K_eff, u)):
            converged = True
            break
        lam_prev, step_prev = lam, step
    if lam < -math.sqrt(np.finfo(float).eps):
        raise IndefinitePencil(f"negative Rayleigh quotient {lam}")
    flagged_zero = lam < ZERO_EIGENVALUE_FLOOR
    return EigenPair(value=0.0 if flagged_zero else lam, vector=u,
                     iterations=iterations, rq_residual=residual,
                     converged=converged, flagged_zero=flagged_zero)


def _roundoff(K: np.ndarray, u: np.ndarray) -> float:
    """eps |u|'|K||u|: the rounding bound of the float u'Ku."""
    a = np.abs(u)
    return np.finfo(float).eps * float(a @ np.abs(K) @ a)


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
    """Principal eigenvalue with its eigenfunction over the free DOFs."""

    lambda1: float
    u: DiscreteFunction           # interior eigenvector, exterior from back_map
    iterations: int
    rq_residual: float
    normalization: float          # int_Omega u^2 (must be 1)
    converged: bool
    flagged_zero: bool
    diagnostics: dict = field(default_factory=dict)


def solve_mixed(omega: Domain1D, partition: ExteriorPartition, order: FractionalOrder,
                disc: DiscParams, solver: SolverParams = SolverParams(),
                with_diagnostics: bool = True) -> EigenResult:
    """build_mesh -> assemble -> schur_reduce -> smallest_eigenpair -> back_map.

    Across a family sweep the label-independent stiffness base is cached by
    ``assemble``.  The eigenfunction is sign-fixed (nonnegative mean) and
    L^2(Omega)-normalized; its exterior Neumann values are the discrete
    kernel average of the interior values (one back-substitution).
    """
    mesh = build_mesh(omega, partition, disc.h, disc.L, disc.scheme, order=order)
    system = assemble(mesh, order)
    red = schur_reduce(system)
    M = system.M_II
    pair = smallest_eigenpair(red.K_eff, M, tol=solver.tol, max_iter=solver.max_iter)
    u_I = pair.vector
    Mu = band_matvec(M, u_I)
    if float(np.sum(Mu)) < 0:
        u_I, Mu = -u_I, -Mu
    values = np.empty(system.n_free)
    values[system.interior_mask] = u_I
    values[system.exterior_mask] = red.back_map(u_I)
    diagnostics = {}
    if with_diagnostics:
        from .nonlocal_ops import gauss_residual
        diagnostics["gauss_residual"] = gauss_residual(system, values)
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
    return EigenResult(lambda1=pair.value, u=DiscreteFunction(system, values),
                       iterations=pair.iterations, rq_residual=pair.rq_residual,
                       normalization=float(u_I @ Mu), converged=pair.converged,
                       flagged_zero=pair.flagged_zero, diagnostics=diagnostics)


def full_dirichlet_partition(omega: Domain1D) -> ExteriorPartition:
    """D = Omega^c, N = empty: the Dirichlet baseline configuration."""
    d = _complement_in_exterior(omega, ExteriorSet())
    return ExteriorPartition(omega=omega, dirichlet=d, neumann=ExteriorSet())


def dirichlet_baseline(omega: Domain1D, order: FractionalOrder, disc: DiscParams,
                       solver: SolverParams = SolverParams()) -> EigenResult:
    """Principal eigenvalue with Dirichlet data on the whole exterior."""
    return solve_mixed(omega, full_dirichlet_partition(omega), order, disc, solver,
                       with_diagnostics=False)


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
