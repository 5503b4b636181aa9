"""Schur elimination of exterior Neumann DOFs and the principal eigenpair.

The stiffness arrives in arrow form: K_EE couples exterior DOFs only through
the Omega-weighted Gram term, so it is a diagonal (P0) or tridiagonal (P1)
band.  The Schur complement K_eff = K_II - K_IE K_EE^{-1} K_EI is
K_eff = base + alpha X'X, with X of r rows, from one of three sets of
operands, named by ``SchurReduction.form``:

- direct: base = K_II, alpha = -1 and X = U^{-T} K_EI, one banded
  triangular solve with K_EE = U'U (banded Cholesky on the band's true
  width), eliminating the Neumann DOFs N; K_EI is gathered once from its
  runs (``StiffnessSystem.columns``) and solved in place, on P1
  division-free (``_half_solve``);
- Gram update ("gram"), on P0 meshes, whose exterior block is diagonal,
  when the grid has fewer Dirichlet cells D than Neumann ones: base = K_II
  - G_E and alpha = +1 with X = X_D.  G_E = X_E'X_E, X_E = diag(mass_E)^{-1/2}
  R[:, E]' (R the Toeplitz Omega rows, mass_E the Omega mass), eliminates
  every exterior grid cell E = N + D; it is built with the base's factor,
  from the Omega rows (every Omega cell of a P0 mesh is interior), whose
  columns are views of the line (``StiffnessSystem.column_view``): by
  chunks of the left collar's cells, each column and its mirror image
  split into an even and an odd part, each summed over half the interior
  rows (``_exterior_gram``).  A record only puts its Dirichlet cells back:
  X_D's rows are its runs' column views, scaled by the collars' cached
  bands.  The two cost the same near |D| = |N|, so
  a Dirichlet-heavy P0 record keeps the direct form;
- collar Gram update ("collar_gram"), on P1 meshes of either assembly
  path whose Neumann DOFs on each collar are none, all, or one run from
  the grid end (a Neumann half-line), when it has fewer rows than the
  direct form.  The two collars are decoupled, so K_EE is one tridiagonal
  block per collar, cut from the collar's label-independent band
  (``assembly.exterior_band``), the band that ``assemble`` cuts every
  record's K_EE from; the form has no branch of its own for either path.
  Ordered from the grid end inward, such a run is the leading block of its
  collar's, whose Cholesky factor is the leading block of the collar's
  U_c; so the collar's half-solve X_c = U_c^{-T} K_{c,I}, gathered whole
  and solved in place once per (``system.key``, collar), and kept in
  ``assembly``'s store, holds the run's half-solve as its first n rows.
  Then base = K_II - sum G_c over the record's Neumann collars, G_c =
  X_c'X_c, alpha = +1 and X = X_c[n:], copied into C order.
  Every other P1 record keeps the direct form: no record mixes a collar's
  cached rows with a solve of its own.

A sweep moves D and N over one mesh, so most records are a rank-r change of
one base.  When 2r <= n_I the record is low-rank: it keeps (base, alpha, X)
and never forms K_eff.  Its base and the upper Cholesky factor U of
base + sigma M are kept in ``assembly``'s store under (``system.key``,
Gram terms), the key that ``assemble`` cached K_II under and what the
base subtracts from K_II.  The direct forms' base is a read-only view of
K_II, which ``assemble`` shares among the records of that key.  The Dirichlet baseline
is the r = 0 record of the direct form, so on a Dirichlet-sea sweep it
fills the factor that every record reuses.  Each record then pays rank-r
work for its shifted solves (Sherman-Morrison-Woodbury): Y = U^{-T} X' by
one dtrsm (n^2 r flops), the capacitance C = I + alpha Y'Y by one dsyrk
(n r^2) and its Cholesky (r^3 / 3), against n^2 r for the SYRK of K_eff
and n^3 / 3 for its Cholesky.  The two meet near r = 0.53 n, hence the
rule 2r <= n_I.  A record with 2r > n_I is dense: the SYRK K_eff = base +
alpha X'X, its upper triangle mirrored, is the base of an uncached factor,
with X empty.  So one solve path (``_woodbury``) serves every record and
every matrix handed to ``smallest_eigenpair``; K_eff u is one dsymv on the
base's upper triangle plus rank-r work.

K_II, G_E and K_eff are dense n_int x n_int; K_IE is never copied: the
system reads it whole, by runs of columns, from a view of the Toeplitz
line on the closed-form path (every P0 mesh and every P1 mesh with
Dirichlet Omega end nodes, O(m) memory), whose products are convolutions
(``StiffnessSystem.K_EI_matvec``), with a free grid-end node's column
carried apart (``StiffnessSystem.end_columns``), or from the cached P1
arrow base rows of a mesh with a free Omega end node (O(n_int * m)
memory, shared by every record of a mesh).  This module gathers it only
through ``StiffnessSystem.columns`` and ``column_view``.
The exterior block K_EE and the Omega mass M are bands.  The reduced pencil
(K_eff, M) is solved by shift-invert Lanczos on the factor of K_eff + sigma M,
sigma tiny and fixed, from the all-ones start (the ground state is positive,
so the overlap is guaranteed).  A step is one shifted solve; K_eff itself is
applied only to a Ritz vector, whose Kato-Temple term decides the stop.  M
enters through band products, its banded Cholesky for the M^-1 norm of a
residual, and its two diagonals added to a copy of the base for the shifted
factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg import (LinAlgError, blas, cho_factor, cho_solve_banded, cholesky_banded,
                          lapack)

from .assembly import (DOF_DIRICHLET, Discretization, StiffnessSystem, _cached, assemble,
                       band_matvec, build_mesh, exterior_band, runs)
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
class BaseFactor:
    """A cached base of K_eff = base + alpha X'X and the factor of its shifted pencil."""

    base: np.ndarray              # read-only, symmetric; the direct form's is K_II's view
    U: np.ndarray                 # base + sigma M = U'U, Fortran order; its upper triangle
    sigma: float                  # the shift that U factors


@dataclass(frozen=True)
class SchurReduction:
    """K_eff = factor.base + alpha X'X with the exterior back-substitution map.

    A low-rank record keeps X (2r <= n_I) and the cached factor of its base;
    a dense record has an empty X and a factor of its own K_eff.
    """

    _solve_EE: object             # callable rhs -> K_EE^{-1} rhs
    _K_EI: object                 # callable u_I -> K_EI u_I (StiffnessSystem.K_EI_matvec)
    X: np.ndarray                 # (r, n_I)
    factor: BaseFactor | None     # None only when n_I = 0
    alpha: float = 0.0
    form: str = "direct"          # "direct" | "gram" | "collar_gram"

    def back_map(self, u_interior: np.ndarray) -> np.ndarray:
        """Exterior Neumann values -K_EE^{-1} K_EI u_I (discrete reconstruction)."""
        return -self._solve_EE(self._K_EI(u_interior))

    def dense(self) -> np.ndarray:
        """K_eff, formed on demand by the dense path's SYRK."""
        if not len(self.X):
            return self.factor.base.copy(order="K")
        return _syrk(self.alpha, self.X, self.factor.base)


def schur_reduce(system: StiffnessSystem) -> SchurReduction:
    """K_eff = base + alpha X'X over interior DOFs, kept low-rank when 2r <= n_I.

    See the module doc for the forms and the dense records.
    """
    K_EE = system.K_EE
    if np.any(K_EE[1] <= 0.0):
        raise SingularExteriorBlock("exterior DOF with no interaction with Omega")
    U = _band_cholesky(K_EE, "exterior Neumann block")
    n_I = len(system.K_II)
    pieces = dict(_solve_EE=partial(cho_solve_banded, (U, False)),
                  _K_EI=system.K_EI_matvec)
    if not n_I:                   # smallest_eigenpair rejects the empty system
        return SchurReduction(X=np.empty((0, 0)), factor=None, **pieces)
    # BLAS/LAPACK with a zero dimension corrupt the heap: no exterior, no solve
    form, grams, alpha, X = (_schur_operands(system, U) if K_EE.shape[1]
                             else ("direct", (), -1.0, np.empty((0, n_I))))
    pieces["form"] = form
    if 2 * len(X) <= n_I:
        return SchurReduction(alpha=alpha, X=X, factor=_base_factor(system, grams), **pieces)
    base = _base_factor(system, grams).base if grams else system.K_II
    return SchurReduction(X=X[:0], factor=_factor(_syrk(alpha, X, base), system.M_II),
                          **pieces)


def _band_cholesky(band: np.ndarray, what: str) -> np.ndarray:
    """The upper banded Cholesky factor of a positive definite band, on its true width
    (kd = 0 for P0's diagonal block)."""
    try:
        return cholesky_banded(band if np.any(band[0]) else band[1:])
    except (LinAlgError, ValueError) as exc:
        raise SingularExteriorBlock(f"{what} not positive definite: {exc}") from exc


def _half_solve(U: np.ndarray, B: np.ndarray, what: str) -> np.ndarray:
    """U^{-T} B, in place on B (Fortran order), U a ``_band_cholesky`` factor.

    U = diag(d) Ubar, Ubar unit upper banded.  A bidiagonal U (P1) has
    l_j = Ubar[j-1, j] = U[j-1, j] / U[j-1, j-1]: one dtbtrs of
    Ubar^T Y = B, each step of its recurrence one multiply-add with no
    division.  A diagonal U (P0) has Ubar = I and Y = B.  Then X = Y / d,
    row by row, off the recurrence: one division per element.
    """
    d = U[-1]
    if len(U) > 1:
        unit = np.stack([np.r_[0.0, U[0, 1:] / d[:-1]], d])     # its diagonal is not read
        B, info = lapack.dtbtrs(unit, B, trans="T", diag="U", overwrite_b=True)
        if info:
            raise SingularExteriorBlock(f"{what} failed: dtbtrs info {info}")
    B /= d[:, None]
    return B


def _syrk(alpha: float, X: np.ndarray, base: np.ndarray) -> np.ndarray:
    """base + alpha X'X by one dsyrk into a copy, its upper triangle mirrored.

    X is read in place: as it is in Fortran order, as X' in C order.
    """
    if X.flags.f_contiguous:
        K = blas.dsyrk(alpha, X, beta=1.0, c=base, trans=1)
    else:
        K = blas.dsyrk(alpha, X.T, beta=1.0, c=base, trans=0)
    np.copyto(K, K.T, where=np.tri(len(K), k=-1, dtype=bool))
    return K


_GRAM_CHUNK = 256                 # exterior columns per dsyrk of the G_E build


def _schur_operands(system: StiffnessSystem, U: np.ndarray):
    """(form, grams, alpha, X) of K_eff = base + alpha X'X, base = K_II less the Gram
    terms named by ``grams``: one of the two Gram updates or the direct form.

    A P1 record whose collar runs start at the grid end takes the collar
    Gram update when it has fewer rows; P0's Gram update needs a
    diagonal exterior block over every grid cell, which only P0 meshes have.
    Every other record is direct.
    """
    anchored = _collar_runs(system)
    if anchored is not None:
        sides = tuple(side for side in _COLLARS if anchored[side])
        # X_c[n:], the rows of each Neumann collar's Dirichlet nodes, copied in C order
        rows = [_collar_solve(system, side)[anchored[side]:] for side in sides]
        X = np.empty((sum(map(len, rows)), len(system.K_II)))
        return "collar_gram", sides, 1.0, np.concatenate(rows, out=X)
    disc = system.disc
    D = np.flatnonzero(disc.dof_label == DOF_DIRICHLET)
    n_E = system.K_EE.shape[1]
    if disc.scheme == "P1" or len(D) >= n_E:
        # K_EI gathered once, in the Fortran order that dtbtrs solves in place
        X = np.empty((n_E, len(system.K_II)), order="F")
        for run, e in system.runs_E:
            system.columns(run, X[e])
        return "direct", (), -1.0, _half_solve(U, X, "exterior Neumann solve")
    # X_D row by row, each an exterior column over the root of its cell's Omega
    # mass; C order, so X' is the Fortran-order operand of dtrsm
    X = np.empty((len(D), len(system.K_II)))
    for run, e in runs(D):
        side = "left" if run.stop <= disc.n_collar else "right"
        first = 0 if side == "left" else disc.n_dofs - disc.n_collar
        mass = exterior_band(disc, system.order, side)[1][run.start - first:run.stop - first]
        np.divide(system.column_view(run), np.sqrt(mass)[:, None], out=X[e])
    return "gram", ("exterior",), 1.0, X


_COLLARS = ("left", "right")


def _collar_runs(system: StiffnessSystem) -> dict | None:
    """{collar: n} when the Neumann DOFs of an assembled P1 system's collars are each
    none or one run of n nodes from the grid end, and the Neumann collars have fewer
    Dirichlet nodes than the runs have nodes; else None.

    The exterior Neumann DOFs of a P1 mesh lie off Omega, so each run lies in
    one collar: nodes 0..n_collar-1 on the left, the last n_collar nodes on
    the right.
    """
    disc = system.disc
    if disc.scheme != "P1" or system.key is None:
        return None
    n = dict.fromkeys(_COLLARS, 0)
    for cols, _ in system.runs_E:
        side = "left" if cols.stop <= disc.n_collar else "right"
        if n[side] or (cols.start if side == "left" else disc.n_dofs - cols.stop):
            return None           # a second run, or one that misses the grid end
        n[side] = cols.stop - cols.start
    gram_rows = sum(disc.n_collar - k for k in n.values() if k)
    return n if gram_rows < sum(n.values()) else None    # ties go direct


def _collar_solve(system: StiffnessSystem, side: str) -> np.ndarray:
    """X_c = U_c^{-T} K_{c,I} over every node of the collar, ordered from the grid end
    inward; Fortran order, read-only, one per (``system.key``, collar) in the store.

    K_cc is the collar's label-independent exterior band
    (``assembly.exterior_band``, which ``assemble`` cuts K_EE from on
    either path), tridiagonal, and U_c'U_c = K_cc.  In this order a run of
    n Neumann nodes from the grid end is the leading n x n block of K_cc,
    whose factor is U_c's leading block, so X_c[:n] is the run's
    half-solve.  K_{c,I} (``StiffnessSystem.columns``, the grid-end node's
    column included) is gathered whole into X_c's own Fortran-order array
    and half-solved there in place, as the direct form does its K_EI: the
    build holds X_c and small bands.
    """
    def build():
        n_c, m = system.disc.n_collar, system.disc.n_dofs
        band = exterior_band(system.disc, system.order, side)
        if side == "left":
            nodes = slice(0, n_c)
            K_cc = band
        else:                     # descending: the band read backwards
            nodes = slice(m - 1, m - 1 - n_c, -1)
            K_cc = np.stack([np.r_[0.0, band[0, ::-1][:-1]], band[1, ::-1]])
        U_c = _band_cholesky(K_cc, f"{side} collar block")
        X = system.columns(nodes, np.empty((n_c, len(system.K_II)), order="F"))
        X = _half_solve(U_c, X, f"{side} collar solve")
        X.setflags(write=False)
        return X

    return _cached("collar", (system.key, side), build)


def _base_factor(system: StiffnessSystem, grams: tuple = ()) -> BaseFactor:
    """The cached base and factor of K_II less ``grams``, built by the first record of its key.

    ``grams`` names the Gram terms taken off K_II: ("exterior",), G_E of a
    P0 mesh, kept nowhere, with the base taken as its transpose, the same
    matrix in the Fortran order that dsymv reads; or collars, whose G_c =
    X_c'X_c is one dsyrk on the cached ``_collar_solve`` each.  K_II, M_II
    and the Gram terms are functions of ``system.key``; a system without a
    key gets a factor of its own.
    """
    def build():
        base = system.K_II
        for term in grams:
            if term == "exterior":
                base = (base - _exterior_gram(system)).T
            else:
                base = _syrk(-1.0, _collar_solve(system, term), base)
        return _factor(base, system.M_II)

    if system.key is None:
        return build()
    return _cached("factor", (system.key, grams), build)


def _factor(base: np.ndarray, M_band: np.ndarray) -> BaseFactor:
    """A read-only view of base and the upper Cholesky factor of base + sigma M."""
    base = base.view()
    base.setflags(write=False)
    U, sigma = _shifted_cholesky(base, M_band)
    U.setflags(write=False)
    return BaseFactor(base=base, U=U, sigma=sigma)


def _exterior_gram(system: StiffnessSystem) -> np.ndarray:
    """G_E = X_E'X_E over every exterior grid cell E of a P0 system; read-only.

    The Omega rows R and the Omega mass are mirror images of themselves:
    n_collar exterior cells on each side, R[n_I-1-i, m-1-q] = R[i, q], one
    mass per gap.  So with x = X_E's row of a left cell and J the reversal of the
    interior index, the right collar adds Jx, and the pair adds xx' + Jxx'J
    = (ee' + oo') / 2, e = x + Jx even and o = x - Jx odd.  Each is fixed by
    its first half: e by its first ceil(n_I/2) entries (an odd n_I's middle
    one is 2x there), o by its first floor(n_I/2).  With S and P the sums of
    their half outer products over the left collar, scaled by 1/2,

        G_E = [[S + P,     (S - P) J],      (the middle row and column
               [J (S - P),  J (S + P) J]]    of an odd n_I from S alone)

    Each chunk of _GRAM_CHUNK left cells reads x and Jx, the columns of its
    cells and of their mirror images, as views of the line
    (``StiffnessSystem.column_view``); its halves of e and o, scaled by 1/sqrt(2 mass)
    (the left collar's ``exterior_band``, the Omega mass), go into two reused
    buffers, and one half-width dsyrk each adds them to the upper triangles
    of S and P (beta = 1).  G_E is laid out from their mirrored triangles,
    its last rows the reversed first ones (C order, so that the two do not
    overlap and the copy needs no temporary): it is symmetric and
    persymmetric bitwise.
    """
    n_c, n_I, m = system.disc.n_collar, len(system.K_II), system.disc.n_dofs
    h, hc = n_I // 2, (n_I + 1) // 2
    scale = 1.0 / np.sqrt(2.0 * exterior_band(system.disc, system.order, "left")[1])
    S, P = np.zeros((hc, hc), order="F"), np.zeros((h, h), order="F")
    even, odd = np.empty((_GRAM_CHUNK, hc)), np.empty((_GRAM_CHUNK, h))
    for lo in range(0, n_c, _GRAM_CHUNK):
        hi = min(lo + _GRAM_CHUNK, n_c)
        x = system.column_view(slice(lo, hi))
        Jx = system.column_view(slice(m - hi, m - lo))[::-1]
        w, e, o = scale[lo:hi, None], even[:hi - lo], odd[:hi - lo]
        np.multiply(np.add(x[:, :hc], Jx[:, :hc], out=e), w, out=e)
        S = blas.dsyrk(1.0, e.T, beta=1.0, c=S, overwrite_c=True)
        if h:                     # BLAS with a zero dimension corrupts the heap
            np.multiply(np.subtract(x[:, :h], Jx[:, :h], out=o), w, out=o)
            P = blas.dsyrk(1.0, o.T, beta=1.0, c=P, overwrite_c=True)
    G_E = np.empty((n_I, n_I))
    top, P_full = G_E[:hc, :hc], G_E[hc:, :h]          # the last rows hold P till the end
    for full, half in ((top, S), (P_full, P)):         # the lower triangles are 0
        np.fill_diagonal(np.add(half, half.T, out=full), half.diagonal())
    np.subtract(top[:h, :h], P_full, out=G_E[:h, hc:][:, ::-1])
    top[:h, :h] += P_full
    if hc > h:                    # an odd n_I's middle row, its right half mirrored
        G_E[h, hc:] = top[h, :h][::-1]
    G_E[hc:] = G_E[:h][::-1, ::-1]
    G_E.setflags(write=False)
    return G_E


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray            # M-normalized interior coefficients
    iterations: int               # Lanczos steps, one shifted solve each
    rq_residual: float            # |K u - lambda M u|
    temple: float                 # Kato-Temple term |r|^2_{M^-1} / (lambda_2 - lambda)
    converged: bool
    flagged_zero: bool


def smallest_eigenpair(K_eff, M_band: np.ndarray, tol: float = 1e-12,
                       max_iter: int = 500) -> EigenPair:
    """Minimizer of the Rayleigh quotient u'Ku / u'Mu by shift-invert Lanczos.

    K_eff is a ``SchurReduction``, whose pieces are used as they are (see
    the module doc), or a dense symmetric matrix, which gets a factor of its
    own; M is tridiagonal, given as a (2, n) band in cholesky_banded upper
    layout (``assembly.omega_mass``).  Lanczos on (K + sigma M)^-1 M,
    M-orthonormal, takes one shifted solve per step, at most max_iter steps.  From step 2,
    once the top Ritz value has est^2 <= tol theta_1 (theta_1 - theta_2),
    est = beta_j |s_j|, its Ritz vector u (u'Mu = 1) gets one product K u, and
    lambda = u'Ku.  The loop stops when the Kato-Temple term
    |r|^2_{M^-1} / (lambda_2 - lambda) <= tol max(lambda, 1e-9) and
    |r| <= sqrt(tol) max(1, lambda), r = K u - lambda M u, lambda_2 ~ 1/theta_2 - sigma.
    An exhausted Krylov space (n steps, or an invariant subspace) that has not
    met the test restarts from u, so an unconverged pair reports max_iter steps.
    Eigenvalues below 1e-9 are reported as 0 with a flag (singular D = empty limit).
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter < 1:
        raise BadParameters(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise BadParameters(f"tol must be finite and > 0, got {tol!r}")
    n = K_eff.X.shape[1] if isinstance(K_eff, SchurReduction) else len(K_eff)
    if n == 0:
        raise BadParameters("empty interior system")
    if not isinstance(K_eff, SchurReduction):
        K_eff = SchurReduction(_solve_EE=None, _K_EI=None, X=np.empty((0, n)),
                               factor=_factor(K_eff, M_band))
    solve, matvec, sigma = _woodbury(K_eff)

    d, e = np.empty((2, min(max_iter, n)))      # the Lanczos tridiagonal
    Q = np.empty((2, min(max_iter, n, 16), n))  # rows q_i and M q_i, grown with the steps
    Q[:, 0] = np.ones(n), band_matvec(M_band, np.ones(n))
    Q[:, 0] /= math.sqrt(Q[1, 0].sum())
    M_factor, j = None, 0
    for step in range(1, max_iter + 1):
        B, MB = Q[0, :j + 1], Q[1, :j + 1]
        w = solve(MB[j])
        c = MB @ w                # q_i'M w; full reorthogonalization, twice is enough
        w -= c @ B
        c2 = MB @ w
        w -= c2 @ B
        Mw = band_matvec(M_band, w)
        d[j], e[j] = c[j] + c2[j], math.sqrt(max(w @ Mw, 0.0))
        theta, Z, info = lapack.dstev(d[:j + 1], e[:max(j, 1)])
        if info or not (math.isfinite(e[j]) and theta[0] > 0):
            raise IndefinitePencil("shift-invert Lanczos lost positivity")
        # the Krylov space is exhausted at step n or at an invariant subspace
        exhausted = j + 1 == n or e[j] <= np.finfo(float).eps * theta[-1]
        if (exhausted or step == max_iter
                or j and (e[j] * Z[j, -1]) ** 2 <= tol * theta[-1] * (theta[-1] - theta[-2])):
            u = Z[:, -1] @ B
            Mu = band_matvec(M_band, u)
            norm = math.sqrt(u @ Mu)
            u, Mu = u / norm, Mu / norm
            Ku = matvec(u)
            lam = float(u @ Ku)
            r = Ku - lam * Mu
            residual = float(np.linalg.norm(r))
            M_factor = M_factor or (cholesky_banded(M_band), False)
            # step 1 has no theta_2: its term is 0 on an exhausted space, unknown otherwise
            gap = 1.0 / theta[-2] - sigma - lam if j else (math.inf if exhausted else 0.0)
            temple = float(r @ cho_solve_banded(M_factor, r) / gap) if gap > 0 else math.inf
            converged = (temple <= tol * max(lam, ZERO_EIGENVALUE_FLOOR)
                         and residual <= math.sqrt(tol) * max(1.0, abs(lam)))
            if converged or step == max_iter:
                break
            if exhausted:         # restart from the Ritz vector, so only max_iter stops short
                Q[0, 0], Q[1, 0], j = u, Mu, 0
                continue
        if j + 1 == len(Q[0]):
            Q = np.concatenate((Q, np.empty_like(Q)), axis=1)
        Q[0, j + 1], Q[1, j + 1] = w / e[j], Mw / e[j]
        j += 1
    if lam < -math.sqrt(np.finfo(float).eps):
        raise IndefinitePencil(f"negative Rayleigh quotient {lam}")
    flagged_zero = lam < ZERO_EIGENVALUE_FLOOR
    return EigenPair(value=0.0 if flagged_zero else lam, vector=u, iterations=step,
                     rq_residual=residual, temple=temple, converged=converged,
                     flagged_zero=flagged_zero)


def _shifted_cholesky(K: np.ndarray, M_band: np.ndarray) -> tuple[np.ndarray, float]:
    """(U, sigma): U'U = K + sigma M, U upper in Fortran order, sigma = 1e-10 tr(K) / tr(M).

    K + sigma M goes into a Fortran-order copy (K is symmetric, so it is the
    same matrix) that LAPACK factors in place; it reads the diagonal and
    above, and the strict lower triangle keeps K's entries.
    """
    n = len(K)
    sigma = 1e-10 * (np.trace(K) / max(M_band[1].sum(), 1e-300))
    sigma = float(max(sigma, 1e-300))
    A = np.array(K, order="F")
    flat = A.reshape(-1, order="F")
    flat[::n + 1] += sigma * M_band[1]
    flat[n::n + 1] += sigma * M_band[0, 1:]
    try:
        return cho_factor(A, overwrite_a=True)[0], sigma
    except LinAlgError as exc:
        raise IndefinitePencil(f"K + sigma M not positive definite: {exc}") from exc


def _woodbury(red: SchurReduction):
    """(solve, matvec, sigma) of K_eff = base + alpha X'X on the factor of its base.

    With base + sigma M = U'U and Y = U^{-T} X', K_eff + sigma M =
    U'(I + alpha Y Y')U, so its solve is U^{-1} (I - alpha Y C^{-1} Y') U^{-T}
    with the r x r capacitance C = I + alpha Y'Y (Woodbury).  Setup is one
    dtrsm, one dsyrk and one dpotrf; a solve is two dtrsv and rank-r work,
    none when X is empty.  K_eff u is one dsymv on the base's upper triangle,
    read in the Fortran order of the base (the Gram base, a dense record's
    K_eff) or of its transpose (the C-ordered K_II of the direct form, the
    same matrix), so f2py copies nothing.
    """
    U, base, alpha, X = red.factor.U, red.factor.base, red.alpha, red.X
    base_F = base if base.flags.f_contiguous else base.T
    Y = C = None
    if len(X):                    # BLAS/LAPACK with a zero dimension corrupt the heap
        Y = blas.dtrsm(1.0, U, X.T, trans_a=1)
        C, info = lapack.dpotrf(blas.dsyrk(alpha, Y, beta=1.0, c=np.eye(len(X)), trans=1),
                                overwrite_a=True)
        if info:
            raise IndefinitePencil(
                f"capacitance I + alpha Y'Y not positive definite: dpotrf info {info}")

    def solve(b):
        y = blas.dtrsv(U, b, trans=1)
        if Y is not None:
            y -= alpha * (Y @ lapack.dpotrs(C, Y.T @ y)[0])
        return blas.dtrsv(U, y, overwrite_x=True)

    def matvec(u):
        Ku = blas.dsymv(1.0, base_F, u)
        if Y is not None:
            Ku += alpha * (X.T @ (X @ u))
        return Ku

    return solve, matvec, red.factor.sigma


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
    temple: float
    normalization: float          # int_Omega u^2 (must be 1)
    converged: bool
    flagged_zero: bool
    diagnostics: dict = field(default_factory=dict)


def solve_mixed(omega: Domain1D, partition: ExteriorPartition, order: FractionalOrder,
                disc: DiscParams, solver: SolverParams = SolverParams(),
                with_diagnostics: bool = True) -> EigenResult:
    """build_mesh, then ``solve_on_mesh``."""
    mesh = build_mesh(omega, partition, disc.h, disc.L, disc.scheme, order=order)
    return solve_on_mesh(mesh, order, solver, with_diagnostics)


def solve_on_mesh(mesh: Discretization, order: FractionalOrder,
                  solver: SolverParams = SolverParams(),
                  with_diagnostics: bool = True, condition_c: bool = True) -> EigenResult:
    """assemble -> schur_reduce -> smallest_eigenpair -> back_map on a built mesh.

    Across a family sweep the label-independent stiffness pieces are cached
    by ``assemble``, whose path (``assembly.assembly_path``) the mesh alone
    picks; ``diagnostics["assembly"]`` names it, and ``diagnostics["schur"]``
    the form of the Schur step (``SchurReduction.form``).  With diagnostics
    on, ``condition_c`` False leaves out ``diagnostics["condition_C"]``, the
    one diagnostic that integrates over the Dirichlet set.
    The eigenfunction is sign-fixed (nonnegative mean) and L^2(Omega)-
    normalized; its exterior Neumann values are the discrete kernel average
    of the interior values (one back-substitution).
    """
    omega, partition = mesh.omega, mesh.partition
    system = assemble(mesh, order)
    red = schur_reduce(system)
    M = system.M_II
    pair = smallest_eigenpair(red, M, tol=solver.tol, max_iter=solver.max_iter)
    u_I = pair.vector
    Mu = band_matvec(M, u_I)
    if float(np.sum(Mu)) < 0:
        u_I, Mu = -u_I, -Mu
    values = np.empty(system.n_free)
    values[system.interior_mask] = u_I
    values[system.exterior_mask] = red.back_map(u_I)
    diagnostics = {"assembly": system.path, "schur": red.form}
    if with_diagnostics:
        from .nonlocal_ops import gauss_residual
        diagnostics["gauss_residual"] = gauss_residual(system, values)
        diagnostics["separation_D"] = (
            separation(partition.dirichlet, omega)
            if not partition.dirichlet.empty else math.inf)
        if condition_c:
            diagnostics["condition_C"] = (
                condition_C(partition.dirichlet, omega, order)
                if not partition.dirichlet.empty else 0.0)
        for label, eset in (("N", partition.neumann), ("D", partition.dirichlet)):
            for mult in (2.0, 8.0):
                R = mult * omega.length
                diagnostics[f"measure_{label}_R{mult:g}"] = measure_in_ball(eset, R)
    return EigenResult(lambda1=pair.value, u=DiscreteFunction(system, values),
                       iterations=pair.iterations, rq_residual=pair.rq_residual,
                       temple=pair.temple, normalization=float(u_I @ Mu),
                       converged=pair.converged, flagged_zero=pair.flagged_zero,
                       diagnostics=diagnostics)


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
    if rho == 1.0:
        raise BadParameters("richardson_extrapolate needs a refinement ratio other than 1")
    if abs(h2 / h3 - rho) > 1e-9 * rho:
        raise BadParameters("richardson_extrapolate needs a constant ratio")
    d1, d2 = l2 - l1, l3 - l2
    if d1 == 0.0 or d2 == 0.0 or d1 * d2 < 0:
        return l3, math.nan
    p = math.log(abs(d1) / abs(d2)) / math.log(rho)
    limit = l3 + d2 / (rho ** p - 1.0)
    return limit, p
