"""A spectral Dirichlet oracle on (-1, 1), independent of the finite-element path.

In the basis w^s C_n^(s+1/2), w = 1 - x^2, the fractional Laplacian is
explicit (Acosta, Borthagaray, Bruno & Maas, Math. Comp. 87 (2018)):
(-Delta)^s [w^s C_n^(s+1/2)] = Gamma(2s+n+1)/n! C_n^(s+1/2).  By Gegenbauer
orthogonality the stiffness is diagonal, Gamma(2s+n+1)/n! h_n with h_n the
Gegenbauer norm; the mass int w^(2s) C_n C_m is exact under Gauss-Jacobi
with weight w^(2s); lambda_1 is the smallest eigenvalue of the pencil.
"""

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.special import eval_gegenbauer, gammaln, roots_jacobi

from mixedfrac import DiscParams, Domain1D, dirichlet_baseline, make_order

KWASNICKI_HALF = 1.1577738836977    # s = 1/2 on (-1, 1), J. Funct. Anal. 262 (2012)


def spectral_lambda1(s: float, n_modes: int = 256) -> float:
    """Principal Dirichlet eigenvalue of (-Delta)^s on (-1, 1) from n_modes modes."""
    lam, n = s + 0.5, np.arange(n_modes)
    x, w = roots_jacobi(n_modes, 2 * s, 2 * s)     # exact to degree 2 n_modes - 1
    log_h = (np.log(np.pi) + (1 - 2 * lam) * np.log(2.0) + gammaln(n + 2 * lam)
             - gammaln(n + 1) - np.log(n + lam) - 2 * gammaln(lam))
    # the basis scaled by h_n^(-1/2): the stiffness is Gamma(2s+n+1)/n!
    C = eval_gegenbauer(n[:, None], lam, x) * np.exp(-0.5 * log_h)[:, None]
    K = np.diag(np.exp(gammaln(2 * s + n + 1) - gammaln(n + 1)))
    M = (C * w) @ C.T
    return float(eigh(K, M, eigvals_only=True, subset_by_index=[0, 0])[0])


def test_oracle_matches_kwasnicki_at_half():
    assert abs(spectral_lambda1(0.5) - KWASNICKI_HALF) <= 1e-12


@pytest.mark.parametrize("s", [0.25, 0.3, 0.75])
def test_oracle_converges_in_modes(s):
    # measured: 1.3e-10, 3.3e-11 and 5.8e-11 between 128 and 256 modes
    assert abs(spectral_lambda1(s, 128) - spectral_lambda1(s, 256)) <= 2e-10


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_p1_baseline_converges_to_oracle_at_first_order(s):
    # the P1 Dirichlet baseline lies above the continuum value, and halving h
    # halves its error (measured ratios 1.93 to 1.99)
    lam = spectral_lambda1(s)
    order = make_order(1, s)
    err = [dirichlet_baseline(Domain1D(-1.0, 1.0), order,
                              DiscParams(h=h, L=8.0, scheme="P1")).lambda1 - lam
           for h in (0.1, 0.05)]
    assert err[0] > 0 and err[1] > 0
    assert 1.8 <= err[0] / err[1] <= 2.2
