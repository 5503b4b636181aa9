"""Shared test helpers."""

import numpy as np


def dense(system):
    """(K, M) over the free DOFs, reassembled densely from the arrow blocks.

    Test-only: the solver never forms these free x free matrices.
    """
    iI = np.where(system.interior_mask)[0]
    iE = np.where(system.exterior_mask)[0]
    K = np.zeros((system.n_free, system.n_free))
    K[np.ix_(iI, iI)] = system.K_II
    K[np.ix_(iI, iE)] = system.K_IE
    K[np.ix_(iE, iI)] = system.K_IE.T
    sup, diag = system.K_EE
    K[iE, iE] = diag
    K[iE[:-1], iE[1:]] = sup[1:]
    K[iE[1:], iE[:-1]] = sup[1:]
    M = np.zeros_like(K)
    M[np.ix_(iI, iI)] = system.M_II
    return K, M
