"""Shared test helpers."""

import numpy as np
import pytest

from mixedfrac import assembly


@pytest.fixture
def cold_caches():
    """Empty the solver's store before and after the test.

    The test's first assemble and solve build cold, and nothing it builds,
    perhaps under a monkeypatch, reaches a later test.
    """
    assembly._STORE.clear()
    yield
    assembly._STORE.clear()


def band(M):
    """Dense symmetric tridiagonal M -> (2, n) band, cholesky_banded upper layout."""
    return np.stack([np.concatenate(([0.0], np.diag(M, 1))), np.diag(M).copy()])


def unband(ab):
    """(2, n) band in cholesky_banded upper layout -> the dense symmetric matrix."""
    sup, diag = ab
    return np.diag(diag) + np.diag(sup[1:], 1) + np.diag(sup[1:], -1)


def dense(system):
    """(K, M) over the free DOFs, reassembled densely from the arrow blocks.

    Test-only: the solver never forms these free x free matrices.
    """
    iI = np.where(system.interior_mask)[0]
    iE = np.where(system.exterior_mask)[0]
    K = np.zeros((system.n_free, system.n_free))
    K[np.ix_(iI, iI)] = system.K_II
    K_IE = system.K_IE
    K[np.ix_(iI, iE)] = K_IE
    K[np.ix_(iE, iI)] = K_IE.T
    K[np.ix_(iE, iE)] = unband(system.K_EE)
    M = np.zeros_like(K)
    M[np.ix_(iI, iI)] = unband(system.M_II)
    return K, M
