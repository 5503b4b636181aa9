"""A fixed numpy kernel whose CPU time tells how fast the host is right now.

On a shared host the same repetition takes up to a third more CPU time in
one minute than in the next: neighbours compete for caches and memory
bandwidth, and clock rates change.  run.py times this kernel before and
after every repetition, in its own process so that the worker's memory
is untouched, and expresses the worker's CPU times in reference seconds:

    reference seconds = CPU seconds * REF_S / (kernel CPU seconds)

The kernel is shaped like the sweeps' own work and shares no code with
mixedfrac, so a change to mixedfrac moves the reference seconds exactly
as it moves the CPU seconds.
"""

from __future__ import annotations

import os
import time

import workloads

os.environ.update(workloads.BLAS_ENV)   # before numpy starts its BLAS pool

import numpy as np  # noqa: E402

# the kernel's CPU time on the reference machine, which sets the scale of a
# reference second; a round figure near its median there
REF_S = 0.30

M = 2000          # a dense M x M matrix of float64 is 32 MB, larger than the caches
ROUNDS = 2


def kernel_s() -> float:
    """CPU time of ROUNDS passes of: a Python loop of strided diagonal adds
    on a dense matrix (as the base-matrix build does), a power of a pair
    tensor and two einsum contractions, a fancy-indexed block copy (as the
    Schur step does), a symmetric mirror and a small symmetric eigensolve."""
    rng = np.random.default_rng(0)
    b = rng.standard_normal((M, M))
    idx = rng.permutation(M)[: 3 * M // 4]
    a = rng.standard_normal((200, 200))
    a = a + a.T
    x = rng.random(20)
    lam = np.stack([1.0 - x, x])
    ds = np.arange(2, M, dtype=float)
    k = np.zeros((M, M))
    flat = k.ravel()
    c0 = time.process_time()
    for _ in range(ROUNDS):
        for d in range(1, M):
            last = (M - d - 1) * (M + 1)
            flat[d:d + last + 1:M + 1] += 1.0
            flat[d * M:d * M + last + 1:M + 1] -= 1.0
        kv = (ds[:, None, None] + x[None, None, :] - x[None, :, None]) ** -1.6
        np.einsum("ap,cp,dp->dac", lam, lam, kv.sum(axis=2))
        np.einsum("ap,bq,dpq->dab", lam, lam, kv)
        b[np.ix_(idx, idx)]
        np.triu(b) + np.triu(b, 1).T
        np.linalg.eigvalsh(a)
    return time.process_time() - c0
