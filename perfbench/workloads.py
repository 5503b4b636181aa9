"""The benchmark's named workloads and the sweeps each one drives.

Every sweep is an acceptance configuration of the solver, run through
``experiments.run`` and ``experiments.emit`` as ``mixedfrac sweep`` runs it.
The seed permutes the order of the sweeps in a workload and the order of
each ``k_list``; the work and the expected eigenvalues stay the same, so
every seed is checked against the same references.
"""

from __future__ import annotations

import copy
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# The scipy-openblas pool is harmful at these matrix sizes, and collar_scale
# runs two records at once on two cores; every worker pins BLAS to one thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _sweep(s, kind, params, k_list, h, L, scheme="P1", omega=(-1.0, 1.0),
           condition_c=False, farfield=False):
    verify = {"gauss": True, "conditionC": condition_c, "measures": True}
    if farfield:
        verify["farfield"] = True
    return {
        "schema": 1,
        "order": {"dimension": 1, "s": s},
        "omega": {"a": omega[0], "b": omega[1]},
        "family": {"kind": kind, "params": params, "k_list": list(k_list)},
        "discretization": {"h": h, "L": L, "scheme": scheme},
        "solver": {"tol": 1e-13, "max_iter": 800},
        "outputs": {"csv": "sweep.csv", "json": "sweep.json"},
        "verify": verify,
    }


_BALL = {"offset0": 1.0, "length": 1.0, "ratio": 2.0, "side": "right"}
_NESTED = {"left": 1.5, "length0": 1.0, "ratio": 2.0}

SWEEPS = {
    # criterion 4: a Neumann ball travels away, and a Neumann interval shrinks
    "c4_ball_s0.3": _sweep(0.3, "traveling_ball", _BALL, range(7), 0.05, 68.0),
    "c4_nested_s0.3": _sweep(0.3, "nested_neumann", _NESTED, range(2, 7), 2.0 ** -8, 8.0),
    "c4_ball_s0.7": _sweep(0.7, "traveling_ball", _BALL, range(7), 0.05, 68.0),
    "c4_nested_s0.7": _sweep(0.7, "nested_neumann", _NESTED, range(2, 7), 2.0 ** -8, 8.0),
    # criterion 6: a touching Dirichlet interval shrinks, P0 on Omega = (0, 1)
    "c6_touching_p0": _sweep(
        0.25, "shrinking_dirichlet_touching", {"r0": 1.0, "ratio": 2.0, "side": "left"},
        range(1, 8), 2.0 ** -9, 4.0, scheme="P0", omega=(0.0, 1.0), condition_c=True),
    # criterion 7: a Dirichlet ball travels away at s = 3/4
    "c7_dirichlet_ball": _sweep(0.75, "traveling_dirichlet", _BALL, range(7), 0.05, 68.0,
                                condition_c=True),
    # the Neumann-heavy P1 case at h = 0.01, L = 36 (7401 DOFs)
    "collar_sector": _sweep(0.5, "infinite_sector", {"R0": 2.0, "ratio": 2.0, "side": "right"},
                            range(4), 0.01, 36.0, farfield=True),
}

# name -> (sweep ids, jobs passed to experiments.run)
WORKLOADS = {
    "dirichlet_sea": (("c4_ball_s0.3", "c4_nested_s0.3", "c4_ball_s0.7", "c4_nested_s0.7"), 1),
    "neumann_sea": (("c6_touching_p0", "c7_dirichlet_ball"), 1),
    "collar_scale": (("collar_sector",), 2),
}


def plan(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's (sweep id, config dict) pairs in the order the seed gives."""
    rng = random.Random(f"{workload}:{seed}")
    ids = list(WORKLOADS[workload][0])
    rng.shuffle(ids)
    out = []
    for sid in ids:
        cfg = copy.deepcopy(SWEEPS[sid])
        rng.shuffle(cfg["family"]["k_list"])
        out.append((sid, cfg))
    return out


def use_checkout_sources() -> None:
    """Import mixedfrac from this checkout's src/, never from an installed copy."""
    if not (SRC / "mixedfrac" / "__init__.py").is_file():
        raise SystemExit(f"mixedfrac sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
