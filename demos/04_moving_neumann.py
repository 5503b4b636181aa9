"""Dissipating Neumann sets: the mixed eigenvalue recovers the Dirichlet one.

A Neumann window traveling to infinity leaves an eigenvalue gap that
collapses geometrically, even though |N_k| stays constant (this has no local
analogue).  A fixed window, by contrast, keeps a persistent gap: diffusion
on compact sets is necessary, not just sufficient.

Writes plot-ready data to demos/out/, or to the directory given by --out.
"""

import argparse
import os

from mixedfrac import ExperimentConfig, emit, experiments

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--out", default=os.path.join(os.path.dirname(__file__), "out"),
                    help="directory for the written files (default: demos/out)")
OUT = parser.parse_args().out


def config(kind, params, k_list, L, csv):
    return {
        "schema": 1,
        "order": {"dimension": 1, "s": 0.5},
        "omega": {"a": -1.0, "b": 1.0},
        "family": {"kind": kind, "params": params, "k_list": k_list},
        "discretization": {"h": 0.05, "L": L, "scheme": "P1"},
        "solver": {"tol": 1e-13, "max_iter": 800},
        "outputs": {"csv": csv, "plotdata": csv.replace(".csv", ".dat")},
        "verify": {"gauss": True, "measures": True},
    }


print("=== traveling Neumann window, offsets 2^k ===")
cfg = ExperimentConfig.from_dict(config(
    "traveling_ball", {"offset0": 1.0, "length": 1.0, "ratio": 2.0},
    list(range(6)), L=36.0, csv="traveling_neumann.csv"))
result = experiments.run(cfg)
print(f"  Dirichlet baseline: {result.baseline:.8f}")
for r in result.records:
    print(f"  k={r.k}: offset {r.param:4.0f}  lambda1 = {r.lambda1:.8f}  "
          f"gap = {r.gap:.3e}  ({100 * r.gap / r.baseline:.4f}%)")
if "gap_vs_param" in result.fits:
    sl, _, r2 = result.fits["gap_vs_param"]
    print(f"  empirical rate: gap ~ offset^{sl:.2f}  (r^2 = {r2:.5f})")
paths = emit(result, cfg, out_dir=OUT)
print("  wrote:", ", ".join(paths.values()))

print("\n=== fixed Neumann window (1, 2): no convergence ===")
cfg2 = ExperimentConfig.from_dict(config(
    "explicit", {"neumann": [[1.0, 2.0]], "dirichlet": "rest"},
    [0, 1, 2], L=8.0, csv="fixed_neumann.csv"))
res2 = experiments.run(cfg2)
for r in res2.records:
    print(f"  k={r.k}: lambda1 = {r.lambda1:.8f}  gap fraction = "
          f"{r.gap / r.baseline:.3f} (persistent)")
emit(res2, cfg2, out_dir=OUT)
