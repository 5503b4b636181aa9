"""Regenerate references.json from the checkout's current solver.

    python3 perfbench/refgen.py

Run it only at a commit whose eigenvalues are trusted: the gate then holds
every later commit to them.
"""

from __future__ import annotations

import json
import os

import workloads

os.environ.update(workloads.BLAS_ENV)   # before numpy is imported
workloads.use_checkout_sources()

from mixedfrac import experiments  # noqa: E402

from gate import REFERENCES  # noqa: E402

RTOL = 1e-9


def main() -> None:
    sweeps = {}
    for sid, raw in workloads.SWEEPS.items():
        cfg = experiments.ExperimentConfig.from_dict(raw)
        result = experiments.run(cfg)
        sweeps[sid] = {"baseline": result.baseline,
                       "lambda1": {str(r.k): r.lambda1 for r in result.records}}
        print(sid, result.baseline, [r.lambda1 for r in result.records])
    with open(REFERENCES, "w", encoding="utf-8") as f:
        json.dump({"rtol": RTOL, "sweeps": sweeps}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
