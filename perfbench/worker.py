"""One repetition of a workload, in a fresh process.

Run by run.py with BLAS pinned to one thread in its environment.  It
imports mixedfrac from the checkout, parses the workload's configs, calls
``make_order`` for each, then runs ``experiments.run`` and
``experiments.emit`` on every sweep, optionally traced.  It prints one
JSON line: CPU and wall timings, ``ru_maxrss``, every record's eigenvalue
data, the CSV digests without the ``ms`` column, and the per-layer metrics
of a traced repetition.

    python3 perfbench/worker.py WORKLOAD SEED TRACE T_SPAWN OUT_DIR

``setup_cpu_s`` and ``sweep_cpu_s`` are CPU time of this process (all
threads), which leaves out the time the host takes the vCPUs away;
``setup_cpu_s`` counts from the start of the process, so it includes
interpreter start-up.  run.py turns them into reference seconds.
T_SPAWN is ``time.monotonic()`` in the parent just before the spawn
(CLOCK_MONOTONIC is system-wide on Linux); the wall-clock set-up time
``setup_wall_s`` counts from it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import layers
import workloads
from tracer import Tracer


def csv_digest(path: Path) -> str:
    """sha256 of the CSV with its wall-time column removed."""
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("ms")
    body = "\n".join(",".join(c for i, c in enumerate(ln.split(",")) if i != col)
                     for ln in lines)
    return hashlib.sha256(body.encode()).hexdigest()


def record_dicts(sid: str, cfg, result) -> list[dict]:
    """What the correctness gate needs of each record of one sweep."""
    return [{"sweep": sid, "k": r.k, "lambda1": r.lambda1, "baseline": r.baseline,
             "iters": r.iters, "max_iter": cfg.solver.max_iter, "error": r.error,
             "ms": r.ms} for r in result.records]


def environment(jobs: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "jobs": jobs,
        "nproc": os.cpu_count(),
    }


def main(argv) -> int:
    workload, seed, trace, t_spawn, out_dir = argv
    seed, trace, t_spawn, out_dir = int(seed), trace == "1", float(t_spawn), Path(out_dir)
    workloads.use_checkout_sources()

    from mixedfrac import assembly, eigensolver, experiments, fracops, nonlocal_ops

    jobs = workloads.WORKLOADS[workload][1]
    plan = [(sid, experiments.ExperimentConfig.from_dict(d))
            for sid, d in workloads.plan(workload, seed)]
    tracer = Tracer() if trace else None
    absent = []
    if tracer:
        absent = layers.install(tracer, {
            "assembly": assembly, "eigensolver": eigensolver, "experiments": experiments,
            "fracops": fracops, "nonlocal_ops": nonlocal_ops})
    call = tracer.call if tracer else (lambda _name, fn, *a, **kw: fn(*a, **kw))
    try:
        for _, cfg in plan:
            call(layers.MAKE_ORDER, fracops.make_order, cfg.dimension, cfg.s)
        setup_wall_s = time.monotonic() - t_spawn
        setup_cpu_s = time.process_time()
        sweep_cpu_s = sweep_wall_s = 0.0
        results = []
        for sid, cfg in plan:
            t0, c0 = time.perf_counter(), time.process_time()
            result = call(layers.RUN, experiments.run, cfg, jobs=jobs)
            call(layers.EMIT, experiments.emit, result, cfg, out_dir=str(out_dir / sid))
            sweep_wall_s += time.perf_counter() - t0
            sweep_cpu_s += time.process_time() - c0
            results.append((sid, cfg, result))
    finally:
        if tracer:
            tracer.restore()

    records, digests = [], {}
    for sid, cfg, result in results:
        digests[sid] = csv_digest(out_dir / sid / cfg.outputs["csv"])
        records += record_dicts(sid, cfg, result)
    shutil.rmtree(out_dir, ignore_errors=True)
    out = {
        "setup_cpu_s": setup_cpu_s,
        "sweep_cpu_s": sweep_cpu_s,
        "setup_wall_s": setup_wall_s,
        "sweep_wall_s": sweep_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "csv_digests": digests,
        "environment": environment(jobs),
        "traced": trace,
    }
    if tracer:
        out["layers"] = layers.summarize(tracer, sweep_wall_s)
        out["absent"] = absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
