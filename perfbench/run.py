"""Sweep benchmark of mixedfrac: run a named workload for a fixed time.

    python3 perfbench/run.py --workload dirichlet_sea --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # every workload, one table

Each repetition is a fresh worker process (worker.py), so the base-matrix
cache starts cold and ``ru_maxrss`` covers one repetition; workers run one
after another while a typical repetition still fits in ``--seconds``.
Before and after each repetition this process times a fixed calibration
kernel (calibration.py), and the worker's CPU times are reported in
reference seconds.  With ``--trace 0`` the last line of output is a JSON
object with the end-to-end metrics (medians over repetitions); with
``--trace 1`` untraced and traced repetitions alternate and it carries the
per-layer metrics.  Every record of every repetition
goes through the correctness gate (gate.py), and each sweep's CSV must be
byte-identical across repetitions apart from the ``ms`` column.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import gate
import layers
import workloads

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0   # a run must end within 180 s

E2E_UNITS = {"sweep_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "ok_frac": "ratio"}
# raw CPU and wall times and the calibration behind the metrics, printed in
# the table only
RAW = {"sweep_cpu_s": "s", "sweep_wall_s": "s", "setup_cpu_s": "s", "setup_wall_s": "s",
       "calibration_s": "s"}


def run_worker(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    env = dict(os.environ, **workloads.BLAS_ENV)
    out_dir = workloads.OUT_DIR / f"w{os.getpid()}"
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", repr(t_spawn), str(out_dir)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker for {workload} exceeded the time limit")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest nearest-rank percentile above the
    median that has at least ten samples beyond it, or None."""
    n = len(values)
    i = n - 11
    if i < 0 or (i + 1) / n <= 0.5:
        return None
    return 100.0 * (i + 1) / n, sorted(values)[i]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions for `seconds`; returns the metrics, the gate's verdict
    and the report lines for the human-readable table."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    reps, walls = [], []
    kernel = calibration.kernel_s()
    while True:
        t0 = time.monotonic()
        rep = run_worker(workload, seed, trace and len(reps) % 2 == 1, deadline)
        before, kernel = kernel, calibration.kernel_s()
        rep["calibration_s"] = (before + kernel) / 2
        scale = calibration.REF_S / rep["calibration_s"]
        rep["setup_s"] = rep["setup_cpu_s"] * scale
        rep["sweep_s"] = rep["sweep_cpu_s"] * scale
        reps.append(rep)
        walls.append(time.monotonic() - t0)
        # start another repetition only if a typical one still fits in `seconds`
        if (not trace or len(reps) >= 2) and \
                time.monotonic() - start + statistics.median(walls) > seconds:
            break

    records = [r for rep in reps for r in rep["records"]]
    problems = gate.failures(records, gate.load_references())
    n_failed = len(problems)
    for sid in sorted({sid for rep in reps for sid in rep["csv_digests"]}):
        if len({rep["csv_digests"].get(sid) for rep in reps}) != 1:
            problems.append(f"{sid}: CSV bytes differ between repetitions")
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    samples = {
        "sweep_s": [rep["sweep_s"] for rep in plain],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in plain],
        "setup_s": [rep["setup_s"] for rep in plain],
    }
    report = [f"{workload}: seed {seed}, {len(plain)} untraced and {len(traced)} traced "
              f"repetitions, {len(records)} records, {n_failed} failed"]
    units = dict(E2E_UNITS, **RAW)
    for name, vals in [*samples.items(), *((w, [rep[w] for rep in plain]) for w in RAW)]:
        t = tail(vals)
        extra = f", p{t[0]:.0f} {t[1]:.6g}" if t else ", no tail percentile (n < 21)"
        report.append(f"  {name:12s} median {statistics.median(vals):.6g} "
                      f"{units[name]}{extra} (n={len(vals)})")
    ms = [r["ms"] for r in records]
    t = tail(ms)
    report.append(f"  record ms    median {statistics.median(ms):.6g} ms"
                  + (f", p{t[0]:.0f} {t[1]:.6g} ms" if t else "") + f" (n={len(ms)})")

    if trace:
        metrics = {}
        for name in layers.UNITS:
            vals = [rep["layers"][name] for rep in traced if name in rep["layers"]]
            if vals:
                value = max(vals) if name in layers.MAXIMA else statistics.median(vals)
                metrics[name] = {"value": value, "unit": layers.UNITS[name]}
        metrics["trace.overhead_share"] = {
            "value": statistics.median(rep["sweep_s"] for rep in traced)
            / statistics.median(samples["sweep_s"]) - 1.0,
            "unit": "ratio"}
        absent = sorted({a for rep in traced for a in rep["absent"]})
        report.append("  absent stages: " + (", ".join(absent) if absent else "none"))
    else:
        metrics = {name: {"value": statistics.median(vals), "unit": E2E_UNITS[name]}
                   for name, vals in samples.items()}
        metrics["ok_frac"] = {"value": 1.0 - n_failed / len(records), "unit": "ratio"}
    return {"correct": not problems, "attempted": len(records), "failed": n_failed,
            "metrics": metrics, "report": report, "problems": problems,
            "environment": reps[0]["environment"]}


def source_id() -> str:
    """The git commit of the checkout, read from .git without running git,
    or else a digest of the package sources."""
    git = workloads.ROOT / ".git"
    head = git / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        branch = git / ref[len("ref: "):]
        if branch.is_file():
            return branch.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "mixedfrac").glob("*.py")):
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    finally:
        shutil.rmtree(workloads.OUT_DIR, ignore_errors=True)
    source = source_id()
    for name, res in results.items():
        print("environment: " + json.dumps(dict(res["environment"], source=source)))
        print("\n".join(res["report"]))
        for line in res["problems"]:
            print(f"  FAILED {line}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, res in results.items()
                   for metric, m in res["metrics"].items()}
    correct = all(res["correct"] for res in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(res["attempted"] for res in results.values()),
                      "failed": sum(res["failed"] for res in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 2


if __name__ == "__main__":
    sys.exit(main())
