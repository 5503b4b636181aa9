"""Self-test of the benchmark's correctness gate and tracer.

    python3 perfbench/selfcheck.py

Runs one small sweep (criterion 4, s = 0.3, under a second) traced, and
checks that: the gate passes the true references and fails a perturbed
one, a non-converged, out-of-range or errored record, and a record with no
reference; every wrapper is installed and then restored; a missing stage
drops its metrics instead of failing; spans opened by pool threads are
children of the run span, and self times subtract overlapping children once.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import os
import threading
import time
import types

import workloads

os.environ.update(workloads.BLAS_ENV)   # before numpy is imported
workloads.use_checkout_sources()

from mixedfrac import assembly, eigensolver, experiments, fracops, nonlocal_ops  # noqa: E402

import gate  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import record_dicts  # noqa: E402

SWEEP = "c4_ball_s0.3"
MODULES = {"assembly": assembly, "eigensolver": eigensolver, "experiments": experiments,
           "fracops": fracops, "nonlocal_ops": nonlocal_ops}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")


def check_gate_and_wrappers() -> None:
    originals = {}
    for module, path, _ in layers.WRAPS:
        owner, attr = layers.resolve(MODULES, module, path)
        originals[(module, path)] = (owner, attr, getattr(owner, attr))

    cfg = experiments.ExperimentConfig.from_dict(workloads.SWEEPS[SWEEP])
    tracer = Tracer()
    absent = layers.install(tracer, MODULES)
    try:
        t0 = time.perf_counter()
        result = tracer.call(layers.RUN, experiments.run, cfg)
        sweep_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    expect(absent == [], f"wrappers not installed: {absent}")
    for (module, path), (owner, attr, fn) in originals.items():
        expect(getattr(owner, attr) is fn, f"{module}.{path} not restored")
    metrics = layers.summarize(tracer, sweep_s)
    n = len(result.records)
    expect(metrics["nonlocal_ops.gauss_residual_calls"] == 2 * n,
           "two gauss_residual calls per record")
    expect(metrics["assembly.assemble_cold_ms"] > 0, "one cold assemble")
    expect(abs(metrics["trace.accounted_share"] - 1.0) < 0.01,
           "serial layer self times account for the sweep")

    refs = gate.load_references()
    records = record_dicts(SWEEP, cfg, result)
    expect(gate.failures(records, refs) == [], "gate passes the true references")
    bad = copy.deepcopy(refs)
    bad["sweeps"][SWEEP]["lambda1"]["3"] *= 1 + 100 * refs["rtol"]
    failed = gate.failures(records, bad)
    expect(len(failed) == 1 and " k=3:" in failed[0], f"perturbed reference fails k=3: {failed}")
    rec = records[0]
    for broken in ({**rec, "iters": rec["max_iter"]}, {**rec, "error": "BadParameters: x"},
                   {**rec, "lambda1": rec["baseline"] * 1.01}, {**rec, "lambda1": float("nan")},
                   {**rec, "sweep": "no_such_sweep"}):
        expect(gate.record_failure(broken, refs) is not None, f"gate fails {broken}")


def check_missing_stage() -> None:
    tracer = Tracer()
    eig = types.SimpleNamespace(**{a: getattr(eigensolver, a) for a in dir(eigensolver)
                                   if not a.startswith("_") and a != "schur_reduce"})
    absent = layers.install(tracer, {**MODULES, "eigensolver": eig})
    tracer.restore()
    expect(absent == ["eigensolver.schur_reduce"], f"only schur_reduce absent: {absent}")
    expect(not tracer.wrap(eigensolver, "_banded_solver", "x"), "private names are not wrapped")
    metrics = layers.summarize(tracer, 1.0)
    expect("eigensolver.schur_reduce_ms" not in metrics
           and "eigensolver.reduction_mb" not in metrics, "schur metrics dropped")
    expect("assembly.assemble_cold_ms" in metrics, "other metrics kept")


def check_threads() -> None:
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def child():
        with tracer.span("child"):
            barrier.wait(timeout=5)
            time.sleep(0.05)

    with tracer.span("root"):
        threads = [threading.Thread(target=child) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            expect(not t.is_alive(), "child thread finished")
    spans = {sp.name: sp for sp in tracer.spans}
    root = spans["root"]
    kids = [sp for sp in tracer.spans if sp.name == "child"]
    expect(all(sp.parent == root.sid for sp in kids), "pool-thread spans are children of root")
    union = max(sp.end for sp in kids) - min(sp.start for sp in kids)
    self_t = tracer.self_times()
    expect(abs(self_t[root.sid] - (root.duration - union)) < 1e-9,
           "overlapping children are subtracted once")


if __name__ == "__main__":
    check_gate_and_wrappers()
    check_missing_stage()
    check_threads()
    print("selfcheck ok")
