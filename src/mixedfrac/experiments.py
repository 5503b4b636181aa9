"""Config-driven family sweeps with CSV/JSON/plotdata emission.

A single JSON document (schema 1, unknown keys rejected) describes the
kernel order, domain, partition family with its k list, discretization and
solver parameters, output paths, and verification flags.  Records are
solved independently per k (optionally by a thread pool), collected in k
order, and written deterministically: identical configs produce identical
CSV bytes except for the wall-time column.
"""

from __future__ import annotations

import json
import math
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from .eigensolver import (
    DiscParams,
    EigenResult,
    SolverParams,
    dirichlet_baseline,
    solve_mixed,
)
from .errors import ConfigError, DegenerateData, MixedFracError
from .fracops import make_order
from .geometry import Domain1D, PartitionFamily, family_param, generate
from .nonlocal_ops import farfield_rate, gauss_residual

CSV_HEADER = "k,param,lambda1,baseline,gap,measN_R,measD_R,condC,sep,gauss_res,iters,h,L,ms"


def _require_keys(d: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _integer(value) -> int:
    """int(value), refusing a value that int() would truncate or reinterpret."""
    n = int(value)          # OverflowError on +-inf, ValueError on nan
    if n != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return n


def _finite(value) -> float:
    """float(value), refusing nan and +-inf (JSON's NaN and Infinity)."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def _at(path: str, convert, *args):
    """convert(*args); a failure is a ConfigError that names the key path."""
    try:
        return convert(*args)
    except (MixedFracError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    dimension: int
    s: float
    omega: Domain1D
    family: PartitionFamily
    k_list: tuple
    disc: DiscParams
    solver: SolverParams
    outputs: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _require_keys(d, {"schema", "order", "omega", "family", "discretization",
                          "solver", "outputs", "verify"},
                      {"schema", "order", "omega", "family", "discretization"},
                      "config")
        if d["schema"] != 1:
            raise ConfigError(f"unsupported schema {d['schema']!r}")
        _require_keys(d["order"], {"dimension", "s"}, {"dimension", "s"}, "order")
        _require_keys(d["omega"], {"a", "b"}, {"a", "b"}, "omega")
        _require_keys(d["family"], {"kind", "params", "k_list"}, {"kind", "k_list"},
                      "family")
        _require_keys(d["discretization"], {"h", "L", "scheme"}, {"h", "L", "scheme"},
                      "discretization")
        solver_d = d.get("solver", {})
        _require_keys(solver_d, {"tol", "max_iter"}, set(), "solver")
        outputs = d.get("outputs", {})
        _require_keys(outputs, {"csv", "json", "plotdata"}, set(), "outputs")
        verify = d.get("verify", {})
        _require_keys(verify, {"gauss", "farfield", "conditionC", "measures"},
                      set(), "verify")
        order_d, omega_d, family_d, disc_d = (
            d[key] for key in ("order", "omega", "family", "discretization"))
        omega = _at("omega", Domain1D, _at("omega.a", _finite, omega_d["a"]),
                    _at("omega.b", _finite, omega_d["b"]))
        family = _at("family", PartitionFamily, family_d["kind"], omega,
                     _at("family.params", dict, family_d.get("params", {})))
        k_list = _at("family.k_list", lambda ks: tuple(map(_integer, ks)),
                     family_d["k_list"])
        disc = DiscParams(h=_at("discretization.h", _finite, disc_d["h"]),
                          L=_at("discretization.L", _finite, disc_d["L"]),
                          scheme=str(disc_d["scheme"]))
        solver = SolverParams(
            tol=_at("solver.tol", _finite, solver_d.get("tol", 1e-12)),
            max_iter=_at("solver.max_iter", _integer, solver_d.get("max_iter", 500)))
        dimension = _at("order.dimension", _integer, order_d["dimension"])
        s = _at("order.s", _finite, order_d["s"])
        for ok, path, need, value in (
                (len(k_list) > 0, "family.k_list", "nonempty", k_list),
                (solver.tol > 0, "solver.tol", "> 0", solver.tol),
                (solver.max_iter >= 1, "solver.max_iter", ">= 1", solver.max_iter),
                (dimension == 1, "order.dimension", "1 (the solver is 1D)", dimension),
                (0 < s < 1, "order.s", "in (0, 1)", s)):
            if not ok:
                raise ConfigError(f"{path} must be {need}, got {value!r}")
        return cls(dimension=dimension, s=s, omega=omega, family=family,
                   k_list=k_list, disc=disc, solver=solver, outputs=dict(outputs),
                   verify=dict(verify), raw=d)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                d = json.load(f)
        except (OSError, ValueError) as exc:      # JSONDecodeError is a ValueError
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        return cls.from_dict(d)

    def validate(self) -> None:
        """Check every referenced parameter combination before any solve."""
        from .assembly import build_mesh
        order = make_order(self.dimension, self.s)
        for k in self.k_list:
            try:
                part = generate(self.family, k)
                build_mesh(self.omega, part, self.disc.h, self.disc.L,
                           self.disc.scheme, order=order)
            except MixedFracError as exc:
                raise ConfigError(f"k = {k}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentRecord:
    k: int
    param: float
    lambda1: float
    baseline: float
    gap: float
    measN_R: float            # at R = 2 |Omega| (CSV column)
    measD_R: float
    measN_R8: float           # at R = 8 |Omega| (JSON only)
    measD_R8: float
    condC: float
    sep: float
    gauss_res: float
    iters: int
    h: float
    L: float
    ms: float
    converged: bool           # JSON only, like flagged_zero
    flagged_zero: bool
    error: str | None = None


@dataclass(frozen=True)
class RunResult:
    records: tuple
    baseline: float
    fits: dict
    n_failed: int
    farfield_slopes: dict = field(default_factory=dict)


def _record_from_result(cfg: ExperimentConfig, k: int, res: EigenResult,
                        baseline: float, ms: float) -> ExperimentRecord:
    diag = res.diagnostics
    want = cfg.verify
    nan = math.nan
    gauss = nan
    if want.get("gauss", True):
        # absolute Gauss-identity defect; zero up to the far-field Dirichlet
        # tail (bounded by tail_mass(L) |u|_inf)
        gauss = gauss_residual(res.u.system, res.u.values)
    with_meas = want.get("measures", True)
    return ExperimentRecord(
        k=k, param=family_param(cfg.family, k), lambda1=res.lambda1,
        baseline=baseline, gap=baseline - res.lambda1,
        measN_R=diag.get("measure_N_R2", nan) if with_meas else nan,
        measD_R=diag.get("measure_D_R2", nan) if with_meas else nan,
        measN_R8=diag.get("measure_N_R8", nan) if with_meas else nan,
        measD_R8=diag.get("measure_D_R8", nan) if with_meas else nan,
        condC=diag.get("condition_C", nan) if want.get("conditionC", True) else nan,
        sep=diag.get("separation_D", nan),
        gauss_res=gauss, iters=res.iterations,
        h=cfg.disc.h, L=cfg.disc.L, ms=ms, converged=res.converged,
        flagged_zero=res.flagged_zero)


def _failed_record(cfg: ExperimentConfig, k: int, ms: float, err: str) -> ExperimentRecord:
    nan = math.nan
    return ExperimentRecord(k=k, param=family_param(cfg.family, k), lambda1=nan,
                            baseline=nan, gap=nan, measN_R=nan, measD_R=nan,
                            measN_R8=nan, measD_R8=nan, condC=nan, sep=nan,
                            gauss_res=nan, iters=0, h=cfg.disc.h, L=cfg.disc.L,
                            ms=ms, converged=False, flagged_zero=False, error=err)


def run(cfg: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Solve one record per k; the Dirichlet baseline is solved once per mesh."""
    cfg.validate()
    order = make_order(cfg.dimension, cfg.s)
    # baseline first: warms the cached label-independent base matrix
    base_res = dirichlet_baseline(cfg.omega, order, cfg.disc, cfg.solver)
    # no gap is measured against an unconverged baseline: every record fails
    baseline = base_res.lambda1 if base_res.converged else math.nan

    want_farfield = cfg.verify.get("farfield", False)
    farfield_slopes = {}

    def solve_one(k: int) -> ExperimentRecord:
        t0 = time.perf_counter()
        try:
            part = generate(cfg.family, k)
            res = solve_mixed(cfg.omega, part, order, cfg.disc, cfg.solver)
            if want_farfield:
                rep = farfield_rate(res.u, np.logspace(1.0, 3.0, 9))
                farfield_slopes[k] = rep.slope
            ms = 1e3 * (time.perf_counter() - t0)
            return _record_from_result(cfg, k, res, baseline, ms)
        except MixedFracError as exc:
            ms = 1e3 * (time.perf_counter() - t0)
            return _failed_record(cfg, k, ms, f"{type(exc).__name__}: {exc}")

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(solve_one, cfg.k_list))
    else:
        records = [solve_one(k) for k in cfg.k_list]
    records.sort(key=lambda r: r.k)

    fits = {}
    # errored records and those stopped at max_iter carry no trustworthy lambda
    good = [r for r in records if r.error is None and r.converged and base_res.converged]
    try:
        fits["gap_vs_param"] = fit_rate(good, "param", "gap")
    except DegenerateData:
        pass
    n_failed = len(records) - len(good)
    return RunResult(records=tuple(records), baseline=baseline, fits=fits,
                     n_failed=n_failed,
                     farfield_slopes=dict(sorted(farfield_slopes.items())))


def fit_rate(records, x_field: str, y_field: str):
    """Least-squares log-log fit over records: (slope, intercept, r_squared).

    Requires at least 4 records with strictly positive x and y; raises
    DegenerateData otherwise.
    """
    xs, ys = [], []
    for r in records:
        x = getattr(r, x_field) if not isinstance(r, dict) else r[x_field]
        y = getattr(r, y_field) if not isinstance(r, dict) else r[y_field]
        if x is not None and y is not None and x > 0 and y > 0 \
                and math.isfinite(x) and math.isfinite(y):
            xs.append(math.log(x))
            ys.append(math.log(y))
    if len(xs) < 4:
        raise DegenerateData(f"need >= 4 positive records, have {len(xs)}")
    xs = np.array(xs)
    ys = np.array(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit(result: RunResult, cfg: ExperimentConfig, out_dir=None) -> dict:
    """Write CSV / JSON summary / plotdata as configured; returns the paths.

    The CSV is byte-deterministic for identical configs except the ms
    column; the JSON summary carries the config echo, fits, per-record
    errors, and an environment stamp.
    """
    import os

    paths = {}
    out = cfg.outputs
    if not out:
        return paths

    def resolve(p):
        full = os.path.join(out_dir, p) if out_dir else p
        parent = os.path.dirname(full)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return full

    if "csv" in out:
        path = resolve(out["csv"])
        lines = [CSV_HEADER]
        for r in result.records:
            lines.append(",".join(_fmt(v) for v in (
                r.k, r.param, r.lambda1, r.baseline, r.gap, r.measN_R, r.measD_R,
                r.condC, r.sep, r.gauss_res, r.iters, r.h, r.L, r.ms)))
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        paths["csv"] = path
    if "json" in out:
        path = resolve(out["json"])
        payload = {
            "config": cfg.raw,
            "baseline": result.baseline,
            "n_records": len(result.records),
            "n_failed": result.n_failed,
            "fits": {k: {"slope": v[0], "intercept": v[1], "r2": v[2]}
                     for k, v in result.fits.items()},
            "farfield_slopes": {str(k): v
                                for k, v in result.farfield_slopes.items()},
            "records": [asdict(r) for r in result.records],
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "platform": platform.platform(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        paths["json"] = path
    if "plotdata" in out:
        path = resolve(out["plotdata"])
        with open(path, "w", encoding="utf-8") as f:
            f.write("# k param lambda1 baseline gap\n")
            for r in result.records:
                f.write(f"{r.k} {_fmt(r.param)} {_fmt(r.lambda1)} "
                        f"{_fmt(r.baseline)} {_fmt(r.gap)}\n")
        paths["plotdata"] = path
    return paths

