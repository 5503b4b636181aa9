"""Command-line interface.

Subcommands: solve (single partition), sweep (family), baseline, verify
(identity suite), efr (scaling oracle for the tangent-ball distance
integral), dini (integrability checker).  Exit codes: 0 full success, 2
partial per-record failure or a non-converged baseline, 1 on configuration
errors.

``--seed`` is accepted everywhere for interface stability and ignored: the
solver pipeline is deterministic (the verify suite uses a fixed seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import experiments
from .assembly import assemble, brute_force_energy, build_mesh
from .eigensolver import dirichlet_baseline, richardson_extrapolate
from .errors import ConfigError, DivergentIntegral, MixedFracError
from .fracops import KernelOrder, ModulusOfContinuity, dini_check, make_order
from .geometry import Domain1D
from .nonlocal_ops import (
    e_of_r,
    gauss_residual_relative,
    parts_residual_relative,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config path")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="worker threads for sweeps")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted for interface stability; unused (deterministic)")


def _load_config(args) -> experiments.ExperimentConfig:
    if not args.config:
        raise ConfigError("--config is required for this subcommand")
    return experiments.ExperimentConfig.from_file(args.config)


def _ensure_out(args) -> str | None:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    return args.out


def _not_converged(converged: bool, iters: int) -> str:
    return "" if converged else f" NOT CONVERGED ({iters} iterations)"


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    cfg1 = dataclasses.replace(cfg, k_list=cfg.k_list[:1])
    result = experiments.run(cfg1, jobs=1)
    r = result.records[0]
    if r.error:
        print(f"k={r.k}: FAILED ({r.error})")
        return 2
    print(f"k={r.k} param={r.param:g} lambda1={r.lambda1:.10f} "
          f"baseline={r.baseline:.10f} gap={r.gap:.3e} iters={r.iters}"
          f"{_not_converged(r.converged, r.iters)}")
    experiments.emit(result, cfg1, out_dir=_ensure_out(args))
    return 2 if result.n_failed else 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    result = experiments.run(cfg, jobs=max(1, args.jobs))
    paths = experiments.emit(result, cfg, out_dir=_ensure_out(args))
    for r in result.records:
        status = f"FAILED ({r.error})" if r.error else (
            f"lambda1={r.lambda1:.10f} gap={r.gap:.3e}"
            f"{_not_converged(r.converged, r.iters)}")
        print(f"k={r.k} param={r.param:g} {status}")
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    if "gap_vs_param" in result.fits:
        sl, ic, r2 = result.fits["gap_vs_param"]
        print(f"gap ~ param^{sl:.3f} (r2 = {r2:.4f})")
    return 2 if result.n_failed else 0


def cmd_baseline(args) -> int:
    cfg = _load_config(args)
    order = make_order(cfg.dimension, cfg.s)
    try:
        hs = [float(t) for t in args.richardson.split(",")] if args.richardson else [cfg.disc.h]
    except ValueError as exc:
        raise ConfigError(f"--richardson: {exc}") from exc
    if args.richardson and len(hs) != 3:
        raise ConfigError("--richardson needs three comma-separated h values")
    results = []
    for h in hs:
        res = dirichlet_baseline(cfg.omega, order, dataclasses.replace(cfg.disc, h=h),
                                 cfg.solver)
        results.append(res)
        detail = "" if args.richardson else \
            f" (iters {res.iterations}, residual {res.rq_residual:.2e})"
        print(f"h={h:g}: lambda1 = {res.lambda1:.10f}{detail}"
              f"{_not_converged(res.converged, res.iterations)}")
    if not all(res.converged for res in results):
        return 2
    if args.richardson:
        limit, rate = richardson_extrapolate(hs, [res.lambda1 for res in results])
        print(f"extrapolated lambda1 = {limit:.10f} (rate {rate:.3f})")
    return 0


def cmd_verify(args) -> int:
    """Identity suite: symmetry, constants in the kernel of K, Gauss and
    integration-by-parts residuals, brute-force pair-bookkeeping oracle."""
    if args.config:
        cfg = _load_config(args)
        omega, s = cfg.omega, cfg.s
        h, L, scheme = cfg.disc.h, cfg.disc.L, cfg.disc.scheme
    else:
        omega, s, h, L, scheme = Domain1D(-1.0, 1.0), 0.5, 0.05, 8.0, "P1"
    order = make_order(1, s)
    from .geometry import ExteriorPartition, ExteriorSet, _complement_in_exterior
    neumann = _complement_in_exterior(omega, ExteriorSet())
    part = ExteriorPartition(omega=omega, dirichlet=ExteriorSet(), neumann=neumann)
    mesh = build_mesh(omega, part, h, L, scheme, order=order)
    system = assemble(mesh, order)
    ok = True

    # K_IE enters both triangles and K_EE is stored once: only K_II can be asymmetric
    asym = float(np.max(np.abs(system.K_II - system.K_II.T)))
    line = "PASS" if asym == 0.0 else "FAIL"
    ok &= asym == 0.0
    print(f"{line} symmetry: max|K - K'| = {asym:.1e}")

    ones = np.ones(system.n_free)
    k_max = max(np.abs(b).max(initial=0.0) for b in (system.K_II, system.K_IE, system.K_EE))
    k1 = float(np.max(np.abs(system.matvec(ones)))) / k_max
    good = k1 <= 1e-12
    ok &= good
    print(f"{'PASS' if good else 'FAIL'} constants: |K 1|/|K| = {k1:.2e}")

    rng = np.random.default_rng(0)
    worst_g = worst_p = 0.0
    for _ in range(10):
        u = rng.standard_normal(system.n_free)
        v = rng.standard_normal(system.n_free)
        worst_g = max(worst_g, gauss_residual_relative(system, u))
        worst_p = max(worst_p, parts_residual_relative(system, u, v))
    good = worst_g <= 1e-12 and worst_p <= 1e-12
    ok &= good
    print(f"{'PASS' if good else 'FAIL'} gauss/parts residuals: "
          f"{worst_g:.2e} / {worst_p:.2e} (tol 1e-12)")

    small = build_mesh(omega, part, omega.length / 4.0, 4 * omega.length,
                       scheme, order=order)
    ssys = assemble(small, order)
    worst_bf = 0.0
    for _ in range(3):
        u = rng.standard_normal(ssys.n_free)
        exact = float(u @ ssys.matvec(u))
        brute = brute_force_energy(ssys, u)
        worst_bf = max(worst_bf, abs(exact - brute) / max(abs(exact), 1e-300))
    good = worst_bf <= 1e-10
    ok &= good
    print(f"{'PASS' if good else 'FAIL'} brute-force pair sum: rel diff {worst_bf:.2e}")
    return 0 if ok else 2


def cmd_efr(args) -> int:
    exps = range(args.rmin_exp, args.rmax_exp + 1)
    if len(exps) < 2:
        raise ConfigError("--rmin-exp must be below --rmax-exp: the slope needs two radii")
    try:
        rows = [(2.0 ** -j, e_of_r(2.0 ** -j, args.s, dimension=args.dimension))
                for j in exps]
    except DivergentIntegral as exc:
        print(f"DivergentIntegral: {exc}")
        return 0
    for r, val in rows:
        print(f"r=2^-{int(-math.log2(r))}: E(r) = {val:.10e}  "
              f"E/r^(N-2s) = {val / r ** (args.dimension - 2 * args.s):.10e}")
    xs = np.log([r for r, _ in rows])
    ys = np.log([v for _, v in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    print(f"log-log slope = {slope:.4f} (N - 2s = {args.dimension - 2 * args.s:.4f})")
    return 0


def _parse_spec(spec: str, cls, *named: str):
    """cls.power(x) for 'power:x', cls.from_table for 'table:t:v,t:v,...',
    and cls.<name>() for a bare name listed in named."""
    kind, _, arg = spec.partition(":")
    try:
        if spec in named:
            return getattr(cls, spec)()
        if kind == "power":
            return cls.power(float(arg))
        if kind == "table":
            pairs = [tuple(map(float, p.split(":"))) for p in arg.split(",")]
            return cls.from_table([t for t, _ in pairs], [v for _, v in pairs])
    except (MixedFracError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__} spec {spec!r}: {exc}") from exc
    raise ConfigError(f"cannot parse {cls.__name__} spec {spec!r}")


def cmd_dini(args) -> int:
    omega0 = _parse_spec(args.omega0, ModulusOfContinuity, "log_spine")
    kernel = _parse_spec(args.kernel, KernelOrder)
    res = dini_check(omega0, kernel)
    if res.converges:
        print(f"Finite({res.value:.10g})  [exponent {res.exponent:.4g}]")
    else:
        print(f"Divergent  [exponent {res.exponent:.4g}]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mixedfrac",
        description="Mixed exterior-data fractional eigenvalue laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a single partition (first k of the config)")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run a family sweep and emit outputs")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("baseline", help="all-Dirichlet principal eigenvalue")
    _add_common(p)
    p.add_argument("--richardson", type=str, default=None,
                   help="three comma-separated h values for extrapolation")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("verify", help="run the matrix-identity suite")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("efr", help="tangent-ball distance-integral scaling oracle")
    _add_common(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--rmin-exp", type=int, default=3, help="smallest r is 2^-rmax_exp")
    p.add_argument("--rmax-exp", type=int, default=8)
    p.set_defaults(func=cmd_efr)

    p = sub.add_parser(
        "dini", help="integrability classifier for modulus/kernel pairs",
        description="Classify int_0^1 omega0(t)/t Psi(1/t) dt as finite or divergent. "
                    "Both inputs take table:t:v,t:v,... with >= 3 samples at distinct "
                    "t, every t and v positive and finite, v nondecreasing in t.")
    _add_common(p)
    p.add_argument("--omega0", type=str, required=True,
                   help="power:BETA (BETA > 0) | log_spine | table:t:v,t:v,...")
    p.add_argument("--kernel", type=str, required=True,
                   help="power:ALPHA (ALPHA > 0) | table:t:v,t:v,...")
    p.set_defaults(func=cmd_dini)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MixedFracError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
