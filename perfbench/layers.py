"""Which mixedfrac calls the traced run wraps, and the per-layer metrics they give.

Each layer is a module of ``src/mixedfrac/``.  A wrapper goes on the name
in the namespace of the module that makes the call, because the callers
bound those names at import time.  ``validate`` and ``solve_mixed`` import
``build_mesh`` and ``gauss_residual`` inside the function body, so those
two are also wrapped where they are defined.
"""

from __future__ import annotations

import statistics
import threading
from collections import defaultdict

MODULES = ("fracops", "geometry", "assembly", "eigensolver", "nonlocal_ops", "experiments")

# (calling module, public name, span name); a span is named after the
# module that defines the function, which is the layer it belongs to
WRAPS = (
    ("experiments", "make_order", "fracops.make_order"),
    ("experiments", "ExperimentConfig.validate", "experiments.validate"),
    ("experiments", "generate", "geometry.generate"),
    ("experiments", "dirichlet_baseline", "eigensolver.dirichlet_baseline"),
    ("experiments", "solve_mixed", "eigensolver.solve_mixed"),
    ("experiments", "gauss_residual", "nonlocal_ops.gauss_residual"),
    ("experiments", "farfield_rate", "nonlocal_ops.farfield_rate"),
    ("assembly", "build_mesh", "assembly.build_mesh"),
    ("eigensolver", "build_mesh", "assembly.build_mesh"),
    ("eigensolver", "assemble", "assembly.assemble"),
    ("eigensolver", "schur_reduce", "eigensolver.schur_reduce"),
    ("eigensolver", "smallest_eigenpair", "eigensolver.smallest_eigenpair"),
    ("eigensolver", "separation", "geometry.separation"),
    ("eigensolver", "condition_C", "geometry.condition_C"),
    ("eigensolver", "measure_in_ball", "geometry.measure_in_ball"),
    ("nonlocal_ops", "gauss_residual", "nonlocal_ops.gauss_residual"),
)

# spans the benchmark opens around its own calls
RUN, EMIT, MAKE_ORDER = "experiments.run", "experiments.emit", "fracops.make_order"

GEOMETRY = ("geometry.generate", "geometry.separation", "geometry.condition_C",
            "geometry.measure_in_ball")
SOLVE = ("eigensolver.solve_mixed", "eigensolver.dirichlet_baseline")

UNITS = {
    "fracops.make_order_ms": "ms",
    "geometry.generate_ms": "ms",
    "assembly.build_mesh_ms": "ms",
    "assembly.assemble_cold_ms": "ms",
    "assembly.assemble_warm_ms": "ms",
    "assembly.operator_mb": "MiB",
    "eigensolver.schur_reduce_ms": "ms",
    "eigensolver.reduction_mb": "MiB",
    "eigensolver.eigenpair_ms": "ms",
    "eigensolver.iterations": "count",
    "eigensolver.solve_self_ms": "ms",
    "nonlocal_ops.gauss_residual_ms": "ms",
    "nonlocal_ops.gauss_residual_calls": "count",
    "nonlocal_ops.farfield_ms": "ms",
    "experiments.validate_ms": "ms",
    "experiments.emit_ms": "ms",
    "experiments.run_self_ms": "ms",
    **{f"{m}.self_share": "ratio" for m in MODULES},
    "trace.accounted_share": "ratio",
    "trace.overhead_share": "ratio",
}

# metrics taken as the maximum over traced repetitions, not the median
MAXIMA = ("assembly.operator_mb", "eigensolver.reduction_mb")


def _nbytes(obj, *names) -> int:
    return sum(getattr(getattr(obj, n, None), "nbytes", 0) for n in names)


def resolve(modules: dict, module: str, path: str):
    """(namespace, attribute) that a WRAPS entry names; the namespace may be None."""
    owner = modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner, attr


def install(tracer, modules: dict) -> list[str]:
    """Wrap every name in WRAPS that exists; returns the names that do not."""
    seen_meshes = set()
    lock = threading.Lock()

    def on_assemble(sp, args, kwargs, system):
        disc = args[0] if args else kwargs.get("disc")
        order = args[1] if len(args) > 1 else kwargs.get("order")
        key = tuple(getattr(disc, a, None) for a in ("omega", "h", "L", "scheme")) \
            + (getattr(order, "s", None),)
        with lock:
            sp.attrs["cold"] = key not in seen_meshes
            seen_meshes.add(key)
        sp.attrs["bytes"] = _nbytes(system, "K", "M")

    def on_schur(sp, args, kwargs, red):
        sp.attrs["bytes"] = _nbytes(red, "K_eff", "K_IE")

    def on_eigenpair(sp, args, kwargs, pair):
        sp.attrs["iterations"] = getattr(pair, "iterations", 0)

    hooks = {"assembly.assemble": on_assemble, "eigensolver.schur_reduce": on_schur,
             "eigensolver.smallest_eigenpair": on_eigenpair}
    absent = []
    for module, path, name in WRAPS:
        owner, attr = resolve(modules, module, path)
        if not tracer.wrap(owner, attr, name, hooks.get(name)):
            absent.append(f"{module}.{path}")
    return absent


def summarize(tracer, sweep_s: float) -> dict:
    """Per-layer metrics of one traced repetition whose run and emit calls took sweep_s."""
    by_id = {sp.sid: sp for sp in tracer.spans}
    by_name = defaultdict(list)
    for sp in tracer.spans:
        by_name[sp.name].append(sp)
    self_t = tracer.self_times()

    def top(sp):
        while sp.parent is not None:
            sp = by_id[sp.parent]
        return sp.name

    def ms(*names):
        return 1e3 * sum(sp.duration for n in names for sp in by_name[n])

    def self_ms(*names):
        return 1e3 * sum(self_t[sp.sid] for n in names for sp in by_name[n])

    assemble = by_name["assembly.assemble"]
    warm = [1e3 * sp.duration for sp in assemble if not sp.attrs["cold"]]
    schur = by_name["eigensolver.schur_reduce"]
    gauss = by_name["nonlocal_ops.gauss_residual"]
    values = {
        "fracops.make_order_ms": (MAKE_ORDER, ms(MAKE_ORDER)),
        "geometry.generate_ms": (GEOMETRY, ms(*GEOMETRY)),
        "assembly.build_mesh_ms": ("assembly.build_mesh", ms("assembly.build_mesh")),
        "assembly.assemble_cold_ms": (
            "assembly.assemble",
            1e3 * sum(sp.duration for sp in assemble if sp.attrs["cold"])),
        "assembly.assemble_warm_ms": (
            "assembly.assemble", statistics.median(warm) if warm else 0.0),
        "assembly.operator_mb": (
            "assembly.assemble", max((sp.attrs["bytes"] for sp in assemble), default=0) / 2**20),
        "eigensolver.schur_reduce_ms": ("eigensolver.schur_reduce",
                                        ms("eigensolver.schur_reduce")),
        "eigensolver.reduction_mb": (
            "eigensolver.schur_reduce",
            max((sp.attrs["bytes"] for sp in schur), default=0) / 2**20),
        "eigensolver.eigenpair_ms": ("eigensolver.smallest_eigenpair",
                                     ms("eigensolver.smallest_eigenpair")),
        "eigensolver.iterations": (
            "eigensolver.smallest_eigenpair",
            sum(sp.attrs["iterations"] for sp in by_name["eigensolver.smallest_eigenpair"])),
        "eigensolver.solve_self_ms": (SOLVE, self_ms(*SOLVE)),
        "nonlocal_ops.gauss_residual_ms": ("nonlocal_ops.gauss_residual",
                                           ms("nonlocal_ops.gauss_residual")),
        "nonlocal_ops.gauss_residual_calls": ("nonlocal_ops.gauss_residual", len(gauss)),
        "nonlocal_ops.farfield_ms": ("nonlocal_ops.farfield_rate",
                                     ms("nonlocal_ops.farfield_rate")),
        "experiments.validate_ms": ("experiments.validate", ms("experiments.validate")),
        "experiments.emit_ms": (EMIT, ms(EMIT)),
        "experiments.run_self_ms": (RUN, self_ms(RUN)),
    }
    present = tracer.installed | ({RUN, EMIT, MAKE_ORDER} & set(by_name))
    out = {}
    for metric, (needs, value) in values.items():
        needs = (needs,) if isinstance(needs, str) else needs
        if present.intersection(needs):
            out[metric] = value

    # self-time shares count only the spans inside the run and emit calls
    layer_self = dict.fromkeys(MODULES, 0.0)
    for sp in tracer.spans:
        if top(sp) in (RUN, EMIT):
            layer = sp.name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_t[sp.sid]
    for layer in MODULES:
        out[f"{layer}.self_share"] = layer_self[layer] / sweep_s
    out["trace.accounted_share"] = sum(layer_self.values()) / sweep_s
    return out
