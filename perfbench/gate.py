"""Correctness gate: every record must be converged, bounded and on its reference.

references.json holds, per sweep, the Dirichlet baseline and the principal
eigenvalue for each k, measured at the commit that introduced the
benchmark (regenerate with refgen.py), and the relative tolerance ``rtol``
they are checked to.  Solves run to tol = 1e-13; rtol = 1e-9 admits
reordered sums and other last-digit changes, but not a changed answer.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as f:
        return json.load(f)


def _off(value: float, ref: float, rtol: float) -> bool:
    return not abs(value - ref) <= rtol * abs(ref)


def record_failure(rec: dict, refs: dict) -> str | None:
    """Why a record fails the gate, or None if it passes."""
    if rec["error"] is not None:
        return f"error: {rec['error']}"
    if rec["iters"] >= rec["max_iter"]:
        return f"not converged in {rec['max_iter']} iterations"
    lam, base = rec["lambda1"], rec["baseline"]
    if not 0.0 <= lam <= base:
        return f"lambda1 = {lam!r} outside [0, baseline = {base!r}]"
    sweep = refs["sweeps"].get(rec["sweep"])
    ref = sweep and sweep["lambda1"].get(str(rec["k"]))
    if ref is None:
        return "no reference"
    rtol = refs["rtol"]
    if _off(base, sweep["baseline"], rtol):
        return f"baseline {base!r} off reference {sweep['baseline']!r}"
    if _off(lam, ref, rtol):
        return f"lambda1 {lam!r} off reference {ref!r} (rel {abs(lam - ref) / abs(ref):.1e})"
    return None


def failures(records, refs: dict) -> list[str]:
    """One line per failed record."""
    out = []
    for rec in records:
        why = record_failure(rec, refs)
        if why is not None:
            out.append(f"{rec['sweep']} k={rec['k']}: {why}")
    return out
