"""Every script under demos/ runs to completion.

Each demo runs in its own interpreter with the BLAS thread pools pinned to
one thread, as the benchmark runs the solver, and with RuntimeWarning as an
error: the warnings policy in pyproject.toml reaches only the pytest process,
and a nan or overflow in a demo should fail as it fails in a test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
           PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                    os.environ.get("PYTHONPATH")))))


# demos that write files; they take --out, so the test keeps the checkout clean
WRITERS = {"04_moving_neumann.py", "05_dissipating_dirichlet.py"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    out = ["--out", str(tmp_path)] if demo.name in WRITERS else []
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo), *out],
                          env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    if out:
        assert any(tmp_path.iterdir())
