"""The benchmark's self-test passes against the current sources.

It checks that every name the benchmark's tracer wraps still exists and
that ``gauss_residual`` runs twice per record, so a refactor that renames
or moves a traced call fails here.  BLAS is pinned to one thread, as the
benchmark runs the solver.
"""

import subprocess
import sys

from test_demos import ENV, ROOT


def test_perfbench_selfcheck_ok():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
                          env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "selfcheck ok" in proc.stdout
