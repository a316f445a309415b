"""What the library loads: ``scipy.stats`` stays out of a whole static
experiment and its report. It is the heaviest scipy subpackage to import
(it pulls in ``integrate``, ``interpolate`` and ``ndimage``), and the
library needs none of it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys, tempfile
import tlbo
from tlbo import bench

tasks = bench.make_synthetic_family(bench.SyntheticFamilySpec(base="branin", n_tasks=2, seed=0))
result = bench.run_static(tasks, ["transbo", "random"], budget=4, seeds=1, n_s=8, n_candidates=50)
with tempfile.TemporaryDirectory() as out:
    assert bench.report(result, out)
loaded = sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats."))
assert not loaded, loaded
"""


def test_static_run_and_report_do_not_load_scipy_stats():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
