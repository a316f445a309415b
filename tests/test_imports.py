"""What the library loads: neither ``scipy.stats`` nor ``scipy.optimize``
comes into a whole static experiment and its report. ``scipy.stats`` is the
heaviest scipy subpackage to import (it pulls in ``integrate``,
``interpolate`` and ``ndimage``); the ``scipy.optimize`` package pulls in
``sparse``, ``spatial``, ``fft`` and ``constants``. The library needs none
of it: ``gp`` loads the one compiled L-BFGS-B file it calls on its own."""

import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from tlbo import gp

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys, tempfile
import tlbo
from tlbo import bench

tasks = bench.make_synthetic_family(bench.SyntheticFamilySpec(base="branin", n_tasks=2, seed=0))
result = bench.run_static(tasks, ["transbo", "random"], budget=4, seeds=1, n_s=8, n_candidates=50)
with tempfile.TemporaryDirectory() as out:
    assert bench.report(result, out)
for package in ("scipy.stats", "scipy.optimize"):
    loaded = sorted(m for m in sys.modules if m == package or m.startswith(package + "."))
    assert not loaded, loaded
"""


def _run(script):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_static_run_and_report_do_not_load_scipy_stats():
    """Nor ``scipy.optimize``: the script checks both packages."""
    _run(SCRIPT)


def test_lbfgsb_is_the_file_scipy_optimize_loads():
    """The L-BFGS-B module ``gp`` calls is the file that ``minimize``, and so
    the bitwise ``lbfgsb-vs-minimize`` oracle, runs, when ``scipy.optimize``
    is imported after ``gp``."""
    _run(
        "import sys\n"
        "from tlbo import gp\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "import scipy.optimize._lbfgsb\n"
        "assert gp._lbfgsb.__file__ == scipy.optimize._lbfgsb.__file__, "
        "(gp._lbfgsb.__file__, scipy.optimize._lbfgsb.__file__)\n"
    )


def test_missing_lbfgsb_file_names_the_directory_searched(tmp_path, monkeypatch):
    monkeypatch.setattr(gp, "scipy", SimpleNamespace(__file__=str(tmp_path / "__init__.py")))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "optimize"))):
        gp._load_lbfgsb()
