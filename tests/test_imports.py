"""What the library loads: no scipy module at all, through a whole static
experiment and its report, nor through the CLI up to ``report``. Loading a
scipy subpackage runs its ``__init__``: ``scipy.optimize`` pulls in
``sparse``, ``spatial``, ``fft`` and ``constants``, and ``scipy.linalg`` and
``scipy.special`` together are over a hundred modules. The library needs
three compiled files, which ``gp._scipy_extension`` loads on their own:
``optimize/_lbfgsb``, ``linalg/_flapack`` and ``special/_special_ufuncs``.
The self-test's ``oracles`` is the one module that imports scipy."""

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
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""

CLI_SCRIPT = """
import sys, tempfile
from pathlib import Path
import tlbo.cli
from tlbo import bench

tasks = bench.make_synthetic_family(bench.SyntheticFamilySpec(base="branin", n_tasks=2, seed=0))
result = bench.run_static(tasks, ["igp"], budget=3, seeds=1, n_s=4, n_candidates=20)
with tempfile.TemporaryDirectory() as tmp:
    result.save(Path(tmp) / "result")
    assert tlbo.cli.main(["report", str(Path(tmp) / "result"), str(Path(tmp) / "report")]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


LAZY_SCRIPT = """
import sys
import tlbo
from tlbo import bench

tasks = bench.make_synthetic_family(bench.SyntheticFamilySpec(base="branin", n_tasks=3, seed=0))
result = bench.run_static(tasks, ["transbo"], budget=8, seeds=1, n_s=8, n_candidates=50, targets=[0])
assert all(r["p_target"] is not None for run in result.runs.values() for r in run.records[5:])
loaded = sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith(("numpy.ma.", "multiprocessing")))
assert not loaded, loaded
"""


def _run(script):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_static_run_and_report_do_not_load_scipy_stats():
    """Nor any other scipy module: the script checks for ``scipy`` and every
    ``scipy.*`` name."""
    _run(SCRIPT)


def test_cli_and_report_do_not_load_scipy():
    """``tlbo.cli`` imports ``oracles``, and with it ``scipy.optimize``, only
    inside the self-test command."""
    _run(CLI_SCRIPT)


def test_static_transbo_run_loads_neither_numpy_ma_nor_multiprocessing():
    """``import tlbo`` and a serial ``transbo`` run with phase-2 solves: the
    phase-2 fallback's constant-history test does not call ``np.unique``,
    which imports ``numpy.ma``, and ``bench`` imports its process pool, and
    with it ``multiprocessing``, only for ``workers`` > 1."""
    _run(LAZY_SCRIPT)


def _same_file(attribute, module):
    """Runs a script that checks that the library's module ``attribute`` is
    the file that importing scipy's ``module`` afterwards loads."""
    _run(
        "import importlib, sys\n"
        "from tlbo import bo, gp\n"
        "assert 'scipy' not in sys.modules\n"
        f"ours, theirs = {attribute}.__file__, importlib.import_module({module!r}).__file__\n"
        "assert ours == theirs, (ours, theirs)\n"
    )


def test_lbfgsb_is_the_file_scipy_optimize_loads():
    """The L-BFGS-B module ``gp`` calls is the file that ``minimize``, and so
    the bitwise ``lbfgsb-vs-minimize`` oracle, runs, when ``scipy.optimize``
    is imported after ``gp``."""
    _same_file("gp._lbfgsb", "scipy.optimize._lbfgsb")


def test_flapack_is_the_file_scipy_linalg_loads():
    """The LAPACK of ``gp`` and the simplex solver is the file behind
    ``scipy.linalg``, which the likelihood oracles call."""
    _same_file("gp._flapack", "scipy.linalg._flapack")


def test_special_ufuncs_is_the_file_scipy_special_loads():
    """``bo``'s ``ndtr`` comes from the file behind ``scipy.special.ndtr``."""
    _same_file("bo._special_ufuncs", "scipy.special._special_ufuncs")


def test_missing_lbfgsb_file_names_the_directory_searched(tmp_path, monkeypatch):
    """With scipy found at a directory that lacks the file, the loader raises
    an ImportError naming the file and the directory searched, for each of
    the three files the library loads."""
    monkeypatch.setattr(gp, "find_spec", lambda _: SimpleNamespace(origin=str(tmp_path / "__init__.py")))
    for subpackage, name in (("optimize", "_lbfgsb"), ("linalg", "_flapack"), ("special", "_special_ufuncs")):
        with pytest.raises(ImportError, match=re.escape(f"{name} not found in {tmp_path / subpackage}")):
            gp._scipy_extension(subpackage, name)
