"""What a result was measured on: cores, BLAS threads in effect, versions,
the code under test, and a fixed reference kernel that shows machine drift.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

# Symbol suffixes of the scipy-openblas builds bundled with numpy (64-bit
# integers) and scipy (32-bit integers).
_OPENBLAS_SUFFIXES = ("64_", "")


def _openblas(package) -> dict | None:
    """Threads in effect and build string of a package's bundled OpenBLAS,
    read through ctypes because threadpoolctl is not available."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for suffix in _OPENBLAS_SUFFIXES:
            try:
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return {"threads": get_threads(), "config": get_config().decode(), "library": path.name}
    return None


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def reference_kernel_ms(repeats: int = 11) -> float:
    """Median time of a fixed kernel shaped like the optimizer's work: one
    200x200 Cholesky factorization and a loop of small-array numpy calls.
    It runs no library code, so a change in it is a change of the machine."""
    rng = np.random.default_rng(20220606)
    a = rng.standard_normal((200, 200))
    spd = a @ a.T + 200.0 * np.eye(200)
    v0 = rng.random(8)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.linalg.cholesky(spd)
        v = v0
        for _ in range(1000):
            v = np.maximum(v - 0.001 * np.sort(v), 0.0) + 1e-3
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def describe(root: Path, blas_env, cpus) -> dict:
    return {
        "cores": len(cpus),
        "pinned_to": sorted(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in blas_env},
        "openblas_numpy": _openblas(np),
        "openblas_scipy": _openblas(scipy),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "ref_kernel_ms": reference_kernel_ms(),
    }
