"""Host record, process memory and the in-process NumPy/SciPy floors."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List

#: Repeats of each floor (median reported).
FLOOR_REPS = 3

#: Pinned into every process the benchmark starts (and into its own).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def launch(argv: List[str], root: Path, env: dict, timeout: float,
           stdin: bool = False):
    """Start ``argv`` in ``root``; ``(process, its first stdout line)``.

    A process that prints nothing within ``timeout`` seconds is killed.
    """
    proc = subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        stdin=subprocess.PIPE if stdin else subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        return proc, proc.stdout.readline()
    finally:
        watchdog.cancel()


def vm_hwm_mib(pid="self") -> float:
    """Peak resident set (VmHWM) of one process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (children first)."""
    out: List[int] = []
    todo = [pid]
    while todo:
        parent = todo.pop()
        for task in Path(f"/proc/{parent}/task").glob("*"):
            try:
                kids = (task / "children").read_text().split()
            except OSError:
                continue
            for kid in map(int, kids):
                out.append(kid)
                todo.append(kid)
    return out


def host_record() -> Dict[str, object]:
    """nproc, BLAS vendor/version/threads and interpreter/library versions."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def floors(n: int) -> Dict[str, float]:
    """Median seconds of SciPy ``lu_factor`` and NumPy ``matmul`` at ``n``."""
    import numpy as np
    from scipy.linalg import lu_factor

    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    lu_s, mm_s = [], []
    for _ in range(FLOOR_REPS):
        t0 = time.perf_counter()
        lu_factor(a)
        lu_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        a @ b
        mm_s.append(time.perf_counter() - t0)
    return {"floor.lu_factor_s": statistics.median(lu_s),
            "floor.matmul_s": statistics.median(mm_s)}
