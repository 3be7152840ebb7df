"""Machine-speed calibration.

The machines this benchmark runs on are shared, and their speed drifts by
up to ~1.8x over seconds to minutes, which moves every wall time of a run.
So each measurement is paired with a fixed job that does not involve ltivp,
timed right next to it, and scaled to a nominal machine:

  * `kernel`, pure-Python work (a complex recurrence and a churn of small
    dicts, tuples and lists with a sort), runs right after every route call
    of a timed pass; KERNEL_NOMINAL_S over its time near a call scales that
    call's time.
    Both routes, even the numpy-heavy evaluation on a
    10,000-point grid, slow down about as much as pure Python does when the
    machine is busy (a log-log slope of 0.85-0.97 on a shared 2-vCPU Xeon
    virtual machine), while numpy-bound jobs slow down more than the routes
    (slope 0.6-0.75) and so over-correct;
  * a fresh interpreter that imports numpy and scipy.linalg (IMPORT_JOB)
    runs before the set-up probes and CLI runs and after every second one;
    IMPORT_NOMINAL_S over the mean of the two around a probe or run scales
    it.

The nominal values are fixed constants, so parent and change are scaled to
the same machine; the unscaled figures are kept in each run's report.
"""

import subprocess
import sys
import time

KERNEL_NOMINAL_S = 0.55e-3
IMPORT_NOMINAL_S = 0.35
IMPORT_JOB = "import numpy, scipy.linalg"


def kernel() -> int:
    acc = 0j
    z = 0.3 + 0.2j
    for i in range(1500):
        acc = acc * z + (i & 7)
    items = [{"a": i, "b": (i, 2 * i), "c": [i] * 3} for i in range(600)]
    items.sort(key=lambda e: -e["a"])
    return sum(e["b"][1] for e in items) + int(acc.real)


def sample() -> float:
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def child_sample(env: dict, cwd, timeout: float) -> float:
    """Seconds a fresh interpreter takes to run IMPORT_JOB now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_JOB], env=env, cwd=cwd, capture_output=True,
                   timeout=timeout, check=True)
    return time.perf_counter() - t0
