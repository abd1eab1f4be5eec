"""Host-speed calibration: a fixed kernel timed between jobs.

The benchmark's host is shared.  Its speed moves by up to 2x within seconds
and drifts by tens of percent over minutes, with steal time near 0, so
neither CPU time nor more repeats remove the drift (README.md, "Machine
and noise").  A fixed kernel doing the kinds of work the program does --
Python float formatting and joining, small complex linear solves and
complex array arithmetic on a 2001-point grid -- is timed before the first
job of a round and after every job, so each job lies between two kernel
passes.  Their mean estimates the host's speed during the job.

``speed_factor`` turns the two into the factor by which the job's time is
scaled: times are reported in seconds at the host speed at which one
kernel pass takes ``REFERENCE_S``.  The kernel never calls
magnomech, so a change to the program cannot move it.

Set-up time (a fresh interpreter importing numpy and magnomech) does not
follow the kernel; it follows a fresh ``python3 -c "import numpy"``
(correlation 0.88 against 0.16), which ``import_sample`` times.  Set-up
times are reported at the host speed at which that takes
``IMPORT_REFERENCE_S``.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: Median time of one ``sample`` on the machine README.md describes.
REFERENCE_S = 0.005
#: Median time of one ``import_sample`` on that machine.
IMPORT_REFERENCE_S = 0.17

_rng = np.random.default_rng(12345)
_VALUES = [float(x) for x in _rng.standard_normal(2100) * 1e6]
_MATRIX = (_rng.standard_normal((12, 12))
           + 1j * _rng.standard_normal((12, 12)) + 8.0 * np.eye(12))
_RHS = np.ones(12, dtype=complex)
_GRID = np.linspace(0.0, 2.0, 2001)


def _kernel() -> float:
    lines = [",".join(format(x, ".17g") for x in _VALUES[i:i + 7])
             for i in range(0, len(_VALUES), 7)]
    acc = float(len("\n".join(lines)))
    for k in range(40):
        x = np.linalg.solve(_MATRIX, _RHS * (1.0 + k))
        y = np.exp(1j * _GRID) / (_GRID + 1.0 + 0.5j)
        acc += abs(x[0]) + float(np.abs(y).sum())
    return acc


def sample() -> float:
    """Seconds one kernel pass takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def import_sample(env: dict, cwd) -> float:
    """Seconds a fresh interpreter takes to start and import numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env,
                   check=True)
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Scale that turns a job's seconds into reference seconds, from the
    kernel passes just before and just after it."""
    return REFERENCE_S / ((before + after) / 2.0)
