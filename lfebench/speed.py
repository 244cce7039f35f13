"""Machine-speed reference for scaling wall times on a shared host.

On a shared virtual machine the speed of an unchanged loop moves by tens of
percent for minutes at a time as other tenants load the host. A fixed
kernel timed next to the program's calls moves with it, so a call's wall
time scaled by ``NOMINAL_S / reference_seconds()`` (measured around the
call) is its time on a host where the kernel takes ``NOMINAL_S``.
The kernel uses none of lfequad's code: it mixes the same kind of work,
small complex numpy products on 21-vectors and Python-level float parsing.

Work done in a child process (the CLI) tracks the in-process kernel poorly:
it is dominated by interpreter start-up, imports, a Python line loop and
fresh memory. ``child_reference_seconds`` times a child interpreter that
does the same kinds of work, again with none of lfequad's code.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

NOMINAL_S = 0.005
_ITERATIONS = 300
_TEXT = [repr(0.1 * k + 1e-7) for k in range(20)]

CHILD_NOMINAL_S = 0.2
_CHILD = (
    "import numpy as np\n"
    "lines = [f'{0.001 * k!r},{(0.37 * k) % 1.0!r}' for k in range(20000)]\n"
    "rows = []\n"
    "for ln in lines:\n"
    "    p = [s.strip() for s in ln.split(',')]\n"
    "    rows.append((float(p[0]), float(p[1])))\n"
    "x = np.array([r[0] for r in rows]); f = np.array([r[1] for r in rows])\n"
)


def reference_seconds() -> float:
    """Wall time of the reference kernel; the faster of two back-to-back runs,
    so one interrupt does not count."""
    rng = np.random.default_rng(0)
    u = np.linalg.qr(rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21)))[0]
    sigma = np.linspace(1.0, 1e-3, 21)
    g = rng.standard_normal(21)
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter_ns()
        for _ in range(_ITERATIONS):
            y = u.conj().T @ g.astype(complex)
            z = np.zeros_like(y)
            z[:] = y / sigma
            float(np.linalg.norm(u @ z)) + sum(float(s) for s in _TEXT)
        best = min(best, (time.perf_counter_ns() - t0) * 1e-9)
    return best


def child_reference_seconds() -> float:
    """Wall time of a child interpreter that imports numpy, parses 20000
    "x,f" lines in a Python loop and builds two arrays, as the CLI does."""
    devnull = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    t0 = time.perf_counter_ns()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", _CHILD], os.environ,
                         file_actions=devnull)
    _, status, _ = os.wait4(pid, 0)
    seconds = (time.perf_counter_ns() - t0) * 1e-9
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("child speed reference failed")
    return seconds
