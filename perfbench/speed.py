"""CPU-speed probe: how fast the CPU ran while a command ran.

On a shared virtual machine the speed of each virtual CPU changes by up to
2.5x from one second to the next, with load elsewhere on the host. CPU time
grows with wall time in the slow phases and the guest sees no run-queue
delay, so nothing the guest reports can be subtracted. The launcher
therefore interrupts the command every PERIOD_S of its CPU time (SIGPROF,
re-armed in forked pool workers) and times a fixed probe kernel on the same
CPU at that moment, after a short untimed run of the kernel that brings its
code and data back into the caches the command had filled, so that what
the command keeps in cache does not change the probe's time. A probe's time
is proportional to the slowdown the command saw around it, and the probes
are dense enough (40 per CPU-second) to follow phases that last half a
second or more. Multiplying a time measured over the command by

    REFERENCE_S / (mean probe time during the command)

gives seconds at the reference speed, the speed at which a probe takes
REFERENCE_S. The kernel does what a tdlab sweep does per step, with none of
tdlab's code, so no change to tdlab can change it: SplitMix64-style integer
hashing in pure Python, a cumulative-sum search for the next state and small
dense numpy updates of a weight and a trace vector. The probes take about 5%
of the command's CPU time on every commit alike.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

# mean probe time on the 2-CPU Intel Xeon virtual machine of results/BENCH_0.json
# in its fast phases
REFERENCE_S = 0.00065
PERIOD_S = 0.025
WARMUP_ITERATIONS = 10
ITERATIONS = 40
# fewer probes than this in a command: use those of the whole run instead
MIN_PROBES = 5
# probes timed right after a bare import, which is too short to probe during
SETUP_PROBES = 20

_MASK = (1 << 64) - 1


def _kernel(np, n: int) -> float:
    k = 10
    eye = np.eye(k)
    probs = np.full(k, 1.0 / k)
    theta = np.zeros(k)
    e = np.zeros(k)
    x = 0x243F6A8885A308D3
    state = 0
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & _MASK
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        u = ((z ^ (z >> 31)) >> 11) * (1.0 / (1 << 53))
        nxt = int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, k - 1))
        phi, phi_next = eye[state], eye[nxt]
        delta = 0.5 + 0.9 * (theta @ phi_next) - theta @ phi
        e *= 0.72
        e += phi
        theta += (0.1 * delta) * e
        state = nxt
    return float(theta.sum())


def _probe(np, fd: int) -> None:
    """Time one probe and append its time in ns as one line to `fd`."""
    _kernel(np, WARMUP_ITERATIONS)
    t0 = time.perf_counter_ns()
    _kernel(np, ITERATIONS)
    os.write(fd, b"%d\n" % (time.perf_counter_ns() - t0))


def _open(path: str, np) -> int:
    _kernel(np, ITERATIONS)  # first-call costs stay out of the probes
    return os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)


def probe_now(path: str, np, count: int) -> None:
    """Time `count` probes back to back, appending them to `path`."""
    fd = _open(path, np)
    for _ in range(count):
        _probe(np, fd)
    os.close(fd)


def install(path: str, np) -> None:
    """Start probing this process and every process forked from it, appending
    each probe to `path`."""
    fd = _open(path, np)

    def arm() -> None:
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    signal.signal(signal.SIGPROF, lambda signum, frame: _probe(np, fd))
    os.register_at_fork(after_in_child=arm)  # itimers are not inherited
    arm()


def stop() -> None:
    signal.setitimer(signal.ITIMER_PROF, 0, 0)


def read(path: str) -> list[float]:
    """Probe times in seconds, from every process that probed."""
    try:
        with open(path) as fh:
            return [int(line) / 1e9 for line in fh if line.strip()]
    except OSError:
        return []


def scale(probes: list[float]) -> float:
    """Factor turning a time measured while `probes` ran into seconds at the
    reference speed."""
    return REFERENCE_S / statistics.fmean(probes)
