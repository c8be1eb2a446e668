"""Start timed children from a small process of their own, and time them
against a speed probe run on the same CPU.

A child started with fork or vfork and exec inherits, as its peak RSS, the
peak RSS of the process it was started from: Linux carries the old address
space's high-water mark across exec. Started from the benchmark process,
which holds oracle answers and a stub server, a child's ``ru_maxrss`` would
report the benchmark's memory, not the program's. This process stays at
interpreter size, so the peak it passes on is far below any child's own.

The CPU a shared host gives this process runs at a speed that drifts by
tens of percent over seconds, as other tenants come and go, and two CPUs
drift independently. So this process pins itself, and with it every child,
to one CPU, and every ``SLICE_S`` seconds stops the child's process group,
runs a fixed probe of ``probe()`` on that CPU and lets the child go on; it
also probes ``EDGE_PROBES`` times just before and just after the child. The
mean probe time over ``PROBE_REFERENCE_S`` is the child's slowdown; the
child's CPU time divided by it is the CPU time at reference speed, the speed
at which the probe takes ``PROBE_REFERENCE_S``. Time the child waited
(wall minus CPU) is not scaled. Paused time is left out of the wall time.

Run as ``spawn.py CPU``. Protocol: one JSON request per stdin line
(``argv``, ``env``, ``cwd``, ``log``, ``timeout_s``, ``probe``); one JSON
result per stdout line (``code``, ``wall_s``, ``cpu_s``, ``rss_mb``,
``slowdown``).
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

# Seconds the child runs between two probes.
SLICE_S = 0.1
# Seconds to wait for the child to stop before letting it go unprobed. A
# process blocked in vfork until its stopped child execs cannot stop, so an
# unbounded wait for the stop would never end.
STOP_WAIT_S = 0.05
# Probes run back to back just before and just after the child, so that a
# command shorter than a slice still has a steady mean.
EDGE_PROBES = 4
# A probe's time at reference speed: about its time on an idle 2.0 GHz
# Xeon vCPU under Python 3.11.
PROBE_REFERENCE_S = 0.0025
# JSON rows like the corpus's, parsed and grouped by one probe.
_PROBE_ROWS = [
    json.dumps(
        {
            "repo_full_name": f"org{i % 97}/repo{i % 13}",
            "snapshot_date": f"2024-01-{i % 28 + 1:02d}",
            "stars": i * 7 % 1000,
            "topics": ["cli", "parser"],
            "is_fork": i % 5 == 0,
        }
    )
    for i in range(1000)
]


def probe() -> float:
    """CPU seconds one fixed unit of JSON parsing and grouping takes here.

    CPU time, not wall time: another process sharing the CPU delays the
    child's wall time (it shows as waiting) but not its CPU time.
    """
    start = time.thread_time()
    groups: dict[str, list[int]] = {}
    for line in _PROBE_ROWS:
        row = json.loads(line)
        groups.setdefault(row["repo_full_name"], []).append(row["stars"])
    return time.thread_time() - start


def _signal_group(pid: int, sig: int) -> bool:
    try:
        os.killpg(pid, sig)
    except ProcessLookupError:
        return False
    return True


def _pause_and_probe(pid: int, probes: list[float]):
    """Stop the child's group, probe, let it go on.

    Returns the child's ``(status, usage)`` when it ended instead of
    stopping (``wait4`` has then reaped it), else None. A child that has
    not stopped within ``STOP_WAIT_S`` goes on unprobed; SIGCONT also drops
    the SIGSTOP still pending for it.
    """
    if not _signal_group(pid, signal.SIGSTOP):
        return None
    give_up = time.perf_counter() + STOP_WAIT_S
    while True:
        reaped, status, usage = os.wait4(pid, os.WUNTRACED | os.WNOHANG)
        if reaped and not os.WIFSTOPPED(status):
            return status, usage
        if reaped or time.perf_counter() > give_up:
            break
        time.sleep(0.0005)
    if reaped:
        probes.append(probe())
    _signal_group(pid, signal.SIGCONT)
    return None


def run(request: dict) -> dict:
    """Run one child to its end; see the module docstring for the result."""
    sliced = request.get("probe", True)
    probes = [probe() for _ in range(EDGE_PROBES)] if sliced else []
    paused = 0.0
    ended = None
    with open(request["log"], "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"],
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=log,
            env=request["env"],
            cwd=request["cwd"],
            start_new_session=True,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.poll()
            exited.register(pidfd, select.POLLIN)
            deadline = start + request["timeout_s"]
            while ended is None:
                left = deadline + paused - time.perf_counter()
                if left <= 0:
                    _signal_group(proc.pid, signal.SIGKILL)
                    break
                if exited.poll(1000 * (min(left, SLICE_S) if sliced else left)):
                    break
                if sliced:
                    stop = time.perf_counter()
                    ended = _pause_and_probe(proc.pid, probes)
                    paused += time.perf_counter() - stop
            wall_s = time.perf_counter() - start - paused
        finally:
            os.close(pidfd)
    if ended is None:
        _pid, status, usage = os.wait4(proc.pid, 0)
    else:
        status, usage = ended
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    _signal_group(proc.pid, signal.SIGKILL)  # any descendant the child left behind
    if sliced:
        probes += [probe() for _ in range(EDGE_PROBES)]
    return {
        "code": code,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "slowdown": sum(probes) / len(probes) / PROBE_REFERENCE_S if probes else 1.0,
    }


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
