"""Percentiles, rates and peak-memory readings for the benchmark."""
from __future__ import annotations

import math
import os
import resource


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between ranks."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def rate(count: float, seconds: float) -> float:
    """Items per second over a whole phase (never an average of per-op rates)."""
    if seconds <= 0.0:
        raise ValueError("rate over a phase of no time")
    return count / seconds


def main_peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_by_parent() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces or parentheses; ppid follows the last ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        out.setdefault(ppid, []).append(int(name))
    return out


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` in the process tree."""
    children = _children_by_parent()
    out, todo = [], list(children.get(pid, []))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, []))
    return out


def vm_hwm_mb(pid: int) -> float | None:
    """Peak resident set (VmHWM) of one process, or None once it has gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


class TreePeak:
    """Peak resident set of the processes this process started: the Spark
    JVM, the Python worker daemon and the Python workers.

    Each process keeps its highest reading. Of the workers, only the
    ``slots`` largest count: at most that many tasks run at once, and an
    extra worker that the daemon forks when a task starts just before
    another has handed its worker back would otherwise add a whole
    worker's memory to some runs and not to others.
    """

    def __init__(self, slots: int) -> None:
        self.slots = slots
        self.peaks: dict[int, float] = {}
        self.parents: dict[int, int] = {}

    def sample(self) -> None:
        me = os.getpid()
        children = _children_by_parent()
        todo = [(c, me) for c in children.get(me, [])]
        while todo:
            pid, parent = todo.pop()
            hwm = vm_hwm_mb(pid)
            if hwm is not None:
                self.peaks[pid] = max(hwm, self.peaks.get(pid, 0.0))
                self.parents[pid] = parent
            todo.extend((c, pid) for c in children.get(pid, []))

    @property
    def total_mb(self) -> float:
        depth = {}
        for pid in self.peaks:
            d, p = 0, pid
            while p in self.parents:
                d, p = d + 1, self.parents[p]
            depth[pid] = d
        # depth 1: the JVM; 2: the worker daemon; 3: forked workers
        top = [v for pid, v in self.peaks.items() if depth[pid] <= 2]
        workers = sorted((v for pid, v in self.peaks.items() if depth[pid] > 2), reverse=True)
        return sum(top) + sum(workers[: self.slots])
