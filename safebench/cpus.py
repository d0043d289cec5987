"""Run the benchmark on one core at a time, moving across every core it may use.

On a shared virtual machine each vCPU switches, independently of the
others and every few seconds, between a fast and a slow mode (one-record
``apply_pandas`` calls measured 1.2 ms against 2.3 ms, with equal user
time and no steal time visible to the guest). A run that stays on one vCPU
reports whichever mode that vCPU happened to be in: over 20 s windows of a
four-minute trace, the median call time spread 0.31 (IQR over median) on
one pinned vCPU and 0.10 when the caller moved across three. :class:`CoreHopper`
keeps the benchmark to one core, as one closed-loop caller needs, but moves
it to the next allowed core every ``HOP_S`` seconds: a run then samples the
modes of all cores, not one. Slower drifts of the whole host (fit times
moving by a fifth within minutes) remain.

Every thread of the benchmark process and of the processes it starts
(Spark's JVM and its Python workers) is moved together, so they keep
sharing one core.
"""
from __future__ import annotations

import os
import threading

HOP_S = 0.5  # dozens of hops a run, each core visited within a mode's few seconds
RESCAN_HOPS = 2  # look for newly started child processes once a second


def descendants(pid: int) -> list[int]:
    """Process ids of every process below ``pid`` in the process tree."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # the process ended while we looked
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        found += kids
        todo += kids
    return found


def pin_tree(pids: list[int], cpu: int) -> None:
    """Put every thread of ``pids`` on ``cpu``; threads that ended are skipped."""
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except OSError:
                pass


class CoreHopper:
    """Pins the process to its first allowed core, then moves it (and its
    children) to the next allowed core every ``HOP_S`` seconds until ``stop``."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        # thread pools started from now on (BLAS, the JVM's GC) size to one core
        pin_tree([os.getpid()], self.cpus[0])
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="core-hopper", daemon=True)

    def start(self) -> "CoreHopper":
        if len(self.cpus) > 1:
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def _run(self) -> None:
        me = os.getpid()
        pids = [me]
        hop = 0
        while not self._stop.wait(HOP_S):
            hop += 1
            if hop % RESCAN_HOPS == 1:
                pids = [me, *descendants(me)]
            pin_tree(pids, self.cpus[hop % len(self.cpus)])
