"""Synthesized ``/proc/stat`` counters.

The paper's Eq. (2) computes the background load of core *p* as

    O_p = T_lb − Σ_i t_i^p − t_idle^p

where ``t_idle^p`` is read from ``/proc/stat``. To keep the reproduction
honest, the load balancer is *not* allowed to peek at the simulator's
ground-truth record of what the interfering job consumed. Instead it reads
this module's :class:`ProcStat`, which exposes exactly what the real file
exposes: cumulative per-core busy and idle jiffies (here: seconds), plus —
for the runtime's own bookkeeping — the CPU time attributed to a given
accounting tag (the analogue of reading one's own ``/proc/self/stat``).

Snapshots are cheap, immutable records; windowed deltas between two
snapshots give the per-LB-period quantities of Eq. (2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from repro.sim.cpu import SharedCore

__all__ = ["CoreStatSnapshot", "ProcStat"]

_new = object.__new__


@dataclass(frozen=True)
class CoreStatSnapshot:
    """Cumulative counters for one core at one instant.

    Attributes
    ----------
    time:
        Simulated time of the snapshot.
    busy:
        Cumulative wall-seconds during which the core had >= 1 runnable
        process.
    idle:
        Cumulative wall-seconds with no runnable process
        (``t_idle`` in Eq. 2).
    self_cpu:
        Cumulative CPU-seconds consumed by the *observing* job's own
        accounting tag on this core (``/proc/self`` analogue). What other
        tenants consumed is deliberately not exposed.
    """

    time: float
    busy: float
    idle: float
    self_cpu: float

    def delta(self, earlier: "CoreStatSnapshot") -> "CoreStatSnapshot":
        """Windowed counters between ``earlier`` and this snapshot."""
        if earlier.time > self.time:
            raise ValueError("earlier snapshot is newer than this one")
        return _snapshot(
            self.time - earlier.time,
            self.busy - earlier.busy,
            self.idle - earlier.idle,
            self.self_cpu - earlier.self_cpu,
        )


def _snapshot(
    time: float, busy: float, idle: float, self_cpu: float
) -> CoreStatSnapshot:
    """``CoreStatSnapshot(...)`` minus the frozen-dataclass ``__init__``.

    Two are made per core per LB step; the class has no checks to skip.
    """
    snap = _new(CoreStatSnapshot)
    snap.__dict__.update(time=time, busy=busy, idle=idle, self_cpu=self_cpu)
    return snap


class ProcStat:
    """Reader of OS-visible CPU accounting for one observing job.

    Parameters
    ----------
    cores:
        The physical cores to observe, keyed however the caller wants to
        key them (typically global core id).
    owner:
        The observing job's accounting tag: its own CPU consumption is
        visible (``self_cpu``); everything else is aggregated into
        busy/idle, as on a real multi-tenant host.
    """

    def __init__(self, cores: Mapping[int, SharedCore], owner: str) -> None:
        self._cores: Dict[int, SharedCore] = dict(cores)
        self._owner = owner

    @property
    def owner(self) -> str:
        """Accounting tag whose own CPU time is visible."""
        return self._owner

    def core_ids(self) -> Sequence[int]:
        """Observed core ids, sorted."""
        return sorted(self._cores)

    def snapshot(self, core_id: int) -> CoreStatSnapshot:
        """Current cumulative counters for ``core_id``."""
        core = self._cores[core_id]
        core.sync()
        return _snapshot(
            core.engine.now,
            core.busy_time,
            core.idle_time,
            core.owner_cpu(self._owner),
        )

    def snapshot_all(self) -> Dict[int, CoreStatSnapshot]:
        """Snapshots for every observed core."""
        return {cid: self.snapshot(cid) for cid in self._cores}

    def is_current(self, snaps: Mapping[int, CoreStatSnapshot]) -> bool:
        """True if every snapshot in ``snaps`` is of its core's current time.

        Counters only advance with simulated time, so such snapshots equal
        what :meth:`snapshot_all` would return now.
        """
        cores = self._cores
        return all(cores[cid].engine.now == s.time for cid, s in snaps.items())

    @staticmethod
    def background_load(
        window: CoreStatSnapshot, task_cpu_sum: float
    ) -> float:
        """Eq. (2): ``O_p = T_lb − Σ t_i − t_idle`` over a window.

        Parameters
        ----------
        window:
            Delta snapshot covering the LB period (``time`` equals
            ``T_lb``).
        task_cpu_sum:
            Σ t_i^p — CPU time the runtime's own instrumented tasks
            consumed on the core during the window (from the LB database).

        Notes
        -----
        Clamped at zero: measurement noise (or in our case float round-off)
        can otherwise produce a tiny negative background load, and a
        negative O_p would make Eq. (1) under-estimate the average load.
        """
        o_p = window.time - task_cpu_sum - window.idle
        return max(o_p, 0.0)
