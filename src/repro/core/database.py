"""The load-balancing database: what a balancer is allowed to see.

Charm++'s LB framework instruments every entry-method execution and hands
strategies a per-processor summary. We mirror that contract:

* :class:`TaskRecord` — one migratable object: measured CPU time over the
  last LB window plus its serialised size (migration cost input).
* :class:`CoreLoad` — one core: its task records and the Eq.-(2)
  background load ``O_p``.
* :class:`LBView` — the whole picture at one LB step, immutable, with the
  paper's Eq. (1) average ``T_avg`` as a property.
* :class:`Migration` — one decision: move ``chare`` from ``src`` to ``dst``.
* :class:`LBDatabase` — the runtime-side accumulator that builds views:
  it sums per-chare CPU between LB steps and derives O_p from
  ``/proc/stat`` snapshots (never from simulator ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sim.procstat import CoreStatSnapshot, ProcStat
from repro.util import check_non_negative

__all__ = ["TaskRecord", "CoreLoad", "LBView", "Migration", "LBDatabase"]

ChareKey = Tuple[str, int]  #: (array name, index) — hashable chare identity

_INF = float("inf")

_new = object.__new__


@dataclass(frozen=True)
class TaskRecord:
    """One migratable task as the balancer sees it.

    Attributes
    ----------
    chare:
        Identity ``(array_name, index)``.
    cpu_time:
        t_i^p — CPU-seconds this task consumed during the LB window.
    state_bytes:
        Serialised state size; determines migration cost.
    comm:
        Recorded communication partners: ``((other_chare, bytes), ...)``
        per iteration. Empty unless the runtime was given a
        :class:`~repro.runtime.commgraph.CommGraph`. Communication-aware
        strategies read this — never the graph itself — preserving the
        rule that balancers see only the instrumentation database.
    """

    chare: ChareKey
    cpu_time: float
    state_bytes: float = 0.0
    comm: Tuple[Tuple[ChareKey, float], ...] = ()

    def __post_init__(self) -> None:
        # constructed per chare per LB step: inline comparisons accept the
        # common case; the full checkers handle everything else
        if (
            type(self.cpu_time) is float
            and 0.0 <= self.cpu_time < _INF
            and type(self.state_bytes) is float
            and 0.0 <= self.state_bytes < _INF
        ):
            pass
        else:
            check_non_negative("cpu_time", self.cpu_time)
            check_non_negative("state_bytes", self.state_bytes)
        for other, nbytes in self.comm:
            if nbytes < 0:
                raise ValueError(
                    f"negative comm volume {nbytes} to {other} on {self.chare}"
                )


@dataclass(frozen=True)
class CoreLoad:
    """One core's instrumented state at an LB step.

    Attributes
    ----------
    core_id:
        Global core id.
    tasks:
        Task records currently mapped to this core.
    bg_load:
        O_p from Eq. (2): CPU-seconds the core spent on work external to
        the application during the window.
    """

    core_id: int
    tasks: Tuple[TaskRecord, ...]
    bg_load: float = 0.0

    def __post_init__(self) -> None:
        if not (type(self.bg_load) is float and 0.0 <= self.bg_load < _INF):
            check_non_negative("bg_load", self.bg_load)

    @property
    def task_time(self) -> float:
        """Σ_i t_i^p — instrumented task CPU time on this core."""
        return sum(t.cpu_time for t in self.tasks)

    @property
    def total_load(self) -> float:
        """Σ_i t_i^p + O_p — the load Algorithm 1 compares to T_avg."""
        return self.task_time + self.bg_load


@dataclass(frozen=True)
class LBView:
    """Immutable snapshot handed to a load balancer at one LB step.

    Attributes
    ----------
    cores:
        Per-core loads, one entry per core the application runs on.
    window:
        T_lb — wall-clock seconds since the previous LB step.
    """

    cores: Tuple[CoreLoad, ...]
    window: float

    def __post_init__(self) -> None:
        check_non_negative("window", self.window)
        seen = set()
        for c in self.cores:
            if c.core_id in seen:
                raise ValueError(f"duplicate core_id {c.core_id} in LBView")
            seen.add(c.core_id)

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def t_avg(self) -> float:
        """Eq. (1): average per-core load including background loads."""
        if not self.cores:
            return 0.0
        return sum(c.total_load for c in self.cores) / len(self.cores)

    def core(self, core_id: int) -> CoreLoad:
        """The :class:`CoreLoad` for ``core_id``."""
        for c in self.cores:
            if c.core_id == core_id:
                return c
        raise KeyError(f"core {core_id} not in view")

    def task_map(self) -> Dict[ChareKey, int]:
        """chare -> core_id mapping implied by the view."""
        return {t.chare: c.core_id for c in self.cores for t in c.tasks}


@dataclass(frozen=True)
class Migration:
    """One balancer decision: move ``chare`` from core ``src`` to ``dst``."""

    chare: ChareKey
    src: int
    dst: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"migration of {self.chare} to its own core {self.src}")


def validate_migrations(view: LBView, migrations: Sequence[Migration]) -> None:
    """Raise ``ValueError`` unless ``migrations`` are consistent with ``view``.

    Checks: every chare exists, its ``src`` matches the view's mapping, the
    destination core is part of the view, and no chare moves twice.
    """
    mapping = view.task_map()
    valid_cores = {c.core_id for c in view.cores}
    moved = set()
    for m in migrations:
        if m.chare not in mapping:
            raise ValueError(f"migration of unknown chare {m.chare}")
        if mapping[m.chare] != m.src:
            raise ValueError(
                f"chare {m.chare} is on core {mapping[m.chare]}, not {m.src}"
            )
        if m.dst not in valid_cores:
            raise ValueError(f"migration targets core {m.dst} outside the job")
        if m.chare in moved:
            raise ValueError(f"chare {m.chare} migrated twice in one step")
        moved.add(m.chare)


class LBDatabase:
    """Runtime-side accumulator building :class:`LBView` snapshots.

    Between LB steps the runtime calls :meth:`record_task` after every
    entry-method completion. At an LB step, :meth:`build_view` combines the
    accumulated per-chare CPU times with ``/proc/stat`` deltas to compute
    each core's O_p (Eq. 2), then :meth:`reset_window` starts the next
    window.

    Parameters
    ----------
    procstat:
        OS-counter view restricted to the application's cores and owner tag.
    state_bytes:
        chare -> serialised size used for migration-cost-aware balancing.
    """

    def __init__(
        self,
        procstat: ProcStat,
        state_bytes: Optional[Mapping[ChareKey, float]] = None,
        comm: Optional[Mapping[ChareKey, Mapping[ChareKey, float]]] = None,
    ) -> None:
        self._procstat = procstat
        self._state_bytes: Dict[ChareKey, float] = dict(state_bytes or {})
        self._comm: Dict[ChareKey, Tuple[Tuple[ChareKey, float], ...]] = {
            chare: tuple(sorted(partners.items()))
            for chare, partners in (comm or {}).items()
        }
        self._task_cpu: Dict[ChareKey, float] = {}
        # (state_bytes, comm) of every chare whose static record fields
        # pass TaskRecord's checks: build_view skips re-validating them
        self._checked: Dict[ChareKey, Tuple[float, Tuple]] = {
            chare: (nbytes, self._comm.get(chare, ()))
            for chare, nbytes in self._state_bytes.items()
            if type(nbytes) is float
            and 0.0 <= nbytes < _INF
            and all(v >= 0 for _, v in self._comm.get(chare, ()))
        }
        self._window_start: Dict[int, CoreStatSnapshot] = procstat.snapshot_all()
        self._window_started_at = min(
            (s.time for s in self._window_start.values()), default=0.0
        )

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def record_task(self, chare: ChareKey, cpu_time: float) -> None:
        """Add one entry-method execution's CPU time to the window."""
        # hot path (one call per task execution): validate with two inline
        # comparisons; defer to the full checker only to raise
        if not (type(cpu_time) is float and 0.0 <= cpu_time < _INF):
            check_non_negative("cpu_time", cpu_time)
        self._task_cpu[chare] = self._task_cpu.get(chare, 0.0) + cpu_time

    def set_state_bytes(self, chare: ChareKey, nbytes: float) -> None:
        """Register/refresh a chare's serialised size."""
        check_non_negative("nbytes", nbytes)
        self._state_bytes[chare] = nbytes
        self._checked.pop(chare, None)

    # ------------------------------------------------------------------
    # view construction
    # ------------------------------------------------------------------
    def build_view(self, mapping: Mapping[ChareKey, int]) -> LBView:
        """Snapshot the current window as an :class:`LBView`.

        Parameters
        ----------
        mapping:
            Current chare -> core assignment from the runtime.
        """
        snaps = self._procstat.snapshot_all()
        core_ids = self._procstat.core_ids()
        per_core: Dict[int, List[ChareKey]] = {cid: [] for cid in core_ids}
        for chare, core_id in mapping.items():
            keys = per_core.get(core_id)
            if keys is None:
                raise ValueError(
                    f"chare {chare} mapped to core {core_id} outside the job"
                )
            keys.append(chare)
        task_cpu = self._task_cpu
        checked = self._checked
        cores = []
        window = 0.0
        # Records whose fields already pass every __post_init__ check skip
        # the frozen-dataclass __init__; they are the same equal,
        # hashable TaskRecord / CoreLoad objects.
        for cid in core_ids:
            delta = snaps[cid].delta(self._window_start[cid])
            window = max(window, delta.time)
            keys = per_core[cid]
            keys.sort()
            tasks = []
            for chare in keys:
                cpu = task_cpu.get(chare, 0.0)
                static = checked.get(chare)
                if static is not None and type(cpu) is float and 0.0 <= cpu < _INF:
                    rec = _new(TaskRecord)
                    rec.__dict__.update(
                        chare=chare,
                        cpu_time=cpu,
                        state_bytes=static[0],
                        comm=static[1],
                    )
                else:
                    rec = TaskRecord(
                        chare=chare,
                        cpu_time=cpu,
                        state_bytes=self._state_bytes.get(chare, 0.0),
                        comm=self._comm.get(chare, ()),
                    )
                tasks.append(rec)
            task_sum = sum(t.cpu_time for t in tasks)
            bg = ProcStat.background_load(delta, task_sum)
            if type(bg) is float and 0.0 <= bg < _INF:
                load = _new(CoreLoad)
                load.__dict__.update(core_id=cid, tasks=tuple(tasks), bg_load=bg)
            else:
                load = CoreLoad(core_id=cid, tasks=tuple(tasks), bg_load=bg)
            cores.append(load)
        return LBView(cores=tuple(cores), window=window)

    def reset_window(self) -> None:
        """Zero the per-chare accumulators and re-baseline ``/proc/stat``."""
        self._task_cpu.clear()
        self._window_start = self._procstat.snapshot_all()
