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

Algorithm 1 classifies cores by load alone (Σ t_i + O_p against
T_avg ± ε) and reads the tasks of donor cores only, so a view built by
:meth:`LBDatabase.build_view` carries each core's ``task_time`` and
``bg_load`` up front and builds its :class:`TaskRecord` tuple on the
first read of ``CoreLoad.tasks``. Everything is still validated when the
view is built, and a core built this way is ``==`` to, and hashes like,
the eagerly constructed ``CoreLoad(core_id, tasks, bg_load)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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


#: (state_bytes, comm) of a chare the database holds no entry for
_NO_STATIC = (0.0, ())


class _RecordsOnDemand:
    """Descriptor of ``CoreLoad.tasks``: records built on first read.

    An eagerly constructed :class:`CoreLoad` stores its tuple in the
    instance dict, which shadows this (non-data) descriptor, so reading it
    costs nothing extra. A core made by :meth:`LBDatabase.build_view`
    instead holds ``_pending = (chares, cpu_times, static)`` — its sorted
    chares, their window CPU and the database's ``(state_bytes, comm)``
    table as of the build — and its first read of ``tasks`` turns that
    into the same records and stores them the same way. Raising
    ``AttributeError`` on the class tells ``dataclass`` the field has no
    default.
    """

    def __get__(
        self, obj: Optional["CoreLoad"], cls: Optional[type] = None
    ) -> Tuple[TaskRecord, ...]:
        if obj is None:
            raise AttributeError("tasks")
        d = obj.__dict__
        chares, cpus, static = d.pop("_pending")
        get = static.get
        records = []
        # every field already passed TaskRecord's checks when the view (or
        # the database) was built: skip the frozen-dataclass __init__
        for chare, cpu in zip(chares, cpus):
            state_bytes, comm = get(chare, _NO_STATIC)
            rec = _new(TaskRecord)
            rec.__dict__.update(
                chare=chare, cpu_time=cpu, state_bytes=state_bytes, comm=comm
            )
            records.append(rec)
        tasks = d["tasks"] = tuple(records)
        return tasks


@dataclass(frozen=True)
class CoreLoad:
    """One core's instrumented state at an LB step.

    Attributes
    ----------
    core_id:
        Global core id.
    tasks:
        Task records currently mapped to this core (built on first read
        for a core of a :meth:`LBDatabase.build_view` view).
    bg_load:
        O_p from Eq. (2): CPU-seconds the core spent on work external to
        the application during the window.
    """

    core_id: int
    tasks: Tuple[TaskRecord, ...] = _RecordsOnDemand()
    bg_load: float = 0.0

    def __post_init__(self) -> None:
        if not (type(self.bg_load) is float and 0.0 <= self.bg_load < _INF):
            check_non_negative("bg_load", self.bg_load)

    @cached_property
    def task_time(self) -> float:
        """Σ_i t_i^p — instrumented task CPU time on this core."""
        return sum(t.cpu_time for t in self.tasks)

    @property
    def num_tasks(self) -> int:
        """``len(tasks)``, without building records that are not built yet."""
        pending = self.__dict__.get("_pending")
        return len(self.tasks if pending is None else pending[0])

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
    destination core is part of the view, and no chare moves twice. Only
    the source cores' records are read; the full chare -> core map is
    built just to word an error.
    """
    if not migrations:
        return
    cores = {c.core_id: c for c in view.cores}
    on_core: Dict[int, set] = {}
    moved = set()
    for m in migrations:
        chares = on_core.get(m.src)
        if chares is None and m.src in cores:
            chares = on_core[m.src] = {t.chare for t in cores[m.src].tasks}
        if chares is None or m.chare not in chares:
            mapping = view.task_map()
            if m.chare not in mapping:
                raise ValueError(f"migration of unknown chare {m.chare}")
            raise ValueError(
                f"chare {m.chare} is on core {mapping[m.chare]}, not {m.src}"
            )
        if m.dst not in cores:
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
    comm:
        chare -> {partner chare: bytes per iteration}, recorded on each
        task record for communication-aware strategies.

    Raises
    ------
    ValueError
        If a state size or communication volume is invalid, with the
        message :class:`TaskRecord` would give.
    """

    def __init__(
        self,
        procstat: ProcStat,
        state_bytes: Optional[Mapping[ChareKey, float]] = None,
        comm: Optional[Mapping[ChareKey, Mapping[ChareKey, float]]] = None,
    ) -> None:
        self._procstat = procstat
        state_bytes = dict(state_bytes or {})
        partners = {
            chare: tuple(sorted(volumes.items()))
            for chare, volumes in (comm or {}).items()
        }
        # (state_bytes, comm) per chare, checked here once so that views
        # can build records without re-validating them. Never mutated:
        # set_state_bytes replaces it, so a view keeps the table it saw.
        self._static: Dict[ChareKey, Tuple[float, Tuple]] = {}
        for chare in state_bytes.keys() | partners.keys():
            nbytes = state_bytes.get(chare, 0.0)
            volumes = partners.get(chare, ())
            if not (
                type(nbytes) is float
                and 0.0 <= nbytes < _INF
                and all(v >= 0 for _, v in volumes)
            ):
                TaskRecord(chare, 0.0, nbytes, volumes)  # raises if invalid
            self._static[chare] = (nbytes, volumes)
        self._task_cpu: Dict[ChareKey, float] = {}
        self._window_start: Dict[int, CoreStatSnapshot] = procstat.snapshot_all()
        # the last view's snapshots: the next window's start if the clock
        # has not moved by the time reset_window runs
        self._view_snaps: Optional[Dict[int, CoreStatSnapshot]] = None

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
        static = dict(self._static)
        static[chare] = (nbytes, static.get(chare, _NO_STATIC)[1])
        self._static = static

    # ------------------------------------------------------------------
    # view construction
    # ------------------------------------------------------------------
    def build_view(self, mapping: Mapping[ChareKey, int]) -> LBView:
        """Snapshot the current window as an :class:`LBView`.

        Each core gets its ``task_time`` (Σ of its chares' window CPU in
        sorted-chare order) and ``bg_load`` now, and its task records on
        first read. Invalid window CPU or background load raises here.

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
        get_cpu = self._task_cpu.get
        static = self._static
        start = self._window_start
        cores = []
        window = 0.0
        for cid in core_ids:
            delta = snaps[cid].delta(start[cid])
            window = max(window, delta.time)
            keys = per_core[cid]
            keys.sort()
            cpus = [get_cpu(chare, 0.0) for chare in keys]
            # bitwise the sum() of the records' cpu_time, in record order
            task_time = sum(cpus)
            # a NaN makes the sum NaN; min() catches negatives
            if not (task_time < _INF and (not cpus or min(cpus) >= 0.0)):
                for cpu in cpus:
                    check_non_negative("cpu_time", cpu)
            bg = ProcStat.background_load(delta, task_time)
            if not (type(bg) is float and 0.0 <= bg < _INF):
                check_non_negative("bg_load", bg)
            load = _new(CoreLoad)
            load.__dict__.update(
                core_id=cid,
                bg_load=bg,
                task_time=task_time,
                _pending=(keys, cpus, static),
            )
            cores.append(load)
        self._view_snaps = snaps
        return LBView(cores=tuple(cores), window=window)

    def reset_window(self) -> None:
        """Zero the per-chare accumulators and re-baseline ``/proc/stat``.

        The last :meth:`build_view`'s snapshots become the new baseline
        when no simulated time has passed since (the usual case: the
        runtime resets in the same LB step); otherwise a fresh set is
        taken.
        """
        self._task_cpu.clear()
        snaps, self._view_snaps = self._view_snaps, None
        if snaps is None or not self._procstat.is_current(snaps):
            snaps = self._procstat.snapshot_all()
        self._window_start = snaps
