"""Phase profiler: where the reproduction's *own* wall-clock goes.

The paper's argument is about where time goes on interfered cores; this
module answers the same question about the simulator itself. Hot paths
(the event loop, balancer decisions, cache IO, message costing) carry
unconditional scoped timers, and — exactly like
:class:`~repro.telemetry.registry.MetricsRegistry` — whether they cost
anything is decided once, at profiler construction:

* **enabled** — :meth:`PhaseProfiler.phase` hands back a memoised
  context-manager that reads ``perf_counter`` on enter/exit and folds
  the span into per-phase count/total/min/max (optionally keeping the
  raw intervals for Perfetto export);
* **disabled** — every factory returns shared module-level null
  singletons whose methods are empty, so instrumentation can stay
  unconditional in the hottest loops at the cost of one no-op call.

Call sites do not thread a profiler through constructors (the network
model is a frozen dataclass; the engine predates this subsystem).
Instead one process-wide profiler is *installed*::

    with profiled() as prof:
        run_scenario(scenario)
    print(prof.snapshot())

and instrumented code reads it via :func:`active`. The default active
profiler is :data:`NULL_PROFILER`, so nothing is measured unless a
caller opts in — bit-identical results, no allocation, no clock reads.

Host wall-clock is inherently nondeterministic, so profiles must never
be folded into cached sweep summaries; they ride next to results the
way Chrome traces do (see ``run_point(..., audit=True)``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "PhaseProfiler",
    "NULL_PROFILER",
    "PROFILE_SCHEMA",
    "active",
    "install",
    "profiled",
    "phase_trace_events",
]

#: Version stamp carried by every exported profile.
PROFILE_SCHEMA = 1

_US = 1e6  # seconds -> microseconds (trace-event format unit)


class _Phase:
    """One named scope: a reusable, re-entrant timing context manager.

    Handed out memoised per name by :meth:`PhaseProfiler.phase`, so a hot
    loop pays one dict lookup per ``with`` — no allocation. A start-time
    stack (rather than a scalar) keeps nested/recursive entries of the
    same phase correct.
    """

    __slots__ = ("name", "count", "total_s", "min_s", "max_s", "_starts", "_profiler")

    def __init__(self, name: str, profiler: "PhaseProfiler") -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self._starts: List[float] = []
        self._profiler = profiler

    def __enter__(self) -> "_Phase":
        self._starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc: Any) -> None:
        end = time.perf_counter()
        start = self._starts.pop()
        span = end - start
        self.count += 1
        self.total_s += span
        if span < self.min_s:
            self.min_s = span
        if span > self.max_s:
            self.max_s = span
        intervals = self._profiler._intervals
        if intervals is not None:
            intervals.append((self.name, start, end))


class _NullPhase:
    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


_NULL_PHASE = _NullPhase()


class PhaseProfiler:
    """Scoped wall-clock timers plus clock-free event tallies.

    Parameters
    ----------
    enabled:
        When False every factory returns a shared null object and
        :meth:`snapshot` is always empty.
    record_intervals:
        Keep every (name, start, end) span for Perfetto export; off by
        default because long runs would accumulate one tuple per scope
        entry.
    """

    def __init__(self, enabled: bool = True, *, record_intervals: bool = False) -> None:
        self.enabled = bool(enabled)
        self._phases: Dict[str, _Phase] = {}
        self._tallies: Dict[str, List[float]] = {}  # name -> [count, total]
        self._intervals: Optional[List[Tuple[str, float, float]]] = (
            [] if (enabled and record_intervals) else None
        )
        self._epoch = time.perf_counter() if enabled else 0.0

    # ------------------------------------------------------------------
    # instrumentation API (hot paths)
    # ------------------------------------------------------------------
    def phase(self, name: str) -> Union[_Phase, _NullPhase]:
        """The scoped timer for ``name`` (memoised; null when disabled)."""
        if not self.enabled:
            return _NULL_PHASE
        ph = self._phases.get(name)
        if ph is None:
            ph = self._phases[name] = _Phase(name, self)
        return ph

    def tally(self, name: str, amount: float = 1.0) -> None:
        """Count an event without touching the clock.

        For call sites too cheap to time (e.g. per-message network
        costing, where a pair of ``perf_counter`` reads would dwarf the
        arithmetic being measured): records call count and a summed
        quantity instead of a duration.
        """
        if not self.enabled:
            return
        t = self._tallies.get(name)
        if t is None:
            t = self._tallies[name] = [0.0, 0.0]
        t[0] += 1.0
        t[1] += amount
    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Aggregated per-phase statistics as one deterministic dict."""
        return {
            "phases": {
                name: {
                    "count": ph.count,
                    "total_s": ph.total_s,
                    "mean_s": ph.total_s / ph.count if ph.count else 0.0,
                    "min_s": ph.min_s if ph.count else 0.0,
                    "max_s": ph.max_s,
                }
                for name, ph in sorted(self._phases.items())
                if ph.count
            },
            "tallies": {
                name: {"count": t[0], "total": t[1]}
                for name, t in sorted(self._tallies.items())
            },
        }

    def export(self) -> Dict[str, Any]:
        """Schema-versioned, picklable/JSON-able profile.

        Interval start/end times are rebased to the profiler's epoch so
        exported traces start near zero regardless of process uptime.
        """
        out = dict(self.snapshot())
        out["schema"] = PROFILE_SCHEMA
        out["intervals"] = [
            [name, start - self._epoch, end - self._epoch]
            for name, start, end in (self._intervals or ())
        ]
        return out


#: Process-wide disabled profiler; the default target of :func:`active`.
NULL_PROFILER = PhaseProfiler(enabled=False)

_active: PhaseProfiler = NULL_PROFILER


def active() -> PhaseProfiler:
    """The currently installed profiler (``NULL_PROFILER`` by default)."""
    return _active


def install(profiler: Optional[PhaseProfiler]) -> PhaseProfiler:
    """Make ``profiler`` the process-wide active profiler (None resets)."""
    global _active
    _active = profiler if profiler is not None else NULL_PROFILER
    return _active


@contextmanager
def profiled(
    profiler: Optional[PhaseProfiler] = None, *, record_intervals: bool = False
) -> Iterator[PhaseProfiler]:
    """Install a profiler for the dynamic extent of the ``with`` block.

    Restores the previously active profiler on exit, so profiled regions
    nest safely (the inner region simply shadows the outer one).
    """
    prof = profiler if profiler is not None else PhaseProfiler(
        record_intervals=record_intervals
    )
    previous = _active
    install(prof)
    try:
        yield prof
    finally:
        install(previous)


# ---------------------------------------------------------------------------
# Perfetto export
# ---------------------------------------------------------------------------


def phase_trace_events(
    profile: Union[PhaseProfiler, Dict[str, Any]],
    *,
    pid: int = 99,
) -> List[Dict[str, Any]]:
    """Trace-event dicts (complete "X" spans) from a recorded profile.

    Accepts either a live :class:`PhaseProfiler` (with
    ``record_intervals=True``) or its :meth:`~PhaseProfiler.export` dict,
    and renders one span per recorded interval on a dedicated "phase
    profiler" process lane so the host-time breakdown sits alongside the
    simulated-time telemetry tracks of
    :func:`repro.projections.export.write_chrome_trace`.
    """
    if isinstance(profile, PhaseProfiler):
        profile = profile.export()
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": "phase profiler (host wall-clock)"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "phases"},
        },
    ]
    for name, start, end in profile.get("intervals", ()):
        events.append(
            {
                "name": name,
                "cat": "profile",
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": float(start) * _US,
                "dur": (float(end) - float(start)) * _US,
                "args": {},
            }
        )
    return events
