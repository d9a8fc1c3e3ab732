"""In-memory span tracer for the traced benchmark run.

The tracer wraps public callables at each layer boundary *from outside
the program*: it replaces the attribute the caller looks up (a module
global such as ``repro.experiments.sweep.build_scenario``, or a class
method such as ``LBDatabase.build_view``) for the duration of a traced
pass and restores the originals afterwards. Nothing under ``src/`` knows
it is being traced.

Each span records ``(name, start, end, parent, point)``; a layer's self
time is its span duration minus the time its child spans cover. The
per-chare ``work(iteration)`` cost model is called millions of times, so
it is recorded as a call count and a total time instead of one span per
call (its time still counts as child time of the enclosing span).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class _Frame:
    __slots__ = ("name", "t0", "child", "index", "fast")

    def __init__(self, name: str, t0: float, index: int) -> None:
        self.name = name
        self.t0 = t0
        self.child = 0.0
        self.index = index
        self.fast = False


class PassTrace:
    """What one traced pass recorded."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.lb_steps = 0
        self.migrations = 0
        self.useful_steps = 0

    def counts(self) -> Dict[str, int]:
        """The exact counts two traced passes must reproduce."""
        return {
            "apps.work_calls": self.calls["apps.work"],
            "core.lb_steps": self.lb_steps,
            "core.migrations": self.migrations,
            "cache.puts": self.calls["cache.put"],
            "sim.points_fast": self.calls["sim.fastpath"],
            "sim.points_events": self.calls["sim.engine"],
        }


class Tracer:
    """Stack-based span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.point_labels: List[str] = []
        self._stack: List[_Frame] = []
        self._point = -1
        self._patches: List[Tuple[Any, str, Any]] = []
        self.current: Optional[PassTrace] = None

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def enter(self, name: str) -> _Frame:
        parent = self._stack[-1].index if self._stack else -1
        frame = _Frame(name, perf_counter(), len(self.spans))
        # reserve the slot so children can name their parent
        self.spans.append((name, frame.t0, 0.0, parent, self._point))
        self._stack.append(frame)
        return frame

    def exit(self) -> _Frame:
        t1 = perf_counter()
        frame = self._stack.pop()
        name = frame.name
        if name == "sim.run_scenario":
            name = "sim.fastpath" if frame.fast else "sim.engine"
        dur = t1 - frame.t0
        _, t0, _, parent, point = self.spans[frame.index]
        self.spans[frame.index] = (name, t0, t1, parent, point)
        if self._stack:
            self._stack[-1].child += dur
        rec = self.current
        rec.self_s[name] += dur - frame.child
        rec.calls[name] += 1
        return frame

    def on_event(self, record: Dict[str, Any]) -> None:
        """``EventLog`` hook: one ``sweep.point`` span per executed point."""
        event = record["event"]
        if event == "point_start":
            self.point_labels.append(record["label"])
            self._point = len(self.point_labels) - 1
            self.enter("sweep.point")
        elif event == "point_done" and not record.get("cached"):
            self.exit()
            self._point = -1

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _span(self, name: str, fn: Callable) -> Callable:
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def _balance(self, fn: Callable) -> Callable:
        tracer = self

        def balance(lb, view):
            tracer.enter("core.balance")
            try:
                migrations = fn(lb, view)
            finally:
                tracer.exit()
            rec = tracer.current
            rec.lb_steps += 1
            rec.migrations += len(migrations)
            rec.useful_steps += bool(migrations)
            return migrations

        return balance

    def _fast_marker(self, fn: Callable) -> Callable:
        stack = self._stack

        def run_scenario_fast(*args, **kwargs):
            stack[-1].fast = True
            return fn(*args, **kwargs)

        return run_scenario_fast

    def _work(self, fn: Callable) -> Callable:
        tracer = self
        stack = self._stack

        def work(chare, iteration):
            t0 = perf_counter()
            try:
                return fn(chare, iteration)
            finally:
                dur = perf_counter() - t0
                rec = tracer.current
                rec.self_s["apps.work"] += dur
                rec.calls["apps.work"] += 1
                if stack:
                    stack[-1].child += dur

        return work

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Patch every layer boundary (call :meth:`uninstall` to undo)."""
        import repro.apps  # noqa: F401 - registers every app/chare class
        import repro.experiments.sweep as sweep
        import repro.sim.fastpath as fastpath
        from repro.apps.base import AppModel
        from repro.core.balancer import LoadBalancer
        from repro.core.database import LBDatabase
        from repro.experiments.cache import ResultCache
        from repro.obs.ledger import TimeLedger
        from repro.obs.lineage import LineageRecorder
        from repro.runtime.chare import Chare

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(sweep, "build_scenario", self._span("sweep.build_scenario", sweep.build_scenario))
        self._patch(sweep, "summarize_result", self._span("sweep.summarize", sweep.summarize_result))
        self._patch(sweep, "run_scenario", self._span("sim.run_scenario", sweep.run_scenario))
        self._patch(sweep, "write_audit_jsonl", self._span("telemetry.audit_write", sweep.write_audit_jsonl))
        self._patch(sweep, "write_chrome_trace", self._span("telemetry.audit_write", sweep.write_chrome_trace))
        self._patch(fastpath, "run_scenario_fast", self._fast_marker(fastpath.run_scenario_fast))
        self._patch(ResultCache, "put", self._span("cache.put", ResultCache.put))
        self._patch(LBDatabase, "build_view", self._span("core.build_view", LBDatabase.build_view))
        self._patch(LoadBalancer, "balance", self._balance(LoadBalancer.balance))
        self._patch(TimeLedger, "summary", self._span("obs.ledger_summary", TimeLedger.summary))
        self._patch(LineageRecorder, "payload", self._span("obs.lineage_payload", LineageRecorder.payload))
        for cls in _subclasses(AppModel):
            if "build_array" in cls.__dict__:
                self._patch(cls, "build_array", self._span("apps.build_array", cls.__dict__["build_array"]))
        for cls in [Chare, *_subclasses(Chare)]:
            if "work" in cls.__dict__:
                self._patch(cls, "work", self._work(cls.__dict__["work"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        """Dump every span: ``[name, start_us, end_us, parent, point]``."""
        base = self.spans[0][1] if self.spans else 0.0
        doc = {
            **meta,
            "columns": ["name", "start_us", "end_us", "parent", "point"],
            "points": self.point_labels,
            "spans": [
                [n, round((s - base) * 1e6, 1), round((e - base) * 1e6, 1), p, pt]
                for n, s, e, p, pt in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    todo = list(cls.__subclasses__())
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out
