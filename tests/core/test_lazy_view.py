"""Views built by ``LBDatabase.build_view`` equal their eager twins.

``build_view`` gives each :class:`CoreLoad` its ``task_time`` and
``bg_load`` up front and builds its :class:`TaskRecord` tuple on the first
read of ``tasks``. Nothing a caller can observe may depend on that:

* a built view is ``==`` to, hashes like, and serialises like the view
  constructed eagerly from the same window (zero-CPU tasks and tied CPU
  times included), with ``task_time`` bitwise the ``sum()`` of the
  records' CPU times in sorted-chare order;
* every strategy returns the same migrations and the same audit record on
  both views;
* a balanced step builds no records, and a step with one donor builds
  only the donor's;
* invalid window CPU or background load still raises at ``build_view``;
* one ``/proc/stat`` snapshot is taken per LB step on both backends.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.netmodel import NetworkModel
from repro.core import (
    CommAwareRefineLB,
    CoreLoad,
    GreedyLB,
    HierarchicalLB,
    LBDatabase,
    LBView,
    MigrationCostAwareLB,
    RefineLB,
    RefineVMInterferenceLB,
    TaskRecord,
    view_from_dict,
    view_to_dict,
)
from repro.core import database
from repro.experiments.runner import run_scenario
from repro.experiments.sweep import build_scenario
from repro.sim.procstat import ProcStat
from repro.telemetry.audit import AuditTrail

WINDOW = 10.0


class _Clock:
    now = 0.0


class _Counters:
    """The surface :class:`ProcStat` reads from a core, set directly."""

    def __init__(self, clock):
        self.engine = clock
        self.busy_time = 0.0
        self.idle_time = 0.0
        self.app_cpu = 0.0

    def sync(self):
        pass

    def owner_cpu(self, owner):
        return self.app_cpu


def _database(n_cores, state_bytes=None, comm=None):
    clock = _Clock()
    cores = {cid: _Counters(clock) for cid in range(n_cores)}
    db = LBDatabase(ProcStat(cores, "app"), state_bytes, comm=comm)
    return db, clock, cores


def _end_window(clock, cores, idle):
    """Advance to WINDOW with core ``cid`` idle for ``idle[cid]`` seconds."""
    clock.now = WINDOW
    for cid, core in cores.items():
        core.idle_time = idle[cid]
        core.busy_time = WINDOW - idle[cid]


def _built_and_eager(window):
    """``(build_view(...), eager twin)`` of one drawn window."""
    n_cores, placement, cpu, idle, state_bytes, comm = window
    db, clock, cores = _database(n_cores, state_bytes, comm)
    for chare, t in cpu.items():
        db.record_task(chare, t)
    _end_window(clock, cores, idle)
    built = db.build_view(placement)
    eager = []
    for cid in range(n_cores):
        chares = sorted(ch for ch, c in placement.items() if c == cid)
        tasks = tuple(
            TaskRecord(
                chare=ch,
                cpu_time=cpu.get(ch, 0.0),
                state_bytes=state_bytes.get(ch, 0.0),
                comm=tuple(sorted(comm.get(ch, {}).items())),
            )
            for ch in chares
        )
        task_time = sum(t.cpu_time for t in tasks)
        bg = max(WINDOW - task_time - idle[cid], 0.0)
        eager.append(CoreLoad(core_id=cid, tasks=tasks, bg_load=bg))
    return built, LBView(cores=tuple(eager), window=WINDOW)


cpu_times = st.one_of(
    st.just(0.0),  # zero-CPU tasks
    st.sampled_from([0.25, 0.5, 1.0]),  # ties, across and within cores
    st.floats(min_value=1e-6, max_value=2.0, allow_nan=False),
)


@st.composite
def windows(draw):
    """One LB window: cores × chares × background load."""
    n_cores = draw(st.integers(min_value=1, max_value=6))
    n_chares = draw(st.integers(min_value=0, max_value=18))
    chares = [(draw(st.sampled_from(["a", "b"])), i) for i in range(n_chares)]
    placement = {
        ch: draw(st.integers(min_value=0, max_value=n_cores - 1)) for ch in chares
    }
    # a chare without a recorded execution has zero window CPU
    cpu = {ch: draw(cpu_times) for ch in chares if draw(st.booleans())}
    idle = [draw(st.floats(min_value=0.0, max_value=4.0)) for _ in range(n_cores)]
    state_bytes = {ch: float(64 * (ch[1] % 3)) for ch in chares}
    comm = {
        ch: {chares[(i + 1) % n_chares]: 10.0 * (i % 4)}
        for i, ch in enumerate(chares)
        if n_chares > 1
    }
    return n_cores, placement, cpu, idle, state_bytes, comm


def _bits(x):
    return type(x), struct.pack("<d", x)


@settings(max_examples=150, deadline=None)
@given(windows())
def test_built_view_equals_eager_twin(window):
    built, eager = _built_and_eager(window)
    # the sums and counts first, before any record exists
    for b, e in zip(built.cores, eager.cores):
        assert _bits(b.task_time) == _bits(e.task_time)
        assert b.num_tasks == e.num_tasks == len(e.tasks)
        assert _bits(b.bg_load) == _bits(e.bg_load)
    assert built == eager
    assert hash(built) == hash(eager)
    assert all(hash(b) == hash(e) for b, e in zip(built.cores, eager.cores))
    assert view_to_dict(built) == view_to_dict(eager)
    assert view_from_dict(view_to_dict(built)) == eager


STRATEGIES = {
    "refine-vm": lambda: RefineVMInterferenceLB(0.05),
    "refine": lambda: RefineLB(0.05),
    "comm-aware": lambda: CommAwareRefineLB(0.05),
    "greedy": lambda: GreedyLB(),
    "greedy-aware": lambda: GreedyLB(aware=True),
    "hierarchical": lambda: HierarchicalLB(group_of=lambda cid: cid // 2),
    "migration-cost": lambda: MigrationCostAwareLB(
        RefineVMInterferenceLB(0.05),
        NetworkModel(latency_s=1e-4, bandwidth_Bps=1e4, per_message_overhead_s=0.0),
    ),
}


class _Sink:
    """Audit sink keeping each step's record (host wall time dropped)."""

    def __init__(self):
        self.trail = AuditTrail()

    def on_step(self, decide_wall_s, **step):
        self.trail.on_step(**step)


def _audited(strategy, view):
    lb = STRATEGIES[strategy]()
    sink = _Sink()
    lb.attach_telemetry(sink)
    return lb.balance(view), sink.trail.records


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@settings(max_examples=60, deadline=None)
@given(window=windows())
def test_every_strategy_decides_alike_on_both_views(strategy, window):
    built, eager = _built_and_eager(window)
    migrations, records = _audited(strategy, built)
    assert (migrations, records) == _audited(strategy, eager)
    # and the same without an audit sink attached
    built, eager = _built_and_eager(window)
    lb = STRATEGIES[strategy]()
    assert lb.balance(built) == lb.balance(eager) == migrations


def _count_records(monkeypatch):
    built = []
    new = database._new

    def counting_new(cls):
        if cls is TaskRecord:
            built.append(1)
        return new(cls)

    monkeypatch.setattr(database, "_new", counting_new)
    return built


def _quarter_window(loads):
    """Core ``cid`` runs ``4 * loads[cid]`` chares of 0.25 CPU-s each."""
    db, clock, cores = _database(len(loads))
    mapping = {}
    for cid, load in enumerate(loads):
        for _ in range(int(4 * load)):
            chare = ("a", len(mapping))
            mapping[chare] = cid
            db.record_task(chare, 0.25)
    _end_window(clock, cores, [WINDOW - load for load in loads])
    return db.build_view(mapping)


@pytest.mark.parametrize("strategy", ["refine-vm", "refine", "comm-aware"])
def test_balanced_step_builds_no_records(strategy, monkeypatch):
    view = _quarter_window([2.0, 2.0, 2.0, 2.0])
    built = _count_records(monkeypatch)
    assert _audited(strategy, view)[0] == []
    assert built == []
    assert all("tasks" not in vars(c) for c in view.cores)


@pytest.mark.parametrize("strategy", ["refine-vm", "refine"])
def test_one_donor_builds_only_its_records(strategy, monkeypatch):
    view = _quarter_window([2.0, 1.0, 1.0, 1.0])
    built = _count_records(monkeypatch)
    migrations, records = _audited(strategy, view)
    assert migrations and {m.src for m in migrations} == {0}
    assert len(built) == view.cores[0].num_tasks
    assert [("tasks" in vars(c)) for c in view.cores] == [True, False, False, False]
    # the audit record still counts every core's tasks
    assert [c["tasks"] for c in records[0]["cores"]] == [8, 4, 4, 4]


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
def test_invalid_window_cpu_raises_at_build(bad):
    db, clock, cores = _database(2)
    db.record_task(("a", 0), 1.0)
    db._task_cpu[("a", 1)] = bad  # the fast path writes the window directly
    _end_window(clock, cores, [0.0, 0.0])
    with pytest.raises(ValueError, match="cpu_time must be"):
        db.build_view({("a", 0): 0, ("a", 1): 1})


def test_invalid_background_load_raises_at_build():
    db, clock, cores = _database(2)
    _end_window(clock, cores, [0.0, math.nan])
    with pytest.raises(ValueError, match="bg_load must be"):
        db.build_view({})


def test_invalid_static_fields_raise_at_construction():
    with pytest.raises(ValueError, match="state_bytes must be"):
        _database(1, state_bytes={("a", 0): -1.0})
    with pytest.raises(ValueError, match="negative comm volume"):
        _database(1, comm={("a", 0): {("a", 1): -5.0}})


def test_view_keeps_the_state_sizes_it_was_built_with():
    db, clock, cores = _database(1, state_bytes={("a", 0): 8.0})
    view = db.build_view({("a", 0): 0})
    db.set_state_bytes(("a", 0), 16.0)
    assert view.cores[0].tasks[0].state_bytes == 8.0
    assert db.build_view({("a", 0): 0}).cores[0].tasks[0].state_bytes == 16.0


class TestOneSnapshotPerStep:
    def test_reset_reuses_the_views_snapshots(self, monkeypatch):
        db, clock, cores = _database(2)
        taken = []
        snapshot_all = ProcStat.snapshot_all
        monkeypatch.setattr(
            ProcStat, "snapshot_all", lambda s: taken.append(1) or snapshot_all(s)
        )
        _end_window(clock, cores, [1.0, 2.0])
        db.build_view({})
        db.reset_window()
        assert len(taken) == 1

    def test_reset_after_the_clock_moved_takes_a_fresh_snapshot(self):
        db, clock, cores = _database(1)
        clock.now = 1.0
        db.build_view({})
        clock.now = 3.0
        db.reset_window()  # the next window starts at 3.0, not 1.0
        clock.now = 4.0
        assert db.build_view({}).window == 1.0

    @pytest.mark.parametrize("backend", ["events", "fast"])
    def test_runs_take_one_snapshot_per_lb_step(self, backend, monkeypatch):
        taken = {}
        snapshot_all = ProcStat.snapshot_all

        def counting(stat):
            taken[id(stat)] = taken.get(id(stat), 0) + 1
            return snapshot_all(stat)

        monkeypatch.setattr(ProcStat, "snapshot_all", counting)
        params = {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 12,
            "cores": 4,
            "bg": True,
            "balancer": "refine-vm",
            "lb_period": 3,
        }
        res = run_scenario(build_scenario(params), backend=backend)
        assert res.app.lb_steps > 0
        # the database's baseline, then one per LB step
        assert max(taken.values()) == 1 + res.app.lb_steps
