"""Tests for the Chrome trace_event exporter."""

import json

import pytest

from repro.cluster import Cluster, NetworkModel
from repro.core import LBPolicy, RefineVMInterferenceLB
from repro.projections import to_trace_events, write_chrome_trace
from repro.runtime import Chare, ChareArray, Runtime
from repro.sim import SimulationEngine


class FixedChare(Chare):
    def __init__(self, index, cost=0.1):
        super().__init__(index, state_bytes=64.0)
        self.cost = cost

    def work(self, iteration):
        return self.cost


def traced_run(balanced=False):
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=1, cores_per_node=2)
    rt = Runtime(
        eng,
        cl,
        [0, 1],
        net=NetworkModel.zero(),
        tracing=True,
        balancer=RefineVMInterferenceLB(0.05) if balanced else None,
        policy=LBPolicy(period_iterations=2, decision_overhead_s=0.0),
    )
    # imbalanced initial mapping so the balancer migrates
    arr = ChareArray("g", [FixedChare(i) for i in range(4)])
    mapping = {("g", i): 0 for i in range(4)} if balanced else None
    rt.register_array(arr, mapping=mapping)
    rt.start(iterations=4)
    eng.run()
    return rt


def test_events_have_required_fields():
    rt = traced_run()
    events = to_trace_events(rt.trace)
    task_events = [e for e in events if e.get("cat") == "task"]
    assert len(task_events) == 4 * 4  # 4 chares x 4 iterations
    for e in task_events:
        assert e["ph"] == "X"
        assert e["dur"] >= 0
        assert e["ts"] >= 0
        assert "iteration" in e["args"]


def test_metadata_names_cores_and_process():
    rt = traced_run()
    events = to_trace_events(rt.trace, job_name="myjob")
    meta = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta}
    assert "myjob" in names
    assert "core 0" in names and "core 1" in names


def test_migration_and_lb_events_present():
    rt = traced_run(balanced=True)
    events = to_trace_events(rt.trace)
    assert any(e.get("cat") == "migration" for e in events)
    assert any(e.get("cat") == "lb" for e in events)


def test_timestamps_are_microseconds():
    rt = traced_run()
    events = to_trace_events(rt.trace)
    last_task = max(
        (e for e in events if e.get("cat") == "task"), key=lambda e: e["ts"]
    )
    # run lasts 4 x 0.2 s; in us that's 800000-ish, not 0.8
    assert last_task["ts"] > 1000


def test_write_chrome_trace_roundtrip(tmp_path):
    rt = traced_run(balanced=True)
    path = tmp_path / "trace.json"
    n = write_chrome_trace(rt.trace, str(path), job_name="app")
    data = json.loads(path.read_text())
    assert len(data) == n
    assert all("ph" in e for e in data)


def test_multiple_jobs_get_distinct_pids(tmp_path):
    rt1 = traced_run()
    rt2 = traced_run()
    path = tmp_path / "both.json"
    write_chrome_trace(rt1.trace, str(path), extra=[rt2.trace])
    data = json.loads(path.read_text())
    assert {e["pid"] for e in data} == {1, 2}


def _audited_point():
    """One recorded audited sweep point: trace, audit records, profile."""
    from repro.experiments.sweep import run_point

    run = run_point(
        {"app": "jacobi2d", "scale": 0.05, "iterations": 6, "cores": 4,
         "bg": True, "balancer": "refine-vm", "lb_period": 2},
        audit=True,
    )
    return run.audit_records, run.trace, run.profile


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_chrome_trace_bytes_equal_json_dump(tmp_path, monkeypatch, chunk):
    from repro.perf.profiler import phase_trace_events
    from repro.projections import export

    if chunk is not None:  # exercise the joins between encoded chunks
        monkeypatch.setattr(export, "_CHUNK", chunk)
    records, trace, profile = _audited_point()
    path = tmp_path / "trace.json"
    n = write_chrome_trace(
        trace, str(path), job_name="pt", audit=records, profile=profile
    )
    events = (
        to_trace_events(trace, job_name="pt")
        + export.audit_counter_events(records)
        + phase_trace_events(profile)
    )
    ref = tmp_path / "ref.json"
    with open(ref, "w") as fh:
        json.dump(events, fh)
    assert n == len(events) > 10
    assert path.read_bytes() == ref.read_bytes()


def test_failed_chrome_trace_write_leaves_no_file(tmp_path):
    rt = traced_run()
    path = tmp_path / "trace.json"
    # an unencodable counter value fails the write part-way through
    bad = {"per_iteration": [
        {"start_s": 0.0, "compute": object(), "stolen": 0.0,
         "overhead": 0.0, "idle": 0.0},
    ]}
    with pytest.raises(TypeError):
        write_chrome_trace(rt.trace, str(path), ledger=bad)
    assert list(tmp_path.iterdir()) == []
    # an existing trace at the path survives a failed rewrite intact
    write_chrome_trace(rt.trace, str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_chrome_trace(rt.trace, str(path), ledger=bad)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
