"""Fast-path internals: the vectorized solo fold and its exactness basis.

Scenario-level parity lives in ``tests/experiments/test_backend_parity``;
these tests pin the load-bearing implementation facts:

* ``np.add.accumulate`` on a float64 vector is a *sequential left fold*,
  also along axis 0 of a 2-D array (the whole reason the vectorized
  prefix-sum can be bit-identical to the event engine's
  one-completion-at-a-time accumulation);
* the 2-D solo fold (``>= _SOLO_VEC_MIN`` solo tasks per iteration)
  produces exactly the event engine's results, not merely close ones,
  and so does the scalar fold below that threshold;
* the fast path reads work rows instead of calling ``work()`` per task.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import Jacobi2D, SyntheticApp, Wave2D
from repro.apps.stencil import StencilStripChare
from repro.core import LBPolicy, RefineLB
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import BackgroundSpec, Scenario
from repro.obs.ledger import TimeLedger
from repro.obs.lineage import LineageRecorder
from repro.sim import fastpath


def test_np_accumulate_is_sequential_left_fold():
    vals = [0.1, 0.2, 0.30000000000000004, 1e-9, 7.7, 0.0, 3.3e-5]
    arr = np.array(vals)
    acc = np.add.accumulate(arr)
    total = 0.0
    for i, v in enumerate(vals):
        total += v
        assert acc[i] == total  # bit-exact, not approx


@settings(max_examples=200, deadline=None)
@given(
    vals=st.lists(
        st.floats(
            min_value=0.0,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=64,
    )
)
def test_np_accumulate_matches_python_fold(vals):
    acc = np.add.accumulate(np.array(vals))
    total = 0.0
    for i, v in enumerate(vals):
        total += v
        assert acc[i] == total


@settings(max_examples=100, deadline=None)
@given(
    cols=st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=5,
            max_size=5,
        ),
        min_size=1,
        max_size=12,
    )
)
def test_np_accumulate_axis0_is_sequential_left_fold_per_column(cols):
    arr = np.array(cols)  # row i = step i, column j = one core's chain
    acc = np.add.accumulate(arr, axis=0)
    for j in range(arr.shape[1]):
        total = 0.0
        for i in range(arr.shape[0]):
            total += cols[i][j]
            assert acc[i, j] == total


def _vec_scenario(num_chares, cores):
    # deterministic ragged loads, enough to clear _SOLO_VEC_MIN
    app = SyntheticApp(
        lambda index, iteration: 0.01 + 0.001 * ((index * 7 + iteration * 3) % 11),
        num_chares=num_chares,
        state_bytes=256.0,
    )
    return Scenario(
        app=app,
        num_cores=cores,
        iterations=6,
        balancer=RefineLB(0.05),
        policy=LBPolicy(period_iterations=3),
    )


@pytest.mark.parametrize("per_core", [16, 25])
def test_vectorized_solo_fold_bit_identical(per_core):
    cores = 4
    assert per_core * cores >= fastpath._SOLO_VEC_MIN
    res_e = run_scenario(_vec_scenario(per_core * cores, cores), backend="events")
    res_f = run_scenario(_vec_scenario(per_core * cores, cores), backend="fast")
    assert res_e.app == res_f.app
    assert res_e.energy == res_f.energy
    assert res_e.final_mapping == res_f.final_mapping
    for t in res_f.app.iteration_times:
        assert t > 0.0 and not math.isnan(t)


def test_below_vec_min_scalar_fold_bit_identical():
    cores = 2
    assert 6 < fastpath._SOLO_VEC_MIN
    res_e = run_scenario(_vec_scenario(6, cores), backend="events")
    res_f = run_scenario(_vec_scenario(6, cores), backend="fast")
    assert res_e.app == res_f.app
    assert res_e.energy == res_f.energy


def test_negative_work_rejected():
    app = SyntheticApp(
        lambda index, iteration: -1.0 if iteration == 2 else 0.01,
        num_chares=4,
    )
    sc = Scenario(app=app, num_cores=2, iterations=5)
    with pytest.raises(ValueError, match="negative"):
        run_scenario(sc, backend="fast")


def _spy(monkeypatch, name):
    calls = []
    original = getattr(fastpath._FastJob, name)

    def spy(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(fastpath._FastJob, name, spy)
    return calls


def test_threshold_selects_the_fold(monkeypatch):
    vec = _spy(monkeypatch, "_fold_solo_vec")
    scalar = _spy(monkeypatch, "_fold_solo_scalar")
    run_scenario(_vec_scenario(16 * 4, 4), backend="fast")
    assert vec and not scalar
    del vec[:]
    run_scenario(_vec_scenario(6, 2), backend="fast")
    assert scalar and not vec


def _mixed_scenario(bg_start, bg_iterations):
    # a co-runner that starts and/or ends inside an LB window flips the
    # cores it shares between the 2-D solo fold and the contended fold
    return Scenario(
        app=Jacobi2D(grid_size=512, odf=8, jitter_seed=3),
        num_cores=8,
        iterations=24,
        balancer=RefineLB(0.05),
        policy=LBPolicy(period_iterations=5),
        bg=BackgroundSpec(
            model=Wave2D.background(grid_size=96),
            core_ids=(0, 1),
            iterations=bg_iterations,
            start=bg_start,
        ),
    )


@pytest.mark.parametrize("vec_min", [1, 10**9])
@pytest.mark.parametrize("bg_start,bg_iterations", [(0.0, 6), (0.004, 5), (0.009, 40)])
def test_forced_fold_matches_events_with_mid_window_corunner(
    monkeypatch, vec_min, bg_start, bg_iterations
):
    monkeypatch.setattr(fastpath, "_SOLO_VEC_MIN", vec_min)
    results, ledgers, lineages = [], [], []
    for backend in ("events", "fast"):
        sc = _mixed_scenario(bg_start, bg_iterations)
        ledger = TimeLedger(job="app", core_ids=sc.app_core_ids)
        lineage = LineageRecorder(job="app", core_ids=sc.app_core_ids)
        results.append(
            run_scenario(sc, backend=backend, ledger=ledger, lineage=lineage)
        )
        ledgers.append(ledger)
        lineages.append(lineage.payload())
    res_e, res_f = results
    assert res_e.app == res_f.app
    assert res_e.bg == res_f.bg
    assert res_e.energy == res_f.energy
    assert res_e.final_mapping == res_f.final_mapping
    assert ledgers[0].summary() == ledgers[1].summary()
    assert ledgers[1].residual_exact() == 0
    assert lineages[0] == lineages[1]


def test_paper_apps_read_rows_not_work_calls(monkeypatch):
    calls = []
    original = StencilStripChare.work

    def counted(self, iteration):
        calls.append(iteration)
        return original(self, iteration)

    # patched on the class, as a tracer would: the row builder still
    # recognises the class's own cost model and never calls it
    monkeypatch.setattr(StencilStripChare, "work", counted)
    sc = Scenario(app=Jacobi2D(grid_size=512), num_cores=8, iterations=10)
    res = run_scenario(sc, backend="fast")
    assert not calls
    monkeypatch.undo()
    assert res.app == run_scenario(
        Scenario(app=Jacobi2D(grid_size=512), num_cores=8, iterations=10),
        backend="events",
    ).app


@pytest.mark.parametrize("vec_min", [1, 10**9])
def test_lb_views_identical_across_fold_handover(monkeypatch, vec_min):
    # the background job ends mid-window: its cores' chares move from the
    # contended fold's window dict to the 2-D fold's window array, and
    # every LB view must still see the event engine's exact totals
    from repro.core.database import LBDatabase

    monkeypatch.setattr(fastpath, "_SOLO_VEC_MIN", vec_min)
    original = LBDatabase.build_view
    views = {"events": [], "fast": []}
    for backend in views:

        def capture(self, mapping, _out=views[backend]):
            view = original(self, mapping)
            _out.append(view)
            return view

        monkeypatch.setattr(LBDatabase, "build_view", capture)
        run_scenario(_mixed_scenario(0.004, 5), backend=backend)
    assert len(views["events"]) >= 4
    assert views["events"] == views["fast"]
