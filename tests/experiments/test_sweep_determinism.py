"""Determinism guarantees of the sweep engine and the runner.

The contract: a scenario's summary is a pure function of its parameters.
These tests would catch shared-RNG state, mutable module state leaking
between :func:`run_scenario` calls, or anything order/process-dependent
in the executor — the failure modes that would silently corrupt a
parallel sweep.
"""

from repro.apps import SyntheticApp
from repro.cluster import NetworkModel
from repro.core import RefineVMInterferenceLB
from repro.experiments import BackgroundSpec, Scenario, run_scenario
from repro.experiments.sweep import (
    SweepSpec,
    run_point,
    run_sweep,
    summarize_result,
)

TINY = {"app": "jacobi2d", "scale": 0.05, "iterations": 5}

SPEC = SweepSpec(
    name="determinism",
    base={**TINY, "bg": True, "balancer": "refine-vm"},
    axes={"cores": [4, 8], "seed": [0, 1]},
)


def test_serial_and_four_workers_produce_identical_summaries():
    """The ISSUE's determinism criterion: 1 worker == 4 workers, bit-for-bit."""
    serial = run_sweep(SPEC, workers=1)
    parallel = run_sweep(SPEC, workers=4)
    assert serial.summaries() == parallel.summaries()
    assert [r.label for r in serial.results] == [r.label for r in parallel.results]


def test_back_to_back_runs_of_same_scenario_are_equal():
    """Two consecutive runs in one process see no leaked state."""
    params = {**TINY, "cores": 4, "bg": True, "balancer": "refine-vm"}
    assert run_point(params) == run_point(params)


def test_interleaved_different_scenarios_do_not_contaminate():
    """A run sandwiched between different scenarios matches a fresh run."""
    params_a = {**TINY, "cores": 4, "balancer": "refine-vm", "bg": True}
    params_b = {**TINY, "cores": 8, "seed": 3}
    first = run_point(params_a)
    run_point(params_b)  # unrelated work in between
    run_point({**TINY, "cores": 4, "seed": 7})
    assert run_point(params_a) == first


def test_run_scenario_is_hermetic_with_fresh_balancers():
    """Direct runner calls with equivalent fresh inputs agree exactly.

    Guards the audit result: nothing in the runtime/simulator keeps
    result-affecting module-level state (the global SimProcess pid
    counter only feeds dict keys, never ordering).
    """

    def scenario():
        return Scenario(
            app=SyntheticApp([0.02] * 32, state_bytes=256.0),
            num_cores=8,
            iterations=10,
            balancer=RefineVMInterferenceLB(0.05),
            bg=BackgroundSpec(
                model=SyntheticApp([0.02, 0.02]),
                core_ids=(0, 1),
                iterations=60,
            ),
            net=NetworkModel.zero(),
        )

    first = summarize_result(run_scenario(scenario()))
    second = summarize_result(run_scenario(scenario()))
    assert first == second


def test_seed_actually_varies_results():
    """Distinct seeds give distinct runs (the seeding is really wired in)."""
    a = run_point({**TINY, "cores": 4, "seed": 0}).summary
    b = run_point({**TINY, "cores": 4, "seed": 1}).summary
    assert a != b
