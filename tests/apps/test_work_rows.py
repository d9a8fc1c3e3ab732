"""Per-iteration work rows: bitwise equal to the per-chare ``work()`` calls.

The fast path reads one ``work_rows`` row per iteration instead of
calling ``work()`` once per task, so a row that differs from the calls
in its last bit would break exact parity with the event engine. These
tests compare raw IEEE-754 bit patterns (``view(np.int64)``), not values.
"""

import numpy as np
import pytest

from repro.apps import Jacobi2D, Mol3D, SyntheticApp, Wave2D
from repro.apps.mol3d import MDCellChare
from repro.apps.stencil import StencilStripChare
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario

ITERATIONS = range(400)


def _assert_rows_bitwise(chares):
    row = type(chares[0]).work_rows(chares)
    for it in ITERATIONS:
        got = row(it)
        want = np.array([c.work(it) for c in chares])
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), it


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("scale", [0.25, 1.0])
@pytest.mark.parametrize("cores", [2, 8, 32])
@pytest.mark.parametrize("app", ["jacobi2d", "wave2d", "mol3d", "background"])
def test_paper_app_rows_bitwise_equal(app, cores, scale, seed):
    if app == "jacobi2d":
        model = Jacobi2D(grid_size=int(4096 * scale), jitter_seed=seed)
    elif app == "wave2d":
        model = Wave2D(grid_size=int(4096 * scale), jitter_seed=seed, odf=4)
    elif app == "mol3d":
        model = Mol3D(total_particles=int(48_000 * scale), seed=42 + seed)
    else:
        model = Wave2D.background(grid_size=int(1448 * scale))
    _assert_rows_bitwise(list(model.build_array(cores)))


def test_large_jitter_amplitude_rows_bitwise_equal():
    # amplitudes above 1 take the row's negativity check; stay positive here
    chares = [
        StencilStripChare(i, 4, 64, flops_per_cell=5.0, jitter_amp=amp)
        for i, amp in enumerate([0.0, 0.3, 0.999, 1.0])
    ]
    for c in chares:
        c.array_name = "s"
    _assert_rows_bitwise(chares)


class _Doubled(StencilStripChare):
    calls = 0

    def work(self, iteration):
        type(self).calls += 1
        return 2.0 * super().work(iteration)


def test_subclass_overriding_work_takes_generic_row():
    chares = [
        _Doubled(i, 8, 256, flops_per_cell=5.0, jitter_amp=0.01, jitter_seed=2)
        for i in range(6)
    ]
    for c in chares:
        c.array_name = "d"
    _Doubled.calls = 0
    row = _Doubled.work_rows(chares)
    assert np.array_equal(row(5), [c.work(5) for c in chares])
    assert _Doubled.calls == 2 * len(chares)  # the row called work() itself


def test_instance_bound_work_takes_generic_row():
    chares = list(Jacobi2D(grid_size=256).build_array(2))
    chares[3].work = lambda iteration: 7.0
    row = StencilStripChare.work_rows(chares)(4)
    assert row[3] == 7.0
    assert np.array_equal(row, [c.work(4) for c in chares])


def test_synthetic_callable_goes_through_fallback():
    seen = []

    def script(index, iteration):
        seen.append((index, iteration))
        return 0.5 + 0.01 * index * iteration

    chares = list(SyntheticApp(script, num_chares=5).build_array(2))
    row = type(chares[0]).work_rows(chares)
    assert np.array_equal(row(3), [0.5 + 0.01 * i * 3 for i in range(5)])
    assert seen == [(i, 3) for i in range(5)]


def test_negative_work_raises_one_line_value_error():
    chares = list(
        SyntheticApp(lambda i, it: -2.0 if i == 1 else 1.0, num_chares=3)
        .build_array(1)
    )
    with pytest.raises(ValueError, match=r"work\(9\) returned negative -2\.0$"):
        type(chares[0]).work_rows(chares)(9)


def test_negative_stencil_row_raises_one_line_value_error():
    chare = StencilStripChare(0, 4, 64, flops_per_cell=5.0, jitter_amp=3.0)
    chare.array_name = "s"
    row = StencilStripChare.work_rows([chare])
    negative = next(it for it in range(50) if chare.work(it) < 0)
    with pytest.raises(ValueError) as info:
        row(negative)
    message = str(info.value)
    assert "\n" not in message
    expected = chare.work(negative)
    assert message.endswith(f"work({negative}) returned negative {expected}")


def test_negative_mol3d_row_raises_one_line_value_error():
    cell = MDCellChare(0, 100, avg_particles=50.0)
    cell.array_name = "m"
    cell.NEIGHBORS_AT_AVG_DENSITY = -1.0  # the only way to a negative cost
    message = r"^MDCellChare\(m\[0\]\)\.work\(3\) returned negative"
    with pytest.raises(ValueError, match=message):
        MDCellChare.work_rows([cell])(3)


def test_negative_work_raises_on_both_backends():
    app = SyntheticApp(lambda i, it: -1.0 if it == 2 else 0.01, num_chares=4)
    for backend in ("events", "fast"):
        with pytest.raises(ValueError, match="returned negative"):
            run_scenario(Scenario(app=app, num_cores=2, iterations=5), backend=backend)
