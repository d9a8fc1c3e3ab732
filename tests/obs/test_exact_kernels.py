"""The integer kernels of the ledger and lineage observers.

Both observers accumulate floats as ints at one shared binary exponent
(:mod:`repro.obs.exact`) instead of one ``Fraction`` per accrual or
sample. These properties pin them to plain-``Fraction`` references on
float vectors built to be awkward: 0.0, subnormals, values near 1e300
and mixed exponents in one sum, and contended weight splits whose
shares are not dyadic.
"""

import bisect
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.obs.exact import ONE, to_fixed
from repro.obs.ledger import BUCKETS, TimeLedger
from repro.obs.lineage import LineageRecorder, imbalance_metrics

#: Non-negative floats across the whole exponent range.
_awkward = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-310, 0.1, 1e300]),
    st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
    st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True),
    st.integers(min_value=-1074, max_value=990).map(lambda e: math.ldexp(1.0, e)),
)

#: Scheduler weights whose ratios are not dyadic (1/3, 0.1/1.1, ...).
_weights = st.sampled_from([1.0, 2.0, 3.0, 0.5, 0.1, 1e-3, 7.0])


class _Proc:
    def __init__(self, owner, weight, key):
        self.owner = owner
        self.weight = weight
        self.key = key


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


@given(x=_awkward)
def test_to_fixed_is_exact(x):
    assert Fraction(to_fixed(x), ONE) == Fraction(x)
    # int/int true division is correctly rounded: the float comes back
    assert to_fixed(x) / ONE == x


def test_to_fixed_rejects_non_dyadic_rationals():
    with pytest.raises(ValueError, match="dyadic"):
        to_fixed(Fraction(1, 3))
    assert to_fixed(3) == 3 * ONE
    assert to_fixed(Fraction(3, 4)) == 3 * ONE // 4


# ---------------------------------------------------------------------------
# ledger vs a plain-Fraction reference
# ---------------------------------------------------------------------------


def _reference_ledger(intervals, marks, pauses):
    """Buckets, busy split, per-chare and per-iteration totals of one core,
    every segment in ``Fraction`` arithmetic."""
    cuts = sorted(set(marks) | {e for p in pauses for e in p})
    totals = [Fraction(0)] * 4
    busy = [Fraction(0)] * 2
    chares = {}
    iters = {}
    for t0, t1, procs in intervals:
        pts = [t0] + [c for c in cuts if t0 < c < t1] + [t1]
        total_w = sum((Fraction(p.weight) for p in procs), Fraction(0))
        app = [(p.key, Fraction(p.weight)) for p in procs if p.owner == "app"]
        app_w = sum((w for _, w in app), Fraction(0))
        for s0, s1 in zip(pts, pts[1:]):
            dt = Fraction(s1) - Fraction(s0)
            row = iters.setdefault(
                max(0, bisect.bisect_right(marks, s0) - 1), [Fraction(0)] * 4
            )
            if app:
                split = [dt * app_w / total_w, dt - dt * app_w / total_w, 0, 0]
                for key, w in app:
                    entry = chares.setdefault(key, [Fraction(0), Fraction(0)])
                    entry[0] += dt * w / total_w
                    entry[1] += dt * w / app_w - dt * w / total_w
            else:
                paused = any(a <= s0 < b for a, b in pauses)
                split = [0, 0, dt, 0] if paused else [0, 0, 0, dt]
                if procs:
                    busy[0 if paused else 1] += dt
            for j in range(4):
                totals[j] += split[j]
                row[j] += split[j]
    return totals, busy, chares, iters


@st.composite
def _core_timelines(draw):
    """One core's timeline: tiling intervals with runnable sets, iteration
    marks and disjoint pause windows, all on awkward float boundaries."""
    pts = sorted(set(draw(st.lists(_awkward, min_size=2, max_size=9))) | {0.0})
    assume(len(pts) >= 2)
    # split points into interval boundaries, marks and pause edges
    bounds = [pts[0]] + [p for p in pts[1:-1] if draw(st.booleans())] + [pts[-1]]
    marks = [0.0] + [p for p in pts[1:] if draw(st.booleans())]
    edges = [p for p in pts if draw(st.booleans())]
    pauses = list(zip(edges[::2], edges[1::2]))
    procs = st.lists(
        st.tuples(
            st.sampled_from(["app", "bg"]), _weights, st.integers(0, 2)
        ),
        max_size=3,
    )
    intervals = []
    for t0, t1 in zip(bounds, bounds[1:]):
        intervals.append(
            (t0, t1, [
                _Proc(owner, w, ("c", k) if owner == "app" else ("bg", k))
                for owner, w, k in draw(procs)
            ])
        )
    return intervals, marks, pauses


@settings(max_examples=150, deadline=None)
@given(timeline=_core_timelines(), use_app=st.booleans())
def test_ledger_equals_fraction_reference(timeline, use_app):
    intervals, marks, pauses = timeline
    led = TimeLedger(job="app", core_ids=[0])
    for i, m in enumerate(marks):
        led.mark_iteration(i, m)
    for a, b in pauses:
        led.mark_pause(a, b)
    for t0, t1, procs in intervals:
        if use_app and len(procs) == 1 and procs[0].owner == "app":
            led.accrue_app(0, t0, t1, procs[0].key)  # the solo special case
        else:
            led.accrue(0, t0, t1, procs)
    t_end = intervals[-1][1]
    led.close(t_end)

    totals, busy, chares, iters = _reference_ledger(intervals, marks, pauses)
    assert led.totals_exact() == dict(zip(BUCKETS, totals))
    assert led.busy_exact() == {
        "compute": totals[0], "stolen": totals[1],
        "overhead": busy[0], "idle": busy[1],
    }
    assert led.residual_exact() == 0 and led.conserved

    summ = led.summary()
    assert summ["residual_s"] == 0.0 and summ["conserved"]
    assert summ["totals"] == {b: float(v) for b, v in zip(BUCKETS, totals)}
    assert summ["fractions"] == {
        b: float(v / Fraction(t_end)) if t_end else 0.0
        for b, v in zip(BUCKETS, totals)
    }
    assert summ["chares"] == {
        f"{k[0]}[{k[1]}]": {"compute": float(c), "stolen": float(s)}
        for k, (c, s) in sorted(chares.items())
    }
    zero = [Fraction(0)] * 4
    for i, row in enumerate(summ["per_iteration"]):
        assert [row[b] for b in BUCKETS] == [float(v) for v in iters.get(i, zero)]


def test_contended_denominators_rescale_without_changing_values():
    # shares 1/3, then 1/(1 + 0.1) with 0.1 the double nearest it: the
    # shared denominator grows twice, and everything accrued before each
    # growth keeps its value
    led = TimeLedger(core_ids=[0])
    led.mark_iteration(0, 0.0)
    app = _Proc("app", 1.0, ("c", 0))
    led.accrue_app(0, 0.0, 0.25, ("c", 0))
    led.accrue(0, 0.25, 0.5, [app, _Proc("bg", 2.0, ("bg", 0))])
    led.accrue(0, 0.5, 0.75, [_Proc("bg", 0.1, ("bg", 0)), app])
    led.accrue_app(0, 0.75, 1.0, ("c", 0))
    led.close(1.0)
    q = Fraction(1, 4)
    compute = q + q / 3 + q / (1 + Fraction(0.1)) + q
    assert led.totals_exact() == {
        "compute": compute, "stolen": 1 - compute,
        "overhead": 0, "idle": 0,
    }
    assert led.summary()["chares"]["c[0]"]["compute"] == float(compute)


# ---------------------------------------------------------------------------
# lineage vs a plain-Fraction reference
# ---------------------------------------------------------------------------


def _reference_metrics(loads):
    """The exact statistics in ``Fraction`` arithmetic, floats at the end."""
    xs = [Fraction(x) for x in loads]
    n = len(xs)
    total = sum(xs, Fraction(0))
    if total == 0:
        return {
            "lambda": 1.0, "cov": 0.0, "gini": 0.0,
            "max_s": 0.0, "mean_s": 0.0, "total_s": 0.0,
        }
    mean = total / n
    var = sum(((x - mean) ** 2 for x in xs), Fraction(0)) / n
    gini = sum(
        ((2 * i - n + 1) * x for i, x in enumerate(sorted(xs))), Fraction(0)
    ) / (n * total)
    return {
        "lambda": float(max(xs) / mean),
        "cov": math.sqrt(float(var / (mean * mean))),
        "gini": float(gini),
        "max_s": float(max(xs)),
        "mean_s": float(mean),
        "total_s": float(total),
    }


@settings(max_examples=300, deadline=None)
@given(loads=st.lists(_awkward, min_size=1, max_size=10))
def test_imbalance_metrics_equal_fraction_reference(loads):
    assert imbalance_metrics(loads) == _reference_metrics(loads)


@settings(max_examples=100, deadline=None)
@given(
    nums=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8),
    den=st.sampled_from([1, 3, 7, 10, 1 << 20]),
)
def test_imbalance_metrics_accepts_ints_floats_and_fractions(nums, den):
    as_fractions = [Fraction(n, den) for n in nums]
    m = imbalance_metrics(as_fractions)
    assert m == _reference_metrics(as_fractions)
    if den == 1:
        assert imbalance_metrics(nums) == m
        assert imbalance_metrics([float(n) for n in nums]) == m
    if den == 1 << 20:  # dyadic: the floats are the same rationals
        assert imbalance_metrics([n / den for n in nums]) == m


@st.composite
def _lineage_runs(draw):
    """A recorded run: placement, per-iteration samples on the residency
    core, LB steps with migrations, and interference snapshots."""
    cores = tuple(range(draw(st.integers(1, 4))))
    chares = [("c", i) for i in range(draw(st.integers(1, 5)))]
    n = draw(st.integers(1, 6))
    mapping = {k: draw(st.sampled_from(cores)) for k in chares}
    step_iters = sorted(set(draw(st.lists(st.integers(1, n), max_size=3))))
    bg = st.one_of(st.none(), st.fixed_dictionaries({c: _awkward for c in cores}))
    rec = LineageRecorder(job="app", core_ids=cores)
    rec.record_placement(dict(mapping))
    samples = {}
    for i in range(n):
        rec.mark_iteration(i, float(i))
        if i in step_iters:
            moves = []
            for k in chares:
                dst = draw(st.sampled_from(cores))
                if draw(st.booleans()) and dst != mapping[k]:
                    moves.append((k, mapping[k], dst))
                    mapping[k] = dst
            rec.record_lb_step(
                time=float(i), iteration=i, migrations=moves, bg_cpu=draw(bg)
            )
        for k in chares:
            cpu = draw(_awkward)
            samples[i, k] = cpu
            rec.record_sample(k, i, mapping[k], cpu)
    rec.close(float(n), bg_cpu=draw(bg))
    return rec, samples


@settings(max_examples=150, deadline=None)
@given(run=_lineage_runs())
def test_lineage_equals_fraction_reference(run):
    rec, samples = run
    cores = rec.core_ids
    payload = rec.payload()
    for row in payload["per_iteration"]:
        i = row["iteration"]
        loads = {c: Fraction(0) for c in cores}
        for (j, k), cpu in samples.items():
            if j == i:
                loads[rec.samples()[i][k][0]] += Fraction(cpu)
        ref = _reference_metrics([loads[c] for c in cores])
        assert {m: row[m] for m in ("lambda", "cov", "gini", "max_s", "total_s")} == {
            m: ref[m] for m in ("lambda", "cov", "gini", "max_s", "total_s")
        }
        assert row["loads"] == {str(c): float(loads[c]) for c in cores}

    # the no-LB replay re-assigns every sample under the pre-step mapping
    snaps = rec._mappings()
    bg = [None] + [s["bg_cpu"] for s in rec._steps] + [rec._close_bg]
    bg[0] = {c: 0.0 for c in cores}
    for k, cf in enumerate(rec.counterfactuals()):
        lo, hi = cf["interval"]
        a, b = bg[k + 1], bg[k + 2]
        inter = {
            c: (Fraction(b[c]) - Fraction(a[c])) if a and b else Fraction(0)
            for c in cores
        }
        observed = dict(inter)
        nolb = dict(inter)
        for (i, key), cpu in samples.items():
            if lo <= i < hi:
                observed[rec.samples()[i][key][0]] += Fraction(cpu)
                nolb[snaps[k][key]] += Fraction(cpu)
        assert cf["observed_max"] == max(observed.values())
        assert cf["nolb_max"] == max(nolb.values())
        assert cf["oracle_max"] == sum(observed.values()) / len(cores)
        assert cf["oracle_max"] <= cf["observed_max"]
        step = payload["steps"][k]
        assert step["observed_max_s"] == float(cf["observed_max"])
        assert step["nolb_max_s"] == float(cf["nolb_max"])
        assert step["oracle_max_s"] == float(cf["oracle_max"])
        assert step["recoverable_s"] == float(cf["recoverable"])
        assert step["efficiency"] == cf["efficiency"]
        assert step["sane"] == cf["sane"]
