#!/usr/bin/env python3
"""Paper-scale sweep benchmark for the simulator.

Measure one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload fig2_matrix --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced passes;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics. ``--seed`` seeds the order in which every pass runs
the workload's points; the simulator's own seed is ``--sim-seed``, which
must match a committed reference (rebuild one with ``--regenerate``)::

    python3 perfbench/run.py --regenerate [--workload NAME] [--sim-seed N]

Everything runs in this one process with ``workers=1``, through
``repro.experiments.sweep.run_sweep`` and the presets in
``repro.experiments.sweep_presets``; only the ``setup_s`` probes start
fresh interpreters (one at a time). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
REFERENCE_DIR = BENCH_DIR / "reference"

#: fixed before the interpreter starts (the script re-executes itself)
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONPYCACHEPREFIX": str(WORK_DIR / "pycache"),
}

SETUP_PROBES = 11

#: A fixed constant near one gauge chunk's time on the reference machine (a
#: 2-core 2.1 GHz Xeon VM) under ordinary load, so scaled values read like
#: host times there. Every host time is scaled by this over the chunk time
#: measured around it (see Gauge).
GAUGE_NOMINAL_S = 2.7e-3
#: gauge time read after each point, as a share of the point's latency
GAUGE_SHARE = 0.1
#: gauge chunks within this many seconds of a timed interval scale it
GAUGE_WINDOW_S = 0.5

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "point_p50_ms": "ms",
    "point_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER_UNITS = {
    "sim.fastpath.self_ms": "ms",
    "sim.fastpath.share": "fraction",
    "apps.work_calls": "count",
    "apps.work_ms": "ms",
    "apps.build_array_ms": "ms",
    "core.lb_steps": "count",
    "core.migrations": "count",
    "core.build_view_ms": "ms",
    "core.balance_ms": "ms",
    "core.useful_step_frac": "fraction",
    "sim.engine.self_ms": "ms",
    "telemetry.audit_write_ms": "ms",
    "obs.ledger_summary_ms": "ms",
    "obs.lineage_payload_ms": "ms",
    "telemetry.audit_x": "x",
    "obs.ledger_x": "x",
    "obs.lineage_x": "x",
    "sweep.build_scenario_ms": "ms",
    "sweep.summarize_ms": "ms",
    "cache.puts": "count",
    "cache.put_ms": "ms",
    "sim.points_fast": "count",
    "sim.points_events": "count",
    "trace.overhead_x": "x",
}

#: per-layer time metric -> span name whose self time it reports
SELF_TIME_SPANS = {
    "sim.fastpath.self_ms": "sim.fastpath",
    "apps.work_ms": "apps.work",
    "apps.build_array_ms": "apps.build_array",
    "core.build_view_ms": "core.build_view",
    "core.balance_ms": "core.balance",
    "sim.engine.self_ms": "sim.engine",
    "telemetry.audit_write_ms": "telemetry.audit_write",
    "obs.ledger_summary_ms": "obs.ledger_summary",
    "obs.lineage_payload_ms": "obs.lineage_payload",
    "sweep.build_scenario_ms": "sweep.build_scenario",
    "sweep.summarize_ms": "sweep.summarize",
    "cache.put_ms": "cache.put",
}

#: instrumentation overhead ratio -> sweep kind it compares with plain events
OVERHEAD_KINDS = {
    "telemetry.audit_x": "audit",
    "obs.ledger_x": "ledger",
    "obs.lineage_x": "lineage",
}


def fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def digest(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def reference_path(workload: str, sim_seed: int) -> Path:
    from workloads import DEFAULT_SIM_SEED

    suffix = "" if sim_seed == DEFAULT_SIM_SEED else f".seed{sim_seed}"
    return REFERENCE_DIR / f"{workload}{suffix}.json"


def tail_percentile(samples: List[float], preferred: float) -> Tuple[float, float, int]:
    """``(pct, value, beyond)``: nearest-rank percentile with >= 10 beyond.

    Starts at ``preferred`` and steps down the ladder until at least ten
    samples lie beyond the reported one.
    """
    ordered = sorted(samples)
    n = len(ordered)
    ladder = [p for p in (99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0) if p <= preferred]
    for pct in ladder:
        idx = max(math.ceil(pct / 100.0 * n) - 1, 0)
        if n - idx - 1 >= 10 or pct == ladder[-1]:
            return pct, ordered[idx], n - idx - 1
    raise AssertionError("unreachable")


def _gauge_chunk(n: int = 20000) -> float:
    """A fixed slice of interpreter work: float arithmetic and dict stores."""
    acc = 0.0
    slots: Dict[int, float] = {}
    for i in range(n):
        x = i * 0.5
        acc += x * x * 1e-12 - acc * 1e-9
        slots[i & 255] = acc
    return acc


class Gauge:
    """Host-speed gauge interleaved with the measured work.

    On a shared machine the host's speed drifts by tens of percent within
    seconds. The gauge runs a fixed interpreter workload in short chunks
    between the measured intervals (after every point, between setup
    probes) and remembers when each chunk ended and how long it took. A
    host time measured over ``[t0, t1]`` is then multiplied by
    ``GAUGE_NOMINAL_S`` over the mean chunk time within ``GAUGE_WINDOW_S``
    of that interval, which cancels the drift both saw. Gauge time is never
    part of a measured interval.
    """

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.chunks: List[float] = []

    def read(self, budget: float) -> float:
        """Run chunks for at least ``budget`` seconds (one at least)."""
        t_start = t = perf_counter()
        while True:
            _gauge_chunk()
            now = perf_counter()
            self.ends.append(now)
            self.chunks.append(now - t)
            t = now
            if now - t_start >= budget:
                return now - t_start

    def scale(self, t0: float, t1: float) -> float:
        lo = bisect_left(self.ends, t0 - GAUGE_WINDOW_S)
        hi = bisect_right(self.ends, t1 + GAUGE_WINDOW_S)
        if lo == hi:  # no chunk nearby: take the nearest ones
            lo, hi = max(lo - 1, 0), min(lo + 1, len(self.ends))
        sel = self.chunks[lo:hi]
        return GAUGE_NOMINAL_S * len(sel) / sum(sel)

    def note(self) -> str:
        c = sorted(self.chunks)
        return (
            f"gauge chunk ms: min {c[0] * 1e3:.2f} median {statistics.median(c) * 1e3:.2f} "
            f"max {c[-1] * 1e3:.2f} over {len(c)} chunks (nominal {GAUGE_NOMINAL_S * 1e3:.2f})"
        )


# ---------------------------------------------------------------------------
# one pass over a workload
# ---------------------------------------------------------------------------


def fresh_sweep(spec, kind, *, log=None, backend: Optional[str] = None, tracer=None):
    """``(result, t0, wall)`` of one ``run_sweep`` with ``workers=1`` and a
    fresh cache and audit directory, deleted afterwards. ``wall`` covers
    the ``run_sweep`` call alone, after a full garbage collection."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.sweep import run_sweep

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="sweep-", dir=WORK_DIR))
    try:
        gc.collect()
        if tracer is not None:
            tracer.enter("sweep.run_sweep")
        t0 = perf_counter()
        try:
            result = run_sweep(
                spec,
                workers=1,
                cache=ResultCache(tmp / "cache"),
                log=log,
                backend=backend or kind.backend,
                ledger=kind.ledger,
                lineage=kind.lineage,
                audit_dir=tmp / "audit" if kind.audit else None,
            )
        finally:
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.exit()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return result, t0, wall


class PassStats:
    """Timings and output digests of one pass (every kind once)."""

    def __init__(self) -> None:
        self.raw_wall = 0.0  # summed run_sweep wall time, gauge excluded
        self.wall = 0.0  # the same, gauge-scaled
        self.points = 0
        self.latency: Dict[str, Dict[str, float]] = {}  # kind -> label -> scaled s
        self.digests: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self.trace = None  # PassTrace of a traced pass

    @property
    def scale(self) -> float:
        return self.wall / self.raw_wall


class Bench:
    """A workload's points, its reference, and the pass loop."""

    def __init__(self, workload, seed: int, sim_seed: int, reference: Dict[str, Any]) -> None:
        self.workload = workload
        self.points = workload.points(sim_seed)
        self.reference = reference["points"]
        self.rng = random.Random(seed)
        self.attempted = 0
        self.ok = 0
        self.bad: List[str] = []

    def check(self, kind, r) -> bool:
        """Completed and identical to the event-engine reference."""
        exp = self.reference.get(r.label)
        if exp is None or digest(r.summary.to_dict()) != exp["summary"]:
            return False
        if kind.audit and digest(r.audit) != exp["audit"]:
            return False
        if kind.ledger:
            led = r.ledger
            if not (led["conserved"] and led["residual_s"] == 0.0):
                return False
            if digest(led) != exp["ledger"]:
                return False
        if kind.lineage:
            lin = r.lineage
            if any(s["oracle_max_s"] > s["observed_max_s"] for s in lin["steps"]):
                return False
            if digest(lin) != exp["lineage"]:
                return False
        return True

    def run_pass(self, gauge: Optional[Gauge] = None, tracer=None) -> PassStats:
        from repro.experiments.progress import EventLog
        from repro.experiments.sweep import SweepSpec

        order = list(self.points)
        self.rng.shuffle(order)
        spec_points = tuple({**params, "label": label} for label, params in order)
        stats = PassStats()
        for kind in self.workload.kinds:
            starts: Dict[str, float] = {}
            spans: Dict[str, Tuple[float, float]] = {}
            gauge_s = [0.0]

            def on_event(record: Dict[str, Any]) -> None:
                now = perf_counter()
                event = record["event"]
                if event == "point_start":
                    starts[record["label"]] = now
                if tracer is not None:
                    tracer.on_event(record)
                if event == "point_done":
                    t0 = starts.pop(record["label"], now)
                    spans[record["label"]] = (t0, now)
                    if gauge is not None:
                        if tracer is not None:
                            tracer.enter("bench.gauge")
                        gauge_s[0] += gauge.read(GAUGE_SHARE * (now - t0))
                        if tracer is not None:
                            tracer.exit()

            spec = SweepSpec(name=f"{self.workload.name}.{kind.name}", points=spec_points)
            try:
                result, t0, wall = fresh_sweep(
                    spec, kind, log=EventLog(on_event=on_event), tracer=tracer
                )
            except Exception:
                # the boundary that must keep running: report, count, go on
                traceback.print_exc(file=sys.stderr)
                self.attempted += len(order)
                self.bad.append(f"{kind.name}: sweep raised")
                continue
            net = wall - gauge_s[0]
            scale = gauge.scale(t0, t0 + wall) if gauge is not None else 1.0
            stats.raw_wall += net
            stats.wall += net * scale
            stats.points += len(result.results)
            stats.latency[kind.name] = {
                label: (b - a) * (gauge.scale(a, b) if gauge is not None else 1.0)
                for label, (a, b) in spans.items()
            }
            for r in result.results:
                self.attempted += 1
                if self.check(kind, r):
                    self.ok += 1
                else:
                    self.bad.append(f"{kind.name}: {r.label}")
                stats.digests[(kind.name, r.label)] = (
                    digest(r.summary.to_dict()),
                    digest(r.audit),
                    digest(r.ledger),
                    digest(r.lineage),
                )
        return stats


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def load_reference(workload: str, sim_seed: int) -> Optional[Dict[str, Any]]:
    path = reference_path(workload, sim_seed)
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def probe_setup(args) -> int:
    """Child of a ``setup_s`` probe: print the clock at the first point_start."""
    from workloads import WORKLOADS

    from repro.experiments.progress import EventLog
    from repro.experiments.sweep import SweepSpec

    class FirstPoint(Exception):
        pass

    def on_event(record: Dict[str, Any]) -> None:
        if record["event"] == "point_start":
            raise FirstPoint(monotonic())

    workload = WORKLOADS[args.workload]
    kind = workload.kinds[0]
    spec = SweepSpec(
        name=f"{workload.name}.{kind.name}",
        points=tuple({**p, "label": label} for label, p in workload.points(args.sim_seed)),
    )
    try:
        fresh_sweep(spec, kind, log=EventLog(on_event=on_event))
    except FirstPoint as reached:
        print(repr(reached.args[0]))
        return 0
    return fail("probe sweep finished without a point_start")


def measure_setup(args, gauge: Gauge) -> List[Tuple[float, float]]:
    """``(raw, scaled)`` seconds from a fresh interpreter launch to its
    first point_start, ``SETUP_PROBES`` times."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--probe-setup",
        "--workload", args.workload, "--sim-seed", str(args.sim_seed),
    ]

    gauge.read(GAUGE_WINDOW_S / 5)
    probes = []
    for _ in range(SETUP_PROBES):
        t0, m0 = perf_counter(), monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        t1 = perf_counter()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"setup probe exited {proc.returncode}")
        probes.append((t0, t1, float(proc.stdout.split()[-1]) - m0))
        gauge.read(GAUGE_WINDOW_S / 5)
    return [(raw, raw * gauge.scale(t0, t1)) for t0, t1, raw in probes]


def run_until(seconds: float, step, min_steps: int = 1) -> None:
    """Call ``step()`` at least ``min_steps`` times, then until another
    call would end further past the deadline than short of it."""
    t_start = perf_counter()
    steps = 0
    while True:
        t0 = perf_counter()
        step()
        steps += 1
        now = perf_counter()
        if steps >= min_steps and (now - t_start) + 0.5 * (now - t0) >= seconds:
            return


def end_to_end(args, bench: Bench) -> Tuple[Dict[str, float], List[str]]:
    gauge = Gauge()
    setup = measure_setup(args, gauge)
    bench.run_pass()  # warm-up: lazy imports and memos fill here
    passes: List[PassStats] = []
    run_until(
        args.seconds,
        lambda: passes.append(bench.run_pass(gauge)),
        bench.workload.min_passes,
    )
    latencies = [v for s in passes for lat in s.latency.values() for v in lat.values()]
    if not latencies:
        raise RuntimeError("no point completed")
    pct, tail, beyond = tail_percentile(latencies, bench.workload.tail_pct)
    points = sum(s.points for s in passes)
    raw_pps = points / sum(s.raw_wall for s in passes)
    metrics = {
        "points_per_s": points / sum(s.wall for s in passes),
        "point_p50_ms": statistics.median(latencies) * 1e3,
        "point_tail_ms": tail * 1e3,
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": bench.ok / bench.attempted,
    }
    notes = [
        f"timed passes: {len(passes)} (after 1 warm-up pass); point runs: {len(latencies)}",
        f"point_tail_ms is p{pct:g} of {len(latencies)} samples ({beyond} beyond it)",
        "setup probes, raw s: " + " ".join(f"{raw:.3f}" for raw, _ in setup),
        f"points_per_s before gauge scaling: {raw_pps:.4g}",
        gauge.note(),
    ]
    return metrics, notes


def per_layer(args, bench: Bench) -> Tuple[Dict[str, float], List[str], bool]:
    from tracer import PassTrace, Tracer

    gauge = Gauge()
    bench.run_pass()  # warm-up
    tracer = Tracer()
    plain: List[PassStats] = []
    traced: List[PassStats] = []

    def traced_pass() -> PassStats:
        tracer.current = PassTrace()
        tracer.install()
        try:
            stats = bench.run_pass(gauge, tracer)
        finally:
            tracer.uninstall()
        stats.trace = tracer.current
        return stats

    def pair() -> None:
        plain.append(bench.run_pass(gauge))
        traced.append(traced_pass())

    run_until(args.seconds, pair)

    sound = True
    notes = [f"pairs of untraced + traced passes: {len(traced)} (after 1 warm-up pass)"]
    if any(t.digests != plain[0].digests for t in traced + plain):
        sound = False
        notes.append("MISMATCH: traced and untraced passes produced different outputs")
    counts = [t.trace.counts() for t in traced]
    if any(c != counts[0] for c in counts):
        sound = False
        notes.append(f"MISMATCH: counts differ between traced passes: {counts}")

    def med(values) -> float:
        return statistics.median(list(values))

    metrics: Dict[str, float] = {}
    for name, span in SELF_TIME_SPANS.items():
        metrics[name] = med(t.trace.self_s.get(span, 0.0) * t.scale * 1e3 for t in traced)
    metrics["sim.fastpath.share"] = med(
        t.trace.self_s.get("sim.fastpath", 0.0) / t.raw_wall for t in traced
    )
    metrics.update(counts[0])
    steps = counts[0]["core.lb_steps"]
    metrics["core.useful_step_frac"] = traced[0].trace.useful_steps / steps if steps else 0.0
    for name, kind in OVERHEAD_KINDS.items():
        ratios = [
            sum(s.latency[kind].values()) / sum(s.latency["events"].values())
            for s in plain
            if kind in s.latency and "events" in s.latency
        ]
        metrics[name] = med(ratios) if ratios else 0.0
    metrics["trace.overhead_x"] = med(t.wall for t in traced) / med(s.wall for s in plain)

    # per-layer self time of the median traced pass, for humans
    mid = sorted(traced, key=lambda t: t.wall)[len(traced) // 2]
    rows = sorted(mid.trace.self_s.items(), key=lambda kv: -kv[1])
    notes.append(f"self time per span (median traced pass, {mid.raw_wall * 1e3:.0f} ms, unscaled):")
    notes.append(f"  {'span':24s} {'self ms':>10s} {'share':>7s} {'calls':>9s}")
    for span, self_s in rows:
        notes.append(
            f"  {span:24s} {self_s * 1e3:10.1f} {self_s / mid.raw_wall:7.1%} "
            f"{mid.trace.calls.get(span, 0):9d}"
        )
    out = WORK_DIR / f"trace-{args.workload}.json"
    tracer.write(out, {"workload": args.workload, "seed": args.seed, "passes": len(traced)})
    notes.append(f"spans written to {out.relative_to(ROOT)}")
    notes.append(gauge.note())
    return metrics, notes, sound


def measure(args) -> int:
    from workloads import WORKLOADS

    reference = load_reference(args.workload, args.sim_seed)
    if reference is None:
        return fail(
            f"no reference for {args.workload} at sim seed {args.sim_seed}; "
            f"build one with: python3 perfbench/run.py --regenerate "
            f"--workload {args.workload} --sim-seed {args.sim_seed}"
        )
    bench = Bench(WORKLOADS[args.workload], args.seed, args.sim_seed, reference)
    if args.trace:
        metrics, notes, sound = per_layer(args, bench)
        units = PER_LAYER_UNITS
    else:
        metrics, notes = end_to_end(args, bench)
        sound, units = True, END_TO_END_UNITS
    correct = sound and bench.ok == bench.attempted
    print(f"workload {args.workload}  seed {args.seed}  sim seed {args.sim_seed}")
    for note in notes:
        print(note)
    for label in bench.bad[:20]:
        print(f"FAILED point run: {label}")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.attempted - bench.ok,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


def regenerate(args) -> int:
    """Rebuild ``reference/<workload>.json`` on the event engine."""
    from workloads import WORKLOADS

    from repro.experiments.sweep import SweepSpec

    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        workload = WORKLOADS[name]
        points = workload.points(args.sim_seed)
        spec = SweepSpec(name=name, points=tuple({**p, "label": label} for label, p in points))
        entries: Dict[str, Dict[str, str]] = {label: {} for label, _ in points}
        t0 = perf_counter()
        for kind in workload.kinds:
            result, _, _ = fresh_sweep(spec, kind, backend="events")
            for r in result.results:
                entry = entries[r.label]
                summary = digest(r.summary.to_dict())
                if entry.setdefault("summary", summary) != summary:
                    return fail(f"{name}: {r.label}: summary differs between sweep kinds")
                if kind.audit:
                    entry["audit"] = digest(r.audit)
                if kind.ledger:
                    if not (r.ledger["conserved"] and r.ledger["residual_s"] == 0.0):
                        return fail(f"{name}: {r.label}: ledger not conserved")
                    entry["ledger"] = digest(r.ledger)
                if kind.lineage:
                    if any(s["oracle_max_s"] > s["observed_max_s"] for s in r.lineage["steps"]):
                        return fail(f"{name}: {r.label}: lineage oracle above observed")
                    entry["lineage"] = digest(r.lineage)
        doc = {
            "workload": name,
            "sim_seed": args.sim_seed,
            "backend": "events",
            "regenerate": (
                f"python3 perfbench/run.py --regenerate --workload {name} "
                f"--sim-seed {args.sim_seed}"
            ),
            "matrix_digest": digest(entries),
            "points": entries,
        }
        path = reference_path(name, args.sim_seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path.relative_to(ROOT)}: {len(entries)} points, {perf_counter() - t0:.1f} s")
    return 0


def parse_args(argv: List[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="point-order seed")
    parser.add_argument("--sim-seed", type=int, default=0, help="simulator seed (needs a reference)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.regenerate and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: List[str]) -> int:
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        return fail(f"simulator sources not found under {SRC_DIR}")
    env_off = any(os.environ.get(k) != v for k, v in PINNED_ENV.items())
    if env_off or "PYTHONDONTWRITEBYTECODE" in os.environ:
        env = {**os.environ, **PINNED_ENV}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    sys.path.insert(0, str(SRC_DIR))
    args = parse_args(argv)
    if args.probe_setup:
        return probe_setup(args)
    if args.regenerate:
        return regenerate(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
