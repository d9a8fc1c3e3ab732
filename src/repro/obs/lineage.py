"""Imbalance observatory: per-chare lineage, flow, and counterfactual bounds.

The audit trail (:mod:`repro.telemetry.audit`) records what the balancer
*decided* and the ledger (:mod:`repro.obs.ledger`) records where wall
clock *went*; this module records what the load actually *was*, object
by object, and what each LB step did about it:

* **lineage** — one load sample per (chare, iteration) plus every
  migration, reduced to a residency graph: which core each chare lived
  on over which iteration span, and which LB step moved it;
* **imbalance metrics** — per-iteration λ = max/avg core load,
  coefficient of variation, Gini coefficient and per-core load shares,
  all computed from the same samples;
* **counterfactual bounds** — each LB step's interval replayed under
  (a) the pre-step mapping (no-migration counterfactual) and (b) an
  oracle fractional balance (total/P lower bound), yielding a
  ``recovered / recoverable`` efficiency per step and per run.

The chare CPU demand of an iteration is a function of the chare and the
iteration number only — never of the mapping — so replaying an interval
under a different placement with the recorded samples is exact, not an
estimate.

Like the ledger, the recorder never *accumulates* floats: every sample
is an exact dyadic rational, so ``cpu * 2**1074`` is an integer
(:mod:`repro.obs.exact`) and all aggregation is integer addition at that
one shared exponent. The statistics are integer formulas over those sums
(the scale cancels out of every ratio), so the headline invariants hold
exactly rather than to within rounding: λ ≥ 1, Gini ∈ [0, 1), CoV = 0
iff the loads are perfectly balanced, oracle ≤ observed for every step,
and the metrics are permutation-invariant over cores. Floats appear only
in the JSON payload, each one an int/int true division (correctly
rounded, so equal to ``float()`` of the same ``fractions.Fraction``) —
which is also why the two backends produce payloads that compare ``==``.

The null-hook doctrine applies: backends carry a ``lineage`` attribute
that defaults to ``None`` and pay one identity check per hook site, so
runs without a recorder attached are byte-identical to recorder-free
builds.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.exact import ONE, SHIFT, to_fixed

__all__ = [
    "LINEAGE_SCHEMA",
    "LineageError",
    "LineageRecorder",
    "imbalance_metrics",
    "format_lineage_text",
    "lineage_dot",
]

#: Version stamp carried by every lineage payload.
LINEAGE_SCHEMA = 1

ChareKey = Tuple[str, int]


class LineageError(RuntimeError):
    """A lineage invariant was violated (bad hook order or broken graph)."""


def _chare_str(key: ChareKey) -> str:
    return f"{key[0]}[{key[1]}]"


# ---------------------------------------------------------------------------
# imbalance metrics (pure, exact)
# ---------------------------------------------------------------------------


def imbalance_metrics(loads: Sequence[Any]) -> Dict[str, float]:
    """Imbalance statistics of one per-core load vector, computed exactly.

    ``loads`` is one non-negative number per core (floats, ints or
    Fractions). The loads are put over one common denominator and every
    statistic is an integer formula, floats only at the end, so:

    * ``lambda`` = max/mean ≥ 1.0 always (exactly 1.0 iff balanced);
    * ``cov`` = stddev/mean is 0.0 **iff** every load is equal;
    * ``gini`` ∈ [0, (n-1)/n] ⊂ [0, 1);
    * every statistic is invariant under permuting the cores.

    An all-zero vector is defined as perfectly balanced (λ = 1).
    """
    if not loads:
        raise ValueError("imbalance_metrics needs at least one core load")
    ratios = [
        (x if hasattr(x, "as_integer_ratio") else Fraction(x)).as_integer_ratio()
        for x in loads
    ]
    unit = math.lcm(*(d for _, d in ratios))
    return _fixed_metrics([n * (unit // d) for n, d in ratios], unit)


def _fixed_metrics(xs: Sequence[int], unit: int) -> Dict[str, float]:
    """:func:`imbalance_metrics` of the loads ``x / unit`` (``xs`` ints)."""
    if any(x < 0 for x in xs):
        raise ValueError("core loads must be non-negative")
    n = len(xs)
    total = sum(xs)
    if total == 0:
        return {
            "lambda": 1.0, "cov": 0.0, "gini": 0.0,
            "max_s": 0.0, "mean_s": 0.0, "total_s": 0.0,
        }
    mx = max(xs)
    # with mean = total/n: var / mean^2 = sum_i (n x_i - total)^2 / (n total^2)
    spread = sum((n * x - total) ** 2 for x in xs)
    # Gini via the sorted-rank identity: sum_i (2i - n + 1) x_(i) / (n T)
    gini = sum((2 * i - n + 1) * x for i, x in enumerate(sorted(xs)))
    return {
        "lambda": mx * n / total,
        "cov": math.sqrt(spread / (n * total * total)),
        "gini": gini / (n * total),
        "max_s": mx / unit,
        "mean_s": total / (n * unit),
        "total_s": total / unit,
    }


# ---------------------------------------------------------------------------
# the recorder
# ---------------------------------------------------------------------------


class LineageRecorder:
    """Per-chare load samples + migration lineage for one job's run.

    Parameters
    ----------
    job:
        Name tag of the observed job (cosmetic, carried in the payload).
    core_ids:
        The job's cores — the only cores loads are attributed to.

    The simulation side drives four hooks:

    * :meth:`record_placement` — the initial chare → core mapping,
      captured once before the first iteration;
    * :meth:`mark_iteration` — iteration begin times;
    * :meth:`record_sample` — one completed task: (chare, iteration,
      executing core, accrued CPU seconds);
    * :meth:`record_lb_step` — one LB step's migrations, stamped with
      the simulated time and the first iteration run under the new
      mapping;
    * :meth:`close` — seal the recorder at job completion.
    """

    def __init__(self, job: str = "app", core_ids: Sequence[int] = ()) -> None:
        self.job = job
        self.core_ids: Tuple[int, ...] = tuple(sorted(int(c) for c in core_ids))
        if len(set(self.core_ids)) != len(self.core_ids):
            raise ValueError("core_ids contains duplicates")
        self._placement: Dict[ChareKey, int] = {}
        # iteration -> chare -> (core, cpu_s); dict-keyed, so the two
        # backends' different completion orders compare equal
        self._samples: Dict[int, Dict[ChareKey, Tuple[int, float]]] = {}
        self._marks: List[float] = []
        self._steps: List[Dict[str, Any]] = []
        self._close_bg: Optional[Dict[int, float]] = None
        self.closed_at: Optional[float] = None

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def record_placement(self, mapping: Mapping[ChareKey, int]) -> None:
        """Capture the initial chare → core mapping (once, before start)."""
        if self._placement:
            raise LineageError("placement already recorded")
        cores = set(self.core_ids)
        for key, cid in mapping.items():
            if cid not in cores:
                raise LineageError(
                    f"chare {key!r} placed on core {cid}, not one of the "
                    f"job's cores {self.core_ids}"
                )
        self._placement = dict(mapping)

    def mark_iteration(self, iteration: int, t: float) -> None:
        """Record that ``iteration`` begins at simulated time ``t``."""
        if self.closed_at is not None:
            return
        if iteration != len(self._marks):
            raise LineageError(
                f"iteration mark {iteration} out of order "
                f"(expected {len(self._marks)})"
            )
        if self._marks and t < self._marks[-1]:
            raise LineageError("iteration marks must be non-decreasing")
        self._marks.append(t)

    def record_sample(
        self, key: ChareKey, iteration: int, core_id: int, cpu_time: float
    ) -> None:
        """Record one completed task's accrued CPU seconds."""
        if self.closed_at is not None:
            return
        if cpu_time < 0.0:
            raise LineageError(f"negative CPU sample for {key!r}: {cpu_time}")
        per = self._samples.setdefault(iteration, {})
        if key in per:
            raise LineageError(
                f"duplicate sample for chare {key!r} in iteration {iteration}"
            )
        per[key] = (core_id, cpu_time)

    def record_lb_step(
        self,
        *,
        time: float,
        iteration: int,
        migrations: Sequence[Tuple[ChareKey, int, int]],
        bg_cpu: Optional[Mapping[int, float]] = None,
    ) -> None:
        """Record one LB step: ``iteration`` is the first iteration that
        will run under the post-step mapping.

        ``bg_cpu`` is the *cumulative* CPU other owners have consumed on
        each of the job's cores up to this step — the interference
        boundary snapshot the counterfactual replay charges each window
        with. Without it the replay degrades to pure app CPU.
        """
        if self.closed_at is not None:
            return
        if self._steps:
            prev = self._steps[-1]
            if time < prev["time"] or iteration <= prev["iteration"]:
                raise LineageError("LB steps must be ordered in time")
        self._steps.append(
            {
                "time": time,
                "iteration": int(iteration),
                "migrations": [
                    (key, int(src), int(dst)) for key, src, dst in migrations
                ],
                "bg_cpu": None if bg_cpu is None else dict(bg_cpu),
            }
        )

    def close(
        self, t_end: float, *, bg_cpu: Optional[Mapping[int, float]] = None
    ) -> None:
        """Seal the recorder at job completion time ``t_end``.

        ``bg_cpu`` is the closing cumulative interference snapshot
        (see :meth:`record_lb_step`).
        """
        if self.closed_at is not None:
            raise LineageError("lineage recorder already closed")
        self._close_bg = None if bg_cpu is None else dict(bg_cpu)
        self.closed_at = t_end

    @property
    def closed(self) -> bool:
        return self.closed_at is not None

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def n_iterations(self) -> int:
        return len(self._marks)

    def samples(self) -> Dict[int, Dict[ChareKey, Tuple[int, float]]]:
        """The raw (iteration → chare → (core, cpu)) sample store."""
        return {i: dict(per) for i, per in self._samples.items()}

    def _mappings(self) -> List[Dict[ChareKey, int]]:
        """Mapping snapshots: entry k is the mapping *after* step k-1
        (entry 0 is the initial placement). Validates every migration's
        source against the chare's current residency."""
        if not self._placement:
            raise LineageError("no placement recorded")
        snaps = [dict(self._placement)]
        current = dict(self._placement)
        for step in self._steps:
            for key, src, dst in step["migrations"]:
                if key not in current:
                    raise LineageError(f"migration of unplaced chare {key!r}")
                if current[key] != src:
                    raise LineageError(
                        f"chare {key!r} migrated from core {src} but "
                        f"resides on core {current[key]}"
                    )
                current[key] = dst
            snaps.append(dict(current))
        return snaps

    def residencies(self) -> Dict[ChareKey, List[Dict[str, Any]]]:
        """Chare → residency intervals ``[from_iteration, to_iteration)``.

        Intervals tile each chare's lifetime ``[0, n_iterations)``
        contiguously; each interval after the first carries the index of
        the LB step that opened it.
        """
        self._mappings()  # validates sources
        n = self.n_iterations
        out: Dict[ChareKey, List[Dict[str, Any]]] = {}
        for key in sorted(self._placement):
            out[key] = [
                {
                    "core": self._placement[key],
                    "from_iteration": 0,
                    "to_iteration": n,
                    "lb_step": None,
                }
            ]
        for k, step in enumerate(self._steps):
            boundary = step["iteration"]
            for key, _src, dst in step["migrations"]:
                intervals = out[key]
                intervals[-1]["to_iteration"] = boundary
                intervals.append(
                    {
                        "core": dst,
                        "from_iteration": boundary,
                        "to_iteration": n,
                        "lb_step": k,
                    }
                )
        return out

    def _validate_samples(self) -> List[Dict[ChareKey, int]]:
        """Every (chare, iteration) sample must sit on the chare's
        residency core, and every placed chare must have exactly one
        sample per iteration. Returns the mapping snapshots."""
        snaps = self._mappings()
        bounds = [s["iteration"] for s in self._steps]
        n = self.n_iterations
        expected = set(self._placement)
        for i in range(n):
            per = self._samples.get(i, {})
            if per.keys() != expected:
                missing = sorted(expected - set(per))[:3]
                extra = sorted(set(per) - expected)[:3]
                raise LineageError(
                    f"iteration {i}: sample set does not match the placed "
                    f"chares (missing {missing}, unplaced {extra})"
                )
            # snapshot index = number of steps at or before iteration i
            snap = snaps[bisect.bisect_right(bounds, i)]
            for key, (core, _cpu) in per.items():
                if snap[key] != core:
                    raise LineageError(
                        f"iteration {i}: chare {key!r} sampled on core "
                        f"{core} but resides on core {snap[key]}"
                    )
        return snaps

    # ------------------------------------------------------------------
    # exact aggregation (fixed-point ints, see repro.obs.exact)
    # ------------------------------------------------------------------
    def _iteration_loads(self) -> List[List[int]]:
        """Per-iteration app load of each core (``core_ids`` order) in
        fixed point; each sample is converted once."""
        pos = {cid: j for j, cid in enumerate(self.core_ids)}
        rows = []
        for i in range(self.n_iterations):
            row = [0] * len(pos)
            for core, cpu in self._samples.get(i, {}).values():
                n, d = cpu.as_integer_ratio()
                row[pos[core]] += n << (SHIFT - d.bit_length())
            rows.append(row)
        return rows

    def _chare_load(self, key: ChareKey, lo: int, hi: int) -> int:
        """Fixed-point CPU of chare ``key`` over iterations ``[lo, hi)``."""
        total = 0
        for i in range(lo, hi):
            n, d = self._samples[i][key][1].as_integer_ratio()
            total += n << (SHIFT - d.bit_length())
        return total

    def _step_bounds(self) -> List[Tuple[int, int]]:
        """Iteration interval ``[lo, hi)`` governed by each LB step."""
        n = self.n_iterations
        bounds = []
        for k, step in enumerate(self._steps):
            lo = step["iteration"]
            hi = self._steps[k + 1]["iteration"] if k + 1 < len(self._steps) else n
            bounds.append((lo, hi))
        return bounds

    def _bg_deltas(self) -> List[List[int]]:
        """Interference each core suffered between consecutive
        boundaries (run start, every LB step, run end), in fixed point;
        zero where either boundary has no snapshot."""
        snaps: List[Optional[List[int]]] = [[0] * len(self.core_ids)]
        for bg in [step["bg_cpu"] for step in self._steps] + [self._close_bg]:
            snaps.append(
                None if bg is None
                else [to_fixed(bg.get(cid, 0.0)) for cid in self.core_ids]
            )
        return [
            [0] * len(self.core_ids) if a is None or b is None
            else [y - x for x, y in zip(a, b)]
            for a, b in zip(snaps, snaps[1:])
        ]

    def counterfactuals(self) -> List[Dict[str, Any]]:
        """Per-step counterfactual bounds on *effective* load, exactly.

        A core's effective load over step k's interval is the app CPU
        assigned to it plus the interference other jobs stole from it
        there (the quantity the paper's Algorithm 1 balances — an
        interference-aware step deliberately *skews* raw app CPU, so
        replaying raw CPU would score it backwards). App CPU is a
        function of (chare, iteration) only, so re-assigning it under
        the pre-step mapping is exact; interference is pinned to the
        core it was measured on in all three variants.

        ``observed`` is the realised max effective core load; ``nolb``
        replays the interval under the pre-step mapping; ``oracle`` is
        the fractional-balance lower bound (total/P, i.e. the mean).
        ``oracle ≤ observed`` holds by construction (a mean never
        exceeds a max); ``observed ≤ nolb`` is the genuine claim that
        the step helped, reported via ``sane``. A broken graph raises
        :class:`LineageError`, as :meth:`payload` does.
        """
        return self._counterfactuals(
            self._validate_samples(), self._iteration_loads()
        )

    def _counterfactuals(
        self, snaps: List[Dict[ChareKey, int]], rows: List[List[int]]
    ) -> List[Dict[str, Any]]:
        """:meth:`counterfactuals` from validated samples: inside step k's
        interval every sample sits on its ``snaps[k + 1]`` core, so the
        no-LB replay is the observed loads (``rows``, fixed point) with
        only the chares the step moved put back."""
        pos = {cid: j for j, cid in enumerate(self.core_ids)}
        deltas = self._bg_deltas()
        P = len(self.core_ids)
        out = []
        for k, (lo, hi) in enumerate(self._step_bounds()):
            interference = deltas[k + 1]
            observed = list(interference)
            for row in rows[lo:hi]:
                observed = [a + b for a, b in zip(observed, row)]
            nolb = list(observed)
            before, after = snaps[k], snaps[k + 1]
            for key in {key for key, _src, _dst in self._steps[k]["migrations"]}:
                if before[key] != after[key]:
                    load = self._chare_load(key, lo, hi)
                    nolb[pos[after[key]]] -= load
                    nolb[pos[before[key]]] += load
            obs_max = Fraction(max(observed, default=0), ONE)
            nolb_max = Fraction(max(nolb, default=0), ONE)
            oracle = Fraction(sum(observed), P * ONE)
            recovered = nolb_max - obs_max
            recoverable = nolb_max - oracle
            out.append(
                {
                    "step": k,
                    "interval": (lo, hi),
                    "interference": Fraction(sum(interference), ONE),
                    "observed_max": obs_max,
                    "nolb_max": nolb_max,
                    "oracle_max": oracle,
                    "recovered": recovered,
                    "recoverable": recoverable,
                    "efficiency": (
                        float(recovered / recoverable) if recoverable > 0 else None
                    ),
                    "sane": oracle <= obs_max <= nolb_max,
                }
            )
        return out

    # ------------------------------------------------------------------
    # payload
    # ------------------------------------------------------------------
    def payload(
        self, audit: Optional[Sequence[Mapping[str, Any]]] = None
    ) -> Dict[str, Any]:
        """JSON-safe reduction (floats derived from the exact values).

        ``audit`` (optional) is the run's audit-trail record list; step
        k is joined with audit record k, contributing the strategy name
        and each migration's accept reason. Deterministic: two identical
        runs — and the two backends — serialise byte-identically.
        """
        if self.closed_at is None:
            raise LineageError("lineage recorder still open — close() it first")
        snaps = self._validate_samples()
        if audit is not None and len(audit) != len(self._steps):
            raise LineageError(
                f"audit trail has {len(audit)} steps but lineage recorded "
                f"{len(self._steps)}"
            )
        n = self.n_iterations
        rows = self._iteration_loads()
        per_iteration = []
        for i, loads in enumerate(rows):
            metrics = _fixed_metrics(loads, ONE)
            total = sum(loads)
            per_iteration.append(
                {
                    "iteration": i,
                    "start_s": self._marks[i],
                    "lambda": metrics["lambda"],
                    "cov": metrics["cov"],
                    "gini": metrics["gini"],
                    "max_s": metrics["max_s"],
                    "total_s": metrics["total_s"],
                    "loads": {
                        str(cid): x / ONE for cid, x in zip(self.core_ids, loads)
                    },
                    "shares": {
                        str(cid): (x / total if total else 0.0)
                        for cid, x in zip(self.core_ids, loads)
                    },
                }
            )

        steps = []
        recovered_total = Fraction(0)
        recoverable_total = Fraction(0)
        for k, cf in enumerate(self._counterfactuals(snaps, rows)):
            step = self._steps[k]
            record = audit[k] if audit is not None else None
            if record is not None and record.get("iteration") is not None:
                if int(record["iteration"]) != step["iteration"]:
                    raise LineageError(
                        f"step {k}: audit iteration {record['iteration']} != "
                        f"lineage iteration {step['iteration']}"
                    )
            migrations = [
                {
                    "chare": _chare_str(key),
                    "src": src,
                    "dst": dst,
                    "reason": _join_reason(record, key, src, dst),
                }
                for key, src, dst in step["migrations"]
            ]
            recovered_total += cf["recovered"]
            recoverable_total += cf["recoverable"]
            steps.append(
                {
                    "step": k,
                    "time": step["time"],
                    "iteration": step["iteration"],
                    "iterations": list(cf["interval"]),
                    "migrations": migrations,
                    "strategy": (
                        record.get("strategy") if record is not None else None
                    ),
                    "rejected": _count_rejected(record),
                    "interference_s": float(cf["interference"]),
                    "observed_max_s": float(cf["observed_max"]),
                    "nolb_max_s": float(cf["nolb_max"]),
                    "oracle_max_s": float(cf["oracle_max"]),
                    "lambda_observed": (
                        float(cf["observed_max"] / cf["oracle_max"])
                        if cf["oracle_max"] > 0 else 1.0
                    ),
                    "lambda_nolb": (
                        float(cf["nolb_max"] / cf["oracle_max"])
                        if cf["oracle_max"] > 0 else 1.0
                    ),
                    "recovered_s": float(cf["recovered"]),
                    "recoverable_s": float(cf["recoverable"]),
                    "efficiency": cf["efficiency"],
                    "sane": cf["sane"],
                }
            )

        residencies = {
            _chare_str(key): intervals
            for key, intervals in self.residencies().items()
        }
        return {
            "schema": LINEAGE_SCHEMA,
            "job": self.job,
            "cores": list(self.core_ids),
            "iterations": n,
            "wall_s": self.closed_at,
            "placement": {
                _chare_str(key): self._placement[key]
                for key in sorted(self._placement)
            },
            "residencies": residencies,
            "per_iteration": per_iteration,
            "steps": steps,
            "run": self._run_block(
                steps, snaps[-1], rows, recovered_total, recoverable_total
            ),
        }

    def _run_block(
        self,
        steps: List[Dict[str, Any]],
        final_mapping: Mapping[ChareKey, int],
        rows: List[List[int]],
        recovered: Fraction,
        recoverable: Fraction,
    ) -> Dict[str, Any]:
        n = self.n_iterations
        P = len(self.core_ids)
        final_lo = self._steps[-1]["iteration"] if self._steps else 0
        interference = self._bg_deltas()[-1]
        loads = list(interference)
        for row in rows[final_lo:n]:
            loads = [a + b for a, b in zip(loads, row)]
        hotspot = None
        total = sum(loads)
        if total > 0:
            # max effective load wins; ties break to the lowest core id
            j = max(
                range(P), key=lambda j: (loads[j], -self.core_ids[j])
            )
            hot = self.core_ids[j]
            # the final mapping holds for the whole closing interval
            on_core = sorted(
                (
                    (self._chare_load(key, final_lo, n), key)
                    for key, cid in final_mapping.items()
                    if cid == hot
                ),
                key=lambda pair: (-pair[0], pair[1]),
            )
            hotspot = {
                "core": hot,
                "load_s": loads[j] / ONE,
                "interference_s": interference[j] / ONE,
                "share": loads[j] / total,
                "chares": [
                    {"chare": _chare_str(key), "cpu_s": cpu / ONE}
                    for cpu, key in on_core[:3]
                    if cpu > 0
                ],
            }
        return {
            "lb_steps": len(steps),
            "migrations": sum(len(s["migrations"]) for s in steps),
            "recovered_s": float(recovered),
            "recoverable_s": float(recoverable),
            "efficiency": (
                float(recovered / recoverable) if recoverable > 0 else None
            ),
            "sane": all(s["sane"] for s in steps),
            "residual_hotspot": hotspot,
        }


def _join_reason(
    record: Optional[Mapping[str, Any]], key: ChareKey, src: int, dst: int
) -> Optional[str]:
    """The audit candidate reason for one committed migration."""
    if record is None:
        return None
    want = [key[0], int(key[1])]
    for cand in record.get("candidates", ()):
        if (
            cand.get("chare") == want
            and cand.get("src") == src
            and cand.get("dst") == dst
        ):
            return cand.get("reason")
    return None


def _count_rejected(record: Optional[Mapping[str, Any]]) -> Optional[int]:
    if record is None:
        return None
    return sum(
        1 for c in record.get("candidates", ()) if c.get("outcome") == "rejected"
    )


# ---------------------------------------------------------------------------
# rendering (the `repro lineage` flow summary)
# ---------------------------------------------------------------------------


def _bar(value: float, lo: float, hi: float, width: int = 20) -> str:
    """A fixed-width textual gauge of ``value`` within ``[lo, hi]``."""
    if hi <= lo:
        return "#" * width
    frac = (value - lo) / (hi - lo)
    n = max(0, min(width, int(round(frac * width))))
    return "#" * n + "." * (width - n)


def format_lineage_text(payload: Mapping[str, Any], *, label: Optional[str] = None) -> str:
    """Human-readable flow summary of one lineage payload."""
    rows = payload["per_iteration"]
    run = payload["run"]
    head = (
        f"{payload['job']}: {payload['iterations']} iterations x "
        f"{len(payload['cores'])} cores, wall {payload['wall_s']:.6f}s — "
        f"{run['lb_steps']} LB steps, {run['migrations']} migrations"
    )
    lines = [f"{label}: {head}" if label else head]
    if rows:
        lams = [r["lambda"] for r in rows]
        lo, hi = min(lams), max(lams)
        lines.append(
            f"  per-iteration imbalance λ = max/avg (range {lo:.3f}..{hi:.3f}):"
        )
        for r in rows:
            lines.append(
                f"    iter {r['iteration']:>3}  λ {r['lambda']:6.3f}  "
                f"cov {r['cov']:5.3f}  gini {r['gini']:5.3f}  "
                f"|{_bar(r['lambda'], 1.0, max(hi, 1.0 + 1e-9))}|"
            )
    for s in payload["steps"]:
        eff = (
            f"{100.0 * s['efficiency']:.0f}% of achievable"
            if s["efficiency"] is not None
            else "nothing to recover"
        )
        strategy = f" [{s['strategy']}]" if s.get("strategy") else ""
        sane = "" if s["sane"] else "  ** NOT SANE (observed > no-LB replay) **"
        lines.append(
            f"  LB step {s['step']}{strategy} before iter {s['iteration']}: "
            f"{len(s['migrations'])} migrations, recovered "
            f"{s['recovered_s']:.6f}/{s['recoverable_s']:.6f} core-s ({eff})"
            f"{sane}"
        )
        for m in s["migrations"]:
            reason = f" ({m['reason']})" if m.get("reason") else ""
            lines.append(
                f"      {m['chare']:<18} core {m['src']} -> {m['dst']}{reason}"
            )
    if run["efficiency"] is not None:
        lines.append(
            f"  run: recovered {run['recovered_s']:.6f} of "
            f"{run['recoverable_s']:.6f} recoverable core-s "
            f"({100.0 * run['efficiency']:.0f}%)"
        )
    hot = run.get("residual_hotspot")
    if hot is not None:
        chares = ", ".join(
            f"{c['chare']} ({c['cpu_s']:.6f}s)" for c in hot["chares"]
        )
        lines.append(
            f"  residual hotspot: core {hot['core']} carries "
            f"{100.0 * hot['share']:.1f}% of the closing load"
            + (f" — {chares}" if chares else "")
        )
    return "\n".join(lines)


def lineage_dot(payload: Mapping[str, Any]) -> str:
    """The migration flow as a GraphViz digraph (cores as nodes).

    Edge weight = number of chares moved along that (src → dst) pair
    across all LB steps; node label carries the core's closing load
    share so the flow reads against where load ended up.
    """
    flows: Dict[Tuple[int, int], int] = {}
    for step in payload["steps"]:
        for m in step["migrations"]:
            pair = (m["src"], m["dst"])
            flows[pair] = flows.get(pair, 0) + 1
    last = payload["per_iteration"][-1] if payload["per_iteration"] else None
    lines = ["digraph lineage {", "  rankdir=LR;", "  node [shape=box];"]
    for cid in payload["cores"]:
        share = last["shares"][str(cid)] if last is not None else 0.0
        lines.append(
            f'  c{cid} [label="core {cid}\\n{100.0 * share:.1f}%"];'
        )
    for (src, dst), count in sorted(flows.items()):
        lines.append(
            f'  c{src} -> c{dst} [label="{count}", penwidth={1 + count}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
