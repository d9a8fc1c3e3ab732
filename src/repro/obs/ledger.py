"""Time-attribution ledger: every simulated core-second, accounted.

The stack measures end-to-end wall time and energy but — before this
module — could not say *where* a run's time went: how much of each core's
clock was application compute, how much was stolen by proportional-share
interference, how much was the LB pause (decision + migration transfer),
and how much was barrier/communication idle. :class:`TimeLedger`
decomposes every app core's wall clock into exactly those four buckets,
per core, per iteration and per chare, under a hard **conservation
invariant**: the buckets sum *bit-exactly* to ``wall x cores``.

Exactness
---------
Bit-exact conservation of separately accumulated IEEE-754 sums is
impossible (per-bucket fold order differs from a single accumulator), so
the ledger does not accumulate floats. Every simulated timestamp is a
float and therefore an exact dyadic rational, so ``t * 2**1074`` is an
integer (:mod:`repro.obs.exact`); every bucket is a Python int in units
of ``2**-1074 / Q`` seconds. ``Q`` starts at 1 and only grows when a
contended interval's weight split ``dt * w / w_total`` needs a
denominator it lacks — then every accumulator is rescaled once, so all
of them keep one shared denominator. Each accrued interval contributes
``fixed(t1) - fixed(t0)`` split exactly among the buckets, intervals are
required to tile each core's timeline with no gap or overlap
(:class:`LedgerError` otherwise), and integer addition is associative —
so conservation holds by telescoping, and the event engine and the fast
path produce **identical** ledgers even though they subdivide the
timeline differently (per scheduling change vs. per task). The exact
views (:meth:`TimeLedger.totals_exact` and friends) are
``fractions.Fraction`` values built from those ints; summary floats come
from int/int true division, which is correctly rounded and therefore
equals ``float()`` of the same ``Fraction``.

Bucket semantics
----------------
``compute``
    The job's proportional-share occupancy: ``dt * w_app / w_total``
    over every interval where one of its tasks is runnable.
``stolen``
    The complement on those same intervals — wall time the co-runners'
    shares took from the job (zero when the job runs alone).
``overhead``
    Wall time inside an LB pause window (decision overhead + migration
    transfer) with no app task runnable.
``idle``
    Everything else: barrier wait, communication gaps, pre-launch time,
    and background-only stretches.

The ledger additionally tracks how much of ``overhead``/``idle`` wall
time the core was *busy* with other jobs — the split the energy
decomposition (:func:`repro.power.meter.decompose_energy`) attributes
dynamic joules by.

The null-hook doctrine applies: backends carry a ``ledger`` attribute
that defaults to ``None`` and is checked once per accrual; with no
ledger attached nothing is computed and summaries are byte-identical to
ledger-free builds.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.exact import FIXED_BITS, SHIFT, to_fixed

__all__ = [
    "LEDGER_SCHEMA",
    "BUCKETS",
    "LedgerError",
    "TimeLedger",
    "format_ledger_text",
]

#: Version stamp carried by every ledger summary.
LEDGER_SCHEMA = 1

#: Bucket names, in reporting order.
BUCKETS = ("compute", "stolen", "overhead", "idle")

_COMPUTE, _STOLEN, _OVERHEAD, _IDLE = range(4)

ChareKey = Tuple[str, int]


class LedgerError(RuntimeError):
    """A ledger invariant was violated (gap, overlap, or misuse)."""


class TimeLedger:
    """Exact per-core/per-iteration/per-chare wall-clock attribution.

    Parameters
    ----------
    job:
        Owner tag of the attributed job (processes with this owner are
        "app"; everything else is a co-runner).
    core_ids:
        The job's cores — the only cores the ledger accounts.

    The simulation side drives four hooks:

    * :meth:`accrue` — one contiguous interval of one core's timeline
      with its (constant) runnable set;
    * :meth:`accrue_app` — fast-path special case: the job's task ``key``
      ran alone for the whole interval (pure compute);
    * :meth:`mark_iteration` / :meth:`mark_pause` — iteration begin
      times and LB pause windows (classification boundaries);
    * :meth:`close` — seal the ledger at job completion; every core
      must be accounted exactly to the closing time.

    Timestamps are floats (or ints); weights are any positive rationals.
    """

    def __init__(self, job: str = "app", core_ids: Sequence[int] = ()) -> None:
        self.job = job
        self.core_ids: Tuple[int, ...] = tuple(sorted(int(c) for c in core_ids))
        if len(set(self.core_ids)) != len(self.core_ids):
            raise ValueError("core_ids contains duplicates")
        # every accumulator below is an int in units of 2**-1074 / _q s
        self._q = 1
        self._per_core: Dict[int, List[int]] = {
            cid: [0, 0, 0, 0] for cid in self.core_ids
        }
        self._busy_overhead: Dict[int, int] = dict.fromkeys(self.core_ids, 0)
        self._busy_idle: Dict[int, int] = dict.fromkeys(self.core_ids, 0)
        self._chares: Dict[ChareKey, List[int]] = {}
        self._iters: List[List[int]] = []
        self._marks: List[float] = []
        self._mark_fixed: List[int] = []
        self._pause_starts: List[float] = []
        self._pause_ends: List[float] = []
        self._pause_edges: List[float] = []
        # core -> (accounted-to time, its fixed-point value)
        self._cursor: Dict[int, Tuple[float, int]] = {
            cid: (0.0, 0) for cid in self.core_ids
        }
        self.closed_at: Optional[float] = None

    # ------------------------------------------------------------------
    # marks
    # ------------------------------------------------------------------
    def mark_iteration(self, iteration: int, t: float) -> None:
        """Record that ``iteration`` begins at simulated time ``t``."""
        if self.closed_at is not None:
            return
        if iteration != len(self._marks):
            raise LedgerError(
                f"iteration mark {iteration} out of order "
                f"(expected {len(self._marks)})"
            )
        if self._marks and t < self._marks[-1]:
            raise LedgerError("iteration marks must be non-decreasing")
        self._marks.append(t)
        self._mark_fixed.append(to_fixed(t))

    def mark_pause(self, t0: float, t1: float) -> None:
        """Record an LB pause window ``[t0, t1)`` (decision + transfer)."""
        if self.closed_at is not None:
            return
        if t1 < t0:
            raise LedgerError(f"pause window ends before it starts: {t0}..{t1}")
        if self._pause_edges and t0 < self._pause_edges[-1]:
            raise LedgerError("pause windows must be ordered and disjoint")
        self._pause_starts.append(t0)
        self._pause_ends.append(t1)
        self._pause_edges.append(t0)
        self._pause_edges.append(t1)

    # ------------------------------------------------------------------
    # accrual
    # ------------------------------------------------------------------
    def _advance(self, core_id: int, t0: float, t1: float) -> Tuple[int, int]:
        """Move ``core_id``'s cursor from ``t0`` to ``t1``; returns both
        ends in fixed point."""
        cur, f0 = self._cursor[core_id]
        if t0 != cur:
            raise LedgerError(
                f"core {core_id}: interval starts at {t0!r} but the core "
                f"is accounted to {cur!r} (gap or overlap)"
            )
        n, d = t1.as_integer_ratio()
        f1 = n << (SHIFT - d.bit_length())
        self._cursor[core_id] = (t1, f1)
        return f0, f1

    def accrue(
        self, core_id: int, t0: float, t1: float, procs: Iterable[Any]
    ) -> None:
        """Attribute ``[t0, t1)`` on ``core_id`` given its runnable set.

        ``procs`` is the core's (constant over the interval) runnable
        set; each item exposes ``owner``, ``weight`` and ``key``.
        Intervals must tile the core's timeline contiguously from 0.
        """
        if self.closed_at is not None:
            return
        if t1 <= t0:
            return
        f0, f1 = self._advance(core_id, t0, t1)

        runnable = [
            (p.owner == self.job, p.key, p.weight.as_integer_ratio())
            for p in procs
        ]
        comp_f, shares = self._shares(runnable)
        has_procs = bool(runnable)

        per_core = self._per_core[core_id]
        chares = self._chares
        prev, fprev = t0, f0
        for c in self._cuts(t0, t1):
            if c <= prev:
                continue
            fc = to_fixed(c)
            self._segment(
                core_id, per_core, chares, prev, fc - fprev,
                shares, comp_f, has_procs,
            )
            prev, fprev = c, fc
        if prev < t1:
            self._segment(
                core_id, per_core, chares, prev, f1 - fprev,
                shares, comp_f, has_procs,
            )

    def accrue_app(
        self, core_id: int, t0: float, t1: float, key: ChareKey
    ) -> None:
        """Attribute ``[t0, t1)`` as pure compute of chare ``key``.

        Fast-path special case for a solo-running app task: the whole
        interval is compute (share ``w/w == 1``), so no weight split is
        needed — only iteration segmentation.
        """
        if self.closed_at is not None:
            return
        if t1 <= t0:
            return
        f0, f1 = self._advance(core_id, t0, t1)
        q = self._q
        per_core = self._per_core[core_id]
        entry = self._chares.get(key)
        if entry is None:
            entry = self._chares[key] = [0, 0]
        marks = self._marks
        prev, fprev = t0, f0
        i = bisect.bisect_right(marks, t0)
        while i < len(marks) and marks[i] < t1:
            c = marks[i]
            fc = self._mark_fixed[i]
            i += 1
            if c <= prev:
                continue
            dt = (fc - fprev) * q
            per_core[_COMPUTE] += dt
            entry[0] += dt
            self._iter_bucket(prev)[_COMPUTE] += dt
            prev, fprev = c, fc
        dt = (f1 - fprev) * q
        per_core[_COMPUTE] += dt
        entry[0] += dt
        self._iter_bucket(prev)[_COMPUTE] += dt

    # -- internals ------------------------------------------------------
    def _shares(
        self, runnable: List[Tuple[bool, ChareKey, Tuple[int, int]]]
    ) -> Tuple[int, List[Tuple[ChareKey, int, int]]]:
        """Integer weight shares of one runnable set of ``(is_app, key,
        weight ratio)``: the app's share of the core and, per app
        process, ``(key, w / w_total, w / w_app)``, each times the shared
        denominator. The denominator grows first when a share would not
        be a whole number of the accumulators' unit."""
        app = []
        total_w = app_w = 0
        if runnable:
            # integer weights over one common denominator
            den = math.lcm(*(d for _, _, (_, d) in runnable))
            for is_app, key, (n, d) in runnable:
                w = n * (den // d)
                total_w += w
                if is_app:
                    app_w += w
                    app.append((key, w))
        if not app:
            return 0, []
        need = 1
        for _, w in app:
            need = math.lcm(
                need, total_w // math.gcd(w, total_w), app_w // math.gcd(w, app_w)
            )
        if self._q % need:
            self._rescale(math.lcm(self._q, need) // self._q)
        q = self._q
        return q * app_w // total_w, [
            (key, q * w // total_w, q * w // app_w) for key, w in app
        ]

    def _rescale(self, factor: int) -> None:
        """Multiply the shared denominator, and every accumulator, by
        ``factor`` (values unchanged)."""
        for buckets in (
            *self._per_core.values(), *self._chares.values(), *self._iters
        ):
            buckets[:] = [v * factor for v in buckets]
        for busy in (self._busy_overhead, self._busy_idle):
            for cid in busy:
                busy[cid] *= factor
        self._q *= factor

    def _cuts(self, t0: float, t1: float) -> List[float]:
        """Classification boundaries strictly inside ``(t0, t1)``."""
        cuts: List[float] = []
        marks = self._marks
        i = bisect.bisect_right(marks, t0)
        while i < len(marks) and marks[i] < t1:
            cuts.append(marks[i])
            i += 1
        edges = self._pause_edges
        i = bisect.bisect_right(edges, t0)
        while i < len(edges) and edges[i] < t1:
            cuts.append(edges[i])
            i += 1
        cuts.sort()
        return cuts

    def _iter_bucket(self, t: float) -> List[int]:
        idx = bisect.bisect_right(self._marks, t) - 1
        if idx < 0:
            idx = 0
        iters = self._iters
        while len(iters) <= idx:
            iters.append([0, 0, 0, 0])
        return iters[idx]

    def _in_pause(self, t: float) -> bool:
        j = bisect.bisect_right(self._pause_starts, t) - 1
        return j >= 0 and t < self._pause_ends[j]

    def _segment(
        self,
        core_id: int,
        per_core: List[int],
        chares: Dict[ChareKey, List[int]],
        s0: float,
        dt: int,
        shares: List[Tuple[ChareKey, int, int]],
        comp_f: int,
        has_procs: bool,
    ) -> None:
        """Attribute one segment starting at ``s0``, ``dt`` long in
        fixed point (not yet scaled by the shared denominator)."""
        it = self._iter_bucket(s0)
        if shares:
            comp = dt * comp_f
            stol = dt * self._q - comp
            per_core[_COMPUTE] += comp
            per_core[_STOLEN] += stol
            it[_COMPUTE] += comp
            it[_STOLEN] += stol
            for key, of_total, of_app in shares:
                entry = chares.get(key)
                if entry is None:
                    entry = chares[key] = [0, 0]
                c_p = dt * of_total
                entry[0] += c_p
                entry[1] += dt * of_app - c_p
        else:
            dt *= self._q
            bucket = _OVERHEAD if self._in_pause(s0) else _IDLE
            per_core[bucket] += dt
            it[bucket] += dt
            if has_procs:
                if bucket == _OVERHEAD:
                    self._busy_overhead[core_id] += dt
                else:
                    self._busy_idle[core_id] += dt

    # ------------------------------------------------------------------
    # closing / invariants
    # ------------------------------------------------------------------
    def close(self, t_end: float) -> None:
        """Seal the ledger at job completion time ``t_end``.

        Every core must be accounted exactly to ``t_end`` (the caller
        syncs its cores first); later accruals become no-ops.
        """
        if self.closed_at is not None:
            raise LedgerError("ledger already closed")
        for cid in self.core_ids:
            cur = self._cursor[cid][0]
            if cur != t_end and t_end > 0.0:
                raise LedgerError(
                    f"core {cid} accounted to {cur!r}, not the closing "
                    f"time {t_end!r} — sync the core before close()"
                )
        self.closed_at = t_end

    @property
    def closed(self) -> bool:
        return self.closed_at is not None

    @property
    def _unit(self) -> int:
        """Denominator of every accumulator: one second, in its units."""
        return self._q << FIXED_BITS

    def _totals(self) -> List[int]:
        out = [0, 0, 0, 0]
        for buckets in self._per_core.values():
            for i in range(4):
                out[i] += buckets[i]
        return out

    def _residual(self) -> int:
        if self.closed_at is None:
            raise LedgerError("ledger still open — close() it first")
        wall = to_fixed(self.closed_at) * self._q * len(self.core_ids)
        return sum(self._totals()) - wall

    def totals_exact(self) -> Dict[str, Fraction]:
        """Exact bucket totals summed over every core."""
        unit = self._unit
        return {b: Fraction(v, unit) for b, v in zip(BUCKETS, self._totals())}

    def busy_exact(self) -> Dict[str, Fraction]:
        """Exact *busy* core-seconds by bucket.

        Compute and stolen wall time is busy by definition; overhead and
        idle wall time counts only the sub-intervals where co-runners
        kept the core busy. This is the partition the energy
        decomposition splits dynamic joules by.
        """
        unit = self._unit
        totals = self._totals()
        return {
            "compute": Fraction(totals[_COMPUTE], unit),
            "stolen": Fraction(totals[_STOLEN], unit),
            "overhead": Fraction(sum(self._busy_overhead.values()), unit),
            "idle": Fraction(sum(self._busy_idle.values()), unit),
        }

    def residual_exact(self) -> Fraction:
        """``sum(buckets) - wall x cores`` — zero iff conserved."""
        return Fraction(self._residual(), self._unit)

    @property
    def conserved(self) -> bool:
        return self._residual() == 0

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-safe reduction (floats derived from the exact values).

        Deterministic: keys sorted, so two identical runs — and the two
        backends — serialise byte-identically.
        """
        if self.closed_at is None:
            raise LedgerError("ledger still open — close() it first")
        wall = self.closed_at
        unit = self._unit
        totals = self._totals()
        busy = [
            totals[_COMPUTE],
            totals[_STOLEN],
            sum(self._busy_overhead.values()),
            sum(self._busy_idle.values()),
        ]
        # wall x cores in the accumulators' units
        denom = to_fixed(wall) * self._q * len(self.core_ids)
        residual = sum(totals) - denom
        per_iteration = []
        for i, start in enumerate(self._marks):
            buckets = self._iters[i] if i < len(self._iters) else [0, 0, 0, 0]
            row = {"iteration": i, "start_s": start}
            for j, b in enumerate(BUCKETS):
                row[b] = buckets[j] / unit
            per_iteration.append(row)
        chares = {}
        for key in sorted(self._chares):
            comp, stol = self._chares[key]
            chares[f"{key[0]}[{key[1]}]"] = {
                "compute": comp / unit,
                "stolen": stol / unit,
            }
        return {
            "schema": LEDGER_SCHEMA,
            "job": self.job,
            "wall_s": wall,
            "cores": list(self.core_ids),
            "conserved": residual == 0,
            "residual_s": residual / unit,
            "totals": {b: totals[j] / unit for j, b in enumerate(BUCKETS)},
            "fractions": {
                b: (totals[j] / denom if denom else 0.0)
                for j, b in enumerate(BUCKETS)
            },
            "busy": {b: busy[j] / unit for j, b in enumerate(BUCKETS)},
            "per_core": {
                str(cid): {
                    b: self._per_core[cid][j] / unit
                    for j, b in enumerate(BUCKETS)
                }
                for cid in self.core_ids
            },
            "per_iteration": per_iteration,
            "chares": chares,
        }


# ---------------------------------------------------------------------------
# rendering (the `repro explain` waterfall)
# ---------------------------------------------------------------------------

#: One glyph per bucket for the per-core strips.
_GLYPHS = {"compute": "#", "stolen": "x", "overhead": "o", "idle": "."}


def _strip(shares: Dict[str, float], width: int) -> str:
    """A fixed-width textual stacked bar from bucket shares (sum ~ 1)."""
    cells: List[str] = []
    assigned = 0
    for i, b in enumerate(BUCKETS):
        n = (
            width - assigned
            if i == len(BUCKETS) - 1
            else int(round(shares.get(b, 0.0) * width))
        )
        n = max(0, min(n, width - assigned))
        cells.append(_GLYPHS[b] * n)
        assigned += n
    return "".join(cells)


def format_ledger_text(
    summary: Dict[str, Any],
    *,
    label: Optional[str] = None,
    energy: Optional[Dict[str, Any]] = None,
    top: int = 8,
    width: int = 44,
) -> str:
    """Human-readable waterfall of one ledger summary.

    ``energy`` is an optional :func:`repro.power.meter.decompose_energy`
    dict rendered as a closing line; ``top`` bounds the chare table.
    """
    wall = summary["wall_s"]
    cores = summary["cores"]
    totals = summary["totals"]
    fractions = summary["fractions"]
    status = "conserved" if summary["conserved"] else (
        f"NOT CONSERVED (residual {summary['residual_s']:+.3e}s)"
    )
    lines = []
    head = f"wall {wall:.6f}s x {len(cores)} cores = " \
           f"{wall * len(cores):.6f} core-s [{status}]"
    lines.append(f"{label}: {head}" if label else head)
    for b in BUCKETS:
        share = fractions[b]
        bar = _GLYPHS[b] * max(1 if totals[b] > 0 else 0, int(round(share * width)))
        lines.append(
            f"  {b:<9} {totals[b]:>12.6f} core-s  {100.0 * share:5.1f}%  {bar}"
        )
    lines.append("  per-core waterfall (# compute, x stolen, o overhead, . idle):")
    for cid in cores:
        row = summary["per_core"][str(cid)]
        denom = wall if wall > 0 else 1.0
        shares = {b: row[b] / denom for b in BUCKETS}
        lines.append(f"    core {cid:>3} |{_strip(shares, width)}|")
    chares = summary.get("chares", {})
    if chares and top > 0:
        ranked = sorted(
            chares.items(),
            key=lambda kv: -(kv[1]["compute"] + kv[1]["stolen"]),
        )[:top]
        lines.append(f"  top {len(ranked)} chares by attributed time:")
        for name, row in ranked:
            lines.append(
                f"    {name:<20} compute {row['compute']:>10.6f}s  "
                f"stolen {row['stolen']:>10.6f}s"
            )
    if energy is not None:
        buckets = energy.get("dynamic_by_bucket") or {}
        split = ", ".join(
            f"{b} {buckets[b]:.3f}" for b in BUCKETS if b in buckets
        )
        lines.append(
            f"  energy: {energy['energy_j']:.3f} J = base {energy['base_j']:.3f} J"
            f" + dynamic {energy['dynamic_j']:.3f} J"
            + (f" ({split})" if split else "")
        )
    return "\n".join(lines)
