"""The benchmark's workloads: which preset sweep points run, and how.

A workload is a list of sweep points taken from the public presets in
``repro.experiments.sweep_presets`` plus the *kinds* of sweep each pass
runs over those points. Every kind is one ``run_sweep`` call with
``workers=1``; the kinds differ only in the public options they pass
(backend, ``audit_dir``, ``ledger``, ``lineage``).

``sim_seed`` is the simulator's own seed (the presets' ``seed``
parameter). The committed references in ``reference/`` were built for
``DEFAULT_SIM_SEED``; another value needs ``run.py --regenerate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_SIM_SEED = 0


@dataclass(frozen=True)
class Kind:
    """One sweep flavour: the public ``run_sweep`` options it passes."""

    name: str
    backend: str = "auto"
    audit: bool = False
    ledger: bool = False
    lineage: bool = False


PLAIN = Kind("plain")
EVENTS = Kind("events", backend="events")
AUDIT = Kind("audit", audit=True)
LEDGER = Kind("ledger", ledger=True)
LINEAGE = Kind("lineage", lineage=True)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kinds: Tuple[Kind, ...]
    #: percentile reported as ``point_tail_ms``
    tail_pct: float
    #: timed passes a run makes at least, so that ``tail_pct`` has ten or
    #: more samples beyond it
    min_passes: int

    def points(self, sim_seed: int = DEFAULT_SIM_SEED) -> List[Tuple[str, dict]]:
        """``(label, normalised params)`` for every point, preset order."""
        from repro.experiments import sweep_presets as presets

        if self.name == "fig2_matrix":
            specs = [presets.fig2_sweep_spec(seed=sim_seed)]
        elif self.name == "contended_ablation":
            one_node = {"cores": 4, "scale": 1.0, "iterations": 200, "seed": sim_seed}
            specs = [
                presets.ablation_epsilon_spec(**one_node),
                presets.ablation_period_spec(**one_node),
            ]
        elif self.name == "oracle_observed":
            # a subset of the published ABL-EPS / ABL-PERIOD points, so a
            # pass of all four kinds fits several times into one run
            specs = [
                presets.ablation_epsilon_spec(epsilons=(0.02, 0.2), seed=sim_seed),
                presets.ablation_period_spec(periods=(2, 10), seed=sim_seed),
            ]
        else:  # pragma: no cover - guarded by WORKLOADS
            raise KeyError(self.name)
        out = []
        for spec in specs:
            prefix = "" if len(specs) == 1 else f"{spec.name}/"
            out.extend((prefix + p.label, p.params) for p in spec.expand())
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig2_matrix",
            "the paper's Fig. 2/4 matrix at paper scale on the default "
            "backend: solo-core fold, work() calls and LB view builds",
            kinds=(PLAIN,),
            tail_pct=95.0,
            min_passes=4,  # 240 point runs, 12 beyond p95
        ),
        Workload(
            "contended_ablation",
            "ABL-EPS + ABL-PERIOD on one 4-core node: the contended fold and "
            "frequent LB steps dominate, the solo fold does little",
            kinds=(PLAIN,),
            tail_pct=95.0,
            min_passes=17,  # 204 point runs, 10 beyond p95
        ),
        Workload(
            "oracle_observed",
            "ablation points on the event engine, plain and with audit, "
            "and on the default backend with ledger and lineage",
            kinds=(EVENTS, AUDIT, LEDGER, LINEAGE),
            # the audit sweep is the slowest quarter of the point runs; p85
            # lies inside it rather than on its edge
            tail_pct=85.0,
            min_passes=5,  # 80 point runs, 12 beyond p85
        ),
    )
}
