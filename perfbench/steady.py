#!/usr/bin/env python3
"""Steadiness self-check: run one workload repeatedly and print each
end-to-end metric's run-to-run spread next to its bound.

    python3 perfbench/steady.py --workload fig2_matrix [--runs 10] [--sets 1]

Each run is ``perfbench/run.py --trace 0`` with its own ``--seed``
(``--first-seed``, ``--first-seed + 1``, ...; no seed repeats across
sets) and ``run_seconds`` from ``BENCHMARK.json``. The spread is the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. A
metric is steady when its spread is below a third of its bound. With
``--sets 2`` the runs are repeated as a second set, and the shift of the
second set's median against the first is printed next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"run with seed {seed} reported incorrect outputs")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = config["end_to_end"]
    sets: List[Dict[str, List[float]]] = []
    for s in range(args.sets):
        values: Dict[str, List[float]] = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            got = run_once(args.workload, seed, config["run_seconds"])
            for name in values:
                values[name].append(got[name])
            print(
                f"set {s + 1} seed {seed}: "
                + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
                flush=True,
            )
        sets.append(values)

    print(f"\n{args.workload}: {args.runs} runs per set")
    print(f"  {'metric':16s} {'median':>10s} {'spread':>8s} {'bound':>6s} {'verdict':>8s}"
          + ("  median shift" if args.sets == 2 else ""))
    all_ok = True
    for m in metrics:
        name, bound = m["name"], m["bound"]
        first = sets[0][name]
        sp = spread(first)
        verdict = "steady" if sp < bound / 3 else ("ok" if sp <= bound else "NOISY")
        if name != "setup_s" and sp > bound:
            all_ok = False
        line = f"  {name:16s} {statistics.median(first):10.4g} {sp:8.2%} {bound:6.2f} {verdict:>8s}"
        if args.sets == 2:
            a, b = statistics.median(first), statistics.median(sets[1][name])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            all_ok &= worse <= bound
            line += f"  {worse:+.2%} (worse if > 0)"
        print(line)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
