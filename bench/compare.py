"""Verdicts for a change against its parent, one row per (metric, workload).

    python3 bench/compare.py PARENT.json CHANGE.json

PARENT and CHANGE are result sets written by ``bench/run.py --out``.
Runs pair up in order -- run ``i`` of each side is one pair, so alternate
which side runs first -- and every metric ``BENCHMARK.json`` declares
that both sides measured gets a row: each side's median and quartiles,
the change's share of pairs won (ties count for neither side), and:

``improved``
    the change wins at least 9 in 10 pairs and the medians differ by
    more than the parent's inter-quartile distance;
``regressed``
    the change's median is worse than the parent's by more than the
    metric's bound (per-layer metrics have no bound: they regress by the
    mirror of the ``improved`` rule);
``unresolved``
    the parent's own spread is wider than the bound, so staying within
    the bound cannot be shown -- unless every change run beats every
    parent run;
``unchanged``
    otherwise.

The exit status is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

if __package__ in (None, ""):  # run as ``python3 bench/compare.py``
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.stats import quartiles, relative_spread  # noqa: E402

WIN_SHARE = 0.9
MIN_PAIRS = 10


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: Optional[float]
) -> Dict[str, object]:
    """Compare paired samples of one (metric, workload)."""
    sign = 1.0 if better == "higher" else -1.0  # sign * (change - parent) > 0: change better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr = p3 - p1
    gain = sign * (cm - pm)
    need = WIN_SHARE * len(pairs)
    if wins >= need and gain > iqr:
        outcome = "improved"
    elif bound is None:
        outcome = "regressed" if losses >= need and -gain > iqr else "unchanged"
    elif -gain > bound * abs(pm):
        outcome = "regressed"
    elif relative_spread(parent) > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "pairs": len(pairs),
        "win_share": wins / len(pairs) if pairs else 0.0,
        "verdict": outcome,
    }


def load_runs(path: Path) -> List[dict]:
    return json.loads(path.read_text())["runs"]


def rows(spec: dict, parent: List[dict], change: List[dict]) -> List[Dict[str, object]]:
    declared = [(m, m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    out = []
    for workload in workloads:
        for entry, bound in declared:
            sides = []
            for runs in (parent, change):
                sides.append(
                    [
                        run["workloads"][workload]["metrics"][entry["name"]]["value"]
                        for run in runs
                        if entry["name"] in run["workloads"].get(workload, {}).get("metrics", {})
                    ]
                )
            if not sides[0] or not sides[1]:
                continue
            row = verdict(sides[0], sides[1], entry["better"], bound)
            out.append({"workload": workload, "metric": entry["name"], "bound": bound, **row})
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare a change's runs with its parent's.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    table = rows(spec, load_runs(args.parent), load_runs(args.change))
    print(f"{'workload':18s} {'metric':30s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  wins  verdict")
    for row in table:
        parent, change = (f"{m:.5g} [{q1:.5g}, {q3:.5g}]" for q1, m, q3 in (row["parent"], row["change"]))
        print(
            f"{row['workload']:18s} {row['metric']:30s} {parent:>34s} {change:>34s}  "
            f"{row['win_share']:4.2f}  {row['verdict']}"
        )
    short = min((row["pairs"] for row in table), default=0)
    if short < MIN_PAIRS:
        print(f"note: {short} pairs; a gain needs at least {MIN_PAIRS} to be claimed")
    return 1 if any(row["verdict"] == "regressed" for row in table) else 0


if __name__ == "__main__":
    sys.exit(main())
