"""Compare the benchmark runs of two commits.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``runs.jsonl`` that ``run.py --record DIR`` appends
to.  Record the two commits in alternating pairs (parent then change, then
change then parent, ...) with the same ``--seconds`` and the same seeds.
One row is printed per end-to-end metric and workload:

- ``better``: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``;
- ``unresolved``: fewer than 10 pairs, or the parent's own spread is wider
  than the bound and not every change run beats every parent run;
- ``unchanged``: none of the above.

A rise in the share of failed requests is reported on its own line.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    path = Path(directory) / "runs.jsonl"
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["recorded"])
    return runs


def pair(parent: list[dict], change: list[dict]) -> tuple[list[tuple[dict, dict]], bool]:
    """Pairs in recording order; also whether the side that ran first alternates."""
    pairs = list(zip(parent, change))
    firsts = [p["recorded"] < c["recorded"] for p, c in pairs]
    alternating = all(a != b for a, b in zip(firsts, firsts[1:]))
    return pairs, alternating


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(p_vals, c_vals, better_is_higher: bool, bound: float) -> tuple[str, int]:
    def beats(a, b):
        return a > b if better_is_higher else a < b

    wins = sum(beats(c, p) for p, c in zip(p_vals, c_vals))
    if len(p_vals) < MIN_PAIRS:
        return f"unresolved ({len(p_vals)} pairs, {MIN_PAIRS} needed)", wins
    p1, pm, p3 = quartiles(p_vals)
    _, cm, _ = quartiles(c_vals)
    if wins >= WIN_SHARE * len(p_vals) and beats(cm, pm) and abs(cm - pm) > p3 - p1:
        return "better", wins
    worse_by = (pm - cm) / pm if better_is_higher else (cm - pm) / pm
    if worse_by > bound:
        return "worse", wins
    all_beat = all(beats(c, p) for c in c_vals for p in p_vals)
    if (p3 - p1) / pm > bound and not all_beat:
        return "unresolved (parent spread wider than the bound)", wins
    return "unchanged", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two commits' benchmark runs")
    parser.add_argument("parent", help="directory with the parent commit's runs.jsonl")
    parser.add_argument("change", help="directory with the change's runs.jsonl")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)

    print(
        f"{'workload':<15} {'metric':<16} {'parent median [q1, q3]':>30}"
        f" {'change median [q1, q3]':>30} {'wins':>6}  verdict"
    )
    notes = []
    for w in (w["name"] for w in spec["workloads"]):
        pairs, alternating = pair(parent.get(w, []), change.get(w, []))
        if not pairs:
            print(f"{w:<15} no runs on one side")
            continue
        if not alternating:
            notes.append(f"{w}: pairs do not alternate which side ran first")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [p["metrics"][name]["value"] for p, _ in pairs]
            c_vals = [c["metrics"][name]["value"] for _, c in pairs]
            text, wins = verdict(p_vals, c_vals, metric["better"] == "higher", metric["bound"])
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            print(
                f"{w:<15} {name:<16} {pq[1]:>12.5g} [{pq[0]:.4g}, {pq[2]:.4g}]"
                f" {cq[1]:>12.5g} [{cq[0]:.4g}, {cq[2]:.4g}] {wins:>3}/{len(pairs):<2}  {text}"
            )
        p_fail = sum(p["failed"] for p, _ in pairs) / sum(p["attempted"] for p, _ in pairs)
        c_fail = sum(c["failed"] for _, c in pairs) / sum(c["attempted"] for _, c in pairs)
        if c_fail > p_fail:
            notes.append(f"{w}: failed_ratio rose from {p_fail:.4f} to {c_fail:.4f}")
    for note in notes:
        print(f"note: {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
