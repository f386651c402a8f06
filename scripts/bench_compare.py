#!/usr/bin/env python3
"""Print new / old for every end-to-end metric on every workload.

    python3 scripts/bench_compare.py BENCH_N.json             # parent runs vs change runs
    python3 scripts/bench_compare.py BENCH_OLD.json BENCH_NEW.json  # change runs of each, with a drift warning

A BENCH file holds ``runs``: objects with ``tree`` (parent or change),
``workload``, ``seed`` and the ``result`` line of ``perfbench/run.py``.
Per metric it prints each side's median and quartiles, the ratio of the
medians, and in how many same-seed pairs the new side was better, by the
direction ``BENCHMARK.json`` gives.
"""

import json
import statistics
import sys
from pathlib import Path

BETTER = {m["name"]: m["better"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["end_to_end"]}


def side(path: str, tree: str) -> dict:
    """{workload: {metric: {seed: value}}} for one tree of one file."""
    out: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["tree"] == tree:
            for name, m in run["result"]["metrics"].items():
                out.setdefault(run["workload"], {}).setdefault(name, {})[run["seed"]] = m["value"]
    return out


def quartiles(values: list) -> list:
    """[q1, median, q3]; one value stands for all three."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def main(argv: list) -> int:
    if len(argv) == 1:
        old, new = side(argv[0], "parent"), side(argv[0], "change")
    elif len(argv) == 2:
        old, new = side(argv[0], "change"), side(argv[1], "change")
        print("warning: these runs come from different sessions, whose absolute numbers drift; "
              "only interleaved parent/change pairs from one file count", file=sys.stderr)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(f"{'workload':14} {'metric':12} {'old median [q1, q3]':>32} {'new median [q1, q3]':>32} {'new/old':>8} wins")
    for workload in sorted(old.keys() & new.keys()):
        for metric in sorted(BETTER):
            a, b = old[workload].get(metric, {}), new[workload].get(metric, {})
            if not a or not b:
                continue
            qa, qb = quartiles(sorted(a.values())), quartiles(sorted(b.values()))
            sign = 1.0 if BETTER[metric] == "higher" else -1.0
            seeds = a.keys() & b.keys()
            wins = sum(sign * (b[s] - a[s]) > 0 for s in seeds)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print(f"{workload:14} {metric:12} {qa[1]:11.4g} [{qa[0]:8.4g}, {qa[2]:8.4g}] "
                  f"{qb[1]:11.4g} [{qb[0]:8.4g}, {qb[2]:8.4g}] {ratio:8.3f} {wins}/{len(seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
