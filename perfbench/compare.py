"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py base.jsonl change.jsonl

Each file holds the lines ``run.py --workload all --results FILE`` appends.
For every workload and end-to-end metric of ``BENCHMARK.json`` this prints
each side's median and quartiles and a verdict against the metric's bound:

- ``unresolved``: either side's quartile spread exceeds the bound, and not
  every run of the change beats every run of the base;
- ``worse``: the change's median is worse by more than the bound;
- ``better``: the change's median is better by more than the base's
  quartile spread and at least nine in ten of its runs beat the base median;
- ``no worse`` otherwise.

It also prints the share of failed operations on each side.  The exit
code is 1 when any metric is worse or the failed shares differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in Path(path).read_text("utf-8").splitlines():
        entry = json.loads(line)
        if entry["trace"] == 0 and entry["result"] is not None:
            runs[entry["workload"]].append(entry["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    (a1, am, a3), (b1, bm, b3) = quartiles(base), quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    beats = lambda x, y: sign * (y - x) > 0  # x better than y
    if max((a3 - a1) / am, (b3 - b1) / bm) > bound:
        return "better" if all(beats(b, a) for b in change for a in base) else "unresolved"
    worsening = sign * (bm - am) / am
    if worsening > bound:
        return "worse"
    if -sign * (bm - am) > a3 - a1 and sum(beats(b, am) for b in change) >= 0.9 * len(change):
        return "better"
    return "no worse"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    base, change = load(argv[0]), load(argv[1])
    status = 0
    print(f"{'workload':12} {'metric':12} {'base q1 / median / q3':>32} {'change q1 / median / q3':>32}  verdict")
    for workload in sorted(set(base) & set(change)):
        a_runs, b_runs = base[workload], change[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            result = verdict(a, b, metric["better"], metric["bound"])
            status |= result == "worse"
            cells = ["{:.4g} / {:.4g} / {:.4g}".format(*quartiles(v)) for v in (a, b)]
            print(f"{workload:12} {name:12} {cells[0]:>32} {cells[1]:>32}  {result} ({metric['unit']}, bound {metric['bound']:.0%})")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in (a_runs, b_runs)]
        status |= shares[0] != shares[1]
        print(f"{workload:12} {'failed':12} {shares[0]:>32.6f} {shares[1]:>32.6f}  {'same' if shares[0] == shares[1] else 'DIFFERENT'}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
