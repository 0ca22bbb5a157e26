"""Compare two checkouts with the same benchmark code, in alternating pairs.

    python3 benchmarks/compare.py --base ../parent --change . --workload infer_longtail

Both directories must hold the same benchmarks/ directory (copy it into the
older checkout first). Pair k runs both sides on seed k, and the side that
runs first alternates from pair to pair. For each end-to-end metric the
report gives both sides' medians and quartiles, the share of pairs the
change won, and a verdict: "gain" when the change won at least nine pairs
in ten, the medians differ by more than the base's own quartile distance
and the change fails no larger share of its operations than the base;
"worse" when the change's median is worse than the base's by more than the
metric's bound; and "within bound" otherwise. A run whose output checks
fail exits non-zero and stops the comparison.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from steadiness import bounds, quartiles, run_once, worse_share


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def verdict(base: list[float], change: list[float], meta: dict,
            fails_more: bool) -> tuple[float, str]:
    higher = meta["better"] == "higher"
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    q1, med_b, q3 = quartiles(base)
    med_c = quartiles(change)[1]
    if not fails_more and wins >= 0.9 * len(base) and abs(med_c - med_b) > q3 - q1:
        return wins / len(base), "gain"
    if worse_share(med_b, med_c, meta["better"]) > meta["bound"]:
        return wins / len(base), "worse"
    return wins / len(base), "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)

    runs = {"base": [], "change": []}
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, k + 1, args.seconds))
        print(f"pair {k + 1} done", file=sys.stderr, flush=True)

    for side, side_runs in runs.items():
        print(f"{side}: {sum(r['failed'] for r in side_runs)} of "
              f"{sum(r['attempted'] for r in side_runs)} operations failed")
    fails_more = failed_share(runs["change"]) > failed_share(runs["base"])
    if fails_more:
        print("the change fails a larger share of its operations: no gain counts")
    print(f"{'metric':14s} {'base q1/med/q3':>32s} {'change q1/med/q3':>32s} {'won':>5s} verdict")
    for name, meta in bounds().items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        won, word = verdict(base, change, meta, fails_more)
        qb, qc = quartiles(base), quartiles(change)
        print(f"{name:14s} {'/'.join(f'{v:.4g}' for v in qb):>32s} "
              f"{'/'.join(f'{v:.4g}' for v in qc):>32s} {won:5.0%} {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
