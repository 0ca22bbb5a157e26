"""Run every workload repeatedly in two separate batches and report the spread.

    python3 benchmarks/steadiness.py --runs 10 --seconds 30

Each run gets its own seed (batch b, run r uses seed 1000*b + r + 1), and
the workloads take turns within a batch so that a slow spell of the machine
falls on all of them. For every metric and workload the report gives each
batch's median and quartiles, the spread (interquartile distance over the
median), and how far the second median moved from the first, both as shares
of the median and next to the metric's bound in BENCHMARK.json. Every run's
figures are saved as JSON for later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BATCHES = 2


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One end-to-end benchmark run in `checkout`; returns its JSON result."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def bounds() -> dict:
    return {m["name"]: m for m in spec()["end_to_end"]}


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return -change if better == "higher" else change


def report(batches: list[dict[str, list[dict]]]) -> list[str]:
    metrics = bounds()
    lines = [f"{'workload':15s} {'metric':14s} {'batch':>5s} {'q1':>12s} {'median':>12s} "
             f"{'q3':>12s} {'spread':>7s} {'bound':>6s}"]
    for workload in batches[0]:
        for name, meta in metrics.items():
            medians = []
            for b, batch in enumerate(batches):
                values = [r["metrics"][name]["value"] for r in batch[workload]]
                q1, med, q3 = quartiles(values)
                medians.append(med)
                lines.append(f"{workload:15s} {name:14s} {b + 1:5d} {q1:12.4f} {med:12.4f} "
                             f"{q3:12.4f} {(q3 - q1) / med:7.1%} {meta['bound']:6.0%}")
            lines.append(f"{workload:15s} {name:14s} {'2 vs 1':>5s} worse by "
                         f"{worse_share(medians[0], medians[1], meta['better']):+.1%}")
        for b, batch in enumerate(batches):
            failed = sorted({r["failed"] / r["attempted"] for r in batch[workload]})
            walls = [r["wall_s"] for r in batch[workload]]
            lines.append(f"{workload:15s} batch {b + 1}: failed share {failed}, "
                         f"run wall {min(walls):.1f}-{max(walls):.1f} s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and batch")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", default=str(HERE / "results" / "steadiness.json"))
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec()["workloads"]]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    batches = []
    for b in range(BATCHES):
        batch: dict[str, list[dict]] = {w: [] for w in workloads}
        batches.append(batch)
        for r in range(args.runs):
            for workload in workloads:
                result = run_once(ROOT, workload, 1000 * b + r + 1, args.seconds)
                batch[workload].append(result)
                out.write_text(json.dumps(batches, indent=1))  # kept up to date
                print(f"batch {b + 1} run {r + 1} {workload}: {result['wall_s']:.1f} s",
                      file=sys.stderr, flush=True)
    print("\n".join(report(batches)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
