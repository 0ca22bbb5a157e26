"""Run one benchmark workload against the checkout's src/ and print its metrics.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, measured with no wrappers installed. With
`--trace 1` the same workload runs with the public calls of every layer
wrapped (see tracing.py) and the metrics are the per-layer ones.

The load is a closed loop from this one process: each call waits for the
previous one. BLAS threads are capped at the number of usable cores. The
timed phase takes turns between its parts (unit ops, bulk passes, CLI runs,
repeated set-ups), so that every metric samples the whole window and a slow
spell of a shared machine falls on all of them alike. Everything the run
writes lives under benchmarks/.work/ and is removed at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 5  # set-ups per run, the first included; setup_s is their median
MIN_BULK_PASSES = 3  # records_per_s is the median pass's throughput
OP_BLOCKS = 5  # op_p90_ms is the median of the p90s of this many blocks of ops
MIN_CLI_RUNS = 5


def cap_threads() -> None:
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= NPROC:
            os.environ[var] = str(NPROC)


def import_program() -> None:
    """Import ambispeech from this checkout's src/, and nothing else."""
    if not (SRC / "ambispeech" / "__init__.py").is_file():
        sys.exit(f"benchmark: no ambispeech package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ambispeech

    if Path(ambispeech.__file__).resolve().parent != SRC / "ambispeech":
        sys.exit(f"benchmark: imported ambispeech from {ambispeech.__file__}, not {SRC}")


class Part:
    """One part of the timed phase: a step to repeat, its share of the
    window and the least number of units (ops, passes, runs) it must do."""

    def __init__(self, step, share: float, minimum: int):
        self.step, self.share, self.minimum = step, share, minimum
        self.spent, self.units = 0.0, 0

    def progress(self, seconds: float) -> float:
        return min(self.spent / (self.share * seconds), self.units / self.minimum)


def take_turns(parts: list[Part], seconds: float) -> None:
    """Step the part that is furthest behind until every part has had its
    share of `seconds` and done its minimum. The parts then all finish at
    about the same time, however long their minimums make the window."""
    gc.collect()
    while True:
        part = min(parts, key=lambda p: p.progress(seconds))
        if part.progress(seconds) >= 1.0:
            return
        t0 = time.perf_counter()
        part.units += part.step()
        part.spent += time.perf_counter() - t0


class Tally:
    """What the timed phase measured."""

    def __init__(self):
        self.ops_ms: list[float] = []
        self.pass_rates: list[float] = []  # records/s of each bulk pass
        self.attempted = 0
        self.failed = 0

    def ops(self, wl) -> int:
        lat, failed = wl.op_chunk()
        self.ops_ms += lat
        self.attempted += len(lat)
        self.failed += failed
        return len(lat)

    def bulk(self, wl) -> int:
        records, ok, seconds = wl.bulk_pass()
        self.pass_rates.append(records / seconds if ok else 0.0)  # a failed pass did no work
        self.attempted += 1
        self.failed += not ok
        return 1

    def records_per_s(self) -> float:
        return statistics.median(self.pass_rates)

    def op_p90_ms(self) -> float:
        """The 90th percentile of op latency within each of OP_BLOCKS
        consecutive blocks of ops, in the order they ran, and the median of
        those. A slow spell of the machine that covers fewer than half the
        blocks does not move it; a tail that every block shows does."""
        n = len(self.ops_ms)
        cuts = [n * k // OP_BLOCKS for k in range(OP_BLOCKS + 1)]
        return statistics.median(percentile(self.ops_ms[a:b], 90)
                                 for a, b in zip(cuts, cuts[1:]))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(make, seconds: float, work: Path):
    from workloads import dir_bytes

    wl = make()
    t0 = time.perf_counter()
    wl.setup(str(work / "main"))
    setup_s = [time.perf_counter() - t0]
    tally = Tally()
    cli_ms: list[float] = []

    def setup_again() -> int:
        other = make()
        root = work / f"setup{len(setup_s)}"
        t0 = time.perf_counter()
        other.setup(str(root))
        setup_s.append(time.perf_counter() - t0)
        wl.failures += other.failures
        shutil.rmtree(root)
        return 1

    def cli_run() -> int:
        ms, ok = wl.cli_run()
        cli_ms.append(ms)
        tally.attempted += 1
        tally.failed += not ok
        return 1

    take_turns([Part(lambda: tally.ops(wl), 0.35, wl.MIN_OPS),
                Part(lambda: tally.bulk(wl), 0.35, MIN_BULK_PASSES),
                Part(cli_run, 0.15, MIN_CLI_RUNS),
                Part(setup_again, 0.15, SETUP_REPS - 1)], seconds)
    wl.check()
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "records_per_s": (tally.records_per_s(), "records/s"),
        "op_p50_ms": (statistics.median(tally.ops_ms), "ms"),
        "op_p90_ms": (tally.op_p90_ms(), "ms"),
        "cli_p50_ms": (statistics.median(cli_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "disk_mb": (dir_bytes(*wl.output_dirs()) / 1e6, "MB"),
    }
    return wl, metrics, tally


FIRST_READ = ("import sys, time\n"
              "from ambispeech import features\n"
              "t0 = time.perf_counter()\n"
              "features.read_wav(sys.argv[1])\n"
              "print((time.perf_counter() - t0) * 1e3)\n")


def first_read_wav_ms(wl, runs: int = 3) -> float:
    """The first read_wav of a fresh interpreter, which pays for its imports."""
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", FIRST_READ, wl.wav0], env=wl.child.env,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def per_layer(make, seconds: float, work: Path):
    from tracing import Tracer

    wl = make()
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        wl.setup(str(work / "main"))
    finally:
        setup_tracer.uninstall()

    tracer = Tracer()
    traced, untraced = Tally(), Tally()

    def under_trace(phase: str, step):
        def run() -> int:
            tracer.phase = phase
            tracer.install()
            try:
                return step(wl)
            finally:
                tracer.uninstall()
        return run

    take_turns([Part(under_trace("ops", traced.ops), 0.4, wl.MIN_OPS),
                Part(under_trace("bulk", traced.bulk), 0.3, MIN_BULK_PASSES),
                Part(lambda: untraced.bulk(wl), 0.3, MIN_BULK_PASSES)], seconds)
    _, ok = wl.cli_run()  # untimed and untraced; the output checks compare against it
    untraced.attempted += 1
    untraced.failed += not ok
    wl.check()

    metrics = tracer.metrics()
    for name, value in setup_tracer.metrics().items():
        if name.startswith("synth."):  # the corpus is rendered in set-up only
            metrics[name] = value
    # in the bulk passes the cache is touched only by the CLI's loader
    metrics["cli.cache_computed"] = (
        tracer.phase_calls["bulk", "features.save_feature_sequence"], "count")
    metrics["cli.cache_reused"] = (
        tracer.phase_calls["bulk", "features.load_feature_sequence"], "count")
    metrics["features.first_read_wav_ms"] = (first_read_wav_ms(wl), "ms")
    with_trace = traced.records_per_s()
    without = untraced.records_per_s()
    metrics["trace.records_per_s"] = (with_trace, "records/s")
    metrics["trace.records_per_s_untraced"] = (without, "records/s")
    metrics["trace.overhead_pct"] = (100.0 * (without - with_trace) / without, "%")
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    return wl, metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "featurize", "infer_longtail"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase, which its parts share")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_threads()
    import_program()
    from workloads import WORKLOADS, ChildCLI

    child = ChildCLI(str(SRC))
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    measure = per_layer if args.trace else end_to_end
    try:
        wl, metrics, tally = measure(lambda: WORKLOADS[args.workload](args.seed, child),
                                     args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    for message in wl.failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not wl.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if wl.failures else 0


if __name__ == "__main__":
    sys.exit(main())
