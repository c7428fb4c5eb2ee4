"""Benchmark for ``mesq``: four closed-loop workloads, checked answers.

Run from the root of a checkout::

    python3 bench/run.py --workload prep_sweep --seed 1 --seconds 20 --trace 0

The run builds its inputs from ``--seed``, asks ``mesq`` one question at a
time for ``--seconds`` seconds of timed work (whole rounds only), checks every
answer outside the timed region, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every public function of
the package is traced and the per-layer metrics are reported instead, and the
spans are written under ``.bench_out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One process, one thread: keep BLAS from starting a pool of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource as rusage  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

# latency_tail_ms is this percentile of every operation's latency. Higher ones
# rest on too few samples to stay steady on a shared machine (README.md).
TAIL_PERCENTILE = 95.0
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# Bound on a run's wall time, far above what the checks add to --seconds.
WALL_LIMIT_S = 150


def load_mesq():
    try:
        import mesq
    except ImportError as exc:
        sys.exit(f"cannot import mesq from {SRC}: {exc}")
    if Path(mesq.__file__).resolve().parent != SRC / "mesq":
        sys.exit(f"mesq was imported from {mesq.__file__}, not from {SRC}")


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def measure_setup(op) -> float:
    """Median wall time from spawning a fresh interpreter to the end of ``op``.

    The child unpickles the prepared inputs (importing ``mesq``), makes the
    one call and reports the system-wide monotonic clock, so input generation
    is left out and imports and first-call work are counted.
    """
    payload = pickle.dumps((op.func, op.args, op.kwargs))
    cmd = [sys.executable, str(BENCH / "probe.py")]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, input=payload, capture_output=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def run(workload: str, seed: int, seconds: float, tracer) -> dict:
    import checks
    import workloads

    latencies, kind_counts = [], {}
    attempted = failed = 0
    errors = []
    timed = 0.0
    wall_start = time.perf_counter()
    r = 0
    while timed < seconds and time.perf_counter() - wall_start < WALL_LIMIT_S:
        ops = workloads.make_round(workload, seed, r)
        results, raised = [], []
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            args = op.call_args(results)
            fn = op.target()
            if tracer is not None:
                tracer.begin(op.kind, len(latencies))
            t0 = time.perf_counter()
            try:
                answer, exc = fn(*args, **op.kwargs), None
            except Exception as e:  # a raising call is a failed operation
                answer, exc = None, e
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end()
            results.append(answer)
            raised.append(exc)
        timed += time.perf_counter() - round_start
        for i, (op, answer, exc) in enumerate(zip(ops, results, raised)):
            kind_counts[op.kind] = kind_counts.get(op.kind, 0) + 1
            attempted += 1
            if exc is not None:
                failed += 1
                continue
            try:
                verdict = checks.check(op, answer, results[:i])
            except checks.CheckError as e:
                errors.append(f"round {r} op {i} ({op.kind}): {e}")
                continue
            failed += verdict == checks.FAILED
        r += 1
    return {"latencies": latencies, "attempted": attempted, "failed": failed,
            "errors": errors, "timed": timed, "rounds": r, "kind_counts": kind_counts}


def main(argv=None) -> int:
    load_mesq()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = None
    setup_s = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        setup_s = measure_setup(workloads.make_round(args.workload, args.seed, 0)[0])

    out = run(args.workload, args.seed, args.seconds, tracer)
    attempted, failed = out["attempted"], out["failed"]
    passed = attempted - failed - len(out["errors"])
    throughput = passed / out["timed"]
    lat = sorted(out["latencies"])
    tail = percentile(lat, TAIL_PERCENTILE)
    beyond = sum(1 for x in lat if x > tail)
    for line in out["errors"][:20]:
        print("CHECK FAILED:", line, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {out['rounds']} rounds, {attempted} operations, "
          f"{failed} failed, {len(out['errors'])} wrong; p{TAIL_PERCENTILE:g} rests on {beyond} "
          f"samples beyond it; {'traced ' if tracer else ''}throughput {throughput:.2f}/s",
          file=sys.stderr)

    if tracer is not None:
        metrics = tracer.metrics(attempted)
        tracer.write(ROOT / ".bench_out" / f"trace_{args.workload}_seed{args.seed}.json",
                     out["kind_counts"],
                     {"workload": args.workload, "seed": args.seed,
                      "traced_throughput_ops": throughput, "attempted": attempted})
    else:
        metrics = {
            "throughput_ops": {"value": throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": percentile(lat, 50.0) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rusage.getrusage(rusage.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not out["errors"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
