"""cochainlab benchmark runner.

    python3 perfbench/run.py --workload verify-groups --seed 0 --seconds 30 --trace 0

One run is one fresh, single-threaded process: one caller in a closed loop
makes the workload's public calls, one after the other, in whole passes
(workloads.pass_inputs) until ``--seconds`` have passed.  Each pass draws
fresh inputs from the seed and runs on a freshly imported package.  With
``--trace 0`` it reports the end-to-end metrics, timed on a clock that
follows the host's speed (ReferenceClock).  With ``--trace 1`` it runs pass
0 untraced here and traced in a fresh child process (layers.py), and
reports the per-layer metrics.  The last line of standard output is the
result object; the line before it gives the output digest and sample
counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import layers
import workloads
from refclock import ReferenceClock

#: Set-up repetitions per run; setup_s is their median.
SETUP_ROUNDS = 15
#: Passes every run makes, whatever ``--seconds`` says, so that each call's
#: time is a median of at least two.
MIN_PASSES = 2
#: Wall-clock limit of the traced child process.
TRACED_PASS_TIMEOUT_S = 150


def timed_setup(workload: str, clock) -> float:
    """Median time of import plus group, representation and instance
    construction, each round on a freshly imported package."""
    times = []
    for _ in range(SETUP_ROUNDS):
        workloads.purge_program_modules()
        start = clock()
        workloads.setup(workload)
        times.append(clock() - start)
    return statistics.median(times)


def run_pass(items, tally) -> float:
    """One pass on a freshly imported package, so that no program state
    carries over from the last pass; returns its wall time.  The import is
    not timed: set-up measures it."""
    workloads.purge_program_modules()
    cli = importlib.import_module("cochainlab.cli")
    start = perf_counter()
    for item in items:
        workloads.run_item(cli, item, tally)
    return perf_counter() - start


def end_to_end(args):
    """Time set-up, then make passes for about ``--seconds``: stop before a
    pass that would end more than half a pass late, but not before
    ``MIN_PASSES``.  Everything is timed on the reference clock.  Call
    ``i``'s time is its median over the passes; a pass's time is the sum of
    those, and the percentiles are over them."""
    reps = []
    elapsed = 0.0
    clock = ReferenceClock()
    with clock.running():
        setup_s = timed_setup(args.workload, clock)
        while len(reps) < MIN_PASSES or elapsed + elapsed / len(reps) / 2 <= args.seconds:
            tally = workloads.Tally(clock)
            elapsed += run_pass(workloads.pass_inputs(args.workload, args.seed, len(reps)), tally)
            reps.append(tally)
    calls = [statistics.median(times) for times in zip(*(tally.call_s for tally in reps))]
    wall = sum(calls)
    attempted = sum(tally.attempted for tally in reps)
    failed = sum(tally.failed for tally in reps)
    # Interpolated quantiles over the calls of one pass; quantiles() needs
    # two samples, which only failed calls can take away.
    samples = calls if len(calls) > 1 else (calls or [0.0]) * 2
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        # Only a run whose every call failed has no call time.
        "ops_per_s": (attempted / len(reps) / wall if wall else 0.0, "1/s"),
        "call_p50_ms": (1000 * deciles[4], "ms"),
        "call_p90_ms": (1000 * deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "digest": reps[0].digest(),
        "error_rate": failed / attempted,
        "passes": len(reps),
        "timed_wall_s": elapsed,
        "kernel_runs": len(clock.kernel_s),
        "median_kernel_s": statistics.median(clock.kernel_s),
        "call_samples": len(calls),
    }
    return attempted, failed, metrics, detail


def per_layer(args):
    """The pass untraced here, then traced in a fresh process, so both start
    cold; the digests must agree."""
    tally = workloads.Tally()
    untraced_wall = run_pass(workloads.pass_inputs(args.workload, args.seed, 0), tally)
    child = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("layers.py")),
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=TRACED_PASS_TIMEOUT_S,
    )
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"error: traced pass exited with {child.returncode}")
    traced = json.loads(child.stdout.splitlines()[-1])
    values = {**traced["metrics"], layers.TRACING_OVERHEAD: traced["wall_s"] - untraced_wall}
    metrics = {name: (values[name], unit) for name, unit in layers.metric_units().items()}
    attempted = tally.attempted + traced["attempted"]
    failed = tally.failed + traced["failed"]
    detail = {
        "digest": tally.digest(),
        "traced_digest": traced["digest"],
        "error_rate": failed / attempted,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced["wall_s"],
    }
    if traced["digest"] != tally.digest():
        failed += 1
    return attempted, failed, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads.add_source_path()

    if args.trace:
        attempted, failed, metrics, detail = per_layer(args)
    else:
        attempted, failed, metrics, detail = end_to_end(args)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
