"""Run one chevbasis benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload gen --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the checkout this file sits in; nothing needs to be installed.  The last
line of standard output is the result object; the line before it records
the workload, seed and the epsilon the seed picked for each type.

``--trace 0`` reports the end-to-end metrics: the median set-up time, the
median wall time of one pass over the command list, peak RSS of this
process over its first pass, and the share of commands that passed every
check.  Passes repeat
until ``--seconds`` have been spent in them, at least three times, and
each is preceded by fresh set-ups.  Both times are given in reference
seconds: the reference kernel of ``calibrate.py`` runs on a timer through
the run, its own time is left out, and each time is scaled by the kernel's
median in the same run.
``--trace 1`` runs one ``tracemalloc`` pass for per-layer peaks, one
untraced pass, and one traced pass for self times and counts, and writes
the spans to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

# The benchmark is single-threaded by definition; keep numpy's pools at one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402

MIN_PASSES = 3
# Set-ups before each pass repeat until this long.
SETUP_SECONDS = 0.25
# A set-up that makes its inputs (verify_large) takes seconds: it runs before
# the first passes only, and later passes reuse its inputs.
COSTLY_SETUPS = 2
WORK = harness.ROOT / ".bench_work"


def import_package():
    """Import ``chevbasis.cli`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "chevbasis" or m.startswith("chevbasis.")]:
        del sys.modules[name]
    cli = importlib.import_module("chevbasis.cli")
    if Path(cli.__file__).resolve().parent.parent != harness.SRC:
        raise ImportError(f"chevbasis was imported from {cli.__file__}, not from {harness.SRC}")
    return cli


def set_up(workload: str, seed: int, work: Path, digests, golden, clock=time.perf_counter):
    """One set-up: import the package, plan the commands, make the inputs."""
    start = clock()
    cli = import_package()
    plan = harness.make_plan(workload, seed, work)
    runner = harness.Runner(cli.main, digests, golden, clock)
    prepared = clock() - start
    tally = harness.run_pass(runner, plan.setup)
    tally.seconds += prepared
    return plan, runner, tally


def traced_pass(runner, commands, memory: bool) -> tuple[list[tracing.Span], harness.Tally]:
    gc.collect()
    tracer = tracing.Tracer(memory=memory)
    if memory:
        tracemalloc.start()
    tracer.install()
    try:
        tally = harness.run_pass(runner, commands)
    finally:
        tracer.uninstall()
        if memory:
            tracemalloc.stop()
    return tracer.spans, tally


def end_to_end(args, work: Path, digests, golden) -> tuple[harness.Tally, dict]:
    """Set-ups, passes and the reference kernel interleave, so all sample the whole run."""
    setups: list[float] = []
    walls: list[float] = []
    total = harness.Tally()
    calibrator = calibrate.Calibrator()
    plan = None
    try:
        while len(walls) < MIN_PASSES or sum(walls) < args.seconds:
            start = time.perf_counter()
            while plan is None or not plan.setup or len(setups) < COSTLY_SETUPS:
                plan, runner, tally = set_up(args.workload, args.seed, work, digests, golden, calibrator.clock)
                setups.append(tally.seconds)
                total.add(tally)
                if plan.setup or time.perf_counter() - start >= SETUP_SECONDS:
                    break
            gc.collect()
            tally = harness.run_pass(runner, plan.commands)
            walls.append(tally.seconds)
            total.add(tally)
            if calibrator.kernel is None:
                # Every pass has the same peak; read it before the kernel's working set exists.
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                calibrator.start()
    finally:
        calibrator.stop()
    scale = calibrator.scale()
    print_context(args, plan, passes=walls, setups=setups, kernel=calibrator.samples)
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "wall_s": (statistics.median(walls) * scale, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "pass_rate": (1.0 - total.error_rate, "ratio"),
    }
    return total, metrics


def per_layer(args, work: Path, digests, golden) -> tuple[harness.Tally, dict]:
    plan, runner, total = set_up(args.workload, args.seed, work, digests, golden)
    # The memory pass goes first: its timings are discarded anyway, so it
    # also absorbs the lazy start-up costs that would skew the other two.
    memory, mem_tally = traced_pass(runner, plan.commands, memory=True)
    gc.collect()
    untraced = harness.run_pass(runner, plan.commands)
    timed, traced = traced_pass(runner, plan.commands, memory=False)
    for t in (mem_tally, untraced, traced):
        total.add(t)
    if tracing.counts(timed) != tracing.counts(memory):
        total.failed += 1
        total.problems.append("per-layer counts differ between the two traced passes")
    print_context(args, plan, passes=[untraced.seconds, traced.seconds], setups=[], kernel=[])
    values = tracing.layer_metrics(timed, memory, traced.seconds - untraced.seconds)
    (WORK / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "epsilon": plan.epsilon,
        "argv": [list(c.argv) for c in plan.commands],
        "timed_spans": [s.to_json() for s in timed],
        "memory_spans": [s.to_json() for s in memory],
    }))
    return total, {name: (values[name], unit) for name, unit in tracing.metric_units().items()}


def print_context(args, plan, passes: list[float], setups: list[float], kernel: list[float]) -> None:
    """One line ahead of the result: the seed, what it picked, and every sample in measured seconds."""
    print(json.dumps({"workload": args.workload, "seed": args.seed, "epsilon": plan.epsilon,
                      "commands": len(plan.commands), "pass_s": passes, "setup_s": setups,
                      "kernel_s": kernel}))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "chevbasis").is_dir():
        print(f"bench: no chevbasis sources under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    digests = harness.load_digests()
    golden = harness.load_golden()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        measure = per_layer if args.trace else end_to_end
        total, metrics = measure(args, work, digests, golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in total.problems[:20]:
        print(f"bench: FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
