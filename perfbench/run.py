"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fedavg-variable --seed 1 \
        --seconds 5 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics, taken from spans recorded around
the program's public functions. Scratch files, results and traces go to
``.bench_work`` in the checkout. The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
# Set-ups per run; setup_s is the median.
SETUPS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of whole rounds to run (at least "
                             "one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_checkout_source() -> str | None:
    """Import ``fedhorizon`` from this checkout's ``src``, never from an
    installed copy. Returns what is wrong when that is impossible."""
    package = os.path.join(SRC, "fedhorizon")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        return f"no program source at {package}"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import fedhorizon
    if os.path.dirname(os.path.realpath(fedhorizon.__file__)) != \
            os.path.realpath(package):
        return f"fedhorizon imported from {fedhorizon.__file__}, not {package}"
    return None


def settle_memory() -> None:
    """Collect garbage and hand freed heap pages back to the system, so the
    peak resident size counts live data and the phase's own peak, not what
    earlier phases left behind in the allocator."""
    gc.collect()
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):  # not glibc: nothing to trim
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    problem = use_checkout_source()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    from fedhorizon import (cohort, experiment, federation, metrics, nn,
                            synthgen, windowing)
    import tracing
    import workloads
    import_s = time.perf_counter() - start

    work = workloads.WORKLOADS.get(args.workload)
    if work is None:
        print(f"unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    counter = tracing.UplinkCounter(federation)
    run = workloads.Run()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(synthgen, cohort, windowing, experiment, nn,
                       federation, metrics)
        run.untraced = tracer.paused

    state = None
    try:
        setup_times = []
        for _ in range(SETUPS):
            if state is not None and work.cleanup is not None:
                work.cleanup(state)
            state = None
            settle_memory()
            before = counter.bytes
            began = time.perf_counter()
            state = work.setup(args.seed, WORK_DIR)
            setup_times.append(time.perf_counter() - began)
            setup_uplink = counter.bytes - before
        with run.untraced():
            work.setup_checks(state, run)
        settle_memory()

        # Start another whole round only if one more round, as long as the
        # last, still ends within --seconds; the first round always runs.
        round_times = []
        round_uplink = 0
        began = time.perf_counter()
        while not round_times or (time.perf_counter() - began
                                  + round_times[-1] <= args.seconds):
            before, round_began = counter.bytes, time.perf_counter()
            work.round(state, run)
            if not round_times:
                round_uplink = counter.bytes - before
            round_times.append(time.perf_counter() - round_began)
        if work.run_checks is not None:
            work.run_checks(state, run)
    finally:
        if state is not None and work.cleanup is not None:
            work.cleanup(state)

    # one pass of the workload: a set-up and a round
    uplink = setup_uplink + round_uplink
    workloads.check_uplink(run, uplink, work.uplink(state))
    if tracer is not None:
        run.check(tracer.aggregation_errors == 0,
                  f"{tracer.aggregation_errors} aggregations differ from the "
                  f"window-weighted mean of their inputs")

    end_to_end = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "MB"),
        "windows_per_s": (run.windows / run.timed_s, "windows/s"),
        "uplink_mb": (uplink / 1e6, "MB"),
    }
    shown = end_to_end
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "round_times_s": round_times, "timed_s": run.timed_s,
              "setup_times_s": setup_times, "import_s": import_s,
              "end_to_end": end_to_end, "notes": run.notes,
              "problems": run.problems,
              "failures": sorted(set(run.failures))}
    if tracer is not None:
        shown = tracer.layer_metrics(run.rows_ingested)
        record["per_layer"] = shown
        tracer.write(os.path.join(WORK_DIR, f"trace-{tag}.json"))
    with open(os.path.join(WORK_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for failure in sorted(set(run.failures)):
        print(f"failed operation: {failure}", file=sys.stderr)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }
    print(json.dumps(result))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
