"""Run two sets of benchmark runs of one checkout and say whether they agree.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workload ingest-score

Each set makes ``--runs`` untraced runs of every chosen workload, each run
with another seed (set A seeds first-seed.., set B the seeds after them).
The sets take turns run by run, and which set goes first alternates, so a
slow spell of a shared machine falls on both. For every workload and
end-to-end metric it prints each set's median, quartiles and spread
(quartile distance over the median). The two sets agree when every spread but that of ``setup_s`` is
within the metric's bound in BENCHMARK.json, no median of set B is worse
than set A's by more than the bound, and the share of failed operations is
the same. Run from the root of the checkout; all results are written to
``.bench_work/steadiness.json``. Exits 0 only when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: checks failed")
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def compare(spec: dict, results: dict) -> bool:
    """Print the agreement table; True when the two sets agree."""
    agree = True
    print(f"{'workload':16} {'metric':14} {'set':3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7}  verdict")
    for workload in results:
        sets = results[workload]
        shares = {tuple(sorted({r["failed"] / r["attempted"] for r in runs}))
                  for runs in sets}
        if len(shares) != 1 or len(next(iter(shares))) != 1:
            print(f"{workload}: failed share differs between runs: {shares}")
            agree = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            first, second = stats[0]["median"], stats[1]["median"]
            worse = (second - first) / first
            if metric["better"] == "higher":
                worse = -worse
            ok = worse <= bound and (name == "setup_s" or all(
                s["spread"] <= bound for s in stats))
            agree &= ok
            for label, s in zip("AB", stats):
                verdict = ""
                if label == "B":
                    verdict = (f"{'agree' if ok else 'DIFFER'} (B worse by "
                               f"{worse:+.1%}, bound {bound:.0%})")
                print(f"{workload:16} {name:14} {label:3} {s['median']:12.4f} "
                      f"{s['q1']:12.4f} {s['q3']:12.4f} {s['spread']:7.1%}  "
                      f"{verdict}")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set and workload (at least 2)")
    parser.add_argument("--workload", action="append",
                        help="workload to run; repeat for several "
                             "(default: all)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    results = {w: ([], []) for w in workloads}
    for i in range(args.runs):
        # alternate which set runs first, so a drift in the machine's speed
        # falls on both sets alike
        for index in (0, 1) if i % 2 == 0 else (1, 0):
            for workload in workloads:
                seed = args.first_seed + index * args.runs + i
                result = run_once(spec, workload, seed)
                results[workload][index].append(result)
                print(f"set {'AB'[index]} {workload} seed {seed}: "
                      f"{json.dumps(result['metrics'])}", flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_work", "steadiness.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    agree = compare(spec, results)
    print("the two sets agree" if agree else "the two sets DIFFER")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
