"""Benchmark of the flagcomb CLI, run from the root of a flagcomb checkout.

    python3 perfbench/run.py --workload analyze-random --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20 [--trace 1]

Each workload runs in fresh child processes (``worker.py``), so its peak
resident memory is its own.  With ``--trace 0`` the workload is set up
``SETUPS`` times, in that many processes, and ``setup_s`` is the median; the
last process goes on to the timed cycles.  With ``--trace 1`` one process
alternates untraced and traced cycles and reports the per-layer metrics.
The metric names and units are those of ``BENCHMARK.json``.  The last line
of stdout is one JSON object; the lines before it are a readable summary.
Exits non-zero without a result when the directory is not a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS                     # noqa: E402

SETUPS = 5
DEADLINE_S = 170.0          # a run must end within 180 s


def run_worker(workload: str, seed: int, seconds: float, mode: str,
               deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the worker started")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--mode", mode],
        capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    if trace:
        return run_worker(workload, seed, seconds, "trace", deadline)
    setups = [run_worker(workload, seed, seconds, "setup", deadline)
              for _ in range(SETUPS - 1)]
    result = run_worker(workload, seed, seconds, "measure", deadline)
    result["setup_s"] = statistics.median([r["setup_s"] for r in setups]
                                          + [result["setup_s"]])
    result["attempted"] += sum(r["attempted"] for r in setups)
    result["failed"] += sum(r["failed"] for r in setups)
    result["failures"] += [f for r in setups for f in r["failures"]]
    return result


def report(spec: list[dict], result: dict) -> dict:
    """The result object of the benchmark contract."""
    metrics = {m["name"]: {"value": result[m["name"]], "unit": m["unit"]}
               for m in spec}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}


def summary(workload: str, seed: int, spec: list[dict], result: dict) -> list[str]:
    lines = [f"{workload}  seed {seed}  attempted {result['attempted']}  "
             f"failed {result['failed']}  "
             f"failed_frac {result['failed'] / result['attempted']:.4g} ratio"]
    if "samples" in result:
        lines.append(f"  {result['samples']} samples in {result['cycles']} "
                     f"cycles of {result['cycle_ops']} ops")
    else:
        lines.append(f"  {result['trace.cycles']} traced cycles of "
                     f"{result['cycle_ops']} ops")
    for m in spec:
        note = (f"  (median of {SETUPS} processes)" if m["name"] == "setup_s"
                else "")
        lines.append(f"  {m['name']:<52} {result[m['name']]:>14.6g} "
                     f"{m['unit']}{note}")
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the flagcomb CLI on seeded workloads.")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true",
                       help="every workload in turn, one summary each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "flagcomb", "__init__.py")):
        print("error: run from the root of a flagcomb checkout "
              "(no src/flagcomb here)", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = bench["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    chosen = WORKLOADS if args.all else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(chosen)

    reports = {}
    for workload in chosen:
        try:
            result = run_workload(workload, args.seed, seconds,
                                  bool(args.trace), deadline)
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError, IndexError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(summary(workload, args.seed, spec, result)), flush=True)
        reports[workload] = report(spec, result)
    print(json.dumps(reports[args.workload] if args.workload
                     else {"workloads": reports}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
