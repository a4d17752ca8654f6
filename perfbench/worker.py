"""One workload in one fresh process: set up, run timed cycles, check outputs.

Started by ``run.py`` with the root of a flagcomb checkout as the working
directory; flagcomb is imported from ``./src``.  Modes:

* ``setup``   set up, report the set-up time, exit;
* ``measure`` set up, then run the workload's cycles in turn, untraced and
  whole, until ``--seconds`` of wall time have passed and at least
  ``MIN_OPS`` ops ran; report the end-to-end numbers;
* ``trace``   set up, then run the workload's first cycle alternately
  untraced and traced until ``--seconds`` have passed; report the
  per-layer numbers and the tracing overhead, and write the spans of the
  first traced cycle to ``.perfbench_out/spans-<workload>.jsonl``.

One op is one ``flagcomb.cli.main(argv)`` call with stdout and stderr
captured, one op at a time on one thread (a closed loop with one client).
Every op is checked; a failed check counts, it is never skipped.  The
result is one JSON object on the last line of stdout.

Times are CPU times of this process's one thread (``time.thread_time``,
and ``time.process_time`` for the set-up, which counts from interpreter
start).  An op is pure Python on one thread with no waits, so its CPU time
is its wall time minus the time the scheduler or the host gave to someone
else.  They are calibrated as well: scaled to a reference speed by timing
a fixed kernel between ops (see ``calibrate``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads                                    # noqa: E402
from tracer import Tracer                           # noqa: E402

MIN_OPS = 100          # the p90 keeps >= 10 samples beyond it
CAL_EVERY_S = 0.1      # op CPU seconds between two calibrations, at least
# The reference speed: about the median CPU seconds ``calibrate`` took on
# the host the baseline was measured on (2-vCPU VM, Python 3.11.7).
CAL_REFERENCE_S = 0.005
OUT_DIR = ".perfbench_out"
REFERENCE = os.path.join(HERE, "reference.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def import_cli(root: str):
    """Import flagcomb from the checkout's src/, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from flagcomb import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"flagcomb was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


# ---------------------------------------------------------------------------
# Ops and their checks
# ---------------------------------------------------------------------------

Check = Callable[[int, str], Optional[str]]    # (exit code, stdout) -> error


@dataclass
class Op:
    argv: list[str]
    check: Check


def _total(out: str) -> int:
    last = out.rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith("total "):
        raise ValueError(f"no total line: {last!r}")
    return int(last.split()[1])


def check_analyze(expected: Optional[str]) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        if not out.endswith("all cross-checks passed\n"):
            return "no 'all cross-checks passed' line"
        if expected is None:
            return "input has no reference digest"
        if digest(out) != expected:
            return "output differs from the reference digest"
        return None
    return check


def check_paths(n: int) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        table = out.split("d  count\n", 1)[1].split("total ", 1)[0]
        by_d = sum(int(line.split()[1]) for line in table.splitlines())
        want = workloads.motzkin(n)
        if _total(out) != want or by_d != want:
            return f"paths {n}: total {_total(out)}, table {by_d}, Motzkin {want}"
        return None
    return check


def check_partitions(n: int, u: int) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        want = workloads.partitions_with_value(n, u)
        if _total(out) != want:
            return f"partitions {n} -u {u}: total {_total(out)}, want {want}"
        return None
    return check


def check_bijection(n: int) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        want = workloads.paths_by_distance(n)
        rows = [line.split() for line in out.splitlines()[2:]]
        got = {int(d): (int(paths), int(split), tag)
               for d, paths, split, tag in rows}
        if set(got) != set(range(workloads.max_distance(n) + 1)):
            return f"bijection {n}: distances {sorted(got)}"
        for d, (paths, split, tag) in got.items():
            if paths != want.get(d, 0) or split != paths or tag != "yes":
                return f"bijection {n}: row d={d} reads {paths} {split} {tag}"
        return None
    return check


def build_ops(items: list[workloads.Item], input_dir: str,
              reference: dict[str, str]) -> list[Op]:
    ops = []
    for k, item in enumerate(items):
        if item.command == "analyze":
            path = os.path.join(input_dir, f"{k:03d}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(item.code_text)
            expected = reference.get(digest(item.code_text))
            ops.append(Op(["analyze", path], check_analyze(expected)))
        elif item.command == "paths":
            ops.append(Op(["paths", *item.args], check_paths(item.n)))
        elif item.command == "partitions":
            ops.append(Op(["partitions", *item.args],
                          check_partitions(item.n, item.u)))
        else:
            ops.append(Op(["bijection", *item.args], check_bijection(item.n)))
    return ops


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

# On a shared host the CPU time of identical work drifts by tens of percent
# over seconds, as neighbours load the caches and cores the process runs
# on.  A fixed pure-Python kernel, which shares no code with flagcomb, is
# timed between ops; op times are scaled by CAL_REFERENCE_S over the
# kernel's time around them, which takes most of that drift out.
_CAL_RNG = random.Random(0)
_CAL_MATRICES = [[[_CAL_RNG.randrange(3) for _ in range(20)]
                  for _ in range(20)] for _ in range(6)]


def _rank_mod3(matrix: list[list[int]]) -> int:
    rows = [row[:] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = rows[rank][col]              # 1 and 2 are their own inverses
        rows[rank] = [(x * inverse) % 3 for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                factor, top = row[col], rows[rank]
                rows[i] = [(a - factor * b) % 3 for a, b in zip(row, top)]
        rank += 1
    return rank


def calibrate() -> float:
    """CPU seconds the calibration kernel takes now."""
    start = time.thread_time()
    for matrix in _CAL_MATRICES:
        _rank_mod3(matrix)
    return time.thread_time() - start


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

class Runner:
    """Runs ops against the imported CLI and keeps the failure tally."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: Op) -> tuple[float, str]:
        out, err = io.StringIO(), io.StringIO()
        # A CLI call starts in a fresh process; collecting first gives every
        # op the same collector state whatever ran before it in the cycle.
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.thread_time()
            try:
                rc = self.cli.main(op.argv)     # looked up per call: tracing
            except Exception:                   # an escaped error is a failed op
                rc = -1
                traceback.print_exc()
            seconds = time.thread_time() - start
        text = out.getvalue()
        self.attempted += 1
        try:
            error = op.check(rc, text)
        except (ValueError, IndexError) as exc:
            error = f"unreadable output: {exc}"
        if error:
            tail = err.getvalue().strip().splitlines()[-1:]
            self.failures.append(f"{' '.join(op.argv)}: {error} {tail}")
        return seconds, text

    def cycle(self, ops: list[Op], tracer: Optional[Tracer] = None
              ) -> tuple[list[float], float, float, int]:
        """Run every op once: (op CPU seconds, cycle CPU seconds, cycle wall
        seconds, stdout bytes).

        CPU times are calibrated: the ops run in segments of at least
        CAL_EVERY_S CPU seconds with ``calibrate`` before and after each,
        and a segment's times are scaled by CAL_REFERENCE_S over the mean
        of those two.  The cycle's CPU time is the sum of its segments, the
        collections between ops included, the calibrations not.
        """
        latencies, out_bytes, cpu = [], 0, 0.0
        start = time.perf_counter()
        segment: list[float] = []
        before = calibrate()
        segment_start = time.thread_time()
        for op_id, op in enumerate(ops):
            if tracer:
                tracer.begin_op(op_id)
            seconds, text = self.run(op)
            if tracer:
                tracer.end_op()
            segment.append(seconds)
            out_bytes += len(text.encode("utf-8"))
            segment_cpu = time.thread_time() - segment_start
            if segment_cpu >= CAL_EVERY_S or op_id == len(ops) - 1:
                after = calibrate()
                scale = CAL_REFERENCE_S / ((before + after) / 2)
                latencies += [s * scale for s in segment]
                cpu += segment_cpu * scale
                segment, before = [], after
                segment_start = time.thread_time()
        return latencies, cpu, time.perf_counter() - start, out_bytes


def percentile_ms(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1] * 1000.0


def splittings_probes(items: list[workloads.Item], runner: Runner) -> None:
    """Call ferrers.splittings_of_codistance once per n of the cycle.

    No CLI command reaches it, so the traced run calls it directly.  Its
    size must equal the number of paths of distance D^n - u.
    """
    ferrers = sys.modules["flagcomb.ferrers"]
    seen = set()
    for item in items:
        if item.command != "partitions" or item.n in seen:
            continue
        seen.add(item.n)
        runner.attempted += 1
        got = len(ferrers.splittings_of_codistance(item.n, item.u))
        want = workloads.paths_by_distance(item.n).get(
            workloads.max_distance(item.n) - item.u, 0)
        if got != want:
            runner.failures.append(
                f"splittings_of_codistance({item.n}, {item.u}) has {got}, "
                f"want {want}")


def measure(runner: Runner, cycles: list[list[Op]], seconds: float) -> dict:
    latencies: list[float] = []
    cpu = wall = 0.0
    done = 0
    while wall < seconds or len(latencies) < MIN_OPS:
        lat, cycle_cpu, cycle_wall, _ = runner.cycle(cycles[done % len(cycles)])
        done += 1
        latencies += lat
        cpu += cycle_cpu
        wall += cycle_wall
    return {
        "ops_per_cpu_s": len(latencies) / cpu,
        "op_p50_cpu_ms": statistics.median(latencies) * 1000.0,
        "op_p90_cpu_ms": percentile_ms(latencies, 90),
        "samples": len(latencies),
        "cycles": done,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(runner: Runner, ops: list[Op], items: list[workloads.Item],
          seconds: float, spans_path: str) -> dict:
    tracer = Tracer()
    plain = {"lat": [], "cpus": []}
    traced = {"lat": [], "cpus": []}
    out_bytes = 0
    start = time.perf_counter()
    while not traced["cpus"] or time.perf_counter() - start < seconds:
        lat, cpu, _, _ = runner.cycle(ops)
        plain["lat"] += lat
        plain["cpus"].append(cpu)
        tracer.install()
        try:
            lat, cpu, _, nbytes = runner.cycle(ops, tracer)
            tracer.op_id = -1                       # probes belong to no op
            splittings_probes(items, runner)
        finally:
            tracer.uninstall()
        traced["lat"] += lat
        traced["cpus"].append(cpu)
        out_bytes += nbytes
        tracer.max_spans = len(tracer.spans)        # keep the first cycle only
    tracer.write_spans(spans_path)

    traced_ops = len(traced["lat"])
    metrics = tracer.layer_metrics(traced_ops)
    metrics["cli.output_bytes"] = out_bytes / traced_ops
    for label, side in (("untraced", plain), ("traced", traced)):
        metrics[f"trace.{label}.ops_per_cpu_s"] = (len(side["lat"])
                                                   / sum(side["cpus"]))
        metrics[f"trace.{label}.op_p50_cpu_ms"] = (statistics.median(side["lat"])
                                                   * 1e3)
    metrics["trace.overhead_frac"] = (statistics.median(traced["cpus"])
                                      / statistics.median(plain["cpus"]) - 1.0)
    metrics["trace.overhead.op_p50_cpu_ms"] = (
        metrics["trace.traced.op_p50_cpu_ms"]
        - metrics["trace.untraced.op_p50_cpu_ms"])
    metrics["trace.cycles"] = len(traced["cpus"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    args = parser.parse_args(argv)

    root = os.getcwd()
    cli = import_cli(root)
    reference: dict[str, str] = {}
    if args.workload != "enumerate":
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    input_dir = os.path.join(OUT_DIR, f"inputs-{os.getpid()}")
    os.makedirs(input_dir)
    try:
        cycles = workloads.cycles(args.workload, args.seed)
        warmup = workloads.warmup_items(args.workload)
        ops = build_ops(warmup + [i for items in cycles for i in items],
                        input_dir, reference)
        runner = Runner(cli)
        for op in ops[:len(warmup)]:
            runner.run(op)
        size = len(cycles[0])
        cycle_ops = [ops[len(warmup) + k:len(warmup) + k + size]
                     for k in range(0, size * len(cycles), size)]
        gc.freeze()             # set-up objects stay out of every collection
        setup_cpu = time.process_time()
        scale = CAL_REFERENCE_S / statistics.median(
            calibrate() for _ in range(5))
        result = {"setup_s": setup_cpu * scale}

        if args.mode == "measure":
            result.update(measure(runner, cycle_ops, args.seconds))
        elif args.mode == "trace":
            # The first cycle only, so that counts per op repeat exactly.
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
            result.update(trace(runner, cycle_ops[0], cycles[0], args.seconds,
                                spans_path))
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    result["cycle_ops"] = size
    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures[:10]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
