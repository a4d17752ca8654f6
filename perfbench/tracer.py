"""Spans and counters around flagcomb's public functions, from outside.

The library is not edited.  ``Tracer.install`` rebinds each traced function
in every ``flagcomb`` module namespace that holds it (``from .flags import
pair_distance_profile`` in ``support_paths`` is a second binding of the same
object), so calls made inside the library go through the wrapper too;
``uninstall`` puts the originals back.

Self time is a span's duration minus the time its direct child spans cover;
calls on one thread nest, so that is the sum of the children's durations.
``RowSpace.add`` runs about 10^5 times per analyze op: it is a leaf, and it
is only aggregated (calls, time, rank growth per q), never logged as a span.
Every other call is logged as a span until ``max_spans`` are held; the
aggregates cover all calls regardless.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# metric prefix -> (module, function)
FUNCTIONS = {
    "codefile.parse_code": ("flagcomb.codefile", "parse_code"),
    "flags.flag_from_matrix": ("flagcomb.flags", "flag_from_matrix"),
    "flags.pair_distance_profile": ("flagcomb.flags", "pair_distance_profile"),
    "flags.projected_distance": ("flagcomb.flags", "projected_distance"),
    "support_paths.paths_of_code": ("flagcomb.support_paths", "paths_of_code"),
    "support_paths.enumerate_paths": ("flagcomb.support_paths",
                                      "enumerate_paths"),
    "ferrers.staircase_class": ("flagcomb.ferrers", "staircase_class"),
    "ferrers.enumerate_embedded_partitions": (
        "flagcomb.ferrers", "enumerate_embedded_partitions"),
    "ferrers.splittings_of_codistance": ("flagcomb.ferrers",
                                         "splittings_of_codistance"),
    "durfee_analysis.analyze": ("flagcomb.durfee_analysis", "analyze"),
    "durfee_analysis.ferrers_subdiagrams_of_code": (
        "flagcomb.durfee_analysis", "ferrers_subdiagrams_of_code"),
    "durfee_analysis.durfee_sets_of_code": ("flagcomb.durfee_analysis",
                                            "durfee_sets_of_code"),
    "durfee_analysis.is_optimum_distance": ("flagcomb.durfee_analysis",
                                            "is_optimum_distance"),
    "cli.main": ("flagcomb.cli", "main"),
    "config.load_config": ("flagcomb.config", "load_config"),
}

# counter name -> (traced function whose result is counted, by len())
RESULT_SIZES = {
    "ferrers.staircases_expanded": "ferrers.staircase_class",
    "ferrers.distinct_subdiagrams": "durfee_analysis.ferrers_subdiagrams_of_code",
    "support_paths.paths_listed": "support_paths.enumerate_paths",
    "ferrers.partitions_enumerated": "ferrers.enumerate_embedded_partitions",
}


class Tracer:
    """Holds spans, per-function aggregates and counters for one run."""

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []        # (id, name, start, end, parent, op)
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.counts = dict.fromkeys(RESULT_SIZES, 0)
        self.counts["flags.distinct_pairs"] = 0
        # q -> [calls, seconds, adds that raised the rank]
        self.rowspace_add: dict[int, list] = {}
        self.op_id = 0
        self._stack: list[list] = []        # [span id, child seconds]
        self._next_id = 0
        self._pairs: set[tuple[int, int]] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._pairs.clear()

    def end_op(self) -> None:
        self.counts["flags.distinct_pairs"] += len(self._pairs)

    def _wrap(self, name: str, fn):
        sized = [c for c, target in RESULT_SIZES.items() if target == name]
        is_profile = name == "flags.pair_distance_profile"
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, name, start, end,
                                       parent[0] if parent else None,
                                       self.op_id))
            for counter in sized:
                self.counts[counter] += len(result)
            if is_profile:
                a, b = id(args[0]), id(args[1])
                self._pairs.add((a, b) if a < b else (b, a))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_rowspace_add(self, fn):
        stack, stats = self._stack, self.rowspace_add

        def add(space, row):
            start = perf_counter()
            grew = fn(space, row)
            duration = perf_counter() - start
            if stack:
                stack[-1][1] += duration
            st = stats.get(space.q)
            if st is None:
                st = stats[space.q] = [0, 0.0, 0]
            st[0] += 1
            st[1] += duration
            st[2] += grew
            return grew

        add.__wrapped__ = fn
        return add

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever a flagcomb module holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "flagcomb"
                                         or name.startswith("flagcomb."))]
        for name, (module_name, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        row_space = importlib.import_module("flagcomb.gfq_linalg").RowSpace
        self._restore.append((row_space, "add", row_space.add))
        row_space.add = self._wrap_rowspace_add(row_space.add)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON object per line; times in microseconds from the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name,
                    "start_us": round((start - t0) * 1e6, 3),
                    "end_us": round((end - t0) * 1e6, 3),
                    "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics by name, counts and seconds taken per op.

        A ratio whose base is zero on this workload reads 0.
        """
        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = ratio(self.calls[name], ops)
            out[f"{name}.self_s"] = ratio(self.self_s[name], ops)
        add_calls = sum(st[0] for st in self.rowspace_add.values())
        add_s = sum(st[1] for st in self.rowspace_add.values())
        add_grew = sum(st[2] for st in self.rowspace_add.values())
        out["gfq_linalg.rowspace_add.calls"] = ratio(add_calls, ops)
        out["gfq_linalg.rowspace_add.self_s"] = ratio(add_s, ops)
        out["gfq_linalg.rowspace_add.grew_frac"] = ratio(add_grew, add_calls)
        for q in (2, 3):
            st = self.rowspace_add.get(q, [0, 0.0, 0])
            out[f"gfq_linalg.rowspace_add.us_per_call.q{q}"] = ratio(
                st[1] * 1e6, st[0])
        out["flags.profiles_per_pair"] = ratio(
            self.calls["flags.pair_distance_profile"],
            self.counts["flags.distinct_pairs"])
        for counter in RESULT_SIZES:
            if counter != "ferrers.distinct_subdiagrams":
                out[counter] = ratio(self.counts[counter], ops)
        out["ferrers.distinct_per_expanded"] = ratio(
            self.counts["ferrers.distinct_subdiagrams"],
            self.counts["ferrers.staircases_expanded"])
        return out
