"""Tests of the benchmark itself: inputs, checks, counters, exit codes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker                                                # noqa: E402
import workloads                                             # noqa: E402
from tracer import Tracer                                    # noqa: E402
from flagcomb import cli                                     # noqa: E402
from flagcomb.codefile import parse_code                     # noqa: E402
from flagcomb.ferrers import enumerate_embedded_partitions   # noqa: E402
from flagcomb.support_paths import (enumerate_paths, path_distance,  # noqa: E402
                                    path_from_flag_pair)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.cycles(workload, 7)
    assert len(first) == workloads.DRAWS[workload]
    assert first == workloads.cycles(workload, 7)
    assert first != workloads.cycles(workload, 8)
    for other in first[1:]:
        assert other != first[0]


def test_plateau_paths_match_the_library():
    rng = random.Random(3)
    for q, n in workloads.PLATEAU_STRATA:
        text, perms = workloads.plateau_code(q, n, rng)
        code = parse_code(text)
        assert len(code) == len(perms)
        plateaus = []
        for a in range(len(perms)):
            for b in range(a + 1, len(perms)):
                deltas = workloads.coordinate_path(perms[a], perms[b])
                assert path_from_flag_pair(code.flags[a],
                                           code.flags[b]).deltas == deltas
                plateaus.append(workloads.positive_plateaus(deltas))
        assert sorted(plateaus) == [n - 4, n - 4, n - 2]
        assert tuple([0] + [1] * (n - 1) + [0]) in workloads.paths_of_perms(perms)


@pytest.mark.parametrize("q,n,size", [(2, 4, 3), (3, 5, 3), (2, 8, 12)])
def test_random_codes_have_exactly_size_distinct_flags(q, n, size):
    code = parse_code(workloads.random_code(q, n, size,
                                            random.Random(q * n)))
    assert len(code) == size


@pytest.mark.parametrize("workload", list(workloads.ANALYZE_STRATA))
def test_reference_covers_every_pool_input(workload):
    with open(worker.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[workload]
    for item in workloads.pool(workload) + workloads.warmup_items(workload):
        assert worker.digest(item.code_text) in reference


@pytest.mark.parametrize("n", range(2, 9))
def test_own_counts_match_the_library(n):
    paths = enumerate_paths(n, max_n=n)
    assert len(paths) == workloads.motzkin(n)
    by_d: dict[int, int] = {}
    for p in paths:
        by_d[path_distance(p)] = by_d.get(path_distance(p), 0) + 1
    assert by_d == workloads.paths_by_distance(n)
    dn = workloads.max_distance(n)
    assert sum(workloads.partitions_with_value(n, u)
               for u in range(dn + 1)) == workloads.catalan(n)
    for u in range(dn + 1):
        assert (workloads.partitions_with_value(n, u)
                == len(enumerate_embedded_partitions(n, u, max_n=n)))


def _permutation_code(perms, q=2):
    n = len(perms[0])
    return workloads.code_text(q, n, [[[1 if c == w - 1 else 0
                                        for c in range(n)] for w in perm]
                                      for perm in perms])


def test_traced_counters_on_a_fixed_code(tmp_path):
    perms = [(1, 2, 3, 4, 5, 6), (2, 3, 4, 5, 6, 1), (6, 1, 2, 3, 4, 5),
             (2, 1, 4, 3, 6, 5), (1, 3, 4, 2, 5, 6)]
    path = tmp_path / "code.txt"
    path.write_text(_permutation_code(perms))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["analyze", str(path)]) == 0
        tracer.end_op()
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(ops=1)
    gamma = workloads.paths_of_perms(perms)
    assert m["flags.pair_distance_profile.calls"] == 70      # 10 pairs x 7
    assert m["flags.profiles_per_pair"] == 7.0
    assert m["durfee_analysis.ferrers_subdiagrams_of_code.calls"] == 3
    assert m["ferrers.staircases_expanded"] == 3 * sum(
        2 ** workloads.positive_plateaus(p) for p in gamma)
    assert m["support_paths.paths_of_code.calls"] == 4
    assert m["flags.flag_from_matrix.calls"] == 5
    assert m["config.load_config.calls"] == 0
    assert len(tracer.spans) > 0
    assert all(span[5] == 0 for span in tracer.spans)


def test_uninstall_restores_the_library():
    from flagcomb import flags, gfq_linalg, support_paths
    before = (flags.pair_distance_profile, support_paths.pair_distance_profile,
              gfq_linalg.RowSpace.add, cli.main)
    tracer = Tracer()
    tracer.install()
    assert support_paths.pair_distance_profile is not before[1]
    tracer.uninstall()
    assert (flags.pair_distance_profile, support_paths.pair_distance_profile,
            gfq_linalg.RowSpace.add, cli.main) == before


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_checks_accept_the_library_and_reject_wrong_outputs():
    paths = _cli_stdout(["paths", "6"])
    assert worker.check_paths(6)(0, paths) is None
    assert worker.check_paths(6)(1, paths) is not None
    assert worker.check_paths(6)(0, paths.replace("total 51", "total 50")) is not None
    partitions = _cli_stdout(["partitions", "6", "-u", "2"])
    assert worker.check_partitions(6, 2)(0, partitions) is None
    assert worker.check_partitions(6, 3)(0, partitions) is not None
    bijection = _cli_stdout(["bijection", "6"])
    assert worker.check_bijection(6)(0, bijection) is None
    assert worker.check_bijection(6)(0, bijection.replace("yes", "NO", 1)) is not None
    assert worker.check_bijection(7)(0, bijection) is not None
    passed = "d_f = 1\nall cross-checks passed\n"
    assert worker.check_analyze(worker.digest(passed))(0, passed) is None
    assert worker.check_analyze(worker.digest(passed))(0, passed + " ") is not None
    assert worker.check_analyze(None)(0, passed) is not None
    assert worker.check_analyze(worker.digest(passed))(3, passed) is not None


def test_run_refuses_a_directory_without_the_library(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "enumerate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
