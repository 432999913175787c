"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import re
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostclock  # noqa: E402
import querygen  # noqa: E402
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def small_query_workload(tmp_path, kinds=("info", "subideal", "validate")):
    workload = bench.make_workload("query-dense", 0, str(tmp_path))
    keep = [argv for argv, q in workload.queries.items() if q.kind in kinds]
    workload.invocations = [[list(argv)] for argv in keep[:12]]
    return workload


def test_generator_is_deterministic_per_seed():
    a, b, c = querygen.make_inputs(0), querygen.make_inputs(0), querygen.make_inputs(1)
    assert a.files == b.files
    assert a.queries == b.queries
    assert a.files != c.files
    assert a.queries != c.queries


def test_rebased_constants_are_dense():
    assert querygen.make_inputs(0).density > 0.3


def test_printed_metrics_are_declared(tmp_path):
    spec = declared()
    workload = small_query_workload(tmp_path)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.collect(workload, seconds=0, trace=trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in spec[section]}
        assert set(result["metrics"]) == set(units)
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name)
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))


def test_layer_self_times_add_up_to_traced_wall(tmp_path):
    workload = small_query_workload(tmp_path, kinds=("derivations", "tower", "subideal"))
    metrics = bench.collect(workload, seconds=0, trace=True)["metrics"]
    value = {k: v["value"] for k, v in metrics.items()}
    layers = sum(value[f"{layer}.self_s"] for layer in bench.tracing.LAYERS)
    assert all(value[f"{layer}.self_s"] >= 0 for layer in bench.tracing.LAYERS)
    assert layers <= value["trace.wall_s"]
    # what is left is the benchmark loop's own time inside the timed region
    assert value["trace.unattributed_s"] < 0.05 * value["trace.wall_s"]
    assert abs(layers + value["trace.unattributed_s"] - value["trace.wall_s"]) < 1e-9


def test_tracer_uninstall_restores_the_program(tmp_path):
    from lieideal import cli, exactlin, transitivity

    before = (cli.run, exactlin.Mat.__mul__, transitivity.subideal_chain)
    bench.collect(small_query_workload(tmp_path), seconds=0, trace=True)
    assert (cli.run, exactlin.Mat.__mul__, transitivity.subideal_chain) == before


def test_wrong_reference_fact_is_a_failure(tmp_path):
    workload = bench.make_workload("query-dense", 0, str(tmp_path))
    argv, q = next((a, q) for a, q in workload.queries.items() if q.kind == "info" and q.facts)
    facts = tuple((k, v + 1 if k == "dim_radical" else v) for k, v in q.facts)
    workload.queries[argv] = dataclasses.replace(q, facts=facts)
    workload.invocations = [[list(argv)]]
    tally = bench.Tally()
    bench.run_pass(workload, tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_refused_precondition_counts_as_expected(tmp_path):
    workload = bench.make_workload("query-dense", 0, str(tmp_path))
    refused = [
        argv
        for argv, q in workload.queries.items()
        if q.algebra == "sl2" and q.kind == "counterexample" or q.algebra == "gl2" and q.kind == "tower"
    ]
    assert len(refused) == 2 * querygen.COPIES
    workload.invocations = [[list(argv)] for argv in refused]
    tally = bench.Tally()
    bench.run_pass(workload, tally)
    assert (tally.attempted, tally.failed) == (len(refused), 0)


def test_changed_verify_output_is_a_failure():
    workload = bench.VerifyWorkload(("forms",), [0])
    argv = workload.invocations[0][0]
    rc, out = bench.call(argv)
    assert workload.check(argv, rc, out) is None
    assert workload.check(argv, rc, out + " ") is not None


def test_host_clock_probes_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert clock.samples and math.isclose(clock.spent, sum(clock.samples))
    assert math.isclose(clock.scale(0), hostclock.NOMINAL_PROBE_S * len(clock.samples) / clock.spent)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = declared()["command"] + ["--workload", "query-dense", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
