"""Self-tests of the benchmark: python3 -m pytest perfbench

Scenarios here are shrunk to a few hundred transactions so the tests stay
fast; the checks do not depend on size.
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from fnmatch import fnmatch
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from hashcast import cli  # noqa: E402
from micro import micro_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_TX = {"multicast-b1": 120, "broadcast-b1": 120, "multicast-b50-untrusted": 400}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    for name, tx_count in SMALL_TX.items():
        workload = workloads.WORKLOADS[name]
        shrunk = dict(workload, config=dict(workload["config"], tx_count=tx_count))
        monkeypatch.setitem(workloads.WORKLOADS, name, shrunk)


@pytest.mark.parametrize("workload", sorted(SMALL_TX))
def test_traced_run_matches_untraced_run(workload):
    untraced = harness.execute(workload, 3)
    traced = harness.execute(workload, 3, Tracer())
    assert untraced.failures == [] and traced.failures == []
    assert traced.fingerprint == untraced.fingerprint
    assert (traced.events, traced.committed, traced.verify_ops) == (
        untraced.events, untraced.committed, untraced.verify_ops,
    )
    assert (traced.delay_samples, traced.delay_p50_ms, traced.delay_p99_ms) == (
        untraced.delay_samples, untraced.delay_p50_ms, untraced.delay_p99_ms,
    )


@pytest.mark.parametrize("workload", sorted(SMALL_TX))
def test_self_times_are_non_negative_and_top_level_spans_fit_in_wall_time(workload):
    result = harness.execute(workload, 4, Tracer())
    trace = result.trace
    assert trace.min_self_s >= -1e-9
    assert all(value >= -1e-9 for value in trace.self_s.values())
    assert 0 < trace.top_level_s <= result.wall_s
    assert trace.calls["simulation.EventQueue.run"] == 1
    handler_calls = sum(c for n, c in trace.calls.items() if n.startswith("simulation.handler."))
    assert handler_calls == result.events == trace.calls["simulation.EventQueue.push"]


def test_broadcast_never_reaches_verification_or_transmission():
    trace = harness.execute("broadcast-b1", 5, Tracer()).trace
    for name, calls in trace.calls.items():
        if name.startswith(("verification.", "transmission.")):
            assert calls == 0, name


def test_tracer_restores_every_binding():
    import hashcast.ledger
    import hashcast.simulation

    before = (hashcast.ledger.block_digest, hashcast.simulation.EventQueue.__dict__["push"])
    harness.execute("multicast-b1", 6, Tracer())
    assert (hashcast.ledger.block_digest, hashcast.simulation.EventQueue.__dict__["push"]) == before


def test_tampered_report_fails_the_output_check():
    workload, seed = "multicast-b1", 7
    result = harness.execute(workload, seed)
    references = {workload: {str(seed): result.fingerprint}}
    assert harness.OutputCheck(workload, references).check(result)

    check = harness.OutputCheck(workload, references)
    assert not check.check(replace(result, fingerprint="0" * 64))
    assert check.failed == 1 and not check.correct

    run = harness.build_run(workload, seed)
    run.run()
    row = cli.csv_row(run.config, run.metrics)
    run.log_lines[-1] += " tampered"
    assert harness.fingerprint(run, row) != result.fingerprint
    run.metrics.verify_ops += 1
    assert workloads.invariant_failures(workload, run)


def test_changed_output_between_runs_of_one_seed_fails_the_check():
    result = harness.execute("multicast-b1", 8)
    check = harness.OutputCheck("multicast-b1", {})
    assert check.check(result)
    assert not check.check(replace(result, fingerprint="f" * 64))


def test_dropping_node_is_detected_and_excluded():
    run = harness.build_run("multicast-b50-untrusted", 9)
    run.run()
    assert run.metrics.lost_items > 0
    assert workloads.invariant_failures("multicast-b50-untrusted", run) == []
    run.excluded_bns.clear()
    assert workloads.invariant_failures("multicast-b50-untrusted", run)


def test_a_dropping_node_that_receives_nothing_loses_nothing():
    run = harness.build_run("multicast-b50-untrusted", 1639)  # node 7 is an empty leaf here
    run.run()
    assert run.metrics.lost_items == 0 and not run.metrics.detected
    assert run.metrics.committed_tx == run.metrics.injected_tx
    assert workloads.invariant_failures("multicast-b50-untrusted", run) == []


def test_references_cover_the_default_and_a_held_out_seed():
    references = harness.load_references()
    for workload in workloads.WORKLOADS:
        recorded = set(references[workload])
        for seed in (1, 1000):
            assert {str(s) for s in workloads.scenario_seeds(seed)} <= recorded


def test_metric_names_are_well_formed_and_match_the_emitted_metrics():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))

    untraced = [harness.execute("multicast-b1", s) for s in (10, 11)]
    traced = [harness.execute("multicast-b1", s, Tracer()) for s in (10, 11)]
    setup = bench.setup_metrics([bench.setup_probe("multicast-b1", 10)])
    modelled = harness.modelled_metrics(untraced)
    end_to_end = {**setup, **modelled, **harness.host_metrics(untraced), "peak_rss_mb": None}
    per_layer = {**setup, **modelled, **bench.layer_metrics(traced, untraced)}
    per_layer.update(micro_metrics())
    assert {m["name"] for m in SPEC["end_to_end"]} == {n for n in end_to_end if "." not in n}
    assert {m["name"] for m in SPEC["per_layer"]} == {n for n in per_layer if "." in n}


def test_every_per_layer_metric_names_what_it_should_move():
    moves = json.loads((HERE / "rationale.json").read_text(encoding="utf-8"))["moves"]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["per_layer"]:
        assert sum(fnmatch(metric["name"], entry["metrics"]) for entry in moves) == 1, metric["name"]
    for entry in moves:
        assert set(entry["end_to_end"]) <= end_to_end
        assert set(entry["workloads"]) <= set(workloads.WORKLOADS)


def test_benchmark_exits_non_zero_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "multicast-b1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
