"""Simulator benchmark: host cost and modelled outcomes, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N --seconds S --trace 0|1]   # every workload
    python3 perfbench/run.py --workload NAME --seed N --record    # store fingerprints

Run from the repository root.  The simulator is imported from `src/`; without
it the benchmark exits with status 2 and prints no result.

With `--trace 0` a run reports the end-to-end metrics of BENCHMARK.json,
measured with tracing off.  With `--trace 1` it reports the per-layer
metrics: spans traced around the library's public functions, untraced runs
for the tracing overhead, and per-call micro-costs.  Every scenario run is
checked (see `harness.OutputCheck`).  The last line of standard output is
the JSON result; the exit status is 1 if any scenario run failed its check.

Modules that import `hashcast` are imported inside the functions, after
`require_source()` has put `src/` on the path.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 900


def require_source() -> None:
    """Import the simulator from this checkout's `src/`, or exit with status 2."""
    if not (SRC / "hashcast" / "__init__.py").is_file():
        print(f"error: simulator source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def setup_probe(workload: str, scenario_seed: int, run: bool = False) -> dict:
    """Set-up timings of one fresh interpreter (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(scenario_seed)]
        + (["--run"] if run else []),
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
        cwd=ROOT,
    )
    return json.loads(done.stdout.splitlines()[-1])


def setup_metrics(samples: list[dict]) -> dict:
    """Median set-up cost over the probes."""
    count = len(samples)

    def median(*keys):
        return statistics.median(sum(s[k] for k in keys) for s in samples)

    return {
        "setup_s": (median("import_s", "from_dict_s", "construct_s"), "s", count),
        "setup.import_s": (median("import_s"), "s", count),
        "setup.from_dict_s": (median("from_dict_s"), "s", count),
        "setup.construct_s": (median("construct_s"), "s", count),
    }


def run_scenarios(workload, seeds, seconds, check, tracer=None):
    """Run the scenario seeds round-robin until every seed ran and time is up.

    With a tracer, each seed runs untraced and then traced.  A set-up probe
    follows each of the first `SETUP_PROBES` rounds, so the probes sample the
    host across the run; the first also runs its scenario, for peak memory.
    Every run and probe is scaled to the reference host speed.  Returns
    (untraced results, traced results, probes).
    """
    from harness import HostClock, execute

    clock = HostClock()

    def probe(seed):
        timings = setup_probe(workload, seed, run=not probes and tracer is None)
        factor = clock.scale()
        return {name: value * factor if name.endswith("_s") else value for name, value in timings.items()}

    untraced, traced, probes = [], [], []
    deadline = perf_counter() + seconds
    i = 0
    while i < len(seeds) or perf_counter() < deadline:
        seed = seeds[i % len(seeds)]
        i += 1
        for active, out in ((None, untraced), (tracer, traced))[: 2 if tracer else 1]:
            try:
                result = execute(workload, seed, active)
            except Exception:
                check.record_error(seed, traceback.format_exc())
                clock.scale()
                continue
            result.scale = clock.scale()
            check.check(result)
            out.append(result)
        if len(probes) < SETUP_PROBES:
            probes.append(probe(seed))
    while len(probes) < SETUP_PROBES:
        probes.append(probe(seeds[len(probes) % len(seeds)]))
    return untraced, traced, probes


def layer_metrics(traced, untraced) -> dict:
    from harness import REFERENCE_CALIBRATION_S
    from tracer import FUNCTIONS, HANDLERS, METHODS, PUSH_SPAN, TraceSummary

    total = TraceSummary()
    for result in traced:
        total.add(result.trace)
    runs = len(traced)
    out = {}
    spans = [name for *_, name in FUNCTIONS] + [name for *_, name in METHODS] + [PUSH_SPAN]
    for name in spans:
        out[f"{name}.calls"] = (total.calls[name] / runs, "count", runs)
        out[f"{name}.self_s"] = (total.self_s[name] / runs, "s", runs)
    for handler in HANDLERS:
        name = f"simulation.handler.{handler}"
        out[f"{name}.self_s"] = (total.self_s[name] / runs, "s", runs)
    handler_calls = sum(c for n, c in total.calls.items() if n.startswith("simulation.handler."))
    blocks = sum(r.blocks for r in traced)
    pool_adds = total.calls["ledger.PendingPool.add"]
    verifier_sets = total.calls["verification.select_verifier_set"]
    multicasts = total.calls["transmission.route_multicast"]
    counters = total.counters

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    out.update(
        {
            "simulation.events": (handler_calls / runs, "count", runs),
            "ledger.blocks": (blocks / runs, "count", runs),
            "core.block_digest.per_block": (ratio(total.calls["core.block_digest"], blocks), "ratio", blocks),
            "ledger.grind.tries_per_block": (ratio(total.grind_tries, blocks), "ratio", blocks),
            "ledger.pool_add.accept_ratio": (
                ratio(counters["ledger.pool_add.accepted"], pool_adds), "ratio", pool_adds,
            ),
            "verification.select_verifier_set.relocated_ratio": (
                ratio(counters["verification.select_verifier_set.relocated"], verifier_sets),
                "ratio",
                verifier_sets,
            ),
            "transmission.route_multicast.links_per_call": (
                ratio(counters["transmission.route_multicast.links"], multicasts), "ratio", multicasts,
            ),
            "transmission.route_multicast.deliveries_per_call": (
                ratio(counters["transmission.route_multicast.deliveries"], multicasts),
                "ratio",
                multicasts,
            ),
            "trace.overhead_s": (
                statistics.median(r.scaled_wall_s for r in traced)
                - statistics.median(r.scaled_wall_s for r in untraced),
                "s",
                runs,
            ),
            "host.wall_raw_s": (statistics.median(r.wall_s for r in untraced), "s", len(untraced)),
            "host.calibration_s": (
                statistics.median(REFERENCE_CALIBRATION_S / r.scale for r in untraced + traced),
                "s",
                len(untraced) + len(traced),
            ),
        }
    )
    return out


def bench_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from harness import OutputCheck, host_metrics, load_references, modelled_metrics
    from workloads import scenario_seeds

    seeds = scenario_seeds(seed)
    check = OutputCheck(workload, load_references())
    metrics = {}
    if trace:
        from micro import micro_metrics
        from tracer import Tracer

        metrics.update(micro_metrics())
        untraced, traced, probes = run_scenarios(workload, seeds, seconds, check, Tracer())
    else:
        untraced, traced, probes = run_scenarios(workload, seeds, seconds, check)
    metrics.update(setup_metrics(probes))
    firsts = list({r.scenario_seed: r for r in untraced}.values())
    if firsts and (traced or not trace):
        metrics.update(modelled_metrics(firsts))
        if trace:
            metrics.update(layer_metrics(traced, untraced))
        else:
            metrics.update(host_metrics(untraced))
            metrics["peak_rss_mb"] = (probes[0]["peak_rss_kib"] / 1024, "MB", 1)
    wanted = benchmark_metric_names("per_layer" if trace else "end_to_end")
    selected = {name: metrics[name] for name in wanted if name in metrics}
    for message in check.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {workload} seed {seed} scenario seeds {seeds}")
    for name, (value, unit, samples) in selected.items():
        print(f"  {name:<56} {value:>16.6f} {unit:<6} n={samples}")
    correct = check.correct and len(selected) == len(wanted)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": check.attempted,
                "failed": check.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in selected.items()},
            }
        )
    )
    return 0 if correct else 1


def benchmark_metric_names(section: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec[section]]


def record_references(workload: str, seed: int) -> int:
    """Store the fingerprints of the scenario seeds of `seed` in references.json."""
    from harness import REFERENCES, execute, load_references
    from workloads import scenario_seeds

    references = load_references()
    for scenario_seed in scenario_seeds(seed):
        result = execute(workload, scenario_seed)
        if result.failures:
            print(f"not recorded, seed {scenario_seed}: {result.failures}", file=sys.stderr)
            return 1
        references.setdefault(workload, {})[str(scenario_seed)] = result.fingerprint
        print(f"{workload} {scenario_seed} {result.fingerprint}")
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def bench_all(args) -> int:
    """Run every workload in its own process; exit 1 if any failed."""
    from workloads import WORKLOADS

    results = {}
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=WORKLOAD_TIMEOUT_S,
            cwd=ROOT,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1]) if lines else None
        if done.returncode != 0 or not (results[workload] or {}).get("correct"):
            status = 1
    print(
        json.dumps(
            {
                "correct": status == 0,
                "attempted": sum(r["attempted"] for r in results.values() if r),
                "failed": sum(r["failed"] for r in results.values() if r),
                "workloads": results,
            }
        )
    )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store reference fingerprints")
    args = parser.parse_args(argv)
    require_source()
    from workloads import WORKLOADS

    if args.workload is None:
        return bench_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.record:
        return record_references(args.workload, args.seed)
    return bench_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
