"""One scenario run: build, time, fingerprint and check; plus the run-wide figures.

The timed region of a scenario is `run.run()`, from scheduling the first
event to draining the last, plus rendering its CSV row.  Building the config
and the run object (keys, access delays, backbone) is set-up and stays
outside it.

Host times are scaled to a reference host speed.  On the shared 2-core
x86-64 machine the benchmark was tuned on, speed swung by up to 1.75x in
phases of 10-30 s, longer than one benchmark run, so raw medians followed
whichever phase a run fell in (quartile spread 0.17-0.25 over 20-s windows).
Around each timed piece of work the benchmark times a fixed calibration loop
with a memory-heavy mix like the simulator's; its time tracked the
scenario's (correlation 0.7-0.8), and the work's time multiplied by
REFERENCE_CALIBRATION_S / calibration time had a spread of about 0.04.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hashcast import cli
from hashcast.config import ScenarioConfig
from hashcast.ledger import export_ledger_lines
from hashcast.simulation import BaselineRun, VericomRun

from tracer import Tracer, TraceSummary
from workloads import invariant_failures, scenario_dict

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Median calibration-loop time on the reference host: a quiet phase of a 2-core
# x86-64 box running Python 3.11.
REFERENCE_CALIBRATION_S = 0.030


def _calibration_loop() -> int:
    """Fixed work like the simulator's: allocation, dict inserts and lookups.

    It uses nothing from `hashcast`, so a change to the program never moves it.
    """
    table = {}
    for i in range(60000):
        table[(i * 7919) % 200003] = [i, float(i)]
    total = 0
    for k in range(60000):
        total += len(table.get((k * 104729) % 200003, ()))
    return total


def calibration_times(loops: int = 3) -> list[float]:
    """Times of `loops` consecutive calibration loops, from a collected heap."""
    gc.collect()
    times = []
    for _ in range(loops):
        start = perf_counter()
        _calibration_loop()
        times.append(perf_counter() - start)
    return times


class HostClock:
    """Factors that scale consecutive pieces of host work to the reference speed.

    Calibration loops run before the first piece and after each one; a
    piece's factor is REFERENCE_CALIBRATION_S over the median of the loops on
    either side of it.
    """

    def __init__(self):
        self._before = calibration_times()

    def scale(self) -> float:
        """Factor for the piece of work that just finished."""
        after = calibration_times()
        factor = REFERENCE_CALIBRATION_S / statistics.median(self._before + after)
        self._before = after
        return factor


@dataclass
class ScenarioResult:
    scenario_seed: int
    wall_s: float  # raw host seconds
    events: int
    injected: int
    committed: int
    blocks: int
    iot_bytes: int
    backbone_bytes: int
    verify_ops: int
    delay_samples: int
    delay_p50_ms: float
    delay_p99_ms: float
    fingerprint: str
    failures: list[str] = field(default_factory=list)
    trace: TraceSummary | None = None
    scale: float = 1.0  # HostClock factor, set by the caller that brackets the run

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale


def build_run(workload: str, scenario_seed: int):
    config = ScenarioConfig.from_dict(scenario_dict(workload, scenario_seed))
    return BaselineRun(config) if config.mode == "baseline" else VericomRun(config)


def fingerprint(run, row: str) -> str:
    """sha256 over the CSV row, the event log and the ledger dump of a run."""
    ledgers = []
    for epoch_ledgers in run.ledgers.values():
        ledgers.extend(epoch_ledgers.values())
    h = hashlib.sha256()
    for text in (row, "\n".join(run.log_lines), "\n".join(export_ledger_lines(ledgers))):
        h.update(text.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def execute(workload: str, scenario_seed: int, tracer: Tracer | None = None) -> ScenarioResult:
    """Run one scenario; with a tracer, the timed region is traced."""
    run = build_run(workload, scenario_seed)
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        run.run()
        row = cli.csv_row(run.config, run.metrics)
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    m = run.metrics
    delays = sorted(m.delay_samples)
    return ScenarioResult(
        scenario_seed=scenario_seed,
        wall_s=wall,
        events=run.queue._seq,  # every pushed event is popped: run() drains the queue
        injected=m.injected_tx,
        committed=m.committed_tx,
        blocks=m.blocks_committed,
        iot_bytes=m.packet_bytes_iot,
        backbone_bytes=m.packet_bytes_backbone,
        verify_ops=m.verify_ops,
        delay_samples=len(delays),
        delay_p50_ms=nearest_rank(delays, 0.50),
        delay_p99_ms=nearest_rank(delays, 0.99),
        fingerprint=fingerprint(run, row),
        failures=invariant_failures(workload, run),
        trace=tracer.summary() if tracer is not None else None,
    )


def load_references() -> dict[str, dict[str, str]]:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


class OutputCheck:
    """Checks every scenario result of one benchmark run.

    A result fails when it breaks a workload invariant, differs from the
    reference recorded for its scenario seed, or differs from an earlier
    result of the same scenario seed (traced or not).
    """

    def __init__(self, workload: str, references: dict[str, dict[str, str]]):
        self.references = references.get(workload, {})
        self.first: dict[int, ScenarioResult] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record_error(self, scenario_seed: int, error: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.messages.append(f"seed {scenario_seed}: {error}")

    def check(self, result: ScenarioResult) -> bool:
        self.attempted += 1
        problems = list(result.failures)
        seed = result.scenario_seed
        expected = self.references.get(str(seed))
        if expected is not None and result.fingerprint != expected:
            problems.append("fingerprint differs from the recorded reference")
        earlier = self.first.setdefault(seed, result)
        if earlier.fingerprint != result.fingerprint:
            problems.append("fingerprint differs between runs of the same scenario")
        if problems:
            self.failed += 1
            self.messages.extend(f"seed {seed}: {p}" for p in problems)
        return not problems

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank `q` quantile of an ascending list."""
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def modelled_metrics(results: list[ScenarioResult]) -> dict[str, tuple[float, str, int]]:
    """Modelled outcomes over one result per scenario seed.

    Delay percentiles are per scenario, averaged over the scenarios; the other
    figures pool the scenarios' counters.  Values are (value, unit, sample count).
    """
    injected = sum(r.injected for r in results)
    committed = sum(r.committed for r in results)
    samples = sum(r.delay_samples for r in results)
    iot = sum(r.iot_bytes for r in results)
    backbone = sum(r.backbone_bytes for r in results)
    return {
        "sim_delay_p50_ms": (statistics.fmean(r.delay_p50_ms for r in results), "ms", samples),
        "sim_delay_p99_ms": (statistics.fmean(r.delay_p99_ms for r in results), "ms", samples),
        "sim_bytes_per_tx": ((iot + backbone) / committed, "B/tx", committed),
        "sim_verify_ops_per_tx": (sum(r.verify_ops for r in results) / committed, "ops/tx", committed),
        "sim_committed_ratio": (committed / injected, "ratio", injected),
        "sim.iot_bytes_per_tx": (iot / committed, "B/tx", committed),
        "sim.backbone_bytes_per_tx": (backbone / committed, "B/tx", committed),
    }


def host_metrics(results: list[ScenarioResult]) -> dict[str, tuple[float, str, int]]:
    """Host cost at the reference speed, as medians over the timed scenario runs."""
    count = len(results)
    return {
        "wall_s": (statistics.median(r.scaled_wall_s for r in results), "s", count),
        "events_per_s": (statistics.median(r.events / r.scaled_wall_s for r in results), "1/s", count),
        "tx_per_s": (statistics.median(r.committed / r.scaled_wall_s for r in results), "1/s", count),
    }
