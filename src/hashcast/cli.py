"""Command-line entry points: single runs, sweeps, and CSV emission.

`hashcast run` executes one scenario and writes a one-row CSV, the event
log, the ledger dump, and a human-readable summary.  `hashcast sweep`
expands a sweep spec into a deterministic series of runs and writes one CSV
row per run.  Log verbosity comes from the HASHCAST_LOG environment
variable: one of `LOG_LEVELS`, in any case; any other value means WARNING.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from .config import ConfigError, ScenarioConfig, load_config, load_sweep
from .ledger import export_ledger_lines
from .simulation import MetricsReport, RunError, execute

log = logging.getLogger("hashcast")
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

CSV_HEADER = (
    "mode,num_iot_nodes,num_backbone,num_validators,n,m,seed,"
    "packet_bytes_iot,packet_bytes_backbone,verify_ops,verify_time_ms,"
    "mean_delay_ms,max_delay_ms,routing_table_bytes,attack,detected,"
    "detection_time_ms"
)


def csv_row(config: ScenarioConfig, report: MetricsReport) -> str:
    detection = (
        f"{report.detection_time_ms:.6f}" if report.detection_time_ms is not None else ""
    )
    fields = [
        config.mode,
        str(config.num_iot_nodes),
        str(config.num_backbone),
        str(config.num_validators),
        str(config.n),
        str(config.m),
        str(config.seed),
        str(report.packet_bytes_iot),
        str(report.packet_bytes_backbone),
        str(report.verify_ops),
        f"{report.verify_time_ms:.6f}",
        f"{report.mean_delay_ms:.6f}",
        f"{report.max_delay_ms:.6f}",
        str(report.routing_table_bytes),
        config.attack,
        "true" if report.detected else "false",
        detection,
    ]
    return ",".join(fields)


def summary_text(config: ScenarioConfig, run) -> str:
    report = run.metrics
    lines = [
        f"mode={config.mode} seed={config.seed} attack={config.attack}",
        f"nodes={config.num_iot_nodes} backbone={config.num_backbone} "
        f"validators={config.num_validators} n={config.n} m={config.m}",
        f"injected={report.injected_tx} committed={report.committed_tx} "
        f"blocks={report.blocks_committed} endorsed={report.endorsed_blocks}",
        f"packet_bytes_iot={report.packet_bytes_iot} "
        f"packet_bytes_backbone={report.packet_bytes_backbone}",
        f"verify_ops={report.verify_ops} verify_time_ms={report.verify_time_ms:.3f} "
        f"audit_ops={report.audit_ops}",
        f"mean_delay_ms={report.mean_delay_ms:.3f} max_delay_ms={report.max_delay_ms:.3f}",
        f"routing_table_bytes={report.routing_table_bytes} "
        f"routing_failures={report.routing_failures} lost={report.lost_items}",
        f"detected={report.detected} detection_time_ms={report.detection_time_ms}",
        # A fixed `penalties=[]`: the summary format is recorded output, and
        # changing it waits for the re-record path of ROADMAP item 2.
        f"isolated={len(report.isolated)} penalties=[] "
        f"excluded={report.excluded}",
    ]
    for record in run.epochs:
        lines += ["", record.alloc.table()]
    if run.routing_dump:
        lines += ["", run.routing_dump]
    if run.settlement_lines:
        lines += ["", *run.settlement_lines]
    return "\n".join(lines) + "\n"


def _prepare_out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {path!r} is not writable: {exc}") from exc
    return out


def cmd_run(args) -> int:
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mode is not None:
        overrides["mode"] = args.mode
    if overrides:
        config = dataclasses.replace(config, **overrides)
    out = _prepare_out_dir(args.out)
    log.info("running %s scenario with seed %d", config.mode, config.seed)
    run = execute(config)
    (out / "runs.csv").write_text(
        CSV_HEADER + "\n" + csv_row(config, run.metrics) + "\n", encoding="utf-8"
    )
    (out / "events.log").write_text("\n".join(run.log_lines) + "\n", encoding="utf-8")
    (out / "summary.txt").write_text(summary_text(config, run), encoding="utf-8")
    ledgers = [ledger for record in run.epochs for ledger in record.ledgers.values()]
    (out / "ledgers.txt").write_text(
        "\n".join(export_ledger_lines(ledgers)) + "\n", encoding="utf-8"
    )
    print(summary_text(config, run), end="")
    return 0


def cmd_sweep(args) -> int:
    spec = load_sweep(args.spec)
    out = _prepare_out_dir(args.out)
    rows = [CSV_HEADER]
    summaries = []
    for label, config in spec.expand():
        log.info("sweep run %s", label)
        run = execute(config)
        rows.append(csv_row(config, run.metrics))
        summaries.append(
            f"{label}: bytes_iot={run.metrics.packet_bytes_iot} "
            f"ops={run.metrics.verify_ops} "
            f"mean_delay={run.metrics.mean_delay_ms:.3f}ms"
        )
    (out / "runs.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (out / "summary.txt").write_text("\n".join(summaries) + "\n", encoding="utf-8")
    print("\n".join(summaries))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hashcast",
        description="Hash-directed multicast chain simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario config")
    run_p.add_argument("-c", "--config", required=True, help="scenario config (JSON)")
    run_p.add_argument("-o", "--out", default="out", help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument("--mode", default=None, help="override the mode")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="execute a parameter sweep spec")
    sweep_p.add_argument("-s", "--spec", required=True, help="sweep spec (JSON)")
    sweep_p.add_argument("-o", "--out", default="out", help="output directory")
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("HASHCAST_LOG", "WARNING").upper()
    logging.basicConfig(level=level if level in LOG_LEVELS else "WARNING")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
