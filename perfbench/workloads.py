"""The benchmark's workloads: scenario configs, seeds and output invariants.

Each workload is one scenario shape.  A benchmark run derives
`SCENARIOS_PER_RUN` scenario seeds from its `--seed` and runs the shape once
per scenario seed, so one run covers several backbone topologies and its
modelled figures do not hinge on a single random tree.
"""

from __future__ import annotations

SCENARIOS_PER_RUN = 8

_B1_POPULATION = {
    "num_iot_nodes": 200,
    "num_backbone": 20,
    "backbone_topology": "random-connected",
    "link_delay_ms": 1.0,
    "num_validators": 10,
    "n": 1,
    "m": 1,
    "block_size": 1,
    "tx_count": 1000,
    "payload_size": 510,
}

WORKLOADS: dict[str, dict] = {
    "multicast-b1": {
        "why": (
            "fig6 vericom point with one block per tx: core digest count and "
            "the ledger nonce grind dominate the host cost"
        ),
        "config": dict(_B1_POPULATION, mode="vericom"),
    },
    "broadcast-b1": {
        "why": (
            "the same population and inputs flooded in baseline mode, the paper's "
            "comparison point; event-loop bound, never calls verification or transmission"
        ),
        "config": dict(_B1_POPULATION, mode="baseline"),
    },
    "multicast-b50-untrusted": {
        "why": (
            "wide untrusted backbone with 50-tx blocks and a dropping node: bytes-bound "
            "grinding, multicast fan-out, monitoring, one rebuild and per-epoch allocation"
        ),
        "config": {
            "mode": "vericom",
            "num_iot_nodes": 200,
            "num_backbone": 50,
            "backbone_topology": "random-connected",
            "link_delay_ms": 0.4,
            "num_validators": 40,
            "n": 2,
            "m": 2,
            "block_size": 50,
            "epochs": 4,
            "tx_count": 4000,
            "trust_mode": "untrusted",
            "monitor_window_ms": 100.0,
            "attack": "dropping",
            "adversary_ids": [7],
        },
    },
}


def scenario_seeds(seed: int) -> list[int]:
    """The scenario seeds one benchmark run with `seed` uses, disjoint per seed."""
    return [seed * SCENARIOS_PER_RUN + k for k in range(SCENARIOS_PER_RUN)]


def scenario_dict(workload: str, scenario_seed: int) -> dict:
    """The JSON-shaped scenario config of `workload` for one scenario seed."""
    return dict(WORKLOADS[workload]["config"], seed=scenario_seed)


def invariant_failures(workload: str, run) -> list[str]:
    """Seed-independent checks on a finished run; an empty list means it passed."""
    m = run.metrics
    failures = []
    if m.committed_tx > m.injected_tx:
        failures.append(f"committed {m.committed_tx} > injected {m.injected_tx}")
    if workload == "multicast-b1" and m.verify_ops != 6 * m.committed_tx:
        failures.append(f"verify_ops {m.verify_ops} != 6 * committed {m.committed_tx}")
    if workload == "broadcast-b1":
        expected = run.config.num_iot_nodes * (m.injected_tx + m.blocks_committed)
        if m.verify_ops != expected:
            failures.append(f"verify_ops {m.verify_ops} != N * (injected + blocks) = {expected}")
    if workload == "multicast-b50-untrusted" and m.lost_items > 0:
        # A dropping node swallows every copy it receives; one that receives
        # none (an unloaded leaf of the random backbone) loses nothing and
        # cannot be observed.  Once anything is lost, it must be caught.
        droppers = set(run.config.adversary_ids)
        if not m.detected or not droppers <= run.excluded_bns:
            failures.append(
                f"{m.lost_items} items lost but dropping backbone nodes {sorted(droppers)} "
                "were not detected and excluded"
            )
    return failures
