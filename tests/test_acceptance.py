"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line once its assertions hold; a pytest failure is
the FAIL line.  The three sweep fixtures run the bundled experiment presets
once per session and are shared by the criteria that read different metrics
off the same runs.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hashcast.cli import main as cli_main
from hashcast.config import ScenarioConfig, load_sweep
from hashcast.core import (
    ALPHABET,
    SimulatedSigner,
    create_transaction,
    digest,
    make_block,
    serialize_block,
)
from hashcast.simulation import TRAFFIC_FEE, execute
from hashcast.verification import (
    SetParams,
    endorse_block,
    select_validator_set,
    select_verifier_set,
    verifier_offset,
)
from hashcast.weights import build_allocation, kwm
from oracles import brute_force_kwm, linear_fit_r_squared

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def ok(number, message):
    print(f"ACCEPTANCE {number:>2} PASS: {message}")


class Timed:
    def __init__(self, payload, seconds):
        self.payload = payload
        self.seconds = seconds


def _run_sweep(preset):
    spec = load_sweep(str(PRESETS / preset))
    started = time.perf_counter()
    results = {}
    for label, config in spec.expand():
        report = execute(config).metrics
        results[(config.mode, getattr(config, spec.parameter))] = report
    return Timed(results, time.perf_counter() - started)


@pytest.fixture(scope="session")
def population_sweep():
    """Population sweep 10..200, both modes (fig6/fig8/fig9 presets)."""
    return _run_sweep("fig6.json")


@pytest.fixture(scope="session")
def backbone_sweep():
    """Backbone sweep 2..50 at fixed population (fig7/fig10 presets)."""
    return _run_sweep("fig7.json")


@pytest.fixture(scope="session")
def validator_sweep():
    """Validator sweep 10..200 (fig11 preset)."""
    return _run_sweep("fig11.json")


def test_criterion_01_verification_scaling(population_sweep):
    """Ops per committed tx are exactly 6 in multicast mode; N in baseline."""
    results = population_sweep.payload
    for n_nodes in (10, 50, 100, 200):
        vericom = results[("vericom", n_nodes)]
        assert vericom.committed_tx == 1000
        assert vericom.verify_ops == 6 * vericom.committed_tx
        baseline = results[("baseline", n_nodes)]
        items = baseline.injected_tx + baseline.blocks_committed
        assert baseline.verify_ops == n_nodes * items
    assert population_sweep.seconds < 30.0
    ok(1, f"ops/tx == 6 at every N; baseline == N per item ({population_sweep.seconds:.1f}s)")


def test_criterion_02_packet_overhead_trend(population_sweep):
    """Multicast bytes flat (<10%) while baseline grows >= 15x, monotonically."""
    results = population_sweep.payload
    vericom_bytes = [results[("vericom", n)].packet_bytes_iot for n in (10, 50, 100, 200)]
    spread = (max(vericom_bytes) - min(vericom_bytes)) / min(vericom_bytes)
    assert spread < 0.10
    baseline_bytes = [results[("baseline", n)].packet_bytes_iot for n in (10, 50, 100, 200)]
    assert all(a < b for a, b in zip(baseline_bytes, baseline_bytes[1:]))
    growth = baseline_bytes[-1] / baseline_bytes[0]
    assert growth >= 15.0
    assert population_sweep.seconds < 60.0
    ok(2, f"multicast spread {spread:.2%}; baseline growth {growth:.1f}x")


def test_criterion_03_backbone_sensitivity(backbone_sweep):
    """Backbone growth 2->50: bytes up < 25%, delay monotone and < 100% up."""
    results = backbone_sweep.payload
    sizes = [2, 5, 10, 20, 30, 40, 50]
    bytes_iot = [results[("vericom", b)].packet_bytes_iot for b in sizes]
    byte_growth = bytes_iot[-1] / bytes_iot[0] - 1.0
    assert byte_growth < 0.25
    delays = [results[("vericom", b)].mean_delay_ms for b in sizes]
    assert all(a <= b for a, b in zip(delays, delays[1:]))
    delay_growth = delays[-1] / delays[0] - 1.0
    assert delay_growth < 1.0
    assert backbone_sweep.seconds < 60.0
    ok(3, f"bytes +{byte_growth:.2%}; delay monotone, +{delay_growth:.1%}")


def test_criterion_04_delay_separation(population_sweep):
    """Multicast delay band constant within 20%; baseline grows >= 5x."""
    results = population_sweep.payload
    vericom_delays = [results[("vericom", n)].mean_delay_ms for n in (10, 50, 100, 200)]
    center = sum(vericom_delays) / len(vericom_delays)
    for delay in vericom_delays:
        assert abs(delay - center) / center < 0.20
    baseline_ratio = (
        results[("baseline", 200)].mean_delay_ms / results[("baseline", 10)].mean_delay_ms
    )
    assert baseline_ratio >= 5.0
    assert population_sweep.seconds < 60.0
    ok(4, f"band {min(vericom_delays):.2f}..{max(vericom_delays):.2f} ms; baseline x{baseline_ratio:.1f}")


def test_criterion_05_routing_table_linearity(validator_sweep):
    """Table bytes linear in the validator count with an 8..12x span."""
    results = validator_sweep.payload
    counts = [10, 50, 100, 200]
    sizes = [results[("vericom", v)].routing_table_bytes for v in counts]
    r_squared = linear_fit_r_squared(counts, sizes)
    assert r_squared > 0.99
    ratio = sizes[-1] / sizes[0]
    assert 8.0 <= ratio <= 12.0
    assert validator_sweep.seconds < 10.0
    ok(5, f"R^2 {r_squared:.4f}; size ratio {ratio:.2f} ({sizes[0]}B -> {sizes[-1]}B)")


def test_criterion_06_endorsement_overhead():
    """Endorsed block grows by exactly 459 bytes per endorsement."""
    started = time.perf_counter()
    backend = SimulatedSigner()
    keypairs = [backend.keypair(f"c6:{i}".encode()) for i in range(6)]
    tx = create_transaction(keypairs[0], b"payload", backend)
    block = make_block(keypairs[0], "", [tx], 0, backend)
    base = len(serialize_block(block))
    for m in (0, 1, 2):
        endorsed = endorse_block(block, keypairs[1 : 1 + 2 * m + 1], backend)
        assert len(serialize_block(endorsed)) - base == 459 * (2 * m + 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(6, f"459*(2m+1) exact for m in 0..2 ({elapsed:.2f}s)")


def test_criterion_07_allocation_properties():
    """Partition properties for every ring size over random validator sets."""
    started = time.perf_counter()
    backend = SimulatedSigner()
    pool = [backend.keypair(f"c7:{i}".encode()).public for i in range(80)]
    rng = random.Random(77)
    for count in range(1, 63):
        for _ in range(200):
            alloc = build_allocation(rng.sample(pool, count))
            sizes = [r.end - r.start + 1 for r in alloc.ranges]
            assert sum(sizes) == 62
            expected = [62 // count + (62 % count if i == 0 else 0) for i in range(count)]
            assert sizes == expected
            cursor = 0
            for rng_ in alloc.ranges:  # contiguity == disjoint + complete
                assert rng_.start == cursor
                cursor = rng_.end + 1
            assert cursor == 62
            kwms = [kwm(pk.display) for pk in alloc.validators]
            assert all(a >= b for a, b in zip(kwms, kwms[1:]))
            if count == 10:
                assert sizes == [8] + [6] * 9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(7, f"exact cover and ordering for N=1..62 x200 sets ({elapsed:.1f}s)")


def test_criterion_08_set_disjointness_exhaustive():
    """Validator and verifier sets never overlap, with the two offset cases."""
    started = time.perf_counter()
    backend = SimulatedSigner()
    checked = 0
    for total in range(8, 17):
        pks = [backend.keypair(f"c8:{total}:{i}".encode()).public for i in range(total)]
        alloc = build_allocation(pks)
        admissible = []
        for n in range(1, total // 4 + 1):
            for m in range(0, total):
                if (n > m and total > 3 * n + m) or (n <= m and total > 3 * n + 2 * m):
                    admissible.append((n, m))
        assert admissible
        for n, m in admissible:
            params = SetParams(n=n, m=m, num_validators=total)
            expected_offset = 2 * n if n > m else 2 * n + m
            assert verifier_offset(params) == expected_offset
            for vpos in range(total):
                v_digest = ALPHABET[alloc.ranges[vpos].start] + "0" * 31
                vset = select_validator_set(v_digest, alloc, params)
                for cpos in range(total):
                    c_digest = ALPHABET[alloc.ranges[cpos].start] + "0" * 31
                    verifier_set = select_verifier_set(c_digest, alloc, params, vset)
                    assert not (verifier_set.member_keys & vset.member_keys)
                    if verifier_set.relocated:
                        main_pos = alloc.position_of(verifier_set.main)
                        assert main_pos == (vpos + expected_offset) % total
                    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(8, f"{checked} exhaustive combinations disjoint ({elapsed:.1f}s)")


def test_criterion_09_kwm_oracle_equivalence():
    """Exact agreement with the brute-force metric on 10,000 digests."""
    started = time.perf_counter()
    rng = random.Random(99)
    for _ in range(10_000):
        d = digest(rng.randbytes(16))
        assert kwm(d) == brute_force_kwm(d)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(9, f"10,000 digests agree exactly ({elapsed:.1f}s)")


def _attack_config(kind, seed, **overrides):
    base = dict(
        num_iot_nodes=24,
        num_validators=13,
        num_backbone=4,
        n=1,
        m=1,
        block_size=4,
        tx_count=12,
        attack=kind,
        adversary_ids=(0,),
        seed=seed,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_criterion_10_attack_detection():
    """All three attacks are caught in every seeded run."""
    started = time.perf_counter()

    # (a) one malicious verifier out of three: caught before any broadcast.
    for seed in range(50):
        run = execute(_attack_config("false-verification", seed=1000 + seed))
        assert run.metrics.detected, f"attack (a) seed {seed} undetected"
        forged = [r for r in run.metrics.reports if r.kind == "block-rejected"]
        assert forged, f"attack (a) seed {seed} has no verifier-set report"
        digest_hit = forged[0].item_digest
        assert not any(
            "broadcast-endorsed" in line and digest_hit in line
            for line in run.log_lines
        ), f"attack (a) seed {seed} broadcast before detection"

    # (b) fully colluding sets: the auditor reports, colluders sit out epoch 2.
    for seed in range(20):
        run = execute(
            _attack_config("fake-transaction", seed=2000 + seed, epochs=2, tx_count=16)
        )
        audit_reports = [r for r in run.metrics.reports if r.kind == "audit"]
        assert audit_reports, f"attack (b) seed {seed} not audited"
        assert len(audit_reports[0].accused) == 4
        rejected = [l for l in run.log_lines if "rejected-excluded" in l]
        assert len(rejected) == 4, f"attack (b) seed {seed} exclusions missing"

    # (c) full dropping: flagged within one window, traffic resumes after.
    for seed in range(10):
        run = execute(
            _attack_config(
                "dropping",
                seed=3000 + seed,
                backbone_topology="chain",
                trust_mode="untrusted",
                monitor_window_ms=30.0,
                adversary_ids=(1,),
                tx_count=30,
                backbone_capacity=12,
            )
        )
        assert run.metrics.detected, f"attack (c) seed {seed} undetected"
        reconstructed = [l for l in run.log_lines if "backbone-reconstructed" in l]
        assert reconstructed, f"attack (c) seed {seed} not reconstructed"
        t_rec = float(reconstructed[0].split()[0])
        assert run.metrics.detection_time_ms <= t_rec
        assert run.metrics.isolated == [], f"attack (c) seed {seed} isolated nodes"
        resumed = [
            l
            for l in run.log_lines
            if "commit-block" in l and float(l.split()[0]) > t_rec
        ]
        assert resumed, f"attack (c) seed {seed} never resumed"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(10, f"a:50/50 b:20/20 c:10/10 detections ({elapsed:.1f}s)")


# Two multi-block configs: default delays over two epochs, and a chain with
# 10 ms links whose last blocks land after the epoch's settlement event.
FEE_CONFIGS = (
    {"num_iot_nodes": 20, "tx_count": 60, "block_size": 3, "epochs": 2, "seed": 5},
    {
        "num_iot_nodes": 10,
        "num_validators": 7,
        "num_backbone": 7,
        "backbone_topology": "chain",
        "link_delay_ms": 10.0,
        "block_size": 3,
        "tx_count": 10,
        "seed": 104,
    },
)


def _settlements(lines):
    """Each epoch's fees and payouts, parsed back from the settlement report."""
    epochs = {}
    for line in lines:
        words = line.split()
        if words[0] == "settlement":
            fees, payouts = epochs[int(words[2])] = [], []
        elif words[0] == "validator":
            assert words[3] == words[5]  # paid is the fee
            fees.append(Fraction(words[3]))
        elif words[0] == "backbone":
            payouts.append(Fraction(words[3]))
    return epochs


def test_criterion_11_fee_settlement():
    """Conservation and the fee product rule, on every block a run appends."""
    started = time.perf_counter()
    for data in FEE_CONFIGS:
        run = execute(ScenarioConfig.from_dict(data))
        settled = _settlements(run.settlement_lines)
        assert sorted(settled) == sorted(run.ledgers) == list(range(run.config.epochs))
        for epoch, ledgers in run.ledgers.items():
            fees, payouts = settled[epoch]
            lengths = sorted(ledger.ledger_length for ledger in ledgers.values())
            assert sorted(fees) == [TRAFFIC_FEE * n for n in lengths]
            assert sum(fees) == sum(payouts) == TRAFFIC_FEE * sum(lengths)
        blocks = sum(len(l.blocks) for ls in run.ledgers.values() for l in ls.values())
        assert blocks == run.metrics.blocks_committed > run.config.epochs
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(11, f"every appended block billed, fees conserved ({elapsed:.1f}s)")


def test_criterion_12_determinism(tmp_path):
    """Same seed, byte-identical CSV row and event log."""
    started = time.perf_counter()
    config_path = tmp_path / "det.json"
    config_path.write_text(
        json.dumps(
            {
                "num_iot_nodes": 25,
                "num_validators": 10,
                "num_backbone": 5,
                "tx_count": 40,
                "block_size": 5,
                "seed": 12,
            }
        ),
        encoding="utf-8",
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["run", "-c", str(config_path), "-o", str(out)]) == 0
        outputs.append(
            ((out / "runs.csv").read_bytes(), (out / "events.log").read_bytes())
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(12, f"byte-identical CSV and event log ({elapsed:.1f}s)")
