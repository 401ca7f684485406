import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hashcast import simulation
from hashcast.config import ConfigError, ScenarioConfig, load_config
from hashcast import core, verification
from hashcast.core import (
    endorsement_for,
    make_block,
    msch,
    serialize_block,
    serialize_transaction,
)
from hashcast.ledger import export_ledger_lines
from hashcast.simulation import VERIFY_COST_MS, VericomRun, execute, run_scenario
from hashcast.transmission import evaluate_window
from hashcast.verification import (
    REASON_BAD_ENDORSEMENT,
    REASON_BAD_SIGNATURE,
    REASON_RANGE_MISMATCH,
    VerificationOutcome,
    endorse_block,
)
from oracles import ring_first_arrivals, scan_chain_integrity, scan_range_discipline

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def small_config(**overrides):
    base = dict(
        num_iot_nodes=20,
        num_validators=10,
        num_backbone=5,
        tx_count=40,
        block_size=5,
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestDeterminism:
    def test_vericom_trace_and_report(self):
        cfg = small_config()
        r1, log1 = run_scenario(cfg)
        r2, log2 = run_scenario(cfg)
        assert log1 == log2
        assert r1.packet_bytes_iot == r2.packet_bytes_iot
        assert r1.delay_samples == r2.delay_samples
        assert r1.verify_ops == r2.verify_ops

    def test_baseline_trace_and_report(self):
        cfg = small_config(mode="baseline")
        r1, log1 = run_scenario(cfg)
        r2, log2 = run_scenario(cfg)
        assert log1 == log2
        assert r1.packet_bytes_iot == r2.packet_bytes_iot

    def test_different_seeds_differ(self):
        r1, _ = run_scenario(small_config(seed=1))
        r2, _ = run_scenario(small_config(seed=2))
        assert r1.delay_samples != r2.delay_samples


class TestHonestRuns:
    def test_conservation(self):
        cfg = small_config(tx_count=200)
        run = execute(cfg)
        assert run.metrics.injected_tx == 200
        assert run.metrics.committed_tx == 200

    def test_no_misbehavior_no_penalties_no_isolation(self):
        run = execute(small_config())
        assert run.metrics.reports == []
        assert run.metrics.penalties == []
        assert run.metrics.isolated == []
        assert not run.metrics.detected
        assert run.metrics.lost_items == 0
        assert run.metrics.routing_failures == 0

    def test_ledger_scans_hold(self):
        run = execute(small_config(tx_count=100))
        for epoch, ledgers in run.ledgers.items():
            alloc = run.alloc
            for ledger in ledgers.values():
                assert scan_chain_integrity(ledger)
            assert scan_range_discipline(list(ledgers.values()), alloc)

    def test_no_double_commit(self):
        run = execute(small_config(tx_count=150))
        seen = set()
        for ledgers in run.ledgers.values():
            for ledger in ledgers.values():
                for block in ledger.blocks:
                    for tx in block.transactions:
                        assert tx.id not in seen
                        seen.add(tx.id)
        assert len(seen) == 150

    def test_epoch_flush_commits_leftovers(self):
        # 7 txs with block size 5: the remainder must still land in a ledger.
        run = execute(small_config(tx_count=7, block_size=5))
        assert run.metrics.committed_tx == 7

    def test_multi_epoch_honest(self):
        run = execute(small_config(tx_count=30, epochs=2))
        assert run.metrics.committed_tx == 30
        assert len(run.ledgers) == 2
        assert len(run.allocation_tables) == 2
        assert run.metrics.penalties == []

    def test_delivery_counts_per_item(self):
        # every transaction reaches exactly the 2n+1 = 3 validator-set
        # members; with block_size 1 every block reaches 3 verifiers.
        cfg = small_config(tx_count=10, block_size=1, n=1, m=1)
        run = execute(cfg)
        # 3 tx deliveries + 3 block deliveries + (10 validators + auditor)
        # endorsed deliveries per transaction
        expected = 10 * (3 + 3 + 11)
        assert len(run.metrics.delay_samples) == expected

    def test_verify_ops_structure(self):
        cfg = small_config(tx_count=10, block_size=1, n=1, m=1)
        run = execute(cfg)
        assert run.metrics.verify_ops == 10 * 3 + run.metrics.blocks_committed * 3
        assert run.metrics.verify_time_ms == pytest.approx(
            run.metrics.verify_ops * VERIFY_COST_MS
        )


class TestBaseline:
    def test_ops_are_two_n_for_one_tx_one_block(self):
        cfg = small_config(mode="baseline", tx_count=1, block_size=1, num_iot_nodes=20)
        report, _ = run_scenario(cfg)
        assert report.blocks_committed == 1
        assert report.verify_ops == 2 * 20

    def test_every_node_sees_every_item(self):
        cfg = small_config(mode="baseline", tx_count=12, block_size=3)
        run = execute(cfg)
        items = run.metrics.injected_tx + run.metrics.blocks_committed
        assert run.metrics.verify_ops == items * cfg.num_iot_nodes

    def test_doubling_population_grows_bytes(self):
        small = run_scenario(small_config(mode="baseline", num_iot_nodes=20))[0]
        large = run_scenario(small_config(mode="baseline", num_iot_nodes=40))[0]
        assert large.packet_bytes_iot >= 1.9 * small.packet_bytes_iot

    def test_conservation(self):
        report, _ = run_scenario(small_config(mode="baseline", tx_count=60))
        assert report.committed_tx == 60


class TestModeComparison:
    def test_multicast_bytes_below_broadcast(self):
        for n_nodes in (20, 40):
            cfg_v = small_config(num_iot_nodes=n_nodes, tx_count=60)
            cfg_b = small_config(mode="baseline", num_iot_nodes=n_nodes, tx_count=60)
            vericom, _ = run_scenario(cfg_v)
            baseline, _ = run_scenario(cfg_b)
            assert vericom.packet_bytes_iot < baseline.packet_bytes_iot

    def test_vericom_ops_independent_of_population(self):
        # with one transaction per block the op total is a pure function of
        # the traffic volume, whatever the population size.
        ops = set()
        for n_nodes in (15, 30, 60):
            report, _ = run_scenario(
                small_config(num_iot_nodes=n_nodes, tx_count=50, block_size=1)
            )
            assert report.verify_ops == 50 * 3 + report.blocks_committed * 3
            ops.add(report.verify_ops)
        assert ops == {50 * 6}


class TestAttacks:
    def test_false_verification_detected_before_broadcast(self):
        cfg = small_config(
            num_iot_nodes=30,
            num_validators=13,
            tx_count=20,
            attack="false-verification",
            adversary_ids=(0,),
            seed=17,
        )
        run = execute(cfg)
        assert run.metrics.detected
        report = run.metrics.reports[0]
        assert report.kind == "block-rejected"
        assert len(report.reporters) == 2  # the two honest verifiers
        # the forged block never went out as endorsed
        forged = report.item_digest
        assert not any(
            "broadcast-endorsed" in line and forged in line for line in run.log_lines
        )

    def test_fake_transaction_full_collusion_caught_by_auditor(self):
        cfg = small_config(
            num_iot_nodes=30,
            num_validators=13,
            tx_count=20,
            epochs=2,
            attack="fake-transaction",
            adversary_ids=(0,),
            seed=17,
        )
        run = execute(cfg)
        assert run.metrics.detected
        audit_reports = [r for r in run.metrics.reports if r.kind == "audit"]
        assert audit_reports
        assert len(audit_reports[0].accused) == 4  # generator + 3 endorsers
        # colluders rejected at the next epoch's registration
        rejected = [l for l in run.log_lines if "rejected-excluded" in l]
        assert len(rejected) == 4

    def test_dropping_flagged_and_recovered(self):
        cfg = small_config(
            num_iot_nodes=30,
            num_validators=13,
            num_backbone=4,
            backbone_topology="chain",
            backbone_capacity=12,
            tx_count=40,
            trust_mode="untrusted",
            monitor_window_ms=30.0,
            attack="dropping",
            adversary_ids=(1,),
            seed=17,
        )
        run = execute(cfg)
        assert run.metrics.detected
        assert run.metrics.lost_items > 0
        reconstructed = [l for l in run.log_lines if "backbone-reconstructed" in l]
        assert len(reconstructed) == 1
        t_rec = float(reconstructed[0].split()[0])
        commits_after = [
            l
            for l in run.log_lines
            if "commit-block" in l and float(l.split()[0]) > t_rec
        ]
        assert commits_after
        # everyone re-attached: the auditor keeps auditing afterwards
        assert run.metrics.isolated == []
        assert run.metrics.audit_ops > 0

    def test_attack_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(attack="dropping", adversary_ids=(1,))  # needs untrusted
        with pytest.raises(ConfigError):
            small_config(attack="fake-transaction")  # needs adversary ids
        with pytest.raises(ConfigError):
            small_config(mode="baseline", attack="dropping", adversary_ids=(1,))

    @pytest.mark.parametrize(
        "attack, validators",
        [("false-verification", 7), ("fake-transaction", 9)],
    )
    def test_exclusions_that_starve_a_later_epoch_are_rejected(self, attack, validators):
        # n = m = 1 needs more than 3n+2m = 5 range owners in epoch 1; the report
        # after epoch 0 excludes 2 (false-verification) or 2m+2 = 4 (auditor on)
        with pytest.raises(ConfigError, match=f"excludes .* of {validators} .* leaving 5"):
            small_config(num_validators=validators, epochs=2, attack=attack, adversary_ids=(0,))
        # one more range owner is enough, and the run reaches its last epoch
        run = execute(
            small_config(
                num_validators=validators + 1, epochs=2, attack=attack, adversary_ids=(0,)
            )
        )
        assert run.metrics.detected
        assert len(run.alloc.validators) == 6

    def test_unreported_attack_needs_no_spare_range_owners(self):
        # m = 0 and no auditor: the lone colluding verifier endorses and nobody reports
        cfg = dict(num_validators=4, n=1, m=0, epochs=2, attack="false-verification")
        run = execute(small_config(auditor=False, adversary_ids=(0,), **cfg))
        assert not run.metrics.detected
        assert len(run.alloc.validators) == 4
        with pytest.raises(ConfigError, match="excludes 2 of 4"):
            small_config(auditor=True, adversary_ids=(0,), **cfg)


class TestUnattachedSender:
    """A node attached to no backbone node sends nothing, and the run goes on."""

    def test_forged_block_from_isolated_generator(self):
        # two backbone nodes of capacity 4 leave the forging validator 11 out
        cfg = ScenarioConfig(
            num_iot_nodes=12,
            num_validators=12,
            num_backbone=2,
            backbone_capacity=4,
            tx_count=40,
            block_size=2,
            attack="false-verification",
            adversary_ids=(11,),
            seed=3,
        )
        run = execute(cfg)
        generator = run.malicious_generator.display
        assert generator in run.metrics.isolated
        assert run.chain_tip[generator] == ""  # the unsent block is not a tip
        assert run.metrics.routing_failures >= 1

    def test_flush_after_rebuild_isolates_validators(self):
        # a fixed capacity of 8 leaves 24 slots on the 3 survivors of the
        # rebuild, so some validators holding pooled transactions are left
        # unattached when the epoch flush cuts blocks; those blocks never go
        # out, and their transactions count as lost
        cfg = ScenarioConfig(
            num_iot_nodes=30,
            num_validators=30,
            num_backbone=4,
            backbone_topology="chain",
            backbone_capacity=8,
            block_size=5,
            tx_count=40,
            trust_mode="untrusted",
            monitor_window_ms=30.0,
            attack="dropping",
            adversary_ids=(1,),
            seed=101,
        )
        unsent = []

        class Recording(VericomRun):
            def _send_block(self, ident, block):
                attached = ident.display in self.home
                lost_before = self.metrics.lost_items
                super()._send_block(ident, block)
                if not attached:
                    unsent.append((len(block.transactions), self.metrics.lost_items - lost_before))

        run = Recording(cfg)
        run.run()
        assert run.metrics.detected
        assert run.metrics.isolated
        assert run.metrics.routing_failures >= 1
        assert run.metrics.committed_tx <= run.metrics.injected_tx
        assert unsent
        assert all(lost == tx_count for tx_count, lost in unsent)

    def test_endorsement_whose_main_verifier_was_isolated(self):
        # with a fixed capacity of 3, a rebuild isolates the main verifier
        # after it received the block
        cfg = ScenarioConfig(
            num_iot_nodes=11,
            num_validators=11,
            num_backbone=4,
            backbone_topology="chain",
            backbone_capacity=3,
            block_size=1,
            tx_count=49,
            epochs=3,
            trust_mode="untrusted",
            monitor_window_ms=5.0,
            attack="dropping",
            adversary_ids=(0,),
            seed=43672,
        )
        run = execute(cfg)
        broadcasts = [l for l in run.log_lines if "broadcast-endorsed" in l]
        assert len(broadcasts) < run.metrics.endorsed_blocks
        assert run.metrics.routing_failures >= 1


class TestRebuildCapacity:
    def test_auto_capacity_reattaches_everyone(self):
        # 31 identities on 4 nodes of auto capacity 8; after the dropper is
        # excluded the 3 survivors take ceil(31 / 3) = 11 each, so nobody is
        # stranded (with 8 each, 7 were isolated and 6 of 40 tx committed)
        cfg = ScenarioConfig(
            num_iot_nodes=30,
            num_validators=30,
            num_backbone=4,
            backbone_topology="chain",
            block_size=5,
            tx_count=40,
            trust_mode="untrusted",
            monitor_window_ms=30.0,
            attack="dropping",
            adversary_ids=(1,),
            seed=101,
        )
        run = execute(cfg)
        assert run.excluded_bns == {1}
        assert all(bn.capacity == 11 for bn in run.graph.nodes.values())
        assert run.metrics.isolated == []
        assert run.metrics.routing_failures == 0
        assert run.metrics.committed_tx == 27


@st.composite
def honest_configs(draw):
    n = draw(st.integers(1, 2))
    m = draw(st.integers(0, 2))
    least = max(4 * n, 3 * n + (m if n > m else 2 * m) + 1)
    validators = draw(st.integers(least, least + 6))
    return ScenarioConfig(
        num_iot_nodes=draw(st.integers(validators, validators + 8)),
        num_validators=validators,
        num_backbone=draw(st.integers(1, 8)),
        backbone_topology=draw(st.sampled_from(["random-connected", "chain", "star"])),
        n=n,
        m=m,
        block_size=draw(st.integers(1, 5)),
        tx_count=draw(st.integers(1, 30)),
        epochs=draw(st.integers(1, 3)),
        auditor=draw(st.booleans()),
        seed=draw(st.integers(0, 10_000)),
    )


@st.composite
def dropping_configs(draw):
    cfg = draw(honest_configs())
    num_backbone = max(cfg.num_backbone, 2)
    droppers = draw(
        st.sets(st.integers(0, num_backbone - 1), min_size=1, max_size=num_backbone - 1)
    )
    return replace(
        cfg,
        num_backbone=num_backbone,
        trust_mode="untrusted",
        monitor_window_ms=draw(st.sampled_from([5.0, 30.0, 100.0])),
        attack="dropping",
        adversary_ids=tuple(sorted(droppers)),
    )


@st.composite
def forging_configs(draw):
    cfg = draw(honest_configs())
    try:
        return replace(
            cfg,
            attack=draw(st.sampled_from(["false-verification", "fake-transaction"])),
            adversary_ids=(draw(st.integers(0, cfg.ring_size - 1)),),
        )
    except ConfigError:  # the exclusions would leave a later epoch too few range owners
        assume(False)


def assert_ledgers_sound(run):
    """No tx committed twice or beyond what was injected; every chain links up."""
    assert run.metrics.committed_tx <= run.metrics.injected_tx
    committed = [
        tx.id
        for ledgers in run.ledgers.values()
        for ledger in ledgers.values()
        for block in ledger.blocks
        for tx in block.transactions
    ]
    assert len(committed) == len(set(committed))
    for ledgers in run.ledgers.values():
        for ledger in ledgers.values():
            assert scan_chain_integrity(ledger)


class TestWholeRunProperties:
    @given(honest_configs())
    @settings(max_examples=40, deadline=None)
    def test_honest_trusted_run_invariants(self, cfg):
        run = execute(cfg)
        metrics = run.metrics
        assert_ledgers_sound(run)
        assert metrics.verify_ops == (
            (2 * cfg.n + 1) * metrics.injected_tx
            + (2 * cfg.m + 1) * metrics.blocks_committed
        )
        # per epoch: its start, one registration per range owner, the window
        # end, the flush and the settlement; per tx: its injection, the
        # uplink and one delivery per validator-set member; per block: the
        # uplink, one delivery per verifier, the endorsed uplink and one
        # delivery per range owner and auditor.  A lost event fails here.
        per_epoch = 4 + cfg.ring_size
        per_tx = 2 + (2 * cfg.n + 1)
        per_block = 2 + (2 * cfg.m + 1) + cfg.ring_size + int(cfg.auditor)
        assert run.queue._seq == (
            per_epoch * cfg.epochs
            + per_tx * metrics.injected_tx
            + per_block * metrics.blocks_committed
        )

    @given(honest_configs())
    @settings(max_examples=40, deadline=None)
    def test_baseline_run_invariants(self, cfg):
        run = execute(replace(cfg, mode="baseline"))
        metrics = run.metrics
        nodes = cfg.num_iot_nodes
        ledgers = [ledger for epoch in run.ledgers.values() for ledger in epoch.values()]
        blocks = [block for ledger in ledgers for block in ledger.blocks]
        tx_bytes = sum(len(serialize_transaction(tx)) for b in blocks for tx in b.transactions)
        assert metrics.committed_tx == metrics.injected_tx
        assert len(blocks) == metrics.blocks_committed
        # a ring flood: two copies leave the originator and the last node gets one twice
        items = metrics.injected_tx + metrics.blocks_committed
        block_bytes = sum(len(serialize_block(b)) for b in blocks)
        assert metrics.packet_bytes_iot == (nodes + 1) * (tx_bytes + block_bytes)
        assert len(metrics.delay_samples) == (nodes - 1) * items
        assert metrics.verify_ops == nodes * items
        # nodes + 1 hop events per flood, one injection per tx, and each
        # epoch's allocation and flush: a hop lost here would inflate events/s
        assert run.queue._seq == (nodes + 1) * items + metrics.injected_tx + 2 * cfg.epochs
        assert_ledgers_sound(run)

    @given(honest_configs())
    @settings(max_examples=30, deadline=None)
    def test_baseline_delays_are_ring_shortest_paths(self, cfg):
        run = execute(replace(cfg, mode="baseline"))
        origins = []
        for line in run.log_lines:
            actor, kind = line.split()[1:3]
            if kind in ("inject-tx", "commit-block"):
                origins.append(int(actor.removeprefix("node.")))
        expected = [
            delay
            for origin in origins
            for node, delay in enumerate(ring_first_arrivals(run.links, origin))
            if node != origin
        ]
        samples = sorted(run.metrics.delay_samples)
        assert samples == pytest.approx(sorted(expected), rel=0, abs=1e-6)

    @given(forging_configs())
    @settings(max_examples=40, deadline=None)
    def test_forging_run_reports(self, cfg):
        run = execute(cfg)
        generator = run.malicious_generator.display
        (forged,) = [line.split()[-1] for line in run.log_lines if "commit-forged-block" in line]
        expected = run.block_states[forged]["expected"]
        reports = [(r.kind, [pk.display for pk in r.accused]) for r in run.metrics.reports]
        if cfg.attack == "false-verification" and cfg.m >= 1:
            # the honest wing mates reject and accuse the colluding main verifier
            assert reports == [("block-rejected", [generator, expected[cfg.m]])]
        elif not cfg.auditor:
            assert reports == []
        elif cfg.attack == "false-verification":
            # a lone colluding verifier endorses; the auditor catches the block
            assert reports == [("audit", [generator, expected[0]])]
        else:
            assert reports == [("audit", [generator, *expected])]

    @given(dropping_configs())
    @settings(max_examples=40, deadline=None)
    def test_untrusted_dropping_run_invariants(self, cfg):
        run = execute(cfg)
        # an honest node forwards every copy it receives, so only droppers are flagged
        assert run.excluded_bns <= set(cfg.adversary_ids)
        # auto capacity is re-derived from the survivors, so nobody is stranded
        assert run.metrics.isolated == []
        assert_ledgers_sound(run)
        last = max(run.ledgers)
        assert scan_range_discipline(list(run.ledgers[last].values()), run.alloc)

    # only forging attacks exclude range owners; dropping excludes backbone nodes
    @given(forging_configs(), st.integers(2, 3))
    @settings(max_examples=100, deadline=None)
    def test_valid_attack_config_never_ends_in_run_error(self, cfg, epochs):
        try:
            cfg = replace(cfg, epochs=epochs)
        except ConfigError:
            assume(False)
        execute(cfg)  # a RunError fails here


class _StoresNothing(dict):
    """A cache that never keeps an entry, so every lookup misses and is computed afresh."""

    def __setitem__(self, key, value):
        pass


def store_nothing(run, *names):
    """Replace each of `run`'s caches `names` with a `_StoresNothing`; each must exist."""
    for name in names:
        assert isinstance(vars(run).get(name), dict), name
        setattr(run, name, _StoresNothing())


def window_counters(run):
    """Run `run`; return every node's (inbound, forwarded) at each window close."""
    closes = []

    def close(graph):
        closes.append(
            {i: (bn.window_inbound, bn.window_forwarded) for i, bn in graph.nodes.items()}
        )
        return evaluate_window(graph)

    with mock.patch.object(simulation, "evaluate_window", close):
        run.run()
    return closes


class TestPlanReuse:
    @given(dropping_configs())
    @settings(max_examples=40, deadline=None)
    def test_reused_plans_charge_monitor_counters(self, cfg):
        cached = VericomRun(cfg)
        uncached = VericomRun(cfg)
        store_nothing(uncached, "plans")
        assert window_counters(cached) == window_counters(uncached)
        assert cached.log_lines == uncached.log_lines
        assert cached.metrics == uncached.metrics


@st.composite
def vericom_configs(draw):
    """Any valid vericom config: either trust mode, with no attack or any of the three."""
    cfg = draw(st.one_of(honest_configs(), forging_configs(), dropping_configs()))
    if cfg.attack == "dropping":
        return cfg
    return replace(cfg, trust_mode=draw(st.sampled_from(["trusted", "untrusted"])))


def run_outputs(run):
    """Run `run`; return its event log, metrics, ledger dump and event count."""
    run.run()
    ledgers = [ledger for epoch in run.ledgers.values() for ledger in epoch.values()]
    return run.log_lines, run.metrics, export_ledger_lines(ledgers), run.queue._seq


class TestVerdictSharing:
    @given(vericom_configs())
    @settings(max_examples=40, deadline=None)
    def test_shared_verdicts_change_nothing(self, cfg):
        cached = VericomRun(cfg)
        uncached = VericomRun(cfg)
        store_nothing(uncached, "signatures", "memo")
        assert run_outputs(cached) == run_outputs(uncached)

    def test_block_with_swapped_transaction_is_checked_afresh(self):
        run = execute(small_config())
        block = run.ledgers[0][run.alloc.validators[0].display].blocks[0]
        assert run.memo[("block", block.digest)].ok
        assert all(run.signatures[tx] for tx in block.transactions)
        own = run.alloc.range_for(block.generator)
        # same id and signature, another payload; keep the digest in the generator's range
        # so only the transaction check can fail
        for k in range(1000):
            tx = replace(block.transactions[0], payload=b"swapped:%d" % k)
            swapped = replace(block, transactions=(tx,) + block.transactions[1:])
            if own.covers(msch(swapped.digest)):
                break
        outcome = run._verify_block(swapped)
        assert not outcome.ok and outcome.reason == REASON_BAD_SIGNATURE

    def test_changed_endorsements_are_checked_afresh(self):
        run = execute(small_config())
        endorsed = run.ledgers[0][run.alloc.validators[0].display].blocks[0]
        assert run.memo[("endorsed", endorsed.digest, endorsed.endorsements)].ok
        verifiers = {end.verifier.raw for end in endorsed.endorsements}
        outsider = next(i for i in run.identities if i.public.raw not in verifiers)
        swapped = endorsement_for(endorsed, outsider.keypair, run.backend)
        for endorsements in (
            endorsed.endorsements[:-1],
            (swapped,) + endorsed.endorsements[1:],
        ):
            copy = replace(endorsed, endorsements=endorsements)
            assert copy.digest == endorsed.digest
            outcome = run._verify_endorsements(copy)
            assert not outcome.ok and outcome.reason == REASON_BAD_ENDORSEMENT

    def test_auditor_judges_endorsements_only_of_a_valid_block(self):
        run = execute(small_config())
        endorsed = run.ledgers[0][run.alloc.validators[0].display].blocks[0]
        block_key = ("block", endorsed.digest)
        endorsed_key = ("endorsed", endorsed.digest, endorsed.endorsements)
        valid = VerificationOutcome.valid()
        bad_block = VerificationOutcome.invalid(REASON_BAD_SIGNATURE)
        bad_endorsements = VerificationOutcome.invalid(REASON_BAD_ENDORSEMENT)
        for block_verdict, endorsement_verdict, reason in (
            (bad_block, valid, REASON_BAD_SIGNATURE),
            (bad_block, bad_endorsements, REASON_BAD_SIGNATURE),
            (valid, bad_endorsements, REASON_BAD_ENDORSEMENT),
        ):
            run.memo[block_key], run.memo[endorsed_key] = block_verdict, endorsement_verdict
            run._endorsed_delivered(endorsed, run.auditors[0], run.queue.now, 0)
            report = run.metrics.reports[-1]
            assert (report.kind, report.item_digest, report.reason) == (
                "audit", endorsed.digest, reason
            )

    def test_block_of_a_generator_outside_the_allocation_is_a_range_mismatch(self):
        # the block fails verify_block, so the auditor must not derive its verifier
        # set: the generator has no ring position to derive it from
        run = execute(small_config())
        outsider = next(i for i in run.identities if i.role == "node")
        txs = run.ledgers[0][run.alloc.validators[0].display].blocks[0].transactions
        block = make_block(outsider.keypair, "", txs, 0, run.backend)
        endorsed = endorse_block(block, [v.keypair for v in run.validators[:3]], run.backend)
        run._endorsed_delivered(endorsed, run.auditors[0], run.queue.now, 0)
        report = run.metrics.reports[-1]
        assert (report.item_digest, report.reason) == (endorsed.digest, REASON_RANGE_MISMATCH)
        assert ("set", endorsed.digest) not in run.memo


def count_calls(monkeypatch, fn):
    """Count calls of `fn` through every `hashcast` module namespace that holds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "hashcast" or name.startswith("hashcast."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestEpochBoundary:
    def test_endorsed_copy_in_next_registration_window_is_appended(self):
        cfg = ScenarioConfig(
            num_iot_nodes=10,
            num_validators=10,
            num_backbone=3,
            backbone_topology="chain",
            n=1,
            m=1,
            block_size=2,
            tx_count=28,
            epochs=3,
            auditor=False,
            trust_mode="untrusted",
            link_delay_ms=40.0,
            seed=4237,
        )
        run = execute(cfg)
        assert run.metrics.committed_tx == 28
        # some copy reaches its generator between an epoch's start and its allocation
        in_window, late_appends = False, 0
        for line in run.log_lines:
            kind = line.split()[2]
            if kind in ("epoch-start", "allocation"):
                in_window = kind == "epoch-start"
            late_appends += in_window and kind == "append"
        assert late_appends > 0
        assert_ledgers_sound(run)


class TestHostWorkCounts:
    """Each block is sized, and its verifier set and endorsements checked, once on the host."""

    def test_each_block_checked_once(self, monkeypatch):
        endorsement_checks = count_calls(monkeypatch, verification.verify_endorsements)
        verifier_sets = count_calls(monkeypatch, verification.select_verifier_set)
        serialized = count_calls(monkeypatch, core.serialize_block)
        run = execute(small_config(epochs=2, tx_count=60))
        assert run.metrics.endorsed_blocks == run.metrics.blocks_committed > 0
        assert run.metrics.audit_ops == run.metrics.endorsed_blocks
        assert len(endorsement_checks) == run.metrics.endorsed_blocks
        assert len(verifier_sets) == run.metrics.blocks_committed
        assert serialized == []


class TestUntrustedHonest:
    def test_no_false_flags(self):
        cfg = small_config(trust_mode="untrusted", tx_count=60, monitor_window_ms=30.0)
        run = execute(cfg)
        assert not run.metrics.detected
        assert run.metrics.lost_items == 0
        flags = [l for l in run.log_lines if "flagged" in l]
        assert flags == []


class TestMonitorSchedule:
    def test_clamped_tick_time_is_pushed_once(self):
        # a 30 ms window in a 340 ms epoch: ticks 10 and 11 both clamp to 290 ms
        run = VericomRun(load_config(str(PRESETS / "attack-c.json")))
        pushes = []
        push = run.queue.push

        def record(time, fn, *args):
            if getattr(fn, "__name__", "") == "_monitor_window":
                pushes.append((time, *args))
            push(time, fn, *args)

        run.queue.push = record
        run.run()
        assert run.epoch_ms == 340.0
        assert pushes == [(30.0 * w, w) for w in range(1, 10)] + [(290.0, 10)]
        assert run.queue._seq == 416


class TestRingCap:
    def test_oversize_validator_pool_keeps_sixty_two_ring(self):
        cfg = ScenarioConfig(
            num_iot_nodes=80,
            num_validators=80,
            num_backbone=5,
            tx_count=30,
            block_size=5,
            seed=9,
        )
        run = execute(cfg)
        assert len(run.alloc.validators) == 62
        assert run.metrics.committed_tx == 30
        # all 80 validator keys remain routable destinations
        bn = run.graph.nodes[min(run.graph.nodes)]
        validator_routes = [
            d for d in bn.routes if run.by_display[d].role == "validator"
        ]
        assert len(validator_routes) == 80
