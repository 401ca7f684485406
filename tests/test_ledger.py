import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashcast.config import ScenarioConfig
from hashcast.core import (
    ALPHABET,
    SimulatedSigner,
    block_digest,
    create_transaction,
    make_block,
    msch,
    pack_credential,
)
from hashcast.ledger import (
    Ledger,
    PendingPool,
    commit_transactions,
    export_ledger_lines,
    grind_block,
)
from hashcast.simulation import RunError, VericomRun
from hashcast.verification import (
    REASON_BAD_ENDORSEMENT,
    SetParams,
    VerificationOutcome,
    endorse_block,
    expected_verifier_set,
)
from hashcast.weights import build_allocation
from conftest import audit, endorsement_verdict, make_keypairs
from oracles import in_range, scan_chain_integrity, scan_range_discipline


def setup_ring(backend, count=10, tag="lg"):
    kps = make_keypairs(backend, count, tag)
    alloc = build_allocation([kp.public for kp in kps])
    by_display = {kp.public.display: kp for kp in kps}
    return kps, alloc, by_display


def txs_for_owner(backend, alloc, owner, count, tag="t"):
    """Generate transactions whose digests land in the owner's range."""
    rng_owner = alloc.range_for(owner)
    out = []
    i = 0
    sender = backend.keypair(b"tx-sender")
    while len(out) < count:
        tx = create_transaction(sender, f"{tag}:{i}".encode(), backend)
        if in_range(rng_owner, msch(tx.id)):
            out.append(tx)
        i += 1
    return out


def registration_window(barred=()):
    """A run with epoch 0's registration window open; owners in `barred` were excluded."""
    run = VericomRun(ScenarioConfig(num_iot_nodes=12, num_validators=10, tx_count=10))
    run.metrics.excluded.extend(run.owners[i].display for i in barred)
    run._begin_epoch(0)
    return run


def register_status(run, ident):
    run._register(ident)
    line = run.log_lines[-1]
    assert line.split()[1:4] == [f"node.{ident.node_id}", "register", ident.display[:8]]
    return line.split()[-1]


class TestRegistration:
    def test_mid_window_accepted(self):
        run = registration_window()
        assert [register_status(run, ident) for ident in run.owners] == ["accepted"] * 10

    def test_excluded_rejected(self):
        run = registration_window(barred=(3,))
        assert register_status(run, run.owners[3]) == "rejected-excluded"
        assert register_status(run, run.owners[4]) == "accepted"
        run._finalize_allocation(0)
        with pytest.raises(ValueError):
            run.epoch.alloc.position_of(run.owners[3].public)


class TestFinalizeAllocation:
    def test_ten_registrants_split(self):
        run = registration_window()
        run._finalize_allocation(0)
        assert run.epoch.alloc == build_allocation(ident.public for ident in run.owners)
        assert [len(r) for r in run.epoch.alloc.ranges] == [8] + [6] * 9

    def test_single_registrant(self):
        # a lone owner would own the whole alphabet, but no wing fits in its ring
        run = registration_window(barred=range(1, 10))
        with pytest.raises(RunError, match="epoch 0: 1 validators registered after exclusions"):
            run._finalize_allocation(0)

    def test_replay_is_identical(self):
        allocations = []
        for _ in range(2):
            run = registration_window(barred=(0,))
            run._finalize_allocation(0)
            allocations.append(run.epoch.alloc)
        assert allocations[0] == allocations[1]

    def test_zero_registrations_halts(self):
        run = registration_window(barred=range(10))
        with pytest.raises(RunError, match="epoch 0: 0 validators registered after exclusions"):
            run._finalize_allocation(0)


class TestPendingPool:
    def test_out_of_range_never_enters(self, backend):
        kps, alloc, _ = setup_ring(backend)
        owner = alloc.validators[0]
        other = alloc.validators[5]
        pool = PendingPool(owner=owner, alloc=alloc)
        foreign = txs_for_owner(backend, alloc, other, 1)[0]
        assert not pool.add(foreign)
        assert len(pool) == 0

    def test_duplicates_ignored(self, backend):
        kps, alloc, _ = setup_ring(backend)
        owner = alloc.validators[0]
        pool = PendingPool(owner=owner, alloc=alloc)
        tx = txs_for_owner(backend, alloc, owner, 1)[0]
        assert pool.add(tx)
        assert not pool.add(tx)
        assert len(pool) == 1

    def test_arrival_order_taken(self, backend):
        kps, alloc, _ = setup_ring(backend)
        owner = alloc.validators[0]
        pool = PendingPool(owner=owner, alloc=alloc)
        txs = txs_for_owner(backend, alloc, owner, 5)
        for tx in txs:
            pool.add(tx)
        taken = pool.take(3)
        assert [t.id for t in taken] == [t.id for t in txs[:3]]
        assert len(pool) == 2


class TestCommit:
    def test_commit_chains_and_lands_in_range(self, backend):
        kps, alloc, by_display = setup_ring(backend)
        owner_kp = by_display[alloc.validators[0].display]
        pool = PendingPool(owner=owner_kp.public, alloc=alloc)
        for tx in txs_for_owner(backend, alloc, owner_kp.public, 5):
            pool.add(tx)
        block = commit_transactions(owner_kp, pool, 5, alloc, backend, "")
        assert block is not None
        assert len(block.transactions) == 5
        assert block.previous_digest == ""
        assert in_range(alloc.range_for(owner_kp.public), msch(block_digest(block)))
        assert len(pool) == 0

    def test_insufficient_pool_waits(self, backend):
        kps, alloc, by_display = setup_ring(backend)
        owner_kp = by_display[alloc.validators[0].display]
        pool = PendingPool(owner=owner_kp.public, alloc=alloc)
        for tx in txs_for_owner(backend, alloc, owner_kp.public, 3):
            pool.add(tx)
        assert commit_transactions(owner_kp, pool, 5, alloc, backend, "") is None
        assert len(pool) == 3

    def test_partial_flush(self, backend):
        kps, alloc, by_display = setup_ring(backend)
        owner_kp = by_display[alloc.validators[0].display]
        pool = PendingPool(owner=owner_kp.public, alloc=alloc)
        for tx in txs_for_owner(backend, alloc, owner_kp.public, 3):
            pool.add(tx)
        block = commit_transactions(
            owner_kp, pool, 5, alloc, backend, "", allow_partial=True
        )
        assert block is not None and len(block.transactions) == 3

    @staticmethod
    def naive_grind(owner_kp, previous_digest, txs, alloc, backend):
        """The first nonce's block whose full content digest lands in the owner's range."""
        own_range = alloc.range_for(owner_kp.public)
        nonce = 0
        while True:
            naive = make_block(owner_kp, previous_digest, txs, nonce, backend)
            if in_range(own_range, msch(block_digest(naive))):
                return naive
            nonce += 1

    @pytest.mark.parametrize("tx_count", [1, 50])
    def test_grind_matches_naive_loop(self, any_backend, tx_count):
        kps, alloc, by_display = setup_ring(any_backend)
        sender = any_backend.keypair(b"grind-sender")
        txs = [
            create_transaction(sender, bytes([i]) * 510, any_backend) for i in range(tx_count)
        ]
        nonces = []
        for owner in alloc.validators:
            owner_kp = by_display[owner.display]
            naive = self.naive_grind(owner_kp, "prev", txs, alloc, any_backend)
            block = grind_block(owner_kp, "prev", txs, alloc, any_backend)
            assert block == naive  # same nonce and signature
            assert block.digest == block_digest(naive)
            nonces.append(naive.nonce)
        assert max(nonces) > 0  # some owner needed more than one try

    @given(
        tx_count=st.integers(1, 60),
        previous=st.one_of(st.just(""), st.text(ALPHABET, min_size=32, max_size=32)),
        owner_index=st.integers(0, 9),
    )
    @settings(max_examples=15, deadline=None)
    def test_grind_matches_naive_loop_for_any_block(self, tx_count, previous, owner_index):
        backend = SimulatedSigner()
        kps, alloc, by_display = setup_ring(backend)
        sender = backend.keypair(b"grind-sender")
        txs = [create_transaction(sender, bytes([i]) * 40, backend) for i in range(tx_count)]
        owner_kp = by_display[alloc.validators[owner_index].display]
        naive = self.naive_grind(owner_kp, previous, txs, alloc, backend)
        block = grind_block(owner_kp, previous, txs, alloc, backend)
        assert block == naive
        assert block.digest == block_digest(naive)

    def test_grind_follows_a_varying_signature_length(self, backend):
        class VaryingSigner(SimulatedSigner):
            def sign(self, secret, message):
                tag = super().sign(secret, message)
                return tag[: 16 + tag[0] % 17]  # 16 to 32 bytes, by message

        varying = VaryingSigner()
        kps, alloc, by_display = setup_ring(varying)
        txs = [create_transaction(kps[0], b"tx", backend)]
        for owner in alloc.validators:
            owner_kp = by_display[owner.display]
            naive = self.naive_grind(owner_kp, "", txs, alloc, varying)
            block = grind_block(owner_kp, "", txs, alloc, varying)
            assert block == naive
            assert block.digest == block_digest(naive)

    def test_grind_rejects_an_oversized_signature(self, backend):
        class LongSigner(SimulatedSigner):
            def sign(self, secret, message):
                return super().sign(secret, message) * 15  # 480 bytes: over the blob

        long_signer = LongSigner()
        kps, alloc, by_display = setup_ring(long_signer)
        owner_kp = by_display[alloc.validators[0].display]
        txs = [create_transaction(owner_kp, b"tx", backend)]
        with pytest.raises(ValueError, match="^credential exceeds fixed blob size$"):
            pack_credential(owner_kp.public, long_signer.sign(owner_kp.secret, b"m"))
        with pytest.raises(ValueError, match="^credential exceeds fixed blob size$"):
            grind_block(owner_kp, "", txs, alloc, long_signer)

    @pytest.mark.parametrize("tx_count", [1, 50])
    def test_grind_hands_over_its_digest(self, any_backend, tx_count, monkeypatch):
        kps, alloc, by_display = setup_ring(any_backend)
        sender = any_backend.keypair(b"grind-sender")
        txs = [
            create_transaction(sender, bytes([i]) * 510, any_backend) for i in range(tx_count)
        ]
        built = []

        def recording_make_block(*args):
            built.append(make_block(*args))
            return built[-1]

        monkeypatch.setattr("hashcast.ledger.make_block", recording_make_block)
        for owner in alloc.validators:
            block = grind_block(by_display[owner.display], "prev", txs, alloc, any_backend)
            # stored by the grind before any read, and equal to the content's digest
            assert vars(block)["digest"] == block_digest(block)
        assert len(built) == len(alloc.validators)  # one make_block per grind

    def test_grinding_failure_raises(self, backend, monkeypatch):
        kps, alloc, by_display = setup_ring(backend)
        owner_kp = by_display[alloc.validators[0].display]
        txs = txs_for_owner(backend, alloc, owner_kp.public, 2)
        monkeypatch.setattr("hashcast.ledger.MAX_COMMIT_TRIES", 0)
        with pytest.raises(RuntimeError, match="no nonce below 0"):
            grind_block(owner_kp, "", txs, alloc, backend)
        pool = PendingPool(owner=owner_kp.public, alloc=alloc)
        for tx in txs:
            pool.add(tx)
        with pytest.raises(RuntimeError, match="no nonce below 0"):
            commit_transactions(owner_kp, pool, 2, alloc, backend, "")


class TestAppend:
    def _endorsed_block(self, backend):
        kps, alloc, by_display = setup_ring(backend)
        params = SetParams(n=1, m=1, num_validators=10)
        owner_kp = by_display[alloc.validators[0].display]
        pool = PendingPool(owner=owner_kp.public, alloc=alloc)
        for tx in txs_for_owner(backend, alloc, owner_kp.public, 2):
            pool.add(tx)
        block = commit_transactions(owner_kp, pool, 2, alloc, backend, "")
        verifier_set = expected_verifier_set(block, alloc, params)
        signers = [by_display[pk.display] for pk in verifier_set.members]
        endorsed = endorse_block(block, signers, backend)
        return endorsed, block, alloc, params, owner_kp

    def test_fully_endorsed_appends(self, backend):
        endorsed, _, alloc, params, owner_kp = self._endorsed_block(backend)
        verdict = endorsement_verdict(endorsed, alloc, params, backend)
        ledger = Ledger(owner=owner_kp.public)
        assert ledger.append_block(endorsed, verdict).ok
        assert len(ledger.blocks) == 1

    def test_partial_endorsement_rejected(self, backend):
        endorsed, block, alloc, params, owner_kp = self._endorsed_block(backend)
        short = dataclasses.replace(block, endorsements=endorsed.endorsements[:2])
        ledger = Ledger(owner=owner_kp.public)
        outcome = ledger.append_block(short, endorsement_verdict(short, alloc, params, backend))
        assert not outcome.ok and outcome.reason == "bad-endorsement"
        assert len(ledger.blocks) == 0

    def test_replay_rejected(self, backend):
        endorsed, _, alloc, params, owner_kp = self._endorsed_block(backend)
        verdict = endorsement_verdict(endorsed, alloc, params, backend)
        ledger = Ledger(owner=owner_kp.public)
        assert ledger.append_block(endorsed, verdict).ok
        # a block in the chain never links to the head again
        outcome = ledger.append_block(endorsed, verdict)
        assert not outcome.ok and outcome.reason == "broken-chain"
        assert ledger.blocks == [endorsed]

    def test_broken_chain_rejected(self, backend):
        endorsed, _, alloc, params, owner_kp = self._endorsed_block(backend)
        unlinked = dataclasses.replace(endorsed, previous_digest="not-the-head")
        ledger = Ledger(owner=owner_kp.public)
        outcome = ledger.append_block(unlinked, VerificationOutcome.valid())
        assert not outcome.ok and outcome.reason == "broken-chain"
        assert len(ledger.blocks) == 0

    def test_held_verdict_is_the_gate(self, backend):
        endorsed, _, alloc, params, owner_kp = self._endorsed_block(backend)
        ledger = Ledger(owner=owner_kp.public)
        held = VerificationOutcome.invalid(REASON_BAD_ENDORSEMENT)
        assert ledger.append_block(endorsed, held) == held
        assert len(ledger.blocks) == 0
        valid = VerificationOutcome.valid()
        assert ledger.append_block(endorsed, valid).ok
        # a valid verdict does not skip the chain check
        outcome = ledger.append_block(endorsed, valid)
        assert not outcome.ok and outcome.reason == "broken-chain"


class TestAudit:
    def test_honest_block_clean(self, backend):
        kps, alloc, by_display = setup_ring(backend)
        params = SetParams(n=1, m=1, num_validators=10)
        owner_kp = by_display[alloc.validators[3].display]
        pool = PendingPool(owner=owner_kp.public, alloc=alloc)
        for tx in txs_for_owner(backend, alloc, owner_kp.public, 2):
            pool.add(tx)
        block = commit_transactions(owner_kp, pool, 2, alloc, backend, "")
        verifier_set = expected_verifier_set(block, alloc, params)
        endorsed = endorse_block(
            block, [by_display[pk.display] for pk in verifier_set.members], backend
        )
        outcome, report = audit(endorsed, alloc, params, backend)
        assert outcome.ok and report is None

    def test_colluding_fake_block_reported(self, backend):
        kps, alloc, by_display = setup_ring(backend)
        params = SetParams(n=1, m=1, num_validators=10)
        owner_kp = by_display[alloc.validators[3].display]
        fake_tx = create_transaction(kps[7], b"real", backend)
        fake_tx = dataclasses.replace(fake_tx, signature=b"\x00" * 32)
        block = grind_block(owner_kp, "", [fake_tx], alloc, backend)
        verifier_set = expected_verifier_set(block, alloc, params)
        endorsed = endorse_block(
            block, [by_display[pk.display] for pk in verifier_set.members], backend
        )
        outcome, report = audit(endorsed, alloc, params, backend)
        assert not outcome.ok
        assert report is not None
        assert len(report.accused) == 4  # one generator + 2m+1 endorsers


class TestScans:
    def test_range_discipline_and_chain_integrity(self, backend):
        kps, alloc, by_display = setup_ring(backend)
        owner_kp = by_display[alloc.validators[0].display]
        ledger = Ledger(owner=owner_kp.public)
        prev = ""
        for i in range(3):
            pool = PendingPool(owner=owner_kp.public, alloc=alloc)
            for tx in txs_for_owner(backend, alloc, owner_kp.public, 2, tag=f"b{i}"):
                pool.add(tx)
            block = commit_transactions(owner_kp, pool, 2, alloc, backend, prev)
            ledger.append_block(block, VerificationOutcome.valid())
            prev = block_digest(block)
        assert scan_chain_integrity(ledger)
        assert scan_range_discipline([ledger], alloc)
        assert len({tx.id for block in ledger.blocks for tx in block.transactions}) == 6

    def test_export_lines(self, backend):
        kps, alloc, by_display = setup_ring(backend)
        owner_kp = by_display[alloc.validators[0].display]
        ledger = Ledger(owner=owner_kp.public)
        pool = PendingPool(owner=owner_kp.public, alloc=alloc)
        for tx in txs_for_owner(backend, alloc, owner_kp.public, 2):
            pool.add(tx)
        block = commit_transactions(owner_kp, pool, 2, alloc, backend, "")
        ledger.append_block(block, VerificationOutcome.valid())
        lines = export_ledger_lines([ledger])
        assert len(lines) == 1
        assert str(2) in lines[0]

