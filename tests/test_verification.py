import dataclasses
import random

import pytest

from hashcast.core import (
    ALPHABET,
    block_digest,
    create_transaction,
    digest,
    make_block,
    msch,
    serialize_block,
    transaction_id,
)
from hashcast.ledger import grind_block
from hashcast.verification import (
    REASON_BAD_ENDORSEMENT,
    REASON_BAD_SIGNATURE,
    REASON_MISSING_PREVIOUS,
    REASON_RANGE_MISMATCH,
    SetParams,
    VerificationOutcome,
    endorse_block,
    expected_verifier_set,
    select_validator_set,
    select_verifier_set,
    tally_endorsement,
    validator_set_for_block,
    verifier_offset,
    verify_block,
    verify_endorsements,
    verify_transaction,
)
from hashcast.weights import allocate_ranges, build_allocation
from conftest import audit, endorsement_verdict, make_keypairs


def ring_allocation(backend, count, tag="vr"):
    pks = [kp.public for kp in make_keypairs(backend, count, tag)]
    return build_allocation(pks)


def symbol_digest(symbol):
    return symbol + "0" * 31


def admissible_params(total):
    out = []
    for n in range(1, total // 4 + 1):
        for m in range(0, total):
            if n > m and total > 3 * n + m:
                out.append((n, m))
            elif n <= m and total > 3 * n + 2 * m:
                out.append((n, m))
    return out


def vote(block, members, alloc, backend, dishonest=frozenset()):
    """One verdict per member; members in `dishonest` (raw keys) claim valid."""
    verdicts = []
    for kp in members:
        if kp.public.raw in dishonest:
            verdicts.append((kp, VerificationOutcome.valid()))
        else:
            verdicts.append((kp, verify_block(block, alloc, backend)))
    return verdicts


class TestSetParams:
    def test_paper_sized_configuration(self):
        SetParams(n=1, m=1, num_validators=10)

    def test_n_lower_bound(self):
        with pytest.raises(ValueError):
            SetParams(n=0, m=1, num_validators=10)

    def test_quarter_bound(self):
        with pytest.raises(ValueError):
            SetParams(n=3, m=0, num_validators=11)

    def test_overlap_bound_n_greater(self):
        with pytest.raises(ValueError, match="3n\\+m"):
            SetParams(n=2, m=1, num_validators=7)

    def test_overlap_bound_n_not_greater(self):
        with pytest.raises(ValueError, match="3n\\+2m"):
            SetParams(n=3, m=3, num_validators=10)


class TestVerifierOffset:
    def test_n_greater_than_m(self):
        assert verifier_offset(SetParams(n=2, m=1, num_validators=12)) == 4

    def test_equal_wings(self):
        assert verifier_offset(SetParams(n=1, m=1, num_validators=10)) == 3

    def test_m_larger(self):
        assert verifier_offset(SetParams(n=1, m=3, num_validators=12)) == 5


class TestSelectValidatorSet:
    def test_scenario_main_and_successor(self, backend):
        pks = [kp.public for kp in make_keypairs(backend, 4, "scen")]
        alloc = allocate_ranges(pks)
        params = SetParams(n=1, m=0, num_validators=4)
        d = "K23HQ" + "0" * 27
        vset = select_validator_set(d, alloc, params)
        assert vset.main == alloc.validators[2]
        assert alloc.validators[3] in vset.members

    def test_wrap_around(self, backend):
        alloc = ring_allocation(backend, 5)
        params = SetParams(n=1, m=0, num_validators=5)
        d = symbol_digest(ALPHABET[0])  # owned by ring position 0
        vset = select_validator_set(d, alloc, params)
        expected = {alloc.validators[4], alloc.validators[0], alloc.validators[1]}
        assert set(vset.members) == expected
        assert vset.main == alloc.validators[0]

    def test_random_digests_well_formed(self, backend):
        alloc = ring_allocation(backend, 10)
        params = SetParams(n=2, m=1, num_validators=10)
        rng = random.Random(5)
        for _ in range(1000):
            d = digest(rng.randbytes(12))
            vset = select_validator_set(d, alloc, params)
            assert len(vset.members) == 5
            assert len(set(vset.members)) == 5
            assert alloc.range_of(msch(d)) == vset.main

    def test_determinism(self, backend):
        alloc = ring_allocation(backend, 10)
        params = SetParams(n=2, m=1, num_validators=10)
        d = digest(b"same")
        assert select_validator_set(d, alloc, params) == select_validator_set(
            d, alloc, params
        )


class TestSelectVerifierSet:
    def test_overlap_relocates_three_after_main(self, backend):
        alloc = ring_allocation(backend, 10)
        params = SetParams(n=1, m=1, num_validators=10)
        main_pos = 4
        vset = select_validator_set(
            symbol_digest(ALPHABET[alloc.ranges[main_pos].start]), alloc, params
        )
        assert alloc.position_of(vset.main) == main_pos
        # candidate main == validator main forces relocation by 2n+m = 3.
        vs = select_verifier_set(
            symbol_digest(ALPHABET[alloc.ranges[main_pos].start]), alloc, params, vset
        )
        assert vs.relocated
        assert alloc.position_of(vs.main) == (main_pos + 3) % 10
        assert not (vs.member_keys & vset.member_keys)

    def test_disjoint_candidate_unchanged(self, backend):
        alloc = ring_allocation(backend, 10)
        params = SetParams(n=1, m=1, num_validators=10)
        vset = select_validator_set(
            symbol_digest(ALPHABET[alloc.ranges[0].start]), alloc, params
        )
        candidate_pos = 5  # {4,5,6} does not meet {9,0,1}
        vs = select_verifier_set(
            symbol_digest(ALPHABET[alloc.ranges[candidate_pos].start]),
            alloc,
            params,
            vset,
        )
        assert not vs.relocated
        assert alloc.position_of(vs.main) == candidate_pos

    def test_exhaustive_disjointness_n13(self, backend):
        alloc = ring_allocation(backend, 13)
        for n, m in admissible_params(13):
            params = SetParams(n=n, m=m, num_validators=13)
            for vpos in range(13):
                vset = select_validator_set(
                    symbol_digest(ALPHABET[alloc.ranges[vpos].start]), alloc, params
                )
                for cpos in range(13):
                    vs = select_verifier_set(
                        symbol_digest(ALPHABET[alloc.ranges[cpos].start]),
                        alloc,
                        params,
                        vset,
                    )
                    assert not (vs.member_keys & vset.member_keys)
                    assert len(vs.members) == 2 * m + 1
                    assert len(set(vs.members)) == 2 * m + 1


class TestVerifyTransaction:
    def test_well_formed(self, backend):
        kp = backend.keypair(b"s")
        tx = create_transaction(kp, b"data", backend)
        assert verify_transaction(tx, backend).ok

    def test_tampered_payload(self, backend):
        kp = backend.keypair(b"s")
        tx = create_transaction(kp, b"data", backend)
        tampered = dataclasses.replace(tx, payload=b"datb")
        outcome = verify_transaction(tampered, backend)
        assert not outcome.ok and outcome.reason == REASON_BAD_SIGNATURE

    def test_missing_previous(self, backend):
        kp = backend.keypair(b"s")
        tx = create_transaction(kp, b"data", backend, previous_id=digest(b"gone"))
        outcome = verify_transaction(tx, backend)
        assert not outcome.ok and outcome.reason == REASON_MISSING_PREVIOUS

    def test_present_previous(self, backend):
        kp = backend.keypair(b"s")
        parent = create_transaction(kp, b"one", backend)
        child = create_transaction(kp, b"two", backend, previous_id=parent.id)
        assert verify_transaction(child, backend, {parent.id}).ok


class TestSharedSignatureVerdicts:
    def test_copy_with_same_id_and_signature_is_checked_afresh(self, backend):
        kp = backend.keypair(b"s")
        tx = create_transaction(kp, b"data", backend)
        signatures = {}
        assert verify_transaction(tx, backend, signatures=signatures).ok
        assert signatures == {tx: True}
        forged = dataclasses.replace(tx, payload=b"datb")
        outcome = verify_transaction(forged, backend, signatures=signatures)
        assert not outcome.ok and outcome.reason == REASON_BAD_SIGNATURE
        assert signatures == {tx: True, forged: False}

    def test_parent_is_checked_on_every_call(self, backend):
        kp = backend.keypair(b"s")
        parent = create_transaction(kp, b"one", backend)
        child = create_transaction(kp, b"two", backend, previous_id=parent.id)
        signatures = {}
        assert verify_transaction(child, backend, {parent.id}, signatures).ok
        outcome = verify_transaction(child, backend, frozenset(), signatures)
        assert not outcome.ok and outcome.reason == REASON_MISSING_PREVIOUS

    def test_block_with_swapped_transaction_is_checked_afresh(self, backend):
        kps = make_keypairs(backend, 2, "sw")
        alloc = build_allocation([kps[0].public])  # one owner: every digest is in range
        tx = create_transaction(kps[1], b"x", backend)
        block = grind_block(kps[0], "", [tx], alloc, backend)
        signatures = {}
        assert verify_block(block, alloc, backend, signatures).ok
        # same id and signature, so the header signature still verifies
        swapped = dataclasses.replace(
            block, transactions=(dataclasses.replace(tx, payload=b"y"),)
        )
        outcome = verify_block(swapped, alloc, backend, signatures)
        assert not outcome.ok and outcome.reason == REASON_BAD_SIGNATURE


class TestVerifyBlock:
    def _setup(self, backend, count=10):
        kps = make_keypairs(backend, count, "vb")
        alloc = build_allocation([kp.public for kp in kps])
        by_display = {kp.public.display: kp for kp in kps}
        return kps, alloc, by_display

    def test_valid_block(self, backend):
        kps, alloc, by_display = self._setup(backend)
        generator = by_display[alloc.validators[0].display]
        tx = create_transaction(kps[3], b"x", backend)
        block = grind_block(generator, "", [tx], alloc, backend)
        assert verify_block(block, alloc, backend).ok

    def test_range_mismatch(self, backend):
        kps, alloc, by_display = self._setup(backend)
        generator = by_display[alloc.validators[0].display]
        other = alloc.validators[1]
        tx = create_transaction(kps[3], b"x", backend)
        own = alloc.range_for(generator.public)
        foreign = alloc.range_for(other)
        for nonce in range(100_000):
            block = make_block(generator, "", [tx], nonce, backend)
            if foreign.covers(msch(block_digest(block))):
                break
        outcome = verify_block(block, alloc, backend)
        assert not outcome.ok and outcome.reason == REASON_RANGE_MISMATCH

    def test_bad_inner_transaction(self, backend):
        kps, alloc, by_display = self._setup(backend)
        generator = by_display[alloc.validators[0].display]
        tx = create_transaction(kps[3], b"x", backend)
        forged = dataclasses.replace(tx, payload=b"y")
        forged = dataclasses.replace(forged, id=transaction_id(forged))
        block = grind_block(generator, "", [forged], alloc, backend)
        outcome = verify_block(block, alloc, backend)
        assert not outcome.ok and outcome.reason == REASON_BAD_SIGNATURE

    def test_bad_header_signature(self, backend):
        kps, alloc, by_display = self._setup(backend)
        generator = by_display[alloc.validators[0].display]
        tx = create_transaction(kps[3], b"x", backend)
        block = grind_block(generator, "", [tx], alloc, backend)
        broken = dataclasses.replace(block, signature=b"\x00" * 32)
        outcome = verify_block(broken, alloc, backend)
        assert not outcome.ok and outcome.reason == REASON_BAD_SIGNATURE

    def test_chained_transactions_within_block(self, backend):
        kps, alloc, by_display = self._setup(backend)
        generator = by_display[alloc.validators[0].display]
        parent = create_transaction(kps[3], b"one", backend)
        child = create_transaction(kps[3], b"two", backend, previous_id=parent.id)
        block = grind_block(generator, "", [parent, child], alloc, backend)
        assert verify_block(block, alloc, backend).ok


class TestEndorsementFlow:
    def _pipeline(self, backend):
        kps = make_keypairs(backend, 10, "ef")
        alloc = build_allocation([kp.public for kp in kps])
        by_display = {kp.public.display: kp for kp in kps}
        params = SetParams(n=1, m=1, num_validators=10)
        generator = by_display[alloc.validators[2].display]
        tx = create_transaction(kps[5], b"x", backend)
        block = grind_block(generator, "", [tx], alloc, backend)
        verifier_set = expected_verifier_set(block, alloc, params)
        members = [by_display[pk.display] for pk in verifier_set.members]
        return alloc, params, block, members, by_display

    def test_honest_endorsement(self, backend):
        alloc, params, block, members, _ = self._pipeline(backend)
        verdicts = vote(block, members, alloc, backend)
        endorsed, report = tally_endorsement(block, verdicts, backend)
        assert report is None
        assert len(endorsed.endorsements) == 3
        assert [end.verifier for end in endorsed.endorsements] == [kp.public for kp in members]
        assert endorsement_verdict(endorsed, alloc, params, backend).ok
        grown = len(serialize_block(endorsed)) - len(serialize_block(block))
        assert grown == 459 * 3

    def test_rejection_fails_closed(self, backend):
        alloc, params, block, members, _ = self._pipeline(backend)
        forged_tx = dataclasses.replace(block.transactions[0], payload=b"evil")
        forged_tx = dataclasses.replace(forged_tx, id=transaction_id(forged_tx))
        forged = dataclasses.replace(block, transactions=(forged_tx,))
        verdicts = vote(forged, members, alloc, backend)
        endorsed, report = tally_endorsement(forged, verdicts, backend)
        assert endorsed is None
        assert report is not None
        assert block.generator in report.accused
        assert len(report.reporters) == 3

    def test_minority_dishonest_detected(self, backend):
        alloc, params, block, members, _ = self._pipeline(backend)
        forged_tx = dataclasses.replace(block.transactions[0], signature=b"\x00" * 32)
        forged_tx = dataclasses.replace(forged_tx, id=transaction_id(forged_tx))
        forged = dataclasses.replace(block, transactions=(forged_tx,))
        dishonest = frozenset({members[0].public.raw})
        verdicts = vote(forged, members, alloc, backend, dishonest)
        endorsed, report = tally_endorsement(forged, verdicts, backend, dishonest)
        assert endorsed is None
        assert members[0].public in report.accused
        assert len(report.reporters) == 2

    def test_auditor_revalidates_endorsed_block(self, backend):
        alloc, params, block, members, by_display = self._pipeline(backend)
        endorsed, _ = tally_endorsement(block, vote(block, members, alloc, backend), backend)
        auditor = backend.keypair(b"aud").public
        outcome, report = audit(endorsed, alloc, params, backend, auditor)
        assert outcome.ok and report is None

    def test_auditor_catches_colluding_endorsers(self, backend):
        alloc, params, block, members, _ = self._pipeline(backend)
        forged_tx = dataclasses.replace(block.transactions[0], signature=b"\x11" * 32)
        forged_tx = dataclasses.replace(forged_tx, id=transaction_id(forged_tx))
        forged = dataclasses.replace(block, transactions=(forged_tx,))
        endorsed = endorse_block(forged, members, backend)  # collusion: sign anyway
        auditor = backend.keypair(b"aud").public
        outcome, report = audit(endorsed, alloc, params, backend, auditor)
        assert not outcome.ok
        assert report is not None
        assert len(report.accused) == 1 + 3  # generator plus 2m+1 endorsers
        assert report.reporters == (auditor,)

    def test_wrong_endorser_set_rejected(self, backend):
        alloc, params, block, members, by_display = self._pipeline(backend)
        imposters = [backend.keypair(f"imp:{i}".encode()) for i in range(3)]
        endorsed = endorse_block(block, imposters, backend)
        outcome = endorsement_verdict(endorsed, alloc, params, backend)
        assert not outcome.ok and outcome.reason == REASON_BAD_ENDORSEMENT

    def test_short_endorsement_rejected(self, backend):
        alloc, params, block, members, _ = self._pipeline(backend)
        endorsed = endorse_block(block, members[:2], backend)
        outcome = endorsement_verdict(endorsed, alloc, params, backend)
        assert not outcome.ok and outcome.reason == REASON_BAD_ENDORSEMENT

    def test_held_verifier_set_is_the_expected_set(self, backend):
        alloc, params, block, members, _ = self._pipeline(backend)
        endorsed = endorse_block(block, members, backend)
        held = expected_verifier_set(block, alloc, params)
        assert verify_endorsements(endorsed, held, backend).ok
        # the check reads the held set: handed the (disjoint) validator set, it
        # rejects the right endorsers
        wrong = select_validator_set(block.digest, alloc, params)
        outcome = verify_endorsements(endorsed, wrong, backend)
        assert not outcome.ok and outcome.reason == REASON_BAD_ENDORSEMENT


class TestTally:
    def test_two_dishonest_outvoted_by_three_honest(self, backend):
        # m=2: five verifiers; a forged block signed by its generator, two
        # colluders vote valid and the three honest members reject it.
        kps = make_keypairs(backend, 12, "tl")
        alloc = build_allocation([kp.public for kp in kps])
        by_display = {kp.public.display: kp for kp in kps}
        params = SetParams(n=1, m=2, num_validators=12)
        generator = by_display[alloc.validators[3].display]
        forged_tx = create_transaction(kps[8], b"pay", backend)
        forged_tx = dataclasses.replace(forged_tx, signature=b"\x00" * 32)
        forged_tx = dataclasses.replace(forged_tx, id=transaction_id(forged_tx))
        forged = grind_block(generator, "", [forged_tx], alloc, backend)
        verifier_set = expected_verifier_set(forged, alloc, params)
        members = [by_display[pk.display] for pk in verifier_set.members]
        # pick colluders listed against display order, so set order is what counts
        i, j = next(
            (i, j)
            for i in range(len(members))
            for j in range(i + 1, len(members))
            if members[i].public.display > members[j].public.display
        )
        dishonest = frozenset({members[i].public.raw, members[j].public.raw})
        verdicts = vote(forged, members, alloc, backend, dishonest)
        endorsed, report = tally_endorsement(forged, verdicts, backend, dishonest)
        assert endorsed is None
        assert report.accused == (generator.public, members[i].public, members[j].public)
        honest = [kp.public for k, kp in enumerate(members) if k not in (i, j)]
        assert report.reporters == tuple(honest)
        assert report.reason == REASON_BAD_SIGNATURE
        assert report.item_digest == block_digest(forged)


class TestValidatorSetForBlock:
    def test_wings_surround_generator(self, backend):
        kps = make_keypairs(backend, 10, "vw")
        alloc = build_allocation([kp.public for kp in kps])
        by_display = {kp.public.display: kp for kp in kps}
        params = SetParams(n=2, m=1, num_validators=10)
        generator = by_display[alloc.validators[4].display]
        tx = create_transaction(kps[0], b"x", backend)
        block = grind_block(generator, "", [tx], alloc, backend)
        vset = validator_set_for_block(block, alloc, params)
        positions = sorted(alloc.position_of(pk) for pk in vset.members)
        assert positions == [2, 3, 4, 5, 6]
        assert vset.main == generator.public


def test_main_validator_frequency_tracks_range_sizes(backend):
    # distribution sanity over 10,000 random digests: each validator's
    # main-selection frequency stays within 5% of its range-share.
    pks = [backend.keypair(f"freq:{i}".encode()).public for i in range(10)]
    alloc = build_allocation(pks)
    rng = random.Random(0)
    counts = [0] * 10
    for _ in range(10_000):
        counts[alloc.owner_index(msch(digest(rng.randbytes(16))))] += 1
    for count, rng_ in zip(counts, alloc.ranges):
        expected = 10_000 * rng_.size / 62
        assert abs(count - expected) / expected < 0.05
