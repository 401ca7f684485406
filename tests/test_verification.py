import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashcast.core import (
    SimulatedSigner,
    ALPHABET,
    PublicKey,
    Transaction,
    block_digest,
    create_transaction,
    digest,
    make_block,
    msch,
    serialize_block,
    transaction_id,
    transaction_signing_bytes,
)
from hashcast.ledger import grind_block
from hashcast.verification import (
    REASON_BAD_ENDORSEMENT,
    REASON_BAD_SIGNATURE,
    REASON_ID_MISMATCH,
    REASON_RANGE_MISMATCH,
    SetParams,
    VerificationOutcome,
    endorse_block,
    expected_verifier_set,
    select_validator_set,
    select_verifier_set,
    tally_endorsement,
    verifier_offset,
    verify_block,
    verify_endorsements,
    verify_transaction,
)
from hashcast.weights import allocate_ranges, build_allocation
from conftest import audit, endorsement_verdict, make_keypairs
from oracles import in_range


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


@st.composite
def allocations_with_params(draw):
    """A random allocation of 4 to 30 validators, with admissible set parameters."""
    backend = SimulatedSigner()
    count = draw(st.integers(4, 30))
    kps = make_keypairs(backend, count, f"memo:{draw(st.integers(0, 10**6))}")
    n, m = draw(st.sampled_from(admissible_params(count)))
    return backend, kps, build_allocation([kp.public for kp in kps]), SetParams(n, m, count)


class TestSetKeys:
    """A run keys its set memo on what each rule reads: the first digest symbol,
    and for a verifier set also the generator."""

    @given(
        allocations_with_params(),
        st.sampled_from(ALPHABET),
        st.text(ALPHABET, max_size=50),
        st.text(ALPHABET, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_validator_set_reads_only_the_first_symbol(self, drawn, symbol, tail_a, tail_b):
        _, _, alloc, params = drawn
        assert select_validator_set(symbol + tail_a, alloc, params) == select_validator_set(
            symbol + tail_b, alloc, params
        )

    @given(allocations_with_params(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_verifier_set_reads_only_the_generator_and_first_symbol(self, drawn, data):
        backend, kps, alloc, params = drawn
        generator = data.draw(st.sampled_from(kps))
        tx = create_transaction(kps[0], data.draw(st.binary(max_size=8)), backend)
        previous = data.draw(st.text(ALPHABET, min_size=1, max_size=43))
        # two bodies that differ in their parent link and nonce; find a shared first symbol
        seen_a, seen_b = {}, {}
        for nonce in range(1000):
            a = make_block(generator, "", [tx], nonce, backend)
            b = make_block(generator, previous, [tx], nonce, backend)
            seen_a[msch(a.digest)], seen_b[msch(b.digest)] = a, b
            shared = seen_a.keys() & seen_b.keys()
            if shared:
                break
        symbol = min(shared)
        a, b = seen_a[symbol], seen_b[symbol]
        assert a.digest != b.digest
        assert expected_verifier_set(a, alloc, params) == expected_verifier_set(
            b, alloc, params
        )


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
        # its id is no longer its content's either, but the signature is checked first
        assert not outcome.ok and outcome.reason == REASON_BAD_SIGNATURE


class TestSharedSignatureVerdicts:
    def test_copy_with_same_id_and_signature_is_checked_afresh(self, backend):
        kp = backend.keypair(b"s")
        tx = create_transaction(kp, b"data", backend)
        signatures = {}
        assert verify_transaction(tx, backend, signatures=signatures).ok
        assert signatures == {tx: True}
        forged = dataclasses.replace(tx, payload=b"datb")
        assert hash(forged) == hash(tx) and forged != tx  # same id: one hash, two keys
        outcome = verify_transaction(forged, backend, signatures=signatures)
        assert not outcome.ok and outcome.reason == REASON_BAD_SIGNATURE
        assert signatures == {tx: True, forged: False}

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


class TestTransactionIds:
    """A transaction passes only if its id is the digest of its content."""

    def _signed(self, backend, tx_id):
        """A correctly signed transaction, built by hand with the id `tx_id`."""
        kp, payload = backend.keypair(b"ids"), b"hand-built"
        signature = backend.sign(kp.secret, transaction_signing_bytes(kp.public, payload))
        return Transaction(kp.public, payload, signature, tx_id)

    def test_hand_built_transaction_is_judged_by_its_content(self, any_backend):
        unnamed = self._signed(any_backend, "")
        named = self._signed(any_backend, unnamed.content_id)
        assert named.content_id == transaction_id(named) == transaction_id(unnamed)
        assert verify_transaction(named, any_backend).ok
        for tx in (unnamed, dataclasses.replace(named, id=digest(b"another"))):
            outcome = verify_transaction(tx, any_backend)
            assert not outcome.ok and outcome.reason == REASON_ID_MISMATCH

    def test_renamed_copy_is_rejected_and_never_stored(self, any_backend):
        kp = any_backend.keypair(b"ids")
        tx = create_transaction(kp, b"data", any_backend)
        renamed = dataclasses.replace(tx, id=digest(b"another"))
        assert renamed.content_id == tx.id != renamed.id
        signatures = {}
        assert verify_transaction(tx, any_backend, signatures=signatures).ok
        for _ in range(2):  # a stored verdict would vouch for the id too
            outcome = verify_transaction(renamed, any_backend, signatures=signatures)
            assert not outcome.ok and outcome.reason == REASON_ID_MISMATCH
        assert signatures == {tx: True}

    def test_block_with_a_renamed_transaction_is_rejected(self, any_backend):
        kps = make_keypairs(any_backend, 2, "ids")
        alloc = build_allocation([kps[0].public])  # one owner: every digest is in range
        tx = create_transaction(kps[1], b"x", any_backend)
        renamed = dataclasses.replace(tx, id=digest(b"another"))
        hand_built = self._signed(any_backend, digest(b"another"))
        for bad in (renamed, hand_built):
            block = grind_block(kps[0], "", [tx, bad], alloc, any_backend)
            for signatures in (None, {}):
                outcome = verify_block(block, alloc, any_backend, signatures)
                assert not outcome.ok and outcome.reason == REASON_ID_MISMATCH
        honest = grind_block(kps[0], "", [tx], alloc, any_backend)
        assert verify_block(honest, alloc, any_backend).ok


class TestHashContract:
    """Keys hash by one field but compare field by field; see also
    `TestSharedSignatureVerdicts`, where a same-id copy gets its own entry."""

    def test_equal_values_hash_equal(self, any_backend):
        kp = any_backend.keypair(b"hash")
        tx = create_transaction(kp, b"x", any_backend)
        twin_key = PublicKey(bytes(bytearray(kp.public.raw)), "".join(kp.public.display))
        twin = Transaction(
            twin_key, bytes(bytearray(tx.payload)), bytes(bytearray(tx.signature)), tx.id
        )
        assert twin_key is not kp.public and twin is not tx
        assert twin_key == kp.public and hash(twin_key) == hash(kp.public)
        assert twin == tx and hash(twin) == hash(tx)
        assert {tx: True}[twin]


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
            if in_range(foreign, msch(block_digest(block))):
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
        assert report.accused == (block.generator,)  # every member rejected it

    def test_minority_dishonest_detected(self, backend):
        alloc, params, block, members, _ = self._pipeline(backend)
        forged_tx = dataclasses.replace(block.transactions[0], signature=b"\x00" * 32)
        forged_tx = dataclasses.replace(forged_tx, id=transaction_id(forged_tx))
        forged = dataclasses.replace(block, transactions=(forged_tx,))
        dishonest = frozenset({members[0].public.raw})
        verdicts = vote(forged, members, alloc, backend, dishonest)
        endorsed, report = tally_endorsement(forged, verdicts, backend)
        assert endorsed is None
        assert report.accused == (forged.generator, members[0].public)

    def test_auditor_revalidates_endorsed_block(self, backend):
        alloc, params, block, members, by_display = self._pipeline(backend)
        endorsed, _ = tally_endorsement(block, vote(block, members, alloc, backend), backend)
        outcome, report = audit(endorsed, alloc, params, backend)
        assert outcome.ok and report is None

    def test_auditor_catches_colluding_endorsers(self, backend):
        alloc, params, block, members, _ = self._pipeline(backend)
        forged_tx = dataclasses.replace(block.transactions[0], signature=b"\x11" * 32)
        forged_tx = dataclasses.replace(forged_tx, id=transaction_id(forged_tx))
        forged = dataclasses.replace(block, transactions=(forged_tx,))
        endorsed = endorse_block(forged, members, backend)  # collusion: sign anyway
        outcome, report = audit(endorsed, alloc, params, backend)
        assert not outcome.ok
        assert report.kind == "audit"
        # generator plus 2m+1 endorsers
        assert report.accused == (forged.generator, *[kp.public for kp in members])

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
        endorsed, report = tally_endorsement(forged, verdicts, backend)
        assert endorsed is None
        assert report.accused == (generator.public, members[i].public, members[j].public)
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
        # the digest lands in the generator's range, so the set is relocated
        # verifier_offset(params) past the generator, clear of its wings 2..6
        verifiers = expected_verifier_set(block, alloc, params)
        main = (4 + verifier_offset(params)) % 10
        assert verifiers.relocated and alloc.position_of(verifiers.main) == main
        positions = {alloc.position_of(pk) for pk in verifiers.members}
        assert positions == {(main + off) % 10 for off in (-1, 0, 1)}
        assert positions.isdisjoint(range(2, 7))


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
        expected = 10_000 * (rng_.end - rng_.start + 1) / 62
        assert abs(count - expected) / expected < 0.05
