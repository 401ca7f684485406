import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashcast.core import (
    ALPHABET,
    CREDENTIAL_BYTES,
    DIGEST_LENGTH,
    NONCE_BYTES,
    Block,
    Ed25519Signer,
    SimulatedSigner,
    block_digest,
    block_size,
    create_transaction,
    digest,
    endorsement_for,
    head_parts,
    make_block,
    msch,
    msch_index,
    pack_credential,
    serialize_block,
    serialize_body,
    serialize_transaction,
    transaction_id,
    transaction_signing_bytes,
    transaction_size,
    unsigned_header,
)
from hashcast.verification import endorse_block
from conftest import make_keypairs
from oracles import (
    base62_digest,
    block_wire_bytes,
    transaction_signing_wire_bytes,
    transaction_wire_bytes,
)


class TestDigest:
    def test_deterministic(self):
        for payload in (b"", b"a", b"hello world", bytes(range(256))):
            assert digest(payload) == digest(payload)

    def test_distinct_inputs(self):
        assert digest(b"a") != digest(b"b")

    def test_fixed_length_and_alphabet(self):
        rng = random.Random(42)
        for _ in range(1000):
            d = digest(rng.randbytes(rng.randrange(0, 64)))
            assert len(d) == DIGEST_LENGTH == 32
            assert all(ch in ALPHABET for ch in d)

    @given(st.binary(max_size=128))
    @settings(max_examples=200, deadline=None)
    def test_length_property(self, payload):
        assert len(digest(payload)) == 32

    @given(st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_matches_one_symbol_divmod_oracle(self, payload):
        assert digest(payload) == base62_digest(payload)


class TestMsch:
    def test_first_symbol(self):
        assert msch("K23HQ" + "0" * 27) == "K"
        assert msch("0" + "z" * 31) == "0"

    def test_in_alphabet_for_random_digests(self):
        rng = random.Random(7)
        for _ in range(1000):
            assert msch(digest(rng.randbytes(8))) in ALPHABET

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            msch("")

    @given(st.binary(max_size=1024))
    @settings(max_examples=300, deadline=None)
    def test_index_is_first_digest_symbol(self, content):
        assert ALPHABET[msch_index(hashlib.sha256(content).digest())] == msch(digest(content))


class TestSignatures:
    def test_round_trip(self, any_backend):
        kp = any_backend.keypair(b"alice")
        sig = any_backend.sign(kp.secret, b"message")
        assert any_backend.verify(kp.public, b"message", sig)

    def test_tampered_message(self, any_backend):
        kp = any_backend.keypair(b"alice")
        sig = any_backend.sign(kp.secret, b"message")
        assert not any_backend.verify(kp.public, b"message!", sig)

    def test_wrong_key(self, any_backend):
        alice = any_backend.keypair(b"alice")
        bob = any_backend.keypair(b"bob")
        sig = any_backend.sign(alice.secret, b"message")
        assert not any_backend.verify(bob.public, b"message", sig)

    def test_malformed_signature_returns_false(self, any_backend):
        kp = any_backend.keypair(b"alice")
        assert not any_backend.verify(kp.public, b"message", b"\x00\x01garbage")

    def test_keys_unique_per_seed(self, any_backend):
        a = any_backend.keypair(b"one")
        b = any_backend.keypair(b"two")
        assert a.public.raw != b.public.raw
        assert a.public.display != b.public.display


class TestCredentialAccounting:
    def test_credential_size(self):
        assert CREDENTIAL_BYTES == 459

    def test_endorsement_overhead_three_verifiers(self):
        assert 3 * CREDENTIAL_BYTES == 1377

    def test_endorsement_overhead_single(self):
        assert 1 * CREDENTIAL_BYTES == 459


class TestTransactionSerialization:
    def test_id_matches_content_digest(self, backend):
        kp = backend.keypair(b"sender")
        tx = create_transaction(kp, b"data", backend)
        assert tx.id == transaction_id(tx)

    def test_payload_510_gives_1kb_transaction(self, backend):
        kp = backend.keypair(b"sender")
        tx = create_transaction(kp, bytes(510), backend)
        assert len(serialize_transaction(tx)) == 1024

    def test_id_changes_with_any_field(self, backend):
        rng = random.Random(3)
        kp, other = make_keypairs(backend, 2, "mut")
        for _ in range(25):
            payload = rng.randbytes(rng.randrange(1, 80))
            tx = create_transaction(kp, payload, backend)
            mutants = [
                dataclasses.replace(tx, payload=payload + b"x"),
                dataclasses.replace(tx, signature=tx.signature[:-1] + b"\x00"),
                dataclasses.replace(tx, sender=other.public),
            ]
            for mutant in mutants:
                assert transaction_id(mutant) != tx.id

    @given(
        backend=st.sampled_from([SimulatedSigner(), Ed25519Signer()]),
        payload=st.binary(max_size=600),
    )
    @settings(max_examples=100, deadline=None)
    def test_created_id_is_the_id_rule(self, backend, payload):
        kp = backend.keypair(b"sender")
        tx = create_transaction(kp, payload, backend)
        assert (tx.sender, tx.payload) == (kp.public, payload)
        assert tx.id == transaction_id(tx)
        # the rule itself: the digest of the serialization with an empty id
        assert tx.id == digest(serialize_transaction(dataclasses.replace(tx, id="")))

    def test_immutability(self, backend):
        kp = backend.keypair(b"sender")
        tx = create_transaction(kp, b"data", backend)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tx.payload = b"other"


class TestReferenceEncoders:
    """The one-join encoders against the README's rule, one length-prefixed field at a time."""

    SIZES = (0, 1, 510, 4096)

    def _transactions(self, backend):
        kp = backend.keypair(b"reference")
        return [
            create_transaction(kp, random.Random(size).randbytes(size), backend)
            for size in self.SIZES
        ]

    def test_each_encoder_matches_the_field_rule(self, any_backend):
        for tx in self._transactions(any_backend):
            wire = transaction_wire_bytes(tx)
            assert serialize_transaction(tx) == wire
            assert transaction_size(tx) == len(wire)
            signing = transaction_signing_bytes(tx.sender, tx.payload)
            assert signing == transaction_signing_wire_bytes(tx)
            last_fields = len(tx.payload).to_bytes(4, "big") + tx.payload + bytes(4)
            assert wire.endswith(last_fields) and signing.endswith(last_fields)  # reserved, empty
            assert any_backend.verify(tx.sender, signing, tx.signature)
            assert transaction_id(tx) == tx.id == base62_digest(transaction_wire_bytes(tx, ""))

    def test_body_is_the_transactions_in_order(self, any_backend):
        txs = self._transactions(any_backend)
        assert serialize_body(txs) == b"".join(map(transaction_wire_bytes, txs))
        assert serialize_body([]) == b""


class TestWireSizes:
    @given(
        backend=st.sampled_from([SimulatedSigner(), Ed25519Signer()]),
        txs=st.lists(st.binary(max_size=600), max_size=50),
        chained=st.booleans(),
        endorsers=st.integers(0, 5),
        nonce=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_sizes_match_serialized_lengths(self, backend, txs, chained, endorsers, nonce):
        kps = make_keypairs(backend, 6, "size")
        parent = digest(b"parent")
        transactions = [
            create_transaction(kps[i % 6], payload, backend) for i, payload in enumerate(txs)
        ]
        for tx in transactions:
            assert transaction_size(tx) == len(serialize_transaction(tx))
        block = make_block(kps[0], parent if chained else "", transactions, nonce, backend)
        endorsements = tuple(endorsement_for(block, kp, backend) for kp in kps[1 : 1 + endorsers])
        block = dataclasses.replace(block, endorsements=endorsements)
        assert block_size(block) == len(serialize_block(block))
        assert serialize_block(block) == block_wire_bytes(block, endorsements)
        assert block_digest(block) == base62_digest(block_wire_bytes(block, ()))

    def test_credential_overflow_raises(self, any_backend):
        public = any_backend.keypair(b"overflow").public
        room = CREDENTIAL_BYTES - 4 - len(public.raw)
        assert len(pack_credential(public, bytes(room))) == CREDENTIAL_BYTES
        with pytest.raises(ValueError, match="credential"):
            pack_credential(public, bytes(room + 1))


class TestBlockSerialization:
    def _block(self, backend, nonce=0):
        kps = make_keypairs(backend, 3, "blk")
        txs = [create_transaction(kp, b"p" + bytes([i]), backend) for i, kp in enumerate(kps)]
        return make_block(kps[0], "", txs, nonce, backend), kps

    def test_digest_stable_under_endorsements(self, backend):
        block, kps = self._block(backend)
        from hashcast.core import endorsement_for

        endorsed = dataclasses.replace(
            block, endorsements=(endorsement_for(block, kps[1], backend),)
        )
        assert block_digest(endorsed) == block_digest(block)

    def test_digest_changes_with_fields(self, backend):
        block, kps = self._block(backend)
        variants = [
            dataclasses.replace(block, nonce=block.nonce + 1),
            dataclasses.replace(block, previous_digest=digest(b"other")),
            dataclasses.replace(block, transactions=block.transactions[:-1]),
        ]
        for variant in variants:
            assert block_digest(variant) != block_digest(block)

    def test_serialized_size_grows_by_credential_per_endorsement(self, backend):
        block, kps = self._block(backend)
        from hashcast.core import endorsement_for

        base = len(serialize_block(block))
        for count in (1, 2, 3):
            endorsed = dataclasses.replace(
                block,
                endorsements=tuple(
                    endorsement_for(block, kp, backend) for kp in kps[:count]
                ),
            )
            assert len(serialize_block(endorsed)) - base == 459 * count

    def test_cached_digest_matches_content(self, backend):
        block, kps = self._block(backend)
        assert block.digest == block_digest(block)
        endorsed = endorse_block(block, kps[1:], backend)
        assert endorsed.digest == block_digest(endorsed) == block.digest
        replaced = dataclasses.replace(block, endorsements=endorsed.endorsements)
        assert replaced.digest == block_digest(replaced) == block.digest
        renonced = dataclasses.replace(block, nonce=block.nonce + 1)
        assert renonced.digest == block_digest(renonced) != block.digest

    def test_endorsed_copy_keeps_digest(self, backend, monkeypatch):
        import hashcast.core

        block, kps = self._block(backend)
        expected = block.digest
        calls = []
        monkeypatch.setattr(hashcast.core, "block_digest", lambda b: calls.append(b))
        endorsed = endorse_block(block, kps[1:], backend)
        assert endorsed.digest == expected
        assert calls == []
        monkeypatch.undo()
        assert endorsed.digest == block_digest(endorsed)

    def test_digest_cannot_be_passed_in(self, backend):
        block, kps = self._block(backend)
        with pytest.raises(TypeError):
            Block(
                generator=block.generator,
                previous_digest="",
                transactions=block.transactions,
                nonce=0,
                signature=block.signature,
                digest="0" * 32,
            )
        with pytest.raises(TypeError):
            dataclasses.replace(block, digest="0" * 32)

    def test_head_parts_frame_nonce_and_signature(self, any_backend):
        block, kps = self._block(any_backend, nonce=7)
        header = unsigned_header(block.generator, block.previous_digest, block.transactions)
        nonce = block.nonce.to_bytes(NONCE_BYTES, "big")
        prefix, lead, padding = head_parts(block.generator, header, len(block.signature))
        head = prefix + nonce + lead + block.signature + padding
        assert block_wire_bytes(block, ()).startswith(head)

    def test_header_signature_round_trip(self, backend):
        block, kps = self._block(backend)
        from hashcast.core import block_header_bytes

        assert backend.verify(kps[0].public, block_header_bytes(block), block.signature)


def test_simulated_and_real_backends_share_contract():
    for backend in (SimulatedSigner(),):
        kp = backend.keypair(b"contract")
        tx = create_transaction(kp, b"payload", backend)
        assert tx.id == transaction_id(tx)
