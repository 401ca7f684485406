"""Identities, digests, signatures, transactions, and blocks.

Canonical serialization (format version 0x01): every structure starts with
the 1-byte format tag, followed by its fields in declared order, each encoded
as a 4-byte big-endian length prefix plus the raw bytes.  The public key and
signature of a transaction, block header, or endorsement are packed together
into one fixed-size 459-byte credential blob, so byte accounting is identical
for every signature backend.

A block is a head (tag, kind, signed header, generator's credential)
followed by a tail (`block_tail`: length-prefixed body, endorsement count,
endorsements).  Only the nonce and signature in the head change between
grind tries, so `head_parts` splits the head around them.
`transaction_size` and `block_size` give wire sizes by arithmetic.

All types in this module are immutable values; they can be shared freely
between concurrent readers.  `Block.digest` and `Transaction.content_id` are
computed from the value's own content on first read and kept (`block_digest`
and `transaction_id` are the uncached rules); no caller can supply one, so
the cached value always matches the content, and a copy computes its own.
Only code that has just hashed the same content sets one:
`create_transaction`, `ledger.grind_block` (the winning hash) and
`verification.endorse_block` (`block_digest` covers no endorsement).  They
use `object.__setattr__`: writing through `__dict__` would move the
instance's attributes out of inline storage and slow every later read of
them.

`PublicKey` hashes as its raw key and `Transaction` as its id, in constant
time, where the generated hash rebuilds nested field tuples on every call.
`__eq__` stays generated and compares every field, so equal values hash
equal and a copy with the same id but other content is still its own key.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
ALPHABET_INDEX = {ch: i for i, ch in enumerate(ALPHABET)}

# Digest length in base-62 symbols.  32 symbols carry ~190 bits, plenty to
# keep ids unique at simulation scale.
DIGEST_LENGTH = 32

# Serialized size of one public-key + signature pair, the unit of all
# credential byte accounting.
CREDENTIAL_BYTES = 459

FORMAT_TAG = b"\x01"


# Every base-62 symbol pair, least significant symbol first: entry
# lo + 62 * hi is ALPHABET[lo] + ALPHABET[hi].
_SYMBOL_PAIRS = tuple(lo + hi for hi in ALPHABET for lo in ALPHABET)
_PAIR_BASE = len(_SYMBOL_PAIRS)


def digest(content: bytes) -> str:
    """Fixed-length base-62 digest of arbitrary bytes (SHA-256 re-encoded)."""
    return base62_digest(hashlib.sha256(content).digest())


def base62_digest(sha256: bytes) -> str:
    """The digest whose SHA-256 value is `sha256`.

    The symbols are the base-62 digits of the value, least significant
    first; each `divmod` peels off two of them.
    """
    value = int.from_bytes(sha256, "big")
    pairs = []
    for _ in range(DIGEST_LENGTH // 2):
        value, idx = divmod(value, _PAIR_BASE)
        pairs.append(_SYMBOL_PAIRS[idx])
    return "".join(pairs)


def msch_index(sha256: bytes) -> int:
    """Alphabet index of `msch(base62_digest(sha256))`, without the other symbols.

    The least significant base-62 digit comes first, so the first symbol is
    the SHA-256 value mod 62.
    """
    return int.from_bytes(sha256, "big") % len(ALPHABET)


def msch(d: str) -> str:
    """Most significant character of a digest: its first symbol.

    Every selection decision in the protocol keys off this symbol.
    """
    if not d:
        raise ValueError("empty digest has no most significant character")
    return d[0]


@dataclass(frozen=True)
class PublicKey:
    raw: bytes
    display: str  # base-62 digest of the raw key, used in tables and logs

    def __hash__(self) -> int:
        return hash(self.raw)


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    secret: bytes


class SimulatedSigner:
    """Fast keyed-tag scheme for simulation runs.

    A signature is a tag derived from the signer's secret; verification works
    only through the signer registry that maps a public key back to the
    secret it was generated with.  Not real cryptography, but it satisfies
    the same soundness contract: a tag verifies iff it was produced by the
    matching secret over the same message.
    """

    name = "simulated"

    def __init__(self):
        self._secrets: dict[bytes, bytes] = {}

    def keypair(self, seed: bytes) -> KeyPair:
        secret = hashlib.sha256(b"sim-sk" + seed).digest()
        raw = hashlib.sha256(b"sim-pk" + secret).digest()
        self._secrets[raw] = secret
        return KeyPair(public=PublicKey(raw=raw, display=digest(raw)), secret=secret)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        return hashlib.sha256(secret + message).digest()

    def verify(self, public: PublicKey, message: bytes, signature: bytes) -> bool:
        secret = self._secrets.get(public.raw)
        if secret is None:
            return False
        return self.sign(secret, message) == signature


class Ed25519Signer:
    """Real asymmetric backend (Ed25519)."""

    name = "ed25519"

    def keypair(self, seed: bytes) -> KeyPair:
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
        from cryptography.hazmat.primitives.serialization import (
            Encoding,
            PublicFormat,
        )

        secret = hashlib.sha256(b"ed-sk" + seed).digest()
        private = Ed25519PrivateKey.from_private_bytes(secret)
        raw = private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        return KeyPair(public=PublicKey(raw=raw, display=digest(raw)), secret=secret)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        return Ed25519PrivateKey.from_private_bytes(secret).sign(message)

    def verify(self, public: PublicKey, message: bytes, signature: bytes) -> bool:
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

        try:
            Ed25519PublicKey.from_public_bytes(public.raw).verify(signature, message)
            return True
        except (InvalidSignature, ValueError):
            return False


_length = struct.Struct(">I").pack  # a field's 4-byte big-endian length prefix
_CREDENTIAL_LENGTH = _length(CREDENTIAL_BYTES)


def _field(data: bytes) -> bytes:
    return _length(len(data)) + data


def credential_parts(public: PublicKey, signature_length: int) -> tuple[bytes, bytes]:
    """A credential blob's bytes before and after a signature: key and lengths, then zeros."""
    lead = len(public.raw).to_bytes(2, "big") + public.raw + signature_length.to_bytes(2, "big")
    room = CREDENTIAL_BYTES - len(lead) - signature_length
    if room < 0:
        raise ValueError("credential exceeds fixed blob size")
    return lead, bytes(room)


def pack_credential(public: PublicKey, signature: bytes) -> bytes:
    """Pack a PK+signature pair into the fixed 459-byte credential blob."""
    lead, padding = credential_parts(public, len(signature))
    return lead + signature + padding


@dataclass(frozen=True)
class Transaction:
    sender: PublicKey
    payload: bytes
    signature: bytes
    id: str = ""

    def __hash__(self) -> int:
        return hash(self.id)

    @cached_property
    def content_id(self) -> str:
        """The id its content gives (`transaction_id`), computed on first read and kept."""
        return transaction_id(self)


@dataclass(frozen=True)
class Endorsement:
    verifier: PublicKey
    signature: bytes


@dataclass(frozen=True)
class Block:
    generator: PublicKey
    previous_digest: str  # "" for the first block of a ledger
    transactions: tuple[Transaction, ...]
    nonce: int
    signature: bytes  # generator's signature over the header
    endorsements: tuple[Endorsement, ...] = ()

    @cached_property
    def digest(self) -> str:
        """Content digest (`block_digest`), computed on first read and kept."""
        return block_digest(self)


# Fixed leading bytes of each encoding: the format tag and the kind field.
_TX_KIND = FORMAT_TAG + _field(b"tx")
_TXSIGN_KIND = FORMAT_TAG + _field(b"txsign")
_HEADER_KIND = FORMAT_TAG + _field(b"blkhdr")

# The last field of both transaction encodings: a reserved parent field,
# always empty.  Its 4-byte length prefix is in every transaction size, id,
# signature and block digest, so dropping it would change every recorded
# output; that waits for the re-record path of ROADMAP item 2.
_RESERVED_FIELD = _length(0)


def transaction_signing_bytes(sender: PublicKey, payload: bytes) -> bytes:
    """Bytes a sender signs: everything except the id and the credential."""
    return b"".join((
        _TXSIGN_KIND,
        _length(len(sender.raw)), sender.raw,
        _length(len(payload)), payload,
        _RESERVED_FIELD,
    ))  # fmt: skip


def _transaction_parts(
    tx_id: str, sender: PublicKey, signature: bytes, payload: bytes
) -> tuple[bytes, ...]:
    """A transaction's encoding in pieces: the fields `tx`, id, credential, payload, reserved."""
    tid = tx_id.encode("ascii")
    lead, padding = credential_parts(sender, len(signature))
    return (
        _TX_KIND, _length(len(tid)), tid,
        _CREDENTIAL_LENGTH, lead, signature, padding,
        _length(len(payload)), payload,
        _RESERVED_FIELD,
    )  # fmt: skip


def serialize_transaction(tx: Transaction) -> bytes:
    return b"".join(_transaction_parts(tx.id, tx.sender, tx.signature, tx.payload))


# Serialized size of a transaction with an empty id and payload: every other
# field has a fixed size.
_TX_FIXED_BYTES = len(serialize_transaction(Transaction(PublicKey(b"", ""), b"", b"")))


def transaction_size(tx: Transaction) -> int:
    """`len(serialize_transaction(tx))`, without serializing."""
    return _TX_FIXED_BYTES + len(tx.id) + len(tx.payload)


def _id_of(sender: PublicKey, signature: bytes, payload: bytes) -> str:
    """The id rule: the digest of a transaction's encoding with an empty id."""
    return digest(b"".join(_transaction_parts("", sender, signature, payload)))


def transaction_id(tx: Transaction) -> str:
    """The id `tx`'s content gives, computed afresh; `Transaction.content_id` caches it."""
    return _id_of(tx.sender, tx.signature, tx.payload)


def create_transaction(keypair: KeyPair, payload: bytes, backend) -> Transaction:
    signature = backend.sign(keypair.secret, transaction_signing_bytes(keypair.public, payload))
    tx_id = _id_of(keypair.public, signature, payload)
    tx = Transaction(keypair.public, payload, signature, tx_id)
    object.__setattr__(tx, "content_id", tx_id)  # derived from this same content just above
    return tx


NONCE_BYTES = 8

# Format tag and kind field that open every block; built once, not per grind try.
_BLOCK_KIND = FORMAT_TAG + _field(b"blk")


def unsigned_header(
    generator: PublicKey, previous_digest: str, transactions: Sequence[Transaction]
) -> bytes:
    """A block header without its trailing nonce."""
    raw, prev = generator.raw, previous_digest.encode("ascii")
    tx_ids = "".join([tx.id for tx in transactions]).encode("ascii")
    return b"".join((
        _HEADER_KIND,
        _length(len(raw)), raw,
        _length(len(prev)), prev,
        _length(len(tx_ids)), tx_ids,
    ))  # fmt: skip


def signed_header(header: bytes, nonce: int) -> bytes:
    """Bytes a generator signs: a header without its nonce, then the nonce."""
    return header + nonce.to_bytes(NONCE_BYTES, "big")


def block_header_bytes(block: Block) -> bytes:
    header = unsigned_header(block.generator, block.previous_digest, block.transactions)
    return signed_header(header, block.nonce)


def serialize_body(transactions: Sequence[Transaction]) -> bytes:
    """A block body: its transactions serialized in order."""
    parts: list[bytes] = []
    for tx in transactions:
        parts += _transaction_parts(tx.id, tx.sender, tx.signature, tx.payload)
    return b"".join(parts)


def head_parts(generator: PublicKey, header: bytes, sig_length: int) -> tuple[bytes, ...]:
    """The fixed parts of the block head `prefix + nonce + lead + signature + padding`."""
    lead, padding = credential_parts(generator, sig_length)
    prefix = _BLOCK_KIND + _length(len(header) + NONCE_BYTES) + header
    return prefix, _CREDENTIAL_LENGTH + lead, padding


def block_tail(body: bytes, endorsements: Sequence[Endorsement] = ()) -> bytes:
    """A block's bytes from its body on; `body` is `serialize_body(transactions)`."""
    parts = [_length(len(body)), body, _length(len(endorsements))]
    parts.extend(pack_credential(end.verifier, end.signature) for end in endorsements)
    return b"".join(parts)


def _head(block: Block) -> bytes:
    """A block's bytes before its body."""
    header = unsigned_header(block.generator, block.previous_digest, block.transactions)
    prefix, lead, padding = head_parts(block.generator, header, len(block.signature))
    return prefix + block.nonce.to_bytes(NONCE_BYTES, "big") + lead + block.signature + padding


def serialize_block(block: Block) -> bytes:
    return _head(block) + block_tail(serialize_body(block.transactions), block.endorsements)


# Serialized size of a block with an empty generator key, previous digest
# and body and no endorsement: every other field has a fixed size.
_BLOCK_FIXED_BYTES = len(serialize_block(Block(PublicKey(b"", ""), "", (), 0, b"")))


def block_size(block: Block) -> int:
    """`len(serialize_block(block))`, without building any of its bytes.

    The variable parts are the generator key and previous digest in the
    header, each transaction's id in the header and its `transaction_size`
    in the body, and one `CREDENTIAL_BYTES` blob per endorsement.
    """
    size = _BLOCK_FIXED_BYTES + len(block.generator.raw) + len(block.previous_digest)
    size += CREDENTIAL_BYTES * len(block.endorsements)
    return size + sum(len(tx.id) + transaction_size(tx) for tx in block.transactions)


def block_digest(block: Block) -> str:
    """Content digest of a block; endorsements never change it.

    Computes it afresh on every call; `Block.digest` caches it.
    """
    return digest(_head(block) + block_tail(serialize_body(block.transactions)))


def make_block(
    keypair: KeyPair,
    previous_digest: str,
    transactions: Sequence[Transaction],
    nonce: int,
    backend,
) -> Block:
    header = unsigned_header(keypair.public, previous_digest, transactions)
    signature = backend.sign(keypair.secret, signed_header(header, nonce))
    return Block(keypair.public, previous_digest, tuple(transactions), nonce, signature)


def endorsement_for(block: Block, keypair: KeyPair, backend) -> Endorsement:
    signature = backend.sign(keypair.secret, block.digest.encode("ascii"))
    return Endorsement(verifier=keypair.public, signature=signature)
