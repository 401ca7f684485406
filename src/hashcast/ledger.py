"""Per-validator pools and ledgers, and block commitment.

Each range owner of an epoch's allocation pools the verified transactions
whose digests fall in its range and keeps its own chain of blocks, whose
digests it grinds into that range.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

from .core import (
    Block,
    KeyPair,
    PublicKey,
    Transaction,
    NONCE_BYTES,
    base62_digest,
    block_digest,  # noqa: F401 (re-exported as ledger.block_digest)
    block_tail,
    head_parts,
    make_block,
    msch_index,
    serialize_body,
    unsigned_header,
)
from .verification import VerificationOutcome
from .weights import RangeAllocation

# Safety valve for digest grinding; at most 62 range slots exist, so the
# expected tries are tiny and this bound is never hit in practice.
MAX_COMMIT_TRIES = 200_000


class PendingPool:
    """Verified transactions waiting for commitment, in arrival order."""

    def __init__(self, owner: PublicKey, alloc: RangeAllocation):
        self.owner = owner
        self.alloc = alloc
        self._txs: dict[str, Transaction] = {}  # by id, in arrival order

    def __len__(self) -> int:
        return len(self._txs)

    def add(self, tx: Transaction) -> bool:
        """Accept a verified transaction if it falls in the owner's range."""
        if self.alloc.range_of(tx.id).raw != self.owner.raw:
            return False
        if tx.id in self._txs:
            return False
        self._txs[tx.id] = tx
        return True

    def take(self, count: int) -> list[Transaction]:
        return [self._txs.pop(tx_id) for tx_id in list(self._txs)[:count]]


class Ledger:
    """One range owner's chain under one allocation: `head_digest` is the last block
    appended, `tip` the last one its owner sent, which its next block links to."""

    def __init__(self, owner: PublicKey):
        self.owner = owner
        self.blocks: list[Block] = []
        self.tip = ""

    @property
    def head_digest(self) -> str:
        return self.blocks[-1].digest if self.blocks else ""

    def append_block(
        self, block: Block, endorsement_verdict: VerificationOutcome
    ) -> VerificationOutcome:
        """Append iff the block links to the head and its endorsements verify.

        `endorsement_verdict` is the caller's `verify_endorsements` verdict
        on the block, the gate for a fully endorsed block, whose
        transactions are not verified again; a broadcast-mode chain, which
        has no endorsements, passes `VerificationOutcome.valid()`.  The
        chain-link check comes first, so its rejection wins.  A block
        already in the chain never links to the head again, so a replay is
        `broken-chain`.
        """
        if block.previous_digest != self.head_digest:
            return VerificationOutcome.invalid("broken-chain")
        if endorsement_verdict.ok:
            self.blocks.append(block)
        return endorsement_verdict


def commit_transactions(
    keypair: KeyPair,
    pool: PendingPool,
    block_size: int,
    alloc: RangeAllocation,
    backend,
    previous_digest: str,
    allow_partial: bool = False,
) -> Optional[Block]:
    """Cut a block from the pool once enough transactions are waiting.

    The block's digest must start inside the committer's own range, so the
    nonce is ground until it does.  Returns None when the pool is too small
    (unless `allow_partial`, used to flush remainders at an epoch boundary).
    """
    if len(pool) < block_size and not (allow_partial and len(pool) > 0):
        return None
    txs = pool.take(min(block_size, len(pool)))
    return grind_block(keypair, previous_digest, txs, alloc, backend)


def grind_block(
    keypair: KeyPair,
    previous_digest: str,
    txs: Sequence[Transaction],
    alloc: RangeAllocation,
    backend,
) -> Block:
    """Try nonces until the block digest starts inside the signer's own range.

    Only the nonce and signature change between tries, so the head's prefix
    (`head_parts`) is hashed once per block and a try hashes only what
    follows it and reads the first digest symbol alone (`msch_index`).  The
    winning block keeps that hash as its digest, so its content is not
    hashed again.
    """
    own_range = alloc.range_for(keypair.public)
    secret, sign = keypair.secret, backend.sign
    header = unsigned_header(keypair.public, previous_digest, txs)
    tail = block_tail(serialize_body(txs))
    signature_length = -1
    for nonce in range(MAX_COMMIT_TRIES):
        nonce_bytes = nonce.to_bytes(NONCE_BYTES, "big")
        signature = sign(secret, header + nonce_bytes)
        if len(signature) != signature_length:  # the lead and padding depend on it
            signature_length = len(signature)
            prefix, lead, padding = head_parts(keypair.public, header, signature_length)
            prefix_state, rest = hashlib.sha256(prefix), padding + tail
        hasher = prefix_state.copy()
        hasher.update(nonce_bytes + lead + signature)
        hasher.update(rest)
        sha256 = hasher.digest()
        if msch_index(sha256) in own_range:
            block = make_block(keypair, previous_digest, txs, nonce, backend)
            # make_block signs the same header: the hashed head and tail are its content
            object.__setattr__(block, "digest", base62_digest(sha256))
            return block
    raise RuntimeError(f"no nonce below {MAX_COMMIT_TRIES} lands the digest in the signer's range")


def export_ledger_lines(ledgers: Sequence[Ledger]) -> list[str]:
    """Line-delimited ledger dump: digest, generator, tx count, endorsers."""
    lines = []
    for ledger in ledgers:
        for block in ledger.blocks:
            endorsers = ",".join(end.verifier.display[:8] for end in block.endorsements)
            lines.append(
                f"{block.digest} {ledger.owner.display[:8]} "
                f"{len(block.transactions)} [{endorsers}]"
            )
    return lines
