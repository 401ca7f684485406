"""Per-validator ledgers, the registration window, and block commitment.

Each validator keeps its own chain of blocks whose digests start inside its
validation range.  Range allocation is published by a registration actor
deployed in the genesis block: interested validators register during a fixed
window, and at the window's end the descending-weight allocation is computed
once and becomes the epoch's routing and selection authority.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    Block,
    KeyPair,
    PublicKey,
    Transaction,
    base62_digest,
    block_digest,  # noqa: F401 (re-exported as ledger.block_digest)
    block_head,
    block_tail,
    make_block,
    msch,
    msch_index,
    serialize_body,
    signed_header,
    unsigned_header,
)
from .verification import VerificationOutcome
from .weights import RangeAllocation, build_allocation

# Safety valve for digest grinding; at most 62 range slots exist, so the
# expected tries are tiny and this bound is never hit in practice.
MAX_COMMIT_TRIES = 200_000


@dataclass(frozen=True)
class RegistrationResult:
    accepted: bool
    reason: Optional[str] = None  # "late" | "duplicate" | "excluded"


class RangeDistributor:
    """Genesis-block actor that collects registrations and publishes ranges."""

    def __init__(self, window_end_ms: float, excluded: frozenset[str] = frozenset()):
        self.window_end_ms = window_end_ms
        self.excluded = excluded
        self.registrations: dict[str, PublicKey] = {}

    def register_interest(self, pk: PublicKey, now: float) -> RegistrationResult:
        if now > self.window_end_ms:
            return RegistrationResult(accepted=False, reason="late")
        if pk.display in self.registrations:
            return RegistrationResult(accepted=False, reason="duplicate")
        if pk.display in self.excluded:
            return RegistrationResult(accepted=False, reason="excluded")
        self.registrations[pk.display] = pk
        return RegistrationResult(accepted=True)

    def finalize_allocation(self, now: float) -> RangeAllocation:
        if now < self.window_end_ms:
            raise ValueError("registration window is still open")
        if not self.registrations:
            raise ValueError("no registrations: cannot allocate ranges")
        return build_allocation(self.registrations.values())


class PendingPool:
    """Verified transactions waiting for commitment, in arrival order."""

    def __init__(self, owner: PublicKey, alloc: RangeAllocation):
        self.owner = owner
        self.alloc = alloc
        self._by_id: dict[str, Transaction] = {}
        self._order: list[str] = []

    def __len__(self) -> int:
        return len(self._order)

    def add(self, tx: Transaction) -> bool:
        """Accept a verified transaction if it falls in the owner's range."""
        if self.alloc.range_of(msch(tx.id)).raw != self.owner.raw:
            return False
        if tx.id in self._by_id:
            return False
        self._by_id[tx.id] = tx
        self._order.append(tx.id)
        return True

    def take(self, count: int) -> list[Transaction]:
        taken, self._order = self._order[:count], self._order[count:]
        return [self._by_id.pop(tx_id) for tx_id in taken]


class Ledger:
    def __init__(self, owner: PublicKey):
        self.owner = owner
        self.blocks: list[Block] = []
        self._digests: set[str] = set()

    @property
    def head_digest(self) -> str:
        return self.blocks[-1].digest if self.blocks else ""

    @property
    def ledger_length(self) -> int:
        return len(self.blocks)

    def append_block(
        self, block: Block, endorsement_verdict: VerificationOutcome
    ) -> VerificationOutcome:
        """Append iff the block is new, links to the head, and its endorsements verify.

        `endorsement_verdict` is the caller's `verify_endorsements` verdict
        on the block, the gate for a fully endorsed block, whose
        transactions are not verified again; a broadcast-mode chain, which
        has no endorsements, passes `VerificationOutcome.valid()`.  The
        duplicate and chain-link checks come first, so their rejections win.
        """
        if block.digest in self._digests:
            return VerificationOutcome.invalid("duplicate-block")
        if block.previous_digest != self.head_digest:
            return VerificationOutcome.invalid("broken-chain")
        if endorsement_verdict.ok:
            self.blocks.append(block)
            self._digests.add(block.digest)
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

    The header without its nonce and the block's tail (`block_tail`, which
    serializes the transactions) are built once.  A try signs the header
    with its nonce through `backend.sign`, builds the head (`block_head`),
    hashes head and tail and reads the first digest symbol alone
    (`msch_index`).  Only the winning nonce is built into a `Block`, through
    `make_block`; the block keeps the winning hash as its digest
    (`base62_digest`), so its content is not hashed again.
    """
    own_range = alloc.range_for(keypair.public)
    header = unsigned_header(keypair.public, previous_digest, txs)
    tail = block_tail(serialize_body(txs))
    for nonce in range(MAX_COMMIT_TRIES):
        signed = signed_header(header, nonce)
        head = block_head(keypair.public, signed, backend.sign(keypair.secret, signed))
        hasher = hashlib.sha256(head)
        hasher.update(tail)
        sha256 = hasher.digest()
        if own_range.start <= msch_index(sha256) <= own_range.end:
            block = make_block(keypair, previous_digest, txs, nonce, backend)
            # make_block signs the same header: the hashed head and tail are its content
            block.__dict__["digest"] = base62_digest(sha256)
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
