"""Validator/verifier set selection and transaction/block verification.

The validator set for a transaction is the range owner of the transaction
digest's first symbol plus `n` ring successors and predecessors.  The
verifier set for a block is picked the same way from the block digest, with
one twist: if the candidate set would overlap the block's validator set, the
main verifier is relocated a fixed offset after the validator-set main so the
two sets never share a node.

A transaction is valid only if its sender signed it and its id is the
digest of its content (`Transaction.content_id`), so an id always stands
for one content: a block's signed header lists only the ids.

Verdicts are shared within a run: every node that checks the same item
reads one verdict.  `verify_transaction` and `verify_block` take a
`signatures` map that holds each transaction's signature verdict, keyed on
the whole transaction: a key is hashed by its id alone but compared field
by field, so a copy that differs in any field gets its own entry and is
checked afresh.
The later checks take the verdicts their callers hold as plain arguments:
`verify_endorsements` the block's verifier set, `tally_endorsement` every
member's vote, and `audit_endorsed_block` the auditor's verdict on the
endorsed copy.  Accusations come from those verdicts alone: a rejected block
accuses its generator and every member that voted it valid, since honest
members all read one shared verdict, and a failed audit accuses the
generator and every endorser.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import MutableMapping, Optional, Sequence

from .core import (
    Block,
    KeyPair,
    PublicKey,
    Transaction,
    block_header_bytes,
    endorsement_for,
    transaction_signing_bytes,
)
from .weights import RangeAllocation

REASON_BAD_SIGNATURE = "bad-signature"
REASON_ID_MISMATCH = "id-mismatch"
REASON_RANGE_MISMATCH = "range-mismatch"
REASON_BAD_ENDORSEMENT = "bad-endorsement"


@dataclass(frozen=True)
class SetParams:
    """Wing sizes for the two sets over a ring of `num_validators` nodes.

    `n` is the validator wing, `m` the verifier wing.  Besides the basic
    n <= N/4 bound, the ring must be large enough that the relocated verifier
    set cannot wrap back into the validator set: N > 3n+m when n > m, and
    N > 3n+2m otherwise.
    """

    n: int
    m: int
    num_validators: int

    def __post_init__(self):
        n, m, total = self.n, self.m, self.num_validators
        if n < 1:
            raise ValueError("n must be at least 1")
        if m < 0:
            raise ValueError("m must be non-negative")
        if n > m and total <= 3 * n + m:
            raise ValueError(
                f"n={n}, m={m} requires num_validators > 3n+m = {3 * n + m}, got {total}"
            )
        if n <= m and total <= 3 * n + 2 * m:
            raise ValueError(
                f"n={n}, m={m} requires num_validators > 3n+2m = {3 * n + 2 * m}, got {total}"
            )
        if 4 * n > total:
            raise ValueError(f"n={n} violates n <= num_validators/4 for N={total}")


@dataclass(frozen=True)
class NodeSet:
    """A validator or verifier set; `relocated` marks a moved verifier set."""

    main: PublicKey
    members: tuple[PublicKey, ...]  # predecessors + main + successors
    relocated: bool = False

    @cached_property
    def member_keys(self) -> frozenset[bytes]:
        return frozenset(pk.raw for pk in self.members)


@dataclass(frozen=True)
class VerificationOutcome:
    ok: bool
    reason: Optional[str] = None

    @classmethod
    def valid(cls) -> "VerificationOutcome":
        return _VALID

    @classmethod
    def invalid(cls, reason: str) -> "VerificationOutcome":
        return cls(ok=False, reason=reason)


_VALID = VerificationOutcome(ok=True)  # frozen, so every valid verdict can share it


@dataclass(frozen=True)
class MisbehaviorReport:
    """Broadcast accusation naming the nodes behind an invalid item."""

    kind: str  # "block-rejected" | "audit"
    item_digest: str
    reason: str
    accused: tuple[PublicKey, ...]


def ring_members(alloc: RangeAllocation, center: int, wing: int) -> list[PublicKey]:
    """Ring node `center` with `wing` predecessors and successors, wrapping."""
    ring = alloc.validators
    total = len(ring)
    positions = [(center + off) % total for off in range(-wing, wing + 1)]
    return [ring[p] for p in positions]


def select_validator_set(
    d: str, alloc: RangeAllocation, params: SetParams
) -> NodeSet:
    """Main validator = range owner of the digest's first symbol, plus wings."""
    center = alloc.owner_index(d)
    members = ring_members(alloc, center, params.n)
    return NodeSet(main=alloc.validators[center], members=tuple(members))


def verifier_offset(params: SetParams) -> int:
    """Ring offset of a relocated main verifier from the validator-set main."""
    if params.n > params.m:
        return 2 * params.n
    return 2 * params.n + params.m


def select_verifier_set(
    d: str, alloc: RangeAllocation, params: SetParams, vset: NodeSet
) -> NodeSet:
    """Verifier set for a block digest, never overlapping the validator set."""
    validator_keys = vset.member_keys
    candidate = alloc.owner_index(d)
    members = ring_members(alloc, candidate, params.m)
    relocated = not validator_keys.isdisjoint(pk.raw for pk in members)
    if relocated:
        candidate = (alloc.position_of(vset.main) + verifier_offset(params)) % len(
            alloc.validators
        )
        members = ring_members(alloc, candidate, params.m)
    assert validator_keys.isdisjoint(pk.raw for pk in members), "sets must never overlap"
    return NodeSet(main=alloc.validators[candidate], members=tuple(members), relocated=relocated)


def expected_verifier_set(
    block: Block, alloc: RangeAllocation, params: SetParams
) -> NodeSet:
    """A block's verifier set; its validator set is the wings around its generator."""
    members = ring_members(alloc, alloc.position_of(block.generator), params.n)
    vset = NodeSet(main=block.generator, members=tuple(members))
    return select_verifier_set(block.digest, alloc, params, vset)


def verify_transaction(
    tx: Transaction,
    backend,
    signatures: Optional[MutableMapping[Transaction, bool]] = None,
) -> VerificationOutcome:
    """Check the sender signature and that the id is the content's.

    With `signatures`, the signature verdict is read from it, or checked and
    stored there on a miss.  A transaction whose id is not its content's
    (`Transaction.content_id`) is never stored, so a stored valid verdict
    vouches for the id too.
    """
    ok = None if signatures is None else signatures.get(tx)
    if ok is None:
        signing = transaction_signing_bytes(tx.sender, tx.payload)
        ok = backend.verify(tx.sender, signing, tx.signature)
        if ok and tx.id != tx.content_id:
            return VerificationOutcome.invalid(REASON_ID_MISMATCH)
        if signatures is not None:
            signatures[tx] = ok
    if not ok:
        return VerificationOutcome.invalid(REASON_BAD_SIGNATURE)
    return _VALID


def verify_block(
    block: Block,
    alloc: RangeAllocation,
    backend,
    signatures: Optional[MutableMapping[Transaction, bool]] = None,
) -> VerificationOutcome:
    """Header signature, generator range ownership, then every transaction."""
    if not backend.verify(block.generator, block_header_bytes(block), block.signature):
        return VerificationOutcome.invalid(REASON_BAD_SIGNATURE)
    if alloc.range_of(block.digest).raw != block.generator.raw:
        return VerificationOutcome.invalid(REASON_RANGE_MISMATCH)
    for tx in block.transactions:
        outcome = verify_transaction(tx, backend, signatures)
        if not outcome.ok:
            return outcome
    return VerificationOutcome.valid()


def verify_endorsements(block: Block, expected: NodeSet, backend) -> VerificationOutcome:
    """Full endorsement check: count, set membership, and signatures.

    `expected` is the block's verifier set, `expected_verifier_set` under
    the allocation the block was cut in; its 2m+1 members must each have
    signed the block digest once.
    """
    if len(block.endorsements) != len(expected.members):
        return VerificationOutcome.invalid(REASON_BAD_ENDORSEMENT)
    endorser_keys = {end.verifier.raw for end in block.endorsements}
    if endorser_keys != expected.member_keys:
        return VerificationOutcome.invalid(REASON_BAD_ENDORSEMENT)
    message = block.digest.encode("ascii")
    for end in block.endorsements:
        if not backend.verify(end.verifier, message, end.signature):
            return VerificationOutcome.invalid(REASON_BAD_ENDORSEMENT)
    return VerificationOutcome.valid()


def endorse_block(block: Block, signers: Sequence[KeyPair], backend) -> Block:
    """Attach one endorsement per signer; callers check verdicts first."""
    endorsements = tuple(endorsement_for(block, kp, backend) for kp in signers)
    endorsed = Block(
        block.generator,
        block.previous_digest,
        block.transactions,
        block.nonce,
        block.signature,
        endorsements,
    )
    # The digest covers no endorsement, so the copy keeps the block's.
    object.__setattr__(endorsed, "digest", block.digest)
    return endorsed


def tally_endorsement(
    block: Block,
    verdicts: Sequence[tuple[KeyPair, VerificationOutcome]],
    backend,
) -> tuple[Optional[Block], Optional[MisbehaviorReport]]:
    """Endorse or accuse once every verifier-set member has voted.

    `verdicts` holds one vote per member, in verifier-set order.  The block
    is endorsed only if every vote is valid; otherwise the report names the
    generator and every member that voted valid, with the first rejector's
    reason.
    """
    reasons = [outcome.reason for _, outcome in verdicts if not outcome.ok]
    if not reasons:
        return endorse_block(block, [kp for kp, _ in verdicts], backend), None
    false_claimers = [kp.public for kp, outcome in verdicts if outcome.ok]
    return None, MisbehaviorReport(
        kind="block-rejected",
        item_digest=block.digest,
        reason=reasons[0],
        accused=tuple([block.generator] + false_claimers),
    )


def audit_endorsed_block(
    block: Block, outcome: VerificationOutcome
) -> Optional[MisbehaviorReport]:
    """The auditor's report on an endorsed block it judged `outcome`, or None if valid.

    `outcome` is the block's `verify_block` verdict or, once that passes,
    its `verify_endorsements` verdict.  An invalid one accuses the generator
    and every endorser.
    """
    if outcome.ok:
        return None
    accused = tuple([block.generator] + [end.verifier for end in block.endorsements])
    return MisbehaviorReport(
        kind="audit",
        item_digest=block.digest,
        reason=outcome.reason,
        accused=accused,
    )
