"""Symbol weighting, validator ordering, and the range partition of the alphabet.

Validators are ranked by a repeat-attenuated character-weight sum over the
digest of their public key, then the 62-symbol alphabet is split into
contiguous validation ranges following that ranking.  The ranking order also
defines the ring used for successor/predecessor navigation.

All arithmetic is exact (rationals), so the ordering never depends on float
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .core import ALPHABET, ALPHABET_INDEX, PublicKey, msch

# Character weights: a-z -> 0..25, A-Z -> 26..51, 0-9 -> 52..61 (the
# alphabet with its digits moved to the end).
WEIGHT_DICTIONARY = {ch: i for i, ch in enumerate(ALPHABET[10:] + ALPHABET[:10])}

SLOTS = len(ALPHABET)  # range slots: a range is a span of a digest's first symbol

# Repeated occurrences of a symbol are attenuated by this factor per repeat.
REPEAT_ATTENUATION = Fraction(1, 5)


@lru_cache(maxsize=65536)
def kwm(d: str) -> Fraction:
    """Key weight metric: attenuated weight sum over a digest.

    The attenuation exponent for each position is the number of occurrences
    of that symbol strictly before the position, so the first occurrence
    always carries full weight and the metric can be accumulated in one pass.
    """
    seen: dict[str, int] = {}
    total = Fraction(0)
    for symbol in d:
        repeats = seen.get(symbol, 0)
        total += WEIGHT_DICTIONARY[symbol] * REPEAT_ATTENUATION**repeats
        seen[symbol] = repeats + 1
    return total


def _digest_sort_key(display: str) -> tuple[int, ...]:
    return tuple(ALPHABET_INDEX[ch] for ch in display)


def order_validators(pks: Sequence[PublicKey]) -> list[PublicKey]:
    """Descending key-weight ordering of validators.

    Ties are broken by comparing the key digests in alphabet order, so the
    result is a pure function of the key set.
    """
    if len({pk.raw for pk in pks}) != len(pks):
        raise ValueError("duplicate public keys in validator list")
    return sorted(pks, key=lambda pk: (-kwm(pk.display), _digest_sort_key(pk.display)))


@dataclass(frozen=True)
class RangeAllocation:
    """Finalized mapping of validators to validation ranges.

    `validators` is the descending key-weight list; each range is a `range`
    of alphabet positions, assigned contiguously in that order, so position
    0 owns the earliest symbols.  Lookups read two tables built once per
    allocation: each symbol's owner position, and each raw key's position.
    """

    validators: tuple[PublicKey, ...]
    ranges: tuple[range, ...]
    _owners: dict[str, int] = field(init=False, repr=False, compare=False)
    _positions: dict[bytes, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        owners = {
            ALPHABET[idx]: pos
            for pos, rng in enumerate(self.ranges)
            for idx in rng
        }
        if "".join(owners) != ALPHABET:  # every symbol, in alphabet order
            raise AssertionError("ranges do not cover the alphabet")
        positions: dict[bytes, int] = {}
        for pos, pk in enumerate(self.validators):
            positions.setdefault(pk.raw, pos)
        object.__setattr__(self, "_owners", owners)
        object.__setattr__(self, "_positions", positions)

    def owner_index(self, d: str) -> int:
        """Ring position of the owner of digest `d`: the range holding its first symbol.

        The only place a digest is mapped to its owner; a one-symbol string
        is a digest whose first symbol is itself.
        """
        return self._owners[msch(d)]

    def range_of(self, d: str) -> PublicKey:
        """The owner of digest `d` (see `owner_index`)."""
        return self.validators[self.owner_index(d)]

    def position_of(self, pk: PublicKey) -> int:
        pos = self._positions.get(pk.raw)
        if pos is None:
            raise ValueError("public key is not in the allocation")
        return pos

    def range_for(self, pk: PublicKey) -> range:
        return self.ranges[self.position_of(pk)]

    def table(self) -> str:
        """Human-readable allocation table for run logs."""
        lines = ["position  key            kwm          range"]
        for i, (pk, rng) in enumerate(zip(self.validators, self.ranges)):
            lines.append(
                f"{i:<9} {pk.display[:12]}.. {float(kwm(pk.display)):<12.4f} "
                f"{ALPHABET[rng[0]]}..{ALPHABET[rng[-1]]}"
            )
        return "\n".join(lines)


def allocate_ranges(ordered: Sequence[PublicKey]) -> RangeAllocation:
    """Partition the alphabet over validators already in descending order.

    The base range size is 62 // count; the top-ranked validator absorbs the
    remainder so the ranges exactly cover all 62 symbols.
    """
    count = len(ordered)
    if count == 0:
        raise ValueError("cannot allocate ranges to zero validators")
    if count > SLOTS:
        raise ValueError("more than 62 validators is unsupported")
    base, remainder = divmod(SLOTS, count)
    ranges = []
    cursor = 0
    for i in range(count):
        size = base + (remainder if i == 0 else 0)
        ranges.append(range(cursor, cursor + size))
        cursor += size
    return RangeAllocation(validators=tuple(ordered), ranges=tuple(ranges))


def build_allocation(pks: Iterable[PublicKey]) -> RangeAllocation:
    """Order validators by key weight and allocate their ranges."""
    return allocate_ranges(order_validators(list(pks)))
