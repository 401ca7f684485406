"""Traffic fee settlement between validators and the backbone.

Validators owe a per-epoch fee proportional to how many blocks they stored;
the accounting actor collects payments, flags underpayers, and splits the
collected funds equally across the backbone nodes.  Amounts are exact
rationals quantized to a milli-unit so the equal split conserves funds to
the last fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

CURRENCY_QUANTUM = Fraction(1, 1000)


def compute_tmf(tf: Fraction, ledger_length: int) -> Fraction:
    """Traffic management fee owed for an epoch: fee-per-block times blocks."""
    if tf < 0 or ledger_length < 0:
        raise ValueError("fee inputs must be non-negative")
    return Fraction(tf) * ledger_length


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


@dataclass(frozen=True)
class Payment:
    payer: str  # validator key display
    amount: Fraction
    epoch: int

    def __post_init__(self):
        if self.amount < 0:
            raise ValueError("payment amount must be non-negative")


@dataclass
class Settlement:
    epoch: int
    expected: dict[str, Fraction]
    paid: dict[str, Fraction]
    payouts: dict[int, Fraction]
    penalties: tuple[str, ...]
    rejected: tuple[Payment, ...]
    arrears: dict[str, Fraction]

    def lines(self) -> list[str]:
        out = [f"settlement epoch {self.epoch}"]
        for payer in sorted(self.expected):
            out.append(
                f"  validator {payer[:8]}.. expected {float(self.expected[payer]):.3f} "
                f"paid {float(self.paid.get(payer, Fraction(0))):.3f}"
            )
        for bn_id in sorted(self.payouts):
            out.append(f"  backbone {bn_id} payout {float(self.payouts[bn_id]):.3f}")
        out.append("  penalties: " + (",".join(p[:8] for p in self.penalties) or "none"))
        return out


class TrafficAccounting:
    """Fee-collection actor deployed in the genesis block.

    Tracks what each validator owes (current epoch fee plus any arrears),
    verifies payments against it, and keeps the penalty list that gates
    registration in the following epoch.  Funds received are distributed in
    full at every settlement.
    """

    def __init__(self, tf: Fraction):
        if tf < 0:
            raise ValueError("traffic fee must be non-negative")
        self.tf = Fraction(tf)
        self.arrears: dict[str, Fraction] = {}
        self.total_collected = Fraction(0)
        self.total_distributed = Fraction(0)

    def settle_epoch(
        self,
        payments: Iterable[Payment],
        ledger_lengths: dict[str, int],
        backbone_ids: Sequence[int],
        epoch: int,
    ) -> Settlement:
        """Close an epoch: verify payments, penalize underpayers, pay backbone.

        Payments from unknown validators are rejected (and reported in the
        settlement).  An underpayer stays on the penalty list, carrying the
        shortfall as arrears, until a later payment clears it.
        """
        expected = {
            payer: compute_tmf(self.tf, length)
            for payer, length in sorted(ledger_lengths.items())
        }
        paid: dict[str, Fraction] = {}
        rejected = []
        for payment in payments:
            if payment.payer not in expected and payment.payer not in self.arrears:
                rejected.append(payment)
                continue
            paid[payment.payer] = paid.get(payment.payer, Fraction(0)) + payment.amount

        new_arrears: dict[str, Fraction] = {}
        for payer in sorted(set(expected) | set(self.arrears)):
            due = expected.get(payer, Fraction(0)) + self.arrears.get(payer, Fraction(0))
            credit = paid.get(payer, Fraction(0))
            shortfall = due - credit
            if shortfall > 0:
                new_arrears[payer] = shortfall
        self.arrears = new_arrears

        accepted_total = sum(paid.values(), Fraction(0))
        payouts = (
            split_equal(accepted_total, backbone_ids)
            if backbone_ids
            else {}
        )
        self.total_collected += accepted_total
        self.total_distributed += sum(payouts.values(), Fraction(0))

        return Settlement(
            epoch=epoch,
            expected=expected,
            paid=paid,
            payouts=payouts,
            penalties=tuple(sorted(new_arrears)),
            rejected=tuple(rejected),
            arrears=dict(new_arrears),
        )
