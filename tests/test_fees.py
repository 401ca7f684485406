from fractions import Fraction

import pytest

from hashcast.fees import (
    Payment,
    TrafficAccounting,
    compute_tmf,
    split_equal,
)


class TestComputeTmf:
    def test_direct_product(self):
        assert compute_tmf(Fraction(1, 2), 10) == Fraction(5)

    def test_no_blocks_no_fee(self):
        assert compute_tmf(Fraction(1, 2), 0) == 0

    def test_integer_fee(self):
        assert compute_tmf(Fraction(2), 7) == 14

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            compute_tmf(Fraction(-1), 3)


class TestSplitEqual:
    def test_even_split(self):
        shares = split_equal(Fraction(10), [0, 1])
        assert shares == {0: Fraction(5), 1: Fraction(5)}

    def test_remainder_to_lowest_id(self):
        shares = split_equal(Fraction(1, 100), [3, 1, 2])
        assert sum(shares.values()) == Fraction(1, 100)
        assert shares[1] >= shares[2] == shares[3]

    def test_conservation_over_awkward_totals(self):
        for total in (Fraction(7, 3), Fraction(999, 7), Fraction(1)):
            for ids in ([0, 1], [5, 9, 2], [4]):
                shares = split_equal(total, ids)
                assert sum(shares.values()) == total

    def test_zero_recipients_rejected(self):
        with pytest.raises(ValueError):
            split_equal(Fraction(5), [])


class TestSettlement:
    def test_exact_payments_split_between_backbones(self):
        ta = TrafficAccounting(tf=Fraction(1, 2))
        lengths = {"v1": 4, "v2": 6, "v3": 10}
        payments = [
            Payment(payer=v, amount=compute_tmf(ta.tf, l), epoch=0)
            for v, l in lengths.items()
        ]
        settlement = ta.settle_epoch(payments, lengths, [0, 1], epoch=0)
        assert settlement.penalties == ()
        total = compute_tmf(ta.tf, 20)
        assert settlement.payouts[0] == settlement.payouts[1] == total / 2
        assert sum(settlement.payouts.values()) == total

    def test_underpayer_penalized(self):
        ta = TrafficAccounting(tf=Fraction(1))
        lengths = {"v1": 5, "v2": 5}
        payments = [Payment(payer="v1", amount=Fraction(5), epoch=0)]  # v2 pays 0
        settlement = ta.settle_epoch(payments, lengths, [0, 1], epoch=0)
        assert settlement.penalties == ("v2",)
        assert settlement.arrears["v2"] == Fraction(5)

    def test_arrears_cleared_on_later_payment(self):
        ta = TrafficAccounting(tf=Fraction(1))
        assert ta.settle_epoch([], {"v1": 3}, [0], epoch=0).penalties == ("v1",)
        # penalized validator holds no range in epoch 1 but pays its debt
        settlement = ta.settle_epoch(
            [Payment(payer="v1", amount=Fraction(3), epoch=1)], {}, [0], epoch=1
        )
        assert settlement.penalties == ()

    def test_partial_arrears_payment_stays_penalized(self):
        ta = TrafficAccounting(tf=Fraction(1))
        ta.settle_epoch([], {"v1": 4}, [0], epoch=0)
        settlement = ta.settle_epoch(
            [Payment(payer="v1", amount=Fraction(1), epoch=1)], {}, [0], epoch=1
        )
        assert settlement.penalties == ("v1",)
        assert settlement.arrears["v1"] == Fraction(3)

    def test_unknown_payer_rejected_and_logged(self):
        ta = TrafficAccounting(tf=Fraction(1))
        settlement = ta.settle_epoch(
            [Payment(payer="ghost", amount=Fraction(2), epoch=0)],
            {"v1": 1},
            [0],
            epoch=0,
        )
        assert len(settlement.rejected) == 1
        assert settlement.rejected[0].payer == "ghost"
        # rejected funds never enter the payout pool
        assert sum(settlement.payouts.values()) == 0

    def test_conservation_per_epoch(self):
        ta = TrafficAccounting(tf=Fraction(3, 10))
        lengths = {"v1": 7, "v2": 11, "v3": 13}
        payments = [
            Payment(payer=v, amount=compute_tmf(ta.tf, l), epoch=0)
            for v, l in lengths.items()
        ]
        settlement = ta.settle_epoch(payments, lengths, [0, 1, 2], epoch=0)
        assert sum(settlement.payouts.values()) == sum(p.amount for p in payments)
        assert ta.total_collected == ta.total_distributed

    def test_negative_payment_rejected(self):
        with pytest.raises(ValueError):
            Payment(payer="v1", amount=Fraction(-1), epoch=0)

    def test_settlement_lines_render(self):
        ta = TrafficAccounting(tf=Fraction(1))
        settlement = ta.settle_epoch(
            [Payment(payer="v1", amount=Fraction(2), epoch=0)], {"v1": 2}, [0], epoch=0
        )
        text = "\n".join(settlement.lines())
        assert "settlement epoch 0" in text
        assert "penalties: none" in text
