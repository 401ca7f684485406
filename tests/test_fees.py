from fractions import Fraction

import pytest

from hashcast.fees import (
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
        lines = ta.settle_epoch({"v1": 4, "v2": 6, "v3": 10}, [0, 1], epoch=0)
        assert "  backbone 0 payout 5.000" in lines
        assert "  backbone 1 payout 5.000" in lines

    def test_conservation_per_epoch(self):
        ta = TrafficAccounting(tf=Fraction(3, 10))
        lengths = {"v1": 7, "v2": 11, "v3": 13}
        lines = ta.settle_epoch(lengths, [0, 1, 2], epoch=0)
        fees = [Fraction(l.split()[3]) for l in lines if l.startswith("  validator")]
        payouts = [Fraction(l.split()[-1]) for l in lines if l.startswith("  backbone")]
        assert fees == [compute_tmf(ta.tf, n) for n in (7, 11, 13)]
        assert sum(payouts) == sum(fees) == compute_tmf(ta.tf, 31)
        assert len(payouts) == 3

    def test_settlement_lines_render(self):
        ta = TrafficAccounting(tf=Fraction(1))
        lines = ta.settle_epoch({"v1": 2}, [0], epoch=0)
        assert lines == [
            "settlement epoch 0",
            "  validator v1.. expected 2.000 paid 2.000",
            "  backbone 0 payout 2.000",
            "  penalties: none",
        ]
