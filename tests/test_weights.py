import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashcast.core import ALPHABET, ALPHABET_INDEX, PublicKey
from hashcast.verification import ring_members
from hashcast.weights import (
    WEIGHT_DICTIONARY,
    allocate_ranges,
    build_allocation,
    kwm,
    order_validators,
)
from conftest import make_keypairs
from oracles import brute_force_kwm


digests = st.text(alphabet=ALPHABET, min_size=1, max_size=40)


class TestCharWeight:
    @pytest.mark.parametrize(
        "symbol,weight",
        [("a", 0), ("z", 25), ("A", 26), ("Z", 51), ("0", 52), ("9", 61)],
    )
    def test_table_anchors(self, symbol, weight):
        assert WEIGHT_DICTIONARY[symbol] == weight

    def test_weights_are_permutation(self):
        assert sorted(WEIGHT_DICTIONARY.values()) == list(range(62))
        assert len(WEIGHT_DICTIONARY) == 62


class TestFinalWeight:
    def test_no_repeat(self):
        assert kwm("b") == 1

    def test_single_repeat(self):
        assert kwm("bb") - kwm("b") == Fraction(1, 5)

    def test_zero_weight_annihilates(self):
        assert kwm("aaaaaa") == 0


class TestKwm:
    def test_repeated_symbol(self):
        assert kwm("bb") == Fraction(6, 5)

    def test_all_zero_weights(self):
        assert kwm("aaa") == 0

    def test_distinct_symbols_sum(self):
        assert kwm("9Z") == 112

    def test_matches_brute_force_oracle(self):
        rng = random.Random(9)
        for _ in range(2000):
            d = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 40)))
            assert kwm(d) == brute_force_kwm(d)

    @given(digests, st.sampled_from(ALPHABET))
    @settings(max_examples=300, deadline=None)
    def test_repeat_attenuation(self, d, symbol):
        before = kwm(d)
        after = kwm(d + symbol)
        repeats = d.count(symbol)
        expected_gain = Fraction(WEIGHT_DICTIONARY[symbol]) * Fraction(1, 5) ** repeats
        assert after - before == expected_gain

    def test_upper_bound_with_equality_iff_unique(self):
        unique = "abc19Z"
        assert kwm(unique) == sum(
            WEIGHT_DICTIONARY[c] for c in unique
        )
        repeated = "bbc"
        assert kwm(repeated) < sum(
            WEIGHT_DICTIONARY[c] for c in repeated
        )


class TestOrderValidators:
    def test_strictly_descending(self, backend):
        pks = [kp.public for kp in make_keypairs(backend, 8, "ord")]
        ordered = order_validators(pks)
        values = [kwm(pk.display) for pk in ordered]
        assert values == sorted(values, reverse=True)

    def test_permutation_invariance(self, backend):
        pks = [kp.public for kp in make_keypairs(backend, 10, "perm")]
        rng = random.Random(1)
        baseline = order_validators(pks)
        for _ in range(5):
            shuffled = pks[:]
            rng.shuffle(shuffled)
            assert order_validators(shuffled) == baseline

    def test_against_independent_sort_oracle(self, backend):
        pks = [kp.public for kp in make_keypairs(backend, 100, "oracle")]
        ordered = order_validators(pks)
        oracle = sorted(
            pks,
            key=lambda pk: (
                -brute_force_kwm(pk.display),
                tuple(ALPHABET_INDEX[c] for c in pk.display),
            ),
        )
        assert ordered == oracle

    def test_duplicates_rejected(self, backend):
        pk = backend.keypair(b"dup").public
        with pytest.raises(ValueError):
            order_validators([pk, pk])

    def test_tie_break_is_digest_order(self, backend):
        # key weight depends only on which symbols occur how often, so
        # permutations of one digest all tie and the ordering must fall
        # back to the digest tie-break alone.
        base = make_keypairs(backend, 1, "tie")[0].public.display
        rng = random.Random(7)
        displays = {base}
        while len(displays) < 12:
            displays.add("".join(rng.sample(base, len(base))))
        pks = [PublicKey(raw=d.encode(), display=d) for d in sorted(displays)]
        rng.shuffle(pks)
        assert len({kwm(pk.display) for pk in pks}) == 1
        ordered = order_validators(pks)
        keys = [tuple(ALPHABET_INDEX[c] for c in pk.display) for pk in ordered]
        assert keys == sorted(keys)


class TestAllocateRanges:
    def test_ten_validators_split(self, backend):
        pks = [kp.public for kp in make_keypairs(backend, 10, "ten")]
        alloc = build_allocation(pks)
        assert [r.end - r.start + 1 for r in alloc.ranges] == [8, 6, 6, 6, 6, 6, 6, 6, 6, 6]

    def test_sixty_two_validators_all_one(self, backend):
        pks = [kp.public for kp in make_keypairs(backend, 62, "all")]
        alloc = build_allocation(pks)
        assert [r.end - r.start + 1 for r in alloc.ranges] == [1] * 62

    def test_four_validators_split(self, backend):
        pks = [kp.public for kp in make_keypairs(backend, 4, "four")]
        alloc = build_allocation(pks)
        assert [r.end - r.start + 1 for r in alloc.ranges] == [17, 15, 15, 15]

    def test_single_validator_owns_alphabet(self, backend):
        pk = backend.keypair(b"solo").public
        alloc = build_allocation([pk])
        assert (alloc.ranges[0].start, alloc.ranges[0].end) == (0, 61)
        for symbol in ALPHABET:
            assert alloc.range_of(symbol) == pk

    def test_zero_and_oversize_rejected(self, backend):
        with pytest.raises(ValueError):
            allocate_ranges([])
        pks = [kp.public for kp in make_keypairs(backend, 63, "many")]
        with pytest.raises(ValueError):
            allocate_ranges(pks)

    def test_exact_cover_for_every_count(self, backend):
        pks = [kp.public for kp in make_keypairs(backend, 62, "cover")]
        for count in range(1, 63):
            alloc = build_allocation(pks[:count])
            assert sum(r.end - r.start + 1 for r in alloc.ranges) == 62
            covered = []
            for rng_ in alloc.ranges:
                covered.extend(range(rng_.start, rng_.end + 1))
            assert covered == list(range(62))  # disjoint, complete, in order

    def test_monotone_allocation(self, backend):
        pks = [kp.public for kp in make_keypairs(backend, 9, "mono")]
        alloc = build_allocation(pks)
        for earlier, later in zip(alloc.ranges, alloc.ranges[1:]):
            assert earlier.end + 1 == later.start


class TestRangeOf:
    def test_identity_mapping_at_full_occupancy(self, backend):
        pks = [kp.public for kp in make_keypairs(backend, 62, "ident")]
        alloc = build_allocation(pks)
        for i, symbol in enumerate(ALPHABET):
            assert alloc.range_of(symbol) == alloc.validators[i]

    def test_first_validator_covers_first_eight(self, backend):
        pks = [kp.public for kp in make_keypairs(backend, 10, "first")]
        alloc = build_allocation(pks)
        assert alloc.range_of(ALPHABET[7]) == alloc.validators[0]
        assert alloc.range_of(ALPHABET[8]) == alloc.validators[1]

    def test_scenario_third_validator_owns_K(self, backend):
        # four ranges over the alphabet put 'K' (index 46) into the third
        # validator's span, and the fourth is its ring successor.
        pks = [kp.public for kp in make_keypairs(backend, 4, "scen")]
        alloc = allocate_ranges(pks)
        d = "K23HQ" + "0" * 27
        owner = alloc.range_of(d[0])
        assert owner == alloc.validators[2]
        assert ring_members(alloc, alloc.position_of(owner), 1)[2] == alloc.validators[3]


class TestDht:
    """The validator ring: allocation order, navigated with wrap-around by `ring_members`."""

    def _ring(self, backend, count):
        pks = [kp.public for kp in make_keypairs(backend, count, "ring")]
        return pks, allocate_ranges(pks)

    def test_single_successor(self, backend):
        pks, alloc = self._ring(backend, 4)
        assert ring_members(alloc, 1, 1) == [pks[0], pks[1], pks[2]]

    def test_predecessors_wrap(self, backend):
        pks, alloc = self._ring(backend, 4)
        assert ring_members(alloc, 0, 2)[:2] == [pks[2], pks[3]]

    def test_inverse_navigation(self, backend):
        pks, alloc = self._ring(backend, 7)
        for start, pk in enumerate(pks):
            for count in (1, 2, 3):
                forward = ring_members(alloc, start, count)[-1]
                back = ring_members(alloc, alloc.position_of(forward), count)[0]
                assert back == pk

    def test_allocation_order_is_ring_order(self, backend):
        pks = [kp.public for kp in make_keypairs(backend, 6, "ro")]
        alloc = build_allocation(pks)
        centers = [ring_members(alloc, i, 0) for i in range(len(pks))]
        assert centers == [[pk] for pk in alloc.validators]
        assert ring_members(alloc, len(pks) - 1, 1)[2] == alloc.validators[0]


class TestLookupTables:
    def test_tables_agree_with_scans(self, backend):
        kps = make_keypairs(backend, 62, "lt")
        stranger = backend.keypair(b"stranger").public
        for count in range(1, 63):
            alloc = build_allocation(kp.public for kp in kps[:count])
            for idx, symbol in enumerate(ALPHABET):
                (owner,) = [p for p, r in enumerate(alloc.ranges) if r.start <= idx <= r.end]
                assert alloc.owner_index(symbol) == owner
            for kp in kps[:count]:
                (pos,) = [i for i, pk in enumerate(alloc.validators) if pk.raw == kp.public.raw]
                assert alloc.position_of(kp.public) == pos
            with pytest.raises(ValueError):
                alloc.position_of(stranger)

    def test_a_digest_is_owned_by_its_first_symbols_owner(self, backend):
        rng = random.Random(13)
        kps = make_keypairs(backend, 62, "lt")
        for count in (1, 4, 10, 62):
            alloc = build_allocation(kp.public for kp in kps[:count])
            for symbol in ALPHABET:
                d = symbol + "".join(rng.choices(ALPHABET, k=42))
                assert alloc.owner_index(d) == alloc.owner_index(d[0])
                assert alloc.range_of(d) == alloc.range_of(d[0])
            with pytest.raises(ValueError):
                alloc.owner_index("")


def test_allocation_table_renders(backend):
    pks = [kp.public for kp in make_keypairs(backend, 3, "tbl")]
    alloc = build_allocation(pks)
    table = alloc.table()
    assert "range" in table
    assert len(table.splitlines()) == 4
