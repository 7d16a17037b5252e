import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streakcount import oracle
from streakcount.core import ScoreDistribution, close_call_buckets, score
from streakcount.counting import closed_distribution
from streakcount.oracle import (
    OracleCapExceeded,
    close_call_table,
    enumerate_distribution,
    sequences_with,
    word_score,
    word_to_bits,
)


def test_base_distributions():
    one = enumerate_distribution(1)
    assert one.heady == {0: 1}
    assert one.taily == {0: 1}
    two = enumerate_distribution(2)
    assert two.heady == {1: 1, 0: 1}
    assert two.taily == {0: 1, -1: 1}
    three = enumerate_distribution(3)
    assert three.heady == {2: 1, 1: 1, 0: 1, -1: 1}
    assert three.taily == {0: 2, -1: 2}


def test_word_round_trip():
    for n in range(1, 10):
        for word in range(1 << n):
            assert sum(bit << i for i, bit in enumerate(word_to_bits(word, n))) == word


@given(st.integers(1, 30))
def test_word_score_matches_pair_walk(n):
    # spot-check the popcount shortcut against the plain definition
    for word in (0, 1, (1 << n) - 1, (1 << n) // 3, (1 << n) - 2):
        word %= 1 << n
        assert word_score(word, n) == score(word_to_bits(word, n))


@given(st.integers(1, 14), st.data())
def test_word_score_matches_random_words(n, data):
    word = data.draw(st.integers(0, (1 << n) - 1))
    assert word_score(word, n) == score(word_to_bits(word, n))


def _tosses(word, n):
    # unpacked here rather than by word_to_bits, so the checks below share
    # nothing with the oracle but the packing convention
    return tuple((word >> i) & 1 for i in range(n))


def test_census_equals_a_per_word_tally():
    # core.score on every word of every length to 14: both parities of the
    # cut, and the one-toss word whose low half is empty
    for n in range(1, 15):
        tally = ({}, {})
        for word in range(1 << n):
            bits = _tosses(word, n)
            row = tally[bits[-1]]
            s = score(bits)
            row[s] = row.get(s, 0) + 1
        taily, heady = tally
        assert enumerate_distribution(n) == ScoreDistribution(n, heady, taily), n


def test_sequences_with_equals_a_per_word_filter_in_order():
    for n in range(1, 11):
        cells = {}
        for word in range(1 << n):
            bits = _tosses(word, n)
            cells.setdefault((score(bits), bits[-1]), []).append(bits)
        for s in range(-n, n + 1):
            for mode, last in (("heady", 1), ("taily", 0)):
                assert sequences_with(n, s, mode) == cells.get((s, last), []), (n, s, mode)


@pytest.mark.parametrize("n", [17, 18])
def test_census_at_an_odd_and_an_even_cut(n):
    # an odd and an even cut at lengths past the per-word tallies
    assert enumerate_distribution(n) == closed_distribution(n)


def test_sequences_with_joins_both_halves_at_length_18():
    n = 18
    cells = {(s, m): [] for s, m in ((0, "heady"), (1, "taily"), (-3, "heady"),
                                     (5, "taily"), (17, "heady"), (-9, "taily"))}
    for word in range(1 << n):
        key = (word_score(word, n), "heady" if word >> (n - 1) else "taily")
        if key in cells:
            cells[key].append(word_to_bits(word, n))
    for (s, mode), want in cells.items():
        assert sequences_with(n, s, mode) == want


def test_census_memory_is_bounded_by_the_halves_not_the_words():
    # only the halves are held: 2**12 half-words at the limit of 24
    enumerate_distribution(12)
    for n in (20, 24):
        tracemalloc.start()
        try:
            enumerate_distribution(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, n


def test_close_call_table_rows():
    assert close_call_table(2).heady_row() == (0, 1, 1, 0, 0)
    assert close_call_table(2).taily_row() == (0, 0, 1, 1, 0)
    assert close_call_table(3).heady_row() == (1, 1, 1, 1, 0)
    assert close_call_table(3).taily_row() == (0, 0, 2, 2, 0)
    assert close_call_table(8).h2 == 23


def test_win_gap_small_lengths():
    assert [oracle.win_gap(n) for n in range(2, 11)] == [0, 1, 2, 3, 7, 14, 24, 47, 93]


def test_sequences_with_orders_by_packed_word():
    found = sequences_with(4, -1, "taily")
    assert found == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    assert sequences_with(2, 1, "heady") == [(1, 1)]
    assert sequences_with(2, 1, "taily") == []


def test_sequences_with_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        sequences_with(3, 0, "sideways")


def test_cap_guards_every_entry_point():
    for refused in (enumerate_distribution, close_call_table, oracle.win_gap,
                    lambda n: sequences_with(n, n - 1, "heady")):
        with pytest.raises(OracleCapExceeded,
                           match=r"^n=25 exceeds the oracle's enumeration limit of 24$"):
            refused(oracle.MAX_N + 1)
    assert oracle.MAX_N == 24
    assert enumerate_distribution(24).total() == 1 << 24
    assert close_call_table(24) == close_call_buckets(closed_distribution(24))
    assert oracle.win_gap(24) == closed_distribution(24).win_gap()
    # score 23 is the all-heads sequence alone
    assert sequences_with(24, 23, "heady") == [(1,) * 24]


def test_word_size_is_a_hard_ceiling(monkeypatch):
    # no setting lifts the limit: the retired cap variable is ignored, and a
    # length far past it is refused by the same message, before any work
    monkeypatch.setenv("STREAKCOUNT_ORACLE_CAP", "70")
    for n in (25, 63, 64, 10**9):
        with pytest.raises(OracleCapExceeded) as refused:
            enumerate_distribution(n)
        assert str(refused.value) == f"n={n} exceeds the oracle's enumeration limit of 24"
        with pytest.raises(OracleCapExceeded):
            sequences_with(n, 0, "heady")


def test_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        enumerate_distribution(0)
