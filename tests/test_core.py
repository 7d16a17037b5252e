import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import streakcount
from streakcount import core, counting, oracle, signatures
from streakcount.core import (
    CloseCallTable,
    ScoreDistribution,
    close_call_buckets,
    heady_support,
    score,
    taily_support,
)
from streakcount.counting import closed_distribution, win_odds
from streakcount.oracle import close_call_table, enumerate_distribution
from streakcount.recurrence import dp_distribution, incremental_distribution
from streakcount.verify import SuiteResult

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=40)


def test_score_counts_adjacent_pairs():
    assert score(()) == 0
    assert score((1,)) == 0
    assert score((1, 1)) == 1
    assert score((1, 0)) == -1
    assert score((0, 1, 1, 1, 0)) == 1
    assert score((1, 0, 0, 0, 1)) == -1
    assert score((1, 1, 0, 1, 1, 0)) == 0


def test_score_extremes():
    for n in range(1, 12):
        assert score((1,) * n) == n - 1
        alternating = tuple(i % 2 for i in range(1, n + 1))
        assert score(alternating) == -(n // 2)


@given(st.lists(st.integers(0, 1), max_size=40))
def test_score_equals_pair_census(bits):
    seq = tuple(bits)
    pairs = list(zip(seq, seq[1:]))
    assert score(seq) == pairs.count((1, 1)) - pairs.count((1, 0))


@given(bit_lists, st.integers(1, 5))
def test_leading_tails_do_not_move_the_score(bits, pad):
    assert score((0,) * pad + tuple(bits)) == score(tuple(bits))


@given(bit_lists)
def test_appending_one_toss_shifts_score_by_final_state(bits):
    seq = tuple(bits)
    base = score(seq)
    if seq[-1] == 1:
        assert score(seq + (1,)) == base + 1
        assert score(seq + (0,)) == base - 1
    else:
        assert score(seq + (1,)) == base
        assert score(seq + (0,)) == base


def test_distribution_accounting():
    dist = ScoreDistribution(n=3, heady={2: 1, 1: 1, 0: 1, -1: 1}, taily={0: 2, -1: 2})
    assert dist.total() == 8
    assert dist.count(2) == 1
    assert dist.count(0) == 3
    assert dist.count(5) == 0
    assert dist.alice_wins() == 2
    assert dist.bob_wins() == 3
    assert dist.ties() == 3
    assert dist.win_gap() == 1


def test_win_gap_is_bob_minus_alice():
    for n in range(2, 16):
        dist = closed_distribution(n)
        assert dist.win_gap() == dist.bob_wins() - dist.alice_wins()


def test_close_call_buckets_split_by_score_band():
    table = close_call_buckets(closed_distribution(3))
    assert table == CloseCallTable(
        n=3, h1=1, h2=1, h3=1, h4=1, h5=0, t1=0, t2=0, t3=2, t4=2, t5=0
    )
    assert table.heady_row() == (1, 1, 1, 1, 0)
    assert table.taily_row() == (0, 0, 2, 2, 0)


def test_close_call_buckets_cover_everything():
    for n in range(1, 14):
        dist = closed_distribution(n)
        table = close_call_buckets(dist)
        assert sum(table.heady_row()) + sum(table.taily_row()) == 1 << n
        assert table.h4 == dist.win_gap()


def test_result_types_keep_their_repr_default_and_equality():
    # the result types are NamedTuples; they must print, default and
    # compare as they did when they were frozen dataclasses
    odds = win_odds(3)
    assert repr(odds) == (
        "WinOdds(n=3, alice=2, bob=3, ties=3, gap=1, digits=6, alice_share='0.250000', "
        "bob_share='0.375000', tie_share='0.375000', gap_share='0.125000')")
    assert odds.total == 8 and odds._asdict()["gap_share"] == "0.125000"
    dist = closed_distribution(3)
    assert repr(dist) == (
        "ScoreDistribution(n=3, heady={-1: 1, 0: 1, 1: 1, 2: 1}, taily={-1: 2, 0: 2})")
    assert SuiteResult("x", True, 1).detail == ""
    # count is a score's count, not tuple.count over the fields
    assert [dist.count(s) for s in (0, 1, -1, 3, -2)] == [3, 1, 3, 0, 0]
    for n in (1, 4, 9):
        assert closed_distribution(n) == dp_distribution(n) == enumerate_distribution(n)
        assert close_call_buckets(closed_distribution(n)) == close_call_table(n)
    assert closed_distribution(4) != closed_distribution(5)


def test_the_table_shape_and_input_checks_are_defined_once_in_core():
    sources = {path.stem: path.read_text()
               for path in Path(streakcount.__file__).parent.glob("*.py")}
    for name in ("heady_support", "taily_support", "score_support", "from_lists",
                 "require_length", "require_mode"):
        homes = [stem for stem, text in sources.items() if re.search(rf"\bdef {name}\b", text)]
        assert homes == ["core"], name


def raised(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_tables_take_their_keys_from_one_shared_list(monkeypatch):
    def dense(n):
        # distinct counts inside each support and zeros outside, indexed
        # from score -(n // 2) as every route's lists are
        lo = -(n // 2)
        (h_lo, h_hi), (t_lo, t_hi) = heady_support(n), taily_support(n)
        return ([s + n if h_lo <= s <= h_hi else 0 for s in range(lo, n)],
                [s + 3 * n if t_lo <= s <= t_hi else 0 for s in range(lo, n)])

    def reference(n, heady, taily):
        # the dicts as built with a fresh range and slice copies
        lo = -(n // 2)
        (h_lo, h_hi), (t_lo, t_hi) = heady_support(n), taily_support(n)
        return (dict(zip(range(h_lo, h_hi + 1), heady[h_lo - lo:h_hi - lo + 1])),
                dict(zip(range(t_lo, t_hi + 1), taily[t_lo - lo:t_hi - lo + 1])))

    monkeypatch.setattr(core, "_keys", (0, []))
    tables = {}
    for n, span in [*((n, (-(n // 2), n + n // 2)) for n in range(1, 301)),
                    (5000, (-2500, 7500)), (3, (-2500, 7500))]:
        table = ScoreDistribution.from_lists(n, *dense(n))
        heady, taily = reference(n, *dense(n))
        assert list(table.heady.items()) == list(heady.items()), n
        assert list(table.taily.items()) == list(taily.items()), n
        # the list reaches the lowest and highest score of every table so far
        first, keys = core._keys
        assert (first, len(keys)) == span and keys == list(range(first, first + len(keys)))
        tables[n] = table

    def key(half, s):
        return next(k for k in half if k == s)

    # scores past 256 are not cached ints, yet each is one object in every
    # table, whether built before the list grew past it or after
    for s in (-149, -129, 257, 297):
        assert key(tables[300].taily, s) is key(tables[5000].taily, s)
        assert key(tables[299].heady, s) is key(tables[5000].heady, s)
        assert key(tables[300].heady, s) is key(tables[299].heady, s)
    assert key(tables[300].taily, -150) is key(tables[5000].taily, -150)


def test_every_mode_check_raises_the_one_message():
    want = "mode must be 'heady' or 'taily', got 'x'"
    assert raised(lambda: oracle.sequences_with(3, 0, "x")) == want
    assert raised(lambda: signatures.min_length("+-", "x")) == want
    assert raised(lambda: signatures.generate_sequences("+-", 5, "x")) == want


def test_every_table_route_refuses_length_zero_with_the_one_message():
    # closed_distribution starts from its fresh resume state, (-1, [], []),
    # which reads as the table at n - 1 when n = 0: the length must be
    # checked before the resume test
    assert counting._last == (-1, [], [])
    for build in (enumerate_distribution, dp_distribution, incremental_distribution,
                  closed_distribution):
        assert raised(lambda: build(0)) == "sequence length must be at least 1, got 0", build
