"""Ground truth by counting all 2**n sequences of one length.

This module is the referee for the analytic paths and shares nothing with
them beyond core: the table and sequence types and the checks on a length
and a mode.  Sequences pack into words, toss i at bit i - 1.  A word of
length n is cut after its b = n // 2 low tosses into a low half (tosses
1..b) and a high half (tosses b + 1..n), and its score is the low half's
score, plus the high half's, plus the one pair across the cut: 0 when
toss b is tails, +1 when tosses b and b + 1 are both heads, -1 when they
are heads then tails.  That pair reads only the low half's top toss and
the high half's first toss.

So each half is scored once, word by word, and grouped: the low halves by
(top toss, score), the high halves by (final toss, first toss, score).
Every pairing of one low and one high half is exactly one word, so
multiplying the sizes of every pair of groups and adding the product at
the sum of their scores and the cross pair counts each of the 2**n words
exactly once, while only 2**b + 2**(n - b) half-words are ever scored (the
meet-in-the-middle split of Horowitz and Sahni, "Computing partitions with
applications to the knapsack problem", 1974).  Everything runs on plain
ints, with no import beyond core and the standard library.
"""

from __future__ import annotations

from collections import Counter

from .core import (CloseCallTable, ScoreDistribution, TossSequence, close_call_buckets,
                   require_length, require_mode)

# the one limit on n: sequences_with(24, 0, "heady") already builds 984,983
# tuples in about 2 s with a 238 MB tracemalloc peak (2-core Xeon, Python
# 3.11.7), and every two more tosses multiply both by about 4
MAX_N = 24


class OracleCapExceeded(ValueError):
    """Enumeration request past the oracle's limit MAX_N."""


def _checked(n: int) -> None:
    require_length(n)
    if n > MAX_N:
        raise OracleCapExceeded(f"n={n} exceeds the oracle's enumeration limit of {MAX_N}")


def word_to_bits(word: int, n: int) -> TossSequence:
    return tuple((word >> i) & 1 for i in range(n))


def word_score(word: int, n: int) -> int:
    """score() on the packed form, popcounts instead of a position loop."""
    if n < 2:
        return 0
    mask = (1 << (n - 1)) - 1
    shifted = word >> 1
    hh = (word & shifted & mask).bit_count()
    ht = (word & ~shifted & mask).bit_count()
    return hh - ht


def _cross(top: int, first: int) -> int:
    """Score of the pair across the cut: the low half's top toss, the high half's first."""
    return top * (2 * first - 1)


def enumerate_distribution(n: int) -> ScoreDistribution:
    """Tally every length-n sequence by (score, final toss).

    Both halves of the cut are scored once and grouped; each pair of a
    low group and a high group adds the product of their sizes at the
    score the joined words share.
    """
    _checked(n)
    b, h = n // 2, n - n // 2
    # a low half of length 0 has no top toss; w >> 0 reads it as tails
    low = Counter((w >> max(b - 1, 0), word_score(w, b)) for w in range(1 << b))
    high = Counter((w >> (h - 1), w & 1, word_score(w, h)) for w in range(1 << h))
    totals: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for (last, first, s_high), c_high in high.items():
        row = totals[last]
        for (top, s_low), c_low in low.items():
            s = s_low + s_high + _cross(top, first)
            row[s] = row.get(s, 0) + c_low * c_high
    taily, heady = ({s: row[s] for s in sorted(row)} for row in totals)
    return ScoreDistribution(n, heady, taily)


def close_call_table(n: int) -> CloseCallTable:
    """Close-call buckets of the enumerated distribution."""
    return close_call_buckets(enumerate_distribution(n))


def win_gap(n: int) -> int:
    """Bob's wins minus Alice's, straight off the enumeration."""
    return enumerate_distribution(n).win_gap()


def sequences_with(n: int, score_value: int, mode: str) -> list[TossSequence]:
    """Every length-n sequence with the given score and final toss.

    Ordered ascending by packed word: the high halves with that final toss
    are walked in ascending order, and each is joined to the low halves of
    the two groups that complete its score, top toss tails first, each
    group ascending.
    """
    require_mode(mode)
    _checked(n)
    b, h = n // 2, n - n // 2
    low: dict[tuple[int, int], list[TossSequence]] = {}
    for w in range(1 << b):
        low.setdefault((w >> max(b - 1, 0), word_score(w, b)), []).append(word_to_bits(w, b))
    last = 1 if mode == "heady" else 0
    found: list[TossSequence] = []
    for w in range(last << (h - 1), (last + 1) << (h - 1)):
        rest, first = score_value - word_score(w, h), w & 1
        halves = [low.get((top, rest - _cross(top, first)), ()) for top in (0, 1)]
        if any(halves):
            tail = word_to_bits(w, h)
            found += [head + tail for group in halves for head in group]
    return found
