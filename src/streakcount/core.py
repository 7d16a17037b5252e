"""Toss sequences and the pair score of the heads-heads versus heads-tails game.

Alice scores a point for every adjacent heads-heads pair in a sequence of
coin tosses and Bob scores a point for every adjacent heads-tails pair.
The score of a sequence is Alice's total minus Bob's.  Heads are written 1
and tails 0, and positions read left to right.

A sequence whose final toss is heads is called heady, otherwise taily.
Splitting counts by the final toss is what makes every recurrence in this
package close, so the distribution type keeps the two halves separate.

This module is the one home of a length-n table's shape: the score range
of each half, the dense-list layout every route fills and the checks on a
length and a final-toss mode.  Every route builds its table through it
alone, so no route loads another to shape its output.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple, Sequence

TossSequence = tuple[int, ...]

# the score ints every table's keys are taken from, ascending from the
# first: (first, ints).  A fresh list that keeps the ints already handed
# out replaces it when a table reaches past it, so every table shares its
# key objects.  Read once and written at most once per table, as the
# routes' resume states are: concurrent callers can lose a growth but
# never see a torn pair
_keys: tuple[int, list[int]] = (0, [])


def require_length(n: int, minimum: int = 1) -> None:
    if n < minimum:
        raise ValueError(f"sequence length must be at least {minimum}, got {n}")


def require_mode(mode: str) -> None:
    if mode not in ("heady", "taily"):
        raise ValueError(f"mode must be 'heady' or 'taily', got {mode!r}")


def heady_support(n: int) -> tuple[int, int]:
    """Inclusive score range where heady counts are nonzero."""
    require_length(n)
    return -((n - 1) // 2), n - 1


def taily_support(n: int) -> tuple[int, int]:
    """Inclusive score range where taily counts are nonzero."""
    require_length(n)
    return -(n // 2), max(0, n - 3)


def score_support(n: int) -> tuple[int, int]:
    """Inclusive score range spanning both families."""
    require_length(n)
    return -(n // 2), n - 1


def score(bits: Sequence[int]) -> int:
    """Count of 11 pairs minus count of 10 pairs over adjacent positions.

    A single toss, or the empty sequence, scores 0.
    """
    total = 0
    for a, b in zip(bits, bits[1:]):
        if a == 1:
            total += 1 if b == 1 else -1
    return total


class ScoreDistribution(NamedTuple):
    """Counts of length-n sequences keyed by score, split by final toss.

    heady maps score to count over sequences ending in heads, taily over
    sequences ending in tails.  Only nonzero counts are stored, so two
    distributions compare equal exactly when they tally the same sets.
    """

    n: int
    heady: dict[int, int]
    taily: dict[int, int]

    @classmethod
    def from_lists(cls, n: int, heady: list[int], taily: list[int]) -> ScoreDistribution:
        """Dense lists at length n, indexed from score -(n // 2), as a table.

        Every cell inside a support is nonzero and every cell outside is
        zero, so reading the supports out stores exactly the nonzero counts,
        each half in ascending score order.  The values are read in place
        and the keys are the shared ints of _keys: Python caches no int past
        256, so fresh keys would cost each table of a sweep one allocation
        per score for ints the other tables already hold.
        """
        global _keys
        lo = -(n // 2)
        first, keys = _keys
        if lo < first or n > first + len(keys):
            top = first + len(keys)
            keys = [*range(lo, first), *keys, *range(top, n)]
            first = min(first, lo)
            _keys = (first, keys)
        h_lo, t_hi = heady_support(n)[0], taily_support(n)[1]
        return cls(n, dict(zip(keys[h_lo - first:n - first], islice(heady, h_lo - lo, None))),
                   dict(zip(keys[lo - first:t_hi + 1 - first], taily)))

    def total(self) -> int:
        return sum(self.heady.values()) + sum(self.taily.values())

    def count(self, s: int) -> int:
        # shadows tuple.count: the sequences scoring s, not a field's tally
        return self.heady.get(s, 0) + self.taily.get(s, 0)

    def alice_wins(self) -> int:
        return sum(v for s, v in self.heady.items() if s > 0) + sum(
            v for s, v in self.taily.items() if s > 0)

    def bob_wins(self) -> int:
        return sum(v for s, v in self.heady.items() if s < 0) + sum(
            v for s, v in self.taily.items() if s < 0)

    def ties(self) -> int:
        return self.count(0)

    def win_gap(self) -> int:
        """Bob's winning sequences minus Alice's."""
        return self.bob_wins() - self.alice_wins()


class CloseCallTable(NamedTuple):
    """The ten close-call buckets for one length.

    Final toss crossed with the score bands s > 1, s = 1, s = 0, s = -1,
    s < -1.  The h row holds heady counts, the t row taily counts; each
    row totals 2**(n-1).
    """

    n: int
    h1: int
    h2: int
    h3: int
    h4: int
    h5: int
    t1: int
    t2: int
    t3: int
    t4: int
    t5: int

    def heady_row(self) -> tuple[int, int, int, int, int]:
        return (self.h1, self.h2, self.h3, self.h4, self.h5)

    def taily_row(self) -> tuple[int, int, int, int, int]:
        return (self.t1, self.t2, self.t3, self.t4, self.t5)


def close_call_buckets(dist: ScoreDistribution) -> CloseCallTable:
    """Collapse a full distribution into the five score bands per row."""

    def bands(counts: dict[int, int]) -> tuple[int, int, int, int, int]:
        high = sum(v for s, v in counts.items() if s > 1)
        low = sum(v for s, v in counts.items() if s < -1)
        return (high, counts.get(1, 0), counts.get(0, 0), counts.get(-1, 0), low)

    return CloseCallTable(dist.n, *bands(dist.heady), *bands(dist.taily))
