"""Exact closed-form counts of toss sequences by score and final toss.

All arithmetic is integer and exact.  Each closed form is a sum of
products of two binomials; the sums are evaluated by exact term ratios
(see _summands): one starting term, then one multiply-then-divide per
step instead of two fresh binomials, with values identical to summing
the products directly.  A single cell walks its own sum in k, in blocks
of steps when the walk is long.  A whole table at one length is not
summed cell by cell: its heady half is filled at n and at n + 1, each
from its five lowest cells by an order-5 recurrence in the score s, one
exact division per cell (see _score_recurrence), and the taily half is
their difference by the appended-head identity.  closed_distribution
keeps the two lists of its last table, whose sum is the fill at n + 1,
so a table at the next length fills only at its own n + 1: an ascending
sweep fills once per length.  The win tallies need no table: all four
follow from the win gap at n and at n - 1, two single cells (see
win_odds).  Each walk runs over its own range of k, from max(lead, -s)
to a third of its spare budget, so no binomial is ever taken out of
range, and a cell outside its supported score range has an empty range
and sums to 0.  Those ranges, the dense lists a table is built from and
the length check belong to the table type in core, which every route shares:
no other route loads this module to shape its table.

The three series functions, heady_close_calls, win_gap and win_gap_step,
also read from one P-recursive stream (see _series): a loop over
ascending lengths resumes it with one step per length instead of a fresh
sum, and a length far from where the stream stands walks its closed form
as above.  heady_count, taily_count, closed_distribution and win_odds
never read the stream, so they stay an independent path to every series
value.
"""

from __future__ import annotations

from operator import add, sub
from typing import NamedTuple

from . import _score_recurrence, _series, _summands
from .core import ScoreDistribution, heady_support, require_length


def heady_count(s: int, n: int) -> int:
    """Number of length-n sequences with score s that end in heads.

    Summed over the number k of heads-tails pairs; a sequence scoring s
    with k such pairs has k + s heads-heads pairs, C(2k + s, k) orderings
    of its scoring pairs and C(n - s - 1 - 2k, k) placements of the spare
    tails.
    """
    require_length(n)
    return _summands.cell(s, n, 0)


def taily_count(s: int, n: int) -> int:
    """Number of length-n sequences with score s that end in tails.

    The all-tails sequence is the lone taily sequence with no scoring
    pair, hence the s == 0 indicator outside the sum.  Sequences inside
    the sum have k >= 1 heads-tails pairs, the last of which must close
    the sequence, leaving C(2k + s - 1, k - 1) orderings.
    """
    require_length(n)
    return _summands.cell(s, n, 1)


# the dense (n, heady, taily) lists of the last table closed_distribution
# built, -1 before the first; written once per call, read once
_last: tuple[int, list[int], list[int]] = (-1, [], [])


def closed_distribution(n: int) -> ScoreDistribution:
    """Full score distribution at length n from the closed forms.

    The heady half is filled at n and at n + 1, each seeded with its
    five lowest cells and stepped upward over its support by the frozen
    order-5 recurrence in s, one exact division per cell (see
    _score_recurrence).  The taily half follows by the appended-head
    identity taily_count(s, n) = heady_count(s, n + 1) - heady_count(s - 1, n),
    all-tails cell included; the cells equal heady_count and taily_count.

    Resume.  The call keeps the dense lists it built the table from.  A
    call at the next length takes its heady half as their sum, taily(s) +
    heady(s - 1), which is exactly the fill at n + 1 that the call before
    made, and fills only at its own n + 1: an ascending sweep over L
    lengths makes L + 1 fills, not 2L.  Any other length fills twice.  The
    kept lists hold the very ints of the returned table, so once the
    caller drops its table, at most that one table stays alive until the
    next call.  The state is read once at the start and written once at
    the end, as _series' cursor is: concurrent callers can lose a resume,
    but none can see a torn state.
    """
    global _last
    # before the resume test: the start state (-1, [], []) looks like n - 1
    # at n = 0
    require_length(n)
    m, was_heady, was_taily = _last
    if m == n - 1:
        half = map(add, was_taily, [0, *was_heady])
    else:
        half = _score_recurrence.fill(n)
    heady = [0] * (heady_support(n)[0] + n // 2) + list(half)     # from -(n // 2)
    taily = list(map(sub, _score_recurrence.fill(n + 1), [0, *heady]))
    _last = (n, heady, taily)
    return ScoreDistribution.from_lists(n, heady, taily)


def heady_close_calls(n: int) -> int:
    """Number of length-n sequences with score one that end in heads.

    Defined for n >= 2.  Near the series cursor the value is read from the
    stream as y[n + 1] / 2 (see _series); elsewhere it is heady_count(1, n),
    walked as that cell.  verify holds both to the close-call census, which
    groups the sequences by their number of heads runs.
    """
    require_length(n, 2)
    got = _series.read(n + 1)
    return _summands.cell(1, n, 0) if got is None else got[0] // 2


def win_gap(n: int) -> int:
    """Bob-winning sequences minus Alice-winning sequences at length n.

    Computed through the single cell the whole gap collapses onto, the
    score minus-one heady count, or near the series cursor read from the
    stream as (y[1] + ... + y[n]) / 2 (see _series).  win_odds walks the
    same cell and never reads the stream, and verify holds both to the
    band sums of the full table.  Defined for n >= 2.
    """
    require_length(n, 2)
    got = _series.read(n)
    return _summands.cell(-1, n, 0) if got is None else got[1] // 2


def win_gap_step(n: int) -> int:
    """Growth of the win gap from length n - 1 to n.  Defined for n >= 3.

    The recursive identity: the gap grows by the close-call count one
    length back, so win_gap_step(n) is heady_close_calls(n - 1), read from
    the stream as y[n] / 2 or walked as heady_count(1, n - 1).
    """
    require_length(n, 3)
    return heady_close_calls(n - 1)


def decimal_ratio(num: int, den: int, digits: int) -> str:
    """Exact decimal rendering of num / den, rounded half to even.

    Integer long division end to end; no floating point touches the
    value, so the rendering is faithful for arbitrarily large operands.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    if digits < 1:
        raise ValueError("digits must be at least 1")
    sign = "-" if num < 0 else ""
    scaled, rem = divmod(abs(num) * 10 ** digits, den)
    if 2 * rem > den or (2 * rem == den and scaled % 2 == 1):
        scaled += 1
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


class WinOdds(NamedTuple):
    """Win, loss and tie counts for one length, with share renderings.

    Shares are exact decimal strings of count / 2**n rounded half to even
    in the final digit.
    """

    n: int
    alice: int
    bob: int
    ties: int
    gap: int
    digits: int
    alice_share: str
    bob_share: str
    tie_share: str
    gap_share: str

    @property
    def total(self) -> int:
        return 1 << self.n


# most decimal places win_odds renders: its four shares of 10**7 digits
# print in about 0.3 s and a 120 MB process, and both grow linearly
MAX_DIGITS = 10 ** 7


def win_odds(n: int, digits: int = 6) -> WinOdds:
    """Aggregate wins, losses and ties at length n from two gap cells.

    With D(n) = heady_count(-1, n) the win gap, and D(0) = 0,

        gap = D(n),  bob = 2**(n - 1) - 1 - D(n - 1),
        alice = bob - gap,  ties = 2 + 2·D(n - 1) + D(n).

    The ties are heady_count(0, n) = 1 + 2·D(n - 1) plus taily_count(0, n)
    = 1 + D(n): with y the algebraic series of _series, the score-zero
    cells have the generating functions z·y / (1 - z) and
    z / (1 - z) + (y - 1) / (2(1 - z)), and 2·D(n) = y[1] + ... + y[n].
    Bob and Alice follow from alice + bob + ties = 2**n and bob - alice
    = gap.  Both cells are walked by _summands.cell, never read from the
    stream, so win_odds stays an independent path to win_gap; verify
    holds all four counts to the band sums of the full table.  digits
    below 1 or past MAX_DIGITS is refused before any cell is walked.
    """
    require_length(n)
    if digits < 1:
        raise ValueError("digits must be at least 1")
    if digits > MAX_DIGITS:
        raise ValueError(f"digits={digits} exceeds the limit of {MAX_DIGITS} decimal places")
    gap, before = _summands.cell(-1, n, 0), _summands.cell(-1, n - 1, 0)
    bob = (1 << (n - 1)) - 1 - before
    alice = bob - gap
    ties = 2 + 2 * before + gap
    den = 1 << n
    # a count over 2**n ends within n decimals, so any digit past the n-th
    # is exactly 0 and no rounding reaches it: pad instead of dividing
    shown = min(digits, n)
    pad = "0" * (digits - shown)
    return WinOdds(
        n=n,
        alice=alice,
        bob=bob,
        ties=ties,
        gap=gap,
        digits=digits,
        alice_share=decimal_ratio(alice, den, shown) + pad,
        bob_share=decimal_ratio(bob, den, shown) + pad,
        tie_share=decimal_ratio(ties, den, shown) + pad,
        gap_share=decimal_ratio(gap, den, shown) + pad,
    )
