"""Ground truth by exhausting all 2**n sequences of one length.

This module is the referee for the analytic paths and shares nothing with
them beyond the plain data types.  Sequences pack into machine words,
toss i at bit i - 1, so the space of one length is a plain integer range
that numpy sweeps in blocks: aligned runs of a power of two words, at most
_CHUNK of them, that share their top bit and so their final toss.  Every
block reuses the same few buffers, so memory is bounded by the block size,
not by 2**n.  numpy is imported by the functions that sweep, so importing
this module, and the package, does not load it.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from typing import TYPE_CHECKING

from .core import CloseCallTable, ScoreDistribution, TossSequence, close_call_buckets

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CAP = 24
CAP_ENV_VAR = "STREAKCOUNT_ORACLE_CAP"

# the word range [0, 2**n) is swept as uint64, whose end 2**n must itself
# fit, so no cap can admit a longer sequence
MAX_N = 63

# the most words in one block of the sweep: each of its five buffers holds
# one block, so a sweep's memory stays near 2 MB whatever n is, and the
# per-block interpreter overhead is already small at this size; a power of
# two, so that blocks stay aligned and each shares one final toss
_CHUNK = 1 << 16


class OracleCapExceeded(ValueError):
    """Enumeration request beyond the safety cap or the word size (MAX_N)."""


def effective_cap(cap: int | None = None) -> int:
    """The cap in force: explicit argument, else environment, else default."""
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_CAP


def _checked(n: int, cap: int | None) -> None:
    if n < 1:
        raise ValueError(f"sequence length must be at least 1, got {n}")
    if n > MAX_N:
        raise OracleCapExceeded(
            f"n={n} exceeds the oracle's hard limit of {MAX_N}: sequences are "
            f"packed into 64-bit words, whatever the cap")
    limit = effective_cap(cap)
    if n > limit:
        raise OracleCapExceeded(
            f"n={n} exceeds the enumeration cap of {limit}; raise it with the "
            f"cap argument, the --oracle-cap flag, or {CAP_ENV_VAR}")


def bits_to_word(bits: TossSequence) -> int:
    word = 0
    for i, b in enumerate(bits):
        if b:
            word |= 1 << i
    return word


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


def _blocks(n: int, finals: tuple[int, ...] = (0, 1)
            ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Sweep the words of length n ending in each of finals, block by block.

    Yields (final toss, words, scores) per block.  A block is an aligned run
    of min(_CHUNK, 2**(n-1)) words, so all its words share their top bit,
    the final toss.  Both arrays are buffers the next block overwrites; a
    caller keeps what it needs before advancing.
    """
    import numpy as np

    size = min(_CHUNK, 1 << (n - 1))
    base = np.arange(size, dtype=np.uint64)
    words = np.empty_like(base)
    pairs = np.empty_like(base)
    ones = np.empty(size, dtype=np.uint8)
    scores = np.empty(size, dtype=np.intp)
    mask = np.uint64((1 << (n - 1)) - 1)
    for last in finals:
        for lo in range(last << (n - 1), (last + 1) << (n - 1), size):
            np.add(base, np.uint64(lo), out=words)
            # hh + ht counts the heads among the first n - 1 tosses, so the
            # score hh - ht is 2 hh minus that count
            np.right_shift(words, 1, out=pairs)
            np.bitwise_and(pairs, words, out=pairs)
            np.bitwise_and(pairs, mask, out=pairs)
            np.bitwise_count(pairs, out=scores)
            np.left_shift(scores, 1, out=scores)
            np.bitwise_and(words, mask, out=pairs)
            np.bitwise_count(pairs, out=ones)
            np.subtract(scores, ones, out=scores)
            yield last, words, scores


def enumerate_distribution(n: int, cap: int | None = None) -> ScoreDistribution:
    """Tally every length-n sequence by (score, final toss).

    The word range is swept in aligned blocks whose partial tallies are
    summed, so the result is independent of the block size.  Blocks never
    exceed _CHUNK words, which bounds the sweep's memory at a few MB for
    any n.
    """
    _checked(n, cap)
    import numpy as np

    offset = n // 2                       # shift scores onto nonnegative bins
    bins = n + offset
    totals = np.zeros((2, bins), dtype=np.int64)
    for last, _, scores in _blocks(n):
        np.add(scores, offset, out=scores)
        totals[last] += np.bincount(scores, minlength=bins)
    taily, heady = ({s - offset: c for s, c in enumerate(row) if c}
                    for row in totals.tolist())
    return ScoreDistribution(n, heady, taily)


def close_call_table(n: int, cap: int | None = None) -> CloseCallTable:
    """Close-call buckets of the enumerated distribution."""
    return close_call_buckets(enumerate_distribution(n, cap=cap))


def win_gap(n: int, cap: int | None = None) -> int:
    """Bob's wins minus Alice's, straight off the enumeration."""
    return enumerate_distribution(n, cap=cap).win_gap()


def sequences_with(n: int, score_value: int, mode: str,
                   cap: int | None = None) -> list[TossSequence]:
    """Every length-n sequence with the given score and final toss.

    Ordered ascending by packed word.  Only the half of the word range with
    that final toss is swept.
    """
    if mode not in ("heady", "taily"):
        raise ValueError(f"mode must be 'heady' or 'taily', got {mode!r}")
    _checked(n, cap)
    import numpy as np

    want_last = 1 if mode == "heady" else 0
    hits = [words[scores == score_value]
            for _, words, scores in _blocks(n, (want_last,))]
    found = np.concatenate(hits)
    # one pass unpacks every member: row j holds toss j + 1 of each member,
    # and zip turns the rows into one tuple per member
    tosses = (found >> np.arange(n, dtype=np.uint64)[:, None]) & np.uint64(1)
    return list(zip(*tosses.tolist()))
