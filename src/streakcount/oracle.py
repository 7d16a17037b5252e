"""Ground truth by exhausting all 2**n sequences of one length.

This module is the referee for the analytic paths and shares nothing with
them beyond the plain data types.  Sequences pack into machine words,
toss i at bit i - 1, so the space of one length is a plain integer range
that numpy sweeps in fixed-size blocks.  numpy is imported by the
functions that sweep, so importing this module, and the package, does not
load it.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from .core import CloseCallTable, ScoreDistribution, TossSequence, close_call_buckets

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CAP = 24
CAP_ENV_VAR = "STREAKCOUNT_ORACLE_CAP"

# the word range [0, 2**n) is swept as uint64, whose end 2**n must itself
# fit, so no cap can admit a longer sequence
MAX_N = 63

# block size of the vectorized sweep; bounds peak memory, never results
_CHUNK = 1 << 20


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


def _scores_and_last(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    one = np.uint64(1)
    if n > 1:
        mask = np.uint64((1 << (n - 1)) - 1)
        shifted = words >> one
        hh = np.bitwise_count(words & shifted & mask).astype(np.int64)
        ht = np.bitwise_count(words & ~shifted & mask).astype(np.int64)
        scores = hh - ht
    else:
        scores = np.zeros(words.shape, dtype=np.int64)
    last = ((words >> np.uint64(n - 1)) & one).astype(np.int64)
    return scores, last


def enumerate_distribution(n: int, cap: int | None = None,
                           chunk: int = _CHUNK) -> ScoreDistribution:
    """Tally every length-n sequence by (score, final toss).

    The word range is cut into disjoint blocks whose partial tallies are
    summed, so the result is independent of the block size.
    """
    _checked(n, cap)
    if chunk < 1:
        raise ValueError(f"chunk size must be positive, got {chunk}")
    import numpy as np

    offset = n // 2                       # shift scores onto nonnegative bins
    bins = 2 * (n - 1 + offset) + 2
    totals = np.zeros(bins, dtype=np.int64)
    for lo in range(0, 1 << n, chunk):
        hi = min(lo + chunk, 1 << n)
        words = np.arange(lo, hi, dtype=np.uint64)
        scores, last = _scores_and_last(words, n)
        idx = (scores + offset) * 2 + last
        totals += np.bincount(idx, minlength=bins)
    heady: dict[int, int] = {}
    taily: dict[int, int] = {}
    for i, c in enumerate(totals.tolist()):
        if not c:
            continue
        s, ends_heads = divmod(i, 2)
        target = heady if ends_heads else taily
        target[s - offset] = c
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

    Ordered ascending by packed word.
    """
    if mode not in ("heady", "taily"):
        raise ValueError(f"mode must be 'heady' or 'taily', got {mode!r}")
    _checked(n, cap)
    import numpy as np

    want_last = 1 if mode == "heady" else 0
    out: list[TossSequence] = []
    for lo in range(0, 1 << n, _CHUNK):
        hi = min(lo + _CHUNK, 1 << n)
        words = np.arange(lo, hi, dtype=np.uint64)
        scores, last = _scores_and_last(words, n)
        hits = words[(scores == score_value) & (last == want_last)]
        out.extend(word_to_bits(int(w), n) for w in hits)
    return out
