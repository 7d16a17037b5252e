"""One-length score tables by a recurrence in the score.

At a fixed length n, the heady half of the score table obeys one linear
recurrence in the score s with polynomial coefficients,

    p0(s, n)·c(s) + p1(s, n)·c(s + 1) + ... + p5(s, n)·c(s + 5) = 0,

where c(s) is heady_count(s, n), for every integer s: the zeros outside
the support obey it too, so no score needs a case of its own.  The
coefficients are frozen in HEADY below, where row a of block i holds the
coefficients of s**a·n**0, s**a·n**1, ... in p_i: order 5, degree 4 in s
and 4 in n, 86 nonzero integers, the largest 1060.  The taily half needs
no recurrence of its own: an appended head leaves a taily sequence's
score alone and raises a heady one's by one, so

    taily_count(s, n) = heady_count(s, n + 1) - heady_count(s - 1, n),

and counting.closed_distribution fills the heady half at n and at n + 1.

Derivation, by guessing (Kauers, "Guessing Handbook", RISC report 09-07,
2009).  The unknowns are the 150 coefficients of s**a·n**b in the p_i.
Each pair (n, s) with n = 20 .. 43 and s from 8 below the support to 8
above it gives one linear equation in them, with the exact cells (zeros
outside the support) as its coefficients: 1500 equations.  Modulo the
prime 2**61 - 1 the system has a nullspace of dimension 1.  Rational
reconstruction of its vector, scaled so that one coordinate is 1, then
scaling to coprime integers gives the table; every equation holds over
the integers.  The tests hold the fill to the dynamic program at every
n <= 700 and to the single cells far beyond that.  A proof, by a
creative-telescoping certificate (Petkovšek, Wilf & Zeilberger, A = B,
1996, ch. 6), is still open.

The leading coefficient factors as

    p5 = (n + 2s + 8)(n + 2s + 9)(2s² + 10s + 10 - n² - 3n).

The linear factors vanish only below the support.  The quadratic
vanishes exactly where (2n + 3)² - 2(2s + 5)² = -1, a Pell equation, so
inside the support p5 = 0 at (n, s) = (19, 12), (118, 82), (695, 490),
(4058, 2868), (23659, 16728), and on, n growing about 3 + 2√2 times
each time.  A table at length n meets these zeros in its fill at n and
in its fill at n + 1, so at n = 18, 117, 694, 4057, ... too.

Fill.  The half is seeded with the five lowest cells of its support, each
summed by _summands.cell (few terms there), and stepped upward: c(s + 5)
is minus the other five products divided by p5(s, n).  Each step is one
divmod, and a remainder raises AssertionError, since only a wrong
coefficient or seed can leave one.  Where p5(s, n) = 0 the cell is summed
by _summands.cell instead, and the five products must then add up to 0,
which is checked the same way.

The coefficients at a length cost no multiplication per step.  Each p_i
is evaluated at n, then at the five lowest scores, and the forward
differences of those five values start its column: Δ³p_i is linear in s,
so the column is three running sums over an arithmetic progression
(itertools.accumulate over itertools.count).  The six columns cost
0.8 to 1.0 µs a step against 1.3 to 2.0 µs for Horner's rule in s at
every step, from n = 180 to 5000; at n = 20, 25 steps, the two tie, the
five values and their differences being a fixed cost.  Best of 7 in one
process on a 2-core Xeon, Python 3.11.7, as are the figures below.

Cost of a table, both fills and their difference, against walking each
of its cells by _summands.cell (about n**2 / 4 summands of up to n bits
in all): 0.12 against 0.05 ms at n = 10, 0.16 against 0.13 ms at 20,
0.18 against 0.20 ms at 25, 0.39 against 1.5 ms at 80, 0.9 against
7.2 ms at 180 and 9.5 against 630 ms at 1000.  Below about n = 25 the
fixed cost of a fill (the coefficients at n, their differences and five
seeds) makes the table the slower, by a fraction of a millisecond.  In
an ascending sweep a table fills only at n + 1 (see
counting.closed_distribution): 0.07 ms at n = 10, 0.09 at 20, 0.21 at
80, 0.45 at 180, 5.5 at 1000 and 69 against 122 ms at 5000.  Lowest of
three runs of best of 7 (best of 3 to 5 from n = 1000 on).
"""

from __future__ import annotations

from itertools import accumulate, count
from operator import mul
from typing import Iterator

from . import _summands
from .core import heady_support

HEADY = (
    ((-22, 25, -2, -1, 0),
     (-58, 42, -1, -1, 0),
     (-52, 19, 1, 0, 0),
     (-18, 2, 0, 0, 0),
     (-2, 0, 0, 0, 0)),
    ((30, -57, 12, 3, 0),
     (106, -92, 4, 2, 0),
     (102, -40, -2, 0, 0),
     (36, -4, 0, 0, 0),
     (4, 0, 0, 0, 0)),
    ((166, 7, -60, 5, 2),
     (202, 60, -40, -2, 0),
     (74, 34, -4, 0, 0),
     (8, 4, 0, 0, 0),
     (0, 0, 0, 0, 0)),
    ((-554, 253, 27, -13, -1),
     (-938, 220, 36, -2, 0),
     (-550, 58, 8, 0, 0),
     (-136, 4, 0, 0, 0),
     (-12, 0, 0, 0, 0)),
    ((-92, -58, -16, -2, 0),
     (-28, -34, -11, -1, 0),
     (38, 3, -1, 0, 0),
     (18, 2, 0, 0, 0),
     (2, 0, 0, 0, 0)),
    ((720, -46, -113, -20, -1),
     (1060, 108, -36, -4, 0),
     (524, 62, -2, 0, 0),
     (108, 8, 0, 0, 0),
     (8, 0, 0, 0, 0)),
)

def _columns(n: int, lo: int) -> list[Iterator[int]]:
    """p0 .. p5 at length n, each an iterator over s = lo, lo + 1, ..."""
    n_powers = (1, n, n * n, n ** 3, n ** 4)
    s_powers = [(1, s, s * s, s ** 3, s ** 4) for s in range(lo, lo + 5)]
    columns = []
    for block in HEADY:
        p = [sum(map(mul, row, n_powers)) for row in block]     # by powers of s
        v0, v1, v2, v3, v4 = [sum(map(mul, p, powers)) for powers in s_powers]
        d1, d2, d3, d4 = v1 - v0, v2 - v1, v3 - v2, v4 - v3     # first differences
        d2, d3, d4 = d2 - d1, d3 - d2, d4 - d3                  # second
        d3, d4 = d3 - d2, d4 - d3                               # third
        columns.append(accumulate(accumulate(accumulate(
            count(d3, d4 - d3), initial=d2), initial=d1), initial=v0))
    return columns


def fill(n: int) -> Iterator[int]:
    """The heady half at length n over its support, in ascending score.

    The range is core.heady_support(n): the fill starts from its five
    lowest cells (see the module docstring) and stops at the all-heads
    cell, so no other range can be asked for.
    """
    lo, hi = heady_support(n)
    seeds = [_summands.cell(s, n, 0) for s in range(lo, min(lo + 5, hi + 1))]
    yield from seeds
    if hi - lo < 5:
        return
    h0, h1, h2, h3, h4 = seeds
    for s, a0, a1, a2, a3, a4, a5 in zip(range(lo + 5, hi + 1), *_columns(n, lo)):
        num = a0 * h0 + a1 * h1 + a2 * h2 + a3 * h3 + a4 * h4
        try:
            h, rem = divmod(num, -a5)
        except ZeroDivisionError:
            h, rem = _summands.cell(s, n, 0), num
        if rem:
            raise AssertionError(
                f"inexact score step to s={s} at n={n}: remainder {rem}")
        yield h
        h0, h1, h2, h3, h4 = h1, h2, h3, h4, h
