"""One-length score tables by a recurrence in the score.

At a fixed length n, each half of the score table obeys one linear
recurrence in the score s with polynomial coefficients,

    p0(s, n)·c(s) + p1(s, n)·c(s + 1) + ... + p5(s, n)·c(s + 5) = 0,

where c(s) is heady_count(s, n), or taily_count(s, n) with its all-tails
indicator, for every integer s: the zeros outside the support obey it
too, so no score needs a case of its own.  The coefficients are frozen in
HEADY and TAILY below, where row a of block i holds the coefficients of
s**a·n**0, s**a·n**1, ... in p_i:

- heady: order 5, degree 4 in s and 4 in n, 86 nonzero integers, the
  largest 1060;
- taily: order 5, degree 4 in s and 5 in n, 110 nonzero integers, the
  largest 6648.  Degree 4 in n has no solution.

Derivation, by guessing (Kauers, "Guessing Handbook", RISC report 09-07,
2009).  The unknowns are the coefficients of s**a·n**b in each p_i, 150
for the heady half and 180 for the taily one.  Each pair (n, s) with
n = 20 .. 43 and s from 8 below the half's support to 8 above it gives
one linear equation in them, with the exact cells (zeros outside the
support) as its coefficients: 1500 heady and 1464 taily equations.
Modulo the prime 2**61 - 1 each system has a nullspace of dimension 1.
Rational reconstruction of its vector, scaled so that one coordinate is 1,
then scaling to coprime integers gives the tables; every equation holds
over the integers.  The tests hold the fill to the dynamic program at
every n <= 700 and to the single cells far beyond that.  A proof, by a
creative-telescoping certificate (Petkovšek, Wilf & Zeilberger, A = B,
1996, ch. 6), is still open.

The leading coefficients factor as

    heady p5 = (n + 2s + 8)(n + 2s + 9)(2s² + 10s + 10 - n² - 3n),
    taily p5 = (n + 2s + 9)(n + 2s + 10)(2ns² + 16ns + 31n - 8s² - 46s - 66 - n³).

The linear factors vanish only below the supports.  The heady quadratic
vanishes exactly where (2n + 3)² - 2(2s + 5)² = -1, a Pell equation, so
inside the heady support p5 = 0 at (n, s) = (19, 12), (118, 82),
(695, 490), (4058, 2868), (23659, 16728), and on, n growing about
3 + 2√2 times each time.  The taily cubic has no integer zero where the
fill steps, for any n below 2·10**6 (searched by its discriminant).

Fill.  A half is seeded with the five lowest cells of its support, each
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
(itertools.accumulate over itertools.count).  The six heady columns cost
0.8 to 1.0 µs a step against 1.3 to 2.0 µs for Horner's rule in s at
every step, from n = 180 to 5000; at n = 20, 25 steps, the two tie, the
five values and their differences being a fixed cost.  Best of 7 in one
process on a 2-core Xeon, Python 3.11.7, as are the figures below.

Cost of both halves against the walk over every summand of the length
that this fill replaced (about n**2 / 4 summands of up to n bits, so
n**3 in all): 1.5 against 4.0 ms at n = 180, 12 against 245 ms at 1000
and 0.09 against 18 s at 5000.  A quieter run of the same host gave 0.7
against 2.0 ms at 180.  Below about n = 75 the fill's fixed cost (the
coefficients at n, their differences and five seeds, about 35 µs a half)
makes it the slower, 0.15 to 0.18 against 0.03 ms at n = 20, a fraction
of a millisecond a table.
"""

from __future__ import annotations

from itertools import accumulate, count
from operator import mul
from typing import Iterator

from . import _summands

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

TAILY = (
    ((0, 0, 0, 0, 0, 0),
     (360, -267, 49, 3, -1, 0),
     (306, -171, 20, 1, 0, 0),
     (86, -34, 2, 0, 0, 0),
     (8, -2, 0, 0, 0, 0)),
    ((-456, 410, -98, -2, 2, 0),
     (-938, 706, -138, -4, 2, 0),
     (-638, 360, -44, -2, 0, 0),
     (-172, 68, -4, 0, 0, 0),
     (-16, 4, 0, 0, 0, 0)),
    ((-828, -372, 546, -110, -6, 2),
     (-882, -290, 356, -46, -2, 0),
     (-298, -82, 72, -4, 0, 0),
     (-32, -8, 4, 0, 0, 0),
     (0, 0, 0, 0, 0, 0)),
    ((4680, -2988, 311, 97, -11, -1),
     (6234, -3126, 200, 54, -2, 0),
     (3010, -1204, 46, 8, 0, 0),
     (628, -200, 4, 0, 0, 0),
     (48, -12, 0, 0, 0, 0)),
    ((-120, 106, 26, -10, -2, 0),
     (-382, 129, 23, -9, -1, 0),
     (-304, 65, 12, -1, 0, 0),
     (-86, 18, 2, 0, 0, 0),
     (-8, 2, 0, 0, 0, 0)),
    ((-5940, 1536, 523, -59, -19, -1),
     (-6648, 1480, 382, -22, -4, 0),
     (-2732, 576, 94, -2, 0, 0),
     (-488, 108, 8, 0, 0, 0),
     (-32, 8, 0, 0, 0, 0)),
)


def _columns(lead: int, n: int, lo: int) -> list[Iterator[int]]:
    """p0 .. p5 at length n, each an iterator over s = lo, lo + 1, ..."""
    n_powers = (1, n, n * n, n ** 3, n ** 4, n ** 5)
    s_powers = [(1, s, s * s, s ** 3, s ** 4) for s in range(lo, lo + 5)]
    columns = []
    for block in (HEADY, TAILY)[lead]:
        p = [sum(map(mul, row, n_powers)) for row in block]     # by powers of s
        v0, v1, v2, v3, v4 = [sum(map(mul, p, powers)) for powers in s_powers]
        d1, d2, d3, d4 = v1 - v0, v2 - v1, v3 - v2, v4 - v3     # first differences
        d2, d3, d4 = d2 - d1, d3 - d2, d4 - d3                  # second
        d3, d4 = d3 - d2, d4 - d3                               # third
        columns.append(accumulate(accumulate(accumulate(
            count(d3, d4 - d3), initial=d2), initial=d1), initial=v0))
    return columns


def fill(n: int, lead: int, lo: int, hi: int) -> Iterator[int]:
    """Cells lo .. hi of one half at length n, in ascending score.

    lead 0 is the heady half and 1 the taily one; lo must be the lowest
    score of the half's support, since the fill starts from its five
    lowest cells (see the module docstring).
    """
    seeds = [_summands.cell(s, n, lead) for s in range(lo, min(lo + 5, hi + 1))]
    yield from seeds
    if hi - lo < 5:
        return
    h0, h1, h2, h3, h4 = seeds
    for s, a0, a1, a2, a3, a4, a5 in zip(range(lo + 5, hi + 1), *_columns(lead, n, lo)):
        num = a0 * h0 + a1 * h1 + a2 * h2 + a3 * h3 + a4 * h4
        try:
            h, rem = divmod(num, -a5)
        except ZeroDivisionError:
            h, rem = _summands.cell(s, n, lead), num
        if rem:
            raise AssertionError(
                f"inexact score step to s={s} at n={n} (lead {lead}): remainder {rem}")
        yield h
        h0, h1, h2, h3, h4 = h1, h2, h3, h4, h
