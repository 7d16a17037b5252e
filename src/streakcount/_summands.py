"""The summands of the closed forms, and their exact term ratios.

Every closed form in counting sums, over an index k, a product of two
binomials.  Each product is a hypergeometric term: term k + 1 is term k
times a ratio of polynomials in k.  So a whole sum needs one starting term
and then one multiply-then-divide per step, never a fresh binomial.  The
division is exact because both neighbouring terms are integers and every
term inside a summation range is nonzero.

The heady and taily summands are one summand: the taily one is the heady
one with its first binomial shifted one place, so a lead of 0 (heady) or 1
(taily) gives both final tosses:

- heady or taily, score s, spare budget m = n - s - 1 + lead:
                                       C(2k + s - lead, k - lead) * C(m - 2k, k)

term gives its product at one k, and ratios is the one place that knows
its step in k: the stream of (p, q) with term k + 1 = term k * p / q over
the summation range max(lead, -s) <= k <= m // 3.  Every cell walks that
stream with term_sum, from term at the range's first k.  Where the first
binomial is central or half of one, at σ = s + lead in -1, 0, 1 (the gap
cell, which wins walks at n and n - 1, and the close-call cell among
them), its step shares a linear factor top and bottom, and ratios yields
that step with the factor cancelled; every other walk yields the step as
it is written out.

A walk term by term makes one multiply and one checked divide of an n-bit
integer per step, so a long walk goes BLOCK = 32 steps at a time instead
(block_sum): from term t, the block's ratio P / Q and the sum N / Q of its
terms over t are built from the steps' small (p, q) pairs, cut by their
gcd, and the block adds t * N / Q and steps to t * P / Q, one bigint
multiply and one divmod each.  Both quotients are a sum of integer terms
and an integer term, so each division is exact, and in either walk a
remainder raises AssertionError.  The cut leaves the block's fractions 19
to 35 bits a step (median over a walk's blocks) where a single step's p
and q carry 48 to 70, or 40 to 58 with the common factor cancelled (mean
over a walk, n = 3000 to 50000), which is where the saving comes from: at
n = 20000 to 50000 a walk costs 0.30 to 0.37 times the term-by-term one.
A cancelled factor is work neither walk does: with it cancelled the gap
cell takes 0.75 to 0.93 times as long at n = 300 to 20000 (best of 15,
interleaved), and 0.98 at 50000, where the bigint steps dominate.
Building a block costs more Python work per step, so blocks pay only from
BLOCKED_FROM = 400 steps (n about 1200), where the two break even for
either kind of step; shorter walks go term by term.  Against the checked
term walk a blocked walk costs 1.15 to 1.18 times as much at 200 steps,
0.98 to 1.00 at 400 and 0.80 to 0.81 at 800 at s = 5, and 1.17 to 1.25,
1.01 to 1.02 and 0.76 to 0.77 at s = -1 (median of 15 bests of seven in
process, two runs, 2-core Xeon, Python 3.11.7).

A whole table at one length is not summed here cell by cell: only the
five lowest heady cells at n and at n + 1 are summed, with cell, the rest
of each follow by the recurrence in the score (see _score_recurrence),
and the taily half is their difference (see counting.closed_distribution).
"""

from __future__ import annotations

from itertools import islice
from math import comb, gcd
from typing import Iterator

# a walk of at least BLOCKED_FROM ratio steps is summed BLOCK steps at a
# time, a shorter one term by term (the break-even is measured above)
BLOCKED_FROM = 400
BLOCK = 32


def term(s: int, m: int, k: int, lead: int) -> int:
    """C(2k + s - lead, k - lead) * C(m - 2k, k): lead 0 heady, 1 taily;
    max(lead, -s) <= k <= m // 3."""
    return comb(2 * k + s - lead, k - lead) * comb(m - 2 * k, k)


def ratios(s: int, m: int, lead: int) -> Iterator[tuple[int, int]]:
    """(p, q) with term(s, m, k + 1, lead) = term(s, m, k, lead) * p / q,
    for k = max(lead, -s) .. m // 3 - 1.

    Term k + 1 over term k is C(b + 2, k + 1 - lead) / C(b, k - lead) times
    C(c - 2, k + 1) / C(c, k), with b = 2k + s - lead and c = m - 2k,
    written out with a = m - 3k, and a, b and c carried from step to step,
    so that a step costs no call.  The first factor is (b + 2)(b + 1) over
    (d - lead)(d + s), with d = k + 1.

    At σ = s + lead in -1, 0, 1 the first binomial is C(2j + σ, j) with
    j = k - lead, a central binomial or half of one, and one linear factor
    of its step's numerator is twice one of its denominator: b + 1 =
    2(d + s) at σ = -1, b + 2 = 2(d - lead) at σ = 0 and b + 1 = 2(d - lead)
    at σ = 1.  Those walks yield the step with that factor cancelled, the
    first factor 2(b + 2) / (d - lead), 2(b + 1) / (d + s) or
    2(b + 2) / (d + s), so no block carries it into its products only for
    the gcd to take it out again.  No other σ has a common factor.
    """
    k = max(lead, -s)
    a, b, c = m - 3 * k, 2 * k + s - lead, m - 2 * k
    sigma = s + lead
    if -1 <= sigma <= 1:
        x = 2 * (b + 1 if sigma == 0 else b + 2)
        f = -lead if sigma == -1 else s
        for d in range(k + 1, m // 3 + 1):
            yield x * a * (a - 1) * (a - 2), (d + f) * d * c * (c - 1)
            x += 4
            a -= 3
            c -= 2
        return
    for d in range(k + 1, m // 3 + 1):      # d = k + 1
        yield (b + 2) * (b + 1) * a * (a - 1) * (a - 2), (d - lead) * (d + s) * d * c * (c - 1)
        a -= 3
        b += 2
        c -= 2


def term_sum(s: int, m: int, lead: int) -> int:
    """The sum of term(s, m, k, lead) over max(lead, -s) <= k <= m // 3,
    stepped by ratios(s, m, lead): term by term, or in blocks when the walk
    is long.  A remainder raises AssertionError, since only a wrong first
    term or ratio can leave one.
    """
    k, k_hi = max(lead, -s), m // 3
    if k > k_hi:
        return 0
    total = value = term(s, m, k, lead)
    if k_hi - k >= BLOCKED_FROM:
        return block_sum(value, k, k_hi, ratios(s, m, lead))
    for p, q in ratios(s, m, lead):
        value, rem = divmod(value * p, q)
        if rem:
            raise AssertionError(
                f"inexact term step: s={s} m={m} lead={lead}: remainder {rem}")
        total += value
    return total


def cell(s: int, n: int, lead: int) -> int:
    """heady_count(s, n) for lead 0, taily_count(s, n) for lead 1, by one walk.

    The taily count adds the all-tails indicator at s == 0 to its sum.
    """
    return (1 if lead and s == 0 else 0) + term_sum(s, n - s - 1 + lead, lead)


def block_sum(first: int, k: int, k_hi: int, steps: Iterator[tuple[int, int]]) -> int:
    """first, the term at k, plus the terms k + 1 .. k_hi, BLOCK steps at a time.

    steps yields the (p, q) of each step, term j + 1 = term j * p / q for
    j = k .. k_hi - 1; the block step is described at the top of the
    module.  A remainder raises AssertionError, since only a wrong first
    term or ratio can leave one.
    """
    total = value = first
    for k in range(k, k_hi, BLOCK):
        P = Q = 1
        N = 0
        for p, q in islice(steps, BLOCK):
            P *= p
            Q *= q
            N = N * q + P
        g = gcd(N, Q)
        part, rem = divmod(value * (N // g), Q // g)
        if rem:
            raise AssertionError(f"inexact block sum after term {k}: remainder {rem}")
        total += part
        if k + BLOCK < k_hi:
            g = gcd(P, Q)
            value, rem = divmod(value * (P // g), Q // g)
            if rem:
                raise AssertionError(
                    f"inexact block step from term {k} to {k + BLOCK}: remainder {rem}")
    return total

