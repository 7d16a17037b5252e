"""Incremental rebuilds of the score table, one appended toss at a time.

Two routes live here.  The dynamic program keeps two dense lists of
counts, one per final toss, indexed from the lowest score: a head after a
head raises the score, a tail after a head lowers it, anything after a
tail scores nothing, so one appended toss is two shifted list additions.
The term-vector route reads each closed-form sum as two rows.  Term k of a
score-s cell with spare budget m = n - s - 1 + lead is C(2k + s - lead,
k - lead) times C(m - 2k, k), lead 0 heady and 1 taily.  With j = k - lead
and sigma = s + lead the first factor is C(2j + sigma, j) for both leads,
so one coefficient list per heady score sigma serves two cells: heady
sigma and taily sigma - 1.  It never changes with the length, so the list
starts empty and before each read gains one coefficient per j the heady
bound now admits; no cell needs an opening step.  The second factor
depends on m alone, so one budget row [C(m - 2k, k) for k = 0 .. m // 3]
serves every cell with that budget at every length; each row is the one
before stepped in the budget by _grow_rows, the only stepper.  The same
rows hold the first factor: entry j of row 4j + sigma is C(2j + sigma,
j), and the rows a length's reads need already reach every coefficient
it takes (_fill), so one table of binomials serves both factors.  One read
per heady score, _pair, gives both its cells: with j0 = max(0, -sigma),
the list dotted with budget row n - sigma - 1 from index j0 is heady
sigma, and dotted with the row two budgets on from index j0 + 1 it is
taily sigma - 1.  The tables leave as the same dense lists as the DP's.
Inexact division in that path is impossible by construction and treated
as an internal bug, never an input error.

Both routes shape their tables through core alone (the supports, the
dense-list constructor and the length check) and share nothing with the
closed forms they are held to: this module loads only core.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add, mul
from typing import Iterator, Sequence

from .core import ScoreDistribution, heady_support, require_length


_Step = tuple[int, list[int], list[int]]

# the DP at length 1, where every run of steps starts unless it resumes
_FIRST: _Step = (1, [1], [1])


def _dp_steps(n_max: int, start: _Step = _FIRST) -> Iterator[_Step]:
    """(n, heady, taily) for n = start's length .. n_max, as dense lists.

    Both lists are indexed from the lowest score -(n // 2) up to n - 1.
    One appended toss makes heady'[s] = heady[s-1] + taily[s] (a head after
    a head scores for Alice, a head after a tail scores nothing) and
    taily'[s] = taily[s] + heady[s+1] (a tail after a head scores for Bob).
    The lowest score drops by one when n is odd, so the old lists are
    shifted by one more place then.  The yielded lists are never mutated.
    """
    n, heady, taily = start
    yield n, heady, taily
    while n < n_max:
        shift = n & 1
        zeros = [0] * shift
        stay = zeros + taily + [0]       # taily[s] at the new offsets
        heady, taily = (list(map(add, zeros + [0] + heady, stay)),          # + heady[s-1]
                        list(map(add, stay, heady[1 - shift:] + [0, 0])))  # + heady[s+1]
        n += 1
        yield n, heady, taily


def dp_sweep(n_max: int) -> Iterator[ScoreDistribution]:
    """Stream the distribution for every length 1 .. n_max; n_max is
    checked at the call, before the first table."""
    require_length(n_max)
    return (ScoreDistribution.from_lists(*step) for step in _dp_steps(n_max))


# the step behind the last table dp_distribution returned; written once per
# call, read once
_last: _Step = _FIRST


def dp_distribution(n: int) -> ScoreDistribution:
    """Distribution at one length; only the last step becomes a table.

    The call keeps that step and the next call steps on from it when its
    length is not below the step's, from length 1 otherwise, so ascending
    calls take one step per new length.  The kept lists hold the very ints
    of the returned table, so once the caller drops its table, at most that
    one table stays alive until the next call.  The step is read once at
    the start and written once at the end, as _series' cursor is:
    concurrent callers can lose a resume, but none can see a torn state.
    """
    global _last
    require_length(n)
    last = _last
    for step in _dp_steps(n, last if last[0] <= n else _FIRST):
        pass
    _last = step
    return ScoreDistribution.from_lists(*step)


def _birth(lead: int, s: int) -> int:
    """Smallest length at which a score-s cell's sum holds a term.

    That is where its budget n - s - 1 + lead first reaches 3k for its first
    k = j0 + lead, j0 = max(0, -s - lead).  The taily s == 0 indicator lives
    outside the sum and is live from length 1.
    """
    sigma = s + lead
    return 3 * max(0, -sigma) + sigma + 1 + lead


def _grow_rows(rows: list[list[int]], m_max: int) -> list[list[int]]:
    """Extend the budget rows in place to rows[m_max] and return them.

    rows[m] is [C(m - 2k, k) for k = 0 .. m // 3], the factor that every
    heady and taily cell with spare budget m shares.  This is the only
    budget step: from m - 1 to m, C(m - 2k, k) grows by (m - 2k) / (m - 3k),
    so term k gains term * k / (m - 3k), exact since both terms are
    integers; a remainder raises AssertionError, since only a wrong row or
    budget can leave one.  C(k, k) = 1 joins once m reaches 3k.
    """
    for m in range(len(rows), m_max + 1):
        row = []
        for k, term in enumerate(rows[-1]):
            gain, rem = divmod(term * k, m - 3 * k)
            if rem:
                raise AssertionError(
                    f"inexact term update: {term} * {k} / {m - 3 * k} at budget {m}")
            row.append(term + gain)
        if m % 3 == 0:
            row.append(1)
        rows.append(row)
    return rows


def _fill(sigma: int, n: int, coefs: list[int], rows: list[list[int]]) -> list[int]:
    """Extend heady score sigma's coefficients C(2j + sigma, j) in place to
    j = max(0, -sigma) .. (n - sigma - 1) // 3, the heady bound at length n,
    and return them.

    Each is read off the budget rows: entry j of row 4j + sigma is
    C(4j + sigma - 2j, j) = C(2j + sigma, j).  The last j reads row at
    most (4n - sigma - 4) // 3, inside the taily read's n + (n + 1) // 2
    for every sigma of the heady support, sigma >= -((n - 1) // 2).
    """
    j = max(0, -sigma) + len(coefs)
    while 3 * j < n - sigma:
        coefs.append(rows[4 * j + sigma][j])
        j += 1
    return coefs


def _pair(sigma: int, n: int, coefs: Sequence[int], rows: list[list[int]]) -> tuple[int, int]:
    """(heady sigma, taily sigma - 1) at length n, both off heady score
    sigma's coefficients: dotted with budget row m = n - sigma - 1 from
    index j0 = max(0, -sigma) for the heady cell, and with row m + 2 from
    index j0 + 1 for the taily one.

    The taily bound is at most the heady one, so the taily read may leave
    the last coefficient unused; coefs must hold exactly the heady bound's.
    """
    j0 = -sigma if sigma < 0 else 0
    m = n - sigma - 1
    if len(coefs) != m // 3 + 1 - j0:
        raise AssertionError(f"summation bound skipped a step: sigma={sigma} n={n}")
    heady = sum(map(mul, coefs, rows[m][j0:] if j0 else rows[m]))
    taily = sum(map(mul, coefs, rows[m + 2][j0 + 1:]))
    if sigma == 1:
        taily += 1        # the all-tails sequence sits outside the summation
    return heady, taily


def _read_length(n: int, rows: list[list[int]],
                 coefs: defaultdict[int, list[int]]) -> ScoreDistribution:
    """The table at length n, two cells read off each heady score's list.

    rows must reach budget n + (n + 1) // 2, the taily read of the lowest
    heady score.
    """
    lo = -(n // 2)
    heady = [0] * (n - lo)
    taily = [0] * (n - lo)
    taily[-lo] = 1        # the all-tails cell; its list (sigma = 1) starts at n = 2
    for sigma in range(heady_support(n)[0], n):
        heady[sigma - lo], below = _pair(sigma, n, _fill(sigma, n, coefs[sigma], rows), rows)
        if sigma > lo:    # at odd n the lowest heady score has no taily partner
            taily[sigma - 1 - lo] = below
    return ScoreDistribution.from_lists(n, heady, taily)


def table_sweep(n_max: int) -> Iterator[ScoreDistribution]:
    """Stream full distributions for n = 1 .. n_max off shared budget rows.

    The coefficient lists and the rows of C(m - 2k, k) persist across
    lengths: a list only gains a coefficient whenever its heady budget
    reaches 3k, and the rows grow by one or two budgets a length and are
    shared by every cell.  This path is kept as the independent
    cross-check of the closed forms and the DP.  n_max is checked at the
    call, before the first table.
    """
    require_length(n_max)
    rows: list[list[int]] = [[1]]
    coefs: defaultdict[int, list[int]] = defaultdict(list)
    return (_read_length(n, _grow_rows(rows, n + (n + 1) // 2), coefs)
            for n in range(1, n_max + 1))


def incremental_distribution(n: int) -> ScoreDistribution:
    """Distribution at one length off the budget rows up to n + (n + 1) // 2.

    Only length n is read, from fresh lists: each takes all its
    coefficients at once.
    """
    require_length(n)
    return _read_length(n, _grow_rows([[1]], n + (n + 1) // 2), defaultdict(list))
