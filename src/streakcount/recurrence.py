"""Incremental rebuilds of the score table, one appended toss at a time.

Two routes live here.  The dynamic program keeps two dense lists of
counts, one per final toss, indexed from the lowest score: a head after a
head raises the score, a tail after a head lowers it, anything after a
tail scores nothing, so one appended toss is two shifted list additions.
The term-vector route reads each heady closed-form sum as two rows.  Term
j of heady score sigma at length n, with spare budget m = n - sigma - 1,
is C(2j + sigma, j) times C(m - 2j, j), so one coefficient list per heady
score serves its one cell at every length.  The list never changes with
the length, so it starts empty and before each read gains one coefficient
per j the heady bound now admits; no cell needs an opening step.  The
second factor depends on m alone, so one budget row [C(m - 2k, k) for
k = 0 .. m // 3] serves every cell with that budget at every length; each
row is the one before stepped in the budget by _grow_rows, the only
stepper.  The same rows hold the first factor: entry j of row 4j + sigma
is C(2j + sigma, j), and the rows a length's reads need already reach
every coefficient it takes (_fill), so one table of binomials serves both
factors.  One read per heady score, _heady, dots the list with budget row
m from index j0 = max(0, -sigma).  No taily sum is read: an appended head
keeps a taily sequence's score and raises a heady one's by one, so
taily(s, n) = heady(s, n + 1) - heady(s - 1, n), and a table at length n
is its heady half read at n and at n + 1, which takes rows up to budget
n + n // 2.  The closed forms take their taily half by the same identity,
but each route makes its own subtraction, so verify's method-agreement
still sees a slip in either.  The tables leave as the same dense lists as
the DP's.  Inexact division in that path is impossible by construction and
treated as an internal bug, never an input error.

Both routes shape their tables through core alone (the supports, the
dense-list constructor and the length check) and share nothing with the
closed forms they are held to: this module loads only core.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import pairwise
from operator import add, mul, sub
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
    most (4n - sigma - 4) // 3, which falls as sigma rises; at the lowest
    heady score, sigma = -t with t = (n - 1) // 2 and n - 1 = 2t or
    2t + 1, it is 3t or 3t + 1, which is n - 1 + t, the budget that
    score's own read dots.  So the rows a heady half reads reach every
    coefficient it takes.
    """
    j = max(0, -sigma) + len(coefs)
    while 3 * j < n - sigma:
        coefs.append(rows[4 * j + sigma][j])
        j += 1
    return coefs


def _heady(sigma: int, n: int, coefs: Sequence[int], rows: list[list[int]]) -> int:
    """Heady score sigma at length n: its coefficients dotted with budget
    row n - sigma - 1 from index j0 = max(0, -sigma).

    coefs must hold exactly the heady bound's coefficients.
    """
    j0 = -sigma if sigma < 0 else 0
    m = n - sigma - 1
    if len(coefs) != m // 3 + 1 - j0:
        raise AssertionError(f"summation bound skipped a step: sigma={sigma} n={n}")
    return sum(map(mul, coefs, rows[m][j0:] if j0 else rows[m]))


def _heady_half(n: int, rows: list[list[int]],
                coefs: defaultdict[int, list[int]]) -> list[int]:
    """The heady cells at length n over the heady support, ascending, one
    read per score.

    rows must reach budget n - 1 + (n - 1) // 2, the read of the lowest
    heady score.
    """
    return [_heady(sigma, n, _fill(sigma, n, coefs[sigma], rows), rows)
            for sigma in range(heady_support(n)[0], n)]


def _table(n: int, heady: list[int], above: list[int]) -> ScoreDistribution:
    """The table at length n from the heady halves at n and at n + 1, each
    over its support.

    An appended head keeps a taily sequence's score and raises a heady
    one's by one, so taily(s, n) = heady(s, n + 1) - heady(s - 1, n), the
    all-tails cell included.
    """
    heady = [0] * (heady_support(n)[0] + n // 2) + heady      # from -(n // 2)
    return ScoreDistribution.from_lists(n, heady, list(map(sub, above, [0, *heady])))


def table_sweep(n_max: int) -> Iterator[ScoreDistribution]:
    """Stream full distributions for n = 1 .. n_max off shared budget rows.

    The coefficient lists and the rows of C(m - 2k, k) persist across
    lengths: a list only gains a coefficient whenever its heady budget
    reaches 3k, and the rows grow by one or two budgets a length and are
    shared by every cell.  The heady half at each length is read once:
    table n takes it as its taily half's minuend and table n + 1 as its
    heady half, so the sweep reads n_max + 1 heady halves.  This path is
    kept as the independent cross-check of the closed forms and the DP.
    n_max is checked at the call, before the first table.
    """
    require_length(n_max)
    rows: list[list[int]] = [[1]]
    coefs: defaultdict[int, list[int]] = defaultdict(list)
    halves = (_heady_half(n, _grow_rows(rows, n - 1 + (n - 1) // 2), coefs)
              for n in range(1, n_max + 2))
    return (_table(n, heady, above) for n, (heady, above) in enumerate(pairwise(halves), 1))


def incremental_distribution(n: int) -> ScoreDistribution:
    """Distribution at one length off the budget rows up to n + n // 2.

    The heady halves at n and at n + 1 are read, in that order, from fresh
    lists: each takes all its coefficients at n and at most one more at
    n + 1.
    """
    require_length(n)
    rows = _grow_rows([[1]], n + n // 2)
    coefs: defaultdict[int, list[int]] = defaultdict(list)
    return _table(n, _heady_half(n, rows, coefs), _heady_half(n + 1, rows, coefs))
