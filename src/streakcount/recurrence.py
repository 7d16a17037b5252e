"""Incremental rebuilds of the score table, one appended toss at a time.

Two routes live here.  The dynamic program keeps two dense lists of
counts, one per final toss, indexed from the lowest score: a head after a
head raises the score, a tail after a head lowers it, anything after a
tail scores nothing, so one appended toss is two shifted list additions.
The term-vector route reads each closed-form sum as two rows.  Term k of a
score-s cell with spare budget m is C(2k + s - lead, k - lead) times
C(m - 2k, k), lead 0 heady and 1 taily.  The first factor never changes
with the length, so each cell keeps it as a list of coefficients, which
starts empty and before each read gains one binomial per k its budget
now admits; no cell needs an opening step.  The second factor depends on
m alone, so one budget row [C(m - 2k, k) for k = 0 .. m // 3] serves
every heady and taily cell with that budget at every length; each row is
the one before stepped by _summands.step_budget, the only stepper.  A
cell's value is its coefficients dotted with its budget row.  Inexact
division in that path is impossible by construction and treated as an
internal bug, never an input error.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add, mul
from typing import Iterator, Sequence

from . import _summands
from .core import ScoreDistribution
from .counting import _lists_table, _require_length, heady_support, taily_support


def _dp_steps(n_max: int) -> Iterator[tuple[int, list[int], list[int]]]:
    """(n, heady, taily) for n = 1 .. n_max, as dense lists of counts.

    Both lists are indexed from the lowest score -(n // 2) up to n - 1.
    One appended toss makes heady'[s] = heady[s-1] + taily[s] (a head after
    a head scores for Alice, a head after a tail scores nothing) and
    taily'[s] = taily[s] + heady[s+1] (a tail after a head scores for Bob).
    The lowest score drops by one when n is odd, so the old lists are
    shifted by one more place then.  The yielded lists are never mutated.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    n, heady, taily = 1, [1], [1]
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
    """Stream the distribution for every length 1 .. n_max."""
    for step in _dp_steps(n_max):
        yield _lists_table(*step)


def dp_distribution(n: int) -> ScoreDistribution:
    """Distribution at one length; only the last step becomes a table."""
    _require_length(n)
    for step in _dp_steps(n):
        pass
    return _lists_table(*step)


# each half's lead in _summands.term: 0 heady, 1 taily
_LEAD = {"heady": 0, "taily": 1}


def _span(kind: str, s: int, n: int) -> tuple[int, int]:
    """First k and spare budget m of a score-s cell at length n.

    Its terms run from k to m // 3; m picks its C(m - 2k, k) row.
    """
    lead = _LEAD[kind]
    return max(lead, -s), n - s - 1 + lead


def _birth(kind: str, s: int) -> int:
    """Smallest length at which the score-s cell's sum holds a term.

    That is where its budget first reaches 3k for its first k.  The taily
    s == 0 indicator lives outside the sum and is live from length 1.
    """
    k0, m0 = _span(kind, s, 0)         # the budget grows by one a length from m0
    return 3 * k0 - m0


def _grow_rows(rows: list[list[int]], m_max: int) -> list[list[int]]:
    """Extend the budget rows in place to rows[m_max] and return them.

    rows[m] is [C(m - 2k, k) for k = 0 .. m // 3], the factor that every
    heady and taily cell with spare budget m shares.  Each row is the one
    before stepped by _summands.step_budget, whose divisions are checked,
    plus C(k, k) = 1 once m reaches 3k.
    """
    for m in range(len(rows), m_max + 1):
        row = _summands.step_budget(rows[-1], 0, m)
        if m % 3 == 0:
            row.append(1)
        rows.append(row)
    return rows


def _fill(kind: str, s: int, n: int, coefs: list[int]) -> list[int]:
    """Extend a cell's coefficients in place to every k its budget admits at
    length n, and return them.  Coefficient k is the cell's term at budget
    3k, C(2k + s - lead, k - lead).
    """
    k, m = _span(kind, s, n)
    k += len(coefs)
    while 3 * k <= m:
        coefs.append(_summands.term(s, 3 * k, k, _LEAD[kind]))
        k += 1
    return coefs


def _cell(kind: str, s: int, n: int, coefs: Sequence[int], rows: list[list[int]]) -> int:
    """A score-s cell at length n: its coefficients dotted with its budget row."""
    k0, m = _span(kind, s, n)
    row = rows[m]
    if len(coefs) != len(row) - k0:
        raise AssertionError(f"{kind} summation bound skipped a step: s={s} n={n}")
    value = sum(map(mul, coefs, row[k0:]))
    if kind == "taily" and s == 0:
        value += 1        # the all-tails sequence sits outside the summation
    return value


_HALVES = (("heady", heady_support), ("taily", taily_support))


def _read_length(n: int, rows: list[list[int]],
                 cells: dict[str, defaultdict[int, list[int]]]) -> ScoreDistribution:
    """The table at length n: each cell filled to length n, then read off the rows."""
    tables = []
    for kind, support in _HALVES:
        by_score = cells[kind]
        lo, hi = support(n)
        tables.append({s: _cell(kind, s, n, _fill(kind, s, n, by_score[s]), rows)
                       for s in range(lo, hi + 1)})
    return ScoreDistribution(n, *tables)


def table_sweep(n_max: int) -> Iterator[ScoreDistribution]:
    """Stream full distributions for n = 1 .. n_max off shared budget rows.

    The cells and the rows of C(m - 2k, k) persist across lengths: a cell
    only gains a coefficient whenever its budget reaches 3k, and the rows
    grow by one or two budgets a length and are shared by every cell.  This
    path is kept as the independent cross-check of the closed forms and
    the DP.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    rows: list[list[int]] = [[1]]
    cells = {kind: defaultdict(list) for kind in _LEAD}
    for n in range(1, n_max + 1):
        yield _read_length(n, _grow_rows(rows, n + n // 2), cells)


def incremental_distribution(n: int) -> ScoreDistribution:
    """Distribution at one length off the budget rows up to n + n // 2.

    Only length n is read, from fresh cells: each takes all its
    coefficients at once.
    """
    _require_length(n)
    return _read_length(n, _grow_rows([[1]], n + n // 2),
                        {kind: defaultdict(list) for kind in _LEAD})
