"""Incremental rebuilds of the score table, one appended toss at a time.

Two routes live here.  The dynamic program keeps two dense lists of
counts, one per final toss, indexed from the lowest score: a head after a
head raises the score, a tail after a head lowers it, anything after a
tail scores nothing, so one appended toss is two shifted list additions.
The term-vector route instead advances each closed-form summation term in
place, keeping each live score cell as a plain list of terms: one stepper,
_step_terms, moves a cell from length n to n + 1, and _cell_value reads
the cell off its terms.  Stepping the length multiplies term k of a score
cell by a rational factor that is always integral, and a term entering the
summation range starts as its defining product, which at its first length
is one binomial.  Inexact division in that path is impossible by
construction and treated as an internal bug, never an input error.
"""

from __future__ import annotations

from operator import add
from typing import Iterator, Sequence

from . import _summands
from .core import ScoreDistribution
from .counting import heady_support, taily_support


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


def _dp_table(n: int, heady: list[int], taily: list[int]) -> ScoreDistribution:
    """The dense lists at length n as a table over the two supports.

    Every cell inside a support is nonzero and every cell outside is zero,
    so slicing the supports out stores exactly the nonzero counts.
    """
    lo = -(n // 2)
    h_lo, h_hi = heady_support(n)
    t_lo, t_hi = taily_support(n)
    return ScoreDistribution(
        n,
        dict(zip(range(h_lo, h_hi + 1), heady[h_lo - lo:h_hi - lo + 1])),
        dict(zip(range(t_lo, t_hi + 1), taily[t_lo - lo:t_hi - lo + 1])))


def dp_sweep(n_max: int) -> Iterator[ScoreDistribution]:
    """Stream the distribution for every length 1 .. n_max."""
    for step in _dp_steps(n_max):
        yield _dp_table(*step)


def dp_distribution(n: int) -> ScoreDistribution:
    """Distribution at one length; only the last step becomes a table."""
    for step in _dp_steps(n):
        pass
    return _dp_table(*step)


def _k_start(kind: str, s: int) -> int:
    return max(0 if kind == "heady" else 1, -s)


def first_heady_n(s: int) -> int:
    """Smallest length at which the score-s heady sum holds a term."""
    return s + 1 if s >= 0 else 1 - 2 * s


def first_taily_n(s: int) -> int:
    """Smallest length at which the score-s taily sum holds a term.

    The s == 0 indicator lives outside the sum and is live from length 1.
    """
    return s + 3 if s >= 0 else -2 * s


def _cell_value(kind: str, s: int, terms: Sequence[int]) -> int:
    v = sum(terms)
    if kind == "taily" and s == 0:
        v += 1            # the all-tails sequence sits outside the summation
    return v


def _step_terms(kind: str, s: int, n: int, terms: Sequence[int]) -> list[int]:
    """The live terms of a score-s cell of this kind, from length n to n + 1.

    The live terms step by _summands.step_budget.  When the spare budget
    reaches 3k for the next index k, term k enters as its defining product,
    which at that budget is the leading binomial alone.
    """
    k0 = _k_start(kind, s)
    if kind == "heady":
        budget, product = n - s, _summands.heady_term
    else:
        budget, product = n + 1 - s, _summands.taily_term
    terms = _summands.step_budget(terms, k0, budget)
    k_next = k0 + len(terms)
    if budget > 3 * k_next:
        raise AssertionError(f"{kind} summation bound skipped a step: s={s} n={n + 1}")
    if budget == 3 * k_next:
        terms.append(product(s, budget, k_next))
    return terms


def table_sweep(n_max: int) -> Iterator[ScoreDistribution]:
    """Stream full distributions for n = 1 .. n_max off live term lists.

    A score cell opens the first time its support admits a term; every
    later length steps its stored list of terms once.  Stepping the terms
    is most of the time spent here: this path is kept as the independent
    cross-check of the closed forms and the DP, not as a fast route.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    halves = [("heady", {}, first_heady_n, heady_support),
              ("taily", {}, first_taily_n, taily_support)]
    for n in range(1, n_max + 1):
        tables: list[dict[int, int]] = []
        for kind, cells, first_n, support in halves:
            table: dict[int, int] = {}
            lo, hi = support(n)
            for s in range(lo, hi + 1):
                terms = cells.get(s)
                if terms is None:
                    if first_n(s) == n:
                        terms = [1]
                    elif kind == "taily" and s == 0 and n < first_n(0):
                        table[0] = 1     # indicator only, no live terms yet
                        continue
                    else:
                        raise AssertionError(f"{kind} cell s={s} missed its opening at n={n}")
                else:
                    terms = _step_terms(kind, s, n - 1, terms)
                cells[s] = terms
                table[s] = _cell_value(kind, s, terms)
            tables.append(table)
        yield ScoreDistribution(n, *tables)


def incremental_distribution(n: int) -> ScoreDistribution:
    """Distribution at one length, swept up from length 1."""
    for dist in table_sweep(n):
        pass
    return dist
