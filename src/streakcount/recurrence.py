"""Incremental rebuilds of the score table, one appended toss at a time.

Two routes live here.  The dynamic program walks counts keyed by (score,
final toss): a head after a head raises the score, a tail after a head
lowers it, anything after a tail scores nothing.  The term-vector route
instead advances each closed-form summation term in place: stepping the
length multiplies term k of a score cell by a rational factor that is
always integral, and a term entering the summation range starts as its
defining product, which at its first length is one binomial.  Inexact
division in that path is impossible by construction and treated as an
internal bug, never an input error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import _summands
from .core import ScoreDistribution
from .counting import heady_support, taily_support


def dp_start() -> ScoreDistribution:
    return ScoreDistribution(1, {0: 1}, {0: 1})


def dp_extend(table: ScoreDistribution) -> ScoreDistribution:
    """One appended toss: heady'[s] = heady[s-1] + taily[s] and
    taily'[s] = taily[s] + heady[s+1].  The input is left untouched."""
    heady: dict[int, int] = {}
    taily: dict[int, int] = {}
    for s, c in table.heady.items():
        heady[s + 1] = heady.get(s + 1, 0) + c    # head after head scores for Alice
        taily[s - 1] = taily.get(s - 1, 0) + c    # tail after head scores for Bob
    for s, c in table.taily.items():
        heady[s] = heady.get(s, 0) + c            # nothing scores after a tail
        taily[s] = taily.get(s, 0) + c
    return ScoreDistribution(table.n + 1, heady, taily)


def dp_sweep(n_max: int) -> Iterator[ScoreDistribution]:
    """Stream the distribution for every length 1 .. n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    table = dp_start()
    yield table
    while table.n < n_max:
        table = dp_extend(table)
        yield table


def dp_distribution(n: int) -> ScoreDistribution:
    for dist in dp_sweep(n):
        pass
    return dist


@dataclass(frozen=True)
class TermVector:
    """Live summation terms of one closed-form score cell.

    terms[i] is the value of summation index k = k_start + i at the
    current length.
    """

    kind: str             # "heady" or "taily"
    score: int
    n: int
    terms: tuple[int, ...]

    @property
    def k_start(self) -> int:
        if self.kind == "heady":
            return max(0, -self.score)
        return max(1, -self.score)


def first_heady_n(s: int) -> int:
    """Smallest length at which the score-s heady sum holds a term."""
    return s + 1 if s >= 0 else 1 - 2 * s


def first_taily_n(s: int) -> int:
    """Smallest length at which the score-s taily sum holds a term.

    The s == 0 indicator lives outside the sum and is live from length 1.
    """
    return s + 3 if s >= 0 else -2 * s


def heady_terms_start(s: int) -> TermVector:
    """A heady cell at its birth length; the single live term is 1."""
    return TermVector("heady", s, first_heady_n(s), (1,))


def taily_terms_start(s: int) -> TermVector:
    return TermVector("taily", s, first_taily_n(s), (1,))


def terms_value(vec: TermVector) -> int:
    """Closed-form cell value at the vector's current length."""
    v = sum(vec.terms)
    if vec.kind == "taily" and vec.score == 0:
        v += 1            # the all-tails sequence sits outside the summation
    return v


def _advance(vec: TermVector, budget: int) -> TermVector:
    """Step a cell to its next length, where its spare budget is budget.

    The live terms step by _summands.step_budget.  When the budget reaches
    3k for the next index k, term k enters as its defining product, which
    at that budget is the leading binomial alone.
    """
    s = vec.score
    terms = _summands.step_budget(vec.terms, vec.k_start, budget)
    k_next = vec.k_start + len(terms)
    if budget > 3 * k_next:
        raise AssertionError(
            f"{vec.kind} summation bound skipped a step: s={s} n={vec.n + 1}")
    if budget == 3 * k_next:
        product = _summands.heady_term if vec.kind == "heady" else _summands.taily_term
        terms.append(product(s, budget, k_next))
    return TermVector(vec.kind, s, vec.n + 1, tuple(terms))


def extend_heady_terms(vec: TermVector) -> TermVector:
    """Advance a heady cell from its length n to n + 1."""
    if vec.kind != "heady":
        raise ValueError("extend_heady_terms needs a heady vector")
    return _advance(vec, vec.n - vec.score)


def extend_taily_terms(vec: TermVector) -> TermVector:
    """Advance a taily cell from its length n to n + 1."""
    if vec.kind != "taily":
        raise ValueError("extend_taily_terms needs a taily vector")
    return _advance(vec, vec.n + 1 - vec.score)


def table_sweep(n_max: int, mode: str = "both") -> Iterator[ScoreDistribution]:
    """Stream full distributions for n = 1 .. n_max off live term vectors.

    A score cell opens the first time its support admits a term; every
    later length advances the stored vector by one step.  With mode
    "heady" or "taily" the other half of each distribution stays empty.
    """
    if mode not in ("heady", "taily", "both"):
        raise ValueError(f"mode must be 'heady', 'taily' or 'both', got {mode!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    want_heady = mode in ("heady", "both")
    want_taily = mode in ("taily", "both")
    heady_vecs: dict[int, TermVector] = {}
    taily_vecs: dict[int, TermVector] = {}
    for n in range(1, n_max + 1):
        heady: dict[int, int] = {}
        taily: dict[int, int] = {}
        if want_heady:
            lo, hi = heady_support(n)
            for s in range(lo, hi + 1):
                vec = heady_vecs.get(s)
                if vec is None:
                    # heady cells enter their support exactly at birth
                    if first_heady_n(s) != n:
                        raise AssertionError(f"heady cell s={s} missed its opening at n={n}")
                    vec = heady_terms_start(s)
                else:
                    vec = extend_heady_terms(vec)
                heady_vecs[s] = vec
                heady[s] = terms_value(vec)
        if want_taily:
            lo, hi = taily_support(n)
            for s in range(lo, hi + 1):
                vec = taily_vecs.get(s)
                if vec is None:
                    if first_taily_n(s) == n:
                        vec = taily_terms_start(s)
                        taily_vecs[s] = vec
                    elif s == 0 and n < first_taily_n(0):
                        taily[0] = 1     # indicator only, no live terms yet
                        continue
                    else:
                        raise AssertionError(f"taily cell s={s} missed its opening at n={n}")
                else:
                    vec = extend_taily_terms(vec)
                    taily_vecs[s] = vec
                taily[s] = terms_value(vec)
        yield ScoreDistribution(n, heady, taily)


def incremental_distribution(n: int) -> ScoreDistribution:
    """Distribution at one length, swept up from length 1."""
    for dist in table_sweep(n):
        pass
    return dist
