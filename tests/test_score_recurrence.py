import random

import pytest

from streakcount import _score_recurrence, _summands, counting
from streakcount.core import heady_support, taily_support
from streakcount.counting import (
    closed_distribution,
    heady_count,
    taily_count,
)
from streakcount.recurrence import dp_sweep


def p(table, i, s, n):
    """p_i(s, n) read straight off a frozen coefficient table."""
    return sum(c * s**a * n**b for a, row in enumerate(table[i]) for b, c in enumerate(row))


def test_the_tables_have_the_published_shape():
    table = _score_recurrence.HEADY
    assert len(table) == 6 and all(len(block) == 5 for block in table)
    assert {len(row) for block in table for row in block} == {5}     # degree 4 in n
    coefficients = [c for block in table for row in block for c in row if c]
    assert (len(coefficients), max(map(abs, coefficients))) == (86, 1060)


def test_the_recurrence_holds_on_and_off_the_support():
    # with exact cells, zeros included, at lengths outside the n = 20 .. 43
    # the coefficients were guessed from
    for n in (1, 2, 3, 4, 5, 6, 7, 11, 44, 45, 97):
        lo, hi = heady_support(n)
        for s in range(lo - 8, hi + 4):
            assert sum(p(_score_recurrence.HEADY, i, s, n) * heady_count(s + i, n)
                       for i in range(6)) == 0, (n, s)


@pytest.mark.parametrize("n, s", [(19, 12), (118, 82), (695, 490), (4058, 2868)])
def test_heady_p5_zeros_fall_back_to_the_closed_form(monkeypatch, n, s):
    # p5's quadratic factor vanishes on the Pell solutions
    # (2n + 3)**2 - 2(2s + 5)**2 = -1; the cell the step would divide for is
    # summed by its own walk instead
    assert (2 * n + 3) ** 2 - 2 * (2 * s + 5) ** 2 == -1
    assert p(_score_recurrence.HEADY, 5, s, n) == 0
    summed, real = [], _summands.cell

    def cell(t, m, lead):
        summed.append((t, m, lead))
        return real(t, m, lead)

    monkeypatch.setattr(_summands, "cell", cell)
    lo, hi = heady_support(n)
    cells = dict(zip(range(lo, hi + 1), _score_recurrence.fill(n)))
    assert summed == [(t, n, 0) for t in range(lo, lo + 5)] + [(s + 5, n, 0)]
    for t in (s + 4, s + 5, s + 6):
        assert cells[t] == heady_count(t, n), t


def test_the_next_pell_zero_lies_inside_the_heady_support():
    n, s = 23659, 16728
    assert (2 * n + 3) ** 2 - 2 * (2 * s + 5) ** 2 == -1
    assert p(_score_recurrence.HEADY, 5, s, n) == 0
    lo, hi = heady_support(n)
    assert lo <= s and s + 5 <= hi


@pytest.mark.parametrize("n", [3000, 4057, 5000, 20000])
def test_far_fills_equal_sampled_single_cells(n):
    # at n = 4057 the fill at n + 1 sums its Pell cell, s = 2873, and the
    # taily cells around it are differences across that fallback
    pell = (2872, 2873, 2874) if n == 4057 else ()
    rng = random.Random(n)
    dist = closed_distribution(n)
    for half, support, count in ((dist.heady, heady_support, heady_count),
                                 (dist.taily, taily_support, taily_count)):
        lo, hi = support(n)
        picks = {lo, lo + 5, lo + 6, -1, 0, 1, *pell, hi - 1, hi,
                 *rng.sample(range(lo, hi + 1), 3)}
        assert {s: half[s] for s in picks} == {s: count(s, n) for s in picks}, n


@pytest.mark.parametrize("n", [1, 2, 17, 18, 117, 118])
def test_a_table_fills_the_heady_half_at_n_and_at_n_plus_one(monkeypatch, n):
    # the taily half is the fill at n + 1 minus the fill at n, one score
    # apart, so the table walks no taily cell and fills nothing else
    calls, real = [], _score_recurrence.fill

    def fill(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_score_recurrence, "fill", fill)
    closed_distribution(n)
    assert calls == [(n,), (n + 1,)]


def test_an_ascending_sweep_fills_once_per_length(monkeypatch):
    # each table after the first takes its heady half from the lists
    # behind the table before, which hold the fill at n that the call
    # before made, so it fills only at n + 1: lengths 1 .. 701 make 2 + 700
    # fills, cross the Pell zeros at 18/19, 117/118 and 694/695, and hold
    # every fill to 702 to the DP; 1000 and 1001 are held in test_counting
    calls, real = [], _score_recurrence.fill

    def fill(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_score_recurrence, "fill", fill)
    assert [closed_distribution(n) for n in range(1, 702)] == list(dp_sweep(701))
    assert calls == [(1,), *((n + 1,) for n in range(1, 702))]


def test_a_coefficient_changed_by_one_raises(monkeypatch):
    # every one of the 300 changes by ±1, zeros included, leaves a remainder
    # within the fills at n = 12 and 13
    table = _score_recurrence.HEADY
    for i, block in enumerate(table):
        for a, row in enumerate(block):
            for b in range(len(row)):
                for delta in (1, -1):
                    bad = [list(map(list, blk)) for blk in table]
                    bad[i][a][b] += delta
                    monkeypatch.setattr(_score_recurrence, "HEADY", bad)
                    with pytest.raises(AssertionError, match="inexact score step"):
                        closed_distribution(12)


def test_a_patched_single_cell_leaves_the_table_untouched(monkeypatch):
    # the fill seeds and falls back through _summands, never through the
    # counting functions that verify holds it against
    want = {n: (closed_distribution(n), counting.win_odds(n))
            for n in (5, 40, 75, 118, 695)}
    monkeypatch.setattr(counting, "heady_count", lambda s, n: 7)
    monkeypatch.setattr(counting, "taily_count", lambda s, n: 7)
    for n, (table, odds) in want.items():
        assert (closed_distribution(n), counting.win_odds(n)) == (table, odds), n
