import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streakcount import _summands
from streakcount.counting import (
    binom,
    closed_distribution,
    heady_count,
    heady_support,
    taily_count,
    taily_support,
)
from streakcount.recurrence import (
    _birth,
    _cell,
    _fill,
    _grow_rows,
    _span,
    dp_distribution,
    dp_sweep,
    incremental_distribution,
    table_sweep,
)

from reference_values import CLOSE_CALL_ROWS


def test_dp_base_and_first_steps():
    first, second, third = list(dp_sweep(3))
    assert (first.n, first.heady, first.taily) == (1, {0: 1}, {0: 1})
    assert (second.n, second.heady, second.taily) == (2, {1: 1, 0: 1}, {0: 1, -1: 1})
    assert third.n == 3
    assert third.heady == {2: 1, 1: 1, 0: 1, -1: 1}
    assert third.taily == {0: 2, -1: 2}


def test_dp_sweep_labels_lengths():
    dists = list(dp_sweep(6))
    assert [d.n for d in dists] == [1, 2, 3, 4, 5, 6]
    for dist in dists:
        assert dist == closed_distribution(dist.n)
    with pytest.raises(ValueError, match="at least 1"):
        list(dp_sweep(0))


def test_dp_tables_hold_exactly_their_supports():
    tables = list(dp_sweep(301))
    for dist in tables:
        lo, hi = heady_support(dist.n)
        assert sorted(dist.heady) == list(range(lo, hi + 1))
        lo, hi = taily_support(dist.n)
        assert sorted(dist.taily) == list(range(lo, hi + 1))
        assert 0 not in dist.heady.values() and 0 not in dist.taily.values()
    # the lowest score drops after every odd length, so check both parities
    for n in (1, 2, 3, 4, 5, 28, 29, 300, 301):
        assert list(dp_sweep(n))[-1] == dp_distribution(n) == tables[n - 1]


def test_single_tables_refuse_empty_lengths():
    for fn in (dp_distribution, incremental_distribution):
        for n in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                fn(n)


@settings(max_examples=30)
@given(st.integers(1, 300))
def test_closed_forms_equal_the_dp(n):
    assert closed_distribution(n) == dp_distribution(n)


@settings(max_examples=15)
@given(st.integers(1, 120))
def test_term_vectors_equal_the_dp(n):
    assert incremental_distribution(n) == dp_distribution(n)


def test_dp_normalization():
    for dist in dp_sweep(40):
        assert dist.total() == 1 << dist.n


def test_dp_reaches_the_reference_rows():
    dist = dp_distribution(25)
    assert dist.heady[1] == CLOSE_CALL_ROWS[25][0]
    assert dist.win_gap() == CLOSE_CALL_ROWS[25][1]


COUNT = {"heady": heady_count, "taily": taily_count}
SUPPORT = {"heady": heady_support, "taily": taily_support}


def _walk(kind, s, steps):
    """(n, coefs, rows) of a score-s cell at its birth and after each of `steps` steps."""
    n0 = _birth(kind, s)
    rows = _grow_rows([[1]], _span(kind, s, n0 + steps)[1])
    coefs = []
    for n in range(n0, n0 + steps + 1):
        _fill(kind, s, n, coefs)
        yield n, list(coefs), rows


def test_birth_is_the_first_length_whose_support_holds_the_score():
    rows = _grow_rows([[1]], 2)
    for kind, support in SUPPORT.items():
        for s in range(-40, 41):
            first = next(n for n in range(1, 200)
                         if support(n)[0] <= s <= support(n)[1])
            if kind == "taily" and s == 0:
                # the all-tails indicator is live from length 1; the first
                # term of the sum enters at length 3
                assert (first, _birth(kind, s)) == (1, 3)
                for n in (1, 2):
                    coefs = []
                    _fill(kind, s, n, coefs)
                    assert coefs == [] and _cell(kind, s, n, coefs, rows) == 1
            else:
                assert _birth(kind, s) == first


def test_budget_rows_equal_their_binomials():
    rows = _grow_rows([[1]], 600)
    assert len(rows) == 601
    for m, row in enumerate(rows):
        assert row == [binom(m - 2 * k, k) for k in range(m // 3 + 1)]
    # growing again only appends, and the rows already built stay as they were
    assert _grow_rows(rows, 600) is rows and len(rows) == 601
    assert _grow_rows([[1]], 300) == rows[:301]


def test_term_vector_openings():
    for s in range(-8, 9):
        n0 = _birth("heady", s)
        assert heady_count(s, n0) == 1
        if n0 > 1:
            assert heady_count(s, n0 - 1) == 0
        (n, coefs, rows), = _walk("heady", s, 0)
        assert (n, coefs) == (n0, [1])
        assert _cell("heady", s, n, coefs, rows) == heady_count(s, n0)

        m0 = _birth("taily", s)
        (n, coefs, rows), = _walk("taily", s, 0)
        assert (n, coefs) == (m0, [1])
        assert _cell("taily", s, n, coefs, rows) == taily_count(s, m0)
        if s != 0 and m0 > 1:
            assert taily_count(s, m0 - 1) == 0


def test_term_walks_match_closed_forms():
    for s in range(-6, 7):
        for kind, count in COUNT.items():
            for n, coefs, rows in _walk(kind, s, 40):
                assert _cell(kind, s, n, coefs, rows) == count(s, n)


def test_term_entries_equal_their_defining_binomials():
    for s in (-4, -1, 0, 1, 3):
        for kind, lead in (("heady", 0), ("taily", 1)):
            for n, coefs, rows in _walk(kind, s, 30):
                k0, m = _span(kind, s, n)
                assert (k0, m) == (max(lead, -s), n - s - 1 if kind == "heady" else n - s)
                row = rows[m]
                assert len(coefs) == len(row) - k0
                for k, coef in enumerate(coefs, k0):
                    assert coef == binom(2 * k + s - lead, k - lead)
                    assert coef * row[k] == binom(2 * k + s - lead, k - lead) * binom(m - 2 * k, k)


def test_budget_step_refuses_an_inexact_update():
    assert _summands.step_budget([1, 2], 0, 5) == [1, 3]
    # term k = 1 would gain 1 * 1 / (5 - 3)
    with pytest.raises(AssertionError, match="inexact term update"):
        _summands.step_budget([1, 1], 0, 5)


def test_term_walk_refuses_a_missing_last_term():
    *_, (n, coefs, rows) = _walk("heady", 0, 4)
    assert (n, len(coefs)) == (5, 2)
    with pytest.raises(AssertionError, match="skipped a step"):
        _cell("heady", 0, n, coefs[:-1], rows)
    with pytest.raises(AssertionError, match="skipped a step"):
        _cell("heady", 0, n, coefs + [1], rows)


@given(st.sampled_from(["heady", "taily"]), st.integers(-10, 10), st.integers(1, 60))
def test_term_walks_never_divide_inexactly(kind, s, steps):
    *_, (n, coefs, rows) = _walk(kind, s, steps)
    assert _cell(kind, s, n, coefs, rows) == COUNT[kind](s, n)


def test_table_sweep_labels_lengths():
    for n, dist in enumerate(table_sweep(20), start=1):
        assert dist.n == n
        assert dist == closed_distribution(n)
    with pytest.raises(ValueError, match="at least 1"):
        list(table_sweep(0))


def test_single_incremental_tables_equal_the_dp():
    for n in (250, 301, 400):
        assert incremental_distribution(n) == dp_distribution(n)


def test_incremental_reaches_the_reference_rows():
    dist = incremental_distribution(25)
    assert dist.heady[1] == CLOSE_CALL_ROWS[25][0]
    assert dist.win_gap() == CLOSE_CALL_ROWS[25][1]
