import sys
import threading
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streakcount import core, counting, recurrence
from streakcount.core import ScoreDistribution, heady_support, taily_support
from streakcount.counting import (
    closed_distribution,
    heady_count,
    taily_count,
)
from streakcount.recurrence import (
    _birth,
    _fill,
    _grow_rows,
    _pair,
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


def test_ascending_dp_calls_step_only_the_new_lengths(monkeypatch):
    # each call steps on from the step behind the table before, and a
    # lower length starts again from length 1
    lengths = (5, 5, 20, 60, 12)
    want = list(dp_sweep(60))
    stepped, real = [], recurrence._dp_steps

    def steps(*args):
        for step in real(*args):
            stepped.append(step[0])
            yield step

    monkeypatch.setattr(recurrence, "_dp_steps", steps)
    assert [dp_distribution(n) for n in lengths] == [want[n - 1] for n in lengths]
    assert stepped == [*range(1, 6), 5, *range(5, 21), *range(20, 61), *range(1, 13)]


@pytest.mark.parametrize("n", [2, 19, 118])
def test_each_route_resumes_from_its_own_state_at_n_minus_one_only(monkeypatch, n):
    want = list(dp_sweep(n))[-1]
    closed_distribution(n - 1)
    dp_distribution(n - 1)
    wrong = {}
    for module in (counting, recurrence):
        m, heady, taily = module._last
        wrong[module] = (m, heady, [c + 1 for c in taily])
    # a wrong state in one route leaves the other route's table unchanged
    monkeypatch.setattr(counting, "_last", wrong[counting])
    assert dp_distribution(n) == want
    monkeypatch.setattr(counting, "_last", (-1, [], []))
    monkeypatch.setattr(recurrence, "_last", wrong[recurrence])
    assert closed_distribution(n) == want
    # while each route reads its own
    monkeypatch.setattr(counting, "_last", wrong[counting])
    assert closed_distribution(n) != want
    monkeypatch.setattr(recurrence, "_last", wrong[recurrence])
    assert dp_distribution(n) != want
    # and ignores it at any length but n - 1, or above n for the DP
    for m in (n - 2, n, n + 1):
        monkeypatch.setattr(counting, "_last", (m, *wrong[counting][1:]))
        assert closed_distribution(n) == want
    monkeypatch.setattr(recurrence, "_last", (n + 1, *wrong[recurrence][1:]))
    assert dp_distribution(n) == want


@pytest.mark.parametrize("n", [1, 2, 30, 31])
def test_each_kept_state_holds_the_ints_of_its_table(n):
    # the state keeps no int that the returned table does not hold, bar zeros
    lo = -(n // 2)
    for module, build in ((counting, closed_distribution), (recurrence, dp_distribution)):
        table = build(n)
        m, heady, taily = module._last
        assert m == n
        for half, kept in ((table.heady, heady), (table.taily, taily)):
            assert all(value is kept[s - lo] for s, value in half.items())
            assert not any(c for i, c in enumerate(kept) if i + lo not in half)


def test_threads_sharing_the_resume_states():
    # a resume may be lost between threads, but every table is whole and
    # each state left behind is a true table of its route
    top = 200
    want = list(dp_sweep(top))
    results = [{} for _ in range(4)]

    def build(k):
        out = results[k]
        fn = closed_distribution if k < 2 else dp_distribution
        for n in range(1 + k % 2, top + 1, 1 if k < 2 else 3):
            out[n] = fn(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, out in enumerate(results):
        assert len(out) == len(range(1 + k % 2, top + 1, 1 if k < 2 else 3)), k
        assert all(table == want[n - 1] for n, table in out.items()), k
    for module in (counting, recurrence):
        m, heady, taily = module._last
        assert ScoreDistribution.from_lists(m, heady, taily) == want[m - 1]
    # a growth of the shared key list may be lost too, never torn
    first, keys = core._keys
    assert keys == list(range(first, first + len(keys)))


def test_dp_normalization():
    for dist in dp_sweep(40):
        assert dist.total() == 1 << dist.n


def test_dp_reaches_the_reference_rows():
    dist = dp_distribution(25)
    assert dist.heady[1] == CLOSE_CALL_ROWS[25][0]
    assert dist.win_gap() == CLOSE_CALL_ROWS[25][1]


COUNT = (heady_count, taily_count)      # indexed by lead: 0 heady, 1 taily
SUPPORT = (heady_support, taily_support)


def _walk(lead, s, steps):
    """(n, coefs, rows) of a score-s cell at its birth and after each of `steps` steps.

    coefs is heady score s + lead's coefficient list, which the cell reads;
    rows reach two budgets past the heady read's, the taily read beside it,
    and row 4j + s + lead of the list's last coefficient j.
    """
    n0 = _birth(lead, s)
    n1 = n0 + steps
    rows = _grow_rows([[1]], max(n1 - s + 1, (4 * n1 - s - lead - 4) // 3))
    coefs = []
    for n in range(n0, n1 + 1):
        _fill(s + lead, n, coefs, rows)
        yield n, list(coefs), rows


def test_birth_is_the_first_length_whose_support_holds_the_score():
    rows = _grow_rows([[1]], 2)
    for lead, support in enumerate(SUPPORT):
        for s in range(-40, 41):
            first = next(n for n in range(1, 200)
                         if support(n)[0] <= s <= support(n)[1])
            if lead == 1 and s == 0:
                # the all-tails indicator is live from length 1; the first
                # term of the sum enters at length 3.  At length 2 the list
                # already holds heady score 1's opening, which the taily
                # read does not reach
                assert (first, _birth(lead, s)) == (1, 3)
                for n, want in ((1, []), (2, [1])):
                    coefs = []
                    _fill(s + lead, n, coefs, rows)
                    assert coefs == want and _pair(s + lead, n, coefs, rows)[lead] == 1
            else:
                assert _birth(lead, s) == first


def test_budget_rows_equal_their_binomials():
    rows = _grow_rows([[1]], 600)
    assert len(rows) == 601
    for m, row in enumerate(rows):
        assert row == [comb(m - 2 * k, k) for k in range(m // 3 + 1)]
    # growing again only appends, and the rows already built stay as they were
    assert _grow_rows(rows, 600) is rows and len(rows) == 601
    assert _grow_rows([[1]], 300) == rows[:301]


def test_term_vector_openings():
    for s in range(-8, 9):
        n0 = _birth(0, s)
        assert heady_count(s, n0) == 1
        if n0 > 1:
            assert heady_count(s, n0 - 1) == 0
        (n, coefs, rows), = _walk(0, s, 0)
        assert (n, coefs) == (n0, [1])
        assert _pair(s, n, coefs, rows)[0] == heady_count(s, n0)

        m0 = _birth(1, s)
        (n, coefs, rows), = _walk(1, s, 0)
        assert (n, coefs) == (m0, [1])
        assert _pair(s + 1, n, coefs, rows)[1] == taily_count(s, m0)
        if s != 0 and m0 > 1:
            assert taily_count(s, m0 - 1) == 0


def test_term_walks_match_closed_forms():
    for s in range(-6, 7):
        for lead, count in enumerate(COUNT):
            for n, coefs, rows in _walk(lead, s, 40):
                assert _pair(s + lead, n, coefs, rows)[lead] == count(s, n)


def test_one_list_serves_heady_sigma_and_taily_sigma_minus_one():
    # the coefficients of sigma = -29 reach row (4 * 120 + 29 - 4) // 3
    rows = _grow_rows([[1]], 168)
    for sigma in range(-29, 32):
        coefs = []
        for n in range(1, 121):
            _fill(sigma, n, coefs, rows)
            h_lo, h_hi = heady_support(n)
            t_lo, t_hi = taily_support(n)
            in_heady, in_taily = h_lo <= sigma <= h_hi, t_lo <= sigma - 1 <= t_hi
            if in_heady or in_taily:
                heady, taily = _pair(sigma, n, coefs, rows)
            if in_heady:
                assert heady == heady_count(sigma, n)
            if in_taily:
                assert taily == taily_count(sigma - 1, n)


def test_fill_takes_every_coefficient_off_the_budget_rows():
    # entry j of row 4j + sigma is C(2j + sigma, j), so the coefficients are
    # the rows' own ints, not a second set of binomials, and the rows a
    # length's reads need reach all of them
    n = 300
    rows = _grow_rows([[1]], n + (n + 1) // 2)
    lo, hi = heady_support(n)
    for sigma in range(lo, hi + 1):
        j0 = max(0, -sigma)
        coefs = _fill(sigma, n, [], rows)
        assert len(coefs) == (n - sigma - 1) // 3 + 1 - j0
        assert all(coef is rows[4 * j + sigma][j] for j, coef in enumerate(coefs, j0))


def test_the_taily_read_of_heady_score_one_holds_the_all_tails_sequence():
    # the all-tails sequence scores 0 outside every summation term, so
    # _pair adds it to taily score 0 alone, from length 1, where the list
    # is still empty, across the sum's first term at 3
    rows = _grow_rows([[1]], 80)
    coefs = []
    for n in range(1, 61):
        _fill(1, n, coefs, rows)
        assert _pair(1, n, coefs, rows)[1] == taily_count(0, n)


def test_term_entries_equal_their_defining_binomials():
    for s in (-4, -1, 0, 1, 3):
        for lead in (0, 1):
            sigma, j0 = s + lead, max(0, -(s + lead))
            for n, coefs, rows in _walk(lead, s, 30):
                m = n - s - 1 + lead
                row = rows[m]
                # the list holds heady sigma's terms; the cell's own terms
                # are all of it, or all but the last for a taily cell
                assert len(coefs) == len(rows[n - sigma - 1]) - j0
                assert 0 <= len(coefs) - (len(row) - (j0 + lead)) <= lead
                for k, coef in enumerate(coefs, j0 + lead):
                    assert coef == comb(2 * k + s - lead, k - lead)
                    if k < len(row):
                        assert coef * row[k] == comb(2 * k + s - lead, k - lead) * comb(m - 2 * k, k)


def test_budget_step_refuses_an_inexact_update():
    # rows up to budget 4, the last one seeded, then stepped to budget 5
    assert _grow_rows([[1]] * 4 + [[1, 2]], 5)[5] == [1, 3]
    # term k = 1 would gain 1 * 1 / (5 - 3)
    with pytest.raises(AssertionError, match="inexact term update"):
        _grow_rows([[1]] * 4 + [[1, 1]], 5)


def test_term_walk_refuses_a_missing_last_term():
    for lead, want in ((0, (5, 2)), (1, (7, 2))):
        *_, (n, coefs, rows) = _walk(lead, 0, 4)
        assert (n, len(coefs)) == want
        with pytest.raises(AssertionError, match="skipped a step"):
            _pair(lead, n, coefs[:-1], rows)
        with pytest.raises(AssertionError, match="skipped a step"):
            _pair(lead, n, coefs + [1], rows)


@given(st.sampled_from([0, 1]), st.integers(-10, 10), st.integers(1, 60))
def test_term_walks_never_divide_inexactly(lead, s, steps):
    *_, (n, coefs, rows) = _walk(lead, s, steps)
    assert _pair(s + lead, n, coefs, rows)[lead] == COUNT[lead](s, n)


def test_table_sweep_labels_lengths():
    # both parities: at odd n the lowest heady score's taily read has no
    # slot, since that score is also the lowest taily one
    for n, dist in enumerate(table_sweep(20), start=1):
        assert dist.n == n
        assert dist == closed_distribution(n)


@pytest.mark.parametrize("sweep", [dp_sweep, table_sweep])
@pytest.mark.parametrize("n_max", [0, -3])
def test_sweeps_check_their_length_at_the_call(sweep, n_max):
    # the call itself raises, before any table is asked for
    with pytest.raises(ValueError, match=f"^sequence length must be at least 1, got {n_max}$"):
        sweep(n_max)


def test_single_incremental_tables_equal_the_dp():
    for n in (250, 301, 400):
        assert incremental_distribution(n) == dp_distribution(n)


def test_incremental_reaches_the_reference_rows():
    dist = incremental_distribution(25)
    assert dist.heady[1] == CLOSE_CALL_ROWS[25][0]
    assert dist.win_gap() == CLOSE_CALL_ROWS[25][1]
