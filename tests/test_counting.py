import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streakcount import _score_recurrence, _summands, counting, verify
from streakcount.core import heady_support, score_support, taily_support
from streakcount.counting import (
    closed_distribution,
    decimal_ratio,
    heady_close_calls,
    heady_count,
    taily_count,
    win_gap,
    win_gap_step,
    win_odds,
)
from streakcount.oracle import enumerate_distribution
from streakcount.recurrence import dp_distribution

from reference_values import CLOSE_CALL_ROWS, WIN_GAP_AT_100


# The defining two-binomial sums, summed over every k with the convention
# C(a, b) = 0 outside 0 <= b <= a, independently of the engine's summation
# bounds and term ratios.  Each product skips its large leading binomial
# where the spare-tails factor is already 0.
def comb0(a, b):
    return math.comb(a, b) if 0 <= b <= a else 0


def heady_product(s, n, k):
    spare = comb0(n - s - 1 - 2 * k, k)
    return spare and comb0(2 * k + s, k) * spare


def taily_product(s, n, k):
    spare = comb0(n - s - 2 * k, k)
    return spare and comb0(2 * k + s - 1, k - 1) * spare


def close_call_product(n, k):
    spare = comb0(n - 2 * k, k - 1)
    return spare and comb0(2 * k - 1, k) * spare


def defining_heady(s, n):
    return sum(heady_product(s, n, k) for k in range(n + 1))


def defining_taily(s, n):
    return (1 if s == 0 else 0) + sum(taily_product(s, n, k) for k in range(n + 1))


def defining_close_calls(n):
    return sum(close_call_product(n, k) for k in range(n + 1))


def test_heady_count_spot_values():
    assert heady_count(1, 5) == 4
    assert heady_count(-1, 10) == 93
    assert heady_count(0, 1) == 1
    for n in range(1, 30):
        assert heady_count(n - 1, n) == 1


def test_taily_count_spot_values():
    assert taily_count(0, 1) == 1
    assert taily_count(0, 2) == 1
    assert taily_count(-1, 3) == 2
    assert taily_count(-1, 4) == 3
    assert taily_count(-1, 2) == 1


def test_supports_bracket_the_nonzero_cells():
    assert heady_support(1) == (0, 0)
    assert taily_support(1) == (0, 0)
    assert score_support(1) == (0, 0)
    for n in range(1, 24):
        h_lo, h_hi = heady_support(n)
        assert h_hi == n - 1 and h_lo == -((n - 1) // 2)
        t_lo, t_hi = taily_support(n)
        assert t_lo == -(n // 2) and t_hi == max(0, n - 3)
        lo, hi = score_support(n)
        assert (lo, hi) == (min(h_lo, t_lo), max(h_hi, t_hi))
        for s in (h_lo, h_hi):
            assert heady_count(s, n) > 0
        for s in (t_lo, t_hi):
            assert taily_count(s, n) > 0
        for s in (h_lo - 1, h_hi + 1):
            assert heady_count(s, n) == 0
        for s in (t_lo - 1, t_hi + 1):
            assert taily_count(s, n) == 0


def test_counts_are_never_negative():
    for n in range(1, 41):
        lo, hi = score_support(n)
        for s in range(lo - 2, hi + 3):
            assert heady_count(s, n) >= 0
            assert taily_count(s, n) >= 0


def test_closed_distribution_matches_enumeration():
    for n in range(1, 12):
        assert closed_distribution(n) == enumerate_distribution(n)


# closed_distribution sums five cells per final toss and fills the rest by
# the recurrence in the score; win_odds walks two gap cells; heady_count and
# taily_count walk one cell's sum in k, and the DP shares no summand with
# any of them


@pytest.mark.parametrize("n", [999, 1000, 1001])
def test_walked_table_equals_the_dp_at_wide_supports(n):
    assert closed_distribution(n) == dp_distribution(n)


def test_walked_table_equals_the_single_cells_on_exactly_its_supports():
    for n in [*range(1, 121), 301, 302]:
        dist = closed_distribution(n)
        for half, support, count in ((dist.heady, heady_support, heady_count),
                                     (dist.taily, taily_support, taily_count)):
            lo, hi = support(n)
            assert list(half) == list(range(lo, hi + 1)), n   # every key, ascending
            assert half == {s: count(s, n) for s in range(lo, hi + 1)}, n


@pytest.mark.parametrize("n", [1, 2, 3, 250, 301, 1000])
def test_win_odds_bands_equal_sums_over_the_dp_table(n):
    dist = dp_distribution(n)
    cells = list(dist.heady.items()) + list(dist.taily.items())
    odds = win_odds(n)
    assert odds.alice == sum(c for s, c in cells if s > 0)
    assert odds.bob == sum(c for s, c in cells if s < 0)
    assert odds.ties == sum(c for s, c in cells if s == 0)


def test_win_odds_fills_no_table(monkeypatch):
    # the four counts come from two gap cells, not from the recurrence fill
    def filled(*args):
        raise AssertionError("win_odds filled a table")

    monkeypatch.setattr(_score_recurrence, "fill", filled)
    odds = win_odds(1000)
    assert odds.gap == win_gap(1000)
    assert odds.ties == heady_count(0, 1000) + taily_count(0, 1000)


def test_win_odds_pads_the_digits_past_the_nth_with_zeros():
    for n in range(1, 13):
        den = 1 << n
        for digits in range(max(1, n - 1), n + 4):
            odds = win_odds(n, digits)
            assert (odds.alice_share, odds.bob_share, odds.tie_share, odds.gap_share) == tuple(
                decimal_ratio(x, den, digits) for x in (odds.alice, odds.bob, odds.ties, odds.gap)
            ), (n, digits)
    with pytest.raises(ValueError, match="digits"):
        win_odds(3, 0)


def test_win_odds_refuses_digits_past_the_limit_before_any_walk(monkeypatch):
    def walked(*args):
        raise AssertionError("a cell was walked before digits was checked")

    monkeypatch.setattr(_summands, "cell", walked)
    for digits in (counting.MAX_DIGITS + 1, 10**20):
        with pytest.raises(ValueError, match=f"^digits={digits} exceeds the limit of "
                                             f"10000000 decimal places$"):
            win_odds(10, digits)
    with pytest.raises(AssertionError, match="walked"):
        win_odds(10, counting.MAX_DIGITS)


def test_close_call_formula_agrees_with_single_cell():
    for n in range(2, 201):
        assert heady_close_calls(n) == heady_count(1, n)


def test_reference_rows():
    for n, (close_calls, gap) in CLOSE_CALL_ROWS.items():
        assert heady_close_calls(n) == close_calls
        assert win_gap(n) == gap


def test_win_gap_telescopes():
    running = 0
    for n in range(3, 60):
        running += win_gap_step(n)
        assert win_gap(n) == running
        assert win_gap_step(n) == heady_count(1, n - 1)


def test_win_gap_step_spot_values():
    assert win_gap_step(3) == 1
    assert win_gap_step(6) == 4
    assert win_gap_step(26) == 1816610


def test_win_gap_at_100_is_frozen():
    assert win_gap(100) == WIN_GAP_AT_100


def test_length_guards():
    with pytest.raises(ValueError, match="at least 1"):
        heady_count(0, 0)
    with pytest.raises(ValueError, match="at least 2"):
        win_gap(1)
    with pytest.raises(ValueError, match="at least 2"):
        heady_close_calls(1)
    with pytest.raises(ValueError, match="at least 3"):
        win_gap_step(2)


def test_decimal_ratio_rendering():
    assert decimal_ratio(1, 8, 6) == "0.125000"
    assert decimal_ratio(1, 8, 3) == "0.125"
    assert decimal_ratio(1, 3, 4) == "0.3333"
    assert decimal_ratio(2, 3, 4) == "0.6667"
    assert decimal_ratio(9, 1, 2) == "9.00"
    # ties go to the even final digit
    assert decimal_ratio(5, 100, 1) == "0.0"
    assert decimal_ratio(15, 100, 1) == "0.2"
    assert decimal_ratio(25, 100, 1) == "0.2"
    assert decimal_ratio(35, 100, 1) == "0.4"
    assert decimal_ratio(-15, 100, 1) == "-0.2"


def test_decimal_ratio_guards():
    with pytest.raises(ValueError, match="denominator"):
        decimal_ratio(1, 0, 3)
    with pytest.raises(ValueError, match="digits"):
        decimal_ratio(1, 2, 0)


@given(st.integers(0, 10**6), st.integers(1, 10**6), st.integers(1, 8))
def test_decimal_ratio_is_within_half_an_ulp(num, den, digits):
    text = decimal_ratio(num, den, digits)
    rendered = Fraction(text)
    ulp = Fraction(1, 10**digits)
    assert abs(rendered - Fraction(num, den)) <= ulp / 2


def test_win_odds_small_lengths():
    odds = win_odds(2, digits=6)
    assert (odds.alice, odds.bob, odds.ties, odds.gap) == (1, 1, 2, 0)
    assert odds.total == 4
    assert odds.alice_share == "0.250000"
    assert odds.tie_share == "0.500000"
    odds = win_odds(3)
    assert (odds.alice, odds.bob, odds.ties, odds.gap) == (2, 3, 3, 1)


def test_win_odds_accounting():
    for n in range(1, 40):
        odds = win_odds(n, digits=4)
        assert odds.alice + odds.bob + odds.ties == 1 << n
        assert odds.gap == odds.bob - odds.alice
        assert odds.gap == win_gap(n) if n >= 2 else odds.gap == 0


def test_win_odds_at_100_rounds_to_published_share():
    odds = win_odds(100, digits=4)
    assert odds.gap == WIN_GAP_AT_100
    assert odds.gap_share == "0.0282"


@st.composite
def cells(draw, max_n=2000):
    # scores from inside the support and from just outside either edge
    n = draw(st.integers(1, max_n))
    lo, hi = score_support(n)
    s = draw(st.one_of(st.integers(lo, hi),
                       st.sampled_from((lo - 2, lo - 1, hi + 1, hi + 2))))
    return s, n


@given(cells())
def test_closed_forms_equal_the_defining_sums(cell):
    s, n = cell
    assert heady_count(s, n) == defining_heady(s, n)
    assert taily_count(s, n) == defining_taily(s, n)
    if n >= 2:
        assert heady_close_calls(n) == defining_close_calls(n)


def test_large_gap_cells_equal_the_defining_sum():
    assert win_gap(5000) == defining_heady(-1, 5000)
    assert win_gap_step(5001) == defining_heady(1, 5000)
    # every walk whose steps are cancelled (s + lead in -1, 0, 1) in blocks:
    # the rest of those at 5000, then all six at both parities past the
    # 400-step block threshold
    assert heady_count(0, 5000) == defining_heady(0, 5000)
    for s in (-2, -1, 0):
        assert taily_count(s, 5000) == defining_taily(s, 5000)
    for n in (1300, 1301):
        for s in (-1, 0, 1):
            assert heady_count(s, n) == defining_heady(s, n)
            assert taily_count(s - 1, n) == defining_taily(s - 1, n)


@pytest.mark.parametrize("n", [100, 1301])
def test_central_steps_come_with_their_common_factor_cancelled(n):
    # the step written out in full, (b+2)(b+1) a(a-1)(a-2) over
    # (d-lead)(d+s) d c(c-1) at k = d - 1; at s + lead in -1, 0, 1 the pair
    # ratios yields is that one with a linear factor taken from both
    # sides, and every other walk yields it as it stands
    for s in range(-4, 4):
        for lead in (0, 1):
            m = n - s - 1 + lead
            k = max(lead, -s)
            steps = list(_summands.ratios(s, m, lead))
            assert len(steps) == m // 3 - k
            for d, (p, q) in enumerate(steps, k + 1):
                a, b, c = m - 3 * (d - 1), 2 * (d - 1) + s - lead, m - 2 * (d - 1)
                p_g = (b + 2) * (b + 1) * a * (a - 1) * (a - 2)
                q_g = (d - lead) * (d + s) * d * c * (c - 1)
                if s + lead == -1:
                    f = d + s
                elif s + lead in (0, 1):
                    f = d - lead
                else:
                    f = 1
                assert (p * f, q * f) == (p_g, q_g), (s, lead, d)


@pytest.mark.parametrize("s, n", [(0, 1), (0, 30), (4, 41), (-1, 100), (1, 99),
                                  (-7, 60), (-12, 37), (25, 301), (-1, 700)])
def test_term_ratios_reproduce_every_defining_product(s, n):
    m = n - s - 1
    for lead, product in enumerate((heady_product, taily_product)):
        ks = range(max(lead, -s), (m + lead) // 3 + 1)
        want = [product(s, n, k) for k in ks]
        assert [_summands.term(s, m + lead, k, lead) for k in ks] == want
        # every walk steps between the same products by this one stream
        pairs = list(_summands.ratios(s, m + lead, lead))
        assert len(pairs) == max(0, len(want) - 1)
        assert all(b * q == a * p for a, b, (p, q) in zip(want, want[1:], pairs))
    if n >= 2:
        ks = range(1, (n + 1) // 3 + 1)
        assert list(verify._close_call_terms(n)) == [close_call_product(n, k) for k in ks]
        # verify's census is, term by term, the heady walk at score one
        assert list(verify._close_call_terms(n)) == [_summands.term(1, n - 2, k, 0)
                                                     for k in range((n - 2) // 3 + 1)]


def _walk_lengths(steps):
    """(s, m, lead) of heady and taily walks of exactly `steps` ratio steps,
    at scores -1, 0, 1 and n // 4 of their length n."""
    out = []
    for lead in (0, 1):
        for s in (-1, 0, 1):
            out.append((s, 3 * (max(lead, -s) + steps), lead))
        n = 1
        while (n - n // 4 - 1 + lead) // 3 - lead < steps:
            n += 1
        out.append((n // 4, n - n // 4 - 1 + lead, lead))
    return out


_BOUNDARY = -(-_summands.BLOCKED_FROM // _summands.BLOCK) * _summands.BLOCK


@pytest.mark.parametrize("steps", sorted({
    _summands.BLOCKED_FROM - 1, _summands.BLOCKED_FROM, _summands.BLOCKED_FROM + 1,
    _BOUNDARY, _BOUNDARY + 1}))
def test_blocked_sums_equal_the_term_walk_around_the_crossover(monkeypatch, steps):
    # the crossover, and a walk whose last block is full or one step long
    block_sum = _summands.block_sum
    calls = []
    monkeypatch.setattr(_summands, "block_sum",
                        lambda *args: calls.append(args[1:3]) or block_sum(*args))
    blocked = steps >= _summands.BLOCKED_FROM
    for s, m, lead in _walk_lengths(steps):
        k, k_hi = max(lead, -s), m // 3
        assert k_hi - k == steps
        want = sum(_summands.term(s, m, j, lead) for j in range(k, k_hi + 1))
        assert _summands.term_sum(s, m, lead) == want
        assert calls == [(k, k_hi)] * blocked
        calls.clear()
        # the block loop agrees below the crossover too
        assert block_sum(_summands.term(s, m, k, lead), k, k_hi,
                         _summands.ratios(s, m, lead)) == want


def test_block_loop_equals_the_term_walk_on_short_walks():
    # partial and single blocks, and walks with no step at all
    for n in range(1, 70):
        for s in range(-(n // 2) - 1, n + 1):
            for lead in (0, 1):
                m = n - s - 1 + lead
                k, k_hi = max(lead, -s), m // 3
                if k <= k_hi:
                    want = sum(_summands.term(s, m, j, lead) for j in range(k, k_hi + 1))
                    assert _summands.term_sum(s, m, lead) == want
                    assert _summands.block_sum(
                        _summands.term(s, m, k, lead), k, k_hi,
                        _summands.ratios(s, m, lead)) == want


def test_a_corrupted_block_walk_raises():
    s, m, lead = -1, 1500, 0
    k, k_hi = 1, m // 3
    first = _summands.term(s, m, k, lead)
    with pytest.raises(AssertionError, match="inexact block sum after term 1:"):
        _summands.block_sum(first + 1, k, k_hi, _summands.ratios(s, m, lead))

    def bent():
        for j, (p, q) in enumerate(_summands.ratios(s, m, lead)):
            yield (p, q + 1) if j == 40 else (p, q)
    with pytest.raises(AssertionError, match="inexact block (sum after|step from) term 33"):
        _summands.block_sum(first, k, k_hi, bent())


def test_an_inexact_block_step_raises():
    # 64 steps of ratio 1 but the 31st, of 1 / 2: the first block's sum
    # N / Q = 62 / 2 divides, but its step to term 32 takes the first term
    # 1 by P / Q = 1 / 2, which leaves a remainder
    steps = iter([(1, 1)] * 30 + [(1, 2)] + [(1, 1)] * 33)
    with pytest.raises(AssertionError,
                       match="^inexact block step from term 0 to 32: remainder 1$"):
        _summands.block_sum(1, 0, 64, steps)


def test_a_corrupted_term_walk_raises(monkeypatch):
    # a walk of 20 steps, below the crossover, divides term by term
    s, m, lead = -1, 63, 0
    assert m // 3 - max(lead, -s) == 20 < _summands.BLOCKED_FROM
    ratios = _summands.ratios

    def bent(*args):
        for j, (p, q) in enumerate(ratios(*args)):
            yield (p, q + 1) if j == 10 else (p, q)
    monkeypatch.setattr(_summands, "ratios", bent)
    with pytest.raises(AssertionError, match="^inexact term step: s=-1 m=63 lead=0:"):
        _summands.term_sum(s, m, lead)
