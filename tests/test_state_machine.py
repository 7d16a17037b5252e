"""Every route's kept state under interleaved calls.

Four module-level states serve later calls: the shared score keys
(core._keys), the two table resume states (counting._last and
recurrence._last) and the series cursor (_series._cursor with
_series._last_miss).  Their own tests pin each with examples; here one
rule per route calls it at random lengths, in any order, with an open
term-vector sweep drawn a few tables at a time in between, and every
answer is held to a cold reference: the DP sweep for tables, a walked
closed-form cell for the series.
"""

from functools import cache, lru_cache

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from streakcount import _series, _summands, core, counting, oracle, recurrence
from streakcount.core import ScoreDistribution

TOP = 130

# every length the table rules draw, with the closed fill's Pell zeros near
# 19 and 118 and the term vectors' parities there weighted in
LENGTHS = st.one_of(st.integers(1, TOP), st.integers(17, 20), st.integers(116, 119))
ORACLE_LENGTHS = st.one_of(st.integers(1, oracle.MAX_N), st.integers(17, 20))
# near the cursor's seeds, far past them, and a tight run where the stream
# resumes, steps or misses
SERIES_LENGTHS = st.one_of(st.integers(2, 400), st.integers(700, 9000),
                           st.integers(3995, 4005))

# each state as a fresh process holds it
FRESH = ((core, "_keys", (0, [])), (counting, "_last", (-1, [], [])),
         (recurrence, "_last", recurrence._FIRST), (_series, "_cursor", _series.SEEDS),
         (_series, "_last_miss", 0))


@cache
def dp_tables() -> list[ScoreDistribution]:
    return list(recurrence.dp_sweep(TOP))


@lru_cache(maxsize=512)
def heady_cell(s: int, n: int) -> int:
    return _summands.cell(s, n, 0)


class Routes(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        for module, name, value in FRESH:
            setattr(module, name, value)
        self.sweep = None

    def check_table(self, table: ScoreDistribution, n: int) -> None:
        assert table == dp_tables()[n - 1], n

    @rule(n=LENGTHS)
    def closed(self, n):
        self.check_table(counting.closed_distribution(n), n)

    @rule(n=LENGTHS)
    def dp(self, n):
        self.check_table(recurrence.dp_distribution(n), n)

    @rule(n=LENGTHS)
    def term_vectors(self, n):
        self.check_table(recurrence.incremental_distribution(n), n)

    @rule(n=ORACLE_LENGTHS)
    def enumerated(self, n):
        self.check_table(oracle.enumerate_distribution(n), n)

    @rule(n_max=LENGTHS)
    def open_sweep(self, n_max):
        self.sweep = enumerate(recurrence.table_sweep(n_max), 1)

    @precondition(lambda self: self.sweep is not None)
    @rule(k=st.integers(1, 8))
    def draw_sweep(self, k):
        for _ in range(k):
            n, table = next(self.sweep, (None, None))
            if n is None:
                self.sweep = None
                return
            self.check_table(table, n)

    @rule(n=SERIES_LENGTHS)
    def gap(self, n):
        assert counting.win_gap(n) == heady_cell(-1, n), n

    @rule(n=SERIES_LENGTHS)
    def close_calls(self, n):
        assert counting.heady_close_calls(n) == heady_cell(1, n), n

    @rule(n=SERIES_LENGTHS)
    def gap_step(self, n):
        n = max(n, 3)
        assert counting.win_gap_step(n) == heady_cell(1, n - 1), n

    @invariant()
    def keys_stay_consecutive(self):
        first, keys = core._keys
        assert keys == list(range(first, first + len(keys)))

    @invariant()
    def resume_states_hold_true_tables(self):
        for module in (counting, recurrence):
            m, heady, taily = module._last
            if 0 < m <= TOP:
                assert ScoreDistribution.from_lists(m, heady, taily) == dp_tables()[m - 1]

    @invariant()
    def cursor_holds_the_stream(self):
        # y[m] / 2 is the close-call count at m - 1 and S(m) / 2 the gap at m
        m, window, total = _series._cursor
        assert window[3] == 2 * heady_cell(1, m - 1) and total == 2 * heady_cell(-1, m), m


def test_every_route_under_interleaved_calls(monkeypatch):
    # each example starts from fresh states; these restore the ones before
    for module, name, _ in FRESH:
        monkeypatch.setattr(module, name, getattr(module, name))
    run_state_machine_as_test(Routes, settings=settings(
        max_examples=150, stateful_step_count=30))
