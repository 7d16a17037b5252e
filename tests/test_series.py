import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streakcount import _series, _summands, cli
from streakcount.counting import heady_close_calls, heady_count, win_gap, win_gap_step


# Each series function with the closed-form cell it must equal: the stream
# answers near its cursor, the closed forms everywhere.
SERIES = {
    "win_gap": (win_gap, lambda n: heady_count(-1, n)),
    "win_gap_step": (win_gap_step, lambda n: heady_count(1, n - 1)),
    "heady_close_calls": (heady_close_calls, lambda n: heady_count(1, n)),
}
FIRST = {"win_gap": 2, "win_gap_step": 3, "heady_close_calls": 2}
# the stream index each function reads at length n
INDEX = {"win_gap": 0, "win_gap_step": 0, "heady_close_calls": 1}


def at(m):
    return _series.advance(_series.SEEDS, m)


def test_frozen_recurrence_annihilates_the_closed_forms():
    # y[n] = 2·heady_count(1, n - 1) from the closed forms alone; y must
    # solve P·y' = Q·y, coefficient by coefficient
    size = 200
    y = [1, 0] + [2 * heady_count(1, n - 1) for n in range(2, size)]
    dy = [(n + 1) * y[n + 1] for n in range(size - 1)]
    P = [1, -2, 1, -4, 4]      # (1 - z)(1 - 2z)(1 + z + 2z²)
    Q = [0, 0, 6, -4]          # 2z²(3 - 2z)

    def coefficient(poly, series, n):
        return sum(c * series[n - j] for j, c in enumerate(poly) if n - j >= 0)

    for n in range(size - 1):
        assert coefficient(P, dy, n) == coefficient(Q, y, n), n


@pytest.mark.parametrize("name", SERIES)
def test_cold_cell_walks_its_closed_form(name):
    fn, cell = SERIES[name]
    for n in (400, 7000):
        assert fn(n) == cell(n)
        assert _series._cursor == _series.SEEDS       # too far to resume


@pytest.mark.parametrize("name", SERIES)
def test_ascending_run_resumes_the_stream(name):
    fn, cell = SERIES[name]
    for n in range(FIRST[name], 300):
        assert fn(n) == cell(n)
        assert _series._cursor[0] == max(3, n + INDEX[name])
    # a jump within a quarter of the target steps forward too
    assert fn(370) == cell(370)
    assert _series._cursor[0] == 370 + INDEX[name]


@pytest.mark.parametrize("name", SERIES)
def test_window_reads_do_not_step(monkeypatch, name):
    fn, cell = SERIES[name]
    monkeypatch.setattr(_series, "_cursor", at(250))
    for n in range(250 - INDEX[name], 246 - INDEX[name], -1):
        assert fn(n) == cell(n)
        assert _series._cursor == at(250)


@pytest.mark.parametrize("name", SERIES)
def test_lengths_below_the_window_start_again_from_the_seeds(monkeypatch, name):
    fn, cell = SERIES[name]
    monkeypatch.setattr(_series, "_cursor", at(500))
    assert fn(FIRST[name]) == cell(FIRST[name])        # inside the seeds' window
    assert _series._cursor == _series.SEEDS
    monkeypatch.setattr(_series, "_cursor", at(500))
    assert fn(200) == cell(200)                        # far from the seeds: walked
    assert _series._cursor == at(500)


def test_a_loop_from_a_large_length_resumes(monkeypatch, capsys):
    # every closed-form walk goes through this sum
    walks = []
    term_sum = _summands.term_sum
    monkeypatch.setattr(_summands, "term_sum",
                        lambda *args: walks.append(args) or term_sum(*args))
    assert cli.main(["table", "--from", "2000", "--to", "2100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # heady_close_calls(2000) walks its heady cell; win_gap(2000) follows
    # that miss, so it steps up from the seeds; every later line steps
    assert walks == [(1, 1998, 0)]
    assert _series._cursor[0] == 2101
    for n in (2000, 2001, 2100):
        assert lines[n - 2000] == f"{n} {heady_count(1, n)} {heady_count(-1, n)}"


def test_a_cold_gap_step_walks_the_heady_cell_once(monkeypatch):
    walks = []
    term_sum = _summands.term_sum
    monkeypatch.setattr(_summands, "term_sum",
                        lambda *args: walks.append(args) or term_sum(*args))
    got = win_gap_step(7001)
    # 7001 is far past the seeds, so the step is a lone miss and walks the
    # one fallback it shares with heady_close_calls: heady_count(1, 7000)
    assert walks == [(1, 6998, 0)]
    assert _series._cursor == _series.SEEDS
    assert got == heady_close_calls(7000) == heady_count(1, 7000)


def test_misses_next_to_each_other_step_the_cursor():
    # each pair lies more than a quarter of its length past the one before
    for first, second in ((500, 503), (803, 800), (1200, 1197)):
        assert win_gap(first) == heady_count(-1, first)
        assert _series._cursor[0] < first                # a lone miss walks
        assert win_gap_step(second) == heady_count(1, second - 1)
        assert _series._cursor == at(second)
    # a miss four away, or at the same length, walks
    for first, second in ((1700, 1704), (2300, 2300)):
        assert win_gap(first) == heady_count(-1, first)
        assert win_gap(second) == heady_count(-1, second)
        assert _series._cursor[0] == 1197


def test_a_miss_next_to_a_miss_reads_no_closed_form(monkeypatch):
    # the stream's values come from the seeds and the recurrence alone, so
    # with every closed-form walk broken it still serves the second miss
    want = 2 * heady_count(1, 802), 2 * heady_count(-1, 803)
    monkeypatch.setattr(_series, "_cursor", at(5000))

    def broken(*args):
        raise AssertionError("a closed form was walked")

    monkeypatch.setattr(_summands, "term_sum", broken)
    assert _series.read(800) is None                     # a lone miss
    assert _series.read(803) == want                     # stepped from the seeds
    assert _series._cursor == at(803)


def test_table_order_reads_backwards_from_the_window():
    # the table command asks for heady_close_calls(n), then win_gap(n)
    for n in range(2, 200):
        assert heady_close_calls(n) == heady_count(1, n)
        assert win_gap(n) == heady_count(-1, n)
    assert _series._cursor[0] == 200


@given(st.lists(st.tuples(st.sampled_from(sorted(SERIES)), st.integers(2, 400)),
                max_size=60))
def test_any_call_order_gives_the_closed_forms(calls):
    for name, n in calls:
        fn, cell = SERIES[name]
        n = max(n, FIRST[name])
        assert fn(n) == cell(n)


def test_ascending_reach_to_scattered_lengths():
    # cold, 20000 is a lone miss, so its gap is walked in blocks
    walked = win_gap(20000)
    assert _series._cursor == _series.SEEDS
    checks = {97, 1000, 4999, 12345, 20000}
    for n in range(2, 20001):
        gap = win_gap(n)
        if n in checks:
            assert gap == heady_count(-1, n)
            assert win_gap_step(n) == heady_count(1, n - 1)
            assert heady_close_calls(n) == heady_count(1, n)
    assert gap == walked
    assert _series._cursor[0] == 20001


def test_a_miss_stored_mid_read_does_not_move_the_seed(monkeypatch):
    # another thread's miss at 5000 lands between read's check that 401
    # follows the miss at 400 and the seed: the seed must stay at 401
    def abs_then_far_miss(x):
        monkeypatch.setattr(_series, "_last_miss", 5000)
        return abs(x)

    assert win_gap(400) == heady_count(-1, 400)     # a lone miss
    monkeypatch.setattr(_series, "abs", abs_then_far_miss, raising=False)
    assert win_gap(401) == heady_count(-1, 401)
    assert _series._cursor == at(401)


def test_inexact_step_raises(monkeypatch):
    m, (a, b, c, d), total = at(40)
    monkeypatch.setattr(_series, "_cursor", (m, (a, b, c, d + 1), total + 1))
    with pytest.raises(AssertionError, match="inexact series step"):
        win_gap(45)


def test_threads_walking_interleaved_ranges():
    top = 600
    want = {n: heady_count(-1, n) for n in range(2, top)}
    steps = {n: heady_count(1, n - 1) for n in range(3, top)}
    results = [{} for _ in range(4)]

    def walk(k):
        out = results[k]
        fn = win_gap if k % 2 == 0 else win_gap_step
        for n in range(3 + k // 2, top, 2):
            out[n] = fn(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, out in enumerate(results):
        ref = want if k % 2 == 0 else steps
        assert out and out == {n: ref[n] for n in out}, k
        assert len(out) == len(range(3 + k // 2, top, 2)), k
    # whatever order the threads stored it in, the cursor is a true state
    m, window, total = _series._cursor
    assert (m, window, total) == at(m)

