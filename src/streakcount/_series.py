"""One P-recursive stream behind the close-call and gap series.

Derivation.  Summing the spare-tails factor over the length first,
Σ_n C(n - s - 1 - 2k, k) zⁿ = z^(s+1) z³ᵏ / (1 - z)^(k+1), so with
u = z³ / (1 - z)

    Σ_n heady_count(s, n) zⁿ = z^(s+1) / (1 - z) · Σ_k C(2k + s, k) uᵏ.

For s = -1 the inner sum is (1/√(1 - 4u) - 1) / 2, because
C(2k - 1, k) = C(2k, k) / 2 for k >= 1, and 1 - 4u =
(1 - 2z)(1 + z + 2z²) / (1 - z).  So the win gap D(n) = heady_count(-1, n)
has the generating function (y - 1) / (2(1 - z)), with the algebraic
series

    y(z) = √((1 - z) / ((1 - 2z)(1 + z + 2z²))),

and every series of the paper reads off y:

    win_gap(n)           = (y[1] + ... + y[n]) / 2 = S(n) / 2,
    win_gap_step(n)      = y[n] / 2,
    heady_close_calls(n) = y[n + 1] / 2.

Taking the logarithmic derivative of y² (1 - 2z)(1 + z + 2z²) = 1 - z gives
P·y' = Q·y with P = (1 - z)(1 - 2z)(1 + z + 2z²) and Q = 2z²(3 - 2z), and
reading off the coefficient of zⁿ gives the frozen recurrence

    (n + 1)·y[n + 1] = 2n·y[n] - (n - 1)·y[n - 1]
                       + (4n - 2)·y[n - 2] - (4n - 8)·y[n - 3],

with seeds y[0..3] = 1, 0, 0, 2 (a D-finite series: Stanley,
"Differentiably finite power series", 1980).  The division by n + 1 is
exact because every y[n] is an integer; a remainder raises AssertionError,
since only a corrupted cursor can leave one.

Selection.  The module keeps one cursor (m, (y[m-3], y[m-2], y[m-1], y[m]),
S(m)), which starts at the seeds, m = 3.  read(i) serves y[i] and S(i)
from it:

- m - 3 <= i <= m: read from the window, without stepping;
- i < m - 3: start again from the seeds, then as below;
- i > m: step forward to i if i - m <= i // 4, or if i follows a miss
  next to it; else a miss.

A miss is a read that the cursor cannot reach cheaply.  A lone miss
returns None, and the caller walks its closed form while the cursor stays
where it is, so a cell far from the cursor costs what its closed-form walk
costs.  A second miss within the window of the one before, 0 < |i - j| <= 3
for the earlier miss j, steps the cursor to i instead, from the seeds when
i lies below its window.  So a loop over ascending lengths takes one step
per length wherever it starts: a loop from a large length (the table
command reads n + 1, then n) pays one walk and the steps up to n on its
first two calls, then steps.  A far cell asked for again and again walks
each time.  Every value that read returns comes from the seeds and the
recurrence alone; the stream shares nothing with the closed forms, so they
stay an independent check on it.

Threads.  read takes the cursor tuple and the latest miss once at the
start, and stores a new cursor once at the end or a new miss just before
it returns None.  Concurrent callers can only overwrite each other's
progress, or the latest miss, and lose a resume; none can see a torn
state.
"""

from __future__ import annotations

Cursor = tuple[int, tuple[int, int, int, int], int]

SEEDS: Cursor = (3, (1, 0, 0, 2), 2)

# A step costs one pass over an n-bit number, a closed-form walk n / 3 terms
# summed in blocks of ratio steps (see _summands.block_sum).  Measured on a
# 2-core Xeon (Python 3.11.7, median of five bests of three) against the
# gap cell's walk, whose steps come with their common factor cancelled,
# stepping the last quarter of the way to n costs 0.7-0.9 times the walk at
# n for n from 1000 to 3000, 1.1 times at 5000 and 1.5-1.8 times from 10000
# to 30000; a fifth costs 0.6-0.7, 0.9 and 1.3-1.5 times it.  A quarter
# stays: a step also leaves the cursor at n, so an ascending loop that jumps
# goes on stepping, where a walk leaves its next length a miss that steps
# all the way up from wherever the cursor stands.
RESUME_SHARE = 4

_cursor: Cursor = SEEDS
# the index of the latest miss: a miss next to it steps the cursor instead
_last_miss = 0


def advance(cursor: Cursor, i: int) -> Cursor:
    """The cursor stepped forward to m = i by the frozen recurrence."""
    m, (a, b, c, d), total = cursor
    while m < i:
        e, rem = divmod(2 * m * d - (m - 1) * c + (4 * m - 2) * b - (4 * m - 8) * a,
                        m + 1)
        if rem:
            raise AssertionError(f"inexact series step to y[{m + 1}]: remainder {rem}")
        a, b, c, d = b, c, d, e
        total += e
        m += 1
    return m, (a, b, c, d), total


def read(i: int) -> tuple[int, int] | None:
    """(y[i], S(i)) from the cursor, or None where a closed form is cheaper."""
    global _cursor, _last_miss
    cursor, last = _cursor, _last_miss
    if i < cursor[0] - 3:
        cursor = SEEDS
    if i > cursor[0]:
        if i - cursor[0] > i // RESUME_SHARE and not 0 < abs(i - last) <= 3:
            _last_miss = i
            return None
        cursor = advance(cursor, i)
    _cursor = cursor
    m, window, total = cursor
    tail = window[4 - (m - i):]          # y[i + 1 .. m]
    return window[3 - (m - i)], total - sum(tail)
