"""Moment witnesses: exact sums that every correct score table keeps.

N(s) counts the length-n sequences of score s, either final toss.  The
score's first cumulants are exact: it is centred, with variance
k2 = (n - 1) / 2, and its third and fourth cumulants are 3(n - 2) / 4 and
k4 = (5n - 17) / 4.  So the first five power sums of a table are fixed:

    sum N = 2**n,  sum s N = 0,  sum s**2 N = 2**(n - 1) (n - 1),
    sum s**3 N = 2**n 3(n - 2) / 4  (n >= 2),
    sum s**4 N = 2**n (k4 + 3 k2**2)  (n >= 3).

The sums share no arithmetic with any route that builds a table, so they
check every cell at lengths where no second route is cheap.  A single
wrong cell moves sum N; errors that cancel must cancel in all five sums.
"""

from fractions import Fraction
from operator import mul

import pytest

from streakcount.counting import closed_distribution


def moment_misses(dist):
    """The names of the power sums the table dist breaks; [] when it keeps all five."""
    n = dist.n
    scores = [*dist.heady, *dist.taily]
    weighted = [*dist.heady.values(), *dist.taily.values()]
    sums = []
    for _ in range(5):
        sums.append(sum(weighted))
        weighted = list(map(mul, weighted, scores))
    k2, k4 = Fraction(n - 1, 2), Fraction(5 * n - 17, 4)
    want = [2**n, 0, 2 ** (n - 1) * (n - 1), 2**n * Fraction(3 * (n - 2), 4),
            2**n * (k4 + 3 * k2**2)]
    names = ["total", "mean", "variance", "third", "fourth"]
    first = [1, 1, 1, 2, 3]      # the least length each sum's closed form holds from
    return [name for name, got, w, lo in zip(names, sums, want, first) if n >= lo and got != w]


def test_ascending_closed_tables_keep_every_moment():
    for n in range(1, 702):
        assert moment_misses(closed_distribution(n)) == [], n


@pytest.mark.parametrize("n", [4057, 4058, 10000])
def test_far_closed_tables_keep_every_moment(n):
    # 4057 and 4058 take a Pell-zero fallback in their fills; 10000 is the
    # closed method's length limit, past every route held table by table
    assert moment_misses(closed_distribution(n)) == []


def test_a_cell_raised_by_one_breaks_the_total():
    dist = closed_distribution(30)
    bad = dist._replace(taily={**dist.taily, 0: dist.taily[0] + 1})
    assert moment_misses(bad) == ["total"]


def test_a_unit_moved_up_one_score_breaks_the_mean_but_not_the_total():
    dist = closed_distribution(30)
    heady = {**dist.heady, 3: dist.heady[3] - 1, 4: dist.heady[4] + 1}
    misses = moment_misses(dist._replace(heady=heady))
    assert misses[0] == "mean" and "total" not in misses
