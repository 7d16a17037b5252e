"""Independent reference for the benchmark's correctness checks.

Stdlib only; nothing here imports streakcount.  The counts come from a
transfer dynamic program over (score, final toss) held in dense lists, and
that program is itself checked against brute-force enumeration for small
lengths.  Where the program is too slow to reach (win gaps at thousands of
tosses), the checks use properties any correct count must have.
"""

from __future__ import annotations

import itertools
import math
from decimal import ROUND_HALF_EVEN, Context, Decimal
from typing import Iterable, Iterator, Sequence

# win_gap(100), the paper's headline constant
GAP_AT_100 = 35738289179539587978601128016


class CheckFailed(Exception):
    """A program output disagrees with the reference or a required property."""


def expect(cond: bool, detail: str) -> None:
    if not cond:
        raise CheckFailed(detail)


def score(bits: Sequence[int]) -> int:
    """Heads-heads pairs minus heads-tails pairs."""
    s = 0
    for i in range(len(bits) - 1):
        if bits[i]:
            s += 1 if bits[i + 1] else -1
    return s


def signature(bits: Sequence[int]) -> str:
    return "".join("+" if bits[i + 1] else "-"
                   for i in range(len(bits) - 1) if bits[i])


Table = tuple[dict[int, int], dict[int, int]]   # (heady, taily), nonzero cells only


def _sweep(n_max: int) -> Iterator[tuple[int, list[int], list[int]]]:
    """(n, heads, tails) for n = 1 .. n_max by the appended-toss transfer matrix.

    Dense lists indexed by score + n_max; a head after a head scores +1, a
    tail after a head -1, anything after a tail nothing.
    """
    width = 2 * n_max + 1
    heads = [0] * width
    tails = [0] * width
    heads[n_max] = tails[n_max] = 1
    yield 1, heads, tails
    for n in range(2, n_max + 1):
        new_h = [0] * width
        new_t = [0] * width
        for i in range(1, width - 1):
            new_h[i] = heads[i - 1] + tails[i]
            new_t[i] = tails[i] + heads[i + 1]
        heads, tails = new_h, new_t
        yield n, heads, tails


def tables_at(wanted: Iterable[int]) -> dict[int, Table]:
    """Reference tables at the given lengths, from one transfer sweep."""
    wanted = set(wanted)
    if not wanted:
        return {}
    off = max(wanted)
    return {n: ({i - off: v for i, v in enumerate(h) if v},
                {i - off: v for i, v in enumerate(t) if v})
            for n, h, t in _sweep(off) if n in wanted}


def gap_series(n_max: int) -> dict[int, tuple[int, int]]:
    """n -> (win gap, score-one heady count) for n = 1 .. n_max."""
    off = n_max
    out = {}
    for n, h, t in _sweep(n_max):
        bob = sum(h[:off]) + sum(t[:off])
        alice = sum(h[off + 1:]) + sum(t[off + 1:])
        out[n] = (bob - alice, h[off + 1])
    return out


def brute_table(n: int) -> Table:
    """Tally all 2**n sequences by score and final toss."""
    heady: dict[int, int] = {}
    taily: dict[int, int] = {}
    for bits in itertools.product((0, 1), repeat=n):
        half = heady if bits[-1] else taily
        s = score(bits)
        half[s] = half.get(s, 0) + 1
    return heady, taily


def check_reference(n_max: int) -> None:
    """The transfer program against brute force, n = 1 .. n_max."""
    for n, table in tables_at(range(1, n_max + 1)).items():
        expect(table == brute_table(n), f"reference transfer table wrong at n={n}")


def wins(table: Table) -> tuple[int, int, int]:
    """(alice, bob, ties) of one table."""
    alice = bob = ties = 0
    for half in table:
        for s, c in half.items():
            if s > 0:
                alice += c
            elif s < 0:
                bob += c
            else:
                ties += c
    return alice, bob, ties


def gap(table: Table) -> int:
    alice, bob, _ = wins(table)
    return bob - alice


def check_table(n: int, heady: dict[int, int], taily: dict[int, int],
                ref: Table | None, label: str) -> None:
    """Halves each total 2**(n-1); cell for cell equal to ref when given."""
    half = 1 << (n - 1)
    expect(sum(heady.values()) == half, f"{label}: heady half of n={n} is not 2**{n - 1}")
    expect(sum(taily.values()) == half, f"{label}: taily half of n={n} is not 2**{n - 1}")
    if ref is not None:
        expect((heady, taily) == ref, f"{label}: table at n={n} differs from the reference")


def share(num: int, n: int, digits: int) -> str:
    """num / 2**n as a decimal string rounded half to even."""
    # num / 2**n has at most n fractional digits, so this precision is exact
    ctx = Context(prec=len(str(abs(num))) + n + digits + 2, rounding=ROUND_HALF_EVEN)
    exact = ctx.divide(Decimal(num), Decimal(1 << n))
    return format(ctx.quantize(exact, Decimal(1).scaleb(-digits)), "f")


def check_asymptotic_gap(n: int, value: int) -> None:
    """win_gap(n) / 2**n is 1 / (2 sqrt(pi n)) to within a relative 1/n, n >= 100."""
    ratio = ((value << 96) >> n) / 2.0 ** 96
    rel = abs(ratio * 2 * math.sqrt(math.pi * n) - 1)
    expect(rel < 1 / n, f"win_gap({n}) is off its asymptotic by {rel:.3g}, more than 1/n")


def min_length(sig: str, mode: str) -> int:
    minus = sig.count("-")
    return 3 * minus + (len(sig) - 2 * minus) + (1 if mode == "heady" else 0)


def slot_count(sig: str, mode: str) -> int:
    """Insertion slots of the shortest sequence: one per heads run, plus the end if taily.

    A run of '+' marks is one heads run; a '-' not directly after a '+'
    opens a fresh one-head run; a heady sequence ending in '-' closes with
    a lone head.
    """
    runs = sum(1 for i, m in enumerate(sig)
               if (m == "+" and (i == 0 or sig[i - 1] == "-"))
               or (m == "-" and (i == 0 or sig[i - 1] == "-")))
    if mode == "heady" and sig.endswith("-"):
        runs += 1
    return runs + (1 if mode == "taily" else 0)


def realization_count(sig: str, n: int, mode: str) -> int:
    """Length-n sequences with this signature and final toss."""
    spare = n - min_length(sig, mode)
    bins = slot_count(sig, mode)
    return math.comb(spare + bins - 1, bins - 1) if spare >= 0 else 0


def check_realizations(sig: str, n: int, mode: str, outputs: list[tuple[int, ...]],
                       label: str) -> None:
    """Length, final toss, score, signature and distinctness of each output."""
    final = 1 if mode == "heady" else 0
    want_score = len(sig) - 2 * sig.count("-")
    for bits in outputs:
        expect(len(bits) == n and bits[-1] == final,
               f"{label}: output of length {len(bits)} or final toss wrong for {mode} n={n}")
        expect(score(bits) == want_score, f"{label}: output scores {score(bits)}, want {want_score}")
        expect(signature(bits) == sig, f"{label}: output signature differs from {sig[:40]!r}")
    expect(len(set(outputs)) == len(outputs), f"{label}: repeated outputs")


def check_realization_count(max_n: int) -> None:
    """realization_count against brute force over every signature, n <= max_n."""
    for n in range(2, max_n + 1):
        census: dict[tuple[str, int], int] = {}
        for bits in itertools.product((0, 1), repeat=n):
            key = (signature(bits), bits[-1])
            census[key] = census.get(key, 0) + 1
        for (sig, last), count in census.items():
            if sig:
                mode = "heady" if last else "taily"
                expect(realization_count(sig, n, mode) == count,
                       f"reference realization count wrong for {sig!r} {mode} n={n}")
