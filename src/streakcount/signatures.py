"""Signatures: the scoring skeleton of a toss sequence, and how to rebuild
every sequence that shares one.

Scanning adjacent pairs left to right, each heads-heads pair leaves a '+'
mark and each heads-tails pair a '-' mark; pairs that open with tails
leave nothing.  The mark string is the signature.  Sequences with the same
signature score identically, and planting extra tails in front of any run
of heads never disturbs the marks.  That is the lever the generator pulls:
start from the unique shortest sequence carrying a signature, then spread
the spare tails over the legal insertion slots in every possible way.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Literal, Sequence

from .core import TossSequence, require_mode

Mode = Literal["heady", "taily"]


def signature_of(bits: Sequence[int]) -> str:
    """The mark string of a sequence; empty exactly when nothing scores."""
    marks = []
    for a, b in zip(bits, bits[1:]):
        if a == 1:
            marks.append("+" if b == 1 else "-")
    return "".join(marks)


def signature_score(sig: str) -> int:
    """Score shared by every sequence with this signature."""
    _check_marks(sig)
    return len(sig) - 2 * sig.count("-")


def complement(sig: str) -> str:
    """Swap every '+' with '-'.  An involution that negates the score."""
    _check_marks(sig)
    swap = {"+": "-", "-": "+"}
    return "".join(swap[c] for c in sig)


def _check_marks(sig: str) -> None:
    bad = set(sig) - {"+", "-"}
    if bad:
        raise ValueError(f"signature may contain only '+' and '-', got {sorted(bad)!r}")


def _check_realizable(sig: str, mode: str) -> None:
    _check_marks(sig)
    require_mode(mode)
    if not sig:
        raise ValueError(
            "the null signature has no minimum-length sequence; "
            "every mark-free sequence carries it")
    if mode == "taily" and not sig.endswith("-"):
        raise ValueError("no taily sequence realizes a signature ending in '+'")


def min_length(sig: str, mode: Mode = "heady") -> int:
    """Length of the shortest sequence with this signature, no construction.

    With q minus marks and score s the length is 3q + s + 1 for heady
    sequences and 3q + s for taily ones.  Only the mark counts enter,
    never their order.
    """
    _check_realizable(sig, mode)
    q = sig.count("-")
    s = len(sig) - 2 * q
    return 3 * q + s + (1 if mode == "heady" else 0)


def min_length_sequence(sig: str, mode: Mode = "heady") -> TossSequence:
    """Build the unique shortest sequence carrying the signature.

    A run of j consecutive '+' marks becomes j + 1 consecutive heads.  A
    '-' directly after a '+' run reuses that run's final head and appends
    a single tail; any other '-' appends a fresh heads-tails pair.  Heady
    sequences ending on a '-' get one closing head.
    """
    _check_realizable(sig, mode)
    out: list[int] = []
    prev = ""
    for mark in sig:
        if mark == "+":
            if prev == "+":
                out.append(1)
            else:
                out.extend((1, 1))
        else:
            if prev == "+":
                out.append(0)
            else:
                out.extend((1, 0))
        prev = mark
    if mode == "heady" and sig.endswith("-"):
        out.append(1)
    return tuple(out)


def compositions(total: int, bins: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of total into bins parts, first part descending.

    Starts at (total, 0, ..., 0), ends at (0, ..., 0, total), and the same
    rule orders the later parts: the stream is in descending
    lexicographic order and has C(total + bins - 1, bins - 1) members.
    Each step takes one unit from the rightmost nonzero part before the
    last and moves it, together with the whole last part, into the part
    just after it.  No recursion, so any number of bins works.  A step
    changes the parts only from that rightmost nonzero part on, which is
    what lets generate_sequences rewrite only the suffix of its output
    that follows it.
    """
    for parts, _ in _walk(total, bins):
        yield tuple(parts)


def _walk(total: int, bins: int) -> Iterator[tuple[list[int], int]]:
    # the one copy of the step rule: yields the live parts list, mutated in
    # place between yields, and the lowest index the step changed (0 for
    # the first composition); every part past that index + 1 is then zero
    if total < 0:
        raise ValueError(f"total must be nonnegative, got {total}")
    if bins < 1:
        raise ValueError(f"bins must be positive, got {bins}")
    parts = [total] + [0] * (bins - 1)
    last = bins - 1
    # i is the rightmost nonzero part before the last, -1 once there is none
    i = 0 if total and last else -1
    changed = 0
    while True:
        yield parts, changed
        if i < 0:
            return
        changed = i
        parts[i] -= 1
        moved = parts[last] + 1
        parts[last] = 0
        parts[i + 1] = moved
        if i + 1 < last:
            i += 1
        else:
            while i >= 0 and parts[i] == 0:
                i -= 1


def _insertion_slots(mu: TossSequence, mode: str, fixed_leading_one: bool) -> list[int]:
    # one slot in front of each run of heads, plus the taily end slot
    slots = [i for i, b in enumerate(mu) if b == 1 and (i == 0 or mu[i - 1] == 0)]
    if mode == "taily":
        slots.append(len(mu))
    if fixed_leading_one:
        # the shortest sequence starts with a head; pinning it removes the
        # slot in front of that first run
        slots = slots[1:]
    return slots


def _plan(sig: str, n: int, mode: str,
          fixed_leading_one: bool) -> tuple[TossSequence, list[int], int]:
    mu = min_length_sequence(sig, mode)
    spare = n - len(mu)
    if spare < 0:
        raise ValueError(
            f"signature {sig!r} has no {mode} sequence of length {n}; "
            f"the minimum feasible length is {len(mu)}")
    slots = _insertion_slots(mu, mode, fixed_leading_one)
    if not slots and spare:
        raise ValueError(
            f"fixing the leading head leaves no slot for {spare} spare tails; "
            f"signature {sig!r} only fits length {len(mu)} that way")
    return mu, slots, spare


def sequence_count(sig: str, n: int, mode: Mode = "heady",
                   fixed_leading_one: bool = False) -> int:
    """How many sequences generate_sequences will yield, in closed form."""
    _, slots, spare = _plan(sig, n, mode, fixed_leading_one)
    if not slots:
        return 1
    return comb(spare + len(slots) - 1, len(slots) - 1)


def generate_sequences(sig: str, n: int, mode: Mode = "heady",
                       fixed_leading_one: bool = False) -> Iterator[TossSequence]:
    """Yield every length-n sequence with the given signature and final toss.

    Output order follows compositions(): output i inserts composition i's
    tail counts in front of the successive heads runs of the shortest
    sequence (taily sequences also take tails at the very end).  With
    fixed_leading_one the leading head is pinned, its slot disappears and
    every output starts with 1.  Arguments are validated eagerly and the
    outputs are built lazily.  Successive outputs share everything in
    front of the lowest slot whose tail count changed, so each one copies
    only the suffix from that slot on: a constant number of interpreter
    steps per output, plus the copying, however many slots there are.
    """
    mu, slots, spare = _plan(sig, n, mode, fixed_leading_one)
    return _emit(mu, slots, spare)


def _emit(mu: TossSequence, slots: list[int], spare: int) -> Iterator[TossSequence]:
    if not slots:
        yield mu
        return
    if len(slots) == 1:
        yield mu[:slots[0]] + (0,) * spare + mu[slots[0]:]
        return
    zeros = (0,) * spare
    # the run of mu from each slot to the next; the last slot's tails are
    # always followed by the rest of mu, taken by slicing
    pieces = [mu[a:b] for a, b in zip(slots, slots[1:])]
    # out holds the previous output; start[j] is where slot j's tails begin
    # in it.  Only the entry for the lowest changed slot is ever read, and
    # the walk never moves that slot past one beyond the previous one, so
    # refreshing start[i + 1] at every step keeps each entry read current.
    out = list(mu)
    start = slots.copy()
    for parts, i in _walk(spare, len(slots)):
        del out[start[i]:]
        out += zeros[:parts[i]]
        out += pieces[i]
        start[i + 1] = len(out)
        # every part past i + 1 is zero: the rest of mu follows unchanged
        out += zeros[:parts[i + 1]]
        out += mu[slots[i + 1]:]
        yield tuple(out)
