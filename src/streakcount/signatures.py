"""Signatures: the scoring skeleton of a toss sequence, and how to rebuild
every sequence that shares one.

Scanning adjacent pairs left to right, each heads-heads pair leaves a '+'
mark and each heads-tails pair a '-' mark; pairs that open with tails
leave nothing.  The mark string is the signature.  Sequences with the same
signature score identically, and planting extra tails in front of any run
of heads never disturbs the marks.  That is the lever the generator pulls:
start from the unique shortest sequence carrying a signature, then spread
the spare tails over the legal insertion slots in every possible way, in
descending lexicographic order of the slots' tail counts.
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

    Each output inserts a tail count in front of each successive heads run
    of the shortest sequence (taily sequences also take tails at the very
    end), and the outputs come in descending lexicographic order of those
    counts: all spare tails in the first slot first, all in the last slot
    last.  With fixed_leading_one the leading head is pinned, its slot
    disappears and every output starts with 1.  Arguments are validated
    eagerly and the outputs are built lazily.  Each output is the
    previous one edited in place: a step moves one tail out of one slot
    and into the next, together with every tail of the last slot, by at
    most two deletes and one insert.  That is a constant number of
    interpreter steps per output on average, however many slots there
    are, plus the copy that hands each output out as a tuple.
    """
    mu, slots, spare = _plan(sig, n, mode, fixed_leading_one)
    return _emit(mu, slots, spare)


def _emit(mu: TossSequence, slots: list[int], spare: int) -> Iterator[TossSequence]:
    if not spare:
        yield mu
        return
    zeros = (0,) * spare
    # the first output puts every spare tail in the first slot
    out = list(mu[:slots[0]] + zeros + mu[slots[0]:])
    yield tuple(out)
    last = len(slots) - 1
    # tails[j] is slot j's tail count, stepped in place: each step takes
    # one tail from the rightmost nonzero count before the last, i, and
    # moves it, with every tail of the last slot, into slot i + 1.  The
    # counts then run in descending lexicographic order, from
    # (spare, 0, ..., 0) to (0, ..., 0, spare), and every count strictly
    # between i and the last is zero when the step begins
    tails = [spare] + [0] * last
    # width[j] is the run of mu from slot j to slot j + 1, and rest the
    # run after the last slot, which always closes the output
    width = [b - a for a, b in zip(slots, slots[1:])]
    rest = len(mu) - slots[-1]
    # out holds the previous output and start[j] is where slot j's tails
    # begin in it.  A step at i reads only start[i], changes out only from
    # there on, so start[0 .. i] stay current, and sets start[i + 1].  The
    # entries past i + 1 go stale, but the next step is at i + 1 or lower,
    # so the entry a step reads is always current
    start = slots.copy()
    # the next step's slot, -1 once no count before the last is nonzero
    i = 0 if last else -1
    while i >= 0:
        if i + 1 < last:
            # one of slot i's tails and every tail of the last slot, which
            # lie just before rest since the slots between are empty, move
            # into the empty slot i + 1: one delete each and one insert
            moved = tails[last]
            tails[i] -= 1
            tails[last], tails[i + 1] = 0, moved + 1
            del out[start[i]]
            if moved:
                end = len(out) - rest
                del out[end - moved:end]
            at = start[i + 1] = start[i] + tails[i] + width[i]
            out[at:at] = zeros[:moved + 1]
            yield tuple(out)
            i += 1
            continue
        # slot i is next to the last: its tails cross one at a time.  The
        # last slot's tails are a run of zeros ending where rest begins, so
        # each tail, taken from the front of slot i, joins that run at its
        # end, which stays put while slot i shrinks
        front, end = start[i], len(out) - 1 - rest
        for _ in range(tails[i]):
            del out[front]
            out.insert(end, 0)
            yield tuple(out)
        tails[last] += tails[i]
        tails[i] = 0
        while i >= 0 and not tails[i]:
            i -= 1
