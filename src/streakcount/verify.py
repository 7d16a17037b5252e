"""Invariant suites that play the computation paths against each other.

Every count in this package is reachable along several independent routes:
closed forms, the appended-toss dynamic program, in-place term updates,
constructive generation and raw enumeration.  Each suite here pins two or
more routes together, or pins one route to a structural identity it never
used in its own derivation.  A suite stops at its first broken check and
reports what broke; nothing in this module prints or exits.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Callable, Iterator, NamedTuple

from . import core, counting, oracle, recurrence, signatures


# largest gen_max run_suites accepts: the generator sweep keeps all 2**n
# sequences of each length as tuples, which at 16 takes about 0.9 s and a
# 33 MB process on a 2-core Xeon (0.3 s and 19 MB at 14), and its time
# grows about threefold every two lengths
GEN_MAX_LIMIT = 16

# largest max_n run_suites accepts: the arithmetic sweeps at 200 take about
# 2.5 s and share about 8 MB of closed-form reads, dropped before the
# enumeration suites start, and their time grows as about max_n**3 (about
# 7 s at 283)
MAX_N_LIMIT = 200


class SuiteResult(NamedTuple):
    """One suite's outcome, as run_suites returns it.

    checks counts every check the suite ran, the failing one included; a
    suite stops at its first failing check, whose message is detail, and
    detail is "" when every check passed.
    """

    name: str
    ok: bool
    checks: int
    detail: str = ""


# a suite is a generator of its checks, each an (ok, detail) pair, in order
_Checks = Iterator[tuple[bool, str]]


class _Reads:
    """The closed forms that one group of suites checks, each read at most once.

    Several suites check the same cells and tables, so each value is read
    off its own route once and then shared: on first use of a length, its
    heady_count and taily_count cells as two dense lists over scores
    -(n // 2) - 3 .. n + 2, which every suite's reads stay inside, and
    closed_distribution tables.  No route's value stands in for
    another's.  Reads look the counting functions up at read time, so a
    patched closed form is what every suite reads, and the object lives
    only as long as the group of suites that shares it.
    """

    def __init__(self) -> None:
        self._rows: dict[int, tuple[list[int], list[int]]] = {}
        self._tables: dict[int, core.ScoreDistribution] = {}

    def rows(self, n: int) -> tuple[list[int], list[int]]:
        """The heady and taily cells at length n over -(n // 2) - 3 .. n + 2."""
        rows = self._rows.get(n)
        if rows is None:
            scores = range(-(n // 2) - 3, n + 3)
            rows = self._rows[n] = ([counting.heady_count(t, n) for t in scores],
                                    [counting.taily_count(t, n) for t in scores])
        return rows

    def cell(self, lead: int, s: int, n: int) -> int:
        """heady_count(s, n) for lead 0, taily_count(s, n) for lead 1; a score
        outside the rows raises IndexError."""
        row = self.rows(n)[lead]
        i = s + n // 2 + 3
        if not 0 <= i < len(row):
            raise IndexError(f"score outside the read rows: lead={lead} s={s} n={n}")
        return row[i]

    def heady(self, s: int, n: int) -> int:
        return self.cell(0, s, n)

    def taily(self, s: int, n: int) -> int:
        return self.cell(1, s, n)

    def table(self, n: int) -> core.ScoreDistribution:
        table = self._tables.get(n)
        if table is None:
            table = self._tables[n] = counting.closed_distribution(n)
        return table


def _run(name: str, checks: _Checks) -> SuiteResult:
    # a suite's body runs only as its checks are drawn, and none is drawn
    # past the first that fails
    count = 0
    for ok, detail in checks:
        count += 1
        if not ok:
            return SuiteResult(name, False, count, detail)
    return SuiteResult(name, True, count)


# hand-tallied tables for the three shortest lengths, keyed by n
_BASE = {
    1: ({0: 1}, {0: 1}),
    2: ({1: 1, 0: 1}, {0: 1, -1: 1}),
    3: ({2: 1, 1: 1, 0: 1, -1: 1}, {0: 2, -1: 2}),
}


def _base_tables(reads: _Reads) -> _Checks:
    for n, (heady, taily) in _BASE.items():
        want = core.ScoreDistribution(n, dict(heady), dict(taily))
        for label, build in (
            ("closed", reads.table),
            ("dp", recurrence.dp_distribution),
            ("incremental", recurrence.incremental_distribution),
        ):
            yield (build(n) == want, f"{label} table wrong at n={n}")
    odds = counting.win_odds(2)
    yield ((odds.alice, odds.bob, odds.ties, odds.gap) == (1, 1, 2, 0),
           f"win tallies wrong at n=2: {odds}")
    odds = counting.win_odds(3)
    yield ((odds.alice, odds.bob, odds.ties, odds.gap) == (2, 3, 3, 1),
           f"win tallies wrong at n=3: {odds}")
    yield (reads.taily(-1, 4) == 3,
           "score -1 taily count at n=4 should be 3")


def _normalization(reads: _Reads, max_n: int) -> _Checks:
    # each final-toss family covers exactly half the 2**n sequences
    for n in range(1, max_n + 1):
        dist = reads.table(n)
        half = 1 << (n - 1)
        yield (sum(dist.heady.values()) == half,
               f"heady counts at n={n} do not sum to 2**{n - 1}")
        yield (sum(dist.taily.values()) == half,
               f"taily counts at n={n} do not sum to 2**{n - 1}")


def _support_bounds(reads: _Reads, max_n: int) -> _Checks:
    for n in range(1, max_n + 1):
        lo, hi = core.heady_support(n)
        yield (reads.heady(lo, n) > 0,
               f"heady support low edge empty: s={lo} n={n}")
        yield (reads.heady(hi, n) == 1,
               f"all-heads cell should be 1: n={n}")
        for s in (lo - 2, lo - 1, hi + 1, hi + 2):
            yield (reads.heady(s, n) == 0,
                   f"heady count leaked outside support: s={s} n={n}")
        lo, hi = core.taily_support(n)
        yield (reads.taily(lo, n) > 0,
               f"taily support low edge empty: s={lo} n={n}")
        yield (reads.taily(hi, n) > 0,
               f"taily support high edge empty: s={hi} n={n}")
        for s in (lo - 2, lo - 1, hi + 1, hi + 2):
            yield (reads.taily(s, n) == 0,
                   f"taily count leaked outside support: s={s} n={n}")


def _appended_toss(reads: _Reads, max_n: int, lead: int) -> _Checks:
    # an appended head (lead 0) extends a taily sequence or raises a heady one
    # by one; an appended tail (lead 1) extends a taily one or drops a heady one
    kind = ("heady", "taily")[lead]
    for n in range(1, max_n):
        lo, hi = core.score_support(n + 1)
        for s in range(lo - 1, hi + 2):
            want = reads.taily(s, n) + reads.heady(s - 1 + 2 * lead, n)
            yield (reads.cell(lead, s, n + 1) == want,
                   f"{kind} recursion broken at s={s} n={n + 1}")


def _close_call_terms(n: int) -> Iterator[int]:
    """C(2k - 1, k) * C(n - 2k, k - 1) for 1 <= k <= (n + 1) // 3, in order;
    n >= 2.

    This is verify's own derivation of the score-one heady count, walked
    by its own ratio and sharing no step with the closed forms.  The first
    term, k = 1, is C(1, 1) * C(n - 2, 0) = 1 at every length, and the
    ratio from k to k + 1 is C(2k + 1, k + 1) / C(2k - 1, k) =
    2(2k + 1) / (k + 1) times C(n - 2k - 2, k) / C(n - 2k, k - 1).
    """
    term = 1
    yield term
    for k in range(1, (n + 1) // 3):
        a = n - 3 * k
        term = term * (2 * (2 * k + 1) * (a + 1) * a * (a - 1)) // (
            (k + 1) * k * (n - 2 * k) * (n - 2 * k - 1))
        yield term


def _close_call_census(reads: _Reads, max_n: int) -> _Checks:
    # two unrelated derivations of the score-one heady count must agree;
    # heady_close_calls and win_gap_step read the series stream on these
    # ascending runs, so the census sum and the cell are named directly
    for n in range(2, max_n + 1):
        yield (counting.heady_close_calls(n) == reads.heady(1, n)
               == sum(_close_call_terms(n)),
               f"close-call census disagrees with the closed form at n={n}")
    for n in range(3, max_n + 1):
        yield (counting.win_gap_step(n) == reads.heady(1, n - 1),
               f"gap step is not the previous close-call count at n={n}")


def _gap_definition(reads: _Reads, max_n: int) -> _Checks:
    # the two-cell win tallies and the one-cell gap versus brute summation
    # of the table over every score
    for n in range(2, max_n + 1):
        gap = counting.win_gap(n)
        dist = reads.table(n)
        odds = counting.win_odds(n, digits=4)
        yield ((odds.alice, odds.bob, odds.ties, odds.gap)
               == (dist.alice_wins(), dist.bob_wins(), dist.ties(), dist.win_gap()),
               f"two-cell win tallies disagree with the table's band sums at n={n}")
        yield (dist.win_gap() == gap,
               f"distribution gap disagrees with the one-cell gap at n={n}")


def _gap_recursion(reads: _Reads, max_n: int) -> _Checks:
    for n in range(2, max_n):
        # both sides read the series stream here, so the closed cell checks them
        want = counting.win_gap(n) + counting.win_gap_step(n + 1)
        yield (counting.win_gap(n + 1) == want == reads.heady(-1, n + 1),
               f"gap recursion broken at n={n + 1}")
        yield (reads.heady(-1, n + 1)
               == reads.heady(1, n) + reads.heady(-1, n),
               f"close-call cell recursion broken at n={n + 1}")
        # the step also equals the whole gap minus the close-call imbalance
        dist = reads.table(n)
        table = core.close_call_buckets(dist)
        yield (
            counting.win_gap_step(n + 1) == dist.win_gap() - (table.h4 - table.h2),
            f"step-from-imbalance identity broken at n={n + 1}")


def _gap_growth(reads: _Reads, max_n: int) -> _Checks:
    yield (counting.win_gap(2) == 0, "the gap at n=2 should be 0")
    running = 0
    for n in range(3, max_n + 1):
        running += counting.win_gap_step(n)
        yield (counting.win_gap(n) == running == reads.heady(-1, n),
               f"gap does not telescope over its steps to the closed cell at n={n}")
        yield (counting.win_gap(n) > counting.win_gap(n - 1),
               f"gap should grow strictly from n=3 on, flat at n={n}")
    for n in range(2, max_n + 1):
        yield (counting.heady_close_calls(n) >= 1,
               f"there is always a score-one heady sequence, none at n={n}")


def _rows_ok(rows: list[list[int]]) -> list[bool]:
    # whether each budget row holds exactly [C(m - 2k, k) for k = 0 .. m // 3];
    # the walked cells share these few rows, so each is checked once
    return [len(row) == m // 3 + 1
            and all(r == comb(m - 2 * k, k) for k, r in enumerate(row))
            for m, row in enumerate(rows)]


def _term_updates(reads: _Reads, max_n: int) -> _Checks:
    # walk single cells from birth, one length at a time, against the
    # closed form; exercises deep positive and negative scores alike.
    # A walked cell keeps its shape while its budget row passed _rows_ok
    # and its list, read off the rows, equals the reference grown beside
    # it by comb, heady score s + lead's C(2j + s + lead, j) up to the
    # heady bound
    lo = -min(20, max_n // 2)
    hi = min(20, max_n - 1)
    # a heady read also dots its taily partner's row, two budgets on, so
    # the rows reach one budget past the deepest taily cell's, and the
    # coefficient C(2j + sigma, j) sits at row 4j + sigma, which reaches
    # (4 * max_n - sigma - 4) // 3 at the heady bound, deepest at sigma = lo
    rows = recurrence._grow_rows([[1]], max(max_n - lo + 1, (4 * max_n - lo - 4) // 3))
    rows_ok = _rows_ok(rows)
    for s in range(lo, hi + 1):
        for lead, kind in enumerate(("heady", "taily")):
            n = recurrence._birth(lead, s)
            if n > max_n:
                continue
            sigma, j0 = s + lead, max(0, -s - lead)
            coefs: list[int] = []
            want: list[int] = []
            recurrence._fill(sigma, n, coefs, rows)
            yield (recurrence._pair(sigma, n, coefs, rows)[lead] == reads.cell(lead, s, n),
                   f"{kind} cell wrong at birth: s={s} n={n}")
            while n < max_n:
                n += 1
                recurrence._fill(sigma, n, coefs, rows)
                for j in range(j0 + len(want), (n - sigma - 1) // 3 + 1):
                    want.append(comb(2 * j + sigma, j))
                yield (recurrence._pair(sigma, n, coefs, rows)[lead] == reads.cell(lead, s, n),
                       f"{kind} term update drifted: s={s} n={n}")
                yield (rows_ok[n - s - 1 + lead] and coefs == want,
                       f"{kind} terms lost their binomial shape: s={s} n={n}")


def _cell_table(reads: _Reads, n: int) -> core.ScoreDistribution:
    # the table read cell by cell off heady_count and taily_count, each cell
    # walking its own sum in k: a route apart from closed_distribution,
    # which fills the heady half at n and at n + 1 by the recurrence in the
    # score and takes the taily half as their difference.  The rows' inner
    # slice starts at score -(n // 2), as the dense lists of every route do
    heady, taily = reads.rows(n)
    return core.ScoreDistribution.from_lists(n, heady[3:-3], taily[3:-3])


def _method_agreement(reads: _Reads, max_n: int) -> _Checks:
    # the DP meets the single-cell closed forms and the term vectors meet
    # the closed-form table, so a fault in any one route shows
    sweep_dp = recurrence.dp_sweep(max_n)
    sweep_terms = recurrence.table_sweep(max_n)
    for n, dp_dist, term_dist in zip(range(1, max_n + 1), sweep_dp, sweep_terms):
        yield (dp_dist == _cell_table(reads, n),
               f"dp table disagrees with closed forms at n={n}")
        yield (term_dist == reads.table(n),
               f"term-update table disagrees with closed forms at n={n}")


def _all_signatures(max_marks: int) -> Iterator[str]:
    for length in range(1, max_marks + 1):
        for marks in itertools.product("+-", repeat=length):
            yield "".join(marks)


def _rejected(call: Callable[[], object]) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


def _min_length_formula() -> _Checks:
    for sig in _all_signatures(8):
        modes = ["heady"] if sig.endswith("+") else ["heady", "taily"]
        for mode in modes:
            mu = signatures.min_length_sequence(sig, mode)
            yield (len(mu) == signatures.min_length(sig, mode),
                   f"built length disagrees with the formula: {sig!r} {mode}")
            yield (signatures.signature_of(mu) == sig,
                   f"shortest sequence carries the wrong marks: {sig!r} {mode}")
            yield (mu[-1] == (1 if mode == "heady" else 0),
                   f"shortest sequence ends on the wrong toss: {sig!r} {mode}")
            built = list(signatures.generate_sequences(sig, len(mu), mode))
            yield (built == [mu],
                   f"generation at the minimum length is not unique: {sig!r} {mode}")
            if len(mu) > 1:
                yield (
                    _rejected(lambda: list(
                        signatures.generate_sequences(sig, len(mu) - 1, mode))),
                    f"generation below the minimum length succeeded: {sig!r} {mode}")
        if sig.endswith("+"):
            yield (_rejected(lambda: signatures.min_length(sig, "taily")),
                   f"taily mode accepted a '+'-ending signature: {sig!r}")


def _insertion_census(reads: _Reads, max_n: int) -> _Checks:
    # summing the generator's closed-form counts over every realizable
    # signature must rebuild the whole distribution, score by score; a
    # signature's score and shortest lengths do not depend on n, so each
    # signature is visited once and counted into every length it fits.
    # Every length starts from its one mark-free sequence per final toss
    census = {mode: [{0: 1} for _ in range(max_n + 1)] for mode in ("heady", "taily")}
    for sig in _all_signatures(max_n - 1):
        s = signatures.signature_score(sig)
        for mode in ["heady"] if sig.endswith("+") else ["heady", "taily"]:
            tables = census[mode]
            for n in range(signatures.min_length(sig, mode), max_n + 1):
                tables[n][s] = tables[n].get(s, 0) + signatures.sequence_count(sig, n, mode)
    for n in range(1, max_n + 1):
        closed = reads.table(n)
        yield (census["heady"][n] == closed.heady,
               f"signature census misses the heady table at n={n}")
        yield (census["taily"][n] == closed.taily,
               f"signature census misses the taily table at n={n}")


def _insertion_bijection(max_marks: int) -> _Checks:
    # a score-one signature at length n and its complement, pinned to a
    # leading head, at length n + 1 generate equally many sequences, for
    # the signature's shortest length and the six above it
    for sig in _all_signatures(max_marks):
        if signatures.signature_score(sig) != 1:
            continue
        twin = signatures.complement(sig)
        first = signatures.min_length(sig, "heady")
        for n in range(first, first + 7):
            ours = signatures.sequence_count(sig, n, "heady")
            theirs = signatures.sequence_count(twin, n + 1, "heady",
                                               fixed_leading_one=True)
            yield (ours == theirs,
                   f"complement pairing miscounts: {sig!r} n={n}")
            if len(sig) <= 5:
                built = list(signatures.generate_sequences(
                    twin, n + 1, "heady", fixed_leading_one=True))
                yield (len(built) == ours and len(set(built)) == ours,
                       f"complement generation miscounts: {sig!r} n={n}")


def _generator_coverage(gen_max: int) -> _Checks:
    # every sequence of every length must be produced exactly once, under
    # exactly the signature and final toss it actually carries
    for n in range(1, gen_max + 1):
        groups: dict[tuple[str, str], set[core.TossSequence]] = {}
        for word in range(1 << n):
            bits = oracle.word_to_bits(word, n)
            mode = "heady" if bits[-1] == 1 else "taily"
            groups.setdefault((signatures.signature_of(bits), mode), set()).add(bits)
        yield (groups.pop(("", "taily")) == {(0,) * n},
               f"mark-free taily sequences at n={n} should be the all-tails one")
        yield (groups.pop(("", "heady")) == {(0,) * (n - 1) + (1,)},
               f"mark-free heady sequences at n={n} should be tails-then-head")
        for (sig, mode), want in groups.items():
            got = list(signatures.generate_sequences(sig, n, mode))
            yield (len(got) == len(set(got)),
                   f"duplicate outputs: {sig!r} {mode} n={n}")
            yield (set(got) == want, f"coverage gap: {sig!r} {mode} n={n}")
            yield (signatures.sequence_count(sig, n, mode) == len(want),
                   f"closed-form count wrong: {sig!r} {mode} n={n}")
            pinned = {bits for bits in want if bits[0] == 1}
            if pinned:
                got_pinned = set(signatures.generate_sequences(
                    sig, n, mode, fixed_leading_one=True))
                yield (got_pinned == pinned,
                       f"pinned-head coverage gap: {sig!r} {mode} n={n}")
                yield (
                    signatures.sequence_count(sig, n, mode, fixed_leading_one=True)
                    == len(pinned),
                    f"pinned-head count wrong: {sig!r} {mode} n={n}")
            else:
                yield (
                    _rejected(lambda: signatures.sequence_count(
                        sig, n, mode, fixed_leading_one=True)),
                    f"pinned head accepted with nowhere to put tails: "
                    f"{sig!r} {mode} n={n}")


def _oracle_agreement(reads: _Reads, oracle_max: int) -> _Checks:
    for n in range(1, oracle_max + 1):
        seen = oracle.enumerate_distribution(n)
        closed = reads.table(n)
        yield (seen == closed == _cell_table(reads, n),
               f"enumeration disagrees with closed forms at n={n}")
        table = core.close_call_buckets(closed)
        yield (oracle.close_call_table(n) == table,
               f"enumerated close-call buckets disagree at n={n}")
        half = 1 << (n - 1)
        yield (sum(table.heady_row()) == half and sum(table.taily_row()) == half,
               f"close-call rows do not each cover half the sequences at n={n}")
        if n >= 2:
            yield (oracle.win_gap(n) == counting.win_gap(n),
                   f"enumerated gap disagrees at n={n}")
            yield (table.h4 == counting.win_gap(n),
                   f"the gap should sit in the score minus-one heady bucket, n={n}")
    n = min(oracle_max, 6)
    dist = reads.table(n)
    for mode, counts in (("heady", dist.heady), ("taily", dist.taily)):
        want_last = 1 if mode == "heady" else 0
        for s, c in counts.items():
            found = oracle.sequences_with(n, s, mode)
            yield (len(found) == c,
                   f"sequence listing count wrong: s={s} {mode} n={n}")
            yield (all(core.score(b) == s and b[-1] == want_last for b in found),
                   f"sequence listing contents wrong: s={s} {mode} n={n}")


def run_suites(max_n: int = 64, oracle_max: int = 12,
               gen_max: int | None = None) -> list[SuiteResult]:
    """Run every suite and return the results in a fixed order.

    max_n bounds the pure-arithmetic sweeps, oracle_max the enumeration
    sweeps and gen_max the exhaustive generator sweeps; gen_max defaults
    to min(10, max_n).  Each oracle enumeration scores about
    2 * 2**(n / 2) half-words, while the generator sweep builds all 2**n
    sequences of each length as tuples, in pure Python; before any suite
    runs, max_n is refused past MAX_N_LIMIT, oracle_max past the oracle's
    limit, oracle.MAX_N, and gen_max past GEN_MAX_LIMIT.
    """
    if gen_max is None:
        gen_max = min(10, max_n)
    for name, bound, limit, what in (
            ("max_n", max_n, MAX_N_LIMIT, "the arithmetic sweep limit"),
            ("oracle_max", oracle_max, oracle.MAX_N, "the oracle's enumeration limit"),
            ("gen_max", gen_max, GEN_MAX_LIMIT, "the generator sweep limit")):
        if bound < 1:
            raise ValueError(f"{name} must be at least 1, got {bound}")
        if bound > limit:
            raise ValueError(f"{name}={bound} exceeds {what} of {limit}")
    # each group of suites shares its own reads, held only by the group's
    # generators and dropped with them before the next group starts: the
    # generator sweep sets the run's peak memory, and the enumeration
    # suites' lengths are short enough to read again
    reads = _Reads()
    results = [_run(name, checks) for name, checks in (
        ("base-tables", _base_tables(reads)),
        ("normalization", _normalization(reads, max_n)),
        ("support-bounds", _support_bounds(reads, max_n)),
        ("heady-recursion", _appended_toss(reads, max_n, 0)),
        ("taily-recursion", _appended_toss(reads, max_n, 1)),
        ("close-call-census", _close_call_census(reads, max_n)),
        ("gap-definition", _gap_definition(reads, max_n)),
        ("gap-recursion", _gap_recursion(reads, max_n)),
        ("gap-growth", _gap_growth(reads, max_n)),
        ("term-updates", _term_updates(reads, max_n)),
        ("method-agreement", _method_agreement(reads, max_n)),
    )]
    reads = _Reads()
    results += [_run(name, checks) for name, checks in (
        ("min-length-formula", _min_length_formula()),
        ("insertion-census", _insertion_census(reads, min(gen_max + 2, 14))),
        ("insertion-bijection", _insertion_bijection(7)),
        ("generator-coverage", _generator_coverage(gen_max)),
        ("oracle-agreement", _oracle_agreement(reads, oracle_max)),
    )]
    return results
