"""The four workloads: seeded inputs, one round of operations, and the checks.

Each workload draws every input from its seed when it is built, computes
its reference answers once (untimed), and then runs whole rounds: the same
fixed list of operations each time.  An operation is one request a user
would make; its wall time is taken around the call alone, and its output
is checked after the clock stops.  Spans around every call into a layer
feed the traced run; the work counters on them are counted from outputs
where outputs show the work, and otherwise derived from the inputs
(summation bounds, 2**n words) and labelled as computed.

Inputs that set the run time are drawn from narrow seeded ranges, one per
stratum, so that a round does nearly the same work on every seed.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref
from reference import expect
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# The host these runs share speeds up and slows down by a third over tens of
# seconds, and by different factors for different kinds of work.  So every
# operation's wall time is also reported host-normalised: scaled by CAL_S
# over a calibration time measured next to it.  The calibration times three
# kernels, each about CAL_S on this host when it is quiet; numpy-bound
# operations are scaled by the numpy kernel, all others by the geometric
# mean of the three.
CAL_S = 0.002


def _interpreter_kernel() -> None:
    d: dict[int, int] = {}
    x, mask = 1, (1 << 256) - 1
    for i in range(10000):
        d[i & 255] = d.get(i & 255, 0) + i
        x = (x * 3 + i) & mask


def _bigint_kernel() -> None:
    for k in (800, 1200, 1600):
        math.comb(8000 - 2 * k, k) * math.comb(2 * k - 1, k)


_WORDS = np.arange(1 << 19, dtype=np.uint64)


def _numpy_kernel() -> None:
    np.bincount(np.bitwise_count(_WORDS & (_WORDS >> np.uint64(1))).astype(np.int64))


def calibrate() -> tuple[float, float]:
    """(general, numpy) calibration seconds from best-of-three kernel times."""
    best = []
    for kernel in (_interpreter_kernel, _bigint_kernel, _numpy_kernel):
        t = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            kernel()
            t = min(t, perf_counter() - t0)
        best.append(t)
    return (best[0] * best[1] * best[2]) ** (1 / 3), best[2]


class Ops:
    """The operations of one round: (kind, wall seconds, calibration seconds, error or None).

    The calibration runs between operations; each operation keeps the mean
    of the calibrations just before and just after it.
    """

    def __init__(self, tr: Tracer, cal: tuple[float, float] | None = None) -> None:
        self.tr = tr
        self.cal = calibrate() if cal is None else cal
        self.records: list[tuple[str, float, float, str | None]] = []

    def run(self, kind: str, fn, *args, numpy: bool = False):
        """Time fn(*args); an exception from the program fails the operation.

        Returns the output, or None when the operation failed.  numpy marks
        an operation whose time goes to numpy, scaled by the numpy kernel.
        """
        before, out, err = self.cal, None, None
        with self.tr.span("op." + kind):
            t0 = perf_counter()
            try:
                out = fn(*args)
            except Exception as exc:   # any program fault fails the operation
                err = type(exc).__name__
            wall = perf_counter() - t0
        self.cal = calibrate()
        profile = 1 if numpy else 0
        self.records.append((kind, wall, (before[profile] + self.cal[profile]) / 2, err))
        return out

    def norm(self, *kinds: str) -> list[float]:
        """Host-normalised seconds of the successful operations of these kinds (all if none)."""
        return [wall * CAL_S / cal for k, wall, cal, err in self.records
                if err is None and (not kinds or k in kinds)]


# ---------------------------------------------------------------- tables

def heady_terms(s: int, n: int) -> int:
    return max(0, (n - s - 1) // 3 - max(0, -s) + 1)


def taily_terms(s: int, n: int) -> int:
    return max(0, (n - s) // 3 - max(1, -s) + 1)


def closed_work(n: int) -> dict[str, float]:
    """Cells and summation terms of one closed-form table (computed, not counted)."""
    heady = range(-((n - 1) // 2), n)
    taily = range(-(n // 2), max(0, n - 3) + 1)
    return {"cells": len(heady) + len(taily),
            "terms": sum(heady_terms(s, n) for s in heady) + sum(taily_terms(s, n) for s in taily)}


def odds_work(n: int) -> dict[str, float]:
    scores = range(-(n // 2), n)
    return {"cells": 2 * len(scores),
            "terms": sum(heady_terms(s, n) + taily_terms(s, n) for s in scores)}


def term_divisions(n_max: int) -> int:
    """Exact divisions a term-vector sweep to n_max performs (computed).

    Advancing a live cell to length m divides once per summation term it
    holds at m: every old term is updated and a new one enters at most once.
    """
    total = 0
    for m in range(2, n_max + 1):
        total += sum(heady_terms(s, m) for s in range(-((m - 1) // 2), m)
                     if (s + 1 if s >= 0 else 1 - 2 * s) < m)
        total += sum(taily_terms(s, m) for s in range(-(m // 2), max(0, m - 3) + 1)
                     if (s + 3 if s >= 0 else -2 * s) < m)
    return total


def strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One draw from each of k equal slices of [lo, hi)."""
    step = (hi - lo) / k
    return [rng.randrange(int(lo + i * step), int(lo + (i + 1) * step)) for i in range(k)]


class Tables:
    """Full score tables along three paths, plus single tables at seeded lengths."""

    setup = "streakcount.closed_distribution(20)"

    def __init__(self, rng: random.Random, small: bool = False) -> None:
        self.closed_max = 30 if small else 180
        self.dp_max = 120 if small else 1000
        k = 1 if small else 4
        self.odds_n = strata(rng, 40 if small else 100, 60 if small else 300, k)
        self.dp_n = strata(rng, 60 if small else 200, 100 if small else 600, k)
        self.inc_n = strata(rng, 20 if small else 40, 30 if small else 120, k)
        self.digits = rng.randrange(4, 13)
        self.dp_keep = set(range(1, self.closed_max + 1)) | set(
            range(50, self.dp_max + 1, 50)) | {self.dp_max}

    def inputs(self) -> dict:
        return {"sweep_closed": [1, self.closed_max], "sweep_termvec": [1, self.closed_max],
                "sweep_dp": [1, self.dp_max], "win_odds": self.odds_n,
                "win_odds_digits": self.digits, "dp_distribution": self.dp_n,
                "incremental_distribution": self.inc_n}

    def prepare(self) -> None:
        ref.check_reference(14)
        self.ref = ref.tables_at(self.dp_keep | set(self.odds_n) | set(self.dp_n)
                                 | set(self.inc_n))
        self.divisions = {n: term_divisions(n) for n in [self.closed_max, *self.inc_n]}

    def warm_up(self, sc) -> None:
        sc.counting.closed_distribution(20)
        list(sc.recurrence.dp_sweep(20))
        list(sc.recurrence.table_sweep(20))

    def round(self, sc, ops: Ops) -> None:
        tr = ops.tr

        def closed():
            out = []
            for n in range(1, self.closed_max + 1):
                with tr.span("counting.closed_distribution") as a:
                    out.append(sc.counting.closed_distribution(n))
                if tr.on:
                    a.update(closed_work(n))
            return out

        def termvec():
            with tr.span("recurrence.table_sweep") as a:
                out = list(sc.recurrence.table_sweep(self.closed_max))
            if tr.on:
                a.update(cells=sum(len(d.heady) + len(d.taily) for d in out),
                         term_updates=self.divisions[self.closed_max])
            return out

        def dp():
            kept, cells = {}, 0
            with tr.span("recurrence.dp_sweep") as a:
                for d in sc.recurrence.dp_sweep(self.dp_max):
                    cells += len(d.heady) + len(d.taily)
                    if d.n in self.dp_keep:
                        kept[d.n] = d
            a["cells"] = cells
            return kept

        def single(name: str, fn, n: int, **attrs):
            def call():
                with tr.span(name) as a:
                    out = fn(n)
                if tr.on:
                    a.update(attrs)
                    if hasattr(out, "heady"):
                        a["cells"] = len(out.heady) + len(out.taily)
                return out
            return call

        closed_out = ops.run("sweep_closed", closed)
        termvec_out = ops.run("sweep_termvec", termvec)
        dp_out = ops.run("sweep_dp", dp)
        odds = [(n, ops.run("win_odds", single(
            "counting.win_odds", lambda m: sc.counting.win_odds(m, self.digits), n,
            **odds_work(n)))) for n in self.odds_n]
        dps = [(n, ops.run("dp_distribution", single(
            "recurrence.dp_distribution", sc.recurrence.dp_distribution, n))) for n in self.dp_n]
        incs = [(n, ops.run("incremental_distribution", single(
            "recurrence.incremental_distribution", sc.recurrence.incremental_distribution, n,
            term_updates=self.divisions[n]))) for n in self.inc_n]

        if closed_out is not None:
            expect(len(closed_out) == self.closed_max, "closed sweep has the wrong length")
            for n, d in enumerate(closed_out, 1):
                ref.check_table(n, d.heady, d.taily, self.ref[n], "closed")
        if termvec_out is not None:
            expect([d.n for d in termvec_out] == list(range(1, self.closed_max + 1)),
                   "term-vector sweep lengths wrong")
            for d in termvec_out:
                ref.check_table(d.n, d.heady, d.taily, self.ref[d.n], "term-vector")
        if dp_out is not None:
            expect(sorted(dp_out) == sorted(self.dp_keep), "dp sweep skipped a length")
            for n, d in dp_out.items():
                ref.check_table(n, d.heady, d.taily, self.ref[n], "dp")
        if None not in (closed_out, termvec_out, dp_out):
            for n in range(1, self.closed_max + 1):
                expect(closed_out[n - 1] == termvec_out[n - 1] == dp_out[n],
                       f"the three paths disagree at n={n}")
        for n, o in odds:
            if o is not None:
                alice, bob, ties = ref.wins(self.ref[n])
                expect((o.n, o.alice, o.bob, o.ties, o.gap) == (n, alice, bob, ties, bob - alice),
                       f"win_odds({n}) counts wrong")
                expect([o.alice_share, o.bob_share, o.tie_share, o.gap_share]
                       == [ref.share(v, n, self.digits) for v in (alice, bob, ties, bob - alice)],
                       f"win_odds({n}) shares wrong")
        for label, pairs in (("dp_distribution", dps), ("incremental_distribution", incs)):
            for n, d in pairs:
                if d is not None:
                    expect(d.n == n, f"{label}({n}) has the wrong length")
                    ref.check_table(n, d.heady, d.taily, self.ref[n], label)

    def detail(self, rounds: list[Ops]) -> dict[str, tuple[float, str]]:
        return {"sweep_closed_s": (median_of(rounds, "sweep_closed"), "s"),
                "sweep_dp_s": (median_of(rounds, "sweep_dp"), "s"),
                "sweep_termvec_s": (median_of(rounds, "sweep_termvec"), "s")}


def median_of(rounds: list[Ops], *kinds: str) -> float:
    """Median over rounds of the normalised seconds spent in these kinds."""
    return statistics.median(sum(ops.norm(*kinds)) for ops in rounds)


# ---------------------------------------------------------------- series

class Series:
    """b-file series to a moderate length, plus single win-gap cells at large n."""

    setup = "streakcount.win_gap(200)"

    def __init__(self, rng: random.Random, small: bool = False) -> None:
        self.bfile_max = 120 if small else 700
        bases = [600] if small else [3000, 4000, 5000, 6000, 7000]
        self.cells = [b + rng.randrange(0, 200) for b in bases]

    def inputs(self) -> dict:
        return {"bfile": [2, self.bfile_max], "win_gap": self.cells}

    def prepare(self) -> None:
        self.ref = ref.gap_series(max(self.bfile_max, 100))

    def warm_up(self, sc) -> None:
        sc.counting.win_gap(200)
        sc.counting.heady_close_calls(200)

    def round(self, sc, ops: Ops) -> None:
        tr = ops.tr

        def bfile(name: str, fn, start: int, terms):
            def call():
                out = {}
                for n in range(start, self.bfile_max + 1):
                    with tr.span(name) as a:
                        out[n] = fn(n)
                    if tr.on:
                        a.update(cells=1, terms=terms(n))
                return out
            return call

        gaps = ops.run("bfile", bfile("counting.win_gap", sc.counting.win_gap, 2,
                                      lambda n: heady_terms(-1, n)))
        h2 = ops.run("bfile", bfile("counting.heady_close_calls",
                                    sc.counting.heady_close_calls, 2, lambda n: (n + 1) // 3))
        steps = ops.run("bfile", bfile("counting.win_gap_step", sc.counting.win_gap_step, 3,
                                       lambda n: heady_terms(1, n - 1)))

        def cell(n: int):
            def call():
                with tr.span("counting.win_gap") as a:
                    out = sc.counting.win_gap(n)
                if tr.on:
                    a.update(cells=1, terms=heady_terms(-1, n))
                return out
            return call

        big = [(n, ops.run("big_cell", cell(n))) for n in self.cells]

        if gaps is not None:
            expect(all(gaps[n] == self.ref[n][0] for n in gaps), "win_gap b-file wrong")
            if 100 in gaps:
                expect(gaps[100] == ref.GAP_AT_100, "win_gap(100) is not the paper's constant")
        if h2 is not None:
            expect(all(h2[n] == self.ref[n][1] for n in h2), "heady_close_calls b-file wrong")
        if steps is not None:
            expect(all(steps[n] == self.ref[n][0] - self.ref[n - 1][0] for n in steps),
                   "win_gap_step b-file wrong")
        if gaps is not None and h2 is not None:
            expect(all(gaps[n] == gaps[n - 1] + h2[n - 1] for n in range(3, self.bfile_max + 1)),
                   "growth identity win_gap(n) = win_gap(n-1) + h2(n-1) broken")
        for n, g in big:
            if g is not None:
                ref.check_asymptotic_gap(n, g)

    def detail(self, rounds: list[Ops]) -> dict[str, tuple[float, str]]:
        return {"bfile_s": (median_of(rounds, "bfile"), "s"),
                "big_cell_s": (median_of(rounds, "big_cell"), "s")}


# ---------------------------------------------------------------- construct

# A 1200-mark '-' signature at length 3700, taily: its first outputs overflow
# the recursion limit in signatures.compositions, which recurses once per
# insertion slot.  Seed-independent, so it fails on every round of every run.
FAILING = ("-" * 1200, 3700, "taily")
FAILING_K = 50


def random_signature(rng: random.Random, marks: int, mode: str) -> str:
    sig = "".join(rng.choice("+-") for _ in range(marks))
    return sig[:-1] + "-" if mode == "taily" else sig


class Construct:
    """Constructive generation on shallow and deep signatures, and the enumeration oracle."""

    setup = 'list(streakcount.generate_sequences("+-+", 12))'

    def __init__(self, rng: random.Random, small: bool = False) -> None:
        # shallow: 4..6 insertion slots and the most spare tails that keep the
        # output count at or under the target, so every signature yields thousands
        target = 300 if small else 5000
        self.shallow = []
        while len(self.shallow) < (1 if small else 8):
            mode = rng.choice(("heady", "taily"))
            sig = random_signature(rng, rng.randrange(4, 8), mode)
            bins = ref.slot_count(sig, mode)
            if 4 <= bins <= 6:
                spare = max(s for s in range(200) if math.comb(s + bins - 1, bins - 1) <= target)
                self.shallow.append((sig, ref.min_length(sig, mode) + spare, mode))
        # deep: hundreds of marks, first K outputs.  Each output costs in
        # proportion to the insertion slots, so each signature is drawn until
        # its slot count lands in a narrow band
        self.deep_k = 50 if small else 600
        self.deep = []
        for slots in (60,) if small else (120, 150, 180, 210):
            mode = rng.choice(("heady", "taily"))
            sig = ""
            while not slots <= ref.slot_count(sig, mode) < slots + 4:
                sig = random_signature(rng, rng.randrange(2 * slots - 40, 2 * slots + 40), mode)
            self.deep.append((sig, ref.min_length(sig, mode) + rng.randrange(5, 40), mode))
        self.failing = [] if small else [FAILING]
        self.enum_n = [12, 14] if small else [20, 22]
        # sequences_with: two seeded (score, final toss) cells whose counts lie in a band
        pick_n = 12 if small else 21
        lo, hi = (10, 200) if small else (3000, 6000)
        self.ref = ref.tables_at(set(self.enum_n) | {pick_n})
        cells = [(pick_n, s, m) for m, half in zip(("heady", "taily"), self.ref[pick_n])
                 for s, c in sorted(half.items()) if lo <= c <= hi]
        self.picks = rng.sample(cells, 2)

    def inputs(self) -> dict:
        return {"shallow": self.shallow, "deep": self.deep, "deep_first_k": self.deep_k,
                "failing": [(f"-*{len(s)}", n, m, FAILING_K) for s, n, m in self.failing],
                "enumerate_distribution": self.enum_n, "sequences_with": self.picks}

    def prepare(self) -> None:
        ref.check_realization_count(12)
        self.checked: dict[tuple, int] = {}

    def warm_up(self, sc) -> None:
        list(sc.signatures.generate_sequences("+-+", 12))
        sc.oracle.enumerate_distribution(8)

    def round(self, sc, ops: Ops) -> None:
        tr = ops.tr

        def gen(sig: str, n: int, mode: str, k: int | None):
            def call():
                with tr.span("signatures.generate") as a:
                    t0 = perf_counter()
                    it = sc.signatures.generate_sequences(sig, n, mode)
                    first = next(it)
                    t1 = perf_counter()
                    out = [first, *(it if k is None else itertools.islice(it, k - 1))]
                a.update(sequences=len(out), first_output_s=t1 - t0, calls=1)
                with tr.span("signatures.sequence_count"):
                    count = sc.signatures.sequence_count(sig, n, mode)
                return out, count
            return call

        def oracle(name: str, fn, *args):
            def call():
                with tr.span(name) as a:
                    out = fn(*args)
                a["words"] = 1 << args[0]
                return out
            return call

        gens = [(c, None, ops.run("gen_shallow", gen(*c, None))) for c in self.shallow]
        gens += [(c, self.deep_k, ops.run("gen_deep", gen(*c, self.deep_k))) for c in self.deep]
        gens += [(c, FAILING_K, ops.run("gen_deep", gen(*c, FAILING_K))) for c in self.failing]
        tables = [(n, ops.run("oracle", oracle(
            "oracle.enumerate_distribution", sc.oracle.enumerate_distribution, n), numpy=True))
            for n in self.enum_n]
        picked = [(p, ops.run("oracle", oracle(
            "oracle.sequences_with", sc.oracle.sequences_with, *p), numpy=True))
            for p in self.picks]

        for (sig, n, mode), k, res in gens:
            if res is not None and self._first_time((sig, n, mode, k), res[0]):
                out, count = res
                ref.check_realizations(sig, n, mode, out, f"generate {mode} n={n}")
                want = ref.realization_count(sig, n, mode)
                expect(count == want and len(out) == (want if k is None else min(want, k)),
                       f"generate {mode} n={n}: {len(out)} outputs, sequence_count {count}, "
                       f"formula {want}")
        for n, d in tables:
            if d is not None:
                expect(d.n == n, f"enumerate_distribution({n}) has the wrong length")
                ref.check_table(n, d.heady, d.taily, self.ref[n], "oracle")
        for (n, s, mode), seqs in picked:
            if seqs is not None and self._first_time((n, s, mode), seqs):
                half = self.ref[n][0 if mode == "heady" else 1]
                expect(len(seqs) == half.get(s, 0), f"sequences_with({n}, {s}, {mode}) count wrong")
                final = 1 if mode == "heady" else 0
                expect(all(len(b) == n and b[-1] == final and ref.score(b) == s for b in seqs),
                       f"sequences_with({n}, {s}, {mode}) returned a wrong sequence")
                words = [sum(bit << i for i, bit in enumerate(b)) for b in seqs]
                expect(all(a < b for a, b in zip(words, words[1:])),
                       f"sequences_with({n}, {s}, {mode}) is not strictly ascending")

    def _first_time(self, key: tuple, outputs: list[tuple[int, ...]]) -> bool:
        """True on the first sight of key: its outputs then need the full check.

        Later rounds must reproduce the checked outputs exactly; comparing
        digests keeps that cheap, so checking does not crowd out rounds.
        """
        digest = hash(tuple(outputs))
        if key in self.checked:
            expect(self.checked[key] == digest, f"outputs for {key[1:]} changed between rounds")
            return False
        self.checked[key] = digest
        return True

    def detail(self, rounds: list[Ops]) -> dict[str, tuple[float, str]]:
        shallow = sum(ref.realization_count(*c) for c in self.shallow)
        deep = sum(min(self.deep_k, ref.realization_count(*c)) for c in self.deep)
        words = sum(1 << n for n in self.enum_n) + sum(1 << n for n, _, _ in self.picks)
        return {"gen_seq_per_s": (shallow / median_of(rounds, "gen_shallow"), "seq/s"),
                "gen_deep_seq_per_s": (deep / median_of(rounds, "gen_deep"), "seq/s"),
                "oracle_words_per_s": (words / median_of(rounds, "oracle"), "words/s")}


# ---------------------------------------------------------------- cli

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], timeout: float = 120) -> tuple[float, str, str]:
    """Wall time, stdout and stderr of one cold interpreter; a nonzero exit raises."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    wall = perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return wall, proc.stdout, proc.stderr


# `python -m streakcount ARGS`, reporting the child's own peak resident set
# on stderr at exit.  The parent's rusage cannot give it: a child's maxrss
# starts from the parent's resident set at fork.
CLI_CHILD = """\
import atexit, runpy, sys

def _peak():
    try:
        with open("/proc/self/status") as f:
            kb = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return
    sys.stderr.write(f"\\nVmHWM {kb}\\n")

atexit.register(_peak)
sys.argv = ["streakcount", *sys.argv[1:]]
runpy.run_module("streakcount", run_name="__main__", alter_sys=True)
"""


def parse_pairs(text: str) -> dict[str, list[str]]:
    return {words[0]: words[1:] for words in (line.split() for line in text.splitlines()) if words}


def parse_dist(text: str) -> tuple[int, dict[int, int], dict[int, int]]:
    lines = text.splitlines()
    expect(lines[0].startswith("n ") and lines[1].split() == ["s", "heady", "taily"],
           "dist output header wrong")
    heady, taily = {}, {}
    for line in lines[2:]:
        s, h, t = map(int, line.split())
        if h:
            heady[s] = h
        if t:
            taily[s] = t
    return int(lines[0].split()[1]), heady, taily


class Cli:
    """A fixed session of cold `python -m streakcount` commands, one child at a time."""

    setup = ('import io, contextlib, streakcount.cli\n'
             'with contextlib.redirect_stdout(io.StringIO()): streakcount.cli.main(["wins", "10"])')

    def __init__(self, rng: random.Random, small: bool = False) -> None:
        n_wins, digits = rng.randrange(40, 121), rng.randrange(4, 11)
        n_dist, n_oracle = rng.randrange(20, 41), rng.randrange(10, 14)
        lo = rng.randrange(2, 11)
        hi = lo + rng.randrange(20, 41)
        series, m = rng.choice(("h2", "D", "delta")), rng.randrange(100, 201)
        while True:
            mode = rng.choice(("heady", "taily"))
            sig = random_signature(rng, rng.randrange(3, 6), mode)
            bins = ref.slot_count(sig, mode)
            if 3 <= bins <= 5:
                break
        spare = max(s for s in range(200) if math.comb(s + bins - 1, bins - 1) <= 400)
        self.gen = (sig, ref.min_length(sig, mode) + spare, mode)
        self.session = [
            ("wins", ["wins", str(n_wins), "--digits", str(digits)]),
            *((f"dist_{method}", ["dist", str(n_dist), "--method", method])
              for method in ("closed", "dp", "incremental")),
            ("dist_oracle", ["dist", str(n_oracle), "--method", "oracle"]),
            ("table", ["table", "--from", str(lo), "--to", str(hi)]),
            ("bfile", ["bfile", "--series", series, "--max-n", str(m)]),
            ("gen", ["gen", f"--signature={sig}", "--length", str(self.gen[1]), "--mode", mode]),
            ("verify", ["verify"]),
        ]
        self.ref = ref.tables_at({n_wins, n_dist, n_oracle})
        self.gaps = ref.gap_series(max(hi, m))
        self.peak_kb = 0

    def inputs(self) -> dict:
        return {"session": [" ".join(args) for _, args in self.session]}

    def prepare(self) -> None:
        ref.check_reference(12)

    def warm_up(self, sc) -> None:
        self._command(["wins", "5"])

    def _command(self, args: list[str]) -> str:
        _, out, err = run_child(["-c", CLI_CHILD, *args])
        peaks = re.findall(r"^VmHWM (\d+)$", err, re.M)
        if peaks:
            self.peak_kb = max(self.peak_kb, int(peaks[-1]))
        return out

    def round(self, sc, ops: Ops) -> None:
        tr = ops.tr

        def command(name: str, args: list[str]):
            def call():
                with tr.span("cli." + name):
                    return self._command(args)
            return call

        outputs = {name: ops.run("cli", command(name, args)) for name, args in self.session}
        checks = {"wins": self._check_wins, "dist": self._check_dist, "table": self._check_table,
                  "bfile": self._check_bfile, "gen": self._check_gen, "verify": self._check_verify}
        for name, args in self.session:
            if outputs[name] is not None:
                checks[args[0]](args, outputs[name])
        dists = [outputs[f"dist_{m}"] for m in ("closed", "dp", "incremental")]
        if None not in dists:
            expect(dists[0] == dists[1] == dists[2], "dist output differs between methods")

    def _check_wins(self, args: list[str], text: str) -> None:
        n, digits = int(args[1]), int(args[3])
        alice, bob, ties = ref.wins(self.ref[n])
        got = parse_pairs(text)
        want = {"n": [str(n)], "total": [str(1 << n)], "alice": [str(alice)],
                "bob": [str(bob)], "ties": [str(ties)], "gap": [str(bob - alice)]}
        for key, v in (("alice", alice), ("bob", bob), ("tie", ties), ("gap", bob - alice)):
            want[f"{key}_share"] = [f"{v}/{1 << n}", ref.share(v, n, digits)]
        expect(got == want, f"wins {n} output wrong")

    def _check_dist(self, args: list[str], text: str) -> None:
        n = int(args[1])
        got_n, heady, taily = parse_dist(text)
        expect(got_n == n, f"dist {n} reports n={got_n}")
        ref.check_table(n, heady, taily, self.ref[n], f"cli dist {n} {args[3]}")

    def _check_table(self, args: list[str], text: str) -> None:
        lo, hi = int(args[2]), int(args[4])
        want = [f"{n} {self.gaps[n][1]} {self.gaps[n][0]}" for n in range(lo, hi + 1)]
        expect(text.splitlines() == want, f"table --from {lo} --to {hi} output wrong")

    def _check_bfile(self, args: list[str], text: str) -> None:
        series, m = args[2], int(args[4])
        start = 3 if series == "delta" else 2
        value = {"h2": lambda n: self.gaps[n][1], "D": lambda n: self.gaps[n][0],
                 "delta": lambda n: self.gaps[n][0] - self.gaps[n - 1][0]}[series]
        want = [f"{n} {value(n)}" for n in range(start, m + 1)]
        expect(text.splitlines() == want, f"bfile --series {series} output wrong")

    def _check_gen(self, args: list[str], text: str) -> None:
        sig, n, mode = self.gen
        lines = text.splitlines()
        want = ref.realization_count(sig, n, mode)
        expect(lines[-1] == f"count {want}", f"gen count line {lines[-1]!r}, want {want}")
        seqs = [tuple(map(int, line)) for line in lines[:-1]]
        expect(len(seqs) == want, "gen printed a different number of sequences")
        ref.check_realizations(sig, n, mode, seqs, "cli gen")

    def _check_verify(self, args: list[str], text: str) -> None:
        lines = text.splitlines()
        expect(bool(lines) and all(re.fullmatch(r"PASS \S+ \(\d+ checks\)", l) for l in lines),
               "verify reported a failing suite or malformed line")

    def detail(self, rounds: list[Ops]) -> dict[str, tuple[float, str]]:
        samples = [s for ops in rounds for s in ops.norm()]
        return {"cli_ms_p50": (1000 * statistics.median(samples), "ms"),
                "cli_session_s": (median_of(rounds, "cli"), "s")}


WORKLOADS = {"tables": Tables, "series": Series, "construct": Construct, "cli": Cli}
