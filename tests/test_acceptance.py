"""Acceptance gate: one test per shipping criterion.

Each test prints a single pass/fail line (straight to the terminal, past
pytest's capture) so a glance at the run shows which criteria hold.
Criteria with a runtime budget assert it; the slow sweeps honour
STREAKCOUNT_ACCEPTANCE_ORACLE_MAX for the extended enumeration run, up to
the oracle's limit of 24.
"""

import itertools
import os
import sys
from contextlib import contextmanager
from time import perf_counter

from streakcount import cli, verify
from streakcount.core import score_support
from streakcount.counting import (
    closed_distribution,
    decimal_ratio,
    heady_count,
    taily_count,
    win_gap,
)
from streakcount.oracle import enumerate_distribution
from streakcount.recurrence import (
    _birth,
    _fill,
    _grow_rows,
    _pair,
    dp_sweep,
    table_sweep,
)
from streakcount.signatures import (
    complement,
    generate_sequences,
    min_length,
    min_length_sequence,
    signature_of,
)

from reference_values import CLOSE_CALL_ROWS, WIN_GAP_AT_100, descending_compositions


@contextmanager
def criterion(num, title, budget=None):
    t0 = perf_counter()
    ok = False
    try:
        yield
        if budget is not None:
            elapsed = perf_counter() - t0
            assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget:.0f}s"
        ok = True
    finally:
        elapsed = perf_counter() - t0
        verdict = "PASS" if ok else "FAIL"
        print(
            f"criterion {num} ({title}): {verdict} [{elapsed:.2f}s]",
            file=sys.__stdout__,
            flush=True,
        )


def test_criterion_1_reference_table_by_three_paths():
    with criterion(1, "reference table by three independent paths", budget=1.0):
        closed = {n: (heady_count(1, n), win_gap(n)) for n in CLOSE_CALL_ROWS}
        dp = {
            d.n: (d.heady.get(1, 0), d.win_gap())
            for d in dp_sweep(25)
            if d.n >= 2
        }
        incremental = {
            d.n: (d.heady.get(1, 0), d.win_gap())
            for d in table_sweep(25)
            if d.n >= 2
        }
        for path in (closed, dp, incremental):
            assert path == CLOSE_CALL_ROWS  # 24 rows x 2 values per path


def test_criterion_2_headline_gap_at_length_100():
    with criterion(2, "length-100 gap, exact and as a share", budget=1.0):
        gap = win_gap(100)
        assert gap == WIN_GAP_AT_100
        approx = 357382892 * 10**20  # 3.57382892e28
        assert abs(gap - approx) * 10**9 < 5 * approx  # relative error < 5e-9
        assert 281 * (1 << 100) <= gap * 10**4 <= 283 * (1 << 100)
        assert decimal_ratio(gap, 1 << 100, 4) == "0.0282"


def test_criterion_3_enumeration_equivalence():
    limit = int(os.environ.get("STREAKCOUNT_ACCEPTANCE_ORACLE_MAX", "18"))
    with criterion(3, f"enumeration agreement for n <= {limit}", budget=60.0):
        for n in range(1, limit + 1):
            brute = enumerate_distribution(n)
            dist = closed_distribution(n)
            assert brute == dist
            lo, hi = score_support(n)
            for s in range(lo - 2, hi + 3):
                assert brute.heady.get(s, 0) == heady_count(s, n)
                assert brute.taily.get(s, 0) == taily_count(s, n)


def test_criterion_4_identity_suites_to_64():
    with criterion(4, "pair-count identities hold exactly to n = 64"):
        results = {r.name: r for r in verify.run_suites(max_n=64, oracle_max=4, gen_max=4)}
        for name in (
            "normalization",
            "support-bounds",
            "heady-recursion",
            "taily-recursion",
            "close-call-census",
            "gap-definition",
            "gap-recursion",
            "gap-growth",
        ):
            result = results[name]
            assert result.ok, f"{name}: {result.detail}"


def test_criterion_5_min_length_depends_only_on_mark_counts():
    with criterion(5, "minimum length set by mark counts and mode alone"):
        groups = {}
        seen = 0
        for length in range(1, 11):
            for combo in itertools.product("+-", repeat=length):
                sig = "".join(combo)
                seen += 1
                modes = ["heady"] if sig.endswith("+") else ["heady", "taily"]
                for mode in modes:
                    built = min_length_sequence(sig, mode)
                    value = min_length(sig, mode)
                    assert value == len(built)
                    assert signature_of(built) == sig
                    key = (sig.count("+"), sig.count("-"), mode)
                    assert groups.setdefault(key, value) == value
        assert seen == 2**11 - 2
        assert seen >= 2**10 - 2


def test_criterion_6_generator_soundness_and_bijection():
    with criterion(6, "generator complete to n = 14, close-call bijection", budget=60.0):
        coverage = verify._run("coverage-to-14", verify._generator_coverage(14))
        assert coverage.ok, coverage.detail
        bijection = verify._run("bijection-to-9-marks", verify._insertion_bijection(9))
        assert bijection.ok, bijection.detail


def test_criterion_7_exact_updates_deep_and_wide():
    with criterion(7, "term updates exact to n = 500, agree to n = 200", budget=30.0):
        # raises on any inexact division; the coefficients of s + lead = -20
        # at n = 500 reach row (4 * 500 + 20 - 4) // 3
        rows = _grow_rows([[1]], 672)
        for s in range(-20, 21):
            for lead, count in enumerate((heady_count, taily_count)):
                coefs = []
                for n in range(_birth(lead, s), 501):
                    _fill(s + lead, n, coefs, rows)
                assert _pair(s + lead, 500, coefs, rows)[lead] == count(s, 500)
        for n, dist in enumerate(table_sweep(200), start=1):
            assert dist == closed_distribution(n)


def test_criterion_8_integer_series_export(capsys):
    with criterion(8, "close-call series export is byte-exact"):
        rc = cli.main(["bfile", "--series", "h2", "--max-n", "6"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == "2 1\n3 1\n4 1\n5 4\n6 7\n"
        assert captured.err == ""


def test_criterion_9_golden_generations():
    with criterion(9, "golden constructive generations"):
        outputs = list(generate_sequences("++-", 8, "heady"))
        idx = list(descending_compositions(3, 2)).index((2, 1))
        assert "".join(map(str, outputs[idx])) == "00111001"

        outputs = list(generate_sequences("+-+-+", 13, "heady"))
        idx = list(descending_compositions(5, 3)).index((2, 1, 2))
        assert "".join(map(str, outputs[idx])) == "0011001100011"

        sig = complement("+-+-+")
        assert sig == "-+-+-"
        outputs = list(generate_sequences(sig, 14, "heady", fixed_leading_one=True))
        assert len(outputs) == 21
        idx = list(descending_compositions(5, 3)).index((2, 1, 2))
        golden = tuple(map(int, "10001100110001"))
        assert outputs[idx] == golden
        assert signature_of(golden) == sig

        # the same spare-tail plan under the unswapped mark string lands
        # elsewhere: a guard that the golden above really needs the swap
        literal = list(generate_sequences("-+--+", 14, "heady", fixed_leading_one=True))
        assert len(literal) == 21
        assert golden not in literal
        assert "".join(map(str, literal[idx])) == "10001100100011"
        assert all(signature_of(bits) == "-+--+" for bits in literal)
