import weakref

import pytest

from streakcount import _score_recurrence, _series, counting, recurrence, signatures, verify
from streakcount.core import heady_support

SUITE_NAMES = [
    "base-tables",
    "normalization",
    "support-bounds",
    "heady-recursion",
    "taily-recursion",
    "close-call-census",
    "gap-definition",
    "gap-recursion",
    "gap-growth",
    "term-updates",
    "method-agreement",
    "min-length-formula",
    "insertion-census",
    "insertion-bijection",
    "generator-coverage",
    "oracle-agreement",
]


def failed_names(results):
    return {r.name for r in results if not r.ok}


def test_suites_pass_in_order_at_small_bounds():
    results = verify.run_suites(max_n=8, oracle_max=6, gen_max=5)
    assert [r.name for r in results] == SUITE_NAMES
    for result in results:
        assert result.ok, f"{result.name}: {result.detail}"
        assert result.checks > 0
        assert result.detail == ""


def test_bound_validation():
    with pytest.raises(ValueError, match="max_n"):
        verify.run_suites(max_n=0)
    with pytest.raises(ValueError, match="oracle_max"):
        verify.run_suites(oracle_max=0)
    with pytest.raises(ValueError, match="gen_max"):
        verify.run_suites(gen_max=0)


def test_enumeration_bounds_past_the_cap_are_refused_before_any_suite(monkeypatch):
    def ran(reads):
        raise AssertionError("a suite ran before the bounds were checked")

    monkeypatch.setattr(verify, "_base_tables", ran)
    with pytest.raises(ValueError,
                       match=r"^oracle_max=25 exceeds the oracle's enumeration limit of 24$"):
        verify.run_suites(oracle_max=25)
    with pytest.raises(AssertionError, match="a suite ran"):
        verify.run_suites(max_n=8, oracle_max=24, gen_max=8)


def test_generator_bounds_past_the_sweep_limit_are_refused_before_any_suite(monkeypatch):
    def ran(reads):
        raise AssertionError("a suite ran before the bounds were checked")

    monkeypatch.setattr(verify, "_base_tables", ran)
    for bound in (17, 20, 25):
        with pytest.raises(ValueError,
                           match=f"^gen_max={bound} exceeds the generator sweep limit of 16$"):
            verify.run_suites(gen_max=bound)
    with pytest.raises(AssertionError, match="a suite ran"):
        verify.run_suites(max_n=8, oracle_max=4, gen_max=16)


def test_sweep_bounds_past_the_limit_are_refused_before_any_suite(monkeypatch):
    def ran(reads):
        raise AssertionError("a suite ran before the bounds were checked")

    monkeypatch.setattr(verify, "_base_tables", ran)
    for bound in (verify.MAX_N_LIMIT + 1, 400, 10**9):
        with pytest.raises(ValueError,
                           match=f"^max_n={bound} exceeds the arithmetic sweep limit of 200$"):
            verify.run_suites(max_n=bound)
    with pytest.raises(AssertionError, match="a suite ran"):
        verify.run_suites(max_n=200, oracle_max=4, gen_max=4)


def test_an_oracle_bound_past_the_hard_limit_is_refused_before_any_suite(monkeypatch):
    # a bound far past the limit gets the same one refusal, before the
    # oracle suite would enumerate a single length
    def ran(reads):
        raise AssertionError("a suite ran before the bounds were checked")

    monkeypatch.setattr(verify, "_base_tables", ran)
    for bound in (63, 64, 10**9):
        with pytest.raises(ValueError,
                           match=f"^oracle_max={bound} exceeds the oracle's enumeration "
                                 f"limit of 24$"):
            verify.run_suites(max_n=2, oracle_max=bound, gen_max=2)


def test_a_lying_closed_form_is_caught_and_localized(monkeypatch):
    honest = counting.heady_count

    def dishonest(s, n):
        value = honest(s, n)
        return value + 1 if (s, n) == (1, 7) else value

    monkeypatch.setattr(counting, "heady_count", dishonest)
    failed = failed_names(verify.run_suites(max_n=8, oracle_max=8, gen_max=5))
    assert "close-call-census" in failed
    assert "method-agreement" in failed
    assert "oracle-agreement" in failed
    # suites that never consult the corrupted cell stay green
    assert "min-length-formula" not in failed


def test_no_closed_form_read_outlives_its_call(monkeypatch):
    # an honest run first, so any read kept past its call would hide the lie
    bounds = dict(max_n=8, oracle_max=8, gen_max=5)
    assert failed_names(verify.run_suites(**bounds)) == set()
    honest = counting.taily_count

    def dishonest(s, n):
        value = honest(s, n)
        return value + 1 if (s, n) == (-1, 7) else value

    monkeypatch.setattr(counting, "taily_count", dishonest)
    failed = failed_names(verify.run_suites(**bounds))
    assert {"heady-recursion", "taily-recursion", "method-agreement"} <= failed
    monkeypatch.undo()
    results = verify.run_suites(**bounds)
    assert [r.name for r in results] == SUITE_NAMES
    assert failed_names(results) == set()


def test_reads_refuse_a_score_outside_their_rows():
    # every suite reads inside -(n // 2) - 3 .. n + 2; a read past either
    # edge is a suite's bug, so it raises rather than walking the cell, and
    # a negative index does not wrap round to the top of the row
    reads = verify._Reads()
    assert reads.heady(-8, 10) == 0 and reads.taily(12, 10) == 0
    for lead, s in ((0, -9), (1, -9), (0, 13), (1, 13), (1, -24)):
        with pytest.raises(IndexError,
                           match=f"^score outside the read rows: lead={lead} s={s} n=10$"):
            reads.cell(lead, s, 10)


def test_check_counts_away_from_the_default_bounds():
    # every suite's check count at one non-default setting, as the suites
    # counted them before their closed-form reads were shared
    results = verify.run_suites(max_n=40, oracle_max=10, gen_max=8)
    assert [(r.name, r.ok, r.checks) for r in results] == [
        ("base-tables", True, 12),
        ("normalization", True, 80),
        ("support-bounds", True, 480),
        ("heady-recursion", True, 1297),
        ("taily-recursion", True, 1297),
        ("close-call-census", True, 77),
        ("gap-definition", True, 78),
        ("gap-recursion", True, 114),
        ("gap-growth", True, 116),
        ("term-updates", True, 3915),
        ("method-agreement", True, 80),
        ("min-length-formula", True, 4080),
        ("insertion-census", True, 20),
        ("insertion-bijection", True, 441),
        ("generator-coverage", True, 1015),
        ("oracle-agreement", True, 78),
    ]


def test_a_lying_generator_census_is_caught(monkeypatch):
    honest = signatures.sequence_count

    def dishonest(sig, n, mode="heady", fixed_leading_one=False):
        value = honest(sig, n, mode, fixed_leading_one)
        if (sig, n, mode, fixed_leading_one) == ("++-", 8, "heady", False):
            return value + 1
        return value

    monkeypatch.setattr(signatures, "sequence_count", dishonest)
    results = verify.run_suites(max_n=8, oracle_max=6, gen_max=8)
    failed = failed_names(results)
    assert "insertion-census" in failed
    assert "base-tables" not in failed
    assert "method-agreement" not in failed
    detail = next(r.detail for r in results if r.name == "insertion-census")
    assert detail != ""


def test_a_stream_with_doubled_seeds_fails_the_gap_suites(monkeypatch):
    # every y doubles, so the stream stays consistent with itself: only the
    # closed cell heady_count(-1, n) can tell its running sum is wrong
    doubled = (3, (2, 0, 0, 4), 4)
    monkeypatch.setattr(_series, "SEEDS", doubled)
    monkeypatch.setattr(_series, "_cursor", doubled)
    results = verify.run_suites(max_n=8, oracle_max=4, gen_max=4)
    failed = failed_names(results)
    assert {"gap-recursion", "gap-growth"} <= failed
    detail = next(r.detail for r in results if r.name == "gap-growth")
    assert "telescope" in detail and "n=3" in detail


def test_insertion_census_reads_each_signature_once(monkeypatch):
    # a signature's shortest lengths do not depend on n: one min_length
    # call per signature of up to 11 marks and mode, 4,094 heady and
    # 2,047 taily (signatures ending in '-')
    honest = signatures.min_length
    calls = []

    def counted(sig, mode="heady"):
        calls.append((sig, mode))
        return honest(sig, mode)

    monkeypatch.setattr(signatures, "min_length", counted)
    result = verify._run("insertion-census", verify._insertion_census(verify._Reads(), 12))
    assert result.checks == 24
    assert len(calls) <= 4094 + 2047


def test_a_corrupted_coefficient_fails_the_term_shape_check(monkeypatch):
    # sigma = 3's third coefficient C(7, 2) = 21 one too big: taily score 2
    # reads sigma 3's list but not its last entry at n = 10, so only the
    # shape check sees it there
    honest = recurrence._fill

    def corrupted(sigma, n, coefs, rows):
        honest(sigma, n, coefs, rows)
        if sigma == 3 and len(coefs) >= 3 and coefs[2] == 21:
            coefs[2] += 1
        return coefs

    monkeypatch.setattr(recurrence, "_fill", corrupted)
    results = {r.name: r for r in verify.run_suites(max_n=30, oracle_max=6, gen_max=5)}
    term = results["term-updates"]
    assert (term.ok, term.checks, term.detail) == (
        False, 1131, "taily terms lost their binomial shape: s=2 n=10")
    assert not results["method-agreement"].ok


def test_arithmetic_reads_are_gone_before_the_enumeration_suites(monkeypatch):
    # the generator sweep sets the run's peak memory, so the reads the
    # arithmetic suites shared must not live on beneath it
    honest_base, honest_min = verify._base_tables, verify._min_length_formula
    held, alive = [], []

    def base_tables(reads):
        held.append(weakref.ref(reads))
        yield from honest_base(reads)

    def min_length_formula():
        alive.append(held[0]() is not None)
        yield from honest_min()

    monkeypatch.setattr(verify, "_base_tables", base_tables)
    monkeypatch.setattr(verify, "_min_length_formula", min_length_formula)
    results = verify.run_suites(max_n=8, oracle_max=6, gen_max=5)
    assert failed_names(results) == set()
    assert alive == [False]


# every suite's result at max_n=12, oracle_max=8, gen_max=6 on an honest run
CLEAN_AT_12 = [
    ("base-tables", True, 12, ""),
    ("normalization", True, 24, ""),
    ("support-bounds", True, 144, ""),
    ("heady-recursion", True, 135, ""),
    ("taily-recursion", True, 135, ""),
    ("close-call-census", True, 21, ""),
    ("gap-definition", True, 22, ""),
    ("gap-recursion", True, 30, ""),
    ("gap-growth", True, 32, ""),
    ("term-updates", True, 365, ""),
    ("method-agreement", True, 24, ""),
    ("min-length-formula", True, 4080, ""),
    ("insertion-census", True, 16, ""),
    ("insertion-bijection", True, 441, ""),
    ("generator-coverage", True, 332, ""),
    ("oracle-agreement", True, 68, ""),
]


def one_too_big(module, name, hit):
    """The patch that makes module.name return one more wherever hit(*args)."""
    honest = getattr(module, name)

    def dishonest(*args, **kwargs):
        value = honest(*args, **kwargs)
        return value + 1 if hit(*args) else value

    return module, name, dishonest


def filled_one_too_big(cell):
    """The patch that makes the fill yield one more at the (s, n) in cell."""
    honest = _score_recurrence.fill

    def dishonest(n):
        lo, hi = heady_support(n)
        for s, value in zip(range(lo, hi + 1), honest(n)):
            yield value + 1 if (s, n) == cell else value

    return _score_recurrence, "fill", dishonest


@pytest.mark.parametrize("fault, failures", [
    pytest.param(one_too_big(counting, "heady_count", lambda s, n: (s, n) == (1, 7)), {
        "heady-recursion": (45, "heady recursion broken at s=1 n=7"),
        "taily-recursion": (57, "taily recursion broken at s=0 n=8"),
        "close-call-census": (6, "close-call census disagrees with the closed form at n=7"),
        "gap-recursion": (17, "close-call cell recursion broken at n=8"),
        "term-updates": (173, "heady term update drifted: s=1 n=7"),
        "method-agreement": (13, "dp table disagrees with closed forms at n=7"),
        "oracle-agreement": (29, "enumeration disagrees with closed forms at n=7"),
    }, id="heady-1-7"),
    pytest.param(one_too_big(counting, "taily_count", lambda s, n: (s, n) == (-2, 9)), {
        "heady-recursion": (85, "heady recursion broken at s=-2 n=10"),
        "taily-recursion": (69, "taily recursion broken at s=-2 n=9"),
        "term-updates": (74, "taily term update drifted: s=-2 n=9"),
        "method-agreement": (17, "dp table disagrees with closed forms at n=9"),
    }, id="taily-minus-2-9"),
    pytest.param(one_too_big(signatures, "sequence_count",
                             lambda sig, n, *_: (sig, n) == ("+-", 6)), {
        "insertion-census": (11, "signature census misses the heady table at n=6"),
        "generator-coverage": (189, "closed-form count wrong: '+-' taily n=6"),
    }, id="sequence-count-plus-minus-6"),
    # the table at 8 takes its taily half from the fill at 9 and the table
    # at 9 its heady half, resumed or filled; the cell-by-cell suites never
    # read the fill
    pytest.param(filled_one_too_big((2, 9)), {
        "normalization": (16, "taily counts at n=8 do not sum to 2**7"),
        "gap-definition": (13, "two-cell win tallies disagree with the table's band sums at n=8"),
        "gap-recursion": (21, "step-from-imbalance identity broken at n=9"),
        "method-agreement": (16, "term-update table disagrees with closed forms at n=8"),
        "insertion-census": (16, "signature census misses the taily table at n=8"),
        "oracle-agreement": (34, "enumeration disagrees with closed forms at n=8"),
    }, id="fill-2-9"),
])
def test_every_suite_result_under_an_injected_fault(monkeypatch, fault, failures):
    # one count one too big: each suite that reads it fails at the same
    # check with the same message, and every other suite counts as before
    bounds = dict(max_n=12, oracle_max=8, gen_max=6)
    assert [tuple(r) for r in verify.run_suites(**bounds)] == CLEAN_AT_12
    monkeypatch.setattr(*fault)
    want = [(suite, False, *failures[suite]) if suite in failures else (suite, ok, checks, "")
            for suite, ok, checks, _ in CLEAN_AT_12]
    assert [tuple(r) for r in verify.run_suites(**bounds)] == want


def test_run_stops_drawing_at_the_first_failed_check():
    def checks():
        yield True, ""
        yield False, "x"
        raise AssertionError("a check was drawn past the first failure")

    assert verify._run("stops", checks()) == verify.SuiteResult("stops", False, 2, "x")
