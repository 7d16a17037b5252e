import weakref

import pytest

from streakcount import _series, counting, recurrence, signatures, verify

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
    def ran(rec, reads):
        raise AssertionError("a suite ran before the bounds were checked")

    monkeypatch.setattr(verify, "_base_tables", ran)
    with pytest.raises(ValueError,
                       match=r"^oracle_max=25 exceeds the oracle's enumeration limit of 24$"):
        verify.run_suites(oracle_max=25)
    with pytest.raises(AssertionError, match="a suite ran"):
        verify.run_suites(max_n=8, oracle_max=24, gen_max=8)


def test_generator_bounds_past_the_sweep_limit_are_refused_before_any_suite(monkeypatch):
    def ran(rec, reads):
        raise AssertionError("a suite ran before the bounds were checked")

    monkeypatch.setattr(verify, "_base_tables", ran)
    for bound in (17, 20, 25):
        with pytest.raises(ValueError,
                           match=f"^gen_max={bound} exceeds the generator sweep limit of 16$"):
            verify.run_suites(gen_max=bound)
    with pytest.raises(AssertionError, match="a suite ran"):
        verify.run_suites(max_n=8, oracle_max=4, gen_max=16)


def test_sweep_bounds_past_the_limit_are_refused_before_any_suite(monkeypatch):
    def ran(rec, reads):
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
    def ran(rec, reads):
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
    rec = verify._Recorder()
    verify._insertion_census(rec, verify._Reads(), 12)
    assert rec.checks == 24
    assert len(calls) <= 4094 + 2047


def test_a_corrupted_coefficient_fails_the_term_shape_check(monkeypatch):
    # sigma = 3's third coefficient C(7, 2) = 21 one too big: taily score 2
    # reads sigma 3's list but not its last entry at n = 10, so only the
    # shape check sees it there
    honest = recurrence._fill

    def corrupted(sigma, n, coefs):
        honest(sigma, n, coefs)
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

    def base_tables(rec, reads):
        held.append(weakref.ref(reads))
        honest_base(rec, reads)

    def min_length_formula(rec):
        alive.append(held[0]() is not None)
        honest_min(rec)

    monkeypatch.setattr(verify, "_base_tables", base_tables)
    monkeypatch.setattr(verify, "_min_length_formula", min_length_formula)
    results = verify.run_suites(max_n=8, oracle_max=6, gen_max=5)
    assert failed_names(results) == set()
    assert alive == [False]
