import ast
import contextlib
import doctest
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streakcount
from streakcount import _summands, cli, counting, oracle, signatures

from reference_values import CLOSE_CALL_ROWS

README = Path(__file__).resolve().parent.parent / "README.md"

DIST_4_TABLE = (
    "n 4\n"
    " s  heady  taily\n"
    " 3      1      0\n"
    " 2      1      0\n"
    " 1      1      1\n"
    " 0      3      3\n"
    "-1      2      3\n"
    "-2      0      1\n"
)

WINS_3 = (
    "n 3\n"
    "total 8\n"
    "alice 2\n"
    "bob 3\n"
    "ties 3\n"
    "gap 1\n"
    "alice_share 2/8 0.250000\n"
    "bob_share 3/8 0.375000\n"
    "tie_share 3/8 0.375000\n"
    "gap_share 1/8 0.125000\n"
)


# every suite at the default bounds, with its check count
VERIFY_DEFAULT = (
    "PASS base-tables (12 checks)\n"
    "PASS normalization (128 checks)\n"
    "PASS support-bounds (768 checks)\n"
    "PASS heady-recursion (3229 checks)\n"
    "PASS taily-recursion (3229 checks)\n"
    "PASS close-call-census (125 checks)\n"
    "PASS gap-definition (126 checks)\n"
    "PASS gap-recursion (186 checks)\n"
    "PASS gap-growth (188 checks)\n"
    "PASS term-updates (7850 checks)\n"
    "PASS method-agreement (128 checks)\n"
    "PASS min-length-formula (4080 checks)\n"
    "PASS insertion-census (24 checks)\n"
    "PASS insertion-bijection (441 checks)\n"
    "PASS generator-coverage (2859 checks)\n"
    "PASS oracle-agreement (88 checks)\n"
)


# every --help page at 80 columns, byte for byte: argparse wraps help text
# to the terminal width, so the tests set COLUMNS
HELP_PAGES = {
    '': (
        'usage: streakcount [-h] [--version] {dist,wins,table,gen,verify,bfile} ...\n'
        '\n'
        'Exact score tables for the heads-heads versus heads-tails coin tossing game.\n'
        '\n'
        'positional arguments:\n'
        '  {dist,wins,table,gen,verify,bfile}\n'
        '    dist                score table for one length\n'
        '    wins                aggregate win, loss and tie counts\n'
        '    table               close-call and gap columns over a length range\n'
        '    gen                 stream every sequence with a given signature\n'
        '    verify              run the cross-checking invariant suites\n'
        "    bfile               one series as 'index value' lines\n"
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        "  --version             show program's version number and exit\n"
    ),
    'dist': (
        'usage: streakcount dist [-h] [--method {closed,dp,incremental,oracle}]\n'
        '                        [--format {table,tsv,json}]\n'
        '                        n\n'
        '\n'
        'positional arguments:\n'
        '  n                     sequence length, at most 10000 by closed, 3000 by dp,\n'
        '                        1000 by incremental and 24 by oracle\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --method {closed,dp,incremental,oracle}\n'
        '                        computation path (default closed)\n'
        '  --format {table,tsv,json}\n'
    ),
    'wins': (
        'usage: streakcount wins [-h] [--digits DIGITS] n\n'
        '\n'
        'positional arguments:\n'
        '  n                sequence length, at most 50000\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --digits DIGITS  decimal places in the share columns, at most 10000000\n'
        '                   (default 6)\n'
    ),
    'table': (
        'usage: streakcount table [-h] [--from N] [--to N]\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '  --from N    first length, at most 50000 (default 2)\n'
        '  --to N      last length (default 25)\n'
    ),
    'gen': (
        'usage: streakcount gen [-h] --signature SIGNATURE --length LENGTH\n'
        '                       [--mode {heady,taily}] [--fixed-leading-one]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --signature SIGNATURE\n'
        "                        mark string over '+' and '-'; values starting with '-'\n"
        '                        need the --signature=-+- form\n'
        '  --length LENGTH       sequence length, at most 1000000\n'
        '  --mode {heady,taily}  final toss of the generated sequences (default heady)\n'
        '  --fixed-leading-one   pin the leading head; every output starts with 1\n'
    ),
    'verify': (
        'usage: streakcount verify [-h] [--max-n MAX_N] [--oracle-max ORACLE_MAX]\n'
        '                          [--gen-max GEN_MAX]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --max-n MAX_N         bound for the pure-arithmetic sweeps, at most 200\n'
        '                        (default 64)\n'
        '  --oracle-max ORACLE_MAX\n'
        '                        bound for the full-enumeration sweeps (default 12)\n'
        '  --gen-max GEN_MAX     bound for the exhaustive generator sweeps, at most 16\n'
        '                        (default: min(10, max-n))\n'
    ),
    'bfile': (
        'usage: streakcount bfile [-h] --series {h2,h4,D,delta} [--max-n MAX_N]\n'
        '                         [--offset OFFSET]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --series {h2,h4,D,delta}\n'
        '                        h2: score-one heady counts; h4 or D: the win gap;\n'
        '                        delta: gap increments\n'
        '  --max-n MAX_N         last length (default 25)\n'
        '  --offset OFFSET       relabel the first index (default: the first length)\n'
    ),
}


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_dist_table_golden(capsys):
    rc, out, err = run(capsys, "dist", "4")
    assert (rc, err) == (0, "")
    assert out == DIST_4_TABLE


def test_every_help_page_is_byte_identical(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for command, page in HELP_PAGES.items():
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--help"] if command else ["--help"])
        assert info.value.code == 0
        assert capsys.readouterr() == (page, ""), command


def test_dist_single_length(capsys):
    rc, out, _ = run(capsys, "dist", "1")
    assert rc == 0
    assert out == "n 1\ns  heady  taily\n0      1      1\n"


def test_dist_tsv_golden(capsys):
    rc, out, _ = run(capsys, "dist", "4", "--format", "tsv")
    assert rc == 0
    assert out.splitlines()[0] == "s\theady\ttaily"
    assert out.splitlines()[1] == "3\t1\t0"
    assert out.splitlines()[-1] == "-2\t0\t1"


def test_dist_json_is_parseable_and_ordered(capsys):
    rc, out, _ = run(capsys, "dist", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["rows"][0] == {"s": 2, "heady": 1, "taily": 0}
    assert [row["s"] for row in payload["rows"]] == [2, 1, 0, -1]


def test_dist_methods_render_identically(capsys):
    baseline = run(capsys, "dist", "12")
    for method in ("dp", "incremental"):
        assert run(capsys, "dist", "12", "--method", method) == baseline
    assert run(capsys, "dist", "12", "--method", "oracle") == baseline


def test_dist_formats_carry_the_same_numbers(capsys):
    _, table, _ = run(capsys, "dist", "6")
    _, tsv, _ = run(capsys, "dist", "6", "--format", "tsv")
    _, blob, _ = run(capsys, "dist", "6", "--format", "json")
    table_rows = [line.split() for line in table.splitlines()[2:]]
    tsv_rows = [line.split("\t") for line in tsv.splitlines()[1:]]
    json_rows = [
        [str(row["s"]), str(row["heady"]), str(row["taily"])]
        for row in json.loads(blob)["rows"]
    ]
    assert table_rows == tsv_rows == json_rows


def test_dist_is_deterministic(capsys):
    first = run(capsys, "dist", "9", "--format", "json")
    second = run(capsys, "dist", "9", "--format", "json")
    assert first == second


def test_dist_oracle_respects_the_cap(capsys):
    rc, out, err = run(capsys, "dist", "25", "--method", "oracle")
    assert (rc, out, err) == (1, "", "error: n=25 exceeds the oracle's enumeration limit of 24\n")
    assert run(capsys, "dist", "24", "--method", "oracle") == run(capsys, "dist", "24")
    # the retired --oracle-cap is an unknown flag now
    with pytest.raises(SystemExit) as info:
        cli.main(["dist", "11", "--method", "oracle", "--oracle-cap", "12"])
    assert info.value.code == 2


def test_running_out_of_memory_ends_in_one_error_line(capsys, monkeypatch):
    # a cell that cannot be allocated, at a length inside both commands'
    # budgets: dist seeds its fill with walked cells and wins walks two;
    # raise as that would, without allocating
    def exhausted(s, n, lead):
        raise MemoryError

    monkeypatch.setattr(_summands, "cell", exhausted)
    for command in ("dist", "wins"):
        assert run(capsys, command, "1000") == (1, "", "error: out of memory\n")


def test_dist_rejects_nonpositive_length(capsys):
    rc, out, err = run(capsys, "dist", "0")
    assert rc == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("n", ["0", "-5"])
def test_dist_methods_refuse_nonpositive_lengths_alike(capsys, n):
    for method in ("closed", "dp", "incremental", "oracle"):
        rc, out, err = run(capsys, "dist", n, "--method", method)
        assert (rc, out) == (1, "")
        assert err == f"error: sequence length must be at least 1, got {n}\n", method


def test_wins_golden(capsys):
    rc, out, err = run(capsys, "wins", "3")
    assert (rc, err) == (0, "")
    assert out == WINS_3


def test_wins_headline_share(capsys):
    rc, out, _ = run(capsys, "wins", "100", "--digits", "4")
    assert rc == 0
    assert out.splitlines()[-1].split()[-1] == "0.0282"
    assert "gap 35738289179539587978601128016" in out


def test_wins_even_start(capsys):
    rc, out, _ = run(capsys, "wins", "2")
    assert rc == 0
    assert "gap 0\n" in out


def test_table_golden_rows(capsys):
    rc, out, err = run(capsys, "table", "--from", "2", "--to", "2")
    assert (rc, out, err) == (0, "2 1 0\n", "")
    rc, out, _ = run(capsys, "table", "--from", "14", "--to", "14")
    assert (rc, out) == (0, "14 1137 1232\n")


def test_table_covers_the_reference_rows(capsys):
    rc, out, _ = run(capsys, "table", "--from", "2", "--to", "25")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 24
    for line in lines:
        n, close_calls, gap = (int(tok) for tok in line.split())
        assert CLOSE_CALL_ROWS[n] == (close_calls, gap)


def test_table_bound_validation(capsys):
    rc, _, err = run(capsys, "table", "--from", "1", "--to", "4")
    assert rc == 1 and "--from" in err
    rc, _, err = run(capsys, "table", "--from", "5", "--to", "4")
    assert rc == 1 and "--to" in err


def test_gen_golden(capsys):
    rc, out, err = run(capsys, "gen", "--signature", "++-", "--length", "8")
    assert (rc, err) == (0, "")
    assert out == "00011101\n00111001\n01110001\n11100001\ncount 4\n"


def test_gen_equals_form_and_pinned_head(capsys):
    rc, out, _ = run(
        capsys,
        "gen",
        "--signature=-+-+-",
        "--length",
        "14",
        "--fixed-leading-one",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "count 21"
    assert len(lines) == 22
    assert lines[8] == "10001100110001"
    assert all(line.startswith("1") for line in lines[:-1])


def test_gen_double_minus_signature_is_not_lost(capsys):
    # argparse before 3.13 turns the value of --signature=-- into []
    rc, out, err = run(capsys, "gen", "--signature=--", "--length", "8", "--mode", "taily")
    want = ["".join(map(str, bits))
            for bits in signatures.generate_sequences("--", 8, "taily")]
    assert (rc, err) == (0, "")
    assert len(want) == 15
    assert out == "\n".join(want) + "\ncount 15\n"


def test_gen_minimal_case(capsys):
    rc, out, _ = run(capsys, "gen", "--signature", "+", "--length", "2")
    assert (rc, out) == (0, "11\ncount 1\n")


def test_gen_error_paths(capsys):
    rc, _, err = run(capsys, "gen", "--signature", "++-", "--length", "4")
    assert rc == 1 and "minimum feasible length is 5" in err
    rc, _, err = run(capsys, "gen", "--signature", "+x", "--length", "5")
    assert rc == 1 and err.startswith("error:")
    rc, _, err = run(capsys, "gen", "--signature=-+", "--length", "5", "--mode", "taily")
    assert rc == 1 and "ending in '+'" in err
    # '+' is the run 11; pinning its head leaves no slot for a third toss
    rc, out, err = run(capsys, "gen", "--signature=+", "--length", "3",
                       "--fixed-leading-one")
    assert (rc, out) == (1, "")
    assert err == ("error: fixing the leading head leaves no slot for 1 spare tails; "
                   "signature '+' only fits length 2 that way\n")


def test_gen_writes_a_long_line_before_building_the_next(monkeypatch):
    # each output is longer than a batch, so it must be on stdout before the
    # generator is asked for the next one
    length = cli._GEN_BATCH_BYTES + 10
    out = io.StringIO()
    written = []

    def fake_generate(sig, n, mode, fixed_leading_one):
        for bits in ((1,) * n, (0,) * (n - 1) + (1,)):
            written.append(len(out.getvalue()))
            yield bits

    monkeypatch.setattr(signatures, "generate_sequences", fake_generate)
    with contextlib.redirect_stdout(out):
        rc = cli.main(["gen", "--signature=+", "--length", str(length)])
    assert rc == 0
    assert written == [0, length + 1]
    assert out.getvalue() == "1" * length + "\n" + "0" * (length - 1) + "1\ncount 2\n"


def test_bfile_goldens(capsys):
    rc, out, err = run(capsys, "bfile", "--series", "h2", "--max-n", "6")
    assert (rc, out, err) == (0, "2 1\n3 1\n4 1\n5 4\n6 7\n", "")
    rc, out, _ = run(capsys, "bfile", "--series", "D", "--max-n", "4")
    assert (rc, out) == (0, "2 0\n3 1\n4 2\n")
    rc, out, _ = run(capsys, "bfile", "--series", "delta", "--max-n", "4")
    assert (rc, out) == (0, "3 1\n4 1\n")
    assert run(capsys, "bfile", "--series", "h4", "--max-n", "8") == run(
        capsys, "bfile", "--series", "D", "--max-n", "8"
    )


def test_bfile_offset_relabels_indices(capsys):
    rc, out, _ = run(capsys, "bfile", "--series", "h2", "--max-n", "4", "--offset", "1")
    assert (rc, out) == (0, "1 1\n2 1\n3 1\n")


def test_bfile_rejects_empty_ranges(capsys):
    rc, _, err = run(capsys, "bfile", "--series", "delta", "--max-n", "2")
    assert rc == 1 and "undefined below" in err


def test_verify_passes_at_small_bounds(capsys):
    rc, out, err = run(capsys, "verify", "--max-n", "6", "--oracle-max", "5", "--gen-max", "5")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)


def test_verify_default_golden(capsys):
    rc, out, err = run(capsys, "verify")
    assert (rc, err) == (0, "")
    assert out == VERIFY_DEFAULT


def test_verify_names_an_injected_fault(capsys, monkeypatch):
    honest = counting.heady_count

    def dishonest(s, n):
        value = honest(s, n)
        return value + 1 if (s, n) == (1, 7) else value

    monkeypatch.setattr(counting, "heady_count", dishonest)
    rc, out, err = run(capsys, "verify", "--max-n", "8", "--oracle-max", "8", "--gen-max", "6")
    assert (rc, err) == (1, "")
    assert out == (
        "PASS base-tables (12 checks)\n"
        "PASS normalization (16 checks)\n"
        "PASS support-bounds (96 checks)\n"
        "FAIL heady-recursion: heady recursion broken at s=1 n=7\n"
        "FAIL taily-recursion: taily recursion broken at s=0 n=8\n"
        "FAIL close-call-census: close-call census disagrees with the closed form at n=7\n"
        "PASS gap-definition (14 checks)\n"
        "FAIL gap-recursion: close-call cell recursion broken at n=8\n"
        "PASS gap-growth (20 checks)\n"
        "FAIL term-updates: heady term update drifted: s=1 n=7\n"
        "FAIL method-agreement: dp table disagrees with closed forms at n=7\n"
        "PASS min-length-formula (4080 checks)\n"
        "PASS insertion-census (16 checks)\n"
        "PASS insertion-bijection (441 checks)\n"
        "PASS generator-coverage (332 checks)\n"
        "FAIL oracle-agreement: enumeration disagrees with closed forms at n=7\n"
    )


def test_retired_bench_is_an_unknown_subcommand(capsys):
    # perfbench times the paths and verify's method-agreement checks them
    with pytest.raises(SystemExit) as info:
        cli.main(["bench", "--max-n", "12"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "invalid choice: 'bench'" in err


def test_version_and_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == f"streakcount {streakcount.__version__}"
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "streakcount", "table", "--from", "2", "--to", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert result.stdout == "2 1 0\n"


def child_env(**extra):
    # the child imports this package from the same source tree
    src = str(Path(streakcount.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_analytic_commands_do_not_import_numpy():
    # the oracle commands included: nothing in the package needs numpy
    code = ("import contextlib, io, sys\n"
            "import streakcount, streakcount.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rcs = [streakcount.cli.main(argv) for argv in (\n"
            "        ['wins', '10'], ['dist', '12', '--method', 'oracle'], ['verify'])]\n"
            "print(rcs, 'numpy' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env(), timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[0, 0, 0] False\n", "")


# what a cold command loads besides streakcount and streakcount.cli: the
# modules its route runs, core for the table's shape, and json for --format
# json.  Only the closed forms load counting and its helpers; the DP, the
# term vectors and the oracle shape their tables through core alone
_CLOSED = "_score_recurrence _series _summands core counting"
_COLD_LOADS = {
    "wins 10": _CLOSED,
    "table --from 2 --to 5": _CLOSED,
    "bfile --series D --max-n 10": _CLOSED,
    # dist's help prints oracle.MAX_N, so its parser loads the oracle
    "dist 12": _CLOSED + " oracle",
    "dist 12 --method oracle": "core oracle",
    "dist 12 --method dp": "core oracle recurrence",
    "dist 12 --method incremental": "core oracle recurrence",
    "dist 3 --format json": _CLOSED + " json oracle",
    "gen --signature=+-+ --length 12": "core signatures",
    "verify --max-n 8": _CLOSED + " oracle recurrence signatures verify",
}


def test_cold_import_leaves_dataclasses_inspect_and_json_unloaded():
    # a cold start pays only for what its command uses: each command in a
    # fresh child loads its own layer and no other command's, json loads for
    # --format json alone, and nothing loads dataclasses or its inspect chain
    code = ("import contextlib, io, sys\n"
            "import streakcount.cli\n"
            "def loaded():\n"
            "    return sorted(m.removeprefix('streakcount.') for m in sys.modules\n"
            "                  if m.startswith('streakcount.')\n"
            "                  or m in ('dataclasses', 'inspect', 'json'))\n"
            "print(*loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = streakcount.cli.main(sys.argv[1:])\n"
            "print(rc, *loaded())\n")
    for argv, loads in _COLD_LOADS.items():
        result = subprocess.run([sys.executable, "-c", code, *argv.split()], capture_output=True,
                                text=True, env=child_env(), timeout=60)
        assert (result.returncode, result.stderr) == (0, ""), argv
        want = " ".join(sorted(["cli", *loads.split()]))
        assert result.stdout == f"cli\n0 {want}\n", argv


def test_the_dp_and_oracle_modules_load_no_closed_forms():
    # both shape their tables through core, so neither loads counting, the
    # series stream, the recurrence in the score or the closed forms' summands
    code = ("import sys\n"
            "import streakcount.recurrence, streakcount.oracle\n"
            "print(*sorted(m for m in sys.modules if m.startswith('streakcount.')))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env(), timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "streakcount.core streakcount.oracle streakcount.recurrence\n"


def test_oracle_commands_run_where_numpy_cannot_be_imported(capsys):
    # None in sys.modules makes any import of numpy raise ImportError
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "import streakcount.cli\n"
            "for argv in (['dist', '12', '--method', 'oracle'], ['verify']):\n"
            "    print('rc', streakcount.cli.main(argv))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env(), timeout=60)
    _, dist, _ = run(capsys, "dist", "12", "--method", "closed")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == dist + "rc 0\n" + VERIFY_DEFAULT + "rc 0\n"


def test_oracle_refuses_lengths_past_the_word_size_whatever_the_cap():
    # one limit for the oracle, refused before any enumeration starts
    for argv, name in ((["dist", "25", "--method", "oracle"], "n"),
                       (["verify", "--oracle-max", "25"], "oracle_max")):
        result = subprocess.run(
            [sys.executable, "-m", "streakcount", *argv],
            capture_output=True, text=True, timeout=10, env=child_env())
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"error: {name}=25 exceeds the oracle's enumeration limit of 24\n"


_BOUND_LIMITS = {"gen_max": "the generator sweep limit of 16",
                 "oracle_max": "the oracle's enumeration limit of 24"}


@pytest.mark.parametrize("flag, name, bound", [("--gen-max", "gen_max", 40),
                                               ("--oracle-max", "oracle_max", 30)])
def test_verify_refuses_enumeration_bounds_past_the_cap_at_once(flag, name, bound):
    # a generator sweep to 40 is 2**40 words: it must be refused up front,
    # not started, and an oracle bound past its limit before any suite runs
    result = subprocess.run(
        [sys.executable, "-m", "streakcount", "verify", flag, str(bound)],
        capture_output=True, text=True, timeout=30, env=child_env())
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"error: {name}={bound} exceeds {_BOUND_LIMITS[name]}\n"


def test_verify_refuses_a_generator_sweep_past_its_limit_at_once():
    # 17 is inside the oracle's limit, but the generator sweep's tuples of
    # every sequence would take seconds and over 50 MB
    result = subprocess.run(
        [sys.executable, "-m", "streakcount", "verify", "--gen-max", "17"],
        capture_output=True, text=True, timeout=30, env=child_env())
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "error: gen_max=17 exceeds the generator sweep limit of 16\n"


@pytest.mark.parametrize("argv, line", [
    (["wins", "10", "--digits", str(10**20)],
     f"error: digits={10**20} exceeds the limit of 10000000 decimal places\n"),
    (["wins", "5000", "--digits", "0"], "error: digits must be at least 1\n"),
    (["verify", "--max-n", "400"],
     "error: max_n=400 exceeds the arithmetic sweep limit of 200\n"),
    (["table", "--from", "1000000000", "--to", "1000000001"],
     "error: --from 1000000000 exceeds the table's start limit of 50000\n"),
    (["dist", "30000000000"],
     "error: n=30000000000 exceeds the closed method's length limit of 10000\n"),
    (["dist", "10001", "--format", "json"],
     "error: n=10001 exceeds the closed method's length limit of 10000\n"),
    (["dist", "3001", "--method", "dp"],
     "error: n=3001 exceeds the dp method's length limit of 3000\n"),
    (["dist", "1001", "--method", "incremental"],
     "error: n=1001 exceeds the incremental method's length limit of 1000\n"),
    (["wins", "30000000000"], "error: n=30000000000 exceeds the wins length limit of 50000\n"),
    (["gen", "--signature=-", "--length", "1000001"],
     "error: --length 1000001 exceeds the gen length limit of 1000000\n"),
], ids=["wins-digits", "wins-digits-zero", "verify-max-n", "table-from", "dist-closed",
        "dist-closed-json", "dist-dp", "dist-incremental", "wins-n", "gen-length"])
def test_digits_and_sweep_bounds_past_their_limits_are_refused_at_once(argv, line):
    # unbounded, the zero padding of 10**20 digits raised OverflowError, the
    # arithmetic sweeps to 400 ran for more than a minute, zero digits were
    # refused only after the whole length-5000 table was walked, a table
    # from 10**9 printed nothing for minutes, `dist 20000` took 24 s, and
    # `dist 30000000000` and `wins 30000000000` filled cells without end, and
    # `gen --length 1000001` built 1024 lines of a million tosses before its
    # first write
    result = subprocess.run([sys.executable, "-m", "streakcount", *argv],
                            capture_output=True, text=True, timeout=10, env=child_env())
    assert (result.returncode, result.stdout, result.stderr) == (1, "", line)


def test_closed_output_pipe_exits_quietly():
    # far more output than a pipe buffer holds, so the writer meets the
    # closed pipe while it still has lines to print
    with subprocess.Popen(
            [sys.executable, "-m", "streakcount", "gen", "--signature=+-", "--length", "1000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert first.rstrip().endswith(b"1101") and stderr == b""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_closed_pipe_leaves_no_descriptor_open(monkeypatch):
    # an in-process caller whose stdout pipe has no reader: main points the
    # pipe's descriptor at devnull and must not keep a second one open
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        before = len(os.listdir("/proc/self/fd"))
        assert cli.main(["bfile", "--series", "D", "--max-n", "3000"]) == 141
        assert len(os.listdir("/proc/self/fd")) == before


def test_interrupt_exits_with_status_130(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "_cmd_wins", interrupted)
    try:
        rc = cli.main(["wins", "3"])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert rc == 130
    assert capsys.readouterr().err == ""


# the public names and their home modules: each route's entry points and
# the types they return or raise; the lazy root must hand out the same objects
_PUBLIC_API = {
    "core": ("ScoreDistribution", "TossSequence", "score"),
    "counting": ("WinOdds", "closed_distribution", "heady_close_calls", "heady_count",
                 "taily_count", "win_gap", "win_gap_step", "win_odds"),
    "oracle": ("OracleCapExceeded", "enumerate_distribution", "sequences_with"),
    "recurrence": ("dp_distribution", "dp_sweep", "incremental_distribution", "table_sweep"),
    "signatures": ("generate_sequences", "sequence_count"),
    "verify": ("SuiteResult", "run_suites"),
}
# helpers a layer calls, kept in their home modules but not at the root
_LAYER_HELPERS = {
    "core": ("CloseCallTable", "close_call_buckets", "heady_support", "require_length",
             "require_mode", "score_support", "taily_support"),
    "counting": ("decimal_ratio",),
    "signatures": ("complement", "min_length", "min_length_sequence", "signature_of",
                   "signature_score"),
}
_DELETED = ("Outcome", "classify", "parse_sequence", "sequence_to_text",
            "close_call_ratios", "close_call_sum", "_lists_table", "_require_length", "_MODES",
            "binom", "step_budget", "close_call_terms", "compositions", "_walk")


def test_package_root_lists_the_user_api():
    names = streakcount.__all__
    homes = {name: module for module, members in _PUBLIC_API.items() for name in members}
    assert len(names) == len(set(names)) == 22 and set(names) == set(homes)
    for name, module in homes.items():
        home = importlib.import_module(f"streakcount.{module}")
        assert getattr(streakcount, name) is getattr(home, name), name
        assert name in dir(streakcount)
    star: dict = {}
    exec("from streakcount import *", star)
    assert {name for name in star if not name.startswith("__")} == set(names)
    assert not hasattr(streakcount, "nope")
    for module, members in _LAYER_HELPERS.items():
        home = importlib.import_module(f"streakcount.{module}")
        for name in members:
            assert getattr(getattr(streakcount, module), name) is getattr(home, name), name
            assert not hasattr(streakcount, name), name
            assert name not in dir(streakcount), name
    sources = [path.read_text() for path in Path(streakcount.__file__).parent.glob("*.py")]
    for name in _DELETED:
        assert not hasattr(streakcount, name), name
        assert not any(re.search(rf"\b{name}\b", text) for text in sources), name
    # every walk steps _summands.ratios; no second copy of the ratio walks terms
    assert not hasattr(_summands, "terms")
    imported = [line.split(" import ", 1)[1] for line in README.read_text().splitlines()
                if line.startswith(">>> from streakcount import ")]
    assert imported
    for line in imported:
        assert {name.strip() for name in line.split(",")} <= set(names)


def test_package_root_loads_each_layer_on_first_use():
    # a bare import runs no submodule; a generator call loads the
    # constructive layer alone, and a gap cell the closed forms, but never
    # the oracle, the DP or the verify suites
    code = ("import sys\n"
            "import streakcount\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('streakcount.'))\n"
            "print(loaded(), set(streakcount.__all__) <= set(dir(streakcount)),\n"
            "      hasattr(streakcount, 'nope'))\n"
            "streakcount.generate_sequences\n"
            "print(loaded())\n"
            "streakcount.win_gap(200)\n"
            "print([m for m in ('verify', 'oracle', 'recurrence')\n"
            "       if f'streakcount.{m}' in sys.modules])\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env(), timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == (
        "[] True False\n"
        "['streakcount.core', 'streakcount.signatures']\n"
        "[]\n")


PACKAGE = Path(streakcount.__file__).parent
# the package modules a module may import: the DP, the term vectors, the
# oracle and the generator shape their tables through core alone and share
# nothing with the closed forms they are held to, and the closed forms' own
# walks import no package module
_IMPORT_BOUNDS = {"recurrence": {"core"}, "oracle": {"core"}, "signatures": {"core"},
                  "_series": set(), "_summands": set()}
# the closed forms' private walks, which verify reads only through counting
_PRIVATE_WALKS = {"_summands", "_series", "_score_recurrence"}


def _package_imports(module: str) -> set[str]:
    """The package modules a source file imports anywhere, function bodies
    included, whether written relative or absolute."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("streakcount."))
        elif isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[0] != "streakcount":
                    continue
                path = path[1:]
            names.update(path[:1] or [alias.name for alias in node.names])
    return names & modules


def test_the_import_graph_keeps_the_routes_apart():
    # the scan sees imports at module level and inside functions
    assert {"_summands", "_series", "_score_recurrence"} <= _package_imports("counting")
    assert {"counting", "oracle", "verify"} <= _package_imports("cli")
    for module, allowed in _IMPORT_BOUNDS.items():
        assert _package_imports(module) <= allowed, module
    assert not _package_imports("verify") & _PRIVATE_WALKS


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    report: list[str] = []
    failed = 0
    for i, block in enumerate(blocks, start=1):
        test = parser.get_doctest(block, {}, f"README python block {i}", str(README), 0)
        assert test.examples
        failed += runner.run(test, out=report.append).failed
    assert failed == 0, "".join(report)


def test_lengths_past_the_int_to_str_limit_print_in_full():
    # 14500 puts win_gap past 4300 digits.  The 5000 decimals of wins no
    # longer convert a big int, since win_odds pads every digit past the
    # n-th; the table case still needs the lifted limit.  argv itself is
    # still parsed under the default limit
    table = subprocess.run(
        [sys.executable, "-m", "streakcount", "table", "--from", "14500", "--to", "14500"],
        capture_output=True, text=True, timeout=60, env=child_env())
    assert (table.returncode, table.stderr) == (0, "")
    n, h2, gap = table.stdout.split()
    assert n == "14500" and gap.isdigit() and len(gap) > 4300
    # this process keeps the default limit, so compare the low digits only
    assert int(gap[-30:]) == counting.win_gap(14500) % 10**30
    wins = subprocess.run(
        [sys.executable, "-m", "streakcount", "wins", "3", "--digits", "5000"],
        capture_output=True, text=True, timeout=60, env=child_env())
    assert (wins.returncode, wins.stderr) == (0, "")
    assert wins.stdout.splitlines()[-1] == "gap_share 1/8 0.125" + "0" * 4997
    if hasattr(sys, "set_int_max_str_digits"):
        huge = subprocess.run(
            [sys.executable, "-m", "streakcount", "wins", "1" * 5000],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert huge.returncode == 2 and "invalid int value" in huge.stderr


def test_wins_pads_a_million_digits_at_once():
    # 93/1024 ends after 10 decimals, so the rest are zeros, not a division
    result = subprocess.run(
        [sys.executable, "-m", "streakcount", "wins", "10", "--digits", "1000000"],
        capture_output=True, text=True, timeout=10, env=child_env())
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[-1] == "gap_share 93/1024 0.0908203125" + "0" * 999990


def test_wins_prints_the_largest_accepted_digits():
    result = subprocess.run(
        [sys.executable, "-m", "streakcount", "wins", "10", "--digits", str(counting.MAX_DIGITS)],
        capture_output=True, timeout=10, env=child_env())
    assert (result.returncode, result.stderr) == (0, b"")
    last = result.stdout.splitlines()[-1]
    assert last == b"gap_share 93/1024 0.0908203125" + b"0" * (counting.MAX_DIGITS - 10)


def test_main_restores_the_int_to_str_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str limit")
    before = sys.get_int_max_str_digits()
    assert cli.main(["wins", "3", "--digits", "5000"]) == 0
    assert cli.main(["dist", "0"]) == 1
    assert sys.get_int_max_str_digits() == before


_FUZZ_INT = st.integers(-3, 24)
# verify bounds stay small, so one drawn run takes about 50 ms
_FUZZ_VERIFY_INT = st.integers(-3, 8)
_FUZZ_SIGNATURE = st.text(alphabet="+-x ", max_size=8)
# bounds past counting.MAX_DIGITS, verify.MAX_N_LIMIT, the table's first
# length limit and the dist, wins and gen length limits, which must be refused
# before any work
_FUZZ_PAST_DIGITS = st.integers(10**7 + 1, 10**30)
_FUZZ_PAST_MAX_N = st.integers(201, 10**30)
_FUZZ_PAST_FROM = st.integers(cli._FROM_LIMIT + 1, 10**30)
_FUZZ_PAST_WINS = st.integers(cli._WINS_LIMIT + 1, 10**30)
_FUZZ_PAST_GEN = st.integers(cli._GEN_LIMIT + 1, 10**30)


def _past_dist_limit(method: list[str]) -> st.SearchStrategy:
    limit = cli._DIST_LIMITS.get(method[-1] if method else "closed", oracle.MAX_N)
    return st.integers(limit + 1, 10**30)


def _opt(flag: str, values: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


@st.composite
def _fuzz_argv(draw) -> list[str]:
    n = str(draw(_FUZZ_INT))
    command = draw(st.sampled_from(("dist", "wins", "table", "bfile", "gen", "verify")))
    if command == "dist":
        method = draw(_opt("--method", st.sampled_from(
            ("closed", "dp", "incremental", "oracle", "bogus"))))
        n = str(draw(_FUZZ_INT | _past_dist_limit(method)))
        return (["dist", n] + method
                + draw(_opt("--format", st.sampled_from(("table", "tsv", "json")))))
    if command == "wins":
        n = str(draw(_FUZZ_INT | _FUZZ_PAST_WINS))
        return ["wins", n] + draw(_opt("--digits", _FUZZ_PAST_DIGITS | _FUZZ_INT))
    if command == "table":
        return (["table"] + draw(_opt("--from", _FUZZ_PAST_FROM | _FUZZ_INT))
                + draw(_opt("--to", _FUZZ_INT)))
    if command == "bfile":
        return (["bfile"] + draw(_opt("--series", st.sampled_from(("h2", "h4", "D", "delta", "x"))))
                + draw(_opt("--max-n", _FUZZ_INT)) + draw(_opt("--offset", _FUZZ_INT)))
    if command == "verify":
        # --max-n is always drawn: its default of 64 takes ten times as long
        return (["verify", "--max-n", str(draw(_FUZZ_PAST_MAX_N | _FUZZ_VERIFY_INT))]
                + draw(_opt("--oracle-max", _FUZZ_VERIFY_INT))
                + draw(_opt("--gen-max", _FUZZ_VERIFY_INT)))
    sig = draw(_FUZZ_SIGNATURE)
    signature = draw(st.sampled_from(([f"--signature={sig}"], ["--signature", sig], [])))
    return (["gen"] + signature + draw(_opt("--length", _FUZZ_INT | _FUZZ_PAST_GEN))
            + draw(_opt("--mode", st.sampled_from(("heady", "taily", "both"))))
            + draw(st.sampled_from(([], ["--fixed-leading-one"]))))


@given(_fuzz_argv())
@settings(max_examples=300)
def test_fuzzed_argv_ends_in_output_or_a_clean_error(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2, (argv, err.getvalue())
        return
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == [], argv
    else:
        assert rc == 1 and len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
