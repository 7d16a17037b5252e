"""Command-line front end.

Subcommands map one-to-one onto the library layers: dist prints a full
score table by any of the four computation paths, wins prints the game
odds, table and bfile print the close-call and gap series, gen streams
constructed sequences and verify runs the cross-checking suites.  All
output is plain text on stdout.  A value that parses but that a command
refuses comes back as "error: ..." on stderr and exit status 1.  A value
argparse cannot parse (`dist 5 --format xml`, `wins abc`) gets argparse's
usage line and "streakcount <command>: error: ..." on stderr and exit
status 2.  A closed output pipe ends the command quietly with status 141
and an interrupt with status 130, the shell's codes for SIGPIPE and
SIGINT.

A cold command loads only its own layer: each handler imports the modules
its route runs, and the parser adds the arguments of the invoked
subcommand alone, so `wins` never loads the oracle, the DP or the verify
suites.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .core import ScoreDistribution


# longest length each dist method accepts, and wins; past it a command is
# refused before any work.  Cold commands on a 2-core Xeon (Python 3.11.7),
# output to /dev/null: `dist 10000` 2.8 s with a 110 MB process and 90 MB
# of output, most of the time spent converting counts to decimal, and
# `dist 20000` 21 s and 382 MB; `dist 3000 --method dp` 1.3 s, 5000 5.8 s;
# `dist 1000 --method incremental` 0.48 s, 1500 1.4 s.  wins walks two gap
# cells of about n bits, whose bigint block steps dominate there:
# `wins 20000` 0.15 s, 50000 0.51 s and 100000 1.8 s, best of five.  Each
# grows at least as fast as n**2, and the oracle keeps its own limit of
# oracle.MAX_N
_DIST_LIMITS = {"closed": 10_000, "dp": 3_000, "incremental": 1_000}
_WINS_LIMIT = 50_000


def _dist_for(method: str, n: int) -> ScoreDistribution:
    limit = _DIST_LIMITS.get(method)
    if limit is not None and n > limit:
        raise ValueError(f"n={n} exceeds the {method} method's length limit of {limit}")
    if method == "closed":
        from . import counting
        return counting.closed_distribution(n)
    if method == "oracle":
        from . import oracle
        return oracle.enumerate_distribution(n)
    from . import recurrence
    if method == "dp":
        return recurrence.dp_distribution(n)
    return recurrence.incremental_distribution(n)


def _dist_rows(dist: ScoreDistribution) -> list[tuple[int, int, int]]:
    from .core import score_support
    lo, hi = score_support(dist.n)
    return [(s, dist.heady.get(s, 0), dist.taily.get(s, 0))
            for s in range(hi, lo - 1, -1)]


def _cmd_dist(args: argparse.Namespace) -> int:
    dist = _dist_for(args.method, args.n)
    rows = _dist_rows(dist)
    if args.format == "json":
        import json     # its only use: keep it off every other command's start-up
        payload = {"n": dist.n,
                   "rows": [{"s": s, "heady": h, "taily": t} for s, h, t in rows]}
        print(json.dumps(payload, indent=2))
        return 0
    if args.format == "tsv":
        print("s\theady\ttaily")
        for s, h, t in rows:
            print(f"{s}\t{h}\t{t}")
        return 0
    cells = [("s", "heady", "taily")] + [(str(s), str(h), str(t)) for s, h, t in rows]
    widths = [max(len(row[col]) for row in cells) for col in range(3)]
    print(f"n {dist.n}")
    for row in cells:
        print("  ".join(value.rjust(w) for value, w in zip(row, widths)))
    return 0


def _cmd_wins(args: argparse.Namespace) -> int:
    if args.n > _WINS_LIMIT:
        raise ValueError(f"n={args.n} exceeds the wins length limit of {_WINS_LIMIT}")
    from . import counting
    odds = counting.win_odds(args.n, digits=args.digits)
    den = odds.total
    print(f"n {odds.n}")
    print(f"total {den}")
    print(f"alice {odds.alice}")
    print(f"bob {odds.bob}")
    print(f"ties {odds.ties}")
    print(f"gap {odds.gap}")
    print(f"alice_share {odds.alice}/{den} {odds.alice_share}")
    print(f"bob_share {odds.bob}/{den} {odds.bob_share}")
    print(f"tie_share {odds.ties}/{den} {odds.tie_share}")
    print(f"gap_share {odds.gap}/{den} {odds.gap_share}")
    return 0


# largest first length table accepts: its first line walks one closed form
# of about n bits (the score-one heady cell) and steps the series stream from
# its seeds up to n, 1.1 s from a cold start at 50000 and 3.9 s at 100000 on
# a 2-core Xeon, growing as n**2
_FROM_LIMIT = 50_000


def _cmd_table(args: argparse.Namespace) -> int:
    if args.from_n < 2:
        raise ValueError(f"--from must be at least 2, got {args.from_n}")
    if args.from_n > _FROM_LIMIT:
        raise ValueError(f"--from {args.from_n} exceeds the table's start limit of {_FROM_LIMIT}")
    if args.to < args.from_n:
        raise ValueError(f"--to must be at least --from, got {args.to}")
    from . import counting
    for n in range(args.from_n, args.to + 1):
        print(f"{n} {counting.heady_close_calls(n)} {counting.win_gap(n)}")
    return 0


# tosses 0 and 1 as the bytes b"0" and b"1", so a generated sequence
# renders in one translate call instead of one Python step per toss
_TOSS_TEXT = bytes.maketrans(b"\x00\x01", b"01")

# gen writes about this many bytes at a time: few writes for short lines,
# and a line longer than this goes out before the next one is built
_GEN_BATCH_BYTES = 1 << 16

# longest sequence gen builds: each output holds about 33 bytes of memory
# per toss while it is built and rendered.  Cold `gen --signature=-
# --length N` on a 2-core Xeon (Python 3.11.7) printed its first line after
# 0.08-0.10 s with a 46-53 MB process at 10**6, and after 0.51 s with
# 329 MB at 10**7
_GEN_LIMIT = 1_000_000


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.length > _GEN_LIMIT:
        raise ValueError(f"--length {args.length} exceeds the gen length limit of {_GEN_LIMIT}")
    # argparse before Python 3.13 strips a lone "--" out of an option's
    # value, so --signature=-- arrives as an empty list; 3.13 passes "--"
    signature = "--" if args.signature == [] else args.signature
    from . import signatures
    seqs = signatures.generate_sequences(signature, args.length, args.mode,
                                         args.fixed_leading_one)
    count = 0
    # every line holds length tosses and a newline
    per_batch = max(1, _GEN_BATCH_BYTES // (args.length + 1))
    while batch := [bytes(bits).translate(_TOSS_TEXT) for bits in islice(seqs, per_batch)]:
        sys.stdout.write(b"\n".join(batch).decode() + "\n")
        count += len(batch)
    print(f"count {count}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
    results = verify.run_suites(max_n=args.max_n, oracle_max=args.oracle_max,
                                gen_max=args.gen_max)
    failed = False
    for res in results:
        if res.ok:
            print(f"PASS {res.name} ({res.checks} checks)")
        else:
            failed = True
            print(f"FAIL {res.name}: {res.detail}")
    return 1 if failed else 0


_SERIES = {
    # series name -> (first defined length, term function in counting); h4
    # and D are two names for the same series
    "h2": (2, "heady_close_calls"),
    "h4": (2, "win_gap"),
    "D": (2, "win_gap"),
    "delta": (3, "win_gap_step"),
}


def _cmd_bfile(args: argparse.Namespace) -> int:
    from . import counting
    start, name = _SERIES[args.series]
    term = getattr(counting, name)
    if args.max_n < start:
        raise ValueError(
            f"series {args.series} is undefined below n={start}, "
            f"got --max-n {args.max_n}")
    index = args.offset if args.offset is not None else start
    for n in range(start, args.max_n + 1):
        print(f"{index} {term(n)}")
        index += 1
    return 0


def _dist_arguments(p: argparse.ArgumentParser) -> None:
    from . import oracle     # its help prints the oracle's length limit
    p.add_argument("n", type=int,
                   help="sequence length, at most " + ", ".join(
                       f"{limit} by {method}" for method, limit in _DIST_LIMITS.items())
                   + f" and {oracle.MAX_N} by oracle")
    p.add_argument("--method", choices=("closed", "dp", "incremental", "oracle"),
                   default="closed", help="computation path (default closed)")
    p.add_argument("--format", choices=("table", "tsv", "json"), default="table")
    p.set_defaults(run=_cmd_dist)


def _wins_arguments(p: argparse.ArgumentParser) -> None:
    from . import counting
    p.add_argument("n", type=int, help=f"sequence length, at most {_WINS_LIMIT}")
    p.add_argument("--digits", type=int, default=6,
                   help="decimal places in the share columns, at most "
                        f"{counting.MAX_DIGITS} (default 6)")
    p.set_defaults(run=_cmd_wins)


def _table_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="from_n", type=int, default=2, metavar="N",
                   help=f"first length, at most {_FROM_LIMIT} (default 2)")
    p.add_argument("--to", type=int, default=25, metavar="N",
                   help="last length (default 25)")
    p.set_defaults(run=_cmd_table)


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--signature", required=True,
                   help="mark string over '+' and '-'; values starting with '-' "
                        "need the --signature=-+- form")
    p.add_argument("--length", type=int, required=True,
                   help=f"sequence length, at most {_GEN_LIMIT}")
    p.add_argument("--mode", choices=("heady", "taily"), default="heady",
                   help="final toss of the generated sequences (default heady)")
    p.add_argument("--fixed-leading-one", action="store_true",
                   help="pin the leading head; every output starts with 1")
    p.set_defaults(run=_cmd_gen)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from . import verify
    p.add_argument("--max-n", type=int, default=64,
                   help="bound for the pure-arithmetic sweeps, at most "
                        f"{verify.MAX_N_LIMIT} (default 64)")
    p.add_argument("--oracle-max", type=int, default=12,
                   help="bound for the full-enumeration sweeps (default 12)")
    p.add_argument("--gen-max", type=int, default=None,
                   help="bound for the exhaustive generator sweeps, at most "
                        f"{verify.GEN_MAX_LIMIT} (default: min(10, max-n))")
    p.set_defaults(run=_cmd_verify)


def _bfile_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--series", choices=tuple(_SERIES), required=True,
                   help="h2: score-one heady counts; h4 or D: the win gap; "
                        "delta: gap increments")
    p.add_argument("--max-n", type=int, default=25, help="last length (default 25)")
    p.add_argument("--offset", type=int, default=None,
                   help="relabel the first index (default: the first length)")
    p.set_defaults(run=_cmd_bfile)


_COMMANDS = {
    # subcommand -> (help line, function adding its arguments), in the
    # order the top-level help lists them
    "dist": ("score table for one length", _dist_arguments),
    "wins": ("aggregate win, loss and tie counts", _wins_arguments),
    "table": ("close-call and gap columns over a length range", _table_arguments),
    "gen": ("stream every sequence with a given signature", _gen_arguments),
    "verify": ("run the cross-checking invariant suites", _verify_arguments),
    "bfile": ("one series as 'index value' lines", _bfile_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, and the arguments of `command` alone.

    Adding a subcommand's arguments imports the layer whose limit its help
    prints, so a parser for one command loads no other command's layer;
    with no `command` (or a name that is none) only the top level can parse.
    """
    parser = argparse.ArgumentParser(
        prog="streakcount",
        description="Exact score tables for the heads-heads versus heads-tails "
                    "coin tossing game.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            add_arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser takes no option values, so its first bare token
    # names the subcommand argparse will hand the rest to
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    # exact counts outgrow the interpreter's limit on int-to-str conversion
    # (4300 digits by default); argv above is still parsed under it
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        status = args.run(args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull so the
        # flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except KeyboardInterrupt:
        return 130
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
