"""Command-line front end.

Subcommands map one-to-one onto the library layers: dist prints a full
score table by any of the four computation paths, wins aggregates it into
game odds, table and bfile print the close-call and gap series, gen streams
constructed sequences, verify runs the cross-checking suites and bench
times the paths against each other.  All output is plain text on stdout;
anything a flag rejects comes back as "error: ..." on stderr and exit
status 1.  A closed output pipe ends the command quietly with status 141
and an interrupt with status 130, the shell's codes for SIGPIPE and SIGINT.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from time import perf_counter

from . import __version__, core, counting, oracle, recurrence, signatures, verify


def _dist_for(method: str, n: int) -> core.ScoreDistribution:
    if method == "closed":
        return counting.closed_distribution(n)
    if method == "dp":
        return recurrence.dp_distribution(n)
    if method == "incremental":
        return recurrence.incremental_distribution(n)
    return oracle.enumerate_distribution(n)


def _dist_rows(dist: core.ScoreDistribution) -> list[tuple[int, int, int]]:
    lo, hi = counting.score_support(dist.n)
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


def _cmd_table(args: argparse.Namespace) -> int:
    if args.from_n < 2:
        raise ValueError(f"--from must be at least 2, got {args.from_n}")
    if args.to < args.from_n:
        raise ValueError(f"--to must be at least --from, got {args.to}")
    for n in range(args.from_n, args.to + 1):
        print(f"{n} {counting.heady_close_calls(n)} {counting.win_gap(n)}")
    return 0


# tosses 0 and 1 as the bytes b"0" and b"1", so a generated sequence
# renders in one translate call instead of one Python step per toss
_TOSS_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def _cmd_gen(args: argparse.Namespace) -> int:
    # argparse before Python 3.13 strips a lone "--" out of an option's
    # value, so --signature=-- arrives as an empty list; 3.13 passes "--"
    signature = "--" if args.signature == [] else args.signature
    seqs = signatures.generate_sequences(signature, args.length, args.mode,
                                         args.fixed_leading_one)
    count = 0
    # one write per batch of lines; a batch stays small enough to keep
    # the output streaming
    while batch := [bytes(bits).translate(_TOSS_TEXT) for bits in islice(seqs, 1024)]:
        sys.stdout.write(b"\n".join(batch).decode() + "\n")
        count += len(batch)
    print(f"count {count}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
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
    # series name -> (first defined length, term function); h4 and D are
    # two names for the same series
    "h2": (2, counting.heady_close_calls),
    "h4": (2, counting.win_gap),
    "D": (2, counting.win_gap),
    "delta": (3, counting.win_gap_step),
}


def _cmd_bfile(args: argparse.Namespace) -> int:
    start, term = _SERIES[args.series]
    if args.max_n < start:
        raise ValueError(
            f"series {args.series} is undefined below n={start}, "
            f"got --max-n {args.max_n}")
    index = args.offset if args.offset is not None else start
    for n in range(start, args.max_n + 1):
        print(f"{index} {term(n)}")
        index += 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
    t0 = perf_counter()
    closed = [counting.closed_distribution(n) for n in range(1, args.max_n + 1)]
    t_closed = perf_counter() - t0
    t0 = perf_counter()
    dp = list(recurrence.dp_sweep(args.max_n))
    t_dp = perf_counter() - t0
    t0 = perf_counter()
    inc = list(recurrence.table_sweep(args.max_n))
    t_inc = perf_counter() - t0
    print(f"# closed forms  {t_closed:.3f}s for n = 1..{args.max_n}")
    print(f"# dp sweep      {t_dp:.3f}s")
    print(f"# term updates  {t_inc:.3f}s")
    for n, (a, b, c) in enumerate(zip(closed, dp, inc), start=1):
        if not (a == b == c):
            print(f"methods disagree at n = {n}")
            return 1
    print(f"methods agree for n = 1..{args.max_n}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streakcount",
        description="Exact score tables for the heads-heads versus heads-tails "
                    "coin tossing game.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="score table for one length")
    p.add_argument("n", type=int, help="sequence length")
    p.add_argument("--method", choices=("closed", "dp", "incremental", "oracle"),
                   default="closed", help="computation path (default closed)")
    p.add_argument("--format", choices=("table", "tsv", "json"), default="table")
    p.set_defaults(run=_cmd_dist)

    p = sub.add_parser("wins", help="aggregate win, loss and tie counts")
    p.add_argument("n", type=int, help="sequence length")
    p.add_argument("--digits", type=int, default=6,
                   help="decimal places in the share columns, at most "
                        f"{counting.MAX_DIGITS} (default 6)")
    p.set_defaults(run=_cmd_wins)

    p = sub.add_parser("table", help="close-call and gap columns over a length range")
    p.add_argument("--from", dest="from_n", type=int, default=2, metavar="N",
                   help="first length (default 2)")
    p.add_argument("--to", type=int, default=25, metavar="N",
                   help="last length (default 25)")
    p.set_defaults(run=_cmd_table)

    p = sub.add_parser("gen", help="stream every sequence with a given signature")
    p.add_argument("--signature", required=True,
                   help="mark string over '+' and '-'; values starting with '-' "
                        "need the --signature=-+- form")
    p.add_argument("--length", type=int, required=True, help="sequence length")
    p.add_argument("--mode", choices=("heady", "taily"), default="heady",
                   help="final toss of the generated sequences (default heady)")
    p.add_argument("--fixed-leading-one", action="store_true",
                   help="pin the leading head; every output starts with 1")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("verify", help="run the cross-checking invariant suites")
    p.add_argument("--max-n", type=int, default=64,
                   help="bound for the pure-arithmetic sweeps, at most "
                        f"{verify.MAX_N_LIMIT} (default 64)")
    p.add_argument("--oracle-max", type=int, default=12,
                   help="bound for the full-enumeration sweeps (default 12)")
    p.add_argument("--gen-max", type=int, default=None,
                   help="bound for the exhaustive generator sweeps, at most "
                        f"{verify.GEN_MAX_LIMIT} (default: min(10, max-n))")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("bfile", help="one series as 'index value' lines")
    p.add_argument("--series", choices=tuple(_SERIES), required=True,
                   help="h2: score-one heady counts; h4 or D: the win gap; "
                        "delta: gap increments")
    p.add_argument("--max-n", type=int, default=25, help="last length (default 25)")
    p.add_argument("--offset", type=int, default=None,
                   help="relabel the first index (default: the first length)")
    p.set_defaults(run=_cmd_bfile)

    p = sub.add_parser("bench", help="time the computation paths against each other")
    p.add_argument("--max-n", type=int, default=100,
                   help="sweep all lengths up to this bound (default 100)")
    p.set_defaults(run=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
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
