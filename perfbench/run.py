#!/usr/bin/env python3
"""Benchmark for streakcount: one workload per run, or a comparison of two result sets.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare perfbench/out/base perfbench/out/new

A run builds the program from ./src (byte-compiles it), times set-up in
fresh interpreters, computes its reference answers, warms up, then runs
whole rounds of the workload until --seconds have passed.  Every output is
checked against the independent reference in reference.py.  The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
The full record, with the environment fingerprint, goes to
<out>/<workload>-s<seed>-t<trace>.json, and a traced run's spans to
<out>/<workload>-s<seed>-spans.json.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from reference import CheckFailed, expect  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CAL_S, SRC, WORKLOADS, Ops, calibrate, run_child  # noqa: E402

SETUP_RUNS = 5
MIN_ROUNDS = 3
PROBE = -1          # round id of the traced run's layer probe

SETUP_CHILD = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import streakcount
{stmt}
print(time.perf_counter() - t0)
"""

IMPORT_CHILD = """\
import time
t0 = time.perf_counter()
import streakcount.cli
print(time.perf_counter() - t0)
"""


def fingerprint() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy, "cores": os.cpu_count(),
            "cpu": cpu, "loadavg": list(os.getloadavg()), "platform": platform.platform()}


def _time(span: str, scale: float = 1.0):
    return lambda t: None if span not in t else scale * t[span]


def _counter(prefix: str, key: str):
    def get(t):
        vals = [v for k, v in t.items() if k.startswith(prefix) and k.endswith("#" + key)]
        return sum(vals) if vals else None
    return get


def _mean(span: str, key: str | None, per: str, scale: float):
    def get(t):
        num = t.get(span if key is None else f"{span}#{key}")
        den = t.get(f"{span}#{per}")
        return None if num is None or not den else scale * num / den
    return get


def _terms_per_s(t):
    busy = sum(v for k, v in t.items() if k.startswith("counting.") and "#" not in k)
    terms = _counter("counting.", "terms")(t)
    return None if not terms or not busy else terms / busy


CLI_COMMANDS = ("wins", "dist_closed", "dist_dp", "dist_incremental", "dist_oracle",
                "table", "bfile", "gen", "verify")

# per-layer metric -> (unit, value from one round's span totals, or None if absent)
PER_LAYER = {
    "counting.closed_distribution.s": ("s", _time("counting.closed_distribution")),
    "counting.win_odds.s": ("s", _time("counting.win_odds")),
    "counting.win_gap.s": ("s", _time("counting.win_gap")),
    "counting.heady_close_calls.s": ("s", _time("counting.heady_close_calls")),
    "counting.win_gap_step.s": ("s", _time("counting.win_gap_step")),
    "counting.cells": ("count-computed", _counter("counting.", "cells")),
    "counting.terms": ("count-computed", _counter("counting.", "terms")),
    "counting.terms_per_s": ("1/s", _terms_per_s),
    "recurrence.dp_sweep.s": ("s", _time("recurrence.dp_sweep")),
    "recurrence.dp_distribution.s": ("s", _time("recurrence.dp_distribution")),
    "recurrence.table_sweep.s": ("s", _time("recurrence.table_sweep")),
    "recurrence.incremental_distribution.s": ("s", _time("recurrence.incremental_distribution")),
    "recurrence.cells": ("count", _counter("recurrence.", "cells")),
    "recurrence.term_updates": ("count-computed", _counter("recurrence.", "term_updates")),
    "signatures.generate.s": ("s", _time("signatures.generate")),
    "signatures.sequences": ("count", _counter("signatures.", "sequences")),
    "signatures.first_output_ms": ("ms", _mean("signatures.generate", "first_output_s",
                                               "calls", 1000)),
    "signatures.sequence_count.s": ("s", _time("signatures.sequence_count")),
    "oracle.enumerate_distribution.s": ("s", _time("oracle.enumerate_distribution")),
    "oracle.sequences_with.s": ("s", _time("oracle.sequences_with")),
    "oracle.words": ("count-computed", _counter("oracle.", "words")),
    "verify.run_suites.s": ("s", _time("verify.run_suites")),
    "verify.checks": ("count", _counter("verify.", "checks")),
    "cli.bare_python_ms": ("ms", _mean("cli.bare_python", None, "runs", 1000)),
    "cli.import_ms": ("ms", _mean("cli.import", "import_s", "runs", 1000)),
    **{f"cli.{c}.ms": ("ms", _time(f"cli.{c}", 1000)) for c in CLI_COMMANDS},
}


def probe(sc, tr: Tracer, workload: str) -> None:
    """One small traced round of every other workload, the verify suites and cold starts.

    Gives every per-layer metric a value on every workload: a layer the
    workload's own rounds never call is measured here instead.
    """
    tr.round_id, tr.on = PROBE, True
    for name, cls in WORKLOADS.items():
        if name != workload:
            w = cls(random.Random(0), small=True)
            w.prepare()
            w.round(sc, Ops(tr))
    with tr.span("verify.run_suites") as a:
        results = sc.verify.run_suites()        # the CLI's default bounds
    a["checks"] = sum(r.checks for r in results)
    expect(all(r.ok for r in results), "verify.run_suites reported a failing suite")
    for _ in range(3):
        with tr.span("cli.bare_python") as a:
            run_child(["-c", "pass"])
        a["runs"] = 1
        with tr.span("cli.import") as a:
            a["import_s"] = float(run_child(["-c", IMPORT_CHILD])[1])
        a["runs"] = 1
    tr.on = False


def per_layer(tr: Tracer, traced: list[int]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics, and the names whose values come from the probe."""
    rounds = [tr.totals(r) for r in traced]
    probe_totals = tr.totals(PROBE)
    out, probed = {}, []
    for name, (unit, get) in PER_LAYER.items():
        vals = [get(t) for t in rounds]
        if None in vals:
            out[name] = (get(probe_totals), unit)
            probed.append(name)
        else:
            out[name] = (statistics.median(vals), unit)
    return out, probed


def peak_rss_mb(wl) -> float:
    """Peak resident set of this process, or of the largest cli child."""
    kb = getattr(wl, "peak_kb", None) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def measure(args: argparse.Namespace) -> dict:
    # one core for the benchmark, its calibration and its children alike, so
    # the calibration sees the same core as the work it scales
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    compileall.compile_dir(str(SRC), quiet=1)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint()}
    wl = WORKLOADS[args.workload](random.Random(args.seed))
    record["inputs"] = wl.inputs()
    setup_code = SETUP_CHILD.format(src=str(SRC), stmt=wl.setup)
    setups: list[tuple[float, float]] = []     # (seconds, calibration seconds)

    def set_up(cal: tuple[float, float]) -> tuple[float, float]:
        """Package import plus one warm-up call, timed inside a fresh interpreter."""
        seconds = float(run_child(["-c", setup_code])[1])
        after = calibrate()
        setups.append((seconds, (cal[0] + after[0]) / 2))
        return after

    sys.path.insert(0, str(SRC))
    import streakcount as sc

    tr = Tracer()
    rounds: list[Ops] = []
    traced: list[int] = []
    correct, problem = True, None
    try:
        wl.prepare()
        wl.warm_up(sc)
        t_start = perf_counter()
        longest, cal = 0.0, None
        # set-up samples are spread between the rounds so that they see the
        # same host as the rounds do
        while (len(rounds) < MIN_ROUNDS + args.trace
               or perf_counter() - t_start + longest <= args.seconds):
            t0 = perf_counter()
            tr.round_id = len(rounds)
            tr.on = bool(args.trace) and len(rounds) % 2 == 1
            ops = Ops(tr, cal)
            wl.round(sc, ops)
            if tr.on:
                traced.append(tr.round_id)
            tr.on = False
            rounds.append(ops)
            cal = ops.cal if args.trace else set_up(ops.cal)
            longest = max(longest, perf_counter() - t0)
        while not args.trace and len(setups) < SETUP_RUNS:
            cal = set_up(cal)
        record["measured_s"] = perf_counter() - t_start
        if args.trace:
            probe(sc, tr, args.workload)
    except CheckFailed as exc:
        correct, problem = False, str(exc)
    record.update(rounds=len(rounds), traced_rounds=len(traced), correct=correct,
                  problem=problem, setup_runs=setups)
    records = [rec for ops in rounds for rec in ops.records]
    record["attempted"] = len(records)
    record["failed"] = sum(1 for *_, err in records if err is not None)
    record["failures"] = sorted({f"{kind}: {err}" for kind, *_, err in records if err})
    record["round_ops"] = [ops.records for ops in rounds]
    record["metrics"] = {}
    if not correct:
        return record

    plain = [ops for i, ops in enumerate(rounds) if i not in traced]
    round_s = [sum(ops.norm()) for ops in plain]
    if args.trace:
        layers, record["probed"] = per_layer(tr, traced)
        traced_s = [sum(rounds[i].norm()) for i in traced]
        layers["trace.overhead_pct"] = (
            100 * (statistics.median(traced_s) / statistics.median(round_s) - 1), "%")
        record["metrics"] = layers
        spans = Path(args.out) / f"{args.workload}-s{args.seed}-spans.json"
        tr.write(spans, t_start)
        record["spans_file"] = str(spans)
    else:
        record["metrics"] = {
            "setup_s": (statistics.median(s * CAL_S / c for s, c in setups), "s"),
            "peak_rss_mb": (peak_rss_mb(wl), "MB"),
            "round_norm_s": (statistics.median(round_s), "s"),
        }
        record["workload_metrics"] = wl.detail(plain)
        record["raw_medians_s"] = {"setup": statistics.median(s for s, _ in setups),
                                   "round": statistics.median(
                                       sum(wall for _, wall, _, err in ops.records if not err)
                                       for ops in plain)}
    return record


def report(record: dict) -> None:
    fp = record["fingerprint"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"python {fp['python']} numpy {fp['numpy']} cores {fp['cores']} "
          f"load {fp['loadavg'][0]:.2f} cpu {fp['cpu']}")
    print(f"# inputs {json.dumps(record['inputs'])}")
    print(f"# rounds {record['rounds']} (traced {record['traced_rounds']}) "
          f"attempted {record['attempted']} failed {record['failed']} "
          f"{'; '.join(record['failures'])}")
    if record["problem"]:
        print(f"# INCORRECT: {record['problem']}")
    for group in ("metrics", "workload_metrics"):
        for name, (value, unit) in record.get(group, {}).items():
            print(f"{name} {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for result records and spans")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two directories of result records")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not (SRC / "streakcount" / "__init__.py").is_file():
        print(f"error: no streakcount sources under {SRC}", file=sys.stderr)
        return 2

    record = measure(args)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    result = Path(args.out) / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    result.write_text(json.dumps(record, indent=1))
    report(record)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
