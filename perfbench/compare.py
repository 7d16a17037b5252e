"""Compare two directories of result records written by run.py.

For every workload and end-to-end metric: each side's median and
quartiles, and a verdict against the metric's bound.  For the traced
records: per-layer ratios NEW / BASE with the base value, and the layer
whose time grew most.

Verdicts, with spread = interquartile range over median on either side:
  worse       NEW's median is worse than BASE's by more than the bound, or,
              when the spread exceeds the bound, every NEW run is worse
              than every BASE run;
  better      NEW wins at least nine tenths of the runs paired by seed and
              the medians differ by more than BASE's interquartile range,
              or, when the spread exceeds the bound, every NEW run is
              better than every BASE run;
  unresolved  the spread exceeds the bound and neither of the above holds;
  same        otherwise: within the bound, no gain shown.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# the workload figures (sweep_dp_s, cli_ms_p50, ...) are parts of a round,
# so they are judged against the round's bound; rates (unit .../s) are
# better higher, times lower
ROUND_METRIC = "round_norm_s"


def load(directory: str) -> list[dict]:
    """The result records in directory; incorrect runs are reported and left out."""
    records = []
    for path in sorted(Path(directory).glob("*-t[01].json")):
        rec = json.loads(path.read_text())
        if rec.get("correct"):
            records.append(rec)
        else:
            print(f"# left out {path}: incorrect ({rec.get('problem')})")
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict[int, float], new: dict[int, float], lower: bool, bound: float) -> str:
    """base and new map seed -> value."""
    a, b = list(base.values()), list(new.values())
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
    spread = max((qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb)
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    all_worse = min(b) > max(a) if lower else max(b) < min(a)
    if spread > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    if pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > qa[2] - qa[0] and worse_by < 0:
        return "better"
    return "same"


def by_metric(records: list[dict], groups: tuple[str, ...]) -> dict:
    """(workload, metric) -> (unit, {seed: value})."""
    out: dict = {}
    for rec in records:
        for group in groups:
            for name, (value, unit) in rec.get(group, {}).items():
                out.setdefault((rec["workload"], name), (unit, {}))[1][rec["seed"]] = value
    return out


def fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(base_dir: str, new_dir: str) -> int:
    spec = json.loads(BENCHMARK.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(base_dir), load(new_dir)
    plain = [r for r in base if r["trace"] == 0], [r for r in new if r["trace"] == 0]
    traced = [r for r in base if r["trace"] == 1], [r for r in new if r["trace"] == 1]
    if not plain[0] or not plain[1]:
        print("error: each directory needs untraced result records (*-t0.json)")
        return 2

    print(f"{'workload':<10} {'metric':<20} {'unit':<8} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'change':>8}  verdict")
    a_all = by_metric(plain[0], ("metrics", "workload_metrics"))
    b_all = by_metric(plain[1], ("metrics", "workload_metrics"))
    for key in sorted(a_all.keys() & b_all.keys()):
        workload, name = key
        unit, a = a_all[key]
        _, b = b_all[key]
        if name in declared:
            lower, bound = declared[name]["better"] == "lower", declared[name]["bound"]
        else:
            lower, bound = not unit.endswith("/s"), declared[ROUND_METRIC]["bound"]
        ma, mb = statistics.median(a.values()), statistics.median(b.values())
        print(f"{workload:<10} {name:<20} {unit:<8} {fmt(list(a.values())):<30} "
              f"{fmt(list(b.values())):<30} {100 * (mb / ma - 1):>+7.1f}%  "
              f"{verdict(a, b, lower, bound)}")

    if traced[0] and traced[1]:
        print()
        print(f"{'workload':<10} {'per-layer metric':<38} {'base':>12} {'new/base':>9}")
        a_all, b_all = by_metric(traced[0], ("metrics",)), by_metric(traced[1], ("metrics",))
        probed = {(r["workload"], name) for r in traced[0] + traced[1]
                  for name in r.get("probed", ())}
        slowest: dict[str, tuple[float, str]] = {}
        for key in sorted(a_all.keys() & b_all.keys()):
            workload, name = key
            unit, a = a_all[key]
            ma, mb = statistics.median(a.values()), statistics.median(b_all[key][1].values())
            ratio = mb / ma if ma else float("nan")
            note = "  (probe)" if key in probed else ""
            print(f"{workload:<10} {name:<38} {ma:>10.4g} {unit:<3} {ratio:>8.3f}{note}")
            if (unit in ("s", "ms") and key not in probed
                    and ratio > slowest.get(workload, (0.0, ""))[0]):
                slowest[workload] = (ratio, name)
        for workload, (ratio, name) in sorted(slowest.items()):
            print(f"# {workload}: slowed most: layer {name.split('.')[0]} ({name}) "
                  f"x{ratio:.3f} of base")
    return 0
