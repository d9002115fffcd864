"""Compare two benchmark result files under the bounds in BENCHMARK.json.

Usage::

    python3 bench/compare.py BASE.json CHANGE.json

Both files are ``bench/run.py --out`` records.  For every (workload,
end-to-end metric) present in both, the verdict is:

* ``worse`` — CHANGE's median is worse than BASE's by more than the bound;
* ``unresolved`` — either side's run-to-run spread (the distance between
  its quartiles, as a share of its median) is wider than the bound, unless
  every CHANGE run reads better than every BASE run (then ``better``);
* ``better`` — CHANGE's median is better by more than either side's spread;
* ``same`` — otherwise.

With a single run on either side the spread is unknown and only the bound
decides.  Per-layer metrics of traced runs are listed with their relative
change for attribution, without a verdict.  Exits 1 if any verdict is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values: list) -> float | None:
    """Interquartile distance as a share of the median (None below 2 runs)."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def gain(base: float, change: float, better: str) -> float:
    """Relative improvement of ``change`` over ``base`` (negative = worse)."""
    if base == 0:
        return 0.0
    delta = (change - base) / abs(base)
    return delta if better == "higher" else -delta


def verdict(base: list, change: list, better: str, bound: float) -> tuple:
    improvement = gain(statistics.median(base), statistics.median(change), better)
    spreads = [s for s in (spread(base), spread(change)) if s is not None]
    if improvement < -bound:
        return "worse", improvement, spreads
    if len(spreads) < 2:
        return ("better" if improvement > bound else "same"), improvement, spreads
    if max(spreads) > bound:
        all_better = all(gain(b, c, better) > 0 for b in base for c in change)
        return ("better" if all_better else "unresolved"), improvement, spreads
    return ("better" if improvement > max(spreads) else "same"), improvement, spreads


def values_by_key(record: dict, traced: bool) -> dict:
    table: dict = {}
    for run in record["runs"]:
        if bool(run["trace"]) != traced:
            continue
        for name, metric in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(metric["value"])
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(SPEC) as handle:
        spec = json.load(handle)
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.change) as handle:
        change = json.load(handle)

    worse = False
    print(
        f"{'workload':16s} {'metric':28s} {'base':>12s} {'change':>12s} {'gain':>8s} "
        f"{'spread':>13s}  verdict"
    )
    base_plain, change_plain = values_by_key(base, False), values_by_key(change, False)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base_plain or key not in change_plain:
                continue
            outcome, improvement, spreads = verdict(
                base_plain[key], change_plain[key], metric["better"], metric["bound"]
            )
            worse |= outcome == "worse"
            shown = "/".join(f"{s:.3f}" for s in spreads) or "-"
            b, c = statistics.median(base_plain[key]), statistics.median(change_plain[key])
            print(
                f"{workload:16s} {metric['name']:28s} {b:12.5g} {c:12.5g} "
                f"{improvement:+8.2%} {shown:>13s}  {outcome}"
            )
    base_traced, change_traced = values_by_key(base, True), values_by_key(change, True)
    for workload in workloads:
        for metric in spec["per_layer"]:
            key = (workload, metric["name"])
            if key not in base_traced or key not in change_traced:
                continue
            b, c = statistics.median(base_traced[key]), statistics.median(change_traced[key])
            print(
                f"{workload:16s} {metric['name']:28s} {b:12.5g} {c:12.5g} "
                f"{gain(b, c, metric['better']):+8.2%} {'-':>13s}  info"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
