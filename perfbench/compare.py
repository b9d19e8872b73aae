"""Compare two sets of benchmark result files metric by metric.

    python3 perfbench/compare.py --base parent-*.json --head change-*.json

Each file is a record written by `run.py --out FILE`, for one workload or,
with `--workload all`, for every workload.  Give several files per side
(one per seed) to compare medians.  For every workload and metric the
table shows each side's median, the spread between its quartiles as a
share of the median, and the change of the median.  End-to-end metrics
are judged against the bound in BENCHMARK.json: `worse` when the head's
median is worse than the base's by more than the bound, `unresolved` when
either side's own spread is wider than the bound.  Exit code 1 when any
metric is `worse`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        results = record["results"] if "results" in record else {
            record["provenance"]["workload"]: record
        }
        for workload, result in results.items():
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: list[float], head: list[float], spec: dict | None) -> str:
    if spec is None:
        return ""
    b, h = statistics.median(base), statistics.median(head)
    if not b:
        return ""
    change = (h - b) / abs(b)
    worse = change if spec["better"] == "lower" else -change
    bound = spec["bound"]
    if worse > bound:
        return "worse"
    if spread(base) > bound or spread(head) > bound:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True, help="result files of the base")
    p.add_argument("--head", nargs="+", required=True, help="result files of the change")
    args = p.parse_args(argv)
    specs = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    base, head = load(args.base), load(args.head)
    worse = False
    print(f"{'workload':15s} {'metric':40s} {'base':>12s} {'spread':>7s} "
          f"{'head':>12s} {'spread':>7s} {'change':>8s}  verdict")
    for key in sorted(base.keys() & head.keys()):
        b, h = base[key], head[key]
        mb, mh = statistics.median(b), statistics.median(h)
        change = f"{100 * (mh - mb) / abs(mb):+7.1f}%" if mb else "    n/a"
        v = verdict(b, h, specs.get(key[1]))
        worse |= v == "worse"
        print(f"{key[0]:15s} {key[1]:40s} {mb:12.5g} {spread(b):7.3f} "
              f"{mh:12.5g} {spread(h):7.3f} {change}  {v}")
    for key in sorted(base.keys() ^ head.keys()):
        print(f"{key[0]:15s} {key[1]:40s} only in {'base' if key in base else 'head'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
