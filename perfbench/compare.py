#!/usr/bin/env python3
"""Compare two sets of benchmark results against the benchmark's bounds.

Usage, from the repository root::

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records ``run.py`` appends to
``.perfbench/results.jsonl``. For every workload measured with tracing off
in both files, each end-to-end metric's median is compared with the
``bound`` that ``BENCHMARK.json`` fixes for it. Results whose host
fingerprints (CPU model, ``nproc``, Python and numpy versions) differ are
reported as "not comparable", never as regressions.

Exit status: 0 no regression, 1 a regression, 2 unreadable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: Path):
    by_workload = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == 0:
                    by_workload[record["workload"]].append(record)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
        base, change = load(Path(argv[0])), load(Path(argv[1]))
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2

    regressions = 0
    for workload in sorted(set(base) & set(change)):
        hosts = {json.dumps(r["host"], sort_keys=True) for r in base[workload] + change[workload]}
        if len(hosts) > 1:
            print(f"{workload}: not comparable, host fingerprints differ: {sorted(hosts)}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = [r["result"]["metrics"][name]["value"] for r in base[workload]]
            new = [r["result"]["metrics"][name]["value"] for r in change[workload]]
            old_q, new_q = quartiles(old), quartiles(new)
            worse = (new_q[1] - old_q[1]) / old_q[1]
            if metric["better"] == "higher":
                worse = -worse
            verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            regressions += verdict != "ok"
            print(
                f"{workload:14s} {name:14s} base {old_q[1]:.5g} [{old_q[0]:.5g}, {old_q[2]:.5g}] "
                f"(n={len(old)})  change {new_q[1]:.5g} [{new_q[0]:.5g}, {new_q[2]:.5g}] "
                f"(n={len(new)})  worse by {worse:+.1%} (bound {metric['bound']:.0%})  {verdict}"
            )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
