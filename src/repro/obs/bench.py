"""Machine-readable core benchmarks: the source of ``BENCH_core.json``.

``pytest benchmarks/ --benchmark-only`` is great interactively but its
output is not a stable artefact. This harness times the library's hot
paths directly and writes one JSON record per run, so the repo carries a
perf trajectory that ``tools/bench_diff.py`` can regress against::

    PYTHONPATH=src python -m repro.obs.bench --output BENCH_core.json

Record format (``repro-bench`` version 1)::

    {
        "format": "repro-bench",
        "version": 1,
        "created_at": "...",
        "environment": {...},            # platform + versions + git SHA
        "benchmarks": {
            "<name>": {
                "wall_time_s": 0.0123,   # best-of-repeats per call
                "mean_s": 0.0130,
                "repeats": 5,
                "rounds": 41,            # execution benchmarks only
                "rounds_per_sec": 3300.0,
                "peak_active": 256
            }
        }
    }

Timing policy: each benchmark is repeated ``--repeats`` times and the
**minimum** is reported (least-noise estimator for a deterministic
workload); the mean rides along for jitter visibility. Benchmarks are
seeded, so the work is identical run to run and machine to machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.manifest import collect_environment, collect_git_sha

__all__ = [
    "BENCH_FORMAT",
    "BENCH_VERSION",
    "core_benchmarks",
    "run_benchmarks",
    "write_bench_record",
    "load_bench_record",
    "main",
]

PathLike = Union[str, Path]

BENCH_FORMAT = "repro-bench"
BENCH_VERSION = 1

#: A benchmark body: runs the workload once and returns extra stats
#: (``rounds``, ``peak_active``) or an empty dict.
BenchFn = Callable[[], Dict[str, float]]


def _setup(n: int):
    """Deterministic shared fixtures (positions + channel) for one size."""
    from repro.deploy.topologies import uniform_disk
    from repro.sim.seeding import generator_from
    from repro.sinr.channel import SINRChannel

    positions = uniform_disk(n, generator_from(1001))
    return positions, SINRChannel(positions)


def core_benchmarks(
    n: int = 512,
    fast_n: int = 2048,
    parallel_trials: int = 32,
) -> List[Tuple[str, BenchFn]]:
    """The named hot-path benchmarks, mirroring bench_core_microbenchmarks.

    ``n`` sizes the generic-engine workloads and the gain-matrix build;
    ``fast_n`` sizes the vectorised fast-path execution and the other
    setup layers, ``deployment_sampling`` (``uniform_disk``) and
    ``pairwise_distances`` (kept larger because that is the
    scaling-study regime it exists for). ``parallel_trials`` sizes the
    ``parallel_trials_w{1,2,4}`` scaling benchmarks — the same large-``n``
    fast-path trial batch sharded over 1/2/4 worker processes
    (:mod:`repro.sim.parallel`), so the record tracks parallel speedup
    over time. Those entries carry ``workers`` and ``cpu_count``; the
    w4/w1 wall-time ratio is only meaningful relative to ``cpu_count``
    (a 1-core machine correctly reports ~1x), which is why
    ``tools/bench_diff.py`` reports but never gates it. Tests shrink all
    the knobs.
    """
    from repro.analysis.linkclasses import link_class_partition
    from repro.deploy.topologies import uniform_disk
    from repro.protocols.simple import FixedProbabilityProtocol
    from repro.sim.engine import Simulation
    from repro.sim.fast import fast_fixed_probability_run
    from repro.sim.seeding import generator_from
    from repro.sinr.channel import SINRChannel
    from repro.sinr.geometry import pairwise_distances

    positions, channel = _setup(n)
    fast_positions, fast_channel = _setup(fast_n)
    resolve_rng = generator_from(1002)
    transmitters = sorted(
        resolve_rng.choice(n, size=max(1, n // 10), replace=False).tolist()
    )
    distances = pairwise_distances(positions)

    def gain_matrix_construction() -> Dict[str, float]:
        SINRChannel(positions)
        return {}

    def deployment_sampling() -> Dict[str, float]:
        uniform_disk(fast_n, generator_from(1001))
        return {}

    def pairwise_distances_cost() -> Dict[str, float]:
        pairwise_distances(fast_positions)
        return {}

    def single_round_resolve() -> Dict[str, float]:
        # One resolve is ~tens of microseconds at n=512; batch it so the
        # clock sees real work, then report per-call time via "calls".
        calls = 50
        for _ in range(calls):
            channel.resolve(transmitters)
        return {"calls": calls}

    def full_execution_engine() -> Dict[str, float]:
        nodes = FixedProbabilityProtocol(p=0.1).build(channel.n)
        trace = Simulation(
            channel,
            nodes,
            rng=generator_from(1003),
            max_rounds=50_000,
            keep_records=False,
        ).run()
        return {
            "rounds": trace.rounds_executed,
            "peak_active": channel.n,
            "solved": trace.solved,
        }

    def fast_path_execution() -> Dict[str, float]:
        result = fast_fixed_probability_run(
            fast_channel, p=0.1, rng=generator_from(1004), max_rounds=50_000
        )
        return {
            "rounds": result.rounds_executed,
            "peak_active": max(result.active_counts, default=0),
            "solved": result.solved,
        }

    def fast_path_execution_probes() -> Dict[str, float]:
        # The identical workload with the round-level flight recorder on
        # (recorder subscribed, no monitors) — committing both entries to
        # BENCH_core.json keeps the probes-enabled overhead an explicit,
        # tracked number and lets the gate watch the disabled path.
        from repro.obs.probe import ProbeBus, ProbeRecorder, set_probe_bus

        bus = ProbeBus(enabled=True)
        recorder = ProbeRecorder()
        bus.subscribe(recorder)
        previous = set_probe_bus(bus)
        try:
            result = fast_fixed_probability_run(
                fast_channel, p=0.1, rng=generator_from(1004), max_rounds=50_000
            )
        finally:
            set_probe_bus(previous)
        return {
            "rounds": result.rounds_executed,
            "peak_active": max(result.active_counts, default=0),
            "solved": result.solved,
            "probe_rounds": recorder.rounds_recorded,
        }

    def link_class_partition_cost() -> Dict[str, float]:
        import numpy as np

        partition = link_class_partition(distances, np.ones(n, dtype=bool))
        return {"classes": len(set(partition.class_of))}

    import os

    from repro.sim.parallel import StaticDeploymentFactory, run_fast_trials

    parallel_factory = StaticDeploymentFactory(fast_positions)

    def parallel_trials_bench(workers: int) -> BenchFn:
        def bench() -> Dict[str, float]:
            stats = run_fast_trials(
                parallel_factory,
                p=0.1,
                trials=parallel_trials,
                seed=1005,
                max_rounds=50_000,
                workers=workers,
            )
            return {
                "rounds": stats.total_rounds_executed,
                "trials": stats.trials,
                "workers": workers,
                "cpu_count": os.cpu_count() or 1,
            }

        return bench

    return [
        ("deployment_sampling", deployment_sampling),
        ("pairwise_distances", pairwise_distances_cost),
        ("gain_matrix_construction", gain_matrix_construction),
        ("single_round_resolve", single_round_resolve),
        ("full_execution_engine", full_execution_engine),
        ("fast_path_execution", fast_path_execution),
        ("fast_path_execution_probes", fast_path_execution_probes),
        ("link_class_partition", link_class_partition_cost),
        ("parallel_trials_w1", parallel_trials_bench(1)),
        ("parallel_trials_w2", parallel_trials_bench(2)),
        ("parallel_trials_w4", parallel_trials_bench(4)),
    ]


def run_benchmarks(
    benchmarks: List[Tuple[str, BenchFn]], repeats: int = 5
) -> Dict[str, Dict[str, object]]:
    """Time each benchmark ``repeats`` times; report best/mean per call."""
    if repeats < 1:
        raise ValueError(f"repeats must be positive (got {repeats})")
    results: Dict[str, Dict[str, object]] = {}
    for name, fn in benchmarks:
        times: List[float] = []
        extra: Dict[str, float] = {}
        for _ in range(repeats):
            started = time.perf_counter()
            extra = fn() or {}
            times.append(time.perf_counter() - started)
        calls = int(extra.pop("calls", 1))
        best = min(times) / calls
        mean = (sum(times) / len(times)) / calls
        entry: Dict[str, object] = {
            "wall_time_s": best,
            "mean_s": mean,
            "repeats": repeats,
        }
        rounds = extra.pop("rounds", None)
        if rounds is not None:
            entry["rounds"] = int(rounds)
            entry["rounds_per_sec"] = float(rounds) / best if best > 0 else None
        trials = extra.get("trials")
        if trials is not None:
            # Per-trial throughput for the multi-trial benchmarks.
            entry["trials_per_sec"] = float(trials) / best if best > 0 else None
        for key, value in extra.items():
            entry[key] = value
        results[name] = entry
    return results


def write_bench_record(
    benchmarks: Dict[str, Dict[str, object]], path: PathLike
) -> Dict[str, object]:
    """Write a ``repro-bench`` document wrapping per-benchmark results."""
    environment = collect_environment()
    environment["git_sha"] = collect_git_sha() or "unknown"
    document = {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "environment": environment,
        "benchmarks": benchmarks,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, default=str)
        handle.write("\n")
    return document


def load_bench_record(path: PathLike) -> Dict[str, object]:
    """Load and validate a ``repro-bench`` document."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or document.get("format") != BENCH_FORMAT:
        raise ValueError(f"{path}: not a {BENCH_FORMAT} file")
    if document.get("version") != BENCH_VERSION:
        raise ValueError(
            f"{path}: unsupported bench version {document.get('version')!r}"
        )
    if not isinstance(document.get("benchmarks"), dict):
        raise ValueError(f"{path}: missing benchmarks mapping")
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="Time the core hot paths and write a BENCH_core.json record.",
    )
    parser.add_argument(
        "--output", "-o", default="BENCH_core.json", help="output JSON path"
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats per benchmark"
    )
    parser.add_argument(
        "--n", type=int, default=512, help="node count for engine benchmarks"
    )
    parser.add_argument(
        "--fast-n", type=int, default=2048, help="node count for the fast path"
    )
    parser.add_argument(
        "--parallel-trials",
        type=int,
        default=32,
        help="trial count for the parallel_trials_w{1,2,4} scaling benchmarks",
    )
    args = parser.parse_args(argv)

    results = run_benchmarks(
        core_benchmarks(
            n=args.n,
            fast_n=args.fast_n,
            parallel_trials=args.parallel_trials,
        ),
        repeats=args.repeats,
    )
    write_bench_record(results, args.output)
    width = max(len(name) for name in results)
    for name, entry in results.items():
        rps = entry.get("rounds_per_sec")
        suffix = f"  {rps:12.0f} rounds/s" if rps else ""
        print(f"{name:<{width}}  {entry['wall_time_s'] * 1e3:10.3f} ms{suffix}")
    print(f"record written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
