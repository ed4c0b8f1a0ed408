#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fresh_deploy --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``trials_per_s``, ``setup_s`` (median over several fresh processes),
``peak_rss_mb`` and ``solved_frac``. ``--trace 1`` makes the separate
traced run and reports the per-layer metrics derived from its span file.
Every result is also appended, with the host fingerprint, to
``.perfbench/results.jsonl``; ``perfbench/compare.py`` compares two such
files. ``--write-reference`` re-records ``perfbench/reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics and
their units are the ones ``BENCHMARK.json`` declares. The program under
test is imported from ``./src``; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fresh_deploy", "shared_deploy", "engine_mix", "probed_fast")

#: Fresh processes whose set-up time is measured per ``--trace 0`` run
#: (the measuring process included); ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Wall-clock limit for the whole run, children included.
TIME_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


class Children:
    """Runs ``worker.py`` processes one at a time under one deadline."""

    def __init__(self, root: Path, deadline: float) -> None:
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        # Whether the kernel grants numpy's huge-page requests depends on
        # the host's memory fragmentation at the moment, and moves the
        # fast path's speed by ~30% between otherwise identical runs.
        self.env["NUMPY_MADVISE_HUGEPAGE"] = "0"
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def run(self, *worker_args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchmarkError("out of time before starting a worker")
        command = [sys.executable, str(HERE / "worker.py"), *worker_args]
        command += ["--t0", repr(time.monotonic())]
        try:
            completed = subprocess.run(
                command,
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"worker timed out: {' '.join(worker_args)}") from exc
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise BenchmarkError(
                f"worker exited {completed.returncode}: {' '.join(worker_args)}"
            )
        lines = completed.stdout.strip().splitlines()
        if not lines:
            raise BenchmarkError("worker printed no result")
        return json.loads(lines[-1])


def host_fingerprint() -> dict:
    """What must match for two results to be comparable."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0))}


def git_sha(root: Path):
    """HEAD's SHA read from ``.git`` directly (``None`` outside a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def end_to_end(children: Children, args, scratch: Path):
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scratch", str(scratch)]
    measured = children.run(*common, "--mode", "measure", "--seconds", str(args.seconds))
    setups = [measured["setup_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(children.run(*common, "--mode", "setup")["setup_s"])
    attempted = measured["attempted"]
    metrics = {
        "trials_per_s": statistics.median(
            trials / seconds for trials, seconds in measured["windows"]
        ),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        "solved_frac": (attempted - measured["failed"]) / attempted,
    }
    return measured, metrics


def per_layer(children: Children, args, scratch: Path):
    import tracing

    trace_file = scratch / f"trace-{args.workload}-seed{args.seed}.json"
    traced = children.run(
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scratch", str(scratch),
        "--mode", "trace",
        "--seconds", str(args.seconds),
        "--trace-file", str(trace_file),
    )
    return traced, tracing.layer_metrics(trace_file)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no ./src/repro here; run from the repository root", file=sys.stderr)
        return 2
    scratch = root / ".perfbench"
    children = Children(root, time.monotonic() + TIME_LIMIT_S)
    try:
        if args.write_reference:
            for workload in WORKLOADS:
                children.run(
                    "--workload", workload, "--scratch", str(scratch), "--write-reference"
                )
            print(f"wrote {HERE / 'reference.json'}")
            return 0
        spec = json.loads((root / "BENCHMARK.json").read_text())
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        collect = per_layer if args.trace else end_to_end
        report, values = collect(children, args, scratch)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    host = dict(host_fingerprint(), python=report["python"], numpy=report["numpy"])
    for note in report["notes"]:
        print(f"check failed: {note}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "git_sha": git_sha(root),
        "result": result,
    }
    scratch.mkdir(parents=True, exist_ok=True)
    with open(scratch / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(f"host: {json.dumps(host)} git_sha: {record['git_sha']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
