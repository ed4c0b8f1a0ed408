"""One benchmark process: set up, run one workload, check, report.

Started by ``run.py`` (never by hand) with ``PYTHONPATH`` pointing at the
checkout's ``src``, one fresh process per measurement so that the peak
RSS and the import cost it reports are this workload's alone. Modes:

``setup``
    Import, generate the workload's fixed inputs from the seed, report
    ``setup_s`` (``--t0`` is the parent's monotonic clock just before it
    started this process) and exit.
``measure``
    Set up, then run whole cycles of the workload's calls until
    ``--seconds`` have passed, tracing off. Reports the trials and the
    seconds spent inside the calls per cycle, the peak RSS and the check
    tallies.
``trace``
    Run one warm-up cycle, then a fixed number of cycles (about half of
    ``--seconds`` at the workload's nominal cycle time), each once
    untraced and once with every layer wrapped (``tracing.py``), and
    write the spans to the file named by ``--trace-file``. The work is a
    function of the seed and ``--seconds`` only, so counts repeat.

Every mode except ``setup`` ends with the reference check: the first
calls on :data:`REFERENCE_SEED` must reproduce ``reference.json``'s
per-trial rounds exactly (the seed tree's bit-exactness promise). The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEED = 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), default="measure")
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path, default=None)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record the reference fingerprint instead of checking it",
    )
    return parser.parse_args(argv)


class Globals:
    """The process-wide telemetry globals, restored after every call.

    Outside ``probed_fast``'s own session, telemetry must be off; a call
    that leaves a registry, sink or probe bus installed fails its trials.
    """

    def __init__(self) -> None:
        import repro.obs as obs

        self.obs = obs
        self.saved = (obs.get_registry(), obs.get_sink(), obs.get_probe_bus())
        if self.saved[0].enabled or self.saved[2].enabled:
            raise RuntimeError("telemetry is on before the benchmark started")

    def restore(self) -> bool:
        """Reinstall the saved globals; true if a call had replaced one."""
        obs = self.obs
        current = (obs.get_registry(), obs.get_sink(), obs.get_probe_bus())
        obs.set_registry(self.saved[0])
        obs.set_sink(self.saved[1])
        obs.set_probe_bus(self.saved[2])
        return any(now is not before for now, before in zip(current, self.saved))


class Tally:
    """Trials attempted and failed, and the rounds the checks need."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.rounds_by_n = defaultdict(list)

    def fail(self, trials: int, note: str) -> None:
        self.attempted += trials
        self.failed += trials
        self.notes.append(note)

    def add(self, result, leaked: bool) -> None:
        if leaked:
            result.notes.append("telemetry globals left installed")
            result.check_failures = result.trials
        self.attempted += result.trials
        self.failed += min(result.trials, result.failures + result.check_failures)
        if result.failures:
            result.notes.append(f"{result.failures} trials unsolved within budget")
        self.notes += [f"n={result.n}: {note}" for note in result.notes]
        self.rounds_by_n[result.n].extend(result.rounds)


def run_calls(workload, tally, guard, deadline=None, calls=None, tracer=None, first=0):
    """Run calls ``first, first + 1, ...`` of the workload's schedule.

    With a ``deadline`` the loop stops at the first whole cycle of the
    workload's mix that ends after it; with ``calls`` it stops at call
    index ``calls``.
    Returns ``(calls made, results, windows)``, where ``windows`` holds
    ``[trials, seconds inside the calls]`` per cycle.
    """
    k = first
    results = []
    windows = []
    while True:
        if calls is not None and k >= calls:
            break
        if (k - first) % workload.calls_per_cycle == 0:
            if deadline is not None and k > first and time.perf_counter() >= deadline:
                break
            windows.append([0, 0.0])
        if tracer is not None:
            tracer.call = k
            span = tracer.open("bench.call")
        started = time.perf_counter()
        try:
            result = workload.run(k)
        except Exception:
            result = None
            error = traceback.format_exc(limit=3)
        windows[-1][1] += time.perf_counter() - started
        if tracer is not None:
            tracer.close(span)
        leaked = guard.restore()
        if result is None:
            tally.fail(workload.trials_per_call, f"call {k} raised: {error}")
        else:
            workload.check(result)
            tally.add(result, leaked)
            results.append(result)
            windows[-1][0] += result.trials
        k += 1
    return k, results, windows


def reference_check(workload_cls, scratch, tally, guard, write):
    """Replay the first calls on the reference seed against ``reference.json``."""
    workload = workload_cls(REFERENCE_SEED, scratch)
    _, results, _ = run_calls(workload, tally, guard, calls=workload.reference_calls)
    observed = [{"rounds": r.rounds, "failures": r.failures} for r in results]
    recorded = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    if write:
        recorded[workload.name] = observed
        lines = [f" {json.dumps(name)}: {json.dumps(calls)}" for name, calls in sorted(recorded.items())]
        REFERENCE_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        return
    expected = recorded.get(workload.name)
    if expected is None:
        tally.fail(1, f"no reference fingerprint for {workload.name}")
        return
    for k, (want, got) in enumerate(zip(expected, observed)):
        mismatched = sum(a != b for a, b in zip(want["rounds"], got["rounds"]))
        mismatched += abs(len(want["rounds"]) - len(got["rounds"]))
        if mismatched or want["failures"] != got["failures"]:
            tally.failed += max(mismatched, 1)
            tally.notes.append(
                f"reference call {k}: rounds {got['rounds']} != {want['rounds']}"
            )
    if len(expected) != len(observed):
        tally.fail(1, f"reference has {len(expected)} calls, replayed {len(observed)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads

    import repro

    src = (Path.cwd() / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    args.scratch.mkdir(parents=True, exist_ok=True)
    guard = Globals()
    tally = Tally()
    if args.write_reference:
        reference_check(workload_cls, args.scratch, tally, guard, write=True)
        print(json.dumps({"workload": args.workload, "notes": tally.notes}))
        return 0

    workload = workload_cls(args.seed, args.scratch)
    setup_s = time.monotonic() - args.t0 if args.t0 is not None else None
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = {"setup_s": setup_s}
    if args.mode == "measure":
        calls, _, windows = run_calls(
            workload, tally, guard, deadline=time.perf_counter() + args.seconds
        )
        report.update(
            calls=calls,
            windows=windows,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    else:
        import tracing

        # One untimed cycle first, so lazy imports and allocator growth do
        # not land on the untraced phase alone.
        run_calls(workload, tally, guard, calls=workload.calls_per_cycle)
        tracer = tracing.Tracer()
        per_cycle = workload.calls_per_cycle
        cycles = max(1, round(args.seconds / 2 / workload.cycle_seconds))
        # Each cycle runs untraced, then traced: alternating cancels the
        # host's drift out of trace.overhead_frac.
        for cycle in range(cycles):
            first, calls = cycle * per_cycle, (cycle + 1) * per_cycle
            root = tracer.open(tracing.UNTRACED)
            run_calls(workload, tally, guard, calls=calls, tracer=tracer, first=first)
            tracer.close(root)
            tracer.install()
            try:
                root = tracer.open(tracing.TRACED)
                run_calls(workload, tally, guard, calls=calls, tracer=tracer, first=first)
                tracer.close(root)
            finally:
                tracer.uninstall()
        tracing.write_trace(
            args.trace_file,
            tracer.spans,
            {"workload": args.workload, "seed": args.seed, "cycles": cycles},
        )
        report.update(cycles=cycles, trace_file=str(args.trace_file))

    for n, note in workloads.mean_bound_failures(workload, tally.rounds_by_n):
        tally.failed += len(tally.rounds_by_n[n])
        tally.notes.append(note)
    reference_check(workload_cls, args.scratch, tally, guard, write=False)

    import numpy

    report.update(
        attempted=tally.attempted,
        failed=min(tally.failed, tally.attempted),
        notes=tally.notes,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
