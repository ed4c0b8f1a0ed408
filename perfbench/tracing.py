"""Layer spans recorded from outside the program.

The benchmark never edits the package: it times each layer by replacing
the layer's public function with a wrapper for the length of the traced
run. A module that imported the function by name holds its own reference
(``repro.sim.parallel.fast_fixed_probability_run``,
``repro.sinr.channel.pairwise_distances``, ...), so :meth:`Tracer.install`
patches every ``repro`` module attribute that *is* the original object,
not only the defining module, and :meth:`Tracer.uninstall` puts every one
of them back.

Spans live in memory as ``[name, start, end, parent, call, trial, attrs]``
lists and are written once, at the end, by :func:`write_trace`. Every
per-layer number the benchmark reports is derived from that file by
:func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Span names of the benchmark's own phases (roots of the trace).
UNTRACED = "bench.untraced"
TRACED = "bench.traced"
CALL = "bench.call"

_DEPLOY = "deploy"
_GEOMETRY = "sinr.geometry"
_BUILD = "sinr.channel.build"
_SINR_RESOLVE = "sinr.channel.resolve"
_RADIO_RESOLVE = "radio.channel.resolve"
_FAST = "sim.fast"
_ENGINE = "sim.engine"
_RUNNER = "sim.runner"
_CLASS_STATS = "obs.probe.class_stats"
_LINKCLASSES = "analysis.linkclasses"
_FINISH = "obs.telemetry.finish"

#: Span names whose end closes one trial (the ``trial`` span field).
_TRIAL_SPANS = (_FAST, _ENGINE)


def _n_squared_bytes(args, kwargs, result) -> Dict[str, int]:
    # Bytes of the float64 (n, n) matrix the layer must produce, computed
    # from n (not measured).
    positions = args[0] if args else kwargs["positions"]
    n = len(positions)
    return {"bytes": 8 * n * n}


def _gain_bytes(args, kwargs, result) -> Dict[str, int]:
    n = args[0].n
    return {"bytes": 8 * n * n}


def _gain_cells(args, kwargs, report) -> Dict[str, int]:
    return {"cells": len(report.transmitters) * len(report.energy)}


def _fast_work(args, kwargs, outcome) -> Dict[str, int]:
    counts = outcome.active_counts
    knockout_rounds = sum(1 for a, b in zip(counts, counts[1:]) if b < a)
    return {"rounds": outcome.rounds_executed, "knockout_rounds": knockout_rounds}


def _engine_work(args, kwargs, trace) -> Dict[str, int]:
    return {"rounds": trace.rounds_executed}


def _probes_bytes(args, kwargs, result) -> Dict[str, int]:
    path = args[0].probes_path
    return {"bytes": path.stat().st_size if path.exists() else 0}


def _targets():
    """``(owner, attribute, span name, attrs function)`` per traced layer."""
    import repro.analysis.linkclasses as linkclasses
    import repro.deploy.topologies as topologies
    import repro.obs.probe as probe
    import repro.sim.fast as fast
    import repro.sim.parallel as parallel
    import repro.sim.runner as runner
    import repro.sinr.geometry as geometry
    from repro.obs.telemetry import TelemetrySession
    from repro.radio.channel import RadioChannel
    from repro.sim.engine import Simulation
    from repro.sinr.channel import SINRChannel

    return (
        (topologies, "uniform_disk", _DEPLOY, None),
        (geometry, "pairwise_distances", _GEOMETRY, _n_squared_bytes),
        (SINRChannel, "__init__", _BUILD, _gain_bytes),
        (SINRChannel, "resolve", _SINR_RESOLVE, _gain_cells),
        (RadioChannel, "resolve", _RADIO_RESOLVE, None),
        (fast, "fast_fixed_probability_run", _FAST, _fast_work),
        (Simulation, "run", _ENGINE, _engine_work),
        (runner, "run_trials", _RUNNER, None),
        (parallel, "run_fast_trials", _RUNNER, None),
        (probe, "link_class_round_stats", _CLASS_STATS, None),
        (linkclasses, "link_class_partition", _LINKCLASSES, None),
        (TelemetrySession, "finish", _FINISH, _probes_bytes),
    )


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self.call = -1
        self.trial = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.call, self.trial, None])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if attrs is not None:
                tracer.spans[index][6] = attrs(args, kwargs, result)
            if name in _TRIAL_SPANS:
                tracer.trial += 1
            return result

        return traced

    def install(self) -> None:
        """Patch every module attribute bound to a traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == "repro" or key.startswith("repro."))
        ]
        for owner, attribute, name, attrs in _targets():
            original = vars(owner)[attribute]
            wrapper = self.wrap(name, original, attrs)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [
                    module
                    for module in modules
                    if module is not owner and vars(module).get(attribute) is original
                ]
            for holder in holders:
                self._patches.append((holder, attribute, original))
                setattr(holder, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            holder, attribute, original = self._patches.pop()
            setattr(holder, attribute, original)


def write_trace(path: Path, spans: List[list], meta: Dict) -> None:
    """Write the spans once; the file is the source of every layer metric."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ["name", "start", "end", "parent", "call", "trial", "attrs"]
    with open(path, "w") as handle:
        json.dump({"meta": meta, "fields": fields, "spans": spans}, handle)


def layer_metrics(path: Path) -> Dict[str, float]:
    """Per-layer metrics derived from a trace file.

    Busy time is a span's duration; self time is its duration minus its
    direct children's (spans of one thread nest, so children never
    overlap). Only spans under the traced phase count; the untraced
    phase contributes its call wall time to ``trace.overhead_frac``.
    """
    with open(path) as handle:
        spans = json.load(handle)["spans"]

    duration = [end - start for _, start, end, *_ in spans]
    child_time = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += duration[index]

    phase_of = [None] * len(spans)
    for index, span in enumerate(spans):
        parent = span[3]
        phase_of[index] = span[0] if parent < 0 else phase_of[parent]

    count = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    work = defaultdict(float)
    wall = {UNTRACED: 0.0, TRACED: 0.0}
    for index, (name, _, _, _, _, _, attrs) in enumerate(spans):
        if name == CALL:
            wall[phase_of[index]] += duration[index]
        if phase_of[index] != TRACED:
            continue
        count[name] += 1
        busy[name] += duration[index]
        own[name] += duration[index] - child_time[index]
        for key, value in (attrs or {}).items():
            work[f"{name}.{key}"] += value

    def rate(numerator: float, seconds: float) -> float:
        return numerator / seconds if seconds > 0.0 else 0.0

    traced_wall = wall[TRACED]
    untraced_wall = wall[UNTRACED]
    return {
        "deploy.calls": count[_DEPLOY],
        "deploy.busy_s": busy[_DEPLOY],
        "sinr.geometry.calls": count[_GEOMETRY],
        "sinr.geometry.busy_s": busy[_GEOMETRY],
        "sinr.geometry.bytes_computed": work[f"{_GEOMETRY}.bytes"],
        "sinr.channel.build_calls": count[_BUILD],
        "sinr.channel.build_self_s": own[_BUILD],
        "sinr.channel.gain_bytes_computed": work[f"{_BUILD}.bytes"],
        "sinr.channel.resolve_calls": count[_SINR_RESOLVE],
        "sinr.channel.resolve_busy_s": busy[_SINR_RESOLVE],
        "sinr.channel.gain_cells": work[f"{_SINR_RESOLVE}.cells"],
        "radio.channel.resolve_calls": count[_RADIO_RESOLVE],
        "radio.channel.resolve_busy_s": busy[_RADIO_RESOLVE],
        "sim.fast.calls": count[_FAST],
        "sim.fast.self_s": own[_FAST],
        "sim.fast.rounds": work[f"{_FAST}.rounds"],
        "sim.fast.rounds_per_s": rate(work[f"{_FAST}.rounds"], busy[_FAST]),
        "sim.fast.knockout_round_frac": rate(
            work[f"{_FAST}.knockout_rounds"], work[f"{_FAST}.rounds"]
        ),
        "sim.engine.calls": count[_ENGINE],
        "sim.engine.self_s": own[_ENGINE],
        "sim.engine.rounds": work[f"{_ENGINE}.rounds"],
        "sim.engine.rounds_per_s": rate(work[f"{_ENGINE}.rounds"], busy[_ENGINE]),
        "sim.runner.self_s": own[_RUNNER],
        "obs.probe.class_stats_calls": count[_CLASS_STATS],
        "obs.probe.class_stats_s": busy[_CLASS_STATS],
        "analysis.linkclasses.busy_s": busy[_LINKCLASSES],
        "obs.telemetry.finish_s": busy[_FINISH],
        "obs.telemetry.probes_bytes": work[f"{_FINISH}.bytes"],
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": rate(traced_wall - untraced_wall, untraced_wall),
    }
