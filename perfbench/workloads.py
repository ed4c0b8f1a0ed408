"""The benchmark's workloads: inputs from a seed, calls into the public API.

Each workload is an endless, deterministic schedule of calls into
``repro``'s public API. Call ``k`` draws its trials from the seed tree
``(seed, k)``; fixed inputs (a shared deployment) are generated from the
seed before timing starts. All runs are serial (``workers=1`` and, for
the fast path, ``batch=1`` passed explicitly), with ``p = 0.1`` and
``alpha = 3`` as in E3/E17.

The public functions are looked up on the ``repro`` package at call time,
so the traced run's patches (see ``tracing.py``) see every call.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro

P = 0.1
PARAMS = repro.SINRParameters(alpha=3.0)


def budget(n: int) -> int:
    """The round budget E3 and E17 give each trial."""
    return 40 * repro.high_probability_budget(n)


@dataclass(frozen=True)
class RadioFactory:
    """Channel factory for the classical radio channel on ``n`` nodes."""

    n: int

    def __call__(self, rng) -> object:
        return repro.RadioChannel(self.n)


@dataclass
class CallResult:
    """One call's trials, as the checks need them."""

    n: int
    trials: int
    rounds: List[int]
    failures: int
    rounds_executed: int
    #: The probing telemetry session the call ran in, if any.
    session: Optional[object] = None
    #: Trials that failed a workload-specific output check.
    check_failures: int = 0
    notes: List[str] = field(default_factory=list)


def _seeded_deployment(seed: int, n: int):
    """A uniform-disk deployment drawn from the seed, as a shared-channel factory."""
    positions = repro.uniform_disk(n, repro.generator_from((seed, n)))
    return repro.StaticDeploymentFactory(positions, params=PARAMS)


class Workload:
    """Base class: ``calls_per_cycle`` calls make one full cycle of the mix."""

    name = ""
    calls_per_cycle = 1
    trials_per_call = 1
    #: Nominal seconds per cycle on a 2-core x86 host; sizes the traced
    #: run, which executes a fixed number of cycles so its counts repeat.
    cycle_seconds = 1.0
    fast_path = False
    #: Calls replayed on the reference seed.
    reference_calls = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def run(self, k: int) -> CallResult:
        raise NotImplementedError

    def check(self, result: CallResult) -> None:
        """Post-call output checks outside the timed section."""

    @staticmethod
    def _result(n: int, stats, session=None) -> CallResult:
        return CallResult(
            n=n,
            trials=stats.trials,
            rounds=list(stats.rounds),
            failures=stats.failures,
            rounds_executed=stats.total_rounds_executed,
            session=session,
        )


class FreshDeploy(Workload):
    """E17's shape: a fresh uniform-disk deployment per trial."""

    name = "fresh_deploy"
    calls_per_cycle = 3
    cycle_seconds = 2.0
    fast_path = True
    reference_calls = 3
    sizes = (1024, 2048, 4096)

    def run(self, k: int) -> CallResult:
        n = self.sizes[k % len(self.sizes)]
        stats = repro.run_fast_trials(
            repro.UniformDiskFactory(n, params=PARAMS),
            P,
            trials=self.trials_per_call,
            seed=(self.seed, k),
            max_rounds=budget(n),
            workers=1,
            batch=1,
        )
        return self._result(n, stats)


class SharedDeploy(Workload):
    """One deployment from the seed, many trials on its channel."""

    name = "shared_deploy"
    cycle_seconds = 1.6
    fast_path = True
    n = 2048
    trials_per_call = 250

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.factory = _seeded_deployment(seed, self.n)

    def run(self, k: int) -> CallResult:
        stats = repro.run_fast_trials(
            self.factory,
            P,
            trials=self.trials_per_call,
            seed=(self.seed, k),
            max_rounds=budget(self.n),
            workers=1,
            batch=1,
        )
        return self._result(self.n, stats)


class EngineMix(Workload):
    """E3/E11's shape: protocol callbacks on the generic engine."""

    name = "engine_mix"
    calls_per_cycle = 8
    cycle_seconds = 0.45
    reference_calls = 8
    sizes = (128, 512)
    trials_per_call = 3

    @staticmethod
    def lineup(n: int):
        sinr = repro.UniformDiskFactory(n, params=PARAMS)
        radio = RadioFactory(n)
        return (
            (repro.FixedProbabilityProtocol(p=P), sinr),
            (repro.JurdzinskiStachowiakProtocol(), sinr),
            (repro.DecayProtocol(), radio),
            (repro.SlottedAlohaProtocol(), radio),
        )

    def run(self, k: int) -> CallResult:
        n = self.sizes[(k // 4) % len(self.sizes)]
        protocol, factory = self.lineup(n)[k % 4]
        stats = repro.run_trials(
            factory,
            protocol,
            trials=self.trials_per_call,
            seed=(self.seed, k),
            max_rounds=budget(n),
            workers=1,
        )
        return self._result(n, stats)


class ProbedFast(Workload):
    """``shared_deploy``'s shape at n=1024 inside a probing telemetry session."""

    name = "probed_fast"
    cycle_seconds = 1.1
    fast_path = True
    n = 1024
    trials_per_call = 20

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.factory = _seeded_deployment(seed, self.n)

    def run(self, k: int) -> CallResult:
        directory = self.scratch / f"session-{self.seed}-{k}"
        # Exactly what ``--telemetry-dir DIR --probes`` installs.
        with repro.TelemetrySession(directory, probes=True) as session:
            stats = repro.run_fast_trials(
                self.factory,
                P,
                trials=self.trials_per_call,
                seed=(self.seed, k),
                max_rounds=budget(self.n),
                workers=1,
                batch=1,
            )
        return self._result(self.n, stats, session)

    def check(self, result: CallResult) -> None:
        session = result.session
        try:
            executions = session.probe_recorder.executions_recorded
            if executions != result.trials:
                result.notes.append(
                    f"probes recorded {executions} executions of {result.trials} trials"
                )
            recorded = session.probe_recorder.rounds_recorded
            if recorded != result.rounds_executed:
                result.notes.append(
                    f"probes recorded {recorded} rounds, "
                    f"trials executed {result.rounds_executed}"
                )
            with open(session.events_path) as handle:
                events = [json.loads(line) for line in handle if line.strip()]
            warnings = [e for e in events if e.get("event") == "warning"]
            if warnings:
                result.notes.append(f"{len(warnings)} warning events: {warnings[0]}")
            if result.notes:
                result.check_failures = result.trials
        finally:
            # Drop the session: its recorder holds every probe row.
            result.session = None
            shutil.rmtree(session.directory, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (FreshDeploy, SharedDeploy, EngineMix, ProbedFast)
}


def mean_bound_failures(
    workload: Workload, rounds_by_n: Dict[int, List[int]]
) -> List[Tuple[int, str]]:
    """E17's bound on the fast workloads: mean rounds <= 2 log2 n at each n.

    Returns ``(n, message)`` for every size whose mean breaks the bound.
    """
    if not workload.fast_path:
        return []
    failures = []
    for n, rounds in sorted(rounds_by_n.items()):
        mean = sum(rounds) / len(rounds) if rounds else 0.0
        if mean > 2 * math.log2(n):
            failures.append(
                (n, f"n={n}: mean rounds {mean:.2f} > 2 log2 n = {2 * math.log2(n):.2f}")
            )
    return failures
