"""Multi-trial experiment runner.

Every quantitative claim in the paper is "with high probability", so a
single execution proves nothing — experiments repeat executions over
independently seeded trials and summarise the distribution of solving
rounds. :func:`run_trials` is the one entry point all experiments and
benchmarks share, and :func:`execute_trial` picks each trial's runner:
a :class:`~repro.protocols.base.ScheduleProtocol` runs on the vectorised
loop (:func:`repro.sim.fast.run_schedule`) unless traces are kept;
everything else runs on the engine (:class:`repro.sim.engine.Simulation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from repro.protocols.base import ProtocolFactory, ScheduleProtocol
from repro.sim.engine import Simulation
from repro.sim.fast import FastRunResult, run_schedule
from repro.sim.seeding import SeedLike
from repro.sim.trace import ExecutionTrace

__all__ = [
    "TrialStats",
    "execute_trial",
    "run_trials",
    "high_probability_budget",
]

#: Builds a fresh channel for one trial. Receives the trial's generator so
#: stochastic deployments are resampled per trial; deterministic workloads
#: may ignore it and return a shared channel.
ChannelFactory = Callable[[np.random.Generator], object]


@dataclass
class TrialStats:
    """Distribution summary of solving rounds over a batch of trials.

    ``rounds`` holds the per-trial solving round counts (1-based) for the
    trials that solved; ``failures`` counts trials that exhausted the round
    budget. Summary statistics are over the solved trials only and are
    ``nan`` when nothing solved.
    """

    protocol_name: str
    trials: int
    rounds: List[int]
    failures: int
    traces: Optional[List[ExecutionTrace]] = None
    #: Wall-clock seconds spent executing all trials (simulation only —
    #: channel construction inside the factory is included deliberately,
    #: since stochastic deployments resample per trial).
    total_wall_time: float = 0.0
    #: Rounds executed across every trial, solved or not — the
    #: denominator-independent measure of channel work performed.
    total_rounds_executed: int = 0

    @property
    def solve_rate(self) -> float:
        """Fraction of trials that solved within the budget."""
        if self.trials == 0:
            return float("nan")
        return len(self.rounds) / self.trials

    @property
    def mean_rounds(self) -> float:
        return float(np.mean(self.rounds)) if self.rounds else float("nan")

    @property
    def median_rounds(self) -> float:
        return float(np.median(self.rounds)) if self.rounds else float("nan")

    @property
    def max_rounds(self) -> float:
        return float(np.max(self.rounds)) if self.rounds else float("nan")

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of solving rounds (``q`` in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100] (got {q})")
        return float(np.percentile(self.rounds, q)) if self.rounds else float("nan")

    @property
    def stddev_rounds(self) -> float:
        if len(self.rounds) < 2:
            return float("nan")
        return float(np.std(self.rounds, ddof=1))

    @property
    def rounds_per_second(self) -> float:
        """Simulated rounds per wall-clock second over the whole batch.

        ``nan`` whenever the ratio is undefined — a zero, negative or
        ``nan`` wall time (empty or instantly-failing batches can clock
        below timer resolution) never propagates a division error or an
        ``inf`` into reports.
        """
        if math.isnan(self.total_wall_time) or self.total_wall_time <= 0.0:
            return float("nan")
        return self.total_rounds_executed / self.total_wall_time

    def summary(self) -> str:
        """One printable line — the row format the benchmark tables use."""
        if not self.rounds:
            return f"{self.protocol_name:<28} FAILED all {self.trials} trials"
        return (
            f"{self.protocol_name:<28} trials={self.trials:<4d} "
            f"mean={self.mean_rounds:8.1f} median={self.median_rounds:8.1f} "
            f"p95={self.percentile(95):8.1f} max={self.max_rounds:8.0f} "
            f"solve_rate={self.solve_rate:.3f}"
        )


def execute_trial(
    channel_factory: ChannelFactory,
    protocol: ProtocolFactory,
    deploy_rng: np.random.Generator,
    protocol_rng: np.random.Generator,
    max_rounds: int,
    keep_trace: bool,
    channel: Optional[object] = None,
) -> Union[ExecutionTrace, FastRunResult]:
    """Execute exactly one trial, on the runner the protocol allows.

    A :class:`~repro.protocols.base.ScheduleProtocol` runs on the
    vectorised loop unless ``keep_trace`` asks for per-round records;
    anything else runs on the generic engine. Both make the same draws,
    so the choice never changes a result. This is the body of the one
    entry loop in :mod:`repro.sim.parallel`, which serial runs and shard
    workers both iterate. ``channel`` short-circuits the factory for
    deterministic deployments whose channel is safely reusable across
    trials (see :data:`~repro.sim.parallel.DETERMINISTIC_ATTR`).
    """
    if channel is None:
        channel = channel_factory(deploy_rng)
    if isinstance(protocol, ScheduleProtocol) and not keep_trace:
        return run_schedule(channel, protocol, protocol_rng, max_rounds)
    nodes = protocol.build(channel.n)
    simulation = Simulation(
        channel,
        nodes,
        rng=protocol_rng,
        max_rounds=max_rounds,
        keep_records=keep_trace,
        protocol_name=protocol.name,
    )
    return simulation.run()


def run_trials(
    channel_factory: ChannelFactory,
    protocol: ProtocolFactory,
    trials: int,
    seed: SeedLike = 0,
    max_rounds: int = 100_000,
    keep_traces: bool = False,
    workers: Optional[int] = None,
) -> TrialStats:
    """Run ``trials`` independent executions and summarise them.

    Each trial spawns two independent generators from ``(seed, trial)`` —
    one for the channel factory (deployment sampling, fading) and one for
    the protocol's coin flips — so deployment randomness and protocol
    randomness can be varied independently in ablations. Each trial runs
    on the runner :func:`execute_trial` picks; ``keep_traces`` keeps
    every trial on the engine, whose traces it returns.

    ``workers`` shards the trials across a process pool
    (:func:`repro.sim.parallel.run_trials_parallel`) while preserving
    bit-exact per-trial results: the seed tree is partitioned so that any
    worker count returns the same ``rounds`` / ``failures`` as serial
    execution. ``None`` consults the process default installed by
    :func:`repro.sim.parallel.default_workers` (the ``--workers`` CLI
    flag); ``1`` runs the same entry loop in-process.

    Every trial is individually timed; the resulting
    :attr:`TrialStats.total_wall_time` and
    :attr:`TrialStats.rounds_per_second` make cost reportable alongside
    solving rounds. With telemetry enabled (see :mod:`repro.obs`) the
    runner additionally feeds ``runner.*`` counters and emits a ~1 Hz
    progress heartbeat plus a final one to the global event sink.
    """
    from repro.sim import parallel

    # Dispatch through run_trials_parallel with the worker count resolved
    # here, so the process default is visible at that seam; it runs one
    # shard in-process and validates every argument.
    return parallel.run_trials_parallel(
        channel_factory,
        protocol,
        trials,
        seed=seed,
        max_rounds=max_rounds,
        keep_traces=keep_traces,
        workers=parallel.get_default_workers() if workers is None else workers,
    )


def high_probability_budget(n: int, slack: float = 50.0) -> int:
    """A generous round budget for w.h.p. experiments on ``n`` nodes.

    ``slack * log2(n)^2`` comfortably covers every protocol in the library
    (the slowest well-behaved baseline is ``Theta(log^2 n)``), while still
    failing fast when a protocol genuinely stalls.
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    return max(64, int(slack * max(1.0, math.log2(max(n, 2))) ** 2))
