"""The vectorised loop: any schedule protocol, one array update per round.

The generic engine treats every node as an opaque state machine — the
right abstraction for heterogeneous protocols, but O(n) Python work per
round. A :class:`~repro.protocols.base.ScheduleProtocol` has no per-node
state beyond active/inactive (every node shares one clock), so a whole
execution collapses into numpy:

* coin flips: one ``rng.random(n_active) < p(round)`` per round;
* reception: the channel's array-level round, ``channel.listen`` (fading
  and intermittent-source draws, the decode kernel and SINR probes
  included);
* knockout: the protocol's concede rule over every listener at once.

:func:`run_schedule` equals running the protocol's nodes through
:class:`repro.sim.engine.Simulation` on the same generator: the engine
draws one ``rng.random()`` per active node in id order and the channel
draws after all coins, and ``rng.random(k)`` yields the same ``k``
doubles as ``k`` scalar calls. Both resolve the solving round too, so
per-trial rounds, active counts and probe rows are equal; the test
suite pins this for every schedule protocol and channel kind.
:func:`repro.sim.runner.run_trials` picks this loop for schedule
protocols unless traces are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.obs.probe import get_probe_bus, link_class_round_stats
from repro.obs.registry import get_registry
from repro.protocols.base import ScheduleProtocol
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import check_capabilities
from repro.sinr.geometry import NearestActiveNeighbors

__all__ = ["FastRunResult", "fast_fixed_probability_run", "run_schedule"]


@dataclass(frozen=True)
class FastRunResult:
    """Outcome of one vectorised execution.

    ``solved_round`` is 0-based (``None`` if the budget ran out);
    ``active_counts[t]`` is the number of active nodes at the start of
    round ``t``.
    """

    n: int
    solved_round: Optional[int]
    rounds_executed: int
    active_counts: List[int]

    @property
    def solved(self) -> bool:
        return self.solved_round is not None

    @property
    def rounds_to_solve(self) -> Optional[int]:
        if self.solved_round is None:
            return None
        return self.solved_round + 1


def run_schedule(
    channel,
    protocol: ScheduleProtocol,
    rng: np.random.Generator,
    max_rounds: int = 100_000,
) -> FastRunResult:
    """Run a schedule protocol to its first solo round, vectorised.

    Every node activates at round 0. When the global metrics registry is
    enabled the run feeds the ``fast.*`` counters; the global probe bus
    receives one round probe per executed round, as from the engine.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be positive (got {max_rounds})")
    n = channel.n
    probability = protocol.checked_schedule(n)
    check_capabilities(channel, [protocol])
    concede, threshold = protocol.concede, protocol.threshold

    obs = get_registry()
    recording = obs.enabled
    if recording:
        obs.counter("fast.executions").inc()
        c_rounds = obs.counter("fast.rounds")
        c_ko = obs.counter("fast.knockouts")
    bus = get_probe_bus()
    probing = bus.enabled
    if probing:
        bus.begin_execution(n=n)
        distances = getattr(channel, "distances", None)
        if distances is not None:
            nearest = NearestActiveNeighbors(distances)

    active = np.ones(n, dtype=bool)
    active_counts: List[int] = []
    solved_round = None
    rounds_executed = 0
    for round_index in range(max_rounds):
        active_ids = np.flatnonzero(active)
        if active_ids.size == 0:
            break
        rounds_executed = round_index + 1
        active_counts.append(int(active_ids.size))
        coins = rng.random(active_ids.size) < probability(round_index)
        tx = active_ids[coins]
        listeners = active_ids[~coins]
        if probing:
            bus.begin_round(round_index)
            mask_before = active.copy()
        knocked = listeners[concede(channel.listen(tx, listeners, rng), threshold)]
        active[knocked] = False
        if recording:
            c_rounds.inc()
            if knocked.size:
                c_ko.inc(int(knocked.size))
        if probing:
            bus.emit_round(
                active_before=active_ids.size,
                tx_count=tx.size,
                knockouts=knocked.size,
                knocked_ids=knocked,
                class_stats=(
                    link_class_round_stats(
                        distances, mask_before, knocked, nearest=nearest
                    )
                    if distances is not None
                    else ()
                ),
            )
        if tx.size == 1:
            solved_round = round_index
            break

    if recording and solved_round is not None:
        obs.counter("fast.solved_executions").inc()
    if probing:
        bus.end_execution(rounds_executed, solved_round)
    return FastRunResult(
        n=n,
        solved_round=solved_round,
        rounds_executed=rounds_executed,
        active_counts=active_counts,
    )


def fast_fixed_probability_run(
    channel,
    p: float,
    rng: np.random.Generator,
    max_rounds: int = 100_000,
) -> FastRunResult:
    """:func:`run_schedule` of the paper's algorithm at probability ``p``."""
    return run_schedule(channel, FixedProbabilityProtocol(p), rng, max_rounds)
