"""Vectorised fast path for the paper's algorithm on the SINR channel.

The generic engine treats every node as an opaque state machine — the
right abstraction for heterogeneous protocols, but O(n) Python work per
round. The paper's algorithm has no per-node state beyond active/inactive
and a constant probability, so a whole execution collapses into numpy:

* coin flips: one ``rng.random(n_active)`` per round;
* reception: the channel's own decode kernel
  (:func:`repro.sinr.channel.decode_round`);
* knockout: a boolean mask update.

``fast_fixed_probability_run`` is equivalent to running
``FixedProbabilityProtocol`` through :class:`repro.sim.engine.Simulation`
— on the same generator both make the same draws, and the test suite pins
equal per-trial rounds — just 1–2 orders of magnitude faster for large
``n``. Use it for scaling studies; use the
generic engine when you need traces, observers, mixed protocols,
activation schedules, or radio channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.obs.probe import get_probe_bus, link_class_round_stats
from repro.obs.registry import get_registry
from repro.sinr.channel import SINRChannel, decode_round, emit_sinr_probe
from repro.sinr.geometry import NearestActiveNeighbors

__all__ = ["FastRunResult", "fast_fixed_probability_run"]

_EMPTY_IDS = np.empty(0, dtype=np.intp)


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


def fast_fixed_probability_run(
    channel: SINRChannel,
    p: float,
    rng: np.random.Generator,
    max_rounds: int = 100_000,
) -> FastRunResult:
    """Run the paper's algorithm to the first solo round, vectorised.

    Restrictions (by design): deterministic gain model, no external
    sources with ``duty_cycle < 1`` (continuous jammers are folded into a
    static interference vector), simultaneous activation.

    When the global metrics registry is enabled the run feeds the
    ``fast.*`` counters, so scaling studies show up in telemetry sessions
    alongside generic-engine runs; the global probe bus receives one
    round probe per executed round, as from the engine.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"broadcast probability must be in (0, 1] (got {p})")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be positive (got {max_rounds})")
    if not channel.gain_model.is_deterministic:
        raise ValueError(
            "the fast path supports the deterministic gain model only; "
            "use the generic engine for fading channels"
        )
    if any(not s.is_continuous for s in channel.external_sources):
        raise ValueError(
            "the fast path supports continuous external sources only"
        )

    gains = channel.base_gains
    params = channel.params
    n = channel.n
    if channel.external_sources:
        static_external = channel.external_gains.sum(axis=0)
    else:
        static_external = np.zeros(n)

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
        nearest = NearestActiveNeighbors(channel.distances)

    active = np.ones(n, dtype=bool)
    active_counts: List[int] = []

    for round_index in range(max_rounds):
        active_ids = np.flatnonzero(active)
        if active_ids.size == 0:
            if probing:
                bus.end_execution(round_index, None)
            return FastRunResult(
                n=n,
                solved_round=None,
                rounds_executed=round_index,
                active_counts=active_counts,
            )
        num_active = int(active_ids.size)
        active_counts.append(num_active)

        coins = rng.random(active_ids.size) < p
        tx = active_ids[coins]
        if recording:
            c_rounds.inc()
        if probing:
            bus.begin_round(round_index)
        if tx.size == 1:
            if recording:
                obs.counter("fast.solved_executions").inc()
            if probing:
                # The fast path stops before resolving the solo round, so
                # its knockout count is 0 here.
                bus.emit_round(
                    active_before=num_active,
                    tx_count=1,
                    knockouts=0,
                    class_stats=link_class_round_stats(
                        channel.distances, active, (), nearest=nearest
                    ),
                )
                bus.end_execution(round_index + 1, round_index)
            return FastRunResult(
                n=n,
                solved_round=round_index,
                rounds_executed=round_index + 1,
                active_counts=active_counts,
            )
        knockouts = 0
        knocked_nodes: np.ndarray = _EMPTY_IDS
        mask_before = active.copy() if probing else None
        if tx.size > 0:
            listeners = active_ids[~coins]
            if listeners.size > 0:
                decode = decode_round(
                    gains, tx, listeners, static_external[listeners], params
                )
                knocked_nodes = listeners[decode.decoded]
                knockouts = int(knocked_nodes.size)
                if probing:
                    emit_sinr_probe(bus, decode, tx, listeners, params)
                active[knocked_nodes] = False
        if recording and knockouts:
            c_ko.inc(knockouts)
        if probing:
            bus.emit_round(
                active_before=num_active,
                tx_count=int(tx.size),
                knockouts=knockouts,
                knocked_ids=knocked_nodes,
                class_stats=link_class_round_stats(
                    channel.distances, mask_before, knocked_nodes, nearest=nearest
                ),
            )

    if probing:
        bus.end_execution(max_rounds, None)
    return FastRunResult(
        n=n,
        solved_round=None,
        rounds_executed=max_rounds,
        active_counts=active_counts,
    )
