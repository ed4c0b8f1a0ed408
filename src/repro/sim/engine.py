"""The synchronous round loop.

One :class:`Simulation` couples protocol state machines to a channel and
executes Section 2's model faithfully:

* each round, every **awake, active** node independently decides to
  transmit or listen (inactive nodes do neither — once knocked out, a node
  is out; sleeping nodes have not been activated yet);
* the channel resolves receptions;
* feedback is delivered: transmitters learn nothing, listeners learn what
  (if anything) they decoded, plus the ternary observation on a
  collision-detection radio channel;
* the problem is **solved** at the first round whose transmitter set has
  size exactly one ("a participating node transmits alone among all
  participating nodes").

The engine stops at the solving round — the paper's completion condition is
about the round occurring, not about any node detecting it.

Staggered activation (the *wake-up* flavour of the problem, [7] in the
paper's related work) is supported via ``activation_schedule``: node ``i``
joins the execution at its scheduled round and — crucially — sees **local**
round numbers (rounds since its own activation). There is no global phase
reference: a protocol whose schedule depends on round alignment (decay's
probability sweep) loses that alignment under staggered wake-up, while the
paper's memoryless algorithm is oblivious to it. Experiment E15 measures
exactly this.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.obs.probe import get_probe_bus, link_class_round_stats
from repro.obs.registry import get_registry
from repro.protocols.base import Action, Feedback, NodeProtocol
from repro.radio.channel import RadioChannel
from repro.sinr.geometry import NearestActiveNeighbors
from repro.sim.trace import ExecutionTrace, RoundRecord

__all__ = ["Simulation", "check_capabilities"]

#: Observer signature: called after each round with the fresh record and the
#: post-round active mask (numpy bool array indexed by node id).
RoundObserver = Callable[[RoundRecord, np.ndarray], None]


def check_capabilities(channel, declarers) -> None:
    """Refuse protocol/channel pairings whose assumptions do not hold.

    ``declarers`` carry the ``requires_*`` flags: the nodes of an engine
    run, or the factory of a vectorised one (:mod:`repro.sim.fast`).
    """
    if any(getattr(d, "requires_collision_detection", False) for d in declarers):
        if not (isinstance(channel, RadioChannel) and channel.collision_detection):
            raise ValueError("protocol requires a collision-detection radio channel")
    if any(getattr(d, "requires_energy_sensing", False) for d in declarers):
        if not getattr(channel, "provides_energy", False):
            raise ValueError(
                "protocol requires carrier sensing (per-round energy), which "
                "this channel does not provide"
            )


class Simulation:
    """Run one execution of a protocol on a channel.

    Parameters
    ----------
    channel:
        Any object exposing ``resolve(transmitters, rng=..., listeners=...)``
        and an ``n`` attribute — :class:`repro.sinr.SINRChannel` or
        :class:`repro.radio.RadioChannel`.
    nodes:
        Per-node state machines, one per channel node, in id order
        (typically ``factory.build(channel.n)``).
    rng:
        Generator driving every random choice of this execution.
    max_rounds:
        Round budget; the trace reports failure if no solo round occurs
        within it.
    keep_records:
        Retain per-round :class:`RoundRecord` objects on the trace. Disable
        for large sweeps where only the solving round matters.
    observers:
        Callables invoked after every round — the hook the link-class
        analyses use to watch an execution without entangling the engine
        with analysis code.
    activation_schedule:
        Optional per-node activation rounds (length ``n``). Node ``i``
        participates from round ``activation_schedule[i]`` onward and its
        ``decide`` / ``on_feedback`` receive *local* rounds (global round
        minus activation). Default: everyone activates at round 0.
    """

    def __init__(
        self,
        channel,
        nodes: List[NodeProtocol],
        rng: np.random.Generator,
        max_rounds: int = 100_000,
        keep_records: bool = True,
        observers: Optional[List[RoundObserver]] = None,
        protocol_name: Optional[str] = None,
        activation_schedule: Optional[List[int]] = None,
    ) -> None:
        if len(nodes) != channel.n:
            raise ValueError(
                f"node count {len(nodes)} does not match channel size {channel.n}"
            )
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be positive (got {max_rounds})")
        check_capabilities(channel, nodes)
        if activation_schedule is None:
            activation = np.zeros(channel.n, dtype=np.int64)
        else:
            activation = np.asarray(list(activation_schedule), dtype=np.int64)
            if activation.shape != (channel.n,):
                raise ValueError(
                    f"activation_schedule must have length {channel.n}, "
                    f"got {activation.shape}"
                )
            if activation.min() < 0:
                raise ValueError("activation rounds must be non-negative")
        self.channel = channel
        self.nodes = nodes
        self.rng = rng
        self.max_rounds = max_rounds
        self.keep_records = keep_records
        self.observers = list(observers) if observers else []
        self.protocol_name = (
            protocol_name or nodes[0].protocol_name or type(nodes[0]).__name__
        )
        self.activation = activation

    def run(self) -> ExecutionTrace:
        """Execute rounds until solved or the budget is exhausted.

        Telemetry (distinct from *observers*, which are per-execution
        analysis hooks): when the global metrics registry is enabled the
        engine records per-round transmitter/reception/knockout counts
        and the active population under ``sim.*`` — see
        docs/observability.md for the metric schema. When the global
        probe bus is enabled the engine additionally publishes
        round-level flight-recorder probes (:mod:`repro.obs.probe`).
        """
        obs = get_registry()
        recording = obs.enabled
        bus = get_probe_bus()
        probing = bus.enabled
        if probing:
            bus.begin_execution(n=self.channel.n)
            distances = getattr(self.channel, "distances", None)
            if distances is not None:
                nearest = NearestActiveNeighbors(distances)
        if recording:
            obs.counter("sim.executions").inc()
            c_rounds = obs.counter("sim.rounds")
            c_tx = obs.counter("sim.transmissions")
            c_rx = obs.counter("sim.receptions")
            c_ko = obs.counter("sim.knockouts")
            h_tx = obs.histogram("sim.transmitters_per_round")
            g_active = obs.gauge("sim.active_population")
        trace = ExecutionTrace(n=self.channel.n, protocol_name=self.protocol_name)
        active = np.array([node.active for node in self.nodes], dtype=bool)
        everyone_awake_from_start = bool(np.all(self.activation == 0))

        for round_index in range(self.max_rounds):
            awake = self.activation <= round_index
            active_ids = np.flatnonzero(active & awake)
            if active_ids.size == 0 and (
                everyone_awake_from_start or round_index >= int(self.activation.max())
            ):
                # Defensive: a correct protocol never deactivates everyone
                # before a solo round, but a buggy one might; stop cleanly
                # (once no further activations are pending).
                break

            transmitters = [
                int(i)
                for i in active_ids
                if self.nodes[i].decide(
                    round_index - int(self.activation[i]), self.rng
                )
                is Action.TRANSMIT
            ]
            transmitter_set = set(transmitters)
            listeners = [int(i) for i in active_ids if i not in transmitter_set]
            if probing:
                bus.begin_round(round_index)
                mask_before = active & awake
            report = self.channel.resolve(
                transmitters, rng=self.rng, listeners=listeners
            )

            knocked_out = self._deliver_feedback(
                round_index, active_ids, transmitter_set, report
            )
            for node_id in knocked_out:
                active[node_id] = False
            if probing:
                bus.emit_round(
                    active_before=active_ids.size,
                    tx_count=len(transmitters),
                    knockouts=len(knocked_out),
                    knocked_ids=knocked_out,
                    pending=int(np.count_nonzero(self.activation > round_index)),
                    class_stats=(
                        link_class_round_stats(
                            distances, mask_before, knocked_out, nearest=nearest
                        )
                        if distances is not None and active_ids.size > 0
                        else ()
                    ),
                )

            record = RoundRecord(
                index=round_index,
                transmitters=tuple(sorted(transmitters)),
                receptions=dict(report.received_from),
                active_before=tuple(int(i) for i in active_ids),
                knocked_out=tuple(sorted(knocked_out)),
            )
            if self.keep_records:
                trace.records.append(record)
            for observer in self.observers:
                observer(record, active)
            if recording:
                c_rounds.inc()
                c_tx.inc(len(transmitters))
                c_rx.inc(len(report.received_from))
                c_ko.inc(len(knocked_out))
                h_tx.observe(len(transmitters))
                g_active.set(int(np.count_nonzero(active)))

            trace.rounds_executed = round_index + 1
            if record.is_solo:
                trace.solved_round = round_index
                break
        if recording and trace.solved:
            obs.counter("sim.solved_executions").inc()
        if probing:
            bus.end_execution(trace.rounds_executed, trace.solved_round)
        return trace

    def _deliver_feedback(
        self,
        round_index: int,
        active_ids: np.ndarray,
        transmitter_set: set,
        report,
    ) -> List[int]:
        """Hand each active node its round feedback; return new knockouts."""
        observations = getattr(report, "observations", None)
        energy = getattr(report, "energy", None)
        knocked_out: List[int] = []
        for i in active_ids:
            node = self.nodes[i]
            i = int(i)
            if i in transmitter_set:
                feedback = Feedback(transmitted=True)
            else:
                feedback = Feedback(
                    transmitted=False,
                    received=report.received_from.get(i),
                    observation=observations.get(i) if observations else None,
                    energy=energy.get(i) if energy else None,
                )
            node.on_feedback(round_index - int(self.activation[i]), feedback)
            if not node.active:
                knocked_out.append(i)
        return knocked_out
