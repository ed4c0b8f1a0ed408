"""Protocol interface shared by the paper's algorithm and all baselines.

The model (Section 2) is synchronous: each round every node either
transmits at fixed power or listens. A protocol is therefore a per-node
state machine with two entry points:

``decide(round_index, rng)``
    Called at the start of each round for every *active* node; returns
    :attr:`Action.TRANSMIT` or :attr:`Action.LISTEN`.
``on_feedback(round_index, feedback)``
    Called after the channel resolves the round. The feedback honours the
    model's information constraints: a transmitter learns nothing about the
    fate of its transmission; a listener learns the decoded message (if
    any) and — only on a collision-detection radio channel — the ternary
    channel observation.

Nodes begin *active* and may deactivate themselves (the paper's algorithm
deactivates on first reception). Inactive nodes are never asked to decide
and never transmit; the engine treats the first round with exactly one
transmitter as solving the problem, matching Section 2's definition.

Most protocols here need no state machine of their own: they are an
oblivious broadcast schedule ``p(round)`` plus a rule for when a listener
drops out. :class:`ScheduleProtocol` declares exactly those two things —
``schedule(n)`` and a ``concede`` rule from the closed set
:data:`CONCEDE_RULES` — and builds one :class:`ScheduleNode` per node.
Each rule is written once over a :class:`~repro.radio.channel.Hearing`
record, so the engine's nodes (one listener, scalars) and the vectorised
loop of :mod:`repro.sim.fast` (every listener, arrays) apply the same
function.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional

import numpy as np

from repro.radio.channel import ChannelObservation, Hearing

__all__ = [
    "Action",
    "CONCEDE_RULES",
    "Feedback",
    "NodeProtocol",
    "ProtocolFactory",
    "Schedule",
    "ScheduleNode",
    "ScheduleProtocol",
    "constant",
    "never",
    "on_collision",
    "on_reception",
    "on_signal",
]

#: A per-round broadcast probability: local round index -> ``p``.
Schedule = Callable[[int], float]


class Action(Enum):
    """A node's choice for one round."""

    TRANSMIT = "transmit"
    LISTEN = "listen"


@dataclass(frozen=True)
class Feedback:
    """What one node learns from one round.

    Attributes
    ----------
    transmitted:
        Whether this node transmitted. Transmitters receive no other
        information (``received`` is ``None`` and ``observation`` is
        ``None`` for them) — the radio network model's defining constraint.
    received:
        The id of the decoded sender, or ``None`` if nothing was decoded.
    observation:
        On a collision-detection radio channel, what the listener
        perceived; ``None`` on channels without receiver feedback
        (including the SINR channel, where reception itself is the only
        signal).
    energy:
        On an SINR channel, the total arriving signal power measured while
        listening (what carrier-sensing hardware reports); ``None`` for
        transmitters and on channels without energy measurement. Only
        protocols that declare ``requires_energy_sensing`` may rely on it.
    """

    transmitted: bool
    received: Optional[int] = None
    observation: Optional[ChannelObservation] = None
    energy: Optional[float] = None


class NodeProtocol(ABC):
    """Per-node state machine.

    Subclasses set ``self._active = False`` to drop out of contention. The
    engine guarantees ``decide`` is only invoked on active nodes and that
    feedback is delivered to every node that was active at the start of the
    round.

    The attributes ``requires_collision_detection`` and
    ``requires_energy_sensing`` mirror the factory flags; the engine reads
    them from each node instance to refuse protocol/channel mismatches.
    """

    requires_collision_detection: bool = False
    requires_energy_sensing: bool = False
    #: The name an execution trace records; ``None`` means the class name.
    protocol_name: Optional[str] = None

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._active = True

    @property
    def active(self) -> bool:
        """Whether this node is still contending."""
        return self._active

    @abstractmethod
    def decide(self, round_index: int, rng: np.random.Generator) -> Action:
        """Choose this round's action. Only called while active."""

    def on_feedback(self, round_index: int, feedback: Feedback) -> None:
        """Process the round's outcome. Default: ignore it."""

    def __repr__(self) -> str:
        state = "active" if self._active else "inactive"
        return f"{type(self).__name__}(node_id={self.node_id}, {state})"


class ProtocolFactory(ABC):
    """Builds the per-node state machines for one execution.

    Class attributes declare a protocol's assumptions so experiments can
    report them honestly:

    ``knows_network_size``
        Whether :meth:`build` uses its ``n`` argument (e.g. decay needs an
        upper bound on the network size; the paper's algorithm does not).
    ``requires_collision_detection``
        Whether the protocol only makes sense on a radio channel with
        receiver collision detection.
    ``requires_energy_sensing``
        Whether the protocol needs per-round energy measurements (carrier
        sensing), which only the SINR channel provides.
    """

    name: str = "protocol"
    knows_network_size: bool = False
    requires_collision_detection: bool = False
    requires_energy_sensing: bool = False

    @abstractmethod
    def build(self, n: int) -> List[NodeProtocol]:
        """Instantiate fresh state machines for ``n`` participating nodes."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def constant(p: float, round_index: int) -> float:
    """The schedule that broadcasts with probability ``p`` in every round."""
    return p


def never(heard: Hearing, threshold: Optional[float]):
    """Listeners never drop out (ALOHA, classical decay)."""
    return np.zeros_like(heard.received, dtype=bool)


def on_reception(heard: Hearing, threshold: Optional[float]):
    """Drop out on decoding a message — the paper's knockout rule."""
    return heard.received >= 0


def on_collision(heard: Hearing, threshold: Optional[float]):
    """Drop out on a detected collision (needs collision detection)."""
    return heard.collision


def on_signal(heard: Hearing, threshold: Optional[float]):
    """Drop out on a decoded message or sensed energy ``>= threshold``."""
    return (heard.received >= 0) | (heard.energy >= threshold)


#: The closed set of concede rules a :class:`ScheduleProtocol` may declare:
#: when a *listener* drops out, given what it heard and the protocol's
#: energy threshold. Transmitters never concede — they learn nothing of
#: the round.
CONCEDE_RULES = (never, on_reception, on_collision, on_signal)


class ScheduleNode(NodeProtocol):
    """One node of a :class:`ScheduleProtocol`.

    Each round it makes one draw, ``rng.random() < probability(round)``;
    as a listener it drops out when ``concede(heard, threshold)`` holds for
    its feedback read as a one-listener :class:`Hearing` (``-1`` for no
    decode, ``-inf`` for no energy reading). The rule, threshold,
    capability flags and ``protocol_name`` are copied from the factory.
    """

    def __init__(
        self, node_id: int, probability: Schedule, protocol: ScheduleProtocol
    ) -> None:
        super().__init__(node_id)
        self.probability = probability
        self.protocol_name = protocol.name
        self.concede = protocol.concede
        self.threshold = protocol.threshold
        self.requires_collision_detection = protocol.requires_collision_detection
        self.requires_energy_sensing = protocol.requires_energy_sensing

    def decide(self, round_index: int, rng: np.random.Generator) -> Action:
        if rng.random() < self.probability(round_index):
            return Action.TRANSMIT
        return Action.LISTEN

    def on_feedback(self, round_index: int, feedback: Feedback) -> None:
        if feedback.transmitted:
            return
        heard = Hearing(
            -1 if feedback.received is None else feedback.received,
            -np.inf if feedback.energy is None else feedback.energy,
            feedback.observation is ChannelObservation.COLLISION,
        )
        if self.concede(heard, self.threshold):
            self._active = False


class ScheduleProtocol(ProtocolFactory):
    """A protocol given by a broadcast schedule and a concede rule.

    Subclasses implement :meth:`schedule` and set ``concede`` to one of
    :data:`CONCEDE_RULES` — wrapped in ``staticmethod`` when it is a class
    attribute, plain when set on the instance. ``threshold`` is the energy
    sensitivity :func:`on_signal` compares against. :meth:`build` is shared.
    """

    concede = staticmethod(never)
    threshold: Optional[float] = None

    @abstractmethod
    def schedule(self, n: int) -> Schedule:
        """Per-round broadcast probability for ``n`` participating nodes."""

    def checked_schedule(self, n: int) -> Schedule:
        """:meth:`schedule` after validating ``n`` and the concede rule."""
        if n < 1:
            raise ValueError(f"n must be positive (got {n})")
        if self.concede not in CONCEDE_RULES:
            raise ValueError(f"concede rule {self.concede!r} is not in CONCEDE_RULES")
        return self.schedule(n)

    def build(self, n: int) -> List[NodeProtocol]:
        probability = self.checked_schedule(n)
        return [ScheduleNode(i, probability, self) for i in range(n)]
