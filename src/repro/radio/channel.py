"""Single-hop collision channel (the classical radio network model).

Geometry is irrelevant in this model: the network is a clique, a round
delivers iff exactly one node transmits, and two or more concurrent
transmissions collide everywhere. This matches the model in which the
``Theta(log^2 n)`` contention-resolution lower bound holds, and — with
receiver collision detection enabled — the ``Theta(log n)`` bound of [20].
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np

from repro.obs.registry import get_registry

__all__ = ["ChannelObservation", "Hearing", "RadioReport", "RadioChannel"]


class ChannelObservation(Enum):
    """What a listener perceives in one round."""

    SILENCE = "silence"
    MESSAGE = "message"
    COLLISION = "collision"


class Hearing(NamedTuple):
    """What each listener of one round hears, as arrays over the listeners.

    Every channel's ``listen`` returns one; the concede rules of
    :mod:`repro.protocols.base` read it, array-wide in the vectorised
    loop and one listener at a time (as scalars) on the engine.
    """

    #: Decoded sender per listener, ``-1`` where nothing was decoded.
    received: np.ndarray
    #: Total arriving power per listener; ``-inf`` where none is measured.
    energy: np.ndarray
    #: Whether the listener detected a collision.
    collision: np.ndarray


@dataclass(frozen=True)
class RadioReport:
    """Outcome of one round on the collision channel.

    ``received_from`` maps every listener that decoded the (unique)
    transmission to its sender; it is empty unless exactly one node
    transmitted. ``observations`` maps every listener to what it perceived,
    with collisions reported as :attr:`ChannelObservation.SILENCE` when the
    channel was built without collision detection.
    """

    transmitters: tuple
    received_from: Dict[int, int] = field(default_factory=dict)
    observations: Dict[int, ChannelObservation] = field(default_factory=dict)

    @property
    def is_solo(self) -> bool:
        """Whether exactly one node transmitted (the success condition)."""
        return len(self.transmitters) == 1

    def heard_by(self, listener: int) -> Optional[int]:
        """The transmitter decoded by ``listener``, or ``None``."""
        return self.received_from.get(listener)


class RadioChannel:
    """Clique collision channel with optional receiver collision detection.

    Parameters
    ----------
    n:
        Number of nodes.
    collision_detection:
        When true, listeners can distinguish collision from silence.
        Transmitters never receive feedback in either variant (a
        transmitting node does not learn the fate of its transmission,
        matching the radio network model).
    """

    def __init__(self, n: int, collision_detection: bool = False) -> None:
        if n < 1:
            raise ValueError(f"channel needs at least one node (got {n})")
        self.n = n
        self.collision_detection = collision_detection

    def resolve(
        self,
        transmitters: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        listeners: Optional[Sequence[int]] = None,
    ) -> RadioReport:
        """Resolve one synchronous round.

        The signature mirrors :meth:`repro.sinr.channel.SINRChannel.resolve`
        so the simulation engine can drive either substrate; ``rng`` is
        accepted (and ignored) for that reason — the collision channel is
        deterministic given the transmitter set.
        """
        obs = get_registry()
        if not obs.enabled:
            return self._resolve(transmitters, listeners)
        started = time.perf_counter()
        report = self._resolve(transmitters, listeners)
        obs.counter("channel.radio.resolve_calls").inc()
        obs.histogram("channel.radio.resolve_seconds").observe(
            time.perf_counter() - started
        )
        return report

    def listen(
        self,
        tx: np.ndarray,
        listeners: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> Hearing:
        """One round at array level: every listener hears the same thing.

        A lone transmitter reaches every listener; two or more collide,
        which listeners detect only with collision detection. No energy
        is measured and no randomness drawn.
        """
        size = listeners.shape
        return Hearing(
            np.full(size, tx[0] if tx.size == 1 else -1, dtype=np.intp),
            np.full(size, -np.inf),
            np.broadcast_to(self.collision_detection and tx.size > 1, size),
        )

    def _resolve(
        self,
        transmitters: Sequence[int],
        listeners: Optional[Sequence[int]],
    ) -> RadioReport:
        """The uninstrumented resolve body (see :meth:`resolve`)."""
        tx = sorted(set(int(i) for i in transmitters))
        if tx and (tx[0] < 0 or tx[-1] >= self.n):
            raise IndexError("transmitter index out of range")
        tx_set = set(tx)
        if listeners is None:
            listen_ids = [i for i in range(self.n) if i not in tx_set]
        else:
            # Same index semantics as the SINR channel: negatives never
            # wrap, out-of-range raises a clear IndexError.
            requested = [int(i) for i in listeners]
            if requested and (min(requested) < 0 or max(requested) >= self.n):
                raise IndexError("listener index out of range")
            listen_ids = [i for i in requested if i not in tx_set]

        heard = self.listen(
            np.asarray(tx, dtype=np.intp), np.asarray(listen_ids, dtype=np.intp)
        )
        received: Dict[int, int] = {}
        observations: Dict[int, ChannelObservation] = {}
        for listener, sender, collided in zip(
            listen_ids, heard.received.tolist(), heard.collision.tolist()
        ):
            if sender >= 0:
                received[listener] = sender
                observations[listener] = ChannelObservation.MESSAGE
            elif collided:
                observations[listener] = ChannelObservation.COLLISION
            else:
                observations[listener] = ChannelObservation.SILENCE
        return RadioReport(
            transmitters=tuple(tx),
            received_from=received,
            observations=observations,
        )

    def __repr__(self) -> str:
        return f"RadioChannel(n={self.n}, collision_detection={self.collision_detection})"
