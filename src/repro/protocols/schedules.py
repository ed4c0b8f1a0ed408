"""Schedule inspection: broadcast probabilities as data.

Several protocols in this library are *oblivious probability schedules* —
a node's transmit probability in a round depends only on the (local) round
number, not on history. These helpers extract that schedule and compute
aggregate quantities the experiments use to *explain* results:

``probability_schedule``
    The per-round broadcast probability of one node over a horizon.
``expected_transmitters``
    For a set of nodes with arbitrary activation offsets, the expected
    number of transmitters in each global round — the quantity whose
    "passes through ~1" moments decide when a solo round is likely.
``solo_probability``
    Exact probability that exactly one of ``n`` i.i.d. nodes transmits at
    probability ``p`` — the classical ``n p (1-p)^{n-1}``.

A protocol qualifies if it is a
:class:`~repro.protocols.base.ScheduleProtocol` — the paper's algorithm,
ALOHA, decay, JS16, sawtooth and the two tournaments — whose
``schedule(n)`` these helpers read directly. Stateful protocols (BEB) and
combiners (interleaving) have no oblivious schedule and are rejected.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.protocols.base import ProtocolFactory, Schedule, ScheduleProtocol

__all__ = [
    "probability_schedule",
    "expected_transmitters",
    "solo_probability",
    "has_oblivious_schedule",
]


def _schedule(factory: ProtocolFactory, n: int) -> Schedule:
    if not isinstance(factory, ScheduleProtocol):
        raise TypeError(f"{type(factory).__name__} has no oblivious broadcast schedule")
    return factory.checked_schedule(n)


def has_oblivious_schedule(factory: ProtocolFactory) -> bool:
    """Whether the factory declares a round-indexed probability schedule."""
    return isinstance(factory, ScheduleProtocol)


def probability_schedule(
    factory: ProtocolFactory, horizon: int, n: int = 2
) -> np.ndarray:
    """One node's broadcast probability for rounds ``0 .. horizon - 1``.

    ``n`` is passed to ``schedule`` because some schedules depend on the
    network size the factory is told about (decay's sweep length).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be positive (got {horizon})")
    probability = _schedule(factory, n)
    return np.asarray([probability(r) for r in range(horizon)], dtype=np.float64)


def expected_transmitters(
    factory: ProtocolFactory,
    activations: Sequence[int],
    horizon: int,
) -> np.ndarray:
    """Expected transmitter count per global round under local clocks.

    ``activations[i]`` is node ``i``'s wake-up round; a node contributes
    its probability at *local* round ``t - activations[i]`` to global
    round ``t`` (and nothing before it wakes). This is the lens that shows
    why decay's sweep loses alignment under staggered wake-up while the
    paper's constant schedule cannot.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be positive (got {horizon})")
    activations = [int(a) for a in activations]
    if any(a < 0 for a in activations):
        raise ValueError("activation rounds must be non-negative")
    n = len(activations)
    if n < 1:
        raise ValueError("need at least one node")
    probability = _schedule(factory, n)
    expected = np.zeros(horizon, dtype=np.float64)
    for activation in activations:
        for t in range(activation, horizon):
            expected[t] += probability(t - activation)
    return expected


def solo_probability(n: int, p: float) -> float:
    """``P(exactly one of n transmits) = n p (1-p)^(n-1)``."""
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1] (got {p})")
    if p == 1.0:
        return 1.0 if n == 1 else 0.0
    return n * p * (1.0 - p) ** (n - 1)
