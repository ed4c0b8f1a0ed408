"""Contention-resolution protocols: the paper's algorithm and all baselines.

Every protocol is a per-node state machine behind the small interface in
:mod:`repro.protocols.base` (``decide`` each round, ``on_feedback`` after the
channel resolves). All but BEB and the interleaving combiner are a
:class:`ScheduleProtocol`: a broadcast schedule ``p(round)`` plus a concede
rule, run by the shared :class:`ScheduleNode`. The simulation engine is
channel-agnostic, so the same protocol classes run on the SINR channel, the
Rayleigh-fading channel and the classical collision channel — which is what
keeps the paper's headline comparison (experiment E3) honest.

Protocols
---------
:class:`FixedProbabilityProtocol`
    **The paper's algorithm** (Section 1, analysed in Section 3): every
    active node broadcasts with a fixed constant probability each round and
    deactivates the first time it receives a message. ``O(log n + log R)``
    rounds on a fading channel, w.h.p. Requires no knowledge of ``n``.
:class:`DecayProtocol`
    The classical radio-network strategy: cyclically sweep broadcast
    probabilities ``2^-1 .. 2^-log N``. ``Theta(log^2 n)`` w.h.p. in the
    collision model; needs an upper bound ``N >= n``.
:class:`JurdzinskiStachowiakProtocol`
    A faithful-in-spirit rendition of the ``O(log^2 n / log log n)`` fading
    algorithm of Jurdziński & Stachowiak (STOC 2015 / as cited in the
    paper): a decay sweep compressed by a ``log log N`` factor. Needs ``N``.
:class:`SlottedAlohaProtocol`
    Genie baseline: knows the exact number of contenders and broadcasts
    with probability ``1/n``. ``O(log n)`` w.h.p. on a collision channel.
:class:`BinaryExponentialBackoffProtocol`
    Pessimistic BEB: a node doubles its backoff window after each of its own
    transmissions (transmitters receive no feedback in these models).
:class:`CollisionDetectionTournamentProtocol`
    The ``Theta(log n)`` strategy available when receivers detect
    collisions: listeners who hear a collision concede to the transmitters.
:class:`CarrierSenseTournamentProtocol`
    The same idea realised on the SINR channel via energy measurement
    (the paper's [22] direction): above-threshold energy without a decode
    proves a collision, so listeners who hear anything concede.
    ``Theta(log n)``, insensitive to ``R``.
:class:`SawtoothBackoffProtocol`
    The classical feedback-free doubling-window schedule — solves without
    knowledge of ``n`` but pays linear time; the anti-baseline that makes
    decay's ``log^2`` look good.
:class:`InterleavedProtocol`
    Round-robin combiner (odd rounds protocol A, even rounds protocol B) —
    the Section 3.1 remark on handling unknown ``R`` by interleaving the
    simple algorithm with an ``R``-insensitive one.
"""

from repro.protocols.aloha import SlottedAlohaProtocol
from repro.protocols.backoff import BinaryExponentialBackoffProtocol
from repro.protocols.base import (
    Action,
    Feedback,
    NodeProtocol,
    ProtocolFactory,
    ScheduleProtocol,
)
from repro.protocols.carrier_sense import (
    CarrierSenseTournamentProtocol,
    carrier_sense_threshold,
)
from repro.protocols.cd_tournament import CollisionDetectionTournamentProtocol
from repro.protocols.decay import DecayProtocol
from repro.protocols.interleave import InterleavedProtocol
from repro.protocols.js16 import JurdzinskiStachowiakProtocol
from repro.protocols.sawtooth import SawtoothBackoffProtocol
from repro.protocols.schedules import (
    expected_transmitters,
    probability_schedule,
    solo_probability,
)
from repro.protocols.simple import FixedProbabilityProtocol

__all__ = [
    "Action",
    "BinaryExponentialBackoffProtocol",
    "CarrierSenseTournamentProtocol",
    "CollisionDetectionTournamentProtocol",
    "DecayProtocol",
    "Feedback",
    "FixedProbabilityProtocol",
    "InterleavedProtocol",
    "JurdzinskiStachowiakProtocol",
    "NodeProtocol",
    "ProtocolFactory",
    "SawtoothBackoffProtocol",
    "ScheduleProtocol",
    "SlottedAlohaProtocol",
    "carrier_sense_threshold",
    "expected_transmitters",
    "probability_schedule",
    "solo_probability",
]
