"""Seeded results of every schedule protocol, pinned.

Each protocol built on :class:`repro.protocols.base.ScheduleProtocol`
draws one coin per active node per round, so its per-trial rounds on a
fixed seed are a fingerprint of the schedule, the concede rule and the
engine's draw order together. The values below were recorded before the
schedule protocols shared one node class and must not be re-recorded:
a change here means a protocol no longer makes the draws it used to.
"""

import pytest

from repro.deploy.topologies import uniform_disk
from repro.protocols import (
    CarrierSenseTournamentProtocol,
    CollisionDetectionTournamentProtocol,
    DecayProtocol,
    FixedProbabilityProtocol,
    JurdzinskiStachowiakProtocol,
    SawtoothBackoffProtocol,
    SlottedAlohaProtocol,
    carrier_sense_threshold,
)
from repro.radio.channel import RadioChannel
from repro.sim.runner import run_trials
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel

SEED = 2016

#: ``(protocol, channel) -> {n: per-trial rounds}``; no trial fails.
PINNED = {
    ("simple", "sinr"): {16: [1, 2, 3, 2], 64: [3, 4, 6, 14]},
    ("js16", "sinr"): {16: [5, 2, 5, 2], 64: [11, 5, 5, 3]},
    ("decay-knockout", "sinr"): {16: [2, 2, 4, 21], 64: [9, 8, 9, 5]},
    ("carrier-sense", "sinr"): {16: [5, 3, 2, 5], 64: [8, 7, 5, 6]},
    ("decay", "radio"): {16: [8, 3, 8, 4], 64: [6, 6, 5, 4]},
    ("aloha", "radio"): {16: [1, 2, 2, 2], 64: [2, 6, 1, 1]},
    ("sawtooth", "radio"): {16: [9, 6, 12, 6], 64: [23, 19, 21, 30]},
    ("cd-tournament", "radio-cd"): {16: [5, 3, 2, 5], 64: [8, 7, 5, 6]},
}

PROTOCOLS = {
    "simple": lambda channel: FixedProbabilityProtocol(),
    "js16": lambda channel: JurdzinskiStachowiakProtocol(),
    "decay-knockout": lambda channel: DecayProtocol(deactivate_on_receive=True),
    "carrier-sense": lambda channel: CarrierSenseTournamentProtocol(
        carrier_sense_threshold(channel)
    ),
    "decay": lambda channel: DecayProtocol(),
    "aloha": lambda channel: SlottedAlohaProtocol(),
    "sawtooth": lambda channel: SawtoothBackoffProtocol(),
    "cd-tournament": lambda channel: CollisionDetectionTournamentProtocol(),
}


def _channel(kind, n):
    if kind == "sinr":
        return SINRChannel(uniform_disk(n, generator_from((SEED, n))))
    return RadioChannel(n, collision_detection=kind == "radio-cd")


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize(
    "protocol,kind", list(PINNED), ids=[f"{p}-{k}" for p, k in PINNED]
)
def test_seeded_rounds_are_pinned(protocol, kind, n):
    channel = _channel(kind, n)
    stats = run_trials(
        lambda rng: channel,
        PROTOCOLS[protocol](channel),
        trials=4,
        seed=(SEED, n),
        max_rounds=100_000,
    )
    assert stats.failures == 0
    assert stats.rounds == PINNED[(protocol, kind)][n]
