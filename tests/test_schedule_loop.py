"""The vectorised loop against the engine, for every schedule protocol.

``run_trials`` runs a :class:`ScheduleProtocol` on
:func:`repro.sim.fast.run_schedule` unless traces are kept, so every
result an experiment records rests on the loop making the engine's draws
in the engine's order. These tests pin that contract at its two layers:
the generator (one ``rng.random(k)`` is ``k`` scalar draws, also after a
fading draw on the same stream) and whole executions (per-trial rounds
and per-round active counts, on every channel kind the protocol can run
on). Both runners share ``channel.listen``, so parity alone cannot see a
change in the order ``listen`` draws fading gains and intermittent
sources; :data:`PINNED` fixes those streams to values recorded before
the runners shared it.
"""

import numpy as np
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
from repro.sim.engine import Simulation
from repro.sim.fast import run_schedule
from repro.sim.runner import run_trials
from repro.sim.seeding import generator_from, spawn_seed_sequences
from repro.sinr.channel import SINRChannel
from repro.sinr.fading import RayleighFading
from repro.sinr.jamming import ExternalSource

SEED = 1602
TRIALS = 3
MAX_ROUNDS = 3_000

PROTOCOLS = {
    "simple": lambda channel: FixedProbabilityProtocol(),
    "aloha": lambda channel: SlottedAlohaProtocol(),
    "decay": lambda channel: DecayProtocol(),
    "decay-knockout": lambda channel: DecayProtocol(deactivate_on_receive=True),
    "js16": lambda channel: JurdzinskiStachowiakProtocol(),
    "sawtooth": lambda channel: SawtoothBackoffProtocol(),
    "sawtooth-knockout": lambda channel: SawtoothBackoffProtocol(
        deactivate_on_receive=True
    ),
    "cd-tournament": lambda channel: CollisionDetectionTournamentProtocol(),
    "carrier-sense": lambda channel: CarrierSenseTournamentProtocol(
        carrier_sense_threshold(channel)
    ),
}


def _channel(kind, n):
    if kind.startswith("radio"):
        return RadioChannel(n, collision_detection=kind == "radio-cd")
    positions = uniform_disk(n, generator_from((SEED, n)))
    fading = RayleighFading() if kind.startswith("rayleigh") else None
    sources = []
    if kind.endswith("jammer"):
        # On the air in half the rounds, just outside the deployment.
        radius = float(np.abs(positions).max())
        sources = [ExternalSource((2.0 * radius, 0.0), power=5.0, duty_cycle=0.5)]
    return SINRChannel(positions, gain_model=fading, external_sources=sources)


#: ``(protocol, channel) -> {n: per-trial rounds}`` over 4 trials; no
#: trial fails. Recorded on the generic engine before both runners
#: resolved rounds through ``channel.listen``.
PINNED = {
    ("simple", "rayleigh"): {16: [10, 2, 3, 1], 40: [2, 1, 1, 1]},
    ("simple", "duty-jammer"): {16: [7, 2, 26, 1], 40: [4, 1, 1, 1]},
    ("simple", "rayleigh-jammer"): {16: [3, 2, 3, 1], 40: [2, 1, 1, 1]},
    ("decay-knockout", "rayleigh"): {16: [3, 5, 3, 6], 40: [7, 4, 3, 4]},
    ("decay-knockout", "duty-jammer"): {16: [2, 5, 5, 3], 40: [3, 4, 4, 8]},
    ("decay-knockout", "rayleigh-jammer"): {16: [3, 4, 3, 5], 40: [9, 4, 14, 4]},
    ("carrier-sense", "rayleigh"): {16: [3, 3, 3, 5], 40: [9, 5, 9, 6]},
    ("carrier-sense", "duty-jammer"): {16: [4, 4, 4, 4], 40: [8, 4, 8, 7]},
    ("carrier-sense", "rayleigh-jammer"): {16: [6, 3, 4, 4], 40: [7, 5, 5, 6]},
}


def _cases():
    for protocol in PROTOCOLS:
        for kind in ("sinr", "rayleigh", "duty-jammer", "radio", "radio-cd"):
            if protocol == "cd-tournament" and kind != "radio-cd":
                continue
            if protocol == "carrier-sense" and kind.startswith("radio"):
                continue
            yield pytest.param(protocol, kind, id=f"{protocol}-{kind}")


class TestDrawForDraw:
    """The generator contract the loop's coin flips rest on."""

    @pytest.mark.parametrize("seed", [0, 7, 2016])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 65, 1000])
    def test_vector_draw_equals_scalar_draws(self, seed, k):
        vector, scalar = generator_from(seed), generator_from(seed)
        assert np.array_equal(
            vector.random(k), np.array([scalar.random() for _ in range(k)])
        )
        assert vector.random() == scalar.random()  # streams stay aligned

    @pytest.mark.parametrize("seed", [0, 7, 2016])
    @pytest.mark.parametrize("k", [1, 5, 33])
    def test_contract_holds_after_a_fading_draw(self, seed, k):
        base = np.arange(1.0, 37.0).reshape(6, 6)
        vector, scalar = generator_from(seed), generator_from(seed)
        for generator in (vector, scalar):
            RayleighFading().round_gains(base, generator)
        assert np.array_equal(
            vector.random(k), np.array([scalar.random() for _ in range(k)])
        )


class TestLoopMatchesEngine:
    @pytest.mark.parametrize("n", [16, 40])
    @pytest.mark.parametrize("protocol_name, kind", list(_cases()))
    def test_rounds_and_active_counts(self, protocol_name, kind, n):
        channel = _channel(kind, n)
        protocol = PROTOCOLS[protocol_name](channel)
        seed = (SEED, n)

        def factory(rng):
            return channel

        def batch(keep_traces):
            return run_trials(
                factory,
                protocol,
                TRIALS,
                seed=seed,
                max_rounds=MAX_ROUNDS,
                keep_traces=keep_traces,
            )

        engine, routed = batch(True), batch(False)
        assert routed.rounds == engine.rounds
        assert routed.failures == engine.failures
        assert routed.total_rounds_executed == engine.total_rounds_executed

        # Trial t's coins come from child 2t + 1 of the seed tree.
        sequences = spawn_seed_sequences(seed, 2 * TRIALS)
        for trial, trace in enumerate(engine.traces):
            result = run_schedule(
                channel,
                protocol,
                np.random.default_rng(sequences[2 * trial + 1]),
                MAX_ROUNDS,
            )
            assert result.solved_round == trace.solved_round
            assert result.rounds_executed == trace.rounds_executed
            assert result.active_counts == [
                len(record.active_before) for record in trace.records
            ]

    @pytest.mark.parametrize(
        "protocol_name, kind, message",
        [
            ("cd-tournament", "sinr", "collision-detection"),
            ("cd-tournament", "radio", "collision-detection"),
            ("carrier-sense", "radio", "carrier sensing"),
        ],
    )
    def test_refuses_what_the_engine_refuses(self, protocol_name, kind, message):
        channel = _channel(kind, 8)
        protocol = PROTOCOLS[protocol_name](_channel("sinr", 8))
        with pytest.raises(ValueError, match=message):
            Simulation(channel, protocol.build(8), rng=generator_from(0))
        with pytest.raises(ValueError, match=message):
            run_schedule(channel, protocol, generator_from(0))


class TestStochasticChannelPins:
    @pytest.mark.parametrize("keep_traces", [False, True], ids=["loop", "engine"])
    @pytest.mark.parametrize("n", [16, 40])
    @pytest.mark.parametrize(
        "protocol_name, kind",
        sorted(PINNED),
        ids=[f"{protocol}-{kind}" for protocol, kind in sorted(PINNED)],
    )
    def test_rounds_are_pinned(self, protocol_name, kind, n, keep_traces):
        channel = _channel(kind, n)
        stats = run_trials(
            lambda rng: channel,
            PROTOCOLS[protocol_name](channel),
            4,
            seed=(SEED, n),
            max_rounds=MAX_ROUNDS,
            keep_traces=keep_traces,
        )
        assert stats.failures == 0
        assert stats.rounds == PINNED[(protocol_name, kind)][n]


class TestTraceName:
    @pytest.mark.parametrize(
        "protocol",
        [DecayProtocol(), SlottedAlohaProtocol(), FixedProbabilityProtocol(0.2)],
        ids=lambda protocol: protocol.name,
    )
    def test_schedule_nodes_report_their_factory_name(self, protocol):
        channel = RadioChannel(8)
        trace = Simulation(channel, protocol.build(8), rng=generator_from(3)).run()
        assert trace.protocol_name == protocol.name
