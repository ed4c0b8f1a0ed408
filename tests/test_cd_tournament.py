"""Unit tests for the collision-detection tournament protocol."""

import pytest

from repro.protocols.base import Feedback
from repro.protocols.cd_tournament import CollisionDetectionTournamentProtocol
from repro.radio.channel import ChannelObservation, RadioChannel
from repro.sim.engine import Simulation
from repro.sim.seeding import generator_from


class TestNodeRules:
    def test_listener_concedes_on_collision(self):
        node = CollisionDetectionTournamentProtocol(p=0.5).build(1)[0]
        node.on_feedback(
            0,
            Feedback(
                transmitted=False,
                received=None,
                observation=ChannelObservation.COLLISION,
            ),
        )
        assert not node.active

    def test_listener_stays_on_silence(self):
        node = CollisionDetectionTournamentProtocol(p=0.5).build(1)[0]
        node.on_feedback(
            0,
            Feedback(
                transmitted=False,
                received=None,
                observation=ChannelObservation.SILENCE,
            ),
        )
        assert node.active

    def test_transmitter_never_concedes(self):
        node = CollisionDetectionTournamentProtocol(p=0.5).build(1)[0]
        node.on_feedback(0, Feedback(transmitted=True))
        assert node.active

    def test_listener_stays_on_message(self):
        node = CollisionDetectionTournamentProtocol(p=0.5).build(1)[0]
        node.on_feedback(
            0,
            Feedback(
                transmitted=False,
                received=3,
                observation=ChannelObservation.MESSAGE,
            ),
        )
        assert node.active

    def test_declares_cd_requirement(self):
        node = CollisionDetectionTournamentProtocol(p=0.5).build(1)[0]
        assert node.requires_collision_detection is True
        assert node.requires_energy_sensing is False
        assert CollisionDetectionTournamentProtocol.requires_collision_detection is True


class TestFactory:
    def test_probability_validation(self):
        with pytest.raises(ValueError, match="probability"):
            CollisionDetectionTournamentProtocol(p=0.0)
        with pytest.raises(ValueError, match="probability"):
            CollisionDetectionTournamentProtocol(p=1.0)


class TestEndToEnd:
    def test_refuses_channel_without_cd(self):
        channel = RadioChannel(4, collision_detection=False)
        nodes = CollisionDetectionTournamentProtocol().build(4)
        with pytest.raises(ValueError, match="collision-detection"):
            Simulation(channel, nodes, rng=generator_from(0))

    def test_refuses_sinr_channel(self, small_channel):
        nodes = CollisionDetectionTournamentProtocol().build(small_channel.n)
        with pytest.raises(ValueError, match="collision-detection"):
            Simulation(small_channel, nodes, rng=generator_from(0))

    def test_solves_quickly_on_cd_channel(self):
        channel = RadioChannel(64, collision_detection=True)
        nodes = CollisionDetectionTournamentProtocol().build(64)
        trace = Simulation(
            channel, nodes, rng=generator_from(42), max_rounds=1_000
        ).run()
        assert trace.solved
        # Theta(log n): 64 nodes should be done in well under 100 rounds.
        assert trace.rounds_to_solve < 100

    def test_active_set_shrinks_monotonically(self):
        channel = RadioChannel(32, collision_detection=True)
        nodes = CollisionDetectionTournamentProtocol().build(32)
        trace = Simulation(
            channel, nodes, rng=generator_from(7), max_rounds=1_000
        ).run()
        counts = trace.active_counts()
        assert all(a >= b for a, b in zip(counts, counts[1:]))
