"""Unit tests for the carrier-sense tournament extension."""

import pytest

from repro.protocols.base import Feedback
from repro.protocols.carrier_sense import (
    CarrierSenseTournamentProtocol,
    carrier_sense_threshold,
)
from repro.protocols.simple import FixedProbabilityProtocol
from repro.radio.channel import RadioChannel
from repro.sim.engine import Simulation
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel
from repro.sinr.parameters import SINRParameters


class TestThresholdSizing:
    def test_single_far_transmitter_exceeds_threshold(self):
        channel = SINRChannel([(0.0, 0.0), (50.0, 0.0)])
        threshold = carrier_sense_threshold(channel)
        # The gain at the full diameter is 2x the threshold by construction.
        assert channel.base_gains[0, 1] >= threshold

    def test_threshold_positive(self, small_channel):
        assert carrier_sense_threshold(small_channel) > 0.0

    def test_single_node_channel(self):
        channel = SINRChannel([(0.0, 0.0)])
        assert carrier_sense_threshold(channel) > 0.0


class TestNodeRules:
    def test_concede_on_energy_above_threshold(self):
        node = CarrierSenseTournamentProtocol(threshold=1.0, p=0.5).build(1)[0]
        node.on_feedback(0, Feedback(transmitted=False, energy=2.0))
        assert not node.active

    def test_concede_on_decode(self):
        node = CarrierSenseTournamentProtocol(threshold=1.0, p=0.5).build(1)[0]
        node.on_feedback(0, Feedback(transmitted=False, received=3, energy=0.1))
        assert not node.active

    def test_stay_on_silence(self):
        node = CarrierSenseTournamentProtocol(threshold=1.0, p=0.5).build(1)[0]
        node.on_feedback(0, Feedback(transmitted=False, energy=0.5))
        assert node.active

    def test_stay_when_energy_missing(self):
        # Nobody transmitted: the channel reports no energy at all.
        node = CarrierSenseTournamentProtocol(threshold=1.0, p=0.5).build(1)[0]
        node.on_feedback(0, Feedback(transmitted=False))
        assert node.active

    def test_transmitter_never_concedes(self):
        node = CarrierSenseTournamentProtocol(threshold=1.0, p=0.5).build(1)[0]
        node.on_feedback(0, Feedback(transmitted=True))
        assert node.active

    def test_declares_energy_requirement(self):
        node = CarrierSenseTournamentProtocol(threshold=1.0, p=0.5).build(1)[0]
        assert node.requires_energy_sensing is True
        assert node.requires_collision_detection is False
        assert CarrierSenseTournamentProtocol.requires_energy_sensing is True


class TestFactory:
    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            CarrierSenseTournamentProtocol(threshold=0.0)
        with pytest.raises(ValueError, match="probability"):
            CarrierSenseTournamentProtocol(threshold=1.0, p=1.0)

    def test_builds_n_nodes(self):
        assert len(CarrierSenseTournamentProtocol(threshold=1.0).build(5)) == 5


class TestEngineIntegration:
    def test_refuses_radio_channel(self):
        channel = RadioChannel(4)
        nodes = CarrierSenseTournamentProtocol(threshold=1.0).build(4)
        with pytest.raises(ValueError, match="carrier sensing"):
            Simulation(channel, nodes, rng=generator_from(0))

    def test_energy_reaches_listeners(self, small_channel):
        # A plain knockout protocol on the SINR channel receives energy in
        # its feedback (even if it ignores it).
        energies = []

        class Probe(FixedProbabilityProtocol):
            pass

        nodes = Probe(p=0.3).build(small_channel.n)
        original = nodes[0].on_feedback

        def spy(round_index, feedback, _orig=original):
            energies.append(feedback.energy)
            _orig(round_index, feedback)

        nodes[0].on_feedback = spy
        Simulation(
            small_channel, nodes, rng=generator_from(5), max_rounds=50
        ).run()
        assert any(e is not None and e > 0 for e in energies if e is not None)

    def test_solves_on_sinr(self, small_channel):
        threshold = carrier_sense_threshold(small_channel)
        nodes = CarrierSenseTournamentProtocol(threshold).build(small_channel.n)
        trace = Simulation(
            small_channel, nodes, rng=generator_from(6), max_rounds=2_000
        ).run()
        assert trace.solved

    def test_collision_round_eliminates_all_listeners(self):
        # Force a known round: with p extremely high, nearly everyone
        # transmits; any listener must sense the energy and concede.
        channel = SINRChannel(
            [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0), (3.0, 3.0)],
            params=SINRParameters(),
        )
        threshold = carrier_sense_threshold(channel)
        nodes = CarrierSenseTournamentProtocol(threshold, p=0.5).build(4)
        trace = Simulation(
            channel, nodes, rng=generator_from(7), max_rounds=500
        ).run()
        assert trace.solved
        for record in trace.records:
            if len(record.transmitters) >= 2:
                listeners = set(record.active_before) - set(record.transmitters)
                assert listeners <= set(record.knocked_out)

    def test_logarithmic_rounds_at_scale(self):
        rng = generator_from(8)
        from repro.deploy.topologies import uniform_disk

        positions = uniform_disk(128, rng)
        channel = SINRChannel(positions)
        threshold = carrier_sense_threshold(channel)
        nodes = CarrierSenseTournamentProtocol(threshold).build(128)
        trace = Simulation(channel, nodes, rng=rng, max_rounds=2_000).run()
        assert trace.solved
        assert trace.rounds_to_solve < 60
