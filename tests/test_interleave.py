"""Unit tests for the round-robin interleaving combiner."""

import pytest

from repro.protocols.base import Action, Feedback, NodeProtocol, ProtocolFactory
from repro.protocols.carrier_sense import CarrierSenseTournamentProtocol
from repro.protocols.cd_tournament import CollisionDetectionTournamentProtocol
from repro.protocols.decay import DecayProtocol
from repro.protocols.interleave import InterleavedNode, InterleavedProtocol
from repro.protocols.simple import FixedProbabilityProtocol
from repro.radio.channel import RadioChannel
from repro.sim.engine import Simulation
from repro.sim.seeding import generator_from


class _ScriptedNode(NodeProtocol):
    """Deterministic node that records the rounds it is asked about."""

    def __init__(self, node_id, action=Action.LISTEN):
        super().__init__(node_id)
        self.action = action
        self.seen_rounds = []
        self.feedback_rounds = []

    def decide(self, round_index, rng):
        self.seen_rounds.append(round_index)
        return self.action

    def on_feedback(self, round_index, feedback):
        self.feedback_rounds.append(round_index)


class _ScriptedFactory(ProtocolFactory):
    name = "scripted"

    def __init__(self, action=Action.LISTEN):
        self.action = action
        self.built = []

    def build(self, n):
        nodes = [_ScriptedNode(i, self.action) for i in range(n)]
        self.built.append(nodes)
        return nodes


class TestTimeMultiplexing:
    def test_even_lane_sees_halved_rounds(self, rng):
        even = _ScriptedFactory()
        odd = _ScriptedFactory()
        node = InterleavedProtocol(even, odd).build(1)[0]
        for global_round in range(6):
            node.decide(global_round, rng)
        assert even.built[0][0].seen_rounds == [0, 1, 2]
        assert odd.built[0][0].seen_rounds == [0, 1, 2]

    def test_feedback_routed_to_correct_lane(self, rng):
        even = _ScriptedFactory()
        odd = _ScriptedFactory()
        node = InterleavedProtocol(even, odd).build(1)[0]
        node.on_feedback(0, Feedback(transmitted=False))
        node.on_feedback(1, Feedback(transmitted=False))
        node.on_feedback(2, Feedback(transmitted=False))
        assert even.built[0][0].feedback_rounds == [0, 1]
        assert odd.built[0][0].feedback_rounds == [0]

    def test_actions_pass_through(self, rng):
        even = _ScriptedFactory(action=Action.TRANSMIT)
        odd = _ScriptedFactory(action=Action.LISTEN)
        node = InterleavedProtocol(even, odd).build(1)[0]
        assert node.decide(0, rng) is Action.TRANSMIT
        assert node.decide(1, rng) is Action.LISTEN


class TestKnockoutPropagation:
    def test_either_lane_knockout_silences_node(self, rng):
        even = FixedProbabilityProtocol(p=0.5)
        odd = FixedProbabilityProtocol(p=0.5)
        node = InterleavedProtocol(even, odd).build(1)[0]
        # Knock out via the even lane (round 0 feedback with a reception).
        node.on_feedback(0, Feedback(transmitted=False, received=7))
        assert not node.active

    def test_inactive_lane_listens_quietly(self, rng):
        even = _ScriptedFactory(action=Action.TRANSMIT)
        odd = _ScriptedFactory(action=Action.TRANSMIT)
        node = InterleavedProtocol(even, odd).build(1)[0]
        # Deactivate only the even-lane sub-node directly.
        node.even_node._active = False
        assert node.decide(0, rng) is Action.LISTEN  # even round: silent
        assert node.decide(1, rng) is Action.TRANSMIT  # odd lane unaffected


class TestFactory:
    def test_name_combines_lanes(self):
        combined = InterleavedProtocol(
            FixedProbabilityProtocol(p=0.1), DecayProtocol(size_bound=8)
        )
        assert "simple" in combined.name
        assert "decay" in combined.name

    def test_knows_size_if_either_lane_does(self):
        assert InterleavedProtocol(
            FixedProbabilityProtocol(), DecayProtocol(size_bound=8)
        ).knows_network_size
        assert not InterleavedProtocol(
            FixedProbabilityProtocol(), FixedProbabilityProtocol()
        ).knows_network_size

    def test_rejects_cd_lanes(self):
        with pytest.raises(ValueError, match="collision-detection"):
            InterleavedProtocol(
                CollisionDetectionTournamentProtocol(), FixedProbabilityProtocol()
            )

    def test_end_to_end_solves(self):
        channel = RadioChannel(16)
        protocol = InterleavedProtocol(
            FixedProbabilityProtocol(p=0.1), DecayProtocol(size_bound=16)
        )
        nodes = protocol.build(16)
        trace = Simulation(
            channel, nodes, rng=generator_from(5), max_rounds=5_000
        ).run()
        assert trace.solved


class TestCapabilities:
    """An interleaved protocol needs whatever either of its lanes needs."""

    def _carrier_sense_lane(self):
        return InterleavedProtocol(CarrierSenseTournamentProtocol(1.0), DecayProtocol())

    def test_declares_lane_energy_sensing(self):
        protocol = self._carrier_sense_lane()
        assert protocol.requires_energy_sensing
        assert protocol.build(2)[0].requires_energy_sensing
        plain = InterleavedProtocol(FixedProbabilityProtocol(), DecayProtocol())
        assert not plain.requires_energy_sensing
        assert not plain.build(2)[0].requires_energy_sensing

    def test_energy_sensing_lane_refused_on_radio(self):
        # The lane alone is refused; hiding it in an interleaving must not
        # let it run blind (it would never concede on energy).
        nodes = self._carrier_sense_lane().build(16)
        with pytest.raises(ValueError, match="carrier sensing"):
            Simulation(RadioChannel(16), nodes, rng=generator_from(0))
