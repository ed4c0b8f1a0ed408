"""Unit tests for the protocol base interface."""

from functools import partial

import pytest

from repro.protocols.base import (
    Action,
    Feedback,
    NodeProtocol,
    ProtocolFactory,
    ScheduleProtocol,
    constant,
)


class _MinimalNode(NodeProtocol):
    def decide(self, round_index, rng):
        return Action.LISTEN


class _MinimalFactory(ProtocolFactory):
    name = "minimal"

    def build(self, n):
        return [_MinimalNode(i) for i in range(n)]


class TestFeedback:
    def test_defaults(self):
        feedback = Feedback(transmitted=False)
        assert feedback.received is None
        assert feedback.observation is None
        assert feedback.energy is None

    def test_immutability(self):
        feedback = Feedback(transmitted=True)
        with pytest.raises(AttributeError):
            feedback.received = 3


class TestNodeProtocol:
    def test_starts_active(self):
        assert _MinimalNode(0).active

    def test_default_feedback_is_noop(self):
        node = _MinimalNode(0)
        node.on_feedback(0, Feedback(transmitted=False, received=5))
        assert node.active

    def test_default_capability_flags(self):
        assert _MinimalNode.requires_collision_detection is False
        assert _MinimalNode.requires_energy_sensing is False

    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            NodeProtocol(0)

    def test_repr_contains_id_and_state(self):
        node = _MinimalNode(3)
        assert "3" in repr(node)


class TestProtocolFactory:
    def test_default_flags(self):
        assert _MinimalFactory.knows_network_size is False
        assert _MinimalFactory.requires_collision_detection is False
        assert _MinimalFactory.requires_energy_sensing is False

    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            ProtocolFactory()

    def test_repr_mentions_name(self):
        assert "minimal" in repr(_MinimalFactory())

    def test_build_produces_sequential_ids(self):
        nodes = _MinimalFactory().build(4)
        assert [n.node_id for n in nodes] == [0, 1, 2, 3]


class TestActionEnum:
    def test_two_actions(self):
        assert {a.value for a in Action} == {"transmit", "listen"}


class _ConstantSchedule(ScheduleProtocol):
    name = "constant"

    def schedule(self, n):
        return partial(constant, 0.5)


class TestScheduleProtocol:
    def test_default_rule_never_concedes(self):
        node = _ConstantSchedule().build(1)[0]
        node.on_feedback(0, Feedback(transmitted=False, received=2, energy=9.0))
        assert node.active

    def test_rule_outside_closed_set_refused(self):
        protocol = _ConstantSchedule()
        protocol.concede = lambda feedback, threshold: True
        with pytest.raises(ValueError, match="CONCEDE_RULES"):
            protocol.build(2)

    def test_nodes_share_the_schedule(self):
        nodes = _ConstantSchedule().build(3)
        assert [n.node_id for n in nodes] == [0, 1, 2]
        assert all(n.probability(7) == 0.5 for n in nodes)
