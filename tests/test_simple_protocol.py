"""Unit tests for the paper's algorithm (:mod:`repro.protocols.simple`)."""

import numpy as np
import pytest

from repro.protocols.base import Action, Feedback
from repro.protocols.simple import FixedProbabilityProtocol


def _node(p, node_id=0):
    """Node ``node_id`` of the paper's algorithm with probability ``p``."""
    return FixedProbabilityProtocol(p=p).build(node_id + 1)[node_id]


class TestFactory:
    def test_builds_one_node_per_id(self):
        nodes = FixedProbabilityProtocol(p=0.3).build(5)
        assert [node.node_id for node in nodes] == [0, 1, 2, 3, 4]

    def test_all_nodes_start_active(self):
        assert all(node.active for node in FixedProbabilityProtocol().build(4))

    def test_probability_propagates(self):
        nodes = FixedProbabilityProtocol(p=0.42).build(2)
        assert all(node.probability(0) == 0.42 for node in nodes)

    def test_invalid_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FixedProbabilityProtocol(p=0.0)
        with pytest.raises(ValueError, match="probability"):
            FixedProbabilityProtocol(p=1.5)

    def test_probability_one_allowed(self):
        # p = 1 is degenerate but legal; it can never solve for n >= 2,
        # which the engine handles via the round budget.
        assert FixedProbabilityProtocol(p=1.0).p == 1.0

    def test_does_not_know_network_size(self):
        # The paper's key advantage over decay/JS16.
        assert FixedProbabilityProtocol.knows_network_size is False

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="n"):
            FixedProbabilityProtocol().build(0)

    def test_name_mentions_p(self):
        assert "0.25" in FixedProbabilityProtocol(p=0.25).name


class TestDecide:
    def test_probability_one_always_transmits(self, rng):
        node = _node(1.0)
        assert all(
            node.decide(r, rng) is Action.TRANSMIT for r in range(50)
        )

    def test_empirical_rate_matches_p(self, rng):
        node = _node(0.3)
        transmissions = sum(
            node.decide(r, rng) is Action.TRANSMIT for r in range(5_000)
        )
        assert transmissions / 5_000 == pytest.approx(0.3, abs=0.03)

    def test_decision_is_time_invariant(self, rng):
        # The schedule is memoryless: the round index must not matter.
        node = _node(0.5)
        early = sum(node.decide(r, rng) is Action.TRANSMIT for r in range(2_000))
        late = sum(
            node.decide(r, rng) is Action.TRANSMIT
            for r in range(10**6, 10**6 + 2_000)
        )
        assert abs(early - late) < 200


class TestKnockout:
    def test_reception_deactivates(self):
        node = _node(0.5)
        node.on_feedback(0, Feedback(transmitted=False, received=3))
        assert not node.active

    def test_silence_keeps_active(self):
        node = _node(0.5)
        node.on_feedback(0, Feedback(transmitted=False, received=None))
        assert node.active

    def test_transmitting_keeps_active(self):
        node = _node(0.5)
        node.on_feedback(0, Feedback(transmitted=True))
        assert node.active

    def test_knockout_is_permanent(self):
        node = _node(0.5)
        node.on_feedback(0, Feedback(transmitted=False, received=1))
        node.on_feedback(1, Feedback(transmitted=False, received=None))
        assert not node.active

    def test_receiving_from_node_zero_counts(self):
        # Sender id 0 is falsy; the knockout test must use `is not None`.
        node = _node(0.5, node_id=1)
        node.on_feedback(0, Feedback(transmitted=False, received=0))
        assert not node.active


class TestRepr:
    def test_repr_shows_state(self):
        node = _node(0.5, node_id=7)
        assert "7" in repr(node)
        assert "active" in repr(node)
        node.on_feedback(0, Feedback(transmitted=False, received=1))
        assert "inactive" in repr(node)
