"""Unit tests for the ALOHA and BEB baselines."""

import pytest

from repro.protocols.aloha import SlottedAlohaProtocol
from repro.protocols.backoff import (
    BinaryExponentialBackoffNode,
    BinaryExponentialBackoffProtocol,
)
from repro.protocols.base import Action, Feedback


class TestAloha:
    def test_probability_is_one_over_n(self):
        nodes = SlottedAlohaProtocol().build(8)
        assert all(node.probability(0) == pytest.approx(1 / 8) for node in nodes)

    def test_single_node_always_transmits(self, rng):
        nodes = SlottedAlohaProtocol().build(1)
        assert nodes[0].decide(0, rng) is Action.TRANSMIT

    def test_empirical_rate(self, rng):
        node = SlottedAlohaProtocol().build(4)[0]  # p = 1/4
        hits = sum(node.decide(r, rng) is Action.TRANSMIT for r in range(4_000))
        assert hits / 4_000 == pytest.approx(0.25, abs=0.03)

    def test_declares_genie_knowledge(self):
        assert SlottedAlohaProtocol.knows_network_size is True

    def test_no_knockout(self):
        node = SlottedAlohaProtocol().build(2)[0]  # p = 1/2
        node.on_feedback(0, Feedback(transmitted=False, received=1))
        assert node.active

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            SlottedAlohaProtocol().build(0)


class TestBackoffNode:
    def test_first_transmission_within_initial_window(self, rng):
        node = BinaryExponentialBackoffNode(0, initial_window=1, max_window=64)
        assert node.decide(0, rng) is Action.TRANSMIT  # countdown starts at 0

    def test_window_doubles_after_transmission(self, rng):
        node = BinaryExponentialBackoffNode(0, initial_window=2, max_window=64)
        node.decide(0, rng)  # transmits, doubles window
        assert node.window == 4

    def test_window_caps_at_max(self, rng):
        node = BinaryExponentialBackoffNode(0, initial_window=2, max_window=8)
        for r in range(200):
            node.decide(r, rng)
        assert node.window <= 8

    def test_listens_during_countdown(self, rng):
        node = BinaryExponentialBackoffNode(0, initial_window=1, max_window=1 << 20)
        actions = [node.decide(r, rng) for r in range(100)]
        # Windows grow, so transmissions become sparse: between any two
        # transmissions there is at least one listen once the window > 1.
        transmit_rounds = [r for r, a in enumerate(actions) if a is Action.TRANSMIT]
        assert len(transmit_rounds) < 50

    def test_knockout_on_receive(self):
        node = BinaryExponentialBackoffNode(0, initial_window=2, max_window=8)
        node.on_feedback(0, Feedback(transmitted=False, received=1))
        assert not node.active

    def test_validation(self):
        with pytest.raises(ValueError, match="initial_window"):
            BinaryExponentialBackoffNode(0, initial_window=0, max_window=4)
        with pytest.raises(ValueError, match="max_window"):
            BinaryExponentialBackoffNode(0, initial_window=8, max_window=4)


class TestBackoffFactory:
    def test_no_size_knowledge(self):
        assert BinaryExponentialBackoffProtocol.knows_network_size is False

    def test_validation(self):
        with pytest.raises(ValueError):
            BinaryExponentialBackoffProtocol(initial_window=0)
        with pytest.raises(ValueError):
            BinaryExponentialBackoffProtocol(initial_window=8, max_window=4)

    def test_builds_independent_nodes(self, rng):
        # Windows are per-node state: advancing one node must not touch
        # its siblings.
        nodes = BinaryExponentialBackoffProtocol().build(3)
        nodes[0].decide(0, rng)  # transmits and doubles its own window
        assert nodes[0].window == 4
        assert nodes[1].window == 2
        assert nodes[2].window == 2
