"""Unit tests for the decay baseline (:mod:`repro.protocols.decay`)."""

import pytest

from repro.protocols.base import Action, Feedback
from repro.protocols.decay import DecayProtocol, decay_probability


def _sweep_length(nodes):
    """Period of the first node's schedule: rounds until p = 1/2 recurs."""
    probabilities = [nodes[0].probability(r) for r in range(1, 64)]
    return probabilities.index(0.5) + 1


class TestSchedule:
    def test_sweep_probabilities_halve(self):
        assert decay_probability(4, 0) == pytest.approx(0.5)
        assert decay_probability(4, 1) == pytest.approx(0.25)
        assert decay_probability(4, 2) == pytest.approx(0.125)
        assert decay_probability(4, 3) == pytest.approx(0.0625)

    def test_sweep_wraps_around(self):
        assert decay_probability(4, 4) == decay_probability(4, 0)
        assert decay_probability(4, 7) == decay_probability(4, 3)

    def test_sweep_length_matches_log_bound(self):
        nodes = DecayProtocol(size_bound=256).build(10)
        assert _sweep_length(nodes) == 8  # log2(256)

    def test_sweep_length_for_non_power_of_two(self):
        nodes = DecayProtocol(size_bound=100).build(10)
        assert _sweep_length(nodes) == 7  # ceil(log2(100))

    def test_default_bound_uses_actual_n(self):
        nodes = DecayProtocol().build(64)
        assert _sweep_length(nodes) == 6

    def test_minimum_sweep_length(self):
        nodes = DecayProtocol().build(1)
        assert _sweep_length(nodes) >= 1


class TestFactoryValidation:
    def test_bound_below_n_rejected(self):
        with pytest.raises(ValueError, match="below"):
            DecayProtocol(size_bound=4).build(8)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError, match="size_bound"):
            DecayProtocol(size_bound=0)

    def test_knows_network_size(self):
        assert DecayProtocol.knows_network_size is True

    def test_name_includes_bound(self):
        assert "N=32" in DecayProtocol(size_bound=32).name


class TestBehaviour:
    def test_empirical_rate_tracks_schedule(self, rng):
        node = DecayProtocol(size_bound=8).build(1)[0]  # sweep length 3
        # Round 0 of every sweep has p = 1/2.
        hits = sum(
            node.decide(3 * sweep, rng) is Action.TRANSMIT for sweep in range(3_000)
        )
        assert hits / 3_000 == pytest.approx(0.5, abs=0.04)

    def test_no_knockout_by_default(self):
        node = DecayProtocol(size_bound=8).build(1)[0]
        node.on_feedback(0, Feedback(transmitted=False, received=2))
        assert node.active

    def test_knockout_when_enabled(self):
        node = DecayProtocol(size_bound=8, deactivate_on_receive=True).build(1)[0]
        node.on_feedback(0, Feedback(transmitted=False, received=2))
        assert not node.active
