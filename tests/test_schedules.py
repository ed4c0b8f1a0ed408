"""Unit tests for schedule inspection."""

import numpy as np
import pytest

from repro.protocols.aloha import SlottedAlohaProtocol
from repro.protocols.backoff import BinaryExponentialBackoffProtocol
from repro.protocols.decay import DecayProtocol
from repro.protocols.js16 import JurdzinskiStachowiakProtocol, _schedule_parameters
from repro.protocols.schedules import (
    expected_transmitters,
    has_oblivious_schedule,
    probability_schedule,
    solo_probability,
)
from repro.protocols.simple import FixedProbabilityProtocol


class TestProbabilitySchedule:
    def test_simple_is_constant(self):
        schedule = probability_schedule(FixedProbabilityProtocol(p=0.2), horizon=10)
        assert np.allclose(schedule, 0.2)

    def test_decay_sweeps(self):
        schedule = probability_schedule(DecayProtocol(size_bound=8), horizon=6, n=8)
        assert np.allclose(schedule[:3], [0.5, 0.25, 0.125])
        assert schedule[3] == pytest.approx(0.5)  # wraps

    def test_js16_dwells(self):
        factory = JurdzinskiStachowiakProtocol(size_bound=1 << 16)
        schedule = probability_schedule(factory, horizon=8, n=16)
        # Probabilities change only every `dwell` rounds.
        _, dwell, _ = _schedule_parameters(1 << 16)
        assert schedule[0] == schedule[dwell - 1]

    def test_aloha_uses_constant_p(self):
        schedule = probability_schedule(SlottedAlohaProtocol(), horizon=4, n=4)
        assert np.allclose(schedule, 0.25)

    def test_beb_rejected(self):
        with pytest.raises(TypeError, match="oblivious"):
            probability_schedule(BinaryExponentialBackoffProtocol(), horizon=4)

    def test_horizon_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            probability_schedule(FixedProbabilityProtocol(), horizon=0)


class TestHasObliviousSchedule:
    def test_detection(self):
        assert has_oblivious_schedule(FixedProbabilityProtocol())
        assert has_oblivious_schedule(DecayProtocol(size_bound=4))
        assert not has_oblivious_schedule(BinaryExponentialBackoffProtocol())


class TestExpectedTransmitters:
    def test_simultaneous_constant_protocol(self):
        expected = expected_transmitters(
            FixedProbabilityProtocol(p=0.1), activations=[0, 0, 0, 0], horizon=3
        )
        assert np.allclose(expected, 0.4)

    def test_staggered_nodes_ramp_up(self):
        expected = expected_transmitters(
            FixedProbabilityProtocol(p=0.5), activations=[0, 2], horizon=4
        )
        assert np.allclose(expected, [0.5, 0.5, 1.0, 1.0])

    def test_decay_alignment_matters(self):
        # Simultaneous decay nodes all probe p=1/2 at round 0 (aggregate
        # n/2); staggered by one round they mix 1/2 and 1/4.
        factory = DecayProtocol(size_bound=4)
        aligned = expected_transmitters(factory, [0, 0], horizon=3)
        staggered = expected_transmitters(factory, [0, 1], horizon=3)
        assert aligned[0] == pytest.approx(1.0)
        assert staggered[1] == pytest.approx(0.25 + 0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            expected_transmitters(FixedProbabilityProtocol(), [-1], horizon=2)
        with pytest.raises(ValueError, match="one node"):
            expected_transmitters(FixedProbabilityProtocol(), [], horizon=2)
        with pytest.raises(ValueError, match="horizon"):
            expected_transmitters(FixedProbabilityProtocol(), [0], horizon=0)


class TestSoloProbability:
    def test_known_values(self):
        assert solo_probability(1, 0.3) == pytest.approx(0.3)
        assert solo_probability(2, 0.5) == pytest.approx(0.5)
        assert solo_probability(4, 0.25) == pytest.approx(4 * 0.25 * 0.75**3)

    def test_degenerate_p(self):
        assert solo_probability(1, 1.0) == 1.0
        assert solo_probability(3, 1.0) == 0.0
        assert solo_probability(5, 0.0) == 0.0

    def test_maximised_near_one_over_n(self):
        n = 32
        at_opt = solo_probability(n, 1.0 / n)
        assert at_opt > solo_probability(n, 0.3)
        assert at_opt > solo_probability(n, 0.001)

    def test_validation(self):
        with pytest.raises(ValueError, match="n"):
            solo_probability(0, 0.5)
        with pytest.raises(ValueError, match="p"):
            solo_probability(2, 1.5)
