"""Unit tests for the JS16-style baseline (:mod:`repro.protocols.js16`)."""

import math

import pytest

from repro.protocols.base import Feedback
from repro.protocols.js16 import (
    JurdzinskiStachowiakProtocol,
    _schedule_parameters,
    js16_probability,
)


class TestScheduleParameters:
    def test_base_is_log_of_bound(self):
        _, _, base = _schedule_parameters(1024)
        assert base == pytest.approx(10.0)  # log2(1024)

    def test_steps_cover_bound(self):
        # base^num_steps must reach the size bound so every contention
        # level has a nearby probability.
        for bound in (16, 256, 4096, 10**6):
            num_steps, _, base = _schedule_parameters(bound)
            assert base**num_steps >= bound * 0.5

    def test_sweep_is_shorter_than_decay(self):
        # The whole point: the sweep visits ~log N / log log N
        # probabilities instead of log N.
        bound = 2**20
        num_steps, _, _ = _schedule_parameters(bound)
        assert num_steps < math.log2(bound)

    def test_dwell_grows_loglog(self):
        _, dwell_small, _ = _schedule_parameters(16)
        _, dwell_large, _ = _schedule_parameters(2**32)
        assert dwell_large > dwell_small


class TestNode:
    def test_probability_schedule_shape(self):
        # Step 0 (rounds 0-1): 1/4; step 1 (rounds 2-3): 1/16; ...
        assert js16_probability(3, 2, 4.0, 0) == pytest.approx(0.25)
        assert js16_probability(3, 2, 4.0, 1) == pytest.approx(0.25)
        assert js16_probability(3, 2, 4.0, 2) == pytest.approx(1 / 16)
        assert js16_probability(3, 2, 4.0, 4) == pytest.approx(1 / 64)

    def test_schedule_wraps(self):
        assert js16_probability(3, 2, 4.0, 6) == js16_probability(3, 2, 4.0, 0)

    def test_knockout_on_receive(self):
        node = JurdzinskiStachowiakProtocol(size_bound=4).build(1)[0]
        node.on_feedback(0, Feedback(transmitted=False, received=1))
        assert not node.active


class TestFactory:
    def test_requires_valid_bound(self):
        with pytest.raises(ValueError, match="size_bound"):
            JurdzinskiStachowiakProtocol(size_bound=0)

    def test_bound_below_n_rejected(self):
        with pytest.raises(ValueError, match="below"):
            JurdzinskiStachowiakProtocol(size_bound=4).build(8)

    def test_knows_network_size(self):
        # The paper stresses this asymmetry with its own algorithm.
        assert JurdzinskiStachowiakProtocol.knows_network_size is True

    def test_builds_n_nodes(self):
        assert len(JurdzinskiStachowiakProtocol().build(7)) == 7
