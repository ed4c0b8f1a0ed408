"""Unit tests for sawtooth backoff."""

import numpy as np
import pytest

from repro.protocols.base import Feedback
from repro.protocols.sawtooth import (
    SawtoothBackoffProtocol,
    _window_of_round,
    sawtooth_probability,
)
from repro.radio.channel import RadioChannel
from repro.sim.engine import Simulation
from repro.sim.runner import run_trials
from repro.sim.seeding import generator_from


def _walked_window(round_index, max_exponent):
    """The reference: walk the windows 2, 4, ..., 2^m of one cycle."""
    cycle_length = sum(2**e for e in range(1, max_exponent + 1))
    position = round_index % cycle_length
    for exponent in range(1, max_exponent + 1):
        if position < 2**exponent:
            return 2**exponent
        position -= 2**exponent
    raise AssertionError("position exceeded the cycle length")


class TestWindowSchedule:
    @pytest.mark.parametrize("max_exponent", [1, 2, 3, 5])
    def test_matches_window_walk_over_three_cycles(self, max_exponent):
        cycle_length = 2 ** (max_exponent + 1) - 2
        for round_index in range(3 * cycle_length):
            assert _window_of_round(round_index, max_exponent) == _walked_window(
                round_index, max_exponent
            ), round_index

    def test_matches_window_walk_at_the_default_cap(self):
        for round_index in range(0, 200_000, 7):
            assert _window_of_round(round_index, 20) == _walked_window(round_index, 20)

    def test_first_windows(self):
        # Windows 2, 4, 8: rounds 0-1 size 2, rounds 2-5 size 4, 6-13 size 8.
        assert _window_of_round(0, max_exponent=3) == 2
        assert _window_of_round(1, max_exponent=3) == 2
        assert _window_of_round(2, max_exponent=3) == 4
        assert _window_of_round(5, max_exponent=3) == 4
        assert _window_of_round(6, max_exponent=3) == 8
        assert _window_of_round(13, max_exponent=3) == 8

    def test_sawtooth_restarts(self):
        cycle = 2 + 4 + 8
        assert _window_of_round(cycle, max_exponent=3) == 2
        assert _window_of_round(cycle + 2, max_exponent=3) == 4

    def test_probability_is_reciprocal_window(self):
        assert sawtooth_probability(3, 0) == pytest.approx(0.5)
        assert sawtooth_probability(3, 3) == pytest.approx(0.25)
        assert sawtooth_probability(3, 10) == pytest.approx(0.125)

    def test_each_window_w_lasts_w_rounds(self):
        probabilities = [sawtooth_probability(5, r) for r in range(2 + 4 + 8 + 16 + 32)]
        for w in (2, 4, 8, 16, 32):
            assert probabilities.count(pytest.approx(1.0 / w)) == w


class TestFactory:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_exponent"):
            SawtoothBackoffProtocol(max_exponent=0)
        with pytest.raises(ValueError, match="n"):
            SawtoothBackoffProtocol().build(0)

    def test_no_size_knowledge(self):
        assert SawtoothBackoffProtocol.knows_network_size is False

    def test_knockout_flag(self):
        node = SawtoothBackoffProtocol(deactivate_on_receive=True).build(1)[0]
        node.on_feedback(0, Feedback(transmitted=False, received=2))
        assert not node.active
        quiet = SawtoothBackoffProtocol().build(1)[0]
        quiet.on_feedback(0, Feedback(transmitted=False, received=2))
        assert quiet.active


class TestBehaviour:
    def test_solves_radio_channel(self):
        channel = RadioChannel(16)
        nodes = SawtoothBackoffProtocol().build(16)
        trace = Simulation(
            channel, nodes, rng=generator_from(3), max_rounds=50_000
        ).run()
        assert trace.solved

    def test_linear_growth_versus_decay(self):
        """The sawtooth's solve time grows linearly in n (the window before
        the adequate one costs ~2n rounds), while decay's grows like log n
        — the separation that motivates decay's design.
        """
        from repro.protocols.decay import DecayProtocol

        means = {}
        for n in (8, 64):
            saw = run_trials(
                lambda rng, n=n: RadioChannel(n),
                SawtoothBackoffProtocol(),
                trials=40,
                seed=(61, n),
                max_rounds=100_000,
            )
            dec = run_trials(
                lambda rng, n=n: RadioChannel(n),
                DecayProtocol(),
                trials=40,
                seed=(62, n),
                max_rounds=100_000,
            )
            means[n] = (saw.mean_rounds, dec.mean_rounds)
        saw_growth = means[64][0] / means[8][0]
        dec_growth = means[64][1] / means[8][1]
        # 8x more nodes: sawtooth should grow several-fold, decay mildly.
        assert saw_growth > 2.5
        assert dec_growth < saw_growth

    def test_oblivious_schedule_integration(self):
        from repro.protocols.schedules import probability_schedule

        schedule = probability_schedule(SawtoothBackoffProtocol(max_exponent=3), horizon=14)
        assert schedule[0] == pytest.approx(0.5)
        assert schedule[13] == pytest.approx(0.125)
