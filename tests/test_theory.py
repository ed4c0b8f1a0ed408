"""Tests for the closed-form predictions — including measured-vs-predicted."""

import math

import pytest

from repro.analysis.theory import (
    adaptive_hitting_floor,
    aloha_expected_rounds,
    aloha_round_success_probability,
    cd_tournament_expected_rounds,
    decay_sweep_length,
    decay_sweep_success_lower_bound,
    geometric_knockout_rounds,
    two_player_failure_floor,
)


class TestClosedForms:
    def test_aloha_small_cases(self):
        assert aloha_round_success_probability(1) == 1.0
        assert aloha_round_success_probability(2) == pytest.approx(0.5)

    def test_aloha_limit_is_one_over_e(self):
        assert aloha_round_success_probability(10_000) == pytest.approx(
            1.0 / math.e, rel=1e-3
        )

    def test_aloha_expected_rounds_reciprocal(self):
        assert aloha_expected_rounds(2) == pytest.approx(2.0)

    def test_two_player_floor(self):
        assert two_player_failure_floor(0) == 1.0
        assert two_player_failure_floor(3) == pytest.approx(0.125)

    def test_adaptive_floor_values(self):
        assert adaptive_hitting_floor(2) == 1
        assert adaptive_hitting_floor(3) == 2
        assert adaptive_hitting_floor(1024) == 10

    def test_decay_sweep_length(self):
        assert decay_sweep_length(256) == 8
        assert decay_sweep_length(100) == 7
        assert decay_sweep_length(1) == 1

    def test_decay_sweep_success_bound_range(self):
        for n in (2, 8, 64, 1024):
            bound = decay_sweep_success_lower_bound(n)
            assert 1.0 / (2.0 * math.e) <= bound <= 0.5

    def test_geometric_knockout_rounds(self):
        assert geometric_knockout_rounds(1, 0.5) == 0.0
        assert geometric_knockout_rounds(64, 0.5) == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            aloha_round_success_probability(0)
        with pytest.raises(ValueError):
            two_player_failure_floor(-1)
        with pytest.raises(ValueError):
            adaptive_hitting_floor(1)
        with pytest.raises(ValueError):
            geometric_knockout_rounds(4, 1.0)
        with pytest.raises(ValueError):
            decay_sweep_success_lower_bound(4, size_bound=2)


def _scalar_cd_tournament_rounds(n, p=0.5):
    """The reference: the recurrence one Python float at a time."""
    expected = {1: 1.0 / p}
    log_p, log_q = math.log(p), math.log(1.0 - p)
    for k in range(2, n + 1):
        pmf = [
            math.exp(
                math.lgamma(k + 1)
                - math.lgamma(j + 1)
                - math.lgamma(k - j + 1)
                + j * log_p
                + (k - j) * log_q
            )
            for j in range(k + 1)
        ]
        cross = sum(pmf[j] * expected[j] for j in range(2, k))
        expected[k] = (1.0 + cross) / (1.0 - pmf[0] - pmf[k])
    return expected[n]


class TestCdTournamentRecursion:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 256])
    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_matches_scalar_recursion(self, n, p):
        assert cd_tournament_expected_rounds(n, p) == pytest.approx(
            _scalar_cd_tournament_rounds(n, p), rel=1e-12
        )

    def test_single_contender_is_geometric(self):
        assert cd_tournament_expected_rounds(1, p=0.25) == pytest.approx(4.0)

    def test_two_contenders(self):
        # E[2] = 1 / (2 p (1 - p)).
        assert cd_tournament_expected_rounds(2, p=0.5) == pytest.approx(2.0)

    def test_monotone_in_n(self):
        values = [cd_tournament_expected_rounds(n) for n in (2, 4, 8, 16, 64)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_logarithmic_growth(self):
        small = cd_tournament_expected_rounds(16)
        large = cd_tournament_expected_rounds(4096)
        # log2 4096 / log2 16 = 3; expect roughly that ratio of rounds.
        assert large / small == pytest.approx(3.0, rel=0.35)

    def test_validation(self):
        with pytest.raises(ValueError):
            cd_tournament_expected_rounds(0)
        with pytest.raises(ValueError):
            cd_tournament_expected_rounds(4, p=1.0)


class TestMeasuredVersusPredicted:
    def test_aloha_simulation_matches_prediction(self):
        from repro.protocols.aloha import SlottedAlohaProtocol
        from repro.radio.channel import RadioChannel
        from repro.sim.runner import run_trials

        n = 32
        stats = run_trials(
            lambda rng: RadioChannel(n),
            SlottedAlohaProtocol(),
            trials=600,
            seed=21,
        )
        assert stats.mean_rounds == pytest.approx(aloha_expected_rounds(n), rel=0.15)

    def test_cd_tournament_simulation_matches_recursion(self):
        from repro.protocols.cd_tournament import CollisionDetectionTournamentProtocol
        from repro.radio.channel import RadioChannel
        from repro.sim.runner import run_trials

        n = 64
        stats = run_trials(
            lambda rng: RadioChannel(n, collision_detection=True),
            CollisionDetectionTournamentProtocol(),
            trials=500,
            seed=22,
        )
        predicted = cd_tournament_expected_rounds(n)
        assert stats.mean_rounds == pytest.approx(predicted, rel=0.15)

    def test_two_player_envelope_matched_by_optimal_p(self):
        from repro.hitting.two_player import (
            failure_probability_within,
            two_player_trials,
        )
        from repro.protocols.simple import FixedProbabilityProtocol

        outcomes = two_player_trials(
            FixedProbabilityProtocol(p=0.5), trials=3_000, seed=23
        )
        for budget in (1, 2, 4):
            measured = failure_probability_within(outcomes, budget)
            floor = two_player_failure_floor(budget)
            assert measured == pytest.approx(floor, abs=0.04)

    def test_decay_sweep_success_dominates_bound(self):
        from repro.protocols.decay import DecayProtocol
        from repro.radio.channel import RadioChannel
        from repro.sim.runner import run_trials

        n = 32
        sweep = decay_sweep_length(n)
        stats = run_trials(
            lambda rng: RadioChannel(n),
            DecayProtocol(),
            trials=500,
            seed=24,
        )
        solved_in_first_sweep = sum(1 for r in stats.rounds if r <= sweep)
        measured = solved_in_first_sweep / stats.trials
        assert measured >= decay_sweep_success_lower_bound(n)
