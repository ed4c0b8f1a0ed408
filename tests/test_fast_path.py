"""Tests for the vectorised loop: channel kinds, behaviour, equivalence."""

import numpy as np
import pytest

from repro.deploy.topologies import uniform_disk
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.trace import ExecutionTrace
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.seeding import generator_from, spawn_generators
from repro.sinr.channel import SINRChannel
from repro.sinr.fading import RayleighFading
from repro.sinr.jamming import ExternalSource


def _engine_run(channel, p, seed):
    nodes = FixedProbabilityProtocol(p).build(channel.n)
    return Simulation(channel, nodes, rng=generator_from(seed)).run()


class TestChannelKinds:
    """Fading and intermittent sources draw from the protocol's generator,
    in the engine's order, so the loop runs them round for round alike."""

    @staticmethod
    def _assert_matches_engine(channel, seed):
        trace = _engine_run(channel, 0.1, seed)
        result = fast_fixed_probability_run(channel, 0.1, generator_from(seed))
        assert result.solved_round == trace.solved_round
        assert result.active_counts == [len(r.active_before) for r in trace.records]

    def test_fading_channel_matches_engine(self):
        for seed in (1, 2, 3):
            positions = uniform_disk(24, generator_from(seed))
            channel = SINRChannel(positions, gain_model=RayleighFading())
            self._assert_matches_engine(channel, seed)

    def test_intermittent_jammer_matches_engine(self):
        jammer = ExternalSource((0.5, 50.0), power=10.0, duty_cycle=0.5)
        for seed in (1, 2, 3):
            positions = uniform_disk(24, generator_from(seed))
            channel = SINRChannel(positions, external_sources=[jammer])
            self._assert_matches_engine(channel, seed)


class TestRestrictions:
    def test_accepts_continuous_jammer(self, rng):
        jammer = ExternalSource((0.5, 50.0), power=10.0, duty_cycle=1.0)
        channel = SINRChannel(
            [(0.0, 0.0), (1.0, 0.0)], external_sources=[jammer]
        )
        result = fast_fixed_probability_run(channel, p=0.5, rng=rng)
        assert result.solved

    def test_parameter_validation(self, small_channel, rng):
        with pytest.raises(ValueError, match="probability"):
            fast_fixed_probability_run(small_channel, p=0.0, rng=rng)
        with pytest.raises(ValueError, match="max_rounds"):
            fast_fixed_probability_run(small_channel, p=0.1, rng=rng, max_rounds=0)


class TestBehaviour:
    def test_solves_and_reports_rounds(self, small_channel, rng):
        result = fast_fixed_probability_run(small_channel, p=0.1, rng=rng)
        assert result.solved
        assert result.rounds_to_solve == result.solved_round + 1
        assert len(result.active_counts) == result.rounds_executed

    def test_active_counts_monotone(self, small_channel, rng):
        result = fast_fixed_probability_run(small_channel, p=0.1, rng=rng)
        counts = result.active_counts
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_budget_exhaustion(self, rng):
        # p = 1 on two nodes can never produce a solo round.
        channel = SINRChannel([(0.0, 0.0), (1.0, 0.0)])
        result = fast_fixed_probability_run(channel, p=1.0, rng=rng, max_rounds=20)
        assert not result.solved
        assert result.rounds_executed == 20

    def test_single_node(self, rng):
        channel = SINRChannel([(0.0, 0.0)])
        result = fast_fixed_probability_run(channel, p=0.5, rng=rng)
        assert result.solved

    def test_deterministic_under_seed(self, small_positions):
        channel = SINRChannel(small_positions)
        a = fast_fixed_probability_run(channel, p=0.1, rng=generator_from(5))
        b = fast_fixed_probability_run(channel, p=0.1, rng=generator_from(5))
        assert a.solved_round == b.solved_round
        assert a.active_counts == b.active_counts


class TestEngineExactParity:
    """The runner choice is invisible: bit-identical, not just equal in
    distribution.

    ``run_fast_trials`` runs ``FixedProbabilityProtocol`` on the
    vectorised loop; ``run_trials(keep_traces=True)`` runs it through
    :class:`Simulation`. Both consume the identical ``(seed, trial)``
    generator tree and coin-flip stream and compute the identical
    decode, so the per-trial round counts match exactly."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_run_trials_matches_run_fast_trials_exactly(self, n):
        from repro.sim.parallel import run_fast_trials
        from repro.sim.runner import high_probability_budget, run_trials
        from repro.sinr.parameters import SINRParameters

        params = SINRParameters(alpha=3.0)
        trials, p, seed = 6, 0.1, (101, n)
        budget = high_probability_budget(n)

        def factory(rng, n=n):
            return SINRChannel(uniform_disk(n, rng), params=params)

        engine = run_trials(
            factory,
            FixedProbabilityProtocol(p),
            trials,
            seed=seed,
            max_rounds=budget,
            keep_traces=True,
        )
        assert all(isinstance(trace, ExecutionTrace) for trace in engine.traces)
        fast = run_fast_trials(
            factory, p, trials=trials, seed=seed, max_rounds=budget
        )
        assert engine.rounds == fast.rounds
        assert engine.failures == fast.failures
        assert engine.total_rounds_executed == fast.total_rounds_executed


class TestEquivalenceWithGenericEngine:
    def test_distributions_agree(self):
        """Fast path and generic engine must produce the same statistics.

        On one generator the two make identical draws
        (:class:`TestEngineExactParity` pins equal rounds). Here each path
        gets its own independent generator per trial, so traces differ
        per seed and agreement is distributional: matched trial counts,
        means within a few combined standard errors.
        """
        n, trials, p = 48, 60, 0.1
        fast_rounds = []
        slow_rounds = []
        generators = spawn_generators(77, 3 * trials)
        for trial in range(trials):
            deploy_rng = generators[3 * trial]
            fast_rng = generators[3 * trial + 1]
            slow_rng = generators[3 * trial + 2]
            positions = uniform_disk(n, deploy_rng)
            channel = SINRChannel(positions)

            fast = fast_fixed_probability_run(channel, p, fast_rng, max_rounds=20_000)
            fast_rounds.append(fast.rounds_to_solve)

            nodes = FixedProbabilityProtocol(p).build(n)
            trace = Simulation(
                channel, nodes, rng=slow_rng, max_rounds=20_000, keep_records=False
            ).run()
            slow_rounds.append(trace.rounds_to_solve)

        fast_mean = np.mean(fast_rounds)
        slow_mean = np.mean(slow_rounds)
        pooled_se = np.sqrt(
            np.var(fast_rounds, ddof=1) / trials + np.var(slow_rounds, ddof=1) / trials
        )
        assert abs(fast_mean - slow_mean) < 4 * pooled_se + 0.5
