"""E1 — Theorem 1's ``n`` dependence: rounds grow as ``log n``, not ``log^2 n``.

Workload: uniform-disk deployments at constant density (so ``R`` stays
polynomial in ``n`` — the footnote-1 regime), swept over ``n``. For each
size we run many independent trials of the paper's algorithm and record the
mean and 95th-percentile solving round.

Claim under test: the end-to-end growth *ratio* of the measured rounds
tracks the ``log n`` prediction, not the ``log^2 n`` prediction. Concretely,
with baseline size ``n_0`` (the second entry of the sweep — the smallest
size carries a constant "wait for any transmission" floor that pollutes
ratios) and top size ``n_1``:

    measured_ratio = rounds(n_1) / rounds(n_0)

must fall below the geometric mean of ``log2(n_1)/log2(n_0)`` and
``(log2(n_1)/log2(n_0))^2`` — i.e. strictly closer to the log prediction.
Both candidate laws are also least-squares fitted and reported as notes
(the AIC comparison is too fragile at these sample sizes to gate on).

Execution note: ``run_trials`` runs the paper's algorithm, a schedule
protocol, on the vectorised loop (``repro.sim.fast.run_schedule``). The
loop makes the same draws as the generic engine and resolves the same
rounds, so every number here is **bit-identical** to an engine run
(pinned by ``tests/test_fast_path.py::TestEngineExactParity``), and the
sweep honours the CLI's ``--workers`` sharding (docs/parallelism.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from repro.analysis.fits import fit_models
from repro.deploy.topologies import uniform_disk
from repro.experiments.common import ExperimentResult
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.runner import high_probability_budget, run_trials
from repro.sinr.channel import SINRChannel
from repro.sinr.parameters import SINRParameters

TITLE = "rounds vs n for the paper's algorithm (uniform disk, fixed density)"

__all__ = ["Config", "run", "main", "TITLE"]


@dataclass
class Config:
    """Parameters for the E1 sweep."""

    sizes: List[int] = field(default_factory=lambda: [16, 32, 64, 128, 256, 512])
    trials: int = 40
    p: float = 0.1
    alpha: float = 3.0
    seed: int = 101

    @classmethod
    def quick(cls) -> "Config":
        """CI-sized preset (~seconds).

        Distinguishing ``log`` from ``log^2`` growth needs both a wide
        ``n`` range and enough trials to tame the heavy-tailed round
        distribution; smaller presets produce fits dominated by noise.
        """
        return cls(sizes=[16, 32, 64, 128, 256, 512], trials=40)

    @classmethod
    def full(cls) -> "Config":
        """Measurement preset (~minutes)."""
        return cls(sizes=[16, 32, 64, 128, 256, 512, 1024], trials=150)


def run(config: Config) -> ExperimentResult:
    """Execute the sweep and fit scaling laws."""
    params = SINRParameters(alpha=config.alpha)
    result = ExperimentResult(
        experiment_id="E1",
        title=TITLE,
        header=["n", "trials", "mean_rounds", "median", "p95", "max", "solve_rate"],
    )

    means: List[float] = []
    p95s: List[float] = []
    for n in config.sizes:
        stats = run_trials(
            lambda rng, n=n: SINRChannel(uniform_disk(n, rng), params=params),
            FixedProbabilityProtocol(config.p),
            trials=config.trials,
            seed=(config.seed, n),
            max_rounds=high_probability_budget(n),
        )
        means.append(stats.mean_rounds)
        p95s.append(stats.percentile(95))
        result.add_timing(f"n={n}", stats.total_wall_time, stats.rounds_per_second)
        result.rows.append(
            [
                n,
                stats.trials,
                stats.mean_rounds,
                stats.median_rounds,
                stats.percentile(95),
                stats.max_rounds,
                stats.solve_rate,
            ]
        )

    if len(config.sizes) < 3:
        raise ValueError("the sweep needs at least 3 sizes")
    baseline_index = 1  # skip the smallest size's constant floor
    n0, n1 = config.sizes[baseline_index], config.sizes[-1]
    log_ratio = math.log2(n1) / math.log2(n0)
    log2_ratio = log_ratio**2
    threshold = math.sqrt(log_ratio * log2_ratio)

    for label, series in (("mean", means), ("p95", p95s)):
        measured_ratio = series[-1] / series[baseline_index]
        result.checks[f"{label}_growth_closer_to_log"] = measured_ratio < threshold
        result.notes.append(
            f"{label} growth ratio n={n0}->n={n1}: measured {measured_ratio:.2f} "
            f"vs log {log_ratio:.2f} / log^2 {log2_ratio:.2f} "
            f"(threshold {threshold:.2f})"
        )
        fits = fit_models(config.sizes, series, laws=("log", "log2"))
        result.notes.append(f"{label} fit {fits['log']}")
        result.notes.append(f"{label} fit {fits['log2']}")
    return result


def main(full: bool = False) -> ExperimentResult:
    config = Config.full() if full else Config.quick()
    result = run(config)
    print(result.format())
    return result


if __name__ == "__main__":
    main()
