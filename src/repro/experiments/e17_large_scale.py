"""E17 — the ``log n`` law at scale (vectorised fast path).

E1 establishes the growth law up to ``n = 512``; this experiment pushes
two further orders of binary magnitude. Both run through ``run_trials``,
which puts the paper's algorithm on the vectorised loop
(``repro.sim.fast``): bit-identical to the generic engine, but each
round is a handful of numpy reductions. Both sweeps honour the CLI's ``--workers`` sharding
(docs/parallelism.md).

Statistical honesty note. Over ``log₂ n ∈ [6, 12]`` the laws
``a·log n + b`` (with ``b < 0``) and ``c·log² n + d`` produce numerically
indistinguishable curves — both fit the measured means with R² ≈ 0.99, and
AIC flips with trial noise. Growth-law *discrimination* is E1's job (it
anchors the curve at small ``n``, where the laws diverge). What can be
asserted at scale is the paper's actual claim — an upper bound:

1. ``bounded_by_constant_times_logn`` — mean rounds ≤ C · log₂ n at every
   size, for a small explicit constant ``C`` (measured ≈ 1.3 at
   ``p = 0.1``; the check allows 2.0);
2. ``per_logn_increment_roughly_constant`` — the increments per
   ``log₂ n`` step stay in a narrow band instead of growing linearly the
   way a genuinely quadratic curve's would over a wide sweep.

Both candidate fits are reported in the notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analysis.fits import fit_models
from repro.experiments.common import ExperimentResult
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.parallel import UniformDiskFactory
from repro.sim.runner import high_probability_budget, run_trials
from repro.sinr.parameters import SINRParameters

TITLE = "the log n law at scale (vectorised fast path, n to 4096)"

__all__ = ["Config", "run", "main", "TITLE"]


@dataclass
class Config:
    sizes: List[int] = field(default_factory=lambda: [256, 512, 1024, 2048, 4096])
    trials: int = 30
    p: float = 0.1
    alpha: float = 3.0
    seed: int = 1717

    @classmethod
    def quick(cls) -> "Config":
        # The fast path is cheap enough that the quick preset can afford
        # real statistics — 10-trial means are too noisy for ratio checks.
        return cls(sizes=[128, 256, 512, 1024, 2048], trials=30)

    @classmethod
    def full(cls) -> "Config":
        return cls(
            sizes=[64, 128, 256, 512, 1024, 2048, 4096], trials=80
        )


def run(config: Config) -> ExperimentResult:
    params = SINRParameters(alpha=config.alpha)
    result = ExperimentResult(
        experiment_id="E17",
        title=TITLE,
        header=["n", "trials", "mean_rounds", "p95", "solve_rate"],
    )

    means: List[float] = []
    for n in config.sizes:
        budget = 40 * high_probability_budget(n)
        # run_trials derives trial generators from ((seed, n), trial) and
        # runs the schedule protocol on the vectorised loop; it honours
        # the CLI's --workers sharding (docs/parallelism.md).
        stats = run_trials(
            UniformDiskFactory(n, params=params),
            FixedProbabilityProtocol(config.p),
            trials=config.trials,
            seed=(config.seed, n),
            max_rounds=budget,
        )
        rounds = np.asarray(stats.rounds, dtype=np.float64)
        means.append(float(rounds.mean()))
        result.add_timing(f"n={n}", stats.total_wall_time, stats.rounds_per_second)
        result.rows.append(
            [
                n,
                config.trials,
                float(rounds.mean()),
                float(np.percentile(rounds, 95)),
                stats.solve_rate,
            ]
        )

    bound_constant = 2.0
    normalised = [
        mean / math.log2(n) for mean, n in zip(means, config.sizes)
    ]
    result.checks["bounded_by_constant_times_logn"] = all(
        value <= bound_constant for value in normalised
    )

    increments = [
        (b - a) / (math.log2(m) - math.log2(n))
        for (n, a), (m, b) in zip(
            zip(config.sizes, means), zip(config.sizes[1:], means[1:])
        )
    ]
    spread = max(increments) - min(increments)
    result.checks["per_logn_increment_roughly_constant"] = spread <= max(
        2.0, 1.5 * abs(float(np.median(increments)))
    )
    result.notes.append(
        f"mean / log2(n): "
        + ", ".join(f"{v:.2f}" for v in normalised)
        + f" (bound tested: {bound_constant:g})"
    )
    result.notes.append(
        "rounds gained per log2 n step: "
        + ", ".join(f"{inc:.2f}" for inc in increments)
    )
    fits = fit_models(config.sizes, means, laws=("log", "log2"))
    result.notes.append(f"fits: {fits['log']} | {fits['log2']}")
    return result


def main(full: bool = False) -> ExperimentResult:
    config = Config.full() if full else Config.quick()
    result = run(config)
    print(result.format())
    return result


if __name__ == "__main__":
    main()
