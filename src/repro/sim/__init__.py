"""Synchronous round-based simulation engine.

The engine couples a set of protocol state machines (:mod:`repro.protocols`)
to a channel (:class:`repro.sinr.SINRChannel` or
:class:`repro.radio.RadioChannel`) and runs rounds until the contention
resolution problem is solved — the first round in which exactly one
participating node transmits (Section 2 of the paper) — or a round budget
is exhausted.

``trace`` holds the immutable per-round records an execution produces;
``runner`` repeats executions over independently seeded trials and
aggregates statistics; ``seeding`` centralises deterministic RNG spawning.
"""

from repro.sim.engine import Simulation
from repro.sim.fast import FastRunResult, fast_fixed_probability_run, run_schedule
from repro.sim.trace_io import load_trace, save_trace
from repro.sim.verification import TraceViolation, verify_trace
from repro.sim.runner import TrialStats, execute_trial, high_probability_budget, run_trials
from repro.sim.parallel import (
    StaticDeploymentFactory,
    UniformDiskFactory,
    default_workers,
    get_default_workers,
    partition_trials,
    run_fast_trials,
    run_trials_parallel,
    set_default_workers,
)
from repro.sim.seeding import generator_from, spawn_generators, spawn_seed_sequences
from repro.sim.trace import ExecutionTrace, RoundRecord

__all__ = [
    "ExecutionTrace",
    "FastRunResult",
    "RoundRecord",
    "Simulation",
    "StaticDeploymentFactory",
    "TraceViolation",
    "TrialStats",
    "UniformDiskFactory",
    "default_workers",
    "execute_trial",
    "fast_fixed_probability_run",
    "generator_from",
    "get_default_workers",
    "high_probability_budget",
    "load_trace",
    "partition_trials",
    "run_fast_trials",
    "run_schedule",
    "run_trials",
    "run_trials_parallel",
    "save_trace",
    "set_default_workers",
    "spawn_generators",
    "spawn_seed_sequences",
    "verify_trace",
]
