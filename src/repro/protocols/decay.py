"""Decay: the classical radio-network contention-resolution strategy.

The strategy adapted from Bar-Yehuda, Goldreich & Itai (the paper's [2]):
cyclically sweep broadcast probabilities ``2^-1, 2^-2, ..., 2^-ceil(log2 N)``
where ``N`` is a known upper bound on the network size. Whatever the true
number of contenders ``k <= N``, one probability in each sweep is within a
factor 2 of ``1/k``, and that round isolates a single transmitter with
constant probability. One sweep therefore succeeds with constant
probability; ``Theta(log N)`` sweeps — ``Theta(log^2 N)`` rounds — succeed
w.h.p., matching the ``Theta(log^2 n)`` bound the paper quotes for the
non-fading model.

``deactivate_on_receive`` (off by default, since listeners in the classical
wake-up problem gain nothing from quitting) lets the same schedule run as a
knockout protocol on the SINR channel for cross-model comparisons.
"""

from __future__ import annotations

import math
from functools import partial

from repro.protocols.base import Schedule, ScheduleProtocol, never, on_reception

__all__ = ["DecayProtocol", "decay_probability", "decay_sweep_length"]


def decay_sweep_length(size_bound: int) -> int:
    """Length of one decay probability sweep for bound ``N``."""
    if size_bound < 1:
        raise ValueError(f"size_bound must be positive (got {size_bound})")
    return max(1, math.ceil(math.log2(max(size_bound, 2))))


def decay_probability(sweep_length: int, round_index: int) -> float:
    """Probability used in the given (0-indexed) round: ``2^-(step + 1)``."""
    step = round_index % sweep_length
    return 2.0 ** -(step + 1)


class DecayProtocol(ScheduleProtocol):
    """Factory for decay.

    Parameters
    ----------
    size_bound:
        Known upper bound ``N >= n`` on the network size; ``None`` (default)
        uses the true ``n`` handed to :meth:`build` — the most favourable
        setting for this baseline.
    deactivate_on_receive:
        Run as a knockout protocol (useful on the SINR channel).
    """

    knows_network_size = True

    def __init__(self, size_bound: int = None, deactivate_on_receive: bool = False) -> None:
        if size_bound is not None and size_bound < 1:
            raise ValueError(f"size_bound must be positive (got {size_bound})")
        self.size_bound = size_bound
        self.concede = on_reception if deactivate_on_receive else never
        suffix = "" if size_bound is None else f"(N={size_bound})"
        self.name = f"decay{suffix}"

    def schedule(self, n: int) -> Schedule:
        bound = self.size_bound if self.size_bound is not None else n
        if bound < n:
            raise ValueError(f"size_bound {bound} is below the actual network size {n}")
        return partial(decay_probability, decay_sweep_length(bound))
