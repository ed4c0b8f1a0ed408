"""Jurdziński–Stachowiak-style ``O(log^2 n / log log n)`` fading algorithm.

The paper's main point of comparison ([6], "a recent breakthrough") solves
contention resolution on a fading MAC in ``O(log^2 n / log log n)`` rounds,
requires advance knowledge of a polynomial upper bound on ``n``, and is
insensitive to ``R``.

**Substitution note (see DESIGN.md §2).** The full Jurdziński–Stachowiak
algorithm is an intricate multi-stage construction from a separate paper;
reproducing it verbatim is out of scope. What the comparison in experiment
E3 needs is a protocol whose measured round complexity on the SINR channel
grows as ``log^2 N / log log N`` with knowledge of ``N``. We implement the
mechanism the paper itself describes: "their algorithm speeds up a standard
O(log^2 n) strategy from the radio network model to now progress a factor of
log log n times faster ... they also add a dampening strategy that ... slows
down the algorithm just enough at the right phase."

Concretely, instead of decay's sweep over ``log N`` probabilities spaced by
factor 2, this protocol sweeps ``ceil(log N / log log N)`` probabilities
spaced by factor ``log N`` (the *speed-up*), and dwells on each probability
for ``dwell = Theta(log log N)`` consecutive rounds (the *dampening*),
deactivating listeners that receive a message so the fading channel's
spatial reuse can thin contention between the coarse probability steps. A
full sweep costs ``Theta(log N)`` rounds and isolates a solo transmitter
with probability ``Omega(1)`` once contention is within a ``log N`` factor
of some sweep step; ``Theta(log N / log log N)`` sweeps give the
``O(log^2 N / log log N)`` total.
"""

from __future__ import annotations

import math
from functools import partial

from repro.protocols.base import Schedule, ScheduleProtocol, on_reception

__all__ = ["JurdzinskiStachowiakProtocol", "js16_probability"]


def _schedule_parameters(size_bound: int) -> tuple:
    """Derive ``(num_steps, dwell, base)`` from the size bound ``N``.

    ``base = max(2, log2 N)`` is the probability spacing, ``num_steps`` the
    number of distinct probabilities needed to cover contention levels up to
    ``N``, and ``dwell`` the number of consecutive rounds spent at each
    probability (the dampening).
    """
    log_n = max(2.0, math.log2(max(size_bound, 4)))
    base = max(2.0, log_n)
    num_steps = max(1, math.ceil(log_n / math.log2(base)))
    dwell = max(1, math.ceil(math.log2(log_n)))
    return num_steps, dwell, base


def js16_probability(num_steps: int, dwell: int, base: float, round_index: int) -> float:
    """Probability used in the given (0-indexed) round.

    The sweep visits ``base^-1 .. base^-num_steps``, ``dwell`` rounds each.
    """
    position = round_index % (num_steps * dwell)
    step = position // dwell
    return base ** -(step + 1)


class JurdzinskiStachowiakProtocol(ScheduleProtocol):
    """Factory for the JS16-style protocol.

    Parameters
    ----------
    size_bound:
        Known polynomial upper bound ``N >= n``; ``None`` uses the true
        ``n`` (most favourable setting).
    """

    knows_network_size = True
    # Knockout on reception: the dampening phase relies on the fading
    # channel thinning contention between coarse probability steps.
    concede = staticmethod(on_reception)

    def __init__(self, size_bound: int = None) -> None:
        if size_bound is not None and size_bound < 1:
            raise ValueError(f"size_bound must be positive (got {size_bound})")
        self.size_bound = size_bound
        suffix = "" if size_bound is None else f"(N={size_bound})"
        self.name = f"js16{suffix}"

    def schedule(self, n: int) -> Schedule:
        bound = self.size_bound if self.size_bound is not None else n
        if bound < n:
            raise ValueError(f"size_bound {bound} is below the actual network size {n}")
        return partial(js16_probability, *_schedule_parameters(bound))
