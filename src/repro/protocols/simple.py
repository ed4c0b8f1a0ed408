"""The paper's algorithm: fixed-probability broadcast with knockout.

Quoting the introduction:

    "Each participating node starts in an active state; at the beginning of
    each round, each node that is still active broadcasts with a constant
    probability p (that we fix in our analysis); if an active node receives
    a message, it becomes inactive."

That is the entire algorithm. Section 3 proves it solves contention
resolution on a fading channel in ``O(log n + log R)`` rounds w.h.p. —
beating the ``Omega(log^2 n)`` lower bound of the non-fading radio model —
with no knowledge of ``n`` and no feedback beyond reception itself.

The analysis fixes ``p`` only through existence arguments
(``p = c / (4 c_max)`` in Lemma 3, with ``c_max`` a packing constant
depending on ``alpha``); experiment E9 sweeps ``p`` empirically. The default
here, ``p = 0.1``, sits comfortably inside the working range for the
deployments in the test suite.
"""

from __future__ import annotations

from functools import partial

from repro.protocols.base import Schedule, ScheduleProtocol, constant, on_reception

__all__ = ["FixedProbabilityProtocol"]

DEFAULT_BROADCAST_PROBABILITY = 0.1


class FixedProbabilityProtocol(ScheduleProtocol):
    """Factory for the paper's algorithm.

    Parameters
    ----------
    p:
        The constant broadcast probability, in ``(0, 1]``.
    """

    # The knockout rule: an active node that receives a message becomes
    # inactive. Transmitters never receive, so they stay active.
    concede = staticmethod(on_reception)

    def __init__(self, p: float = DEFAULT_BROADCAST_PROBABILITY) -> None:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"broadcast probability must be in (0, 1] (got {p})")
        self.p = p
        self.name = f"simple(p={p:g})"

    def schedule(self, n: int) -> Schedule:
        return partial(constant, self.p)
