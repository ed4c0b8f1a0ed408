"""Slotted ALOHA with exact knowledge of the contender count (genie baseline).

With the true number of contenders ``n`` in hand, broadcasting with
probability ``1/n`` isolates a solo transmitter with probability
``n * (1/n) * (1 - 1/n)^(n-1) -> 1/e`` per round, so the problem is solved
in ``O(1)`` expected rounds and ``O(log n)`` rounds w.h.p. on any of our
channels. This is the information-theoretic best case the paper's
algorithm — which knows *nothing* about ``n`` — is measured against in
experiment E3.
"""

from __future__ import annotations

from functools import partial

from repro.protocols.base import Schedule, ScheduleProtocol, constant

__all__ = ["SlottedAlohaProtocol"]


class SlottedAlohaProtocol(ScheduleProtocol):
    """Factory for the genie-aided slotted ALOHA baseline (never concedes)."""

    knows_network_size = True
    name = "aloha(1/n)"

    def schedule(self, n: int) -> Schedule:
        return partial(constant, 1.0 / n)
