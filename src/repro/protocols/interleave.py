"""Round-robin interleaving of two protocols (the unknown-``R`` remark).

Section 3.1 of the paper: "For the case where R is larger, one can default
to existing results. If R is unknown, then our algorithm can be interleaved
with an existing algorithm." Interleaving two protocols A and B — A drives
the even rounds, B the odd rounds — solves the problem within twice the
rounds of whichever finishes first, so the combination inherits
``O(min(T_A, T_B))`` up to a factor 2.

The wrapper multiplexes each underlying node's view of time: protocol A's
nodes see rounds ``0, 1, 2, ...`` on the even global rounds and never learn
the odd rounds exist, and symmetrically for B. A node deactivated by either
sub-protocol is out of contention entirely — a knockout learned on an even
round must silence the node on odd rounds too, otherwise the interleaving
would not be a correct contention-resolution algorithm.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.protocols.base import Action, Feedback, NodeProtocol, ProtocolFactory

__all__ = ["InterleavedNode", "InterleavedProtocol"]


class InterleavedNode(NodeProtocol):
    """Multiplexes one node of protocol A with one node of protocol B."""

    def __init__(self, node_id: int, even_node: NodeProtocol, odd_node: NodeProtocol) -> None:
        super().__init__(node_id)
        self.even_node = even_node
        self.odd_node = odd_node
        # The engine checks capabilities per node: declare what either lane
        # needs, or that lane's feedback could silently go missing.
        for flag in ("requires_collision_detection", "requires_energy_sensing"):
            setattr(self, flag, getattr(even_node, flag) or getattr(odd_node, flag))

    def _lane(self, round_index: int) -> tuple:
        """Return ``(sub_node, sub_round)`` for the global round."""
        if round_index % 2 == 0:
            return self.even_node, round_index // 2
        return self.odd_node, round_index // 2

    def decide(self, round_index: int, rng: np.random.Generator) -> Action:
        sub_node, sub_round = self._lane(round_index)
        if not sub_node.active:
            # This lane's sub-protocol has dropped out; stay silent on its
            # rounds and let the other lane finish the job.
            return Action.LISTEN
        return sub_node.decide(sub_round, rng)

    def on_feedback(self, round_index: int, feedback: Feedback) -> None:
        sub_node, sub_round = self._lane(round_index)
        if sub_node.active:
            sub_node.on_feedback(sub_round, feedback)
        # A knockout in either lane removes the node from contention in both.
        if not (self.even_node.active and self.odd_node.active):
            self._active = False


class InterleavedProtocol(ProtocolFactory):
    """Factory combining two sub-protocol factories round-robin.

    Parameters
    ----------
    even, odd:
        Factories driving the even and odd global rounds respectively.
        Typical use: ``InterleavedProtocol(FixedProbabilityProtocol(),
        DecayProtocol(size_bound=N))`` to hedge an unknown ``R`` against an
        ``R``-insensitive fallback.
    """

    def __init__(self, even: ProtocolFactory, odd: ProtocolFactory) -> None:
        if even.requires_collision_detection or odd.requires_collision_detection:
            raise ValueError(
                "interleaving collision-detection protocols is not supported: "
                "the combined schedule cannot guarantee both lanes' feedback"
            )
        self.even = even
        self.odd = odd
        self.name = f"interleave({even.name}|{odd.name})"

    @property
    def knows_network_size(self) -> bool:  # type: ignore[override]
        return self.even.knows_network_size or self.odd.knows_network_size

    requires_collision_detection = False

    @property
    def requires_energy_sensing(self) -> bool:  # type: ignore[override]
        return self.even.requires_energy_sensing or self.odd.requires_energy_sensing

    def build(self, n: int) -> List[NodeProtocol]:
        if n < 1:
            raise ValueError(f"n must be positive (got {n})")
        even_nodes = self.even.build(n)
        odd_nodes = self.odd.build(n)
        return [
            InterleavedNode(i, even_nodes[i], odd_nodes[i]) for i in range(n)
        ]
