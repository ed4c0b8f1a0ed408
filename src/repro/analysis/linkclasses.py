"""Link classes — the Section 3.1 partition of active nodes.

"For a given round, we partition the active nodes into at most
``log R + 1`` link classes ``d_0, d_1, ..., d_{log R}``, where ``d_i``
contains all nodes whose nearest neighbor is at a distance in the range
``[2^i, 2^{i+1})``." Nearest neighbors are measured among *active* nodes
only, so nodes migrate to larger classes as their neighbors are knocked
out — the complication the Section 3.3 class-bound vectors exist to tame.
A sole surviving node has no nearest active neighbor and belongs to no
class.

Distances here are taken relative to the deployment's shortest link, which
the paper normalises to 1 (Section 2). :func:`link_class_partition` accepts
an explicit ``unit`` so callers can pin the normalisation to the *initial*
shortest link even after the pair realising it is knocked out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sinr.geometry import NearestActiveNeighbors, nearest_neighbor_distances

__all__ = [
    "LinkClassPartition",
    "LinkClassTracker",
    "class_indices",
    "classify_active",
    "link_class_partition",
]


@dataclass(frozen=True)
class LinkClassPartition:
    """The partition of active nodes into link classes for one round.

    Attributes
    ----------
    class_of:
        ``node id -> class index i`` for every active node with a nearest
        active neighbor. The last surviving node is absent.
    members:
        ``class index -> sorted node ids`` (inverse of ``class_of``).
    unit:
        The distance normalised to 1 when assigning classes.
    """

    class_of: Dict[int, int]
    members: Dict[int, Tuple[int, ...]]
    unit: float

    def size(self, class_index: int) -> int:
        """``n_i`` — the number of active nodes in class ``d_i``."""
        return len(self.members.get(class_index, ()))

    def size_below(self, class_index: int) -> int:
        """``n_{<i}`` — total active nodes in all smaller classes."""
        return sum(
            len(ids) for index, ids in self.members.items() if index < class_index
        )

    def size_at_least(self, class_index: int) -> int:
        """``n_{>=i}`` — total active nodes in class ``i`` and larger."""
        return sum(
            len(ids) for index, ids in self.members.items() if index >= class_index
        )

    @property
    def occupied(self) -> Tuple[int, ...]:
        """Sorted indices of the non-empty classes."""
        return tuple(sorted(self.members))

    @property
    def smallest_occupied(self) -> Optional[int]:
        return min(self.members) if self.members else None

    @property
    def largest_occupied(self) -> Optional[int]:
        return max(self.members) if self.members else None

    def sizes(self) -> Dict[int, int]:
        """``class index -> n_i`` for the occupied classes."""
        return {index: len(ids) for index, ids in self.members.items()}


#: How close ``np.log2`` may come to an integer before :func:`class_indices`
#: re-derives the class with ``math.log2``. ``np.log2`` can differ from
#: the C library's ``log2`` by an ulp (about 1e-14 at class 60), and only
#: a logarithm that sits at an integer can have its floor moved by that.
_BOUNDARY_TOLERANCE = 2.0**-30


def class_indices(ratios: np.ndarray) -> np.ndarray:
    """``floor(log2(r))`` per ratio, as ``math.floor(math.log2(r))`` gives it.

    The class index is taken from the *rounded* ``log2``, not from the
    binary exponent: a ratio one ulp below ``2**k`` (``k >= 3``) has a
    ``log2`` that rounds to ``k``, so it lands in class ``k``. Vectorised
    with ``np.log2``; entries whose logarithm lies within
    ``_BOUNDARY_TOLERANCE`` of an integer, and non-finite ones, are
    recomputed with ``math.log2`` (which also raises exactly as the scalar
    form would on zero or negative ratios).
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log2(ratios)
        clear = np.abs(logs - np.rint(logs)) > _BOUNDARY_TOLERANCE
    indices = np.empty(ratios.shape, dtype=np.int64)
    indices[clear] = np.floor(logs[clear])
    for position in np.flatnonzero(~clear):
        indices.flat[position] = math.floor(math.log2(ratios.flat[position]))
    return indices


def classify_active(
    distances: np.ndarray,
    active: Optional[np.ndarray] = None,
    unit: Optional[float] = None,
    nearest=None,
) -> Tuple[np.ndarray, np.ndarray, Optional[float]]:
    """The link classes as arrays: ``(node ids, class indices, unit)``.

    ``ids`` are the ascending ids of the nodes in some class and
    ``classes[j]`` is the class of ``ids[j]``; the arguments are
    :func:`link_class_partition`'s, which builds its dictionaries from
    this. ``unit`` comes back resolved (``None`` only when no node has an
    active neighbor and none was given).
    """
    if nearest is None:
        nearest = nearest_neighbor_distances(distances, active)
    elif isinstance(nearest, NearestActiveNeighbors):
        if active is None:
            active = np.ones(distances.shape[0], dtype=bool)
        nearest = nearest.sync(active)
    ids = np.flatnonzero(np.isfinite(nearest))
    if not ids.size:
        return ids, np.empty(0, dtype=np.int64), unit
    values = nearest[ids]
    if unit is None:
        unit = float(values.min())
    if unit <= 0.0:
        raise ValueError(f"unit must be positive (got {unit})")
    return ids, class_indices(values / unit), unit


def link_class_partition(
    distances: np.ndarray,
    active: Optional[np.ndarray] = None,
    unit: Optional[float] = None,
    nearest=None,
) -> LinkClassPartition:
    """Partition the active nodes into the paper's link classes.

    Parameters
    ----------
    distances:
        Full ``(n, n)`` distance matrix of the deployment.
    active:
        Boolean activity mask (default: everyone active).
    unit:
        The length treated as 1 when binning. Defaults to the shortest
        nearest-neighbor distance among the currently active nodes; pass
        the *initial* shortest link explicitly when tracking an execution
        so class indices stay comparable across rounds.
    nearest:
        Optional source of the nearest active distances, instead of a
        from-scratch :func:`~repro.sinr.geometry.nearest_neighbor_distances`
        pass: either that function's result for ``active``, or a
        :class:`~repro.sinr.geometry.NearestActiveNeighbors` tracker, which
        is synced to ``active`` first. The partition is the same either way.
    """
    ids, classes, unit = classify_active(distances, active, unit, nearest)
    if not ids.size:
        return LinkClassPartition(class_of={}, members={}, unit=unit or 1.0)
    class_of = dict(zip(ids.tolist(), classes.tolist()))
    labels, first, inverse = np.unique(
        classes, return_index=True, return_inverse=True
    )
    grouped = np.split(
        ids[np.argsort(inverse, kind="stable")],
        np.cumsum(np.bincount(inverse))[:-1],
    )
    # Classes in order of their lowest member, as a scan over node ids
    # would first meet them.
    members = {
        int(labels[k]): tuple(grouped[k].tolist()) for k in np.argsort(first)
    }
    return LinkClassPartition(class_of=class_of, members=members, unit=unit)


class LinkClassTracker:
    """Round-by-round link-class sizes along an execution.

    Register :meth:`observe` with the simulation engine's ``observers``
    hook; after the run, :attr:`history` holds one
    :class:`LinkClassPartition` per round (taken *after* that round's
    knockouts), and :meth:`size_matrix` lays the ``n_i`` trajectories out
    as an array for the E6 comparison against the ``q_t`` schedule.
    """

    def __init__(self, distances: np.ndarray, unit: Optional[float] = None) -> None:
        self.distances = distances
        self._nearest = NearestActiveNeighbors(distances)
        if unit is None:
            nearest = self._nearest.sync(np.ones(distances.shape[0], dtype=bool))
            finite = nearest[np.isfinite(nearest)]
            unit = float(finite.min()) if finite.size else 1.0
        self.unit = unit
        self.history: List[LinkClassPartition] = []

    def observe(self, record, active_mask: np.ndarray) -> None:
        """Engine observer: snapshot the partition after a round."""
        partition = link_class_partition(
            self.distances, active=active_mask, unit=self.unit, nearest=self._nearest
        )
        self.history.append(partition)

    def size_matrix(self) -> Tuple[np.ndarray, List[int]]:
        """``(rounds x classes)`` size array and the class index legend.

        Classes that are empty in every recorded round are omitted.
        """
        occupied = sorted({index for part in self.history for index in part.members})
        matrix = np.zeros((len(self.history), len(occupied)), dtype=np.int64)
        for row, part in enumerate(self.history):
            for col, index in enumerate(occupied):
                matrix[row, col] = part.size(index)
        return matrix, occupied
