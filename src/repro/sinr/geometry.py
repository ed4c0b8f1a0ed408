"""Vectorised planar geometry used throughout the analysis.

The paper's arguments are geometric: link classes are defined by
nearest-neighbor distances, good nodes by the population of *exponential
annuli* ``A^i_t(u) = B(u, 2^{t+1} * 2^i) \\ B(u, 2^t * 2^i)`` (Section 3.2),
and the well-separated subsets ``S_i`` by greedy circle packing (Lemma 2).
This module provides those primitives as numpy operations over an
``(n, 2)`` position array.

All functions treat positions as immutable float64 arrays; none of them
mutate their inputs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = [
    "pairwise_distances",
    "squared_distance_chunks",
    "nearest_neighbor_distances",
    "NearestActiveNeighbors",
    "points_in_ball",
    "exponential_annulus",
    "annulus_counts",
    "greedy_separated_subset",
    "deployment_diameter",
    "link_length_extremes",
    "as_positions",
]


def as_positions(points: Iterable[Sequence[float]]) -> np.ndarray:
    """Coerce an iterable of 2-D points into a validated ``(n, 2)`` array."""
    positions = np.asarray(points, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(
            f"positions must form an (n, 2) array of planar points, got shape {positions.shape}"
        )
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    return positions


#: Distance cells per row chunk (512 KiB of float64) wherever rows of an
#: ``(n, n)`` matrix are built or scanned: the distance and gain builds
#: and :class:`NearestActiveNeighbors` never hold an ``(n, n)``
#: temporary, and chunks this size stay in cache.
_CHUNK_CELLS = 1 << 16


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Full symmetric ``(n, n)`` Euclidean distance matrix.

    The diagonal is exactly zero. Rows are filled by
    :func:`squared_distance_chunks`, the pass the SINR channel builds its
    gains with, so distances and gains agree bit for bit. Rounds never
    need this matrix: :attr:`repro.sinr.channel.SINRChannel.distances`
    builds it on first read, for probes and analysis.
    """
    positions = as_positions(positions)
    n = positions.shape[0]
    distances = np.empty((n, n))
    for _, block in squared_distance_chunks(positions, distances):
        np.sqrt(block, out=block)
    return distances


def squared_distance_chunks(positions: np.ndarray, out: np.ndarray):
    """Fill ``out`` with squared distances, one row chunk at a time.

    Writes ``dx*dx + dy*dy`` into a chunk of about ``_CHUNK_CELLS``
    cells of the ``(n, n)`` array ``out`` (at least one row), then
    yields ``(rows, out[rows])`` so the caller can transform the chunk
    in place while it is still in cache. The per-axis form is
    bit-identical to the einsum over ``(n, n, 2)`` deltas and needs no
    such temporary, only one chunk of scratch. A node's own cell is
    exactly 0, because ``x - x == 0`` for finite ``x``.
    """
    n = positions.shape[0]
    # Contiguous axes: broadcasting against a strided column is ~5x slower.
    x = np.ascontiguousarray(positions[:, 0])
    y = np.ascontiguousarray(positions[:, 1])
    step = max(1, _CHUNK_CELLS // max(n, 1))
    scratch = np.empty((min(step, n), n))
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        block = out[rows]
        dy = scratch[: block.shape[0]]
        np.subtract(x[rows, None], x, out=block)
        np.subtract(y[rows, None], y, out=dy)
        block *= block
        dy *= dy
        block += dy
        yield rows, block


def nearest_neighbor_distances(
    distances: np.ndarray, active: Optional[np.ndarray] = None
) -> np.ndarray:
    """Distance from each active node to its nearest *other* active node.

    Parameters
    ----------
    distances:
        Precomputed ``(n, n)`` distance matrix.
    active:
        Optional boolean mask of length ``n``. Inactive nodes receive
        ``inf`` and are ignored as potential neighbors — this matches the
        paper's link classes, which are defined over *active* nodes only
        (Section 3.1).

    Returns
    -------
    numpy.ndarray
        Length-``n`` array; entry ``i`` is ``inf`` when node ``i`` is
        inactive or has no other active node (the "last node standing" is
        in no link class).
    """
    if active is None:
        active = np.ones(distances.shape[0], dtype=bool)
    return NearestActiveNeighbors(distances).sync(active)


def _row_minima(distances: np.ndarray, rows: np.ndarray, columns: np.ndarray):
    """Per row, the smallest distance to ``columns`` other than itself.

    Returns ``(values, positions)``: ``values[j]`` is the minimum of
    ``distances[rows[j], columns]`` with ``rows[j]``'s own column (if
    present) read as ``inf``, and ``positions[j]`` indexes ``columns``
    where it occurs. ``columns`` must be ascending. Rows are scanned in
    chunks of at most ``_CHUNK_CELLS`` cells.
    """
    n = distances.shape[1]
    values = np.empty(rows.size)
    positions = np.empty(rows.size, dtype=np.intp)
    own = np.minimum(np.searchsorted(columns, rows), max(columns.size - 1, 0))
    has_own = columns[own] == rows
    step = max(1, _CHUNK_CELLS // max(n, 1))
    for start in range(0, rows.size, step):
        chunk = slice(start, start + step)
        block = distances.take(rows[chunk], axis=0)
        if columns.size < n:
            block = block.take(columns, axis=1)
        local = np.arange(block.shape[0])
        block[local[has_own[chunk]], own[chunk][has_own[chunk]]] = np.inf
        best = block.argmin(axis=1)
        positions[chunk] = best
        values[chunk] = block[local, best]
    return values, positions


class NearestActiveNeighbors:
    """Each active node's nearest active neighbor, kept current incrementally.

    ``sync(active)`` returns what :func:`nearest_neighbor_distances`
    returns for ``active`` (that function is one sync of a fresh
    tracker), but only the first call pays the O(n^2) scan of the
    active submatrix. Later calls diff the new mask against the last one:

    * a node that left drops out, and the nodes whose stored nearest
      neighbor was among the leavers are recomputed over the active
      columns only;
    * a node that joined gets its own row, and every other active node
      folds in its distance to the joiners with one ``min``.

    ``min`` is exact, so the incremental values equal the from-scratch
    ones. The tracker holds three length-``n`` arrays, and its scans
    work in row chunks, so it never copies the ``(n, n)`` matrix.
    Simulation paths build one per execution and sync it with the
    pre-round active set, which shrinks by knockouts and grows by
    wake-ups under staggered activation.
    """

    def __init__(self, distances: np.ndarray) -> None:
        self.distances = np.asarray(distances, dtype=np.float64)
        n = self.distances.shape[0]
        self._active = np.zeros(n, dtype=bool)
        self._nearest = np.full(n, np.inf)
        self._neighbor = np.full(n, -1, dtype=np.intp)

    def sync(self, active: np.ndarray) -> np.ndarray:
        """Bring the tracker to ``active`` and return the nearest distances."""
        active = np.asarray(active, dtype=bool)
        nearest, neighbor = self._nearest, self._neighbor
        left = self._active & ~active
        joined = active & ~self._active
        if left.any() or joined.any():
            stayed = self._active & active
            nearest[left] = np.inf
            neighbor[left] = -1
            stale = stayed & (neighbor >= 0) & left[neighbor]
            rows = np.flatnonzero(stale | joined)
            if rows.size:
                columns = np.flatnonzero(active)
                values, best = _row_minima(self.distances, rows, columns)
                nearest[rows] = values
                neighbor[rows] = np.where(np.isfinite(values), columns[best], -1)
            kept = np.flatnonzero(stayed & ~stale)
            joiners = np.flatnonzero(joined)
            if kept.size and joiners.size:
                values, best = _row_minima(self.distances, kept, joiners)
                closer = values < nearest[kept]
                nearest[kept[closer]] = values[closer]
                neighbor[kept[closer]] = joiners[best[closer]]
            self._active = active.copy()
        return nearest.copy()


def points_in_ball(
    distances: np.ndarray,
    center: int,
    radius: float,
    active: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Indices of active nodes strictly within ``radius`` of node ``center``.

    Matches the paper's ``B(u, d)`` — the set of active nodes within
    distance ``d`` of ``u``. The center itself is included when active,
    mirroring the set definition; callers that need the punctured ball
    drop it explicitly.
    """
    n = distances.shape[0]
    if active is None:
        active = np.ones(n, dtype=bool)
    within = (distances[center] < radius) & active
    return np.flatnonzero(within)


def exponential_annulus(
    distances: np.ndarray,
    center: int,
    class_index: int,
    t: int,
    active: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The paper's exponential annulus ``A^i_t(u)`` as node indices.

    ``A^i_t(u) = B(u, 2^{t+1} * 2^i) \\ B(u, 2^t * 2^i)``: active nodes at
    distance ``d`` with ``2^t * 2^i <= d < 2^{t+1} * 2^i`` from ``u``.
    """
    n = distances.shape[0]
    if active is None:
        active = np.ones(n, dtype=bool)
    inner = float(2.0 ** (t + class_index))
    outer = float(2.0 ** (t + 1 + class_index))
    row = distances[center]
    within = (row >= inner) & (row < outer) & active
    within[center] = False
    return np.flatnonzero(within)


def annulus_counts(
    distances: np.ndarray,
    center: int,
    class_index: int,
    max_t: int,
    active: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Population of every annulus ``A^i_t(u)`` for ``t = 0 .. max_t``.

    Vectorised over ``t``: bins the distance row once instead of issuing
    ``max_t`` ball queries. Used by the Definition 1 good-node test, which
    inspects every annulus up to ``t = log R``.
    """
    n = distances.shape[0]
    if active is None:
        active = np.ones(n, dtype=bool)
    if max_t < 0:
        return np.zeros(0, dtype=np.int64)
    row = distances[center]
    mask = active.copy()
    mask[center] = False
    relevant = row[mask]
    # Annulus t covers [2^(t+i), 2^(t+1+i)); a distance d lands in
    # t = floor(log2(d)) - i when that value is within [0, max_t].
    edges = 2.0 ** (class_index + np.arange(max_t + 2, dtype=np.float64))
    counts, _ = np.histogram(relevant, bins=edges)
    return counts.astype(np.int64)


def greedy_separated_subset(
    distances: np.ndarray,
    candidates: Sequence[int],
    separation: float,
) -> List[int]:
    """Greedy maximal subset of ``candidates`` pairwise farther than ``separation``.

    This is the standard packing construction behind Lemma 2: scanning the
    candidates in order and keeping each one that is more than
    ``separation`` away from everything kept so far yields a maximal
    separated subset whose size is a constant fraction of the maximum.

    Returns the kept indices in scan order.
    """
    if separation < 0.0:
        raise ValueError(f"separation must be non-negative (got {separation})")
    kept: List[int] = []
    for candidate in candidates:
        row = distances[candidate]
        if all(row[other] > separation for other in kept):
            kept.append(int(candidate))
    return kept


def deployment_diameter(distances: np.ndarray) -> float:
    """Longest link in the deployment (the paper's ``R`` numerator)."""
    if distances.shape[0] < 2:
        return 0.0
    return float(distances.max())


def link_length_extremes(distances: np.ndarray) -> tuple:
    """``(shortest, longest)`` link lengths over all node pairs.

    The paper normalises the shortest link to 1 and calls the longest
    ``R``; :func:`repro.deploy.metrics.link_ratio` builds on this.
    """
    n = distances.shape[0]
    if n < 2:
        return (0.0, 0.0)
    upper = distances[np.triu_indices(n, k=1)]
    return (float(upper.min()), float(upper.max()))
