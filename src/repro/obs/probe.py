"""Round-level flight recorder: the probe bus and its columnar recorder.

The metrics registry (:mod:`repro.obs.registry`) aggregates — it can say
*how many* knockouts a run produced, never *which receiver's SINR sat just
under beta in round 17*. This module is the round-granular complement:
a **probe bus** that the simulation paths publish per-round records to,
and a :class:`ProbeRecorder` that lays those records out columnar and
writes them as one compressed ``probes.npz`` beside ``metrics.json``.

Three kinds of probes flow over the bus:

:class:`RoundProbe`
    One per executed round — active-set size, transmitter count,
    knockouts (with the knocked node ids, which yield the per-node
    deactivation round), pending (not-yet-awake) nodes, and per-link-class
    ``(class_index, size_before, knocked)`` stats computed on the
    pre-round active set (Section 3.1's partition, the quantity
    Corollary 7 bounds).

:class:`SINRProbe`
    Per listener of one round — the decoded-candidate SINR, its margin to
    ``beta``, whether the message was delivered, and the top interferer
    (the strongest *other* transmitter) with its share of the
    interference sum. Published by :meth:`repro.sinr.SINRChannel.listen`,
    the array-level round both runners resolve rounds through.

:class:`ExecutionProbe`
    One per execution — node count, rounds executed, solving round.

Publication points are the generic engine (:mod:`repro.sim.engine`), the
vectorised loop (:mod:`repro.sim.fast`) and the SINR channel; both
runners resolve every round, the solving one included, so they emit the
same rows;
:mod:`repro.sim.parallel` workers record into local buses and ship their
recorder snapshots back for order-preserving merging, so a sharded run's
``probes.npz`` is bit-identical to a serial run's.

Zero cost when disabled — the same contract as the metrics registry: the
process-global bus defaults to ``enabled = False`` and every hot path
guards on that one attribute read. Enabling is opt-in per run
(``python -m repro.experiments <id> --telemetry-dir DIR --probes``).
When enabled, the dominant per-round cost is the link-class partition;
the simulation paths keep it incremental with one
:class:`~repro.sinr.geometry.NearestActiveNeighbors` per execution,
passed to :func:`link_class_round_stats`. The probes-enabled overhead is
tracked in ``BENCH_core.json`` (``fast_path_execution_probes``) and
measured end to end by the repository benchmark's ``probed_fast``
workload (``python3 perfbench/run.py --workload probed_fast``: 20
fast-path trials at ``n = 1024`` inside a probing
:class:`~repro.obs.telemetry.TelemetrySession`; ``--trace 1`` splits
out ``obs.probe.class_stats_s``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "PROBES_FILENAME",
    "ExecutionProbe",
    "ProbeBus",
    "ProbeRecorder",
    "RoundProbe",
    "SINRProbe",
    "get_probe_bus",
    "link_class_round_stats",
    "load_probes",
    "set_probe_bus",
]

PathLike = Union[str, Path]

#: The probe artefact a telemetry session writes beside ``metrics.json``.
PROBES_FILENAME = "probes.npz"

#: Stamped into the ``.npz`` so future layout changes stay detectable.
PROBES_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RoundProbe:
    """What happened in one executed round, engine's-eye view.

    ``class_stats`` holds ``(class_index, size_before, knocked)`` triples
    for the link-class partition of the *pre-round* active set (empty when
    the channel has no geometry, e.g. radio channels). ``pending`` counts
    nodes whose activation round has not arrived yet — the one legitimate
    source of active-set growth.
    """

    trial: int
    round_index: int
    active_before: int
    tx_count: int
    knockouts: int
    pending: int
    knocked_ids: Tuple[int, ...]
    class_stats: Tuple[Tuple[int, int, int], ...]


@dataclass(frozen=True)
class SINRProbe:
    """Per-listener reception physics for one round (vectorised).

    ``sinr`` is the SINR of the strongest arriving signal (the decode
    candidate under capture); ``margin = sinr - beta`` so a delivered
    message has non-negative margin up to float rounding.
    ``top_interferer[i]`` is the strongest *other* transmitter heard by
    ``receivers[i]`` (``-1`` when the round had a single transmitter) and
    ``top_fraction[i]`` its share of the total interference sum.
    """

    trial: int
    round_index: int
    beta: float
    receivers: np.ndarray
    sinr: np.ndarray
    delivered: np.ndarray
    top_interferer: np.ndarray
    top_fraction: np.ndarray

    @property
    def margin(self) -> np.ndarray:
        return self.sinr - self.beta


@dataclass(frozen=True)
class ExecutionProbe:
    """Summary of one finished execution (``solved_round`` may be None)."""

    trial: int
    n: int
    rounds_executed: int
    solved_round: Optional[int]


def link_class_round_stats(
    distances: np.ndarray,
    active_mask: np.ndarray,
    knocked_ids: Sequence[int],
    nearest=None,
) -> Tuple[Tuple[int, int, int], ...]:
    """Per-class ``(index, size_before, knocked)`` for one round.

    The partition is computed on the pre-round active set with the default
    unit (shortest nearest-neighbour link among the currently active
    nodes) — exactly the partition E5 measures, so the offline analyzer
    reproduces the experiment's own knockout-fraction numbers.

    ``nearest`` is :func:`~repro.analysis.linkclasses.link_class_partition`'s:
    the simulation paths pass a per-execution
    :class:`~repro.sinr.geometry.NearestActiveNeighbors`, so its upkeep
    happens inside this call and costs only the rows the round changed.
    """
    from repro.analysis.linkclasses import classify_active

    ids, classes, _ = classify_active(distances, active_mask, None, nearest)
    if not ids.size:
        return ()
    lowest = int(classes.min())
    offsets = classes - lowest
    sizes = np.bincount(offsets)
    offset_of = np.full(len(active_mask), -1, dtype=np.int64)
    offset_of[ids] = offsets
    knocked = offset_of[np.asarray(knocked_ids, dtype=np.intp)]
    knocked = np.bincount(knocked[knocked >= 0], minlength=sizes.size)
    return tuple(
        (lowest + int(k), int(sizes[k]), int(knocked[k]))
        for k in np.flatnonzero(sizes)
    )


class ProbeBus:
    """Fan-out point between the simulation paths and probe consumers.

    The bus stamps every probe with the current ``(trial, round)``
    coordinates so publishers that lack them (the channel does not know
    which round it is resolving) stay decoupled. Subscribers implement any
    subset of ``on_round`` / ``on_sinr`` / ``on_execution_end`` /
    ``finish`` / ``absorb``; :class:`ProbeRecorder` implements them all,
    the invariant monitors (:mod:`repro.obs.monitors`) the first three.

    Trial numbering: runners pin the next execution's trial index via
    :meth:`set_trial` (which is what keeps sharded runs mergeable); bare
    :class:`~repro.sim.engine.Simulation` users get a per-bus
    auto-increment.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._subscribers: List[object] = []
        self._pending_trial: Optional[int] = None
        self._next_auto_trial = 0
        self._trial = 0
        self._round = 0
        self._n = 0

    def subscribe(self, subscriber) -> None:
        self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber) -> None:
        self._subscribers.remove(subscriber)

    @property
    def subscribers(self) -> Tuple[object, ...]:
        return tuple(self._subscribers)

    # -- coordinates ------------------------------------------------------

    def set_trial(self, trial: int) -> None:
        """Pin the trial index of the *next* execution (runners call this)."""
        self._pending_trial = int(trial)

    def begin_execution(self, n: int) -> int:
        """Mark the start of an execution; returns its trial index."""
        if self._pending_trial is not None:
            trial = self._pending_trial
            self._pending_trial = None
        else:
            trial = self._next_auto_trial
        self._next_auto_trial = trial + 1
        self._trial = trial
        self._n = int(n)
        self._round = 0
        return trial

    def begin_round(self, round_index: int) -> None:
        """Stamp subsequent probes (e.g. the channel's) with this round."""
        self._round = int(round_index)

    # -- publication ------------------------------------------------------

    def emit_round(
        self,
        active_before: int,
        tx_count: int,
        knockouts: int,
        knocked_ids: Sequence[int] = (),
        pending: int = 0,
        class_stats: Tuple[Tuple[int, int, int], ...] = (),
    ) -> None:
        probe = RoundProbe(
            trial=self._trial,
            round_index=self._round,
            active_before=int(active_before),
            tx_count=int(tx_count),
            knockouts=int(knockouts),
            pending=int(pending),
            knocked_ids=tuple(int(i) for i in knocked_ids),
            class_stats=class_stats,
        )
        for subscriber in self._subscribers:
            handler = getattr(subscriber, "on_round", None)
            if handler is not None:
                handler(probe)

    def emit_sinr(
        self,
        receivers: np.ndarray,
        sinr: np.ndarray,
        delivered: np.ndarray,
        top_interferer: np.ndarray,
        top_fraction: np.ndarray,
        beta: float,
    ) -> None:
        probe = SINRProbe(
            trial=self._trial,
            round_index=self._round,
            beta=float(beta),
            receivers=receivers,
            sinr=sinr,
            delivered=delivered,
            top_interferer=top_interferer,
            top_fraction=top_fraction,
        )
        for subscriber in self._subscribers:
            handler = getattr(subscriber, "on_sinr", None)
            if handler is not None:
                handler(probe)

    def end_execution(
        self, rounds_executed: int, solved_round: Optional[int]
    ) -> None:
        probe = ExecutionProbe(
            trial=self._trial,
            n=self._n,
            rounds_executed=int(rounds_executed),
            solved_round=solved_round,
        )
        for subscriber in self._subscribers:
            handler = getattr(subscriber, "on_execution_end", None)
            if handler is not None:
                handler(probe)

    # -- lifecycle --------------------------------------------------------

    def finish(self) -> None:
        """Give subscribers (monitors) a final chance to flush verdicts."""
        for subscriber in self._subscribers:
            handler = getattr(subscriber, "finish", None)
            if handler is not None:
                handler()

    def absorb(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Fold a worker recorder's snapshot into local recorders.

        Only subscribers exposing ``absorb`` participate — monitors do not
        (they already ran inside the worker and forwarded their warnings
        through the worker's event sink).
        """
        for subscriber in self._subscribers:
            handler = getattr(subscriber, "absorb", None)
            if handler is not None:
                handler(snapshot)


#: ``snapshot()`` column names and dtypes — the ``probes.npz`` layout.
_COLUMNS: Tuple[Tuple[str, object], ...] = (
    ("rounds_trial", np.int64),
    ("rounds_round", np.int64),
    ("rounds_active", np.int64),
    ("rounds_tx", np.int64),
    ("rounds_knockouts", np.int64),
    ("rounds_pending", np.int64),
    ("sinr_trial", np.int64),
    ("sinr_round", np.int64),
    ("sinr_receiver", np.int64),
    ("sinr_value", np.float64),
    ("sinr_margin", np.float64),
    ("sinr_beta", np.float64),
    ("sinr_delivered", np.bool_),
    ("sinr_top_interferer", np.int64),
    ("sinr_top_fraction", np.float64),
    ("class_trial", np.int64),
    ("class_round", np.int64),
    ("class_index", np.int64),
    ("class_size", np.int64),
    ("class_knocked", np.int64),
    ("deact_trial", np.int64),
    ("deact_node", np.int64),
    ("deact_round", np.int64),
    ("exec_trial", np.int64),
    ("exec_n", np.int64),
    ("exec_rounds", np.int64),
    ("exec_solved", np.int64),
)
_DTYPES: Dict[str, object] = dict(_COLUMNS)


class ProbeRecorder:
    """Columnar accumulator for every probe kind — the flight recorder.

    Rows are appended in publication order; :meth:`snapshot` materialises
    them as numpy arrays keyed by the ``probes.npz`` column names (row
    groups: ``rounds_*``, ``sinr_*``, ``class_*``, ``deact_*``,
    ``exec_*``; ``exec_solved`` is ``-1`` for unsolved executions).
    :meth:`absorb` extends with another recorder's snapshot, which is how
    the parallel runner reassembles worker shards (workers own contiguous
    ascending trial ranges, so absorbing in worker order preserves the
    serial row order exactly).

    Storage: each column is a list of typed numpy chunks followed by a
    list of pending Python scalars. Per-round probes append scalars; a
    SINR probe or an absorbed snapshot appends one chunk per column, after
    first turning that column's pending scalars into a chunk so the row
    order is kept.
    """

    def __init__(self) -> None:
        self._chunks: Dict[str, List[np.ndarray]] = {name: [] for name, _ in _COLUMNS}
        self._pending: Dict[str, List] = {name: [] for name, _ in _COLUMNS}

    def _append_chunk(self, name: str, values) -> None:
        pending = self._pending[name]
        if pending:
            self._chunks[name].append(np.asarray(pending, dtype=_DTYPES[name]))
            self._pending[name] = []
        self._chunks[name].append(np.array(values, dtype=_DTYPES[name]))

    def _length(self, name: str) -> int:
        chunked = sum(len(chunk) for chunk in self._chunks[name])
        return chunked + len(self._pending[name])

    # -- bus subscriber interface ----------------------------------------

    def on_round(self, probe: RoundProbe) -> None:
        cols = self._pending
        cols["rounds_trial"].append(probe.trial)
        cols["rounds_round"].append(probe.round_index)
        cols["rounds_active"].append(probe.active_before)
        cols["rounds_tx"].append(probe.tx_count)
        cols["rounds_knockouts"].append(probe.knockouts)
        cols["rounds_pending"].append(probe.pending)
        for class_index, size_before, knocked in probe.class_stats:
            cols["class_trial"].append(probe.trial)
            cols["class_round"].append(probe.round_index)
            cols["class_index"].append(class_index)
            cols["class_size"].append(size_before)
            cols["class_knocked"].append(knocked)
        for node in probe.knocked_ids:
            cols["deact_trial"].append(probe.trial)
            cols["deact_node"].append(node)
            cols["deact_round"].append(probe.round_index)

    def on_sinr(self, probe: SINRProbe) -> None:
        count = len(probe.receivers)
        if not count:
            return
        sinr = np.asarray(probe.sinr, dtype=np.float64)
        self._append_chunk("sinr_trial", np.full(count, probe.trial))
        self._append_chunk("sinr_round", np.full(count, probe.round_index))
        self._append_chunk("sinr_receiver", probe.receivers)
        self._append_chunk("sinr_value", sinr)
        self._append_chunk("sinr_margin", sinr - probe.beta)
        self._append_chunk("sinr_beta", np.full(count, probe.beta))
        self._append_chunk("sinr_delivered", probe.delivered)
        self._append_chunk("sinr_top_interferer", probe.top_interferer)
        self._append_chunk("sinr_top_fraction", probe.top_fraction)

    def on_execution_end(self, probe: ExecutionProbe) -> None:
        cols = self._pending
        cols["exec_trial"].append(probe.trial)
        cols["exec_n"].append(probe.n)
        cols["exec_rounds"].append(probe.rounds_executed)
        cols["exec_solved"].append(
            -1 if probe.solved_round is None else int(probe.solved_round)
        )

    # -- materialisation --------------------------------------------------

    @property
    def executions_recorded(self) -> int:
        return self._length("exec_trial")

    @property
    def rounds_recorded(self) -> int:
        return self._length("rounds_trial")

    def snapshot(self) -> Dict[str, np.ndarray]:
        """All columns as typed numpy arrays (empty columns included)."""
        columns = {}
        for name, dtype in _COLUMNS:
            chunks = self._chunks[name] + [
                np.asarray(self._pending[name], dtype=dtype)
            ]
            columns[name] = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        return columns

    def absorb(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Append another recorder's snapshot (shard reassembly)."""
        for name, _ in _COLUMNS:
            values = snapshot.get(name)
            if values is not None and len(values):
                self._append_chunk(name, values)

    def write(self, path: PathLike) -> Path:
        """Write the recorder as a compressed ``probes.npz``.

        Serialised to memory first and placed with
        :func:`repro.obs.atomic.atomic_write_bytes`, so a kill mid-write
        cannot leave a truncated archive at ``path``.
        """
        import io

        from repro.obs.atomic import atomic_write_bytes

        path = Path(path)
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            format_version=np.int64(PROBES_FORMAT_VERSION),
            **self.snapshot(),
        )
        atomic_write_bytes(path, buffer.getvalue())
        return path


def load_probes(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a ``probes.npz`` back as a ``{column: array}`` mapping."""
    with np.load(Path(path)) as archive:
        version = int(archive.get("format_version", -1))
        if version != PROBES_FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported probe format version {version}"
            )
        missing = [name for name, _ in _COLUMNS if name not in archive]
        if missing:
            raise ValueError(f"{path}: probe columns missing: {missing}")
        return {name: archive[name] for name, _ in _COLUMNS}


#: The process-global probe bus. Disabled by default — simulations publish
#: nothing until a probes-enabled TelemetrySession (or an explicit
#: ``set_probe_bus``) switches it on.
_default_bus = ProbeBus(enabled=False)


def get_probe_bus() -> ProbeBus:
    """The process-global probe bus the simulation hot paths consult."""
    return _default_bus


def set_probe_bus(bus: ProbeBus) -> ProbeBus:
    """Install ``bus`` globally; returns the previous bus for restoration."""
    global _default_bus
    previous = _default_bus
    _default_bus = bus
    return previous
