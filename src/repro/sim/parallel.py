"""Trial execution: one entry loop, in-process or sharded bit-exactly.

Every quantitative claim in the paper is statistical, so wall time per
claim is dominated by how fast independent trials can be executed.
:func:`run_trials_parallel` shards a trial batch across a
``multiprocessing`` worker pool while preserving **bit-exact
reproducibility**: for any worker count ``k``,

    ``run_trials_parallel(seed=s, workers=k)``

returns the same per-trial ``rounds`` / ``failures`` as the serial
``run_trials(seed=s)``. The test suite pins this parity.

The seed-sharding contract
--------------------------

The serial runner derives trial ``t``'s two generators (deployment and
protocol) from children ``2t`` and ``2t + 1`` of one
:class:`~numpy.random.SeedSequence` tree rooted at ``seed``. The parallel
runner spawns the *same* tree in the parent
(:func:`repro.sim.seeding.spawn_seed_sequences`), partitions the trial
indices into contiguous shards (shard ``i`` of ``k`` owns trials
``[i * q + min(i, r), ...)`` where ``q, r = divmod(trials, k)``), and
ships each worker its trials' child ``SeedSequence`` objects — tiny,
picklable, and independent of every other child. A worker rebuilds
``default_rng(child)`` locally, so the entropy a trial consumes is a pure
function of ``(seed, trial_index)`` and never of the worker count, the
shard layout or the scheduling order. Results are reassembled in trial
order.

One entry loop over ``(trial, deploy_seed, protocol_seed)`` runs every
trial through :func:`repro.sim.runner.execute_trial`, which picks the
vectorised loop or the generic engine per protocol. A serial run
is a single shard iterated in-process, with no queue and no pickling; a
worker iterates its shard with the same loop and forwards each outcome.
One tally turns outcomes from either source into ``runner.*``
telemetry and :class:`~repro.sim.runner.TrialStats`, so behavioural
parity holds by construction.

Spawn safety
------------

Task specs are plain picklable dataclasses and the worker entry point is
a module-level function, so every start method works — including
``spawn``, which pickles everything. The default start method is the
platform's (``fork`` on Linux), under which closure-based channel
factories also work; for ``spawn``, use picklable factories such as
:class:`StaticDeploymentFactory` / :class:`UniformDiskFactory` or any
module-level callable.

Telemetry across the process boundary
-------------------------------------

When the parent's registry is enabled, each worker installs a local
enabled :class:`~repro.obs.registry.MetricsRegistry` and a
:class:`~repro.obs.events.QueueEventSink` that forwards every event it
emits — tagged with a ``worker_id`` field — through the result queue into
the parent's global sink. Per-trial outcomes stream back the same way
into the tally, which feeds the ``runner.*`` counters and emits the ~1 Hz
``trials_progress`` heartbeats (with a ``workers`` field). When each
shard finishes, the parent merges the worker's metrics snapshot into its
registry (:meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`) so
``metrics.json`` totals match a serial run.

Failure model
-------------

A worker death — nonzero exit code, an exception shipped back, or a
clean exit that never reported its shard — re-executes **only that
shard** in a fresh process, up to :data:`DEFAULT_SHARD_ATTEMPTS` total
attempts with exponential backoff, keeping every other shard's completed
trials. Because trial entropy is a pure function of ``(seed,
trial_index)``, the retry reproduces the dead worker's trials
bit-exactly, so retries are invisible in the results. A parent-side
exception (e.g. ``KeyboardInterrupt``) terminates workers promptly
instead of waiting for their shards. See docs/parallelism.md.

Deterministic deployments
-------------------------

A channel factory may declare ``deterministic = True`` (see
:data:`DETERMINISTIC_ATTR`) to promise it ignores its ``rng`` argument
and returns an equivalent, reusable channel every call. Both runners then
build the channel **once per shard** instead of once per trial, so the
precomputed gain matrix (``base_gains``) is shipped/constructed once and
shared read-only by every trial in the shard — this is what keeps the
vectorised loop's advantage when the deployment is fixed.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs.events import QueueEventSink, get_sink, set_sink
from repro.obs.probe import ProbeBus, ProbeRecorder, get_probe_bus, set_probe_bus
from repro.obs.registry import MetricsRegistry, get_registry, set_registry
from repro.protocols.base import ProtocolFactory
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.runner import ChannelFactory, TrialStats, execute_trial
from repro.sim.seeding import SeedLike, spawn_seed_sequences

__all__ = [
    "DEFAULT_SHARD_ATTEMPTS",
    "DETERMINISTIC_ATTR",
    "StaticDeploymentFactory",
    "UniformDiskFactory",
    "default_workers",
    "get_default_workers",
    "set_default_workers",
    "partition_trials",
    "run_trials_parallel",
    "run_fast_trials",
]

#: Name of the opt-in attribute a channel factory sets (``True``) to
#: declare the deterministic-deployment contract: the factory ignores its
#: ``rng`` argument and the returned channel is reusable across trials
#: (deterministic gain model, no per-trial internal state). Runners then
#: construct the channel once per shard and share it read-only.
DETERMINISTIC_ATTR = "deterministic"

#: Seconds between ``trials_progress`` heartbeat events.
_HEARTBEAT_SECONDS = 1.0

#: Seconds the parent waits on the result queue before re-checking worker
#: liveness.
_POLL_SECONDS = 0.2

#: Default number of attempts a shard gets before the whole run fails
#: (first execution + retries). See the failure model in
#: docs/parallelism.md.
DEFAULT_SHARD_ATTEMPTS = 3

#: Base delay before re-spawning a failed shard; doubles per retry
#: (0.1 s, 0.2 s, 0.4 s, ...).
_RETRY_BACKOFF_SECONDS = 0.1

#: Consecutive empty queue polls after which a worker that exited with
#: code 0 *without* reporting ``done`` is declared lost (its results are
#: not coming — e.g. the queue feeder died with it) and its shard is
#: retried. With ``_POLL_SECONDS = 0.2`` this is ~1 s of silence.
_LOST_WORKER_EMPTY_POLLS = 5

#: Seconds a failed worker gets to exit on its own before being
#: terminated. A worker that shipped an ``error`` message is already
#: unwinding; SIGTERM-ing it mid-exit can kill its queue feeder thread
#: while it holds the queue's shared write lock, poisoning the lock for
#: every subsequently retried worker (they block forever in ``put`` and
#: the run deadlocks). Reaping by graceful join avoids the window.
_REAP_GRACE_SECONDS = 5.0


# ---------------------------------------------------------------------------
# Worker-count default (the `--workers` CLI plumbing)

_default_worker_count = 1


def get_default_workers() -> int:
    """The process-wide default worker count ``run_trials`` falls back to."""
    return _default_worker_count


def set_default_workers(workers: int) -> int:
    """Install a new default worker count; returns the previous one."""
    global _default_worker_count
    if workers < 1:
        raise ValueError(f"workers must be positive (got {workers})")
    previous = _default_worker_count
    _default_worker_count = workers
    return previous


@contextlib.contextmanager
def default_workers(workers: int):
    """Scope a default worker count to a ``with`` block.

    ``python -m repro.experiments <id> --workers N`` wraps the experiment
    run in this context, so every ``run_trials`` call inside — none of
    which knows about worker counts — dispatches to the pool.
    """
    previous = set_default_workers(workers)
    try:
        yield
    finally:
        set_default_workers(previous)


# ---------------------------------------------------------------------------
# Picklable channel factories

@dataclass(frozen=True)
class StaticDeploymentFactory:
    """Channel factory for one fixed deployment — spawn-safe and shared.

    Carries the node ``positions`` (and optional
    :class:`~repro.sinr.parameters.SINRParameters`) instead of a built
    channel, so pickling a task spec ships coordinates, not an ``n x n``
    gain matrix; each shard reconstructs the channel (and its
    ``base_gains``) exactly once and reuses it for every trial.
    """

    positions: np.ndarray
    params: Optional[object] = None

    deterministic = True

    def __call__(self, rng: Optional[np.random.Generator]) -> object:
        from repro.sinr.channel import SINRChannel

        if self.params is None:
            return SINRChannel(np.asarray(self.positions, dtype=float))
        return SINRChannel(np.asarray(self.positions, dtype=float), params=self.params)


@dataclass(frozen=True)
class UniformDiskFactory:
    """Channel factory resampling a uniform-disk deployment per trial.

    The picklable equivalent of the ``lambda rng: SINRChannel(
    uniform_disk(n, rng), ...)`` closures the experiments use — needed
    whenever tasks must cross a ``spawn`` process boundary.
    """

    n: int
    params: Optional[object] = None

    def __call__(self, rng: np.random.Generator) -> object:
        from repro.deploy.topologies import uniform_disk
        from repro.sinr.channel import SINRChannel

        positions = uniform_disk(self.n, rng)
        if self.params is None:
            return SINRChannel(positions)
        return SINRChannel(positions, params=self.params)


# ---------------------------------------------------------------------------
# Sharding

def partition_trials(trials: int, shards: int) -> List[List[int]]:
    """Partition trial indices ``0..trials-1`` into contiguous shards.

    Shard sizes differ by at most one (the first ``trials % shards``
    shards get the extra trial); empty shards are never produced — the
    effective shard count is ``min(trials, shards)``. The layout is part
    of the documented seed-sharding contract (docs/parallelism.md), but
    results never depend on it: trials carry their index and are
    reassembled in order.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive (got {trials})")
    if shards < 1:
        raise ValueError(f"shards must be positive (got {shards})")
    shards = min(shards, trials)
    quotient, remainder = divmod(trials, shards)
    partition: List[List[int]] = []
    start = 0
    for index in range(shards):
        size = quotient + (1 if index < remainder else 0)
        partition.append(list(range(start, start + size)))
        start += size
    return partition




# ---------------------------------------------------------------------------
# The entry loop (serial runs are one in-process shard)

#: ``(trial_index, deploy_seed, protocol_seed)``: one trial's identity and
#: entropy, the unit every runner iterates over.
_Entry = Tuple[int, np.random.SeedSequence, np.random.SeedSequence]


@dataclass
class _ShardSpec:
    """Everything one shard needs — deliberately pickle-friendly."""

    worker_id: int
    channel_factory: ChannelFactory
    protocol: ProtocolFactory
    max_rounds: int
    keep_traces: bool
    recording: bool
    probing: bool = False
    entries: List[_Entry] = field(default_factory=list)


class _TrialOutcome(NamedTuple):
    """What one trial reports back to the tally (picklable)."""

    trial: int
    solved: bool
    rounds_to_solve: Optional[int]
    rounds_executed: int
    elapsed: float
    trace: Optional[object]


def _run_entries(
    spec: _ShardSpec, probe_bus: Optional[ProbeBus]
) -> Iterator[_TrialOutcome]:
    """Run a shard's entries in order, yielding one outcome per trial.

    The single trial loop: the serial runners iterate it in-process and
    shard workers forward what it yields. A deterministic factory's
    channel is built once here and shared by every trial of the shard.
    Each trial's elapsed time includes its channel construction.
    """
    shared_channel = None
    if getattr(spec.channel_factory, DETERMINISTIC_ATTR, False):
        shared_channel = spec.channel_factory(None)
    for trial, deploy_seed, protocol_seed in spec.entries:
        deploy_rng = np.random.default_rng(deploy_seed)
        protocol_rng = np.random.default_rng(protocol_seed)
        if probe_bus is not None:
            probe_bus.set_trial(trial)
        started = time.perf_counter()
        result = execute_trial(
            spec.channel_factory,
            spec.protocol,
            deploy_rng,
            protocol_rng,
            spec.max_rounds,
            spec.keep_traces,
            channel=shared_channel,
        )
        yield _TrialOutcome(
            trial,
            result.solved,
            result.rounds_to_solve,
            result.rounds_executed,
            time.perf_counter() - started,
            result if spec.keep_traces else None,
        )


class _Tally:
    """Folds trial outcomes into ``runner.*`` telemetry and a TrialStats.

    The serial runners and the sharded parent both feed it, so counters,
    ~1 Hz ``trials_progress`` heartbeats and the final progress event
    (``done == total``) are produced by one piece of code. A trial
    delivered twice (a retried shard re-sends what its dead predecessor
    already reported; the payloads are bit-identical) is counted once.
    """

    def __init__(
        self, name: str, trials: int, keep_traces: bool, workers: Optional[int] = None
    ) -> None:
        self.name = name
        self.trials = trials
        self.keep_traces = keep_traces
        #: Shard count, added to progress events of sharded runs only.
        self.workers = workers
        self.outcomes: Dict[int, _TrialOutcome] = {}
        self.solved = 0
        registry = get_registry()
        self.obs = registry if registry.enabled else None
        self.sink = get_sink() if self.obs is not None else None
        self.started = self.last_heartbeat = time.perf_counter()

    def record(self, outcome: _TrialOutcome) -> None:
        first_delivery = outcome.trial not in self.outcomes
        self.outcomes[outcome.trial] = outcome
        if not first_delivery:
            return
        self.solved += outcome.solved
        if self.obs is None:
            return
        self.obs.counter("runner.trials").inc()
        self.obs.counter("runner.solved" if outcome.solved else "runner.failures").inc()
        self.obs.histogram("runner.trial_seconds").observe(outcome.elapsed)
        now = time.perf_counter()
        if (
            now - self.last_heartbeat >= _HEARTBEAT_SECONDS
            and len(self.outcomes) < self.trials
        ):
            self.last_heartbeat = now
            self._progress(now)

    def _progress(self, now: float) -> None:
        done = len(self.outcomes)
        fields = dict(
            protocol=self.name,
            done=done,
            total=self.trials,
            solved=self.solved,
            failures=done - self.solved,
            elapsed_s=now - self.started,
        )
        if self.workers is not None:
            fields["workers"] = self.workers
        self.sink.emit("trials_progress", **fields)

    def finish(self) -> TrialStats:
        """Emit the final progress event and summarise in trial order."""
        now = time.perf_counter()
        if self.sink is not None:
            self._progress(now)
        ordered = [self.outcomes[trial] for trial in range(self.trials)]
        return TrialStats(
            protocol_name=self.name,
            trials=self.trials,
            rounds=[o.rounds_to_solve for o in ordered if o.solved],
            failures=sum(1 for o in ordered if not o.solved),
            traces=[o.trace for o in ordered] if self.keep_traces else None,
            total_wall_time=now - self.started,
            total_rounds_executed=sum(o.rounds_executed for o in ordered),
        )


def _shard_worker(spec: _ShardSpec, results) -> None:
    """Worker entry point: run one shard, stream results through ``results``.

    Module-level (hence picklable) so it works under every start method.
    Exceptions are shipped back as ``("error", ...)`` messages instead of
    dying silently.
    """
    try:
        registry = None
        if spec.recording:
            registry = MetricsRegistry(enabled=True)
            set_registry(registry)
            sink = QueueEventSink(results, spec.worker_id)
            set_sink(sink)
            sink.emit("worker_start", trials=len(spec.entries))
        probe_bus = None
        recorder = None
        if spec.probing:
            # Local flight recorder: probes accumulate in-process and the
            # whole columnar snapshot ships back once at shard end (probe
            # volume would swamp the queue trial-by-trial). Monitors run
            # here too — their warnings ride the worker's event sink, so
            # they arrive worker-tagged like every other event.
            from repro.obs.monitors import default_monitors

            probe_bus = ProbeBus(enabled=True)
            recorder = ProbeRecorder()
            probe_bus.subscribe(recorder)
            for monitor in default_monitors():
                probe_bus.subscribe(monitor)
            set_probe_bus(probe_bus)

        for outcome in _run_entries(spec, probe_bus):
            results.put(("trial", spec.worker_id, outcome))

        if spec.probing:
            probe_bus.finish()
            results.put(("probes", spec.worker_id, recorder.snapshot()))
        if spec.recording:
            results.put(("metrics", spec.worker_id, registry.snapshot()))
        results.put(("done", spec.worker_id))
    except BaseException:
        results.put(("error", spec.worker_id, traceback.format_exc()))


def _run(
    channel_factory: ChannelFactory,
    protocol: ProtocolFactory,
    trials: int,
    seed: SeedLike,
    max_rounds: int,
    keep_traces: bool,
    workers: Optional[int],
    start_method: Optional[str],
    shard_attempts: int,
) -> TrialStats:
    """The front end every runner shares: validate, shard, run, tally.

    ``workers=None`` consults :func:`get_default_workers`. One shard runs
    in-process — no queue, no pickling — through the same entry loop the
    workers run; more go to :func:`_execute_sharded`.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive (got {trials})")
    if workers is None:
        workers = get_default_workers()
    if workers < 1:
        raise ValueError(f"workers must be positive (got {workers})")
    if shard_attempts < 1:
        raise ValueError(f"shard_attempts must be positive (got {shard_attempts})")
    recording = get_registry().enabled
    probe_bus = get_probe_bus()
    sequences = spawn_seed_sequences(seed, 2 * trials)
    specs = [
        _ShardSpec(
            worker_id=worker_id,
            channel_factory=channel_factory,
            protocol=protocol,
            max_rounds=max_rounds,
            keep_traces=keep_traces,
            recording=recording,
            probing=probe_bus.enabled,
            entries=[
                (trial, sequences[2 * trial], sequences[2 * trial + 1])
                for trial in shard
            ],
        )
        for worker_id, shard in enumerate(partition_trials(trials, workers))
    ]
    if len(specs) > 1:
        return _execute_sharded(
            specs, protocol.name, trials, keep_traces, start_method, shard_attempts
        )
    tally = _Tally(protocol.name, trials, keep_traces)
    for outcome in _run_entries(specs[0], probe_bus if probe_bus.enabled else None):
        tally.record(outcome)
    return tally.finish()


def _execute_sharded(
    specs: List[_ShardSpec],
    name: str,
    trials: int,
    keep_traces: bool,
    start_method: Optional[str],
    shard_attempts: int,
) -> TrialStats:
    """Run each shard in its own worker process and tally what they send.

    Failure model (docs/parallelism.md): a shard whose worker dies — a
    nonzero exit code, an exception shipped back as an ``error``
    message, or a clean exit that never reported ``done`` (lost queue) —
    is re-executed in a fresh process, up to ``shard_attempts`` total
    attempts with exponential backoff, while every other shard's
    completed trials are kept. Seed sharding makes the retry bit-exact:
    a re-executed shard reproduces exactly the trials the dead worker
    owed, so retries are invisible in the results. Only when a shard
    exhausts its attempts does the run raise ``RuntimeError``. Any
    exception in the parent (including ``KeyboardInterrupt``) terminates
    the workers promptly instead of waiting for their shards to finish.
    """
    obs = get_registry()
    recording = obs.enabled
    sink = get_sink() if recording else None
    probe_bus = get_probe_bus()

    context = multiprocessing.get_context(start_method)
    results = context.Queue()
    tally = _Tally(name, trials, keep_traces, workers=len(specs))
    specs_by_id = {spec.worker_id: spec for spec in specs}
    processes: Dict[int, object] = {}
    attempts: Dict[int, int] = {}

    def _spawn(worker_id: int) -> None:
        attempts[worker_id] = attempts.get(worker_id, 0) + 1
        process = context.Process(
            target=_shard_worker, args=(specs_by_id[worker_id], results), daemon=True
        )
        process.start()
        processes[worker_id] = process

    for spec in specs:
        _spawn(spec.worker_id)

    probe_snapshots: Dict[int, Dict[str, np.ndarray]] = {}
    pending = set(specs_by_id)
    clean_exit = False

    def _retry_or_fail(worker_id: int, reason: str) -> None:
        """Reap a failed shard and re-spawn it, or raise once exhausted.

        Only this shard is re-executed; every other shard's completed
        trials stay in the tally, which ignores the bit-identical
        duplicates a retry re-sends.
        """
        process = processes[worker_id]
        # Reap by graceful join: an errored worker is already exiting by
        # itself, and terminating it mid-exit can kill its queue feeder
        # thread while it holds the queue's shared write lock — which
        # would deadlock every retried worker's ``put`` forever. Only a
        # worker that refuses to die gets terminated.
        process.join(timeout=_REAP_GRACE_SECONDS)
        if process.is_alive():
            process.terminate()
            process.join()
        if attempts[worker_id] >= shard_attempts:
            raise RuntimeError(
                f"parallel trial worker failed "
                f"(shard {worker_id}, {attempts[worker_id]} attempt(s)):\n{reason}"
            )
        delay = _RETRY_BACKOFF_SECONDS * (2 ** (attempts[worker_id] - 1))
        if sink is not None:
            sink.emit(
                "shard_retry",
                worker_id=worker_id,
                attempt=attempts[worker_id] + 1,
                max_attempts=shard_attempts,
                backoff_s=delay,
                reason=reason.strip().splitlines()[-1] if reason.strip() else reason,
            )
        if recording:
            obs.counter("runner.shard_retries").inc()
        time.sleep(delay)
        _spawn(worker_id)
        # The fresh worker deserves a full lost-queue grace window; a
        # stale count could declare it lost the instant it exits.
        nonlocal empty_polls
        empty_polls = 0

    try:
        empty_polls = 0
        while pending:
            try:
                message = results.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                empty_polls += 1
                for worker_id in sorted(pending):
                    exitcode = processes[worker_id].exitcode
                    if exitcode not in (None, 0):
                        _retry_or_fail(
                            worker_id,
                            f"worker process exited with code {exitcode} "
                            "before reporting results",
                        )
                    elif exitcode == 0 and empty_polls >= _LOST_WORKER_EMPTY_POLLS:
                        _retry_or_fail(
                            worker_id,
                            "worker process exited cleanly without reporting "
                            "results (lost queue)",
                        )
                continue
            empty_polls = 0
            kind = message[0]
            if kind == "trial":
                tally.record(message[2])
            elif kind == "event":
                if sink is not None:
                    sink.emit(message[2], **message[3])
            elif kind == "metrics":
                if recording:
                    obs.merge_snapshot(message[2])
            elif kind == "probes":
                probe_snapshots[message[1]] = message[2]
            elif kind == "done":
                pending.discard(message[1])
            elif kind == "error":
                _retry_or_fail(message[1], message[2])
        clean_exit = True
    finally:
        # On *any* non-clean exit — a shard out of attempts, lost trials,
        # or an in-flight exception such as KeyboardInterrupt landing in
        # ``results.get`` — terminate live workers before joining; a bare
        # join would block until every shard ran to completion.
        if not clean_exit:
            for process in processes.values():
                if process.is_alive():
                    process.terminate()
        for process in processes.values():
            process.join()
        results.close()

    if len(tally.outcomes) != trials:
        raise RuntimeError(
            f"parallel run lost trials: expected {trials}, got {len(tally.outcomes)}"
        )
    # Shards own contiguous ascending trial ranges, so absorbing in worker
    # order reproduces the serial recorder's row order exactly
    # (docs/parallelism.md) — no global sort, no reindexing.
    for worker_id in sorted(probe_snapshots):
        probe_bus.absorb(probe_snapshots[worker_id])
    return tally.finish()


def run_trials_parallel(
    channel_factory: ChannelFactory,
    protocol: ProtocolFactory,
    trials: int,
    seed: SeedLike = 0,
    max_rounds: int = 100_000,
    keep_traces: bool = False,
    workers: int = 2,
    start_method: Optional[str] = None,
    shard_attempts: int = DEFAULT_SHARD_ATTEMPTS,
) -> TrialStats:
    """Shard ``trials`` across ``workers`` processes; bit-identical results.

    Drop-in parallel equivalent of :func:`repro.sim.runner.run_trials`:
    same arguments, same :class:`~repro.sim.runner.TrialStats` (only the
    wall-time fields reflect the parallel schedule). ``start_method``
    picks the ``multiprocessing`` start method (``None`` = platform
    default; ``"spawn"`` requires picklable ``channel_factory`` and
    ``protocol`` — see the module docstring). A shard whose worker dies
    is re-executed bit-exactly, up to ``shard_attempts`` total attempts
    with exponential backoff, without discarding other shards' completed
    trials (the failure model in docs/parallelism.md).
    """
    return _run(
        channel_factory,
        protocol,
        trials,
        seed,
        max_rounds,
        keep_traces,
        workers,
        start_method,
        shard_attempts,
    )


def run_fast_trials(
    channel_factory: ChannelFactory,
    p: float,
    trials: int,
    seed: SeedLike = 0,
    max_rounds: int = 100_000,
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    batch: int = 1,
    shard_attempts: int = DEFAULT_SHARD_ATTEMPTS,
) -> TrialStats:
    """:func:`run_trials_parallel` of the paper's algorithm at probability ``p``.

    Kept for callers that pass ``p`` rather than a protocol; it runs
    ``FixedProbabilityProtocol(p)`` on the same seed tree and the same
    vectorised loop as :func:`~repro.sim.runner.run_trials` does.
    ``batch`` is accepted for compatibility and must be 1.
    """
    if batch != 1:
        raise ValueError(f"batch must be 1; trials run one at a time (got {batch})")
    return run_trials_parallel(
        channel_factory,
        FixedProbabilityProtocol(p),
        trials,
        seed=seed,
        max_rounds=max_rounds,
        workers=workers,
        start_method=start_method,
        shard_attempts=shard_attempts,
    )
