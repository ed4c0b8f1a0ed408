"""End-to-end telemetry: sessions, instrumented hot paths, CLI artefacts.

The acceptance contract: a full E1 run with ``--telemetry-dir`` emits a
manifest, a metrics snapshot, and a JSONL event stream — and this module
loads all three back and validates them.
"""

import json

import pytest

from repro.deploy.topologies import uniform_disk
from repro.obs import (
    JsonlEventSink,
    MetricsRegistry,
    RunManifest,
    TelemetrySession,
    get_registry,
    get_sink,
    read_events,
    set_registry,
)
from repro.obs.events import NullEventSink
from repro.protocols.simple import FixedProbabilityProtocol
from repro.radio.channel import RadioChannel
from repro.sim.runner import run_trials
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel


@pytest.fixture
def scoped_registry():
    """Isolate the global registry/sink around a test."""
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


def _run_batch(trials=4, n=16, seed=3, keep_traces=False):
    return run_trials(
        channel_factory=lambda rng: SINRChannel(uniform_disk(n, rng)),
        protocol=FixedProbabilityProtocol(p=0.1),
        trials=trials,
        seed=seed,
        max_rounds=5_000,
        keep_traces=keep_traces,
    )


class TestInstrumentedHotPaths:
    def test_engine_and_channel_metrics(self, scoped_registry):
        # Keeping traces holds the batch on the engine and its resolves.
        stats = _run_batch(trials=3, keep_traces=True)
        snapshot = scoped_registry.snapshot()
        assert not any(name.startswith("fast.") for name in snapshot)
        assert snapshot["sim.executions"]["value"] == 3
        assert snapshot["sim.rounds"]["value"] == stats.total_rounds_executed
        assert snapshot["runner.trials"]["value"] == 3
        assert snapshot["runner.solved"]["value"] == len(stats.rounds)
        assert snapshot["runner.trial_seconds"]["count"] == 3
        assert snapshot["channel.sinr.resolve_calls"]["value"] > 0
        assert snapshot["channel.sinr.gain_evaluations"]["value"] > 0
        assert snapshot["channel.sinr.resolve_seconds"]["sum"] > 0.0
        assert snapshot["sim.transmitters_per_round"]["count"] == (
            stats.total_rounds_executed
        )

    def test_routed_batch_feeds_fast_metrics(self, scoped_registry):
        # Without traces the schedule protocol runs on the vectorised
        # loop: round work lands on fast.*, never on sim.* / channel.*.
        stats = _run_batch(trials=3)
        snapshot = scoped_registry.snapshot()
        assert snapshot["fast.executions"]["value"] == 3
        assert snapshot["fast.rounds"]["value"] == stats.total_rounds_executed
        assert snapshot["fast.solved_executions"]["value"] == len(stats.rounds)
        assert snapshot["runner.trials"]["value"] == 3
        assert not any(
            name.startswith(("sim.", "channel.")) for name in snapshot
        )

    def test_radio_channel_metrics(self, scoped_registry):
        channel = RadioChannel(8)
        channel.resolve([1, 2])
        channel.resolve([3])
        snapshot = scoped_registry.snapshot()
        assert snapshot["channel.radio.resolve_calls"]["value"] == 2
        assert snapshot["channel.radio.resolve_seconds"]["count"] == 2

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        previous = set_registry(registry)
        try:
            _run_batch(trials=2)
        finally:
            set_registry(previous)
        assert registry.snapshot() == {}

    def test_channel_results_identical_with_and_without_telemetry(self):
        channel = SINRChannel(uniform_disk(16, generator_from(4)))
        transmitters = [0, 3, 7]
        disabled = channel.resolve(transmitters)
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            enabled = channel.resolve(transmitters)
        finally:
            set_registry(previous)
        assert enabled == disabled


class TestTrialStatsTiming:
    def test_wall_time_and_rounds_per_second_populated(self):
        stats = _run_batch(trials=3)
        assert stats.total_wall_time > 0.0
        assert stats.total_rounds_executed > 0
        assert stats.rounds_per_second > 0.0
        assert stats.rounds_per_second == pytest.approx(
            stats.total_rounds_executed / stats.total_wall_time
        )

    def test_heartbeat_events_reach_the_sink(self, scoped_registry, tmp_path):
        from repro.obs.events import set_sink

        sink = JsonlEventSink(tmp_path / "events.jsonl")
        previous = set_sink(sink)
        try:
            _run_batch(trials=5)
        finally:
            set_sink(previous)
            sink.close()
        events = read_events(tmp_path / "events.jsonl")
        progress = [e for e in events if e["event"] == "trials_progress"]
        assert progress  # at least the final-trial heartbeat
        assert progress[-1]["done"] == 5 and progress[-1]["total"] == 5


class TestTelemetrySession:
    def test_session_produces_all_three_artefacts(self, tmp_path):
        directory = tmp_path / "run"
        with TelemetrySession(directory, seed=11, command="test") as session:
            assert get_registry() is session.registry
            assert get_registry().enabled
            _run_batch(trials=2, keep_traces=True)
            _run_batch(trials=3)
            session.emit("milestone", detail="batch done")

        manifest = RunManifest.load(directory / "manifest.json")
        assert manifest.seed == 11
        assert manifest.status == "completed"
        assert manifest.git_sha is not None
        assert manifest.finished_at is not None

        metrics = json.loads((directory / "metrics.json").read_text())
        assert metrics["sim.executions"]["value"] == 2
        assert metrics["fast.executions"]["value"] == 3
        assert metrics["runner.trials"]["value"] == 5

        kinds = [e["event"] for e in read_events(directory / "events.jsonl")]
        assert kinds[0] == "session_start"
        assert kinds[-1] == "session_end"
        assert "milestone" in kinds

    def test_session_restores_previous_globals(self, tmp_path):
        registry_before = get_registry()
        sink_before = get_sink()
        with TelemetrySession(tmp_path / "run"):
            pass
        assert get_registry() is registry_before
        assert get_sink() is sink_before
        assert isinstance(get_sink(), NullEventSink)

    def test_failed_session_is_stamped_failed(self, tmp_path):
        directory = tmp_path / "run"
        with pytest.raises(RuntimeError, match="boom"):
            with TelemetrySession(directory):
                raise RuntimeError("boom")
        manifest = RunManifest.load(directory / "manifest.json")
        assert manifest.status == "failed"
        events = read_events(directory / "events.jsonl")
        assert events[-1]["status"] == "failed"


class TestExperimentsCliTelemetry:
    def test_full_e1_run_emits_loadable_artefacts(self, tmp_path, capsys):
        """Acceptance: E1 + --telemetry-dir => manifest, metrics, events."""
        from repro.experiments.__main__ import main

        directory = tmp_path / "telemetry"
        exit_code = main(["E1", "--telemetry-dir", str(directory)])
        capsys.readouterr()
        assert exit_code == 0

        manifest = RunManifest.load(directory / "manifest.json")
        assert manifest.seed["E1"] == 101  # E1's default config seed
        assert manifest.git_sha is not None
        assert manifest.config["preset"] == "quick"
        assert manifest.config["experiments"]["E1"]["trials"] == 40
        assert manifest.status == "completed"

        metrics = json.loads((directory / "metrics.json").read_text())
        # E1 runs on the vectorised fast path, so round work lands on
        # the fast.* counters rather than sim.* / channel.*.
        assert metrics["fast.rounds"]["value"] > 0
        assert metrics["fast.executions"]["value"] > 0
        assert metrics["runner.trials"]["value"] > 0

        events = read_events(directory / "events.jsonl")
        kinds = [e["event"] for e in events]
        assert kinds[0] == "session_start"
        assert "experiment_start" in kinds
        assert "trials_progress" in kinds
        end = next(e for e in events if e["event"] == "experiment_end")
        assert end["experiment"] == "E1" and end["passed"] is True
        assert kinds[-1] == "session_end"

    def test_cost_rows_surface_in_markdown_report(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        report = tmp_path / "report.md"
        exit_code = main(["E1", "--report", str(report)])
        capsys.readouterr()
        assert exit_code == 0
        text = report.read_text()
        assert "**Cost**" in text
        assert "rounds_per_sec" in text
        assert "n=512" in text
