"""Vectorised-loop telemetry parity: the loop must report the same
per-round story the generic engine's observers see on a shared seed.

Both paths draw the same RNG stream (``n_active`` uniform doubles per
round, ascending node order), so on a deterministic channel the two
executions are identical round for round — which makes telemetry parity
an *exact* assertion, not a distributional one. The loop's per-round
rows are its round probes, ``(round, active_before, tx_count, knockouts)``
as a :class:`ProbeRecorder` stores them. Both resolve the solving round,
so its knockouts agree too.
"""

import pytest

from repro.deploy.topologies import uniform_disk
from repro.obs.probe import ProbeBus, ProbeRecorder, set_probe_bus
from repro.obs.registry import MetricsRegistry, set_registry
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel


def _channel(n, seed=7):
    return SINRChannel(uniform_disk(n, generator_from(seed)))


def _engine_rows(channel, p, seed):
    rows = []

    def observer(record, active):
        rows.append(
            (
                record.index,
                record.num_active_before,
                len(record.transmitters),
                len(record.knocked_out),
            )
        )

    nodes = FixedProbabilityProtocol(p=p).build(channel.n)
    trace = Simulation(
        channel,
        nodes,
        rng=generator_from(seed),
        observers=[observer],
        keep_records=False,
    ).run()
    return trace, rows


def _fast_rows(channel, p, seed):
    bus = ProbeBus(enabled=True)
    recorder = ProbeRecorder()
    bus.subscribe(recorder)
    previous = set_probe_bus(bus)
    try:
        result = fast_fixed_probability_run(channel, p=p, rng=generator_from(seed))
    finally:
        set_probe_bus(previous)
    columns = recorder.snapshot()
    names = ("rounds_round", "rounds_active", "rounds_tx", "rounds_knockouts")
    rows = list(zip(*(columns[name].tolist() for name in names)))
    return result, rows


@pytest.mark.parametrize("n,seed", [(32, 11), (64, 42), (128, 3)])
def test_round_counts_match_engine_observer(n, seed):
    channel = _channel(n)
    trace, engine_rows = _engine_rows(channel, p=0.1, seed=seed)
    result, fast_rows = _fast_rows(channel, p=0.1, seed=seed)

    assert trace.solved and result.solved
    assert result.solved_round == trace.solved_round
    assert len(fast_rows) == len(engine_rows) == trace.rounds_executed
    # (round, active, transmitters, knockouts) agree on every round,
    # the solving one included.
    assert fast_rows == engine_rows
    assert fast_rows[-1][3] > 0  # the solo transmission knocks listeners out


def test_fast_telemetry_matches_result_fields():
    channel = _channel(48)
    result, rows = _fast_rows(channel, p=0.1, seed=5)
    assert [row[1] for row in rows] == result.active_counts
    assert rows[-1][0] == result.solved_round
    assert rows[-1][2] == 1


def test_fast_metrics_match_engine_metrics_on_shared_seed():
    """The registry counters, not just the callback, must agree."""
    channel = _channel(64)

    def counters_for(run):
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            run()
        finally:
            set_registry(previous)
        return registry

    def engine_run():
        nodes = FixedProbabilityProtocol(p=0.1).build(channel.n)
        Simulation(
            channel, nodes, rng=generator_from(9), keep_records=False
        ).run()

    fast_registry = counters_for(
        lambda: fast_fixed_probability_run(channel, p=0.1, rng=generator_from(9))
    )
    engine_registry = counters_for(engine_run)

    assert (
        fast_registry.counter("fast.rounds").value
        == engine_registry.counter("sim.rounds").value
    )
    assert fast_registry.counter("fast.executions").value == 1
    assert fast_registry.counter("fast.solved_executions").value == 1
    assert (
        fast_registry.counter("fast.knockouts").value
        == engine_registry.counter("sim.knockouts").value
    )


def test_no_registry_records_when_disabled():
    channel = _channel(32)
    registry = MetricsRegistry(enabled=False)
    previous = set_registry(registry)
    try:
        fast_fixed_probability_run(channel, p=0.1, rng=generator_from(1))
    finally:
        set_registry(previous)
    assert registry.snapshot() == {}
