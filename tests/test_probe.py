"""Probe bus + recorder: publication, trial numbering, npz round-trips.

The flight recorder's contract has three legs: the bus stamps probes with
correct (trial, round) coordinates, the recorder lays them out in the
stable 27-column ``probes.npz`` schema, and an enabled bus never perturbs
simulation results (no extra RNG draws). The last leg is what makes
``--probes`` safe to flip on for any reproduction run.
"""

import numpy as np
import pytest

from repro.deploy.topologies import uniform_disk
from repro.obs.probe import (
    PROBES_FILENAME,
    ProbeBus,
    ProbeRecorder,
    get_probe_bus,
    link_class_round_stats,
    load_probes,
    set_probe_bus,
)
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel

N = 24
MAX_ROUNDS = 4_000


def _channel(seed=5):
    return SINRChannel(uniform_disk(N, generator_from(seed)))


def _run_engine(channel, seed=6):
    nodes = FixedProbabilityProtocol(p=0.2).build(channel.n)
    return Simulation(
        channel, nodes, rng=generator_from(seed), max_rounds=MAX_ROUNDS
    ).run()


def _recorded(run, *, bus=None):
    bus = bus if bus is not None else ProbeBus(enabled=True)
    recorder = ProbeRecorder()
    bus.subscribe(recorder)
    previous = set_probe_bus(bus)
    try:
        result = run()
    finally:
        set_probe_bus(previous)
    return result, recorder


class TestBusCoordinates:
    def test_disabled_by_default(self):
        assert ProbeBus().enabled is False
        assert get_probe_bus().enabled is False

    def test_set_trial_pins_next_execution(self):
        bus = ProbeBus(enabled=True)
        bus.set_trial(7)
        assert bus.begin_execution(n=4) == 7
        # After the pinned execution, auto-increment continues from it.
        assert bus.begin_execution(n=4) == 8

    def test_auto_increment_for_bare_simulations(self):
        bus = ProbeBus(enabled=True)
        assert bus.begin_execution(n=4) == 0
        assert bus.begin_execution(n=4) == 1
        assert bus.begin_execution(n=4) == 2

    def test_set_probe_bus_returns_previous(self):
        original = get_probe_bus()
        replacement = ProbeBus(enabled=True)
        assert set_probe_bus(replacement) is original
        try:
            assert get_probe_bus() is replacement
        finally:
            set_probe_bus(original)

    def test_unsubscribe(self):
        bus = ProbeBus(enabled=True)
        recorder = ProbeRecorder()
        bus.subscribe(recorder)
        bus.unsubscribe(recorder)
        bus.emit_round(active_before=3, tx_count=1, knockouts=0)
        assert recorder.rounds_recorded == 0


class TestEnginePublication:
    def test_engine_records_rounds_and_execution(self):
        trace, recorder = _recorded(lambda: _run_engine(_channel()))
        snap = recorder.snapshot()
        assert recorder.executions_recorded == 1
        assert snap["exec_n"][0] == N
        assert snap["exec_rounds"][0] == trace.rounds_executed
        assert snap["exec_solved"][0] == (
            trace.solved_round if trace.solved else -1
        )
        assert recorder.rounds_recorded == trace.rounds_executed
        # Round indices are consecutive from zero for a single execution.
        assert snap["rounds_round"].tolist() == list(range(trace.rounds_executed))
        assert (snap["rounds_trial"] == 0).all()

    def test_deactivation_rounds_cover_knocked_nodes(self):
        trace, recorder = _recorded(lambda: _run_engine(_channel()))
        snap = recorder.snapshot()
        # Every knockout the rounds stream counts appears as one
        # per-node deactivation row, and no node deactivates twice.
        assert snap["deact_node"].size == snap["rounds_knockouts"].sum()
        assert np.unique(snap["deact_node"]).size == snap["deact_node"].size

    def test_sinr_probe_margins_and_delivery_agree(self):
        _, recorder = _recorded(lambda: _run_engine(_channel()))
        snap = recorder.snapshot()
        assert snap["sinr_receiver"].size > 0
        np.testing.assert_allclose(
            snap["sinr_margin"], snap["sinr_value"] - snap["sinr_beta"]
        )
        delivered = snap["sinr_delivered"]
        # Delivered implies SINR >= beta (up to rounding) — the monitor's
        # invariant, checked here directly on the recorded stream.
        assert (snap["sinr_value"][delivered] >= snap["sinr_beta"][delivered] * (1 - 1e-9)).all()

    def test_class_stats_sizes_sum_to_active(self):
        _, recorder = _recorded(lambda: _run_engine(_channel()))
        snap = recorder.snapshot()
        first_round = snap["class_round"] == 0
        assert snap["class_size"][first_round].sum() == snap["rounds_active"][0]

    def test_probes_do_not_change_engine_results(self):
        bare = _run_engine(_channel())
        probed, _ = _recorded(lambda: _run_engine(_channel()))
        assert probed.rounds_executed == bare.rounds_executed
        assert probed.solved_round == bare.solved_round


class TestFastPathPublication:
    def test_fast_path_records_and_matches_bare_run(self):
        channel = _channel()
        bare = fast_fixed_probability_run(
            channel, 0.2, generator_from(11), max_rounds=MAX_ROUNDS
        )
        probed, recorder = _recorded(
            lambda: fast_fixed_probability_run(
                channel, 0.2, generator_from(11), max_rounds=MAX_ROUNDS
            )
        )
        assert probed.rounds_executed == bare.rounds_executed
        assert probed.rounds_to_solve == bare.rounds_to_solve
        snap = recorder.snapshot()
        assert snap["exec_rounds"][0] == probed.rounds_executed
        assert snap["rounds_active"].tolist() == [
            int(c) for c in probed.active_counts
        ]


class TestRecorderRoundTrip:
    def test_npz_round_trip(self, tmp_path):
        _, recorder = _recorded(lambda: _run_engine(_channel()))
        path = recorder.write(tmp_path / PROBES_FILENAME)
        loaded = load_probes(path)
        snap = recorder.snapshot()
        assert set(loaded) == set(snap)
        for column in snap:
            assert np.array_equal(loaded[column], snap[column]), column
            assert loaded[column].dtype == snap[column].dtype, column

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, format_version=np.int64(999))
        with pytest.raises(ValueError, match="version"):
            load_probes(path)

    def test_load_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez_compressed(
            path, format_version=np.int64(1), rounds_trial=np.zeros(1, np.int64)
        )
        with pytest.raises(ValueError, match="columns missing"):
            load_probes(path)

    def test_absorb_preserves_row_order(self):
        first = ProbeRecorder()
        second = ProbeRecorder()
        bus = ProbeBus(enabled=True)
        bus.subscribe(first)
        bus.set_trial(0)
        bus.begin_execution(n=4)
        bus.emit_round(active_before=4, tx_count=2, knockouts=1, knocked_ids=(3,))
        bus.end_execution(5, None)
        bus.unsubscribe(first)
        bus.subscribe(second)
        bus.set_trial(1)
        bus.begin_execution(n=4)
        bus.emit_round(active_before=3, tx_count=1, knockouts=0)
        bus.end_execution(2, 1)

        merged = ProbeRecorder()
        merged.absorb(first.snapshot())
        merged.absorb(second.snapshot())
        snap = merged.snapshot()
        assert snap["rounds_trial"].tolist() == [0, 1]
        assert snap["exec_trial"].tolist() == [0, 1]
        assert snap["exec_solved"].tolist() == [-1, 1]
        assert snap["deact_node"].tolist() == [3]

    def test_empty_recorder_snapshot_types(self):
        snap = ProbeRecorder().snapshot()
        assert all(array.size == 0 for array in snap.values())
        assert snap["sinr_value"].dtype == np.float64
        assert snap["sinr_delivered"].dtype == np.bool_


def _emit_sinr(bus, receivers, sinr, beta=1.5):
    receivers = np.asarray(receivers, dtype=np.int64)
    bus.emit_sinr(
        receivers=receivers,
        sinr=np.asarray(sinr, dtype=np.float64),
        delivered=np.asarray(sinr, dtype=np.float64) >= beta,
        top_interferer=receivers + 100,
        top_fraction=np.linspace(0.0, 1.0, receivers.size),
        beta=beta,
    )


class TestChunkedRecorder:
    """SINR rows are stored as numpy chunks; the snapshot must not notice."""

    def _session(self, recorder, trial, sinr_rounds):
        bus = ProbeBus(enabled=True)
        bus.subscribe(recorder)
        bus.set_trial(trial)
        bus.begin_execution(n=8)
        for round_index, (receivers, sinr) in enumerate(sinr_rounds):
            bus.begin_round(round_index)
            _emit_sinr(bus, receivers, sinr)
            bus.emit_round(
                active_before=8 - round_index,
                tx_count=1,
                knockouts=1,
                knocked_ids=(round_index,),
                class_stats=((0, 8 - round_index, 1),),
            )
        bus.end_execution(len(sinr_rounds), None)

    def test_mixed_empty_and_nonempty_sinr_probes(self):
        recorder = ProbeRecorder()
        rounds = [([3, 4, 5], [0.5, 2.0, np.inf]), ([], []), ([6], [1.5]), ([], [])]
        self._session(recorder, trial=4, sinr_rounds=rounds)
        snap = recorder.snapshot()
        assert snap["sinr_trial"].tolist() == [4, 4, 4, 4]
        assert snap["sinr_round"].tolist() == [0, 0, 0, 2]
        assert snap["sinr_receiver"].tolist() == [3, 4, 5, 6]
        assert snap["sinr_value"].tolist() == [0.5, 2.0, np.inf, 1.5]
        assert snap["sinr_margin"].tolist() == [0.5 - 1.5, 2.0 - 1.5, np.inf, 0.0]
        assert snap["sinr_beta"].tolist() == [1.5] * 4
        assert snap["sinr_delivered"].tolist() == [False, True, True, True]
        assert snap["sinr_top_interferer"].tolist() == [103, 104, 105, 106]
        assert snap["sinr_top_fraction"].tolist() == [0.0, 0.5, 1.0, 0.0]
        assert snap["rounds_round"].tolist() == [0, 1, 2, 3]
        assert recorder.rounds_recorded == 4
        assert recorder.executions_recorded == 1

    def test_absorb_into_recorder_holding_chunks(self):
        first, second, third = ProbeRecorder(), ProbeRecorder(), ProbeRecorder()
        self._session(first, 0, [([1, 2], [0.1, 3.0]), ([], [])])
        self._session(second, 1, [([3], [2.5]), ([4, 5, 6], [1.0, 1.6, 9.0])])
        self._session(third, 2, [([], []), ([7], [0.2])])

        merged = ProbeRecorder()
        self._session(merged, 0, [([1, 2], [0.1, 3.0]), ([], [])])
        merged.absorb(second.snapshot())
        self._session(merged, 2, [([], []), ([7], [0.2])])

        expected = {
            name: np.concatenate(
                [first.snapshot()[name], second.snapshot()[name], third.snapshot()[name]]
            )
            for name in first.snapshot()
        }
        snap = merged.snapshot()
        for name, values in expected.items():
            assert np.array_equal(snap[name], values), name
            assert snap[name].dtype == values.dtype, name
        assert merged.rounds_recorded == 6
        assert merged.executions_recorded == 3
        assert snap["sinr_trial"].tolist() == [0, 0, 1, 1, 1, 1, 2]

    def test_every_column_keeps_its_dtype(self, tmp_path):
        from repro.obs.probe import _COLUMNS

        only_rounds = ProbeRecorder()
        self._session(only_rounds, 0, [([], [])])
        only_sinr = ProbeRecorder()
        bus = ProbeBus(enabled=True)
        bus.subscribe(only_sinr)
        _emit_sinr(bus, [1, 2], [1.0, 2.0])
        absorbed = ProbeRecorder()
        absorbed.absorb(only_sinr.snapshot())
        absorbed.absorb(only_rounds.snapshot())
        for recorder in (ProbeRecorder(), only_rounds, only_sinr, absorbed):
            snap = recorder.snapshot()
            loaded = load_probes(recorder.write(tmp_path / PROBES_FILENAME))
            assert list(snap) == [name for name, _ in _COLUMNS]
            for name, dtype in _COLUMNS:
                assert snap[name].dtype == np.dtype(dtype), name
                assert snap[name].ndim == 1, name
                assert loaded[name].dtype == np.dtype(dtype), name
        assert only_rounds.snapshot()["sinr_value"].size == 0
        assert only_sinr.snapshot()["rounds_trial"].size == 0

    def test_snapshot_does_not_alias_published_arrays(self):
        recorder = ProbeRecorder()
        bus = ProbeBus(enabled=True)
        bus.subscribe(recorder)
        receivers = np.array([1, 2], dtype=np.int64)
        sinr = np.array([0.5, 2.0])
        bus.emit_sinr(
            receivers=receivers,
            sinr=sinr,
            delivered=sinr >= 1.0,
            top_interferer=receivers,
            top_fraction=sinr,
            beta=1.0,
        )
        receivers[:] = 99
        sinr[:] = -1.0
        snap = recorder.snapshot()
        assert snap["sinr_receiver"].tolist() == [1, 2]
        assert snap["sinr_value"].tolist() == [0.5, 2.0]
        snap["sinr_value"][:] = 7.0
        assert recorder.snapshot()["sinr_value"].tolist() == [0.5, 2.0]


class TestLinkClassRoundStats:
    def test_matches_partition_sizes(self):
        from repro.analysis.linkclasses import link_class_partition
        from repro.sinr.geometry import pairwise_distances

        positions = uniform_disk(N, generator_from(5))
        distances = pairwise_distances(positions)
        mask = np.ones(N, dtype=bool)
        stats = link_class_round_stats(distances, mask, knocked_ids=(0, 1))
        partition = link_class_partition(distances, active=mask)
        assert {index: size for index, size, _ in stats} == {
            index: len(members) for index, members in partition.members.items()
        }
        knocked_total = sum(knocked for _, _, knocked in stats)
        assert knocked_total == 2
