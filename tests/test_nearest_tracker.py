"""Incremental nearest active neighbours and the vectorised class binning.

The flight recorder's per-round link-class stats are computed from a
per-execution :class:`~repro.sinr.geometry.NearestActiveNeighbors`
tracker instead of a from-scratch pass. These tests pin that the tracker
is bit-identical to the from-scratch answer on every round, on
deployments whose distance ratios are generic (uniform disk), exact
powers of two (grid) and one class per cluster (exponential chain), and
through the engine's staggered activation, where nodes join as well as
leave. The reference below is the original masked-copy formulation of
``nearest_neighbor_distances`` with the original per-node ``math.log2``
binning.
"""

import math
from collections import Counter

import numpy as np
import pytest

import repro.sim.engine as engine_module
import repro.sim.fast as fast_module
from repro.analysis.linkclasses import (
    LinkClassTracker,
    class_indices,
    link_class_partition,
)
from repro.deploy.topologies import exponential_chain, grid, uniform_disk
from repro.obs.probe import (
    ProbeBus,
    ProbeRecorder,
    link_class_round_stats,
    set_probe_bus,
)
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel
from repro.sinr.geometry import (
    NearestActiveNeighbors,
    nearest_neighbor_distances,
    pairwise_distances,
)


def reference_nearest(distances, active):
    """The original formulation: masked full copies, then a row min."""
    n = distances.shape[0]
    masked = np.where(active[None, :], distances, np.inf).astype(np.float64, copy=True)
    np.fill_diagonal(masked, np.inf)
    result = np.full(n, np.inf)
    if active.any():
        result[active] = masked[active].min(axis=1)
    return result


def reference_round_stats(distances, active, knocked):
    """Per-class ``(index, size, knocked)`` binned node by node."""
    nearest = reference_nearest(distances, active)
    finite = np.flatnonzero(np.isfinite(nearest))
    if not finite.size:
        return ()
    unit = float(nearest[finite].min())
    class_of = {
        int(node): math.floor(math.log2(nearest[node] / unit)) for node in finite
    }
    sizes = Counter(class_of.values())
    hits = Counter(class_of[int(k)] for k in knocked if int(k) in class_of)
    return tuple((index, sizes[index], hits[index]) for index in sorted(sizes))


def reference_partition(distances, active):
    """``(class_of, members)`` as the node-by-node scan builds them."""
    nearest = reference_nearest(distances, active)
    finite = np.flatnonzero(np.isfinite(nearest))
    unit = float(nearest[finite].min())
    class_of, buckets = {}, {}
    for node in finite:
        index = math.floor(math.log2(nearest[node] / unit))
        class_of[int(node)] = index
        buckets.setdefault(index, []).append(int(node))
    return class_of, {index: tuple(sorted(ids)) for index, ids in buckets.items()}


def partition_round_stats(distances, active, knocked):
    """The same stats read off a from-scratch ``link_class_partition``."""
    partition = link_class_partition(distances, active=active)
    hits = Counter(
        partition.class_of[int(k)] for k in knocked if int(k) in partition.class_of
    )
    return tuple(
        (index, len(members), hits[index])
        for index, members in sorted(partition.members.items())
    )


def knockout_masks(n, seed, keep_last=True):
    """Shrinking masks down to two nodes, one node and (optionally) none."""
    rng = np.random.default_rng(seed)
    active = np.ones(n, dtype=bool)
    masks = [active.copy()]
    while np.count_nonzero(active) > 2:
        ids = np.flatnonzero(active)
        fraction = rng.choice([0.0, 0.05, 0.3])
        count = min(math.ceil(fraction * ids.size), ids.size - 2)
        active[rng.choice(ids, size=count, replace=False)] = False
        masks.append(active.copy())
    for _ in range(2 if keep_last else 1):
        active[np.flatnonzero(active)[0]] = False
        masks.append(active.copy())
    return masks


DEPLOYMENTS = {
    "uniform_disk": lambda: uniform_disk(300, generator_from(11)),
    "grid400": lambda: grid(400),
    "exponential_chain": lambda: exponential_chain(10, nodes_per_class=6),
}


@pytest.fixture(params=sorted(DEPLOYMENTS))
def distances(request):
    return pairwise_distances(DEPLOYMENTS[request.param]())


class TestTrackerParity:
    def test_every_round_matches_from_scratch(self, distances):
        n = distances.shape[0]
        tracker = NearestActiveNeighbors(distances)
        masks = knockout_masks(n, seed=n)
        for before, after in zip(masks, masks[1:] + [masks[-1]]):
            knocked = np.flatnonzero(before & ~after)
            expected = reference_nearest(distances, before)
            stats = link_class_round_stats(distances, before, knocked, nearest=tracker)
            assert np.array_equal(tracker.sync(before), expected)
            assert stats == reference_round_stats(distances, before, knocked)
            assert stats == partition_round_stats(distances, before, knocked)

    def test_from_scratch_function_matches_reference(self, distances):
        n = distances.shape[0]
        rng = np.random.default_rng(3)
        for fraction in (1.0, 0.9, 0.5, 0.1, 2.0 / n, 1.0 / n, 0.0):
            active = rng.random(n) < fraction
            assert np.array_equal(
                nearest_neighbor_distances(distances, active),
                reference_nearest(distances, active),
            )
        assert np.array_equal(
            nearest_neighbor_distances(distances),
            reference_nearest(distances, np.ones(n, dtype=bool)),
        )

    def test_joins_and_leaves_in_any_order(self, distances):
        n = distances.shape[0]
        rng = np.random.default_rng(7)
        tracker = NearestActiveNeighbors(distances)
        for _ in range(40):
            active = rng.random(n) < rng.choice([0.02, 0.3, 0.8, 1.0])
            assert np.array_equal(
                tracker.sync(active), reference_nearest(distances, active)
            )

    def test_last_two_and_lone_survivor(self):
        distances = pairwise_distances(uniform_disk(40, generator_from(4)))
        tracker = NearestActiveNeighbors(distances)
        active = np.ones(40, dtype=bool)
        assert link_class_round_stats(distances, active, (), nearest=tracker)
        active[2:] = False
        stats = link_class_round_stats(distances, active, [1], nearest=tracker)
        assert stats == ((0, 2, 1),) == reference_round_stats(distances, active, [1])
        active[1] = False
        assert link_class_round_stats(distances, active, (), nearest=tracker) == ()
        assert np.all(np.isinf(tracker.sync(active)))
        active[0] = False
        assert link_class_round_stats(distances, active, (), nearest=tracker) == ()

    def test_partition_accepts_tracker_and_array(self, distances):
        n = distances.shape[0]
        active = knockout_masks(n, seed=1)[2]
        class_of, members = reference_partition(distances, active)
        from_scratch = link_class_partition(distances, active=active)
        via_tracker = link_class_partition(
            distances, active=active, nearest=NearestActiveNeighbors(distances)
        )
        via_array = link_class_partition(
            distances, active=active, nearest=reference_nearest(distances, active)
        )
        for partition in (from_scratch, via_tracker, via_array):
            assert partition.class_of == class_of
            assert list(partition.class_of) == list(class_of)
            assert partition.members == members
            # Same key order too: classes in order of their lowest member.
            assert list(partition.members) == list(members)
            assert partition.unit == from_scratch.unit

    def test_linkclass_tracker_history_matches(self):
        positions = uniform_disk(48, generator_from(21))
        channel = SINRChannel(positions)
        tracker = LinkClassTracker(channel.distances)
        masks = []
        nodes = FixedProbabilityProtocol(p=0.2).build(channel.n)
        Simulation(
            channel,
            nodes,
            rng=generator_from(22),
            max_rounds=4_000,
            observers=[tracker.observe, lambda record, mask: masks.append(mask.copy())],
        ).run()
        assert len(tracker.history) == len(masks) > 1
        for partition, mask in zip(tracker.history, masks):
            fresh = link_class_partition(channel.distances, mask, unit=tracker.unit)
            assert partition.class_of == fresh.class_of
            assert partition.members == fresh.members


class _Spy:
    """Stands in for ``link_class_round_stats`` and checks every call."""

    def __init__(self):
        self.calls = 0
        self.grew = 0
        self._previous = None

    def __call__(self, distances, active_mask, knocked_ids, nearest=None):
        assert isinstance(nearest, NearestActiveNeighbors)
        stats = link_class_round_stats(distances, active_mask, knocked_ids, nearest)
        assert stats == reference_round_stats(distances, active_mask, knocked_ids)
        if self._previous is not None and np.any(active_mask & ~self._previous):
            self.grew += 1
        self._previous = active_mask.copy()
        self.calls += 1
        return stats


def _probing(run):
    bus = ProbeBus(enabled=True)
    bus.subscribe(ProbeRecorder())
    previous = set_probe_bus(bus)
    try:
        return run()
    finally:
        set_probe_bus(previous)


class TestSimulationPaths:
    def test_fast_path_rounds(self, monkeypatch):
        spy = _Spy()
        monkeypatch.setattr(fast_module, "link_class_round_stats", spy)
        channel = SINRChannel(uniform_disk(256, generator_from(8)))
        for seed in range(3):
            spy._previous = None
            result = _probing(
                lambda: fast_fixed_probability_run(
                    channel, 0.1, generator_from((9, seed)), max_rounds=4_000
                )
            )
            assert result.solved
        assert spy.calls > 10

    def test_engine_staggered_activation_joins(self, monkeypatch):
        # E15's shape: activation rounds drawn uniformly from a window.
        spy = _Spy()
        monkeypatch.setattr(engine_module, "link_class_round_stats", spy)
        n, window = 64, 16
        for trial in range(3):
            channel = SINRChannel(uniform_disk(n, generator_from((15, trial))))
            schedule = generator_from((16, trial)).integers(0, window + 1, size=n)
            spy._previous = None
            _probing(
                lambda: Simulation(
                    channel,
                    FixedProbabilityProtocol(p=0.1).build(n),
                    rng=generator_from((17, trial)),
                    max_rounds=4_000,
                    keep_records=False,
                    activation_schedule=schedule.tolist(),
                ).run()
            )
        assert spy.calls > 10
        assert spy.grew > 0


class TestClassIndexBoundaries:
    @pytest.mark.parametrize("k", range(61))
    def test_matches_math_log2_at_powers_of_two(self, k):
        power = 2.0**k
        ratios = np.array(
            [
                np.nextafter(power, 0.0),
                power * (1.0 - 2.0**-52),
                power,
                power * (1.0 + 2.0**-52),
                np.nextafter(power, np.inf),
            ]
        )
        expected = [math.floor(math.log2(ratio)) for ratio in ratios]
        assert class_indices(ratios).tolist() == expected
        if k >= 3:
            # Classes come from the rounded log2, not the binary exponent:
            # one ulp below 2**k still rounds to k.
            assert class_indices(ratios[:1]).tolist() == [k]

    def test_matches_math_log2_on_random_ratios(self):
        ratios = np.exp2(np.random.default_rng(0).uniform(0.0, 40.0, 20_000))
        expected = [math.floor(math.log2(ratio)) for ratio in ratios]
        assert class_indices(ratios).tolist() == expected

    def test_invalid_ratios_raise_like_math(self):
        with pytest.raises(ValueError):
            class_indices(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            class_indices(np.array([-2.0]))
