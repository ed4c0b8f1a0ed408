"""Setup parity: the grid sampler and the chunked channel build are bit-exact.

The references below are the earlier implementations, kept only as
oracles: the rejection sampler that scans every accepted point, and the
dense channel build (einsum distances, ``power / d**alpha``, an
``~eye`` mask for the co-location check). Every comparison is on raw
bits, and the sampler comparisons include the generator's next draw.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.deploy import topologies
from repro.deploy.topologies import (
    clustered,
    power_law_disk,
    two_cluster,
    uniform_disk,
    uniform_square,
)
from repro.obs.probe import ProbeBus, ProbeRecorder, set_probe_bus
from repro.protocols.carrier_sense import carrier_sense_threshold
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.seeding import generator_from
from repro.sinr import channel as channel_module
from repro.sinr.channel import SINRChannel
from repro.sinr.geometry import _CHUNK_CELLS, pairwise_distances
from repro.sinr.jamming import ExternalSource, external_gain_matrix
from repro.sinr.parameters import SINRParameters


def scan_sample(n, rng, draw, min_separation):
    """Reference sampler: compare each candidate with every accepted point."""
    accepted = np.empty((n, 2), dtype=np.float64)
    count = 0
    for _ in range(topologies._MAX_REJECTION_ROUNDS):
        if count == n:
            break
        needed = n - count
        candidates = draw(max(needed * 2, 8))
        for point in candidates:
            if count == n:
                break
            if count == 0:
                accepted[0] = point
                count = 1
                continue
            deltas = accepted[:count] - point
            nearest = np.sqrt((deltas**2).sum(axis=1)).min()
            if nearest >= min_separation:
                accepted[count] = point
                count += 1
    if count < n:
        raise RuntimeError("infeasible")
    return accepted


def einsum_distances(positions):
    """Reference distances: the ``(n, n, 2)`` einsum form."""
    deltas = positions[:, None, :] - positions[None, :, :]
    distances = np.sqrt(np.einsum("ijk,ijk->ij", deltas, deltas))
    np.fill_diagonal(distances, 0.0)
    return distances


def dense_build(positions, params, auto_power=True, sources=()):
    """Reference channel build: ``(params, gains, external)`` from a dense pass."""
    distances = einsum_distances(positions)
    n = positions.shape[0]
    if n >= 2:
        off_diagonal = distances[~np.eye(n, dtype=bool)]
        if np.any(off_diagonal == 0.0):
            raise ValueError("co-located nodes are not allowed (zero-length link)")
        diameter = float(distances.max())
        if auto_power and not params.satisfies_single_hop(max(diameter, 1e-300)):
            params = params.sized_for(diameter)
    with np.errstate(divide="ignore"):
        gains = params.power / distances**params.alpha
    np.fill_diagonal(gains, 0.0)
    external = external_gain_matrix(tuple(sources), positions, params.alpha)
    return params, gains, external


def assert_bits_equal(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def _cluster_radius(size, ms):
    # Wide enough that ``size`` points ``ms`` apart always fit.
    return max(2.0, 2.0 * ms * math.sqrt(size))


GENERATORS = {
    "uniform_disk": lambda n, rng, ms: uniform_disk(n, rng, min_separation=ms),
    "uniform_square": lambda n, rng, ms: uniform_square(n, rng, min_separation=ms),
    "power_law_disk": lambda n, rng, ms: power_law_disk(n, rng, min_separation=ms),
    "clustered": lambda n, rng, ms: clustered(
        4,
        max(1, n // 4),
        rng,
        cluster_radius=_cluster_radius(n // 4, ms),
        min_separation=ms,
    ),
    "two_cluster": lambda n, rng, ms: two_cluster(
        max(1, n // 2),
        rng,
        gap=5.0 * _cluster_radius(n // 2, ms),
        cluster_radius=_cluster_radius(n // 2, ms),
        min_separation=ms,
    ),
}


def _run_both(monkeypatch, generate, seed=7):
    """``generate(rng)`` and the next draw, with the grid sampler and the scan."""
    rng = generator_from(seed)
    grid_points = generate(rng)
    grid_next = rng.random(4)
    with monkeypatch.context() as patch:
        patch.setattr(topologies, "_rejection_sample", scan_sample)
        rng = generator_from(seed)
        scan_points = generate(rng)
        scan_next = rng.random(4)
    return grid_points, grid_next, scan_points, scan_next


class TestSamplerParity:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    @pytest.mark.parametrize("min_separation", [1.0, 0.1, 2.5, 0.0])
    @pytest.mark.parametrize("n", [1, 2, 24, 150])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generators_match_scan(self, monkeypatch, name, min_separation, n, seed):
        generate = GENERATORS[name]
        grid_points, grid_next, scan_points, scan_next = _run_both(
            monkeypatch, lambda rng: generate(n, rng, min_separation), seed
        )
        assert_bits_equal(grid_points, scan_points)
        assert_bits_equal(grid_next, scan_next)

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_uniform_disk_at_scale(self, monkeypatch, n):
        grid_points, grid_next, scan_points, scan_next = _run_both(
            monkeypatch, lambda rng: uniform_disk(n, rng)
        )
        assert_bits_equal(grid_points, scan_points)
        assert_bits_equal(grid_next, scan_next)

    @pytest.mark.parametrize("min_separation", [1.0, 0.1, 0.3, 1.0 / 3.0, 2.5, 7e-3])
    @pytest.mark.parametrize("base", [0, 12, 1 << 20, 1 << 40])
    def test_cell_boundary_adversarial(self, min_separation, base):
        # Candidates sit on cell edges k*ms and one ulp either side, so
        # pairs land within rounding of exactly ms apart, across edges,
        # far from the origin too (where x/ms rounds coarsely). The
        # sampler must accept and reject exactly as the scan does.
        ms = min_separation

        def adversarial(rng):
            def draw(k):
                cells = base + rng.integers(-4, 5, size=(k, 2))
                edges = cells * ms
                nudges = rng.integers(-1, 2, size=(k, 2))
                return np.where(
                    nudges < 0,
                    np.nextafter(edges, -np.inf),
                    np.where(nudges > 0, np.nextafter(edges, np.inf), edges),
                )

            return draw

        for seed in range(4):
            grid_rng = generator_from(seed)
            scan_rng = generator_from(seed)
            # The 9x9 block of edges always fits the 25 edges two cells
            # apart; ask for fewer so both finish, enough to crowd them.
            grid_points = topologies._rejection_sample(
                20, grid_rng, adversarial(grid_rng), ms
            )
            scan_points = scan_sample(20, scan_rng, adversarial(scan_rng), ms)
            assert_bits_equal(grid_points, scan_points)
            assert_bits_equal(grid_rng.random(4), scan_rng.random(4))


def _chunk_edge_sizes():
    # The node counts whose row count is one below, at and one above the
    # chunk height: one partial chunk, one full chunk, a full chunk plus a
    # tail.
    root = int(math.isqrt(_CHUNK_CELLS))
    return [root - 1, root, root + 1]


class TestChannelParity:
    @pytest.mark.parametrize("n", [1, 2, 3, *_chunk_edge_sizes(), 1024])
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("auto_power", [True, False])
    def test_gains_and_power_match_dense(self, n, alpha, auto_power):
        positions = uniform_disk(n, generator_from(n))
        params = SINRParameters(alpha=alpha)
        sources = [
            ExternalSource((0.5, 2.0), power=10.0, duty_cycle=1.0),
            ExternalSource((-3.0, 7.5), power=2.0, duty_cycle=0.5),
        ]
        channel = SINRChannel(
            positions, params=params, auto_power=auto_power, external_sources=sources
        )
        ref_params, ref_gains, ref_external = dense_build(
            positions, params, auto_power, sources
        )
        assert channel.params == ref_params
        assert_bits_equal(channel.base_gains, ref_gains)
        assert_bits_equal(channel.external_gains, ref_external)

    def test_large_deployment_matches_dense(self):
        positions = uniform_disk(4096, generator_from(4096))
        channel = SINRChannel(positions)
        ref_params, ref_gains, _ = dense_build(positions, SINRParameters())
        assert channel.params == ref_params
        assert_bits_equal(channel.base_gains, ref_gains)
        del ref_gains
        reference = einsum_distances(positions)
        assert channel.diameter == float(reference.max())
        assert_bits_equal(channel.distances, reference)

    @pytest.mark.parametrize("n", [1, 2, 3, *_chunk_edge_sizes(), 1024])
    def test_diameter_and_distances_match_dense(self, n):
        positions = uniform_disk(n, generator_from(n + 1))
        channel = SINRChannel(positions)
        reference = einsum_distances(positions)
        assert channel.diameter == float(reference.max())
        assert_bits_equal(channel.distances, reference)
        assert_bits_equal(pairwise_distances(positions), reference)

    @pytest.mark.parametrize("pair", ["first", "last", "across"])
    def test_colocated_pair_raises_in_any_chunk(self, pair):
        n = 1024
        positions = uniform_disk(n, generator_from(11))
        source, target = {"first": (1, 0), "last": (n - 1, n - 2), "across": (n - 1, 0)}[
            pair
        ]
        positions[source] = positions[target]
        with pytest.raises(ValueError, match="o-located"):
            dense_build(positions, SINRParameters())
        with pytest.raises(ValueError, match="o-located"):
            SINRChannel(positions)

    def test_distances_are_cached(self):
        channel = SINRChannel(uniform_disk(50, generator_from(5)))
        assert "distances" not in channel.__dict__
        first = channel.distances
        assert channel.distances is first


class TestSetupMemory:
    def test_channel_build_peak_is_the_gain_matrix(self):
        n = 2048
        positions = uniform_disk(n, generator_from(2048))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            channel = SINRChannel(positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert channel.n == n
        assert peak <= 1.1 * 8 * n * n

    def test_unprobed_fast_run_leaves_distances_unbuilt(self):
        channel = SINRChannel(uniform_disk(256, generator_from(6)))
        result = fast_fixed_probability_run(channel, p=0.1, rng=generator_from(7))
        assert result.solved
        assert "distances" not in channel.__dict__

    def test_carrier_sense_threshold_leaves_distances_unbuilt(self):
        positions = uniform_disk(300, generator_from(8))
        channel = SINRChannel(positions)
        threshold = carrier_sense_threshold(channel)
        assert "distances" not in channel.__dict__
        diameter = float(einsum_distances(positions).max())
        expected = 0.5 * channel.params.power / diameter**channel.params.alpha
        assert_bits_equal(threshold, expected)

    def test_probed_runs_build_distances_once_per_channel(self, monkeypatch):
        calls = []
        original = channel_module.pairwise_distances

        def counting(positions):
            calls.append(len(positions))
            return original(positions)

        monkeypatch.setattr(channel_module, "pairwise_distances", counting)
        channels = [SINRChannel(uniform_disk(128, generator_from(s))) for s in (1, 2)]
        bus = ProbeBus(enabled=True)
        bus.subscribe(ProbeRecorder())
        previous = set_probe_bus(bus)
        try:
            for channel in channels:
                for seed in (3, 4):
                    fast_fixed_probability_run(channel, p=0.1, rng=generator_from(seed))
        finally:
            set_probe_bus(previous)
        assert calls == [128, 128]
