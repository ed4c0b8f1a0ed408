"""Unit tests for :mod:`repro.deploy.topologies`."""

import numpy as np
import pytest

from repro.deploy.topologies import (
    clustered,
    exponential_chain,
    grid,
    line,
    power_law_disk,
    ring,
    two_cluster,
    uniform_disk,
    uniform_square,
)
from repro.sinr.geometry import pairwise_distances


def _min_pairwise(positions):
    d = pairwise_distances(positions)
    n = d.shape[0]
    return d[np.triu_indices(n, k=1)].min()


class TestUniformDisk:
    def test_count(self, rng):
        assert uniform_disk(30, rng).shape == (30, 2)

    def test_min_separation_enforced(self, rng):
        positions = uniform_disk(40, rng, min_separation=1.0)
        assert _min_pairwise(positions) >= 1.0

    def test_points_inside_radius(self, rng):
        positions = uniform_disk(30, rng, radius=20.0)
        assert np.all(np.linalg.norm(positions, axis=1) <= 20.0 + 1e-9)

    def test_default_radius_scales_with_n(self, rng):
        small = uniform_disk(16, rng)
        large = uniform_disk(256, rng)
        assert np.linalg.norm(large, axis=1).max() > np.linalg.norm(small, axis=1).max()

    def test_zero_n_rejected(self, rng):
        with pytest.raises(ValueError, match="n"):
            uniform_disk(0, rng)

    def test_infeasible_density_raises(self, rng):
        with pytest.raises(RuntimeError, match="density"):
            uniform_disk(100, rng, radius=2.0, min_separation=1.0)

    def test_deterministic_under_seed(self):
        a = uniform_disk(20, np.random.default_rng(7))
        b = uniform_disk(20, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestUniformSquare:
    def test_count_and_bounds(self, rng):
        positions = uniform_square(25, rng, side=30.0)
        assert positions.shape == (25, 2)
        assert np.all(positions >= 0.0)
        assert np.all(positions <= 30.0)

    def test_separation(self, rng):
        assert _min_pairwise(uniform_square(30, rng)) >= 1.0


class TestGrid:
    def test_exact_square(self):
        positions = grid(9)
        assert positions.shape == (9, 2)
        assert _min_pairwise(positions) == pytest.approx(1.0)

    def test_partial_square(self):
        positions = grid(7)
        assert positions.shape == (7, 2)

    def test_spacing(self):
        positions = grid(4, spacing=3.0)
        assert _min_pairwise(positions) == pytest.approx(3.0)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            grid(4, spacing=0.0)

    def test_single_node(self):
        assert grid(1).shape == (1, 2)


class TestLine:
    def test_collinear_even_spacing(self):
        positions = line(5, spacing=2.0)
        assert np.all(positions[:, 1] == 0.0)
        assert np.allclose(np.diff(positions[:, 0]), 2.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            line(0)
        with pytest.raises(ValueError):
            line(3, spacing=-1.0)


class TestExponentialChain:
    def test_node_count(self):
        positions = exponential_chain(4, nodes_per_class=6)
        assert positions.shape == (24, 2)

    def test_occupies_intended_classes(self):
        from repro.analysis.linkclasses import link_class_partition

        positions = exponential_chain(4, nodes_per_class=2)
        distances = pairwise_distances(positions)
        partition = link_class_partition(distances)
        # Cluster i's pair gap is 2^i, so classes 0..3 are all occupied.
        assert set(partition.occupied) == {0, 1, 2, 3}

    def test_log_r_grows_with_classes(self):
        from repro.deploy.metrics import log_link_ratio

        small = log_link_ratio(exponential_chain(2))
        large = log_link_ratio(exponential_chain(8))
        assert large > small + 4.0

    def test_nearest_neighbor_is_cluster_partner(self):
        from repro.sinr.geometry import nearest_neighbor_distances

        positions = exponential_chain(3, nodes_per_class=4)
        distances = pairwise_distances(positions)
        nearest = nearest_neighbor_distances(distances)
        # Pair gaps are 2^i for cluster i; every node's nearest neighbor
        # must be its vertical partner.
        expected = np.repeat([2.0**i for i in range(3)], 4)
        assert np.allclose(nearest, expected)

    def test_odd_nodes_per_class_rejected(self):
        with pytest.raises(ValueError, match="even"):
            exponential_chain(2, nodes_per_class=3)

    def test_base_must_exceed_one(self):
        with pytest.raises(ValueError, match="base"):
            exponential_chain(2, base=1.0)


class TestRing:
    def test_neighbor_spacing(self):
        positions = ring(12, spacing=2.0)
        assert _min_pairwise(positions) == pytest.approx(2.0)

    def test_points_on_common_circle(self):
        positions = ring(10)
        radii = np.linalg.norm(positions, axis=1)
        assert np.allclose(radii, radii[0])

    def test_single_class(self):
        from repro.deploy.metrics import occupied_link_classes

        assert occupied_link_classes(ring(16)) == 1

    def test_small_cases(self):
        assert ring(1).shape == (1, 2)
        two = ring(2, spacing=3.0)
        assert np.linalg.norm(two[1] - two[0]) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ring(0)
        with pytest.raises(ValueError):
            ring(4, spacing=0.0)


class TestPowerLawDisk:
    def test_count_and_separation(self, rng):
        positions = power_law_disk(40, rng)
        assert positions.shape == (40, 2)
        assert _min_pairwise(positions) >= 1.0

    def test_radii_within_bounds(self, rng):
        positions = power_law_disk(
            30, rng, inner_radius=2.0, outer_radius=200.0
        )
        radii = np.linalg.norm(positions, axis=1)
        assert radii.min() >= 2.0 - 1e-9
        assert radii.max() <= 200.0 + 1e-9

    def test_denser_near_center(self, rng):
        positions = power_law_disk(
            120, rng, exponent=2.5, inner_radius=2.0, outer_radius=400.0
        )
        radii = np.linalg.norm(positions, axis=1)
        # Far more points inside the geometric-mean radius than outside.
        split = np.sqrt(2.0 * 400.0)
        assert (radii < split).sum() > (radii >= split).sum()

    def test_produces_many_link_classes(self, rng):
        from repro.deploy.metrics import occupied_link_classes

        positions = power_law_disk(
            100, rng, exponent=2.5, inner_radius=2.0, outer_radius=2_000.0
        )
        assert occupied_link_classes(positions) >= 3

    def test_exponent_two_log_uniform_path(self, rng):
        positions = power_law_disk(20, rng, exponent=2.0)
        assert positions.shape == (20, 2)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="exponent"):
            power_law_disk(10, rng, exponent=1.0)
        with pytest.raises(ValueError, match="inner_radius"):
            power_law_disk(10, rng, inner_radius=0.0)
        with pytest.raises(ValueError, match="outer_radius"):
            power_law_disk(10, rng, inner_radius=5.0, outer_radius=5.0)


class TestClustered:
    def test_node_count(self, rng):
        positions = clustered(3, 8, rng)
        assert positions.shape == (24, 2)

    def test_separation_inside_clusters(self, rng):
        positions = clustered(2, 10, rng, min_separation=1.0)
        assert _min_pairwise(positions) >= 1.0

    def test_clusters_are_tight(self, rng):
        from repro.analysis.linkclasses import link_class_partition

        positions = clustered(3, 12, rng, cluster_radius=4.0)
        distances = pairwise_distances(positions)
        partition = link_class_partition(distances)
        # Within-cluster nearest neighbors dominate: the smallest class
        # holds the bulk of the nodes.
        dominant = max(partition.occupied, key=partition.size)
        assert partition.size(dominant) >= positions.shape[0] // 2

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            clustered(0, 5, rng)


class TestTwoCluster:
    def test_node_count_and_gap(self, rng):
        positions = two_cluster(6, rng, gap=64.0, cluster_radius=2.0)
        assert positions.shape == (12, 2)
        left = positions[:6]
        right = positions[6:]
        # Clusters stay around their centers.
        assert np.all(np.linalg.norm(left, axis=1) <= 2.0 + 1e-9)
        assert np.all(np.linalg.norm(right - [64.0, 0.0], axis=1) <= 2.0 + 1e-9)

    def test_gap_validation(self, rng):
        with pytest.raises(ValueError, match="gap"):
            two_cluster(4, rng, gap=4.0, cluster_radius=2.0)

    def test_cluster_size_validation(self, rng):
        with pytest.raises(ValueError, match="cluster_size"):
            two_cluster(0, rng)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]

#: Each sampler-backed generator with one of its region arguments.
REGION_ARGUMENTS = [
    (uniform_disk, (50,), "radius"),
    (uniform_square, (50,), "side"),
    (power_law_disk, (50,), "exponent"),
    (power_law_disk, (50,), "inner_radius"),
    (power_law_disk, (50,), "outer_radius"),
    (clustered, (3, 10), "cluster_radius"),
    (clustered, (3, 10), "field_side"),
    (two_cluster, (10,), "gap"),
    (two_cluster, (10,), "cluster_radius"),
]

SAMPLERS = [
    (uniform_disk, (50,)),
    (uniform_square, (50,)),
    (power_law_disk, (50,)),
    (clustered, (3, 10)),
    (two_cluster, (10,)),
]

#: Region sizes that do not scale with ``min_separation``, so runs that
#: differ only in the separation draw from the same region.
FIXED_REGIONS = {
    uniform_disk: {"radius": 30.0},
    uniform_square: {"side": 50.0},
    power_law_disk: {"outer_radius": 200.0},
    clustered: {},
    two_cluster: {},
}


class TestNonFiniteArguments:
    """NaN or infinite sizes fail fast instead of exhausting the sampler."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("generator, args", SAMPLERS)
    def test_min_separation(self, rng, generator, args, value):
        with pytest.raises(ValueError, match="min_separation must be finite"):
            generator(*args, rng, min_separation=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("generator, args, name", REGION_ARGUMENTS)
    def test_region_size(self, rng, generator, args, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            generator(*args, rng, **{name: value})

    @pytest.mark.parametrize("min_separation", [-1.0, -1e-300])
    @pytest.mark.parametrize("generator, args", SAMPLERS)
    def test_negative_separation_means_none(self, generator, args, min_separation):
        # Like 0 (checked against the scan in test_setup_parity): no
        # separation, same points, same generator state afterwards.
        region = FIXED_REGIONS[generator]
        plain = np.random.default_rng(5)
        loose = np.random.default_rng(5)
        zero = generator(*args, plain, min_separation=0.0, **region)
        other = generator(*args, loose, min_separation=min_separation, **region)
        assert np.array_equal(zero, other)
        assert plain.random() == loose.random()

    def test_separation_below_normal_square_rejected(self, rng):
        with pytest.raises(ValueError, match="min_separation"):
            uniform_disk(5, rng, radius=1.0, min_separation=1e-160)

    def test_overflowing_cell_labels_rejected(self, rng):
        with pytest.raises(ValueError, match="shrink the region"):
            uniform_square(5, rng, side=1e300, min_separation=1e-100)
