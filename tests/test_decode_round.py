"""The one decode kernel: its block layout and its agreement with callers.

``decode_round`` builds the ``(|T|, |L|)`` block as ``gains[tx][:, L]``.
That block is F-contiguous whether ``L`` is a boolean mask (the channel)
or an index array (the fast path), so ``sum(axis=0)`` sums each column
along contiguous memory with numpy's pairwise summation. A C-ordered
block is not used because it sums the same values in a different order
and so changes the low bits of the totals, and with them the decode of
near-tie listeners and every bit-exact result downstream.
"""

import numpy as np
import pytest

from repro.deploy.topologies import uniform_disk
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel, decode_round

N = 512


@pytest.fixture(scope="module")
def channel():
    return SINRChannel(uniform_disk(N, generator_from(31)))


def _round(channel, tx_count, seed):
    rng = generator_from(seed)
    tx = np.sort(rng.choice(channel.n, size=tx_count, replace=False))
    mask = np.ones(channel.n, dtype=bool)
    mask[tx] = False
    return tx, mask, np.flatnonzero(mask)


@pytest.mark.parametrize("tx_count", [2, 5, 40, 205])
class TestLayout:
    def test_block_is_f_contiguous_for_both_selections(self, channel, tx_count):
        tx, mask, ids = _round(channel, tx_count, seed=tx_count)
        external = np.zeros(ids.size)
        for listeners in (mask, ids):
            decode = decode_round(
                channel.base_gains, tx, listeners, external, channel.params
            )
            assert decode.rows.flags.f_contiguous
            assert decode.rows.shape == (tx.size, ids.size)

    def test_totals_equal_explicit_fortran_copy(self, channel, tx_count):
        tx, mask, ids = _round(channel, tx_count, seed=100 + tx_count)
        external = generator_from(7).random(ids.size) * 1e-9
        gains = channel.base_gains
        expected = np.asfortranarray(gains[tx][:, ids]).sum(axis=0) + external
        by_mask = decode_round(gains, tx, mask, external, channel.params)
        by_ids = decode_round(gains, tx, ids, external, channel.params)
        assert np.array_equal(by_mask.totals, expected)
        assert np.array_equal(by_ids.totals, expected)

    def test_gathered_best_equals_column_max(self, channel, tx_count):
        tx, _, ids = _round(channel, tx_count, seed=200 + tx_count)
        decode = decode_round(
            channel.base_gains, tx, ids, np.zeros(ids.size), channel.params
        )
        assert np.array_equal(decode.best, decode.rows.max(axis=0))


def test_channel_resolve_reports_the_kernel_decode(channel):
    tx, mask, ids = _round(channel, 6, seed=3)
    decode = decode_round(
        channel.base_gains, tx, mask, np.zeros(ids.size), channel.params
    )
    report = channel.resolve(tx.tolist())
    expected = {
        int(ids[col]): int(tx[decode.best_rows[col]])
        for col in np.flatnonzero(decode.decoded)
    }
    assert report.received_from == expected
    assert [report.energy[int(node)] for node in ids] == decode.totals.tolist()
