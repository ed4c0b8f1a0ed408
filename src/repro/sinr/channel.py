"""The SINR channel: per-round reception resolution (Equation 1).

Given a deployment (fixed positions) the channel precomputes the gain
matrix ``G[i, j] = P / d(i, j)^alpha`` once. Resolving one round is then a
handful of vectorised reductions:

* total arriving power at each listener: ``tot = G[T].sum(axis=0)``
* strongest arriving signal at each listener: ``best = G[T].max(axis=0)``
* listener ``v`` receives the strongest transmitter ``u`` iff
  ``G[u, v] / (noise + tot_v - G[u, v]) >= beta``.

Because the SINR of a candidate transmitter is monotone increasing in its
arriving signal (each transmitter's own power is excluded from its
interference term), the strongest arriving signal clears the threshold iff
any signal does — for every ``beta``. The channel decodes the strongest
clearing signal (the capture effect), so resolving a round needs only the
per-listener argmax. When ``beta >= 1`` that decode is additionally unique.

:func:`decode_round` is that rule, written once. Its one caller is
:meth:`SINRChannel.listen`, the array-level round that also draws the
round's fading gains and intermittent sources and publishes the SINR
probe; :meth:`SINRChannel.resolve` (the engine's entry) and the
vectorised loop (:mod:`repro.sim.fast`) both go through it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np

from repro.obs.probe import get_probe_bus
from repro.obs.registry import get_registry
from repro.radio.channel import Hearing
from repro.sinr.fading import DeterministicGain, GainModel
from repro.sinr.geometry import (
    as_positions,
    pairwise_distances,
    squared_distance_chunks,
)
from repro.sinr.jamming import ExternalSource, external_gain_matrix
from repro.sinr.parameters import SINRParameters

__all__ = [
    "ReceptionReport",
    "RoundDecode",
    "SINRChannel",
    "decode_round",
    "emit_sinr_probe",
]


@dataclass(frozen=True)
class ReceptionReport:
    """Outcome of one round on the channel.

    Attributes
    ----------
    transmitters:
        Sorted node indices that transmitted this round.
    received_from:
        Mapping ``listener -> transmitter`` for every listener that decoded
        a message this round. Transmitting nodes never appear as keys: a
        node cannot transmit and listen in the same round (Section 2).
    energy:
        Mapping ``listener -> total arriving signal power`` (the sum over
        all transmitters and any external sources on the air; noise
        excluded). This is what a carrier-sensing radio measures;
        protocols that do not sense energy simply ignore it. Empty only
        when nobody transmitted *and* no external source was on the air —
        on transmitter-free rounds listeners still sense active jammers
        (:mod:`repro.sinr.jamming`).
    """

    transmitters: tuple
    received_from: Dict[int, int] = field(default_factory=dict)
    energy: Dict[int, float] = field(default_factory=dict)

    @property
    def is_solo(self) -> bool:
        """Whether exactly one node transmitted (the success condition)."""
        return len(self.transmitters) == 1

    def heard_by(self, listener: int) -> Optional[int]:
        """The transmitter decoded by ``listener``, or ``None``."""
        return self.received_from.get(listener)


class RoundDecode(NamedTuple):
    """Equation 1 evaluated at every listener of one round.

    Column ``j`` belongs to the ``j``-th selected listener; ``best_rows[j]``
    indexes the transmitter list, not node ids.
    """

    #: ``(|T|, |L|)`` block of arriving powers, F-contiguous.
    rows: np.ndarray
    #: Total arriving power per listener, external sources included.
    totals: np.ndarray
    #: Row of the strongest arriving signal per listener.
    best_rows: np.ndarray
    #: Strongest arriving signal per listener.
    best: np.ndarray
    #: ``totals - best``: everything the decode candidate competes with.
    interference: np.ndarray
    #: Whether the strongest signal clears ``beta`` (the listener decodes).
    decoded: np.ndarray


def decode_round(
    gains: np.ndarray,
    tx: np.ndarray,
    listeners: np.ndarray,
    external: np.ndarray,
    params: SINRParameters,
) -> RoundDecode:
    """The decode kernel: who hears the strongest transmitter this round.

    ``listeners`` selects columns as a boolean mask or an index array;
    ``external`` is the arriving external power per selected listener.
    ``gains[tx][:, listeners]`` comes back F-contiguous for both
    selections, so ``sum(axis=0)`` runs numpy's pairwise summation down
    each column and every caller gets the same bits. A C-ordered block
    holds the same values but sums them in another order, which changes
    the low bits and with them knock-outs on near ties, so the block is
    never copied.

    The SINR of a candidate is monotone in its arriving signal (its own
    power is excluded from its interference), so the strongest signal
    clears ``beta`` iff any signal does: checking the argmax is
    exhaustive (the capture effect).
    """
    rows = gains[tx][:, listeners]
    totals = rows.sum(axis=0) + external
    best_rows = rows.argmax(axis=0)
    best = rows[best_rows, np.arange(rows.shape[1])]
    interference = totals - best
    decoded = best >= params.beta * (params.noise + interference)
    return RoundDecode(rows, totals, best_rows, best, interference, decoded)


def emit_sinr_probe(
    bus,
    decode: RoundDecode,
    tx: np.ndarray,
    receivers: np.ndarray,
    params: SINRParameters,
) -> None:
    """Publish one round's SINR probe (:mod:`repro.obs.probe`).

    Per listener: the decode candidate's SINR, and the strongest
    competing transmitter with its share of the interference sum (``-1``
    and 0 when the candidate is the only transmitter). Reads only the
    kernel's reductions and draws no randomness, so probed runs stay
    bit-identical to unprobed ones.
    """
    cols = np.arange(receivers.size)
    denom = params.noise + decode.interference
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(denom > 0.0, decode.best / denom, np.inf)
    if tx.size > 1:
        others = decode.rows.copy()
        others[decode.best_rows, cols] = -np.inf
        second_rows = others.argmax(axis=0)
        second = others[second_rows, cols]
        top_ids = tx[second_rows].astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            top_frac = np.where(
                decode.interference > 0.0, second / decode.interference, 0.0
            )
    else:
        top_ids = np.full(receivers.size, -1, dtype=np.int64)
        top_frac = np.zeros(receivers.size)
    bus.emit_sinr(
        receivers=receivers.astype(np.int64),
        sinr=sinr,
        delivered=decode.decoded,
        top_interferer=top_ids,
        top_fraction=top_frac,
        beta=params.beta,
    )


class SINRChannel:
    """Single-hop SINR channel over a fixed deployment.

    Parameters
    ----------
    positions:
        ``(n, 2)`` planar coordinates of the nodes.
    params:
        The SINR model constants. If ``auto_power`` is true (default) the
        transmission power is raised, if necessary, to satisfy the paper's
        single-hop assumption for this deployment's diameter.
    gain_model:
        Optional stochastic fading layer (default: deterministic path loss).
    auto_power:
        Size the power to the deployment per Section 2. Disable to study
        deliberately under-powered (multi-hop) deployments.
    external_sources:
        Uncontrolled transmitters (jammers, co-channel systems) whose
        arriving power is added to every listener's interference and
        measured energy when they are on the air — see
        :mod:`repro.sinr.jamming`. Sources with ``duty_cycle < 1`` require
        an ``rng`` at resolve time.
    """

    #: The SINR channel reports per-listener energy (carrier sensing); the
    #: engine consults this flag when a protocol declares
    #: ``requires_energy_sensing``.
    provides_energy = True

    def __init__(
        self,
        positions,
        params: SINRParameters = SINRParameters(),
        gain_model: Optional[GainModel] = None,
        auto_power: bool = True,
        external_sources: Optional[Sequence[ExternalSource]] = None,
    ) -> None:
        self.positions = as_positions(positions)
        self.n = self.positions.shape[0]
        if self.n < 1:
            raise ValueError("a channel needs at least one node")
        # One pass over row chunks turns squared distances into d**alpha in
        # the gain buffer and collects the largest squared distance (sqrt
        # is monotone and correctly rounded, so its root is the largest
        # distance) and the smallest off-diagonal one (zero iff two nodes
        # share a spot). Own cells read inf: they skip the co-location
        # check and come out of the division below as exactly 0.
        gains = np.empty((self.n, self.n))
        widest = 0.0
        closest = np.inf
        for rows, block in squared_distance_chunks(self.positions, gains):
            widest = max(widest, float(block.max()))
            own = np.arange(block.shape[0])
            block[own, own + rows.start] = np.inf
            closest = min(closest, float(block.min()))
            np.sqrt(block, out=block)
            block **= params.alpha
        if closest == 0.0:
            raise ValueError("co-located nodes are not allowed (zero-length link)")
        #: Longest link in the deployment (0 for a single node).
        self.diameter = math.sqrt(widest)
        if (
            self.n >= 2
            and auto_power
            and not params.satisfies_single_hop(max(self.diameter, 1e-300))
        ):
            params = params.sized_for(self.diameter)
        self.params = params
        self.gain_model = gain_model if gain_model is not None else DeterministicGain()
        # G[i, j]: power arriving at j when i transmits; G[i, i] is 0.
        self._base_gains = np.divide(params.power, gains, out=gains)
        self.external_sources = tuple(external_sources or ())
        self._external_gains = external_gain_matrix(
            self.external_sources, self.positions, params.alpha
        )

    @cached_property
    def distances(self) -> np.ndarray:
        """The ``(n, n)`` distance matrix, built on first read and kept.

        Rounds never need it: only probes, analysis and experiments that
        inspect geometry read it. It shares its row helper with the gain
        build, so ``base_gains`` equals ``power / distances**alpha``
        (0 on the diagonal) bit for bit.
        """
        return pairwise_distances(self.positions)

    @property
    def base_gains(self) -> np.ndarray:
        """The deterministic gain matrix (read-only view)."""
        view = self._base_gains.view()
        view.flags.writeable = False
        return view

    @property
    def external_gains(self) -> np.ndarray:
        """Per-source external gain rows, ``(num_sources, n)`` (read-only view).

        Row ``s`` is the power source ``s`` lands on each node when on
        the air.
        """
        view = self._external_gains.view()
        view.flags.writeable = False
        return view

    def resolve(
        self,
        transmitters: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        listeners: Optional[Sequence[int]] = None,
    ) -> ReceptionReport:
        """Resolve one synchronous round.

        Parameters
        ----------
        transmitters:
            Indices of nodes transmitting this round (duplicates ignored).
        rng:
            Required when the gain model is stochastic.
        listeners:
            Indices allowed to receive; defaults to every non-transmitter.
            Passing an explicit subset models deactivated nodes that have
            stopped listening (the paper's algorithm does not need them to
            keep listening once knocked out).

        Returns
        -------
        ReceptionReport
        """
        obs = get_registry()
        if not obs.enabled:
            return self._resolve(transmitters, rng, listeners)
        started = time.perf_counter()
        report = self._resolve(transmitters, rng, listeners)
        obs.counter("channel.sinr.resolve_calls").inc()
        # Every (transmitter, listener) pair costs one gain-matrix cell
        # evaluation in the reductions; the energy map keys every listener
        # whenever anyone transmitted.
        obs.counter("channel.sinr.gain_evaluations").inc(
            len(report.transmitters) * len(report.energy)
        )
        obs.histogram("channel.sinr.resolve_seconds").observe(
            time.perf_counter() - started
        )
        return report

    def _resolve(
        self,
        transmitters: Sequence[int],
        rng: Optional[np.random.Generator],
        listeners: Optional[Sequence[int]],
    ) -> ReceptionReport:
        """The uninstrumented resolve body (see :meth:`resolve`)."""
        tx = np.unique(np.asarray(list(transmitters), dtype=np.intp))
        if tx.size and (tx.min() < 0 or tx.max() >= self.n):
            raise IndexError("transmitter index out of range")
        if listeners is None:
            listen_mask = np.ones(self.n, dtype=bool)
        else:
            # Validated exactly like transmitters: without the check a
            # negative index silently wraps (listener -1 -> node n-1) and
            # an out-of-range positive surfaces as a raw numpy error from
            # the mask assignment.
            listen_ids = np.asarray(list(listeners), dtype=np.intp)
            if listen_ids.size and (listen_ids.min() < 0 or listen_ids.max() >= self.n):
                raise IndexError("listener index out of range")
            listen_mask = np.zeros(self.n, dtype=bool)
            listen_mask[listen_ids] = True
        listen_mask[tx] = False
        listener_ids = np.flatnonzero(listen_mask)

        heard = self.listen(tx, listener_ids, rng)
        decoded = heard.received >= 0
        received = dict(
            zip(listener_ids[decoded].tolist(), heard.received[decoded].tolist())
        )
        # Everyone measures energy when someone transmits; on silent
        # rounds only listeners that sense an external source do.
        measured = heard.energy > 0.0 if tx.size == 0 else slice(None)
        energy = dict(
            zip(listener_ids[measured].tolist(), heard.energy[measured].tolist())
        )
        return ReceptionReport(
            transmitters=tuple(tx.tolist()),
            received_from=received,
            energy=energy,
        )

    def listen(
        self,
        tx: np.ndarray,
        listeners: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> Hearing:
        """One round at array level: what each listener hears.

        ``tx`` and ``listeners`` are disjoint arrays of node ids. Draws,
        in this order and only when needed: the fading gains (someone
        transmits and someone listens), then the intermittent sources
        (someone listens). With the probe bus enabled it publishes the
        round's SINR probe. ``rng`` is required when either draw happens.
        """
        no_collision = np.broadcast_to(False, listeners.shape)
        if listeners.size == 0 or tx.size == 0:
            # Nothing to decode; listeners may still sense external energy.
            energy = (
                self._external_interference(listeners, rng)
                if listeners.size
                else np.zeros(0)
            )
            silent = np.full(listeners.shape, -1, dtype=np.intp)
            return Hearing(silent, energy, no_collision)

        if self.gain_model.is_deterministic:
            gains = self._base_gains
        else:
            if rng is None:
                raise ValueError("a stochastic gain model requires an rng")
            gains = self.gain_model.round_gains(self._base_gains, rng)

        external = self._external_interference(listeners, rng)
        decode = decode_round(gains, tx, listeners, external, self.params)
        bus = get_probe_bus()
        if bus.enabled:
            emit_sinr_probe(bus, decode, tx, listeners, self.params)
        received = np.where(decode.decoded, tx[decode.best_rows], -1)
        return Hearing(received, decode.totals, no_collision)

    def _external_interference(
        self, listeners: np.ndarray, rng: Optional[np.random.Generator]
    ) -> np.ndarray:
        """Arriving external power per listener for one round."""
        if not self.external_sources:
            return np.zeros(listeners.size)
        duty_cycles = np.asarray([s.duty_cycle for s in self.external_sources])
        if np.all(duty_cycles >= 1.0):
            on_air = np.ones(len(self.external_sources), dtype=bool)
        else:
            if rng is None:
                raise ValueError(
                    "external sources with duty_cycle < 1 require an rng"
                )
            on_air = rng.random(len(self.external_sources)) < duty_cycles
        if not on_air.any():
            return np.zeros(listeners.size)
        return self._external_gains[on_air][:, listeners].sum(axis=0)

    def sinr(self, sender: int, receiver: int, interferers: Sequence[int]) -> float:
        """Point SINR of Equation 1 for explicit sets — used by tests."""
        if sender == receiver:
            raise ValueError("sender and receiver must differ")
        others = [w for w in interferers if w not in (sender, receiver)]
        signal = self._base_gains[sender, receiver]
        interference = float(self._base_gains[others, receiver].sum()) if others else 0.0
        return self.params.sinr(signal, interference)

    def __repr__(self) -> str:
        return (
            f"SINRChannel(n={self.n}, params={self.params!r}, "
            f"gain_model={self.gain_model!r})"
        )
