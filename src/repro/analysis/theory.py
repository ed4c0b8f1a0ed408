"""Closed-form predictions the simulations are anchored against.

Reproduction is more convincing when measured numbers land on *derivable*
values, not just plausible curves. This module collects every quantity in
the paper's orbit that has a closed form (or an exactly computable
recursion), so tests and experiments can assert measured-vs-predicted:

* slotted ALOHA's per-round solo probability and expected solve time;
* the two-player optimal failure envelope ``2^-B``;
* the adaptive hitting game's ``ceil(log2 k)`` floor;
* decay's sweep length and per-sweep lower bound on solo probability;
* the collision-detection tournament's expected solve time, via an exact
  dynamic program over the halving chain.
"""

from __future__ import annotations

import math

import numpy as np

from repro.protocols.decay import decay_sweep_length

__all__ = [
    "aloha_round_success_probability",
    "aloha_expected_rounds",
    "two_player_failure_floor",
    "adaptive_hitting_floor",
    "decay_sweep_length",
    "decay_sweep_success_lower_bound",
    "geometric_knockout_rounds",
    "cd_tournament_expected_rounds",
]


def aloha_round_success_probability(n: int) -> float:
    """Solo probability per round for ``n`` nodes at ``p = 1/n``.

    ``n * (1/n) * (1 - 1/n)^{n-1} = (1 - 1/n)^{n-1}``, which decreases to
    ``1/e`` as ``n`` grows.
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if n == 1:
        return 1.0
    return (1.0 - 1.0 / n) ** (n - 1)


def aloha_expected_rounds(n: int) -> float:
    """Expected solve time of genie ALOHA: geometric mean time ``1/q``."""
    return 1.0 / aloha_round_success_probability(n)


def two_player_failure_floor(budget: int) -> float:
    """Minimum failure probability of two-player CR within ``budget`` rounds.

    Symmetric players can break symmetry with probability at most 1/2 per
    round (transmit/listen anticorrelation), so failure ``>= 2^-budget``.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative (got {budget})")
    return 2.0**-budget


def adaptive_hitting_floor(k: int) -> int:
    """Rounds any player needs against the lazy adaptive referee.

    A proposal at most doubles the number of membership-history groups;
    winning requires ``k`` singleton groups, hence ``ceil(log2 k)``.
    """
    if k < 2:
        raise ValueError(f"the game needs k >= 2 (got {k})")
    return max(1, math.ceil(math.log2(k)))


def decay_sweep_success_lower_bound(n: int, size_bound: int = None) -> float:
    """Lower bound on one sweep's solo probability with ``n`` contenders.

    Some step of the sweep uses ``p`` with ``1/(2n) <= p <= 1/n`` (the
    sweep halves through every scale up to ``N >= n``), and at that step
    the solo probability ``n p (1-p)^{n-1}`` is at least
    ``(1/2) (1 - 1/n)^{n-1} >= 1/(2e)`` for ``n >= 2``.
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if size_bound is not None and size_bound < n:
        raise ValueError("size_bound must be at least n")
    if n == 1:
        # The sweep's first step has p = 1/2; a solo needs just that node.
        return 0.5
    return 0.5 * (1.0 - 1.0 / n) ** (n - 1)


def geometric_knockout_rounds(n: int, gamma: float) -> float:
    """Rounds for a geometric knockout to reduce ``n`` actives to one.

    If each round retains a ``gamma`` fraction of the active set
    (Corollary 7's regime), contention reaches 1 after
    ``log(n) / log(1/gamma)`` rounds.
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1) (got {gamma})")
    if n == 1:
        return 0.0
    return math.log(n) / math.log(1.0 / gamma)


def cd_tournament_expected_rounds(n: int, p: float = 0.5) -> float:
    """Exact expected solve time of the collision-detection tournament.

    State = number of active contenders ``k``. Each round ``k' ~
    Binomial(k, p)`` transmit; ``k' = 1`` ends the game, ``k' = 0`` keeps
    ``k`` unchanged (nobody concedes on silence), and ``k' >= 2`` moves
    the state to ``k'`` (all listeners concede). Solving the linear
    recurrence bottom-up:

        E[k] * (1 - P(0|k) - P(k|k)) = 1 + sum_{j=2}^{k-1} P(j|k) E[j]

    ``E[1] = 1/p``: a lone contender is solo at its first transmission,
    a geometric wait with success ``p``. Each row's binomial PMF comes
    from one table of ``log(k!)`` and the sum is a dot product, so the
    whole recurrence costs O(n^2) numpy work.
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1) (got {p})")
    log_factorial = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_p = math.log(p)
    log_q = math.log(1.0 - p)
    expected = np.zeros(n + 1)
    expected[1] = 1.0 / p
    for k in range(2, n + 1):
        j = np.arange(k + 1)
        pmf = np.exp(
            log_factorial[k]
            - log_factorial[j]
            - log_factorial[k - j]
            + j * log_p
            + (k - j) * log_q
        )
        absorbing = 1.0 - pmf[0] - pmf[k]
        expected[k] = (1.0 + pmf[2:k] @ expected[2:k]) / absorbing
    return float(expected[n])
