"""Reward functions and feature maps over ensemble states.

Three payoffs ship: a put, a max-call, and a knock-out max-call.  All are
discounted to time zero, so comparing rewards across steps never needs an
extra discount factor.  The knock-out payoff divides the discount exponent by
N+1 rather than N; that convention is kept deliberately (it is what the
published barrier benchmark values correspond to) even though it looks odd
next to the other two payoffs.

A state vector for the knock-out kind has D+1 coordinates: D asset prices
followed by the running knock-out indicator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PUT = "put"
MAX_CALL = "max_call"
MAX_CALL_BARRIER = "max_call_barrier"
KINDS = (PUT, MAX_CALL, MAX_CALL_BARRIER)

RAW = "raw"
RAW_PLUS_REWARD = "raw_plus_reward"
FOUR_FEATURES = "four_features"
FEATURE_MODES = (RAW, RAW_PLUS_REWARD, FOUR_FEATURES)


@dataclass(frozen=True)
class RewardSpec:
    """Declarative payoff description.

    rate and strike are per-unit-time and price-level parameters shared by
    all kinds; ``barrier`` is only meaningful for the knock-out kind.
    """

    kind: str
    rate: float
    strike: float
    maturity: float
    steps: int
    barrier: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}")
        if self.strike <= 0:
            raise ValueError("strike must be positive")
        if self.maturity <= 0 or self.steps < 1:
            raise ValueError("maturity and steps must be positive")
        if self.kind == MAX_CALL_BARRIER and (self.barrier is None or self.barrier <= 0):
            raise ValueError("knock-out kind needs a positive barrier")
        if self.kind != MAX_CALL_BARRIER and self.barrier is not None:
            raise ValueError("barrier only applies to the knock-out kind")

    @property
    def discount_steps(self) -> int:
        """Denominator of the per-step discount exponent (N, or N+1 for knock-out)."""
        return self.steps + 1 if self.kind == MAX_CALL_BARRIER else self.steps

    def discount(self, n: int) -> float:
        return float(np.exp(-self.rate * n * self.maturity / self.discount_steps))

    def canonical(self) -> str:
        return (f"kind={self.kind} rate={self.rate!r} strike={self.strike!r} "
                f"maturity={self.maturity!r} steps={self.steps} barrier={self.barrier!r}")


def _as_states(x) -> np.ndarray:
    """x as a (K, dim) matrix of states; any other shape raises ValueError."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"states must be a (K, dim) matrix, got shape {arr.shape}")
    return arr


def reward(spec: RewardSpec, n: int, x) -> np.ndarray:
    """Discounted payoff u(n, x).

    put:        exp(-r n T / N)     * max(strike - x, 0)          for 1-D x
    max_call:   exp(-r n T / N)     * max(max_d x[d] - strike, 0)
    knock-out:  exp(-r n T / (N+1)) * max(max_{d<=D} x[d] - strike, 0) * x[D+1]

    x is a (K, dim) matrix of states; the result has one reward per row.
    """
    if not 0 <= n <= spec.steps:
        raise ValueError(f"step {n} outside 0..{spec.steps}")
    states = _as_states(x)
    disc = spec.discount(n)
    if spec.kind == PUT:
        if states.shape[1] != 1:
            raise ValueError("put reward is one-dimensional")
        return disc * np.maximum(spec.strike - states[:, 0], 0.0)
    if spec.kind == MAX_CALL:
        return disc * np.maximum(states.max(axis=1) - spec.strike, 0.0)
    if states.shape[1] < 2:
        raise ValueError("knock-out state needs asset coordinates plus indicator")
    return disc * np.maximum(states[:, :-1].max(axis=1) - spec.strike, 0.0) * states[:, -1]


def _asset_block(spec: RewardSpec, states: np.ndarray) -> np.ndarray:
    """Coordinates the running maxima range over (indicator excluded)."""
    return states[:, :-1] if spec.kind == MAX_CALL_BARRIER else states


def features(mode: str, spec: RewardSpec, n: int, x) -> np.ndarray:
    """Map a (K, dim) matrix of states to the (K, F) features trees read.

    raw             -> x unchanged
    raw_plus_reward -> x with u(n, x) appended
    four_features   -> (u(n, x), m1, m2, m1 - m2) where m1 is the largest
                       asset coordinate and m2 the largest over the remaining
                       coordinates (ties make m2 == m1).
    """
    if mode not in FEATURE_MODES:
        raise ValueError(f"unknown feature mode {mode!r}")
    states = _as_states(x)
    if mode == RAW:
        return states
    if mode == RAW_PLUS_REWARD:
        return np.concatenate([states, reward(spec, n, states)[:, None]], axis=1)
    assets = _asset_block(spec, states)
    if assets.shape[1] < 2:
        raise ValueError("four_features needs at least two asset coordinates")
    top2 = np.partition(assets, assets.shape[1] - 2, axis=1)[:, -2:]
    m1 = top2[:, 1]
    m2 = top2[:, 0]
    return np.stack([reward(spec, n, states), m1, m2, m1 - m2], axis=1)
