"""Independent reference implementations used to derive expected test values.

Everything here is deliberately written in the most literal way possible
(plain loops, no shared code with the package internals) so the tests check
the real implementations against independently coded logic.
"""

import numpy as np


def brute_force_split(points, weights):
    """Exhaustive split scan over all dims and valid positions.

    Mirrors the documented scoring: sort each dim by (coordinate, sample
    index), score each position where the coordinate strictly increases by
    max(|prefix|, |total - prefix|), first strict improvement wins scanning
    dims then positions.  Returns ("leaf", weight) when no score strictly
    exceeds |total|, else ("split", score, dim, threshold).
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    m, dims = points.shape
    total = np.sum(weights)
    best = None
    for d in range(dims):
        order = np.lexsort((np.arange(m), points[:, d]))
        prefix = np.cumsum(weights[order])
        for k in range(m - 1):
            if points[order[k], d] >= points[order[k + 1], d]:
                continue
            score = max(abs(prefix[k]), abs(total - prefix[k]))
            if best is None or score > best[0]:
                best = (score, d, float(points[order[k], d]))
    if best is None or best[0] <= abs(total):
        return ("leaf", 0 if total >= 0 else 1)
    return ("split", best[0], best[1], best[2])


def binomial_bermudan_put(x0, strike, rate, mu, sigma, maturity, exercise_steps,
                          lattice_steps=2000):
    """Bermudan put on a fine recombining binomial lattice.

    Exercise is allowed at times n * maturity / exercise_steps only
    (including time 0); the lattice has ``lattice_steps`` steps, a multiple
    of ``exercise_steps``.  The driving measure has drift ``mu`` and payoffs
    are discounted at ``rate``, matching the simulated objective.
    """
    if lattice_steps % exercise_steps:
        raise ValueError("lattice_steps must be a multiple of exercise_steps")
    dt = maturity / lattice_steps
    up = np.exp(sigma * np.sqrt(dt))
    down = 1.0 / up
    p = (np.exp(mu * dt) - down) / (up - down)
    if not 0.0 < p < 1.0:
        raise ValueError("lattice step too coarse for these parameters")
    stride = lattice_steps // exercise_steps
    disc = np.exp(-rate * dt)
    j = np.arange(lattice_steps + 1)
    prices = x0 * up ** (2 * j - lattice_steps)
    value = np.maximum(strike - prices, 0.0)
    for step in range(lattice_steps - 1, -1, -1):
        value = disc * (p * value[1 : step + 2] + (1.0 - p) * value[: step + 1])
        if step % stride == 0:
            prices = x0 * up ** (2 * np.arange(step + 1) - step)
            value = np.maximum(value, np.maximum(strike - prices, 0.0))
    return float(value[0])


def deterministic_best_stop(rewards):
    """Optimal first-hit stop of a single deterministic reward sequence.

    The rule stops at the first step whose reward is at least the best
    reward achievable afterwards.  Returns (step, value).
    """
    rewards = list(rewards)
    n_last = len(rewards) - 1
    suffix_max = [0.0] * (n_last + 1)
    acc = -np.inf
    for n in range(n_last, -1, -1):
        acc = max(acc, rewards[n])
        suffix_max[n] = acc
    for n in range(n_last + 1):
        later = suffix_max[n + 1] if n < n_last else -np.inf
        if rewards[n] >= later:
            return n, rewards[n]
    return n_last, rewards[n_last]


def unique_removal(points, deltas):
    """Duplicate merge by ``np.unique(axis=0)``: the reference for ``removal``.

    Groups rows by exact equality (0.0 equals -0.0), keeps each group's first
    occurrence and returns (points, delta, mult) in first-occurrence order,
    delta being the group sum, accumulated in input order, over the group
    size.
    """
    pts = np.asarray(points, dtype=float)
    dl = np.asarray(deltas, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[0] == 0:
        return pts.reshape(0, max(pts.shape[1], 1)), dl, np.zeros(0, dtype=np.int64)
    uniq, first, inverse, counts = np.unique(
        pts, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    sums = np.bincount(inverse.reshape(-1), weights=dl, minlength=uniq.shape[0])
    order = np.argsort(first, kind="stable")
    return uniq[order], (sums / counts)[order], counts[order].astype(np.int64)
