"""Independent reference implementations used to derive expected test values.

Everything here is deliberately written in the most literal way possible
(plain loops, no shared code with the package internals beyond the
``PathEnsemble`` and ``ValuationReport`` result types and the ``reward``
payoff) so the tests check the real implementations against independently
coded logic.  The European closed
form lives here because only tests use it.  Two helpers are not references
but shared test plumbing over the package's trees: ``grown_root`` and
``constant_tree``.
"""

import math

import numpy as np

from treestop.cart import CartTree, GrowConfig, grow
from treestop.ensemble import PathEnsemble
from treestop.reward import reward
from treestop.valuation import ValuationReport

EUROPEAN = "european_bs"


def brute_force_split(points, weights, always_split=False):
    """Exhaustive split scan over all dims and valid positions.

    Mirrors the documented scoring: sort each dim by (coordinate, sample
    index), score each position where the coordinate strictly increases by
    max(|prefix|, |total - prefix|), first strict improvement wins scanning
    dims then positions.  Returns ("leaf", weight) when no score strictly
    exceeds |total|, else ("split", score, dim, threshold).  With
    ``always_split`` (the prototype splitter) any valid position splits.
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
    if best is None or (best[0] <= abs(total) and not always_split):
        return ("leaf", 0 if total >= 0 else 1)
    return ("split", best[0], best[1], best[2])


def grown_root(samples, splitter):
    """The node decision of ``grow`` at the root: ("leaf", weight) or
    ("split", dim, threshold), the vocabulary of ``brute_force_split``.

    The root of a depth-1 tree without a node-size cap is decided by the
    splitter alone.
    """
    tree = grow(samples, GrowConfig(max_depth=1, min_node_size=1, splitter=splitter))
    if tree.feature[0] < 0:
        return ("leaf", int(tree.leaf_weight[0]))
    return ("split", int(tree.feature[0]), float(tree.threshold[0]))


def constant_tree(weight, n_features):
    """A one-leaf tree voting ``weight`` on every row of ``n_features`` columns."""
    return CartTree.from_text(f"tree nodes=1 features={n_features}\n0 leaf {weight}")


def reference_grow(points, weights, max_depth, min_node_size, always_split=False):
    """Whole-tree reference for ``grow``, as a ``CartTree.to_text`` dump.

    Nodes are numbered in preorder.  A node at max_depth or with fewer than
    min_node_size rows is a leaf by the sign of its total; otherwise
    ``brute_force_split`` on the node's rows (in sample order) decides, and a
    split sends the rows with point[dim] <= threshold left.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    lines = []

    def node(rows, depth):
        i = len(lines)
        lines.append(None)
        total = np.sum(weights[rows])
        if depth >= max_depth or len(rows) < min_node_size:
            decision = ("leaf", 0 if total >= 0 else 1)
        else:
            decision = brute_force_split(points[rows], weights[rows], always_split)
        if decision[0] == "leaf":
            lines[i] = f"{i} leaf {decision[1]}"
            return i
        _, _, dim, thr = decision
        left_rows = [r for r in rows if points[r, dim] <= thr]
        right_rows = [r for r in rows if not points[r, dim] <= thr]
        left = node(np.array(left_rows, dtype=int), depth + 1)
        right = node(np.array(right_rows, dtype=int), depth + 1)
        lines[i] = f"{i} split {dim} {thr!r} {left} {right}"
        return i

    node(np.arange(points.shape[0]), 0)
    return "\n".join([f"tree nodes={len(lines)} features={points.shape[1]}"] + lines)


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


def reference_ls_forward(rule, paths, spec):
    """Per-path payoff of a regression rule by its own forward loop.

    The reference for ``ls_forward``: with ``rule.stop_value`` set every path
    collects it.  Otherwise every path starts with its step-N payoff, and at
    each step n with coefficients the in-the-money paths not yet stopped, in
    path order, go through one gemv against ``rule.coefs[n]``; a path whose
    payoff is at least the fitted continuation collects it and is done.
    """
    if rule.stop_value is not None:
        return np.full(paths.num_paths, rule.stop_value)
    N = spec.steps
    values = reward(spec, N, paths.state_at(N))
    done = np.zeros(paths.num_paths, dtype=bool)
    for n in range(1, N):
        if n not in rule.coefs:
            continue
        immediate = reward(spec, n, paths.state_at(n))
        active = (immediate > 0) & ~done
        if not active.any():
            continue
        z = paths.state_at(n)[active, 0] / spec.strike
        basis = np.stack([np.ones_like(z), z, z * z, z * z * z], axis=1)
        exercise = immediate[active] >= basis @ rule.coefs[n]
        rows = np.flatnonzero(active)[exercise]
        values[rows] = immediate[rows]
        done[rows] = True
    return values


def reference_gbm(spec, num_paths, seed, label, barrier=None):
    """GBM ensemble built step by step with full-size temporaries.

    The reference for ``generate_gbm``: one ``standard_normal((K, N, D))``
    draw, then new arrays for the increments, their cumsum, the exp and the
    prices; with a barrier, the running knock-out indicator is concatenated
    as coordinate D.  The build is path-major, (K, N+1, D), and is transposed
    to the step-major layout only when the ensemble is constructed.
    """
    K, N, D = num_paths, spec.steps, spec.dim
    dt = spec.maturity / N
    rng = np.random.Generator(np.random.Philox(seed))
    eps = rng.standard_normal((K, N, D))
    drift = (spec.mu - 0.5 * spec.vols**2) * dt
    diffusion = spec.vols * np.sqrt(dt)
    log_ratio = np.cumsum(drift + diffusion * eps, axis=1)
    data = np.empty((K, N + 1, D))
    data[:, 0, :] = spec.x0
    data[:, 1:, :] = spec.x0 * np.exp(log_ratio)
    if barrier is None:
        return PathEnsemble(data.transpose(1, 0, 2), seed, label)
    running_max = np.maximum.accumulate(data.max(axis=2), axis=1)
    indicator = (running_max <= barrier).astype(float)
    data = np.concatenate([data, indicator[:, :, None]], axis=2)
    return PathEnsemble(data.transpose(1, 0, 2), seed, label, has_barrier_indicator=True)


def reference_reward(spec, n, states):
    """``reward`` of a (K, dim) matrix with the asset maximum taken by ``max(axis=1)``."""
    disc = spec.discount(n)
    if spec.kind == "put":
        return disc * np.maximum(spec.strike - states[:, 0], 0.0)
    if spec.kind == "max_call":
        return disc * np.maximum(states.max(axis=1) - spec.strike, 0.0)
    return disc * np.maximum(states[:, :-1].max(axis=1) - spec.strike, 0.0) * states[:, -1]


def reference_max_rewards(spec, paths):
    """Each path's largest ``reference_reward`` over steps 0..N."""
    return np.stack([reference_reward(spec, n, paths.state_at(n))
                     for n in range(paths.num_steps + 1)]).max(axis=0)


def reference_four_features(spec, n, states):
    """(u, m1, m2, m1 - m2) per row, the top two assets by ``np.partition``."""
    assets = states[:, :-1] if spec.kind == "max_call_barrier" else states
    top2 = np.partition(assets, assets.shape[1] - 2, axis=1)[:, -2:]
    m1, m2 = top2[:, 1], top2[:, 0]
    return np.stack([reference_reward(spec, n, states), m1, m2, m1 - m2], axis=1)


def _norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def european_value(kind, x0, strike, rate, mu, sigma, maturity):
    """E[e^{-rT} payoff(X_T)] for a single lognormal asset with drift mu.

    Standard lognormal-expectation formula with forward F = x0 e^{mu T};
    supports the put and the single-asset call.
    """
    if kind not in ("put", "call"):
        raise ValueError("closed form available for put/call on one asset only")
    fwd = x0 * math.exp(mu * maturity)
    disc = math.exp(-rate * maturity)
    if sigma <= 0 or maturity <= 0:
        intrinsic = strike - fwd if kind == "put" else fwd - strike
        return disc * max(intrinsic, 0.0)
    vol = sigma * math.sqrt(maturity)
    d1 = (math.log(fwd / strike) + 0.5 * vol * vol) / vol
    d2 = d1 - vol
    if kind == "put":
        return disc * (strike * _norm_cdf(-d2) - fwd * _norm_cdf(-d1))
    return disc * (fwd * _norm_cdf(d1) - strike * _norm_cdf(d2))


def european_report(x0, spec, mu, sigma):
    """The closed-form European value of ``spec`` as a deterministic report."""
    value = european_value(spec.kind, x0, spec.strike, spec.rate, mu, sigma, spec.maturity)
    return ValuationReport(EUROPEAN, value, 0.0)
