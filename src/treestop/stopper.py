"""Backward recursion training and evaluation of the bagged stopping rule.

Training proceeds from the last decision step down to step zero.  At each
step every bag grows one tree on its own (feature point, increment) data; a
path's increment compares the reward at its current continuation stop against
the immediate reward.  The continuation stop of a bag's paths is maintained
with a leave-one-bag-out majority vote over the other bags' trees (the
cross-validation device), while the final composed rule votes over all bags.

The composed rule stops a path at the first step where at least half of the
bag trees vote STOP; step N stops unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib
import re
from typing import NamedTuple

import numpy as np

from treestop.cart import CartTree, GrowConfig, grow, removal
from treestop.ensemble import PathEnsemble
from treestop.reward import (FEATURE_MODES, FOUR_FEATURES, MAX_CALL_BARRIER, PUT,
                             RAW_PLUS_REWARD, REWARD_COLUMN, RewardSpec, features, reward)


@dataclass(frozen=True)
class TrainConfig:
    """Bagging and growth settings for one training run."""

    bags: int = 10
    grow: GrowConfig = field(default_factory=GrowConfig)
    feature_mode: str = "raw"
    seed_bagging: int = 0

    def __post_init__(self):
        if self.bags < 2:
            raise ValueError("need at least two bags for cross-validation")
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature mode {self.feature_mode!r}")


class IntervalTable(NamedTuple):
    """One step's bag votes when its trees read a single feature.

    ``breaks`` is the sorted union of the step's split thresholds; interval i
    is (breaks[i-1], breaks[i]], with -inf and +inf at the ends.  Every
    threshold is a break, so every test ``x <= t`` answers alike across an
    interval, and ``votes[b, i]`` (bag b's tree on the interval's right end)
    is its vote on the whole interval.  ``count`` is the int32 sum of
    ``votes`` over bags.
    """

    breaks: np.ndarray
    votes: np.ndarray
    count: np.ndarray


class BaggedStopper:
    """B x N array of trees plus the majority projector.

    trees[b][n] votes STOP/CONTINUE for step n.  ``stops`` is the estimated
    per-step rule g_n(x) = 1{ mean_b trees[b][n](features(n, x)) >= 1/2 } for
    n < N; at n = N every path stops.  Stopping a path means taking the first
    step whose rule fires.

    When a step's trees read one feature, its first vote builds the step's
    ``IntervalTable`` and every later vote of that step looks rows up in it.
    So a step's trees must not be replaced after its first vote; nothing in
    treestop does (``train`` votes on a step once all its trees are grown).
    """

    def __init__(self, trees, feature_mode: str, reward_spec: RewardSpec):
        self.trees = trees
        self.bags = len(trees)
        self.feature_mode = feature_mode
        self.reward_spec = reward_spec
        if any(len(row) != reward_spec.steps for row in trees):
            raise ValueError("need one tree per bag per decision step")
        self._tables = {}

    def interval_table(self, n: int) -> IntervalTable | None:
        """Step n's cached vote table, or None when its trees read several features."""
        if n not in self._tables:
            step = [self.trees[b][n] for b in range(self.bags)]
            table = None
            if all(tree.n_features == 1 for tree in step):
                # distinct thresholds, not np.unique: it imports numpy.ma (about 1 MB RSS)
                cuts = np.sort([thr for t in step for f, thr, *_ in t.nodes if f >= 0])
                breaks = cuts[np.append(True, cuts[1:] != cuts[:-1])[:cuts.size]]
                ends = np.append(breaks, np.inf)[:, None]
                votes = np.stack([tree.predict(ends) for tree in step])
                table = IntervalTable(breaks, votes, votes.sum(axis=0, dtype=np.int32))
            self._tables[n] = table
        return self._tables[n]

    def stops(self, n: int, feats: np.ndarray, own=None) -> np.ndarray:
        """(K,) bool: whether at least half of step n's voting bags vote STOP.

        All bags vote, or, given a (K,) integer array ``own``, all bags except
        bag ``own[k]`` on row k (the leave-one-bag-out vote of training).  A
        step without an interval table routes rows tree by tree, on
        column-major features, and stops routing a row once the votes still
        to come cannot change its majority.
        """
        voters = self.bags if own is None else self.bags - 1
        need = (voters + 1) // 2
        table = self.interval_table(n)
        if table is not None:
            if feats.ndim != 2 or feats.shape[1] != 1:
                raise ValueError(f"expected feature dim 1, got shape {feats.shape}")
            idx = np.searchsorted(table.breaks, feats[:, 0], side="left")
            count = table.count[idx]
            if own is not None:
                count -= table.votes[own, idx]
            return count >= need
        cols = np.asfortranarray(feats)
        count = np.zeros(feats.shape[0], dtype=np.int32)
        rows = np.arange(feats.shape[0])
        for b in range(self.bags):
            voting = rows if own is None else rows.compress(own.take(rows) != b)
            count += self.trees[b][n].predict(cols, voting)
            if b + 1 >= min(need, voters - need + 1):  # no row is decided before
                seen = count.take(rows)
                to_come = self.bags - 1 - b - (0 if own is None else own.take(rows) > b)
                rows = rows.compress((seen < need) & (seen + to_come >= need))
        return count >= need

    def serialize(self) -> str:
        lines = [
            "stopper v1",
            f"bags {self.bags}",
            f"steps {self.reward_spec.steps}",
            f"feature_mode {self.feature_mode}",
            f"reward_hash {reward_hash(self.reward_spec)}",
        ]
        for b in range(self.bags):
            for n in range(self.reward_spec.steps):
                lines.append(f"begintree bag={b} step={n}")
                lines.append(self.trees[b][n].to_text())
                lines.append("endtree")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str, reward_spec: RewardSpec) -> "BaggedStopper":
        """Parse a ``serialize`` dump; ValueError names a malformed line or key,
        or a tree whose feature width differs from the first tree's."""
        # leading '#' lines are provenance comments added by the CLI
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        if not lines or lines[0].strip() != "stopper v1":
            raise ValueError("not a stopper dump")
        header = {}
        i = 1
        while i < len(lines) and not lines[i].startswith("begintree"):
            key, _, val = lines[i].partition(" ")
            header[key] = val
            i += 1
        for key in ("bags", "steps", "feature_mode", "reward_hash"):
            if key not in header:
                raise ValueError(f"stopper dump header has no {key!r} line")
            if key in ("bags", "steps") and not (header[key].isdigit() and int(header[key]) > 0):
                raise ValueError(f"stopper dump header {key!r} is not a positive count")
        if header["reward_hash"] != reward_hash(reward_spec):
            raise ValueError("stopper was trained for a different reward spec")
        bags, steps = int(header["bags"]), int(header["steps"])
        if steps != reward_spec.steps:
            raise ValueError(f"stopper dump header 'steps' is {steps}, "
                             f"the reward spec has {reward_spec.steps}")
        found = sum(ln.startswith("begintree") for ln in lines[i:])
        if found != bags * steps:
            raise ValueError(f"stopper dump has {found} trees, header declares {bags} x {steps}")
        trees = [[None] * steps for _ in range(bags)]
        width = None  # the first tree's feature count, which every tree must share
        while i < len(lines):
            head = lines[i].strip()
            m = re.fullmatch(r"begintree bag=(\d+) step=(\d+)", head)
            b, n = (int(m[1]), int(m[2])) if m else (bags, steps)
            if b >= bags or n >= steps or trees[b][n] is not None:
                raise ValueError(f"bad tree header {head!r}")
            end = next((j for j in range(i + 1, len(lines)) if lines[j].strip() == "endtree"), None)
            if end is None:
                raise ValueError(f"stopper dump ends inside {head!r}")
            try:
                trees[b][n] = tree = CartTree.from_text("\n".join(lines[i + 1:end]))
            except ValueError as exc:
                raise ValueError(f"{head}: {exc}") from None
            width = tree.n_features if width is None else width
            if tree.n_features != width:
                raise ValueError(f"{head}: features={tree.n_features}, "
                                 f"the first tree has features={width}")
            i = end + 1
        return cls(trees, header["feature_mode"], reward_spec)

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:12]


def reward_hash(spec: RewardSpec) -> str:
    return hashlib.sha256(spec.canonical().encode()).hexdigest()[:12]


@dataclass(frozen=True)
class StopResult:
    """Realized stopping of one ensemble under a composed rule.

    stop_step[k] is in 0..N, realized[k] the discounted reward collected at
    that step and best[k] the path's largest discounted reward over 0..N, so
    realized <= best; the other fields are the ensemble's provenance.
    """

    stop_step: np.ndarray
    realized: np.ndarray
    best: np.ndarray
    label: str
    ensemble_seed: int
    num_steps: int


def check_compat(paths: PathEnsemble, spec: RewardSpec, feature_mode: str) -> int:
    """Reject an ensemble the spec and feature mode cannot read; return the feature width."""
    if paths.num_steps != spec.steps:
        raise ValueError("reward spec and ensemble disagree on the step count")
    if spec.kind == PUT and paths.dim != 1:
        raise ValueError("put reward needs one-dimensional paths")
    if spec.kind == MAX_CALL_BARRIER and not paths.has_barrier_indicator:
        raise ValueError("knock-out reward needs the barrier indicator coordinate")
    # raises on impossible feature/state combinations
    return features(feature_mode, spec, 0, paths.state_at(0)[:1]).shape[1]


def feature_block(chunks, num_paths: int, width: int, reward_spec: RewardSpec,
                  feature_mode: str) -> np.ndarray:
    """The (N+1, num_paths, width) features of the ensemble ``chunks`` make up, in path order.

    ``chunks`` yields consecutive path chunks of one ensemble, as
    ``gbm_chunks`` does.  The block is allocated at its full size before the
    first chunk is drawn, so an impossible size fails at once.  Each chunk
    writes every step's features into its rows and is dropped before the next
    one is asked for, so building the block holds the block and two chunks of
    half ``CHUNK_BYTES``: this one, and the next, which ``gbm_chunks``
    simulates on a worker thread meanwhile.
    """
    block = np.empty((reward_spec.steps + 1, num_paths, width))
    start = 0
    for chunk in chunks:
        rows = slice(start, start + chunk.num_paths)
        for n in range(reward_spec.steps + 1):
            block[n, rows] = features(feature_mode, reward_spec, n, chunk.state_at(n))
        start = rows.stop
        del chunk  # free these paths before the chunk after next is allocated
    if start != num_paths:
        raise ValueError(f"the chunks hold {start} paths, the block {num_paths}")
    return block


def train(paths: PathEnsemble | np.ndarray, reward_spec: RewardSpec,
          config: TrainConfig) -> BaggedStopper:
    """Fit the bagged stopper on a training ensemble or on its feature block.

    ``paths`` is either the ensemble, whose step-n features are computed when
    step n is fitted, so training adds one step's features to it and never a
    copy; or an (N+1, K, F) block whose ``[n, k]`` row holds path k's step-n
    features in ``config.feature_mode`` (``feature_block``), so the states
    themselves are never held.  Features and rewards are row-wise, so both
    fit the same stopper byte for byte.

    Paths are shuffled with a seeded Philox stream, truncated to a multiple of
    the bag count, and cut into contiguous equally sized bags.  The bagged
    paths are then listed bag by bag, each bag's paths in path order, in one
    index ``order``: every step gathers its features and rewards through it
    once, and bag b is rows b*s:(b+1)*s of those arrays (s paths per bag).
    Steps run strictly backward.  Within a step each bag grows its tree in
    turn, then the leave-one-bag-out vote moves each path's continuation stop.
    """
    mode = config.feature_mode
    if isinstance(paths, PathEnsemble):
        check_compat(paths, reward_spec, mode)
        K_all = paths.num_paths

        def step(n):
            return features(mode, reward_spec, n, paths.state_at(n))
    else:
        if paths.ndim != 3 or paths.shape[0] != reward_spec.steps + 1:
            raise ValueError(f"expected a ({reward_spec.steps + 1}, K, F) feature block, "
                             f"got shape {paths.shape}")
        # four_features is (reward, m1, m2, m1 - m2); raw_plus_reward appends the reward
        F = paths.shape[2]
        if (mode == FOUR_FEATURES and F != 4) or (mode == RAW_PLUS_REWARD and F < 2):
            raise ValueError(f"a {mode} feature block cannot have {F} columns")
        K_all, step = paths.shape[1], paths.__getitem__
    B = config.bags
    if K_all < B:
        raise ValueError(f"need at least {B} paths for {B} bags")
    N = reward_spec.steps
    s = K_all // B
    K = B * s
    rng = np.random.Generator(np.random.Philox(config.seed_bagging))
    order = np.sort(rng.permutation(K_all)[:K].reshape(B, s), axis=1).ravel()
    bags = [slice(b * s, (b + 1) * s) for b in range(B)]
    own = np.repeat(np.arange(B), s)
    column = REWARD_COLUMN.get(mode)  # None: the features are the states

    def rewards(n, feats):
        return reward(reward_spec, n, feats) if column is None else feats[:, column]

    # Rewards are evaluated per step; the reward at each path's current
    # continuation stop is carried along instead of materialising a K x (N+1)
    # matrix.
    u_at_tau = rewards(N, step(N))[order]
    stopper = BaggedStopper([[None] * N for _ in range(B)], mode, reward_spec)

    for n in range(N - 1, -1, -1):
        feats_n = np.asfortranarray(step(n)[order])  # contiguous split columns for the LOO vote
        u_n = rewards(n, feats_n)
        for b, rows in enumerate(bags):
            samples = removal(feats_n[rows], (u_at_tau[rows] - u_n[rows]) / K)
            stopper.trees[b][n] = grow(samples, config.grow)
        # leave-one-out update: stop where the other B-1 bags' mean vote >= 1/2
        stop = stopper.stops(n, feats_n, own)
        u_at_tau[stop] = u_n[stop]

    return stopper


def first_hit(paths: PathEnsemble, spec: RewardSpec, fires) -> tuple[np.ndarray, ...]:
    """Replay a first-hit stopping rule on an ensemble.

    ``fires(n, states)`` gets the step-n states of the paths still running, in
    path order, and returns a boolean mask of those that stop at n < N; the
    rest stop at N.  Returns the (K,) stop steps, the discounted rewards
    collected there and each path's largest discounted reward over 0..N; each
    step's rewards are computed once, on every path, after the step's vote.
    Paths are independent, so replaying path chunks gives the rows of
    replaying the whole ensemble.  Raises ValueError when the ensemble and
    ``spec`` disagree on the step count.
    """
    if paths.num_steps != spec.steps:
        raise ValueError("ensemble and reward spec disagree on the step count")
    K, N = paths.num_paths, paths.num_steps
    stop_step = np.empty(K, dtype=np.int64)
    realized = np.empty(K)
    best = np.full(K, -np.inf)
    alive = np.arange(K)
    for n in range(N + 1):
        hit = alive
        if n < N and alive.size:
            fire = fires(n, paths.state_at(n)[alive])
            hit, alive = alive[fire], alive[~fire]
        u = reward(spec, n, paths.state_at(n))
        stop_step[hit] = n
        realized[hit] = u[hit]
        np.maximum(best, u, out=best)
    return stop_step, realized, best


def apply(stopper: BaggedStopper, paths: PathEnsemble) -> StopResult:
    """Evaluate the composed first-hit rule on an ensemble (see ``first_hit``).

    A path stops at the first n < N where at least half the bag trees vote
    STOP on its step-n features, and at N otherwise.
    """
    spec = stopper.reward_spec
    if check_compat(paths, spec, stopper.feature_mode) != stopper.trees[0][0].n_features:
        raise ValueError("feature dimension does not match the trained trees")

    def fires(n, states):
        return stopper.stops(n, features(stopper.feature_mode, spec, n, states))

    return StopResult(*first_hit(paths, spec, fires), paths.label, paths.seed, paths.num_steps)
