import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestop import ensemble
from treestop.cart import CartTree, GrowConfig
from treestop.ensemble import GbmSpec, gbm_chunks, generate_gbm
from treestop.reward import RewardSpec, features, reward
from treestop.stopper import (
    BaggedStopper,
    TrainConfig,
    apply,
    feature_block,
    first_hit,
    train,
)

from oracles import (
    constant_tree,
    deterministic_best_stop,
    reference_max_rewards,
    reference_reward,
)


def constant_stopper(weight, bags, steps, spec, feature_mode="raw", n_features=1):
    trees = [[constant_tree(weight, n_features) for _ in range(steps)]
             for _ in range(bags)]
    return BaggedStopper(trees, feature_mode, spec)


def small_put_ensemble(num_paths=64, steps=4, seed=3, x0=100.0, label="training"):
    spec = GbmSpec.symmetric(1, x0, 0.05, 0.3, 1.0, steps)
    return generate_gbm(spec, num_paths, seed, label)


PUT4 = RewardSpec("put", 0.05, 100.0, 1.0, 4)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_always_stop_rule_stops_at_zero():
    paths = small_put_ensemble(x0=90.0)
    stopper = constant_stopper(1, 3, 4, PUT4)
    res = apply(stopper, paths)
    assert np.all(res.stop_step == 0)
    assert np.all(res.realized == reward(PUT4, 0, np.array([[90.0]])))
    assert np.bincount(res.stop_step, minlength=5)[0] == paths.num_paths


def test_never_stop_rule_stops_at_terminal():
    paths = small_put_ensemble()
    stopper = constant_stopper(0, 3, 4, PUT4)
    res = apply(stopper, paths)
    assert np.all(res.stop_step == 4)
    np.testing.assert_allclose(res.realized, reward(PUT4, 4, paths.state_at(4)))


def test_half_vote_reaches_projector_threshold():
    paths = small_put_ensemble(x0=90.0)
    trees = [[constant_tree(1, 1) for _ in range(4)],
             [constant_tree(0, 1) for _ in range(4)]]
    stopper = BaggedStopper(trees, "raw", PUT4)
    res = apply(stopper, paths)
    assert np.all(res.stop_step == 0)


def test_counts_partition_paths():
    paths = small_put_ensemble(num_paths=200, seed=8)
    cfg = TrainConfig(4, GrowConfig(max_depth=3, min_node_size=5), "raw", 1)
    stopper, _ = train(paths, PUT4, cfg)
    res = apply(stopper, paths)
    counts = np.bincount(res.stop_step, minlength=5)
    assert counts.sum() == paths.num_paths
    assert counts.shape == (5,)


def test_first_hit_consistency_and_decomposition():
    paths = small_put_ensemble(num_paths=300, seed=21)
    cfg = TrainConfig(3, GrowConfig(max_depth=4, min_node_size=5), "raw", 9)
    stopper, _ = train(paths, PUT4, cfg)
    res = apply(stopper, paths)
    N = paths.num_steps
    g = np.zeros((paths.num_paths, N + 1), dtype=int)
    for n in range(N):
        feats = features("raw", PUT4, n, paths.state_at(n))
        g[:, n] = stopper.stops(n, feats)
    g[:, N] = 1
    # first-hit: no earlier firing, and the rule fires at the stop step
    for k in range(paths.num_paths):
        tau = res.stop_step[k]
        assert not g[k, :tau].any()
        assert g[k, tau] == 1
    # exactly-one decomposition of the composed rule
    survive = np.cumprod(1 - g[:, :-1], axis=1)
    f = np.empty_like(g, dtype=float)
    f[:, 0] = g[:, 0]
    f[:, 1:] = survive * g[:, 1:]
    assert np.allclose(f.sum(axis=1), 1.0)
    assert np.array_equal((f * np.arange(N + 1)).sum(axis=1).astype(int), res.stop_step)


def bag_majority(preds, own=None):
    """Brute force: per row, whether at least half of the voting bags' ``preds`` say STOP.

    ``preds`` is the (B, K) matrix of per-tree votes; all bags vote, or all
    but bag ``own[k]`` on row k.
    """
    bags, rows = preds.shape
    if own is None:
        return np.array([sum(preds[:, k]) * 2 >= bags for k in range(rows)], dtype=bool)
    return np.array([sum(preds[b, k] for b in range(bags) if b != own[k]) * 2 >= bags - 1
                     for k in range(rows)], dtype=bool)


def assert_votes_like_trees(stopper, n, feats, preds, own):
    """``stops`` gives the majority of the (B, K) per-tree ``preds``, with and
    without leave-one-bag-out; rows past ``own``'s length belong to no bag."""
    full = stopper.stops(n, feats)
    assert full.dtype == bool and full.shape == (feats.shape[0],)
    np.testing.assert_array_equal(full, bag_majority(preds))
    np.testing.assert_array_equal(full, preds.sum(axis=0) * 2 >= preds.shape[0])
    for owned in (own, own[:len(own) // 2], own[:0]):
        loo, every = stopper.stops(n, feats, owned)
        assert loo.dtype == bool and loo.shape == owned.shape
        np.testing.assert_array_equal(loo, bag_majority(preds[:, :len(owned)], owned))
        np.testing.assert_array_equal(every, full)


@pytest.mark.parametrize("bags", [3, 4])
def test_apply_is_first_hit_majority_of_single_vector_votes(bags):
    # brute force: walk each path's steps, polling every bag tree on one
    # feature row at a time, and stop at the first half-or-more STOP vote
    spec = GbmSpec.symmetric(2, 100.0, -0.05, 0.3, 1.0, 4)
    paths = generate_gbm(spec, 120, seed=5)
    rspec = RewardSpec("max_call", 0.05, 100.0, 1.0, 4)
    cfg = TrainConfig(bags, GrowConfig(max_depth=3, min_node_size=4), "four_features", 6)
    stopper, _ = train(paths, rspec, cfg)
    test = generate_gbm(spec, 150, seed=6, label="test")
    res = apply(stopper, test)

    N = test.num_steps
    stop_step = np.full(test.num_paths, N)
    for k in range(test.num_paths):
        for n in range(N):
            x = features("four_features", rspec, n, test.state_at(n)[k:k + 1])
            if sum(stopper.trees[b][n].predict(x)[0] for b in range(bags)) * 2 >= bags:
                stop_step[k] = n
                break
    realized = [reward(rspec, stop_step[k], test.state_at(stop_step[k])[k:k + 1])[0]
                for k in range(test.num_paths)]
    np.testing.assert_array_equal(res.stop_step, stop_step)
    np.testing.assert_array_equal(res.realized, realized)
    assert 0 < np.bincount(res.stop_step, minlength=N + 1)[N] < test.num_paths

    rng = np.random.Generator(np.random.Philox(bags))
    for n in range(N):
        feats = features("four_features", rspec, n, test.state_at(n))
        preds = np.array([stopper.trees[b][n].predict(feats) for b in range(bags)])
        assert stopper.interval_table(n) is None
        assert_votes_like_trees(stopper, n, feats, preds, rng.integers(0, bags, size=test.num_paths))


# thresholds shared across bags, both signed zeros, and values a few ulps apart
THRESHOLDS = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 5e-324, 1.0, np.nextafter(1.0, 2.0), 3.75])


@st.composite
def random_tree(draw, n_features=1, max_depth=4):
    """A random tree; its thresholds need not be ordered down the tree."""
    nodes = []  # preorder (feature, threshold, left, right, leaf weight)

    def node(depth):
        i = len(nodes)
        nodes.append(None)
        if depth < max_depth and draw(st.booleans()):
            feature = draw(st.integers(0, n_features - 1))
            threshold = draw(THRESHOLDS | st.floats(-4.0, 4.0))
            left = node(depth + 1)
            nodes[i] = (feature, threshold, left, node(depth + 1), 0)
        else:
            nodes[i] = (-1, 0.0, -1, -1, draw(st.integers(0, 1)))
        return i

    node(0)
    return CartTree(nodes, n_features=n_features)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 5), st.integers(1, 3))
def test_interval_table_votes_like_every_tree(data, bags, steps):
    spec = RewardSpec("put", 0.05, 100.0, 1.0, steps)
    trees = [[data.draw(random_tree()) for _ in range(steps)] for _ in range(bags)]
    stopper = BaggedStopper(trees, "raw", spec)
    for n in range(steps):
        thresholds = np.array([thr for row in trees for f, thr, *_ in row[n].nodes if f >= 0])
        extremes = [thresholds.min() - 1, thresholds.max() + 1] if thresholds.size else []
        x = np.concatenate([thresholds, np.nextafter(thresholds, -np.inf),
                            np.nextafter(thresholds, np.inf),
                            [-0.0, 0.0, -np.finfo(float).max, np.finfo(float).max],
                            extremes])[:, None]
        preds = np.array([row[n].predict(x) for row in trees])
        own = np.array(data.draw(st.lists(st.integers(0, bags - 1), min_size=len(x),
                                          max_size=len(x))), dtype=np.int64)
        assert_votes_like_trees(stopper, n, x, preds, own)
        assert stopper.interval_table(n) is not None


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 11), st.integers(2, 5), st.booleans())
def test_stops_is_the_majority_of_every_tree(data, bags, n_features, mirrored):
    # trees reading several features vote tree by tree; a mirrored stopper
    # pairs bag b with the leaf-flipped tree of bag b - B//2, so each pair
    # casts exactly one STOP vote and ties at half come up on every row
    trees = [data.draw(random_tree(n_features)) for _ in range(bags)]
    if mirrored:
        for b in range(bags // 2, 2 * (bags // 2)):
            t = trees[b - bags // 2]
            trees[b] = CartTree([(f, thr, lo, hi, 1 - leaf if f < 0 else 0)
                                 for f, thr, lo, hi, leaf in t.nodes], n_features)
    stopper = BaggedStopper([[tree] for tree in trees], "raw", RewardSpec("put", 0.05, 100.0, 1.0, 1))
    x = np.array(data.draw(st.lists(st.lists(THRESHOLDS | st.floats(-4.0, 4.0),
                                             min_size=n_features, max_size=n_features),
                                    max_size=40)), dtype=float).reshape(-1, n_features)
    own = np.array(data.draw(st.lists(st.integers(0, bags - 1), min_size=len(x),
                                      max_size=len(x))), dtype=np.int64)
    for rows in (x, x[:0], x[:1]):
        for feats in (np.ascontiguousarray(rows), np.asfortranarray(rows)):
            preds = np.array([tree.predict(feats) for tree in trees]).reshape(bags, len(feats))
            assert_votes_like_trees(stopper, 0, feats, preds, own[:len(feats)])
            if mirrored:
                assert np.all(preds.sum(axis=0) >= bags // 2)
                if bags % 2 == 0:
                    assert stopper.stops(0, feats).all()  # every row ties at B/2
                else:
                    assert stopper.stops(0, feats, np.full(len(feats), bags - 1))[0].all()
    assert stopper.interval_table(0) is None


def test_chunked_apply_predicts_each_tree_once_per_step(monkeypatch):
    paths = small_put_ensemble(num_paths=300, seed=12)
    bags = 4
    cfg = TrainConfig(bags, GrowConfig(max_depth=4, min_node_size=5), "raw", 4)
    dump = train(paths, PUT4, cfg)[0].serialize()
    # a parsed stopper has not voted yet, so every step's table is still to build
    stopper = BaggedStopper.parse(dump, PUT4)
    chunks = [small_put_ensemble(num_paths=200, seed=s, label="test") for s in (1, 2, 3)]

    calls = []
    predict = CartTree.predict

    def counted(self, x):
        calls.append(self)
        return predict(self, x)

    monkeypatch.setattr(CartTree, "predict", counted)
    results = [apply(stopper, chunk) for chunk in chunks]
    for res in results:
        # every chunk reaches the last decision step, so it votes on every step
        assert (res.stop_step == PUT4.steps).any()
    assert len(calls) == bags * PUT4.steps
    assert {id(t) for t in calls} == {id(t) for row in stopper.trees for t in row}
    # the cached tables vote as tables rebuilt for each chunk
    for res, chunk in zip(results, chunks):
        fresh = apply(BaggedStopper.parse(dump, PUT4), chunk)
        np.testing.assert_array_equal(res.stop_step, fresh.stop_step)
        np.testing.assert_array_equal(res.realized, fresh.realized)


@pytest.mark.parametrize("chunk_paths", [None, 7])
@pytest.mark.parametrize("kind, dim, strike, barrier", [
    ("put", 1, 110.0, None),
    ("max_call", 3, 90.0, None),
    ("max_call_barrier", 3, 90.0, 130.0),
])
def test_first_hit_collects_the_reference_reward_and_path_maximum(monkeypatch, kind, dim, strike,
                                                                  barrier, chunk_paths):
    # the replay's three vectors against the oracles, byte for byte, on a
    # whole ensemble or on gbm_chunks of 7 paths (the last one ragged); the
    # strike pays at step 0, so a maximum that skips step 0 is caught too
    steps, num_paths = 6, 40
    gbm = GbmSpec.symmetric(dim, 100.0, 0.05, 0.3, 1.0, steps)
    spec = RewardSpec(kind, 0.05, strike, 1.0, steps, barrier)

    def fires(n, states):  # an arbitrary rule of the state, about a third of the rows
        return (states[:, 0] * 10).astype(int) % 3 == 0

    paths = generate_gbm(gbm, num_paths, 8, "test", barrier)
    if chunk_paths is not None:
        monkeypatch.setattr(ensemble, "CHUNK_BYTES",
                            2 * chunk_paths * 8 * (steps + 1) * (dim + (barrier is not None)))
    chunks = list(gbm_chunks(gbm, num_paths, 8, "test", barrier))
    assert len(chunks) == (1 if chunk_paths is None else 6)
    stop_step, realized, best = (np.concatenate(v) for v in
                                 zip(*(first_hit(c, spec, fires) for c in chunks)))

    fired = np.stack([fires(n, paths.state_at(n)) for n in range(steps)] + [[True] * num_paths])
    rewards = np.stack([reference_reward(spec, n, paths.state_at(n)) for n in range(steps + 1)])
    np.testing.assert_array_equal(stop_step, fired.argmax(axis=0))
    assert realized.tobytes() == rewards[stop_step, np.arange(num_paths)].tobytes()
    assert best.tobytes() == reference_max_rewards(spec, paths).tobytes()
    assert (realized <= best).all()
    assert (0 < stop_step).any() and (stop_step < steps).any()


def test_apply_rejects_mismatched_ensembles():
    paths = small_put_ensemble()
    stopper = constant_stopper(0, 2, 4, PUT4)
    other = generate_gbm(GbmSpec.symmetric(1, 100.0, 0.05, 0.3, 1.0, 6), 10, 1)
    with pytest.raises(ValueError):
        apply(stopper, other)


def test_apply_rejects_trees_of_another_feature_width():
    # raw features of a 1-D put are one wide; these trees read two features
    stopper = constant_stopper(0, 2, 4, PUT4, n_features=2)
    with pytest.raises(ValueError, match="feature dimension"):
        apply(stopper, small_put_ensemble())


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_single_decision_step_collapses_to_bag_average_rule():
    # with one decision step, each bag tree is a single leaf at the shared
    # initial point, stopping exactly when the immediate reward beats the
    # bag-average continuation
    spec = GbmSpec.symmetric(1, 95.0, 0.05, 0.4, 1.0, 1)
    paths = generate_gbm(spec, 40, seed=13)
    rspec = RewardSpec("put", 0.05, 100.0, 1.0, 1)
    cfg = TrainConfig(4, GrowConfig(), "raw", 2)
    stopper, _ = train(paths, rspec, cfg)

    rng = np.random.Generator(np.random.Philox(2))
    perm = rng.permutation(40)
    u0 = reward(rspec, 0, paths.state_at(0)[:1])[0]
    u1 = reward(rspec, 1, paths.state_at(1))
    for b in range(4):
        rows = np.sort(perm[b * 10:(b + 1) * 10])
        tree = stopper.trees[b][0]
        assert tree.n_nodes == 1
        expected = 1 if u1[rows].mean() < u0 else 0
        assert tree.predict(np.array([[95.0]]))[0] == expected


def test_deterministic_paths_reproduce_backward_induction():
    # zero volatility collapses every path to one trajectory; the trained
    # rule must stop where plain backward induction on that trajectory stops
    spec = GbmSpec.symmetric(1, 105.0, -1.0, 0.0, 1.0, 20)
    paths = generate_gbm(spec, 30, seed=4)
    rspec = RewardSpec("put", 1.0, 100.0, 1.0, 20)
    stopper, _ = train(paths, rspec, TrainConfig(3, GrowConfig(), "raw", 5))
    res = apply(stopper, paths)
    rewards = [reward(rspec, n, paths.state_at(n)[:1])[0] for n in range(21)]
    step, value = deterministic_best_stop(rewards)
    assert np.all(res.stop_step == step)
    assert np.allclose(res.realized, value)


@pytest.mark.parametrize("kind, mode", [("put", "raw"), ("max_call", "raw_plus_reward"),
                                        ("max_call", "four_features")])
def test_train_returns_the_rewards_apply_realizes(kind, mode):
    # 61 paths in 4 bags: the bags drop one path, which is valued all the same;
    # from the ensemble or from its feature block, path by path, bit for bit
    dim = 1 if kind == "put" else 3
    paths = generate_gbm(GbmSpec.symmetric(dim, 100.0, -0.05, 0.3, 1.0, 4), 61, 5, "training")
    rspec = RewardSpec(kind, 0.05, 100.0, 1.0, 4)
    cfg = TrainConfig(4, GrowConfig(max_depth=3, min_node_size=3), mode, 2)
    stopper, realized = train(paths, rspec, cfg)
    assert (stopper.interval_table(0) is None) == (mode != "raw")
    np.testing.assert_array_equal(realized, apply(stopper, paths).realized)
    width = features(mode, rspec, 0, paths.state_at(0)).shape[1]
    _, from_block = train(feature_block([paths], 61, width, rspec, mode), rspec, cfg)
    np.testing.assert_array_equal(from_block, realized)


def test_training_is_deterministic():
    paths = small_put_ensemble(num_paths=150, seed=17)
    cfg = TrainConfig(3, GrowConfig(max_depth=4), "raw", 11)
    a, _ = train(paths, PUT4, cfg)
    b, _ = train(paths, PUT4, cfg)
    assert a.serialize() == b.serialize()


def test_training_memory_stays_below_a_quarter_of_the_ensemble():
    # training holds one step's gathered features and rewards at a time, about
    # 0.04 of this ensemble; a bag-ordered copy of the whole ensemble (+1.0) or
    # every step's features held at once (+0.47) breaks the bound
    from treestop.config import ExperimentConfig

    cfg = ExperimentConfig(kind="max_call_barrier", dim=8, mu=0.05, maturity=3.0, steps=53,
                           barrier=170.0, feature_mode="four_features", k_train=20000,
                           bags=10)
    paths = cfg.make_ensemble("training")
    tracemalloc.start()
    try:
        train(paths, cfg.reward_spec(), cfg.train_config())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * paths.data.nbytes


def test_too_few_paths_rejected():
    paths = small_put_ensemble(num_paths=5)
    with pytest.raises(ValueError):
        train(paths, PUT4, TrainConfig(10, GrowConfig(), "raw", 1))


def test_single_bag_rejected():
    with pytest.raises(ValueError):
        TrainConfig(1, GrowConfig(), "raw", 1)


def test_unknown_feature_mode_rejected():
    with pytest.raises(ValueError, match="unknown feature mode 'bogus'"):
        TrainConfig(2, GrowConfig(), "bogus", 1)


def test_feature_reward_incompatibility():
    paths = small_put_ensemble()
    with pytest.raises(ValueError):
        train(paths, PUT4, TrainConfig(2, GrowConfig(), "four_features", 1))


def test_step_count_mismatch_rejected():
    paths = small_put_ensemble(steps=4)
    bad = RewardSpec("put", 0.05, 100.0, 1.0, 5)
    with pytest.raises(ValueError):
        train(paths, bad, TrainConfig(2, GrowConfig(), "raw", 1))
    # raw features are the states, so the ensemble's data is its feature block
    with pytest.raises(ValueError, match="feature block"):
        train(paths.data, bad, TrainConfig(2, GrowConfig(), "raw", 1))
    # replayed unchecked, the last step's reward would be discounted as if N were 5
    with pytest.raises(ValueError, match="step count"):
        first_hit(paths, bad, lambda n, states: np.zeros(states.shape[0], dtype=bool))


@pytest.mark.parametrize("mode", ["four_features", "raw_plus_reward"])
def test_feature_block_too_narrow_for_its_mode_rejected(mode):
    # read as features, a raw state block would lend its only column as the reward
    paths = small_put_ensemble(steps=4)
    with pytest.raises(ValueError, match=f"a {mode} feature block cannot have 1 columns"):
        train(paths.data, PUT4, TrainConfig(2, GrowConfig(), mode, 1))


def test_feature_block_short_of_paths_rejected():
    # chunks that fall short would leave the block's last rows uninitialised
    paths = small_put_ensemble(steps=4)
    with pytest.raises(ValueError, match="the chunks hold 64 paths, the block 65"):
        feature_block(iter([paths]), 65, 2, PUT4, "raw_plus_reward")


# ---------------------------------------------------------------------------
# cross-validation building blocks
# ---------------------------------------------------------------------------

def bag_vote_stopper(stopping_bags, bags, n_features):
    """One-step stopper whose first ``stopping_bags`` bags always vote STOP.

    A one-feature step votes through its interval table, a wider one tree by
    tree.
    """
    trees = [[constant_tree(int(b < stopping_bags), n_features)] for b in range(bags)]
    return BaggedStopper(trees, "raw", RewardSpec("put", 0.05, 100.0, 1.0, 1))


def all_tree_votes(stopper, x):
    """(B, K) votes of every bag's step-0 tree, for ``bag_majority``."""
    return np.array([row[0].predict(x) for row in stopper.trees])


def test_leave_one_out_mask_ignores_own_tree():
    # flipping the tree of a row's own bag moves the all-bag vote of every
    # row (5 of 10 STOP becomes 4 or 6) but leaves that row's leave-one-out
    # vote alone
    own = np.array([0, 7, 4, 9])
    for n_features in (1, 2):
        x = np.linspace(-1.0, 1.0, 4 * n_features).reshape(4, n_features)
        base = bag_vote_stopper(5, 10, n_features)
        np.testing.assert_array_equal(base.stops(0, x), [True] * 4)
        np.testing.assert_array_equal(base.stops(0, x), bag_majority(all_tree_votes(base, x)))
        assert (base.interval_table(0) is None) == (n_features > 1)
        loo, every = base.stops(0, x, own)
        np.testing.assert_array_equal(every, base.stops(0, x))
        # 4 of the other 9 where the own bag stops, 5 of 9 where it continues
        np.testing.assert_array_equal(loo, [False, True, False, True])
        np.testing.assert_array_equal(loo, bag_majority(all_tree_votes(base, x), own))
        for k, b in enumerate(own):
            flipped = bag_vote_stopper(5, 10, n_features)
            flipped.trees[b][0] = constant_tree(int(b >= 5), n_features)
            preds = all_tree_votes(flipped, x)
            assert preds[:, k].sum() == 5 + (1 if b >= 5 else -1)
            assert flipped.stops(0, x)[k] == (b >= 5)
            np.testing.assert_array_equal(flipped.stops(0, x), bag_majority(preds))
            assert flipped.stops(0, x, own)[0][k] == loo[k]
            np.testing.assert_array_equal(flipped.stops(0, x, own)[0], bag_majority(preds, own))


def test_loo_threshold_is_half_of_remaining_bags():
    # 10 bags, 5 of them STOP: the full vote stops (5 of 10), and a row's
    # leave-one-out vote is 5 of the other 9 when its bag continues but 4 of
    # 9 when its bag stops; the integer counts make the 4.5 cut exact
    own = np.array([5, 0])
    for n_features in (1, 2):
        x = np.zeros((2, n_features))
        stopper = bag_vote_stopper(5, 10, n_features)
        preds = all_tree_votes(stopper, x)
        np.testing.assert_array_equal(preds.sum(axis=0) - preds[own, [0, 1]], [5, 4])
        loo, every = stopper.stops(0, x, own)
        assert loo.dtype == bool
        np.testing.assert_array_equal(every, [True, True])
        np.testing.assert_array_equal(loo, [True, False])
        np.testing.assert_array_equal(loo, bag_majority(preds, own))
        np.testing.assert_array_equal(stopper.stops(0, x), [True, True])
        np.testing.assert_array_equal(stopper.stops(0, x), bag_majority(preds))


@pytest.mark.parametrize("stopping_bags", [10, 0])
def test_leave_one_out_vote_stops_routing_settled_rows(monkeypatch, stopping_bags):
    # 10 bags that all vote alike: after 6 of them every row's count is 6
    # STOP votes, or 0 with 4 to come, which settles its leave-one-out vote (5
    # of the other 9) and its all-bag vote (5 of 10), so the last four trees
    # route no row; rows past own's 17 belong to no bag
    x = np.linspace(-1.0, 1.0, 40).reshape(20, 2)
    own = np.arange(17) % 10
    stopper = bag_vote_stopper(stopping_bags, 10, 2)
    preds = all_tree_votes(stopper, x)
    routed = []
    predict = CartTree.predict

    def counted(self, x, rows=None):
        routed.append(x.shape[0] if rows is None else len(rows))
        return predict(self, x, rows)

    monkeypatch.setattr(CartTree, "predict", counted)
    loo, every = stopper.stops(0, x, own)
    assert routed == [20] * 6 + [0] * 4
    np.testing.assert_array_equal(loo, bag_majority(preds[:, :17], own))
    np.testing.assert_array_equal(every, bag_majority(preds))


def test_reward_augmented_features_reproduce_published_max_call():
    # two-asset benchmark row at one fifth of the published training size:
    # the reward-augmented feature mode must stay within 0.15 of the
    # published 7.971
    spec = GbmSpec.symmetric(2, 90.0, -0.05, 0.2, 3.0, 9)
    tr = generate_gbm(spec, 20000, 3101, "training")
    te = generate_gbm(spec, 50000, 3202, "test")
    rspec = RewardSpec("max_call", 0.05, 100.0, 3.0, 9)
    cfg = TrainConfig(10, GrowConfig(), "raw_plus_reward", 3303)
    from treestop.valuation import value_of_rule

    rep = value_of_rule(apply(train(tr, rspec, cfg)[0], te))
    assert abs(rep.value - 7.971) <= 0.15


@pytest.mark.parametrize("seed", range(6))
def test_trained_rule_attains_discrete_optimum(seed):
    # tiny Markov ensembles with integer zero-rate rewards: any per-state rule
    # is representable by 1-D threshold trees, and on these frozen instances
    # the trained rule must reach the enumeration optimum exactly
    from treestop.valuation import make_markov_instance, oracle_enumerate, value_of_rule

    paths = make_markov_instance(seed, num_steps=3)
    spec = RewardSpec("put", 0.0, 220.0, 1.0, 3)
    cfg = TrainConfig(2, GrowConfig(max_depth=8, min_node_size=1), "raw", 5)
    trained = value_of_rule(apply(train(paths, spec, cfg)[0], paths)).value
    assert trained == oracle_enumerate(paths, spec).value


def test_serialize_parse_round_trip():
    paths = small_put_ensemble(num_paths=120, seed=30)
    cfg = TrainConfig(3, GrowConfig(max_depth=3), "raw", 6)
    stopper, _ = train(paths, PUT4, cfg)
    clone = BaggedStopper.parse(stopper.serialize(), PUT4)
    assert clone.serialize() == stopper.serialize()
    res_a = apply(stopper, paths)
    res_b = apply(clone, paths)
    np.testing.assert_array_equal(res_a.stop_step, res_b.stop_step)


def test_parse_rejects_wrong_reward_spec():
    paths = small_put_ensemble(num_paths=60)
    stopper, _ = train(paths, PUT4, TrainConfig(2, GrowConfig(max_depth=2), "raw", 1))
    other = RewardSpec("put", 0.01, 100.0, 1.0, 4)
    with pytest.raises(ValueError):
        BaggedStopper.parse(stopper.serialize(), other)


def split_dump():
    # a 2-bag, 4-step dump whose first tree splits at 1.0 and the rest are leaves
    stopper = constant_stopper(0, 2, 4, PUT4)
    stopper.trees[0][0] = CartTree([(0, 1.0, 1, 2, 0), (-1, 0.0, -1, -1, 1),
                                    (-1, 0.0, -1, -1, 0)], 1)
    return stopper.serialize()


MALFORMED_DUMPS = {
    "truncated": (lambda t: t[: t.rindex("endtree")], "ends inside 'begintree bag=1 step=3'"),
    "no reward_hash": (lambda t: "\n".join(ln for ln in t.splitlines()
                                           if not ln.startswith("reward_hash")), "reward_hash"),
    "bad bag count": (lambda t: t.replace("bags 2", "bags two"), "bags"),
    "missing tree": (lambda t: t[: t.rindex("begintree")], "7 trees"),
    "bag out of range": (lambda t: t.replace("bag=1 step=3", "bag=2 step=3"), "bag=2 step=3"),
    "leaf weight 3": (lambda t: t.replace("0 leaf 0", "0 leaf 3"), "0 leaf 3"),
    "node index out of range": (lambda t: t.replace("1 leaf 1", "5 leaf 1"), "5 leaf 1"),
    "child out of range": (lambda t: t.replace("0 split 0 1.0 1 2", "0 split 0 1.0 1 9"),
                           "0 split 0 1.0 1 9"),
    "child cycle": (lambda t: t.replace("0 split 0 1.0 1 2", "0 split 0 1.0 0 2"),
                    "0 split 0 1.0 0 2"),
    "feature out of range": (lambda t: t.replace("0 split 0 1.0 1 2", "0 split 1 1.0 1 2"),
                             "0 split 1 1.0 1 2"),
    "node count": (lambda t: t.replace("tree nodes=3", "tree nodes=4"), "4 nodes"),
    # no row passes a NaN test, so the left subtree would be unreachable
    "nan threshold": (lambda t: t.replace("0 split 0 1.0 1 2", "0 split 0 nan 1 2"),
                      "0 split 0 nan 1 2"),
    "inf threshold": (lambda t: t.replace("0 split 0 1.0 1 2", "0 split 0 inf 1 2"),
                      "0 split 0 inf 1 2"),
    "-inf threshold": (lambda t: t.replace("0 split 0 1.0 1 2", "0 split 0 -inf 1 2"),
                       "0 split 0 -inf 1 2"),
    # a well-formed 2 x 3 dump that carries the 4-step spec's reward hash
    "steps differ from spec": (lambda t: re.sub(r"begintree bag=\d step=3\n.*?endtree\n", "",
                                                t.replace("steps 4", "steps 3"), flags=re.S),
                               "'steps' is 3"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DUMPS))
def test_parse_rejects_malformed_dump(case):
    text = split_dump()
    assert BaggedStopper.parse(text, PUT4).serialize() == text
    mutate, named = MALFORMED_DUMPS[case]
    bad = mutate(text)
    assert bad != text
    with pytest.raises(ValueError, match=re.escape(named)):
        BaggedStopper.parse(bad, PUT4)
