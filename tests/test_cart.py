import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treestop.cart import (
    DELTA,
    PROTOTYPE,
    CartTree,
    GrowConfig,
    grow,
    removal,
)

from oracles import (
    brute_force_split,
    constant_tree,
    grown_root,
    leaf_count,
    reference_grow,
    tree_depth,
    unique_removal,
)

# Four 2-D points whose mixed increments cancel against the larger total: the
# size-controlled splitter collapses the root to a single CONTINUE leaf.
POCKET_POINTS = np.array([[2.0, 6.0], [5.0, 5.0], [3.0, 3.0], [6.0, 2.0]])
POCKET_DELTAS = np.array([2.0, -0.5, -0.5, 2.0])


# ---------------------------------------------------------------------------
# removal
# ---------------------------------------------------------------------------

def test_removal_averages_duplicates():
    s = removal(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([2.0, -1.0]))
    assert len(s) == 1
    assert s.delta[0] == 0.5
    assert s.mult[0] == 2


def test_removal_distinct_points_pass_through():
    pts = np.array([[1.0], [3.0], [2.0]])
    s = removal(pts, np.array([0.1, 0.2, 0.3]))
    assert len(s) == 3
    np.testing.assert_array_equal(s.mult, [1, 1, 1])
    np.testing.assert_array_equal(s.points, pts)  # first-occurrence order kept


def test_removal_triple_preserves_weighted_sum():
    pts = np.array([[4.0], [4.0], [4.0]])
    s = removal(pts, np.array([3.0, 0.0, 0.0]))
    assert len(s) == 1 and s.delta[0] == 1.0 and s.mult[0] == 3
    assert np.sum(s.weight) == 3.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.floats(-5, 5)), min_size=1, max_size=30))
def test_removal_weighted_sum_identity(items):
    # sum of mult * delta over merged output equals the plain input sum, and
    # the same identity holds per group, hence for any {0,1} weighting
    pts = np.array([[float(i)] for i, _ in items])
    dl = np.array([d for _, d in items])
    s = removal(pts, dl)
    assert np.unique(s.points, axis=0).shape[0] == len(s)
    assert np.sum(s.weight) == pytest.approx(np.sum(dl), abs=1e-12)
    for row in range(len(s)):
        group = dl[(pts == s.points[row]).all(axis=1)]
        assert s.weight[row] == pytest.approx(group.sum(), abs=1e-12)


@st.composite
def duplicate_heavy(draw):
    # a few grid values per coordinate, 0.0 and -0.0 among them, so most rows
    # repeat; D=1 cases are sometimes passed as a plain vector
    d = draw(st.integers(1, 5))
    m = draw(st.integers(0, 40))
    grid = [0.0, -0.0, 1.0, -2.5][: draw(st.integers(1, 4))]
    cell = st.sampled_from(grid)
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=m, max_size=m))
    pts = np.array(rows, dtype=float).reshape(m, d)
    dl = np.array(draw(st.lists(st.floats(-5, 5), min_size=m, max_size=m)), dtype=float)
    if d == 1 and draw(st.booleans()):
        pts = pts[:, 0]
    return pts, dl


@settings(max_examples=400, deadline=None)
@given(duplicate_heavy())
@example((np.zeros((0, 3)), np.zeros(0)))
@example((np.zeros(0), np.zeros(0)))
@example((np.array([[-0.0, 1.0]]), np.array([0.25])))
@example((np.array([0.0, -0.0, 0.0, 1.0, -0.0]), np.array([1.0, 2.0, 3.0, 4.0, 5.0])))
def test_removal_matches_unique_oracle(case):
    # the sort-based merge is byte-identical to the np.unique(axis=0) merge,
    # and its orders are the (coordinate, row index) sorts of the merged rows
    pts, dl = case
    s = removal(pts, dl)
    for got, ref in zip((s.points, s.delta, s.mult), unique_removal(pts, dl)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    idx = np.arange(len(s))
    assert len(s.orders) == s.dim
    for d in range(s.dim):
        assert np.array_equal(s.orders[d], np.lexsort((idx, s.points[:, d])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_removal_rejects_non_finite_input(bad):
    # a NaN coordinate fails every <= test, so it cannot be routed like the
    # point a split was chosen for; infinite values are refused the same way
    pts = np.array([[1.0], [bad], [bad], [2.0]])
    with pytest.raises(ValueError, match="non-finite"):
        removal(pts, np.array([1.0, -1.0, 1.0, -1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        removal(np.array([[1.0], [2.0]]), np.array([bad, 0.5]))


# ---------------------------------------------------------------------------
# split decisions
# ---------------------------------------------------------------------------

def test_pocket_instance_collapses_to_continue_leaf():
    s = removal(POCKET_POINTS, POCKET_DELTAS)
    assert grown_root(s, DELTA) == ("leaf", 0)


def test_same_sign_sets_always_leaf():
    s = removal(np.array([[1.0], [2.0], [3.0]]), np.array([-0.2, -0.7, -0.1]))
    assert grown_root(s, DELTA) == ("leaf", 1)
    s_pos = removal(np.array([[1.0], [2.0], [3.0]]), np.array([0.2, 0.7, 0.1]))
    assert grown_root(s_pos, DELTA) == ("leaf", 0)


def test_one_dimensional_sign_change_splits_in_the_middle():
    # prefix sums -1, -2, -1 give max score 2 > |total| = 0
    s = removal(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([-1.0, -1.0, 1.0, 1.0]))
    assert grown_root(s, DELTA) == ("split", 0, 2.0)


def test_prototype_splits_pocket_instance():
    s = removal(POCKET_POINTS, POCKET_DELTAS)
    decision = grown_root(s, PROTOTYPE)
    # exhaustive scoring: the best achievable score is 2, first reached on
    # dim 0 after the point at x=2
    assert decision == ("split", 0, 2.0)
    kind, score, *_ = brute_force_split(POCKET_POINTS, POCKET_DELTAS)
    assert kind == "leaf"  # the size-controlled rule stops here instead
    total = POCKET_DELTAS.sum()
    assert abs(total) == 3.0


def test_prototype_single_sample_leaf():
    s = removal(np.array([[7.0]]), np.array([-0.2]))
    assert grown_root(s, PROTOTYPE) == ("leaf", 1)


def test_prototype_forced_split_of_two_points():
    s = removal(np.array([[1.0], [2.0]]), np.array([5.0, 5.0]))
    assert grown_root(s, PROTOTYPE) == ("split", 0, 1.0)


def test_empty_input_rejected():
    s = removal(np.zeros((0, 1)), np.zeros(0))
    for splitter in (DELTA, PROTOTYPE):
        with pytest.raises(ValueError, match="empty sample set"):
            grow(s, GrowConfig(1, 1, splitter))
    with pytest.raises(ValueError, match=r"\(3, 0\)"):
        removal(np.zeros((3, 0)), np.zeros(3))


@st.composite
def sample_sets(draw):
    m = draw(st.integers(2, 20))
    d = draw(st.integers(1, 3))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32))))
    pts = np.round(rng.uniform(-5, 5, size=(m, d)), 1)  # coarse grid forces ties
    dl = rng.normal(0, 1, size=m)
    return pts, dl


@settings(max_examples=300, deadline=None)
@given(sample_sets())
def test_delta_split_matches_exhaustive_enumeration(case):
    pts, dl = case
    s = removal(pts, dl)
    got = grown_root(s, DELTA)
    expected = brute_force_split(s.points, s.weight)
    assert got == (expected if expected[0] == "leaf" else ("split", *expected[2:]))


@settings(max_examples=200, deadline=None)
@given(sample_sets(), st.sampled_from([DELTA, PROTOTYPE]), st.integers(1, 4))
def test_grow_root_matches_standalone_split(case, splitter, max_depth):
    # without size caps the root of a deeper tree is the one-node decision,
    # which is the exhaustive scan's for either splitter
    s = removal(*case)
    tree = grow(s, GrowConfig(max_depth=max_depth, min_node_size=1, splitter=splitter))
    expected = grown_root(s, splitter)
    found = brute_force_split(s.points, s.weight, always_split=splitter == PROTOTYPE)
    assert expected == (found if found[0] == "leaf" else ("split", *found[2:]))
    f, threshold, _, _, leaf = tree.nodes[0]
    assert expected == (("leaf", leaf) if f < 0 else ("split", f, threshold))


# ---------------------------------------------------------------------------
# grow / predict
# ---------------------------------------------------------------------------

def test_depth_zero_forces_single_leaf():
    s = removal(np.array([[1.0], [2.0]]), np.array([-3.0, 1.0]))
    tree = grow(s, GrowConfig(max_depth=0))
    assert tree.n_nodes == 1 and leaf_count(tree) == 1
    assert tree.predict(np.array([[5.0]]))[0] == 1  # total is negative


def test_pocket_instance_grows_degenerate_tree():
    s = removal(POCKET_POINTS, POCKET_DELTAS)
    tree = grow(s, GrowConfig())
    assert tree.n_nodes == 1
    probe = np.array([[0.0, 0.0], [4.0, 4.0], [100.0, -3.0]])
    np.testing.assert_array_equal(tree.predict(probe), [0, 0, 0])


def test_prototype_isolates_every_point():
    rng = np.random.Generator(np.random.Philox(5))
    pts = rng.uniform(0, 1, size=(17, 2))
    dl = rng.normal(size=17)
    s = removal(pts, dl)
    tree = grow(s, GrowConfig(max_depth=64, min_node_size=1, splitter="prototype"))
    assert leaf_count(tree) == 17
    np.testing.assert_array_equal(tree.predict(pts), (dl < 0).astype(int))


def test_min_node_size_forces_leaf():
    s = removal(np.array([[1.0], [2.0], [3.0]]), np.array([-1.0, 1.0, -1.0]))
    tree = grow(s, GrowConfig(min_node_size=4))
    assert tree.n_nodes == 1
    assert tree.predict(np.array([[1.0]]))[0] == 1


def leaf_of(tree, x):
    """Reference: the id of the leaf one feature vector reaches, node by node."""
    i = 0
    while tree.nodes[i][0] >= 0:
        f, threshold, left, right, _ = tree.nodes[i]
        i = left if x[f] <= threshold else right
    return i


def test_predict_boundary_goes_left():
    tree = CartTree([(0, 2.0, 1, 2, 0), (-1, 0.0, -1, -1, 1), (-1, 0.0, -1, -1, 0)], 1)
    np.testing.assert_array_equal(tree.predict(np.array([[2.0], [2.0001]])), [1, 0])


def test_single_leaf_tree_is_constant():
    tree = constant_tree(1, 3)
    assert tree.n_nodes == 1 and tree_depth(tree) == 0
    np.testing.assert_array_equal(tree.predict(np.array([[9.0, -4.0, 0.0], [0.0, 0.0, 0.0]])),
                                  [1, 1])


def test_predict_dimension_mismatch():
    tree = constant_tree(0, 2)
    with pytest.raises(ValueError, match=r"\(1, 3\)"):
        tree.predict(np.array([[1.0, 2.0, 3.0]]))
    # a single feature vector or a scalar is not a matrix of rows
    for x, shape in ((np.array([1.0, 2.0]), r"\(2,\)"), (np.float64(1.0), r"\(\)")):
        with pytest.raises(ValueError, match=shape):
            tree.predict(x)


@settings(max_examples=100, deadline=None)
@given(sample_sets(), st.sampled_from([DELTA, PROTOTYPE]))
def test_partition_consistency(case, splitter):
    # routing the training points reaches every leaf, and each leaf's weight
    # is the sign rule applied to the weight of exactly the points it receives
    pts, dl = case
    s = removal(pts, dl)
    tree = grow(s, GrowConfig(max_depth=6, min_node_size=1, splitter=splitter))
    assert tree_depth(tree) <= 6
    reached = np.array([leaf_of(tree, x) for x in s.points])
    for i, (f, _, _, _, leaf) in enumerate(tree.nodes):
        if f < 0:
            rows = np.flatnonzero(reached == i)
            assert rows.shape[0] >= 1
            assert leaf == int(np.sum(s.weight[rows]) < 0)


@settings(max_examples=300, deadline=None)
@given(duplicate_heavy().filter(lambda case: len(case[1])), st.sampled_from([DELTA, PROTOTYPE]),
       st.integers(0, 6), st.integers(1, 8))
def test_grow_matches_reference_tree(case, splitter, max_depth, min_node_size):
    # ties and +-0.0 on every coordinate exercise the valid-position rule
    s = removal(*case)
    tree = grow(s, GrowConfig(max_depth, min_node_size, splitter))
    expected = reference_grow(s.points, s.weight, max_depth, min_node_size,
                              always_split=splitter == PROTOTYPE)
    assert tree.to_text().splitlines() == expected.splitlines()


@settings(max_examples=150, deadline=None)
@given(sample_sets())
def test_prototype_attains_training_minimum(case):
    pts, dl = case
    s = removal(pts, dl)
    tree = grow(s, GrowConfig(max_depth=64, min_node_size=1, splitter="prototype"))
    preds = tree.predict(s.points)
    achieved = np.sum(s.weight * preds)
    assert achieved == np.sum(np.minimum(s.weight, 0.0))


def walk(tree, x):
    """Reference: the leaf weight one feature vector reaches, node by node."""
    return tree.nodes[leaf_of(tree, x)][4]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 2**32),
       st.sampled_from([DELTA, PROTOTYPE]), st.integers(0, 6), st.integers(1, 8))
def test_predict_matches_per_row_walk(m, d, seed, splitter, max_depth, min_node_size):
    rng = np.random.Generator(np.random.Philox(seed))
    s = removal(np.round(rng.uniform(-5, 5, size=(m, d)), 1), rng.normal(size=m))
    tree = grow(s, GrowConfig(max_depth, min_node_size, splitter))
    # probe every column with the training values, each threshold on it and
    # the threshold's float neighbours, then repeat some rows
    candidates = []
    for f in range(d):
        thr = np.array([t for g, t, *_ in tree.nodes if g == f])
        candidates.append(np.concatenate([s.points[:, f], thr, np.nextafter(thr, -np.inf),
                                          np.nextafter(thr, np.inf)]))
    probes = np.column_stack([rng.choice(c, size=200) for c in candidates])
    probes = np.concatenate([probes, probes[rng.integers(0, 200, size=50)]])
    preds = tree.predict(probes)
    assert preds.dtype == np.int8 and preds.shape == (250,)
    np.testing.assert_array_equal(preds, [walk(tree, x) for x in probes])
    empty = tree.predict(np.zeros((0, d)))
    assert empty.dtype == np.int8 and empty.shape == (0,)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 2**32),
       st.sampled_from([DELTA, PROTOTYPE]), st.booleans())
def test_predict_routes_only_the_listed_rows(m, d, seed, splitter, fortran):
    rng = np.random.Generator(np.random.Philox(seed))
    s = removal(np.round(rng.uniform(-5, 5, size=(m, d)), 1), rng.normal(size=m))
    probes = np.round(rng.uniform(-5, 5, size=(60, d)), 1)
    probes = np.asfortranarray(probes) if fortran else probes
    picked = np.flatnonzero(rng.random(60) < 0.5)
    for tree in (grow(s, GrowConfig(6, 1, splitter)), constant_tree(1, d)):
        full = tree.predict(probes)
        for rows in (picked, picked[:1], np.arange(0), np.arange(60)):
            part = tree.predict(probes, rows)
            assert part.dtype == np.int8 and part.shape == (60,)
            np.testing.assert_array_equal(part[rows], full[rows])
            np.testing.assert_array_equal(np.delete(part, rows), 0)


def test_grow_config_validation():
    with pytest.raises(ValueError):
        GrowConfig(max_depth=-1)
    with pytest.raises(ValueError):
        GrowConfig(min_node_size=0)
    with pytest.raises(ValueError):
        GrowConfig(splitter="gini")


def test_text_round_trip():
    rng = np.random.Generator(np.random.Philox(11))
    s = removal(rng.uniform(0, 1, size=(40, 3)), rng.normal(size=40))
    tree = grow(s, GrowConfig(max_depth=5, min_node_size=2))
    clone = CartTree.from_text(tree.to_text())
    assert clone.to_text() == tree.to_text()
    assert clone.nodes == tree.nodes
    probe = rng.uniform(0, 1, size=(100, 3))
    np.testing.assert_array_equal(clone.predict(probe), tree.predict(probe))
