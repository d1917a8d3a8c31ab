import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestop.reward import REWARD_COLUMN, RewardSpec, features, reward

from oracles import reference_four_features, reference_reward


PUT50 = RewardSpec("put", 0.05, 100.0, 1.0, 50)
CALL9 = RewardSpec("max_call", 0.05, 100.0, 3.0, 9)
BARRIER53 = RewardSpec("max_call_barrier", 0.05, 100.0, 3.0, 53, 170.0)


def one(state):
    """A single state as a one-row (1, dim) matrix."""
    return np.array([state], dtype=float)


def test_put_at_step_zero_has_no_discount():
    assert reward(PUT50, 0, one([85.0]))[0] == 15.0


def test_put_discount_uses_step_fraction():
    x = one([85.0])
    assert reward(PUT50, 10, x)[0] == pytest.approx(np.exp(-0.05 * 10 / 50) * 15.0)


def test_max_call_takes_largest_coordinate():
    assert reward(CALL9, 0, one([110.0, 90.0]))[0] == 10.0


def test_barrier_indicator_kills_payoff():
    x = one([150.0, 120.0, 0.0])
    assert reward(BARRIER53, 3, x)[0] == 0.0
    x_alive = one([150.0, 120.0, 1.0])
    expected = np.exp(-0.05 * 3 * 3.0 / 54) * 50.0
    assert reward(BARRIER53, 3, x_alive)[0] == pytest.approx(expected)


def test_barrier_discount_denominator_is_steps_plus_one():
    assert BARRIER53.discount_steps == 54
    assert PUT50.discount_steps == 50


def test_batch_matches_scalar():
    xs = np.array([[85.0], [100.0], [120.0]])
    batch = reward(PUT50, 7, xs)
    for k, expect in enumerate(batch):
        assert reward(PUT50, 7, xs[k:k + 1])[0] == expect


@pytest.mark.parametrize("x, shape", [(np.float64(85.0), "()"), (np.array([85.0]), "(1,)"),
                                      (np.ones((2, 1, 1)), "(2, 1, 1)")])
def test_states_must_be_a_matrix(x, shape):
    # a scalar or a single state vector is not read as one state
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        reward(PUT50, 0, x)
    for mode in ("raw", "raw_plus_reward"):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            features(mode, PUT50, 0, x)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        reward(PUT50, 0, one([100.0, 100.0]))


def test_four_features_ordering():
    out = features("four_features", CALL9, 0, one([3.0, 1.0, 2.0]))[0]
    # (reward, largest, second largest, gap); strike makes reward 0 here
    np.testing.assert_allclose(out, [0.0, 3.0, 2.0, 1.0])


def test_four_features_tied_maximum():
    out = features("four_features", CALL9, 0, one([5.0, 5.0]))[0]
    np.testing.assert_allclose(out, [0.0, 5.0, 5.0, 0.0])


def test_four_features_barrier_ignores_indicator():
    out = features("four_features", BARRIER53, 0, one([150.0, 120.0, 0.0]))[0]
    assert out[1] == 150.0 and out[2] == 120.0 and out[3] == 30.0
    assert out[0] == 0.0  # knocked out


def test_raw_plus_reward_concatenates():
    out = features("raw_plus_reward", PUT50, 0, one([85.0]))
    np.testing.assert_allclose(out, [[85.0, 15.0]])


def test_feature_dims():
    states = np.full((3, 5), 90.0)
    assert features("raw", CALL9, 0, states).shape == (3, 5)
    assert features("raw_plus_reward", CALL9, 0, states).shape == (3, 6)
    assert features("four_features", CALL9, 0, states).shape == (3, 4)


def test_four_features_needs_two_assets():
    with pytest.raises(ValueError):
        features("four_features", PUT50, 0, one([85.0]))


PUT_ROWS = [[85.0], [120.0]]
CALL_ROWS = [[110.0, 90.0, 130.0], [80.0, 95.0, 70.0]]
BARRIER_ROWS = [[150.0, 120.0, 1.0], [150.0, 120.0, 0.0]]


@pytest.mark.parametrize("mode, spec, states", [
    ("raw_plus_reward", PUT50, PUT_ROWS),
    ("raw_plus_reward", CALL9, CALL_ROWS),
    ("raw_plus_reward", BARRIER53, BARRIER_ROWS),
    ("four_features", CALL9, CALL_ROWS),
    ("four_features", BARRIER53, BARRIER_ROWS),
])
def test_reward_column_holds_the_reward(mode, spec, states):
    states = np.array(states)
    column = features(mode, spec, 3, states)[:, REWARD_COLUMN[mode]]
    assert column.tobytes() == reward(spec, 3, states).tobytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        RewardSpec("put", 0.05, -1.0, 1.0, 50)
    with pytest.raises(ValueError):
        RewardSpec("max_call_barrier", 0.05, 100.0, 1.0, 50)  # no barrier
    with pytest.raises(ValueError):
        RewardSpec("put", 0.05, 100.0, 1.0, 50, barrier=170.0)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(1.0, 300.0), n=st.integers(0, 50))
def test_put_reward_nonnegative_and_zero_otm(x, n):
    val = reward(PUT50, n, one([x]))[0]
    assert val >= 0.0
    if x >= 100.0:
        assert val == 0.0
    else:
        assert val > 0.0


@settings(max_examples=100, deadline=None)
@given(x=st.floats(1.0, 99.0), n=st.integers(0, 49))
def test_put_discount_strictly_decreasing_in_the_money(x, n):
    assert reward(PUT50, n, one([x]))[0] > reward(PUT50, n + 1, one([x]))[0]


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(1.0, 300.0), min_size=2, max_size=6))
def test_feature_gap_invariants(xs):
    out = features("four_features", CALL9, 2, one(xs))[0]
    assert out[1] >= out[2]
    assert out[3] >= 0.0
    assert out[1] == max(xs)


@st.composite
def max_call_states(draw):
    """A max-call or knock-out spec, a step and a (K, dim) state matrix with
    D = 2..9 assets drawn from few values (ties), +-0.0 included."""
    spec = draw(st.sampled_from([CALL9, BARRIER53]))
    dim, rows = draw(st.integers(2, 9)), draw(st.integers(1, 12))
    value = st.sampled_from([0.0, -0.0, 90.0, 100.0, 120.0]) | st.floats(1.0, 300.0)
    states = np.array(draw(st.lists(st.lists(value, min_size=dim, max_size=dim),
                                    min_size=rows, max_size=rows)))
    if spec is BARRIER53:
        indicator = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=rows, max_size=rows))
        states = np.column_stack([states, indicator])
    return spec, draw(st.integers(0, spec.steps)), states


@settings(max_examples=300, deadline=None)
@given(max_call_states())
def test_column_passes_match_partition_and_max(case):
    # byte-equal on positive assets (every GBM state); a +-0.0 may come out with
    # the other sign, so there the values are compared
    spec, n, states = case
    got = (features("four_features", spec, n, states), reward(spec, n, states))
    want = (reference_four_features(spec, n, states), reference_reward(spec, n, states))
    assets = states[:, :-1] if spec is BARRIER53 else states
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
        if np.all(assets > 0):
            assert g.tobytes() == w.tobytes()
