import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestop.reward import RewardSpec, features, reward


PUT50 = RewardSpec("put", 0.05, 100.0, 1.0, 50)
CALL9 = RewardSpec("max_call", 0.05, 100.0, 3.0, 9)
BARRIER53 = RewardSpec("max_call_barrier", 0.05, 100.0, 3.0, 53, 170.0)


def test_put_at_step_zero_has_no_discount():
    assert reward(PUT50, 0, np.array([85.0])) == 15.0


def test_put_discount_uses_step_fraction():
    x = np.array([85.0])
    assert reward(PUT50, 10, x) == pytest.approx(np.exp(-0.05 * 10 / 50) * 15.0)


def test_max_call_takes_largest_coordinate():
    assert reward(CALL9, 0, np.array([110.0, 90.0])) == 10.0


def test_barrier_indicator_kills_payoff():
    x = np.array([150.0, 120.0, 0.0])
    assert reward(BARRIER53, 3, x) == 0.0
    x_alive = np.array([150.0, 120.0, 1.0])
    expected = np.exp(-0.05 * 3 * 3.0 / 54) * 50.0
    assert reward(BARRIER53, 3, x_alive) == pytest.approx(expected)


def test_barrier_discount_denominator_is_steps_plus_one():
    assert BARRIER53.discount_steps == 54
    assert PUT50.discount_steps == 50


def test_batch_matches_scalar():
    xs = np.array([[85.0], [100.0], [120.0]])
    batch = reward(PUT50, 7, xs)
    for row, expect in zip(xs, batch):
        assert reward(PUT50, 7, row) == expect


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        reward(PUT50, 0, np.array([100.0, 100.0]))


def test_four_features_ordering():
    out = features("four_features", CALL9, 0, np.array([3.0, 1.0, 2.0]))
    # (reward, largest, second largest, gap); strike makes reward 0 here
    np.testing.assert_allclose(out, [0.0, 3.0, 2.0, 1.0])


def test_four_features_tied_maximum():
    out = features("four_features", CALL9, 0, np.array([5.0, 5.0]))
    np.testing.assert_allclose(out, [0.0, 5.0, 5.0, 0.0])


def test_four_features_barrier_ignores_indicator():
    out = features("four_features", BARRIER53, 0, np.array([150.0, 120.0, 0.0]))
    assert out[1] == 150.0 and out[2] == 120.0 and out[3] == 30.0
    assert out[0] == 0.0  # knocked out


def test_raw_plus_reward_concatenates():
    out = features("raw_plus_reward", PUT50, 0, np.array([85.0]))
    np.testing.assert_allclose(out, [85.0, 15.0])


def test_feature_dims():
    states = np.full((3, 5), 90.0)
    assert features("raw", CALL9, 0, states).shape == (3, 5)
    assert features("raw_plus_reward", CALL9, 0, states).shape == (3, 6)
    assert features("four_features", CALL9, 0, states).shape == (3, 4)


def test_four_features_needs_two_assets():
    with pytest.raises(ValueError):
        features("four_features", PUT50, 0, np.array([85.0]))


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
    val = reward(PUT50, n, np.array([x]))
    assert val >= 0.0
    if x >= 100.0:
        assert val == 0.0
    else:
        assert val > 0.0


@settings(max_examples=100, deadline=None)
@given(x=st.floats(1.0, 99.0), n=st.integers(0, 49))
def test_put_discount_strictly_decreasing_in_the_money(x, n):
    assert reward(PUT50, n, np.array([x])) > reward(PUT50, n + 1, np.array([x]))


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(1.0, 300.0), min_size=2, max_size=6))
def test_feature_gap_invariants(xs):
    out = features("four_features", CALL9, 2, np.array(xs))
    assert out[1] >= out[2]
    assert out[3] >= 0.0
    assert out[1] == max(xs)
