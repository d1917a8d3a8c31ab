import numpy as np
import pytest

from treestop import ensemble
from treestop.cart import GrowConfig
from treestop.config import ExperimentConfig
from treestop.ensemble import GbmSpec, PathEnsemble, generate_gbm
from treestop.reward import RewardSpec, reward
from treestop.stopper import BaggedStopper, StopResult, TrainConfig, apply, first_hit, train
from treestop.valuation import (
    extract_boundary,
    ls_fit,
    ls_forward,
    ls_value,
    make_markov_instance,
    oracle_bruteforce,
    oracle_enumerate,
    stopped_values,
    v_max,
    value_of_rule,
)

from oracles import (
    binomial_bermudan_put,
    constant_tree,
    european_report,
    european_value,
    reference_ls_forward,
    reference_max_rewards,
)

PUT4 = RewardSpec("put", 0.05, 100.0, 1.0, 4)


def constant_stopper(weight, bags, steps, spec):
    trees = [[constant_tree(weight, 1) for _ in range(steps)] for _ in range(bags)]
    return BaggedStopper(trees, "raw", spec)


# ---------------------------------------------------------------------------
# value_of_rule / v_max
# ---------------------------------------------------------------------------

def test_stop_at_zero_rule_has_constant_payoff_and_zero_se():
    spec = GbmSpec.symmetric(1, 90.0, 0.05, 0.3, 1.0, 4)
    paths = generate_gbm(spec, 50, seed=2, label="test")
    res = apply(constant_stopper(1, 2, 4, PUT4), paths)
    rep = value_of_rule(res)
    assert rep.kind == "v_test"
    assert rep.value == 10.0
    assert rep.se == 0.0


def test_value_kind_follows_label():
    spec = GbmSpec.symmetric(1, 90.0, 0.05, 0.3, 1.0, 4)
    paths = generate_gbm(spec, 50, seed=2, label="training")
    rep = value_of_rule(apply(constant_stopper(1, 2, 4, PUT4), paths))
    assert rep.kind == "v_train"


def path_maxima(paths, spec):
    """``first_hit``'s per-path maxima, replaying a rule that never fires."""
    return first_hit(paths, spec, lambda n, states: np.zeros(states.shape[0], dtype=bool))[2]


def test_v_max_dominates_any_rule():
    spec = GbmSpec.symmetric(1, 100.0, 0.05, 0.3, 1.0, 4)
    paths = generate_gbm(spec, 400, seed=5, label="test")
    upper = v_max(path_maxima(paths, PUT4))
    cfg = TrainConfig(4, GrowConfig(max_depth=3), "raw", 3)
    trained, _ = train(generate_gbm(spec, 400, seed=6), PUT4, cfg)
    res = apply(trained, paths)
    assert v_max(res.best) == upper  # the path maxima do not depend on the rule
    rep = value_of_rule(res)
    assert rep.value < upper.value  # non-anticipating rules lose a real margin
    for weight in (0, 1):
        rep_const = value_of_rule(apply(constant_stopper(weight, 2, 4, PUT4), paths))
        assert rep_const.value <= upper.value


def test_v_max_single_deterministic_path():
    spec = GbmSpec.symmetric(1, 105.0, -1.0, 0.0, 1.0, 20)
    paths = generate_gbm(spec, 1, seed=1)
    rspec = RewardSpec("put", 1.0, 100.0, 1.0, 20)
    rewards = [reward(rspec, n, paths.state_at(n)[:1])[0] for n in range(21)]
    assert v_max(path_maxima(paths, rspec)).value == pytest.approx(max(rewards), rel=1e-12)


def test_se_shrinks_with_root_k():
    spec = GbmSpec.symmetric(1, 100.0, 0.05, 0.2, 1.0, 4)
    small = v_max(path_maxima(generate_gbm(spec, 2000, seed=9), PUT4))
    large = v_max(path_maxima(generate_gbm(spec, 32000, seed=9), PUT4))
    assert large.se == pytest.approx(small.se / 4.0, rel=0.25)


# ---------------------------------------------------------------------------
# regression baseline
# ---------------------------------------------------------------------------

def ls_reports(tr, te, spec):
    rule = ls_fit(tr, spec)
    return ls_value(rule, ls_forward(rule, te, spec), te.seed)


def test_ls_deterministic_deep_itm_exercises_immediately():
    spec = GbmSpec.symmetric(1, 1.0, 0.05, 0.0, 1.0, 10)
    tr = generate_gbm(spec, 50, seed=1)
    te = generate_gbm(spec, 50, seed=2, label="test")
    rspec = RewardSpec("put", 0.05, 100.0, 1.0, 10)
    rep_tr, rep_te = ls_reports(tr, te, rspec)
    assert rep_tr.value == 99.0
    assert rep_te.value == 99.0


@pytest.mark.parametrize("extra", [
    dict(x0=85.0),
    dict(x0=100.0),
    dict(x0=110.0),
    dict(x0=50.0, sigma=0.0),
], ids=["itm", "atm", "otm", "zero_vol_deep_itm"])
def test_ls_forward_matches_reference_loop_chunk_by_chunk(monkeypatch, extra):
    # both sides feed the gemv the same in-the-money rows of the same chunk,
    # so the replayed payoffs agree byte for byte
    cfg = ExperimentConfig(steps=12, k_train=4000, k_test=1001, **extra)
    spec = cfg.reward_spec()
    rule = ls_fit(cfg.make_ensemble("training"), spec)
    assert (rule.stop_value is not None) == (cfg.sigma == 0.0)
    # chunks of 400 paths hold half of CHUNK_BYTES
    monkeypatch.setattr(ensemble, "CHUNK_BYTES", 2 * 400 * 8 * (cfg.steps + 1))
    chunks = list(cfg.ensemble_chunks("test"))
    assert [c.num_paths for c in chunks] == [400, 400, 201]
    for chunk in chunks:
        got = ls_forward(rule, chunk, spec)
        assert got.tobytes() == reference_ls_forward(rule, chunk, spec).tobytes()


def test_ls_close_to_binomial_oracle():
    rspec = RewardSpec("put", 0.05, 100.0, 1.0, 50)
    spec = GbmSpec.symmetric(1, 100.0, 0.05, 0.2, 1.0, 50)
    tr = generate_gbm(spec, 20000, seed=101)
    te = generate_gbm(spec, 20000, seed=202, label="test")
    rep_tr, rep_te = ls_reports(tr, te, rspec)
    lattice = binomial_bermudan_put(100.0, 100.0, 0.05, 0.05, 0.2, 1.0, 50)
    assert abs(rep_te.value - lattice) <= 3 * rep_te.se + 0.05


def test_ls_zero_rate_matches_european():
    # with no discounting and driftless paths early exercise is never
    # strictly optimal, so the regression value sits at the European price
    rspec = RewardSpec("put", 0.0, 100.0, 1.0, 50)
    spec = GbmSpec.symmetric(1, 100.0, 0.0, 0.2, 1.0, 50)
    tr = generate_gbm(spec, 20000, seed=31)
    te = generate_gbm(spec, 20000, seed=32, label="test")
    _, rep_te = ls_reports(tr, te, rspec)
    closed = european_value("put", 100.0, 100.0, 0.0, 0.0, 0.2, 1.0)
    assert abs(rep_te.value - closed) <= 3 * rep_te.se + 0.05


def test_ls_rejects_multidimensional():
    spec = GbmSpec.symmetric(2, 100.0, 0.05, 0.2, 3.0, 9)
    tr = generate_gbm(spec, 100, seed=1)
    te = generate_gbm(spec, 100, seed=2, label="test")
    with pytest.raises(ValueError):
        ls_reports(tr, te, RewardSpec("max_call", 0.05, 100.0, 3.0, 9))


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

def two_state_instance():
    # one decision: immediate 5 now versus terminal payoffs {0, 8}
    data = np.array([[[95.0], [95.0]], [[105.0], [92.0]]])
    return PathEnsemble(data, 0, "training")


def test_oracle_two_terminal_states():
    paths = two_state_instance()
    spec = RewardSpec("put", 0.0, 100.0, 1.0, 1)
    rep = oracle_enumerate(paths, spec)
    assert rep.value == 5.0
    assert oracle_bruteforce(paths, spec).value == 5.0


def test_oracle_deterministic_path_takes_max():
    spec = GbmSpec.symmetric(1, 105.0, -1.0, 0.0, 1.0, 4)
    paths = generate_gbm(spec, 1, seed=1)
    rspec = RewardSpec("put", 1.0, 100.0, 1.0, 4)
    rewards = [reward(rspec, n, paths.state_at(n)[:1])[0] for n in range(5)]
    assert oracle_enumerate(paths, rspec).value == pytest.approx(max(rewards), rel=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_oracle_induction_equals_enumeration(seed):
    paths = make_markov_instance(seed, num_steps=3)
    spec = RewardSpec("put", 0.0, 220.0, 1.0, 3)
    dp = oracle_enumerate(paths, spec)
    bf = oracle_bruteforce(paths, spec)
    assert dp.value == bf.value


def test_oracle_dominates_trained_stopper():
    paths = make_markov_instance(41, num_steps=3)
    spec = RewardSpec("put", 0.0, 220.0, 1.0, 3)
    cfg = TrainConfig(2, GrowConfig(max_depth=8, min_node_size=1), "raw", 5)
    res = apply(train(paths, spec, cfg)[0], paths)
    assert value_of_rule(res).value <= oracle_enumerate(paths, spec).value + 1e-9


def test_oracle_state_bound_enforced():
    spec = GbmSpec.symmetric(1, 100.0, 0.05, 0.2, 1.0, 3)
    paths = generate_gbm(spec, 64, seed=1)
    with pytest.raises(ValueError):
        oracle_enumerate(paths, RewardSpec("put", 0.05, 100.0, 1.0, 3), max_states=16)


# ---------------------------------------------------------------------------
# closed-form European values
# ---------------------------------------------------------------------------

def test_european_put_zero_rate_symmetry():
    # r = mu = 0, ATM: price is x0 * (2 * Phi(vol/2) - 1)
    from math import erf, sqrt

    vol = 0.2
    expected = 100.0 * (erf(vol / 2 / sqrt(2.0)))
    value = european_value("put", 100.0, 100.0, 0.0, 0.0, vol, 1.0)
    assert value == pytest.approx(expected, rel=1e-12)


def test_european_put_call_parity():
    put = european_value("put", 100.0, 95.0, 0.03, 0.01, 0.25, 2.0)
    call = european_value("call", 100.0, 95.0, 0.03, 0.01, 0.25, 2.0)
    fwd = 100.0 * np.exp(0.01 * 2.0)
    assert call - put == pytest.approx(np.exp(-0.03 * 2.0) * (fwd - 95.0), rel=1e-12)


def test_european_zero_vol_is_discounted_intrinsic():
    assert european_value("put", 90.0, 100.0, 0.0, 0.0, 0.0, 1.0) == 10.0


def test_european_report_wraps_closed_form():
    spec = RewardSpec("put", 0.05, 100.0, 1.0, 50)
    rep = european_report(100.0, spec, mu=0.05, sigma=0.2)
    assert rep.kind == "european_bs"
    assert rep.se == 0.0
    assert rep.value == european_value("put", 100.0, 100.0, 0.05, 0.05, 0.2, 1.0)


def test_european_monte_carlo_agreement():
    spec = GbmSpec.symmetric(1, 100.0, 0.02, 0.2, 1.0, 1)
    paths = generate_gbm(spec, 200000, seed=77)
    rspec = RewardSpec("put", 0.05, 100.0, 1.0, 1)
    terminal = reward(rspec, 1, paths.state_at(1))
    se = terminal.std(ddof=1) / np.sqrt(terminal.size)
    closed = european_value("put", 100.0, 100.0, 0.05, 0.02, 0.2, 1.0)
    assert abs(terminal.mean() - closed) < 3 * se


# ---------------------------------------------------------------------------
# boundary extraction
# ---------------------------------------------------------------------------

def make_result(stop_step, paths, spec):
    stop_step = np.asarray(stop_step)
    realized = np.array([
        reward(spec, n, paths.state_at(n)[k:k + 1])[0]
        for k, n in enumerate(stop_step)
    ])
    return StopResult(stop_step, realized, reference_max_rewards(spec, paths), paths.label,
                      paths.seed, paths.num_steps)


def test_boundary_empty_when_all_terminal():
    spec = GbmSpec.symmetric(1, 100.0, 0.05, 0.2, 1.0, 4)
    paths = generate_gbm(spec, 6, seed=1)
    res = make_result([4] * 6, paths, PUT4)
    sc = extract_boundary(res, stopped_values(res, paths))
    assert sc.values.size == 0
    assert np.all(sc.counts[:4] == 0)
    assert np.all(np.isnan(sc.mean_by_step[:4]))


def test_boundary_single_row():
    data = np.full((5, 3, 1), 100.0)
    data[3, 1, 0] = 80.0
    paths = PathEnsemble(data, 0, "test")
    res = make_result([4, 3, 4], paths, PUT4)
    sc = extract_boundary(res, stopped_values(res, paths))
    assert sc.values.tolist() == [80.0]
    assert sc.steps.tolist() == [3]
    assert sc.mean_by_step[3] == 80.0
    assert sc.counts[3] == 1


def test_boundary_excludes_step_zero_and_terminal():
    data = np.full((5, 4, 1), 90.0)
    paths = PathEnsemble(data, 0, "test")
    res = make_result([0, 1, 4, 2], paths, PUT4)
    sc = extract_boundary(res, stopped_values(res, paths))
    assert sorted(sc.steps.tolist()) == [1, 2]
    assert sc.counts.sum() == 4  # counts still cover every path


def test_boundary_residuals_against_external_curve():
    data = np.full((5, 2, 1), 90.0)
    data[2, 0, 0] = 84.0
    paths = PathEnsemble(data, 0, "test")
    res = make_result([2, 4], paths, PUT4)
    theoretical = np.array([86.0, 86.0, 86.5, 87.0, 100.0])
    sc = extract_boundary(res, stopped_values(res, paths), theoretical)
    assert sc.residuals is not None
    np.testing.assert_allclose(sc.residuals, [84.0 - 86.5])


def test_boundary_needs_one_dimension():
    spec = GbmSpec.symmetric(2, 100.0, 0.05, 0.2, 3.0, 9)
    paths = generate_gbm(spec, 10, seed=1)
    rspec = RewardSpec("max_call", 0.05, 100.0, 3.0, 9)
    res = make_result([9] * 10, paths, rspec)
    with pytest.raises(ValueError):
        extract_boundary(res, stopped_values(res, paths))
