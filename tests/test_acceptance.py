"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the heavy benchmark runs share session-scoped fixtures.
"""

import numpy as np
import pytest

from treestop.cart import DELTA, GrowConfig, Leaf, Split, grow, removal
from treestop.cli import run_experiment
from treestop.config import ExperimentConfig
from treestop.ensemble import GbmSpec, generate_gbm
from treestop.reward import RewardSpec
from treestop.stopper import TrainConfig, apply, train
from treestop.valuation import (
    extract_boundary,
    ls_fit,
    ls_forward,
    ls_value,
    make_markov_instance,
    max_rewards,
    oracle_bruteforce,
    oracle_enumerate,
    stopped_values,
    v_max,
    value_of_rule,
)

from oracles import brute_force_split, european_value, grown_root

# pairs (v_test, v_max) on the same test ensemble, collected by the heavy
# runs and checked wholesale by the dominance criterion
DOMINANCE_PAIRS = []


def _passed(num, name):
    print(f"criterion {num} ({name}): PASS")


def _run(gbm, reward_spec, k_train, k_test, feature_mode, seeds=(1001, 2002, 3003)):
    tr = generate_gbm(gbm, k_train, seeds[0], "training", reward_spec.barrier)
    te = generate_gbm(gbm, k_test, seeds[1], "test", reward_spec.barrier)
    cfg = TrainConfig(10, GrowConfig(10, 10, "delta"), feature_mode, seeds[2])
    stopper = train(tr, reward_spec, cfg)
    return tr, te, stopper


@pytest.fixture(scope="session")
def put_atm_run():
    gbm = GbmSpec.symmetric(1, 100.0, 0.05, 0.2, 1.0, 50)
    spec = RewardSpec("put", 0.05, 100.0, 1.0, 50)
    tr, te, stopper = _run(gbm, spec, 50000, 50000, "raw")
    res_te = apply(stopper, te)
    rep_te = value_of_rule(res_te)
    rule = ls_fit(tr, spec)
    rep_ls = ls_value(rule, ls_forward(rule, te, spec))
    DOMINANCE_PAIRS.append(("put_atm", rep_te.value, v_max(max_rewards(te, spec)).value))
    return rep_te, rep_ls


@pytest.fixture(scope="session")
def put_boundary_run():
    gbm = GbmSpec.symmetric(1, 85.0, 0.05, 0.2, 1.0, 50)
    spec = RewardSpec("put", 0.05, 100.0, 1.0, 50)
    tr, te, stopper = _run(gbm, spec, 50000, 50000, "raw")
    res_te = apply(stopper, te)
    v_upper = v_max(max_rewards(te, spec)).value
    DOMINANCE_PAIRS.append(("put_85", value_of_rule(res_te).value, v_upper))
    return extract_boundary(res_te, stopped_values(res_te, te))


def test_criterion_1_american_put(put_atm_run):
    rep_te, (rep_ls_tr, rep_ls_te) = put_atm_run
    assert abs(rep_te.value - 6.068) <= 0.15
    assert abs(rep_ls_te.value - 6.049) <= 0.15
    _passed(1, f"american put: v_test={rep_te.value:.3f}, ls_test={rep_ls_te.value:.3f}")


def test_criterion_2_zero_rate_put_matches_european():
    gbm = GbmSpec.symmetric(1, 100.0, 0.0, 0.2, 1.0, 50)
    spec = RewardSpec("put", 0.0, 100.0, 1.0, 50)
    tr, te, stopper = _run(gbm, spec, 50000, 50000, "raw", seeds=(11, 22, 33))
    rep = value_of_rule(apply(stopper, te))
    closed = european_value("put", 100.0, 100.0, 0.0, 0.0, 0.2, 1.0)
    DOMINANCE_PAIRS.append(("put_r0", rep.value, v_max(max_rewards(te, spec)).value))
    assert abs(rep.value - closed) <= 3 * rep.se + 0.05
    _passed(2, f"zero-rate put: v_test={rep.value:.3f} vs european {closed:.3f}")


def test_criterion_3_symmetric_max_call_four_features():
    gbm = GbmSpec.symmetric(5, 100.0, -0.05, 0.2, 3.0, 9)
    spec = RewardSpec("max_call", 0.05, 100.0, 3.0, 9)
    tr, te, stopper = _run(gbm, spec, 50000, 100000, "four_features", seeds=(11, 22, 33))
    rep = value_of_rule(apply(stopper, te))
    DOMINANCE_PAIRS.append(("maxcall_sym", rep.value, v_max(max_rewards(te, spec)).value))
    assert 25.3 <= rep.value <= 26.4  # published value 26.061, +-3%
    _passed(3, f"symmetric max-call D=5: v_test={rep.value:.3f}")


def test_criterion_4_barrier_max_call():
    gbm = GbmSpec.symmetric(4, 90.0, 0.05, 0.2, 3.0, 53)
    spec = RewardSpec("max_call_barrier", 0.05, 100.0, 3.0, 53, 170.0)
    tr, te, stopper = _run(gbm, spec, 20000, 50000, "four_features", seeds=(11, 22, 33))
    rep = value_of_rule(apply(stopper, te))
    DOMINANCE_PAIRS.append(("barrier", rep.value, v_max(max_rewards(te, spec)).value))
    assert abs(rep.value - 34.744) <= 0.03 * 34.744
    _passed(4, f"barrier max-call D=4: v_test={rep.value:.3f}")


def test_criterion_5_split_oracle_equivalence():
    rng = np.random.Generator(np.random.Philox(12345))
    checked = 0
    while checked < 1000:
        m = int(rng.integers(2, 21))
        d = int(rng.integers(1, 4))
        pts = np.round(rng.uniform(-4, 4, size=(m, d)), 1)
        dl = rng.normal(size=m)
        if not ((dl > 0).any() and (dl < 0).any()):
            continue
        samples = removal(pts, dl)
        got = grown_root(samples, DELTA)
        expected = brute_force_split(samples.points, samples.weight)
        if expected[0] == "leaf":
            assert got == Leaf(expected[1])
        else:
            assert got == Split(expected[2], expected[3])
        checked += 1
    # the published four-point pocket instance collapses to a CONTINUE leaf
    pocket = removal(np.array([[2.0, 6.0], [5.0, 5.0], [3.0, 3.0], [6.0, 2.0]]),
                     np.array([2.0, -0.5, -0.5, 2.0]))
    assert grown_root(pocket, DELTA) == Leaf(0)
    _passed(5, "split decisions match exhaustive enumeration on 1000 sets")


def test_criterion_6_prototype_optimality_identity():
    rng = np.random.Generator(np.random.Philox(999))
    for _ in range(200):
        m = int(rng.integers(1, 25))
        d = int(rng.integers(1, 4))
        pts = rng.uniform(-3, 3, size=(m, d))
        dl = rng.normal(size=m)
        samples = removal(pts, dl)
        tree = grow(samples, GrowConfig(max_depth=64, min_node_size=1,
                                        splitter="prototype"))
        preds = tree.predict(samples.points)
        assert np.sum(samples.weight * preds) == np.sum(np.minimum(samples.weight, 0.0))
    _passed(6, "prototype trees attain the training minimum on 200 sets")


def test_criterion_7_discrete_chain_oracle():
    rng = np.random.Generator(np.random.Philox(777))
    for _ in range(100):
        seed = int(rng.integers(0, 2**62))
        n_steps = int(rng.integers(2, 5))
        paths = make_markov_instance(seed, num_steps=n_steps, max_states=4)
        spec = RewardSpec("put", 0.0, 220.0, 1.0, n_steps)
        dp = oracle_enumerate(paths, spec)
        bf = oracle_bruteforce(paths, spec)
        assert dp.value == bf.value
        cfg = TrainConfig(2, GrowConfig(max_depth=8, min_node_size=1), "raw",
                          seed_bagging=seed % 997)
        trained = value_of_rule(apply(train(paths, spec, cfg), paths))
        assert trained.value <= dp.value + 1e-9
    _passed(7, "induction equals enumeration and dominates training on 100 chains")


def test_criterion_8_lower_bound_dominance(put_atm_run, put_boundary_run):
    assert len(DOMINANCE_PAIRS) >= 2
    for name, v_test, upper in DOMINANCE_PAIRS:
        assert v_test <= upper, name
    _passed(8, f"v_test <= v_max on {len(DOMINANCE_PAIRS)} benchmark runs")


def test_criterion_9_byte_identical_reruns(tmp_path):
    cfg = ExperimentConfig(kind="put", x0=95.0, sigma=0.3, steps=10,
                           k_train=2000, k_test=2000, bags=5, with_ls=True,
                           with_boundary=True, out=str(tmp_path / "run"))
    names = ("valuation.csv", "stopper.txt", "boundary.csv",
             "boundary_summary.csv", "config_resolved.cfg")
    run_experiment(cfg)
    first = {n: (tmp_path / "run" / n).read_bytes() for n in names}
    run_experiment(cfg)
    for n in names:
        assert (tmp_path / "run" / n).read_bytes() == first[n], n
    _passed(9, "rerun outputs byte-identical")


def test_criterion_10_boundary_shape(put_boundary_run):
    scatter = put_boundary_run
    b = scatter.mean_by_step
    emitted = b[1:50]
    assert np.nanmax(emitted) < 100.0
    early = np.nanmean(b[1:11])
    late = np.nanmean(b[40:50])
    assert late > early
    _passed(10, f"boundary below strike, rises {early:.2f} -> {late:.2f}")
