"""Pinned output bytes of two small training runs.

A change that alters what training produces changes the stopper's content
hash or the test-ensemble value, so it fails here rather than only in the
full-size benchmark.  The pins hold for numpy 2.x; other major versions may
draw different normals, so the test skips there.
"""

import numpy as np
import pytest

from treestop.config import ExperimentConfig
from treestop.ensemble import TEST_LABEL, TRAIN_LABEL
from treestop.stopper import apply, train
from treestop.valuation import value_of_rule

pytestmark = pytest.mark.skipif(not np.__version__.startswith("2."),
                                reason="fingerprints are pinned for numpy 2.x")

CASES = {
    "put_raw": (
        ExperimentConfig(kind="put", x0=100.0, sigma=0.2, steps=12, k_train=4000,
                         k_test=4000, bags=4, feature_mode="raw"),
        "51d4901b28cc", 5.85727046528785,
    ),
    "barrier_four_features": (
        ExperimentConfig(kind="max_call_barrier", dim=3, x0=100.0, mu=0.05, maturity=3.0,
                         steps=9, barrier=170.0, k_train=3000, k_test=3000, bags=4,
                         feature_mode="four_features"),
        "0afd8b482f03", 34.85964222278822,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_stopper_hash_and_v_test(name):
    cfg, stopper_hash, v_test = CASES[name]
    stopper, _ = train(cfg.make_ensemble(TRAIN_LABEL), cfg.reward_spec(), cfg.train_config())
    assert stopper.content_hash() == stopper_hash
    report = value_of_rule(apply(stopper, cfg.make_ensemble(TEST_LABEL)))
    assert report.value == v_test
