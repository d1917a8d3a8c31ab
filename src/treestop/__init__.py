"""Monte Carlo optimal stopping with bagged CART stopping rules.

Path ensembles are simulated once, a family of {0,1}-leaf decision trees is
fitted by backward recursion over the exercise dates, and the resulting
first-hit stopping rule is evaluated on held-out ensembles to produce lower
bounds on the optimal expected reward.
"""

from treestop.ensemble import GbmSpec, PathEnsemble, gbm_chunks, generate_gbm
from treestop.reward import RewardSpec, features, reward
from treestop.cart import CartTree, DeltaSamples, GrowConfig, grow, removal
from treestop.stopper import BaggedStopper, StopResult, TrainConfig, apply, first_hit, train
from treestop.valuation import (
    BoundaryScatter,
    ValuationReport,
    LsRule,
    extract_boundary,
    ls_fit,
    ls_forward,
    ls_value,
    oracle_bruteforce,
    oracle_enumerate,
    stopped_values,
    v_max,
    value_of_rule,
)

__all__ = [
    "GbmSpec",
    "PathEnsemble",
    "generate_gbm",
    "gbm_chunks",
    "RewardSpec",
    "reward",
    "features",
    "DeltaSamples",
    "CartTree",
    "GrowConfig",
    "removal",
    "grow",
    "TrainConfig",
    "BaggedStopper",
    "StopResult",
    "train",
    "first_hit",
    "apply",
    "ValuationReport",
    "BoundaryScatter",
    "value_of_rule",
    "v_max",
    "LsRule",
    "ls_fit",
    "ls_forward",
    "ls_value",
    "oracle_enumerate",
    "oracle_bruteforce",
    "stopped_values",
    "extract_boundary",
]

__version__ = "0.1.0"
