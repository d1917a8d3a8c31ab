"""Lower bounds, reference values, and stopping-boundary extraction.

``value_of_rule`` turns realized stopping results into ensemble-average lower
bounds with standard errors.  ``max_rewards`` gives each path's maximal
reward and ``v_max`` their mean, the anticipating upper reference.
``ls_fit`` fits a least-squares regression baseline for the one-dimensional
put, ``ls_forward`` replays it through ``stopper.first_hit`` and ``ls_value``
reports both values.  The per-path functions (``max_rewards``, ``ls_forward``,
``stopped_values``) work on any path chunk of an ensemble; every report is
taken over the assembled per-path vector, so a chunked run reports the same
bytes as a whole one.  ``oracle_enumerate`` and ``oracle_bruteforce`` solve
tiny discrete instances exactly, the former by backward induction in exact
rational arithmetic, the latter by enumerating every per-state {0,1}
assignment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from treestop.ensemble import PathEnsemble, TRAIN_LABEL
from treestop.reward import PUT, RewardSpec, reward
from treestop.stopper import StopResult, first_hit

V_TRAIN = "v_train"
V_TEST = "v_test"
LS_TRAIN = "ls_train"
LS_TEST = "ls_test"
VMAX = "v_max"
ORACLE = "oracle"


@dataclass(frozen=True)
class ValuationReport:
    """One scalar estimate with provenance.

    ``se`` is the standard error of the mean (sample std with ddof=1 over
    sqrt(K)); zero for deterministic quantities.
    """

    kind: str
    value: float
    se: float
    ensemble_seed: int | None = None
    stopper_hash: str | None = None


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(values))
    if values.size < 2:
        return m, 0.0
    return m, float(np.std(values, ddof=1) / math.sqrt(values.size))


def value_of_rule(result: StopResult, stopper_hash: str | None = None) -> ValuationReport:
    """Ensemble-average realized reward of ``result`` (a lower bound) under ``stopper_hash``."""
    if result.realized.size == 0:
        raise ValueError("empty stopping result")
    m, se = _mean_se(result.realized)
    kind = V_TRAIN if result.label == TRAIN_LABEL else V_TEST
    return ValuationReport(kind, m, se, result.ensemble_seed, stopper_hash)


def max_rewards(paths: PathEnsemble, spec: RewardSpec) -> np.ndarray:
    """Per-path maximal reward over steps 0..N: the perfect-foresight stop."""
    best = reward(spec, 0, paths.state_at(0))
    for n in range(1, paths.num_steps + 1):
        np.maximum(best, reward(spec, n, paths.state_at(n)), out=best)
    return best


def v_max(best: np.ndarray, seed: int | None = None) -> ValuationReport:
    """Anticipating upper reference: the mean of the per-path ``max_rewards``."""
    m, se = _mean_se(best)
    return ValuationReport(VMAX, m, se, seed)


# ---------------------------------------------------------------------------
# Least-squares regression baseline for the 1-D put
# ---------------------------------------------------------------------------

def _ls_basis(x: np.ndarray, strike: float) -> np.ndarray:
    z = x / strike
    return np.stack([np.ones_like(z), z, z * z, z * z * z], axis=1)


@dataclass(frozen=True)
class LsRule:
    """A fitted regression rule and its in-sample value.

    ``coefs[n]`` holds the continuation coefficients of step n; when
    ``stop_value`` is set, the rule stops every path at step 0 for that reward.
    """

    coefs: dict
    stop_value: float | None
    train: ValuationReport


def ls_fit(paths_train: PathEnsemble, spec: RewardSpec) -> LsRule:
    """Backward-regression baseline fitted on a training ensemble.

    At each step the discounted payoff collected under the current rule is
    regressed on {1, x/C, (x/C)^2, (x/C)^3} over in-the-money paths; exercise
    happens when the immediate payoff is at least the fitted continuation.
    """
    if spec.kind != PUT or paths_train.dim != 1:
        raise ValueError("regression baseline is scoped to the one-dimensional put")
    if paths_train.num_steps != spec.steps:
        raise ValueError("ensemble and reward spec disagree on the step count")
    N = spec.steps
    cash = reward(spec, N, paths_train.state_at(N))
    coefs: dict[int, np.ndarray] = {}
    for n in range(N - 1, 0, -1):
        immediate = reward(spec, n, paths_train.state_at(n))
        itm = immediate > 0
        if not itm.any():
            continue
        basis = _ls_basis(paths_train.state_at(n)[itm, 0], spec.strike)
        beta, *_ = np.linalg.lstsq(basis, cash[itm], rcond=None)
        coefs[n] = beta
        fitted = basis @ beta
        exercise = immediate[itm] >= fitted
        rows = np.flatnonzero(itm)[exercise]
        cash[rows] = immediate[rows]
    continuation0 = float(np.mean(cash))
    u0 = float(reward(spec, 0, paths_train.state_at(0)[:1])[0])
    stop_value = u0 if u0 >= continuation0 else None
    train_values = cash if stop_value is None else np.full(paths_train.num_paths, u0)
    m, se = _mean_se(train_values)
    return LsRule(coefs, stop_value, ValuationReport(LS_TRAIN, m, se, paths_train.seed))


def ls_forward(rule: LsRule, paths: PathEnsemble, spec: RewardSpec) -> np.ndarray:
    """Per-path payoff of the fitted rule replayed first-hit on ``paths``.

    With ``stop_value`` set every path stops at step 0.  Otherwise, at a step
    with coefficients, a running path stops when it is in the money and its
    immediate payoff is at least the fitted continuation; at every other step
    no path stops.
    """

    def fires(n, states):
        # with stop_value set every path stops at step 0, which has no coefficients
        fire = np.full(states.shape[0], rule.stop_value is not None)
        if n in rule.coefs:
            immediate = reward(spec, n, states)
            itm = np.flatnonzero(immediate > 0)
            fitted = _ls_basis(states[itm, 0], spec.strike) @ rule.coefs[n]
            fire[itm] = immediate[itm] >= fitted
        return fire

    return first_hit(paths, spec, fires)[1]


def ls_value(rule: LsRule, test_values: np.ndarray,
             test_seed: int | None = None) -> tuple[ValuationReport, ValuationReport]:
    """(in-sample, out-of-sample) regression values; ``test_values`` from ``ls_forward``."""
    m, se = _mean_se(test_values)
    return rule.train, ValuationReport(LS_TEST, m, se, test_seed)


# ---------------------------------------------------------------------------
# Exact oracles for tiny discrete instances
# ---------------------------------------------------------------------------

def _distinct_states(paths: PathEnsemble):
    """Per step: (distinct state rows, index of each path's state)."""
    out = []
    for n in range(paths.num_steps + 1):
        states = paths.state_at(n)
        uniq, inverse = np.unique(states, axis=0, return_inverse=True)
        out.append((uniq, inverse.ravel()))
    return out


def oracle_enumerate(paths: PathEnsemble, spec: RewardSpec,
                     max_states: int = 16) -> ValuationReport:
    """Exact optimum over per-step state rules, by backward induction.

    Conditional expectations are taken over paths sharing the same state
    (exact equality) and evaluated in rational arithmetic, so the returned
    value is exact up to the final float conversion.  Intended for tiny
    ensembles whose empirical law is Markov; raises when any step has more
    than ``max_states`` distinct states.
    """
    N, K = paths.num_steps, paths.num_paths
    groups = _distinct_states(paths)
    for n, (uniq, _) in enumerate(groups):
        if uniq.shape[0] > max_states:
            raise ValueError(f"step {n} has {uniq.shape[0]} distinct states (bound {max_states})")

    values = [Fraction(float(v)) for v in reward(spec, N, paths.state_at(N))]
    for n in range(N - 1, -1, -1):
        uniq, inverse = groups[n]
        u_n = reward(spec, n, paths.state_at(n))
        for s in range(uniq.shape[0]):
            rows = np.flatnonzero(inverse == s)
            cont = sum((values[k] for k in rows), Fraction(0)) / len(rows)
            immediate = Fraction(float(u_n[rows[0]]))
            if immediate >= cont:
                for k in rows:
                    values[k] = immediate
    exact = sum(values, Fraction(0)) / K
    return ValuationReport(ORACLE, float(exact), 0.0, paths.seed)


def oracle_bruteforce(paths: PathEnsemble, spec: RewardSpec,
                      max_rules: int = 1 << 20) -> ValuationReport:
    """Exact optimum by enumerating every {0,1} assignment per distinct state.

    Rule totals are accumulated with float64 sums, which is exact whenever
    the rewards are integers (the recommended way to build test instances).
    """
    N, K = paths.num_steps, paths.num_paths
    groups = _distinct_states(paths)
    sizes = [uniq.shape[0] for uniq, _ in groups[:N]]
    n_rules = 2 ** sum(sizes)
    if n_rules > max_rules:
        raise ValueError(f"{n_rules} rules exceed the enumeration bound {max_rules}")

    u = np.stack([reward(spec, n, paths.state_at(n)) for n in range(N + 1)], axis=1)
    state_idx = [groups[n][1] for n in range(N)]
    best = -np.inf
    # per step, all stop-mask variants indexed by assignment bits
    variants = []
    for n in range(N):
        a = np.arange(2 ** sizes[n], dtype=np.int64)
        variants.append(((a[:, None] >> state_idx[n][None, :]) & 1).astype(bool))
    for combo in itertools.product(*(range(2 ** s) for s in sizes)):
        v = u[:, N].copy()
        for n in range(N - 1, -1, -1):
            mask = variants[n][combo[n]]
            v[mask] = u[mask, n]
        total = float(np.sum(v))
        if total > best:
            best = total
    return ValuationReport(ORACLE, best / K, 0.0, paths.seed)


def make_markov_instance(seed: int, num_steps: int = 3, max_states: int = 3,
                         branching: int = 4) -> PathEnsemble:
    """Tiny ensemble whose empirical law is exactly Markov.

    Each state at step n carries ``branching`` equally likely successor slots
    among the next step's states; the ensemble enumerates every driver
    sequence once (K = branching**num_steps), so empirical conditional
    expectations coincide with the kernel for any conditioning on the past.
    State values are distinct small integers, which keeps put rewards at zero
    rate exactly representable.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    N = num_steps
    counts = [1] + [int(rng.integers(2, max_states + 1)) for _ in range(N)]
    values = [rng.choice(np.arange(10, 200), size=c, replace=False).astype(float)
              for c in counts]
    slots = []
    for n in range(N):
        slots.append(rng.integers(0, counts[n + 1], size=(counts[n], branching)))
    K = branching ** N
    state = np.zeros(K, dtype=np.int64)
    data = np.empty((N + 1, K, 1))
    data[0, :, 0] = values[0][0]
    drivers = np.array(list(itertools.product(range(branching), repeat=N)), dtype=np.int64)
    for n in range(N):
        state = slots[n][state, drivers[:, n]]
        data[n + 1, :, 0] = values[n + 1][state]
    return PathEnsemble(data, seed, TRAIN_LABEL)


# ---------------------------------------------------------------------------
# Stopping-boundary extraction for the 1-D put
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryScatter:
    """Scatter of pre-terminal stops plus per-step summaries.

    Rows cover stops at steps 1..N-1 only (the step-0 decision is a single
    shared point and terminal stops are excluded).  ``mean_by_step[n]`` is
    NaN where no path stopped.  ``residuals`` is present when a theoretical
    boundary was supplied and holds value - boundary(step) per row.
    """

    steps: np.ndarray
    values: np.ndarray
    path_ids: np.ndarray
    mean_by_step: np.ndarray
    counts: np.ndarray
    residuals: np.ndarray | None = None


def stopped_values(result: StopResult, paths: PathEnsemble) -> np.ndarray:
    """(K,) state of each path of a 1-D ensemble at its stop step."""
    if paths.dim != 1:
        raise ValueError("boundary extraction needs one-dimensional paths")
    return paths.data[result.stop_step, np.arange(paths.num_paths), 0]


def extract_boundary(result: StopResult, stopped: np.ndarray,
                     theoretical: np.ndarray | None = None) -> BoundaryScatter:
    """Collect (step, stopped value) pairs of a 1-D put stopping result.

    ``stopped`` holds each path's state at its stop step (``stopped_values``);
    per-step stop counts come from the assembled ``result.stop_step``.
    ``theoretical`` is an optional length-(N+1) array of boundary levels used
    to attach residuals to each scatter row.
    """
    N = result.num_steps
    mask = (result.stop_step >= 1) & (result.stop_step < N)
    ids = np.flatnonzero(mask)
    steps = result.stop_step[ids]
    values = stopped[ids]
    counts = np.bincount(result.stop_step, minlength=N + 1)
    mean_by_step = np.full(N + 1, np.nan)
    if ids.size:
        sums = np.bincount(steps, weights=values, minlength=N + 1)
        cnt = np.bincount(steps, minlength=N + 1)
        nz = cnt > 0
        mean_by_step[nz] = sums[nz] / cnt[nz]
    residuals = None
    if theoretical is not None:
        theoretical = np.asarray(theoretical, dtype=float)
        if theoretical.shape[0] < N + 1:
            raise ValueError("theoretical boundary must cover all steps")
        residuals = values - theoretical[steps]
    return BoundaryScatter(steps, values, ids, mean_by_step, counts, residuals)
