"""Command-line front end.

Subcommands:

  simulate   write the debug CSV dump of one ensemble
  train      fit the bagged stopper, write the stopper dump
  evaluate   load a stopper dump, value it on fresh ensembles
  boundary   stopping-boundary scatter + summary for the 1-D put
  benchmark  iterate a published benchmark grid, report deltas
  oracle     exact discrete-instance cross-check (induction vs enumeration)

All outputs are CSV with documented headers; floats print with %.12g.  Every
output embeds the resolved config hash and the seeds, so reruns with the same
config are byte-identical (benchmark wall-time columns excepted).
v_train.csv, the cache of a fit's v_train, embeds them for the config with
the fields v_train does not read reset (k_test, seed_test, with_ls,
with_boundary, reference and out), so an evaluate of the same fit reuses it
whatever its test side or output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from treestop import references
from treestop.config import ConfigError, ExperimentConfig, load_config
from treestop.ensemble import TRAIN_LABEL, TEST_LABEL, dump_csv, generate_gbm
from treestop.reward import MAX_CALL_BARRIER, PUT
from treestop.stopper import (BaggedStopper, StopResult, apply, check_compat, feature_block,
                              train)
from treestop.valuation import (
    LS_TEST,
    V_TEST,
    V_TRAIN,
    VMAX,
    ValuationReport,
    extract_boundary,
    ls_fit,
    ls_forward,
    ls_value,
    make_markov_instance,
    oracle_bruteforce,
    oracle_enumerate,
    stopped_values,
    v_max,
    v_train,
    value_of_rule,
)

V_TRAIN_CSV = "v_train.csv"
_V_TRAIN_HEADER = "kind,value,se,ensemble_seed,stopper_hash"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _provenance(cfg: ExperimentConfig) -> str:
    return (f"# config_hash={cfg.config_hash()} seed_train={cfg.seed_train} "
            f"seed_test={cfg.seed_test} seed_bagging={cfg.seed_bagging}")


def _write_csv(path, cfg: ExperimentConfig, header: str, rows) -> None:
    """Write ``cfg``'s provenance line, ``header``, then one comma-joined line per row."""
    with open(path, "w") as fh:
        fh.write(_provenance(cfg) + "\n")
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _v_train_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` with every field ``v_train`` does not depend on reset: the key of v_train.csv.

    What is left fixes the training ensemble and the fit; the stopper hash in
    the row covers the stopper itself.
    """
    return replace(cfg, k_test=0, seed_test=0, with_ls=False, with_boundary=False,
                   reference=0.0, out="")


def _cached_v_train(path, cfg: ExperimentConfig, stopper_hash: str) -> ValuationReport | None:
    """The v_train report ``path`` caches for this config and stopper, or None.

    The file is a cache, not an input: a missing, unreadable or malformed file,
    or one written for another training config (provenance line of
    ``_v_train_config``) or another stopper (hash), gives None, and the caller
    values the training ensemble itself.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        if len(lines) != 3 or lines[:2] != [_provenance(_v_train_config(cfg)), _V_TRAIN_HEADER]:
            return None
        kind, value, se, seed, cached_hash = lines[2].split(",")
        if (kind, seed, cached_hash) != (V_TRAIN, str(cfg.seed_train), stopper_hash):
            return None
        return ValuationReport(V_TRAIN, float(value), float(se), cfg.seed_train, stopper_hash)
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        return None


def _write_boundary_csv(cfg: ExperimentConfig, scatter) -> None:
    columns = {"n": scatter.steps, "x": map(_fmt, scatter.values), "path_id": scatter.path_ids}
    if scatter.residuals is not None:
        columns["residual"] = map(_fmt, scatter.residuals)
    _write_csv(os.path.join(cfg.out, "boundary.csv"), cfg, ",".join(columns),
               zip(*columns.values()))
    _write_csv(os.path.join(cfg.out, "boundary_summary.csv"), cfg, "n,mean,count",
               ((n, "" if np.isnan(mean) else _fmt(mean), count)
                for n, (mean, count) in enumerate(zip(scatter.mean_by_step, scatter.counts))))


def _write_stop_region_csv(cfg: ExperimentConfig, stopper: BaggedStopper) -> None:
    """Write each step's vote table: one row per interval lo < x <= hi.

    A row's ``votes`` counts the bags voting STOP there, so the rule stops at
    step n on the rows with ``votes * 2 >= bags``.  Written only when every
    step's trees read one feature (``BaggedStopper.interval_table``).
    """
    tables = [stopper.interval_table(n) for n in range(cfg.steps)]
    if any(table is None for table in tables):
        return
    rows = []
    for n, table in enumerate(tables):
        edges = [-np.inf, *table.breaks.tolist(), np.inf]
        rows.extend((n, *row) for row in zip(edges, edges[1:], table.count.tolist()))
    _write_csv(os.path.join(cfg.out, "stop_region.csv"), cfg, "n,lo,hi,votes", rows)


def _load_theoretical(path, steps: int) -> np.ndarray:
    """Read a ``n,b(n)`` boundary CSV into levels for steps 0..N, NaN where absent.

    Blank lines, ``#`` comments and a header starting ``n,`` are skipped.  A
    ValueError names the file line that is malformed, has a negative or
    repeated step or a non-finite level, and reports a file with no data rows
    or no row for step N.
    """
    rows = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("n,"):
                continue
            fields = line.split(",")
            try:
                n, b = int(fields[0]), float(fields[1])
            except (IndexError, ValueError):
                raise ValueError(f"{path} line {lineno}: expected 'n,b(n)', got {line!r}") from None
            if n < 0 or n in rows:
                problem = "is negative" if n < 0 else "repeats an earlier line"
                raise ValueError(f"{path} line {lineno}: step {n} {problem}")
            if not math.isfinite(b):
                raise ValueError(f"{path} line {lineno}: b({n}) = {b!r} is not finite")
            rows[n] = b
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if max(rows) < steps:
        raise ValueError(f"{path}: last row is step {max(rows)}, the config needs steps 0..{steps}")
    out = np.full(max(rows) + 1, np.nan)
    for n, b in rows.items():
        out[n] = b
    return out


def _value_pass(chunks, num_paths: int, stopper: BaggedStopper,
                per_path: dict | None = None) -> tuple[StopResult, dict]:
    """Apply ``stopper`` to each chunk of a ``num_paths``-path ensemble as it comes.

    ``chunks`` is any ensemble in path order: a stream of chunks
    (``cfg.ensemble_chunks(label)``, which simulates the next chunk on a
    worker thread while this one is valued, so the pass holds two chunks of
    half ``CHUNK_BYTES``), or ``[paths]`` for an ensemble already held whole.
    Each chunk is applied to, then ``per_path[name](chunk, chunk_result)``
    gives that chunk's rows of the per-path vector ``name``.  Those vectors
    and the stop result's are allocated at length ``num_paths`` before the
    first chunk, so an impossible count fails at once, and are filled at the
    chunk's offset; apply works row by row, so reductions over them give the
    bytes of a whole-ensemble run whatever the chunks.  Returns the whole
    ensemble's stop result and the filled per-path vectors by name.  This is
    the one place a run applies its stopper.
    """
    per_path = per_path or {}
    stop_step = np.empty(num_paths, dtype=np.int64)
    realized = np.empty(num_paths)
    best = np.empty(num_paths)
    filled = {name: np.empty(num_paths) for name in per_path}
    start = 0
    for chunk in chunks:
        rows = slice(start, start + chunk.num_paths)
        res = apply(stopper, chunk)
        stop_step[rows] = res.stop_step
        realized[rows] = res.realized
        best[rows] = res.best
        for name, of_chunk in per_path.items():
            filled[name][rows] = of_chunk(chunk, res)
        start = rows.stop
        del chunk  # free these paths before the chunk after next is allocated
    return replace(res, stop_step=stop_step, realized=realized, best=best), filled


def _run(cfg: ExperimentConfig, stopper_file: str | None = None, value: bool = True,
         boundary: bool = False, boundary_file: str | None = None) -> dict:
    """Simulate, fit (or load ``stopper_file``), apply and value one config.

    What a run writes depends only on the config and the stages it runs:
    fitting writes config_resolved.cfg and stopper.txt, and, unless the run
    only computes a boundary, v_train.csv: the all-bag rule's value on the
    training paths, which ``train`` returns with the stopper.  ``value``
    writes valuation.csv with v_train, v_test and v_max, plus ls_train and
    ls_test when cfg.with_ls.  ``boundary`` writes the test ensemble's
    boundary CSVs, with residuals against ``boundary_file`` when given, and
    stop_region.csv when the stopper's trees read one feature.

    The config, the path counts of the ensembles the run simulates, the
    feature mode, the cfg.with_ls scope and a loaded stopper's bags, feature
    mode and tree width are checked before any ensemble is simulated.  Then
    the stages run in one order: the fit, the cfg.with_ls regression, the
    v_train of a loaded stopper, the test pass.  The training ensemble is
    held whole for the regression and for a fit whose features are at least
    as wide as the states (raw, raw_plus_reward, and four_features at few
    assets); a fit on narrower features streams it in path chunks into a
    feature block (``stopper.feature_block``).  A loaded stopper's v_train
    comes from the v_train.csv next to ``stopper_file`` when its provenance
    line is that of ``_v_train_config(cfg)`` and its stopper hash the
    stopper's; otherwise ``_value_pass`` values the training ensemble, the
    held one or a stream of it, with the same bytes.  The test ensemble is
    always streamed through ``_value_pass``.  Returns the reports by kind.
    """
    fit = stopper_file is None
    with_ls = value and cfg.with_ls
    theoretical = _load_theoretical(boundary_file, cfg.steps) if boundary_file else None
    reward_spec = cfg.reward_spec()
    if fit:
        train_config = cfg.train_config()
    else:
        with open(stopper_file) as fh:
            stopper = BaggedStopper.parse(fh.read(), reward_spec)
        # the provenance line names the config, so it must be the one that trained the stopper
        for name in ("bags", "feature_mode"):
            if getattr(stopper, name) != getattr(cfg, name):
                raise ConfigError(f"{stopper_file} was trained with {name}="
                                  f"{getattr(stopper, name)}, the config has {name}="
                                  f"{getattr(cfg, name)}")
    # the fewest paths each ensemble needs; 0 where no stage of this run simulates it
    fewest = {"k_train": cfg.bags if fit else int(value), "k_test": int(value or boundary)}
    for name, least in fewest.items():
        if getattr(cfg, name) < least:
            raise ConfigError(f"field {name}: this run needs at least {least} paths, "
                              f"got {getattr(cfg, name)}")
    # a one-path ensemble of the same spec meets every check the full ones would
    probe = generate_gbm(cfg.gbm_spec(), 1, cfg.seed_train, TRAIN_LABEL, reward_spec.barrier)
    width = check_compat(probe, reward_spec, cfg.feature_mode)
    if not fit and stopper.trees[0][0].n_features != width:
        raise ConfigError(f"{stopper_file} has trees with features="
                          f"{stopper.trees[0][0].n_features}, the config's {cfg.feature_mode} "
                          f"features have width {width}")
    if boundary and probe.dim != 1:
        raise ConfigError("boundary extraction needs one-dimensional paths")
    if with_ls:
        ls_fit(probe, reward_spec)  # raises outside the baseline's scope
    os.makedirs(cfg.out, exist_ok=True)
    if fit:
        with open(os.path.join(cfg.out, "config_resolved.cfg"), "w") as fh:
            fh.write(cfg.serialize())
    if value and not fit:  # the v_train its fit cached next to the stopper, if it matches
        stopper_hash = stopper.content_hash()
        rep_train = _cached_v_train(os.path.join(os.path.dirname(stopper_file), V_TRAIN_CSV),
                                    cfg, stopper_hash)
    # a block of features at least as wide as the states would take more memory
    # than the ensemble; the regression's 1-D put is always held
    held = (fit or with_ls) and width >= probe.data.shape[2]
    paths_train = cfg.make_ensemble(TRAIN_LABEL) if held else None
    if fit:
        # a feature block is a temporary, dropped once train returns
        stopper, realized = train(paths_train if held else
                                  feature_block(cfg.ensemble_chunks(TRAIN_LABEL), cfg.k_train,
                                                width, reward_spec, cfg.feature_mode),
                                  reward_spec, train_config)
        with open(os.path.join(cfg.out, "stopper.txt"), "w") as fh:
            fh.write(_provenance(cfg) + "\n")
            fh.write(stopper.serialize())
        if value or not boundary:  # a boundary-only run values nothing
            stopper_hash = stopper.content_hash()
            rep_train = v_train(realized, cfg.seed_train, stopper_hash)
            _write_csv(os.path.join(cfg.out, V_TRAIN_CSV), _v_train_config(cfg), _V_TRAIN_HEADER,
                       [(V_TRAIN, rep_train.value, rep_train.se, cfg.seed_train, stopper_hash)])
    if with_ls:
        ls_rule = ls_fit(paths_train, reward_spec)
    if value and rep_train is None:  # a loaded stopper without a matching v_train.csv
        rep_train = value_of_rule(_value_pass([paths_train] if held else
                                              cfg.ensemble_chunks(TRAIN_LABEL), cfg.k_train,
                                              stopper)[0], stopper_hash)
    del paths_train
    if not (value or boundary):
        return {}

    per_path = {}
    if with_ls:
        per_path[LS_TEST] = lambda chunk, _: ls_forward(ls_rule, chunk, reward_spec)
    if boundary:
        per_path["stopped"] = lambda chunk, res: stopped_values(res, chunk)
    res_test, filled = _value_pass(cfg.ensemble_chunks(TEST_LABEL), cfg.k_test, stopper, per_path)
    if boundary:
        _write_boundary_csv(cfg, extract_boundary(res_test, filled["stopped"], theoretical))
        _write_stop_region_csv(cfg, stopper)
    if not value:
        return {}
    reports = [rep_train, value_of_rule(res_test, stopper_hash),
               v_max(res_test.best, res_test.ensemble_seed),
               *(ls_value(ls_rule, filled[LS_TEST], res_test.ensemble_seed) if with_ls else ())]
    _write_csv(os.path.join(cfg.out, "valuation.csv"), cfg,
               "kind,value,se,ensemble_seed,stopper_hash,reference_delta",
               [(rep.kind, _fmt(rep.value), _fmt(rep.se),
                 "" if rep.ensemble_seed is None else rep.ensemble_seed, rep.stopper_hash or "",
                 _fmt(rep.value - cfg.reference) if cfg.reference and rep.kind == V_TEST else "")
                for rep in reports])
    return {rep.kind: rep for rep in reports}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Simulate, fit, evaluate, and write all artifacts for one config.

    Returns the in-memory reports keyed by kind, for callers that want them.
    """
    return _run(cfg, boundary=cfg.with_boundary)


# ---------------------------------------------------------------------------
# Benchmark suites
# ---------------------------------------------------------------------------

PUT_SUITE = "put"
SYM_SUITE = "maxcall_sym"
ASYM_SUITE = "maxcall_asym"
BARRIER_SUITE = "barrier"
SUITES = (PUT_SUITE, SYM_SUITE, ASYM_SUITE, BARRIER_SUITE)


def benchmark_grid(suite: str) -> list[ExperimentConfig]:
    """Row configs of one suite at scale 1 (published-study sizes)."""
    rows = []
    if suite == PUT_SUITE:
        for (sigma, x0, T, N), _ in references.AMERICAN_PUT.items():
            rows.append(ExperimentConfig(
                kind=PUT, dim=1, x0=float(x0), mu=0.05, rate=0.05, strike=100.0,
                sigma=sigma, maturity=float(T), steps=N,
                k_train=200000, k_test=200000, with_ls=True,
                reference=references.AMERICAN_PUT[(sigma, x0, T, N)][2]))
    elif suite in (SYM_SUITE, ASYM_SUITE):
        table = references.MAXCALL_SYM_4F if suite == SYM_SUITE else references.MAXCALL_ASYM_4F
        vol_mode = "symmetric" if suite == SYM_SUITE else "asymmetric"
        for (D, x0), (_, nn) in table.items():
            rows.append(ExperimentConfig(
                kind="max_call", dim=D, x0=float(x0), mu=-0.05, rate=0.05,
                strike=100.0, sigma=0.2, vol_mode=vol_mode, maturity=3.0, steps=9,
                k_train=100000, k_test=4096000, feature_mode="four_features",
                reference=nn))
    elif suite == BARRIER_SUITE:
        for (D, x0), (tree, _, _) in references.BARRIER_MAXCALL.items():
            rows.append(ExperimentConfig(
                kind=MAX_CALL_BARRIER, dim=D, x0=float(x0), mu=0.05, rate=0.05,
                strike=100.0, sigma=0.2, maturity=3.0, steps=53, barrier=170.0,
                k_train=100000, k_test=100000, feature_mode="four_features",
                reference=tree))
    else:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")
    return rows


def run_benchmark(suite: str, scale: float, out_path: str) -> None:
    """Run one suite with path counts scaled by ``scale``; write the table CSV.

    Row i is a ``run_experiment`` run with out = ``<out_path>.runs/<i>``.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigError(f"scale must be a positive finite number, got {scale!r}")
    rows = benchmark_grid(suite)
    with open(out_path, "w") as fh:
        fh.write(f"# suite={suite} scale={_fmt(scale)}\n")
        fh.write("dim,x0,sigma,maturity,steps,k_train,k_test,"
                 "v_train,v_test,se,reference,delta,v_max,ls_test,seconds\n")
        for i, cfg in enumerate(rows):
            cfg = replace(cfg,
                          k_train=max(cfg.bags, int(cfg.k_train * scale)),
                          k_test=max(2, int(cfg.k_test * scale)),
                          out=os.path.join(f"{out_path}.runs", str(i)))
            started = time.perf_counter()
            reports = run_experiment(cfg)
            elapsed = time.perf_counter() - started
            rep_test = reports["v_test"]
            fh.write(",".join([
                str(cfg.dim), _fmt(cfg.x0), _fmt(cfg.sigma), _fmt(cfg.maturity),
                str(cfg.steps), str(cfg.k_train), str(cfg.k_test),
                _fmt(reports["v_train"].value), _fmt(rep_test.value), _fmt(rep_test.se),
                _fmt(cfg.reference), _fmt(rep_test.value - cfg.reference),
                _fmt(reports[VMAX].value), _fmt(reports[LS_TEST].value) if cfg.with_ls else "",
                f"{elapsed:.1f}",
            ]) + "\n")
            fh.flush()


def run_oracle(seed: int, instances: int, out_path: str) -> None:
    """Cross-check the two exact oracles on random Markov instances."""
    from treestop.reward import RewardSpec

    with open(out_path, "w") as fh:
        fh.write("instance_seed,steps,induction,enumeration,equal\n")
        rng = np.random.Generator(np.random.Philox(seed))
        for i in range(instances):
            inst_seed = int(rng.integers(0, 2**63 - 1))
            n_steps = int(rng.integers(2, 5))
            paths = make_markov_instance(inst_seed, num_steps=n_steps)
            spec = RewardSpec(PUT, 0.0, 220.0, 1.0, paths.num_steps)
            dp = oracle_enumerate(paths, spec)
            bf = oracle_bruteforce(paths, spec)
            fh.write(f"{inst_seed},{n_steps},{_fmt(dp.value)},{_fmt(bf.value)},"
                     f"{dp.value == bf.value}\n")


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config field (repeatable)")
    p.add_argument("--out", default=None, help="output directory")


def _resolve(args) -> ExperimentConfig:
    cfg = load_config(args.config, args.set)
    return cfg if args.out is None else replace(cfg, out=args.out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="treestop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="dump one ensemble as CSV")
    _add_config_args(p_sim)
    p_sim.add_argument("--which", choices=[TRAIN_LABEL, TEST_LABEL], default=TRAIN_LABEL)

    p_train = sub.add_parser("train", help="fit and dump the stopper")
    _add_config_args(p_train)

    p_eval = sub.add_parser("evaluate", help="value a stopper dump on fresh ensembles")
    _add_config_args(p_eval)
    p_eval.add_argument("--stopper", required=True, help="stopper dump path")

    p_bound = sub.add_parser("boundary", help="stopping-boundary CSVs for the 1-D put")
    _add_config_args(p_bound)
    p_bound.add_argument("--stopper", default=None, help="reuse an existing stopper dump")
    p_bound.add_argument("--theoretical", default=None,
                         help="CSV n,b(n) with an externally computed boundary")

    p_bench = sub.add_parser("benchmark", help="run a published benchmark grid")
    p_bench.add_argument("suite", choices=SUITES)
    p_bench.add_argument("--scale", type=float, default=1.0)
    p_bench.add_argument("--out", default="benchmark.csv")

    p_oracle = sub.add_parser("oracle", help="discrete-instance oracle cross-check")
    p_oracle.add_argument("--seed", type=int, default=7)
    p_oracle.add_argument("--instances", type=int, default=20)
    p_oracle.add_argument("--out", default="oracle.csv")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "simulate":
        cfg = _resolve(args)
        os.makedirs(cfg.out, exist_ok=True)
        paths = cfg.make_ensemble(args.which)
        dump_csv(paths, os.path.join(cfg.out, f"ensemble_{args.which}.csv"))
    elif args.command == "train":
        _run(_resolve(args), value=False)
    elif args.command == "evaluate":
        cfg = _resolve(args)
        _run(cfg, args.stopper, boundary=cfg.with_boundary)
    elif args.command == "boundary":
        _run(_resolve(args), args.stopper, value=False, boundary=True,
             boundary_file=args.theoretical)
    elif args.command == "benchmark":
        run_benchmark(args.suite, args.scale, args.out)
    elif args.command == "oracle":
        run_oracle(args.seed, args.instances, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
