import hashlib
import re
import shutil
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestop import cli, ensemble
from treestop.cli import benchmark_grid, main, run_experiment
from treestop.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_text,
)
from treestop.reward import reward
from treestop.stopper import BaggedStopper, train
from treestop.valuation import value_of_rule


SMALL = dict(kind="put", dim=1, x0=95.0, sigma=0.3, maturity=1.0, steps=6,
             k_train=400, k_test=400, bags=4, max_depth=4, min_node_size=5)


def small_config(out, **extra):
    return ExperimentConfig(**{**SMALL, **extra, "out": str(out)})


def record_chunks(monkeypatch):
    """Spy on ``ExperimentConfig.ensemble_chunks``: the returned list gets the
    (label, path count) of every chunk drawn from then on."""
    drawn = []
    chunks_of = ExperimentConfig.ensemble_chunks

    def recorded(self, label):
        for chunk in chunks_of(self, label):
            drawn.append((label, chunk.num_paths))
            yield chunk

    monkeypatch.setattr(ExperimentConfig, "ensemble_chunks", recorded)
    return drawn


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_round_trip_handcrafted():
    cfg = small_config("x", with_ls=True, reference=6.068)
    assert parse_config_text(cfg.serialize()) == cfg


config_values = st.fixed_dictionaries({
    "kind": st.sampled_from(["put", "max_call"]),
    "dim": st.integers(1, 6),
    "x0": st.floats(10.0, 200.0),
    "mu": st.floats(-0.5, 0.5),
    "rate": st.floats(0.0, 0.5),
    "sigma": st.floats(0.01, 0.8),
    "steps": st.integers(1, 60),
    "k_train": st.integers(10, 10**6),
    "seed_train": st.integers(0, 2**62),
    "with_ls": st.booleans(),
    "feature_mode": st.sampled_from(["raw", "raw_plus_reward", "four_features"]),
    "out": st.sampled_from(["out", "results/run one", "a_b"]),
})


@settings(max_examples=100, deadline=None)
@given(config_values)
def test_round_trip_is_identity(values):
    cfg = ExperimentConfig(**values)
    assert parse_config_text(cfg.serialize()) == cfg


def test_parse_reports_line_and_field():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("steps = 10\nnot a pair\n")
    with pytest.raises(ConfigError, match="steps"):
        parse_config_text("steps = soon")
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config_text("stepz = 10")


def test_cli_overrides_beat_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("x0 = 80\nsteps = 12\n")
    cfg = load_config(path, ["x0=85"])
    assert cfg.x0 == 85.0 and cfg.steps == 12


def test_comments_and_blanks_ignored():
    cfg = parse_config_text("# a comment\n\nx0 = 70  # trailing\n")
    assert cfg.x0 == 70.0


def test_explicit_vols_config():
    cfg = parse_config_text("dim = 3\nvol_mode = explicit\nvols = 0.1,0.2,0.3\n")
    np.testing.assert_allclose(cfg.gbm_spec().vols, [0.1, 0.2, 0.3])
    assert parse_config_text(cfg.serialize()) == cfg
    with pytest.raises(ConfigError, match="vols"):
        parse_config_text("vol_mode = explicit\nvols = abc\n").gbm_spec()


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_experiment_writes_all_artifacts(tmp_path):
    cfg = small_config(tmp_path / "run", with_ls=True, with_boundary=True)
    reports = run_experiment(cfg)
    for name in ("valuation.csv", "stopper.txt", "config_resolved.cfg",
                 "boundary.csv", "boundary_summary.csv"):
        assert (tmp_path / "run" / name).exists()
    assert {"v_train", "v_test", "v_max", "ls_train", "ls_test"} <= set(reports)
    text = (tmp_path / "run" / "valuation.csv").read_text()
    assert text.startswith(f"# config_hash={cfg.config_hash()}")
    assert "kind,value,se,ensemble_seed,stopper_hash,reference_delta" in text


def test_experiment_deterministic_output(tmp_path):
    cfg = small_config(tmp_path / "a", with_ls=True, with_boundary=True)
    names = ("valuation.csv", "stopper.txt", "boundary.csv", "boundary_summary.csv")
    run_experiment(cfg)
    first = {n: (tmp_path / "a" / n).read_bytes() for n in names}
    run_experiment(cfg)
    for n in names:
        assert (tmp_path / "a" / n).read_bytes() == first[n], n


def test_zero_vol_experiment_matches_backward_induction(tmp_path):
    from oracles import deterministic_best_stop

    cfg = small_config(tmp_path / "det", x0=105.0, mu=-1.0, rate=1.0, sigma=0.0,
                       steps=20, k_train=50, k_test=50)
    reports = run_experiment(cfg)
    paths = cfg.make_ensemble("test")
    spec = cfg.reward_spec()
    rewards = [reward(spec, n, paths.state_at(n)[:1])[0] for n in range(21)]
    _, value = deterministic_best_stop(rewards)
    assert reports["v_test"].value == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("extra", [
    dict(with_ls=True, with_boundary=True),
    dict(kind="max_call_barrier", dim=3, mu=0.05, maturity=3.0, steps=9, barrier=170.0,
         feature_mode="four_features"),
], ids=["put_ls_boundary", "barrier"])
def test_chunked_valuation_keeps_every_output_byte(tmp_path, monkeypatch, extra):
    cfg = small_config(tmp_path / "run", **extra)
    run_experiment(cfg)
    one_chunk = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    shutil.rmtree(tmp_path / "run")

    # 400 paths in chunks of 133: three full chunks and a 1-path last chunk
    # (a chunk holds half CHUNK_BYTES of path data)
    width = cfg.dim + (cfg.kind == "max_call_barrier")
    monkeypatch.setattr(ensemble, "CHUNK_BYTES", 2 * 133 * 8 * (cfg.steps + 1) * width)
    sizes = record_chunks(monkeypatch)
    run_experiment(cfg)
    # the fit values its own training paths, so only the test ensemble streams
    assert sizes == [("test", k) for k in (133, 133, 133, 1)]
    chunked = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    assert chunked.keys() == one_chunk.keys()
    for name in one_chunk:
        assert chunked[name] == one_chunk[name], name

    # without the fit's v_train.csv, evaluate values the training ensemble in
    # place when with_ls holds it and otherwise streams it in the same chunks,
    # and writes the same bytes
    (tmp_path / "run" / "v_train.csv").unlink()
    sizes.clear()
    assert main(["evaluate", "--config", str(tmp_path / "run" / "config_resolved.cfg"),
                 "--stopper", str(tmp_path / "run" / "stopper.txt")]) == 0
    labels = ("test",) if cfg.with_ls else ("training", "test")
    assert sizes == [(label, k) for label in labels for k in (133, 133, 133, 1)]
    for name in chunked.keys() - {"v_train.csv"}:
        assert (tmp_path / "run" / name).read_bytes() == one_chunk[name], name


TRAINING_KINDS = {
    "put": ["kind=put", "x0=95.0", "sigma=0.3"],
    "max_call": ["kind=max_call", "mu=-0.05", "maturity=3.0"],
    "max_call_barrier": ["kind=max_call_barrier", "maturity=3.0", "barrier=150.0"],
}
# four_features is narrower than these states (5 columns each), so the fit streams
STREAMED_FITS = [("max_call", 5, "four_features"), ("max_call_barrier", 4, "four_features")]
# these features are at least as wide as the states, so the fit holds the ensemble
HELD_FITS = [("put", 1, "raw"), ("put", 1, "raw_plus_reward"), ("max_call", 3, "raw"),
             ("max_call", 3, "raw_plus_reward"), ("max_call", 3, "four_features"),
             ("max_call_barrier", 3, "raw"), ("max_call_barrier", 3, "raw_plus_reward")]


FIT_CASES = [
    *[pytest.param(kind, dim, mode, chunk_paths, id=f"{kind}-d{dim}-{mode}-{name}")
      for kind, dim, mode in STREAMED_FITS
      for chunk_paths, name in [(1, "1_path"), (7, "7_paths"), (17, "ragged")]],
    *[pytest.param(kind, dim, mode, None, id=f"{kind}-d{dim}-{mode}-held")
      for kind, dim, mode in HELD_FITS],
]


def fit_settings(kind, dim, mode):
    # 49 paths in 3 bags: the bags drop one path
    return [*TRAINING_KINDS[kind], f"dim={dim}", f"feature_mode={mode}", "k_train=49",
            "steps=4", "bags=3", "max_depth=4", "min_node_size=3"]


def chunk_training_paths(monkeypatch, cfg, chunk_paths):
    if chunk_paths:
        width = cfg.dim + (cfg.kind == "max_call_barrier")
        monkeypatch.setattr(ensemble, "CHUNK_BYTES", 2 * chunk_paths * 8 * (cfg.steps + 1) * width)


@pytest.mark.parametrize("kind, dim, mode, chunk_paths", FIT_CASES)
def test_chunked_training_keeps_the_stopper_bytes(tmp_path, monkeypatch, kind, dim, mode,
                                                  chunk_paths):
    # a fit on features narrower than the states streams the 49 training paths
    # chunk by chunk into its feature block, any other fit holds the ensemble,
    # and both dump the stopper that train fits on the whole ensemble
    settings = fit_settings(kind, dim, mode)
    cfg = load_config(None, settings)
    whole, _ = train(cfg.make_ensemble("training"), cfg.reward_spec(), cfg.train_config())
    chunk_training_paths(monkeypatch, cfg, chunk_paths)
    sizes = record_chunks(monkeypatch)
    assert main(["train", *overrides(settings), "--out", str(tmp_path)]) == 0
    streamed = (tmp_path / "stopper.txt").read_text()
    assert streamed.partition("\n")[2] == whole.serialize()
    chunked = ([("training", min(chunk_paths, 49 - start)) for start in range(0, 49, chunk_paths)]
               if chunk_paths else [])
    assert sizes == chunked


@pytest.mark.parametrize("kind, dim, mode, chunk_paths", FIT_CASES)
def test_fit_values_its_training_paths_like_the_streamed_pass(tmp_path, monkeypatch, kind, dim,
                                                              mode, chunk_paths):
    # the v_train a fit caches from its own vote is the value and se of
    # streaming the training ensemble through apply, compared exactly
    settings = fit_settings(kind, dim, mode)
    cfg = load_config(None, [*settings, f"out={tmp_path}"])
    chunk_training_paths(monkeypatch, cfg, chunk_paths)
    assert main(["train", *overrides(settings), "--out", str(tmp_path)]) == 0
    stopper = BaggedStopper.parse((tmp_path / "stopper.txt").read_text(), cfg.reward_spec())
    # a one-feature step votes through its interval table, a wider one tree by tree
    assert (stopper.interval_table(0) is None) == (mode != "raw" or dim > 1)
    lines = (tmp_path / "v_train.csv").read_text().splitlines()
    assert lines[:2] == [cli._provenance(cli._v_train_config(cfg)).strip(),
                         "kind,value,se,ensemble_seed,stopper_hash"]
    kind_, value, se, seed, stopper_hash = lines[2].split(",")
    streamed = value_of_rule(cli._value_pass(cfg.ensemble_chunks("training"), cfg.k_train,
                                             stopper)[0])
    assert (kind_, seed, stopper_hash) == ("v_train", str(cfg.seed_train), stopper.content_hash())
    assert (float(value), float(se)) == (streamed.value, streamed.se)


def test_ls_unsupported_for_multidim(tmp_path):
    cfg = ExperimentConfig(kind="max_call", dim=2, mu=-0.05, maturity=3.0,
                           steps=5, k_train=200, k_test=200, bags=2,
                           with_ls=True, out=str(tmp_path / "x"))
    with pytest.raises(ValueError, match="one-dimensional put"):
        run_experiment(cfg)


def test_reference_delta_column(tmp_path):
    cfg = small_config(tmp_path / "ref", reference=5.0)
    reports = run_experiment(cfg)
    line = next(ln for ln in (tmp_path / "ref" / "valuation.csv").read_text().splitlines()
                if ln.startswith("v_test,"))
    delta = float(line.split(",")[-1])
    assert delta == pytest.approx(reports["v_test"].value - 5.0, abs=1e-9)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_simulate_subcommand(tmp_path):
    rc = main(["simulate", "--set", "k_train=5", "--set", "steps=3",
               "--out", str(tmp_path)])
    assert rc == 0
    dump = (tmp_path / "ensemble_training.csv").read_text().splitlines()
    assert dump[0].startswith("# K=5 N=3 D=1")


def test_train_then_evaluate_subcommands(tmp_path):
    common = ["--set", "k_train=300", "--set", "k_test=300", "--set", "steps=5",
              "--set", "bags=3", "--set", "x0=95", "--out", str(tmp_path)]
    assert main(["train", *common]) == 0
    assert main(["evaluate", "--stopper", str(tmp_path / "stopper.txt"), *common]) == 0
    text = (tmp_path / "valuation.csv").read_text()
    assert "v_test," in text and "v_max," in text


def test_train_then_evaluate_match_run_experiment(tmp_path):
    out = tmp_path / "run"
    common = ["--set", "k_train=300", "--set", "k_test=300", "--set", "steps=5",
              "--set", "bags=3", "--set", "x0=95", "--set", "with_ls=true",
              "--set", "with_boundary=true", "--out", str(out)]
    assert main(["train", *common]) == 0
    assert main(["evaluate", "--stopper", str(out / "stopper.txt"), *common]) == 0
    names = ("config_resolved.cfg", "stopper.txt", "valuation.csv", "boundary.csv",
             "boundary_summary.csv")
    from_cli = {n: (out / n).read_bytes() for n in names}
    run_experiment(parse_config_text((out / "config_resolved.cfg").read_text()))
    for n in names:
        assert (out / n).read_bytes() == from_cli[n], n


def rewrite(path, pattern, replacement):
    text, found = re.subn(pattern, replacement, path.read_text(), flags=re.M)
    assert found == 1
    path.write_text(text)


# ways a v_train.csv can fail to be the one this evaluate may reuse
V_TRAIN_EDITS = {
    "missing": lambda path: path.unlink(),
    "unreadable": lambda path: (path.unlink(), path.mkdir()),
    "not_utf8": lambda path: path.write_bytes(b"\xff" + path.read_bytes()),
    "short": lambda path: rewrite(path, r"^v_train,.*\n", ""),
    "bad_value": lambda path: rewrite(path, r"^v_train,[^,]+,", "v_train,x,"),
    "other_stopper": lambda path: rewrite(path, r",[0-9a-f]{12}$", ",000000000000"),
    "other_config": lambda path: rewrite(path, r"seed_test=\d+", "seed_test=7"),
}


@pytest.mark.parametrize("edit, settings, drawn_on_miss", [
    *((edit, [], [("training", 302), ("test", 300)]) for edit in V_TRAIN_EDITS),
    ("missing", ["--set", "with_ls=true"], [("test", 300)]),
], ids=[*V_TRAIN_EDITS, "missing_with_ls"])
def test_evaluate_reuses_only_a_matching_v_train_csv(tmp_path, monkeypatch, edit, settings,
                                                     drawn_on_miss):
    # evaluate takes v_train from the v_train.csv its stopper's fit wrote when
    # the provenance line and stopper hash match; any other file is a cache
    # miss, not an error: evaluate values the training ensemble, as it would
    # without the file, and writes the same valuation.csv either way.  With
    # with_ls it holds that ensemble for the regression, so it values it in
    # place instead of streaming it again
    common = ["--set", "k_train=302", "--set", "k_test=300", "--set", "steps=5",
              "--set", "bags=4", *settings, "--out", str(tmp_path)]
    assert main(["train", *common]) == 0
    evaluate = ["evaluate", "--stopper", str(tmp_path / "stopper.txt"), *common]
    drawn = record_chunks(monkeypatch)
    assert main(evaluate) == 0
    assert drawn == [("test", 300)]
    cached = (tmp_path / "valuation.csv").read_bytes()
    V_TRAIN_EDITS[edit](tmp_path / "v_train.csv")
    drawn.clear()
    assert main(evaluate) == 0
    assert drawn == drawn_on_miss
    assert (tmp_path / "valuation.csv").read_bytes() == cached


@pytest.mark.parametrize("change, drawn", [
    (["--out", "B"], [("test", 300)]),
    (["--set", "k_test=301"], [("test", 301)]),
    (["--set", "with_boundary=true"], [("test", 300)]),
    (["--set", "seed_train=7"], [("training", 302), ("test", 300)]),
    (["--set", "x0=95"], [("training", 302), ("test", 300)]),
    (["--set", "k_train=303"], [("training", 303), ("test", 300)]),
], ids=["other_out", "other_k_test", "with_boundary", "other_seed_train", "other_x0",
        "other_k_train"])
def test_evaluate_keys_v_train_csv_on_the_training_config(tmp_path, monkeypatch, change, drawn):
    # v_train.csv is keyed on the config with the fields v_train does not read
    # reset: an evaluate that changes only the output directory or the test
    # side reuses it and draws only the test ensemble, one that changes the
    # training ensemble values that ensemble again.  Either way valuation.csv
    # has the bytes of an evaluate without the file
    monkeypatch.chdir(tmp_path)
    common = ["--set", "k_train=302", "--set", "k_test=300", "--set", "steps=5",
              "--set", "bags=4", "--out", "A"]
    assert main(["train", *common]) == 0
    evaluate = ["evaluate", "--stopper", "A/stopper.txt", *common, *change]
    sizes = record_chunks(monkeypatch)
    assert main(evaluate) == 0
    assert sizes == drawn
    out = tmp_path / ("B" if "B" in change else "A")
    valued = (out / "valuation.csv").read_bytes()
    (tmp_path / "A" / "v_train.csv").unlink()
    assert main(evaluate) == 0
    assert (out / "valuation.csv").read_bytes() == valued


@pytest.mark.parametrize("settings, built, drawn", [
    (["kind=max_call", "dim=5", "mu=-0.05", "maturity=3.0", "feature_mode=four_features"],
     [], [("training", 300), ("test", 300)]),
    (["with_ls=true"], ["training"], [("test", 300)]),
], ids=["streamed_fit", "held_fit"])
def test_run_experiment_simulates_the_training_ensemble_once(tmp_path, monkeypatch, settings,
                                                             built, drawn):
    # a streamed fit draws the training chunks into its feature block and a
    # held fit builds the ensemble whole; neither streams it again for v_train
    cfg = load_config(None, [*settings, "k_train=300", "k_test=300", "steps=5", "bags=4",
                             f"out={tmp_path}"])
    made, make_ensemble = [], ExperimentConfig.make_ensemble
    monkeypatch.setattr(ExperimentConfig, "make_ensemble",
                        lambda self, label: made.append(label) or make_ensemble(self, label))
    sizes = record_chunks(monkeypatch)
    assert "v_train" in run_experiment(cfg)
    assert (made, sizes) == (built, drawn)


def test_boundary_subcommand_with_theoretical_file(tmp_path):
    theo = tmp_path / "theo.csv"
    theo.write_text("n,b\n" + "\n".join(f"{n},86.0" for n in range(7)))
    rc = main(["boundary", "--set", "k_train=400", "--set", "k_test=400",
               "--set", "steps=6", "--set", "bags=4", "--set", "x0=90",
               "--theoretical", str(theo), "--out", str(tmp_path)])
    assert rc == 0
    header = (tmp_path / "boundary.csv").read_text().splitlines()[1]
    assert header == "n,x,path_id,residual"


def test_boundary_subcommand_does_not_hash_the_stopper(tmp_path, monkeypatch):
    # the stopper hash only labels valuation rows, which boundary runs never write
    def no_hash(self):
        raise AssertionError("boundary hashed the stopper")

    monkeypatch.setattr(BaggedStopper, "content_hash", no_hash)
    rc = main(["boundary", "--set", "k_train=200", "--set", "k_test=200",
               "--set", "steps=4", "--set", "bags=2", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "boundary_summary.csv").exists()


def test_boundary_replays_the_stopper_it_fits(tmp_path):
    # a fit-inline boundary run writes its stopper; replaying that file gives the same CSVs
    common = ["--set", "k_train=400", "--set", "k_test=400", "--set", "steps=6",
              "--set", "bags=4", "--set", "x0=90", "--out", str(tmp_path)]
    assert main(["boundary", *common]) == 0
    assert (tmp_path / "config_resolved.cfg").exists()
    assert not (tmp_path / "v_train.csv").exists()  # a boundary run values nothing
    names = ("boundary.csv", "boundary_summary.csv")
    fitted = {n: (tmp_path / n).read_bytes() for n in names}
    assert main(["boundary", "--stopper", str(tmp_path / "stopper.txt"), *common]) == 0
    for n in names:
        assert (tmp_path / n).read_bytes() == fitted[n], n


def test_stop_region_holds_every_boundary_point(tmp_path):
    common = ["--set", "k_train=2000", "--set", "k_test=2000", "--set", "steps=8",
              "--set", "bags=4", "--set", "x0=90", "--out", str(tmp_path)]
    assert main(["boundary", *common]) == 0
    lines = (tmp_path / "stop_region.csv").read_text().splitlines()
    assert lines[0] == (tmp_path / "boundary.csv").read_text().splitlines()[0]
    assert lines[1] == "n,lo,hi,votes"
    region = {}
    for line in lines[2:]:
        n, lo, hi, votes = line.split(",")
        region.setdefault(int(n), []).append((float(lo), float(hi), int(votes)))
    assert sorted(region) == list(range(8))
    for intervals in region.values():
        # the intervals tile the line from -inf to inf
        assert intervals[0][0] == -np.inf and intervals[-1][1] == np.inf
        assert all(a[1] == b[0] for a, b in zip(intervals, intervals[1:]))
    points = [line.split(",") for line in
              (tmp_path / "boundary.csv").read_text().splitlines()[2:]]
    assert len(points) > 100
    for n, x, _ in points:
        x = float(x)
        votes = next(v for lo, hi, v in region[int(n)] if lo < x <= hi)
        assert votes * 2 >= 4, (n, x)


@pytest.mark.skipif(not np.__version__.startswith("2."),
                    reason="output bytes are pinned for numpy 2.x")
def test_two_feature_put_keeps_its_output_bytes(tmp_path, monkeypatch):
    # raw_plus_reward trees read two features, so they bypass the interval
    # tables, vote tree by tree and write no stop region
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(kind="put", x0=95.0, sigma=0.3, maturity=1.0, steps=8,
                           k_train=3000, k_test=3000, bags=4, max_depth=5, min_node_size=5,
                           feature_mode="raw_plus_reward", with_ls=True, with_boundary=True,
                           out="rpr")
    run_experiment(cfg)
    pins = {
        "stopper.txt": "22bc94d1b1d5493178616187b2fef83e127b4df12c0ba4dd16ab7c82cbd030c3",
        "valuation.csv": "b749dc3a2c5d937753606221ce97be3743e79620caefa0598f51fd62614b26ef",
        "boundary.csv": "c26dd729000778057f4f4e02a9941d16527fd6765752cb8409b433d4f9dc4515",
        "boundary_summary.csv":
            "15d5a9f2ecf2b6feeaf26c7cee48d0e37f6b2d8d1a414fbb2a3c67c31e3807aa",
    }
    for name, digest in pins.items():
        assert hashlib.sha256((tmp_path / "rpr" / name).read_bytes()).hexdigest() == digest, name
    assert not (tmp_path / "rpr" / "stop_region.csv").exists()


@pytest.mark.skipif(not np.__version__.startswith("2."),
                    reason="output bytes are pinned for numpy 2.x")
def test_raw_put_keeps_its_output_bytes(tmp_path, monkeypatch):
    # the one-feature twin of the test above: raw trees vote through the
    # interval tables, which stop_region.csv writes out
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(kind="put", x0=95.0, sigma=0.3, maturity=1.0, steps=8,
                           k_train=3000, k_test=3000, bags=4, max_depth=5, min_node_size=5,
                           with_ls=True, with_boundary=True, out="raw")
    run_experiment(cfg)
    pins = {
        "stopper.txt": "0e99a5c3369801897e2ee42e4cfaecfd6027887858e25291ca23c84f5363c953",
        "valuation.csv": "7a69f5c5ea818e800d27e04cff040553502f54f7437a842f93cf013eb121d51b",
        "boundary.csv": "3748babd0182b8c319fc647feb9a42e7caf14d879f727a66496c703b6307e3b0",
        "boundary_summary.csv":
            "a48a869c5f8b8ad7590d75d97f78afa8b3a9ef01e412c1aa731f26ea33a45082",
        "stop_region.csv": "636652785c680339e43d7a9b4610cbfc330bbdf52092cad44a6ebce8f328ff10",
    }
    for name, digest in pins.items():
        assert hashlib.sha256((tmp_path / "raw" / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.skipif(not np.__version__.startswith("2."),
                    reason="output bytes are pinned for numpy 2.x")
def test_raw_put_boundary_with_residuals_keeps_its_output_bytes(tmp_path, monkeypatch):
    # the raw put above, fitted and bounded against a theoretical boundary:
    # boundary.csv gains the residual column
    monkeypatch.chdir(tmp_path)
    (tmp_path / "theo.csv").write_text("n,b\n" + "".join(f"{n},{80 + n / 2}\n" for n in range(9)))
    settings = ["kind=put", "x0=95.0", "sigma=0.3", "maturity=1.0", "steps=8", "k_train=3000",
                "k_test=3000", "bags=4", "max_depth=5", "min_node_size=5"]
    assert main(["boundary", *overrides(settings), "--theoretical", "theo.csv",
                 "--out", "raw"]) == 0
    pins = {
        "boundary.csv": "82ca98cc96cd4f943c12fcc77d45fbb64dfdea0b5b8529848cfc1c2600d39d70",
        "boundary_summary.csv":
            "8a8cfbd098d3aa54c559d5f4c4a6d9d8e3ffc376ec05a031e0724f9616269546",
    }
    for name, digest in pins.items():
        assert hashlib.sha256((tmp_path / "raw" / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("text, message", [
    ("n,b\n0,86\n1\n2,86\n", "line 3: expected 'n,b(n)'"),
    ("n,b\n# no data\n\n", "no data rows"),
    ("n,b\n0,86\n-1,90\n1,86\n", "line 3: step -1 is negative"),
    ("n,b\n0,86\n1,86\n1,87\n2,86\n", "line 4: step 1 repeats"),
    ("n,b\n0,86\n1,86\n", "last row is step 1, the config needs steps 0..2"),
    ("n,b\n0,86\n1,nan\n2,86\n", "line 3: b(1) = nan is not finite"),
    ("n,b\n0,86\n1,86\n2,inf\n", "line 4: b(2) = inf is not finite"),
], ids=["one_column", "no_rows", "negative_step", "duplicate_step", "short", "nan_level",
        "inf_level"])
def test_bad_theoretical_file_fails_before_simulating(tmp_path, capsys, monkeypatch,
                                                      text, message):
    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble was built before the file was checked")

    monkeypatch.setattr(ExperimentConfig, "make_ensemble", no_ensemble)
    theo = tmp_path / "theo.csv"
    theo.write_text(text)
    rc = main(["boundary", "--set", "steps=2", "--theoretical", str(theo),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


MAX_CALL_3 = ["kind=max_call", "dim=3", "mu=-0.05", "maturity=3", "steps=9", "bags=2"]
KNOCK_OUT_3 = ["kind=max_call_barrier", "dim=3", "feature_mode=four_features", "steps=9"]


def overrides(settings):
    return [arg for item in settings for arg in ("--set", item)]


@pytest.mark.parametrize("command, settings, message", [
    ("train", ["splitter=bogus"], "unknown splitter 'bogus'"),
    ("train", ["bags=1"], "need at least two bags"),
    ("train", ["max_depth=-1"], "max_depth must be >= 0"),
    ("train", ["min_node_size=0"], "min_node_size must be >= 1"),
    ("train", ["feature_mode=bogus"], "unknown feature mode 'bogus'"),
    ("train", ["feature_mode=four_features"], "four_features needs at least two asset"),
    ("train", ["dim=2"], "put reward needs one-dimensional paths"),
    ("evaluate", [*MAX_CALL_3, "with_ls=true"],
     "regression baseline is scoped to the one-dimensional put"),
    ("train", ["rate=nan"], "rate must be finite"),
    ("train", ["rate=inf"], "rate must be finite"),
    ("train", ["rate=-inf"], "rate must be finite"),
    ("train", ["strike=nan"], "strike must be finite"),
    ("train", ["strike=inf"], "strike must be finite"),
    ("train", ["maturity=nan"], "maturity must be finite"),
    ("train", [*KNOCK_OUT_3, "barrier=nan"], "barrier must be finite"),
    ("train", [*KNOCK_OUT_3, "barrier=inf"], "barrier must be finite"),
    ("train", ["mu=nan"], "mu must be finite"),
    ("train", ["sigma=inf"], "sigma must be finite"),
    ("train", ["x0=nan"], "x0 must be finite"),
    ("train", ["x0=inf"], "x0 must be finite"),
    ("train", ["vol_mode=explicit", "vols=nan"], "vols must be finite"),
], ids=["splitter", "bags", "max_depth", "min_node_size", "feature_mode",
        "four_features_put", "put_dim", "ls_scope", "rate_nan", "rate_inf", "rate_minus_inf",
        "strike_nan", "strike_inf", "maturity_nan", "barrier_nan", "barrier_inf", "mu_nan",
        "sigma_inf", "x0_nan", "x0_inf", "vols_nan"])
def test_bad_config_fails_before_simulating(tmp_path, capsys, monkeypatch, command,
                                            settings, message):
    common = ["--set", "k_train=2000000", "--set", "k_test=2000", "--out", str(tmp_path)]
    if command == "evaluate":
        assert main(["train", *overrides([*MAX_CALL_3, "k_train=200"]),
                     "--out", str(tmp_path)]) == 0
        common += ["--stopper", str(tmp_path / "stopper.txt")]
    capsys.readouterr()

    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble was built before the config was checked")

    monkeypatch.setattr(ExperimentConfig, "make_ensemble", no_ensemble)
    monkeypatch.setattr(ExperimentConfig, "ensemble_chunks", no_ensemble)
    assert main([command, *common, *overrides(settings)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    if command == "train":
        assert not (tmp_path / "config_resolved.cfg").exists()


@pytest.mark.parametrize("command, settings, field", [
    ("train", ["k_train=3"], "k_train"),
    ("train", ["k_train=0"], "k_train"),
    ("boundary", ["k_test=0"], "k_test"),
    ("boundary", ["k_train=3"], "k_train"),
    ("evaluate", ["k_test=0"], "k_test"),
    ("evaluate", ["k_train=0"], "k_train"),
], ids=["train_fewer_than_bags", "train_none", "boundary_no_test", "boundary_fewer_than_bags",
        "evaluate_no_test", "evaluate_no_train"])
def test_path_counts_fail_before_simulating(tmp_path, capsys, monkeypatch, command, settings,
                                            field):
    # a fit needs a path per bag, every valued or boundary ensemble one path;
    # nothing is simulated, fitted or written before the count is refused
    common = ["--set", "k_train=300", "--set", "k_test=300", "--set", "steps=5",
              "--set", "bags=4", "--out", str(tmp_path / "out")]
    if command == "evaluate":
        assert main(["train", *common[:-1], str(tmp_path / "fit")]) == 0
        common += ["--stopper", str(tmp_path / "fit" / "stopper.txt")]
    capsys.readouterr()

    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble was built before the path counts were checked")

    monkeypatch.setattr(ExperimentConfig, "make_ensemble", no_ensemble)
    monkeypatch.setattr(ExperimentConfig, "ensemble_chunks", no_ensemble)
    assert main([command, *common, *overrides(settings)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: field {field}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, settings", [
    ("boundary", []),
    ("evaluate", ["with_boundary=true"]),
])
def test_boundary_of_multi_dimensional_paths_fails_before_simulating(tmp_path, capsys,
                                                                     monkeypatch, command,
                                                                     settings):
    # the boundary reads one-dimensional paths: a max-call config is refused
    # before any ensemble is simulated, any stopper fitted or any file written
    common = [*overrides([*MAX_CALL_3, "dim=2", "k_train=200", "k_test=200"]),
              "--out", str(tmp_path / "out")]
    if command == "evaluate":
        assert main(["train", *common[:-1], str(tmp_path / "fit")]) == 0
        common += ["--stopper", str(tmp_path / "fit" / "stopper.txt")]
    capsys.readouterr()

    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble was built before the boundary was checked")

    monkeypatch.setattr(ExperimentConfig, "make_ensemble", no_ensemble)
    monkeypatch.setattr(ExperimentConfig, "ensemble_chunks", no_ensemble)
    assert main([command, *common, *overrides(settings)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "one-dimensional paths" in err
    assert not (tmp_path / "out").exists()


def test_path_counts_check_only_the_simulated_ensembles(tmp_path):
    # train never simulates the test ensemble, so it does not need a test path
    assert main(["train", "--set", "k_train=300", "--set", "k_test=0", "--set", "steps=5",
                 "--set", "bags=4", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "stopper.txt").exists()


@pytest.mark.parametrize("field, trained, evaluated", [
    ("bags", "3", "7"),
    ("feature_mode", "raw", "raw_plus_reward"),
])
def test_evaluate_rejects_a_stopper_its_config_did_not_train(tmp_path, capsys, monkeypatch,
                                                              field, trained, evaluated):
    common = ["--set", "k_train=300", "--set", "k_test=300", "--set", "steps=5",
              "--set", "bags=3", "--out", str(tmp_path)]
    assert main(["train", *common]) == 0
    capsys.readouterr()

    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble was built before the stopper was checked")

    monkeypatch.setattr(ExperimentConfig, "make_ensemble", no_ensemble)
    monkeypatch.setattr(ExperimentConfig, "ensemble_chunks", no_ensemble)
    rc = main(["evaluate", "--stopper", str(tmp_path / "stopper.txt"), *common,
               "--set", f"{field}={evaluated}"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert f"{field}={trained}" in err and f"{field}={evaluated}" in err
    assert not (tmp_path / "valuation.csv").exists()


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("steps = not_a_number\n")
    rc = main(["train", "--config", str(bad)])
    assert rc == 2
    assert "steps" in capsys.readouterr().err


@pytest.mark.parametrize("command, settings", [
    ("train", []),
    ("evaluate", []),
    ("train", ["kind=max_call", "dim=5", "feature_mode=four_features"]),
], ids=["train", "evaluate", "train_four_features"])
def test_impossible_size_exits_with_error(tmp_path, capsys, monkeypatch, command, settings):
    # numpy refuses the allocation outright, before any path of that ensemble
    # is drawn: a four_features fit allocates its whole feature block first
    common = ["--set", "k_train=300", "--set", "k_test=300", "--set", "steps=5",
              "--set", "bags=3", *overrides(settings), "--out", str(tmp_path)]
    huge = "k_train=1000000000000" if command == "train" else "k_test=1000000000000"
    if command == "evaluate":
        assert main(["train", *common]) == 0
        common += ["--stopper", str(tmp_path / "stopper.txt")]
    capsys.readouterr()
    drawn = record_chunks(monkeypatch)
    assert main([command, *common, "--set", huge]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    refused = "training" if command == "train" else "test"
    assert all(label != refused for label, _ in drawn)


@pytest.mark.parametrize("failing", ["simulate", "vote"])
def test_evaluate_failing_mid_pass_exits_with_error_and_ends_its_worker(tmp_path, capsys,
                                                                       monkeypatch, failing):
    # the simulation of chunk 1 fails, or the vote on chunk 0 fails while the
    # worker simulates chunk 1: either way nothing is valued on a truncated
    # ensemble, the run ends in error: with exit 2, and no thread is left behind
    common = ["--set", "k_train=300", "--set", "k_test=300", "--set", "steps=5",
              "--set", "bags=3", "--out", str(tmp_path)]
    assert main(["train", *common]) == 0
    capsys.readouterr()
    # chunks of 100 paths, each half of CHUNK_BYTES
    monkeypatch.setattr(ensemble, "CHUNK_BYTES", 2 * 100 * 8 * 6)
    module, name = (ensemble, "_fill") if failing == "simulate" else (cli, "apply")
    original, calls = getattr(module, name), []

    def fails_once(*args):
        calls.append(args)
        if len(calls) == (2 if failing == "simulate" else 1):
            raise ValueError(f"{failing} failed")
        return original(*args)

    monkeypatch.setattr(module, name, fails_once)
    threads = threading.active_count()
    rc = main(["evaluate", "--stopper", str(tmp_path / "stopper.txt"), *common])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {failing} failed\n"
    assert not (tmp_path / "valuation.csv").exists()
    assert threading.active_count() == threads


def test_evaluate_memory_stays_below_half_the_test_ensemble(tmp_path):
    # a streamed evaluate holds two path chunks and 24 bytes per test path,
    # never the whole 80 MB test ensemble
    k_test, steps, dim = 200000, 9, 5
    common = ["--set", "kind=max_call", "--set", f"dim={dim}", "--set", "mu=-0.05",
              "--set", "maturity=3.0", "--set", f"steps={steps}",
              "--set", "feature_mode=four_features", "--set", "k_train=2000",
              "--set", "bags=4", "--set", f"k_test={k_test}", "--out", str(tmp_path)]
    assert main(["train", *common]) == 0
    ensemble_bytes = k_test * (steps + 1) * dim * 8
    tracemalloc.start()
    try:
        assert main(["evaluate", "--stopper", str(tmp_path / "stopper.txt"), *common]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ensemble_bytes / 2


@pytest.fixture(scope="module")
def barrier_evaluate_peak(tmp_path_factory):
    """tracemalloc peak of evaluating a barrier-d8-like config of ten chunks
    (five CHUNK_BYTES of test paths), measured once for both bounds below."""
    out = tmp_path_factory.mktemp("barrier_guard")
    k_test, steps, dim = 20000, 53, 8
    per_chunk = ensemble.CHUNK_BYTES // (2 * 8 * (steps + 1) * (dim + 1))
    assert -(-k_test // per_chunk) == 10
    common = ["--set", "kind=max_call_barrier", "--set", f"dim={dim}", "--set", "mu=0.05",
              "--set", "maturity=3.0", "--set", f"steps={steps}", "--set", "barrier=170.0",
              "--set", "feature_mode=four_features", "--set", "k_train=2000",
              "--set", "bags=4", "--set", f"k_test={k_test}", "--out", str(out)]
    assert main(["train", *common]) == 0
    tracemalloc.start()
    try:
        assert main(["evaluate", "--stopper", str(out / "stopper.txt"), *common]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_barrier_evaluate_memory_stays_below_two_and_a_half_chunks(barrier_evaluate_peak):
    # a streamed evaluate of this config peaks at about 1.15 CHUNK_BYTES: two
    # chunks of half of it, one valued and one simulated meanwhile; a chunk kept
    # past its iteration (+0.4) is left to the bound below, and holding the
    # test ensemble whole (+4.6) breaks this one
    assert barrier_evaluate_peak < 2.5 * ensemble.CHUNK_BYTES


def test_barrier_evaluate_memory_stays_below_one_and_a_half_chunks(barrier_evaluate_peak):
    # two chunks of half CHUNK_BYTES, one block of normals and one step's
    # features and votes; a chunk kept past its iteration (about 1.54) or a
    # chunk's whole normals buffer next to it (about 1.60) breaks the bound
    assert barrier_evaluate_peak < 1.5 * ensemble.CHUNK_BYTES


@pytest.mark.parametrize("settings, state_width, bound", [
    # a four_features fit holds its (N+1, K, 4) feature block, 0.44 of this
    # 9-column ensemble, plus two chunks of half CHUNK_BYTES (0.22) and one
    # step's gathered features, about 0.69 in all; holding the raw ensemble as
    # well (+1.0) breaks the bound
    (["kind=max_call_barrier", "dim=8", "mu=0.05", "maturity=3.0", "steps=53",
      "barrier=170.0", "feature_mode=four_features"], 9, 0.8),
    # raw_plus_reward features are twice as wide as the put's states, so the fit
    # holds the ensemble plus one step's working arrays, about 1.4 of it;
    # streaming into a block twice its size plus a chunk (3.3) breaks the bound
    (["kind=put", "steps=50", "feature_mode=raw_plus_reward"], 1, 2.0),
], ids=["streamed_barrier", "held_put_raw_plus_reward"])
def test_training_memory_stays_within_its_share_of_the_ensemble(tmp_path, settings,
                                                                 state_width, bound):
    k_train = 20000
    cfg = load_config(None, [*settings, f"k_train={k_train}", "bags=10"])
    tracemalloc.start()
    try:
        assert main(["train", *overrides(settings), "--set", f"k_train={k_train}",
                     "--set", "bags=10", "--out", str(tmp_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * k_train * (cfg.steps + 1) * state_width * 8


def test_missing_stopper_file_exits_nonzero(tmp_path):
    rc = main(["evaluate", "--stopper", str(tmp_path / "missing.txt"),
               "--out", str(tmp_path)])
    assert rc == 2


def test_truncated_stopper_file_exits_with_error(tmp_path, capsys):
    common = ["--set", "k_train=60", "--set", "k_test=60", "--set", "steps=3",
              "--set", "bags=2", "--out", str(tmp_path)]
    assert main(["train", *common]) == 0
    dump = tmp_path / "stopper.txt"
    text = dump.read_text()
    dump.write_text(text[: text.rindex("endtree")])
    assert main(["evaluate", "--stopper", str(dump), *common]) == 2
    assert capsys.readouterr().err.startswith("error: stopper dump ends inside")


def test_stopper_file_with_mixed_tree_widths_exits_with_error(tmp_path, capsys, monkeypatch):
    # every tree reads the first tree's features; a wider later tree is refused
    # by name before any ensemble is simulated
    common = ["--set", "k_train=60", "--set", "k_test=60", "--set", "steps=3",
              "--set", "bags=2", "--out", str(tmp_path)]
    assert main(["train", *common]) == 0
    capsys.readouterr()
    dump = tmp_path / "stopper.txt"
    text, found = re.subn(r"^(begintree bag=1 step=2\ntree nodes=\d+ features=)1$", r"\g<1>2",
                          dump.read_text(), flags=re.M)
    assert found == 1
    dump.write_text(text)

    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble was built before the stopper was checked")

    monkeypatch.setattr(ExperimentConfig, "make_ensemble", no_ensemble)
    monkeypatch.setattr(ExperimentConfig, "ensemble_chunks", no_ensemble)
    assert main(["evaluate", "--stopper", str(dump), *common]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: begintree bag=1 step=2: features=2")
    assert not (tmp_path / "valuation.csv").exists()


def test_stopper_file_wider_than_its_features_exits_with_error(tmp_path, capsys, monkeypatch):
    # trees that all read two features cannot vote on the raw put's one; the
    # width is compared with the one-path probe's before any ensemble is simulated
    common = ["--set", "k_train=60", "--set", "k_test=60", "--set", "steps=3",
              "--set", "bags=2", "--out", str(tmp_path)]
    assert main(["train", *common]) == 0
    capsys.readouterr()
    dump = tmp_path / "stopper.txt"
    text, found = re.subn(r"^(tree nodes=\d+ features=)1$", r"\g<1>2", dump.read_text(),
                          flags=re.M)
    assert found == 6
    dump.write_text(text)

    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble was built before the tree width was checked")

    monkeypatch.setattr(ExperimentConfig, "make_ensemble", no_ensemble)
    monkeypatch.setattr(ExperimentConfig, "ensemble_chunks", no_ensemble)
    assert main(["evaluate", "--stopper", str(dump), *common]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "features=2" in err and "width 1" in err
    assert not (tmp_path / "valuation.csv").exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_non_finite_threshold_exits_with_error(tmp_path, capsys, threshold):
    common = ["--set", "k_train=400", "--set", "k_test=60", "--set", "steps=3",
              "--set", "bags=2", "--set", "x0=90", "--out", str(tmp_path)]
    assert main(["train", *common]) == 0
    dump = tmp_path / "stopper.txt"
    text, found = re.subn(r"^(\d+ split \d+ )\S+", rf"\g<1>{threshold}", dump.read_text(),
                          count=1, flags=re.M)
    assert found == 1
    dump.write_text(text)
    assert main(["evaluate", "--stopper", str(dump), *common]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"split 0 {threshold} " in err
    assert not (tmp_path / "valuation.csv").exists()


def test_oracle_subcommand_all_equal(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--seed", "5", "--instances", "8", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 8
    assert all(row.endswith("True") for row in rows)


# ---------------------------------------------------------------------------
# benchmark suites
# ---------------------------------------------------------------------------

def test_put_grid_matches_published_table():
    rows = benchmark_grid("put")
    assert len(rows) == 20
    combos = {(c.sigma, c.x0, c.maturity, c.steps) for c in rows}
    assert (0.2, 100.0, 1.0, 50) in combos
    assert (0.4, 110.0, 2.0, 50) in combos
    assert (0.2, 85.0, 1.0, 100) in combos
    assert all(c.k_train == 200000 and c.with_ls for c in rows)


def test_maxcall_grids_use_four_features():
    for suite in ("maxcall_sym", "maxcall_asym"):
        rows = benchmark_grid(suite)
        assert len(rows) == 30
        assert all(c.feature_mode == "four_features" and c.steps == 9 for c in rows)
    sym = benchmark_grid("maxcall_sym")
    row = next(c for c in sym if c.dim == 2 and c.x0 == 90.0)
    assert row.reference == 8.054


def test_barrier_grid():
    rows = benchmark_grid("barrier")
    assert len(rows) == 9
    assert all(c.barrier == 170.0 and c.steps == 53 for c in rows)


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
def test_benchmark_scale_must_be_positive_and_finite(tmp_path, capsys, scale):
    out = tmp_path / "bench.csv"
    assert main(["benchmark", "put", "--scale", scale, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scale must be a positive finite number")
    assert not out.exists()


@pytest.mark.parametrize("suite, rows, first_dim, reference, with_ls", [
    ("barrier", 9, "4", 34.744, False),
    ("put", 20, "1", 15.285, True),
], ids=["barrier", "put"])
def test_benchmark_run_tiny_scale(tmp_path, suite, rows, first_dim, reference, with_ls):
    out = tmp_path / "bench.csv"
    rc = main(["benchmark", suite, "--scale", "0.002", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == ("dim,x0,sigma,maturity,steps,k_train,k_test,"
                        "v_train,v_test,se,reference,delta,v_max,ls_test,seconds")
    assert len(lines) == 2 + rows
    table = [line.split(",") for line in lines[2:]]
    assert table[0][0] == first_dim and float(table[0][10]) == reference  # reference column
    for row in table:
        assert float(row[8]) <= float(row[12])  # v_test <= v_max
        assert (row[13] != "") == with_ls
    # every row is an ordinary run with its own artifacts
    valuation = (tmp_path / "bench.csv.runs" / "0" / "valuation.csv").read_text()
    kinds = {line.split(",")[0] for line in valuation.splitlines()[2:]}
    assert kinds == {"v_train", "v_test", "v_max"} | ({"ls_train", "ls_test"} if with_ls else set())
