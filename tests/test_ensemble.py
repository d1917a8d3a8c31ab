import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestop import ensemble
from treestop.ensemble import (
    BLOCK_BYTES,
    CHUNK_BYTES,
    GbmSpec,
    PathEnsemble,
    asymmetric_vols,
    dump_csv,
    gbm_chunks,
    generate_gbm,
)

from oracles import reference_gbm


def test_degenerate_diffusion_is_constant():
    spec = GbmSpec.symmetric(2, 100.0, 0.0, 0.0, 1.0, 10)
    paths = generate_gbm(spec, 5, seed=1)
    assert np.all(paths.data == 100.0)


def test_zero_vol_is_deterministic_exponential():
    spec = GbmSpec.symmetric(1, 100.0, 0.05, 0.0, 1.0, 50)
    paths = generate_gbm(spec, 3, seed=9)
    n = np.arange(51)
    expected = 100.0 * np.exp(0.001 * n)
    for k in range(3):
        np.testing.assert_allclose(paths.data[:, k, 0], expected, rtol=1e-12)


def test_terminal_mean_matches_lognormal_first_moment():
    # sample mean of X_N / x0 should sit within 3 standard errors of e^{mu T}
    spec = GbmSpec.symmetric(1, 100.0, 0.05, 0.2, 1.0, 50)
    paths = generate_gbm(spec, 200000, seed=42)
    ratio = paths.data[-1, :, 0] / 100.0
    se = ratio.std(ddof=1) / np.sqrt(ratio.size)
    assert abs(ratio.mean() - np.exp(0.05)) < 3 * se


def test_bit_identical_for_equal_seed():
    spec = GbmSpec.symmetric(3, 90.0, -0.05, 0.2, 3.0, 9)
    a = generate_gbm(spec, 500, seed=7)
    b = generate_gbm(spec, 500, seed=7)
    assert a.data.tobytes() == b.data.tobytes()
    c = generate_gbm(spec, 500, seed=8)
    assert a.data.tobytes() != c.data.tobytes()


def test_streams_are_independent_of_other_calls():
    spec = GbmSpec.symmetric(1, 100.0, 0.05, 0.2, 1.0, 5)
    generate_gbm(spec, 100, seed=123)  # unrelated draw must not shift state
    train = generate_gbm(spec, 100, seed=1)
    again = generate_gbm(spec, 100, seed=1)
    assert train.data.tobytes() == again.data.tobytes()


def test_positivity_and_immutability():
    spec = GbmSpec.symmetric(2, 50.0, 0.0, 0.4, 2.0, 20)
    paths = generate_gbm(spec, 200, seed=3)
    assert np.all(paths.data > 0)
    with pytest.raises(ValueError):
        paths.data[0, 0, 0] = 1.0


def test_asymmetric_vol_ladder():
    np.testing.assert_allclose(asymmetric_vols(5), [0.08, 0.16, 0.24, 0.32, 0.40])
    np.testing.assert_allclose(asymmetric_vols(10), 0.1 + np.arange(1, 11) / 20.0)


def test_barrier_indicator_never_breached():
    spec = GbmSpec.symmetric(1, 100.0, 0.0, 0.0, 1.0, 5)
    paths = generate_gbm(spec, 2, seed=1, barrier=170.0)
    assert np.all(paths.data[:, :, 1] == 1.0)


def test_barrier_indicator_sticks_after_crossing():
    spec = GbmSpec.symmetric(2, 100.0, 0.0, 0.3, 1.0, 12)
    barrier = 120.0
    paths = generate_gbm(spec, 200, seed=11, barrier=barrier)
    asset_max = paths.data[:, :, :2].max(axis=2)
    # the seeded paths include a breach followed by a fall back below the barrier
    above = asset_max > barrier
    assert np.any(np.maximum.accumulate(above, axis=0)[:-1] & ~above[1:])
    expected = np.maximum.accumulate(asset_max, axis=0) <= barrier
    np.testing.assert_array_equal(paths.data[:, :, 2], expected.astype(float))


def test_barrier_breached_at_start():
    spec = GbmSpec.symmetric(1, 200.0, 0.0, 0.0, 1.0, 4)
    paths = generate_gbm(spec, 2, seed=1, barrier=170.0)
    assert np.all(paths.data[:, :, 1] == 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), barrier=st.floats(80.0, 200.0))
def test_barrier_indicator_monotone(seed, barrier):
    spec = GbmSpec.symmetric(2, 100.0, 0.05, 0.3, 1.0, 12)
    paths = generate_gbm(spec, 50, seed=seed, barrier=barrier)
    ind = paths.data[:, :, -1]
    assert set(np.unique(ind)) <= {0.0, 1.0}
    assert np.all(np.diff(ind, axis=0) <= 0)


@st.composite
def gbm_cases(draw):
    dim = draw(st.integers(1, 4))
    steps = draw(st.integers(1, 12))
    x0 = draw(st.floats(50.0, 150.0))
    mu = draw(st.floats(-0.1, 0.1))
    maturity = draw(st.floats(0.1, 3.0))
    if dim >= 2 and draw(st.booleans()):
        spec = GbmSpec.asymmetric(dim, x0, mu, maturity, steps)
    else:
        spec = GbmSpec.symmetric(dim, x0, mu, draw(st.floats(0.0, 0.6)), maturity, steps)
    barrier = draw(st.none() | st.floats(60.0, 200.0))
    return spec, draw(st.integers(1, 60)), draw(st.integers(0, 2**64 - 1)), barrier


def chunk_bytes_for(spec, barrier, chunk_paths):
    """A CHUNK_BYTES value that makes every chunk hold ``chunk_paths`` paths."""
    return chunk_paths * 8 * (spec.steps + 1) * (spec.dim + (barrier is not None))


@settings(max_examples=200, deadline=None)
@given(gbm_cases(), st.sampled_from(["training", "test"]), st.none() | st.integers(1, 8),
       st.sampled_from([None, 1, 3]))
def test_generate_gbm_matches_reference(case, label, chunk_paths, block_paths):
    # the blocked in-place build gives the bytes of the step-by-step reference,
    # both whole and as gbm_chunks of chunk_paths paths (the last one ragged
    # unless chunk_paths divides num_paths), with normals drawn in blocks of
    # BLOCK_BYTES or of block_paths paths (the last block ragged too)
    spec, num_paths, seed, barrier = case
    chunk_bytes = CHUNK_BYTES if chunk_paths is None else chunk_bytes_for(spec, barrier, chunk_paths)
    block_bytes = BLOCK_BYTES if block_paths is None else block_paths * 8 * spec.steps * spec.dim
    with mock.patch.object(ensemble, "CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(ensemble, "BLOCK_BYTES", block_bytes):
        paths = generate_gbm(spec, num_paths, seed, label, barrier)
        chunks = list(gbm_chunks(spec, num_paths, seed, label, barrier))
    ref = reference_gbm(spec, num_paths, seed, label, barrier)
    assert paths.data.shape == ref.data.shape and paths.data.dtype == ref.data.dtype
    assert paths.data.tobytes() == ref.data.tobytes()
    assert np.concatenate([c.data for c in chunks], axis=1).tobytes() == ref.data.tobytes()
    assert paths.has_barrier_indicator is ref.has_barrier_indicator
    assert (paths.dim, paths.seed, paths.label) == (ref.dim, ref.seed, ref.label)


@pytest.mark.parametrize("chunk_paths", [1, 7, 40, 1000])
@pytest.mark.parametrize("barrier", [None, 120.0])
def test_gbm_chunks_concatenate_to_generate_gbm(monkeypatch, barrier, chunk_paths):
    spec = GbmSpec.symmetric(3, 100.0, 0.05, 0.3, 1.0, 6)
    whole = generate_gbm(spec, 40, seed=4, label="test", barrier=barrier)
    monkeypatch.setattr(ensemble, "CHUNK_BYTES", chunk_bytes_for(spec, barrier, chunk_paths))
    chunks = list(gbm_chunks(spec, 40, seed=4, label="test", barrier=barrier))
    # chunks of 7 end in a ragged chunk of 5
    sizes = [min(chunk_paths, 40 - start) for start in range(0, 40, chunk_paths)]
    assert [c.num_paths for c in chunks] == sizes
    for c in chunks:
        assert (c.seed, c.label, c.has_barrier_indicator) == (4, "test", barrier is not None)
        # every chunk, a shorter last one too, is allocated at its own size
        assert c.data.base is None or c.data.base.nbytes == c.data.nbytes
    joined = np.concatenate([c.data for c in chunks], axis=1)
    assert joined.tobytes() == whole.data.tobytes()


def traced_peak(run):
    """Peak bytes that tracemalloc sees allocated while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MAXCALL_D5 = GbmSpec.symmetric(5, 100.0, -0.05, 0.2, 3.0, 9)


def test_gbm_chunks_pass_holds_one_chunk_and_one_block():
    # two full chunks and a short last one; a second chunk-sized buffer (the
    # chunk's normals, or a compact copy of the last chunk) breaks the bound
    per_chunk = CHUNK_BYTES // (8 * 10 * 5)

    def drop_each():
        for chunk in gbm_chunks(MAXCALL_D5, 2 * per_chunk + per_chunk // 3, seed=1, label="test"):
            del chunk

    assert traced_peak(drop_each) < 1.25 * CHUNK_BYTES


def test_generate_gbm_holds_the_ensemble_and_one_block():
    # about three chunks of paths; one chunk's normals next to it reads 1.38 ensembles
    num_paths = 3 * CHUNK_BYTES // (8 * 10 * 5)
    peak = traced_peak(lambda: generate_gbm(MAXCALL_D5, num_paths, seed=1))
    assert peak < 1.2 * num_paths * 10 * 5 * 8


@pytest.mark.parametrize("label", ["training", "test"])
@pytest.mark.parametrize("barrier", [None, 120.0])
def test_state_at_is_contiguous_view_of_data(label, barrier):
    spec = GbmSpec.symmetric(3, 100.0, 0.05, 0.3, 1.0, 6)
    paths = generate_gbm(spec, 40, seed=4, label=label, barrier=barrier)
    assert paths.data.shape == (7, 40, 3 + (barrier is not None))
    # a strided view of the same values is stored contiguous by the constructor
    path_major = paths.data.transpose(1, 0, 2).copy()
    rebuilt = PathEnsemble(path_major.transpose(1, 0, 2), paths.seed, label, paths.has_barrier_indicator)
    for ensemble in (paths, rebuilt):
        for n in range(ensemble.num_steps + 1):
            state = ensemble.state_at(n)
            assert state.flags.c_contiguous
            assert np.shares_memory(state, ensemble.data)
            np.testing.assert_array_equal(state, paths.data[n])


def _differs_at_step_zero():
    data = np.full((3, 2, 1), 100.0)
    data[0, 1, 0] = 101.0
    return data


@pytest.mark.parametrize("data, label, match", [
    (np.full((3, 2), 100.0), "training", "shape"),
    (np.full((3, 2, 1, 1), 100.0), "training", "shape"),
    (np.zeros((1, 0, 1)), "training", "shape"),
    (np.full((3, 2, 1), np.nan), "training", "non-finite"),
    (np.full((3, 2, 1), np.inf), "test", "non-finite"),
    (_differs_at_step_zero(), "training", "step-0"),
    (np.full((3, 2, 1), 100.0), "validation", "label"),
    (np.concatenate([np.full((2, 2, 1), 100.0), np.full((1, 2, 1), -np.inf)]), "test", "non-finite"),
])
def test_path_ensemble_validation(data, label, match):
    with pytest.raises(ValueError, match=match):
        PathEnsemble(data, 0, label)


def test_parameter_validation():
    with pytest.raises(ValueError):
        GbmSpec.symmetric(1, -5.0, 0.0, 0.2, 1.0, 10)
    with pytest.raises(ValueError):
        GbmSpec.symmetric(1, 100.0, 0.0, 0.2, -1.0, 10)
    spec = GbmSpec.symmetric(1, 100.0, 0.0, 0.2, 1.0, 10)
    with pytest.raises(ValueError):
        generate_gbm(spec, 0, seed=1)
    with pytest.raises(ValueError):
        generate_gbm(spec, 5, seed=1, barrier=0.0)
    with pytest.raises(ValueError):
        next(gbm_chunks(spec, 0, seed=1))


def test_vector_initial_point_broadcast_and_explicit():
    spec = GbmSpec(2, np.array([90.0, 110.0]), 0.0, np.array([0.0, 0.0]), 1.0, 3)
    paths = generate_gbm(spec, 4, seed=1)
    np.testing.assert_array_equal(paths.state_at(0)[0], [90.0, 110.0])
    assert np.all(paths.data[:, :, 0] == 90.0)
    assert np.all(paths.data[:, :, 1] == 110.0)


def test_csv_dump_header_and_rows(tmp_path):
    spec = GbmSpec.symmetric(2, 100.0, 0.0, 0.2, 1.0, 2)
    paths = generate_gbm(spec, 3, seed=5, label="test")
    out = tmp_path / "dump.csv"
    dump_csv(paths, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "# K=3 N=2 D=2 seed=5 label=test"
    assert lines[1] == "k,n,d,value"
    assert len(lines) == 2 + 3 * 3 * 2
    k, n, d, v = lines[2].split(",")
    assert (k, n, d) == ("0", "0", "0") and float(v) == 100.0
