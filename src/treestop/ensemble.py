"""Simulation and storage of path ensembles.

An ensemble is a batch of K sampled paths of length N+1 in D dimensions, all
starting from the same initial point.  It is stored step-major, as one
(N+1, K, D) array, so the (K, D) state at any step is a contiguous view.  A
knock-out ensemble carries one more coordinate, the running barrier
indicator, written by ``generate_gbm`` into the last column of the same
array.  Ensembles are immutable after construction and fully reproducible:
the same (spec, K, seed, barrier) always yields bit-identical data.

Determinism contract
--------------------
Normals come from numpy's Philox counter-based bit generator seeded with the
64-bit ensemble seed.  They are drawn path-major, in blocks of ``k`` whole
paths at a time (``standard_normal((k, N, D))``, numpy's ziggurat transform),
from that one stream: blocks of one stream give the same numbers as one
``standard_normal((K, N, D))`` call.  Each block is turned into price ratios
in place and transposed on write into the step-major array.  This is
byte-stable across runs, block and chunk sizes for a fixed numpy version and a
fixed SIMD dispatch level, not across every machine: numpy picks its float64
``exp`` loop by CPU, and its AVX-512 loop rounds some points differently from
the others (see the README's Determinism section).

``generate_gbm`` fills one whole ensemble; ``gbm_chunks`` yields the same
paths as separate step-major ensembles of at most half ``CHUNK_BYTES``, the
next one simulated on a worker thread while the caller uses this one, so a
caller that only values them holds two chunks of half ``CHUNK_BYTES`` and one
block of normals.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from treestop.reward import asset_max

TRAIN_LABEL = "training"
TEST_LABEL = "test"

# Path data a streamed pass holds: two chunks of half of it, the one the caller
# uses and the next one, simulated on a worker thread meanwhile.  Smaller chunks
# hold less memory but pay the per-chunk Python overhead more often: N steps x B
# tree walks, each over the rows whose majority vote is still open, for a
# multi-feature stopper; N table lookups for a one-feature stopper (tables are
# built on the first chunk).
CHUNK_BYTES = 16 * 2**20
BLOCK_BYTES = 2**20  # normals per block, small enough to stay in cache


def asymmetric_vols(dim: int) -> np.ndarray:
    """Per-coordinate volatility ladder used by the asymmetric benchmarks.

    sigma[d] = 0.08 + 0.32*(d-1)/(D-1) for D <= 5 and 0.1 + d/(2D) for D > 5,
    with d counted from 1.
    """
    if dim < 2:
        raise ValueError("asymmetric vols need dim >= 2")
    d = np.arange(1, dim + 1, dtype=float)
    if dim <= 5:
        return 0.08 + 0.32 * (d - 1.0) / (dim - 1.0)
    return 0.1 + d / (2.0 * dim)


@dataclass(frozen=True)
class GbmSpec:
    """Parameters of the discretised geometric Brownian motion simulator.

    ``vols`` holds one volatility per coordinate; use the ``symmetric`` /
    ``asymmetric`` constructors for the two benchmark conventions.  ``x0``
    may be a scalar (broadcast to all coordinates) or a length-D vector.
    """

    dim: int
    x0: float | np.ndarray
    mu: float
    vols: np.ndarray
    maturity: float
    steps: int

    def __post_init__(self):
        vols = np.asarray(self.vols, dtype=float)
        if vols.shape != (self.dim,):
            raise ValueError(f"vols must have shape ({self.dim},), got {vols.shape}")
        object.__setattr__(self, "vols", vols)
        x0 = np.broadcast_to(np.asarray(self.x0, dtype=float), (self.dim,)).copy()
        object.__setattr__(self, "x0", x0)
        if self.dim < 1 or self.steps < 1:
            raise ValueError("dim and steps must be positive")
        if self.maturity <= 0:
            raise ValueError("maturity must be positive")
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        # the negated tests refuse NaN too
        if not np.all((x0 > 0) & (x0 < np.inf)):
            raise ValueError("x0 must be finite and positive")
        if not np.all((vols >= 0) & (vols < np.inf)):
            raise ValueError("vols must be finite and nonnegative")

    @classmethod
    def symmetric(cls, dim, x0, mu, sigma, maturity, steps) -> "GbmSpec":
        if not 0 <= sigma < np.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
        return cls(dim, x0, mu, np.full(dim, float(sigma)), maturity, steps)

    @classmethod
    def asymmetric(cls, dim, x0, mu, maturity, steps) -> "GbmSpec":
        return cls(dim, x0, mu, asymmetric_vols(dim), maturity, steps)


@dataclass(frozen=True)
class PathEnsemble:
    """K sampled paths of length N+1 in D dimensions sharing an initial point.

    ``data`` is step-major, shape (N+1, K, D), with every path holding the same
    state at step 0, so ``state_at(n)`` is the C-contiguous (K, D) view
    ``data[n]``.  When ``has_barrier_indicator`` is set, the last coordinate is
    the running knock-out indicator (1 while the running maximum of the asset
    coordinates stays at or below the barrier, 0 forever after a breach).
    """

    data: np.ndarray
    seed: int
    label: str
    has_barrier_indicator: bool = False

    def __post_init__(self):
        if self.label not in (TRAIN_LABEL, TEST_LABEL):
            raise ValueError(f"label must be {TRAIN_LABEL!r} or {TEST_LABEL!r}")
        data = np.ascontiguousarray(self.data)
        if data.ndim != 3 or 0 in data.shape:
            raise ValueError(f"data must be a non-empty (N+1, K, D) array, got shape {data.shape}")
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise ValueError("non-finite path entries")
        if not np.all(data[0] == data[0, :1]):
            raise ValueError("every path must share the step-0 state")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def num_steps(self) -> int:
        return self.data.shape[0] - 1

    @property
    def num_paths(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    def state_at(self, n: int) -> np.ndarray:
        """(K, D) cross-section of all paths at step n, a contiguous view."""
        return self.data[n]


def _check_request(num_paths: int, barrier: float | None) -> None:
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    if barrier is not None and barrier <= 0:
        raise ValueError("barrier must be positive")


def _chunk_starts(spec: GbmSpec, num_paths: int, width: int) -> range:
    """First path of every chunk: as many paths as half ``CHUNK_BYTES`` of path data holds."""
    per_chunk = max(1, CHUNK_BYTES // (2 * 8 * (spec.steps + 1) * width))
    return range(0, num_paths, per_chunk)


def _fill(out: np.ndarray, rng: np.random.Generator, spec: GbmSpec,
          barrier: float | None) -> np.ndarray:
    """Simulate the next ``out.shape[1]`` paths of ``rng`` into the step-major ``out``.

    Blocks of whole paths, at most ``BLOCK_BYTES`` of normals each, are drawn
    into one buffer, scaled, shifted, summed and exponentiated in place, then
    multiplied by x0 and transposed on write into their paths' asset columns;
    with a barrier the block's last column gets the knock-out indicator.
    """
    N, D = spec.steps, spec.dim
    dt = spec.maturity / N
    per_block = max(1, BLOCK_BYTES // (8 * N * D))
    buffer = np.empty((min(per_block, out.shape[1]), N, D))
    out[0, :, :D] = spec.x0
    for start in range(0, out.shape[1], per_block):
        block = out[:, start:start + per_block]
        ratio = rng.standard_normal(out=buffer[:block.shape[1]])
        ratio *= spec.vols * np.sqrt(dt)
        ratio += (spec.mu - 0.5 * spec.vols**2) * dt
        np.cumsum(ratio, axis=1, out=ratio)
        # exp runs on the contiguous buffer: numpy picks its exp loop by CPU and by
        # stride, and the loops may round differently, so the bytes hold for one
        # numpy version at one SIMD dispatch level
        np.exp(ratio, out=ratio)
        np.multiply(spec.x0, ratio.transpose(1, 0, 2), out=block[1:, :, :D])
        if barrier is not None:
            running = np.maximum.accumulate(asset_max(block[:, :, :D]), axis=0)
            np.less_equal(running, barrier, out=block[:, :, D])
    return out


def generate_gbm(spec: GbmSpec, num_paths: int, seed: int, label: str = TRAIN_LABEL,
                 barrier: float | None = None) -> PathEnsemble:
    """Simulate a GBM ensemble, with the knock-out indicator when ``barrier`` is given.

    data[n, k, d] = x0[d] * exp{(mu - vols[d]^2/2) * n*T/N
                               + vols[d] * sqrt(T/N) * sum_{n'<=n} eps[k, n', d]}
    with eps i.i.d. standard normal from a Philox stream seeded with ``seed``.

    With a barrier, coordinate D at step n is 1 exactly when the maximum over
    all asset coordinates and all steps n' <= n stays at or below ``barrier``,
    and 0 otherwise, so it never rises again after a breach.

    ``data`` is allocated once, at its final shape, and filled from the one
    stream, so the only other buffer is one block of normals.
    """
    _check_request(num_paths, barrier)
    width = spec.dim + (barrier is not None)
    data = np.empty((spec.steps + 1, num_paths, width))
    _fill(data, np.random.Generator(np.random.Philox(seed)), spec, barrier)
    return PathEnsemble(data, seed, label, has_barrier_indicator=barrier is not None)


def gbm_chunks(spec: GbmSpec, num_paths: int, seed: int, label: str = TRAIN_LABEL,
               barrier: float | None = None) -> Iterator[PathEnsemble]:
    """The paths of ``generate_gbm(spec, num_paths, seed, label, barrier)``, chunk by chunk.

    Each chunk is a step-major ensemble of consecutive paths, allocated at its
    own size, at most half ``CHUNK_BYTES`` of path data (at least one path);
    concatenated along the path axis the chunks equal ``generate_gbm``'s data
    byte for byte.  While the caller holds one chunk, one worker thread
    simulates the next one, so a pass holds two chunks: the one in use and the
    one being filled.  Only the worker draws from the stream, in chunk order.
    Each chunk's array is allocated here, in the caller's thread, so that it
    comes from the caller's malloc arena.  An error in simulating a chunk is
    raised by the ``next()`` that would have returned it, and closing the
    generator waits for the worker to end.  The generator drops its reference
    to a yielded chunk before it allocates the chunk after next.
    """
    # imported here: concurrent.futures loads logging, whose import time and
    # memory a command that streams no ensemble (--help, a held fit) need not pay
    from concurrent.futures import ThreadPoolExecutor

    _check_request(num_paths, barrier)
    width = spec.dim + (barrier is not None)
    rng = np.random.Generator(np.random.Philox(seed))
    starts = _chunk_starts(spec, num_paths, width)

    def empty(start: int) -> np.ndarray:
        return np.empty((spec.steps + 1, min(starts.step, num_paths - start), width))

    def filled(out: np.ndarray) -> PathEnsemble:
        # runs on the worker thread, so it calls none of the layer functions a
        # span tracer wraps (perfbench/trace_child.py keeps one span stack)
        return PathEnsemble(_fill(out, rng, spec, barrier), seed, label,
                            has_barrier_indicator=barrier is not None)

    with ThreadPoolExecutor(1) as worker:
        pending = worker.submit(filled, empty(0))
        for start in starts[1:]:
            chunk = pending.result()
            pending = worker.submit(filled, empty(start))
            yield chunk
        yield pending.result()


def dump_csv(paths: PathEnsemble, path) -> None:
    """Debug dump: one header line, then rows k,n,d,value.

    Values use the %.17g format (lossless for float64).  Not a
    stability-guaranteed format.
    """
    with open(path, "w") as fh:
        fh.write(f"# K={paths.num_paths} N={paths.num_steps} D={paths.dim} "
                 f"seed={paths.seed} label={paths.label}\n")
        fh.write("k,n,d,value\n")
        for k in range(paths.num_paths):
            for n in range(paths.num_steps + 1):
                for d in range(paths.dim):
                    fh.write(f"{k},{n},{d},{paths.data[n, k, d]:.17g}\n")
