"""Simulation and storage of path ensembles.

An ensemble is a batch of K sampled paths of length N+1 in D dimensions, all
starting from the same initial point.  A knock-out ensemble carries one more
coordinate, the running barrier indicator, written by ``generate_gbm`` into
the last column of the same array.  Ensembles are immutable after
construction and fully reproducible: the same (spec, K, seed, barrier) always
yields bit-identical data.

Determinism contract
--------------------
Normals come from numpy's Philox counter-based bit generator seeded with the
64-bit ensemble seed, drawn in a single ``standard_normal((K, N, D))`` call
(numpy's ziggurat transform).  That one normals buffer is turned into price
ratios in place.  This is byte-stable across runs and machines for a fixed
numpy major version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TRAIN_LABEL = "training"
TEST_LABEL = "test"


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
        if np.any(x0 <= 0):
            raise ValueError("x0 must be positive")
        if np.any(vols < 0):
            raise ValueError("vols must be nonnegative")

    @classmethod
    def symmetric(cls, dim, x0, mu, sigma, maturity, steps) -> "GbmSpec":
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        return cls(dim, x0, mu, np.full(dim, float(sigma)), maturity, steps)

    @classmethod
    def asymmetric(cls, dim, x0, mu, maturity, steps) -> "GbmSpec":
        return cls(dim, x0, mu, asymmetric_vols(dim), maturity, steps)


@dataclass(frozen=True)
class PathEnsemble:
    """K sampled paths of length N+1 in D dimensions sharing an initial point.

    ``data`` has shape (K, N+1, D) with ``data[k, 0] == initial`` for every k.
    When ``has_barrier_indicator`` is set, the last coordinate is the running
    knock-out indicator (1 while the running maximum of the asset coordinates
    stays at or below the barrier, 0 forever after a breach).
    """

    num_paths: int
    num_steps: int
    dim: int
    initial: np.ndarray
    data: np.ndarray
    seed: int
    label: str
    has_barrier_indicator: bool = False

    def __post_init__(self):
        if self.label not in (TRAIN_LABEL, TEST_LABEL):
            raise ValueError(f"label must be {TRAIN_LABEL!r} or {TEST_LABEL!r}")
        if self.data.shape != (self.num_paths, self.num_steps + 1, self.dim):
            raise ValueError("data shape does not match (K, N+1, D)")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("non-finite path entries")
        if not np.array_equal(self.data[:, 0, :], np.broadcast_to(self.initial, (self.num_paths, self.dim))):
            raise ValueError("data[:, 0] must equal the shared initial point")
        self.data.setflags(write=False)
        self.initial.setflags(write=False)

    def state_at(self, n: int) -> np.ndarray:
        """(K, D) cross-section of all paths at step n."""
        return self.data[:, n, :]


def generate_gbm(spec: GbmSpec, num_paths: int, seed: int, label: str = TRAIN_LABEL,
                 barrier: float | None = None) -> PathEnsemble:
    """Simulate a GBM ensemble, with the knock-out indicator when ``barrier`` is given.

    data[k, n, d] = x0[d] * exp{(mu - vols[d]^2/2) * n*T/N
                               + vols[d] * sqrt(T/N) * sum_{n'<=n} eps[k, n', d]}
    with eps i.i.d. standard normal from a Philox stream seeded with ``seed``.

    With a barrier, coordinate D at step n is 1 exactly when the maximum over
    all asset coordinates and all steps n' <= n stays at or below ``barrier``,
    and 0 otherwise, so it never rises again after a breach.

    ``data`` is allocated once, at its final shape.  The one normals buffer is
    scaled, shifted, summed and exponentiated in place, then multiplied by x0
    into the asset columns.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    if barrier is not None and barrier <= 0:
        raise ValueError("barrier must be positive")
    K, N, D = num_paths, spec.steps, spec.dim
    width = D + (barrier is not None)
    dt = spec.maturity / N
    rng = np.random.Generator(np.random.Philox(seed))
    ratio = rng.standard_normal((K, N, D))
    ratio *= spec.vols * np.sqrt(dt)
    ratio += (spec.mu - 0.5 * spec.vols**2) * dt
    np.cumsum(ratio, axis=1, out=ratio)
    # exp runs on the contiguous buffer: numpy's strided exp loop may round differently
    np.exp(ratio, out=ratio)
    data = np.empty((K, N + 1, width))
    assets = data[:, :, :D]
    assets[:, 0] = spec.x0
    np.multiply(spec.x0, ratio, out=assets[:, 1:])
    if barrier is not None:
        data[:, :, D] = np.maximum.accumulate(assets.max(axis=2), axis=1) <= barrier
    return PathEnsemble(K, N, width, data[0, 0].copy(), data, seed, label,
                        has_barrier_indicator=barrier is not None)


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
                    fh.write(f"{k},{n},{d},{paths.data[k, n, d]:.17g}\n")
