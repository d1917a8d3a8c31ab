"""Binary decision trees with {0,1} leaves grown on signed reward increments.

Training data for one tree is a set of feature points, each carrying a signed
increment delta (continuation reward minus immediate reward, in 1/K units).
Duplicate points are first merged by ``removal``: a group of m equal points
becomes one sample with the group-average delta and multiplicity m.  All
score and leaf-sign computations then use the effective per-point weight
m * delta, which preserves weighted sums over the original data.

``removal`` sorts each dim of the input once, stably.  Duplicates are found
from those sorts (ties go to the first occurrence), and the same sorts,
filtered to the merged rows, become the samples' per-dim ``orders`` that
``grow`` partitions down the tree without sorting again.

``grow`` is the one node decision, with two splitters:

* ``prototype`` always splits multi-point nodes at the position whose
  one-sided partial-sum magnitude is largest, driving nodes down to single
  points.  The resulting tree attains the training-data minimum of
  sum_k w_k * g(point_k) over all {0,1}-valued g.
* ``delta`` performs the same scan but only splits when the best score
  strictly exceeds |total weight|; otherwise the node becomes a leaf whose
  weight is 1 (STOP) for strictly negative total and 0 (CONTINUE) otherwise.
  This is the data-driven size control used throughout training.

One routing rule serves training and prediction: a split node sends x to its
left child iff x[dim] <= threshold.  ``grow`` partitions a node's samples by
that test and ``CartTree.predict`` routes query rows by it; thresholds are the
left boundary sample value itself.  A leaf weight of 1 means STOP, 0 CONTINUE.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DeltaSamples:
    """Merged (point, delta, multiplicity) training set with distinct points.

    points: (m, d) array of pairwise-distinct rows, first-occurrence order.
    delta:  (m,) group-average increments.
    mult:   (m,) group sizes (1 unless duplicates were merged).
    orders: d index arrays; orders[j] lists 0..m-1 sorted by (points[:, j],
            row index), the root orderings ``grow`` filters down the tree.
    """

    points: np.ndarray
    delta: np.ndarray
    mult: np.ndarray
    orders: tuple

    def __post_init__(self):
        if self.points.ndim != 2:
            raise ValueError("points must be a (m, d) matrix")
        m, d = self.points.shape
        if self.delta.shape != (m,) or self.mult.shape != (m,):
            raise ValueError("delta/mult length must match points")
        if len(self.orders) != d or any(o.shape != (m,) for o in self.orders):
            raise ValueError("need one length-m order per dim")
        if m and self.mult.min() < 1:
            raise ValueError("multiplicities must be >= 1")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def weight(self) -> np.ndarray:
        """Effective per-point weight m_k * delta_k."""
        return self.mult * self.delta


def removal(points, deltas) -> DeltaSamples:
    """Merge duplicate points, averaging their deltas and recording group size.

    Grouping is by exact equality of the full point vector (so 0.0 equals
    -0.0); each group keeps its first occurrence's point, and output order is
    the order of first occurrence.  For any {0,1} function g evaluated on the
    output, sum(mult * delta * g(point)) equals the weighted sum over the
    unmerged input.

    Every dim is sorted once, stably.  A row can equal another only if it ties
    a neighbour in every dim's order, so only those candidate rows are grouped
    by a lexsort.  Group sums accumulate in input row order.  The per-dim
    sorts, filtered to the kept rows, are the merged samples' ``orders``: a
    merged index grows with the original one, so ties stay in index order.

    A NaN or infinite coordinate or delta raises ValueError: a NaN fails every
    threshold test, so it could not be routed like the point it was split as.
    Points that are not an (m, d) matrix with d >= 1 raise ValueError too.
    """
    pts = np.asarray(points, dtype=float)
    dl = np.asarray(deltas, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise ValueError(f"points must be a (m, d) matrix with d >= 1, got shape {pts.shape}")
    if pts.shape[0] != dl.shape[0]:
        raise ValueError("points and deltas must have equal length")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(dl))):
        raise ValueError("non-finite point or delta entries")
    m, dims = pts.shape
    orders = [np.argsort(pts[:, d], kind="stable") for d in range(dims)]
    candidate = np.ones(m, dtype=bool)
    for d, order in enumerate(orders):
        vals = pts[order, d]
        ties = vals[1:] == vals[:-1]
        tied = np.zeros(m, dtype=bool)
        tied[1:] = ties
        tied[:-1] |= ties
        candidate[order] &= tied
    # first[i]: the first row equal to row i (row i itself unless duplicated)
    first = np.arange(m)
    rows = np.flatnonzero(candidate)
    if rows.shape[0]:
        # lexsort is stable, so each group lists its rows in input order
        rows = rows[np.lexsort(pts[rows].T[::-1])]
        grouped = pts[rows]
        starts = np.ones(rows.shape[0], dtype=bool)
        starts[1:] = np.any(grouped[1:] != grouped[:-1], axis=1)
        first[rows] = rows[starts][np.cumsum(starts) - 1]
    keep = first == np.arange(m)
    merged = np.cumsum(keep) - 1
    label = merged[first]
    counts = np.bincount(label)
    sums = np.bincount(label, weights=dl)
    return DeltaSamples(pts[keep], sums / counts, counts.astype(np.int64, copy=False),
                        tuple(merged[o[keep[o]]] for o in orders))


def _decide(points: np.ndarray, weight: np.ndarray, orders, total: float,
            prototype: bool) -> tuple[int, float] | None:
    """The ``(dim, threshold)`` one node splits at, or None when it stays a leaf.

    This is the split rule of both splitters.  ``orders`` holds, per dim, the
    node's row indices sorted by (coordinate, original sample index);
    ``total`` is the node's weight sum (accumulated in original sample order,
    so decisions are reproducible bit for bit).  A single row is a leaf.

    Positions are valid only where consecutive sorted coordinates strictly
    increase, so the emitted <=-threshold reproduces the sorted partition.
    Score of a position is max(|prefix weight sum|, |total - prefix|); ties
    are broken by the first strict improvement scanning dims ascending and
    sorted positions ascending.  The delta splitter splits only when the best
    score strictly exceeds |total|; the prototype splitter always splits.
    """
    if orders[0].shape[0] == 1:
        return None
    best = None
    for d, order in enumerate(orders):
        vals = points[order, d]
        if vals[0] == vals[-1]:
            continue
        prefix = np.cumsum(weight[order])[:-1]
        scores = np.maximum(np.abs(prefix), np.abs(total - prefix))
        scores[vals[:-1] >= vals[1:]] = -np.inf
        k = int(np.argmax(scores))
        if best is None or scores[k] > best[0]:
            best = (float(scores[k]), d, float(vals[k]))
    if best is None and prototype:
        raise RuntimeError("no valid split position: points not distinct")
    if best is None or (not prototype and best[0] <= abs(total)):
        return None
    return best[1:]


DELTA = "delta"
PROTOTYPE = "prototype"


@dataclass(frozen=True)
class GrowConfig:
    """Ad hoc growth controls on top of the splitter's own size control."""

    max_depth: int = 10
    min_node_size: int = 10
    splitter: str = DELTA

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_node_size < 1:
            raise ValueError("min_node_size must be >= 1")
        if self.splitter not in (DELTA, PROTOTYPE):
            raise ValueError(f"unknown splitter {self.splitter!r}")


class CartTree:
    """Binary tree over feature vectors with {0,1} leaf weights.

    ``nodes`` is the tuple of preorder nodes that ``grow`` builds and
    ``from_text`` parses, node i as ``(feature, threshold, left, right,
    leaf)``.  A split node is ``(dim, threshold, left, right, 0)`` and routes
    x to ``left`` iff x[dim] <= threshold; a leaf is ``(-1, 0.0, -1, -1,
    weight)``.  Each node has this one form, so a grown tree and its parsed
    dump are equal node for node, and children come after their parent.

    ``predict`` evaluates a matrix by partition traversal: a stack of (node,
    row indices) pairs starts with the root holding every listed row; a split
    node compares only its own rows on its split column and pushes the two
    halves, and a STOP leaf marks its rows.  Each listed row is compared once
    per node on its root-to-leaf path and nowhere else.
    """

    __slots__ = ("nodes", "n_features")

    def __init__(self, nodes, n_features):
        self.nodes = tuple(nodes)
        self.n_features = int(n_features)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def predict(self, x, rows=None) -> np.ndarray:
        """(K,) int8 leaf weights reached by the listed ``rows`` (all by default)
        of a (K, d) matrix, 0 on the other rows.  Each split reads its column as
        one 1-D ``take``, contiguous when ``x`` is column-major (Fortran order);
        rows are routed by partition (see the class docstring)."""
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.n_features:
            raise ValueError(f"expected feature dim {self.n_features}, got shape {arr.shape}")
        cols = arr.T
        out = np.zeros(arr.shape[0], dtype=np.int8)
        stack = [(0, np.arange(arr.shape[0]) if rows is None else rows)]
        while stack:
            node, idx = stack.pop()
            f, threshold, left, right, leaf = self.nodes[node]
            if leaf:
                out[idx] = 1
            elif f >= 0 and idx.shape[0]:
                go_left = cols[f].take(idx) <= threshold
                stack.append((right, idx.compress(~go_left)))
                stack.append((left, idx.compress(go_left)))
        return out

    def to_text(self) -> str:
        """Line-oriented dump: ``id split dim threshold left right`` or ``id leaf weight``.

        Thresholds use repr (shortest float64 round-trip).  Stable within a
        major version.
        """
        lines = [f"tree nodes={self.n_nodes} features={self.n_features}"]
        for i, (f, threshold, left, right, leaf) in enumerate(self.nodes):
            lines.append(f"{i} split {f} {threshold!r} {left} {right}" if f >= 0
                         else f"{i} leaf {leaf}")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "CartTree":
        """Parse a ``to_text`` dump; ValueError names the first malformed line.

        Node lines must run 0..nodes-1 in order and every child id must exceed
        its parent's, as ``to_text`` writes them, so traversal always ends.
        Thresholds must be finite, as ``removal`` makes every trained one:
        no row passes a NaN test, and an infinite one sends every finite row one way.
        """
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        head = re.fullmatch(r"tree nodes=(\d+) features=(\d+)", lines[0].strip()) if lines else None
        if head is None or int(head[1]) < 1:
            raise ValueError(f"not a tree dump: {lines[0] if lines else text!r}")
        n, n_features = int(head[1]), int(head[2])
        if len(lines) != n + 1:
            raise ValueError(f"tree declares {n} nodes but has {len(lines) - 1} node lines")
        nodes = []
        for i, ln in enumerate(lines[1:]):
            parts = ln.split()
            try:
                if parts[:2] == [str(i), "split"] and len(parts) == 6:
                    f, lo, hi = int(parts[2]), int(parts[4]), int(parts[5])
                    thr = float(parts[3])
                    if not (0 <= f < n_features and i < lo < n and i < hi < n
                            and np.isfinite(thr)):
                        raise ValueError
                    nodes.append((f, thr, lo, hi, 0))
                elif parts in ([str(i), "leaf", "0"], [str(i), "leaf", "1"]):
                    nodes.append((-1, 0.0, -1, -1, int(parts[2])))
                else:
                    raise ValueError
            except (ValueError, OverflowError):
                raise ValueError(f"bad node line {ln!r}") from None
        return cls(nodes, n_features)


def grow(samples: DeltaSamples, config: GrowConfig) -> CartTree:
    """Recursively apply the configured splitter to build a tree.

    A node is a leaf when it sits at max_depth, holds fewer than min_node_size
    samples or ``_decide`` does not split it; a leaf's weight is 1 (STOP) iff
    the node's total weight is negative.  A split node sends its rows with
    x[dim] <= threshold to the left child, the rule ``CartTree.predict`` routes by.
    """
    if len(samples) == 0:
        raise ValueError("empty sample set")
    points = samples.points
    weight = samples.weight
    proto = config.splitter == PROTOTYPE
    nodes = []  # preorder (feature, threshold, left, right, leaf), as CartTree holds them
    # side[i] says whether row i goes left; each split writes it for its own
    # rows only and reads it back for them before either child overwrites it
    side = np.empty(len(samples), dtype=bool)

    # Each node carries its rows in original sample order, so weight totals
    # accumulate in one fixed order, and its per-dim orders, which come from
    # ``removal``'s sorts and are never re-sorted.
    def build(rows, orders, depth: int) -> int:
        node = len(nodes)
        total = float(np.sum(weight[rows]))
        split = None
        if depth < config.max_depth and rows.shape[0] >= config.min_node_size:
            split = _decide(points, weight, orders, total, proto)
        if split is None:
            # Nodes with an exactly-zero total arise only when every sample carries
            # a zero increment (continuation and immediate reward both worthless on
            # the ensemble).  Stopping there realizes nothing in sample and
            # generalizes worse out of sample, so such nodes are left running.
            nodes.append((-1, 0.0, -1, -1, int(total < 0)))
            return node
        dim, threshold = split
        nodes.append(None)
        go_left = points[rows, dim] <= threshold
        side[rows] = go_left
        masks = [side[o] for o in orders]
        left = build(rows[go_left], [o[g] for o, g in zip(orders, masks)], depth + 1)
        right = build(rows[~go_left], [o[~g] for o, g in zip(orders, masks)], depth + 1)
        nodes[node] = (dim, threshold, left, right, 0)
        return node

    build(np.arange(len(samples)), samples.orders, 0)
    return CartTree(nodes, points.shape[1])
