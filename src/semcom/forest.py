"""Random-forest posture classifier over the scalar gravity-cosine feature.

Trees are grown greedily on bootstrap resamples: candidate thresholds are
the midpoints between consecutive sorted unique feature values, scored by
weighted Gini impurity; the earliest candidate (in ascending threshold
order) wins ties. A node becomes a leaf when it is pure, the depth limit
is reached, it holds fewer than two samples, or no candidate split exists.

Each tree is stored as flat node arrays (threshold, children, class-count
histograms), which is also the on-disk layout inside the SEMW container.
Thresholds are kept on the float32 grid so persistence is exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accel import Posture
from . import weights_io

N_CLASSES = len(Posture)
DEFAULT_N_TREES = 10
DEFAULT_MAX_DEPTH = 4
_NO_CHILD = -1


def gini(counts):
    """Gini impurity of a class-count vector."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def best_gini_split(u, y, n_classes=N_CLASSES):
    """Best (threshold, weighted_gini) over midpoint candidates, or None.

    Samples go left when u < threshold. Candidates are scanned in
    ascending order and a strictly better cost is required to replace the
    incumbent, so ties keep the lowest threshold.
    """
    order = np.argsort(u, kind="stable")
    us = u[order]
    ys = y[order]
    n = us.size
    one_hot = np.zeros((n, n_classes))
    one_hot[np.arange(n), ys] = 1.0
    prefix = np.cumsum(one_hot, axis=0)
    total = prefix[-1]
    # candidate i splits between sorted positions i-1 and i
    boundaries = np.nonzero(us[1:] > us[:-1])[0] + 1
    best = None
    for i in boundaries:
        threshold = 0.5 * (us[i - 1] + us[i])
        if not (us[i - 1] < threshold <= us[i]):
            continue  # degenerate midpoint from adjacent floats
        left = prefix[i - 1]
        right = total - left
        cost = (i * gini(left) + (n - i) * gini(right)) / n
        if best is None or cost < best[1]:
            best = (float(threshold), float(cost))
    return best


@dataclass
class Tree:
    """Flat-array decision tree; leaves have left == right == -1."""

    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    hist: np.ndarray   # (n_nodes, n_classes) class counts

    def predict_class(self, u):
        """Class of the leaf that u reaches: an int for a scalar u, an
        int64 array for an array of features."""
        u = np.asarray(u, dtype=np.float64)
        node = np.zeros(u.shape, dtype=np.int64)
        inner = self.left[node] != _NO_CHILD
        while inner.any():
            down = np.where(u < self.threshold[node], self.left[node],
                            self.right[node])
            node = np.where(inner, down, node)
            inner = self.left[node] != _NO_CHILD
        leaf_class = np.argmax(self.hist, axis=1)[node]   # lowest code wins ties
        return int(leaf_class) if leaf_class.ndim == 0 else leaf_class

    @property
    def n_nodes(self):
        return self.threshold.size

    def max_path_depth(self):
        """Internal nodes on the deepest root-to-leaf path."""
        def depth(node):
            if self.left[node] == _NO_CHILD:
                return 0
            return 1 + max(depth(int(self.left[node])), depth(int(self.right[node])))
        return depth(0)


def _grow_tree(u, y, max_depth, n_classes):
    thresholds, lefts, rights, hists = [], [], [], []

    def add_node():
        thresholds.append(0.0)
        lefts.append(_NO_CHILD)
        rights.append(_NO_CHILD)
        hists.append(np.zeros(n_classes))
        return len(thresholds) - 1

    def build(idx_u, idx_y, depth):
        node = add_node()
        counts = np.bincount(idx_y, minlength=n_classes).astype(np.float64)
        hists[node] = counts
        if (depth >= max_depth or idx_u.size < 2
                or np.count_nonzero(counts) <= 1):
            return node
        split = best_gini_split(idx_u, idx_y, n_classes)
        if split is None:
            return node
        threshold = float(np.float32(split[0]))
        go_left = idx_u < threshold
        if not go_left.any() or go_left.all():
            return node  # float32 rounding collapsed the split
        thresholds[node] = threshold
        left_id = build(idx_u[go_left], idx_y[go_left], depth + 1)
        right_id = build(idx_u[~go_left], idx_y[~go_left], depth + 1)
        lefts[node] = left_id
        rights[node] = right_id
        return node

    build(u, y, 0)
    return Tree(np.array(thresholds), np.array(lefts, dtype=np.int64),
                np.array(rights, dtype=np.int64), np.stack(hists))


@dataclass
class RandomForest:
    trees: list
    n_classes: int = N_CLASSES
    max_depth: int = DEFAULT_MAX_DEPTH
    seed: int = 0

    def predict(self, u):
        """Plurality vote over tree class votes; ties go to the lowest code.

        A scalar u gives a Posture; an array of features gives an int64
        array of posture codes, one per feature.
        """
        classes = np.array([t.predict_class(u) for t in self.trees])
        votes = np.count_nonzero(
            classes[..., None] == np.arange(self.n_classes), axis=0)
        codes = np.argmax(votes, axis=-1)
        return Posture(int(codes)) if codes.ndim == 0 else codes


def train_forest(u, y, n_trees=DEFAULT_N_TREES, max_depth=DEFAULT_MAX_DEPTH,
                 seed=0):
    """Fit a forest on scalar features u with integer labels y.

    Each tree sees a same-size bootstrap resample (with replacement) drawn
    from a Philox stream keyed by ``seed``. Determinism is defined with
    respect to the stored order of the training arrays.
    """
    u = np.asarray(u, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if n_trees < 1:
        raise ValueError(f"a forest needs at least one tree, got {n_trees}")
    if u.size == 0:
        raise ValueError("cannot train a forest on an empty feature set")
    if u.shape != y.shape:
        raise ValueError("features and labels must align")
    if y.min() < 0 or y.max() >= N_CLASSES:
        raise ValueError(f"labels must be in [0, {N_CLASSES})")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    trees = []
    for _ in range(n_trees):
        idx = rng.integers(0, u.size, u.size)
        trees.append(_grow_tree(u[idx], y[idx], max_depth, N_CLASSES))
    return RandomForest(trees, N_CLASSES, max_depth, seed)


def forest_to_arrays(forest):
    """Flatten a forest into the named arrays stored in a SEMW container."""
    arrays = {
        "forest.meta": np.array(
            [len(forest.trees), forest.n_classes, forest.max_depth, forest.seed],
            dtype=np.float64),
    }
    for i, tree in enumerate(forest.trees):
        arrays[f"tree{i}.threshold"] = tree.threshold
        arrays[f"tree{i}.children"] = np.stack(
            [tree.left, tree.right]).astype(np.float64)
        arrays[f"tree{i}.hist"] = tree.hist
    return arrays


def forest_from_arrays(arrays):
    try:
        meta = arrays["forest.meta"]
    except KeyError:
        raise weights_io.ContainerFormatError("missing forest.meta array") from None
    n_trees, n_classes, max_depth, seed = (int(v) for v in meta)
    trees = []
    for i in range(n_trees):
        try:
            threshold = arrays[f"tree{i}.threshold"]
            children = arrays[f"tree{i}.children"]
            hist = arrays[f"tree{i}.hist"]
        except KeyError as exc:
            raise weights_io.ContainerFormatError(f"missing arrays for tree {i}") from exc
        trees.append(Tree(threshold,
                          children[0].astype(np.int64),
                          children[1].astype(np.int64),
                          hist))
    return RandomForest(trees, n_classes, max_depth, seed)


def save_forest(path, forest):
    weights_io.write_arrays(path, forest_to_arrays(forest))


def load_forest(path):
    return forest_from_arrays(weights_io.read_arrays(path))
