"""Random-forest posture classifier over the scalar gravity-cosine feature.

Trees are grown greedily on bootstrap resamples: candidate thresholds are
the midpoints between consecutive sorted unique feature values. A node
scores all of its candidates in one numpy pass (class-count prefix sums,
then the weighted Gini impurity of every left and right side at once) and
takes the first minimum, so the lowest threshold wins ties. A node becomes
a leaf when it is pure, the depth limit is reached, it holds fewer than
two samples, or no candidate split exists.

Prediction takes an array of features and returns an int64 array of
posture codes, one vote per tree and feature.

Each tree is stored as flat node arrays (threshold, children, class-count
histograms), which is also the on-disk layout inside the SEMW container.
Thresholds are kept on the float32 grid so persistence is exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accel import Posture
from .channel import _philox
from . import weights_io

N_CLASSES = len(Posture)
DEFAULT_N_TREES = 10
DEFAULT_MAX_DEPTH = 4
_NO_CHILD = -1


def gini(counts):
    """Gini impurity of each row of an (..., n_classes) array of class
    counts: 1 - the sum of squared class shares, summed in class order.
    A row with no samples has impurity 0."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum(axis=-1, keepdims=True)
    p = np.divide(counts, total, out=np.zeros_like(counts), where=total > 0)
    square_sum = np.zeros(counts.shape[:-1])
    for c in range(counts.shape[-1]):
        square_sum += p[..., c] * p[..., c]
    return np.where(total[..., 0] > 0, 1.0 - square_sum, 0.0)


def best_gini_split(u, y):
    """Best (threshold, weighted_gini) over midpoint candidates, or None.

    Samples go left when u < threshold. All candidates are scored at once;
    the first minimum in ascending threshold order wins, so ties keep the
    lowest threshold.
    """
    order = np.argsort(u, kind="stable")
    us = u[order]
    ys = y[order]
    n = us.size
    one_hot = np.zeros((n, N_CLASSES))
    one_hot[np.arange(n), ys] = 1.0
    prefix = np.cumsum(one_hot, axis=0)
    # candidate i splits between sorted positions i-1 and i
    i = np.nonzero(us[1:] > us[:-1])[0] + 1
    threshold = 0.5 * (us[i - 1] + us[i])
    # the midpoint of adjacent floats can round onto the lower one
    valid = (us[i - 1] < threshold) & (threshold <= us[i])
    i, threshold = i[valid], threshold[valid]
    if i.size == 0:
        return None
    left = prefix[i - 1]
    right = prefix[-1] - left
    cost = (i * gini(left) + (n - i) * gini(right)) / n
    best = int(np.argmin(cost))
    return float(threshold[best]), float(cost[best])


@dataclass
class Tree:
    """Flat-array decision tree; leaves have left == right == -1."""

    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    hist: np.ndarray   # (nodes, classes) class counts

    def predict_class(self, u):
        """int64 array of the class of the leaf each feature of u reaches."""
        u = np.asarray(u, dtype=np.float64)
        node = np.zeros(u.shape, dtype=np.int64)
        inner = self.left[node] != _NO_CHILD
        while inner.any():
            down = np.where(u < self.threshold[node], self.left[node],
                            self.right[node])
            node = np.where(inner, down, node)
            inner = self.left[node] != _NO_CHILD
        return np.argmax(self.hist, axis=1)[node]   # lowest code wins ties


def _grow_tree(u, y, max_depth):
    thresholds, lefts, rights, hists = [], [], [], []

    def add_node():
        thresholds.append(0.0)
        lefts.append(_NO_CHILD)
        rights.append(_NO_CHILD)
        hists.append(np.zeros(N_CLASSES))
        return len(thresholds) - 1

    def build(idx_u, idx_y, depth):
        node = add_node()
        counts = np.bincount(idx_y, minlength=N_CLASSES).astype(np.float64)
        hists[node] = counts
        if (depth >= max_depth or idx_u.size < 2
                or np.count_nonzero(counts) <= 1):
            return node
        split = best_gini_split(idx_u, idx_y)
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
        """int64 array of posture codes, one per feature of the array u:
        the plurality of the trees' votes, ties going to the lowest code."""
        classes = np.array([t.predict_class(u) for t in self.trees])
        votes = np.count_nonzero(
            classes[..., None] == np.arange(self.n_classes), axis=0)
        return np.argmax(votes, axis=-1)


def train_forest(u, y, n_trees=DEFAULT_N_TREES, max_depth=DEFAULT_MAX_DEPTH,
                 seed=0):
    """Fit a forest on scalar features u with integer labels y.

    Each tree sees a same-size bootstrap resample (with replacement) drawn
    from a Philox stream keyed by ``seed``. Determinism is defined with
    respect to the stored order of the training arrays.
    """
    u = np.asarray(u, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not np.isfinite(u).all():
        raise ValueError("features must be finite")
    if n_trees < 1:
        raise ValueError(f"a forest needs at least one tree, got {n_trees}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    if u.size == 0:
        raise ValueError("cannot train a forest on an empty feature set")
    if u.shape != y.shape:
        raise ValueError("features and labels must align")
    if y.min() < 0 or y.max() >= N_CLASSES:
        raise ValueError(f"labels must be in [0, {N_CLASSES})")
    rng = _philox(seed)
    trees = []
    for _ in range(n_trees):
        idx = rng.integers(0, u.size, u.size)
        trees.append(_grow_tree(u[idx], y[idx], max_depth))
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


def _checked_tree(i, threshold, children, hist):
    """Tree i from its stored arrays, refusing any that ``predict_class``
    could not walk: node j's children are either both -1 (a leaf) or both
    in (j, n), the depth-first numbering ``_grow_tree`` writes, so every
    walk ends at a leaf."""
    n = threshold.shape[0] if threshold.ndim == 1 else 0
    if (n < 1 or children.shape != (2, n)
            or hist.shape != (n, N_CLASSES)):
        raise weights_io.ContainerFormatError(
            f"tree {i} arrays have shapes {threshold.shape}, "
            f"{children.shape} and {hist.shape}, expected (n,), (2, n) and "
            f"(n, {N_CLASSES}) with n >= 1")
    node = np.arange(n)
    leaf = (children == _NO_CHILD).all(axis=0)
    inner = ((children > node) & (children < n)
             & (children == np.floor(children))).all(axis=0)
    if not (leaf | inner).all():
        raise weights_io.ContainerFormatError(
            f"tree {i} has a child link outside its depth-first order")
    return Tree(threshold, children[0].astype(np.int64),
                children[1].astype(np.int64), hist)


def forest_from_arrays(arrays):
    try:
        meta = arrays["forest.meta"]
    except KeyError:
        raise weights_io.ContainerFormatError("missing forest.meta array") from None
    if (meta.shape != (4,) or not np.isfinite(meta).all()
            or (meta != np.floor(meta)).any()):
        raise weights_io.ContainerFormatError(
            "forest.meta must hold 4 finite integers")
    n_trees, n_classes, max_depth, seed = (int(v) for v in meta)
    if n_trees < 1 or n_classes != N_CLASSES or max_depth < 1:
        raise weights_io.ContainerFormatError(
            f"forest.meta needs >= 1 tree, {N_CLASSES} classes and "
            f"max_depth >= 1, got {n_trees}, {n_classes} and {max_depth}")
    trees = []
    for i in range(n_trees):
        try:
            threshold = arrays[f"tree{i}.threshold"]
            children = arrays[f"tree{i}.children"]
            hist = arrays[f"tree{i}.hist"]
        except KeyError as exc:
            raise weights_io.ContainerFormatError(f"missing arrays for tree {i}") from exc
        trees.append(_checked_tree(i, threshold, children, hist))
    return RandomForest(trees, n_classes, max_depth, seed)


def save_forest(path, forest):
    weights_io.write_arrays(path, forest_to_arrays(forest))


def load_forest(path):
    return forest_from_arrays(weights_io.read_arrays(path))
