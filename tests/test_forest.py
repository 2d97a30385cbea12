"""Random-forest tests with a brute-force Gini split oracle and the
per-candidate split loop as a bitwise oracle."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semcom import forest as forest_module
from semcom.accel import Posture
from semcom.forest import (_NO_CHILD, N_CLASSES, RandomForest, Tree, best_gini_split,
                           forest_from_arrays, forest_to_arrays, gini,
                           load_forest, save_forest, train_forest)


def brute_force_best_split(u, y, n_classes=4):
    """Exhaustive weighted-Gini scan over midpoints of sorted unique values."""
    values = np.unique(u)
    best = None
    for lo, hi in zip(values[:-1], values[1:]):
        threshold = 0.5 * (lo + hi)
        left = y[u < threshold]
        right = y[u >= threshold]
        if left.size == 0 or right.size == 0:
            continue

        def impurity(labels):
            counts = np.bincount(labels, minlength=n_classes)
            p = counts / labels.size
            return 1.0 - np.sum(p * p)

        cost = (left.size * impurity(left) + right.size * impurity(right)) / u.size
        if best is None or cost < best[1]:
            best = (threshold, cost)
    return best


def loop_gini(counts):
    """Gini impurity of a class-count vector (the scalar gini as it was
    before it took rows, kept verbatim but for its name)."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def loop_best_gini_split(u, y):
    """best_gini_split as it was before it scored all candidates at once,
    kept verbatim but for the names of it and its gini: one candidate at a
    time, replaced only by a strictly lower cost."""
    order = np.argsort(u, kind="stable")
    us = u[order]
    ys = y[order]
    n = us.size
    one_hot = np.zeros((n, N_CLASSES))
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
        cost = (i * loop_gini(left) + (n - i) * loop_gini(right)) / n
        if best is None or cost < best[1]:
            best = (float(threshold), float(cost))
    return best


def max_path_depth(tree, node=0):
    """Internal nodes on the deepest root-to-leaf path below node."""
    if tree.left[node] == _NO_CHILD:
        return 0
    return 1 + max(max_path_depth(tree, int(tree.left[node])),
                   max_path_depth(tree, int(tree.right[node])))


def clusters(means, sigma, n_per, seed):
    rng = np.random.default_rng(seed)
    u, y = [], []
    for cls, mean in enumerate(means):
        u.extend(rng.normal(mean, sigma, n_per))
        y.extend([cls] * n_per)
    return np.array(u), np.array(y, dtype=np.int64)


class TestSplitOracle:
    def test_best_split_matches_brute_force(self):
        u, y = clusters([-0.5, 0.5], 0.1, 30, seed=1)
        mine = best_gini_split(u, y)
        ref = brute_force_best_split(u, y)
        assert mine is not None and ref is not None
        assert mine[0] == pytest.approx(ref[0], abs=1e-12)
        assert mine[1] == pytest.approx(ref[1], abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_cases_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        u = rng.uniform(-1, 1, n)
        y = rng.integers(0, 4, n).astype(np.int64)
        mine = best_gini_split(u, y)
        ref = brute_force_best_split(u, y)
        if ref is None:
            assert mine is None
        else:
            assert mine[1] == pytest.approx(ref[1], abs=1e-12)

    def test_gini_values(self):
        rows = gini([[10, 0, 0, 0], [5, 5, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0]])
        assert rows.tolist() == [0.0, 0.5, 0.75, 0.0]
        assert gini(np.zeros((0, N_CLASSES))).shape == (0,)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 400), min_size=N_CLASSES,
                             max_size=N_CLASSES), min_size=1, max_size=20))
    def test_gini_rows_equal_the_scalar_gini(self, rows):
        got = gini(rows)
        assert got.shape == (len(rows),)
        for value, row in zip(got, rows):
            assert value.tobytes() == np.float64(loop_gini(row)).tobytes()


def planted_ties(seed, n):
    """n features rounded to 2 decimals (many ties), some replaced by the
    next float above another feature, so that adjacent-float midpoints
    that round onto the lower value come up; labels from 1 to 4 classes."""
    rng = np.random.default_rng(seed)
    u = np.round(rng.uniform(-1.0, 1.0, n), 2)
    planted = rng.integers(0, n, int(rng.integers(0, n // 3 + 1)))
    u[planted] = np.nextafter(u[rng.integers(0, n, planted.size)], np.inf)
    y = rng.integers(0, int(rng.integers(1, N_CLASSES + 1)), n)
    return u, y.astype(np.int64)


class TestOnePassSplit:
    """best_gini_split scores every candidate in one pass and gives the
    per-candidate loop's (threshold, cost) bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 400))
    @example(seed=0, n=2)
    @example(seed=7, n=400)
    def test_equals_the_loop_bitwise(self, seed, n):
        u, y = planted_ties(seed, n)
        got = best_gini_split(u, y)
        want = loop_best_gini_split(u, y)
        if want is None:
            assert got is None
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_degenerate_midpoint_skipped(self):
        # 1 + ulp/2 rounds to even, onto 1.0: the only candidate is no split
        u = np.array([1.0, np.nextafter(1.0, 2.0)])
        assert 0.5 * (u[0] + u[1]) == u[0]
        assert best_gini_split(u, np.array([0, 1])) is None
        # beside a valid candidate, the degenerate one still drops out
        u = np.array([0.0, 1.0, np.nextafter(1.0, 2.0)])
        assert best_gini_split(u, np.array([0, 1, 2])) == \
            loop_best_gini_split(u, np.array([0, 1, 2])) == (0.5, 1 / 3)

    def test_tie_keeps_the_lowest_threshold(self):
        # splitting off either end sample costs the same
        u = np.array([0.0, 1.0, 2.0])
        y = np.array([0, 1, 0])
        assert best_gini_split(u, y) == loop_best_gini_split(u, y) == \
            (0.5, 1 / 3)

    def test_gini_called_at_most_twice_per_split(self):
        counter = mock.patch.object(forest_module, "gini",
                                    wraps=forest_module.gini)
        splitter = mock.patch.object(forest_module, "best_gini_split",
                                     wraps=forest_module.best_gini_split)
        u, y = planted_ties(3, 400)
        with counter as gini_calls:
            assert best_gini_split(u, y) is not None
            assert gini_calls.call_count <= 2
        u, y = clusters([-0.5, 0.2, 0.7, 0.95], 0.2, 50, seed=4)
        with counter as gini_calls, splitter as split_calls:
            train_forest(u, y, seed=1)
            assert split_calls.call_count > 10
            assert gini_calls.call_count <= 2 * split_calls.call_count


class TestTraining:
    def test_single_class_gives_single_leaves(self):
        u = np.linspace(-0.2, 0.2, 20)
        y = np.full(20, 2, dtype=np.int64)
        forest = train_forest(u, y, n_trees=5, seed=3)
        for tree in forest.trees:
            assert tree.threshold.size == 1
            assert tree.predict_class(np.zeros(1)).tolist() == [2]
        assert forest.predict(np.array([123.0])).tolist() == [Posture.STANDING]

    def test_separable_clusters_train_perfectly(self):
        u, y = clusters([-0.9, 0.3, 0.7, 0.95], 0.02, 40, seed=5)
        forest = train_forest(u, y, seed=0)
        assert forest.predict(u).tolist() == y.tolist()

    def test_depth1_single_tree_equals_oracle_threshold(self):
        u, y = clusters([-0.5, 0.6], 0.05, 25, seed=9)
        forest = train_forest(u, y, n_trees=1, max_depth=1, seed=0)
        tree = forest.trees[0]
        assert tree.threshold.size == 3
        # the tree trains on a bootstrap resample; rebuild it for the oracle
        rng = np.random.Generator(np.random.Philox(key=np.uint64(0)))
        idx = rng.integers(0, u.size, u.size)
        ref = brute_force_best_split(u[idx], y[idx])
        assert tree.threshold[0] == float(np.float32(ref[0]))

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(11)
        u = rng.uniform(-1, 1, 200)
        y = rng.integers(0, 4, 200).astype(np.int64)
        forest = train_forest(u, y, n_trees=3, max_depth=4, seed=1)
        for tree in forest.trees:
            assert max_path_depth(tree) <= 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        u, y = clusters([-0.5, 0.5], 0.05, 10, seed=2)
        u[7] = bad
        with pytest.raises(ValueError, match="finite"):
            train_forest(u, y)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_forest(np.array([]), np.array([], dtype=np.int64))

    @pytest.mark.parametrize("n_trees", [0, -1])
    def test_no_trees_rejected(self, n_trees):
        u, y = clusters([-0.5, 0.5, 0.8, 0.95], 0.05, 5, seed=2)
        with pytest.raises(ValueError, match="at least one tree"):
            train_forest(u, y, n_trees=n_trees)

    @pytest.mark.parametrize("max_depth", [0, -1])
    def test_depth_below_one_rejected(self, max_depth):
        u, y = clusters([-0.5, 0.5, 0.8, 0.95], 0.05, 5, seed=2)
        with pytest.raises(ValueError, match="max_depth"):
            train_forest(u, y, max_depth=max_depth)

    def test_determinism(self):
        u, y = clusters([-0.5, 0.5, 0.8, 0.95], 0.05, 20, seed=2)
        f1 = train_forest(u, y, seed=77)
        f2 = train_forest(u, y, seed=77)
        for t1, t2 in zip(f1.trees, f2.trees):
            np.testing.assert_array_equal(t1.threshold, t2.threshold)
            np.testing.assert_array_equal(t1.hist, t2.hist)


class TestPrediction:
    def _leaf_tree(self, hist):
        return Tree(np.zeros(1), np.array([-1]), np.array([-1]),
                    np.array([hist], dtype=np.float64))

    def test_vote_tie_goes_to_lowest_code(self):
        forest = RandomForest([self._leaf_tree([0, 5, 0, 0]),
                               self._leaf_tree([5, 0, 0, 0])])
        assert forest.predict(np.zeros(1)).tolist() == [Posture.LYING]

    def test_leaf_tie_goes_to_lowest_code(self):
        forest = RandomForest([self._leaf_tree([3, 3, 0, 0])])
        assert forest.predict(np.zeros(1)).tolist() == [Posture.LYING]

    def test_identical_trees_match_single_tree(self):
        u, y = clusters([-0.5, 0.9], 0.05, 20, seed=4)
        single = train_forest(u, y, n_trees=1, seed=5)
        triple = RandomForest(single.trees * 3)
        grid = np.linspace(-1, 1, 21)
        assert single.predict(grid).tolist() == triple.predict(grid).tolist()

    def test_duplicating_trees_invariant(self):
        u, y = clusters([-0.5, 0.2, 0.7, 0.95], 0.05, 20, seed=6)
        forest = train_forest(u, y, seed=8)
        doubled = RandomForest(forest.trees * 2)
        grid = np.linspace(-1.2, 1.2, 30)
        assert forest.predict(grid).tolist() == doubled.predict(grid).tolist()

    def test_extrapolation_below_range(self):
        u, y = clusters([0.2, 0.8], 0.05, 30, seed=7)
        forest = train_forest(u, y, seed=9)
        far, near = forest.predict(np.array([-100.0, 0.0]))
        assert far == near


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        u, y = clusters([-0.9, 0.3, 0.7, 0.95], 0.02, 30, seed=10)
        forest = train_forest(u, y, seed=4)
        path = tmp_path / "forest.semw"
        save_forest(path, forest)
        loaded = load_forest(path)
        assert len(loaded.trees) == len(forest.trees)
        for t1, t2 in zip(forest.trees, loaded.trees):
            np.testing.assert_array_equal(t1.threshold, t2.threshold)
            np.testing.assert_array_equal(t1.left, t2.left)
            np.testing.assert_array_equal(t1.right, t2.right)
            np.testing.assert_array_equal(t1.hist, t2.hist)
        # and the files themselves are stable
        path2 = tmp_path / "forest2.semw"
        save_forest(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_arrays_round_trip(self):
        u, y = clusters([-0.5, 0.5], 0.05, 15, seed=11)
        forest = train_forest(u, y, n_trees=2, seed=2)
        rebuilt = forest_from_arrays(forest_to_arrays(forest))
        grid = np.linspace(-1, 1, 11)
        assert forest.predict(grid).tolist() == rebuilt.predict(grid).tolist()

    def test_missing_meta_rejected(self):
        from semcom.weights_io import ContainerFormatError
        with pytest.raises(ContainerFormatError, match="meta"):
            forest_from_arrays({})


def _corrupt_forest_file(tmp_path, corrupt):
    """A saved two-tree forest whose arrays ``corrupt`` edits in place,
    rewritten through write_arrays."""
    from semcom.weights_io import write_arrays
    u, y = clusters([-0.9, 0.3, 0.7, 0.95], 0.02, 30, seed=10)
    arrays = forest_to_arrays(train_forest(u, y, n_trees=2, seed=4))
    assert arrays["tree0.children"].shape[1] >= 3   # the root is inner
    corrupt(arrays)
    path = tmp_path / "forest.semw"
    write_arrays(path, arrays)
    return path


def _set(name, index, value):
    def corrupt(arrays):
        arrays[name][index] = value
    return corrupt


def _replace(name, make):
    def corrupt(arrays):
        arrays[name] = make(arrays[name])
    return corrupt


class TestUnusableForestFiles:
    """Files SEMW reads but the forest cannot use fail at load with
    ContainerFormatError, not later in predict."""

    @pytest.mark.parametrize("corrupt", [
        _set("forest.meta", 2, np.inf),     # once OverflowError in int()
        _set("forest.meta", 0, 1.5),
        _set("forest.meta", 0, 0.0),
        _set("forest.meta", 1, 3.0),
        _set("forest.meta", 2, 0.0),
        _replace("forest.meta", lambda meta: meta[:3]),
    ], ids=["inf", "fractional", "no-trees", "classes", "depth", "length"])
    def test_bad_meta(self, tmp_path, corrupt):
        from semcom.weights_io import ContainerFormatError
        path = _corrupt_forest_file(tmp_path, corrupt)
        with pytest.raises(ContainerFormatError, match="forest.meta"):
            load_forest(path)

    @pytest.mark.parametrize("corrupt", [
        _replace("tree0.threshold", lambda a: a[None, :]),
        _replace("tree0.children", lambda a: a[:, :-1]),
        _replace("tree0.children", lambda a: np.vstack([a, a[:1]])),
        _replace("tree0.hist", lambda a: a[:, :-1]),
        _replace("tree1.hist", lambda a: a[:-1]),
    ], ids=["threshold-rank", "children-count", "children-rows",
            "hist-classes", "hist-nodes"])
    def test_bad_shapes(self, tmp_path, corrupt):
        from semcom.weights_io import ContainerFormatError
        path = _corrupt_forest_file(tmp_path, corrupt)
        with pytest.raises(ContainerFormatError, match="shapes"):
            load_forest(path)

    @pytest.mark.parametrize("corrupt", [
        _set("tree0.children", (0, 0), 99.0),   # once IndexError in predict
        _set("tree0.children", (0, 0), 0.0),    # once a predict that hung
        _set("tree0.children", (1, 0), -1.0),
        _set("tree0.children", (0, 0), 1.5),
        _set("tree0.children", (0, -1), 1.0),
        _set("tree0.children", (1, 1), 0.0),
    ], ids=["out-of-range", "self-loop", "half-leaf", "fractional",
            "leaf-with-child", "back-edge"])
    def test_bad_child_links(self, tmp_path, corrupt):
        from semcom.weights_io import ContainerFormatError
        path = _corrupt_forest_file(tmp_path, corrupt)
        with pytest.raises(ContainerFormatError, match="tree 0"):
            load_forest(path)

    def test_tree_without_nodes(self):
        # SEMW files cannot hold an empty array; in-memory arrays can
        from semcom.weights_io import ContainerFormatError
        u, y = clusters([-0.5, 0.5], 0.05, 15, seed=11)
        arrays = forest_to_arrays(train_forest(u, y, n_trees=1, seed=2))
        arrays["tree0.threshold"] = np.empty(0)
        arrays["tree0.children"] = np.empty((2, 0))
        arrays["tree0.hist"] = np.empty((0, N_CLASSES))
        with pytest.raises(ContainerFormatError, match="n >= 1"):
            forest_from_arrays(arrays)


def scalar_predict_class(tree, u):
    """Tree.predict_class as it was before it took arrays, kept verbatim as
    the oracle: one node at a time."""
    node = 0
    while tree.left[node] != _NO_CHILD:
        node = tree.left[node] if u < tree.threshold[node] else tree.right[node]
    return int(np.argmax(tree.hist[node]))   # lowest code wins ties


def scalar_predict(forest, u):
    """RandomForest.predict as it was before it took arrays, kept verbatim
    as the oracle."""
    votes = np.bincount([scalar_predict_class(t, u) for t in forest.trees],
                        minlength=forest.n_classes)
    return Posture(int(np.argmax(votes)))


def leaf_tree(hist):
    return Tree(np.zeros(1), np.array([-1]), np.array([-1]),
                np.array([hist], dtype=np.float64))


def random_tree(rng, depth):
    """A full tree of the given depth with random thresholds and small
    integer leaf histograms, so leaf ties are common."""
    thresholds, lefts, rights, hists = [], [], [], []

    def build(level):
        node = len(thresholds)
        thresholds.append(float(rng.uniform(-1.0, 1.0)))
        lefts.append(_NO_CHILD)
        rights.append(_NO_CHILD)
        hists.append(rng.integers(0, 3, 4).astype(np.float64))
        if level < depth and rng.random() < 0.8:
            lefts[node] = build(level + 1)
            rights[node] = build(level + 1)
        return node

    build(0)
    return Tree(np.array(thresholds), np.array(lefts, dtype=np.int64),
                np.array(rights, dtype=np.int64), np.stack(hists))


class TestVectorizedVotes:
    """predict over an array of features equals the per-tree scalar
    traversal feature by feature, vote and leaf ties included."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 4))
    def test_random_forests_match_scalar_traversal(self, seed, n_trees, depth):
        rng = np.random.default_rng(seed)
        forest = RandomForest([random_tree(rng, depth) for _ in range(n_trees)])
        us = np.concatenate([rng.uniform(-1.2, 1.2, 200),
                             forest.trees[0].threshold,   # exactly on a split
                             [np.nan, np.inf, -np.inf, 0.0, -0.0]])
        codes = forest.predict(us)
        assert codes.shape == us.shape and codes.dtype == np.int64
        assert codes.tolist() == [int(scalar_predict(forest, v)) for v in us]
        for tree in forest.trees:
            assert tree.predict_class(us).tolist() == [
                scalar_predict_class(tree, v) for v in us]

    def test_trained_forest_matches_scalar_traversal(self):
        u, y = clusters([-0.9, 0.3, 0.7, 0.95], 0.1, 40, seed=12)
        forest = train_forest(u, y, seed=3)
        grid = np.linspace(-1.2, 1.2, 2001)
        assert forest.predict(grid).tolist() == [
            int(scalar_predict(forest, v)) for v in grid]

    def test_vote_tie_goes_to_lowest_code(self):
        forest = RandomForest([leaf_tree([0, 0, 5, 0]), leaf_tree([0, 4, 0, 0]),
                               leaf_tree([1, 1, 1, 1]), leaf_tree([0, 0, 0, 2])])
        # votes: 1 LYING (leaf tie), 1 SITTING, 1 STANDING, 1 WALKING
        assert forest.predict(np.zeros(3)).tolist() == [0, 0, 0]
        assert scalar_predict(forest, 0.0) == Posture.LYING
