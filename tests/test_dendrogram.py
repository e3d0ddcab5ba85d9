"""Tree structure, path distances, theoretical matrices, fit diagnostics."""

import math
import warnings

import numpy as np
import pytest

import isolect.dendrogram
from isolect import (
    CoincidenceMatrix,
    DomainError,
    build_dendrogram,
    coincidence_from_distance,
    distance_matrix,
    fit_report,
    leaf_distances,
    path_distance,
    root_geometry,
    root_variants,
    theoretical_matrix,
)
from isolect.dendrogram import (
    ChainNode,
    Dendrogram,
    Leaf,
    RootLink,
    _paths,
    _with_lengths,
    ancestor_depth,
)


class TestPathDistance:
    def test_fig4_paths(self, fig4_tree):
        assert path_distance(fig4_tree, "1", "2") == pytest.approx(20.0, abs=1e-12)
        assert path_distance(fig4_tree, "1", "3") == pytest.approx(30.0, abs=1e-12)
        assert path_distance(fig4_tree, "2", "3") == pytest.approx(26.0, abs=1e-12)

    def test_same_leaf_is_zero(self, fig4_tree):
        assert path_distance(fig4_tree, "2", "2") == 0.0

    def test_symmetry(self, fig4_tree):
        assert path_distance(fig4_tree, "3", "1") == path_distance(fig4_tree, "1", "3")

    def test_unknown_leaf(self, fig4_tree):
        with pytest.raises(DomainError, match="unknown leaf"):
            path_distance(fig4_tree, "1", "zz")

    def test_chain_skipped_on_attach_side(self, fig4_tree):
        # language 2 hangs below the attach endpoint, so its path to 3 does
        # not cross the chain while language 1's does
        assert path_distance(fig4_tree, "1", "3") - path_distance(fig4_tree, "2", "3") == pytest.approx(4.0)

    def test_triangle_inequality_on_constructed_trees(self, table1, table2):
        for matrix in (table1, table2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tree, _ = build_dendrogram(matrix)
            dists = leaf_distances(tree)
            labels = tree.leaves()
            for a in labels:
                for b in labels:
                    for c in labels:
                        if len({a, b, c}) < 3:
                            continue
                        ab = dists[frozenset((a, b))]
                        bc = dists[frozenset((b, c))]
                        ac = dists[frozenset((a, c))]
                        assert ab + bc >= ac - 1e-9

    def test_four_point_condition_zero_widths(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            e = rng.uniform(1.0, 20.0, size=7)
            c1 = ChainNode(id="c1", width=0.0, left=Leaf("a"), right=Leaf("b"),
                           left_edge=e[0], right_edge=e[1], attach_side="left")
            c2 = ChainNode(id="c2", width=0.0, left=Leaf("c"), right=Leaf("d"),
                           left_edge=e[2], right_edge=e[3], attach_side="right")
            tree = Dendrogram(RootLink(length=e[4], left=c1, right=c2))
            dists = leaf_distances(tree)

            def d(x, y):
                return dists[frozenset((x, y))]

            sums = sorted(
                [
                    d("a", "b") + d("c", "d"),
                    d("a", "c") + d("b", "d"),
                    d("a", "d") + d("b", "c"),
                ]
            )
            assert sums[2] - sums[1] <= 1e-9


class TestTheoreticalMatrix:
    def test_single_chain_width_zero(self):
        node = ChainNode(id="n", width=0.0, left=Leaf("a"), right=Leaf("b"),
                         left_edge=34.657, right_edge=34.657, attach_side="left")
        m = theoretical_matrix(Dendrogram(node))
        assert m.value("a", "b") == pytest.approx(50.00, abs=5e-3)

    def test_one_leaf_tree(self):
        m = theoretical_matrix(Dendrogram(Leaf("only")))
        assert m.labels == ("only",)
        assert list(m.pairs()) == []

    def test_fig4_coincidence(self, fig4_tree):
        m = theoretical_matrix(fig4_tree)
        assert m.value("1", "2") == pytest.approx(100.0 * math.exp(-0.20), abs=1e-9)

    def test_matrix_level_inversion(self, fig4_tree):
        m = theoretical_matrix(fig4_tree)
        dm = distance_matrix(m)
        dists = leaf_distances(fig4_tree)
        for a, b, l in dm.pairs():
            assert l == pytest.approx(dists[frozenset((a, b))], abs=1e-9)


class TestRootGeometry:
    def _two_leaf_link(self, length):
        return Dendrogram(RootLink(length=length, left=Leaf("a"), right=Leaf("b")))

    def test_deep_point_halves_equal_depth_link(self):
        tree = self._two_leaf_link(32.0)
        geom = root_geometry(tree, variant="deep_point")
        assert geom.left_vertical == pytest.approx(16.0)
        assert geom.right_vertical == pytest.approx(16.0)
        assert geom.chain_width == 0.0
        assert ancestor_depth(tree) == pytest.approx(16.0)

    def test_max_chain_keeps_full_width(self):
        geom = root_geometry(self._two_leaf_link(32.0), variant="max_chain")
        assert geom.chain_width == pytest.approx(32.0)
        assert geom.left_vertical == 0.0
        assert geom.right_vertical == 0.0

    def test_zero_link_variants_identical(self):
        tree = self._two_leaf_link(0.0)
        chain = root_geometry(tree, variant="max_chain")
        point = root_geometry(tree, variant="deep_point")
        assert chain.left_vertical == point.left_vertical == 0.0
        assert chain.right_vertical == point.right_vertical == 0.0
        assert chain.chain_width == point.chain_width == 0.0
        assert chain.depth == point.depth == 0.0

    def test_unequal_depths_chain_variant(self, fig4_tree):
        # subtree tops at depths 8 and 0, link 18: widest chain is 18 - 8 = 10
        geom = root_geometry(fig4_tree, variant="max_chain")
        assert geom.depth == pytest.approx(8.0)
        assert geom.chain_width == pytest.approx(10.0)
        assert geom.left_vertical + geom.right_vertical + geom.chain_width == pytest.approx(18.0)

    def test_parametrized_interpolates(self, fig4_tree):
        ends = (
            root_geometry(fig4_tree, variant="parametrized", fraction=0.0),
            root_geometry(fig4_tree, variant="parametrized", fraction=1.0),
        )
        assert ends[0].depth == root_geometry(fig4_tree, variant="max_chain").depth
        assert ends[1].depth == root_geometry(fig4_tree, variant="deep_point").depth
        mid = root_geometry(fig4_tree, variant="parametrized", fraction=0.5)
        assert ends[0].depth < mid.depth < ends[1].depth

    def test_variants_preserve_theoretical_matrix(self, fig4_tree):
        chain_tree, point_tree = root_variants(fig4_tree)
        m1 = theoretical_matrix(chain_tree)
        m2 = theoretical_matrix(point_tree)
        for a, b, v in m1.pairs():
            assert m2.value(a, b) == pytest.approx(v, abs=1e-12)
        assert chain_tree.root.variant == "max_chain"
        assert point_tree.root.variant == "deep_point"


class TestFitReport:
    def test_perfect_fit(self, fig4_tree):
        measured = theoretical_matrix(fig4_tree)
        report = fit_report(fig4_tree, measured)
        assert report.rms_distance == pytest.approx(0.0, abs=1e-12)
        assert report.max_abs_coincidence == pytest.approx(0.0, abs=1e-12)

    def test_pairs_built_once_per_matrix(self, fig4_tree):
        measured = theoretical_matrix(fig4_tree)
        first, second = fit_report(fig4_tree, measured), fit_report(fig4_tree, measured)
        assert first.pairs == (("1", "2"), ("1", "3"), ("2", "3"))
        assert second.pairs is first.pairs
        assert "_pairs" not in repr(measured)

    def test_single_perturbed_pair(self, fig4_tree):
        dists = leaf_distances(fig4_tree)
        labels = ("1", "2", "3")
        values = np.full((3, 3), np.nan)
        for i in range(3):
            for j in range(i + 1, 3):
                l = dists[frozenset((labels[i], labels[j]))]
                if (i, j) == (0, 1):
                    l -= 1.0  # theoretical exceeds measured by +1
                values[i, j] = values[j, i] = coincidence_from_distance(l)
        measured = CoincidenceMatrix(labels, values)
        report = fit_report(fig4_tree, measured)
        assert report.max_abs_distance == pytest.approx(1.0, abs=1e-9)
        assert report.rms_distance == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)

    def test_residual_sign_convention(self, fig4_tree):
        # theoretical minus measured: shrinking a measured distance makes the
        # distance residual positive and the coincidence residual negative
        dists = leaf_distances(fig4_tree)
        labels = ("1", "2", "3")
        values = np.full((3, 3), np.nan)
        for i in range(3):
            for j in range(i + 1, 3):
                l = dists[frozenset((labels[i], labels[j]))]
                if (i, j) == (0, 1):
                    l -= 1.0
                values[i, j] = values[j, i] = coincidence_from_distance(l)
        report = fit_report(fig4_tree, CoincidenceMatrix(labels, values))
        row = report.pairs.index(("1", "2"))
        assert report.residual_distance[row] == pytest.approx(1.0, abs=1e-9)
        assert report.residual_coincidence[row] < 0.0

    def test_label_mismatch_lists_difference(self, fig4_tree):
        values = np.full((2, 2), np.nan)
        values[0, 1] = values[1, 0] = 80.0
        measured = CoincidenceMatrix(("1", "4"), values)
        with pytest.raises(DomainError) as err:
            fit_report(fig4_tree, measured)
        assert "2" in str(err.value) and "4" in str(err.value)


@pytest.mark.parametrize("module", [isolect, isolect.dendrogram], ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


class TestNames:
    def test_duplicate_chain_ids_rejected(self):
        def cherry(a, b):
            return ChainNode("n1", 2.0, Leaf(a), Leaf(b), 5.0, 5.0)

        with pytest.raises(DomainError, match=r"duplicate chain ids in dendrogram: \['n1'\]"):
            Dendrogram(RootLink(10.0, cherry("a", "b"), cherry("c", "d")))

    def test_leaf_may_share_a_chain_id(self):
        tree = Dendrogram(RootLink(10.0, ChainNode("n1", 2.0, Leaf("n1"), Leaf("b"), 5.0, 5.0),
                                   Leaf("c")))
        assert tree.clades() == {"n1": frozenset({"n1", "b"})}


class TestPathCache:
    def test_paths_are_kept_read_only_on_the_tree(self, fig4_tree):
        first = _paths(fig4_tree)
        assert all(again is array for again, array in zip(_paths(fig4_tree), first))
        for array in first:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0
        # the cache is left out of equality and repr
        assert _with_lengths(fig4_tree, first[0]) == fig4_tree
        assert "_walk" not in repr(fig4_tree)

    def test_new_lengths_get_their_own_paths(self, fig4_tree):
        values, D, _ = _paths(fig4_tree)
        shifted = _with_lengths(fig4_tree, values + 1.0)
        assert shifted._walk is None
        np.testing.assert_array_equal(_paths(shifted)[0], values + 1.0)
        assert _paths(shifted)[1][0, 2] == D[0, 2] + 3.0  # a line, the width and the root link
        assert _paths(fig4_tree)[1] is D
