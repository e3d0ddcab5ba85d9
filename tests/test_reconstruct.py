"""Closed forms, greedy construction, residual redistribution, root variants."""

import hashlib
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import isolect
from isolect import (
    CoincidenceMatrix,
    DomainError,
    build_dendrogram,
    coincidence_from_distance,
    fit_report,
    leaf_distances,
    redistribute_residuals,
    three_language_tree,
    two_language_family,
)
from isolect.dendrogram import (
    ChainNode,
    Dendrogram,
    Leaf,
    RootLink,
    _paths,
    _with_lengths,
    attach_depth,
    endpoint_depths,
)
from isolect.lexstat import _distance_values
from isolect.reconstruct import _lower_inverse, _map_rows, _nnls, _normal_equations


def matrix_from_distances(labels, dist) -> CoincidenceMatrix:
    """Assemble a coincidence matrix from a {frozenset: L} distance map."""
    k = len(labels)
    values = np.full((k, k), np.nan)
    for i in range(k):
        for j in range(i + 1, k):
            c = coincidence_from_distance(dist[frozenset((labels[i], labels[j]))])
            values[i, j] = values[j, i] = c
    return CoincidenceMatrix(labels, values)


def matrix_from_tree(tree) -> CoincidenceMatrix:
    return matrix_from_distances(tree.leaves(), leaf_distances(tree))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tie_heavy_matrices(count=60, seed=7):
    """Seeded 3-12-language matrices of integer coincidences from a narrow range.

    Many distances tie, and the labels come in shuffled order, so input
    order and sorted label order differ.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randrange(3, 13)
        labels = [f"{rng.choice('abcdefgh')}{i}" for i in range(k)]
        rng.shuffle(labels)
        values = np.full((k, k), np.nan)
        for i in range(k):
            for j in range(i + 1, k):
                values[i, j] = values[j, i] = float(rng.randrange(60, 64))
        out.append(CoincidenceMatrix(labels, values))
    return out


class TestTwoLanguageFamily:
    def test_pure_divergence_endpoint(self):
        family = two_language_family(20.0)
        assert family.chain_width(10.0) == 0.0

    def test_pidgin_endpoint(self):
        assert two_language_family(20.0).chain_width(0.0) == 20.0

    def test_intermediate(self):
        assert two_language_family(20.0).chain_width(6.0) == pytest.approx(8.0)

    def test_parameter_range(self):
        family = two_language_family(20.0)
        with pytest.raises(DomainError):
            family.chain_width(10.5)
        with pytest.raises(DomainError):
            family.chain_width(-0.1)

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            two_language_family(-1.0)

    def test_realize_round_trip(self):
        tree = two_language_family(20.0).realize(6.0)
        assert leaf_distances(tree)[frozenset(("1", "2"))] == pytest.approx(20.0)


class TestThreeLanguageTree:
    def test_worked_example(self):
        tree = three_language_tree(20.0, 30.0, 26.0)
        node = tree.root.left
        assert node.width == pytest.approx(4.0, abs=1e-12)
        assert node.left_edge == pytest.approx(8.0, abs=1e-12)
        assert node.right_edge == pytest.approx(8.0, abs=1e-12)
        assert node.attach_side == "right"
        assert tree.root.length == pytest.approx(18.0, abs=1e-12)
        dists = leaf_distances(tree)
        assert dists[frozenset(("1", "2"))] == pytest.approx(20.0, abs=1e-12)
        assert dists[frozenset(("1", "3"))] == pytest.approx(30.0, abs=1e-12)
        assert dists[frozenset(("2", "3"))] == pytest.approx(26.0, abs=1e-12)

    def test_symmetric_case_collapses_chain(self):
        a = 7.0
        tree = three_language_tree(2 * a, 2 * a, 2 * a)
        node = tree.root.left
        assert node.width == 0.0
        assert node.left_edge == pytest.approx(a)
        assert tree.root.length == pytest.approx(a)

    def test_indic_subtriple(self):
        l45 = 100.0 * math.log(100.0 / 79.0)
        l46 = 100.0 * math.log(100.0 / 63.0)
        l56 = 100.0 * math.log(100.0 / 65.0)
        tree = three_language_tree(l45, l46, l56, labels=("hindi", "panjabi", "nepali"))
        node = tree.root.left
        assert node.width == pytest.approx(3.125, abs=5e-4)
        assert node.left_edge == pytest.approx(10.223, abs=5e-4)
        assert tree.root.length == pytest.approx(32.855, abs=5e-4)

    def test_deepest_link_point_is_half_nearer_distance(self):
        # the deep-point realization of the last link bottoms out at half the
        # distance between the attached-side language and the third language
        tree = three_language_tree(20.0, 30.0, 26.0)
        from isolect import ancestor_depth

        assert ancestor_depth(tree) == pytest.approx(26.0 / 2.0, abs=1e-12)

    def test_requires_minimal_first_distance(self):
        with pytest.raises(DomainError, match="minimal"):
            three_language_tree(30.0, 20.0, 26.0)

    def test_triangle_violation_warns_and_clamps(self):
        with pytest.warns(UserWarning, match="triangle"):
            tree = three_language_tree(1.0, 50.0, 2.0)
        node = tree.root.left
        assert node.left_edge == 0.0
        assert node.width == pytest.approx(48.0)


def random_triangle_triples(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        l = np.sort(rng.uniform(1.0, 120.0, size=3))
        l12 = float(l[0])
        rest = rng.permutation(l[1:])
        l13, l23 = float(rest[0]), float(rest[1])
        if abs(l13 - l23) > l12:
            continue  # triangle inequality (the other two hold since l12 is minimal)
        if abs(l13 - l23) < 1e-9 or abs(l12 - min(l13, l23)) < 1e-9:
            continue  # avoid tie-break ambiguity in the equivalence check
        out.append((l12, l13, l23))
    return out


class TestBuildMatchesClosedForm:
    def test_equivalence_on_random_triples(self):
        for l12, l13, l23 in random_triangle_triples(300, seed=7):
            closed = three_language_tree(l12, l13, l23)
            m = matrix_from_distances(
                ("1", "2", "3"),
                {
                    frozenset(("1", "2")): l12,
                    frozenset(("1", "3")): l13,
                    frozenset(("2", "3")): l23,
                },
            )
            built, steps = build_dendrogram(m)
            assert len(steps) == 1
            c_node = closed.root.left
            b_node = built.root.left
            assert b_node.width == pytest.approx(c_node.width, abs=1e-9)
            assert b_node.left_edge == pytest.approx(c_node.left_edge, abs=1e-9)
            assert b_node.right_edge == pytest.approx(c_node.right_edge, abs=1e-9)
            assert b_node.attach_side == c_node.attach_side
            assert built.root.length == pytest.approx(closed.root.length, abs=1e-9)

    def test_stem_formulas_agree(self):
        for l12, l13, l23 in random_triangle_triples(300, seed=8):
            width = abs(l13 - l23)
            vertical = (l12 - width) / 2.0
            if l13 >= l23:
                stem_far = l13 - (vertical + width)
                stem_near = l23 - vertical
            else:
                stem_far = l23 - (vertical + width)
                stem_near = l13 - vertical
            assert stem_far == pytest.approx(stem_near, abs=1e-9)
            assert 2.0 * vertical + width == pytest.approx(l12, abs=1e-9)


class TestBuildDendrogram:
    def test_two_languages(self):
        m = matrix_from_distances(("x", "y"), {frozenset(("x", "y")): 24.0})
        tree, steps = build_dendrogram(m)
        assert steps == ()
        assert isinstance(tree.root, RootLink)
        assert tree.root.length == pytest.approx(24.0, abs=1e-9)

    def test_rejects_single_language(self):
        m = CoincidenceMatrix(("solo",), np.full((1, 1), np.nan))
        with pytest.raises(DomainError, match="at least 2"):
            build_dendrogram(m)

    def test_join_step_invariants(self, table1, table2):
        for matrix in (table1, table2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tree, steps = build_dendrogram(matrix)
            for step in steps:
                assert step.chain_width >= 0.0
                assert step.left_vertical >= 0.0
                assert step.right_vertical >= 0.0
                assert step.path_residual >= 0.0
                assert 2.0 * step.divergence_length + step.chain_width == pytest.approx(
                    step.pair_distance, abs=1e-9
                )
                realized = step.left_vertical + step.chain_width + step.right_vertical
                assert realized == pytest.approx(
                    step.pair_distance + step.path_residual, abs=1e-9
                )
            for node in tree.chain_nodes():
                assert node.width >= 0.0
                assert node.left_edge >= 0.0
                assert node.right_edge >= 0.0

    def test_mean_difference_recorded_with_observers(self, table1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, steps = build_dendrogram(table1)
        first = steps[0]
        assert len(first.observer_residuals) == 4
        deviations = [dev for _, dev in first.observer_residuals]
        assert sum(deviations) == pytest.approx(0.0, abs=1e-9)

    def test_deterministic(self, table1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree_a, steps_a = build_dendrogram(table1)
            tree_b, steps_b = build_dendrogram(table1)
        assert steps_a == steps_b
        assert tree_a == tree_b

    def test_leaf_labels_like_node_ids(self, table1, table2):
        # chain ids n1, n2, ... name built points in the join log; a leaf
        # that carries such a label must keep its own distances
        def geometry(m):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tree, steps = build_dendrogram(m)
            fields = [
                (s.pair_distance, s.mean_signed_difference, s.chain_width,
                 s.left_vertical, s.right_vertical, s.orientation)
                for s in steps
            ]
            return fields, tree.root.length

        for m in (table1, table2):
            # renamed in sorted order, so that ties break the same way
            rank = {x: f"n{i}" for i, x in enumerate(sorted(m.labels))}
            renamed = CoincidenceMatrix([rank[x] for x in m.labels], m.values, m.list_size)
            assert geometry(renamed) == geometry(m)

    @pytest.mark.parametrize(
        "case, tree_digest, warning_digest",
        [
            (
                "table1",
                "4014f0cfd9188afa5b0859e8f854cd0f6b9d0dabe20684053ef3a08486d8ebb8",
                "b7dee9d5d9c632034fdde1811b8fce3db0eae025e9d4718f8188b8737e6c14fb",
            ),
            (
                "table2",
                "88263763a8f8dabda2ae61fcc957f3f43efa1722e42e08f304c12853fffb1bbf",
                "1e8a41ac1755224d3a3cd4ebbb65bf47234e88db2ac31cf2b2412362dd2903f8",
            ),
            (
                "ties",
                "5e709acbf8d93465bf192d85c255853b032e37e40bc5483819d3dfc7a33de90c",
                "277f6b5832fe202cf299730df6e95d9d312deeb046b872b6c7af63ecf5bcd369",
            ),
        ],
    )
    def test_tie_break_pinned(self, table1, table2, case, tree_digest, warning_digest):
        # digests of the join logs and clamp warnings as the builder produced
        # them when it took the minimum of (distance, smaller key, larger key)
        # over every pair of active items; rounded tables and small integer
        # matrices tie on many distances, and the shuffled labels make input
        # order differ from key order
        if case == "ties":
            matrices = tie_heavy_matrices()
        else:
            m = {"table1": table1, "table2": table2}[case]
            matrices = [CoincidenceMatrix(m.labels, np.round(m.values), m.list_size)]
        logs, messages = [], []
        for m in matrices:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                logs.append(repr(build_dendrogram(m)))
            messages.append([str(w.message) for w in caught])
        assert sha256("\n".join(logs)) == tree_digest
        assert sha256(repr(messages)) == warning_digest

    def test_exact_recovery_two_cherries(self, two_cherry_tree):
        m = matrix_from_tree(two_cherry_tree)
        built, _ = build_dendrogram(m)
        assert built.topology_signature() == two_cherry_tree.topology_signature()
        dists_true = leaf_distances(two_cherry_tree)
        dists_built = leaf_distances(built)
        for pair, l in dists_true.items():
            assert dists_built[pair] == pytest.approx(l, abs=1e-6)
        widths_true = sorted(n.width for n in two_cherry_tree.chain_nodes())
        widths_built = sorted(n.width for n in built.chain_nodes())
        assert widths_built == pytest.approx(widths_true, abs=1e-6)
        assert built.root.length == pytest.approx(30.0, abs=1e-6)

    def test_exact_recovery_nested_tree(self):
        inner = ChainNode(id="i", width=3.0, left=Leaf("a"), right=Leaf("b"),
                          left_edge=5.0, right_edge=5.0, attach_side="right")
        middle = ChainNode(id="m", width=2.0, left=inner, right=Leaf("c"),
                           left_edge=4.0, right_edge=9.0, attach_side="left")
        truth = Dendrogram(RootLink(length=21.0, left=middle, right=Leaf("d")))
        m = matrix_from_tree(truth)
        built, steps = build_dendrogram(m)
        assert built.topology_signature() == truth.topology_signature()
        for pair, l in leaf_distances(truth).items():
            assert leaf_distances(built)[pair] == pytest.approx(l, abs=1e-6)
        by_clade_truth = {
            clade: node_id for node_id, clade in truth.clades().items()
        }
        truth_nodes = {n.id: n for n in truth.chain_nodes()}
        built_nodes = {n.id: n for n in built.chain_nodes()}
        built_by_clade = {clade: node_id for node_id, clade in built.clades().items()}
        for clade, node_id in by_clade_truth.items():
            tn = truth_nodes[node_id]
            bn = built_nodes[built_by_clade[clade]]
            assert bn.width == pytest.approx(tn.width, abs=1e-6)
            assert sorted((bn.left_edge, bn.right_edge)) == pytest.approx(
                sorted((tn.left_edge, tn.right_edge)), abs=1e-6
            )

    def test_borrowing_shift_keeps_widths_and_drops_verticals(self, borrowing_table):
        from isolect import coincidence_from_cognacy

        m_inc = coincidence_from_cognacy(borrowing_table, exclude_borrowed=False)
        m_exc = coincidence_from_cognacy(borrowing_table, exclude_borrowed=True)
        shift = 100.0 * math.log(100.0 / 95.0)
        tree_inc, _ = build_dendrogram(m_inc)
        tree_exc, _ = build_dendrogram(m_exc)
        assert tree_inc.topology_signature() == tree_exc.topology_signature()
        inc_by_clade = {clade: nid for nid, clade in tree_inc.clades().items()}
        exc_by_clade = {clade: nid for nid, clade in tree_exc.clades().items()}
        inc_nodes = {n.id: n for n in tree_inc.chain_nodes()}
        exc_nodes = {n.id: n for n in tree_exc.chain_nodes()}
        for clade, nid in inc_by_clade.items():
            a = inc_nodes[nid]
            b = exc_nodes[exc_by_clade[clade]]
            assert b.width == pytest.approx(a.width, abs=1e-6)
            assert b.left_edge == pytest.approx(a.left_edge - shift / 2.0, abs=1e-6)
            assert b.right_edge == pytest.approx(a.right_edge - shift / 2.0, abs=1e-6)


class TestRedistributeResiduals:
    def test_exact_input_unchanged(self, two_cherry_tree):
        m = matrix_from_tree(two_cherry_tree)
        built, _ = build_dendrogram(m)
        adjusted = redistribute_residuals(built, m)
        assert adjusted == built

    def test_four_leaf_single_perturbation_already_optimal(self, two_cherry_tree):
        # with four leaves the mean-based greedy estimates solve the least
        # squares normal equations exactly, so the adjustment pass correctly
        # reports no improvement and returns the tree unchanged
        dists = dict(leaf_distances(two_cherry_tree))
        dists[frozenset(("alpha", "gamma"))] += 3.0
        m = matrix_from_distances(two_cherry_tree.leaves(), dists)
        built, _ = build_dendrogram(m)
        before = fit_report(built, m)
        adjusted = redistribute_residuals(built, m)
        after = fit_report(adjusted, m)
        assert adjusted == built
        assert after.rms_distance == pytest.approx(before.rms_distance, abs=1e-12)
        # the +3 error spreads as 3/4 over the four cross pairs
        assert before.max_abs_distance == pytest.approx(0.75, abs=1e-9)

    def test_noisy_five_leaf_strictly_improves(self, two_cherry_tree):
        # beyond four leaves the pairwise stem average is no longer the
        # least squares solution, so the adjustment strictly reduces RMS
        rng = np.random.default_rng(5)
        extra = ChainNode(id="x", width=0.0, left=two_cherry_tree.root.left,
                          right=Leaf("omega"), left_edge=6.0, right_edge=22.0,
                          attach_side="left")
        truth = Dendrogram(RootLink(length=30.0, left=extra,
                                    right=two_cherry_tree.root.right))
        improved = 0
        for trial in range(5):
            dists = {
                pair: l + rng.normal(0.0, 1.5)
                for pair, l in leaf_distances(truth).items()
            }
            m = matrix_from_distances(truth.leaves(), dists)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                built, _ = build_dendrogram(m)
                before = fit_report(built, m)
                adjusted = redistribute_residuals(built, m)
            after = fit_report(adjusted, m)
            assert after.rms_distance <= before.rms_distance + 1e-12
            improved += after.rms_distance < before.rms_distance - 1e-9
        assert improved >= 3

    def test_table1_rms_strictly_improves(self, table1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            built, _ = build_dendrogram(table1)
        before = fit_report(built, table1)
        adjusted = redistribute_residuals(built, table1)
        after = fit_report(adjusted, table1)
        assert after.rms_distance < before.rms_distance
        for node in adjusted.chain_nodes():
            assert node.width >= 0.0
            assert node.left_edge >= 0.0
            assert node.right_edge >= 0.0

    def test_label_mismatch_rejected(self, two_cherry_tree, table1):
        with pytest.raises(DomainError, match="differ"):
            redistribute_residuals(two_cherry_tree, table1)


class TestBuiltGeometry:
    def test_attachment_depths_monotone_along_path(self, table1):
        # every parent chain sits at or above the depth of the child it
        # attaches to (independent development cannot be negative)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree, _ = build_dendrogram(table1)

        def walk(node):
            if isinstance(node, Leaf):
                return
            for child, edge in ((node.left, node.left_edge), (node.right, node.right_edge)):
                child_depth = attach_depth(child)
                parent_end = child_depth + edge
                assert parent_end >= child_depth - 1e-12
                walk(child)

        walk(tree.root.left)
        walk(tree.root.right)


def random_tree(rng, k, link=True) -> Dendrogram:
    """Random topology, lengths and attach sides over k leaves.

    With ``link`` the last two subtrees meet in a root link; without it the
    root is a single node.
    """
    items = [Leaf(f"L{i}") for i in range(k)]
    for count in range(1, k - (1 if link else 0)):
        i, j = sorted(int(x) for x in rng.choice(len(items), 2, replace=False))
        right = items.pop(j)
        left = items.pop(i)
        items.append(
            ChainNode(
                id=f"n{count}",
                width=float(rng.uniform(0.0, 10.0)),
                left=left,
                right=right,
                left_edge=float(rng.uniform(0.0, 20.0)),
                right_edge=float(rng.uniform(0.0, 20.0)),
                attach_side=("left", "right")[int(rng.integers(2))],
            )
        )
    if link:
        return Dendrogram(RootLink(float(rng.uniform(0.0, 30.0)), items[0], items[1]))
    return Dendrogram(items[0])


def reference_distances(tree) -> dict:
    """Leaf distances by a direct recursive sum, in the same rounding order."""

    def meet(dl, length, dr):
        return {frozenset((x, y)): vx + length + vy for x, vx in dl.items() for y, vy in dr.items()}

    def collect(node):
        # distances of the leaves below node to its attach endpoint, plus
        # every pair that meets inside the subtree
        if isinstance(node, Leaf):
            return {node.label: 0.0}, {}
        (dl, pl), (dr, pr) = collect(node.left), collect(node.right)
        dl = {x: v + node.left_edge for x, v in dl.items()}
        dr = {x: v + node.right_edge for x, v in dr.items()}
        pairs = {**pl, **pr, **meet(dl, node.width, dr)}
        if node.attach_side == "left":
            dr = {x: v + node.width for x, v in dr.items()}
        else:
            dl = {x: v + node.width for x, v in dl.items()}
        return {**dl, **dr}, pairs

    if not isinstance(tree.root, RootLink):
        return collect(tree.root)[1]
    (dl, pl), (dr, pr) = collect(tree.root.left), collect(tree.root.right)
    return {**pl, **pr, **meet(dl, tree.root.length, dr)}


class TestPathWalk:
    @pytest.mark.parametrize("link", [True, False])
    def test_paths_match_rebuild_and_distances(self, link):
        rng = np.random.default_rng(11 if link else 12)
        sides = set()
        for k in range(2, 31):
            tree = random_tree(rng, k, link)
            sides.update(node.attach_side for node in tree.chain_nodes())
            values, D, S = _paths(tree)
            assert values.size == 3 * len(tree.chain_nodes()) + link
            assert _with_lengths(tree, values) == tree
            shifted = values + np.arange(values.size)
            assert np.array_equal(_paths(_with_lengths(tree, shifted))[0], shifted)

            labels = tree.leaves()
            reference = reference_distances(tree)
            expected = np.zeros((k, k))
            for i, a in enumerate(labels):
                for j, b in enumerate(labels):
                    if i != j:
                        expected[i, j] = reference[frozenset((a, b))]
            assert np.array_equal(D, expected)
            assert leaf_distances(tree) == reference
            assert S.shape == (k, values.size) and S.dtype == bool
            rows, cols = np.triu_indices(k, 1)
            crossed = S[rows] ^ S[cols]
            np.testing.assert_allclose(crossed @ values, D[rows, cols], rtol=0.0, atol=1e-9)
            assert np.array_equal(crossed, design(tree, matrix_from_tree(tree)))
        assert sides == {"left", "right"}

    def test_single_leaf_has_no_lengths(self):
        tree = Dendrogram(Leaf("only"))
        values, D, S = _paths(tree)
        assert values.size == 0
        assert D.tolist() == [[0.0]]
        assert S.shape == (1, 0)
        assert _with_lengths(tree, values) == tree

    def test_walk_orders_on_fixed_tree(self):
        def chain(node_id, left, right):
            return ChainNode(node_id, 1.0, left, right, 2.0, 3.0, "right")

        a2 = chain("a2", chain("a1", Leaf("a"), Leaf("b")), Leaf("c"))
        b2 = chain("b2", Leaf("f"), chain("b1", Leaf("d"), Leaf("e")))
        tree = Dendrogram(RootLink(5.0, a2, b2))
        assert tree.leaves() == ("a", "b", "c", "f", "d", "e")
        assert [n.id for n in tree.chain_nodes()] == ["a2", "a1", "b2", "b1"]
        assert tree.clades() == {
            "a2": frozenset("abc"),
            "a1": frozenset("ab"),
            "b2": frozenset("def"),
            "b1": frozenset("de"),
        }
        assert tree.topology_signature() == frozenset(
            {
                frozenset("abc"),
                frozenset("ab"),
                frozenset("def"),
                frozenset("de"),
                frozenset((frozenset("abc"), frozenset("def"))),
            }
        )


def horizontal_tree(rng, k, link=True) -> Dendrogram:
    """``random_tree`` with every chain made horizontal.

    Each chain sits 0-20 swadesh above the higher of its two children, and
    its divergence lines are the level differences.
    """

    def level(node):
        if isinstance(node, Leaf):
            return node, 0.0
        (left, h_left), (right, h_right) = level(node.left), level(node.right)
        top = max(h_left, h_right) + float(rng.uniform(0.0, 20.0))
        node = replace(
            node, left=left, right=right, left_edge=top - h_left, right_edge=top - h_right
        )
        return node, top

    tree = random_tree(rng, k, link)
    if isinstance(tree.root, RootLink):
        sides = {"left": level(tree.root.left)[0], "right": level(tree.root.right)[0]}
        return Dendrogram(replace(tree.root, **sides))
    return Dendrogram(level(tree.root)[0])


def noisy_matrix(rng, tree, sd) -> CoincidenceMatrix:
    dists = {pair: max(0.0, l + rng.normal(0.0, sd)) for pair, l in leaf_distances(tree).items()}
    return matrix_from_distances(tree.leaves(), dists)


def tree_sse(tree, m) -> float:
    dists = leaf_distances(tree)
    return sum((dists[frozenset((a, b))] - 100.0 * math.log(100.0 / c)) ** 2 for a, b, c in m.pairs())


def assert_horizontal_and_nonnegative(tree):
    for node in tree.chain_nodes():
        left, right = endpoint_depths(node)
        assert left == pytest.approx(right, abs=1e-9)
        assert min(node.width, node.left_edge, node.right_edge) >= 0.0
    if isinstance(tree.root, RootLink):
        assert tree.root.length >= 0.0


def design(tree, m) -> np.ndarray:
    """The dense 0/1 path design of ``tree``, one row per pair of ``m``.

    Column ``l`` holds the path lengths of the tree with length ``l`` set to
    1 and every other length to 0, so the design does not rest on the split
    matrix of ``_paths``.
    """
    units = np.eye(_paths(tree)[0].size)
    columns = [leaf_distances(_with_lengths(tree, unit)) for unit in units]
    return np.array([[column[frozenset((a, b))] for column in columns] for a, b, _ in m.pairs()])


def level_width_map(d: Dendrogram) -> np.ndarray:
    """The free lengths of ``d`` as a dense linear map of its levels and widths.

    Returns ``T``, one row per free length in the layout of ``_paths`` and
    one column per unknown: the level (endpoint depth) of each chain in
    ``chain_nodes`` order, then each chain's width in the same order, then
    the root-link length if there is one. A divergence line is the level of
    its chain minus the level of the child below it (a leaf's level is 0);
    widths and the root link map 1:1. ``T @ y`` is therefore a tree whose
    chains are all horizontal.
    """
    chains = d.chain_nodes()
    n = len(chains)
    index = {id(node): i for i, node in enumerate(chains)}
    link = isinstance(d.root, RootLink)
    T = np.zeros((3 * n + link, 2 * n + link))
    for i, node in enumerate(chains):
        for row, child in ((3 * i, node.left), (3 * i + 1, node.right)):
            T[row, i] = 1.0
            if isinstance(child, ChainNode):
                T[row, index[id(child)]] = -1.0
        T[3 * i + 2, n + i] = 1.0
    if link:
        T[3 * n, 2 * n] = 1.0
    return T


def slsqp_polish(tree, m) -> np.ndarray:
    """Least-squares free lengths of ``tree`` under horizontal chains, by SLSQP.

    Independent of the level/width map: each chain's horizontality is a
    linear equality on the free lengths, read off by evaluating its
    endpoint-depth difference on unit length vectors. A chain at the root
    keeps its width, as in ``redistribute_residuals``.
    """
    minimize = pytest.importorskip("scipy.optimize").minimize
    x0 = _paths(tree)[0]
    A = design(tree, m)
    b = np.array([100.0 * math.log(100.0 / c) for _, _, c in m.pairs()])
    unit = [_with_lengths(tree, row) for row in np.eye(x0.size)]
    tilt = np.array(
        [[np.subtract(*endpoint_depths(node)) for node in t.chain_nodes()] for t in unit]
    ).T
    constraints = [{"type": "eq", "fun": lambda x: tilt @ x, "jac": lambda x: tilt}]
    if not isinstance(tree.root, RootLink):
        top = np.zeros(x0.size)
        top[2] = 1.0  # the root chain comes first in pre-order: its width
        width = tree.root.width
        constraints.append({"type": "eq", "fun": lambda x: [top @ x - width], "jac": lambda x: [top]})
    result = minimize(
        lambda x: 0.5 * np.sum((A @ x - b) ** 2),
        x0,
        jac=lambda x: A.T @ (A @ x - b),
        bounds=[(0.0, None)] * x0.size,
        constraints=constraints,
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    # status 8: no descent direction is left at working precision
    assert result.status in (0, 8), result.message
    return result.x


class TestLevelWidthPolish:
    @pytest.mark.parametrize("link", [True, False])
    def test_polished_trees_are_horizontal_and_no_worse(self, link):
        rng = np.random.default_rng(21 if link else 22)
        for k in range(2, 31):
            truth = horizontal_tree(rng, k, link)
            for sd in (0.0, 2.0, 8.0):
                m = noisy_matrix(rng, truth, sd)
                starts = [truth]
                if k > 2:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        starts.append(build_dendrogram(m)[0])
                for start in starts:
                    polished = redistribute_residuals(start, m)
                    assert polished.topology_signature() == start.topology_signature()
                    assert_horizontal_and_nonnegative(polished)
                    assert tree_sse(polished, m) <= tree_sse(start, m) * (1 + 1e-12) + 1e-12
                    assert redistribute_residuals(polished, m) == polished

    def test_optimal_input_is_kept_to_the_bit(self):
        # an optimum that differs from the solver's in the last bits is no
        # improvement to act on, whatever the size of the sum of squares
        rng = np.random.default_rng(28)
        for k in range(20, 31):
            m = noisy_matrix(rng, horizontal_tree(rng, k), 8.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                polished = redistribute_residuals(build_dendrogram(m)[0], m)
            nudged = _with_lengths(polished, _paths(polished)[0] * (1.0 + 4e-16))
            assert nudged != polished
            assert redistribute_residuals(nudged, m) == nudged

    def test_exact_horizontal_input_is_kept(self):
        rng = np.random.default_rng(23)
        for k in range(2, 31):
            for link in (True, False):
                truth = horizontal_tree(rng, k, link)
                assert redistribute_residuals(truth, matrix_from_tree(truth)) == truth

    @pytest.mark.parametrize("link", [True, False])
    def test_level_width_design_rank(self, link):
        # a root link makes every level and width identifiable; a chain at
        # the root loses exactly one rank, its 2 * level + width
        rng = np.random.default_rng(24 if link else 25)
        for k in range(2, 31):
            tree = random_tree(rng, k, link)
            T = level_width_map(tree)
            rank = np.linalg.matrix_rank(design(tree, matrix_from_tree(tree)) @ T)
            assert rank == T.shape[1] - (not link)

    @pytest.mark.parametrize("link", [True, False])
    def test_normal_equations_equal_the_dense_design(self, link):
        # the normal matrix is a matrix of counts, exact in floating point, so
        # it equals (A T)^T (A T) entry for entry; the right-hand side sums
        # the same distances in another order. Without a root link the root
        # chain's width column is held out of T and its paths out of f
        rng = np.random.default_rng(40 if link else 41)
        for k in range(2, 31):
            for tree in (random_tree(rng, k, link), horizontal_tree(rng, k, link)):
                m = noisy_matrix(rng, tree, 4.0)
                A = design(tree, m)
                f = np.array([100.0 * math.log(100.0 / c) for _, _, c in m.pairs()])
                T = level_width_map(tree)
                held = np.zeros(T.shape[0])
                if not link:
                    top = len(tree.chain_nodes())
                    held = T[:, top] * tree.root.width
                    T = np.delete(T, top, axis=1)
                normal, rhs, index, held_lengths = _normal_equations(tree, _distance_values(m))
                assert np.array_equal(normal, (A @ T).T @ (A @ T))
                expected = (A @ T).T @ (f - A @ held)
                np.testing.assert_allclose(rhs, expected, rtol=0.0, atol=1e-12 * abs(expected).max())
                assert np.array_equal(held_lengths, held)
                # an entry of T @ X has at most two terms, exact in any order
                X = rng.normal(size=(T.shape[1], T.shape[1]))
                y = rng.normal(size=T.shape[1])
                assert _map_rows(index, X).tobytes() == (T @ X).tobytes()
                assert _map_rows(index, y).tobytes() == (T @ y).tobytes()

    @pytest.mark.parametrize("link", [True, False])
    def test_matches_slsqp_oracle(self, link):
        rng = np.random.default_rng(26 if link else 27)
        for k in range(2, 9):
            for _ in range(3):
                truth = horizontal_tree(rng, k, link)
                m = noisy_matrix(rng, truth, 6.0)
                polished = redistribute_residuals(truth, m)
                np.testing.assert_allclose(
                    _paths(polished)[0], slsqp_polish(truth, m), rtol=0.0, atol=1e-6
                )

    @pytest.mark.parametrize(
        "table, node, depth", [("table1.csv", "n2", 10.039), ("table2.csv", "n4", 2.648)]
    )
    def test_cli_adjusted_tree_is_horizontal(self, data_dir, tmp_path, table, node, depth):
        # these chains came out tilted when the polish fitted each divergence
        # line separately (10.04 vs 0.00 and 2.65 vs 22.38)
        from isolect.cli import main
        from isolect.treeio import load_dendrogram

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["build", "--input", str(data_dir / table), "--out-dir", str(tmp_path)]) == 0
        adjusted = load_dendrogram(tmp_path / "tree_adjusted.json")
        assert_horizontal_and_nonnegative(adjusted)
        chain = {n.id: n for n in adjusted.chain_nodes()}[node]
        assert endpoint_depths(chain) == pytest.approx((depth, depth), abs=5e-4)


def test_import_leaves_scipy_unloaded(data_dir, tmp_path):
    # the package runs on numpy alone: neither importing it nor a build or a
    # simulation (both polish) loads scipy
    src = str(Path(isolect.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, warnings, isolect, isolect.cli\n"
        "warnings.simplefilter('ignore')\n"
        "table, config, out = sys.argv[1:]\n"
        "assert isolect.cli.main(['build', '--input', table, '--out-dir', out + '/build']) == 0\n"
        "assert isolect.cli.main(['simulate', '--input', config, '--out-dir', out + '/simulate']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    args = [data_dir / "table1.csv", data_dir / "sim4_config.json", tmp_path]
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def nnls_problems():
    """Seeded well-conditioned, wide and low-rank NNLS problems."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        yield rng.normal(size=(30, 20)), rng.normal(size=30)
        yield rng.normal(size=(15, 40)), rng.normal(size=15)
        yield rng.normal(size=(30, 8)) @ rng.normal(size=(8, 20)), rng.normal(size=30)


@pytest.fixture(scope="module")
def polish_duals():
    """The least-distance duals that the polish hands to ``_nnls``, at k = 20..200.

    Their condition numbers run from 5e15 to 6e17.
    """
    import isolect.reconstruct as reconstruct

    duals = []

    def record(E, f):
        duals.append((E, f))
        return _nnls(E, f)

    rng = np.random.default_rng(31)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(reconstruct, "_nnls", record)
        warnings.simplefilter("ignore")
        for k in (20, 50, 100, 200):
            m = noisy_matrix(rng, horizontal_tree(rng, k), 8.0)
            redistribute_residuals(build_dendrogram(m)[0], m)
    assert len(duals) == 4
    return duals


class TestNNLS:
    def test_matches_scipy(self, polish_duals):
        optimize = pytest.importorskip("scipy.optimize")
        for E, f in [*nnls_problems(), *polish_duals]:
            u, expected = _nnls(E, f), optimize.nnls(E, f)[0]
            np.testing.assert_array_equal(u > 0.0, expected > 0.0)
            np.testing.assert_allclose(u, expected, rtol=0.0, atol=1e-10 * np.abs(expected).max())

    def test_kkt_conditions(self, polish_duals):
        for E, f in [*nnls_problems(), *polish_duals]:
            u = _nnls(E, f)
            gradient = E.T @ (f - E @ u)
            tol = 10.0 * np.finfo(float).eps * max(E.shape) * np.linalg.norm(E, 1)
            passive = u > 0.0
            assert np.all(u >= 0.0)
            assert np.all(gradient[~passive] <= tol)
            assert np.all(np.abs(gradient[passive]) <= tol)

    def test_target_in_negative_cone_gives_zero(self):
        rng = np.random.default_rng(6)
        E = rng.uniform(size=(12, 7))
        f = -E @ rng.uniform(size=7)
        np.testing.assert_array_equal(_nnls(E, f), np.zeros(7))

    def test_iteration_cap_raises(self, monkeypatch):
        # a triangular solve under which the column just added always comes
        # out positive and the older ones negative: the older column blocks,
        # leaves, and is taken back by the next outer step, so the method
        # never settles. The solution is in entering order, so the newest
        # column comes last; after a blocking step, which only removes
        # columns, every coefficient comes out positive
        sizes = [0]

        def cycling_solve(R, b):
            s = np.ones(b.size)
            if b.size > sizes[-1]:
                s[:-1] = -1.0
            sizes.append(b.size)
            return s

        monkeypatch.setattr(np.linalg, "solve", cycling_solve)
        with pytest.raises(RuntimeError, match="did not converge in 6 solves"):
            _nnls(np.eye(2), np.ones(2))
        assert sizes[1:] == [1, 2, 1, 2, 1, 2]

    @pytest.mark.parametrize("seed", [12, 29, 32])
    def test_dependent_column_stays_out(self, seed):
        # the third column is the sum of the other two and the target lies
        # far outside their span: once two columns are passive, rounding
        # leaves the third a gradient above the tolerance (on these seeds),
        # so it is chosen, and it must not enter, or the passive set loses
        # column rank. Which two columns stay is not unique; the fit is
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=6), rng.normal(size=6)
        E = np.column_stack((a, b, a + b))
        f = rng.normal(size=6) * 1e12
        u, expected = _nnls(E, f), optimize.nnls(E, f)[0]
        tol = 10.0 * np.finfo(float).eps * max(E.shape) * np.linalg.norm(E, 1)
        assert np.count_nonzero(u) == 2 and np.all(u >= 0.0)
        assert np.all((E.T @ (f - E @ u))[u == 0.0] > tol)
        np.testing.assert_allclose(E @ u, E @ expected, rtol=0.0, atol=1e-10 * np.abs(f).max())


    def test_passive_set_beyond_initial_capacity(self):
        # the factor's storage starts at 32 columns and doubles when full:
        # here every one of the 90 columns ends up passive, so it grows to 64
        # and then to the column count
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(8)
        E = rng.normal(size=(120, 90))
        f = E @ rng.uniform(0.5, 1.5, size=90) + rng.normal(scale=0.1, size=120)
        u, expected = _nnls(E, f), optimize.nnls(E, f)[0]
        assert np.count_nonzero(u) == 90
        np.testing.assert_array_equal(u > 0.0, expected > 0.0)
        np.testing.assert_allclose(u, expected, rtol=0.0, atol=1e-10 * np.abs(expected).max())


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 397])
def test_lower_inverse(n):
    # 64 rows and fewer go to np.linalg.inv whole; 65 splits once, 397 (the
    # factor's size at k=200) three times
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n))
    L = np.linalg.cholesky(A @ A.T + n * np.eye(n))
    inverse = _lower_inverse(L)
    np.testing.assert_allclose(L @ inverse, np.eye(n), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(inverse, np.linalg.inv(L), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("k, sd", [(20, 8.0), (50, 2.0), (50, 8.0), (200, 2.0), (200, 8.0)])
def test_polish_does_not_depend_on_the_nnls_solver(k, sd, monkeypatch):
    # the least-distance solution is recovered from the dual residual r as
    # r[:-1] / |r|^2, which is as well determined as r itself; from r[-1]
    # alone, a cancellation, the two solvers' rounding showed up a
    # millionfold. The bound is relative to the longest length (about 140
    # swadesh at k=200)
    optimize = pytest.importorskip("scipy.optimize")
    import isolect.reconstruct as reconstruct

    rng = np.random.default_rng([k, int(sd)])
    m = noisy_matrix(rng, horizontal_tree(rng, k), sd)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        greedy = build_dendrogram(m)[0]
    polished = _paths(redistribute_residuals(greedy, m))[0]
    monkeypatch.setattr(reconstruct, "_nnls", lambda E, f: optimize.nnls(E, f)[0])
    expected = _paths(redistribute_residuals(greedy, m))[0]
    np.testing.assert_allclose(polished, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
