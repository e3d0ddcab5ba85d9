"""Shared fixtures: golden matrices, synthetic trees, borrowing tables."""

import sys
from pathlib import Path

import numpy as np
import pytest

from isolect import CognacyTable, CoincidenceMatrix, distance_matrix
from isolect.dendrogram import ChainNode, Dendrogram, Leaf, RootLink, _leaf_positions, _paths
from isolect.reconstruct import _map_rows, _normal_equations
from isolect.treeio import read_coincidence_matrix

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def table1() -> CoincidenceMatrix:
    return read_coincidence_matrix(DATA_DIR / "table1.csv")


@pytest.fixture(scope="session")
def table2() -> CoincidenceMatrix:
    return read_coincidence_matrix(DATA_DIR / "table2.csv")


@pytest.fixture
def fig4_tree() -> Dendrogram:
    """Three languages: chain of width 4 at depth 8, stem 18 above language 2."""
    chain = ChainNode(
        id="n1",
        width=4.0,
        left=Leaf("1"),
        right=Leaf("2"),
        left_edge=8.0,
        right_edge=8.0,
        attach_side="right",
    )
    return Dendrogram(RootLink(length=18.0, left=chain, right=Leaf("3")))


@pytest.fixture
def two_cherry_tree() -> Dendrogram:
    """Four leaves, one nonzero chain width, committed as the golden truth."""
    cherry1 = ChainNode(
        id="t1",
        width=6.0,
        left=Leaf("alpha"),
        right=Leaf("beta"),
        left_edge=10.0,
        right_edge=10.0,
        attach_side="right",
    )
    cherry2 = ChainNode(
        id="t2",
        width=0.0,
        left=Leaf("gamma"),
        right=Leaf("delta"),
        left_edge=12.0,
        right_edge=12.0,
        attach_side="right",
    )
    return Dendrogram(RootLink(length=30.0, left=cherry1, right=cherry2))


def clade_set(tree: Dendrogram) -> frozenset:
    """The leaf sets below ``tree``'s chains: equal sets mean one rooted topology."""
    return frozenset(tree.clades().values())


def make_deep_caterpillar(attach_side: str = "left") -> Dendrogram:
    """A root link over a caterpillar nested deeper than the recursion limit.

    Chain ``n{i}`` sits at level ``i`` (i = 1 .. k - 2) with width 0.5 and
    its parent edge on ``attach_side``; it joins the chain below it (leaf
    ``L0`` for ``n1``) on the left to leaf ``L{i}`` on the right. The root
    link of length 4 joins the top chain to leaf ``top``. With the parent
    edge on the left, each width lies above one leaf and the paths are, with
    ``m = k - 2``: ``L{j}``-``L{i}`` is ``2 i + 1`` for ``1 <= j < i``,
    ``L0``-``L{i}`` is ``2 i + 0.5``, ``L{i}``-``top`` is ``m + 4.5`` and
    ``L0``-``top`` is ``m + 4``. On the right, each width lies above the
    whole chain below it, up to ``k - 2`` leaves.
    """
    k = sys.getrecursionlimit() + 100
    node = Leaf("L0")
    for i in range(1, k - 1):
        node = ChainNode(f"n{i}", 0.5, node, Leaf(f"L{i}"), 1.0, float(i), attach_side)
    return Dendrogram(RootLink(4.0, node, Leaf("top")))


@pytest.fixture(scope="session")
def deep_caterpillar() -> Dendrogram:
    return make_deep_caterpillar()


def make_far_side_caterpillar(k: int) -> CoincidenceMatrix:
    """Noisy coincidences of a ``k``-leaf caterpillar with far-side widths.

    Chain ``n{i}`` (i = 1 .. k - 2) has width 0.5, its parent edge on the
    right, the chain below it (leaf ``L0`` for ``n1``) on the left at edge
    1 and leaf ``L{i}`` on the right at edge ``i + 0.7``; a root link of
    length 4 joins the top chain to leaf ``top``. Its levels step by 1
    swadesh, closer than the noise: each coincidence ``100 exp(-D/100)`` of
    the path matrix ``D`` (in ``leaves()`` order) is multiplied by ``1 +
    N(0, 0.02)`` drawn from ``default_rng(7)``, the upper triangle is
    mirrored, and values are capped at 100. The greedy trees of these
    matrices bind many lengths: at 600 leaves the working-set polish that
    preceded the dual active-set one stopped short of the optimum.
    """
    node = Leaf("L0")
    for i in range(1, k - 1):
        node = ChainNode(f"n{i}", 0.5, node, Leaf(f"L{i}"), 1.0, i + 0.7, "right")
    tree = Dendrogram(RootLink(4.0, node, Leaf("top")))
    values = 100.0 * np.exp(-_paths(tree)[1] / 100.0)
    values *= 1.0 + np.random.default_rng(7).normal(0.0, 0.02, (k, k))
    upper = np.triu_indices(k, 1)
    values.T[upper] = values[upper]
    np.fill_diagonal(values, 100.0)
    return CoincidenceMatrix(tree.leaves(), np.minimum(values, 100.0))


def polish_stationarity(tree: Dendrogram, m: CoincidenceMatrix) -> tuple:
    """The KKT conditions of a polished tree, checked with numpy alone.

    The polish minimizes ``|A y - d|^2`` subject to ``T y + held >= 0``
    (``reconstruct._normal_equations``), so at its optimum the gradient ``G
    y - rhs`` of the normal equations is ``T_tight^T lambda`` for
    multipliers ``lambda >= 0`` over the binding lengths, taken here as
    those at most 1e-9 of the longest. ``y`` is read off the tree's lengths
    children first, and ``lambda`` is fitted by least squares. Returns the
    relative stationarity residual ``|T_tight^T lambda - (G y - rhs)| / |G
    y - rhs|`` and the smallest multiplier.
    """
    lengths = _paths(tree)[0]
    measured = np.empty((m.k, m.k))
    at = _leaf_positions(tree, m.labels)
    measured[np.ix_(at, at)] = distance_matrix(m)
    normal, rhs, (up, down), held = _normal_equations(tree, measured)
    y = np.zeros(len(normal))
    for i in reversed(range(lengths.size)):  # a chain's lengths come before its children's
        if up[i] >= 0:
            y[up[i]] = lengths[i] - held[i] + (y[down[i]] if down[i] >= 0 else 0.0)
    gradient = normal @ y - rhs
    tight = lengths <= 1e-9 * lengths.max()
    normals = _map_rows((up[tight], down[tight]), np.eye(len(normal))).T
    multipliers = np.linalg.lstsq(normals, gradient, rcond=None)[0]
    residual = np.linalg.norm(normals @ multipliers - gradient) / np.linalg.norm(gradient)
    return residual, multipliers.min()


def make_borrowing_table() -> CognacyTable:
    """Four languages, 100 slots, 5 same-slot borrowings that coincide nowhere.

    Shared counts by construction: AB=80, CD=78, AC=AD=BC=50, BD=48, so
    excluding the 5 borrowed slots multiplies every coincidence by 100/95
    exactly.
    """
    langs = ("lang_a", "lang_b", "lang_c", "lang_d")
    k = len(langs)
    blocks = []  # per-slot class column (length k); distinct ints = distinct classes

    def add(column, count):
        for _ in range(count):
            blocks.append(list(column))

    add([0, 0, 0, 0], 48)  # all four share
    add([0, 1, 0, 2], 2)  # a and c share
    add([0, 1, 2, 0], 2)  # a and d share
    add([0, 1, 1, 2], 2)  # b and c share
    add([0, 0, 1, 1], 30)  # a-b share and c-d share
    add([0, 0, 1, 2], 2)  # a and b share
    add([0, 1, 2, 3], 14)  # nobody shares
    assert len(blocks) == 100
    ids = np.array(blocks, dtype=np.int64).T.copy()
    borrowed = np.zeros((k, 100), dtype=bool)
    borrowed[:, 95:100] = True  # five of the nobody-shares slots, in all languages
    slots = tuple(f"s{j:03d}" for j in range(100))
    return CognacyTable(langs, slots, ids, borrowed)


@pytest.fixture
def borrowing_table() -> CognacyTable:
    return make_borrowing_table()
