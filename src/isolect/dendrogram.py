"""Dendrogram structure: isolect chains joined by divergence lines.

A reconstructed family is a rooted tree whose internal nodes are horizontal
isolect chains (synchronous dialect continua of some width in swadesh units)
and whose edges are divergence lines (independent development, measured
vertically in swadesh units). The two children of a chain hang below its two
endpoints; the parent edge attaches at one endpoint (``attach_side``). The
topmost element is either a single node (degenerate one-language case) or a
root link of known length but undetermined configuration.
"""

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .errors import DomainError, IsolectError
from .lexstat import CoincidenceMatrix, coincidence_from_distance, distance_matrix

__all__ = [
    "ChainNode",
    "Dendrogram",
    "FitReport",
    "Leaf",
    "RootGeometry",
    "RootLink",
    "ancestor_depth",
    "attach_depth",
    "endpoint_depths",
    "fit_report",
    "leaf_distances",
    "root_geometry",
    "root_variants",
    "theoretical_matrix",
]

_VARIANTS = (None, "max_chain", "deep_point", "parametrized")


def _check_length(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"{what} must be finite and >= 0, got {value!r}")
    return value


def _node_repr(node) -> str:
    """The dataclass repr of a node and all below it, written from a stack."""
    parts, stack = [], [node]
    while stack:
        item = stack.pop()
        if isinstance(item, ChainNode):
            stack += (
                f", left_edge={item.left_edge!r}, right_edge={item.right_edge!r}, "
                f"attach_side={item.attach_side!r})",
                item.right, ", right=", item.left,
                f"ChainNode(id={item.id!r}, width={item.width!r}, left=",
            )
        elif isinstance(item, RootLink):
            stack += (
                f", variant={item.variant!r}, fraction={item.fraction!r})",
                item.right, ", right=", item.left,
                f"RootLink(length={item.length!r}, left=",
            )
        else:
            parts.append(item if isinstance(item, str) else repr(item))
    return "".join(parts)


@dataclass(frozen=True)
class Leaf:
    """A modern language at depth zero."""

    label: str


@dataclass(frozen=True, eq=False)
class ChainNode:
    """An isolect chain with one subtree hanging below each endpoint.

    Equality and hash are identity: generated ones would recurse (compare ``Dendrogram``s).
    """

    id: str
    width: float
    left: "Node"
    right: "Node"
    left_edge: float
    right_edge: float
    attach_side: str = "left"

    def __post_init__(self):
        object.__setattr__(self, "width", _check_length(self.width, "chain width"))
        object.__setattr__(self, "left_edge", _check_length(self.left_edge, "divergence length"))
        object.__setattr__(self, "right_edge", _check_length(self.right_edge, "divergence length"))
        if self.attach_side not in ("left", "right"):
            raise DomainError(f"attach_side must be 'left' or 'right', got {self.attach_side!r}")

    def __repr__(self):
        return _node_repr(self)


Node = Union[Leaf, ChainNode]


@dataclass(frozen=True, eq=False)
class RootLink:
    """The final edge between the last two subtrees.

    Only its path length is determined by the data; ``variant`` records a
    chosen realization (``max_chain``, ``deep_point`` or ``parametrized``
    with an interpolation ``fraction``), or None while undetermined.
    Equality and hash are identity, as on ``ChainNode``.
    """

    length: float
    left: Node
    right: Node
    variant: str = None
    fraction: float = None

    def __post_init__(self):
        object.__setattr__(self, "length", _check_length(self.length, "root link length"))
        if self.variant not in _VARIANTS:
            raise DomainError(f"unknown root variant {self.variant!r}")
        if self.variant == "parametrized":
            f = float(self.fraction)
            if not 0.0 <= f <= 1.0:
                raise DomainError(f"variant fraction must lie in [0, 1], got {f!r}")
            object.__setattr__(self, "fraction", f)

    def __repr__(self):
        return _node_repr(self)


@dataclass(frozen=True, eq=False, repr=False)
class Dendrogram:
    """A reconstructed family: a root link over two subtrees, or one node.

    Two dendrograms are equal when their trees are. ``==`` and ``hash`` read
    the flat walk record instead of the nested nodes, and ``repr`` is written
    from a stack, so none of them recurses, however deep the tree.
    """

    root: Union[RootLink, Node]
    # the one walk of the tree, made on construction: leaf labels, chain nodes and spans
    _order: tuple = field(default=None, init=False, repr=False, compare=False)
    # the free lengths and the leaf paths, filled in by the first ``_paths(self)``
    _walk: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Pre-order, left side first. The leaves below a node are contiguous,
        # so each chain, then the root link if any, gets a span (lo, mid, hi):
        # its left side holds leaves[lo:mid] and its right side leaves[mid:hi].
        # A (span, slot) stack entry sets mid, then hi, once that side is done.
        leaves, chains, spans, link = [], [], [], [0, 0, 0]
        root, has_link = self.root, isinstance(self.root, RootLink)
        stack = [(link, 2), root.right, (link, 1), root.left] if has_link else [root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                leaves.append(node.label)
            elif isinstance(node, ChainNode):
                chains.append(node)
                spans.append([len(leaves)] * 3)
                stack += ((spans[-1], 2), node.right, (spans[-1], 1), node.left)
            else:
                span, slot = node
                span[slot] = len(leaves)
        spans += [link] * has_link
        for what, names in (("leaf labels", leaves), ("chain ids", [n.id for n in chains])):
            if len(set(names)) != len(names):
                dupes = sorted({x for x in names if names.count(x) > 1})
                raise DomainError(f"duplicate {what} in dendrogram: {dupes}")
        spans = tuple(map(tuple, spans))
        object.__setattr__(self, "_order", (tuple(leaves), tuple(chains), spans))

    def _key(self) -> tuple:
        # the spans fix the shape: a side of one leaf holds that leaf, a wider
        # side the next chain in pre-order
        leaves, chains, spans = self._order
        root = self.root
        link = (root.length, root.variant, root.fraction) if isinstance(root, RootLink) else None
        fields = tuple((n.id, n.width, n.left_edge, n.right_edge, n.attach_side) for n in chains)
        return link, leaves, fields, spans

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Dendrogram(root={_node_repr(self.root)})"

    def leaves(self) -> tuple:
        """Leaf labels in left-to-right drawing order."""
        return self._order[0]

    @property
    def k(self) -> int:
        return len(self._order[0])

    def chain_nodes(self) -> tuple:
        """All chain nodes in pre-order (left subtree first)."""
        return self._order[1]

    def clades(self) -> dict:
        """Map each chain node id to the frozenset of leaf labels below it."""
        leaves, chains, spans = self._order
        return {node.id: frozenset(leaves[lo:hi]) for node, (lo, _, hi) in zip(chains, spans)}


def attach_depth(node: Node) -> float:
    """Depth (swadesh before present) of the endpoint carrying the parent edge."""
    edges = []
    while isinstance(node, ChainNode):
        left = node.attach_side == "left"
        edges.append(node.left_edge if left else node.right_edge)
        node = node.left if left else node.right
    depth = 0.0
    for edge in reversed(edges):  # summed from the leaf up
        depth += edge
    return depth


def endpoint_depths(node: ChainNode) -> tuple:
    """Depths of the chain's (left, right) endpoints; equal when horizontal."""
    return (
        node.left_edge + attach_depth(node.left),
        node.right_edge + attach_depth(node.right),
    )


def _paths(d: Dendrogram):
    """The free lengths of ``d`` and the leaf-to-leaf paths through them.

    Returns ``(values, D)``. ``values`` is the free-length vector: for each
    chain node in pre-order (``chain_nodes`` order) its left edge, right
    edge and width, then the root-link length if there is one. ``D`` is the
    k x k matrix of path lengths between the leaves in ``leaves()`` order.
    A path crosses each divergence line once; it crosses a chain's width
    only when it enters by one endpoint and leaves by the other, that is at
    the chain where it meets or on the way up from the endpoint opposite
    the attach side. So the leaves below each length are a run of the walk's
    spans, and a path crosses a length when just one of its leaves is in it.

    Each path is summed from both of its leaves up to where they meet, and
    the two sides are joined as ``(up_a + meet) + up_b``, which fixes the
    rounding of every distance independently of the layout. The chains are
    visited children first (reverse pre-order), and ``reach`` holds each
    leaf's length up to the attach endpoint of the highest chain above it
    visited so far.

    Computed once per tree and kept on it; both arrays are read-only.
    """
    if d._walk is not None:
        return d._walk
    leaves, chains, spans = d._order
    k, link = len(leaves), isinstance(d.root, RootLink)
    values = [x for node in chains for x in (node.left_edge, node.right_edge, node.width)]
    values += [d.root.length] if link else []
    D = np.zeros((k, k))
    reach = np.zeros(k)
    for i in reversed(range(len(chains))):
        node, (lo, mid, hi) = chains[i], spans[i]
        reach[lo:mid] += node.left_edge
        reach[mid:hi] += node.right_edge
        D[lo:mid, mid:hi] = (reach[lo:mid, None] + node.width) + reach[None, mid:hi]
        D[mid:hi, lo:mid] = D[lo:mid, mid:hi].T
        far = slice(mid, hi) if node.attach_side == "left" else slice(lo, mid)
        reach[far] += node.width  # paths from the far side go up across the width
    if link:
        mid = spans[-1][1]
        D[:mid, mid:] = (reach[:mid, None] + d.root.length) + reach[None, mid:]
        D[mid:, :mid] = D[:mid, mid:].T
    walk = (np.array(values), D)
    for array in walk:
        array.setflags(write=False)
    object.__setattr__(d, "_walk", walk)
    return walk


def _leaf_positions(d: Dendrogram, labels) -> np.ndarray:
    """Position in ``d.leaves()`` of each of ``labels``, which must be the tree's labels."""
    leaves = d.leaves()
    if set(leaves) != set(labels):
        diff = sorted(set(leaves).symmetric_difference(labels))
        raise DomainError(f"tree and matrix label sets differ: {diff}")
    position = {label: i for i, label in enumerate(leaves)}
    return np.array([position[label] for label in labels], dtype=np.intp)


def _with_lengths(d: Dendrogram, values) -> Dendrogram:
    """``d`` with its free lengths replaced by ``values``, laid out as in ``_paths``."""
    chains, values = d.chain_nodes(), np.asarray(values, dtype=float).tolist()
    built = {}  # id of each old chain: the new one
    for i in reversed(range(len(chains))):  # children first
        node = chains[i]
        built[id(node)] = ChainNode(
            node.id,
            values[3 * i + 2],
            built.get(id(node.left), node.left),
            built.get(id(node.right), node.right),
            values[3 * i],
            values[3 * i + 1],
            node.attach_side,
        )
    root = d.root
    if isinstance(root, RootLink):
        left, right = built.get(id(root.left), root.left), built.get(id(root.right), root.right)
        length = values[3 * len(chains)]
        return Dendrogram(RootLink(length, left, right, root.variant, root.fraction))
    return Dendrogram(built.get(id(root), root))


def leaf_distances(d: Dendrogram) -> dict:
    """All pairwise leaf-to-leaf path distances, keyed by frozenset pairs."""
    labels, rows = d.leaves(), _paths(d)[1].tolist()
    return {
        frozenset((a, b)): rows[i][j]
        for i, a in enumerate(labels)
        for j, b in enumerate(labels[i + 1 :], i + 1)
    }


def theoretical_matrix(d: Dendrogram, list_size: int = 100) -> CoincidenceMatrix:
    """Coincidence matrix implied by the tree's path distances."""
    labels = d.leaves()
    values = np.full((len(labels), len(labels)), np.nan)
    upper = np.triu_indices(len(labels), 1)
    values[upper] = [coincidence_from_distance(l) for l in _paths(d)[1][upper].tolist()]
    values.T[upper] = values[upper]
    return CoincidenceMatrix(labels, values, list_size=list_size)


@dataclass(frozen=True)
class RootGeometry:
    """One concrete realization of the root link."""

    variant: str
    left_vertical: float
    right_vertical: float
    chain_width: float
    depth: float


def root_geometry(d: Dendrogram, variant: str = None, fraction: float = None) -> RootGeometry:
    """Realize the root link as verticals plus a chain, preserving its length.

    ``max_chain`` keeps the chain as wide as the subtree depths allow,
    ``deep_point`` spends the whole length on two verticals meeting in a
    single ancestor point, and ``parametrized`` interpolates between them
    (fraction 0 = max_chain, 1 = deep_point). Every realization preserves
    all leaf-to-leaf path distances.
    """
    if not isinstance(d.root, RootLink):
        raise IsolectError("dendrogram has no root link")
    link = d.root
    if variant is None:
        variant = link.variant or "deep_point"
        fraction = link.fraction if fraction is None else fraction
    h_l = attach_depth(link.left)
    h_r = attach_depth(link.right)
    deep = max(h_l, h_r)
    point_depth = (link.length + h_l + h_r) / 2.0
    if variant == "deep_point":
        depth = point_depth
    elif variant == "max_chain":
        depth = deep
    elif variant == "parametrized":
        f = 0.0 if fraction is None else float(fraction)
        depth = deep + f * (point_depth - deep)
    else:
        raise DomainError(f"unknown root variant {variant!r}")
    if depth < deep - 1e-9:
        # link shorter than the depth difference: degenerate, all chain
        depth = deep
    v_l = max(0.0, depth - h_l)
    v_r = max(0.0, depth - h_r)
    width = max(0.0, link.length - v_l - v_r)
    return RootGeometry(variant, v_l, v_r, width, depth)


def ancestor_depth(d: Dendrogram) -> float:
    """Depth of the deepest possible common ancestor point of the root link."""
    return root_geometry(d, variant="deep_point").depth


def root_variants(d: Dendrogram) -> tuple:
    """The two limiting realizations of the root link, as new dendrograms."""
    if not isinstance(d.root, RootLink):
        raise IsolectError("dendrogram has no root link")
    return (
        Dendrogram(replace(d.root, variant="max_chain", fraction=None)),
        Dendrogram(replace(d.root, variant="deep_point", fraction=None)),
    )


@dataclass(frozen=True, eq=False)
class FitReport:
    """Measured vs tree-implied values for every language pair, with summaries.

    ``measured`` is the coincidence matrix the tree was compared against.
    The six per-pair fields are float arrays over its pairs in row-major
    ``i < j`` order; ``pairs`` builds the ``(label_a, label_b)`` tuples in that
    order each time it is read. Residuals are theoretical minus measured, in
    swadesh units and in coincidence percent. Equality is identity
    (``eq=False``), since ``==`` on the array fields would raise.
    """

    measured: CoincidenceMatrix
    measured_distance: np.ndarray
    theoretical_distance: np.ndarray
    residual_distance: np.ndarray
    measured_coincidence: np.ndarray
    theoretical_coincidence: np.ndarray
    residual_coincidence: np.ndarray
    rms_distance: float
    max_abs_distance: float
    rms_coincidence: float
    max_abs_coincidence: float

    @property
    def pairs(self) -> tuple:
        return tuple(itertools.combinations(self.measured.labels, 2))


def fit_report(d: Dendrogram, measured: CoincidenceMatrix) -> FitReport:
    """Compare tree-implied distances and coincidences against measured ones.

    Residuals are theoretical minus measured; RMS is taken over all pairs.
    """
    at = _leaf_positions(d, measured.labels)
    rows, cols = np.triu_indices(measured.k, 1)
    c_meas = measured.values[rows, cols]
    l_meas = distance_matrix(measured)[rows, cols]
    l_theo = _paths(d)[1][at[rows], at[cols]]
    # the scalar formula of coincidence_from_distance, without its domain
    # check (tree paths are finite and nonnegative): np.exp differs from it
    # in the last bit on some inputs
    c_theo = 100.0 * np.fromiter(map(math.exp, (-l_theo / 100.0).tolist()), float, l_theo.size)
    res_l = l_theo - l_meas
    res_c = c_theo - c_meas
    if rows.size:
        rms_l = float(np.sqrt(np.mean(res_l**2)))
        rms_c = float(np.sqrt(np.mean(res_c**2)))
        max_l = float(np.max(np.abs(res_l)))
        max_c = float(np.max(np.abs(res_c)))
    else:
        rms_l = rms_c = max_l = max_c = 0.0
    return FitReport(
        measured, l_meas, l_theo, res_l, c_meas, c_theo, res_c, rms_l, max_l, rms_c, max_c
    )
