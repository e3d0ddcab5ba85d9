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
from .lexstat import CoincidenceMatrix, _distance_values, coincidence_from_distance

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
    "path_distance",
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


@dataclass(frozen=True)
class Leaf:
    """A modern language at depth zero."""

    label: str


@dataclass(frozen=True)
class ChainNode:
    """An isolect chain with one subtree hanging below each endpoint."""

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


Node = Union[Leaf, ChainNode]


@dataclass(frozen=True)
class RootLink:
    """The final edge between the last two subtrees.

    Only its path length is determined by the data; ``variant`` records a
    chosen realization (``max_chain``, ``deep_point`` or ``parametrized``
    with an interpolation ``fraction``), or None while undetermined.
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


@dataclass(frozen=True)
class Dendrogram:
    """A reconstructed family: a root link over two subtrees, or one node."""

    root: Union[RootLink, Node]
    # the free lengths, leaf paths and splits, filled in by the first ``_paths(self)``
    _walk: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(_preorder(self.root))
        for what, names in (
            ("leaf labels", [n.label for n in nodes if isinstance(n, Leaf)]),
            ("chain ids", [n.id for n in nodes if isinstance(n, ChainNode)]),
        ):
            if len(set(names)) != len(names):
                dupes = sorted({x for x in names if names.count(x) > 1})
                raise DomainError(f"duplicate {what} in dendrogram: {dupes}")

    def leaves(self) -> tuple:
        """Leaf labels in left-to-right drawing order."""
        return tuple(n.label for n in _preorder(self.root) if isinstance(n, Leaf))

    @property
    def k(self) -> int:
        return len(self.leaves())

    def chain_nodes(self) -> tuple:
        """All chain nodes in pre-order (left subtree first)."""
        return tuple(n for n in _preorder(self.root) if isinstance(n, ChainNode))

    def clades(self) -> dict:
        """Map each chain node id to the frozenset of leaf labels below it."""
        nodes = tuple(_preorder(self.root))
        below = {}
        for node in reversed(nodes):
            if isinstance(node, Leaf):
                below[id(node)] = frozenset((node.label,))
            else:
                below[id(node)] = below[id(node.left)] | below[id(node.right)]
        return {n.id: below[id(n)] for n in nodes if isinstance(n, ChainNode)}

    def topology_signature(self) -> frozenset:
        """Hashable summary of the branching structure, lengths ignored."""
        clades = self.clades()
        parts = set(clades.values())
        if isinstance(self.root, RootLink):
            sides = (self.root.left, self.root.right)
            parts.add(
                frozenset(
                    frozenset((n.label,)) if isinstance(n, Leaf) else clades[n.id] for n in sides
                )
            )
        return frozenset(parts)


def _preorder(root):
    """Every node below ``root`` in pre-order, left subtree first.

    A root link is not a node itself; its left side comes first, then its
    right side.
    """
    stack = [root.right, root.left] if isinstance(root, RootLink) else [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ChainNode):
            stack += (node.right, node.left)


def attach_depth(node: Node) -> float:
    """Depth (swadesh before present) of the endpoint carrying the parent edge."""
    if isinstance(node, Leaf):
        return 0.0
    if node.attach_side == "left":
        return node.left_edge + attach_depth(node.left)
    return node.right_edge + attach_depth(node.right)


def endpoint_depths(node: ChainNode) -> tuple:
    """Depths of the chain's (left, right) endpoints; equal when horizontal."""
    return (
        node.left_edge + attach_depth(node.left),
        node.right_edge + attach_depth(node.right),
    )


def _paths(d: Dendrogram):
    """The free lengths of ``d`` and the leaf-to-leaf paths through them.

    Returns ``(values, D, S)``. ``values`` is the free-length vector: for
    each chain node in pre-order (``chain_nodes`` order) its left edge, right
    edge and width, then the root-link length if there is one. ``D`` is the
    k x k matrix of path lengths between the leaves in ``leaves()`` order.
    ``S`` is the k x len(values) boolean split matrix: ``S[i, l]`` says that
    leaf ``i`` lies below length ``l``, so the path between leaves ``i`` and
    ``j`` crosses ``l`` exactly when ``S[i, l] != S[j, l]``. A path crosses
    each divergence line once; it crosses a chain's width only when it
    enters by one endpoint and leaves by the other, that is at the chain
    where it meets or on the way up from the endpoint opposite the attach
    side, so the leaves below a width are those on that side.

    Each path is summed from both of its leaves up to where they meet, and
    the two sides are joined as ``(up_a + meet) + up_b``, which fixes the
    rounding of every distance independently of the layout.

    Computed once per tree and kept on it; the three arrays are read-only.
    """
    if d._walk is not None:
        return d._walk
    k = len(d.leaves())
    link = isinstance(d.root, RootLink)
    values = []
    D = np.zeros((k, k))
    S = np.zeros((k, 3 * len(d.chain_nodes()) + link), dtype=bool)

    def meet(lo, up_a, length, up_b):
        """Fill in the pairs that meet at ``length``; return where each side ends."""
        mid, hi = lo + up_a.size, lo + up_a.size + up_b.size
        D[lo:mid, mid:hi] = (up_a[:, None] + length) + up_b[None, :]
        D[mid:hi, lo:mid] = D[lo:mid, mid:hi].T
        return mid, hi

    def up(node, lo):
        """Lengths from each leaf below ``node`` (leaves ``lo`` on) up to its attach endpoint."""
        if isinstance(node, Leaf):
            return np.zeros(1)
        base = len(values)
        values.extend((node.left_edge, node.right_edge, node.width))
        left = up(node.left, lo) + node.left_edge
        right = up(node.right, lo + left.size) + node.right_edge
        mid, hi = meet(lo, left, node.width, right)
        S[lo:mid, base] = S[mid:hi, base + 1] = True
        if node.attach_side == "left":
            S[mid:hi, base + 2] = True
            right = right + node.width
        else:
            S[lo:mid, base + 2] = True
            left = left + node.width
        return np.concatenate((left, right))

    if link:
        left = up(d.root.left, 0)
        right = up(d.root.right, left.size)
        values.append(d.root.length)
        S[: meet(0, left, d.root.length, right)[0], -1] = True
    else:
        up(d.root, 0)
    walk = (np.array(values), D, S)
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
    lengths = iter(values)

    def put(node):
        if isinstance(node, Leaf):
            return node
        return replace(
            node,
            left_edge=next(lengths),
            right_edge=next(lengths),
            width=next(lengths),
            left=put(node.left),
            right=put(node.right),
        )

    if isinstance(d.root, RootLink):
        return Dendrogram(
            replace(d.root, left=put(d.root.left), right=put(d.root.right), length=next(lengths))
        )
    return Dendrogram(put(d.root))


def leaf_distances(d: Dendrogram) -> dict:
    """All pairwise leaf-to-leaf path distances, keyed by frozenset pairs."""
    labels, rows = d.leaves(), _paths(d)[1].tolist()
    return {
        frozenset((a, b)): rows[i][j]
        for i, a in enumerate(labels)
        for j, b in enumerate(labels[i + 1 :], i + 1)
    }


def path_distance(d: Dendrogram, leaf_a: str, leaf_b: str) -> float:
    """Tree-implied distance between two leaves, in swadesh units."""
    labels = d.leaves()
    for name in (leaf_a, leaf_b):
        if name not in labels:
            raise DomainError(f"unknown leaf {name!r}; tree has {sorted(labels)}")
    return float(_paths(d)[1][labels.index(leaf_a), labels.index(leaf_b)])


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
    shallow = min(h_l, h_r)
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

    ``pairs`` holds the ``(label_a, label_b)`` tuples in row-major ``i < j``
    order of the measured matrix; each of the six per-pair fields is a float
    array aligned with it. Residuals are theoretical minus measured, in
    swadesh units and in coincidence percent. Equality is identity
    (``eq=False``), since ``==`` on the array fields would raise.
    """

    pairs: tuple
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


def fit_report(d: Dendrogram, measured: CoincidenceMatrix) -> FitReport:
    """Compare tree-implied distances and coincidences against measured ones.

    Residuals are theoretical minus measured; RMS is taken over all pairs.
    """
    at = _leaf_positions(d, measured.labels)
    if measured._pairs is None:  # built once per matrix
        object.__setattr__(measured, "_pairs", tuple(itertools.combinations(measured.labels, 2)))
    pairs = measured._pairs
    rows, cols = np.triu_indices(measured.k, 1)
    c_meas = measured.values[rows, cols]
    l_meas = _distance_values(measured)[rows, cols]
    l_theo = _paths(d)[1][at[rows], at[cols]]
    # the scalar formula of coincidence_from_distance, without its domain
    # check (tree paths are finite and nonnegative): np.exp differs from it
    # in the last bit on some inputs
    c_theo = np.array([100.0 * math.exp(-l / 100.0) for l in l_theo.tolist()])
    res_l = l_theo - l_meas
    res_c = c_theo - c_meas
    if pairs:
        rms_l = float(np.sqrt(np.mean(res_l**2)))
        rms_c = float(np.sqrt(np.mean(res_c**2)))
        max_l = float(np.max(np.abs(res_l)))
        max_c = float(np.max(np.abs(res_c)))
    else:
        rms_l = rms_c = max_l = max_c = 0.0
    return FitReport(
        pairs, l_meas, l_theo, res_l, c_meas, c_theo, res_c, rms_l, max_l, rms_c, max_c
    )
