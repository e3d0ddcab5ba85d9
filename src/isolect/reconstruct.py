"""Reconstruction of the prior state of a language system.

Given a matrix of pairwise swadesh distances the builder agglomerates the
two closest points (languages or already-built nodes) into an isolect chain,
estimating the chain width from the mean signed difference of distances to
all other active points. Because distances to an internal node are measured
from its attachment endpoint, which already sits at some depth, the raw mean
difference mixes that depth offset with the true horizontal offset; the
width estimate therefore corrects for the depth difference of the two
points being joined:

    width = | mean_m(L(i,m) - L(j,m)) + (depth_i - depth_j) |

Chains are kept horizontal (their isolects are synchronous by definition),
so the chain settles at the depth that splits the remaining pair distance
into the two verticals; when the data contradict the already-built geometry
the verticals are clamped at zero and the path discrepancy is recorded on
the join step instead of producing negative lengths. Distances from a fresh
node to every remaining point use the stem formula
(L(i,m) + L(j,m) - L(i,j)) / 2, which is exact for three languages.

The final two points are joined by a root link of known length but
undetermined configuration. Measurement contradictions accumulated by the
greedy pass can afterwards be spread by a least-squares adjustment whose
unknowns are the chain levels and widths and the root-link length, so that
every divergence line is a level difference and chains stay horizontal. The
constraint that no length is negative makes it a strictly convex quadratic
program with a unique optimum. The normal equations are counted in the
unknowns, as pairs per meet and pairs across each width, from the leaf spans
(``_normal_equations``), since every pair of leaves meets at one chain or at
the root link; the Cholesky factor of the normal matrix is inverted
blockwise as a triangle. The program then becomes a least-distance one, and
the dual active-set method of Goldfarb & Idnani (1983) solves it
(``_least_distance``): it starts at the unconstrained optimum and takes the
violated lengths in one at a time, so its work grows with the few lengths
that bind. All of it needs numpy alone. Polished lengths agree with other
exact solvers to about 1e-13 of the longest length at k=200 (1e-11 swadesh)
and 4e-13 at k=1000, so compare polished trees at 1e-12 of it.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dendrogram import (
    ChainNode,
    Dendrogram,
    Leaf,
    RootLink,
    _leaf_positions,
    _paths,
    _with_lengths,
    root_variants,
)
from .errors import DomainError
from .lexstat import CoincidenceMatrix, _check_length, distance_matrix

__all__ = [
    "JoinStep",
    "TwoLanguageFamily",
    "build_dendrogram",
    "redistribute_residuals",
    "root_variants",
    "three_language_tree",
    "two_language_family",
]


@dataclass(frozen=True)
class TwoLanguageFamily:
    """The one-parameter ambiguity family behind a single distance.

    Two languages at distance ``total`` may have diverged a' swadesh ago from
    the endpoints of a chain of width ``total - 2a'`` for any a' in
    [0, total/2]: a' = total/2 is divergence from a single point, a' = 0 the
    lexifier-pidgin limit of a contemporary chain of full width.
    """

    total: float

    def __post_init__(self):
        _check_length(self.total, "distance")

    @property
    def max_divergence(self) -> float:
        return self.total / 2.0

    def chain_width(self, a_prime: float) -> float:
        """Chain width induced by a divergence time of ``a_prime`` swadesh."""
        if not 0.0 <= a_prime <= self.total / 2.0 + 1e-12:
            raise DomainError(
                f"divergence parameter must lie in [0, {self.total / 2.0}], got {a_prime!r}"
            )
        return max(0.0, self.total - 2.0 * a_prime)

    def realize(self, a_prime: float) -> Dendrogram:
        """Concrete two-leaf tree for one member of the family."""
        width = self.chain_width(a_prime)
        node = ChainNode(
            id="n1",
            width=width,
            left=Leaf("1"),
            right=Leaf("2"),
            left_edge=a_prime,
            right_edge=a_prime,
            attach_side="left",
        )
        return Dendrogram(node)


def two_language_family(l12: float) -> TwoLanguageFamily:
    """Full ambiguity family for a two-language system."""
    return TwoLanguageFamily(float(l12))


@dataclass(frozen=True)
class JoinStep:
    """Bookkeeping for one agglomeration step.

    ``pair`` holds the ids of the joined items (leaf labels or node ids).
    ``divergence_length`` is the symmetric closed-form vertical
    (pair_distance - chain_width) / 2 before any clamping; the realized
    verticals are ``left_vertical``/``right_vertical``. ``path_residual`` is
    the excess of the realized pair path over the working distance (positive
    only when clamping fired).
    """

    node_id: str
    pair: tuple
    pair_distance: float
    mean_signed_difference: float
    depth_correction: float
    chain_width: float
    divergence_length: float
    left_vertical: float
    right_vertical: float
    orientation: str
    path_residual: float


def three_language_tree(
    l12: float, l13: float, l23: float, labels: tuple = ("1", "2", "3")
) -> Dendrogram:
    """Closed-form reconstruction for three languages.

    ``l12`` must be the smallest of the three distances (reorder before
    calling). The chain width is the difference of the two distances to the
    third language, oriented so the third language attaches above the nearer
    of the pair; the stem comes out identical whether counted from language 1
    or language 2.
    """
    for name, value in (("l12", l12), ("l13", l13), ("l23", l23)):
        _check_length(value, name)
    if l12 > min(l13, l23) + 1e-9:
        raise DomainError(
            f"l12={l12!r} must be the minimal distance (got l13={l13!r}, l23={l23!r})"
        )
    if l13 + l23 < l12 - 1e-9 or l12 + l23 < l13 - 1e-9 or l12 + l13 < l23 - 1e-9:
        warnings.warn(
            f"triangle inequality violated for ({l12}, {l13}, {l23}); lengths clamped",
            stacklevel=2,
        )
    a, b, c = labels
    width = abs(l13 - l23)
    attach_side = "right" if l13 >= l23 else "left"  # third language joins the nearer one
    vertical = max(0.0, (l12 - width) / 2.0)
    node = ChainNode(
        id="n1",
        width=width,
        left=Leaf(a),
        right=Leaf(b),
        left_edge=vertical,
        right_edge=vertical,
        attach_side=attach_side,
    )
    stem = max(0.0, (l13 + l23 - l12) / 2.0)
    return Dendrogram(RootLink(length=stem, left=node, right=Leaf(c)))


def build_dendrogram(m: CoincidenceMatrix) -> tuple:
    """Greedy reconstruction of the whole system from a coincidence matrix.

    Returns ``(dendrogram, steps)`` where ``steps`` records one ``JoinStep``
    per created chain node in creation order. Requires at least two
    languages; with exactly two the result is a bare root link and no steps.
    Ties in distance go to the pair with the smaller key, then the smaller
    other key, where a leaf's key is its label and a chain's is the smaller
    key of the two points it joins.
    """
    if m.k < 2:
        raise DomainError(f"need at least 2 languages to reconstruct, got {m.k}")
    k, labels = m.k, m.labels

    # one slot per active point, in key order: a chain takes the slot of its
    # smaller-key child, so the first minimum of the symmetric array (inf on
    # the diagonal and on retired slots) breaks ties by key
    by_key = sorted(range(k), key=labels.__getitem__)
    # C order: [by_key][:, by_key] is F-ordered, and argmin runs 3-9x slower on it
    dist = np.ascontiguousarray(distance_matrix(m)[np.ix_(by_key, by_key)])
    np.fill_diagonal(dist, np.inf)
    uid = [labels[i] for i in by_key]
    nodes = [Leaf(label) for label in uid]
    depth = [0.0] * k
    # observers in input label order, new nodes appended: this order fixes
    # the rounding of the mean signed difference and the order of warnings
    active = np.argsort(by_key)

    steps = []
    while active.size > 2:
        u, v = divmod(int(np.argmin(dist)), k)  # u < v: the first minimum is above the diagonal
        l_pair = float(dist[u, v])
        observers = active[(active != u) & (active != v)]
        to_u, to_v = dist[u, observers], dist[v, observers]
        diffs = to_u - to_v
        # summed strictly left to right from 0, as builtin sum did before
        # Python 3.12 made it compensated, so that the join log does not
        # depend on the interpreter; 0.0 + maps a -0.0 total to 0.0, as sum did
        dbar = (0.0 + float(np.add.accumulate(diffs)[-1])) / diffs.size
        correction = depth[u] - depth[v]
        signed_width = dbar + correction
        width = abs(signed_width)
        # positive signed width: u lies horizontally farther from the rest,
        # so future attachments happen at v's endpoint
        attach_side = "right" if signed_width >= 0.0 else "left"

        level = (l_pair - width + depth[u] + depth[v]) / 2.0
        level = max(level, depth[u], depth[v])
        left_vertical = level - depth[u]
        right_vertical = level - depth[v]
        path_residual = (left_vertical + width + right_vertical) - l_pair
        if path_residual > 1e-9:
            warnings.warn(
                f"join of ({uid[u]}, {uid[v]}) contradicts the built geometry; "
                f"verticals clamped, path excess {path_residual:.3f} swadesh",
                stacklevel=2,
            )

        node_id = f"n{len(steps) + 1}"
        steps.append(
            JoinStep(
                node_id=node_id,
                pair=(uid[u], uid[v]),
                pair_distance=l_pair,
                mean_signed_difference=dbar,
                depth_correction=correction,
                chain_width=width,
                divergence_length=(l_pair - width) / 2.0,
                left_vertical=left_vertical,
                right_vertical=right_vertical,
                orientation=attach_side,
                path_residual=max(0.0, path_residual),
            )
        )

        stems = (to_u + to_v - l_pair) / 2.0
        for s in observers[stems < 0.0].tolist():
            warnings.warn(
                f"negative stem distance from {node_id} to {uid[s]} clamped to 0",
                stacklevel=2,
            )
        np.maximum(stems, 0.0, out=stems)
        dist[u, observers] = dist[observers, u] = stems
        dist[v, :] = dist[:, v] = np.inf
        nodes[u] = ChainNode(
            id=node_id,
            width=width,
            left=nodes[u],
            right=nodes[v],
            left_edge=left_vertical,
            right_edge=right_vertical,
            attach_side=attach_side,
        )
        uid[u], depth[u] = node_id, level
        active = np.concatenate((observers, [u]))

    a, b = sorted(active.tolist())
    tree = Dendrogram(RootLink(length=float(dist[a, b]), left=nodes[a], right=nodes[b]))
    return tree, tuple(steps)


def _normal_equations(d: Dendrogram, distances: np.ndarray) -> tuple:
    """The normal equations of the polish, counted in level/width space.

    The unknowns are each chain's level (endpoint depth) in ``chain_nodes``
    order, then each chain's width, then the root-link length if there is
    one. The free lengths of ``_paths`` are ``T y`` for a map ``T`` of 0 and
    +-1: a divergence line is its chain's level minus that of the chain
    below it, if any. Without a root link the root chain's width is held,
    since only ``2 * level + width`` enters its paths.

    A pair of leaves that meets at a chain has the path ``2 * level``, and
    one that meets at the root link ``level + link + level`` over the link's
    two children, plus each width whose leaf set ``W`` separates the pair.
    With ``L`` and ``R`` the leaves below the two sides of a meet, the
    normal matrix ``(A T)^T (A T)`` of the path design ``A`` is thus made of
    counts, exact in floating point: ``|L| |R|`` pairs per meet,
    ``a (|R| - b) + (|L| - a) b`` across ``W`` for ``a = |L & W|`` and
    ``b = |R & W|``, and the pairs that two widths both separate. Each of
    ``L``, ``R`` and ``W`` is a run of contiguous leaves (a span of the walk),
    so ``a``, ``b`` and the leaves two widths share are overlaps of two runs.
    The right-hand side sums ``distances`` (in ``leaves()`` order) over the
    same runs: ``L x R`` per meet, and per width the rows of ``W`` less twice
    the pairs that meet inside ``W``, the far child's subtree, summed children
    first; so it is O(k^2) however wide ``W`` runs.

    Returns ``(normal, rhs, index, held)``: ``index`` is ``(up, down)``, per
    free length the column of ``T`` holding its +1 and its -1 (or -1), and
    the lengths are ``T y + held``, with the held paths taken off ``rhs``.
    """
    chains, spans = d.chain_nodes(), d._order[2]
    n, k, link = len(chains), d.k, isinstance(d.root, RootLink)
    position = {id(node): i for i, node in enumerate(chains)}
    up, down, runs = [], [], []  # runs: per width, its leaves [first, last) and far child
    for i, (node, (first, cut, last)) in enumerate(zip(chains, spans)):
        up += (i, i, n + i)
        down += (position.get(id(node.left), -1), position.get(id(node.right), -1), -1)
        runs.append((cut, last, down[-2]) if node.attach_side == "left" else (first, cut, down[-3]))

    # every side of a meet (the chains, then the root link) and every width
    # holds a run of leaves, so the counts are overlaps of two runs
    lo, mid, hi = np.array(spans, dtype=float).reshape(-1, 3).T
    start, stop, _ = np.array(runs, dtype=float).reshape(-1, 3).T

    def overlap(first, last):  # leaves shared by each run [first, last) and each width
        shared = np.minimum(last[:, None], stop)
        shared -= np.maximum(first[:, None], start)
        return np.maximum(shared, 0.0, out=shared)

    # per meet the distances over L x R, then per width over W x ~W; inside[i]
    # sums the pairs that meet below chain i, and a leaf (-1) has none
    rows = distances.sum(axis=1)
    meets = [float(distances[first:cut, cut:last].sum()) for first, cut, last in spans]
    inside = meets[:n] + [0.0]
    for i in reversed(range(n)):
        inside[i] += inside[down[3 * i]] + inside[down[3 * i + 1]]
    widths = [float(rows[first:last].sum()) - 2.0 * inside[far] for first, last, far in runs]
    sums = np.array(meets + widths)

    # the counts are built in place in normal's blocks, each overlap dropped
    # once used: first the meets x widths block, whose root-link row is kept
    # aside before the width block covers it
    normal = np.zeros((2 * n + link,) * 2)
    size_l, size_r = mid - lo, hi - mid
    across = normal[: n + link, n : 2 * n]
    a, b = overlap(lo, mid), overlap(mid, hi)
    np.subtract(size_r[:, None], b, out=across)
    across *= a
    np.subtract(size_l[:, None], a, out=a)
    a *= b
    across += a
    del a, b
    link_across = across[n:].copy()
    across[:n] *= 2.0
    # widths W and V both separate |W&V| |~W&~V| + |W&~V| |~W&V| pairs; the
    # overlaps are symmetric, so |~W&V| is the transpose of |W&~V|
    both = overlap(start, stop)
    only_w = np.diag(both)[:, None] - both
    block = normal[n : 2 * n, n : 2 * n]
    np.subtract(k, only_w, out=block)
    block -= only_w.T
    block -= both
    block *= both
    del both
    block += only_w * only_w.T
    np.fill_diagonal(normal[:n, :n], 4.0 * size_l[:n] * size_r[:n])
    rhs = np.concatenate((2.0 * sums[:n], sums[n + link :], [0.0] * link))
    if link:
        top = [position[id(c)] for c in (d.root.left, d.root.right) if id(c) in position]
        top.append(2 * n)
        normal[np.ix_(top, top)] += size_l[n] * size_r[n]
        normal[top, n : 2 * n] += link_across
        rhs[top] += sums[n]
    # the width rows mirror the width columns (levels and the root link)
    normal[n : 2 * n, :n] = normal[:n, n : 2 * n].T
    normal[n : 2 * n, 2 * n :] = normal[2 * n :, n : 2 * n].T

    up, down = np.array(up + [2 * n] * link), np.array(down + [-1] * link)
    held = np.zeros(up.size)
    if not link:  # the root chain comes first: its width is column n and row 2
        held[2] = d.root.width
        rhs = np.delete(rhs - normal[:, n] * held[2], n)
        normal = np.delete(np.delete(normal, n, axis=0), n, axis=1)
        up[2] = -1
        up[up > n] -= 1
    return normal, rhs, (up, down), held


def _map_rows(index: tuple, X: np.ndarray) -> np.ndarray:
    """``T @ X`` for the level/width map behind ``index``, with no dense product."""
    up, down = index
    out = np.zeros((up.size, *X.shape[1:]))
    out[up >= 0] = X[up[up >= 0]]
    out[down >= 0] -= X[down[down >= 0]]
    return out


_MET = 1e-13  # a length is met at a slack of at least -_MET times the largest at the start


def _least_distance(inverse: np.ndarray, c: np.ndarray, index: tuple, held: np.ndarray) -> tuple:
    """The polish's least-distance program, by the dual method of Goldfarb & Idnani (1983).

    Minimizes ``|w|`` subject to ``T y + held >= 0`` for ``y = inverse^T (w +
    c)``, where ``T`` is the level/width map behind ``index``. Length ``i``
    has the constraint normal ``b_i = inverse[:, up_i] - inverse[:, down_i]``
    (a difference of columns), so its slack is ``b_i^T (w + c) + held_i``.
    This is Goldfarb and Idnani's method with ``J = I``: it starts at ``w =
    0``, the unconstrained optimum, and takes violated lengths in one at a
    time. The normals of the lengths held at zero are kept as a thin QR
    factor ``Q R``, with ``R^-1`` beside it. An entering normal ``b`` is
    appended by Gram-Schmidt with one re-orthogonalization; the primal step
    is along its part ``b'`` off ``Q``, at full length ``-slack / |b'|^2``,
    and the held lengths' multipliers move along ``-R^-1 Q^T b``. When one
    of them reaches zero first (the partial step ``min u_j / r_j``), its
    length leaves: its column of ``R`` is deleted, Givens rotations, applied
    to the rows of ``Q`` too, restore the triangle, and ``R^-1`` is taken
    anew. A normal whose part off ``Q`` is under 1e-13 of its length takes
    the dual step alone.

    The slacks of all lengths are taken once per round; within a round only
    the lengths negative at its start are followed, as one block of
    normals. A length counts as met when its slack is at least ``-_MET``
    times the largest slack in magnitude at the unconstrained optimum (at
    the end, every slack may be near zero), so that a constraint listed
    twice (a chain over two leaves holds ``level >= 0`` twice) is not taken
    in again once its copy is held. ``Q``, ``R`` and ``R^-1`` live in
    preallocated storage that doubles when full. More steps than three per
    length raise ``RuntimeError``, and so does an infeasible program.

    Returns ``(y, bound)``, with ``bound`` true at the lengths held at zero.
    """
    up, down = index
    cap = 3 * up.size
    w = np.zeros_like(c)
    held_at = []  # the lengths held at zero, in the row order of Q and column order of R
    bound = np.zeros(up.size, dtype=bool)
    size = min(c.size, 32)
    Q, u = np.empty((size, c.size)), np.empty(size)  # in use: [:p]
    R, inverse_r = np.empty((size, size)), np.empty((size, size))
    steps = 0
    y = inverse.T @ c
    slack = _map_rows(index, y) + held
    tol = _MET * np.abs(slack).max()  # at the optimum, every slack may be near zero
    while (follow := np.flatnonzero((slack < -tol) & ~bound)).size:
        normals = _map_rows((up[follow], down[follow]), inverse.T)  # one row per followed length
        s = slack[follow]
        while True:
            free = np.where(bound[follow], np.inf, s)
            j = int(np.argmin(free))
            if free[j] >= -tol:
                break
            b, entering = normals[j], 0.0
            while True:
                steps += 1
                if steps > cap:
                    raise RuntimeError(f"least-distance program did not converge in {cap} steps")
                p = len(held_at)
                r = Q[:p] @ b
                q = b - r @ Q[:p]
                again = Q[:p] @ q
                q -= again @ Q[:p]
                r += again
                square = q @ q
                direction = inverse_r[:p, :p] @ r
                full = -s[j] / square if square > 1e-26 * (b @ b) else np.inf
                blocking = np.flatnonzero(direction > 0.0)
                ratios = u[blocking] / direction[blocking]
                partial = ratios.min() if blocking.size else np.inf
                t = min(full, partial)
                if t == np.inf:
                    raise RuntimeError("least-distance program is infeasible")
                u[:p] -= t * direction
                entering += t
                if full < np.inf:
                    w += t * q
                    s += t * (normals @ q)
                if full <= partial:
                    break
                # the held length whose multiplier reached zero leaves
                leaving = int(blocking[np.argmin(ratios)])
                bound[held_at.pop(leaving)] = False
                u[leaving : p - 1] = u[leaving + 1 : p]
                R[:p, leaving : p - 1] = R[:p, leaving + 1 : p]
                for i in range(leaving, p - 1):
                    a, e = R[i, i], R[i + 1, i]
                    h = math.hypot(a, e)
                    rotation = np.array([[a / h, e / h], [-e / h, a / h]])
                    R[i : i + 2, i : p - 1] = rotation @ R[i : i + 2, i : p - 1]
                    Q[i : i + 2] = rotation @ Q[i : i + 2]
                    R[i + 1, i] = 0.0
                inverse_r[: p - 1, : p - 1] = np.linalg.inv(R[: p - 1, : p - 1])
            if p == len(R):
                Q, u = np.pad(Q, ((0, p), (0, 0))), np.pad(u, (0, p))
                R, inverse_r = np.pad(R, (0, p)), np.pad(inverse_r, (0, p))
            norm = math.sqrt(square)
            Q[p] = q / norm
            R[:p, p], R[p, :p], R[p, p] = r, 0.0, norm
            inverse_r[:p, p], inverse_r[p, :p], inverse_r[p, p] = -direction / norm, 0.0, 1.0 / norm
            u[p] = entering
            held_at.append(follow[j])
            bound[follow[j]] = True
        y = inverse.T @ (w + c)
        slack = _map_rows(index, y) + held
    return y, bound


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Invert the lower-triangular ``L`` in place, by halves, and return it.

    ``inv([[A, 0], [B, C]]) = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]``, so the
    work is two half-size inverses, each written over its block, and two
    products of triangles, written over ``B``; blocks of at most 64 rows go
    to ``np.linalg.inv``.
    """
    n = len(L)
    if n <= 64:
        L[:] = np.linalg.inv(L)
        return L
    h = n // 2
    A, B, C = _lower_inverse(L[:h, :h]), L[h:, :h], _lower_inverse(L[h:, h:])
    B[:] = -C @ (B @ A)
    return L


def redistribute_residuals(d: Dendrogram, measured: CoincidenceMatrix) -> Dendrogram:
    """Spread measurement contradictions over the levels and widths of the chains.

    Minimizes the sum of squared differences between tree paths and measured
    distances, with topology and orientations fixed. The unknowns are each
    chain's level and width and the root-link length (``_normal_equations``),
    so every divergence line is a level difference and the result has
    horizontal chains by construction; the constraint is that every length
    is nonnegative (a chain sits at or above the children it joins). When
    the root is a chain rather than a root link, its level and width enter
    every path through it only as ``2 * level + width``, so its width is
    held at its input value and only its level moves. With that rule the
    least-squares problem has full column rank and a unique optimum.

    The problem is solved in normal form: with ``G = R^T R`` the Cholesky
    factorization of the normal matrix and ``c`` its reduced right-hand
    side, it is the least-distance program min ``|w|`` over ``w = R y - c``
    with one constraint per free length (Lawson & Hanson 1974, ch. 23),
    solved by ``_least_distance``. Few lengths bind: at k=200 about 45 of
    595. The polish holds its factor once: the normal matrix, whose counts
    are built in place, is dropped as soon as it is factored, and the factor
    is inverted in place (``_lower_inverse``). So at most two N x N arrays
    live at once, during the factorization; the traced peak is about 2.5
    N x N doubles. A length held at zero comes out exactly zero: a width, a
    root link or a vertical above a leaf is set to it, and a chain held on a
    child chain is put at the level of its highest child.

    Returns the input tree unchanged when the sum of squares does not
    improve.
    """
    at = _leaf_positions(d, measured.labels)
    x0, paths0 = _paths(d)
    if x0.size == 0:
        return d
    measured_paths = np.empty_like(paths0)  # in leaves() order, like the tree paths
    measured_paths[np.ix_(at, at)] = distance_matrix(measured)

    normal, rhs, index, held = _normal_equations(d, measured_paths)
    # R^-T, the inverse of the Cholesky factor of the normal matrix, for c and
    # y, written over the factor once the normal matrix is gone
    factor = np.linalg.cholesky(normal)
    del normal
    inverse = _lower_inverse(factor)
    c = inverse @ rhs
    y, bound = _least_distance(inverse, c, index, held)
    # lengths held at zero come out exactly zero: a held width, root link or
    # vertical above a leaf is set to zero, and a chain held on a child chain
    # is lowered to -inf for the loop below to put at its highest child. That
    # loop removes rounding-level violations: it raises each chain to the
    # highest child it joins, children first (they follow their parents in
    # pre-order), so that every level difference is exactly nonnegative; down
    # holds, per length, the chain whose level it subtracts, or -1
    up, down = index
    y = np.maximum(y, 0.0)
    y[up[bound & (down < 0) & (up >= 0)]] = 0.0
    y[up[bound & (down >= 0)]] = -np.inf
    edges = np.flatnonzero(down >= 0)[::-1]
    for parent, child in zip(edges // 3, down[edges]):
        y[parent] = max(y[parent], y[child])
    candidate = _with_lengths(d, _map_rows(index, y) + held)

    # both sums of squares from path matrices, which keeps them exact when
    # the fit is: the expanded normal form cancels near zero
    upper = np.triu_indices(measured.k, 1)
    sse0 = float(np.sum((paths0 - measured_paths)[upper] ** 2))
    sse = float(np.sum((_paths(candidate)[1] - measured_paths)[upper] ** 2))
    if sse >= sse0 * (1.0 - 1e-12) - 1e-12:
        return d
    return candidate
