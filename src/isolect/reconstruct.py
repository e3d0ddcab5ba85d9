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
constraint that no length is negative makes it an inequality-constrained
least-squares problem; it is solved exactly through the least-distance dual
of Lawson & Hanson (1974, ch. 23), and its optimum is unique. Few lengths
bind, so the dual is built only over a working set of lengths, those that
came out negative in an earlier round, and the rounds stop when none does.
The solver is in the package and needs numpy alone: every pair of leaves
meets at one chain or at the root link, so the normal equations are counted
in the unknowns, as pairs per meet and pairs across each width, from the
leaf spans (``_normal_equations``); the Cholesky factor of the normal matrix
is inverted blockwise as a triangle, and each dual goes to the Lawson-Hanson
active-set method (``_nnls``), warm-started from the previous round's
passive columns. The dual is ill conditioned: polished lengths are
reproducible to about 1e-12 of the longest length (about 2e-11 swadesh at
k=200), so compare polished trees at that tolerance.
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
from .lexstat import CoincidenceMatrix, distance_matrix

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
        if not math.isfinite(self.total) or self.total < 0.0:
            raise DomainError(f"distance must be finite and >= 0, got {self.total!r}")

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
        if not math.isfinite(value) or value < 0.0:
            raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
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
        return np.maximum(np.minimum(last[:, None], stop) - np.maximum(first[:, None], start), 0.0)

    size_l, size_r = mid - lo, hi - mid
    a, b = overlap(lo, mid), overlap(mid, hi)
    across = a * (size_r[:, None] - b) + (size_l[:, None] - a) * b  # meets x widths
    # widths W and V both separate |W&V| |~W&~V| + |W&~V| |~W&V| pairs
    both = overlap(start, stop)
    size = np.diag(both)
    only_w, only_v = size[:, None] - both, size[None, :] - both
    # per meet the distances over L x R, then per width over W x ~W; inside[i]
    # sums the pairs that meet below chain i, and a leaf (-1) has none
    rows = distances.sum(axis=1)
    meets = [float(distances[first:cut, cut:last].sum()) for first, cut, last in spans]
    inside = meets[:n] + [0.0]
    for i in reversed(range(n)):
        inside[i] += inside[down[3 * i]] + inside[down[3 * i + 1]]
    widths = [float(rows[first:last].sum()) - 2.0 * inside[far] for first, last, far in runs]
    sums = np.array(meets + widths)

    normal = np.zeros((2 * n + link,) * 2)
    normal[:n, :n] = np.diag(4.0 * size_l[:n] * size_r[:n])
    normal[:n, n : 2 * n] = 2.0 * across[:n]
    normal[n : 2 * n, n : 2 * n] = both * (k - only_w - only_v - both) + only_w * only_v
    rhs = np.concatenate((2.0 * sums[:n], sums[n + link :], [0.0] * link))
    if link:
        top = [position[id(c)] for c in (d.root.left, d.root.right) if id(c) in position]
        top.append(2 * n)
        normal[np.ix_(top, top)] += size_l[n] * size_r[n]
        normal[top, n : 2 * n] += across[n]
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


def _nnls(E: np.ndarray, f: np.ndarray, start=()) -> np.ndarray:
    """Nonnegative least squares: the ``u >= 0`` that minimizes ``|E u - f|``.

    The active-set method of Lawson & Hanson (1974, ch. 23). Each passive-set
    subproblem is solved on the columns of ``E`` themselves, not on ``E^T E``,
    whose condition number is the square of theirs, and the gradient is taken
    in data space. As in their reference code, a column whose own coefficient
    comes out of its first solve at or below zero does not enter: its
    gradient entry is set to zero and the next candidate is tried. The
    tolerance follows ``scipy.optimize.nnls``, and so does the cap of ``3 n``
    iterations (``n`` the column count), counted here as passive-set solves;
    reaching it raises ``RuntimeError``.

    The passive columns are kept in entering order with a thin QR factor
    ``Q R``, and each subproblem is the triangular solve ``R s = Q^T f``. A
    column that enters is appended by Gram-Schmidt with one
    re-orthogonalization and dropped again if it does not stay; only a
    blocking step, which removes columns, refactors from scratch. As in the
    reference code, a column that depends on the passive ones to working
    precision (0.01 of its new diagonal entry is lost against the norm of
    its projection) does not enter either, so the passive set keeps full
    column rank. ``Q``, ``R`` and ``Q^T f`` live in preallocated storage,
    written in place, whose column capacity doubles whenever the passive set
    fills it. The residual ``f - E u`` is kept too: a column ``q`` of ``Q``
    that enters takes ``q (q^T f)`` off it, so each step makes one product
    with ``E^T`` (the gradient); it is recomputed only after a blocking step.

    ``start`` lists columns to begin from, say the passive set of a smaller
    problem over the same columns. They are factored at once; if their
    least-squares coefficients are not all positive, the method starts from
    ``u = 0`` instead.
    """
    m, n = E.shape
    tol = 10.0 * np.finfo(float).eps * max(m, n) * np.linalg.norm(E, 1)
    u = np.zeros(n)
    passive = list(start)  # column indices in entering order, the column order of Q and R
    size = max(min(n, 32), len(passive))
    Q, R, qtf = np.empty((m, size)), np.empty((size, size)), np.empty(size)  # in use: [:p]
    residual = f.copy()
    solves = 0

    def solve():
        nonlocal solves
        solves += 1
        if solves > 3 * n:
            raise RuntimeError(f"nonnegative least squares did not converge in {3 * n} solves")
        p = len(passive)
        s = np.zeros(n)
        # R is upper triangular: LU does not pivot
        s[passive] = np.linalg.solve(R[:p, :p], qtf[:p])
        return s

    def refactor():
        p = len(passive)
        Q[:, :p], R[:p, :p] = np.linalg.qr(E[:, passive])
        qtf[:p] = Q[:, :p].T @ f
        return solve()

    if passive:
        s = refactor()
        if (s[passive] > 0.0).all():
            u = s
            residual = f - E[:, passive] @ u[passive]
        else:
            passive = []
    w = E.T @ residual
    while len(passive) < n:
        candidates = w.copy()
        candidates[passive] = -np.inf
        j = int(np.argmax(candidates))
        if w[j] <= tol:
            break
        p = len(passive)
        r = Q[:, :p].T @ E[:, j]
        q = E[:, j] - Q[:, :p] @ r
        again = Q[:, :p].T @ q
        q -= Q[:, :p] @ again
        r += again
        diagonal, norm = np.linalg.norm(q), np.linalg.norm(r)
        if norm + 0.01 * diagonal <= norm:  # dependent to working precision
            w[j] = 0.0
            continue
        if p == len(R):
            grow = min(p, n - p)
            Q, R, qtf = np.pad(Q, ((0, 0), (0, grow))), np.pad(R, (0, grow)), np.pad(qtf, (0, grow))
        Q[:, p] = q / diagonal
        R[:p, p], R[p, :p], R[p, p] = r, 0.0, diagonal
        qtf[p] = Q[:, p] @ f
        passive.append(j)
        s = solve()
        if s[j] <= 0.0:
            passive.pop()
            w[j] = 0.0
            continue
        if (s[passive] >= 0.0).all():
            residual -= Q[:, p] * qtf[p]
        else:
            while (s[passive] < 0.0).any():
                # step from u towards s until the first passive entry reaches zero
                blocking = [i for i in passive if s[i] < 0.0]
                alpha = np.min(u[blocking] / (u[blocking] - s[blocking]))
                u += alpha * (s - u)
                passive = [i for i in passive if u[i] > tol]
                s = refactor()
            residual = f - E[:, passive] @ s[passive]
        u = s
        w = E.T @ residual
    return u


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """The inverse of a lower-triangular matrix, by halves.

    ``inv([[A, 0], [B, C]]) = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]``, so the
    work is two half-size inverses and two products of triangles; blocks of
    at most 64 rows go to ``np.linalg.inv``.
    """
    n = len(L)
    if n <= 64:
        return np.linalg.inv(L)
    h = n // 2
    out = np.zeros_like(L)
    out[:h, :h] = _lower_inverse(L[:h, :h])
    out[h:, h:] = _lower_inverse(L[h:, h:])
    out[h:, :h] = -out[h:, h:] @ (L[h:, :h] @ out[:h, :h])
    return out


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
    side, the inequality-constrained least-squares problem is a
    least-distance program in ``z = R y - c`` (Lawson & Hanson 1974,
    ch. 23), with one constraint per free length. It is solved by
    constraint generation: starting from ``z = 0``, the unconstrained
    optimum, every length that comes out negative joins a working set, and
    the program over the working set is solved through its dual, a
    nonnegative least-squares problem with a row per unknown plus one and a
    column per length in the set, warm-started from the previous round's
    passive columns. The rounds end when no length is negative, since an
    optimum over some of the constraints that meets all of them is the
    optimum over all of them. Few lengths bind: at k=200 about 45 of 595.

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
    # R^-T, the inverse of the Cholesky factor of the normal matrix, for c, the dual and y
    inverse = _lower_inverse(np.linalg.cholesky(normal))
    c = inverse @ rhs
    # least-distance program in z = R y - c: min |z| subject to
    # (T R^-1) z >= -(T R^-1 c + held), solved on a working set of its rows.
    # Over the rows in the set, its dual is the NNLS problem min |dual u - e|
    # over u >= 0, and z = r[:-1] / |r|^2 for the residual r = dual u - e: at
    # the optimum r^T (dual u) = 0, so |r|^2 = -r[-1], which is positive since
    # y = 0 is feasible. r[-1] itself comes out of a cancellation and would
    # carry the solver's rounding into z a millionfold. The optimum over some
    # rows that meets all of them is the optimum over all of them
    up, down = index
    z, working, u = np.zeros_like(c), np.zeros(0, dtype=np.intp), np.zeros(0)
    target = np.zeros(c.size + 1)
    target[-1] = 1.0
    while True:
        y = inverse.T @ (z + c)
        new = np.setdiff1d(np.flatnonzero(_map_rows(index, y) + held < 0.0), working)
        if new.size == 0:
            break
        working = np.concatenate((working, new))  # appended: u's columns keep their place
        constraint_t = _map_rows((up[working], down[working]), inverse.T).T  # (T R^-1)^T
        dual = np.vstack((constraint_t, -(c @ constraint_t + held[working])))
        u = _nnls(dual, target, start=np.flatnonzero(u > 0.0))
        residual = dual @ u - target
        z = residual[:-1] / (residual @ residual)
    y = np.maximum(y, 0.0)
    # remove rounding-level violations: raise each chain to the highest child
    # it joins, children first (they follow their parents in pre-order), so
    # that every level difference is exactly nonnegative; down holds, per
    # length, the chain whose level it subtracts, or -1
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
