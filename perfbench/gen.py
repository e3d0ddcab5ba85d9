"""Seeded inputs for the benchmark, made with numpy only.

Trees are emitted as documents in the isolect-dendrogram JSON format, so one
document serves as the ground truth that reconstructions are scored against,
as the inline tree of a simulation config, and as the source of the path
distances behind a generated coincidence matrix. Nothing here imports
isolect: the generated inputs and the reference values computed from them are
independent of the code under test.
"""

import math

import numpy as np


def _leaf(label):
    return {"kind": "leaf", "label": label}


def _level(node, levels):
    return 0.0 if node["kind"] == "leaf" else levels[node["id"]]


def chain_tree(rng, labels, height, max_width=4.0):
    """Random clock-like chain tree over ``labels``.

    Leaves are contemporary (depth 0) and every chain is horizontal, so each
    vertical is the level difference between a chain and the attach endpoint
    of the subtree below it. The leaf set is split recursively at a random
    point near its middle; a clade of n leaves sits at a level proportional to
    log(n), jittered by up to 10%, which keeps the tree balanced and the
    largest path near ``2 * height``. Chain widths are uniform on
    [0, max_width].
    """
    labels = list(labels)
    k = len(labels)
    order = [labels[i] for i in rng.permutation(k)]
    levels = {}
    counter = [0]

    def clade_level(n, ceiling):
        level = height * math.log(n) / math.log(k) * rng.uniform(0.9, 1.1)
        return min(level, 0.97 * ceiling)

    def build(members, level):
        if len(members) == 1:
            return _leaf(members[0])
        n = len(members)
        cut = int(np.clip(round(n * rng.uniform(0.3, 0.7)), 1, n - 1))
        sides = []
        for part in (members[:cut], members[cut:]):
            child_level = clade_level(len(part), level) if len(part) > 1 else 0.0
            sides.append(build(part, child_level))
        counter[0] += 1
        node_id = f"g{counter[0]}"
        levels[node_id] = level
        left, right = sides
        return {
            "kind": "chain",
            "id": node_id,
            "width": float(rng.uniform(0.0, max_width)),
            "attach_side": "left" if rng.random() < 0.5 else "right",
            "left_edge": level - _level(left, levels),
            "right_edge": level - _level(right, levels),
            "left": left,
            "right": right,
        }

    cut = int(np.clip(round(k * rng.uniform(0.3, 0.7)), 1, k - 1))
    parts = (order[:cut], order[cut:])
    sides = [
        build(part, clade_level(len(part), height) if len(part) > 1 else 0.0)
        for part in parts
    ]
    length = (
        2.0 * height
        - _level(sides[0], levels)
        - _level(sides[1], levels)
        + float(rng.uniform(0.0, max_width))
    )
    root = {
        "kind": "root_link",
        "length": length,
        "variant": None,
        "fraction": None,
        "left": sides[0],
        "right": sides[1],
    }
    return {"format": "isolect-dendrogram", "version": 1, "root": root}


def leaf_order(doc):
    """Leaf labels of a tree document in left-to-right order."""
    out = []

    def walk(node):
        if node["kind"] == "leaf":
            out.append(node["label"])
        else:
            walk(node["left"])
            walk(node["right"])

    root = doc["root"]
    if root["kind"] == "root_link":
        walk(root["left"])
        walk(root["right"])
    else:
        walk(root)
    return out


def path_matrix(doc, labels):
    """Leaf-to-leaf path lengths of a tree document, in ``labels`` order.

    A leaf's distance to a chain's attach endpoint is its distance to the
    endpoint its subtree hangs from, plus the chain width when that endpoint
    is the far one.
    """
    index = {label: i for i, label in enumerate(labels)}
    dist = np.full((len(labels), len(labels)), np.nan)

    def join(left, right, span):
        (li, ld), (ri, rd) = left, right
        block = ld[:, None] + span + rd[None, :]
        dist[np.ix_(li, ri)] = block
        dist[np.ix_(ri, li)] = block.T

    def walk(node):
        if node["kind"] == "leaf":
            return np.array([index[node["label"]]]), np.zeros(1)
        li, ld = walk(node["left"])
        ri, rd = walk(node["right"])
        ld = ld + node["left_edge"]
        rd = rd + node["right_edge"]
        join((li, ld), (ri, rd), node["width"])
        if node["attach_side"] == "left":
            rd = rd + node["width"]
        else:
            ld = ld + node["width"]
        return np.concatenate([li, ri]), np.concatenate([ld, rd])

    root = doc["root"]
    if root["kind"] == "root_link":
        join(walk(root["left"]), walk(root["right"]), root["length"])
    else:
        walk(root)
    return dist


def splits(doc):
    """Nontrivial leaf bipartitions of the unrooted tree.

    Each split is keyed by its side that omits the alphabetically first leaf,
    so a clade and its complement give the same key.
    """
    everything = frozenset(leaf_order(doc))
    anchor = min(everything)
    out = set()

    def walk(node):
        if node["kind"] == "leaf":
            return frozenset((node["label"],))
        clade = walk(node["left"]) | walk(node["right"])
        side = everything - clade if anchor in clade else clade
        if 2 <= len(side) <= len(everything) - 2:
            out.add(side)
        return clade

    root = doc["root"]
    if root["kind"] == "root_link":
        walk(root["left"])
        walk(root["right"])
    else:
        walk(root)
    return out


def splits_recovered(truth, estimate):
    """Share of the true tree's nontrivial splits present in the estimate."""
    true_splits = splits(truth)
    if not true_splits:
        return 1.0
    return len(true_splits & splits(estimate)) / len(true_splits)


def sampled_counts(rng, dist, list_size):
    """Shared-slot counts drawn binomially from exp(-L/100), at least one."""
    k = dist.shape[0]
    iu = np.triu_indices(k, 1)
    counts = np.zeros((k, k), dtype=np.int64)
    drawn = rng.binomial(list_size, np.exp(-dist[iu] / 100.0))
    counts[iu] = np.maximum(drawn, 1)
    return counts + counts.T


def matrix_text(labels, counts, list_size):
    """Coincidence-matrix file text with percentages from shared counts."""
    lines = [f"#list_size={list_size}", ",".join(labels)]
    for i, label in enumerate(labels):
        cells = [label]
        for j in range(len(labels)):
            cells.append("-" if i == j else repr(100.0 * int(counts[i, j]) / list_size))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def coincidence_file(rng, labels, height, list_size):
    """A tree plus the text of a coincidence matrix sampled on it."""
    tree = chain_tree(rng, labels, height)
    counts = sampled_counts(rng, path_matrix(tree, labels), list_size)
    return tree, matrix_text(labels, counts, list_size)


def evolve_classes(rng, doc, slots):
    """Cognate classes per leaf, replaced with probability 1 - exp(-l/100).

    Segments are crossed in the order isolect.simulate uses: down the
    near child, across the chain, then down the far child; the root link is
    split into two halves from a common origin.
    """
    out = {}
    next_id = [slots]

    def step(classes, length):
        hit = rng.random(slots) < 1.0 - math.exp(-length / 100.0)
        fresh = int(np.count_nonzero(hit))
        child = classes.copy()
        child[hit] = np.arange(next_id[0], next_id[0] + fresh)
        next_id[0] += fresh
        return child

    def walk(node, classes):
        if node["kind"] == "leaf":
            out[node["label"]] = classes
            return
        sides = [(node["left"], node["left_edge"]), (node["right"], node["right_edge"])]
        if node["attach_side"] == "right":
            sides.reverse()
        (near, near_edge), (far, far_edge) = sides
        walk(near, step(classes, near_edge))
        walk(far, step(step(classes, node["width"]), far_edge))

    root = doc["root"]
    origin = np.arange(slots, dtype=np.int64)
    walk(root["left"], step(origin, root["length"] / 2.0))
    walk(root["right"], step(origin, root["length"] / 2.0))
    return out


def cognacy_text(rng, doc, slots, borrowed_share):
    """Cognacy-table text with a share of slots carrying one loanword.

    In each borrowed slot one language takes the class of another and is
    flagged; every other entry keeps its inherited class.
    """
    classes = evolve_classes(rng, doc, slots)
    labels = sorted(classes)
    ids = np.vstack([classes[label] for label in labels])
    flags = np.zeros_like(ids, dtype=bool)
    n_borrowed = int(round(borrowed_share * slots))
    for slot in rng.choice(slots, size=n_borrowed, replace=False):
        taker, donor = rng.choice(len(labels), size=2, replace=False)
        ids[taker, slot] = ids[donor, slot]
        flags[taker, slot] = True
    width = len(str(slots - 1))
    lines = ["language\tslot\tclass\tborrowed"]
    for i, label in enumerate(labels):
        for j in range(slots):
            lines.append(f"{label}\tw{j:0{width}d}\tc{ids[i, j]}\t{int(flags[i, j])}")
    return "\n".join(lines) + "\n"
