"""Numpy kernels of the simulator and the cognacy counts.

``evolve_slots`` steps every slot of the replacement process down one tree
segment; ``pair_shared_counts`` counts equal classes for each language pair.
"""

import numpy as np


def evolve_slots(parent, uniforms, prob, next_id, tag=False, out=None):
    """Advance one tree segment of the replacement process.

    A slot is replaced exactly when its uniform draw falls below ``prob``.
    With ``tag`` every replaced slot takes the value ``next_id`` (the
    segment's tag) and ``next_id`` advances by one; otherwise replaced slots
    take fresh ids ``next_id, next_id + 1, ...`` in slot order and
    ``next_id`` advances by their number. Returns ``(child, new_next_id)``;
    the child has the parent's dtype and is written into ``out`` if given.

    A tag step needs every value in ``parent`` below ``next_id``, which
    holds when tags are handed out in stepping order: the replaced slots are
    then those where the tag is the larger value, and a maximum does the job
    of ``np.where`` without its per-slot branch.
    """
    fired = uniforms < prob
    child = np.empty_like(parent) if out is None else out
    if tag:
        np.copyto(child, fired)
        child *= next_id
        return np.maximum(child, parent, out=child), next_id + 1
    np.copyto(child, parent)
    fresh = np.flatnonzero(fired)
    child[fresh] = np.arange(next_id, next_id + fresh.size, dtype=child.dtype)
    return child, next_id + fresh.size


def pair_shared_counts(classes):
    """Count per-pair equal entries of a (languages x slots) class matrix.

    Any integer dtype is accepted and compared as it is. Returns a symmetric
    int64 matrix with zero diagonal.
    """
    classes = np.ascontiguousarray(classes)
    k = classes.shape[0]
    out = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        row = classes[i]
        for j in range(i + 1, k):
            c = int(np.count_nonzero(row == classes[j]))
            out[i, j] = c
            out[j, i] = c
    return out
