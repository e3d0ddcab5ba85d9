"""Numpy kernels of the simulator and the cognacy counts.

``evolve_slots`` steps every slot of the replacement process down one tree
segment, writing the segment's tag into the slots it replaces;
``pair_shared_counts`` counts equal classes for each language pair.
"""

import numpy as np


def evolve_slots(parent, uniforms, prob, tag, out=None):
    """Advance one tree segment of the replacement process.

    A slot is replaced exactly when its uniform draw falls below ``prob``,
    and a replaced slot takes the value ``tag``, the segment's stepping
    index. Returns the child, of the parent's dtype, written into ``out`` if
    given.

    ``tag`` must exceed every value in ``parent``, which holds when tags are
    handed out in stepping order: the replaced slots are then those where the
    tag is the larger value, and a maximum does the job of ``np.where``
    without its per-slot branch.
    """
    child = np.empty_like(parent) if out is None else out
    np.copyto(child, uniforms < prob)
    child *= tag
    return np.maximum(child, parent, out=child)


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
