"""Numpy kernels of the simulator and the cognacy counts.

``evolve_slots`` steps every slot of the replacement process down one tree
segment; ``pair_shared_counts`` counts equal classes for each language pair.
"""

import numpy as np


def evolve_slots(parent, uniforms, prob, next_id):
    """Advance one tree segment of the replacement process.

    A slot is replaced by a globally fresh class id exactly when its uniform
    draw falls below ``prob``; fresh ids are handed out in slot order starting
    at ``next_id``. Returns ``(child_classes, new_next_id)``.
    """
    parent = np.ascontiguousarray(parent, dtype=np.int64)
    uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
    child = parent.copy()
    fresh = np.flatnonzero(uniforms < prob)
    child[fresh] = np.arange(next_id, next_id + fresh.size, dtype=np.int64)
    return child, next_id + fresh.size


def pair_shared_counts(classes):
    """Count per-pair equal entries of a (languages x slots) class matrix.

    Returns a symmetric int64 matrix with zero diagonal.
    """
    classes = np.ascontiguousarray(classes, dtype=np.int64)
    k = classes.shape[0]
    out = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        row = classes[i]
        for j in range(i + 1, k):
            c = int(np.count_nonzero(row == classes[j]))
            out[i, j] = c
            out[j, i] = c
    return out
