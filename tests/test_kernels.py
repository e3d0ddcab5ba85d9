"""The numpy kernels: fresh-id replacement and per-pair shared counts."""

import numpy as np

from isolect import _kernels


class TestPythonKernels:
    def test_evolve_no_replacements(self):
        parent = np.arange(10, dtype=np.int64)
        child, nid = _kernels.evolve_slots(parent, np.full(10, 0.5), 0.0, 10)
        assert np.array_equal(child, parent)
        assert nid == 10

    def test_evolve_all_replaced(self):
        parent = np.zeros(5, dtype=np.int64)
        child, nid = _kernels.evolve_slots(parent, np.zeros(5), 1.0, 100)
        assert np.array_equal(child, np.arange(100, 105))
        assert nid == 105

    def test_fresh_ids_in_slot_order(self):
        parent = np.zeros(6, dtype=np.int64)
        u = np.array([0.9, 0.1, 0.9, 0.1, 0.1, 0.9])
        child, nid = _kernels.evolve_slots(parent, u, 0.5, 50)
        assert list(child) == [0, 50, 0, 51, 52, 0]
        assert nid == 53

    def test_counts_small_case(self):
        classes = np.array([[1, 2, 3], [1, 2, 4], [9, 2, 3]], dtype=np.int64)
        out = _kernels.pair_shared_counts(classes)
        assert out[0, 1] == 2
        assert out[0, 2] == 2
        assert out[1, 2] == 1
        assert np.array_equal(out, out.T)
        assert np.all(np.diag(out) == 0)
