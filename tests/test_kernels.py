"""The numpy kernels: segment-tag replacement and per-pair shared counts."""

import numpy as np

from isolect import _kernels


class TestPythonKernels:
    def test_tag_step_writes_the_segment_tag(self):
        parent = np.array([0, 3, 3, 7, 0, 7], dtype=np.uint8)
        u = np.array([0.9, 0.1, 0.9, 0.1, 0.1, 0.9])
        child = _kernels.evolve_slots(parent, u, 0.5, 8)
        assert child.dtype == np.uint8
        assert list(child) == [0, 8, 3, 8, 8, 7]
        assert list(parent) == [0, 3, 3, 7, 0, 7]

    def test_tag_step_without_replacements_still_takes_a_tag(self):
        # no draw falls below prob: every slot keeps its class, in a new array
        parent = np.array([0, 1, 2], dtype=np.uint8)
        child = _kernels.evolve_slots(parent, np.zeros(3), 0.0, 3)
        assert np.array_equal(child, parent) and child is not parent

    def test_tag_step_keeps_a_wide_dtype(self):
        # more than 255 segments: tags and the parent's values above 255 survive
        parent = np.array([0, 256, 300, 300], dtype=np.uint16)
        u = np.array([0.1, 0.9, 0.1, 0.9])
        out = np.empty_like(parent)
        child = _kernels.evolve_slots(parent, u, 0.5, 301, out=out)
        assert child is out and child.dtype == np.uint16
        assert list(child) == [301, 256, 301, 300]

    def test_counts_small_case(self):
        classes = np.array([[1, 2, 3], [1, 2, 4], [9, 2, 3]], dtype=np.int64)
        out = _kernels.pair_shared_counts(classes)
        assert out[0, 1] == 2
        assert out[0, 2] == 2
        assert out[1, 2] == 1
        assert np.array_equal(out, out.T)
        assert np.all(np.diag(out) == 0)

    def test_counts_any_integer_dtype(self):
        classes = np.array([[1, 2, 3, 0], [1, 2, 4, 0], [9, 2, 3, 5]])
        expected = _kernels.pair_shared_counts(classes.astype(np.int64))
        for dtype in (np.uint8, np.uint16, np.int32):
            assert np.array_equal(_kernels.pair_shared_counts(classes.astype(dtype)), expected)
