"""Scalar conversions, matrix transforms, cognacy counting, borrowings."""

import re

import numpy as np
import pytest

from isolect import (
    BorrowingAdjustment,
    CognacyTable,
    CoincidenceMatrix,
    DomainError,
    InputFormatError,
    adjust_coincidence_for_borrowings,
    coincidence_from_cognacy,
    coincidence_from_distance,
    distance_from_coincidence,
    distance_matrix,
)

# frozen high-precision evaluations of 100*ln(100/C)
L_79 = 23.572233352106983
L_50 = 69.31471805599453


class TestScalarConversions:
    def test_identity_case(self):
        assert distance_from_coincidence(100.0) == 0.0

    def test_c79(self):
        assert distance_from_coincidence(79.0) == pytest.approx(L_79, abs=1e-9)

    def test_c50_is_100_ln2(self):
        assert distance_from_coincidence(50.0) == pytest.approx(L_50, abs=1e-9)

    def test_monotone_decreasing(self):
        values = [distance_from_coincidence(c) for c in (5.0, 20.0, 50.0, 80.0, 100.0)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("bad", [0.0, -1.0, 100.5, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            distance_from_coincidence(bad)

    def test_inverse_identity(self):
        assert coincidence_from_distance(0.0) == 100.0

    def test_inverse_values(self):
        assert coincidence_from_distance(L_50) == pytest.approx(50.0, abs=1e-9)
        assert coincidence_from_distance(L_79) == pytest.approx(79.0, abs=1e-9)

    def test_inverse_domain_error(self):
        with pytest.raises(DomainError):
            coincidence_from_distance(-0.001)

    def test_round_trip_over_range(self):
        for l in np.arange(0.0, 500.0 + 1e-9, 0.25):
            back = distance_from_coincidence(coincidence_from_distance(l))
            assert abs(back - l) <= 1e-9 * max(1.0, l)


class TestCoincidenceMatrix:
    def test_two_by_two_full_coincidence(self):
        m = CoincidenceMatrix(("a", "b"), [[np.nan, 100.0], [100.0, np.nan]])
        assert distance_matrix(m)[m.index("a"), m.index("b")] == 0.0

    def test_table1_entries(self, table1):
        dm = distance_matrix(table1)
        at = table1.index
        assert dm[at("kalderash"), at("hindi")] == pytest.approx(63.488, abs=5e-4)
        assert dm[at("hindi"), at("panjabi")] == pytest.approx(23.572, abs=5e-4)
        assert dm[np.triu_indices(table1.k, 1)].size == 15

    def test_distances_match_scalar_conversion_bitwise(self):
        rng = np.random.default_rng(3)
        k = 40
        upper = np.triu(rng.uniform(1.0, 100.0, (k, k)), 1)
        m = CoincidenceMatrix([f"L{i}" for i in range(k)], upper + upper.T)
        dm = distance_matrix(m)
        for a, b, c in m.pairs():
            i, j = m.index(a), m.index(b)
            assert dm[i, j] == dm[j, i] == distance_from_coincidence(c)

    def test_distances_converted_once_and_read_only(self, table1):
        first = distance_matrix(table1)
        assert distance_matrix(table1) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 1] = 5.0

    @pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
    def test_distance_values_bitwise(self, repeated):
        # the formula runs once per distinct coincidence; whole percentages
        # of a 100-word list repeat across 780 pairs
        rng = np.random.default_rng(4)
        k = 40
        draw = rng.integers(1, 101, (k, k)).astype(float) if repeated else rng.uniform(1.0, 100.0, (k, k))
        upper = np.triu(draw, 1)
        m = CoincidenceMatrix([f"L{i}" for i in range(k)], upper + upper.T)
        distinct = np.unique(m.values[np.triu_indices(k, 1)]).size
        assert (distinct <= 100) if repeated else (distinct == k * (k - 1) // 2)
        expected = np.zeros((k, k))
        for i, j in zip(*np.nonzero(~np.eye(k, dtype=bool))):
            expected[i, j] = distance_from_coincidence(float(m.values[i, j]))
        assert distance_matrix(m).tobytes() == expected.tobytes()

    def test_distance_matrix_is_one_read_only_array_with_zero_diagonal(self, table1):
        dm = distance_matrix(table1)
        assert isinstance(dm, np.ndarray) and dm.shape == (table1.k, table1.k)
        assert distance_matrix(table1) is dm
        assert not dm.flags.writeable
        assert (np.diag(dm) == 0.0).all()
        assert np.isnan(np.diag(table1.values)).all()

    def test_symmetry_required(self):
        with pytest.raises(DomainError, match="asymmetric"):
            CoincidenceMatrix(("a", "b"), [[np.nan, 70.0], [71.0, np.nan]])

    def test_out_of_range_names_pair(self):
        with pytest.raises(DomainError, match=r"\(a, b\)"):
            CoincidenceMatrix(("a", "b"), [[np.nan, 101.0], [101.0, np.nan]])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            CoincidenceMatrix(("a", "a"), [[np.nan, 50.0], [50.0, np.nan]])

    def test_values_read_only(self, table1):
        with pytest.raises(ValueError):
            table1.values[0, 1] = 5.0

    @pytest.mark.parametrize("convert", [lambda m: m], ids=["coincidence"])
    def test_unknown_label_names_it(self, table1, convert):
        with pytest.raises(DomainError, match="unknown language 'zz'"):
            convert(table1).value("zz", "hindi")


def _with_entries(base, entries):
    """4x4 symmetric matrix of ``base`` with each (i, j) -> value set on one side only."""
    arr = np.full((4, 4), base)
    np.fill_diagonal(arr, np.nan)
    for (i, j), value in entries.items():
        arr[i, j] = value
    return arr


LABELS = ("a", "b", "c", "d")
F = float  # messages show entries as plain floats: 150.0, nan, inf


@pytest.mark.parametrize("make", [
    lambda: CoincidenceMatrix(("a", "b"), [[np.nan, 80.0], [80.0, np.nan]]),
    lambda: CognacyTable(("a", "b"), ("s0", "s1"), [[1, 2], [1, 3]], np.zeros((2, 2), bool)),
], ids=["coincidence", "cognacy"])
def test_array_holders_compare_and_hash_by_identity(make):
    # a value comparison would have to reduce ``==`` over the array fields,
    # which raises; equal values are different objects
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) != hash(b)
    assert len({a, a, b}) == 2


class TestMatrixErrors:
    """The first bad pair in row-major upper-triangle order is the one named."""

    @pytest.mark.parametrize(
        "entries,message",
        [
            # asymmetric (a, c) comes before out-of-range (b, d)
            ({(0, 2): 60.0, (1, 3): 150.0, (3, 1): 150.0},
             f"asymmetric coincidence for pair (a, c): {F(60.0)!r} vs {F(50.0)!r}"),
            # out-of-range (a, b) comes before asymmetric (a, d)
            ({(0, 1): 0.0, (1, 0): 0.0, (3, 0): 40.0},
             f"coincidence for pair (a, b) must lie on (0, 100], got {F(0.0)!r}"),
            # (a, d) precedes (b, c) although its asymmetry sits in the lower triangle
            ({(1, 2): -5.0, (2, 1): -5.0, (3, 0): 51.0},
             f"asymmetric coincidence for pair (a, d): {F(50.0)!r} vs {F(51.0)!r}"),
            # both faults on one pair: asymmetry is reported
            ({(0, 1): 150.0, (1, 0): 120.0, (2, 3): np.nan, (3, 2): np.nan},
             f"asymmetric coincidence for pair (a, b): {F(150.0)!r} vs {F(120.0)!r}"),
            # NaN never equals itself, so a NaN pair reads as asymmetric
            ({(0, 3): np.nan, (3, 0): np.nan, (1, 2): 101.0, (2, 1): 101.0},
             f"asymmetric coincidence for pair (a, d): {F(np.nan)!r} vs {F(np.nan)!r}"),
            ({(0, 3): np.inf, (3, 0): np.inf, (1, 2): 101.0, (2, 1): 101.0},
             f"coincidence for pair (a, d) must lie on (0, 100], got {F(np.inf)!r}"),
        ],
    )
    def test_coincidence(self, entries, message):
        with pytest.raises(DomainError) as info:
            CoincidenceMatrix(LABELS, _with_entries(50.0, entries))
        assert str(info.value) == message

    def test_diagonal_ignored(self):
        arr = _with_entries(50.0, {})
        np.fill_diagonal(arr, -7.0)
        m = CoincidenceMatrix(LABELS, arr)
        assert np.isnan(np.diag(m.values)).all()

    def test_shape_checked_first(self):
        with pytest.raises(DomainError, match=r"must be 4x4, got shape \(3, 3\)"):
            CoincidenceMatrix(LABELS, np.full((3, 3), -1.0))

    @pytest.mark.parametrize("size", [99.9, True, np.float64(5.5), 5.0, "5"])
    def test_list_size_must_be_an_integer(self, size):
        # int() would truncate a fraction and read a bool as 0 or 1
        with pytest.raises(DomainError, match=r"^list_size must be an integer, got "):
            CoincidenceMatrix(LABELS, _with_entries(50.0, {}), list_size=size)

    @pytest.mark.parametrize("size", [94, np.int64(94), np.uint16(94)])
    def test_list_size_keeps_numpy_integers(self, size):
        m = CoincidenceMatrix(LABELS, _with_entries(50.0, {}), list_size=size)
        assert m.list_size == 94 and type(m.list_size) is int


def _table_from_columns(langs, columns, borrowed_slots=()):
    """columns: list over slots of per-language class tokens."""
    rows = []
    for j, column in enumerate(columns):
        slot = f"s{j:03d}"
        for i, lang in enumerate(langs):
            rows.append((lang, slot, column[i], slot in borrowed_slots))
    return CognacyTable.from_rows(rows)


class TestCognacyCounting:
    def test_identical_columns_give_full_coincidence(self):
        columns = [(f"w{j}", f"w{j}") for j in range(94)]
        table = _table_from_columns(("x", "y"), columns)
        m = coincidence_from_cognacy(table)
        assert m.value("x", "y") == 100.0
        assert m.list_size == 94

    def test_counting_definition(self):
        columns = [(f"w{j}", f"w{j}") for j in range(79)]
        columns += [(f"u{j}", f"v{j}") for j in range(21)]
        table = _table_from_columns(("x", "y"), columns)
        assert coincidence_from_cognacy(table).value("x", "y") == pytest.approx(79.0)

    def test_exclusion_hand_count(self):
        # 100 slots, 79 shared, 5 borrowed-everywhere slots among the shared
        columns = [(f"w{j}", f"w{j}") for j in range(79)]
        columns += [(f"u{j}", f"v{j}") for j in range(21)]
        table = _table_from_columns(
            ("x", "y"), columns, borrowed_slots={f"s{j:03d}" for j in range(5)}
        )
        m = coincidence_from_cognacy(table, exclude_borrowed=True)
        assert m.value("x", "y") == pytest.approx(100.0 * 74.0 / 95.0, abs=1e-12)
        assert m.list_size == 95

    def test_missing_slots_error_lists_slots(self):
        rows = [
            ("x", "s0", "w", False),
            ("x", "s1", "w", False),
            ("y", "s0", "w", False),
        ]
        # a table is complete: the gap is refused when the table is built
        with pytest.raises(InputFormatError, match="s1"):
            CognacyTable.from_rows(rows)

    def test_empty_effective_list(self):
        rows = [
            ("x", "s0", "w", True),
            ("y", "s0", "w", False),
        ]
        table = CognacyTable.from_rows(rows)
        with pytest.raises(InputFormatError, match="no slots left"):
            coincidence_from_cognacy(table, exclude_borrowed=True)

    def test_no_slots_at_all(self):
        table = CognacyTable(("x", "y"), (), np.zeros((2, 0)), np.zeros((2, 0)))
        with pytest.raises(InputFormatError, match="no slots left"):
            coincidence_from_cognacy(table)

    def test_borrowed_slots_kept_unless_excluded(self):
        columns = [(f"w{j}", f"w{j}") for j in range(79)]
        columns += [(f"u{j}", f"v{j}") for j in range(21)]
        table = _table_from_columns(("x", "y"), columns, borrowed_slots={"s000"})
        m = coincidence_from_cognacy(table)
        assert m.list_size == 100
        assert m.value("x", "y") == 79.0

    def test_first_unshared_pair_named(self):
        # x-y and y-z share nothing; x-y comes first in row-major order
        columns = [("w", "v", "w"), ("u", "t", "s")]
        table = _table_from_columns(("x", "y", "z"), columns)
        with pytest.raises(DomainError) as info:
            coincidence_from_cognacy(table)
        assert str(info.value) == (
            "pair (x, y) shares no cognate classes; coincidence of 0 has no finite distance"
        )

    def test_unshared_after_exclusion(self):
        columns = [("w", "w", "w"), ("u", "v", "u"), ("a", "a", "b")]
        table = _table_from_columns(("x", "y", "z"), columns, borrowed_slots={"s000"})
        assert coincidence_from_cognacy(table).value("y", "z") == pytest.approx(100 / 3)
        with pytest.raises(DomainError, match=r"pair \(y, z\) shares no"):
            coincidence_from_cognacy(table, exclude_borrowed=True)

    def test_duplicate_row_rejected(self):
        with pytest.raises(InputFormatError, match="duplicate"):
            CognacyTable.from_rows(
                [("x", "s0", "w", False), ("x", "s0", "v", False)]
            )

    def test_negative_id_rejected(self):
        # a negative id once marked a missing entry; now it would count as a class
        ids = np.array([[0, 1], [0, -1]])
        with pytest.raises(DomainError, match=r"negative class id for language 'y', slot 's1'"):
            CognacyTable(("x", "y"), ("s0", "s1"), ids, np.zeros((2, 2), bool))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64])
    def test_integer_ids_keep_their_dtype(self, dtype):
        ids = np.array([[0, 1], [0, 2]], dtype=dtype)
        table = CognacyTable(("x", "y"), ("s0", "s1"), ids, np.zeros((2, 2), bool))
        assert table.class_ids.dtype == dtype
        assert coincidence_from_cognacy(table).value("x", "y") == 50.0

    def test_caller_arrays_stay_writable(self):
        # the table holds read-only views of the caller's arrays, not copies
        ids = np.zeros((2, 1), dtype=np.uint8)
        flags = np.zeros((2, 1), dtype=bool)
        table = CognacyTable(("x", "y"), ("s0",), ids, flags)
        ids[0, 0] = 1
        flags[0, 0] = True
        assert not table.class_ids.flags.writeable and not table.borrowed.flags.writeable
        assert np.shares_memory(table.class_ids, ids) and np.shares_memory(table.borrowed, flags)

    def test_other_ids_become_int64(self):
        table = CognacyTable(("x", "y"), ("s0",), [[1.0], [2.0]], [[0], [0]])
        assert table.class_ids.dtype == np.int64
        assert table.class_ids.tolist() == [[1], [2]]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        langs = ("p", "q", "r")
        columns = [
            tuple(rng.integers(0, 3, size=3).astype(str)) for _ in range(60)
        ]
        table = _table_from_columns(langs, columns)
        base = coincidence_from_cognacy(table)

        rows = [
            (language, slot, f"c{cid}", flag)
            for language, ids, flags in zip(table.languages, table.class_ids, table.borrowed)
            for slot, cid, flag in zip(table.slots, ids.tolist(), flags.tolist())
        ]
        for trial in range(5):
            rng.shuffle(rows)
            shuffled = CognacyTable.from_rows(rows)
            m = coincidence_from_cognacy(shuffled)
            for a, b, value in base.pairs():
                assert m.value(a, b) == pytest.approx(value, abs=1e-12)


class TestUnwritableLabels:
    """A label must read back from every file it is written to."""

    @pytest.mark.parametrize("label", [
        "a,b", "x\ty", "a\nb", "a\r", "a\u2028b", " a", "a ", "\xa0a", "", "#x",
    ])
    def test_language_label_rejected(self, label):
        values = [[np.nan, 50.0], [50.0, np.nan]]
        with pytest.raises(DomainError, match=f"^language label {re.escape(repr(label))} cannot"):
            CoincidenceMatrix(("z", label), values)
        with pytest.raises(DomainError, match=f"^language label {re.escape(repr(label))} cannot"):
            CognacyTable(("z", label), ("s0",), [[0], [0]], [[0], [0]])

    @pytest.mark.parametrize("label", ["x\ty", "a\nb", " s0", "s0 ", ""])
    def test_slot_label_rejected(self, label):
        with pytest.raises(DomainError, match=f"^slot label {re.escape(repr(label))} cannot"):
            CognacyTable(("x", "y"), ("s", label), [[0, 0], [0, 0]], np.zeros((2, 2), bool))

    @pytest.mark.parametrize("label", ["a\x01", "a\x00b", "\x07x", "a\x1fb"])
    def test_control_character_in_language_label_rejected(self, label):
        # XML 1.0 cannot carry U+0000-U+001F, so an SVG drawing would be invalid
        values = [[np.nan, 50.0], [50.0, np.nan]]
        message = f"^language label {re.escape(repr(label))} holds a control character"
        with pytest.raises(DomainError, match=message):
            CoincidenceMatrix(("z", label), values)
        with pytest.raises(DomainError, match=message):
            CognacyTable(("z", label), ("s0",), [[0], [0]], [[0], [0]])

    def test_inner_spaces_and_slot_commas_allowed(self):
        # a slot name is written to cognacy files only, whose separator is the tab
        table = CognacyTable(("Old Norse", "y"), ("s,0",), [[0], [0]], [[0], [0]])
        assert table.languages == ("Old Norse", "y") and table.slots == ("s,0",)


class TestBorrowingAdjustment:
    def test_shift_value(self):
        adj = BorrowingAdjustment(n0=100, n3=5)
        assert adj.shift == pytest.approx(5.129329438755058, abs=1e-12)

    def test_shift_approximates_n3(self):
        for n3 in range(1, 6):
            adj = BorrowingAdjustment(n0=100, n3=n3)
            assert abs(adj.shift - n3) < 0.15

    def test_adjust_example(self):
        adj = BorrowingAdjustment(n0=100, n3=5)
        assert adjust_coincidence_for_borrowings(79.0, adj) == pytest.approx(
            83.15789473684211, abs=1e-9
        )

    def test_noop_when_no_borrowings(self):
        adj = BorrowingAdjustment(n0=100, n3=0)
        assert adj.shift == 0.0
        assert adjust_coincidence_for_borrowings(50.0, adj) == 50.0

    def test_overflow_rejected(self):
        adj = BorrowingAdjustment(n0=100, n3=5)
        with pytest.raises(DomainError, match="exceeds 100"):
            adjust_coincidence_for_borrowings(99.0, adj)

    @pytest.mark.parametrize("n0,n3", [(0, 0), (10, 10), (10, 11), (10, -1)])
    def test_bad_counts(self, n0, n3):
        with pytest.raises(DomainError):
            BorrowingAdjustment(n0=n0, n3=n3)

    def test_shift_theorem_on_random_matrices(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            k = int(rng.integers(2, 7))
            labels = tuple(f"l{i}" for i in range(k))
            values = np.full((k, k), np.nan)
            for i in range(k):
                for j in range(i + 1, k):
                    values[i, j] = values[j, i] = rng.uniform(2.0, 60.0)
            n3 = int(rng.integers(0, 21))
            m = CoincidenceMatrix(labels, values)
            adj = BorrowingAdjustment(n0=100, n3=n3)
            dm = distance_matrix(m)
            for i, j in zip(*np.triu_indices(k, 1)):
                adjusted = adjust_coincidence_for_borrowings(float(m.values[i, j]), adj)
                assert distance_from_coincidence(adjusted) == pytest.approx(dm[i, j] - adj.shift, abs=1e-9)
