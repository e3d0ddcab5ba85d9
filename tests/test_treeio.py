"""File format parsing, serialization, and round trips."""

import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from isolect import (
    CognacyTable,
    CoincidenceMatrix,
    DomainError,
    InputFormatError,
    IsolectError,
    build_dendrogram,
    theoretical_matrix,
)
from isolect.treeio import (
    dendrogram_from_dict,
    dendrogram_to_dict,
    load_dendrogram,
    load_simulation_config,
    parenthesized,
    parse_cognacy_table,
    parse_coincidence_matrix,
    read_cognacy_table,
    read_coincidence_matrix,
    save_dendrogram,
    write_cognacy_table,
    write_coincidence_matrix,
)

GOOD_MATRIX = """\
#list_size=94
a,b,c
a,-,80,70
b,80,-,75
c,70,75,-
"""


class TestMatrixFormat:
    def test_parse_basic(self):
        m = parse_coincidence_matrix(GOOD_MATRIX)
        assert m.labels == ("a", "b", "c")
        assert m.list_size == 94
        assert m.value("a", "b") == 80.0
        assert m.value("c", "a") == 70.0

    def test_default_list_size(self):
        text = "x,y\nx,-,50\ny,50,-\n"
        assert parse_coincidence_matrix(text).list_size == 100

    def test_round_trip(self, table1, tmp_path):
        path = tmp_path / "m.csv"
        write_coincidence_matrix(table1, path)
        again = read_coincidence_matrix(path)
        assert again.labels == table1.labels
        assert again.list_size == table1.list_size
        for a, b, v in table1.pairs():
            assert again.value(a, b) == pytest.approx(v, abs=1e-9)

    def test_asymmetric_names_cells(self):
        text = "x,y\nx,-,50\ny,51,-\n"
        with pytest.raises(InputFormatError) as err:
            parse_coincidence_matrix(text, source="bad.csv")
        message = str(err.value)
        assert "asymmetric" in message and "x" in message and "y" in message

    def test_bad_number_reports_line_and_column(self):
        text = "x,y\nx,-,fifty\ny,50,-\n"
        with pytest.raises(InputFormatError, match="line 2, column 3"):
            parse_coincidence_matrix(text)

    def test_bad_diagonal(self):
        text = "x,y\nx,0,50\ny,50,-\n"
        with pytest.raises(InputFormatError, match="diagonal"):
            parse_coincidence_matrix(text)

    def test_row_order_enforced(self):
        text = "x,y\ny,-,50\nx,50,-\n"
        with pytest.raises(InputFormatError, match="header order"):
            parse_coincidence_matrix(text)

    def test_missing_rows(self):
        text = "x,y\nx,-,50\n"
        with pytest.raises(InputFormatError, match="expected 2 value rows"):
            parse_coincidence_matrix(text)

    def test_no_header(self):
        with pytest.raises(InputFormatError, match="no label header"):
            parse_coincidence_matrix("# only comments\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p,q\np,-,150\nq,150,-\n",
             "coincidence for pair (p, q) must lie on (0, 100], got 150.0"),
            ("p,q\np,-,nan\nq,50,-\n",
             "asymmetric coincidence for pair (p, q): nan vs 50.0"),
            ("p,p\np,-,50\np,50,-\n", "duplicate language labels: ['p']"),
            ("#list_size=0\np,q\np,-,50\nq,50,-\n", "list_size must be positive, got 0"),
        ],
        ids=["out-of-range", "nan", "duplicate-labels", "list-size-0"],
    )
    def test_matrix_faults_name_the_file(self, text, message):
        with pytest.raises(InputFormatError) as err:
            parse_coincidence_matrix(text, source="bad.csv")
        assert str(err.value) == f"bad.csv: {message}"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("y,fifty,0,50", "line 3, column 2: not a number: 'fifty'"),
            ("y,50,0,fifty", "line 3, column 3: diagonal cell must be '-', got '0'"),
        ],
        ids=["number-first", "diagonal-first"],
    )
    def test_first_bad_cell_of_a_row_is_reported(self, row, message):
        text = f"x,y,z\nx,-,50,50\n{row}\nz,50,50,-\n"
        with pytest.raises(InputFormatError) as err:
            parse_coincidence_matrix(text, source="bad.csv")
        assert str(err.value) == f"bad.csv, {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,y\nx,-,fifty\n",
             "bad.csv: expected 2 value rows after the header (line 1), found 1"),
            ("x,y\nx,-,fifty\ny,50,-\nz,50,50\n",
             "bad.csv: expected 2 value rows after the header (line 1), found 3"),
            ("x,y\nx,-,50\ny,50,-\nz,50,50,-\nnot,a,row,at,all\n",
             "bad.csv: expected 2 value rows after the header (line 1), found 4"),
            ("x,y,z\nx,-,50\ny,50,-,oops\nq,50,50,-\n",
             "bad.csv, line 2: expected label plus 3 values, got 3 fields"),
            ("x,y,z\nx,-,50,50\nq,50,-,50\nz,50,50,zero\n",
             "bad.csv, line 3: row label 'q' does not match header label 'y' "
             "(rows must follow header order)"),
            ("x,y,z\nx,-,50, fifty \ny,50,-\nz,50,50,0\n",
             "bad.csv, line 2, column 4: not a number: 'fifty'"),
            ("# c\nx,y\n\n# between\nx,-,50\n  \ny,fifty,-\n",
             "bad.csv, line 7, column 2: not a number: 'fifty'"),
            ("x,y\nx,-,fifty\ny,50,-\n#list_size=abc\n",
             "bad.csv, line 4: bad list_size directive '#list_size=abc'"),
        ],
        ids=["count-over-bad-cell", "extra-row-over-bad-cell", "extra-rows", "first-row-wins",
             "label-before-later-cell", "cells-in-column-order", "comments-between-rows",
             "directive-where-read"],
    )
    def test_error_precedence(self, text, message):
        # the row count is checked before any row's fault; of the rows, the
        # first faulty one is reported; a directive fails on its own line
        with pytest.raises(InputFormatError) as err:
            parse_coincidence_matrix(text, source="bad.csv")
        assert str(err.value) == message

    def test_comments_and_blank_lines_between_rows(self):
        text = "x,y,z\n# note\nx,-,50,60\n\n  # list_size = 30 \ny,50,-,70\n\nz,60,70,-\n"
        m = parse_coincidence_matrix(text)
        assert m.list_size == 30
        expected = [[np.nan, 50, 60], [50, np.nan, 70], [60, 70, np.nan]]
        np.testing.assert_array_equal(m.values, expected)

    @pytest.mark.parametrize("line", ["#list_sizes=7", "#list_size_max=3", "#list_size 7",
                                      "#list_size"])
    def test_directive_key_must_be_list_size(self, line):
        with pytest.raises(InputFormatError) as err:
            parse_coincidence_matrix(f"x,y\n{line}\nx,-,50\ny,50,-\n", source="bad.csv")
        assert str(err.value) == f"bad.csv, line 2: bad list_size directive {line!r}"

    @pytest.mark.parametrize("line", ["#list_size=7", "# list_size = 7", "#list_size =7 "])
    def test_directive_spacing(self, line):
        assert parse_coincidence_matrix(f"{line}\nx,y\nx,-,50\ny,50,-\n").list_size == 7

    @pytest.mark.parametrize(
        "text, lines",
        [
            ("#list_size=7\n#list_size=7\nx,y\nx,-,50\ny,50,-\n", (2, 1)),
            ("#list_size=7\nx,y\nx,-,50\ny,50,-\n# list_size = 8\n", (5, 1)),
            ("x,y\n#list_size=7\nx,-,50\n#list_size=8\ny,50,-\n", (4, 2)),
        ],
        ids=["before-header", "after-rows", "between-rows"],
    )
    def test_repeated_directive_names_both_lines(self, text, lines):
        with pytest.raises(InputFormatError) as err:
            parse_coincidence_matrix(text, source="bad.csv")
        assert str(err.value) == (
            f"bad.csv, line {lines[0]}: repeated list_size directive (first on line {lines[1]})"
        )

    def test_written_text(self, tmp_path):
        m = CoincidenceMatrix(("a", "b c", "d"), np.array(
            [[np.nan, 80.0, 70.12345], [80.0, np.nan, 0.0005], [70.12345, 0.0005, np.nan]]),
            list_size=94)
        path = tmp_path / "m.csv"
        write_coincidence_matrix(m, path)
        assert path.read_bytes() == (
            b"#list_size=94\na,b c,d\n"
            b"a,-,80.000,70.123\nb c,80.000,-,0.001\nd,70.123,0.001,-\n"
        )

    @staticmethod
    def random_matrix(k, seed):
        values = np.random.default_rng(seed).uniform(1.0, 100.0, size=(k, k))
        return CoincidenceMatrix(tuple(f"L{i:03d}" for i in range(k)), (values + values.T) / 2.0)

    def test_writer_memory_does_not_grow_with_the_matrix(self, tmp_path):
        # rows are streamed: joining the whole text first peaked at 1.9 MB here
        m = self.random_matrix(300, 30)
        tracemalloc.start()
        try:
            write_coincidence_matrix(m, tmp_path / "m.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18

    def test_reader_holds_one_row_of_fields(self, tmp_path):
        # each row is converted as it is read: holding every cell as a string
        # until the last row peaked at 12.6 times the k^2 values
        k = 300
        path = tmp_path / "m.csv"
        write_coincidence_matrix(self.random_matrix(k, 31), path)
        tracemalloc.start()
        try:
            read_coincidence_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * k * k * 8


GOOD_COGNACY = """\
language\tslot\tclass\tborrowed
x\ts0\tw1\t0
x\ts1\tw2\t1
y\ts0\tw1\t0
y\ts1\tw9\t0
"""


class TestCognacyFormat:
    def test_parse(self):
        t = parse_cognacy_table(GOOD_COGNACY)
        assert t.languages == ("x", "y")
        assert t.slots == ("s0", "s1")
        assert t.borrowed_slot_count() == 1

    def test_round_trip(self, borrowing_table, tmp_path):
        path = tmp_path / "cognacy.tsv"
        write_cognacy_table(borrowing_table, path)
        again = parse_cognacy_table(path.read_text(), source=str(path))
        assert again.languages == borrowing_table.languages
        assert again.slots == borrowing_table.slots
        assert np.array_equal(again.borrowed, borrowing_table.borrowed)
        # class tokens are renamed by serialization but equality structure survives
        from isolect import coincidence_from_cognacy

        before = coincidence_from_cognacy(borrowing_table)
        after = coincidence_from_cognacy(again)
        for a, b, v in before.pairs():
            assert after.value(a, b) == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    @pytest.mark.parametrize("with_flags", [False, True], ids=["no-flags", "flags"])
    def test_random_tables_round_trip(self, dtype, with_flags, tmp_path):
        rng = np.random.default_rng(2200 + np.dtype(dtype).itemsize)
        path = tmp_path / "cognacy.tsv"
        for trial in range(5):
            k, n = rng.integers(1, 8), rng.integers(1, 60)
            ids = rng.integers(0, np.iinfo(dtype).max, size=(k, n), endpoint=True).astype(dtype)
            ids[:, rng.random(n) < 0.5] = 7  # some slots shared by every language
            flags = rng.random((k, n)) < 0.2 if with_flags else np.zeros((k, n), bool)
            table = CognacyTable(
                tuple(f"lang {i}" for i in range(k)), tuple(f"s{j},{trial}" for j in range(n)),
                ids, flags,
            )
            write_cognacy_table(table, path)
            again = read_cognacy_table(path)
            assert again.languages == table.languages
            assert again.slots == table.slots
            assert np.array_equal(again.borrowed, table.borrowed)
            # per slot, each language's canonical class: the first language sharing it
            before, after = table.class_ids, again.class_ids
            assert np.array_equal(
                np.argmax(before[:, None, :] == before[None, :, :], axis=1),
                np.argmax(after[:, None, :] == after[None, :, :], axis=1),
            )

    def test_written_text(self, tmp_path):
        table = CognacyTable(("x", "y"), ("s0", "s,1"), np.array([[0, 3], [9, 3]], np.uint8),
                             [[False, True], [False, False]])
        path = tmp_path / "cognacy.tsv"
        write_cognacy_table(table, path)
        assert path.read_bytes() == (
            b"language\tslot\tclass\tborrowed\n"
            b"x\ts0\tc0\t0\nx\ts,1\tc3\t1\ny\ts0\tc9\t0\ny\ts,1\tc3\t0\n"
        )

    def test_writer_memory_does_not_grow_with_the_table(self, tmp_path):
        # rows are streamed from the arrays: at 20 x 10^5 one-byte ids the
        # writer once held a 201 MB list of rows for a 2 MB table
        k, n = 20, 10**5
        ids = np.random.default_rng(5).integers(0, 256, size=(k, n)).astype(np.uint8)
        table = CognacyTable(tuple(f"L{i:02d}" for i in range(k)),
                             tuple(f"s{j:05d}" for j in range(n)), ids, np.zeros((k, n), bool))
        tracemalloc.start()
        try:
            write_cognacy_table(table, tmp_path / "cognacy.tsv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_unwritable_language_named_with_the_source(self):
        text = "language\tslot\tclass\tborrowed\na,b\ts0\tw\t0\n"
        with pytest.raises(InputFormatError) as raised:
            parse_cognacy_table(text, source="t.tsv")
        assert str(raised.value).startswith("t.tsv: language label 'a,b' cannot be written")

    def test_missing_header(self):
        with pytest.raises(InputFormatError, match="header"):
            parse_cognacy_table("x\ts0\tw\t0\n")

    def test_bad_flag(self):
        text = "language\tslot\tclass\tborrowed\nx\ts0\tw\t2\n"
        with pytest.raises(InputFormatError, match="borrowed flag"):
            parse_cognacy_table(text)

    def test_wrong_field_count(self):
        text = "language\tslot\tclass\tborrowed\nx\ts0\tw\n"
        with pytest.raises(InputFormatError, match="4 tab-separated"):
            parse_cognacy_table(text)

    @pytest.mark.parametrize("row, field", [
        ("\ts1\tv\t0", "language"),
        ("y\t \tv\t0", "slot"),
        ("y\ts1\t\t0", "class"),
    ], ids=["language", "slot", "class"])
    def test_empty_field(self, row, field):
        # were taken: blank classes in one slot counted as a shared class,
        # and a blank language became a language labelled ""
        text = f"language\tslot\tclass\tborrowed\nx\ts1\tw\t0\n{row}\n"
        with pytest.raises(InputFormatError) as raised:
            parse_cognacy_table(text, source="t.tsv")
        assert str(raised.value) == f"t.tsv, line 3: empty {field} field"

    def test_missing_row(self):
        text = "language\tslot\tclass\tborrowed\nx\ts0\tw\t0\nx\ts1\tw\t0\ny\ts0\tw\t0\n"
        with pytest.raises(InputFormatError) as raised:
            parse_cognacy_table(text, source="t.tsv")
        assert str(raised.value) == "t.tsv: no row for language 'y', slot 's1'"

    def test_table_cut_on_a_line_break_is_rejected(self, borrowing_table, tmp_path):
        # was read as a valid table with missing entries
        path = tmp_path / "cognacy.tsv"
        write_cognacy_table(borrowing_table, path)
        text = path.read_text()
        cut = text[: text.rindex("\n", 0, len(text) // 2) + 1]
        with pytest.raises(InputFormatError, match="no row for language"):
            parse_cognacy_table(cut)


class TestTreeDocuments:
    def test_json_round_trip_preserves_theoretical_matrix(self, table1, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree, _ = build_dendrogram(table1)
        path = tmp_path / "tree.json"
        save_dendrogram(tree, path)
        again = load_dendrogram(path)
        m1 = theoretical_matrix(tree)
        m2 = theoretical_matrix(again)
        for a, b, v in m1.pairs():
            assert m2.value(a, b) == pytest.approx(v, abs=1e-9)
        assert again.leaves() == tree.leaves()
        assert again == tree  # float repr in JSON round-trips exactly

    def test_dict_round_trip_keeps_variant(self, fig4_tree):
        from dataclasses import replace
        from isolect.dendrogram import Dendrogram

        realized = Dendrogram(replace(fig4_tree.root, variant="parametrized", fraction=0.25))
        data = dendrogram_to_dict(realized)
        again = dendrogram_from_dict(data)
        assert again.root.variant == "parametrized"
        assert again.root.fraction == 0.25

    def test_reject_foreign_document(self):
        with pytest.raises(InputFormatError, match="not an isolect dendrogram"):
            dendrogram_from_dict({"format": "something-else"})

    def test_bad_length_value_named(self, fig4_tree):
        doc = dendrogram_to_dict(fig4_tree)
        doc["root"]["left"]["left_edge"] = "deep"
        with pytest.raises(InputFormatError, match="chain 'n1' has bad 'left_edge' value 'deep'"):
            dendrogram_from_dict(doc, source="t.json")

    def test_non_object_node_rejected(self, fig4_tree):
        doc = dendrogram_to_dict(fig4_tree)
        doc["root"]["right"] = 3
        with pytest.raises(InputFormatError, match="tree node must be a JSON object"):
            dendrogram_from_dict(doc, source="t.json")

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError, match="invalid JSON"):
            load_dendrogram(path)

    def test_parenthesized_carries_widths(self, fig4_tree):
        text = parenthesized(fig4_tree)
        assert "[&width=4.000,attach=right]" in text
        assert "link_length=18.000" in text
        assert text.endswith(";")

    def test_leaf_a_drawing_cannot_carry_is_named_with_the_file(self, tmp_path):
        # the SVG drawing of such a tree would not be well-formed XML
        from isolect.dendrogram import Dendrogram, Leaf, RootLink

        path = tmp_path / "tree.json"
        tree = Dendrogram(RootLink(length=30.0, left=Leaf("a\u0001"), right=Leaf("b")))
        path.write_text(json.dumps(dendrogram_to_dict(tree)))
        message = f"^{re.escape(str(path))}: language label 'a\\\\x01' holds a control character"
        with pytest.raises(InputFormatError, match=message):
            load_dendrogram(path)

    def test_leaf_only_tree(self):
        from isolect.dendrogram import Dendrogram, Leaf

        tree = Dendrogram(Leaf("solo"))
        again = dendrogram_from_dict(dendrogram_to_dict(tree))
        assert again.leaves() == ("solo",)
        assert parenthesized(tree) == "solo;"


def nested_tree_document(depth: int) -> tuple:
    """A tree document nested ``depth`` chains deep, as a dict and as JSON text.

    The text is joined level by level, since ``json`` cannot encode it whole.
    """
    root = {"kind": "leaf", "label": "L0"}
    text = json.dumps(root)
    for i in range(1, depth + 1):
        chain = {"kind": "chain", "id": f"n{i}", "width": 0.5, "attach_side": "left",
                 "left_edge": 1.0, "right_edge": float(i),
                 "right": {"kind": "leaf", "label": f"L{i}"}}
        text = f'{json.dumps(chain)[:-1]}, "left": {text}}}'
        root = {**chain, "left": root}
    head = {"format": "isolect-dendrogram", "version": 1}
    return {**head, "root": root}, f'{json.dumps(head)[:-1]}, "root": {text}}}'


class TestDeepTreeDocuments:
    """json recurses once per nesting level; a too deep tree fails with one line."""

    def test_save_raises_and_writes_nothing(self, deep_caterpillar, tmp_path):
        path = tmp_path / "tree.json"
        with pytest.raises(IsolectError) as caught:
            save_dendrogram(deep_caterpillar, path)
        assert type(caught.value) is IsolectError  # the CLI exits 1 on it
        assert str(caught.value) == f"{path}: tree nested too deeply to write as JSON"
        assert not path.exists()
        assert parenthesized(deep_caterpillar).startswith("((((")  # the text form is a loop

    def test_load_raises_a_located_error(self, deep_caterpillar, tmp_path):
        path = tmp_path / "tree.json"
        doc, text = nested_tree_document(deep_caterpillar.k - 2)
        path.write_text(text)
        message = f"^{re.escape(str(path))}: .* too deeply to read$"
        with pytest.raises(InputFormatError, match=message):
            load_dendrogram(path)
        # where json decodes deeper than the recursion limit (Python 3.12 on),
        # the conversion to a tree must fail the same way
        with pytest.raises(InputFormatError, match="^t.json: tree nested too deeply to read$"):
            dendrogram_from_dict(doc, source="t.json")
        doc, text = nested_tree_document(5)
        path.write_text(text)
        assert load_dendrogram(path) == dendrogram_from_dict(doc)
        assert load_dendrogram(path).leaves() == ("L0", "L1", "L2", "L3", "L4", "L5")


def test_byte_order_mark_is_dropped(data_dir, fig4_tree, tmp_path):
    # U+FEFF must not become part of the first header label, and a fault
    # after it is located by its byte from the start of the file
    mark = b"\xef\xbb\xbf"
    table = tmp_path / "table1.csv"
    table.write_bytes(mark + (data_dir / "table1.csv").read_bytes())
    plain, marked = read_coincidence_matrix(data_dir / "table1.csv"), read_coincidence_matrix(table)
    assert marked.labels == plain.labels
    assert np.array_equal(marked.values, plain.values, equal_nan=True)
    tree = tmp_path / "tree.json"
    save_dendrogram(fig4_tree, tree)
    tree.write_bytes(mark + tree.read_bytes())
    assert load_dendrogram(tree) == fig4_tree
    table.write_bytes(mark + b"ab\xe9")
    with pytest.raises(InputFormatError, match=r"not UTF-8 text \(byte 5\)$"):
        read_coincidence_matrix(table)


class TestSimulationConfig:
    def test_load_golden_config(self, data_dir):
        cfg = load_simulation_config(data_dir / "sim4_config.json")
        assert cfg.slots == 10000
        assert cfg.seed == 20260301
        assert cfg.replicates == 1
        assert set(cfg.tree.leaves()) == {"alpha", "beta", "gamma", "delta"}

    def test_inline_tree(self, tmp_path, fig4_tree):
        payload = {
            "tree": dendrogram_to_dict(fig4_tree),
            "slots": 50,
            "seed": 3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        cfg = load_simulation_config(path)
        assert cfg.tree.leaves() == ("1", "2", "3")
        assert cfg.replicates == 1

    def test_missing_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"slots": 10, "seed": 1}))
        with pytest.raises(InputFormatError, match="tree"):
            load_simulation_config(path)

    def test_zero_replicates_rejected(self, tmp_path, fig4_tree):
        payload = {
            "tree": dendrogram_to_dict(fig4_tree),
            "slots": 50,
            "seed": 3,
            "replicates": 0,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InputFormatError, match="replicates"):
            load_simulation_config(path)


# the characters that the two file formats give a meaning to, among plain letters
LABEL_ALPHABET = list("ab#, \t\n")
LABEL_WEIGHTS = np.array([6.0, 6.0, 3.0, 1.0, 2.0, 1.0, 1.0]) / 20.0


def random_label(rng) -> str:
    return "".join(rng.choice(LABEL_ALPHABET, size=int(rng.integers(1, 5)), p=LABEL_WEIGHTS))


def with_random_label(rng, labels) -> tuple:
    """``labels`` with one of them, at a random place, replaced by a random label."""
    labels = list(labels)
    labels[int(rng.integers(len(labels)))] = random_label(rng)
    return tuple(labels)


class TestLabelsRoundTrip:
    """A table or matrix is rejected when it is built, or its file reads back the same."""

    def test_cognacy_tables(self, tmp_path):
        rng = np.random.default_rng(2501)
        path = tmp_path / "cognacy.tsv"
        kept_languages, kept_slots, rejected = [], [], 0
        for _ in range(300):
            languages, slots = ("x", "y", "z"), ("s0", "s1")
            if rng.random() < 0.5:
                languages = with_random_label(rng, languages)
            else:
                slots = with_random_label(rng, slots)
            ids = rng.integers(0, 3, size=(3, 2))
            flags = rng.random((3, 2)) < 0.3
            try:
                table = CognacyTable(languages, slots, ids, flags)
            except DomainError:
                rejected += 1
                continue
            write_cognacy_table(table, path)
            again = read_cognacy_table(path)
            assert again.languages == languages and again.slots == slots
            assert np.array_equal(again.borrowed, flags)
            # per slot, each language's canonical class: the first language sharing it
            before, after = table.class_ids, again.class_ids
            assert np.array_equal(
                np.argmax(before[:, None, :] == before[None, :, :], axis=1),
                np.argmax(after[:, None, :] == after[None, :, :], axis=1),
            )
            kept_languages += languages
            kept_slots += slots
        # both outcomes are exercised, and so is each place that a "#" may take
        assert rejected >= 50 and len(kept_slots) >= 2 * 50
        assert any("#" in x for x in kept_languages)
        assert any(x.startswith("#") for x in kept_slots)

    def test_matrices(self, tmp_path):
        rng = np.random.default_rng(2502)
        path = tmp_path / "m.csv"
        kept, rejected = [], 0
        for _ in range(300):
            labels = with_random_label(rng, ("x", "y", "z"))
            values = rng.uniform(1.0, 100.0, size=(3, 3))
            values = (values + values.T) / 2.0
            try:
                m = CoincidenceMatrix(labels, values, list_size=int(rng.integers(50, 250)))
            except DomainError:
                rejected += 1
                continue
            write_coincidence_matrix(m, path)
            again = read_coincidence_matrix(path)
            assert again.labels == labels and again.list_size == m.list_size
            np.testing.assert_allclose(again.values, m.values, rtol=0.0, atol=5e-4)
            kept += labels
        assert rejected >= 50 and len(kept) >= 3 * 50
        assert any("#" in x for x in kept) and any(" " in x for x in kept)
