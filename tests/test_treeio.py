"""File format parsing, serialization, and round trips."""

import json
import re
import warnings

import numpy as np
import pytest

from isolect import (
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
