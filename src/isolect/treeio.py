"""File formats: coincidence matrices, cognacy tables, tree descriptions.

Matrix files: first non-comment line holds comma-separated language labels;
each following line repeats a label and gives k comma-separated values with
``-`` on the diagonal. Comment lines start with ``#``; the directive
``#list_size=N`` (at most once, with spaces allowed around ``=``) sets the
basic-list size. The reader allocates the k x k values once the header is
read and converts each row into them as soon as it is split, so it holds
one row's fields at a time; the first faulty row's error waits until the
row count is known to be right, and rows past k are counted, not parsed.
The writer streams one row at a time.

Cognacy files: tab-separated with a required header row
``language<TAB>slot<TAB>class<TAB>borrowed`` and 0/1 borrowed flags. Every
language has one row for every slot.

A matrix or table whose labels these files could not read back (see
``lexstat._check_labels``) is rejected when it is built. Both parsers skip
a line that starts with ``#``, so no language label may start with one.

Every input file (matrix, cognacy table, tree description, simulation
config) is read as UTF-8 text; a file that is not is an input error that
names it.

Tree descriptions: a nested JSON document that round-trips exactly, plus a
one-line annotated parenthesized rendering for humans (chain widths have no
standard slot in parenthesized tree text, so they ride in bracket
annotations). A tree nested about a thousand chains deep is too deep for
the stdlib ``json`` module, which recurses per level: it fails with an error.
"""

import json
from pathlib import Path

import numpy as np

from .dendrogram import ChainNode, Dendrogram, Leaf, RootLink
from .errors import DomainError, InputFormatError, IsolectError
from .lexstat import CognacyTable, CoincidenceMatrix, _check_labels
from .simulate import SimulationConfig

__all__ = [
    "dendrogram_from_dict",
    "dendrogram_to_dict",
    "load_dendrogram",
    "load_simulation_config",
    "parenthesized",
    "read_cognacy_table",
    "read_coincidence_matrix",
    "save_dendrogram",
    "write_cognacy_table",
    "write_coincidence_matrix",
]


def parse_coincidence_matrix(text: str, source: str = "<string>") -> CoincidenceMatrix:
    list_size = list_size_line = header = header_line = error = None
    count = 0  # value rows after the header
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            directive = line[1:].strip()
            if directive.startswith("list_size"):
                key, _, value = directive.partition("=")
                try:
                    if key.rstrip() != "list_size":
                        raise ValueError
                    list_size = int(value.strip())
                except ValueError:
                    raise InputFormatError(
                        f"{source}, line {lineno}: bad list_size directive {line!r}"
                    ) from None
                if list_size_line is not None:
                    raise InputFormatError(
                        f"{source}, line {lineno}: repeated list_size directive "
                        f"(first on line {list_size_line})"
                    )
                list_size_line = lineno
            continue
        if header is None:
            header = [label.strip() for label in line.split(",")]
            header_line, k = lineno, len(header)
            values = np.empty((k, k))
            continue
        # each row is converted as it is read; rows past k are only counted,
        # and the first row error waits until the row count is known to be k
        if count < k and error is None:
            error = _read_row(line.split(","), header, count, values[count], source, lineno)
        count += 1
    if header is None:
        raise InputFormatError(f"{source}: no label header found")
    if count != k:
        raise InputFormatError(
            f"{source}: expected {k} value rows after the header "
            f"(line {header_line}), found {count}"
        )
    if error is not None:
        raise error from None
    kwargs = {"list_size": list_size} if list_size is not None else {}
    try:
        return CoincidenceMatrix(tuple(header), values, **kwargs)
    except DomainError as exc:
        raise InputFormatError(f"{source}: {exc}") from None


def _read_row(fields: list, header: list, i: int, out: np.ndarray, source: str, lineno: int):
    """Convert value row ``i``'s ``fields`` into ``out``; its located error, or None."""
    if len(fields) != len(header) + 1:
        return InputFormatError(
            f"{source}, line {lineno}: expected label plus {len(header)} values, "
            f"got {len(fields)} fields"
        )
    label = fields[0].strip()
    if label != header[i]:
        return InputFormatError(
            f"{source}, line {lineno}: row label {label!r} does not match "
            f"header label {header[i]!r} (rows must follow header order)"
        )
    # float() ignores the whitespace around a number, so only the label
    # and the diagonal are stripped; the diagonal reads as NaN
    cells = fields[1:]
    try:
        if cells[i].strip() != "-":
            raise ValueError
        cells[i] = "nan"
        out[:] = list(map(float, cells))
    except ValueError:
        return _cell_error(source, lineno, i, [cell.strip() for cell in fields[1:]])
    return None


def _cell_error(source: str, lineno: int, i: int, cells: list) -> InputFormatError:
    """The located error for the first bad cell, in column order, of value row ``i``."""
    for j, cell in enumerate(cells):
        where = f"{source}, line {lineno}, column {j + 2}"  # the row label is column 1
        if j == i:
            if cell != "-":
                return InputFormatError(f"{where}: diagonal cell must be '-', got {cell!r}")
            continue
        try:
            float(cell)
        except ValueError:
            return InputFormatError(f"{where}: not a number: {cell!r}")


def _read_text(path: Path) -> str:
    """The text of the file at ``path``; a file that is not UTF-8 is an input error.

    A leading byte-order mark is dropped. The codec is plain UTF-8, not
    ``utf-8-sig``, so that the error counts its byte from the start of the file.
    """
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_coincidence_matrix(path) -> CoincidenceMatrix:
    path = Path(path)
    return parse_coincidence_matrix(_read_text(path), source=str(path))


def write_coincidence_matrix(m: CoincidenceMatrix, path) -> None:
    """Stream ``m`` to ``path`` one row at a time, values to three decimals."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"#list_size={m.list_size}\n{','.join(m.labels)}\n")
        for i, (label, row) in enumerate(zip(m.labels, m.values)):
            cells = [f"{value:.3f}" for value in row.tolist()]
            cells[i] = "-"
            f.write(f"{label},{','.join(cells)}\n")


def parse_cognacy_table(text: str, source: str = "<string>") -> CognacyTable:
    header_seen = False
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if not header_seen:
            expected = ["language", "slot", "class", "borrowed"]
            if [f.strip().lower() for f in fields] != expected:
                raise InputFormatError(
                    f"{source}, line {lineno}: header row must be "
                    f"{'<TAB>'.join(expected)}, got {line!r}"
                )
            header_seen = True
            continue
        if len(fields) != 4:
            raise InputFormatError(
                f"{source}, line {lineno}: expected 4 tab-separated fields, got {len(fields)}"
            )
        language, slot, token, flag = (f.strip() for f in fields)
        for name, value in (("language", language), ("slot", slot), ("class", token)):
            if not value:
                raise InputFormatError(f"{source}, line {lineno}: empty {name} field")
        if flag not in ("0", "1"):
            raise InputFormatError(
                f"{source}, line {lineno}: borrowed flag must be 0 or 1, got {flag!r}"
            )
        rows.append((language, slot, token, flag == "1"))
    if not header_seen:
        raise InputFormatError(f"{source}: missing cognacy header row")
    if not rows:
        raise InputFormatError(f"{source}: cognacy table has no data rows")
    try:
        return CognacyTable.from_rows(rows)
    except (DomainError, InputFormatError) as exc:
        raise InputFormatError(f"{source}: {exc}") from None


def read_cognacy_table(path) -> CognacyTable:
    path = Path(path)
    return parse_cognacy_table(_read_text(path), source=str(path))


def write_cognacy_table(table: CognacyTable, path) -> None:
    """Stream ``table``'s rows to ``path`` language by language, class id ``N`` as ``cN``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("language\tslot\tclass\tborrowed\n")
        for language, ids, flags in zip(table.languages, table.class_ids, table.borrowed):
            distinct, inverse = np.unique(ids, return_inverse=True)
            tails = [f"c{cid}\t{flag}\n" for cid in distinct.tolist() for flag in (0, 1)]
            f.writelines(
                f"{language}\t{slot}\t{tails[code]}"
                for slot, code in zip(table.slots, (2 * inverse + flags).tolist())
            )


def _node_to_dict(node) -> dict:
    if isinstance(node, Leaf):
        return {"kind": "leaf", "label": node.label}
    return {
        "kind": "chain",
        "id": node.id,
        "width": node.width,
        "attach_side": node.attach_side,
        "left_edge": node.left_edge,
        "right_edge": node.right_edge,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def dendrogram_to_dict(d: Dendrogram) -> dict:
    if isinstance(d.root, RootLink):
        root = {
            "kind": "root_link",
            "length": d.root.length,
            "variant": d.root.variant,
            "fraction": d.root.fraction,
            "left": _node_to_dict(d.root.left),
            "right": _node_to_dict(d.root.right),
        }
    else:
        root = _node_to_dict(d.root)
    return {"format": "isolect-dendrogram", "version": 1, "root": root}


def _field(data: dict, key: str, source: str, what: str, convert=lambda value: value):
    """``convert(data[key])``, or an ``InputFormatError`` naming the file and the key."""
    try:
        return convert(data[key])
    except KeyError:
        raise InputFormatError(f"{source}: {what} is missing key {key!r}") from None
    except (TypeError, ValueError):
        raise InputFormatError(f"{source}: {what} has bad {key!r} value {data[key]!r}") from None


def _node_from_dict(data: dict, source: str):
    if not isinstance(data, dict):
        raise InputFormatError(f"{source}: tree node must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind == "leaf":
        return Leaf(_field(data, "label", source, "leaf", str))
    if kind == "chain":
        what = f"chain {data.get('id')!r}"
        return ChainNode(
            id=_field(data, "id", source, what, str),
            width=_field(data, "width", source, what, float),
            left=_node_from_dict(_field(data, "left", source, what), source),
            right=_node_from_dict(_field(data, "right", source, what), source),
            left_edge=_field(data, "left_edge", source, what, float),
            right_edge=_field(data, "right_edge", source, what, float),
            attach_side=_field(data, "attach_side", source, what, str),
        )
    raise InputFormatError(f"{source}: unknown node kind {kind!r}")


def dendrogram_from_dict(data: dict, source: str = "<dict>") -> Dendrogram:
    if not isinstance(data, dict) or data.get("format") != "isolect-dendrogram":
        raise InputFormatError(f"{source}: not an isolect dendrogram document")
    root = _field(data, "root", source, "document")
    try:
        if isinstance(root, dict) and root.get("kind") == "root_link":
            what = "root link"
            variant = root.get("variant")
            fraction = None
            if variant == "parametrized" or root.get("fraction") is not None:
                fraction = _field(root, "fraction", source, what, float)
            link = RootLink(
                length=_field(root, "length", source, what, float),
                left=_node_from_dict(_field(root, "left", source, what), source),
                right=_node_from_dict(_field(root, "right", source, what), source),
                variant=variant,
                fraction=fraction,
            )
            return Dendrogram(link)
        return Dendrogram(_node_from_dict(root, source))
    except DomainError as exc:
        raise InputFormatError(f"{source}: {exc}") from None
    except RecursionError:  # _node_from_dict recurses once per nesting level
        raise InputFormatError(f"{source}: tree nested too deeply to read") from None


def save_dendrogram(d: Dendrogram, path) -> None:
    try:
        text = json.dumps(dendrogram_to_dict(d), indent=2, sort_keys=True)
    except RecursionError:
        raise IsolectError(f"{path}: tree nested too deeply to write as JSON") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def _read_json(path: Path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:  # the stdlib decoder recurses once per nesting level
        raise InputFormatError(f"{path}: JSON nested too deeply to read") from None


def load_dendrogram(path) -> Dendrogram:
    """The tree document at ``path``.

    A leaf label that a matrix file or a drawing could not carry
    (``lexstat._check_labels``) is an input error.
    """
    tree = dendrogram_from_dict(_read_json(Path(path)), source=str(path))
    try:
        _check_labels(tree.leaves())
    except DomainError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    return tree


def parenthesized(d: Dendrogram) -> str:
    """Annotated parenthesized rendering; widths ride in bracket comments."""
    text = {}  # id of each chain: its rendering

    def render(node):
        return text[id(node)] if isinstance(node, ChainNode) else node.label

    for node in reversed(d.chain_nodes()):  # children first
        text[id(node)] = (
            f"({render(node.left)}:{node.left_edge:.3f},"
            f"{render(node.right)}:{node.right_edge:.3f})"
            f"{node.id}[&width={node.width:.3f},attach={node.attach_side}]"
        )
    if isinstance(d.root, RootLink):
        return (
            f"({render(d.root.left)},{render(d.root.right)})"
            f"root[&link_length={d.root.length:.3f}];"
        )
    return render(d.root) + ";"


def load_simulation_config(path) -> SimulationConfig:
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputFormatError(f"{path}: simulation config must be a JSON object, got {data!r}")
    for key in ("tree", "slots", "seed"):
        if key not in data:
            raise InputFormatError(f"{path}: missing required key {key!r}")
    tree_spec = data["tree"]
    if isinstance(tree_spec, str):
        tree = load_dendrogram((path.parent / tree_spec).resolve())
    elif isinstance(tree_spec, dict):
        tree = dendrogram_from_dict(tree_spec, source=str(path))
    else:
        raise InputFormatError(f"{path}: 'tree' must be a path or an inline document")
    try:
        return SimulationConfig(
            tree=tree,
            slots=data["slots"],
            seed=data["seed"],
            replicates=data.get("replicates", 1),
        )
    except DomainError as exc:
        raise InputFormatError(f"{path}: bad simulation config: {exc}") from None
