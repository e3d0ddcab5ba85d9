"""File formats: coincidence matrices, cognacy tables, tree descriptions.

Matrix files: first non-comment line holds comma-separated language labels;
each following line repeats a label and gives k comma-separated values with
``-`` on the diagonal. Comment lines start with ``#``; the directive
``#list_size=N`` sets the basic-list size.

Cognacy files: tab-separated with a required header row
``language<TAB>slot<TAB>class<TAB>borrowed`` and 0/1 borrowed flags.

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
from .lexstat import CognacyTable, CoincidenceMatrix
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
    list_size = None
    rows = []
    header = None
    header_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            directive = line[1:].strip()
            if directive.startswith("list_size"):
                _, _, value = directive.partition("=")
                try:
                    list_size = int(value.strip())
                except ValueError:
                    raise InputFormatError(
                        f"{source}, line {lineno}: bad list_size directive {line!r}"
                    ) from None
            continue
        fields = [f.strip() for f in line.split(",")]
        if header is None:
            header = fields
            header_line = lineno
            continue
        rows.append((lineno, fields))
    if header is None:
        raise InputFormatError(f"{source}: no label header found")
    k = len(header)
    if len(rows) != k:
        raise InputFormatError(
            f"{source}: expected {k} value rows after the header "
            f"(line {header_line}), found {len(rows)}"
        )
    values = np.full((k, k), np.nan)
    for i, (lineno, fields) in enumerate(rows):
        if len(fields) != k + 1:
            raise InputFormatError(
                f"{source}, line {lineno}: expected label plus {k} values, "
                f"got {len(fields)} fields"
            )
        if fields[0] != header[i]:
            raise InputFormatError(
                f"{source}, line {lineno}: row label {fields[0]!r} does not match "
                f"header label {header[i]!r} (rows must follow header order)"
            )
        cells = fields[1:]
        try:
            if cells[i] != "-":
                raise ValueError
            values[i, :i] = [float(cell) for cell in cells[:i]]
            values[i, i + 1 :] = [float(cell) for cell in cells[i + 1 :]]
        except ValueError:
            raise _cell_error(source, lineno, i, cells) from None
    kwargs = {"list_size": list_size} if list_size is not None else {}
    try:
        return CoincidenceMatrix(tuple(header), values, **kwargs)
    except DomainError as exc:
        raise InputFormatError(f"{source}: {exc}") from None


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


def read_coincidence_matrix(path) -> CoincidenceMatrix:
    path = Path(path)
    return parse_coincidence_matrix(path.read_text(encoding="utf-8"), source=str(path))


def write_coincidence_matrix(m: CoincidenceMatrix, path) -> None:
    lines = [f"#list_size={m.list_size}", ",".join(m.labels)]
    for i, label in enumerate(m.labels):
        cells = [label]
        for j in range(m.k):
            cells.append("-" if i == j else f"{m.values[i, j]:.3f}")
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_cognacy_table(text: str, source: str = "<string>") -> CognacyTable:
    lines = [l for l in text.splitlines()]
    header_seen = False
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
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
    table = CognacyTable.from_rows(rows)
    if len(rows) != table.class_ids.size:
        i, j = np.argwhere(table.class_ids < 0)[0]
        language, slot = table.languages[i], table.slots[j]
        raise InputFormatError(f"{source}: no row for language {language!r}, slot {slot!r}")
    return table


def read_cognacy_table(path) -> CognacyTable:
    path = Path(path)
    return parse_cognacy_table(path.read_text(encoding="utf-8"), source=str(path))


def write_cognacy_table(table: CognacyTable, path) -> None:
    lines = ["language\tslot\tclass\tborrowed"]
    for language, slot, token, borrowed in table.iter_rows():
        lines.append(f"{language}\t{slot}\t{token}\t{1 if borrowed else 0}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:  # the stdlib decoder recurses once per nesting level
        raise InputFormatError(f"{path}: JSON nested too deeply to read") from None


def load_dendrogram(path) -> Dendrogram:
    return dendrogram_from_dict(_read_json(Path(path)), source=str(path))


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
