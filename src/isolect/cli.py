"""Command-line interface.

Subcommands: distances, build, compare-borrowings, calibrate, simulate,
render. All numeric output is fixed at 3 decimals and outputs carry no
timestamps, so identical inputs and flags give byte-identical files.
Each subcommand computes all its outputs before ``main`` writes the first
file, so a run that fails leaves no partial output.
Exit codes: 0 success, 1 runtime error, 2 input validation error.
"""

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import decay, draw, treeio
from .dendrogram import (
    Dendrogram,
    RootLink,
    ancestor_depth,
    attach_depth,
    endpoint_depths,
    fit_report,
    root_geometry,
)
from .errors import DomainError, InputFormatError, IsolectError
from .lexstat import (
    BorrowingAdjustment,
    CoincidenceMatrix,
    coincidence_from_cognacy,
    distance_matrix,
)
from .reconstruct import build_dendrogram, redistribute_residuals, two_language_family
from .simulate import recovery_trial, simulate_cognacy

__all__ = ["entry", "main"]


def _count(args, table, exclude_borrowed: bool) -> CoincidenceMatrix:
    """``coincidence_from_cognacy`` of the table read from ``args.input``, errors located."""
    try:
        return coincidence_from_cognacy(table, exclude_borrowed=exclude_borrowed)
    except (DomainError, InputFormatError) as exc:
        raise InputFormatError(f"{args.input}: {exc}") from None


def _load_matrix(args) -> CoincidenceMatrix:
    if args.format == "matrix":
        m = treeio.read_coincidence_matrix(args.input)
        if args.exclude_borrowed:
            raise InputFormatError(
                "--exclude-borrowed requires --format cognacy (matrix files "
                "carry no borrowing flags)"
            )
    else:
        m = _count(args, treeio.read_cognacy_table(args.input), args.exclude_borrowed)
    if args.round_matrix:
        try:
            m = CoincidenceMatrix(m.labels, np.round(m.values), list_size=m.list_size)
        except DomainError as exc:
            raise InputFormatError(f"{args.input}: after --round-matrix: {exc}") from None
    return m


def _write(out_dir, outputs) -> None:
    """Write each ``(name, content, save)`` of ``outputs`` to ``out_dir`` and say so.

    Text is written as is; anything else goes through ``save(content, path)``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content, save in outputs:
        path = out_dir / name
        if save is None:
            path.write_text(content, encoding="utf-8", newline="\n")
        else:
            save(content, path)
        print(f"wrote {path}")


def _distance_table(m: CoincidenceMatrix) -> str:
    lines = ["language_a\tlanguage_b\tcoincidence\tdistance"]
    distances = distance_matrix(m)[np.triu_indices(m.k, 1)].tolist()
    for (a, b, value), l in zip(m.pairs(), distances):
        lines.append(f"{a}\t{b}\t{value:.3f}\t{l:.3f}")
    return "\n".join(lines) + "\n"


def cmd_distances(args) -> list:
    return [("distances.txt", _distance_table(_load_matrix(args)), None)]


def _describe_tree(tree: Dendrogram, steps) -> str:
    lines = []
    labels = tree.leaves()
    lines.append(f"languages ({len(labels)}): {', '.join(labels)}")
    lines.append("")
    if isinstance(tree.root, RootLink):
        link = tree.root
        h_l = attach_depth(link.left)
        h_r = attach_depth(link.right)
        chain = root_geometry(tree, variant="max_chain")
        point = root_geometry(tree, variant="deep_point")
        lines.append("root link (configuration undetermined without external data):")
        lines.append(f"  length: {link.length:.3f}")
        lines.append(
            f"  joins subtree tops at depths {h_l:.3f} and {h_r:.3f}"
        )
        lines.append(
            f"  variant max_chain: width {chain.chain_width:.3f} at depth "
            f"{chain.depth:.3f}, verticals {chain.left_vertical:.3f} / "
            f"{chain.right_vertical:.3f}"
        )
        lines.append(
            f"  variant deep_point: ancestor point at depth {point.depth:.3f}, "
            f"verticals {point.left_vertical:.3f} / {point.right_vertical:.3f}"
        )
        lines.append("")
    if len(labels) == 2 and isinstance(tree.root, RootLink):
        family = two_language_family(tree.root.length)
        lines.append("two-language ambiguity family:")
        lines.append(
            f"  any divergence time a' in [0.000, {family.max_divergence:.3f}] "
            f"with chain width {family.total:.3f} - 2a' fits the data"
        )
        lines.append(
            f"  endpoints: divergence from a point {family.max_divergence:.3f} "
            f"swadesh ago, or a contemporary chain of width {family.total:.3f} "
            "(lexifier-pidgin limit)"
        )
        lines.append("")
    nodes = tree.chain_nodes()
    if nodes:
        clades = tree.clades()
        lines.append("chain nodes:")
        for node in nodes:
            d_l, d_r = endpoint_depths(node)
            members = ", ".join(sorted(clades[node.id]))
            lines.append(
                f"  {node.id}: width {node.width:.3f} at depth "
                f"{max(d_l, d_r):.3f}; attach side {node.attach_side}"
            )
            left_name = node.left.label if hasattr(node.left, "label") else node.left.id
            right_name = node.right.label if hasattr(node.right, "label") else node.right.id
            lines.append(f"      left {left_name} (edge {node.left_edge:.3f})")
            lines.append(f"      right {right_name} (edge {node.right_edge:.3f})")
            lines.append(f"      covers: {members}")
        lines.append("")
    if steps:
        lines.append("join steps:")
        for step in steps:
            lines.append(
                f"  {step.node_id}: joined ({step.pair[0]}, {step.pair[1]}) at "
                f"distance {step.pair_distance:.3f}; mean signed difference "
                f"{step.mean_signed_difference:.3f}, depth correction "
                f"{step.depth_correction:.3f}, width {step.chain_width:.3f}"
            )
            if step.path_residual > 1e-9:
                lines.append(
                    f"      geometry clamped, path excess {step.path_residual:.3f}"
                )
        lines.append("")
    lines.append("parenthesized (widths in bracket annotations):")
    lines.append("  " + treeio.parenthesized(tree))
    return "\n".join(lines) + "\n"


def _signed(value: float) -> str:
    """``value`` at 3 decimals, with no sign on a value that rounds to zero.

    A residual of rounding size keeps its sign through the rounding, so
    without this the text would depend on the last bits of the fit.
    """
    text = f"{value:.3f}"
    return "0.000" if text == "-0.000" else text


def _fit_text(tree: Dendrogram, m: CoincidenceMatrix) -> str:
    report = fit_report(tree, m)
    lines = [
        "language_a\tlanguage_b\tmeasured_L\ttheoretical_L\tresidual_L"
        "\tmeasured_C\ttheoretical_C\tresidual_C"
    ]
    columns = zip(
        report.pairs,
        report.measured_distance.tolist(),
        report.theoretical_distance.tolist(),
        report.residual_distance.tolist(),
        report.measured_coincidence.tolist(),
        report.theoretical_coincidence.tolist(),
        report.residual_coincidence.tolist(),
    )
    for (a, b), l_meas, l_theo, res_l, c_meas, c_theo, res_c in columns:
        lines.append(
            f"{a}\t{b}\t{l_meas:.3f}\t{l_theo:.3f}\t{_signed(res_l)}"
            f"\t{c_meas:.3f}\t{c_theo:.3f}\t{_signed(res_c)}"
        )
    lines.append("")
    lines.append(f"rms residual (swadesh): {report.rms_distance:.3f}")
    lines.append(f"max |residual| (swadesh): {report.max_abs_distance:.3f}")
    lines.append(f"rms residual (coincidence): {report.rms_coincidence:.3f}")
    lines.append(f"max |residual| (coincidence): {report.max_abs_coincidence:.3f}")
    return "\n".join(lines) + "\n"


def cmd_build(args) -> list:
    m = _load_matrix(args)
    if m.k < 2:
        raise InputFormatError("reconstruction needs at least 2 languages")
    tree, steps = build_dendrogram(m)
    adjusted = redistribute_residuals(tree, m)
    outputs = [
        ("tree.json", tree, treeio.save_dendrogram),
        ("tree.txt", _describe_tree(tree, steps), None),
        ("fit_report.txt", _fit_text(tree, m), None),
        ("tree_adjusted.json", adjusted, treeio.save_dendrogram),
        ("fit_report_adjusted.txt", _fit_text(adjusted, m), None),
    ]
    if args.svg:
        outputs.append(("tree.svg", draw.render_svg(tree), None))
    return outputs


def _clade_shapes(tree: Dendrogram) -> dict:
    """Map each chain node's clade to the chain's (depth, width)."""
    clades = tree.clades()
    return {
        clades[node.id]: (max(endpoint_depths(node)), node.width)
        for node in tree.chain_nodes()
    }


def _build_variant(args, m: CoincidenceMatrix, tag: str) -> tuple:
    """``m``'s tree and its outputs: ``m``, the tree, its description and optional SVG."""
    tree, steps = build_dendrogram(m)
    outputs = [
        (f"matrix_{tag}.csv", m, treeio.write_coincidence_matrix),
        (f"tree_{tag}.json", tree, treeio.save_dendrogram),
        (f"tree_{tag}.txt", _describe_tree(tree, steps), None),
    ]
    if args.svg:
        outputs.append((f"tree_{tag}.svg", draw.render_svg(tree), None))
    return tree, outputs


def cmd_compare_borrowings(args) -> list:
    table = treeio.read_cognacy_table(args.input)
    m_all = _count(args, table, exclude_borrowed=False)
    n3 = table.borrowed_slot_count()
    tree_all, outputs = _build_variant(args, m_all, "included")
    if n3 == 0:
        print(
            "warning: no borrowed flags present; produced a single run",
            file=sys.stderr,
        )
        return outputs
    m_excl = _count(args, table, exclude_borrowed=True)
    tree_excl, excluded = _build_variant(args, m_excl, "excluded")
    outputs += excluded

    lines = []
    lines.append(f"list size with borrowings: {m_all.list_size}")
    lines.append(f"borrowed slots excluded: {n3}")
    lines.append(f"effective list size: {m_excl.list_size}")
    shift = BorrowingAdjustment(m_all.list_size, n3).shift
    lines.append(
        f"uniform shift s for same-slot borrowings: {shift:.3f} "
        "(holds exactly only when the excluded slots coincide nowhere)"
    )
    lines.append("")
    lines.append("pairwise distance change (excluded - included):")
    deltas = (distance_matrix(m_excl) - distance_matrix(m_all))[np.triu_indices(m_all.k, 1)]
    lines += [f"  {a}\t{b}\t{delta:.3f}" for (a, b, _), delta in zip(m_all.pairs(), deltas)]
    lines.append(
        f"  mean {np.mean(deltas):.3f}, min {np.min(deltas):.3f}, "
        f"max {np.max(deltas):.3f}"
    )
    lines.append("")
    lines.append("matched clades (depth = vertical position of the chain):")
    shapes_all = _clade_shapes(tree_all)
    shapes_excl = _clade_shapes(tree_excl)
    for clade in sorted(shapes_all, key=lambda c: sorted(c)):
        name = "{" + ", ".join(sorted(clade)) + "}"
        if clade in shapes_excl:
            depth_all, width_all = shapes_all[clade]
            depth_excl, width_excl = shapes_excl[clade]
            lines.append(
                f"  {name}: depth {depth_all:.3f} -> {depth_excl:.3f}, "
                f"width {width_all:.3f} -> {width_excl:.3f}"
            )
        else:
            lines.append(f"  {name}: not recovered after exclusion")
    lines.append("")
    lines.append(
        f"ancestor depth (deep-point variant): {ancestor_depth(tree_all):.3f} -> "
        f"{ancestor_depth(tree_excl):.3f}"
    )
    outputs.append(("delta_summary.txt", "\n".join(lines) + "\n", None))
    return outputs


def cmd_calibrate(args) -> list:
    params = decay.DecayParams(rate=args.rate, shift=args.shift)
    laws = decay.calibration_laws(params, args.t0)
    lines = ["\t".join(("distance",) + decay.CURVE_TAGS)]
    for l in args.distances:
        lines.append("\t".join(f"{x:.3f}" for x in [l] + [law(l) for law in laws]))
    curves = decay.sample_curves(args.l_max, args.step, params, t0=args.t0)
    rows = ["curve,distance,time"]
    for curve in curves:
        for l, t in zip(curve.distances, curve.times):
            rows.append(f"{curve.tag},{l:.3f},{t:.3f}")
    return [
        ("times.txt", "\n".join(lines) + "\n", None),
        ("curves.csv", "\n".join(rows) + "\n", None),
    ]


def cmd_simulate(args) -> list:
    cfg = treeio.load_simulation_config(args.input)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    table = simulate_cognacy(cfg, replicate=0)
    report = recovery_trial(cfg)
    lines = [
        f"slots: {cfg.slots}",
        f"seed: {cfg.seed}",
        f"replicates: {cfg.replicates}",
        "",
    ]
    for rep in report.replicates:
        lines.append(
            f"replicate {rep.replicate}: topology_match="
            f"{'yes' if rep.topology_match else 'no'}, "
            f"max_length_error={rep.max_length_error:.3f}, "
            f"max_path_error={rep.max_path_error:.3f}"
        )
    lines.append("")
    lines.append(
        f"all topologies match: {'yes' if report.all_topologies_match else 'no'}"
    )
    lines.append(f"worst length error: {report.worst_length_error:.3f}")
    lines.append(f"worst path error: {report.worst_path_error:.3f}")
    return [
        ("cognacy.tsv", table, treeio.write_cognacy_table),
        ("recovery_report.txt", "\n".join(lines) + "\n", None),
    ]


def cmd_render(args) -> list:
    return [("tree.svg", draw.render_svg(treeio.load_dendrogram(args.input)), None)]


def _add_io_flags(p, cognacy_only=False):
    p.add_argument("--input", required=True, help="input file path")
    if not cognacy_only:
        p.add_argument(
            "--format",
            choices=("matrix", "cognacy"),
            default="matrix",
            help="input kind (default: matrix)",
        )
        p.add_argument(
            "--exclude-borrowed",
            action="store_true",
            help="drop slots flagged as borrowed in any language (cognacy input)",
        )
        p.add_argument(
            "--round-matrix",
            action="store_true",
            help="round coincidence values to whole percent before processing",
        )
    p.add_argument("--out-dir", required=True, help="directory for output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isolect",
        description=(
            "Reconstruct the prior state of a language system from a "
            "basic-list coincidence matrix, analyze borrowing-exclusion "
            "effects, and calibrate swadesh distances to time."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distances", help="convert a coincidence matrix to distances")
    _add_io_flags(p)
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("build", help="reconstruct the dendrogram")
    _add_io_flags(p)
    p.add_argument("--svg", action="store_true", help="also render an SVG drawing")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "compare-borrowings",
        help="run the pipeline with and without borrowed slots and diff the trees",
    )
    _add_io_flags(p, cognacy_only=True)
    p.add_argument("--svg", action="store_true", help="also render SVG drawings")
    p.set_defaults(func=cmd_compare_borrowings)

    p = sub.add_parser("calibrate", help="map swadesh distances to ages")
    p.add_argument("distances", nargs="*", type=float, help="distances to tabulate")
    p.add_argument("--lambda", dest="rate", type=float, default=decay.DEFAULT_RATE,
                   help="replacement rate per millennium (default 0.14)")
    p.add_argument("--t0", type=float, default=1.0,
                   help="anchor age for the refit line (thousands of years)")
    p.add_argument("--shift", type=float, default=decay.DEFAULT_SHIFT,
                   help="borrowing-exclusion shift in swadesh units")
    p.add_argument("--l-max", type=float, default=200.0, help="curve grid maximum")
    p.add_argument("--step", type=float, default=1.0, help="curve grid step")
    p.add_argument("--out-dir", required=True, help="directory for output files")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="simulate cognacy data and test recovery")
    p.add_argument("--input", required=True, help="simulation config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out-dir", required=True, help="directory for output files")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("render", help="render a saved tree description to SVG")
    p.add_argument("--input", required=True, help="tree description JSON")
    p.add_argument("--out-dir", required=True, help="directory for output files")
    p.set_defaults(func=cmd_render)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as ``warning: <text>``, without the package's file and line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            _write(args.out_dir, args.func(args))
            return 0
        except (InputFormatError, DomainError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (IsolectError, OSError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
