"""Acceptance criteria, one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
import time
import warnings

import numpy as np

from isolect import (
    build_dendrogram,
    classify_initial_rate,
    coincidence_from_cognacy,
    coincidence_from_distance,
    decay_rate,
    distance_from_coincidence,
    fit_report,
    recovery_trial,
    redistribute_residuals,
    sample_curves,
    three_language_tree,
    time_quadratic,
    time_starostin,
)
from isolect.decay import DecayParams
from isolect.dendrogram import ancestor_depth, endpoint_depths
from isolect.treeio import load_simulation_config

from conftest import make_borrowing_table
from test_reconstruct import matrix_from_distances, random_triangle_triples


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def quiet_build(matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_dendrogram(matrix)


def clade_info(tree):
    clades = tree.clades()
    nodes = {n.id: n for n in tree.chain_nodes()}
    return {
        clades[nid]: (node.width, max(endpoint_depths(node)))
        for nid, node in nodes.items()
    }


def test_a1_formula_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for l in np.arange(0.0, 500.0 + 1e-9, 0.05):
        back = distance_from_coincidence(coincidence_from_distance(l))
        worst = max(worst, abs(back - l) / max(1.0, l))
    elapsed = time.perf_counter() - start
    report(
        "A1 (formula round trip)",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_a2_closed_form_and_builder_agree():
    triples = random_triangle_triples(1000, seed=42)
    ok = True
    for l12, l13, l23 in triples:
        tree = three_language_tree(l12, l13, l23)
        node = tree.root.left
        width = node.width
        vertical = node.left_edge
        ok &= abs(2.0 * vertical + width - l12) <= 1e-9
        if l13 >= l23:
            stem_a, stem_b = l13 - (vertical + width), l23 - vertical
        else:
            stem_a, stem_b = l23 - (vertical + width), l13 - vertical
        ok &= abs(stem_a - stem_b) <= 1e-9
        m = matrix_from_distances(
            ("1", "2", "3"),
            {
                frozenset(("1", "2")): l12,
                frozenset(("1", "3")): l13,
                frozenset(("2", "3")): l23,
            },
        )
        built, _ = build_dendrogram(m)
        b_node = built.root.left
        ok &= abs(b_node.width - node.width) <= 1e-9
        ok &= abs(b_node.left_edge - node.left_edge) <= 1e-9
        ok &= abs(b_node.right_edge - node.right_edge) <= 1e-9
        ok &= b_node.attach_side == node.attach_side
        ok &= abs(built.root.length - tree.root.length) <= 1e-9
        if not ok:
            break
    report("A2 (three-language closed form)", ok, f"{len(triples)} triples")


def test_a3_table1_golden_run(table1):
    start = time.perf_counter()
    tree, _ = quiet_build(table1)
    elapsed = time.perf_counter() - start
    info = clade_info(tree)
    romani = frozenset(("kalderash", "nrus_romani", "fin_romani"))
    indic_pair = frozenset(("hindi", "panjabi"))
    indic_all = frozenset(("hindi", "panjabi", "nepali"))

    root_length = tree.root.length
    deep = ancestor_depth(tree)
    nepali_width, nepali_depth = info[indic_all]
    _, hp_depth = info[indic_pair]
    _, romani_depth = info[romani]

    checks = {
        "root link 32±1.5": abs(root_length - 32.0) <= 1.5,
        "ancestor 31-32±2": 29.0 <= deep <= 34.0,
        "nepali split 11-12±2 below root": 9.0 <= deep - nepali_depth <= 14.0,
        "nepali chain width 5±2": abs(nepali_width - 5.0) <= 2.0,
        "hindi/panjabi 8-9±2 later": 6.0 <= nepali_depth - hp_depth <= 11.0,
        "romani 8-9±2 later": 6.0 <= nepali_depth - romani_depth <= 11.0,
        "runtime < 1s": elapsed < 1.0,
    }
    detail = (
        f"root {root_length:.3f}, deep {deep:.3f}, nepali width {nepali_width:.3f}, "
        f"gaps {deep - nepali_depth:.3f}/{nepali_depth - hp_depth:.3f}/"
        f"{nepali_depth - romani_depth:.3f}"
    )
    failed = [k for k, v in checks.items() if not v]
    report("A3 (all-slot golden run)", not failed, detail + (f"; failed: {failed}" if failed else ""))


def test_a4_table2_golden_run(table1, table2):
    start = time.perf_counter()
    tree2, _ = quiet_build(table2)
    elapsed = time.perf_counter() - start
    tree1, _ = quiet_build(table1)
    info2 = clade_info(tree2)
    indic_pair = frozenset(("hindi", "panjabi"))
    indic_all = frozenset(("hindi", "panjabi", "nepali"))

    nepali_width, _ = info2[indic_all]
    hp_node = next(
        n for n in tree2.chain_nodes()
        if tree2.clades()[n.id] == indic_pair
    )
    depths1 = sorted(depth for _, depth in clade_info(tree1).values())
    depths2 = sorted(depth for _, depth in info2.values())

    checks = {
        "nepali chain width 19±2": abs(nepali_width - 19.0) <= 2.0,
        "hindi-panjabi width 8±2": abs(hp_node.width - 8.0) <= 2.0,
        "hindi-panjabi contemporary": max(hp_node.left_edge, hp_node.right_edge) <= 1e-9,
        "all verticals shrink": all(b < a for a, b in zip(depths1, depths2))
        and ancestor_depth(tree2) < ancestor_depth(tree1),
        "runtime < 1s": elapsed < 1.0,
    }
    detail = (
        f"nepali width {nepali_width:.3f}, hp width {hp_node.width:.3f}, "
        f"depths {['%.2f' % d for d in depths2]} vs {['%.2f' % d for d in depths1]}"
    )
    failed = [k for k, v in checks.items() if not v]
    report("A4 (borrowing-excluded golden run)", not failed,
           detail + (f"; failed: {failed}" if failed else ""))


def test_a5_oracle_recovery(data_dir):
    start = time.perf_counter()
    cfg = load_simulation_config(data_dir / "sim4_config.json")
    sampled = recovery_trial(cfg)
    analytic = recovery_trial(cfg, analytic=True)
    elapsed = time.perf_counter() - start
    checks = {
        "sampled topology": sampled.all_topologies_match,
        "sampled lengths <= 2": sampled.worst_length_error <= 2.0,
        "analytic <= 1e-6": analytic.all_topologies_match
        and analytic.worst_length_error <= 1e-6,
        "runtime < 60s": elapsed < 60.0,
    }
    failed = [k for k, v in checks.items() if not v]
    report(
        "A5 (oracle recovery)",
        not failed,
        f"sampled err {sampled.worst_length_error:.3f}, analytic err "
        f"{analytic.worst_length_error:.2e}, {elapsed:.1f}s"
        + (f"; failed: {failed}" if failed else ""),
    )


def test_a6_fit_after_redistribution(table1):
    tree, _ = quiet_build(table1)
    adjusted = redistribute_residuals(tree, table1)
    rep = fit_report(adjusted, table1)
    ok = rep.max_abs_coincidence <= 2.0 and len(rep.pairs) == 15
    report(
        "A6 (fit within 2 points)",
        ok,
        f"max |residual| {rep.max_abs_coincidence:.3f} points over {len(rep.pairs)} pairs",
    )


def test_a7_borrowing_shift_theorem():
    table = make_borrowing_table()
    shift = 100.0 * math.log(100.0 / 95.0)
    m_inc = coincidence_from_cognacy(table, exclude_borrowed=False)
    m_exc = coincidence_from_cognacy(table, exclude_borrowed=True)
    from isolect import distance_matrix

    dm_inc = distance_matrix(m_inc)
    dm_exc = distance_matrix(m_exc)
    drop_ok = all(
        abs((dm_inc[i, j] - dm_exc[i, j]) - shift) <= 1e-6
        for i, j in zip(*np.triu_indices(m_inc.k, 1))
    )
    tree_inc, _ = quiet_build(m_inc)
    tree_exc, _ = quiet_build(m_exc)
    info_inc = clade_info(tree_inc)
    info_exc = clade_info(tree_exc)
    widths_ok = all(
        abs(info_exc[clade][0] - width) <= 1e-6
        for clade, (width, _) in info_inc.items()
    )
    verticals_ok = True
    exc_nodes = {tree_exc.clades()[n.id]: n for n in tree_exc.chain_nodes()}
    for node in tree_inc.chain_nodes():
        clade = tree_inc.clades()[node.id]
        other = exc_nodes[clade]
        verticals_ok &= abs(other.left_edge - (node.left_edge - shift / 2.0)) <= 1e-6
        verticals_ok &= abs(other.right_edge - (node.right_edge - shift / 2.0)) <= 1e-6
    ok = drop_ok and widths_ok and verticals_ok
    report(
        "A7 (borrowing shift theorem)",
        ok,
        f"s={shift:.3f}; drops {'ok' if drop_ok else 'BAD'}, widths "
        f"{'ok' if widths_ok else 'BAD'}, verticals {'ok' if verticals_ok else 'BAD'}",
    )


def test_a8_initial_rate_classification():
    labels = {
        1.0: classify_initial_rate(1.0),
        2.0: classify_initial_rate(2.0),
        0.5: classify_initial_rate(0.5),
    }
    exact_ok = labels == {1.0: "finite", 2.0: "zero", 0.5: "infinite"}
    times = (1e-2, 1e-4, 1e-6)
    fast = [abs(decay_rate(t, DecayParams(rate=0.14, alpha=2.0))) for t in times]
    slow = [abs(decay_rate(t, DecayParams(rate=0.14, alpha=0.5))) for t in times]
    trend_ok = fast[0] > fast[1] > fast[2] and slow[0] < slow[1] < slow[2]
    report(
        "A8 (initial-rate classification)",
        exact_ok and trend_ok,
        f"labels {labels}, |rate| trends {fast[2]:.2e} down / {slow[2]:.2e} up",
    )


def test_a9_curve_relations():
    p = DecayParams(rate=0.14, alpha=1.0)  # default shift
    grid = np.arange(1.0, 200.0 + 1e-9, 1.0)
    worst = 0.0
    for l in grid:
        ratio = time_starostin(l, p) / time_quadratic(l, p)
        worst = max(worst, abs(ratio - math.exp(0.005 * l)) / math.exp(0.005 * l))
    identity_ok = worst <= 1e-12
    curves = {c.tag: c for c in sample_curves(200.0, 1.0, p)}
    residual = curves["refit_linear"].times - curves["linear_shifted"].times
    signs = np.sign(residual)
    changes = int(np.count_nonzero(signs[:-1] * signs[1:] < 0))
    crossover_ok = changes == 1
    report(
        "A9 (curve relations)",
        identity_ok and crossover_ok,
        f"identity worst rel err {worst:.2e}, sign changes {changes}",
    )
