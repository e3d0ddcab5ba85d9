"""Tests of the benchmark itself: generator, checks, spans and metric list.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from isolect import dendrogram, treeio  # noqa: E402

LABELS = [f"x{i}" for i in range(12)]

# Clamp warnings from the reconstruction are expected on sampled inputs.
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def small_tree(seed=5):
    return gen.chain_tree(np.random.default_rng(seed), LABELS, 40.0)


def test_generator_is_deterministic_per_seed():
    def make(seed):
        rng = np.random.default_rng(seed)
        tree, text = gen.coincidence_file(rng, LABELS, 40.0, 200)
        return json.dumps(tree, sort_keys=True), text, gen.cognacy_text(rng, tree, 300, 0.03)

    assert make(1) == make(1)
    assert make(1) != make(2)


def test_generated_tree_is_valid_and_clock_like():
    doc = small_tree()
    tree = treeio.dendrogram_from_dict(doc)
    for node in tree.chain_nodes():
        left, right = dendrogram.endpoint_depths(node)
        assert left == pytest.approx(right)
    labels = list(tree.leaves())
    expected = dendrogram.leaf_distances(tree)
    paths = gen.path_matrix(doc, labels)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels[i + 1 :], start=i + 1):
            assert paths[i, j] == pytest.approx(expected[frozenset((a, b))])
            assert paths[j, i] == paths[i, j]


def test_generated_cognacy_table_loads_with_borrowings(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text(gen.cognacy_text(np.random.default_rng(3), small_tree(), 400, 0.03))
    table = treeio.read_cognacy_table(path)
    assert table.class_ids.shape == (len(LABELS), 400)
    assert table.borrowed_slot_count() == 12


def test_splits_recovered_of_a_tree_against_itself_is_one():
    doc = small_tree()
    assert len(gen.splits(doc)) == len(LABELS) - 3
    assert gen.splits_recovered(doc, doc) == 1.0


def test_splits_recovered_drops_when_leaves_move():
    doc = small_tree()
    order = gen.leaf_order(doc)
    first, last = f'"{order[0]}"', f'"{order[-1]}"'
    text = json.dumps(doc).replace(first, '"tmp"').replace(last, first).replace('"tmp"', last)
    assert gen.splits_recovered(doc, json.loads(text)) < 1.0


def reconstruction_case():
    doc = small_tree()
    labels = gen.leaf_order(doc)
    measured = gen.path_matrix(doc, labels) + 0.5
    pairs = len(labels) * (len(labels) - 1) / 2
    rms = [np.sqrt(workloads.sse(doc, labels, measured) / pairs)] * 2
    return labels, measured, doc, rms


def test_reconstruction_check_accepts_a_consistent_result():
    labels, measured, doc, rms = reconstruction_case()
    assert workloads.check_reconstruction(labels, measured, doc, doc, len(labels) - 2, rms) == []


@pytest.mark.parametrize(
    "corrupt, message",
    [
        ("negative_length", "negative or not finite"),
        ("infinite_length", "negative or not finite"),
        ("missing_leaf", "leaf set"),
        ("joins", "joins"),
        ("polished_worse", "SSE"),
        ("fit_report", "fit_report"),
    ],
)
def test_reconstruction_check_rejects_a_corrupted_result(corrupt, message):
    labels, measured, doc, rms = reconstruction_case()
    greedy, polished, joins = doc, json.loads(json.dumps(doc)), len(labels) - 2
    if corrupt == "negative_length":
        polished["root"]["left"]["width"] = -1.0
    elif corrupt == "infinite_length":
        polished["root"]["length"] = float("inf")
    elif corrupt == "missing_leaf":
        polished = json.loads(json.dumps(doc).replace('"x3"', '"zz"'))
    elif corrupt == "joins":
        joins -= 1
    elif corrupt == "polished_worse":
        polished["root"]["length"] += 5.0
    elif corrupt == "fit_report":
        rms = [rms[0], rms[1] * 1.01]
    failed = workloads.check_reconstruction(labels, measured, greedy, polished, joins, rms)
    assert any(message in text for text in failed)


def test_recovery_check():
    assert workloads.check_recovery([True, True], 0.09, 0.5) == []
    assert workloads.check_recovery([True, False], 0.09, 0.5)
    assert workloads.check_recovery([True, True], float("inf"), 0.5)
    assert workloads.check_recovery([True, True], 0.6, 0.5)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    work = tmp_path_factory.mktemp("session")
    cli = workloads.CliSession(ROOT, work, seed=7)
    out = work / "in-process"
    runs = cli.in_process(out)
    return cli, out, runs


def test_cli_session_outputs_pass_their_checks(session):
    cli, out, runs = session
    failed, digests = cli.check_outputs(out, runs)
    assert failed == []
    assert set(digests) == {f"{cmd}/{name}" for cmd, names in workloads.EXPECTED.items() for name in names}


def test_cli_session_check_rejects_a_bad_exit_code(session):
    cli, out, runs = session
    assert cli.check_outputs(out, {**runs, "render": (2, 0.1)})[0]


@pytest.mark.parametrize("name", ["build-k50/tree.json", "render/tree.svg", "simulate/cognacy.tsv"])
def test_cli_session_check_rejects_a_corrupted_file(session, name, tmp_path):
    cli, out, runs = session
    path = out / name
    saved = path.read_bytes()
    try:
        path.write_bytes(saved[: len(saved) // 2])
        assert cli.check_outputs(out, runs)[0]
        path.unlink()
        assert cli.check_outputs(out, runs)[0]
    finally:
        path.write_bytes(saved)


class Counter:
    """A fake workload whose outputs change on every operation."""

    def __init__(self):
        self.n = 0

    def op(self):
        self.n += 1
        return self.n

    def check(self, n):
        return [], {"n": str(n)}, {}


def test_closed_loop_counts_outputs_that_differ_between_operations():
    loop = run.closed_loop(Counter(), 0.05)
    assert loop.attempted >= 2
    assert loop.failed == loop.attempted - 1


def test_tracer_times_nested_spans_and_restores_originals():
    import isolect.reconstruct as reconstruct
    import isolect.simulate as simulate

    original = reconstruct.build_dendrogram
    tracer = spans.Tracer(
        spans.SPANS + (spans.Span("missing.layer", "isolect.reconstruct", "no_such_function"),)
    )
    tracer.install()
    try:
        assert simulate.build_dendrogram is reconstruct.build_dendrogram is not original
        matrix = treeio.read_coincidence_matrix(ROOT / "data" / "table1.csv")
        reconstruct.build_dendrogram(matrix)
        figures = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert reconstruct.build_dendrogram is original and simulate.build_dendrogram is original
    assert tracer.absent == ["missing.layer"]
    assert figures["reconstruct.build_dendrogram_calls"] == 1
    assert figures["lexstat.distance_matrix_calls"] == 1
    inner = figures["lexstat.distance_matrix_s"]
    total = figures["reconstruct.build_dendrogram_s"]
    assert figures["reconstruct.build_dendrogram.self_s"] == pytest.approx(total - inner)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert tuple(workloads.EXPECTED) == run.COMMANDS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
