"""Command-line surface: artifacts, exit codes, determinism."""

import hashlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from isolect import coincidence_from_cognacy, simulate, theoretical_matrix
from isolect.cli import main
from isolect.dendrogram import Dendrogram, Leaf, RootLink
from isolect.treeio import (
    dendrogram_to_dict,
    load_dendrogram,
    load_simulation_config,
    read_cognacy_table,
    write_cognacy_table,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def run(*argv):
    return main([str(a) for a in argv])


class TestDistances:
    def test_table1(self, data_dir, tmp_path):
        code = run("distances", "--input", data_dir / "table1.csv", "--out-dir", tmp_path)
        assert code == 0
        text = (tmp_path / "distances.txt").read_text()
        lines = [l for l in text.splitlines() if l and not l.startswith("language_a")]
        assert len(lines) == 15
        assert "hindi\tpanjabi\t79.000\t23.572" in text

    def test_two_language_identity(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("p,q\np,-,100\nq,100,-\n")
        out = tmp_path / "out"
        assert run("distances", "--input", src, "--out-dir", out) == 0
        assert "p\tq\t100.000\t0.000" in (out / "distances.txt").read_text()

    def test_asymmetric_matrix_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("p,q\np,-,70\nq,71,-\n")
        code = run("distances", "--input", src, "--out-dir", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert "asymmetric" in err and "p" in err and "q" in err

    def test_out_of_range_value_exits_2(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("p,q\np,-,0\nq,0,-\n")
        assert run("distances", "--input", src, "--out-dir", tmp_path / "out") == 2

    def test_round_matrix_flag(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("p,q\np,-,79.4\nq,79.4,-\n")
        out = tmp_path / "out"
        assert run("distances", "--input", src, "--round-matrix", "--out-dir", out) == 0
        assert "p\tq\t79.000\t23.572" in (out / "distances.txt").read_text()

    def test_round_matrix_fault_names_file_and_rounding(self, tmp_path, capsys):
        # 0.4 is a valid coincidence, but it rounds to 0
        src = tmp_path / "m.csv"
        src.write_text("p,q\np,-,0.4\nq,0.4,-\n")
        code = run("distances", "--input", src, "--round-matrix", "--out-dir", tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {src}: after --round-matrix: coincidence for pair (p, q) "
            "must lie on (0, 100], got 0.0\n"
        )


class TestBuild:
    def test_table1_artifacts(self, data_dir, tmp_path):
        code = run("build", "--input", data_dir / "table1.csv", "--out-dir", tmp_path, "--svg")
        assert code == 0
        for name in (
            "tree.json",
            "tree.txt",
            "tree_adjusted.json",
            "fit_report.txt",
            "fit_report_adjusted.txt",
            "tree.svg",
        ):
            assert (tmp_path / name).exists(), name
        description = (tmp_path / "tree.txt").read_text()
        assert "length: 32.840" in description
        assert "width" in description
        svg = (tmp_path / "tree.svg").read_text()
        assert svg.startswith("<svg") and "polygon" in svg

    def test_tree_json_round_trip(self, data_dir, tmp_path):
        run("build", "--input", data_dir / "table1.csv", "--out-dir", tmp_path)
        tree = load_dendrogram(tmp_path / "tree.json")
        m = theoretical_matrix(tree)
        assert m.value("hindi", "panjabi") == pytest.approx(
            100.0 * math.exp(-23.5722 / 100.0), abs=0.01
        )

    def test_byte_identical_across_runs(self, data_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run("build", "--input", data_dir / "table1.csv", "--out-dir", out_a, "--svg")
        run("build", "--input", data_dir / "table1.csv", "--out-dir", out_b, "--svg")
        for name in ("tree.json", "tree.txt", "fit_report.txt", "tree.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("flags", [(), ("--round-matrix",)], ids=["raw", "rounded"])
    @pytest.mark.parametrize(
        "table, digests",
        [
            ("table1", (
                "bcdd5799e5e012c38f437622f6904a9c07ea2fbc7a4fd78f3290c478efeb5a23",
                "489590ed3bc8fe5b30e198d50415d4028f8d39ebecdd830587ba17a0dbd0ba2a",
            )),
            ("table2", (
                "d6d855f9eab8959e772342717a3ce54e796254ec9f910a5e7c716eb4f0dc2649",
                "7e2cf9c55a077c71ac6c544fbdd0526ba8e610c32713379146376b4aa8b6898d",
            )),
        ],
    )
    def test_fit_report_bytes_pinned(self, data_dir, tmp_path, table, digests, flags):
        run("build", "--input", data_dir / f"{table}.csv", *flags, "--out-dir", tmp_path)
        for name, digest in zip(("fit_report.txt", "fit_report_adjusted.txt"), digests):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_zero_residuals_print_unsigned(self, data_dir, tmp_path):
        # hindi-panjabi fits to rounding size; its coincidence residual once
        # printed as -0.000, with a sign that depended on the last bits
        run("build", "--input", data_dir / "table1.csv", "--out-dir", tmp_path)
        line = "hindi\tpanjabi\t23.572\t23.572\t0.000\t79.000\t79.000\t0.000"
        for name in ("fit_report.txt", "fit_report_adjusted.txt"):
            text = (tmp_path / name).read_text()
            assert line in text.splitlines()
            assert "-0.000" not in text

    @pytest.mark.parametrize(
        "table, pair, excess",
        [("table1", "n1, nrus_romani", "0.965"), ("table2", "hindi, panjabi", "3.487")],
    )
    def test_clamp_warnings_on_stderr(self, data_dir, tmp_path, capsys, table, pair, excess):
        # the clamp message alone, under Python's default warning filter: no
        # package file, line number or echoed source line
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            run("build", "--input", data_dir / f"{table}.csv", "--out-dir", tmp_path)
        assert capsys.readouterr().err == (
            f"warning: join of ({pair}) contradicts the built geometry; "
            f"verticals clamped, path excess {excess} swadesh\n"
        )

    def test_two_language_family_description(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("p,q\np,-,80\nq,80,-\n")
        out = tmp_path / "out"
        assert run("build", "--input", src, "--out-dir", out) == 0
        text = (out / "tree.txt").read_text()
        assert "two-language ambiguity family" in text
        assert "lexifier-pidgin" in text

    def test_single_language_rejected(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("p\np,-\n")
        assert run("build", "--input", src, "--out-dir", tmp_path / "out") == 2


class TestCompareBorrowings:
    def test_synthetic_shift(self, borrowing_table, tmp_path):
        src = tmp_path / "cognacy.tsv"
        write_cognacy_table(borrowing_table, src)
        out = tmp_path / "out"
        code = run("compare-borrowings", "--input", src, "--out-dir", out)
        assert code == 0
        for name in (
            "matrix_included.csv",
            "matrix_excluded.csv",
            "tree_included.json",
            "tree_excluded.json",
            "delta_summary.txt",
        ):
            assert (out / name).exists(), name
        summary = (out / "delta_summary.txt").read_text()
        shift = 100.0 * math.log(100.0 / 95.0)
        assert f"uniform shift s for same-slot borrowings: {shift:.3f}" in summary
        assert f"mean {-shift:.3f}" in summary

    def test_no_flags_single_run(self, tmp_path, capsys, two_cherry_tree):
        from isolect import SimulationConfig, simulate_cognacy

        table = simulate_cognacy(SimulationConfig(tree=two_cherry_tree, slots=300, seed=8))
        src = tmp_path / "cognacy.tsv"
        write_cognacy_table(table, src)
        out = tmp_path / "out"
        assert run("compare-borrowings", "--input", src, "--out-dir", out) == 0
        assert "warning: no borrowed flags" in capsys.readouterr().err
        assert (out / "tree_included.json").exists()
        assert not (out / "tree_excluded.json").exists()

    def test_all_slots_borrowed_leaves_no_output(self, borrowing_table, tmp_path, capsys):
        # the included run builds; excluding every slot fails after it
        table = replace(borrowing_table, borrowed=np.ones_like(borrowing_table.borrowed))
        src = tmp_path / "cognacy.tsv"
        write_cognacy_table(table, src)
        out = tmp_path / "out"
        assert run("compare-borrowings", "--input", src, "--out-dir", out) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no slots left after excluding borrowed entries\n"
        assert captured.out == ""
        assert not out.exists()


class TestCalibrate:
    def test_times_and_curves(self, tmp_path):
        out = tmp_path / "out"
        code = run("calibrate", "14", "0", "--lambda", "0.14", "--out-dir", out)
        assert code == 0
        times = (out / "times.txt").read_text()
        assert "14.000\t1.000\t" in times
        row = next(l for l in times.splitlines() if l.startswith("14.000"))
        cells = row.split("\t")
        assert cells[4] == "1.000"  # quadratic
        assert cells[5] == "1.073"  # aging correction exp(0.07)
        zero_row = next(l for l in times.splitlines() if l.startswith("0.000"))
        assert zero_row.split("\t")[1] == "0.000"
        curves = (out / "curves.csv").read_text()
        for tag in ("linear", "linear_shifted", "refit_linear", "quadratic", "starostin"):
            assert f"{tag}," in curves

    def test_negative_distance_rejected(self, tmp_path, capsys):
        assert run("calibrate", "--out-dir", tmp_path / "out", "--", "-3") == 2
        assert capsys.readouterr().err == (
            "error: swadesh distance must be finite and >= 0, got -3.0\n"
        )

    def test_bad_rate_rejected(self, tmp_path):
        assert run("calibrate", "10", "--lambda", "0", "--out-dir", tmp_path / "o") == 2

    @pytest.mark.parametrize(
        "flags",
        [("--step", "0"), ("--step", "-1"), ("--step", "nan"), ("--l-max", "-3")],
        ids=["step-0", "step-neg", "step-nan", "l-max-neg"],
    )
    def test_bad_grid_leaves_no_output(self, tmp_path, flags):
        out = tmp_path / "o"
        assert run("calibrate", "25", *flags, "--out-dir", out) == 2
        assert not out.exists() or list(out.iterdir()) == []


class TestSimulate:
    def test_golden_config(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = run("simulate", "--input", data_dir / "sim4_config.json", "--out-dir", out)
        assert code == 0
        report = (out / "recovery_report.txt").read_text()
        assert "topology_match=yes" in report
        assert "all topologies match: yes" in report
        table = (out / "cognacy.tsv").read_text()
        assert table.startswith("language\tslot\tclass\tborrowed")

    def test_byte_identical_across_runs(self, data_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run("simulate", "--input", data_dir / "sim4_config.json", "--out-dir", out_a)
        run("simulate", "--input", data_dir / "sim4_config.json", "--out-dir", out_b)
        assert (out_a / "cognacy.tsv").read_bytes() == (out_b / "cognacy.tsv").read_bytes()
        assert (out_a / "recovery_report.txt").read_bytes() == (
            out_b / "recovery_report.txt"
        ).read_bytes()

    def test_seed_override_changes_output(self, data_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run("simulate", "--input", data_dir / "sim4_config.json", "--out-dir", out_a)
        run("simulate", "--input", data_dir / "sim4_config.json", "--seed", "77",
            "--out-dir", out_b)
        assert (out_a / "cognacy.tsv").read_bytes() != (out_b / "cognacy.tsv").read_bytes()

    def test_table_reads_back_to_the_trial_values(self, data_dir, tmp_path):
        # the written tokens are segment tags; read back, they count exactly
        # as the recovery trial counts its first replicate
        out = tmp_path / "out"
        assert run("simulate", "--input", data_dir / "sim4_config.json", "--out-dir", out) == 0
        measured = coincidence_from_cognacy(read_cognacy_table(out / "cognacy.tsv"))
        sampled = simulate._sample(load_simulation_config(data_dir / "sim4_config.json"), 0)
        assert measured.labels == sampled.labels
        assert measured.list_size == sampled.list_size
        assert measured.values.tobytes() == sampled.values.tobytes()

    def test_failed_trial_leaves_no_output(self, tmp_path, capsys):
        # 900 swadesh apart, the two leaves share no class in 20 slots: the
        # table is simulated, then the trial fails
        tree = Dendrogram(RootLink(length=900.0, left=Leaf("a"), right=Leaf("b")))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tree": dendrogram_to_dict(tree), "slots": 20, "seed": 1}))
        out = tmp_path / "out"
        assert run("simulate", "--input", cfg, "--out-dir", out) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: pair (a, b) shares no cognate classes; "
            "coincidence of 0 has no finite distance\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_zero_replicates_exits_2(self, tmp_path, fig4_tree):
        from isolect.treeio import dendrogram_to_dict

        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"tree": dendrogram_to_dict(fig4_tree), "slots": 10, "seed": 1,
                 "replicates": 0}
            )
        )
        assert run("simulate", "--input", cfg, "--out-dir", tmp_path / "out") == 2


    def test_negative_seed_exits_2(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        doc = json.loads((data_dir / "sim4_config.json").read_text())
        cfg.write_text(json.dumps({**doc, "seed": -1}))
        (tmp_path / doc["tree"]).write_text((data_dir / doc["tree"]).read_text())
        assert run("simulate", "--input", cfg, "--out-dir", tmp_path / "a") == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: bad simulation config: seed must be >= 0, got -1\n"
        )
        code = run("simulate", "--input", data_dir / "sim4_config.json", "--seed", "-1",
                   "--out-dir", tmp_path / "b")
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("key, value", [
        ("slots", 1.5), ("replicates", 2.9), ("seed", 3.7), ("slots", 1.0),
        ("slots", True), ("replicates", False), ("slots", "12"), ("seed", None),
    ])
    def test_non_integer_count_exits_2(self, data_dir, tmp_path, capsys, key, value):
        # int() would truncate these or read the string: 1.5 slots ran 1 slot
        cfg = tmp_path / "cfg.json"
        doc = json.loads((data_dir / "sim4_config.json").read_text())
        cfg.write_text(json.dumps({**doc, key: value}))
        (tmp_path / doc["tree"]).write_text((data_dir / doc["tree"]).read_text())
        out = tmp_path / "out"
        assert run("simulate", "--input", cfg, "--out-dir", out) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: bad simulation config: {key} must be an integer, got {value!r}\n"
        )
        assert not out.exists()

    def test_config_not_an_object_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("5")
        assert run("simulate", "--input", cfg, "--out-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: simulation config must be a JSON object, got 5\n"
        )


class TestRender:
    def test_render_saved_tree(self, data_dir, tmp_path):
        build_dir = tmp_path / "build"
        run("build", "--input", data_dir / "table1.csv", "--out-dir", build_dir)
        out = tmp_path / "render"
        code = run("render", "--input", build_dir / "tree.json", "--out-dir", out)
        assert code == 0
        svg = (out / "tree.svg").read_text()
        assert "<svg" in svg and "swadesh" in svg

    def test_missing_file_exits_nonzero(self, tmp_path):
        code = run("render", "--input", tmp_path / "nope.json", "--out-dir", tmp_path / "o")
        assert code == 1


def malformed_tree_document(tree, case):
    """A document of ``tree`` broken in one way, and the text its error must carry."""
    doc = dendrogram_to_dict(tree)
    if case == "chain-without-width":
        del doc["root"]["left"]["width"]
        return doc, "chain 'n1' is missing key 'width'"
    if case == "no-root":
        del doc["root"]
        return doc, "document is missing key 'root'"
    if case == "parametrized-without-fraction":
        doc["root"]["variant"] = "parametrized"
        return doc, "root link has bad 'fraction' value None"
    if case == "negative-width":
        doc["root"]["left"]["width"] = -1
        return doc, "chain width must be finite and >= 0, got -1.0"
    if case == "duplicate-leaf-labels":
        doc["root"]["right"]["label"] = "1"
        return doc, "duplicate leaf labels in dendrogram: ['1']"
    if case == "duplicate-chain-ids":
        leaves = {"left": {"kind": "leaf", "label": "3"}, "right": {"kind": "leaf", "label": "4"}}
        doc["root"]["right"] = {**doc["root"]["left"], **leaves}
        return doc, "duplicate chain ids in dendrogram: ['n1']"
    return [doc], "not an isolect dendrogram document"


class TestMalformedTree:
    @pytest.mark.parametrize(
        "case",
        [
            "chain-without-width",
            "no-root",
            "list",
            "parametrized-without-fraction",
            "negative-width",
            "duplicate-leaf-labels",
            "duplicate-chain-ids",
        ],
    )
    @pytest.mark.parametrize("command", ["render", "simulate"])
    def test_exits_2_naming_file_and_key(self, tmp_path, capsys, fig4_tree, command, case):
        doc, expected = malformed_tree_document(fig4_tree, case)
        (tmp_path / "bad_tree.json").write_text(json.dumps(doc))
        source = tmp_path / "bad_tree.json"
        if command == "simulate":
            source = tmp_path / "cfg.json"
            source.write_text(json.dumps({"tree": "bad_tree.json", "slots": 10, "seed": 1}))
        assert run(command, "--input", source, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "bad_tree.json" in err and expected in err

    def test_inline_tree_fault_names_config(self, tmp_path, capsys, fig4_tree):
        doc, expected = malformed_tree_document(fig4_tree, "duplicate-chain-ids")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tree": doc, "slots": 10, "seed": 1}))
        assert run("simulate", "--input", cfg, "--out-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {cfg}: {expected}\n"


# SHA-256 of each command's files, with the files in the order their
# `wrote` lines print. tree_adjusted.json is written but not pinned: its
# full-precision floats come out of LAPACK and may differ between BLAS builds.
PINNED_RUNS = {
    "build-table1": (
        ("build", "--input", "{data}/table1.csv", "--svg"),
        ("tree.json", "tree.txt", "fit_report.txt", "tree_adjusted.json",
         "fit_report_adjusted.txt", "tree.svg"),
        {
            "tree.json": "1f56bb267bdda56812ebba67cfc9cd3eeec89fc4201950383f8ae4a2fa5991f3",
            "tree.txt": "4955d9229096f5e35dcb62003ec4b14f89ef27fbb1913917a26b28af3595170a",
            "tree.svg": "16a540a6ec1dae803d2ae96df95d038859982705fa0f8aec6adebf5332b1bd6e",
        },
    ),
    "build-table2": (
        ("build", "--input", "{data}/table2.csv", "--svg"),
        ("tree.json", "tree.txt", "fit_report.txt", "tree_adjusted.json",
         "fit_report_adjusted.txt", "tree.svg"),
        {
            "tree.json": "d84491d00ebd9675a6b0a209f40ca09c617ae2c36cbcbf4d88f094c1fbfdf792",
            "tree.txt": "338b12ddf73c80348b3d123f68631a54fab57d9b5bfdde19a9c38aa94632972a",
            "tree.svg": "115b23d3f8e81730e78975ee7663e5f6e2b26f69232e34be3c5eac89155868d5",
        },
    ),
    "distances": (
        ("distances", "--input", "{data}/table1.csv"),
        ("distances.txt",),
        {"distances.txt": "bbb28965db3db002a6b5b4253b46031a7d2d6efe8d9694090f2af277315a39e2"},
    ),
    "compare-borrowings": (
        ("compare-borrowings", "--input", "{tmp}/cognacy.tsv", "--svg"),
        ("matrix_included.csv", "tree_included.json", "tree_included.txt",
         "tree_included.svg", "matrix_excluded.csv", "tree_excluded.json",
         "tree_excluded.txt", "tree_excluded.svg", "delta_summary.txt"),
        {
            "matrix_included.csv": "0c44b7a893fa8540221a15a164e92658bbb2bc407d2f95965130cb1876cd294d",
            "tree_included.json": "b5a2592efb6804d50fc3058be3f10d39da358f204aa76872aa20c5c2cd34aa5c",
            "tree_included.txt": "37da516123a25d079aedcbd830bf854536282f60494e9ea273bd2ccf52d4cbbd",
            "tree_included.svg": "40f4a0f6a0fdcd13a18e45e6f4c0c74dd1187fec74c673c6e2c712d46059fc5a",
            "matrix_excluded.csv": "bfd1bfac2e8a7b0bc3618b27c95b5150c822dea62399c1a65595e1fcea470634",
            "tree_excluded.json": "301aa8d9a53b24a63d63b84e7f47fe3e70364d8892876a1a3bc521cd9c1c111c",
            "tree_excluded.txt": "88819f469dc4b89f816dbbde718a2423a4c7e2e01f52441309b331c45adbfa6e",
            "tree_excluded.svg": "8ab856707e6fccc26240973aef2ab29b92e16d9a251a8a38933d6bbee2a90089",
            "delta_summary.txt": "ba7524a079228faaa647b91469571ac9b7d3dd5ebcfb460413b69c3f2a63c57e",
        },
    ),
    "calibrate-defaults": (
        ("calibrate", "0", "14", "28", "50"),
        ("times.txt", "curves.csv"),
        {
            "times.txt": "11ffe26399ed7e41948468bc2682956d2b76e01e6658e8f8496a5e9daaaa37ff",
            "curves.csv": "86a2237487831e0787d3527844a71ada9cc3bb8f14eefeae64718dd5cb81bf6d",
        },
    ),
    "calibrate-flags": (
        ("calibrate", "0", "14", "28", "50", "--lambda", "0.2", "--t0", "2",
         "--shift", "3", "--l-max", "60", "--step", "0.5"),
        ("times.txt", "curves.csv"),
        {
            "times.txt": "7c8c06a9644f2b3788e33c16282d4d3ab2f89bfb78098c5498b6d193d197267f",
            "curves.csv": "422a555cfd1f5a1d759571861ec6b8ccf7fc21c90fe8de1f64614abb01df832d",
        },
    ),
    "simulate": (
        ("simulate", "--input", "{data}/sim4_config.json"),
        ("cognacy.tsv", "recovery_report.txt"),
        {
            "cognacy.tsv": "3b11bb2e176f255f38b92b5175b0d28e378b8a015d7900224999bfadbc933155",
            "recovery_report.txt": "bea4231ccea5bf4243defab3e439ca02327ebc198be2146d5b495fe662a2a77d",
        },
    ),
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestOutputsPinned:
    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_bytes_and_wrote_lines(self, name, data_dir, borrowing_table, tmp_path, capsys):
        argv, written, digests = PINNED_RUNS[name]
        write_cognacy_table(borrowing_table, tmp_path / "cognacy.tsv")
        out = tmp_path / "out"
        argv = [a.format(data=data_dir, tmp=tmp_path) for a in argv]
        assert run(*argv, "--out-dir", out) == 0
        assert capsys.readouterr().out == "".join(f"wrote {out / f}\n" for f in written)
        assert {f: _digest(out / f) for f in digests} == digests

    def test_render_of_built_tree(self, data_dir, tmp_path, capsys):
        run("build", "--input", data_dir / "table1.csv", "--out-dir", tmp_path / "build")
        capsys.readouterr()
        out = tmp_path / "render"
        assert run("render", "--input", tmp_path / "build" / "tree.json", "--out-dir", out) == 0
        assert capsys.readouterr().out == f"wrote {out / 'tree.svg'}\n"
        assert _digest(out / "tree.svg") == PINNED_RUNS["build-table1"][2]["tree.svg"]
