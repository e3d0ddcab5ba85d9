"""The benchmark's three workloads: inputs, one operation, and its checks.

Each workload generates its inputs from the seed, exposes ``op()`` (the timed
operation) and ``check(result)``, which returns the names of the checks that
failed, a digest of the deterministic outputs, and the per-operation figures.
Checks compare against values computed here from the generated inputs, never
against the program's own reports of itself.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
import xml.etree.ElementTree as ElementTree

import numpy as np

import gen
from isolect import SimulationConfig, cli, dendrogram, reconstruct, simulate, treeio

LENGTH_KEYS = ("width", "left_edge", "right_edge", "length")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def json_digest(value):
    return sha256(json.dumps(value, sort_keys=True).encode())


def tree_lengths(doc):
    """Every free length of a tree document."""
    out = []

    def walk(node):
        out.extend(node[key] for key in LENGTH_KEYS if key in node)
        for side in ("left", "right"):
            if side in node:
                walk(node[side])

    walk(doc["root"])
    return out


def sse(doc, labels, measured):
    """Sum of squared differences between tree paths and measured distances."""
    iu = np.triu_indices(len(labels), 1)
    return float(np.sum((gen.path_matrix(doc, labels)[iu] - measured[iu]) ** 2))


def check_reconstruction(labels, measured, greedy, polished, joins, fit_rms):
    """Failed-check names for one greedy build plus least-squares polish.

    ``greedy`` and ``polished`` are tree documents, ``measured`` the measured
    distance matrix in ``labels`` order, and ``fit_rms`` the RMS distance
    residuals the program reported for the two trees.
    """
    failed = []
    for tag, doc in (("greedy", greedy), ("polished", polished)):
        if sorted(gen.leaf_order(doc)) != sorted(labels):
            failed.append(f"{tag}: leaf set differs from the input labels")
        if not all(math.isfinite(x) and x >= 0.0 for x in tree_lengths(doc)):
            failed.append(f"{tag}: a length is negative or not finite")
    if failed:
        return failed
    if joins != len(labels) - 2:
        failed.append(f"{joins} joins for {len(labels)} languages")
    errors = [sse(doc, labels, measured) for doc in (greedy, polished)]
    if errors[1] > errors[0] * (1.0 + 1e-9):
        failed.append(f"polished SSE {errors[1]!r} exceeds greedy SSE {errors[0]!r}")
    pairs = len(labels) * (len(labels) - 1) / 2
    for tag, error, rms in zip(("greedy", "polished"), errors, fit_rms):
        if not math.isclose(rms, math.sqrt(error / pairs), rel_tol=1e-6, abs_tol=1e-9):
            failed.append(f"{tag}: fit_report RMS {rms!r} disagrees with the tree's paths")
    return failed


def check_recovery(topology_matches, worst_length_error, tolerance):
    """Failed-check names for a simulation recovery report."""
    failed = []
    if not all(topology_matches):
        failed.append(f"topology matches per replicate: {list(topology_matches)}")
    if not worst_length_error <= tolerance:
        failed.append(f"worst length error {worst_length_error!r} exceeds {tolerance}")
    return failed


class Reconstruct:
    """Read a k=200 coincidence file, build, polish, and report both fits."""

    name = "reconstruct-k200"
    k = 200
    list_size = 200
    height = 60.0

    def __init__(self, root, work, seed):
        rng = np.random.default_rng([seed, 1])
        self.labels = [f"L{i:03d}" for i in range(self.k)]
        self.truth = gen.chain_tree(rng, self.labels, self.height)
        counts = gen.sampled_counts(rng, gen.path_matrix(self.truth, self.labels), self.list_size)
        with np.errstate(divide="ignore"):
            self.measured = 100.0 * np.log(self.list_size / counts.astype(float))
        self.path = work / "k200.csv"
        self.path.write_text(gen.matrix_text(self.labels, counts, self.list_size))
        self.setup_code = "import isolect"

    def op(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = treeio.read_coincidence_matrix(self.path)
            greedy, steps = reconstruct.build_dendrogram(m)
            polished = reconstruct.redistribute_residuals(greedy, m)
            fits = (dendrogram.fit_report(greedy, m), dendrogram.fit_report(polished, m))
        return greedy, polished, steps, caught, fits

    def check(self, result):
        greedy, polished, steps, caught, fits = result
        docs = [treeio.dendrogram_to_dict(tree) for tree in (greedy, polished)]
        rms = [fit.rms_distance for fit in fits]
        failed = check_reconstruction(self.labels, self.measured, *docs, len(steps), rms)
        vertical = sum(step.path_residual > 1e-9 for step in steps)
        figures = {
            "splits_recovered": gen.splits_recovered(self.truth, docs[0]),
            "reconstruct.joins": len(steps),
            "reconstruct.vertical_clamps": vertical,
            "reconstruct.stem_clamps": sum("stem" in str(w.message) for w in caught),
            "reconstruct.clamped_join_frac": vertical / max(len(steps), 1),
            "dendrogram.rms_before_swadesh": rms[0],
            "dendrogram.rms_after_swadesh": rms[1],
        }
        digests = {"greedy_tree": json_digest(docs[0]), "polished_tree": json_digest(docs[1])}
        return failed, digests, figures


class Simulate:
    """One 10^6-slot, two-replicate recovery trial on the bundled 4-leaf tree."""

    name = "simulate-1m"
    slots = 1_000_000
    replicates = 2
    tolerance = 0.5  # swadesh; the error at 10^6 slots is about 0.1

    def __init__(self, root, work, seed):
        tree_path = root / "data" / "sim4_tree.json"
        self.config = SimulationConfig(
            tree=treeio.load_dendrogram(tree_path),
            slots=self.slots,
            seed=seed,
            replicates=self.replicates,
        )
        self.setup_code = (
            "import isolect\n"
            "from isolect import SimulationConfig, treeio\n"
            f"SimulationConfig(tree=treeio.load_dendrogram({str(tree_path)!r}), "
            f"slots={self.slots}, seed={seed}, replicates={self.replicates})"
        )

    def op(self):
        return simulate.recovery_trial(self.config)

    def check(self, report):
        matches = [rep.topology_match for rep in report.replicates]
        failed = check_recovery(matches, report.worst_length_error, self.tolerance)
        if len(matches) != self.replicates:
            failed.append(f"{len(matches)} replicates reported, {self.replicates} asked")
        figures = {"splits_recovered": sum(matches) / len(matches)}
        digests = {"recovery_report": sha256(repr(report).encode())}
        return failed, digests, figures


class CliSession:
    """A fixed sequence of fresh ``python -m isolect.cli`` processes."""

    name = "cli-session"

    def __init__(self, root, work, seed):
        rng = np.random.default_rng([seed, 3])
        inputs = work / "inputs"
        inputs.mkdir()
        k50 = [f"M{i:02d}" for i in range(50)]
        self.k50_truth, text = gen.coincidence_file(rng, k50, 60.0, 1000)
        (inputs / "k50.csv").write_text(text)
        borrow_tree = gen.chain_tree(rng, [f"B{i}" for i in range(8)], 60.0)
        (inputs / "borrow.tsv").write_text(gen.cognacy_text(rng, borrow_tree, 1000, 0.03))
        sim_tree = gen.chain_tree(rng, [f"S{i:02d}" for i in range(20)], 60.0)
        config = {"tree": sim_tree, "slots": 200, "seed": seed, "replicates": 20}
        (inputs / "sim.json").write_text(json.dumps(config, indent=2, sort_keys=True))

        self.out = work / "out"
        table1 = str(root / "data" / "table1.csv")
        self.commands = {
            "distances": ["distances", "--input", table1],
            "build": ["build", "--svg", "--input", table1],
            "build-k50": ["build", "--svg", "--input", str(inputs / "k50.csv")],
            "compare-borrowings": ["compare-borrowings", "--svg", "--input", str(inputs / "borrow.tsv")],
            "simulate": ["simulate", "--input", str(inputs / "sim.json")],
            "calibrate": ["calibrate", "25", "50", "100", "150", "--step", "0.5"],
            "render": ["render"],
        }
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.setup_code = "import isolect\nimport isolect.cli"

    def argv(self, out, command):
        """Arguments of one command writing under ``out``; render draws build-k50's polished tree."""
        args = list(self.commands[command])
        if command == "render":
            args += ["--input", str(out / "build-k50" / "tree_adjusted.json")]
        return args + ["--out-dir", str(out / command)]

    def _clear(self, out):
        if out.exists():
            for path in sorted(out.rglob("*"), reverse=True):
                path.rmdir() if path.is_dir() else path.unlink()
        out.mkdir(parents=True, exist_ok=True)

    def op(self):
        """Run each command in a fresh process: {command: (exit code, wall s, peak MB)}."""
        self._clear(self.out)
        runs = {}
        for command in self.commands:
            argv = [sys.executable, "-m", "isolect.cli", *self.argv(self.out, command)]
            with open(self.out / f"{command}.stderr", "wb") as stderr:
                runs[command] = spawn(argv, self.env, stderr)
        return runs

    def in_process(self, out):
        """Run each command through ``isolect.cli.main``: {command: (exit code, wall s)}."""
        self._clear(out)
        runs = {}
        for command in self.commands:
            argv = self.argv(out, command)
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            runs[command] = (code, time.perf_counter() - start)
        return runs

    def check_outputs(self, out, runs):
        """Failed-check names and per-file digests for one session's outputs."""
        failed = [f"{cmd} exited with {run[0]}" for cmd, run in runs.items() if run[0]]
        readers = {
            ".json": treeio.load_dendrogram,
            ".svg": ElementTree.parse,
            ".tsv": treeio.read_cognacy_table,
            ".csv": treeio.read_coincidence_matrix,
        }
        digests = {}
        for command in self.commands:
            for name in EXPECTED[command]:
                path = out / command / name
                if not path.is_file():
                    failed.append(f"{command}: {name} missing")
                    continue
                reader = readers.get(path.suffix)
                if reader is not None and command != "calibrate":
                    try:
                        reader(path)
                    except Exception as exc:  # any load failure fails the check
                        failed.append(f"{command}: {name} does not load: {exc}")
                digests[f"{command}/{name}"] = sha256(path.read_bytes())
        return failed, digests

    def check(self, runs):
        failed, digests = self.check_outputs(self.out, runs)
        figures = {f"cli.{cmd}_s": wall for cmd, (_, wall, _) in runs.items()}
        figures["peak_rss_mb"] = max(rss for _, _, rss in runs.values())
        tree = json.loads((self.out / "build-k50" / "tree.json").read_text())
        figures["splits_recovered"] = gen.splits_recovered(self.k50_truth, tree)
        return failed, digests, figures


class InProcessSession:
    """The CLI session run through ``isolect.cli.main`` inside this process.

    Used by the traced run: its outputs must be byte-identical to those of
    the fresh processes, and its wall times exclude interpreter start-up.
    """

    def __init__(self, session, out):
        self.session = session
        self.out = out

    def op(self):
        return self.session.in_process(self.out)

    def check(self, runs):
        failed, digests = self.session.check_outputs(self.out, runs)
        figures = {f"cli.{cmd}.compute_s": wall for cmd, (_, wall) in runs.items()}
        return failed, digests, figures


def spawn(argv, env, stderr, timeout=150.0):
    """Run one child to completion: (exit code, wall s, peak RSS MB).

    The child is killed if it outlives ``timeout`` seconds.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr, env=env
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024.0


_BUILD_FILES = (
    "tree.json",
    "tree.txt",
    "fit_report.txt",
    "tree_adjusted.json",
    "fit_report_adjusted.txt",
    "tree.svg",
)
EXPECTED = {
    "distances": ("distances.txt",),
    "build": _BUILD_FILES,
    "build-k50": _BUILD_FILES,
    "compare-borrowings": tuple(
        f"{stem}_{side}.{ext}"
        for side in ("included", "excluded")
        for stem, ext in (("matrix", "csv"), ("tree", "json"), ("tree", "txt"), ("tree", "svg"))
    )
    + ("delta_summary.txt",),
    "simulate": ("cognacy.tsv", "recovery_report.txt"),
    "calibrate": ("times.txt", "curves.csv"),
    "render": ("tree.svg",),
}

WORKLOADS = {cls.name: cls for cls in (Reconstruct, Simulate, CliSession)}
