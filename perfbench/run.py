#!/usr/bin/env python3
"""Benchmark of the isolect pipeline, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
reconstruct-k200, simulate-1m and cli-session. Each is a closed loop with one
client: operations run back to back for S seconds, one at a time, and every
operation's output is checked. The untraced run (--trace 0) reports the
end-to-end metrics; the traced run (--trace 1) wraps the layers in timing
spans and reports the per-layer metrics, its overhead, and whether its outputs
match the untraced ones. BLAS and OpenMP pools are pinned to one thread.

Output: one line per metric (median, unit, sample count, and the highest
percentile with at least ten samples beyond it), a ``meta`` line with run
metadata and output digests, and last a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 when
every operation passed its checks, 1 when one failed, and 2 when the program
is not found beside the benchmark.
"""

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REQUIRED = (SRC / "isolect" / "__init__.py", ROOT / "data" / "table1.csv", ROOT / "data" / "sim4_tree.json")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
COMMANDS = ("distances", "build", "build-k50", "compare-borrowings", "simulate", "calibrate", "render")
SESSION = {f"cli.{cmd}_s" for cmd in COMMANDS}

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MB",
    "splits_recovered": "fraction",
}
PER_LAYER = {
    "reconstruct.redistribute_residuals_s": "s",
    "reconstruct.build_dendrogram_s": "s",
    "reconstruct.nnls_s": "s",
    "treeio.read_coincidence_matrix_s": "s",
    "lexstat.coincidence_matrix_s": "s",
    "lexstat.distance_matrix_s": "s",
    "dendrogram.fit_report_s": "s",
    "reconstruct.joins": "count",
    "reconstruct.vertical_clamps": "count",
    "reconstruct.stem_clamps": "count",
    "reconstruct.clamped_join_frac": "fraction",
    "reconstruct.nnls_rows": "count",
    "reconstruct.nnls_cols": "count",
    "dendrogram.rms_before_swadesh": "swadesh",
    "dendrogram.rms_after_swadesh": "swadesh",
    "simulate.simulate_cognacy_s": "s",
    "simulate.simulate_cognacy.self_s": "s",
    "lexstat.cognacy_table_s": "s",
    "lexstat.coincidence_from_cognacy_s": "s",
    "kernels.evolve_slots_s": "s",
    "kernels.evolve_slots_calls": "count",
    "kernels.evolve_slots_bytes": "B",
    "kernels.pair_shared_counts_s": "s",
    "kernels.pair_shared_counts_calls": "count",
    "kernels.pair_shared_counts_bytes": "B",
    "import.isolect_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    **{f"cli.{cmd}_s": "s" for cmd in COMMANDS},
    **{f"cli.{cmd}.compute_s": "s" for cmd in COMMANDS},
    "treeio.write_cognacy_table_s": "s",
    "treeio.read_cognacy_table_s": "s",
    "treeio.cognacy_bytes": "B",
    "treeio.save_dendrogram_s": "s",
    "treeio.load_dendrogram_s": "s",
    "draw.render_svg_s": "s",
    "decay.sample_curves_s": "s",
    "trace.overhead_ratio": "ratio",
}
NOTES = {
    "kernels.*_bytes": "computed from the nbytes of argument and result arrays, not measured traffic",
    "reconstruct.stem_clamps": "counted from the warnings build_dendrogram emits",
    "reconstruct.vertical_clamps": "join steps with path_residual > 1e-9",
    "import.*": "from -X importtime in fresh processes: isolect cumulative, numpy/scipy summed self time",
    "cli.*.compute_s": "isolect.cli.main timed in this process after a warm-up session",
    "trace.overhead_ratio": "traced op time over untraced op time",
}


@dataclass
class Loop:
    """Outcome of a closed loop: times, figures and failures per operation."""

    times: list = field(default_factory=list)
    figures: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: dict = None


def closed_loop(workload, seconds, tracer=None, reference=None):
    """Run operations back to back for ``seconds`` (at least one), checking each.

    Outputs must be identical across operations: each digest is compared with
    ``reference``, or with the loop's first operation when none is given.
    """
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while loop.attempted == 0 or time.perf_counter() < deadline:
        loop.attempted += 1
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        try:
            result = workload.op()
            elapsed = time.perf_counter() - start
            failed, digests, figures = workload.check(result)
        except Exception:
            loop.failed += 1
            loop.failures.append(traceback.format_exc(limit=3))
            continue
        del result
        if tracer is not None:
            figures.update(tracer.snapshot())
        if reference is None:
            reference = digests
        if digests != reference:
            failed.append("outputs differ from the reference operation")
        if failed:
            loop.failed += 1
            loop.failures.extend(failed)
        loop.digests = loop.digests or digests
        loop.times.append(elapsed)
        loop.figures.append(figures)
    return loop


def merge(*loops):
    """One loop holding the operations of all ``loops``."""
    out = Loop()
    for loop in loops:
        out.times += loop.times
        out.figures += loop.figures
        out.failures += loop.failures
        out.attempted += loop.attempted
        out.failed += loop.failed
        out.digests = out.digests or loop.digests
    return out


def series_of(loop, names):
    """Per-operation values of each figure in ``names``."""
    out = {}
    for figures in loop.figures:
        for name, value in figures.items():
            if name in names:
                out.setdefault(name, []).append(value)
    return out


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_times(code):
    """Seconds from ``import isolect`` to the end of the workload's set-up, in fresh processes."""
    script = f"import time\nstart = time.perf_counter()\n{code}\nprint(time.perf_counter() - start)\n"
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def import_times():
    """Median import.* figures from ``-X importtime`` in fresh processes."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import isolect"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        figures = {"import.isolect_s": 0.0, "import.scipy_s": 0.0, "import.numpy_s": 0.0}
        for own, cumulative, _, name in IMPORT_LINE.findall(proc.stderr):
            if name == "isolect":
                figures["import.isolect_s"] = int(cumulative) / 1e6
            for package in ("scipy", "numpy"):
                if name == package or name.startswith(package + "."):
                    figures[f"import.{package}_s"] += int(own) / 1e6
        samples.append(figures)
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def describe(name, values, unit):
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    line = f"{name:<40} {statistics.median(values):12.6g} {unit:<9} n={n}"
    tails = [p for p in (99.9, 99, 95, 90) if n * (100 - p) / 100 >= 10]
    if tails:
        q = statistics.quantiles(values, n=1000, method="inclusive")[int(tails[0] * 10) - 1]
        line += f"  p{tails[0]:g}={q:.6g}"
    return line


def untraced(workload, seconds):
    """End-to-end figures; peak RSS is read after the first operation.

    Later operations can only raise the process's peak through allocator
    reuse patterns that vary from run to run, so the first operation in a
    fresh process gives the steady figure.
    """
    deadline = time.perf_counter() + seconds
    first = closed_loop(workload, 0)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop = merge(first, closed_loop(workload, deadline - time.perf_counter(), reference=first.digests))
    series = {"op_s": loop.times, **series_of(loop, {"splits_recovered", "peak_rss_mb", *SESSION})}
    series.setdefault("peak_rss_mb", [peak])
    return loop, series


def traced(workload, seconds, work):
    """Per-layer figures from traced operations alternating with untraced ones.

    The first operation runs untraced and warms up; its outputs are the
    reference every later operation, traced or not, must reproduce. For the
    CLI session the alternating operations run ``isolect.cli.main`` in this
    process, after one warm-up session there.
    """
    from spans import Tracer
    from workloads import CliSession, InProcessSession

    deadline = time.perf_counter() + seconds
    first = closed_loop(workload, 0)
    target = workload
    if isinstance(workload, CliSession):
        target = InProcessSession(workload, work / "in-process")
        target.op()
    tracer = Tracer()
    plain, spanned = [], []
    while not spanned or time.perf_counter() < deadline:
        tracer.install()
        try:
            spanned.append(closed_loop(target, 0, tracer, first.digests))
        finally:
            tracer.uninstall()
        plain.append(closed_loop(target, 0, reference=first.digests))
    plain, spanned = merge(*plain), merge(*spanned)
    series = series_of(first, SESSION)
    series.update(series_of(plain, {f"cli.{cmd}.compute_s" for cmd in COMMANDS}))
    series.update(series_of(spanned, PER_LAYER.keys() - series.keys()))
    if spanned.times and plain.times:
        series["trace.overhead_ratio"] = [statistics.median(spanned.times) / statistics.median(plain.times)]
    series.update((name, [value]) for name, value in import_times().items())
    return merge(first, plain, spanned), series, tracer.absent


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def metadata(args, loop, absent, missing):
    import numpy
    import scipy

    import isolect

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "isolect_version": isolect.__version__,
        "kernel_backend": getattr(isolect, "KERNEL_BACKEND", "absent"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "output_sha256": loop.digests,
        "absent_spans": absent,
        "not_exercised": missing,
        "notes": NOTES if args.trace else {},
        "failures": loop.failures[:20],
    }


def run(args, work):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, work, args.seed)
    absent = []
    if args.trace:
        loop, series, absent = traced(workload, args.seconds, work)
        wanted = PER_LAYER
    else:
        setup = setup_times(workload.setup_code)
        loop, series = untraced(workload, args.seconds)
        series["setup_s"] = setup
        wanted = END_TO_END
    series = {name: values for name, values in series.items() if values}
    missing = [name for name in wanted if name not in series]
    for name, unit in {**wanted, **PER_LAYER}.items():
        if name in series and (name in wanted or name in SESSION):
            print(describe(name, series[name], unit))
    metrics = {
        name: {"value": float(statistics.median(series.get(name, [0.0]))), "unit": unit}
        for name, unit in wanted.items()
    }
    print("meta " + json.dumps(metadata(args, loop, absent, missing), sort_keys=True))
    correct = loop.failed == 0
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("reconstruct-k200", "simulate-1m", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS; children inherit them
        os.environ[var] = "1"
    lacking = [str(path.relative_to(ROOT)) for path in REQUIRED if not path.is_file()]
    if lacking:
        print(f"error: {', '.join(lacking)} not found beside the benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import isolect

    if not Path(isolect.__file__).resolve().is_relative_to(SRC):
        print(f"error: isolect imported from {isolect.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
