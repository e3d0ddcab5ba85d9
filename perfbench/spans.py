"""Timing shims around the functions through which isolect's layers call each other.

A span replaces a public function (or a class's ``__init__``) with a wrapper
that records its wall time, its self time (wall time minus the time of spans
it called) and its call count. Functions are replaced in their defining module
and in every loaded ``isolect`` module that imported them by name, so calls
made between layers go through the wrapper. A span whose target no longer
exists is skipped and reported as absent.
"""

import functools
import sys
import time
from collections import defaultdict, namedtuple
from pathlib import Path

Span = namedtuple("Span", "name module attr hook", defaults=(None,))


def _nbytes(*values):
    total = 0
    for value in values:
        if isinstance(value, tuple):
            total += _nbytes(*value)
        else:
            total += getattr(value, "nbytes", 0)
    return total


def _array_bytes(tracer, name, args, kwargs, result):
    tracer.counts[f"{name}_bytes"] += _nbytes(*args, *kwargs.values(), result)


def _nnls_shape(tracer, name, args, kwargs, result):
    rows, cols = args[0].shape
    tracer.counts["reconstruct.nnls_rows"] = rows
    tracer.counts["reconstruct.nnls_cols"] = cols


def _file_bytes(position):
    def hook(tracer, name, args, kwargs, result):
        tracer.counts["treeio.cognacy_bytes"] = Path(args[position]).stat().st_size

    return hook


SPANS = (
    Span("treeio.read_coincidence_matrix", "isolect.treeio", "read_coincidence_matrix"),
    Span("lexstat.coincidence_matrix", "isolect.lexstat", "CoincidenceMatrix.__init__"),
    Span("lexstat.distance_matrix", "isolect.lexstat", "distance_matrix"),
    Span("reconstruct.build_dendrogram", "isolect.reconstruct", "build_dendrogram"),
    Span("reconstruct.redistribute_residuals", "isolect.reconstruct", "redistribute_residuals"),
    Span("reconstruct.nnls", "scipy.optimize", "nnls", _nnls_shape),
    Span("dendrogram.fit_report", "isolect.dendrogram", "fit_report"),
    Span("simulate.simulate_cognacy", "isolect.simulate", "simulate_cognacy"),
    Span("lexstat.cognacy_table", "isolect.lexstat", "CognacyTable.__init__"),
    Span("lexstat.coincidence_from_cognacy", "isolect.lexstat", "coincidence_from_cognacy"),
    Span("kernels.evolve_slots", "isolect._kernels", "evolve_slots", _array_bytes),
    Span("kernels.pair_shared_counts", "isolect._kernels", "pair_shared_counts", _array_bytes),
    Span("treeio.write_cognacy_table", "isolect.treeio", "write_cognacy_table", _file_bytes(1)),
    Span("treeio.read_cognacy_table", "isolect.treeio", "read_cognacy_table", _file_bytes(0)),
    Span("treeio.save_dendrogram", "isolect.treeio", "save_dendrogram"),
    Span("treeio.load_dendrogram", "isolect.treeio", "load_dendrogram"),
    Span("draw.render_svg", "isolect.draw", "render_svg"),
    Span("decay.sample_curves", "isolect.decay", "sample_curves"),
)


class Tracer:
    """Installs the spans, accumulates their figures, and removes them again."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.absent = []
        self._restore = []
        self._open = []
        self.reset()

    def reset(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    def _wrap(self, span, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                self.seconds[span.name] += elapsed
                self.self_seconds[span.name] += elapsed - children
                self.calls[span.name] += 1
                if self._open:
                    self._open[-1] += elapsed
            if span.hook is not None:
                span.hook(self, span.name, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        self.absent = []
        for span in self.spans:
            owner = sys.modules.get(span.module)
            *path, attr = span.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(span.name)
                continue
            wrapper = self._wrap(span, original)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name != span.module and not name.startswith("isolect"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

    def _replace(self, owner, attr, wrapper):
        own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def snapshot(self):
        """Figures of the spans since the last reset, keyed by metric name."""
        out = {}
        for span in self.spans:
            if span.name in self.absent:
                continue
            out[f"{span.name}_s"] = self.seconds[span.name]
            out[f"{span.name}.self_s"] = self.self_seconds[span.name]
            out[f"{span.name}_calls"] = self.calls[span.name]
        out.update(self.counts)
        return out
