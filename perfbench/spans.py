"""Spans and output capture around walkrec's public functions.

walkrec's pipeline code looks its collaborators up as module globals at
call time (``run_cell`` calls ``walkrec.evaluation.generate_walks``,
``cli.main`` calls ``walkrec.cli.cmd_walk``), so rebinding those names
to wrappers from the benchmark's own process times every call without
touching the program.  The wrappers stay installed for the whole run:
when ``timed`` is off they at most hand selected outputs to the checks,
so untraced iterations pay one extra Python call per wrapped call.  A
captured output stays alive until the checks drain it, so an iteration
whose peak memory is measured runs with ``capture`` off.
"""

import contextlib
import time

# (module, attribute, span name).  A function imported into several
# namespaces is listed once per namespace that calls it.
TARGETS = [
    ("walkrec.cli", "load_config", "config.load"),
    ("walkrec.cli", "generate_synthetic", "synthetic.generate"),
    ("walkrec.synthetic", "generate_synthetic", "synthetic.generate"),
    ("walkrec.cli", "ingest", "datasets.ingest"),
    ("walkrec.cli", "split", "datasets.split"),
    ("walkrec.datasets", "split", "datasets.split"),
    ("walkrec.cli", "save_interactions", "datasets.save"),
    ("walkrec.cli", "load_interactions", "datasets.load"),
    ("walkrec.cli", "save_dataset", "datasets.save"),
    ("walkrec.cli", "load_dataset", "datasets.load"),
    ("walkrec.cli", "build_graph", "graph.build"),
    ("walkrec.evaluation", "build_graph", "graph.build"),
    ("walkrec.cli", "generate_walks", "walks.generate"),
    ("walkrec.evaluation", "generate_walks", "walks.generate"),
    ("walkrec.cli", "save_walks", "walks.save"),
    ("walkrec.cli", "load_walks", "walks.load"),
    ("walkrec.cli", "sample_pairs", "pairs.sample"),
    ("walkrec.evaluation", "sample_pairs", "pairs.sample"),
    ("walkrec.cli", "save_stats", "pairs.save"),
    ("walkrec.cli", "load_stats", "pairs.load"),
    ("walkrec.cli", "sppmi_matrix", "confidence.score"),
    ("walkrec.cli", "co_matrix", "confidence.score"),
    ("walkrec.evaluation", "sppmi_matrix", "confidence.score"),
    ("walkrec.evaluation", "co_matrix", "confidence.score"),
    ("walkrec.cli", "save_confidence", "confidence.save"),
    ("walkrec.cli", "load_confidence", "confidence.load"),
    ("walkrec.cli", "als_fit", "factorization.fit"),
    ("walkrec.evaluation", "als_fit", "factorization.fit"),
    ("walkrec.cli", "save_model", "factorization.save"),
    ("walkrec.cli", "load_model", "factorization.load"),
    ("walkrec.cli", "recommend_topk", "recommend.topk"),
    ("walkrec.evaluation", "recommend_topk", "recommend.topk"),
    ("walkrec.cli", "save_recommendations", "recommend.save"),
    ("walkrec.cli", "load_recommendations", "recommend.load"),
    ("walkrec.evaluation", "run_cell", "evaluation.cell"),
    ("walkrec.cli", "evaluate", "evaluation.evaluate"),
    ("walkrec.evaluation", "evaluate", "evaluation.evaluate"),
    ("walkrec.cli", "write_report_tsv", "evaluation.report"),
    ("walkrec.cli", "write_report_json", "evaluation.report"),
] + [("walkrec.cli", f"cmd_{stage}", f"cli.{stage}") for stage in (
    "ingest", "split", "walk", "pairs", "confidence", "train", "recommend",
    "evaluate", "experiment")]

# Spans whose arguments and result the output checks read.
CAPTURED = {"datasets.split", "graph.build", "walks.generate", "pairs.sample",
            "confidence.score", "factorization.fit", "recommend.topk"}


class Recorder:
    """Installs the wrappers, keeps spans in memory and captured calls per iteration."""

    def __init__(self):
        self.timed = False
        self.capture = True
        self.spans = []  # [id, name, parent id, start ns, end ns, iteration]
        self.calls = []  # (span name, args, kwargs, result) since the last drain
        self.iteration = -1
        self._stack = []
        self._installed = []
        self._t0 = time.perf_counter_ns()

    def install(self, modules):
        for mod_name, attr, name in TARGETS:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            setattr(mod, attr, self._wrap(fn, name))
            self._installed.append((mod, attr, fn))

    def uninstall(self):
        while self._installed:
            mod, attr, fn = self._installed.pop()
            setattr(mod, attr, fn)

    @contextlib.contextmanager
    def span(self, name):
        "A span the benchmark opens itself (body, setup); recorded only when timed."
        if not self.timed:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name):
        span = [len(self.spans), name, self._stack[-1] if self._stack else None,
                time.perf_counter_ns() - self._t0, None, self.iteration]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span):
        span[4] = time.perf_counter_ns() - self._t0
        self._stack.pop()

    def _wrap(self, fn, name):
        capture = name in CAPTURED

        def wrapper(*args, **kwargs):
            if self.timed:
                span = self._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._close(span)
            else:
                out = fn(*args, **kwargs)
            if capture and self.capture:
                self.calls.append((name, args, kwargs, out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def drain(self):
        calls, self.calls = self.calls, []
        return calls


def self_times(spans, iteration):
    """Sum of self time in seconds per span name, for one iteration.

    Self time is a span's duration minus the part of it that its child
    spans cover; children of one span never overlap, since every wrapped
    call is made from the calling thread.
    """
    spans = [s for s in spans if s[5] == iteration]
    child_ns = {}
    for s in spans:
        if s[2] is not None:
            child_ns[s[2]] = child_ns.get(s[2], 0) + (s[4] - s[3])
    out = {}
    for s in spans:
        out[s[1]] = out.get(s[1], 0.0) + (s[4] - s[3] - child_ns.get(s[0], 0)) / 1e9
    return out


def span_records(spans):
    "Spans as JSON-ready dicts, times in seconds from the recorder's start."
    return [{"id": s[0], "name": s[1], "parent": s[2], "start_s": s[3] / 1e9,
             "end_s": s[4] / 1e9, "iteration": s[5]} for s in spans]
