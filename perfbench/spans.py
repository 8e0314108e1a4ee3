"""Span recording around folkgraph's public functions, from outside ``src/``.

``install(tracer)`` wraps the functions and methods listed in ``TARGETS`` so
each call records a span: name, start, end, parent span and run id. Spans
stay in memory and ``Tracer.dump`` writes them once the traced process is
done. Self time (a span's duration minus the time its child spans cover) is
summed per span name as calls return.

Two functions run per surface unit or per graph pattern (``store.match`` and
``lexicon.lookup_form``) and would dominate memory as individual spans; they
are recorded as leaves, aggregated into call count and time under their
parent, without a span each.

Only the process that installed the tracer records; forked ``--jobs`` workers
run the wrapped functions untraced.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pathlib
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)
        self.spans: list[tuple[int, int, str, float, float]] = []  # (id, parent, name, start, end)
        self.stack: list[list] = []  # [span id, child seconds]
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self._next_id = 1

    def _disable(self) -> None:
        self.enabled = False

    def wrap(self, fn, name: str, leaf: bool = False, observe=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self.stack[-1][0] if self.stack else 0
            frame = [span_id, 0.0]
            self.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                duration = end - start
                if self.stack:
                    self.stack[-1][1] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if not leaf:
                    self.spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def dump(self, path: str | os.PathLike) -> None:
        payload = {
            "run_id": self.run_id,
            "spans": [[self.run_id, *span] for span in self.spans],
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# -- observers: counts taken at the same boundaries as the spans ---------------------


def _parsed(counters, args, result):
    counters["rdfio.triples_parsed"] += len(result)


def _lexicon_built(counters, args, result):
    counters["lexicon.multiwords"] = len(args[0].multiwords())


def _form_looked_up(counters, args, result):
    counters["lexicon.units"] += 1
    counters["lexicon.oov_units"] += not result


def _plan_run(counters, args, result):
    for outcome in result.queries.values():
        counters["expansion.candidates"] += len(outcome.candidates)
        counters["expansion.accepted"] += len(outcome.accepted)


def _analyzed(counters, args, result):
    counters["detector.sentences"] += 1
    counters["detector.nodes"] += len(result.nodes)


def _activated(counters, args, result):
    counters["detector.paths"] += len(result.paths)


# (module, attribute, span name, leaf, observer)
TARGETS = [
    ("folkgraph.rdfio", "parse", "rdfio.parse", False, _parsed),
    ("folkgraph.rdfio", "to_ntriples", "rdfio.serialize", False, None),
    ("folkgraph.store", "TripleStore.extend", "store.extend", False, None),
    ("folkgraph.store", "TripleStore.match", "store.match", True, None),
    ("folkgraph.lexicon", "Lexicon.__init__", "lexicon.build", False, _lexicon_built),
    ("folkgraph.lexicon", "Lexicon.lookup_form", "lexicon.lookup_form", True, _form_looked_up),
    ("folkgraph.values", "load_value_manifest", "values.load_manifest", False, None),
    ("folkgraph.values", "build_model", "values.build_model", False, None),
    ("folkgraph.values", "ValueModel.module_graphs", "values.module_graphs", False, None),
    ("folkgraph.expansion", "parse_plan", "expansion.parse_plan", False, None),
    ("folkgraph.expansion", "Expander.run_plan", "expansion.run_plan", False, _plan_run),
    ("folkgraph.expansion", "Expander.graph_triples", "expansion.graph_triples", False, None),
    ("folkgraph.detector", "Detector.__init__", "detector.init", False, None),
    ("folkgraph.detector", "Detector.run", "detector.run", False, None),
    ("folkgraph.detector", "Detector.analyze", "detector.analyze", False, _analyzed),
    ("folkgraph.detector", "Detector.detect_values", "detector.activation", False, _activated),
    ("folkgraph.detector", "Detector.stance_query", "detector.stance", False, None),
    ("folkgraph.detector", "DetectionResult.summary_line", "detector.summary", False, None),
    ("folkgraph.detector", "DetectionResult.triples", "detector.triples", False, None),
    ("folkgraph.evaluation", "load_label_map", "evaluation.load_label_map", False, None),
    ("folkgraph.evaluation", "load_corpus", "evaluation.load_corpus", False, None),
    ("folkgraph.evaluation", "load_detections", "evaluation.load_detections", False, None),
    ("folkgraph.evaluation", "coverage_stats", "evaluation.coverage_stats", False, None),
    ("folkgraph.evaluation", "annotator_stats", "evaluation.annotator_stats", False, None),
    ("folkgraph.manifest", "load_manifest", "manifest.load_manifest", False, None),
    ("folkgraph.manifest", "build_workspace", "manifest.build_workspace", False, None),
    ("folkgraph.manifest", "load_workspace", "manifest.load_workspace", False, None),
    ("folkgraph.manifest", "load_trigger_graphs", "manifest.load_triggers", False, None),
    ("folkgraph.cli", "cmd_build_kb", "cli.build_kb", False, None),
    ("folkgraph.cli", "cmd_expand", "cli.expand", False, None),
    ("folkgraph.cli", "cmd_detect", "cli.detect", False, None),
    ("folkgraph.cli", "cmd_eval", "cli.eval", False, None),
    ("pathlib", "Path.write_text", "cli.write", True, None),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; return the targets that were not found."""
    importlib.import_module("folkgraph.cli")  # loads every pipeline module
    modules = [m for name, m in sys.modules.items() if name.startswith("folkgraph") and m is not None]
    missing = []
    for module_name, attribute, span, leaf, observe in TARGETS:
        owner = importlib.import_module(module_name) if module_name != "pathlib" else pathlib
        holder_name, _, member = attribute.rpartition(".")
        holder = getattr(owner, holder_name, None) if holder_name else owner
        original = getattr(holder, member, None) if holder is not None else None
        if original is None:
            missing.append(f"{module_name}.{attribute}")
            continue
        wrapped = tracer.wrap(original, span, leaf, observe)
        setattr(holder, member, wrapped)
        if not holder_name:
            # Functions imported by name elsewhere are rebound there too.
            for module in modules:
                if vars(module).get(member) is original:
                    setattr(module, member, wrapped)
    return missing
