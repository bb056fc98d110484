"""Spans around calls into stylokit's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
stylokit module that holds a reference to it, so names one module imports
from another (``stylokit.cli.load_manifest``) are traced too. Spans are
kept in memory; ``Tracer.dump`` writes them when the op has finished.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from pathlib import Path

# (module, function, span name). Spans named "write.*" are output writers
# and count toward the cli layer's write time wherever they are defined.
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "_write_assignment_csv", "write.assignment"),
    ("cli", "_write_run_record", "write.run_record"),
    ("corpus", "load_manifest", "corpus.load_manifest"),
    ("corpus", "filter_corpus", "corpus.filter_corpus"),
    ("features", "build_matrix", "features.build_matrix"),
    ("features", "write_matrix_csv", "write.matrix"),
    ("selection", "select_reliable", "selection.select_reliable"),
    ("selection", "select_top_frequency", "selection.select_top_frequency"),
    ("selection", "write_selection_csv", "write.selection"),
    ("metrics", "compute_distance", "metrics.compute_distance"),
    ("metrics", "write_distance_csv", "write.distance"),
    ("cluster", "ward_cluster", "cluster.ward_cluster"),
    ("cluster", "cut", "cluster.cut"),
    ("cluster", "to_newick", "write.newick"),
    ("cluster", "to_dot", "write.dot"),
    ("cluster", "write_text", "write.text"),
    ("evaluate", "cluster_purity", "evaluate.cluster_purity"),
    ("evaluate", "eta_table", "evaluate.eta_table"),
    ("evaluate", "robustness_sweep", "evaluate.robustness_sweep"),
    ("evaluate", "write_eta_csv", "write.eta"),
    ("evaluate", "write_sweep_csv", "write.sweep"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("pipeline", "apply_selection", "pipeline.apply_selection"),
    ("pipeline", "shortest_document_length", "pipeline.shortest_document_length"),
    ("render", "dendrogram_svg", "render.dendrogram_svg"),
    ("render", "write_svg", "write.svg"),
)


def _rss_bytes() -> int:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Counters read off a traced call's arguments and result."""
    if name == "features.build_matrix":
        spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
        return {"family": spec.kind.value, "n_features": result.n_features}
    if name == "selection.select_reliable":
        return {"kept": len(result.retained), "total": len(result.per_feature)}
    if name == "selection.select_top_frequency":
        matrix = kwargs.get("matrix", args[0])
        return {"kept": len(result), "total": matrix.n_features}
    if name == "metrics.compute_distance":
        measure = kwargs.get("measure", args[1] if len(args) > 1 else None)
        return {"measure": getattr(measure, "value", measure), "n": result.n_docs}
    if name == "cluster.ward_cluster":
        return {"n": result.n_leaves}
    if name == "evaluate.cluster_purity":
        return {"purity": result.purity}
    return {}


class Tracer:
    def __init__(self, op_id: int) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = op_id
        self._normalize_calls = itertools.count()
        self._normalize_seen: set[tuple[str, str, str]] = set()
        self._corpora: list = []
        self.loads: list[dict] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op, {}])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            rss_before = _rss_bytes() if name == "corpus.load_manifest" else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            tracer.spans[sid][5] = _attrs(name, args, kwargs, result)
            if name == "corpus.load_manifest":
                tracer.loads.append({"span": sid, "rss_growth": _rss_bytes() - rss_before})
                tracer._corpora.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_normalize(self, fn):
        calls, seen = self._normalize_calls, self._normalize_seen

        def counted(raw_form, lemma, pos):
            next(calls)
            seen.add((raw_form, lemma, pos))
            return fn(raw_form, lemma, pos)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap every traced function wherever a stylokit module refers to it."""
        import stylokit.cli  # noqa: F401  (loads every module the CLI reaches)

        modules = [m for n, m in sys.modules.items() if n.startswith("stylokit.")]
        replacements = {}
        for module_name, func_name, span_name in TRACED:
            original = getattr(sys.modules[f"stylokit.{module_name}"], func_name)
            replacements[id(original)] = (original, self._wrap(span_name, original))
        normalize = sys.modules["stylokit.corpus"].normalize_token
        replacements[id(normalize)] = (normalize, self._count_normalize(normalize))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path: Path, extra: dict) -> None:
        """Write spans and counters; corpus sizes are read here, after the op."""
        for load, corpus in zip(self.loads, self._corpora):
            load["docs"] = len(corpus)
            load["tokens"] = sum(doc.token_count for doc in corpus)
        normalize_calls = next(self._normalize_calls)
        record = {
            "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4], "attrs": s[5]}
                for s in self.spans
            ],
            "loads": self.loads,
            "normalize_calls": normalize_calls,
            "normalize_distinct": len(self._normalize_seen),
            **extra,
        }
        path.write_text(json.dumps(record), encoding="utf-8")
