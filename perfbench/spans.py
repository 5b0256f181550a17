"""In-memory spans around the benchmark's calls into bettikit, and layer metrics.

A span records its name, start, end, parent span and a dict of attributes
(the work counters the caller attaches after the call).  Spans stay in memory
and are written out once, when the run ends.  A layer's self time is its
span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class NullTracer:
    """Tracing off: every span is a no-op and its attributes are discarded."""

    def span(self, name: str, **attrs):
        return nullcontext({})


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = perf_counter_ns()
        try:
            yield attrs
        finally:
            record["end"] = perf_counter_ns()
            self._stack.pop()

    def self_seconds(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return [ns / 1e9 for ns in own]

    def counters(self, names: tuple[str, ...]) -> list[tuple]:
        """(name, attributes) of every span with one of the names, in span order."""
        return [(s["name"], sorted(s["attrs"].items())) for s in self.spans if s["name"] in names]

    def write(self, path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans}, fh)


WORK_SPANS = ("koszul.graded_piece", "koszul.differential", "linalg.rank")

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "betti_gf_s": "s", "betti_qq_s": "s",
    "koszul.graded_piece_s": "s", "koszul.graded_piece_calls": "count",
    "koszul.graded_piece_rows": "count", "koszul.graded_piece_ideal_dim": "count",
    "koszul.graded_piece_dim": "count", "koszul.graded_piece_pivot_ratio": "ratio",
    "koszul.differential_s": "s", "koszul.differential_calls": "count",
    "koszul.differential_nnz": "count", "koszul.differential_cells": "count",
    "linalg.rank_s": "s", "linalg.rank_calls": "count", "linalg.rank_rows": "count",
    "linalg.rank_sum": "count", "linalg.rank_pivot_ratio": "ratio",
    "decompose.bs_decompose_s": "s", "decompose.passes": "count",
    "decompose.reconstruct_s": "s", "decompose.multiplicity_s": "s", "bounds.check_s": "s",
    "koszul.hilbert_consistency_s": "s", "fixtures.run_fixture_s": "s",
    "tables.from_text_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Sum each layer's self time and counters over every span of the traced run."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, int] = {}
    for span, own in zip(tracer.spans, tracer.self_seconds()):
        name = span["name"]
        if name == "koszul.betti_table":
            name = f"betti_{span['attrs']['field']}"
        seconds[name] = seconds.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, value in span["attrs"].items():
            if isinstance(value, int) and key not in ("p", "q"):
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value

    def ratio(num: str, den: str) -> float:
        return totals.get(num, 0) / totals[den] if totals.get(den) else 0.0

    def per_call(name: str) -> float:
        return seconds.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    gp, diff, rank = "koszul.graded_piece", "koszul.differential", "linalg.rank"
    values = {
        "betti_gf_s": seconds.get("betti_gf", 0.0),
        "betti_qq_s": seconds.get("betti_qq", 0.0),
        "koszul.graded_piece_s": seconds.get(gp, 0.0),
        "koszul.graded_piece_calls": calls.get(gp, 0),
        "koszul.graded_piece_rows": totals.get(f"{gp}.rows", 0),
        "koszul.graded_piece_ideal_dim": totals.get(f"{gp}.ideal_dim", 0),
        "koszul.graded_piece_dim": totals.get(f"{gp}.piece_dim", 0),
        "koszul.graded_piece_pivot_ratio": ratio(f"{gp}.ideal_dim", f"{gp}.rows"),
        "koszul.differential_s": seconds.get(diff, 0.0),
        "koszul.differential_calls": calls.get(diff, 0),
        "koszul.differential_nnz": totals.get(f"{diff}.nnz", 0),
        "koszul.differential_cells": totals.get(f"{diff}.cells", 0),
        "linalg.rank_s": seconds.get(rank, 0.0),
        "linalg.rank_calls": calls.get(rank, 0),
        "linalg.rank_rows": totals.get(f"{rank}.rows", 0),
        "linalg.rank_sum": totals.get(f"{rank}.rank", 0),
        "linalg.rank_pivot_ratio": ratio(f"{rank}.rank", f"{rank}.rows"),
        "decompose.bs_decompose_s": seconds.get("decompose.bs_decompose", 0.0),
        "decompose.passes": totals.get("decompose.bs_decompose.passes", 0),
        "decompose.reconstruct_s": seconds.get("decompose.reconstruct", 0.0),
        "decompose.multiplicity_s": seconds.get("decompose.multiplicity", 0.0),
        "bounds.check_s": seconds.get("bounds.check", 0.0),
        "koszul.hilbert_consistency_s": per_call("koszul.hilbert_consistency"),
        "fixtures.run_fixture_s": per_call("fixtures.run_fixture"),
        "tables.from_text_s": seconds.get("tables.from_text", 0.0),
        "trace.overhead_s": overhead_s,
    }
    return values
