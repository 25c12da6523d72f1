"""Span recording from outside the program, and the per-layer split.

The benchmark never edits ``src/``: :class:`SpanRecorder` wraps each
layer's public functions where their caller looks them up (a module
global such as ``repro.sparql.engine.parse_sparql``, or a class attribute
such as ``SparqlEngine.query``). Every call records one span — name,
start, end, parent span, request id, and an optional count — kept in
memory and written out when the run ends. A span opened with no open
parent on its thread starts a new request.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


def _rows_out(args, result) -> int:
    return len(result[1])


class SpanRecorder:
    def __init__(self) -> None:
        #: [span id, name, start, end, parent id, request id, count]
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: plan caches seen by a lookup, for their invalidation counters
        self.caches: dict[int, Any] = {}
        #: load-time shape (columns, spills, multi-valued predicates)
        self.notes: dict[str, Any] = {}

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Callable[[tuple, Any], int] | None = None,
        materialize: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, result)`` gives the span's count (rows, hits);
        ``materialize`` consumes a returned iterator inside the span (for
        lazy parsers, whose work happens while the caller iterates)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent, request = stack[-1][0], stack[-1][5]
            else:
                parent, request = 0, next(recorder._requests)
            span = [next(recorder._ids), name, time.perf_counter(), 0.0,
                    parent, request, None]
            stack.append(span)
            try:
                result = original(*args, **kwargs)
                if materialize:
                    result = list(result)
                if count is not None:
                    span[6] = count(args, result)
                return result
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        invalidations = sum(c.info().invalidations for c in self.caches.values())
        path.write_text(json.dumps(
            {"spans": self.spans, "invalidations": invalidations,
             "notes": self.notes}
        ))


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap every layer the benchmark splits time across."""
    import repro.cli
    import repro.core.store as store_module
    import repro.rdf.ntriples as ntriples
    import repro.sparql.engine as engine_module
    from repro.backends.base import Backend
    from repro.backends.minirel import MiniRelBackend
    from repro.backends.sqlite import SqliteBackend
    from repro.core.loader import Loader
    from repro.core.querycache import QueryCache
    from repro.core.store import RdfStore
    from repro.sparql.engine import SparqlEngine
    from repro.sparql.translator.pipeline import PipelineTranslator
    from repro.update.transaction import Transaction
    from repro.update.wal import WriteAheadLog

    def cache_hit(args, entry) -> int:
        recorder.caches[id(args[0])] = args[0]
        return int(entry is not None)

    def columns(args, result) -> int:
        direct, reverse = result
        recorder.notes["columns"] = [
            max(direct.colors_used, 1), max(reverse.colors_used, 1)
        ]
        return 0

    def load_shape(args, report) -> int:
        recorder.notes["spill_rows"] = (
            report.direct.spill_rows + report.reverse.spill_rows
        )
        recorder.notes["multivalued"] = len(report.direct.multivalued) + len(
            report.reverse.multivalued
        )
        return report.triples

    wrap = recorder.wrap
    wrap(ntriples, "parse", "rdf.ntriples.parse", materialize=True)
    wrap(repro.cli, "parse_ntriples", "rdf.ntriples.parse", materialize=True)
    wrap(store_module, "color_graph_for_store", "core.coloring.color",
         count=columns)
    wrap(Loader, "bulk_load", "core.loader.bulk_load", count=load_shape)
    wrap(Loader, "insert_triple", "core.loader.insert_triple")
    wrap(Loader, "delete_triple", "core.loader.delete_triple")
    for backend in (MiniRelBackend, SqliteBackend):
        wrap(backend, "execute", "backends.execute", count=_rows_out)
        wrap(backend, "insert_many", "backends.insert_many")
    wrap(Backend, "sql_text", "relational.render")
    wrap(QueryCache, "lookup", "core.querycache.lookup", count=cache_hit)
    wrap(engine_module, "parse_sparql", "sparql.parser")
    for fn in ("build_data_flow_graph", "optimal_flow_tree",
               "enumerate_join_orders", "flow_from_order",
               "build_execution_tree", "textual_execution_tree",
               "merge_execution_tree"):
        wrap(engine_module, fn, "sparql.optimizer")
    wrap(PipelineTranslator, "translate", "sparql.translator")
    wrap(SparqlEngine, "query", "sparql.engine.query")
    # A span of its own keeps cache-key and plan bookkeeping out of the
    # query's self time, which is reported as decode.
    wrap(SparqlEngine, "compile_cached", "sparql.engine.compile_cached")
    wrap(store_module, "parse_update", "update.parser")
    wrap(store_module, "apply_update", "update.apply")
    wrap(RdfStore, "update", "update.request")
    wrap(Transaction, "commit", "update.transaction.commit")
    wrap(WriteAheadLog, "append", "update.wal.append")
    wrap(RdfStore, "snapshot", "core.concurrency.snapshot")


def install_server_spans(recorder: SpanRecorder) -> None:
    """Serving-side spans: one root per read request, plus serialization."""
    import repro.server.app as app_module

    recorder.wrap(app_module.SparqlServer, "_run_query", "server.read")
    recorder.wrap(app_module, "serialize_select", "sparql.results.serialize")


# ------------------------------------------------------------ aggregation


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds (minus child spans),
    calls, summed counts — split by the root span kind of the request
    (``read``, ``write`` or ``setup``)."""
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[4]:
            child_time[span[4]] += span[3] - span[2]

    def root_kind(span: list) -> str:
        while span[4] and span[4] in by_id:
            span = by_id[span[4]]
        name = span[1]
        if name in ("server.read", "sparql.engine.query"):
            return "read"
        if name.startswith("update."):
            return "write"
        return "setup"

    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"total": 0.0, "self": 0.0, "calls": 0, "count": 0}
    )
    for span in spans:
        key = f"{root_kind(span)}:{span[1]}"
        entry = table[key]
        duration = span[3] - span[2]
        entry["total"] += duration
        entry["self"] += duration - child_time.get(span[0], 0.0)
        entry["calls"] += 1
        if span[6] is not None:
            entry["count"] += span[6]
    return dict(table)
