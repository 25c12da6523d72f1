"""The store process of the closed-loop workloads (lubm-warm, dbpedia-cold).

Usage: ``python3 perfbench/worker.py SPEC.json`` — SPEC names the
N-Triples file, the backend, the query texts and the order to send them
in; the worker writes its measurements to ``SPEC["out"]``. The store only
ever sees the N-Triples text and the SPARQL texts.

One client, closed loop: each read is sent when the previous one has
returned. ``setup_s`` is the time from N-Triples text to a loaded store,
repeated ``setups`` times (the last store serves the reads). Each read's
answer is digested outside the timed call, for ``run.py`` to compare
against the oracle. Speed probes (``common.SpeedProbe``) run between
reads and around each set-up. With ``trace`` the reads run half untraced
and half under the layer spans, and one traced set-up gives the load
split.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SpeedProbe, digest_result, use_repo_sources  # noqa: E402

use_repo_sources()

from repro.backends.sqlite import SqliteBackend  # noqa: E402
from repro.core.store import RdfStore  # noqa: E402
from repro.rdf import ntriples  # noqa: E402
from repro.rdf.graph import Graph  # noqa: E402
from tracing import SpanRecorder, install_layer_spans  # noqa: E402


def build_store(text: str, backend: str) -> RdfStore:
    graph = Graph()
    for triple in ntriples.parse(text):
        graph.add(triple)
    return RdfStore.from_graph(
        graph, backend=SqliteBackend() if backend == "sqlite" else None
    )


def read_loop(store, texts, order, start, seconds, reads, probe):
    """Closed loop over ``order`` (cycled) from position ``start`` for
    ``seconds``; appends (key, latency_s, digest, sent_at) to ``reads``."""
    position = start
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        probe.tick()
        key = order[position % len(order)]
        text = texts[key]
        started = time.perf_counter()
        result = store.query(text)
        latency = time.perf_counter() - started
        reads.append((key, latency, digest_result(result), started))
        position += 1
    return position


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    text = Path(spec["data"]).read_text()
    texts, order = spec["texts"], spec["order"]
    probe = SpeedProbe()
    out: dict = {"setups": []}
    store = None
    for _ in range(spec["setups"]):
        store = None
        gc.collect()
        probe.burst()
        started = time.perf_counter()
        store = build_store(text, spec["backend"])
        out["setups"].append((started, time.perf_counter() - started))
        probe.burst()
    recorder = None
    if spec["trace"]:
        recorder = SpanRecorder()
        install_layer_spans(recorder)
        store = None
        gc.collect()
        store = build_store(text, spec["backend"])
        recorder.uninstall()
    for key in spec["warmup"]:
        store.query(texts[key])
    seconds = spec["seconds"]
    reads: list = []
    if recorder is None:
        read_loop(store, texts, order, 0, seconds, reads, probe)
    else:
        # Same store, same stream: the first half untraced, the second
        # traced, so their difference is the tracing overhead.
        position = read_loop(store, texts, order, 0, seconds / 2, reads, probe)
        out["untraced_reads"] = len(reads)
        install_layer_spans(recorder)
        read_loop(store, texts, order, position, seconds / 2, reads, probe)
        recorder.uninstall()
        recorder.dump(Path(spec["out"] + ".spans"))
    out["reads"] = reads
    out["probes"] = probe.samples
    Path(spec["out"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
