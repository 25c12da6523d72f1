"""Vectorized-executor benchmark: execution and store-build times.

The batched, dictionary-encoded executor is the engine's only execution
path. This bench times it at the execution level: SQL is compiled and
parsed once, then ``db.execute`` runs the prepared statement, so the
measured time is operator work plus result materialization (dictionary
decode included) with no compile noise.

Every time is expressed in *calibration units*: seconds divided by the
mean duration of ``perfbench.common.calibration_loop(CALIBRATION_ITERATIONS)``
run just before and just after the timed work. The unit cancels machine
speed, and the interleaving follows the CPU-speed swings of a shared host.
A gated number is the median of ``GATE_RUNS`` runs at the fixed sizes the
pinned baselines in ``check_regressions.py`` were measured at.

Three query shapes stress different operator mixes:

* **star** — the paper's Section 2.1 entity stars: scan + multi-predicate
  filters, where whole-chunk filter kernels and columnar projection
  dominate.
* **chain** — multi-hop ``?a next ?b . ?b next ?c`` paths: per-row hash
  index probes dominate, which are inherently scalar work (one dict
  lookup per left row).
* **lubm** — the 12 LUBM queries over LUBM(2): the DB2RDF SQL the
  translator really emits (CTE chains, entry probes, ``CASE`` selectors
  over hashed predicate columns). Most return a handful of rows, so
  per-execution planning costs (scopes, kernel compilation) weigh as much
  as operator work.

Gated metrics (``check_regressions.py``): ``star_exec_cal``,
``chain_exec_cal``, ``lubm_exec_cal``, ``interned_build_cal``.
"""

from __future__ import annotations

import gc
import pathlib
import random
import statistics
import sys
import time

import pytest
from conftest import record_metric, report

from repro import RdfStore
from repro.backends.minirel import MiniRelBackend
from repro.rdf.graph import Graph
from repro.rdf.terms import Triple, URI
from repro.relational.parser import parse_sql
from repro.workloads import lubm, microbench

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from perfbench.common import calibration_loop  # noqa: E402

#: chunk sizes under comparison (DEFAULT_BATCH is the engine default)
BATCH_SIZES = (64, 256, 1024)
DEFAULT_BATCH = 256

CHAIN_BASE = "http://example.org/chain/"

#: fixed dataset sizes (independent of REPRO_BENCH_SCALE): the pinned
#: baselines were measured at exactly these sizes
STAR_TRIPLES = 20_000
CHAIN_ENTITIES = 4_000
LUBM_UNIVERSITIES = 2

STAR_QUERY_NAMES = ("Q1", "Q2", "Q7", "Q10")

#: steps of the calibration loop that makes one calibration unit
CALIBRATION_ITERATIONS = 50_000
#: runs whose median is a gated number
GATE_RUNS = 10


def chain_graph(entities: int, seed: int = 7) -> Graph:
    """A ring of ``next`` edges plus a 20-valued ``kind`` attribute."""
    rng = random.Random(seed)
    graph = Graph()
    base = CHAIN_BASE
    nxt, kind = URI(base + "next"), URI(base + "kind")
    for i in range(entities):
        subject = URI(f"{base}e{i}")
        graph.add(Triple(subject, nxt, URI(f"{base}e{(i + 1) % entities}")))
        graph.add(Triple(subject, kind, URI(f"{base}kind{rng.randrange(20)}")))
    return graph


def chain_queries() -> dict[str, str]:
    b = CHAIN_BASE
    return {
        "C2": (
            f"SELECT ?a ?c WHERE {{ ?a <{b}next> ?b . ?b <{b}next> ?c . "
            f"?a <{b}kind> <{b}kind3> . }}"
        ),
        "C3": (
            f"SELECT ?a ?d WHERE {{ ?a <{b}next> ?b . ?b <{b}next> ?c . "
            f"?c <{b}next> ?d . ?a <{b}kind> <{b}kind3> . "
            f"?d <{b}kind> <{b}kind7> . }}"
        ),
        "C2u": f"SELECT ?a ?c WHERE {{ ?a <{b}next> ?b . ?b <{b}next> ?c . }}",
    }


def calibrated(work) -> float:
    """``work()``'s wall time in calibration units."""
    before = calibration_loop(CALIBRATION_ITERATIONS)
    start = time.perf_counter()
    work()
    elapsed = time.perf_counter() - start
    after = calibration_loop(CALIBRATION_ITERATIONS)
    return elapsed / ((before + after) / 2)


def prepared(store: RdfStore, queries: dict[str, str]) -> dict:
    """Each query compiled to SQL once and parsed: prepared statements."""
    statements = {}
    for name, sparql in queries.items():
        compiled, _ = store.engine.compile(sparql)
        (statements[name],) = parse_sql(store.backend.sql_text(compiled))
    return statements


def best_exec(store: RdfStore, statement) -> float:
    """Best-of-3 calibrated time of ``db.execute`` on a prepared statement."""
    db = store.backend.db
    return min(calibrated(lambda: db.execute(statement)) for _ in range(3))


def exec_run(store: RdfStore, statements: dict) -> float:
    """One run: the geomean over the statements of their best exec time."""
    return statistics.geometric_mean(
        best_exec(store, statement) for statement in statements.values()
    )


def gated_exec(store: RdfStore, statements: dict) -> float:
    """The gated number: median of GATE_RUNS runs (at the store's batch
    size, the default unless a caller changed it)."""
    return statistics.median(
        exec_run(store, statements) for _ in range(GATE_RUNS)
    )


def batch_size_table(store: RdfStore, statements: dict):
    """Per-query exec times at every batch size; asserts every size
    returns the same rows. Returns ``(table_text, {size: geomean})``."""
    db = store.backend.db
    lines = [
        f"{'query':8s} {'rows':>7s} "
        + " ".join(f"b={size:<7d}" for size in BATCH_SIZES)
    ]
    times: dict[int, list[float]] = {size: [] for size in BATCH_SIZES}
    for name, statement in statements.items():
        rows = None
        cells = []
        for size in BATCH_SIZES:
            db.batch_size = size
            got = sorted(db.execute(statement).rows, key=repr)
            assert rows is None or got == rows, (name, size)
            rows = got
            times[size].append(best_exec(store, statement))
            cells.append(f"{times[size][-1]:9.4f}")
        lines.append(f"{name:8s} {len(rows):7d} " + " ".join(cells))
    db.batch_size = DEFAULT_BATCH
    geomeans = {
        size: statistics.geometric_mean(values) for size, values in times.items()
    }
    return "\n".join(lines), geomeans


@pytest.fixture(scope="module")
def star_graph():
    return microbench.generate(target_triples=STAR_TRIPLES).graph


def test_batch_star(star_graph):
    store = RdfStore.from_graph(star_graph, backend=MiniRelBackend())
    statements = prepared(
        store,
        {
            name: sparql
            for name, sparql in microbench.queries().items()
            if name in STAR_QUERY_NAMES
        },
    )
    table, geomeans = batch_size_table(store, statements)
    report("batch execution: star queries (calibration units)", table)
    record_metric("batch_best_size_star", min(geomeans, key=geomeans.get))
    record_metric("star_exec_cal", round(gated_exec(store, statements), 4))


def test_batch_chain():
    store = RdfStore.from_graph(
        chain_graph(CHAIN_ENTITIES), backend=MiniRelBackend()
    )
    statements = prepared(store, chain_queries())
    table, _ = batch_size_table(store, statements)
    report("batch execution: chain queries (calibration units)", table)
    record_metric("chain_exec_cal", round(gated_exec(store, statements), 4))


def test_batch_lubm():
    data = lubm.generate(universities=LUBM_UNIVERSITIES)
    store = RdfStore.from_graph(data.graph, backend=MiniRelBackend())
    statements = prepared(store, lubm.queries(universities=LUBM_UNIVERSITIES))
    table, _ = batch_size_table(store, statements)
    report("batch execution: LUBM queries (calibration units)", table)
    record_metric("lubm_exec_cal", round(gated_exec(store, statements), 4))


def test_interned_build(star_graph):
    """Store build with every TEXT value interned, median of GATE_RUNS.

    The collector is paused around each timed build: interning allocates
    many small objects, and with the large live heap a bench session
    accumulates, cyclic-GC passes triggered by that allocation rate would
    be billed (superlinearly) to the build.
    """
    runs = []
    for _ in range(GATE_RUNS):
        gc.collect()
        gc.disable()
        try:
            runs.append(
                calibrated(
                    lambda: RdfStore.from_graph(
                        star_graph, backend=MiniRelBackend()
                    )
                )
            )
        finally:
            gc.enable()
    build = statistics.median(runs)
    report(
        "interned store build (calibration units)",
        f"median of {GATE_RUNS} runs: {build:.2f}\n"
        f"runs: {' '.join(f'{r:.2f}' for r in runs)}",
    )
    record_metric("interned_build_cal", round(build, 3))
