"""The repo benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload lubm-warm --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the workload under the layer spans (``tracing.py``) and prints the
per-layer table instead. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The line before it
records run metadata (a fixed calibration-loop time and ``nproc``) so
absolute times compare across machines. See ``README.md`` for why each
workload exists and which layer metric should move which end-to-end one.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    REFERENCE_PROBE_S,
    ROOT,
    RUNS_DIR,
    SpeedProbe,
    calibration_seconds,
    child_env,
    digest_json_results,
    digest_result,
    geomean_of_medians,
    percentile,
    speed_scale,
    use_repo_sources,
)

use_repo_sources()

import gen  # noqa: E402
import serve  # noqa: E402
from repro.baselines.native_memory import NativeMemoryStore  # noqa: E402
from repro.rdf import ntriples  # noqa: E402
from repro.rdf.graph import Graph  # noqa: E402
from tracing import layer_times  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("read_ms.p50", "ms"),
    ("read_ms.p99", "ms"),
    ("read_ms.geomean", "ms"),
    ("read_qps", "1/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("rdf.ntriples.parse_s", "s"),
    ("core.coloring.color_s", "s"),
    ("core.coloring.columns_direct", "count"),
    ("core.coloring.columns_reverse", "count"),
    ("core.loader.bulk_load_self_s", "s"),
    ("backends.insert_many_s", "s"),
    ("core.loader.spill_rows", "count"),
    ("core.loader.multivalued_predicates", "count"),
    ("backends.execute_ms_per_read", "ms"),
    ("backends.rows_out_per_read", "count"),
    ("sparql.engine.decode_ms_per_read", "ms"),
    ("core.querycache.hit_rate", "ratio"),
    ("core.querycache.invalidations", "count"),
    ("sparql.parser.ms_per_read", "ms"),
    ("sparql.optimizer.ms_per_read", "ms"),
    ("sparql.translator.ms_per_read", "ms"),
    ("relational.render.ms_per_read", "ms"),
    ("update.parser.ms_per_write", "ms"),
    ("update.apply.self_ms_per_write", "ms"),
    ("core.loader.insert_ms_per_triple", "ms"),
    ("backends.execute_ms_per_write", "ms"),
    ("update.transaction.commit_ms", "ms"),
    ("update.wal.append_ms", "ms"),
    ("update.wal.bytes_per_commit", "bytes"),
    ("update.wal.segments", "count"),
    ("core.concurrency.snapshot_ms", "ms"),
    ("sparql.results.serialize_ms_per_read", "ms"),
    ("server.self_ms_per_read", "ms"),
    ("write_ms.p50", "ms"),
    ("write_ms.p99", "ms"),
    ("wal_bytes_per_triple", "bytes"),
    ("tracing.overhead_read_ms.p50", "ms"),
]

#: closed-loop set-ups per run (setup_s is their median)
SETUPS = {"lubm-warm": 5, "dbpedia-cold": 5, "serve-mixed": 5}
#: distinct dbpedia-cold requests, cycled; far above the 128-entry plan cache
DBPEDIA_POOL = 4000
#: serve-mixed operations generated per run (a closed loop stops at the
#: deadline; a run uses about 1,000)
SERVE_MAX_OPS = 20_000
#: the final-state check reads the whole store back
DUMP_QUERY = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"
#: per-child wall-clock limit, so a hung store process cannot hang the run
CHILD_TIMEOUT = 170


class Run:
    """Outcome counters plus the metric values of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.values: dict[str, float] = {}
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"FAILED: {what}")


def peak_child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def read_summary(run: Run, samples: list[tuple[str, float]]) -> None:
    """End-to-end read metrics from (template, scaled latency_s) samples."""
    ms = [latency * 1000.0 for _, latency in samples]
    per_template: dict[str, list[float]] = {}
    for (template, _), value in zip(samples, ms):
        per_template.setdefault(template, []).append(value)
    run.values["read_ms.p50"] = statistics.median(ms)
    run.values["read_ms.p99"] = percentile(ms, 99)
    run.values["read_ms.geomean"] = geomean_of_medians(per_template)
    run.values["read_qps"] = 1000.0 * len(ms) / sum(ms)
    run.notes.append(f"{len(ms)} reads timed")


def note_scale(run: Run, probes: list) -> None:
    scales = [REFERENCE_PROBE_S / seconds for _, seconds in probes]
    run.notes.append(
        f"speed scale applied to times: median {statistics.median(scales):.3f}, "
        f"range {min(scales):.2f}-{max(scales):.2f} ({len(scales)} probes)"
    )


def oracle_for(text: str) -> NativeMemoryStore:
    graph = Graph()
    for triple in ntriples.parse(text):
        graph.add(triple)
    return NativeMemoryStore.from_graph(graph)


# ------------------------------------------------------ closed-loop workloads


def closed_loop(args, workdir: Path, run: Run) -> dict | None:
    if args.workload == "lubm-warm":
        text, queries = gen.lubm_warm()
        backend = "minirel"
        texts = queries
        template = {name: name for name in queries}
        order = gen.shuffled_passes(list(queries), args.seed, 2000)
        warmup = list(queries)
    else:
        text, entities = gen.dbpedia_cold()
        backend = "sqlite"
        requests = gen.dbpedia_requests(args.seed, entities, DBPEDIA_POOL)
        texts = {str(i): query for i, (_, query) in enumerate(requests)}
        template = {str(i): name for i, (name, _) in enumerate(requests)}
        order = list(texts)
        warmup = []
    oracle = oracle_for(text)
    expected = {key: digest_result(oracle.query(query)) for key, query in texts.items()}
    del oracle
    data = workdir / "data.nt"
    data.write_text(text)
    out = workdir / "worker.json"
    spec = {
        "data": str(data), "backend": backend, "texts": texts, "order": order,
        "warmup": warmup, "setups": 0 if args.trace else SETUPS[args.workload],
        "seconds": args.seconds, "trace": bool(args.trace), "out": str(out),
    }
    (workdir / "spec.json").write_text(json.dumps(spec))
    worker = Path(__file__).resolve().parent / "worker.py"
    subprocess.run(
        [sys.executable, str(worker), str(workdir / "spec.json")],
        cwd=ROOT, env=child_env(), check=True, timeout=CHILD_TIMEOUT,
    )
    result = json.loads(out.read_text())
    probes = result["probes"]
    reads = [
        (key, latency * speed_scale(probes, sent), digest)
        for key, latency, digest, sent in result["reads"]
    ]
    for key, _, digest in reads:
        run.check(digest == expected[key], f"wrong answer for {template[key]}")
    run.values["peak_rss_mb"] = peak_child_rss_mb()
    note_scale(run, probes)
    if not args.trace:
        run.values["setup_s"] = statistics.median(
            seconds * speed_scale(probes, started + seconds / 2)
            for started, seconds in result["setups"]
        )
        read_summary(run, [(template[key], latency) for key, latency, _ in reads])
        return None
    split = result["untraced_reads"]
    untraced = [latency for _, latency, _ in reads[:split]]
    traced = [latency for _, latency, _ in reads[split:]]
    return {
        "dump": json.loads(Path(str(out) + ".spans").read_text()),
        "reads": len(traced),
        "writes": 0,
        "overhead_ms": (statistics.median(traced) - statistics.median(untraced)) * 1e3,
    }


# ---------------------------------------------------------------- serve-mixed


class ServeOracle:
    """Expected answers for serve-mixed: reads never depend on the writes
    (written students have their own namespace); the final state is the
    base data after the same update sequence."""

    def __init__(self, text: str) -> None:
        self.text = text
        base = oracle_for(text)
        self._digests: dict[str, str] = {}
        self._base = base

    def read(self, query: str) -> str:
        if query not in self._digests:
            self._digests[query] = digest_result(self._base.query(query))
        return self._digests[query]

    def final_state(self, updates: list[str]) -> str:
        store = oracle_for(self.text)
        for update in updates:
            store.update(update)
        return digest_result(store.query(DUMP_QUERY))


def serve_phase(run: Run, data: Path, wal: Path, ops, oracle: ServeOracle,
                seconds: float, probe: SpeedProbe, spans_out: Path | None = None):
    """One server lifetime: start, run the closed loop, read the whole
    store back, drain. Returns (server, records)."""
    server = serve.start_server(data, wal, probe, spans_out)
    try:
        records = serve.run_closed_loop(server.port, ops, seconds, probe)
        status, body = serve.query_once(server.port, DUMP_QUERY)
    finally:
        code = server.stop()
    run.check(code == 0, f"server exit code {code}")
    writes = []
    for record in records:
        text = ops[record.index][1]
        if record.kind == "write":
            ok = record.status == 200
            if ok:
                answer = json.loads(record.body)
                ok = answer["inserted"] == 6 and answer["deleted"] == (6 if writes else 0)
            writes.append(text)
            run.check(ok, f"write {record.index}: HTTP {record.status}")
        else:
            ok = record.status == 200 and (
                digest_json_results(json.loads(record.body)) == oracle.read(text)
            )
            run.check(ok, f"read {record.index} ({record.kind}): HTTP {record.status}")
    final_ok = status == 200 and (
        digest_json_results(json.loads(body)) == oracle.final_state(writes)
    )
    run.check(final_ok, "final state differs from the oracle's")
    return server, records


def serve_mixed(args, workdir: Path, run: Run) -> dict | None:
    text = gen.serve_mixed()
    data = workdir / "data.nt"
    data.write_text(text)
    oracle = ServeOracle(text)
    ops = gen.serve_ops(args.seed, SERVE_MAX_OPS)
    probe = SpeedProbe()
    seconds = args.seconds / 2 if args.trace else args.seconds

    setups = []
    if not args.trace:
        for attempt in range(SETUPS["serve-mixed"] - 1):
            server = serve.start_server(data, workdir / f"wal-setup{attempt}", probe)
            setups.append(server)
            code = server.stop()
            run.check(code == 0, f"server exit code {code}")
    wal = workdir / "wal"
    server, records = serve_phase(run, data, wal, ops, oracle, seconds, probe)
    setups.append(server)
    run.values["peak_rss_mb"] = peak_child_rss_mb()

    def scaled(record) -> float:
        return record.latency * speed_scale(probe.samples, record.sent)

    reads = [(r.kind, scaled(r)) for r in records if r.kind != "write"]
    write_ms = [scaled(r) * 1e3 for r in records if r.kind == "write"]
    wal_bytes = sum(p.stat().st_size for p in wal_files(wal))
    # the first write only inserts; each later one inserts and deletes
    triples_written = max(12 * len(write_ms) - 6, 1)
    if not args.trace:
        note_scale(run, probe.samples)
        run.values["setup_s"] = statistics.median(
            s.setup_s * speed_scale(probe.samples, s.started + s.setup_s / 2)
            for s in setups
        )
        read_summary(run, reads)
        if write_ms:
            run.notes.append(
                f"writes: {len(write_ms)}, write_ms p50 {statistics.median(write_ms):.2f}"
                f" p99 {percentile(write_ms, 99):.2f},"
                f" WAL {wal_bytes / triples_written:.1f} bytes/triple"
                " (durability flush)"
            )
        return None
    spans = workdir / "spans.json"
    traced_wal = workdir / "wal-traced"
    _, traced_records = serve_phase(
        run, data, traced_wal, ops, oracle, seconds, probe, spans
    )
    note_scale(run, probe.samples)
    traced_reads = [r for r in traced_records if r.kind != "write"]
    dump = json.loads(spans.read_text())
    dump["spans"] = drop_last_request(dump["spans"], "server.read")
    return {
        "dump": dump,
        "reads": len(traced_reads),
        "writes": sum(1 for r in traced_records if r.kind == "write"),
        "overhead_ms": (
            statistics.median(scaled(r) for r in traced_reads)
            - statistics.median(latency for _, latency in reads)
        ) * 1e3,
        "client_ms_per_read": statistics.fmean(r.latency for r in traced_reads) * 1e3,
        "write_ms": write_ms,
        "wal_bytes_per_triple": wal_bytes / triples_written,
        "traced_wal": traced_wal,
    }


def wal_files(wal: Path) -> list[Path]:
    return [p for p in wal.glob("wal-*.seg") if p.is_file()]


def drop_last_request(spans: list[list], root: str) -> list[list]:
    """Drop the final-state read-back (the last ``root`` request) from the
    per-read averages."""
    last = max((s for s in spans if s[1] == root and not s[4]),
               key=lambda s: s[2], default=None)
    if last is None:
        return spans
    return [s for s in spans if s[5] != last[5]]


# ------------------------------------------------------------- layer table


def per_layer(run: Run, traced: dict) -> None:
    dump = traced["dump"]
    table = layer_times(dump["spans"])
    notes = dump["notes"]

    def get(kind: str, name: str, field: str = "total") -> float:
        return table.get(f"{kind}:{name}", {}).get(field, 0.0)

    reads = max(traced["reads"], 1)
    writes = max(traced["writes"], 1)
    v = run.values
    v["rdf.ntriples.parse_s"] = get("setup", "rdf.ntriples.parse")
    v["core.coloring.color_s"] = get("setup", "core.coloring.color")
    v["core.coloring.columns_direct"], v["core.coloring.columns_reverse"] = notes["columns"]
    v["core.loader.bulk_load_self_s"] = get("setup", "core.loader.bulk_load", "self")
    v["backends.insert_many_s"] = get("setup", "backends.insert_many")
    v["core.loader.spill_rows"] = notes["spill_rows"]
    v["core.loader.multivalued_predicates"] = notes["multivalued"]
    v["backends.execute_ms_per_read"] = get("read", "backends.execute") / reads * 1e3
    v["backends.rows_out_per_read"] = get("read", "backends.execute", "count") / reads
    v["sparql.engine.decode_ms_per_read"] = (
        get("read", "sparql.engine.query", "self") / reads * 1e3
    )
    lookups = get("read", "core.querycache.lookup", "calls")
    v["core.querycache.hit_rate"] = (
        get("read", "core.querycache.lookup", "count") / lookups if lookups else 0.0
    )
    v["core.querycache.invalidations"] = dump["invalidations"]
    v["sparql.parser.ms_per_read"] = get("read", "sparql.parser") / reads * 1e3
    v["sparql.optimizer.ms_per_read"] = get("read", "sparql.optimizer") / reads * 1e3
    v["sparql.translator.ms_per_read"] = get("read", "sparql.translator") / reads * 1e3
    v["relational.render.ms_per_read"] = get("read", "relational.render") / reads * 1e3
    v["update.parser.ms_per_write"] = get("write", "update.parser") / writes * 1e3
    v["update.apply.self_ms_per_write"] = get("write", "update.apply", "self") / writes * 1e3
    loader_calls = get("write", "core.loader.insert_triple", "calls") + get(
        "write", "core.loader.delete_triple", "calls"
    )
    loader_self = get("write", "core.loader.insert_triple", "self") + get(
        "write", "core.loader.delete_triple", "self"
    )
    v["core.loader.insert_ms_per_triple"] = (
        loader_self / loader_calls * 1e3 if loader_calls else 0.0
    )
    v["backends.execute_ms_per_write"] = get("write", "backends.execute") / writes * 1e3
    v["update.transaction.commit_ms"] = (
        get("write", "update.transaction.commit") / writes * 1e3
    )
    v["update.wal.append_ms"] = get("write", "update.wal.append") / writes * 1e3
    traced_wal = traced.get("traced_wal")
    if traced_wal is not None:
        files = wal_files(traced_wal)
        v["update.wal.bytes_per_commit"] = sum(p.stat().st_size for p in files) / writes
        v["update.wal.segments"] = len(files)
    else:
        v["update.wal.bytes_per_commit"] = v["update.wal.segments"] = 0
    v["core.concurrency.snapshot_ms"] = get("read", "core.concurrency.snapshot") / reads * 1e3
    v["sparql.results.serialize_ms_per_read"] = (
        get("read", "sparql.results.serialize") / reads * 1e3
    )
    server_ms = get("read", "server.read") / reads * 1e3
    v["server.self_ms_per_read"] = (
        traced["client_ms_per_read"] - server_ms if server_ms else 0.0
    )
    write_ms = traced.get("write_ms")
    v["write_ms.p50"] = statistics.median(write_ms) if write_ms else 0.0
    v["write_ms.p99"] = percentile(write_ms, 99) if write_ms else 0.0
    v["wal_bytes_per_triple"] = traced.get("wal_bytes_per_triple", 0.0)
    v["tracing.overhead_read_ms.p50"] = traced["overhead_ms"]


# -------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["lubm-warm", "dbpedia-cold", "serve-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an error, so the finally blocks stop the servers
    # and remove the run's files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    # One core for the store, its client and the speed probes: the probes
    # then time the core that does the work, and nothing migrates.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    meta = {"workload": args.workload, "seed": args.seed, "cpu": min(cpus),
            "calibration_s": calibration_seconds(), "nproc": len(cpus),
            "python": sys.version.split()[0]}
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    run = Run()
    started = time.perf_counter()
    try:
        if args.workload == "serve-mixed":
            traced = serve_mixed(args, workdir, run)
        else:
            traced = closed_loop(args, workdir, run)
        if traced is not None:
            per_layer(run, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["wall_s"] = time.perf_counter() - started
    names = PER_LAYER if args.trace else END_TO_END
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{run.attempted} operations checked, {run.failed} failed "
          f"(error_rate {run.failed / max(run.attempted, 1):.4f})")
    for note in run.notes:
        print(f"#   {note}")
    for name, unit in names:
        print(f"{name:40s} {run.values[name]:14.4f} {unit}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.values[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
