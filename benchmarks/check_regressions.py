#!/usr/bin/env python3
"""CI regression gate over the machine-readable smoke-benchmark metrics.

Reads ``benchmarks/out/results.json`` (written by the benches through
``conftest.record_metric``) and fails when a headline number regresses:

* ``warm_compile_speedup`` — a warm plan-cache hit must still beat a cold
  compile by at least 10× (PR 1 measured ~38×).
* ``profile_off_overhead`` — the tracing subsystem must stay free when
  disabled: under 5% over the hand-inlined pre-instrumentation pipeline.
* ``update_warm_cache_retention`` — queries interleaved inside one write
  transaction must keep hitting the warm plan cache (group commit bumps
  the epoch once); the floor is 90% and the measure is deterministic.
* ``guardrails_off_overhead`` — the execution guardrails (deadline / row
  budgets) must stay free when unset: under 3% over the hand-inlined
  pre-guardrail pipeline.
* ``snapshot_off_overhead`` — the MVCC plumbing (version-aware scans,
  writer-lock fields, epoch-keyed cache probes) must stay free while no
  snapshot is open: under 3% over the hand-inlined pre-MVCC pipeline.
* ``serve_p50_ms`` — the SPARQL protocol endpoint's median request
  latency under concurrent clients stays below a generous ceiling (the
  smoke run is tiny; this catches order-of-magnitude regressions like an
  accidental serialize() per request, not percentage drift).
* ``star_exec_cal`` — the vectorized executor's star micro-bench exec
  time (geomean, calibration units; see ``bench_batch.py``) must stay at
  or below a fifth of the retired tuple-at-a-time executor's, pinned in
  ``PINNED_SCALAR_STAR_EXEC_CAL``: whole-chunk filter kernels and
  columnar projection carry the win (measured ~6×).
* ``chain_exec_cal`` — multi-hop chain queries are hash-probe bound
  (one dict lookup per left row is inherently scalar work), so their
  ceiling is far lower than stars: exec time must stay at or below the
  pinned scalar time over 1.5 (measured ~2.4×). A miss means batching
  regressed on probe-heavy plans, not that the star target moved.
* ``lubm_exec_cal`` — the 12 LUBM queries over LUBM(2) (geomean exec
  time, calibration units; see ``bench_batch.py``) must stay at or below
  the time measured before execution reused compiled kernels and scopes
  and projected DB2RDF ``CASE`` selectors through id kernels, pinned in
  ``PINNED_REPLAN_LUBM_EXEC_CAL``, over 1.4 (measured ~1.8×). A miss
  means per-execution planning or a per-row fallback crept back into
  the translator's hot SQL shapes.
* ``plan_regret_geomean`` — the cost-based join orderer's chosen plans
  must stay within 1.3× (geomean) of the best enumerated alternative's
  measured work on the plan battery, counted in deterministic
  intermediate-row ticks (measured ~1.0×; the meter cannot flake on
  CI load because it counts rows, not seconds).
* ``interned_build_cal`` — store build with every TEXT value interned
  (calibration units) must cost at most 10% over the retired
  plain-string build, pinned in ``PINNED_PLAIN_BUILD_CAL`` (the encode
  path is fused into the per-cell column op; measured ~-10-0%).
* ``wal_flush_overhead`` — the default ``flush`` durability level
  (unbuffered framed writes, crash-safe against process death) must
  cost at most 5% over ``durability=none`` on batched commits; the
  bench takes best-of-three per mode to cancel machine drift.

The star, chain and build baselines were measured at the last commit
that still had the tuple-at-a-time executor and the plain-string mode:
the median of 12 runs of the same calibrated measurement
``bench_batch.py`` makes, at its fixed sizes (20k star triples, 4k chain
entities). The LUBM baseline is the median of three ``bench_batch.py``
gate values (each itself a median of 10 runs) at the last commit that
re-planned every execution from scratch.

Stdlib only; exits nonzero with one line per failure.
"""

from __future__ import annotations

import json
import pathlib

MIN_WARM_COMPILE_SPEEDUP = 10.0
MAX_PROFILE_OFF_OVERHEAD = 0.05
MIN_UPDATE_CACHE_RETENTION = 0.9
MAX_GUARDRAILS_OFF_OVERHEAD = 0.03
MAX_SNAPSHOT_OFF_OVERHEAD = 0.03
MAX_SERVE_P50_MS = 150.0
#: tuple-at-a-time star / chain exec and plain-string store build,
#: in calibration units (see the module docstring)
PINNED_SCALAR_STAR_EXEC_CAL = 0.812
PINNED_SCALAR_CHAIN_EXEC_CAL = 0.888
PINNED_PLAIN_BUILD_CAL = 40.8
#: LUBM(2) exec before plan-time reuse and CASE kernels, calibration units
PINNED_REPLAN_LUBM_EXEC_CAL = 0.218
MIN_STAR_SPEEDUP = 5.0
MIN_CHAIN_SPEEDUP = 1.5
MIN_LUBM_SPEEDUP = 1.4
MAX_INTERNED_BUILD_OVERHEAD = 0.10
MAX_PLAN_REGRET_GEOMEAN = 1.3
MAX_WAL_FLUSH_OVERHEAD = 0.05

RESULTS = pathlib.Path(__file__).parent / "out" / "results.json"


def main() -> int:
    if not RESULTS.exists():
        print(f"regression check: {RESULTS} missing — did the benches run?")
        return 1
    metrics = json.loads(RESULTS.read_text())
    failures: list[str] = []

    speedup = metrics.get("warm_compile_speedup")
    if speedup is None:
        failures.append("warm_compile_speedup was not recorded")
    elif speedup < MIN_WARM_COMPILE_SPEEDUP:
        failures.append(
            f"warm_compile_speedup {speedup:.1f}x < "
            f"{MIN_WARM_COMPILE_SPEEDUP:.0f}x floor"
        )
    else:
        print(f"ok: warm_compile_speedup {speedup:.1f}x "
              f"(floor {MIN_WARM_COMPILE_SPEEDUP:.0f}x)")

    overhead = metrics.get("profile_off_overhead")
    if overhead is None:
        failures.append("profile_off_overhead was not recorded")
    elif overhead > MAX_PROFILE_OFF_OVERHEAD:
        failures.append(
            f"profile_off_overhead {overhead * 100:.1f}% > "
            f"{MAX_PROFILE_OFF_OVERHEAD * 100:.0f}% ceiling"
        )
    else:
        print(f"ok: profile_off_overhead {overhead * 100:.1f}% "
              f"(ceiling {MAX_PROFILE_OFF_OVERHEAD * 100:.0f}%)")

    retention = metrics.get("update_warm_cache_retention")
    if retention is None:
        failures.append("update_warm_cache_retention was not recorded")
    elif retention < MIN_UPDATE_CACHE_RETENTION:
        failures.append(
            f"update_warm_cache_retention {retention * 100:.0f}% < "
            f"{MIN_UPDATE_CACHE_RETENTION * 100:.0f}% floor"
        )
    else:
        print(f"ok: update_warm_cache_retention {retention * 100:.0f}% "
              f"(floor {MIN_UPDATE_CACHE_RETENTION * 100:.0f}%)")

    guard_off = metrics.get("guardrails_off_overhead")
    if guard_off is None:
        failures.append("guardrails_off_overhead was not recorded")
    elif guard_off > MAX_GUARDRAILS_OFF_OVERHEAD:
        failures.append(
            f"guardrails_off_overhead {guard_off * 100:.1f}% > "
            f"{MAX_GUARDRAILS_OFF_OVERHEAD * 100:.0f}% ceiling"
        )
    else:
        print(f"ok: guardrails_off_overhead {guard_off * 100:.1f}% "
              f"(ceiling {MAX_GUARDRAILS_OFF_OVERHEAD * 100:.0f}%)")

    snap_off = metrics.get("snapshot_off_overhead")
    if snap_off is None:
        failures.append("snapshot_off_overhead was not recorded")
    elif snap_off > MAX_SNAPSHOT_OFF_OVERHEAD:
        failures.append(
            f"snapshot_off_overhead {snap_off * 100:.1f}% > "
            f"{MAX_SNAPSHOT_OFF_OVERHEAD * 100:.0f}% ceiling"
        )
    else:
        print(f"ok: snapshot_off_overhead {snap_off * 100:.1f}% "
              f"(ceiling {MAX_SNAPSHOT_OFF_OVERHEAD * 100:.0f}%)")

    serve_p50 = metrics.get("serve_p50_ms")
    if serve_p50 is None:
        failures.append("serve_p50_ms was not recorded")
    elif serve_p50 > MAX_SERVE_P50_MS:
        failures.append(
            f"serve_p50_ms {serve_p50:.1f} ms > "
            f"{MAX_SERVE_P50_MS:.0f} ms ceiling"
        )
    else:
        print(f"ok: serve_p50_ms {serve_p50:.1f} ms "
              f"(ceiling {MAX_SERVE_P50_MS:.0f} ms)")

    for key, ceiling, bound in (
        (
            "star_exec_cal",
            PINNED_SCALAR_STAR_EXEC_CAL / MIN_STAR_SPEEDUP,
            f"pinned scalar / {MIN_STAR_SPEEDUP:.0f}",
        ),
        (
            "chain_exec_cal",
            PINNED_SCALAR_CHAIN_EXEC_CAL / MIN_CHAIN_SPEEDUP,
            f"pinned scalar / {MIN_CHAIN_SPEEDUP:.1f}",
        ),
        (
            "lubm_exec_cal",
            PINNED_REPLAN_LUBM_EXEC_CAL / MIN_LUBM_SPEEDUP,
            f"pinned re-planning / {MIN_LUBM_SPEEDUP:.1f}",
        ),
        (
            "interned_build_cal",
            PINNED_PLAIN_BUILD_CAL * (1 + MAX_INTERNED_BUILD_OVERHEAD),
            f"pinned plain-string x {1 + MAX_INTERNED_BUILD_OVERHEAD:.2f}",
        ),
    ):
        value = metrics.get(key)
        if value is None:
            failures.append(f"{key} was not recorded")
        elif value > ceiling:
            failures.append(
                f"{key} {value:.4g} > {ceiling:.4g} ceiling ({bound})"
            )
        else:
            print(f"ok: {key} {value:.4g} (ceiling {ceiling:.4g}, {bound})")

    flush = metrics.get("wal_flush_overhead")
    if flush is None:
        failures.append("wal_flush_overhead was not recorded")
    elif flush > MAX_WAL_FLUSH_OVERHEAD:
        failures.append(
            f"wal_flush_overhead {flush * 100:.1f}% > "
            f"{MAX_WAL_FLUSH_OVERHEAD * 100:.0f}% ceiling"
        )
    else:
        print(f"ok: wal_flush_overhead {flush * 100:+.1f}% "
              f"(ceiling {MAX_WAL_FLUSH_OVERHEAD * 100:.0f}%)")

    on_overhead = metrics.get("profile_on_overhead")
    if on_overhead is not None:  # informational, not gated
        print(f"info: profile_on_overhead {on_overhead * 100:.1f}%")

    guard_on = metrics.get("guardrails_on_overhead")
    if guard_on is not None:  # informational, not gated
        print(f"info: guardrails_on_overhead {guard_on * 100:.1f}%")

    batched_speedup = metrics.get("update_batched_speedup")
    if batched_speedup is not None:  # informational, not gated
        print(f"info: update_batched_speedup {batched_speedup:.2f}x")

    wal_overhead = metrics.get("update_wal_overhead")
    if wal_overhead is not None:  # informational, not gated
        print(f"info: update_wal_overhead {wal_overhead * 100:+.1f}%")

    snap_on = metrics.get("snapshot_on_overhead")
    if snap_on is not None:  # informational, not gated
        print(f"info: snapshot_on_overhead {snap_on * 100:+.1f}%")

    serve_p99 = metrics.get("serve_p99_ms")
    if serve_p99 is not None:  # informational, not gated
        print(f"info: serve_p99_ms {serve_p99:.1f} ms")

    serve_qps = metrics.get("serve_throughput_qps")
    if serve_qps is not None:  # informational, not gated
        print(f"info: serve_throughput_qps {serve_qps:.0f}")

    regret = metrics.get("plan_regret_geomean")
    if regret is None:
        failures.append("plan_regret_geomean was not recorded")
    elif regret > MAX_PLAN_REGRET_GEOMEAN:
        failures.append(
            f"plan_regret_geomean {regret:.3f}x > "
            f"{MAX_PLAN_REGRET_GEOMEAN:.1f}x ceiling"
        )
    else:
        print(f"ok: plan_regret_geomean {regret:.3f}x "
              f"(ceiling {MAX_PLAN_REGRET_GEOMEAN:.1f}x)")

    regret_max = metrics.get("plan_regret_max")
    if regret_max is not None:  # informational, not gated
        print(f"info: plan_regret_max {regret_max:.3f}x")

    cost_fraction = metrics.get("plan_cost_fraction")
    if cost_fraction is not None:  # informational, not gated
        print(f"info: plan_cost_fraction {cost_fraction * 100:.0f}%")

    best_size = metrics.get("batch_best_size_star")
    if best_size is not None:  # informational, not gated
        print(f"info: batch_best_size_star {best_size}")

    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
