"""Execution guardrails, retries, and deterministic fault injection.

Production stores bound runaway queries and survive crashes at arbitrary
points; this module gives the reproduction both properties and — just as
importantly — the machinery to *prove* them:

* **Guardrails.** A :class:`Budget` carries a per-query wall-clock
  deadline plus output-row and intermediate-row ceilings. It is threaded
  cooperatively through the minirel operator pipelines (every operator
  ``next()`` ticks it) and enforced on sqlite through
  ``set_progress_handler``. Trips raise :class:`QueryTimeoutError` /
  :class:`BudgetExceededError`, both under
  :class:`~repro.core.errors.StoreError`; ``QueryTimeoutError`` also
  subclasses the relational :class:`~repro.relational.errors.QueryTimeout`
  so the paper's timeout classification keeps working unchanged.
* **Retries + circuit breaking.** :class:`ResilientBackend` wraps any
  backend with a seeded-jitter exponential-backoff :class:`RetryPolicy`
  for :class:`TransientFaultError` and a per-backend
  :class:`CircuitBreaker` that fails fast with :class:`CircuitOpenError`
  (carrying breaker state) instead of hammering a sick backend.
* **Deterministic fault injection.** A :class:`FaultPlan` is a seeded
  schedule of :class:`Fault` rules — fail the Nth ``insert_many``, raise
  on ``fsync``, kill (or tear) WAL record K, fill the disk, lose the
  unsynced suffix of a record at power loss — and :class:`ChaosBackend`
  implements the backend interface while consulting the plan before every
  delegated operation. The crash-matrix test in
  ``tests/update/test_crash_matrix.py`` drives these through every step
  boundary of commit and WAL append, the disk-fault matrix in
  ``tests/update/test_disk_faults.py`` adds torn writes, bit flips,
  partial fsync, ENOSPC and rename-step crashes, and both assert recovery
  always lands on exactly the pre- or post-transaction state.

The relational substrate never imports this module: a :class:`Budget` is
handed down duck-typed (like tracing spans) and raises its own typed
errors from inside the executor's :class:`~repro.relational.executor.
Ticker`.
"""

from __future__ import annotations

import errno
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..backends.base import Backend
from ..relational import ast
from ..relational.errors import QueryTimeout
from ..relational.types import ColumnType
from .errors import StoreError

# --------------------------------------------------------------------- errors


class GuardrailError(StoreError):
    """Base class for guardrail trips (timeouts and budget ceilings)."""


class QueryTimeoutError(GuardrailError, QueryTimeout):
    """The query's wall-clock deadline expired.

    Also a :class:`~repro.relational.errors.QueryTimeout`, so existing
    harness code that classifies timeouts keeps catching it.
    """


class BudgetExceededError(GuardrailError):
    """A row budget (output or intermediate) was exceeded."""

    def __init__(self, message: str, limit: int | None = None) -> None:
        super().__init__(message)
        self.limit = limit


class TransientFaultError(StoreError):
    """A retryable backend failure (injected by :class:`ChaosBackend`)."""


class CircuitOpenError(StoreError):
    """The per-backend circuit breaker is open: failing fast, not hanging."""

    def __init__(self, message: str, state: str, failures: int) -> None:
        super().__init__(message)
        self.state = state
        self.failures = failures


class SimulatedCrash(Exception):
    """Process death, simulated. Deliberately *not* a StoreError: nothing
    in the store may catch-and-continue past it — the test harness catches
    it, discards the store, and recovers from durable state alone."""


# --------------------------------------------------------------------- budget


class Budget:
    """Cooperative per-query execution guardrails.

    ``timeout`` is seconds of wall clock from construction;
    ``max_rows`` bounds the final result set; ``max_intermediate_rows``
    bounds total operator work (every row an operator produces or probes
    counts one tick). All three are optional and independent.

    The minirel executor ticks the budget from every operator loop; the
    sqlite backend maps the deadline onto its progress handler and counts
    handler firings (one per ~:data:`~repro.backends.sqlite.SqliteBackend.
    PROGRESS_OPS_BUDGET` VM instructions) against the intermediate
    ceiling — a work proxy, documented as best-effort.
    """

    __slots__ = (
        "timeout",
        "deadline",
        "max_rows",
        "max_intermediate_rows",
        "ticks",
        "tripped",
    )

    def __init__(
        self,
        timeout: float | None = None,
        max_rows: int | None = None,
        max_intermediate_rows: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.timeout = timeout
        self.deadline = clock() + timeout if timeout is not None else None
        self.max_rows = max_rows
        self.max_intermediate_rows = max_intermediate_rows
        #: intermediate rows ticked so far (minirel) / work units (sqlite)
        self.ticks = 0
        #: which guardrail tripped: None | "timeout" | "intermediate" | "rows"
        self.tripped: str | None = None

    def trip(self, reason: str) -> None:
        """Record a trip and raise the matching typed error."""
        self.tripped = reason
        if reason == "timeout":
            raise QueryTimeoutError(
                f"query exceeded its {self.timeout}s timeout"
            )
        if reason == "intermediate":
            raise BudgetExceededError(
                f"query exceeded max_intermediate_rows="
                f"{self.max_intermediate_rows}",
                limit=self.max_intermediate_rows,
            )
        raise BudgetExceededError(
            f"query exceeded max_rows={self.max_rows}", limit=self.max_rows
        )

    def raise_tripped(self, cause: BaseException | None = None) -> None:
        """Re-raise the recorded trip (set by the sqlite progress handler,
        which can only return an abort flag, not raise)."""
        reason = self.tripped or "timeout"
        try:
            self.trip(reason)
        except GuardrailError as exc:
            raise exc from cause

    def enforce_output(self, count: int) -> None:
        """Check the final result size against ``max_rows``."""
        if self.max_rows is not None and count > self.max_rows:
            self.trip("rows")

    def __repr__(self) -> str:
        return (
            f"Budget(timeout={self.timeout}, max_rows={self.max_rows}, "
            f"max_intermediate_rows={self.max_intermediate_rows}, "
            f"ticks={self.ticks}, tripped={self.tripped})"
        )


# ------------------------------------------------------- retries and breaking


class RetryPolicy:
    """Seeded-jitter exponential backoff for transient backend faults.

    Attempt ``n`` (0-based) sleeps ``min(max_delay, base_delay * 2**n)``
    scaled by a jitter factor in ``[0.5, 1.0)`` drawn from a seeded RNG,
    so a schedule is fully reproducible from its seed. ``sleep`` is
    injectable for tests.
    """

    def __init__(
        self,
        attempts: int = 3,
        base_delay: float = 0.01,
        max_delay: float = 1.0,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.seed = seed
        self.sleep = sleep
        self._rng = random.Random(seed)

    def delays(self) -> Iterator[float]:
        """The backoff schedule: one delay per retry (attempts - 1 total)."""
        for attempt in range(self.attempts - 1):
            base = min(self.max_delay, self.base_delay * (2**attempt))
            yield base * (0.5 + self._rng.random() / 2)


class CircuitBreaker:
    """Consecutive-failure circuit breaker: closed → open → half-open.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, calls are refused until ``reset_timeout`` seconds pass, after
    which one probe is allowed (half-open). A probe success closes the
    circuit; a probe failure re-opens it immediately.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self.state = "closed"  # closed | open | half-open
        self.failures = 0
        self.opened_at: float | None = None

    def allow(self) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open":
            assert self.opened_at is not None
            if self._clock() - self.opened_at >= self.reset_timeout:
                self.state = "half-open"
                return True
            return False
        return True  # half-open: the single probe is in flight

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0
        self.opened_at = None

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half-open" or self.failures >= self.failure_threshold:
            self.state = "open"
            self.opened_at = self._clock()


class ResilientBackend(Backend):
    """A backend wrapper: retry transient faults, break circuits.

    Only :class:`TransientFaultError` is retried — real errors (syntax,
    guardrail trips, :class:`SimulatedCrash`) propagate untouched. Every
    underlying failure feeds the breaker; once it opens, calls fail fast
    with :class:`CircuitOpenError` carrying the breaker state instead of
    hanging on a sick backend. ``metrics`` counts retries, faults seen,
    breaker opens, and short-circuited calls; the profiled path also
    reports per-query retries as span counters.
    """

    def __init__(
        self,
        inner: Backend,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.inner = inner
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.name = f"resilient({inner.name})"
        self.metrics: dict[str, int] = {
            "retries": 0,
            "faults": 0,
            "breaker_opens": 0,
            "short_circuits": 0,
        }

    # ------------------------------------------------------------ machinery

    def _guarded(self, op: str, call: Callable[[], Any]) -> Any:
        breaker = self.breaker
        if not breaker.allow():
            self.metrics["short_circuits"] += 1
            raise CircuitOpenError(
                f"circuit open for backend {self.inner.name!r}: refusing "
                f"{op} after {breaker.failures} consecutive faults",
                state=breaker.state,
                failures=breaker.failures,
            )
        delays = self.retry.delays()
        while True:
            try:
                result = call()
            except TransientFaultError as exc:
                self.metrics["faults"] += 1
                breaker.record_failure()
                if breaker.state == "open":
                    self.metrics["breaker_opens"] += 1
                    raise CircuitOpenError(
                        f"circuit opened for backend {self.inner.name!r} "
                        f"during {op} after {breaker.failures} consecutive "
                        f"faults: {exc}",
                        state=breaker.state,
                        failures=breaker.failures,
                    ) from exc
                try:
                    delay = next(delays)
                except StopIteration:
                    raise exc from None
                self.metrics["retries"] += 1
                if delay > 0:
                    self.retry.sleep(delay)
            else:
                breaker.record_success()
                return result

    # ----------------------------------------------------- backend protocol

    def create_table(
        self,
        table_name: str,
        columns: Sequence[tuple[str, ColumnType]],
        if_not_exists: bool = False,
    ) -> None:
        self._guarded(
            "create_table",
            lambda: self.inner.create_table(table_name, columns, if_not_exists),
        )

    def create_index(
        self, index_name: str, table_name: str, columns: Sequence[str]
    ) -> None:
        self._guarded(
            "create_index",
            lambda: self.inner.create_index(index_name, table_name, columns),
        )

    def insert_many(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        # Materialize once so a retried call re-sends identical rows.
        materialized = rows if isinstance(rows, list) else list(rows)
        return self._guarded(
            "insert_many", lambda: self.inner.insert_many(table_name, materialized)
        )

    def execute(
        self,
        statement: ast.Statement | str,
        timeout: float | None = None,
        budget: Any = None,
        snapshot: Any = None,
        tracer: Any = None,
    ) -> tuple[list[str], list[tuple]]:
        def call() -> tuple[list[str], list[tuple]]:
            return self.inner.execute(
                statement,
                timeout=timeout,
                budget=budget,
                snapshot=snapshot,
                tracer=tracer,
            )

        if tracer is None:
            return self._guarded("execute", call)
        before = self.metrics["retries"]
        with tracer.span("resilient", backend=self.inner.name) as span:
            result = self._guarded("execute", call)
            span.set("retries", self.metrics["retries"] - before)
            span.set("breaker", self.breaker.state)
        return result

    def table_names(self) -> list[str]:
        return self.inner.table_names()

    def row_count(self, table_name: str) -> int:
        return self.inner.row_count(table_name)

    def sql_text(self, statement: ast.Statement) -> str:
        return self.inner.sql_text(statement)

    # Write brackets and snapshots delegate explicitly: the Backend base
    # class has (no-op) defaults for these, so ``__getattr__`` would never
    # fire and the inner backend's MVCC machinery would be silently skipped.

    @property
    def supports_snapshots(self) -> bool:  # type: ignore[override]
        return self.inner.supports_snapshots

    def begin_write(self) -> None:
        self.inner.begin_write()

    def commit_write(self) -> None:
        self.inner.commit_write()

    def abort_write(self) -> None:
        self.inner.abort_write()

    def open_snapshot(self) -> Any:
        return self.inner.open_snapshot()

    def __getattr__(self, attr: str) -> Any:
        # Backend extras (explain_query_plan, connection, db) pass through.
        return getattr(self.inner, attr)


# ------------------------------------------------------------ fault injection


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``op`` names a backend operation (``"execute"``, ``"insert_many"``,
    ``"create_table"``, ``"create_index"``, or ``"any"`` to count every
    operation) or a WAL step — the append steps ``"append.start"`` /
    ``"append.write"`` / ``"append.flush"`` / ``"append.fsync"``, the
    rotation step ``"rotate.seal"``, and the
    checkpoint/compaction steps ``"checkpoint.write"`` /
    ``"checkpoint.sync"`` / ``"checkpoint.rename"`` /
    ``"manifest.write"`` / ``"manifest.rename"`` / ``"compact.unlink"``.
    ``at`` is the 1-based occurrence of that op at which the fault fires.

    ``kind`` selects what happens:

    * ``"transient"`` — retryable :class:`TransientFaultError`;
    * ``"crash"`` — :class:`SimulatedCrash` (process death);
    * ``"enospc"`` — ``OSError(ENOSPC)``, the disk filling up mid-write;
      the journal reacts by truncating the partial record and raising
      :class:`~repro.update.errors.WalWriteError`, which the transaction
      unwinds — the process survives.

    ``torn_bytes`` applies to ``append.write`` crashes: that many bytes
    of the record are written before the process dies, modelling a torn
    journal tail. ``durable_bytes`` applies to ``append.fsync`` crashes:
    the file is truncated back to that many bytes past the record's start
    offset before dying, modelling a *partial fsync* — the OS accepted
    the whole write but only a prefix reached stable storage when power
    was lost.
    """

    op: str
    at: int
    kind: str = "transient"
    torn_bytes: int | None = None
    durable_bytes: int | None = None


class FaultPlan:
    """A deterministic schedule of faults, keyed by (op, occurrence).

    The plan is consulted by :class:`ChaosBackend` for backend operations
    and by :meth:`wal_hook` for WAL append steps; ``fired`` records every
    fault actually raised, in order, for assertions.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._by_op: dict[str, dict[int, Fault]] = {}
        for fault in faults:
            self._by_op.setdefault(fault.op, {})[fault.at] = fault
        self.fired: list[Fault] = []

    def match(self, op: str, op_count: int, total_count: int) -> Fault | None:
        fault = self._by_op.get(op, {}).get(op_count)
        if fault is None:
            fault = self._by_op.get("any", {}).get(total_count)
        return fault

    def fire(self, fault: Fault, where: str) -> None:
        """Raise ``fault``; called once the schedule matched."""
        self.fired.append(fault)
        if fault.kind == "crash":
            raise SimulatedCrash(f"injected crash at {where}")
        if fault.kind == "enospc":
            raise OSError(
                errno.ENOSPC, f"injected disk-full fault at {where}"
            )
        raise TransientFaultError(f"injected transient fault at {where}")

    @classmethod
    def random(
        cls,
        seed: int,
        ops: Sequence[str] = ("execute", "insert_many"),
        horizon: int = 300,
        rate: float = 0.15,
        max_consecutive: int = 2,
        kind: str = "transient",
    ) -> "FaultPlan":
        """A seeded random schedule: each of the first ``horizon``
        occurrences of each op faults with probability ``rate``, with at
        most ``max_consecutive`` faulted occurrences in a row (so a retry
        policy with ``attempts > max_consecutive`` always gets through).
        """
        rng = random.Random(seed)
        faults: list[Fault] = []
        for op in ops:
            run = 0
            for at in range(1, horizon + 1):
                if run < max_consecutive and rng.random() < rate:
                    faults.append(Fault(op=op, at=at, kind=kind))
                    run += 1
                else:
                    run = 0
        return cls(faults)

    def wal_hook(self) -> Callable[[str, dict], None]:
        """A :class:`~repro.update.wal.WriteAheadLog` fault hook driven by
        this plan: counts journal steps (append, rotation, checkpoint,
        manifest, compaction) and fires matching faults. A ``torn_bytes``
        crash on ``append.write`` writes that prefix of the record (and
        flushes it) before dying, leaving a torn tail. A ``durable_bytes``
        crash on ``append.fsync`` truncates the file so only that prefix
        of the record survives — a partial fsync at power loss."""
        counts: Counter[str] = Counter()

        def hook(step: str, payload: dict) -> None:
            counts[step] += 1
            counts["any"] += 1
            fault = self.match(step, counts[step], counts["any"])
            if fault is None:
                return
            if (
                fault.kind == "crash"
                and fault.torn_bytes is not None
                and step == "append.write"
            ):
                payload["handle"].write(payload["data"][: fault.torn_bytes])
                payload["handle"].flush()
            if (
                fault.kind == "crash"
                and fault.durable_bytes is not None
                and step == "append.fsync"
            ):
                handle = payload["handle"]
                handle.flush()
                os.ftruncate(
                    handle.fileno(), payload["offset"] + fault.durable_bytes
                )
            self.fire(fault, f"wal {step} #{counts[step]}")

        return hook


class ChaosBackend(Backend):
    """A backend wrapper that injects scheduled faults before delegating.

    Counts operations (only while armed, so store construction and bulk
    load stay fault-free by default) and consults the :class:`FaultPlan`
    before every delegated call. Implements the full backend interface,
    so any store runs over it unchanged; compose under
    :class:`ResilientBackend` to exercise the retry path.
    """

    def __init__(
        self, inner: Backend, plan: FaultPlan | None = None, armed: bool = False
    ) -> None:
        self.inner = inner
        self.plan = plan if plan is not None else FaultPlan()
        self.armed = armed
        self.op_counts: Counter[str] = Counter()
        self.total_ops = 0
        self.name = f"chaos({inner.name})"

    def arm(self) -> None:
        """Start counting operations and injecting faults."""
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def _step(self, op: str) -> None:
        if not self.armed:
            return
        self.op_counts[op] += 1
        self.total_ops += 1
        fault = self.plan.match(op, self.op_counts[op], self.total_ops)
        if fault is not None:
            self.plan.fire(
                fault, f"{self.inner.name}.{op} #{self.op_counts[op]}"
            )

    # ----------------------------------------------------- backend protocol

    def create_table(
        self,
        table_name: str,
        columns: Sequence[tuple[str, ColumnType]],
        if_not_exists: bool = False,
    ) -> None:
        self._step("create_table")
        self.inner.create_table(table_name, columns, if_not_exists)

    def create_index(
        self, index_name: str, table_name: str, columns: Sequence[str]
    ) -> None:
        self._step("create_index")
        self.inner.create_index(index_name, table_name, columns)

    def insert_many(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        self._step("insert_many")
        return self.inner.insert_many(table_name, rows)

    def execute(
        self,
        statement: ast.Statement | str,
        timeout: float | None = None,
        budget: Any = None,
        snapshot: Any = None,
        tracer: Any = None,
    ) -> tuple[list[str], list[tuple]]:
        self._step("execute")
        return self.inner.execute(
            statement,
            timeout=timeout,
            budget=budget,
            snapshot=snapshot,
            tracer=tracer,
        )

    def table_names(self) -> list[str]:
        return self.inner.table_names()

    def row_count(self, table_name: str) -> int:
        return self.inner.row_count(table_name)

    def sql_text(self, statement: ast.Statement) -> str:
        return self.inner.sql_text(statement)

    # Uncounted pass-throughs (Backend has defaults, so __getattr__ would
    # not fire): brackets and snapshots are not fault-injection points —
    # keeping them out of the op count preserves the numbering every
    # recorded crash-matrix scenario depends on.

    @property
    def supports_snapshots(self) -> bool:  # type: ignore[override]
        return self.inner.supports_snapshots

    def begin_write(self) -> None:
        self.inner.begin_write()

    def commit_write(self) -> None:
        self.inner.commit_write()

    def abort_write(self) -> None:
        self.inner.abort_write()

    def open_snapshot(self) -> Any:
        return self.inner.open_snapshot()

    def __getattr__(self, attr: str) -> Any:
        return getattr(self.inner, attr)
