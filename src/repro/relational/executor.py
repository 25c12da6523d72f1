"""Execution primitives shared by the batched operators in :mod:`batch`.

:class:`Ticker` is the cooperative guardrail every operator loop threads,
so long queries abort on their deadline or row budget (how the benchmark
harness reproduces the paper's timeout classification).
:func:`nested_loop_join` is the rare non-equi join, run row by row and
re-chunked by :func:`batch.nested_loop_join_batches`; :class:`AggregateState`
accumulates one aggregate call within one group.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Iterator

from .dictionary import EncodedString
from .errors import QueryTimeout
from .expressions import Evaluator

Row = tuple


class Ticker:
    """Cooperative guardrails: cheap counters, occasional clock check.

    ``budget`` is duck-typed (``repro.core.resilience.Budget`` or None):
    every tick counts one intermediate row against
    ``budget.max_intermediate_rows``, and deadline expiry defers to
    ``budget.trip("timeout")`` so the store-level typed error is raised.
    With no budget and no deadline a tick is a single None check — the
    guardrails-off hot path stays untouched.
    """

    CHECK_EVERY = 4096

    def __init__(self, deadline: float | None, budget: Any = None) -> None:
        if deadline is None and budget is not None:
            deadline = budget.deadline
        self.deadline = deadline
        self.budget = budget
        #: False when nothing is guarded: tick() returns on one check, the
        #: same cost as the pre-guardrail deadline-only fast path
        self.active = deadline is not None or budget is not None
        self._count = 0

    def tick(self) -> None:
        if not self.active:
            return
        budget = self.budget
        if budget is not None:
            budget.ticks += 1
            cap = budget.max_intermediate_rows
            if cap is not None and budget.ticks > cap:
                budget.trip("intermediate")
        if self.deadline is None:
            return
        self._count += 1
        if self._count >= self.CHECK_EVERY:
            self._count = 0
            if time.monotonic() > self.deadline:
                if budget is not None:
                    budget.trip("timeout")
                raise QueryTimeout("query exceeded its deadline")

    def tick_batch(self, count: int) -> None:
        """Account ``count`` logical rows at once (one call per chunk,
        equal to ``count`` calls of :meth:`tick`).

        Row budgets count *rows inside the batch*, not batches: a 1-row
        ``max_intermediate_rows`` budget trips on the first chunk of a
        larger scan, whatever the batch size."""
        if not self.active or count <= 0:
            return
        budget = self.budget
        if budget is not None:
            budget.ticks += count
            cap = budget.max_intermediate_rows
            if cap is not None and budget.ticks > cap:
                budget.trip("intermediate")
        if self.deadline is None:
            return
        self._count += count
        if self._count >= self.CHECK_EVERY:
            self._count = 0
            if time.monotonic() > self.deadline:
                if budget is not None:
                    budget.trip("timeout")
                raise QueryTimeout("query exceeded its deadline")


def nested_loop_join(
    left_rows: Iterable[Row],
    right_rows_factory: Callable[[], Iterable[Row]],
    right_width: int,
    condition: Evaluator | None,
    outer: bool,
    ticker: Ticker,
) -> Iterator[Row]:
    """Fallback join for non-equi conditions; right side re-iterated per row."""
    materialized_right: list[Row] | None = None
    null_pad = (None,) * right_width
    for left_row in left_rows:
        ticker.tick()
        if materialized_right is None:
            materialized_right = list(right_rows_factory())
        matched = False
        for right_row in materialized_right:
            ticker.tick()
            combined = left_row + right_row
            if condition is None or condition(combined) is True:
                matched = True
                yield combined
        if outer and not matched:
            yield left_row + null_pad


class AggregateState:
    """Accumulator for one aggregate call within one group."""

    __slots__ = ("func", "distinct", "count", "total", "minimum", "maximum", "seen")

    def __init__(self, func: str, distinct: bool) -> None:
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None
        self.seen: set | None = set() if distinct else None

    def add(self, value: Any) -> None:
        if self.func == "COUNT" and value is _COUNT_STAR:
            self.count += 1
            return
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.func in ("SUM", "AVG"):
            if isinstance(value, EncodedString):
                value = value.lexicon[value]
            numeric = float(value) if not isinstance(value, (int, float)) else value
            self.total = numeric if self.total is None else self.total + numeric
        elif self.func == "MIN":
            from .types import compare

            if self.minimum is None or compare(value, self.minimum) == -1:
                self.minimum = value
        elif self.func == "MAX":
            from .types import compare

            if self.maximum is None or compare(value, self.maximum) == 1:
                self.maximum = value

    def result(self) -> Any:
        if self.func == "COUNT":
            return self.count
        if self.func == "SUM":
            return self.total
        if self.func == "AVG":
            return None if self.total is None else self.total / self.count
        if self.func == "MIN":
            return self.minimum
        if self.func == "MAX":
            return self.maximum
        raise AssertionError(f"unknown aggregate {self.func}")


class _CountStar:
    """Sentinel passed to COUNT(*) accumulators."""


_COUNT_STAR = _CountStar()


def count_star_sentinel() -> Any:
    return _COUNT_STAR
