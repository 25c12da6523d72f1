"""Vectorized executor: guardrail and equivalence regressions.

The batched pipeline moves rows in chunks, so the guardrails must count
*logical rows inside batches*, not chunks: a 1-row intermediate budget has
to trip on the first chunk of a larger scan, and it must trip mid-query —
not after the scan completed.
"""

import sqlite3

import pytest

from repro.core.resilience import Budget, BudgetExceededError
from repro.relational.catalog import Database
from repro.relational.types import ColumnType


def build_db(batch_size: int, rows: int = 2_000) -> Database:
    db = Database(batch_size=batch_size)
    db.create_table("t", [("a", ColumnType.TEXT), ("b", ColumnType.INTEGER)])
    db.insert("t", [(f"v{i}", i) for i in range(rows)])
    return db


class TestBudgetCountsLogicalRows:
    def test_one_row_budget_trips_mid_batch(self):
        """A 1-row budget must fail a 2000-row scan on its first chunk."""
        db = build_db(batch_size=256)
        budget = Budget(max_intermediate_rows=1)
        with pytest.raises(BudgetExceededError):
            db.execute("SELECT a, b FROM t", budget=budget)
        assert budget.tripped == "intermediate"
        # Tripped inside the first chunk: the scan must not have been
        # allowed to run to completion before the budget was checked.
        assert budget.ticks <= 256

    @pytest.mark.parametrize("batch_size", [1, 64, 256])
    def test_budget_ticks_match_scalar_pipeline(self, batch_size):
        """Every batch size accounts the logical row count of a
        tuple-at-a-time pipeline: 500 scanned rows plus 500 filtered rows
        (pinned from the retired scalar executor)."""
        db = build_db(batch_size=batch_size, rows=500)
        budget = Budget(max_intermediate_rows=10_000)
        db.execute("SELECT a, b FROM t WHERE b < 100", budget=budget)
        assert budget.ticks == 1000

    def test_large_enough_budget_passes(self):
        db = build_db(batch_size=256, rows=300)
        budget = Budget(max_intermediate_rows=10_000)
        result = db.execute("SELECT a, b FROM t", budget=budget)
        assert len(result.rows) == 300
        assert budget.tripped is None

    def test_budget_trips_inside_join_probe(self):
        """Probe-side work counts too, chunk by chunk."""
        db = build_db(batch_size=256)
        db.create_table("u", [("a", ColumnType.TEXT)])
        db.insert("u", [(f"v{i}",) for i in range(2_000)])
        db.create_index("u_a", "u", ["a"])
        budget = Budget(max_intermediate_rows=50)
        with pytest.raises(BudgetExceededError):
            db.execute("SELECT t.a FROM t JOIN u ON t.a = u.a", budget=budget)
        assert budget.tripped == "intermediate"


class TestBatchScalarEquivalence:
    """Every batch size answers like sqlite3 running the same SQL."""

    @pytest.mark.parametrize("batch_size", [1, 64, 256, 1024])
    def test_same_results_any_batch_size(self, batch_size):
        batched = build_db(batch_size=batch_size, rows=777)
        reference = sqlite3.connect(":memory:")
        reference.execute("CREATE TABLE t (a TEXT, b INTEGER)")
        reference.executemany(
            "INSERT INTO t VALUES (?, ?)", [(f"v{i}", i) for i in range(777)]
        )
        for sql in (
            "SELECT a, b FROM t WHERE b % 3 = 0 ORDER BY b",
            "SELECT COUNT(*), MIN(a), MAX(b) FROM t",
            "SELECT a FROM t WHERE a = 'v9'",
        ):
            expected = reference.execute(sql).fetchall()
            got = batched.execute(sql)
            assert got.rows == expected, (sql, batch_size)
