"""The backend protocol: what any relational back-end must provide.

The paper's system sits on DB2; this reproduction runs identically on two
back-ends — the pure-Python engine and stdlib sqlite3 — behind this small
interface. The translator emits SQL ASTs; each backend decides whether to
execute the AST directly or render it to text first.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Any, Iterable, Sequence

from ..relational import ast
from ..relational.types import ColumnType


class RenderMemo:
    """A small bounded memo from SQL AST instance to rendered text.

    Cached query plans hand the *same* immutable AST object to the backend
    on every execution, so re-rendering it to text is pure waste. Keyed by
    object identity (the AST is also kept as the value, so an id can never
    be reused while its entry is alive); bounded LRU to stay O(plans kept).
    """

    def __init__(self, maxsize: int = 64) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[int, tuple[ast.Statement, str]] = OrderedDict()

    def render(self, statement: ast.Statement) -> str:
        key = id(statement)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is statement:
            self._entries.move_to_end(key)
            return entry[1]
        from ..relational.render import render_statement

        text = render_statement(statement)
        self._entries[key] = (statement, text)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return text


class Backend(abc.ABC):
    """Abstract relational back-end used by the RDF store layers."""

    name: str = "abstract"
    #: True when :meth:`open_snapshot` hands out point-in-time read handles
    supports_snapshots: bool = False

    @abc.abstractmethod
    def create_table(
        self,
        table_name: str,
        columns: Sequence[tuple[str, ColumnType]],
        if_not_exists: bool = False,
    ) -> None:
        """Create a table with the given (name, type) columns."""

    @abc.abstractmethod
    def create_index(
        self, index_name: str, table_name: str, columns: Sequence[str]
    ) -> None:
        """Create an equality index."""

    @abc.abstractmethod
    def insert_many(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-insert rows; returns the number inserted."""

    @abc.abstractmethod
    def execute(
        self,
        statement: ast.Statement | str,
        timeout: float | None = None,
        budget: Any = None,
        snapshot: Any = None,
        tracer: Any = None,
    ) -> tuple[list[str], list[tuple]]:
        """Run a statement; returns (column names, rows).

        ``timeout`` is in seconds; expiry raises
        :class:`repro.relational.errors.QueryTimeout` on either backend.
        ``budget`` is an optional guardrail object (duck-typed,
        :class:`repro.core.resilience.Budget`): its deadline and
        intermediate-row ceiling are enforced cooperatively during
        execution and trips raise the typed guardrail errors.
        ``snapshot`` is a handle from :meth:`open_snapshot`; when given,
        the statement reads the point-in-time state the handle pins
        instead of the latest state.
        ``tracer`` (duck-typed :class:`repro.core.observe.Tracer`, or
        ``None`` for no tracing) records the work under a
        ``<name>.execute`` span with the result rowcount; each backend adds
        its own detail (minirel meters every operator, sqlite attaches its
        ``EXPLAIN QUERY PLAN``).
        """

    # ------------------------------------------------------ write brackets

    def begin_write(self) -> None:
        """Open a write bracket (one writer at a time, enforced above)."""

    def commit_write(self) -> None:
        """Publish the bracket's writes to new snapshots."""

    def abort_write(self) -> None:
        """Close the bracket without publishing (logical undo already ran)."""

    # ----------------------------------------------------------- snapshots

    def open_snapshot(self) -> Any:
        """A point-in-time read handle (pass to ``execute(snapshot=...)``;
        call ``handle.release()`` when done). Only valid between write
        brackets — the store acquires it under the writer lock."""
        raise NotImplementedError(f"{self.name} backend has no snapshot support")

    @abc.abstractmethod
    def table_names(self) -> list[str]:
        """All table names currently in the catalog."""

    @abc.abstractmethod
    def row_count(self, table_name: str) -> int:
        """Number of rows in a table (cheap metadata access)."""

    def sql_text(self, statement: ast.Statement) -> str:
        """Render a statement to this backend's SQL dialect (for EXPLAIN-style
        introspection; both backends share the SQLite-ish dialect). Renders
        of one AST instance are memoized — cached plans re-use their AST."""
        memo = getattr(self, "_render_memo", None)
        if memo is None:
            memo = RenderMemo()
            self._render_memo = memo
        return memo.render(statement)
