"""Which execution path ran: compiled kernels vs per-row evaluators.

Traced executions label every ``filter`` span ``kernel=True|False`` and
every ``select`` span ``project=kernel|per-row``. These tests pin that the
DB2RDF SQL the translator emits for the LUBM queries runs entirely on
kernels, that the CASE projection kernel covers exactly its documented
shape, and that re-planning a statement reuses the compiled kernels and
scopes of the previous execution.
"""

import sys
import threading

import pytest

from repro import RdfStore
from repro.backends.minirel import MiniRelBackend
from repro.core.observe import Span
from repro.relational import ast, batch, expressions
from repro.relational.catalog import Database
from repro.relational.expressions import Scope
from repro.relational.parser import parse_sql
from repro.relational.planner import _infer_affinity
from repro.relational.types import ColumnType
from repro.workloads import lubm


def _spans(root: Span, name: str) -> list[Span]:
    return [span for _, span in root.walk() if span.name == name]


def test_lubm_queries_take_no_per_row_path():
    data = lubm.generate(universities=2)
    store = RdfStore.from_graph(data.graph, backend=MiniRelBackend())
    queries = lubm.queries(universities=2)
    assert len(queries) == 12
    filters = selects = 0
    for name, sparql in queries.items():
        root = store.query(sparql, profile=True).profile
        for span in _spans(root, "filter"):
            assert span.attrs["kernel"] is True, (name, span.attrs)
            filters += 1
        for span in _spans(root, "select"):
            assert span.attrs["project"] == "kernel", (name, span.attrs)
            selects += 1
    assert filters > 0 and selects > 0


@pytest.fixture
def db():
    db = Database()
    db.create_table(
        "t",
        [("p", ColumnType.TEXT), ("v", ColumnType.TEXT), ("n", ColumnType.INTEGER)],
    )
    db.insert("t", [("a", "x", 1), ("b", "y", 2), (None, "z", 3)])
    return db


def _projection_path(db: Database, sql_text: str) -> str:
    root = Span("root")
    db.execute(sql_text, trace=root)
    (select,) = _spans(root, "select")
    return select.attrs["project"]


@pytest.mark.parametrize(
    "item",
    [
        "CASE WHEN p = 'a' THEN v END",
        "CASE WHEN p = 'a' THEN v WHEN p = 'b' THEN n END",
        "CASE WHEN p = 'missing' THEN v WHEN p = 'b' THEN v END",
        "CASE WHEN p = 'missing' THEN v END",
        "COALESCE(CASE WHEN p = 'a' THEN v END, v)",
    ],
)
def test_case_selector_projects_on_a_kernel(db, item):
    assert _projection_path(db, f"SELECT {item} FROM t") == "kernel"


@pytest.mark.parametrize(
    "item",
    [
        "CASE WHEN p = 'a' THEN v ELSE v END",
        "CASE WHEN p = 'a' THEN v ELSE 'other' END",
        "CASE WHEN n = 'a' THEN v END",
        "CASE WHEN n = 1 THEN v END",
        "CASE WHEN p <> 'a' THEN v END",
        "CASE WHEN p = 'a' THEN 'lit' END",
    ],
)
def test_other_case_shapes_fall_back_per_row(db, item):
    assert _projection_path(db, f"SELECT {item} FROM t") == "per-row"


def test_filter_spans_name_their_path(db):
    root = Span("root")
    db.execute("SELECT v FROM t WHERE p = 'a'", trace=root)
    db.execute("SELECT v FROM t WHERE n > 1", trace=root)
    assert [s.attrs["kernel"] for s in _spans(root, "filter")] == [True, False]


def test_case_over_text_columns_infers_text():
    """A CASE whose THEN/ELSE branches are all TEXT is TEXT, so a CTE
    filter on its output compiles to the id-only kernel leaf."""
    scope = Scope.of((("T", "p"), ("T", "v"), ("T", "n")))
    types = [ColumnType.TEXT, ColumnType.TEXT, ColumnType.INTEGER]
    text_case = ast.Case(
        ((ast.BinOp("=", ast.Column("T", "p"), ast.Const("a")), ast.Column("T", "v")),)
    )
    assert _infer_affinity(text_case, scope, types) is ColumnType.TEXT
    mixed = ast.Case(text_case.whens, ast.Column("T", "n"))
    assert _infer_affinity(mixed, scope, types) is None
    literal = ast.Case(text_case.whens, ast.Const("other"))
    assert _infer_affinity(literal, scope, types) is None


def test_replanning_reuses_kernels_and_scopes(db):
    (statement,) = parse_sql(
        "SELECT CASE WHEN p = 'a' THEN v END, n FROM t WHERE v = 'y' OR p IS NULL"
    )
    batch._FACTORIES.clear()
    expressions._SCOPES.clear()
    first = db.execute(statement).rows
    kernels = dict(batch._FACTORIES)
    scopes = dict(expressions._SCOPES)
    assert kernels and scopes
    assert db.execute(statement).rows == first
    assert batch._FACTORIES == kernels
    assert expressions._SCOPES == scopes
    assert all(expressions._SCOPES[k] is v for k, v in scopes.items())


def test_scope_interning_shares_instances():
    slots = (("t", "a"), ("t", "b"))
    assert Scope.of(slots) is Scope.of(tuple(slots))
    merged = Scope.of(slots[:1]).merged_with(Scope.of(slots[1:]))
    assert merged is Scope.of(slots)


def test_memos_stay_correct_under_thread_contention(monkeypatch):
    """Both memos are shared by every thread. With bounds of 2 they are
    cleared constantly; concurrent executions must still get exact rows."""
    monkeypatch.setattr(batch, "KERNEL_MEMO_SIZE", 2)
    monkeypatch.setattr(expressions, "SCOPE_MEMO_SIZE", 2)
    queries = [
        "SELECT CASE WHEN p = 'a' THEN v WHEN p = 'b' THEN n END FROM t",
        "SELECT v, n FROM t WHERE p = 'b' OR v = 'z'",
        "WITH c AS (SELECT CASE WHEN p = 'a' THEN v END AS x, n FROM t) "
        "SELECT c.n, u.v FROM c, t u WHERE c.x = u.v",
    ]

    def build() -> Database:
        db = Database(batch_size=1)
        db.create_table(
            "t",
            [("p", ColumnType.TEXT), ("v", ColumnType.TEXT), ("n", ColumnType.INTEGER)],
        )
        db.insert("t", [("a", "x", 1), ("b", "y", 2), (None, "z", 3)])
        return db

    expected = [sorted(build().execute(q).rows, key=repr) for q in queries]
    failures: list = []

    def worker(offset: int) -> None:
        db = build()
        for step in range(150):
            index = (step + offset) % len(queries)
            rows = sorted(db.execute(queries[index]).rows, key=repr)
            if rows != expected[index]:
                failures.append((queries[index], rows))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
