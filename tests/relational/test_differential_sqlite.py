"""Differential testing: the pure-Python engine vs stdlib sqlite3.

Every query is executed twice — AST directly on minirel, rendered text on
sqlite3 — and results must agree as multisets (or exactly, under ORDER BY).
This is the substrate-level guarantee the RDF translator builds on. The
fixture tables are smaller than one default chunk, so every query also
runs at ``batch_size=1``, where each row crosses a chunk boundary.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import ColumnType, Database, parse_sql
from repro.relational.catalog import DEFAULT_BATCH_SIZE
from repro.relational.render import render_statement

ROWS = [
    ("alice", "eng", 120),
    ("bob", "eng", 100),
    ("carol", "sales", 90),
    ("dave", None, 80),
    ("erin", "eng", None),
    ("frank", None, None),
]

DEPTS = [("eng", "nyc"), ("sales", "sfo"), ("hr", None)]


def build_engines(batch_size: int = DEFAULT_BATCH_SIZE):
    mini = Database(batch_size=batch_size)
    mini.create_table(
        "emp",
        [("name", ColumnType.TEXT), ("dept", ColumnType.TEXT), ("salary", ColumnType.INTEGER)],
    )
    mini.create_index("emp_dept", "emp", ["dept"])
    mini.insert("emp", ROWS)
    mini.create_table("dept", [("name", ColumnType.TEXT), ("city", ColumnType.TEXT)])
    mini.insert("dept", DEPTS)

    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE emp (name TEXT, dept TEXT, salary INTEGER)")
    lite.execute("CREATE INDEX emp_dept ON emp (dept)")
    lite.executemany("INSERT INTO emp VALUES (?,?,?)", ROWS)
    lite.execute("CREATE TABLE dept (name TEXT, city TEXT)")
    lite.executemany("INSERT INTO dept VALUES (?,?)", DEPTS)
    return mini, lite


@pytest.fixture
def engines():
    return build_engines()


def both(engines, sql_text: str, ordered: bool = False):
    mini, lite = engines
    (statement,) = parse_sql(sql_text)
    mini_rows = mini.execute(statement).rows
    lite_rows = lite.execute(render_statement(statement)).fetchall()
    if ordered:
        assert mini_rows == lite_rows, sql_text
    else:
        assert sorted(mini_rows, key=repr) == sorted(lite_rows, key=repr), sql_text


QUERIES = [
    "SELECT name, dept FROM emp WHERE dept = 'eng'",
    "SELECT * FROM emp WHERE salary > 85 AND dept IS NOT NULL",
    "SELECT * FROM emp WHERE dept = NULL",
    "SELECT e.name, d.city FROM emp e, dept d WHERE e.dept = d.name",
    "SELECT d.name, e.name FROM dept d LEFT OUTER JOIN emp e ON d.name = e.dept",
    "SELECT d.name, e.name FROM dept d LEFT OUTER JOIN emp e "
    "ON d.name = e.dept AND e.salary > 100",
    "SELECT d.name FROM dept d LEFT OUTER JOIN emp e ON d.name = e.dept "
    "WHERE e.name IS NULL",
    "SELECT dept, COUNT(*), COUNT(salary), SUM(salary), MIN(name), MAX(salary) "
    "FROM emp GROUP BY dept",
    "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1",
    "SELECT COUNT(DISTINCT dept) FROM emp",
    "SELECT name FROM emp UNION SELECT name FROM dept",
    "SELECT dept FROM emp UNION ALL SELECT name FROM dept",
    "SELECT name FROM emp INTERSECT SELECT 'alice'",
    "SELECT name FROM emp EXCEPT SELECT 'alice'",
    "WITH rich AS (SELECT * FROM emp WHERE salary >= 100) "
    "SELECT r.name, d.city FROM rich r, dept d WHERE r.dept = d.name",
    "SELECT CASE WHEN salary > 100 THEN 'high' WHEN salary > 85 THEN 'mid' "
    "ELSE 'low' END AS band, name FROM emp",
    "SELECT COALESCE(dept, 'none'), name FROM emp",
    "SELECT name FROM emp WHERE name LIKE '%a%'",
    "SELECT name FROM emp WHERE salary IN (80, 100)",
    "SELECT name FROM emp WHERE salary NOT IN (80, 100)",
    "SELECT name, salary * 2 FROM emp WHERE salary IS NOT NULL",
    "SELECT s.n FROM (SELECT name AS n FROM emp WHERE dept = 'eng') AS s",
    "SELECT name FROM emp WHERE salary BETWEEN 85 AND 110",
]

ORDERED_QUERIES = [
    "SELECT name FROM emp ORDER BY name",
    "SELECT name, salary FROM emp ORDER BY salary DESC, name",
    "SELECT name FROM emp ORDER BY name LIMIT 3",
    "SELECT name FROM emp ORDER BY name LIMIT 2 OFFSET 2",
    "SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL ORDER BY dept",
    "SELECT name FROM emp ORDER BY salary",  # NULLs first on both engines
]


@pytest.mark.parametrize("sql_text", QUERIES)
def test_unordered_agreement(engines, sql_text):
    both(engines, sql_text, ordered=False)


@pytest.mark.parametrize("sql_text", ORDERED_QUERIES)
def test_ordered_agreement(engines, sql_text):
    both(engines, sql_text, ordered=True)


@pytest.mark.parametrize(
    "sql_text, ordered",
    [(q, False) for q in QUERIES] + [(q, True) for q in ORDERED_QUERIES],
)
def test_one_row_chunks_agree(sql_text, ordered):
    both(build_engines(batch_size=1), sql_text, ordered=ordered)


# A tiny random-query generator over one table: projections of simple
# predicates combined with AND/OR, checked against sqlite.
_columns = st.sampled_from(["name", "dept", "salary"])
_values = st.sampled_from(["'alice'", "'eng'", "90", "100", "NULL"])
_ops = st.sampled_from(["=", "<>", "<", ">", "<=", ">="])


@st.composite
def predicates(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        column = draw(_columns)
        if draw(st.booleans()):
            return f"{column} IS NULL"
        return f"{column} {draw(_ops)} {draw(_values)}"
    left = draw(predicates(depth=depth - 1))
    right = draw(predicates(depth=depth - 1))
    connector = draw(st.sampled_from(["AND", "OR"]))
    return f"({left} {connector} {right})"


@settings(max_examples=60, deadline=None)
@given(condition=predicates())
def test_random_predicates_match_sqlite(condition):
    mini = Database()
    mini.create_table(
        "emp",
        [("name", ColumnType.TEXT), ("dept", ColumnType.TEXT), ("salary", ColumnType.INTEGER)],
    )
    mini.insert("emp", ROWS)
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE emp (name TEXT, dept TEXT, salary INTEGER)")
    lite.executemany("INSERT INTO emp VALUES (?,?,?)", ROWS)

    sql_text = f"SELECT name FROM emp WHERE {condition} ORDER BY name"
    (statement,) = parse_sql(sql_text)
    mini_rows = mini.execute(statement).rows
    lite_rows = lite.execute(render_statement(statement)).fetchall()
    assert mini_rows == lite_rows, sql_text


# Random two-table join queries: join condition, optional LEFT OUTER,
# aggregates — checked against sqlite.
_join_cols = st.sampled_from(["name", "dept"])


@st.composite
def join_queries(draw):
    left_col = draw(_join_cols)
    join_kind = draw(st.sampled_from(["JOIN", "LEFT OUTER JOIN", ","]))
    extra = draw(
        st.sampled_from(
            [
                "",
                "AND e.salary > 90",
                "AND d.city = 'nyc'",
            ]
        )
    )
    where = draw(
        st.sampled_from(
            ["", "WHERE e.salary IS NOT NULL", "WHERE d.city IS NULL OR e.salary > 85"]
        )
    )
    if join_kind == ",":
        condition = f"e.{left_col} = d.name {extra}".strip()
        joined = "emp e, dept d"
        where_clause = f"WHERE {condition}" + (
            f" AND {where[6:]}" if where else ""
        )
        return f"SELECT e.name, d.city FROM {joined} {where_clause}"
    on = f"e.{left_col} = d.name {extra}".strip()
    return (
        f"SELECT e.name, d.city FROM emp e {join_kind} dept d ON {on} {where}"
    )


@settings(max_examples=50, deadline=None)
@given(sql_text=join_queries())
def test_random_joins_match_sqlite(sql_text):
    mini = Database()
    mini.create_table(
        "emp",
        [("name", ColumnType.TEXT), ("dept", ColumnType.TEXT), ("salary", ColumnType.INTEGER)],
    )
    mini.create_index("emp_dept", "emp", ["dept"])
    mini.insert("emp", ROWS)
    mini.create_table("dept", [("name", ColumnType.TEXT), ("city", ColumnType.TEXT)])
    mini.insert("dept", DEPTS)
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE emp (name TEXT, dept TEXT, salary INTEGER)")
    lite.executemany("INSERT INTO emp VALUES (?,?,?)", ROWS)
    lite.execute("CREATE TABLE dept (name TEXT, city TEXT)")
    lite.executemany("INSERT INTO dept VALUES (?,?)", DEPTS)

    (statement,) = parse_sql(sql_text)
    mini_rows = sorted(mini.execute(statement).rows, key=repr)
    lite_rows = sorted(lite.execute(render_statement(statement)).fetchall(), key=repr)
    assert mini_rows == lite_rows, sql_text


# The DB2RDF hashed-predicate selector ``CASE WHEN <TEXT col> = '<str>'
# THEN <col> ... END`` compiles to an id-comparing projection kernel; the
# other shapes (ELSE, a numeric selector column, non-string constants)
# fall back to the per-row evaluator. Both must agree with sqlite.
CASE_QUERIES = [
    "SELECT name, CASE WHEN dept = 'eng' THEN salary END AS s FROM emp",
    "SELECT CASE WHEN dept = 'sales' THEN name WHEN dept = 'eng' THEN salary END "
    "AS v, name FROM emp",
    "SELECT CASE WHEN dept = 'eng' THEN name WHEN name = 'dave' THEN name END "
    "FROM emp",
    # dead branches: the constant is not in the dictionary
    "SELECT name, CASE WHEN dept = 'nowhere' THEN salary WHEN dept = 'eng' "
    "THEN name END AS v FROM emp",
    "SELECT name, CASE WHEN dept = 'nowhere' THEN salary END AS v FROM emp",
    # fallbacks: ELSE column, ELSE literal, numeric selector column
    "SELECT CASE WHEN dept = 'eng' THEN name ELSE dept END FROM emp",
    "SELECT CASE WHEN dept = 'eng' THEN name ELSE 'other' END FROM emp",
    "SELECT name, CASE WHEN salary = 100 THEN dept END FROM emp",
    "SELECT name, CASE WHEN salary = 'x' THEN dept END FROM emp",
    # (CASE ...) = const in WHERE
    "SELECT name FROM emp WHERE (CASE WHEN dept = 'eng' THEN name END) = 'alice'",
    # a CASE column downstream: CTE filter, CTE join, DISTINCT, set ops
    "WITH c AS (SELECT name, CASE WHEN dept = 'eng' THEN dept END AS d FROM emp) "
    "SELECT name FROM c WHERE d IS NOT NULL AND d = 'eng'",
    "WITH c AS (SELECT name, CASE WHEN dept = 'eng' THEN dept "
    "WHEN dept = 'sales' THEN dept END AS d FROM emp) "
    "SELECT c.name, x.city FROM c, dept x WHERE c.d = x.name",
    "WITH c AS (SELECT name, CASE WHEN dept = 'eng' THEN dept END AS d FROM emp) "
    "SELECT c.name, x.city FROM c LEFT OUTER JOIN dept x ON c.d = x.name",
    "SELECT DISTINCT CASE WHEN dept = 'eng' THEN dept END FROM emp",
    "WITH c AS (SELECT CASE WHEN dept = 'eng' THEN dept END AS d FROM emp "
    "UNION ALL SELECT 'eng') SELECT DISTINCT d FROM c",
    "SELECT CASE WHEN dept = 'eng' THEN dept END FROM emp UNION SELECT 'eng'",
    "WITH c AS (SELECT CASE WHEN dept = 'eng' THEN name END AS n FROM emp "
    "UNION ALL SELECT 'alice') SELECT n, COUNT(*) FROM c GROUP BY n",
    # right-local conjuncts of a join without equi keys (index probe or
    # kernel filter on the right side)
    "SELECT d.name, e.name FROM dept d, emp e WHERE e.dept = 'eng'",
    "SELECT d.name, e.name FROM dept d, emp e WHERE e.salary > 95 AND e.dept = 'eng'",
    "SELECT d.name, e.name FROM dept d LEFT OUTER JOIN emp e ON e.dept = 'sales'",
]


@pytest.mark.parametrize("batch_size", [1, DEFAULT_BATCH_SIZE])
@pytest.mark.parametrize("sql_text", CASE_QUERIES)
def test_case_selectors_agree(sql_text, batch_size):
    both(build_engines(batch_size=batch_size), sql_text)


def test_case_branch_revives_after_its_constant_is_inserted():
    """A CASE constant missing from the dictionary is a dead branch for
    that plan only: re-executing the same parsed statement after an insert
    interns it must take the branch."""
    mini, lite = build_engines()
    (statement,) = parse_sql(
        "SELECT name, CASE WHEN dept = 'ops' THEN salary "
        "WHEN dept = 'eng' THEN name END AS v FROM emp"
    )
    rendered = render_statement(statement)
    for new_row in (None, ("gina", "ops", 70)):
        if new_row is not None:
            mini.insert("emp", [new_row])
            lite.execute("INSERT INTO emp VALUES (?,?,?)", new_row)
        assert sorted(mini.execute(statement).rows, key=repr) == sorted(
            lite.execute(rendered).fetchall(), key=repr
        )
    assert ("gina", 70) in mini.execute(statement).rows


WORDS = [("École",), ("école",), ("straße",), ("STRASSE",), ("Ünïcode",), ("plain",)]

# SQLite's built-in LIKE, LOWER and UPPER fold ASCII letters only.
TEXT_FUNCTION_QUERIES = [
    "SELECT w, UPPER(w), LOWER(w), LENGTH(w) FROM words",
    "SELECT w FROM words WHERE w LIKE 'é%'",
    "SELECT w FROM words WHERE w LIKE 'É%'",
    "SELECT w FROM words WHERE w LIKE '%COLE'",
    "SELECT w FROM words WHERE w LIKE 'stra_e'",
    "SELECT w FROM words WHERE w NOT LIKE 'ünï%'",
    "SELECT w FROM words WHERE UPPER(w) = 'STRASSE'",
    "SELECT w FROM words WHERE LOWER(w) = 'école'",
]


@pytest.mark.parametrize("batch_size", [1, DEFAULT_BATCH_SIZE])
@pytest.mark.parametrize("sql_text", TEXT_FUNCTION_QUERIES)
def test_text_functions_fold_ascii_like_sqlite(sql_text, batch_size):
    mini = Database(batch_size=batch_size)
    mini.create_table("words", [("w", ColumnType.TEXT)])
    mini.insert("words", WORDS)
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE words (w TEXT)")
    lite.executemany("INSERT INTO words VALUES (?)", WORDS)
    both((mini, lite), sql_text)


@pytest.mark.parametrize(
    "sql_text",
    [
        "SELECT COALESCE(n, p) FROM lax UNION SELECT p FROM lax",
        "SELECT CASE WHEN p = 'x' THEN n END FROM lax UNION SELECT p FROM lax",
        "SELECT DISTINCT v FROM (SELECT CASE WHEN p = 'x' THEN n END AS v FROM lax "
        "UNION ALL SELECT p FROM lax) AS s",
    ],
)
def test_selectors_over_lax_numeric_columns_stay_canonical(sql_text):
    """A non-numeric string in an INTEGER column is stored plain (lax
    affinity); a selector passing it through must still be canonicalized
    against the interned twin in a TEXT column."""
    mini = Database()
    mini.create_table("lax", [("n", ColumnType.INTEGER), ("p", ColumnType.TEXT)])
    mini.insert("lax", [("x", "x"), (None, "y")])
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE lax (n INTEGER, p TEXT)")
    lite.executemany("INSERT INTO lax VALUES (?,?)", [("x", "x"), (None, "y")])
    both((mini, lite), sql_text)
