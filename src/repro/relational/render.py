"""Render SQL ASTs to SQL text (SQLite dialect).

The sqlite3 backend executes the rendered text; the minirel backend executes
the AST directly. Rendering the same AST both ways and diffing the results is
the engine's differential test.
"""

from __future__ import annotations

from . import ast
from .errors import PlanError


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _quote_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _chain_operands(expr: ast.Expr, op: str) -> list[ast.Expr]:
    """The operands of a chain of ``op`` (AND / OR) nodes, left to right."""
    operands: list[ast.Expr] = []
    pending = [expr]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.BinOp) and node.op.upper() == op:
            pending.append(node.right)
            pending.append(node.left)
        else:
            operands.append(node)
    return operands


def render_expr(expr: ast.Expr) -> str:
    """Render an expression to SQL text."""
    if isinstance(expr, ast.Const):
        value = expr.value
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, (int, float)):
            return repr(value)
        return _quote_string(str(value))
    if isinstance(expr, ast.Column):
        if expr.table:
            return f"{_quote_ident(expr.table)}.{_quote_ident(expr.name)}"
        return _quote_ident(expr.name)
    if isinstance(expr, ast.BinOp):
        op = expr.op.upper() if expr.op.isalpha() else expr.op
        if op in ("AND", "OR"):
            # AND and OR are associative: a same-operator chain renders at
            # one level, "(a AND b AND c)". Nesting each link instead would
            # overflow sqlite's parser stack on the loader's conjunctions
            # over every column of a wide row.
            body = f" {op} ".join(
                render_expr(operand) for operand in _chain_operands(expr, op)
            )
            return f"({body})"
        return f"({render_expr(expr.left)} {op} {render_expr(expr.right)})"
    if isinstance(expr, ast.UnaryOp):
        op = expr.op.upper() if expr.op.isalpha() else expr.op
        return f"({op} {render_expr(expr.operand)})"
    if isinstance(expr, ast.IsNull):
        suffix = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({render_expr(expr.operand)} {suffix})"
    if isinstance(expr, ast.InList):
        body = ", ".join(render_expr(item) for item in expr.items)
        keyword = "NOT IN" if expr.negated else "IN"
        return f"({render_expr(expr.operand)} {keyword} ({body}))"
    if isinstance(expr, ast.Like):
        keyword = "NOT LIKE" if expr.negated else "LIKE"
        return f"({render_expr(expr.operand)} {keyword} {render_expr(expr.pattern)})"
    if isinstance(expr, ast.FuncCall):
        if expr.name.upper() == "ROWNUM":
            return "ROW_NUMBER() OVER ()"
        body = ", ".join(render_expr(arg) for arg in expr.args)
        return f"{expr.name.upper()}({body})"
    if isinstance(expr, ast.Case):
        parts = ["CASE"]
        for condition, result in expr.whens:
            parts.append(f"WHEN {render_expr(condition)} THEN {render_expr(result)}")
        if expr.default is not None:
            parts.append(f"ELSE {render_expr(expr.default)}")
        parts.append("END")
        return "(" + " ".join(parts) + ")"
    if isinstance(expr, ast.Aggregate):
        if expr.arg is None:
            return "COUNT(*)"
        inner = render_expr(expr.arg)
        if expr.distinct:
            inner = "DISTINCT " + inner
        return f"{expr.func.upper()}({inner})"
    raise PlanError(f"cannot render expression {expr!r}")


def _render_from(item: ast.FromItem) -> str:
    if isinstance(item, ast.TableRef):
        text = _quote_ident(item.name)
        if item.alias:
            text += f" AS {_quote_ident(item.alias)}"
        return text
    if isinstance(item, ast.SubqueryRef):
        return f"({render_query(item.query)}) AS {_quote_ident(item.alias)}"
    if isinstance(item, ast.Join):
        left = _render_from(item.left)
        right = _render_from(item.right)
        if isinstance(item.right, ast.Join):
            right = f"({right})"
        if item.on is None:
            if item.kind == "LEFT":
                raise PlanError("LEFT JOIN requires an ON condition")
            return f"{left} CROSS JOIN {right}"
        keyword = "LEFT OUTER JOIN" if item.kind == "LEFT" else "JOIN"
        return f"{left} {keyword} {right} ON {render_expr(item.on)}"
    raise PlanError(f"cannot render FROM item {item!r}")


def _render_order_limit(
    order_by: tuple[ast.OrderItem, ...], limit: int | None, offset: int | None
) -> str:
    parts: list[str] = []
    if order_by:
        rendered = ", ".join(
            render_expr(item.expr) + ("" if item.ascending else " DESC")
            for item in order_by
        )
        parts.append(f"ORDER BY {rendered}")
    if limit is not None:
        parts.append(f"LIMIT {limit}")
        if offset is not None:
            parts.append(f"OFFSET {offset}")
    elif offset is not None:
        parts.append(f"LIMIT -1 OFFSET {offset}")
    return " ".join(parts)


def render_query(query: ast.Query) -> str:
    """Render a query (SELECT / set operation / WITH) to SQL text."""
    if isinstance(query, ast.With):
        ctes = ", ".join(
            f"{_quote_ident(name)} AS ({render_query(sub)})" for name, sub in query.ctes
        )
        return f"WITH {ctes} {render_query(query.body)}"
    if isinstance(query, ast.SetOp):
        text = f"{render_query(query.left)} {query.op.upper()} {render_query(query.right)}"
        tail = _render_order_limit(query.order_by, query.limit, query.offset)
        return f"{text} {tail}".rstrip()
    if isinstance(query, ast.Select):
        items: list[str] = []
        for item in query.items:
            if item.expr is None:
                items.append("*")
            else:
                rendered = render_expr(item.expr)
                if item.alias:
                    rendered += f" AS {_quote_ident(item.alias)}"
                items.append(rendered)
        parts = ["SELECT"]
        if query.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(items))
        if query.from_ is not None:
            parts.append("FROM " + _render_from(query.from_))
        if query.where is not None:
            parts.append("WHERE " + render_expr(query.where))
        if query.group_by:
            parts.append("GROUP BY " + ", ".join(render_expr(e) for e in query.group_by))
        if query.having is not None:
            parts.append("HAVING " + render_expr(query.having))
        tail = _render_order_limit(query.order_by, query.limit, query.offset)
        if tail:
            parts.append(tail)
        return " ".join(parts)
    raise PlanError(f"cannot render query {query!r}")


def render_statement(statement: ast.Statement) -> str:
    """Render any statement (query, DDL, or DML) to SQL text."""
    if isinstance(statement, (ast.Select, ast.SetOp, ast.With)):
        return render_query(statement)
    if isinstance(statement, ast.CreateTable):
        columns = ", ".join(
            f"{_quote_ident(c.name)} {c.type.value}" for c in statement.columns
        )
        clause = "IF NOT EXISTS " if statement.if_not_exists else ""
        return f"CREATE TABLE {clause}{_quote_ident(statement.name)} ({columns})"
    if isinstance(statement, ast.CreateIndex):
        columns = ", ".join(_quote_ident(c) for c in statement.columns)
        clause = "IF NOT EXISTS " if statement.if_not_exists else ""
        return (
            f"CREATE INDEX {clause}{_quote_ident(statement.name)} "
            f"ON {_quote_ident(statement.table)} ({columns})"
        )
    if isinstance(statement, ast.Insert):
        columns = ""
        if statement.columns is not None:
            columns = " (" + ", ".join(_quote_ident(c) for c in statement.columns) + ")"
        rows = ", ".join(
            "(" + ", ".join(render_expr(value) for value in row) + ")"
            for row in statement.rows
        )
        return f"INSERT INTO {_quote_ident(statement.table)}{columns} VALUES {rows}"
    if isinstance(statement, ast.Delete):
        where = f" WHERE {render_expr(statement.where)}" if statement.where else ""
        return f"DELETE FROM {_quote_ident(statement.table)}{where}"
    if isinstance(statement, ast.DropTable):
        clause = "IF EXISTS " if statement.if_exists else ""
        return f"DROP TABLE {clause}{_quote_ident(statement.name)}"
    if isinstance(statement, ast.Update):
        assignments = ", ".join(
            f"{_quote_ident(column)} = {render_expr(value)}"
            for column, value in statement.assignments
        )
        where = f" WHERE {render_expr(statement.where)}" if statement.where else ""
        return f"UPDATE {_quote_ident(statement.table)} SET {assignments}{where}"
    raise PlanError(f"cannot render statement {statement!r}")
