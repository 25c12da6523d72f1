"""Expression compilation and evaluation.

Expressions are compiled once per query into Python closures over tuple
indexes (``row -> value``); this keeps per-row evaluation cheap, which
matters because the benchmark harness pushes hundreds of thousands of rows
through these closures.

Boolean results use SQL three-valued logic: ``True`` / ``False`` / ``None``
(unknown). A WHERE clause keeps a row only when its condition is ``True``.
"""

from __future__ import annotations

import re
import string
from functools import lru_cache
from typing import Any, Callable, Sequence

from . import ast
from .dictionary import EncodedString
from .errors import ExecutionError, PlanError
from .types import compare, tv_and, tv_not, tv_or

Row = tuple
Evaluator = Callable[[Row], Any]
ColumnResolver = Callable[[ast.Column], int]

# Custom scalar functions usable from SQL. The RDF layer registers term
# helpers here (RDF_NUM, RDF_STR, ...); the sqlite backend registers the
# same callables on its connections so both engines agree.
CUSTOM_FUNCTIONS: dict[str, Callable[..., Any]] = {}


def register_function(name: str, fn: Callable[..., Any]) -> None:
    """Register a deterministic scalar function callable from SQL."""
    CUSTOM_FUNCTIONS[name.upper()] = fn


#: bound on the interned-scope table behind :meth:`Scope.of`; the table is
#: cleared when it fills (a working set of distinct FROM shapes is far
#: smaller, so this only caps memory under an unbounded query mix). Threads
#: share it without a lock: a race at worst builds one equal scope twice.
SCOPE_MEMO_SIZE = 2048

_SCOPES: dict[tuple[tuple[str, str], ...], "Scope"] = {}


class Scope:
    """Maps column references to positions in the current row tuple.

    A scope is an ordered tuple of ``(binding, column_name)`` pairs, where
    *binding* is the table alias (or CTE name) the column came from.
    Scopes are immutable, so the planner shares one instance per slot
    tuple (:meth:`of`) instead of rebuilding the lookup maps on every
    execution.
    """

    def __init__(self, slots: Sequence[tuple[str, str]]) -> None:
        self.slots = tuple(slots)
        self._by_qualified: dict[tuple[str, str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        for position, (binding, name) in enumerate(self.slots):
            key = (binding.lower(), name.lower())
            if key not in self._by_qualified:
                self._by_qualified[key] = position
            self._by_name.setdefault(name.lower(), []).append(position)

    @classmethod
    def of(cls, slots: tuple[tuple[str, str], ...]) -> "Scope":
        """The shared scope for ``slots`` (built on first use)."""
        scope = _SCOPES.get(slots)
        if scope is None:
            if len(_SCOPES) >= SCOPE_MEMO_SIZE:
                _SCOPES.clear()
            scope = _SCOPES[slots] = cls(slots)
        return scope

    def __len__(self) -> int:
        return len(self.slots)

    def resolve(self, column: ast.Column) -> int:
        if column.table is not None:
            key = (column.table.lower(), column.name.lower())
            if key not in self._by_qualified:
                raise PlanError(f"unknown column {column.table}.{column.name}")
            return self._by_qualified[key]
        positions = self._by_name.get(column.name.lower(), [])
        if not positions:
            raise PlanError(f"unknown column {column.name}")
        if len(positions) > 1:
            raise PlanError(f"ambiguous column {column.name}")
        return positions[0]

    def contains(self, column: ast.Column) -> bool:
        try:
            self.resolve(column)
        except PlanError:
            return False
        return True

    def merged_with(self, other: "Scope") -> "Scope":
        return Scope.of(self.slots + other.slots)


def _numeric(value: Any, op: str) -> float | int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, EncodedString):
        value = value.lexicon[value]  # text semantics, never the raw id
    elif isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError as exc:
                raise ExecutionError(f"non-numeric operand for {op}: {value!r}") from exc
    raise ExecutionError(f"non-numeric operand for {op}: {value!r}")


@lru_cache(maxsize=256)
def _like_to_regex(pattern: str) -> re.Pattern[str]:
    """The regex for a LIKE pattern, memoized: a constant pattern is
    translated once, not once per row. Case folding is ASCII-only
    (``re.ASCII``), as in SQLite's built-in LIKE."""
    parts: list[str] = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile(
        "^" + "".join(parts) + "$", re.IGNORECASE | re.ASCII | re.DOTALL
    )


#: SQLite's LOWER/UPPER fold ASCII letters only
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
_ASCII_UPPER = str.maketrans(string.ascii_lowercase, string.ascii_uppercase)


_COMPARE_CHECKS: dict[str, Callable[[int], bool]] = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "!=": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


def compile_expr(expr: ast.Expr, scope: Scope) -> Evaluator:
    """Compile an expression into a ``row -> value`` closure."""
    if isinstance(expr, ast.Const):
        value = expr.value
        return lambda row: value

    if isinstance(expr, ast.Column):
        index = scope.resolve(expr)
        return lambda row: row[index]

    if isinstance(expr, ast.BinOp):
        left = compile_expr(expr.left, scope)
        right = compile_expr(expr.right, scope)
        op = expr.op.upper() if expr.op.isalpha() else expr.op

        if op == "AND":
            return lambda row: tv_and(left(row), right(row))
        if op == "OR":
            return lambda row: tv_or(left(row), right(row))
        if op in _COMPARE_CHECKS:
            check = _COMPARE_CHECKS[op]

            def compare_eval(row: Row) -> bool | None:
                result = compare(left(row), right(row))
                return None if result is None else check(result)

            return compare_eval
        if op == "||":

            def concat_eval(row: Row) -> str | None:
                lv, rv = left(row), right(row)
                if lv is None or rv is None:
                    return None
                return str(lv) + str(rv)

            return concat_eval
        if op in ("+", "-", "*", "/", "%"):

            def arith_eval(row: Row) -> Any:
                lv, rv = left(row), right(row)
                if lv is None or rv is None:
                    return None
                ln, rn = _numeric(lv, op), _numeric(rv, op)
                if op == "+":
                    return ln + rn
                if op == "-":
                    return ln - rn
                if op == "*":
                    return ln * rn
                if op == "/":
                    if rn == 0:
                        return None  # SQLite yields NULL on division by zero
                    result = ln / rn
                    if isinstance(ln, int) and isinstance(rn, int):
                        return ln // rn
                    return result
                if rn == 0:
                    return None
                return ln % rn

            return arith_eval
        raise PlanError(f"unsupported binary operator {expr.op!r}")

    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand, scope)
        if expr.op.upper() == "NOT":
            return lambda row: tv_not(operand(row))
        if expr.op == "-":

            def negate(row: Row) -> Any:
                value = operand(row)
                return None if value is None else -_numeric(value, "-")

            return negate
        raise PlanError(f"unsupported unary operator {expr.op!r}")

    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand, scope)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    if isinstance(expr, ast.InList):
        operand = compile_expr(expr.operand, scope)
        items = [compile_expr(item, scope) for item in expr.items]
        negated = expr.negated

        def in_eval(row: Row) -> bool | None:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for item in items:
                item_value = item(row)
                result = compare(value, item_value)
                if result is None:
                    saw_null = True
                elif result == 0:
                    return False if negated else True
            if saw_null:
                return None
            return negated

        return in_eval

    if isinstance(expr, ast.Like):
        operand = compile_expr(expr.operand, scope)
        pattern = compile_expr(expr.pattern, scope)
        negated = expr.negated

        def like_eval(row: Row) -> bool | None:
            value, pat = operand(row), pattern(row)
            if value is None or pat is None:
                return None
            matched = bool(_like_to_regex(str(pat)).match(str(value)))
            return (not matched) if negated else matched

        return like_eval

    if isinstance(expr, ast.FuncCall):
        return _compile_func(expr, scope)

    if isinstance(expr, ast.Case):
        whens = [
            (compile_expr(cond, scope), compile_expr(result, scope))
            for cond, result in expr.whens
        ]
        default = compile_expr(expr.default, scope) if expr.default is not None else None

        def case_eval(row: Row) -> Any:
            for cond, result in whens:
                if cond(row) is True:
                    return result(row)
            return default(row) if default is not None else None

        return case_eval

    if isinstance(expr, ast.Aggregate):
        raise PlanError("aggregate used outside of an aggregating SELECT")

    raise PlanError(f"cannot compile expression {expr!r}")


def _compile_func(expr: ast.FuncCall, scope: Scope) -> Evaluator:
    name = expr.name.upper()
    args = [compile_expr(arg, scope) for arg in expr.args]

    if name == "COALESCE":

        def coalesce_eval(row: Row) -> Any:
            for arg in args:
                value = arg(row)
                if value is not None:
                    return value
            return None

        return coalesce_eval

    if name in ("LOWER", "UPPER"):
        (arg,) = args
        table = _ASCII_LOWER if name == "LOWER" else _ASCII_UPPER

        def case_fold(row: Row) -> Any:
            value = arg(row)
            return None if value is None else str(value).translate(table)

        return case_fold

    if name == "LENGTH":
        (arg,) = args

        def length_eval(row: Row) -> Any:
            value = arg(row)
            return None if value is None else len(str(value))

        return length_eval

    if name == "ABS":
        (arg,) = args

        def abs_eval(row: Row) -> Any:
            value = arg(row)
            return None if value is None else abs(_numeric(value, "ABS"))

        return abs_eval

    if name == "SUBSTR":
        if len(args) == 2:
            operand, start = args

            def substr2(row: Row) -> Any:
                value = operand(row)
                if value is None:
                    return None
                begin = int(_numeric(start(row), "SUBSTR")) - 1
                return str(value)[max(begin, 0):]

            return substr2
        operand, start, length = args

        def substr3(row: Row) -> Any:
            value = operand(row)
            if value is None:
                return None
            begin = int(_numeric(start(row), "SUBSTR")) - 1
            count = int(_numeric(length(row), "SUBSTR"))
            begin = max(begin, 0)
            return str(value)[begin:begin + count]

        return substr3

    if name == "NULLIF":
        left, right = args

        def nullif_eval(row: Row) -> Any:
            lv = left(row)
            return None if compare(lv, right(row)) == 0 else lv

        return nullif_eval

    if name == "IFNULL":
        left, right = args

        def ifnull_eval(row: Row) -> Any:
            lv = left(row)
            return right(row) if lv is None else lv

        return ifnull_eval

    if name == "ROWNUM":
        # A per-query monotonically increasing integer: gives derived rows a
        # unique identity so outer joins can preserve bag semantics. Rendered
        # as ROW_NUMBER() OVER () on the sqlite backend.
        counter = iter(range(1, 1 << 62))
        return lambda row: next(counter)

    if name in CUSTOM_FUNCTIONS:
        fn = CUSTOM_FUNCTIONS[name]
        # Custom functions (the RDF_* term helpers) receive lexical forms,
        # never dictionary ids.
        if len(args) == 1:
            (arg,) = args

            def call1(row: Row) -> Any:
                value = arg(row)
                if isinstance(value, EncodedString):
                    value = value.lexicon[value]
                return fn(value)

            return call1

        def call_n(row: Row) -> Any:
            return fn(
                *(
                    value.lexicon[value]
                    if isinstance(value := arg(row), EncodedString)
                    else value
                    for arg in args
                )
            )

        return call_n

    raise PlanError(f"unsupported function {expr.name!r}")


def expr_columns(expr: ast.Expr | None) -> list[ast.Column]:
    """All column references inside an expression (for push-down analysis)."""
    found: list[ast.Column] = []

    def walk(node: ast.Expr | None) -> None:
        if node is None:
            return
        if isinstance(node, ast.Column):
            found.append(node)
        elif isinstance(node, ast.BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.Like):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, ast.FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.Case):
            for cond, result in node.whens:
                walk(cond)
                walk(result)
            walk(node.default)
        elif isinstance(node, ast.Aggregate):
            walk(node.arg)

    walk(expr)
    return found


def contains_aggregate(expr: ast.Expr | None) -> bool:
    if expr is None:
        return False
    if isinstance(expr, ast.Aggregate):
        return True
    if isinstance(expr, ast.BinOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, ast.IsNull):
        return contains_aggregate(expr.operand)
    if isinstance(expr, ast.InList):
        return contains_aggregate(expr.operand) or any(
            contains_aggregate(item) for item in expr.items
        )
    if isinstance(expr, ast.Like):
        return contains_aggregate(expr.operand) or contains_aggregate(expr.pattern)
    if isinstance(expr, ast.FuncCall):
        return any(contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, ast.Case):
        return any(
            contains_aggregate(cond) or contains_aggregate(result)
            for cond, result in expr.whens
        ) or contains_aggregate(expr.default)
    return False
