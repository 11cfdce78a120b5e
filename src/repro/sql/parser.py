"""Recursive-descent parser for the mini SQL dialect.

Grammar (informal)::

    script     := statement (';' statement)* [';']
    statement  := select | insert | update | delete | create | begin
                | commit | rollback
    select     := SELECT items FROM ident [WHERE expr]
                  [ORDER BY order (',' order)*] [LIMIT int [OFFSET int]]
    items      := '*' | item (',' item)*
    item       := expr [AS ident]
    insert     := INSERT INTO ident ['(' ident, ... ')']
                  VALUES '(' expr, ... ')' (',' '(' expr, ... ')')*
    update     := UPDATE ident SET ident '=' expr, ... [WHERE expr]
    delete     := DELETE FROM ident [WHERE expr]
    create     := CREATE TABLE [IF NOT EXISTS] ident '(' coldef, ... ')'
    expr       := or-chain of ands of comparisons of arithmetic

Parsed statements are cached (keyed by SQL text) because the audit parses
the same logged query text many times — once at redo and once per checked
re-execution — and the cache is a large constant-factor win that does not
change behaviour.
"""

from __future__ import annotations


from repro.common.errors import SqlError
from repro.sql.ast import (
    Aggregate,
    Begin,
    BinaryOp,
    BoolOp,
    ColumnDef,
    ColumnRef,
    Commit,
    Comparison,
    CreateTable,
    Delete,
    Expr,
    InList,
    Insert,
    IsNull,
    Literal,
    NotOp,
    OrderItem,
    Rollback,
    Select,
    SelectItem,
    Statement,
    Update,
)
from repro.sql.lexer import Token, tokenize

_TYPE_ALIASES = {"INT": "INT", "INTEGER": "INT", "TEXT": "TEXT",
                 "FLOAT": "FLOAT", "REAL": "FLOAT"}

_AGG_FUNCS = {"COUNT", "MAX", "MIN", "SUM", "AVG"}


class _Parser:
    def __init__(self, tokens: list[Token], text: str):
        self.tokens = tokens
        self.text = text
        self.pos = 0

    # -- token helpers ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def check_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.value in words

    def accept_kw(self, *words: str) -> str | None:
        if self.check_kw(*words):
            return self.advance().value
        return None

    def expect_kw(self, word: str) -> None:
        if not self.accept_kw(word):
            raise SqlError(
                f"expected {word} at position {self.peek().pos} in {self.text!r}"
            )

    def accept_punct(self, symbol: str) -> bool:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == symbol:
            self.advance()
            return True
        return False

    def expect_punct(self, symbol: str) -> None:
        if not self.accept_punct(symbol):
            raise SqlError(
                f"expected {symbol!r} at position {self.peek().pos} "
                f"in {self.text!r}"
            )

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return tok.value
        # Permit keywords that double as column names in apps (e.g. "key").
        if tok.kind == "kw" and tok.value in ("KEY", "MIN", "MAX", "COUNT"):
            self.advance()
            return tok.value.lower()
        raise SqlError(
            f"expected identifier at position {tok.pos} in {self.text!r}"
        )

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            raise SqlError(
                f"expected integer at position {tok.pos} in {self.text!r}"
            )
        self.advance()
        return tok.value

    # -- statements -------------------------------------------------------

    def parse_statement(self) -> Statement:
        if self.check_kw("SELECT"):
            return self.parse_select()
        if self.check_kw("INSERT"):
            return self.parse_insert()
        if self.check_kw("UPDATE"):
            return self.parse_update()
        if self.check_kw("DELETE"):
            return self.parse_delete()
        if self.check_kw("CREATE"):
            return self.parse_create()
        if self.accept_kw("BEGIN"):
            return Begin()
        if self.accept_kw("COMMIT"):
            return Commit()
        if self.accept_kw("ROLLBACK"):
            return Rollback()
        tok = self.peek()
        raise SqlError(
            f"unknown statement at position {tok.pos} in {self.text!r}"
        )

    def parse_select(self) -> Select:
        self.expect_kw("SELECT")
        items: tuple[SelectItem, ...]
        if self.accept_punct("*"):
            items = ()
        else:
            start = self.peek().pos
            out: list[SelectItem] = [self.parse_select_item()]
            while self.accept_punct(","):
                out.append(self.parse_select_item())
            # One tuple per list text (so one cached projection).
            text = self.text[start:self.peek().pos]
            items = _SELECT_LISTS.get(text) or tuple(out)
            if len(_SELECT_LISTS) < _PARSE_CACHE_LIMIT:
                _SELECT_LISTS.setdefault(text, items)
        self.expect_kw("FROM")
        table = self.expect_ident()
        where = self.parse_where()
        order_by: tuple[OrderItem, ...] = ()
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            orders = [self.parse_order_item()]
            while self.accept_punct(","):
                orders.append(self.parse_order_item())
            order_by = tuple(orders)
        limit = offset = None
        if self.accept_kw("LIMIT"):
            limit = self.expect_int()
            if self.accept_kw("OFFSET"):
                offset = self.expect_int()
        return Select(table, items, where, order_by, limit, offset)

    def parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias = None
        if self.accept_kw("AS"):
            alias = self.expect_ident()
        return SelectItem(expr, alias)

    def parse_order_item(self) -> OrderItem:
        column = self.expect_ident()
        descending = False
        if self.accept_kw("DESC"):
            descending = True
        else:
            self.accept_kw("ASC")
        return OrderItem(column, descending)

    def parse_insert(self) -> Insert:
        self.expect_kw("INSERT")
        self.expect_kw("INTO")
        table = self.expect_ident()
        columns: tuple[str, ...] = ()
        if self.accept_punct("("):
            cols = [self.expect_ident()]
            while self.accept_punct(","):
                cols.append(self.expect_ident())
            self.expect_punct(")")
            columns = tuple(cols)
        self.expect_kw("VALUES")
        rows: list[tuple[Expr, ...]] = []
        while True:
            self.expect_punct("(")
            values = [self.parse_expr()]
            while self.accept_punct(","):
                values.append(self.parse_expr())
            self.expect_punct(")")
            rows.append(tuple(values))
            if not self.accept_punct(","):
                break
        return Insert(table, columns, tuple(rows))

    def parse_update(self) -> Update:
        self.expect_kw("UPDATE")
        table = self.expect_ident()
        self.expect_kw("SET")
        assignments: list[tuple[str, Expr]] = []
        while True:
            column = self.expect_ident()
            self.expect_punct("=")
            assignments.append((column, self.parse_expr()))
            if not self.accept_punct(","):
                break
        return Update(table, tuple(assignments), self.parse_where())

    def parse_delete(self) -> Delete:
        self.expect_kw("DELETE")
        self.expect_kw("FROM")
        table = self.expect_ident()
        return Delete(table, self.parse_where())

    def parse_create(self) -> CreateTable:
        self.expect_kw("CREATE")
        self.expect_kw("TABLE")
        if_not_exists = False
        if self.accept_kw("IF"):
            self.expect_kw("NOT")
            self.expect_kw("EXISTS")
            if_not_exists = True
        table = self.expect_ident()
        self.expect_punct("(")
        columns = [self.parse_coldef()]
        while self.accept_punct(","):
            columns.append(self.parse_coldef())
        self.expect_punct(")")
        return CreateTable(table, tuple(columns), if_not_exists)

    def parse_coldef(self) -> ColumnDef:
        name = self.expect_ident()
        type_kw = self.accept_kw("INT", "INTEGER", "TEXT", "FLOAT", "REAL")
        if type_kw is None:
            raise SqlError(
                f"expected column type at position {self.peek().pos} "
                f"in {self.text!r}"
            )
        primary = auto = False
        if self.accept_kw("PRIMARY"):
            self.expect_kw("KEY")
            primary = True
        if self.accept_kw("AUTOINCREMENT"):
            auto = True
        return ColumnDef(name, _TYPE_ALIASES[type_kw], primary, auto)

    def parse_where(self) -> Expr | None:
        if self.accept_kw("WHERE"):
            return self.parse_expr()
        return None

    # -- expressions ------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        operands = [self.parse_and()]
        while self.accept_kw("OR"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return operands[0]
        return BoolOp("OR", tuple(operands))

    def parse_and(self) -> Expr:
        operands = [self.parse_not()]
        while self.accept_kw("AND"):
            operands.append(self.parse_not())
        if len(operands) == 1:
            return operands[0]
        return BoolOp("AND", tuple(operands))

    def parse_not(self) -> Expr:
        if self.accept_kw("NOT"):
            return NotOp(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_arith()
        tok = self.peek()
        if tok.kind == "punct" and tok.value in ("=", "!=", "<>", "<", "<=",
                                                 ">", ">="):
            op = self.advance().value
            if op == "<>":
                op = "!="
            return Comparison(op, left, self.parse_arith())
        if self.check_kw("LIKE"):
            self.advance()
            return Comparison("LIKE", left, self.parse_arith())
        if self.check_kw("IS"):
            self.advance()
            negated = bool(self.accept_kw("NOT"))
            self.expect_kw("NULL")
            return IsNull(left, negated)
        if self.check_kw("NOT") or self.check_kw("IN"):
            negated = bool(self.accept_kw("NOT"))
            self.expect_kw("IN")
            self.expect_punct("(")
            items = [self.parse_expr()]
            while self.accept_punct(","):
                items.append(self.parse_expr())
            self.expect_punct(")")
            return InList(left, tuple(items), negated)
        return left

    def parse_arith(self) -> Expr:
        left = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.value in ("+", "-"):
                op = self.advance().value
                left = BinaryOp(op, left, self.parse_term())
            else:
                return left

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.value in ("*", "/", "%"):
                op = self.advance().value
                left = BinaryOp(op, left, self.parse_factor())
            else:
                return left

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int" or tok.kind == "float" or tok.kind == "str":
            self.advance()
            return Literal(tok.value)
        if tok.kind == "punct" and tok.value == "-":
            self.advance()
            inner = self.parse_factor()
            if isinstance(inner, Literal) and isinstance(
                inner.value, (int, float)
            ):
                return Literal(-inner.value)
            return BinaryOp("-", Literal(0), inner)
        if tok.kind == "punct" and tok.value == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if tok.kind == "kw" and tok.value == "NULL":
            self.advance()
            return Literal(None)
        if tok.kind == "kw" and tok.value in _AGG_FUNCS:
            func = self.advance().value
            self.expect_punct("(")
            if self.accept_punct("*"):
                if func != "COUNT":
                    raise SqlError(f"{func}(*) is not supported")
                column = None
            else:
                column = self.expect_ident()
            self.expect_punct(")")
            return Aggregate(func, column)
        if tok.kind == "ident" or tok.kind == "kw":
            return ColumnRef(self.expect_ident())
        raise SqlError(
            f"unexpected token at position {tok.pos} in {self.text!r}"
        )


_PARSE_CACHE: dict[str, Statement] = {}
_PARSE_CACHE_LIMIT = 65536

#: SELECT-list text -> its items: statements that differ only past
#: FROM share them, and ``engine.project_rows``'s one projection.
_SELECT_LISTS: dict[str, tuple[SelectItem, ...]] = {}


def parse_sql(text: str) -> Statement:
    """Parse a single SQL statement (cached by exact text)."""
    cached = _PARSE_CACHE.get(text)
    if cached is not None:
        return cached
    parser = _Parser(tokenize(text), text)
    stmt = parser.parse_statement()
    parser.accept_punct(";")
    if parser.peek().kind != "eof":
        raise SqlError(
            f"trailing input at position {parser.peek().pos} in {text!r}"
        )
    if len(_PARSE_CACHE) < _PARSE_CACHE_LIMIT:
        _PARSE_CACHE[text] = stmt
    return stmt


def parse_script(text: str) -> list[Statement]:
    """Parse a ';'-separated list of statements (used for schema setup)."""
    parser = _Parser(tokenize(text), text)
    statements: list[Statement] = []
    while parser.peek().kind != "eof":
        statements.append(parser.parse_statement())
        if not parser.accept_punct(";"):
            break
    if parser.peek().kind != "eof":
        raise SqlError("trailing input in script")
    return statements
