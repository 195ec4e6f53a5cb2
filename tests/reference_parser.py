"""Reference tokenizer and parser of the program text format.

A ``_TOKEN.match`` loop builds one ``_Tok`` per token with its line and
column, and the parser reads those tokens.  Tests compare
:func:`parse_program` and :func:`parse_init_literal` here with those of
:mod:`absinv.programs`, which tokenizes in one ``findall`` pass and computes
positions only for errors.

The messages are the same but one: a non-identifier where an identifier is
due reads ``expected 'identifier'`` here and ``expected an identifier`` (or,
where a variable is due, ``expected a variable x1..xn``) in
:mod:`absinv.programs`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from absinv.programs import (
    MAX_VARS, RELATIONS, TOP, Guard, Identity, InitBot, InitConstraints, InitDecl,
    InitPoints, InitTop, InitVector, LinExpr, NondetAssign, Number, ParallelAffineAssign, Program,
    ProgramSyntaxError, TransferFunction,
)

_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<blanks>[ \t\r]+)|(?P<comment>#[^\n]*)|(?P<int>\d+)"
    r"|(?P<ident>[^\W\d]\w*)|(?P<sym>:=|->|<=|>=|!=|/\\|[(){},;:?*/+\-=<>])"
)


class _Tok(NamedTuple):
    kind: str  # "int" | "ident" | "sym"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ProgramSyntaxError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, pos + 1
        elif kind in ("int", "ident", "sym"):
            toks.append(_Tok(kind, m.group(), line, pos - line_start + 1))
        pos = m.end()
    return toks


def _numbers(sort: str) -> tuple[Number, Number]:
    """Zero and one of the value sort."""
    return (Fraction(0), Fraction(1)) if sort == "rat" else (0, 1)


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def fail(self, msg: str) -> ProgramSyntaxError:
        """An error at the next token, or just past the last one."""
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            return ProgramSyntaxError(msg, t.line, t.col)
        if self.toks:
            t = self.toks[-1]
            return ProgramSyntaxError(msg, t.line, t.col + len(t.text))
        return ProgramSyntaxError(msg, 1, 1)

    def peek(self, kind: str | None = None, text: str | None = None) -> _Tok | None:
        """The next token, if there is one of this kind and text (None: any)."""
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            if (kind is None or t.kind == kind) and (text is None or t.text == text):
                return t
        return None

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is ``text``."""
        found = self.peek(text=text) is not None
        self.pos += found
        return found

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> _Tok:
        """Consume the next token, which must match ``peek(kind, text)``."""
        t = self.peek(kind, text)
        if t is None:
            raise self.fail(what or f"expected {text or 'identifier'!r}")
        self.pos += 1
        return t

    def sequence(self, item: Callable[[], Any], sep: str, end: str | None = None) -> list[Any]:
        """``item {sep item}``; a ``sep`` right before ``end`` ends the list."""
        items = [item()]
        while self.accept(sep) and not (end and self.peek(text=end)):
            items.append(item())
        return items

    # -- numbers and expressions -------------------------------------------

    def integer(self, t: _Tok, start: int = 0) -> int:
        """The decimal value of ``t.text[start:]``, an error at ``t`` if too long."""
        try:
            return int(t.text[start:])
        except ValueError:  # more digits than Python converts
            raise ProgramSyntaxError("number has too many digits", t.line, t.col) from None

    def signs(self) -> int | None:
        """The product of a run of '+'/'-' tokens, or None if there is none."""
        sign = None
        while (t := self.peek("sym")) is not None and t.text in ("+", "-"):
            self.pos += 1
            sign = (sign or 1) * (-1 if t.text == "-" else 1)
        return sign

    def number(self, sort: str) -> Number:
        sign = self.signs() or 1
        num = self.integer(self.expect("int", what="expected a number"))
        if sort != "rat":
            return sign * num
        if not self.accept("/"):
            return sign * Fraction(num)
        d = self.expect("int", what="expected a denominator")
        den = self.integer(d)
        if den == 0:
            raise ProgramSyntaxError("zero denominator", d.line, d.col)
        return sign * Fraction(num, den)

    def var_index(self, n: int) -> int:
        t = self.expect("ident")
        name = t.text
        if not (name.startswith("x") and name[1:].isdecimal()):
            raise ProgramSyntaxError(f"expected a variable x1..x{n}", t.line, t.col)
        j = self.integer(t, 1)
        if not 1 <= j <= n:
            raise ProgramSyntaxError(f"variable {name} out of range (n={n})", t.line, t.col)
        return j

    def linexpr(self, n: int, sort: str) -> LinExpr:
        """Affine sum of terms: [+-] (coef [* xj] | xj) ..."""
        zero, one = _numbers(sort)
        coeffs = [zero] * n
        const = zero
        first = True
        while True:
            sign = self.signs()
            if sign is None and not first:
                break
            sign = sign or 1
            t = self.peek()
            if t is None:
                raise self.fail("expected a term")
            if t.kind == "int":
                coef = sign * self.number(sort)
                if self.accept("*"):
                    coeffs[self.var_index(n) - 1] += coef
                else:
                    const += coef
            elif t.kind == "ident" and t.text.startswith("x"):
                coeffs[self.var_index(n) - 1] += sign * one
            elif first:
                raise self.fail("expected a term")
            else:
                break
            first = False
        return LinExpr(tuple(coeffs), const)

    def equation(self, n: int, sort: str) -> tuple[LinExpr, str]:
        """Parse ``lhs ⋈ rhs`` into the row ``lhs - rhs`` and the relation ⋈."""
        lhs = self.linexpr(n, sort)
        rel = self.peek("sym")
        if rel is None or rel.text not in RELATIONS:
            raise self.fail("expected a relation symbol (=, !=, <, <=, >, >=)")
        self.pos += 1
        rhs = self.linexpr(n, sort)
        row = LinExpr(tuple(a - b for a, b in zip(lhs.coeffs, rhs.coeffs)), lhs.const - rhs.const)
        return row, rel.text


def _parse_guard_rows(p: _Parser, n: int, sort: str) -> tuple[tuple[LinExpr, ...], str, str]:
    """Parse 'assume e ⋈ e [and/or [assume] e ⋈ e ...]' → (rows, rel, mode)."""
    rows: list[LinExpr] = []
    rels: list[str] = []
    mode: str | None = None
    while True:
        row, rel = p.equation(n, sort)
        rows.append(row)
        rels.append(rel)
        this = "conj" if p.accept("and") else "disj" if p.accept("or") else None
        if this is None:
            break
        if mode not in (None, this):
            raise p.fail("cannot mix 'and' and 'or' in one guard")
        mode = this
        p.accept("assume")
    if len(set(rels)) > 1:
        raise p.fail("mixed relation symbols in one guard are not supported")
    return tuple(rows), rels[0], mode or "conj"


def _parse_statements(p: _Parser, n: int, sort: str) -> TransferFunction:
    if p.accept("skip"):
        return Identity()
    if p.accept("assume"):
        rows, rel, mode = _parse_guard_rows(p, n, sort)
        if sort == "rat" and rel not in ("=", "!="):
            raise p.fail(f"inequality guard {rel!r} is not supported for sort rat")
        return Guard(rows, rel, mode)
    # one or more assignments, comma separated, applied in parallel
    assigned: list[LinExpr | None] = [None] * n
    nondet_targets: list[int] = []

    def assignment() -> None:
        j = p.var_index(n)
        p.expect("sym", ":=")
        if assigned[j - 1] is not None or j in nondet_targets:
            raise p.fail(f"variable x{j} assigned twice on one edge")
        if p.accept("?"):
            nondet_targets.append(j)
        else:
            assigned[j - 1] = p.linexpr(n, sort)

    p.sequence(assignment, ",")
    if nondet_targets:
        if len(nondet_targets) > 1 or any(r is not None for r in assigned):
            raise p.fail("xj := ? cannot be combined with other assignments on one edge")
        return NondetAssign(nondet_targets[0])
    zero, one = _numbers(sort)
    ids = [LinExpr(tuple(one if i == j else zero for i in range(n)), zero) for j in range(n)]
    rows = [(j, r) for j, (r, ident) in enumerate(zip(assigned, ids)) if r is not None and r != ident]
    return ParallelAffineAssign(tuple(rows)) if rows else Identity()


def _parse_init_literal(p: _Parser, n: int, sort: str) -> InitDecl:
    if p.accept("top"):
        return InitTop()
    if p.accept("bot"):
        return InitBot()
    if p.accept("("):
        entries = p.sequence(lambda: TOP if p.accept("top") else p.number(sort), ",")
        p.expect("sym", ")")
        if len(entries) != n:
            raise p.fail(f"vector literal has {len(entries)} entries, expected {n}")
        return InitVector(tuple(entries))
    if p.accept("{"):

        def point() -> tuple[Number, ...]:
            p.expect("sym", "(")
            pt = p.sequence(lambda: p.number(sort), ",")
            p.expect("sym", ")")
            if len(pt) != n:
                raise p.fail(f"point has {len(pt)} coordinates, expected {n}")
            return tuple(pt)

        points = p.sequence(point, ";", end="}")
        p.expect("sym", "}")
        return InitPoints(frozenset(points))
    # constraint conjunction (rat sort only)
    if sort != "rat":
        raise p.fail("expected top, bot, (c1,...,cn) or {(..);(..)}")

    def constraint() -> LinExpr:
        row, rel = p.equation(n, sort)
        if rel != "=":
            raise p.fail("constraint literals must use '='")
        return row

    return InitConstraints(tuple(p.sequence(constraint, "/\\")))


def parse_init_literal(text: str, n: int, sort: str) -> InitDecl:
    """Parse a standalone element literal (used for CLI --prop values)."""
    p = _Parser(text)
    decl = _parse_init_literal(p, n, sort)
    if p.peek() is not None:
        raise p.fail("trailing input after literal")
    return decl


def parse_program(text: str) -> Program:
    """Parse the line-oriented program format.

    Declarations (each terminated by ';')::

        vars n;
        sort int|rat;
        nodes q1 q2 ...;
        init qk: top | bot | (c1,...,cn) | {(v,..);(v,..)} | e=0 /\\ ...;
        edge qa -> qb : stmt {, stmt};

    where stmt is ``xj := <affine expr>``, ``xj := ?``, ``skip``, or
    ``assume <affine expr> <op> <affine expr>`` with op in
    {=, !=, <, <=, >, >=}; several assume rows may be joined uniformly by
    ``and`` / ``or``.  Constraint-style init literals (and inequality guard
    relations other than ``!=``) are only available for sort rat / sort int
    respectively.  ``n`` is at most :data:`MAX_VARS`.  The lexical rules are
    in the module docstring.
    """
    p = _Parser(text)
    n: int | None = None
    sort: str | None = None
    nodes: list[str] | None = None
    inits: dict[str, InitDecl] = {}
    edges: list[tuple[int, TransferFunction, int]] = []
    declared: set[str] = set()

    def require_header() -> tuple[int, str, list[str]]:
        if n is None:
            raise p.fail("'vars' must be declared first")
        if sort is None:
            raise p.fail("'sort' must be declared before this line")
        if nodes is None:
            raise p.fail("'nodes' must be declared before this line")
        return n, sort, nodes

    def node(known: list[str]) -> _Tok:
        t = p.expect("ident")
        if t.text not in known:
            raise ProgramSyntaxError(f"unknown node {t.text!r}", t.line, t.col)
        return t

    while p.peek() is not None:
        kw = p.expect("ident")
        if kw.text in ("vars", "sort", "nodes"):
            if kw.text in declared:
                raise ProgramSyntaxError(f"'{kw.text}' is declared twice", kw.line, kw.col)
            declared.add(kw.text)
        if kw.text == "vars":
            t = p.expect("int", what="expected a variable count")
            n = p.integer(t)
            if n < 1:
                raise ProgramSyntaxError("variable count must be >= 1", t.line, t.col)
            if n > MAX_VARS:
                raise ProgramSyntaxError(f"variable count must be <= {MAX_VARS}", t.line, t.col)
        elif kw.text == "sort":
            t = p.expect("ident")
            if t.text not in ("int", "rat"):
                raise ProgramSyntaxError("sort must be 'int' or 'rat'", t.line, t.col)
            sort = t.text
        elif kw.text == "nodes":
            nodes = []
            while p.peek("ident"):
                t = p.expect("ident")
                if t.text in nodes:
                    raise ProgramSyntaxError(f"duplicate node name {t.text!r}", t.line, t.col)
                nodes.append(t.text)
            if not nodes:
                raise p.fail("expected at least one node name")
        elif kw.text == "init":
            nn, ss, nds = require_header()
            q = node(nds)
            if q.text in inits:
                raise ProgramSyntaxError(f"node {q.text!r} has a second init", q.line, q.col)
            p.expect("sym", ":")
            inits[q.text] = _parse_init_literal(p, nn, ss)
        elif kw.text == "edge":
            nn, ss, nds = require_header()
            src = node(nds)
            p.expect("sym", "->")
            dst = node(nds)
            p.expect("sym", ":")
            edges.append((nds.index(src.text), _parse_statements(p, nn, ss), nds.index(dst.text)))
        else:
            raise ProgramSyntaxError(f"unknown declaration {kw.text!r}", kw.line, kw.col)
        p.expect("sym", ";")

    if n is None or sort is None or nodes is None:
        raise p.fail("program must declare vars, sort and nodes")
    return Program(tuple(nodes), n, sort, tuple(edges), inits)
