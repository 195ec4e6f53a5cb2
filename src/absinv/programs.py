"""Control-flow-graph programs: transfer functions, text format, collecting semantics.

A program is a finite set of control nodes connected by edges labeled with
transfer functions over n numeric variables x1..xn.  Supported labels:

- parallel affine assignments ``x := M x + b`` (a comma-separated list of
  single assignments; every right-hand side reads the OLD variable values),
- nondeterministic assignments ``xj := ?``,
- affine guards ``assume e ⋈ 0`` with ⋈ in {=, !=, <, <=, >, >=}, possibly
  several rows joined uniformly by ``and`` (conjunctive) or ``or``
  (disjunctive),
- ``skip`` (the identity relation).

The text format is line-oriented; see :func:`parse_program`.  Programs are
immutable after parsing and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping

Number = Any  # int (sort "int") or Fraction (sort "rat")

RELATIONS = ("=", "!=", "<", "<=", ">", ">=")


class ProgramSyntaxError(ValueError):
    """Parse or validation failure, with 1-based line/column position."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


@dataclass(frozen=True)
class LinExpr:
    """An affine expression  sum_i coeffs[i] * x_{i+1} + const."""

    coeffs: tuple[Number, ...]
    const: Number

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def eval(self, point: tuple[Number, ...]) -> Number:
        v = self.const
        for m, x in zip(self.coeffs, point, strict=True):
            v += m * x
        return v

    def is_constant(self) -> bool:
        return all(m == 0 for m in self.coeffs)

    def __str__(self) -> str:
        return render_linexpr(self)


def relation_holds(value: Number, rel: str) -> bool:
    """Does ``value ⋈ 0`` hold for the given relation symbol?"""
    if rel == "=":
        return value == 0
    if rel == "!=":
        return value != 0
    if rel == "<":
        return value < 0
    if rel == "<=":
        return value <= 0
    if rel == ">":
        return value > 0
    if rel == ">=":
        return value >= 0
    raise ValueError(f"unknown relation {rel!r}")


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """The identity relation (an unlabeled edge)."""


@dataclass(frozen=True)
class ParallelAffineAssign:
    """x := M x + b; row j is the expression assigned to x_{j+1}.

    All rows read the old variable values simultaneously.  Single
    assignments are represented as a row replacement of the identity.
    """

    rows: tuple[LinExpr, ...]

    @property
    def arity(self) -> int:
        return len(self.rows)

    def apply_point(self, v: tuple[Number, ...]) -> tuple[Number, ...]:
        return tuple(r.eval(v) for r in self.rows)


@dataclass(frozen=True)
class NondetAssign:
    """xj := ? — the target variable receives an arbitrary value."""

    target: int  # 1-based variable index


@dataclass(frozen=True)
class EqGuard:
    """assume row = 0 [and/or row = 0 ...]."""

    rows: tuple[LinExpr, ...]
    mode: str  # "conj" | "disj"


@dataclass(frozen=True)
class RelGuard:
    """assume row ⋈ 0 [and/or ...] with a single non-"=" relation symbol."""

    rows: tuple[LinExpr, ...]
    rel: str  # one of "!=", "<", "<=", ">", ">="
    mode: str  # "conj" | "disj"


TransferFunction = Identity | ParallelAffineAssign | NondetAssign | EqGuard | RelGuard


def identity_row(j: int, n: int, zero: Number, one: Number) -> LinExpr:
    coeffs = [zero] * n
    coeffs[j] = one
    return LinExpr(tuple(coeffs), zero)


# ---------------------------------------------------------------------------
# Initial-state declarations (domain-representation-free)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitTop:
    """All value vectors."""


@dataclass(frozen=True)
class InitBot:
    """No value vectors (the default for undeclared nodes)."""


#: Placeholder for an unconstrained coordinate in a vector literal.
TOP_ENTRY = "top"


@dataclass(frozen=True)
class InitVector:
    """A (c1,...,cn) literal; entries are numbers or the token ``top``."""

    entries: tuple[Any, ...]


@dataclass(frozen=True)
class InitPoints:
    """A finite point set {(..);(..)} to be abstracted by the chosen domain."""

    points: frozenset[tuple[Number, ...]]


@dataclass(frozen=True)
class InitConstraints:
    """A conjunction of affine equalities (rat sort only)."""

    rows: tuple[LinExpr, ...]


InitDecl = InitTop | InitBot | InitVector | InitPoints | InitConstraints


# ---------------------------------------------------------------------------
# Programs and state vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    src: str
    transfer: TransferFunction
    dst: str


@dataclass(frozen=True)
class Program:
    """A CFG program: nodes, variable count, value sort, labeled edges, inits.

    ``inits`` (a mapping or (node, decl) pairs) is stored as pairs in node
    order, so a program is immutable and hashable.
    """

    nodes: tuple[str, ...]
    n: int
    sort: str  # "int" | "rat"
    edges: tuple[Edge, ...]
    inits: Mapping[str, InitDecl] | tuple[tuple[str, InitDecl], ...]

    def __post_init__(self) -> None:
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ValueError("duplicate node names")
        for e in self.edges:
            if e.src not in known:
                raise ValueError(f"unknown node {e.src!r}")
            if e.dst not in known:
                raise ValueError(f"unknown node {e.dst!r}")
            check_transfer_arity(e.transfer, self.n)
        inits = dict(self.inits)
        for q in inits:
            if q not in known:
                raise ValueError(f"unknown node {q!r}")
        object.__setattr__(self, "inits", tuple((q, inits[q]) for q in self.nodes if q in inits))

    def init_decl(self, q: str) -> InitDecl:
        return next((decl for node, decl in self.inits if node == q), InitBot())


def check_transfer_arity(t: TransferFunction, n: int) -> None:
    if isinstance(t, ParallelAffineAssign):
        if len(t.rows) != n or any(r.arity != n for r in t.rows):
            raise ValueError("assignment dimension mismatch")
    elif isinstance(t, NondetAssign):
        if not 1 <= t.target <= n:
            raise ValueError("nondet assignment target out of range")
    elif isinstance(t, (EqGuard, RelGuard)):
        if any(r.arity != n for r in t.rows):
            raise ValueError("guard dimension mismatch")


class StateVector(Mapping[str, Any]):
    """An immutable node-indexed vector of abstract elements (total on Q)."""

    __slots__ = ("_nodes", "_values")

    def __init__(self, nodes: Iterable[str], values: Iterable[Any]):
        self._nodes = tuple(nodes)
        self._values = tuple(values)
        if len(self._nodes) != len(self._values):
            raise ValueError("state vector must be total on the node set")

    @classmethod
    def uniform(cls, nodes: Iterable[str], value: Any) -> "StateVector":
        nodes = tuple(nodes)
        return cls(nodes, (value,) * len(nodes))

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def values(self) -> tuple[Any, ...]:
        return self._values

    def __getitem__(self, q: str) -> Any:
        try:
            return self._values[self._nodes.index(q)]
        except ValueError:
            raise KeyError(q) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self._nodes == other._nodes and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._nodes, self._values))

    def __repr__(self) -> str:
        inner = " ".join(f"{q}={v!r}" for q, v in zip(self._nodes, self._values))
        return f"StateVector({inner})"

    def with_values(self, values: Iterable[Any]) -> "StateVector":
        return StateVector(self._nodes, values)


# ---------------------------------------------------------------------------
# Collecting semantics on finite point sets (test oracle helper)
# ---------------------------------------------------------------------------


def guard_holds(t: EqGuard | RelGuard, v: tuple[Number, ...]) -> bool:
    rel = "=" if isinstance(t, EqGuard) else t.rel
    results = (relation_holds(r.eval(v), rel) for r in t.rows)
    return all(results) if t.mode == "conj" else any(results)


def apply_transfer_concrete(
    t: TransferFunction,
    points: Iterable[tuple[Number, ...]],
    nondet_witnesses: Iterable[Number] = (),
) -> frozenset[tuple[Number, ...]]:
    """Exact collecting-semantics image of ``t`` on a finite point set.

    For :class:`NondetAssign` the infinite branching is restricted to the
    supplied witness values — a documented under-sampling used only by test
    oracles, never by the analysis itself.
    """
    pts = frozenset(points)
    if isinstance(t, Identity):
        return pts
    if isinstance(t, ParallelAffineAssign):
        return frozenset(t.apply_point(v) for v in pts)
    if isinstance(t, NondetAssign):
        witnesses = tuple(nondet_witnesses)
        if pts and not witnesses:
            raise ValueError("nondet assignment needs at least one witness value")
        j = t.target - 1
        return frozenset(v[:j] + (w,) + v[j + 1 :] for v in pts for w in witnesses)
    if isinstance(t, (EqGuard, RelGuard)):
        return frozenset(v for v in pts if guard_holds(t, v))
    raise TypeError(f"unknown transfer function {t!r}")


def post_edges_into(program: Program, q: str) -> list[tuple[str, TransferFunction]]:
    """All (source, transfer) pairs of edges with target ``q``."""
    if q not in program.nodes:
        raise ValueError(f"unknown node {q!r}")
    return [(e.src, e.transfer) for e in program.edges if e.dst == q]


def out_edges(program: Program, q: str) -> list[tuple[TransferFunction, str]]:
    """All (transfer, target) pairs of edges with source ``q``."""
    if q not in program.nodes:
        raise ValueError(f"unknown node {q!r}")
    return [(e.transfer, e.dst) for e in program.edges if e.src == q]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Tok:
    kind: str  # "ident" | "int" | "sym"
    text: str
    line: int
    col: int


_SYMBOLS = (":=", "->", "<=", ">=", "!=", "/\\", "(", ")", "{", "}", ",", ";", ":", "?", "*", "/", "+", "-", "=", "<", ">")


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Tok("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ProgramSyntaxError(f"unexpected character {ch!r}", line, col)
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def _here(self) -> tuple[int, int]:
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            return t.line, t.col
        if self.toks:
            t = self.toks[-1]
            return t.line, t.col + len(t.text)
        return 1, 1

    def fail(self, msg: str) -> ProgramSyntaxError:
        line, col = self._here()
        return ProgramSyntaxError(msg, line, col)

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "sym" and t.text == text

    def at_ident(self, text: str | None = None) -> bool:
        t = self.peek()
        return t is not None and t.kind == "ident" and (text is None or t.text == text)

    def take(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise self.fail("unexpected end of input")
        self.pos += 1
        return t

    def expect_sym(self, text: str) -> _Tok:
        if not self.at_sym(text):
            raise self.fail(f"expected {text!r}")
        return self.take()

    def expect_ident(self, text: str | None = None) -> _Tok:
        t = self.peek()
        if t is None or t.kind != "ident" or (text is not None and t.text != text):
            raise self.fail(f"expected {text or 'identifier'!r}")
        return self.take()

    # -- numbers and expressions -------------------------------------------

    def number(self, sort: str) -> Number:
        neg = False
        while self.at_sym("-") or self.at_sym("+"):
            if self.take().text == "-":
                neg = not neg
        t = self.peek()
        if t is None or t.kind != "int":
            raise self.fail("expected a number")
        self.take()
        num = int(t.text)
        if sort == "rat" and self.at_sym("/"):
            self.take()
            d = self.peek()
            if d is None or d.kind != "int":
                raise self.fail("expected a denominator")
            self.take()
            if int(d.text) == 0:
                raise ProgramSyntaxError("zero denominator", d.line, d.col)
            value: Number = Fraction(num, int(d.text))
        else:
            value = Fraction(num) if sort == "rat" else num
        return -value if neg else value

    def var_index(self, n: int) -> int:
        t = self.expect_ident()
        name = t.text
        if not (name.startswith("x") and name[1:].isdigit()):
            raise ProgramSyntaxError(f"expected a variable x1..x{n}", t.line, t.col)
        j = int(name[1:])
        if not 1 <= j <= n:
            raise ProgramSyntaxError(f"variable {name} out of range (n={n})", t.line, t.col)
        return j

    def linexpr(self, n: int, sort: str) -> LinExpr:
        """Affine sum of terms: [+-] (coef [* xj] | xj) ..."""
        zero: Number = Fraction(0) if sort == "rat" else 0
        coeffs = [zero] * n
        const = zero
        first = True
        while True:
            sign = 1
            saw_sign = False
            while self.at_sym("+") or self.at_sym("-"):
                if self.take().text == "-":
                    sign = -sign
                saw_sign = True
            if not first and not saw_sign:
                break
            t = self.peek()
            if t is None:
                raise self.fail("expected a term")
            if t.kind == "int":
                coef = self.number(sort)
                if self.at_sym("*"):
                    self.take()
                    j = self.var_index(n)
                    coeffs[j - 1] += sign * coef
                else:
                    const += sign * coef
            elif t.kind == "ident" and t.text.startswith("x"):
                j = self.var_index(n)
                one: Number = Fraction(1) if sort == "rat" else 1
                coeffs[j - 1] += sign * one
            else:
                if first:
                    raise self.fail("expected a term")
                break
            first = False
        return LinExpr(tuple(coeffs), const)

    def equation(self, n: int, sort: str) -> tuple[LinExpr, str]:
        """Parse ``lhs ⋈ rhs`` into the row ``lhs - rhs`` and the relation ⋈."""
        lhs = self.linexpr(n, sort)
        rel = self.relop()
        rhs = self.linexpr(n, sort)
        row = LinExpr(tuple(a - b for a, b in zip(lhs.coeffs, rhs.coeffs)), lhs.const - rhs.const)
        return row, rel

    def relop(self) -> str:
        for rel in ("<=", ">=", "!=", "=", "<", ">"):
            if self.at_sym(rel):
                self.take()
                return rel
        raise self.fail("expected a relation symbol (=, !=, <, <=, >, >=)")


def _parse_guard_rows(p: _Parser, n: int, sort: str) -> tuple[tuple[LinExpr, ...], str, str]:
    """Parse 'assume e ⋈ e [and/or [assume] e ⋈ e ...]' → (rows, rel, mode)."""
    rows: list[LinExpr] = []
    rels: list[str] = []
    mode: str | None = None
    while True:
        row, rel = p.equation(n, sort)
        rows.append(row)
        rels.append(rel)
        if p.at_ident("and") or p.at_ident("or"):
            word = p.take().text
            this = "conj" if word == "and" else "disj"
            if mode is not None and mode != this:
                raise p.fail("cannot mix 'and' and 'or' in one guard")
            mode = this
            if p.at_ident("assume"):
                p.take()
            continue
        break
    if len(set(rels)) > 1:
        raise p.fail("mixed relation symbols in one guard are not supported")
    return tuple(rows), rels[0], mode or "conj"


def _parse_statements(p: _Parser, n: int, sort: str) -> TransferFunction:
    if p.at_ident("skip"):
        p.take()
        return Identity()
    if p.at_ident("assume"):
        p.take()
        rows, rel, mode = _parse_guard_rows(p, n, sort)
        if rel == "=":
            return EqGuard(rows, mode)
        if sort == "rat" and rel != "!=":
            raise p.fail(f"inequality guard {rel!r} is not supported for sort rat")
        return RelGuard(rows, rel, mode)
    # one or more assignments, comma separated, applied in parallel
    zero: Number = Fraction(0) if sort == "rat" else 0
    one: Number = Fraction(1) if sort == "rat" else 1
    rows: list[LinExpr | None] = [None] * n
    nondet_targets: list[int] = []
    while True:
        j = p.var_index(n)
        p.expect_sym(":=")
        if rows[j - 1] is not None or (j in nondet_targets):
            raise p.fail(f"variable x{j} assigned twice on one edge")
        if p.at_sym("?"):
            p.take()
            nondet_targets.append(j)
        else:
            rows[j - 1] = p.linexpr(n, sort)
        if p.at_sym(","):
            p.take()
            continue
        break
    if nondet_targets:
        if len(nondet_targets) > 1 or any(r is not None for r in rows):
            raise p.fail("xj := ? cannot be combined with other assignments on one edge")
        return NondetAssign(nondet_targets[0])
    filled = tuple(
        identity_row(i, n, zero, one) if r is None else r for i, r in enumerate(rows)
    )
    if all(r == identity_row(i, n, zero, one) for i, r in enumerate(filled)):
        return Identity()
    return ParallelAffineAssign(filled)


def _parse_init_literal(p: _Parser, n: int, sort: str) -> InitDecl:
    if p.at_ident("top"):
        p.take()
        return InitTop()
    if p.at_ident("bot"):
        p.take()
        return InitBot()
    if p.at_sym("("):
        p.take()
        entries: list[Any] = []
        while True:
            if p.at_ident("top"):
                p.take()
                entries.append(TOP_ENTRY)
            else:
                entries.append(p.number(sort))
            if p.at_sym(","):
                p.take()
                continue
            break
        p.expect_sym(")")
        if len(entries) != n:
            raise p.fail(f"vector literal has {len(entries)} entries, expected {n}")
        return InitVector(tuple(entries))
    if p.at_sym("{"):
        p.take()
        points: list[tuple[Number, ...]] = []
        while True:
            p.expect_sym("(")
            pt: list[Number] = []
            while True:
                pt.append(p.number(sort))
                if p.at_sym(","):
                    p.take()
                    continue
                break
            p.expect_sym(")")
            if len(pt) != n:
                raise p.fail(f"point has {len(pt)} coordinates, expected {n}")
            points.append(tuple(pt))
            if p.at_sym(";") and not p.at_sym("}"):
                # point separator inside braces
                p.take()
                if p.at_sym("}"):
                    break
                continue
            break
        p.expect_sym("}")
        return InitPoints(frozenset(points))
    # constraint conjunction (rat sort only)
    if sort != "rat":
        raise p.fail("expected top, bot, (c1,...,cn) or {(..);(..)}")
    rows: list[LinExpr] = []
    while True:
        row, rel = p.equation(n, sort)
        if rel != "=":
            raise p.fail("constraint literals must use '='")
        rows.append(row)
        if p.at_sym("/\\"):
            p.take()
            continue
        break
    return InitConstraints(tuple(rows))


def parse_init_literal(text: str, n: int, sort: str) -> InitDecl:
    """Parse a standalone element literal (used for CLI --prop values)."""
    p = _Parser(_tokenize(text))
    decl = _parse_init_literal(p, n, sort)
    if p.peek() is not None:
        raise p.fail("trailing input after literal")
    return decl


def parse_program(text: str) -> Program:
    """Parse the line-oriented program format.

    Declarations (each terminated by ';', comments run from '#' to the end
    of the line)::

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
    respectively.
    """
    p = _Parser(_tokenize(text))
    n: int | None = None
    sort: str | None = None
    nodes: list[str] | None = None
    inits: dict[str, InitDecl] = {}
    edges: list[Edge] = []
    declared: set[str] = set()

    def require_header() -> tuple[int, str, list[str]]:
        if n is None:
            raise p.fail("'vars' must be declared first")
        if sort is None:
            raise p.fail("'sort' must be declared before this line")
        if nodes is None:
            raise p.fail("'nodes' must be declared before this line")
        return n, sort, nodes

    while p.peek() is not None:
        kw = p.expect_ident()
        if kw.text in ("vars", "sort", "nodes"):
            if kw.text in declared:
                raise ProgramSyntaxError(f"'{kw.text}' is declared twice", kw.line, kw.col)
            declared.add(kw.text)
        if kw.text == "vars":
            t = p.peek()
            if t is None or t.kind != "int":
                raise p.fail("expected a variable count")
            p.take()
            n = int(t.text)
            if n < 1:
                raise ProgramSyntaxError("variable count must be >= 1", t.line, t.col)
        elif kw.text == "sort":
            t = p.expect_ident()
            if t.text not in ("int", "rat"):
                raise ProgramSyntaxError("sort must be 'int' or 'rat'", t.line, t.col)
            sort = t.text
        elif kw.text == "nodes":
            nodes = []
            while p.at_ident() and not p.at_sym(";"):
                nodes.append(p.expect_ident().text)
            if not nodes:
                raise p.fail("expected at least one node name")
        elif kw.text == "init":
            nn, ss, nds = require_header()
            t = p.expect_ident()
            if t.text not in nds:
                raise ProgramSyntaxError(f"unknown node {t.text!r}", t.line, t.col)
            if t.text in inits:
                raise ProgramSyntaxError(f"node {t.text!r} has a second init", t.line, t.col)
            p.expect_sym(":")
            inits[t.text] = _parse_init_literal(p, nn, ss)
        elif kw.text == "edge":
            nn, ss, nds = require_header()
            src = p.expect_ident()
            if src.text not in nds:
                raise ProgramSyntaxError(f"unknown node {src.text!r}", src.line, src.col)
            p.expect_sym("->")
            dst = p.expect_ident()
            if dst.text not in nds:
                raise ProgramSyntaxError(f"unknown node {dst.text!r}", dst.line, dst.col)
            p.expect_sym(":")
            tf = _parse_statements(p, nn, ss)
            edges.append(Edge(src.text, tf, dst.text))
        else:
            raise ProgramSyntaxError(f"unknown declaration {kw.text!r}", kw.line, kw.col)
        p.expect_sym(";")

    if n is None or sort is None or nodes is None:
        raise p.fail("program must declare vars, sort and nodes")
    return Program(tuple(nodes), n, sort, tuple(edges), inits)


# ---------------------------------------------------------------------------
# Printer (canonical text; parse ∘ print is the identity)
# ---------------------------------------------------------------------------


def _render_number(v: Number) -> str:
    return str(v)


def render_linexpr(e: LinExpr) -> str:
    parts: list[str] = []
    for i, m in enumerate(e.coeffs):
        if m == 0:
            continue
        mag = -m if m < 0 else m
        term = f"x{i + 1}" if mag == 1 else f"{_render_number(mag)}*x{i + 1}"
        parts.append(("-" if m < 0 else ("+" if parts else "")) + term)
    if e.const != 0 or not parts:
        c = e.const
        mag = -c if c < 0 else c
        parts.append(("-" if c < 0 else ("+" if parts else "")) + _render_number(mag))
    return "".join(parts)


def render_transfer(t: TransferFunction, n: int, sort: str) -> str:
    if isinstance(t, Identity):
        return "skip"
    if isinstance(t, NondetAssign):
        return f"x{t.target} := ?"
    if isinstance(t, ParallelAffineAssign):
        zero: Number = Fraction(0) if sort == "rat" else 0
        one: Number = Fraction(1) if sort == "rat" else 1
        parts = [
            f"x{i + 1} := {render_linexpr(r)}"
            for i, r in enumerate(t.rows)
            if r != identity_row(i, n, zero, one)
        ]
        return ", ".join(parts)
    rel = "=" if isinstance(t, EqGuard) else t.rel
    joiner = " and " if t.mode == "conj" else " or "
    return joiner.join(f"assume {render_linexpr(r)} {rel} 0" for r in t.rows)


def render_init(decl: InitDecl) -> str:
    if isinstance(decl, InitTop):
        return "top"
    if isinstance(decl, InitBot):
        return "bot"
    if isinstance(decl, InitVector):
        return "(" + ",".join(TOP_ENTRY if e == TOP_ENTRY else _render_number(e) for e in decl.entries) + ")"
    if isinstance(decl, InitPoints):
        pts = sorted(decl.points)
        return "{" + ";".join("(" + ",".join(_render_number(v) for v in pt) + ")" for pt in pts) + "}"
    if isinstance(decl, InitConstraints):
        return " /\\ ".join(f"{render_linexpr(r)} = 0" for r in decl.rows)
    raise TypeError(f"unknown init declaration {decl!r}")


def print_program(program: Program) -> str:
    lines = [
        f"vars {program.n};",
        f"sort {program.sort};",
        "nodes " + " ".join(program.nodes) + ";",
    ]
    for q in program.nodes:
        decl = program.init_decl(q)
        if not isinstance(decl, InitBot):
            lines.append(f"init {q}: {render_init(decl)};")
    for e in program.edges:
        lines.append(f"edge {e.src} -> {e.dst} : {render_transfer(e.transfer, program.n, program.sort)};")
    return "\n".join(lines) + "\n"
