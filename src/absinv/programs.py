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

The text format is line-oriented; see :func:`parse_program` for its
declarations.  Lexically, blanks are space, tab and CR; a comment runs from
``#`` to the end of the line.  An integer is a run of decimal digits (any
script's, so ``٣`` is 3; ``²`` is not a digit).  An identifier is a run of
letters, digits and ``_`` that does not start with a decimal digit; a
variable is ``x`` followed by decimal digits.  The symbols are
``:= -> <= >= != /\\ ( ) { } , ; : ? * / + - = < >``; any other character is
an error.  ``vars`` is at most :data:`MAX_VARS`.  :func:`print_program`
output parses back to a program that prints to the same text.  Programs are
immutable after parsing and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

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
# Text format: tokenizer and parser
# ---------------------------------------------------------------------------

#: Largest accepted ``vars`` count.  Every benchmark workload has n <= 12;
#: the bound keeps the n * n coefficients each assignment edge stores small.
MAX_VARS = 64

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

    def signs(self) -> int | None:
        """The product of a run of '+'/'-' tokens, or None if there is none."""
        sign = None
        while (t := self.peek("sym")) is not None and t.text in ("+", "-"):
            self.pos += 1
            sign = (sign or 1) * (-1 if t.text == "-" else 1)
        return sign

    def number(self, sort: str) -> Number:
        sign = self.signs() or 1
        num = int(self.expect("int", what="expected a number").text)
        if sort != "rat":
            return sign * num
        if not self.accept("/"):
            return sign * Fraction(num)
        d = self.expect("int", what="expected a denominator")
        if int(d.text) == 0:
            raise ProgramSyntaxError("zero denominator", d.line, d.col)
        return sign * Fraction(num, int(d.text))

    def var_index(self, n: int) -> int:
        t = self.expect("ident")
        name = t.text
        if not (name.startswith("x") and name[1:].isdecimal()):
            raise ProgramSyntaxError(f"expected a variable x1..x{n}", t.line, t.col)
        j = int(name[1:])
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
        if rel == "=":
            return EqGuard(rows, mode)
        if sort == "rat" and rel != "!=":
            raise p.fail(f"inequality guard {rel!r} is not supported for sort rat")
        return RelGuard(rows, rel, mode)
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
    ids = tuple(identity_row(i, n, *_numbers(sort)) for i in range(n))
    rows = tuple(ident if r is None else r for ident, r in zip(ids, assigned))
    return Identity() if rows == ids else ParallelAffineAssign(rows)


def _parse_init_literal(p: _Parser, n: int, sort: str) -> InitDecl:
    if p.accept("top"):
        return InitTop()
    if p.accept("bot"):
        return InitBot()
    if p.accept("("):
        entries = p.sequence(lambda: TOP_ENTRY if p.accept("top") else p.number(sort), ",")
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
            n = int(t.text)
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
                nodes.append(p.expect("ident").text)
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
            edges.append(Edge(src.text, _parse_statements(p, nn, ss), dst.text))
        else:
            raise ProgramSyntaxError(f"unknown declaration {kw.text!r}", kw.line, kw.col)
        p.expect("sym", ";")

    if n is None or sort is None or nodes is None:
        raise p.fail("program must declare vars, sort and nodes")
    return Program(tuple(nodes), n, sort, tuple(edges), inits)


# ---------------------------------------------------------------------------
# Printer (canonical text; print ∘ parse ∘ print is print)
# ---------------------------------------------------------------------------


def render_linexpr(e: LinExpr) -> str:
    parts: list[str] = []
    for i, m in enumerate(e.coeffs):
        if m == 0:
            continue
        mag = -m if m < 0 else m
        term = f"x{i + 1}" if mag == 1 else f"{mag}*x{i + 1}"
        parts.append(("-" if m < 0 else ("+" if parts else "")) + term)
    if e.const != 0 or not parts:
        c = e.const
        mag = -c if c < 0 else c
        parts.append(("-" if c < 0 else ("+" if parts else "")) + str(mag))
    return "".join(parts)


def render_transfer(t: TransferFunction, n: int, sort: str) -> str:
    if isinstance(t, Identity):
        return "skip"
    if isinstance(t, NondetAssign):
        return f"x{t.target} := ?"
    if isinstance(t, ParallelAffineAssign):
        parts = [
            f"x{i + 1} := {render_linexpr(r)}"
            for i, r in enumerate(t.rows)
            if r != identity_row(i, n, *_numbers(sort))
        ]
        return ", ".join(parts) or "skip"
    rel = "=" if isinstance(t, EqGuard) else t.rel
    joiner = " and " if t.mode == "conj" else " or "
    return joiner.join(f"assume {render_linexpr(r)} {rel} 0" for r in t.rows)


def render_init(decl: InitDecl) -> str:
    if isinstance(decl, InitTop):
        return "top"
    if isinstance(decl, InitBot):
        return "bot"
    if isinstance(decl, InitVector):
        return "(" + ",".join(map(str, decl.entries)) + ")"
    if isinstance(decl, InitPoints):
        pts = sorted(decl.points)
        return "{" + ";".join("(" + ",".join(map(str, pt)) + ")" for pt in pts) + "}"
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
