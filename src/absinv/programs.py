"""Control-flow-graph programs: transfer functions, text format, collecting semantics.

A program is a finite set of control nodes connected by edges labeled with
transfer functions over n numeric variables x1..xn.  Supported labels:

- parallel affine assignments ``x := M x + b`` (a comma-separated list of
  single assignments; every right-hand side reads the OLD variable values),
- nondeterministic assignments ``xj := ?``,
- affine guards ``assume e ⋈ 0`` with ⋈ in {=, !=, <, <=, >, >=}, possibly
  several rows joined uniformly by ``and`` (conjunctive) or ``or``
  (disjunctive): one :class:`Guard` ``(rows, rel, mode)`` whatever the
  relation,
- ``skip`` (the identity relation).

The text format is line-oriented; see :func:`parse_program` for its
declarations.  Lexically, blanks are space, tab and CR; a comment runs from
``#`` to the end of the line.  An integer is a run of decimal digits (any
script's, so ``٣`` is 3; ``²`` is not a digit).  An identifier is a run of
letters, digits and ``_`` that does not start with a decimal digit; a
variable is ``x`` followed by decimal digits.  The symbols are
``:= -> <= >= != /\\ ( ) { } , ; : ? * / + - = < >``; any other character is
an error.  ``vars`` is at most :data:`MAX_VARS`.  The text is tokenized in
one ``re.findall`` pass whose every match is a token, the blanks and
comments before it included and the end of the text an empty token; an
unexpected character takes the rest of the text as the last token.  A
token's kind follows from its first character and is read where the
grammar asks for it; the line and column of a syntax error are computed
only when it is raised, by scanning the text again.  Edges of one program
whose labels have the same tokens share one transfer object, parsed once.
The parse gives each part the form the engines read: an edge is a (source
index, transfer, target index) triple, and an assignment holds only its
assigned rows, as (0-based target, expression) pairs.  The parser builds
each ``Program``, ``ParallelAffineAssign`` and ``Guard`` in the form its
constructor gives but skips the constructor's checks: its grammar rejects
each of those faults, with a line and column.  Objects built in code keep
every check.  :func:`print_program`
output parses back to a program that prints to the same text.  Programs
are immutable after parsing and safe to share across threads.

This module owns the question "is this a well-formed graph over n variables
of sort s?": :func:`check_edges` answers it for ``Program`` and for
``synthesis.AnalysisProblem``, and :data:`SORTS`, the one table of each
sort's numbers, says which entries a sort has, for transfers, literals and
constant slots alike (:func:`check_numbers`).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .lattice import memo

Number = Any  # int (sort "int") or Fraction (sort "rat")

#: Sort -> the types of its numbers (never ``bool`` or ``float``), and its zero and one.
SORTS = {"int": ((int,), 0, 1), "rat": ((int, Fraction), Fraction(0), Fraction(1))}

#: Relation symbol ⋈ -> the comparison of ``value ⋈ 0``.
RELATIONS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


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
    return RELATIONS[rel](value, 0)


def clear_denominators(values: Iterable[Number]) -> tuple[list[int], int]:
    """The values times the lcm of their denominators, as ``int``s, and that lcm."""
    ratios = [x.as_integer_ratio() for x in values]
    m = lcm(*(d for _, d in ratios))
    return [p * (m // d) for p, d in ratios], m


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """The identity relation (an unlabeled edge)."""


@dataclass(frozen=True)
class ParallelAffineAssign:
    """x := M x + b by its assigned rows: ``(j, e)`` pairs, in target order,
    that assign e to x_{j+1}; every e reads the old values, and a variable
    no row assigns keeps its value.  Construction sorts the pairs, drops the
    self-assignments ``xj := xj`` and rejects a repeated target; ``widths``
    are the coefficient counts of all rows given, checked against n by
    :func:`check_edges`."""

    rows: tuple[tuple[int, LinExpr], ...]
    widths: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = sorted(self.rows, key=operator.itemgetter(0))
        if len({j for j, _ in rows}) != len(rows):
            raise ValueError("an assignment target is repeated")
        object.__setattr__(self, "widths", frozenset([len(r.coeffs) for _, r in rows]))
        object.__setattr__(self, "rows", _moved(rows))

    def apply_point(self, v: tuple[Number, ...]) -> tuple[Number, ...]:
        rows = dict(self.rows)
        return tuple(rows[j].eval(v) if j in rows else x for j, x in enumerate(v))

    @memo
    def assigned(self) -> tuple[tuple[int, tuple[tuple[int, Number], ...], Number], ...]:
        """The rows as ``(j, ((i, c) for c != 0), const)``, 0-based."""
        return tuple((j, tuple([(i, c) for i, c in enumerate(r.coeffs) if c]), r.const) for j, r in self.rows)

    @memo
    def by_target(self) -> dict[int, tuple[tuple[tuple[int, Number], ...], Number]]:
        """``assigned`` keyed by its 0-based target slot: j -> (terms, const); read only."""
        return {j: (terms, const) for j, terms, const in self.assigned}

    @memo
    def scaled(self) -> tuple[int, tuple[tuple[int, tuple[tuple[int, int], ...], int], ...]]:
        """``(L, assigned × L)`` with ``int`` entries: L is the lcm of the
        denominators in ``assigned``."""
        ints, big = clear_denominators(
            x for _, terms, const in self.assigned for x in (*(c for _, c in terms), const)
        )
        it = iter(ints)
        return big, tuple(
            (j, tuple((i, next(it)) for i, _ in terms), next(it)) for j, terms, _ in self.assigned
        )


def _moved(rows: Iterable[tuple[int, LinExpr]]) -> tuple[tuple[int, LinExpr], ...]:
    """The (j, e) pairs, in their order, without the self-assignments ``xj := xj``: no
    constant, a 1 at j >= 0 and zeros elsewhere (the cheap tests come first)."""
    return tuple([(j, r) for j, r in rows
                  if r.const or j < 0 or r.coeffs[j : j + 1] != (1,) or r.coeffs.count(0) < len(r.coeffs) - 1])


@dataclass(frozen=True)
class NondetAssign:
    """xj := ? — the target variable receives an arbitrary value."""

    target: int  # 1-based variable index


@dataclass(frozen=True)
class Guard:
    """assume row ⋈ 0 [and/or row ⋈ 0 ...] with one relation ⋈ for all rows."""

    rows: tuple[LinExpr, ...]
    rel: str  # one of RELATIONS
    mode: str  # "conj" | "disj"

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a guard needs at least one row")
        if self.rel not in RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")
        if self.mode not in ("conj", "disj"):
            raise ValueError(f"unknown guard mode {self.mode!r}")
        if len(self.rows) == 1:  # the mode the parser gives one row
            object.__setattr__(self, "mode", "conj")

    @memo
    def cleared(self) -> tuple[LinExpr, ...]:
        """Each row times the lcm of its denominators: the same hyperplanes, ``int`` entries."""
        rows = (clear_denominators((*r.coeffs, r.const))[0] for r in self.rows)
        return tuple(LinExpr(tuple(ints[:-1]), ints[-1]) for ints in rows)


TransferFunction = Identity | ParallelAffineAssign | NondetAssign | Guard


# ---------------------------------------------------------------------------
# Initial-state declarations (domain-representation-free)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitTop:
    """All value vectors."""


@dataclass(frozen=True)
class InitBot:
    """No value vectors (the default for undeclared nodes)."""


class _Top(Enum):
    """The unknown value: an unconstrained entry of a vector literal and an
    unknown slot of a constant vector (``const_domain`` imports it).  Its one
    member is :data:`TOP`, so copy, deepcopy and pickle return the marker
    itself; it prints as ``top``."""

    TOP = "top"

    def __repr__(self) -> str:
        return "top"

    __str__ = __repr__


TOP = _Top.TOP


@dataclass(frozen=True)
class InitVector:
    """A (c1,...,cn) literal; entries are numbers or the marker :data:`TOP`,
    which both domains read as an unconstrained coordinate."""

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
class Program:
    """A CFG program: nodes, variable count, value sort, labeled edges, inits.

    ``edges`` are (source index, transfer, target index) triples over
    ``nodes``.  ``inits`` (a mapping or (node, decl) pairs) is stored as
    pairs in node order, so a program is immutable and hashable.
    Construction rejects what :func:`print_program` could not write back:
    n outside 1..:data:`MAX_VARS`, a sort not in :data:`SORTS`, no node or
    a node name that is not one identifier, a graph that :func:`check_edges`
    rejects, and an init literal of the wrong length, with an entry outside
    the sort, of constraints over ``int``, or empty.  It drops an explicit
    ``InitBot``, the default, which prints as nothing.
    """

    nodes: tuple[str, ...]
    n: int
    sort: str  # a key of SORTS
    edges: tuple[tuple[int, TransferFunction, int], ...]
    inits: Mapping[str, InitDecl] | tuple[tuple[str, InitDecl], ...]

    def __post_init__(self) -> None:
        n, sort = self.n, self.sort
        if not 1 <= n <= MAX_VARS:
            raise ValueError("variable count must be >= 1" if n < 1 else f"variable count must be <= {MAX_VARS}")
        if sort not in SORTS:
            raise ValueError("sort must be 'int' or 'rat'")
        if not _NAMES("".join(q + "\n" for q in self.nodes)):
            raise ValueError("a program needs one or more nodes, each named by an identifier")
        check_edges(self.nodes, self.edges, n, sort)
        inits, known = dict(self.inits), set(self.nodes)
        for q, decl in inits.items():
            if q not in known:
                raise ValueError(f"unknown node {q!r}")
            if isinstance(decl, InitVector):
                if len(decl.entries) != n:
                    raise ValueError(f"vector literal has {len(decl.entries)} entries, expected {n}")
                check_numbers([[e for e in decl.entries if e is not TOP]], sort)
            elif isinstance(decl, InitPoints):
                if not decl.points:
                    raise ValueError("a point set needs at least one point")
                for pt in decl.points:
                    if len(pt) != n:
                        raise ValueError(f"point has {len(pt)} coordinates, expected {n}")
                check_numbers(decl.points, sort)
            elif isinstance(decl, InitConstraints):
                if sort != "rat":
                    raise ValueError("constraint literals need sort 'rat'")
                if not decl.rows:
                    raise ValueError("a constraint literal needs at least one row")
                if any(len(r.coeffs) != n for r in decl.rows):
                    raise ValueError("constraint dimension mismatch")
                check_numbers([(*r.coeffs, r.const) for r in decl.rows], sort)
        if len(inits) != len(self.inits):  # pairs that declare a node twice
            seen: set[str] = set()
            q = next(q for q, _ in self.inits if q in seen or seen.add(q))
            raise ValueError(f"node {q!r} has a second init")
        object.__setattr__(self, "inits", tuple(
            (q, inits[q]) for q in self.nodes if q in inits and type(inits[q]) is not InitBot
        ))

    def init_decl(self, q: str) -> InitDecl:
        return next((decl for node, decl in self.inits if node == q), InitBot())


def check_edges(nodes: tuple[str, ...], edges: Iterable[tuple[int, Any, int]], n: int | None, sort: str | None) -> None:
    """The one check of a graph: distinct node names, endpoints that are node indices and, given
    a sort, transfers over n variables of it; each keeps the (n, sort) it last passed, as a memo,
    which the parser sets on the transfers it builds: they are over its n and sort by construction."""
    k, fits = len(nodes), (n, sort)
    if len(set(nodes)) != k:
        raise ValueError("duplicate node names")
    for src, t, dst in edges:
        if not (0 <= src < k and 0 <= dst < k):
            raise ValueError(f"an edge endpoint is not a node index in range({k})")
        if sort is not None and t.__dict__.get("_fits") != fits:
            _check_transfer(t, n, sort)
            t.__dict__["_fits"] = fits


def _check_transfer(t: TransferFunction, n: int, sort: str) -> None:
    """Targets and row widths within n; coefficients and constants of the sort."""
    if isinstance(t, ParallelAffineAssign):
        if t.widths - {n} or not all(0 <= j < n for j, _ in t.rows):
            raise ValueError("assignment dimension mismatch")
    elif isinstance(t, NondetAssign):
        if not 1 <= t.target <= n:
            raise ValueError("nondet assignment target out of range")
    elif isinstance(t, Guard):
        if any(len(r.coeffs) != n for r in t.rows):
            raise ValueError("guard dimension mismatch")
        if sort == "rat" and t.rel not in ("=", "!="):
            raise ValueError(_RAT_INEQUALITY.format(t.rel))
    rows = t.rows if isinstance(t, Guard) else [r for _, r in getattr(t, "rows", ())]
    message = "bad slot value {0!r}: a transfer over sort {1!r} needs {2} entries"
    check_numbers([(*r.coeffs, r.const) for r in rows], sort, message)


def check_numbers(vectors: Iterable[Sequence[Any]], sort: str, message: str = "bad slot value {0!r}") -> None:
    """Raise ``message`` at the first entry not of the sort; formatted with it, the sort, its types."""
    types = SORTS[sort][0]
    for v in vectors:
        if not set(map(type, v)).issubset(types):
            x = next(x for x in v if type(x) not in types)
            raise ValueError(message.format(x, sort, " or ".join(t.__name__ for t in types)))


@dataclass(frozen=True)
class StateVector:
    """An immutable node-indexed vector of abstract elements (total on Q)."""

    nodes: tuple[str, ...]
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.nodes) != len(self.values):
            raise ValueError("state vector must be total on the node set")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")

    def __getitem__(self, q: str) -> Any:
        try:
            return self.values[self.nodes.index(q)]
        except ValueError:
            raise KeyError(q) from None

    def items(self) -> Iterator[tuple[str, Any]]:
        return zip(self.nodes, self.values)

    def with_values(self, values: Iterable[Any]) -> "StateVector":
        return StateVector(self.nodes, values)


# ---------------------------------------------------------------------------
# Collecting semantics on finite point sets (test oracle helper)
# ---------------------------------------------------------------------------


def guard_holds(t: Guard, v: tuple[Number, ...]) -> bool:
    results = (relation_holds(r.eval(v), t.rel) for r in t.rows)
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
    if isinstance(t, Guard):
        return frozenset(v for v in pts if guard_holds(t, v))
    raise TypeError(f"unknown transfer function {t!r}")


# The engines read ``AnalysisProblem.preds`` and ``succs``; these two keep
# their names and node-name results because bench/tracing.py wraps them.
def post_edges_into(program: Program, q: str) -> list[tuple[str, TransferFunction]]:
    """All (source, transfer) pairs of edges with target ``q``."""
    if q not in program.nodes:
        raise ValueError(f"unknown node {q!r}")
    nodes, k = program.nodes, program.nodes.index(q)
    return [(nodes[src], t) for src, t, dst in program.edges if dst == k]


def out_edges(program: Program, q: str) -> list[tuple[TransferFunction, str]]:
    """All (transfer, target) pairs of edges with source ``q``."""
    if q not in program.nodes:
        raise ValueError(f"unknown node {q!r}")
    nodes, k = program.nodes, program.nodes.index(q)
    return [(t, nodes[dst]) for src, t, dst in program.edges if src == k]


# ---------------------------------------------------------------------------
# Text format: tokenizer and parser
# ---------------------------------------------------------------------------

#: Largest accepted ``vars`` count.  Every benchmark workload has n <= 12;
#: the bound keeps the n * n coefficients each assignment edge stores small.
MAX_VARS = 64

#: One match per token: group 1 is the token, after the blanks and comments
#: before it.  The common alternatives come first, and a longer symbol before
#: its prefix.  The last two take any other character, which the parser
#: rejects, together with the rest of the text, and the end of the text: the
#: sentinel token "" (twice if the text ends in a blank or comment).
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
    r"([(){},;?*+=]|[a-zA-Z_]\w*|:=?|->?|\d+|<=?|>=?|!=|/\\?|[^\W\d]\w*|(?s:.+)|\Z)"
)
_SYMBOLS = frozenset(r":= -> <= >= != /\ ( ) { } , ; : ? * / + - = < >".split())
_WORD = re.compile(r"\w").match  # does a token start an integer or an identifier?
_IDENT = re.compile(r"[^\W\d]").match  # does a token start an identifier?
_NAMES = re.compile(r"(?:[^\W\d]\w*\n)+").fullmatch  # one or more identifiers, each ended by a newline
_RAT_INEQUALITY = "inequality guard {!r} is not supported for sort rat"
_VARS = {f"x{j + 1}": j for j in range(MAX_VARS)}  # the usual spellings, by 0-based index
_MODES = {"and": "conj", "or": "disj"}


def _final(cls: type, **fields: Any) -> Any:
    """A ``cls`` with these fields, which must be in the form its ``__post_init__`` gives them;
    it runs none of its checks, so only the parser calls it, whose grammar makes each of them."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class _Parser:
    """Recursive descent over the tokens of :data:`_TOKEN`, which end in the
    sentinel "".  A token's kind follows from its first character and is
    read only where the grammar asks for it; the hot productions step a
    local cursor and store it in ``pos`` before they call out or fail.
    Positions are found only on error."""

    def __init__(self, text: str):
        self.text = text
        self.toks = toks = _TOKEN.findall(text)
        self.pos = 0
        last = toks[-2] if len(toks) > 1 else ""  # an unexpected character's token is last
        if last and last not in _SYMBOLS and not _WORD(last):
            self.pos = len(toks) - 2
            raise self.fail(f"unexpected character {last[0]!r}")

    # -- token plumbing ----------------------------------------------------

    def fail(self, msg: str, at: int | None = None) -> ProgramSyntaxError:
        """An error at token ``at`` (default: the next one), or just past the last one."""
        at, offset = self.pos if at is None else at, 0
        for k, m in enumerate(_TOKEN.finditer(self.text)):
            if not m[1]:
                break
            offset = m.start(1) if k == at else m.end(1)
            if k == at:
                break
        line_start = self.text.rfind("\n", 0, offset) + 1
        return ProgramSyntaxError(msg, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is ``text``."""
        if self.toks[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        """Consume the next token, whose text must be ``text``."""
        if not self.accept(text):
            raise self.fail(f"expected {text!r}")

    def take(self, is_kind: Callable[[str], Any], what: str = "expected an identifier") -> int:
        """Consume the next token, which must pass ``is_kind``; return its index."""
        if not is_kind(self.toks[self.pos]):
            raise self.fail(what)
        self.pos += 1
        return self.pos - 1

    def sequence(self, item: Callable[[], Any], sep: str, end: str | None = None) -> list[Any]:
        """``item {sep item}``; a ``sep`` right before ``end`` ends the list."""
        items = [item()]
        while self.accept(sep) and not (end and self.toks[self.pos] == end):
            items.append(item())
        return items

    # -- numbers and expressions -------------------------------------------

    def integer(self, at: int, start: int = 0) -> int:
        """The decimal value of token ``at`` from ``start`` on, an error there if too long."""
        try:
            return int(self.toks[at][start:])
        except ValueError:  # more digits than Python converts
            raise self.fail("number has too many digits", at) from None

    def number(self, sort: str) -> Number:
        """A number, after any run of '+'/'-' signs."""
        neg = False
        while (t := self.toks[self.pos]) == "-" or t == "+":
            neg, self.pos = neg ^ (t == "-"), self.pos + 1
        at = self.take(str.isdecimal, "expected a number")
        num = -self.integer(at) if neg else self.integer(at)
        return self.ratio(num) if sort == "rat" else num

    def ratio(self, num: int) -> Fraction:
        """``num`` over the denominator after a '/' at ``pos``, or over 1 if none is next."""
        if not self.accept("/"):
            return Fraction(num)
        at = self.take(str.isdecimal, "expected a denominator")
        if (den := self.integer(at)) == 0:
            raise self.fail("zero denominator", at)
        return Fraction(num, den)

    def variable(self, n: int, at: int) -> int:
        """The 0-based index of token ``at``, which must be a variable x1..xn;
        the callers call it only when ``_VARS`` has no index below n for it."""
        name = self.toks[at]
        if not (name[:1] == "x" and name[1:].isdecimal()):
            raise self.fail(f"expected a variable x1..x{n}", at)
        j = self.integer(at, 1)
        if not 1 <= j <= n:
            raise self.fail(f"variable {name} out of range (n={n})", at)
        return j - 1

    def linexpr(self, n: int, sort: str) -> LinExpr:
        """Affine sum of terms: [+-] (coef [* xj] | xj) ..."""
        toks, pos, rat = self.toks, self.pos, sort == "rat"
        _, zero, one = SORTS[sort]
        coeffs, const, term = [zero] * n, zero, True  # term: a term must follow
        while True:
            t, neg = toks[pos], False
            while t == "-" or t == "+":
                neg, term, pos = neg ^ (t == "-"), True, pos + 1
                t = toks[pos]
            if not term:
                break
            term = False
            # a sum that is still `zero` takes the term itself: no Fraction addition
            if t.isdecimal():
                try:
                    coef, pos = -int(t) if neg else int(t), pos + 1
                except ValueError:  # more digits than Python converts
                    raise self.fail("number has too many digits", pos) from None
                if rat:
                    self.pos = pos
                    coef, pos = self.ratio(coef), self.pos
                if toks[pos] != "*":
                    const = coef if const is zero else const + coef
                    continue
                pos += 1
            elif t[:1] == "x":
                coef = -one if neg else one
            else:  # a first term, or one after a run of signs, is missing
                self.pos = pos
                raise self.fail("expected a term")
            if (j := _VARS.get(toks[pos], n)) >= n:
                j = self.variable(n, pos)
            pos += 1
            coeffs[j] = coef if coeffs[j] is zero else coeffs[j] + coef
        self.pos = pos
        return LinExpr(tuple(coeffs), const)

    def equation(self, n: int, sort: str) -> tuple[LinExpr, str]:
        """Parse ``lhs ⋈ rhs`` into the row ``lhs - rhs`` and the relation ⋈."""
        lhs = self.linexpr(n, sort)
        rel = self.toks[self.pos]
        if rel not in RELATIONS:
            raise self.fail("expected a relation symbol (=, !=, <, <=, >, >=)")
        self.pos += 1
        rhs, zero = self.linexpr(n, sort), SORTS[sort][1]
        diff = [a if b is zero else a - b for a, b in zip((*lhs.coeffs, lhs.const), (*rhs.coeffs, rhs.const))]
        return LinExpr(tuple(diff[:-1]), diff[-1]), rel


def _parse_guard_rows(p: _Parser, n: int, sort: str) -> tuple[tuple[LinExpr, ...], str, str]:
    """Parse 'assume e ⋈ e [and/or [assume] e ⋈ e ...]' → (rows, rel, mode)."""
    rows: list[LinExpr] = []
    rels: list[str] = []
    mode: str | None = None
    while True:
        row, rel = p.equation(n, sort)
        rows.append(row)
        rels.append(rel)
        this = _MODES.get(p.toks[p.pos])
        if this is None:
            break
        p.pos += 1
        if mode not in (None, this):
            raise p.fail("cannot mix 'and' and 'or' in one guard")
        mode = this
        p.accept("assume")
    if len(set(rels)) > 1:
        raise p.fail("mixed relation symbols in one guard are not supported")
    return tuple(rows), rels[0], mode or "conj"


def _parse_statements(p: _Parser, n: int, sort: str) -> TransferFunction:
    """One edge label."""
    toks, pos = p.toks, p.pos
    if toks[pos] == "skip":
        p.pos = pos + 1
        return Identity()
    if toks[pos] == "assume":
        p.pos = pos + 1
        rows, rel, mode = _parse_guard_rows(p, n, sort)
        if sort == "rat" and rel not in ("=", "!="):
            raise p.fail(_RAT_INEQUALITY.format(rel))
        return _final(Guard, rows=rows, rel=rel, mode=mode)
    # one or more assignments, comma separated, applied in parallel
    assigned: dict[int, LinExpr | None] = {}  # 0-based target -> row; None for xj := ?
    while True:
        if (j := _VARS.get(toks[pos], n)) >= n:
            j = p.variable(n, pos)
        if toks[pos + 1] != ":=":
            p.pos = pos + 1
            raise p.fail("expected ':='")
        pos += 2
        if j in assigned:
            p.pos = pos
            raise p.fail(f"variable x{j + 1} assigned twice on one edge")
        nondet = toks[pos] == "?"
        p.pos = pos + nondet
        assigned[j] = None if nondet else p.linexpr(n, sort)
        pos = p.pos
        if toks[pos] != ",":
            break
        pos += 1
    p.pos = pos
    if None in assigned.values():
        if len(assigned) > 1:
            raise p.fail("xj := ? cannot be combined with other assignments on one edge")
        return NondetAssign(j + 1)
    rows = _moved(sorted(assigned.items()))  # the targets are distinct: no row is compared
    return _final(ParallelAffineAssign, rows=rows, widths=frozenset([n])) if rows else Identity()


def _parse_init_literal(p: _Parser, n: int, sort: str) -> InitDecl:
    if p.accept("top"):
        return InitTop()
    if p.accept("bot"):
        return InitBot()
    if p.accept("("):
        entries = p.sequence(lambda: TOP if p.accept("top") else p.number(sort), ",")
        p.expect(")")
        if len(entries) != n:
            raise p.fail(f"vector literal has {len(entries)} entries, expected {n}")
        return InitVector(tuple(entries))
    if p.accept("{"):

        def point() -> tuple[Number, ...]:
            p.expect("(")
            pt = p.sequence(lambda: p.number(sort), ",")
            p.expect(")")
            if len(pt) != n:
                raise p.fail(f"point has {len(pt)} coordinates, expected {n}")
            return tuple(pt)

        points = p.sequence(point, ";", end="}")
        p.expect("}")
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
    if p.toks[p.pos]:
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
    toks = p.toks
    n: int | None = None
    sort: str | None = None
    nodes: dict[str, int] | None = None  # name -> index, in declaration order
    labels: dict[tuple[str, ...], TransferFunction] = {}
    inits: dict[str, InitDecl] = {}
    edges: list[tuple[int, TransferFunction, int]] = []
    declared: set[str] = set()
    repeated = False  # has a label repeated an earlier one?

    def require_header() -> tuple[int, str]:
        if n is None:
            raise p.fail("'vars' must be declared first")
        if sort is None:
            raise p.fail("'sort' must be declared before this line")
        if nodes is None:
            raise p.fail("'nodes' must be declared before this line")
        return n, sort

    def node() -> str:
        name = toks[p.pos]
        if name not in nodes:
            raise p.fail(f"unknown node {name!r}" if _IDENT(name) else "expected an identifier")
        p.pos += 1
        return name

    while kw := toks[p.pos]:
        i = p.pos
        p.pos += 1
        if kw in ("vars", "sort", "nodes"):
            if kw in declared:
                raise p.fail(f"'{kw}' is declared twice", i)
            declared.add(kw)
        if kw == "edge":
            nn, ss = require_header()
            pos = p.pos  # a well-formed `qa -> qb :` is read in one test; the steps below raise at a fault
            if not (toks[pos] in nodes and toks[pos + 1] == "->" and toks[pos + 2] in nodes and toks[pos + 3] == ":"):
                node()
                p.expect("->")
                node()
                p.expect(":")
            src, dst, p.pos = nodes[toks[pos]], nodes[toks[pos + 2]], pos + 4
            # a label with an earlier one's tokens up to the ';' gets its
            # transfer; until one repeats, labels are keyed after the parse,
            # by the tokens it read (a parse short of the ';' is an error)
            start, t = p.pos, None
            if repeated:
                try:
                    end = toks.index(";", start)
                    t = labels.get(tuple(toks[start:end]))
                except ValueError:  # no ';' follows: the parse below fails
                    pass
            if t is None:
                t = _parse_statements(p, nn, ss)
                t.__dict__["_fits"] = (nn, ss)  # check_edges's memo: no check of it follows
                u = labels.setdefault(tuple(toks[start : p.pos]), t)
                repeated, t = repeated or u is not t, u
            else:
                p.pos = end
            edges.append((src, t, dst))
        elif kw == "vars":
            t = p.take(str.isdecimal, "expected a variable count")
            n = p.integer(t)
            if n < 1:
                raise p.fail("variable count must be >= 1", t)
            if n > MAX_VARS:
                raise p.fail(f"variable count must be <= {MAX_VARS}", t)
        elif kw == "sort":
            t = p.take(_IDENT)
            if toks[t] not in SORTS:
                raise p.fail("sort must be 'int' or 'rat'", t)
            sort = toks[t]
        elif kw == "nodes":
            nodes = {}
            while _IDENT(name := toks[p.pos]):
                if name in nodes:
                    raise p.fail(f"duplicate node name {name!r}")
                p.pos += 1
                nodes[name] = len(nodes)
            if not nodes:
                raise p.fail("expected at least one node name")
        elif kw == "init":
            nn, ss = require_header()
            q = p.pos
            if node() in inits:
                raise p.fail(f"node {toks[q]!r} has a second init", q)
            p.expect(":")
            inits[toks[q]] = _parse_init_literal(p, nn, ss)
        else:
            raise p.fail(f"unknown declaration {kw!r}" if _IDENT(kw) else "expected an identifier", i)
        p.expect(";")

    if n is None or sort is None or nodes is None:
        raise p.fail("program must declare vars, sort and nodes")
    pairs = sorted([(q, d) for q, d in inits.items() if type(d) is not InitBot], key=lambda e: nodes[e[0]])
    return _final(Program, nodes=tuple(nodes), n=n, sort=sort, edges=tuple(edges), inits=tuple(pairs))


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


def render_transfer(t: TransferFunction) -> str:
    if isinstance(t, Identity):
        return "skip"
    if isinstance(t, NondetAssign):
        return f"x{t.target} := ?"
    if isinstance(t, ParallelAffineAssign):
        return ", ".join(f"x{j + 1} := {render_linexpr(r)}" for j, r in t.rows) or "skip"
    joiner = " and " if t.mode == "conj" else " or "
    return joiner.join(f"assume {render_linexpr(r)} {t.rel} 0" for r in t.rows)


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
    for q, decl in program.inits:
        if not isinstance(decl, InitBot):
            lines.append(f"init {q}: {render_init(decl)};")
    nodes = program.nodes
    for src, t, dst in program.edges:
        lines.append(f"edge {nodes[src]} -> {nodes[dst]} : {render_transfer(t)};")
    return "\n".join(lines) + "\n"
