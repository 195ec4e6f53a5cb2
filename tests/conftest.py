"""Shared fixtures and brute-force oracle helpers for the test suite."""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from absinv import const_domain as cd
from absinv import programs as pg
from absinv.affine import AffSubspace
from absinv.finite import ClosureFamily, FiniteGI
from absinv.lattice import memo
from absinv.synthesis import AnalysisProblem

PROGRAMS_DIR = Path(__file__).resolve().parent.parent / "programs"


@pytest.fixture(scope="session")
def const_demo() -> pg.Program:
    return pg.parse_program((PROGRAMS_DIR / "const_demo.prog").read_text())


@pytest.fixture(scope="session")
def affine_demo() -> pg.Program:
    return pg.parse_program((PROGRAMS_DIR / "affine_demo.prog").read_text())


# ---------------------------------------------------------------------------
# Small explicit instances used across modules
# ---------------------------------------------------------------------------


def chain(n: int) -> ClosureFamily:
    """The chain 1 < 2 < ... < n as down-sets of n states: value v is the
    mask of the v lowest bits (the 3-chain is {0b001, 0b011, 0b111})."""
    return ClosureFamily(n, frozenset((1 << v) - 1 for v in range(1, n + 1)))


def chain_gi(n: int, *image: int) -> FiniteGI:
    """The n-chain with abstraction image ``image`` (1-based values, top included)."""
    return FiniteGI(chain(n), ClosureFamily(n, frozenset((1 << v) - 1 for v in image)))


@pytest.fixture(scope="session")
def four_chain_gi() -> tuple[FiniteGI, dict[int, int]]:
    """The 4-element chain with abstraction image {2, 4} (1-based values).

    Returns the insertion and the monotone table {1->1, 2->2, 3->4, 4->4}
    on masks.
    """
    f = {0b0001: 0b0001, 0b0011: 0b0011, 0b0111: 0b1111, 0b1111: 0b1111}
    return chain_gi(4, 2, 4), f


@pytest.fixture(scope="session")
def three_chain() -> ClosureFamily:
    return chain(3)


def three_chain_f() -> dict[int, int]:
    """{1 -> 1, 2 -> 3, 3 -> 3} on masks."""
    return {0b001: 0b001, 0b011: 0b111, 0b111: 0b111}


# ---------------------------------------------------------------------------
# Graphs that the one check of a graph rejects
# ---------------------------------------------------------------------------

#: (id, edges over the one node "q1" and 2 variables, message) for every
#: sort: ``Program`` and ``AnalysisProblem`` both reject these edges with
#: that message, read by :func:`graph_error`.
BAD_GRAPHS = [
    ("edge-source", ((-1, pg.Identity(), 0),), r"an edge endpoint is not a node index in range\(1\)"),
    ("edge-target", ((0, pg.Identity(), 1),), r"an edge endpoint is not a node index in range\(1\)"),
    ("nondet-past-n", ((0, pg.NondetAssign(3), 0),), "nondet assignment target out of range"),
    ("nondet-zero", ((0, pg.NondetAssign(0), 0),), "nondet assignment target out of range"),
    ("guard-row", ((0, pg.Guard((pg.LinExpr((1,), 0),), "=", "conj"), 0),), "guard dimension mismatch"),
    ("guard-row-too-wide", ((0, pg.Guard((pg.LinExpr((1, 0, 1), 0),), "=", "conj"), 0),), "guard dimension mismatch"),
    # x1 := x1 under the target -2, which would index x1 from the end
    ("assign-target-negative", ((0, pg.ParallelAffineAssign(((-2, pg.LinExpr((1, 0), 0)),)), 0),),
     "assignment dimension mismatch"),
    ("assign-target-past-n", ((0, pg.ParallelAffineAssign(((2, pg.LinExpr((1, 0), 1)),)), 0),),
     "assignment dimension mismatch"),
    ("assign-row-too-wide", ((0, pg.ParallelAffineAssign(((0, pg.LinExpr((1, 0, 1), 1)),)), 0),),
     "assignment dimension mismatch"),
    ("bool-entry", ((0, pg.Guard((pg.LinExpr((True, 0), 1),), "=", "conj"), 0),),
     "bad slot value True: a transfer over sort '{sort}' needs {needs} entries"),
    ("float-entry", ((0, pg.ParallelAffineAssign(((1, pg.LinExpr((0, 1), 0.5)),)), 0),),
     "bad slot value 0.5: a transfer over sort '{sort}' needs {needs} entries"),
]


def graph_error(message: str, sort: str) -> str:
    """The full-match pattern of a ``BAD_GRAPHS`` message over ``sort``."""
    return "^" + message.format(sort=sort, needs={"int": "int", "rat": "int or Fraction"}[sort]) + "$"


# ---------------------------------------------------------------------------
# Constant-domain brute-force oracle
# ---------------------------------------------------------------------------


def box_points(n: int, bound: int):
    return itertools.product(range(-bound, bound + 1), repeat=n)


def gamma_box(a: cd.ConstVec, bound: int) -> list[tuple[int, ...]]:
    """All points of the concretization with coordinates in [-bound, bound]."""
    if a is None:
        return []
    axes = []
    for s in a:
        if s is cd.TOP:
            axes.append(range(-bound, bound + 1))
        else:
            assert abs(s) <= bound, "constant outside sampling box"
            axes.append([s])
    return [tuple(p) for p in itertools.product(*axes)]


def random_const_vec(rng: random.Random, n: int, lo: int = -5, hi: int = 5) -> cd.ConstVec:
    if rng.random() < 0.1:
        return None
    return tuple(cd.TOP if rng.random() < 0.4 else rng.randint(lo, hi) for _ in range(n))


def random_linexpr_int(rng: random.Random, n: int, coeff: int = 3) -> pg.LinExpr:
    return pg.LinExpr(
        tuple(rng.randint(-coeff, coeff) for _ in range(n)),
        rng.randint(-coeff, coeff),
    )


# ---------------------------------------------------------------------------
# Affine-domain helpers
# ---------------------------------------------------------------------------


def frac_point(*coords) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coords)


def rational_view(a: AffSubspace) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
    """The point ``num / den`` and the basis rows divided by their pivots, as
    ``Fraction``s: the rational RREF form of a nonempty subspace.  Asserts
    that every stored entry is an ``int``."""
    assert all(type(x) is int for x in (a.den, *a.num, *(x for b in a.basis for x in b)))
    point = tuple(Fraction(x, a.den) for x in a.num)
    basis = tuple(tuple(Fraction(x, next(filter(None, b))) for x in b) for b in a.basis)
    return point, basis


def subspace_samples(a: AffSubspace, rng: random.Random, count: int) -> list[tuple[Fraction, ...]]:
    """Random rational points inside a nonempty subspace."""
    point, basis = rational_view(a)
    out = []
    for _ in range(count):
        pt = list(point)
        for b in basis:
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            pt = [x + c * y for x, y in zip(pt, b)]
        out.append(tuple(pt))
    return out


def random_rat_points(rng: random.Random, n: int, count: int) -> list[tuple[Fraction, ...]]:
    return [
        tuple(Fraction(rng.randint(-10, 10)) for _ in range(n)) for _ in range(count)
    ]


def random_affine_rows(rng: random.Random, n: int) -> tuple[pg.LinExpr, ...]:
    return tuple(
        pg.LinExpr(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)),
            Fraction(rng.randint(-3, 3)),
        )
        for _ in range(n)
    )


def random_entry(rng: random.Random, seen: set[str]):
    """Zero, a small int (as ``int`` or ``Fraction``), a small fraction, or a
    fraction whose numerator is above 10⁶."""
    kind = rng.random()
    if kind < 0.35:
        return Fraction(0)
    if kind < 0.6:
        v = rng.randint(-4, 4)
        return v if rng.random() < 0.3 else Fraction(v)
    if kind < 0.85:
        seen.add("fraction")
        return Fraction(rng.randint(-9, 9), rng.randint(2, 12))
    seen.add("big")
    return Fraction(rng.choice((-1, 1)) * rng.randint(10**6, 10**12), rng.randint(1, 10**4))


def random_matrix(rng: random.Random, n: int, seen: set[str]) -> list[list]:
    """Random rows plus dependent ones: zero rows, multiples and sums of rows."""
    rows = [[random_entry(rng, seen) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
    for _ in range(rng.randint(0, 2)):
        extra = rng.choice(("zero", "multiple", "sum"))
        if extra == "zero" or not rows:
            seen.add("zero row")
            rows.append([Fraction(0)] * n)
        elif extra == "multiple":
            k = Fraction(rng.choice((-3, -1, 2, 7)), rng.randint(1, 5))
            rows.append([k * x for x in rng.choice(rows)])
        else:
            rows.append([x + y for x, y in zip(rng.choice(rows), rng.choice(rows))])
    rng.shuffle(rows)
    for row in rows:
        lead = next((x for x in row if x != 0), 0)
        if lead < 0:
            seen.add("negative pivot")
        if len({Fraction(x).denominator for x in row if x != 0}) > 1:
            seen.add("mixed denominators")
    return rows


def identity_row(j: int, n: int, zero, one) -> pg.LinExpr:
    """The written-out row ``x_{j+1}`` of n coefficients: a self-assignment."""
    coeffs = [zero] * n
    coeffs[j] = one
    return pg.LinExpr(tuple(coeffs), zero)


def dense_assign(rows) -> pg.ParallelAffineAssign:
    """The assignment whose row j is ``rows[j]``, for every j: the dense
    form, written-out identity rows included."""
    return pg.ParallelAffineAssign(tuple(enumerate(rows)))


def random_assignment(rng: random.Random, n: int, seen: set[str]) -> tuple[pg.LinExpr, ...]:
    """Rows that are written-out identity rows, constants, random sparse rows,
    or a parallel pair over two variables (a swap, or sum and difference)."""
    rows = []
    for j in range(n):
        kind = rng.choice(("identity", "constant", "random"))
        seen.add(kind)
        if kind == "identity":
            one = rng.choice((1, Fraction(1)))
            rows.append(identity_row(j, n, one * 0, one))
        elif kind == "constant":
            rows.append(pg.LinExpr((Fraction(0),) * n, random_entry(rng, seen)))
        else:
            rows.append(pg.LinExpr(tuple(random_entry(rng, seen) for _ in range(n)), random_entry(rng, seen)))
    if n >= 2 and rng.random() < 0.4:
        seen.add("parallel pair")
        j, k = rng.sample(range(n), 2)
        unit = [identity_row(i, n, Fraction(0), Fraction(1)).coeffs for i in (j, k)]
        if rng.random() < 0.5:
            rows[j], rows[k] = pg.LinExpr(unit[1], Fraction(0)), pg.LinExpr(unit[0], Fraction(0))
        else:
            rows[j] = pg.LinExpr(tuple(x + y for x, y in zip(*unit)), Fraction(0))
            rows[k] = pg.LinExpr(tuple(x - y for x, y in zip(*unit)), Fraction(0))
    return tuple(rows)


def solve_square_system(rows: list[tuple[list[Fraction], Fraction]], n: int):
    """Independent dense solver for  coeffs · x + const = 0  (None if singular).

    Deliberately separate from the library's elimination code: used as the
    second route when checking exact analysis values.
    """
    aug = [[Fraction(c) for c in coeffs] + [Fraction(const)] for coeffs, const in rows]
    for col in range(n):
        piv = next((r for r in range(col, len(aug)) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(len(aug)):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    for r in range(n, len(aug)):
        if aug[r][n] != 0:
            return None
    return tuple(-aug[i][n] for i in range(n))


# ---------------------------------------------------------------------------
# Random program generation (termination-bound tests)
# ---------------------------------------------------------------------------


def random_program(rng: random.Random, sort: str, max_vars: int = 5, max_nodes: int = 10) -> pg.Program:
    n = rng.randint(1, max_vars)
    k = rng.randint(2, max_nodes)
    nodes = tuple(f"q{i + 1}" for i in range(k))

    def num(v: int):
        return Fraction(v) if sort == "rat" else v

    def rand_expr() -> pg.LinExpr:
        return pg.LinExpr(
            tuple(num(rng.randint(-2, 2)) for _ in range(n)),
            num(rng.randint(-3, 3)),
        )

    def rand_transfer() -> pg.TransferFunction:
        kind = rng.random()
        if kind < 0.45:
            # each variable is assigned with probability 1/2
            return pg.ParallelAffineAssign(tuple((i, rand_expr()) for i in range(n) if rng.random() < 0.5))
        if kind < 0.6:
            return pg.NondetAssign(rng.randint(1, n))
        if kind < 0.7:
            return pg.Identity()
        mode = rng.choice(["conj", "disj"])
        rows = tuple(rand_expr() for _ in range(rng.randint(1, 2)))
        if sort == "int" and kind < 0.85:
            rel = rng.choice(["<", "<=", ">", ">=", "!="])
            return pg.Guard(rows, rel, mode)
        if sort == "rat" and kind < 0.8:
            return pg.Guard(rows, "!=", mode)
        return pg.Guard(rows, "=", mode)

    edges = tuple(
        (rng.choice(range(k)), rand_transfer(), rng.choice(range(k)))
        for _ in range(rng.randint(k - 1, 2 * k))
    )
    inits: dict[str, pg.InitDecl] = {}
    for q in rng.sample(nodes, rng.randint(1, min(2, k))):
        style = rng.random()
        if style < 0.4:
            inits[q] = pg.InitTop()
        elif style < 0.8:
            pts = frozenset(
                tuple(num(rng.randint(-4, 4)) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            )
            inits[q] = pg.InitPoints(pts)
        else:
            inits[q] = pg.InitVector(
                tuple(
                    pg.TOP if rng.random() < 0.3 else num(rng.randint(-4, 4))
                    for _ in range(n)
                )
            )
    return pg.Program(nodes, n, sort, edges, inits)


def _fields(x) -> tuple:
    """The type and every field of a dataclass object, ``compare=False`` ones too."""
    return (type(x), *(getattr(x, f.name) for f in dataclasses.fields(x)))


def rebuilt_differences(program: pg.Program) -> list[tuple[tuple, tuple]]:
    """The (parsed, rebuilt) fields of ``program`` and of each of its
    transfers that differ from their rebuild through the checking
    constructors of ``Program``, ``ParallelAffineAssign`` and ``Guard``:
    the parser builds these three without the checks, in the form the
    constructors give, so for a parsed program the list is empty."""

    def rebuilt(t: pg.TransferFunction) -> pg.TransferFunction:
        if isinstance(t, pg.ParallelAffineAssign):
            return pg.ParallelAffineAssign(t.rows)
        return pg.Guard(t.rows, t.rel, t.mode) if isinstance(t, pg.Guard) else t

    edges = tuple((src, rebuilt(t), dst) for src, t, dst in program.edges)
    pairs = [(program, pg.Program(program.nodes, program.n, program.sort, edges, program.inits))]
    pairs += [(t, u) for (_, t, _), (_, u, _) in zip(program.edges, edges)]
    return [(_fields(x), _fields(y)) for x, y in pairs if _fields(x) != _fields(y)]


def pointwise_leq(problem: AnalysisProblem, u: pg.StateVector, v: pg.StateVector) -> bool:
    """u ≤ v at every node, in the order of the problem's domain."""
    return all(map(problem.adapter.leq, u.values, v.values))


def checked_problem(program: pg.Program, adapter, prop: dict | None = None) -> AnalysisProblem:
    """The problem the checking constructor makes over ``adapter`` of the
    program's graph and of the vectors of its inits and of ``prop`` (bottom
    and top elsewhere)."""
    prop, inits, nodes = prop or {}, dict(program.inits), program.nodes
    init = pg.StateVector(nodes, [adapter.from_init(inits[q]) if q in inits else adapter.bottom() for q in nodes])
    safety = pg.StateVector(nodes, [adapter.from_init(prop[q]) if q in prop else adapter.top() for q in nodes])
    return AnalysisProblem(nodes, program.edges, adapter, init, safety)


def built_differences(program: pg.Program, domain: str, prop: dict | None = None) -> list[tuple[str, object, object]]:
    """The (field, built, checked) triples of the fields, ``compare=False``
    ones included and each map as its list of items, so that key order
    counts, in which ``AnalysisProblem.build(program, domain, prop)`` differs
    from the problem that the checking constructor makes of the program's
    graph and of the vectors of its inits and of ``prop`` (bottom and top
    elsewhere): ``build`` makes every field itself, without the
    constructor's checks, so the list is empty."""
    built = AnalysisProblem.build(program, domain, prop)
    checked = checked_problem(program, built.adapter, prop)
    differences = []
    for f in dataclasses.fields(AnalysisProblem):
        x, y = getattr(built, f.name), getattr(checked, f.name)
        if isinstance(x, dict):
            x, y = list(x.items()), list(y.items())
        if x != y:
            differences.append((f.name, x, y))
    return differences


#: Edge labels of every transfer kind over 2 variables, per sort; each list
#: repeats its first label last, so that two of its edges share a transfer.
PARSED_LABELS = {
    "int": [
        "x1 := 2*x1 - x2 + 3", "x1 := x2, x2 := x1", "x1 := x1", "x2 := ?", "skip",
        *(f"assume x1 {rel} x2 + 1" for rel in pg.RELATIONS),
        "assume x1 < 0 and x2 < 1", "assume x1 != 0 or x2 != 2", "x1 := 2*x1 - x2 + 3",
    ],
    "rat": [
        "x1 := 1/2*x1 + 3/4", "x1 := x2, x2 := -2/3*x1", "x2 := x2", "x1 := ?", "skip",
        "assume x1 = 1/3", "assume x1 != x2 - 5/2", "x1 := 1/2*x1 + 3/4",
    ],
}


def stray_attributes(obj) -> set[str]:
    """The names in the ``__dict__`` of the dataclass object ``obj`` that are
    neither its fields nor ``lattice.memo`` descriptors of its class: a
    check that left a mark on a transfer or literal would show here."""
    memos = {name for cls in type(obj).__mro__ for name, v in vars(cls).items() if isinstance(v, memo)}
    return set(vars(obj)) - memos - {f.name for f in dataclasses.fields(obj)}


def random_label_text(rng: random.Random, n: int, sort: str) -> str:
    """One edge label as text: assignments (some of whose right-hand sides
    are written-out identities such as ``x2``, ``x2 + 0`` or ``2*x2 - x2``),
    a nondet assignment, a guard or ``skip``."""

    def number() -> str:
        v = str(rng.randint(-3, 3))
        return f"{v}/{rng.randint(1, 3)}" if sort == "rat" and rng.random() < 0.3 else v

    def expr() -> str:
        terms = [f"{number()}*x{rng.randint(1, n)}" for _ in range(rng.randint(0, 2))]
        return " + ".join([*terms, number()])

    kind = rng.random()
    if kind < 0.6:
        parts = []
        for j in rng.sample(range(1, n + 1), rng.randint(1, n)):
            rhs = rng.choice((f"x{j}", f"x{j} + 0", f"2*x{j} - x{j}", expr(), expr()))
            parts.append(f"x{j} := {rhs}")
        return ", ".join(parts)
    if kind < 0.7:
        return f"x{rng.randint(1, n)} := ?"
    if kind < 0.9:
        rel = rng.choice(("=", "!=") if sort == "rat" else ("=", "!=", "<", ">="))
        return " and ".join(f"assume {expr()} {rel} {expr()}" for _ in range(rng.randint(1, 2)))
    return "skip"


def random_label_program(rng: random.Random, sort: str, max_vars: int = 4) -> str:
    """Program text whose edges draw their labels from a pool of a few
    labels, so labels repeat; a repeat is written with other blanks and
    comments between its tokens."""
    n, k = rng.randint(1, max_vars), rng.randint(2, 5)
    pool = [random_label_text(rng, n, sort) for _ in range(rng.randint(1, 4))]
    lines = [f"vars {n};", f"sort {sort};", "nodes " + " ".join(f"q{i}" for i in range(1, k + 1)) + ";"]
    for _ in range(rng.randint(1, 3 * k)):
        label = rng.choice(pool)
        if rng.random() < 0.5:
            label = label.replace(" ", rng.choice(("  ", "\t", " # a comment\n ")))
        lines.append(f"edge q{rng.randint(1, k)} -> q{rng.randint(1, k)} : {label};")
    return "\n".join(lines) + "\n"
