"""The integer affine domain against the ``Fraction`` reference, and its canonical form.

Every public operation of :mod:`absinv.affine` runs beside the one of
``reference_affine`` (the domain as it was with ``Fraction`` entries) on
seeded random subspaces, transfers, literals and programs.  Each result must
be in integer canonical form, have the reference's rational point and basis,
and render to the same text.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
import reference_affine as ra

from absinv import affine as af
from absinv import programs as pg
from absinv.synthesis import AffAdapter, AnalysisProblem, ainv_forward
from conftest import random_assignment, random_entry, random_matrix, rational_view

# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def assert_canonical(a: af.AffSubspace) -> None:
    """Primitive basis rows with a positive pivot and zeros in the other pivot
    columns; a coprime point over a positive denominator, zero on the pivots."""
    if a.is_empty:
        assert (a.num, a.basis, a.den) == (None, (), 1)
        return
    assert type(a.den) is int and a.den > 0 and gcd(a.den, *a.num) == 1
    assert len(a.num) == a.n and all(type(x) is int for x in a.num)
    pivots = []
    for b in a.basis:
        assert len(b) == a.n and all(type(x) is int for x in b) and gcd(*b) == 1
        c = next(i for i, x in enumerate(b) if x)
        assert b[c] > 0
        pivots.append(c)
    assert pivots == sorted(set(pivots))
    for b, c in zip(a.basis, pivots):
        assert all(b[other] == 0 for other in pivots if other != c)
    assert all(a.num[c] == 0 for c in pivots)


def check(got: af.AffSubspace, expected: ra.AffSubspace) -> None:
    assert_canonical(got)
    assert got.dim == expected.dim
    if not expected.is_empty:
        assert rational_view(got) == (expected.point, expected.basis)
    assert af.render_affine(got) == ra.render_affine(expected)


def check_constraints(got: af.AffSubspace, expected: ra.AffSubspace) -> None:
    """Integer rows, each coprime with a positive lead, that are the
    reference's pivot-normalized rows scaled."""
    rows = af.generators_to_constraints(got)
    ref_rows = ra.generators_to_constraints(expected)
    assert len(rows) == len(ref_rows)
    for r, ref in zip(rows, ref_rows):
        entries = (*r.coeffs, r.const)
        assert all(type(x) is int for x in entries) and gcd(*entries) == 1
        lead = next(filter(None, entries))
        assert lead > 0 or got.is_empty
        assert tuple(Fraction(x, lead) for x in entries) == (*ref.coeffs, ref.const)


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------


def random_linexpr(rng: random.Random, n: int, seen: set[str]) -> pg.LinExpr:
    return pg.LinExpr(tuple(random_entry(rng, seen) for _ in range(n)), random_entry(rng, seen))


def random_pair(rng: random.Random, n: int, seen: set[str]) -> tuple[af.AffSubspace, ra.AffSubspace]:
    """One subspace built the same way by both modules."""
    shape = rng.choice(("empty", "full", "point", "generators", "generators", "hull", "equalities"))
    seen.add(shape)
    if shape == "empty":
        return af.AffSubspace.empty(n), ra.AffSubspace.empty(n)
    if shape == "full":
        return af.AffSubspace.full(n), ra.AffSubspace.full(n)
    if shape == "point":
        p = [random_entry(rng, seen) for _ in range(n)]
        return af.AffSubspace.point_of(p), ra.AffSubspace.point_of(p)
    if shape == "generators":
        p = [random_entry(rng, seen) for _ in range(n)]
        rows = random_matrix(rng, n, seen)
        num, den = pg.clear_denominators(p)
        a = af.AffSubspace(n, num, [pg.clear_denominators(r)[0] for r in rows], den)
        return a, ra.AffSubspace(n, tuple(map(Fraction, p)), tuple(map(tuple, rows)))
    if shape == "hull":
        pts = [[random_entry(rng, seen) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        return af.hull_points(pts, n), ra.hull_points(pts, n)
    rows = [random_linexpr(rng, n, seen) for _ in range(rng.randint(0, n))]
    return af.from_equalities(rows, n), ra.from_equalities(rows, n)


def reference_vector_literal(entries: tuple, n: int) -> ra.AffSubspace:
    """A vector literal as the ``Fraction`` adapter read it: the point with 0
    in each top slot, spanned by the top slots' unit vectors."""
    point = tuple(Fraction(0 if e == pg.TOP else e) for e in entries)
    tops = [j for j, e in enumerate(entries) if e == pg.TOP]
    units = tuple(tuple(Fraction(int(i == j)) for i in range(n)) for j in tops)
    return ra.AffSubspace(n, point, units)


def sample_points(rng: random.Random, a: ra.AffSubspace, count: int) -> list[tuple[Fraction, ...]]:
    """Points of the reference subspace (none when it is empty)."""
    out = []
    for _ in range(0 if a.is_empty else count):
        pt = list(a.point)
        for b in a.basis:
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 12))
            pt = [x + c * y for x, y in zip(pt, b)]
        out.append(tuple(pt))
    return out


# ---------------------------------------------------------------------------
# Every operation against the reference
# ---------------------------------------------------------------------------


def test_every_operation_matches_the_fraction_reference():
    rng = random.Random(61)
    seen: set[str] = set()
    for _ in range(500):
        n = rng.randint(1, 5)
        (a, ref_a), (b, ref_b) = random_pair(rng, n, seen), random_pair(rng, n, seen)
        check(a, ref_a)
        check(b, ref_b)
        check_constraints(a, ref_a)
        check(af.join(a, b), ra.join(ref_a, ref_b))
        check(af.meet(a, b), ra.meet(ref_a, ref_b))
        for outer, inner, ref_outer, ref_inner in ((a, b, ref_a, ref_b), (b, a, ref_b, ref_a)):
            assert af.includes(outer, inner) == ra.includes(ref_outer, ref_inner)
        seen.add(f"includes {af.includes(a, b)}")

        e = random_linexpr(rng, n, seen)
        check(af.meet_hyperplane(a, pg.Guard((e,), "=", "conj").cleared[0]), ra.meet_hyperplane(ref_a, e))
        t = pg.ParallelAffineAssign(random_assignment(rng, n, seen))
        check(af.bca_parallel_assign(t, a), ra.bca_parallel_assign(t, ref_a))
        j = rng.randint(1, n)
        check(af.bca_nondet_assign(j, a), ra.bca_nondet_assign(j, ref_a))
        for mode in ("conj", "disj"):
            guard = pg.Guard(tuple(random_linexpr(rng, n, seen) for _ in range(rng.randint(1, 3))), "=", mode)
            expected = ra.bca_eq_guard(guard.rows, mode, ref_a)
            check(af.bca_eq_guard(guard.cleared, mode, a), expected)
            seen.add(f"{mode} guard dim {expected.dim - ref_a.dim:+d}")

        pts = [[random_entry(rng, seen) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        check(af.hull_points(pts, n), ra.hull_points(pts, n))
        for p in sample_points(rng, ref_a, 2) + pts:
            inside = a.contains_point(p)
            assert inside == ref_a.contains_point(p)
            seen.add(f"contains {inside}")
    assert {"empty", "full", "point", "generators", "hull", "equalities"} <= seen
    assert {"fraction", "big", "negative pivot", "mixed denominators", "parallel pair"} <= seen
    assert {"includes True", "includes False", "contains True", "contains False"} <= seen
    assert {"conj guard dim -1", "conj guard dim +0", "disj guard dim +0", "disj guard dim -1"} <= seen


def test_literals_match_the_fraction_reference():
    """Vector literals (a point plus the top slots' unit directions) and
    constraint literals, as ``AffAdapter`` reads them."""
    rng = random.Random(67)
    seen: set[str] = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        entries = tuple(pg.TOP if rng.random() < 0.3 else random_entry(rng, seen) for _ in range(n))
        check(AffAdapter(n).from_init(pg.InitVector(entries)), reference_vector_literal(entries, n))
        rows = tuple(random_linexpr(rng, n, seen) for _ in range(rng.randint(1, n + 1)))
        expected = ra.from_equalities(rows, n)
        check(AffAdapter(n).from_init(pg.InitConstraints(rows)), expected)
        seen.add("empty" if expected.is_empty else "nonempty")
    assert seen >= {"fraction", "big", "empty", "nonempty"}


def test_the_core_takes_ints_and_the_entry_points_clear_rationals():
    """A ``Fraction`` entry, even an integral one, is a ``TypeError`` in the
    constructor; ``point_of``, ``hull_points``, ``contains_point`` and
    ``from_equalities`` take rational coordinates and rows and clear them."""
    for num, basis in (((Fraction(1, 2), 0), ()), ((Fraction(1), 0), ()), ((0, 0), ((Fraction(1, 3), 1),))):
        with pytest.raises(TypeError):
            af.AffSubspace(2, num, basis)
    rng = random.Random(79)
    seen: set[str] = set()
    for _ in range(200):
        n = rng.randint(1, 4)
        p = [random_entry(rng, seen) for _ in range(n)]
        check(af.AffSubspace.point_of(p), ra.AffSubspace.point_of(p))
        pts = [[random_entry(rng, seen) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        a, ref_a = af.hull_points(pts, n), ra.hull_points(pts, n)
        check(a, ref_a)
        for q in sample_points(rng, ref_a, 2) + [p]:
            inside = a.contains_point(q)
            assert inside == ref_a.contains_point(q)
            seen.add(f"contains {inside}")
        rows = [random_linexpr(rng, n, seen) for _ in range(rng.randint(0, n + 1))]
        expected = ra.from_equalities(rows, n)
        check(af.from_equalities(rows, n), expected)
        seen.add("empty" if expected.is_empty else "nonempty")
    assert {"fraction", "big", "contains True", "contains False", "empty", "nonempty"} <= seen


# ---------------------------------------------------------------------------
# Whole programs: the forward engine over both modules
# ---------------------------------------------------------------------------


class ReferenceAffAdapter(AffAdapter):
    """``AffAdapter`` with every element operation taken from the reference."""

    def leq(self, a, b):
        return ra.includes(b, a)

    def join(self, a, b):
        return ra.join(a, b)

    def meet(self, a, b):
        return ra.meet(a, b)

    def bottom(self):
        return ra.AffSubspace.empty(self.n)

    def top(self):
        return ra.AffSubspace.full(self.n)

    def alpha(self, points):
        return ra.hull_points(points, self.n)

    def transfer(self, t, a):
        if isinstance(t, pg.ParallelAffineAssign):
            return ra.bca_parallel_assign(t, a)
        if isinstance(t, pg.NondetAssign):
            return ra.bca_nondet_assign(t.target, a)
        if isinstance(t, pg.Guard) and t.rel == "=":
            return ra.bca_eq_guard(t.rows, t.mode, a)
        return a  # skip, and the != guard as AffAdapter treats it

    table = type(AffAdapter.table)({
        **AffAdapter.table,
        (pg.InitVector, "init"): lambda self, decl: reference_vector_literal(decl.entries, self.n),
        (pg.InitConstraints, "init"): lambda self, decl: ra.from_equalities(decl.rows, self.n),
    })


def random_literal(rng: random.Random, n: int, seen: set[str]) -> pg.InitDecl:
    kind = rng.random()
    if kind < 0.2:
        return pg.InitTop()
    if kind < 0.5:
        return pg.InitPoints(frozenset(
            tuple(random_entry(rng, seen) for _ in range(n)) for _ in range(rng.randint(1, 3))
        ))
    if kind < 0.8:
        return pg.InitVector(tuple(
            pg.TOP if rng.random() < 0.4 else random_entry(rng, seen) for _ in range(n)
        ))
    return pg.InitConstraints(tuple(random_linexpr(rng, n, seen) for _ in range(rng.randint(1, n))))


def random_rat_program(rng: random.Random, seen: set[str]) -> tuple[pg.Program, dict[str, pg.InitDecl]]:
    """A small rational CFG with ``random_entry`` coefficients, and a property at its last node."""
    n, k = rng.randint(1, 4), rng.randint(2, 6)
    nodes = tuple(f"q{i + 1}" for i in range(k))

    def transfer() -> pg.TransferFunction:
        kind = rng.random()
        if kind < 0.45:
            return pg.ParallelAffineAssign(random_assignment(rng, n, seen))
        if kind < 0.6:
            return pg.NondetAssign(rng.randint(1, n))
        if kind < 0.7:
            return pg.Identity()
        rows = tuple(random_linexpr(rng, n, seen) for _ in range(rng.randint(1, 2)))
        return pg.Guard(rows, "!=" if kind < 0.75 else "=", rng.choice(("conj", "disj")))

    edges = tuple(
        pg.Edge(rng.choice(nodes), transfer(), rng.choice(nodes)) for _ in range(rng.randint(k - 1, 2 * k))
    )
    inits = {q: random_literal(rng, n, seen) for q in rng.sample(nodes, rng.randint(1, min(2, k)))}
    return pg.Program(nodes, n, "rat", edges, inits), {nodes[-1]: random_literal(rng, n, seen)}


def test_forward_runs_match_the_fraction_reference():
    rng = random.Random(71)
    seen: set[str] = set()
    for _ in range(150):
        program, prop = random_rat_program(rng, seen)
        problem = AnalysisProblem.build(program, "affine", prop)
        adapter = ReferenceAffAdapter(program.n)
        ref_problem = AnalysisProblem(
            problem.nodes,
            problem.edges,
            adapter,
            problem.init.with_values(adapter.from_init(program.init_decl(q)) for q in program.nodes),
            problem.safety.with_values(
                adapter.from_init(prop[q]) if q in prop else adapter.top() for q in program.nodes
            ),
        )
        got, expected = ainv_forward(problem), ainv_forward(ref_problem)
        assert (got.found, got.kind, got.reason) == (expected.found, expected.kind, expected.reason)
        assert len(got.trace) == len(expected.trace)
        for v, ref_v in zip(got.trace, expected.trace):
            for x, ref_x in zip(v.values, ref_v.values):
                check(x, ref_x)
        seen.add(f"found {got.found}")
    assert {"found True", "found False", "fraction", "big"} <= seen


# ---------------------------------------------------------------------------
# One canonical form per subspace
# ---------------------------------------------------------------------------


def test_generator_sets_of_one_subspace_are_equal():
    """Another point of the set and another spanning list (invertible
    rational combinations of the rows, plus dependent rows) give an equal,
    equally hashed element; so does a negative denominator."""
    rng = random.Random(73)
    seen: set[str] = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        a, ref_a = random_pair(rng, n, seen)
        if a.is_empty:
            continue
        mixed = [list(b) for b in ref_a.basis]
        for i in range(len(mixed)):  # row i += c * row k: invertible, the same span
            for k in range(len(mixed)):
                if k != i and rng.random() < 0.5:
                    c = Fraction(rng.randint(-5, 5), rng.randint(1, 12))
                    mixed[i] = [x + c * y for x, y in zip(mixed[i], mixed[k])]
            scale = Fraction(rng.choice((-7, -1, 3)), rng.randint(1, 5))
            mixed[i] = [scale * x for x in mixed[i]]
        if mixed and rng.random() < 0.5:
            seen.add("dependent row")
            mixed.append([x - y for x, y in zip(mixed[0], mixed[-1])])
        rng.shuffle(mixed)
        (point,) = sample_points(rng, ref_a, 1)
        num, den = pg.clear_denominators(point)
        other = af.AffSubspace(n, num, [pg.clear_denominators(b)[0] for b in mixed], den)
        assert_canonical(other)
        assert other == a and hash(other) == hash(a)
        # integer generators: the basis in reverse order, the point over a negative denominator
        assert af.AffSubspace(n, [-x for x in a.num], a.basis[::-1], -a.den) == a
        seen.add(f"dim {a.dim}")
    assert {"dependent row", "dim 0", "dim 1", "dim 2", "dim 3"} <= seen
    with pytest.raises(ValueError, match="zero denominator"):
        af.AffSubspace(2, (1, 0), (), 0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        af.AffSubspace(2, (1, 0), ((1, 0, 0),))
