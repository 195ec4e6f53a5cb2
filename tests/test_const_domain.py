"""Constant domain: lattice laws, abstraction, and transfer approximations.

The independent oracle throughout is the collecting semantics on bounded
integer boxes: apply the concrete transfer to every point of the (boxed)
concretization and abstract the image with alpha.
"""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from absinv import const_domain as cd
from absinv import programs as pg
from absinv.synthesis import ConstAdapter
from conftest import dense_assign, gamma_box, identity_row, random_const_vec, random_label_program, random_linexpr_int

TOP = cd.TOP


def vec(*slots) -> cd.ConstVec:
    return slots


def abstract_value(e: pg.LinExpr, a: cd.ConstVec):
    """e on a nonbottom ``a``: its constant when every slot it reads (with a
    nonzero coefficient) is constant, top otherwise."""
    read = [(m, s) for m, s in zip(e.coeffs, a, strict=True) if m != 0]
    if any(s is TOP for _, s in read):
        return TOP
    return e.const + sum(m * s for m, s in read)


slot_st = st.one_of(st.integers(-5, 5), st.just(TOP))
vec_st = st.one_of(st.tuples(slot_st, slot_st), st.just(None))


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


def test_element_is_immutable():
    """An element is the tuple of its slots, and bottom is None."""
    dom, a = ConstAdapter(2), vec(1, TOP)
    with pytest.raises(TypeError):
        a[0] = 2
    assert a == (1, TOP) and dom.bottom() is None and dom.top() == (TOP, TOP)
    assert all(type(x) is tuple for x in (dom.top(), cd.alpha_points([(1, 2)], 2), cd.join(a, vec(2, TOP))))


def test_equal_elements_hash_equal():
    pairs = [
        (vec(1, TOP), (1, TOP)),
        ((TOP,) * 3, vec(TOP, TOP, TOP)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    assert vec(1, TOP) != vec(1, 2)


@pytest.mark.parametrize(
    "n, comps, message",
    [
        (3, (1, 2), "vector literal has 2 entries, expected 3"),
        (2, (1, Fraction(1, 2)), "bad slot value Fraction(1, 2)"),
        (2, (1.0, 2), "bad slot value 1.0"),
        (2, (TOP, True), "bad slot value True"),
        (2, [1, 2], None),
    ],
    ids=["length", "fraction", "float", "bool", "list"],
)
def test_bad_elements_are_rejected(n, comps, message):
    """Slots enter from outside through ``programs.checked_vector``: directly,
    from a vector literal and from alpha of points whose coordinate is the
    bad value.  A list of good slots is no fault: it reads as the equal
    tuple (``message`` None)."""
    entries = [lambda: pg.checked_vector(comps, n, "int"), lambda: ConstAdapter(n).from_init(pg.InitVector(comps))]
    if len(comps) == n:
        points = [tuple(v if s is TOP else s for s in comps) for v in (0, 1)]
        entries.append(lambda: ConstAdapter(n).alpha(points))
    for entry in entries:
        if message is None:
            a = entry()
            assert type(a) is tuple and a == tuple(comps)
            continue
        with pytest.raises(ValueError) as err:
            entry()
        assert str(err.value) == message


@pytest.mark.parametrize("a", [vec(1, TOP, -3), vec(TOP, TOP), None], ids=cd.render_const)
def test_elements_copy_and_pickle(a):
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a)
        assert b is None or [s is TOP for s in b] == [s is TOP for s in a]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(TOP, protocol)) is TOP
    assert copy.copy(TOP) is TOP and copy.deepcopy(TOP) is TOP


def test_adapter_shares_its_bounds():
    dom = ConstAdapter(3)
    assert dom.top() is dom.top() and dom.top() == vec(TOP, TOP, TOP)
    assert dom.bottom() is None


def test_join_and_meet_return_an_equal_operand():
    bot, a, b, c = None, vec(1, TOP), vec(1, 2), vec(3, 2)
    assert cd.join(bot, a) is a and cd.join(a, bot) is a
    assert cd.join(a, b) is a and cd.join(b, a) is a
    assert cd.join(a, vec(1, TOP)) is a
    assert cd.meet(bot, a) is bot and cd.meet(a, bot) is bot
    assert cd.meet(a, b) is b and cd.meet(b, a) is b
    assert cd.meet(b, vec(1, 2)) is b
    assert cd.join(b, c) == vec(TOP, 2) and cd.meet(b, c) == bot


def test_adapter_meet_with_its_top_returns_the_other_operand(monkeypatch):
    """The backward step meets with a top safety value at most nodes: the
    adapter answers that meet without calling ``cd.meet``."""
    dom, a, calls, meet = ConstAdapter(2), vec(1, TOP), [], cd.meet
    monkeypatch.setattr(cd, "meet", lambda x, y: calls.append((x, y)) or meet(x, y))
    assert dom.meet(dom.top(), a) is a and dom.meet(a, dom.top()) is a
    assert dom.meet(dom.top(), dom.bottom()) is dom.bottom()
    assert calls == []
    # an equal top that is not the adapter's goes through cd.meet
    assert dom.meet(vec(TOP, TOP), a) is a and len(calls) == 1


def test_guard_post_keeps_its_argument_and_assignment_wp_gives_the_adapter_top():
    """A guard post that no row narrows returns its argument object, not an
    equal copy: conjunctive, disjunctive and one-row, for = and for an
    inequality that reads a top slot.  An assignment wp whose target has no
    constant slot returns the adapter's ``top`` object, given that object
    or an equal copy.  ``_result`` in ``join`` and the identity shortcut of
    ``ConstAdapter.meet`` rely on both."""
    dom, a = ConstAdapter(3), vec(1, TOP, TOP)
    holds, two_tops, fixes = pg.LinExpr((1, 0, 0), -1), pg.LinExpr((0, 1, 1), 0), pg.LinExpr((0, 1, 0), -2)
    guards = [pg.Guard(rows, "=", mode) for rows in ((holds, two_tops), (holds,), (two_tops,)) for mode in ("conj", "disj")]
    guards += [pg.Guard((fixes, two_tops), "=", "disj"), pg.Guard((two_tops, fixes), ">", "conj")]
    for t in guards:
        assert dom.transfer(t, a) is a, t
    assert dom.transfer(pg.Guard((fixes,), "=", "conj"), a) == vec(1, 2, TOP)
    top, copy_of_top = dom.top(), tuple([TOP] * 3)
    assert copy_of_top == top and copy_of_top is not top
    for t in (pg.ParallelAffineAssign(((0, fixes),)), dense_assign([fixes, holds, two_tops])):
        assert dom.wp(t, top) is top and dom.wp(t, copy_of_top) is top, t


# ---------------------------------------------------------------------------
# Lattice laws
# ---------------------------------------------------------------------------


@given(vec_st, vec_st)
def test_join_meet_bound_laws(a, b):
    assert cd.leq(a, cd.join(a, b))
    assert cd.leq(b, cd.join(a, b))
    assert cd.leq(cd.meet(a, b), a)
    assert cd.leq(cd.meet(a, b), b)
    assert cd.join(a, b) == cd.join(b, a)
    assert cd.meet(a, b) == cd.meet(b, a)
    assert cd.join(a, a) == a and cd.meet(a, a) == a


@given(vec_st, vec_st, vec_st)
def test_join_associative_and_lub(a, b, c):
    assert cd.join(cd.join(a, b), c) == cd.join(a, cd.join(b, c))
    if cd.leq(a, c) and cd.leq(b, c):
        assert cd.leq(cd.join(a, b), c)


@given(vec_st, vec_st)
def test_leq_antisymmetric_on_canonical_forms(a, b):
    if cd.leq(a, b) and cd.leq(b, a):
        assert a == b


@given(vec_st)
def test_bounds(a):
    dom = ConstAdapter(2)
    assert cd.leq(dom.bottom(), a) and cd.leq(a, dom.top())


def test_height_and_chain_length():
    dom = ConstAdapter(3)
    assert dom.height() == 4
    chain = [
        None,
        vec(1, 1, 1),
        vec(TOP, 1, 1),
        vec(TOP, TOP, 1),
        vec(TOP, TOP, TOP),
    ]
    for lo, hi in zip(chain, chain[1:]):
        assert cd.leq(lo, hi) and lo != hi
    assert len(chain) == dom.height() + 1


# ---------------------------------------------------------------------------
# Abstraction and the adjunction law
# ---------------------------------------------------------------------------


def test_alpha_points_examples():
    assert cd.alpha_points([], 2) is None
    assert cd.alpha_points([(1, 0), (-1, 0)], 2) == vec(TOP, 0)
    assert cd.alpha_points([(4, 1)], 2) == vec(4, 1)


@given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=5), vec_st)
def test_alpha_gamma_adjunction_on_finite_sets(points, a):
    x = frozenset(points)
    lhs = cd.leq(cd.alpha_points(x, 2), a)
    rhs = all(ConstAdapter(2).contains(a, p) for p in x)
    assert lhs == rhs


def test_alpha_of_boxed_gamma_is_identity():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(1, 3)
        a = random_const_vec(rng, n)
        assert cd.alpha_points(gamma_box(a, 6), n) == a


# ---------------------------------------------------------------------------
# Assignments
# ---------------------------------------------------------------------------


def test_bca_assign_examples():
    """A single assignment xj := e is the parallel one with identity rows elsewhere."""
    x1, x2 = (identity_row(i, 2, 0, 1) for i in range(2))
    e = pg.LinExpr((1, 2), 0)
    assert cd.bca_parallel_assign(dense_assign((e, x2)), vec(0, 2)) == vec(4, 2)
    const2 = pg.LinExpr((0, 0), 2)
    assert cd.bca_parallel_assign(dense_assign((x1, const2)), vec(TOP, TOP)) == vec(TOP, 2)
    assert cd.bca_parallel_assign(dense_assign((e, x2)), None) is None


def test_bca_parallel_assign_examples():
    rows = (pg.LinExpr((1, 2), 0), pg.LinExpr((0, 1), -1))
    assert cd.bca_parallel_assign(dense_assign(rows), vec(0, 2)) == vec(4, 1)
    rows2 = (pg.LinExpr((1, -1), 0), pg.LinExpr((0, 1), 1))
    assert cd.bca_parallel_assign(dense_assign(rows2), vec(4, 1)) == vec(3, 2)
    ident = (pg.LinExpr((1, 0), 0), pg.LinExpr((0, 1), 0))
    assert cd.bca_parallel_assign(dense_assign(ident), vec(TOP, 7)) == vec(TOP, 7)


def test_assignments_sound_on_finite_sets():
    """alpha(t(X)) entails bca(alpha(X)) for every finite X (pointwise soundness)."""
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        pts = frozenset(
            tuple(rng.randint(-10, 10) for _ in range(n))
            for _ in range(rng.randint(0, 6))
        )
        rows = tuple(random_linexpr_int(rng, n) for _ in range(n))
        t = dense_assign(rows)
        image = pg.apply_transfer_concrete(t, pts)
        assert cd.leq(
            cd.alpha_points(image, n),
            cd.bca_parallel_assign(t, cd.alpha_points(pts, n)),
        )


def test_assignments_complete_for_single_variable_rows():
    """Rows reading at most one variable lose nothing: the two routes coincide.

    This is a special case of the sharp boundary of assignment completeness
    in this domain, rows that read at most one slot that is top in
    alpha(X); rows over two or more top slots can collapse on correlated
    sets (see the witness test below).
    """
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 4)
        pts = frozenset(
            tuple(rng.randint(-10, 10) for _ in range(n))
            for _ in range(rng.randint(0, 6))
        )
        rows = []
        for _ in range(n):
            coeffs = [0] * n
            if rng.random() < 0.8:
                coeffs[rng.randrange(n)] = rng.choice([-3, -2, -1, 1, 2, 3])
            rows.append(pg.LinExpr(tuple(coeffs), rng.randint(-3, 3)))
        t = dense_assign(tuple(rows))
        image = pg.apply_transfer_concrete(t, pts)
        assert cd.alpha_points(image, n) == cd.bca_parallel_assign(
            t, cd.alpha_points(pts, n)
        )


def test_assignments_complete_on_trivial_sets():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 4)
        pts = frozenset(
            [tuple(rng.randint(-10, 10) for _ in range(n))][: rng.randint(0, 1)]
        )
        rows = tuple(random_linexpr_int(rng, n) for _ in range(n))
        image = pg.apply_transfer_concrete(dense_assign(rows), pts)
        assert cd.alpha_points(image, n) == cd.bca_parallel_assign(
            dense_assign(rows), cd.alpha_points(pts, n)
        )


def test_assignment_incompleteness_witness_on_correlated_set():
    """Multi-variable rows are not pointwise complete: correlated slots collapse.

    The expression x1 + x2 is constantly 0 on {(0,0), (1,-1)} although both
    coordinates are unknown after abstraction, so going through the domain
    first discards the correlation.
    """
    x = frozenset({(0, 0), (1, -1)})
    t = dense_assign((pg.LinExpr((1, 1), 0), pg.LinExpr((0, 1), 0)))
    through_concrete = cd.alpha_points(pg.apply_transfer_concrete(t, x), 2)
    through_abstraction = cd.bca_parallel_assign(t, cd.alpha_points(x, 2))
    assert through_concrete == vec(0, TOP)
    assert through_abstraction == vec(TOP, TOP)
    assert cd.leq(through_concrete, through_abstraction)
    assert through_concrete != through_abstraction


def _dense_post(rows: tuple[pg.LinExpr, ...], a: cd.ConstVec) -> cd.ConstVec:
    """x := M x + b evaluated row by row, identity rows included."""
    if a is None:
        return a
    return tuple(abstract_value(r, a) for r in rows)


def _dense_wp(rows: tuple[pg.LinExpr, ...], target: cd.ConstVec) -> cd.ConstVec:
    """Each constant target slot as an equality guard on its row, identity
    rows included, applied in slot order to the full space."""
    if target is None:
        return target
    eqs = tuple(pg.LinExpr(r.coeffs, r.const - s) for r, s in zip(rows, target) if s is not TOP)
    return cd.bca_guard(eqs, "=", "conj", (TOP,) * len(target))


def test_sparse_assignment_post_and_wp_equal_the_dense_per_row_oracle():
    """The transfer evaluates only the assigned rows and the wp turns an
    unassigned constant slot into a direct slot constraint; both equal the
    dense per-row evaluation, on parsed assignments (identity rows written
    in for the unassigned slots) and on ones built from every row
    (written-out identity rows included)."""
    outcomes = {"bot": 0, "top": 0, "other": 0}
    for k in range(300):
        rng = random.Random(f"sparse:{k}")
        program = pg.parse_program(random_label_program(rng, "int"))
        n, dom = program.n, ConstAdapter(program.n)
        cases = []
        for _, t, _ in program.edges:
            if isinstance(t, pg.ParallelAffineAssign):
                assigned = dict(t.rows)
                cases.append((t, tuple(assigned.get(j, identity_row(j, n, 0, 1)) for j in range(n))))
        rows = tuple(identity_row(j, n, 0, 1) if rng.random() < 0.5 else random_linexpr_int(rng, n) for j in range(n))
        cases.append((dense_assign(rows), rows))
        for t, rows in cases:
            for _ in range(20):
                a = random_const_vec(rng, n, -2, 2)
                assert dom.transfer(t, a) == _dense_post(rows, a), (t, a)
                wp = dom.wp(t, a)
                assert wp == _dense_wp(rows, a), (t, a)
                outcomes["bot" if wp is None else "top" if wp == dom.top() else "other"] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_nondet_assign_sets_slot_to_top():
    assert cd.bca_nondet_assign(1, vec(5, 7)) == vec(TOP, 7)
    assert cd.bca_nondet_assign(2, None) is None


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


def test_one_row_guard_examples():
    """A decided row keeps or kills the element, a row that reads a top slot
    keeps it unless the relation is = (which refines a lone top slot), and
    bottom stays bottom."""
    e = pg.LinExpr((1, 2), 0)  # x1 + 2 x2, which is 4 on (0,2)
    assert cd.bca_guard((e,), ">", "conj", vec(0, 2)) == vec(0, 2)
    assert cd.bca_guard((e,), "=", "conj", vec(0, 2)) is None
    assert cd.bca_guard((e,), "=", "conj", vec(TOP, 2)) == vec(-4, 2)
    for rel in ("!=", "<", "<=", ">", ">="):
        assert cd.bca_guard((e,), rel, "conj", vec(TOP, 2)) == vec(TOP, 2)
    for rel in ("=", "!=", "<", "<=", ">", ">="):
        assert cd.bca_guard((e,), rel, "disj", None) is None


def test_one_row_guard_ignores_zero_coefficient_tops():
    """3 x2 + 1 is 7 on (top,2): the row is decided, though slot 1 is top."""
    e = pg.LinExpr((0, 3), 1)
    assert cd.bca_guard((e,), "<", "conj", vec(TOP, 2)) is None
    assert cd.bca_guard((e,), "=", "conj", vec(TOP, 2)) is None
    assert cd.bca_guard((e,), ">=", "conj", vec(TOP, 2)) == vec(TOP, 2)


def test_bca_rel_guard_examples():
    e = pg.LinExpr((1, 0), -9)  # x1 - 9
    assert cd.bca_guard((e,), ">=", "conj", vec(0, 2)) is None
    assert cd.bca_guard((e,), ">=", "conj", vec(TOP, 2)) == vec(TOP, 2)
    assert cd.bca_guard((e,), "<", "conj", None) is None


def test_bca_eq_guard_examples():
    x1 = pg.LinExpr((1, 0), 0)
    assert cd.bca_eq_guard(x1, vec(TOP, 0)) == vec(0, 0)
    x1_plus_1 = pg.LinExpr((1, 0), 1)
    assert cd.bca_eq_guard(x1_plus_1, vec(5, TOP)) is None
    two_x1_plus_1 = pg.LinExpr((2, 0), 1)
    assert cd.bca_eq_guard(two_x1_plus_1, vec(TOP, TOP)) is None


def test_bca_eq_guard_divides_single_unknown():
    # 3 x1 - 12 = 0 pins x1 to 4; 3 x1 - 10 = 0 has no integer solution
    assert cd.bca_eq_guard(pg.LinExpr((3, 0), -12), vec(TOP, 9)) == vec(4, 9)
    assert cd.bca_eq_guard(pg.LinExpr((3, 0), -10), vec(TOP, 9)) is None


def test_bca_eq_guard_gcd_on_several_unknowns():
    # 2 x1 + 4 x2 + 1 = 0 unsolvable over the integers; +2 solvable
    assert cd.bca_eq_guard(pg.LinExpr((2, 4), 1), vec(TOP, TOP)) is None
    assert cd.bca_eq_guard(pg.LinExpr((2, 4), 2), vec(TOP, TOP)) == vec(TOP, TOP)


def reference_bca_eq_guard(e: pg.LinExpr, a: cd.ConstVec) -> cd.ConstVec:
    """The three-pass equality guard this module had before the one-pass one."""
    if a is None:
        return a
    v = abstract_value(e, a)
    if v is not TOP:
        return a if v == 0 else None
    free = [i for i, (m, s) in enumerate(zip(e.coeffs, a)) if m != 0 and s is TOP]
    residual = e.const
    for m, s in zip(e.coeffs, a):
        if m != 0 and s is not TOP:
            residual += m * s
    if len(free) == 1:
        m_j = e.coeffs[free[0]]
        if residual % m_j == 0:
            return a[: free[0]] + (-residual // m_j,) + a[free[0] + 1:]
        return None
    g = 0
    for i in free:
        g = gcd(g, e.coeffs[i])
    if residual % g != 0:
        return None
    return a


def reference_bca_rel_guard(e: pg.LinExpr, rel: str, a: cd.ConstVec) -> cd.ConstVec:
    """The two-return relational guard this module had before."""
    if a is None:
        return a
    v = abstract_value(e, a)
    if v is TOP:
        return a
    return a if pg.relation_holds(v, rel) else None


def test_one_pass_guards_match_the_reference_guards():
    """Seeded rows and elements with n ≤ 5 and coefficients in -6..6: a
    one-row guard of every relation, in both modes, and the equality guard
    the wp calls equal the reference guards; every case of the equality
    guard occurs."""
    rng = random.Random(29)
    cases = set()
    for _ in range(4000):
        n = rng.randint(1, 5)
        a = random_const_vec(rng, n, lo=-6, hi=6)
        e = random_linexpr_int(rng, n, coeff=6)
        got = cd.bca_eq_guard(e, a)
        assert got == reference_bca_eq_guard(e, a), (e, a)
        for rel in ("=", "!=", "<", "<=", ">", ">="):
            ref = reference_bca_eq_guard(e, a) if rel == "=" else reference_bca_rel_guard(e, rel, a)
            for mode in ("conj", "disj"):
                assert cd.bca_guard((e,), rel, mode, a) == ref, (e, rel, mode, a)
        if a is None:
            cases.add("bottom")
            continue
        free = [m for m, s in zip(e.coeffs, a) if m != 0 and s is TOP]
        if not free:
            cases.add("decided")
        else:
            shape = "one free" if len(free) == 1 else "several free"
            cases.add(f"{shape}, {'no solution' if got is None else 'solvable'}")
    assert cases == {
        "bottom", "decided", "one free, solvable", "one free, no solution",
        "several free, solvable", "several free, no solution",
    }


def test_eq_guard_matches_box_oracle_on_single_unknown():
    """The refined slot must agree with the exact image abstraction.

    This pins the sound reading of the single-unknown case: the slot takes
    the solution of  m_j x_j + k = 0, not the residual constant itself.
    The box only needs to range over the one unknown slot; 100 safely covers
    every reachable solution for the generated coefficient sizes.
    """
    rng = random.Random(23)
    bound = 100
    for _ in range(300):
        n = rng.randint(1, 3)
        j = rng.randrange(n)
        slots = [rng.randint(-4, 4) for _ in range(n)]
        slots[j] = TOP
        a = tuple(slots)
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        coeffs[j] = rng.choice([-3, -2, -1, 1, 2, 3])
        e = pg.LinExpr(tuple(coeffs), rng.randint(-3, 3))
        expected = cd.alpha_points(
            pg.apply_transfer_concrete(pg.Guard((e,), "=", "conj"), gamma_box(a, bound)),
            n,
        )
        assert expected == cd.bca_eq_guard(e, a)


def test_guards_sound_on_box_samples():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        a = random_const_vec(rng, n, lo=-3, hi=3)
        pts = gamma_box(a, 4)
        sample = frozenset(rng.sample(pts, min(len(pts), 8))) if pts else frozenset()
        e = random_linexpr_int(rng, n)
        rel = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        t = pg.Guard((e,), rel, "conj")
        image = pg.apply_transfer_concrete(t, sample)
        out = cd.bca_guard((e,), rel, "conj", a)
        assert cd.leq(cd.alpha_points(image, n), out)


def test_transfers_exact_on_singleton_concretizations():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 3)
        a = tuple(rng.randint(-4, 4) for _ in range(n))
        choice = rng.random()
        if choice < 0.4:
            rows = tuple(random_linexpr_int(rng, n) for _ in range(n))
            t: pg.TransferFunction = dense_assign(rows)
            out = cd.bca_parallel_assign(t, a)
        elif choice < 0.7:
            e = random_linexpr_int(rng, n)
            t = pg.Guard((e,), "=", "conj")
            out = cd.bca_eq_guard(e, a)
        else:
            e = random_linexpr_int(rng, n)
            rel = rng.choice(["!=", "<", "<=", ">", ">="])
            t = pg.Guard((e,), rel, "conj")
            out = cd.bca_guard(t.rows, rel, t.mode, a)
        exact = cd.alpha_points(pg.apply_transfer_concrete(t, gamma_box(a, 40)), n)
        assert exact == out


def test_multi_row_guard_modes():
    rows = (pg.LinExpr((1, 0), 0), pg.LinExpr((0, 1), -2))  # x1 = 0, x2 = 2
    a = vec(TOP, TOP)
    assert cd.bca_guard(rows, "=", "conj", a) == vec(0, 2)
    # disjunction: join of the two refinements collapses refined slots
    assert cd.bca_guard(rows, "=", "disj", a) == vec(TOP, TOP)
    dead = (pg.LinExpr((0, 0), 1), pg.LinExpr((0, 0), 2))
    assert cd.bca_guard(dead, "=", "disj", a) is None


def test_conjunctive_guard_is_sound_but_not_best():
    """Rows are applied one at a time, so what they imply together is lost."""
    rows = (pg.LinExpr((1, 1), 0), pg.LinExpr((1, -1), 0))  # x1 + x2 = 0, x1 - x2 = 0
    image = pg.apply_transfer_concrete(pg.Guard(rows, "=", "conj"), gamma_box(vec(TOP, TOP), 4))
    assert cd.alpha_points(image, 2) == vec(0, 0)  # the best answer
    assert cd.bca_guard(rows, "=", "conj", vec(TOP, TOP)) == vec(TOP, TOP)


def test_guard_incompleteness_witness():
    """Equality guards are not pointwise complete: the two routes differ."""
    x = frozenset({(1, 0), (-1, 0)})
    guard = pg.Guard((pg.LinExpr((1, 0), 0),), "=", "conj")
    through_concrete = cd.alpha_points(pg.apply_transfer_concrete(guard, x), 2)
    assert through_concrete is None
    through_abstraction = cd.bca_eq_guard(pg.LinExpr((1, 0), 0), cd.alpha_points(x, 2))
    assert through_abstraction == vec(0, 0)
    assert through_concrete != through_abstraction


def test_render():
    assert cd.render_const(None) == "bot"
    assert cd.render_const(vec(TOP, 2)) == "(top,2)"


def test_render_prints_each_slot_as_the_slot_type_prints_it():
    """Every slot renders as ``str`` of it, ``top`` included: the text equals
    a per-slot rendering with the marker spelled out, on bottom and on
    seeded vectors with negative, multi-digit and top slots."""
    rng = random.Random(26)
    elements = [None, vec(-12, TOP, 345), vec(TOP), vec(0, -7, TOP, 1000001)]
    elements += [random_const_vec(rng, rng.randint(1, 6), -1000, 1000) for _ in range(300)]
    for a in elements:
        expected = "bot" if a is None else "(" + ",".join("top" if s is TOP else str(s) for s in a) + ")"
        assert cd.render_const(a) == expected
    ints = [s for a in elements if a is not None for s in a if s is not TOP]
    assert min(ints) < -9 and max(ints) > 9 and any(a is None for a in elements[4:])
