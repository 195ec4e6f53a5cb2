"""Constant-propagation domain over ℤ: flat per-variable constants plus ⊥/⊤.

An element is ⊥, which is ``None`` (no value vectors), or the tuple of its
n slots, each an ``int`` or the marker ``programs.TOP``; the order is the
pointwise flat order with a single shared bottom.  The concretization of a
vector is the box of all integer vectors matching its constant slots.  This
module holds the pure functions on elements; the n-variable lattice itself,
with its bounds, height n + 1, alpha and gamma-membership, is
``synthesis.ConstAdapter``.

The module owns every constant transfer: the posts ``bca_*`` are best
correct approximations (alpha ∘ t ∘ gamma), except conjunctive multi-row
guards, which are only sound (see :func:`bca_guard`), and the weakest
preconditions ``wp_*``, which only backward synthesis reads, keep the wp
contract (transfer(t, a) ≤ b implies a ≤ wp(t, b), and wp is monotone in
b).  Affine assignments are handled exactly.  One routine, :func:`narrow`,
decides a row e ⋈ 0 on a box for every relation ⋈, one pass per row; guard
posts and the assignment wp both narrow by it.

Slots enter from outside only through ``programs.checked_vector``, which
every vector literal (parsed or built in code, each time
``synthesis.ConstAdapter`` reads one) and each point of :func:`alpha_points`
pass: n entries, each a number of sort ``int`` (no ``bool``) or, in a
literal, ``TOP``.  The rest copy checked slots or compute ``int``s from
``int`` coefficients (``programs.check_edges`` rejects others for
``Program`` and ``AnalysisProblem`` alike), so need no check.  Elements
are immutable and can be shared: both adapters of
``synthesis`` keep one ``top`` and one ``bot`` each,
``AnalysisProblem.build`` shares one adapter per (domain, n), and
:func:`join` and :func:`meet` return an operand, not an equal copy, when
the result equals it.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from .programs import RELATIONS, TOP, Guard, LinExpr, ParallelAffineAssign, _Top, checked_vector, guard_holds

ConstVal = int | _Top  # a single slot
ConstVec = tuple[ConstVal, ...] | None  # an element; None is bottom


def leq(a: ConstVec, b: ConstVec) -> bool:
    if a is None:
        return True
    if b is None:
        return False
    return all(y is TOP or x == y for x, y in zip(a, b))


def _result(comps: tuple[ConstVal, ...], a: ConstVec, b: ConstVec) -> ConstVec:
    """The element with slots ``comps``: an operand when its slots are these."""
    if comps == a:
        return a
    if comps == b:
        return b
    return comps


def join(a: ConstVec, b: ConstVec) -> ConstVec:
    if a is None:
        return b
    if b is None:
        return a
    return _result(tuple(x if x == y else TOP for x, y in zip(a, b)), a, b)


def meet(a: ConstVec, b: ConstVec) -> ConstVec:
    if a is None:
        return a
    if b is None:
        return b
    out: list[ConstVal] = []
    for x, y in zip(a, b):
        if x is TOP:
            out.append(y)
        elif y is TOP or x == y:
            out.append(x)
        else:
            return None  # empty slot collapses the vector
    return _result(tuple(out), a, b)


# ---------------------------------------------------------------------------
# Abstraction of finite point sets
# ---------------------------------------------------------------------------


def alpha_points(points: Iterable[tuple[int, ...]], n: int) -> ConstVec:
    """Best abstraction of a finite set of integer vectors.

    Componentwise: bottom for the empty set, the constant when a coordinate
    projection is a singleton, top otherwise.
    """
    pts = [checked_vector(p, n, "int", top=False) for p in points]
    return tuple(c[0] if len(set(c)) == 1 else TOP for c in zip(*pts)) if pts else None


# ---------------------------------------------------------------------------
# Transfer functions: best correct approximations and weakest preconditions
# ---------------------------------------------------------------------------


def bca_parallel_assign(t: ParallelAffineAssign, a: ConstVec) -> ConstVec:
    """Best approximation of x := M x + b; every row reads the old slots.

    Only the rows in ``t.assigned`` are evaluated, on their nonzero
    coefficients: each is its exact constant, or top when it reads a top
    slot.  An unassigned slot keeps its value."""
    if a is None:
        return a
    comps = list(a)
    for j, terms, acc in t.assigned:
        for i, c in terms:
            if (s := a[i]) is TOP:
                acc = TOP
                break
            acc += c * s
        comps[j] = acc
    return tuple(comps)


def bca_nondet_assign(j: int, a: ConstVec) -> ConstVec:
    """Best approximation of xj := ? — the target slot becomes top."""
    return a if a is None else a[: j - 1] + (TOP,) + a[j:]


def narrow(comps: list[ConstVal], rows: Iterable[tuple[Iterable[tuple[int, int]], int]], rel: str) -> bool:
    """Narrow the box of the slots ``comps`` in place by each row Σ m·x_i + k ⋈ 0
    in turn, given as its (i, m) pairs and k; False as soon as the box is
    empty.  One pass per row sums the constant slots into k and takes the gcd
    g of the coefficients on top slots.  The cases:

    - no top slot is read: the row is decided; the box is empty unless k ⋈ 0;
    - ⋈ is not =: the row ranges over k + gℤ, unbounded both ways: no change;
    - g does not divide k: no integer solution (Granger's test): empty;
    - one top slot i is read: m_i·x_i + k = 0 fixes slot i at -k/m_i;
    - several top slots are read: every coordinate projection of the
      solution set is infinite and the box is already the best: no change.
    """
    holds = RELATIONS[rel]
    for terms, k in rows:
        g = free = 0  # gcd and count of the top slots read; the last is i_free, times m_free
        for i, m in terms:
            if m:
                if (s := comps[i]) is TOP:
                    g, free, i_free, m_free = gcd(g, m), free + 1, i, m
                else:
                    k += m * s
        if not free:
            if not holds(k, 0):
                return False
        elif rel == "=":
            if k % g != 0:
                return False
            if free == 1:
                comps[i_free] = -k // m_free
    return True


def _narrowed(rows: Iterable[LinExpr], rel: str, a: ConstVec) -> ConstVec:
    """``a`` narrowed by the rows e ⋈ 0; ``a`` itself when no row fixes a slot."""
    if a is None:
        return a
    comps = list(a)
    if not narrow(comps, [(enumerate(e.coeffs), e.const) for e in rows], rel):
        return None
    return _result(tuple(comps), a, a)


def bca_eq_guard(e: LinExpr, a: ConstVec) -> ConstVec:
    """Best approximation of the equality guard e = 0 (one row)."""
    return _narrowed((e,), "=", a)


def bca_guard(rows: tuple[LinExpr, ...], rel: str, mode: str, a: ConstVec) -> ConstVec:
    """Multi-row guard: disjunction joins per-row results (alpha is additive
    on unions, so this is exact); conjunction narrows by the rows in turn
    (sound, exact when rows touch disjoint slots) and stops at bottom."""
    if mode == "disj":
        out = None
        for e in rows:
            out = join(out, _narrowed((e,), rel, a))
        return out
    return _narrowed(rows, rel, a)


def wp_parallel_assign(t: ParallelAffineAssign, target: ConstVec, top: ConstVec) -> ConstVec:
    """Each constant slot of the target is an equality on the old values; their
    conjunction, in slot order, narrows the full space (exact for single-constant
    targets): an assigned row as an equality guard, an unassigned slot x_j = c
    by setting or checking slot j.  No constant slot gives ``top``, the caller's
    own object.  Not best when an assigned row reads a constant unassigned slot
    later in slot order, which it sees as top: x1 := x1 + x2 at (5,3) gives
    (top,3), where (2,3) is best."""
    if target is None or target is top:  # every post lies below top
        return target
    rows, comps, constant = t.by_target, [TOP] * len(target), False
    for j, slot in enumerate(target):
        if slot is TOP:
            continue
        constant = True
        if j not in rows:
            if comps[j] is TOP:
                comps[j] = slot
            elif comps[j] != slot:
                return None
            continue
        terms, const = rows[j]
        if not narrow(comps, ((terms, const - slot),), "="):
            return None
    return tuple(comps) if constant else top


def wp_nondet_assign(j: int, target: ConstVec) -> ConstVec:
    """wp of xj := ?: the target when its slot j is top, else bottom."""
    return target if target is None or target[j - 1] is TOP else None


def wp_guard(t: Guard, target: ConstVec, top: ConstVec) -> ConstVec:
    """The target if the rows are constant and hold, so hold everywhere; else ``top``."""
    if all(r.is_constant() for r in t.rows) and guard_holds(t, (0,) * len(t.rows[0].coeffs)):
        return target
    return top


# ---------------------------------------------------------------------------
# Rendering and literals
# ---------------------------------------------------------------------------


def render_const(a: ConstVec) -> str:
    if a is None:
        return "bot"
    return "(" + ",".join(map(str, a)) + ")"  # TOP prints as top
