"""Constant-propagation domain over ℤ: flat per-variable constants plus ⊥/⊤.

An element is ⊥, which is ``None`` (no value vectors), or the tuple of its
n slots, each an ``int`` or the marker ``programs.TOP``; the order is the
pointwise flat order with a single shared bottom.  The concretization of a
vector is the box of all integer vectors matching its constant slots.  This
module holds the pure functions on elements; the n-variable lattice itself,
with its bounds, height n + 1, alpha and gamma-membership, is
``synthesis.ConstAdapter``.

The transfer functions below are best correct approximations (alpha ∘ t ∘
gamma), except conjunctive multi-row guards, which are only sound (see
:func:`bca_guard`): affine assignments are handled exactly, and one pass per
guard row decides the row e ⋈ 0 for every relation ⋈ (see :func:`solve_row`).

Slots enter from outside only through :func:`checked`, which a vector
literal and :func:`alpha_points` call: a tuple of n slots, each an ``int``
or ``TOP``, where the ``int``s are the numbers of sort ``int`` in
``programs.SORTS`` (no ``bool``).  The rest copy checked slots or compute
``int``s from ``int`` coefficients (``programs.check_edges`` rejects others
for ``Program`` and ``AnalysisProblem`` alike), so need no check.  Elements
are immutable and can be shared: both adapters of ``synthesis`` keep one
``top`` and one ``bot`` each, and :func:`join` and :func:`meet` return an
operand, not an equal copy, when the result equals it.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .programs import TOP, LinExpr, ParallelAffineAssign, _Top, check_numbers, relation_holds

ConstVal = int | _Top  # a single slot
ConstVec = tuple[ConstVal, ...] | None  # an element; None is bottom


def checked(slots: object, n: int) -> ConstVec:
    """``slots`` as an element, once it is a tuple of n ints or ``TOP``."""
    if type(slots) is not tuple:
        raise ValueError(f"slots must be a tuple, not {type(slots).__name__}")
    if len(slots) != n:
        raise ValueError("component count must equal n")
    check_numbers([[s for s in slots if s is not TOP]], "int")
    return slots


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
    pts = list(points)
    if not pts:
        return None
    if any(len(p) != n for p in pts):
        raise ValueError("dimension mismatch")
    slots: list[ConstVal] = []
    for i in range(n):
        proj = {p[i] for p in pts}
        slots.append(proj.pop() if len(proj) == 1 else TOP)
    return checked(tuple(slots), n)


# ---------------------------------------------------------------------------
# Best correct approximations of transfer functions
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


def solve_row(terms: Iterable[tuple[int, int]], k: int, rel: str, comps: Sequence[ConstVal]) -> bool | tuple[int, int]:
    """Decide one guard row  Σ m·x_i + k ⋈ 0  (``terms`` are its (i, m)
    pairs) on the box of the slots ``comps``.

    One pass sums the constant slots into k and takes the gcd g of the
    coefficients on top slots.  The cases, with the result:

    - no top slot is read: the row is decided, so whether k ⋈ 0;
    - ⋈ is not =: the row ranges over k + gℤ, unbounded both ways: True;
    - g does not divide k: no integer solution (Granger's test): False;
    - one top slot i is read: m_i·x_i + k = 0 fixes slot i: (i, -k/m_i);
    - several top slots are read: every coordinate projection of the
      solution set is infinite and the box is already the best: True.
    """
    g, free, m_free = 0, [], 0
    for i, m in terms:
        if m == 0:
            continue
        if (s := comps[i]) is TOP:
            free.append(i)
            g, m_free = gcd(g, m), m
        else:
            k += m * s
    if not free:
        return relation_holds(k, rel)
    if rel != "=":
        return True
    if k % g != 0:
        return False
    if len(free) == 1:
        return free[0], -k // m_free
    return True


def _row(e: LinExpr, rel: str, a: ConstVec) -> ConstVec:
    """Best approximation of one guard row e ⋈ 0: ``a`` kept, killed or
    with one slot fixed, as :func:`solve_row` decides."""
    if a is None:
        return a
    fix = solve_row(zip(range(len(a)), e.coeffs, strict=True), e.const, rel, a)
    if fix is True:
        return a
    if fix is False:
        return None
    i, c = fix
    return a[:i] + (c,) + a[i + 1:]


def bca_eq_guard(e: LinExpr, a: ConstVec) -> ConstVec:
    """Best approximation of the equality guard e = 0 (one row)."""
    return _row(e, "=", a)


def bca_guard(rows: tuple[LinExpr, ...], rel: str, mode: str, a: ConstVec) -> ConstVec:
    """Multi-row guard: disjunction joins per-row results (alpha is additive
    on unions, so this is exact); conjunction composes the per-row
    approximations sequentially (sound, exact when rows touch disjoint
    slots) and stops at bottom, which every row returns as is."""
    if mode == "disj":
        out = None
        for r in rows:
            out = join(out, _row(r, rel, a))
        return out
    for r in rows:
        if a is None:
            return a
        a = _row(r, rel, a)
    return a


# ---------------------------------------------------------------------------
# Rendering and literals
# ---------------------------------------------------------------------------


def render_const(a: ConstVec) -> str:
    if a is None:
        return "bot"
    return "(" + ",".join(map(str, a)) + ")"  # TOP prints as top
