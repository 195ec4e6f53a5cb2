"""Constant-propagation domain over ℤ: flat per-variable constants plus ⊥/⊤.

An element is either ``bot`` (no value vectors) or an n-vector whose slots are
integers or ``top``; the order is the pointwise flat order with a single
shared bottom.  The concretization of a vector is the box of all integer
vectors matching its constant slots.  This module holds the elements and
the pure functions on them; the n-variable lattice itself, with its bounds,
height n + 1, alpha and gamma-membership, is ``synthesis.ConstAdapter``.

The transfer functions below are best correct approximations (alpha ∘ t ∘
gamma), except conjunctive multi-row guards, which are only sound (see
:func:`bca_guard`): affine assignments are handled exactly, and one pass per
guard row decides the row e ⋈ 0 for every relation ⋈ (see :func:`solve_row`).

All values are immutable; every function is pure.  ``ConstVec`` is a
``__slots__`` class that checks its slots (a tuple of ``int`` or the marker
``programs.TOP``, which a ``top`` entry of a vector literal parses to; a
``bool`` is rejected) on every construction and refuses any later
assignment, so an element can be shared: both adapters of ``synthesis``
keep one ``top`` and one ``bot`` each, and :func:`join` and :func:`meet`
return an operand, not an equal copy, when the result equals it.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .programs import TOP, LinExpr, ParallelAffineAssign, _Top, relation_holds

ConstVal = int | _Top  # a single slot; the vector-level bottom is ConstVec.bottom

_SLOT_TYPES = frozenset((int, _Top))
_set = object.__setattr__


class ConstVec:
    """⊥ or an n-vector of (int | top) slots; the unique bottom has comps=None.

    Immutable: every construction checks the slots, and no attribute can be
    set afterwards, so an element may be shared freely.
    """

    __slots__ = ("n", "comps")

    n: int
    comps: tuple[ConstVal, ...] | None

    def __init__(self, n: int, comps: tuple[ConstVal, ...] | None) -> None:
        if comps is not None and (
            type(comps) is not tuple or len(comps) != n or not _SLOT_TYPES.issuperset(map(type, comps))
        ):
            if type(comps) is not tuple:
                raise ValueError(f"slots must be a tuple, not {type(comps).__name__}")
            if len(comps) != n:
                raise ValueError("component count must equal n")
            bad = next(c for c in comps if type(c) not in _SLOT_TYPES)
            raise ValueError(f"bad slot value {bad!r}")
        _set(self, "n", n)
        _set(self, "comps", comps)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return ConstVec, (self.n, self.comps)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.comps == other.comps and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.n, self.comps))

    @classmethod
    def bottom(cls, n: int) -> "ConstVec":
        return cls(n, None)

    @property
    def is_bottom(self) -> bool:
        return self.comps is None

    def replace(self, j: int, value: ConstVal) -> "ConstVec":
        """Copy with 1-based slot j set to ``value`` (⊥ stays ⊥)."""
        if self.comps is None:
            return self
        return ConstVec(self.n, self.comps[: j - 1] + (value,) + self.comps[j:])

    def __repr__(self) -> str:
        return render_const(self)


def leq(a: ConstVec, b: ConstVec) -> bool:
    if a.comps is None:
        return True
    if b.comps is None:
        return False
    return all(y is TOP or x == y for x, y in zip(a.comps, b.comps))


def _result(comps: tuple[ConstVal, ...], a: ConstVec, b: ConstVec) -> ConstVec:
    """The element with slots ``comps``: an operand when its slots are these."""
    if comps == a.comps:
        return a
    if comps == b.comps:
        return b
    return ConstVec(a.n, comps)


def join(a: ConstVec, b: ConstVec) -> ConstVec:
    if a.comps is None:
        return b
    if b.comps is None:
        return a
    return _result(tuple(x if x == y else TOP for x, y in zip(a.comps, b.comps)), a, b)


def meet(a: ConstVec, b: ConstVec) -> ConstVec:
    if a.comps is None:
        return a
    if b.comps is None:
        return b
    out: list[ConstVal] = []
    for x, y in zip(a.comps, b.comps):
        if x is TOP:
            out.append(y)
        elif y is TOP or x == y:
            out.append(x)
        else:
            return ConstVec.bottom(a.n)  # empty slot collapses the vector
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
        return ConstVec.bottom(n)
    if any(len(p) != n for p in pts):
        raise ValueError("dimension mismatch")
    slots: list[ConstVal] = []
    for i in range(n):
        proj = {p[i] for p in pts}
        slots.append(proj.pop() if len(proj) == 1 else TOP)
    return ConstVec(n, tuple(slots))


# ---------------------------------------------------------------------------
# Best correct approximations of transfer functions
# ---------------------------------------------------------------------------


def bca_parallel_assign(t: ParallelAffineAssign, a: ConstVec) -> ConstVec:
    """Best approximation of x := M x + b; every row reads the old slots.

    Only the rows in ``t.assigned`` are evaluated, on their nonzero
    coefficients: each is its exact constant, or top when it reads a top
    slot.  An unassigned slot keeps its value."""
    if a.comps is None:
        return a
    old, comps = a.comps, list(a.comps)
    for j, terms, acc in t.assigned:
        for i, c in terms:
            if (s := old[i]) is TOP:
                acc = TOP
                break
            acc += c * s
        comps[j] = acc
    return ConstVec(a.n, tuple(comps))


def bca_nondet_assign(j: int, a: ConstVec) -> ConstVec:
    """Best approximation of xj := ? — the target slot becomes top."""
    return a.replace(j, TOP)


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
    if a.comps is None:
        return a
    fix = solve_row(zip(range(a.n), e.coeffs, strict=True), e.const, rel, a.comps)
    if fix is True:
        return a
    if fix is False:
        return ConstVec.bottom(a.n)
    return a.replace(fix[0] + 1, fix[1])


def bca_eq_guard(e: LinExpr, a: ConstVec) -> ConstVec:
    """Best approximation of the equality guard e = 0 (one row)."""
    return _row(e, "=", a)


def bca_guard(rows: tuple[LinExpr, ...], rel: str, mode: str, a: ConstVec) -> ConstVec:
    """Multi-row guard: disjunction joins per-row results (alpha is additive
    on unions, so this is exact); conjunction composes the per-row
    approximations sequentially (sound, exact when rows touch disjoint
    slots) and stops at bottom, which every row returns as is."""
    if mode == "disj":
        out = ConstVec.bottom(a.n)
        for r in rows:
            out = join(out, _row(r, rel, a))
        return out
    for r in rows:
        if a.comps is None:
            return a
        a = _row(r, rel, a)
    return a


# ---------------------------------------------------------------------------
# Rendering and literals
# ---------------------------------------------------------------------------


def render_const(a: ConstVec) -> str:
    if a.comps is None:
        return "bot"
    return "(" + ",".join(map(str, a.comps)) + ")"  # TOP prints as top
