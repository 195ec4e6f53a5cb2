"""Brute-force ground truth on small finite instances.

This module machine-checks, by exhaustive enumeration, the order-theoretic
facts the rest of the package relies on: the abstract inductive-invariant
principle, the fixpoint-completeness characterizations, the avoid/closure
machinery, and the equivalence of the co-inductive synthesis algorithms.

State spaces are encoded as bit sets (one bit per state, |Σ| ≤ 64, suites
use |Σ| ≤ 8 so 2^|Σ| sweeps stay cheap).  Finite lattices carry explicit
order tables and are validated at construction.  Every checker returns a
report; on valid inputs a checker reporting a failure is a build-breaking
bug in either the checker or the core library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, starmap
from operator import and_, or_
from typing import Callable, Iterable, Sequence

from .lattice import AbstractDomain, check_inductive_invariant, gfp_iterate, kleene, lfp_iterate


class ValidationError(ValueError):
    """Construction-time validation failure (not a lattice / not a GI)."""


class ClosureViolation(ValueError):
    """A closure-family assumption required by an algorithm does not hold."""


# ---------------------------------------------------------------------------
# Bit-set helpers
# ---------------------------------------------------------------------------


def bits(mask: int) -> Iterable[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def subset(a: int, b: int) -> bool:
    return a & ~b == 0


# ---------------------------------------------------------------------------
# Finite lattices
# ---------------------------------------------------------------------------


class FiniteLattice(AbstractDomain):
    """An explicit finite lattice over element indices 0..size-1.

    ``up[i]`` is the bit mask of elements j with i ≤ j.  Construction
    validates reflexivity, antisymmetry, transitivity and the existence of
    all binary lubs/glbs plus bottom and top.
    """

    def __init__(self, up: Sequence[int], labels: Sequence[str] | None = None):
        self.up = tuple(up)
        self.size = len(self.up)
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(self.size))
        if len(self.labels) != self.size:
            raise ValidationError("label count mismatch")
        self._validate_order()
        self.down = tuple(
            sum(1 << i for i in range(self.size) if (self.up[i] >> j) & 1)
            for j in range(self.size)
        )
        self.join_table = self._bound_table(self.up)
        self.meet_table = self._bound_table(self.down)
        self._bottom = next(i for i in range(self.size) if self.up[i] == (1 << self.size) - 1)
        self._top = next(i for i in range(self.size) if self.down[i] == (1 << self.size) - 1)

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]], labels: Sequence[str] | None = None) -> "FiniteLattice":
        """Build from the reflexive-transitive closure of ≤-pairs."""
        up = [1 << i for i in range(size)]
        for a, b in pairs:
            up[a] |= 1 << b

        def extend(up: tuple[int, ...]) -> tuple[int, ...]:
            out = []
            for u in up:
                acc = u
                for j in bits(u):
                    acc |= up[j]
                out.append(acc)
            return tuple(out)

        return cls(lfp_iterate(extend, tuple(up)), labels)

    @classmethod
    def chain(cls, size: int) -> "FiniteLattice":
        """The chain 0 < 1 < ... < size-1 (labels are 1-based)."""
        up = [sum(1 << j for j in range(i, size)) for i in range(size)]
        return cls(up, [str(i + 1) for i in range(size)])

    @classmethod
    def powerset(cls, atoms: int) -> "FiniteLattice":
        """The powerset of ``atoms`` elements ordered by inclusion."""
        size = 1 << atoms
        up = [sum(1 << b for b in range(size) if subset(a, b)) for a in range(size)]
        return cls(up, [format(a, f"0{atoms}b") for a in range(size)])

    @classmethod
    def sub_meet_closed(cls, base: "FiniteLattice", members: Sequence[int]) -> "FiniteLattice":
        """Sublattice on a glb-closed subset of ``base`` that contains top."""
        members = sorted(set(members))
        if base._top not in members:
            raise ValidationError("sublattice must contain the top element")
        index = {m: k for k, m in enumerate(members)}
        for a in members:
            for b in members:
                if base.meet_table[a][b] not in index:
                    raise ValidationError("subset is not glb-closed")
        up = [
            sum(1 << index[b] for b in members if base.leq(a, b))
            for a in members
        ]
        lat = cls(up, [base.labels[m] for m in members])
        lat.base_elements = tuple(members)  # type: ignore[attr-defined]
        return lat

    # -- validation ----------------------------------------------------------

    def _validate_order(self) -> None:
        full = (1 << self.size) - 1
        for i in range(self.size):
            if self.up[i] & ~full:
                raise ValidationError("order mask out of range")
            if not (self.up[i] >> i) & 1:
                raise ValidationError("order not reflexive")
            for j in bits(self.up[i]):
                if i != j and (self.up[j] >> i) & 1:
                    raise ValidationError("order not antisymmetric")
                if self.up[j] & ~self.up[i]:
                    raise ValidationError("order not transitive")

    def _bound_table(self, up: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Least-upper-bound table w.r.t. ``up`` (glb table when fed ``down``)."""
        table = []
        for i in range(self.size):
            row = []
            for j in range(self.size):
                common = up[i] & up[j]
                best = None
                for u in bits(common):
                    if subset(common, up[u]):
                        if best is not None:
                            raise ValidationError("bound not unique")
                        best = u
                if best is None:
                    raise ValidationError(f"elements {i},{j} have no bound")
                row.append(best)
            table.append(tuple(row))
        return tuple(table)

    # -- AbstractDomain interface --------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return bool((self.up[a] >> b) & 1)

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def bottom(self) -> int:
        return self._bottom

    def top(self) -> int:
        return self._top

    def height(self) -> int:
        depth = [0] * self.size
        order = sorted(range(self.size), key=lambda i: bin(self.down[i]).count("1"))
        for i in order:
            for j in bits(self.down[i]):
                if j != i:
                    depth[i] = max(depth[i], depth[j] + 1)
        return max(depth)

    def is_monotone(self, f: Sequence[int]) -> bool:
        return all(
            self.leq(f[i], f[j])
            for i in range(self.size)
            for j in bits(self.up[i])
        )

    def lub_of(self, items: Iterable[int]) -> int:
        out = self._bottom
        for x in items:
            out = self.join_table[out][x]
        return out


def lfp_table(lat: FiniteLattice, f: Sequence[int], start: int | None = None) -> int:
    """Least fixpoint of a monotone table function by Kleene iteration."""
    return lfp_iterate(lambda x: f[x], lat.bottom() if start is None else start)


# ---------------------------------------------------------------------------
# Finite Galois insertions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGI:
    """A validated Galois insertion between two finite lattices."""

    C: FiniteLattice
    A: FiniteLattice
    alpha: tuple[int, ...]  # C index -> A index
    gamma: tuple[int, ...]  # A index -> C index

    def __post_init__(self) -> None:
        C, A = self.C, self.A
        if len(self.alpha) != C.size or len(self.gamma) != A.size:
            raise ValidationError("alpha/gamma table sizes do not match")
        if set(self.alpha) != set(range(A.size)):
            raise ValidationError("alpha is not surjective")
        for a in range(A.size):
            if self.alpha[self.gamma[a]] != a:
                raise ValidationError("alpha(gamma(a)) != a")
        for c in range(C.size):
            for a in range(A.size):
                if A.leq(self.alpha[c], a) != C.leq(c, self.gamma[a]):
                    raise ValidationError("adjunction law fails")

    @classmethod
    def from_closure_image(cls, C: FiniteLattice, members: Sequence[int]) -> "FiniteGI":
        """GI induced by a glb-closed-with-top subset of C (an upper closure)."""
        A = FiniteLattice.sub_meet_closed(C, members)
        base = A.base_elements  # type: ignore[attr-defined]
        index = {m: k for k, m in enumerate(base)}
        alpha = []
        for c in range(C.size):
            uppers = [m for m in base if C.leq(c, m)]
            mu = uppers[0]
            for m in uppers[1:]:
                mu = C.meet_table[mu][m]
            alpha.append(index[mu])
        return cls(C, A, tuple(alpha), tuple(base))

    def bca_table(self, f: Sequence[int]) -> tuple[int, ...]:
        """alpha ∘ f ∘ gamma as a table on A."""
        return tuple(self.alpha[f[self.gamma[a]]] for a in range(self.A.size))

    def closure(self, c: int) -> int:
        """gamma ∘ alpha on C."""
        return self.gamma[self.alpha[c]]


# ---------------------------------------------------------------------------
# Finite transition systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteTS:
    """A finite transition system with initial states and a safety property."""

    size: int
    transitions: frozenset[tuple[int, int]]
    init: int = 0  # bit mask Σ0
    safe: int = 0  # bit mask P
    succ: tuple[int, ...] = field(init=False, repr=False)
    pred: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        full = self.full
        if self.init & ~full or self.safe & ~full:
            raise ValidationError("state mask out of range")
        succ = [0] * self.size
        pred = [0] * self.size
        for s, t in self.transitions:
            if not (0 <= s < self.size and 0 <= t < self.size):
                raise ValidationError("transition endpoint out of range")
            succ[s] |= 1 << t
            pred[t] |= 1 << s
        object.__setattr__(self, "succ", tuple(succ))
        object.__setattr__(self, "pred", tuple(pred))

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    # the four transformers, on bit masks
    def post(self, x: int) -> int:
        out = 0
        for s in bits(x):
            out |= self.succ[s]
        return out

    def pre(self, x: int) -> int:
        out = 0
        for s in bits(x):
            out |= self.pred[s]
        return out

    def pret(self, x: int) -> int:
        return sum(1 << s for s in range(self.size) if subset(self.succ[s], x))

    def postt(self, x: int) -> int:
        return sum(1 << s for s in range(self.size) if subset(self.pred[s], x))


def reach(ts: FiniteTS, init: int | None = None) -> int:
    """Exact reachable-state mask from the initial states (least fixpoint)."""
    start = ts.init if init is None else init
    return lfp_iterate(lambda x: start | ts.post(x), start)


def check_adjunctions(ts: FiniteTS) -> bool:
    """post/pret and pre/postt adjunction laws on all subset pairs."""
    n = 1 << ts.size
    post_tab = [ts.post(x) for x in range(n)]
    pret_tab = [ts.pret(x) for x in range(n)]
    postt_tab = [ts.postt(x) for x in range(n)]
    pre_tab = [ts.pre(x) for x in range(n)]
    for x in range(n):
        px = post_tab[x]
        qx = pre_tab[x]
        for y in range(n):
            if (px & ~y == 0) != (x & ~pret_tab[y] == 0):
                return False
            if (qx & ~y == 0) != (x & ~postt_tab[y] == 0):
                return False
    return True


def check_eq4_duality(ts: FiniteTS) -> bool:
    """lfp(λX.Σ0 ∪ post(X)) ⊆ P  ⇔  Σ0 ⊆ gfp(λX.pret(X) ∩ P)."""
    forward = lfp_iterate(lambda x: ts.init | ts.post(x), 0)
    backward = gfp_iterate(lambda x: ts.pret(x) & ts.safe, ts.full)
    return subset(forward, ts.safe) == subset(ts.init, backward)


# ---------------------------------------------------------------------------
# Closure families (images of upper closures on the powerset)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureFamily:
    """An intersection-closed family L of state sets containing Σ.

    L is the image of the upper closure mu_up(X) = ⋂{φ ∈ L | X ⊆ φ}; it is
    also the image of the lower closure mu_down(X) = ∪{φ ∈ L | φ ⊆ X} iff L
    is additionally union-closed (the co-inductive algorithms assume this).
    """

    size: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        full = (1 << self.size) - 1
        if any(m & ~full for m in self.members):
            raise ValidationError("family member out of range")
        if full not in self.members:
            raise ValidationError("family must contain the full state set")
        for a in self.members:
            for b in self.members:
                if a & b not in self.members:
                    raise ValidationError("family is not intersection-closed")

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def is_union_closed(self) -> bool:
        return self._union_closed

    @cached_property
    def _union_closed(self) -> bool:
        """Scanned once per family; ``a | a == a`` needs no check."""
        members = self.members
        return 0 in members and all(a | b in members for a, b in combinations(members, 2))

    def mu_up(self, x: int) -> int:
        out = self.full
        for m in self.members:
            if subset(x, m):
                out &= m
        return out

    def mu_down(self, x: int) -> int:
        out = 0
        for m in self.members:
            if subset(m, x):
                out |= m
        return out

    def avoid(self, x: int) -> int:
        """∪{φ ∈ L | φ ⊆ ¬X} — the largest family material avoiding X."""
        out = 0
        for m in self.members:
            if m & x == 0:
                out |= m
        return out

    def qo_leq(self, s: int, s_prime: int) -> bool:
        """s ⊑ s': every member containing s' contains s."""
        bit_s, bit_sp = 1 << s, 1 << s_prime
        return all(m & bit_s for m in self.members if m & bit_sp)

    def delta(self, x: int) -> int:
        """Down-closure of the induced quasiorder."""
        out = 0
        for s in range(self.size):
            if any(self.qo_leq(s, sp) for sp in bits(x)):
                out |= 1 << s
        return out


def powerset_family(size: int) -> ClosureFamily:
    return ClosureFamily(size, frozenset(range(1 << size)))


# ---------------------------------------------------------------------------
# Theorem checkers
# ---------------------------------------------------------------------------


def check_lemma1(gi: FiniteGI, f: Sequence[int], c_prime: int) -> bool:
    """Abstract inductive-invariant principle, decided by enumerating A.

    [gamma(lfp(alpha f gamma)) ≤ c']  ⇔  [∃a. f(gamma(a)) ≤ gamma(a) ∧
    gamma(a) ≤ c'].  Must hold on every valid input.
    """
    C = gi.C
    if not C.is_monotone(f):
        raise ValidationError("f is not monotone")
    abs_lfp = lfp_table(gi.A, gi.bca_table(f))
    return C.leq(gi.gamma[abs_lfp], c_prime) == _has_abstract_witness(gi, f, c_prime)


def _has_abstract_witness(gi: FiniteGI, f: Sequence[int], bound: int) -> bool:
    """∃a ∈ A with f(gamma(a)) ≤ gamma(a) and gamma(a) ≤ bound (in C)."""
    return any(
        gi.C.leq(f[gi.gamma[a]], gi.gamma[a]) and gi.C.leq(gi.gamma[a], bound)
        for a in range(gi.A.size)
    )


def check_fixpoint_completeness_char(gi: FiniteGI, f: Sequence[int]) -> dict:
    """Evaluate both completeness equations and their invariant characterizations.

    Cross-checks that the ∀c' characterization coincides with strong fixpoint
    completeness, the ∀a' characterization with plain fixpoint completeness,
    and the single-witness condition with plain completeness as well.
    """
    C = gi.C
    if not C.is_monotone(f):
        raise ValidationError("f is not monotone")
    lfp_f = lfp_table(C, tuple(f))
    abs_lfp = lfp_table(gi.A, gi.bca_table(f))
    strong = lfp_f == gi.gamma[abs_lfp]
    plain = gi.alpha[lfp_f] == abs_lfp
    char_all_concrete = all(
        C.leq(lfp_f, c2) == _has_abstract_witness(gi, f, c2) for c2 in range(C.size)
    )
    char_all_abstract = all(
        C.leq(lfp_f, gi.gamma[a2]) == _has_abstract_witness(gi, f, gi.gamma[a2])
        for a2 in range(gi.A.size)
    )
    single_witness = _has_abstract_witness(gi, f, gi.closure(lfp_f))
    return {
        "strong": strong,
        "plain": plain,
        "char_all_concrete": char_all_concrete,
        "char_all_abstract": char_all_abstract,
        "single_witness": single_witness,
        "consistent": (char_all_concrete == strong)
        and (char_all_abstract == plain)
        and (single_witness == plain),
    }


def check_safe_inv(
    gi: FiniteGI,
    fs: Sequence[Sequence[int]],
    safe_set: Sequence[int] | None = None,
) -> dict:
    """safe-versus-invariant coincidence, checked extensionally.

    With the canonical safety classes (all of gamma(A), resp. all of C) the
    coincidence of the two problem sets is equivalent to plain (resp. strong)
    fixpoint completeness of every transfer function; an explicitly supplied
    safety class reports the two sets and the one guaranteed implication.
    """
    C = gi.C
    for f in fs:
        if not C.is_monotone(f):
            raise ValidationError("f is not monotone")

    def safe_pairs(sset: Sequence[int]) -> set[tuple[int, int]]:
        return {
            (k, s)
            for k, f in enumerate(fs)
            for s in sset
            if C.leq(lfp_table(C, tuple(f)), s)
        }

    def inv_pairs(sset: Sequence[int]) -> set[tuple[int, int]]:
        return {
            (k, s)
            for k, f in enumerate(fs)
            for s in sset
            if _has_abstract_witness(gi, f, s)
        }

    reports = [check_fixpoint_completeness_char(gi, f) for f in fs]
    all_plain = all(r["plain"] for r in reports)
    all_strong = all(r["strong"] for r in reports)
    gamma_a = [gi.gamma[a] for a in range(gi.A.size)]
    full_c = list(range(C.size))
    result = {
        "equal_on_abstract": safe_pairs(gamma_a) == inv_pairs(gamma_a),
        "equal_on_concrete": safe_pairs(full_c) == inv_pairs(full_c),
        "all_plain": all_plain,
        "all_strong": all_strong,
    }
    result["consistent"] = (result["equal_on_abstract"] == all_plain) and (
        result["equal_on_concrete"] == all_strong
    )
    if safe_set is not None:
        s_safe = safe_pairs(list(safe_set))
        s_inv = inv_pairs(list(safe_set))
        result["safe"] = s_safe
        result["inv"] = s_inv
        result["equal"] = s_safe == s_inv
        in_abstract = all(c in gamma_a for c in safe_set)
        if in_abstract and all_plain and not result["equal"]:
            result["consistent"] = False
    return result


def check_lemma6(ts: FiniteTS, fam: ClosureFamily) -> dict:
    """Down-closure/avoid/closure properties of a family on a transition system."""
    n = ts.size
    full = ts.full
    report: dict = {"wqo_item_skipped": "vacuous on finite state spaces"}
    # (a) the state quasiorder mirrors singleton closures
    report["a"] = all(
        fam.qo_leq(s, t) == subset(fam.mu_up(1 << s), fam.mu_up(1 << t))
        for s in range(n)
        for t in range(n)
    )
    # (c) the avoid-closure assumption is exactly union-closure
    a2 = all(fam.avoid(1 << s) in fam.members for s in range(n))
    report["a2"] = a2
    report["c"] = a2 == fam.is_union_closed()
    if a2:
        # (d) down-closure equals the upper closure, hence is additive
        report["d"] = all(fam.delta(x) == fam.mu_up(x) for x in range(full + 1)) and all(
            (fam.delta(x) == x) == (x in fam.members) for x in range(full + 1)
        )
        # (e) reachability of the qo-extended system equals best-abstraction reachability
        lhs = lfp_iterate(lambda x: ts.init | ts.post(x) | fam.delta(x), 0)
        rhs = lfp_iterate(lambda x: fam.mu_up(ts.init | ts.post(x)), 0)
        report["e"] = lhs == rhs
    else:
        report["d"] = None
        report["e"] = None
    report["ok"] = report["a"] and report["c"] and report.get("d") is not False and report.get("e") is not False
    return report


def check_corollary9(ts: FiniteTS, fam: ClosureFamily) -> bool:
    """[∃φ∈L inductive invariant] ⇔ [reach of the best abstraction ⊆ P]."""
    lhs = any(
        check_inductive_invariant(ts.post, ts.init, ts.safe, phi, subset) for phi in fam.members
    )
    rhs = subset(lfp_iterate(lambda x: fam.mu_up(ts.init | ts.post(x)), 0), ts.safe)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Co-inductive synthesis algorithms on finite instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgoResult:
    found: bool
    invariant: int | None
    trace: tuple[int, ...]


def _require_a2(fam: ClosureFamily) -> None:
    if not fam.is_union_closed():
        raise ClosureViolation("family must be union-closed (avoid-closure assumption)")


def _descend(
    fam: ClosureFamily, full: int, init: int, safe: int, pret: Callable[[int], int]
) -> AlgoResult:
    """I := mu_down(pret(I) ∩ I ∩ safe) from I = full while init ⊆ I."""
    _require_a2(fam)
    trace = []
    for i in kleene(lambda i: fam.mu_down(pret(i) & i & safe), full):
        trace.append(i)
        if not subset(init, i):
            return AlgoResult(False, None, tuple(trace))
    return AlgoResult(True, i, tuple(trace))


def run_algorithm1(ts: FiniteTS, fam: ClosureFamily) -> AlgoResult:
    """Backward gfp: I := mu_down(pret(I) ∩ I ∩ P) from I = Σ."""
    return _descend(fam, ts.full, ts.init, ts.safe, ts.pret)


def run_algorithm2_padon(
    ts: FiniteTS,
    fam: ClosureFamily,
    choose: Callable[[int], int] | None = None,
) -> AlgoResult:
    """Counterexample-guided weakening: intersect with avoid(s) until inductive.

    ``choose`` picks a counterexample state from a nonempty mask; the default
    takes the smallest state index.  The output is choice-independent.
    """
    _require_a2(fam)
    pick = choose if choose is not None else lambda mask: next(bits(mask))
    i = ts.full
    trace = [i]
    while True:
        if check_inductive_invariant(ts.post, ts.init, ts.safe, i, subset):
            return AlgoResult(True, i, tuple(trace))
        if not subset(ts.init, i):
            return AlgoResult(False, None, tuple(trace))
        counterexamples = i & ~(ts.pret(i) & ts.safe)
        s = pick(counterexamples)
        i &= fam.avoid(1 << s)
        trace.append(i)


def run_algorithm4(ts: FiniteTS, fam: ClosureFamily) -> AlgoResult:
    """Forward gfp: Algorithm 1 on the dual system.

    The dual system reverses every transition (so its pret is ``postt``),
    starts from ¬P and must avoid Σ0 (its safety set is ¬Σ0); the iterates
    are mu_down(postt(I) ∩ I ∩ ¬Σ0).
    """
    return _descend(fam, ts.full, ts.full & ~ts.safe, ts.full & ~ts.init, ts.postt)


def greatest_invariant_enum(ts: FiniteTS, fam: ClosureFamily) -> int | None:
    """Union of all inductive invariants in L entailing P (None when none exist)."""
    found = [
        phi for phi in fam.members if check_inductive_invariant(ts.post, ts.init, ts.safe, phi, subset)
    ]
    if not found:
        return None
    out = 0
    for phi in found:
        out |= phi
    return out


# ---------------------------------------------------------------------------
# Seeded random instances
# ---------------------------------------------------------------------------

MAX_STATES = 10
MAX_CARRIER = 12


def _rng(seed: int | str) -> random.Random:
    return random.Random(str(seed))


def random_ts(seed: int | str, max_states: int = 8) -> FiniteTS:
    """Deterministic random transition system with init and safety masks."""
    if max_states > MAX_STATES:
        raise ValueError(f"state bound exceeds {MAX_STATES}")
    rng = _rng(seed)
    n = rng.randint(2, max_states)
    density = rng.uniform(0.05, 0.5)
    transitions = frozenset(
        (s, t)
        for s in range(n)
        for t in range(n)
        if rng.random() < density
    )
    init = rng.getrandbits(n)
    safe = rng.getrandbits(n)
    return FiniteTS(n, transitions, init, safe)


def random_closure_family(
    seed: int | str,
    size: int,
    union_closed: bool = False,
) -> ClosureFamily:
    """Deterministic random family, intersection-closed (and optionally union-closed)."""
    rng = _rng(seed)
    full = (1 << size) - 1
    members = {full}
    for _ in range(rng.randint(1, 4)):
        members.add(rng.getrandbits(size))
    if union_closed:
        members.add(0)
        return ClosureFamily(size, _closure(members, and_, or_))
    return ClosureFamily(size, _closure(members, and_))


def random_gi(seed: int | str, max_carrier: int = MAX_CARRIER) -> FiniteGI:
    """Deterministic random Galois insertion over a small lattice carrier.

    The carrier is a glb-closed-with-top subset of a powerset (hence a
    complete lattice); the abstract domain is a further glb-closed-with-top
    subset, which always induces a closure and thus a GI.
    """
    if max_carrier > 1 << 4:
        raise ValueError("carrier bound exceeds 16")
    rng = _rng(seed)
    while True:
        atoms = rng.randint(2, 4)
        base = FiniteLattice.powerset(atoms)
        members = {base.top(), base.bottom()}
        for _ in range(rng.randint(1, max_carrier)):
            members.add(rng.randrange(base.size))
        members = _closure(members, base.meet)
        if len(members) <= max_carrier:
            break
    carrier = FiniteLattice.sub_meet_closed(base, sorted(members))
    sub = {carrier.top()}
    for _ in range(rng.randint(1, carrier.size)):
        sub.add(rng.randrange(carrier.size))
    return FiniteGI.from_closure_image(carrier, sorted(_closure(sub, carrier.meet)))


def _closure(members: Iterable[int], *ops: Callable[[int, int], int]) -> frozenset[int]:
    """The least superset of ``members`` closed under each of the commutative,
    idempotent binary ``ops`` (so each unordered pair of distinct members suffices)."""
    return lfp_iterate(
        lambda ms: ms.union(*[starmap(op, combinations(ms, 2)) for op in ops]), frozenset(members)
    )


def random_monotone(seed: int | str, lat: FiniteLattice) -> tuple[int, ...]:
    """Deterministic random monotone table function on a finite lattice."""
    rng = _rng(seed)
    g = [rng.randrange(lat.size) for _ in range(lat.size)]
    return tuple(lat.lub_of(g[j] for j in bits(lat.down[i])) for i in range(lat.size))


# ---------------------------------------------------------------------------
# Oracle suites
# ---------------------------------------------------------------------------


# One trial per suite, given the trial seed ``s`` and index ``k``.  Trials call
# the checkers by their module-global names, so a wrapper installed on a name
# (a profiler, a tracer) sees every call.


def _trial_lemma1(s: str, k: int) -> bool:
    gi = random_gi(s)
    f = random_monotone(s + ":f", gi.C)
    return all(check_lemma1(gi, f, c2) for c2 in range(gi.C.size))


def _trial_completeness(s: str, k: int) -> bool:
    gi = random_gi(s)
    fs = [random_monotone(f"{s}:f{j}", gi.C) for j in range(3)]
    ok = all(check_fixpoint_completeness_char(gi, f)["consistent"] for f in fs)
    return ok and check_safe_inv(gi, fs)["consistent"]


def _trial_lemma6(s: str, k: int) -> bool:
    ts = random_ts(s)
    fam = random_closure_family(s + ":L", ts.size, union_closed=(k % 2 == 0))
    return check_lemma6(ts, fam)["ok"]


def _trial_algorithms(s: str, k: int) -> bool:
    ts = random_ts(s)
    fam = random_closure_family(s + ":L", ts.size, union_closed=True)
    r1 = run_algorithm1(ts, fam)
    r2 = run_algorithm2_padon(ts, fam)
    r4 = run_algorithm4(ts, fam)
    best = greatest_invariant_enum(ts, fam)
    ok = (r1.found == r2.found == (best is not None))
    if r1.found:
        ok = ok and r1.invariant == r2.invariant == best
    # the forward dual: verdict matches the abstracted backward reachability
    not_safe = ts.full & ~ts.safe
    dual_lfp = lfp_iterate(lambda x: fam.mu_up(not_safe) | fam.mu_up(ts.pre(x)), 0)
    ok = ok and r4.found == subset(dual_lfp, ts.full & ~ts.init)
    if not_safe in fam.members:
        # with ¬P in the family the unclosed form coincides
        plain = lfp_iterate(lambda x: not_safe | fam.mu_up(ts.pre(x)), 0)
        ok = ok and r4.found == subset(plain, ts.full & ~ts.init)
    return ok


def _trial_corollary9(s: str, k: int) -> bool:
    ts = random_ts(s)
    fam = random_closure_family(s + ":L", ts.size, union_closed=False)
    return check_corollary9(ts, fam)


def _trial_adjunctions(s: str, k: int) -> bool:
    ts = random_ts(s)
    return check_adjunctions(ts) and check_eq4_duality(ts)


SUITES: dict[str, Callable[[str, int], bool]] = {
    "lemma1": _trial_lemma1,
    "completeness": _trial_completeness,
    "lemma6": _trial_lemma6,
    "algorithms": _trial_algorithms,
    "corollary9": _trial_corollary9,
    "adjunctions": _trial_adjunctions,
}


def run_suite(name: str, seed: int, trials: int) -> dict:
    """Run one named suite; returns {name, trials, failures, first_failure_seed}."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    failures = []
    for k in range(trials):
        s = f"{seed}:{name}:{k}"
        if not SUITES[name](s, k):
            failures.append(s)
    return {
        "name": name,
        "trials": trials,
        "failures": len(failures),
        "first_failure_seed": failures[0] if failures else None,
    }


def run_suites(name: str, seed: int, trials: int) -> list[dict]:
    """Run one named suite, or every suite in table order for ``"all"``."""
    names = list(SUITES) if name == "all" else [name]
    return [run_suite(n, seed, trials) for n in names]
