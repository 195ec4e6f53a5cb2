"""Brute-force ground truth on small finite instances.

This module machine-checks, by exhaustive enumeration, the order-theoretic
facts the rest of the package relies on: the abstract inductive-invariant
principle, the fixpoint-completeness characterizations, the avoid/closure
machinery, and the equivalence of the co-inductive synthesis algorithms.

State spaces are encoded as bit sets (one bit per state, |Σ| ≤ 64, suites
use |Σ| ≤ 8 so 2^|Σ| sweeps stay cheap).  The one finite lattice is a Moore
family of bit masks (:class:`ClosureFamily`), ordered by ⊆.  An abstract
domain is a subfamily: its upper closure is α and γ is the inclusion, so
every Galois insertion here holds by construction.  Every checker returns a
report; on valid inputs a checker reporting a failure is a build-breaking
bug in either the checker or the core library.  The Galois-insertion
checkers compute each least fixpoint once per transfer function f, and one
list of the f-inductive members of A (f(a) ⊆ a) that every witness question
reads; ``check_safe_inv`` is the conjunction of the per-function reports.

A transition system has one relation, read forwards by ``post`` and
``pret``; ``FiniteTS.dual`` reverses it (pre and postt are the dual's post and
pret).  Algorithms 1 and 2 step one descending Kleene chain from Σ, and
Algorithm 4 is Algorithm 1 on the dual.  ``best_reach``, the reachability
of the best abstraction, is the one least fixpoint that Lemma 6 (e),
Corollary 9 and the Algorithm 4 check read.

The brute force is bit-parallel where it can be.  ``check_adjunctions``
decides post ⊣ pret on a system and on its dual for one x and all 2^|Σ|
subsets y at once, as an equality of two 2^|Σ|-bit masks over y.
A family computes each upper closure once per mask (a per-family memo) and
the down-set of each state once, from ``qo_leq``; ``delta`` ORs those
down-sets, so Lemma 6 still compares it with ``mu_up``, an independent
computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, starmap
from operator import and_, or_
from typing import Callable, Iterable, Mapping, Sequence

from .lattice import AbstractDomain, check_inductive_invariant, gfp_iterate, kleene, lfp_iterate, memo


class ValidationError(ValueError):
    """Construction-time validation failure (not a Moore family / not a subfamily)."""


class ClosureViolation(ValueError):
    """A closure-family assumption required by an algorithm does not hold."""


# ---------------------------------------------------------------------------
# Bit-set helpers
# ---------------------------------------------------------------------------


def bits(mask: int) -> Iterable[int]:
    """The set states of ``mask`` in increasing order, one lowest set bit at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset(a: int, b: int) -> bool:
    return a & ~b == 0


# ---------------------------------------------------------------------------
# Moore families: the finite lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureFamily(AbstractDomain):
    """A Moore family L of state sets: intersection-closed and containing Σ.

    L is a complete lattice whose elements are its members, ordered by ⊆:
    the meet is ``&`` and the join of a and b is mu_up(a | b).  Monotone
    functions on L are dicts from member to member.  L is the image of the
    upper closure mu_up(X) = ⋂{φ ∈ L | X ⊆ φ}; it is also the image of the
    lower closure mu_down(X) = ∪{φ ∈ L | φ ⊆ X} iff L is additionally
    union-closed (the co-inductive algorithms assume this).
    """

    size: int
    members: frozenset[int]
    _mu_up_memo: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        full = (1 << self.size) - 1
        if any(m & ~full for m in self.members):
            raise ValidationError("family member out of range")
        if full not in self.members:
            raise ValidationError("family must contain the full state set")
        # ``a & a == a``, so each unordered pair of distinct members suffices
        if not {a & b for a, b in combinations(self.members, 2)} <= self.members:
            raise ValidationError("family is not intersection-closed")

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    # -- AbstractDomain interface --------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return subset(a, b)

    def join(self, a: int, b: int) -> int:
        return self.mu_up(a | b)

    def meet(self, a: int, b: int) -> int:
        return a & b

    def bottom(self) -> int:
        return self.mu_up(0)

    def top(self) -> int:
        return self.full

    def is_monotone(self, f: Mapping[int, int]) -> bool:
        members = self.members
        return all(f[a] & ~f[b] == 0 for a in members for b in members if a & ~b == 0)

    # -- closures ------------------------------------------------------------

    def is_union_closed(self) -> bool:
        return self._union_closed

    @memo
    def _union_closed(self) -> bool:
        """Scanned once per family; ``a | a == a`` needs no check."""
        members = self.members
        return 0 in members and all(a | b in members for a, b in combinations(members, 2))

    def mu_up(self, x: int) -> int:
        """⋂{φ ∈ L | X ⊆ φ}, computed once per mask and family."""
        memo = self._mu_up_memo
        out = memo.get(x)
        if out is None:
            out = self.full
            for m in self.members:
                if x & ~m == 0:
                    out &= m
            memo[x] = out
        return out

    def mu_down(self, x: int) -> int:
        out = 0
        for m in self.members:
            if m & ~x == 0:
                out |= m
        return out

    def avoid(self, x: int) -> int:
        """∪{φ ∈ L | φ ⊆ ¬X} — the largest family material avoiding X."""
        return self.mu_down(self.full & ~x)

    def qo_leq(self, s: int, s_prime: int) -> bool:
        """s ⊑ s': every member containing s' contains s."""
        bit_s, bit_sp = 1 << s, 1 << s_prime
        return all(m & bit_s for m in self.members if m & bit_sp)

    def delta(self, x: int) -> int:
        """Down-closure of the induced quasiorder: the union of the down-sets of x's states."""
        down = self._down_sets
        out = 0
        for sp in bits(x):
            out |= down[sp]
        return out

    @memo
    def _down_sets(self) -> tuple[int, ...]:
        """{s | s ⊑ s'} for each state s', read from ``qo_leq`` (not from ``mu_up``,
        so that Lemma 6 compares two independent computations)."""
        return tuple(
            sum(1 << s for s in range(self.size) if self.qo_leq(s, sp)) for sp in range(self.size)
        )


def powerset_family(size: int) -> ClosureFamily:
    return ClosureFamily(size, frozenset(range(1 << size)))


def lfp_table(lat: ClosureFamily, f: Mapping[int, int]) -> int:
    """Least fixpoint of a monotone table function by Kleene iteration."""
    return lfp_iterate(lambda x: f[x], lat.bottom())


# ---------------------------------------------------------------------------
# Finite Galois insertions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGI:
    """The Galois insertion of a Moore subfamily A into a Moore family C.

    α is A's upper closure on C's members and γ is the inclusion, so the
    insertion laws α(c) ⊆ a ⇔ c ⊆ a and α(a) = a hold by construction.
    """

    C: ClosureFamily
    A: ClosureFamily

    def __post_init__(self) -> None:
        if self.A.size != self.C.size or not self.A.members <= self.C.members:
            raise ValidationError("A is not a subfamily of C")

    def alpha(self, c: int) -> int:
        return self.A.mu_up(c)

    def bca(self, f: Mapping[int, int]) -> dict[int, int]:
        """alpha ∘ f ∘ gamma as a table on A."""
        return {a: self.A.mu_up(f[a]) for a in self.A.members}


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

    def __post_init__(self) -> None:
        full = self.full
        if self.init & ~full or self.safe & ~full:
            raise ValidationError("state mask out of range")
        succ = [0] * self.size
        for s, t in self.transitions:
            if not (0 <= s < self.size and 0 <= t < self.size):
                raise ValidationError("transition endpoint out of range")
            succ[s] |= 1 << t
        object.__setattr__(self, "succ", tuple(succ))

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    @memo
    def dual(self) -> FiniteTS:
        """Every transition reversed, ¬P as the initial states and ¬Σ0 as the safety set.

        Its post and pret are this system's pre and postt; built once per system.
        """
        full = self.full
        reversed_ = frozenset((t, s) for s, t in self.transitions)
        return FiniteTS(self.size, reversed_, full & ~self.safe, full & ~self.init)

    # the two transformers, on bit masks; the dual system has the other two
    def post(self, x: int) -> int:
        succ = self.succ
        out = 0
        while x:
            low = x & -x
            out |= succ[low.bit_length() - 1]
            x ^= low
        return out

    def pret(self, x: int) -> int:
        out = 0
        for s, succ in enumerate(self.succ):
            if succ & ~x == 0:
                out |= 1 << s
        return out


def reach(ts: FiniteTS) -> int:
    """Exact reachable-state mask from the initial states (least fixpoint)."""
    return lfp_iterate(lambda x: ts.init | ts.post(x), ts.init)


def best_reach(ts: FiniteTS, fam: ClosureFamily) -> int:
    """Reachability of the best abstraction: lfp(λx. mu_up(Σ0 ∪ post(x)))."""
    return lfp_iterate(lambda x: fam.mu_up(ts.init | ts.post(x)), 0)


def _containing(size: int, tab: Sequence[int]) -> list[int]:
    """For each mask x, the 2^|Σ|-bit mask {y | x ⊆ tab[y]} over the subsets y: the AND of
    the per-state masks {y | s ∈ tab[y]}, built from the mask of x without its lowest state s."""
    n = 1 << size
    per_state = [0] * size
    for y, t in enumerate(tab):
        bit_y = 1 << y
        for s in bits(t):
            per_state[s] |= bit_y
    out = [(1 << n) - 1] * n
    for x in range(1, n):
        low = x & -x
        out[x] = out[x ^ low] & per_state[low.bit_length() - 1]
    return out


def check_adjunctions(ts: FiniteTS) -> bool:
    """post ⊣ pret on ``ts`` and on ``ts.dual`` (pre ⊣ postt), 2^|Σ| pairs at a time.

    The law holds at the pairs (x, y) for every y iff two masks over the
    subsets y are equal: ``sup[post(x)]`` = {y | post(x) ⊆ y} and
    ``below_pret[x]`` = {y | x ⊆ pret(y)}.  The transformers are brute force.
    """
    n = 1 << ts.size
    sup = _containing(ts.size, range(n))
    for system in (ts, ts.dual):
        below_pret = _containing(ts.size, [system.pret(y) for y in range(n)])
        if any(sup[system.post(x)] != below_pret[x] for x in range(n)):
            return False
    return True


def check_eq4_duality(ts: FiniteTS) -> bool:
    """lfp(λX.Σ0 ∪ post(X)) ⊆ P  ⇔  Σ0 ⊆ gfp(λX.pret(X) ∩ P)."""
    forward = reach(ts)
    backward = gfp_iterate(lambda x: ts.pret(x) & ts.safe, ts.full)
    return subset(forward, ts.safe) == subset(ts.init, backward)


# ---------------------------------------------------------------------------
# Theorem checkers
# ---------------------------------------------------------------------------


def _abstract_facts(gi: FiniteGI, f: Mapping[int, int]) -> tuple[int, list[int]]:
    """lfp(alpha f gamma) and the f-inductive members of A (f(a) ⊆ a), once per f.

    Every witness question about f reads the returned list: a bound b has an
    abstract witness iff some listed a lies below it (gamma is the inclusion).
    """
    if not gi.C.is_monotone(f):
        raise ValidationError("f is not monotone")
    return lfp_table(gi.A, gi.bca(f)), [a for a in gi.A.members if subset(f[a], a)]


def _witnessed(inductive: list[int], bound: int) -> bool:
    """∃a ∈ A with f(a) ⊆ a ⊆ bound, given f's inductive members of A."""
    return any(a & ~bound == 0 for a in inductive)


def check_lemma1(gi: FiniteGI, f: Mapping[int, int], bounds: Iterable[int]) -> bool:
    """Abstract inductive-invariant principle at every bound c', decided by enumerating A.

    [gamma(lfp(alpha f gamma)) ≤ c']  ⇔  [∃a. f(gamma(a)) ≤ gamma(a) ∧
    gamma(a) ≤ c'].  Must hold on every valid input.  One monotonicity check
    and one abstract lfp serve all the bounds.
    """
    abs_lfp, inductive = _abstract_facts(gi, f)
    return all(subset(abs_lfp, c) == _witnessed(inductive, c) for c in bounds)


def check_fixpoint_completeness_char(gi: FiniteGI, f: Mapping[int, int]) -> dict:
    """Evaluate both completeness equations and their invariant characterizations.

    Cross-checks that the ∀c' characterization coincides with strong fixpoint
    completeness, the ∀a' characterization with plain fixpoint completeness,
    and the single-witness condition with plain completeness as well.  Each
    lfp is computed once, and the three conditions read one set: the members
    of C with an abstract witness below them (A ⊆ C and alpha(lfp f) ∈ A).
    """
    abs_lfp, inductive = _abstract_facts(gi, f)
    lfp_f = lfp_table(gi.C, f)
    alpha_lfp = gi.alpha(lfp_f)
    witnessed = {c for c in gi.C.members if _witnessed(inductive, c)}
    strong = lfp_f == abs_lfp
    plain = alpha_lfp == abs_lfp
    char_all_concrete = all(subset(lfp_f, c) == (c in witnessed) for c in gi.C.members)
    char_all_abstract = all(subset(lfp_f, a) == (a in witnessed) for a in gi.A.members)
    single_witness = alpha_lfp in witnessed
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


def check_safe_inv(gi: FiniteGI, fs: Sequence[Mapping[int, int]]) -> dict:
    """safe-versus-invariant coincidence: the conjunction of the per-function reports.

    The safe pairs (k, s) with lfp f_k ⊆ s and the invariant pairs (k, s) with
    an abstract witness for f_k below s agree on all of A (resp. all of C)
    exactly when every report's ∀a' (resp. ∀c') characterization holds; the
    coincidence is equivalent to plain (resp. strong) fixpoint completeness
    of every transfer function.  ``consistent`` requires every report to be
    consistent, which makes both equivalences hold.
    """
    reports = [check_fixpoint_completeness_char(gi, f) for f in fs]
    return {
        "equal_on_abstract": all(r["char_all_abstract"] for r in reports),
        "equal_on_concrete": all(r["char_all_concrete"] for r in reports),
        "all_plain": all(r["plain"] for r in reports),
        "all_strong": all(r["strong"] for r in reports),
        "consistent": all(r["consistent"] for r in reports),
    }


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
        report["d"] = all(
            (d := fam.delta(x)) == fam.mu_up(x) and (d == x) == (x in fam.members)
            for x in range(full + 1)
        )
        # (e) reachability of the qo-extended system equals best-abstraction reachability
        lhs = lfp_iterate(lambda x: ts.init | ts.post(x) | fam.delta(x), 0)
        report["e"] = lhs == best_reach(ts, fam)
    else:
        report["d"] = None
        report["e"] = None
    report["ok"] = report["a"] and report["c"] and report.get("d") is not False and report.get("e") is not False
    return report


def check_corollary9(ts: FiniteTS, fam: ClosureFamily) -> bool:
    """[∃φ∈L inductive invariant] ⇔ [reach of the best abstraction ⊆ P]."""
    lhs = greatest_invariant_enum(ts, fam) is not None
    return lhs == subset(best_reach(ts, fam), ts.safe)


# ---------------------------------------------------------------------------
# Co-inductive synthesis algorithms on finite instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgoResult:
    found: bool
    invariant: int | None
    trace: tuple[int, ...]


def _descend(ts: FiniteTS, fam: ClosureFamily, step: Callable[[int], int]) -> AlgoResult:
    """The Kleene chain of ``step`` from I = Σ: it fails once Σ0 ⊄ I, else its fixpoint is found."""
    if not fam.is_union_closed():
        raise ClosureViolation("family must be union-closed (avoid-closure assumption)")
    trace = []
    for i in kleene(step, ts.full):
        trace.append(i)
        if not subset(ts.init, i):
            return AlgoResult(False, None, tuple(trace))
    return AlgoResult(True, i, tuple(trace))


def run_algorithm1(ts: FiniteTS, fam: ClosureFamily) -> AlgoResult:
    """Backward gfp: I := mu_down(pret(I) ∩ I ∩ P) from I = Σ."""
    return _descend(ts, fam, lambda i: fam.mu_down(ts.pret(i) & i & ts.safe))


def run_algorithm2_padon(
    ts: FiniteTS,
    fam: ClosureFamily,
    choose: Callable[[int], int] | None = None,
) -> AlgoResult:
    """Counterexample-guided weakening: I := I ∩ avoid(s), s a state of I ∖ (pret(I) ∩ P).

    With no such s, I is inductive (Σ0 ⊆ I, or the chain had stopped) and is
    the fixpoint.  ``choose`` picks s from that nonempty mask, raising
    ``ValueError`` on a pick outside it; the default takes the smallest
    state index.  The output is choice-independent.
    """
    pick = choose if choose is not None else lambda mask: next(bits(mask))

    def weaken(i: int) -> int:
        counterexamples = i & ~(ts.pret(i) & ts.safe)
        if not counterexamples:
            return i
        s = pick(counterexamples)
        if s < 0 or not counterexamples >> s & 1:
            raise ValueError(f"choose picked state {s}, not a counterexample in {counterexamples:#b}")
        return i & fam.avoid(1 << s)

    return _descend(ts, fam, weaken)


def run_algorithm4(ts: FiniteTS, fam: ClosureFamily) -> AlgoResult:
    """Forward gfp: Algorithm 1 on ``ts.dual``, I := mu_down(postt(I) ∩ I ∩ ¬Σ0) from I = Σ."""
    return run_algorithm1(ts.dual, fam)


def greatest_invariant_enum(ts: FiniteTS, fam: ClosureFamily) -> int | None:
    """Union of all inductive invariants in L entailing P (None when none exist)."""
    found = [
        phi for phi in fam.members if check_inductive_invariant(ts.post, ts.init, ts.safe, phi, subset)
    ]
    return reduce(or_, found) if found else None


# ---------------------------------------------------------------------------
# Seeded random instances
# ---------------------------------------------------------------------------

MAX_STATES = 8  # states of a random transition system
MAX_CARRIER = 12  # elements of a random Galois insertion's concrete lattice


def _rng(seed: int | str) -> random.Random:
    return random.Random(str(seed))


def random_ts(seed: int | str) -> FiniteTS:
    """Deterministic random transition system with init and safety masks."""
    rng = _rng(seed)
    n = rng.randint(2, MAX_STATES)
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


def random_gi(seed: int | str) -> FiniteGI:
    """Deterministic random Galois insertion over a small lattice carrier.

    The carrier C is a Moore family on 2 to 4 atoms that contains the empty
    mask, a sublattice of the powerset whose meet is ``&``; the abstract
    domain is the Moore subfamily generated by random members of C.
    """
    rng = _rng(seed)
    while True:
        atoms = rng.randint(2, 4)
        full = (1 << atoms) - 1
        members = {full, 0}
        for _ in range(rng.randint(1, MAX_CARRIER)):
            members.add(rng.randrange(full + 1))
        members = _closure(members, and_)
        if len(members) <= MAX_CARRIER:
            break
    carrier = sorted(members)
    sub = {full}
    for _ in range(rng.randint(1, len(carrier))):
        sub.add(rng.choice(carrier))
    return FiniteGI(ClosureFamily(atoms, members), ClosureFamily(atoms, _closure(sub, and_)))


def _closure(members: Iterable[int], *ops: Callable[[int, int], int]) -> frozenset[int]:
    """The least superset of ``members`` closed under each of the commutative,
    idempotent binary ``ops`` (so each unordered pair of distinct members suffices)."""
    return lfp_iterate(
        lambda ms: ms.union(*[starmap(op, combinations(ms, 2)) for op in ops]), frozenset(members)
    )


def random_monotone(seed: int | str, lat: ClosureFamily) -> dict[int, int]:
    """Deterministic random monotone function on a Moore family.

    x ↦ the join of g(y) over the members y ⊆ x, for a random map g.
    """
    rng = _rng(seed)
    members = sorted(lat.members)
    g = [rng.choice(members) for _ in members]
    return {
        x: lat.mu_up(reduce(or_, (gy for y, gy in zip(members, g) if subset(y, x))))
        for x in members
    }


# ---------------------------------------------------------------------------
# Oracle suites
# ---------------------------------------------------------------------------


# One trial per suite, given the trial seed ``s`` and index ``k``.  Trials call
# the checkers by their module-global names, so a wrapper installed on a name
# (a profiler, a tracer) sees every call.


def _trial_lemma1(s: str, k: int) -> bool:
    gi = random_gi(s)
    f = random_monotone(s + ":f", gi.C)
    return check_lemma1(gi, f, gi.C.members)


def _trial_completeness(s: str, k: int) -> bool:
    gi = random_gi(s)
    fs = [random_monotone(f"{s}:f{j}", gi.C) for j in range(3)]
    return check_safe_inv(gi, fs)["consistent"]


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
    return ok and r4.found == subset(best_reach(ts.dual, fam), ts.dual.safe)


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


def run_suites(name: str, seed: int, trials: int) -> list[dict]:
    """Run one named suite, or every suite in table order for ``"all"``;
    one report per suite: {name, trials, failures, first_failure_seed}."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    reports = []
    for suite in SUITES if name == "all" else [name]:
        seeds = (f"{seed}:{suite}:{k}" for k in range(trials))
        failures = [s for k, s in enumerate(seeds) if not SUITES[suite](s, k)]
        first = failures[0] if failures else None
        reports.append({"name": suite, "trials": trials, "failures": len(failures), "first_failure_seed": first})
    return reports
