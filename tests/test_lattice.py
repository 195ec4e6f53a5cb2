"""Order-theoretic core: fixpoint iteration and the domains' adjunction."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from absinv import finite, programs, synthesis
from absinv.finite import lfp_table, powerset_family, random_gi, random_monotone
from absinv.lattice import (
    IterationBudgetExceeded,
    check_inductive_invariant,
    gfp_iterate,
    kleene,
    lfp_iterate,
    memo,
)
from absinv.synthesis import AffAdapter, ConstAdapter

# the 4-element chain, 1-based values, with f = {1->1, 2->2, 3->4, 4->4}
CHAIN4_F = {1: 1, 2: 2, 3: 4, 4: 4}


def test_lfp_identity_from_bottom():
    assert lfp_iterate(lambda x: x, frozenset()) == frozenset()


def test_lfp_four_chain_from_one():
    assert lfp_iterate(CHAIN4_F.__getitem__, 1) == 1


def test_lfp_three_chain_closure_composition():
    # mu = {2, 3} composed with f = {1->1, 2->3, 3->3} maps 2 to 3
    mu_f = {1: 2, 2: 3, 3: 3}
    assert lfp_iterate(mu_f.__getitem__, 2) == 3


def test_gfp_identity_and_constant():
    full = frozenset({"s0", "s1"})
    assert gfp_iterate(lambda x: x, full) == full
    assert gfp_iterate(lambda x: frozenset(), full) == frozenset()


def test_gfp_powerset_intersection():
    full = frozenset({"s0", "s1"})
    assert gfp_iterate(lambda x: x & {"s0"}, full) == frozenset({"s0"})


def test_iteration_budget_exceeded():
    with pytest.raises(IterationBudgetExceeded):
        lfp_iterate(lambda x: x + 1, 0)


class Counted:
    """Wraps ``f`` and counts its applications."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def test_kleene_first_item_is_start():
    f = Counted(lambda x: x)
    chain = kleene(f, 5)
    assert next(chain) == 5
    assert f.calls == 0


def test_kleene_ends_at_first_fixpoint():
    f = Counted(CHAIN4_F.__getitem__)
    assert list(kleene(f, 3)) == [3, 4]
    assert f.calls == 2
    # min(x + 1, 6) from 0: 0..6, where 6 is the first x with f(x) == x
    assert list(kleene(lambda x: min(x + 1, 6), 0)) == [0, 1, 2, 3, 4, 5, 6]


def test_kleene_stable_hook_replaces_the_equality_test():
    """A chain of per-step changes, here the frontiers of a breadth-first
    search, ends at the first empty one, which is not yielded."""
    succ = {0: {1, 2}, 1: {3}, 2: {3}, 3: {0}}
    seen = {0}

    def frontier(last):
        new = {t for s in last for t in succ[s]} - seen
        seen.update(new)
        return new

    f = Counted(frontier)
    assert list(kleene(f, {0}, stable=lambda x, fx: not fx)) == [{0}, {1, 2}, {3}]
    assert f.calls == 3 and seen == {0, 1, 2, 3}
    # the hook alone decides: f(x) == x does not end this chain
    with pytest.raises(IterationBudgetExceeded):
        list(kleene(lambda x: x, 0, 3, stable=lambda x, fx: False))


@pytest.mark.parametrize("max_steps", [0, 1, 5])
def test_kleene_budget_counts_applications(max_steps):
    f = Counted(lambda x: x + 1)
    seen = []
    with pytest.raises(IterationBudgetExceeded):
        for x in kleene(f, 0, max_steps):
            seen.append(x)
    assert f.calls == max_steps + 1
    assert seen == list(range(max_steps + 1))
    # a chain that stabilizes on the last allowed application is not cut
    assert list(kleene(lambda x: min(x + 1, max_steps), 0, max_steps))[-1] == max_steps


@pytest.mark.parametrize("k", [1, 2, 4])
def test_kleene_consumer_stopping_after_k_iterates(k):
    f = Counted(lambda x: x + 1)
    taken = []
    for x in kleene(f, 0):
        taken.append(x)
        if len(taken) == k:
            break
    assert taken == list(range(k))
    assert f.calls == k - 1


def test_check_inductive_invariant_trivial():
    leq = lambda a, b: a <= b
    assert check_inductive_invariant(lambda x: x, 0, 10, 0, leq)


def test_check_inductive_invariant_four_chain():
    leq = lambda a, b: a <= b
    f = CHAIN4_F.__getitem__
    assert check_inductive_invariant(f, 1, 3, 2, leq)
    assert not check_inductive_invariant(f, 1, 3, 3, leq)  # f(3)=4 not below 3


# ---------------------------------------------------------------------------
# The alpha/gamma adjunction of the numeric domains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("adapter", [ConstAdapter(2), AffAdapter(2)], ids=["const", "affine"])
def test_alpha_contains_adjunction(adapter):
    """alpha(X) <= a iff every point of X is in gamma(a), on small point sets.

    a = alpha(Y) for up to three points Y, which reaches every element of
    both 2-variable domains.  X mixes points of Y, the affine combination
    2*y1 - y0 and arbitrary points: small integers for const, small
    rationals for affine.
    """
    rng = random.Random(f"adjunction:{adapter.sort}")

    def point():
        if adapter.sort == "int":
            return tuple(rng.randint(-2, 2) for _ in range(2))
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(2))

    outcomes = Counter()
    for _ in range(500):
        y = [point() for _ in range(rng.randint(0, 3))]
        a = adapter.alpha(y)
        x = rng.sample(y, rng.randint(0, len(y))) + [point() for _ in range(rng.randint(0, 2))]
        if len(y) >= 2:
            x.append(tuple(2 * q - p for p, q in zip(y[0], y[1])))
        inside = all(adapter.contains(a, p) for p in x)
        assert adapter.leq(adapter.alpha(x), a) == inside
        outcomes[inside] += 1
    assert min(outcomes[True], outcomes[False]) >= 100


# ---------------------------------------------------------------------------
# Fixpoint laws on sampled finite instances
# ---------------------------------------------------------------------------


def test_lfp_is_least_prefixpoint_on_random_lattices():
    for k in range(40):
        gi = random_gi(f"lfp-least:{k}")
        lat = gi.C
        f = random_monotone(f"lfp-least:{k}:f", lat)
        least = lfp_table(lat, f)
        assert f[least] == least
        for x in lat.members:
            if lat.leq(f[x], x):
                assert lat.leq(least, x)


def test_invariant_principle_soundness_on_random_lattices():
    rng = random.Random(7)
    for k in range(40):
        gi = random_gi(f"pii:{k}")
        lat = gi.C
        f = random_monotone(f"pii:{k}:f", lat)
        c = rng.choice(sorted(lat.members))
        cp = rng.choice(sorted(lat.members))
        table = {x: lat.join(c, f[x]) for x in lat.members}
        fix = lfp_table(lat, table)
        if lat.leq(fix, cp):
            assert check_inductive_invariant(
                lambda x: f[x], c, cp, fix, lat.leq
            )


def test_finite_lattice_is_abstract_domain():
    lat = powerset_family(3)
    assert lat.leq(lat.bottom(), lat.top())
    for a in lat.members:
        for b in lat.members:
            j, m = lat.join(a, b), lat.meet(a, b)
            assert lat.leq(a, j) and lat.leq(b, j)
            assert lat.leq(m, a) and lat.leq(m, b)


# ---------------------------------------------------------------------------
# memo: a value computed on first read, once per instance
# ---------------------------------------------------------------------------


MEMOS = [
    (programs.ParallelAffineAssign, "assigned"), (programs.ParallelAffineAssign, "scaled"),
    (programs.Guard, "cleared"), (synthesis.AnalysisProblem, "preds"), (synthesis.AnalysisProblem, "succs"),
    (synthesis.SynthesisResult, "trace"), (finite.ClosureFamily, "_union_closed"),
    (finite.ClosureFamily, "_down_sets"),
]


def _memo_owner(cls: type):
    """An instance of ``cls`` whose memos have not been read."""
    if cls is finite.ClosureFamily:
        return finite.ClosureFamily(2, frozenset({0, 1, 3}))
    prog = programs.parse_program(
        "vars 2; sort rat; nodes a b; init a: (1,2);"
        " edge a -> b : x1 := 2/3*x2 + 1; edge b -> a : assume x1 = 1/2 or x2 = 0;"
    )
    if cls is not synthesis.AnalysisProblem and cls is not synthesis.SynthesisResult:
        return next(t for _, t, _ in prog.edges if isinstance(t, cls))
    problem = synthesis.AnalysisProblem.build(prog, "affine")
    return problem if cls is synthesis.AnalysisProblem else synthesis.ainv_forward(problem)


@pytest.mark.parametrize("owner, name", MEMOS, ids=[f"{c.__name__}.{name}" for c, name in MEMOS])
def test_memo_values_are_computed_once_per_instance(monkeypatch, owner, name):
    obj = _memo_owner(owner)
    descriptor = vars(owner)[name]
    assert isinstance(descriptor, memo) and descriptor.__doc__ == descriptor.func.__doc__
    assert name not in vars(obj)
    calls = []
    compute = descriptor.func
    monkeypatch.setattr(descriptor, "func", lambda self: calls.append(self) or compute(self))
    first = getattr(obj, name)
    assert getattr(obj, name) is first and len(calls) == 1 and calls[0] is obj
    other = dataclasses.replace(obj)  # an equal instance has its own value
    assert getattr(other, name) == first and len(calls) == 2 and calls[1] is other
    assert getattr(obj, name) is first and len(calls) == 2
    # the instances stay frozen: a memo is filled on read, never assigned
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, first)
    assert getattr(obj, name) is first
