"""Order-theoretic core: fixpoint iteration, insertions, closures, products."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from absinv.const_domain import ConstDomain, ConstVec, TOP
from absinv.finite import FiniteLattice, lfp_table, random_gi, random_monotone
from absinv.lattice import (
    GaloisInsertion,
    IterationBudgetExceeded,
    NotAnInsertion,
    ProductLattice,
    check_inductive_invariant,
    closure_to_gi,
    gfp_iterate,
    gi_to_closure,
    kleene,
    lfp_iterate,
)

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
        lfp_iterate(lambda x: x + 1, 0, max_steps=40)


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
# Galois insertions and closures
# ---------------------------------------------------------------------------

ALL_INTS = "Z"  # symbolic concretization of top for the one-variable case


def _const1_gi() -> GaloisInsertion:
    """One-variable constant propagation with symbolic concrete sets."""

    def alpha(c):
        if c == ALL_INTS:
            return TOP
        if not c:
            return None  # bottom
        if len(c) == 1:
            return next(iter(c))
        return TOP

    def gamma(a):
        if a is TOP:
            return ALL_INTS
        if a is None:
            return frozenset()
        return frozenset({a})

    def c_leq(x, y):
        if y == ALL_INTS:
            return True
        if x == ALL_INTS:
            return False
        return x <= y

    def a_leq(x, y):
        return x is None or y is TOP or x == y

    return GaloisInsertion(alpha, gamma, c_leq, a_leq)


def test_gi_to_closure_identity():
    gi = GaloisInsertion(lambda x: x, lambda x: x, lambda a, b: a <= b, lambda a, b: a <= b)
    mu = gi_to_closure(gi, abstract_samples=[1, 2, 3])
    assert mu.kind == "upper"
    assert mu(7) == 7


def test_gi_to_closure_const_single_variable():
    mu = gi_to_closure(_const1_gi(), abstract_samples=[None, 0, 5, TOP])
    assert mu(frozenset({5})) == frozenset({5})
    assert mu(frozenset({1, 2})) == ALL_INTS


def test_gi_to_closure_rejects_non_insertion():
    # gamma lands outside the singleton image, so alpha(gamma(a)) != a
    bad = GaloisInsertion(
        alpha=lambda c: TOP,
        gamma=lambda a: frozenset({1}),
        concrete_leq=lambda a, b: a <= b,
        abstract_leq=lambda a, b: True,
    )
    with pytest.raises(NotAnInsertion):
        gi_to_closure(bad, abstract_samples=[5])


def test_closure_to_gi_three_chain():
    mu = {1: 2, 2: 2, 3: 3}
    gi, image = closure_to_gi(mu.__getitem__, [1, 2, 3], lambda a, b: a <= b)
    assert set(image) == {2, 3}
    assert gi.alpha(1) == 2 and gi.alpha(2) == 2 and gi.alpha(3) == 3
    # round trip: the induced closure agrees with the original map
    back = gi_to_closure(gi, abstract_samples=image)
    assert [back(c) for c in (1, 2, 3)] == [2, 2, 3]


def test_closure_to_gi_identity():
    gi, image = closure_to_gi(lambda x: x, [1, 2, 3], lambda a, b: a <= b)
    assert list(image) == [1, 2, 3]
    assert all(gi.adjunction_holds(c, a) for c in (1, 2, 3) for a in image)


@given(st.integers(-3, 3), st.sets(st.integers(-3, 3), max_size=4))
def test_const1_adjunction_law(value, concrete_set):
    gi = _const1_gi()
    c = frozenset(concrete_set)
    for a in (None, value, TOP):
        assert gi.adjunction_holds(c, a)


# ---------------------------------------------------------------------------
# Product lattice
# ---------------------------------------------------------------------------


def test_product_lattice_componentwise():
    prod = ProductLattice(ConstDomain(2), 3)
    bot, top = prod.bottom(), prod.top()
    assert prod.leq(bot, top) and not prod.leq(top, bot)
    a = (ConstVec.of(1, 2), ConstVec.of(TOP, 2), ConstVec.bottom(2))
    assert prod.join(a, bot) == a
    assert prod.meet(a, top) == a
    assert prod.height() == 3 * 4  # |Q| * 2n


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
        for x in range(lat.size):
            if lat.leq(f[x], x):
                assert lat.leq(least, x)


def test_invariant_principle_soundness_on_random_lattices():
    rng = random.Random(7)
    for k in range(40):
        gi = random_gi(f"pii:{k}")
        lat = gi.C
        f = random_monotone(f"pii:{k}:f", lat)
        c = rng.randrange(lat.size)
        cp = rng.randrange(lat.size)
        table = tuple(lat.join(c, f[x]) for x in range(lat.size))
        fix = lfp_table(lat, table)
        if lat.leq(fix, cp):
            assert check_inductive_invariant(
                lambda x: f[x], c, cp, fix, lat.leq
            )


def test_finite_lattice_is_abstract_domain():
    lat = FiniteLattice.powerset(3)
    assert lat.leq(lat.bottom(), lat.top())
    for a in range(lat.size):
        for b in range(lat.size):
            j, m = lat.join(a, b), lat.meet(a, b)
            assert lat.leq(a, j) and lat.leq(b, j)
            assert lat.leq(m, a) and lat.leq(m, b)
    assert lat.height() == 3
