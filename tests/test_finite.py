"""Finite harness: lattices, insertions, transformers, checkers, algorithms."""

from __future__ import annotations

import random

import pytest

from absinv import finite as fin
from conftest import three_chain_f


# ---------------------------------------------------------------------------
# Lattice and insertion construction
# ---------------------------------------------------------------------------


def test_chain_lattice_basics(three_chain):
    assert three_chain.bottom() == 0 and three_chain.top() == 2
    assert three_chain.join(0, 2) == 2 and three_chain.meet(1, 2) == 1
    assert three_chain.height() == 2


def test_lattice_validation_rejects_cycles():
    with pytest.raises(fin.ValidationError, match="antisymmetric"):
        fin.FiniteLattice.from_pairs(2, [(0, 1), (1, 0)])


def test_lattice_validation_requires_bounds():
    # two incomparable elements: no lub, not a lattice
    with pytest.raises((fin.ValidationError, StopIteration)):
        fin.FiniteLattice([0b01, 0b10])


def test_gi_from_closure_image(three_chain):
    gi = fin.FiniteGI.from_closure_image(three_chain, [1, 2])
    assert [gi.A.labels[gi.alpha[c]] for c in range(3)] == ["2", "2", "3"]
    assert [gi.gamma[a] for a in range(gi.A.size)] == [1, 2]


def test_gi_validation_rejects_broken_tables(three_chain):
    with pytest.raises(fin.ValidationError):
        fin.FiniteGI(three_chain, fin.FiniteLattice.chain(2), (0, 0, 0), (0, 2))


# ---------------------------------------------------------------------------
# Transformers, reachability, duality
# ---------------------------------------------------------------------------


def test_transformers_empty_relation():
    ts = fin.FiniteTS(3, frozenset())
    for x in range(8):
        assert ts.post(x) == 0
        assert ts.pret(x) == 0b111


def test_transformers_two_cycle():
    ts = fin.FiniteTS(2, frozenset({(0, 1), (1, 0)}))
    assert ts.post(0b01) == 0b10
    assert ts.pre(0b01) == 0b10
    assert ts.pret(0b10) == 0b01


def test_adjunctions_exhaustive_small():
    ts = fin.FiniteTS(3, frozenset({(0, 1), (1, 2), (2, 0), (1, 1)}))
    assert fin.check_adjunctions(ts)


def test_reach_examples():
    chain = fin.FiniteTS(3, frozenset({(0, 1), (1, 2)}), init=0b001)
    assert fin.reach(chain) == 0b111
    assert fin.reach(chain, init=0) == 0
    with_isolated = fin.FiniteTS(3, frozenset({(0, 1)}), init=0b001)
    assert fin.reach(with_isolated) == 0b011


def test_eq4_duality_on_seeds():
    for k in range(60):
        assert fin.check_eq4_duality(fin.random_ts(f"dual:{k}"))


# ---------------------------------------------------------------------------
# Closure families and avoid
# ---------------------------------------------------------------------------


def downset_family_of_chain3() -> fin.ClosureFamily:
    # down-sets of s0 < s1 < s2
    return fin.ClosureFamily(3, frozenset({0b000, 0b001, 0b011, 0b111}))


def test_avoid_examples():
    fam = downset_family_of_chain3()
    assert fam.avoid(1 << 1) == 0b001  # states whose members dodge s1
    power = fin.powerset_family(3)
    assert power.avoid(1 << 2) == 0b011
    assert power.avoid(0) == 0b111  # union of the whole family


def test_family_validation():
    with pytest.raises(fin.ValidationError, match="intersection"):
        fin.ClosureFamily(2, frozenset({0b11, 0b01, 0b10}))
    with pytest.raises(fin.ValidationError, match="full"):
        fin.ClosureFamily(2, frozenset({0b01}))


def test_union_closure_flag():
    assert fin.powerset_family(2).is_union_closed()
    assert downset_family_of_chain3().is_union_closed()
    no_empty = fin.ClosureFamily(2, frozenset({0b11, 0b01}))
    assert not no_empty.is_union_closed()


def test_lemma6_powerset_matches_reach():
    ts = fin.FiniteTS(3, frozenset({(0, 1), (1, 2)}), init=0b001, safe=0b111)
    fam = fin.powerset_family(3)
    report = fin.check_lemma6(ts, fam)
    assert report["ok"] and report["a2"]
    # with the identity closure both reachability flavors equal plain reach
    from absinv.lattice import lfp_iterate

    lhs = lfp_iterate(lambda x: ts.init | ts.post(x) | fam.delta(x), 0)
    assert lhs == fin.reach(ts)


def test_lemma6_downsets_and_unclosed_families():
    ts = fin.FiniteTS(3, frozenset({(0, 1)}), init=0b001, safe=0b111)
    assert fin.check_lemma6(ts, downset_family_of_chain3())["ok"]
    unclosed = fin.ClosureFamily(2, frozenset({0b11, 0b01, 0b10, 0b00}))
    # {01} | {10} = {11} present, but drop the empty set to break closure
    not_a2 = fin.ClosureFamily(2, frozenset({0b11, 0b01, 0b00}))
    ts2 = fin.FiniteTS(2, frozenset({(0, 1)}), init=0b01, safe=0b11)
    rep = fin.check_lemma6(ts2, not_a2)
    assert rep["ok"] and rep["a2"] is True  # this one actually is union-closed
    rep2 = fin.check_lemma6(ts2, fin.ClosureFamily(2, frozenset({0b11, 0b01})))
    assert rep2["a2"] is False and rep2["c"] is True


# ---------------------------------------------------------------------------
# Theorem checkers on the worked micro-instances
# ---------------------------------------------------------------------------


def test_lemma1_four_chain(four_chain_gi):
    gi, f = four_chain_gi
    abs_lfp = fin.lfp_table(gi.A, gi.bca_table(f))
    assert gi.A.labels[abs_lfp] == "2"
    # value 3 (index 2) is provable abstractly, value 1 (index 0) is not
    assert fin.check_lemma1(gi, f, 2)
    assert gi.C.leq(gi.gamma[abs_lfp], 2)
    assert fin.check_lemma1(gi, f, 0)
    assert not gi.C.leq(gi.gamma[abs_lfp], 0)


def test_lemma1_identity_function(four_chain_gi):
    gi, _ = four_chain_gi
    ident = tuple(range(gi.C.size))
    assert fin.check_lemma1(gi, ident, gi.C.top())


def test_lemma1_rejects_non_monotone(four_chain_gi):
    gi, _ = four_chain_gi
    with pytest.raises(fin.ValidationError, match="monotone"):
        fin.check_lemma1(gi, (3, 0, 0, 0), 2)


def test_completeness_characterizations_three_chain(three_chain):
    f = three_chain_f()
    incomplete = fin.FiniteGI.from_closure_image(three_chain, [1, 2])  # image {2,3}
    rep = fin.check_fixpoint_completeness_char(incomplete, f)
    assert rep["consistent"]
    assert not rep["plain"] and not rep["single_witness"]
    complete = fin.FiniteGI.from_closure_image(three_chain, [0, 2])  # image {1,3}
    rep2 = fin.check_fixpoint_completeness_char(complete, f)
    assert rep2["consistent"]
    assert rep2["plain"] and rep2["single_witness"]


def test_completeness_identity_function(three_chain):
    gi = fin.FiniteGI.from_closure_image(three_chain, [0, 2])
    rep = fin.check_fixpoint_completeness_char(gi, tuple(range(3)))
    assert all(rep[k] for k in ("strong", "plain", "char_all_concrete", "char_all_abstract", "single_witness"))
    # when the image misses bottom, identity is plain- but not strong-complete;
    # the characterizations must still line up
    other = fin.check_fixpoint_completeness_char(
        fin.FiniteGI.from_closure_image(three_chain, [1, 2]), tuple(range(3))
    )
    assert other["consistent"] and other["plain"] and not other["strong"]


def test_safe_inv_three_chain(three_chain):
    f = three_chain_f()
    incomplete = fin.FiniteGI.from_closure_image(three_chain, [1, 2])
    rep = fin.check_safe_inv(incomplete, [f])
    assert rep["consistent"] and not rep["equal_on_abstract"]
    complete = fin.FiniteGI.from_closure_image(three_chain, [0, 2])
    rep2 = fin.check_safe_inv(complete, [f])
    assert rep2["consistent"] and rep2["equal_on_abstract"]


def test_safe_inv_trivial_explicit_set(three_chain):
    gi = fin.FiniteGI.from_closure_image(three_chain, [1, 2])
    ident = tuple(range(3))
    rep = fin.check_safe_inv(gi, [ident], safe_set=[three_chain.top()])
    assert rep["equal"] and rep["consistent"]


# ---------------------------------------------------------------------------
# Algorithms
# ---------------------------------------------------------------------------


def test_algorithm1_returns_full_set_when_safe_everywhere():
    ts = fin.FiniteTS(3, frozenset({(0, 1)}), init=0b001, safe=0b111)
    result = fin.run_algorithm1(ts, fin.powerset_family(3))
    assert result.found and result.invariant == 0b111
    assert result.trace == (0b111,)


def test_algorithms_report_no_invariant_when_init_unsafe():
    ts = fin.FiniteTS(2, frozenset(), init=0b11, safe=0b01)
    fam = fin.powerset_family(2)
    assert not fin.run_algorithm1(ts, fam).found
    assert not fin.run_algorithm2_padon(ts, fam).found


def test_algorithm_equivalence_and_greatest_invariant():
    for k in range(150):
        ts = fin.random_ts(f"alg:{k}")
        fam = fin.random_closure_family(f"alg:{k}:L", ts.size, union_closed=True)
        r1 = fin.run_algorithm1(ts, fam)
        r2 = fin.run_algorithm2_padon(ts, fam)
        best = fin.greatest_invariant_enum(ts, fam)
        assert r1.found == r2.found == (best is not None)
        if r1.found:
            assert r1.invariant == r2.invariant == best


def test_algorithm4_is_algorithm1_on_the_dual_system():
    for k in range(150):
        ts = fin.random_ts(f"dual-alg:{k}")
        fam = fin.random_closure_family(f"dual-alg:{k}:L", ts.size, union_closed=True)
        dual = fin.FiniteTS(
            ts.size,
            frozenset((t, s) for s, t in ts.transitions),
            init=ts.full & ~ts.safe,
            safe=ts.full & ~ts.init,
        )
        r4 = fin.run_algorithm4(ts, fam)
        r1 = fin.run_algorithm1(dual, fam)
        assert (r4.found, r4.invariant, r4.trace) == (r1.found, r1.invariant, r1.trace)


def test_algorithm2_output_is_choice_independent():
    rng = random.Random(0)
    for k in range(40):
        ts = fin.random_ts(f"choice:{k}")
        fam = fin.random_closure_family(f"choice:{k}:L", ts.size, union_closed=True)
        base = fin.run_algorithm2_padon(ts, fam)
        for _ in range(5):
            order = list(range(ts.size))
            rng.shuffle(order)

            def pick(mask: int) -> int:
                return next(s for s in order if (mask >> s) & 1)

            other = fin.run_algorithm2_padon(ts, fam, choose=pick)
            assert other.found == base.found and other.invariant == base.invariant


def test_algorithms_require_union_closure():
    ts = fin.FiniteTS(2, frozenset(), init=0b01, safe=0b11)
    fam = fin.ClosureFamily(2, frozenset({0b11, 0b01}))
    with pytest.raises(fin.ClosureViolation):
        fin.run_algorithm1(ts, fam)


def test_corollary9_examples():
    ts = fin.FiniteTS(3, frozenset({(0, 1)}), init=0b001, safe=0b011)
    power = fin.powerset_family(3)
    assert fin.check_corollary9(ts, power)
    # with the powerset both sides reduce to plain reachability
    assert fin.reach(ts) & ~ts.safe == 0
    unsafe = fin.FiniteTS(3, frozenset({(0, 1)}), init=0b001, safe=0b000)
    assert fin.check_corollary9(unsafe, power)
    for k in range(150):
        ts = fin.random_ts(f"cor9:{k}")
        fam = fin.random_closure_family(f"cor9:{k}:L", ts.size)
        assert fin.check_corollary9(ts, fam)


def test_forward_procedure_verdict_matches_exhaustive_witness_search():
    """The ascending synthesis loop finds an invariant iff one exists in A.

    On finite insertions the search space can be enumerated outright: the
    loop's verdict must coincide with the existence of any abstract witness,
    and a found invariant must be the least witness.
    """
    for k in range(120):
        gi = fin.random_gi(f"ainv:{k}")
        f = fin.random_monotone(f"ainv:{k}:f", gi.C)
        rng = random.Random(f"ainv:{k}:ca")
        c = rng.randrange(gi.C.size)
        a_prime = rng.randrange(gi.A.size)
        bca = gi.bca_table(f)
        start = gi.alpha[c]
        i = start
        found = None
        while gi.A.leq(i, a_prime):
            stepped = gi.A.join(start, bca[i])
            if stepped == i:
                found = i
                break
            i = stepped
        witnesses = [
            a
            for a in range(gi.A.size)
            if gi.A.leq(start, a) and gi.A.leq(bca[a], a) and gi.A.leq(a, a_prime)
        ]
        assert (found is not None) == bool(witnesses)
        if found is not None:
            assert all(gi.A.leq(found, w) for w in witnesses)


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------


def test_random_instances_are_deterministic():
    a = fin.random_ts("det:1")
    b = fin.random_ts("det:1")
    assert a == b
    fam1 = fin.random_closure_family("det:2", 5, union_closed=True)
    fam2 = fin.random_closure_family("det:2", 5, union_closed=True)
    assert fam1 == fam2
    g1, g2 = fin.random_gi("det:3"), fin.random_gi("det:3")
    assert g1.alpha == g2.alpha and g1.gamma == g2.gamma


def test_random_generators_produce_valid_instances():
    for k in range(60):
        gi = fin.random_gi(f"valid:{k}")  # constructor validates the GI laws
        assert gi.A.size <= gi.C.size <= 12
        f = fin.random_monotone(f"valid:{k}:f", gi.C)
        assert gi.C.is_monotone(f)
        fam = fin.random_closure_family(f"valid:{k}:L", 6)
        assert (1 << 6) - 1 in fam.members
    with pytest.raises(ValueError, match="bound"):
        fin.random_ts(0, max_states=11)


def test_run_suite_interface():
    report = fin.run_suite("lemma1", seed=1, trials=5)
    assert report == {"name": "lemma1", "trials": 5, "failures": 0, "first_failure_seed": None}
    with pytest.raises(ValueError, match="unknown suite"):
        fin.run_suite("bogus", 0, 1)
    empty = fin.run_suites("all", seed=0, trials=0)
    assert all(r["trials"] == 0 and r["failures"] == 0 for r in empty)


def test_union_closure_matches_the_pairwise_definition():
    for k in range(200):
        fam = fin.random_closure_family(f"uc:{k}", 1 + k % 5, union_closed=k % 3 == 0)
        m = fam.members
        expected = 0 in m and all(a | b in m for a in m for b in m)
        assert fam.is_union_closed() is expected
        assert fam.is_union_closed() is expected
        assert fam == fin.ClosureFamily(fam.size, m) and hash(fam) == hash(fin.ClosureFamily(fam.size, m))
    ts = fin.FiniteTS(2, frozenset(), init=0b01, safe=0b11)
    fam = fin.ClosureFamily(2, frozenset({0b11, 0b01}))
    for run in (fin.run_algorithm1, fin.run_algorithm2_padon, fin.run_algorithm4):
        with pytest.raises(fin.ClosureViolation):
            run(ts, fam)
