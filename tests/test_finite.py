"""Finite harness: lattices, insertions, transformers, checkers, algorithms."""

from __future__ import annotations

import hashlib
import random

import pytest

from absinv import finite as fin
from conftest import chain_gi, three_chain_f


# ---------------------------------------------------------------------------
# Lattice and insertion construction
# ---------------------------------------------------------------------------


def test_chain_lattice_basics(three_chain):
    assert three_chain.bottom() == 0b001 and three_chain.top() == 0b111
    assert three_chain.join(0b001, 0b111) == 0b111 and three_chain.meet(0b011, 0b111) == 0b011
    # the join is the least member above the union, which need not be the union
    diamond = fin.ClosureFamily(3, frozenset({0b000, 0b001, 0b010, 0b111}))
    assert diamond.join(0b001, 0b010) == 0b111 and diamond.bottom() == 0


def test_gi_from_closure_image():
    gi = chain_gi(3, 2, 3)
    assert [gi.alpha(c) for c in (0b001, 0b011, 0b111)] == [0b011, 0b011, 0b111]
    assert sorted(gi.A.members) == [0b011, 0b111]


def test_gi_rejects_non_subfamily(three_chain):
    with pytest.raises(fin.ValidationError, match="subfamily"):
        fin.FiniteGI(three_chain, fin.ClosureFamily(3, frozenset({0b010, 0b111})))
    with pytest.raises(fin.ValidationError, match="subfamily"):
        fin.FiniteGI(three_chain, fin.ClosureFamily(2, frozenset({0b11})))


def test_random_gi_satisfies_the_insertion_laws():
    for k in range(200):
        gi = fin.random_gi(f"laws:{k}")
        assert gi.A.members <= gi.C.members
        for c in gi.C.members:
            assert gi.alpha(c) in gi.A.members
        for a in gi.A.members:
            assert gi.alpha(a) == a
            for c in gi.C.members:
                assert gi.C.leq(gi.alpha(c), a) == gi.C.leq(c, a)


# ---------------------------------------------------------------------------
# Transformers, reachability, duality
# ---------------------------------------------------------------------------


def test_transformers_empty_relation():
    ts = fin.FiniteTS(3, frozenset())
    for x in range(8):
        assert ts.post(x) == 0
        assert ts.pret(x) == 0b111


def _pre(ts, x):
    """{s | s -> t for some t in x}, read from ``ts.transitions``."""
    return sum({1 << s for s, t in ts.transitions if x >> t & 1})


def _postt(ts, x):
    """{t | s -> t implies s in x}, read from ``ts.transitions``."""
    return sum(1 << t for t in range(ts.size) if all(x >> s & 1 for s, u in ts.transitions if u == t))


def _reversed(ts):
    """Every transition reversed, starting from ¬P and avoiding Σ0, built without ``dual``."""
    reversed_ = frozenset((t, s) for s, t in ts.transitions)
    return fin.FiniteTS(ts.size, reversed_, init=ts.full & ~ts.safe, safe=ts.full & ~ts.init)


def test_transformers_two_cycle():
    ts = fin.FiniteTS(2, frozenset({(0, 1), (1, 0)}))
    assert ts.post(0b01) == 0b10
    assert ts.dual.post(0b01) == _pre(ts, 0b01) == 0b10
    assert ts.pret(0b10) == 0b01
    assert ts.dual.pret(0b10) == _postt(ts, 0b10) == 0b01


def test_dual_is_the_reversed_system_built_once():
    chain = fin.FiniteTS(3, frozenset({(0, 1), (1, 2)}), init=0b001, safe=0b011)
    assert chain.dual == fin.FiniteTS(3, frozenset({(1, 0), (2, 1)}), init=0b100, safe=0b110)
    assert [chain.dual.post(x) for x in (0b001, 0b010, 0b100)] == [0, 0b001, 0b010]
    for k in range(300):
        ts = fin.random_ts(f"dual-ts:{k}")
        assert ts.dual == _reversed(ts)
        assert ts.dual.dual == ts
        assert ts.dual is ts.dual


def test_adjunctions_exhaustive_small():
    ts = fin.FiniteTS(3, frozenset({(0, 1), (1, 2), (2, 0), (1, 1)}))
    assert fin.check_adjunctions(ts)


def _reference_check_adjunctions(ts):
    """The pairwise definition: both laws at each of the 4^|Σ| pairs (x, y).

    post ⊣ pret on ``ts``; for pre ⊣ postt, the dual's post and pret each
    against the other adjoint read from ``ts.transitions``, so a dual that is
    wrong anywhere breaks a law.
    """
    n = 1 << ts.size
    laws = [
        (ts.post, ts.pret),
        (ts.dual.post, lambda y: _postt(ts, y)),
        (lambda x: _pre(ts, x), ts.dual.pret),
    ]
    for left, right in laws:
        left_tab = [left(x) for x in range(n)]
        right_tab = [right(y) for y in range(n)]
        for x in range(n):
            for y in range(n):
                if (left_tab[x] & ~y == 0) != (x & ~right_tab[y] == 0):
                    return False
    return True


def test_adjunctions_match_the_pairwise_definition():
    sizes = {}
    for k in range(500):
        ts = fin.random_ts(f"adj:{k}")
        sizes[ts.size] = sizes.get(ts.size, 0) + 1
        assert fin.check_adjunctions(ts) == _reference_check_adjunctions(ts) is True
    assert sorted(sizes) == list(range(2, fin.MAX_STATES + 1))


def _mutant(ts, name, mask, flip):
    """``ts`` as a subclass whose transformer ``name`` has bits ``flip`` toggled at ``mask``."""
    original = getattr(fin.FiniteTS, name)

    def mutated(self, x):
        return original(self, x) ^ flip if x == mask else original(self, x)

    return type("Mutant", (fin.FiniteTS,), {name: mutated})(ts.size, ts.transitions, ts.init, ts.safe)


# each transformer as (on the dual?, method): pre and postt are the dual's post and pret
TRANSFORMERS = {"post": (False, "post"), "pre": (True, "post"), "pret": (False, "pret"), "postt": (True, "pret")}


@pytest.mark.parametrize("name", list(TRANSFORMERS))
def test_adjunctions_fail_when_one_transformer_is_wrong_on_one_mask(name):
    """Adjoints determine each other, so any change to one table breaks a law.

    A wrong pre or postt is a mutant installed as the dual of a correct system.
    """
    on_dual, method = TRANSFORMERS[name]
    rng = random.Random(f"adj-mutant:{name}")
    for k in range(40):
        ts = fin.random_ts(f"adj-mutant:{name}:{k}")
        mask, flip = rng.randrange(1 << ts.size), 1 << rng.randrange(ts.size)
        if on_dual:
            mutant = fin.FiniteTS(ts.size, ts.transitions, ts.init, ts.safe)
            mutant.__dict__["dual"] = _mutant(ts.dual, method, mask, flip)  # shadows the memo
            wrong, right = getattr(mutant.dual, method), getattr(ts.dual, method)
        else:
            mutant = _mutant(ts, method, mask, flip)
            wrong, right = getattr(mutant, method), getattr(ts, method)
        assert wrong(mask) != right(mask)
        assert all(wrong(x) == right(x) for x in range(1 << ts.size) if x != mask)
        assert fin.check_adjunctions(mutant) is _reference_check_adjunctions(mutant) is False
        assert fin.check_adjunctions(ts) is True


def test_reach_examples():
    chain = fin.FiniteTS(3, frozenset({(0, 1), (1, 2)}), init=0b001)
    assert fin.reach(chain) == 0b111
    assert fin.reach(fin.FiniteTS(3, chain.transitions, init=0)) == 0
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
    with pytest.raises(fin.ValidationError, match="intersection-closed"):
        fin.ClosureFamily(2, frozenset({0b11, 0b01, 0b10}))
    with pytest.raises(fin.ValidationError, match="full"):
        fin.ClosureFamily(2, frozenset({0b01}))
    with pytest.raises(fin.ValidationError, match="^family member out of range$"):
        fin.ClosureFamily(2, frozenset({0b11, 0b100}))


@pytest.mark.parametrize(
    "transitions, init, safe, message",
    [
        ((), 0b100, 0b11, "state mask out of range"),
        ((), 0b01, 0b111, "state mask out of range"),
        (((0, 2),), 0b01, 0b11, "transition endpoint out of range"),
        (((-1, 0),), 0b01, 0b11, "transition endpoint out of range"),
    ],
    ids=["init", "safe", "target", "source"],
)
def test_transition_system_validation(transitions, init, safe, message):
    with pytest.raises(fin.ValidationError, match=f"^{message}$"):
        fin.FiniteTS(2, frozenset(transitions), init, safe)


def test_intersection_closure_validation_matches_the_pairwise_definition():
    rng = random.Random("moore")
    verdicts = set()
    for k in range(300):
        size = rng.randint(1, 4)
        full = (1 << size) - 1
        members = frozenset({full, *(rng.randrange(full + 1) for _ in range(rng.randint(0, 5)))})
        closed = all(a & b in members for a in members for b in members)
        verdicts.add(closed)
        if closed:
            assert fin.ClosureFamily(size, members).members == members
        else:
            with pytest.raises(fin.ValidationError, match="intersection-closed"):
                fin.ClosureFamily(size, members)
    assert verdicts == {True, False}


def _reference_mu_up(fam, x):
    out = fam.full
    for m in fam.members:
        if x & ~m == 0:
            out &= m
    return out


def _reference_delta(fam, x):
    return sum(1 << s for s in range(fam.size) if any(fam.qo_leq(s, sp) for sp in fin.bits(x)))


def test_cached_closures_match_their_definitions():
    """Memoized mu_up and per-state delta equal the uncached definitions on every
    mask, asked twice, of union-closed and other families."""
    kinds = set()
    for k in range(300):
        fam = fin.random_closure_family(f"cache:{k}", 1 + k % 8, union_closed=k % 2 == 0)
        kinds.add(fam.is_union_closed())
        for _ in range(2):
            for x in range(fam.full + 1):
                assert fam.mu_up(x) == _reference_mu_up(fam, x)
                assert fam.delta(x) == _reference_delta(fam, x)
    assert kinds == {True, False}


def test_closure_caches_are_per_family():
    """Two families of one size, queried in turn, each answer from their own members."""
    chain = fin.ClosureFamily(3, frozenset({0b001, 0b011, 0b111}))
    power = fin.powerset_family(3)
    assert chain.size == power.size and chain.members != power.members
    for x in range(8):
        for fam in (chain, power, chain):
            assert fam.mu_up(x) == _reference_mu_up(fam, x)
            assert fam.delta(x) == _reference_delta(fam, x)
    assert [chain.mu_up(x) for x in range(8)] == [0b001, 0b001, 0b011, 0b011] + [0b111] * 4
    assert [power.mu_up(x) for x in range(8)] == list(range(8))


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
    abs_lfp = fin.lfp_table(gi.A, gi.bca(f))
    assert abs_lfp == 0b0011  # value 2
    # value 3 is provable abstractly, value 1 is not
    assert fin.check_lemma1(gi, f, (0b0111,))
    assert gi.C.leq(abs_lfp, 0b0111)
    assert fin.check_lemma1(gi, f, (0b0001,))
    assert not gi.C.leq(abs_lfp, 0b0001)


def test_lemma1_identity_function(four_chain_gi):
    gi, _ = four_chain_gi
    ident = {c: c for c in gi.C.members}
    assert fin.check_lemma1(gi, ident, (gi.C.top(),))


def test_lemma1_rejects_non_monotone(four_chain_gi):
    gi, _ = four_chain_gi
    antitone = {0b0001: 0b1111, 0b0011: 0b0001, 0b0111: 0b0001, 0b1111: 0b0001}
    with pytest.raises(fin.ValidationError, match="monotone"):
        fin.check_lemma1(gi, antitone, (0b0111,))


def test_completeness_characterizations_three_chain():
    f = three_chain_f()
    incomplete = chain_gi(3, 2, 3)
    rep = fin.check_fixpoint_completeness_char(incomplete, f)
    assert rep["consistent"]
    assert not rep["plain"] and not rep["single_witness"]
    complete = chain_gi(3, 1, 3)
    rep2 = fin.check_fixpoint_completeness_char(complete, f)
    assert rep2["consistent"]
    assert rep2["plain"] and rep2["single_witness"]


def test_completeness_identity_function(three_chain):
    ident = {c: c for c in three_chain.members}
    rep = fin.check_fixpoint_completeness_char(chain_gi(3, 1, 3), ident)
    assert all(rep[k] for k in ("strong", "plain", "char_all_concrete", "char_all_abstract", "single_witness"))
    # when the image misses bottom, identity is plain- but not strong-complete;
    # the characterizations must still line up
    other = fin.check_fixpoint_completeness_char(chain_gi(3, 2, 3), ident)
    assert other["consistent"] and other["plain"] and not other["strong"]


def test_safe_inv_three_chain():
    f = three_chain_f()
    incomplete = chain_gi(3, 2, 3)
    rep = fin.check_safe_inv(incomplete, [f])
    assert rep["consistent"] and not rep["equal_on_abstract"]
    complete = chain_gi(3, 1, 3)
    rep2 = fin.check_safe_inv(complete, [f])
    assert rep2["consistent"] and rep2["equal_on_abstract"]


# Reference checkers that decide every witness question by scanning A again
# and build check_safe_inv's safe and invariant pair sets extensionally.  The
# package's checkers read one lfp and one list of f-inductive members of A
# per function instead; the tests below require the same verdicts.


def _reference_witness(gi, f, bound):
    return any(fin.subset(f[a], a) and fin.subset(a, bound) for a in gi.A.members)


def _reference_check_lemma1(gi, f, c_prime):
    if not gi.C.is_monotone(f):
        raise fin.ValidationError("f is not monotone")
    abs_lfp = fin.lfp_table(gi.A, gi.bca(f))
    return fin.subset(abs_lfp, c_prime) == _reference_witness(gi, f, c_prime)


def _reference_check_fixpoint_completeness_char(gi, f):
    C = gi.C
    if not C.is_monotone(f):
        raise fin.ValidationError("f is not monotone")
    lfp_f = fin.lfp_table(C, f)
    abs_lfp = fin.lfp_table(gi.A, gi.bca(f))
    strong = lfp_f == abs_lfp
    plain = gi.alpha(lfp_f) == abs_lfp
    char_all_concrete = all(
        fin.subset(lfp_f, c2) == _reference_witness(gi, f, c2) for c2 in C.members
    )
    char_all_abstract = all(
        fin.subset(lfp_f, a2) == _reference_witness(gi, f, a2) for a2 in gi.A.members
    )
    single_witness = _reference_witness(gi, f, gi.alpha(lfp_f))
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


def _reference_check_safe_inv(gi, fs):
    C = gi.C
    for f in fs:
        if not C.is_monotone(f):
            raise fin.ValidationError("f is not monotone")
    lfps = [fin.lfp_table(C, f) for f in fs]

    def safe_pairs(sset):
        return {(k, s) for k, lfp in enumerate(lfps) for s in sset if fin.subset(lfp, s)}

    def inv_pairs(sset):
        return {(k, s) for k, f in enumerate(fs) for s in sset if _reference_witness(gi, f, s)}

    reports = [_reference_check_fixpoint_completeness_char(gi, f) for f in fs]
    all_plain = all(r["plain"] for r in reports)
    all_strong = all(r["strong"] for r in reports)
    result = {
        "equal_on_abstract": safe_pairs(gi.A.members) == inv_pairs(gi.A.members),
        "equal_on_concrete": safe_pairs(C.members) == inv_pairs(C.members),
        "all_plain": all_plain,
        "all_strong": all_strong,
    }
    result["consistent"] = (result["equal_on_abstract"] == all_plain) and (
        result["equal_on_concrete"] == all_strong
    )
    return result


def test_checkers_match_their_per_bound_references():
    strong = plain = 0
    for k in range(300):
        gi = fin.random_gi(f"ref:{k}")
        fs = [fin.random_monotone(f"ref:{k}:f{j}", gi.C) for j in range(3)]
        for f in fs:
            per_bound = [_reference_check_lemma1(gi, f, c) for c in gi.C.members]
            assert [fin.check_lemma1(gi, f, (c,)) for c in gi.C.members] == per_bound
            assert fin.check_lemma1(gi, f, gi.C.members) == all(per_bound)
            report = fin.check_fixpoint_completeness_char(gi, f)
            assert report == _reference_check_fixpoint_completeness_char(gi, f)
            strong += report["strong"]
            plain += report["plain"]
        assert fin.check_safe_inv(gi, fs) == _reference_check_safe_inv(gi, fs)
    # both verdicts of both completeness notions occur, so the keys are exercised
    assert 0 < strong < plain < 900


@pytest.mark.parametrize("wrong_lfp", ["top", "bottom"])
def test_checkers_fail_when_the_lfp_is_wrong(monkeypatch, wrong_lfp):
    """With every lfp replaced by top (or bottom), Lemma 1 and the
    safe-versus-inv cross-check must each fail on some instance, and the
    reports must still match the references, which read the same lfps."""
    monkeypatch.setattr(fin, "lfp_table", lambda lat, f: getattr(lat, wrong_lfp)())
    lemma1_fails = safe_inv_fails = 0
    for k in range(50):
        gi = fin.random_gi(f"wrong-lfp:{k}")
        fs = [fin.random_monotone(f"wrong-lfp:{k}:f{j}", gi.C) for j in range(3)]
        lemma1_fails += not fin.check_lemma1(gi, fs[0], gi.C.members)
        safe_inv = fin.check_safe_inv(gi, fs)
        safe_inv_fails += not safe_inv.pop("consistent")
        # the references' consistent does not require consistent reports
        reference = _reference_check_safe_inv(gi, fs)
        del reference["consistent"]
        assert safe_inv == reference
        for f in fs:
            assert fin.check_fixpoint_completeness_char(gi, f) == (
                _reference_check_fixpoint_completeness_char(gi, f)
            )
    assert lemma1_fails > 0 and safe_inv_fails > 0


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
        r4 = fin.run_algorithm4(ts, fam)
        r1 = fin.run_algorithm1(_reversed(ts), fam)
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


def test_algorithm2_rejects_a_pick_outside_the_iterate():
    """At I = Σ, avoiding a state past the last one leaves I as it is: the
    weakening looped forever there, and a chain that stopped at that I would
    report the non-inductive Σ as found."""
    ts = fin.random_ts("h:6")
    fam = fin.random_closure_family("h:6:L", ts.size, union_closed=True)
    assert fin.run_algorithm2_padon(ts, fam).found is False
    for outside in (ts.size, -1):
        with pytest.raises(ValueError, match=f"state {outside},"):
            fin.run_algorithm2_padon(ts, fam, choose=lambda mask: outside)


def test_algorithm2_rejects_a_pick_that_is_not_a_counterexample():
    """State 1 is in I = Σ but leaves neither I nor P; avoiding it drops the
    only inductive invariant {1}, and the weakening reported none."""
    ts = fin.FiniteTS(3, frozenset({(1, 1)}), init=0b010, safe=0b010)
    fam = fin.ClosureFamily(3, frozenset({0b000, 0b010, 0b110, 0b111}))
    assert fin.greatest_invariant_enum(ts, fam) == fin.run_algorithm2_padon(ts, fam).invariant == 0b010
    with pytest.raises(ValueError, match="state 1,"):
        fin.run_algorithm2_padon(ts, fam, choose=lambda mask: 1)


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
        c = rng.choice(sorted(gi.C.members))
        a_prime = rng.choice(sorted(gi.A.members))
        bca = gi.bca(f)
        start = gi.alpha(c)
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
            for a in gi.A.members
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
    assert g1 == g2


def test_random_generators_produce_valid_instances():
    for k in range(60):
        gi = fin.random_gi(f"valid:{k}")
        assert len(gi.A.members) <= len(gi.C.members) <= 12
        f = fin.random_monotone(f"valid:{k}:f", gi.C)
        assert gi.C.is_monotone(f)
        fam = fin.random_closure_family(f"valid:{k}:L", 6)
        assert (1 << 6) - 1 in fam.members


def test_random_gi_and_monotone_draws_are_pinned():
    """Carriers, abstract families and monotone tables of 200 seeds, as masks.

    Pinned when lattice elements were indices: element k of the carrier is
    its k-th smallest mask.
    """
    digest = hashlib.sha256()
    for k in range(200):
        gi = fin.random_gi(f"pin:{k}")
        f = fin.random_monotone(f"pin:{k}:f", gi.C)
        c = sorted(gi.C.members)
        digest.update(repr((gi.C.size, c, sorted(gi.A.members), [f[m] for m in c])).encode())
    assert digest.hexdigest() == "209c81215fdc5f75751c3183f27954161ec73c6c5560087102993776bb8539e9"


def test_run_suite_interface():
    reports = fin.run_suites("lemma1", seed=1, trials=5)
    assert reports == [{"name": "lemma1", "trials": 5, "failures": 0, "first_failure_seed": None}]
    with pytest.raises(ValueError, match="unknown suite"):
        fin.run_suites("bogus", 0, 1)
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
