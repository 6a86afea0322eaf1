"""The conditional event algebras: present-tense reduction, the product-space
interpretations, independence, tautologies."""
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlcond import (And, Atom, CeaAnd, CeaCond, CeaNeg, CeaOr, CeaSimple,
                    CeaVar, CondObject, FALSE, Iff, Implies, Not, Or, Prev,
                    TRUE, Value3, algebra, brute_joint, brute_pr_n, cea,
                    eval_cea_valuation, canonical_key, compile_cond, embed_ps,
                    minimize, parse_cea, parse_cond, parse_tl, present_indep, pretty,
                    prob_present, prob_ps, product, reduce_present,
                    strong_indep, weak_tautology)
from tlcond.automata import leaf_classes, to_dot
from tlcond.cea import (cond_asymptotic, event_mask, first_machine,
                        lift_defined, present_machine, simple_to_cond)
from tlcond.markov import (Block, ProbAssignment, asymptotic,
                           chain_from_machine, limiting_label_masses,
                           pr_n_ratio, pr_series)
from tlcond.oracle import brute_pr_series
from tlcond.syntax import EventAlgebra, Since, collect_simples, horizon, subformulas
from tlcond.trivalue import ConnectiveId, apply_binary

from corpus import ALG_AB, CORPUS, CORPUS_TEXTS, SKEWED_AB, UNIFORM_AB
from machines import (assert_first_machine_shape, eval_cea_valuation_reference,
                      event_mask_reference, event_text_reference,
                      first_product_machine, leaf_classes_reference,
                      reduce_present_reference,
                      reduce_syntactic_reference,
                      strong_indep_reference, weak_tautology_reference)

F, T, U = Value3.FALSE, Value3.TRUE, Value3.UNDEF

ABC = algebra("a b c")
ABCD = algebra("a b c d")
HALF4 = ProbAssignment.independent(ABCD, {n: Fraction(1, 2) for n in "abcd"})


def _mask(text, alg):
    return event_mask(parse_tl(text, alg), alg)


# ---------------------------------------------------------------------------
# Present-tense reduction


def _random_event_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(names + ["true", "false"])
    op = rng.choice(["not", "and", "or", "->", "<->"])
    if op == "not":
        return f"not ({_random_event_formula(rng, names, depth - 1)})"
    return (f"({_random_event_formula(rng, names, depth - 1)}) {op} "
            f"({_random_event_formula(rng, names, depth - 1)})")


def test_event_mask_matches_one_letter_evaluation():
    from tlcond import Word, eval_tl
    from tlcond.syntax import And, Atom, Const, Iff, Implies, Not, Or, subformulas
    rng = random.Random(7)
    seen = set()
    for _ in range(200):
        f = parse_tl(_random_event_formula(rng, list("abc"), 4), ABC)
        seen |= {type(g) for g in subformulas([f])}
        want = sum(1 << atom for atom in range(ABC.num_atoms)
                   if eval_tl(Word(ABC, (atom,)), 0, f))
        assert event_mask(f, ABC) == want, pretty(f)
    assert seen == {And, Atom, Const, Iff, Implies, Not, Or}


@st.composite
def _algebra_and_event_formula(draw):
    alg = algebra([f"e{i}" for i in range(draw(st.integers(1, 6)))])
    leaves = st.one_of(st.sampled_from([Atom(name) for name in alg.events]),
                       st.just(TRUE), st.just(FALSE))
    return alg, draw(st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Not, sub), *(st.builds(node, sub, sub)
                               for node in (And, Or, Implies, Iff))), max_leaves=8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_algebra_and_event_formula())
def test_event_mask_bits_equal_per_atom_evaluation(case):
    """Every atom's bit, for a lone atom of any index too, is the formula's
    value on the one-letter word of that atom."""
    from tlcond import Word, eval_tl
    alg, f = case
    mask = event_mask(f, alg)
    assert mask >> alg.num_atoms == 0
    for atom in range(alg.num_atoms):
        assert mask >> atom & 1 == eval_tl(Word(alg, (atom,)), 0, f), (pretty(f), atom)


@pytest.mark.parametrize("text", ["Y a", "a S b", "O a", "a and Y b"])
def test_event_mask_rejects_temporal_operators(text):
    with pytest.raises(ValueError):
        event_mask(parse_tl(text, ABC), ABC)


def test_event_mask_error_texts():
    with pytest.raises(ValueError) as err:
        event_mask(parse_tl("a and Y b", ABC), ABC)
    assert str(err.value) == "not a present-tense formula: Prev(child=Atom(name='b'))"
    wide = algebra([f"e{i}" for i in range(17)])
    for f in (Atom("e3"), Or(Atom("e0"), Not(Atom("e16"))), TRUE):
        with pytest.raises(ValueError) as err:
            event_mask(f, wide)
        assert str(err.value) == "17 basic events exceed the limit 16"


def _outcome(fn, *args):
    """A call's value, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text, want", [
    ("not (a and Y b)", (ValueError, "not a present-tense formula: "
                                     "Prev(child=Atom(name='b'))")),
    ("(a -> c) <-> (b or (a S c))", (ValueError, "not a present-tense formula: Since("
                                   "left=Atom(name='a'), right=Atom(name='c'))")),
    ("not not (c and (Y a or b))", (ValueError, "not a present-tense formula: "
                                    "Prev(child=Atom(name='a'))")),
    ("a and (b or not zz)", (KeyError, "\"unknown event: 'zz'\"")),
    ("zz", (KeyError, "\"unknown event: 'zz'\"")),
    ("(zz <-> true) -> zz", (KeyError, "\"unknown event: 'zz'\"")),
])
def test_event_mask_errors_under_connectives_equal_the_reference(text, want):
    f = parse_tl(text)
    assert _outcome(event_mask, f, ABC) == want
    assert _outcome(event_mask_reference, f, ABC) == want


_EVENT_POOL = ("a", "b", "c", "d")


@st.composite
def _formula_over_shared_pieces(draw):
    """An algebra over some of the pool's events (in any order, with extra
    events, and now and then 17 of them) and a conditional built from a
    few shared present-tense pieces, constants, every connective, Y and S."""
    size = draw(st.sampled_from((1, 3, 4, 4, 4, 4)))
    names = draw(st.permutations(_EVENT_POOL))[:size]
    extra = draw(st.sampled_from(((), (), ("e",), ("e", "f"),
                                  tuple(f"x{i}" for i in range(17)))))
    alg = algebra(list(names) + list(extra))
    atoms = st.sampled_from([Atom(name) for name in _EVENT_POOL] + [TRUE, FALSE])
    present = st.recursive(atoms, lambda sub: st.one_of(
        st.builds(Not, sub), *(st.builds(node, sub, sub)
                               for node in (And, Or, Implies, Iff))), max_leaves=4)
    pieces = draw(st.lists(present, min_size=1, max_size=3))
    leaves = st.one_of(st.sampled_from(pieces), atoms)
    formulas = st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Prev, sub),
        *(st.builds(node, sub, sub) for node in (And, Or, Implies, Iff, Since))),
        max_leaves=8)
    return alg, CondObject(draw(formulas), draw(formulas))


def _unknown_events(f, alg):
    return {x.name for x in subformulas([f]) if type(x) is Atom} - set(alg.events)


def _check_against_references(c, alg):
    """``leaf_classes`` and ``event_mask`` of every subformula equal the
    references, values and errors alike.  Two known exceptions in the fault
    order, where a formula has two faults: ``event_mask`` of a formula with
    an unknown event and a ``Y`` or ``S`` may report either, and
    ``leaf_classes`` over two unknown events may name either."""
    got = _outcome(leaf_classes.__wrapped__, c, alg)
    want = _outcome(leaf_classes_reference, c, alg)
    if got != want:
        assert len(_unknown_events(c.num, alg) | _unknown_events(c.den, alg)) > 1
        assert got[0] is want[0] is KeyError
    for f in subformulas([c.num, c.den]):
        got, want = _outcome(event_mask, f, alg), _outcome(event_mask_reference, f, alg)
        if got != want:
            assert _unknown_events(f, alg), pretty(f)
            assert any(type(x) in (Prev, Since) for x in subformulas([f])), pretty(f)
            assert type(got) is type(want) is tuple


def test_leaf_classes_and_event_mask_equal_the_references_on_the_corpus():
    """Every corpus conditional, under several event orders and with extra
    events."""
    for events in ("a b", "b a", "a b c", "c b a d", "x a y b"):
        alg = algebra(events)
        for text in CORPUS_TEXTS:
            _check_against_references(parse_cond(text, alg), alg)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_formula_over_shared_pieces())
def test_leaf_classes_and_event_mask_equal_the_references_on_shared_pieces(case):
    alg, c = case
    _check_against_references(c, alg)


def test_simple_conditional_normal_form():
    yes, no = reduce_present(parse_cea("(a|b)", ALG_AB), ALG_AB, "sac")
    assert yes == _mask("a and b", ALG_AB)
    assert no == _mask("not a and b", ALG_AB)


def test_sac_conjunction_reduction():
    e = parse_cea("(a|b) and (c|d)", ABCD)
    yes, no = reduce_present(e, ABCD, "sac")
    assert yes == _mask("(a and b and c and d) or (a and b and not d) "
                        "or (c and d and not b)", ABCD)
    assert yes | no == _mask("b or d", ABCD)


def test_gnw_conjunction_reduction():
    e = parse_cea("(a|b) and (c|d)", ABCD)
    yes, no = reduce_present(e, ABCD, "gnw")
    assert yes == _mask("a and b and c and d", ABCD)
    assert yes | no == _mask("(not a and b) or (not c and d) "
                             "or (a and b and c and d)", ABCD)


def test_pointwise_and_syntactic_reductions_agree():
    rng = random.Random(31)
    sides = ["a", "b", "c", "d", "a or c", "not b", "b and d", "true"]

    def random_flat(depth):
        if depth == 0 or rng.random() < 0.4:
            return f"({rng.choice(sides)} | {rng.choice(sides)})"
        if rng.random() < 0.25:
            return f"~{random_flat(depth - 1)}"
        op = rng.choice([" and ", " or "])
        return f"({random_flat(depth - 1)}{op}{random_flat(depth - 1)})"

    for _ in range(60):
        e = parse_cea(random_flat(3), ABCD, dialect="flat")
        for which in ("sac", "gnw", "sch"):
            assert reduce_present(e, ABCD, which) == \
                reduce_syntactic_reference(e, ABCD, which)


def test_reconditioning_unsupported_for_sch():
    e = parse_cea("((a|b) | (c|d))", ABCD)
    with pytest.raises(ValueError, match="re-conditioning"):
        reduce_present(e, ABCD, "sch")


@st.composite
def present_expressions(draw):
    """An algebra of 2-6 events, an algebra name and an expression over
    simple conditionals on those events; re-conditioning under sac and gnw."""
    alg = algebra([f"e{i}" for i in range(draw(st.integers(2, 6)))])
    which = draw(st.sampled_from(["sac", "gnw", "sch"]))
    sides = st.recursive(
        st.sampled_from([Atom(x) for x in alg.events] + [TRUE, FALSE]),
        lambda sub: st.one_of(st.builds(Not, sub), st.builds(And, sub, sub),
                              st.builds(Or, sub, sub)), max_leaves=4)
    binary = (CeaAnd, CeaOr) + ((CeaCond,) if which != "sch" else ())
    e = draw(st.recursive(
        st.builds(CeaSimple, sides, sides),
        lambda sub: st.one_of(st.builds(CeaNeg, sub),
                              *(st.builds(node, sub, sub) for node in binary)),
        max_leaves=8))
    return alg, which, e


@settings(max_examples=200, deadline=None, derandomize=True)
@given(present_expressions())
def test_reduction_equals_the_per_atom_reference(case):
    alg, which, e = case
    assert reduce_present(e, alg, which) == reduce_present_reference(e, alg, which)


def test_prob_present_base_case_is_conditional_probability():
    e = parse_cea("(a|b)", ALG_AB)
    assert prob_present(e, UNIFORM_AB, "sac") == Fraction(1, 2)


def test_prob_present_sch_conjunction():
    e = parse_cea("(a|b) and (c|d)", ABCD)
    assert prob_present(e, HALF4, "sch") == Fraction(1, 4)


def test_prob_present_sac_and_gnw_conjunction_values():
    e = parse_cea("(a|b) and (c|d)", ABCD)
    assert prob_present(e, HALF4, "sac") == Fraction(5, 12)
    assert prob_present(e, HALF4, "gnw") == Fraction(1, 8)


def test_prob_present_undefined_when_never_defined():
    e = parse_cea("(a|false)", ALG_AB)
    assert prob_present(e, UNIFORM_AB, "sac") is None


def test_prob_present_agrees_with_machine_pipeline():
    """The event-mass ratio equals the limiting probability of the reduced
    conditional's machine, distribution by distribution."""
    rng = random.Random(41)
    sides = ["a", "b", "c", "a or b", "not c", "b and c"]
    for _ in range(25):
        n_leaves = rng.randint(1, 3)
        leaves = [f"({rng.choice(sides)} | {rng.choice(sides)})"
                  for _ in range(n_leaves)]
        text = leaves[0]
        for leaf in leaves[1:]:
            text = f"({text}{rng.choice([' and ', ' or '])}{leaf})"
        alg = algebra("a b c")
        e = parse_cea(text, alg, dialect="flat")
        weights = [rng.randint(0, 5) for _ in range(alg.num_atoms)]
        if sum(weights) == 0:
            weights[0] = 1
        p = ProbAssignment(alg, tuple(
            Fraction(w, sum(weights)) for w in weights))
        for which in ("sac", "gnw", "sch"):
            direct = prob_present(e, p, which)
            s = reduce_present(e, alg, which)
            c = simple_to_cond(s, alg)
            via_chain = cond_asymptotic(c, p)
            assert direct == via_chain, (text, which)
            # the direct machine minimizes to the compiled one, DOT for DOT
            m = minimize(present_machine(s, alg))
            assert to_dot(m) == to_dot(minimize(compile_cond(c, alg))), (text, which)
            assert asymptotic(chain_from_machine(m, p)) == via_chain, (text, which)


# ---------------------------------------------------------------------------
# Product-space interpretations


def test_first_embedding_of_simple_conditional():
    c = embed_ps(parse_cea("(a|b)", ALG_AB), "first")
    assert c == parse_cond("(O (a and b and not Y O b) | true)", ALG_AB)
    m = minimize(compile_cond(c, ALG_AB))
    assert m.n_states == 3


def test_reverse_embedding_of_conjunction():
    c = embed_ps(parse_cea("(a|b) and (c|d)", ABCD), "reverse")
    want = parse_cond("((not b S (a and b)) and (not d S (c and d)) | true)",
                      ABCD)
    assert c == want


def test_sparse_interpretation_guard():
    c = embed_ps(parse_cea("(false|a)", ALG_AB), "sparse")
    assert c.den == parse_tl("a or not O a", ALG_AB)
    c2 = embed_ps(parse_cea("(a|b) and (c|d)", ABCD), "sparse")
    assert c2.den == parse_tl("(b or not O b) or (d or not O d)", ABCD)


def test_embeddings_reject_reconditioning_and_variables():
    with pytest.raises(ValueError, match="re-conditioning"):
        embed_ps(parse_cea("((a|b) | (c|d))", ABCD), "first")
    with pytest.raises(ValueError, match="variable"):
        embed_ps(parse_cea("p and q", None, dialect="flat"), "first")


def test_independent_conjunction_probability_is_the_product():
    e = parse_cea("(a|b) and (c|d)", ABCD)
    assert prob_ps(e, HALF4) == Fraction(1, 4)


def test_shared_condition_conjunction():
    # both conditionals resolve at the first b; win needs a and c there
    e = parse_cea("(a|b) and (c|b)", ABCD)
    assert prob_ps(e, HALF4) == Fraction(1, 4)


def test_three_interpretations_agree_spot():
    for text in ("(a|b)", "(a|b) and (c|d)", "~(a|b) or (c and d|b or d)"):
        e = parse_cea(text, ABCD, dialect="flat")
        values = {cond_asymptotic(embed_ps(e, w), HALF4)
                  for w in ("first", "reverse", "sparse")}
        assert values == {prob_ps(e, HALF4)}, text


def test_degenerate_conditional_has_probability_zero():
    e = parse_cea("(a|false)", ALG_AB)
    assert prob_ps(e, UNIFORM_AB) == 0
    for which in ("first", "reverse", "sparse"):
        assert cond_asymptotic(embed_ps(e, which), UNIFORM_AB) == 0


def test_interpretations_agree_when_a_condition_is_impossible():
    alg = algebra("a b c")
    p = ProbAssignment.independent(
        alg, {"a": Fraction(1, 2), "b": Fraction(0), "c": Fraction(2, 3)})
    e = parse_cea("(a|b) or (a|c)", alg)
    values = {cond_asymptotic(embed_ps(e, w), p) for w in ("first", "reverse", "sparse")}
    assert values == {prob_ps(e, p)}


# ---------------------------------------------------------------------------
# Independence


def test_disjoint_generators_are_present_independent():
    c1 = parse_cond("(a|b)", ABCD)
    c2 = parse_cond("(c|d)", ABCD)
    ok, checks = present_indep(c1, c2, HALF4)
    assert ok, checks


def test_a_variable_is_not_independent_of_itself():
    c = parse_cond("(a|true)", ALG_AB)
    ok, checks = present_indep(c, c, UNIFORM_AB)
    assert not ok
    assert any(not chk["holds"] for chk in checks)


def test_shifted_copy_present_tense_independent_at_fixed_time():
    c1 = parse_cond("(a|true)", ALG_AB)
    c2 = parse_cond("(Y a|Y true)", ALG_AB)
    ok, _ = present_indep(c1, c2, UNIFORM_AB, n=3)
    assert ok
    strong, witness = strong_indep(c1, c2, UNIFORM_AB)
    assert not strong and witness is not None


def test_both_sides_undefined_convention():
    """At time 1 the delayed copy is undefined almost surely, so two of the
    four equations compare undefined with undefined and count as holding."""
    c1 = parse_cond("(a|true)", ALG_AB)
    c2 = parse_cond("(Y a|Y true)", ALG_AB)
    ok, checks = present_indep(c1, c2, UNIFORM_AB, n=1)
    assert ok
    undefined_eqs = {chk["eq"] for chk in checks
                     if chk["lhs"] is None and chk["rhs"] is None}
    assert undefined_eqs == {"i1", "i3"}


def test_present_independence_matches_the_product_of_machines(monkeypatch):
    """Over every pair of corpus conditionals, under two distributions, at
    n = 1, 2, 5 and in the limit, the verdict and each equation's lhs equal
    those computed from the Sch product of the factors' minimal machines.

    Each equation's machine is compiled for real; a ratio is computed once
    per distribution and minimal machine up to isomorphism, since
    isomorphic machines give equal chains."""
    objects = list(dict.fromkeys([c for _, c in CORPUS]
                                 + [lift_defined(c) for _, c in CORPUS]))
    minimal = {x: minimize(compile_cond(x, ALG_AB)) for x in objects}
    times = (None, 1, 2, 5)
    classes: dict = {}  # canonical key -> isomorphism class number
    class_of: dict = {}  # id of a machine kept alive below -> its class
    solved: dict = {}

    def ratios(m, p) -> dict:
        """The ratio of 1 among defined values at each of ``times``."""
        if id(m) not in class_of:
            class_of[id(m)] = classes.setdefault(canonical_key(m), len(classes))
        key = (class_of[id(m)], id(p))
        if key not in solved:
            ch = chain_from_machine(m, p)
            solved[key] = {None: asymptotic(ch)}
            for n, (p1, p0, _) in enumerate(pr_series(ch, max(times[1:])), 1):
                solved[key][n] = None if p1 + p0 == 0 else p1 / (p1 + p0)
        return solved[key]

    compiled: dict = {}

    def memo_ratio(c, p, n):
        if c not in compiled:
            compiled[c] = minimize(compile_cond(c, p.alg))
        return ratios(compiled[c], p)[n]

    monkeypatch.setattr(cea, "_ratio", memo_ratio)
    index = {x: i for i, x in enumerate(objects)}
    quads = [(c1, c2, (index[c1], index[c2], index[lift_defined(c1)],
                       index[lift_defined(c2)]))
             for _, c1 in CORPUS for _, c2 in CORPUS]
    joint: dict = {}
    for p in (UNIFORM_AB, SKEWED_AB):
        for c1, c2, (i1, i2, j1, j2) in quads:
            pairs = ((i1, i2), (i1, j2), (j1, i2), (j1, j2))
            for x, y in pairs:
                if (x, y) not in joint:
                    joint[x, y] = minimize(product(
                        [minimal[objects[x]], minimal[objects[y]]],
                        lambda v: apply_binary(ConnectiveId.AND_SCH, *v)))
            for n in times:
                lhs = [ratios(joint[x, y], p)[n] for x, y in pairs]
                single = {x: ratios(minimal[objects[x]], p)[n] for x in (i1, i2, j1, j2)}
                rhs = [None if single[x] is None or single[y] is None
                       else single[x] * single[y] for x, y in pairs]
                ok, checks = present_indep(c1, c2, p, n)
                assert [chk["lhs"] for chk in checks] == lhs, (c1, c2, n)
                assert ok == (lhs == rhs), (c1, c2, n)


def test_disjoint_generators_are_strongly_independent():
    c1 = parse_cond("(a|b)", ABCD)
    c2 = parse_cond("(c|d)", ABCD)
    ok, witness = strong_indep(c1, c2, HALF4)
    assert ok, witness


def test_anything_is_strongly_independent_of_a_constant():
    c1 = parse_cond("(a S b | O a)", ALG_AB)
    c2 = parse_cond("(true|true)", ALG_AB)
    assert strong_indep(c1, c2, UNIFORM_AB)[0]


def test_strong_independence_matches_brute_force_sequences():
    """For small minimal machines (m, n states), factorization of the joint
    chain agrees with the defining sequence condition checked out to time
    m*n + 1 by enumeration."""
    cases = [
        ("(a|true)", "(b|true)"),
        ("(a|true)", "(a|true)"),
        ("(a|true)", "(not a|true)"),
        ("(a|true)", "(a and b|true)"),
        ("(true|true)", "(a|b)"),
    ]
    for t1, t2 in cases:
        c1, c2 = parse_cond(t1, ALG_AB), parse_cond(t2, ALG_AB)
        m = minimize(compile_cond(c1, ALG_AB)).n_states
        n = minimize(compile_cond(c2, ALG_AB)).n_states
        horizon = min(m * n + 1, 6)  # enumeration cap
        got, _ = strong_indep(c1, c2, UNIFORM_AB)
        joint = brute_joint(c1, c2, UNIFORM_AB, horizon)
        marg1: dict = {}
        marg2: dict = {}
        for (s1, s2), w in joint.items():
            marg1[s1] = marg1.get(s1, Fraction(0)) + w
            marg2[s2] = marg2.get(s2, Fraction(0)) + w
        factorizes = all(
            joint.get((s1, s2), Fraction(0)) == marg1[s1] * marg2[s2]
            for s1 in marg1 for s2 in marg2)
        assert got == factorizes, (t1, t2)


def test_strong_independence_implies_present_independence():
    rng = random.Random(77)
    pool = ["a", "b", "a and b", "a or b", "not a", "true"]
    strong_seen = 0
    for _ in range(40):
        c1 = parse_cond(f"({rng.choice(pool)} | {rng.choice(pool)})", ALG_AB)
        c2 = parse_cond(f"({rng.choice(pool)} | {rng.choice(pool)})", ALG_AB)
        weights = [rng.randint(0, 5) for _ in range(4)]
        if sum(weights) == 0:
            weights[3] = 1
        p = ProbAssignment(ALG_AB, tuple(
            Fraction(w, sum(weights)) for w in weights))
        if strong_indep(c1, c2, p)[0]:
            strong_seen += 1
            assert present_indep(c1, c2, p)[0]
            for n in (1, 2, 3):
                assert present_indep(c1, c2, p, n)[0]
    assert strong_seen > 0


def test_strong_independence_witnesses_are_exact():
    """A witness names the start or a reachable pair of states, numbered as
    ``minimize`` numbers them, and gives the joint mass and the product of
    the marginals exactly."""
    p = ProbAssignment.independent(ALG_AB, {"a": Fraction(2, 5), "b": Fraction(1, 3)})
    assert strong_indep(parse_cond("(a | true)", ALG_AB),
                        parse_cond("(a S b | true)", ALG_AB), p) == (
        False, "pair (1,1): joint mass of pair (0,0) is 2/5, product is 6/25")
    p = ProbAssignment.independent(
        ABC, {"a": Fraction(2, 5), "b": Fraction(3, 5), "c": Fraction(1, 3)})
    c = parse_cond("(a|b)", ABC)
    assert strong_indep(c, c, p) == (
        False, "start: joint mass of pair (0,0) is 2/5, product is 4/25")
    assert strong_indep(c, parse_cond("(c|true)", ABC), p) == (True, None)


def test_lift_defined():
    c = parse_cond("(a|b)", ALG_AB)
    assert lift_defined(c) == CondObject(parse_tl("b", ALG_AB), TRUE)


# ---------------------------------------------------------------------------
# Weak tautologies


def test_conditional_of_a_thing_on_itself_is_a_weak_tautology():
    e = parse_cea("(p|p)", None)
    for which in ("sac", "gnw"):
        ok, witness = weak_tautology(e, which)
        assert ok and witness is None


def test_bare_variable_is_not_a_weak_tautology():
    e = parse_cea("p", None, dialect="flat")
    ok, witness = weak_tautology(e, "sac")
    assert not ok
    assert witness == {"p": F}


def test_variable_cap_is_enforced():
    e = parse_cea(" and ".join(f"p{i}" for i in range(9)), None, dialect="flat")
    with pytest.raises(ValueError, match="cap"):
        weak_tautology(e, "sac")


def test_excluded_middle_is_weak_only_in_sac():
    e = parse_cea("p or ~p", None, dialect="flat")
    ok_sac, _ = weak_tautology(e, "sac")
    ok_gnw, witness = weak_tautology(e, "gnw")
    assert ok_sac          # undefined side is ignored
    assert ok_gnw          # 0 or 1 -> 1; bottom or bottom -> bottom
    e2 = parse_cea("p or q", None, dialect="flat")
    assert not weak_tautology(e2, "sac")[0]


def _variable_expressions(names):
    return st.recursive(
        st.sampled_from([CeaVar(x) for x in names]),
        lambda sub: st.one_of(st.builds(CeaNeg, sub),
                              *(st.builds(node, sub, sub)
                                for node in (CeaAnd, CeaOr, CeaCond))),
        max_leaves=10)


@st.composite
def variable_expressions(draw):
    """An expression over 1-9 variables, an algebra name and a valuation."""
    names = [f"p{i}" for i in range(draw(st.integers(1, 9)))]
    valuation = {x: draw(st.sampled_from([F, T, U])) for x in names}
    which = draw(st.sampled_from(["sac", "gnw"]))
    return draw(_variable_expressions(names)), which, valuation


@settings(max_examples=300, deadline=None, derandomize=True)
@given(variable_expressions())
def test_tautology_and_valuation_equal_the_per_valuation_reference(case):
    e, which, valuation = case
    assert weak_tautology(e, which, variable_cap=9) == \
        weak_tautology_reference(e, which, variable_cap=9)
    assert eval_cea_valuation(e, valuation, which) is \
        eval_cea_valuation_reference(e, valuation, which)


NINE = [f"p{i}" for i in range(9)]


@st.composite
def late_counterexamples(draw):
    """Expressions over nine variables that are never false while p0 is 0,
    so their first counterexample, if any, lies past the first 3^8
    valuations (those with p0 = 0)."""
    every = CeaVar(NINE[0])
    for x in NINE[1:]:  # all nine occur; (x | x) is never 0
        every = CeaAnd(every, CeaCond(CeaVar(x), CeaVar(x)))
    rest = draw(_variable_expressions(NINE))
    p0 = CeaVar("p0")
    e = draw(st.sampled_from([CeaOr(CeaNeg(p0), CeaAnd(every, rest)),
                              CeaCond(CeaAnd(every, rest), p0)]))
    return e, draw(st.sampled_from(["sac", "gnw"]))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(late_counterexamples())
def test_tautology_counterexamples_past_the_first_pass(case):
    e, which = case
    got = weak_tautology(e, which, variable_cap=9)
    assert got == weak_tautology_reference(e, which, variable_cap=9)
    ok, witness = got
    assert ok or witness["p0"] is not F


def test_tautology_witness_is_the_first_in_valuation_order():
    # under gnw false only when p0 and p9 are 1 and p1 .. p8 are 0: the
    # fourth pass over the last eight variables (p0 = 1, p1 = 0)
    names = [f"p{i}" for i in range(10)]
    e = parse_cea("~(p0 and p9)" + "".join(f" or {x}" for x in names[1:9]),
                  None, dialect="flat")
    ok, witness = weak_tautology(e, "gnw", variable_cap=10)
    assert not ok and list(witness) == names
    assert witness == {**dict.fromkeys(names[1:9], F), "p0": T, "p9": T}


# ---------------------------------------------------------------------------
# Helpers


def test_simple_to_cond_round_trip():
    s = reduce_present(parse_cea("(a|b)", ALG_AB), ALG_AB, "sac")
    c = simple_to_cond(s, ALG_AB)
    s2 = reduce_present(parse_cea(f"({pretty(c.num)} | {pretty(c.den)})",
                                  ALG_AB), ALG_AB, "sac")
    assert s == s2


def test_collect_simples_order():
    e = parse_cea("(a|b) and ~((c|d) or (a|d))", ABCD, dialect="flat")
    pairs = [(pretty(s.num_event), pretty(s.den_event))
             for s in collect_simples(e)]
    assert pairs == [("a", "b"), ("c", "d"), ("a", "d")]


def test_first_machine_component_count_and_asymptotic_path():
    e = parse_cea("(a|b) and (c|d)", ABCD)
    assert_first_machine_shape(first_machine(e, ABCD), 2)
    c = embed_ps(e, "first")
    assert cond_asymptotic(c, HALF4) == Fraction(1, 4)


def test_reverse_conjunction_machine_shape():
    """The reverse interpretation of a conjunction only needs the pair of
    most-recent values: four states, one labeled 1."""
    e = parse_cea("(a|b) and (c|d)", ABCD)
    m = minimize(compile_cond(embed_ps(e, "reverse"), ABCD))
    assert m.n_states == 4
    assert sorted(v.symbol for v in m.labels) == ["0", "0", "0", "1"]


def test_sparse_conjunction_machine_shape():
    """The sparse interpretation adds a waiting part (some condition never
    seen: five states, all false) and, once both conditions have occurred,
    an undefined twin for each value pair."""
    e = parse_cea("(a|b) and (c|d)", ABCD)
    m = minimize(compile_cond(embed_ps(e, "sparse"), ABCD))
    assert m.n_states == 13
    from collections import Counter
    assert Counter(v.symbol for v in m.labels) == {"0": 8, "1": 1, "⊥": 4}


def test_sparse_interpretation_is_not_an_embedding():
    """(never|a) and (never|b) are one conditional in the product space, and
    indeed their first interpretations coincide; their sparse interpretations
    are different objects (only probabilities agree)."""
    from tlcond import isomorphic
    ab = algebra("a b")
    p = ProbAssignment.independent(ab, {"a": Fraction(1, 2), "b": Fraction(1, 3)})

    def machine(text, which):
        return minimize(compile_cond(
            embed_ps(parse_cea(text, ab, dialect="flat"), which), ab))

    assert isomorphic(machine("(false|a)", "first"), machine("(false|b)", "first"))
    assert not isomorphic(machine("(false|a)", "sparse"), machine("(false|b)", "sparse"))
    for text in ("(false|a)", "(false|b)"):
        assert prob_ps(parse_cea(text, ab), p) == 0
        for which in ("first", "reverse", "sparse"):
            assert cond_asymptotic(embed_ps(parse_cea(text, ab), which), p) == 0


def test_monolithic_and_product_pipelines_agree():
    """Compiling the whole first-interpretation formula and taking the
    product of per-conditional machines give the same minimal machine."""
    from tlcond import isomorphic
    for text in ("(a|b) and (c|d)", "~(a|b) or (c|b)", "(a or c|b) and ~(d|c)"):
        e = parse_cea(text, ABCD, dialect="flat")
        via_formula = minimize(compile_cond(embed_ps(e, "first"), ABCD))
        via_product = minimize(first_product_machine(e, ABCD))
        assert isomorphic(via_formula, via_product), text


# ---------------------------------------------------------------------------
# Compositional product-space solve


POOL = algebra("e0 e1 e2 e3 e4 e5")
MARGINALS = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 5),
             Fraction(1, 2), Fraction(3, 4))


# leaves read one of these pairs; the first three and the last three pairs
# of each half of the pool never meet, the two others cross between halves
PAIRS = (("e0", "e1"), ("e1", "e2"), ("e2", "e0"), ("e2", "e3"),
         ("e3", "e4"), ("e4", "e5"), ("e5", "e3"), ("e5", "e0"))


@st.composite
def flat_expressions(draw):
    """1-5 leaves over the six-event pool joined by and/or, ~ sprinkled in.
    Leaves are joined in the order of their pairs, so that subtrees over
    one half of the pool are common: some leaves share events and some do
    not.  In a shuffled order, leaves that share events are often apart,
    so that runs of and/or are regrouped."""
    def side(x, y):
        return draw(st.sampled_from([x, y, f"{x} and {y}", f"{x} or {y}",
                                     f"not {x}", "true"]))

    def maybe_negated(text):
        return f"~{text}" if draw(st.integers(0, 2)) == 0 else text

    pairs = sorted(draw(st.integers(0, len(PAIRS) - 1))
                   for _ in range(draw(st.integers(1, 5))))
    parts = [maybe_negated(f"({side(*PAIRS[i])} | {side(*reversed(PAIRS[i]))})")
             for i in pairs]
    if draw(st.booleans()):
        parts = draw(st.permutations(parts))
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        op = draw(st.sampled_from(["and", "or"]))
        parts[i:i + 2] = [maybe_negated(f"({parts[i]} {op} {parts[i + 1]})")]
    return parse_cea(parts[0], POOL, dialect="flat")


def _weights(draw, n, top):
    w = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    if not sum(w):
        w[0] = 1
    return tuple(Fraction(x, sum(w)) for x in w)


@st.composite
def pool_distributions(draw):
    """Per-event marginals (0 and 1 included), a two-event table block times
    independent events, or one flat table."""
    kind = draw(st.sampled_from(["independent", "pair", "table"]))
    if kind == "table":
        return ProbAssignment(POOL, _weights(draw, POOL.num_atoms, 3))
    marginals = {e: draw(st.sampled_from(MARGINALS)) for e in POOL.events}
    if kind == "independent":
        return ProbAssignment.independent(POOL, marginals)
    pair = tuple(draw(st.permutations(POOL.events))[:2])
    blocks = [Block(pair, _weights(draw, 4, 4))] + [
        Block((e,), (1 - marginals[e], marginals[e]))
        for e in POOL.events if e not in pair]
    return ProbAssignment(POOL, blocks=tuple(draw(st.permutations(blocks))))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(flat_expressions(), pool_distributions())
def test_compositional_prob_ps_equals_the_monolithic_solve(e, p):
    got = prob_ps(e, p)
    for which in ("first", "reverse", "sparse"):
        assert got == cond_asymptotic(embed_ps(e, which), p), (pretty(e), which)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(flat_expressions(), pool_distributions())
def test_a_negation_is_one_minus_what_it_negates(e, p):
    got = prob_ps(CeaNeg(e), p)
    assert got == 1 - prob_ps(e, p), pretty(e)
    for which in ("first", "reverse", "sparse"):
        assert got == cond_asymptotic(embed_ps(CeaNeg(e), which), p), (pretty(e), which)


LEAF_SIDES = ("a", "b", "a and b", "a or c", "not b", "b and not b", "true", "false")


@st.composite
def leaves_and_distributions(draw):
    """A simple conditional over three events, its sides possibly constant
    or equal, under per-event marginals in {0, 1/3, 1/2, 1} or an atom table
    with zero atoms."""
    num = draw(st.sampled_from(LEAF_SIDES))
    den = num if draw(st.booleans()) else draw(st.sampled_from(LEAF_SIDES))
    if draw(st.booleans()):
        p = ProbAssignment(ABC, _weights(draw, ABC.num_atoms, 2))
    else:
        p = ProbAssignment.independent(ABC, {e: draw(st.sampled_from(
            (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))))
            for e in ABC.events})
    return parse_cea(f"({num} | {den})", ABC), p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(leaves_and_distributions())
def test_leaf_limits_in_closed_form_equal_the_compiled_ones(case):
    x, p = case
    got = Fraction(*cea._piece(x, (1 << len(p.blocks)) - 1, p))
    for which in ("first", "reverse", "sparse"):
        assert got == cond_asymptotic(embed_ps(x, which), p), (pretty(x), which)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(flat_expressions(), pool_distributions())
def test_sparse_masses_are_the_reverse_limit_times_the_guard(e, p):
    """Under ``sparse``, lim Pr(num and no guard holds) = v g, where v is the
    numerator's (the ``reverse``) limit and g the undefined mass: the
    identity that lets :func:`prob_ps` carry one number per piece."""
    v = cond_asymptotic(embed_ps(e, "reverse"), p)
    m = minimize(compile_cond(embed_ps(e, "sparse"), p.alg))
    masses = limiting_label_masses(chain_from_machine(m, p))
    assert masses[U] != 1, pretty(e)
    assert masses[T] == v * (1 - masses[U]), pretty(e)


# ---------------------------------------------------------------------------
# Finite-horizon limits


@st.composite
def bounded_past(draw, alg, depth, size=4):
    """A formula over ``alg``'s events with ``Y`` nested at most ``depth``
    deep and no ``S``."""
    leaves = [Atom(x) for x in alg.events] + [TRUE, FALSE]
    kinds = ["leaf", "not", "and", "or", "->", "<->", "Y", "Y"] if size else ["leaf"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf" or (kind == "Y" and not depth):
        return draw(st.sampled_from(leaves))
    if kind == "Y":
        return Prev(draw(bounded_past(alg, depth - 1, size - 1)))
    if kind == "not":
        return Not(draw(bounded_past(alg, depth, size - 1)))
    node = {"and": And, "or": Or, "->": Implies, "<->": Iff}[kind]
    return node(draw(bounded_past(alg, depth, size - 1)),
                draw(bounded_past(alg, depth, size - 1)))


@st.composite
def conditionals_and_tables(draw, depth):
    """A conditional of ``Y``-depth at most ``depth`` over 2 or 3 events and
    an atom table with zero atoms allowed."""
    alg = algebra("a b c"[:2 * draw(st.integers(2, 3)) - 1])
    c = CondObject(draw(bounded_past(alg, depth)), draw(bounded_past(alg, depth)))
    return c, ProbAssignment(alg, _weights(draw, alg.num_atoms, 3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(conditionals_and_tables(3))
def test_a_finite_horizon_limit_is_the_ratio_at_time_d_plus_one(case):
    """Without S, the limit taken at time d+1 on the raw chain equals the
    exact solve on the minimized chain and the brute-force ratio at d+1,
    and the series is constant from d+1 on."""
    c, p = case
    d = horizon(c)
    got = cond_asymptotic(c, p)
    assert got == asymptotic(chain_from_machine(minimize(compile_cond(c, p.alg)), p))
    p1, p0, _ = brute_pr_n(c, p, d + 1)
    assert got == (p1 / (p1 + p0) if p1 + p0 else None)
    rows = list(pr_series(chain_from_machine(compile_cond(c, p.alg), p), d + 3))
    assert rows[d] == rows[d + 1] == rows[d + 2]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(conditionals_and_tables(2))
def test_the_backward_walk_equals_the_compiled_chain_and_brute_force(case):
    """At every time up to d+2 and in the limit, the ratio the backward
    walk over formulas takes equals the one the raw compiled chain gives
    when stepped, and the brute-force one."""
    c, p = case
    d = horizon(c)
    chain = chain_from_machine(compile_cond(c, p.alg), p)
    brute = brute_pr_series(c, p, d + 2)
    for n in range(1, d + 3):
        p1, p0, _ = brute[n - 1]
        want = pr_n_ratio(chain, n)
        assert want == (p1 / (p1 + p0) if p1 + p0 else None), (pretty(c), n)
        assert cea._ratio(c, p, n) == want, (pretty(c), n)
    assert cea._ratio(c, p, None) == pr_n_ratio(chain, d + 1), pretty(c)


@st.composite
def strong_indep_cases(draw):
    """Two conditionals and a distribution: a ``conditionals_and_tables``
    draw and a second conditional over its algebra; two corpus
    conditionals; or, over ``a b c``, a corpus conditional, which ignores
    c, and a drawn one.  The atom tables of the last two have weights up to
    1 or 3, so that joint letter classes without mass are common."""
    kind = draw(st.sampled_from(["drawn", "corpus", "ignores c"]))
    if kind == "drawn":
        c1, p = draw(conditionals_and_tables(2))
        return c1, CondObject(draw(bounded_past(p.alg, 2)),
                              draw(bounded_past(p.alg, 2))), p
    alg = ALG_AB if kind == "corpus" else ABC
    c1 = parse_cond(draw(st.sampled_from(CORPUS_TEXTS)), alg)
    c2 = (parse_cond(draw(st.sampled_from(CORPUS_TEXTS)), alg) if kind == "corpus"
          else CondObject(draw(bounded_past(alg, 2)), draw(bounded_past(alg, 2))))
    if draw(st.booleans()):
        c1, c2 = c2, c1
    top = draw(st.sampled_from([1, 3]))
    return c1, c2, ProbAssignment(alg, _weights(draw, alg.num_atoms, top))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(strong_indep_cases())
def test_strong_independence_equals_the_fraction_reference(case):
    """The integer check gives the verdict and the witness text of the
    ``Fraction``-dict reference."""
    c1, c2, p = case
    assert strong_indep(c1, c2, p) == strong_indep_reference(c1, c2, p), (
        pretty(c1), pretty(c2))


def test_deep_conditionals_without_since_answer():
    a = algebra("a")
    p = ProbAssignment.independent(a, {"a": Fraction(2, 7)})
    ys = "Y " * 2_000
    assert cond_asymptotic(parse_cond(f"({ys}a | {ys}true)", a), p) == Fraction(2, 7)
    # at time 2000, Y^2000 a reads back past time 1: false
    assert cea._ratio(parse_cond(f"({ys}a | true)", a), p, 2_000) == 0
    c = parse_cond("(" + "not " * 10_000 + "Y a | Y true)", a)
    assert cond_asymptotic(c, p) == Fraction(2, 7)
    with pytest.raises(ValueError, match="time index starts at 1"):
        cea._ratio(c, p, 0)


def test_a_deep_chain_of_y_takes_no_compile_and_no_chain(monkeypatch):
    monkeypatch.setattr(cea, "compile_cond", None)
    monkeypatch.setattr(cea, "chain_from_machine", None)
    ab = algebra("a b")
    p = ProbAssignment.independent(ab, {"a": Fraction(2, 5), "b": Fraction(3, 5)})
    c = parse_cond(f"({'Y ' * 60}a and {'Y ' * 30}b | {'Y ' * 60}true)", ab)
    assert cond_asymptotic(c, p) == Fraction(6, 25)


def test_a_step_that_reads_no_leaf_rewrites_each_residual_once(monkeypatch):
    """Over four live letter classes, the backward walk of
    (Y^3 a or Y^3 b | Y^3 true) rewrites the one residual once at each of
    times 4, 3 and 2, where it reads no leaf, and once per class at time 1."""
    calls = []
    earlier = cea._earlier

    def counted(f, *rest):
        calls.append(f)
        return earlier(f, *rest)

    monkeypatch.setattr(cea, "_earlier", counted)
    ab = algebra("a b")
    p = ProbAssignment.independent(ab, {"a": Fraction(2, 5), "b": Fraction(1, 3)})
    c = parse_cond("(Y Y Y a or Y Y Y b | Y Y Y true)", ab)
    assert cond_asymptotic(c, p) == 1 - Fraction(3, 5) * Fraction(2, 3)
    want = {"Y Y Y a or Y Y Y b": 1, "Y Y a or Y Y b": 1, "Y a or Y b": 1,
            "a or b": 4, "Y Y Y true": 1, "Y Y true": 1, "Y true": 1, "true": 4}
    assert {pretty(f): n for f, n in Counter(calls).items()} == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(conditionals_and_tables(0))
def test_the_solved_present_tense_limit_is_the_bayes_ratio(case):
    """The exact solve on the minimized chain, which present-tense
    conditionals no longer take, still gives Pr(num and den) / Pr den."""
    c, p = case
    num, den = event_mask(c.num, p.alg), event_mask(c.den, p.alg)
    pd = p.of_event(den)
    want = p.of_event(num & den) / pd if pd else None
    assert asymptotic(chain_from_machine(minimize(compile_cond(c, p.alg)), p)) == want
    assert cond_asymptotic(c, p) == want


def test_disjoint_conjunction_of_ten_is_solved_without_the_atom_table():
    names = [f"{s}{i}" for i in range(1, 11) for s in "ab"]
    marginals = {f"a{i}": Fraction(1, i + 1) for i in range(1, 11)}
    marginals.update({f"b{i}": Fraction(1, 2) for i in range(1, 11)})
    p = ProbAssignment.from_text(
        f"events: {' '.join(names)}\nindependent: "
        + " ".join(f"{n}={marginals[n]}" for n in names))
    e = parse_cea(" and ".join(f"(a{i}|b{i})" for i in range(1, 11)), p.alg)
    want = Fraction(1)
    for i in range(1, 11):
        want *= marginals[f"a{i}"]
    assert prob_ps(e, p) == want == Fraction(1, 39916800)
    assert "mass" not in vars(p)  # the 4^10-atom table was never built


def test_a_piece_touching_more_than_a_table_holds_fails_with_the_limit():
    # the shared event b ties 17 events into one piece
    alg = EventAlgebra(tuple(f"a{i}" for i in range(16)) + ("b",))
    p = ProbAssignment.independent(alg, {n: Fraction(1, 2) for n in alg.events})
    e = parse_cea(" and ".join(f"(a{i}|b)" for i in range(16)), alg)
    with pytest.raises(ValueError, match="17 basic events exceed the limit 16"):
        prob_ps(e, p)


def test_shared_events_are_solved_as_one_piece(monkeypatch):
    from tlcond import automata
    calls, compiled = [], []
    compile_ = automata.compile_cond
    # the spy sits where the memoized minimal_machine looks compile_cond up
    monkeypatch.setattr(automata, "compile_cond",
                        lambda c, alg: calls.append(alg.events)
                        or compiled.append(c) or compile_(c, alg))
    # ((A and B) and C) with A and C sharing b and B and C sharing d: the
    # root is one piece, although A and B are disjoint
    e = parse_cea("((a|b) and (c|d)) and (d|b)", ABCD)
    assert prob_ps(e, HALF4) == Fraction(1, 8)
    assert calls == [ABCD.events]
    # a piece is solved on its reverse embedding; a negated piece is
    # compiled without its negation and taken as 1 - x
    assert compiled == [embed_ps(e, "reverse")]
    calls.clear()
    # the un-negated piece's machine is kept, so the negation compiles nothing
    assert prob_ps(CeaNeg(e), HALF4) == Fraction(7, 8)
    assert calls == []
    automata.minimal_machine.cache_clear()
    assert prob_ps(CeaNeg(e), HALF4) == Fraction(7, 8)
    assert calls == [ABCD.events]
    assert compiled[-1] == embed_ps(e, "reverse")
    calls.clear()
    # leaves alone in their component take their limits in closed form
    e = parse_cea("~((a|b) or (c|d))", ABCD)
    assert prob_ps(e, HALF4) == Fraction(1, 4)
    assert calls == []
    # the and-run is regrouped: A and C share a and are one piece, B splits off
    abcde = algebra("a b c d e")
    half5 = ProbAssignment.independent(abcde, {n: Fraction(1, 2) for n in "abcde"})
    e = parse_cea("((a|b) and (c|d)) and (a|e)", abcde)
    calls.clear()
    assert prob_ps(e, half5) == Fraction(1, 6)
    assert calls == [("a", "b", "e")]


# each side of a disjoint leaf over its own events a and b: its text and its
# truth value on the letter (a, b)
NUM_SIDES = {"{a}": lambda a, b: a, "{a} and {b}": lambda a, b: a and b,
             "{a} or {b}": lambda a, b: a or b, "not {a}": lambda a, b: not a,
             "true": lambda a, b: True, "false": lambda a, b: False}
DEN_SIDES = {"{b}": lambda a, b: b, "{a} or {b}": lambda a, b: a or b,
             "not {b}": lambda a, b: not b, "{b} and not {a}": lambda a, b: b and not a,
             "true": lambda a, b: True, "false": lambda a, b: False}
WIDE_MARGINALS = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 2),
                  Fraction(2, 5), Fraction(3, 4))


def _leaf_reference(num, den, pa, pb) -> Fraction:
    """Pr(num and den) / Pr den over the four letters of two independent
    events, or 0 when Pr den = 0."""
    both = given_den = Fraction(0)
    for a in (False, True):
        for b in (False, True):
            w = (pa if a else 1 - pa) * (pb if b else 1 - pb)
            if den(a, b):
                given_den += w
                both += w if num(a, b) else 0
    return both / given_den if given_den else Fraction(0)


@st.composite
def wide_disjoint_trees(draw):
    """6-12 leaves, leaf i over its own events ai and bi, joined by and/or
    with ~ sprinkled in, over an ``independent:`` line of 12-24 events with
    0 and 1 marginals; one leaf's b has probability 0.  Returns the
    distribution text, the expression text and the product-law value,
    worked out from the marginals alone."""
    n = draw(st.integers(6, 12))
    dead = draw(st.integers(0, n - 1))
    marginals, parts = {}, []
    for i in range(n):
        pa, pb = draw(st.sampled_from(WIDE_MARGINALS)), draw(st.sampled_from(WIDE_MARGINALS))
        num = draw(st.sampled_from(sorted(NUM_SIDES)))
        den = "{b}" if i == dead else draw(st.sampled_from(sorted(DEN_SIDES)))
        if i == dead:
            pb = Fraction(0)
        marginals[f"a{i}"], marginals[f"b{i}"] = pa, pb
        text = f"({num} | {den})".format(a=f"a{i}", b=f"b{i}")
        parts.append((text, _leaf_reference(NUM_SIDES[num], DEN_SIDES[den], pa, pb)))

    def maybe_negated(part):
        text, value = part
        return (f"~{text}", 1 - value) if draw(st.integers(0, 2)) == 0 else part

    parts = [maybe_negated(part) for part in draw(st.permutations(parts))]
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        (x, vx), (y, vy) = parts[i:i + 2]
        if draw(st.booleans()):
            joined = (f"({x} and {y})", vx * vy)
        else:
            joined = (f"({x} or {y})", 1 - (1 - vx) * (1 - vy))
        parts[i:i + 2] = [maybe_negated(joined)]
    dist = (f"events: {' '.join(marginals)}\nindependent: "
            + " ".join(f"{k}={v}" for k, v in marginals.items()))
    return dist, parts[0][0], parts[0][1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_disjoint_trees())
def test_disjoint_trees_past_the_atom_table_follow_the_product_law(case):
    dist, text, want = case
    p = ProbAssignment.from_text(dist)
    assert 12 <= len(p.alg.events) <= 24
    assert prob_ps(parse_cea(text, p.alg), p) == want, text
    # no flat table of the distribution was built, nor its masses
    assert "weights" not in vars(p) and "mass" not in vars(p)


RECONDITIONING = "the product-space algebra has no re-conditioning"
VARIABLE_LEAVES = "expression has variable leaves; events required"


def test_prob_ps_names_re_conditioning_before_variable_leaves():
    simple = parse_cea("(a|b)", ALG_AB)
    cond, var = CeaCond(simple, simple), CeaVar("x")
    cases = [(cond, RECONDITIONING), (CeaNeg(cond), RECONDITIONING),
             (CeaAnd(simple, var), VARIABLE_LEAVES), (CeaNeg(var), VARIABLE_LEAVES),
             (var, VARIABLE_LEAVES),
             # both: re-conditioning is named first, wherever either stands
             (CeaAnd(var, cond), RECONDITIONING), (CeaOr(cond, var), RECONDITIONING),
             (CeaCond(var, simple), RECONDITIONING),
             (CeaOr(CeaNeg(var), CeaAnd(simple, CeaCond(simple, var))), RECONDITIONING)]
    for e, message in cases:
        with pytest.raises(ValueError) as info:
            prob_ps(e, UNIFORM_AB)
        assert str(info.value) == message, pretty(e)


# ---------------------------------------------------------------------------
# Memoized distribution-free stages


def _assert_kept_machines_equal_fresh_ones(c, algs):
    """``minimal_machine`` equals a fresh ``minimize(compile_cond(...))``
    field for field on a miss and on a hit, and keeps one entry per event
    order."""
    from tlcond.automata import minimal_machine
    minimal_machine.cache_clear()  # hypothesis may draw one conditional twice
    kept = []
    for alg in algs:
        fresh = minimize(compile_cond(c, alg))
        before = minimal_machine.cache_info()
        miss = minimal_machine(c, alg)
        hit = minimal_machine(c, alg)
        after = minimal_machine.cache_info()
        assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
        assert hit is miss
        assert vars(miss) == vars(fresh)
        assert miss.alg == alg
        kept.append(miss)
    assert len({id(m) for m in kept}) == len(algs)


@pytest.mark.parametrize("text,c", CORPUS)
def test_the_kept_machine_of_a_corpus_conditional_is_a_fresh_one(text, c):
    _assert_kept_machines_equal_fresh_ones(
        c, [ALG_AB, algebra("b a"), ABC])


@pytest.mark.parametrize("text,c", CORPUS)
def test_the_kept_label_of_a_corpus_machine_is_a_fresh_one(text, c, monkeypatch):
    """``to_dot`` of a corpus machine prints the text of labels worked out
    afresh with the label memo cold, warm and cleared, and a copy with its
    events renamed, whose kept machine is shared, prints its own names."""
    from tlcond import automata
    names = {"a": "x", "b": "y", "c": "z"}

    def rename(text):
        return re.sub(r"\b[abc]\b", lambda m: names[m.group()], text)

    for alg in (ALG_AB, algebra("b a"), ABC):
        renamed_alg = algebra([names[e] for e in alg.events])
        cases = [(c, alg), (parse_cond(rename(text), renamed_alg), renamed_alg)]
        with monkeypatch.context() as patch:
            patch.setattr(automata, "event_text", event_text_reference)
            fresh = [to_dot(automata.minimal_machine(*case)) for case in cases]
        assert fresh[1] == rename(fresh[0])  # the same labels over x, y, z
        automata.event_text.cache_clear()
        for _ in range(2):  # cold, then warm; no copy hits the other's labels
            assert [to_dot(automata.minimal_machine(*case)) for case in cases] == fresh
        automata.event_text.cache_clear()
        assert [to_dot(automata.minimal_machine(*case)) for case in reversed(cases)] \
            == fresh[::-1]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(conditionals_and_tables(2))
def test_the_kept_machine_of_a_drawn_conditional_is_a_fresh_one(case):
    c, p = case
    events = p.alg.events
    _assert_kept_machines_equal_fresh_ones(
        c, [p.alg, algebra(events[::-1]), algebra(events + ("z",))])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(present_expressions())
def test_the_kept_present_value_is_a_fresh_one(case):
    """``reduce_present`` equals an un-memoized ``eval_sets`` on a miss and
    on a hit under each algebra and event order, and a failure, kept by
    nothing, raises again."""
    from tlcond import trivalue
    alg, _, e = case
    for events in (alg.events, alg.events[::-1], alg.events + ("z",)):
        over = algebra(events)
        for which in ("sac", "gnw", "sch"):
            try:
                want = trivalue.eval_sets(e, which, over.full_event,
                                          lambda s: cea._leaf(s, over))
            except ValueError as exc:
                for _ in range(2):
                    with pytest.raises(ValueError) as info:
                        reduce_present(e, over, which)
                    assert str(info.value) == str(exc)
                continue
            assert reduce_present(e, over, which) == want
            hits = reduce_present.cache_info().hits
            assert reduce_present(e, over, which) == want
            assert reduce_present.cache_info().hits == hits + 1


@pytest.mark.parametrize("text", CORPUS_TEXTS)
def test_a_kept_leaf_classes_entry_is_a_fresh_one_and_stays_unchanged(text, capsys):
    """``leaf_classes`` equals an un-memoized call, and the stages that read
    the entry leave it as it was: a compiled machine's classes are a list of
    its own."""
    from tlcond import cli
    from tlcond.automata import leaf_classes
    alg = algebra(sorted(cli._idents_of(text)))  # the events as cmd_machine orders them
    c = parse_cond(text, alg)
    kept = leaf_classes(c, alg)
    assert kept == leaf_classes.__wrapped__(c, alg)
    raw = compile_cond(c, alg)
    assert raw.classes == list(kept[2])
    raw.classes.reverse()
    chain_from_machine(minimize(compile_cond(c, alg)), cli._half(alg.events))
    hits = leaf_classes.cache_info().hits
    assert cli.main(["machine", "--expr", text, "--minimize"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    assert leaf_classes.cache_info().hits == hits + 1
    assert leaf_classes(c, alg) is kept
    assert kept == leaf_classes.__wrapped__(c, alg)


def test_the_memos_keep_at_most_128_entries():
    """300 conditionals of 300 shapes (``not`` taken i times), so that the
    machines kept per shape fill up as well as every memo's keys."""
    from tlcond import automata, cli
    from tlcond.automata import leaf_classes, minimal_machine
    for i in range(300):
        alg = algebra(f"x{i} y")
        c = parse_cond(f"(({'not ' * i}x{i}) S y | true)", alg)
        minimal_machine(c, alg)
        reduce_present(parse_cea(f"(x{i}|y)", alg), alg, "sac")
        cli._parse_expr("tl", f"(x{i} | y)", alg)
    for memo in (leaf_classes, minimal_machine, reduce_present, cli._parse_expr):
        assert memo.cache_info().currsize == 128
    assert len(automata._SHAPES) == 128


# names a drawn conditional's events are renamed to: a, b and c may trade
# places, and "_0" and "_1" are spelled like positions
RENAMES = ("a", "b", "c", "p", "q", "_0", "_1", "x9")


@st.composite
def renamed_conditionals(draw):
    """A drawn conditional, ``S`` put over it half of the time, its
    algebra, an injective renaming of the events and an order of them."""
    c, p = draw(conditionals_and_tables(2))
    if draw(st.booleans()):
        c = CondObject(Since(c.num, Not(c.den)), Since(TRUE, c.den))
    events = p.alg.events
    names = draw(st.lists(st.sampled_from(RENAMES), min_size=len(events),
                          max_size=len(events), unique=True))
    return c, p.alg, dict(zip(events, names)), draw(st.permutations(events))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(renamed_conditionals())
def test_a_renamed_or_reordered_conditional_gets_a_fresh_machine(case):
    """The kept machine equals a fresh ``minimize(compile_cond(...))`` field
    for field, algebra included, and prints the same DOT text: on a miss,
    on a copy with its events renamed (a hit on the kept shape), and under
    another event order (another shape)."""
    from tlcond import automata
    from tlcond.automata import minimal_machine
    c, alg, names, order = case
    minimal_machine.cache_clear()  # hypothesis may draw one conditional twice
    text = re.sub(r"[A-Za-z_][A-Za-z0-9_]*", lambda m: names.get(m[0], m[0]), pretty(c))
    renamed_alg = algebra([names[e] for e in alg.events])
    cases = [(c, alg), (parse_cond(text, renamed_alg), renamed_alg), (c, algebra(order))]
    for i, (x, over) in enumerate(cases):
        kept, fresh = minimal_machine(x, over), minimize(compile_cond(x, over))
        assert vars(kept) == vars(fresh)
        assert kept.alg == over
        assert to_dot(kept) == to_dot(fresh)
        if i == 1:
            assert len(automata._SHAPES) == 1


def test_a_renamed_copy_compiles_nothing_and_another_order_compiles_once(monkeypatch):
    from tlcond import automata
    from tlcond.automata import minimal_machine
    calls = []
    for name in ("compile_cond", "minimize"):  # the spies sit where minimal_machine looks
        monkeypatch.setattr(automata, name, lambda *args, name=name,
                            stage=getattr(automata, name): calls.append(name) or stage(*args))
    ab, xy = algebra("a b"), algebra("x y")
    c = parse_cond("((not b) S (a and b) | O b)", ab)
    m = minimal_machine(c, ab)
    assert calls == ["compile_cond", "minimize"]
    renamed = parse_cond("((not y) S (x and y) | O y)", xy)
    m2 = minimal_machine(renamed, xy)
    assert calls == ["compile_cond", "minimize"]
    assert m2.alg == xy and (m2.initial, m2.labels, m2.delta, m2.classes) == (
        m.initial, m.labels, m.delta, m.classes)
    assert set(re.findall(r'-> q\d+ \[label="([^"]*)"', to_dot(m2))) == {
        "!y", "!x&y", "x&y", "!x | !y", "x | !y"}
    # b a puts b first: another shape, compiled once, then kept for y x
    minimal_machine(c, algebra("b a"))
    minimal_machine(renamed, algebra("y x"))
    assert calls == ["compile_cond", "minimize"] * 2
    assert minimal_machine.cache_info().currsize == 4
    assert len(automata._SHAPES) == 2


@pytest.mark.parametrize("events, text, error", [
    ("a b", "(a S c | true)", KeyError("unknown event: 'c'")),
    # an event outside the algebra spelled like a position
    ("a b", "(_0 S b | true)", KeyError("unknown event: '_0'")),
    (" ".join(f"e{i}" for i in range(17)), "(e0 S e1 | true)",
     ValueError("17 basic events exceed the limit 16")),
])
def test_a_refused_conditional_keeps_nothing(events, text, error):
    """The error of ``minimize(compile_cond(...))``, type and text, and no
    machine kept at either level."""
    from tlcond import automata
    from tlcond.automata import minimal_machine
    ab, alg = algebra("a b"), algebra(events)
    minimal_machine(parse_cond("(a S b | true)", ab), ab)  # one machine kept
    c = parse_cond(text)
    for run in (lambda: minimize(compile_cond(c, alg)), lambda: minimal_machine(c, alg)):
        with pytest.raises(type(error)) as info:
            run()
        assert str(info.value) == str(error)
    assert minimal_machine.cache_info().currsize == len(automata._SHAPES) == 1
