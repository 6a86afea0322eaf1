"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import random
import time
from fractions import Fraction
from pathlib import Path

from tlcond import (CeaCond, CeaVar, CondObject, Value3, algebra,
                    brute_joint, brute_pr_series, chain_from_machine,
                    compile_cond, embed_ps, eval_cea_valuation, is_counter_free,
                    isomorphic, minimize, parse_cea, parse_cond, present_indep,
                    pr_n, pretty, prob_ps, strong_indep, weak_tautology)
from tlcond.cea import _mask_formula, cond_asymptotic, first_machine
from tlcond.markov import ProbAssignment, asymptotic

from corpus import ALG_AB, CORPUS, SKEWED_AB, UNIFORM_AB
from machines import (assert_first_machine_shape, expected_conjunction_machine,
                      expected_first_machine, two_cycle_machine)

F, T, U = Value3.FALSE, Value3.TRUE, Value3.UNDEF


def _report(num: int, text: str):
    print(f"\n[criterion {num:02d}] PASS - {text}")


def _random_dist(rng, alg, strictly_positive=False):
    lo = 1 if strictly_positive else 0
    weights = [rng.randint(lo, 8) for _ in range(alg.num_atoms)]
    if sum(weights) == 0:
        weights[rng.randrange(alg.num_atoms)] = 1
    total = sum(weights)
    return ProbAssignment(alg, tuple(Fraction(w, total) for w in weights))


def test_criterion_01_bayes_formula():
    """Limiting probability of a simple conditional equals the ratio of
    event probabilities, exactly, over randomized distributions."""
    rng = random.Random(101)
    t0 = time.monotonic()
    cases = 0
    while cases < 200:
        alg = algebra("a b c"[: 2 * rng.randint(1, 3) - 1])
        p = _random_dist(rng, alg)
        num_mask = rng.randrange(1 << alg.num_atoms)
        den_mask = rng.randrange(1, 1 << alg.num_atoms)
        if p.of_event(den_mask) == 0:
            continue
        c = CondObject(_mask_formula(num_mask, alg), _mask_formula(den_mask, alg))
        got = cond_asymptotic(c, p)
        want = p.of_event(num_mask & den_mask) / p.of_event(den_mask)
        assert got == want
        cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"
    _report(1, f"200 randomized Bayes checks, exact, in {elapsed:.1f}s")


def test_criterion_02_oracle_equivalence():
    """Chain probabilities equal brute-force enumeration for every corpus
    conditional at every time up to 8."""
    zero_atom = ProbAssignment(
        ALG_AB, (Fraction(0), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    t0 = time.monotonic()
    checked = 0
    for p in (UNIFORM_AB, SKEWED_AB, zero_atom):
        for text, c in CORPUS:
            ch = chain_from_machine(minimize(compile_cond(c, ALG_AB)), p)
            series = brute_pr_series(c, p, 8)
            for n in range(1, 9):
                assert pr_n(ch, n) == series[n - 1], (text, n)
                checked += 1
    elapsed = time.monotonic() - t0
    assert len(CORPUS) >= 30
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(2, f"{len(CORPUS)} conditionals x 3 distributions x 8 times "
               f"({checked} exact equalities) in {elapsed:.1f}s")


def _random_flat_expr(rng, alg, max_simples):
    sides = ["a", "b", "c", "a or b", "not c", "b and c", "a or not b",
             "true", "a and b and c"]
    leaves = [f"({rng.choice(sides)} | {rng.choice(sides)})"
              for _ in range(rng.randint(1, max_simples))]
    expr = leaves[0]
    for leaf in leaves[1:]:
        op = rng.choice([" and ", " or "])
        expr = f"({expr}{op}{leaf})" if rng.random() < 0.6 else \
            f"~({expr}{op}{leaf})"
    return parse_cea(expr, alg, dialect="flat")


def test_criterion_03_embedding_equivalence():
    """The first, reverse and sparse interpretations assign identical
    probabilities: 100 expressions x 20 distributions, including ones that
    make a condition event impossible."""
    from tlcond.cea import event_mask
    from tlcond.syntax import collect_simples

    rng = random.Random(303)
    alg = algebra("a b c")
    t0 = time.monotonic()
    for _ in range(100):
        e = _random_flat_expr(rng, alg, 3)
        machines = [minimize(first_machine(e, alg)),
                    minimize(compile_cond(embed_ps(e, "reverse"), alg)),
                    minimize(compile_cond(embed_ps(e, "sparse"), alg))]

        dists = [_random_dist(rng, alg, strictly_positive=True)]
        den_masks = [event_mask(s.den_event, alg) for s in collect_simples(e)]
        blocked = den_masks[0]
        if blocked != alg.full_event:
            weights = [0 if blocked >> atom & 1 else rng.randint(1, 5)
                       for atom in range(alg.num_atoms)]
            total = sum(weights)
            dists.append(ProbAssignment(
                alg, tuple(Fraction(w, total) for w in weights)))
        while len(dists) < 20:
            dists.append(_random_dist(rng, alg))

        for p in dists:
            values = {asymptotic(chain_from_machine(m, p)) for m in machines}
            assert values == {prob_ps(e, p)}, (e, p.mass, values)
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"
    _report(3, f"100 expressions x 20 distributions, three interpretations "
               f"equal, in {elapsed:.1f}s")


def test_criterion_04_product_law_for_disjoint_generators():
    """Over independent generator blocks, the product-space probability of a
    conjunction is the product of the parts' probabilities, exactly."""
    rng = random.Random(404)
    joint = algebra("a b c d")

    def random_part(events):
        x, y = events
        sides = [x, y, f"{x} and {y}", f"{x} or {y}", f"not {x}", "true"]
        leaves = [f"({rng.choice(sides)} | {rng.choice(sides)})"
                  for _ in range(rng.randint(1, 2))]
        expr = leaves[0]
        for leaf in leaves[1:]:
            expr = f"({expr}{rng.choice([' and ', ' or '])}{leaf})"
        if rng.random() < 0.3:
            expr = f"~({expr})"
        return expr

    for _ in range(50):
        t1 = random_part("ab")
        t2 = random_part("cd")
        e1 = parse_cea(t1, joint, dialect="flat")
        e2 = parse_cea(t2, joint, dialect="flat")
        conj = parse_cea(f"({t1}) and ({t2})", joint, dialect="flat")

        w1 = [rng.randint(0, 6) for _ in range(4)]
        w2 = [rng.randint(0, 6) for _ in range(4)]
        for w in (w1, w2):
            if sum(w) == 0:
                w[0] = 1
        mass = tuple(Fraction(w1[atom & 3], sum(w1)) *
                     Fraction(w2[atom >> 2], sum(w2))
                     for atom in range(16))
        p = ProbAssignment(joint, mass)

        parts = prob_ps(e1, p), prob_ps(e2, p)
        whole = prob_ps(conj, p)
        assert whole == parts[0] * parts[1], (t1, t2, p.mass)
    _report(4, "50 disjoint-generator conjunctions factor exactly")


def test_criterion_05_canonical_machine_shapes_and_state_bound():
    """The minimized machines of the canonical examples have the expected
    shapes, and n-ary expressions stay within 3^n states."""
    ab = ALG_AB
    abcd = algebra("a b c d")

    m1 = minimize(first_machine(parse_cea("(a|b)", ab), ab))
    assert m1.n_states == 3
    assert isomorphic(m1, expected_first_machine())

    m2 = minimize(first_machine(parse_cea("(a|b) and (c|d)", abcd), abcd))
    assert m2.n_states == 5
    assert isomorphic(m2, expected_conjunction_machine())

    # the raw machine is the compiled one: a start state that no transition
    # enters, and at most 3^n entered states, labelled 0 or 1
    rng = random.Random(505)
    for n in range(1, 5):
        raw = first_machine(_random_flat_expr(rng, algebra("a b c"), n), algebra("a b c"))
        assert_first_machine_shape(raw, n)
        assert minimize(raw).n_states <= 3 ** n

    # six disjoint conditionals: 3^6 = 729 entered states, timed end to end
    names = [f"{x}{i}" for i in range(1, 7) for x in "ab"]
    wide = algebra(" ".join(names))
    expr = " and ".join(f"(a{i}|b{i})" for i in range(1, 7))
    e6 = parse_cea(expr, wide, dialect="flat")
    p6 = ProbAssignment.independent(wide, {n: Fraction(1, 2) for n in names})
    t0 = time.monotonic()
    raw6 = first_machine(e6, wide)
    assert_first_machine_shape(raw6, 6)
    m6 = minimize(raw6)
    assert m6.n_states <= 3 ** 6
    value = asymptotic(chain_from_machine(m6, p6))
    elapsed = time.monotonic() - t0
    assert value == Fraction(1, 64)
    assert elapsed < 5, f"took {elapsed:.1f}s"
    _report(5, f"3- and 5-state machines reproduced; 3^n bound holds to n=6; "
               f"6-ary pipeline ({raw6.n_states} states before minimization) "
               f"in {elapsed:.1f}s")


def test_criterion_06_degenerate_conditional_counterexample():
    """(never | a): the first interpretations are independent constants, the
    sparse interpretations agree on every probability yet are dependent."""
    alg = algebra("a")
    p = ProbAssignment.independent(alg, {"a": Fraction(1, 2)})
    e = parse_cea("(false|a)", alg, dialect="flat")
    c_first = embed_ps(e, "first")
    c_sparse = embed_ps(e, "sparse")

    joint = brute_joint(c_sparse, c_sparse, p, 2)
    seq = ((F, U), (F, U))
    assert joint[seq] == Fraction(1, 4)
    marginal = sum((m for (s1, _), m in joint.items() if s1 == seq[0]),
                   Fraction(0))
    assert marginal == Fraction(1, 4)
    assert marginal * marginal == Fraction(1, 16)
    assert joint[seq] > marginal * marginal

    ok_present, _ = present_indep(c_first, c_first, p)
    assert ok_present
    ok_strong, witness = strong_indep(c_sparse, c_sparse, p)
    assert not ok_strong and witness is not None
    _report(6, "joint prefix mass 1/4 > 1/16 product; first pair independent, "
               "sparse pair not")


def test_criterion_07_independence_suite():
    """The four-equation test at a fixed time agrees with ground truth from
    joint enumeration on random present-tense pairs."""
    rng = random.Random(707)
    abcd = algebra("a b c d")
    cases = 0
    while cases < 50:
        if cases % 5 == 4:
            # disjoint generators under a product distribution
            alg = abcd
            w1 = [rng.randint(1, 4) for _ in range(4)]
            w2 = [rng.randint(1, 4) for _ in range(4)]
            p = ProbAssignment(alg, tuple(
                Fraction(w1[atom & 3], sum(w1)) * Fraction(w2[atom >> 2], sum(w2))
                for atom in range(16)))
            pool1 = ["a", "b", "a and b", "a or b", "true"]
            pool2 = ["c", "d", "c and d", "c or d", "true"]
            n = rng.randint(1, 3)
        else:
            alg = ALG_AB
            p = _random_dist(rng, alg)
            pool1 = pool2 = ["a", "b", "a and b", "a or b", "not a", "true", "false"]
            n = rng.randint(1, 4)
        c1 = parse_cond(f"({rng.choice(pool1)} | {rng.choice(pool1)})", alg)
        c2 = parse_cond(f"({rng.choice(pool2)} | {rng.choice(pool2)})", alg)

        joint = brute_joint(c1, c2, p, n)
        last: dict = {}
        m1: dict = {}
        m2: dict = {}
        for (s1, s2), m in joint.items():
            key = (s1[-1], s2[-1])
            last[key] = last.get(key, Fraction(0)) + m
            m1[s1[-1]] = m1.get(s1[-1], Fraction(0)) + m
            m2[s2[-1]] = m2.get(s2[-1], Fraction(0)) + m
        truth = all(last.get((v1, v2), Fraction(0)) == m1[v1] * m2[v2]
                    for v1 in m1 for v2 in m2)

        got, checks = present_indep(c1, c2, p, n)
        assert got == truth, (c1, c2, p.mass, n, checks)
        cases += 1

    c1 = parse_cond("(a|true)", ALG_AB)
    c2 = parse_cond("(Y a|Y true)", ALG_AB)
    assert present_indep(c1, c2, UNIFORM_AB, n=3)[0]
    assert not strong_indep(c1, c2, UNIFORM_AB)[0]
    _report(7, "four-equation test matches enumeration on 50 pairs; the "
               "shifted copy is present-tense independent only")


def test_criterion_08_tautology_suite():
    """Pure-conditional weak tautologies coincide between the two algebras;
    no expression is true under the all-undefined valuation."""
    variables = [CeaVar(n) for n in "pqr"]

    def trees(size):
        if size == 1:
            return list(variables)
        out = []
        for left_size in range(1, size - 1, 2):
            for l in trees(left_size):
                for r in trees(size - 1 - left_size):
                    out.append(CeaCond(l, r))
        return out

    all_trees = [t for size in (1, 3, 5, 7) for t in trees(size)]
    assert len(all_trees) == 471
    # every tree is pure-conditional: its text passes the parser's dialect check
    for t in all_trees:
        assert parse_cea(pretty(t), None, "pure-conditional") is t
    sac_set = {i for i, t in enumerate(all_trees) if weak_tautology(t, "sac")[0]}
    gnw_set = {i for i, t in enumerate(all_trees) if weak_tautology(t, "gnw")[0]}
    assert sac_set == gnw_set
    assert sac_set  # the suite is not vacuous

    rng = random.Random(808)
    names = [f"p{i}" for i in range(8)]

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return CeaVar(rng.choice(names))
        kind = rng.randrange(4)
        if kind == 0:
            from tlcond import CeaNeg
            return CeaNeg(random_expr(depth - 1))
        from tlcond import CeaAnd, CeaOr
        cls = (CeaAnd, CeaOr, CeaCond)[kind - 1]
        return cls(random_expr(depth - 1), random_expr(depth - 1))

    bottoms = {n: U for n in names}
    for _ in range(1000):
        e = random_expr(5)
        for which in ("sac", "gnw"):
            assert eval_cea_valuation(e, bottoms, which) is U
    _report(8, f"471 pure-conditional expressions agree across algebras "
               f"({len(sac_set)} weak tautologies); 1000 all-undefined checks")


def test_criterion_09_counter_freeness():
    for text, c in CORPUS:
        assert is_counter_free(compile_cond(c, ALG_AB)), text
    assert not is_counter_free(two_cycle_machine())
    _report(9, f"{len(CORPUS)} compiled machines counter-free; "
               "hand-built two-cycle rejected")


def test_criterion_10_complexity_claims_documented_not_benchmarked():
    """Worst-case complexity facts are documentation, not runnable checks."""
    readme = " ".join((Path(__file__).parent.parent / "README.md")
                      .read_text().split())
    assert "not benchmarked" in readme
    assert "3^n" in readme
    _report(10, "complexity notes present in README; no benchmark claimed")
