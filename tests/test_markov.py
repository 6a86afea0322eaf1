"""Distributions, chains, time-indexed and limiting probabilities."""
import random
from fractions import Fraction

import pytest

from tlcond import (ProbAssignment, absorbing_solve, algebra, asymptotic,
                    brute_pr_series, chain_from_machine, compile_cond,
                    minimize, parse_cond, pr_n, pr_n_ratio, pr_series)
from tlcond.markov import (MarkovChain3, PeriodicChainError,
                           SingularMatrixError, limiting_label_masses,
                           solve_linear)
from tlcond.trivalue import Value3

from corpus import ALG_AB, CONVERGENCE_AB, CORPUS, SKEWED_AB, UNIFORM_AB

F2 = Fraction(1, 2)


def _chain(text, p=UNIFORM_AB):
    c = parse_cond(text, p.alg)
    return chain_from_machine(minimize(compile_cond(c, p.alg)), p)


# ---------------------------------------------------------------------------
# Distributions


def test_masses_must_sum_to_one():
    with pytest.raises(ValueError):
        ProbAssignment(ALG_AB, (F2, F2, F2, F2))
    with pytest.raises(ValueError):
        ProbAssignment(ALG_AB, (Fraction(2), Fraction(-1), Fraction(0), Fraction(0)))


def test_independent_product():
    p = ProbAssignment.independent(ALG_AB, {"a": Fraction(1, 3), "b": Fraction(1, 4)})
    assert p.mass[0b00] == Fraction(2, 3) * Fraction(3, 4)
    assert p.mass[0b01] == Fraction(1, 3) * Fraction(3, 4)
    assert p.mass[0b11] == Fraction(1, 12)
    assert sum(p.mass) == 1


def test_independent_masses_are_products_of_marginals():
    # reference: one product of n marginals per atom
    alg = algebra("a b c d e")
    rng = random.Random(8)
    probs = {e: Fraction(rng.randint(0, 7), 7) for e in alg.events}
    p = ProbAssignment.independent(alg, probs)
    for atom in range(alg.num_atoms):
        want = Fraction(1)
        for i, name in enumerate(alg.events):
            want *= probs[name] if atom >> i & 1 else 1 - probs[name]
        assert p.mass[atom] == want


def test_distribution_file_exhaustive():
    text = """
    events: a b
    atom {}: 1/8
    atom {a}: 1/8
    atom {b}: 1/4
    atom {a b}: 1/2
    """
    p = ProbAssignment.from_text(text)
    assert p.alg.events == ("a", "b")
    assert p.mass == (Fraction(1, 8), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))


def test_distribution_file_independent():
    p = ProbAssignment.from_text("events: a b\nindependent: a=1/2 b=1/3\n")
    assert p.mass[0b11] == Fraction(1, 6)


def test_distribution_file_rejects_gaps_and_bad_sums():
    with pytest.raises(ValueError, match="not covered"):
        ProbAssignment.from_text("events: a\natom {}: 1\n")
    with pytest.raises(ValueError, match="sum"):
        ProbAssignment.from_text("events: a\natom {}: 1/2\natom {a}: 1/4\n")


# ---------------------------------------------------------------------------
# Chains from machines


def test_one_state_machine_gives_unit_chain():
    ch = _chain("(true|true)")
    assert ch.trans == ((Fraction(1),),)
    assert ch.init == (Fraction(1),)


def test_first_resolution_chain_masses():
    ch = _chain("(O (a and b and not Y O b) | true)")
    # waiting state: self-loop 1/2 (condition absent), exits 1/4 and 1/4
    by_label = {}
    for i, lab in enumerate(ch.labels):
        row = ch.trans[i]
        by_label.setdefault(lab, []).append(row)
    waiting = next(i for i in range(ch.n_states)
                   if ch.trans[i][i] == F2 and ch.labels[i] is Value3.FALSE)
    exits = sorted(w for j, w in enumerate(ch.trans[waiting]) if j != waiting)
    assert exits == [Fraction(1, 4), Fraction(1, 4)]


def test_rows_always_sum_to_one():
    for text, c in CORPUS:
        ch = chain_from_machine(minimize(compile_cond(c, ALG_AB)), SKEWED_AB)
        for row in ch.trans:
            assert sum(row) == 1
        assert sum(ch.init) == 1


def test_alphabet_mismatch_rejected():
    m = minimize(compile_cond(parse_cond("(a|b)", ALG_AB), ALG_AB))
    other = ProbAssignment.uniform(algebra("a b c"))
    with pytest.raises(ValueError):
        chain_from_machine(m, other)


# ---------------------------------------------------------------------------
# Time-indexed probabilities


def test_simple_conditional_is_time_invariant():
    ch = _chain("(a|b)")
    for n in (1, 2, 5, 9):
        assert pr_n(ch, n) == (Fraction(1, 4), Fraction(1, 4), F2)
        assert pr_n_ratio(ch, n) == F2


def test_always_true_probabilities():
    ch = _chain("(true|true)")
    for n in (1, 4):
        assert pr_n(ch, n) == (1, 0, 0)
        assert pr_n_ratio(ch, n) == 1


def test_never_defined_ratio_is_undefined():
    ch = _chain("(a|false)")
    for n in (1, 3):
        assert pr_n_ratio(ch, n) is None
    assert asymptotic(ch) is None


def test_pr_n_matches_oracle_enumeration():
    for text, c in CORPUS[::2]:
        ch = chain_from_machine(minimize(compile_cond(c, ALG_AB)), SKEWED_AB)
        series = brute_pr_series(c, SKEWED_AB, 6)
        for n in range(1, 7):
            assert pr_n(ch, n) == series[n - 1], (text, n)


def test_pr_series_steps_through_pr_n():
    for p in (UNIFORM_AB, SKEWED_AB):
        for text, c in CORPUS:
            ch = chain_from_machine(minimize(compile_cond(c, ALG_AB)), p)
            assert list(pr_series(ch, 8)) == [pr_n(ch, t) for t in range(1, 9)], text
    assert list(pr_series(_chain("(a|b)"), 0)) == []


def test_pr_n_rejects_time_zero():
    with pytest.raises(ValueError):
        pr_n(_chain("(a|b)"), 0)


# ---------------------------------------------------------------------------
# Limiting probabilities


def test_first_resolution_limit_is_bayes_ratio():
    # waiting state exits with masses alpha (win) and beta (lose):
    # the limit must be alpha / (alpha + beta)
    for pa, pb in ((F2, F2), (Fraction(1, 3), Fraction(1, 5)),
                   (Fraction(9, 10), Fraction(1, 10))):
        p = ProbAssignment.independent(ALG_AB, {"a": pa, "b": pb})
        c = parse_cond("(O (a and b and not Y O b) | true)", ALG_AB)
        ch = chain_from_machine(minimize(compile_cond(c, ALG_AB)), p)
        alpha, beta = pa * pb, (1 - pa) * pb
        assert asymptotic(ch) == alpha / (alpha + beta)


def test_simple_conditional_limit_is_conditional_probability():
    rng = random.Random(23)
    c = parse_cond("(a|b)", ALG_AB)
    for _ in range(30):
        weights = [rng.randint(0, 6) for _ in range(4)]
        if sum(w for i, w in enumerate(weights) if i & 2) == 0:
            weights[2] += 1  # keep the condition possible
        total = sum(weights)
        p = ProbAssignment(ALG_AB, tuple(Fraction(w, total) for w in weights))
        ch = chain_from_machine(minimize(compile_cond(c, ALG_AB)), p)
        num = p.mass[0b11]
        den = p.mass[0b10] + p.mass[0b11]
        assert asymptotic(ch) == num / den


def test_limiting_masses_of_two_valued_machine_sum_to_one():
    ch = _chain("(O a | true)")
    masses = limiting_label_masses(ch)
    assert masses[Value3.UNDEF] == 0
    assert masses[Value3.TRUE] + masses[Value3.FALSE] == 1
    assert asymptotic(ch) == 1  # the event eventually happens almost surely


def test_periodic_reachable_class_fails_loudly():
    # hand-built two-state flip-flop: the distribution alternates forever
    ch = MarkovChain3(
        init=(Fraction(1), Fraction(0)),
        trans=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        labels=(Value3.TRUE, Value3.FALSE))
    with pytest.raises(PeriodicChainError):
        asymptotic(ch)


def test_convergence_on_corpus():
    """|ratio_n - limit| decays past a small burn-in and is below 1e-6 by
    n = 40 (checked on decimal approximations of the exact values)."""
    for text, c in CORPUS:
        ch = chain_from_machine(minimize(compile_cond(c, ALG_AB)), CONVERGENCE_AB)
        limit = asymptotic(ch)
        if limit is None:
            continue
        diffs = []
        for n in range(1, 41):
            ratio = pr_n_ratio(ch, n)
            diffs.append(None if ratio is None else abs(float(ratio - limit)))
        assert diffs[-1] is not None and diffs[-1] < 1e-6, text
        defined = [(n, d) for n, d in enumerate(diffs, start=1) if d is not None]
        burn_in = 1
        for (na, da), (nb, db) in zip(defined, defined[1:]):
            if db > da:
                burn_in = nb
        assert burn_in <= 16, (text, burn_in)


def test_limit_agrees_with_iterated_distribution_on_random_machines():
    """On random machines (arbitrary labels and transitions) the exact
    limiting masses are a fixed point of the transition matrix and match a
    long float-iterated distribution, whenever the limit exists."""
    from tlcond.automata import MooreMachine3
    from tlcond.trivalue import Value3 as V

    rng = random.Random(51)
    alg = ALG_AB
    checked = skipped = 0
    while checked < 40:
        n = rng.randint(1, 6)
        labels = [rng.choice((V.FALSE, V.TRUE, V.UNDEF)) for _ in range(n)]
        table = [[rng.randrange(n) for _ in range(alg.num_atoms)]
                 for _ in range(n)]
        m = MooreMachine3.from_atom_table(alg, labels, table, initial=0)
        p = _random_dist_local(rng, alg)
        ch = chain_from_machine(m, p)
        try:
            masses = limiting_label_masses(ch)
        except PeriodicChainError:
            skipped += 1
            continue
        assert sum(masses.values()) == 1

        # long float iteration as an independent approximation of the limit
        dist = [float(x) for x in ch.init]
        trans = [[float(x) for x in row] for row in ch.trans]
        for _ in range(2000):
            dist = [sum(dist[i] * trans[i][j] for i in range(n))
                    for j in range(n)]
        approx = {V.TRUE: 0.0, V.FALSE: 0.0, V.UNDEF: 0.0}
        for j, lab in enumerate(ch.labels):
            approx[lab] += dist[j]
        for lab in approx:
            assert abs(approx[lab] - float(masses[lab])) < 1e-9
        checked += 1
    assert skipped < 40  # the suite exercised real cases


def _random_dist_local(rng, alg):
    weights = [rng.randint(0, 5) for _ in range(alg.num_atoms)]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return ProbAssignment(alg, tuple(Fraction(w, total) for w in weights))


def test_reverse_words_give_equal_masses():
    from tlcond import brute_reverse_check
    for text, c in CORPUS[::2]:
        for n in (1, 3, 5):
            assert brute_reverse_check(c, UNIFORM_AB, n), text


# ---------------------------------------------------------------------------
# Exact linear algebra


def test_absorbing_solve_scalar():
    b = absorbing_solve([[F2]], [[Fraction(1, 4), Fraction(1, 4)]])
    assert b == [[F2, F2]]


def test_absorbing_solve_identity_case():
    r = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1), Fraction(0)]]
    q = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    assert absorbing_solve(q, r) == r


def test_absorbing_solve_rows_sum_to_one_on_random_chains():
    rng = random.Random(7)
    for _ in range(25):
        nt, na = rng.randint(1, 4), rng.randint(1, 3)
        q = []
        r = []
        for _ in range(nt):
            weights = [rng.randint(0, 5) for _ in range(nt + na)]
            # guarantee some absorbing mass so absorption is certain
            weights[nt + rng.randrange(na)] += 1
            total = sum(weights)
            row = [Fraction(w, total) for w in weights]
            q.append(row[:nt])
            r.append(row[nt:])
        b = absorbing_solve(q, r)
        for row in b:
            assert sum(row) == 1


def test_singular_system_is_reported():
    one = Fraction(1)
    with pytest.raises(SingularMatrixError):
        absorbing_solve([[one]], [[one]])  # Id - Q = 0


def test_solve_linear_exact():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    b = [[Fraction(3)], [Fraction(5)]]
    x = solve_linear(a, b)
    assert x == [[Fraction(4, 5)], [Fraction(7, 5)]]
