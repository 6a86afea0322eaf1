"""Machine compilation, minimization, products, counter-freeness, DOT."""
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlcond import (And, Atom, CeaAnd, CeaNeg, CeaOr, CeaSimple, CondObject,
                    ConnectiveId, FALSE, Iff, Implies, Not, Or, Prev, Since,
                    TRUE, Value3, algebra, apply_binary, canonical_key,
                    compile_cond, cond_output, embed_ps, event_text,
                    is_counter_free, isomorphic, minimize, parse_cea,
                    parse_cond, pretty, product, to_dot, word)
from tlcond.automata import MonoidSizeError, MooreMachine3, _canonical, _primes
from tlcond.cea import first_machine
from tlcond.syntax import hist, once

from corpus import ALG_AB, CORPUS
from machines import (MINIMAL_DOTS, assert_first_machine_shape,
                      compile_cond_reference, event_text_reference,
                      expected_conjunction_machine, expected_first_machine,
                      machine_from_atom_table, primes_reference,
                      two_cycle_machine)
from walkers import outputs_match_everywhere

F, T, U = Value3.FALSE, Value3.TRUE, Value3.UNDEF
ABCD = algebra("a b c d")


# ---------------------------------------------------------------------------
# Compilation


def test_simple_conditional_compiles_to_three_letter_driven_states():
    m = minimize(compile_cond(parse_cond("(a|b)", ALG_AB), ALG_AB))
    assert m.n_states == 3
    assert sorted(v.value for v in m.labels) == [0, 1, 2]
    # present tense: the transition target depends on the letter only
    assert all(row == m.delta[0] for row in m.delta)


def test_first_resolution_machine_matches_expected_shape():
    c = parse_cond("(O (a and b and not Y O b) | true)", ALG_AB)
    m = minimize(compile_cond(c, ALG_AB))
    assert m.n_states == 3
    assert isomorphic(m, expected_first_machine())


def test_trivial_conditional_compiles_to_one_true_state():
    m = minimize(compile_cond(parse_cond("(true|true)", ALG_AB), ALG_AB))
    assert m.n_states == 1
    assert m.labels == [T]


def test_compiled_outputs_match_clause_semantics_exhaustively():
    for text, c in CORPUS:
        m = compile_cond(c, ALG_AB)
        assert outputs_match_everywhere(m, c, ALG_AB, 6), text


def test_machine_run_agrees_with_cond_output_spot():
    c = parse_cond("(a S b | O a)", ALG_AB)
    m = compile_cond(c, ALG_AB)
    rng = random.Random(3)
    for _ in range(100):
        letters = tuple(rng.randrange(4) for _ in range(rng.randint(1, 7)))
        assert m.run(letters) == cond_output(word(ALG_AB, letters), c)


def test_step_finds_the_class_of_an_atom_and_refuses_one_outside_the_algebra():
    m = expected_first_machine()  # classes {} | {a}, then {b}, then {a b}
    assert [m.step(0, atom) for atom in range(4)] == [0, 0, 2, 1]
    with pytest.raises(IndexError):
        m.step(0, 4)


def _ps_ladder(k: int, embedding: str):
    """(a1|b1) and ... and (ak|bk) under an embedding, and its algebra."""
    alg = algebra(" ".join(f"a{i} b{i}" for i in range(1, k + 1)))
    text = " and ".join(f"(a{i}|b{i})" for i in range(1, k + 1))
    return embed_ps(parse_cea(text, alg, dialect="flat"), embedding), alg


def test_compiled_start_state_is_never_entered():
    for text, c in CORPUS:
        assert not compile_cond(c, ALG_AB).initial_is_entered, text
    for embedding in ("reverse", "sparse"):
        assert not compile_cond(*_ps_ladder(3, embedding)).initial_is_entered


@pytest.mark.parametrize("embedding,k", [("reverse", k) for k in range(2, 6)]
                         + [("sparse", k) for k in range(2, 5)])
def test_memory_keyed_machine_is_minimal_up_to_its_start(embedding, k):
    # keyed on remembered values and the label, the raw machine of a ps
    # embedding is the minimal one plus at most its never-entered start
    raw = compile_cond(*_ps_ladder(k, embedding))
    assert raw.n_states <= minimize(raw).n_states + 1


def test_minimized_dot_is_fixed():
    for kind, text, dot in MINIMAL_DOTS:
        if kind == "tl":
            c = parse_cond(text, ABCD)
        else:
            c = embed_ps(parse_cea(text, ABCD, dialect="flat"), kind)
        assert to_dot(minimize(compile_cond(c, ABCD))) == dot, (kind, text)


# ---------------------------------------------------------------------------
# Minimization


def test_minimize_is_idempotent():
    for text, c in CORPUS[::3]:
        m1 = minimize(compile_cond(c, ALG_AB))
        m2 = minimize(m1)
        assert m2.n_states == m1.n_states, text
        assert isomorphic(m1, m2)


def test_minimize_preserves_outputs():
    for text, c in CORPUS[::2]:
        m = minimize(compile_cond(c, ALG_AB))
        assert outputs_match_everywhere(m, c, ALG_AB, 6), text


def test_minimize_never_grows():
    for text, c in CORPUS:
        raw = compile_cond(c, ALG_AB)
        assert minimize(raw).n_states <= raw.n_states, text


def test_equal_conditionals_minimize_to_isomorphic_machines():
    pairs = [
        ("(a|b)", "(a and b | b)"),
        ("(O a | true)", "(true S a | true)"),
        ("(H a | O b)", "(not O not a | true S b)"),
        ("(a S b | true)", "(a S b | true)"),
    ]
    for t1, t2 in pairs:
        m1 = minimize(compile_cond(parse_cond(t1, ALG_AB), ALG_AB))
        m2 = minimize(compile_cond(parse_cond(t2, ALG_AB), ALG_AB))
        assert isomorphic(m1, m2), (t1, t2)


def test_round_trip_text_gives_isomorphic_machine():
    for text, c in CORPUS[::4]:
        c2 = parse_cond(pretty(c), ALG_AB)
        assert isomorphic(minimize(compile_cond(c, ALG_AB)),
                          minimize(compile_cond(c2, ALG_AB)))


def test_distinct_futures_with_equal_onward_behavior_stay_separate():
    """Two entered states with identical futures but different labels must
    not merge: the word deciding position one still needs both."""
    c = parse_cond("(a and not Y true | true)", ALG_AB)
    m = minimize(compile_cond(c, ALG_AB))
    assert outputs_match_everywhere(m, c, ALG_AB, 4)
    assert m.n_states == 3  # start, position-one hit, dead


def test_conjunction_machine_matches_expected_five_states():
    e = parse_cea("(a|b) and (c|d)", ABCD)
    m = minimize(first_machine(e, ABCD))
    assert m.n_states == 5
    assert isomorphic(m, expected_conjunction_machine())


def test_first_interpretation_state_bound():
    rng = random.Random(17)
    sides = ["a", "b", "c", "d", "a and b", "not c", "c or d", "b and not d"]

    def random_flat(n_leaves):
        leaves = [f"({rng.choice(sides)} | {rng.choice(sides)})"
                  for _ in range(n_leaves)]
        expr = leaves[0]
        for leaf in leaves[1:]:
            op = rng.choice([" and ", " or "])
            expr = f"({expr}{op}{leaf})" if rng.random() < 0.5 else \
                f"~({expr}{op}{leaf})"
        return parse_cea(expr, ABCD, dialect="flat")

    for n in range(1, 5):
        for _ in range(3):
            e = random_flat(n)
            raw = first_machine(e, ABCD)
            assert_first_machine_shape(raw, n)
            assert minimize(raw).n_states <= 3 ** n


def test_first_conjunction_has_one_class_per_leaf_outcome():
    """The letter classes come from the maximal present-tense subformulas
    (a_i and b_i, and b_i, for each leaf): 3^k classes, not 4^k atoms."""
    for k in (2, 3, 4):
        names = [f"{x}{i}" for i in range(1, k + 1) for x in "ab"]
        alg = algebra(" ".join(names))
        e = parse_cea(" and ".join(f"(a{i}|b{i})" for i in range(1, k + 1)),
                      alg, dialect="flat")
        m = compile_cond(embed_ps(e, "first"), alg)
        assert len(m.classes) == 3 ** k
        assert m.n_states == 3 ** k + 1


def test_compiled_machine_is_numbered_canonically():
    """compile_cond numbers states breadth-first in class order as it
    discovers them, so its canonical form has the same states: the same
    labels and, on every atom, the same steps."""
    for text, c in CORPUS:
        assert _numbered_canonically(compile_cond(c, ALG_AB)), text


def _numbered_canonically(m: MooreMachine3) -> bool:
    r = _canonical(m)
    return (m.initial, m.labels) == (r.initial, r.labels) and all(
        m.step(q, atom) == r.step(q, atom)
        for q in range(m.n_states) for atom in range(m.alg.num_atoms))


def _fields(m: MooreMachine3) -> tuple:
    return m.initial, m.labels, m.delta, m.classes


def _formulas(events: str):
    leaves = st.sampled_from([Atom(e) for e in events.split()] + [TRUE, FALSE])
    return st.recursive(leaves, lambda sub: st.one_of(
        *(st.builds(node, sub) for node in (Not, Prev, once, hist)),
        *(st.builds(node, sub, sub) for node in (And, Or, Implies, Iff, Since))),
        max_leaves=8)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(*(st.tuples(st.just(algebra(events)),
                             st.builds(CondObject, _formulas(events),
                                       _formulas(events)))
                   for events in ("a b", "a b c"))))
def test_random_machines_equal_the_reference_compilers(alg_and_cond):
    alg, c = alg_and_cond
    assert _fields(compile_cond(c, alg)) == \
        _fields(compile_cond_reference(c, alg)), pretty(c)


def test_corpus_ps_and_deep_past_machines_equal_the_reference_compilers():
    cases = [(c, ALG_AB) for _, c in CORPUS]
    cases += [_ps_ladder(k, embedding) for k in (1, 2, 3)
              for embedding in ("first", "reverse", "sparse")]
    for d in range(1, 7):
        for second in range(d + 1):
            num = "Y " * d + "a" + (" and " + "Y " * second + "b" if second else "")
            cases.append((parse_cond(f"({num} | {'Y ' * d}true)", ALG_AB), ALG_AB))
    for c, alg in cases:
        assert _fields(compile_cond(c, alg)) == \
            _fields(compile_cond_reference(c, alg)), pretty(c)


def _flat_expressions(events: str):
    sides = st.sampled_from([Atom(e) for e in events.split()] + [TRUE])
    return st.recursive(st.builds(CeaSimple, sides, sides), lambda sub: st.one_of(
        st.builds(CeaNeg, sub), st.builds(CeaAnd, sub, sub), st.builds(CeaOr, sub, sub)),
        max_leaves=3)


def _conditionals(events: str):
    alg = algebra(events)
    return st.tuples(st.just(alg), st.one_of(
        st.builds(CondObject, _formulas(events), _formulas(events)),
        st.builds(embed_ps, _flat_expressions(events),
                  st.sampled_from(["first", "reverse", "sparse"]))))


def _rebuilt(m: MooreMachine3, perm: list[int]) -> MooreMachine3:
    """``m`` rebuilt from its per-atom table, state q renumbered perm[q]."""
    labels, table = [None] * m.n_states, [None] * m.n_states
    for q in range(m.n_states):
        labels[perm[q]] = m.labels[q]
        table[perm[q]] = [perm[m.step(q, atom)] for atom in range(m.alg.num_atoms)]
    return machine_from_atom_table(m.alg, labels, table, perm[m.initial])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_conditionals("a b"), _conditionals("a b c")),
       st.randoms(use_true_random=False))
def test_minimize_is_idempotent_canonical_and_exact(alg_and_cond, rng):
    alg, c = alg_and_cond
    m = compile_cond(c, alg)
    small = minimize(m)
    assert _fields(minimize(small)) == _fields(small), pretty(c)
    perm = list(range(m.n_states))
    rng.shuffle(perm)
    i = m.initial
    if m.n_states > 1 and perm[i] == i:  # move the start
        perm[i], perm[i - 1] = perm[i - 1], perm[i]
    assert canonical_key(_rebuilt(m, perm)) == canonical_key(m), pretty(c)
    assert canonical_key(minimize(_rebuilt(m, perm))) == canonical_key(small), pretty(c)
    assert outputs_match_everywhere(m, c, alg, 3), pretty(c)
    assert outputs_match_everywhere(small, c, alg, 3), pretty(c)
    assert _numbered_canonically(m), pretty(c)


# ---------------------------------------------------------------------------
# Products


def test_product_of_copies_stays_within_power_bound():
    m = expected_first_machine()
    for k in (1, 2, 3):
        prod = product([m] * k, lambda vals: vals[0])
        assert prod.n_states <= 3 ** k


def test_product_with_identity_is_isomorphic():
    m = compile_cond(parse_cond("(a S b | O a)", ALG_AB), ALG_AB)
    assert isomorphic(product([m], lambda vals: vals[0]), m)


def test_product_outputs_are_pointwise_combinations():
    c1 = parse_cond("(a|b)", ALG_AB)
    c2 = parse_cond("(O a | true)", ALG_AB)
    m1, m2 = compile_cond(c1, ALG_AB), compile_cond(c2, ALG_AB)
    prod = product([m1, m2],
                   lambda vals: apply_binary(ConnectiveId.AND_SCH, *vals))
    for code in range(4 ** 5):
        letters = []
        x = code
        for _ in range(5):
            letters.append(x % 4)
            x //= 4
        want = [apply_binary(ConnectiveId.AND_SCH, v1, v2)
                for v1, v2 in zip(m1.run(letters), m2.run(letters))]
        assert prod.run(letters) == want


def test_product_requires_shared_alphabet():
    m1 = compile_cond(parse_cond("(a|b)", ALG_AB), ALG_AB)
    m2 = compile_cond(parse_cond("(a|b)", ABCD), ABCD)
    with pytest.raises(ValueError):
        product([m1, m2], lambda vals: vals[0])


def test_first_interpretation_labels_are_two_valued():
    for text in ("(a|b) and (c|d)", "~((a|b) or (c|d))", "(a|b) or ~(c|d)"):
        e = parse_cea(text, ABCD, dialect="flat")
        raw = first_machine(e, ABCD)
        assert_first_machine_shape(raw, 2)
        m = minimize(raw)
        entered = {t for row in m.delta for t in row}
        assert all(m.labels[q] in (F, T) for q in entered)


def test_resolved_states_sit_in_label_constant_closed_components():
    """Once every condition event has occurred, the first-interpretation
    output never changes: any state reachable by such a prefix must belong
    to a closed, label-constant component."""
    from tlcond.cea import event_mask

    e = parse_cea("(a|b) and (c|d)", ABCD)
    m = minimize(first_machine(e, ABCD))
    cond_masks = [event_mask(s.den_event, ABCD)
                  for s in __import__("tlcond").syntax.collect_simples(e)]

    # explore (machine state, set of condition events seen so far)
    start = (m.initial, 0)
    seen = {start}
    todo = [start]
    all_seen = (1 << len(cond_masks)) - 1
    resolved_states = set()
    while todo:
        q, got = todo.pop()
        for atom in range(ABCD.num_atoms):
            got2 = got
            for i, mask in enumerate(cond_masks):
                if mask >> atom & 1:
                    got2 |= 1 << i
            nxt = (m.step(q, atom), got2)
            if got2 == all_seen:
                resolved_states.add(nxt[0])
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)

    for q in resolved_states:
        component = {q}
        frontier = [q]
        while frontier:
            s = frontier.pop()
            for atom in range(ABCD.num_atoms):
                t = m.step(s, atom)
                if t not in component:
                    component.add(t)
                    frontier.append(t)
        assert len({m.labels[s] for s in component}) == 1


def test_alternation_conditional_has_one_state_per_value():
    """(a | always-alternated-so-far-starting-with-a): its minimal machine
    has exactly one state per truth value, with the undefined state
    absorbing once the alternation breaks."""
    one = algebra("a")
    c = parse_cond("(a | H ((Y a -> not a) and (Y not a -> a) "
                   "and (not Y true -> a)))", one)
    m = minimize(compile_cond(c, one))
    # atoms over {a}: 0 = {}, 1 = {a}; states: after-odd (1), after-even (0),
    # broken (bottom); the start behaves like after-even
    expected = machine_from_atom_table(
        one,
        labels=[F, T, U],
        delta_by_atom=[[2, 1], [0, 2], [2, 2]],
        initial=0)
    assert m.n_states == 3
    assert isomorphic(m, expected)


def test_random_conditionals_match_clause_semantics():
    rng = random.Random(2718)

    def random_formula(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(["a", "b", "true", "false"])
        kind = rng.randrange(7)
        if kind == 0:
            return f"not {random_formula(depth - 1)}"
        if kind == 1:
            return f"Y {random_formula(depth - 1)}"
        if kind == 2:
            return f"O {random_formula(depth - 1)}"
        if kind == 3:
            return f"H {random_formula(depth - 1)}"
        op = (" and ", " or ", " S ")[kind - 4]
        return f"({random_formula(depth - 1)}{op}{random_formula(depth - 1)})"

    for _ in range(30):
        c = parse_cond(f"({random_formula(3)} | {random_formula(3)})", ALG_AB)
        m = compile_cond(c, ALG_AB)
        assert outputs_match_everywhere(m, c, ALG_AB, 5), pretty(c)
        small = minimize(m)
        assert outputs_match_everywhere(small, c, ALG_AB, 5), pretty(c)


# ---------------------------------------------------------------------------
# Counter-freeness


def test_corpus_machines_are_counter_free():
    for text, c in CORPUS:
        assert is_counter_free(compile_cond(c, ALG_AB)), text


def test_two_cycle_machine_has_a_counter():
    assert is_counter_free(two_cycle_machine()) is False


def test_one_state_machine_is_counter_free():
    m = minimize(compile_cond(parse_cond("(true|true)", ALG_AB), ALG_AB))
    assert m.n_states == 1
    assert is_counter_free(m)


def test_monoid_cap_is_a_loud_diagnostic():
    m = compile_cond(parse_cond("(a S b | O a)", ALG_AB), ALG_AB)
    with pytest.raises(MonoidSizeError):
        is_counter_free(m, monoid_cap=1)


# ---------------------------------------------------------------------------
# DOT export

_DOT_LINE = re.compile(
    r'^(digraph "[^"]*" \{|\}|\s+rankdir=LR;|\s+\w+ \[[^\]]*\];|'
    r'\s+\w+ -> \w+( \[label="[^"]*"\])?;)$')


def _assert_well_formed_dot(text: str):
    lines = text.splitlines()
    assert lines[0].startswith("digraph") and lines[-1] == "}"
    assert text.count("{") == text.count("}")
    for line in lines:
        assert _DOT_LINE.match(line), line


def test_dot_of_one_state_machine():
    m = minimize(compile_cond(parse_cond("(true|true)", ALG_AB), ALG_AB))
    dot = to_dot(m)
    _assert_well_formed_dot(dot)
    assert dot.count("->") == 2  # entry edge plus one merged self-loop
    assert 'label="true"' in dot


def test_dot_of_first_resolution_machine():
    m = minimize(compile_cond(
        parse_cond("(O (a and b and not Y O b) | true)", ALG_AB), ALG_AB))
    dot = to_dot(m)
    _assert_well_formed_dot(dot)
    assert dot.count("shape=circle") == 3
    assert "__start ->" in dot
    assert sorted(re.findall(r'label="([01⊥])"', dot)) == ["0", "0", "1"]


def test_dot_merges_parallel_edges():
    m = minimize(compile_cond(parse_cond("(a|b)", ALG_AB), ALG_AB))
    dot = to_dot(m)
    _assert_well_formed_dot(dot)
    # three states, letter-driven: exactly 3 targets per state + entry edge
    assert dot.count("->") == 3 * 3 + 1


def test_event_text_denotes_its_atom_set():
    rng = random.Random(4)
    for mask in [0, ABCD.full_event] + [rng.getrandbits(16) for _ in range(200)]:
        text = event_text(mask, ABCD)
        if text in ("true", "false"):
            assert mask == (ABCD.full_event if text == "true" else 0)
            continue
        denoted = 0
        for term in text.split(" | "):
            lits = [(lit.lstrip("!"), not lit.startswith("!"))
                    for lit in term.split("&")]
            for atom in range(ABCD.num_atoms):
                if all(bool(atom >> ABCD.index(name) & 1) == value
                       for name, value in lits):
                    denoted |= 1 << atom
        assert denoted == mask, text


def _cube(n, care, value):
    """The atoms over n events that agree with ``value`` on ``care``."""
    return sum(1 << atom for atom in range(1 << n) if atom & care == value)


@st.composite
def atom_sets(draw, max_events):
    """An event count n and an atom set over n events: empty, full, one atom,
    all atoms but one, a union of 1 to 4 cubes, or uniform."""
    n = draw(st.integers(1, max_events))
    full = (1 << (1 << n)) - 1
    kind = draw(st.sampled_from(["empty", "full", "atom", "all but one",
                                 "cubes", "uniform"]))
    if kind in ("empty", "full"):
        return n, full if kind == "full" else 0
    if kind in ("atom", "all but one"):
        atom = 1 << draw(st.integers(0, (1 << n) - 1))
        return n, atom if kind == "atom" else full ^ atom
    if kind == "uniform":
        return n, draw(st.integers(0, full))
    mask = 0
    for _ in range(draw(st.integers(1, 4))):
        care = draw(st.integers(0, (1 << n) - 1))
        mask |= _cube(n, care, draw(st.integers(0, (1 << n) - 1)) & care)
    return n, mask


@settings(max_examples=400, deadline=None, derandomize=True)
@given(atom_sets(8))
def test_event_text_equals_the_merge_step_cover(case):
    n, mask = case
    alg = algebra([f"e{i}" for i in range(n)])
    assert event_text.__wrapped__(mask, alg) == event_text_reference(mask, alg)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(atom_sets(5))
def test_cofactored_primes_are_the_brute_force_primes(case):
    n, mask = case
    assert _primes(mask, n, {}) == primes_reference(mask, n)


def test_labels_at_the_event_limit_recurse_once_per_event():
    """At 16 events, the most an algebra with atoms holds, the label of a
    union of cubes is found within a recursion depth of a few frames per
    event, so no label can reach the interpreter's limit."""
    alg = algebra([f"e{i}" for i in range(16)])
    rng = random.Random(16)
    mask = 0
    for _ in range(4):
        care = rng.getrandbits(16)
        mask |= _cube(16, care, rng.getrandbits(16) & care)
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 3 * 16 + 10)
    try:
        text = event_text.__wrapped__(mask, alg)
    finally:
        sys.setrecursionlimit(limit)
    assert text == event_text_reference(mask, alg)


def test_labels_are_kept_per_mask_and_algebra():
    """A repeated label is a hit; the same mask under other names is a
    miss that prints those names."""
    mask = 0b0110
    assert event_text(mask, ALG_AB) == "!a&b | a&!b"
    assert event_text(mask, ALG_AB) == "!a&b | a&!b"
    assert event_text(mask, algebra("x y")) == "!x&y | x&!y"
    info = event_text.cache_info()
    assert (info.hits, info.misses) == (1, 2)


def test_dot_is_deterministic():
    c = parse_cond("(a S b | O a)", ALG_AB)
    assert to_dot(minimize(compile_cond(c, ALG_AB))) == \
        to_dot(minimize(compile_cond(c, ALG_AB)))


# ---------------------------------------------------------------------------
# Canonical keys


def test_canonical_key_separates_different_functions():
    m1 = minimize(compile_cond(parse_cond("(a|b)", ALG_AB), ALG_AB))
    m2 = minimize(compile_cond(parse_cond("(b|a)", ALG_AB), ALG_AB))
    assert canonical_key(m1) != canonical_key(m2)
    assert not isomorphic(m1, m2)
