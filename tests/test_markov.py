"""Distributions, chains, time-indexed and limiting probabilities."""
import random
import re
from fractions import Fraction
from math import gcd, lcm, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlcond import (ProbAssignment, algebra, asymptotic,
                    brute_pr_series, chain_from_machine, compile_cond,
                    minimal_machine, minimize, parse_cea, parse_cond, pr_n,
                    pr_n_ratio, pr_series, prob_ps, strong_indep)
from tlcond import markov
from tlcond.automata import leaf_classes
from tlcond.markov import (Block, MarkovChain3, PeriodicChainError,
                           SingularMatrixError, _sccs,
                           limiting_label_masses, solve_linear,
                           stationary_distribution)
from tlcond.syntax import EventAlgebra
from tlcond.trivalue import Value3

from corpus import (ALG_AB, CONVERGENCE_AB, CORPUS, CORPUS_TEXTS, SKEWED_AB,
                    UNIFORM_AB)
from machines import (class_weights_reference, from_text_reference, sccs_reference,
                      stationary_distribution_reference)

F2 = Fraction(1, 2)

# mixed denominators: an atom table over 6ths, 3rds and 4ths, and two
# independent marginals over 5ths and 7ths
MIXED_TABLE_AB = ProbAssignment(
    ALG_AB, (Fraction(1, 6), Fraction(1, 3), Fraction(1, 4), Fraction(1, 4)))
MIXED_INDEPENDENT_AB = ProbAssignment.independent(
    ALG_AB, {"a": Fraction(2, 5), "b": Fraction(3, 7)})


def _chain(text, p=UNIFORM_AB):
    c = parse_cond(text, p.alg)
    return chain_from_machine(minimize(compile_cond(c, p.alg)), p)


def _tables(ch):
    """A chain's initial distribution and transition matrix as dense
    ``Fraction`` tables, built from its integer weights."""
    trans = []
    for pairs in ch.succ:
        row = [Fraction(0)] * ch.n_states
        for t, w in pairs:
            row[t] = Fraction(w, ch.den)
        trans.append(tuple(row))
    return tuple(Fraction(w, ch.den) for w in ch.init_weights), tuple(trans)


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


def test_factored_mass_is_the_product_of_its_blocks():
    # a table block over (c, a), listed against the algebra's order, times b
    table = (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10))
    marginal = Fraction(1, 3)
    p = ProbAssignment(algebra("a b c"), blocks=(
        Block(("c", "a"), table), Block(("b",), (1 - marginal, marginal))))
    assert "mass" not in vars(p)  # built on first use
    for atom in range(8):
        a, b, c = atom & 1, atom >> 1 & 1, atom >> 2 & 1
        assert p.mass[atom] == table[c | a << 1] * (marginal if b else 1 - marginal)
    assert p.mass is p.mass  # built once
    assert p.of_event(0b11001100) == marginal  # the atoms holding b


def test_distribution_file_gives_blocks():
    p = ProbAssignment.from_text("events: a b c\nindependent: a=1/2 b=1/3 c=0\n")
    assert [b.events for b in p.blocks] == [("a",), ("b",), ("c",)]
    assert [b.mass for b in p.blocks] == [(F2, F2), (Fraction(2, 3), Fraction(1, 3)),
                                          (1, 0)]
    p = ProbAssignment.from_text(
        "events: a b\natom {}: 1/8\natom {a}: 1/8\natom {b}: 1/4\natom {a b}: 1/2\n")
    assert [b.events for b in p.blocks] == [("a", "b")]
    assert p.mass is p.blocks[0].mass


@pytest.mark.parametrize("line, message", [
    ("independent: a=3/2 b=1/2", "marginal for 'a' is 3/2, outside [0, 1]"),
    ("independent: a=-1/2 b=1/2", "marginal for 'a' is -1/2, outside [0, 1]"),
    ("independent: a=1/2", "missing marginals for: ['b']"),
    ("independent: a=1/2 b=1/2 z=1/2", "marginals for unknown events: ['z']"),
    ("atom {}: 1/2\natom {a}: 1/4\natom {b}: 0\natom {a b}: 0",
     "masses must sum to exactly 1"),
    ("atom {}: 3/2\natom {a}: -1/2\natom {b}: 0\natom {a b}: 0",
     "negative mass -1/2 for atom {a}"),
    ("independent: a=1/2 b=1/2 a=1/3", "marginal for 'a' listed twice"),
    ("atom {}: 1/2\natom {c}: 1/2", "unknown event: 'c'"),
    # an empty event name is a malformed marginal, reported in item order
    ("independent: =1/2", "malformed marginal '=1/2'"),
    ("independent: a=1/2 =1/3", "malformed marginal '=1/3'"),
    ("independent: a=1/2 =1/3 a=1/4", "malformed marginal '=1/3'"),
])
def test_distribution_file_errors_keep_their_messages(line, message):
    with pytest.raises(ValueError) as info:
        ProbAssignment.from_text(f"events: a b\n{line}\n")
    assert str(info.value) == message


def test_independent_line_may_name_more_events_than_a_table():
    names = [f"e{i}" for i in range(20)]
    p = ProbAssignment.from_text(
        f"events: {' '.join(names)}\nindependent: "
        + " ".join(f"{n}=1/2" for n in names))
    assert len(p.blocks) == 20
    with pytest.raises(ValueError, match="20 basic events exceed the limit 16"):
        p.mass
    with pytest.raises(ValueError, match="17 basic events exceed the limit 16"):
        ProbAssignment.from_text(f"events: {' '.join(names[:17])}\natom {{}}: 1\n")


def test_integer_view_is_mass_times_den():
    factored = ProbAssignment(algebra("a b c"), blocks=(
        Block(("c", "a"), (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10),
                           Fraction(2, 5))),
        Block(("b",), (Fraction(4, 7), Fraction(3, 7)))))
    independent = ProbAssignment.independent(
        algebra("a b c"), {"a": Fraction(1, 6), "b": Fraction(3, 4), "c": 0})
    cases = [(MIXED_TABLE_AB, 12), (MIXED_INDEPENDENT_AB, 35),
             (factored, 10 * 7), (factored.restrict(0b10), 7),
             (factored.restrict(0b01), 10), (independent, 6 * 4 * 1),
             (independent.restrict(0b110), 4)]
    rng = random.Random(17)
    for _ in range(10):  # random atom tables over mixed denominators
        alg = algebra("a b c")
        raw = [Fraction(rng.randint(0, 4), rng.randint(1, 6)) for _ in range(8)]
        if not any(raw):
            raw[0] = Fraction(1)
        mass = tuple(m / sum(raw) for m in raw)
        cases.append((ProbAssignment(alg, mass), lcm(*(m.denominator for m in mass))))
    for p, want_den in cases:
        den, weights = p.weights
        assert den == want_den  # the product of the blocks' LCDs
        assert len(weights) == p.alg.num_atoms
        assert all(type(w) is int and w == m * den for w, m in zip(weights, p.mass))
        for mask in range(1 << p.alg.num_atoms):
            want = sum((m for a, m in enumerate(p.mass) if mask >> a & 1), Fraction(0))
            assert p.of_event(mask) == want
            assert type(p.weight(mask)) is int
            assert p.weight(mask) == p.of_event(mask) * den


def test_defined_ratio_on_weights_and_masses():
    assert markov.defined_ratio(3, 1) == Fraction(3, 4)  # integer weights
    assert markov.defined_ratio(0, 5) == 0
    assert markov.defined_ratio(Fraction(1, 6), Fraction(1, 3)) == Fraction(1, 3)
    assert markov.defined_ratio(0, 0) is None
    assert markov.defined_ratio(Fraction(0), Fraction(0)) is None
    # a product-space leaf that is never defined has limit 0, not None
    assert prob_ps(parse_cea("(a|false)", ALG_AB), UNIFORM_AB) == 0


def test_restrict_keeps_the_marginal_of_its_blocks():
    p = ProbAssignment.independent(algebra("a b c"), {"a": Fraction(1, 3),
                                                      "b": F2, "c": Fraction(1, 5)})
    sub = p.restrict(0b101)
    assert sub.alg.events == ("a", "c")
    assert sub.mass == (Fraction(2, 3) * Fraction(4, 5), Fraction(1, 3) * Fraction(4, 5),
                        Fraction(2, 3) * Fraction(1, 5), Fraction(1, 3) * Fraction(1, 5))
    assert p.restrict(0b111) is p
    assert p.restrict(0).alg.events == ()
    assert sub.blocks == (p.blocks[0], p.blocks[2])  # the checked blocks, reused


def test_a_block_is_checked_when_it_is_made():
    with pytest.raises(ValueError) as info:
        Block(("a", "b"), (F2, F2))
    assert str(info.value) == "one mass per atom required"
    with pytest.raises(ValueError) as info:
        Block(("a", "b"), (Fraction(1), F2, Fraction(-1, 2), Fraction(0)))
    assert str(info.value) == "negative mass -1/2 for atom {b}"
    with pytest.raises(ValueError) as info:
        Block(("a", "b"), (F2, Fraction(1, 4), Fraction(0), Fraction(1, 6)))
    assert str(info.value) == "masses must sum to exactly 1"
    block = Block(("b", "a"), (Fraction(1, 6), Fraction(1, 3), F2, Fraction(0)))
    assert (block.den, block.weights) == (6, (1, 2, 3, 0))  # over the LCD
    assert block.mass == (Fraction(1, 6), Fraction(1, 3), F2, 0)



def test_restrict_makes_its_algebra_without_checking_names_again(monkeypatch):
    # a table block over (c, a), against the algebra's order, times b and d
    p = ProbAssignment(algebra("a b c d"), blocks=(
        Block(("c", "a"), (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10),
                           Fraction(2, 5))),
        Block(("b",), (F2, F2)), Block(("d",), (Fraction(1, 3), Fraction(2, 3)))))
    checks = []
    post_init = EventAlgebra.__post_init__
    monkeypatch.setattr(EventAlgebra, "__post_init__",
                        lambda self: checks.append(self) or post_init(self))
    for which in range(1 << len(p.blocks)):
        sub = p.restrict(which)
        names = {e for k, b in enumerate(p.blocks) if which >> k & 1 for e in b.events}
        # the algebra's own order, as before: not the blocks' order
        assert sub.alg.events == tuple(e for e in p.alg.events if e in names)
        assert sub.alg == EventAlgebra(sub.alg.events)
        checks.pop()  # the reference algebra just made
        assert checks == [], which
    assert p.restrict(0b101).alg.events == ("a", "c", "d")


def test_block_table_numbers_the_events_block_by_block():
    blocks = (Block(("c", "a"), (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10),
                                 Fraction(2, 5))),
              Block(("b",), (Fraction(2, 3), Fraction(1, 3))))
    den, weights = markov.block_table(blocks)
    # bit 0 is c, bit 1 is a, bit 2 is b; each block's absent half first
    assert (den, weights) == (30, [2, 4, 6, 8, 1, 2, 3, 4])
    assert markov.block_table(()) == (1, [1])
    # the algebra's table reads the same weights in its own order
    p = ProbAssignment(algebra("a b c"), blocks=blocks)
    assert p.weights == (30, tuple(weights[(a >> 2 & 1) | (a & 1) << 1 | (a >> 1 & 1) << 2]
                                   for a in range(8)))

@pytest.mark.parametrize("events", [("a",), ("a", "b", "b"), ("a", "b", "c")])
def test_blocks_must_partition_the_events(events):
    blocks = tuple(Block((e,), (F2, F2)) for e in events)
    with pytest.raises(ValueError) as info:
        ProbAssignment(ALG_AB, blocks=blocks)
    assert str(info.value) == "blocks must partition the events"


def test_independent_reads_int_str_and_fraction_marginals_alike():
    alg = algebra("a b c")
    given_as = [{"a": 0, "b": 1, "c": Fraction(1, 2)},
                {"a": "0", "b": "1", "c": "2/4"},
                {"a": Fraction(0), "b": Fraction(1), "c": Fraction(2, 4)}]
    dists = [ProbAssignment.independent(alg, probs) for probs in given_as]
    for p in dists:
        assert [(b.events, b.den, b.weights) for b in p.blocks] == [
            (("a",), 1, (1, 0)), (("b",), 1, (0, 1)), (("c",), 2, (1, 1))]
        assert p.mass == dists[0].mass


# ---------------------------------------------------------------------------
# Integer blocks against a Fraction reference

# Marginals and masses in every literal form: plain ASCII ``n`` and ``n/d``
# (unreduced, leading zeros, 0/7, 7/7, 30 digits), which the integer reader
# reads by ``int`` and one gcd, and the forms it leaves to ``Fraction``
IN_RANGE_TEXTS = ("2/5", "04/10", "006/015", "0/7", "7/7", "0", "1", "01", "000",
                  "1/3", "7/0007", "1" * 30 + "/" + "1" * 30 + "3",
                  "0.4", "4e-1", "+2/5", "1_0/25", "\u0663/5", "1/\u0663", ".5",
                  "5E-1", "00.25", "+0", "-0", "-0/3")
OTHER_TEXTS = ("3/2", "-1/2", "-1/4", "2", "1" * 30, "1/0", "0/0", "x", "=1/2", "1/2/3",
               "/5", "5/", "\u00bd", "\u00b2/3", "2/-5", "1__0/25", "0x1")


def _value_text(draw):
    return draw(st.sampled_from(OTHER_TEXTS if draw(st.integers(0, 24)) == 0
                                else IN_RANGE_TEXTS))


def _perturbed(draw, entries, extra):
    """``entries`` with, now and then, one dropped, one repeated and each of
    ``extra`` added, in any order."""
    entries = list(entries)
    if len(entries) > 1 and draw(st.integers(0, 9)) == 0:
        entries.pop(draw(st.integers(0, len(entries) - 1)))
    if draw(st.integers(0, 9)) == 0:
        entries.append(draw(st.sampled_from(entries)))
    entries += [x for x in extra if draw(st.integers(0, 19)) == 0]
    return draw(st.permutations(entries))


@st.composite
def independent_texts(draw):
    """An ``independent:`` line over 1..20 events."""
    names = [f"e{i}" for i in range(draw(st.integers(1, 20)))]
    items = _perturbed(draw, [f"{e}={_value_text(draw)}" for e in names],
                       ("z=1/2", "=1/3", "e0", "e0=", "E0=1/2"))
    return f"events: {' '.join(names)}\nindependent: {' '.join(items)}\n"


def _mass_forms(w, total):
    """``w / total`` written in each literal form that a file may use."""
    forms = [f"{w}/{total}", str(Fraction(w, total)), f"0{w * 3}/{total * 3}",
             f"+{w}/{total}", f"{w}/{total}".replace("1", "\u0661")]
    if 100 % total == 0:
        cents = w * (100 // total)
        forms += [f"{cents // 100}.{cents % 100:02d}", f"{cents}e-2"]
    return forms


@st.composite
def table_texts(draw):
    """An atom table over 1..4 events: masses that sum to 1, written in
    mixed forms, now and then one of them replaced by any value text."""
    names = ("a", "b", "c", "d")[:draw(st.integers(1, 4))]
    alg = algebra(names)
    total = draw(st.sampled_from((1, 2, 5, 10, 12, 17, 100)))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=alg.num_atoms - 1,
                                max_size=alg.num_atoms - 1)))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    values = [draw(st.sampled_from(_mass_forms(w, total))) for w in weights]
    if draw(st.integers(0, 4)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(OTHER_TEXTS))
    lines = [f"atom {alg.atom_text(a)}: {v}" for a, v in enumerate(values)]
    lines = _perturbed(draw, lines, ("atom {z}: 0", "atom {a: 1", "# a comment", "",
                                     "atom{}:1"))
    return f"events: {' '.join(names)}\n" + "\n".join(lines) + "\n"


def _read(reader, text):
    """The blocks a reader gives, or the type and text of its error."""
    try:
        p = reader(text)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return p.alg.events, [(b.events, b.den, b.weights) for b in p.blocks]


@settings(max_examples=800, deadline=None, derandomize=True)
@given(st.one_of(independent_texts(), table_texts()))
def test_integer_reader_equals_the_fraction_reference(text):
    assert _read(ProbAssignment.from_text, text) == _read(from_text_reference, text)


MARGINAL_TEXTS = ("0", "1", "2/4", "1/3", "0/5", "3/3", "6/9", "5/7")


@st.composite
def distributions_with_reference(draw):
    """A distribution over 1..4 events and, computed from the input
    rationals alone, the reference: each block's events and local masses."""
    kind = draw(st.sampled_from(["independent", "table", "pair"]))
    names = ("a", "b", "c", "d")[:draw(st.integers(1 if kind != "pair" else 3, 4))]
    alg = algebra(names)
    if kind == "independent":
        texts = {e: draw(st.sampled_from(MARGINAL_TEXTS)) for e in names}
        p = ProbAssignment.from_text(
            f"events: {' '.join(names)}\nindependent: "
            + " ".join(f"{e}={t}" for e, t in texts.items()))
        return p, [((e,), (1 - Fraction(t), Fraction(t))) for e, t in texts.items()]
    if kind == "table":
        raw = draw(st.lists(st.integers(0, 4), min_size=1 << len(names),
                            max_size=1 << len(names)))
        raw[draw(st.integers(0, len(raw) - 1))] += 1
        total = sum(raw) * draw(st.integers(1, 3))  # unreduced texts
        raw = [w * (total // sum(raw)) for w in raw]
        lines = [f"atom {alg.atom_text(a)}: {w}/{total}" for a, w in enumerate(raw)]
        p = ProbAssignment.from_text(f"events: {' '.join(names)}\n" + "\n".join(
            draw(st.permutations(lines))))
        return p, [(names, tuple(Fraction(w, total) for w in raw))]
    pair = tuple(draw(st.permutations(names))[:2])
    raw = draw(st.lists(st.integers(0, 5), min_size=4, max_size=4))
    raw[0] += not any(raw)
    ref = [(pair, tuple(Fraction(w, sum(raw)) for w in raw))]
    for e in names:
        if e not in pair:
            m = Fraction(draw(st.sampled_from(MARGINAL_TEXTS)))
            ref.append(((e,), (1 - m, m)))
    ref = draw(st.permutations(ref))
    return ProbAssignment(alg, blocks=tuple(Block(*b) for b in ref)), ref


def _reference_mass(events, ref):
    """The flat table over ``events`` (a union of the reference's blocks,
    here in any order): each atom's mass the product of its blocks'."""
    mass = []
    for atom in range(1 << len(events)):
        holds = {e for i, e in enumerate(events) if atom >> i & 1}
        m = Fraction(1)
        for names, local in ref:
            m *= local[sum(1 << i for i, e in enumerate(names) if e in holds)]
        mass.append(m)
    return tuple(mass)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(distributions_with_reference(), st.data())
def test_integer_blocks_equal_the_fraction_reference(case, data):
    p, ref = case
    events = p.alg.events
    want = _reference_mass(events, ref)
    assert p.mass == want
    den, weights = p.weights
    assert den == prod(lcm(*(m.denominator for m in local)) for _, local in ref)
    assert tuple(Fraction(w, den) for w in weights) == want
    for _ in range(5):
        mask = data.draw(st.integers(0, (1 << len(want)) - 1))
        assert p.weight(mask) == den * sum(
            (m for a, m in enumerate(want) if mask >> a & 1), Fraction(0))
    by_events = {names: (names, local) for names, local in ref}
    for which in range(1 << len(p.blocks)):
        kept = [by_events[p.blocks[k].events] for k in range(len(p.blocks))
                if which >> k & 1]
        names = {e for block, _ in kept for e in block}
        sub_events = tuple(e for e in events if e in names)
        # the reference marginal: the full table with the other events summed out
        marginal = [Fraction(0)] * (1 << len(sub_events))
        for atom, m in enumerate(want):
            marginal[sum(1 << j for j, e in enumerate(sub_events)
                         if atom >> events.index(e) & 1)] += m
        sub = p.restrict(which)
        assert sub.alg.events == sub_events
        assert sub.mass == tuple(marginal)
        assert sub.mass == _reference_mass(sub_events, kept)


# ---------------------------------------------------------------------------
# Chains from machines


def test_one_state_machine_gives_unit_chain():
    ch = _chain("(true|true)")
    assert (ch.den, ch.init_weights, ch.succ) == (1, (1,), (((0, 1),),))
    assert _tables(ch) == ((Fraction(1),), ((Fraction(1),),))


def test_first_resolution_chain_masses():
    ch = _chain("(O (a and b and not Y O b) | true)")
    # waiting state: self-loop 1/2 (condition absent), exits 1/4 and 1/4
    _, trans = _tables(ch)
    waiting = next(i for i in range(ch.n_states)
                   if trans[i][i] == F2 and ch.labels[i] is Value3.FALSE)
    exits = sorted(w for j, w in enumerate(trans[waiting]) if j != waiting)
    assert exits == [Fraction(1, 4), Fraction(1, 4)]


def test_rows_always_sum_to_one():
    for text, c in CORPUS:
        ch = chain_from_machine(minimize(compile_cond(c, ALG_AB)), SKEWED_AB)
        for pairs in ch.succ:
            assert sum(w for _, w in pairs) == ch.den
        assert sum(ch.init_weights) == ch.den


def _fraction_chain(m, p):
    """The chain as rational tables, one ``Fraction`` addition per atom and
    per class: how ``chain_from_machine`` built it before it took integer
    weights, kept as a reference."""
    class_mass = [sum((p.mass[atom] for atom in range(m.alg.num_atoms)
                       if mask >> atom & 1), Fraction(0)) for mask in m.classes]
    rows = []
    for q in list(range(m.n_states)) + [m.initial]:
        row = [Fraction(0)] * m.n_states
        for c, t in enumerate(m.delta[q]):
            row[t] += class_mass[c]
        rows.append(tuple(row))
    return rows[-1], tuple(rows[:-1])


def test_chain_from_machine_equals_the_fraction_reference():
    for p in (UNIFORM_AB, SKEWED_AB, MIXED_TABLE_AB, MIXED_INDEPENDENT_AB):
        for text, c in CORPUS:
            m = minimize(compile_cond(c, ALG_AB))
            ch = chain_from_machine(m, p)
            assert _tables(ch) == _fraction_chain(m, p), text
            for pairs in ch.succ:  # positive weights, one pair per successor, in order
                assert all(w > 0 for _, w in pairs), text
                assert [t for t, _ in pairs] == sorted({t for t, _ in pairs}), text
    # the atoms' common factor is divided out: b is not read, so the
    # weights of the classes a and not a are over 2, not 4
    assert _chain("(O a | true)").den == 2


def _class_of_atom(classes, num_atoms):
    """Atom -> index of the class mask that holds it."""
    return [next(c for c, mask in enumerate(classes) if mask >> atom & 1)
            for atom in range(num_atoms)]


def _assert_class_weights_equal_the_reference(p, classes):
    assert markov.class_weights(p, classes) == class_weights_reference(
        p, _class_of_atom(classes, p.alg.num_atoms), len(classes))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(distributions_with_reference(), st.data())
def test_class_weights_equal_the_atom_loop_reference(case, data):
    """The law from class masks equals the atom-by-atom law on the classes
    of compiled corpus machines, their letter classes and strong_indep's
    joint classes, over independent lines with 0 and 1 marginals and atom
    tables with zero atoms."""
    p, _ = case
    alg = p.alg
    conds = []
    for _ in range(2):  # a corpus conditional with a and b renamed into alg
        names = {"a": data.draw(st.sampled_from(alg.events)),
                 "b": data.draw(st.sampled_from(alg.events))}
        text = data.draw(st.sampled_from(CORPUS_TEXTS))
        conds.append(parse_cond(re.sub(r"\b[ab]\b", lambda m: names[m[0]], text), alg))
    c1, c2 = conds
    for classes in (compile_cond(c1, alg).classes, minimal_machine(c1, alg).classes,
                    leaf_classes(c1, alg)[2], [alg.full_event],
                    [1 << atom for atom in range(alg.num_atoms)]):
        _assert_class_weights_equal_the_reference(p, classes)
    with mock.patch.object(markov, "class_weights", wraps=markov.class_weights) as spy:
        strong_indep(c1, c2, p)
    assert spy.call_count == 1
    seen, joint = spy.call_args.args
    assert seen is p
    _assert_class_weights_equal_the_reference(p, joint)


def test_class_weights_on_zero_and_unit_marginals_and_zero_atoms():
    alg = algebra("a b c")
    table = ProbAssignment(alg, (Fraction(1, 2), 0, Fraction(1, 4), 0,
                                 Fraction(1, 4), 0, 0, 0))
    edge = ProbAssignment.from_text("events: a b c\nindependent: a=0 b=1 c=1/3")
    for p in (table, edge):
        for text in CORPUS_TEXTS:
            c = parse_cond(text, alg)
            for m in (compile_cond(c, alg), minimal_machine(c, alg)):
                _assert_class_weights_equal_the_reference(p, m.classes)
    # a class of zero weight keeps its place in the law; under ``edge`` only
    # the atoms {b} (2/3) and {b c} (1/3) weigh anything
    assert markov.class_weights(table, [0b10101010, 0b01010101]) == (1, [0, 1])
    assert markov.class_weights(edge, [0b001, 0b110, 0b11111000]) == (3, [0, 2, 1])


def test_hand_built_chain_round_trips_its_tables():
    zero = Fraction(0)
    init = (Fraction(1, 6), F2, Fraction(1, 3))
    trans = ((Fraction(1, 4), Fraction(3, 4), zero),
             (Fraction(2, 5), zero, Fraction(3, 5)),
             (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)))
    den = lcm(6, 2, 3, 4, 5, 7)
    succ = (((0, 105), (1, 315)), ((0, 168), (2, 252)), ((0, 60), (1, 120), (2, 240)))
    ch = MarkovChain3(den, [70, 210, 140], [list(pairs) for pairs in succ],
                      [Value3.TRUE, Value3.FALSE, Value3.UNDEF])
    assert (ch.den, ch.init_weights, ch.succ) == (420, (70, 210, 140), succ)
    assert ch.labels == (Value3.TRUE, Value3.FALSE, Value3.UNDEF)
    assert _tables(ch) == (init, trans)
    at_two = [sum(init[s] * trans[s][t] for s in range(3)) for t in range(3)]
    assert pr_n(ch, 2) == tuple(at_two)


def test_chain_weights_are_checked():
    labels = (Value3.TRUE, Value3.FALSE)
    with pytest.raises(ValueError, match="every transition row"):
        MarkovChain3(4, (4, 0), (((0, 3),), ((1, 4),)), labels)
    with pytest.raises(ValueError, match="initial distribution"):
        MarkovChain3(4, (3, 0), (((0, 4),), ((1, 4),)), labels)
    with pytest.raises(ValueError, match="negative"):
        MarkovChain3(4, (4, 0), (((0, 5), (1, -1)), ((1, 4),)), labels)
    with pytest.raises(ValueError, match="dimensions"):
        MarkovChain3(1, (1,), (((0, 1),),), labels)
    with pytest.raises(ValueError, match="dimensions"):
        MarkovChain3(1, (1, 0), (((0, 1),),), labels)


def test_negative_chain_entries_rejected():
    # rows summing to 1 with a negative entry: a "> 0" adjacency would drop
    # the -1 edge and answer TRUE = 1 for this chain
    labels = (Value3.TRUE, Value3.FALSE)
    with pytest.raises(ValueError, match="negative"):
        MarkovChain3(1, (1, 0), (((0, 2), (1, -1)), ((1, 1),)), labels)
    with pytest.raises(ValueError, match="negative"):
        MarkovChain3(1, (2, -1), (((0, 1),), ((1, 1),)), labels)


def test_alphabet_mismatch_rejected():
    m = minimize(compile_cond(parse_cond("(a|b)", ALG_AB), ALG_AB))
    other = ProbAssignment.independent(algebra("a b c"), dict.fromkeys("abc", F2))
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


def test_pr_n_at_a_large_time_equals_the_closed_form():
    """(a S b | O b) at time n: undefined while no b has come, Pr (1-q)^n;
    1 when a held at every step since the latest b, Pr q (1 - s^n) / (1 - s)
    with q = Pr b and s = Pr(a and not b)."""
    p = ProbAssignment.independent(ALG_AB, {"a": Fraction(2, 7), "b": Fraction(3, 11)})
    ch = _chain("(a S b | O b)", p)
    q, s = Fraction(3, 11), Fraction(2, 7) * Fraction(8, 11)
    for n in (1, 2, 3000):
        p1, pbot = q * (1 - s ** n) / (1 - s), (1 - q) ** n
        assert pr_n(ch, n) == (p1, 1 - p1 - pbot, pbot), n
        assert pr_n_ratio(ch, n) == p1 / (1 - pbot), n


def _fraction_step(dist, succ):
    out = [Fraction(0)] * len(dist)
    for i, w in enumerate(dist):
        if w:
            for t, p in succ[i]:
                out[t] += w * p
    return out


def fraction_series(ch, n):
    """The series stepped as ``Fraction``s through the chain's rational
    rows: how ``pr_series`` stepped before it took integer weights, kept as
    a reference."""
    init, trans = _tables(ch)
    succ = [[(t, w) for t, w in enumerate(row) if w] for row in trans]
    dist = list(init)
    for t in range(1, n + 1):
        if t > 1:
            dist = _fraction_step(dist, succ)
        buckets = {Value3.TRUE: 0, Value3.FALSE: 0, Value3.UNDEF: 0}
        for w, lab in zip(dist, ch.labels):
            buckets[lab] += w
        yield buckets[Value3.TRUE], buckets[Value3.FALSE], buckets[Value3.UNDEF]


# distribution files for the series text: the two mixed-denominator
# distributions above, degenerate marginals and a table with zero atoms
SERIES_DISTS = [
    "events: a b\natom {}: 1/6\natom {a}: 1/3\natom {b}: 1/4\natom {a b}: 1/4\n",
    "events: a b\nindependent: a=2/5 b=3/7\n",
    "events: a b\nindependent: a=0 b=1\n",
    "events: a b\nindependent: a=1 b=0\n",
    "events: a b\natom {}: 0\natom {a}: 1/3\natom {b}: 0\natom {a b}: 2/3\n",
]


def test_cli_series_stdout_equals_the_fraction_reference(tmp_path, capsys):
    """``tlcond series`` prints each row as ``str`` of the ``Fraction``s of
    the rational reference, and "undef" for an undefined ratio."""
    from tlcond.cli import main
    assert ProbAssignment.from_text(SERIES_DISTS[0]).mass == MIXED_TABLE_AB.mass
    assert (ProbAssignment.from_text(SERIES_DISTS[1]).mass
            == MIXED_INDEPENDENT_AB.mass)
    cells = set()
    for k, text in enumerate(SERIES_DISTS):
        path = tmp_path / f"d{k}.dist"
        path.write_text(text)
        p = ProbAssignment.from_text(text)
        for expr, c in CORPUS:
            ch = chain_from_machine(minimize(compile_cond(c, p.alg)), p)
            rows = [(n, p1, p0, pbot, p1 / (p1 + p0) if p1 + p0 else "undef")
                    for n, (p1, p0, pbot) in enumerate(fraction_series(ch, 60), 1)]
            want = "n,p1,p0,pbot,ratio\n" + "".join(
                ",".join(map(str, row)) + "\n" for row in rows)
            code = main(["series", "--expr", expr, "--dist", str(path), "--n", "60"])
            assert (code, *capsys.readouterr()) == (0, want, ""), (text, expr)
            cells.update(str(x) for row in rows for x in row[1:])
    assert {"0", "1", "undef"} <= cells


def test_pr_series_equals_the_fraction_reference():
    for p in (MIXED_TABLE_AB, MIXED_INDEPENDENT_AB):
        for text, c in CORPUS:
            ch = chain_from_machine(minimize(compile_cond(c, ALG_AB)), p)
            rows = list(pr_series(ch, 60))
            assert rows == list(fraction_series(ch, 60)), text
            assert all(type(x) is Fraction for row in rows for x in row), text


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


def test_stationary_laws_of_corpus_closed_classes_are_fixed_points():
    for p in (UNIFORM_AB, SKEWED_AB):
        for text, c in CORPUS:
            ch = chain_from_machine(minimize(compile_cond(c, ALG_AB)), p)
            _, trans = _tables(ch)
            adj = [[t for t, _ in pairs] for pairs in ch.succ]
            for comp in _sccs(ch.n_states, adj):
                if any(t not in comp for s in comp for t in adj[s]):
                    continue  # not closed
                pi = stationary_distribution(ch, comp)
                assert sum(pi.values()) == 1, text
                for t in comp:
                    assert sum(pi[s] * trans[s][t] for s in comp) == pi[t], text


def test_limiting_masses_of_a_hand_built_absorbing_chain():
    # transient state 0 enters the closed class {1, 2} by both of its states
    # (mass 1/2 of the 3/4 that leaves) and the absorbing state 3 (1/4)
    # (rows 1/4 each; 1/2, 1/2; 1/3, 2/3; 1 as weights over 12)
    ch = MarkovChain3(
        12, (12, 0, 0, 0),
        (((0, 3), (1, 3), (2, 3), (3, 3)), ((1, 6), (2, 6)), ((1, 4), (2, 8)),
         ((3, 12),)),
        (Value3.UNDEF, Value3.TRUE, Value3.FALSE, Value3.FALSE))
    # the class's stationary law is (2/5, 3/5); it absorbs 2/3 of the mass
    assert limiting_label_masses(ch) == {Value3.TRUE: Fraction(4, 15),
                                         Value3.FALSE: Fraction(11, 15),
                                         Value3.UNDEF: 0}


def _deep_past_limit(num, depth, probs):
    alg = algebra("a b")
    p = ProbAssignment.independent(alg, probs)
    c = parse_cond(f"({num} | {'Y ' * depth}true)", alg)
    return asymptotic(chain_from_machine(minimize(compile_cond(c, alg)), p))


def test_deep_past_limits_on_large_closed_classes():
    # the chains have 255 transient states and a 256-state closed class,
    # and 127 transient states and a 128-state closed class
    probs = {"a": Fraction(2, 5), "b": Fraction(3, 7)}
    assert _deep_past_limit("Y " * 7 + "a", 7, probs) == probs["a"]
    assert (_deep_past_limit("Y " * 6 + "a and " + "Y " * 3 + "b", 6, probs)
            == probs["a"] * probs["b"])


def _closed_walk_period(trans, comp):
    """gcd of the lengths m <= |comp| of the closed walks inside ``comp``:
    every simple cycle is one, so this is the class's period."""
    g, reached = 0, {s: {s} for s in comp}  # reached[s]: where m steps lead
    for m in range(1, len(comp) + 1):
        reached = {s: {t for u in reached[s] for t in comp if trans[u][t]} for s in comp}
        if any(s in reached[s] for s in comp):
            g = gcd(g, m)
    return g


def _full_solve_masses(ch):
    """Limiting label masses from dense ``Fraction`` tables, with every
    absorption and every stationary law solved by ``dense_solve_reference``:
    no shortcut and no code of ``markov``'s limit.  A closed class is the
    set a state reaches when everything it reaches reaches it back.  Raises
    ``PeriodicChainError`` when a closed class that keeps mass is periodic."""
    init, trans = _tables(ch)
    n = ch.n_states
    reach = []  # the states reachable from s in one or more steps
    for s in range(n):
        seen, todo = set(), [s]
        while todo:
            for t, x in enumerate(trans[todo.pop()]):
                if x and t not in seen:
                    seen.add(t)
                    todo.append(t)
        reach.append(seen)
    closed = []
    for s in range(n):
        comp = sorted(reach[s])
        if all(s in reach[t] for t in comp) and comp not in closed:
            closed.append(comp)
    transient = [s for s in range(n) if not any(s in c for c in closed)]
    absorb = [sum((init[s] for s in c), Fraction(0)) for c in closed]
    if transient:
        b = dense_solve_reference(
            [[(s == t) - trans[s][t] for t in transient] for s in transient],
            [[sum(trans[s][t] for t in c) for c in closed] for s in transient])
        for i, s in enumerate(transient):
            for k in range(len(closed)):
                absorb[k] += init[s] * b[i][k]
    masses = {Value3.TRUE: 0, Value3.FALSE: 0, Value3.UNDEF: 0}
    for k, c in enumerate(closed):
        if absorb[k]:
            if _closed_walk_period(trans, c) != 1:
                raise PeriodicChainError("periodic")
            # pi (P - Id) = 0 over the class, the last equation sum(pi) = 1
            a = [[trans[s][t] - (s == t) for s in c] for t in c]
            a[-1] = [1] * len(c)
            pi = dense_solve_reference(a, [[0]] * (len(c) - 1) + [[1]])
            for i, s in enumerate(c):
                masses[ch.labels[s]] += absorb[k] * pi[i][0]
    return masses


def test_limit_shortcuts_equal_the_full_solve():
    seen = set()  # (closed classes in the chain, states of a closed class)
    for p in (UNIFORM_AB, SKEWED_AB):
        for text, c in CORPUS:
            ch = chain_from_machine(minimize(compile_cond(c, ALG_AB)), p)
            assert limiting_label_masses(ch) == _full_solve_masses(ch), text
            adj = [[t for t, _ in row] for row in ch.succ]
            closed = [comp for comp in _sccs(ch.n_states, adj)
                      if all(t in comp for s in comp for t in adj[s])]
            seen |= {(min(len(closed), 2), min(len(comp), 2)) for comp in closed}
    # a lone closed class of one and of several states; one-state classes
    # among several
    assert {(1, 1), (1, 2), (2, 1)} <= seen


@st.composite
def integer_chains(draw):
    """Chains of 1..8 states over den 2..12 with random weights and labels.
    The states from ``split`` on fall in up to three groups that no
    transition leaves, so several closed classes are common; the states
    before it step anywhere, and the initial mass often sits on them alone."""
    n = draw(st.integers(1, 8))
    den = draw(st.integers(2, 12))
    split = draw(st.integers(0, n - 1))
    group = [None] * split + draw(st.lists(st.integers(0, 2), min_size=n - split,
                                           max_size=n - split))

    def weights_over(states):
        # den cut into one part per drawn target; parts of one target add up
        targets = draw(st.lists(st.sampled_from(states), min_size=1, max_size=4))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=len(targets) - 1,
                                    max_size=len(targets) - 1)))
        out = dict.fromkeys(sorted(targets), 0)
        for t, lo, hi in zip(targets, [0, *cuts], [*cuts, den]):
            out[t] += hi - lo
        return [(t, w) for t, w in out.items() if w]

    succ = [weights_over([t for t in range(n) if group[s] is None or group[t] == group[s]])
            for s in range(n)]
    first = list(range(split)) if split and draw(st.booleans()) else list(range(n))
    init = dict(weights_over(first))
    labels = draw(st.lists(st.sampled_from(list(Value3)), min_size=n, max_size=n))
    return MarkovChain3(den, [init.get(s, 0) for s in range(n)], succ, labels)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(integer_chains())
def test_limit_equals_the_dense_reference_on_random_integer_chains(ch):
    try:
        want = _full_solve_masses(ch)
    except PeriodicChainError:
        with pytest.raises(PeriodicChainError):
            limiting_label_masses(ch)
        return
    assert limiting_label_masses(ch) == want


def _assert_limit_walks_equal_the_references(ch):
    """The two-pass components are Tarjan's, compared as sets, and every
    closed class, periodic or not, has the sum-row system's stationary law."""
    adj = [[t for t, _ in row] for row in ch.succ]
    comps = _sccs(ch.n_states, adj)
    assert (sorted(sorted(c) for c in comps)
            == sorted(sorted(c) for c in sccs_reference(ch.n_states, adj)))
    for comp in comps:
        members = set(comp)
        if all(t in members for s in comp for t in adj[s]):
            assert (stationary_distribution(ch, comp)
                    == stationary_distribution_reference(ch, comp))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_chains())
def test_limit_walks_equal_the_references_on_random_integer_chains(ch):
    _assert_limit_walks_equal_the_references(ch)


def test_limit_walks_equal_the_references_on_corpus_chains():
    zero_atom = ProbAssignment(
        ALG_AB, (Fraction(0), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    for p in (UNIFORM_AB, SKEWED_AB, zero_atom):
        for text, c in CORPUS:
            _assert_limit_walks_equal_the_references(
                chain_from_machine(minimize(compile_cond(c, ALG_AB)), p))


def test_deep_past_conditional_runs_no_transient_solve(monkeypatch):
    # one closed class (the 128 histories of a) behind 127 transient states:
    # only the stationary system is solved, over the 127 states besides the
    # class's reference state
    dims = []
    solve = markov.solve_linear
    monkeypatch.setattr(markov, "solve_linear",
                        lambda a, b: dims.append(len(a)) or solve(a, b))
    alg = algebra("a")
    p = ProbAssignment.independent(alg, {"a": Fraction(2, 7)})
    c = parse_cond(f"({'Y ' * 6}a | {'Y ' * 6}true)", alg)
    ch = chain_from_machine(minimize(compile_cond(c, alg)), p)
    assert asymptotic(ch) == Fraction(2, 7)
    assert dims == [127]


def test_first_resolution_limit_solves_no_stationary_system(monkeypatch):
    # two one-state closed classes (resolved true, resolved false): only the
    # one-state transient system is solved
    dims = []
    solve = markov.solve_linear
    monkeypatch.setattr(markov, "solve_linear",
                        lambda a, b: dims.append(len(a)) or solve(a, b))
    ch = _chain("(O (a and b and not Y O b) | true)", SKEWED_AB)
    assert asymptotic(ch) == Fraction(1, 3)
    assert dims == [1]


def test_periodic_reachable_class_fails_loudly():
    # hand-built two-state flip-flop: the distribution alternates forever
    ch = MarkovChain3(1, (1, 0), (((1, 1),), ((0, 1),)), (Value3.TRUE, Value3.FALSE))
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
    from machines import machine_from_atom_table
    from tlcond.trivalue import Value3 as V

    rng = random.Random(51)
    alg = ALG_AB
    checked = skipped = 0
    while checked < 40:
        n = rng.randint(1, 6)
        labels = [rng.choice((V.FALSE, V.TRUE, V.UNDEF)) for _ in range(n)]
        table = [[rng.randrange(n) for _ in range(alg.num_atoms)]
                 for _ in range(n)]
        m = machine_from_atom_table(alg, labels, table, initial=0)
        p = _random_dist_local(rng, alg)
        ch = chain_from_machine(m, p)
        try:
            masses = limiting_label_masses(ch)
        except PeriodicChainError:
            skipped += 1
            continue
        assert sum(masses.values()) == 1

        # long float iteration as an independent approximation of the limit
        init, trans = _tables(ch)
        dist = [float(x) for x in init]
        trans = [[float(x) for x in row] for row in trans]
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


def test_solve_linear_exact():
    x = solve_linear([{0: 2, 1: 1, 2: 3}, {0: 1, 1: 3, 2: 5}], 1)
    assert x == [[Fraction(4, 5)], [Fraction(7, 5)]]


def test_absorbing_solve_scalar():
    # the absorption system (den Id - Q) B = R, solved by solve_linear:
    # Q = 1/2 and R = (1/4, 1/4) over den 4 give B = (1/2, 1/2)
    assert solve_linear([{0: 2, 1: 1, 2: 1}], 2) == [[F2, F2]]


def test_absorbing_solve_identity_case():
    # the absorption system with Q = 0, solved by solve_linear, gives B = R
    assert solve_linear([{0: 3, 2: 1, 3: 2}, {1: 1, 2: 1}], 2) == [
        [Fraction(1, 3), Fraction(2, 3)], [Fraction(1), Fraction(0)]]


def test_absorption_rows_sum_to_one_on_random_chains():
    rng = random.Random(7)
    for _ in range(25):
        nt, na = rng.randint(1, 4), rng.randint(1, 3)
        rows = []
        for i in range(nt):
            weights = [rng.randint(0, 5) for _ in range(nt + na)]
            # guarantee some absorbing mass so absorption is certain
            weights[nt + rng.randrange(na)] += 1
            # transient state i's row over its total: (total Id - Q) B = R
            row = {t: -w for t, w in enumerate(weights[:nt]) if w}
            row[i] = row.get(i, 0) + sum(weights)
            row.update((nt + k, w) for k, w in enumerate(weights[nt:]) if w)
            rows.append(row)
        for row in solve_linear(rows, na):
            assert sum(row) == 1


def test_singular_system_is_reported():
    with pytest.raises(SingularMatrixError):
        solve_linear([{1: 1}], 1)  # Id - Q = 0
    with pytest.raises(SingularMatrixError):
        solve_linear([{0: 1, 2: 1}, {0: 2, 2: 3}], 1)  # no row holds column 1


def dense_solve_reference(a, b):
    """Dense Gauss-Jordan elimination with first-nonzero pivoting: the
    solver ``solve_linear`` replaced, kept as a reference."""
    n = len(a)
    m = [list(map(Fraction, row_a)) + list(map(Fraction, row_b))
         for row_a, row_b in zip(a, b)]
    width = len(m[0]) if m else 0
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                row, prow = m[r], m[col]
                for c in range(col, width):
                    if prow[c]:
                        row[c] -= factor * prow[c]
    return [row[n:] for row in m]


_NUMERATORS = st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4))
# entries over one small denominator set, Python ints, and Fractions whose
# denominators differ within a row
_NONZERO = {
    "fraction": st.builds(Fraction, _NUMERATORS, st.sampled_from((1, 2, 3))),
    "integer": st.builds(lambda x, s: x * s, _NUMERATORS, st.sampled_from((1, 5, 12))),
    "mixed": st.builds(Fraction, _NUMERATORS, st.sampled_from((1, 2, 5, 6, 7, 12))),
}


@st.composite
def linear_systems(draw):
    """Square systems with n = 1..6 and 1..3 right-hand sides: dense or
    sparse, over Fractions, ints or rows of unequal denominators, with a row
    made a multiple of another to force some singular."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    nonzero = _NONZERO[draw(st.sampled_from(sorted(_NONZERO)))]
    zero = st.just(0) if nonzero is _NONZERO["integer"] else st.just(Fraction(0))
    any_cell = st.one_of(zero, nonzero)
    cell = nonzero if draw(st.booleans()) else any_cell
    cells = draw(st.lists(cell, min_size=n * n, max_size=n * n))
    a = [cells[i * n:(i + 1) * n] for i in range(n)]
    if n > 1 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        factor = draw(any_cell)
        a[i] = [factor * x for x in a[j]]
    cells = draw(st.lists(any_cell, min_size=n * k, max_size=n * k))
    b = [cells[i * k:(i + 1) * k] for i in range(n)]
    return a, b


def sparse_rows(a, b):
    """A dense rational system as ``solve_linear``'s rows: each row's
    nonzero entries (B's column j at n + j), scaled to integers by the row's
    least common denominator."""
    rows = []
    for row_a, row_b in zip(a, b):
        cells = {c: Fraction(x) for c, x in enumerate([*row_a, *row_b]) if x}
        scale = lcm(*(x.denominator for x in cells.values()))
        rows.append({c: int(x * scale) for c, x in cells.items()})
    return rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(linear_systems())
def test_solve_linear_equals_dense_reference(system):
    a, b = system
    try:
        want = dense_solve_reference(a, b)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            solve_linear(sparse_rows(a, b), len(b[0]))
        return
    x = solve_linear(sparse_rows(a, b), len(b[0]))
    assert x == want
    assert all(type(v) is Fraction for row in x for v in row)
    n, k = len(a), len(b[0])
    for i in range(n):
        for j in range(k):
            assert sum(a[i][c] * x[c][j] for c in range(n)) == b[i][j]
    # the transposed system Y A = B^T, as limiting_label_masses solves for
    # absorption, is nonsingular with A
    a_t = [list(col) for col in zip(*a)]
    y = solve_linear(sparse_rows(a_t, b), k)
    assert y == dense_solve_reference(a_t, b)
    for i in range(n):
        for j in range(k):
            assert sum(y[c][j] * a[c][i] for c in range(n)) == b[i][j]
