"""Machines built from full transition tables, hand-built expected machines
shared by the automata and acceptance suites, a per-leaf product reference
for the first interpretation, fixed DOT texts of minimized compiled
machines, a tuple-keyed compiler that ``compile_cond`` must agree with
field for field, the per-atom and per-valuation present-tense interpreters
and the rewriting-rule reduction that the bit-parallel evaluator must agree
with, the ``Fraction``-dict strong-independence check that the integer
one must agree with, verdict and witness, the per-character tokenizer
whose tokens, lines and columns the one-scan tokenizer must reproduce, and
the distribution-file reader that makes a ``Fraction`` of every value, whose
blocks and errors the integer reader must reproduce, the atom-by-atom letter
law that the law from class masks must reproduce, and Tarjan's components
and the sum-row stationary system, which the two-pass components and the
reference-state stationary law must reproduce, and the merge-step DOT label
and brute-force prime implicants, which the labels from cofactored primes
must reproduce."""
import itertools
import re
from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple, Optional
from unittest import mock

from tlcond import (CeaAnd, CeaNeg, CeaOr, CeaSimple, CondObject, ProbAssignment,
                    TRUE, Value3, algebra, compile_cond, first_resolution, markov,
                    minimize, product, syntax, trivalue)
from tlcond.automata import MooreMachine3, _classes_from_columns
from tlcond.cea import DEFAULT_VARIABLE_CAP, _leaf
from tlcond.markov import Block
from tlcond.syntax import (_KEYWORDS, And, Atom, CeaCond, CeaExpr, CeaVar, Const,
                           EventAlgebra, Iff, Implies, Not, Or, ParseError, Prev,
                           Since, children, collect_simples, subformulas, walk)
from tlcond.trivalue import UnboundVariableError, apply_binary, apply_unary

F, T = Value3.FALSE, Value3.TRUE

ALG_AB = algebra("a b")
ALG_ABCD = algebra("a b c d")


def machine_from_atom_table(alg, labels, delta_by_atom, initial) -> MooreMachine3:
    """Build a machine from a full state x atom transition table."""
    classes, cols = _classes_from_columns(
        (tuple(row[atom] for row in delta_by_atom), 1 << atom)
        for atom in range(alg.num_atoms))
    delta = [[col[q] for col in cols] for q in range(len(delta_by_atom))]
    m = MooreMachine3(alg, initial, list(labels), delta, classes)
    m.validate()
    return m


def expected_first_machine() -> MooreMachine3:
    """The three-state machine of the first-resolution conditional on (a|b):
    a waiting state looping while b is absent, and two absorbing outcomes."""
    # atoms over {a, b}: 0 = {}, 1 = {a}, 2 = {b}, 3 = {a b}
    return machine_from_atom_table(
        ALG_AB,
        labels=[F, T, F],
        delta_by_atom=[[0, 0, 2, 1], [1, 1, 1, 1], [2, 2, 2, 2]],
        initial=0)


def expected_conjunction_machine() -> MooreMachine3:
    """The five-state machine of the first-interpretation of (a|b) and (c|d):
    waiting, two half-resolved states, and two absorbing outcomes."""
    I, TT, BB, M, W = range(5)

    def target(state, atom):
        a, b = bool(atom & 1), bool(atom & 2)
        c, d = bool(atom & 4), bool(atom & 8)
        if state == I:
            if b and d:
                return W if (a and c) else M
            if b:
                return TT if a else M
            if d:
                return BB if c else M
            return I
        if state == TT:
            return TT if not d else (W if c else M)
        if state == BB:
            return BB if not b else (W if a else M)
        return state  # M and W absorb

    table = [[target(s, atom) for atom in range(16)] for s in range(5)]
    return machine_from_atom_table(
        ALG_ABCD, labels=[F, F, F, F, T], delta_by_atom=table, initial=I)


def first_product_machine(e, alg) -> MooreMachine3:
    """The first interpretation built another way: the product of the
    minimized first-resolution machines of the leaves, labelled by the
    expression evaluated classically over the leaves' outputs."""
    leaves = collect_simples(e)
    parts = [minimize(compile_cond(
        CondObject(first_resolution(s.num_event, s.den_event), TRUE), alg))
        for s in leaves]

    def value(x, outputs) -> bool:
        if isinstance(x, CeaSimple):
            return next(outputs) is Value3.TRUE
        if isinstance(x, CeaNeg):
            return not value(x.child, outputs)
        left, right = value(x.left, outputs), value(x.right, outputs)
        if isinstance(x, CeaAnd):
            return left and right
        assert isinstance(x, CeaOr)
        return left or right

    return product(parts, lambda vals: Value3.from_bool(value(e, iter(vals))))


def assert_first_machine_shape(raw: MooreMachine3, n_leaves: int) -> None:
    """The compiled first interpretation of an expression over n leaves: no
    transition enters the start state, at most 3^n states are entered, and
    every entered state is labelled 0 or 1."""
    entered = {t for row in raw.delta for t in row}
    assert raw.initial not in entered
    assert len(entered) <= 3 ** n_leaves
    assert all(raw.labels[q] in (F, T) for q in entered)


def two_cycle_machine() -> MooreMachine3:
    alg = algebra("a")
    return machine_from_atom_table(
        alg, labels=[F, T], delta_by_atom=[[1, 1], [0, 0]], initial=0)


def event_text_reference(mask: int, alg: EventAlgebra) -> str:
    """The DOT label of an atom set by the classic minimization's merge step
    (Quine 1952; McCluskey 1956), whose unmerged terms are the prime
    implicants, and the greedy cover that ``event_text`` keeps."""
    if mask == alg.full_event:
        return "true"
    if mask == 0:
        return "false"
    nev = len(alg.events)
    # a term (care, value) fixes the events in ``care`` to their bits in
    # ``value``, and merges with the term that flips one of them
    atoms = [atom for atom in range(alg.num_atoms) if mask >> atom & 1]
    current = {((1 << nev) - 1, atom) for atom in atoms}
    primes: list[tuple[int, int]] = []
    while current:
        merged = set()
        for care, value in current:
            prime = True
            for i in range(nev):
                bit = 1 << i
                if care & bit and (care, value ^ bit) in current:
                    merged.add((care ^ bit, value & ~bit))
                    prime = False
            if prime:
                primes.append((care, value))
        current = merged

    def literals(term: tuple[int, int]) -> list[tuple[int, bool]]:
        care, value = term
        return [(i, bool(value >> i & 1)) for i in range(nev) if care >> i & 1]

    remaining = set(atoms)
    chosen = []
    for care, value in sorted(primes,
                              key=lambda t: (t[0].bit_count(), literals(t))):
        hit = {a for a in remaining if a & care == value}
        if hit:
            chosen.append(literals((care, value)))
            remaining -= hit
        if not remaining:
            break
    return " | ".join(
        "&".join(alg.events[i] if v else "!" + alg.events[i] for i, v in lits)
        for lits in chosen)


def primes_reference(f: int, n: int) -> set[tuple[int, int]]:
    """The prime implicants ``(care, value)`` of the atom set ``f`` over n
    events by brute force: the cubes inside ``f`` from which no literal can
    be dropped with the cube still inside ``f``."""
    def inside(care: int, value: int) -> bool:
        return all(f >> atom & 1 for atom in range(1 << n) if atom & care == value)

    return {(care, value) for care in range(1 << n) for value in range(1 << n)
            if value & ~care == 0 and inside(care, value)
            and not any(care >> i & 1 and inside(care ^ 1 << i, value & ~(1 << i))
                        for i in range(n))}


# Minimized machines as DOT text, fixed: the minimal machine and its
# numbering depend only on the conditional, not on how the raw machine
# is built.
MINIMAL_DOTS = [
    # the start folds into the state its successors agree with first
    ('tl', '(a | not c)', """\
digraph "machine" {
  rankdir=LR;
  __start [shape=point, label=""];
  q0 [shape=circle, label="0"];
  q1 [shape=circle, label="1"];
  q2 [shape=circle, label="⊥"];
  __start -> q0;
  q0 -> q0 [label="!a&!c"];
  q0 -> q1 [label="a&!c"];
  q0 -> q2 [label="c"];
  q1 -> q0 [label="!a&!c"];
  q1 -> q1 [label="a&!c"];
  q1 -> q2 [label="c"];
  q2 -> q0 [label="!a&!c"];
  q2 -> q1 [label="a&!c"];
  q2 -> q2 [label="c"];
}"""),
    ('tl', '(a | b)', """\
digraph "machine" {
  rankdir=LR;
  __start [shape=point, label=""];
  q0 [shape=circle, label="⊥"];
  q1 [shape=circle, label="0"];
  q2 [shape=circle, label="1"];
  __start -> q0;
  q0 -> q0 [label="!b"];
  q0 -> q1 [label="!a&b"];
  q0 -> q2 [label="a&b"];
  q1 -> q0 [label="!b"];
  q1 -> q1 [label="!a&b"];
  q1 -> q2 [label="a&b"];
  q2 -> q0 [label="!b"];
  q2 -> q1 [label="!a&b"];
  q2 -> q2 [label="a&b"];
}"""),
    ('tl', '(a S b | b S a)', """\
digraph "machine" {
  rankdir=LR;
  __start [shape=point, label=""];
  q0 [shape=circle, label="⊥"];
  q1 [shape=circle, label="0"];
  q2 [shape=circle, label="⊥"];
  q3 [shape=circle, label="1"];
  __start -> q0;
  q0 -> q0 [label="!a&!b"];
  q0 -> q1 [label="a&!b"];
  q0 -> q2 [label="!a&b"];
  q0 -> q3 [label="a&b"];
  q1 -> q0 [label="!a&!b"];
  q1 -> q1 [label="a&!b"];
  q1 -> q3 [label="b"];
  q2 -> q0 [label="!a&!b"];
  q2 -> q2 [label="!a&b"];
  q2 -> q3 [label="a"];
  q3 -> q0 [label="!a&!b"];
  q3 -> q3 [label="a | b"];
}"""),
    ('tl', '(H (a -> b) | O a)', """\
digraph "machine" {
  rankdir=LR;
  __start [shape=point, label=""];
  q0 [shape=circle, label="⊥"];
  q1 [shape=circle, label="0"];
  q2 [shape=circle, label="1"];
  __start -> q0;
  q0 -> q0 [label="!a"];
  q0 -> q1 [label="a&!b"];
  q0 -> q2 [label="a&b"];
  q1 -> q1 [label="true"];
  q2 -> q1 [label="a&!b"];
  q2 -> q2 [label="!a | b"];
}"""),
    ('tl', '(a <-> Y a | Y true)', """\
digraph "machine" {
  rankdir=LR;
  __start [shape=point, label=""];
  q0 [shape=circle, label="⊥"];
  q1 [shape=circle, label="⊥"];
  q2 [shape=circle, label="⊥"];
  q3 [shape=circle, label="1"];
  q4 [shape=circle, label="0"];
  q5 [shape=circle, label="0"];
  q6 [shape=circle, label="1"];
  __start -> q0;
  q0 -> q1 [label="!a"];
  q0 -> q2 [label="a"];
  q1 -> q3 [label="!a"];
  q1 -> q4 [label="a"];
  q2 -> q5 [label="!a"];
  q2 -> q6 [label="a"];
  q3 -> q3 [label="!a"];
  q3 -> q4 [label="a"];
  q4 -> q5 [label="!a"];
  q4 -> q6 [label="a"];
  q5 -> q3 [label="!a"];
  q5 -> q4 [label="a"];
  q6 -> q5 [label="!a"];
  q6 -> q6 [label="a"];
}"""),
    ('tl', '(not (a S b) | O b)', """\
digraph "machine" {
  rankdir=LR;
  __start [shape=point, label=""];
  q0 [shape=circle, label="⊥"];
  q1 [shape=circle, label="0"];
  q2 [shape=circle, label="1"];
  __start -> q0;
  q0 -> q0 [label="!b"];
  q0 -> q1 [label="b"];
  q1 -> q1 [label="a | b"];
  q1 -> q2 [label="!a&!b"];
  q2 -> q1 [label="b"];
  q2 -> q2 [label="!b"];
}"""),
    ('tl', '(O a and not Y O a | true)', """\
digraph "machine" {
  rankdir=LR;
  __start [shape=point, label=""];
  q0 [shape=circle, label="0"];
  q1 [shape=circle, label="1"];
  q2 [shape=circle, label="0"];
  __start -> q0;
  q0 -> q0 [label="!a"];
  q0 -> q1 [label="a"];
  q1 -> q2 [label="true"];
  q2 -> q2 [label="true"];
}"""),
    ('tl', '(a S (c or not d) | Y b -> O d)', """\
digraph "machine" {
  rankdir=LR;
  __start [shape=point, label=""];
  q0 [shape=circle, label="⊥"];
  q1 [shape=circle, label="1"];
  q2 [shape=circle, label="1"];
  q3 [shape=circle, label="0"];
  q4 [shape=circle, label="1"];
  q5 [shape=circle, label="⊥"];
  q6 [shape=circle, label="⊥"];
  __start -> q0;
  q0 -> q1 [label="!b&!d"];
  q0 -> q2 [label="b&!d"];
  q0 -> q3 [label="!c&d"];
  q0 -> q4 [label="c&d"];
  q1 -> q1 [label="!b&!d"];
  q1 -> q2 [label="b&!d"];
  q1 -> q3 [label="!a&!c&d"];
  q1 -> q4 [label="a&d | c&d"];
  q2 -> q3 [label="!a&!c&d"];
  q2 -> q4 [label="a&d | c&d"];
  q2 -> q5 [label="!b&!d"];
  q2 -> q6 [label="b&!d"];
  q3 -> q3 [label="!c&d"];
  q3 -> q4 [label="c | !d"];
  q4 -> q3 [label="!a&!c&d"];
  q4 -> q4 [label="a | c | !d"];
  q5 -> q1 [label="!b&!d"];
  q5 -> q2 [label="b&!d"];
  q5 -> q3 [label="!a&!c&d"];
  q5 -> q4 [label="a&d | c&d"];
  q6 -> q3 [label="!a&!c&d"];
  q6 -> q4 [label="a&d | c&d"];
  q6 -> q5 [label="!b&!d"];
  q6 -> q6 [label="b&!d"];
}"""),
    ('reverse', '(a|b) and (c|d)', """\
digraph "machine" {
  rankdir=LR;
  __start [shape=point, label=""];
  q0 [shape=circle, label="0"];
  q1 [shape=circle, label="0"];
  q2 [shape=circle, label="0"];
  q3 [shape=circle, label="1"];
  __start -> q0;
  q0 -> q0 [label="!a&!c | !a&!d | !b&!c | !b&!d"];
  q0 -> q1 [label="a&b&!c | a&b&!d"];
  q0 -> q2 [label="!a&c&d | !b&c&d"];
  q0 -> q3 [label="a&b&c&d"];
  q1 -> q0 [label="!a&b&!c | !a&b&!d"];
  q1 -> q1 [label="a&!c | a&!d | !b&!c | !b&!d"];
  q1 -> q2 [label="!a&b&c&d"];
  q1 -> q3 [label="a&c&d | !b&c&d"];
  q2 -> q0 [label="!a&!c&d | !b&!c&d"];
  q2 -> q1 [label="a&b&!c&d"];
  q2 -> q2 [label="!a&c | !a&!d | !b&c | !b&!d"];
  q2 -> q3 [label="a&b&c | a&b&!d"];
  q3 -> q0 [label="!a&b&!c&d"];
  q3 -> q1 [label="a&!c&d | !b&!c&d"];
  q3 -> q2 [label="!a&b&c | !a&b&!d"];
  q3 -> q3 [label="a&c | a&!d | !b&c | !b&!d"];
}"""),
    ('sparse', '(a|b)', """\
digraph "machine" {
  rankdir=LR;
  __start [shape=point, label=""];
  q0 [shape=circle, label="0"];
  q1 [shape=circle, label="0"];
  q2 [shape=circle, label="1"];
  q3 [shape=circle, label="⊥"];
  __start -> q0;
  q0 -> q0 [label="!b"];
  q0 -> q1 [label="!a&b"];
  q0 -> q2 [label="a&b"];
  q1 -> q1 [label="!a&b"];
  q1 -> q2 [label="a&b"];
  q1 -> q3 [label="!b"];
  q2 -> q1 [label="!a&b"];
  q2 -> q2 [label="a&b"];
  q2 -> q3 [label="!b"];
  q3 -> q1 [label="!a&b"];
  q3 -> q2 [label="a&b"];
  q3 -> q3 [label="!b"];
}"""),
]


def event_mask_reference(f, alg: EventAlgebra) -> int:
    """The set of atoms (bitmask) at which a present-tense formula holds,
    from one pass over its subformulas, children first, raising at the
    first one that is not present-tense; kept as a reference for
    ``event_mask``."""
    def column(i: int, num_atoms: int) -> int:
        return sum(1 << atom for atom in range(num_atoms) if atom >> i & 1)

    if type(f) is Atom:
        return column(alg.index(f.name), alg.num_atoms)
    full = alg.full_event
    vals: dict = {}  # subformula -> its atom set
    for x in subformulas([f]):
        kind = type(x)
        if kind is Atom:
            vals[x] = column(alg.index(x.name), full.bit_length())
        elif kind is Const:
            vals[x] = full if x.value else 0
        elif kind is Not:
            vals[x] = full ^ vals[x.child]
        elif kind in (And, Or, Implies, Iff):
            a, b = vals[x.left], vals[x.right]
            vals[x] = (a & b if kind is And else a | b if kind is Or
                       else (full ^ a) | b if kind is Implies else full ^ a ^ b)
        else:
            raise ValueError(f"not a present-tense formula: {x!r}")
    return vals[f]


def leaf_classes_reference(c: CondObject, alg: EventAlgebra) -> tuple:
    """``leaf_classes`` with a presence loop of its own and a walk of every
    leaf by ``event_mask_reference``, kept as a reference for it."""
    subs = subformulas([c.num, c.den])
    present: set = set()
    for f in subs:
        if not isinstance(f, (Prev, Since)) and all(
                x in present for x in children(f)):
            present.add(f)
    leaf_set = present & ({c.num, c.den} | {x for f in subs if f not in present
                                            for x in children(f)})
    subs = [f for f in subs if f not in present or f in leaf_set]
    leaves = [f for f in subs if f in leaf_set]
    parts = [((), alg.full_event)]
    for f in leaves:
        holds = event_mask_reference(f, alg)
        parts = [(key + (bit,), part) for key, mask in parts
                 for bit, part in ((1, mask & holds), (0, mask & ~holds)) if part]
    classes, keys = _classes_from_columns(parts)
    return tuple(subs), tuple(leaves), tuple(classes), tuple(keys)


def _reference_step(f, index: dict, slot: dict, full: int):
    """The closure computing ``f``'s class mask from the masks of the
    subformulas before it and the remembered masks (``full`` or 0)."""
    if isinstance(f, Not):
        a = index[f.child]
        return lambda vals, mem: full ^ vals[a]
    if isinstance(f, Prev):
        s = slot[index[f.child]]
        return lambda vals, mem: mem[s]
    a, b = index[f.left], index[f.right]
    if isinstance(f, And):
        return lambda vals, mem: vals[a] & vals[b]
    if isinstance(f, Or):
        return lambda vals, mem: vals[a] | vals[b]
    if isinstance(f, Implies):
        return lambda vals, mem: (full ^ vals[a]) | vals[b]
    if isinstance(f, Iff):
        return lambda vals, mem: full ^ vals[a] ^ vals[b]
    s = slot[index[f]]  # Since
    return lambda vals, mem: vals[b] | (vals[a] & mem[s])


def compile_cond_reference(c: CondObject, alg: EventAlgebra) -> MooreMachine3:
    """The memory-keyed compiler with tuple state keys and per-memory
    splitting of label masks, kept as a reference for ``compile_cond``."""
    # a step computes each subformula over Y or S (its ancestors are too)
    # and reads the maximal present-tense ones, the leaves, as class sets
    subs = subformulas([c.num, c.den])
    present: set = set()
    for f in subs:
        if not isinstance(f, (Prev, Since)) and all(
                x in present for x in children(f)):
            present.add(f)
    leaves = present & ({c.num, c.den} | {x for f in subs if f not in present
                                          for x in children(f)})
    subs = [f for f in subs if f not in present or f in leaves]
    index = {f: i for i, f in enumerate(subs)}
    leaf_order = [i for i, f in enumerate(subs) if f in leaves]

    # atoms split by every leaf's value; a class's key holds the leaf values
    parts = [((), alg.full_event)]
    for i in leaf_order:
        holds = event_mask_reference(subs[i], alg)
        parts = [(key + (bit,), part) for key, mask in parts
                 for bit, part in ((1, mask & holds), (0, mask & ~holds)) if part]
    classes, class_keys = _classes_from_columns(parts)
    full = (1 << len(classes)) - 1

    remembered = sorted({index[f.child] for f in subs if isinstance(f, Prev)}
                        | {i for i, f in enumerate(subs) if isinstance(f, Since)})
    slot = {i: s for s, i in enumerate(remembered)}
    leaf_mask = {i: sum(1 << k for k, key in enumerate(class_keys) if key[j])
                 for j, i in enumerate(leaf_order)}
    steps = [(lambda vals, mem, mask=leaf_mask[i]: mask) if i in leaf_mask
             else _reference_step(f, index, slot, full) for i, f in enumerate(subs)]
    num_idx, den_idx = index[c.num], index[c.den]

    def successors(mem: tuple) -> list[tuple[tuple, int]]:
        """(successor key, class mask) pairs of a state with memory ``mem``.

        A key is the label followed by the remembered masks, each ``full``
        (true) or 0 (false), so the key's tail is the successor's memory."""
        vals: list[int] = []
        for step in steps:
            vals.append(step(vals, mem))
        den, num = vals[den_idx], vals[num_idx]
        parts = [((label,), mask) for label, mask in
                 ((Value3.UNDEF, full ^ den), (Value3.TRUE, den & num),
                  (Value3.FALSE, den & ~num)) if mask]
        for i in remembered:
            value = vals[i]
            parts = [(key + (held,), part) for key, mask in parts
                     for held, part in ((full, mask & value),
                                       (0, mask & ~value)) if part]
        return parts

    # states are numbered as they are discovered, each state's successors in
    # the order of their lowest class: breadth-first in class order, the
    # numbering that minimize gives its output.  States with one memory
    # differ only in label, so a memory is expanded once: when a later state
    # has it, its successors are already numbered and its row is reused.
    states: list = [None]  # the start state, read as the all-false memory
    state_ids = {None: 0}
    delta: list[list[int]] = []
    rows: dict = {}  # memory -> row
    q = 0
    while q < len(states):
        mem = states[q][1:] if q else (0,) * len(remembered)
        row = rows.get(mem)
        if row is None:
            row = rows[mem] = [0] * len(classes)
            for nxt, mask in sorted(successors(mem), key=lambda kv: kv[1] & -kv[1]):
                tid = state_ids.get(nxt)
                if tid is None:
                    tid = state_ids[nxt] = len(states)
                    states.append(nxt)
                while mask:
                    low = mask & -mask
                    row[low.bit_length() - 1] = tid
                    mask ^= low
        delta.append(list(row))
        q += 1

    labels = [Value3.UNDEF] + [key[0] for key in states[1:]]
    m = MooreMachine3(alg, 0, labels, delta, classes)
    m.validate()
    return m


# ---------------------------------------------------------------------------
# Present-tense interpreters: one closure per node called once per atom, and
# one recursive walk per valuation, kept as they were (``Value3.is_defined``,
# since deleted, is spelled out)


_CONNECTIVE_OF = {CeaAnd: "and", CeaOr: "or", CeaCond: "cond"}


def value_at(value: tuple[int, int], atom: int) -> Value3:
    """A present-tense value (atoms where it is 1, atoms where it is 0) at
    one atom."""
    yes, no = value
    if yes >> atom & 1:
        return Value3.TRUE
    return Value3.FALSE if no >> atom & 1 else Value3.UNDEF


def reduce_present_reference(e: CeaExpr, alg: EventAlgebra, which) -> tuple[int, int]:
    """Pointwise reduction of an expression to one value over the atoms."""
    conns = trivalue.ALGEBRA_CONNECTIVES[which]

    def build(x: CeaExpr) -> Callable[[int], Value3]:
        """The expression's value as a function of the atom."""
        if isinstance(x, CeaSimple):
            pair = _leaf(x, alg)
            return lambda atom: value_at(pair, atom)
        if isinstance(x, CeaNeg):
            f = build(x.child)
            return lambda atom: apply_unary(conns["not"], f(atom))
        if isinstance(x, (CeaAnd, CeaOr, CeaCond)):
            name = _CONNECTIVE_OF[type(x)]
            if name not in conns:
                raise ValueError(
                    f"re-conditioning is not supported in the {which} algebra")
            conn, f, g = conns[name], build(x.left), build(x.right)
            return lambda atom: apply_binary(conn, f(atom), g(atom))
        if isinstance(x, CeaVar):
            raise ValueError(f"variable {x.name!r} has no event semantics")
        raise TypeError(f"not a conditional expression node: {x!r}")

    value = build(e)
    yes = defined = 0
    for atom in range(alg.num_atoms):
        v = value(atom)
        if v is Value3.TRUE:
            yes |= 1 << atom
        if v is not Value3.UNDEF:
            defined |= 1 << atom
    return yes, defined & ~yes


def reduce_syntactic_reference(e: CeaExpr, alg: EventAlgebra, which) -> tuple[int, int]:
    """Reduction by the rewriting rules on pairs (1-set, defined-set) of
    simple conditionals (cross-check for ``reduce_present``; and/or/~
    only)."""

    def rec(x: CeaExpr) -> tuple[int, int]:
        if isinstance(x, CeaSimple):
            yes, no = _leaf(x, alg)
            return yes, yes | no
        if isinstance(x, CeaNeg):
            y, d = rec(x.child)
            return d & ~y, d
        if isinstance(x, (CeaAnd, CeaOr)):
            (y1, d1), (y2, d2) = rec(x.left), rec(x.right)
            z1, z2 = d1 & ~y1, d2 & ~y2
            if isinstance(x, CeaAnd):
                if which == "sac":
                    return (y1 & y2) | (y1 & ~d2) | (y2 & ~d1), d1 | d2
                if which == "gnw":
                    return y1 & y2, z1 | z2 | (y1 & y2)
                return y1 & y2, d1 & d2
            if which == "sac":
                return y1 | y2, d1 | d2
            if which == "gnw":
                return y1 | y2, y1 | y2 | (d1 & d2)
            return (y1 | y2) & d1 & d2, d1 & d2
        raise ValueError("syntactic reduction handles and/or/~ only")

    yes, defined = rec(e)
    return yes, defined & ~yes


def eval_cea_valuation_reference(expr, valuation, algebra: str) -> Value3:
    """Evaluate a conditional expression over variables under a valuation.

    ``expr`` is a ``syntax.CeaExpr`` whose leaves are variables; ``algebra``
    selects which connective family interprets and/or/~/| ("sac" or "gnw").
    """
    conns = trivalue.ALGEBRA_CONNECTIVES[algebra]

    def walk(e) -> Value3:
        if isinstance(e, syntax.CeaVar):
            try:
                return valuation[e.name]
            except KeyError:
                raise UnboundVariableError(e.name) from None
        if isinstance(e, syntax.CeaNeg):
            return apply_unary(conns["not"], walk(e.child))
        if isinstance(e, syntax.CeaAnd):
            return apply_binary(conns["and"], walk(e.left), walk(e.right))
        if isinstance(e, syntax.CeaOr):
            return apply_binary(conns["or"], walk(e.left), walk(e.right))
        if isinstance(e, syntax.CeaCond):
            if "cond" not in conns:
                raise ValueError(f"algebra {algebra!r} has no conditioning operator")
            return apply_binary(conns["cond"], walk(e.left), walk(e.right))
        if isinstance(e, syntax.CeaSimple):
            raise ValueError("expression mixes events with variables; "
                             "valuation semantics needs variable leaves only")
        raise TypeError(f"not a conditional expression node: {e!r}")

    return walk(expr)


def weak_tautology_reference(e: CeaExpr, which,
                             variable_cap: int = DEFAULT_VARIABLE_CAP):
    """Exhaustively check that no valuation makes the expression false.

    Returns (True, None) or (False, counterexample valuation).
    """
    if which not in ("sac", "gnw"):
        raise ValueError("tautology checking targets the sac and gnw algebras")
    names = sorted({x.name for x in walk(e) if isinstance(x, CeaVar)})
    if len(names) > variable_cap:
        raise ValueError(f"{len(names)} variables exceed the cap {variable_cap}")
    for combo in itertools.product(
            (Value3.FALSE, Value3.TRUE, Value3.UNDEF), repeat=len(names)):
        valuation = dict(zip(names, combo))
        if eval_cea_valuation_reference(e, valuation, which) is Value3.FALSE:
            return False, valuation
    return True, None


def strong_indep_reference(c1: CondObject, c2: CondObject,
                           p: ProbAssignment) -> tuple[bool, Optional[str]]:
    """Whether the two conditionals are projections of stochastically
    independent chains: the minimal machines' joint chain must factorize
    at the start and at every positively reachable state pair."""
    alg = p.alg
    m1 = minimize(compile_cond(c1, alg))
    m2 = minimize(compile_cond(c2, alg))

    pairs = (((i, j), a & b) for i, a in enumerate(m1.classes)
             for j, b in enumerate(m2.classes) if a & b)
    masks, keys = _classes_from_columns(pairs)
    mass = [p.of_event(mk) for mk in masks]

    def row(target) -> dict:
        """Next-state law; ``target`` maps a joint class's pair of class
        indices to the next state."""
        out = {}
        for key, w in zip(keys, mass):
            if w:
                t = target(*key)
                out[t] = out.get(t, markov.ZERO) + w
        return out

    def check(q1, q2, where) -> tuple[dict, Optional[str]]:
        """The joint next-state law of (q1, q2), and a witness when it is not
        the product of the two marginal laws."""
        joint = row(lambda i, j: (m1.delta[q1][i], m2.delta[q2][j]))
        marg1 = row(lambda i, j: m1.delta[q1][i])
        marg2 = row(lambda i, j: m2.delta[q2][j])
        for t1 in marg1:
            for t2 in marg2:
                if joint.get((t1, t2), markov.ZERO) != marg1[t1] * marg2[t2]:
                    return joint, (f"{where}: joint mass of pair ({t1},{t2}) is "
                                   f"{joint.get((t1, t2), markov.ZERO)}, product is "
                                   f"{marg1[t1] * marg2[t2]}")
        return joint, None

    joint, witness = check(m1.initial, m2.initial, "start")
    if witness:
        return False, witness

    seen = set(joint)
    todo = list(joint)
    while todo:
        q1, q2 = todo.pop()
        joint, witness = check(q1, q2, f"pair ({q1},{q2})")
        if witness:
            return False, witness
        for pair in joint:
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True, None


# ---------------------------------------------------------------------------
# Tokenizer reference: one regex match per token, each whitespace run walked
# character by character for the line and column, one NamedTuple per token

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<arrow2><->)
  | (?P<arrow>->)
  | (?P<sym>[()|~!&])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # "(", ")", "|", "~", "!", "&", "->", "<->", keyword, "ident", "end"
    text: str
    line: int
    col: int


def tokenize_reference(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        tok = m.group(0)
        if m.lastgroup == "ws":
            for ch in tok:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            pos = m.end()
            continue
        if m.lastgroup == "ident":
            kind = tok if tok in _KEYWORDS else "ident"
        else:
            kind = tok
        tokens.append(Token(kind, tok, line, col))
        col += len(tok)
        pos = m.end()
    tokens.append(Token("end", "", line, col))
    return tokens


def parse_with_reference_tokens(parse: Callable, text: str, *args):
    """``parse(text, *args)`` reading the reference's tokens, each error
    placed at the reference token's line and column: the parser as it was
    when its tokens carried their own positions."""
    tokens: list[Token] = []

    def tokenize(text):
        tokens[:] = tokenize_reference(text)
        return [(tok.kind, tok.text, i) for i, tok in enumerate(tokens)]

    def error(message, text, i):
        return ParseError(message, tokens[i].line, tokens[i].col)

    with mock.patch.object(syntax, "_tokenize", tokenize), \
            mock.patch.object(syntax, "_error", error):
        return parse(text, *args)


# ---------------------------------------------------------------------------
# Distribution-file reference: one ``Fraction`` per marginal and atom mass


def _fraction_reference(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def from_text_reference(text: str) -> ProbAssignment:
    """The distribution-file reader that makes a ``Fraction`` of every value:
    an ``independent:`` line's blocks from the marginals, an atom table's
    block from its masses, with the integer reader's errors in its order.
    An empty event name is a malformed marginal."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("events:"):
        raise ValueError("distribution file must start with 'events: ...'")
    names = tuple(lines[0][len("events:"):].split())
    alg = EventAlgebra(names)
    body = lines[1:]
    if len(body) == 1 and body[0].startswith("independent:"):
        probs = {}
        for item in body[0][len("independent:"):].split():
            name, _, value = item.partition("=")
            if not name or not value:
                raise ValueError(f"malformed marginal {item!r}")
            if name in probs:
                raise ValueError(f"marginal for {name!r} listed twice")
            probs[name] = _fraction_reference(value)
        missing = set(alg.events) - set(probs)
        if missing:
            raise ValueError(f"missing marginals for: {sorted(missing)}")
        unknown = set(probs) - set(alg.events)
        if unknown:
            raise ValueError(f"marginals for unknown events: {sorted(unknown)}")
        blocks = []
        for name in alg.events:
            p = probs[name]
            if not 0 <= p <= 1:
                raise ValueError(f"marginal for {name!r} is {p}, outside [0, 1]")
            blocks.append(Block((name,), (1 - p, p)))
        return ProbAssignment(alg, blocks=tuple(blocks))
    mass = [None] * alg.num_atoms
    for ln in body:
        m = re.fullmatch(r"atom\s*\{([^}]*)\}\s*:\s*(\S+)$", ln)
        if not m:
            raise ValueError(f"malformed distribution line: {ln!r}")
        atom = 0
        for name in m.group(1).split():
            if name not in names:
                raise ValueError(f"unknown event: {name!r}")
            atom |= 1 << alg.index(name)
        if mass[atom] is not None:
            raise ValueError(f"atom {alg.atom_text(atom)} listed twice")
        mass[atom] = _fraction_reference(m.group(2))
    absent = [alg.atom_text(a) for a, v in enumerate(mass) if v is None]
    if absent:
        raise ValueError(f"atoms not covered: {' '.join(absent)}")
    return ProbAssignment(alg, tuple(mass))


# ---------------------------------------------------------------------------
# Letter law reference: one addition per atom into its class's weight, how
# ``markov.class_weights`` read it while machines kept an atom -> class list


def class_weights_reference(p: ProbAssignment, class_of_atom: list[int],
                            n: int) -> tuple[int, list[int]]:
    """The law of a letter under ``p`` on ``n`` letter classes (atom ->
    class index): ``(den, w)``, class c having probability ``w[c] / den``,
    both divided by their gcd."""
    den, atom_weights = p.weights
    weights = [0] * n
    for c, w in zip(class_of_atom, atom_weights):
        weights[c] += w
    common = gcd(den, *weights)
    return den // common, [w // common for w in weights]


# ---------------------------------------------------------------------------
# Limit references: Tarjan's components and the sum-row stationary system


def sccs_reference(n: int, adj: list[list[int]]) -> list[list[int]]:
    """Strongly connected components (iterative Tarjan), in discovery order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def stationary_distribution_reference(ch, members: list[int]) -> dict[int, Fraction]:
    """Stationary law of an irreducible closed class of ``ch`` (pi P = pi,
    sum = 1), from one system over every member whose last equation is
    replaced by the sum row."""
    k = len(members)
    pos = {s: i for i, s in enumerate(members)}
    # (P_w^T - den Id) pi = 0 with the last equation replaced by sum(pi) = 1;
    # a diagonal entry -den + w is nonzero in an irreducible class of k > 1
    rows = [{i: -ch.den} for i in range(k - 1)] + [dict.fromkeys(range(k + 1), 1)]
    for j, s in enumerate(members):
        for t, w in ch.succ[s]:
            i = pos[t]
            if i < k - 1:
                rows[i][j] = rows[i].get(j, 0) + w
    x = markov.solve_linear(rows, 1)
    return {s: x[pos[s]][0] for s in members}
