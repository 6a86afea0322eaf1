"""Hand-built expected machines shared by the automata and acceptance suites,
a per-leaf product reference for the first interpretation, and fixed DOT
texts of minimized compiled machines."""
from tlcond import (CeaAnd, CeaNeg, CeaOr, CeaSimple, CondObject, TRUE, Value3,
                    algebra, compile_cond, first_resolution, minimize, product)
from tlcond.automata import MooreMachine3
from tlcond.syntax import collect_simples

F, T = Value3.FALSE, Value3.TRUE

ALG_AB = algebra("a b")
ALG_ABCD = algebra("a b c d")


def expected_first_machine() -> MooreMachine3:
    """The three-state machine of the first-resolution conditional on (a|b):
    a waiting state looping while b is absent, and two absorbing outcomes."""
    # atoms over {a, b}: 0 = {}, 1 = {a}, 2 = {b}, 3 = {a b}
    return MooreMachine3.from_atom_table(
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
    return MooreMachine3.from_atom_table(
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
    return MooreMachine3.from_atom_table(
        alg, labels=[F, T], delta_by_atom=[[1, 1], [0, 0]], initial=0)


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
