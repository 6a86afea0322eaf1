"""Grammar, ASTs and the pretty-printer round trip."""
import copy
import gc
import importlib
import pickle
import random
import sys
import time
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlcond import (And, Atom, CeaAnd, CeaCond, CeaNeg, CeaOr, CeaSimple,
                    CeaVar, CondObject, Const, EventAlgebra, Iff, Implies,
                    Not, Or, ParseError, Prev, Since, TRUE, FALSE, algebra,
                    hist, parse_cea, parse_cond, parse_tl, pretty)
from tlcond.evaluate import Word, eval_tl
from tlcond import syntax
from tlcond.syntax import children, formula_events, once

from machines import parse_with_reference_tokens, tokenize_reference

AB = algebra("a b")
ABCD = algebra("a b c d")


# ---------------------------------------------------------------------------
# Temporal formulas


def test_parse_previously():
    assert parse_tl("Y a", AB) == Prev(Atom("a"))


def test_parse_since_with_grouped_right():
    assert parse_tl("a S (b or c)", ABCD) == Since(Atom("a"), Or(Atom("b"), Atom("c")))


def test_once_desugars_to_since_true():
    assert parse_tl("O a", AB) == Since(TRUE, Atom("a"))


def test_historically_desugars():
    assert parse_tl("H a", AB) == Not(Since(TRUE, Not(Atom("a"))))


@pytest.mark.parametrize("text", ["a S b", "O a", "H a", "Y Y (a and O b)",
                                  "not Y (b or H Y a)", "Y a -> (b S Y c)"])
def test_horizon_is_none_when_since_occurs_anywhere(text):
    assert syntax.horizon(parse_tl(text, ABCD)) is None
    assert syntax.horizon(CondObject(Prev(Atom("a")), parse_tl(text, ABCD))) is None


@pytest.mark.parametrize("text, depth", [
    ("a", 0), ("true", 0), ("not (a <-> b)", 0), ("Y a", 1),
    ("Y (a and Y b)", 2), ("Y a or Y Y Y b", 3), ("Y Y a -> Y b", 2)])
def test_horizon_is_the_deepest_nesting_of_previously(text, depth):
    f = parse_tl(text, ABCD)
    assert syntax.horizon(f) == depth
    assert is_present_tense(f) == (depth == 0)


def is_present_tense(f) -> bool:
    """True when the formula uses no temporal operator."""
    return not any(isinstance(x, (Prev, Since)) for x in syntax.walk(f))


def test_horizon_of_a_conditional_is_the_maximum_over_both_sides():
    assert syntax.horizon(parse_cond("(Y a | Y Y Y b)", AB)) == 3
    assert syntax.horizon(parse_cond("(Y Y a | b)", AB)) == 2
    assert syntax.horizon(parse_cond("(a | true)", AB)) == 0


def test_horizon_of_ten_thousand_negations_does_not_recurse():
    f = Prev(Atom("a"))
    for _ in range(10_000):
        f = Not(f)
    assert syntax.horizon(f) == 1
    assert syntax.horizon(parse_tl("not " * 10_000 + "Y a", AB)) == 1


def test_precedence_since_between_implication_and_or():
    # S binds looser than or, tighter than ->
    assert parse_tl("a S b or c", ABCD) == Since(Atom("a"), Or(Atom("b"), Atom("c")))
    got = parse_tl("a -> b S c", ABCD)
    assert got == Implies(Atom("a"), Since(Atom("b"), Atom("c")))


def test_since_left_associative():
    assert parse_tl("a S b S c", ABCD) == Since(Since(Atom("a"), Atom("b")), Atom("c"))


def test_implication_right_associative():
    assert parse_tl("a -> b -> c", ABCD) == \
        Implies(Atom("a"), Implies(Atom("b"), Atom("c")))


def test_unknown_identifier_rejected_with_name():
    with pytest.raises(ParseError, match="zz"):
        parse_tl("a and zz", AB)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_tl("a and\nor b", AB)
    assert err.value.line == 2
    assert err.value.col == 1


def test_bar_outside_conditional_group_rejected():
    with pytest.raises(ParseError, match="conditional group"):
        parse_tl("a | b", AB)


def test_parse_cond_forms():
    assert parse_cond("(a | b)", AB) == CondObject(Atom("a"), Atom("b"))
    # a bare formula is conditioned on true
    assert parse_cond("O a", AB) == CondObject(once(Atom("a")), TRUE)
    # outer parentheses without a bar are plain grouping
    assert parse_cond("(a or b)", AB) == CondObject(Or(Atom("a"), Atom("b")), TRUE)


# ---------------------------------------------------------------------------
# Conditional expressions


def test_parse_simple_conjunction():
    e = parse_cea("(a|b) and (c|d)", ABCD)
    assert e == CeaAnd(CeaSimple(Atom("a"), Atom("b")),
                       CeaSimple(Atom("c"), Atom("d")))


def test_parse_event_sides():
    e = parse_cea("(a and !b | c)", ABCD)
    assert e == CeaSimple(And(Atom("a"), Not(Atom("b"))), Atom("c"))


def test_flat_dialect_rejects_reconditioning():
    with pytest.raises(ValueError, match="re-conditioning not allowed"):
        parse_cea("~( (a|b) | (c|d) )", ABCD, dialect="flat")


def test_full_dialect_accepts_reconditioning():
    e = parse_cea("((a|b) | (c|d))", ABCD, dialect="full")
    assert e == CeaCond(CeaSimple(Atom("a"), Atom("b")),
                        CeaSimple(Atom("c"), Atom("d")))


def test_variables_mode_parses_conditionals_of_variables():
    e = parse_cea("(p|p)", None)
    assert e == CeaCond(CeaVar("p"), CeaVar("p"))


def test_pure_conditional_dialect():
    parse_cea("((p|q) | r)", None, dialect="pure-conditional")
    with pytest.raises(ValueError, match="pure-conditional"):
        parse_cea("p and q", None, dialect="pure-conditional")


def test_bare_event_where_conditional_expected():
    with pytest.raises(ParseError, match="bare event"):
        parse_cea("a and (c|d)", ABCD)


def test_tl_negation_rejected_on_conditionals():
    with pytest.raises(ParseError, match="~"):
        parse_cea("not (a|b)", ABCD)


_FLAT = "re-conditioning not allowed in the flat dialect"
_PURE = "pure-conditional dialect allows only the conditioning connective"
_BARE = ("syntax error at line 1, column {}: bare event 'c' where a conditional "
         "is expected; write (c | true)")
_NOT = "syntax error at line 1, column {}: 'not'/'!' negates events; use '~' on conditionals"
_CONST = "syntax error at line 1, column {}: constants are not conditional expressions"
_END = "syntax error at line 1, column {}: expected 'end', found ')'"


def _everywhere(message):
    return (message,) * 3


# text, and the first error under the flat, pure-conditional and full
# dialects (None: it parses): a syntax error, then the first deferred
# operand error (a bare event, a negated conditional, a constant), then the
# dialect's error, whatever their order in the text
@pytest.mark.parametrize("text, errors", [
    ("(a|b)", (None, None, None)),
    ("((a|b) | (c|d))", (_FLAT, None, None)),
    ("~((a|b) | (c|d))", (_FLAT, _PURE, None)),
    ("(a|b) and c", _everywhere(_BARE.format(11))),
    ("((a|b) | (c|d)) and c", _everywhere(_BARE.format(21))),
    ("c or ((a|b) | (c|d))", _everywhere(_BARE.format(1))),
    ("not (a|b)", _everywhere(_NOT.format(1))),
    ("not ((a|b) | (c|d))", _everywhere(_NOT.format(1))),
    ("~((a|b) | (c|d)) and not (c|d)", _everywhere(_NOT.format(22))),
    ("(a|b) and true", _everywhere(_CONST.format(11))),
    ("((a|b) | (c|d)) and true", _everywhere(_CONST.format(21))),
    ("false or ((a|b) | (c|d))", _everywhere(_CONST.format(1))),
    ("(a|b) )", _everywhere(_END.format(7))),
    ("((a|b) | (c|d)) )", _everywhere(_END.format(17))),
    ("(a|b) and c )", _everywhere(_END.format(13))),
    ("((a|b) | (c|d)) and c )", _everywhere(_END.format(23))),
    ("not (a|b) )", _everywhere(_END.format(11))),
    ("not ((a|b) | (c|d)) )", _everywhere(_END.format(21))),
    ("(a|b) and true )", _everywhere(_END.format(16))),
    ("((a|b) | (c|d)) and true )", _everywhere(_END.format(26))),
])
def test_first_error_of_each_dialect(text, errors):
    for dialect, want in zip(("flat", "pure-conditional", "full"), errors):
        try:
            parse_cea(text, ABCD, dialect)
            got = None
        except ValueError as exc:
            assert isinstance(exc, ParseError) == str(exc).startswith("syntax error")
            got = str(exc)
        assert got == want, dialect


# mostly simple conditionals, now and then a bare event, a constant, a
# negated conditional or a syntax error
_SIDES = st.sampled_from(["a", "b", "not c", "a and d", "true", "(b or c)"])
_SIMPLE = st.tuples(_SIDES, _SIDES).map("({0[0]} | {0[1]})".format)
_CEA_TEXTS = st.tuples(st.recursive(
    st.one_of(_SIMPLE, _SIMPLE, _SIMPLE, st.sampled_from(["a", "true", "false"])),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["~"] * 6 + ["not ", "! "]), sub).map("".join),
        st.tuples(sub, st.sampled_from([" and ", " or ", " | "]), sub).map(
            lambda t: f"({''.join(t)})")),
    max_leaves=6), st.sampled_from([""] * 6 + [" )", " and", "("])).map("".join)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_CEA_TEXTS, st.sampled_from([ABCD, None]))
def test_flat_dialect_refuses_exactly_what_the_reference_walk_finds(text, alg):
    """The parse's own report of re-conditioning against a walk of the tree
    that the full dialect returns."""
    try:
        full = parse_cea(text, alg, "full")
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            parse_cea(text, alg, "flat")
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    if any(isinstance(x, CeaCond) for x in syntax.walk(full)):
        with pytest.raises(ValueError) as info:
            parse_cea(text, alg, "flat")
        assert type(info.value) is ValueError and str(info.value) == _FLAT
    else:
        assert parse_cea(text, alg, "flat") is full


def test_library_simple_conditionals_keep_the_present_tense_check():
    # a side that is not a lone event is still walked, as the parser's are
    for num, den in ((Prev(Atom("a")), Atom("b")), (Atom("a"), once(Atom("b"))),
                     (Atom("a"), And(Atom("b"), Prev(TRUE)))):
        with pytest.raises(ValueError) as info:
            CeaSimple(num, den)
        assert str(info.value) == ("simple-conditional sides must be event "
                                   "expressions without temporal operators")
    assert CeaSimple(Atom("a"), Not(Atom("b"))).den_event is Not(Atom("b"))


# ---------------------------------------------------------------------------
# Pretty-printing


def test_pretty_basics():
    assert pretty(Prev(Atom("a"))) == "Y a"
    assert pretty(Since(TRUE, Atom("a"))) == "O a"
    assert pretty(Not(Since(TRUE, Not(Atom("a"))))) == "H a"
    e = CeaAnd(CeaSimple(Atom("a"), Atom("b")), CeaSimple(Atom("c"), Atom("d")))
    assert pretty(e) == "(a | b) and (c | d)"


def test_pretty_minimal_parentheses():
    f = parse_tl("a and (b or c)", ABCD)
    assert pretty(f) == "a and (b or c)"
    g = parse_tl("(a and b) or c", ABCD)
    assert pretty(g) == "a and b or c"


def _random_tl(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Atom("a"), Atom("b"), TRUE, FALSE])
    kind = rng.randrange(8)
    if kind == 0:
        return Not(_random_tl(rng, depth - 1))
    if kind == 1:
        return Prev(_random_tl(rng, depth - 1))
    if kind == 2:
        return once(_random_tl(rng, depth - 1))
    cls = (And, Or, Implies, Iff, Since)[kind - 3]
    return cls(_random_tl(rng, depth - 1), _random_tl(rng, depth - 1))


def test_tl_round_trip_on_random_asts():
    rng = random.Random(2024)
    for _ in range(400):
        f = _random_tl(rng, 4)
        assert parse_tl(pretty(f), AB) == f


def _random_cea(rng: random.Random, depth: int, variables: bool):
    if depth == 0 or rng.random() < 0.35:
        if variables:
            return CeaVar(rng.choice("pqr"))
        num = _random_event(rng)
        return CeaSimple(num, _random_event(rng))
    kind = rng.randrange(4)
    if kind == 0:
        return CeaNeg(_random_cea(rng, depth - 1, variables))
    cls = (CeaAnd, CeaOr, CeaCond)[kind - 1]
    return cls(_random_cea(rng, depth - 1, variables),
               _random_cea(rng, depth - 1, variables))


def _random_event(rng: random.Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([Atom("a"), Atom("b"), TRUE, FALSE])
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_random_event(rng, depth - 1))
    cls = (And, Or)[kind - 1]
    return cls(_random_event(rng, depth - 1), _random_event(rng, depth - 1))


def test_cea_round_trip_on_random_asts():
    rng = random.Random(99)
    for _ in range(300):
        e = _random_cea(rng, 3, variables=False)
        assert parse_cea(pretty(e), AB) == e
    for _ in range(300):
        e = _random_cea(rng, 3, variables=True)
        assert parse_cea(pretty(e), None) == e


def test_pretty_parse_idempotent_on_text():
    texts = [
        "Y (a S (b or c))",
        "(a|b) and ~( (c|d) or (a|true) )",
        "H (a -> b) <-> O a",
        "not a and b or c S d",
    ]
    for text in texts:
        alg = ABCD
        try:
            first = pretty(parse_tl(text, alg))
            again = pretty(parse_tl(first, alg))
        except ParseError:
            first = pretty(parse_cea(text, alg))
            again = pretty(parse_cea(first, alg))
        assert first == again


def test_desugaring_preserves_evaluation_small_words():
    """O f evaluates like true S f and H f like the universal-past clause,
    on every word of length <= 6 over two events."""
    for f in (Atom("a"), And(Atom("a"), Atom("b")), Prev(Atom("b"))):
        sugar_once = once(f)
        sugar_hist = Not(Since(TRUE, Not(f)))
        for n in range(1, 7):
            for code in range(AB.num_atoms ** n):
                letters = []
                x = code
                for _ in range(n):
                    letters.append(x % AB.num_atoms)
                    x //= AB.num_atoms
                w = Word(AB, tuple(letters))
                for pos in range(n):
                    direct = [eval_tl(w, t, f) for t in range(pos + 1)]
                    assert eval_tl(w, pos, sugar_once) == any(direct)
                    assert eval_tl(w, pos, sugar_hist) == all(direct)


_EVENT_LEAVES = st.sampled_from([Atom("a"), Atom("b"), TRUE, FALSE])
_EVENTS = st.recursive(_EVENT_LEAVES, lambda sub: st.one_of(
    st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)),
    max_leaves=6)
_FORMULAS = st.recursive(_EVENT_LEAVES, lambda sub: st.one_of(
    *(st.builds(node, sub) for node in (Not, Prev, once, hist)),
    *(st.builds(node, sub, sub) for node in (And, Or, Implies, Iff, Since))),
    max_leaves=8)


def _expressions(leaves):
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(CeaNeg, sub),
        *(st.builds(node, sub, sub) for node in (CeaAnd, CeaOr, CeaCond))),
        max_leaves=6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_FORMULAS, _FORMULAS)
def test_formula_and_conditional_round_trip(f, g):
    assert parse_tl(pretty(f), AB) == f
    assert parse_cond(pretty(CondObject(f, g)), AB) == CondObject(f, g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_expressions(st.builds(CeaSimple, _EVENTS, _EVENTS)),
       _expressions(st.builds(CeaVar, st.sampled_from("pqr"))))
def test_expression_round_trip_with_events_and_with_variables(e, v):
    assert parse_cea(pretty(e), AB) == e
    assert parse_cea(pretty(v), None) == v


# ---------------------------------------------------------------------------
# Interning


def test_equal_formulas_are_one_object_however_built():
    a, b = Atom("a"), Atom("b")
    built = Since(Not(a), And(a, b))
    assert parse_tl("(not a) S (a and b)", AB) is built
    assert Since(left=Not(child=Atom(name="a")),
                 right=And(a, right=b)) is built
    assert parse_tl(pretty(built), AB) is built
    assert parse_cond("(O a | H b)", AB).num is once(a)
    assert Const(True) is TRUE and Const(value=False) is FALSE
    assert copy.deepcopy(built) is built
    assert pickle.loads(pickle.dumps(built)) is built


def test_equal_conditionals_and_expressions_are_one_object():
    a, b = Atom("a"), Atom("b")
    e = parse_cea("(a|b) and ~(a|b)", AB)
    assert e.left is e.right.child is CeaSimple(num_event=a, den_event=b)
    assert parse_cea("(a|b) and ~(a|b)", AB) is e
    assert parse_cea("x or y", None) is CeaOr(CeaVar("x"), CeaVar("y"))
    assert parse_cond("(Y a | b)", AB) is CondObject(Prev(a), den=b)
    for node in (e, parse_cond("(Y a | b)", AB)):
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node
    assert repr(CeaNeg(CeaVar("x"))) == "CeaNeg(child=CeaVar(name='x'))"
    with pytest.raises(AttributeError):
        e.left = e.right
    with pytest.raises(ValueError, match="without temporal operators"):
        CeaSimple(a, Prev(b))
    with pytest.raises(TypeError):
        CeaNeg(e, e)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_FORMULAS, _FORMULAS)
def test_distinct_formulas_are_distinct_objects(f, g):
    assert (f is g) == (f == g) == (pretty(f) == pretty(g))
    assert parse_tl(pretty(f), AB) is f


def test_formula_fields_are_checked_and_frozen():
    for bad in (lambda: And(Atom("a")), lambda: And(Atom("a"), left=TRUE),
                lambda: Not(child=TRUE, other=TRUE), lambda: Atom()):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(AttributeError):
        Atom("a").name = "b"
    assert repr(Not(Atom("a"))) == "Not(child=Atom(name='a'))"


def test_deep_formulas_compare_and_hash_without_recursing():
    built = [Atom("a"), Atom("a")]
    for _ in range(DEPTH):
        built = [Not(f) for f in built]
    assert built[0] is built[1] and len({*built}) == 1


def test_the_intern_table_keeps_no_unused_formula():
    ref = weakref.ref(And(Atom("only_here"), Prev(Atom("only_here"))))
    gc.collect()
    assert ref() is None
    assert not any("only_here" in key for key in syntax._INTERNED)


# ---------------------------------------------------------------------------
# Malformed input


_ENTRY_POINTS = {
    "tl": lambda text: parse_tl(text, ABCD),
    "cond": lambda text: parse_cond(text, ABCD),
    "cea": lambda text: parse_cea(text, ABCD),
    "variables": lambda text: parse_cea(text, None),
}

# (entry point, text, message, line, column)
MALFORMED = [
    ("tl", "a | b", "'|' is only allowed inside a parenthesized conditional group", 1, 3),
    ("cond", "a | b", "'|' is only allowed inside a parenthesized conditional group", 1, 3),
    ("cea", "a | b", "expected 'end', found '|'", 1, 3),
    ("tl", "| a", "'|' is only allowed inside a parenthesized conditional group", 1, 1),
    ("cond", "| a", "'|' is only allowed inside a parenthesized conditional group", 1, 1),
    ("variables", "| a", "expected an expression, found '|'", 1, 1),
    ("tl", "(a b)", "expected ')', found 'b'", 1, 4),
    ("cond", "(a b)", "expected ')', found 'b'", 1, 4),
    ("cea", "(a b)", "expected ')', found 'b'", 1, 4),
    ("tl", "(a | b | c)", "expected ')', found '|'", 1, 4),
    ("cea", "(a | b | c)", "expected ')', found '|'", 1, 8),
    ("tl", "a and\nor b", "expected a formula, found 'or'", 2, 1),
    ("cond", "a and\nor b", "expected a formula, found 'or'", 2, 1),
    ("cea", "a and\nor b", "expected an expression, found 'or'", 2, 1),
    ("tl", "(a S b | c)", "expected ')', found '|'", 1, 8),
    ("cea", "(a S b | c)", "expected ')', found 'S'", 1, 4),
    ("tl", "not (a|b)", "expected ')', found '|'", 1, 7),
    ("cond", "not (a|b)", "expected ')', found '|'", 1, 7),
    ("cea", "not (a|b)", "'not'/'!' negates events; use '~' on conditionals", 1, 1),
    ("tl", "a and (c|d)", "expected ')', found '|'", 1, 9),
    ("cea", "a and (c|d)",
     "bare event 'a' where a conditional is expected; write (a | true)", 1, 1),
    ("cea", "(Y a | b)", "expected an expression, found 'Y'", 1, 2),
    ("variables", "(Y a | b)", "expected an expression, found 'Y'", 1, 2),
    ("tl", "~a", "expected a formula, found '~'", 1, 1),
    ("cond", "~a", "expected a formula, found '~'", 1, 1),
    ("cea", "~a",
     "bare event 'a' where a conditional is expected; write (a | true)", 1, 2),
    ("tl", "", "expected a formula, found 'end of input'", 1, 1),
    ("cea", "", "expected an expression, found 'end of input'", 1, 1),
    ("cond", "(a", "expected ')', found 'end of input'", 1, 3),
    ("cea", "a)", "expected 'end', found ')'", 1, 2),
    ("cea", "((a|b) | c)",
     "bare event 'c' where a conditional is expected; write (c | true)", 1, 10),
    ("cond", "()", "expected a formula, found ')'", 1, 2),
    ("cea", "(|)", "expected an expression, found '|'", 1, 2),
    ("cond", "a and zz", "unknown identifier 'zz'", 1, 7),
    ("cea", "(true | p)", "unknown identifier 'p'", 1, 9),
    ("variables", "(true | p)", "constants are not conditional expressions", 1, 2),
    ("variables", "true", "constants are not conditional expressions", 1, 1),
    ("variables", "not p", "'not'/'!' negates events; use '~' on conditionals", 1, 1),
    ("cea", "(a|b) and not (c|d)",
     "'not'/'!' negates events; use '~' on conditionals", 1, 11),
    ("cea", "a and ~b",
     "bare event 'a' where a conditional is expected; write (a | true)", 1, 1),
    ("variables", "(not p | true)",
     "'not'/'!' negates events; use '~' on conditionals", 1, 2),
    ("cond", "a $ b", "unexpected character '$'", 1, 3),
    ("cea", "(a -> b | c)", "expected ')', found '->'", 1, 4),
    ("cea", "(a|b) (c|d)", "expected 'end', found '('", 1, 7),
    ("variables", "~(a|b", "expected ')', found 'end of input'", 1, 6),
    ("cea", "(a and b\n  or c | d)\n)", "expected 'end', found ')'", 3, 1),
    ("cond", "Y\n\n  S a", "expected a formula, found 'S'", 3, 3),
]

# A conditional object's group is now read by the grammar, not split at its
# bar first, so these errors point at the token where the text goes wrong.
CONDITIONAL_GROUP_ERRORS = [
    ("cond", "(a | b | c)", "expected ')', found '|'", 1, 8),
    ("cond", "(a and | b)", "expected a formula, found '|'", 1, 8),
    ("cond", "(a b | c)", "expected ')', found 'b'", 1, 4),
    ("cond", "(a | b) and c", "expected 'end', found 'and'", 1, 9),
    ("cond", "(a | b", "expected ')', found 'end of input'", 1, 7),
]


@pytest.mark.parametrize("entry, text, message, line, col",
                         MALFORMED + CONDITIONAL_GROUP_ERRORS)
def test_malformed_input_reports_message_and_position(entry, text, message,
                                                      line, col):
    with pytest.raises(ParseError) as err:
        _ENTRY_POINTS[entry](text)
    assert str(err.value) == f"syntax error at line {line}, column {col}: {message}"
    assert (err.value.line, err.value.col) == (line, col)


_TOKEN_PIECES = ["(", ")", "|", "~", "!", "&", "->", "<->", "and", "or", "not",
                 "true", "false", "S", "Y", "O", "H", "a", "b", "zz", "x_1",
                 " ", "\t", "\n", "\r\n", "$", "é", "<", "-"]


def _line_col(text, pos):
    err = syntax._error("", text, pos)
    return err.line, err.col


def _outcome(parse, text, *args):
    try:
        return repr(parse(text, *args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=16).map("".join))
@example("(a | \n\t")
@example("a and\r\n  ")
@example("(a|b) é")
def test_one_scan_tokens_and_errors_equal_the_per_character_reference(text):
    try:
        want = [tuple(tok) for tok in tokenize_reference(text)]
    except ParseError as exc:
        want = str(exc)
    try:
        got = [(kind, word, *_line_col(text, pos))
               for kind, word, pos in syntax._tokenize(text)]
    except ParseError as exc:
        got = str(exc)
    assert got == want
    for parse, args in ((parse_tl, (ABCD,)), (parse_tl, ()), (parse_cond, (ABCD,)),
                        (parse_cond, ()), (parse_cea, (ABCD,)), (parse_cea, (None,))):
        assert _outcome(parse, text, *args) == _outcome(
            lambda *a: parse_with_reference_tokens(parse, *a), text, *args)


# ---------------------------------------------------------------------------
# Deep input

DEPTH = 10_000


def _height(x) -> int:
    """Nodes on the longest path from the root to a leaf, counted without
    recursion (``==`` and ``hash`` on a deep tree would recurse)."""
    best, todo = 0, [(x, 1)]
    while todo:
        x, h = todo.pop()
        best = max(best, h)
        todo.extend((c, h + 1) for c in children(x))
    return best


@pytest.mark.parametrize("text, heights", [
    ("not " * DEPTH + "a", {"tl": DEPTH + 1, "cond": DEPTH + 2}),
    ("Y " * DEPTH + "a", {"tl": DEPTH + 1, "cond": DEPTH + 2}),
    ("(" * DEPTH + "a" + ")" * DEPTH, {"tl": 1, "cond": 2, "variables": 1}),
    ("(" + "(" * DEPTH + "a" + ")" * DEPTH + " | b)",
     {"cond": 2, "cea": 2, "variables": 2}),
    ("(" * DEPTH + "(a|b)" + ")" * DEPTH, {"cea": 2, "variables": 2}),
    ("(" + "not " * DEPTH + "a | b)", {"cond": DEPTH + 2, "cea": DEPTH + 2}),
    ("~" * DEPTH + "(a|b)", {"cea": DEPTH + 2, "variables": DEPTH + 2}),
    ("(" + " and ".join(["a"] * DEPTH) + " | b)",
     {"cond": DEPTH + 1, "cea": DEPTH + 1, "variables": DEPTH + 1}),
], ids=["not", "Y", "parentheses", "parenthesized side", "parenthesized group",
        "negated side", "tilde", "conjunct side"])
def test_deep_input_parses_under_every_entry_point_that_accepts_it(text, heights):
    for entry, height in heights.items():
        assert _height(_ENTRY_POINTS[entry](text)) == height, entry
    for entry in _ENTRY_POINTS.keys() - heights.keys():
        with pytest.raises(ParseError):
            _ENTRY_POINTS[entry](text)


@pytest.mark.parametrize("entry, text", [
    ("cea", "~" * DEPTH + "(a | b)"),
    ("cea", "(" + "not " * DEPTH + "a | b)"),
    ("variables", " and ".join(["(p | q)"] * DEPTH)),
    ("tl", "not " * DEPTH + "a"),
    ("tl", "H " * DEPTH + "a"),
    ("cond", "(" + "Y " * DEPTH + "a | O b)"),
], ids=["tilde", "negated side", "conjuncts", "not", "H", "Y"])
def test_deep_input_pretty_prints_and_round_trips(entry, text):
    # compared as text: ``==`` on deep conditional expressions recurses
    assert pretty(_ENTRY_POINTS[entry](text)) == text


def test_pretty_is_linear_on_a_long_chain():
    # 50,000 nested H print in about 0.1 s on a 2-core x86-64 VM when the
    # pieces are joined once, and in about 10 s when each child's text is
    # concatenated into its parent's
    f = parse_tl("H " * 50_000 + "a", AB)
    start = time.perf_counter()
    text = pretty(f)
    assert time.perf_counter() - start < 2
    assert parse_tl(text, AB) is f


def test_deep_expressions_pass_the_dialect_checks_without_recursing():
    deep = "~" * DEPTH + "(p|q)"
    with pytest.raises(ValueError, match="pure-conditional"):
        parse_cea(deep, None, dialect="pure-conditional")
    assert formula_events(parse_cea(deep.replace("p", "a").replace("q", "b"),
                                    AB, dialect="flat")) == ("a", "b")


# ---------------------------------------------------------------------------
# Event algebra


def test_algebra_rejects_duplicates_and_limit():
    with pytest.raises(ValueError):
        EventAlgebra(("a", "a"))
    with pytest.raises(ValueError, match="65 basic events exceed the limit 64"):
        EventAlgebra(tuple(f"e{i}" for i in range(65)))
    EventAlgebra(tuple(f"e{i}" for i in range(64)))  # at the limit
    # an atom table holds 16 events: more are refused when its atoms are asked for
    assert EventAlgebra(tuple(f"e{i}" for i in range(16))).num_atoms == 1 << 16
    with pytest.raises(ValueError, match="17 basic events exceed the limit 16"):
        EventAlgebra(tuple(f"e{i}" for i in range(17))).num_atoms


def test_algebra_counts():
    assert ABCD.num_atoms == 16
    assert formula_events(parse_tl("a and c", ABCD)) == ("a", "c")


def test_a_fresh_import_releases_the_previous_classes():
    """Nothing global keeps a discarded import's syntax classes alive (a
    module-level ``Union[...]`` over them would: typing caches it), so a
    process that re-imports the package does not grow."""
    def package():
        return [n for n in sys.modules if n == "tlcond" or n.startswith("tlcond.")]

    saved = {n: sys.modules.pop(n) for n in package()}
    try:
        ref = weakref.ref(importlib.import_module("tlcond.syntax").CeaExpr)
        for n in package():
            del sys.modules[n]
        gc.collect()
        assert ref() is None
    finally:
        sys.modules.update(saved)
