"""Reference word semantics."""
import random

import pytest

from tlcond import (Atom, CondObject, Not, Prev, Since, TRUE, Value3, algebra,
                    cond_output, eval_cond, eval_tl, parse_cond, parse_tl,
                    reverse_word, word)
from tlcond.evaluate import Word

AB = algebra("a b")
A, B, AB_, NONE = 0b01, 0b10, 0b11, 0b00

F, T, U = Value3.FALSE, Value3.TRUE, Value3.UNDEF


def test_word_must_be_nonempty():
    with pytest.raises(ValueError):
        word(AB, ())


def test_previously_clause():
    w = word(AB, (A, NONE))
    assert eval_tl(w, 1, parse_tl("Y a", AB)) is True
    assert eval_tl(word(AB, (NONE,)), 0, parse_tl("Y true", AB)) is False


def test_once_via_existential_witness():
    w = word(AB, (NONE, A, NONE))
    assert eval_tl(w, 2, parse_tl("O a", AB)) is True
    assert eval_tl(w, 0, parse_tl("O a", AB)) is False


def test_since_requires_all_between():
    f = parse_tl("a S b", AB)
    assert eval_tl(word(AB, (B, A, A)), 2, f) is True
    assert eval_tl(word(AB, (B, NONE, A)), 2, f) is False
    assert eval_tl(word(AB, (B, A, AB_)), 2, f) is True  # witness now


def test_position_out_of_range():
    with pytest.raises(IndexError):
        eval_tl(word(AB, (A,)), 1, parse_tl("a", AB))


def test_conditional_clauses():
    c = parse_cond("(a|b)", AB)
    assert eval_cond(word(AB, (AB_,)), c) is T
    assert eval_cond(word(AB, (B,)), c) is F
    assert eval_cond(word(AB, (NONE,)), c) is U


def test_cond_output_runs_over_prefixes():
    c = parse_cond("(a|b)", AB)
    assert cond_output(word(AB, (B, AB_)), c) == [F, T]
    assert cond_output(word(AB, (NONE,)), c) == [U]
    w = word(AB, (A, B, NONE, AB_))
    assert cond_output(w, CondObject(TRUE, TRUE)) == [T, T, T, T]
    assert len(cond_output(w, c)) == len(w)


def test_reverse_word():
    w = word(AB, (A, B, AB_))
    assert reverse_word(w).letters == (AB_, B, A)
    assert reverse_word(word(AB, (A,))).letters == (A,)
    rng = random.Random(5)
    for _ in range(50):
        letters = tuple(rng.randrange(4) for _ in range(rng.randint(1, 8)))
        w = word(AB, letters)
        assert reverse_word(reverse_word(w)) == w


def test_historically_and_once_match_quantifier_semantics():
    rng = random.Random(11)
    f = parse_tl("a -> Y b", AB)
    once_f = parse_tl("O (a -> Y b)", AB)
    hist_f = parse_tl("H (a -> Y b)", AB)
    for _ in range(200):
        letters = tuple(rng.randrange(4) for _ in range(rng.randint(1, 7)))
        w = Word(AB, letters)
        for pos in range(len(letters)):
            vals = [eval_tl(w, t, f) for t in range(pos + 1)]
            assert eval_tl(w, pos, once_f) == any(vals)
            assert eval_tl(w, pos, hist_f) == all(vals)


DEPTH = 10_000


def test_deep_formulas_evaluate_without_recursing():
    a, b = Atom("a"), Atom("b")
    nots = a
    for _ in range(DEPTH):
        nots = Not(nots)
    assert eval_tl(word(AB, (A,)), 0, nots) is True
    assert eval_tl(word(AB, (B, A)), 1, Not(nots)) is False
    # Y^DEPTH a at the last of DEPTH + 1 letters reads the first letter
    prevs = a
    for _ in range(DEPTH):
        prevs = Prev(prevs)
    assert eval_tl(word(AB, (A,) + (NONE,) * DEPTH), DEPTH, prevs) is True
    assert eval_tl(word(AB, (B,) + (A,) * DEPTH), DEPTH, prevs) is False
    # a S (a S (... (a S b))): b once, and a at every later position
    since = b
    for _ in range(DEPTH):
        since = Since(a, since)
    assert eval_tl(word(AB, (B, A, AB_)), 2, since) is True
    assert eval_tl(word(AB, (B, NONE, A)), 2, since) is False
