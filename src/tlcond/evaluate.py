"""Reference semantics: temporal formulas and conditionals on finite words.

This module is the slow, definitional evaluator.  The since-operator is
computed straight from its defining clause (an existential past witness with
an all-between condition), so it stays independent of the automaton pipeline
that the test suite checks against it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .syntax import (And, Atom, CondObject, Const, EventAlgebra, Iff, Implies,
                     Not, Or, Prev, Since, TLFormula)
from .trivalue import Value3


@dataclass(frozen=True)
class Word:
    """A nonempty sequence of atoms of an event algebra."""

    alg: EventAlgebra
    letters: tuple[int, ...]

    def __post_init__(self):
        if len(self.letters) == 0:
            raise ValueError("a word must have at least one letter")
        for a in self.letters:
            if not 0 <= a < self.alg.num_atoms:
                raise ValueError(f"atom {a} out of range")

    def __len__(self) -> int:
        return len(self.letters)


def word(alg: EventAlgebra, letters) -> Word:
    return Word(alg, tuple(letters))


def reverse_word(w: Word) -> Word:
    return Word(w.alg, w.letters[::-1])


def _clause(w: Word, t: int, g: TLFormula):
    """The satisfaction clause of ``g`` at position ``t``, as a generator:
    it yields each (position, subformula) whose truth it needs, in the
    order the clause reads them, receives that truth, and returns the
    truth of ``g``."""
    if isinstance(g, Atom):
        return bool(w.letters[t] >> w.alg.index(g.name) & 1)
    if isinstance(g, Const):
        return g.value
    if isinstance(g, Not):
        return not (yield t, g.child)
    if isinstance(g, And):
        return (yield t, g.left) and (yield t, g.right)
    if isinstance(g, Or):
        return (yield t, g.left) or (yield t, g.right)
    if isinstance(g, Implies):
        return (not (yield t, g.left)) or (yield t, g.right)
    if isinstance(g, Iff):
        return (yield t, g.left) == (yield t, g.right)
    if isinstance(g, Prev):
        return t > 0 and (yield t - 1, g.child)
    if isinstance(g, Since):
        # some witness s <= t of the right side, the left side at every
        # position after it up to t
        for s in range(t, -1, -1):
            if (yield s, g.right):
                for u in range(s + 1, t + 1):
                    if not (yield u, g.left):
                        break
                else:
                    return True
        return False
    raise TypeError(f"not a temporal formula: {g!r}")


def eval_tl(w: Word, pos: int, f: TLFormula, _memo=None) -> bool:
    """Satisfaction of ``f`` at position ``pos`` of ``w`` (0-based).

    The clauses run on an explicit stack, so the depth of ``f`` is not
    bounded by Python's recursion limit."""
    if not 0 <= pos < len(w):
        raise IndexError(f"position {pos} out of range for a word of length {len(w)}")
    if _memo is None:
        _memo = {}
    hit = _memo.get((pos, f))
    if hit is not None:
        return hit
    stack = [((pos, f), _clause(w, pos, f))]
    answer = None  # the truth sent to the clause on top of the stack
    while True:
        key, clause = stack[-1]
        try:
            need = clause.send(answer)
        except StopIteration as done:
            answer = _memo[key] = done.value
            stack.pop()
            if not stack:
                return answer
            continue
        answer = _memo.get(need)
        if answer is None:
            stack.append((need, _clause(w, *need)))


def value_at(w: Word, pos: int, c: CondObject, _memo=None) -> Value3:
    """Three-valued verdict of a conditional at a position of a word."""
    if _memo is None:
        _memo = {}
    if not eval_tl(w, pos, c.den, _memo):
        return Value3.UNDEF
    return Value3.from_bool(eval_tl(w, pos, c.num, _memo))


def eval_cond(w: Word, c: CondObject) -> Value3:
    """Verdict of a conditional at the last position of a word."""
    return value_at(w, len(w) - 1, c)


def cond_output(w: Word, c: CondObject) -> list[Value3]:
    """Verdicts over all nonempty prefixes of ``w`` (one per position)."""
    memo: dict = {}
    return [value_at(w, pos, c, memo) for pos in range(len(w))]
