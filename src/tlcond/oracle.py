"""Brute-force reference computations by explicit word enumeration.

These walk every word of a given length depth-first with a running product
of letter masses, evaluating conditionals straight from the satisfaction
clauses (since = existential past witness with an all-between condition), so
they share no semantics with the machine/chain pipeline they are used to check.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .evaluate import Word, eval_cond
from .markov import ProbAssignment, ZERO
from .syntax import (And, Atom, CondObject, Const, Iff, Implies, Not, Or,
                     Prev, TLFormula, subformulas)
from .trivalue import Value3

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    pass


def _check_budget(p: ProbAssignment, n: int, budget: int):
    if p.alg.num_atoms ** n > budget:
        raise BudgetExceededError(
            f"{p.alg.num_atoms}^{n} words exceed the budget {budget}")


def _int_masses(p: ProbAssignment) -> tuple[list[tuple[int, int]], int]:
    """Positive atom masses as integer numerators over a common denominator."""
    den = lcm(*(m.denominator for m in p.mass))
    letters = [(atom, int(m * den)) for atom, m in enumerate(p.mass) if m]
    return letters, den


class TraceEval:
    """Per-position values of every subformula along a growing prefix.

    ``push`` appends one letter and evaluates each subformula at the new
    position from the defining clauses, reading earlier positions off the
    recorded histories; ``pop`` backtracks.  The since clause scans for its
    past witness, aborting as soon as the all-between condition fails.
    """

    def __init__(self, forms: list[TLFormula], alg):
        order = subformulas(forms)
        index = {f: i for i, f in enumerate(order)}
        ops = []
        for f in order:
            if isinstance(f, Atom):
                ops.append(("atom", alg.index(f.name), 0))
            elif isinstance(f, Const):
                ops.append(("const", f.value, 0))
            elif isinstance(f, Not):
                ops.append(("not", index[f.child], 0))
            elif isinstance(f, And):
                ops.append(("and", index[f.left], index[f.right]))
            elif isinstance(f, Or):
                ops.append(("or", index[f.left], index[f.right]))
            elif isinstance(f, Implies):
                ops.append(("imp", index[f.left], index[f.right]))
            elif isinstance(f, Iff):
                ops.append(("iff", index[f.left], index[f.right]))
            elif isinstance(f, Prev):
                ops.append(("prev", index[f.child], 0))
            else:
                ops.append(("since", index[f.left], index[f.right]))
        self.ops = ops
        self.index = index
        self.hist: list[list[bool]] = [[] for _ in order]
        self.pos = -1

    def push(self, atom: int):
        self.pos = pos = self.pos + 1
        hist = self.hist
        for i, (kind, a, b) in enumerate(self.ops):
            if kind == "atom":
                v = bool(atom >> a & 1)
            elif kind == "and":
                v = hist[a][pos] and hist[b][pos]
            elif kind == "or":
                v = hist[a][pos] or hist[b][pos]
            elif kind == "not":
                v = not hist[a][pos]
            elif kind == "since":
                left, right = hist[a], hist[b]
                v = False
                for t in range(pos, -1, -1):
                    if right[t]:
                        v = True
                        break
                    if not left[t]:
                        break
            elif kind == "prev":
                v = pos > 0 and hist[a][pos - 1]
            elif kind == "imp":
                v = (not hist[a][pos]) or hist[b][pos]
            elif kind == "iff":
                v = hist[a][pos] == hist[b][pos]
            else:
                v = a  # const
            hist[i].append(v)

    def pop(self):
        for h in self.hist:
            h.pop()
        self.pos -= 1

    def value(self, c: CondObject) -> Value3:
        if not self.hist[self.index[c.den]][self.pos]:
            return Value3.UNDEF
        return Value3.from_bool(self.hist[self.index[c.num]][self.pos])


def brute_pr_series(c: CondObject, p: ProbAssignment, n_max: int,
                    budget: int = DEFAULT_BUDGET
                    ) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Exact (p1, p0, pbot) for every time 1..n_max by one shared walk."""
    _check_budget(p, n_max, budget)
    tr = TraceEval([c.num, c.den], p.alg)
    num_idx, den_idx = tr.index[c.num], tr.index[c.den]
    num_hist, den_hist = tr.hist[num_idx], tr.hist[den_idx]
    letters, den = _int_masses(p)
    # per depth: integer mass reaching value 1 / 0 / undefined
    acc = [[0, 0, 0] for _ in range(n_max)]

    def walk(depth: int, mass: int):
        bucket = acc[depth]
        deeper = depth + 1 < n_max
        for atom, k in letters:
            tr.push(atom)
            m = mass * k
            if den_hist[depth]:
                bucket[0 if num_hist[depth] else 1] += m
            else:
                bucket[2] += m
            if deeper:
                walk(depth + 1, m)
            tr.pop()

    walk(0, 1)
    out = []
    for d, (k1, k0, kb) in enumerate(acc):
        scale = den ** (d + 1)
        out.append((Fraction(k1, scale), Fraction(k0, scale), Fraction(kb, scale)))
    return out


def brute_pr_n(c: CondObject, p: ProbAssignment, n: int,
               budget: int = DEFAULT_BUDGET) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (p1, p0, pbot) at time n by summation over all length-n words."""
    return brute_pr_series(c, p, n, budget)[n - 1]


def brute_joint(c1: CondObject, c2: CondObject, p: ProbAssignment, n: int,
                budget: int = DEFAULT_BUDGET) -> dict:
    """Joint distribution of the two output prefixes of length n: a map from
    (value sequence, value sequence) pairs to exact mass."""
    _check_budget(p, n, budget)
    tr = TraceEval([c1.num, c1.den, c2.num, c2.den], p.alg)
    out: dict = {}
    letters, den = _int_masses(p)
    seq1: list[Value3] = []
    seq2: list[Value3] = []

    def walk(depth: int, mass: int):
        for atom, k in letters:
            tr.push(atom)
            seq1.append(tr.value(c1))
            seq2.append(tr.value(c2))
            m = mass * k
            if depth + 1 == n:
                key = (tuple(seq1), tuple(seq2))
                out[key] = out.get(key, 0) + m
            else:
                walk(depth + 1, m)
            seq1.pop()
            seq2.pop()
            tr.pop()

    walk(0, 1)
    scale = den ** n
    return {key: Fraction(k, scale) for key, k in out.items()}


def brute_reverse_check(c: CondObject, p: ProbAssignment, n: int,
                        budget: int = DEFAULT_BUDGET) -> bool:
    """Whether value masses at time n agree between plain and reversed words."""
    _check_budget(p, n, budget)
    plain = {Value3.TRUE: ZERO, Value3.FALSE: ZERO, Value3.UNDEF: ZERO}
    rev = dict(plain)
    for letters in itertools.product(range(p.alg.num_atoms), repeat=n):
        mass = Fraction(1)
        for a in letters:
            mass *= p.mass[a]
            if not mass:
                break
        if not mass:
            continue
        plain[eval_cond(Word(p.alg, letters), c)] += mass
        rev[eval_cond(Word(p.alg, letters[::-1]), c)] += mass
    return plain == rev
