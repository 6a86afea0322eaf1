"""The conditional event algebras as interpretations.

Present-tense algebras (SAC, GNW, Sch) reduce any expression to one value
over the atoms, the pair (atoms where it is 1, atoms where it is 0), and
take the ratio of the two events' probabilities.  The product-space
algebra is past-tense: an expression is translated to a temporal conditional
object by one of three interpretations

* ``first``   - each (a|b) becomes "the historically first defined value of
                (a|b) was 1", conditioned on true;
* ``reverse`` - each (a|b) becomes "the most recent defined value was 1"
                (not-b since a-and-b), conditioned on true;
* ``sparse``  - the reverse numerator, but conditioned on at least one
                argument being currently defined or never yet defined;

and its probability is the limiting probability of that conditional object's
Markov chain.  All three give the same number for every expression and every
distribution, and it is always defined.  Under ``sparse`` the numerator is
``reverse``'s; call a letter *quiet* when no leaf's b holds in it.  No guard
holds exactly when the letter is quiet and every b has held before.  A quiet
letter leaves each leaf's ``!b S (a and b)`` and each ``O b`` as they were,
and it is independent of the past, so with v = lim Pr num and g = lim Pr(no
guard holds), lim Pr(num and no guard holds) = v g.  The ``sparse`` limit is
then (v - v g) / (1 - g) = v, and g < 1: g is Pr(quiet) < 1 when every b
has positive probability, and 0 otherwise.

Since the three limits are one, :func:`prob_ps` takes ``reverse``'s, whose
condition is true, and uses the product law to solve less than the whole
expression.  A distribution is a tuple of independent blocks of events;
parts of an expression that touch disjoint sets of blocks have independent
value sequences, so their numerators' limits combine exactly (``and``
multiplies, ``or`` is 1-(1-x)(1-y), ``~`` is 1-x), as integer pairs (num,
den) with one ``Fraction`` at the root.  A run of ``and`` or of ``or`` is
regrouped into the connected components of its operands by shared blocks.
A simple conditional (a|b) alone in its part takes its limit in closed
form, Pr(a and b) / Pr b, from the integer table of the blocks it touches;
only the parts whose leaves share events are compiled and solved, once
each, over the product of the blocks they touch.

:func:`cond_asymptotic` builds no machine for a conditional without ``S``
(see :func:`_ratio`).  Every embedding of a product-space leaf uses ``S``,
so :func:`prob_ps` never takes that path.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, reduce
from math import prod
from operator import or_
from typing import Literal, Optional

from . import markov, syntax, trivalue
from .automata import (MooreMachine3, _classes_from_columns, compile_cond,
                       event_mask, leaf_classes, minimal_machine)
from .markov import (ProbAssignment, asymptotic, chain_from_machine,
                     defined_ratio, pr_n_ratio)
from .syntax import (FALSE, TRUE, And, Atom, CeaAnd, CeaCond, CeaExpr, CeaNeg,
                     CeaOr, CeaSimple, CeaVar, CondObject, Const, EventAlgebra,
                     Iff, Implies, Not, Or, Prev, Since, TLFormula, children,
                     collect_simples, horizon, walk)
from .trivalue import Value3

Algebra = Literal["sac", "gnw", "sch"]
Embedding = Literal["first", "reverse", "sparse"]

DEFAULT_VARIABLE_CAP = 8


# ---------------------------------------------------------------------------
# Present-tense algebras


def _leaf(s: CeaSimple, alg: EventAlgebra) -> tuple[int, int]:
    """The value of a simple conditional (a|b): (atoms where a and b hold,
    atoms where b holds and a does not)."""
    num, den = event_mask(s.num_event, alg), event_mask(s.den_event, alg)
    return num & den, den & ~num


@lru_cache
def reduce_present(e: CeaExpr, alg: EventAlgebra, which: Algebra) -> tuple[int, int]:
    """Pointwise reduction of an expression to one value over the atoms,
    evaluated at every atom at once: the pair (atoms where it is 1, atoms
    where it is 0), undefined on the rest.  Kept for the 128 most recent keys."""
    def leaf(x) -> tuple[int, int]:
        if isinstance(x, CeaVar):
            raise ValueError(f"variable {x.name!r} has no event semantics")
        return _leaf(x, alg)

    return trivalue.eval_sets(e, which, alg.full_event, leaf)


def prob_present(e: CeaExpr, p: ProbAssignment, which: Algebra) -> Optional[Fraction]:
    """Probability of 1 among defined atoms; None when never defined."""
    return defined_ratio(*map(p.weight, reduce_present(e, p.alg, which)))


def present_machine(value: tuple[int, int], alg: EventAlgebra) -> MooreMachine3:
    """The Moore machine of a present-tense value (atoms where it is 1,
    atoms where it is 0): one state per value that occurs, entered by the
    atoms taking that value, plus a never-entered start state labelled
    undefined."""
    yes, no = value
    by_value = ((Value3.TRUE, yes), (Value3.FALSE, no),
                (Value3.UNDEF, alg.full_event & ~(yes | no)))
    classes, labels = _classes_from_columns((v, mask) for v, mask in by_value if mask)
    row = list(range(1, len(classes) + 1))
    return MooreMachine3(alg, 0, [Value3.UNDEF] + labels,
                         [list(row) for _ in range(len(row) + 1)], classes)


def simple_to_cond(value: tuple[int, int], alg: EventAlgebra) -> CondObject:
    """View a present-tense value (atoms where it is 1, atoms where it is 0)
    as a conditional object."""
    yes, no = value
    return CondObject(_mask_formula(yes, alg), _mask_formula(yes | no, alg))


def _mask_formula(mask: int, alg: EventAlgebra) -> TLFormula:
    if mask == alg.full_event:
        return TRUE
    if mask == 0:
        return syntax.FALSE
    atoms = [syntax.Atom(name) for name in alg.events]
    return reduce(Or, (reduce(And, (lit if atom >> i & 1 else Not(lit)
                                    for i, lit in enumerate(atoms)))
                       for atom in range(alg.num_atoms) if mask >> atom & 1))


# ---------------------------------------------------------------------------
# Product-space interpretations


def first_resolution(a: TLFormula, b: TLFormula) -> TLFormula:
    """True once (a|b) has resolved and its first defined value was 1:
    O(a and b and not Y O b)."""
    return syntax.once(And(And(a, b), Not(Prev(syntax.once(b)))))


def latest_resolution(a: TLFormula, b: TLFormula) -> TLFormula:
    """True when the most recent defined value of (a|b) was 1: !b S (a and b)."""
    return Since(Not(b), And(a, b))


def _require_flat(e: CeaExpr):
    kinds = {type(x) for x in walk(e)}
    if CeaCond in kinds:
        raise ValueError("the product-space algebra has no re-conditioning")
    if CeaVar in kinds:
        raise ValueError("expression has variable leaves; events required")


_FORMULA_OF = {CeaNeg: Not, CeaAnd: And, CeaOr: Or}


def embed_ps(e: CeaExpr, which: Embedding) -> CondObject:
    """Translate a flat expression to a conditional object."""
    _require_flat(e)
    if which not in ("first", "reverse", "sparse"):
        raise ValueError(f"unknown interpretation {which!r}")
    leaf = first_resolution if which == "first" else latest_resolution
    # not/and/or for ~/and/or, and ``leaf`` of each simple conditional
    num = syntax.fold(e, lambda x, values: _FORMULA_OF[type(x)](*values)
                      if values else leaf(x.num_event, x.den_event))
    if which != "sparse":
        return CondObject(num, TRUE)
    return CondObject(num, reduce(Or, (Or(s.den_event, Not(syntax.once(s.den_event)))
                                       for s in collect_simples(e))))


def first_machine(e: CeaExpr, alg: EventAlgebra) -> MooreMachine3:
    """The compiled (not yet minimized) machine of the first interpretation."""
    return compile_cond(embed_ps(e, "first"), alg)


def cond_asymptotic(c: CondObject, p: ProbAssignment) -> Optional[Fraction]:
    """The limit of the conditional probability of 1 among defined values;
    None when the defined mass vanishes.  See :func:`_ratio`."""
    return _ratio(c, p, None)


def _ratio(c: CondObject, p: ProbAssignment, n: Optional[int]) -> Optional[Fraction]:
    """The conditional probability of 1 among defined values at time ``n``,
    or in the limit when ``n`` is None.

    A conditional without ``S`` has a finite horizon d (see
    :func:`~tlcond.syntax.horizon`): from time d+1 on, its value is a fixed
    function of the last d+1 letters, which are i.i.d., so its law is the
    same at every such time and the limit is the ratio at time d+1.  That
    ratio, or the one at an earlier ``n``, is taken by
    :func:`_backward_ratio` with no machine and no chain.  A conditional
    with ``S`` is compiled and minimized, and its limit solved exactly.
    """
    d = horizon(c)
    if d is not None:
        return _backward_ratio(c, p, d + 1 if n is None else min(n, d + 1))
    ch = chain_from_machine(minimal_machine(c, p.alg), p)
    return asymptotic(ch) if n is None else pr_n_ratio(ch, n)


def _backward_ratio(c: CondObject, p: ProbAssignment, t: int) -> Optional[Fraction]:
    """The ratio at time ``t`` of a conditional without ``S``, by a walk
    backward over formulas from time ``t`` to time 1.

    A residual is a pair (num, den) of formulas read at the current time,
    with an integer weight.  One step reads the current letter: for each
    letter class of the conditional (see
    :func:`~tlcond.automata.leaf_classes`) every leaf becomes its constant
    on that class and every ``Y f`` becomes ``f``, read one step earlier,
    or false at time 1, and the constants are folded (:func:`_earlier`).
    Equal residuals merge and their weights, products of integer class
    weights, add up.  A residual whose den is false is undefined and
    dropped; one whose den is true and whose num is constant is finished
    as 1 or 0.  After time 1 every residual is finished, and the weights of
    1 and 0, on one scale, give the ratio.  A residual whose connective
    layer holds no leaf reads nothing of the current letter: it is
    rewritten on the first live class alone and carries the weight of all
    of them, ``scale``.  The cost is the number of distinct residuals per
    step times the number of letter classes, or times one at a step that
    reads no leaf.
    """
    _, leaves, classes, keys = leaf_classes(c, p.alg)
    markov.check_time_index(t)
    scale, weights = markov.class_weights(p, classes)
    # each live class's leaf constants, its weight and its memo of _earlier
    live = [({f: TRUE if bit else FALSE for f, bit in zip(leaves, key)}, w, {})
            for key, w in zip(keys, weights) if w]
    reads: dict = {}  # node -> whether its connective layer holds a leaf
    residuals = {(c.num, c.den): 1}
    ones = zeros = 0  # finished weights, on the scale of the residuals
    for time in range(t, 0, -1):
        if time == 1:  # Y f is false now: the memos no longer hold
            live = [(consts, w, {}) for consts, w, _ in live]
        ones, zeros = ones * scale, zeros * scale
        after: dict = {}
        for (num, den), weight in residuals.items():
            for consts, w, memo in live:
                den_then = _earlier(den, consts, memo, time == 1, reads)
                if den_then is FALSE:
                    if reads[den]:
                        continue
                    break  # false on every class
                num_then = _earlier(num, consts, memo, time == 1, reads)
                leafless = not (reads[den] or reads[num])
                if leafless:  # the same pair on every class
                    w = scale
                if den_then is TRUE and type(num_then) is Const:
                    if num_then is TRUE:
                        ones += weight * w
                    else:
                        zeros += weight * w
                else:
                    key = (num_then, den_then)
                    after[key] = after.get(key, 0) + weight * w
                if leafless:
                    break
        residuals = after
    return defined_ratio(ones, zeros)


def _not(a: TLFormula) -> TLFormula:
    return FALSE if a is TRUE else TRUE if a is FALSE else Not(a)


def _and(a: TLFormula, b: TLFormula) -> TLFormula:
    if a is FALSE or b is FALSE:
        return FALSE
    return b if a is TRUE or a is b else a if b is TRUE else And(a, b)


def _or(a: TLFormula, b: TLFormula) -> TLFormula:
    if a is TRUE or b is TRUE:
        return TRUE
    return b if a is FALSE or a is b else a if b is FALSE else Or(a, b)


def _implies(a: TLFormula, b: TLFormula) -> TLFormula:
    if a is FALSE or b is TRUE or a is b:
        return TRUE
    return b if a is TRUE else _not(a) if b is FALSE else Implies(a, b)


def _iff(a: TLFormula, b: TLFormula) -> TLFormula:
    if a is b:
        return TRUE
    if a is TRUE or b is TRUE:
        return b if a is TRUE else a
    if a is FALSE or b is FALSE:
        return _not(b if a is FALSE else a)
    return Iff(a, b)


# a connective node with folded operands, constants folded away
_FOLD = {Not: _not, And: _and, Or: _or, Implies: _implies, Iff: _iff}


def _earlier(f: TLFormula, consts: dict, memo: dict, first: bool,
             reads: dict) -> TLFormula:
    """``f``, read at the current time, as a formula read one step earlier:
    each leaf in ``consts`` becomes its constant, each ``Y g`` becomes ``g``
    (false when ``first``, at time 1), and constants are folded.

    Only the connective layer above leaves and ``Y`` nodes is walked, on an
    explicit stack; ``memo`` keeps each rewritten node for one letter class
    and one value of ``first``.  ``reads`` records, for every node put in
    a memo, whether its connective layer holds a leaf; that does not depend
    on the class or the time."""
    todo: list = [f]
    while todo:
        x = todo.pop()
        if type(x) is tuple:  # (connective, its operands), operands rewritten
            x, args = x
            memo[x] = _FOLD[type(x)](*map(memo.__getitem__, args))
            reads[x] = any(map(reads.__getitem__, args))
        elif x not in memo:
            if type(x) is Const:
                memo[x], reads[x] = x, False
            elif type(x) is Prev:
                memo[x], reads[x] = FALSE if first else x.child, False
            elif x in consts:
                memo[x], reads[x] = consts[x], True
            else:
                args = children(x)
                todo.append((x, args))
                todo += args
    return memo[f]


def prob_ps(e: CeaExpr, p: ProbAssignment) -> Fraction:
    """Product-space probability of a flat expression: the one limit of its
    ``first``, ``reverse`` and ``sparse`` embeddings (see the module
    docstring), always defined.

    A first walk checks flatness and gives every node, formula nodes
    included, the bitmask of the blocks it touches.  A second walk takes
    each value, a pair (num, den), as it reaches it: a maximal run of
    ``and`` or of ``or`` is regrouped into the connected components of its
    operands by shared blocks, joined by :func:`_combine`; an operand alone
    in its component is walked further, and a larger component, or a run
    that is one, is a piece (:func:`_piece`).  A ``~`` is the step 1 - x,
    so a negated piece is solved without its negation.
    """
    block_of = {name: 1 << k for k, b in enumerate(p.blocks) for name in b.events}
    blocks: dict = {}  # node -> bitmask of the blocks it touches
    for x in reversed(list(walk(e))):  # children before parents
        if type(x) is Atom:
            blocks[x] = block_of[x.name]
        elif type(x) is CeaCond or type(x) is CeaVar:
            _require_flat(e)  # raises, naming re-conditioning first
        else:
            blocks[x] = reduce(or_, map(blocks.__getitem__, children(x)), 0)

    # nodes, steps (kind, n) combining the last n values, and regrouped
    # pieces (run, blocks); operands are pushed right to left, so that
    # their values are pushed left to right
    values: list[tuple[int, int]] = []
    todo = [e]
    while todo:
        x = todo.pop()
        if type(x) is CeaNeg:
            todo += [(CeaNeg, 1), x.child]
        elif type(x) is tuple and type(x[0]) is type:
            kind, n = x
            values[-n:] = [_combine(kind, values[-n:])]
        elif type(x) is tuple:
            values.append(_piece(*x, p))
        elif type(x) is CeaSimple or len(
                groups := _components(_run_operands(x), blocks)) == 1:
            values.append(_piece(x, blocks[x], p))
        else:
            todo.append((type(x), len(groups)))
            for group in reversed(groups):
                todo.append(group[0] if len(group) == 1 else (reduce(type(x), group),
                            reduce(or_, (blocks[z] for z in group))))
    return Fraction(*values.pop())


def _combine(kind: type, values: list[tuple[int, int]]) -> tuple[int, int]:
    """The limit of a ``~``, ``and`` or ``or`` from its operands', by the product law."""
    den = prod(d for _, d in values)
    if kind is CeaAnd:
        return prod(n for n, _ in values), den
    missed = prod(d - n for n, d in values)  # the product of the 1 - x
    return (den - missed if kind is CeaOr else missed), den


def _run_operands(x: CeaExpr) -> list[CeaExpr]:
    """The operands of the maximal run of nodes of ``x``'s type below
    ``x``, left to right."""
    kind, out, todo = type(x), [], [x]
    while todo:
        y = todo.pop()
        if type(y) is kind:
            todo += (y.right, y.left)
        else:
            out.append(y)
    return out


def _components(operands: list[CeaExpr], blocks: dict[CeaExpr, int]
                ) -> list[list[CeaExpr]]:
    """``operands`` grouped into the connected components of "touch a
    common block", each group in operand order and ordered by its first."""
    parent = list(range(len(operands)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    first: dict[int, int] = {}  # block bit -> the first operand touching it
    for i, x in enumerate(operands):
        rest = blocks[x]
        while rest:
            bit = rest & -rest
            rest ^= bit
            parent[root(first.setdefault(bit, i))] = root(i)
    groups: dict[int, list[CeaExpr]] = {}
    for i, x in enumerate(operands):
        groups.setdefault(root(i), []).append(x)
    return list(groups.values())


def _piece(x: CeaExpr, which: int, p: ProbAssignment) -> tuple[int, int]:
    """The limit (num, den) of a piece over the blocks of ``p`` in bitmask
    ``which``, the ones it touches.  A simple conditional (a|b) needs no
    machine: its first and its latest defined value are both 1 with
    probability Pr(a and b) / Pr b in the limit (0 when Pr b = 0), weighed
    on the integer table of those blocks.  Any other piece runs compile ->
    minimize -> chain -> limit once, on its ``reverse`` embedding, whose
    condition is true, so the product law and 1 - x hold on the numerators'
    limits directly."""
    if type(x) is CeaSimple:
        blocks = [b for k, b in enumerate(p.blocks) if which >> k & 1]
        alg = EventAlgebra.of_checked(tuple(e for b in blocks for e in b.events))
        yes, no = _leaf(x, alg)  # raises past the atom table limit
        table = markov.block_table(blocks)[1]
        ones = sum(w for a, w in enumerate(table) if yes >> a & 1)
        defined = sum(w for a, w in enumerate(table) if (yes | no) >> a & 1)
        return (ones, defined) if defined else (0, 1)
    value = cond_asymptotic(embed_ps(x, "reverse"), p.restrict(which))
    return value.numerator, value.denominator


# ---------------------------------------------------------------------------
# Independence


def lift_defined(c: CondObject) -> CondObject:
    """The definedness indicator of a conditional: (denominator | true)."""
    return CondObject(c.den, TRUE)


def present_indep(c1: CondObject, c2: CondObject, p: ProbAssignment,
                  n: Optional[int] = None) -> tuple[bool, list[dict]]:
    """The four-equation independence test at time ``n`` (or in the limit).

    Each equation compares the conditional probability of a strict
    conjunction against the product of the factors' probabilities, with the
    definedness lift substituted for either or both sides; an equation with
    both sides undefined counts as satisfied.  Returns the verdict plus a
    per-equation report.
    """
    u1, u2 = lift_defined(c1), lift_defined(c2)
    singles = {x: _ratio(x, p, n) for x in (c1, c2, u1, u2)}

    checks = []
    for tag, (x, y) in (("i1", (c1, c2)), ("i2", (c1, u2)),
                        ("i3", (u1, c2)), ("i4", (u1, u2))):
        # the Sch conjunction of (f1 | g1) and (f2 | g2): (f1 and f2 | g1 and g2)
        lhs = _ratio(CondObject(And(x.num, y.num), And(x.den, y.den)), p, n)
        fx, fy = singles[x], singles[y]
        rhs = None if fx is None or fy is None else fx * fy
        holds = lhs == rhs  # None == None covers the both-undefined convention
        checks.append({"eq": tag, "lhs": lhs, "rhs": rhs, "holds": holds})
    return all(chk["holds"] for chk in checks), checks


def strong_indep(c1: CondObject, c2: CondObject,
                 p: ProbAssignment) -> tuple[bool, Optional[str]]:
    """Whether the two conditionals are projections of stochastically
    independent chains: the joint chain of the two minimal machines must
    factorize at the start and at every positively reachable state pair.
    The check is exact, on the integer law of the joint letter classes; a
    witness names states as ``minimize`` numbers them."""
    m1, m2 = minimal_machine(c1, p.alg), minimal_machine(c2, p.alg)
    pairs = (((i, j), a & b) for i, a in enumerate(m1.classes)
             for j, b in enumerate(m2.classes) if a & b)
    classes, keys = _classes_from_columns(pairs)
    den, weights = markov.class_weights(p, classes)
    live = [(i, j, w) for (i, j), w in zip(keys, weights) if w]
    todo, seen = [(m1.initial, m2.initial)], set()
    while todo:  # the start pair (while seen is empty), then pairs depth first
        q1, q2 = todo.pop()
        where = f"pair ({q1},{q2})" if seen else "start"
        joint, marg1, marg2 = {}, {}, {}
        for i, j, w in live:
            t1, t2 = m1.delta[q1][i], m2.delta[q2][j]
            joint[t1, t2] = joint.get((t1, t2), 0) + w
            marg1[t1] = marg1.get(t1, 0) + w
            marg2[t2] = marg2.get(t2, 0) + w
        for t1, w1 in marg1.items():
            for t2, w2 in marg2.items():
                w = joint.get((t1, t2), 0)
                if w * den != w1 * w2:
                    return False, (f"{where}: joint mass of pair ({t1},{t2}) is "
                                   f"{Fraction(w, den)}, product is "
                                   f"{Fraction(w1 * w2, den * den)}")
        for pair in joint:
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True, None


# ---------------------------------------------------------------------------
# Weak tautologies


def weak_tautology(e: CeaExpr, which: Algebra,
                   variable_cap: int = DEFAULT_VARIABLE_CAP
                   ) -> tuple[bool, Optional[dict[str, Value3]]]:
    """Exhaustively check that no valuation makes the expression false.

    Returns (True, None) or (False, counterexample valuation).
    """
    if which not in ("sac", "gnw"):
        raise ValueError("tautology checking targets the sac and gnw algebras")
    names = sorted({x.name for x in walk(e) if isinstance(x, CeaVar)})
    if len(names) > variable_cap:
        raise ValueError(f"{len(names)} variables exceed the cap {variable_cap}")
    # one pass evaluates every valuation of the last m variables at once:
    # at point j, the i-th of them has the value of index j // 3^(m-1-i) % 3
    m = min(len(names), DEFAULT_VARIABLE_CAP)
    outer, inner = names[:len(names) - m], names[len(names) - m:]
    full = (1 << 3 ** m) - 1
    sets = {}
    for i, name in enumerate(inner):
        w = 3 ** (m - 1 - i)
        comb = full // ((1 << 3 * w) - 1)  # bit 3w·r set for every r
        sets[name] = ((1 << w) - 1 << w) * comb, ((1 << w) - 1) * comb
    values = (Value3.FALSE, Value3.TRUE, Value3.UNDEF)
    for combo in itertools.product(values, repeat=len(outer)):
        sets.update((name, (full * (v is Value3.TRUE), full * (v is Value3.FALSE)))
                    for name, v in zip(outer, combo))
        _, no = trivalue.eval_sets(e, which, full, trivalue.variable_leaf(sets))
        if no:
            j = (no & -no).bit_length() - 1
            return False, dict(zip(names, combo + tuple(
                values[j // 3 ** (m - 1 - i) % 3] for i in range(m))))
    return True, None
