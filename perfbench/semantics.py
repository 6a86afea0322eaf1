"""Reference semantics that the benchmark checks answers against.

Nothing here imports ``tlcond``: expressions are generated as small tuple
trees, rendered to text for the program, and evaluated here directly from the
definitions (three-valued connectives, closed forms of the product-space
algebra on disjoint leaves).

Event trees:       ("ev", name) | ("not", x) | ("and", x, y) | ("or", x, y)
Conditional trees: ("simple", num, den) | ("cneg", c) | ("cand", c, d)
                   | ("cor", c, d) | ("ccond", c, d) | ("var", name)

A three-valued value is 0, 1 or ``U`` (undefined).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

U = "U"


# ---------------------------------------------------------------------------
# Event expressions


def ev_text(x) -> str:
    tag = x[0]
    if tag == "ev":
        return x[1]
    if tag == "not":
        return "not " + _ev_operand(x[1])
    return f"{_ev_operand(x[1])} {tag} {_ev_operand(x[2])}"


def _ev_operand(x) -> str:
    return ev_text(x) if x[0] in ("ev", "not") else f"({ev_text(x)})"


def ev_holds(x, atom: frozenset) -> bool:
    tag = x[0]
    if tag == "ev":
        return x[1] in atom
    if tag == "not":
        return not ev_holds(x[1], atom)
    if tag == "and":
        return ev_holds(x[1], atom) and ev_holds(x[2], atom)
    return ev_holds(x[1], atom) or ev_holds(x[2], atom)


def atoms(marginals: dict) -> list[tuple[frozenset, Fraction]]:
    """Every atom of an independent distribution with its mass."""
    names = list(marginals)
    out = []
    for bits in product((False, True), repeat=len(names)):
        mass = Fraction(1)
        for name, bit in zip(names, bits):
            mass *= marginals[name] if bit else 1 - marginals[name]
        out.append((frozenset(n for n, b in zip(names, bits) if b), mass))
    return out


def subsets(events) -> list[frozenset]:
    """Every atom over ``events``, as the set of events true in it."""
    return [frozenset(n for n, b in zip(events, bits) if b)
            for bits in product((False, True), repeat=len(events))]


def table_atoms(events, masses: dict) -> list[tuple[frozenset, Fraction]]:
    """Atoms of an explicit atom table {frozenset of true events: mass}."""
    return [(a, masses[a]) for a in subsets(events)]


def prob(atom_masses, pred) -> Fraction:
    return sum((m for a, m in atom_masses if pred(a)), Fraction(0))


# ---------------------------------------------------------------------------
# Conditional expressions


def cond_text(c) -> str:
    tag = c[0]
    if tag == "simple":
        return f"({ev_text(c[1])} | {ev_text(c[2])})"
    if tag == "var":
        return c[1]
    if tag == "cneg":
        return "~" + _cond_operand(c[1])
    if tag == "ccond":
        return f"({cond_text(c[1])} | {cond_text(c[2])})"
    word = "and" if tag == "cand" else "or"
    return f"{_cond_operand(c[1])} {word} {_cond_operand(c[2])}"


def _cond_operand(c) -> str:
    return cond_text(c) if c[0] in ("simple", "var", "cneg", "ccond") \
        else f"({cond_text(c)})"


def leaves(c) -> list:
    if c[0] in ("simple", "var"):
        return [c]
    return [x for child in c[1:] for x in leaves(child)]


def _and3(algebra, x, y):
    if algebra == "sch":
        return U if U in (x, y) else x & y
    if algebra == "sac":  # undefined is the identity
        if x == U:
            return y
        return x if y == U else x & y
    # gnw: minimum under 0 < U < 1
    if 0 in (x, y):
        return 0
    return U if U in (x, y) else 1


def _or3(algebra, x, y):
    if algebra == "sch":
        return U if U in (x, y) else x | y
    if algebra == "sac":
        if x == U:
            return y
        return x if y == U else x | y
    if 1 in (x, y):
        return 1
    return U if U in (x, y) else 0


def _cond3(algebra, x, y):
    """(x | y): undefined on a false condition, x on a true one; on an
    undefined condition sac passes x through and gnw keeps only 0."""
    if y == 0 or x == U:
        return U
    if y == 1:
        return x
    if algebra == "sac":
        return x
    return 0 if x == 0 else U


def value3(c, algebra: str, leaf) -> object:
    """Value of a conditional tree; ``leaf`` gives the value of a leaf."""
    tag = c[0]
    if tag in ("simple", "var"):
        return leaf(c)
    if tag == "cneg":
        v = value3(c[1], algebra, leaf)
        return U if v == U else 1 - v
    x = value3(c[1], algebra, leaf)
    y = value3(c[2], algebra, leaf)
    if tag == "cand":
        return _and3(algebra, x, y)
    if tag == "cor":
        return _or3(algebra, x, y)
    return _cond3(algebra, x, y)


def simple_value(c, atom: frozenset):
    if not ev_holds(c[2], atom):
        return U
    return int(ev_holds(c[1], atom))


def present_value(c, algebra: str, atom: frozenset):
    return value3(c, algebra, lambda s: simple_value(s, atom))


def present_masses(c, algebra, atom_masses) -> tuple[Fraction, Fraction]:
    """(Pr value 1, Pr value defined) of a present-tense expression."""
    yes = defined = Fraction(0)
    for a, m in atom_masses:
        v = present_value(c, algebra, a)
        if v != U:
            defined += m
            if v == 1:
                yes += m
    return yes, defined


def present_prob(c, algebra, atom_masses):
    yes, defined = present_masses(c, algebra, atom_masses)
    return None if defined == 0 else yes / defined


# ---------------------------------------------------------------------------
# Product-space algebra on leaves over pairwise disjoint events


def ps_closed_form(c, marginals: dict) -> Fraction:
    """and multiplies, or is 1 - prod(1 - x), ~ is 1 - x; a leaf (a|b) is
    Pr(a and b) / Pr(b)."""
    tag = c[0]
    if tag == "simple":
        am = atoms({n: marginals[n] for n in leaf_events(c)})
        den = prob(am, lambda a: ev_holds(c[2], a))
        return prob(am, lambda a: ev_holds(c[1], a) and ev_holds(c[2], a)) / den
    if tag == "cneg":
        return 1 - ps_closed_form(c[1], marginals)
    x = ps_closed_form(c[1], marginals)
    y = ps_closed_form(c[2], marginals)
    return x * y if tag == "cand" else x + y - x * y


def leaf_events(c) -> list[str]:
    names: list[str] = []

    def walk(x):
        if x[0] == "ev":
            names.append(x[1])
        else:
            for child in x[1:]:
                walk(child)
    walk(c[1])
    walk(c[2])
    return list(dict.fromkeys(names))


def ps_first_text(c) -> str:
    """The first-resolution embedding as conditional-object text: each leaf
    (a|b) becomes O(a and b and not Y O b), conditioned on true."""
    def body(x) -> str:
        tag = x[0]
        if tag == "simple":
            a, b = ev_text(x[1]), ev_text(x[2])
            return f"(O (({a}) and ({b}) and not Y O ({b})))"
        if tag == "cneg":
            return f"(not {body(x[1])})"
        word = "and" if tag == "cand" else "or"
        return f"({body(x[1])} {word} {body(x[2])})"
    return f"({body(c)} | true)"

