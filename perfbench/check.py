"""Checks one request's exit code and output against its reference.

Closed forms and three-valued semantics come from :mod:`semantics`.  Where
no closed form exists, series are compared with ``tlcond.oracle``'s
brute-force word enumeration, which shares no code with the
machine-and-chain pipeline it checks.  Checking runs outside the timed
region and remembers its verdict for each distinct output.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import product

from . import semantics as sem
from .workloads import series_text

SYMBOL = {0: "0", 1: "1", sem.U: "⊥"}
_VALUE = {"0": 0, "1": 1, "⊥": sem.U}


class Checker:
    def __init__(self, tlcond):
        self._tl = tlcond
        self._memo: dict = {}
        self._expect: dict = {}

    def check(self, req, rc, out: str, err: str) -> str | None:
        """None when the answer is right, otherwise why it is not."""
        key = (req.rid, rc, out, err)
        if key not in self._memo:
            if req.rid not in self._expect:
                self._expect[req.rid] = req.expect()
            want_rc, *expect = self._expect[req.rid]
            if rc != want_rc:
                self._memo[key] = (f"exit code {rc}, expected {want_rc}"
                                   + (f" ({err.strip()[:160]})" if err.strip() else ""))
            else:
                self._memo[key] = getattr(self, "_" + expect[0])(expect, out, err)
        return self._memo[key]

    # -- one method per reference kind --------------------------------------

    def _text(self, expect, out, err):
        return None if out == expect[1] else _diff(expect[1], out)

    def _error(self, expect, out, err):
        return None if out == "" and err.startswith("error:") else \
            "an input error must print nothing on stdout and 'error:' on stderr"

    def _indep(self, expect, out, err):
        lines = out.splitlines()
        want = f"independent: {expect[1]}"
        if not lines or lines[0] != want:
            return f"expected {want!r}, got {lines[:1]!r}"
        if len(lines) != (1 if expect[1] == "yes" else 2):
            return f"unexpected witness lines: {lines[1:]!r}"
        return None

    def _taut(self, expect, out, err):
        _, tree, algebra = expect
        names = sorted({leaf[1] for leaf in sem.leaves(tree)})

        def value(valuation):
            return sem.value3(tree, algebra, lambda v: valuation[v[1]])
        falsified = any(value(dict(zip(names, combo))) == 0
                        for combo in product((0, 1, sem.U), repeat=len(names)))
        if not falsified:
            return None if out == "weak-tautology: yes\n" else \
                f"expected a weak tautology, got {out!r}"
        m = re.fullmatch(r"weak-tautology: no \((.*)\)\n", out)
        if not m:
            return f"expected a counterexample, got {out!r}"
        witness = dict(item.split("=") for item in m.group(1).split())
        if sorted(witness) != names or value(
                {k: _VALUE[v] for k, v in witness.items()}) != 0:
            return f"witness {m.group(1)!r} does not falsify the expression"
        return None

    def _machine(self, expect, out, err):
        _, kind, tree = expect
        if "counter-free: yes" not in err:
            return f"expected 'counter-free: yes' on stderr, got {err!r}"
        try:
            start, labels, edges = _parse_dot(out)
        except ValueError as exc:
            return str(exc)
        events = sorted({name for leaf in sem.leaves(tree)
                         for name in sem.leaf_events(leaf)})
        letters = sem.subsets(events)
        depth = 3 if len(letters) <= 16 else 2

        def step_ref(history, atom):
            if kind != "ps":
                return None, sem.present_value(tree, kind, atom)
            resolved = dict(history)
            for i, leaf in enumerate(sem.leaves(tree)):
                if i not in resolved and sem.ev_holds(leaf[2], atom):
                    resolved[i] = sem.ev_holds(leaf[1], atom)
            value = sem.value3(tree, "sch", _by_position(tree, resolved))
            return tuple(sorted(resolved.items())), value

        def walk(state, history, word, left):
            for atom in letters:
                targets = [t for t, label in edges[state] if _holds(label, atom)]
                if len(targets) != 1:
                    return f"state q{state} has {len(targets)} edges for {sorted(atom)}"
                nxt_history, want = step_ref(history, atom)
                if labels[targets[0]] != SYMBOL[want]:
                    return (f"after {[sorted(a) for a in word + [atom]]} the machine "
                            f"emits {labels[targets[0]]}, expected {SYMBOL[want]}")
                if left > 1:
                    bad = walk(targets[0], nxt_history, word + [atom], left - 1)
                    if bad:
                        return bad
            return None
        return walk(start, (), [], depth)

    def _corpus(self, expect, out, err):
        _, text, table = expect
        rows = self._brute(text, table, 4)
        return self._text(("text", series_text(rows)), out, err)

    def _oracle(self, expect, out, err):
        _, text, table, prefix, limit, tol = expect
        lines = out.splitlines()
        want = series_text(self._brute(text, table, prefix)).splitlines()
        if lines[:prefix + 1] != want:
            return "differs from brute force on the prefix: " + _diff(
                "\n".join(want), "\n".join(lines[:prefix + 1]))
        for line in lines[1:]:
            n, p1, p0, pbot, ratio = line.split(",")
            p1, p0, pbot = Fraction(p1), Fraction(p0), Fraction(pbot)
            if p1 + p0 + pbot != 1 or pbot != 0 or Fraction(ratio) != p1:
                return f"row {n} is not a distribution of a defined value"
        if abs(p1 - limit) > tol:
            return f"p1 at n={n} is {p1}, more than {tol} from the limit {limit}"
        return None

    def _brute(self, text, table, n):
        events, masses = table
        tl = self._tl
        alg = tl.algebra(" ".join(events))
        mass = tuple(masses[frozenset(e for i, e in enumerate(events) if atom >> i & 1)]
                     for atom in range(alg.num_atoms))
        p = tl.ProbAssignment(alg, mass)
        return tl.brute_pr_series(tl.parse_cond(text, alg), p, n)


def _by_position(tree, resolved):
    positions = {id(leaf): i for i, leaf in enumerate(sem.leaves(tree))}
    return lambda leaf: int(resolved.get(positions[id(leaf)], False))


def _diff(want: str, got: str) -> str:
    for i, (a, b) in enumerate(zip(want.splitlines(), got.splitlines())):
        if a != b:
            return f"line {i + 1}: expected {a[:120]!r}, got {b[:120]!r}"
    return (f"expected {len(want.splitlines())} lines, "
            f"got {len(got.splitlines())}: {got[:120]!r}")


_NODE = re.compile(r'\s*q(\d+) \[shape=circle, label="(.)"\];')
_START = re.compile(r"\s*__start -> q(\d+);")
_EDGE = re.compile(r'\s*q(\d+) -> q(\d+) \[label="(.*)"\];')


def _parse_dot(text: str):
    labels: dict = {}
    edges: dict = {}
    start = None
    for line in text.splitlines():
        if m := _NODE.fullmatch(line):
            labels[int(m.group(1))] = m.group(2)
            edges.setdefault(int(m.group(1)), [])
        elif m := _START.fullmatch(line):
            start = int(m.group(1))
        elif m := _EDGE.fullmatch(line):
            edges.setdefault(int(m.group(1)), []).append(
                (int(m.group(2)), m.group(3)))
    if start is None or not labels:
        raise ValueError(f"not a machine in DOT form: {text[:120]!r}")
    return start, labels, edges


def _holds(label: str, atom: frozenset) -> bool:
    """Evaluate an edge label: implicants like ``a&!b`` joined by `` | ``."""
    def term(t: str) -> bool:
        if t in ("true", "false"):
            return t == "true"
        return all((lit[1:] not in atom) if lit.startswith("!") else (lit in atom)
                   for lit in t.split("&"))
    return any(term(t) for t in label.split(" | "))
