"""Deterministic three-valued Moore machines compiled from conditionals.

A machine reads atoms of an event algebra and emits the label of the state
reached after every letter; the initial state's label is never emitted.
Transitions are stored per *letter class*: atoms that every state treats
identically share one class, which keeps products of many small machines far
below the raw ``states x atoms`` table size.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .syntax import (And, Atom, CondObject, Const, EventAlgebra, Iff, Implies,
                     Not, Or, Prev, Since, TLFormula, children, subformulas)
from .trivalue import Value3


class MonoidSizeError(RuntimeError):
    """The transition monoid grew past the configured cap."""


@dataclass
class MooreMachine3:
    alg: EventAlgebra
    initial: int
    labels: list[Value3]          # state -> emitted value
    delta: list[list[int]]        # state -> class index -> state
    classes: list[int]            # class index -> atom bitmask; they partition the atoms

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def step(self, state: int, atom: int) -> int:
        """The state after ``atom``; IndexError for an atom outside the algebra."""
        for c, mask in enumerate(self.classes):
            if mask >> atom & 1:
                return self.delta[state][c]
        raise IndexError(f"atom {atom} outside the algebra")

    def run(self, letters: Iterable[int]) -> list[Value3]:
        """Output sequence on a word (one value per letter)."""
        q = self.initial
        out = []
        for a in letters:
            q = self.step(q, a)
            out.append(self.labels[q])
        return out

    @property
    def initial_is_entered(self) -> bool:
        return any(self.initial in row for row in self.delta)

    def validate(self) -> None:
        n = self.n_states
        assert 0 <= self.initial < n
        assert len(self.delta) == n
        assert all(len(row) == len(self.classes) for row in self.delta)
        assert all(0 <= min(row) and max(row) < n for row in self.delta)
        covered = 0
        for mask in self.classes:
            assert mask and covered & mask == 0, "classes must partition the atoms"
            covered |= mask
        assert covered == self.alg.full_event


def _lowest_atom(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _classes_from_columns(keyed_masks: Iterable[tuple]) -> tuple[list[int], list]:
    """Merge the atom sets whose keys agree into letter classes.

    ``keyed_masks`` yields (key, atom bitmask) pairs.  Returns the class
    masks sorted by lowest atom and the keys in class order.
    """
    by_key: dict = {}
    for key, mask in keyed_masks:
        by_key[key] = by_key.get(key, 0) | mask
    keys = sorted(by_key, key=lambda k: _lowest_atom(by_key[k]))
    return [by_key[k] for k in keys], keys


# ---------------------------------------------------------------------------
# Event masks


def event_mask(f: TLFormula, alg: EventAlgebra) -> int:
    """The set of atoms (bitmask) at which a present-tense formula holds."""
    if type(f) is Atom:
        return _atom_column(alg.index(f.name), alg.num_atoms)
    subs = subformulas([f])
    vals = _present_masks(subs, alg)
    if f not in vals:
        bad = next(x for x in subs if x not in vals)
        raise ValueError(f"not a present-tense formula: {bad!r}")
    return vals[f]


def _present_masks(subs: list, alg: EventAlgebra) -> dict:
    """The atom set of every formula in ``subs`` (each after its children)
    that holds no ``Y`` or ``S``, from one pass: a connective has a set when
    its operands do."""
    full = alg.full_event
    vals: dict = {}  # subformula -> its atom set
    for x in subs:
        kind = type(x)
        if kind is Prev or kind is Since:
            continue
        if kind is Atom:
            vals[x] = _atom_column(alg.index(x.name), full.bit_length())
        elif kind is Const:
            vals[x] = full if x.value else 0
        elif kind is Not and x.child in vals:
            vals[x] = full ^ vals[x.child]
        elif kind in (And, Or, Implies, Iff) and x.left in vals and x.right in vals:
            a, b = vals[x.left], vals[x.right]
            vals[x] = (a & b if kind is And else a | b if kind is Or
                       else (full ^ a) | b if kind is Implies else full ^ a ^ b)
    return vals


def _atom_column(i: int, num_atoms: int) -> int:
    """The atoms at which event ``i`` holds: runs of 2^i, doubled to fill."""
    run = 1 << i
    mask, width = ((1 << run) - 1) << run, 2 * run
    while width < num_atoms:
        mask |= mask << width
        width *= 2
    return mask


# ---------------------------------------------------------------------------
# Compilation
#
# Memory-only synthesis of a past-time monitor (Havelund & Rosu, TACAS 2002).
# One step reads, from the past, only the previous value of each Y's child and
# of each S node: Y f takes f's remembered value, f S g takes g's current
# value or (f's current value and the remembered value of f S g), and every
# other subformula is a function of the current letter and of those.  A state
# is therefore keyed on its label and on the current values of the remembered
# subformulas, and nothing else.  The start state is a key of its own that no
# transition enters, read as the all-false memory, which encodes exactly the
# position-zero clauses (no predecessor for Y, no earlier witness for S).
#
# The letter only enters through the maximal present-tense subformulas (the
# roots and the children of Y, S and of connectives over them): atoms on
# which all of these agree form one letter class, and each of them is a leaf
# whose value is a fixed set of classes.  A step computes every other
# subformula's value on all classes at once, as a bitmask over class
# indices, with one closure per subformula.  A state's key is one int: its
# label's code in the low two bits and, above them, bit s set when remembered
# subformula s holds, so the key shifted right by two is the memory.  The
# classes that lead to one successor are found by splitting the three label
# masks by each remembered mask that differs between classes; a remembered
# subformula that holds on every class sets its bit once for all of them.

_LABELS = (Value3.UNDEF, Value3.TRUE, Value3.FALSE)  # label code -> value


def _step(f, index: dict, slot: dict, full: int):
    """The closure computing ``f``'s class mask from the masks of the
    subformulas before it and the memory (an int, bit s for slot s)."""
    if isinstance(f, Not):
        a = index[f.child]
        return lambda vals, mem: full ^ vals[a]
    if isinstance(f, Prev):
        s = slot[index[f.child]]
        return lambda vals, mem: -(mem >> s & 1) & full
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
    return lambda vals, mem: vals[b] | (vals[a] & -(mem >> s & 1))


@lru_cache
def leaf_classes(c: CondObject, alg: EventAlgebra) -> tuple[tuple, tuple, tuple, tuple]:
    """The letter classes of a conditional: atoms on which every leaf, every
    maximal present-tense subformula, takes one value.

    Returns the subformulas a step computes, each after its children (every
    subformula over ``Y`` or ``S``, since its ancestors are too, and the
    leaves), the leaves in that order, the class masks sorted by lowest
    atom, and each class's key: the leaves' values, 1 or 0, in leaf order.
    Kept for the 128 most recently used keys, as tuples, so that no caller
    changes a kept entry.
    """
    subs = subformulas([c.num, c.den])
    present = _present_masks(subs, alg)
    leaf_set = present.keys() & ({c.num, c.den} | {x for f in subs if f not in present
                                                    for x in children(f)})
    subs = [f for f in subs if f not in present or f in leaf_set]
    leaves = [f for f in subs if f in leaf_set]
    parts = [((), alg.full_event)]
    for f in leaves:
        holds = present[f]
        parts = [(key + (bit,), part) for key, mask in parts
                 for bit, part in ((1, mask & holds), (0, mask & ~holds)) if part]
    classes, keys = _classes_from_columns(parts)
    return tuple(subs), tuple(leaves), tuple(classes), tuple(keys)


def compile_cond(c: CondObject, alg: EventAlgebra) -> MooreMachine3:
    """Compile a conditional object into a Moore machine computing it."""
    subs, leaves, classes, class_keys = leaf_classes(c, alg)
    index = {f: i for i, f in enumerate(subs)}
    full = (1 << len(classes)) - 1

    remembered = sorted({index[f.child] for f in subs if isinstance(f, Prev)}
                        | {i for i, f in enumerate(subs) if isinstance(f, Since)})
    slot = {i: s for s, i in enumerate(remembered)}
    slots = [(4 << s, i) for s, i in enumerate(remembered)]  # (key bit, index)
    leaf_mask = {index[f]: sum(1 << k for k, key in enumerate(class_keys) if key[j])
                 for j, f in enumerate(leaves)}
    steps = [(lambda vals, mem, mask=leaf_mask[i]: mask) if i in leaf_mask
             else _step(f, index, slot, full) for i, f in enumerate(subs)]
    num_idx, den_idx = index[c.num], index[c.den]

    def successors(mem: int) -> list[tuple[int, int]]:
        """(successor key, class mask) pairs of a state with memory ``mem``,
        in the order of their lowest class."""
        vals: list[int] = []
        for step in steps:
            vals.append(step(vals, mem))
        den, num = vals[den_idx], vals[num_idx]
        parts = [(code, mask) for code, mask in  # codes index _LABELS
                 ((0, full ^ den), (1, den & num), (2, den & ~num)) if mask]
        held = 0  # the remembered subformulas that hold on every class
        for bit, i in slots:
            value = vals[i]
            if value == full:
                held |= bit
            elif value:
                parts = [(k, part) for key, mask in parts
                         for k, part in ((key | bit, mask & value),
                                         (key, mask & ~value)) if part]
        parts.sort(key=lambda kv: kv[1] & -kv[1])
        return [(key | held, mask) for key, mask in parts]

    # states are numbered as they are discovered, each state's successors in
    # the order of their lowest class: breadth-first in class order, the
    # numbering that minimize gives its output.  States with one memory
    # differ only in label, so a memory is expanded once: when a later state
    # has it, its successors are already numbered and its row is reused.
    states: list = [None]  # the start state, read as the all-false memory
    state_ids: dict = {None: 0}
    delta: list[list[int]] = []
    rows: dict[int, list[int]] = {}  # memory -> row
    for key in states:  # states grows while it is read
        mem = 0 if key is None else key >> 2
        row = rows.get(mem)
        if row is None:
            row = rows[mem] = [0] * len(classes)
            for nxt, mask in successors(mem):
                tid = state_ids.get(nxt)
                if tid is None:
                    tid = state_ids[nxt] = len(states)
                    states.append(nxt)
                while mask:
                    low = mask & -mask
                    row[low.bit_length() - 1] = tid
                    mask ^= low
        delta.append(list(row))

    labels = [Value3.UNDEF] + [_LABELS[key & 3] for key in states[1:]]
    m = MooreMachine3(alg, 0, labels, delta, list(classes))
    m.validate()
    return m


# ---------------------------------------------------------------------------
# Product


def product(ms: Sequence[MooreMachine3],
            combine: Callable[[tuple[Value3, ...]], Value3]) -> MooreMachine3:
    """Coordinate-wise product; labels are ``combine`` of component labels."""
    if not ms:
        raise ValueError("product of zero machines")
    alg = ms[0].alg
    for m in ms[1:]:
        if m.alg.events != alg.events:
            raise ValueError("product requires machines over one alphabet")

    # a joint class is keyed by its class index in every machine
    joint = [((), alg.full_event)]
    for m in ms:
        joint = [(key + (c,), mask & cm) for key, mask in joint
                 for c, cm in enumerate(m.classes) if mask & cm]
    masks, keys = _classes_from_columns(joint)

    start = tuple(m.initial for m in ms)
    state_ids = {start: 0}
    tuples = [start]
    delta: list[list[int]] = []
    deltas = [m.delta for m in ms]
    k = len(ms)
    for tup in tuples:  # tuples grows while it is read: breadth-first
        row = []
        for key in keys:
            nxt = tuple(deltas[i][tup[i]][key[i]] for i in range(k))
            tid = state_ids.get(nxt)
            if tid is None:
                tid = state_ids[nxt] = len(tuples)
                tuples.append(nxt)
            row.append(tid)
        delta.append(row)

    labels = [combine(tuple(ms[i].labels[tup[i]] for i in range(k)))
              for tup in tuples]
    for v in labels:
        if not isinstance(v, Value3):
            raise ValueError("combine must return a truth value")
    return MooreMachine3(alg, 0, labels, delta, masks)


# ---------------------------------------------------------------------------
# Minimization
#
# States are merged when they emit identical output sequences on every word
# *and* carry the same label, since an entered state's label is emitted on
# arrival.  The one exception is an initial state that no transition enters:
# its label is never emitted, so it may be folded into any state with the
# same successor behavior.
#
# A machine has one canonical form (_canonical), which minimize returns and
# canonical_key reads: states numbered breadth-first from the start, each
# state's successors in class order, unreachable states dropped, and the
# classes whose columns are equal merged.  Every constructor sorts classes
# by their lowest atom, so class order is atom order and the numbering
# depends only on the machine's per-atom behavior; _canonical sorts them
# too, in case a machine was built by hand.


def minimize(m: MooreMachine3) -> MooreMachine3:
    n = m.n_states
    entered = m.initial_is_entered
    consider = [q for q in range(n) if entered or q != m.initial]

    block = [-1] * n  # state -> block; -1 for a start state not considered
    label_ids: dict[Value3, int] = {}
    for q in consider:
        block[q] = label_ids.setdefault(m.labels[q], len(label_ids))
    n_blocks = len(label_ids)

    while True:
        sig_ids: dict = {}
        new_block = [-1] * n
        for q in consider:
            sig = (block[q], tuple(map(block.__getitem__, m.delta[q])))
            new_block[q] = sig_ids.setdefault(sig, len(sig_ids))
        block = new_block
        if len(sig_ids) == n_blocks:
            break
        n_blocks = len(sig_ids)

    reps = [0] * n_blocks  # block -> a state in it
    for q in consider:
        reps[block[q]] = q
    delta = [[block[t] for t in m.delta[r]] for r in reps]
    initial = block[m.initial]
    if not entered:
        # the start folds into the block with its row that comes first
        # breadth-first from it, so the choice is the machine's, not its
        # numbering's; with no such block, the start and its (never
        # emitted) label are kept, and otherwise _canonical drops them
        reps.append(m.initial)
        delta.append([block[t] for t in m.delta[m.initial]])
        initial = next((b for b in _breadth_first(delta, n_blocks, m.classes)[1:]
                        if delta[b] == delta[n_blocks]), n_blocks)
    return _canonical(MooreMachine3(m.alg, initial, [m.labels[r] for r in reps],
                                    delta, m.classes))


@lru_cache
def minimal_machine(c: CondObject, alg: EventAlgebra) -> MooreMachine3:
    """``minimize(compile_cond(c, alg))``, kept for the 128 most recently used
    keys and, behind them, shapes (``_shape``), so a copy of ``c`` with its
    events renamed compiles nothing.  The machine is shared: never mutate it."""
    key = _shape(c, alg)
    m = _SHAPES.pop(key, None) or minimize(compile_cond(c, alg))
    _SHAPES[key] = m  # the dict's order is least recently used first
    if len(_SHAPES) > 128:
        del _SHAPES[next(iter(_SHAPES))]
    return MooreMachine3(alg, m.initial, m.labels, m.delta, m.classes)


def _shape(c: CondObject, alg: EventAlgebra) -> tuple:
    """All that the minimal machine of ``c`` reads of the events: the
    subformulas, children first, each event as its position in ``alg.events``
    (one outside, which ``compile_cond`` refuses, as itself), each other node
    as its type and children's indices; then num's, den's, the event count."""
    position = {name: i for i, name in enumerate(alg.events)}
    index, key = {}, []  # subformula -> its index in key
    for f in subformulas([c.num, c.den]):
        kind = type(f)
        index[f] = len(key)
        key.append(position.get(f.name, f) if kind is Atom else f if kind is Const
                   else (kind, *map(index.__getitem__, children(f))))
    return tuple(key), index[c.num], index[c.den], len(alg.events)


def _forget_machines(forget_keys=minimal_machine.cache_clear) -> None:
    forget_keys()
    _SHAPES.clear()


_SHAPES: dict = {}  # shape -> minimal machine
minimal_machine.cache_clear = _forget_machines  # both levels


def _breadth_first(delta: list[list[int]], start: int, classes: list[int]) -> list[int]:
    """The states reached from ``start``, breadth-first, each state's
    successors in the order of their classes' lowest atoms."""
    by_atom = sorted(range(len(classes)), key=lambda c: _lowest_atom(classes[c]))
    order, seen = [start], {start}
    for q in order:  # order grows while it is read
        for t in map(delta[q].__getitem__, by_atom):
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def _canonical(m: MooreMachine3) -> MooreMachine3:
    """The canonical form of ``m`` (see above), validated."""
    order = _breadth_first(m.delta, m.initial, m.classes)
    number = {q: i for i, q in enumerate(order)}
    rows = [[number[t] for t in m.delta[q]] for q in order]
    classes, cols = _classes_from_columns(zip(zip(*rows), m.classes))
    out = MooreMachine3(m.alg, 0, [m.labels[q] for q in order],
                        [list(row) for row in zip(*cols)], classes)
    out.validate()
    return out


def canonical_key(m: MooreMachine3):
    """A machine invariant, the fields of its canonical form: equal keys =
    isomorphic machines (the label of a never-entered initial state is
    ignored)."""
    c = _canonical(m)
    labels = list(c.labels)
    if not c.initial_is_entered:
        labels[0] = None
    return tuple(labels), tuple(map(tuple, c.delta)), tuple(c.classes)


def isomorphic(m1: MooreMachine3, m2: MooreMachine3) -> bool:
    return m1.alg.events == m2.alg.events and canonical_key(m1) == canonical_key(m2)


# ---------------------------------------------------------------------------
# Counter-freeness
#
# A machine has a counter when some word cyclically permutes s > 1 distinct
# states.  Equivalently the transition monoid is aperiodic: every element t
# satisfies t^k = t^(k+1) for some k <= number of states.


def is_counter_free(m: MooreMachine3, monoid_cap: int = 100_000) -> bool:
    n = m.n_states
    gens = {tuple(m.delta[q][c] for q in range(n)) for c in range(len(m.classes))}
    monoid = set(gens)
    frontier = list(gens)
    while frontier:
        if len(monoid) > monoid_cap:
            raise MonoidSizeError(
                f"transition monoid exceeded {monoid_cap} elements")
        nxt = []
        for t in frontier:
            for g in gens:
                comp = tuple(t[g[q]] for q in range(n))
                if comp not in monoid:
                    monoid.add(comp)
                    nxt.append(comp)
        frontier = nxt

    for t in monoid:
        cur = t
        for _ in range(n):
            nxt = tuple(cur[t[q]] for q in range(n))
            if nxt == cur:
                break
            cur = nxt
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# DOT export


def _primes(f: int, n: int, memo: dict) -> frozenset[tuple[int, int]]:
    """The prime implicants ``(care, value)`` of the atom set ``f`` over events
    0..n-1 by cofactoring on event n-1 (Brayton et al. 1984): those without it
    are the conjunction f0 & f1's, those with it f0's or f1's that it lacks."""
    if f == 0 or f == (1 << (1 << n)) - 1:
        return frozenset([(0, 0)] if f else [])
    if (f, n) not in memo:
        e = 1 << (n - 1)  # the event's bit, and the atoms in a cofactor
        f0, f1 = f & ((1 << e) - 1), f >> e
        both = _primes(f0 & f1, n - 1, memo)
        memo[f, n] = both.union(*(
            {(care | e, value | bit) for care, value in _primes(g, n - 1, memo) - both}
            for bit, g in ((0, f0), (e, f1))))
    return memo[f, n]


@lru_cache
def event_text(mask: int, alg: EventAlgebra) -> str:
    """Readable boolean description of an atom set: a greedy cover by its
    prime implicants, fewest literals first."""
    if mask == alg.full_event:
        return "true"
    if mask == 0:
        return "false"
    nev = len(alg.events)
    # sides[i][v]: the atoms where event i is v
    sides = [(alg.full_event ^ (col := _atom_column(i, alg.num_atoms)), col)
             for i in range(nev)]
    terms = ([(i, bool(value >> i & 1)) for i in range(nev) if care >> i & 1]
             for care, value in _primes(mask, nev, {}))
    remaining, chosen = mask, []
    for lits in sorted(terms, key=lambda lits: (len(lits), lits)):
        hit = remaining
        for i, v in lits:
            hit &= sides[i][v]
        if hit:
            chosen.append(lits)
            remaining ^= hit
        if not remaining:
            break
    return " | ".join(
        "&".join(alg.events[i] if v else "!" + alg.events[i] for i, v in lits)
        for lits in chosen)


def to_dot(m: MooreMachine3, name: str = "machine") -> str:
    """GraphViz text; parallel edges between two states are merged and the
    merged edge is labeled by the union of their letters."""
    lines = [f'digraph "{name}" {{', "  rankdir=LR;",
             '  __start [shape=point, label=""];']
    for q in range(m.n_states):
        lines.append(f'  q{q} [shape=circle, label="{m.labels[q].symbol}"];')
    lines.append(f"  __start -> q{m.initial};")
    for q in range(m.n_states):
        by_target: dict[int, int] = {}
        for c, t in enumerate(m.delta[q]):
            by_target[t] = by_target.get(t, 0) | m.classes[c]
        for t in sorted(by_target):
            label = event_text(by_target[t], m.alg).replace('"', r'\"')
            lines.append(f'  q{q} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
