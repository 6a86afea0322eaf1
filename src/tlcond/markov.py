"""Exact probabilities: distributions over atoms, chains from machines, and
time-indexed / limiting probabilities by rational linear algebra.

Everything is a ``fractions.Fraction``; no floating point enters any result.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterator, Optional, Sequence

from .automata import MooreMachine3
from .syntax import FACTORED_EVENT_LIMIT, EventAlgebra, algebra
from .trivalue import Value3

ZERO = Fraction(0)
ONE = Fraction(1)


class PeriodicChainError(RuntimeError):
    """A reachable closed class is periodic: the limit may not exist."""


class SingularMatrixError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Distributions over atoms


@dataclass(frozen=True)
class Block:
    """One independent factor of a distribution: a flat table over its own
    events, local atom bit i standing for ``events[i]``."""

    events: tuple[str, ...]
    mass: tuple[Fraction, ...]


class ProbAssignment:
    """An exact probability distribution on the atoms of an event algebra,
    held as independent blocks that partition the algebra's events.

    ``ProbAssignment(alg, mass)`` is one block over the whole algebra.  The
    flat table ``mass``, one entry per atom of ``alg``, is built from the
    blocks on first use and kept.
    """

    def __init__(self, alg: EventAlgebra, mass: Optional[Sequence[Fraction]] = None,
                 *, blocks: Optional[tuple[Block, ...]] = None):
        if blocks is None:
            if len(mass) != alg.num_atoms:
                raise ValueError("one mass per atom required")
            blocks = (Block(alg.events, tuple(mass)),)
        if sorted(e for b in blocks for e in b.events) != sorted(alg.events):
            raise ValueError("blocks must partition the events")
        if any(len(b.mass) != 1 << len(b.events) for b in blocks):
            raise ValueError("one mass per atom required")
        if any(m < 0 for b in blocks for m in b.mass):
            raise ValueError("negative mass")
        if any(sum(b.mass) != 1 for b in blocks):
            raise ValueError("masses must sum to exactly 1")
        self.alg = alg
        self.blocks = blocks

    @cached_property
    def mass(self) -> tuple[Fraction, ...]:
        """The flat table: each atom's mass, the product of its blocks'."""
        if len(self.blocks) == 1 and self.blocks[0].events == self.alg.events:
            return self.blocks[0].mass
        out = [ZERO] * self.alg.num_atoms  # raises past the atom table limit
        bit = {name: 1 << i for i, name in enumerate(self.alg.events)}
        # the table block by block, each block's absent half first: with one
        # block per event in event order this is the atom order itself
        atoms, mass = [0], [ONE]
        for b in self.blocks:
            spread = [sum(bit[e] for i, e in enumerate(b.events) if local >> i & 1)
                      for local in range(len(b.mass))]
            atoms = [a | s for s in spread for a in atoms]
            mass = [m * w for w in b.mass for m in mass]
        for a, m in zip(atoms, mass):
            out[a] = m
        return tuple(out)

    def restrict(self, which: int) -> "ProbAssignment":
        """The marginal on the blocks in bitmask ``which``: those blocks,
        over their events in the algebra's order."""
        if which == (1 << len(self.blocks)) - 1:
            return self
        blocks = tuple(b for k, b in enumerate(self.blocks) if which >> k & 1)
        names = {e for b in blocks for e in b.events}
        alg = EventAlgebra(tuple(e for e in self.alg.events if e in names))
        return ProbAssignment(alg, blocks=blocks)

    def of_event(self, mask: int) -> Fraction:
        """Probability of a set of atoms (bitmask over atom indices)."""
        total = ZERO
        rest = mask
        while rest:
            low = rest & -rest
            total += self.mass[low.bit_length() - 1]
            rest ^= low
        return total

    @staticmethod
    def independent(alg: EventAlgebra, probs: dict[str, Fraction]) -> "ProbAssignment":
        """Product distribution from one marginal per basic event: one block
        per event."""
        missing = set(alg.events) - set(probs)
        if missing:
            raise ValueError(f"missing marginals for: {sorted(missing)}")
        unknown = set(probs) - set(alg.events)
        if unknown:
            raise ValueError(f"marginals for unknown events: {sorted(unknown)}")
        blocks = []
        for name in alg.events:
            p = Fraction(probs[name])
            blocks.append(Block((name,), (1 - p, p)))
        return ProbAssignment(alg, blocks=tuple(blocks))

    @staticmethod
    def uniform(alg: EventAlgebra) -> "ProbAssignment":
        share = Fraction(1, alg.num_atoms)
        return ProbAssignment(alg, (share,) * alg.num_atoms)

    @staticmethod
    def from_text(text: str) -> "ProbAssignment":
        """Parse the line-oriented distribution format.

        ``events: a b c`` then either one ``atom {a c}: 3/8`` line per atom
        (all 2^n atoms, masses summing to 1) or a single
        ``independent: a=1/2 b=1/3`` line.  An ``independent:`` line may
        name up to ``FACTORED_EVENT_LIMIT`` events, since it builds no table.
        """
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines or not lines[0].startswith("events:"):
            raise ValueError("distribution file must start with 'events: ...'")
        names = tuple(lines[0][len("events:"):].split())
        body = lines[1:]
        if len(body) == 1 and body[0].startswith("independent:"):
            alg_ = EventAlgebra(names, limit=FACTORED_EVENT_LIMIT)
            probs = {}
            for item in body[0][len("independent:"):].split():
                name, _, value = item.partition("=")
                if not value:
                    raise ValueError(f"malformed marginal {item!r}")
                probs[name] = _fraction(value)
            return ProbAssignment.independent(alg_, probs)
        alg_ = algebra(names)
        mass = [None] * alg_.num_atoms
        pat = re.compile(r"atom\s*\{([^}]*)\}\s*:\s*(\S+)$")
        for ln in body:
            m = pat.fullmatch(ln)
            if not m:
                raise ValueError(f"malformed distribution line: {ln!r}")
            atom = 0
            for name in m.group(1).split():
                atom |= 1 << alg_.index(name)
            if mass[atom] is not None:
                raise ValueError(f"atom {alg_.atom_text(atom)} listed twice")
            mass[atom] = _fraction(m.group(2))
        absent = [alg_.atom_text(a) for a, v in enumerate(mass) if v is None]
        if absent:
            raise ValueError(f"atoms not covered: {' '.join(absent)}")
        return ProbAssignment(alg_, tuple(mass))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# ---------------------------------------------------------------------------
# Chains


@dataclass(frozen=True)
class MarkovChain3:
    """Stochastic matrix with an initial distribution and three-valued labels.

    State k of the chain is the machine state reached after k+1 input
    letters: the first transition is folded into the initial distribution,
    matching the convention that a machine emits nothing in its start state.
    """

    init: tuple[Fraction, ...]
    trans: tuple[tuple[Fraction, ...], ...]
    labels: tuple[Value3, ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.init) != n or len(self.trans) != n:
            raise ValueError("inconsistent chain dimensions")
        if _nonzero_sum(self.init) != 1:
            raise ValueError("initial distribution must sum to 1")
        for row in self.trans:
            if len(row) != n or _nonzero_sum(row) != 1:
                raise ValueError("every transition row must sum to exactly 1")

    @property
    def n_states(self) -> int:
        return len(self.labels)


def _nonzero(row: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    """A row's nonzero (column, entry) pairs.  Cells holding the shared
    ``ZERO``, as ``chain_from_machine`` leaves them, are skipped without a
    call into ``Fraction``."""
    return [(j, w) for j, w in enumerate(row) if w is not ZERO and w]


def _nonzero_sum(row: Sequence[Fraction]) -> Fraction:
    """Sum of a row's nonzero entries; ValueError on a negative entry."""
    nonzero = [w for _, w in _nonzero(row)]
    if any(w < 0 for w in nonzero):
        raise ValueError("negative probability in a chain")
    return sum(nonzero)


def _successors(ch: MarkovChain3) -> list[list[tuple[int, Fraction]]]:
    """Each state's nonzero (successor, probability) pairs, in state order."""
    return [_nonzero(row) for row in ch.trans]


def chain_from_machine(m: MooreMachine3, p: ProbAssignment) -> MarkovChain3:
    if m.alg.events != p.alg.events:
        raise ValueError("machine and distribution use different event algebras")
    class_mass = [ZERO] * len(m.classes)
    for atom in range(m.alg.num_atoms):
        w = p.mass[atom]
        if w:
            class_mass[m.class_of_atom[atom]] += w
    n = m.n_states
    rows = []
    for q in range(n):
        row = [ZERO] * n
        for c, t in enumerate(m.delta[q]):
            if class_mass[c]:
                row[t] += class_mass[c]
        rows.append(tuple(row))
    init = [ZERO] * n
    for c, t in enumerate(m.delta[m.initial]):
        if class_mass[c]:
            init[t] += class_mass[c]
    return MarkovChain3(tuple(init), tuple(rows), tuple(m.labels))


def _step(dist: Sequence[Fraction],
          succ: list[list[tuple[int, Fraction]]]) -> list[Fraction]:
    out = [ZERO] * len(dist)
    for i, w in enumerate(dist):
        if w:
            for t, p in succ[i]:
                out[t] += w * p
    return out


def pr_series(ch: MarkovChain3, n: int
              ) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
    """(Pr value 1, Pr value 0, Pr undefined) at times 1..n, stepping the
    state distribution once per time."""
    succ = _successors(ch)
    dist = list(ch.init)
    for t in range(1, n + 1):
        if t > 1:
            dist = _step(dist, succ)
        buckets = {Value3.TRUE: ZERO, Value3.FALSE: ZERO, Value3.UNDEF: ZERO}
        for w, lab in zip(dist, ch.labels):
            buckets[lab] += w
        yield buckets[Value3.TRUE], buckets[Value3.FALSE], buckets[Value3.UNDEF]


def check_time_index(n: int) -> None:
    if n < 1:
        raise ValueError("time index starts at 1")


def pr_n(ch: MarkovChain3, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Probability that the value at time n is 1 / 0 / undefined (n >= 1)."""
    check_time_index(n)
    for row in pr_series(ch, n):
        pass
    return row


def pr_n_ratio(ch: MarkovChain3, n: int) -> Optional[Fraction]:
    """Conditional probability of 1 among defined values at time n; None
    when the value is undefined almost surely."""
    p1, p0, _ = pr_n(ch, n)
    if p1 + p0 == 0:
        return None
    return p1 / (p1 + p0)


# ---------------------------------------------------------------------------
# Exact linear algebra


def solve_linear(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve A X = B exactly.

    Forward Gaussian elimination on each row's nonzero entries (column c of
    B is column n + c of the row), pivoting in each column on the candidate
    row with the fewest nonzeros (lowest index on a tie), then back
    substitution.
    """
    n = len(a)
    rows = [{c: Fraction(x) for c, x in enumerate(row_a) if x}
            for row_a in a]
    for row, row_b in zip(rows, b):
        row.update((n + c, Fraction(x)) for c, x in enumerate(row_b) if x)
    width = len(b[0]) if b else 0
    # holders[c]: the rows not yet pivoted on that have a nonzero in column c
    holders = [set() for _ in range(n)]
    for r, row in enumerate(rows):
        for c in row:
            if c < n:
                holders[c].add(r)
    pivots = []
    for col in range(n):
        candidates = holders[col]
        if not candidates:
            raise SingularMatrixError("matrix is singular")
        pivot = min(candidates, key=lambda r: (len(rows[r]), r))
        candidates.remove(pivot)
        prow = rows[pivot]
        inv = ONE / prow.pop(col)
        prow = {c: x * inv for c, x in prow.items()}
        pivots.append(prow)
        for c in prow:
            if c < n:
                holders[c].discard(pivot)
        for r in candidates:
            row = rows[r]
            factor = row.pop(col)
            for c, x in prow.items():
                v = row.get(c)
                if v is None:
                    row[c] = -factor * x
                    if c < n:
                        holders[c].add(r)
                else:
                    v -= factor * x
                    if v:
                        row[c] = v
                    else:
                        del row[c]
                        if c < n:
                            holders[c].discard(r)
    x: list[list[Fraction]] = [[]] * n
    for col in range(n - 1, -1, -1):
        prow = pivots[col]
        sol = [prow.get(n + j, ZERO) for j in range(width)]
        for c, coef in prow.items():
            if c < n:
                for j, xc in enumerate(x[c]):
                    if xc:
                        sol[j] -= coef * xc
        x[col] = sol
    return x


def absorbing_solve(q_block: list[list[Fraction]],
                    r_block: list[list[Fraction]]) -> list[list[Fraction]]:
    """Absorption probabilities B = (Id - Q)^-1 R for an absorbing chain
    split into a transient block Q and a transient-to-absorbing block R."""
    n = len(q_block)
    if any(len(row) != n for row in q_block) or len(r_block) != n:
        raise ValueError("Q must be square with one R row per transient state")
    id_minus_q = [[-w if w else w for w in row] for row in q_block]
    for i, row in enumerate(id_minus_q):
        row[i] += ONE
    return solve_linear(id_minus_q, [list(row) for row in r_block])


# ---------------------------------------------------------------------------
# Limiting behavior


def _sccs(n: int, adj: list[list[int]]) -> list[list[int]]:
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


def _class_period(members: list[int], adj: Sequence[list[int]]) -> int:
    """gcd of cycle lengths of a strongly connected graph; ``adj`` gives
    each member's successors, all inside the class."""
    start = members[0]
    level = {start: 0}
    queue = [start]
    g = 0
    i = 0
    while i < len(queue):
        u = queue[i]
        i += 1
        for v in adj[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
            else:
                g = gcd(g, level[u] + 1 - level[v])
    return abs(g)


def stationary_distribution(succ: list[list[tuple[int, Fraction]]],
                            members: list[int]) -> dict[int, Fraction]:
    """Stationary law of an irreducible closed class (pi P = pi, sum = 1),
    given each state's nonzero (successor, probability) pairs."""
    k = len(members)
    pos = {s: i for i, s in enumerate(members)}
    # (P^T - Id) pi = 0 with the last equation replaced by sum(pi) = 1
    a = [[0] * k for _ in range(k)]  # an int 0 is cheap to test for zero
    for j, s in enumerate(members):
        a[j][j] -= ONE
        for t, w in succ[s]:
            a[pos[t]][j] += w
    a[k - 1] = [ONE] * k
    b = [[ZERO] for _ in range(k - 1)] + [[ONE]]
    x = solve_linear(a, b)
    return {s: x[pos[s]][0] for s in members}


def limiting_label_masses(ch: MarkovChain3) -> dict[Value3, Fraction]:
    """Limit of the state distribution, aggregated by label.

    Transient mass vanishes; each reachable closed class is required to be
    aperiodic (otherwise the limit may not exist and the call fails loudly).
    """
    n = ch.n_states
    succ = _successors(ch)
    adj = [[t for t, _ in pairs] for pairs in succ]
    sccs = _sccs(n, adj)
    comp_of = [0] * n
    for ci, comp in enumerate(sccs):
        for s in comp:
            comp_of[s] = ci
    closed = [ci for ci, comp in enumerate(sccs)
              if all(comp_of[t] == ci for s in comp for t in adj[s])]
    closed_pos = {ci: k for k, ci in enumerate(closed)}
    transient = [s for s in range(n) if comp_of[s] not in closed_pos]

    # absorption probability per closed class
    absorb = {ci: ZERO for ci in closed}
    if len(closed) == 1:
        absorb[closed[0]] = ONE  # a lone closed class absorbs everything
    else:
        for s in range(n):
            if ch.init[s] and comp_of[s] in closed_pos:
                absorb[comp_of[s]] += ch.init[s]
        if any(ch.init[s] for s in transient):
            tpos = {s: i for i, s in enumerate(transient)}
            # empty Q cells are int 0, cheap to test for zero; a transient
            # state's successor is transient or in a closed class
            q_block = [[0] * len(transient) for _ in transient]
            r_block = [[ZERO] * len(closed) for _ in transient]
            for i, s in enumerate(transient):
                for t, w in succ[s]:
                    if t in tpos:
                        q_block[i][tpos[t]] = w
                    else:
                        r_block[i][closed_pos[comp_of[t]]] += w
            b = absorbing_solve(q_block, r_block)
            for s in transient:
                if ch.init[s]:
                    for k, ci in enumerate(closed):
                        absorb[ci] += ch.init[s] * b[tpos[s]][k]

    masses = {Value3.TRUE: ZERO, Value3.FALSE: ZERO, Value3.UNDEF: ZERO}
    for ci in closed:
        if absorb[ci] == 0:
            continue
        comp = sccs[ci]
        if _class_period(comp, adj) != 1:
            raise PeriodicChainError(
                "a reachable closed class is periodic; the limit may not exist")
        pi = {comp[0]: ONE} if len(comp) == 1 else stationary_distribution(succ, comp)
        for s in comp:
            masses[ch.labels[s]] += absorb[ci] * pi[s]
    return masses


def asymptotic(ch: MarkovChain3) -> Optional[Fraction]:
    """Exact limit of ``pr_n_ratio``; None when the defined mass vanishes."""
    masses = limiting_label_masses(ch)
    defined = masses[Value3.TRUE] + masses[Value3.FALSE]
    if defined == 0:
        return None
    return masses[Value3.TRUE] / defined
