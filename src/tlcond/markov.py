"""Exact probabilities: distributions over atoms, chains from machines, and
time-indexed / limiting probabilities by rational linear algebra.

Every result is a ``fractions.Fraction``, and no floating point enters any.
Inside the layer, probabilities are integer weights over one common
denominator: a distribution's blocks (each over its own least common
denominator, checked once when it is made) and atoms, a chain's rows, the
state weights of a series and the rows of a linear system.  A
distribution's ``Fraction`` masses are views of its weights.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterator, Optional, Sequence

from .automata import MooreMachine3
from .syntax import EventAlgebra
from .trivalue import Value3

ZERO = Fraction(0)
ONE = Fraction(1)
# one line of a distribution file's atom table: ``atom {a c}: 3/8``
_ATOM_LINE = re.compile(r"atom\s*\{([^}]*)\}\s*:\s*(\S+)$")


class PeriodicChainError(RuntimeError):
    """A reachable closed class is periodic: the limit may not exist."""


class SingularMatrixError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Distributions over atoms


class Block:
    """One independent factor of a distribution: a flat table over its own
    events, local atom bit i standing for ``events[i]``, held as integer
    ``weights`` over ``den``, their least common denominator, and checked
    once, in integers, when it is made.  ``mass`` is a view of the weights.
    """

    def __init__(self, events: Sequence[str], mass: Sequence[Fraction]):
        den = lcm(*(m.denominator for m in mass))
        self._hold(tuple(events), den,
                   tuple(m.numerator * (den // m.denominator) for m in mass))

    @classmethod
    def over(cls, events: tuple[str, ...], den: int, weights: tuple[int, ...]):
        """The block of integer ``weights`` over their LCD ``den``."""
        block = cls.__new__(cls)
        block._hold(events, den, weights)
        return block

    def _hold(self, events, den, weights):
        if len(weights) != 1 << len(events):
            raise ValueError("one mass per atom required")
        if min(weights) < 0:
            k = next(k for k, w in enumerate(weights) if w < 0)
            atom = " ".join(e for i, e in enumerate(events) if k >> i & 1)
            raise ValueError(f"negative mass {Fraction(weights[k], den)} "
                             f"for atom {{{atom}}}")
        if sum(weights) != den:
            raise ValueError("masses must sum to exactly 1")
        self.events, self.den, self.weights = events, den, weights

    @cached_property
    def mass(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.den) if w else ZERO for w in self.weights)


class ProbAssignment:
    """An exact probability distribution on the atoms of an event algebra,
    held as independent blocks that partition the algebra's events.

    ``ProbAssignment(alg, mass)`` is one block over the whole algebra.  A
    distribution checks only that its blocks, checked when made, partition
    the events; :meth:`restrict` reuses them.  The flat table ``mass``, one
    entry per atom of ``alg``, is a view built on first use and kept.
    """

    def __init__(self, alg: EventAlgebra, mass: Optional[Sequence[Fraction]] = None,
                 *, blocks: Optional[tuple[Block, ...]] = None):
        if blocks is None:
            if len(mass) != alg.num_atoms:
                raise ValueError("one mass per atom required")
            blocks = (Block(alg.events, mass),)
        if sorted(e for b in blocks for e in b.events) != sorted(alg.events):
            raise ValueError("blocks must partition the events")
        self.alg = alg
        self.blocks = blocks

    @cached_property
    def weights(self) -> tuple[int, tuple[int, ...]]:
        """The flat table as integers over one common denominator: ``(den,
        w)`` with ``mass[a] == Fraction(w[a], den)``.  ``den`` is the product
        of the blocks' LCDs and an atom's weight the product of its blocks'."""
        n = self.alg.num_atoms  # raises past the atom table limit
        den, table = block_table(self.blocks)
        events = tuple(e for b in self.blocks for e in b.events)
        if events != self.alg.events:  # the table's atoms in the algebra's order
            bit = [1 << self.alg.index(e) for e in events]
            table = [table[sum(1 << i for i, b in enumerate(bit) if a & b)]
                     for a in range(n)]
        return den, tuple(table)

    @cached_property
    def mass(self) -> tuple[Fraction, ...]:
        """The flat table: each atom's mass, the product of its blocks'."""
        if len(self.blocks) == 1 and self.blocks[0].events == self.alg.events:
            return self.blocks[0].mass
        den, weights = self.weights
        return tuple(Fraction(w, den) if w else ZERO for w in weights)

    def restrict(self, which: int) -> "ProbAssignment":
        """The marginal on the blocks in bitmask ``which``: those blocks,
        over their events in the algebra's order, not checked again."""
        if which == (1 << len(self.blocks)) - 1:
            return self
        blocks = tuple(b for k, b in enumerate(self.blocks) if which >> k & 1)
        names = {e for b in blocks for e in b.events}
        alg = EventAlgebra.of_checked(tuple(e for e in self.alg.events if e in names))
        return ProbAssignment(alg, blocks=blocks)

    def weight(self, mask: int) -> int:
        """The integer weight of a set of atoms (bitmask over atom indices),
        on the scale of :attr:`weights`."""
        weights = self.weights[1]
        total = 0
        rest = mask
        while rest:
            low = rest & -rest
            total += weights[low.bit_length() - 1]
            rest ^= low
        return total

    def of_event(self, mask: int) -> Fraction:
        """Probability of a set of atoms (bitmask over atom indices)."""
        return Fraction(self.weight(mask), self.weights[0])

    @staticmethod
    def independent(alg: EventAlgebra, probs: dict[str, Fraction]) -> "ProbAssignment":
        """Product distribution from one marginal per basic event: one block
        per event."""
        probs = {e: p if type(p) is Fraction else Fraction(p) for e, p in probs.items()}
        return _marginal_blocks(alg, {e: (p.numerator, p.denominator)
                                      for e, p in probs.items()})

    @staticmethod
    def from_text(text: str) -> "ProbAssignment":
        """Parse the line-oriented distribution format.

        ``events: a b c`` then either one ``atom {a c}: 3/8`` line per atom
        (all 2^n atoms, masses summing to 1; one block over their LCD) or a
        single ``independent: a=1/2 b=1/3`` line (one block per event, so it
        may name more events than an atom table holds).  See :func:`_rational`.
        """
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines or not lines[0].startswith("events:"):
            raise ValueError("distribution file must start with 'events: ...'")
        names = tuple(lines[0][len("events:"):].split())
        alg_ = EventAlgebra(names)
        body = lines[1:]
        if len(body) == 1 and body[0].startswith("independent:"):
            probs = {}
            for item in body[0][len("independent:"):].split():
                name, _, value = item.partition("=")
                if not name or not value:
                    raise ValueError(f"malformed marginal {item!r}")
                if name in probs:
                    raise ValueError(f"marginal for {name!r} listed twice")
                probs[name] = _rational(value)
            return _marginal_blocks(alg_, probs)
        mass = [None] * alg_.num_atoms
        for ln in body:
            m = _ATOM_LINE.fullmatch(ln)
            if not m:
                raise ValueError(f"malformed distribution line: {ln!r}")
            atom = 0
            for name in m.group(1).split():
                if name not in names:
                    raise ValueError(f"unknown event: {name!r}")
                atom |= 1 << alg_.index(name)
            if mass[atom] is not None:
                raise ValueError(f"atom {alg_.atom_text(atom)} listed twice")
            mass[atom] = _rational(m.group(2))
        absent = [alg_.atom_text(a) for a, v in enumerate(mass) if v is None]
        if absent:
            raise ValueError(f"atoms not covered: {' '.join(absent)}")
        den = lcm(*(d for _, d in mass))
        return ProbAssignment(alg_, blocks=(
            Block.over(names, den, tuple(n * (den // d) for n, d in mass)),))


def block_table(blocks: Sequence[Block]) -> tuple[int, list[int]]:
    """The table of independent ``blocks``, their events numbered block by
    block: ``(den, w)``, atom a weighing ``w[a]`` over ``den``, the product
    of the blocks' LCDs.  Each block's absent half comes first."""
    den, weights = 1, [1]
    for b in blocks:
        den *= b.den
        weights = [w * v for v in b.weights for w in weights]
    return den, weights


def _marginal_blocks(alg: EventAlgebra, pairs: dict) -> ProbAssignment:
    """The product distribution of one marginal per event, given as its
    (numerator, denominator) in lowest terms: one block per event."""
    if pairs.keys() != set(alg.events):
        missing = set(alg.events) - pairs.keys()
        if missing:
            raise ValueError(f"missing marginals for: {sorted(missing)}")
        raise ValueError("marginals for unknown events: "
                         f"{sorted(pairs.keys() - set(alg.events))}")
    blocks = []
    for name in alg.events:
        num, den = pairs[name]
        if not 0 <= num <= den:
            raise ValueError(f"marginal for {name!r} is {Fraction(num, den)}, "
                             "outside [0, 1]")
        blocks.append(Block.over((name,), den, (den - num, num)))
    return ProbAssignment(alg, blocks=tuple(blocks))


def _rational(text: str) -> tuple[int, int]:
    """A marginal or atom mass as (numerator, denominator) in lowest terms:
    ASCII ``n`` or ``n/d`` by ``int`` and one gcd, else as ``Fraction`` reads it."""
    num, slash, den = text.partition("/")
    if num.isascii() and num.isdigit() and (
            not slash or den.isascii() and den.isdigit()):
        n, d = int(num), int(den) if slash else 1
        if d:
            g = gcd(n, d)
            return n // g, d // g
    try:
        p = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    return p.numerator, p.denominator


# ---------------------------------------------------------------------------
# Chains


class MarkovChain3:
    """Stochastic matrix with an initial distribution and three-valued labels.

    State k of the chain is the machine state reached after k+1 input
    letters: the first transition is folded into the initial distribution,
    matching the convention that a machine emits nothing in its start state.

    Probabilities are integer weights over one common denominator ``den``:
    ``init_weights[s]`` is state s's initial weight and ``succ[s]`` its
    (successor, weight) pairs with nonzero weight, in successor order.  A
    row is valid when its weights are nonnegative and sum to ``den``.
    """

    def __init__(self, den: int, init_weights: Sequence[int],
                 succ: Sequence[Sequence[tuple[int, int]]], labels: Sequence[Value3]):
        if len(init_weights) != len(labels) or len(succ) != len(labels):
            raise ValueError("inconsistent chain dimensions")
        if any(w < 0 for w in init_weights):
            raise ValueError("negative probability in a chain")
        if sum(init_weights) != den:
            raise ValueError("initial distribution must sum to 1")
        for pairs in succ:
            if any(w < 0 for _, w in pairs):
                raise ValueError("negative probability in a chain")
            if sum(w for _, w in pairs) != den:
                raise ValueError("every transition row must sum to exactly 1")
        self.den = den
        self.init_weights = tuple(init_weights)
        self.succ = tuple(tuple(pairs) for pairs in succ)
        self.labels = tuple(labels)

    @property
    def n_states(self) -> int:
        return len(self.labels)


def class_weights(p: ProbAssignment, classes: Sequence[int]) -> tuple[int, list[int]]:
    """The law of a letter under ``p`` on letter classes (class index ->
    atom bitmask): ``(den, w)``, class c having probability ``w[c] / den``,
    both divided by their gcd."""
    den = p.weights[0]
    weights = [p.weight(mask) for mask in classes]
    common = gcd(den, *weights)
    return den // common, [w // common for w in weights]


def chain_from_machine(m: MooreMachine3, p: ProbAssignment) -> MarkovChain3:
    if m.alg.events != p.alg.events:
        raise ValueError("machine and distribution use different event algebras")
    den, weights = class_weights(p, m.classes)
    live = [(c, w) for c, w in enumerate(weights) if w]
    built: dict[tuple, tuple] = {}  # states that differ only in label share a row

    def pairs(targets: list[int]) -> tuple[tuple[int, int], ...]:
        key = tuple(targets)
        row = built.get(key)
        if row is None:
            out: dict[int, int] = {}
            for c, w in live:
                t = targets[c]
                out[t] = out.get(t, 0) + w
            row = built[key] = tuple(sorted(out.items()))
        return row

    init = [0] * m.n_states
    for t, w in pairs(m.delta[m.initial]):
        init[t] = w
    return MarkovChain3(den, init, [pairs(row) for row in m.delta], m.labels)


def _step(dist: list[int], succ: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    out = [0] * len(dist)
    for w, pairs in zip(dist, succ):
        if w:
            for t, p in pairs:
                out[t] += w * p
    return out


def label_weights(ch: MarkovChain3, n: int) -> Iterator[tuple[int, int, int, int]]:
    """(den^t, weight of value 1, of value 0, of undefined) at times
    t = 1..n, the probabilities over den^t; the integer state weights are
    stepped once per time."""
    by_label = [[s for s, lab in enumerate(ch.labels) if lab is v]
                for v in (Value3.TRUE, Value3.FALSE, Value3.UNDEF)]
    dist, scale = list(ch.init_weights), ch.den
    for t in range(1, n + 1):
        if t > 1:
            dist = _step(dist, ch.succ)
            scale *= ch.den
        yield scale, *[sum(map(dist.__getitem__, states)) for states in by_label]


def pr_series(ch: MarkovChain3, n: int
              ) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
    """(Pr value 1, Pr value 0, Pr undefined) at times 1..n."""
    for scale, *weights in label_weights(ch, n):
        yield tuple(Fraction(w, scale) for w in weights)


def check_time_index(n: int) -> None:
    if n < 1:
        raise ValueError("time index starts at 1")


def pr_n(ch: MarkovChain3, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Probability that the value at time n is 1 / 0 / undefined (n >= 1)."""
    check_time_index(n)
    for scale, *weights in label_weights(ch, n):
        pass
    return tuple(Fraction(w, scale) for w in weights)


def pr_n_ratio(ch: MarkovChain3, n: int) -> Optional[Fraction]:
    """Conditional probability of 1 among defined values at time n; None
    when the value is undefined almost surely."""
    p1, p0, _ = pr_n(ch, n)
    return defined_ratio(p1, p0)


def defined_ratio(ones, zeros) -> Optional[Fraction]:
    """Pr(1 among defined) from the weights or masses of 1 and of 0, both on
    one scale: ``ones / (ones + zeros)``; None when nothing is defined."""
    return Fraction(ones, ones + zeros) if ones + zeros else None


# ---------------------------------------------------------------------------
# Exact linear algebra


def solve_linear(rows: list[dict[int, int]], width: int) -> list[list[Fraction]]:
    """Solve A X = B exactly for n unknowns and ``width`` right-hand sides.

    ``rows[i]`` holds equation i's nonzero integer entries: column c < n is
    A's column c and column n + j is B's column j.  The rows are consumed.
    Forward elimination is fraction-free: in each column it pivots on the
    candidate row with the fewest nonzeros (lowest index on a tie) and
    replaces every other row holding the column by ``row*(pivot/g) -
    prow*(factor/g)``, g = gcd(pivot, factor), divided by its content.
    Fractions appear only in back substitution.
    """
    n = len(rows)
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
        head = prow.pop(col)
        pivots.append((prow, head))
        for c in prow:
            if c < n:
                holders[c].discard(pivot)
        for r in candidates:
            row = rows[r]
            factor = row.pop(col)
            g = gcd(head, factor)
            scale, factor = head // g, factor // g
            if scale != 1:
                for c in row:
                    row[c] *= scale
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
            content = gcd(*row.values())
            if content > 1:
                for c in row:
                    row[c] //= content
    x: list[list[Fraction]] = [[]] * n
    for col in range(n - 1, -1, -1):
        prow, head = pivots[col]
        sol = [Fraction(prow.get(n + j, 0)) for j in range(width)]
        for c, coef in prow.items():
            if c < n:
                for j, xc in enumerate(x[c]):
                    if xc:
                        sol[j] -= coef * xc
        x[col] = [s / head for s in sol]
    return x


# ---------------------------------------------------------------------------
# Limiting behavior


def _sccs(n: int, adj: list[list[int]]) -> list[list[int]]:
    """Strongly connected components in two passes (Sharir, 1981): a
    depth-first pass records the states in finishing order, then each state
    not yet placed, latest finisher first, gathers its component by walking
    ``adj`` backward."""
    seen, finished = [False] * n, []
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            work = [(root, iter(adj[root]))]
            while work:
                for w in work[-1][1]:
                    if not seen[w]:
                        seen[w] = True
                        work.append((w, iter(adj[w])))
                        break
                else:
                    finished.append(work.pop()[0])
    back: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in adj[v]:
            back[w].append(v)
    out = []
    for root in reversed(finished):
        if seen[root]:  # every state is seen; placing one clears its mark
            seen[root] = False
            comp = [root]
            for v in comp:  # comp grows while it is read
                for u in back[v]:
                    if seen[u]:
                        seen[u] = False
                        comp.append(u)
            out.append(comp)
    return out


def _class_period(members: list[int], adj: Sequence[list[int]]) -> int:
    """gcd of cycle lengths of a strongly connected graph; ``adj`` gives
    each member's successors, all inside the class."""
    level, g = {members[0]: 0}, 0
    queue = [members[0]]
    for u in queue:  # queue grows while it is read
        for v in adj[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
            else:
                g = gcd(g, level[u] + 1 - level[v])
    return abs(g)


def _solve_over(ch: MarkovChain3, states: list[int], b: dict[int, int]) -> list[Fraction]:
    """y over a set S of chain ``states`` with y (den·Id − W_S) = b: W_S the
    chain's integer weights among S, ``b`` a weight per state (0 when
    absent).  Weight leaves S from every state of S, so the transposed
    system, one sparse row per state, has no zero diagonal and is regular."""
    k = len(states)
    pos = {s: i for i, s in enumerate(states)}
    rows = [{i: ch.den} for i in range(k)]
    for i, s in enumerate(states):
        if b.get(s):
            rows[i][k] = b[s]
        for t, w in ch.succ[s]:
            j = pos.get(t)
            if j is not None:
                rows[j][i] = rows[j].get(i, 0) - w
    return [y for y, in solve_linear(rows, 1)]


def stationary_distribution(ch: MarkovChain3, members: list[int]) -> dict[int, Fraction]:
    """Stationary law of an irreducible closed class of ``ch`` (pi P = pi,
    sum = 1) as the expected visits between returns to its first state r
    (Kemeny & Snell, 1960): with pi_r = 1, the other members S solve
    pi_S (den·Id − W_S) = r's weights into S, and the law is scaled to sum
    1.  A one-state class solves nothing."""
    r, rest = members[0], members[1:]
    x = _solve_over(ch, rest, dict(ch.succ[r])) if rest else []
    total = 1 + sum(x)
    return {r: ONE / total, **{s: v / total for s, v in zip(rest, x)}}


def limiting_label_masses(ch: MarkovChain3) -> dict[Value3, Fraction]:
    """Limit of the state distribution, aggregated by label.

    Transient mass vanishes; each reachable closed class is required to be
    aperiodic (otherwise the limit may not exist and the call fails loudly).
    """
    n = ch.n_states
    adj = [[t for t, _ in pairs] for pairs in ch.succ]
    sccs = _sccs(n, adj)
    comp_of = [0] * n
    for ci, comp in enumerate(sccs):
        for s in comp:
            comp_of[s] = ci
    closed = [ci for ci, comp in enumerate(sccs)
              if all(comp_of[t] == ci for s in comp for t in adj[s])]

    # absorption probability per closed class
    absorb = dict.fromkeys(closed, ZERO)
    if len(closed) == 1:
        absorb[closed[0]] = ONE  # a lone closed class absorbs everything
    else:
        init = ch.init_weights  # absorb holds weights over den until the end
        transient = []
        for s in range(n):
            if comp_of[s] in absorb:
                absorb[comp_of[s]] += init[s]
            else:
                transient.append(s)
        if any(init[s] for s in transient):
            # the transient initial weights y0 reach closed class k with
            # weight y0 (den Id - Q)^-1 R[:, k]: solve y (den Id - Q) = y0
            # over the transient states, then take y R
            y = _solve_over(ch, transient, dict(enumerate(init)))
            for s, ys in zip(transient, y):
                if ys:
                    for t, w in ch.succ[s]:
                        if comp_of[t] in absorb:
                            absorb[comp_of[t]] += ys * w
        absorb = {ci: w / ch.den for ci, w in absorb.items()}

    masses = {Value3.TRUE: ZERO, Value3.FALSE: ZERO, Value3.UNDEF: ZERO}
    for ci, mass in absorb.items():
        if mass == 0:
            continue
        comp = sccs[ci]
        if _class_period(comp, adj) != 1:
            raise PeriodicChainError(
                "a reachable closed class is periodic; the limit may not exist")
        pi = stationary_distribution(ch, comp)
        for s in comp:
            masses[ch.labels[s]] += mass * pi[s]
    return masses


def asymptotic(ch: MarkovChain3) -> Optional[Fraction]:
    """Exact limit of ``pr_n_ratio``; None when the defined mass vanishes."""
    masses = limiting_label_masses(ch)
    return defined_ratio(masses[Value3.TRUE], masses[Value3.FALSE])
