"""Seeded request lists for the four benchmark workloads.

A request is the argument list of one ``tlcond`` call, the text of its
distribution file (if any) and its reference.  The seed decides expression
shapes, event marginals and atom masses; the rungs (k, horizons, event
counts and request counts) are fixed, so every seed asks for the same amount
of work.  Generating a request list never calls the program, and references
are computed only when first checked, outside set-up and timed passes.

``Request.expect()`` returns ``(exit code, kind, *data)``; the kinds are

* ``text``     exact standard output (closed forms, three-valued semantics);
* ``oracle``   series checked against brute-force enumeration on a prefix
               and against the closed-form limit at the horizon;
* ``corpus``   every row of a short series from brute-force enumeration;
* ``indep``    strong-independence verdict;
* ``taut``     weak-tautology verdict, and a witness that falsifies;
* ``machine``  DOT whose behaviour on all short words is right;
* ``error``    an input error: nothing on stdout.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial
from typing import Callable

from . import semantics as sem

WORKLOADS = ("ps-first", "ps-embed", "markov-long", "mixed-small")

# Marginals and atom masses share one prime denominator and have numerators
# of nearly equal size, so that the size of the exact rationals, which
# drives the cost of the Markov layer, does not depend on the seed.
MARGINALS = (Fraction(2, 5), Fraction(3, 5))
ATOM_WEIGHTS, ATOM_WEIGHT_TOTAL = (3, 4, 5), 17

OK, INPUT_ERROR, UNDEFINED = 0, 1, 2

SAC10_TEXT = "(e0 or e1 | e2) and (e3|e4) and (e5|e6) and (e7 | e8 or e9)"
SAC10_DEFECT = ("known defect: the 10-event present-tense DNF overflows the "
                "recursion limit and exits 1 (ROADMAP item 4)")


@dataclass(frozen=True)
class Request:
    rid: str
    argv: tuple            # "{dist}" stands for the distribution file's path
    dist: str | None
    expect: Callable[[], tuple]
    known_defect: str = ""


def generate(workload: str, seed: int) -> list[Request]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return {"ps-first": _ps_first, "ps-embed": _ps_embed,
            "markov-long": _markov_long,
            "mixed-small": _mixed_small}[workload](rng, workload)


def dump(requests: list[Request]) -> str:
    """Canonical text of what the program receives: argv and distributions."""
    return json.dumps([[r.rid, list(r.argv), r.dist] for r in requests],
                      sort_keys=True)


# ---------------------------------------------------------------------------
# Shared pieces


def prob_text(value) -> str:
    """``prob`` output: the exact rational and a 12-digit decimal."""
    if value is None:
        return "undefined\n"
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(value.numerator) / Decimal(value.denominator)
        return f"{value} ({d.quantize(Decimal('1.000000000000'))})\n"


def series_text(rows) -> str:
    out = ["n,p1,p0,pbot,ratio"]
    for n, (p1, p0, pbot) in enumerate(rows, 1):
        ratio = "undef" if p1 + p0 == 0 else p1 / (p1 + p0)
        out.append(f"{n},{p1},{p0},{pbot},{ratio}")
    return "\n".join(out) + "\n"


def independent_dist(marginals: dict) -> str:
    return (f"events: {' '.join(marginals)}\nindependent: "
            + " ".join(f"{n}={p}" for n, p in marginals.items()) + "\n")


def table_dist(events: tuple, masses: dict) -> str:
    lines = [f"events: {' '.join(events)}"]
    for atom, m in sem.table_atoms(events, masses):
        lines.append(f"atom {{{' '.join(e for e in events if e in atom)}}}: {m}")
    return "\n".join(lines) + "\n"


def random_table(rng, events: tuple) -> dict:
    """Masses of the four atoms over two events: weights drawn from
    ``ATOM_WEIGHTS`` that sum to ``ATOM_WEIGHT_TOTAL``."""
    keys = sem.subsets(events)
    while True:
        weights = [rng.choice(ATOM_WEIGHTS) for _ in keys]
        if sum(weights) == ATOM_WEIGHT_TOTAL:
            return {a: Fraction(w, ATOM_WEIGHT_TOTAL) for a, w in zip(keys, weights)}


def _marginals(rng, names) -> dict:
    return {n: rng.choice(MARGINALS) for n in names}


def _skeleton(rng, items: list):
    """A random and/or tree over ``items`` (shuffled), with ~ sprinkled in."""
    items = list(items)
    rng.shuffle(items)

    def build(xs):
        if len(xs) == 1:
            node = xs[0]
        else:
            cut = rng.randint(1, len(xs) - 1)
            node = (rng.choice(("cand", "cor")), build(xs[:cut]), build(xs[cut:]))
        return ("cneg", node) if rng.random() < 0.25 else node
    return build(items)


def _ps_leaves(tag: str, k: int) -> list:
    return [("simple", ("ev", f"{tag}a{i}"), ("ev", f"{tag}b{i}"))
            for i in range(1, k + 1)]


def _ref_text(rc: int, text: str) -> tuple:
    return rc, "text", text


def _ref_prob(value) -> tuple:
    return (UNDEFINED if value is None else OK), "text", prob_text(value)


def _ref_ps(tree, marginals) -> tuple:
    return _ref_prob(sem.ps_closed_form(tree, marginals))


def _ps_request(rng, rid, tag, k, embedding) -> Request:
    tree = _skeleton(rng, _ps_leaves(tag, k))
    marg = _marginals(rng, [f"{tag}{s}{i}" for i in range(1, k + 1) for s in "ab"])
    return Request(rid, ("prob", "--cea", "ps", "--embedding", embedding,
                         "--expr", sem.cond_text(tree), "--dist", "{dist}"),
                   independent_dist(marg), partial(_ref_ps, tree, marg))


def _ladder(workload, rng, rungs) -> list[Request]:
    out = []
    for embedding, k, count in rungs:
        for _ in range(count):
            j = len(out)
            out.append(_ps_request(rng, f"{workload}/{j:03d}", f"r{j}", k, embedding))
    return out


# ---------------------------------------------------------------------------
# Workloads


def _ps_first(rng, workload):
    """The product of k three-state machines: 3^k states x 3^k classes."""
    return _ladder(workload, rng, [("first", 2, 12), ("first", 3, 12),
                                   ("first", 4, 8), ("first", 5, 4),
                                   ("first", 6, 2)])


def _ps_embed(rng, workload):
    """One compile_cond call per request over thousands of raw states.

    The 24 sparse k=2 requests hold the median of the run's latencies, with
    14 cheaper and 14 dearer requests on either side, so that
    request_p50_s measures one kind of request however noise reorders the
    list."""
    return _ladder(workload, rng, [("reverse", 2, 14), ("reverse", 3, 6),
                                   ("reverse", 4, 1), ("sparse", 2, 24),
                                   ("sparse", 3, 6), ("sparse", 4, 1)])


def _ref_latest(a, b, table, n) -> tuple:
    """((not b) S (a and b) | O b) is undefined until the first b, then the
    value of a at the latest b: pbot(n) = (1 - Pr b)^n, ratio = Pr(a | b)."""
    pb = sum(m for atom, m in table.items() if b in atom)
    pa_b = sum(m for atom, m in table.items() if {a, b} <= atom) / pb
    rows = []
    for t in range(1, n + 1):
        bot = (1 - pb) ** t
        rows.append(((1 - bot) * pa_b, (1 - bot) * (1 - pa_b), bot))
    return _ref_text(OK, series_text(rows))


def _ref_once(pa, n) -> tuple:
    """(O a | true): p1(n) = 1 - (1 - Pr a)^n."""
    return _ref_text(OK, series_text(
        [(1 - (1 - pa) ** t, (1 - pa) ** t, Fraction(0)) for t in range(1, n + 1)]))


def _ref_prev(pa, n) -> tuple:
    """(Y a | Y true): undefined at time 1, then Pr a."""
    return _ref_text(OK, series_text([(Fraction(0), Fraction(0), Fraction(1))]
                                     + [(pa, 1 - pa, Fraction(0))] * (n - 1)))


def _ref_ps_series(tree, marginals, tag, k, n, prefix) -> tuple:
    """Brute force on a short prefix; at the horizon p1 is within
    sum_i (1 - Pr b_i)^n of the closed-form limit, the chance that some
    leaf is still unresolved."""
    tol = sum((1 - marginals[f"{tag}b{i}"]) ** n for i in range(1, k + 1))
    table = (tuple(marginals), dict(sem.atoms(marginals)))
    return (OK, "oracle", sem.ps_first_text(tree), table, prefix,
            sem.ps_closed_form(tree, marginals), tol)


def _markov_long(rng, workload):
    out: list[Request] = []

    def add(argv, dist, expect):
        out.append(Request(f"{workload}/{len(out):03d}", argv, dist, expect))

    # Ten requests at n=50 hold the median of the run's latencies, with 16
    # cheaper and 16 dearer requests on either side, so that request_p50_s
    # measures one kind of request rather than whichever of several similar
    # ones happens to land in the middle.
    for n in (200, 100, 100) + (50,) * 10 + (25,) * 14:
        a, b = f"a{len(out)}", f"b{len(out)}"
        table = random_table(rng, (a, b))
        add(("series", "--expr", f"((not {b}) S ({a} and {b}) | O {b})",
             "--dist", "{dist}", "--n", str(n)),
            table_dist((a, b), table), partial(_ref_latest, a, b, table, n))
    for n, shape in ((100, "O"), (100, "O"), (100, "Y")):
        a = f"a{len(out)}"
        marg = _marginals(rng, [a])
        text = f"(O {a} | true)" if shape == "O" else f"(Y {a} | Y true)"
        add(("series", "--expr", text, "--dist", "{dist}", "--n", str(n)),
            independent_dist(marg),
            partial(_ref_once if shape == "O" else _ref_prev, marg[a], n))
    # ps expressions with k <= 3 over long horizons
    for k, n, prefix in ((2, 100, 3), (3, 50, 2)) + ((2, 50, 3),) * 4:
        tag = f"r{len(out)}"
        tree = _skeleton(rng, _ps_leaves(tag, k))
        marg = _marginals(rng, [f"{tag}{s}{i}" for i in range(1, k + 1) for s in "ab"])
        add(("series", "--cea", "ps", "--expr", sem.cond_text(tree),
             "--dist", "{dist}", "--n", str(n)),
            independent_dist(marg),
            partial(_ref_ps_series, tree, marg, tag, k, n, prefix))
    # deep-past conditionals: 2^depth transient states solved exactly; the
    # limit is Pr a, or Pr a * Pr b.
    for depth, second in ((6, 0), (5, 2), (5, 2), (6, 3), (4, 0), (4, 0)):
        a, b = f"a{len(out)}", f"b{len(out)}"
        marg = _marginals(rng, [a, b] if second else [a])
        num = "Y " * depth + a
        value = marg[a]
        if second:
            num += " and " + "Y " * second + b
            value *= marg[b]
        add(("prob", "--cea", "tl", "--expr", f"({num} | {'Y ' * depth}true)",
             "--dist", "{dist}"),
            independent_dist(marg), partial(_ref_prob, value))
    return out


# The two-event conditionals of the package's test corpus, copied so that
# the benchmark does not depend on the test suite.
CORPUS_TEXTS = (
    "(a | b)", "(b | a)", "(a | true)", "(true | true)", "(a | false)",
    "(a and b | a or b)", "(not a | b)", "(a | a)", "(a or not b | a <-> b)",
    "(Y a | true)", "(Y a | Y true)", "(Y Y a | Y Y true)", "(a | Y b)",
    "(a S b | true)", "(a S (a or b) | O b)", "(a S b | b S a)",
    "(not (a S b) | O b)", "(O a | true)", "(O (a and b) | O a)",
    "(H a | true)", "(H (a -> b) | O a)", "(a | H b)",
    "(O a and not Y O a | true)", "(a <-> Y a | Y true)", "(a -> b | O a)",
    "(O (a and b and not Y O b) | true)",
    "(O (b and a and not Y O a) | true)",
    "(O (a and b and not Y O b) and O (b and a and not Y O a) | true)",
    "(O (a and b and not Y O b) or O (b and a and not Y O a) | true)",
    "(not O (a and b and not Y O b) | true)",
    "((not b) S (a and b) | true)",
    "((not b) S (a and b) | b or not O b)",
    "((not a) S (false and a) | a or not O a)",
    "(a | H ((Y a -> not a) and (Y not a -> a) and (not Y true -> a)))",
)


def _literal(rng, events):
    x = ("ev", rng.choice(events))
    return ("not", x) if rng.random() < 0.3 else x


def _event_expr(rng, events):
    if rng.random() < 0.5:
        return _literal(rng, events)
    return (rng.choice(("and", "or")), _literal(rng, events), _literal(rng, events))


def _deck(rng, names):
    """Names in shuffled rounds, so that every name is drawn before any
    repeats: a tree with enough slots uses all of them."""
    while True:
        yield from rng.sample(list(names), len(names))


def _present_tree(rng, n_events: int, leaves: int, reconditioning: bool):
    """Simple conditionals (x op y | z or w) over all of e0..e(n-1),
    combined by a random skeleton; with ``reconditioning`` the whole is
    conditioned again on its first leaf."""
    events = [f"e{i}" for i in range(n_events)]
    deck = _deck(rng, events)

    def literal():
        x = ("ev", next(deck))
        return ("not", x) if rng.random() < 0.3 else x
    items = [("simple", (rng.choice(("and", "or")), literal(), literal()),
              ("or", literal(), literal()))
             for _ in range(leaves)]
    tree = _skeleton(rng, items)
    if reconditioning:
        tree = ("ccond", tree, items[0])
    return events, tree


def _var_tree(rng, deck, size: int):
    if size == 1:
        return ("var", next(deck))
    cut = rng.randint(1, size - 1)
    node = (rng.choice(("cand", "cor", "ccond")),
            _var_tree(rng, deck, cut), _var_tree(rng, deck, size - cut))
    return ("cneg", node) if rng.random() < 0.25 else node


def _ref_present_prob(tree, algebra, marginals) -> tuple:
    return _ref_prob(sem.present_prob(tree, algebra, sem.atoms(marginals)))


def _ref_present_series(tree, algebra, marginals, n) -> tuple:
    """A present-tense value depends on the current letter only, so every
    row is the same."""
    yes, defined = sem.present_masses(tree, algebra, sem.atoms(marginals))
    return _ref_text(OK, series_text([(yes, defined - yes, 1 - defined)] * n))


def _ref_strong(c1, c2, marginals) -> tuple:
    """Strong independence of two present-tense conditionals: their values
    on one letter are independent random variables."""
    joint: dict = {}
    for a, m in sem.atoms(marginals):
        key = (sem.simple_value(c1, a), sem.simple_value(c2, a))
        joint[key] = joint.get(key, 0) + m
    left: dict = {}
    right: dict = {}
    for (x, y), m in joint.items():
        left[x] = left.get(x, 0) + m
        right[y] = right.get(y, 0) + m
    ok = all(joint.get((x, y), 0) == left[x] * right[y]
             for x in left if left[x] for y in right if right[y])
    return OK, "indep", "yes" if ok else "no"


def _ref_present_indep(c1, c2, marginals) -> tuple:
    """The four equations of the present-tense independence test in the
    limit: a strict (sch) conjunction against the product of its factors,
    with the definedness lift (den | true) in place of either side."""
    atom_masses = sem.atoms(marginals)

    def lift(c):
        return ("simple", c[2], ("or", c[2], ("not", c[2])))

    def ratio(c):
        return sem.present_prob(c, "sch", atom_masses)

    lines, ok = [], True
    for tag, (x, y) in (("i1", (c1, c2)), ("i2", (c1, lift(c2))),
                        ("i3", (lift(c1), c2)), ("i4", (lift(c1), lift(c2)))):
        lhs = ratio(("cand", x, y))
        fx, fy = ratio(x), ratio(y)
        rhs = None if fx is None or fy is None else fx * fy
        if lhs != rhs:
            ok = False
            lines.append(f"  fails {tag}: lhs={'undef' if lhs is None else lhs} "
                         f"rhs={'undef' if rhs is None else rhs}")
    return _ref_text(OK, "\n".join([f"independent: {'yes' if ok else 'no'}"]
                                   + lines) + "\n")


def _ref_corpus(text, table) -> tuple:
    return OK, "corpus", text, (("a", "b"), table)


def _ref(*reference) -> tuple:
    return reference


def _mixed_small(rng, workload):
    """About 200 short requests over every subcommand and interpretation.
    Each expression is asked under three distributions; machine, taut and
    input errors take none, so their three requests are identical."""
    groups: list = []

    def add(argv, dists, expects, defect=""):
        groups.append([(argv, d, e, defect) for d, e in zip(dists, expects)])

    for text in CORPUS_TEXTS:
        tables = [random_table(rng, ("a", "b")) for _ in range(3)]
        add(("series", "--cea", "tl", "--expr", text, "--dist", "{dist}", "--n", "4"),
            [table_dist(("a", "b"), t) for t in tables],
            [partial(_ref_corpus, text, t) for t in tables])

    def three(events):
        return [_marginals(rng, events) for _ in range(3)]

    for algebra in ("sac", "gnw", "sch"):
        for n_events in (4, 6):
            events, tree = _present_tree(rng, n_events, 3,
                                         algebra != "sch" and n_events == 4)
            margs = three(events)
            add(("prob", "--cea", algebra, "--expr", sem.cond_text(tree),
                 "--dist", "{dist}"),
                [independent_dist(m) for m in margs],
                [partial(_ref_present_prob, tree, algebra, m) for m in margs])
    for algebra, n_events in (("sac", 4), ("gnw", 5), ("sch", 5), ("sac", 6)):
        events, tree = _present_tree(rng, n_events, 2, algebra == "sac")
        margs = three(events)
        add(("series", "--cea", algebra, "--expr", sem.cond_text(tree),
             "--dist", "{dist}", "--n", "3"),
            [independent_dist(m) for m in margs],
            [partial(_ref_present_series, tree, algebra, m, 3) for m in margs])
    machines = [(algebra, _present_tree(rng, n_events, 2, algebra != "sch")[1])
                for algebra, n_events in (("sac", 4), ("gnw", 5), ("sch", 4))]
    machines.append(("ps", _skeleton(rng, _ps_leaves("m", 2))))
    for kind, tree in machines:
        add(("machine", "--cea", kind, "--expr", sem.cond_text(tree),
             "--minimize", "--check-counter-free"),
            [None] * 3, [partial(_ref, OK, "machine", kind, tree)] * 3)
    for embedding in ("first", "reverse", "sparse"):
        for _ in range(2):
            tree = _skeleton(rng, _ps_leaves("", 2))
            margs = three(["a1", "b1", "a2", "b2"])
            add(("prob", "--cea", "ps", "--embedding", embedding,
                 "--expr", sem.cond_text(tree), "--dist", "{dist}"),
                [independent_dist(m) for m in margs],
                [partial(_ref_ps, tree, m) for m in margs])
    events = [f"e{i}" for i in range(6)]
    for mode, disjoint in (("present", True), ("present", False),
                           ("strong", True), ("strong", False)):
        c1 = ("simple", _event_expr(rng, events[:2]), _literal(rng, events[2:3]))
        pool = events[3:] if disjoint else events[:3]
        c2 = ("simple", _event_expr(rng, pool), _literal(rng, pool))
        margs = three(events)
        ref = _ref_present_indep if mode == "present" else _ref_strong
        add(("indep", "--mode", mode, "--left", sem.cond_text(c1),
             "--right", sem.cond_text(c2), "--dist", "{dist}"),
            [independent_dist(m) for m in margs],
            [partial(ref, c1, c2, m) for m in margs])
    for algebra, size in (("sac", 3), ("sac", 4), ("gnw", 3), ("gnw", 4)):
        tree = _var_tree(rng, _deck(rng, ["p", "q", "r"]), size)
        add(("taut", "--cea", algebra, "--expr", sem.cond_text(tree)),
            [None] * 3, [partial(_ref, OK, "taut", tree, algebra)] * 3)
    # answers that are mathematically undefined: exit 2
    for algebra, text, names in (
            ("tl", "(Y e0 | e1 and not e1)", ["e0", "e1"]),
            ("sch", "(e0 | e1) and (e2 | e3 and not e3)", ["e0", "e1", "e2", "e3"]),
            ("gnw", "(e0 | false) and (e1 | e2 and not e2)", ["e0", "e1", "e2"])):
        add(("prob", "--cea", algebra, "--expr", text, "--dist", "{dist}"),
            [independent_dist(m) for m in three(names)],
            [partial(_ref_prob, None)] * 3)
    # input errors: exit 1
    add(("prob", "--expr", "(a | b"), [None] * 3,
        [partial(_ref, INPUT_ERROR, "error")] * 3)
    add(("prob", "--expr", "(a and c | b)", "--dist", "{dist}"),
        [independent_dist(m) for m in three(["a", "b"])],
        [partial(_ref, INPUT_ERROR, "error")] * 3)
    # the ROADMAP item 4 reproduction stays in, failing
    sac10 = ("cand", ("cand", ("cand",
             ("simple", ("or", ("ev", "e0"), ("ev", "e1")), ("ev", "e2")),
             ("simple", ("ev", "e3"), ("ev", "e4"))),
             ("simple", ("ev", "e5"), ("ev", "e6"))),
             ("simple", ("ev", "e7"), ("or", ("ev", "e8"), ("ev", "e9"))))
    margs = three([f"e{i}" for i in range(10)])
    add(("series", "--cea", "sac", "--expr", SAC10_TEXT, "--dist", "{dist}",
         "--n", "3"),
        [independent_dist(m) for m in margs],
        [partial(_ref_present_series, sac10, "sac", m, 3) for m in margs],
        SAC10_DEFECT)

    return [Request(f"{workload}/{i:03d}", argv, dist, expect, defect)
            for i, (argv, dist, expect, defect)
            in enumerate(r for group in groups for r in group)]
