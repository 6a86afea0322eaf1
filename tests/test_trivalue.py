"""Connective tables: fixed cells, classical restriction, the rewriting-rule
cross-check, the quotient onto two-valued reverse implication, and sqcap."""
import itertools

import pytest

from tlcond import (CeaAnd, CeaCond, CeaNeg, CeaOr, CeaVar, ConnectiveId,
                    Value3, algebra, apply_binary, apply_unary,
                    eval_cea_valuation, parse_cea)
from tlcond.trivalue import (_BINARY_TABLES, _UNARY_TABLES, UnboundVariableError,
                             apply_sets)

from machines import reduce_syntactic_reference, value_at

F, T, U = Value3.FALSE, Value3.TRUE, Value3.UNDEF
ALL3 = (F, T, U)

BINARY = [c for c in ConnectiveId if c is not ConnectiveId.NOT0]


def test_negation_table():
    assert apply_unary(ConnectiveId.NOT0, F) is T
    assert apply_unary(ConnectiveId.NOT0, T) is F
    assert apply_unary(ConnectiveId.NOT0, U) is U


def test_unary_binary_mixups_rejected():
    with pytest.raises(ValueError):
        apply_unary(ConnectiveId.AND_SAC, T)
    with pytest.raises(ValueError):
        apply_binary(ConnectiveId.NOT0, T, T)


def test_fixed_cells_from_the_qualitative_descriptions():
    assert apply_binary(ConnectiveId.AND_SCH, T, U) is U   # strict: both must be defined
    assert apply_binary(ConnectiveId.AND_SAC, T, U) is T   # undefined side is ignored
    assert apply_binary(ConnectiveId.AND_GNW, T, U) is U   # doubt stays doubt
    assert apply_binary(ConnectiveId.AND_GNW, F, U) is F   # evidence for 0 reports 0
    assert apply_binary(ConnectiveId.SQCAP, T, U) is F


def test_classical_restriction():
    classical = {
        ConnectiveId.AND_SAC: lambda x, y: x and y,
        ConnectiveId.AND_GNW: lambda x, y: x and y,
        ConnectiveId.AND_SCH: lambda x, y: x and y,
        ConnectiveId.OR_SAC: lambda x, y: x or y,
        ConnectiveId.OR_GNW: lambda x, y: x or y,
        ConnectiveId.OR_SCH: lambda x, y: x or y,
    }
    for conn, fn in classical.items():
        for x, y in itertools.product((False, True), repeat=2):
            got = apply_binary(conn, Value3.from_bool(x), Value3.from_bool(y))
            assert got is Value3.from_bool(fn(x, y)), conn


def test_conditioning_restricted_to_booleans():
    # x when the condition is 1, undefined when it is 0 -- for both operators
    for conn in (ConnectiveId.COND_SAC, ConnectiveId.COND_GNW):
        for x in (F, T):
            assert apply_binary(conn, x, T) is x
            assert apply_binary(conn, x, F) is U


# ---------------------------------------------------------------------------
# Rewriting-rule consistency: the pointwise tables agree with the reduction
# of (a|b) op (c|d) to a single simple conditional, over every atom of a
# four-event algebra (all nine value pairs occur).

ALG4 = algebra("a b c d")


def _simple_pair_values(atom):
    def val(num_bit, den_bit):
        if not atom >> den_bit & 1:
            return U
        return Value3.from_bool(bool(atom >> num_bit & 1))
    return val(0, 1), val(2, 3)  # (a|b), (c|d)


@pytest.mark.parametrize("conn,expr_text", [
    (ConnectiveId.AND_SAC, "(a|b) and (c|d)"),
    (ConnectiveId.OR_SAC, "(a|b) or (c|d)"),
    (ConnectiveId.AND_GNW, "(a|b) and (c|d)"),
    (ConnectiveId.OR_GNW, "(a|b) or (c|d)"),
    (ConnectiveId.AND_SCH, "(a|b) and (c|d)"),
    (ConnectiveId.OR_SCH, "(a|b) or (c|d)"),
])
def test_reduction_rules_match_tables(conn, expr_text):
    which = {"SAC": "sac", "GNW": "gnw", "SCH": "sch"}[conn.name.split("_")[1]]
    e = parse_cea(expr_text, ALG4, dialect="flat")
    reduced = reduce_syntactic_reference(e, ALG4, which)
    seen_pairs = set()
    for atom in range(ALG4.num_atoms):
        x, y = _simple_pair_values(atom)
        seen_pairs.add((x, y))
        assert apply_binary(conn, x, y) is value_at(reduced, atom)
    assert len(seen_pairs) == 9


def test_negation_rule_matches_table():
    e = parse_cea("~(a|b)", ALG4, dialect="flat")
    reduced = reduce_syntactic_reference(e, ALG4, "sac")
    for atom in range(ALG4.num_atoms):
        x, _ = _simple_pair_values(atom)
        assert apply_unary(ConnectiveId.NOT0, x) is value_at(reduced, atom)


def test_gnw_conjunction_denominator_reading():
    """Of the two printed denominators for the gnw conjunction, a'b v c'd v
    abcd matches the min-table and a'd v c'd v abcd does not."""
    a, b, c, d = (1 << ALG4.index(n) for n in "abcd")

    def ev(pred):
        return sum(1 << atom for atom in range(ALG4.num_atoms) if pred(atom))

    abcd = ev(lambda w: w & a and w & b and w & c and w & d)
    good = abcd | ev(lambda w: not w & a and w & b) | ev(lambda w: not w & c and w & d)
    misprint = abcd | ev(lambda w: not w & a and w & d) | ev(lambda w: not w & c and w & d)

    table_def = 0
    for atom in range(ALG4.num_atoms):
        x, y = _simple_pair_values(atom)
        if apply_binary(ConnectiveId.AND_GNW, x, y) is not U:
            table_def |= 1 << atom
    assert table_def == good
    assert table_def != misprint


def test_conditioning_quotient_onto_reverse_implication():
    """Collapsing 1 and undefined to 1 turns both conditioning operators into
    classical reverse implication."""
    def eta(v):
        return True if v in (T, U) else False

    for x, y in itertools.product(ALL3, repeat=2):
        expected = eta(x) or not eta(y)  # x <- y classically
        assert eta(apply_binary(ConnectiveId.COND_SAC, x, y)) == expected
        assert eta(apply_binary(ConnectiveId.COND_GNW, x, y)) == expected


def sqcap_term(x: Value3, y: Value3) -> Value3:
    """Evaluate the defining SAC term of sqcap directly."""
    land = ConnectiveId.AND_SAC
    lor = ConnectiveId.OR_SAC

    def neg(v: Value3) -> Value3:
        return apply_unary(ConnectiveId.NOT0, v)

    def a(u: Value3, v: Value3) -> Value3:
        return apply_binary(land, u, v)

    def o(u: Value3, v: Value3) -> Value3:
        return apply_binary(lor, u, v)

    left = o(x, a(y, o(x, neg(y))))
    right = o(y, a(x, o(y, neg(x))))
    return a(left, right)


def test_sqcap_equals_its_defining_term_and_detects_joint_truth():
    for x, y in itertools.product(ALL3, repeat=2):
        v = apply_binary(ConnectiveId.SQCAP, x, y)
        assert v is sqcap_term(x, y)
        assert (v is T) == (x is T and y is T)


def test_all_undefined_in_all_undefined_out():
    for conn in BINARY:
        assert apply_binary(conn, U, U) is U
    assert apply_unary(ConnectiveId.NOT0, U) is U


# ---------------------------------------------------------------------------
# Valuation semantics over variables


def test_valuation_classical_case():
    e = parse_cea("p and q", None, dialect="flat")
    assert eval_cea_valuation(e, {"p": T, "q": T}, "sac") is T


def test_valuation_negated_conjunction_of_undefined():
    e = parse_cea("~(p and q)", None, dialect="flat")
    assert eval_cea_valuation(e, {"p": U, "q": U}, "gnw") is U


def test_valuation_conditioning_on_false():
    e = parse_cea("(p | q)", None)
    assert eval_cea_valuation(e, {"p": T, "q": F}, "sac") is U


def test_valuation_reports_unbound_variable():
    e = parse_cea("p and q", None, dialect="flat")
    with pytest.raises(UnboundVariableError, match="q"):
        eval_cea_valuation(e, {"p": T}, "sac")


def _sets(values) -> tuple[int, int]:
    """(points where 1, points where 0) of a sequence of values."""
    return (sum(1 << i for i, v in enumerate(values) if v is T),
            sum(1 << i for i, v in enumerate(values) if v is F))


def test_set_application_reads_every_cell_of_every_table():
    # one point per cell: point 3i + j holds the argument values (i, j)
    pairs = list(itertools.product(ALL3, repeat=2))
    full = (1 << len(pairs)) - 1
    xs, ys = _sets([x for x, _ in pairs]), _sets([y for _, y in pairs])
    for conn in _BINARY_TABLES:
        want = _sets([apply_binary(conn, x, y) for x, y in pairs])
        assert apply_sets(conn, full, xs, ys) == want, conn
    for conn in _UNARY_TABLES:
        assert apply_sets(conn, 0b111, _sets(ALL3)) == \
            _sets([apply_unary(conn, x) for x in ALL3])


def test_valuation_without_a_conditioning_operator():
    e = CeaCond(CeaVar("p"), CeaVar("q"))
    with pytest.raises(ValueError,
                       match="re-conditioning is not supported in the sch algebra"):
        eval_cea_valuation(e, {"p": T, "q": T}, "sch")
    with pytest.raises(ValueError, match="mixes events with variables"):
        eval_cea_valuation(parse_cea("(a|b)", algebra("a b")), {}, "sac")


def test_valuation_all_undefined_yields_undefined_on_random_expressions():
    import random
    rng = random.Random(7)
    names = ["p", "q", "r"]

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            return CeaVar(rng.choice(names))
        kind = rng.randrange(4)
        if kind == 0:
            return CeaNeg(gen(depth - 1))
        cls = (CeaAnd, CeaOr, CeaCond)[kind - 1]
        return cls(gen(depth - 1), gen(depth - 1))

    valuation = {n: U for n in names}
    for _ in range(300):
        e = gen(4)
        for which in ("sac", "gnw"):
            assert eval_cea_valuation(e, valuation, which) is U
