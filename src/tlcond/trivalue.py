"""Three-valued kernel: truth values and the present-tense connective tables.

The logic has three truth values: false (0), true (1) and undefined (⊥).
Connectives come in families named after the algebras they belong to
(SAC = Schay/Adams/Calabrese, GNW = Goodman/Nguyen/Walker, Sch = Schay's
strict pair), plus the two re-conditioning operators and the auxiliary
``sqcap`` connective definable inside SAC; :func:`eval_sets` applies them
at every point of a universe at once.
"""
from __future__ import annotations

import enum
import itertools
from functools import reduce
from operator import and_, getitem
from typing import Callable, Mapping

from .syntax import CeaAnd, CeaCond, CeaNeg, CeaOr, CeaSimple, fold


class Value3(enum.Enum):
    """A truth value of the three-valued logic."""

    FALSE = 0
    TRUE = 1
    UNDEF = 2

    @property
    def symbol(self) -> str:
        return ("0", "1", "⊥")[self.value]

    def __str__(self) -> str:
        return self.symbol

    @staticmethod
    def from_bool(b: bool) -> "Value3":
        return Value3.TRUE if b else Value3.FALSE


FALSE3 = Value3.FALSE
TRUE3 = Value3.TRUE
UNDEF3 = Value3.UNDEF

_F, _T, _U = FALSE3, TRUE3, UNDEF3


class ConnectiveId(enum.Enum):
    """Identifier of a fixed connective table."""

    AND_SAC = "and_sac"
    OR_SAC = "or_sac"
    AND_GNW = "and_gnw"
    OR_GNW = "or_gnw"
    AND_SCH = "and_sch"
    OR_SCH = "or_sch"
    NOT0 = "not0"
    COND_SAC = "cond_sac"
    COND_GNW = "cond_gnw"
    SQCAP = "sqcap"


# Binary tables, indexed [x.value][y.value] with rows/columns ordered 0, 1, ⊥.
#
# SAC treats ⊥ as a two-sided identity of both ∧ and ∨ ("if any argument
# becomes defined, act"); GNW is min/max under the order 0 < ⊥ < 1 ("apparent
# evidence for 0 reports 0", otherwise doubt stays doubt); Sch is strict, ⊥
# absorbs.  The conditioning operators return ⊥ whenever the condition is 0,
# pass the first argument through when it is 1, and differ on an undefined
# condition: SAC passes x through, GNW keeps 0 but turns 1 into ⊥.
_BINARY_TABLES: Mapping[ConnectiveId, tuple] = {
    ConnectiveId.AND_SAC: (
        (_F, _F, _F),
        (_F, _T, _T),
        (_F, _T, _U),
    ),
    ConnectiveId.OR_SAC: (
        (_F, _T, _F),
        (_T, _T, _T),
        (_F, _T, _U),
    ),
    ConnectiveId.AND_GNW: (
        (_F, _F, _F),
        (_F, _T, _U),
        (_F, _U, _U),
    ),
    ConnectiveId.OR_GNW: (
        (_F, _T, _U),
        (_T, _T, _T),
        (_U, _T, _U),
    ),
    ConnectiveId.AND_SCH: (
        (_F, _F, _U),
        (_F, _T, _U),
        (_U, _U, _U),
    ),
    ConnectiveId.OR_SCH: (
        (_F, _T, _U),
        (_T, _T, _U),
        (_U, _U, _U),
    ),
    ConnectiveId.COND_SAC: (
        (_U, _F, _F),
        (_U, _T, _T),
        (_U, _U, _U),
    ),
    ConnectiveId.COND_GNW: (
        (_U, _F, _F),
        (_U, _T, _U),
        (_U, _U, _U),
    ),
    # sqcap is the SAC term [x∨(y∧(x∨¬y))]∧[y∨(x∧(y∨¬x))]; the hard-coded
    # table below is cross-checked against that expansion in the test suite.
    ConnectiveId.SQCAP: (
        (_F, _F, _F),
        (_F, _T, _F),
        (_F, _F, _U),
    ),
}

_UNARY_TABLES: Mapping[ConnectiveId, tuple] = {
    ConnectiveId.NOT0: (_T, _F, _U),
}


def apply_unary(conn: ConnectiveId, x: Value3) -> Value3:
    """Apply a unary connective (only NOT0 exists)."""
    try:
        table = _UNARY_TABLES[conn]
    except KeyError:
        raise ValueError(f"{conn.name} is not a unary connective") from None
    return table[x.value]


def apply_binary(conn: ConnectiveId, x: Value3, y: Value3) -> Value3:
    """Apply a binary connective table to a pair of truth values."""
    try:
        table = _BINARY_TABLES[conn]
    except KeyError:
        raise ValueError(f"{conn.name} is not a binary connective") from None
    return table[x.value][y.value]


# Connective selection for each present-tense algebra; Schay's system has
# no conditioning operator.
ALGEBRA_CONNECTIVES = {
    "sac": {"and": ConnectiveId.AND_SAC, "or": ConnectiveId.OR_SAC,
            "not": ConnectiveId.NOT0, "cond": ConnectiveId.COND_SAC},
    "gnw": {"and": ConnectiveId.AND_GNW, "or": ConnectiveId.OR_GNW,
            "not": ConnectiveId.NOT0, "cond": ConnectiveId.COND_GNW},
    "sch": {"and": ConnectiveId.AND_SCH, "or": ConnectiveId.OR_SCH,
            "not": ConnectiveId.NOT0},
}
_CONNECTIVE_OF = {CeaNeg: "not", CeaAnd: "and", CeaOr: "or", CeaCond: "cond"}


def apply_sets(conn: ConnectiveId, full: int, *args: tuple[int, int]) -> tuple[int, int]:
    """Apply a connective table at every point of the universe ``full`` at
    once.  A value is the pair (set where it is 1, set where it is 0), as
    bitmasks; it is ⊥ on the rest of ``full``."""
    parts = [(f, t, full & ~(t | f)) for t, f in args]  # by Value3.value
    table = _UNARY_TABLES.get(conn) or _BINARY_TABLES[conn]
    sets = dict.fromkeys(Value3, 0)
    for cell in itertools.product(range(3), repeat=len(args)):
        # the table's value at the cell holds where the arguments take its values
        sets[reduce(getitem, cell, table)] |= reduce(and_, map(getitem, parts, cell))
    return sets[TRUE3], sets[FALSE3]


def eval_sets(e, algebra: str, full: int, leaf: Callable) -> tuple[int, int]:
    """An expression's value at every point of ``full`` as (set where it is
    1, set where it is 0), with ``leaf(node)`` the value of a simple
    conditional or variable and and/or/~/| read from ``algebra``'s tables."""
    conns = ALGEBRA_CONNECTIVES[algebra]

    def visit(x, values):
        if not values:
            return leaf(x)
        name = _CONNECTIVE_OF[type(x)]
        if name not in conns:
            raise ValueError(
                f"re-conditioning is not supported in the {algebra} algebra")
        return apply_sets(conns[name], full, *values)

    return fold(e, visit)


class UnboundVariableError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


def variable_leaf(sets: Mapping[str, tuple[int, int]]) -> Callable:
    """The leaf of :func:`eval_sets` over variables: each variable's pair
    from ``sets``."""
    def leaf(x) -> tuple[int, int]:
        if isinstance(x, CeaSimple):
            raise ValueError("expression mixes events with variables; "
                             "valuation semantics needs variable leaves only")
        try:
            return sets[x.name]
        except KeyError:
            raise UnboundVariableError(x.name) from None
    return leaf


def eval_cea_valuation(expr, valuation: Mapping[str, Value3], algebra: str) -> Value3:
    """Evaluate a conditional expression over variables under a valuation.

    ``expr`` is a ``syntax.CeaExpr`` whose leaves are variables; ``algebra``
    selects which connective family interprets and/or/~/| ("sac" or "gnw").
    """
    sets = {name: (int(v is TRUE3), int(v is FALSE3)) for name, v in valuation.items()}
    t, f = eval_sets(expr, algebra, 1, variable_leaf(sets))
    return TRUE3 if t else FALSE3 if f else UNDEF3
