"""ASTs, grammar and pretty-printer for temporal formulas and conditional
expressions.

Two surface languages share one tokenizer, one operator table and one
parser:

* temporal formulas over basic events, with past-time operators
  ``Y`` (previously), ``S`` (since) and the sugar ``O`` (once) /
  ``H`` (historically), which the parser expands into ``S`` forms;
* conditional expressions built from simple conditionals ``(x | y)`` with
  ``and``, ``or``, ``~`` and re-conditioning ``( e | e' )``.

The bar ``|`` appears only immediately inside a parenthesized group at its
lowest precedence, so it never clashes with disjunction (spelled ``or``).
Parsing, the tree walks and the pretty-printer use explicit stacks, so no
depth of nesting exhausts Python's recursion limit.
"""
from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

# events of one flat atom table (2^16 atoms)
DEFAULT_EVENT_LIMIT = 16
# events of an algebra: one whose distribution is given as independent
# blocks may name more events than one atom table can hold, and asking for
# its atoms fails with the limit above
FACTORED_EVENT_LIMIT = 64

_KEYWORDS = {"true", "false", "not", "and", "or", "S", "Y", "O", "H"}
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"syntax error at line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Event algebra


@dataclass(frozen=True)
class EventAlgebra:
    """A finite set of named basic events.

    Atoms are the complete truth assignments to the basic events, encoded as
    bitmasks (bit i set = event i holds).  Events (sets of atoms) are encoded
    as bitmasks over the atom indices.
    """

    events: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.events)) != len(self.events):
            raise ValueError("duplicate basic event names")
        if len(self.events) > FACTORED_EVENT_LIMIT:
            raise ValueError(f"{len(self.events)} basic events exceed the limit "
                             f"{FACTORED_EVENT_LIMIT}")
        for name in self.events:
            if not _IDENT_RE.fullmatch(name) or name in _KEYWORDS:
                raise ValueError(f"invalid event name: {name!r}")

    @classmethod
    def of_checked(cls, events: tuple[str, ...]) -> "EventAlgebra":
        """The algebra of names that an algebra has checked, not checked again."""
        alg = object.__new__(cls)
        object.__setattr__(alg, "events", events)
        return alg

    @property
    def num_atoms(self) -> int:
        n = len(self.events)
        if n > DEFAULT_EVENT_LIMIT:
            raise ValueError(
                f"{n} basic events exceed the limit {DEFAULT_EVENT_LIMIT}")
        return 1 << n

    @property
    def full_event(self) -> int:
        return (1 << self.num_atoms) - 1

    def index(self, name: str) -> int:
        try:
            return self.events.index(name)
        except ValueError:
            raise KeyError(f"unknown event: {name!r}") from None

    def atom_text(self, atom: int) -> str:
        present = [e for i, e in enumerate(self.events) if atom >> i & 1]
        return "{" + " ".join(present) + "}"


def algebra(names: str | tuple[str, ...] | list[str]) -> EventAlgebra:
    """Convenience constructor; accepts "a b c" or a sequence of names."""
    if isinstance(names, str):
        names = tuple(names.split())
    return EventAlgebra(tuple(names))


# ---------------------------------------------------------------------------
# Temporal formulas


class _Ref(weakref.ref):
    """A weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


_INTERNED: dict = {}  # (class, *fields) -> a weak reference to the node


def _forget(ref: _Ref, table: dict = _INTERNED) -> None:
    """Drop a dead node's entry, unless a new node holds its key."""
    if table.get(ref.key) is ref:
        del table[ref.key]


class _Interned:
    """A syntax node built through one weak intern table keyed on its class
    and fields, so equal nodes are one object: ``==`` and ``hash`` are
    identity, O(1) at any depth.  Fields are read-only; ``copy`` and
    ``pickle`` return the interned node."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in fields[len(args):]
                          if name in kwargs)
        # one lookup returns a live node; no key in the table has a wrong arity
        key = (cls, *args)
        ref = _INTERNED.get(key)
        if ref is not None and not kwargs and (f := ref()) is not None:
            return f
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
        f = object.__new__(cls)
        for name, value in zip(fields, args):
            object.__setattr__(f, name, value)
        ref = _INTERNED[key] = _Ref(f, _forget)
        ref.key = key
        return f

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"


class TLFormula(_Interned):
    """A temporal formula."""

    __slots__ = ()


class Atom(TLFormula):
    __slots__ = _fields = ("name",)


class Const(TLFormula):
    __slots__ = _fields = ("value",)


class Not(TLFormula):
    __slots__ = _fields = ("child",)


class And(TLFormula):
    __slots__ = _fields = ("left", "right")


class Or(TLFormula):
    __slots__ = _fields = ("left", "right")


class Implies(TLFormula):
    __slots__ = _fields = ("left", "right")


class Iff(TLFormula):
    __slots__ = _fields = ("left", "right")


class Prev(TLFormula):
    __slots__ = _fields = ("child",)


class Since(TLFormula):
    __slots__ = _fields = ("left", "right")


TRUE = Const(True)
FALSE = Const(False)


def once(f: TLFormula) -> TLFormula:
    """O f, i.e. f held at some position up to now (sugar for true S f)."""
    return Since(TRUE, f)


def hist(f: TLFormula) -> TLFormula:
    """H f, i.e. f held at every position up to now (¬O¬f)."""
    return Not(Since(TRUE, Not(f)))


class CondObject(_Interned):
    """A conditional (numerator | denominator) over temporal formulas."""

    __slots__ = _fields = ("num", "den")


# ---------------------------------------------------------------------------
# Conditional expressions


class CeaExpr(_Interned):
    __slots__ = ()


class CeaSimple(CeaExpr):
    """A simple conditional (x | y) with boolean event expressions as sides."""

    __slots__ = _fields = ("num_event", "den_event")

    def __new__(cls, num_event: TLFormula, den_event: TLFormula):
        for side in (num_event, den_event):  # a lone event is present tense
            if type(side) is not Atom and horizon(side) != 0:
                raise ValueError("simple-conditional sides must be event "
                                 "expressions without temporal operators")
        return super().__new__(cls, num_event, den_event)


class CeaVar(CeaExpr):
    __slots__ = _fields = ("name",)


class CeaNeg(CeaExpr):
    __slots__ = _fields = ("child",)


class CeaAnd(CeaExpr):
    __slots__ = _fields = ("left", "right")


class CeaOr(CeaExpr):
    __slots__ = _fields = ("left", "right")


class CeaCond(CeaExpr):
    __slots__ = _fields = ("left", "right")


# ---------------------------------------------------------------------------
# Traversal


def _no_children(x) -> tuple:
    return ()


def _only_child(x) -> tuple:
    return (x.child,)


# node type -> its direct subnodes, left to right
_CHILDREN = {
    Atom: _no_children, Const: _no_children, CeaVar: _no_children,
    Not: _only_child, Prev: _only_child, CeaNeg: _only_child,
    **dict.fromkeys((And, Or, Implies, Iff, Since, CeaAnd, CeaOr, CeaCond),
                    attrgetter("left", "right")),
    CondObject: attrgetter("num", "den"),
    CeaSimple: attrgetter("num_event", "den_event"),
}


def children(x: Union[TLFormula, CondObject, CeaExpr]) -> tuple:
    """The direct subnodes of a formula, a conditional object or a
    conditional expression, left to right."""
    try:
        get = _CHILDREN[type(x)]
    except KeyError:
        raise TypeError(f"not a syntax node: {x!r}") from None
    return get(x)


def walk(x: Union[TLFormula, CondObject, CeaExpr]) -> Iterator:
    """Every node of a tree, each before its children, left to right,
    without recursion."""
    todo = [x]
    while todo:
        x = todo.pop()
        yield x
        todo += children(x)[::-1]


def fold(e: CeaExpr, visit: Callable) -> object:
    """Fold a conditional expression children first, left to right, without
    recursion: ``visit(node, values)`` gets the values of the node's
    children.  Simple conditionals and variables are leaves (no values).
    A subexpression that occurs twice is one interned node, visited once
    per occurrence."""
    values: list = []
    todo: list = [e]
    while todo:
        x = todo.pop()
        if type(x) is tuple:  # (node, number of children), children folded
            x, n = x
            args = values[len(values) - n:]
            del values[len(values) - n:]
            values.append(visit(x, args))
        elif isinstance(x, CeaExpr):
            kids = () if isinstance(x, (CeaSimple, CeaVar)) else children(x)
            todo.append((x, len(kids)))
            todo += reversed(kids)
        else:
            raise TypeError(f"not a conditional expression node: {x!r}")
    return values[0]


def subformulas(forms: Sequence[TLFormula]) -> list[TLFormula]:
    """Distinct subformulas of ``forms``, each after its children."""
    seen: set[TLFormula] = set()
    out: list[TLFormula] = []
    todo = [(f, False) for f in reversed(forms)]
    while todo:
        f, expanded = todo.pop()
        if expanded:
            out.append(f)
        elif f not in seen:
            seen.add(f)
            todo.append((f, True))
            todo += [(x, False) for x in reversed(children(f))]
    return out


def formula_events(f: Union[TLFormula, CondObject, CeaExpr]) -> tuple[str, ...]:
    """Basic-event names occurring in a formula/expression, in first-use order."""
    return tuple(dict.fromkeys(x.name for x in walk(f) if isinstance(x, Atom)))


def horizon(f: Union[TLFormula, CondObject]) -> Optional[int]:
    """How far back the value of a formula, or of both sides of a
    conditional, reads: the deepest nesting of ``Y``, or None when an ``S``
    (so also an ``O`` or ``H``) occurs.  With horizon d, the value at time t
    depends only on the letters at times t-d..t.

    One walk without recursion, top down; a shared subformula is walked
    again only when it is reached under more ``Y``s than before."""
    reached: dict = {}  # subformula -> the most Ys it was reached under
    deepest = 0
    todo = [(f, 0)]
    while todo:
        x, d = todo.pop()
        if reached.get(x, -1) >= d:
            continue
        reached[x] = d
        if type(x) is Since:
            return None
        if type(x) is Prev:
            d += 1
            if d > deepest:
                deepest = d
        for y in children(x):
            todo.append((y, d))
    return deepest


def collect_simples(e: CeaExpr) -> list[CeaSimple]:
    """Simple conditionals occurring in ``e``, in left-to-right order."""
    return [x for x in walk(e) if isinstance(x, CeaSimple)]


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(r"\s*(?:(<->|->|[()|~!&])|([A-Za-z_][A-Za-z0-9_]*)|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text`` as (kind, text, offset) triples, from one scan
    for an operator, an identifier or keyword, or a bad character after any
    whitespace.  The kind is an operator's or keyword's text, "ident", or
    "end" after the last; line and column are found only for an error."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        tok = m[group]
        if group == 3:
            raise _error(f"unexpected character {tok!r}", text, m.start(group))
        tokens.append((tok if group == 1 or tok in _KEYWORDS else "ident",
                       tok, m.start(group)))
    tokens.append(("end", "", len(text)))
    return tokens


def _error(message: str, text: str, pos: int) -> ParseError:
    """A syntax error at offset ``pos`` of ``text``."""
    return ParseError(message, text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos))


# ---------------------------------------------------------------------------
# Grammar
#
# Formulas and conditional expressions are read by one operator-precedence
# parser from one operator table.  An operand of a conditional expression
# is a pair (node, error): the node, and the first error, as (message
# format, token), that using it as a conditional raises.  A boolean event
# expression stays a formula, since it may yet be a side of a simple
# conditional; its error says why it cannot stand for a conditional.  The
# errors are raised only once the whole text has parsed.

_BARE_EVENT = "bare event {0!r} where a conditional is expected; write ({0} | true)"
_NEGATED_CONDITIONAL = "'not'/'!' negates events; use '~' on conditionals"
_CONSTANT = "constants are not conditional expressions"
_BAR_OUTSIDE = "'|' is only allowed inside a parenthesized conditional group"


def _cea_binary(event_node, cea_node):
    def build(x, y):
        if isinstance(x[0], TLFormula) and isinstance(y[0], TLFormula):
            return event_node(x[0], y[0]), x[1]
        return cea_node(x[0], y[0]), x[1] or y[1]
    return build


def _cea_not(x, tok):
    return (Not(x[0]) if isinstance(x[0], TLFormula) else None,
            (_NEGATED_CONDITIONAL, tok))


def _cea_group(x, y):
    """A bar group: a simple conditional over two event expressions,
    re-conditioning otherwise."""
    if isinstance(x[0], TLFormula) and isinstance(y[0], TLFormula):
        return CeaSimple(x[0], y[0]), None
    return CeaCond(x[0], y[0]), x[1] or y[1]


# token kind: (binding power, formula node, conditional-expression node);
# a node of None means the language lacks the operator.  Infix operators
# associate to the left except "->"; prefix operators bind tightest.
_PREFIX = 6
_GRAMMAR = {
    "<->": (1, Iff, None),
    "->": (2, Implies, None),
    "S": (3, Since, None),
    "or": (4, Or, _cea_binary(Or, CeaOr)),
    "and": (5, And, _cea_binary(And, CeaAnd)),
    "&": (5, And, _cea_binary(And, CeaAnd)),
    "not": (_PREFIX, Not, _cea_not),
    "!": (_PREFIX, Not, _cea_not),
    "Y": (_PREFIX, Prev, None),
    "O": (_PREFIX, once, None),
    "H": (_PREFIX, hist, None),
    "~": (_PREFIX, None, lambda x, tok: (CeaNeg(x[0]), x[1])),
}
_RIGHT_ASSOCIATIVE = {"->"}


class _Language(NamedTuple):
    noun: str
    infix: dict  # kind -> (power, reduce pending operators of this power or more, node)
    prefix: dict  # kind -> node of (operand, operator token)
    leaf: Callable  # identifier or constant token -> operand
    group: Optional[Callable]  # bar group node; None: only parse_cond's bar


def _language(column: int, noun: str, leaf, group, wrap=lambda node: node):
    rows = [(kind, row[0], row[column]) for kind, row in _GRAMMAR.items()
            if row[column] is not None]
    return _Language(
        noun,
        {kind: (power, power + (kind in _RIGHT_ASSOCIATIVE), node)
         for kind, power, node in rows if power < _PREFIX},
        {kind: wrap(node) for kind, power, node in rows if power == _PREFIX},
        leaf, group)


_CONSTANTS = {"true": TRUE, "false": FALSE}
_FORMULA = _language(
    1, "a formula",
    lambda tok: Atom(tok[1]) if tok[0] == "ident" else _CONSTANTS[tok[0]],
    None, wrap=lambda node: lambda f, tok: node(f))
_EVENTS = _language(
    2, "an expression",
    lambda tok: ((Atom(tok[1]), (_BARE_EVENT, tok)) if tok[0] == "ident"
                 else (_CONSTANTS[tok[0]], (_CONSTANT, tok))),
    _cea_group)
_VARIABLES = _EVENTS._replace(
    leaf=lambda tok: ((CeaVar(tok[1]), None) if tok[0] == "ident"
                      else (None, (_CONSTANT, tok))))

# operator-stack entries of an open parenthesis and of the start of the
# text; their powers are below every operator's
_GROUP = 0
_OPEN = (_GROUP, None)  # a group without a bar; (_GROUP, left side) after it
_BOTTOM = (-1,)


def _expected(what: str, tok: tuple, text: str) -> ParseError:
    return _error(f"expected {what}, found {tok[1] or 'end of input'!r}", text, tok[2])


def _parse(text: str, lang: _Language, alg: Optional[EventAlgebra], cond: bool = False):
    """Read ``text`` in ``lang`` with explicit stacks.  With ``cond``, the
    text is a conditional object: a group opened by the first token may hold
    one bar, and the result is a :class:`CondObject`.  Returns it and
    whether a bar group built a :class:`CeaCond`."""
    tokens = _tokenize(text)
    conditioned = False
    infix, prefix, leaf = lang.infix, lang.prefix, lang.leaf
    if lang.group is None and tokens[0][0] == "|":
        raise _error(_BAR_OUTSIDE, text, tokens[0][2])
    # pending prefix (power, node, token) and infix (power, node, left
    # operand) operators and open groups
    ops: list = [_BOTTOM]
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        kind = tok[0]
        if kind in prefix:
            ops.append((_PREFIX, prefix[kind], tok))
            continue
        if kind == "(":
            ops.append(_OPEN)
            continue
        if kind == "ident":
            if alg is not None and tok[1] not in alg.events:
                raise _error(f"unknown identifier {tok[1]!r}", text, tok[2])
        elif kind not in _CONSTANTS:
            raise _expected(lang.noun, tok, text)
        val = leaf(tok)
        # an operand is complete: what follows it is an infix operator, a
        # bar, a closing parenthesis or the end
        while True:
            top = ops[-1]
            while top[0] == _PREFIX:
                ops.pop()
                val = top[1](val, top[2])
                top = ops[-1]
            tok = tokens[i]
            i += 1
            kind = tok[0]
            if kind in infix:
                power, above, node = infix[kind]
                while top[0] >= above:
                    ops.pop()
                    val = top[1](top[2], val)
                    top = ops[-1]
                ops.append((power, node, val))
                break
            while top[0] > _GROUP:
                ops.pop()
                val = top[1](top[2], val)
                top = ops[-1]
            if top is _BOTTOM:
                if kind == "end":
                    return (CondObject(val, TRUE) if cond else val), conditioned
                if kind == "|" and lang.group is None:
                    raise _error(_BAR_OUTSIDE, text, tok[2])
                raise _expected("'end'", tok, text)
            if kind == ")":
                ops.pop()
                if top is not _OPEN:
                    if cond:
                        if tokens[i][0] != "end":
                            raise _expected("'end'", tokens[i], text)
                        return CondObject(top[1], val), False
                    val = lang.group(top[1], val)
                    conditioned = conditioned or type(val[0]) is CeaCond
                continue
            if kind == "|" and top is _OPEN and (
                    lang.group is not None or cond and len(ops) == 2):
                ops[-1] = (_GROUP, val)
                break
            raise _expected("')'", tok, text)


def parse_tl(text: str, alg: Optional[EventAlgebra] = None) -> TLFormula:
    """Parse a temporal formula.  Unknown identifiers are rejected when an
    algebra is given."""
    return _parse(text, _FORMULA, alg)[0]


def parse_cond(text: str, alg: Optional[EventAlgebra] = None) -> CondObject:
    """Parse a conditional object ``( f | g )``; a bare formula f means (f | true)."""
    return _parse(text, _FORMULA, alg, cond=True)[0]


_CEA_DIALECTS = ("flat", "pure-conditional", "full")


def parse_cea(text: str, alg: Optional[EventAlgebra] = None,
              dialect: str = "full") -> CeaExpr:
    """Parse a conditional expression.

    With an algebra, identifiers are basic events and bar-groups over event
    expressions become simple conditionals.  Without one (``alg=None``),
    identifiers are three-valued variables, for tautology checking.

    ``dialect``: "flat" forbids re-conditioning, "pure-conditional" allows
    only the bar, "full" allows everything.
    """
    if dialect not in _CEA_DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}")
    (e, error), conditioned = _parse(text, _VARIABLES if alg is None else _EVENTS, alg)
    if error:
        message, tok = error
        raise _error(message.format(tok[1]), text, tok[2])
    if dialect == "flat" and conditioned:
        raise ValueError("re-conditioning not allowed in the flat dialect")
    if dialect == "pure-conditional" and any(
            isinstance(x, (CeaNeg, CeaAnd, CeaOr)) for x in walk(e)):
        raise ValueError("pure-conditional dialect allows only the "
                         "conditioning connective")
    return e


# ---------------------------------------------------------------------------
# Pretty-printer
#
# Emits minimally parenthesized text that re-parses to an equal AST; "once"
# and "historically" patterns are re-sugared to O/H.

_LVL_IFF, _LVL_IMP, _LVL_SINCE, _LVL_OR, _LVL_AND, _LVL_UN, _LVL_ATOM = range(1, 8)
# infix node -> (operator, level, levels more that its left and right need)
_TL_INFIX = {Iff: (" <-> ", _LVL_IFF, 0, 1), Implies: (" -> ", _LVL_IMP, 1, 0),
             Since: (" S ", _LVL_SINCE, 0, 1), Or: (" or ", _LVL_OR, 0, 1),
             And: (" and ", _LVL_AND, 0, 1)}
# prefix node -> operator; "O" and "H" are re-sugared from their expansions
_TL_PREFIX = {Not: "not ", Prev: "Y "}

_CLVL_OR, _CLVL_AND, _CLVL_NEG, _CLVL_ATOM = range(1, 5)
# binary expression node -> (operator, level); "|" groups need no level
_CEA_INFIX = {CeaOr: (" or ", _CLVL_OR), CeaAnd: (" and ", _CLVL_AND)}


def _layout(x) -> tuple[int, list]:
    """A node's level and its text as a list of strings and (child, the
    level the child needs) pairs; a child of a lower level is
    parenthesized.  Formula and expression levels are separate scales."""
    kind = type(x)
    if kind is Atom:
        return _LVL_ATOM, [x.name]
    if kind is Const:
        return _LVL_ATOM, [str(x.value).lower()]
    if kind is Since and x.left is TRUE:
        return _LVL_UN, ["O ", (x.right, _LVL_UN)]
    if kind in _TL_INFIX:
        op, level, left, right = _TL_INFIX[kind]
        return level, [(x.left, level + left), op, (x.right, level + right)]
    if kind in _TL_PREFIX:
        op, child = _TL_PREFIX[kind], x.child
        if (kind is Not and type(child) is Since and child.left is TRUE
                and type(child.right) is Not):
            op, child = "H ", child.right.child
        return _LVL_UN, [op, (child, _LVL_UN)]
    if kind is CondObject or kind is CeaSimple or kind is CeaCond:
        left, right = children(x)
        return _CLVL_ATOM, ["(", (left, 0), " | ", (right, 0), ")"]
    if kind is CeaVar:
        return _CLVL_ATOM, [x.name]
    if kind is CeaNeg:
        return _CLVL_NEG, ["~", (x.child, _CLVL_NEG)]
    if kind in _CEA_INFIX:
        op, level = _CEA_INFIX[kind]
        return level, [(x.left, level), op, (x.right, level + 1)]
    raise TypeError(f"cannot pretty-print {x!r}")


def pretty(x: Union[TLFormula, CondObject, CeaExpr]) -> str:
    """Render an AST back to source text (minimal parentheses, O/H
    re-sugared), in time linear in the text: the pieces are written once,
    without recursion, and joined once."""
    out: list[str] = []
    todo: list = [(x, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, min_level = item
        level, parts = _layout(node)
        if level < min_level:
            parts = ["(", *parts, ")"]
        todo += reversed(parts)
    return "".join(out)
