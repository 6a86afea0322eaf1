"""ASTs, grammar and pretty-printer for temporal formulas and conditional
expressions.

Two surface languages share one tokenizer:

* temporal formulas over basic events, with past-time operators
  ``Y`` (previously), ``S`` (since) and the sugar ``O`` (once) /
  ``H`` (historically), which the parser expands into ``S`` forms;
* conditional expressions built from simple conditionals ``(x | y)`` with
  ``and``, ``or``, ``~`` and re-conditioning ``( e | e' )``.

The bar ``|`` appears only immediately inside a parenthesized group at its
lowest precedence, so it never clashes with disjunction (spelled ``or``).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

# events of one flat atom table (2^16 atoms)
DEFAULT_EVENT_LIMIT = 16
# events of an algebra whose distribution is given as independent blocks:
# such an algebra may name more events than one atom table can hold, and
# asking for its atoms fails with the limit above
FACTORED_EVENT_LIMIT = 64

_KEYWORDS = {"true", "false", "not", "and", "or", "S", "Y", "O", "H"}


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
    limit: int = DEFAULT_EVENT_LIMIT

    def __post_init__(self):
        if len(set(self.events)) != len(self.events):
            raise ValueError("duplicate basic event names")
        if len(self.events) > self.limit:
            raise ValueError(
                f"{len(self.events)} basic events exceed the limit {self.limit}")
        for name in self.events:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name in _KEYWORDS:
                raise ValueError(f"invalid event name: {name!r}")

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

    def atom_has(self, atom: int, name: str) -> bool:
        return bool(atom >> self.index(name) & 1)

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


class TLFormula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(TLFormula):
    name: str


@dataclass(frozen=True)
class Const(TLFormula):
    value: bool


@dataclass(frozen=True)
class Not(TLFormula):
    child: TLFormula


@dataclass(frozen=True)
class And(TLFormula):
    left: TLFormula
    right: TLFormula


@dataclass(frozen=True)
class Or(TLFormula):
    left: TLFormula
    right: TLFormula


@dataclass(frozen=True)
class Implies(TLFormula):
    left: TLFormula
    right: TLFormula


@dataclass(frozen=True)
class Iff(TLFormula):
    left: TLFormula
    right: TLFormula


@dataclass(frozen=True)
class Prev(TLFormula):
    child: TLFormula


@dataclass(frozen=True)
class Since(TLFormula):
    left: TLFormula
    right: TLFormula


TRUE = Const(True)
FALSE = Const(False)


def once(f: TLFormula) -> TLFormula:
    """O f, i.e. f held at some position up to now (sugar for true S f)."""
    return Since(TRUE, f)


def hist(f: TLFormula) -> TLFormula:
    """H f, i.e. f held at every position up to now (¬O¬f)."""
    return Not(Since(TRUE, Not(f)))


def children(f: TLFormula) -> tuple[TLFormula, ...]:
    """The direct subformulas of a temporal formula."""
    if isinstance(f, (Not, Prev)):
        return (f.child,)
    if isinstance(f, (And, Or, Implies, Iff, Since)):
        return (f.left, f.right)
    if isinstance(f, (Atom, Const)):
        return ()
    raise TypeError(f"not a temporal formula: {f!r}")


def subformulas(forms: Sequence[TLFormula]) -> list[TLFormula]:
    """Distinct subformulas of ``forms``, each after its children."""
    seen: set[TLFormula] = set()
    out: list[TLFormula] = []

    def walk(f: TLFormula):
        if f in seen:
            return
        for x in children(f):
            walk(x)
        seen.add(f)
        out.append(f)

    for f in forms:
        walk(f)
    return out


@dataclass(frozen=True)
class CondObject:
    """A conditional (numerator | denominator) over temporal formulas."""

    num: TLFormula
    den: TLFormula


def formula_events(f: Union[TLFormula, "CeaExpr", CondObject]) -> tuple[str, ...]:
    """Basic-event names occurring in a formula/expression, in first-use order."""
    seen: dict[str, None] = {}

    def walk(x):
        if isinstance(x, Atom):
            seen.setdefault(x.name)
        elif isinstance(x, (Not, Prev, CeaNeg)):
            walk(x.child)
        elif isinstance(x, (And, Or, Implies, Iff, Since, CeaAnd, CeaOr, CeaCond)):
            walk(x.left)
            walk(x.right)
        elif isinstance(x, CondObject):
            walk(x.num)
            walk(x.den)
        elif isinstance(x, CeaSimple):
            walk(x.num_event)
            walk(x.den_event)

    walk(f)
    return tuple(seen)


def is_present_tense(f: TLFormula) -> bool:
    """True when the formula uses no temporal operator."""
    if isinstance(f, (Atom, Const)):
        return True
    if isinstance(f, Not):
        return is_present_tense(f.child)
    if isinstance(f, (And, Or, Implies, Iff)):
        return is_present_tense(f.left) and is_present_tense(f.right)
    return False


# ---------------------------------------------------------------------------
# Conditional expressions


class CeaExpr:
    __slots__ = ()


@dataclass(frozen=True)
class CeaSimple(CeaExpr):
    """A simple conditional (x | y) with boolean event expressions as sides."""

    num_event: TLFormula
    den_event: TLFormula

    def __post_init__(self):
        for side in (self.num_event, self.den_event):
            if not is_present_tense(side):
                raise ValueError("simple-conditional sides must be event "
                                 "expressions without temporal operators")


@dataclass(frozen=True)
class CeaVar(CeaExpr):
    name: str


@dataclass(frozen=True)
class CeaNeg(CeaExpr):
    child: CeaExpr


@dataclass(frozen=True)
class CeaAnd(CeaExpr):
    left: CeaExpr
    right: CeaExpr


@dataclass(frozen=True)
class CeaOr(CeaExpr):
    left: CeaExpr
    right: CeaExpr


@dataclass(frozen=True)
class CeaCond(CeaExpr):
    left: CeaExpr
    right: CeaExpr


def has_reconditioning(e: CeaExpr) -> bool:
    if isinstance(e, CeaCond):
        return True
    if isinstance(e, CeaNeg):
        return has_reconditioning(e.child)
    if isinstance(e, (CeaAnd, CeaOr)):
        return has_reconditioning(e.left) or has_reconditioning(e.right)
    return False


def collect_simples(e: CeaExpr) -> list[CeaSimple]:
    """Simple conditionals occurring in ``e``, in left-to-right order."""
    out: list[CeaSimple] = []

    def walk(x):
        if isinstance(x, CeaSimple):
            out.append(x)
        elif isinstance(x, CeaNeg):
            walk(x.child)
        elif isinstance(x, (CeaAnd, CeaOr, CeaCond)):
            walk(x.left)
            walk(x.right)

    walk(e)
    return out


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<arrow2><->)
  | (?P<arrow>->)
  | (?P<sym>[()|~!&])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # "(", ")", "|", "~", "!", "&", "->", "<->", keyword, "ident", "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        tok = m.group(0)
        if m.lastgroup == "ws":
            for ch in tok:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            pos = m.end()
            continue
        if m.lastgroup == "ident":
            kind = tok if tok in _KEYWORDS else "ident"
        else:
            kind = tok
        tokens.append(_Token(kind, tok, line, col))
        col += len(tok)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        t = self.cur
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(f"expected {kind!r}, found {self.cur.text or 'end of input'!r}",
                             self.cur.line, self.cur.col)
        return self.take()

    def error(self, message: str):
        raise ParseError(message, self.cur.line, self.cur.col)


# ---------------------------------------------------------------------------
# Temporal-formula parser
#
# Precedence, loosest to tightest: <->, ->, S, or, and, unary (not/!/Y/O/H).
# S and the binary boolean connectives are left-associative; -> associates to
# the right; O and H are expanded immediately.


def _check_ident(tok: _Token, alg: Optional[EventAlgebra]):
    if alg is not None and tok.text not in alg.events:
        raise ParseError(f"unknown identifier {tok.text!r}", tok.line, tok.col)


def _tl_primary(c: _Cursor, alg: Optional[EventAlgebra]) -> TLFormula:
    tok = c.cur
    if tok.kind == "true":
        c.take()
        return TRUE
    if tok.kind == "false":
        c.take()
        return FALSE
    if tok.kind == "ident":
        c.take()
        _check_ident(tok, alg)
        return Atom(tok.text)
    if tok.kind == "(":
        c.take()
        f = _tl_iff(c, alg)
        c.expect(")")
        return f
    c.error(f"expected a formula, found {tok.text or 'end of input'!r}")


def _tl_unary(c: _Cursor, alg) -> TLFormula:
    tok = c.cur
    if tok.kind in ("not", "!"):
        c.take()
        return Not(_tl_unary(c, alg))
    if tok.kind == "Y":
        c.take()
        return Prev(_tl_unary(c, alg))
    if tok.kind == "O":
        c.take()
        return once(_tl_unary(c, alg))
    if tok.kind == "H":
        c.take()
        return hist(_tl_unary(c, alg))
    return _tl_primary(c, alg)


def _tl_and(c: _Cursor, alg) -> TLFormula:
    f = _tl_unary(c, alg)
    while c.cur.kind in ("and", "&"):
        c.take()
        f = And(f, _tl_unary(c, alg))
    return f


def _tl_or(c: _Cursor, alg) -> TLFormula:
    f = _tl_and(c, alg)
    while c.cur.kind == "or":
        c.take()
        f = Or(f, _tl_and(c, alg))
    return f


def _tl_since(c: _Cursor, alg) -> TLFormula:
    f = _tl_or(c, alg)
    while c.cur.kind == "S":
        c.take()
        f = Since(f, _tl_or(c, alg))
    return f


def _tl_imp(c: _Cursor, alg) -> TLFormula:
    f = _tl_since(c, alg)
    if c.cur.kind == "->":
        c.take()
        return Implies(f, _tl_imp(c, alg))
    return f


def _tl_iff(c: _Cursor, alg) -> TLFormula:
    f = _tl_imp(c, alg)
    while c.cur.kind == "<->":
        c.take()
        f = Iff(f, _tl_imp(c, alg))
    return f


def parse_tl(text: str, alg: Optional[EventAlgebra] = None) -> TLFormula:
    """Parse a temporal formula.  Unknown identifiers are rejected when an
    algebra is given."""
    c = _Cursor(_tokenize(text))
    if c.cur.kind == "|":
        c.error("'|' is only allowed inside a parenthesized conditional group")
    f = _tl_iff(c, alg)
    if c.cur.kind == "|":
        c.error("'|' is only allowed inside a parenthesized conditional group")
    c.expect("end")
    return f


def parse_cond(text: str, alg: Optional[EventAlgebra] = None) -> CondObject:
    """Parse a conditional object ``( f | g )``; a bare formula f means (f | true)."""
    tokens = _tokenize(text)
    # Recognize the top-level shape "( ... | ... )" by bracket counting.
    if tokens[0].kind == "(" and tokens[-2].kind == ")" and len(tokens) >= 4:
        depth = 0
        bar = None
        for i, t in enumerate(tokens[:-1]):
            if t.kind == "(":
                depth += 1
            elif t.kind == ")":
                depth -= 1
                if depth == 0 and i != len(tokens) - 2:
                    bar = None  # the opening paren closes early: not a cond group
                    break
            elif t.kind == "|" and depth == 1:
                if bar is not None:
                    raise ParseError("more than one '|' in a conditional group",
                                     t.line, t.col)
                bar = i
        if bar is not None:
            num_c = _Cursor(tokens[1:bar] + [tokens[-1]])
            num = _tl_iff(num_c, alg)
            num_c.expect("end")
            den_c = _Cursor(tokens[bar + 1:-2] + [tokens[-1]])
            den = _tl_iff(den_c, alg)
            den_c.expect("end")
            return CondObject(num, den)
    return CondObject(parse_tl(text, alg), TRUE)


# ---------------------------------------------------------------------------
# Conditional-expression parser
#
# A first pass builds a "mixed" tree in which parenthesized bar-groups are
# opaque nodes; a second pass classifies each group as a simple conditional
# (both sides boolean event expressions) or as re-conditioning.


@dataclass(frozen=True)
class _Mix:
    kind: str  # ident const not cneg and or cond
    a: object = None
    b: object = None
    tok: object = None


def _mix_primary(c: _Cursor, alg) -> _Mix:
    tok = c.cur
    if tok.kind == "(":
        c.take()
        left = _mix_or(c, alg)
        if c.cur.kind == "|":
            c.take()
            right = _mix_or(c, alg)
            c.expect(")")
            return _Mix("cond", left, right, tok)
        c.expect(")")
        return left
    if tok.kind in ("true", "false"):
        c.take()
        return _Mix("const", tok.kind == "true", None, tok)
    if tok.kind == "ident":
        c.take()
        _check_ident(tok, alg)
        return _Mix("ident", tok.text, None, tok)
    c.error(f"expected an expression, found {tok.text or 'end of input'!r}")


def _mix_unary(c: _Cursor, alg) -> _Mix:
    tok = c.cur
    if tok.kind == "~":
        c.take()
        return _Mix("cneg", _mix_unary(c, alg), None, tok)
    if tok.kind in ("not", "!"):
        c.take()
        return _Mix("not", _mix_unary(c, alg), None, tok)
    return _mix_primary(c, alg)


def _mix_and(c: _Cursor, alg) -> _Mix:
    f = _mix_unary(c, alg)
    while c.cur.kind in ("and", "&"):
        tok = c.take()
        f = _Mix("and", f, _mix_unary(c, alg), tok)
    return f


def _mix_or(c: _Cursor, alg) -> _Mix:
    f = _mix_and(c, alg)
    while c.cur.kind == "or":
        tok = c.take()
        f = _Mix("or", f, _mix_and(c, alg), tok)
    return f


def _mix_is_eventish(m: _Mix) -> bool:
    if m.kind in ("ident", "const"):
        return True
    if m.kind == "not":
        return _mix_is_eventish(m.a)
    if m.kind in ("and", "or"):
        return _mix_is_eventish(m.a) and _mix_is_eventish(m.b)
    return False  # cond groups and ~ belong to the conditional level


def _err(m: _Mix, message: str):
    raise ParseError(message, m.tok.line, m.tok.col)


def _mix_to_event(m: _Mix) -> TLFormula:
    if m.kind == "ident":
        return Atom(m.a)
    if m.kind == "const":
        return TRUE if m.a else FALSE
    if m.kind == "not":
        return Not(_mix_to_event(m.a))
    if m.kind == "and":
        return And(_mix_to_event(m.a), _mix_to_event(m.b))
    if m.kind == "or":
        return Or(_mix_to_event(m.a), _mix_to_event(m.b))
    _err(m, "expected a boolean event expression")


def _mix_to_cea(m: _Mix, variables: bool) -> CeaExpr:
    if m.kind == "cond":
        if variables:
            return CeaCond(_mix_to_cea(m.a, True), _mix_to_cea(m.b, True))
        if _mix_is_eventish(m.a) and _mix_is_eventish(m.b):
            return CeaSimple(_mix_to_event(m.a), _mix_to_event(m.b))
        return CeaCond(_mix_to_cea(m.a, False), _mix_to_cea(m.b, False))
    if m.kind == "cneg":
        return CeaNeg(_mix_to_cea(m.a, variables))
    if m.kind == "and":
        return CeaAnd(_mix_to_cea(m.a, variables), _mix_to_cea(m.b, variables))
    if m.kind == "or":
        return CeaOr(_mix_to_cea(m.a, variables), _mix_to_cea(m.b, variables))
    if m.kind == "ident":
        if variables:
            return CeaVar(m.a)
        _err(m, f"bare event {m.a!r} where a conditional is expected; "
                f"write ({m.a} | true)")
    if m.kind == "not":
        _err(m, "'not'/'!' negates events; use '~' on conditionals")
    if m.kind == "const":
        _err(m, "constants are not conditional expressions")
    raise AssertionError(m.kind)


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
    c = _Cursor(_tokenize(text))
    mix = _mix_or(c, alg)
    c.expect("end")
    e = _mix_to_cea(mix, variables=alg is None)
    _check_dialect(e, dialect)
    return e


def _check_dialect(e: CeaExpr, dialect: str):
    if dialect == "flat" and has_reconditioning(e):
        raise ValueError("re-conditioning not allowed in the flat dialect")
    if dialect == "pure-conditional":
        def pure(x):
            if isinstance(x, (CeaVar, CeaSimple)):
                return True
            if isinstance(x, CeaCond):
                return pure(x.left) and pure(x.right)
            return False
        if not pure(e):
            raise ValueError("pure-conditional dialect allows only the "
                             "conditioning connective")


# ---------------------------------------------------------------------------
# Pretty-printer
#
# Emits minimally parenthesized text that re-parses to an equal AST; "once"
# and "historically" patterns are re-sugared to O/H.

_LVL_IFF, _LVL_IMP, _LVL_SINCE, _LVL_OR, _LVL_AND, _LVL_UN, _LVL_ATOM = range(1, 8)


def _tl_text(f: TLFormula) -> tuple[str, int]:
    if isinstance(f, Atom):
        return f.name, _LVL_ATOM
    if isinstance(f, Const):
        return ("true" if f.value else "false"), _LVL_ATOM
    if isinstance(f, Not):
        inner = f.child
        if isinstance(inner, Since) and inner.left == TRUE and isinstance(inner.right, Not):
            return "H " + _tl_wrap(inner.right.child, _LVL_UN), _LVL_UN
        return "not " + _tl_wrap(inner, _LVL_UN), _LVL_UN
    if isinstance(f, Prev):
        return "Y " + _tl_wrap(f.child, _LVL_UN), _LVL_UN
    if isinstance(f, Since):
        if f.left == TRUE:
            return "O " + _tl_wrap(f.right, _LVL_UN), _LVL_UN
        return (_tl_wrap(f.left, _LVL_SINCE) + " S " + _tl_wrap(f.right, _LVL_SINCE + 1),
                _LVL_SINCE)
    if isinstance(f, And):
        return (_tl_wrap(f.left, _LVL_AND) + " and " + _tl_wrap(f.right, _LVL_AND + 1),
                _LVL_AND)
    if isinstance(f, Or):
        return (_tl_wrap(f.left, _LVL_OR) + " or " + _tl_wrap(f.right, _LVL_OR + 1),
                _LVL_OR)
    if isinstance(f, Implies):
        return (_tl_wrap(f.left, _LVL_IMP + 1) + " -> " + _tl_wrap(f.right, _LVL_IMP),
                _LVL_IMP)
    if isinstance(f, Iff):
        return (_tl_wrap(f.left, _LVL_IFF) + " <-> " + _tl_wrap(f.right, _LVL_IFF + 1),
                _LVL_IFF)
    raise TypeError(f"not a temporal formula: {f!r}")


def _tl_wrap(f: TLFormula, min_level: int) -> str:
    text, level = _tl_text(f)
    return f"({text})" if level < min_level else text


_CLVL_OR, _CLVL_AND, _CLVL_NEG, _CLVL_ATOM = range(1, 5)


def _cea_text(e: CeaExpr) -> tuple[str, int]:
    if isinstance(e, CeaSimple):
        return f"({_tl_text(e.num_event)[0]} | {_tl_text(e.den_event)[0]})", _CLVL_ATOM
    if isinstance(e, CeaCond):
        return f"({_cea_text(e.left)[0]} | {_cea_text(e.right)[0]})", _CLVL_ATOM
    if isinstance(e, CeaVar):
        return e.name, _CLVL_ATOM
    if isinstance(e, CeaNeg):
        return "~" + _cea_wrap(e.child, _CLVL_NEG), _CLVL_NEG
    if isinstance(e, CeaAnd):
        return (_cea_wrap(e.left, _CLVL_AND) + " and " + _cea_wrap(e.right, _CLVL_AND + 1),
                _CLVL_AND)
    if isinstance(e, CeaOr):
        return (_cea_wrap(e.left, _CLVL_OR) + " or " + _cea_wrap(e.right, _CLVL_OR + 1),
                _CLVL_OR)
    raise TypeError(f"not a conditional expression node: {e!r}")


def _cea_wrap(e: CeaExpr, min_level: int) -> str:
    text, level = _cea_text(e)
    return f"({text})" if level < min_level else text


def pretty(x: Union[TLFormula, CondObject, CeaExpr]) -> str:
    """Render an AST back to source text (minimal parentheses, O/H re-sugared)."""
    if isinstance(x, TLFormula):
        return _tl_text(x)[0]
    if isinstance(x, CondObject):
        return f"({_tl_text(x.num)[0]} | {_tl_text(x.den)[0]})"
    if isinstance(x, CeaExpr):
        return _cea_text(x)[0]
    raise TypeError(f"cannot pretty-print {x!r}")
