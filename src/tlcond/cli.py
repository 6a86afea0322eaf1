"""Command-line front end.

Subcommands: ``prob`` (exact probability of an expression), ``series``
(CSV of time-indexed probabilities), ``machine`` (DOT export), ``taut``
(weak-tautology check) and ``indep`` (independence check).  One table
declares every option; it builds the argparse parser, and a plain command
line (its command's own options spelled out, each with a valid value) is
read from it directly.  argparse reads any other line, so help and error
texts are its own.

Exit codes: 0 success, 1 input error (a usage error too), 2 mathematically
undefined result.  A reader that closes stdout early, as ``head`` does,
ends the command quietly with exit code 0.
"""
from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional

from . import cea
from .automata import (compile_cond, is_counter_free, minimal_machine,
                       minimize, to_dot)
from .markov import (PeriodicChainError, ProbAssignment, chain_from_machine,
                     check_time_index, label_weights)
from .syntax import (_IDENT_RE, _KEYWORDS, EventAlgebra, ParseError,
                     algebra, formula_events, parse_cea, parse_cond)

OK, INPUT_ERROR, UNDEFINED = 0, 1, 2

_CEA_CHOICES = ("tl", "sac", "gnw", "sch", "ps")
_EMBEDDINGS = ("first", "reverse", "sparse")


class _InputError(Exception):
    pass


def _decimal_12(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(x.numerator) / Decimal(x.denominator)
        return str(d.quantize(Decimal("1.000000000000")))


def _load_dist(path: str) -> ProbAssignment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ProbAssignment.from_text(fh.read())
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise _InputError(f"bad distribution file {path}: {exc}") from None


def _half(events: tuple[str, ...]) -> ProbAssignment:
    """Every event independent with probability 1/2, one block per event."""
    return ProbAssignment.independent(
        EventAlgebra(events), {e: Fraction(1, 2) for e in events})


@lru_cache
def _parse_expr(kind: str, text: str, alg):
    """Parse a conditional (tl) or an expression in the algebra's dialect;
    kept for the 128 most recent keys (a failing parse raises anew)."""
    if kind == "tl":
        return parse_cond(text, alg)
    return parse_cea(text, alg, dialect="full" if kind in ("sac", "gnw") else "flat")


def _parse_own(kind: str, text: str):
    """Parse over the expression's own identifiers; return the expression
    and its events, sorted."""
    e = _parse_expr(kind, text, EventAlgebra(_idents_of(text)))
    return e, tuple(sorted(formula_events(e)))


def _parse_with_dist(kind: str, dist: Optional[str], *texts: str):
    """The expressions parsed against the distribution file's algebra, or,
    without a file, each over its own events, every event independent with
    probability 1/2 (events ordered text by text, each text's sorted); and
    the distribution."""
    if dist is not None:
        p = _load_dist(dist)
        return [_parse_expr(kind, text, p.alg) for text in texts], p
    parsed = [_parse_own(kind, text) for text in texts]
    events = dict.fromkeys(x for _, own in parsed for x in own)
    return [e for e, _ in parsed], _half(tuple(events))


def _expr_machine(kind: str, embedding: str, e, alg, minimal: bool):
    """The machine of a parsed expression, minimized when ``minimal``."""
    if kind == "ps":
        e = cea.embed_ps(e, embedding)
    if kind in ("tl", "ps"):
        return (minimal_machine if minimal else compile_cond)(e, alg)
    m = cea.present_machine(cea.reduce_present(e, alg, kind), alg)
    return minimize(m) if minimal else m


def cmd_prob(args) -> int:
    (e,), p = _parse_with_dist(args.cea, args.dist, args.expr)
    if args.cea == "tl":
        value = cea.cond_asymptotic(e, p)
    elif args.cea == "ps":
        value = cea.prob_ps(e, p)
    else:
        value = cea.prob_present(e, p, args.cea)
    if value is None:
        print("undefined")
        return UNDEFINED
    print(f"{value} ({_decimal_12(value)})")
    return OK


def cmd_series(args) -> int:
    check_time_index(args.n)
    (e,), p = _parse_with_dist(args.cea, args.dist, args.expr)
    ch = chain_from_machine(
        _expr_machine(args.cea, args.embedding, e, p.alg, True), p)
    den = ch.den
    write = sys.stdout.write
    write("n,p1,p0,pbot,ratio\n")
    # a row is written as soon as it is stepped; no row is kept
    p1 = q1 = 0  # the last ratio p1/q1 in lowest terms; q1 = 0 after undef
    for n, (scale, w1, w0, wbot) in enumerate(label_weights(ch, args.n), 1):
        # scale = den^t, so a weight coprime to a den > 1 shares no prime
        # with scale and is in lowest terms over it: one small gcd, not one
        # against den^t.  str(scale) is made at most once per row, and not
        # at all when every cell takes the full gcd.
        over, cells = "", []
        for w in (w1, w0, wbot):
            if den > 1 and gcd(w, den) == 1:
                over = over or f"/{scale}"
                cells.append(f"{w}{over}")
            else:
                cells.append(_quotient(w, scale))
        total = w1 + w0
        if not (total and q1 and w1 * q1 == p1 * total):  # else the last text stands
            g = gcd(w1, total) or 1
            p1, q1 = w1 // g, total // g
            ratio = f"{p1}/{q1}" if q1 > 1 else str(p1) if q1 else "undef"
        write(f"{n},{','.join(cells)},{ratio}\n")
    return OK


def _quotient(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ``num >= 0`` and ``den > 0``, from
    one gcd."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def cmd_machine(args) -> int:
    e, events = _parse_own(args.cea, args.expr)
    m = _expr_machine(args.cea, args.embedding, e, algebra(events), args.minimize)
    if args.check_counter_free:
        print(f"counter-free: {'yes' if is_counter_free(m) else 'no'}",
              file=sys.stderr)
    print(to_dot(m))
    return OK


def cmd_taut(args) -> int:
    e = parse_cea(args.expr, None, dialect=args.dialect)
    ok, witness = cea.weak_tautology(e, args.cea, variable_cap=args.max_vars)
    if ok:
        print("weak-tautology: yes")
    else:
        assignment = " ".join(f"{k}={v}" for k, v in sorted(witness.items()))
        print(f"weak-tautology: no ({assignment})")
    return OK


def cmd_indep(args) -> int:
    if args.mode != "present" and args.n is not None:
        raise _InputError("--n applies to --mode present only")
    (left, right), p = _parse_with_dist("tl", args.dist, args.left, args.right)
    if args.mode == "present":
        ok, checks = cea.present_indep(left, right, p, args.n)
        print(f"independent: {'yes' if ok else 'no'}")
        for chk in checks:
            if not chk["holds"]:
                lhs, rhs = ("undef" if v is None else v for v in (chk["lhs"], chk["rhs"]))
                print(f"  fails {chk['eq']}: lhs={lhs} rhs={rhs}")
    else:
        ok, witness = cea.strong_indep(left, right, p)
        print(f"independent: {'yes' if ok else 'no'}")
        if witness:
            print(f"  {witness}")
    return OK


def _idents_of(text: str) -> tuple[str, ...]:
    return tuple(dict.fromkeys(t for t in _IDENT_RE.findall(text) if t not in _KEYWORDS))


class _AtLeastZero(argparse.Action):
    """Store an ``int`` option value, refusing a negative one as a usage
    error that names the option."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            parser.error(f"argument {option_string}: must be at least 0, "
                         f"not {value}")
        setattr(namespace, self.dest, value)


_EXPR = {
    "--expr": {"required": True, "help": "expression text"},
    "--cea": {"choices": _CEA_CHOICES, "default": "tl",
              "help": "interpretation: direct conditional (tl), a "
                      "present-tense algebra, or the product space (ps)"},
    "--embedding": {"choices": _EMBEDDINGS, "default": "first",
                    "help": "product-space interpretation for series and "
                            "machine (prob is one number under all three)"},
}
_DIST = {"--dist": {"help": "distribution file (default: every event "
                            "independent with probability 1/2)"}}

# Each subcommand's function, help line and options, every option with the
# keywords that ``add_argument`` takes: the parser is built from this table
# and ``_read_argv`` reads plain command lines from it.
_OPTIONS = {
    "prob": (cmd_prob, "exact probability of an expression", {**_EXPR, **_DIST}),
    "series": (cmd_series, "CSV of time-indexed probabilities", {
        **_EXPR, **_DIST,
        "--n": {"type": int, "required": True, "help": "last time index"}}),
    "machine": (cmd_machine, "DOT export of the compiled machine", {
        **_EXPR, "--minimize": {"action": "store_true", "default": False},
        "--check-counter-free": {"action": "store_true", "default": False}}),
    "taut": (cmd_taut, "weak-tautology check over variables", {
        "--expr": {"required": True},
        "--cea": {"choices": ("sac", "gnw"), "required": True},
        "--dialect": {"choices": ("flat", "pure-conditional", "full"), "default": "full"},
        "--max-vars": {"type": int, "action": _AtLeastZero,
                       "default": cea.DEFAULT_VARIABLE_CAP}}),
    "indep": (cmd_indep, "independence of two conditionals", {
        "--mode": {"choices": ("present", "strong"), "required": True},
        "--left": {"required": True}, "--right": {"required": True}, "--dist": {},
        "--n": {"type": int, "default": None,
                "help": "fixed time for --mode present (default: the limit)"}}),
}


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand in ``_OPTIONS``."""
    top = argparse.ArgumentParser(
        prog="tlcond",
        description="three-valued temporal conditionals and their exact probabilities")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (fn, text, options) in _OPTIONS.items():
        p = sub.add_parser(name, help=text)
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
    return top


def _read_argv(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace that the top parser (``_build_parser``) gives for
    ``argv``, for a plain line: a known command, then only its own options,
    spelled out, each value the next item, neither empty nor starting with
    ``-``, and valid for its option.  None for any other line."""
    entry = _OPTIONS.get(argv[0]) if argv else None
    if entry is None:
        return None
    fn, _, options = entry
    given = {}
    items = iter(argv[1:])
    for flag in items:
        kw = options.get(flag)
        if kw is None:
            return None
        if kw.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(items, "")
        if not value or value[0] == "-":
            return None
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                return None
        if "choices" in kw and value not in kw["choices"] or (
                kw.get("action") is _AtLeastZero and value < 0):
            return None
        given[flag] = value
    if any(kw.get("required") and flag not in given for flag, kw in options.items()):
        return None
    return argparse.Namespace(command=argv[0], fn=fn, **{
        flag[2:].replace("-", "_"): given.get(flag, kw.get("default"))
        for flag, kw in options.items()})


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its
    exit code.  ``_read_argv`` reads a plain line; the top parser, built
    only then, reads any other, so help and usage errors are argparse's own."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_argv(argv) or _build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error is an input error; --help is not
        raise SystemExit(exc.code and INPUT_ERROR) from None
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that Python's
        # flush at exit does not fail again (the Python docs' "Note on
        # SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return OK
    return code


def _run(args) -> int:
    try:
        return args.fn(args)
    except PeriodicChainError as exc:
        print(f"undefined ({exc})")
        return UNDEFINED
    except (_InputError, ParseError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
