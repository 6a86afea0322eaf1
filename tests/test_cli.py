"""The command-line front end is a thin adapter over the library."""
import contextlib
import copy
import io
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlcond import (ParseError, ProbAssignment, automata, cea,
                    chain_from_machine, cli, compile_cond, markov, minimize,
                    parse_cond, pr_series, syntax)
from tlcond.cli import main
from tlcond.syntax import collect_simples

from corpus import CORPUS_TEXTS
from machines import from_text_reference

ROOT = Path(__file__).resolve().parent.parent
INDEP_HALF_AB = "events: a b\nindependent: a=1/2 b=1/2\n"
INDEP_HALF_ABCD = "events: a b c d\nindependent: a=1/2 b=1/2 c=1/2 d=1/2\n"


@pytest.fixture
def half_ab(tmp_path):
    path = tmp_path / "indep.half"
    path.write_text(INDEP_HALF_AB)
    return str(path)


@pytest.fixture
def half_abcd(tmp_path):
    path = tmp_path / "indep4.half"
    path.write_text(INDEP_HALF_ABCD)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# prob


def test_prob_ps_conjunction(capsys, half_abcd):
    code, out, _ = run(capsys, "prob", "--cea", "ps",
                       "--expr", "(a|b) and (c|d)", "--dist", half_abcd)
    assert code == 0
    assert out.strip() == "1/4 (0.250000000000)"


def test_prob_sac_conjunction(capsys, half_abcd):
    code, out, _ = run(capsys, "prob", "--cea", "sac",
                       "--expr", "(a|b) and (c|d)", "--dist", half_abcd)
    assert code == 0
    assert out.strip() == "5/12 (0.416666666667)"


def test_prob_undefined_exits_two(capsys, half_ab):
    code, out, _ = run(capsys, "prob", "--cea", "tl",
                       "--expr", "(a | false)", "--dist", half_ab)
    assert code == 2
    assert out.strip() == "undefined"


def test_prob_matches_library(capsys, half_abcd):
    from tlcond import ProbAssignment, algebra, parse_cea, prob_ps
    alg = algebra("a b c d")
    p = ProbAssignment.independent(alg, {n: Fraction(1, 2) for n in "abcd"})
    for text in ("~(a|b) or (c|d)", "~(a|b) or (c|b)"):
        direct = prob_ps(parse_cea(text, alg), p)
        for embedding in ("first", "reverse", "sparse"):
            code, out, _ = run(capsys, "prob", "--cea", "ps", "--embedding", embedding,
                               "--expr", text, "--dist", half_abcd)
            assert code == 0
            assert out.split()[0] == str(direct), (text, embedding)


def test_parse_error_exits_one(capsys, half_ab):
    argv = ("prob", "--cea", "tl", "--expr", "(a |", "--dist", half_ab)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error:" in err
    # a failing parse is not kept: the same text fails the same way again
    assert run(capsys, *argv) == (code, "", err)


def test_bad_distribution_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.dist"
    bad.write_text("events: a\natom {}: 2\natom {a}: -1\n")
    code, _, err = run(capsys, "prob", "--cea", "tl", "--expr", "(a|true)",
                       "--dist", str(bad))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("body, message", [
    # a marginal outside [0, 1] is named, above and below
    ("independent: a=3/2 b=1/2", "marginal for 'a' is 3/2, outside [0, 1]"),
    ("independent: a=1/2 b=-1/2", "marginal for 'b' is -1/2, outside [0, 1]"),
    ("independent: a=1/2", "missing marginals for: ['b']"),
    ("independent: a=1/2 b=1/2 z=1/2", "marginals for unknown events: ['z']"),
    ("atom {}: 1/2\natom {a}: 1/4\natom {b}: 0\natom {a b}: 0",
     "masses must sum to exactly 1"),
    # a negative atom mass is named with its atom
    ("atom {}: 3/2\natom {a}: -1/2\natom {b}: 0\natom {a b}: 0",
     "negative mass -1/2 for atom {a}"),
    ("atom {}: 1/2\natom {a}: 1/2\natom {b}: 1/4\natom {a b}: -2/8",
     "negative mass -1/4 for atom {a b}"),
    # a repeated marginal is not read as its last value
    ("independent: a=1/2 b=1/2 a=1/3", "marginal for 'a' listed twice"),
    # an unknown event is an input error of the file, not a KeyError
    ("atom {}: 1/2\natom {c}: 1/2", "unknown event: 'c'"),
])
def test_bad_distribution_messages(capsys, tmp_path, body, message):
    bad = tmp_path / "bad.dist"
    bad.write_text(f"events: a b\n{body}\n")
    for cea in ("ps", "tl"):
        code, out, err = run(capsys, "prob", "--cea", cea, "--expr", "(a|b)",
                             "--dist", str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: bad distribution file {bad}: {message}\n"


@pytest.mark.parametrize("body, text", [
    ("independent: a=1/0 b=1/2", "1/0"),
    ("atom {}: 1/0\natom {a}: 1/4\natom {b}: 1/4\natom {a b}: 1/4", "1/0"),
])
def test_zero_denominator_in_distribution_exits_one(capsys, tmp_path, body, text):
    bad = tmp_path / "zero.dist"
    bad.write_text(f"events: a b\n{body}\n")
    for cea in ("ps", "tl"):
        code, out, err = run(capsys, "prob", "--cea", cea, "--expr", "(a|b)",
                             "--dist", str(bad))
        assert (code, out) == (1, "")
        assert err == (f"error: bad distribution file {bad}: "
                       f"zero denominator in {text!r}\n")


def test_ps_conjunction_of_ten_with_an_independent_file(capsys, tmp_path):
    # 20 events: more than one atom table holds, one block per event
    names = [f"{s}{i}" for i in range(1, 11) for s in "ab"]
    path = tmp_path / "indep20.dist"
    path.write_text(f"events: {' '.join(names)}\nindependent: "
                    + " ".join(f"{n}=1/2" for n in names) + "\n")
    expr = " and ".join(f"(a{i}|b{i})" for i in range(1, 11))
    for embedding in ("first", "reverse", "sparse"):
        code, out, _ = run(capsys, "prob", "--cea", "ps", "--embedding", embedding,
                           "--expr", expr, "--dist", str(path))
        assert (code, out) == (0, "1/1024 (0.000976562500)\n")
    code, out, _ = run(capsys, "prob", "--cea", "ps", "--expr", expr)
    assert (code, out) == (0, "1/1024 (0.000976562500)\n")
    # a flat table over the same events is refused with the named limit
    code, _, err = run(capsys, "prob", "--cea", "sac", "--expr", expr,
                       "--dist", str(path))
    assert (code, err) == (1, "error: 20 basic events exceed the limit 16\n")


DEEP = 10_000


@pytest.mark.parametrize("argv, out", [
    (("--expr", "(" + "not " * DEEP + "a | true)"), "1/2 (0.500000000000)\n"),
    (("--expr", "(" + "not " * DEEP + "a | " + "not " * DEEP + "a)"),
     "1 (1.000000000000)\n"),
    (("--cea", "ps", "--expr", "~" * DEEP + "(a|b)"), "1/2 (0.500000000000)\n"),
    (("--cea", "ps", "--embedding", "sparse", "--expr", "~" * DEEP + "(a|b)"),
     "1/2 (0.500000000000)\n"),
], ids=["negated numerator", "equal deep sides", "ps tildes", "ps sparse tildes"])
def test_deep_input_answers(capsys, argv, out):
    assert run(capsys, "prob", *argv) == (0, out, "")


def test_deep_conditionals_without_since_answer(capsys, tmp_path):
    path = tmp_path / "a27.dist"
    path.write_text("events: a\nindependent: a=2/7\n")
    ys = "Y " * 2_000
    assert run(capsys, "prob", "--dist", str(path), "--expr", f"({ys}a | {ys}true)") \
        == (0, "2/7 (0.285714285714)\n", "")
    assert run(capsys, "prob", "--expr", "(" + "not " * DEEP + "Y a | Y true)") \
        == (0, "1/2 (0.500000000000)\n", "")
    assert run(capsys, "indep", "--mode", "present", "--left", f"({ys}a | {ys}true)",
               "--right", "(b|a)", "--n", "0") \
        == (1, "", "error: time index starts at 1\n")


@pytest.mark.parametrize("which", ["sac", "gnw", "sch"])
def test_deep_present_tense_probability(capsys, which):
    assert run(capsys, "prob", "--cea", which, "--expr", "~" * DEEP + "(a|b)") \
        == (0, "1/2 (0.500000000000)\n", "")


@pytest.mark.parametrize("which", ["sac", "gnw", "sch"])
@pytest.mark.parametrize("command", [("series", "--n", "3"), ("machine", "--minimize")],
                         ids=["series", "machine"])
def test_deep_present_tense_output_equals_the_shallow_one(capsys, command, which):
    # an even number of ~ leaves (a|b)
    got = run(capsys, *command, "--cea", which, "--expr", "~" * DEEP + "(a|b)")
    assert got[0] == 0
    assert got == run(capsys, *command, "--cea", which, "--expr", "(a|b)")


@st.composite
def deep_requests(draw):
    """``prob``, ``series --n 2`` or ``machine`` on an expression nested
    10^3 to 10^4 levels deep: a short pattern of prefix operators and open
    parentheses repeated to the depth, over ``a`` inside a tl conditional
    or over ``(a|b)`` under sac or ps.  A tl expression also gets up to
    three ``Y`` (each doubles the histories its machine keeps)."""
    kind = draw(st.sampled_from(("tl", "sac", "ps")))
    ops = ("not ", "O ", "H ", "(") if kind == "tl" else ("~", "(")
    pattern = draw(st.lists(st.sampled_from(ops), min_size=1, max_size=4))
    depth = draw(st.integers(1_000, 10_000))
    nest = (pattern * depth)[:depth]
    if kind == "tl":
        for _ in range(draw(st.integers(0, 3))):
            nest.insert(draw(st.integers(0, depth)), "Y ")
        guard = draw(st.sampled_from(("true", "b", "not Y a")))
        expr = f"({''.join(nest)}a{')' * nest.count('(')} | {guard})"
    else:
        expr = f"{''.join(nest)}(a|b){')' * nest.count('(')}"
    command = draw(st.sampled_from((("prob",), ("series", "--n", "2"), ("machine",))))
    embedding = ("--embedding", draw(st.sampled_from(("first", "reverse", "sparse"))))
    return (*command, "--cea", kind, *(embedding if kind == "ps" else ()), "--expr", expr)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(deep_requests())
def test_deep_requests_answer_or_name_a_limit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    err = err.getvalue()
    assert "recursion" not in err
    if code == 1:
        assert re.fullmatch(r"error: .* exceed the limit \d+\n", err), err
    else:
        assert code in (0, 2) and err == "" and out.getvalue()


@pytest.mark.parametrize("which", ["sac", "gnw"])
def test_deep_tautology_answers(capsys, which):
    assert run(capsys, "taut", "--cea", which, "--expr", "~" * DEEP + "(x | x)") \
        == (0, "weak-tautology: yes\n", "")


# ---------------------------------------------------------------------------
# series


@pytest.mark.parametrize("n", ["0", "-3"])
def test_series_rejects_times_before_one(capsys, half_ab, n):
    for dist in (["--dist", half_ab], []):
        code, out, err = run(capsys, "series", "--expr", "(a|b)", "--n", n, *dist)
        assert (code, out, err) == (1, "", "error: time index starts at 1\n")
    code, out, err = run(capsys, "indep", "--mode", "present", "--left", "(a|b)",
                         "--right", "(b|a)", "--n", n)
    assert (code, out, err) == (1, "", "error: time index starts at 1\n")


def test_series_constant_rows(capsys, half_ab):
    code, out, _ = run(capsys, "series", "--cea", "tl",
                       "--expr", "(true | true)", "--dist", half_ab, "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p1,p0,pbot,ratio"
    assert lines[1:] == ["1,1,0,0,1", "2,1,0,0,1", "3,1,0,0,1"]


def test_series_present_tense_over_ten_events(capsys, tmp_path):
    # the direct three-valued machine: no formula over 2^10 atoms is built
    from tlcond import ProbAssignment, parse_cea, reduce_present
    events = [f"e{i}" for i in range(10)]
    path = tmp_path / "indep10.dist"
    path.write_text(f"events: {' '.join(events)}\nindependent: "
                    + " ".join(f"{e}={2 + i % 2}/5" for i, e in enumerate(events))
                    + "\n")
    text = "(e0 or e1 | e2) and (e3|e4) and (e5|e6) and (e7 | e8 or e9)"
    code, out, _ = run(capsys, "series", "--cea", "sac", "--expr", text,
                       "--dist", str(path), "--n", "3")
    assert code == 0
    p = ProbAssignment.from_text(path.read_text())
    yes, no = reduce_present(parse_cea(text, p.alg), p.alg, "sac")
    p1, p0 = p.of_event(yes), p.of_event(no)
    pbot = p.of_event(p.alg.full_event & ~(yes | no))
    row = f"{p1},{p0},{pbot},{p1 / (p1 + p0)}"
    assert out.strip().splitlines() == [
        "n,p1,p0,pbot,ratio", f"1,{row}", f"2,{row}", f"3,{row}"]


def test_series_undefined_until_resolved_geometric(capsys, half_ab):
    # undefined exactly until the first b: ratio constant 1/2, undefined
    # mass halves every step
    code, out, _ = run(capsys, "series", "--cea", "tl",
                       "--expr", "((not b) S (a and b) | O b)",
                       "--dist", half_ab, "--n", "4")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[4] for r in rows] == ["1/2"] * 4
    assert [r[3] for r in rows] == ["1/2", "1/4", "1/8", "1/16"]


def test_series_first_interpretation_is_two_valued(capsys, half_ab):
    # the first-interpretation machine is never undefined; its ratio climbs
    # to the limit instead of sitting at it
    code, out, _ = run(capsys, "series", "--cea", "ps",
                       "--expr", "(a|b)", "--dist", half_ab, "--n", "3")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[3] for r in rows] == ["0", "0", "0"]
    assert [r[4] for r in rows] == ["1/4", "3/8", "7/16"]


def test_series_undefined_ratio_prints_undef(capsys, half_ab):
    code, out, _ = run(capsys, "series", "--cea", "tl",
                       "--expr", "(a | false)", "--dist", half_ab, "--n", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[4] for r in rows] == ["undef", "undef"]


def test_series_matches_oracle(capsys, half_ab):
    from corpus import ALG_AB, UNIFORM_AB
    from tlcond import brute_pr_series, parse_cond
    expr = "(a S b | O a)"
    code, out, _ = run(capsys, "series", "--cea", "tl",
                       "--expr", expr, "--dist", half_ab, "--n", "8")
    assert code == 0
    series = brute_pr_series(parse_cond(expr, ALG_AB), UNIFORM_AB, 8)
    for line, (p1, p0, pbot) in zip(out.strip().splitlines()[1:], series):
        cells = line.split(",")
        assert (str(p1), str(p0), str(pbot)) == (cells[1], cells[2], cells[3])


# marginals over prime, composite and unit denominators, unreduced ones too
SERIES_MARGINALS = ("0", "1", "3/3", "1/2", "2/4", "1/3", "2/5", "5/7",
                    "1/6", "3/4", "6/9", "5/12")


@st.composite
def series_distributions(draw):
    """The text of a distribution over ``a b``: an ``independent:`` line, or
    an atom table with zero atoms allowed and unreduced masses."""
    if draw(st.booleans()):
        a, b = (draw(st.sampled_from(SERIES_MARGINALS)) for _ in "ab")
        return f"events: a b\nindependent: a={a} b={b}\n"
    raw = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4))
    raw[draw(st.integers(0, 3))] += 1
    total = sum(raw) * draw(st.integers(1, 3))
    atoms = ("{}", "{a}", "{b}", "{a b}")
    return "events: a b\n" + "".join(
        f"atom {atom}: {w * (total // sum(raw))}/{total}\n" for atom, w in zip(atoms, raw))


def reference_series_csv(text: str, dist_text: str, n: int) -> str:
    """The ``series`` CSV written from ``pr_series``'s ``Fraction`` cells."""
    p = ProbAssignment.from_text(dist_text)
    ch = chain_from_machine(minimize(compile_cond(parse_cond(text, p.alg), p.alg)), p)
    rows = ["n,p1,p0,pbot,ratio\n"]
    for t, (p1, p0, pbot) in enumerate(pr_series(ch, n), 1):
        ratio = p1 / (p1 + p0) if p1 + p0 else "undef"
        rows.append(f"{t},{p1},{p0},{pbot},{ratio}\n")
    return "".join(rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(CORPUS_TEXTS), series_distributions(), st.integers(1, 40))
def test_series_csv_equals_the_fraction_reference(text, dist_text, n):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ab.dist"
        path.write_text(dist_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["series", "--expr", text, "--dist", str(path), "--n", str(n)])
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == reference_series_csv(text, dist_text, n)


@st.composite
def tables_with_zero_atoms(draw):
    """An atom table over ``a b`` with one to three atoms of mass 0."""
    raw = draw(st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any))
    raw.insert(draw(st.integers(0, 3)), 0)
    atoms = ("{}", "{a}", "{b}", "{a b}")
    return "events: a b\n" + "".join(
        f"atom {atom}: {w}/{sum(raw)}\n" for atom, w in zip(atoms, raw))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(CORPUS_TEXTS), tables_with_zero_atoms(), st.integers(1, 60))
# a always holds, so the den's alternation fails at time 2: a defined row,
# then undef rows
@example(CORPUS_TEXTS[-1], "events: a b\natom {}: 0/3\natom {a}: 1/3\n"
         "atom {b}: 0/3\natom {a b}: 2/3\n", 4)
def test_series_ratio_column_is_the_ratio_of_the_label_weights(text, dist_text, n):
    """Row by row, the ratio is ``str(Fraction(w1, w1 + w0))`` of the
    chain's label weights, or undef when ``w1 + w0`` is 0, whether a row
    takes the last row's text or reduces its own."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ab.dist"
        path.write_text(dist_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["series", "--expr", text, "--dist", str(path), "--n", str(n)])
    assert (code, err.getvalue()) == (0, "")
    p = ProbAssignment.from_text(dist_text)
    ch = chain_from_machine(minimize(compile_cond(parse_cond(text, p.alg), p.alg)), p)
    want = [str(Fraction(w1, w1 + w0)) if w1 + w0 else "undef"
            for _, w1, w0, _ in markov.label_weights(ch, n)]
    assert [line.rsplit(",", 1)[1] for line in out.getvalue().splitlines()[1:]] == want


@pytest.mark.parametrize("marginals, expr, n, last", [
    # den = 1: every cell a whole number, never over 1
    ("a=1 b=0", "(O a | true)", 2, "2,1,0,0,1"),
    # composite den (6, then 24): cells coprime to it, zero cells and cells
    # that share a factor with it
    ("a=1/6 b=3/4", "(Y a | Y true)", 3, "3,1/6,5/6,0,1/6"),
    ("a=1/6 b=3/4", "(a S b | O a)", 3, "3,803/2304,503/6912,125/216,2409/2912"),
])
def test_series_pinned_rows(capsys, tmp_path, marginals, expr, n, last):
    path = tmp_path / "ab.dist"
    path.write_text(f"events: a b\nindependent: {marginals}\n")
    code, out, err = run(capsys, "series", "--expr", expr, "--dist", str(path),
                         "--n", str(n))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == last
    assert out == reference_series_csv(expr, path.read_text(), n)


# den = 1, and a table with a zero atom over den = 6, whose scale reaches 1
# when a row is certain
EDGE_DISTS = {"den1": "events: a b\nindependent: a=0 b=1\n",
              "zero-atom": "events: a b\natom {}: 0\natom {a}: 1/3\n"
                           "atom {b}: 1/6\natom {a b}: 1/2\n"}


@pytest.mark.parametrize("dist, kind, expr, n, want", [
    ("den1", "tl", "(a S b | O a)", 4, "1,0,0,1,undef|2,0,0,1,undef|3,0,0,1,undef|"
     "4,0,0,1,undef"),
    ("den1", "tl", "(a or b | true)", 3, "1,1,0,0,1|2,1,0,0,1|3,1,0,0,1"),
    ("den1", "tl", "(Y a | Y true)", 3, "1,0,0,1,undef|2,0,1,0,0|3,0,1,0,0"),
    ("den1", "ps", "(a|b) and ~(b|a)", 3, "1,0,1,0,0|2,0,1,0,0|3,0,1,0,0"),
    ("den1", "sac", "(a|b) or (b|a)", 2, "1,0,1,0,0|2,0,1,0,0"),
    ("zero-atom", "tl", "(a S b | O a)", 4, "1,1/2,1/3,1/6,3/5|2,31/36,1/9,1/36,31/35|"
     "3,23/24,1/27,1/216,207/215|4,1279/1296,1/81,1/1296,1279/1295"),
    ("zero-atom", "tl", "(a or b | true)", 3, "1,1,0,0,1|2,1,0,0,1|3,1,0,0,1"),
    ("zero-atom", "tl", "(Y a | Y true)", 3, "1,0,0,1,undef|2,5/6,1/6,0,5/6|"
     "3,5/6,1/6,0,5/6"),
    ("zero-atom", "ps", "(a|b) and ~(b|a)", 3, "1,0,1,0,0|2,1/6,5/6,0,1/6|3,2/9,7/9,0,2/9"),
    ("zero-atom", "sac", "(a|b) or (b|a)", 2, "1,1/2,1/2,0,1/2|2,1/2,1/2,0,1/2"),
])
def test_series_pinned_edge_texts(capsys, tmp_path, dist, kind, expr, n, want):
    """Zero cells, whole cells and a scale that reaches 1 print as
    ``str(Fraction)`` does, under the temporal, ps and present-tense paths."""
    path = tmp_path / "ab.dist"
    path.write_text(EDGE_DISTS[dist])
    code, out, err = run(capsys, "series", "--cea", kind, "--expr", expr,
                         "--dist", str(path), "--n", str(n))
    assert (code, err) == (0, "")
    assert out == "n,p1,p0,pbot,ratio\n" + want.replace("|", "\n") + "\n"


def test_series_into_a_closed_pipe_ends_quietly():
    """A reader that closes stdout early, as ``head`` does, ends the command
    with exit code 0, no traceback and nothing at interpreter exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tlcond.cli", "series", "--expr", "(a|b)",
         "--n", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    assert proc.stdout.readline() == b"n,p1,p0,pbot,ratio\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in err
    assert err == b""


# ---------------------------------------------------------------------------
# machine


def test_machine_first_resolution_dot(capsys):
    code, out, _ = run(capsys, "machine", "--cea", "ps", "--expr", "(a|b)",
                       "--minimize")
    assert code == 0
    assert out.count("shape=circle") == 3
    assert "__start ->" in out


def test_machine_conjunction_dot_five_nodes(capsys):
    code, out, _ = run(capsys, "machine", "--cea", "ps",
                       "--expr", "(a|b) and (c|d)", "--minimize")
    assert code == 0
    assert out.count("shape=circle") == 5


def test_event_free_expression_and_default_distribution(capsys):
    code, out, _ = run(capsys, "prob", "--cea", "tl", "--expr", "(true | true)")
    assert code == 0
    assert out.strip() == "1 (1.000000000000)"
    code, out, _ = run(capsys, "machine", "--cea", "tl", "--expr", "(true | true)")
    assert code == 0
    assert out.count("shape=circle") >= 1


def test_machine_present_tense_selector(capsys):
    # a present-tense algebra machine: three letter-driven states
    code, out, _ = run(capsys, "machine", "--cea", "sch",
                       "--expr", "(a|b) and (c|d)", "--minimize")
    assert code == 0
    assert out.count("shape=circle") == 3


def test_machine_counter_free_flag(capsys):
    code, out, err = run(capsys, "machine", "--cea", "tl",
                         "--expr", "(a S b | O a)", "--minimize",
                         "--check-counter-free")
    assert code == 0
    assert "counter-free: yes" in err


def test_machine_present_tense_over_ten_events(capsys):
    # to_dot covers each merged edge's atom set by prime implicants; found
    # by looking up one-literal neighbours, 2^10 atoms take about a second
    text = "(e0 or e1 | e2) and (e3|e4) and (e5|e6) and (e7 | e8 or e9)"
    start = time.perf_counter()
    code, out, _ = run(capsys, "machine", "--cea", "sac", "--minimize",
                       "--expr", text)
    assert time.perf_counter() - start < 10
    assert code == 0
    assert out.count("shape=circle") == 3


def test_expression_events_use_the_grammar_of_the_algebra(monkeypatch):
    def refuse(*args):
        raise AssertionError("a ps expression was parsed as a conditional")

    monkeypatch.setattr(cli, "parse_cond", refuse)
    e, events = cli._parse_own("ps", "(a|b) and (c|d)")
    assert events == ("a", "b", "c", "d")
    assert len(collect_simples(e)) == 2
    # what does not parse in the algebra's dialect is an input error
    with pytest.raises(ParseError):
        cli._parse_own("sch", "(b|a) and ((c|d)|a)")


_ONE_PARSE_EACH = [
    ("prob", "--cea", "ps", "--expr", "(a|b) and (c|d)"),
    ("prob", "--cea", "tl", "--expr", "(a S b | O a)"),
    ("series", "--cea", "sac", "--expr", "(a|b) or (c|d)", "--n", "3"),
    ("indep", "--mode", "strong", "--left", "(a|b)", "--right", "(c|d)"),
]


@pytest.mark.parametrize("argv", _ONE_PARSE_EACH
                         + [argv + ("--dist", None) for argv in _ONE_PARSE_EACH]
                         + [("machine", "--cea", "ps", "--expr", "(a|b)",
                             "--minimize")])
def test_each_expression_is_parsed_once(capsys, monkeypatch, half_abcd, argv):
    calls = []
    for name in ("parse_cond", "parse_cea"):
        original = getattr(cli, name)

        def counted(*args, original=original, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    argv = tuple(half_abcd if x is None else x for x in argv)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == len(set(calls)) == (2 if argv[0] == "indep" else 1)


def test_unknown_identifier_against_the_distribution(capsys, half_ab):
    code, _, err = run(capsys, "prob", "--cea", "ps", "--expr", "(a|c)",
                       "--dist", half_ab)
    assert code == 1
    assert err.startswith("error: ") and "unknown identifier 'c'" in err


def test_a_kept_parse_is_keyed_on_the_events(capsys, tmp_path, half_ab):
    """(a|c) fails over a b, holds over a b c, and fails over a b again."""
    abc = tmp_path / "abc.dist"
    abc.write_text("events: a b c\nindependent: a=1/2 b=1/2 c=1/2\n")
    failed = run(capsys, "prob", "--cea", "ps", "--expr", "(a|c)", "--dist", half_ab)
    assert failed[0] == 1 and "unknown identifier 'c'" in failed[2]
    assert run(capsys, "prob", "--cea", "ps", "--expr", "(a|c)",
               "--dist", str(abc)) == (0, "1/2 (0.500000000000)\n", "")
    assert run(capsys, "prob", "--cea", "ps", "--expr", "(a|c)",
               "--dist", half_ab) == failed


def test_answers_follow_a_rewritten_distribution_file(capsys, tmp_path):
    """A distribution is kept by its file's text, not its path: the same
    path, rewritten with other marginals, gives the new file's answers
    although the expression's parse and machine are kept."""
    path = tmp_path / "ab.dist"
    argvs = [("prob", "--expr", "(a S b | O b)", "--dist", str(path)),
             ("series", "--expr", "(a S b | O b)", "--n", "3", "--dist", str(path))]
    want = {"a=1/2 b=1/2": ["2/3 (0.666666666667)\n",
                            "n,p1,p0,pbot,ratio\n1,1/2,0,1/2,1\n2,5/8,1/8,1/4,5/6\n"
                            "3,21/32,7/32,1/8,3/4\n"],
            "a=2/5 b=1/3": ["5/11 (0.454545454545)\n",
                            "n,p1,p0,pbot,ratio\n1,1/3,0,2/3,1\n2,19/45,2/15,4/9,19/25\n"
                            "3,301/675,58/225,8/27,301/475\n"]}
    for marginals, outs in want.items():
        path.write_text(f"events: a b\nindependent: {marginals}\n")
        assert [run(capsys, *argv) for argv in argvs] == [(0, out, "") for out in outs]
    assert cli._parse_expr.cache_info().hits == 3
    assert automata.minimal_machine.cache_info().hits == 3
    assert cli._read_dist.cache_info()[:2] == (2, 2)  # hits, misses


def test_one_text_under_two_paths_is_one_distribution(capsys, tmp_path):
    paths = [tmp_path / name for name in ("one.dist", "two.dist")]
    for path in paths:
        path.write_text("events: a b\nindependent: a=2/5 b=1/3\n")
    outs = {run(capsys, "prob", "--expr", "(a S b | O b)", "--dist", str(path))
            for path in paths}
    assert outs == {(0, "5/11 (0.454545454545)\n", "")}
    assert cli._read_dist.cache_info()[:2] == (1, 1)
    assert cli._load_dist(str(paths[0])) is cli._load_dist(str(paths[1]))


def test_a_malformed_file_fails_on_every_request_under_its_own_path(capsys, tmp_path):
    paths = [tmp_path / name for name in ("one.dist", "two.dist")]
    for path in paths:
        path.write_text("events: a b\nindependent: a=3/2 b=1/3\n")
    for path in paths + paths:
        assert run(capsys, "prob", "--expr", "(a|b)", "--dist", str(path)) == (
            1, "", f"error: bad distribution file {path}: "
                   "marginal for 'a' is 3/2, outside [0, 1]\n")
    assert cli._read_dist.cache_info()[:2] == (0, 4)


@pytest.mark.parametrize("text", [
    "events: a b c\nindependent: a=0 b=1 c=2/6\n",
    "events: b a\r\n# marginals\r\nindependent: a=0.4 b=04/10\r\n",
    "events: a b\natom {}: 1/4\natom {a}: 0\natom {b}: 1/3\natom {a b}: 5/12\n",
    "events: a b\ratom {b a}: 1\ratom {a}: 0/7\ratom {b}: 0\ratom {}: 0\r",
])
def test_a_kept_distribution_equals_the_fraction_reference(capsys, tmp_path, text):
    """The distribution kept after two requests is the one the Fraction
    reader gives: its algebra, its blocks' weights and its flat table."""
    path = tmp_path / "kept.dist"
    path.write_bytes(text.encode())
    for _ in range(2):
        assert run(capsys, "prob", "--expr", "(a|b)", "--dist", str(path))[0] in (0, 2)
    kept, want = cli._read_dist(text), from_text_reference(text)
    assert cli._read_dist.cache_info()[:2] == (2, 1)
    assert kept.alg.events == want.alg.events
    assert ([(b.events, b.den, b.weights) for b in kept.blocks]
            == [(b.events, b.den, b.weights) for b in want.blocks])
    assert kept.weights == want.weights


def test_a_traced_from_text_spans_every_miss(capsys, monkeypatch, tmp_path):
    """The memo reads ``ProbAssignment.from_text`` through the class when it
    misses, so a wrapper bound there, as the benchmark's tracer binds one,
    sees every text read for the first time and no other."""
    calls = []
    original = ProbAssignment.from_text

    def traced(text):
        calls.append(text)
        return original(text)
    monkeypatch.setattr(ProbAssignment, "from_text", staticmethod(traced))
    texts = ["events: a b\nindependent: a=1/2 b=1/3\n",
             "events: a b\nindependent: a=1/3 b=1/2\n"]
    path = tmp_path / "ab.dist"
    for text in texts + texts:
        path.write_text(text)
        assert run(capsys, "prob", "--expr", "(a|b)", "--dist", str(path))[0] == 0
    assert calls == texts


@pytest.mark.parametrize("text", [t for t in CORPUS_TEXTS if "a" in t and "b" in t])
def test_a_kept_machine_is_not_changed_by_its_users(capsys, text):
    """series, machine --minimize --check-counter-free and strong_indep read
    the one kept machine and leave it as it was."""
    alg = syntax.algebra("a b")
    c = parse_cond(text, alg)
    kept = automata.minimal_machine(c, alg)
    before = copy.deepcopy(kept)
    assert run(capsys, "series", "--expr", text, "--n", "3")[0] == 0
    assert run(capsys, "machine", "--expr", text, "--minimize",
               "--check-counter-free")[0] == 0
    cea.strong_indep(c, c, cli._half(alg.events))
    assert automata.minimal_machine.cache_info().hits == 4
    assert automata.minimal_machine(c, alg) is kept
    assert kept == before


# Argument lists for which ``main``, which reads a plain command line from
# the option table itself, must end as the top parser alone would.
ARGV_CORPUS = [
    [], ["-h"], ["--help"], ["prob", "-h"], ["series", "--help"],
    ["prob", "--expr", "(a|b)"], ["prob", "--exp", "(a|b)"],
    ["prob", "--expr=(a|b)", "--cea=ps"], ["prob", "--expr", "-h"],
    # "--" before and after the command's options, and before the command
    ["prob", "--", "--expr", "(a|b)"], ["prob", "--expr", "(a|b)", "--"],
    ["--", "prob", "--expr", "(a|b)"],
    # left-over positionals and unknown options
    ["prob", "--expr", "(a|b)", "extra"], ["prob", "--expr", "(a|b)", "--bogus"],
    ["prob", "--bogus", "--expr", "(a|b)"], ["prob", "--expr"],
    ["frob", "--expr", "(a|b)"], ["PROB", "--expr", "(a|b)"], ["-x", "prob"],
    # each subcommand without a required option, and with a value outside
    # an option's choices
    ["prob"], ["prob", "--expr", "(a|b)", "--cea", "tl2"],
    ["series", "--expr", "(a|b)"],
    ["series", "--expr", "(a|b)", "--n", "1", "--embedding", "last"],
    ["machine"], ["machine", "--expr", "(a|b)", "--cea", "TL"],
    ["taut", "--expr", "(p|p)"], ["taut", "--expr", "(p|p)", "--cea", "tl"],
    ["taut", "--expr", "(p|p)", "--cea", "sac", "--dialect", "flat2"],
    ["indep", "--left", "(a|b)", "--right", "(c|d)"],
    ["indep", "--mode", "weak", "--left", "(a|b)", "--right", "(c|d)"],
    # bad and negative numbers, and repeated options
    ["series", "--expr", "(a|b)", "--n", "x"], ["series", "--expr", "(a|b)", "--n", "-1"],
    ["indep", "--mode", "present", "--left", "(a|true)", "--right", "(b|true)",
     "--n", "x"],
    ["taut", "--cea", "sac", "--expr", "(p|p)", "--max-vars", "-1"],
    ["prob", "--expr", "(a|b)", "--expr", "(a|true)"],
    ["machine", "--expr", "(a|b)", "--minimize", "--minimize"],
    # one request of each command
    ["series", "--expr", "(a|b)", "--n", "2"],
    ["machine", "--expr", "(a|b)", "--check-counter-free"],
    ["taut", "--cea", "gnw", "--expr", "p and q"],
    ["indep", "--mode", "strong", "--left", "(a|b)", "--right", "(c|d)"],
    # values and options at the edge of what the option table reads itself
    ["prob", "--expr", ""], ["prob", "--expr", "-"],
    ["series", "--expr", "(a|b)", "--n", " 2"], ["series", "--expr", "(a|b)", "--n", "2_0"],
    ["series", "--expr", "(a|b)", "--n", " -1"],
    ["taut", "--cea", "sac", "--expr", "(p|p)", "--max-vars", " -1"],
    ["taut", "--cea", "sac", "--expr", "(p|p)", "--max-vars", "0"],
    ["prob", "--expr", "(a|b)", "--minimize"], ["machine", "--expr", "(a|b)", "--dist", "x"],
    ["indep", "--mode", "present", "--left", "(a|true)", "--right", "(b|true)",
     "--n", "2"],
    ["prob", "--expr", "(a|b)", "--dist"],
    # more digits than int() converts
    ["series", "--expr", "(a|b)", "--n", "9" * 5000],
]


@pytest.mark.parametrize("argv", ARGV_CORPUS)
def test_direct_dispatch_ends_as_the_top_parser(capsys, monkeypatch, argv):
    """Exit code, stdout, stderr and the namespace run are the same as when
    the top parser reads the whole argument list, on the running
    interpreter's argparse."""
    namespaces = []
    run_args = cli._run
    monkeypatch.setattr(cli, "_run",
                        lambda args: namespaces.append(vars(args)) or run_args(args))

    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = f"exit {exc.code}"
        return (code, *capsys.readouterr())

    direct = outcome()
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert outcome() == direct
    assert len(namespaces) in (0, 2) and namespaces[:1] == namespaces[1:]


_OPTION_NAMES = sorted({flag for _, _, options in cli._OPTIONS.values()
                        for flag in options})
_ARGV_TOKENS = (
    *cli._OPTIONS, *_OPTION_NAMES,
    # abbreviations, unique in some commands and ambiguous in others
    "--exp", "--ce", "--emb", "--di", "--dia", "--m", "--mi", "--ma", "--mo",
    "--check", "--l", "--ri", "--n=2", "--expr=(a|b)", "--cea=sac", "--dist=x",
    "--max-vars=0", "--mode=strong", "--minimize=1", "-h", "--help", "--",
    # values: plain, empty, dash-led, space-led, ints with "_" or non-ASCII
    # digits, inside and outside the options' choices
    "(a|b)", "(a S b | O b)", "p and q", "x", "", "-", "-1", "-x", " 2", " -1",
    "2_0", "\u0663", "1\u0662", "0", "1", "2", "007",
    *cli._CEA_CHOICES, *cli._EMBEDDINGS, "TL", "flat", "full", "pure-conditional",
    "present", "strong", "weak",
)


def _value_for(kw):
    """Mostly a value that the option takes, else any token."""
    good = kw.get("choices") or (("0", "1", "2", "007", "\u0663") if "type" in kw
                                 else ("(a|b)", "(a S b | O b)", "p and q", "x"))
    return st.one_of(st.sampled_from(good), st.sampled_from(good),
                     st.sampled_from(_ARGV_TOKENS))


@st.composite
def command_lines(draw):
    """A command, its required options, then mostly its own options with
    values, among other tokens."""
    command = draw(st.sampled_from((*cli._OPTIONS, *cli._OPTIONS, "PROB", "-h", "--")))
    own = cli._OPTIONS.get(command, (None, None, cli._OPTIONS["prob"][2]))[2]
    argv = [command]
    for flag, kw in own.items():
        if kw.get("required") and draw(st.integers(0, 9)):
            argv += [flag, draw(_value_for(kw))]
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.sampled_from(("own", "own", "own", "option", "token")))
        if shape == "token":
            argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_ARGV_TOKENS)))
            continue
        flag = draw(st.sampled_from(list(own) if shape == "own" else _OPTION_NAMES))
        kw = own.get(flag, {})
        argv += [flag] if kw.get("action") else [flag, draw(_value_for(kw))]
    return argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(command_lines())
def test_a_line_the_table_reads_is_read_as_the_top_parser_reads_it(argv):
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == vars(cli._build_parser().parse_args(argv))


def _readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()]


def test_well_formed_lines_never_reach_argparse(capsys, monkeypatch, tmp_path):
    (tmp_path / "indep.half").write_text(INDEP_HALF_AB)
    (tmp_path / "indep4.half").write_text(INDEP_HALF_ABCD)
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a well-formed command line")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    readme = _readme_commands()
    assert len(readme) == 6
    shapes = [
        ["prob", "--cea", "ps", "--expr", "(a|b) and (c|d)", "--dist", "indep4.half"],
        ["series", "--expr", "(a S b | O b)", "--dist", "indep.half", "--n", "3"],
        ["prob", "--cea", "ps", "--embedding", "sparse", "--expr", "~(a|b) or (c|d)"],
        ["machine", "--cea", "ps", "--expr", "(a|b)", "--minimize",
         "--check-counter-free"],
        ["indep", "--mode", "present", "--left", "(a|b)", "--right", "(b|a)", "--n", "1"],
        ["taut", "--cea", "sac", "--expr", "(p|p)", "--max-vars", "0"],
    ]
    codes = [run(capsys, *argv)[0] for argv in readme + shapes]
    assert codes == [0] * 11 + [1]


def test_every_benchmark_line_is_read_from_the_table(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads
    for workload in workloads.WORKLOADS:
        for request in workloads.generate(workload, 1):
            assert cli._read_argv(list(request.argv)) is not None, request.argv


def test_argument_parser_is_built_once(capsys, monkeypatch):
    """A line the table reads builds no argument parser; a line argparse
    reads builds one."""
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    code, out, _ = run(capsys, "prob", "--cea", "tl", "--expr", "(a|true)")
    assert code == 0
    assert out.strip() == "1/2 (0.500000000000)"
    assert built == []
    with pytest.raises(SystemExit) as exc:
        main(["prob"])
    assert exc.value.code == 1
    assert built == [1]


def test_machine_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "machine", "--cea", "tl", "--expr", "(a|b)")
    _, out2, _ = run(capsys, "machine", "--cea", "tl", "--expr", "(a|b)")
    assert out1 == out2


# ---------------------------------------------------------------------------
# taut / indep


def test_taut_self_conditional(capsys):
    code, out, _ = run(capsys, "taut", "--cea", "sac", "--expr", "(p|p)")
    assert code == 0
    assert out.strip() == "weak-tautology: yes"


def test_taut_counterexample_is_printed(capsys):
    code, out, _ = run(capsys, "taut", "--cea", "gnw", "--expr", "p and q",
                       "--dialect", "flat")
    assert code == 0
    assert out.startswith("weak-tautology: no")
    assert "p=" in out


def test_taut_rejects_a_negative_variable_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["taut", "--cea", "sac", "--expr", "(p|p)", "--max-vars", "-1"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert err.endswith("error: argument --max-vars: must be at least 0, not -1\n")
    # a cap of 0 parses, and the check then names it
    assert run(capsys, "taut", "--cea", "sac", "--expr", "(p|p)", "--max-vars", "0") \
        == (1, "", "error: 1 variables exceed the cap 0\n")


@pytest.mark.parametrize("which, dialect, expr, out, walks", [
    ("gnw", "flat", "p and ~q", "weak-tautology: no (p=0 q=0)\n", 0),
    ("sac", "pure-conditional", "((p|q) | r)", "weak-tautology: no (p=0 q=1 r=1)\n", 1),
])
def test_taut_checks_the_dialect_only_in_the_parse(capsys, monkeypatch, which,
                                                  dialect, expr, out, walks):
    calls = []
    walk = syntax.walk
    monkeypatch.setattr(syntax, "walk", lambda e: calls.append(e) or walk(e))
    assert run(capsys, "taut", "--cea", which, "--dialect", dialect,
               "--expr", expr) == (0, out, "")
    assert len(calls) == walks


_NOT_INDEPENDENT_AB = ("independent: no\n  fails i1: lhs=1 rhs=1/4\n"
                       "  fails i2: lhs=1/2 rhs=1/4\n  fails i3: lhs=1/2 rhs=1/4\n")


@pytest.mark.parametrize("fixed", [(), ("--n", "1")])
def test_indep_present_prints_each_failing_equation(capsys, fixed):
    assert run(capsys, "indep", "--mode", "present", "--left", "(a|b)",
               "--right", "(b|a)", *fixed) == (0, _NOT_INDEPENDENT_AB, "")


def test_indep_present_fails_in_the_limit_of_a_since_conditional(capsys, tmp_path):
    dist = tmp_path / "ab.dist"
    dist.write_text("events: a b\nindependent: a=2/5 b=1/3\n")
    assert run(capsys, "indep", "--mode", "present", "--left", "(a S b | O b)",
               "--right", "(b | true)", "--dist", str(dist)) \
        == (0, "independent: no\n  fails i1: lhs=1/3 rhs=5/33\n", "")


def test_indep_strong_disjoint(capsys, half_abcd):
    code, out, _ = run(capsys, "indep", "--mode", "strong",
                       "--left", "(a|b)", "--right", "(c|d)",
                       "--dist", half_abcd)
    assert code == 0
    assert out.strip() == "independent: yes"


def test_indep_strong_rejects_a_fixed_time(capsys):
    code, out, err = run(capsys, "indep", "--mode", "strong",
                         "--left", "(a|true)", "--right", "(Y a|Y true)",
                         "--n", "3")
    assert code == 1
    assert out == ""
    assert err == "error: --n applies to --mode present only\n"


def test_indep_present_vs_strong_for_shifted_copy(capsys):
    code, out, _ = run(capsys, "indep", "--mode", "present",
                       "--left", "(a|true)", "--right", "(Y a|Y true)",
                       "--n", "3")
    assert code == 0
    assert out.splitlines()[0] == "independent: yes"
    code, out, _ = run(capsys, "indep", "--mode", "strong",
                       "--left", "(a|true)", "--right", "(Y a|Y true)")
    assert code == 0
    assert out.splitlines()[0] == "independent: no"
