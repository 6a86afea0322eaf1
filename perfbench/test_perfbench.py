"""Tests of the benchmark itself: seeded generation, references, the tail
percentile, host-speed scaling and span self time.  Run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import re
import signal
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import hostspeed, run, semantics as sem, workloads  # noqa: E402
from perfbench.check import Checker  # noqa: E402
from perfbench.trace import LAYER_METRICS, Tracer  # noqa: E402


def _rung(req) -> tuple:
    """What a request costs, without what the seed chooses: subcommand,
    options, horizon, number of conditionals (of variable occurrences for
    taut) and of events."""
    argv = list(req.argv)
    texts = [argv[i + 1] for i, a in enumerate(argv) if a in ("--expr", "--left", "--right")]
    options = tuple(a for i, a in enumerate(argv)
                    if not (i and argv[i - 1] in ("--expr", "--left", "--right")))
    if argv[0] == "taut":
        sizes = tuple(len(re.findall(r"\b[pqr]\b", t)) for t in texts)
    else:
        sizes = tuple(t.count("|") for t in texts)
    events = req.dist.split("\n", 1)[0] if req.dist else ""
    return options, sizes, len(events.split()), req.known_defect


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests_and_files(workload, tmp_path):
    a, b = workloads.generate(workload, 7), workloads.generate(workload, 7)
    assert workloads.dump(a) == workloads.dump(b)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    run.write_dists(a, tmp_path / "a")
    run.write_dists(b, tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_inputs_not_rungs(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert workloads.dump(a) != workloads.dump(b)
    assert [_rung(r) for r in a] == [_rung(r) for r in b]


@pytest.mark.parametrize("workload", ["ps-first", "ps-embed", "markov-long"])
def test_no_expression_repeats_outside_mixed_small(workload):
    texts = [r.argv[r.argv.index("--expr") + 1] for r in workloads.generate(workload, 3)]
    assert len(set(texts)) == len(texts)


def test_mixed_small_repeats_each_expression_three_times():
    reqs = workloads.generate("mixed-small", 3)
    assert 180 <= len(reqs) <= 220
    keys = [tuple(a for a in r.argv if not a.endswith(".dist") and a != "{dist}")
            for r in reqs]
    assert all(keys[i] == keys[i + 1] == keys[i + 2] for i in range(0, len(keys), 3))
    assert {r.argv[0] for r in reqs} == {"prob", "series", "machine", "taut", "indep"}
    ceas = {r.argv[r.argv.index("--cea") + 1] for r in reqs if "--cea" in r.argv}
    assert ceas == {"tl", "sac", "gnw", "sch", "ps"}
    assert sum(bool(r.known_defect) for r in reqs) == 3


def test_ps_closed_form():
    half = Fraction(1, 2)
    leaf = [("simple", ("ev", f"a{i}"), ("ev", f"b{i}")) for i in (1, 2)]
    marg = {"a1": half, "b1": half, "a2": Fraction(1, 5), "b2": Fraction(3, 5)}
    assert sem.ps_closed_form(("cand", *leaf), marg) == Fraction(1, 10)
    assert sem.ps_closed_form(("cor", *leaf), marg) == Fraction(3, 5)
    assert sem.ps_closed_form(("cneg", leaf[1]), marg) == Fraction(4, 5)


def test_three_valued_connectives():
    u = sem.U
    leaf = {"x": 0, "y": u, "z": 1}
    cases = {("sac", "cand", "x", "y"): 0, ("sac", "cor", "z", "y"): 1,
             ("gnw", "cand", "z", "y"): u, ("gnw", "cor", "x", "y"): u,
             ("sch", "cand", "x", "y"): u, ("sac", "ccond", "z", "y"): 1,
             ("gnw", "ccond", "z", "y"): u, ("gnw", "ccond", "x", "y"): 0}
    for (algebra, op, l, r), want in cases.items():
        tree = (op, ("var", l), ("var", r))
        assert sem.value3(tree, algebra, lambda v: leaf[v[1]]) == want


def test_tail_has_ten_values_beyond_it():
    values = [float(i) for i in range(38)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 28 / 38)
    with pytest.raises(ValueError):
        run.tail(values[:10])


def test_host_speed_drops_probes_inside_and_scales_by_nearby_ones():
    speed = hostspeed.HostSpeed()
    speed.starts = [0.0, 1.0, 1.5, 3.0]
    speed.durations = [0.0002, 0.0008, 0.0008, 0.0002]
    # Both probes near 1.0..2.0 ran inside it, at half the reference speed.
    assert speed.scaled(1.0, 2.0) == pytest.approx(
        (1.0 - 0.0016) * hostspeed.REFERENCE_S / 0.0008)
    # No probe within the window: the nearest ones on either side count.
    assert speed.scaled(2.4, 2.5) == pytest.approx(
        0.1 * hostspeed.REFERENCE_S / 0.0005)


def test_host_speed_probes_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        end = perf_counter() + 4 * hostspeed.INTERVAL_S
        while perf_counter() < end:
            pass
    assert len(speed.durations) > 2 * hostspeed.SETTLE + 1
    assert speed.starts == sorted(speed.starts)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_subtracts_children():
    t = Tracer()
    # name, start, end, end including measurement, parent, request, raised
    t.spans = [("cli.main", 0.0, 10.0, 10.0, -1, "r", False),
               ("automata.compile_cond", 1.0, 4.0, 5.0, 0, "r", False),
               ("automata.minimize", 6.0, 7.0, 7.0, 0, "r", True)]
    m = t.layer_metrics(requests=1)
    assert m["cli.main.self_s"] == pytest.approx(5.0)
    assert m["automata.compile_cond.self_s"] == pytest.approx(3.0)
    assert m["automata.minimize.errors"] == 1
    assert set(m) == {name for name, _ in LAYER_METRICS} - {"trace.overhead_ratio"}


def test_checker_accepts_answers_and_rejects_a_changed_digit(tmp_path):
    reqs = [r for r in workloads.generate("mixed-small", 5)
            if not r.known_defect][::9]
    argvs = run.write_dists(reqs, tmp_path)
    _, results = run.run_pass(reqs, argvs)
    checker = Checker(sys.modules["tlcond"])
    for req, (_, rc, out, err) in zip(reqs, results):
        assert checker.check(req, rc, out, err) is None, req.rid
    req, (_, rc, out, err) = next((q, r) for q, r in zip(reqs, results)
                                  if q.argv[0] == "prob" and r[1] == 0)
    changed = re.sub(r"\d\)", lambda m: f"{(int(m.group()[0]) + 1) % 10})", out)
    assert checker.check(req, rc, changed, err) is not None
    assert checker.check(req, 1, out, err) is not None


def test_traced_pass_gives_the_untraced_answers(tmp_path):
    reqs = workloads.generate("mixed-small", 5)[::11]
    argvs = run.write_dists(reqs, tmp_path)
    _, plain = run.run_pass(reqs, argvs)
    tracer = Tracer()
    _, traced = run.run_pass(reqs, argvs, tracer)
    assert [r[1:3] for r in plain] == [r[1:3] for r in traced]
    m = tracer.layer_metrics(len(reqs))
    assert m["syntax.parse.calls_per_request"] > 0
    assert len({s[5] for s in tracer.spans}) == len(reqs)
