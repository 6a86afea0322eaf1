"""Benchmark of the tlcond pipeline: parse, compile, product, minimize,
chain and solve, driven through ``tlcond.cli.main(argv)`` in process.

    python3 perfbench/run.py --workload ps-first --seed 1 --seconds 30 --trace 0

One client sends one request at a time (closed loop) from one thread.  A
pass runs the workload's whole request list, in a seeded shuffled order,
against a freshly imported ``tlcond``, so nothing the program might keep
between calls survives from one pass to the next; there are at least two
passes, and they repeat until the next one would end after ``--seconds``.  Every answer and exit code is checked against a reference
that does not use the pipeline (see ``check.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  Their times are scaled to a reference host speed
by a probe that times fixed pure-Python work every 50 ms (see
``hostspeed.py``): set-up time is the median of the run's set-ups, wall
time the median over passes, and the request median and tail are taken
over each request's median over the passes.  The unscaled figures are
printed too.  With ``--trace 1`` untraced and traced passes alternate,
unscaled and without the probe; it reports the per-layer metrics of the
traced passes and checks that every traced answer equals the untraced
one.  Spans are written to ``perfbench/.work/`` when the run ends.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS_PER_PASS = 4


def fresh_import():
    """Import ``tlcond`` anew and return its ``cli`` module."""
    for name in [n for n in sys.modules if n == "tlcond" or n.startswith("tlcond.")]:
        del sys.modules[name]
    return importlib.import_module("tlcond.cli")


def write_dists(requests, work: Path) -> list[tuple]:
    """Write each distinct distribution file once; return the argv lists."""
    paths: dict = {}
    argvs = []
    for r in requests:
        if r.dist is not None and r.dist not in paths:
            path = work / f"d{len(paths):04d}.dist"
            path.write_text(r.dist, encoding="utf-8")
            paths[r.dist] = str(path)
        argvs.append(tuple(paths[r.dist] if a == "{dist}" else a for a in r.argv))
    return argvs


def send_order(requests, argvs, seed: int) -> tuple[list, list]:
    """Shuffle the requests, so that those of one kind are spread over the
    pass and no short change in the host's speed falls on all of them."""
    order = list(range(len(requests)))
    random.Random(f"order:{seed}").shuffle(order)
    return [requests[i] for i in order], [argvs[i] for i in order]


def run_pass(requests, argvs, tracer=None, scale=False) -> tuple[float, list]:
    """Send every request once; return the pass wall time and, per request,
    (latency, exit code, stdout, stderr).  With ``scale`` the host-speed
    probe runs throughout, every latency is scaled to the reference speed
    and the wall time is their sum."""
    from perfbench.hostspeed import HostSpeed

    cli = fresh_import()
    if tracer is not None:
        tracer.install()
    gc.collect()
    results, spans = [], []
    with HostSpeed() if scale else contextlib.nullcontext() as speed:
        begin = perf_counter()
        for req, argv in zip(requests, argvs):
            if tracer is not None:
                tracer.request = req.rid
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = f"exited with {exc.code!r}"
            except Exception as exc:  # a request that raises is a failed request
                rc = f"raised {type(exc).__name__}: {exc}"
            spans.append((start, perf_counter()))
            results.append((rc, out.getvalue(), err.getvalue()))
        wall = perf_counter() - begin
    if scale:
        latencies = [speed.scaled(start, end) for start, end in spans]
        wall = sum(latencies)
    else:
        latencies = [end - start for start, end in spans]
    return wall, [(lat, *res) for lat, res in zip(latencies, results)]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest-percentile value with at least ten values beyond it, and
    that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError("a tail needs at least 11 requests")
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tlcond" / "cli.py").is_file():
        print(f"error: no tlcond sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads
    from perfbench.check import Checker
    from perfbench.hostspeed import HostSpeed
    from perfbench.trace import LAYER_METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / "perfbench" / ".work" / f"{args.workload}-{args.seed}-{args.trace}"
    work.mkdir(parents=True, exist_ok=True)

    def setup():
        """Import, CLI parser, requests and their distribution files."""
        gc.collect()
        with HostSpeed() if scale else contextlib.nullcontext() as speed:
            start = perf_counter()
            fresh_import()._build_parser()
            reqs = workloads.generate(args.workload, args.seed)
            paths = write_dists(reqs, work)
            end = perf_counter()
        raw_setups.append(end - start)
        setups.append(speed.scaled(start, end) if scale else end - start)
        return send_order(reqs, paths, args.seed)

    scale = not args.trace
    setups: list[float] = []
    raw_setups: list[float] = []
    requests, argvs = setup()
    checker = Checker(sys.modules["tlcond"])
    failures: dict = {}
    attempted = failed = 0

    def record(results):
        nonlocal attempted, failed
        for req, argv, (_, rc, out, err) in zip(requests, argvs, results):
            attempted += 1
            why = checker.check(req, rc, out, err)
            if why is not None:
                failed += 1
                failures[(req.rid, why)] = (req, argv)

    walls, raw_walls, traced_walls, layers = [], [], [], []
    latencies = [[] for _ in requests]
    tracers = []
    mismatches = []
    begin = perf_counter()
    while True:
        started = perf_counter()
        # Set-up is sampled before every pass, so that its median spans
        # the whole run rather than its first second.
        for _ in range(SETUPS_PER_PASS):
            setup()
        started_pass = perf_counter()
        wall, results = run_pass(requests, argvs, scale=scale)
        raw_walls.append(perf_counter() - started_pass)
        walls.append(wall)
        for lat, res in zip(latencies, results):
            lat.append(res[0])
        record(results)
        if args.trace:
            tracer = Tracer()
            wall, traced = run_pass(requests, argvs, tracer)
            traced_walls.append(wall)
            layers.append(tracer.layer_metrics(len(requests)))
            tracers.append(tracer)
            record(traced)
            for req, a, b in zip(requests, results, traced):
                if a[1:3] != b[1:3]:
                    mismatches.append(req.rid)
        step = perf_counter() - started
        if len(walls) >= 2 and perf_counter() - begin + step > args.seconds:
            break

    known = {rid for (rid, _), (req, _) in failures.items() if req.known_defect}
    correct = all(req.known_defect for req, _ in failures.values()) and not mismatches
    for (rid, why), (req, argv) in sorted(failures.items()):
        tag = "KNOWN" if req.known_defect else "FAIL"
        print(f"{tag} {rid}: {why}\n    argv: {' '.join(argv)}")
    for rid in sorted(set(mismatches)):
        print(f"FAIL {rid}: traced answer differs from the untraced one")
    failed += len(mismatches)
    print(f"# {args.workload} seed={args.seed}: {len(requests)} requests x "
          f"{len(walls)} passes; {attempted} attempted, {failed} failed "
          f"(failed_ratio = {failed / attempted:.6f}; known defects: "
          f"{', '.join(sorted(known)) or 'none'})")

    if args.trace:
        metrics = {}
        for key in layers[0]:
            metrics[key] = statistics.median(m[key] for m in layers)
        metrics["trace.overhead_ratio"] = min(traced_walls) / min(walls)
        (work / "spans.json").write_text(json.dumps(
            [t.dump() for t in tracers]), encoding="utf-8")
        units = dict(LAYER_METRICS)
    else:
        per_request = [statistics.median(x) for x in latencies]
        tail_s, pct = tail(per_request)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "request_p50_s": statistics.median(per_request),
            "request_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "correct_ratio": 1 - failed / attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "request_p50_s": "s",
                 "request_tail_s": "s", "peak_rss_mb": "MB", "correct_ratio": "ratio"}
        print(f"# times at reference host speed: wall_s is the median of {len(walls)} "
              f"passes; request_p50_s and request_tail_s (p{pct:.1f}) are over "
              f"{len(per_request)} requests, each at its median over the passes; "
              f"setup_s is the median of {len(setups)} set-ups")
        print(f"# unscaled: wall {statistics.median(raw_walls):.6g} s (median), "
              f"{min(raw_walls):.6g} s (best); set-up {statistics.median(raw_setups):.6g} s "
              f"(median)")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
