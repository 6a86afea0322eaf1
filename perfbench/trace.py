"""Spans and counters around calls into each ``tlcond`` layer.

The package's modules import names directly (``from .automata import
compile_cond``), so a wrapper is rebound at every attribute of every
``tlcond`` module that holds the original function.  A span records name,
start, end, parent and request id; spans stay in memory until the run ends.
Measuring a result (state counts, tree sizes) happens after the span closes
and is excluded from every span's self time.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _tree_size(f) -> int:
    """Nodes of a formula tree, counted without recursion."""
    count, todo = 0, [f]
    while todo:
        x = todo.pop()
        count += 1
        todo.extend(getattr(x, a) for a in ("child", "left", "right") if hasattr(x, a))
    return count


# (module, attribute, span name, quantities of a call: (args, result) -> dict)
SPANNED = (
    ("cli", "main", "cli.main", None),
    ("syntax", "parse_cond", "syntax.parse", None),
    ("syntax", "parse_cea", "syntax.parse", None),
    ("syntax", "parse_tl", "syntax.parse", None),
    ("markov", "ProbAssignment.from_text", "markov.from_text", None),
    ("cea", "reduce_present", "cea.reduce_present", None),
    ("cea", "simple_to_cond", "cea.simple_to_cond",
     lambda a, r: {"nodes_out": _tree_size(r.num) + _tree_size(r.den)}),
    ("cea", "present_indep", "cea.present_indep", None),
    ("cea", "strong_indep", "cea.strong_indep", None),
    ("cea", "weak_tautology", "cea.weak_tautology", None),
    ("cea", "first_machine", "cea.first_machine", None),
    ("automata", "compile_cond", "automata.compile_cond",
     lambda a, r: {"states_out": r.n_states, "classes_out": len(r.classes)}),
    ("automata", "minimize", "automata.minimize",
     lambda a, r: {"states_in": a[0].n_states, "states_out": r.n_states}),
    ("automata", "product", "automata.product",
     lambda a, r: {"states_out": r.n_states, "classes_out": len(r.classes)}),
    ("automata", "is_counter_free", "automata.is_counter_free", None),
    ("automata", "to_dot", "automata.to_dot", None),
    ("markov", "chain_from_machine", "markov.chain_from_machine",
     lambda a, r: {"states": r.n_states, "classes": len(a[0].classes)}),
    ("markov", "limiting_label_masses", "markov.limiting_label_masses", None),
    ("markov", "solve_linear", "markov.solve_linear",
     lambda a, r: {"dim_max": len(a[0])}),
    ("markov", "pr_n", "markov.pr_n", lambda a, r: {"steps": a[1] - 1}),
)

# Called too often for a span each: counted only.
COUNTED = (
    ("evaluate", "eval_tl", "evaluate.eval_tl"),
    ("trivalue", "apply_binary", "trivalue.apply_binary"),
)

MAXED = {"dim_max"}

_SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SPANNED))

# The per-layer metrics a traced run reports, with their units.
LAYER_METRICS = (
    tuple((f"{n}.self_s", "s") for n in _SPAN_NAMES)
    + tuple((f"{n}.errors", "count") for n in _SPAN_NAMES)
    + tuple((f"{n}.{q}", "count") for _, _, n in COUNTED for q in ("calls", "errors"))
    + (("syntax.parse.calls_per_request", "1/request"),
       ("cea.simple_to_cond.nodes_out", "count"),
       ("automata.compile_cond.calls", "count"),
       ("automata.compile_cond.states_out", "count"),
       ("automata.compile_cond.classes_out", "count"),
       ("automata.minimize.states_in", "count"),
       ("automata.minimize.states_out", "count"),
       ("automata.minimize.kept_ratio", "ratio"),
       ("automata.product.states_out", "count"),
       ("automata.product.classes_out", "count"),
       ("markov.chain_from_machine.states", "count"),
       ("markov.chain_from_machine.classes", "count"),
       ("markov.solve_linear.calls", "count"),
       ("markov.solve_linear.dim_max", "count"),
       ("markov.pr_n.calls", "count"),
       ("markov.pr_n.steps", "count"),
       ("trace.overhead_ratio", "ratio"))
)


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, covered_end, parent, rid, raised)
        self.stack: list[int] = []
        self.counts: dict = defaultdict(int)
        self.request = ""

    def install(self) -> None:
        """Wrap every traced function of the currently imported ``tlcond``."""
        for module, attr, name, measure in SPANNED:
            self._rebind(module, attr, self._span(name, measure))
        for module, attr, name in COUNTED:
            self._rebind(module, attr, self._counter(name))

    @staticmethod
    def _rebind(module: str, attr: str, make) -> None:
        owner = sys.modules["tlcond." + module]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = make(original)
        if path:  # a static method: rebind on its class
            setattr(owner, leaf, staticmethod(wrapper))
            return
        for name, mod in list(sys.modules.items()):
            if name == "tlcond" or name.startswith("tlcond."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _span(self, name, measure):
        spans, stack, counts = self.spans, self.stack, self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                raised = True
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    raised = False
                finally:
                    end = perf_counter()
                    stack.pop()
                    if not raised and measure is not None:
                        for key, v in measure(args, result).items():
                            full = f"{name}.{key}"
                            counts[full] = max(counts[full], v) if key in MAXED \
                                else counts[full] + v
                    spans[idx] = (name, start, end, perf_counter(), parent,
                                  self.request, raised)
                return result
            return wrapper
        return make

    def _counter(self, name):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name + ".calls"] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    counts[name + ".errors"] += 1
                    raise
            return wrapper
        return make

    def layer_metrics(self, requests: int) -> dict:
        """Every metric of :data:`LAYER_METRICS` but the tracing overhead."""
        covered = [0.0] * len(self.spans)
        for name, start, end, covered_end, parent, rid, raised in self.spans:
            if parent >= 0:
                covered[parent] += covered_end - start
        out: dict = defaultdict(int, self.counts)
        for i, (name, start, end, _, _, _, raised) in enumerate(self.spans):
            out[f"{name}.self_s"] += end - start - covered[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.errors"] += raised
        out["syntax.parse.calls_per_request"] = out["syntax.parse.calls"] / requests
        states_in = out["automata.minimize.states_in"]
        out["automata.minimize.kept_ratio"] = \
            out["automata.minimize.states_out"] / states_in if states_in else 0.0
        return {name: out[name] for name, _ in LAYER_METRICS
                if name != "trace.overhead_ratio"}

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "request": r,
                 "raised": x} for n, s, e, _, p, r, x in self.spans]
