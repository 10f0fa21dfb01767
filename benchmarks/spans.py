"""Spans around the public functions of each conecert layer.

The tracer wraps each function in the namespace that calls it: the modules
bind most names with ``from ... import``, so ``hypotheses.eval_interval`` and
``solver.eval_values`` are patched rather than ``expr.eval_interval``.  No
module under ``src/`` is edited; every wrapper is removed when the traced pass
ends.

A span records name, start, end and parent.  The hottest calls, which have
no traced children (interval, point and array evaluation, the dense linear
solve), are counted instead: each keeps a call count and a total time, and
its time is charged to the enclosing span so self times stay exact.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "expr", "hypotheses", "kernels", "conespace", "solver", "rcd")

RCD_FUNCTIONS = ("check_5_11", "m_ranges", "s_pair", "build_params",
                 "scaled_ratios", "ratio_checks", "check_5_16",
                 "diffusion_thresholds", "h_root_bracket")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, leaf_time]
        self.stack: list[int] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)

    def span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if on_result is not None:
                on_result(self.counts, result, args)
            return result
        return wrapper

    def leaf(self, name, fn, on_call=None):
        spans, stack, agg = self.spans, self.stack, self.leaves[name]

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                agg[0] += 1
                agg[1] += took
                if stack:
                    spans[stack[-1]][4] += took
                if on_call is not None:
                    on_call(self.counts, args)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced boundary for the duration of the block."""
        patches = _patches(self)
        originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, wrapped in patches:
                setattr(obj, attr, wrapped)
            yield
        finally:
            for obj, attr, original in reversed(originals):
                setattr(obj, attr, original)


# ---------------------------------------------------------------------------
# what gets wrapped, and the work each boundary counts


def _certified(counts, verdict, _args):
    counts["certify_box.boxes"] += verdict.boxes_explored
    counts["certify_box.decided"] += verdict.status in ("Pass", "Fail")


def _oracle(counts, result, _args):
    counts["grid_oracle.points"] += result.n * result.n


def _solved(counts, sol, _args):
    if sol is not None:
        counts["solve_from.converged"] += 1
        counts["solve_from.iterations"] += sol.iterations


def _kept(counts, kept, _args):
    counts["multi_start.kept"] += len(kept)


def _applied(counts, _result, args):
    n = len(args[1])
    counts["apply.bytes"] += 2 * n * n * 8  # two dense n x n kernel matrices


def _points(counts, args):
    counts["eval_values.points"] += np.broadcast(args[1], args[2]).size


def _lu_flops(counts, args):
    size = args[0].shape[0]
    counts["linear_solve.flops"] += 2.0 / 3.0 * size ** 3


def _patches(t: Tracer):
    from conecert import cli, hypotheses, rcd, solver

    op = solver.DiscreteOperator
    patches = [
        (cli, "parse_expr", t.span("expr.parse_expr", cli.parse_expr)),
        (hypotheses, "check_theorem",
         t.span("hypotheses.check_theorem", hypotheses.check_theorem)),
        (hypotheses, "expand_conditions",
         t.span("hypotheses.expand_conditions", hypotheses.expand_conditions)),
        (hypotheses, "certify_box",
         t.span("hypotheses.certify_box", hypotheses.certify_box, _certified)),
        (hypotheses, "grid_oracle",
         t.span("hypotheses.grid_oracle", hypotheses.grid_oracle, _oracle)),
        (hypotheses, "oracle_agrees",
         t.span("hypotheses.oracle_agrees", hypotheses.oracle_agrees)),
        (hypotheses, "eval_interval",
         t.leaf("expr.eval_interval", hypotheses.eval_interval)),
        (hypotheses, "eval_point", t.leaf("expr.eval_point", hypotheses.eval_point)),
        (hypotheses, "eval_values",
         t.leaf("expr.eval_values", hypotheses.eval_values, _points)),
        (solver, "multi_start",
         t.span("solver.multi_start", solver.multi_start, _kept)),
        (solver, "solve_from", t.span("solver.solve_from", solver.solve_from, _solved)),
        (op, "apply", t.span("solver.DiscreteOperator.apply", op.apply, _applied)),
        (op, "jacobian", t.span("solver.DiscreteOperator.jacobian", op.jacobian)),
        (solver.np.linalg, "solve",
         t.leaf("solver.linear_solve", solver.np.linalg.solve, _lu_flops)),
        (solver, "eval_values",
         t.leaf("expr.eval_values", solver.eval_values, _points)),
        (solver, "green_matrix", t.span("kernels.green_matrix", solver.green_matrix)),
        (solver, "make_rule", t.span("kernels.make_rule", solver.make_rule)),
        (solver, "classify", t.span("conespace.classify", solver.classify)),
    ]
    for name in RCD_FUNCTIONS:
        patches.append((rcd, name, t.span(f"rcd.{name}", getattr(rcd, name))))
    return patches


# ---------------------------------------------------------------------------
# per-pass summary


def _per_function(t: Tracer):
    """Inclusive time, self time and calls per traced function name."""
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child = [0.0] * len(t.spans)
    for _name, start, end, parent, _leaf in t.spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _parent, leaf) in enumerate(t.spans):
        inclusive[name] += end - start
        self_time[name] += end - start - child[i] - leaf
        calls[name] += 1
    for name, (n, total) in t.leaves.items():
        inclusive[name] += total
        self_time[name] += total
        calls[name] += n
    return inclusive, self_time, calls


def summarize(t: Tracer, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced pass that took ``wall`` seconds."""
    inclusive, self_time, calls = _per_function(t)
    by_layer = defaultdict(float)
    for name, s in self_time.items():
        by_layer[name.split(".", 1)[0]] += s
    c = t.counts

    def pct(x):
        return 100.0 * x / wall

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    def ratio(n, d):
        return n / d if d else 0.0

    out = {
        "expr.eval_interval.calls": calls["expr.eval_interval"],
        "expr.eval_interval.calls_per_s": rate(calls["expr.eval_interval"],
                                               inclusive["expr.eval_interval"]),
        "expr.eval_interval.self_pct": pct(self_time["expr.eval_interval"]),
        "expr.eval_point.calls": calls["expr.eval_point"],
        "expr.eval_values.calls": calls["expr.eval_values"],
        "expr.eval_values.points": c["eval_values.points"],
        "expr.eval_values.ns_per_point": 1e9 * ratio(inclusive["expr.eval_values"],
                                                     c["eval_values.points"]),
        "hypotheses.certify_box.boxes": c["certify_box.boxes"],
        "hypotheses.certify_box.boxes_per_s": rate(c["certify_box.boxes"],
                                                   inclusive["hypotheses.certify_box"]),
        "hypotheses.certify_box.self_pct": pct(self_time["hypotheses.certify_box"]),
        "hypotheses.certify_box.decided_ratio": ratio(c["certify_box.decided"],
                                                      calls["hypotheses.certify_box"]),
        "hypotheses.grid_oracle.points": c["grid_oracle.points"],
        "hypotheses.grid_oracle.points_per_s": rate(c["grid_oracle.points"],
                                                    inclusive["hypotheses.grid_oracle"]),
        "solver.DiscreteOperator.apply.calls": calls["solver.DiscreteOperator.apply"],
        "solver.DiscreteOperator.apply.calls_per_s": rate(
            calls["solver.DiscreteOperator.apply"],
            inclusive["solver.DiscreteOperator.apply"]),
        "solver.DiscreteOperator.apply.self_pct": pct(
            self_time["solver.DiscreteOperator.apply"]),
        "solver.DiscreteOperator.apply.bytes_computed": c["apply.bytes"],
        "solver.DiscreteOperator.jacobian.calls": calls["solver.DiscreteOperator.jacobian"],
        "solver.DiscreteOperator.jacobian.self_pct": pct(
            self_time["solver.DiscreteOperator.jacobian"]),
        "solver.linear_solve.calls": calls["solver.linear_solve"],
        "solver.linear_solve.self_pct": pct(self_time["solver.linear_solve"]),
        "solver.linear_solve.flops_computed": c["linear_solve.flops"],
        "solver.linear_solve.flops_per_s": rate(c["linear_solve.flops"],
                                                inclusive["solver.linear_solve"]),
        "solver.solve_from.calls": calls["solver.solve_from"],
        "solver.solve_from.converged_ratio": ratio(c["solve_from.converged"],
                                                   calls["solver.solve_from"]),
        "solver.dedupe.kept_ratio": ratio(c["multi_start.kept"],
                                          c["solve_from.converged"]),
        "solver.iterations": c["solve_from.iterations"],
        "cli.self_s": self_time["cli.main"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = pct(by_layer[layer])
    return out


COUNT_METRICS = (
    "expr.eval_interval.calls", "expr.eval_point.calls", "expr.eval_values.calls",
    "expr.eval_values.points", "hypotheses.certify_box.boxes",
    "hypotheses.certify_box.decided_ratio", "hypotheses.grid_oracle.points",
    "solver.DiscreteOperator.apply.calls",
    "solver.DiscreteOperator.apply.bytes_computed",
    "solver.DiscreteOperator.jacobian.calls", "solver.linear_solve.calls",
    "solver.linear_solve.flops_computed", "solver.solve_from.calls",
    "solver.solve_from.converged_ratio", "solver.dedupe.kept_ratio",
    "solver.iterations",
)


def combine(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median over traced passes; also the count metrics that did not repeat."""
    unsteady = [k for k in COUNT_METRICS if len({p[k] for p in passes}) > 1]
    merged = {k: passes[0][k] if k in COUNT_METRICS else statistics.median(p[k] for p in passes)
              for k in passes[0]}
    return merged, unsteady


def top_spans(t: Tracer, wall: float, n: int = 8) -> list[tuple[str, float, float]]:
    """(name, self %, inclusive %) of the n functions with most self time."""
    inclusive, self_time, _calls = _per_function(t)
    rows = sorted(self_time, key=lambda name: -self_time[name])[:n]
    return [(name, 100 * self_time[name] / wall, 100 * inclusive[name] / wall)
            for name in rows]
