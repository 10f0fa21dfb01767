"""Config-driven command line: verify / solve / rcd.

All three subcommands read one JSON config and write one JSON report.
Reports are byte-deterministic for a given config: keys are emitted in
sorted order and every float is formatted with 17 significant digits, so
identical runs produce identical files (wall-clock goes to stderr only; the
report's "timings" block carries deterministic work counters instead).

Exit codes: 0 all checks passed / run completed, 1 some check failed,
2 inconclusive (budget exhausted), 3 malformed config or command line, a
domain error, or a report that cannot be written.

Each subcommand imports its engine when it runs: `verify` loads
`hypotheses` and `solve` loads `solver`, each with the expression compiler
`expr`, and `rcd` loads `rcd` alone.  Reading a config needs only
`syntax`, `conespace` and `kernels`, so `import conecert.cli` loads none of
the engines, and the checker, solver and rcd key tables are read from their
engines on first use.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import numbers
import sys
import time
from pathlib import Path

from .conespace import (ProblemSpec, RegionLabel, RegionSpec, region_index,
                        sup_norm)
from .errors import ConfigError, DomainError, EvalError, ParseError
from .kernels import DirichletNeumann, KernelKind, ReactionConvectionDiffusion
from .syntax import parse_expr

EXIT_ALL_PASS = 0
EXIT_SOME_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONFIG = 3


# ---------------------------------------------------------------------------
# canonical JSON


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(x, out: list[str]):
    # the builtin types first: an isinstance test against a numbers ABC
    # costs several times one against a concrete type
    if isinstance(x, str):
        out.append(json.dumps(x))
    elif isinstance(x, dict):
        out.append("{")
        for i, key in enumerate(sorted(x)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(x[key], out)
        out.append("}")
    elif isinstance(x, (list, tuple)):
        out.append("[")
        for i, item in enumerate(x):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif x is None:
        out.append("null")
    elif isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, int) or (not isinstance(x, float)
                                and isinstance(x, numbers.Integral)):
        out.append(str(int(x)))
    elif isinstance(x, (float, numbers.Real)):
        v = float(x)
        if not math.isfinite(v):
            raise ValueError("non-finite float in report")
        out.append(format(v, ".17g"))
    else:
        raise TypeError(f"cannot serialize {type(x)!r}")


# ---------------------------------------------------------------------------
# config parsing


def _number(value, name: str) -> float:
    """A finite real config value (not a bool or a string) as a float."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _as_pair(value, name: str) -> tuple[float, float]:
    if isinstance(value, list):
        if len(value) != 2:
            raise ConfigError(f"{name} must be a number or a pair")
        return _number(value[0], name), _number(value[1], name)
    return _number(value, name), _number(value, name)


_REQUIRED = object()


@functools.cache
def _checker_defaults() -> dict:
    from . import hypotheses
    return {"budget": hypotheses.DEFAULT_BUDGET,
            "depth": hypotheses.DEFAULT_DEPTH,
            "oracle_n": hypotheses.DEFAULT_ORACLE_N}


@functools.cache
def _solver_defaults() -> dict:
    from .solver import SolverParams
    return {f.name: f.default for f in dataclasses.fields(SolverParams)}


@functools.cache
def _rcd_keys() -> dict:
    from .rcd import RcdParams
    return dict.fromkeys((f.name for f in dataclasses.fields(RcdParams)),
                         _REQUIRED)


_OUTPUT_DEFAULTS = {"report": "report.json", "csv_dir": "solutions"}
_ROOT_KEYS = ("problem", "checker", "solver", "rcd", "output")
_PROBLEM_KEYS = ("mode", "kernel1", "kernel2", "f1", "f2", "region", "remark52")
_REGION_KEYS = ("d", "a", "c", "b", "annulus")


def _known_keys(block: dict, name: str, keys):
    """Reject a key outside `keys`, so that a misspelling is not ignored."""
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigError(f"{name} has unknown keys: {', '.join(unknown)}")


def _read_block(cfg: dict, name: str, defaults: dict) -> dict:
    """The numeric block `cfg[name]`, one entry per key of `defaults`.

    A key of the block that `defaults` lacks is an error.  Each value comes
    from the block, else the default; a null counts as absent.  A
    `_REQUIRED` default makes the key mandatory.  Every value must be a
    positive finite number, and an integer wherever the default is an int."""
    block = {} if cfg.get(name) is None else cfg[name]
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object")
    _known_keys(block, name, defaults)
    out = {}
    for key, default in defaults.items():
        raw = default if block.get(key) is None else block[key]
        if raw is _REQUIRED:
            raise ConfigError(f"{name} config is missing {key!r}")
        where = f"{name}.{key}"
        value = _number(raw, where)
        if not value > 0.0:
            raise ConfigError(f"{where} must be positive, got {raw!r}")
        if isinstance(default, int) and not value.is_integer():
            raise ConfigError(f"{where} must be an integer, got {raw!r}")
        out[key] = int(value) if isinstance(default, int) else value
    return out


def _output(cfg: dict) -> dict:
    """The output block: report name and CSV directory, both strings."""
    block = {} if cfg.get("output") is None else cfg["output"]
    if not isinstance(block, dict) or not all(
            isinstance(v, str) for v in block.values()):
        raise ConfigError("output must be an object of strings")
    _known_keys(block, "output", _OUTPUT_DEFAULTS)
    if block.get("report") == "":
        # an empty name would write the report as the file at --out
        raise ConfigError("output.report must not be empty")
    return _OUTPUT_DEFAULTS | block


def _parse_kernel(obj, name: str) -> KernelKind:
    if isinstance(obj, str):
        obj = {"kind": obj}
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{name} must be a kernel object with a 'kind'")
    kind = obj["kind"]
    if kind == "dirichlet_neumann":
        _known_keys(obj, name, ("kind",))
        return DirichletNeumann()
    if kind == "rcd":
        _known_keys(obj, name, ("kind", "beta"))
        if "beta" not in obj:
            raise ConfigError(f"{name}: rcd kernel requires 'beta'")
        return ReactionConvectionDiffusion(_number(obj["beta"], f"{name}.beta"))
    raise ConfigError(f"{name}: unknown kernel kind {kind!r}")


def _kernel_echo(kernel: KernelKind) -> dict:
    if isinstance(kernel, DirichletNeumann):
        return {"kind": "dirichlet_neumann"}
    return {"kind": "rcd", "beta": kernel.beta}


def build_problem(cfg: dict) -> ProblemSpec:
    if not isinstance(cfg, dict):
        raise ConfigError("problem must be an object")
    _known_keys(cfg, "problem", _PROBLEM_KEYS)
    for key in _PROBLEM_KEYS[:-1]:  # all but remark52
        if key not in cfg:
            raise ConfigError(f"problem config is missing {key!r}")
    kernel1 = _parse_kernel(cfg["kernel1"], "kernel1")
    kernel2 = _parse_kernel(cfg["kernel2"], "kernel2")
    try:
        f1 = parse_expr(str(cfg["f1"]))
        f2 = parse_expr(str(cfg["f2"]))
    except ParseError as err:
        raise ConfigError(f"bad nonlinearity expression: {err}") from err
    remark52 = cfg.get("remark52")
    if remark52 is not None and not isinstance(remark52, bool):
        raise ConfigError("remark52 must be true, false or null")
    reg = cfg["region"]
    if not isinstance(reg, dict):
        raise ConfigError("region must be an object")
    _known_keys(reg, "region", _REGION_KEYS)
    for key in ("d", "a", "c"):
        if reg.get(key) is None:
            raise ConfigError(f"region config is missing {key!r}")
    pairs = {key: _as_pair(reg[key], f"region.{key}")
             for key in _REGION_KEYS
             if reg.get(key) is not None}
    return ProblemSpec(kernel1=kernel1, kernel2=kernel2, f1=f1, f2=f2,
                       region=RegionSpec(**pairs), mode=str(cfg["mode"]),
                       remark52=bool(remark52))


def _problem_echo(cfg: dict, problem: ProblemSpec) -> dict:
    region = problem.region
    return {
        "mode": problem.mode,
        "kernel1": _kernel_echo(problem.kernel1),
        "kernel2": _kernel_echo(problem.kernel2),
        "f1": str(cfg["f1"]),
        "f2": str(cfg["f2"]),
        "remark52": problem.remark52,
        "region": {
            "d": list(region.d), "a": list(region.a), "c": list(region.c),
            "b": list(region.b_effective()),
            "annulus": list(region.annulus) if region.annulus else None,
            "window": [problem.kernel1.window, problem.kernel2.window],
        },
    }


# ---------------------------------------------------------------------------
# report helpers


def _verdict_json(verdict) -> dict:
    witness = None
    if verdict.witness is not None:
        witness = {"x1": verdict.witness[0], "x2": verdict.witness[1],
                   "value": verdict.witness[2]}
    return {
        "status": verdict.status,
        "witness": witness,
        "boxes_explored": verdict.boxes_explored,
        "max_depth_reached": verdict.max_depth_reached,
        "note": verdict.note,
    }


def _write_report(report: dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes((dumps_canonical(report) + "\n").encode("utf-8"))


def _report_skeleton(config_echo: dict) -> dict:
    return {"config_echo": config_echo, "verdicts": [], "promised": None,
            "solutions": None, "rcd": None, "timings": {}}


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    from . import hypotheses

    if "problem" not in cfg:
        raise ConfigError("config is missing the 'problem' block")
    problem = build_problem(cfg["problem"])
    checker = _read_block(cfg, "checker", _checker_defaults())
    output = _output(cfg)

    started = time.monotonic()
    report_data = hypotheses.check_theorem(
        problem, budget=checker["budget"], max_depth=checker["depth"],
        oracle_n=checker["oracle_n"])

    verdict_entries = []
    for result in report_data.conditions:
        cond, verdict, oracle = result.cond, result.verdict, result.oracle
        entry = _verdict_json(verdict)
        entry["condition_id"] = cond.condition_id
        entry["relation"] = cond.relation
        entry["bound"] = cond.bound
        entry["box"] = [[cond.box[0].lo, cond.box[0].hi],
                        [cond.box[1].lo, cond.box[1].hi]]
        entry["oracle"] = {
            "n": oracle.n, "sup": oracle.sup, "inf": oracle.inf,
            "argmax": list(oracle.argmax), "argmin": list(oracle.argmin),
            "agrees": result.agrees,
        }
        verdict_entries.append(entry)
        print(f"{cond.condition_id}: {verdict.status}")

    promised = None
    if report_data.promised is not None:
        promised = {
            "solutions": report_data.promised.solutions,
            "coexistence": report_data.promised.coexistence,
            "regions": [str(lbl) for lbl in report_data.promised.regions],
        }
    report = _report_skeleton({
        "command": "verify",
        "problem": _problem_echo(cfg["problem"], problem),
        "checker": checker,
        "theorem_id": report_data.theorem_id,
    })
    report["verdicts"] = verdict_entries
    report["promised"] = promised
    report["timings"] = {
        "boxes_explored_total": sum(r.verdict.boxes_explored
                                    for r in report_data.conditions),
        "oracle_points": sum(r.oracle.n ** 2 for r in report_data.conditions)}
    _write_report(report, out_dir / output["report"])
    print(f"overall: {report_data.overall}")
    print(f"[{time.monotonic() - started:.3f}s]", file=sys.stderr)
    return {"AllPass": EXIT_ALL_PASS, "SomeFail": EXIT_SOME_FAIL,
            "Inconclusive": EXIT_INCONCLUSIVE}[report_data.overall]


def cmd_solve(cfg: dict, out_dir: Path,
              seed_list: list[str] | None = None) -> int:
    from . import solver

    if "problem" not in cfg:
        raise ConfigError("config is missing the 'problem' block")
    problem = build_problem(cfg["problem"])
    params = solver.SolverParams(**_read_block(cfg, "solver",
                                               _solver_defaults()))
    output = _output(cfg)
    started = time.monotonic()
    solutions = solver.multi_start(problem, params, seed_list=seed_list)

    csv_dir = out_dir / output["csv_dir"]
    nodes = []
    if solutions:
        # a solve with no solution makes no directory; every solution
        # shares the rule, so its node column is formatted once
        csv_dir.mkdir(parents=True, exist_ok=True)
        nodes = [f"{t:.17g}" for t in solutions[0].u1.rule.nodes.tolist()]
    entries = []
    iterations_total = 0
    for sol in solutions:
        csv_name = f"solution_{sol.seed_id}.csv"
        _write_solution_csv(sol, nodes, csv_dir / csv_name)
        iterations_total += sol.iterations
        label = sol.region
        index = region_index(label) if isinstance(label, RegionLabel) else None
        entries.append({
            "seed_id": sol.seed_id,
            "residual": sol.residual,
            "region": str(label),
            "region_index": index,
            "nontrivial": list(sol.nontrivial),
            "sup_norms": [sup_norm(sol.u1), sup_norm(sol.u2)],
            "iterations": sol.iterations,
            "csv": csv_name,
        })
        print(f"{sol.seed_id}: region={label} "
              f"residual={sol.residual:.3e}")

    report = _report_skeleton({
        "command": "solve",
        "problem": _problem_echo(cfg["problem"], problem),
        "solver": dataclasses.asdict(params),
        "seed_list": sorted(seed_list) if seed_list else None,
    })
    report["solutions"] = entries
    report["timings"] = {"solutions_found": len(entries),
                         "iterations_total": iterations_total}
    _write_report(report, out_dir / output["report"])
    print(f"solutions: {len(entries)}")
    print(f"[{time.monotonic() - started:.3f}s]", file=sys.stderr)
    return EXIT_ALL_PASS


def _write_solution_csv(sol, nodes: list[str], path: Path):
    """Write t,u1,u2 rows with 17 significant digits into path, whose
    directory exists; `nodes` is the t column already formatted.  One
    %-format of the whole file is faster than a format per row, and %.17g
    gives the bytes of f"{x:.17g}"."""
    rows = itertools.chain.from_iterable(
        zip(nodes, sol.u1.values.tolist(), sol.u2.values.tolist()))
    text = ("t,u1,u2\n" + "%s,%.17g,%.17g\n" * len(nodes)) % tuple(rows)
    path.write_bytes(text.encode("utf-8"))


def _scalar_verdict_entry(condition_id: str, verdict) -> dict:
    entry = _verdict_json(verdict) | {"condition_id": condition_id}
    if verdict.witness is not None:
        # scalar checks carry (lhs, rhs, gap) rather than a sample point
        entry["witness"] = dict(zip(("lhs", "rhs", "gap"), verdict.witness))
    return entry


def cmd_rcd(cfg: dict, out_dir: Path) -> int:
    from . import rcd

    if "rcd" not in cfg:
        raise ConfigError("config is missing the 'rcd' block")
    values = _read_block(cfg, "rcd", _rcd_keys())
    output = _output(cfg)
    params = rcd.RcdParams(**values)
    started = time.monotonic()

    checks, (range1, range2), derived = rcd.check_all(params)
    s1, st1 = rcd.s_pair(params.k1)
    s2, st2 = rcd.s_pair(params.k2)
    bracket = rcd.h_root_bracket()
    rcd_section: dict = {
        "s1": s1, "st1": st1, "s2": s2, "st2": st2,
        "m1_range": [range1.lo, range1.hi] if range1 else None,
        "m2_range": [range2.lo, range2.hi] if range2 else None,
        "z0_bracket": list(bracket), "z0": 0.5 * (bracket[0] + bracket[1]),
    }
    if derived is not None:
        rcd_section.update({
            "p1": derived.p1, "p2": derived.p2,
            "q1": derived.q1, "q2": derived.q2,
            "ratios": rcd.scaled_ratios(derived),
            "diffusion_thresholds": list(rcd.diffusion_thresholds(derived)),
        })

    report = _report_skeleton({"command": "rcd", "rcd": values})
    report["verdicts"] = [_scalar_verdict_entry(cid, v) for cid, v in checks]
    report["rcd"] = rcd_section
    report["timings"] = {"scalar_checks": len(checks)}
    _write_report(report, out_dir / output["report"])
    for cid, v in checks:
        print(f"{cid}: {v.status}")
    print(f"[{time.monotonic() - started:.3f}s]", file=sys.stderr)
    statuses = {v.status for _, v in checks}
    return (EXIT_SOME_FAIL if "Fail" in statuses else
            EXIT_INCONCLUSIVE if "Unknown" in statuses else EXIT_ALL_PASS)


# ---------------------------------------------------------------------------
# entry point


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _known_keys(cfg, "config", _ROOT_KEYS)
    return cfg


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 3 on a usage error: argparse's own 2 is the Inconclusive code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> _ArgumentParser:
    """The command-line parser, built on its first use: the import stays
    cheap, and a process that runs `main` many times builds it once."""
    parser = _ArgumentParser(
        prog="conecert",
        description="certify multiplicity hypotheses and locate the multiple "
                    "positive solutions of two-component Hammerstein systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="certify theorem hypotheses")
    p_verify.add_argument("config")
    p_verify.add_argument("--out", default=".")

    p_solve = sub.add_parser("solve", help="multi-start solve for fixed points")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", default=".")
    p_solve.add_argument("--seed-list", default=None,
                         help="comma-separated seed ids, e.g. S-S,B-B")

    p_rcd = sub.add_parser("rcd", help="derive and check the RCD parameters")
    p_rcd.add_argument("config")
    p_rcd.add_argument("--out", default=".")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line (sys.argv[1:] when argv is None) and return its
    exit code.  The parser is built on the first call and reused by later
    calls in the same process, which only callers that run `main` more than
    once gain from (a benchmark loop, the tests, a library); each call
    parses into a fresh namespace and writes usage errors to the current
    sys.stderr, so no call sees another's arguments."""
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out_dir = Path(args.out)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        if args.command == "solve":
            seeds = (args.seed_list.split(",") if args.seed_list else None)
            return cmd_solve(cfg, out_dir, seed_list=seeds)
        return cmd_rcd(cfg, out_dir)
    except (ConfigError, DomainError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except EvalError as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
