"""Config-driven command line: verify / solve / rcd.

All three subcommands read one JSON config and write one JSON report.
Reports are byte-deterministic for a given config: keys are emitted in
sorted order and every float is formatted with 17 significant digits, so
identical runs produce identical files (wall-clock goes to stderr only; the
report's "timings" block carries deterministic work counters instead).

Exit codes: 0 all checks passed / run completed, 1 some check failed,
2 inconclusive (budget exhausted), 3 malformed config or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from pathlib import Path

from . import hypotheses, rcd, solver
from .conespace import RegionLabel, RegionSpec, region_index, sup_norm
from .errors import ConfigError, DomainError
from .expr import EvalError, ParseError, parse_expr
from .kernels import DirichletNeumann, KernelKind, ReactionConvectionDiffusion
from .rcd import RcdParams
from .solver import ProblemSpec, SolverParams

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
    if x is None:
        out.append("null")
    elif isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, numbers.Integral):
        out.append(str(int(x)))
    elif isinstance(x, numbers.Real):
        v = float(x)
        if not math.isfinite(v):
            raise ValueError("non-finite float in report")
        out.append(format(v, ".17g"))
    elif isinstance(x, str):
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
    else:
        raise TypeError(f"cannot serialize {type(x)!r}")


# ---------------------------------------------------------------------------
# config parsing


def _as_pair(value, name: str) -> tuple[float, float]:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{name} must be a number or a pair")
        return float(value[0]), float(value[1])
    return float(value), float(value)


def _parse_kernel(obj, name: str) -> KernelKind:
    if isinstance(obj, str):
        obj = {"kind": obj}
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{name} must be a kernel object with a 'kind'")
    kind = obj["kind"]
    if kind == "dirichlet_neumann":
        return DirichletNeumann()
    if kind == "rcd":
        if "beta" not in obj:
            raise ConfigError(f"{name}: rcd kernel requires 'beta'")
        return ReactionConvectionDiffusion(float(obj["beta"]))
    raise ConfigError(f"{name}: unknown kernel kind {kind!r}")


def _kernel_echo(kernel: KernelKind) -> dict:
    if isinstance(kernel, DirichletNeumann):
        return {"kind": "dirichlet_neumann"}
    return {"kind": "rcd", "beta": kernel.beta}


def _window_for(kernel: KernelKind) -> float:
    return 0.5 if isinstance(kernel, DirichletNeumann) else 0.0


def build_problem(cfg: dict) -> ProblemSpec:
    for key in ("mode", "kernel1", "kernel2", "f1", "f2", "region"):
        if key not in cfg:
            raise ConfigError(f"problem config is missing {key!r}")
    kernel1 = _parse_kernel(cfg["kernel1"], "kernel1")
    kernel2 = _parse_kernel(cfg["kernel2"], "kernel2")
    try:
        f1 = parse_expr(str(cfg["f1"]))
        f2 = parse_expr(str(cfg["f2"]))
    except ParseError as err:
        raise ConfigError(f"bad nonlinearity expression: {err}") from err
    reg = cfg["region"]
    if not isinstance(reg, dict):
        raise ConfigError("region must be an object")
    for key in ("d", "a", "c"):
        if key not in reg:
            raise ConfigError(f"region config is missing {key!r}")
    annulus = None
    if reg.get("annulus") is not None:
        ann = reg["annulus"]
        if not isinstance(ann, (list, tuple)) or len(ann) != 2:
            raise ConfigError("annulus must be a pair [r, R]")
        annulus = (float(ann[0]), float(ann[1]))
    region = RegionSpec(
        d=_as_pair(reg["d"], "d"), a=_as_pair(reg["a"], "a"),
        c=_as_pair(reg["c"], "c"),
        b=_as_pair(reg["b"], "b") if reg.get("b") is not None else None,
        annulus=annulus,
        window=(_window_for(kernel1), _window_for(kernel2)))
    return ProblemSpec(kernel1=kernel1, kernel2=kernel2, f1=f1, f2=f2,
                       region=region, mode=str(cfg["mode"]))


def _problem_echo(cfg: dict, problem: ProblemSpec) -> dict:
    region = problem.region
    return {
        "mode": problem.mode,
        "kernel1": _kernel_echo(problem.kernel1),
        "kernel2": _kernel_echo(problem.kernel2),
        "f1": str(cfg["f1"]),
        "f2": str(cfg["f2"]),
        "remark52": bool(cfg.get("remark52", False)),
        "region": {
            "d": list(region.d), "a": list(region.a), "c": list(region.c),
            "b": list(region.b_effective()),
            "annulus": list(region.annulus) if region.annulus else None,
            "window": list(region.window),
        },
    }


def _checker_settings(cfg: dict, oracle_n: int | None) -> dict:
    block = cfg.get("checker", {})
    out = {
        "budget": int(block.get("budget", hypotheses.DEFAULT_BUDGET)),
        "depth": int(block.get("depth", hypotheses.DEFAULT_DEPTH)),
        "oracle_n": int(oracle_n if oracle_n is not None
                        else block.get("oracle_n", hypotheses.DEFAULT_ORACLE_N)),
    }
    for key, value in out.items():
        if value <= 0:
            raise ConfigError(f"checker.{key} must be positive, got {value}")
    return out


def _solver_params(cfg: dict, grid_n: int | None) -> SolverParams:
    block = cfg.get("solver", {})
    params = SolverParams(
        grid_n=int(grid_n if grid_n is not None else block.get("grid_n", 129)),
        picard_steps=int(block.get("picard_steps", 200)),
        damping=float(block.get("damping", 0.5)),
        newton_tol=float(block.get("newton_tol", 1e-8)),
        max_newton=int(block.get("max_newton", 25)),
        dedupe=(float(block["dedupe"]) if block.get("dedupe") is not None
                else None),
        nontrivial_eps=float(block.get("nontrivial_eps", 1e-6)))
    positives = {"grid_n": params.grid_n, "picard_steps": params.picard_steps,
                 "damping": params.damping, "newton_tol": params.newton_tol,
                 "max_newton": params.max_newton,
                 "nontrivial_eps": params.nontrivial_eps}
    for key, value in positives.items():
        if value <= 0:
            raise ConfigError(f"solver.{key} must be positive, got {value}")
    return params


def _solver_echo(params: SolverParams) -> dict:
    return {
        "grid_n": params.grid_n, "picard_steps": params.picard_steps,
        "damping": params.damping, "newton_tol": params.newton_tol,
        "max_newton": params.max_newton, "dedupe": params.dedupe,
        "nontrivial_eps": params.nontrivial_eps,
    }


def _theorem_id(problem: ProblemSpec, remark52: bool) -> str:
    if problem.mode == "nine":
        return "thm52"
    if problem.mode == "hybrid":
        return "thm51"
    return "thm53_remark52" if remark52 else "thm53"


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


def cmd_verify(cfg: dict, out_dir: Path, oracle_n: int | None = None) -> int:
    if "problem" not in cfg:
        raise ConfigError("config is missing the 'problem' block")
    problem = build_problem(cfg["problem"])
    checker = _checker_settings(cfg, oracle_n)
    remark52 = bool(cfg["problem"].get("remark52", False))
    theorem_id = _theorem_id(problem, remark52)

    started = time.monotonic()
    report_data = hypotheses.check_theorem(
        problem, problem.region, theorem_id,
        budget=checker["budget"], max_depth=checker["depth"],
        witness_n=checker["oracle_n"])

    verdict_entries = []
    boxes_total = 0
    oracle_points = 0
    for result in report_data.conditions:
        cond, verdict = result.cond, result.verdict
        oracle = hypotheses.grid_oracle(cond, checker["oracle_n"])
        agrees = hypotheses.oracle_agrees(cond, verdict, oracle)
        boxes_total += verdict.boxes_explored
        oracle_points += oracle.n * oracle.n
        entry = _verdict_json(verdict)
        entry["condition_id"] = cond.condition_id
        entry["relation"] = cond.relation
        entry["bound"] = cond.bound
        entry["box"] = [[cond.box[0].lo, cond.box[0].hi],
                        [cond.box[1].lo, cond.box[1].hi]]
        entry["oracle"] = {
            "n": oracle.n, "sup": oracle.sup, "inf": oracle.inf,
            "argmax": list(oracle.argmax), "argmin": list(oracle.argmin),
            "agrees": agrees,
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
        "theorem_id": theorem_id,
    })
    report["verdicts"] = verdict_entries
    report["promised"] = promised
    report["timings"] = {"boxes_explored_total": boxes_total,
                         "oracle_points": oracle_points}
    _write_report(report, out_dir / cfg.get("output", {}).get("report", "report.json"))
    print(f"overall: {report_data.overall}")
    print(f"[{time.monotonic() - started:.3f}s]", file=sys.stderr)
    return {"AllPass": EXIT_ALL_PASS, "SomeFail": EXIT_SOME_FAIL,
            "Inconclusive": EXIT_INCONCLUSIVE}[report_data.overall]


def cmd_solve(cfg: dict, out_dir: Path, grid_n: int | None = None,
              seed_list: list[str] | None = None) -> int:
    if "problem" not in cfg:
        raise ConfigError("config is missing the 'problem' block")
    problem = build_problem(cfg["problem"])
    params = _solver_params(cfg, grid_n)
    started = time.monotonic()
    solutions = solver.multi_start(problem, params, seed_list=seed_list)

    csv_dir = out_dir / cfg.get("output", {}).get("csv_dir", "solutions")
    entries = []
    iterations_total = 0
    for sol in solutions:
        csv_name = f"solution_{sol.seed_id}.csv"
        _write_solution_csv(sol, csv_dir / csv_name)
        iterations_total += sol.iterations
        label = sol.region
        index = None
        if isinstance(label, RegionLabel):
            index = region_index(
                label, "hybrid" if problem.mode == "hybrid" else "nine")
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
        "solver": _solver_echo(params),
        "seed_list": sorted(seed_list) if seed_list else None,
    })
    report["solutions"] = entries
    report["timings"] = {"solutions_found": len(entries),
                         "iterations_total": iterations_total}
    _write_report(report, out_dir / cfg.get("output", {}).get("report", "report.json"))
    print(f"solutions: {len(entries)}")
    print(f"[{time.monotonic() - started:.3f}s]", file=sys.stderr)
    return EXIT_ALL_PASS


def _write_solution_csv(sol, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["t,u1,u2"]
    for t, a, b in zip(sol.u1.rule.nodes, sol.u1.values, sol.u2.values):
        lines.append(f"{t:.17g},{a:.17g},{b:.17g}")
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _scalar_verdict_entry(condition_id: str, verdict) -> dict:
    entry = _verdict_json(verdict)
    entry["condition_id"] = condition_id
    if entry["witness"] is not None:
        # scalar checks carry (lhs, rhs, gap) rather than a sample point
        lhs, rhs, gap = (entry["witness"]["x1"], entry["witness"]["x2"],
                         entry["witness"]["value"])
        entry["witness"] = {"lhs": lhs, "rhs": rhs, "gap": gap}
    return entry


def cmd_rcd(cfg: dict, out_dir: Path) -> int:
    if "rcd" not in cfg:
        raise ConfigError("config is missing the 'rcd' block")
    block = cfg["rcd"]
    for key in ("beta1", "beta2", "k1", "k2", "r1", "r2", "m1", "m2"):
        if key not in block:
            raise ConfigError(f"rcd config is missing {key!r}")
    params = RcdParams(**{k: float(block[k]) for k in
                          ("beta1", "beta2", "k1", "k2", "r1", "r2", "m1", "m2")})
    started = time.monotonic()

    verdicts = [_scalar_verdict_entry("ineq_5_11",
                                      rcd.check_5_11(params.k1, params.k2))]
    range1, range2 = rcd.m_ranges(params.k1, params.k2, params.r1, params.r2)
    rcd_section: dict = {
        "s1": rcd.s_pair(params.k1)[0], "st1": rcd.s_pair(params.k1)[1],
        "s2": rcd.s_pair(params.k2)[0], "st2": rcd.s_pair(params.k2)[1],
        "m1_range": [range1.lo, range1.hi] if range1 else None,
        "m2_range": [range2.lo, range2.hi] if range2 else None,
    }
    derived = None
    for name, m, rng in (("m1", params.m1, range1), ("m2", params.m2, range2)):
        verdicts.append(_scalar_verdict_entry(f"{name}_in_range",
                                              rcd.check_m_range(name, m, rng)))

    if all(v["status"] == "Pass" for v in verdicts[1:]):
        derived = rcd.build_params(params)
        ratios = rcd.scaled_ratios(derived)
        for name, value, status in rcd.ratio_checks(derived):
            verdicts.append({
                "condition_id": f"ratio_{name}", "status": status,
                "witness": None, "boxes_explored": 0,
                "max_depth_reached": False,
                "note": f"{name} = {value!r}"})
        verdicts.append(_scalar_verdict_entry(
            "ineq_5_16", rcd.check_5_16(derived, params.beta1, params.beta2)))
        thresholds = rcd.diffusion_thresholds(derived)
        rcd_section.update({
            "p1": derived.p1, "p2": derived.p2,
            "q1": derived.q1, "q2": derived.q2,
            "ratios": ratios,
            "diffusion_thresholds": list(thresholds),
        })

    bracket = rcd.h_root_bracket()
    rcd_section["z0_bracket"] = [bracket[0], bracket[1]]
    rcd_section["z0"] = 0.5 * (bracket[0] + bracket[1])

    report = _report_skeleton({
        "command": "rcd",
        "rcd": {k: float(block[k]) for k in sorted(
            ("beta1", "beta2", "k1", "k2", "r1", "r2", "m1", "m2"))},
    })
    report["verdicts"] = verdicts
    report["rcd"] = rcd_section
    statuses = [v["status"] for v in verdicts]
    report["timings"] = {"scalar_checks": len(verdicts)}
    _write_report(report, out_dir / cfg.get("output", {}).get("report", "report.json"))
    for v in verdicts:
        print(f"{v['condition_id']}: {v['status']}")
    print(f"[{time.monotonic() - started:.3f}s]", file=sys.stderr)
    if "Fail" in statuses:
        return EXIT_SOME_FAIL
    if "Unknown" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_ALL_PASS


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
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="conecert",
        description="certify multiplicity hypotheses and locate the multiple "
                    "positive solutions of two-component Hammerstein systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="certify theorem hypotheses")
    p_verify.add_argument("config")
    p_verify.add_argument("--oracle-n", type=int, default=None)
    p_verify.add_argument("--out", default=".")

    p_solve = sub.add_parser("solve", help="multi-start solve for fixed points")
    p_solve.add_argument("config")
    p_solve.add_argument("--grid-n", type=int, default=None)
    p_solve.add_argument("--out", default=".")
    p_solve.add_argument("--seed-list", default=None,
                         help="comma-separated seed ids, e.g. S-S,B-B")

    p_rcd = sub.add_parser("rcd", help="derive and check the RCD parameters")
    p_rcd.add_argument("config")
    p_rcd.add_argument("--out", default=".")

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out_dir = Path(args.out)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, oracle_n=args.oracle_n)
        if args.command == "solve":
            seeds = (args.seed_list.split(",") if args.seed_list else None)
            return cmd_solve(cfg, out_dir, grid_n=args.grid_n, seed_list=seeds)
        return cmd_rcd(cfg, out_dir)
    except (ConfigError, DomainError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except EvalError as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
