"""Output checker behind the benchmark's ``failed`` count.

A job fails when it exits with 3 (error) or with a status other than the
one the README documents; when a verdict contradicts the truth its config
was built with (Pass on a false inequality, Fail on a true one); when the
grid oracle disagrees with a decided verdict; when a solution's residual,
recomputed from its CSV, exceeds ``newton_tol``; or when a region label is
neither promised nor ``outside-ambient``.  Unknown is never a failure: it
only lowers the share of decided conditions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EXIT_ERROR = 3


@dataclass
class JobResult:
    ok: bool
    reason: str = ""
    conditions: int = 0
    decided: int = 0
    promised: int = 0
    found: int = 0


def check_job(job, code) -> JobResult:
    """Check one finished job; ``code`` is its exit code, or None if it raised."""
    if code is None:
        return JobResult(False, "raised an exception")
    if code == EXIT_ERROR:
        return JobResult(False, "exited with 3 (error)")
    if job.exit_code is not None and code != job.exit_code:
        return JobResult(False, f"exit code {code}, expected {job.exit_code}")
    cfg = json.loads(job.config.read_text(encoding="utf-8"))
    output = cfg.get("output", {})
    report_path = job.out / output.get("report", "report.json")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if job.command == "verify":
        return _check_verify(job, code, report)
    if job.command == "solve":
        return _check_solve(job, cfg, report,
                            job.out / output.get("csv_dir", "solutions"))
    return _check_rcd(report)


def _check_verify(job, code, report) -> JobResult:
    verdicts = report["verdicts"]
    ids = sorted(v["condition_id"] for v in verdicts)
    if ids != sorted(job.truth):
        return JobResult(False, f"conditions {ids}, expected {sorted(job.truth)}")
    decided = 0
    for v in verdicts:
        cid, status = v["condition_id"], v["status"]
        holds = job.truth[cid]
        if (status == "Pass" and not holds) or (status == "Fail" and holds):
            return JobResult(False, f"{cid}: {status} contradicts the construction")
        if status in ("Pass", "Fail"):
            decided += 1
            if v["oracle"]["agrees"] is not True:
                return JobResult(False, f"{cid}: oracle disagrees with {status}")
    statuses = {v["status"] for v in verdicts}
    want = 1 if "Fail" in statuses else 2 if "Unknown" in statuses else 0
    if code != want:
        return JobResult(False, f"exit code {code} for statuses {sorted(statuses)}")
    return JobResult(True, conditions=len(verdicts), decided=decided)


def _check_solve(job, cfg, report, csv_dir: Path) -> JobResult:
    from conecert.cli import build_problem
    from conecert.conespace import GridFunction
    from conecert.kernels import make_rule
    from conecert.solver import residual

    tol = float(cfg.get("solver", {}).get("newton_tol", 1e-8))
    problem = build_problem(cfg["problem"])
    found = set()
    for sol in report["solutions"]:
        label = sol["region"]
        if label != "outside-ambient" and label not in job.promised:
            return JobResult(False, f"{sol['seed_id']}: region {label} not promised")
        found.add(label)
        csv = csv_dir / sol["csv"]
        t, u1, u2 = np.loadtxt(csv, delimiter=",", skiprows=1, unpack=True)
        rule = make_rule(len(t))
        if not np.array_equal(rule.nodes, t):
            return JobResult(False, f"{sol['seed_id']}: CSV nodes are not the grid")
        res = residual(problem, GridFunction(rule, u1), GridFunction(rule, u2))
        if not res <= tol:
            return JobResult(False, f"{sol['seed_id']}: residual {res:.3e} > {tol:g}")
    return JobResult(True, promised=len(job.promised),
                     found=len(found & set(job.promised)))


def _check_rcd(report) -> JobResult:
    bad = [v["condition_id"] for v in report["verdicts"] if v["status"] != "Pass"]
    if bad:
        return JobResult(False, f"rcd checks not Pass: {bad}")
    return JobResult(True)


def snapshot(out: Path) -> dict[str, bytes]:
    """Every file a job wrote, keyed by relative path."""
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}
