"""Seeded inputs and job lists for the four benchmark workloads.

Every job is one ``conecert`` command line plus what its output must show.
Each generated problem carries its truth by construction, so the checker in
``check.py`` never has to trust the program it is checking.

* ``verify-tight``: nine-mode configs whose ``thm52.a1``/``a2`` conditions
  hold with a seeded margin eps (or fail by a seeded margin), so branch and
  bound has to work.
* ``solve-picard`` / ``solve-newton``: the shipped nine and closing_system
  problems plus one seeded RCD-derived system, at large ``grid_n``.
* ``shipped``: the six README commands on ``configs/``; it ignores the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("verify-tight", "solve-picard", "solve-newton", "shipped")

NINE_F1 = "4.5 + 5*phi(x1)*psi(x2) - 4*capphi(x1)"
NINE_F2 = "4.5 + 5*phi(x2)*psi(x1) - 4*capphi(x2)"
NINE_REGION = {"d": 0.5, "a": 1.0, "b": 2.0, "c": 5.0}
NINE_BOUND = 10.0  # 2c: the right-hand side of thm52.a1 / thm52.a2

# verify-tight design: TIGHT_STRATA antithetic pairs of stratified positions
# per component give 2*TIGHT_STRATA configs that all hold; the pass cost then
# hardly depends on the seed (the linear part of box count in log eps cancels
# between the two members of each pair).
TIGHT_STRATA = 4
TIGHT_LOG_EPS = (-2.0, -4.0)   # eps log-uniform in [1e-4, 1e-2]
FAIL_LOG_EPS = (-3.0, -2.0)    # |eps| of the false condition in [1e-3, 1e-2]
PEAK_RANGE = (2.5, 4.0)        # p >= 2.5 keeps x(2p - x) >= 0 on [0, c]
UNKNOWN_EPS = 1e-6
UNKNOWN_BUDGET = 2000          # far below the ~10^5 boxes eps = 1e-6 needs

# seeded RCD-derived system: fixed (k1, k2, r1, r2), m_j from the middle
# half of rcd.m_ranges, betas 1 as in configs/closing_system.json
RCD_K = (8.0, 10.0)
RCD_R = (8.0, 10.0)
RCD_BETA = 1.0

PROMISED = {
    "thm52": ("B-B", "B-S", "S-B", "S-S", "B-M", "M-B", "S-M", "M-S", "M-M"),
    "thm53": ("S-S", "S-M", "M-S", "M-M"),
}

# the reference kernel (reference.py) closest to each workload's hot layer
HOST_KERNEL = {"verify-tight": "python", "solve-picard": "matvec",
               "solve-newton": "lu", "shipped": "python"}

SOLVE_SETTINGS = {
    # name: (grid_n, picard_steps)
    "solve-picard": (1025, 200),
    "solve-newton": (513, 1),
}


@dataclass
class Job:
    """One command line and the facts its output is checked against.

    ``truth`` maps a verify condition id to whether the inequality holds.
    ``promised`` lists the region labels a solve job is asked to find.
    ``exit_code`` pins the exit status where the README documents it.
    """

    name: str
    command: str
    config: Path
    out: Path
    args: list[str] = field(default_factory=list)
    truth: dict[str, bool] = field(default_factory=dict)
    promised: tuple[str, ...] = ()
    exit_code: int | None = None

    @property
    def argv(self) -> list[str]:
        return [self.command, str(self.config), *self.args, "--out", str(self.out)]


# ---------------------------------------------------------------------------
# verify-tight


def _antithetic_positions(u: float, strata: int) -> list[float]:
    return ([(k + u) / strata for k in range(strata)]
            + [(k + 1.0 - u) / strata for k in range(strata)])


def _bump(a: float, p: float, own: str, other: str) -> str:
    # a * x_j (2p - x_j) / p^2 * cos(x_i): its peak over x_j is a at x_j = p
    return f"{a!r}*{own}*({2.0 * p!r} - {own})/{p * p!r}*cos({other})"


def tight_nine_problem(eps: tuple[float, float], peak: tuple[float, float]) -> dict:
    """Nine-mode problem whose thm52.a_j holds with margin eps_j (fails when
    eps_j < 0): sup f_j = 9.5 + A_j cos 1 = 10 - eps_j at (p_j, 1)."""
    for p in peak:
        if p < PEAK_RANGE[0]:
            raise ValueError(f"peak {p} < {PEAK_RANGE[0]} makes x(2p - x) negative")
    amp = [(0.5 - e) / math.cos(1.0) for e in eps]
    return {
        "mode": "nine",
        "kernel1": "dirichlet_neumann",
        "kernel2": "dirichlet_neumann",
        "f1": f"{NINE_F1} + {_bump(amp[0], peak[0], 'x1', 'x2')}",
        "f2": f"{NINE_F2} + {_bump(amp[1], peak[1], 'x2', 'x1')}",
        "region": dict(NINE_REGION),
    }


def _ramps(z):
    z = np.maximum(z, 0.0)
    phi = np.where(z <= 0.5, 0.0, np.where(z <= 1.0, 2.0 * z - 1.0, 1.0))
    capphi = np.where(z <= 0.5, 1.0, np.where(z <= 1.0, 2.0 - 2.0 * z, 0.0))
    return phi, np.minimum(z, 1.0), capphi


def _tight_values(eps: float, p: float, own, other):
    phi_o, _, capphi_o = _ramps(own)
    _, psi_x, _ = _ramps(other)
    amp = (0.5 - eps) / math.cos(1.0)
    return (4.5 + 5.0 * phi_o * psi_x - 4.0 * capphi_o
            + amp * own * (2.0 * p - own) / (p * p) * np.cos(other))


def check_tight_truth(eps: float, p: float, lattice_n: int = 201):
    """Plain-float sanity check of one component's truth by construction.

    Condition a (f <= 10 on [0,5]^2) must look true on the lattice when eps > 0
    and show a violating lattice point when eps < 0, since the oracle and the
    Fail witness use this lattice; b (f < 1 on [0,1/2] x [0,5]) and c (f > 4
    on [1,2] x [0,5]) must hold on the lattice in every case."""
    def lattice(lo_own, hi_own):
        own, other = np.meshgrid(np.linspace(lo_own, hi_own, lattice_n),
                                 np.linspace(0.0, 5.0, lattice_n), indexing="ij")
        return _tight_values(eps, p, own, other)

    top = float(lattice(0.0, 5.0).max())
    peak = float(_tight_values(eps, p, np.float64(p), np.float64(1.0)))
    if eps > 0 and not (top <= NINE_BOUND and peak < NINE_BOUND):
        raise AssertionError(f"eps={eps}, p={p}: condition a looks false")
    if eps < 0 and not top > NINE_BOUND:
        raise AssertionError(f"eps={eps}, p={p}: lattice misses the violation")
    if not float(lattice(0.0, 0.5).max()) < 1.0:
        raise AssertionError(f"eps={eps}, p={p}: condition b looks false")
    if not float(lattice(1.0, 2.0).min()) > 4.0:
        raise AssertionError(f"eps={eps}, p={p}: condition c looks false")


def _nine_truth(eps: tuple[float, float]) -> dict[str, bool]:
    truth = {}
    for j in (1, 2):
        truth[f"thm52.a{j}"] = eps[j - 1] > 0
        truth[f"thm52.b{j}"] = True
        truth[f"thm52.c{j}"] = True
    return truth


def verify_tight_specs(seed: int) -> list[tuple[str, tuple, tuple, int | None]]:
    """(name, eps pair, peak pair, budget) for the seed's verify-tight configs."""
    rng = random.Random(seed)
    columns = []
    for _component in range(2):
        pos = _antithetic_positions(rng.random(), TIGHT_STRATA)
        lo, hi = TIGHT_LOG_EPS
        eps = [10.0 ** (lo + (hi - lo) * x) for x in pos]
        # the heaviest margins get the lightest peaks, so each pair balances
        peak = [PEAK_RANGE[1] - (PEAK_RANGE[1] - PEAK_RANGE[0]) * x for x in pos]
        order = list(range(len(pos)))
        rng.shuffle(order)
        columns.append([(eps[i], peak[i]) for i in order])
    specs = []
    for k, ((e1, p1), (e2, p2)) in enumerate(zip(*columns)):
        specs.append((f"tight{k}", (e1, e2), (p1, p2), None))
    # one false config: a1 violated by delta, a2 holds by a mirrored margin
    u = rng.random()
    lo, hi = FAIL_LOG_EPS
    delta = 10.0 ** (lo + (hi - lo) * u)
    margin = 10.0 ** (hi - (hi - lo) * u)
    specs.append(("fail", (-delta, margin), _two_peaks(rng), None))
    specs.append(("unknown", (UNKNOWN_EPS, UNKNOWN_EPS), _two_peaks(rng),
                  UNKNOWN_BUDGET))
    return specs


def _two_peaks(rng: random.Random) -> tuple[float, float]:
    lo, hi = PEAK_RANGE
    return (lo + (hi - lo) * rng.random(), lo + (hi - lo) * rng.random())


def verify_tight_jobs(seed: int, work: Path) -> list[Job]:
    jobs = []
    for name, eps, peak, budget in verify_tight_specs(seed):
        for e, p in zip(eps, peak):
            check_tight_truth(e, p)
        checker = {"budget": budget or 100000, "depth": 40, "oracle_n": 201}
        cfg = {"problem": tight_nine_problem(eps, peak), "checker": checker,
               "output": {"report": "report.json"}}
        path = _write_config(work, name, cfg)
        jobs.append(Job(name, "verify", path, work / "out" / name,
                        truth=_nine_truth(eps)))
    return jobs


# ---------------------------------------------------------------------------
# solve workloads


def rcd_problem(m: tuple[float, float]):
    """thm53/remark52 problem block for the RCD system with coefficients m,
    in the form of configs/closing_system.json, plus the derived parameters."""
    from conecert import rcd

    params = rcd.RcdParams(RCD_BETA, RCD_BETA, RCD_K[0], RCD_K[1],
                           RCD_R[0], RCD_R[1], m[0], m[1])
    derived = rcd.build_params(params)
    grow = math.exp(1.0 / RCD_BETA)
    problem = {
        "mode": "thm53",
        "remark52": True,
        "kernel1": {"kind": "rcd", "beta": RCD_BETA},
        "kernel2": {"kind": "rcd", "beta": RCD_BETA},
        "f1": f"{derived.p1!r}*({derived.q1!r} - x2)*exp(-{RCD_K[0]:g}/(1 + x1))",
        "f2": f"{derived.p2!r}*({derived.q2!r} - x1)*exp(-{RCD_K[1]:g}/(1 + x2))",
        "region": {"d": [derived.s1, derived.s2],
                   "a": [derived.st1, derived.st2],
                   "c": [derived.st1 * grow, derived.st2 * grow]},
    }
    return problem, derived


def seeded_rcd_problem(seed: int, work: Path, run_cli) -> dict:
    """Draw m_j from the middle half of the admissible ranges until
    check_5_16 passes and ``verify`` on the derived system is AllPass."""
    from conecert import rcd

    rng = random.Random(seed + 7919)
    ranges = rcd.m_ranges(RCD_K[0], RCD_K[1], RCD_R[0], RCD_R[1])
    for attempt in range(100):
        m = tuple(r.lo + (r.hi - r.lo) * (0.25 + 0.5 * rng.random())
                  for r in ranges)
        problem, derived = rcd_problem(m)
        if rcd.check_5_16(derived, RCD_BETA, RCD_BETA).status != "Pass":
            continue
        path = _write_config(work, f"rcd_draw{attempt}", {"problem": problem})
        if run_cli(["verify", str(path), "--out", str(work / "draws")]) == 0:
            return problem
    raise RuntimeError(f"seed {seed}: no AllPass RCD draw in 100 attempts")


def solve_jobs(workload: str, seed: int, work: Path, repo: Path, run_cli) -> list[Job]:
    grid_n, picard_steps = SOLVE_SETTINGS[workload]
    solver_block = {"grid_n": grid_n, "picard_steps": picard_steps,
                    "damping": 0.5, "newton_tol": 1e-8}
    problems = [
        ("nine", _load(repo / "configs" / "nine.json")["problem"],
         PROMISED["thm52"], []),
        ("closing_system", _load(repo / "configs" / "closing_system.json")["problem"],
         PROMISED["thm53"], []),
        # a full multi-start on a seeded RCD draw costs 0.05 s to 13 s
        # depending on the draw (stalled Picard falls back to dense Newton
        # at grid_n 1025), so the seeded system runs from its S-S start only
        ("rcd_seeded", seeded_rcd_problem(seed, work, run_cli), ("S-S",),
         ["--seed-list", "S-S"]),
    ]
    jobs = []
    for name, problem, promised, args in problems:
        cfg = {"problem": problem, "solver": solver_block,
               "output": {"report": "report.json", "csv_dir": "solutions"}}
        path = _write_config(work, name, cfg)
        jobs.append(Job(name, "solve", path, work / "out" / name,
                        args=args, promised=promised, exit_code=0))
    return jobs


# ---------------------------------------------------------------------------
# shipped


def shipped_jobs(work: Path, repo: Path) -> list[Job]:
    """The six README commands, with the exit codes the README documents."""
    cfg = repo / "configs"
    out = work / "out"
    # one output directory per job (the README reuses out/nine for verify
    # and solve), so that each report can be checked after the pass
    true6 = {f"thm52.{c}{j}": True for c in "abc" for j in (1, 2)}
    true_thm53 = {f"thm53.{c}{j}": True for c in "abc" for j in (1, 2)}
    hybrid = {f"thm51.{c}": c != "e" for c in "abcde"}
    return [
        Job("nine-verify", "verify", cfg / "nine.json", out / "nine-verify",
            truth=true6, exit_code=0),
        Job("nine-solve", "solve", cfg / "nine.json", out / "nine-solve",
            promised=PROMISED["thm52"], exit_code=0),
        Job("hybrid-verify", "verify", cfg / "hybrid.json", out / "hybrid",
            truth=hybrid, exit_code=1),
        Job("rcd", "rcd", cfg / "closing_rcd.json", out / "rcd", exit_code=0),
        Job("closing-verify", "verify", cfg / "closing_system.json",
            out / "closing-verify", truth=true_thm53, exit_code=0),
        Job("closing-solve", "solve", cfg / "closing_system.json",
            out / "closing-solve", promised=PROMISED["thm53"], exit_code=0),
    ]


# ---------------------------------------------------------------------------


def make_jobs(workload: str, seed: int, work: Path, repo: Path, run_cli) -> list[Job]:
    """Write the workload's configs under ``work`` and return its job list.

    ``run_cli`` runs one conecert command line and returns its exit code; the
    RCD draw uses it to keep only systems that verify."""
    if workload == "verify-tight":
        return verify_tight_jobs(seed, work)
    if workload in SOLVE_SETTINGS:
        return solve_jobs(workload, seed, work, repo, run_cli)
    if workload == "shipped":
        return shipped_jobs(work, repo)
    raise ValueError(f"unknown workload {workload!r}")


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _write_config(work: Path, name: str, cfg: dict) -> Path:
    path = work / "configs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
