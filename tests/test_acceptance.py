"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import contextlib
import json
import math
import time

import numpy as np

from conecert.cli import build_problem, main
from conecert.conespace import GridFunction, RegionSpec, min_window, sup_norm
from conecert.expr import parse_expr
from conecert.hypotheses import check_theorem
from conecert.kernels import (DirichletNeumann, ReactionConvectionDiffusion,
                              make_rule)
from conecert.rcd import check_5_11, h_root_bracket, m_ranges, s_pair
from conecert.solver import (DiscreteOperator, ProblemSpec, SolverParams,
                             multi_start)
from conftest import (closing_problem_config, closing_rcd_config,
                      hybrid_config, nine_config, write_config)


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"acceptance {name}: FAIL")
        raise
    print(f"acceptance {name}: PASS")


def read_report(tmp_path, name="report.json"):
    return json.loads((tmp_path / name).read_text())


def test_criterion_1_symmetric_example_certification(tmp_path):
    with criterion("1 (nine-solution example certification)"):
        started = time.monotonic()
        path = write_config(tmp_path, nine_config())
        exit_code = main(["verify", path, "--out", str(tmp_path)])
        elapsed = time.monotonic() - started
        assert exit_code == 0
        report = read_report(tmp_path)
        assert len(report["verdicts"]) == 6
        for verdict in report["verdicts"]:
            assert verdict["status"] == "Pass", verdict["condition_id"]
            assert verdict["oracle"]["n"] == 201
            assert verdict["oracle"]["agrees"] is True, verdict["condition_id"]
        assert report["promised"]["solutions"] == 9
        assert report["promised"]["coexistence"] >= 4
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_hybrid_example_certification(tmp_path):
    with criterion("2 (hybrid example: a-d pass, e honestly fails)"):
        path = write_config(tmp_path, hybrid_config())
        exit_code = main(["verify", path, "--out", str(tmp_path)])
        assert exit_code == 1
        report = read_report(tmp_path)
        statuses = {v["condition_id"]: v for v in report["verdicts"]}
        for cid in ("thm51.a", "thm51.b", "thm51.c", "thm51.d"):
            assert statuses[cid]["status"] == "Pass", cid
            assert statuses[cid]["oracle"]["agrees"] is True, cid
        entry = statuses["thm51.e"]
        # the certifier and the plain-arithmetic oracle must agree on Fail
        assert entry["status"] == "Fail"
        assert entry["oracle"]["agrees"] is True
        assert entry["witness"]["x1"] == 0.0
        assert abs(entry["witness"]["x2"] - 2.5) <= 1e-12
        expected_sup = 0.1 + math.exp(25.0 / 32.0)
        assert abs(entry["oracle"]["sup"] - expected_sup) <= 1e-6
        assert entry["oracle"]["sup"] < entry["bound"]  # the discrepancy
        assert report["promised"] is None


def test_criterion_3_rcd_closed_forms():
    with criterion("3 (rcd closed forms and ranges)"):
        s8, _ = s_pair(8.0)
        _, st10 = s_pair(10.0)
        assert abs(s8 - (3.0 - 2.0 * math.sqrt(2.0))) <= 1e-12
        assert abs(st10 - (4.0 + math.sqrt(15.0))) <= 1e-12
        for k in (4.5, 5.0, 6.0, 8.0, 10.0, 11.0, 20.0):
            s, st = s_pair(k)
            assert abs(s * st - 1.0) <= 1e-10, k
        assert check_5_11(8.0, 10.0).status == "Pass"
        range1, range2 = m_ranges(8.0, 10.0, 8.0, 10.0)
        assert range1.lo < 3.0 < range1.hi
        assert range2.lo < 1.0 < range2.hi
        # frozen 50-digit evaluations of the closed-form endpoints
        assert abs(range1.lo - 0.59558950428992514) <= 1e-3
        assert abs(range1.hi - 19.440481390139069) <= 1e-3
        assert abs(range2.lo - 0.26544659775275617) <= 1e-3
        assert abs(range2.hi - 2.0130636966755096) <= 1e-3
        lo, hi = h_root_bracket()
        assert hi - lo <= 1e-10
        assert 4.9 < lo and hi < 5.0  # consistent with the z0 < 5 claim


def test_criterion_4_monotonicity_profiles():
    with criterion("4 (shape of g_k across the k regimes)"):
        grid = np.arange(1, 201) * 0.05  # 0.05, 0.10, ..., 10.00
        for k in (3.0, 4.0):
            assert np.all(np.diff(np.exp(-k / (1 + grid)) / grid) <= 0), k
        for k in (6.0, 8.0, 11.0):
            signs = np.sign(np.diff(np.exp(-k / (1 + grid)) / grid))
            flips = [i for i in range(len(signs) - 1)
                     if signs[i] != 0 and signs[i + 1] != 0
                     and signs[i] != signs[i + 1]]
            assert len(flips) == 2, (k, len(flips))
            s, st = s_pair(k)
            for flip, root in zip(flips, (s, st)):
                assert abs(grid[flip + 1] - root) <= 0.05 + 1e-12, (k, root)


def test_criterion_5_operator_sanity():
    with criterion("5 (operator vs closed-form integrals)"):
        rule = make_rule(129)
        region = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0))
        problem = ProblemSpec(DirichletNeumann(), DirichletNeumann(),
                              parse_expr("1"), parse_expr("1"), region, "nine")
        t = rule.nodes
        zero = np.zeros(rule.n)
        t1, _ = DiscreteOperator(problem, rule).apply(zero, zero)
        assert float(np.max(np.abs(t1 - (t - t**2 / 2.0)))) <= 1e-4
        assert abs(t1[-1] - 0.5) <= 1e-12

        kappa = 2.0
        rcd_region = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0),
                                window=(0.0, 0.0))
        for beta in (1.0, 0.37):
            rcd_problem = ProblemSpec(ReactionConvectionDiffusion(beta),
                                      ReactionConvectionDiffusion(beta),
                                      parse_expr(f"{kappa}"),
                                      parse_expr(f"{kappa}"), rcd_region, "thm53")
            t1, _ = DiscreteOperator(rcd_problem, rule).apply(zero, zero)
            target = kappa * (t + beta * (1.0 - np.exp((t - 1.0) / beta)))
            assert float(np.max(np.abs(t1 - target))) <= 1e-4, beta
            assert abs(t1[-1] - kappa) <= 1e-12, beta


def test_criterion_6_cone_invariance_suite():
    with criterion("6 (cone invariance on randomized inputs)"):
        rule = make_rule(129)
        region = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0))
        pool = [parse_expr(src) for src in (
            "4.5 + 5*phi(x1)*psi(x2) - 4*capphi(x1)",
            "0.5 + 5*phi(x1)*psi(x2)",
            "exp(x2^2/32) + 0.1*cos(pi*x1)",
            "1 + x1*x2/25")]
        rng = np.random.default_rng(314159)
        failures = 0
        for trial in range(100):
            f = pool[trial % len(pool)]
            problem = ProblemSpec(DirichletNeumann(), DirichletNeumann(),
                                  f, f, region, "nine")
            t1, t2 = DiscreteOperator(problem, rule).apply(
                rng.uniform(0.0, 5.0, rule.n), rng.uniform(0.0, 5.0, rule.n))
            image = GridFunction(rule, t2)
            slack = min_window(image, 0.5) - 0.5 * sup_norm(image)
            ok = (float(np.min(t1)) >= 0.0
                  and float(np.min(t2)) >= 0.0
                  and slack >= -1e-10)
            if not ok:
                failures += 1
        assert failures == 0


def test_criterion_7_multi_solution_desk_run(tmp_path):
    with criterion("7 (at least three distinct localized solutions)"):
        started = time.monotonic()
        path = write_config(tmp_path, nine_config())
        exit_code = main(["solve", path, "--out", str(tmp_path)])
        elapsed = time.monotonic() - started
        assert exit_code == 0
        report = read_report(tmp_path)
        sols = report["solutions"]
        assert len(sols) >= 3
        labels = set()
        for entry in sols:
            assert entry["residual"] <= 1e-8
            assert entry["sup_norms"][0] > 1e-3
            assert entry["sup_norms"][1] > 1e-3
            if entry["region_index"] is not None:
                labels.add(entry["region"])
        assert len(labels) >= 3
        # pairwise sup distance from the emitted CSVs
        curves = []
        for entry in sols:
            rows = (tmp_path / "solutions" / entry["csv"]).read_text()
            data = np.array([[float(x) for x in line.split(",")]
                             for line in rows.strip().splitlines()[1:]])
            curves.append(data[:, 1:])
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                dist = float(np.max(np.abs(curves[i] - curves[j])))
                assert dist > 5e-3, (sols[i]["seed_id"], sols[j]["seed_id"])
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_8_closing_example_constants(tmp_path):
    with criterion("8 (closing-example diffusion constants)"):
        from conecert.rcd import RcdParams, build_params, diffusion_thresholds
        derived = build_params(RcdParams(beta1=1.0, beta2=1.0, k1=8.0, k2=10.0,
                                         r1=8.0, r2=10.0, m1=3.0, m2=1.0))
        rhs1, rhs2 = diffusion_thresholds(derived)
        printed1 = ((3.0 + 2.0 * math.sqrt(2.0))
                    / (9.0 * (4.0 + math.sqrt(15.0)))
                    * math.exp(4.0 / (2.0 + math.sqrt(2.0))))
        printed2 = ((4.0 + math.sqrt(15.0))
                    / (21.0 * (3.0 + 2.0 * math.sqrt(2.0)))
                    * math.exp(10.0 / (5.0 + math.sqrt(15.0))))
        assert abs(rhs1 - printed1) <= 1e-10
        assert abs(rhs2 - printed2) <= 1e-10
        # the full pipeline passes at beta1 = beta2 = 1 (checked at run time)
        path = write_config(tmp_path, closing_rcd_config())
        assert main(["rcd", path, "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "rcd_report.json")
        entry = next(v for v in report["verdicts"]
                     if v["condition_id"] == "ineq_5_16")
        assert entry["status"] == "Pass"


def test_criterion_9_verify_determinism(tmp_path):
    with criterion("9 (byte-identical reports)"):
        path = write_config(tmp_path, nine_config())
        (tmp_path / "first").mkdir()
        (tmp_path / "second").mkdir()
        assert main(["verify", path, "--out", str(tmp_path / "first")]) == 0
        assert main(["verify", path, "--out", str(tmp_path / "second")]) == 0
        first = (tmp_path / "first" / "report.json").read_bytes()
        second = (tmp_path / "second" / "report.json").read_bytes()
        assert first == second


def test_criterion_10_newton_first_finds_every_promised_region():
    with criterion("10 (Newton-first finds every promised region)"):
        # nine promises 9 regions, the closing system 4 (S-S, S-M, M-S,
        # M-M); any other fixed point must lie outside the ambient box
        for make, count in ((nine_config, 9), (closing_problem_config, 4)):
            problem = build_problem(make()["problem"])
            promised = {str(label) for label
                        in check_theorem(problem).promised.regions}
            assert len(promised) == count
            sols = multi_start(problem, SolverParams(grid_n=513,
                                                     picard_steps=1))
            found = {str(sol.region) for sol in sols}
            assert promised <= found, sorted(promised - found)
            assert found - promised <= {"outside-ambient"}, sorted(found)
