import gc
import logging
import math
import types
import warnings

import numpy as np
import pytest

from conecert import kernels, solver
from conecert.cli import build_problem
from conecert.conespace import GridFunction, RegionSpec, classify, sup_norm
from conecert.errors import ConfigError
from conecert.expr import EvalError, dual_program, float_flags, parse_expr
from conecert.hypotheses import BoxIneq, grid_oracle
from conecert.interval import Interval
from conecert.kernels import (DirichletNeumann, QuadratureRule,
                              ReactionConvectionDiffusion, green_matrix,
                              make_rule)
from conecert.solver import (DiscreteOperator, ProblemSpec, SolverParams,
                             multi_start, residual, seed_levels,
                             solve_from)
from conftest import F_SYMMETRIC_2, closing_problem_config, nine_config

RULE = make_rule(129)


def rule_for(n: int, scheme: str) -> QuadratureRule:
    """make_rule(n), or composite Simpson on its nodes (odd n): the operator
    takes any rule, and Simpson's non-uniform weights check that the weights
    are applied node by node."""
    if scheme == "trapezoid":
        return make_rule(n)
    h = 1.0 / (n - 1)
    weights = np.full(n, 2.0 * h / 3.0)
    weights[1::2] = 4.0 * h / 3.0
    weights[0] = weights[-1] = h / 3.0
    return QuadratureRule(np.linspace(0.0, 1.0, n), weights)


def dirichlet_problem(f1_src, f2_src, region=None, mode="nine"):
    region = region or RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0),
                                  b=(2.0, 2.0))
    return ProblemSpec(DirichletNeumann(), DirichletNeumann(),
                       parse_expr(f1_src), parse_expr(f2_src), region, mode)


def const_fn(level, rule=RULE):
    return GridFunction(rule, np.full(rule.n, float(level)))


# ---------------------------------------------------------------------------
# DiscreteOperator.apply (T) / residual

def test_apply_T_constant_nonlinearity_matches_closed_form():
    problem = dirichlet_problem("1", "1")
    zero = np.zeros(RULE.n)
    t1, t2 = DiscreteOperator(problem, RULE).apply(zero, zero)
    expected = RULE.nodes - RULE.nodes**2 / 2.0
    assert float(np.max(np.abs(t1 - expected))) <= 1e-4
    assert float(t1[-1]) == pytest.approx(0.5, abs=1e-12)


def test_apply_T_zero_nonlinearity():
    problem = dirichlet_problem("0", "0")
    one = np.ones(RULE.n)
    t1, t2 = DiscreteOperator(problem, RULE).apply(one, one)
    assert np.all(t1 == 0.0)
    assert np.all(t2 == 0.0)


def test_apply_T_rcd_constant_matches_row_integral():
    kappa = 2.0
    beta = 1.0
    region = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0))
    problem = ProblemSpec(ReactionConvectionDiffusion(beta),
                          ReactionConvectionDiffusion(beta),
                          parse_expr(f"{kappa}"), parse_expr(f"{kappa}"),
                          region, "thm53")
    zero = np.zeros(RULE.n)
    t1, _ = DiscreteOperator(problem, RULE).apply(zero, zero)
    expected0 = kappa * beta * (1.0 - math.exp(-1.0 / beta))
    assert float(t1[0]) == pytest.approx(expected0, abs=1e-4)


def test_apply_T_rejects_mismatched_rules():
    problem = dirichlet_problem("1", "1")
    with pytest.raises(ValueError, match="share one quadrature rule"):
        residual(problem, const_fn(0.0), const_fn(0.0, make_rule(65)))


def test_apply_T_eval_error_names_grid_node():
    problem = dirichlet_problem("1/(x1 - 2)", "1")
    op = DiscreteOperator(problem, RULE)
    values = np.ones(RULE.n)
    values[7] = 2.0  # the only node where the denominator vanishes
    with pytest.raises(EvalError) as err:
        op.apply(values, np.ones(RULE.n))
    assert "grid node 7" in err.value.message
    # nonlinearity, which the solver's lanes call, leaves the node unnamed
    with pytest.raises(EvalError) as err:
        op.nonlinearity(values, np.ones(RULE.n))
    assert "grid node" not in err.value.message
    # in a stack of states the node is named within its lane
    stacked = np.ones((3, RULE.n))
    stacked[1, 7] = 2.0
    with pytest.raises(EvalError) as err:
        op.apply(stacked, np.ones((3, RULE.n)))
    assert "grid node 7" in err.value.message


def test_residual_zero_function_with_unit_forcing():
    problem = dirichlet_problem("1", "0")
    u = const_fn(0.0)
    assert residual(problem, u, u) == pytest.approx(0.5, abs=1e-12)


def test_residual_at_discrete_fixed_point_is_roundoff():
    problem = dirichlet_problem("1", "1")
    zero = np.zeros(RULE.n)
    t1, t2 = DiscreteOperator(problem, RULE).apply(zero, zero)
    # T is constant in u here
    assert residual(problem, GridFunction(RULE, t1), GridFunction(RULE, t2)) <= 1e-14


def test_residual_grows_linearly_under_perturbation(nine_problem):
    params = SolverParams()
    sols = multi_start(nine_problem, params, seed_list=["S-S"])
    assert len(sols) == 1
    sol = sols[0]
    eps = 1e-4
    u1 = GridFunction(RULE, sol.u1.values + eps)
    u2 = GridFunction(RULE, sol.u2.values + eps)
    res = residual(nine_problem, u1, u2)
    # the Dirichlet kernel vanishes at t=0, so the shift survives exactly there
    assert eps * 0.99 <= res <= 30 * eps


# ---------------------------------------------------------------------------
# solve_from / multi_start

def test_solve_from_small_region_solution(nine_problem):
    seed = GridFunction(RULE, 0.2 * np.minimum(2 * RULE.nodes, 1.0))
    sol = solve_from(nine_problem, seed, seed, SolverParams(), seed_id="s")
    assert sol is not None
    assert sol.residual <= 1e-8
    assert str(sol.region) == "S-S"
    assert sup_norm(sol.u1) < 0.5


def test_solve_rejects_negative_seeds(nine_problem):
    bad = GridFunction(RULE, -np.ones(RULE.n))
    with pytest.raises(ValueError):
        solve_from(nine_problem, bad, bad, SolverParams())


def test_zero_nonlinearity_single_trivial_solution():
    # T is identically zero, so every seed collapses onto u = 0 (up to the
    # solver tolerance) and dedupe keeps a single representative
    problem = dirichlet_problem("0", "0")
    sols = multi_start(problem, SolverParams())
    assert len(sols) == 1
    assert sup_norm(sols[0].u1) <= 1e-8
    assert sup_norm(sols[0].u2) <= 1e-8
    assert sols[0].nontrivial == (False, False)
    assert sols[0].residual <= 1e-8


def test_multi_start_symmetric_example(nine_problem):
    sols = multi_start(nine_problem, SolverParams())
    assert len(sols) >= 3
    labels = {str(s.region) for s in sols}
    assert len(labels) >= 3
    for sol in sols:
        assert sol.residual <= 1e-8
        assert sup_norm(sol.u1) > 1e-3 and sup_norm(sol.u2) > 1e-3
        assert sol.nontrivial == (True, True)


@pytest.mark.parametrize("picard_steps", [1, 200])
@pytest.mark.parametrize("system", ["nine", "closing_system"])
def test_a_solution_reports_the_residual_of_its_state(nine_problem, system,
                                                      picard_steps):
    # the reported residual is the one its lane settled with, and bit for
    # bit the residual of the reported state: nothing moves a settled state
    problem = nine_problem if system == "nine" \
        else build_problem(closing_problem_config()["problem"])
    sols = multi_start(problem, SolverParams(picard_steps=picard_steps))
    assert sols
    for sol in sols:
        assert sol.residual == residual(problem, sol.u1, sol.u2)


def test_multi_start_dedupe_soundness(nine_problem):
    # each kept solution lies beyond the dedupe distance of every one kept
    # before it: DEDUPE_TOL times max(1, sup norm of the earlier one)
    sols = multi_start(nine_problem, SolverParams())
    for i, a in enumerate(sols):
        delta = solver.DEDUPE_TOL * max(1.0, sup_norm(a.u1), sup_norm(a.u2))
        for b in sols[i + 1:]:
            dist1 = float(np.max(np.abs(a.u1.values - b.u1.values)))
            dist2 = float(np.max(np.abs(a.u2.values - b.u2.values)))
            assert max(dist1, dist2) > delta


def test_multi_start_dedupe_merges_seeds_on_one_fixed_point(nine_problem,
                                                            monkeypatch):
    # Picard first, all nine seeds converge, onto four fixed points
    params = SolverParams(picard_steps=200)
    sols = multi_start(nine_problem, params)
    assert [(s.seed_id, str(s.region)) for s in sols] == [
        ("B-B", "B-B"), ("B-S", "B-S"), ("S-B", "S-B"), ("S-S", "S-S")]
    # a zero distance merges only bit-identical iterates: dedupe is off
    monkeypatch.setattr(solver, "DEDUPE_TOL", 0.0)
    assert len(multi_start(nine_problem, params)) == 9


def test_dedupe_does_not_scale_with_the_ambient_bound(nine_problem):
    # the nine fixed points do not depend on c, and neither may the dedupe
    # distance: at c = 5000 a distance of a thousandth of c (5) would merge
    # fixed points whose sup norms are 0.25 ... 4.713 into one
    def sup_norms(problem):
        sols = multi_start(problem, SolverParams(picard_steps=1))
        return sorted(round(max(sup_norm(s.u1), sup_norm(s.u2)), 3)
                      for s in sols)

    region = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5000.0, 5000.0),
                        b=(2.0, 2.0))
    loose = ProblemSpec(nine_problem.kernel1, nine_problem.kernel2,
                        nine_problem.f1, nine_problem.f2, region, "nine")
    norms = sup_norms(nine_problem)
    assert len(norms) == 9 and norms[0] == 0.25 and norms[-1] == 4.713
    assert sup_norms(loose) == norms


def test_multi_start_seed_list_filter(nine_problem):
    sols = multi_start(nine_problem, SolverParams(), seed_list=["S-S", "B-B"])
    assert {s.seed_id for s in sols} <= {"S-S", "B-B"}
    with pytest.raises(ConfigError):
        multi_start(nine_problem, SolverParams(), seed_list=["X-Y"])


def test_multi_start_requires_odd_grid(nine_problem):
    with pytest.raises(ConfigError, match="grid_n = 128 .* t = 0.5"):
        multi_start(nine_problem, SolverParams(grid_n=128))


def test_solve_from_checks_the_window_before_solving(nine_problem,
                                                     monkeypatch):
    # the seeds' grid has no node at t = 1/2: the ConfigError comes before
    # the operator is built, for a seed that would converge (S-S) as for
    # one that would not
    rule = make_rule(128)
    calls = counted_calls(monkeypatch, "apply")
    for level in (0.25, 3.0):
        seed = GridFunction(rule, level * np.minimum(2 * rule.nodes, 1.0))
        with pytest.raises(ConfigError, match="grid_n = 128 .* t = 0.5"):
            solve_from(nine_problem, seed, seed, SolverParams(grid_n=128))
    assert calls == {"apply": 0}


def test_newton_first_at_grid_n_99_finds_every_region(nine_problem):
    # linspace's node 49 of 99 is 1/2 minus an ulp; make_rule's is 1/2
    sols = multi_start(nine_problem, SolverParams(grid_n=99, picard_steps=1))
    assert sorted(str(sol.region) for sol in sols) == \
        sorted(f"{a}-{b}" for a in "BMS" for b in "BMS")


def test_classification_stable_under_refinement(nine_problem):
    coarse = multi_start(nine_problem, SolverParams(grid_n=129))
    fine_rule = make_rule(257)
    for sol in coarse:
        seed1 = GridFunction(fine_rule,
                             np.interp(fine_rule.nodes, RULE.nodes, sol.u1.values))
        seed2 = GridFunction(fine_rule,
                             np.interp(fine_rule.nodes, RULE.nodes, sol.u2.values))
        fine = solve_from(nine_problem, seed1, seed2, SolverParams(grid_n=257),
                          seed_id=sol.seed_id)
        assert fine is not None
        assert str(fine.region) == str(sol.region)


# ---------------------------------------------------------------------------
# the semiseparable operator


rcd = ReactionConvectionDiffusion

# beta below 1/EXP_SPAN = 2e-3 splits the RCD generators into blocks; the
# mixed pairs give the two components different block partitions
ORACLE_KERNELS = {
    "min": (DirichletNeumann(), DirichletNeumann()),
    "rcd1": (rcd(1.0), rcd(1.0)),
    "rcd0.3": (rcd(0.3), rcd(0.3)),
    "rcd0.05": (rcd(0.05), rcd(0.05)),
    "rcd1e-3": (rcd(1e-3), rcd(1e-3)),
    "rcd1e-4": (rcd(1e-4), rcd(1e-4)),
    "rcd1,1e-4": (rcd(1.0), rcd(1e-4)),
    "rcd1e-3,0.05": (rcd(1e-3), rcd(0.05)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel_pair", ORACLE_KERNELS.values(),
                         ids=ORACLE_KERNELS.keys())
@pytest.mark.parametrize("n", [3, 5, 129, 1025])
@pytest.mark.parametrize("scheme", ["trapezoid", "simpson"])
def test_apply_matches_dense_oracle(kernel_pair, n, scheme):
    # f_j = x_j, so T_j v = G_j W v_j against the dense Green matrix
    k1, k2 = kernel_pair
    mode = "nine" if isinstance(k1, DirichletNeumann) else "thm53"
    region = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0))
    problem = ProblemSpec(k1, k2, parse_expr("x1"), parse_expr("x2"),
                          region, mode)
    rule = rule_for(n, scheme)
    op = DiscreteOperator(problem, rule)
    rng = np.random.default_rng(n)
    for low in (0.0, -1.0):  # positive and signed f
        v = rng.uniform(low, 1.0, (2, n))
        got = op.apply(v[0], v[1])
        for j, kernel in enumerate(kernel_pair):
            dense = green_matrix(kernel, rule.nodes, rule.nodes) \
                * rule.weights @ v[j]
            scale = float(np.max(np.abs(dense)))
            assert float(np.max(np.abs(got[j] - dense))) <= 1e-12 * scale


def test_operator_holds_no_dense_matrix(nine_problem, monkeypatch):
    def dense(*_args):
        raise AssertionError("dense Green matrix built")

    monkeypatch.setattr(kernels, "green_matrix", dense)
    monkeypatch.setattr(solver, "green_matrix", dense)
    op = DiscreteOperator(nine_problem, RULE)
    arrays = []
    for attr in vars(op).values():
        items = attr if isinstance(attr, (tuple, list)) else (attr,)
        arrays += [x for x in items if isinstance(x, np.ndarray)]
    # two rows of n nodes each, the Newton step's march padded to whole
    # chunks of op.width nodes
    assert arrays and max(x.size for x in arrays) <= 2 * (RULE.n + op.width)
    sols = multi_start(nine_problem, SolverParams(grid_n=129, picard_steps=1))
    assert sorted(str(s.region) for s in sols) == sorted(
        f"{a}-{b}" for a in "SMB" for b in "SMB")


def test_newton_first_converges_on_a_fine_grid(nine_problem):
    # 16385 nodes: two dense kernel matrices would take 4.3 GB
    params = SolverParams(grid_n=16385, picard_steps=1)
    sols = multi_start(nine_problem, params, seed_list=["B-B"])
    assert len(sols) == 1
    assert str(sols[0].region) == "B-B"
    assert sols[0].residual <= 1e-8


# the operator's methods on a stacked (S, 2, n) state: RCD at beta = 1/600
# and 1e-4 cuts its generators into blocks, so the block carry is stacked too
STACKED_KERNELS = {
    "min": (DirichletNeumann(), DirichletNeumann()),
    "rcd1/600": (rcd(1 / 600), rcd(1 / 600)),
    "rcd1,1e-4": (rcd(1.0), rcd(1e-4)),
}


@pytest.mark.parametrize("kernel_pair", STACKED_KERNELS.values(),
                         ids=STACKED_KERNELS.keys())
def test_stacked_operator_is_bit_identical_to_each_state(kernel_pair):
    k1, k2 = kernel_pair
    mode = "nine" if isinstance(k1, DirichletNeumann) else "thm53"
    region = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0))
    problem = ProblemSpec(k1, k2, parse_expr("1 + x1*x2 - cos(x1)"),
                          parse_expr("exp(-x2)*x1 + 0.5"), region, mode)
    op = DiscreteOperator(problem, RULE)
    v = np.random.default_rng(3).uniform(0.0, 2.0, (3, 2, RULE.n))
    f = op.nonlinearity(v[:, 0], v[:, 1])
    assert f.shape == v.shape
    stacked = (f, op.apply(v[:, 0], v[:, 1]), op.residual_values(v),
               op.jacobian(v[:, 0], v[:, 1]))
    for lane in range(3):
        v1, v2 = v[lane]
        alone = (op.nonlinearity(v1, v2), op.apply(v1, v2),
                 op.residual_values(v[lane]), op.jacobian(v1, v2))
        for got, want in zip(stacked[:3], alone[:3]):
            assert np.array_equal(got[lane], want)
        for got, want in zip(stacked[3], alone[3]):
            assert np.array_equal(got[lane], want)


def _sorted_solutions(problem, params, seed_ids=None):
    """solve_from seed by seed, deduplicated as multi_start does."""
    rule = make_rule(params.grid_n)
    levels1, levels2 = seed_levels(problem)
    prof1 = solver._seed_profile(problem.kernel1, rule.nodes)
    prof2 = solver._seed_profile(problem.kernel2, rule.nodes)
    kept = []
    for seed_id in sorted(seed_ids or (f"{a}-{b}" for a in levels1
                                       for b in levels2)):
        tag1, tag2 = seed_id.split("-")
        sol = solve_from(problem, GridFunction(rule, levels1[tag1] * prof1),
                         GridFunction(rule, levels2[tag2] * prof2), params,
                         seed_id=seed_id)
        if sol is not None and not any(
                max(np.max(np.abs(sol.u1.values - k.u1.values)),
                    np.max(np.abs(sol.u2.values - k.u2.values)))
                <= solver.DEDUPE_TOL * max(1.0, sup_norm(k.u1), sup_norm(k.u2))
                for k in kept):
            kept.append(sol)
    return kept


def assert_same_solutions(got, want, tol=0.0):
    assert [(s.seed_id, str(s.region), s.iterations) for s in got] == \
        [(s.seed_id, str(s.region), s.iterations) for s in want]
    for a, b in zip(got, want):
        assert np.max(np.abs(a.u1.values - b.u1.values)) <= tol
        assert np.max(np.abs(a.u2.values - b.u2.values)) <= tol


@pytest.mark.parametrize("picard_steps", [200, 1])
@pytest.mark.parametrize("grid_n", [129, 513])
@pytest.mark.parametrize("system", ["nine", "closing_system", "hybrid"])
def test_multi_start_agrees_with_solve_from_seed_by_seed(
        nine_problem, hybrid_problem, system, grid_n, picard_steps):
    problem = {"nine": nine_problem, "hybrid": hybrid_problem}.get(system) \
        or build_problem(closing_problem_config()["problem"])
    params = SolverParams(grid_n=grid_n, picard_steps=picard_steps)
    assert_same_solutions(multi_start(problem, params),
                          _sorted_solutions(problem, params), tol=1e-12)


def test_multi_start_with_no_seeds(nine_problem):
    assert multi_start(nine_problem, SolverParams(), seed_list=[]) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("failure", ["eval-error", "non-finite",
                                     "nan-derivatives"])
def test_a_lane_failure_drops_only_its_seed(nine_problem, monkeypatch, caplog,
                                            failure):
    # the B-B seed is the one state with x1 = x2 = 3 (at t >= 1/2): there
    # its f raises, its f is infinite, or (Newton first) its derivatives are
    # NaN, which makes its Newton step non-finite
    def marked(x1, x2):
        return (np.asarray(x1) == 3.0) & (np.asarray(x2) == 3.0)

    compile_program = solver.float_program

    def float_program(e):
        program = compile_program(e)

        def run(x1, x2):
            hit = marked(x1, x2)
            if failure == "eval-error" and hit.any():
                raise EvalError(0, "crafted failure")
            out = np.array(np.broadcast_to(program(x1, x2), hit.shape))
            if failure == "non-finite":
                out[hit] = np.inf
            return out
        return run

    original_jacobian = DiscreteOperator.jacobian

    def jacobian(self, v1, v2):
        derivatives = original_jacobian(self, v1, v2)
        hit = marked(v1[..., -1], v2[..., -1])
        for d in derivatives:
            d[hit] = np.nan
        return derivatives

    if failure == "nan-derivatives":
        monkeypatch.setattr(DiscreteOperator, "jacobian", jacobian)
    else:
        monkeypatch.setattr(solver, "float_program", float_program)
    params = SolverParams(picard_steps=1 if failure == "nan-derivatives"
                          else 200)
    others = [f"{a}-{b}" for a in "SMB" for b in "SMB" if a + b != "BB"]
    with caplog.at_level(logging.INFO, logger="conecert.solver"):
        sols = multi_start(nine_problem, params)
    assert_same_solutions(sols, multi_start(nine_problem, params,
                                            seed_list=others))
    assert_same_solutions(sols, _sorted_solutions(nine_problem, params,
                                                  others))
    step_logs = [m for m in caplog.messages if "Newton step" in m]
    assert step_logs == (["seed B-B: Newton step not finite"]
                         if failure == "nan-derivatives" else [])


def test_newton_first_closing_system_warns_nothing():
    # the full first Newton step of its B-B, B-S and S-B seeds raises the
    # residual about fivefold, and a shorter trial step of B-S and S-B makes
    # f overflow; numpy must not warn about either on the way
    problem = build_problem(closing_problem_config()["problem"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sols = multi_start(problem, SolverParams(grid_n=513, picard_steps=1))
    assert {str(s.region) for s in sols} >= {"S-S", "S-M", "M-S", "M-M"}


def test_overflowing_derivatives_end_their_seeds(caplog):
    # f1 stays within 1e308 at every node, but its exact derivative
    # 1e318*cos(1e10*x1) overflows: the dual program raises EvalError, and
    # every seed ends quietly, with no FloatingPointError and no warning
    problem = dirichlet_problem("1e308*sin(1e10*x1)", F_SYMMETRIC_2)
    params = SolverParams(grid_n=33, picard_steps=1)
    op = DiscreteOperator(problem, make_rule(params.grid_n))
    v = np.ones((2, params.grid_n))
    with pytest.raises(EvalError, match="overflow"):
        op.jacobian(v[0], v[1])
    with warnings.catch_warnings(), \
            caplog.at_level(logging.INFO, logger="conecert.solver"):
        warnings.simplefilter("error")
        assert multi_start(problem, params) == []
    assert "Newton step not finite" in caplog.text


@pytest.mark.filterwarnings("error")
def test_a_square_root_ends_each_newton_first_seed_at_t_0(caplog):
    # x1^0.5 has an infinite derivative at u1 = 0, which every
    # Dirichlet-Neumann state has at t = 0: the Jacobian raises there, so
    # each Newton-first seed ends with a non-finite step
    problem = dirichlet_problem("1 + x1^0.5", F_SYMMETRIC_2)
    params = SolverParams(grid_n=33, picard_steps=1)
    op = DiscreteOperator(problem, make_rule(params.grid_n))
    v1 = np.linspace(0.0, 1.0, params.grid_n)
    with pytest.raises(EvalError, match="divide by zero"):
        op.jacobian(v1, v1)
    assert np.isfinite(op.jacobian(v1[1:], v1[1:])).all()
    with caplog.at_level(logging.INFO, logger="conecert.solver"):
        assert multi_start(problem, params) == []
    assert sorted(caplog.messages) == [
        f"seed {a}-{b}: Newton step not finite" for a in "BMS" for b in "BMS"]


@pytest.mark.parametrize("grid_n", [129, 513])
def test_an_f_steep_at_u_0_needs_picard_first(nine_problem, caplog, grid_n):
    # the trade-off of Newton first: x1^0.5 has an infinite slope at
    # u1 = 0, where every state sits at t = 0, so each Newton-first seed's
    # Jacobian raises and the seed ends; Picard first reaches 4 of the 9
    # regions before its first Newton step
    f2 = parse_expr(F_SYMMETRIC_2 + " + 0.02*x1^0.5")
    problem = ProblemSpec(DirichletNeumann(), DirichletNeumann(),
                          nine_problem.f1, f2, nine_problem.region, "nine")
    with caplog.at_level(logging.INFO, logger="conecert.solver"):
        assert multi_start(problem, SolverParams(grid_n=grid_n)) == []
    assert len(caplog.messages) == 9
    assert all(m.endswith(": Newton step not finite")
               for m in caplog.messages)
    sols = multi_start(problem, SolverParams(grid_n=grid_n, picard_steps=200))
    assert sorted(str(s.region) for s in sols) == [
        "B-B", "B-S", "S-B", "S-S"]


# ---------------------------------------------------------------------------
# the line search


def count_newton_steps(monkeypatch):
    steps = []
    original = DiscreteOperator.newton_step

    def newton_step(self, v, r):
        steps.append(len(v))
        return original(self, v, r)

    monkeypatch.setattr(DiscreteOperator, "newton_step", newton_step)
    return steps


def test_line_search_ends_diverging_closing_system_seeds(monkeypatch):
    # full steps sent B-B, B-M and B-S to fixed points outside the ambient
    # box and S-B on a divergence through all 25 Newton steps; cut back,
    # every seed that converges lands in a promised region
    steps = count_newton_steps(monkeypatch)
    problem = build_problem(closing_problem_config()["problem"])
    sols = multi_start(problem, SolverParams(grid_n=513, picard_steps=1))
    assert len(steps) <= 10
    assert sorted(str(s.region) for s in sols) == ["M-M", "M-S", "S-M", "S-S"]


def test_line_search_takes_a_shorter_step_when_the_full_one_fails(
        monkeypatch):
    # closing_system's S-B seed at 513 nodes, Newton first: the full first
    # step raises the residual, and a shorter one lowers it
    events = []
    original_apply = DiscreteOperator.apply

    def apply(self, v1, v2, f=None):
        tv = original_apply(self, v1, v2, f)
        events.append(float(np.max(np.abs(np.array((v1[0], v2[0])) - tv[0]))))
        return tv

    original_step = DiscreteOperator.newton_step

    def newton_step(self, v, r):
        events.append("step")
        return original_step(self, v, r)

    monkeypatch.setattr(DiscreteOperator, "apply", apply)
    monkeypatch.setattr(DiscreteOperator, "newton_step", newton_step)
    problem = build_problem(closing_problem_config()["problem"])
    sols = multi_start(problem, SolverParams(grid_n=513, picard_steps=1),
                       seed_list=["S-B"])
    assert [str(s.region) for s in sols] == ["S-M"]
    start, step = events[:2]
    trials = events[2:events.index("step", 2)]
    assert step == "step" and len(trials) >= 2
    assert trials[0] > start
    assert trials[-1] < (1.0 - solver.ARMIJO * 0.5 ** (len(trials) - 1)) * start


def test_a_failed_line_search_ends_the_seed(nine_problem, monkeypatch):
    # a zero step leaves the residual where it was, so every trial step is
    # rejected: the seed ends after one Newton step and MAX_HALVINGS + 1
    # trial evaluations
    steps = []
    applied = []
    original_apply = DiscreteOperator.apply

    def apply(self, *args):
        applied.append(args)
        return original_apply(self, *args)

    def newton_step(self, v, r):
        steps.append(len(v))
        return np.zeros_like(r)

    monkeypatch.setattr(DiscreteOperator, "apply", apply)
    monkeypatch.setattr(DiscreteOperator, "newton_step", newton_step)
    seed = GridFunction(RULE, 1.5 * np.minimum(2 * RULE.nodes, 1.0))
    assert solve_from(nine_problem, seed, seed, SolverParams(picard_steps=1),
                      seed_id="M-M") is None
    assert steps == [1]
    assert len(applied) == 1 + solver.MAX_HALVINGS + 1


@pytest.mark.parametrize("grid_n", [129, 1025])
def test_newton_first_hybrid_keeps_its_region_set(hybrid_problem, monkeypatch,
                                                  grid_n):
    steps = count_newton_steps(monkeypatch)
    sols = multi_start(hybrid_problem,
                       SolverParams(grid_n=grid_n, picard_steps=1))
    assert [(s.seed_id, str(s.region)) for s in sols] == [
        ("B-HI", "outside-ambient")]
    assert len(steps) <= 10


# ---------------------------------------------------------------------------
# the Newton step's march


def dense_newton_step(problem, rule, v1, v2):
    """Reference: J delta = v - T(v) with the dense 2n x 2n Jacobian
    J = I - K Df assembled from green_matrix."""
    n = rule.n
    k1 = green_matrix(problem.kernel1, rule.nodes, rule.nodes) * rule.weights
    k2 = green_matrix(problem.kernel2, rule.nodes, rule.nodes) * rule.weights
    op = DiscreteOperator(problem, rule)
    t1, t2 = op.apply(v1, v2)
    d11, d12, d21, d22 = op.jacobian(v1, v2)
    jac = np.eye(2 * n) - np.block([[k1 * d11, k1 * d12],
                                    [k2 * d21, k2 * d22]])
    step = np.linalg.solve(jac, np.concatenate((v1 - t1, v2 - t2)))
    return step[:n], step[n:]


def closing_problem(beta1, beta2):
    """closing_system with its beta = 1 coefficients and the kernels' betas
    set; a beta below 1/EXP_SPAN = 2e-3 cuts its generators into blocks."""
    cfg = closing_problem_config()["problem"]
    cfg["kernel1"]["beta"], cfg["kernel2"]["beta"] = beta1, beta2
    return build_problem(cfg)


@pytest.mark.parametrize("grid_n,scheme", [(129, "trapezoid"),
                                           (513, "trapezoid"),
                                           (129, "simpson")])
@pytest.mark.parametrize("system", [
    "nine", "closing_system", (1e10, 1e10), (1e13, 1e13), (1e17, 1e17),
    (1e100, 1e100), (1e-3, 1e-3), (1e-4, 1e-4), (1.0, 1e-4)],
    ids=lambda system: system if isinstance(system, str)
    else "closing_system-beta{:g}-{:g}".format(*system))
def test_newton_step_matches_dense_solve(nine_problem, system, grid_n, scheme):
    # a pair is closing_system's kernel betas: the inverse kernel matrix
    # has entries of about beta / h^2, so a solve multiplied through by it
    # loses Df from beta = 1e10 on; the integral form keeps it at every
    # beta, across 2 to 20 generator blocks too
    problem = nine_problem if system == "nine" \
        else closing_problem(*system) if isinstance(system, tuple) \
        else build_problem(closing_problem_config()["problem"])
    rule = rule_for(grid_n, scheme)
    op = DiscreteOperator(problem, rule)
    rng = np.random.default_rng(grid_n)
    levels1, levels2 = seed_levels(problem)
    for tag in ("S", "M", "B"):
        v1 = levels1[tag] * rng.uniform(0.5, 1.5, grid_n)
        v2 = levels2[tag] * rng.uniform(0.5, 1.5, grid_n)
        v = np.array((v1, v2))
        step1, step2 = op.newton_step(v, v - op.apply(v1, v2))
        want1, want2 = dense_newton_step(problem, rule, v1, v2)
        scale = max(np.max(np.abs(want1)), np.max(np.abs(want2)))
        assert np.max(np.abs(step1 - want1)) <= 1e-12 * scale
        assert np.max(np.abs(step2 - want2)) <= 1e-12 * scale


@pytest.mark.parametrize("system", ["nine", "closing_system"])
def test_stacked_newton_step_matches_dense_solve(nine_problem, system):
    problem = nine_problem if system == "nine" \
        else build_problem(closing_problem_config()["problem"])
    op = DiscreteOperator(problem, RULE)
    rng = np.random.default_rng(5)
    levels1, levels2 = seed_levels(problem)
    v = np.array([(levels1[tag] * rng.uniform(0.5, 1.5, RULE.n),
                   levels2[tag] * rng.uniform(0.5, 1.5, RULE.n))
                  for tag in ("S", "M", "B")])
    steps = op.newton_step(v, v - op.apply(v[:, 0], v[:, 1]))
    for (v1, v2), (step1, step2) in zip(v, steps):
        want1, want2 = dense_newton_step(problem, RULE, v1, v2)
        scale = max(np.max(np.abs(want1)), np.max(np.abs(want2)))
        assert np.max(np.abs(step1 - want1)) <= 1e-12 * scale
        assert np.max(np.abs(step2 - want2)) <= 1e-12 * scale


def trapezoid(n):
    """The trapezoid rule on n >= 2 uniform nodes (make_rule wants 3)."""
    weights = np.full(n, 1.0 / (n - 1))
    weights[[0, -1]] /= 2.0
    return QuadratureRule(np.linspace(0.0, 1.0, n), weights)


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("system", ["nine", "closing_system"])
def test_newton_step_matches_dense_solve_at_every_small_size(
        nine_problem, system, lanes):
    # n = 2..41 nodes: a last chunk of every length, and n = 2, where
    # min(t,s)'s only other node is t = 0
    problem = nine_problem if system == "nine" \
        else build_problem(closing_problem_config()["problem"])
    levels1, levels2 = seed_levels(problem)
    rng = np.random.default_rng(lanes)
    for n in range(2, 42):
        rule = trapezoid(n)
        op = DiscreteOperator(problem, rule)
        v = np.array([(levels1[tag] * rng.uniform(0.5, 1.5, rule.n),
                       levels2[tag] * rng.uniform(0.5, 1.5, rule.n))
                      for tag in ("S", "M", "B")[:lanes]])
        steps = op.newton_step(v, v - op.apply(v[:, 0], v[:, 1]))
        for (v1, v2), (step1, step2) in zip(v, steps):
            want1, want2 = dense_newton_step(problem, rule, v1, v2)
            scale = max(np.max(np.abs(want1)), np.max(np.abs(want2)))
            assert np.max(np.abs(step1 - want1)) <= 1e-12 * scale, rule.n
            assert np.max(np.abs(step2 - want2)) <= 1e-12 * scale, rule.n


def decreasing_jacobian(monkeypatch, slope):
    """Make DiscreteOperator.jacobian return Df = slope * v1 * I: with v1
    near 1, the modes of delta'' = -slope delta (min(t,s)) grow like
    exp(sqrt(-slope) t), and like exp(-slope t) for RCD at a small beta."""
    def jacobian(self, v1, v2):
        diagonal = slope * np.asarray(v1, dtype=float)
        zero = np.zeros_like(diagonal)
        return diagonal, zero, zero, diagonal

    monkeypatch.setattr(DiscreteOperator, "jacobian", jacobian)


def spy_renewals(monkeypatch):
    """The number of lanes in each QR of a basis renewal (np.linalg.qr,
    which nothing else in a Newton step calls)."""
    renewals = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: (renewals.append(len(a)),
                                                    qr(a))[1])
    return renewals


@pytest.mark.parametrize("system,grid_n,slope", [
    ("nine", 129, -900.0), ("nine", 513, -900.0), ("nine", 129, -1600.0),
    ((1e-4, 1e-4), 129, -40.0), ((1e-4, 1e-4), 129, -100.0),
    ((1.0, 1e-4), 129, -100.0), ((1.0, 1.0), 513, -1000.0),
    ((1e10, 1e10), 129, -100.0)],
    ids=lambda x: x if isinstance(x, str) else
    "beta{:g}-{:g}".format(*x) if isinstance(x, tuple) else f"{x:g}")
def test_newton_step_matches_dense_solve_for_a_strongly_decreasing_f(
        nine_problem, monkeypatch, system, grid_n, slope):
    # single shooting over the chunks would lose about exp(30) here (nine at
    # slope -900): each lane's basis is renewed after every chunk instead
    problem = nine_problem if system == "nine" else closing_problem(*system)
    decreasing_jacobian(monkeypatch, slope)
    renewals = spy_renewals(monkeypatch)
    rule = rule_for(grid_n, "trapezoid")
    op = DiscreteOperator(problem, rule)
    rng = np.random.default_rng(grid_n)
    v = rng.uniform(0.9, 1.1, (3, 2, grid_n))
    steps = op.newton_step(v, v - op.apply(v[:, 0], v[:, 1]))
    assert renewals and set(renewals) == {3}
    for (v1, v2), (step1, step2) in zip(v, steps):
        want1, want2 = dense_newton_step(problem, rule, v1, v2)
        scale = max(np.max(np.abs(want1)), np.max(np.abs(want2)))
        assert np.max(np.abs(step1 - want1)) <= 1e-12 * scale
        assert np.max(np.abs(step2 - want2)) <= 1e-12 * scale


def test_renewed_lanes_keep_the_step_of_each_lane_alone(nine_problem,
                                                        monkeypatch):
    # Df = -900 v1: lanes at v1 = 1 grow past MARCH_GROWTH and are renewed,
    # the lane at v1 = 1e-3 is not, and each lane's step is bit for bit its
    # step alone
    decreasing_jacobian(monkeypatch, -900.0)
    op = DiscreteOperator(nine_problem, RULE)
    rng = np.random.default_rng(7)
    v = rng.uniform(0.9, 1.1, (3, 2, RULE.n)) * np.array([1.0, 1e-3, 1.0])[
        :, None, None]
    r = v - op.apply(v[:, 0], v[:, 1])
    renewals = spy_renewals(monkeypatch)
    steps = op.newton_step(v, r)
    assert renewals and set(renewals) == {2}
    for lane in range(3):
        assert np.array_equal(steps[lane], op.newton_step(v[lane], r[lane]))


def singular_jacobian(monkeypatch, bad):
    """Make DiscreteOperator.jacobian return Df = 0 but at the node t = 1/2
    of a uniform odd grid, where d11 = d22 = 1 / (t w) = 1 / K_j[m, m]
    exactly (on 129 nodes t w = 2^-8), plus `bad`: with 0, J = I - K Df
    is singular and the march's closing 2x2 system is exactly zero; with
    NaN, every derivative is NaN."""
    def jacobian(self, v1, v2):
        n = self.rule.n
        pivot = np.zeros(np.shape(v1))
        pivot[..., n // 2] = 1.0 / (self.rule.nodes[n // 2]
                                    * self.rule.weights[n // 2])
        zero = np.zeros_like(pivot)
        return pivot + bad, zero + bad, zero + bad, pivot + bad

    monkeypatch.setattr(DiscreteOperator, "jacobian", jacobian)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [0.0, math.nan], ids=["zero", "nan"])
def test_newton_step_at_a_singular_pivot_is_non_finite_without_warning(
        nine_problem, monkeypatch, bad):
    # called directly, outside the solver's lanes and their errstate
    singular_jacobian(monkeypatch, bad)
    op = DiscreteOperator(nine_problem, RULE)
    v = np.ones((2, 2, RULE.n))
    step = op.newton_step(v, v)
    assert not np.isfinite(step).any()


@pytest.mark.parametrize("grid_n", [129, 513])
def test_newton_step_keeps_the_dirichlet_row_exact(nine_problem, grid_n):
    # min(t,s) vanishes at t = 0, so the exact step has delta_0 = r_0; the
    # march reads node 0 off its closed state as r_0 + c_0 T_{-1}, and
    # c_0 = t_0 = 0 makes that r_0 bit for bit
    op = DiscreteOperator(nine_problem, make_rule(grid_n))
    rng = np.random.default_rng(grid_n)
    v = rng.uniform(0.0, 5.0, (4, 2, grid_n))
    r = rng.standard_normal((4, 2, grid_n))
    step = op.newton_step(v, r)
    assert np.isfinite(step).all()
    assert step[..., 0].tobytes() == r[..., 0].tobytes()


@pytest.mark.filterwarnings("error")
def test_nan_derivatives_at_node_0_give_a_non_finite_step(nine_problem,
                                                          monkeypatch):
    # lane 0's derivatives are NaN at t = 0 only: its step is non-finite
    # there too (c_0 T_{-1} is 0 * NaN), and lane 1 keeps its step alone
    original = DiscreteOperator.jacobian

    def jacobian(self, v1, v2):
        derivatives = original(self, v1, v2)
        derivatives[:, 0, 0] = np.nan
        return derivatives

    op = DiscreteOperator(nine_problem, RULE)
    rng = np.random.default_rng(3)
    v = rng.uniform(0.5, 1.5, (2, 2, RULE.n))
    r = v - op.apply(v[:, 0], v[:, 1])
    alone = op.newton_step(v[1], r[1])
    monkeypatch.setattr(DiscreteOperator, "jacobian", jacobian)
    step = op.newton_step(v, r)
    assert np.isnan(step[0, :, 0]).all()
    assert not np.isfinite(step[0]).all()
    assert np.array_equal(step[1], alone)


def test_a_negative_fixed_point_is_dropped_with_a_reason(caplog):
    # f = -1 has the one fixed point u = -(t - t^2/2) on each component,
    # below 0 everywhere but at t = 0: each seed converges to it, and the
    # solver drops it as outside the cone, saying so
    problem = dirichlet_problem("0 - 1", "0 - 1")
    with caplog.at_level(logging.INFO, logger="conecert.solver"):
        assert multi_start(problem, SolverParams(grid_n=33)) == []
    assert sorted(caplog.messages) == [
        f"seed {a}-{b}: final state negative" for a in "BMS" for b in "BMS"]


@pytest.mark.parametrize("level, sup", [("101", 50.5), ("99", 49.5)])
def test_a_fixed_point_far_beyond_the_ambient_box_is_reported(level, sup):
    # f = level has the one fixed point u = level * (t - t^2/2), of sup norm
    # level / 2: at 101 that is 10.1 times nine's c = 5, and it is reported
    # as outside-ambient, as at 99, not dropped for its size
    cfg = nine_config()["problem"]
    cfg["f1"] = cfg["f2"] = level
    sols = multi_start(build_problem(cfg), SolverParams(grid_n=129))
    assert [str(s.region) for s in sols] == ["outside-ambient"]
    assert sup_norm(sols[0].u1) == sup_norm(sols[0].u2) == \
        pytest.approx(sup, rel=1e-12)


@pytest.mark.parametrize("system, count", [("closing_system", 4),
                                           ("hybrid", 1)])
def test_only_a_kept_state_is_classified(hybrid_problem, monkeypatch, system,
                                         count):
    # dedupe runs on the settled states, so classify runs once per solution
    # reported, not once per seed that settles
    problem = hybrid_problem if system == "hybrid" \
        else build_problem(closing_problem_config()["problem"])
    calls = []

    def spy(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(solver, "classify", spy)
    sols = multi_start(problem, SolverParams(grid_n=129))
    assert len(sols) == count
    assert len(calls) == count


def test_newton_step_reuses_the_residual_evaluation(nine_problem, monkeypatch):
    # each Newton step runs the programs of f1 and f2 once at v for the
    # residual and their dual programs once for the Jacobian, never the
    # float programs again at v or near it
    calls = {"program": 0, "dual": 0, "apply": 0, "jacobian": 0}

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return run

    for compiler, name in (("float_program", "program"),
                           ("dual_program", "dual")):
        compile_program = getattr(solver, compiler)
        monkeypatch.setattr(solver, compiler,
                            lambda e, _c=compile_program, _n=name:
                            counted(_n, _c(e)))
    for name in ("apply", "jacobian"):
        monkeypatch.setattr(DiscreteOperator, name,
                            counted(name, getattr(DiscreteOperator, name)))
    seed = GridFunction(RULE, 1.5 * np.minimum(2 * RULE.nodes, 1.0))
    assert solve_from(nine_problem, seed, seed, SolverParams(picard_steps=1),
                      seed_id="M-M") is not None
    assert calls["jacobian"] > 0
    assert calls["program"] == 2 * calls["apply"]
    assert calls["dual"] == 2 * calls["jacobian"]


def test_jacobian_runs_only_the_dual_programs(nine_problem, monkeypatch):
    # one dual run per component gives the four columns, with the bits of
    # the dual programs' derivatives; f's float programs never run
    op = DiscreteOperator(nine_problem, RULE)
    v1 = 1.5 * np.minimum(2 * RULE.nodes, 1.0)
    v2 = 0.3 + 0.2 * RULE.nodes
    calls = []

    def refused(*args):
        raise AssertionError("a float program ran")

    def counted(dual):
        return lambda x1, x2: calls.append(1) or dual(x1, x2)

    monkeypatch.setattr(op, "nonlinearity", refused)
    op.programs = (refused, refused)
    op.duals = tuple(counted(dual) for dual in op.duals)
    got = op.jacobian(v1, v2)
    assert len(calls) == 2
    with float_flags():
        _, d11, d12 = dual_program(nine_problem.f1)(v1, v2)
        _, d21, d22 = dual_program(nine_problem.f2)(v1, v2)
    for column, expected in zip(got, (d11, d12, d21, d22)):
        assert column.shape == v1.shape
        assert np.array_equal(column, np.broadcast_to(expected, v1.shape))


@pytest.mark.parametrize("bad", [0.0, math.nan], ids=["zero", "nan"])
def test_singular_pivot_ends_the_seed(nine_problem, monkeypatch, caplog, bad):
    # a singular Jacobian makes the closing 2x2 pivot exactly zero, and NaN
    # derivatives make it NaN: either way the Newton step is not finite
    singular_jacobian(monkeypatch, bad)
    applied = []
    original = DiscreteOperator.apply

    def apply(self, *args):
        applied.append(args)
        return original(self, *args)

    monkeypatch.setattr(DiscreteOperator, "apply", apply)
    seed = GridFunction(RULE, 1.5 * np.minimum(2 * RULE.nodes, 1.0))
    params = SolverParams(picard_steps=1)
    with caplog.at_level(logging.INFO, logger="conecert.solver"):
        assert solve_from(nine_problem, seed, seed, params,
                          seed_id="M-M") is None
    assert "seed M-M: Newton step not finite" in caplog.messages
    # no second Picard round after the failed Newton phase
    assert len(applied) == params.picard_steps


@pytest.mark.parametrize("lanes", ["batch", "lone"])
def test_an_error_path_solve_leaves_no_frame_for_the_collector(
        nine_problem, monkeypatch, lanes):
    # every Newton step's forward differences raise EvalError, handled lane
    # by lane (nine seeds) or as the batch's error (one seed); a caught
    # error that outlived its handler would tie error -> traceback -> frame
    # into a cycle holding the solve's frames and arrays until the cyclic
    # collector runs
    def jacobian(self, v1, v2):
        raise EvalError(0, "crafted failure")

    monkeypatch.setattr(DiscreteOperator, "jacobian", jacobian)
    params = SolverParams(picard_steps=1)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        if lanes == "batch":
            assert multi_start(nine_problem, params) == []
        else:
            seed = GridFunction(RULE, 1.5 * np.minimum(2 * RULE.nodes, 1.0))
            assert solve_from(nine_problem, seed, seed, params) is None
        gc.collect()
        frames = [o.f_code.co_name for o in gc.garbage
                  if isinstance(o, types.FrameType)
                  and o.f_code.co_filename == solver.__file__]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert frames == []


def test_newton_starts_from_the_evaluated_picard_iterate(nine_problem):
    # Newton reuses the residual of the Picard iterate it starts from, so
    # with one Picard step the seed is evaluated once, not twice
    sols = multi_start(nine_problem, SolverParams(grid_n=129, picard_steps=1))
    iterations = {sol.seed_id: sol.iterations for sol in sols}
    assert iterations == {seed_id: {"S-S": 2, "M-M": 6}.get(seed_id, 4)
                          for seed_id in ("B-B", "B-M", "B-S", "M-B", "M-M",
                                          "M-S", "S-B", "S-M", "S-S")}


def counted_calls(monkeypatch, *names):
    """Count the calls of the named DiscreteOperator methods."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def run(*args, _name=name, _fn=getattr(DiscreteOperator, name),
                **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(DiscreteOperator, name, run)
    return calls


@pytest.mark.filterwarnings("error")
def test_a_picard_failure_ends_its_seed(nine_problem, monkeypatch):
    # f = exp(x1) + exp(x2) drives the iterates up until f overflows at the
    # third Picard iterate: the seed ends there, with no Newton step from an
    # earlier iterate
    f = parse_expr("exp(x1) + exp(x2)")
    problem = ProblemSpec(DirichletNeumann(), DirichletNeumann(), f, f,
                          nine_problem.region, "nine")
    rule = make_rule(33)
    calls = counted_calls(monkeypatch, "apply", "jacobian")
    seed = GridFunction(rule, 3.0 * np.minimum(2 * rule.nodes, 1.0))
    assert solve_from(problem, seed, seed,
                      SolverParams(grid_n=33, picard_steps=200)) is None
    assert calls == {"apply": 3, "jacobian": 0}


def test_newton_starts_from_the_last_picard_iterate(nine_problem,
                                                     monkeypatch):
    # three Picard steps leave the M-M seed short of newton_tol, and Newton
    # linearizes at the third evaluated iterate: the seed, then two damped
    # steps v <- (1 - damping) v + damping T(v)
    params = SolverParams(picard_steps=3)
    op = DiscreteOperator(nine_problem, RULE)
    seed = GridFunction(RULE, 1.5 * np.minimum(2 * RULE.nodes, 1.0))
    v = np.array([[seed.values, seed.values]])
    for _ in range(2):
        v = (1.0 - params.damping) * v \
            + params.damping * op.apply(v[:, 0], v[:, 1])
    assert op.residual_values(v)[0] > params.newton_tol
    linearized_at = []
    jacobian = DiscreteOperator.jacobian

    def recorded(self, v1, v2):
        linearized_at.append((v1.copy(), v2.copy()))
        return jacobian(self, v1, v2)

    monkeypatch.setattr(DiscreteOperator, "jacobian", recorded)
    assert solve_from(nine_problem, seed, seed, params) is not None
    assert np.array_equal(linearized_at[0][0], v[:, 0])
    assert np.array_equal(linearized_at[0][1], v[:, 1])


def test_the_cone_window_comes_from_the_kernel():
    # a thm53 problem built in code, with a RegionSpec of d, a and c only,
    # gets the RCD kernel's window (all of [0, 1]) as the CLI's does
    cli_problem = build_problem(closing_problem_config()["problem"])
    region = cli_problem.region
    problem = ProblemSpec(ReactionConvectionDiffusion(1.0),
                          ReactionConvectionDiffusion(1.0),
                          cli_problem.f1, cli_problem.f2,
                          RegionSpec(d=region.d, a=region.a, c=region.c),
                          "thm53", remark52=True)
    # u1(0) <= a1 < u1(1/2): M over [0, 1], B over [1/2, 1] only
    u1 = GridFunction(RULE, 5.0 + 2.0 * RULE.nodes)
    u2 = const_fn(0.05)
    assert u1.values[0] <= region.a[0] < u1.values[RULE.n // 2]
    windows = (problem.kernel1.window, problem.kernel2.window)
    assert str(classify(u1, u2, problem.region, windows)) == "M-S"
    # no window starts at 1/2, so an even grid_n is allowed
    params = SolverParams(grid_n=128)
    sols = multi_start(problem, params)
    assert len(sols) == 4
    assert_same_solutions(sols, multi_start(cli_problem, params))


# ---------------------------------------------------------------------------
# kernel bound

NONNEG_POOL = [
    "4.5 + 5*phi(x1)*psi(x2) - 4*capphi(x1)",
    "0.5 + 5*phi(x1)*psi(x2)",
    "exp(x2^2/32) + 0.1*cos(pi*x1)",
    "1 + x1*x2/25",
]


def test_operator_bounded_by_kernel_row_integral():
    rng = np.random.default_rng(11)
    for src in NONNEG_POOL:
        f = parse_expr(src)
        problem = ProblemSpec(DirichletNeumann(), DirichletNeumann(), f, f,
                              RegionSpec(d=(0.5, 0.5), a=(1, 1), c=(5, 5)),
                              "nine")
        q = BoxIneq(f, (Interval(0, 5), Interval(0, 5)), "<=", 0.0, "bound")
        f_sup = grid_oracle(q, 101).sup
        op = DiscreteOperator(problem, RULE)
        row = 0.5  # the row integral t - t^2/2 of min(t, s), largest at t = 1
        for _ in range(10):
            t1, t2 = op.apply(rng.uniform(0.0, 5.0, RULE.n),
                              rng.uniform(0.0, 5.0, RULE.n))
            assert float(np.max(np.abs(t1))) <= f_sup * row * (1 + 1e-12)
            assert float(np.max(np.abs(t2))) <= f_sup * row * (1 + 1e-12)


def test_hybrid_mode_multi_start_runs(hybrid_problem):
    sols = multi_start(hybrid_problem, SolverParams())
    assert len(sols) >= 1
    for sol in sols:
        assert sol.residual <= 1e-8


def test_problem_spec_mode_kernel_consistency():
    # every mode rule lives in ProblemSpec: nine and hybrid take the
    # DirichletNeumann kernel on both components, thm53 the RCD kernel on
    # both, and an annulus is required in hybrid mode and allowed only there
    region = RegionSpec(d=(0.5, 0.5), a=(1, 1), c=(5, 5))
    annulus = RegionSpec(d=(0.5, 0.5), a=(1, 1), c=(5, 5), annulus=(2, 5))
    one = parse_expr("1")
    dn, rcd = DirichletNeumann(), ReactionConvectionDiffusion(1.0)
    bad = [((rcd, rcd), region, "nine"), ((dn, dn), region, "thm53"),
           ((rcd, dn), region, "thm53"), ((dn, rcd), region, "thm53"),
           ((dn, rcd), annulus, "hybrid"), ((dn, dn), region, "hybrid"),
           ((dn, dn), annulus, "nine"), ((rcd, rcd), annulus, "thm53"),
           ((dn, dn), region, "nine9")]
    for (k1, k2), reg, mode in bad:
        with pytest.raises(ConfigError):
            ProblemSpec(k1, k2, one, one, reg, mode)
    for (k1, k2), reg, mode in [((dn, dn), region, "nine"),
                                ((dn, dn), annulus, "hybrid"),
                                ((rcd, rcd), region, "thm53")]:
        assert ProblemSpec(k1, k2, one, one, reg, mode).mode == mode