import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.conespace import RegionSpec
from conecert.errors import ConfigError
from conecert import hypotheses
from conecert.expr import EvalError, eval_point, gradient_program, parse_expr
from conecert.hypotheses import (BoxIneq, certify_box, check_theorem,
                                 expand_conditions, grid_oracle, oracle_agrees,
                                 oracle_guide)
from conecert.interval import Interval
from conecert.kernels import DirichletNeumann, ReactionConvectionDiffusion
from conecert.solver import ProblemSpec

F_SYM = parse_expr("4.5 + 5*phi(x1)*psi(x2) - 4*capphi(x1)")
F_A = parse_expr("0.5 + 5*phi(x1)*psi(x2)")
F_B = parse_expr("exp(x2^2/32) + 0.1*cos(pi*x1)")


def box(a1, b1, a2, b2):
    return (Interval(a1, b1), Interval(a2, b2))


# ---------------------------------------------------------------------------
# certify_box

def test_certify_pass_on_ambient():
    # grid oracle puts sup at 5.5, far below 10
    q = BoxIneq(F_A, box(0, 5, 0, 5), "<=", 10.0, "demo.a")
    verdict = certify_box(q)
    assert verdict.status == "Pass"
    assert verdict.witness is None


def test_certify_pass_strict_on_vanishing_piece():
    # phi vanishes below 1/2, so f is identically 0.5 there
    q = BoxIneq(F_A, box(0, 0.5, 0, 5), "<", 1.0, "demo.b")
    assert certify_box(q).status == "Pass"


def test_certify_fail_with_canonical_witness():
    # sup of f over the box is about 2.284, far below 40/3: certify_box
    # reports the midpoint of the first violating sub-box (the root box),
    # check_theorem the first violating lattice point in row-major order
    q = BoxIneq(F_B, box(0, 5, 2.5, 5), ">", 40.0 / 3.0, "demo.e")
    verdict = certify_box(q)
    assert verdict.status == "Fail"
    assert verdict.witness == (2.5, 3.75, eval_point(F_B, 2.5, 3.75))
    report = check_theorem(hybrid_problem())
    result = next(r for r in report.conditions
                  if r.cond.condition_id == "thm51.e")
    assert result.verdict.status == "Fail" and result.agrees is True
    x1, x2, value = result.verdict.witness
    assert (x1, x2) == (0.0, 2.5)
    assert value == eval_point(F_B, 0.0, 2.5) <= 40.0 / 3.0


def test_certify_fail_at_constant_equality():
    # f identically equal to the bound genuinely violates a strict relation
    q = BoxIneq(parse_expr("2"), box(0, 1, 0, 1), "<", 2.0, "demo.eq")
    verdict = certify_box(q)
    assert verdict.status == "Fail"
    assert verdict.witness[2] == 2.0


# sup 6.25 at (2.5, 0), where the partial derivative in x1 changes sign:
# neither the natural enclosure nor a first-order test decides a box around
# it until the box is split fine enough
F_PEAK = parse_expr("x1*(5 - x1)*cos(x2)")


def test_certify_unknown_then_pass_with_budget():
    # the strict bound 6.26 certifies after enough splits
    q = BoxIneq(F_PEAK, box(0, 5, 0, 5), "<", 6.26, "demo.peak")
    small = certify_box(q, budget=3)
    assert small.status == "Unknown"
    assert small.boxes_explored == 3
    big = certify_box(q)
    assert big.status == "Pass"


def test_certify_splits_past_interval_domain_error():
    # the divisor enclosure [1 - w, 1 + w] contains 0 until the x1 width w
    # drops below 1, but f is 1 everywhere
    q = BoxIneq(parse_expr("1/(x1 - x1 + 1)"), box(0, 5, 0, 5), "<=", 2.0, "t")
    v = certify_box(q)
    assert v.status == "Pass" and v.boxes_explored > 1


def test_certify_nonconstant_exponent_raises_at_once():
    # a property of the expression, not of the box: no box is split for it
    q = BoxIneq(parse_expr("x1^1.5"), box(0, 5, 0, 5), "<=", 200.0, "t")
    with pytest.raises(EvalError):
        certify_box(q, budget=1)


def test_certify_nonconstant_exponent_behind_divisor_raises_at_once():
    # the divisor's enclosure contains 0 on every box, so no enclosure ever
    # reaches the ^; compiling the interval program before the first box
    # still catches it
    q = BoxIneq(parse_expr("(1/(x1 - x1 + 1e-300))*x1^1.5"), box(0, 5, 0, 5),
                "<=", 1e308, "t")
    with pytest.raises(EvalError, match="constant natural exponent"):
        certify_box(q, budget=20000)


def test_certify_unknown_depth_cap():
    q = BoxIneq(F_PEAK, box(0, 5, 0, 5), "<", 6.26, "demo.peak")
    capped = certify_box(q, max_depth=1)
    assert capped.status == "Unknown"
    assert capped.max_depth_reached


def test_monotone_budget_never_flips_definite_verdicts():
    cases = [
        BoxIneq(F_A, box(0, 5, 0, 5), "<=", 10.0, "m.pass"),
        BoxIneq(F_B, box(0, 5, 2.5, 5), ">", 40.0 / 3.0, "m.fail"),
        BoxIneq(F_PEAK, box(0, 5, 0, 5), "<", 6.26, "m.peak"),
    ]
    for q in cases:
        verdicts = [certify_box(q, budget=b).status for b in (3, 100, 100_000)]
        definite = [v for v in verdicts if v != "Unknown"]
        assert len(set(definite)) <= 1, verdicts


def test_pass_requires_strict_enclosure_for_strict_relations():
    # psi <= 1 certifies, but psi < 1 is genuinely false at x1 >= 1
    q_le = BoxIneq(parse_expr("psi(x1)"), box(0, 2, 0, 1), "<=", 1.0, "s.le")
    assert certify_box(q_le).status == "Pass"
    q_lt = BoxIneq(parse_expr("psi(x1)"), box(0, 2, 0, 1), "<", 1.0, "s.lt")
    assert certify_box(q_lt).status == "Fail"


# nine's f1 plus the verify-tight bump A*x1*(2p - x1)/p^2*cos(x2) at p = 3,
# with A = (0.5 - eps)/cos(1) written out, so sup f1 = 10 - eps at (3, 1)
TIGHT_F1 = "4.5 + 5*phi(x1)*psi(x2) - 4*capphi(x1) + {}*x1*(6.0 - x1)/9.0*cos(x2)"


def _tight(amp, budget, status, boxes):
    """A row of TIGHT_F1 at amplitude amp, named by amp and its outcome."""
    return pytest.param(TIGHT_F1.format(amp), budget, status, boxes,
                        id=f"{amp}-{budget}-{status}-{boxes}")


# nine's f1 plus a bump of height 0.499 at (3, 1), through other derivative
# rules: sup f1 = 10 - 1e-3 on [0, 5]^2
NINE_F1 = "4.5 + 5*phi(x1)*psi(x2) - 4*capphi(x1)"


@pytest.mark.parametrize("f, budget, status, boxes", [
    _tight("0.9235570431227818", 100_000, "Pass", 42),     # eps = 1e-3
    _tight("0.9346619374288674", 100_000, "Fail", 9),      # eps = -5e-3
    _tight("0.925406008024745", 2000, "Pass", 72),         # eps = 1e-6
    _tight("0.925406008024745", 20, "Unknown", 20),        # eps = 1e-6
    pytest.param(NINE_F1 + " + 0.499*x1*(6 - x1)/9*exp(-abs(x2 - 1))",
                 100_000, "Pass", 88, id="exp-abs"),
    pytest.param(NINE_F1 + " + 0.499*max(x1*(6 - x1)/9 - (x2 - 1)^2, -1)",
                 100_000, "Pass", 110, id="max-pow"),
    pytest.param(NINE_F1 + " + 0.499*x1*(6 - x1)/9*cos(x2 - 1) - 0.1*sin(x2 - 1)^2",
                 100_000, "Pass", 110, id="cos-sin-pow"),
    pytest.param(NINE_F1 + " - 0.499*(-(x1*(6 - x1)/9))/(1 + ln(1 + (x2 - 1)^2))",
                 100_000, "Pass", 106, id="neg-quotient-ln"),
])
def test_certify_tight_condition_explores_pinned_boxes(f, budget, status, boxes):
    # the exploration is part of the contract: the same split order, the
    # same enclosures and the same first-order tests visit exactly these
    # many boxes; no row reaches the depth cap, and the Unknown is the
    # budget's
    q = BoxIneq(parse_expr(f), box(0, 5, 0, 5), "<=", 10.0, "thm52.a1")
    verdict = certify_box(q, budget=budget)
    assert (verdict.status, verdict.boxes_explored) == (status, boxes)
    assert not verdict.max_depth_reached
    assert verdict.note == ("box budget exhausted" if status == "Unknown" else "")


def test_certify_tight_condition_passes_on_the_kink():
    # the maximum sits on psi's breakpoint x2 = 1: splitting there gives
    # halves monotone in x2, so even eps = 1e-10 passes well inside the
    # depth cap (with midpoint splits only, it ends depth-capped Unknown
    # after 535 boxes)
    amp = repr((0.5 - 1e-10) / math.cos(1.0))
    q = BoxIneq(parse_expr(TIGHT_F1.format(amp)), box(0, 5, 0, 5), "<=", 10.0,
                "thm52.a1")
    verdict = certify_box(q)
    assert verdict.status == "Pass"
    assert not verdict.max_depth_reached
    assert verdict.boxes_explored < 300


def test_certify_boxes_grow_slowly_as_the_margin_shrinks():
    # with first-order tests, shrinking the margin 100x costs less than 10x
    # the boxes; the natural enclosure alone needs O(1/eps) boxes (167 and
    # 13,067 for eps = 1e-1 and 1e-3)
    def boxes(eps):
        q = BoxIneq(F_PEAK, box(0, 5, 0, 5), "<=", 6.25 + eps, "stress")
        verdict = certify_box(q)
        assert verdict.status == "Pass"
        return verdict.boxes_explored
    assert boxes(1e-3) < 10 * boxes(1e-1)


def test_certify_falls_back_to_the_value_where_a_slope_leaves_its_domain():
    # d/dx1 cos(1/x1) reaches about 1e600 near x1 = 1e-300, so the gradient
    # program meets 0 * inf in d1; the value still encloses f in [-1, 1]
    q = BoxIneq(parse_expr("x2*cos(1/x1)"), box(1e-300, 2, 0, 1), "<=", 2.0, "t")
    with pytest.raises(EvalError, match="NaN endpoint"):
        gradient_program(q.expr)((1e-300, 2.0), (0.0, 1.0))
    verdict = certify_box(q)
    assert (verdict.status, verdict.boxes_explored) == ("Pass", 1)


def _recorded_programs(monkeypatch):
    """Patch the programs certify_box compiles to record the box of each
    gradient run, of each one that raised, and of each value-only run."""
    runs = {"gradient": [], "raised": [], "value": []}
    compile_gradient = hypotheses.gradient_program
    compile_value = hypotheses.interval_program

    def gradient_program(e):
        program = compile_gradient(e)

        def run(x1, x2):
            runs["gradient"].append((x1, x2))
            try:
                return program(x1, x2)
            except EvalError:
                runs["raised"].append((x1, x2))
                raise
        return run

    def interval_program(e):
        program = compile_value(e)

        def run(x1, x2):
            runs["value"].append((x1, x2))
            return program(x1, x2)
        return run

    monkeypatch.setattr(hypotheses, "gradient_program", gradient_program)
    monkeypatch.setattr(hypotheses, "interval_program", interval_program)
    return runs


@pytest.mark.parametrize("src, bound", [
    # eps = 1e-6: face collapses and mean-value forms decide most boxes
    (TIGHT_F1.format("0.925406008024745"), 10.0),
    # the divisor enclosure contains 0 on the coarse boxes
    ("1/(x1 - x1 + 1)", 2.0),
], ids=["tight", "divisor"])
def test_certify_runs_the_gradient_program_once_per_box(monkeypatch, src, bound):
    # one gradient run per box gives its natural enclosure too; the
    # value-only program runs only at a mean-value centre (a point box) or
    # on a box where the gradient program raised
    runs = _recorded_programs(monkeypatch)
    q = BoxIneq(parse_expr(src), box(0, 5, 0, 5), "<=", bound, "t")
    verdict = certify_box(q)
    assert verdict.status == "Pass"
    assert len(runs["gradient"]) == verdict.boxes_explored
    assert runs["value"]
    for x1, x2 in runs["value"]:
        assert (x1[0] == x1[1] and x2[0] == x2[1]) or (x1, x2) in runs["raised"]


@pytest.mark.parametrize("amp", ["0.9235570431227818", "0.925406008024745"],
                         ids=["eps=1e-3", "eps=1e-6"])
def test_certify_decides_each_box_once(monkeypatch, amp):
    # both halves of the split at psi's kink x2 = 1 collapse onto the face
    # [3, 5] x [1, 1] and onto its sub-faces; once proved, none is decided
    # again
    runs = _recorded_programs(monkeypatch)
    q = BoxIneq(parse_expr(TIGHT_F1.format(amp)), box(0, 5, 0, 5), "<=", 10.0,
                "thm52.a1")
    verdict = certify_box(q)
    assert verdict.status == "Pass"
    assert len(runs["gradient"]) == verdict.boxes_explored
    assert len(set(runs["gradient"])) == len(runs["gradient"])


def test_certify_unresolved_subtree_proves_nothing(monkeypatch):
    # at depth 7 the face [3, 5] x [1, 1] ends with depth-capped leaves, so
    # it is not remembered: its second copy is decided again and the verdict
    # is still the depth cap's
    runs = _recorded_programs(monkeypatch)
    q = BoxIneq(parse_expr(TIGHT_F1.format("0.925406008024745")),
                box(0, 5, 0, 5), "<=", 10.0, "thm52.a1")
    verdict = certify_box(q, max_depth=7)
    assert (verdict.status, verdict.boxes_explored) == ("Unknown", 50)
    assert verdict.max_depth_reached
    assert verdict.note == "uncertified leaves remain"
    assert runs["gradient"].count(((3.0, 5.0), (1.0, 1.0))) == 2


@pytest.mark.parametrize("amp", ["0.9235570431227818", "0.925406008024745"],
                         ids=["eps=1e-3", "eps=1e-6"])
def test_certify_budget_counts_decided_boxes_only(amp):
    # on [0, 5] x [0, 2] the last decided box leaves a completion marker and
    # a proved copy of a point on the stack, which cost nothing: a budget of
    # exactly the decided boxes passes, one less does not
    q = BoxIneq(parse_expr(TIGHT_F1.format(amp)), box(0, 5, 0, 2), "<=", 10.0,
                "thm52.a1")
    boxes = certify_box(q).boxes_explored
    assert certify_box(q, budget=boxes).status == "Pass"
    short = certify_box(q, budget=boxes - 1)
    assert (short.status, short.boxes_explored) == ("Unknown", boxes - 1)
    assert short.note == "box budget exhausted"


# ---------------------------------------------------------------------------
# the oracle's guide: cut out the lattice cell of the extremum first

# verify-tight's seed-1 `tight0` f1: sup 10 - 1.17e-3 at (3.30, 1), where
# psi's kink x2 = 1 is
TIGHT0_F1 = ("4.5 + 5*phi(x1)*psi(x2) - 4*capphi(x1) + 0.9232474034613303"
             "*x1*(6.600773183084301 - x1)/10.892551653631212*cos(x2)")


def test_cuts_follow_breakpoints_then_the_guide_then_the_midpoint():
    cuts = hypotheses._cuts
    # a breakpoint strictly inside wins over the guide
    assert cuts(0.0, 5.0, 2.5, (1.0,), (3.0, 0.25)) == (1.0,)
    # the guide's cell cut out, or its one side that is strictly inside
    assert cuts(0.0, 5.0, 2.5, (), (3.0, 0.25)) == (2.75, 3.25)
    assert cuts(0.0, 5.0, 2.5, (), (0.125, 0.25)) == (0.375,)
    # a guide on the boundary, or whose cell is wider than the axis, or
    # none at all: the midpoint
    for guide in ((0.0, 0.25), (5.0, 0.25), (2.5, 2.5), (2.5, 10.0), None):
        assert cuts(0.0, 5.0, 2.5, (), guide) == (2.5,)


def test_guided_split_cuts_the_tight_peak_in_fewer_boxes():
    q = BoxIneq(parse_expr(TIGHT0_F1), box(0, 5, 0, 5), "<=", 10.0, "thm52.a1")
    unguided = certify_box(q)
    assert certify_box(q, guide=None) == unguided
    assert (unguided.status, unguided.boxes_explored) == ("Pass", 30)
    guide = oracle_guide(q, grid_oracle(q, 201))
    assert guide == ((3.3000000000000003, 0.025), (1.0, 0.025))
    guided = certify_box(q, guide=guide)
    assert (guided.status, guided.boxes_explored) == ("Pass", 23)
    # check_theorem runs the lattice first and passes its guide
    result = check_theorem(replace(nine_problem(), f1=q.expr)).conditions[0]
    assert result.cond.condition_id == "thm52.a1"
    assert result.verdict == guided


def test_guided_split_explores_three_children_lowest_first(monkeypatch):
    runs = _recorded_programs(monkeypatch)
    q = BoxIneq(parse_expr(TIGHT0_F1), box(0, 5, 0, 5), "<=", 10.0, "thm52.a1")
    (g, h), _ = guide = oracle_guide(q, grid_oracle(q, 201))
    certify_box(q, guide=guide)
    # breakpoints still win: the root splits at phi's kink x1 = 1, not at
    # the guide's cell around x1 = 3.3
    assert runs["gradient"][:2] == [((0.0, 5.0), (0.0, 5.0)), ((0.0, 1.0), (0.0, 5.0))]
    # [1, 5] x [1, 5] has no x1 breakpoint inside: the cell [g - h, g + h]
    # is cut out of it, and its three children are decided lowest first
    strip = [x1 for x1, x2 in runs["gradient"] if x2 == (1.0, 5.0)]
    assert strip == [(0.0, 1.0), (1.0, 5.0), (1.0, g - h), (g - h, g + h), (g + h, 5.0)]


@pytest.mark.parametrize("guide", [((0.0, 0.025), (0.0, 0.025)),
                                   ((2.5, 5.0), (2.5, 5.0)),
                                   ((5.0, 0.025), (2.5, 10.0))],
                         ids=["corner", "cell-wider-than-box", "edge-and-wide"])
def test_guide_on_the_boundary_or_wider_than_the_box_changes_nothing(guide):
    q = BoxIneq(F_PEAK, box(0, 5, 0, 5), "<", 6.26, "demo.peak")
    assert certify_box(q, guide=guide) == certify_box(q)


@pytest.mark.parametrize("relation, extremum", [("<", "argmax"), ("<=", "argmax"),
                                                (">", "argmin"), (">=", "argmin")])
def test_guide_is_the_extremum_the_relation_bounds(relation, extremum):
    q = BoxIneq(F_PEAK, box(0, 5, 0, 4), relation, 0.0, "g")
    oracle = grid_oracle(q, 81)
    assert oracle.argmax == (2.5, 0.0) and oracle.argmin == (2.5, 3.1500000000000004)
    (g1, h1), (g2, h2) = oracle_guide(q, oracle)
    assert ((g1, g2), (h1, h2)) == (getattr(oracle, extremum), (0.0625, 0.05))


def test_check_theorem_guides_lower_bounds_by_the_argmin(monkeypatch):
    guides = {}
    certify = hypotheses.certify_box

    def record(q, *args, guide=None):
        guides[q.condition_id] = guide
        return certify(q, *args, guide=guide)

    monkeypatch.setattr(hypotheses, "certify_box", record)
    problem = nine_problem()
    report = check_theorem(problem, oracle_n=11)
    for r in report.conditions:
        point = r.oracle.argmin if r.cond.relation in (">", ">=") else r.oracle.argmax
        (g1, _), (g2, _) = guides[r.cond.condition_id]
        assert (g1, g2) == point


def test_two_point_oracle_guides_nothing():
    # a 2-point lattice is the box's corners, so its guide is on the boundary
    problem = replace(nine_problem(), f1=parse_expr(TIGHT0_F1))
    for r in check_theorem(problem, oracle_n=2).conditions:
        assert r.verdict == certify_box(r.cond)


_PEAKS = {
    "bump": "{a!r}*x1*({p1!r}*2 - x1)/{p1!r}^2*cos(x2 - {p2!r})",
    "quadratic": "{a!r} - (x1 - {p1!r})^2 - 0.5*(x2 - {p2!r})^2",
    "gaussian": "{a!r}*exp(-((x1 - {p1!r})^2 + 2*(x2 - {p2!r})^2))",
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_PEAKS)),
       p1=st.floats(2.5, 4.5), p2=st.floats(0.25, 4.75),
       a=st.floats(1.0, 5.0), margin=st.floats(1e-3, 1e-1),
       holds=st.booleans(), lower=st.booleans(),
       relation=st.sampled_from(("strict", "plain")),
       n=st.sampled_from((2, 5, 33, 201)))
def test_guided_and_unguided_verdicts_agree_on_random_peaks(
        kind, p1, p2, a, margin, holds, lower, relation, n):
    # sup f = a at (p1, p2); a lower bound takes -f, whose inf is -a there
    src = _PEAKS[kind].format(a=a, p1=p1, p2=p2)
    bound = a + (margin if holds else -margin)
    if lower:
        src, bound = f"-({src})", -bound
    rel = {(False, "strict"): "<", (False, "plain"): "<=",
           (True, "strict"): ">", (True, "plain"): ">="}[lower, relation]
    q = BoxIneq(parse_expr(src), box(0, 5, 0, 5), rel, bound, "peak")
    unguided = certify_box(q)
    guided = certify_box(q, guide=oracle_guide(q, grid_oracle(q, n)))
    assert guided.status == unguided.status == ("Pass" if holds else "Fail")


# ---------------------------------------------------------------------------
# grid oracle

def test_oracle_phi():
    q = BoxIneq(parse_expr("phi(x1)"), box(0, 1, 0, 1), ">=", 0.0, "o.phi")
    res = grid_oracle(q, 201)
    assert res.sup == 1.0 and res.argmax[0] == 1.0
    assert res.inf == 0.0


def test_oracle_constant():
    q = BoxIneq(parse_expr("0.5"), box(0, 3, 0, 7), ">=", 0.0, "o.const")
    res = grid_oracle(q, 11)
    assert res.sup == 0.5 and res.inf == 0.5


def test_oracle_symmetric_condition_c():
    # capphi vanishes and psi >= 0 on [1,2]x[0,5], so the inf is the constant 4.5
    q = BoxIneq(F_SYM, box(1, 2, 0, 5), ">", 4.0, "o.c")
    res = grid_oracle(q, 201)
    assert res.inf == 4.5
    assert res.inf > 4.0


def test_oracle_needs_two_points():
    q = BoxIneq(parse_expr("x1"), box(0, 1, 0, 1), ">=", 0.0, "o.n")
    with pytest.raises(ValueError):
        grid_oracle(q, 1)


def test_soundness_pairing():
    # Pass => the oracle sees no violating sample; Fail => the witness
    # violates in plain arithmetic
    cases = [
        BoxIneq(F_A, box(0, 5, 0, 5), "<=", 10.0, "sp.1"),
        BoxIneq(F_A, box(0, 0.5, 0, 5), "<", 1.0, "sp.2"),
        BoxIneq(F_B, box(0, 5, 2.5, 5), ">", 40.0 / 3.0, "sp.3"),
        BoxIneq(F_SYM, box(1, 2, 0, 5), ">", 4.0, "sp.4"),
        BoxIneq(F_B, box(0, 5, 0, 2), "<", 4.0, "sp.5"),
        BoxIneq(parse_expr("2"), box(0, 1, 0, 1), "<", 2.0, "sp.6"),
    ]
    for q in cases:
        verdict = certify_box(q)
        oracle = grid_oracle(q, 201)
        agrees = oracle_agrees(q, verdict, oracle)
        assert verdict.status in ("Pass", "Fail")
        assert agrees is True, (q.condition_id, verdict.status)


# ---------------------------------------------------------------------------
# the relation table


def _reference_certified(relation, bound):
    """Whether an enclosure (lo, hi) proves the relation, one rule per
    relation as first written."""
    if relation == "<=":
        return lambda enc: enc[1] <= bound
    if relation == "<":
        return lambda enc: enc[1] < bound
    if relation == ">=":
        return lambda enc: enc[0] >= bound
    return lambda enc: enc[0] > bound


def _reference_violates(relation, bound):
    if relation == "<=":
        return lambda v: v > bound
    if relation == "<":
        return lambda v: v >= bound
    if relation == ">=":
        return lambda v: v < bound
    return lambda v: v <= bound


@pytest.mark.parametrize("relation", ["<", "<=", ">", ">="])
def test_relation_table_matches_the_four_way_reference(relation):
    holds, upper = hypotheses._RELATIONS[relation]
    specials = [0.0, -0.0, math.inf, -math.inf]
    for bound in [0.0, -0.0, 1.0, -2.5, 1e-300, math.inf, -math.inf]:
        values = specials + [math.nextafter(bound, -math.inf), bound,
                             math.nextafter(bound, math.inf)]
        certified = _reference_certified(relation, bound)
        violates = _reference_violates(relation, bound)
        for v in values:
            assert (not holds(v, bound)) == violates(v), (bound, v)
            for w in values:
                enc = (min(v, w), max(v, w))
                assert holds(enc[upper], bound) == certified(enc), (bound, enc)


# ---------------------------------------------------------------------------
# theorem templates

def nine_problem():
    region = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0), b=(2.0, 2.0))
    f2 = parse_expr("4.5 + 5*phi(x2)*psi(x1) - 4*capphi(x2)")
    return ProblemSpec(DirichletNeumann(), DirichletNeumann(), F_SYM, f2,
                       region, "nine")


def hybrid_problem():
    region = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0),
                        annulus=(2.0, 5.0))
    return ProblemSpec(DirichletNeumann(), DirichletNeumann(), F_A, F_B,
                       region, "hybrid")


def test_template_fidelity_thm51():
    conds = expand_conditions(hybrid_problem())
    got = [(q.condition_id, q.relation, q.bound,
            (q.box[0].lo, q.box[0].hi), (q.box[1].lo, q.box[1].hi))
           for q in conds]
    assert got == [
        ("thm51.a", "<=", 10.0, (0.0, 5.0), (0.0, 5.0)),
        ("thm51.b", "<", 1.0, (0.0, 0.5), (0.0, 5.0)),
        ("thm51.c", ">", 4.0, (1.0, 2.0), (1.0, 5.0)),
        ("thm51.d", "<", 4.0, (0.0, 5.0), (0.0, 2.0)),
        ("thm51.e", ">", 40.0 / 3.0, (0.0, 5.0), (2.5, 5.0)),
    ]


def test_template_fidelity_thm52():
    conds = expand_conditions(nine_problem())
    got = [(q.condition_id, q.relation, q.bound,
            (q.box[0].lo, q.box[0].hi), (q.box[1].lo, q.box[1].hi))
           for q in conds]
    assert got == [
        ("thm52.a1", "<=", 10.0, (0.0, 5.0), (0.0, 5.0)),
        ("thm52.b1", "<", 1.0, (0.0, 0.5), (0.0, 5.0)),
        ("thm52.c1", ">", 4.0, (1.0, 2.0), (0.0, 5.0)),
        ("thm52.a2", "<=", 10.0, (0.0, 5.0), (0.0, 5.0)),
        ("thm52.b2", "<", 1.0, (0.0, 5.0), (0.0, 0.5)),
        ("thm52.c2", ">", 4.0, (0.0, 5.0), (1.0, 2.0)),
    ]


def test_every_bound_box_end_and_ordering_reads_the_cone_constants(
        monkeypatch):
    # a table no kernel has, (M, m_W, e_W, 1/gamma) = (1/3, 1/5, 1/7, 3):
    # a factor written into a template instead of read from cone_constants
    # would show in a bound, a box end or an ordering
    monkeypatch.setattr(hypotheses, "cone_constants",
                        lambda kernel: (1 / 3, 1 / 5, 1 / 7, 3.0))
    rcd = ReactionConvectionDiffusion(1.0)
    region = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0))

    def expanded(problem):
        return [(q.condition_id, q.relation, q.bound, q.box[0].lo, q.box[0].hi,
                 q.box[1].lo, q.box[1].hi) for q in expand_conditions(problem)]

    def approx(rows):
        return [(i, r, *map(lambda v: pytest.approx(v, rel=1e-15), vals))
                for i, r, *vals in rows]

    nine = replace(nine_problem(), region=region)
    assert expanded(nine) == approx([
        ("thm52.a1", "<=", 15.0, 0, 5, 0, 5),
        ("thm52.b1", "<", 1.5, 0, 0.5, 0, 5),
        ("thm52.c1", ">", 5.0, 1, 2, 0, 5),
        ("thm52.a2", "<=", 15.0, 0, 5, 0, 5),
        ("thm52.b2", "<", 1.5, 0, 5, 0, 0.5),
        ("thm52.c2", ">", 5.0, 0, 5, 1, 2),
    ])
    hybrid = replace(hybrid_problem(),
                     region=replace(region, annulus=(1.0, 5.0)))
    assert expanded(hybrid) == approx([
        ("thm51.a", "<=", 15.0, 0, 5, 0, 5),
        ("thm51.b", "<", 1.5, 0, 0.5, 0, 5),
        ("thm51.c", ">", 5.0, 1, 2, 1 / 3, 5),
        ("thm51.d", "<", 3.0, 0, 5, 0, 1),
        ("thm51.e", ">", 35.0, 0, 5, 5 / 3, 5),
    ])
    thm53 = ProblemSpec(rcd, rcd, F_A, F_B, region, "thm53")
    assert expanded(thm53) == approx([
        ("thm53.a1", ">=", 0.0, 0, 5, 0, 5),
        ("thm53.b1", "<", 1.5, 0, 0.5, 0, 5),
        ("thm53.c1", ">", 5.0, 1, 5, 0, 5),
        ("thm53.a2", ">=", 0.0, 0, 5, 0, 5),
        ("thm53.b2", "<", 1.5, 0, 5, 0, 0.5),
        ("thm53.c2", ">", 5.0, 0, 5, 1, 5),
    ])
    # a/gamma = 3a, not 2a, against c; r/gamma = 3r against R
    with pytest.raises(ConfigError, match="need a/gamma <= c, got "
                                          "a/gamma=3.0, c=2.9"):
        expand_conditions(replace(nine, region=replace(region, c=(2.9, 5.0))))
    with pytest.raises(ConfigError, match="need r/gamma < R, got "
                                          "r/gamma=3.0, R=2.9"):
        expand_conditions(replace(hybrid, region=replace(
            region, annulus=(1.0, 2.9))))


def test_check_thm52_symmetric_example():
    report = check_theorem(nine_problem())
    assert report.overall == "AllPass"
    assert all(r.verdict.status == "Pass" for r in report.conditions)
    assert report.promised.solutions == 9
    assert report.promised.coexistence == 4
    assert len(report.promised.regions) == 9


def test_check_thm51_conditions_a_to_d_pass_e_fails():
    report = check_theorem(hybrid_problem())
    statuses = {r.cond.condition_id: r.verdict.status for r in report.conditions}
    assert statuses == {"thm51.a": "Pass", "thm51.b": "Pass", "thm51.c": "Pass",
                        "thm51.d": "Pass", "thm51.e": "Fail"}
    assert report.overall == "SomeFail"
    assert report.promised is None


def test_unknown_with_a_lattice_violation_is_a_fail():
    # thm52.c1 is f1 > 4 on [1, 2] x [0, 5]: f1 = 4 at x2 = 0, which box
    # midpoints approach only as 2^-depth, so branch and bound ends
    # depth-capped Unknown, while the lattice corner (1, 0) refutes it
    f1 = parse_expr("4 + 1e300*x2*x2")
    problem = replace(nine_problem(), f1=f1)
    q = next(q for q in expand_conditions(problem)
             if q.condition_id == "thm52.c1")
    alone = certify_box(q)
    assert (alone.status, alone.max_depth_reached) == ("Unknown", True)
    result = next(r for r in check_theorem(problem).conditions
                  if r.cond.condition_id == "thm52.c1")
    assert result.verdict.status == "Fail"
    assert result.verdict.witness == (1.0, 0.0, 4.0)
    assert result.verdict.boxes_explored == alone.boxes_explored
    assert result.verdict.note.startswith("oracle lattice witness")
    assert result.agrees is True


def test_ordering_violation_is_config_error():
    bad = RegionSpec(d=(0.9, 0.9), a=(1.0, 1.0), c=(1.9, 5.0))
    problem = ProblemSpec(DirichletNeumann(), DirichletNeumann(), F_SYM, F_SYM,
                          bad, "nine")
    with pytest.raises(ConfigError) as err:
        expand_conditions(problem)
    assert str(err.value) == ("component 1: need a/gamma <= c, got "
                              "a/gamma=2.0, c=1.9")


def test_kernel_theorem_mismatch():
    # the theorem follows from the mode, so a kernel that does not fit it
    # never reaches expand_conditions: ProblemSpec rejects the pairing
    problem = nine_problem()
    with pytest.raises(ConfigError):
        replace(problem, mode="thm53")
    rcd = ReactionConvectionDiffusion(1.0)
    with pytest.raises(ConfigError):
        replace(problem, kernel1=rcd, kernel2=rcd)
    assert expand_conditions(problem)


def test_thm53_templates_and_bounds():
    beta = 1.0
    s8 = 3.0 - 2.0 * math.sqrt(2.0)
    st8 = 3.0 + 2.0 * math.sqrt(2.0)
    s10 = 4.0 - math.sqrt(15.0)
    st10 = 4.0 + math.sqrt(15.0)
    region = RegionSpec(d=(s8, s10), a=(st8, st10),
                        c=(st8 * math.e, st10 * math.e))
    p1 = math.exp(-1.0)
    q1 = 10 * st10 * math.e
    p2 = 3 * math.exp(-1.0)
    q2 = 8 * st8 * math.e
    f1 = parse_expr(f"{p1!r}*({q1!r} - x2)*exp(-8/(1 + x1))")
    f2 = parse_expr(f"{p2!r}*({q2!r} - x1)*exp(-10/(1 + x2))")
    problem = ProblemSpec(ReactionConvectionDiffusion(beta),
                          ReactionConvectionDiffusion(beta), f1, f2,
                          region, "thm53")
    # the plain theorem needs a*exp(1/beta) strictly below c: here they are
    # equal, which is exactly the strict-positivity relaxation's job
    with pytest.raises(ConfigError):
        expand_conditions(problem)
    problem = replace(problem, remark52=True)
    conds = expand_conditions(problem)
    by_id = {q.condition_id: q for q in conds}
    assert by_id["thm53.a1"].relation == ">"
    assert by_id["thm53.a1"].bound == 0.0
    growth = 1.0 - math.exp(-1.0)
    assert by_id["thm53.c1"].bound == pytest.approx(st8 / growth, rel=1e-14)
    assert by_id["thm53.c2"].bound == pytest.approx(st10 / growth, rel=1e-14)
    assert by_id["thm53.b1"].bound == s8
    report = check_theorem(problem)
    assert report.theorem_id == "thm53_remark52"
    assert report.overall == "AllPass"
    assert report.promised.solutions == 4
    assert report.promised.coexistence == 1


def test_thm53_plain_relation_is_nonstrict():
    beta = 1.0
    region = RegionSpec(d=(0.1, 0.1), a=(1.0, 1.0), c=(4.0, 4.0))
    f = parse_expr("0.05 + x1*0")
    problem = ProblemSpec(ReactionConvectionDiffusion(beta),
                          ReactionConvectionDiffusion(beta), f, f,
                          region, "thm53")
    conds = expand_conditions(problem)
    by_id = {q.condition_id: q for q in conds}
    assert by_id["thm53.a1"].relation == ">="


def test_verdict_order_matches_condition_order():
    report = check_theorem(nine_problem())
    ids = [r.cond.condition_id for r in report.conditions]
    assert ids == ["thm52.a1", "thm52.b1", "thm52.c1",
                   "thm52.a2", "thm52.b2", "thm52.c2"]
