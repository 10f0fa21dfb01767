import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.expr import (BinOp, Call, Const, EvalError, NamedConst, Neg,
                           ParseError, Var, eval_interval, eval_point,
                           eval_values, parse_expr, unparse)
from conecert.interval import Interval

EXPR_POOL = [
    "0.5 + 5*phi(x1)*psi(x2)",
    "4.5 + 5*phi(x1)*psi(x2) - 4*capphi(x1)",
    "exp(x2^2/32) + 0.1*cos(pi*x1)",
    "exp(-8/(1 + x1))",
    "min(x1, x2) + max(x1, 1)",
    "abs(x1 - x2) * sin(x2/4)",
    "x1^3 - 2*x2 + 1",
    "(x1 + x2)/(x2^2 + 3)",
]


# ---------------------------------------------------------------------------
# parsing

def test_parse_paper_nonlinearity_structure():
    tree = parse_expr("0.5 + 5*phi(x1)*psi(x2)")
    expected = BinOp(
        "+",
        Const(0.5),
        BinOp("*",
              BinOp("*", Const(5.0), Call("phi", (Var("x1"),))),
              Call("psi", (Var("x2"),))))
    assert tree == expected


def test_parse_single_variable():
    assert parse_expr("x1") == Var("x1")


def test_parse_exp_call_tree():
    tree = parse_expr("exp(-8/(1+x1))")
    expected = Call("exp", (BinOp("/", Neg(Const(8.0)),
                                  BinOp("+", Const(1.0), Var("x1"))),))
    assert tree == expected


def test_precedence_power_over_unary_minus():
    # -x^2 == -(x^2)
    assert parse_expr("-x1^2") == Neg(BinOp("^", Var("x1"), Const(2.0)))


def test_power_right_associative():
    assert parse_expr("x1^2^3") == BinOp(
        "^", Var("x1"), BinOp("^", Const(2.0), Const(3.0)))


def test_named_constants():
    assert parse_expr("pi") == NamedConst("pi")
    assert math.isclose(eval_point(parse_expr("cos(pi)"), 0, 0), -1.0)
    assert math.isclose(eval_point(parse_expr("e"), 0, 0), math.e)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("1 + * 2")
    assert err.value.offset == 4


def test_parse_error_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse_expr("foo(x1)")
    assert "unknown identifier" in err.value.message
    assert err.value.offset == 0


def test_parse_error_arity():
    with pytest.raises(ParseError):
        parse_expr("min(x1)")
    with pytest.raises(ParseError):
        parse_expr("exp(x1, x2)")


def test_parse_error_trailing():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 x2")
    assert err.value.offset == 3


def test_parse_error_offset_within_input():
    for bad in ("", "(", "1+", "phi", "2*)", "cos(", "?"):
        with pytest.raises(ParseError) as err:
            parse_expr(bad)
        assert 0 <= err.value.offset <= len(bad)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_parser_totality(src):
    # no input may crash: either a tree comes back or ParseError is raised
    try:
        parse_expr(src)
    except ParseError:
        pass


def test_roundtrip_pool():
    for src in EXPR_POOL:
        tree = parse_expr(src)
        assert parse_expr(unparse(tree)) == tree


def test_roundtrip_tricky_shapes():
    cases = [
        "-(x1 + x2)", "-x1^2", "(x1^2)^3", "x1 - (x2 - 1)", "x1/(x2*x2)",
        "2^-2", "--x1", "min(max(x1, 0.5), psi(x2))",
    ]
    for src in cases:
        tree = parse_expr(src)
        assert parse_expr(unparse(tree)) == tree


# ---------------------------------------------------------------------------
# pointwise evaluation

def test_phi_first_piece():
    assert eval_point(parse_expr("phi(x1)"), 0.25, 0.0) == 0.0


def test_paper_nonlinearity_at_ones():
    assert eval_point(parse_expr("0.5+5*phi(x1)*psi(x2)"), 1.0, 1.0) == 5.5


def test_capphi_middle_piece():
    assert eval_point(parse_expr("capphi(x1)"), 0.75, 0.0) == 0.5


def test_breakpoint_exactness():
    phi = parse_expr("phi(x1)")
    psi = parse_expr("psi(x1)")
    capphi = parse_expr("capphi(x1)")
    for z, phi_v, psi_v, cap_v in ((0.0, 0.0, 0.0, 1.0),
                                   (0.5, 0.0, 0.5, 1.0),
                                   (1.0, 1.0, 1.0, 0.0)):
        assert eval_point(phi, z, 0.0) == phi_v
        assert eval_point(psi, z, 0.0) == psi_v
        assert eval_point(capphi, z, 0.0) == cap_v


def test_builtins_clamp_negative_arguments():
    assert eval_point(parse_expr("phi(x1)"), -0.3, 0.0) == 0.0
    assert eval_point(parse_expr("psi(x1)"), -0.3, 0.0) == 0.0
    assert eval_point(parse_expr("capphi(x1)"), -0.3, 0.0) == 1.0


def test_eval_division_by_zero():
    with pytest.raises(EvalError) as err:
        eval_point(parse_expr("1/x1"), 0.0, 0.0)
    assert "division" in err.value.message


def test_eval_ln_nonpositive():
    with pytest.raises(EvalError):
        eval_point(parse_expr("ln(x1)"), -1.0, 0.0)


RAMP_POOL = ["phi(x1)", "psi(x1)", "capphi(x1)", "phi(x1 - x2)",
             "capphi(2*x2 - 1) + psi(x1/2)", "phi(-x1)*capphi(-x2)"]
RAMP_ENDPOINTS = (-0.3, 0.0, 0.5, 0.75, 1.0, 2.0)


def test_eval_values_vectorised_matches_point():
    # arrays and scalars run the same walk, so every value agrees exactly,
    # including negative ramp arguments and the breakpoints 1/2 and 1
    grid = np.array([-0.3, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0])
    x1, x2 = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    for src in EXPR_POOL + RAMP_POOL:
        tree = parse_expr(src)
        vals = eval_values(tree, x1, x2)
        for i in range(len(x1)):
            assert vals[i] == eval_point(tree, x1[i], x2[i]), (src, x1[i], x2[i])


# ---------------------------------------------------------------------------
# interval evaluation

def test_phi_interval_vanishing_piece():
    iv = eval_interval(parse_expr("phi(x1)"), Interval(0, 0.5), Interval(0, 1))
    assert iv == Interval(0.0, 0.0)


def test_psi_interval_capped():
    iv = eval_interval(parse_expr("psi(x1)"), Interval(0.5, 2), Interval(0, 1))
    assert iv == Interval(0.5, 1.0)


def test_capphi_interval_decreasing():
    iv = eval_interval(parse_expr("capphi(x1)"), Interval(0.6, 0.8), Interval(0, 1))
    assert iv.lo == pytest.approx(0.4, abs=1e-12)
    assert iv.hi == pytest.approx(0.8, abs=1e-12)
    assert iv.contains(0.4) and iv.contains(0.8)


def test_ramp_interval_is_endpoint_image():
    # phi and psi are nondecreasing, capphi nonincreasing, and all three are
    # exact in floats, so the enclosure is the image of the two endpoints
    for fn, rising in (("phi", True), ("psi", True), ("capphi", False)):
        tree = parse_expr(f"{fn}(x1)")
        for lo in RAMP_ENDPOINTS:
            for hi in RAMP_ENDPOINTS:
                if hi < lo:
                    continue
                iv = eval_interval(tree, Interval(lo, hi), Interval(0, 0))
                ends = (eval_point(tree, lo, 0.0), eval_point(tree, hi, 0.0))
                assert (iv.lo, iv.hi) == (ends if rising else ends[::-1])
                lattice = eval_values(tree, np.linspace(lo, hi, 101), 0.0)
                assert np.all((iv.lo <= lattice) & (lattice <= iv.hi)), (fn, lo, hi)


def test_nonlinearity_range_matches_grid_oracle():
    # dense-lattice oracle for the range over [0,5]^2, then the enclosure
    tree = parse_expr("0.5+5*phi(x1)*psi(x2)")
    grid = np.linspace(0.0, 5.0, 201)
    x1, x2 = np.meshgrid(grid, grid, indexing="ij")
    vals = eval_values(tree, x1, x2)
    assert float(vals.max()) == 5.5
    assert float(vals.min()) == 0.5
    iv = eval_interval(tree, Interval(0, 5), Interval(0, 5))
    assert iv.lo <= 0.5 and iv.hi >= 5.5
    assert iv.lo == pytest.approx(0.5, abs=1e-9)
    assert iv.hi == pytest.approx(5.5, abs=1e-9)


def test_interval_power_requires_natural_constant():
    with pytest.raises(EvalError):
        eval_interval(parse_expr("x1^x2"), Interval(1, 2), Interval(1, 2))
    with pytest.raises(EvalError):
        eval_interval(parse_expr("x1^1.5"), Interval(1, 2), Interval(1, 2))
    with pytest.raises(EvalError):
        eval_interval(parse_expr("x1^1e999"), Interval(1, 2), Interval(1, 2))
    iv = eval_interval(parse_expr("x1^2"), Interval(-1, 2), Interval(0, 0))
    assert iv.lo == 0.0 and iv.hi >= 4.0


def test_interval_division_domain_error_carries_offset():
    with pytest.raises(EvalError) as err:
        eval_interval(parse_expr("1/(x1 - 1)"), Interval(0, 2), Interval(0, 1))
    assert err.value.offset == 1


def test_point_in_interval_consistency():
    rng = np.random.default_rng(99)
    trees = [parse_expr(src) for src in EXPR_POOL]
    for _ in range(1000):
        lo1, lo2 = rng.uniform(0, 4, 2)
        b1 = Interval(lo1, lo1 + rng.uniform(0, 2))
        b2 = Interval(lo2, lo2 + rng.uniform(0, 2))
        x1 = rng.uniform(b1.lo, b1.hi)
        x2 = rng.uniform(b2.lo, b2.hi)
        for tree in trees:
            enclosure = eval_interval(tree, b1, b2)
            value = eval_point(tree, x1, x2)
            assert enclosure.lo <= value <= enclosure.hi, (unparse(tree), b1, b2)
