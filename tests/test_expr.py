import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conecert import expr, hypotheses, interval
from conecert.expr import (BinOp, Call, Const, EvalError, NamedConst, Neg,
                           ParseError, Var, eval_interval, eval_point,
                           eval_values, first_failure, float_flags,
                           float_program, gradient_program, interval_program,
                           parse_expr, ramp_breakpoints)
from conecert.hypotheses import BoxIneq, certify_box, grid_oracle
from conecert.interval import E, PI, Interval, midpoint

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


@pytest.mark.parametrize("src, offset", [("1e999 - x1", 0), ("x1^1e999", 3),
                                         ("2*1e400", 2)])
def test_parse_rejects_a_number_that_overflows(src, offset):
    # no float operation turns finite operands into inf without raising, so
    # a literal is the one way an infinity could enter a float program
    with pytest.raises(ParseError) as err:
        parse_expr(src)
    assert err.value.offset == offset
    assert "overflows a float" in err.value.message


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_const_refuses_a_non_finite_value(value):
    # a tree built by hand skips the parser's check, and inf - x1 would
    # evaluate to inf with no flag raised
    with pytest.raises(ValueError):
        BinOp("-", Const(value), Var("x1"))


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


def test_ramps_saturate_at_the_ends_of_the_float_range():
    # a ramp clips its argument before doubling it, so no finite argument
    # overflows it
    for z in (1e308, -1e308):
        for fn, want in (("phi", z > 0), ("psi", z > 0), ("capphi", z < 0)):
            assert eval_point(parse_expr(f"{fn}(x1)"), z, 0.0) == float(want)


@given(st.floats(), st.sampled_from(((0.5, 1.0), (0.0, 1.0))))
@example(-0.0, (0.0, 1.0))
@example(0.5, (0.5, 1.0))
@example(1.0, (0.0, 1.0))
@example(math.nan, (0.0, 1.0))
def test_scalar_clip_gives_numpy_bits(v, bounds):
    # a midpoint's ramp compares instead of running two ufuncs, with the
    # same value and sign: a tie gives the bound, and NaN passes through
    lo, hi = bounds
    got = expr._clip(np.float64(v), lo, hi)
    want = np.minimum(np.maximum(np.float64(v), lo), hi)
    assert type(got) is np.float64
    assert np.signbit(got) == np.signbit(want)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_eval_division_by_zero():
    with pytest.raises(EvalError) as err:
        eval_point(parse_expr("1/x1"), 0.0, 0.0)
    assert err.value.message == "divide by zero encountered in divide"


def test_eval_ln_nonpositive():
    with pytest.raises(EvalError):
        eval_point(parse_expr("ln(x1)"), -1.0, 0.0)


RAMP_POOL = ["phi(x1)", "psi(x1)", "capphi(x1)", "phi(x1 - x2)",
             "capphi(2*x2 - 1) + psi(x1/2)", "phi(-x1)*capphi(-x2)"]
RAMP_ENDPOINTS = (-0.3, 0.0, 0.5, 0.75, 1.0, 2.0)


def test_eval_values_vectorised_matches_point():
    # arrays and scalars run the same compiled program, so every value
    # agrees exactly, including negative ramp arguments and the breakpoints
    # 1/2 and 1
    grid = np.array([-0.3, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0])
    x1, x2 = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    for src in EXPR_POOL + RAMP_POOL:
        tree = parse_expr(src)
        vals = eval_values(tree, x1, x2)
        for i in range(len(x1)):
            assert vals[i] == eval_point(tree, x1[i], x2[i]), (src, x1[i], x2[i])


@pytest.mark.parametrize("src", ["x1", "x2", "5", "x1*x2 + 1"])
@pytest.mark.parametrize("lattice", ["full", "broadcast"])
def test_eval_values_returns_a_new_array(src, lattice):
    # the program's own result is returned uncopied only when it is a new
    # full-shape array: a bare variable returns its input, a constant a
    # scalar, and a one-variable term on a broadcast lattice a smaller array
    g1, g2 = np.linspace(0.0, 1.0, 3), np.linspace(2.0, 3.0, 4)
    x1, x2 = np.meshgrid(g1, g2, indexing="ij") if lattice == "full" \
        else (g1[:, None], g2[None, :])
    before = x1.copy(), x2.copy()
    out = eval_values(parse_expr(src), x1, x2)
    assert out.shape == (3, 4)
    assert not np.shares_memory(out, x1) and not np.shares_memory(out, x2)
    out[...] = -1.0
    assert np.array_equal(x1, before[0]) and np.array_equal(x2, before[1])


# random trees over every operation, with constants near the float range's
# ends, so that overflow, underflow, division by zero and invalid operations
# all occur
_LEAVES = (st.builds(Var, st.sampled_from(["x1", "x2"]))
           | st.builds(NamedConst, st.sampled_from(["pi", "e"]))
           | st.builds(Const, st.floats(-10.0, 10.0)
                       | st.sampled_from([0.0, 1e308, -1e308, 1.7e308, 1e-308,
                                          5e-324, 709.0, 710.0])))


def _extend(children):
    return (st.builds(Neg, children)
            | st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]),
                        children, children)
            | st.builds(Call, st.sampled_from(["exp", "cos", "sin", "ln", "abs",
                                               "phi", "psi", "capphi"]),
                        st.tuples(children))
            | st.builds(Call, st.sampled_from(["min", "max"]),
                        st.tuples(children, children)))


_TREES = st.recursive(_LEAVES, _extend, max_leaves=10)
_POINTS = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e308, -1e308,
                                                  1e-320])


def _point_or_error(tree, x1, x2):
    """eval_point's value, or its EvalError; never inf or NaN."""
    try:
        value = eval_point(tree, x1, x2)
    except EvalError as err:
        return err
    assert type(value) is float and math.isfinite(value), (tree, value)
    return value


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(_TREES, st.lists(st.tuples(_POINTS, _POINTS), min_size=1, max_size=4))
def test_float_evaluation_is_finite_or_an_eval_error(tree, points):
    # every overflow, division by zero and invalid operation raises at its
    # own node, with no warning (which fails the test); arrays agree with
    # points bit for bit where every point evaluates
    results = [_point_or_error(tree, x1, x2) for x1, x2 in points]
    if any(isinstance(r, EvalError) for r in results):
        return
    x1, x2 = (np.array(c) for c in zip(*points))
    values = eval_values(tree, x1, x2)
    assert np.array_equal(values, np.array(results)), tree


@settings(max_examples=200, deadline=None)
@given(_TREES, st.lists(st.tuples(_POINTS, _POINTS), min_size=1, max_size=8))
def test_first_failure_is_the_first_failing_point(tree, points):
    results = [_point_or_error(tree, x1, x2) for x1, x2 in points]
    failing = [i for i, r in enumerate(results) if isinstance(r, EvalError)]
    if not failing:
        return
    x1, x2 = (np.array(c) for c in zip(*points))
    with pytest.raises(EvalError) as err:
        eval_values(tree, x1, x2)
    at, error = first_failure(tree, x1, x2, err.value)
    assert at == failing[0]
    assert error.offset == results[at].offset


def test_first_failure_indexes_the_broadcast_lattice():
    # row-major over the broadcast shape, x1 outer
    tree = parse_expr("1/(x1 - 2) + 1/(x2 - 1)")
    g1, g2 = np.arange(4.0)[:, None], np.arange(3.0)[None, :]
    with pytest.raises(EvalError) as err:
        eval_values(tree, g1, g2)
    at, error = first_failure(tree, g1, g2, err.value)
    assert at == 1 and error.offset == 14  # (x1, x2) = (0, 1)


def _arena_free(tree, x1, x2):
    """eval_values as the program computes it with no arena: one new array
    per operation, copied out to the broadcast shape."""
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    with float_flags():
        out = float_program(tree)(x1, x2)
    return np.broadcast_to(out, np.broadcast_shapes(x1.shape, x2.shape)).copy()


def _value_or_error(evaluate, tree, x1, x2):
    try:
        return evaluate(tree, x1, x2)
    except EvalError as err:
        return err


def _array(values, shape):
    return np.array(values[:math.prod(shape)]).reshape(shape)


def _numbered(node, offsets):
    """A copy of node whose offsets number its nodes in pre-order, so that
    an EvalError's offset says which node failed."""
    fields = {"offset": next(offsets)}
    if isinstance(node, Neg):
        fields["operand"] = _numbered(node.operand, offsets)
    elif isinstance(node, BinOp):
        fields["left"] = _numbered(node.left, offsets)
        fields["right"] = _numbered(node.right, offsets)
    elif isinstance(node, Call):
        fields["args"] = tuple(_numbered(a, offsets) for a in node.args)
    return dataclasses.replace(node, **fields)


# leaves in both variables as well, so that nodes in both variables nest
# and the arena's slots are taken and reused at several depths
_IN_BOTH = st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]),
                     st.builds(Var, st.just("x1")), st.builds(Var, st.just("x2")))
_ARENA_TREES = st.recursive(_IN_BOTH | _IN_BOTH | _LEAVES, _extend,
                            max_leaves=12).map(
    lambda tree: _numbered(tree, itertools.count()))

# the three layouts the checker and the solver pass: a broadcast lattice
# (n, 1) x (1, n), equal shapes (S, n) x (S, n) as first_failure and the
# solver's _locate pass them, and a scalar with an array
_LAYOUTS = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda n: ((n[0], 1), (1, n[1]))),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda s: (s, s)),
    st.integers(1, 4).flatmap(
        lambda n: st.sampled_from([((), (n,)), ((n,), ())])))


# both operands of the sum fail at every point, the product first
@example(parse_expr("x1*x2 + x1/(x2 - x2)"), ((2, 1), (1, 2)), [1e308] * 18)
@settings(max_examples=300, deadline=None)
@given(_ARENA_TREES, _LAYOUTS, st.lists(_POINTS, min_size=18, max_size=18))
def test_eval_values_matches_the_arena_free_program(tree, layout, points):
    # the arena changes where values are written, not which operations run
    # or in what order: the same bits, or the same first failure
    x1, x2 = _array(points, layout[0]), _array(points[9:], layout[1])
    got = _value_or_error(eval_values, tree, x1, x2)
    want = _value_or_error(_arena_free, tree, x1, x2)
    assert type(got) is type(want), (tree, got, want)
    if isinstance(want, EvalError):
        assert (got.offset, got.message) == (want.offset, want.message)
        at, error = first_failure(tree, x1, x2, got)
        with mock.patch.object(expr, "eval_values", _arena_free):
            want_at, want_error = first_failure(tree, x1, x2, want)
        assert at == want_at
        assert (error.offset, error.message) == (want_error.offset,
                                                 want_error.message)
    else:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), tree
        assert not np.shares_memory(got, x1) and not np.shares_memory(got, x2)


def test_a_lattice_holds_two_full_size_values_at_most():
    # verify-tight's f1 is a sum of two terms in both variables, so two
    # 201^2 values are live at once and its arena has two slots.  The peak
    # is those two arrays plus numpy's iteration buffers and the one-variable
    # terms (about 762 KiB, as without an arena); a third full-size value
    # would take it past 2.5 arrays.
    f1 = parse_expr("4.5 + 5*phi(x1)*psi(x2) - 4*capphi(x1)"
                    " + 0.9235570431227818*x1*(6.0 - x1)/9.0*cos(x2)")
    g = np.linspace(0.0, 5.0, 201)
    eval_values(f1, g[:, None], g[None, :])  # compiled outside the trace
    tracemalloc.start()
    try:
        eval_values(f1, g[:, None], g[None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 201 * 201 * 8


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
    assert iv.lo <= 0.4 and 0.8 <= iv.hi


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
    # an infinite exponent does not parse, and a tree built by hand cannot
    # hold one either
    with pytest.raises(ValueError):
        BinOp("^", Var("x1"), Const(math.inf))
    iv = eval_interval(parse_expr("x1^2"), Interval(-1, 2), Interval(0, 0))
    assert iv.lo == 0.0 and iv.hi >= 4.0


def test_interval_division_domain_error_carries_offset():
    with pytest.raises(EvalError) as err:
        eval_interval(parse_expr("1/(x1 - 1)"), Interval(0, 2), Interval(0, 1))
    assert err.value.offset == 1


def test_eval_errors_keep_the_offset_of_their_own_tree():
    # equal trees (offsets are not compared) get one compiled program each,
    # whichever is evaluated first, and a dead tree's program is never
    # handed to a new tree that reuses its id
    for order in ((0, 1), (1, 0)):
        trees = (parse_expr("1/(x1-x1)"), parse_expr("   1/(x1-x1)"))
        assert trees[0] == trees[1]
        for i in order:
            with pytest.raises(EvalError) as err:
                eval_point(trees[i], 1.0, 2.0)
            assert err.value.offset == (1, 4)[i]
    for pad in range(20):
        with pytest.raises(EvalError) as err:
            eval_point(parse_expr(" " * pad + "1/(x1-x1)"), 1.0, 2.0)
        assert err.value.offset == pad + 1


_IV_BINARY = {"+": interval.add, "-": interval.sub, "*": interval.mul,
              "/": interval.div}
_IV_CALLS = {"exp": interval.exp, "cos": interval.cos, "sin": interval.sin,
             "ln": interval.log, "abs": interval.absolute,
             "min": interval.minimum, "max": interval.maximum}


def _composed_enclosure(node, b1, b2):
    """The enclosure as a recursive composition of the pair kernels; a ramp
    is its float image of the two endpoints, in order (capphi reversed)."""
    if isinstance(node, Var):
        return b1 if node.name == "x1" else b2
    if isinstance(node, Const):
        return node.value, node.value
    if isinstance(node, NamedConst):
        const = PI if node.name == "pi" else E
        return const.lo, const.hi
    if isinstance(node, Neg):
        return interval.neg(_composed_enclosure(node.operand, b1, b2))
    if isinstance(node, Call):
        args = [_composed_enclosure(a, b1, b2) for a in node.args]
        if node.fn in _IV_CALLS:
            return _IV_CALLS[node.fn](*args)
        ramp = parse_expr(f"{node.fn}(x1)")
        return tuple(sorted(eval_point(ramp, z, 0.0) for z in args[0]))
    left = _composed_enclosure(node.left, b1, b2)
    if node.op == "^":
        return interval.pow_nat(left, int(node.right.value))
    return _IV_BINARY[node.op](left, _composed_enclosure(node.right, b1, b2))


def test_point_in_interval_consistency():
    # each compiled enclosure contains the point value, and equals the
    # composition of the pair kernels bit for bit (the compiler's wiring)
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
            assert enclosure.lo <= value <= enclosure.hi, (tree, b1, b2)
            composed = _composed_enclosure(tree, (b1.lo, b1.hi), (b2.lo, b2.hi))
            assert repr(enclosure) == repr(Interval(*composed)), \
                (tree, b1, b2)


# ---------------------------------------------------------------------------
# gradient enclosures

GRADIENT_POOL = EXPR_POOL + RAMP_POOL + [
    "abs(x1 - 2)*x2 - abs(3 - x2)",
    "max(x1*x2, 3) - min(x1, 2*x2)",
    "(x1^2 + 1)/(x2 + 0.5) - x1/(x2^3 + 1)",
    "ln(1 + x1*x2)*cos(x1) - x2^4/100",
    "-phi(x1/2)*capphi(x2/3) + psi(x1 - x2)",
]
_BREAKPOINTS = {"phi": (0.5, 1.0), "capphi": (0.5, 1.0), "psi": (0.0, 1.0),
                "abs": (0.0,)}


def _kink_distance(node, x1, x2):
    """How far (x1, x2) is from every kink of the tree, measured in the
    argument of each nonsmooth builtin (min and max: their operands' gap)."""
    here = math.inf
    children = ()
    if isinstance(node, Call):
        children = node.args
        values = [eval_point(a, x1, x2) for a in node.args]
        if node.fn in ("min", "max"):
            here = abs(values[0] - values[1])
        elif node.fn in _BREAKPOINTS:
            here = min(abs(values[0] - b) for b in _BREAKPOINTS[node.fn])
    elif isinstance(node, Neg):
        children = (node.operand,)
    elif isinstance(node, BinOp):
        children = (node.left, node.right)
    return min([here] + [_kink_distance(c, x1, x2) for c in children])


_SNAPS = (0.0, 0.5, 1.0)


@st.composite
def _axis(draw):
    """A closed axis (lo, hi), of width at most 2, whose ends sometimes sit
    on a ramp breakpoint, where the slope rules change."""
    lo = draw(st.floats(0.0, 4.0) | st.sampled_from(_SNAPS))
    hi = lo + draw(st.floats(1e-3, 2.0))
    above = [b for b in _SNAPS if lo < b]
    if above and draw(st.booleans()):
        hi = draw(st.sampled_from(above))
    return lo, hi


_BOXES = (_axis(), _axis())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GRADIENT_POOL), *_BOXES)
def test_gradient_program_encloses_value_and_slopes(src, b1, b2):
    # the value is the interval program's bit for bit; d1 and d2 contain the
    # centred difference slope at interior lattice points away from kinks
    tree = parse_expr(src)
    value, d1, d2 = gradient_program(tree)(b1, b2)
    assert value == interval_program(tree)(b1, b2)
    h = 1e-8
    for t1 in (0.2, 0.5, 0.8):
        for t2 in (0.2, 0.5, 0.8):
            x1 = b1[0] + t1 * (b1[1] - b1[0])
            x2 = b2[0] + t2 * (b2[1] - b2[0])
            if _kink_distance(tree, x1, x2) < 1e-6:
                continue
            s1 = (eval_point(tree, x1 + h, x2) - eval_point(tree, x1 - h, x2)) / (2 * h)
            s2 = (eval_point(tree, x1, x2 + h) - eval_point(tree, x1, x2 - h)) / (2 * h)
            for s, d in ((s1, d1), (s2, d2)):
                tol = 1e-5 * (1.0 + abs(s))
                assert d[0] - tol <= s <= d[1] + tol, (src, b1, b2, x1, x2, s, d)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GRADIENT_POOL), st.sampled_from(["<", "<=", ">", ">="]),
       *_BOXES, st.floats(0.0, 1e-3))
def test_lattice_violation_never_passes(src, relation, b1, b2, gap):
    # a bound at (strict relations) or just inside the lattice's extremum:
    # the 201^2 lattice shows a violation, so no enclosure or first-order
    # test may prove the relation
    tree = parse_expr(src)
    b = (Interval(*b1), Interval(*b2))
    probe = grid_oracle(BoxIneq(tree, b, relation, 0.0, "probe"), 201)
    upper = relation in ("<", "<=")
    extremum = probe.sup if upper else probe.inf
    if relation in ("<=", ">="):
        gap = max(gap, 1e-12)
    bound = extremum - gap if upper else extremum + gap
    q = BoxIneq(tree, b, relation, bound, "t")
    assert grid_oracle(q, 201).first_violation is not None
    assert certify_box(q, budget=500).status != "Pass", (src, relation, b, bound)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GRADIENT_POOL), st.sampled_from(["<", "<=", ">", ">="]),
       *_BOXES)
def test_mean_value_skip_never_drops_a_certifying_form(src, relation, b1, b2):
    # certify_box skips the mean-value centre's value program when the
    # natural enclosure's near end plus the slope term already violates the
    # relation; at bounds on and beside both the full form's end and that
    # sum, a skipped form never certifies
    tree = parse_expr(src)
    value, d1, d2 = gradient_program(tree)(b1, b2)
    m1, m2 = midpoint(*b1), midpoint(*b2)
    slope = hypotheses._slope_term(d1, d2, b1, b2, m1, m2)
    form = interval.add(interval_program(tree)((m1, m1), (m2, m2)), slope)
    holds, upper = hypotheses._RELATIONS[relation]
    reach = hypotheses._mean_value_reach(value, slope, upper)
    for at in (form[upper], reach):
        for bound in (math.nextafter(at, -math.inf), at,
                      math.nextafter(at, math.inf)):
            certified = holds(form[upper], bound)
            skipped = not holds(reach, bound)
            assert not (skipped and certified), (src, relation, b1, b2, bound)


@pytest.mark.parametrize("src, lo, hi, slope", [
    ("phi(x1)", 0.5, 1.0, (2.0, 2.0)),
    ("phi(x1)", 0.0, 0.5, (0.0, 0.0)),
    ("phi(x1)", 1.0, 2.0, (0.0, 0.0)),
    ("phi(x1)", 0.4, 0.6, (0.0, 2.0)),
    ("phi(x1)", 0.9, 1.1, (0.0, 2.0)),
    ("phi(x1)", 0.5, 1.5, (0.0, 2.0)),
    ("psi(x1)", 0.0, 1.0, (1.0, 1.0)),
    ("psi(x1)", -1.0, 0.0, (0.0, 0.0)),
    ("psi(x1)", 1.0, 2.0, (0.0, 0.0)),
    ("psi(x1)", -0.1, 0.1, (0.0, 1.0)),
    ("psi(x1)", 0.9, 1.1, (0.0, 1.0)),
    ("psi(x1)", 0.0, 2.0, (0.0, 1.0)),
    ("capphi(x1)", 0.5, 1.0, (-2.0, -2.0)),
    ("capphi(x1)", 0.0, 0.5, (0.0, 0.0)),
    ("capphi(x1)", 1.0, 2.0, (0.0, 0.0)),
    ("capphi(x1)", 0.4, 0.6, (-2.0, 0.0)),
    ("capphi(x1)", 0.9, 1.1, (-2.0, 0.0)),
    ("capphi(x1)", 0.5, 1.5, (-2.0, 0.0)),
])
def test_ramp_slope_of_a_closed_piece(src, lo, hi, slope):
    # an argument enclosure inside one closed piece takes that piece's
    # slope, ends on a breakpoint included; only a strict straddle takes
    # the hull of both slopes
    _, d1, d2 = gradient_program(parse_expr(src))((lo, hi), (0.0, 1.0))
    assert d1 == slope
    assert d2 == (0.0, 0.0)


def test_ramp_breakpoints_of_bare_variables():
    # only a ramp applied to x1 or x2 itself says where to split that axis
    tree = parse_expr("phi(x1)*psi(x2) - 4*capphi(x1) + psi(x1 - x2) + phi(2*x2)")
    assert ramp_breakpoints(tree) == ((0.5, 1.0), (0.0, 1.0))
    assert ramp_breakpoints(parse_expr("x1*x2")) == ((), ())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GRADIENT_POOL), *_BOXES)
def test_broadcast_lattice_is_the_full_lattice_bit_for_bit(src, b1, b2):
    # the oracle evaluates on a broadcast lattice, which must give the
    # full meshgrid lattice's values bit for bit whatever the memory layout
    # of each numpy loop, so the oracle's extrema are unchanged too
    tree = parse_expr(src)
    g1, g2 = np.linspace(*b1, 201), np.linspace(*b2, 201)
    full = eval_values(tree, *np.meshgrid(g1, g2, indexing="ij"))
    broadcast = eval_values(tree, g1[:, None], g2[None, :])
    assert np.array_equal(full.view(np.int64), broadcast.view(np.int64)), src
    probe = grid_oracle(BoxIneq(tree, (Interval(*b1), Interval(*b2)), "<=", 0.0, "p"))
    assert (probe.sup, probe.inf) == (full.max(), full.min())


# ---------------------------------------------------------------------------
# dual programs

# random trees over every operator and builtin, with constant natural
# exponents only, so that the gradient table compiles each of them too
_VARIABLES = st.builds(Var, st.sampled_from(["x1", "x2"]))
_MODERATE_LEAVES = (_VARIABLES | _VARIABLES
                    | st.builds(NamedConst, st.sampled_from(["pi", "e"]))
                    | st.builds(Const, st.floats(-4.0, 4.0)))


def _extend_natural(children):
    return (st.builds(Neg, children)
            | st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]),
                        children, children)
            | st.builds(BinOp, st.just("^"), children,
                        st.builds(Const, st.integers(0, 3).map(float)))
            | st.builds(Call, st.sampled_from(["exp", "cos", "sin", "ln", "abs",
                                               "phi", "psi", "capphi"]),
                        st.tuples(children))
            | st.builds(Call, st.sampled_from(["min", "max"]),
                        st.tuples(children, children)))


_NATURAL_TREES = st.recursive(_MODERATE_LEAVES, _extend_natural, max_leaves=10)
_ALL_BUILTINS = parse_expr(
    "exp(x1)*cos(x2) - sin(x1*x2)/ln(2 + x2^2) + abs(x1 - x2)*phi(x1)"
    " + psi(x2)^3*capphi(x1/2) - min(x1, x2) + max(x1, 2*x2)^0 + -pi/e")


def _on_a_ramp_kink(node, x1, x2) -> bool:
    """Whether the enclosure of a ramp's argument on the point box reaches
    one of its breakpoints.  There the gradient table takes the slope of
    the piece on the enclosure's side (`_kink_slope`: the left piece's on a
    breakpoint itself) and the dual table the right piece's.  abs, min and
    max need no such test: where the enclosures reach their kink, the
    gradient table takes the hull of both slopes."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Call):
            if node.fn in expr._RAMPS:
                lo, hi = interval_program(node.args[0])((x1, x1), (x2, x2))
                if any(lo <= b <= hi for b in expr._RAMPS[node.fn][:2]):
                    return True
            stack.extend(node.args)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack += (node.left, node.right)
    return False


@pytest.mark.filterwarnings("error")
@settings(max_examples=600, deadline=None)
@given(_NATURAL_TREES, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@example(_ALL_BUILTINS, 0.7, 1.3)
@example(_ALL_BUILTINS, 1.6, 0.2)
def test_dual_derivatives_lie_in_the_gradient_enclosure(tree, x1, x2):
    # off every ramp kink, each derivative of the dual program lies in the
    # gradient program's enclosure on the point box, and its value has the
    # float program's bits; an array run gives each point's bits
    a1, a2 = np.float64(x1), np.float64(x2)
    with float_flags():
        try:
            want = float_program(tree)(a1, a2)
        except EvalError:
            want = None
        try:
            value, d1, d2 = expr.dual_program(tree)(a1, a2)
        except EvalError:
            return  # where the value fails, or a derivative alone
        assert want is not None, tree
        assert np.asarray(value).tobytes() == np.asarray(want).tobytes(), tree
        points = expr.dual_program(tree)(np.array([a1, a1]), np.array([a2, a2]))
    for got, single in zip(points, (value, d1, d2)):
        assert np.array_equal(np.broadcast_to(got, (2,)).view(np.int64),
                              np.broadcast_to(single, (2,)).view(np.int64)), tree
    try:
        _, g1, g2 = gradient_program(tree)((x1, x1), (x2, x2))
    except EvalError:
        return
    # each argument enclosure exists where the gradient program's does
    if _on_a_ramp_kink(tree, x1, x2):
        return
    for d, g in ((d1, g1), (d2, g2)):
        assert g[0] <= float(d) <= g[1], (tree, x1, x2, d, g)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["x1^1.5", "(1 + x1 + x2^2)^(-0.7)", "x2^x1",
                        "(2 + sin(x1))^(x2/3)", "2^(x1*x2) + x1^pi"]),
       st.floats(0.2, 3.0), st.floats(0.2, 3.0))
def test_dual_derivatives_of_a_non_natural_power(src, x1, x2):
    # the gradient table takes natural exponents only: against a central
    # difference instead
    tree = parse_expr(src)
    _, d1, d2 = expr.dual_program(tree)(np.float64(x1), np.float64(x2))
    h = 1e-6
    s1 = (eval_point(tree, x1 + h, x2) - eval_point(tree, x1 - h, x2)) / (2 * h)
    s2 = (eval_point(tree, x1, x2 + h) - eval_point(tree, x1, x2 - h)) / (2 * h)
    assert float(d1) == pytest.approx(s1, rel=1e-6, abs=1e-8), src
    assert float(d2) == pytest.approx(s2, rel=1e-6, abs=1e-8), src


@pytest.mark.parametrize("src, at, slope", [
    ("phi(x1)", 0.5, 2.0), ("phi(x1)", 1.0, 0.0),
    ("psi(x1)", 0.0, 1.0), ("psi(x1)", 1.0, 0.0),
    ("capphi(x1)", 0.5, -2.0), ("capphi(x1)", 1.0, 0.0),
    ("abs(x1)", 0.0, 1.0), ("abs(x1)", -0.0, 1.0),
])
def test_dual_takes_the_right_hand_slope_at_a_kink(src, at, slope):
    # as a scalar and inside an array, beside points on either side
    program = expr.dual_program(parse_expr(src))
    with float_flags():
        _, d1, d2 = program(np.float64(at), np.float64(0.0))
        _, row, _ = program(np.array([at - 0.25, at, at + 0.25]), np.zeros(3))
    assert float(d1) == slope and d2 == 0.0
    assert row[1] == slope


@pytest.mark.parametrize("fn, want", [("min", (1.0, -2.0)), ("max", (3.0, 0.0))])
def test_dual_min_and_max_take_the_extreme_derivative_at_a_tie(fn, want):
    # x1 and 3*x1 - 2*x2 tie at (1, 1), with gradients (1, 0) and (3, -2):
    # min takes the min of the operands' derivatives, max the max
    program = expr.dual_program(parse_expr(f"{fn}(x1, 3*x1 - 2*x2)"))
    with float_flags():
        _, d1, d2 = program(np.float64(1.0), np.float64(1.0))
        _, row1, row2 = program(np.array([1.0, 1.0]), np.array([1.0, 1.5]))
    assert (float(d1), float(d2)) == want
    assert (row1[0], row2[0]) == want
    # off the tie, the operand that is the result
    assert (row1[1], row2[1]) == ((1.0, 0.0) if fn == "max" else (3.0, -2.0))


def test_dual_derivatives_exactly_zero_or_one_cost_no_array():
    # a term in one variable has the Python float 0.0 as its other
    # derivative, and a bare variable 1.0, whatever the arguments' shapes
    x1, x2 = np.linspace(0.0, 2.0, 5), np.linspace(1.0, 3.0, 5)
    with float_flags():
        assert expr.dual_program(parse_expr("x1"))(x1, x2)[1:] == (1.0, 0.0)
        _, d1, d2 = expr.dual_program(parse_expr("exp(x1) + 2"))(x1, x2)
        assert np.array_equal(d1, np.exp(x1)) and type(d2) is float
        _, d1, d2 = expr.dual_program(parse_expr("3*x2^0 + phi(2)"))(x1, x2)
        assert type(d1) is float and type(d2) is float and d1 == d2 == 0.0


def test_dual_of_a_square_root_at_zero_raises():
    # x1^0.5 has an infinite derivative at x1 = 0: the dual program raises
    # the EvalError of its slope's power, where the value is finite
    tree = parse_expr("x1^0.5")
    assert eval_point(tree, 0.0, 1.0) == 0.0
    with float_flags(), pytest.raises(EvalError) as err:
        expr.dual_program(tree)(np.zeros(3), np.ones(3))
    assert err.value.offset == 2 and "divide by zero" in err.value.message
