import math

import numpy as np
import pytest

from conecert.errors import DomainError
from conecert.kernels import (DirichletNeumann, QuadratureRule,
                              ReactionConvectionDiffusion, green_matrix,
                              inverse_tridiagonal, make_rule)

DN = DirichletNeumann()
RCD1 = ReactionConvectionDiffusion(1.0)


def test_green_min():
    pair = np.array([0.3, 0.7])
    assert np.array_equal(green_matrix(DN, pair, pair[::-1]),
                          [[0.3, 0.3], [0.7, 0.3]])


def test_green_rcd_upper_branch():
    assert green_matrix(RCD1, np.array([0.0]), np.array([1.0]))[0, 0] \
        == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_green_rcd_lower_branch():
    for beta in (0.2, 1.0, 7.0):
        kernel = ReactionConvectionDiffusion(beta)
        assert green_matrix(kernel, np.array([0.8]), np.array([0.2]))[0, 0] == 1.0


def test_green_domain():
    inside = np.array([0.5])
    with pytest.raises(DomainError):
        green_matrix(DN, np.array([-0.1]), inside)
    with pytest.raises(DomainError):
        green_matrix(RCD1, inside, np.array([1.2]))


def test_beta_positive():
    with pytest.raises(DomainError):
        ReactionConvectionDiffusion(0.0)


def row_integral(kernel, t, rule):
    """The quadrature rule's integral of G(t, s) over s in [0, 1]."""
    return float(rule.weights @ green_matrix(kernel, np.array([t]), rule.nodes)[0])


def test_row_integral_dirichlet_at_one():
    # min(1, s) = s is linear, so the trapezoid rule is exact up to round-off
    assert row_integral(DN, 1.0, make_rule(129)) == pytest.approx(0.5, abs=1e-15)


def test_row_integral_rcd_at_one():
    # G(1, s) = 1, so the integral is the weight sum
    for beta in (0.3, 1.0, 2.5):
        got = row_integral(ReactionConvectionDiffusion(beta), 1.0, make_rule(129))
        assert got == pytest.approx(1.0, abs=1e-14)


def test_row_integral_rcd_at_zero():
    # beta (1 - e^(-1/beta)), within the trapezoid rule's O(h^2) error
    rule = make_rule(129)
    for beta in (0.3, 1.0, 2.5):
        expected = beta * (1.0 - math.exp(-1.0 / beta))
        got = row_integral(ReactionConvectionDiffusion(beta), 0.0, rule)
        assert got == pytest.approx(expected, abs=(1.0 / 128) ** 2 / beta)


def test_monotone_in_t_and_bounds():
    ts = np.linspace(0, 1, 101)
    for kernel in (DN, ReactionConvectionDiffusion(0.5), RCD1):
        mat = green_matrix(kernel, ts, ts)
        assert np.all(np.diff(mat, axis=0) >= 0.0), "G must be nondecreasing in t"
        assert np.all(mat <= 1.0)
        if isinstance(kernel, DirichletNeumann):
            assert np.all(mat >= 0.0)
        else:
            assert np.all(mat > 0.0)


def test_green_matrix_matches_scalar():
    # numpy's vectorised exp may differ from libm by one ulp
    ts = np.linspace(0, 1, 13)
    for kernel, green in (
            (DN, min),
            (ReactionConvectionDiffusion(0.7),
             lambda t, s: math.exp((t - s) / 0.7) if t <= s else 1.0)):
        mat = green_matrix(kernel, ts, ts)
        for i, t in enumerate(ts):
            for m, s in enumerate(ts):
                assert mat[i, m] == pytest.approx(green(t, s), rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_green_matrix_small_beta_is_warning_free():
    # the masked-out branch of np.where used to overflow in exp
    ts = make_rule(129).nodes
    for beta in (1e-3, 1e-4):
        mat = green_matrix(ReactionConvectionDiffusion(beta), ts, ts)
        for i in (0, 1, 64, 128):
            for m in (0, 1, 64, 128):
                t, s = ts[i], ts[m]
                green = math.exp((t - s) / beta) if t <= s else 1.0
                assert mat[i, m] == pytest.approx(green, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("kernel", [DN, RCD1, ReactionConvectionDiffusion(0.3),
                                    ReactionConvectionDiffusion(0.05)],
                         ids=["min", "rcd1", "rcd0.3", "rcd0.05"])
@pytest.mark.parametrize("n", [3, 9, 129])
@pytest.mark.parametrize("spacing", ["uniform", "chebyshev"])
def test_inverse_tridiagonal_inverts_green_matrix(kernel, n, spacing):
    # make_rule's nodes and a non-uniform node set; min(t,s) is inverted on
    # the nodes t > 0, where G is regular
    nodes = make_rule(n).nodes if spacing == "uniform" \
        else 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, n)))
    lower, diag, upper = inverse_tridiagonal(kernel, nodes)
    t = nodes[1:] if isinstance(kernel, DirichletNeumann) else nodes
    assert len(diag) == len(t)
    inverse = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    product = inverse @ green_matrix(kernel, t, t)
    scale = float(np.max(np.abs(inverse)))
    assert float(np.max(np.abs(product - np.eye(len(t))))) <= 1e-14 * scale


def test_inverse_tridiagonal_rejects_bad_nodes():
    for nodes in ([0.0, 0.5, 0.5, 1.0], [0.0, 0.7, 0.3, 1.0], [-0.1, 1.0], [0.5]):
        with pytest.raises(DomainError):
            inverse_tridiagonal(RCD1, np.array(nodes))


def test_make_rule_trapezoid_3():
    rule = make_rule(3)
    assert np.allclose(rule.weights, [0.25, 0.5, 0.25], atol=0)
    assert np.allclose(rule.nodes, [0.0, 0.5, 1.0], atol=0)


def test_make_rule_rejects_too_few_nodes():
    for n in (2, 1, 0):
        with pytest.raises(ValueError):
            make_rule(n)


def test_weights_sum_to_one():
    for n in (3, 9, 65, 101, 129, 257):
        assert abs(make_rule(n).weights.sum() - 1.0) <= 1e-14


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.0, 0.5, 0.9]), np.array([0.25, 0.5, 0.25]))
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.0, 0.5, 1.0]), np.array([0.3, 0.5, 0.25]))


def test_quadrature_matches_row_integral():
    # the min(t,s) kink sits on a node, so trapezoid stays O(h^2); for the
    # piecewise-linear Dirichlet kernel it is exact up to round-off
    closed_forms = ((DN, lambda t: t - t * t / 2),
                    (RCD1, lambda t: t + 1.0 - math.exp(t - 1.0)))
    for n in (33, 65, 129):
        rule = make_rule(n)
        h = 1.0 / (n - 1)
        for kernel, closed in closed_forms:
            tol = 1e-12 if kernel is DN else h * h
            for t in (0.0, rule.nodes[n // 2], 1.0):
                assert abs(row_integral(kernel, t, rule) - closed(t)) <= tol
