import math

import numpy as np
import pytest

from conecert.errors import DomainError
from conecert.kernels import (DirichletNeumann, QuadratureRule,
                              ReactionConvectionDiffusion, green, green_matrix,
                              inverse_tridiagonal, kernel_row_integral,
                              make_rule)

DN = DirichletNeumann()
RCD1 = ReactionConvectionDiffusion(1.0)


def test_green_min():
    assert green(DN, 0.3, 0.7) == 0.3
    assert green(DN, 0.7, 0.3) == 0.3


def test_green_rcd_upper_branch():
    assert green(RCD1, 0.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_green_rcd_lower_branch():
    for beta in (0.2, 1.0, 7.0):
        assert green(ReactionConvectionDiffusion(beta), 0.8, 0.2) == 1.0


def test_green_domain():
    with pytest.raises(DomainError):
        green(DN, -0.1, 0.5)
    with pytest.raises(DomainError):
        green(RCD1, 0.5, 1.2)
    with pytest.raises(DomainError):
        kernel_row_integral(DN, 2.0)


def test_beta_positive():
    with pytest.raises(DomainError):
        ReactionConvectionDiffusion(0.0)


def test_row_integral_dirichlet_at_one():
    assert kernel_row_integral(DN, 1.0) == 0.5


def test_row_integral_rcd_at_one():
    for beta in (0.3, 1.0, 2.5):
        assert kernel_row_integral(ReactionConvectionDiffusion(beta), 1.0) == 1.0


def test_row_integral_rcd_at_zero():
    for beta in (0.3, 1.0, 2.5):
        expected = beta * (1.0 - math.exp(-1.0 / beta))
        got = kernel_row_integral(ReactionConvectionDiffusion(beta), 0.0)
        assert got == pytest.approx(expected, rel=1e-15)


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
    for kernel in (DN, ReactionConvectionDiffusion(0.7)):
        mat = green_matrix(kernel, ts, ts)
        for i, t in enumerate(ts):
            for m, s in enumerate(ts):
                assert mat[i, m] == pytest.approx(green(kernel, t, s), rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_green_matrix_small_beta_is_warning_free():
    # the masked-out branch of np.where used to overflow in exp
    ts = make_rule(129).nodes
    for beta in (1e-3, 1e-4):
        kernel = ReactionConvectionDiffusion(beta)
        mat = green_matrix(kernel, ts, ts)
        for i in (0, 1, 64, 128):
            for m in (0, 1, 64, 128):
                assert mat[i, m] == pytest.approx(green(kernel, ts[i], ts[m]),
                                                  rel=1e-15, abs=0.0)


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
    for n in (33, 65, 129):
        rule = make_rule(n)
        h = 1.0 / (n - 1)
        for kernel, tol in ((DN, 1e-12), (RCD1, h * h)):
            for t in (0.0, rule.nodes[n // 2], 1.0):
                quad = float(np.sum(
                    rule.weights * green_matrix(kernel, np.array([t]), rule.nodes)[0]))
                assert abs(quad - kernel_row_integral(kernel, t)) <= tol
