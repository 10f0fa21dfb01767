import numpy as np
import pytest

from conecert import hypotheses
from conecert.conespace import (GridFunction, RegionLabel, RegionSpec,
                                classify, min_window, region_index,
                                sup_norm, window_node)
from conecert.errors import ConfigError
from conecert.expr import parse_expr
from conecert.kernels import DirichletNeumann, make_rule
from conecert.solver import ProblemSpec

RULE = make_rule(129)
SPEC = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0))
DN = (DirichletNeumann.window, DirichletNeumann.window)  # (1/2, 1/2)


def const(level, rule=RULE):
    return GridFunction(rule, np.full(rule.n, float(level)))


def sample(fn, rule=RULE):
    return GridFunction(rule, fn(rule.nodes))


def test_sup_norm_examples():
    assert sup_norm(sample(lambda t: t - t * t / 2)) == 0.5
    assert sup_norm(const(0.0)) == 0.0
    assert sup_norm(sample(lambda t: t)) == 1.0


def test_min_window_examples():
    assert min_window(sample(lambda t: t), 0.5) == 0.5
    assert min_window(const(3.0), 0.0) == 3.0
    assert min_window(sample(lambda t: t - t * t / 2), 0.5) == 0.375


def test_min_window_requires_node():
    with pytest.raises(ValueError):
        min_window(const(1.0), 0.3)


def test_window_node_is_the_exact_middle_node():
    # make_rule's nodes are the correctly rounded k/(n - 1), so the middle
    # node of every odd grid is 1/2 exactly (linspace's is an ulp short of
    # it at n = 99, 197, ...), and the window start is matched exactly
    for n in range(3, 4002, 2):
        rule = make_rule(n)
        assert rule.nodes[(n - 1) // 2] == 0.5, n
        assert window_node(rule, 0.5) == (n - 1) // 2, n
    assert window_node(RULE, 0.5) == 64 and window_node(RULE, 0.0) == 0
    with pytest.raises(ConfigError, match="grid_n = 128 has no node at "
                                          "t = 0.5"):
        window_node(make_rule(128), 0.5)


def test_classify_examples():
    assert classify(const(0.3), const(0.3), SPEC, DN) == RegionLabel("S", "S")
    assert classify(const(2.0), const(2.0), SPEC, DN) == RegionLabel("B", "B")
    assert classify(const(0.7), const(2.0), SPEC, DN) == RegionLabel("M", "B")
    assert region_index(RegionLabel("S", "S")) == 4
    assert region_index(RegionLabel("B", "B")) == 1
    assert region_index(RegionLabel("M", "B")) == 6


def test_classify_nine_full_map():
    by_tag = {"S": const(0.3), "M": const(0.7), "B": const(2.0)}
    want = {("B", "B"): 1, ("B", "S"): 2, ("S", "B"): 3, ("S", "S"): 4,
            ("B", "M"): 5, ("M", "B"): 6, ("S", "M"): 7, ("M", "S"): 8,
            ("M", "M"): 9}
    for (t1, t2), idx in want.items():
        label = classify(by_tag[t1], by_tag[t2], SPEC, DN)
        assert (label.comp1, label.comp2) == (t1, t2)
        assert region_index(label) == idx


def test_classify_ties_are_middle():
    # boundaries are resolved strictly: sup == d and min == a both land in M
    assert classify(const(0.5), const(0.3), SPEC, DN).comp1 == "M"
    assert classify(const(1.0), const(0.3), SPEC, DN).comp1 == "M"


def test_classify_outside_ambient():
    assert classify(const(6.0), const(1.0), SPEC, DN) == "outside-ambient"


def test_classify_hybrid():
    spec = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0),
                      annulus=(2.0, 5.0))
    label = classify(const(2.0), const(3.0), spec, DN)
    assert label == RegionLabel("B", "annulus")
    assert region_index(label) == 1
    assert region_index(classify(const(0.2), const(3.0), spec, DN)) == 2
    assert region_index(classify(const(0.7), const(3.0), spec, DN)) == 3
    assert classify(const(2.0), const(1.0), spec, DN) == "outside-ambient"
    assert classify(const(2.0), const(5.5), spec, DN) == "outside-ambient"


def test_hybrid_requires_annulus():
    # classify reads the scheme from spec.annulus, so the hybrid mode's need
    # for an annulus is checked where the mode is, in ProblemSpec
    one = parse_expr("1")
    dn = DirichletNeumann()
    with pytest.raises(ConfigError):
        ProblemSpec(dn, dn, one, one, SPEC, "hybrid")
    assert classify(const(1.0), const(1.0), SPEC, DN).comp2 != "annulus"


def test_region_index_all_labels():
    # the label alone selects the scheme: an annulus second tag indexes the
    # three hybrid regions, a tag pair the nine regions
    want = {("B", "B"): 1, ("B", "S"): 2, ("S", "B"): 3, ("S", "S"): 4,
            ("B", "M"): 5, ("M", "B"): 6, ("S", "M"): 7, ("M", "S"): 8,
            ("M", "M"): 9,
            ("B", "annulus"): 1, ("S", "annulus"): 2, ("M", "annulus"): 3}
    assert {key: region_index(RegionLabel(*key)) for key in want} == want


def test_promised_regions_follow_the_region_numbering():
    # each theorem's promised regions are listed in region_index order
    promised = {tid: [region_index(r) for r in p.regions]
                for tid, p in hypotheses._PROMISED.items()}
    assert promised["thm51"] == [1, 2, 3]
    assert promised["thm52"] == list(range(1, 10))
    assert promised["thm53"] == promised["thm53_remark52"] == [4, 7, 8, 9]


def test_sup_bounds():
    # [0, c_j] per component, or the annulus for component 2 in hybrid mode;
    # both ends belong to the ambient set
    assert SPEC.sup_bounds() == ((0.0, 5.0), (0.0, 5.0))
    spec = RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 6.0),
                      annulus=(2.0, 4.0))
    assert spec.sup_bounds() == ((0.0, 5.0), (2.0, 4.0))
    assert classify(const(5.0), const(4.0), spec, DN) == \
        RegionLabel("B", "annulus")
    assert classify(const(5.0), const(5.0), SPEC, DN) == RegionLabel("B", "B")
    assert classify(const(5.0), const(4.5), spec, DN) == "outside-ambient"


def test_region_spec_validation():
    with pytest.raises(ConfigError):
        RegionSpec(d=(1.0, 0.5), a=(1.0, 1.0), c=(5.0, 5.0))  # d >= a
    with pytest.raises(ConfigError):
        RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(0.9, 5.0))  # c <= a
    with pytest.raises(ConfigError):
        RegionSpec(d=(0.5, 0.5), a=(1.0, 1.0), c=(5.0, 5.0), annulus=(5.0, 2.0))


def test_s_and_b_mutually_exclusive():
    # min_window <= sup_norm and d < a force S and B apart on any function
    rng = np.random.default_rng(42)
    for _ in range(300):
        u = GridFunction(RULE, rng.uniform(0, 6, RULE.n))
        is_s = sup_norm(u) < SPEC.d[0]
        is_b = min_window(u, DN[0]) > SPEC.a[0]
        assert not (is_s and is_b)
        assert min_window(u, 0.5) <= sup_norm(u)
        assert min_window(u, 0.0) <= sup_norm(u)


def test_classification_stable_under_refinement():
    # piecewise-linear functions with node extrema keep their label at 257
    fine = make_rule(257)
    for fn in (lambda t: 0.3 * np.minimum(2 * t, 1.0),
               lambda t: 2.0 * np.minimum(2 * t, 1.0),
               lambda t: 0.7 * np.minimum(2 * t, 1.0)):
        coarse_label = classify(sample(fn), sample(fn), SPEC, DN)
        fine_label = classify(sample(fn, fine), sample(fn, fine), SPEC, DN)
        assert coarse_label == fine_label


def test_values_length_checked():
    with pytest.raises(ValueError):
        GridFunction(RULE, np.zeros(5))
