"""Generic path operators: profiles, f/e, concatenation, integrality."""

from fractions import Fraction as F

import pytest

from glspaths import (GLSPath, alpha, apply_e, apply_f, concatenate,
                      context_with_base, equal_up_to_reparametrization,
                      h_profile, is_integral, is_monotone, linear_path,
                      trivial_path, weight)
from glspaths.checks import (check_inversion_and_weight_shift,
                             check_operator_iteration)
from glspaths.paths import PiecewisePath, _three_zone, path_to_text
from glspaths.rootdata import InvariantViolation


def ctx1(p=2):
    return context_with_base([[-1]], [p])


def ctx2(p=2):
    return context_with_base([[2]], [p])


def test_linear_path_and_normalization():
    ctx, lam = ctx2()
    path = linear_path(ctx, lam)
    assert path.weight == lam
    theta = trivial_path()
    assert theta.weight == weight()
    # collinear interior points are dropped
    half = PiecewisePath.from_points([(0, weight()), (F(1, 2), F(1, 2) * lam), (1, lam)])
    assert half == path
    with pytest.raises(ValueError):
        linear_path(ctx, F(1, 2) * lam)  # not in P


def test_h_profile_examples():
    ctx, lam = ctx1()
    prof = h_profile(ctx, 1, linear_path(ctx, lam))
    assert (prof.m, prof.f_plus, prof.f_minus) == (0, 0, F(1, 2))
    prof_theta = h_profile(ctx, 1, trivial_path())
    assert (prof_theta.m, prof_theta.f_plus) == (0, 1)
    c2, l2 = ctx2()
    prof2 = h_profile(c2, 1, linear_path(c2, l2))
    assert (prof2.m, prof2.f_minus, prof2.e_plus) == (0, F(1, 2), 0)
    assert not prof2.e_defined


def test_apply_f_examples():
    ctx, lam = ctx1()
    down = apply_f(ctx, 1, linear_path(ctx, lam))
    assert down == GLSPath(lam, (ctx.reflect(1, lam), lam),
                           (F(0), F(1, 2), F(1))).render()
    ctx0, lam0 = ctx1(p=0)
    assert apply_f(ctx0, 1, linear_path(ctx0, lam0)) is None
    c2, l2 = ctx2()
    once = apply_f(c2, 1, linear_path(c2, l2))
    twice = apply_f(c2, 1, once)
    assert twice == linear_path(c2, l2 - 2 * alpha(1))  # straight path t*(r lambda)
    assert apply_f(c2, 1, twice) is None


def test_apply_e_examples():
    ctx, lam = ctx1()
    path = linear_path(ctx, lam)
    assert apply_e(ctx, 1, apply_f(ctx, 1, path)) == path
    # imaginary raising on the straight path exists once the pairing reaches 1 - a_11
    raised = apply_e(ctx, 1, path)
    assert raised is not None and raised.weight == lam + alpha(1)
    c2, l2 = ctx2()
    assert apply_e(c2, 1, linear_path(c2, l2)) is None


def test_imaginary_e_kill_conditions():
    # pairing below 1 - a_11 kills the raising operator
    ctx, lam = ctx1(p=1)
    assert apply_e(ctx, 1, linear_path(ctx, lam)) is None
    ctx0, lam0 = ctx1(p=0)
    assert apply_e(ctx0, 1, linear_path(ctx0, lam0)) is None


def test_concatenate():
    ctx, lam = ctx2(p=2)
    path = linear_path(ctx, lam)
    glued = concatenate(path, trivial_path(), F(1, 2), ctx)
    assert equal_up_to_reparametrization(glued, path)
    assert glued != path  # as parametrized functions they differ
    double = concatenate(path, path, F(1, 2), ctx)
    assert double.weight == 2 * lam
    # co-directional segments merge; the ratio 1/49 must stay exact
    v = weight(roots={1: 49, 2: 98})
    bent = PiecewisePath.from_points([(0, weight()), (F(1, 2), v), (1, F(50, 49) * v)])
    assert len(bent.points) == 3
    assert equal_up_to_reparametrization(bent, PiecewisePath.from_points(
        [(0, weight()), (1, F(50, 49) * v)]))
    with pytest.raises(ValueError):
        concatenate(linear_path(ctx, lam) , path, F(0), ctx)
    ctxh, lamh = ctx2(p=1)
    bad = PiecewisePath.from_points([(0, weight()), (1, F(1, 2) * lamh + alpha(1))])
    with pytest.raises(ValueError):
        concatenate(bad, trivial_path(), F(1, 2), ctxh)


def test_f_acts_on_left_factor_of_concatenation():
    ctx, lam = ctx2(p=1)
    path = linear_path(ctx, lam)
    pair = concatenate(path, path, F(1, 2), ctx)
    lowered = apply_f(ctx, 1, pair)
    assert lowered == concatenate(apply_f(ctx, 1, path), path, F(1, 2), ctx)


def test_is_integral_counterexample():
    ctx, lam = ctx2(p=2)
    r = ctx.reflect(1, lam)
    pts = [(F(0), weight()),
           (F(1, 4), F(1, 4) * r),
           (F(3, 4), F(1, 4) * r + F(1, 2) * lam),
           (F(1), lam - alpha(1))]
    path = PiecewisePath.from_points(pts)
    assert not is_integral(ctx, path)
    assert is_integral(ctx, linear_path(ctx, lam))


def test_is_monotone_counterexample():
    ctx, lam = ctx2(p=1)
    pts = [(F(0), weight()),
           (F(1, 4), F(3, 4) * lam),
           (F(3, 4), F(1, 4) * lam),
           (F(1), lam)]
    path = PiecewisePath.from_points(pts)
    assert is_integral(ctx, path)
    assert not is_monotone(ctx, path)
    assert is_monotone(ctx, linear_path(ctx, lam))


def test_gls_paths_are_integral_and_monotone():
    ctx, lam = context_with_base([[2, -1], [-1, -2]], [1, 1])
    from glspaths import enumerate_crystal
    for node in enumerate_crystal(ctx, lam, 3).nodes:
        path = node.element.render()
        assert is_integral(ctx, path)
        assert is_monotone(ctx, path)


def test_inversion_and_iteration_suites():
    for entries, pairings in ([[-1]], [2]), ([[0]], [1]), ([[2, -1], [-1, -2]], [1, 1]):
        ctx, lam = context_with_base(entries, pairings)
        assert check_inversion_and_weight_shift(ctx, lam) == []
        assert check_operator_iteration(ctx, lam) == []


def test_path_serialization():
    ctx, lam = ctx1()
    text = path_to_text(apply_f(ctx, 1, linear_path(ctx, lam)))
    assert text.splitlines() == ["0 : 0", "1/2 : 1/2*lambda-a1", "1 : lambda-a1"]


def test_three_zone_rejects_a_wrong_shift():
    ctx, lam = ctx2()
    path = linear_path(ctx, lam)
    reflect = lambda w: ctx.reflect(1, w)
    assert _three_zone(path, F(0), F(1, 2), reflect, -alpha(1)) == apply_f(ctx, 1, path)
    with pytest.raises(InvariantViolation):
        _three_zone(path, F(0), F(1, 2), reflect, alpha(1))
