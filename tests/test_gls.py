"""GLS paths: closed-form operators, membership, enumeration, joining."""

from fractions import Fraction as F

import pytest

from glspaths import (GLSPath, JoinRejected, NotAGLSPath, alpha, apply_e, apply_f,
                      concatenate, context_with_base, enumerate_crystal,
                      export_dot, gls_e, gls_f, linear_path, properly_join,
                      verify_gls, weight)
from glspaths.checks import (FIXTURES, TWO_IMAGINARY, check_gls_membership,
                             check_highest_weight_unique,
                             check_non_strictness_witness,
                             check_oracle_equivalence, fixture_context)


def ctx1(p=2, k=1):
    return context_with_base([[-k]], [p])


def ctx2(p=2):
    return context_with_base([[2]], [p])


def rpow(ctx, lam, s):
    for _ in range(s):
        lam = ctx.reflect(1, lam)
    return lam


def test_gls_path_validation():
    lam = weight(bases={"lambda": 1})
    with pytest.raises(ValueError):
        GLSPath(lam, (lam,), (F(0), F(1, 2)))
    with pytest.raises(ValueError):
        GLSPath(lam, (lam, lam), (F(0), F(1, 2), F(1)))
    with pytest.raises(ValueError):
        GLSPath(lam, (lam,), (F(0), F(0), F(1)))


def test_gls_f_rank_one_family():
    ctx, lam = ctx1()
    pi0 = GLSPath.linear(lam)
    pi1 = gls_f(ctx, 1, pi0)
    assert pi1 == GLSPath(lam, (rpow(ctx, lam, 1), lam), (F(0), F(1, 2), F(1)))
    pi2 = gls_f(ctx, 1, pi1)
    assert pi2 == GLSPath(lam, (rpow(ctx, lam, 2), rpow(ctx, lam, 1), lam),
                          (F(0), F(1, 4), F(1, 2), F(1)))


def test_gls_f_real_merges_segments():
    ctx, lam = ctx2()
    r = ctx.reflect(1, lam)
    pi1 = GLSPath(lam, (r, lam), (F(0), F(1, 2), F(1)))
    assert gls_f(ctx, 1, pi1) == GLSPath(lam, (r,), (F(0), F(1)))
    assert gls_f(ctx, 1, GLSPath(lam, (r,), (F(0), F(1)))) is None


def test_operators_reject_a_non_integral_path():
    # h_1 rises from 0 to 1/2: minimum 0, but the level 1 is never reached
    ctx, lam = context_with_base([[2]], [F(1, 2)])
    with pytest.raises(NotAGLSPath):
        gls_f(ctx, 1, GLSPath.linear(lam))
    # h_1 falls from 0 to -1/2: the minimum is not an integer
    with pytest.raises(NotAGLSPath):
        gls_f(ctx, 1, GLSPath.linear(-lam))
    # the same on an imaginary index, for both operators
    ci, li = context_with_base([[-1]], [F(1, 2)])
    for op in (gls_f, gls_e):
        with pytest.raises(NotAGLSPath):
            op(ci, 1, GLSPath.linear(-li))


def test_gls_f_vanishes_at_zero_pairing():
    ctx, lam = ctx1(p=0)
    assert gls_f(ctx, 1, GLSPath.linear(lam)) is None


def test_gls_e_examples():
    ctx, lam = ctx1()
    pi1 = gls_f(ctx, 1, GLSPath.linear(lam))
    assert gls_e(ctx, 1, pi1) == GLSPath.linear(lam)
    # ambient raising exists at the top but leaves the crystal
    assert apply_e(ctx, 1, GLSPath.linear(lam).render()) is not None
    assert gls_e(ctx, 1, GLSPath.linear(lam)) is None
    c2, l2 = ctx2()
    assert gls_e(c2, 1, GLSPath.linear(l2)) is None


def raise_by_membership(ctx, i, pi):
    """e_i by its definition: the ambient raising of the rendered path, kept
    only if its segments, read as GLS data, pass the membership test."""
    raised = apply_e(ctx, i, pi.render())
    if raised is None:
        return None
    pts = raised.points
    weights = tuple((v1 - v0) * (1 / (t1 - t0)) for (t0, v0), (t1, v1) in zip(pts, pts[1:]))
    candidate = GLSPath(pi.shape, weights, tuple(t for t, _ in pts))
    return candidate if verify_gls(ctx, candidate) else None


def test_imaginary_raising_is_raising_by_membership():
    defined = killed = 0
    for fx in FIXTURES + (TWO_IMAGINARY,):
        ctx, lam = fixture_context(fx)
        graph = enumerate_crystal(ctx, lam, 5 if fx is TWO_IMAGINARY else 6)
        for node in graph.nodes:
            for i in sorted(ctx.matrix.imaginary_indices):
                expected = raise_by_membership(ctx, i, node.element)
                assert gls_e(ctx, i, node.element) == expected, (fx[0], node.element, i)
                defined += expected is not None
                killed += (expected is None
                           and apply_e(ctx, i, node.element.render()) is not None)
    # both outcomes of the membership test occur
    assert defined > 0 and killed > 0


def test_imaginary_raising_killed_by_a_late_drop():
    # shape with alpha_2^vee = -2: h_2 rises from 0 to 3 = m+1-a_22 at 1/4 and
    # comes back down to m-a_22 = 2 at 1, so e_2 is undefined, although the
    # reflected path (w1, s) would pass the membership test
    ctx, s = context_with_base([[2, -1], [-1, -2]], [6, -2])
    w1 = ctx.reflect(1, s)
    pi = GLSPath(s, (ctx.reflect(2, w1), w1, s), (F(0), F(1, 4), F(1, 3), F(1)))
    assert verify_gls(ctx, GLSPath(s, (w1, s), (F(0), F(1, 3), F(1))))
    assert gls_e(ctx, 2, pi) is None
    assert raise_by_membership(ctx, 2, pi) is None


def test_verify_gls_membership_sentence():
    # (r lambda; 0, 1) is a GLS path iff the pairing is 1
    for m in (1, 2, 3):
        ctx, lam = ctx1(p=m)
        candidate = GLSPath(lam, (ctx.reflect(1, lam),), (F(0), F(1)))
        assert bool(verify_gls(ctx, candidate)) == (m == 1)
    ctx, lam = ctx1()
    cert = verify_gls(ctx, gls_f(ctx, 1, GLSPath.linear(lam)))
    assert cert.ok and len(cert.chains) == 1


def test_verify_gls_powers():
    # (r^s lambda; 0, 1) for all s <= 4 iff m = 1 and k = 0
    for m in (1, 2):
        for k in (0, 1):
            ctx, lam = ctx1(p=m, k=k)
            accepted = all(
                bool(verify_gls(ctx, GLSPath(lam, (rpow(ctx, lam, s),), (F(0), F(1)))))
                for s in range(1, 5))
            assert accepted == (m == 1 and k == 0)


def test_enumerate_rank_one_chain():
    ctx, lam = ctx1()
    graph = enumerate_crystal(ctx, lam, 3)
    assert len(graph) == 4
    for s, node in enumerate(graph.nodes):
        assert node.wt == lam - s * alpha(1)
        assert node.frontier == (s == 3)
        if s:
            assert graph.f_image(s - 1, 1) == s
    assert len(graph.f_edges) == 3


def test_enumerate_sl2():
    ctx, lam = ctx2()
    graph = enumerate_crystal(ctx, lam, 4)
    assert [node.wt for node in graph.nodes] == [lam, lam - alpha(1), lam - 2 * alpha(1)]
    with pytest.raises(ValueError):
        enumerate_crystal(ctx, -lam, 2)


def test_enumerate_matches_oracle():
    ctx, lam = context_with_base([[2, -1], [-1, -2]], [1, 1])
    assert check_oracle_equivalence(ctx, lam, 3) == []
    assert check_gls_membership(ctx, lam, 3) == []
    assert check_highest_weight_unique(ctx, lam, 3) == []


def test_non_strictness_witness():
    ctx, lam = ctx1(p=2)
    assert check_non_strictness_witness(ctx, lam) == []


def test_export_dot_shape():
    ctx, lam = ctx2()
    dot = export_dot(enumerate_crystal(ctx, lam, 4))
    lines = dot.splitlines()
    assert lines[0] == "digraph crystal {"
    assert sum(1 for ln in lines if "->" in ln) == 2
    assert all('label="1"' in ln for ln in lines if "->" in ln)


def test_properly_join_trivial():
    ctx, lam = context_with_base([[2]], [1], extra_bases={"mu": [1]})
    mu = ctx.base("mu")
    res = properly_join(ctx, GLSPath.linear(2 * lam), GLSPath.linear(2 * mu),
                        F(1, 2), F(1, 2))
    assert res.path == concatenate(linear_path(ctx, lam), linear_path(ctx, mu),
                                   F(1, 2), ctx)
    assert res.condition2_full_ok and res.condition2_restricted_ok


def test_properly_join_self():
    ctx, lam = context_with_base([[2]], [1])
    res = properly_join(ctx, GLSPath.linear(lam), GLSPath.linear(lam), F(1, 3), F(1, 3))
    assert res.path == linear_path(ctx, lam)


def test_properly_join_rejections():
    # the literal pair (pi_{2lam}, f_1 pi_{2mu}) cannot satisfy condition 1
    ctx, lam = context_with_base([[-1]], [1], extra_bases={"mu": [1]})
    mu = ctx.base("mu")
    lowered = gls_f(ctx, 1, GLSPath.linear(2 * mu))
    with pytest.raises(JoinRejected) as err:
        properly_join(ctx, GLSPath.linear(2 * lam), lowered, F(1, 4), F(1, 4))
    assert err.value.condition == 1
    # asymmetric pairings make condition 2 the decisive check: s*beta(2lam) >= 1
    ctx2_, lam2 = context_with_base([[-1]], [3], extra_bases={"mu": [1]})
    mu2 = ctx2_.base("mu")
    lowered2 = gls_f(ctx2_, 1, GLSPath.linear(2 * mu2))
    with pytest.raises(JoinRejected) as err:
        properly_join(ctx2_, GLSPath.linear(2 * lam2), lowered2, F(1, 4), F(1, 4))
    assert err.value.condition == 2
    with pytest.raises(ValueError):
        properly_join(ctx2_, GLSPath.linear(2 * lam2), lowered2, F(3, 4), F(3, 4))


def test_join_accepts_lowered_left():
    # a lowered left path joins with the untouched right one past its breaks
    ctx, lam = context_with_base([[-1]], [1], extra_bases={"mu": [1]})
    mu = ctx.base("mu")
    left = gls_f(ctx, 1, GLSPath.linear(2 * lam))  # (r(2lam), 2lam; 0, 1/2, 1)
    res = properly_join(ctx, left, GLSPath.linear(2 * mu), F(3, 4), F(3, 4))
    from glspaths import PiecewisePath
    r2l = ctx.reflect(1, 2 * lam)
    v_half = F(1, 2) * r2l
    v_join = v_half + F(1, 4) * (2 * lam)
    expected = PiecewisePath.from_points([
        (F(0), weight()), (F(1, 2), v_half), (F(3, 4), v_join),
        (F(1), v_join + F(1, 4) * (2 * mu))])
    assert res.path == expected


def test_joined_paths_integral_and_weakly_monotone():
    from glspaths import is_integral, is_monotone
    ctx, lam = context_with_base([[-1]], [1], extra_bases={"mu": [1]})
    mu = ctx.base("mu")
    cases = [
        properly_join(ctx, GLSPath.linear(2 * lam), GLSPath.linear(2 * mu),
                      F(1, 2), F(1, 2)),
        properly_join(ctx, gls_f(ctx, 1, GLSPath.linear(2 * lam)),
                      GLSPath.linear(2 * mu), F(3, 4), F(3, 4)),
    ]
    for res in cases:
        assert is_integral(ctx, res.path)
        assert is_monotone(ctx, res.path, strict=False)


def test_operators_across_a_genuine_stall():
    # s < s' stalls the joined path; the operators must step over the stall
    from glspaths import apply_f, is_integral, is_monotone
    ctx, lam = context_with_base([[2]], [2])
    res = properly_join(ctx, GLSPath.linear(2 * lam), GLSPath.linear(2 * lam),
                        F(1, 4), F(3, 4))
    assert res.path.weight == lam
    assert is_integral(ctx, res.path)
    assert is_monotone(ctx, res.path, strict=False)
    lowered = apply_f(ctx, 1, res.path)
    assert lowered.weight == lam - alpha(1)
    assert apply_e(ctx, 1, lowered) == res.path
