"""Generic path operators: profiles, f/e, concatenation, integrality."""

import gc
import math
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from glspaths import (GLSPath, HProfile, apply_e, apply_f, concatenate,
                      context_with_base, enumerate_crystal, format_weight,
                      h_profile, is_integral, is_monotone)
from glspaths import checks, paths
from glspaths.checks import (FIXTURES, TWO_IMAGINARY,
                             check_inversion_and_weight_shift,
                             check_operator_iteration, fixture_context)
from glspaths.paths import (PiecewisePath, _h_data, _three_zone, first_time_at,
                            last_time_at)
from glspaths.rootdata import InvariantViolation


def ctx1(p=2):
    return context_with_base([[-1]], [p])


def ctx2(p=2):
    return context_with_base([[2]], [p])


def test_linear_path_and_normalization():
    ctx, lam = ctx2()
    path = GLSPath.linear(lam).render()
    assert path.weight == lam
    theta = GLSPath.linear(ctx.weight()).render()
    assert theta.weight == ctx.weight()
    # collinear interior points are dropped
    half = PiecewisePath.from_points([(0, ctx.weight()), (F(1, 2), F(1, 2) * lam), (1, lam)])
    assert half == path


@pytest.mark.parametrize("case,message", [
    ("from_points past 1", "parameter range must be [0, 1]"),
    ("from_points before 0", "parameter range must be [0, 1]"),
    ("from_grid with two values at one time", "conflicting values at t=1/2"),
    ("from_grid with times that do not increase", "times must increase strictly from 0"),
    ("from_grid starting after time 0", "times must increase strictly from 0"),
    ("from_grid starting away from weight 0", "paths start at 0"),
    ("value_at past 1", "parameter 3/2 outside [0, 1]"),
    ("value_at before 0", "parameter -1 outside [0, 1]"),
])
def test_path_input_checks(case, message):
    ctx, lam = ctx2()
    zero, a1 = ctx.weight(), ctx.alpha(1)
    straight = GLSPath.linear(lam).render()
    build = {
        "from_points past 1": lambda: PiecewisePath.from_points([(F(0), zero), (F(2), lam)]),
        "from_points before 0": lambda: PiecewisePath.from_points([(F(-1), zero), (F(1), lam)]),
        "from_grid with two values at one time":
            lambda: PiecewisePath.from_grid([0, 1, 1, 2], [zero, a1, lam, lam]),
        "from_grid with times that do not increase":
            lambda: PiecewisePath.from_grid([0, 2, 1], [zero, a1, lam]),
        "from_grid starting after time 0": lambda: PiecewisePath.from_grid([1, 2], [zero, lam]),
        "from_grid starting away from weight 0":
            lambda: PiecewisePath.from_grid([0, 2], [a1, lam]),
        "value_at past 1": lambda: straight.value_at(F(3, 2)),
        "value_at before 0": lambda: straight.value_at(-1),
    }[case]
    with pytest.raises(ValueError) as err:
        build()
    assert type(err.value) is ValueError and str(err.value) == message


def test_h_profile_examples():
    ctx, lam = ctx1()
    prof = h_profile(ctx, 1, GLSPath.linear(lam).render())
    assert (prof.m, prof.f_plus, prof.f_minus) == (0, 0, F(1, 2))
    prof_theta = h_profile(ctx, 1, GLSPath.linear(ctx.weight()).render())
    assert (prof_theta.m, prof_theta.f_plus) == (0, 1)
    c2, l2 = ctx2()
    prof2 = h_profile(c2, 1, GLSPath.linear(l2).render())
    assert (prof2.m, prof2.f_minus, prof2.e_plus) == (0, F(1, 2), 0)
    assert not prof2.e_defined


def test_apply_f_examples():
    ctx, lam = ctx1()
    down = apply_f(ctx, 1, GLSPath.linear(lam).render())
    assert down == GLSPath(lam, (ctx.reflect(1, lam), lam),
                           (F(0), F(1, 2), F(1))).render()
    assert [(t, format_weight(v)) for t, v in down.points] == [
        (0, "0"), (F(1, 2), "1/2*lambda-a1"), (1, "lambda-a1")]
    ctx0, lam0 = ctx1(p=0)
    assert apply_f(ctx0, 1, GLSPath.linear(lam0).render()) is None
    c2, l2 = ctx2()
    once = apply_f(c2, 1, GLSPath.linear(l2).render())
    twice = apply_f(c2, 1, once)
    assert twice == GLSPath.linear(l2 - 2 * c2.alpha(1)).render()  # straight path t*(r lambda)
    assert apply_f(c2, 1, twice) is None


def test_apply_e_examples():
    ctx, lam = ctx1()
    path = GLSPath.linear(lam).render()
    assert apply_e(ctx, 1, apply_f(ctx, 1, path)) == path
    # imaginary raising on the straight path exists once the pairing reaches 1 - a_11
    raised = apply_e(ctx, 1, path)
    assert raised is not None and raised.weight == lam + ctx.alpha(1)
    c2, l2 = ctx2()
    assert apply_e(c2, 1, GLSPath.linear(l2).render()) is None


def test_imaginary_e_kill_conditions():
    # pairing below 1 - a_11 kills the raising operator
    ctx, lam = ctx1(p=1)
    assert apply_e(ctx, 1, GLSPath.linear(lam).render()) is None
    ctx0, lam0 = ctx1(p=0)
    assert apply_e(ctx0, 1, GLSPath.linear(lam0).render()) is None


def test_concatenate():
    ctx, lam = ctx2(p=2)
    path = GLSPath.linear(lam).render()
    glued = concatenate(path, GLSPath.linear(ctx.weight()).render(), F(1, 2), ctx)
    assert glued.points == ((0, ctx.weight()), (F(1, 2), lam), (1, lam))
    assert glued != path  # as parametrized functions they differ
    double = concatenate(path, path, F(1, 2), ctx)
    assert double.weight == 2 * lam
    # a point between co-directional segments of different speed stays; the
    # ratio 1/49 must stay exact
    ctx3 = context_with_base([[2, -1], [-1, -2]], [1, 1])[0]
    v = ctx3.weight(roots={1: 49, 2: 98})
    bent = PiecewisePath.from_points([(0, ctx3.weight()), (F(1, 2), v), (1, F(50, 49) * v)])
    assert len(bent.points) == 3
    with pytest.raises(ValueError):
        concatenate(GLSPath.linear(lam).render(), path, F(0), ctx)
    ctxh, lamh = ctx2(p=1)
    bad = PiecewisePath.from_points([(0, ctxh.weight()), (1, F(1, 2) * lamh + ctxh.alpha(1))])
    with pytest.raises(ValueError):
        concatenate(bad, GLSPath.linear(ctxh.weight()).render(), F(1, 2), ctxh)


def test_f_acts_on_left_factor_of_concatenation():
    ctx, lam = ctx2(p=1)
    path = GLSPath.linear(lam).render()
    pair = concatenate(path, path, F(1, 2), ctx)
    lowered = apply_f(ctx, 1, pair)
    assert lowered == concatenate(apply_f(ctx, 1, path), path, F(1, 2), ctx)


def test_is_integral_counterexample():
    ctx, lam = ctx2(p=2)
    r = ctx.reflect(1, lam)
    pts = [(F(0), ctx.weight()),
           (F(1, 4), F(1, 4) * r),
           (F(3, 4), F(1, 4) * r + F(1, 2) * lam),
           (F(1), lam - ctx.alpha(1))]
    path = PiecewisePath.from_points(pts)
    assert not is_integral(ctx, path)
    assert is_integral(ctx, GLSPath.linear(lam).render())


def test_is_monotone_counterexample():
    ctx, lam = ctx2(p=1)
    pts = [(F(0), ctx.weight()),
           (F(1, 4), F(3, 4) * lam),
           (F(3, 4), F(1, 4) * lam),
           (F(1), lam)]
    path = PiecewisePath.from_points(pts)
    assert is_integral(ctx, path)
    assert not is_monotone(ctx, path)
    assert is_monotone(ctx, GLSPath.linear(lam).render())


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
        graph = enumerate_crystal(ctx, lam, 3)
        assert check_inversion_and_weight_shift(graph) == []
        assert check_operator_iteration(graph) == []


def walking_checks(graph):
    return check_operator_iteration(graph) + check_inversion_and_weight_shift(graph)


def suite_graph(name):
    ctx, lam = fixture_context(next(fx for fx in FIXTURES if fx[0] == name))
    return enumerate_crystal(ctx, lam, 3)


@pytest.mark.parametrize("name, rebuilds", [("mixed_rank2", 83), ("imaginary_k1_p2", 17)])
def test_walking_checks_compute_each_operator_result_once(monkeypatch, name, rebuilds):
    # each check call meets one object per path value, so the results kept on
    # its memo answer every later walk: each (path, index, direction) is
    # rebuilt once (148 and 44 rebuilds when every result was a fresh object)
    seen, three_zone = [], paths._three_zone

    def counted(pi, hs, den, i, u, v, div, shift):
        seen.append((pi, i, shift))
        return three_zone(pi, hs, den, i, u, v, div, shift)

    monkeypatch.setattr(paths, "_three_zone", counted)
    assert walking_checks(suite_graph(name)) == []
    assert len(seen) == rebuilds == len(set(seen))


def test_walking_checks_report_wrong_operator_results(monkeypatch):
    # every comparison still reads an operator result really computed
    real_e, real_f = checks.apply_e, checks.apply_f
    graph = suite_graph("mixed_rank2")
    top = graph.nodes[0].element.render()
    monkeypatch.setattr(checks, "apply_e",
                        lambda ctx, i, pi: top if i == 1 else real_e(ctx, i, pi))
    assert "e_1 f_1 != id" in check_inversion_and_weight_shift(graph)
    monkeypatch.setattr(checks, "apply_e", real_e)
    monkeypatch.setattr(checks, "apply_f",
                        lambda ctx, i, pi: pi if i == 1 else real_f(ctx, i, pi))
    assert "real f_1 did not drop m by one" in check_operator_iteration(
        suite_graph("mixed_rank2"))


def test_walking_checks_keep_no_path_past_their_call():
    # the table of one check call is reachable neither from the module nor
    # from the context, so dropping the graph frees the context without a
    # cycle collection
    gc.collect()
    gc.disable()
    try:
        graph = suite_graph("mixed_rank2")
        assert walking_checks(graph) == []
        ref = weakref.ref(graph.ctx)
        del graph
        assert ref() is None
    finally:
        gc.enable()


def test_h_profile_is_kept_per_context_and_index():
    ctx_a, lam = ctx2(p=2)
    ctx_b, _ = ctx2(p=4)
    path = GLSPath.linear(lam).render()
    for ctx in (ctx_a, ctx_b):
        prof = h_profile(ctx, 1, path)
        assert h_profile(ctx, 1, path) is prof
        assert prof == h_profile(ctx, 1, PiecewisePath(path._nums, path._values))
    assert h_profile(ctx_a, 1, path) != h_profile(ctx_b, 1, path)


def test_three_zone_rejects_a_wrong_shift():
    ctx, lam = ctx2()
    path = GLSPath.linear(lam).render()
    hs, den = _h_data(ctx, 1, path)[:2]  # times in units of 1/T, T = 1 here
    assert _three_zone(path, hs, den, 1, 0, F(1, 2), -1, -1) == apply_f(ctx, 1, path)
    with pytest.raises(InvariantViolation):
        _three_zone(path, hs, den, 1, 0, F(1, 2), -1, 1)


def test_h_data_is_kept_per_context_and_index():
    ctx_a, lam = ctx2(p=2)
    ctx_b, _ = ctx2(p=4)  # the same base weight lambda, paired differently
    path = GLSPath.linear(lam).render()
    twin = PiecewisePath.from_points(path.points)
    assert _h_data(ctx_a, 1, path)[:2] == ((0, 2), 1)
    assert _h_data(ctx_b, 1, path)[:2] == ((0, 4), 1)
    assert _h_data(ctx_a, 1, path)[:2] == ((0, 2), 1)
    assert set(path._f_memo) == {(ctx_a, 1), (ctx_b, 1)} and not twin._f_memo
    assert _h_data(ctx_b, 1, path) is _h_data(ctx_b, 1, path)
    assert apply_f(ctx_a, 1, path) == reference_apply(ctx_a, 1, twin, "f")
    assert apply_f(ctx_b, 1, path) == reference_apply(ctx_b, 1, twin, "f")
    assert apply_f(ctx_a, 1, path) != apply_f(ctx_b, 1, path)
    # the memo is no part of the path's value
    assert path == twin and hash(path) == hash(twin) and repr(path) == repr(twin)
    assert len({path, twin}) == 1
    hs, den, *_ = _h_data(ctx_a, 1, path)
    assert type(hs) is tuple and type(den) is int
    with pytest.raises(TypeError):
        hs[0] = 1


def test_operator_results_are_kept_per_context_index_and_direction():
    # apply_f and apply_e keep their result, None too, in the path's memo per
    # (context, index, direction): a second call returns the same object, and
    # each context, here with different matrices over the same basis, gets
    # its own result, the one an un-memoised copy of the path gives
    ctx_a, lam = context_with_base([[2, -1], [-1, -2]], [1, 1])
    ctx_b, _ = context_with_base([[2, -1], [-2, -2]], [1, 1])
    path = apply_f(ctx_a, 1, GLSPath.linear(lam).render())
    results = {}
    for ctx in (ctx_a, ctx_b):
        for i in ctx.matrix.indices:
            for op in (apply_f, apply_e):
                got = results[ctx, i, op] = op(ctx, i, path)
                assert op(ctx, i, path) is got
                assert got == op(ctx, i, PiecewisePath(path._nums, path._values))
    assert results[ctx_a, 2, apply_f] != results[ctx_b, 2, apply_f]
    assert results[ctx_a, 2, apply_e] is None and results[ctx_b, 2, apply_e] is not None
    assert results[ctx_a, 1, apply_f] is None and results[ctx_a, 1, apply_e] is not None
    # the memo is no part of the path's value
    fresh = PiecewisePath(path._nums, path._values)
    assert not fresh._f_memo and path._f_memo
    assert path == fresh and hash(path) == hash(fresh) and repr(path) == repr(fresh)


# -- the scans and the collinearity test against their reference forms ----

def per_segment_min(ts, hs, lo, hi):
    """Minimum on [lo, hi] from both clipped ends of every segment it meets."""
    vals = []
    for k in range(1, len(ts)):
        t0, t1 = ts[k - 1], ts[k]
        if t1 < lo or t0 > hi:
            continue
        h0, h1 = hs[k - 1], hs[k]
        for t in (max(t0, lo), min(t1, hi)):
            vals.append(h0 + (h1 - h0) * (t - t0) / (t1 - t0))
    return min(vals)


def rationals(lo, hi, den):
    """Fractions in [lo, hi] whose denominators divide den."""
    return st.builds(F, st.integers(lo * den, hi * den), st.just(den))


def three_step_last_time_at(ts, hs, target, upto=None):
    """last_time_at with each crossing interpolated by three Fraction steps."""
    hi = ts[-1] if upto is None else upto
    for k in range(len(ts) - 1, 0, -1):
        t0, t1 = ts[k - 1], ts[k]
        h0, h1 = hs[k - 1], hs[k]
        if t0 > hi:
            continue
        if t1 > hi:
            h1 = h0 + F((h1 - h0) * (hi - t0)) / (t1 - t0)
            t1 = hi
        if h1 == target:
            return t1
        if (h0 - target) * (h1 - target) < 0:
            return t0 + F((target - h0) * (t1 - t0)) / (h1 - h0)
        if h0 == target:
            return t0
    return None


def three_step_first_time_at(ts, hs, target, start):
    """first_time_at with each crossing interpolated by three Fraction steps."""
    for k in range(1, len(ts)):
        t0, t1 = ts[k - 1], ts[k]
        h0, h1 = hs[k - 1], hs[k]
        if t1 < start:
            continue
        if t0 < start:
            h0 = h0 + F((h1 - h0) * (start - t0)) / (t1 - t0)
            t0 = start
        if h0 == target:
            return t0
        if (h0 - target) * (h1 - target) < 0:
            return t0 + F((target - h0) * (t1 - t0)) / (h1 - h0)
        if h1 == target:
            return t1
    return None


@st.composite
def profiles_and_levels(draw):
    """(ts, hs, target, place): all ints, as the integer kernel passes them
    (numerators over a common denominator), or Fractions and ints mixed."""
    if draw(st.booleans()):
        ts = sorted(set(draw(st.lists(st.integers(1, 23), max_size=6))) | {0, 24})
        values = st.integers(-30, 30)
        places = st.one_of(st.sampled_from(ts), st.integers(0, 24))
    else:
        ts = sorted(set(draw(st.lists(rationals(0, 1, 12), max_size=6))) | {F(0), F(1)})
        values = st.one_of(st.integers(-4, 4), rationals(-5, 5, 6))
        places = st.one_of(st.sampled_from(ts), rationals(0, 1, 35))
    hs = draw(st.lists(values, min_size=len(ts), max_size=len(ts)))
    target = draw(st.one_of(st.sampled_from(hs), values))
    return ts, hs, target, draw(places)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(profiles_and_levels())
def test_crossings_agree_with_the_three_step_form(data):
    ts, hs, target, place = data
    for got, want in ((last_time_at(ts, hs, target), three_step_last_time_at(ts, hs, target)),
                      (last_time_at(ts, hs, target, place),
                       three_step_last_time_at(ts, hs, target, place)),
                      (first_time_at(ts, hs, target, place),
                       three_step_first_time_at(ts, hs, target, place))):
        # a crossing is a Fraction; a breakpoint or the clip point keeps its type
        assert got == want and type(got) is type(want)


def test_last_time_at_up_to_the_start():
    # upto = ts[0] keeps the first breakpoint, where h meets the target
    assert last_time_at([0, 1], [0, 0], 0, 0) == 0
    assert last_time_at([0, 1], [0, 0], 1, 0) is None


def test_first_time_at_from_a_breakpoint():
    # start on the breakpoint 3 of int data: h there is hs[1], read, not interpolated
    ts, hs = [0, 3, 6], [0, 4, 2]
    for target, want in ((4, 3), (3, F(9, 2)), (2, 6), (5, None)):
        got = first_time_at(ts, hs, target, 3)
        assert got == want == three_step_first_time_at(ts, hs, target, 3)
        assert type(got) is type(want)


def weight_collinear_kept(pts):
    """The points the collinearity test of from_points keeps, decided on whole
    weights: (v1 - v0) * (t2 - t1) == (v2 - v1) * (t1 - t0) drops t1."""
    out = [pts[0]]
    for k in range(1, len(pts) - 1):
        (t0, v0), (t1, v1), (t2, v2) = out[-1], pts[k], pts[k + 1]
        if (v1 - v0) * (t2 - t1) != (v2 - v1) * (t1 - t0):
            out.append(pts[k])
    return tuple(out + [pts[-1]])


VCTX, LAM = context_with_base([[2, -1], [-1, -2]], [1, 1])
# velocities that differ from one another only in the base part (first two),
# only in the root part (first and third), in both, or not at all
VELOCITIES = (LAM + VCTX.alpha(1), 2 * LAM + VCTX.alpha(1), LAM + 2 * VCTX.alpha(1),
              VCTX.alpha(2), LAM, VCTX.weight(), F(1, 2) * LAM - F(3, 2) * VCTX.alpha(1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from(VELOCITIES)),
                min_size=1, max_size=7))
def test_from_points_drops_exactly_the_collinear_points(steps):
    total = sum(dt for dt, _ in steps)
    pts, t, v = [(F(0), VCTX.weight())], F(0), VCTX.weight()
    for dt, vel in steps:
        t, v = t + F(dt, total), v + F(dt, total) * vel
        pts.append((t, v))
    assert PiecewisePath.from_points(pts).points == weight_collinear_kept(pts)


# -- the operators against the rebuild by whole weights ------------------------

def reference_three_zone(pi, u, v, middle, shift):
    """Rebuild pi by whole weights: unchanged on [0,u], the map middle
    relative to pi(u) on [u,v], translated by the weight shift on [v,1], and
    normalized by from_points."""
    base = pi.value_at(u)
    pts = [(t, val) for t, val in pi.points if t < u] + [(u, base)]
    pts += [(t, base + middle(val - base)) for t, val in pi.points if u < t < v]
    mid_end = base + middle(pi.value_at(v) - base)
    if mid_end != pi.value_at(v) + shift:
        raise InvariantViolation("zone junction mismatch")
    pts.append((v, mid_end))
    pts += [(t, val + shift) for t, val in pi.points if t > v]
    return PiecewisePath.from_points(pts)


def reference_h_profile(ctx, i, path):
    """h_profile on Fraction times and h-values: the three-step scans, and
    the extrema from both clipped ends of every segment."""
    ts, hs = [t for t, _ in path.points], [ctx.pairing(i, v) for _, v in path.points]
    m = math.ceil(min(hs))
    f_plus = three_step_last_time_at(ts, hs, m)
    f_minus = None if f_plus == 1 else three_step_first_time_at(ts, hs, m + 1, f_plus)
    if ctx.matrix.is_real(i):
        e_plus = three_step_first_time_at(ts, hs, m, F(0))
        e_minus = None if e_plus == 0 else three_step_last_time_at(ts, hs, m + 1, e_plus)
        return HProfile(m, f_plus, f_minus, e_plus, e_minus, e_plus != 0)
    a = ctx.matrix.entry(i, i)
    e_plus, e_defined = None, False
    if f_plus != 1 and -per_segment_min(ts, [-h for h in hs], f_plus, F(1)) >= m + 1 - a:
        e_plus = three_step_first_time_at(ts, hs, m + 1 - a, f_plus)
        e_defined = per_segment_min(ts, hs, e_plus, F(1)) > m - a
    return HProfile(m, f_plus, f_minus, e_plus, f_plus, e_defined)


def reference_apply(ctx, i, path, op):
    """apply_f (op "f") or apply_e (op "e") by ctx.reflect/reflect_inverse
    and from_points, on the arguments of reference_h_profile."""
    prof = reference_h_profile(ctx, i, path)
    if op == "f":
        return None if prof.f_plus == 1 else reference_three_zone(
            path, prof.f_plus, prof.f_minus, lambda w: ctx.reflect(i, w), -ctx.alpha(i))
    if not prof.e_defined:
        return None
    middle = ctx.reflect if ctx.matrix.is_real(i) else ctx.reflect_inverse
    return reference_three_zone(path, prof.e_minus, prof.e_plus,
                                lambda w: middle(i, w), ctx.alpha(i))


def zone_cases(ctx, i, path, op, result):
    """Which of the boundary cases of the rebuild the operator met: u or v
    on a breakpoint of the path, the point at u or v dropped as collinear."""
    prof = h_profile(ctx, i, path)
    u, v = (prof.f_plus, prof.f_minus) if op == "f" else (prof.e_minus, prof.e_plus)
    before, after = {t for t, _ in path.points}, {t for t, _ in result.points}
    return {case for case, met in (("u on a breakpoint", 0 < u and u in before),
                                   ("v on a breakpoint", v < 1 and v in before),
                                   ("u dropped", u not in after),
                                   ("v dropped", v not in after)) if met}


def test_operators_are_the_rebuild_by_whole_weights():
    # apply_f and apply_e on every rendered node at depth 4 and, for
    # imaginary i, on four further lowerings of it (the paths the operator
    # iteration check runs on)
    checked, seen = 0, {"f": set(), "e": set()}
    for fx in FIXTURES + (TWO_IMAGINARY,):
        ctx, lam = fixture_context(fx)
        for node in enumerate_crystal(ctx, lam, 4).nodes:
            for i in ctx.matrix.indices:
                path = node.element.render()
                for _ in range(5 if ctx.matrix.is_imaginary(i) else 1):
                    raised = apply_e(ctx, i, path)
                    assert raised == reference_apply(ctx, i, path, "e"), (fx[0], path, i)
                    if raised is not None:
                        seen["e"] |= zone_cases(ctx, i, path, "e", raised)
                    lowered = apply_f(ctx, i, path)
                    assert lowered == reference_apply(ctx, i, path, "f"), (fx[0], path, i)
                    checked += 1
                    if lowered is None:
                        break
                    seen["f"] |= zone_cases(ctx, i, path, "f", lowered)
                    path = lowered
    assert checked > 1000
    # h_i rises through the zone of f and falls through that of e on these
    # paths, so f keeps its point at v and e its point at u; ZONE_CASES
    # meets those cases on constructed paths
    assert seen == {"f": {"u on a breakpoint", "u dropped", "v on a breakpoint"},
                    "e": {"v on a breakpoint", "v dropped"}}


# (matrix, the points of a path after (0, 0), operator, the boundary cases
# met); lambda pairs to 2 with alpha_1^vee.  The weights are over the basis
# (lambda, rho, alpha_1) that both rank-one matrices share
ZCTX, ZLAM = context_with_base([[2]], [2])
A1 = ZCTX.alpha(1)
ZONE_CASES = [
    # lowering straightens the bend at u = 1/2, raising restores it
    ([[2]], ((F(1, 2), F(1, 2) * ZLAM - A1), (1, ZLAM - A1)), "f",
     {"u on a breakpoint", "u dropped"}),
    ([[2]], ((F(1, 2), F(1, 2) * ZLAM - A1), (1, ZLAM - A1)), "e",
     {"v on a breakpoint", "v dropped"}),
    # h_1 turns down after v = 1/2 in the direction r_1 gives the zone
    ([[2]], ((F(1, 2), F(1, 2) * ZLAM), (F(3, 4), F(3, 4) * ZLAM - F(1, 2) * A1),
             (1, ZLAM - F(1, 2) * A1)), "f", {"v on a breakpoint", "v dropped"}),
    # h_1 rises into u = 1/2 in the direction r_1 gives the zone
    ([[2]], ((F(1, 4), F(1, 4) * ZLAM - F(1, 2) * A1), (F(1, 2), F(1, 2) * ZLAM - F(1, 2) * A1),
             (1, ZLAM - F(3, 2) * A1)), "e", {"u on a breakpoint", "u dropped"}),
    # both: the legs before u = 1/4 and after v = 1/2 are r_1 of the zone's
    ([[2]], ((F(1, 4), F(1, 2) * ZLAM - A1), (F(1, 2), ZLAM - A1),
             (F(5, 8), F(5, 4) * ZLAM - F(3, 2) * A1), (1, F(13, 8) * ZLAM - F(3, 2) * A1)), "f",
     {"u on a breakpoint", "u dropped", "v on a breakpoint", "v dropped"}),
    # imaginary: h_1 has its minimum at the corner u = 1/4 or 1/2, and the
    # second leg of the last path is r_1 of the first
    ([[-1]], ((F(1, 2), 2 * A1), (1, F(1, 2) * ZLAM + A1)), "f", {"u on a breakpoint"}),
    ([[-1]], ((F(1, 4), A1), (1, A1 + F(3, 2) * ZLAM)), "e", {"u on a breakpoint"}),
    ([[-1]], ((F(1, 2), F(1, 2) * ZLAM), (1, ZLAM - A1)), "f",
     {"v on a breakpoint", "v dropped"}),
]


@pytest.mark.parametrize("entries, points, op, cases", ZONE_CASES)
def test_boundary_cases_of_the_rebuild(entries, points, op, cases):
    ctx, _ = context_with_base(entries, [2])
    path = PiecewisePath.from_points(((F(0), ctx.weight()),) + points)
    assert len(path.points) == len(points) + 1
    result = (apply_f if op == "f" else apply_e)(ctx, 1, path)
    assert result is not None and result == reference_apply(ctx, 1, path, op)
    assert zone_cases(ctx, 1, path, op, result) == cases


# -- the integer form against the Fraction references on bent paths -----------

# rank 1 real and imaginary (a_11 = -1, 0, -2), rank 2 with one of each
BENT_CONTEXTS = [context_with_base(entries, pairings) for entries, pairings in (
    ([[2]], [2]), ([[-1]], [2]), ([[0]], [1]), ([[-2]], [3]),
    ([[2, -1], [-1, -2]], [1, 1]), ([[2, -1], [-2, -2]], [2, 1]))]


@st.composite
def bent_paths(draw):
    """A context and a path through rational vertices at times with
    denominators 2-27, ending at a weight with integral pairings."""
    ctx, lam = draw(st.sampled_from(BENT_CONTEXTS))
    times = set()
    for _ in range(draw(st.integers(0, 3))):
        q = draw(st.integers(2, 27))
        times.add(F(draw(st.integers(1, q - 1)), q))
    # whole coefficients too, so that h_i meets integer levels at breakpoints
    coefficient = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-6, 6), st.integers(1, 4)))
    roots = ctx.matrix.indices
    pts = [(F(0), ctx.weight())]
    pts += [(t, ctx.weight({"lambda": draw(coefficient)},
                           {j: draw(coefficient) for j in roots})) for t in sorted(times)]
    pts.append((F(1), ctx.weight({"lambda": draw(st.integers(0, 3))},
                                 {j: draw(st.integers(-2, 3)) for j in roots})))
    return ctx, PiecewisePath.from_points(pts)


def test_apply_e_reads_the_int_e_data(monkeypatch):
    # the h-record holds h_profile's e-arguments in units of 1/T, and apply_e
    # takes its zone from it without a call of h_profile
    cases = []
    for fx in FIXTURES + (TWO_IMAGINARY,):
        ctx, lam = fixture_context(fx)
        for node in enumerate_crystal(ctx, lam, 4).nodes:
            for i in ctx.matrix.indices:
                path = node.element.render()
                prof, record = h_profile(ctx, i, path), _h_data(ctx, i, path)
                *_, e_plus, e_minus, e_defined = record
                times = [None if t is None else F(t, path._nums[-1]) for t in (e_plus, e_minus)]
                assert times == [prof.e_plus, prof.e_minus] and e_defined == prof.e_defined
                cases.append((ctx, i, node.element, reference_apply(ctx, i, path, "e")))
    monkeypatch.setattr("glspaths.paths.h_profile", None)
    raised = [(apply_e(ctx, i, pi.render()), want) for ctx, i, pi, want in cases]
    assert all(got == want for got, want in raised)
    assert sum(want is not None for _, want in raised) > 50


@settings(max_examples=120, deadline=None, derandomize=True)
@given(bent_paths())
def test_operators_on_the_integer_grid_match_the_fraction_references(data):
    # budget: about 1 s; each path and its f-images are checked at every index
    ctx, path = data
    for i in ctx.matrix.indices:
        for cur in (path, apply_f(ctx, i, path)):
            if cur is None:
                continue
            # the h-record holds ctx.pairing at each breakpoint over its least
            # common denominator
            hs, den = _h_data(ctx, i, cur)[:2]
            assert [F(h, den) for h in hs] == [ctx.pairing(i, v) for v in cur._values]
            assert math.gcd(den, *hs) == 1
            prof, want = h_profile(ctx, i, cur), reference_h_profile(ctx, i, cur)
            assert prof == want and list(map(type, vars(prof).values())) == list(
                map(type, vars(want).values())), (cur, i)
            for op, operator in (("f", apply_f), ("e", apply_e)):
                got = operator(ctx, i, cur)
                assert got == reference_apply(ctx, i, cur, op), (cur, i, op)
                assert got is None or got.points == reference_apply(ctx, i, cur, op).points
