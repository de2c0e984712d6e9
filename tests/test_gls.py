"""GLS paths: closed-form operators, membership, enumeration, joining."""

import inspect
import math
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction as F

import pytest

from glspaths import (GLSPath, JoinRejected, NotAGLSPath, apply_e, apply_f,
                      concatenate, context_with_base, enumerate_crystal,
                      export_dot, gls_e, gls_f, hw_crystal_isomorphic,
                      find_a_chain, properly_join, validate_axioms,
                      verify_gls)
from glspaths import checks, crystals, gls
from glspaths.checks import (FIXTURES, TWO_IMAGINARY, check_gls_membership,
                             check_highest_weight_unique,
                             check_non_strictness_witness,
                             check_oracle_equivalence, fixture_context)
from glspaths.gls import _from_integer_form, _h_profile, build_crystal_graph, gls_epsilon
from glspaths.paths import PiecewisePath, first_time_at, last_time_at
from glspaths.rootdata import InvariantViolation, combination, offset_vector


def ctx1(p=2, k=1):
    return context_with_base([[-k]], [p])


def ctx2(p=2):
    return context_with_base([[2]], [p])


def rpow(ctx, lam, s):
    for _ in range(s):
        lam = ctx.reflect(1, lam)
    return lam


def test_gls_path_validation():
    _, lam = ctx1()
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


def test_verify_gls_reads_the_integer_form_not_the_breaks(monkeypatch):
    # operator-made paths leave breaks unset, and verification does not build
    # them; an equal constructor-made path gets the same shared chains
    ctx, lam = fixture_context(FIXTURES[5])
    paths = enumerate_crystal(ctx, lam, 6).elements[1:]
    reads, getattr_ = [], GLSPath.__getattr__
    monkeypatch.setattr(GLSPath, "__getattr__",
                        lambda pi, name: reads.append(name) or getattr_(pi, name))
    certs = [verify_gls(ctx, pi) for pi in paths]
    assert reads == [] and all(certs)
    monkeypatch.undo()
    for pi, cert in zip(paths, certs):
        again = verify_gls(ctx, GLSPath(pi.shape, pi.weights, pi.breaks))
        assert again.ok and len(again.chains) == len(cert.chains) > 0
        assert all(a is b for a, b in zip(again.chains, cert.chains))


def test_rejected_candidates_keep_their_failing_pair():
    # criterion 2: (r lambda; 0, 1) with pairing m > 1 has no 1-chain up to lambda
    for m in (2, 3):
        ctx, lam = ctx1(p=m)
        cert = verify_gls(ctx, GLSPath(lam, (ctx.reflect(1, lam),), (F(0), F(1))))
        assert cert.failing_pair == (ctx.reflect(1, lam), lam, 1) and cert.chains == ()
        assert type(cert.failing_pair[2]) is F
    # the imaginary e_2 candidates that fail: the first pair without a chain,
    # at a break between weights or in the 1-chain up to the shape
    ctx, lam = fixture_context(FIXTURES[6])
    kinds, rise = set(), 1 - ctx.matrix.entry(2, 2)
    for pi in enumerate_crystal(ctx, lam, 6).elements:
        candidate = gls._surgery(lam, 2, _h_profile(ctx, 2, pi), rise, 1, inverse=True)
        cert = candidate and verify_gls(ctx, candidate)
        if cert is None or cert:
            continue
        ws, bs = candidate.weights, candidate.breaks
        pairs = list(zip(ws, ws[1:], bs[1:])) + [(ws[-1], lam, F(1))]
        table = ctx.orbit_table
        chains = [find_a_chain(ctx, a.numerator, a.denominator, table.intern(mu),
                               table.intern(nu)) for mu, nu, a in pairs]
        k = chains.index(None)
        assert cert.failing_pair == pairs[k] and type(cert.failing_pair[2]) is F
        assert cert.chains == tuple(chains[:k])
        kinds.add(k == len(ws) - 1)
    assert kinds == {False, True}


def test_verify_gls_powers():
    # (r^s lambda; 0, 1) for all s <= 4 iff m = 1 and k = 0
    for m in (1, 2):
        for k in (0, 1):
            ctx, lam = ctx1(p=m, k=k)
            accepted = all(
                bool(verify_gls(ctx, GLSPath(lam, (rpow(ctx, lam, s),), (F(0), F(1)))))
                for s in range(1, 5))
            assert accepted == (m == 1 and k == 0)


def _verify_by_breaks(ctx, pi):
    """verify_gls from the definition: the levels are the breaks as Fractions and each
    pair of weights is interned for find_a_chain.  (ok, chains, failing_pair)."""
    table, ws, bs = ctx.orbit_table, pi.weights, pi.breaks
    pairs = list(zip(ws, ws[1:], bs[1:])) + [(ws[-1], pi.shape, F(1))] * (ws[-1] != pi.shape)
    chains = []
    for mu, nu, a in pairs:
        chain = find_a_chain(ctx, a.numerator, a.denominator, table.intern(mu), table.intern(nu))
        if chain is None:
            return False, chains, (mu, nu, a)
        chains.append(chain)
    return True, chains, None


def _imaginary_candidates(ctx, pi):
    """The candidates of the imaginary e_i on pi, before their membership test."""
    out = []
    for i in sorted(ctx.matrix.imaginary_indices):
        rise = 1 - ctx.matrix.entry(i, i)
        candidate = gls._surgery(pi.shape, i, _h_profile(ctx, i, pi), rise, 1, inverse=True)
        out += [candidate] * (candidate is not None)
    return out


# item 7's non-symmetrizable matrices A and C
MATRICES_A_C = ([[2, -1, -1], [-2, 2, -1], [-1, -1, -2]], [[2, -1, -2], [-1, -1, -1], [-1, -1, -2]])


def test_verification_on_ids_matches_the_definition():
    # every node and imaginary e_i candidate of the eight fixtures at depth 6 and of
    # A and C at depth 5: the same verdict, the same shared AChain objects and the
    # same failing pair, its level a Fraction
    cases = [(fixture_context(fx), 6) for fx in FIXTURES + (TWO_IMAGINARY,)]
    cases += [(context_with_base(entries, [1, 1, 1]), 5) for entries in MATRICES_A_C]
    seen = failed = 0
    for (ctx, lam), depth in cases:
        for pi in enumerate_crystal(ctx, lam, depth).elements:
            for candidate in [pi] + _imaginary_candidates(ctx, pi):
                cert = verify_gls(ctx, candidate)
                ok, chains, failing = _verify_by_breaks(ctx, candidate)
                assert cert.ok == ok and cert.failing_pair == failing, candidate
                assert len(cert.chains) == len(chains)
                assert all(a is b for a, b in zip(cert.chains, chains))
                if not ok:
                    assert type(cert.failing_pair[2]) is F
                seen, failed = seen + 1, failed + (not ok)
    assert seen == 2344 and failed == 803


def test_failing_imaginary_raisings_keep_their_failing_pair():
    # the membership workload: mixed_rank2 at depth 9
    ctx, lam = fixture_context(FIXTURES[5])
    failing = []
    for pi in enumerate_crystal(ctx, lam, 9).elements:
        for candidate in _imaginary_candidates(ctx, pi):
            cert = verify_gls(ctx, candidate)
            if not cert:
                assert cert.failing_pair == _verify_by_breaks(ctx, candidate)[2]
                failing.append(cert.failing_pair)
    assert len(failing) == 87 and all(type(a) is F for _, _, a in failing)


def test_a_failing_node_names_its_pair_in_words():
    # (lambda - alpha_1, lambda; 0, 1/2, 1) is integral, but the one step down from
    # lambda, by alpha_1^vee(lambda) alpha_1 = 2 alpha_1, passes lambda - alpha_1
    ctx, lam = ctx1()
    pi = GLSPath(lam, (lam - ctx.alpha(1), lam), (F(0), F(1, 2), F(1)))
    graph = build_crystal_graph(ctx, pi, 0, gls_f, lambda ctx, pi: pi.weight(),
                                gls_epsilon, GLSPath.key)
    assert check_gls_membership(graph) == [
        "node 0 fails GLS verification: lambda-a1 -> lambda at level 1/2"]


def test_enumerate_rank_one_chain():
    ctx, lam = ctx1()
    graph = enumerate_crystal(ctx, lam, 3)
    assert len(graph) == 4
    for s, node in enumerate(graph.nodes):
        assert node.wt == lam - s * ctx.alpha(1)
        assert node.frontier == (s == 3)
        if s:
            assert graph.f_image(s - 1, 1) == s
    assert len(graph.f_edges) == 3


def test_enumerate_sl2():
    ctx, lam = ctx2()
    graph = enumerate_crystal(ctx, lam, 4)
    assert [node.wt for node in graph.nodes] == [lam, lam - ctx.alpha(1),
                                                 lam - 2 * ctx.alpha(1)]
    with pytest.raises(ValueError):
        enumerate_crystal(ctx, -lam, 2)


def test_enumerate_matches_oracle():
    ctx, lam = context_with_base([[2, -1], [-1, -2]], [1, 1])
    graph = enumerate_crystal(ctx, lam, 3)
    assert check_oracle_equivalence(graph) == []
    assert check_gls_membership(graph) == []
    assert check_highest_weight_unique(graph) == []


def test_non_strictness_witness():
    ctx, lam = ctx1(p=2)
    assert check_non_strictness_witness(enumerate_crystal(ctx, lam, 3)) == []


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
    assert res == concatenate(GLSPath.linear(lam).render(), GLSPath.linear(mu).render(),
                              F(1, 2), ctx)


def test_properly_join_self():
    ctx, lam = context_with_base([[2]], [1])
    res = properly_join(ctx, GLSPath.linear(lam), GLSPath.linear(lam), F(1, 3), F(1, 3))
    assert res == GLSPath.linear(lam).render()


def test_properly_join_rejections():
    # the literal pair (pi_{2lam}, f_1 pi_{2mu}) cannot satisfy condition 1
    ctx, lam = context_with_base([[-1]], [1], extra_bases={"mu": [1]})
    mu = ctx.base("mu")
    lowered = gls_f(ctx, 1, GLSPath.linear(2 * mu))
    with pytest.raises(JoinRejected) as err:
        properly_join(ctx, GLSPath.linear(2 * lam), lowered, F(1, 4), F(1, 4))
    assert err.value.condition == 1
    assert err.value.witness == ("2*lambda", "2*lambda-2*a1")
    # asymmetric pairings make condition 2 the decisive check: s*beta(2lam) >= 1
    ctx2_, lam2 = context_with_base([[-1]], [3], extra_bases={"mu": [1]})
    mu2 = ctx2_.base("mu")
    lowered2 = gls_f(ctx2_, 1, GLSPath.linear(2 * mu2))
    with pytest.raises(JoinRejected) as err:
        properly_join(ctx2_, GLSPath.linear(2 * lam2), lowered2, F(1, 4), F(1, 4))
    assert err.value.condition == 2
    # the first kept imaginary chain root, at position 0: s * beta^vee(2 lam) = 6/4
    assert err.value.witness == (0, F(3, 2))
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
        (F(0), ctx.weight()), (F(1, 2), v_half), (F(3, 4), v_join),
        (F(1), v_join + F(1, 4) * (2 * mu))])
    assert res == expected


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
        assert is_integral(ctx, res)
        assert is_monotone(ctx, res, strict=False)


def test_operators_across_a_genuine_stall():
    # s < s' stalls the joined path; the operators must step over the stall
    from glspaths import apply_f, is_integral, is_monotone
    ctx, lam = context_with_base([[2]], [2])
    res = properly_join(ctx, GLSPath.linear(2 * lam), GLSPath.linear(2 * lam),
                        F(1, 4), F(3, 4))
    assert res.weight == lam
    assert is_integral(ctx, res)
    assert is_monotone(ctx, res, strict=False)
    lowered = apply_f(ctx, 1, res)
    assert lowered.weight == lam - ctx.alpha(1)
    assert apply_e(ctx, 1, lowered) == res


JOIN_CASES = [([[-1]], [1], 4), ([[-1]], [2], 4), ([[0]], [1], 4), ([[-2]], [2], 4),
              ([[2]], [2], 4), ([[2, -1], [-1, -2]], [1, 1], 4), ([[2, -1], [-2, -2]], [1, 1], 4),
              (TWO_IMAGINARY[1], [1, 1, 1], 3),
              ([[2, -1, -1], [-2, 2, -1], [-1, -1, -2]], [1, 1, 1], 3)]


def test_properly_join_accepts_exactly_the_splices_that_are_gls_paths():
    # lambda = mu, every ordered pair (pi, pi') of the crystal and three
    # junctions a < s < b, a = pi.breaks[-2], b = pi'.breaks[1]: the join is
    # accepted iff the splice of the weight sequences at s verifies, and an
    # accepted join is the rendered splice.  Acceptance implying membership
    # is the paper's joining lemma; the converse is an observation.
    # Budget: about 0.5 s for the 3,426 trials.
    trials = accepted = 0
    for entries, pairings, depth in JOIN_CASES:
        ctx, lam = context_with_base(entries, pairings)
        paths = enumerate_crystal(ctx, lam, depth).elements
        for pi in paths:
            for pi_prime in paths:
                a, b = pi.breaks[-2], pi_prime.breaks[1]
                if a >= b:
                    continue
                head, tail = pi.breaks[:-1], pi_prime.breaks[1:]
                for s in ((a + b) / 2, a + (b - a) / 3, b - (b - a) / 4):
                    if pi.weights[-1] == pi_prime.weights[0]:
                        splice = GLSPath(lam, pi.weights + pi_prime.weights[1:], head + tail)
                    else:
                        splice = GLSPath(lam, pi.weights + pi_prime.weights, head + (s,) + tail)
                    try:
                        joined = properly_join(ctx, pi, pi_prime, s, s)
                    except JoinRejected:
                        joined = None
                    assert (joined is not None) == bool(verify_gls(ctx, splice)), (pi, pi_prime, s)
                    assert joined is None or joined == splice.render()
                    trials += 1
                    accepted += joined is not None
    assert (trials, accepted) == (3426, 389)


def test_stored_weight_is_the_rendered_weight():
    # nodes at depth 4 of the eight bundled fixtures and their f-images; a
    # fresh copy has no stored weight and still compares and hashes equal
    checked = 0
    for fx in FIXTURES + (TWO_IMAGINARY,):
        ctx, lam = fixture_context(fx)
        for node in enumerate_crystal(ctx, lam, 4).nodes:
            images = [gls_f(ctx, i, node.element) for i in ctx.matrix.indices]
            for pi in [node.element] + [p for p in images if p is not None]:
                fresh = GLSPath(pi.shape, pi.weights, pi.breaks)
                assert fresh._weight is None
                assert fresh == pi and hash(fresh) == hash(pi)
                assert pi.weight() == pi.render().weight == fresh.weight()
                assert fresh._weight is not None and pi._weight is not None
                assert fresh == pi and hash(fresh) == hash(pi)
                checked += 1
    assert checked > 300


def test_operator_made_paths_equal_and_hash_as_constructed_ones():
    # every node of the eight bundled fixtures at depth 6, enumerated in two
    # contexts of one matrix: the operator-made paths, and fresh copies that
    # the public constructor accepts, are equal and hash equal across both
    checked = 0
    for fx in FIXTURES + (TWO_IMAGINARY,):
        (c1, l1), (c2, l2) = fixture_context(fx), fixture_context(fx)
        g1, g2 = enumerate_crystal(c1, l1, 6), enumerate_crystal(c2, l2, 6)
        assert len(g1) == len(g2)
        for p, q in zip(g1.elements, g2.elements):
            fresh = GLSPath(p.shape, p.weights, p.breaks)
            assert p == fresh == q and p.key() == q.key()
            assert hash(p) == hash(fresh) == hash(q)
            checked += 1
    assert checked > 400


def test_integer_builder_checks_the_invariants():
    ctx, lam = ctx1()
    table = ctx.orbit_table
    top = table.intern(lam)
    low = table.reflect(1, top)
    pi = _from_integer_form(lam, table, [low, top], 4, [0, 2, 4])
    assert pi == GLSPath(lam, (ctx.reflect(1, lam), lam), (F(0), F(1, 2), F(1)))
    assert pi._nums == (0, 1, 2) and pi.breaks == (F(0), F(1, 2), F(1))
    for ids, nums in (([low, top], [0, 2, 2]),      # not increasing
                      ([low, top], [0, 3, 2]),      # decreasing
                      ([low, top], [0, 2, 3]),      # last numerator is not D
                      ([low, top], [1, 2, 4]),      # first numerator is not 0
                      ([top, top], [0, 2, 4]),      # equal neighbours
                      ([low], [0, 2, 4])):          # one break too many
        with pytest.raises(InvariantViolation):
            _from_integer_form(lam, table, ids, 4, nums)


def test_build_crystal_graph_signature_is_pinned():
    # the benchmark's tracer wraps this function and passes its arguments
    # positionally, so a renamed or reordered parameter breaks tracing
    assert list(inspect.signature(build_crystal_graph).parameters) == [
        "ctx", "root_element", "depth", "f_func", "wt_func", "eps_func", "key_func"]


def test_operator_made_breaks_are_built_on_first_read():
    # every node of two_imaginary at depth 6 and its f-images: the breaks are
    # built only when read and equal the constructor's, the endpoints included
    ctx, lam = fixture_context(TWO_IMAGINARY)
    graph = enumerate_crystal(ctx, lam, 6)
    paths = [gls_f(ctx, i, node.element) for node in graph.nodes for i in ctx.matrix.indices]
    paths = [p for p in paths if p is not None]
    assert len(paths) > 500
    for p in paths:
        fresh = GLSPath(p.shape, p.weights, tuple(F(a, p._nums[-1]) for a in p._nums))
        assert p == fresh and hash(p) == hash(fresh)
        with pytest.raises(AttributeError):
            object.__getattribute__(p, "breaks")  # not built yet
        assert p.breaks == fresh.breaks and p.key() == fresh.key()
        assert all(type(b) is F for b in p.breaks + fresh.breaks)
        assert p.breaks[0] == fresh.breaks[0] == 0 and p.breaks[-1] == fresh.breaks[-1] == 1


def test_paths_cannot_be_assigned():
    ctx, lam = ctx1()
    made = gls_f(ctx, 1, GLSPath.linear(lam))
    assert issubclass(FrozenInstanceError, AttributeError)
    for pi in (GLSPath.linear(lam), made):
        for name in ("shape", "weights", "breaks", "_nums"):
            with pytest.raises(FrozenInstanceError):
                setattr(pi, name, None)
        with pytest.raises(AttributeError):
            getattr(pi, "no_such_attribute")
    assert made.breaks == (F(0), F(1, 2), F(1))


def test_epsilon_follows_the_context_of_each_call():
    # A2 and a matrix with a_12 = -3: the paths of the A2 crystal, read in
    # both contexts in turn, get each context's own epsilon_i (the value the
    # operators recorded on a path is not carried over to the other context)
    (ca, lam), (cb, _) = (context_with_base(m, [1, 1])
                          for m in ([[2, -1], [-1, 2]], [[2, -3], [-1, 2]]))

    def eps(ctx, pi):
        try:
            return tuple(gls_epsilon(ctx, i, pi) for i in ctx.matrix.indices)
        except NotAGLSPath:
            return None

    differ = 0
    for node in enumerate_crystal(ca, lam, 3).nodes:
        pi = node.element
        expected = {c: eps(c, GLSPath(pi.shape, pi.weights, pi.breaks)) for c in (ca, cb)}
        for ctx in (cb, ca, cb, ca):
            assert eps(ctx, pi) == expected[ctx]
        assert expected[ca] == node.eps
        differ += expected[ca] != expected[cb]
    assert differ >= 2


def test_the_node_table_does_not_depend_on_what_is_read_first():
    # the eight bundled fixtures at depth 5: reading weights before the node
    # table gives the table that reading it first gives, and the table
    # reuses the weights: wt_func runs once per node either way
    for fx in FIXTURES + (TWO_IMAGINARY,):
        tables = []
        for weights_first in (False, True):
            ctx, lam = fixture_context(fx)
            calls = []
            graph = build_crystal_graph(ctx, GLSPath.linear(lam), 5, gls_f,
                                        lambda c, pi: calls.append(pi) or pi.weight(),
                                        gls_epsilon, GLSPath.key)
            assert "nodes" not in vars(graph) and calls == []
            if weights_first:
                assert graph.weights[0] == lam and len(calls) == len(graph)
            tables.append(([(n.element.key(), n.wt, n.eps, n.phi, n.frontier)
                            for n in graph.nodes], graph.f_edges, export_dot(graph)))
            assert len(calls) == len(graph) == len(graph.nodes)
            assert list(map(id, graph.weights)) == [id(n.wt) for n in graph.nodes]
        assert tables[0] == tables[1], fx[0]


def test_one_numbering_and_key_calls_only_for_dot(monkeypatch):
    # the eight bundled fixtures at depth 5 and every graph the suite builds:
    # node k is element k, the f-edges are the BFS edges themselves, and
    # key_func runs only in export_dot, once per node, never for the node
    # table, the axioms or the isomorphism test
    builds = []

    def recording(*args, **kwargs):
        builds.append(inspect.signature(build_crystal_graph).bind(*args, **kwargs).args)
        return build_crystal_graph(*args, **kwargs)

    monkeypatch.setattr(gls, "build_crystal_graph", recording)
    monkeypatch.setattr(crystals, "build_crystal_graph", recording)
    assert all(not violations for _, violations in checks.run_suite(seed=0))
    assert {type(args[1]).__name__ for args in builds} == {
        "GLSPath", "PiecewisePath", "TensorElement", "BJWord"}
    for fx in FIXTURES + (TWO_IMAGINARY,):
        ctx, lam = fixture_context(fx)
        builds.append((ctx, GLSPath.linear(lam), 5, gls_f, lambda c, pi: pi.weight(),
                       gls_epsilon, GLSPath.key))
    for ctx, root, depth, f_func, wt_func, eps_func, key_func in builds:
        calls = []
        graph = build_crystal_graph(ctx, root, depth, f_func, wt_func, eps_func,
                                    lambda el: calls.append(el) or key_func(el))
        assert len(graph.nodes) == len(graph)
        assert all(node.element is el for node, el in zip(graph.nodes, graph.elements))
        validate_axioms(graph)
        assert hw_crystal_isomorphic(graph, graph) and calls == []
        export_dot(graph)
        assert len(calls) == len(graph)


def test_the_suite_builds_each_gls_crystal_once(monkeypatch):
    # one crystal per fixture, read by every GLS check, the axioms and the
    # character, plus the non-strictness witness and the two anchors of the
    # limit-stability check; enumerate_crystal is the only caller of gls's binding
    builds = []

    def recording(*args, **kwargs):
        builds.append(args[2])
        return build_crystal_graph(*args, **kwargs)

    monkeypatch.setattr(gls, "build_crystal_graph", recording)
    assert all(not violations for _, violations in checks.run_suite(seed=0))
    assert len(builds) == len(FIXTURES) + 3 == 10


def test_exponents_are_the_root_offsets_of_the_weights(monkeypatch):
    # a node's depth vector, read off its discovery edge, is wt(root) - wt(node),
    # on every graph the suite generates (tensor pairs, B_J(infinity) words,
    # ambient paths), the eight bundled fixtures at depth 6 and the benchmark's
    # instance, two_imaginary with lambda = 111 at depth 9
    graphs = []

    def recording(*args, **kwargs):
        graphs.append(build_crystal_graph(*args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(crystals, "build_crystal_graph", recording)
    assert all(not violations for _, violations in checks.run_suite(seed=0))
    assert {type(graph.elements[0]).__name__ for graph in graphs} == {
        "TensorElement", "BJWord", "PiecewisePath"}
    for fx in FIXTURES + (TWO_IMAGINARY,):
        graphs.append(enumerate_crystal(*fixture_context(fx), 6))
    graphs.append(enumerate_crystal(*fixture_context(TWO_IMAGINARY), 9))
    assert len(graphs[-1]) == 3045
    for graph in graphs:
        root = graph.weights[0]
        assert graph.exponents == [offset_vector(root, wt) for wt in graph.weights]
        assert all(type(c) is int for vec in graph.exponents for c in vec)


def test_e_edges_are_the_reversed_f_edges_built_on_first_use():
    ctx, lam = fixture_context(TWO_IMAGINARY)
    graph = enumerate_crystal(ctx, lam, 5)
    assert "e_edges" not in vars(graph)
    assert graph.e_edges == {(dst, i): src for (src, i), dst in graph.f_edges.items()}
    assert len(graph.e_edges) == len(graph.f_edges) > 0
    for (src, i), dst in graph.f_edges.items():
        assert graph.e_image(dst, i) == src


# -- the integer surgery against the scan route it replaced ----------------

def scan_reflected(shape, table, i, ids, den, nums, u, v, inverse=False):
    """The former operator core: r_i (r_i^{-1} if inverse) on [u, v], times
    in units of 1/D (ints or Fractions) cut into the breaks by bisection,
    equal neighbours merged in one pass, the grid reduced at the end."""
    q = math.lcm(u.denominator, v.denominator)
    u, v = u.numerator * (q // u.denominator), v.numerator * (q // v.denominator)
    ends, ids = [b * q for b in nums[1:]], list(ids)
    for t in (u, v):  # cut the segment that holds t in its interior
        k = bisect_left(ends, t)
        if 0 < t < ends[k]:
            ends.insert(k, t)
            ids.insert(k, ids[k])
    lo, hi = bisect_right(ends, u), bisect_right(ends, v)
    ids[lo:hi] = [table.reflect(i, w, inverse) for w in ids[lo:hi]]
    out_ids, out_nums = [], [0]
    for w, t in zip(ids, ends):
        if out_ids and out_ids[-1] == w:
            out_nums[-1] = t
        else:
            out_ids.append(w)
            out_nums.append(t)
    return _from_integer_form(shape, table, out_ids, den * q, out_nums)


def scan_f(ctx, i, pi):
    """gls_f with its zone found by the generic scans of paths.py."""
    table, ids, den, nums, hs, m = _h_profile(ctx, i, pi)
    f_plus = last_time_at(nums, hs, m * den)
    if f_plus == den:
        return None
    f_minus = first_time_at(nums, hs, (m + 1) * den, f_plus)
    if f_minus is None:
        raise NotAGLSPath("h stays below m+1 after f_plus")
    return scan_reflected(pi.shape, table, i, ids, den, nums, f_plus, f_minus)


def scan_e(ctx, i, pi):
    """gls_e with its zone found by the generic scans of paths.py."""
    table, ids, den, nums, hs, m = _h_profile(ctx, i, pi)
    if ctx.matrix.is_real(i):
        e_plus = first_time_at(nums, hs, m * den, 0)
        if e_plus == 0:
            return None
        e_minus = last_time_at(nums, hs, (m + 1) * den, e_plus)
        if e_minus is None:
            raise NotAGLSPath("h stays below m+1 before e_plus")
        return scan_reflected(pi.shape, table, i, ids, den, nums, e_minus, e_plus)
    a = ctx.matrix.entry(i, i)
    e_minus = last_time_at(nums, hs, m * den)
    e_plus = first_time_at(nums, hs, (m + 1 - a) * den, e_minus)
    if e_plus is None or any(h <= (m - a) * den for t, h in zip(nums, hs) if t > e_plus):
        return None
    candidate = scan_reflected(pi.shape, table, i, ids, den, nums, e_minus, e_plus, inverse=True)
    return candidate if verify_gls(ctx, candidate) else None


def outcome(op, ctx, i, pi):
    """(weights, break numerators) of op's result, None, or the exception type."""
    try:
        res = op(ctx, i, pi)
    except (NotAGLSPath, InvariantViolation) as exc:
        return type(exc)
    return None if res is None else (res.weights, res._nums)


@pytest.mark.parametrize("fixtures, depth", [(FIXTURES + (TWO_IMAGINARY,), 5),
                                             ((TWO_IMAGINARY,), 7)],
                         ids=["bundled-d5", "two_imaginary-d7"])
def test_surgery_matches_the_scan_route(fixtures, depth):
    # every (node, i) of the truncations, and every node's f- and e-images
    seen = {"f": 0, "e": 0, "grown": 0, "merged": 0}
    for fx in fixtures:
        ctx, lam = fixture_context(fx)
        for node in enumerate_crystal(ctx, lam, depth).nodes:
            pi = node.element
            for i in ctx.matrix.indices:
                for name, op, ref in (("f", gls_f, scan_f), ("e", gls_e, scan_e)):
                    got = outcome(op, ctx, i, pi)
                    assert got == outcome(ref, ctx, i, pi), (fx[0], pi, i, name)
                    if got is not None:
                        seen[name] += 1
                        seen["grown"] += got[1][-1] > pi._nums[-1]
                        seen["merged"] += len(got[0]) < len(pi.weights)
    assert all(seen.values()), seen


def test_surgery_cases():
    # sl2 with lambda(h) = 4, so r = lambda - 4 alpha; the first paths are no
    # GLS paths, but the operators act on their data all the same
    ctx, lam = context_with_base([[2]], [4])
    r = ctx.reflect(1, lam)

    def path(weights, *breaks):
        return GLSPath(lam, weights, (F(0), *breaks, F(1)))

    cases = [
        # h: 0, -1, 0, -1/2, 1: the zone [1/4, 1/2] ends on a break and
        # merges at both junctions
        (gls_f, path((r, lam, r, lam), F(1, 4), F(1, 2), F(5, 8)), path((r, lam), F(5, 8))),
        # the mirror image for e: the zone [1/4, 1/2] runs back from e_plus
        (gls_e, path((r, lam, r, lam), F(1, 8), F(1, 4), F(1, 2)), path((r, lam), F(1, 8))),
        # an interior crossing at 1/4 grows D from 1 to 4
        (gls_f, GLSPath.linear(lam), path((r, lam), F(1, 4))),
        # an interior crossing at 1/2 merges at the anchor junction
        (gls_f, path((r, lam), F(1, 4)), path((r, lam), F(1, 2))),
        # e_plus = 1 on the end of the path; the crossing at 3/4 is interior
        (gls_e, path((lam, r), F(1, 8)), path((lam, r, lam), F(1, 8), F(3, 4))),
    ]
    for op, pi, expected in cases:
        got = op(ctx, 1, pi)
        assert got == expected and got._nums == expected._nums, (op.__name__, pi)
        assert outcome(op, ctx, 1, pi) == outcome(scan_f if op is gls_f else scan_e, ctx, 1, pi)
    assert gls_f(ctx, 1, GLSPath.linear(lam))._nums == (0, 1, 4)
    # a new break and a dropped one in one call: D = 6 becomes 15, over the
    # grid 30 that the crossing 1/5 needs, reduced once the break 1/2 is gone
    cm, lm = fixture_context(FIXTURES[5])

    def down(a1, a2):
        return lm - cm.weight(roots={1: a1, 2: a2})

    pi = GLSPath(lm, (down(5, 4), down(2, 1), down(0, 1)), (F(0), F(1, 3), F(1, 2), F(1)))
    raised = gls_e(cm, 1, pi)
    assert raised == GLSPath(lm, (down(5, 4), down(0, 4), down(0, 1)),
                             (F(0), F(1, 5), F(1, 3), F(1)))
    assert raised._nums == (0, 3, 5, 15) and outcome(scan_e, cm, 1, pi) == outcome(gls_e, cm, 1, pi)


def test_surgery_at_an_imaginary_index_from_t_zero():
    # [[-1]] with lambda(h) = 2: h_1 only rises, so m = 0 is reached at t = 0
    # alone and the zone of f_1 and of e_1 starts there
    ctx, lam = ctx1()
    r = ctx.reflect(1, lam)
    lowered = gls_f(ctx, 1, GLSPath.linear(lam))
    assert lowered == GLSPath(lam, (r, lam), (F(0), F(1, 2), F(1)))
    # e_1: r^{-1} on [0, 1/2], where h_1 reaches m + 1 - a_11 = 2 on a break;
    # the raised weight merges with lambda at the far junction
    assert gls_e(ctx, 1, lowered) == GLSPath.linear(lam)
    # with lambda(h) = 1, h_1 rises from 0 to m + 1 - a_11 = 2 along the
    # straight path r lambda: the zone is the whole path
    c1, l1 = ctx1(p=1)
    straight = GLSPath(l1, (c1.reflect(1, l1),), (F(0), F(1)))
    assert gls_e(c1, 1, straight) == GLSPath.linear(l1)
    for c, pi in ((ctx, GLSPath.linear(lam)), (ctx, lowered), (c1, straight)):
        for op, ref in ((gls_f, scan_f), (gls_e, scan_e)):
            assert outcome(op, c, 1, pi) == outcome(ref, c, 1, pi)


def test_both_not_a_gls_path_raises():
    # sl2 with lambda(h) = 1/2: the minimum 0 is an integer, but h_1 never
    # reaches 1 after f_plus = 0 (the surgery's raise); with -lambda the
    # minimum -1/2 is no integer (the profile's raise, before any surgery)
    ctx, lam = context_with_base([[2]], [F(1, 2)])
    for pi, ops in ((GLSPath.linear(lam), (gls_f, scan_f)),
                    (GLSPath.linear(-lam), (gls_f, scan_f, gls_e, scan_e))):
        for op in ops:
            with pytest.raises(NotAGLSPath):
                op(ctx, 1, pi)
    # for a real e_i the level m + 1 <= 0 = h_i(0) is always reached before
    # e_plus, so only the lowering operator can raise the surgery's error
    assert gls_e(ctx, 1, GLSPath.linear(lam)) is None


def reference_render(pi):
    """The former render: each prefix value by its own combination, then
    from_grid with its collinearity scan."""
    nums, weights = pi._nums, pi.weights
    steps = [b - a for a, b in zip(nums, nums[1:])]
    return PiecewisePath.from_grid(nums, [weights[0] * 0, *(
        combination(steps[:k], weights[:k], nums[-1]) for k in range(1, len(nums)))])


def test_render_is_built_once_and_is_no_part_of_the_value():
    # a GLS path keeps its rendered path, constructor-made or operator-made,
    # so every reader shares one path and its operator memo
    ctx, lam = fixture_context(TWO_IMAGINARY)
    made = GLSPath.linear(lam)
    for pi in (made, gls_f(ctx, 1, made), gls_f(ctx, 2, gls_f(ctx, 1, made))):
        weight = pi.weight()  # kept in the slot that the rendered path then takes
        path = pi.render()
        assert pi.render() is path and path == reference_render(pi)
        assert pi.weight() is path.weight and path.weight == weight
        twin = GLSPath(pi.shape, pi.weights, pi.breaks)
        assert twin._weight is None and pi._weight is path
        assert twin == pi and hash(twin) == hash(pi) and repr(twin) == repr(pi)
        assert twin.render() is not path and twin.render() == path
    # no memo slot takes part in == or hash
    assert [f.name for f in fields(GLSPath) if f.compare] == ["shape", "weights", "_nums"]
    assert [f.name for f in fields(PiecewisePath) if f.compare] == ["_nums", "_values"]


def test_render_is_the_from_grid_construction():
    checked = 0
    for fx in FIXTURES + (TWO_IMAGINARY,):
        ctx, lam = fixture_context(fx)
        for node in enumerate_crystal(ctx, lam, 4).nodes:
            got, want = node.element.render(), reference_render(node.element)
            assert got == want and got._nums == want._nums and got._values == want._values
            assert got.weight == node.wt
            checked += 1
    assert checked > 100
