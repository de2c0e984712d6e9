"""Orbits, reduced words, orbit roots, dist, and a-chains."""

import math
from fractions import Fraction as F

import pytest

from glspaths import (apply_word, context_with_base, dist, find_a_chain,
                      minimal_words, orbit, positive_wpi_roots)
from glspaths import gls
from glspaths.checks import (FIXTURES, TWO_IMAGINARY, check_dist_lemmas,
                             check_orbit_properties, fixture_context)
from glspaths.rootdata import UnknownBase


def ctx1():
    return context_with_base([[-1]], [2])


def ctx2():
    return context_with_base([[2]], [2])


def ctx3():
    return context_with_base([[2, -1], [-1, -2]], [1, 1])


def chain_at(ctx, a, mu, nu):
    """find_a_chain at the level a (int or Fraction) for two weights, interned first."""
    table, a = ctx.orbit_table, F(a)
    return find_a_chain(ctx, a.numerator, a.denominator, table.intern(mu), table.intern(nu))


def test_apply_word():
    ctx, lam = ctx1()
    assert apply_word(ctx, [], lam) == lam
    assert apply_word(ctx, [1, 1], lam) == lam - 6 * ctx.alpha(1)
    assert minimal_words(ctx, lam, lam - 6 * ctx.alpha(1), 4) == [(1, 1)]
    c2, l2 = ctx2()
    assert apply_word(c2, [1], l2) == l2 - 2 * c2.alpha(1)
    # r_2 r_3 lam = r_3 r_2 lam: both words are minimal
    ti, lt = fixture_context(TWO_IMAGINARY)
    mu = apply_word(ti, (2, 3), lt)
    assert sorted(minimal_words(ti, lt, mu, 4)) == [(2, 3), (3, 2)]


def test_orbit_examples():
    ctx, lam = ctx1()
    assert orbit(ctx, lam, 6) == {lam, lam - 2 * ctx.alpha(1), lam - 6 * ctx.alpha(1)}
    c2, l2 = ctx2()
    assert orbit(c2, l2, 4) == {l2, l2 - 2 * c2.alpha(1)}
    assert orbit(ctx, lam, 0) == {lam}
    with pytest.raises(ValueError):
        orbit(ctx, -2 * lam, 3)


def test_positive_wpi_roots():
    c2, _ = ctx2()
    assert [r.root for r in positive_wpi_roots(c2, 3)] == [c2.alpha(1)]
    c1, _ = ctx1()
    assert [r.root for r in positive_wpi_roots(c1, 3)] == [c1.alpha(1)]
    c3, l3 = ctx3()
    a1, a2 = c3.alpha(1), c3.alpha(2)
    roots = positive_wpi_roots(c3, 2)
    assert [r.root for r in roots] == [a1, a2, a1 + a2]
    by_root = {r.root.sort_key(): r for r in roots}
    tall = by_root[(a1 + a2).sort_key()]
    # transported coroot of r_1(alpha_2): r_1(alpha_2^vee) = alpha_2^vee +
    # alpha_1^vee pairs as computed by hand, on the simple roots and on lambda
    assert [tall.coroot_pairing(a) for a in (a1, a2)] == [F(1), F(-3)]
    assert tall.coroot_pairing(l3) == 2
    assert tall.imaginary


def test_dist_examples():
    ctx, lam = ctx1()
    assert dist(ctx, lam - 2 * ctx.alpha(1), lam) == 1
    assert dist(ctx, lam - 6 * ctx.alpha(1), lam) == 2
    assert dist(ctx, lam - ctx.alpha(1), lam) is None
    c2, l2 = ctx2()
    assert dist(c2, l2 - 2 * c2.alpha(1), l2) == 1


def test_find_a_chain_examples():
    ctx, lam = ctx1()
    chain = chain_at(ctx, F(1, 2), lam - 2 * ctx.alpha(1), lam)
    assert chain is not None and len(chain) == 1
    assert chain.weights == (lam - 2 * ctx.alpha(1), lam)
    assert chain.roots[0].root == ctx.alpha(1)
    assert chain_at(ctx, F(1, 3), lam - 2 * ctx.alpha(1), lam) is None
    # a = 1 makes the real integrality automatic
    c2, l2 = ctx2()
    chain2 = chain_at(c2, F(1), l2 - 2 * c2.alpha(1), l2)
    assert chain2 is not None and len(chain2) == 1
    with pytest.raises(ValueError):
        chain_at(ctx, F(0), lam, lam)


def test_chain_invariants():
    c3, l3 = ctx3()
    mu = l3 - 2 * c3.alpha(1) - c3.alpha(2)
    chain = chain_at(c3, F(1), mu, l3)
    assert chain is not None and len(chain) == 2
    for t in range(len(chain)):
        lower, upper = chain.weights[t], chain.weights[t + 1]
        root = chain.roots[t]
        c = root.coroot_pairing(upper)
        assert c > 0
        assert lower == upper - c * root.root
        assert dist(c3, lower, upper) == 1


def test_caches_agree_with_a_fresh_context():
    for fx in FIXTURES + (TWO_IMAGINARY,):
        warm, lam = fixture_context(fx)
        weights = sorted(orbit(warm, lam, 5), key=lambda w: w.sort_key())
        pairs = [(mu, nu) for mu in weights for nu in weights]

        def results(ctx):
            roots = [positive_wpi_roots(ctx, b) for b in range(6)]
            dists = [dist(ctx, mu, nu) for mu, nu in pairs]
            chains = [chain_at(ctx, a, mu, nu) for a in (F(1), F(1, 2)) for mu, nu in pairs]
            return roots, dists, chains

        first = results(warm)
        assert results(warm) == first == results(fixture_context(fx)[0]), fx[0]
        assert all(positive_wpi_roots(warm, b) is first[0][b] for b in range(6))


def test_positive_wpi_roots_is_a_tuple():
    c3, _ = ctx3()
    assert isinstance(positive_wpi_roots(c3, 2), tuple)
    assert isinstance(positive_wpi_roots(c3, 0), tuple)


def test_caches_are_per_context():
    # the same weights, read in contexts with different matrices, in turn
    (ci, li), (cr, lr) = ctx1(), ctx2()
    assert li == lr
    for _ in range(2):
        assert dist(ci, li - 6 * ci.alpha(1), li) == 2
        assert dist(cr, lr - 6 * cr.alpha(1), lr) is None
        assert chain_at(ci, F(1, 2), li - 2 * ci.alpha(1), li).roots[0].imaginary
        assert not chain_at(cr, F(1, 2), lr - 2 * cr.alpha(1), lr).roots[0].imaginary
    (c3, _), (c4, _) = ctx3(), context_with_base([[-1, -1], [-1, -2]], [1, 1])
    for _ in range(2):
        assert [r.root for r in positive_wpi_roots(c3, 2)] == [c3.alpha(1), c3.alpha(2),
                                                              c3.alpha(1) + c3.alpha(2)]
        assert [r.root for r in positive_wpi_roots(c4, 2)] == [c4.alpha(1), c4.alpha(2)]


def test_orbit_properties_suite():
    for entries, pairings in ([[-1]], [2]), ([[2, -1], [-1, -2]], [1, 1]):
        ctx, lam = context_with_base(entries, pairings)
        assert check_orbit_properties(ctx, lam) == []


def test_dist_lemmas_suite():
    for entries, pairings in ([[-1]], [2]), ([[2, -1], [-1, -2]], [1, 1]):
        ctx, lam = context_with_base(entries, pairings)
        assert check_dist_lemmas(ctx, lam) == []


# rank 3, a_12 a_23 a_31 != a_21 a_32 a_13; the second has an infinite Weyl group
NON_SYMMETRIZABLE = ([[2, -1, -1], [-2, 2, -1], [-1, -1, -2]],
                     [[2, -2, -1], [-3, 2, -1], [-1, -2, -2]])


def test_root_tuples_do_not_depend_on_request_order():
    # ascending requests build every bound; descending ones build 12 and slice the rest
    matrices = [fx[1] for fx in FIXTURES + (TWO_IMAGINARY,)] + list(NON_SYMMETRIZABLE)
    for entries in matrices:
        up = context_with_base(entries, [1] * len(entries))[0]
        down = context_with_base(entries, [1] * len(entries))[0]
        ascending = [positive_wpi_roots(up, b) for b in range(13)]
        descending = [positive_wpi_roots(down, b) for b in reversed(range(13))][::-1]
        assert ascending == descending, entries


def test_chain_memo_does_not_keep_a_rejected_level():
    ctx, lam = ctx1()
    for _ in range(2):
        with pytest.raises(ValueError):
            chain_at(ctx, F(3, 2), lam - 2 * ctx.alpha(1), lam)
        for p, q in ((0, 1), (-1, 2), (3, 2), (1, 0), (-1, -2)):
            with pytest.raises(ValueError, match=rf"\(0,1\], got {p}/{q}$"):
                find_a_chain(ctx, p, q, 0, 1)
    assert not ctx.orbit_table.chains


def test_chain_memo_serves_int_and_fraction_levels_alike():
    c3, l3 = ctx3()
    mu = l3 - 2 * c3.alpha(1) - c3.alpha(2)
    for levels in ((1, F(1)), (F(1), 1)):
        ctx = ctx3()[0]
        chains = [chain_at(ctx, a, mu, l3) for a in levels]
        assert chains[0] == chains[1] == chain_at(c3, F(1), mu, l3)
        assert all(type(chain.level) is F for chain in chains)


def test_chain_memo_keys_on_reduced_levels_and_weight_ids():
    c3, l3 = ctx3()
    table, mu = c3.orbit_table, l3 - 2 * c3.alpha(1) - c3.alpha(2)
    one, half = chain_at(c3, 1, mu, l3), chain_at(c3, F(1, 2), mu, l3)
    assert one is not None and len(table.chains) == 2
    # the same level as an int or a Fraction, and an equal weight made otherwise
    other_mu = (l3 - c3.alpha(2)) - c3.alpha(1) - c3.alpha(1)
    assert other_mu is not mu and chain_at(c3, F(1), other_mu, l3) is one
    assert chain_at(c3, F(2, 4), mu, l3 + c3.alpha(1) - c3.alpha(1)) is half
    # find_a_chain reduces an int level itself
    ids = table.ids[mu], table.ids[l3]
    assert find_a_chain(c3, 3, 3, *ids) is one and find_a_chain(c3, 3, 6, *ids) is half
    assert set(table.chains) == {(1, 1, table.ids[mu], table.ids[l3]),
                                 (1, 2, table.ids[mu], table.ids[l3])}
    # every key of a membership pass: ints, p/q in lowest terms in (0, 1]
    ctx, lam = fixture_context(FIXTURES[5])
    for pi in gls.enumerate_crystal(ctx, lam, 6).elements:
        gls.verify_gls(ctx, pi)
    table = ctx.orbit_table
    assert table.chains
    for key, chain in table.chains.items():
        assert len(key) == 4 and all(type(x) is int for x in key), key
        p, q, i, j = key
        assert math.gcd(p, q) == 1 and 0 < p <= q
        assert chain is None or (chain.level == F(p, q) and (chain.weights[0], chain.weights[-1])
                                 == (table.weights[i], table.weights[j]))


def test_a_weight_over_another_basis_is_not_interned():
    ctx, lam = ctx3()
    other = context_with_base([[2, -1], [-1, -2]], [1, 1], name="mu")[1]
    table = ctx.orbit_table
    table.intern(lam)
    for _ in range(2):
        with pytest.raises(UnknownBase):
            chain_at(ctx, 1, other, lam)
        with pytest.raises(UnknownBase):
            table.intern(other)
    assert not table.chains and list(table.ids) == table.weights == [lam]
    assert all(len(column) == 1 for column in table.pairings[1:])
    assert table.intern(lam - ctx.alpha(1)) == 1


def test_chain_memo_holds_one_entry_per_distinct_call(monkeypatch):
    seen = set()

    def recording(ctx, p, q, mu, nu):  # verify_gls passes ids; p/q may be unreduced
        seen.add((F(p, q), mu, nu))
        return find_a_chain(ctx, p, q, mu, nu)

    monkeypatch.setattr(gls, "find_a_chain", recording)
    ctx, lam = fixture_context(FIXTURES[5])
    graph = gls.enumerate_crystal(ctx, lam, 9)
    assert all(gls.verify_gls(ctx, node.element) for node in graph.nodes)
    for node in graph.nodes:
        for i in ctx.matrix.indices:
            gls.gls_e(ctx, i, node.element)
    assert len(ctx.orbit_table.chains) == len(seen) == 189


def test_a_complete_root_build_serves_every_larger_bound():
    # on mixed_rank2 (W = {1, r_1}) the roots stop at height 2, so the build
    # for bound 2 cuts nothing and every larger bound is served from it
    fx = FIXTURES[5]
    assert fx[0] == "mixed_rank2"
    ctx = fixture_context(fx)[0]
    assert float("inf") not in ctx.orbit_table.roots
    positive_wpi_roots(ctx, 1)
    assert float("inf") not in ctx.orbit_table.roots  # alpha_1 + alpha_2 was cut
    complete = positive_wpi_roots(ctx, 2)
    assert ctx.orbit_table.roots[float("inf")] is complete
    served = positive_wpi_roots(ctx, 6561)
    assert served == positive_wpi_roots(fixture_context(fx)[0], 6561)
    assert all(a is b for a, b in zip(served, complete)) and len(served) == len(complete)


def test_an_infinite_root_set_is_never_complete():
    ctx = context_with_base(NON_SYMMETRIZABLE[1], [1, 1, 1])[0]
    for b in (1, 4, 12):
        assert len(positive_wpi_roots(ctx, b)) < len(positive_wpi_roots(ctx, b + 1))
    assert float("inf") not in ctx.orbit_table.roots
