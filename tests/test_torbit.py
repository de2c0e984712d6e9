"""Orbits, reduced words, orbit roots, dist, and a-chains."""

from fractions import Fraction as F

import pytest

from glspaths import (alpha, apply_word, context_with_base, dist,
                      find_a_chain, minimal_words, orbit, positive_wpi_roots,
                      reduced_word_search, weight)
from glspaths.checks import (FIXTURES, TWO_IMAGINARY, check_dist_lemmas,
                             check_orbit_properties, fixture_context)


def ctx1():
    return context_with_base([[-1]], [2])


def ctx2():
    return context_with_base([[2]], [2])


def ctx3():
    return context_with_base([[2, -1], [-1, -2]], [1, 1])


def test_apply_word():
    ctx, lam = ctx1()
    assert apply_word(ctx, [], lam) == lam
    assert apply_word(ctx, [1, 1], lam) == lam - 6 * alpha(1)
    c2, l2 = ctx2()
    assert apply_word(c2, [1], l2) == l2 - 2 * alpha(1)


def test_orbit_examples():
    ctx, lam = ctx1()
    assert orbit(ctx, lam, 6) == {lam, lam - 2 * alpha(1), lam - 6 * alpha(1)}
    c2, l2 = ctx2()
    assert orbit(c2, l2, 4) == {l2, l2 - 2 * alpha(1)}
    assert orbit(ctx, lam, 0) == {lam}
    with pytest.raises(ValueError):
        orbit(ctx, -2 * lam, 3)


def test_reduced_word_search():
    ctx, lam = ctx1()
    assert reduced_word_search(ctx, lam, lam - 2 * alpha(1), 4) == (1,)
    assert reduced_word_search(ctx, lam, lam - 6 * alpha(1), 4) == (1, 1)
    c2, l2 = ctx2()
    assert reduced_word_search(c2, l2, l2, 4) == ()
    assert reduced_word_search(ctx, lam, lam - alpha(1), 4) is None
    assert minimal_words(ctx, lam, lam - 6 * alpha(1), 4) == [(1, 1)]
    # r_2 r_3 lam = r_3 r_2 lam; the lexicographically smaller word wins
    ti, lt = fixture_context(TWO_IMAGINARY)
    mu = apply_word(ti, (2, 3), lt)
    assert sorted(minimal_words(ti, lt, mu, 4)) == [(2, 3), (3, 2)]
    assert reduced_word_search(ti, lt, mu, 4) == (2, 3)
    # the smallest minimal word, cross-checked by brute force on every fixture
    for fx in FIXTURES + (TWO_IMAGINARY,):
        c, lam = fixture_context(fx)
        for mu in orbit(c, lam, 5):
            words = minimal_words(c, lam, mu, 4)
            expected = min(words) if words else None
            assert reduced_word_search(c, lam, mu, 4) == expected, (fx[0], mu)


def test_positive_wpi_roots():
    c2, _ = ctx2()
    assert [r.root for r in positive_wpi_roots(c2, 3)] == [alpha(1)]
    c1, _ = ctx1()
    assert [r.root for r in positive_wpi_roots(c1, 3)] == [alpha(1)]
    c3, _ = ctx3()
    roots = positive_wpi_roots(c3, 2)
    assert [r.root for r in roots] == [alpha(1), alpha(2), alpha(1) + alpha(2)]
    by_root = {r.root.sort_key(): r for r in roots}
    tall = by_root[(alpha(1) + alpha(2)).sort_key()]
    # transported coroot of r_1(alpha_2): r_1(alpha_2^vee) pairs as computed by hand
    assert tall.coroot_pairings == (F(1), F(-3))
    assert tall.imaginary
    assert tall.origin_word == (1,) and tall.origin_index == 2


def test_dist_examples():
    ctx, lam = ctx1()
    assert dist(ctx, lam - 2 * alpha(1), lam) == 1
    assert dist(ctx, lam - 6 * alpha(1), lam) == 2
    assert dist(ctx, lam - alpha(1), lam) is None
    c2, l2 = ctx2()
    assert dist(c2, l2 - 2 * alpha(1), l2) == 1


def test_find_a_chain_examples():
    ctx, lam = ctx1()
    chain = find_a_chain(ctx, F(1, 2), lam - 2 * alpha(1), lam)
    assert chain is not None and len(chain) == 1
    assert chain.weights == (lam - 2 * alpha(1), lam)
    assert chain.roots[0].root == alpha(1)
    assert find_a_chain(ctx, F(1, 3), lam - 2 * alpha(1), lam) is None
    # a = 1 makes the real integrality automatic
    c2, l2 = ctx2()
    chain2 = find_a_chain(c2, F(1), l2 - 2 * alpha(1), l2)
    assert chain2 is not None and len(chain2) == 1
    with pytest.raises(ValueError):
        find_a_chain(ctx, F(0), lam, lam)


def test_chain_invariants():
    c3, l3 = ctx3()
    mu = l3 - 2 * alpha(1) - alpha(2)
    chain = find_a_chain(c3, F(1), mu, l3)
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
            chains = [find_a_chain(ctx, a, mu, nu) for a in (F(1), F(1, 2)) for mu, nu in pairs]
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
        assert dist(ci, li - 6 * alpha(1), li) == 2
        assert dist(cr, lr - 6 * alpha(1), lr) is None
        assert find_a_chain(ci, F(1, 2), li - 2 * alpha(1), li).roots[0].imaginary
        assert not find_a_chain(cr, F(1, 2), lr - 2 * alpha(1), lr).roots[0].imaginary
    (c3, _), (c4, _) = ctx3(), context_with_base([[-1, -1], [-1, -2]], [1, 1])
    for _ in range(2):
        assert [r.root for r in positive_wpi_roots(c3, 2)] == [alpha(1), alpha(2),
                                                              alpha(1) + alpha(2)]
        assert [r.root for r in positive_wpi_roots(c4, 2)] == [alpha(1), alpha(2)]


def test_orbit_properties_suite():
    for entries, pairings in ([[-1]], [2]), ([[2, -1], [-1, -2]], [1, 1]):
        ctx, lam = context_with_base(entries, pairings)
        assert check_orbit_properties(ctx, lam, depth=4) == []


def test_dist_lemmas_suite():
    for entries, pairings in ([[-1]], [2]), ([[2, -1], [-1, -2]], [1, 1]):
        ctx, lam = context_with_base(entries, pairings)
        assert check_dist_lemmas(ctx, lam, depth=6) == []
