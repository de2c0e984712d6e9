"""Matrices, weights, pairings, reflections, and the matrix file format."""

import gc
import random
import weakref
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from glspaths import (AsymmetricZero, AxisViolation, MatrixError,
                      MatrixFormatError, context_with_base, format_weight,
                      parse_context_text, rootdata, validate_matrix)
from glspaths.checks import (FIXTURES, TWO_IMAGINARY, check_coroot_signs,
                             check_reflections, fixture_context)
from glspaths.gls import enumerate_crystal, gls_e
from glspaths.torbit import dist
from glspaths.rootdata import UnknownBase, WeightContext, add_root, exact, offset_vector, pair

# two declared bases with fractional pairings over a rank-3 matrix with a
# real, an imaginary and a zero diagonal entry; rho pairs as a_ii / 2
PAIRING_CONTEXT = WeightContext(validate_matrix([[2, -1, 0], [-2, -1, -3], [0, -1, 0]]),
                                {"lambda": (1, F(1, 2), 2), "mu": (0, 3, F(-2, 3))})


def test_validate_real_rank_one():
    m = validate_matrix([[2]])
    assert m.real_indices == frozenset({1})
    assert m.imaginary_indices == frozenset()


def test_validate_imaginary_rank_one():
    m = validate_matrix([[-1]])
    assert m.imaginary_indices == frozenset({1})


def test_validate_asymmetric_zero():
    with pytest.raises(AsymmetricZero) as err:
        validate_matrix([[2, -1], [0, -2]])
    assert (err.value.i, err.value.j) == (1, 2)


def test_validate_diag_zero_flag():
    assert validate_matrix([[0]]).imaginary_indices == frozenset({1})
    with pytest.raises(AxisViolation):
        validate_matrix([[0]], imaginary_diag_zero_allowed=False)


def test_validate_rejects_positive_offdiag_and_bad_diag():
    with pytest.raises(AxisViolation):
        validate_matrix([[2, 1], [1, 2]])
    with pytest.raises(AxisViolation):
        validate_matrix([[3]])
    with pytest.raises(MatrixError):
        validate_matrix([[2, -1]])


def test_pairing_examples():
    ctx, lam = context_with_base([[-1]], [2])
    assert ctx.pairing(1, lam) == 2
    assert ctx.pairing(1, lam - ctx.alpha(1)) == 3
    assert ctx.pairing(1, ctx.rho()) == F(-1, 2)
    with pytest.raises(UnknownBase):
        ctx.pairing(1, context_with_base([[-1]], [2], name="nu")[1])


def test_reflect_and_inverse():
    ctx, lam = context_with_base([[-1]], [2])
    assert ctx.reflect(1, lam) == lam - 2 * ctx.alpha(1)
    assert ctx.reflect_inverse(1, lam - 2 * ctx.alpha(1)) == lam
    ctx2, lam2 = context_with_base([[2]], [2])
    assert ctx2.reflect(1, lam2 - ctx2.alpha(1)) == lam2 - ctx2.alpha(1)  # pairing 0
    with pytest.raises(ValueError):
        ctx2.reflect_inverse(1, lam2)


def test_dominance_and_lattice():
    ctx, lam = context_with_base([[-1]], [2])
    assert ctx.is_P_plus(-ctx.alpha(1))
    ctx2, lam2 = context_with_base([[2]], [2])
    assert not ctx2.is_P_plus(lam2 - 2 * ctx2.alpha(1))
    # rho is non-integral when a_11 is odd
    assert not ctx.is_in_P(ctx.rho())
    assert ctx2.is_in_P(ctx2.rho())


def test_weight_canonical_form():
    ctx = PAIRING_CONTEXT
    w = ctx.weight(bases={"lambda": 1}, roots={1: 0, 2: F(1, 2)})
    assert w.sort_key() == ((("lambda", 1),), ((2, F(1, 2)),))
    assert w - w == ctx.weight()
    assert 2 * w == w + w
    assert format_weight(ctx.weight()) == "0"
    assert format_weight(w - ctx.alpha(2)) == "lambda-1/2*a2"
    assert type(w.sort_key()[1][0][1]) is F and type((2 * w).sort_key()[1][0][1]) is int
    # all-int coefficients, given as ints or as integral Fractions, skip the
    # lcm but give the same weight as the general route
    ints = ctx.weight(bases={"lambda": 2}, roots={1: -3, 3: F(4, 2)})
    assert ints.den == 1 and ints == 2 * w - 3 * ctx.alpha(1) - ctx.alpha(2) + 2 * ctx.alpha(3)
    assert ints.nums == (2, 0, 0, -3, 0, 2) and all(type(x) is int for x in ints.nums)
    with pytest.raises(TypeError):
        ctx.weight(roots={1: 0.5})
    with pytest.raises(TypeError):
        ctx.weight(bases={"lambda": 0.5})
    with pytest.raises(TypeError):
        0.5 * w
    with pytest.raises(TypeError):
        w * 0.5
    with pytest.raises(UnknownBase):
        ctx.weight(bases={"nu": 1})
    for i in (0, 4):
        with pytest.raises(ValueError):
            ctx.weight(roots={i: 1})
        with pytest.raises(ValueError):
            ctx.alpha(i)


def test_reflection_properties():
    rng = random.Random(7)
    for entries, pairings in ([[-1]], [2]), ([[2]], [3]), ([[2, -1], [-1, -2]], [1, 1]):
        ctx, lam = context_with_base(entries, pairings)
        assert check_reflections(ctx, lam, rng) == []
        assert check_coroot_signs(ctx, rng) == []


def test_parse_context_text():
    matrix, bases = parse_context_text("2\n2 -1\n-1 -2\nbases:\nlambda 1 1\nmu 1/2 0\n")
    assert matrix.n == 2
    assert bases["mu"] == (F(1, 2), F(0))
    ctx = WeightContext(matrix, bases)
    assert ctx.pairing(2, ctx.base("mu")) == 0


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("x\n", 1),
    ("2\n2 -1\n", 3),
    ("1\n2 2\n", 2),
    ("1\n2\nwrong:\n", 3),
    ("1\n2\nbases:\nlambda x\n", 4),
])
def test_parser_diagnostics(text, line):
    with pytest.raises(MatrixFormatError) as err:
        parse_context_text(text)
    assert err.value.line == line


def test_parser_rejects_bad_matrix():
    with pytest.raises(MatrixError):
        parse_context_text("1\n3\n")


def test_rho_is_a_reserved_base_name():
    with pytest.raises(ValueError):
        WeightContext(validate_matrix([[2]]), {"rho": [1]})


def _canonical(x):
    """An int when integral, a Fraction otherwise; never a float."""
    return type(x) is int or (type(x) is F and x.denominator != 1)


def test_exact_number_form():
    ctx, lam = fixture_context(TWO_IMAGINARY)
    graph = enumerate_crystal(ctx, lam, 5)
    rho = ctx.rho()
    weights = [node.wt for node in graph.nodes]
    for node in graph.nodes:
        assert all(_canonical(c) for _, c in sum(node.wt.sort_key(), ()))
        assert all(_canonical(x) for x in node.eps + node.phi)
    for i in ctx.matrix.indices:
        assert all(_canonical(ctx.pairing(i, w)) for w in weights + [rho])
    # rho pairs as a_ii / 2: a half-integer at the odd diagonal entry a_33
    assert [ctx.pairing(i, rho) for i in ctx.matrix.indices] == [1, -1, F(-1, 2)]
    # r_i^{-1} divides by 1 - a_ii: 3 for i = 2, 2 for i = 3
    for i in sorted(ctx.matrix.imaginary_indices):
        for w in weights + [rho]:
            up = ctx.reflect_inverse(i, w)
            assert all(_canonical(c) for _, c in sum(up.sort_key(), ()))
            assert ctx.reflect(i, up) == w
    assert ctx.reflect_inverse(2, lam) == lam + F(1, 3) * ctx.alpha(2)
    assert ctx.reflect_inverse(3, rho) == rho - F(1, 4) * ctx.alpha(3)


def test_context_is_freed_without_the_cycle_collector():
    # the orbit table does not hold its context, so dropping the last
    # reference frees the context and its caches at once
    gc.disable()
    try:
        ctx, lam = context_with_base([[2, -1], [-1, -2]], [1, 1])
        graph = enumerate_crystal(ctx, lam, 3)
        assert len(ctx.orbit_table.weights) > 1
        assert dist(ctx, ctx.reflect(1, lam), lam) == 1 and ctx.orbit_table.dists
        alive = weakref.ref(ctx)
        del ctx, graph
        assert alive() is None
    finally:
        gc.enable()


def test_orbit_table_images_are_the_reflections():
    # every image the table interned for the eight bundled fixtures at depth
    # 5 (forward images from f, inverse ones from the imaginary e) is the
    # reflection of its source weight, with the pairings of that reflection
    checked = 0
    for fx in FIXTURES + (TWO_IMAGINARY,):
        ctx, lam = fixture_context(fx)
        graph = enumerate_crystal(ctx, lam, 5)
        for node in graph.nodes:
            for i in sorted(ctx.matrix.imaginary_indices):
                gls_e(ctx, i, node.element)
        table, n = ctx.orbit_table, ctx.matrix.n
        for i in ctx.matrix.indices:
            for inverse, reflect in ((False, ctx.reflect), (True, ctx.reflect_inverse)):
                for k, image in table._images[n + i if inverse else i].items():
                    w = table.weights[image]
                    assert w == reflect(i, table.weights[k])
                    assert hash(w) == hash(reflect(i, table.weights[k]))
                    for j in ctx.matrix.indices:
                        p = table.pairings[j][image]
                        assert p == ctx.pairing(j, w) and type(p) is type(ctx.pairing(j, w))
                    checked += 1
    assert checked > 300


# item 7's non-symmetrizable matrices: a_12 = -1 but a_21 = -2 in A; B has an infinite
# Weyl group; D is all imaginary, with a zero diagonal entry
NONSYMMETRIZABLE = (("nonsym_a", [[2, -1, -1], [-2, 2, -1], [-1, -1, -2]], [1, 1, 1]),
                    ("nonsym_b", [[2, -2, -1], [-3, 2, -1], [-1, -2, -2]], [1, 1, 1]),
                    ("nonsym_c", [[2, -1, -2], [-1, -1, -1], [-1, -1, -2]], [1, 1, 1]),
                    ("nonsym_d", [[-1, -1, -2], [-2, -2, -1], [-1, -1, 0]], [1, 1, 1]))


def _checked_table(ctx, lam, depth):
    """ctx's orbit table filled from the crystal of lam (forward images from f, inverse ones
    from the imaginary e) and closed by one more r_i and r_i^{-1} of every id, after checking
    every id: its pairings are pair(coroot_j, w) in the same exact form, its pack is P(w)
    (None for a fractional w), pack_size is the largest |numerator|, and its images are the
    reflections, equal hashes included."""
    for node in enumerate_crystal(ctx, lam, depth).nodes:
        for i in sorted(ctx.matrix.imaginary_indices):
            gls_e(ctx, i, node.element)
    table, n = ctx.orbit_table, ctx.matrix.n
    for k in range(len(table.weights)):
        for i in ctx.matrix.indices:
            table.reflect(i, k)
            if ctx.matrix.is_imaginary(i):
                table.reflect(i, k, inverse=True)
    assert len(table.packs) == len(table.weights) == len(table.ids)
    for k, w in enumerate(table.weights):
        assert table.ids[w] == k
        for j in ctx.matrix.indices:
            p, q = table.pairings[j][k], pair(ctx.coroots[j], w)
            assert p == q and type(p) is type(q)
        packed = sum(x << (table.width * b) for b, x in enumerate(w.nums))
        assert table.packs[k] == (packed if w.den == 1 else None)
    assert table.pack_size == max(abs(x) for w in table.weights for x in w.nums)
    for i in ctx.matrix.indices:
        for inverse, reflect in ((False, ctx.reflect), (True, ctx.reflect_inverse)):
            for k, image in table._images[n + i if inverse else i].items():
                w = reflect(i, table.weights[k])
                assert table.weights[image] == w and hash(table.weights[image]) == hash(w)
    return table


def test_orbit_table_pairings_are_the_dot_products():
    # the orbit table's rows over the bundled fixtures and item 7's matrices A-D: images
    # with an int pairing, derived in ints, on integral and fractional weights; images
    # with a Fraction pairing and inverse ones, reflected and interned
    fractional = forward_fraction = inverse = 0
    for fx in FIXTURES + (TWO_IMAGINARY,) + NONSYMMETRIZABLE:
        ctx, lam = fixture_context(fx)
        table, n = _checked_table(ctx, lam, 6), ctx.matrix.n
        fractional += sum(w.den != 1 for w in table.weights)
        forward_fraction += sum(type(table.pairings[i][k]) is not int
                                for i in ctx.matrix.indices for k in table._images[i])
        inverse += sum(len(table._images[n + i]) for i in ctx.matrix.imaginary_indices)
    assert min(fractional, forward_fraction, inverse) > 100, (fractional, forward_fraction, inverse)


@st.composite
def small_matrices(draw):
    """(Borcherds-Cartan matrix of rank 2 or 3, dominant integral pairings of lambda)."""
    n = draw(st.integers(2, 3))
    rows = [[draw(st.sampled_from([2, 0, -1, -2])) if i == j else 0 for j in range(n)]
            for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j], rows[j][i] = draw(st.sampled_from(
                [(0, 0)] + [(-a, -b) for a in (1, 2) for b in (1, 2, 3)]))
    return rows, draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_matrices())
def test_orbit_table_rows_are_exact_on_small_matrices(case):
    rows, pairings = case
    ctx, lam = context_with_base(rows, pairings)
    _checked_table(ctx, lam, 4)


def test_the_crystal_fills_its_orbit_table_without_dot_products(monkeypatch):
    # the 3,045 nodes of two_imaginary at depth 9 reach 1,809 orbit weights, nearly all
    # of them forward images with int pairings, whose pairings are derived in ints; a
    # dot product per new weight and coroot would make 5,433 calls
    calls = []
    monkeypatch.setattr(rootdata, "pair", lambda f, w: calls.append(1) or pair(f, w))
    ctx, lam = fixture_context(TWO_IMAGINARY)
    assert len(enumerate_crystal(ctx, lam, 9)) == 3045
    assert len(ctx.orbit_table.weights) == 1809 and len(calls) < 3 * 20


COEFFICIENTS = st.one_of(st.integers(-4, 4),
                         st.fractions(min_value=-3, max_value=3, max_denominator=4))
BASES = st.dictionaries(st.sampled_from(["lambda", "mu", "rho"]), COEFFICIENTS, max_size=3)
ROOTS = st.dictionaries(st.integers(1, 3), COEFFICIENTS, max_size=3)


def _items(values):
    """The (key, c) pairs of a dict of coefficients, sorted, zeros dropped, exact."""
    return tuple(sorted((k, exact(c)) for k, c in values.items() if c))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(BASES, BASES, ROOTS, ROOTS)
def test_offset_vector_is_the_root_vector_of_the_difference(b1, b2, r1, r2):
    ctx = PAIRING_CONTEXT
    higher, same_base, lower = ctx.weight(b1, r1), ctx.weight(b1, r2), ctx.weight(b2, r2)
    expected = (higher - same_base).root_vector()
    got = offset_vector(higher, same_base)
    assert got == expected and [type(c) for c in got] == [type(c) for c in expected]
    assert got == tuple(exact(F(r1.get(i, 0)) - r2.get(i, 0)) for i in (1, 2, 3))
    assert all(_canonical(c) for c in got)
    if _items(b1) != _items(b2):
        with pytest.raises(ValueError):
            offset_vector(higher, lower)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(BASES, ROOTS, st.integers(1, 3), st.integers(-6, 6))
def test_add_root_with_an_int_coefficient_changes_one_numerator(bases, roots, i, c):
    # add_root with an int c: w + c alpha_i over the same den, still in lowest terms
    ctx = PAIRING_CONTEXT
    w = ctx.weight(bases, roots)
    assert w.den >= 1 and gcd(w.den, *w.nums) == 1
    got = add_root(w, i, c)
    assert got == w + c * ctx.alpha(i) and hash(got) == hash(w + c * ctx.alpha(i))
    assert got.den == w.den and gcd(got.den, *got.nums) == 1
    assert [k for k, (x, y) in enumerate(zip(w.nums, got.nums)) if x != y] == (
        [len(w.names) + i - 1] if c else [])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(BASES, ROOTS, BASES, ROOTS)
def test_weight_hash_agrees_across_constructions(b1, r1, b2, r2):
    ctx = PAIRING_CONTEXT
    w, x = ctx.weight(b1, r1), ctx.weight(b2, r2)
    for other in ((w - x) + x, (w + x) - x, -(-w), 1 * w,
                  ctx.weight(*map(dict, w.sort_key()))):
        assert other == w and hash(other) == hash(w)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(BASES, ROOTS)
def test_sort_key_is_the_sparse_form_of_the_input(bases, roots):
    key = PAIRING_CONTEXT.weight(bases, roots).sort_key()
    assert key == (_items(bases), _items(roots))
    assert all(_canonical(c) for _, c in key[0] + key[1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(BASES, ROOTS)
def test_column_pairing_is_the_sum_over_the_items(bases, roots):
    ctx, w = PAIRING_CONTEXT, PAIRING_CONTEXT.weight(bases, roots)
    for i in ctx.matrix.indices:
        expected = (sum(c * ctx.base_pairings[name][i - 1] for name, c in bases.items())
                    + sum(c * ctx.matrix.entry(i, j) for j, c in roots.items()))
        got = ctx.pairing(i, w)
        assert got == expected and _canonical(got)
    for i in (0, -1, 4):
        with pytest.raises(ValueError):
            ctx.pairing(i, w)


def test_weights_over_different_bases_do_not_mix():
    ctx, w = PAIRING_CONTEXT, PAIRING_CONTEXT.base("lambda")
    # other base names over rank 3, then the same names (lambda, mu, rho) over ranks 1, 2
    others = [context_with_base([[2, -1, 0], [-1, 2, 0], [0, 0, -1]], [1, 0, 0], name="nu"),
              context_with_base([[2]], [1], extra_bases={"mu": [0]}),
              context_with_base([[2, -1], [-1, 2]], [1, 0], extra_bases={"mu": [0, 1]})]
    for other, v in others:
        for operation in (lambda: w + v, lambda: v - w, lambda: ctx.pairing(1, v),
                          lambda: other.pairing(1, w), lambda: pair(ctx.coroots[1], v),
                          lambda: ctx.reflect(1, v), lambda: offset_vector(w, v)):
            with pytest.raises(UnknownBase):
                operation()
        assert v != w
