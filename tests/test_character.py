"""Series arithmetic, crystal characters, and the closed character formula."""

import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glspaths import (CharacterSeries, GLSPath, GeneratorSequence, bj_word, char_of_graph,
                      compare_characters, context_with_base, divide, enumerate_crystal,
                      generate_from, multiply, orthogonal_subsets, series_text, wkb_series)
from glspaths import character, gls, rootdata
from glspaths.character import NonIntegralOffset
from glspaths.checks import FIXTURES, TWO_IMAGINARY, fixture_context
from matrices import A, B, C, D

# the base of the series built by hand: the zero weight of a rank-one context
ZERO = context_with_base([[2]], [0])[0].weight()


def series(base, n, depth, terms):
    return CharacterSeries.from_dict(base, n, depth, terms)


def test_multiply_divide_roundtrip():
    base = ZERO
    a = series(base, 2, 4, {(0, 0): 1, (1, 0): -2, (0, 2): 3})
    b = series(base, 2, 4, {(0, 0): 1, (1, 1): 5, (2, 0): -1})
    assert divide(multiply(a, b), b).terms == a.terms
    assert divide(multiply(b, a), a).terms == b.terms
    c = series(base, 2, 4, {(1, 0): 1})
    with pytest.raises(ValueError):
        divide(a, c)


@st.composite
def numerator_and_unit_denominator(draw):
    n, depths = draw(st.integers(1, 3)), draw(st.tuples(st.integers(0, 6), st.integers(0, 6)))
    exponents = st.tuples(*[st.integers(0, max(depths))] * n)
    a, b = (draw(st.dictionaries(exponents, st.integers(-5, 5), max_size=12)) for _ in depths)
    b[(0,) * n] = draw(st.sampled_from((1, -1)))
    return series(ZERO, n, depths[0], a), series(ZERO, n, depths[1], b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(numerator_and_unit_denominator())
def test_multiplying_the_quotient_back_gives_the_numerator(pair):
    a, b = pair
    depth = min(a.depth, b.depth)
    back = multiply(divide(a, b), b)
    assert back.depth == depth and back.base == a.base
    assert back.terms == series(a.base, a.n, depth, a.term_dict()).terms


def test_truncation_in_multiplication():
    base = ZERO
    a = series(base, 1, 2, {(1,): 1})
    b = series(base, 1, 2, {(2,): 1})
    assert multiply(a, b).terms == ()


def test_the_character_reads_only_node_weights(monkeypatch):
    # neither the character nor the comparison builds the node table: no
    # key_func and no eps_func call, and one wt_func call, for the root; the
    # other nodes are counted by their depth vectors
    ctx, lam = fixture_context(TWO_IMAGINARY)
    calls = {"key": 0, "eps": 0, "wt": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    graph = gls.build_crystal_graph(ctx, GLSPath.linear(lam), 5, gls.gls_f,
                                    counted("wt", lambda c, pi: pi.weight()),
                                    counted("eps", gls.gls_epsilon), counted("key", GLSPath.key))
    series = char_of_graph(graph)
    assert calls == {"key": 0, "eps": 0, "wt": 1}
    assert "weights" not in vars(graph)
    assert series == char_of_graph(enumerate_crystal(ctx, lam, 5))
    monkeypatch.setattr(gls, "gls_epsilon", counted("eps", gls.gls_epsilon))
    monkeypatch.setattr(GLSPath, "key", counted("key", GLSPath.key))
    assert compare_characters(enumerate_crystal(ctx, lam, 5)).equal
    assert calls["key"] == calls["eps"] == 0


def test_a_node_whose_path_disagrees_with_its_depth_vector_is_named():
    # two nodes swapped: each path now sits at the other's depth vector
    ctx, lam = fixture_context(TWO_IMAGINARY)
    graph = enumerate_crystal(ctx, lam, 4)
    k = next(k for k in range(2, len(graph)) if graph.exponents[k] != graph.exponents[1])
    graph.elements[1], graph.elements[k] = graph.elements[k], graph.elements[1]
    message = f"offset {graph.exponents[k]} from its path, depth vector {graph.exponents[1]}"
    with pytest.raises(NonIntegralOffset, match=r"node 1 .*" + re.escape(message)):
        char_of_graph(graph)


def test_a_path_of_the_wrong_weight_is_caught_on_its_discovery_edge(monkeypatch):
    # f_1 of the straight path answers with f_2 of it: the path found on the
    # edge 0 -1-> 1 has weight lambda - alpha_2, not lambda - alpha_1
    ctx, lam = fixture_context(TWO_IMAGINARY)
    real_f, root = gls.gls_f, GLSPath.linear(lam)
    monkeypatch.setattr(gls, "gls_f",
                        lambda c, i, pi: real_f(c, 2 if (i, pi) == (1, root) else i, pi))
    with pytest.raises(NonIntegralOffset,
                       match=r"node 1 .*offset \(0, 1, 0\) .*depth vector \(1, 0, 0\)"):
        compare_characters(enumerate_crystal(ctx, lam, 3))


@pytest.mark.parametrize("kind", ["fractional", "base-mismatched"])
def test_a_node_whose_offset_is_no_int_root_vector_is_named(kind):
    # node 1 replaced by a path of weight lambda - alpha_2/6, or of weight 2 lambda:
    # no packed verdict, and the exact offset names the node as well, a fractional
    # one written as the program writes exact values
    ctx, lam = fixture_context(TWO_IMAGINARY)
    graph = enumerate_crystal(ctx, lam, 3)
    graph.elements[1], message = {
        "fractional": (GLSPath(lam, (lam, lam - ctx.alpha(2) * Fraction(1, 3)),
                               (0, Fraction(1, 2), 1)),
                       r"^node 1 .*: offset \(0, 1/6, 0\) from its path, "
                       r"depth vector \(1, 0, 0\) from the graph$"),
        "base-mismatched": (GLSPath(lam, (lam * 2,), (0, 1)),
                            r"^node 1 .*: weights differ in base part: -lambda$"),
    }[kind]
    with pytest.raises(NonIntegralOffset, match=message):
        char_of_graph(graph)


def _packed_verdicts(graph, vecs):
    """(packed verdict, offset_vector(root, wt) == vec) for each node and its vector in vecs."""
    ctx, root = graph.ctx, graph.weights[0]
    top = ctx.orbit_table.intern(root)
    return [(el.offset_is(ctx, top, vec), rootdata.offset_vector(root, el.wt(ctx)) == vec)
            for el, vec in zip(graph.elements, vecs)]


# the eight fixtures at depth 6, and the 3,045 nodes of two_imaginary at depth 9
PACKED_CASES = [(fx, 6) for fx in FIXTURES + (TWO_IMAGINARY,)] + [(TWO_IMAGINARY, 9)]


def test_the_packed_verdict_is_the_offset_comparison():
    # on every node the packed test decides, and agrees with the path's offset; on
    # vectors off by alpha_i, or those of another node, it says False or nothing
    sizes = []
    for fx, depth in PACKED_CASES:
        ctx, lam = fixture_context(fx)
        graph = enumerate_crystal(ctx, lam, depth)
        vecs, n = graph.exponents, ctx.matrix.n
        assert _packed_verdicts(graph, vecs) == [(True, True)] * len(graph)
        shifted = [v[:k % n] + (v[k % n] + 1,) + v[k % n + 1:] for k, v in enumerate(vecs)]
        for wrong in (shifted, vecs[1:] + vecs[:1]):
            verdicts = _packed_verdicts(graph, wrong)
            assert all(verdict in (expected, None) for verdict, expected in verdicts)
            assert len(graph) == 1 or (False, False) in verdicts
        sizes.append(len(graph))
    assert sizes[-1] == 3045


def test_the_packed_verdict_defers_when_its_bound_fails(monkeypatch):
    # with packs 16 bits wide, or a table whose largest numerator is 2^70, the bound
    # fails on some or all nodes: there the offset decides, and the characters stay
    decided = deferred = 0
    for fx, depth in PACKED_CASES:
        ctx, lam = fixture_context(fx)
        graph = enumerate_crystal(ctx, lam, depth)
        expected = char_of_graph(graph)
        ctx.orbit_table.pack_size = 1 << 70
        assert _packed_verdicts(graph, graph.exponents) == [(None, True)] * len(graph)
        assert char_of_graph(graph) == expected
        with monkeypatch.context() as patch:
            patch.setattr(rootdata.OrbitTable, "width", 16)
            ctx, lam = fixture_context(fx)
            graph = enumerate_crystal(ctx, lam, depth)
            verdicts = _packed_verdicts(graph, graph.exponents)
            assert char_of_graph(graph) == expected
        assert all(verdict in (True, None) and offset for verdict, offset in verdicts)
        decided += verdicts.count((True, True))
        deferred += verdicts.count((None, True))
    assert decided > 100 and deferred > 1000


def test_the_packed_verdict_defers_on_a_large_denominator_or_a_fractional_weight():
    ctx, lam = fixture_context(TWO_IMAGINARY)
    graph = enumerate_crystal(ctx, lam, 4)
    top = ctx.orbit_table.intern(lam)
    el = next(el for el in graph.elements if len(el.weights) > 1)
    vec = graph.exponents[graph.index[el]]
    assert el.offset_is(ctx, top, vec) is True
    tiny = Fraction(1, 1 << 70)  # D = 2^70 at least: the bound fails
    near = GLSPath(lam, el.weights, (0, el.breaks[1] + tiny, *el.breaks[2:]))
    third = GLSPath(lam, (lam, lam - ctx.alpha(2) * Fraction(1, 3)), (0, Fraction(1, 2), 1))
    for path in (near, third):
        assert path.offset_is(ctx, top, vec) is None
        assert any(type(c) is Fraction for c in rootdata.offset_vector(lam, path.wt(ctx)))


def test_the_character_builds_no_weight_per_node(monkeypatch):
    # as many Weight objects at depth 6 as at depth 5: the root's, not one a node
    ctx, lam = fixture_context(TWO_IMAGINARY)
    init, built = rootdata.Weight.__init__, []

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    sizes = []
    for depth in (5, 6):
        graph = enumerate_crystal(ctx, lam, depth)
        with monkeypatch.context() as patch:
            patch.setattr(rootdata.Weight, "__init__", counted)
            char_of_graph(graph)
        sizes.append((len(graph), len(built)))
        built.clear()
    assert sizes[0][0] < sizes[1][0] and sizes[0][1] == sizes[1][1] == 1


def test_char_of_graph_examples():
    ctx, lam = context_with_base([[-1]], [2])
    ch = char_of_graph(enumerate_crystal(ctx, lam, 3))
    assert ch.term_dict() == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    assert ch.base == lam
    c2, l2 = context_with_base([[2]], [2])
    ch2 = char_of_graph(enumerate_crystal(c2, l2, 4))
    assert ch2.term_dict() == {(0,): 1, (1,): 1, (2,): 1}
    ch0 = char_of_graph(enumerate_crystal(ctx, lam, 0))
    assert ch0.term_dict() == {(0,): 1}


def test_orthogonal_subsets():
    ctx, lam = context_with_base([[-1]], [2])
    assert orthogonal_subsets(ctx, None, 3) == [(), (1,)]
    assert orthogonal_subsets(ctx, lam, 3) == [()]
    c2, _ = context_with_base([[2]], [2])
    assert orthogonal_subsets(c2, None, 3) == [()]
    # orthogonality is a pairwise condition on distinct indices
    c3, _ = context_with_base([[2, -1, -1], [-1, -2, 0], [-1, 0, -1]], [0, 0, 0])
    fams = orthogonal_subsets(c3, None, 3)
    assert (2, 3) in fams and (2,) in fams and (3,) in fams


def test_wkb_series_examples():
    c2, l2 = context_with_base([[2]], [2])
    assert wkb_series(c2, l2, 4).term_dict() == {(0,): 1, (1,): 1, (2,): 1}
    ctx, lam = context_with_base([[-1]], [2])
    assert wkb_series(ctx, lam, 3).term_dict() == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    ctx0, lam0 = context_with_base([[-1]], [0])
    assert wkb_series(ctx0, lam0, 3).term_dict() == {(0,): 1}
    with pytest.raises(ValueError):
        wkb_series(ctx, -lam, 2)


def test_wkb_base_is_lambda():
    ctx, lam = context_with_base([[-1]], [2])
    assert wkb_series(ctx, lam, 2).base == lam


def test_compare_characters_examples():
    ctx, lam = context_with_base([[-1]], [2])
    assert compare_characters(enumerate_crystal(ctx, lam, 3)).equal
    c2, l2 = context_with_base([[2]], [2])
    assert compare_characters(enumerate_crystal(c2, l2, 4)).equal
    c3, l3 = context_with_base([[2, -1], [-1, -2]], [1, 1])
    report = compare_characters(enumerate_crystal(c3, l3, 3))
    assert report.equal and report.differences == ()
    assert report.crystal.term_dict() == report.formula.term_dict()


def test_compare_characters_names_a_moved_coefficient(monkeypatch):
    # the formula side with one coefficient moved by one: the report is not
    # equal and names that exponent alone, with both coefficients
    ctx, lam = context_with_base([[2, -1], [-1, -2]], [1, 1])
    graph = enumerate_crystal(ctx, lam, 3)
    formula = wkb_series(ctx, lam, 3)
    exponent, coefficient = formula.terms[-1]
    moved = {**formula.term_dict(), exponent: coefficient + 1}
    monkeypatch.setattr(character, "wkb_series", lambda *args: CharacterSeries.from_dict(
        formula.base, formula.n, formula.depth, moved))
    report = compare_characters(graph)
    assert not report.equal
    assert report.differences == ((exponent, coefficient, coefficient + 1),)
    assert report.crystal.term_dict()[exponent] == coefficient


def test_series_text_format():
    ctx, lam = context_with_base([[2, -1], [-1, -2]], [1, 1])
    text = series_text(char_of_graph(enumerate_crystal(ctx, lam, 1)))
    assert text.splitlines() == ["# base=lambda depth=1", "0 0 : 1",
                                 "0 1 : 1", "1 0 : 1"]


def test_series_ring_laws():
    base = ZERO
    a = series(base, 2, 3, {(0, 0): 2, (1, 0): -1})
    b = series(base, 2, 3, {(0, 0): 1, (0, 1): 4})
    c = series(base, 2, 3, {(0, 0): -1, (1, 1): 2})
    assert multiply(a, b).terms == multiply(b, a).terms
    assert multiply(multiply(a, b), c).terms == multiply(a, multiply(b, c)).terms


def test_wkb_denominator_unit_constant_term():
    from glspaths.character import _wkb_side
    for entries in ([[-1]], [[2, -1], [-1, -2]], [[2, -1], [-2, -2]]):
        ctx, _ = context_with_base(entries, [0] * len(entries))
        den = _wkb_side(ctx, ctx.rho(), None, 3)
        assert den.term_dict().get((0,) * ctx.matrix.n) == 1


def test_compare_characters_orthogonal_imaginary_pairs():
    # two imaginary indices, one orthogonal pair: the |F| = 2 terms of the
    # alternating sums must cancel exactly against the crystal
    M = [[2, -1, -1], [-1, -2, 0], [-1, 0, -1]]
    for pairings, depth in (([1, 0, 0], 4), ([0, 1, 0], 4), ([0, 0, 0], 4),
                            ([2, 0, 1], 3)):
        ctx, lam = context_with_base(M, pairings)
        report = compare_characters(enumerate_crystal(ctx, lam, depth))
        assert report.equal, (pairings, report.differences)
    purely = [[-2, 0], [0, -3]]
    for pairings in ([0, 0], [1, 2]):
        ctx, lam = context_with_base(purely, pairings)
        assert compare_characters(enumerate_crystal(ctx, lam, 4)).equal
    ctx0, lam0 = context_with_base([[0]], [0])
    assert compare_characters(enumerate_crystal(ctx0, lam0, 4)).equal


def test_character_times_denominator_is_numerator():
    # multiplication-route cross-check of the formula, independent of divide()
    from glspaths.character import _wkb_side
    from glspaths import enumerate_crystal as enum
    for entries, pairings, depth in (([[-1]], [2], 5), ([[2]], [3], 5),
                                     ([[2, -1], [-1, -2]], [1, 1], 4)):
        ctx, lam = context_with_base(entries, pairings)
        crystal = char_of_graph(enum(ctx, lam, depth))
        numerator = _wkb_side(ctx, lam + ctx.rho(), lam, depth)
        denominator = _wkb_side(ctx, ctx.rho(), None, depth)
        product = multiply(crystal, denominator)
        assert product.terms == numerator.terms
        assert product.base == numerator.base


# two_imaginary, mixed_rank2, mixed_rank2_skew, sl3, a zero-diagonal pair, an
# orthogonal imaginary pair, then four rank-3 matrices that are not
# symmetrizable (a_12 a_23 a_31 != a_21 a_32 a_13)
LIMIT_MATRICES = (
    [TWO_IMAGINARY[1], [[2, -1], [-1, -2]], [[2, -1], [-2, -2]], [[2, -1], [-1, 2]],
     [[0, -1], [-1, 0]], [[-1, 0], [0, -2]]]
    + [A, B, C, D]
)


def test_the_character_of_b_infinity_is_the_inverse_denominator():
    """ch B(infinity) = 1 / sum_{w, F} (-1)^{l(w)+|F|} e^{w(rho - s(F)) - rho},
    the lambda -> infinity limit of the character formula, on two crystals
    that share no operator: B_J(infinity) in both period orders, and the GLS
    crystal of a lambda with every pairing depth + 1, which agrees with the
    limit up to that depth.  The formula's numerator plays no part.  On the
    last four matrices, which are not symmetrizable, the B_J(infinity) side
    is an observation, not a claim of the paper.  Rank 1 has only the GLS
    side: a generator sequence cannot repeat an index at adjacent places."""
    from glspaths.character import _wkb_side
    depth = 5
    for entries in LIMIT_MATRICES + [[[-1]], [[0]], [[-2]], [[2]]]:
        n, start = len(entries), time.monotonic()
        ctx, lam = context_with_base(entries, [depth + 1] * n)
        one = CharacterSeries.from_dict(ctx.weight(), n, depth, {(0,) * n: 1})
        inverse = divide(one, _wkb_side(ctx, ctx.rho(), None, depth)).term_dict()
        assert Counter(enumerate_crystal(ctx, lam, depth).exponents) == inverse, entries
        if n > 1:
            for period in (tuple(range(1, n + 1)), tuple(range(n, 0, -1))):
                graph = generate_from(ctx, bj_word(GeneratorSequence(n, (), period), []), depth)
                assert Counter(graph.exponents) == inverse, (entries, period)
        assert time.monotonic() - start < 1.0, entries
