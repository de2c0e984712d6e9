"""Tensor rules, elementary crystals, B_J(infinity), validators, isomorphism."""

from fractions import Fraction as F
from itertools import product

import pytest

from glspaths import (NEG_INF, DepthMismatch, ElementaryElement,
                      GLSPath, GeneratorSequence, TensorElement,
                      bj_apply, bj_word, context_with_base,
                      enumerate_crystal, generate_from,
                      hw_crystal_isomorphic, validate_axioms, validate_category_B,
                      validate_normality)
from glspaths import checks
from glspaths.checks import (TWO_IMAGINARY, check_ambient_axioms,
                             check_bj_properties, check_binfty_stability,
                             check_concatenation_tensor_compat,
                             check_embedding_theorem, check_tensor_closure,
                             fixture_context)
from glspaths.crystals import (element_epsilon, element_f, element_key, element_phi,
                               element_wt)
from glspaths.gls import build_crystal_graph, gls_epsilon, gls_f


def test_neg_inf_sentinel():
    assert NEG_INF < 0 and NEG_INF < -10 ** 9
    assert not NEG_INF < NEG_INF
    assert NEG_INF + 5 is NEG_INF
    assert NEG_INF - F(1, 2) is NEG_INF
    assert 3 > NEG_INF
    assert max(NEG_INF, 3, key=lambda x: (0, 0) if x is NEG_INF else (1, x)) == 3
    # the tensor epsilon takes max without a key
    for x in (3, -10 ** 9, F(1, 2), F(-7, 3)):
        assert max(NEG_INF, x) == x and max(x, NEG_INF) == x
    assert max(NEG_INF, NEG_INF) is NEG_INF
    # the orderings total_ordering derives from __lt__
    assert NEG_INF >= NEG_INF and NEG_INF <= 0 and 0 >= NEG_INF and not NEG_INF > 0


def test_elementary_tables():
    ctx2, _ = context_with_base([[2]], [2])
    b3 = ElementaryElement(1, 3)
    assert element_epsilon(ctx2, 1, b3) == 3 and element_phi(ctx2, 1, b3) == -3
    assert element_wt(ctx2, b3) == -3 * ctx2.alpha(1)
    assert ElementaryElement(1, 0).e(ctx2, 1) is None
    assert element_f(ctx2, 1, b3) == ElementaryElement(1, 4)
    ctx1, _ = context_with_base([[-1]], [2])
    b2 = ElementaryElement(1, 2)
    assert element_phi(ctx1, 1, b2) == 2
    assert element_epsilon(ctx1, 1, b2) == 0
    ctx3, _ = context_with_base([[2, -1], [-1, -2]], [1, 1])
    assert element_epsilon(ctx3, 2, ElementaryElement(1, 1)) is NEG_INF
    assert element_phi(ctx3, 2, ElementaryElement(1, 1)) is NEG_INF


def test_tensor_weight_additivity():
    ctx, lam = context_with_base([[-1]], [1], extra_bases={"mu": [2]})
    pair = TensorElement(GLSPath.linear(lam), GLSPath.linear(ctx.base("mu")))
    assert element_wt(ctx, pair) == lam + ctx.base("mu")


def test_tensor_kill_zone():
    ctx, lam = context_with_base([[-1]], [1])
    pair = TensorElement(GLSPath.linear(lam), GLSPath.linear(lam))
    assert pair.e(ctx, 1) is None
    lowered = pair.f(ctx, 1)
    assert lowered == TensorElement(
        GLSPath(lam, (ctx.reflect(1, lam),), (F(0), F(1))), GLSPath.linear(lam))


def test_tensor_real_acts_right():
    ctx, _ = context_with_base([[2]], [0])
    pair = TensorElement(ElementaryElement(1, 0), ElementaryElement(1, 0))
    assert pair.f(ctx, 1) == TensorElement(ElementaryElement(1, 0), ElementaryElement(1, 1))


def test_generator_sequence_validation():
    GeneratorSequence(2, (), (1, 2))
    with pytest.raises(ValueError):
        GeneratorSequence(2, (), (1, 1, 2))
    with pytest.raises(ValueError):
        GeneratorSequence(2, (), (1,))
    with pytest.raises(ValueError):
        GeneratorSequence(2, (2,), (2, 1))
    seq = GeneratorSequence(2, (2,), (1, 2))
    assert seq.prefix(5) == (2, 1, 2, 1, 2)
    assert seq.prefix(1) == (2,) and seq.prefix(0) == ()


def test_bj_apply_examples():
    ctx, _ = context_with_base([[2, -1], [-1, -2]], [1, 1])
    seq = GeneratorSequence(2, (), (1, 2))
    zero = bj_word(seq, [])
    one = bj_apply(ctx, zero, "f", 1)
    assert one.ms == (1,)
    two = bj_apply(ctx, one, "f", 2)
    assert two.ms == (1, 1)
    assert bj_apply(ctx, two, "e", 2) == one
    assert bj_apply(ctx, zero, "e", 1) is None
    assert bj_apply(ctx, zero, "e", 2) is None
    # R_i of the zero word vanishes for every index, first reached at the
    # first place of index i
    from glspaths.crystals import _bj_maximum
    for i in (1, 2):
        assert _bj_maximum(ctx, zero, i) == (0, i, i)
    # interaction pushes the entry point deeper into the word
    deep = bj_apply(ctx, bj_word(seq, (0, 1, 1)), "f", 2)
    assert deep.ms != (0, 2, 1)


def test_generate_from_matches_enumerate():
    ctx, lam = context_with_base([[-1]], [2])
    left = generate_from(ctx, GLSPath.linear(lam), 3)
    right = enumerate_crystal(ctx, lam, 3)
    assert hw_crystal_isomorphic(left, right)


def test_generate_from_tensor_chain():
    ctx, lam = context_with_base([[-1]], [1], extra_bases={"mu": [1]})
    pair = TensorElement(GLSPath.linear(lam), GLSPath.linear(ctx.base("mu")))
    graph = generate_from(ctx, pair, 2)
    assert len(graph) == 3
    assert [graph.offset_of(k) for k in range(3)] == [(0,), (1,), (2,)]


def test_generate_from_bj_depth_one():
    ctx, _ = fixture_context(TWO_IMAGINARY)
    seq = GeneratorSequence(3, (), (1, 2, 3))
    graph = generate_from(ctx, bj_word(seq, []), 1)
    assert len(graph) == 1 + 3


def test_validators_pass_and_catch():
    ctx, lam = context_with_base([[-1]], [2])
    graph = enumerate_crystal(ctx, lam, 3)
    assert validate_axioms(graph) == []
    assert validate_category_B(graph) == []
    assert validate_normality(graph) == []
    # corrupt one epsilon: rule 1 and rule 3 must notice
    graph.nodes[1].eps = (graph.nodes[1].eps[0] + 1,)
    report = validate_axioms(graph)
    assert any("rule 1" in line for line in report)
    assert any("rule 3" in line for line in report)


def _corrupt(graph, k, field, i, value):
    """Set entry i of node k's eps or phi to value."""
    node = graph.nodes[k]
    setattr(node, field, getattr(node, field)[:i - 1] + (value,) + getattr(node, field)[i:])


# (corruption of the mixed_rank2 crystal, lambda = 11, depth 4, and the
# messages it must provoke); index 1 is real and index 2 imaginary
CORRUPTIONS = [
    (lambda g, ctx: _corrupt(g, 1, "eps", 1, 2),
     ["node 1: rule 1 fails for i=1", "edge 0->1: rule 3 fails for i=1"]),
    (lambda g, ctx: setattr(g.nodes[4], "wt", g.nodes[4].wt + ctx.alpha(1)),
     ["edge 2->4: rule 2 fails for i=1"]),
    (lambda g, ctx: g.f_edges.__setitem__((3, 1), 4),
     ["node 4: rule 4 fails for i=1: f_i not injective"]),
    (lambda g, ctx: (_corrupt(g, 2, "eps", 1, NEG_INF), _corrupt(g, 2, "phi", 1, NEG_INF)),
     ["node 2: rule 5 fails for i=1"]),
    (lambda g, ctx: _corrupt(g, 5, "phi", 2, -1),
     ["node 5: rule 6 fails for i=2: phi=-1"]),
    (lambda g, ctx: _corrupt(g, 4, "phi", 1, 0),
     ["edge 2->4: phi shift fails for i=1"]),
    (lambda g, ctx: setattr(g.nodes[0], "wt", g.nodes[0].wt + 2 * ctx.alpha(1)),
     ["node 0: negative imaginary pairing for i=2"]),
    (lambda g, ctx: _corrupt(g, 3, "eps", 2, 1),
     ["node 3: rule 6 fails for i=2: eps=1", "node 3: eps(2) = 1 != 0"]),
    (lambda g, ctx: _corrupt(g, 3, "phi", 2, 0),
     ["node 3: f_2 defined iff phi > 0 fails"]),
    (lambda g, ctx: _corrupt(g, 0, "eps", 1, 3),
     ["node 0: eps(1) = 3, e-string = 0"]),
    (lambda g, ctx: _corrupt(g, 0, "phi", 1, 4),
     ["node 0: phi(1) = 4, f-string = 1"]),
]


def test_every_validator_message_fires():
    # one corrupted copy per message of validate_axioms, validate_category_B
    # and validate_normality; each message names its node or edge
    ctx, lam = context_with_base([[2, -1], [-1, -2]], [1, 1])
    clean = enumerate_crystal(ctx, lam, 4)
    assert len(clean) == 19 and (2, 1) in clean.f_edges and (3, 1) not in clean.f_edges
    assert (3, 2) in clean.f_edges and not clean.nodes[3].frontier
    assert validate_axioms(clean) + validate_category_B(clean) + validate_normality(clean) == []
    for corrupt, messages in CORRUPTIONS:
        graph = enumerate_crystal(ctx, lam, 4)
        corrupt(graph, ctx)
        report = validate_axioms(graph) + validate_category_B(graph) + validate_normality(graph)
        assert set(messages) <= set(report), (messages, report)


def test_hw_crystal_isomorphic_examples():
    ctx, lam = context_with_base([[-1]], [1], extra_bases={"mu": [1]})
    mu = ctx.base("mu")
    pair = TensorElement(GLSPath.linear(lam), GLSPath.linear(mu))
    assert hw_crystal_isomorphic(generate_from(ctx, pair, 3),
                                 enumerate_crystal(ctx, lam + mu, 3))
    c2, l2 = context_with_base([[2]], [1], extra_bases={"mu": [1]})
    assert not hw_crystal_isomorphic(enumerate_crystal(c2, l2, 2),
                                     enumerate_crystal(c2, 2 * l2, 2))
    pair2 = TensorElement(GLSPath.linear(l2), GLSPath.linear(c2.base("mu")))
    assert hw_crystal_isomorphic(generate_from(c2, pair2, 2),
                                 enumerate_crystal(c2, l2 + c2.base("mu"), 2))
    with pytest.raises(DepthMismatch):
        hw_crystal_isomorphic(enumerate_crystal(c2, l2, 2),
                              enumerate_crystal(c2, l2, 3))
    # sl3, omega_2 against omega_1: three nodes each, f_2 f_1 against f_1 f_2
    c3, w2 = context_with_base([[2, -1], [-1, 2]], [0, 1], extra_bases={"mu": [1, 0]})
    assert not hw_crystal_isomorphic(enumerate_crystal(c3, w2, 2),
                                     enumerate_crystal(c3, c3.base("mu"), 2))
    # sl2, lambda = 2 against 3 at depth 1: equal f-edges, eps and offsets, phi differs
    low, high = enumerate_crystal(c2, 2 * l2, 1), enumerate_crystal(c2, 3 * l2, 1)
    assert not hw_crystal_isomorphic(low, high)
    assert hw_crystal_isomorphic(low, high, compare_phi=False)

    # one callback of build_crystal_graph is wrong at one node; every other
    # comparison agrees, so the comparison of that datum alone says False
    def built(ctx, lam, depth, f=gls_f, wt=lambda c, el: el.weight(), eps=gls_epsilon):
        return build_crystal_graph(ctx, GLSPath.linear(lam), depth, f, wt, eps, GLSPath.key)

    # sl2 x sl2: f_1 f_2 = f_2 f_1 closes a square; drop the edge f_1 of f_2 pi
    ctx, lam = context_with_base([[2, 0], [0, 2]], [1, 1])
    square = built(ctx, lam, 2)
    f2 = square.elements[square.f_image(0, 2)]
    cut = built(ctx, lam, 2, f=lambda c, i, el: None if (el, i) == (f2, 1) else gls_f(c, i, el))
    assert len(cut) == len(square) and len(cut.f_edges) == len(square.f_edges) - 1
    ctx, lam = context_with_base([[2, -1], [-1, -2]], [1, 1])
    good = built(ctx, lam, 3)
    last = good.elements[-1]
    shifted = built(ctx, lam, 3,
                    wt=lambda c, el: el.weight() - c.alpha(1) if el == last else el.weight())
    bumped = built(ctx, lam, 3, eps=lambda c, i, el: gls_epsilon(c, i, el) + (el == last))
    for compare_phi in (True, False):
        assert hw_crystal_isomorphic(good, built(ctx, lam, 3), compare_phi=compare_phi)
        assert not hw_crystal_isomorphic(square, cut, compare_phi=compare_phi)
        assert not hw_crystal_isomorphic(good, shifted, compare_phi=compare_phi)
        assert not hw_crystal_isomorphic(good, bumped, compare_phi=compare_phi)


def test_tensor_closure_and_concatenation_suites():
    for entries, pairings in ([[-1]], [1]), ([[2, -1], [-1, -2]], [1, 1]):
        graph = enumerate_crystal(*context_with_base(entries, pairings), 3)
        assert check_tensor_closure(graph) == []
        assert check_concatenation_tensor_compat(graph) == []
        assert check_ambient_axioms(graph) == []


def test_bj_properties_suite():
    ctx, _ = fixture_context(TWO_IMAGINARY)
    seq = GeneratorSequence(3, (), (1, 2, 3))
    assert check_bj_properties(ctx, seq, depth=4) == []


def test_two_lowerings_must_commute():
    # the two imaginary indices of the fixture with a_ij = 0 commute on words
    ctx, _ = fixture_context(TWO_IMAGINARY)
    seq = GeneratorSequence(3, (), (1, 2, 3))
    zero = bj_word(seq, [])
    f2 = bj_apply(ctx, zero, "f", 2)
    f3 = bj_apply(ctx, zero, "f", 3)
    f23 = bj_apply(ctx, f2, "f", 3)
    f32 = bj_apply(ctx, f3, "f", 2)
    assert f23 == f32


def test_embedding_theorem_samples():
    ctx1, lam1 = context_with_base([[2, -1], [-1, -2]], [0, 2],
                                   extra_bases={"mu": [3, 0]})
    assert check_embedding_theorem(ctx1, 1, lam1, ctx1.base("mu")) == []
    ctx2, lam2 = context_with_base([[2, -1], [-1, -2]], [9, 0],
                                   extra_bases={"mu": [0, 3]})
    assert check_embedding_theorem(ctx2, 2, lam2, ctx2.base("mu")) == []


def reference_embedding_walk(ctx, i, lam, mu):
    """check_embedding_theorem as it was first written: every word walked
    from the start, letter by letter, and its first stop reported."""
    out, n = [], ctx.matrix.n
    for word in [w for length in range(5) for w in product(range(1, n + 1), repeat=length)]:
        cur = TensorElement(GLSPath.linear(lam), GLSPath.linear(mu))
        elem = TensorElement(GLSPath.linear(lam), ElementaryElement(i, 0))
        for j in word:
            goes_left = element_phi(ctx, j, cur.left) > cur.right.epsilon(ctx, j)
            if not goes_left and j != i:
                out.append(f"word {word}: f_{j} routed to the right factor")
                break
            if goes_left != (element_phi(ctx, j, elem.left) > elem.right.epsilon(ctx, j)):
                out.append(f"word {word}: routing differs from the elementary model")
                break
            nxt, elem = cur.f(ctx, j), elem.f(ctx, j)
            if elem is None:
                out.append(f"word {word}: elementary side died")
                break
            if nxt is None:
                if goes_left or element_phi(ctx, j, cur.right) != 0:
                    out.append(f"word {word}: f_{j} died unexpectedly")
                break
            if nxt.left != elem.left:
                out.append(f"word {word}: left factors diverge")
                break
            cur = nxt
    return out


def test_embedding_walk_reports_what_the_word_by_word_walk_reports(monkeypatch):
    # on inputs that violate the hypotheses (mu off the index i, or not
    # dominant) the prefix walk gives the reference's messages, in its order
    kinds, failing, stepped = set(), 0, []
    real_f = TensorElement.f
    monkeypatch.setattr(TensorElement, "f", lambda self, ctx, j: stepped.append(j)
                        or real_f(self, ctx, j))
    for entries in ([[2, -1], [-1, -2]], [[-1, -1], [-1, 0]]):
        for lam, mu in product(([0, 0], [0, 1], [1, 1]), ([2, 1], [0, 1], [-1, 0], [0, -2])):
            for i in (1, 2):
                ctx, l = context_with_base(entries, lam, extra_bases={"mu": mu})
                del stepped[:]
                got = check_embedding_theorem(ctx, i, l, ctx.base("mu"))
                assert len(stepped) <= 2 * 30  # each of the 30 prefixes once, on both pairs
                assert got == reference_embedding_walk(ctx, i, l, ctx.base("mu"))
                failing += bool(got)
                kinds |= {message.split(": ", 1)[1].lstrip("f_0123456789 ") for message in got}
    assert 0 < failing < 48
    assert kinds == {"routed to the right factor", "routing differs from the elementary model",
                     "died unexpectedly"}


def test_limit_crystal_stability():
    ctx, _ = context_with_base([[2, -1], [-1, -2]], [1, 1])
    assert check_binfty_stability(ctx) == []


def test_ambient_closure_matches_gls_closure():
    # BFS with the generic operators on rendered paths gives the same
    # crystal as the closed-form enumeration
    ctx, lam = context_with_base([[2, -1], [-1, -2]], [1, 1])
    ambient = generate_from(ctx, GLSPath.linear(lam).render(), 2)
    closed = enumerate_crystal(ctx, lam, 2)
    ambient_keys = {node.element for node in ambient.nodes}
    closed_keys = {node.element.render() for node in closed.nodes}
    assert ambient_keys == closed_keys
    assert hw_crystal_isomorphic(ambient, closed)


def test_isomorphism_rank_three():
    M = [[2, -1, -1], [-1, -2, 0], [-1, 0, -1]]
    ctx, lam = context_with_base(M, [1, 0, 1], extra_bases={"mu": [0, 1, 0]})
    mu = ctx.base("mu")
    pair = TensorElement(GLSPath.linear(lam), GLSPath.linear(mu))
    assert hw_crystal_isomorphic(generate_from(ctx, pair, 3),
                                 enumerate_crystal(ctx, lam + mu, 3))


def test_bj_weight_is_the_per_place_sum():
    # on every node of the binf graph of two_imaginary at depth 7, the weight
    # summed as one root vector is the sum over places of -m_k alpha_{i_k}
    ctx, _ = fixture_context(TWO_IMAGINARY)
    graph = generate_from(ctx, bj_word(GeneratorSequence(3, (), (1, 2, 3)), []), 7)
    assert len(graph) == 824
    for node in graph.nodes:
        word = node.element
        expected = ctx.weight()
        for j, m in zip(word.seq.prefix(len(word.ms)), word.ms):
            expected = expected - m * ctx.alpha(j)
        assert element_wt(ctx, word) == expected == node.wt


def test_element_key_is_injective_on_the_suite_graphs(monkeypatch):
    # the closure merges elements by equality and names nodes by key, so on
    # every graph the suite generates, distinct nodes need distinct keys
    graphs = []

    def recording(ctx, element, depth):
        graphs.append(generate_from(ctx, element, depth))
        return graphs[-1]

    monkeypatch.setattr(checks, "generate_from", recording)
    assert all(not violations for _, violations in checks.run_suite())
    kinds = {type(graph.elements[0]).__name__ for graph in graphs}
    assert {"TensorElement", "BJWord", "PiecewisePath"} <= kinds
    for graph in graphs:
        keys = [element_key(el) for el in graph.elements]
        assert len(set(keys)) == len(keys)
        assert all(graph.index[el] == k for k, el in enumerate(graph.elements))


def test_raising_undoes_every_f_edge_of_each_element_kind():
    # the validators read e-edges as reversed f-edges, so e itself is checked
    # here: on every f-edge src -i-> dst of a generated graph, e_i(dst) = src
    ctx, lam = fixture_context(TWO_IMAGINARY)
    rank2, lam2 = context_with_base([[2, -1], [-1, -2]], [3, 2])
    cases = [
        (ctx, TensorElement(GLSPath.linear(lam), GLSPath.linear(lam)), 5, 202),
        (ctx, bj_word(GeneratorSequence(3, (), (1, 2, 3)), []), 7, 1128),
        (ctx, GLSPath.linear(lam).render(), 4, 76),
        (rank2, TensorElement(GLSPath.linear(lam2), ElementaryElement(1, 0)), 4, 28),
        (rank2, TensorElement(GLSPath.linear(lam2), ElementaryElement(2, 0)), 4, 27),
    ]
    for context, root, depth, edges in cases:
        graph = generate_from(context, root, depth)
        assert len(graph.f_edges) == edges
        bad = [(src, i, dst) for (src, i), dst in graph.f_edges.items()
               if graph.nodes[dst].element.e(context, i) != graph.nodes[src].element]
        assert bad == [], (root, bad[:3])


# one element of each kind over two_imaginary (rank 3)
ELEMENT_KINDS = {
    "GLSPath": lambda lam: GLSPath.linear(lam),
    "PiecewisePath": lambda lam: GLSPath.linear(lam).render(),
    "TensorElement": lambda lam: TensorElement(GLSPath.linear(lam), GLSPath.linear(lam)),
    "ElementaryElement": lambda lam: ElementaryElement(1, 2),
    "BJWord": lambda lam: bj_word(GeneratorSequence(3, (), (1, 2, 3)), [1]),
}


@pytest.mark.parametrize("beyond", [False, True], ids=["0", "n+1"])
@pytest.mark.parametrize("kind", ELEMENT_KINDS)
def test_every_element_kind_rejects_an_index_out_of_range(kind, beyond):
    ctx, lam = fixture_context(TWO_IMAGINARY)
    el, i = ELEMENT_KINDS[kind](lam), ctx.matrix.n + 1 if beyond else 0
    for op in (el.epsilon, el.f, el.e):
        with pytest.raises(ValueError, match=f"^index {i} out of range$"):
            op(ctx, i)


@pytest.mark.parametrize("index, n", [(1, -1), (0, 0), (-2, 3)])
def test_an_elementary_element_rejects_a_negative_n_or_an_index_below_one(index, n):
    # b_i(-n) exists for i >= 1 and n >= 0 only; before, b_5(2) with n = -2 built and
    # answered epsilon = -inf
    with pytest.raises(ValueError, match=f"^elementary element needs index >= 1 and n >= 0, "
                                         f"got index {index}, n {n}$"):
        ElementaryElement(index, n)
    assert ElementaryElement(1, 0).e(fixture_context(TWO_IMAGINARY)[0], 1) is None
