"""Invariant suites shared by the test battery and the command-line runner.

Each check returns a list of violation strings (empty means pass) so the
suites can be exercised both by pytest and by the CLI without duplicating
the mathematics.  Checks are exhaustive over small truncations; the few
randomized samples draw from an explicit seeded generator.  A check on a
GLS crystal takes the graph it checks, builds none and reads its context
as ``graph.ctx``, so it cannot be handed a mismatched one: ``run_suite``
builds each fixture's crystal once and hands the same graph to every such
check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, List, Sequence, Tuple

from .character import compare_characters
from .crystals import (BJWord, ElementaryElement, GeneratorSequence,
                       TensorElement, bj_word, element_phi, generate_from,
                       hw_crystal_isomorphic, validate_axioms,
                       validate_category_B, validate_normality)
from .gls import GLSPath, enumerate_crystal, gls_e, gls_f, verify_gls
from .paths import (PiecewisePath, apply_e, apply_f, concatenate, h_profile,
                    is_integral, is_monotone)
from .rootdata import Weight, context_with_base, format_weight, offset_vector
from .torbit import (apply_word, dist, element_table, minimal_words, orbit,
                     positive_wpi_roots)

Fixture = Tuple[str, Sequence[Sequence[int]], Sequence[int]]

FIXTURES: Tuple[Fixture, ...] = (
    ("imaginary_k1_p2", [[-1]], [2]),
    ("imaginary_k1_p1", [[-1]], [1]),
    ("imaginary_k0_p1", [[0]], [1]),
    ("imaginary_k2_p2", [[-2]], [2]),
    ("sl2_p2", [[2]], [2]),
    ("mixed_rank2", [[2, -1], [-1, -2]], [1, 1]),
    ("mixed_rank2_skew", [[2, -1], [-2, -2]], [1, 1]),
)

# one real index, one orthogonal pair of imaginary indices, one non-orthogonal
TWO_IMAGINARY: Fixture = ("two_imaginary", [[2, -1, -1], [-1, -2, 0], [-1, 0, -1]],
                          [1, 1, 1])


def fixture_context(fx: Fixture):
    _, entries, pairings = fx
    return context_with_base(entries, pairings)


def _sample_weights(ctx, lam, rng) -> List[Weight]:
    n = ctx.matrix.n
    out = [lam, ctx.rho(), ctx.weight()]
    for _ in range(6):
        out.append(lam - ctx.weight(roots={i: rng.randint(0, 3) for i in range(1, n + 1)}))
    return out


def check_reflections(ctx, lam, rng) -> List[str]:
    """Involutivity of real reflections, unbounded order of imaginary ones,
    linearity of the pairing, and stability of the lattice P."""
    out = []
    sample = _sample_weights(ctx, lam, rng)
    for i in ctx.matrix.indices:
        for w in sample:
            if ctx.matrix.is_real(i):
                if ctx.reflect(i, ctx.reflect(i, w)) != w:
                    out.append(f"r_{i} not an involution on {format_weight(w)}")
            else:
                if ctx.reflect_inverse(i, ctx.reflect(i, w)) != w:
                    out.append(f"r_{i}^-1 r_{i} != id on {format_weight(w)}")
                if ctx.pairing(i, lam) > 0:
                    cur = lam
                    for _ in range(8):
                        cur = ctx.reflect(i, cur)
                        if cur == lam:
                            out.append(f"r_{i} has finite order on {format_weight(lam)}")
                            break
            if ctx.is_in_P(w) and not ctx.is_in_P(ctx.reflect(i, w)):
                out.append(f"r_{i} leaves P on {format_weight(w)}")
    for _ in range(10):
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        u, v = rng.choice(sample), rng.choice(sample)
        for i in ctx.matrix.indices:
            if ctx.pairing(i, a * u + b * v) != a * ctx.pairing(i, u) + b * ctx.pairing(i, v):
                out.append(f"pairing not linear at index {i}")
    return out


def check_coroot_signs(ctx, rng) -> List[str]:
    """Coroots of positive orbit roots (height <= 4) pair nonpositively with
    imaginary simple roots, and imaginary coroots are nonpositive on Q+."""
    out = []
    roots = positive_wpi_roots(ctx, 4)
    n = ctx.matrix.n
    for r in roots:
        for i in sorted(ctx.matrix.imaginary_indices):
            if r.coroot_pairing(ctx.alpha(i)) > 0:
                out.append(f"coroot of {format_weight(r.root)} positive on alpha_{i}")
    for _ in range(10):
        beta = ctx.weight(roots={j: rng.randint(0, 3) for j in range(1, n + 1)})
        for i in sorted(ctx.matrix.imaginary_indices):
            if ctx.pairing(i, beta) > 0:
                out.append(f"pairing({i}, {format_weight(beta)}) > 0 on Q+")
    return out


def check_orbit_properties(ctx, lam) -> List[str]:
    """Orbit containment in lam - Q+, dominance behaviour of imaginary
    reflections, the shape of reduced expressions of dominant elements, and
    the stabilizer description, for words of length at most 4."""
    out = []
    orb = orbit(ctx, lam, 4)
    for mu in orb:
        off = offset_vector(lam, mu)
        if any(c < 0 for c in off):
            out.append(f"{format_weight(mu)} escapes lam - Q+")
        for i in sorted(ctx.matrix.imaginary_indices):
            if ctx.pairing(i, mu) < 0:
                out.append(f"negative imaginary pairing on {format_weight(mu)}")
        if ctx.is_P_plus(mu):
            for i in sorted(ctx.matrix.imaginary_indices):
                if not ctx.is_P_plus(ctx.reflect(i, mu)):
                    out.append(f"r_{i} of dominant {format_weight(mu)} not dominant")
            if mu != lam:
                for word in minimal_words(ctx, lam, mu, 4):
                    if not word or not ctx.matrix.is_imaginary(word[0]):
                        out.append(f"minimal word {word} of dominant "
                                   f"{format_weight(mu)} starts with a real letter")
    for key, word in element_table(ctx, 4).items():
        if apply_word(ctx, word, lam) == lam and word:
            if any(ctx.pairing(i, lam) != 0 for i in word):
                out.append(f"stabilizing word {word} uses a non-stabilizing letter")
    return out


def check_dist_lemmas(ctx, lam) -> List[str]:
    """Monotonicity and commutation of dist under simple reflections, and
    monotonicity of imaginary pairings along the chain order, on the orbit
    to depth 6."""
    out = []
    orb = sorted(orbit(ctx, lam, 6), key=Weight.sort_key)
    pairs = []
    for mu in orb:
        for nu in orb:
            if mu == nu:
                continue
            d = dist(ctx, mu, nu)
            if d is not None:
                pairs.append((mu, nu, d))
    for mu, nu, d in pairs:
        for i in sorted(ctx.matrix.imaginary_indices):
            if ctx.pairing(i, mu) < ctx.pairing(i, nu):
                out.append("imaginary pairing not monotone along chain order")
            if ctx.pairing(i, mu) == ctx.pairing(i, nu) >= 0:
                d2 = dist(ctx, ctx.reflect(i, mu), ctx.reflect(i, nu))
                if d2 != d:
                    out.append(f"imaginary commutation changes dist: {d} -> {d2}")
        for i in sorted(ctx.matrix.real_indices):
            hm, hn = ctx.pairing(i, mu), ctx.pairing(i, nu)
            if hm < 0 and hn >= 0:
                d2 = dist(ctx, ctx.reflect(i, mu), nu)
                if d2 is None or d2 >= d:
                    out.append("dist not reduced by reflecting the lower weight")
            if hm <= 0 and hn > 0:
                d2 = dist(ctx, mu, ctx.reflect(i, nu))
                if d2 is None or d2 >= d:
                    out.append("dist not reduced by reflecting the upper weight")
            if hm * hn > 0:
                d2 = dist(ctx, ctx.reflect(i, mu), ctx.reflect(i, nu))
                if d2 != d:
                    out.append(f"real commutation changes dist: {d} -> {d2}")
    return out


def _rendered_nodes(graph) -> Tuple[List[PiecewisePath], Callable]:
    """The graph's rendered nodes, and a map taking a path, or None, to the first
    object of its value met in this call, whose memo then answers every walk."""
    paths = [node.element.render() for node in graph.nodes]
    table = {p: p for p in paths}
    return paths, lambda p: table.setdefault(p, p)


def check_operator_iteration(graph) -> List[str]:
    """Lowering iteration from every node: for an imaginary index the minimum
    level and its last attainment time are preserved and f never dies
    (checked to the eighth power); for a real index the minimum drops by one
    each step and the string length matches phi."""
    ctx, out, (paths, same) = graph.ctx, [], _rendered_nodes(graph)
    for path in paths:
        for i in ctx.matrix.indices:
            prof = h_profile(ctx, i, path)
            if ctx.matrix.is_imaginary(i):
                if prof.f_plus == 1:
                    continue
                cur, last_minus = path, prof.f_minus
                for _ in range(8):
                    cur = same(apply_f(ctx, i, cur))
                    if cur is None:
                        out.append(f"imaginary f_{i} died while iterating")
                        break
                    p2 = h_profile(ctx, i, cur)
                    if p2.m != prof.m or p2.f_plus != prof.f_plus:
                        out.append(f"imaginary f_{i} moved m or f_plus")
                        break
                    if p2.f_minus > last_minus:
                        out.append(f"imaginary f_{i} increased f_minus")
                        break
                    if (p2.f_minus == last_minus) != (ctx.matrix.entry(i, i) == 0):
                        out.append(f"f_minus equality iff a_ii = 0 fails at {i}")
                        break
                    last_minus = p2.f_minus
            else:
                phi = -prof.m + ctx.pairing(i, path.weight)
                cur, steps, m = path, 0, prof.m
                while True:
                    nxt = same(apply_f(ctx, i, cur))
                    if nxt is None:
                        break
                    steps += 1
                    m2 = h_profile(ctx, i, nxt).m
                    if m2 != m - 1:
                        out.append(f"real f_{i} did not drop m by one")
                        break
                    cur, m = nxt, m2
                    if steps > phi + 2:
                        out.append(f"real f_{i} failed to terminate")
                        break
                if steps != phi:
                    out.append(f"real f_{i} string length {steps} != phi {phi}")
    return out


def check_inversion_and_weight_shift(graph) -> List[str]:
    """On every node, f and e are mutually inverse and shift weights by alpha_i."""
    ctx, out, (paths, same) = graph.ctx, [], _rendered_nodes(graph)
    for path in paths:
        for i in ctx.matrix.indices:
            down = same(apply_f(ctx, i, path))
            if down is not None:
                if down.weight != path.weight - ctx.alpha(i):
                    out.append(f"f_{i} weight shift wrong")
                if apply_e(ctx, i, down) != path:
                    out.append(f"e_{i} f_{i} != id")
            up = same(apply_e(ctx, i, path))
            if up is not None:
                if up.weight != path.weight + ctx.alpha(i):
                    out.append(f"e_{i} weight shift wrong")
                if apply_f(ctx, i, up) != path:
                    out.append(f"f_{i} e_{i} != id")
    return out


def check_oracle_equivalence(graph) -> List[str]:
    """Closed-form operators against the generic ones on rendered paths;
    raising through the graph's reverse edges against standalone raising."""
    ctx, out = graph.ctx, []
    for idx, node in enumerate(graph.nodes):
        el: GLSPath = node.element
        path = el.render()
        for i in ctx.matrix.indices:
            closed = gls_f(ctx, i, el)
            generic = apply_f(ctx, i, path)
            if (closed is None) != (generic is None):
                out.append(f"node {idx}, f_{i}: closed/generic disagree on vanishing")
            elif closed is not None and closed.render() != generic:
                out.append(f"node {idx}, f_{i}: closed form differs from generic")
            standalone = gls_e(ctx, i, el)
            if ctx.matrix.is_real(i):
                generic_e = apply_e(ctx, i, path)
                if (standalone is None) != (generic_e is None):
                    out.append(f"node {idx}, e_{i}: closed/generic disagree")
                elif standalone is not None and standalone.render() != generic_e:
                    out.append(f"node {idx}, e_{i}: closed form differs from generic")
            parent = graph.e_image(idx, i)
            if parent is None:
                if not node.frontier and standalone is not None and standalone in graph.index:
                    out.append(f"node {idx}, e_{i}: missing reverse edge")
                if idx == 0 and standalone is not None:
                    out.append(f"root has a raising {i}")
            else:
                if standalone is None or standalone != graph.nodes[parent].element:
                    out.append(f"node {idx}, e_{i}: reverse edge != membership raising")
    return out


def check_gls_membership(graph) -> List[str]:
    """Every enumerated path verifies its chains, is integral and monotone,
    and has its weight in shape - Q+."""
    ctx, out = graph.ctx, []
    for idx, node in enumerate(graph.nodes):
        el: GLSPath = node.element
        cert = verify_gls(ctx, el)
        if not cert:
            mu, nu, a = cert.failing_pair
            out.append(f"node {idx} fails GLS verification: {format_weight(mu)} -> "
                       f"{format_weight(nu)} at level {a}")
        path = el.render()
        if not is_integral(ctx, path):
            out.append(f"node {idx} not integral")
        if not is_monotone(ctx, path):
            out.append(f"node {idx} not monotone")
        if any(c < 0 for c in offset_vector(el.shape, node.wt)):
            out.append(f"node {idx} weight escapes lam - Q+")
    return out


def check_highest_weight_unique(graph) -> List[str]:
    """The straight path is the only element killed by every raising operator."""
    ctx, out = graph.ctx, []
    for idx, node in enumerate(graph.nodes):
        killed = all(gls_e(ctx, i, node.element) is None for i in ctx.matrix.indices)
        if killed != (idx == 0):
            out.append(f"node {idx}: killed-by-all-e = {killed}")
    return out


def check_crystal_axioms(graph) -> List[str]:
    return validate_axioms(graph) + validate_category_B(graph) + validate_normality(graph)


def check_ambient_axioms(ctx, lam) -> List[str]:
    """Crystal axioms on the closure to depth 2 inside the ambient path set."""
    graph = generate_from(ctx, GLSPath.linear(lam).render(), 2)
    return validate_axioms(graph) + validate_normality(graph)


def check_concatenation_tensor_compat(ctx, lam) -> List[str]:
    """Operators on the concatenation pi_lam * pi_lam agree with the tensor
    rules applied to the ambient crystal structures of the halves, to depth 2."""
    out = []
    straight = GLSPath.linear(lam).render()
    root = TensorElement(straight, straight)
    graph = generate_from(ctx, root, 2)
    half = Fraction(1, 2)
    for idx, node in enumerate(graph.nodes):
        el = node.element
        joined = concatenate(el.left, el.right, half, ctx)
        for i in ctx.matrix.indices:
            by_rule = el.f(ctx, i)
            direct = apply_f(ctx, i, joined)
            if (by_rule is None) != (direct is None):
                out.append(f"node {idx}, f_{i}: tensor rule and operator disagree")
            elif by_rule is not None:
                expected = concatenate(by_rule.left, by_rule.right, half, ctx)
                if expected != direct:
                    out.append(f"node {idx}, f_{i}: concatenation mismatch")
            by_rule = el.e(ctx, i)
            direct = apply_e(ctx, i, joined)
            if by_rule is None and direct is not None:
                # The imaginary kill zone annihilates the pair while the
                # ambient raising survives; consistency demands the ambient
                # image then leaves the concatenation set (junction off P).
                if ctx.matrix.is_real(i) or ctx.is_in_P(direct.value_at(half)):
                    out.append(f"node {idx}, e_{i}: tensor rule and operator disagree")
            elif by_rule is not None:
                if direct is None:
                    out.append(f"node {idx}, e_{i}: tensor rule and operator disagree")
                    continue
                expected = concatenate(by_rule.left, by_rule.right, half, ctx)
                if expected != direct:
                    out.append(f"node {idx}, e_{i}: concatenation mismatch")
    return out


def check_tensor_closure(ctx, lam) -> List[str]:
    """The tensor square pi_lam (x) pi_lam, to depth 2, stays in category B
    and stays normal for real indices."""
    root = TensorElement(GLSPath.linear(lam), GLSPath.linear(lam))
    return check_crystal_axioms(generate_from(ctx, root, 2))


def check_bj_properties(ctx, seq: GeneratorSequence, depth: int) -> List[str]:
    """B_J(infinity): among the words on the first six places of total degree
    at most depth, the zero word is the unique weight-zero element, the
    f-closure satisfies the crystal axioms, and two lowering operators at
    distinct imaginary indices only collide when they commute."""
    out = []
    words = [bj_word(seq, ms) for ms in product(range(depth + 1), repeat=6) if sum(ms) <= depth]
    zero_count = sum(1 for w in words if w.wt(ctx).is_zero())
    if zero_count != 1:
        out.append(f"{zero_count} weight-zero elements in the truncation")
    graph = generate_from(ctx, bj_word(seq, []), depth)
    out += validate_axioms(graph)
    images: Dict[BJWord, List[Tuple[int, BJWord]]] = {}
    imag = sorted(ctx.matrix.imaginary_indices)
    for w in words:
        for i in imag:
            fw = w.f(ctx, i)
            images.setdefault(fw, []).append((i, w))
    for sources in images.values():
        for (i, b), (j, b2) in [(a, b) for a in sources for b in sources if a[0] < b[0]]:
            if ctx.matrix.entry(i, j) != 0:
                out.append(f"f_{i}b = f_{j}b' with a_{i}{j} != 0")
            back = b.e(ctx, j)
            if back is None or back.f(ctx, j) != b:
                out.append(f"f_{i}b = f_{j}b' but b is not an f_{j}-image")
    return out


def check_embedding_theorem(ctx, i, lam, mu) -> List[str]:
    """Lowering words (length <= 4) on pi_lam (x) pi_mu only route f_i to the
    right factor, and the routing matches the pairing with the elementary
    crystal B_i while both survive (mu is concentrated on the index i).
    Each word goes on from the state its prefix reached, so every prefix is
    stepped once; a word whose prefix stopped repeats that stop's message,
    if any, under its own name."""
    out, n = [], ctx.matrix.n
    # word -> (tensor pair, elementary pair, None while walking, else the stop message)
    reached = {(): (TensorElement(GLSPath.linear(lam), GLSPath.linear(mu)),
                    TensorElement(GLSPath.linear(lam), ElementaryElement(i, 0)), None)}
    for word in (w for length in range(1, 5) for w in product(range(1, n + 1), repeat=length)):
        cur, elem, stop = reached[word[:-1]]
        if stop is None:
            cur, elem, stop = _embedding_step(ctx, i, word[-1], cur, elem)
        reached[word] = cur, elem, stop
        if stop:
            out.append(f"word {word}: {stop}")
    return out


def _embedding_step(ctx, i, j, cur, elem):
    """f_j on both pairs of ``check_embedding_theorem``: (cur, elem, None) to
    go on, else a stop message, "" where the walk ends as it should."""
    goes_left = element_phi(ctx, j, cur.left) > cur.right.epsilon(ctx, j)
    if not goes_left and j != i:
        return cur, elem, f"f_{j} routed to the right factor"
    if goes_left != (element_phi(ctx, j, elem.left) > elem.right.epsilon(ctx, j)):
        return cur, elem, "routing differs from the elementary model"
    nxt, elem = cur.f(ctx, j), elem.f(ctx, j)
    if elem is None:
        return cur, elem, "elementary side died"
    if nxt is None:
        quiet = not goes_left and element_phi(ctx, j, cur.right) == 0
        return cur, elem, "" if quiet else f"f_{j} died unexpectedly"
    if nxt.left != elem.left:
        return cur, elem, "left factors diverge"
    return nxt, elem, None


def check_binfty_stability(ctx) -> List[str]:
    """Truncations of the limit crystal to depth 2 do not depend on the
    anchoring dominant weight once its pairings exceed the depth."""
    n, depth = ctx.matrix.n, 2
    big1 = [depth + 1] * n
    big2 = [depth + 3] * n
    ctx1, lam1 = context_with_base([list(r) for r in ctx.matrix.entries], big1)
    ctx2, lam2 = context_with_base([list(r) for r in ctx.matrix.entries], big2)
    g1 = enumerate_crystal(ctx1, lam1, depth)
    g2 = enumerate_crystal(ctx2, lam2, depth)
    if not hw_crystal_isomorphic(g1, g2, compare_phi=False):
        return ["limit-crystal truncation depends on the anchor weight"]
    return []


def check_non_strictness_witness(graph) -> List[str]:
    """Somewhere in the crystal the ambient raising operator is defined
    while the crystal-internal one vanishes (imaginary index)."""
    ctx = graph.ctx
    for node in graph.nodes:
        for i in sorted(ctx.matrix.imaginary_indices):
            ambient = apply_e(ctx, i, node.element.render())
            internal = gls_e(ctx, i, node.element)
            if ambient is not None and internal is None:
                return []
    return ["no non-strictness witness found"]


def run_suite(seed: int):
    """Yield (name, violations) pairs over the bundled fixtures."""
    rng = random.Random(seed)
    for fx in FIXTURES:
        name = fx[0]
        ctx, lam = fixture_context(fx)
        yield f"{name}: reflections", check_reflections(ctx, lam, rng)
        yield f"{name}: coroot signs", check_coroot_signs(ctx, rng)
        yield f"{name}: orbit", check_orbit_properties(ctx, lam)
        yield f"{name}: dist lemmas", check_dist_lemmas(ctx, lam)
        graph = enumerate_crystal(ctx, lam, 3)
        yield f"{name}: operator iteration", check_operator_iteration(graph)
        yield f"{name}: inversion", check_inversion_and_weight_shift(graph)
        yield f"{name}: oracle equivalence", check_oracle_equivalence(graph)
        yield f"{name}: membership", check_gls_membership(graph)
        yield f"{name}: highest weight", check_highest_weight_unique(graph)
        yield f"{name}: axioms", check_crystal_axioms(graph)
        yield f"{name}: ambient axioms", check_ambient_axioms(ctx, lam)
        yield f"{name}: tensor closure", check_tensor_closure(ctx, lam)
        yield f"{name}: concatenation", check_concatenation_tensor_compat(ctx, lam)
        yield (f"{name}: character",
               [] if compare_characters(graph).equal
               else ["character mismatch"])
    ctx, lam = fixture_context(TWO_IMAGINARY)
    seq = GeneratorSequence(3, (), (1, 2, 3))
    yield "two_imaginary: B_J properties", check_bj_properties(ctx, seq, depth=3)
    yield "two_imaginary: limit stability", check_binfty_stability(ctx)
    emb1, lam1 = context_with_base([[2, -1], [-1, -2]], [0, 2], extra_bases={"mu": [3, 0]})
    yield "embedding i=1", check_embedding_theorem(emb1, 1, lam1, emb1.base("mu"))
    emb2, lam2 = context_with_base([[2, -1], [-1, -2]], [9, 0], extra_bases={"mu": [0, 3]})
    yield "embedding i=2", check_embedding_theorem(emb2, 2, lam2, emb2.base("mu"))
    ctxw, lamw = context_with_base([[-1]], [2])
    yield "non-strictness witness", check_non_strictness_witness(
        enumerate_crystal(ctxw, lamw, 3))
