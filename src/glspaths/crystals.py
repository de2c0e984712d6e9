"""Abstract crystal elements: tensor products, elementary crystals, B_J(infinity).

Every crystal element answers the same five methods: ``wt(ctx)``,
``epsilon(ctx, i)``, ``f(ctx, i)``, ``e(ctx, i)`` (None where the operator
vanishes, ValueError for i outside 1..n) and ``key()``, a canonical sort key
tagged by kind.  GLS paths (``gls.GLSPath``), ambient paths
(``paths.PiecewisePath``), tensor pairs, elementary elements b_i(-n) and words
in B_J(infinity) implement them; phi is always epsilon + pairing(i, wt), with
-infinity saturating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Dict, List, Optional, Sequence, Tuple

from .gls import CrystalGraph, build_crystal_graph
# apply_e is not called here; perfbench/test_perfbench.py checks that crystals binds it
from .paths import apply_e
from .rootdata import InvariantViolation, Weight, WeightContext


@total_ordering
class NegInfinity:
    """Sentinel below every number; addition and subtraction saturate."""

    def __lt__(self, other):
        return other is not self

    def __add__(self, other):
        return self

    __radd__ = __add__
    __sub__ = __add__

    def __repr__(self):
        return "-inf"


NEG_INF = NegInfinity()


class DepthMismatch(ValueError):
    pass


@dataclass(frozen=True)
class TensorElement:
    left: object
    right: object

    def wt(self, ctx: WeightContext) -> Weight:
        return self.left.wt(ctx) + self.right.wt(ctx)

    def epsilon(self, ctx: WeightContext, i: int):
        return max(self.left.epsilon(ctx, i),
                   self.right.epsilon(ctx, i) - ctx.pairing(i, self.left.wt(ctx)))

    def key(self):
        return ("tensor", self.left.key(), self.right.key())

    def f(self, ctx: WeightContext, i: int) -> Optional[TensorElement]:
        """Lowering on a tensor pair: the left factor acts iff phi(left) > eps(right)."""
        if element_phi(ctx, i, self.left) > self.right.epsilon(ctx, i):
            down = self.left.f(ctx, i)
            return None if down is None else TensorElement(down, self.right)
        down = self.right.f(ctx, i)
        return None if down is None else TensorElement(self.left, down)

    def e(self, ctx: WeightContext, i: int) -> Optional[TensorElement]:
        """Raising on a tensor pair.

        Real indices compare phi(left) against eps(right).  Imaginary indices
        additionally have a kill zone eps(right) < phi(left) <= eps(right) - a_ii
        in which the product is annihilated; inside category B this is
        consistent with raising the left factor, which is checked.
        """
        phi1 = element_phi(ctx, i, self.left)
        eps2 = self.right.epsilon(ctx, i)
        if ctx.matrix.is_real(i):
            acts_left = phi1 >= eps2
        else:
            acts_left = phi1 > eps2 - ctx.matrix.entry(i, i)
            if not acts_left and eps2 < phi1:  # the kill zone
                if (_in_category_B(ctx, i, self.left) and _in_category_B(ctx, i, self.right)
                        and self.left.e(ctx, i) is not None):
                    raise InvariantViolation(
                        "kill zone disagrees with the simplified category-B rule")
                return None
        if acts_left:
            up = self.left.e(ctx, i)
            return None if up is None else TensorElement(up, self.right)
        up = self.right.e(ctx, i)
        return None if up is None else TensorElement(self.left, up)


def _in_category_B(ctx: WeightContext, i: int, el) -> bool:
    return el.epsilon(ctx, i) == 0 and ctx.pairing(i, el.wt(ctx)) >= 0


@dataclass(frozen=True)
class ElementaryElement:
    """b_index(-n) in the elementary crystal; n >= 0."""

    index: int
    n: int

    def __post_init__(self):
        if self.index < 1 or self.n < 0:
            raise ValueError(f"elementary element needs index >= 1 and n >= 0, got "
                             f"index {self.index}, n {self.n}")

    def wt(self, ctx: WeightContext) -> Weight:
        return -self.n * ctx.alpha(self.index)

    def _acts(self, ctx: WeightContext, i: int) -> bool:
        """Whether i is the element's index; ValueError for an index outside 1..n."""
        if not 1 <= i <= ctx.matrix.n:
            raise ValueError(f"index {i} out of range")
        return i == self.index

    def epsilon(self, ctx: WeightContext, i: int):
        if not self._acts(ctx, i):
            return NEG_INF
        return self.n if ctx.matrix.is_real(i) else 0

    def key(self):
        return ("elementary", self.index, self.n)

    def f(self, ctx: WeightContext, i: int) -> Optional[ElementaryElement]:
        if not self._acts(ctx, i):
            return None
        return ElementaryElement(i, self.n + 1)

    def e(self, ctx: WeightContext, i: int) -> Optional[ElementaryElement]:
        if not self._acts(ctx, i) or self.n == 0:
            return None
        return ElementaryElement(i, self.n - 1)


@dataclass(frozen=True)
class GeneratorSequence:
    """Eventually periodic index sequence with no immediate repeats in which
    every index recurs infinitely often (the period must cover all of I)."""

    n: int
    preperiod: Tuple[int, ...]
    period: Tuple[int, ...]

    def __post_init__(self):
        full = self.preperiod + self.period
        if not self.period:
            raise ValueError("period must be nonempty")
        if any(not 1 <= i <= self.n for i in full):
            raise ValueError("sequence indices out of range")
        if set(self.period) != set(range(1, self.n + 1)):
            raise ValueError("every index must recur: period must cover all indices")
        doubled = self.preperiod + self.period + self.period
        if any(doubled[k] == doubled[k + 1] for k in range(len(doubled) - 1)):
            raise ValueError("adjacent indices must differ")

    def prefix(self, k: int) -> Tuple[int, ...]:
        """The indices of places 1..k."""
        return (self.preperiod + self.period * (k // len(self.period) + 1))[:k]


@dataclass(frozen=True)
class BJWord:
    """Element of B_J(infinity): multiplicities m_k over the sequence J,
    trailing zeros trimmed (m_k counts b_{i_k}(-m_k) at place k)."""

    seq: GeneratorSequence
    ms: Tuple[int, ...]

    def __post_init__(self):
        if self.ms and self.ms[-1] == 0:
            raise ValueError("multiplicities must be trimmed")
        if any(m < 0 for m in self.ms):
            raise ValueError("multiplicities are nonnegative")

    def wt(self, ctx: WeightContext) -> Weight:
        """Summed as one integer root vector."""
        vec = [0] * self.seq.n
        for j, m in zip(self.seq.prefix(len(self.ms)), self.ms):
            vec[j - 1] -= m
        return ctx.weight(roots=dict(enumerate(vec, start=1)))

    def epsilon(self, ctx: WeightContext, i: int):
        return 0 if ctx.matrix.is_imaginary(i) else _bj_maximum(ctx, self, i)[0]

    def key(self):
        return ("bj", self.ms)

    def f(self, ctx: WeightContext, i: int) -> Optional[BJWord]:
        return bj_apply(ctx, self, "f", i)

    def e(self, ctx: WeightContext, i: int) -> Optional[BJWord]:
        return bj_apply(ctx, self, "e", i)


def bj_word(seq: GeneratorSequence, ms: Sequence[int]) -> BJWord:
    ms = list(ms)
    while ms and ms[-1] == 0:
        ms.pop()
    return BJWord(seq, tuple(ms))


# -- B_J(infinity) -----------------------------------------------------------


def _bj_maximum(ctx: WeightContext, word: BJWord, i: int) -> Tuple[int, int, int]:
    """(R_i, first, last): the Kashiwara maximum of the values
    r_i^k = eps_i(b_{i_k}(-m_k)) + sum_{j>k} m_j a_{i, i_j} over the places k
    of index i, and the smallest and the largest place attaining it.

    Beyond the support every r_i^k is 0, so the first i-place past it closes
    the range; every period holds i, so it lies within one period of
    max(support, preperiod).  One right-to-left sweep keeps the suffix sum."""
    if not 1 <= i <= ctx.matrix.n:
        raise ValueError(f"index {i} out of range")
    seq, ms = word.seq, word.ms
    places = seq.prefix(max(len(ms), len(seq.preperiod)) + len(seq.period))
    best = 0
    first = last = places.index(i, len(ms)) + 1
    real, row, suffix = ctx.matrix.is_real(i), ctx.matrix.entries[i - 1], 0
    for k in range(len(ms), 0, -1):
        j, m = places[k - 1], ms[k - 1]
        if j == i:
            r = suffix + m if real else suffix
            if r > best:
                best, first, last = r, k, k
            elif r == best:
                first = k
        suffix += m * row[j - 1]
    if not real and best != 0:
        raise InvariantViolation("imaginary Kashiwara maximum must vanish")
    return best, first, last


def bj_apply(ctx: WeightContext, word: BJWord, direction: str, i: int) -> Optional[BJWord]:
    """Apply f_i or e_i to a word in B_J(infinity).

    f_i enters at the smallest place attaining the Kashiwara maximum R_i;
    e_i at the largest such place for a real index (absent when R_i = 0,
    as the value 0 past the support is then the largest) and at the
    smallest for an imaginary one (absent when that place is empty)."""
    _, first, last = _bj_maximum(ctx, word, i)
    ms = list(word.ms)
    if direction == "f":
        ms += [0] * (first - len(ms))
        ms[first - 1] += 1
        return BJWord(word.seq, tuple(ms))
    if direction != "e":
        raise ValueError(f"direction must be 'f' or 'e', got {direction!r}")
    place = last if ctx.matrix.is_real(i) else first
    if place > len(ms) or ms[place - 1] == 0:
        return None
    ms[place - 1] -= 1
    return bj_word(word.seq, ms)


# -- closures, validators, isomorphism ---------------------------------------


def element_wt(ctx: WeightContext, el) -> Weight:
    return el.wt(ctx)


def element_epsilon(ctx: WeightContext, i: int, el):
    return el.epsilon(ctx, i)


def element_phi(ctx: WeightContext, i: int, el):
    return el.epsilon(ctx, i) + ctx.pairing(i, el.wt(ctx))


def element_key(el):
    return el.key()


def element_f(ctx: WeightContext, i: int, el):
    return el.f(ctx, i)


def generate_from(ctx: WeightContext, element, depth: int) -> CrystalGraph:
    """f-closure of an arbitrary crystal element, truncated by weight depth."""
    return build_crystal_graph(
        ctx, element, depth,
        f_func=element_f,
        wt_func=element_wt,
        eps_func=element_epsilon,
        key_func=element_key,
    )


def validate_axioms(graph: CrystalGraph) -> List[str]:
    """Check the crystal axioms on every node and edge of a truncated graph."""
    ctx, out = graph.ctx, []
    n = ctx.matrix.n
    incoming: Dict[Tuple[int, int], List[int]] = {}
    for (src, i), dst in graph.f_edges.items():
        incoming.setdefault((dst, i), []).append(src)
    for idx, node in enumerate(graph.nodes):
        for i in range(1, n + 1):
            eps, phi = node.eps[i - 1], node.phi[i - 1]
            expected = NEG_INF if eps is NEG_INF else eps + ctx.pairing(i, node.wt)
            if phi != expected:
                out.append(f"node {idx}: rule 1 fails for i={i}")
            if ctx.matrix.is_imaginary(i):
                if not (eps is NEG_INF or eps <= 0):
                    out.append(f"node {idx}: rule 6 fails for i={i}: eps={eps}")
                if not (phi is NEG_INF or phi >= 0):
                    out.append(f"node {idx}: rule 6 fails for i={i}: phi={phi}")
            if phi is NEG_INF and (graph.f_image(idx, i) is not None
                                   or graph.e_image(idx, i) is not None):
                out.append(f"node {idx}: rule 5 fails for i={i}")
            if len(incoming.get((idx, i), [])) > 1:
                out.append(f"node {idx}: rule 4 fails for i={i}: f_i not injective")
    for (src, i), dst in graph.f_edges.items():
        a, b = graph.nodes[src], graph.nodes[dst]
        if b.wt != a.wt - ctx.alpha(i):
            out.append(f"edge {src}->{dst}: rule 2 fails for i={i}")
        step = 1 if ctx.matrix.is_real(i) else 0
        if b.eps[i - 1] != a.eps[i - 1] + step:
            out.append(f"edge {src}->{dst}: rule 3 fails for i={i}")
        drop = 1 if ctx.matrix.is_real(i) else ctx.matrix.entry(i, i)
        if b.phi[i - 1] != a.phi[i - 1] - drop:
            out.append(f"edge {src}->{dst}: phi shift fails for i={i}")
    return out


def validate_category_B(graph: CrystalGraph) -> List[str]:
    """Imaginary indices: nonnegative weight pairing, eps = 0, and f defined
    exactly when phi > 0 (the latter only on non-frontier nodes)."""
    ctx, out = graph.ctx, []
    for idx, node in enumerate(graph.nodes):
        for i in sorted(ctx.matrix.imaginary_indices):
            if ctx.pairing(i, node.wt) < 0:
                out.append(f"node {idx}: negative imaginary pairing for i={i}")
            if node.eps[i - 1] != 0:
                out.append(f"node {idx}: eps({i}) = {node.eps[i-1]} != 0")
            if node.frontier:
                continue
            has_f = graph.f_image(idx, i) is not None
            if has_f != (node.phi[i - 1] > 0):
                out.append(f"node {idx}: f_{i} defined iff phi > 0 fails")
    return out


def validate_normality(graph: CrystalGraph) -> List[str]:
    """For real indices: eps counts the e-string exactly (strings upward are
    never truncated) and phi counts the f-string on strings that stay clear
    of the frontier."""
    out = []
    for idx, node in enumerate(graph.nodes):
        for i in sorted(graph.ctx.matrix.real_indices):
            k, cur = 0, idx
            while graph.e_image(cur, i) is not None:
                cur = graph.e_image(cur, i)
                k += 1
            if node.eps[i - 1] != k:
                out.append(f"node {idx}: eps({i}) = {node.eps[i-1]}, e-string = {k}")
            k, cur = 0, idx
            hit_frontier = graph.nodes[idx].frontier
            while graph.f_image(cur, i) is not None:
                cur = graph.f_image(cur, i)
                hit_frontier = hit_frontier or graph.nodes[cur].frontier
                k += 1
            if not hit_frontier and node.phi[i - 1] != k:
                out.append(f"node {idx}: phi({i}) = {node.phi[i-1]}, f-string = {k}")
    return out


def hw_crystal_isomorphic(g1: CrystalGraph, g2: CrystalGraph,
                          compare_phi: bool = True) -> bool:
    """Compare two f-generated graphs node by node in their BFS numbering.

    Highest-weight generation forces the morphism, and ``build_crystal_graph``
    numbers nodes by the f-edges alone, so at equal depth the only candidate
    maps node k to node k: the graphs are isomorphic iff their f-edges agree
    and so do each node's eps, phi and root offset below the highest weight.
    Weights are compared through those offsets so the two graphs may name
    their highest weights differently.  With ``compare_phi=False`` the match is an
    embedding up to weight translation (phi shifts with the anchor), which is
    what truncations of the limit crystal anchored at different dominant
    weights satisfy."""
    if g1.depth != g2.depth:
        raise DepthMismatch(f"depths differ: {g1.depth} != {g2.depth}")
    if g1.f_edges != g2.f_edges:  # equal edges imply equal node counts
        return False
    return all(a.eps == b.eps and (not compare_phi or a.phi == b.phi)
               and g1.offset_of(k) == g2.offset_of(k)
               for k, (a, b) in enumerate(zip(g1.nodes, g2.nodes)))
