"""Truncated formal characters and the Weyl-Kac-Borcherds quotient.

A character series is e^{base} times an integer polynomial in the
variables x_i = e^{-alpha_i}, truncated by total degree.  The crystal
side counts node weights; the formula side expands the alternating sums
over the Weyl group and orthogonal sets of imaginary simple roots and
divides the truncations exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from operator import le, sub
from typing import Dict, List, Optional, Tuple

from .gls import CrystalGraph
from .rootdata import (InvariantViolation, NonIntegralOffset, Weight, WeightContext, add_root,
                       format_weight, offset_vector)

Exponent = Tuple[int, ...]


@dataclass(frozen=True)
class CharacterSeries:
    """e^{base} * sum_c terms[c] * prod_i x_i^{c_i}, truncated at total degree
    ``depth``; terms are kept in canonical sparse form (no zero values)."""

    base: Weight
    n: int
    depth: int
    terms: Tuple[Tuple[Exponent, int], ...]

    @staticmethod
    def from_dict(base: Weight, n: int, depth: int,
                  terms: Dict[Exponent, int]) -> "CharacterSeries":
        clean = {c: v for c, v in terms.items() if v != 0 and sum(c) <= depth}
        return CharacterSeries(base, n, depth, tuple(sorted(clean.items())))

    def term_dict(self) -> Dict[Exponent, int]:
        return dict(self.terms)

    def __len__(self):
        return len(self.terms)


def multiply(a: CharacterSeries, b: CharacterSeries) -> CharacterSeries:
    if a.n != b.n:
        raise ValueError("rank mismatch")
    depth = min(a.depth, b.depth)
    out: Dict[Exponent, int] = {}
    for ca, va in a.terms:
        for cb, vb in b.terms:
            c = tuple(x + y for x, y in zip(ca, cb))
            if sum(c) > depth:
                continue
            out[c] = out.get(c, 0) + va * vb
    return CharacterSeries.from_dict(a.base + b.base, a.n, depth, out)


def divide(num: CharacterSeries, den: CharacterSeries) -> CharacterSeries:
    """Exact division of truncations; the denominator's constant term must be
    a unit (+-1)."""
    if num.n != den.n:
        raise ValueError("rank mismatch")
    n = num.n
    depth = min(num.depth, den.depth)
    dterms = den.term_dict()
    unit = dterms.get((0,) * n, 0)
    if unit not in (1, -1):
        raise ValueError(f"denominator constant term {unit} is not a unit")
    nterms = num.term_dict()
    rest = [(d, vd) for d, vd in dterms.items() if any(d)]
    q: Dict[Exponent, int] = {}
    # lex order puts every c - d with d <= c before c
    for c in product(range(depth + 1), repeat=n):
        if sum(c) > depth:
            continue
        acc = nterms.get(c, 0)
        for d, vd in rest:
            if all(map(le, d, c)):
                acc -= vd * q.get(tuple(map(sub, c, d)), 0)
        q[c] = acc // unit
    return CharacterSeries.from_dict(num.base - den.base, n, depth, q)


def series_text(series: CharacterSeries) -> str:
    """Text format: a header naming the base and depth, then one line per
    term 'c_1 ... c_n : coefficient' in lexicographic order."""
    lines = [f"# base={format_weight(series.base)} depth={series.depth}"]
    for c, v in sorted(series.terms):
        lines.append(" ".join(str(x) for x in c) + f" : {v}")
    return "\n".join(lines) + "\n"


def char_of_graph(graph: CrystalGraph) -> CharacterSeries:
    """Multiplicity count of the depth vectors of a graph of GLS paths, relative to
    the root weight.  Each vector must equal wt(root) - wt(node), by the packed test
    or else by ``offset_vector``; NonIntegralOffset names a node where it does not."""
    ctx, root = graph.ctx, graph.wt_func(graph.ctx, graph.elements[0])
    top = ctx.orbit_table.intern(root)
    for k, (el, vec) in enumerate(zip(graph.elements, graph.exponents)):
        if el.offset_is(ctx, top, vec):
            continue
        try:
            offset = offset_vector(root, el.wt(ctx))
        except ValueError as exc:  # the base parts do not cancel
            raise NonIntegralOffset(f"node {k} {el!r}: {exc}") from None
        if offset != vec:  # exact values as 1/6, the tuple form kept: (0, 1, 0), (1,)
            offset = f"({', '.join(map(str, offset))}{',' * (len(offset) == 1)})"
            raise NonIntegralOffset(f"node {k} {el!r}: offset {offset} from its path, "
                                    f"depth vector {vec} from the graph")
    return CharacterSeries.from_dict(root, ctx.matrix.n, graph.depth, Counter(graph.exponents))


def orthogonal_subsets(ctx: WeightContext, restrict_to_lambda: Optional[Weight],
                       depth: int) -> List[Tuple[int, ...]]:
    """All orthogonal sets of imaginary simple roots of size <= depth, as
    sorted index tuples, optionally restricted to roots orthogonal to a
    dominant weight."""
    candidates = sorted(ctx.matrix.imaginary_indices)
    if restrict_to_lambda is not None:
        candidates = [i for i in candidates if ctx.pairing(i, restrict_to_lambda) == 0]
    out = []
    for size in range(0, min(depth, len(candidates)) + 1):
        for combo in combinations(candidates, size):
            if all(ctx.matrix.entry(i, j) == 0
                   for i, j in combinations(combo, 2)):
                out.append(combo)
    return out


def _signed_orbit_terms(ctx: WeightContext, start: Weight, budget: int,
                        shift: Exponent, out: Dict[Exponent, int], sign: int):
    """Accumulate (-1)^{l(w)} e^{w(start)} as offsets from start, shifted.

    The start is regular dominant on the real part, so descending BFS over
    real reflections enumerates the Weyl orbit bijectively with W and the
    reflection count mod 2 is the length parity."""
    n = ctx.matrix.n
    real = sorted(ctx.matrix.real_indices)
    seen = {start: 0}
    layer = [(start, (0,) * n, 0)]
    while layer:
        nxt = []
        for point, vec, parity in layer:
            c0 = tuple(x + y for x, y in zip(vec, shift))
            out[c0] = out.get(c0, 0) + sign * (-1) ** parity
            for j in real:
                c = ctx.pairing(j, point)
                if c <= 0:
                    continue
                if c.denominator != 1:
                    raise NonIntegralOffset(
                        f"pairing({j}, {format_weight(point)}) = {c}")
                child_vec = tuple(v + (c if k == j else 0)
                                  for k, v in enumerate(vec, start=1))
                if sum(child_vec) + sum(shift) > budget:
                    continue
                child = add_root(point, j, -c)
                if child in seen:
                    if seen[child] != (parity + 1) % 2:
                        raise InvariantViolation("parity is ill-defined")
                    continue
                seen[child] = (parity + 1) % 2
                nxt.append((child, child_vec, (parity + 1) % 2))
        layer = nxt


def _wkb_side(ctx: WeightContext, anchor: Weight, restrict: Optional[Weight],
              depth: int) -> CharacterSeries:
    """One alternating double sum, expanded as offsets from the anchor."""
    n = ctx.matrix.n
    out: Dict[Exponent, int] = {}
    for fset in orthogonal_subsets(ctx, restrict, depth):
        shift = tuple(1 if i in fset else 0 for i in range(1, n + 1))
        start = anchor - ctx.weight(roots=dict.fromkeys(fset, 1))
        sign = (-1) ** len(fset)
        _signed_orbit_terms(ctx, start, depth, shift, out, sign)
    return CharacterSeries.from_dict(anchor, n, depth, out)


def wkb_series(ctx: WeightContext, lam: Weight, depth: int) -> CharacterSeries:
    """The Weyl-Kac-Borcherds quotient as a truncated series times e^lambda.

    Numerator: sum over W and orthogonal sets orthogonal to lambda of
    (-1)^{l(w)+|F|} e^{w(lambda+rho-s(F))}, relative to e^{lambda+rho};
    denominator: the same sum with lambda = 0 relative to e^{rho}.  Both
    anchors are regular dominant on the real part, so the orbit-BFS signs
    are well defined; the quotient has constant term 1.
    """
    if not ctx.is_P_plus(lam):
        raise ValueError(f"{format_weight(lam)} is not in P+")
    rho = ctx.rho()
    numerator = _wkb_side(ctx, lam + rho, lam, depth)
    denominator = _wkb_side(ctx, rho, None, depth)
    return divide(numerator, denominator)


@dataclass(frozen=True)
class CharacterComparison:
    equal: bool
    differences: Tuple[Tuple[Exponent, int, int], ...]
    crystal: CharacterSeries
    formula: CharacterSeries


def compare_characters(graph: CrystalGraph) -> CharacterComparison:
    """The character of a GLS crystal graph against the closed formula for
    its root weight at its depth, term by term."""
    crystal = char_of_graph(graph)
    formula = wkb_series(graph.ctx, crystal.base, graph.depth)
    a, b = crystal.term_dict(), formula.term_dict()
    diffs = []
    for c in sorted(set(a) | set(b)):
        if a.get(c, 0) != b.get(c, 0):
            diffs.append((c, a.get(c, 0), b.get(c, 0)))
    return CharacterComparison(not diffs, tuple(diffs), crystal, formula)
