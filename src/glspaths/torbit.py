"""The monoid T acting on weights: orbits, reduced words, roots and chains.

T is generated by one map r_i per index; real generators are involutions
(they generate the Weyl group W), imaginary generators have infinite
order.  Words are tuples of indices applied right-to-left.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .rootdata import (InvariantViolation, Rational, Weight, WeightContext,
                       alpha, exact, format_weight, offset_vector, weight)

TWord = Tuple[int, ...]


def apply_word(ctx: WeightContext, word: Sequence[int], w: Weight) -> Weight:
    """Right-to-left composition of the generators named by the word."""
    for i in reversed(word):
        w = ctx.reflect(i, w)
    return w


def orbit(ctx: WeightContext, lam: Weight, depth: int) -> Set[Weight]:
    """All mu in T.lam with height(lam - mu) <= depth.

    BFS over the generators; every orbit element is reachable through
    weights of no greater depth (reduced expressions descend), so cutting
    the search at the depth bound loses nothing.
    """
    if not ctx.is_P_plus(lam):
        raise ValueError(f"orbit requires a weight in P+, got {format_weight(lam)}")
    n = ctx.matrix.n
    seen = {lam}
    queue = deque([lam])
    while queue:
        mu = queue.popleft()
        for i in range(1, n + 1):
            nu = ctx.reflect(i, mu)
            if nu in seen:
                continue
            off = offset_vector(lam, nu, n)
            if any(c < 0 for c in off) or sum(off) > depth:
                continue
            seen.add(nu)
            queue.append(nu)
    return seen


def reduced_word_search(ctx: WeightContext, lam: Weight, mu: Weight,
                        max_len: int) -> Optional[TWord]:
    """Shortest word with word.lam = mu, or None within the length bound.

    BFS guarantees minimality; among minimal words the lexicographically
    smallest is returned.
    """
    if lam == mu:
        return ()
    n = ctx.matrix.n
    seen = {lam}
    layer: List[Tuple[TWord, Weight]] = [((), lam)]
    for _ in range(max_len):
        # letters outside, layer inside: the next layer stays in lex order
        nxt: List[Tuple[TWord, Weight]] = []
        for i in range(1, n + 1):
            for word, w in layer:
                w2 = ctx.reflect(i, w)
                if w2 in seen:
                    continue
                word2 = (i,) + word
                if w2 == mu:
                    return word2
                seen.add(w2)
                nxt.append((word2, w2))
        layer = nxt
        if not layer:
            break
    return None


def minimal_words(ctx: WeightContext, lam: Weight, mu: Weight,
                  max_len: int) -> List[TWord]:
    """All words of the minimal length reaching mu from lam (brute force)."""
    if lam == mu:
        return [()]
    n = ctx.matrix.n
    layer: List[Tuple[TWord, Weight]] = [((), lam)]
    for _ in range(max_len):
        nxt = []
        hits = []
        for word, w in layer:
            for i in range(1, n + 1):
                w2 = ctx.reflect(i, w)
                word2 = (i,) + word
                if w2 == mu:
                    hits.append(word2)
                nxt.append((word2, w2))
        if hits:
            return hits
        layer = nxt
    return []


def element_table(ctx: WeightContext, max_len: int) -> Dict[tuple, TWord]:
    """Elements of T up to the length bound, keyed by their linear action.

    Two words denote the same element of T iff they act identically on the
    spanning set (declared bases and simple roots); the recorded word for
    each element is the BFS-minimal one.
    """
    n = ctx.matrix.n
    span = [ctx.base(name) for name in ctx.base_names] + [alpha(i) for i in range(1, n + 1)]

    def key_of(images):
        return tuple(w.sort_key() for w in images)

    start = tuple(span)
    table: Dict[tuple, TWord] = {key_of(start): ()}
    layer = [((), start)]
    for _ in range(max_len):
        nxt = []
        for word, images in layer:
            for i in range(1, n + 1):
                images2 = tuple(ctx.reflect(i, w) for w in images)
                k = key_of(images2)
                if k in table:
                    continue
                word2 = (i,) + word
                table[k] = word2
                nxt.append((word2, images2))
        layer = nxt
        if not layer:
            break
    return table


@dataclass(frozen=True)
class OrbitRoot:
    """A positive root in W.Pi together with its transported coroot.

    The coroot is stored as a functional: values against every simple root
    (``coroot_pairings``) and against every declared base weight
    (``base_pairings``).  ``origin`` records one way of writing the root as
    w.alpha_i with w a word over real indices.
    """

    root: Weight
    coroot_pairings: Tuple[int, ...]
    base_pairings: Tuple[Tuple[str, Rational], ...]
    origin_word: TWord
    origin_index: int
    imaginary: bool

    @cached_property
    def _base(self) -> Dict[str, Rational]:
        return dict(self.base_pairings)

    def coroot_pairing(self, w: Weight) -> Rational:
        base = self._base
        total = 0
        for name, c in w.base_items:
            total += c * base[name]
        for j, c in w.root_items:
            total += c * self.coroot_pairings[j - 1]
        return exact(total)

    def height(self) -> Rational:
        return self.root.root_height()

    def sort_key(self):
        return (self.height(), self.root.sort_key())


def positive_wpi_roots(ctx: WeightContext, height_bound: int) -> Tuple[OrbitRoot, ...]:
    """All roots of W.Pi inside Q+ with height <= bound, coroots transported.

    BFS applies real reflections to the simple roots, discarding anything
    that leaves the positive cone.  Revisiting a root must reproduce the
    same coroot (well-definedness of beta^vee), which is checked.  The
    result is kept per bound in the context's orbit table.
    """
    cache = ctx.orbit_table.roots
    if height_bound in cache:
        return cache[height_bound]
    n = ctx.matrix.n
    names = ctx.base_names
    out: Dict[tuple, OrbitRoot] = {}
    queue = deque()
    for i in range(1, n + 1):
        if height_bound < 1:
            break
        r = OrbitRoot(
            root=alpha(i),
            coroot_pairings=tuple(ctx.matrix.entry(i, j) for j in range(1, n + 1)),
            base_pairings=tuple((b, ctx.base_pairings[b][i - 1]) for b in names),
            origin_word=(),
            origin_index=i,
            imaginary=ctx.matrix.is_imaginary(i),
        )
        out[r.root.sort_key()] = r
        queue.append(r)
    while queue:
        r = queue.popleft()
        for k in sorted(ctx.matrix.real_indices):
            c = ctx.pairing(k, r.root)
            new_root = r.root - c * alpha(k)
            vec = new_root.root_vector(n)
            if any(v < 0 for v in vec) or new_root.is_zero():
                continue
            if sum(vec) > height_bound:
                continue
            ck = r.coroot_pairings[k - 1]
            new = OrbitRoot(
                root=new_root,
                coroot_pairings=tuple(v - ck * ctx.matrix.entry(k, j)
                                      for j, v in enumerate(r.coroot_pairings, start=1)),
                base_pairings=tuple((b, exact(v - ck * ctx.base_pairings[b][k - 1]))
                                    for b, v in r.base_pairings),
                origin_word=(k,) + r.origin_word,
                origin_index=r.origin_index,
                imaginary=r.imaginary,
            )
            key = new_root.sort_key()
            if key in out:
                if out[key].coroot_pairings != new.coroot_pairings:
                    raise InvariantViolation(
                        f"coroot of {format_weight(new_root)} depends on its expression")
                continue
            out[key] = new
            queue.append(new)
    roots = cache[height_bound] = tuple(sorted(out.values(), key=OrbitRoot.sort_key))
    return roots


def _descent_steps(roots: Sequence[OrbitRoot], x: Weight, floor: Weight, n: int):
    """Covering-candidate steps x -> r_beta(x) staying componentwise above floor."""
    gap = (x - floor).root_vector(n)
    for r in roots:
        c = r.coroot_pairing(x)
        if c <= 0 or any(gap[j - 1] < c * v for j, v in r.root.root_items):
            continue
        yield r, c, x - c * r.root


def dist(ctx: WeightContext, mu: Weight, nu: Weight,
         height_bound: Optional[int] = None) -> Optional[int]:
    """Maximal length of a chain of positive-pairing reflections from nu down to mu.

    Steps subtract a positive multiple of a W.Pi root, so any usable root
    has height at most height(nu - mu); bounded memoized search is
    therefore exhaustive.  Returns None if no chain exists, 0 if mu == nu.
    Results are kept per (mu, nu, bound) in the context's orbit table.
    """
    if mu == nu:
        return 0
    n = ctx.matrix.n
    gap = (nu - mu).root_vector(n)
    total = sum(gap)
    if any(c < 0 for c in gap) or total.denominator != 1:
        return None
    bound = total if height_bound is None else min(height_bound, total)
    cache, key = ctx.orbit_table.dists, (mu, nu, bound)
    if key in cache:
        return cache[key]
    roots = positive_wpi_roots(ctx, bound)
    memo: Dict[Weight, Optional[int]] = {}

    def longest(x: Weight) -> Optional[int]:
        if x == mu:
            return 0
        if x in memo:
            return memo[x]
        best = None
        for _, _, y in _descent_steps(roots, x, mu, n):
            sub = longest(y)
            if sub is not None and (best is None or sub + 1 > best):
                best = sub + 1
        memo[x] = best
        return best

    cache[key] = best = longest(nu)
    return best


@dataclass(frozen=True)
class AChain:
    """Witness that two orbit weights are joined by an admissible chain.

    ``weights`` runs nu_0 = mu, ..., nu_s = nu with nu_{t-1} = r_{beta_t}(nu_t);
    every step is a covering step (dist 1) and satisfies the level-a
    integrality: a*beta^vee(nu_t) is a positive integer for a real root and
    exactly 1 for an imaginary one.
    """

    level: Fraction
    weights: Tuple[Weight, ...]
    roots: Tuple[OrbitRoot, ...]

    def __len__(self):
        return len(self.roots)


def _step_admissible(a: Fraction, r: OrbitRoot, c: Rational) -> bool:
    v = a * c
    return v == 1 if r.imaginary else v.denominator == 1 and v >= 1


def find_a_chain(ctx: WeightContext, a: Fraction, mu: Weight, nu: Weight,
                 height_bound: Optional[int] = None) -> Optional[AChain]:
    """Search for an a-chain for the pair (mu, nu); None if there is none.

    Depth-first over covering steps from nu down to mu.  Each candidate
    step must be a covering (dist 1) and satisfy the integrality condition
    at level a; failures are memoized per intermediate weight.  The roots
    and the covering tests come from the context's caches (see dist).
    """
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError(f"chain level must lie in (0,1], got {a}")
    if mu == nu:
        return AChain(a, (mu,), ())
    n = ctx.matrix.n
    gap = (nu - mu).root_vector(n)
    total = sum(gap)
    if any(c < 0 for c in gap) or total.denominator != 1:
        return None
    bound = total if height_bound is None else min(height_bound, total)
    roots = positive_wpi_roots(ctx, bound)
    dead: Set[Weight] = set()

    def search(x: Weight) -> Optional[List[Tuple[OrbitRoot, Weight]]]:
        if x == mu:
            return []
        if x in dead:
            return None
        for r, c, y in _descent_steps(roots, x, mu, n):
            if not _step_admissible(a, r, c):
                continue
            if dist(ctx, y, x) != 1:
                continue
            tail = search(y)
            if tail is not None:
                return [(r, y)] + tail
        dead.add(x)
        return None

    steps = search(nu)
    if steps is None:
        return None
    # steps run from nu downward; weights are indexed mu = nu_0 .. nu_s = nu.
    steps.reverse()
    return AChain(a, tuple(y for _, y in steps) + (nu,), tuple(r for r, _ in steps))
