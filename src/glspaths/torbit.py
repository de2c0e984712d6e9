"""The monoid T acting on weights: orbits, reduced words, roots and chains.

T is generated by one map r_i per index; real generators are involutions
(they generate the Weyl group W), imaginary generators have infinite
order.  Words are tuples of indices applied right-to-left.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .rootdata import (InvariantViolation, Rational, Weight, WeightContext,
                       format_weight, offset_vector, pair)

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
            off = offset_vector(lam, nu)
            if any(c < 0 for c in off) or sum(off) > depth:
                continue
            seen.add(nu)
            queue.append(nu)
    return seen


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


def element_table(ctx: WeightContext, max_len: int) -> Dict[Tuple[Weight, ...], TWord]:
    """Elements of T up to the length bound, keyed by their linear action.

    Two words denote the same element of T iff they act identically on the
    spanning set (declared bases and simple roots), so the key is the tuple
    of images of that set; the recorded word for each element is the
    BFS-minimal one.
    """
    n = ctx.matrix.n
    start = tuple([ctx.base(name) for name in ctx.base_names]
                  + [ctx.alpha(i) for i in range(1, n + 1)])
    table: Dict[Tuple[Weight, ...], TWord] = {start: ()}
    layer = [((), start)]
    for _ in range(max_len):
        nxt = []
        for word, images in layer:
            for i in range(1, n + 1):
                images2 = tuple(ctx.reflect(i, w) for w in images)
                if images2 in table:
                    continue
                word2 = (i,) + word
                table[images2] = word2
                nxt.append((word2, images2))
        layer = nxt
        if not layer:
            break
    return table


@dataclass(frozen=True)
class OrbitRoot:
    """A positive root in W.Pi together with its transported coroot.

    The coroot is a functional, kept as its values on the context's basis
    (declared bases, then simple roots; see ``rootdata.pair``).
    """

    root: Weight
    coroot: Weight
    imaginary: bool

    def coroot_pairing(self, w: Weight) -> Rational:
        return pair(self.coroot, w)

    def height(self) -> Rational:
        return self.root.root_height()

    def sort_key(self):
        return (self.height(), self.root.sort_key())


def positive_wpi_roots(ctx: WeightContext, height_bound: int) -> Tuple[OrbitRoot, ...]:
    """All roots of W.Pi inside Q+ with height <= bound, coroots transported.

    BFS applies real reflections to the simple roots, discarding anything that leaves the
    positive cone.  Revisiting a root must reproduce the same coroot, on the simple roots
    and on the bases alike (well-definedness of beta^vee), checked on every build.  The
    sets are nested and kept per bound in the context's orbit table, sorted by (height,
    sort key): the BFS runs only for a bound above all bounds built, a smaller bound gets
    the height <= bound prefix of a larger tuple, and a build that cuts nothing by height
    holds every root: it is bound inf too.
    """
    cache = ctx.orbit_table.roots
    if height_bound in cache:
        return cache[height_bound]
    built = [roots for b, roots in cache.items() if b > height_bound]
    if built:
        cache[height_bound] = tuple(r for r in min(built, key=len) if r.height() <= height_bound)
        return cache[height_bound]
    n = ctx.matrix.n
    out: Dict[Weight, OrbitRoot] = {}
    queue = deque()
    complete = height_bound >= 1  # else the simple roots are cut
    for i in range(1, n + 1 if complete else 1):
        r = OrbitRoot(root=ctx.alpha(i), coroot=ctx.coroots[i],
                      imaginary=ctx.matrix.is_imaginary(i))
        out[r.root] = r
        queue.append(r)
    while queue:
        r = queue.popleft()
        for k in sorted(ctx.matrix.real_indices):
            new_root = ctx.reflect(k, r.root)
            vec = new_root.root_vector()
            if any(v < 0 for v in vec) or new_root.is_zero():
                continue
            if sum(vec) > height_bound:
                complete = False
                continue
            # r_k(beta)^vee = r_k(beta^vee) = beta^vee - beta^vee(alpha_k) alpha_k^vee
            ck = r.coroot_pairing(ctx.alpha(k))
            new = OrbitRoot(root=new_root, coroot=r.coroot - ck * ctx.coroots[k],
                            imaginary=r.imaginary)
            if new_root in out:
                if out[new_root].coroot != new.coroot:
                    raise InvariantViolation(
                        f"coroot of {format_weight(new_root)} depends on its expression")
                continue
            out[new_root] = new
            queue.append(new)
    roots = cache[height_bound] = tuple(sorted(out.values(), key=OrbitRoot.sort_key))
    if complete:
        cache[float("inf")] = roots
    return roots


def _descent_steps(roots: Sequence[OrbitRoot], x: Weight, floor: Weight):
    """Covering-candidate steps x -> r_beta(x) staying componentwise above floor."""
    gap = (x - floor).root_vector()
    for r in roots:
        c = r.coroot_pairing(x)
        if c <= 0 or any(g < c * v for g, v in zip(gap, r.root.root_vector()) if v):
            continue
        yield r, c, x - c * r.root


def _descent_roots(ctx: WeightContext, mu: Weight,
                   nu: Weight) -> Optional[Tuple[OrbitRoot, ...]]:
    """The roots a descent from nu to mu can use, those of height <= height(nu - mu);
    None unless nu - mu is a nonnegative combination of simple roots of integral height."""
    gap = (nu - mu).root_vector()
    total = sum(gap)
    if any(c < 0 for c in gap) or total.denominator != 1:
        return None
    return positive_wpi_roots(ctx, total)


def dist(ctx: WeightContext, mu: Weight, nu: Weight) -> Optional[int]:
    """Maximal length of a chain of positive-pairing reflections from nu down to mu.

    Steps subtract a positive multiple of a W.Pi root, so any usable root
    has height at most height(nu - mu); bounded memoized search is
    therefore exhaustive.  Returns None if no chain exists, 0 if mu == nu.
    Results are kept per (mu, nu) in the context's orbit table.
    """
    if mu == nu:
        return 0
    cache, key = ctx.orbit_table.dists, (mu, nu)
    if key in cache:
        return cache[key]
    roots = _descent_roots(ctx, mu, nu)
    if roots is None:
        return None
    memo: Dict[Weight, Optional[int]] = {}

    def longest(x: Weight) -> Optional[int]:
        if x == mu:
            return 0
        if x in memo:
            return memo[x]
        best = None
        for _, _, y in _descent_steps(roots, x, mu):
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


def find_a_chain(ctx: WeightContext, p: int, q: int, mu: int, nu: int) -> Optional[AChain]:
    """Search for an a-chain, a = p/q in (0, 1] (else ValueError), for the pair of weights
    with ids (mu, nu) from ``ctx.orbit_table.intern``; None if there is none.

    Depth-first over covering steps from nu down to mu.  Each candidate
    step must be a covering (dist 1) and satisfy the integrality condition
    at level a; failures are memoized per intermediate weight.  The roots
    and the covering tests come from the context's caches (see dist).
    Results, None too, are kept in the orbit table's ``chains`` per int key
    (p, q, mu, nu), p/q reduced here; only a miss makes the Fraction a and reads
    the weights.  Callers share each frozen AChain; raises are not kept."""
    if not 0 < p <= q:
        raise ValueError(f"chain level must lie in (0,1], got {p}/{q}")
    g, table = gcd(p, q), ctx.orbit_table
    chains, key = table.chains, (p // g, q // g, mu, nu)
    if (chain := chains.get(key, key)) is key:  # the key itself marks a miss
        mu, nu = table.weights[mu], table.weights[nu]
        chain = chains[key] = _search_a_chain(ctx, Fraction(p, q), mu, nu)
    return chain


def _search_a_chain(ctx: WeightContext, a: Fraction, mu: Weight, nu: Weight) -> Optional[AChain]:
    if mu == nu:
        return AChain(a, (mu,), ())
    roots = _descent_roots(ctx, mu, nu)
    if roots is None:
        return None
    dead: Set[Weight] = set()

    def search(x: Weight) -> Optional[List[Tuple[OrbitRoot, Weight]]]:
        if x == mu:
            return []
        if x in dead:
            return None
        for r, c, y in _descent_steps(roots, x, mu):
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
