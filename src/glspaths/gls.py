"""Generalized Lakshmibai-Seshadri paths and their crystal.

A GLS path of shape lambda is a strictly decreasing sequence of T-orbit
weights with rational break points; admissibility of consecutive weights
is certified by a-chains.  The root operators act by a closed-form
surgery on the weight sequence, which the generic path operators must
reproduce on rendered paths (the oracle-equivalence property).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import eq, floordiv, lt, mul, sub
from typing import Callable, Dict, List, Optional, Tuple

# apply_e is not called here; perfbench/test_perfbench.py checks that gls binds it
from .paths import PiecewisePath, apply_e
from .rootdata import (InvariantViolation, OrbitTable, Weight, WeightContext, combination,
                       format_weight, offset_vector, partial_sums)
from .torbit import AChain, find_a_chain


class NotAGLSPath(ValueError):
    """The data breaks an invariant that every GLS path satisfies."""


_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class GLSPath:
    """Orbit-weight sequence with break points; shape is the orbit anchor.
    A path's value is (shape, weights, ``_nums``), ``_nums`` the break numerators
    over their least common denominator D (the last one).  ``_ids`` caches
    (orbit table, weight ids) of the integer form (below): paths with ids from one
    table compare them in place of the weights, and the hash reads (``_nums``, last
    weight), so operator-made paths, which build ``breaks`` and ``weights`` on first
    read, hash no weight tuple.  ``_weight`` keeps the weight, and from the first
    ``render`` on the rendered path, which ends at the weight, so every reader
    shares one path and its operator memo.  A path keeps no state per index i.
    As a crystal element, ``epsilon``, ``f`` and ``e`` run the closed forms below."""

    shape: Weight
    weights: Tuple[Weight, ...]
    breaks: Tuple[Fraction, ...] = field(compare=False)
    _nums: Tuple[int, ...] = field(default=(), init=False, repr=False)
    _ids: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)
    # one slot for both: a seventh moves every GLSPath up one allocation size class
    _weight: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.weights:
            raise ValueError("a GLS path needs at least one weight")
        if len(self.breaks) != len(self.weights) + 1:
            raise ValueError("break count must exceed weight count by one")
        if self.breaks[0] != 0 or self.breaks[-1] != 1:
            raise ValueError("breaks must run from 0 to 1")
        if any(self.breaks[k] >= self.breaks[k + 1] for k in range(len(self.breaks) - 1)):
            raise ValueError("breaks must increase strictly")
        if any(self.weights[k] == self.weights[k + 1] for k in range(len(self.weights) - 1)):
            raise ValueError("adjacent weights must differ")
        den = lcm(*(b.denominator for b in self.breaks))
        _set(self, "_nums", tuple(b.numerator * (den // b.denominator) for b in self.breaks))

    def __getattr__(self, name):  # only for breaks and weights, unset in operator-made paths
        if name == "breaks":
            den = self._nums[-1]
            _set(self, "breaks", tuple(Fraction(a, den) for a in self._nums))
        elif name == "weights":
            _set(self, "weights", tuple(map(self._ids[0].weights.__getitem__, self._ids[1])))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return getattr(self, name)

    def __eq__(self, other):
        if type(other) is not GLSPath:
            return NotImplemented
        shape = other.shape
        if self._nums != other._nums or (self.shape is not shape and self.shape != shape):
            return False
        a, b = self._ids, other._ids
        return a[1] == b[1] if a and b and a[0] is b[0] else self.weights == other.weights

    def __hash__(self):  # the last weight from the table, to build no weight tuple
        ids = self._ids
        return hash((self._nums, ids[0].weights[ids[1][-1]] if ids else self.weights[-1]))

    @staticmethod
    def linear(lam: Weight) -> "GLSPath":
        return GLSPath(lam, (lam,), (Fraction(0), Fraction(1)))

    def weight(self) -> Weight:
        """sum_k (a_k - a_{k-1}) nu_k, summed as numerators over D, divided once;
        the end of the rendered path once there is one."""
        if self._weight is None:
            nums = self._nums
            _set(self, "_weight", combination(map(sub, nums[1:], nums), self.weights, nums[-1]))
        kept = self._weight
        return kept.weight if type(kept) is PiecewisePath else kept

    def offset_is(self, ctx: WeightContext, top: int, vec) -> Optional[bool]:
        """Whether T - weight() is the root vector vec, T the weight of id ``top`` in
        ctx.orbit_table; None if undecided: see packed_offset."""
        table, ids, nums = _integer_form(ctx, self)
        return table.packed_offset(top, ids, nums, vec)

    def render(self) -> PiecewisePath:
        """pi(a_k) as running sums over D.  Adjacent weights differ and ``_nums``
        are coprime, so no break is collinear: the path needs no ``from_grid``.
        Built once, on first call."""
        if type(self._weight) is not PiecewisePath:
            nums = self._nums
            _set(self, "_weight", PiecewisePath(
                nums, partial_sums(map(sub, nums[1:], nums), self.weights, nums[-1])))
        return self._weight

    def wt(self, ctx: WeightContext) -> Weight:
        return self.weight()

    def epsilon(self, ctx: WeightContext, i: int):
        return gls_epsilon(ctx, i, self)

    def f(self, ctx: WeightContext, i: int) -> Optional[GLSPath]:
        return gls_f(ctx, i, self)

    def e(self, ctx: WeightContext, i: int) -> Optional[GLSPath]:
        return gls_e(ctx, i, self)

    def key(self):
        return (tuple(w.sort_key() for w in self.weights), self.breaks)

    def __repr__(self):
        ws = ", ".join(format_weight(w) for w in self.weights)
        bs = ", ".join(str(b) for b in self.breaks)
        return f"GLSPath(({ws}; {bs}))"


# -- the closed-form operators on integer data ------------------------------
#
# The operators see a path as (orbit table, weight ids, D, break numerators
# over D), D the least common denominator of the breaks, so h_i at the breaks
# is a numerator over D too.  Each operator is one integer surgery (Littelmann,
# Ann. Math. 142, 1995): r_i between a break at the minimal level m of h_i,
# where a piecewise-linear minimum sits, and the nearest time on one side at a
# higher level, a break or an exact crossing x / q that alone grows D.  Paths
# the operators return are built from this form; others get ids on first use.


def _integer_form(ctx: WeightContext, pi: GLSPath):
    """(orbit table, weight ids in it, _nums) of pi."""
    table = ctx.orbit_table
    if pi._ids is None or pi._ids[0] is not table:
        _set(pi, "_ids", (table, tuple(table.intern(w) for w in pi.weights)))
    return (*pi._ids, pi._nums)


def _h_profile(ctx: WeightContext, i: int, pi: GLSPath):
    """(table, ids, D, nums, hs, m): h_i(nums[k] / D) = hs[k] / D, and m is
    the minimal level of h_i, which must be an integer."""
    if not 1 <= i <= ctx.matrix.n:
        raise ValueError(f"index {i} out of range")
    table, ids, nums = _integer_form(ctx, pi)
    den = nums[-1]
    column = table.pairings[i]
    hs = [0, *accumulate(map(mul, map(sub, nums[1:], nums), map(column.__getitem__, ids)))]
    if (m := min(hs)) % den:
        raise NotAGLSPath("path is not integral; not a GLS path")
    return table, ids, den, nums, hs, m // den


def _surgery(shape: Weight, i: int, profile, rise: int, step: int,
             inverse: bool = False) -> Optional[GLSPath]:
    """r_i (r_i^{-1} if inverse) applied from the last (step = 1) or first
    (step = -1) break k at the level m to the nearest time on the side of step
    where h_i reaches m + rise, equal neighbours merged; None if k ends the
    path on that side.  If h_i stays below: NotAGLSPath, or None if inverse,
    which also kills on a drop to m + rise - 1 after the zone (imaginary e_i)."""
    table, ids, den, nums, hs, m = profile
    low, level, last = m * den, (m + rise) * den, len(hs) - 1
    k = last - hs[::-1].index(low) if step > 0 else hs.index(low)
    if k == (last if step > 0 else 0):
        return None
    j = k + step
    while 0 <= j <= last and hs[j] < level:
        j += step
    reached = 0 <= j <= last
    if inverse and (not reached or min(hs[j:]) <= level - den):
        return None
    if not reached:
        raise NotAGLSPath(f"h_{i} stays below m+1 beyond its minimum; not a GLS path")
    ids, nums = list(ids), list(nums)
    if hs[j] != level:  # h_i crosses the level at x / q inside the segment c
        a, c = j - step, min(j, j - step)
        x, q = nums[a] * (hs[j] - level) + nums[j] * (level - hs[a]), hs[j] - hs[a]
        g = gcd(x, q)
        nums = [t * (q // g) for t in nums] if q > g else nums
        nums.insert(c + 1, x // g)
        ids.insert(c, ids[c])
        k, j = k + (step < 0), c + 1
    lo, hi = (k, j) if step > 0 else (j, k)
    ids[lo:hi] = [table.reflect(i, w, inverse) for w in ids[lo:hi]]
    merged = [b for b in (hi, lo) if 0 < b < len(ids) and ids[b - 1] == ids[b]]
    for b in merged:  # right junction first, so that lo stays in place
        del ids[b], nums[b]
    # a new break x / q keeps the numerators coprime; a dropped one may not
    return _from_integer_form(shape, table, ids, nums[-1], nums, reduced=not merged)


def _from_integer_form(shape: Weight, table: OrbitTable, ids, den: int, nums,
                       reduced: bool = False) -> GLSPath:
    """The path with weights table.weights[ids] and breaks nums / den, made
    without the Fraction checks of the constructor: the same invariants are
    checked on the ints, and den is reduced to the least common denominator
    unless the caller knows the numerators to be coprime."""
    if (len(nums) != len(ids) + 1 or nums[0] != 0 or nums[-1] != den
            or not all(map(lt, nums, nums[1:])) or any(map(eq, ids, ids[1:]))):
        raise InvariantViolation(f"integer path data breaks an invariant: {ids}, {nums} / {den}")
    pi = object.__new__(GLSPath)  # breaks and weights left unset: see GLSPath.__getattr__
    _set(pi, "shape", shape)
    _set(pi, "_nums", tuple(nums) if reduced else tuple(map(floordiv, nums, repeat(gcd(*nums)))))
    _set(pi, "_ids", (table, tuple(ids)))
    _set(pi, "_weight", None)
    return pi


def gls_f(ctx: WeightContext, i: int, pi: GLSPath) -> Optional[GLSPath]:
    """Lowering operator: with f_plus = a_t the last break at the minimum m and
    a_{p-1} < f_minus <= a_p the first later time at m+1, the weights t+1..p
    are reflected by r_i and the break f_minus is inserted (t may be 0)."""
    return _surgery(pi.shape, i, _h_profile(ctx, i, pi), 1, 1)


def gls_e(ctx: WeightContext, i: int, pi: GLSPath) -> Optional[GLSPath]:
    """Raising operator: for a real index r_i from e_minus (last earlier time
    at m+1) to e_plus (first break at the minimum m).  For an imaginary one it
    is defined by membership: r_i^{-1} from e_minus (last break at m) to e_plus
    (first later time at m+1-a_ii; none, or a later drop to m-a_ii, kills it),
    kept only if the result verifies as a GLS path of the same shape."""
    profile = _h_profile(ctx, i, pi)
    if ctx.matrix.is_real(i):
        return _surgery(pi.shape, i, profile, 1, -1)
    candidate = _surgery(pi.shape, i, profile, 1 - ctx.matrix.entry(i, i), 1, inverse=True)
    return candidate if candidate is not None and verify_gls(ctx, candidate) else None


def gls_epsilon(ctx: WeightContext, i: int, pi: GLSPath):
    """-m_i for a real index, m_i the minimal level of h_i; 0 for an imaginary one."""
    return 0 if ctx.matrix.is_imaginary(i) else -_h_profile(ctx, i, pi)[-1]


@dataclass(frozen=True)
class GLSVerification:
    """Outcome of the membership test, with chain witnesses on success."""

    ok: bool
    chains: Tuple[AChain, ...]
    failing_pair: Optional[Tuple[Weight, Weight, Fraction]] = None

    def __bool__(self):
        return self.ok


def verify_gls(ctx: WeightContext, pi: GLSPath) -> GLSVerification:
    """Check the chain conditions: an a_k-chain for each consecutive pair of
    weights and, when the last weight differs from the shape, a 1-chain
    down to it, on the integer form: level nums[k] / D and orbit ids, not ``breaks``."""
    chains: List[AChain] = []
    table, ids, nums = _integer_form(ctx, pi)
    den, top, ws = nums[-1], table.intern(pi.shape), table.weights
    pairs = list(zip(nums[1:], ids, ids[1:]))
    if ids[-1] != top:
        pairs.append((den, ids[-1], top))
    for p, mu, nu in pairs:
        chain = find_a_chain(ctx, p, den, mu, nu)
        if chain is None:
            return GLSVerification(False, tuple(chains), (ws[mu], ws[nu], Fraction(p, den)))
        chains.append(chain)
    return GLSVerification(True, tuple(chains))


# -- crystal graphs ------------------------------------------------------


@dataclass
class CrystalNode:
    element: object
    wt: Weight
    depth: int
    frontier: bool
    eps: Tuple
    phi: Tuple


class CrystalGraph:
    """Edge-labeled f-closure of a single element, truncated by weight depth.

    Node k is ``elements[k]``, numbered as the BFS found it: root first,
    then layer by layer, so depths never decrease.  ``index`` maps each
    element to its number; it is the table the BFS merged by, and
    ``elements`` lists its keys.  ``f_edges`` maps (k, i) to the number of
    f_i of node k; ``e_edges`` holds its reverses.  ``weights``,
    ``exponents``, ``nodes`` and ``e_edges`` are built on first read.
    ``frontier`` marks nodes whose children were cut by the truncation, so
    that a missing edge there is never read as f = 0.
    ``ctx`` is the one context every reader of the graph uses.
    """

    def __init__(self, ctx: WeightContext, depth: int, index: Dict[object, int],
                 depths: List[int], f_edges: Dict[Tuple[int, int], int], wt_func: Callable,
                 eps_func: Callable, key_func: Callable):
        self.ctx, self.depth, self.index, self.elements = ctx, depth, index, list(index)
        self.depths, self.f_edges = depths, f_edges
        self.wt_func, self.eps_func, self.key_func = wt_func, eps_func, key_func

    def __len__(self):
        return len(self.elements)

    @cached_property
    def weights(self) -> List[Weight]:
        """``wt_func`` of each element, in discovery order."""
        return [self.wt_func(self.ctx, el) for el in self.elements]

    @cached_property
    def nodes(self) -> List[CrystalNode]:
        """Node k with its weight, eps and phi_i = eps_i + alpha_i^vee(wt)."""
        ctx, n = self.ctx, self.ctx.matrix.n
        nodes = []
        for el, wt, d in zip(self.elements, self.weights, self.depths):
            eps = tuple(self.eps_func(ctx, i, el) for i in range(1, n + 1))
            phi = tuple(e + ctx.pairing(i, wt) for i, e in enumerate(eps, 1))
            nodes.append(CrystalNode(el, wt, d, d == self.depth, eps, phi))
        return nodes

    @cached_property
    def exponents(self) -> List[Tuple[int, ...]]:
        """Node k's depth vector: that of its discovery parent, plus e_i."""
        out = [(0,) * self.ctx.matrix.n]
        for (src, i), dst in self.f_edges.items():
            if dst == len(out):  # in insertion order, the edge that found dst
                out.append(out[src][:i - 1] + (out[src][i - 1] + 1,) + out[src][i:])
        return out

    e_edges = cached_property(lambda self: {(d, i): s for (s, i), d in self.f_edges.items()})

    def f_image(self, idx: int, i: int) -> Optional[int]:
        return self.f_edges.get((idx, i))

    def e_image(self, idx: int, i: int) -> Optional[int]:
        return self.e_edges.get((idx, i))

    def offset_of(self, idx: int) -> Tuple[Fraction, ...]:
        return offset_vector(self.weights[0], self.weights[idx])


def build_crystal_graph(ctx: WeightContext, root_element, depth: int,
                        f_func: Callable, wt_func: Callable,
                        eps_func: Callable, key_func: Callable) -> CrystalGraph:
    """Breadth-first f-closure; each f-step raises the weight depth by one,
    so BFS layers coincide with depth layers.  Elements are numbered as
    found, layer by layer and within a layer by parent and then index i,
    and merged by equality in one table, which becomes ``index``.  That
    numbering is the graph's only one, and it is canonical: it depends on
    the labelled f-edges alone, so an isomorphism of two such graphs of
    equal depth maps node k to node k (``hw_crystal_isomorphic``).

    ``wt_func(ctx, el)`` returns the weight of el and ``eps_func(ctx, i, el)``
    epsilon_i; the graph calls them, and ``key_func``, only when read:
    ``key_func`` in ``export_dot`` alone."""
    n = ctx.matrix.n
    found, depths = {root_element: 0}, [0]
    edges: Dict[Tuple[int, int], int] = {}
    layer = [(0, root_element)]
    for level in range(1, depth + 1):
        nxt = []
        for src, element in layer:
            for i in range(1, n + 1):
                child = f_func(ctx, i, element)
                if child is None:
                    continue
                dst = found.setdefault(child, len(depths))
                if dst == len(depths):
                    depths.append(level)
                    nxt.append((dst, child))
                edges[(src, i)] = dst
        if not nxt:
            break
        layer = nxt
    return CrystalGraph(ctx, depth, found, depths, edges, wt_func, eps_func, key_func)


def enumerate_crystal(ctx: WeightContext, lam: Weight, depth: int) -> CrystalGraph:
    """The crystal of GLS paths of shape lambda: the f-closure of the
    straight path, cut at the given weight depth."""
    if not ctx.is_P_plus(lam):
        raise ValueError(f"shape {format_weight(lam)} is not in P+")
    return build_crystal_graph(
        ctx, GLSPath.linear(lam), depth,
        f_func=gls_f,
        wt_func=lambda ctx, pi: pi.weight(),
        eps_func=gls_epsilon,
        key_func=GLSPath.key,
    )


def export_dot(graph: CrystalGraph) -> str:
    """Deterministic DOT rendering; nodes carry weights and GLS break points.
    Nodes and edges are numbered in (depth, key) order, so the text does not
    depend on the order of discovery; this is the one reader of that order,
    and it reads no eps or phi."""
    depths, keys = graph.depths, [graph.key_func(el) for el in graph.elements]
    order = sorted(range(len(graph)), key=lambda k: (depths[k], keys[k]))
    position = {k: idx for idx, k in enumerate(order)}
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for idx, k in enumerate(order):
        el = graph.elements[k]
        label = f"wt={format_weight(graph.weights[k])}"
        if isinstance(el, GLSPath):
            label += "\\nbreaks=" + ",".join(str(b) for b in el.breaks)
        if depths[k] == graph.depth:
            label += "\\n(frontier)"
        lines.append(f'  n{idx} [label="{label}"];')
    for (src, i), dst in sorted(((position[s], i), position[d])
                                for (s, i), d in graph.f_edges.items()):
        lines.append(f'  n{src} -> n{dst} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- joining ---------------------------------------------------------------


class JoinRejected(ValueError):
    """A joining condition failed; carries which one and a witness."""

    def __init__(self, condition: int, witness):
        self.condition = condition
        self.witness = witness
        super().__init__(f"JoinRejected(condition {condition}): {witness}")


def properly_join(ctx: WeightContext, pi: GLSPath, pi_prime: GLSPath,
                  s: Fraction, s_prime: Fraction) -> PiecewisePath:
    """Join pi (shape lambda) to pi_prime (shape mu) across [s, s'].

    Writing mu_1 = tau.mu through the covering chains of pi_prime, the
    shadow tau-bar on lambda omits reflections that fix their argument.
    Condition 2 asks s * beta^vee < 1 at every imaginary chain root kept in
    tau-bar, evaluated where tau-bar meets it; its witness is the first
    failing position and value.  Condition 1 asks for an s-chain from the
    last weight of pi down to tau-bar.lambda.  The joined path stalls on [s, s'].

    The paper's joining lemma asserts one direction: a proper join is a GLS
    path.  For lambda = mu and s = s' that path is the splice of the two
    weight sequences at s.  ``tests/test_gls.py`` checks that direction on
    whole crystals and, as an observation only, the converse: every splice
    that verifies is accepted.
    """
    s, s_prime = Fraction(s), Fraction(s_prime)
    if not pi.breaks[-2] < s <= s_prime < pi_prime.breaks[1]:
        raise ValueError("need a_{k-1} < s <= s' < b_1")
    witnesses = verify_gls(ctx, pi_prime)
    if not witnesses:
        raise ValueError("second path failed GLS verification; cannot join")
    chain_roots = [r for chain in witnesses.chains for r in chain.roots]
    # Walk tau right-to-left on lambda, omitting reflections that act trivially.
    x, bad = pi.shape, None
    for t in range(len(chain_roots) - 1, -1, -1):
        root = chain_roots[t]
        c = root.coroot_pairing(x)
        if c != 0:
            if root.imaginary and s * c >= 1:
                bad = (t, s * c)  # the walk runs down, so the last one found is the first
            x = x - c * root.root
    if bad is not None:
        raise JoinRejected(2, bad)
    last = pi.weights[-1]
    p, q, intern = s.numerator, s.denominator, ctx.orbit_table.intern
    if last != x and find_a_chain(ctx, p, q, intern(last), intern(x)) is None:
        raise JoinRejected(1, (format_weight(last), format_weight(x)))
    breaks = [*pi.breaks[:-1], s, s_prime, *pi_prime.breaks[1:]]
    den = lcm(*(b.denominator for b in breaks))
    nums = [b.numerator * (den // b.denominator) for b in breaks]
    return PiecewisePath.from_grid(nums, partial_sums(
        map(sub, nums[1:], nums), [*pi.weights, pi.shape * 0, *pi_prime.weights], den))
