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
from math import gcd, lcm
from typing import Callable, Dict, List, Optional, Tuple

# apply_e is not called here; perfbench/test_perfbench.py checks that gls binds it
from .paths import PiecewisePath, apply_e, first_time_at, last_time_at
from .rootdata import (OrbitTable, Weight, WeightContext, exact, format_weight,
                       offset_vector, weight)
from .torbit import AChain, find_a_chain


class NotAGLSPath(ValueError):
    """The data breaks an invariant that every GLS path satisfies."""


@dataclass(frozen=True, slots=True)
class GLSPath:
    """Orbit-weight sequence with break points; shape is the orbit anchor.
    ``_ints`` caches the integer form the operators work on (see below)."""

    shape: Weight
    weights: Tuple[Weight, ...]
    breaks: Tuple[Fraction, ...]
    _ints: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

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

    @staticmethod
    def linear(lam: Weight) -> "GLSPath":
        return GLSPath(lam, (lam,), (Fraction(0), Fraction(1)))

    def weight(self) -> Weight:
        """sum_k (a_k - a_{k-1}) nu_k, summed as numerators over D."""
        den, nums = (_common_denominator(self.breaks) if self._ints is None
                     else self._ints[2:])
        bases: Dict[str, int] = {}
        roots: Dict[int, int] = {}
        for k, w in enumerate(self.weights):
            step = nums[k + 1] - nums[k]
            for total, items in ((bases, w.base_items), (roots, w.root_items)):
                for name, c in items:
                    total[name] = total.get(name, 0) + step * c
        return weight({name: Fraction(c, den) for name, c in bases.items()},
                      {j: Fraction(c, den) for j, c in roots.items()})

    def render(self) -> PiecewisePath:
        pts = [(Fraction(0), weight())]
        for k, w in enumerate(self.weights):
            t0, t1 = self.breaks[k], self.breaks[k + 1]
            pts.append((t1, pts[-1][1] + (t1 - t0) * w))
        return PiecewisePath.from_points(pts)

    def sort_key(self):
        return (tuple(w.sort_key() for w in self.weights), self.breaks)

    def __repr__(self):
        ws = ", ".join(format_weight(w) for w in self.weights)
        bs = ", ".join(str(b) for b in self.breaks)
        return f"GLSPath(({ws}; {bs}))"


# -- the closed-form operators on integer data ------------------------------
#
# The operators see a path as (orbit table, weight ids, D, break numerators
# over D), D the least common denominator of the breaks, so h_i at the breaks
# is a numerator over D too and the work stays in ints.  Paths they return
# carry this form; other paths get it on first use.  Only a new break can
# make D grow.


def _common_denominator(breaks) -> Tuple[int, Tuple[int, ...]]:
    den = lcm(*(b.denominator for b in breaks))
    return den, tuple(b.numerator * (den // b.denominator) for b in breaks)


def _integer_form(table: OrbitTable, pi: GLSPath):
    """(table, weight ids, D, break numerators over D) of pi."""
    ints = pi._ints
    if ints is None or ints[0] is not table:
        ints = (table, tuple(table.intern(w) for w in pi.weights)) + _common_denominator(pi.breaks)
        object.__setattr__(pi, "_ints", ints)
    return ints


def _h_values(column, ids, nums) -> List[int]:
    """Numerators over D of h_i at the breaks, given the pairings column[id]."""
    hs = [0]
    for k, w in enumerate(ids):
        hs.append(hs[-1] + (nums[k + 1] - nums[k]) * column[w])
    return hs


def _h_profile(ctx: WeightContext, i: int, pi: GLSPath):
    """(table, ids, D, nums, hs, m): h_i(nums[k] / D) = hs[k] / D, and m is
    the minimal level of h_i, which must be an integer."""
    if not 1 <= i <= ctx.matrix.n:
        raise ValueError(f"index {i} out of range")
    table, ids, den, nums = _integer_form(ctx.orbit_table, pi)
    hs = _h_values(table.pairings[i], ids, nums)
    if min(hs) % den:
        raise NotAGLSPath("path is not integral; not a GLS path")
    return table, ids, den, nums, hs, min(hs) // den


def _reflected(shape: Weight, table: OrbitTable, i: int, ids, den: int, nums,
               u, v, inverse: bool = False) -> GLSPath:
    """The path with r_i (r_i^{-1} if inverse) applied to its weights on
    [u, v] (times in units of 1/D, which become breaks), with zero-length
    segments dropped, equal neighbours merged and D reduced."""
    q = lcm(u.denominator, v.denominator)
    den, u, v = den * q, int(u * q), int(v * q)
    out_ids, out_nums = [], [0]
    for k, w in enumerate(ids):
        a, b = nums[k] * q, nums[k + 1] * q
        for lo, hi, inside in ((a, min(b, u), False), (max(a, u), min(b, v), True),
                               (max(a, v), b, False)):
            if lo >= hi:
                continue
            x = table.reflect(i, w, inverse) if inside else w
            if out_ids and out_ids[-1] == x:
                out_nums[-1] = hi
            else:
                out_ids.append(x)
                out_nums.append(hi)
    g = gcd(den, *out_nums)
    den, out_nums = den // g, tuple(a // g for a in out_nums)
    pi = GLSPath(shape, tuple(table.weights[k] for k in out_ids),
                 tuple(Fraction(a, den) for a in out_nums))
    object.__setattr__(pi, "_ints", (table, tuple(out_ids), den, out_nums))
    return pi


def gls_f(ctx: WeightContext, i: int, pi: GLSPath) -> Optional[GLSPath]:
    """Closed-form lowering operator on GLS data.

    With f_plus = a_t and a_{p-1} < f_minus <= a_p, the weights with
    indices t+1..p are reflected by r_i and the break f_minus is inserted;
    the imaginary case is the special case t = 0.
    """
    table, ids, den, nums, hs, m = _h_profile(ctx, i, pi)
    f_plus = last_time_at(nums, hs, m * den)
    if f_plus == den:
        return None
    f_minus = first_time_at(nums, hs, (m + 1) * den, f_plus)
    if f_minus is None:
        raise NotAGLSPath(f"h_{i} stays below m+1 after f_plus; not a GLS path")
    return _reflected(pi.shape, table, i, ids, den, nums, f_plus, f_minus)


def gls_e(ctx: WeightContext, i: int, pi: GLSPath,
          height_bound: Optional[int] = None) -> Optional[GLSPath]:
    """Raising operator inside the GLS crystal.

    Real indices have a closed form mirroring gls_f.  For an imaginary
    index the raising is defined by membership: r_i^{-1} maps the weights
    from e_minus (last time at the minimum m) to e_plus (first later time at
    m+1-a_ii; none, or a later drop to m-a_ii, kills it), and the result is
    kept only if it verifies as a GLS path of the same shape.
    """
    table, ids, den, nums, hs, m = _h_profile(ctx, i, pi)
    if ctx.matrix.is_real(i):
        e_plus = first_time_at(nums, hs, m * den, 0)
        if e_plus == 0:
            return None
        e_minus = last_time_at(nums, hs, (m + 1) * den, e_plus)
        if e_minus is None:
            raise NotAGLSPath(f"h_{i} stays below m+1 before e_plus; not a GLS path")
        return _reflected(pi.shape, table, i, ids, den, nums, e_minus, e_plus)
    a = ctx.matrix.entry(i, i)
    e_minus = last_time_at(nums, hs, m * den)
    e_plus = first_time_at(nums, hs, (m + 1 - a) * den, e_minus)
    if e_plus is None or any(h <= (m - a) * den for t, h in zip(nums, hs) if t > e_plus):
        return None
    candidate = _reflected(pi.shape, table, i, ids, den, nums, e_minus, e_plus, inverse=True)
    return candidate if verify_gls(ctx, candidate, height_bound) else None


def gls_epsilon(ctx: WeightContext, i: int, pi: GLSPath):
    """-m_i for a real index, 0 for an imaginary one."""
    if ctx.matrix.is_real(i):
        return -_h_profile(ctx, i, pi)[-1]
    return 0


def _weight_and_pairings(ctx: WeightContext, pi: GLSPath):
    """The weight of pi and its pairings h_i(1), summed over the orbit table."""
    table, ids, den, nums = _integer_form(ctx.orbit_table, pi)
    return pi.weight(), tuple(exact(Fraction(_h_values(table.pairings[i], ids, nums)[-1], den))
                              for i in ctx.matrix.indices)


@dataclass(frozen=True)
class GLSVerification:
    """Outcome of the membership test, with chain witnesses on success."""

    ok: bool
    chains: Tuple[AChain, ...]
    failing_pair: Optional[Tuple[Weight, Weight, Fraction]] = None

    def __bool__(self):
        return self.ok


def verify_gls(ctx: WeightContext, pi: GLSPath,
               height_bound: Optional[int] = None) -> GLSVerification:
    """Check the chain conditions: an a_k-chain for each consecutive pair of
    weights and, when the last weight differs from the shape, a 1-chain
    down to it."""
    chains: List[AChain] = []
    pairs = [(pi.weights[k], pi.weights[k + 1], pi.breaks[k + 1])
             for k in range(len(pi.weights) - 1)]
    if pi.weights[-1] != pi.shape:
        pairs.append((pi.weights[-1], pi.shape, Fraction(1)))
    for mu, nu, level in pairs:
        chain = find_a_chain(ctx, level, mu, nu, height_bound)
        if chain is None:
            return GLSVerification(False, tuple(chains), (mu, nu, level))
        chains.append(chain)
    return GLSVerification(True, tuple(chains))


# -- crystal graphs ------------------------------------------------------


@dataclass
class CrystalNode:
    element: object
    key: object
    wt: Weight
    depth: int
    frontier: bool
    eps: Tuple
    phi: Tuple


class CrystalGraph:
    """Edge-labeled f-closure of a single element, truncated by weight depth.

    Nodes are ordered by (depth, canonical key); e-edges are the reverses
    of f-edges.  ``frontier`` marks nodes whose children were cut by the
    truncation, so that a missing edge there is never read as f = 0.
    """

    def __init__(self, ctx: WeightContext, depth: int, nodes: List[CrystalNode],
                 f_edges: Dict[Tuple[int, int], int]):
        self.ctx = ctx
        self.depth = depth
        self.nodes = nodes
        self.f_edges = f_edges
        self.e_edges = {(dst, i): src for (src, i), dst in f_edges.items()}

    def __len__(self):
        return len(self.nodes)

    @cached_property
    def index(self) -> Dict[object, int]:
        """Node position by key."""
        return {node.key: k for k, node in enumerate(self.nodes)}

    @property
    def root(self) -> CrystalNode:
        return self.nodes[0]

    def f_image(self, idx: int, i: int) -> Optional[int]:
        return self.f_edges.get((idx, i))

    def e_image(self, idx: int, i: int) -> Optional[int]:
        return self.e_edges.get((idx, i))

    def offset_of(self, idx: int) -> Tuple[Fraction, ...]:
        return offset_vector(self.root.wt, self.nodes[idx].wt, self.ctx.matrix.n)


def build_crystal_graph(ctx: WeightContext, root_element, depth: int,
                        f_func: Callable, wt_func: Callable,
                        eps_func: Callable, key_func: Callable) -> CrystalGraph:
    """Breadth-first f-closure; each f-step raises the weight depth by one,
    so BFS layers coincide with depth layers.  Elements are numbered as
    found; the result is ordered by (depth, key), so the order in which a
    layer is expanded does not matter.

    ``wt_func(ctx, el)`` returns the weight of el with its pairings
    alpha_i^vee(wt), i = 1..n, and ``eps_func(ctx, i, el)`` returns
    epsilon_i; phi_i is epsilon_i plus the i-th pairing."""
    n = ctx.matrix.n
    elements, keys, depths = [root_element], [key_func(root_element)], [0]
    found = {keys[0]: 0}
    edges: Dict[Tuple[int, int], int] = {}
    layer = [0]
    for level in range(1, depth + 1):
        nxt = []
        for src in layer:
            for i in range(1, n + 1):
                child = f_func(ctx, i, elements[src])
                if child is None:
                    continue
                key = key_func(child)
                dst = found.setdefault(key, len(elements))
                if dst == len(elements):
                    elements.append(child)
                    keys.append(key)
                    depths.append(level)
                    nxt.append(dst)
                edges[(src, i)] = dst
        if not nxt:
            break
        layer = nxt
    order = sorted(range(len(elements)), key=lambda k: (depths[k], keys[k]))
    position = [0] * len(order)
    nodes = []
    for idx, k in enumerate(order):
        position[k] = idx
        el, d = elements[k], depths[k]
        wt, pairings = wt_func(ctx, el)
        eps = tuple(eps_func(ctx, i, el) for i in range(1, n + 1))
        phi = tuple(e + h for e, h in zip(eps, pairings))
        nodes.append(CrystalNode(el, keys[k], wt, d, d == depth, eps, phi))
    f_edges = {(position[src], i): position[dst] for (src, i), dst in edges.items()}
    return CrystalGraph(ctx, depth, nodes, f_edges)


def enumerate_crystal(ctx: WeightContext, lam: Weight, depth: int) -> CrystalGraph:
    """The crystal of GLS paths of shape lambda: the f-closure of the
    straight path, cut at the given weight depth."""
    if not ctx.is_P_plus(lam):
        raise ValueError(f"shape {format_weight(lam)} is not in P+")
    return build_crystal_graph(
        ctx, GLSPath.linear(lam), depth,
        f_func=gls_f,
        wt_func=_weight_and_pairings,
        eps_func=gls_epsilon,
        key_func=GLSPath.sort_key,
    )


def export_dot(graph: CrystalGraph) -> str:
    """Deterministic DOT rendering; nodes carry weights and GLS break points."""
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for idx, node in enumerate(graph.nodes):
        label = f"wt={format_weight(node.wt)}"
        if isinstance(node.element, GLSPath):
            label += "\\nbreaks=" + ",".join(str(b) for b in node.element.breaks)
        if node.frontier:
            label += "\\n(frontier)"
        lines.append(f'  n{idx} [label="{label}"];')
    for (src, i), dst in sorted(graph.f_edges.items()):
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


@dataclass(frozen=True)
class JoinResult:
    path: PiecewisePath
    tau_roots: tuple
    tau_bar_kept: Tuple[bool, ...]
    condition2_restricted_ok: bool
    condition2_full_ok: bool
    shape_chain: Optional[AChain]


def properly_join(ctx: WeightContext, pi: GLSPath, pi_prime: GLSPath,
                  s: Fraction, s_prime: Fraction,
                  height_bound: Optional[int] = None,
                  witnesses: Optional[GLSVerification] = None) -> JoinResult:
    """Join pi (shape lambda) to pi_prime (shape mu) across [s, s'].

    Writing mu_1 = tau.mu through the covering chains of pi_prime, the
    shadow tau-bar on lambda omits reflections that fix their argument.
    Condition 1 asks for an s-chain from the last weight of pi down to
    tau-bar.lambda; condition 2 bounds s * beta^vee at every imaginary
    chain root (checked on the roots kept in tau-bar; the unrestricted
    variant is recorded alongside).  The joined path stalls on [s, s'].
    """
    s, s_prime = Fraction(s), Fraction(s_prime)
    if not pi.breaks[-2] < s <= s_prime < pi_prime.breaks[1]:
        raise ValueError("need a_{k-1} < s <= s' < b_1")
    lam = pi.shape
    if witnesses is None:
        witnesses = verify_gls(ctx, pi_prime, height_bound)
    if not witnesses:
        raise ValueError("second path failed GLS verification; cannot join")
    chain_roots = [r for chain in witnesses.chains for r in chain.roots]
    # Walk tau right-to-left on lambda, omitting reflections that act trivially.
    kept: List[bool] = [False] * len(chain_roots)
    evaluation_points: List[Weight] = [weight()] * len(chain_roots)
    x = lam
    for t in range(len(chain_roots) - 1, -1, -1):
        root = chain_roots[t]
        evaluation_points[t] = x
        c = root.coroot_pairing(x)
        if c != 0:
            kept[t] = True
            x = x - c * root.root
    tau_bar_lam = x
    cond2_results = []
    for t, root in enumerate(chain_roots):
        if not root.imaginary:
            continue
        value = s * root.coroot_pairing(evaluation_points[t])
        cond2_results.append((t, kept[t], value, value < 1))
    full_ok = all(ok for _, _, _, ok in cond2_results)
    restricted_ok = all(ok for _, k, _, ok in cond2_results if k)
    if not restricted_ok:
        bad = next((t, v) for t, k, v, ok in cond2_results if k and not ok)
        raise JoinRejected(2, bad)
    last = pi.weights[-1]
    shape_chain = None
    if last != tau_bar_lam:
        shape_chain = find_a_chain(ctx, s, last, tau_bar_lam, height_bound)
        if shape_chain is None:
            raise JoinRejected(1, (format_weight(last), format_weight(tau_bar_lam)))
    ws = list(pi.weights) + [weight()] + list(pi_prime.weights)
    bs = list(pi.breaks[:-1]) + [s, s_prime] + list(pi_prime.breaks[1:])
    pts: List[Tuple[Fraction, Weight]] = [(bs[0], weight())]
    for k, w in enumerate(ws):
        t0, t1 = bs[k], bs[k + 1]
        if t0 == t1:
            continue
        pts.append((t1, pts[-1][1] + (t1 - t0) * w))
    joined = PiecewisePath.from_points(pts)
    return JoinResult(joined, tuple(chain_roots), tuple(kept),
                      restricted_ok, full_ok, shape_chain)
