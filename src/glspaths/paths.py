"""Piecewise-linear paths in Q(x)P and the raising/lowering root operators.

A path is a finite list of (t, value) points with exact rational t,
interpolated linearly; pi(0) = 0 and pi(1) is its weight.  The operators
cut the path at exact solutions u < v of h_i(t) = alpha_i^vee(pi(t)) hitting
integer levels, reflect the middle zone [u, v] about pi(u) and translate
[v, 1] by +-alpha_i.  A reflection moves only the alpha_i coefficient:
r_i maps pi(t) to pi(t) - (h_i(t) - h_i(u)) alpha_i (Littelmann, Ann. Math.
142, 1995, section 1), r_i^{-1} (i imaginary) to pi(t) + (h_i(t) - h_i(u)) /
(1 - a_ii) alpha_i, so the operators rebuild a path from its h-values.  On
rootdata weights alone, without orbit tables, this module is the
brute-force counterpart to the closed forms acting on GLS data.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from .rootdata import (InvariantViolation, Rational, Weight, WeightContext, add_root,
                       format_weight)


@dataclass(frozen=True)
class PiecewisePath:
    """Exact path; points are normalized so equal functions compare equal.
    ``_f_memo`` keeps the result of ``_f_data`` per (context, index).  As a
    crystal element it carries the normal crystal structure of the path set:
    ``wt``, ``epsilon``, ``f``, ``e`` and ``key`` run the operators below."""

    points: Tuple[Tuple[Fraction, Weight], ...]
    _f_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @staticmethod
    def from_points(pts: Sequence[Tuple[Fraction, Weight]]) -> "PiecewisePath":
        cleaned: List[Tuple[Fraction, Weight]] = []
        for t, v in pts:
            t = Fraction(t)
            if cleaned and cleaned[-1][0] == t:
                if cleaned[-1][1] != v:
                    raise ValueError(f"conflicting values at t={t}")
                continue
            cleaned.append((t, v))
        if len(cleaned) < 2:
            raise ValueError("a path needs at least the two endpoints")
        if cleaned[0][0] != 0 or cleaned[-1][0] != 1:
            raise ValueError("parameter range must be [0, 1]")
        if any(cleaned[k][0] >= cleaned[k + 1][0] for k in range(len(cleaned) - 1)):
            raise ValueError("parameters must increase strictly")
        if not cleaned[0][1].is_zero():
            raise ValueError("paths start at 0")
        out = [cleaned[0]]
        for k in range(1, len(cleaned) - 1):
            if not _collinear(out[-1], cleaned[k], cleaned[k + 1]):
                out.append(cleaned[k])
        out.append(cleaned[-1])
        return PiecewisePath(tuple(out))

    @property
    def weight(self) -> Weight:
        return self.points[-1][1]

    def wt(self, ctx: WeightContext) -> Weight:
        return self.weight

    def epsilon(self, ctx: WeightContext, i: int):
        return path_epsilon(ctx, i, self)

    def f(self, ctx: WeightContext, i: int) -> Optional[PiecewisePath]:
        return apply_f(ctx, i, self)

    def e(self, ctx: WeightContext, i: int) -> Optional[PiecewisePath]:
        return apply_e(ctx, i, self)

    def key(self):
        return ("path", tuple((t, v.sort_key()) for t, v in self.points))

    def value_at(self, t: Fraction) -> Weight:
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise ValueError(f"parameter {t} outside [0, 1]")
        return _value_at(*zip(*self.points), t)

    def trace(self) -> Tuple[Weight, ...]:
        """Corner values up to reparametrization: stalls dropped, co-directional
        segments merged.  Two paths are reparametrizations of each other iff
        their traces coincide."""
        corners = [self.points[0][1]]
        for _, v in self.points[1:]:
            if v == corners[-1]:
                continue
            if len(corners) >= 2 and _positively_parallel(corners[-1] - corners[-2],
                                                          v - corners[-1]):
                corners[-1] = v
            else:
                corners.append(v)
        if len(corners) == 1:
            corners.append(corners[0])
        return tuple(corners)


def _collinear(p0, p1, p2) -> bool:
    """Whether the point p1 = (t1, v1) lies on the segment from p0 to p2 at
    its speed: then p1 is no corner."""
    (t0, v0), (t1, v1), (t2, v2) = p0, p1, p2
    return (v1 - v0) * (t2 - t1) == (v2 - v1) * (t1 - t0)


def _positively_parallel(d1: Weight, d2: Weight) -> bool:
    """Whether d2 = c*d1 for some rational c > 0 (both nonzero): c is the
    ratio of their first nonzero coefficients."""
    (_, c1), (_, c2) = (next(chain(*d.sort_key())) for d in (d1, d2))
    c = Fraction(c2, c1)
    return c > 0 and d2 == c * d1


def equal_up_to_reparametrization(p: PiecewisePath, q: PiecewisePath) -> bool:
    return p.trace() == q.trace()


def linear_path(ctx: WeightContext, lam: Weight) -> PiecewisePath:
    """The straight path t*lam (the constant path when lam = 0)."""
    if not ctx.is_in_P(lam):
        raise ValueError(f"endpoint {format_weight(lam)} is not in P")
    return PiecewisePath.from_points([(Fraction(0), ctx.weight()), (Fraction(1), lam)])


def trivial_path(ctx: WeightContext) -> PiecewisePath:
    return PiecewisePath.from_points([(Fraction(0), ctx.weight()), (Fraction(1), ctx.weight())])


# -- scanning piecewise-linear height profiles --------------------------
#
# All helpers work on parallel lists ts/hs of breakpoint times and values;
# between breakpoints the function is linear.  Solutions of h = target are
# one exact Fraction(numerator, denominator) each, never found by tolerance,
# on Fractions or ints (numerators over a common denominator) alike.


def last_time_at(ts: Sequence[Fraction], hs: Sequence[Fraction],
                 target: Fraction, upto: Optional[Fraction] = None) -> Optional[Fraction]:
    """Rightmost t (<= upto if given) with h(t) = target."""
    hi = ts[-1] if upto is None else upto
    for k in range(len(ts) - 1, 0, -1):
        t0, t1 = ts[k - 1], ts[k]
        h0, h1 = hs[k - 1], hs[k]
        if t0 >= hi:
            continue
        if t1 > hi:
            h1, t1 = Fraction(h0 * (t1 - t0) + (h1 - h0) * (hi - t0), t1 - t0), hi
        if h1 == target:
            return t1
        if (h0 - target) * (h1 - target) < 0:
            return Fraction(t0 * (h1 - h0) + (target - h0) * (t1 - t0), h1 - h0)
        if h0 == target:
            return t0
    return None


def first_time_at(ts: Sequence[Fraction], hs: Sequence[Fraction],
                  target: Fraction, start: Fraction) -> Optional[Fraction]:
    """Leftmost t >= start with h(t) = target."""
    for k in range(1, len(ts)):
        t0, t1 = ts[k - 1], ts[k]
        h0, h1 = hs[k - 1], hs[k]
        if t1 < start:
            continue
        if t0 < start:
            h0, t0 = Fraction(h0 * (t1 - t0) + (h1 - h0) * (start - t0), t1 - t0), start
        if h0 == target:
            return t0
        if (h0 - target) * (h1 - target) < 0:
            return Fraction(t0 * (h1 - h0) + (target - h0) * (t1 - t0), h1 - h0)
        if h1 == target:
            return t1
    return None


def _value_at(ts: Sequence[Fraction], vs: Sequence, t: Fraction, k: Optional[int] = None):
    """The value at t, ts[0] <= t <= ts[-1] (k = bisect_left(ts, t) if given), of the
    function that is linear between the breakpoints ts; vs are numbers or weights."""
    k = bisect_left(ts, t) if k is None else k
    if ts[k] == t:
        return vs[k]
    return vs[k - 1] + (vs[k] - vs[k - 1]) * Fraction(t - ts[k - 1], ts[k] - ts[k - 1])


def _values_on(ts, hs, lo, hi) -> list:
    """h at lo, at hi and at the breakpoints strictly between: where a
    piecewise-linear function takes its extrema on [lo, hi]."""
    return [_value_at(ts, hs, lo), *hs[bisect_right(ts, lo):bisect_left(ts, hi)],
            _value_at(ts, hs, hi)]


def min_value_on(ts: Sequence[Fraction], hs: Sequence[Fraction],
                 lo: Fraction, hi: Fraction) -> Fraction:
    """Exact minimum of the piecewise-linear function on [lo, hi] (within [ts[0], ts[-1]])."""
    return min(_values_on(ts, hs, lo, hi))


def max_value_on(ts: Sequence[Fraction], hs: Sequence[Fraction],
                 lo: Fraction, hi: Fraction) -> Fraction:
    return max(_values_on(ts, hs, lo, hi))


# -- h-profiles and the operators ---------------------------------------


@dataclass(frozen=True)
class HProfile:
    """The four operator arguments of h_i along a path.

    ``m`` is the minimal integer attained by h_i.  ``f_plus`` is the last
    time h hits m, ``f_minus`` the first time >= f_plus hitting m+1 (absent
    iff f_plus = 1).  The e-arguments follow the real or the imaginary
    convention of the index; ``e_defined`` records whether the raising
    operator applies at all (for an imaginary index this folds in the three
    kill conditions, evaluated in the order: f_plus = 1, level m+1-a_ii
    never reached after f_plus, drop to m-a_ii after e_plus).
    """

    m: int
    f_plus: Fraction
    f_minus: Optional[Fraction]
    e_plus: Optional[Fraction]
    e_minus: Optional[Fraction]
    e_defined: bool


def _f_data(ctx: WeightContext, i: int, pi: PiecewisePath):
    """(ts, hs, m, f_plus, f_minus): the breakpoint times of pi, the values of
    h_i there (both tuples), and the f-arguments; the e-data is left to
    h_profile.  Kept on pi per (ctx, i)."""
    data = pi._f_memo.get((ctx, i))
    if data is None:
        ts, hs = tuple(t for t, _ in pi.points), tuple(ctx.pairing(i, v) for _, v in pi.points)
        m = math.ceil(min(hs))
        f_plus = last_time_at(ts, hs, m)
        if m > 0 or f_plus is None:  # h(0) = 0, so the level m <= 0 is reached
            raise InvariantViolation(f"h_{i} never reaches its minimal level {m}")
        data = pi._f_memo[ctx, i] = (ts, hs, m, f_plus,
                                     None if f_plus == 1 else first_time_at(ts, hs, m + 1, f_plus))
    return data


def h_profile(ctx: WeightContext, i: int, pi: PiecewisePath) -> HProfile:
    ts, hs, m, f_plus, f_minus = _f_data(ctx, i, pi)
    if ctx.matrix.is_real(i):
        e_plus = first_time_at(ts, hs, Fraction(m), Fraction(0))
        e_minus = None if e_plus == 0 else last_time_at(ts, hs, Fraction(m + 1), e_plus)
        e_defined = e_plus != 0
    else:
        a = ctx.matrix.entry(i, i)
        e_minus = f_plus
        e_plus = None
        e_defined = False
        if e_minus != 1 and max_value_on(ts, hs, e_minus, Fraction(1)) >= m + 1 - a:
            e_plus = first_time_at(ts, hs, Fraction(m + 1 - a), e_minus)
            if e_plus is None:
                raise InvariantViolation(f"h_{i} exceeds level {m + 1 - a} without reaching it")
            e_defined = min_value_on(ts, hs, e_plus, Fraction(1)) > m - a
    return HProfile(m, f_plus, f_minus, e_plus, e_minus, e_defined)


def _three_zone(pi: PiecewisePath, ts: Sequence[Fraction], hs: Sequence[Rational], i: int,
                u: Fraction, v: Fraction, scale: Rational, shift: int) -> PiecewisePath:
    """Rebuild pi, with h_i = hs at its breakpoint times ts: unchanged on
    [0,u]; on [u,v] each pi(t) moved by scale (h_i(t) - h_i(u)) alpha_i, that
    is r_i about pi(u) for scale -1 and r_i^{-1} for 1/(1 - a_ii); shifted by
    shift alpha_i on [v,1].  An affine map of a zone keeps the corners
    inside it, so only the points at u and v are tested for a corner."""
    lo, hi = bisect_left(ts, u), bisect_left(ts, v)
    pts, ws, hu = pi.points, [w for _, w in pi.points], _value_at(ts, hs, u, lo)
    if scale * (_value_at(ts, hs, v, hi) - hu) != shift:
        raise InvariantViolation("zone junction mismatch")
    tail = [(t, add_root(w, i, shift)) for t, w in pts[hi + (ts[hi] == v):]]
    out = [*pts[:lo], (u, _value_at(ts, ws, u, lo)),
           *((t, add_root(w, i, scale * (h - hu)))
             for (t, w), h in zip(pts[lo:hi], hs[lo:hi]) if t > u),
           (v, add_root(_value_at(ts, ws, v, hi), i, shift)), *tail]
    for k in (len(out) - len(tail) - 1, lo):  # the points at v and at u, in this order
        if 0 < k < len(out) - 1 and _collinear(out[k - 1], out[k], out[k + 1]):
            del out[k]
    return PiecewisePath(tuple(out))


def apply_f(ctx: WeightContext, i: int, pi: PiecewisePath) -> Optional[PiecewisePath]:
    """Lowering operator: reflect by r_i between f_plus and f_minus, then
    shift by -alpha_i; absent exactly when h_i never leaves its minimum
    after f_plus."""
    ts, hs, _, f_plus, f_minus = _f_data(ctx, i, pi)
    if f_plus == 1:
        return None
    return _three_zone(pi, ts, hs, i, f_plus, f_minus, -1, -1)


def apply_e(ctx: WeightContext, i: int, pi: PiecewisePath) -> Optional[PiecewisePath]:
    """Raising operator: reflect between e_minus and e_plus, by r_i for a real
    index and by r_i^{-1} for an imaginary one, then shift by +alpha_i."""
    prof = h_profile(ctx, i, pi)
    if not prof.e_defined:
        return None
    scale = -1 if ctx.matrix.is_real(i) else Fraction(1, 1 - ctx.matrix.entry(i, i))
    ts, hs = _f_data(ctx, i, pi)[:2]
    return _three_zone(pi, ts, hs, i, prof.e_minus, prof.e_plus, scale, 1)


def concatenate(pi1: PiecewisePath, pi2: PiecewisePath, s: Fraction,
                ctx: WeightContext) -> PiecewisePath:
    """Run pi1 on [0,s] and pi2 on [s,1]; weights add.

    The junction value is pi1(1); it is checked to lie in P, which is what
    keeps the operators from straddling the junction."""
    s = Fraction(s)
    if not 0 < s < 1:
        raise ValueError(f"junction parameter must lie in (0,1), got {s}")
    if not ctx.is_in_P(pi1.weight):
        raise ValueError(f"junction weight {format_weight(pi1.weight)} is not in P")
    pts = [(t * s, v) for t, v in pi1.points]
    shift = pi1.weight
    pts += [(s + (1 - s) * t, shift + v) for t, v in pi2.points if t > 0]
    return PiecewisePath.from_points(pts)


def is_integral(ctx: WeightContext, pi: PiecewisePath) -> bool:
    """The global minimum of every h_i is an integer."""
    return all(min(_f_data(ctx, i, pi)[1]).denominator == 1 for i in ctx.matrix.indices)


def is_monotone(ctx: WeightContext, pi: PiecewisePath, strict: bool = True) -> bool:
    """h_i increases on [f_plus, f_minus] and stays >= m+1 afterwards, for
    every index whose lowering operator is defined.  ``strict=False`` uses
    the weakened form appropriate for joined paths."""
    for i in ctx.matrix.indices:
        ts, hs, m, f_plus, f_minus = _f_data(ctx, i, pi)
        if f_plus == 1:
            continue
        for k in range(1, len(ts)):
            a, b = max(ts[k - 1], f_plus), min(ts[k], f_minus)
            if a >= b:
                continue
            rise = hs[k] - hs[k - 1]
            if rise < 0 or (strict and rise == 0):
                return False
        if min_value_on(ts, hs, f_minus, Fraction(1)) < m + 1:
            return False
    return True


def path_epsilon(ctx: WeightContext, i: int, pi: PiecewisePath):
    """Crystal statistic on the ambient path set: -m_i for real i, 0 imaginary."""
    if ctx.matrix.is_real(i):
        return -_f_data(ctx, i, pi)[2]
    return 0

