"""Piecewise-linear paths in Q(x)P and the raising/lowering root operators.

A path is a finite list of breakpoints with a weight at each, interpolated
linearly; pi(0) = 0 and pi(1) is its weight.  The breakpoint times are int
numerators over T, their least common denominator, and h_i(t) =
alpha_i^vee(pi(t)) at the breakpoints int numerators over one denominator, so
the operators bisect, scan, interpolate and test corners on ints; ``points``
gives (Fraction, Weight) pairs, built on first read.  The operators cut the
path at exact solutions u < v of h_i(t) hitting integer levels (a cut off
the grid refines T, and the result is reduced again), reflect the middle
zone [u, v] about pi(u) and translate [v, 1] by +-alpha_i.  A reflection
moves only the alpha_i coefficient: r_i maps pi(t) to pi(t) - (h_i(t) -
h_i(u)) alpha_i (Littelmann, Ann. Math. 142, 1995, section 1), r_i^{-1} (i
imaginary) to pi(t) + (h_i(t) - h_i(u)) / (1 - a_ii) alpha_i.  Cost: one dot
product per breakpoint and index, kept on the path, then per operator call a
scan and one ``add_root`` per moved point.  On rootdata weights alone,
without orbit tables, this module is the brute-force counterpart to the
closed forms acting on GLS data.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Tuple

from .rootdata import (InvariantViolation, Weight, WeightContext, add_root, combination,
                       format_weight)


@dataclass(frozen=True, slots=True)
class PiecewisePath:
    """Exact path: ``_values[k]`` at time ``_nums[k] / T``, T = ``_nums[-1]``
    the least common denominator, with collinear points dropped, so equal
    functions compare equal.  Made by ``from_points`` or ``from_grid``, or
    by ``GLSPath.render`` from data already in this form.
    ``_f_memo`` keeps the result of ``_f_data`` per (context, index), that of
    ``h_profile`` per (context, index, "h") and that of ``apply_f``/``apply_e``
    per (context, index, "f" or "e"), None too; a result's own memo starts empty.  As a
    crystal element it carries the normal crystal structure of the path set:
    ``wt``, ``epsilon``, ``f``, ``e`` and ``key`` run the operators below."""

    _nums: Tuple[int, ...]
    _values: Tuple[Weight, ...]
    _f_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @staticmethod
    def from_points(pts: Sequence[Tuple[Fraction, Weight]]) -> "PiecewisePath":
        """The path through the (t, weight) points, t exact in [0, 1]."""
        ts = [Fraction(t) for t, _ in pts]
        if not ts or ts[0] != 0 or ts[-1] != 1:
            raise ValueError("parameter range must be [0, 1]")
        den = lcm(*(t.denominator for t in ts))
        return PiecewisePath.from_grid([t.numerator * (den // t.denominator) for t in ts],
                                       [v for _, v in pts])

    @staticmethod
    def from_grid(nums: Sequence[int], values: Sequence[Weight]) -> "PiecewisePath":
        """The path with values[k] at time nums[k] / nums[-1]: a repeated time
        must repeat its value, collinear points are dropped and the times are
        reduced to their least common denominator."""
        pts = []
        for t, v in zip(nums, values):
            if not pts or pts[-1][0] != t:
                pts.append((t, v))
            elif pts[-1][1] != v:
                raise ValueError(f"conflicting values at t={t}/{nums[-1]}")
        if len(pts) < 2 or pts[0][0] != 0 or any(p[0] >= q[0] for p, q in zip(pts, pts[1:])):
            raise ValueError("times must increase strictly from 0")
        if not pts[0][1].is_zero():
            raise ValueError("paths start at 0")
        out = pts[:1]
        for k in range(1, len(pts) - 1):
            if not _collinear(out[-1], pts[k], pts[k + 1]):
                out.append(pts[k])
        return _on_grid(out + pts[-1:])

    @property
    def points(self) -> Tuple[Tuple[Fraction, Weight], ...]:
        """(t, pi(t)) at the breakpoints with Fraction times."""
        den = self._nums[-1]
        return tuple((Fraction(t, den), v) for t, v in zip(self._nums, self._values))

    @property
    def weight(self) -> Weight:
        return self._values[-1]

    def wt(self, ctx: WeightContext) -> Weight:
        return self.weight

    def epsilon(self, ctx: WeightContext, i: int):
        """-m_i for a real index, 0 for an imaginary one."""
        return 0 if ctx.matrix.is_imaginary(i) else -_f_data(ctx, i, self)[2]

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
        x = t * self._nums[-1]
        return _cut([s * x.denominator for s in self._nums], self._values, x.numerator)[-1]


def _on_grid(pts) -> PiecewisePath:
    """The path through pts, (int time, weight) pairs already normalized but
    for the common factor of their times, which is divided out."""
    ts, vs = zip(*pts)
    g = gcd(*ts)
    return PiecewisePath(ts if g == 1 else tuple(t // g for t in ts), vs)


def _collinear(p0, p1, p2) -> bool:
    """Whether the point p1 = (t1, v1) lies on the segment from p0 to p2 at
    its speed, (v1 - v0)(t2 - t1) = (v2 - v1)(t1 - t0): then p1 is no corner."""
    (t0, v0), (t1, v1), (t2, v2) = p0, p1, p2
    return combination((t2 - t1, t0 - t2, t1 - t0), (v0, v1, v2), 1).is_zero()


def _cut(ts: Sequence[int], ws: Sequence[Weight], t: int):
    """(k, a, b, d, pi(t)) for an int time t in [0, ts[-1]], k = bisect_left(ts, t):
    a function f linear between the breakpoints ts, with the values ws, has
    f(t) = (a f(ts[k - 1]) + b f(ts[k])) / d; a = 0 and d = 1 on a breakpoint."""
    k = bisect_left(ts, t)
    if ts[k] == t:
        return k, 0, 1, 1, ws[k]
    a, b, d = ts[k] - t, t - ts[k - 1], ts[k] - ts[k - 1]
    return k, a, b, d, combination((a, b), ws[k - 1:k + 1], d)


# -- scanning piecewise-linear height profiles --------------------------
#
# Both scans work on parallel lists ts/hs of breakpoint times and values;
# between breakpoints the function is linear.  Solutions of h = target are
# one exact Fraction(numerator, denominator) each, never found by tolerance,
# on Fractions or ints (numerators over a common denominator) alike.


def last_time_at(ts: Sequence[Fraction], hs: Sequence[Fraction],
                 target: Fraction, upto: Optional[Fraction] = None) -> Optional[Fraction]:
    """Rightmost t (<= upto if given) with h(t) = target: the first time at
    target of the profile run backwards, t -> T - t with T = ts[-1]."""
    end = ts[-1]
    t = first_time_at([end - s for s in reversed(ts)], hs[::-1], target,
                      0 if upto is None else end - upto)
    return None if t is None else end - t


def first_time_at(ts: Sequence[Fraction], hs: Sequence[Fraction],
                  target: Fraction, start: Fraction) -> Optional[Fraction]:
    """Leftmost t >= start with h(t) = target."""
    for k in range(1, len(ts)):
        t0, t1 = ts[k - 1], ts[k]
        h0, h1 = hs[k - 1], hs[k]
        if t1 < start:
            continue
        if t0 < start:
            h0 = h1 if t1 == start else Fraction(h0 * (t1 - t0) + (h1 - h0) * (start - t0),
                                                 t1 - t0)
            t0 = start
        if h0 == target:
            return t0
        if (h0 - target) * (h1 - target) < 0:
            return Fraction(t0 * (h1 - h0) + (target - h0) * (t1 - t0), h1 - h0)
        if h1 == target:
            return t1
    return None


# -- h-profiles and the operators ---------------------------------------


@dataclass(frozen=True)
class HProfile:
    """The four operator arguments of h_i along a path, with Fraction times.

    ``m`` is the minimal integer attained by h_i, ``f_plus`` the last time h
    hits m, ``f_minus`` the first time >= f_plus hitting m+1 (absent iff
    f_plus = 1).  The e-arguments follow the real or the imaginary convention
    of the index; ``e_defined`` records whether the raising operator applies
    (for an imaginary index after the kills, in the order: f_plus = 1, level
    m+1-a_ii never reached after f_plus, drop to m-a_ii after e_plus)."""

    m: int
    f_plus: Fraction
    f_minus: Optional[Fraction]
    e_plus: Optional[Fraction]
    e_minus: Optional[Fraction]
    e_defined: bool


def _f_data(ctx: WeightContext, i: int, pi: PiecewisePath):
    """(hs, H, m, f_plus, f_minus): h_i(nums[k] / T) = hs[k] / H at the
    breakpoints (hs a tuple of ints), the minimal level m and the
    f-arguments in units of 1/T; the e-data is left to _e_data.  Kept on
    pi per (ctx, i)."""
    data = pi._f_memo.get((ctx, i))
    if data is None:
        ts = pi._nums
        hs, den = ctx.pairings(i, pi._values)
        m = -(-min(hs) // den)
        f_plus = last_time_at(ts, hs, m * den)
        if m > 0 or f_plus is None:  # h(0) = 0, so the level m <= 0 is reached
            raise InvariantViolation(f"h_{i} never reaches its minimal level {m}")
        data = pi._f_memo[ctx, i] = (  # f_minus is None if f_plus = 1
            hs, den, m, f_plus, first_time_at(ts, hs, (m + 1) * den, f_plus))
    return data


def _e_data(ctx: WeightContext, i: int, pi: PiecewisePath):
    """(e_plus, e_minus, e_defined) of HProfile in units of 1/T, from ``_f_data``."""
    ts = pi._nums
    hs, den, m, f_plus, _ = _f_data(ctx, i, pi)
    if ctx.matrix.is_real(i):
        e_plus = first_time_at(ts, hs, m * den, 0)
        return (e_plus, None if e_plus == 0 else last_time_at(ts, hs, (m + 1) * den, e_plus),
                e_plus != 0)
    a = ctx.matrix.entry(i, i)
    e_plus = first_time_at(ts, hs, (m + 1 - a) * den, f_plus)  # None if f_plus = 1
    # h(e_plus) = m + 1 - a lies above m - a, so the minimum after it is at a breakpoint
    return e_plus, f_plus, e_plus is not None and all(
        h > (m - a) * den for h in hs[bisect_right(ts, e_plus):])


def h_profile(ctx: WeightContext, i: int, pi: PiecewisePath) -> HProfile:
    """The operator arguments of h_i on pi, with Fraction times.  Kept on pi per (ctx, i)."""
    prof = pi._f_memo.get((ctx, i, "h"))
    if prof is None:
        _, _, m, f_plus, f_minus = _f_data(ctx, i, pi)
        e_plus, e_minus, e_defined = _e_data(ctx, i, pi)
        prof = pi._f_memo[ctx, i, "h"] = HProfile(
            m, *(None if t is None else Fraction(t, pi._nums[-1])
                 for t in (f_plus, f_minus, e_plus, e_minus)), e_defined)
    return prof


def _three_zone(pi: PiecewisePath, hs: Sequence[int], den: int, i: int,
                u, v, div: int, shift: int) -> PiecewisePath:
    """Rebuild pi, with h_i = hs / den at its breakpoints: unchanged on
    [0,u]; on [u,v] each pi(t) moved by (h_i(t) - h_i(u)) / div alpha_i, that
    is r_i about pi(u) for div = -1 and r_i^{-1} for div = 1 - a_ii; shifted
    by shift alpha_i on [v,1].  u and v are times in units of 1/T, ints or
    Fractions; a cut off the grid refines it.  An affine map of a zone keeps
    the corners inside it, so only the points at u and v are tested for a
    corner."""
    q = lcm(u.denominator, v.denominator)
    ts, ws = pi._nums if q == 1 else [t * q for t in pi._nums], pi._values
    u, v = u.numerator * (q // u.denominator), v.numerator * (q // v.denominator)
    (lo, au, bu, du, wu), (hi, av, bv, dv, wv) = _cut(ts, ws, u), _cut(ts, ws, v)
    # h_i(u) = hu / (den du) and h_i(v) = hv / (den dv)
    hu, hv = au * hs[lo - 1] + bu * hs[lo], av * hs[hi - 1] + bv * hs[hi]
    if hv * du - hu * dv != shift * div * den * du * dv:
        raise InvariantViolation("zone junction mismatch")
    rest = hi + (ts[hi] == v)
    tail = [(t, add_root(w, i, shift)) for t, w in zip(ts[rest:], ws[rest:])]
    out = [*zip(ts[:lo], ws[:lo]), (u, wu),
           *((t, add_root(w, i, h * du - hu, den * du * div))
             for t, w, h in zip(ts[lo:hi], ws[lo:hi], hs[lo:hi]) if t > u),
           (v, add_root(wv, i, shift)), *tail]
    for k in (len(out) - len(tail) - 1, lo):  # the points at v and at u, in this order
        if 0 < k < len(out) - 1 and _collinear(out[k - 1], out[k], out[k + 1]):
            del out[k]
    return _on_grid(out)


def apply_f(ctx: WeightContext, i: int, pi: PiecewisePath) -> Optional[PiecewisePath]:
    """Lowering operator: reflect by r_i between f_plus and f_minus, then
    shift by -alpha_i; absent exactly when h_i never leaves its minimum
    after f_plus.  Kept on pi per (ctx, i)."""
    memo = pi._f_memo
    if (ctx, i, "f") not in memo:
        hs, den, _, f_plus, f_minus = _f_data(ctx, i, pi)
        memo[ctx, i, "f"] = (None if f_plus == pi._nums[-1]
                             else _three_zone(pi, hs, den, i, f_plus, f_minus, -1, -1))
    return memo[ctx, i, "f"]


def apply_e(ctx: WeightContext, i: int, pi: PiecewisePath) -> Optional[PiecewisePath]:
    """Raising operator: reflect between e_minus and e_plus, by r_i for a real
    index and by r_i^{-1} for an imaginary one, then shift by +alpha_i.
    Kept on pi per (ctx, i)."""
    memo = pi._f_memo
    if (ctx, i, "e") not in memo:
        e_plus, e_minus, e_defined = _e_data(ctx, i, pi)
        div = -1 if ctx.matrix.is_real(i) else 1 - ctx.matrix.entry(i, i)
        hs, den = _f_data(ctx, i, pi)[:2]
        memo[ctx, i, "e"] = (_three_zone(pi, hs, den, i, e_minus, e_plus, div, 1)
                             if e_defined else None)
    return memo[ctx, i, "e"]


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
    # times over q T1 T2 for s = p/q: t s on pi1, s + (1 - s) t on pi2
    p, q, end1, end2 = s.numerator, s.denominator, pi1._nums[-1], pi2._nums[-1]
    return PiecewisePath.from_grid(
        [t * p * end2 for t in pi1._nums] + [(p * end2 + (q - p) * t) * end1
                                             for t in pi2._nums[1:]],
        [*pi1._values, *(pi1.weight + v for v in pi2._values[1:])])


def is_integral(ctx: WeightContext, pi: PiecewisePath) -> bool:
    """The global minimum of every h_i is an integer."""
    return all(min(hs) % den == 0
               for hs, den, *_ in (_f_data(ctx, i, pi) for i in ctx.matrix.indices))


def is_monotone(ctx: WeightContext, pi: PiecewisePath, strict: bool = True) -> bool:
    """h_i increases on [f_plus, f_minus] and stays >= m+1 afterwards, for
    every index whose lowering operator is defined.  ``strict=False`` uses
    the weakened form appropriate for joined paths."""
    ts = pi._nums
    for i in ctx.matrix.indices:
        hs, den, m, f_plus, f_minus = _f_data(ctx, i, pi)
        if f_plus == ts[-1]:
            continue
        for k in range(1, len(ts)):
            rise = hs[k] - hs[k - 1]
            if max(ts[k - 1], f_plus) < min(ts[k], f_minus) and (rise < 0 or strict and rise == 0):
                return False
        # h(f_minus) = m + 1, so the minimum after f_minus is at a breakpoint
        if any(h < (m + 1) * den for h in hs[bisect_right(ts, f_minus):]):
            return False
    return True
