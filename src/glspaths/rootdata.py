"""Borcherds-Cartan matrices, exact weights and simple reflections.

Everything downstream works over a finite index set I = {1..n} with an
integer matrix A = (a_ij) whose diagonal separates I into real indices
(a_ii = 2) and imaginary ones (a_ii <= 0).  Weights are exact rational
linear combinations of declared base weights and simple roots, stored as
dense vectors over their context's basis; the only data attached to a base
weight is its vector of coroot pairings, so a pairing is a dot product.

Every weight coefficient and every pairing is kept in one exact form
(see ``exact``): an int when it is integral, a Fraction otherwise, never a
float.  Division of such data goes through ``Fraction(p, q)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, mul, sub
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Rational = Union[int, Fraction]

RHO = "rho"


class MatrixError(ValueError):
    """A candidate matrix violates one of the Borcherds-Cartan axioms."""


class AxisViolation(MatrixError):
    def __init__(self, i: int, j: int, axiom: str):
        self.i, self.j, self.axiom = i, j, axiom
        super().__init__(f"AxisViolation({i},{j}): {axiom}")


class AsymmetricZero(MatrixError):
    def __init__(self, i: int, j: int):
        self.i, self.j = min(i, j), max(i, j)
        super().__init__(f"AsymmetricZero({self.i},{self.j}): exactly one of "
                         f"a_{self.i}{self.j}, a_{self.j}{self.i} vanishes")


class UnknownBase(KeyError):
    pass


class MatrixFormatError(ValueError):
    """Malformed matrix file; carries line/column diagnostics."""

    def __init__(self, line: int, column: int, message: str):
        self.line, self.column = line, column
        super().__init__(f"line {line}, column {column}: {message}")


class InvariantViolation(RuntimeError):
    """A computed value breaks an invariant the mathematics guarantees."""


class NonIntegralOffset(InvariantViolation):
    """A root offset failed to be the expected integer vector."""


def exact(x: Rational) -> Rational:
    """x in the canonical exact form: an int when integral, else a Fraction."""
    try:
        return x.numerator if x.denominator == 1 else x
    except AttributeError:  # a float, say
        raise TypeError(f"not an exact rational: {x!r}") from None


@dataclass(frozen=True)
class BorcherdsCartanMatrix:
    """Validated integer matrix with its real/imaginary index partition."""

    n: int
    entries: Tuple[Tuple[int, ...], ...]
    real_indices: frozenset
    imaginary_indices: frozenset

    def entry(self, i: int, j: int) -> int:
        return self.entries[i - 1][j - 1]

    @property
    def indices(self) -> range:
        return range(1, self.n + 1)

    def is_real(self, i: int) -> bool:
        return i in self.real_indices

    def is_imaginary(self, i: int) -> bool:
        return i in self.imaginary_indices


def validate_matrix(entries: Sequence[Sequence[int]],
                    imaginary_diag_zero_allowed: bool = True) -> BorcherdsCartanMatrix:
    """Check the three Borcherds-Cartan axioms and derive the index partition.

    A diagonal entry must be 2 (real index) or a nonpositive integer
    (imaginary index); with ``imaginary_diag_zero_allowed`` false, 0 is
    rejected as well.  Off-diagonal entries are nonpositive integers and
    vanish symmetrically.
    """
    n = len(entries)
    if n == 0:
        raise MatrixError("empty matrix")
    rows = []
    for r, row in enumerate(entries, start=1):
        if len(row) != n:
            raise MatrixError(f"row {r} has {len(row)} entries, expected {n}")
        for c, a in enumerate(row, start=1):
            if not isinstance(a, int) or isinstance(a, bool):
                raise MatrixError(f"entry ({r},{c}) is not an integer")
        rows.append(tuple(row))
    real, imaginary = set(), set()
    for i in range(1, n + 1):
        a = rows[i - 1][i - 1]
        if a == 2:
            real.add(i)
        elif a < 0:
            imaginary.add(i)
        elif a == 0:
            if not imaginary_diag_zero_allowed:
                raise AxisViolation(i, i, "zero diagonal entries are disabled")
            imaginary.add(i)
        else:
            raise AxisViolation(i, i, f"diagonal entry {a} is neither 2 nor nonpositive")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            a = rows[i - 1][j - 1]
            if a > 0:
                raise AxisViolation(i, j, f"off-diagonal entry {a} is positive")
            if a == 0 and rows[j - 1][i - 1] != 0:
                raise AsymmetricZero(i, j)
    return BorcherdsCartanMatrix(n, tuple(rows), frozenset(real), frozenset(imaginary))


class Weight:
    """Dense exact weight over its context's basis: the declared base weights
    in name order (``names``), then alpha_1..alpha_n.  Coefficient k is
    ``nums[k] / den``, in lowest terms with den > 0, so structural equality is
    mathematical equality.  Made only by a context (``WeightContext.weight``,
    ``alpha``, ``base``, ``rho``) and by the arithmetic below; a coroot is kept
    in the same form, as its values on the basis (see ``pair``).  Never changed
    after construction; the hash and the sparse ``sort_key`` are cached in
    slots on first use."""

    __slots__ = ("names", "den", "nums", "_key", "_hash")

    def __init__(self, names: Tuple[str, ...], den: int, nums: Tuple[int, ...]):
        self.names, self.den, self.nums = names, den, nums
        self._key = self._hash = None

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den and self.names == other.names

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.den, self.nums))
        return self._hash

    def is_zero(self) -> bool:
        return not any(self.nums)

    def root_vector(self) -> Tuple[Rational, ...]:
        """The coefficients of alpha_1..alpha_n."""
        roots = self.nums[len(self.names):]
        return roots if self.den == 1 else tuple(_over(x, self.den) for x in roots)

    def root_height(self) -> Rational:
        return _over(sum(self.nums[len(self.names):]), self.den)

    def sort_key(self):
        """(base_items, root_items): the nonzero coefficients as (name, c) and
        (i, c) pairs, in the exact form; the canonical sparse order of weights."""
        if self._key is None:
            k, den = len(self.names), self.den
            self._key = (tuple((b, _over(x, den)) for b, x in zip(self.names, self.nums) if x),
                         tuple((i, _over(x, den)) for i, x in enumerate(self.nums[k:], 1) if x))
        return self._key

    def __add__(self, other: "Weight") -> "Weight":
        names, den, a, b = _common(self, other)
        return _reduced(names, den, tuple(map(add, a, b)))

    def __sub__(self, other: "Weight") -> "Weight":
        names, den, a, b = _common(self, other)
        return _reduced(names, den, tuple(map(sub, a, b)))

    def __neg__(self) -> "Weight":
        return self * -1

    def __mul__(self, c: Rational) -> "Weight":
        c = exact(c)
        return _reduced(self.names, self.den * c.denominator,
                        tuple(x * c.numerator for x in self.nums))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Weight({format_weight(self)})"


def _over(c: int, den: int) -> Rational:
    """c / den in the exact form."""
    q, r = divmod(c, den)
    return Fraction(c, den) if r else q


def _reduced(names: Tuple[str, ...], den: int, nums: Tuple[int, ...]) -> Weight:
    """The weight nums / den (den > 0) in lowest terms."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den, nums = den // g, tuple(x // g for x in nums)
    return Weight(names, den, nums)


def _vector(names: Tuple[str, ...], values: Sequence[Rational]) -> Weight:
    """The weight with the exact coefficients values over the basis names."""
    den = lcm(*(v.denominator for v in values))
    return _reduced(names, den, tuple(v.numerator * (den // v.denominator) for v in values))


def _basis(a: Weight, b: Weight) -> Tuple[str, ...]:
    """The basis of a and b; UnknownBase if they have different ones."""
    if a.names is not b.names and (a.names != b.names or len(a.nums) != len(b.nums)):
        raise UnknownBase(f"weights over different bases {a.names} and {b.names}")
    return a.names


def _common(a: Weight, b: Weight):
    """(basis, D, the numerators of a over D, those of b), D the lcm of the denominators."""
    names = _basis(a, b)
    if a.den == b.den:
        return names, a.den, a.nums, b.nums
    den = lcm(a.den, b.den)
    p, q = den // a.den, den // b.den
    return names, den, [x * p for x in a.nums], [y * q for y in b.nums]


def pair(f: Weight, w: Weight) -> Rational:
    """f(w) for a functional f given by its values on the basis (a coroot):
    one dot product, in the exact form."""
    _basis(f, w)
    return _over(sum(map(mul, f.nums, w.nums)), f.den * w.den)


def combination(coeffs: Iterable[int], weights: Sequence[Weight], den: int) -> Weight:
    """sum_k coeffs[k] weights[k] / den for int coefficients, over one basis: one
    numerator sum per coordinate over m den, m the lcm of the weights' dens."""
    first, m = weights[0], 1
    for w in weights:
        if w.names is not first.names:
            _basis(first, w)
        if w.den != 1:
            m = lcm(m, w.den)
    coeffs = list(coeffs) if m == 1 else [c * (m // w.den) for c, w in zip(coeffs, weights)]
    return _reduced(first.names, den * m, tuple([sum(map(mul, coeffs, column))
                                                 for column in zip(*[w.nums for w in weights])]))


def partial_sums(coeffs: Iterable[int], weights: Sequence[Weight], den: int) -> Tuple[Weight, ...]:
    """(sum_{j < k} coeffs[j] weights[j] / den for k = 0..len(weights)) over
    one basis: running numerator sums, each reduced once."""
    first, m = weights[0], lcm(*(w.den for w in weights))
    acc, out = (0,) * len(first.nums), [first * 0]
    for c, w in zip(coeffs, weights):
        c *= m // w.den
        acc = tuple(x + c * y for x, y in zip(acc, w.nums))
        out.append(_reduced(_basis(first, w), den * m, acc))
    return tuple(out)


def add_root(w: Weight, i: int, c: Rational, d: int = 1) -> Weight:
    """w + (c / d) alpha_i for a nonzero int d: one numerator changes."""
    if not c:
        return w
    c = exact(c)
    p, q = (c.numerator, c.denominator * d) if d > 0 else (-c.numerator, -c.denominator * d)
    den, nums = w.den, list(w.nums)
    if den % q:
        den = lcm(den, q)
        nums = [x * (den // w.den) for x in nums]
    nums[len(w.names) + i - 1] += p * (den // q)
    return _reduced(w.names, den, tuple(nums))


def format_weight(w: Weight) -> str:
    """Deterministic text form, e.g. ``lambda-2*a1`` (a_i stands for alpha_i)."""
    base_items, root_items = w.sort_key()
    if not base_items and not root_items:
        return "0"
    out = ""
    terms = [(c, name) for name, c in base_items]
    terms += [(c, f"a{i}") for i, c in root_items]
    for c, sym in terms:
        if c < 0:
            out += "-"
            c = -c
        elif out:
            out += "+"
        if c != 1:
            out += f"{c}*"
        out += sym
    return out


class WeightContext:
    """A matrix with named base weights, each given by its pairing vector.

    The distinguished base ``rho`` (pairing a_ii/2 against every coroot)
    always exists; it is flagged non-integral when some a_ii is odd.  The
    basis of the context's weights is ``base_names``, then alpha_1..alpha_n;
    ``coroots[i]`` is alpha_i^vee written over it.
    """

    def __init__(self, matrix: BorcherdsCartanMatrix, bases: Mapping[str, Sequence[Rational]]):
        self.matrix = matrix
        n = matrix.n
        pairings: Dict[str, Tuple[Rational, ...]] = {}
        for name, vec in bases.items():
            if name == RHO:
                raise ValueError("base name 'rho' is reserved")
            vec = tuple(exact(v) for v in vec)
            if len(vec) != n:
                raise ValueError(f"base {name!r} has {len(vec)} pairings, expected {n}")
            pairings[name] = vec
        pairings[RHO] = tuple(exact(Fraction(matrix.entry(i, i), 2))
                              for i in matrix.indices)
        self.base_pairings = pairings
        self.base_names = names = tuple(sorted(pairings))
        self._integral = [all(v.denominator == 1 for v in pairings[name]) for name in names]
        # alpha_i^vee over the basis: its pairing with each base, then a_ij
        self.coroots = [None] + [_vector(names, [pairings[name][i - 1] for name in names]
                                         + [matrix.entry(i, j) for j in matrix.indices])
                                 for i in matrix.indices]
        self._alphas = [None] + [self.weight(roots={i: 1}) for i in matrix.indices]

    # -- constructors ------------------------------------------------------

    def weight(self, bases: Optional[Mapping[str, Rational]] = None,
               roots: Optional[Mapping[int, Rational]] = None) -> Weight:
        """sum_b c_b b + sum_i c_i alpha_i over this context's basis; UnknownBase
        for an undeclared base, TypeError for a float coefficient."""
        names, n = self.base_names, self.matrix.n
        values = [0] * (len(names) + n)
        for name, c in (bases or {}).items():
            if name not in self.base_pairings:
                raise UnknownBase(name)
            values[names.index(name)] = exact(c)
        for i, c in (roots or {}).items():
            if not 1 <= i <= n:
                raise ValueError(f"index {i} out of range")
            values[len(names) + i - 1] = exact(c)
        if all(type(v) is int for v in values):  # already in lowest terms over 1
            return Weight(names, 1, tuple(values))
        return _vector(names, values)

    def alpha(self, i: int) -> Weight:
        """The simple root with index i."""
        if not 1 <= i <= self.matrix.n:
            raise ValueError(f"index {i} out of range")
        return self._alphas[i]

    def base(self, name: str) -> Weight:
        return self.weight(bases={name: 1})

    def rho(self) -> Weight:
        return self.base(RHO)

    @cached_property
    def orbit_table(self) -> "OrbitTable":
        """Interned orbit weights of this context, created on first use."""
        return OrbitTable(self)

    # -- exact pairing and reflections --------------------------------------

    def pairing(self, i: int, w: Weight) -> Rational:
        """alpha_i^vee(w): a dot product with the coroot's values on the basis."""
        if not 1 <= i <= self.matrix.n:
            raise ValueError(f"index {i} out of range")
        return pair(self.coroots[i], w)

    def pairings(self, i: int, ws: Sequence[Weight]) -> Tuple[Tuple[int, ...], int]:
        """(hs, H) with alpha_i^vee(ws[k]) = hs[k] / H, H the least common denominator."""
        if not 1 <= i <= self.matrix.n:
            raise ValueError(f"index {i} out of range")
        f, m = self.coroots[i], lcm(*(w.den for w in ws))
        for w in ws:
            _basis(f, w)
        hs = [sum(map(mul, f.nums, w.nums)) * (m // w.den) for w in ws]
        g = gcd(f.den * m, *hs)
        return tuple(h // g for h in hs), f.den * m // g

    def reflect(self, i: int, w: Weight) -> Weight:
        """r_i(w) = w - alpha_i^vee(w) alpha_i."""
        return add_root(w, i, -self.pairing(i, w))

    def reflect_inverse(self, i: int, w: Weight) -> Weight:
        """Inverse of r_i for an imaginary index: w + alpha_i^vee(w)/(1-a_ii) alpha_i."""
        if not self.matrix.is_imaginary(i):
            raise ValueError(f"reflect_inverse requires an imaginary index, got {i}")
        return add_root(w, i, Fraction(self.pairing(i, w), 1 - self.matrix.entry(i, i)))

    # -- membership predicates ----------------------------------------------

    def is_in_P(self, w: Weight) -> bool:
        """Integral pairings everywhere, integer coefficients over integral bases."""
        if any(self.pairing(i, w).denominator != 1 for i in self.matrix.indices):
            return False
        return not any(flag and x % w.den for flag, x in zip(self._integral, w.nums))

    def is_P_plus(self, w: Weight) -> bool:
        return self.is_in_P(w) and all(self.pairing(i, w) >= 0 for i in self.matrix.indices)


class OrbitTable:
    """Path weights of one context, interned to integer ids.  Per id: the weight, its
    pairings ``pairings[i][id]``, its packed form ``packs[id]`` for ``packed_offset``, and
    the images r_i(id) and r_i^{-1}(id), filled on first use: an r_i image with an int
    pairing c moves one numerator, its pairings p_j - c a_ji and its pack follow in ints.
    Also torbit's per-context caches: orbit roots per height bound (inf when complete),
    dist per (mu, nu) and a-chain search results per (p, q, id of mu, id of nu), level
    p/q in lowest terms, frozen, shared."""

    width = 64  # W, the bits per coordinate of a packed weight

    def __init__(self, ctx: WeightContext):
        self.matrix = matrix = ctx.matrix
        self.coroots = ctx.coroots  # not the context: the context owns the table
        self.ids: Dict[Weight, int] = {}
        self.weights: List[Weight] = []
        n, k = matrix.n, len(ctx.base_names)
        self.pairings: List[list] = [[] for _ in range(n + 1)]
        # r_i at [i], r_i^{-1} at [n + i]
        self._images: List[Dict[int, int]] = [{} for _ in range(2 * n + 1)]
        self.packs, self.pack_size = [], 0  # P(weight) or None per id; the largest |numerator|
        self._shifts = [1 << (self.width * j) for j in range(k + n)]  # 2^(W j) at basis index j
        self._root_shifts, self._alpha_at = self._shifts[k:], k  # basis index of alpha_1
        self.roots: Dict[float, tuple] = {}
        self.dists: Dict[tuple, Optional[int]] = {}
        self.chains: Dict[tuple, object] = {}

    def intern(self, w: Weight) -> int:
        """Id of w; a new weight gets its coroot pairings."""
        k = self.ids.get(w)
        if k is None:  # pairings first: over another basis the first one raises
            for column, coroot in zip(self.pairings[1:], self.coroots[1:]):
                column.append(pair(coroot, w))
            k = self.ids[w] = len(self.weights)
            self.weights.append(w)  # P(w) = sum_j nums_j 2^(W j), W = width
            self.packs.append(sum(map(mul, w.nums, self._shifts)) if w.den == 1 else None)
            self.pack_size = max(self.pack_size, *map(abs, w.nums))
        return k

    def reflect(self, i: int, k: int, inverse: bool = False) -> int:
        """Id of r_i, or of r_i^{-1} (i imaginary), applied to the weight with id k."""
        images = self._images[self.matrix.n + i if inverse else i]
        image = images.get(k)
        if image is None:
            c, w = self.pairings[i][k], self.weights[k]
            if inverse or type(c) is not int:
                c = Fraction(c, 1 - self.matrix.entry(i, i)) if inverse else -c
                image = images[k] = self.intern(add_root(w, i, c))
            else:  # one numerator moves by -c den; gcd(den, x - c den) = gcd(den, x)
                at, nums = self._alpha_at + i - 1, list(w.nums)
                nums[at] -= c * w.den
                r = Weight(w.names, w.den, tuple(nums))
                image = images[k] = self.ids.setdefault(r, len(self.weights))
                if image == len(self.weights):
                    self.weights.append(r)
                    for column, row in zip(self.pairings[1:], self.matrix.entries):
                        column.append(column[k] - c * row[i - 1])  # a_ji
                    p = self.packs[k]
                    self.packs.append(None if p is None else p - c * self._shifts[at])
                    self.pack_size = max(self.pack_size, abs(nums[at]))
        return image

    def packed_offset(self, top: int, ids: Sequence[int], nums: Sequence[int],
                      vec: Sequence[int]) -> Optional[bool]:
        """Whether T - sum_k d_k nu_k / D is the root vector vec (n ints), for T, nu_k the
        weights of ids top, ids[k], d_k = nums[k+1] - nums[k] > 0 and D = nums[-1]; None if
        T or a nu_k is fractional or the bound D (S + max|vec|) < 2^(W-1) fails, S = pack_size
        >= every |numerator| in the table.  Proof: the claim is x = y for the int vectors
        x = D (T - V), V = (base 0, roots vec), and y = sum_k d_k nu_k.  P is linear: P(x) =
        D (P(T) - P(V)), P(y) = sum_k d_k P(nu_k).  Each |x_j|, |y_j| is at most D (S +
        max|vec|) < 2^(W-1), and P is injective there: x_0 is P(x) mod 2^W taken in
        (-2^(W-1), 2^(W-1)), and (P(x) - x_0) / 2^W is P of the rest.  So P(x) = P(y)
        exactly when x = y."""
        packs = self.packs
        ps, t, den = list(map(packs.__getitem__, ids)), packs[top], nums[-1]
        bound = den * (self.pack_size + max(map(abs, vec)))
        if t is None or None in ps or bound >> (self.width - 1):
            return None
        return (den * (t - sum(map(mul, vec, self._root_shifts)))
                == sum(map(mul, map(sub, nums[1:], nums), ps)))


def context_with_base(entries: Sequence[Sequence[int]],
                      pairings: Sequence[Rational],
                      name: str = "lambda",
                      extra_bases: Optional[Mapping[str, Sequence[Rational]]] = None,
                      ) -> Tuple[WeightContext, Weight]:
    """Validate a matrix and declare one named base weight; returns (ctx, weight)."""
    matrix = validate_matrix(entries)
    bases = {name: pairings}
    bases.update(extra_bases or {})
    ctx = WeightContext(matrix, bases)
    return ctx, ctx.base(name)


# -- matrix file format --------------------------------------------------
#
# line 1:        n
# lines 2..n+1:  n space-separated integers each
# optional:      a line "bases:" followed by lines "name p_1 ... p_n"
#                with rational entries "p/q"


def parse_context_text(text: str,
                       imaginary_diag_zero_allowed: bool = True,
                       ) -> Tuple[BorcherdsCartanMatrix, Dict[str, Tuple[Fraction, ...]]]:
    lines = text.splitlines()
    rows_seen = [(no, line) for no, line in enumerate(lines, start=1) if line.strip()]
    if not rows_seen:
        raise MatrixFormatError(1, 1, "empty file")
    pos = 0

    def next_line():
        nonlocal pos
        if pos >= len(rows_seen):
            raise MatrixFormatError(len(lines) + 1, 1, "unexpected end of file")
        no, line = rows_seen[pos]
        pos += 1
        return no, line.split()

    no, tokens = next_line()
    if len(tokens) != 1:
        raise MatrixFormatError(no, 2, "expected a single rank on the first line")
    try:
        n = int(tokens[0])
    except ValueError:
        raise MatrixFormatError(no, 1, f"invalid rank {tokens[0]!r}") from None
    if n <= 0:
        raise MatrixFormatError(no, 1, f"rank must be positive, got {n}")
    entries = []
    for _ in range(n):
        no, tokens = next_line()
        if len(tokens) != n:
            raise MatrixFormatError(no, min(len(tokens), n) + 1,
                                    f"expected {n} integers, got {len(tokens)}")
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                row.append(int(tok))
            except ValueError:
                raise MatrixFormatError(no, col, f"invalid integer {tok!r}") from None
        entries.append(row)
    bases: Dict[str, Tuple[Fraction, ...]] = {}
    if pos < len(rows_seen):
        no, tokens = next_line()
        if tokens != ["bases:"]:
            raise MatrixFormatError(no, 1, f"expected 'bases:', got {' '.join(tokens)!r}")
        while pos < len(rows_seen):
            no, tokens = next_line()
            if len(tokens) != n + 1:
                raise MatrixFormatError(no, len(tokens) + 1,
                                        f"expected a name and {n} rationals")
            name = tokens[0]
            if name in bases:
                raise MatrixFormatError(no, 1, f"duplicate base name {name!r}")
            vec = []
            for col, tok in enumerate(tokens[1:], start=2):
                try:
                    vec.append(Fraction(tok))
                except (ValueError, ZeroDivisionError):
                    raise MatrixFormatError(no, col, f"invalid rational {tok!r}") from None
            bases[name] = tuple(vec)
    return validate_matrix(entries, imaginary_diag_zero_allowed), bases


def load_context(path: str, imaginary_diag_zero_allowed: bool,
                 extra_bases: Mapping[str, Sequence[Rational]]) -> WeightContext:
    with open(path, "r", encoding="utf-8") as fh:
        matrix, bases = parse_context_text(fh.read(), imaginary_diag_zero_allowed)
    merged = dict(bases)
    merged.update(extra_bases)
    return WeightContext(matrix, merged)


def offset_vector(higher: Weight, lower: Weight) -> Tuple[Rational, ...]:
    """Coefficients c with higher - lower = sum c_i alpha_i; bases must cancel."""
    d = higher - lower
    if any(d.nums[:len(d.names)]):
        raise ValueError(f"weights differ in base part: {format_weight(d)}")
    return d.root_vector()
