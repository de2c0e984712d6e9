"""Borcherds-Cartan matrices, exact weights and simple reflections.

Everything downstream works over a finite index set I = {1..n} with an
integer matrix A = (a_ij) whose diagonal separates I into real indices
(a_ii = 2) and imaginary ones (a_ii <= 0).  Weights are exact rational
linear combinations of declared base weights and simple roots; the only
data attached to a base weight is its vector of coroot pairings.

Every weight coefficient and every pairing is kept in one exact form
(see ``exact``): an int when it is integral, a Fraction otherwise, never a
float.  Division of such data goes through ``Fraction(p, q)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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


@dataclass(frozen=True)
class Weight:
    """Sparse exact weight: base coefficients plus simple-root coefficients.

    Canonical form (sorted items, zeros dropped, coefficients as ``exact``
    gives them) makes structural equality agree with mathematical equality
    on the represented span.
    """

    base_items: Tuple[Tuple[str, Rational], ...] = ()
    root_items: Tuple[Tuple[int, Rational], ...] = ()

    @property
    def roots(self) -> Dict[int, Rational]:
        return dict(self.root_items)

    def is_zero(self) -> bool:
        return not self.base_items and not self.root_items

    def root_vector(self, n: int) -> Tuple[Rational, ...]:
        d = self.roots
        return tuple(d.get(i, 0) for i in range(1, n + 1))

    def root_height(self) -> Rational:
        return sum(c for _, c in self.root_items)

    def sort_key(self):
        return (self.base_items, self.root_items)

    def __add__(self, other: "Weight") -> "Weight":
        return _combine(self, other, 1)

    def __sub__(self, other: "Weight") -> "Weight":
        return _combine(self, other, -1)

    def __neg__(self) -> "Weight":
        return self * -1

    def __mul__(self, c: Rational) -> "Weight":
        if c == 0:
            return Weight()
        return Weight(tuple((b, exact(v * c)) for b, v in self.base_items),
                      tuple((i, exact(v * c)) for i, v in self.root_items))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Weight({format_weight(self)})"


def weight(bases: Optional[Mapping[str, Rational]] = None,
           roots: Optional[Mapping[int, Rational]] = None) -> Weight:
    """Build a weight in canonical sparse form."""
    bi = tuple(sorted((b, exact(v)) for b, v in (bases or {}).items() if v != 0))
    ri = tuple(sorted((int(i), exact(v)) for i, v in (roots or {}).items() if v != 0))
    return Weight(bi, ri)


def _combine(a: Weight, b: Weight, sign: int) -> Weight:
    bases = dict(a.base_items)
    for name, v in b.base_items:
        bases[name] = bases.get(name, 0) + sign * v
    roots = dict(a.root_items)
    for i, v in b.root_items:
        roots[i] = roots.get(i, 0) + sign * v
    return weight(bases, roots)


def alpha(i: int) -> Weight:
    """The simple root with index i."""
    return weight(roots={i: 1})


def format_weight(w: Weight) -> str:
    """Deterministic text form, e.g. ``lambda-2*a1`` (a_i stands for alpha_i)."""
    if w.is_zero():
        return "0"
    out = ""
    terms = [(c, name) for name, c in w.base_items]
    terms += [(c, f"a{i}") for i, c in w.root_items]
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
    always exists; it is flagged non-integral when some a_ii is odd.
    """

    def __init__(self, matrix: BorcherdsCartanMatrix,
                 bases: Optional[Mapping[str, Sequence[Rational]]] = None,
                 integral_flags: Optional[Mapping[str, bool]] = None):
        self.matrix = matrix
        n = matrix.n
        pairings: Dict[str, Tuple[Rational, ...]] = {}
        for name, vec in (bases or {}).items():
            if name == RHO:
                raise ValueError("base name 'rho' is reserved")
            vec = tuple(exact(v) for v in vec)
            if len(vec) != n:
                raise ValueError(f"base {name!r} has {len(vec)} pairings, expected {n}")
            pairings[name] = vec
        pairings[RHO] = tuple(exact(Fraction(matrix.entry(i, i), 2))
                              for i in matrix.indices)
        flags: Dict[str, bool] = {}
        for name, vec in pairings.items():
            inferred = all(v.denominator == 1 for v in vec)
            declared = (integral_flags or {}).get(name)
            if declared is True and not inferred:
                raise ValueError(f"base {name!r} declared integral but has fractional pairings")
            flags[name] = inferred if declared is None else declared
        self.base_pairings = pairings
        self.integral_flags = flags

    # -- constructors ------------------------------------------------------

    def base(self, name: str) -> Weight:
        if name not in self.base_pairings:
            raise UnknownBase(name)
        return weight(bases={name: 1})

    def rho(self) -> Weight:
        return weight(bases={RHO: 1})

    @property
    def base_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.base_pairings))

    @cached_property
    def orbit_table(self) -> "OrbitTable":
        """Interned orbit weights of this context, created on first use."""
        return OrbitTable(self)

    # -- exact pairing and reflections --------------------------------------

    def pairing(self, i: int, w: Weight) -> Rational:
        """alpha_i^vee(w), extended linearly over bases and roots."""
        if not 1 <= i <= self.matrix.n:
            raise ValueError(f"index {i} out of range")
        total = 0
        for name, c in w.base_items:
            if name not in self.base_pairings:
                raise UnknownBase(name)
            total += c * self.base_pairings[name][i - 1]
        for j, c in w.root_items:
            total += c * self.matrix.entry(i, j)
        return exact(total)

    def reflect(self, i: int, w: Weight) -> Weight:
        """r_i(w) = w - alpha_i^vee(w) alpha_i."""
        return w - self.pairing(i, w) * alpha(i)

    def reflect_inverse(self, i: int, w: Weight) -> Weight:
        """Inverse of r_i for an imaginary index: w + alpha_i^vee(w)/(1-a_ii) alpha_i."""
        if not self.matrix.is_imaginary(i):
            raise ValueError(f"reflect_inverse requires an imaginary index, got {i}")
        a = self.matrix.entry(i, i)
        return w + Fraction(self.pairing(i, w), 1 - a) * alpha(i)

    # -- membership predicates ----------------------------------------------

    def is_dominant(self, w: Weight) -> bool:
        """Nonnegative pairing against every real coroot (imaginary ones ignored)."""
        return all(self.pairing(i, w) >= 0 for i in sorted(self.matrix.real_indices))

    def is_in_P(self, w: Weight) -> bool:
        """Integral pairings everywhere, integer coefficients over integral bases."""
        for name, c in w.base_items:
            if name not in self.base_pairings:
                raise UnknownBase(name)
            if self.integral_flags[name] and c.denominator != 1:
                return False
        return all(self.pairing(i, w).denominator == 1 for i in self.matrix.indices)

    def is_P_plus(self, w: Weight) -> bool:
        return self.is_in_P(w) and all(self.pairing(i, w) >= 0 for i in self.matrix.indices)


class OrbitTable:
    """Path weights of one context, interned to integer ids.  Per id: the
    weight, its pairings ``pairings[i][id]`` and the images r_i(id) and
    r_i^{-1}(id), filled on first use.  Also torbit's per-context caches:
    orbit roots per height bound and dist per (mu, nu, bound)."""

    def __init__(self, ctx: WeightContext):
        self.ctx = ctx
        self.ids: Dict[Weight, int] = {}
        self.weights: List[Weight] = []
        n = ctx.matrix.n
        self.pairings: List[list] = [[] for _ in range(n + 1)]
        # r_i at [i], r_i^{-1} at [n + i]
        self._images: List[Dict[int, int]] = [{} for _ in range(2 * n + 1)]
        self.roots: Dict[int, tuple] = {}
        self.dists: Dict[tuple, Optional[int]] = {}

    def intern(self, w: Weight, pairings: Optional[Sequence[Rational]] = None) -> int:
        """Id of w; pairings, when given, are its coroot pairings."""
        k = self.ids.get(w)
        if k is None:
            if pairings is None:
                pairings = [self.ctx.pairing(i, w) for i in self.ctx.matrix.indices]
            k = self.ids[w] = len(self.weights)
            self.weights.append(w)
            for column, c in zip(self.pairings[1:], pairings):
                column.append(c)
        return k

    def reflect(self, i: int, k: int, inverse: bool = False) -> int:
        """Id of r_i, or of r_i^{-1} (i imaginary), applied to the weight with id k."""
        ctx = self.ctx
        images = self._images[ctx.matrix.n + i if inverse else i]
        image = images.get(k)
        if image is None:
            # the image is w + c alpha_i, so alpha_j^vee of it is alpha_j^vee(w) + c a_ji
            c, entry = self.pairings[i][k], ctx.matrix.entry
            c = Fraction(c, 1 - entry(i, i)) if inverse else -c
            pairings = [exact(self.pairings[j][k] + c * entry(j, i)) for j in ctx.matrix.indices]
            w = (ctx.reflect_inverse if inverse else ctx.reflect)(i, self.weights[k])
            image = images[k] = self.intern(w, pairings)
        return image


def context_with_base(entries: Sequence[Sequence[int]],
                      pairings: Sequence[Rational],
                      name: str = "lambda",
                      imaginary_diag_zero_allowed: bool = True,
                      extra_bases: Optional[Mapping[str, Sequence[Rational]]] = None,
                      ) -> Tuple[WeightContext, Weight]:
    """Validate a matrix and declare one named base weight; returns (ctx, weight)."""
    matrix = validate_matrix(entries, imaginary_diag_zero_allowed)
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
    try:
        matrix = validate_matrix(entries, imaginary_diag_zero_allowed)
    except MatrixError:
        raise
    return matrix, bases


def load_context(path: str, imaginary_diag_zero_allowed: bool = True,
                 extra_bases: Optional[Mapping[str, Sequence[Rational]]] = None,
                 ) -> WeightContext:
    with open(path, "r", encoding="utf-8") as fh:
        matrix, bases = parse_context_text(fh.read(), imaginary_diag_zero_allowed)
    merged = dict(bases)
    merged.update(extra_bases or {})
    return WeightContext(matrix, merged)


def offset_vector(higher: Weight, lower: Weight, n: int) -> Tuple[Rational, ...]:
    """Coefficients c with higher - lower = sum c_i alpha_i; bases must cancel."""
    diff = higher - lower
    if diff.base_items:
        raise ValueError(f"weights differ in base part: {format_weight(diff)}")
    return diff.root_vector(n)


