"""Acceptance battery: one test per criterion, exact comparisons throughout.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the one-line
pass/fail report per criterion (every assertion is exact; the stated
runtime budgets are asserted as well).
"""

import time
from fractions import Fraction as F

from glspaths import (GLSPath, TensorElement, apply_e,
                      compare_characters, context_with_base, enumerate_crystal,
                      generate_from, gls_e, hw_crystal_isomorphic, verify_gls)
from glspaths.checks import (FIXTURES, TWO_IMAGINARY, check_ambient_axioms,
                             check_bj_properties, check_crystal_axioms,
                             check_embedding_theorem, check_gls_membership,
                             check_highest_weight_unique,
                             check_inversion_and_weight_shift,
                             check_operator_iteration, check_oracle_equivalence,
                             fixture_context)
from glspaths.crystals import GeneratorSequence

# rank 3 with every off-diagonal entry nonzero and a_12 a_23 a_31 != a_21 a_32 a_13
NON_SYMMETRIZABLE = ([[2, -1, -1], [-2, 2, -1], [-1, -1, -2]],
                     [[2, -1, -2], [-1, -1, -1], [-1, -1, -2]])
# two more, for criterion 4 only: the first has an infinite Weyl group, the
# second is all imaginary with a zero diagonal entry.  Criterion 6's oracle
# check on them would add about 2 s, so they stay out of CHARACTER_CASES.
TENSOR_NON_SYMMETRIZABLE = ([[2, -2, -1], [-3, 2, -1], [-1, -2, -2]],
                            [[-1, -1, -2], [-2, -2, -1], [-1, -1, 0]])

# matrices of criterion 3: (entries, pairing vector, depth)
CHARACTER_CASES = (
    [([[2]], [p], 6) for p in (1, 2, 3)]
    + [([[-k]], [p], 5) for k in (0, 1, 2) for p in (1, 2)]
    + [([[2, -1], [-1, -2]], lam, 4) for lam in ([1, 1], [2, 0])]
    + [([[2, -1], [-2, -2]], lam, 3) for lam in ([1, 1], [2, 0])]
    # break denominators above 2 on most of its 30 nodes
    + [([[2, -1, -1], [-1, -2, 0], [-1, 0, -1]], [2, 1, 3], 3)]
    # the paper's headline setting: matrices that are not symmetrizable
    + [(entries, lam, 6) for entries in NON_SYMMETRIZABLE for lam in ([1, 1, 1], [2, 0, 1])]
)

# the same weights split into two dominant parts for criterion 4
SPLIT_CASES = (
    [([[2]], [1], [0]), ([[2]], [1], [1]), ([[2]], [2], [1])]
    + [([[-k]], [1], [0]) for k in (0, 1, 2)]
    + [([[-k]], [1], [1]) for k in (0, 1, 2)]
    + [([[2, -1], [-1, -2]], [1, 0], [0, 1]),
       ([[2, -1], [-1, -2]], [1, 0], [1, 0]),
       ([[2, -1], [-2, -2]], [1, 0], [0, 1]),
       ([[2, -1], [-2, -2]], [1, 0], [1, 0])]
    # the paper's headline setting, 58 to 121 nodes per side
    + [(entries, left, right) for entries in NON_SYMMETRIZABLE + TENSOR_NON_SYMMETRIZABLE
       for left, right in (([1, 0, 1], [0, 1, 0]), ([1, 0, 0], [1, 0, 1]),
                           ([0, 0, 1], [1, 1, 0]))]
)


def is_symmetrizable(entries):
    """Whether d_i > 0 with d_i a_ij = d_j a_ji exist: fix d = 1 on one index of
    each component of the nonzero off-diagonal pattern, propagate d_j = d_i
    a_ij / a_ji (positive, as both entries are negative) and look for a clash."""
    n, d = len(entries), [None] * len(entries)
    for start in range(n):
        if d[start] is not None:
            continue
        d[start], stack = F(1), [start]
        while stack:
            i = stack.pop()
            for j in (j for j in range(n) if j != i and entries[i][j]):
                want = d[i] * F(entries[i][j], entries[j][i])
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    return False
    return True


def test_which_character_matrices_are_symmetrizable():
    assert not any(is_symmetrizable(entries)
                   for entries in NON_SYMMETRIZABLE + TENSOR_NON_SYMMETRIZABLE)
    others = [entries for entries, _, _ in CHARACTER_CASES if entries not in NON_SYMMETRIZABLE]
    assert all(is_symmetrizable(entries) for entries in others) and len(others) == 14
    # a full 3-cycle alone does not decide it: d = (2, 1, 2) symmetrizes this one
    assert is_symmetrizable([[2, -1, -1], [-2, 2, -2], [-1, -1, 2]])


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"criterion {self.criterion} exceeded {self.seconds}s budget"
        return False


def rpow(ctx, lam, s):
    for _ in range(s):
        lam = ctx.reflect(1, lam)
    return lam


def test_criterion_1_rank_one_reproduction():
    """A = (-1), pairing 2: the crystal is the chain of paths with the
    geometric break points 1/(2*2^(s-1)), ..., 1/2."""
    with Budget(1, 1.0):
        ctx, lam = context_with_base([[-1]], [2])
        graph = enumerate_crystal(ctx, lam, 5)
        assert len(graph) == 6
        m, k = 2, 1
        for s, node in enumerate(graph.nodes):
            el: GLSPath = node.element
            assert el.weights == tuple(rpow(ctx, lam, s - j) for j in range(s + 1))
            expected = (F(0),) + tuple(F(1, m * (k + 1) ** (s - i))
                                       for i in range(1, s + 1)) + (F(1),)
            if s == 0:
                expected = (F(0), F(1))
            assert el.breaks == expected
            assert node.wt == lam - s * ctx.alpha(1)
            if s < 5:
                assert graph.f_image(s, 1) == s + 1


def test_criterion_2_membership_sentence():
    """(r lambda; 0,1) is accepted iff m = 1; (r^s lambda; 0,1) for all
    s <= 4 iff m = 1 and k = 0."""
    with Budget(2, 1.0):
        for m in (1, 2, 3):
            ctx, lam = context_with_base([[-1]], [m])
            candidate = GLSPath(lam, (ctx.reflect(1, lam),), (F(0), F(1)))
            assert bool(verify_gls(ctx, candidate)) == (m == 1)
        for m in (1, 2, 3):
            for k in (0, 1):
                ctx, lam = context_with_base([[-k]], [m])
                ok = all(bool(verify_gls(
                    ctx, GLSPath(lam, (rpow(ctx, lam, s),), (F(0), F(1)))))
                    for s in range(1, 5))
                assert ok == (m == 1 and k == 0)


def test_criterion_3_character_theorem():
    """Crystal characters equal the Weyl-Kac-Borcherds quotient on the
    whole desk-scale matrix battery."""
    with Budget(3, 30.0):
        for entries, pairings, depth in CHARACTER_CASES:
            ctx, lam = context_with_base(entries, pairings)
            report = compare_characters(enumerate_crystal(ctx, lam, depth))
            assert report.equal, (entries, pairings, report.differences)


def test_criterion_4_isomorphism_theorem():
    """The crystal generated by pi_lam (x) pi_mu matches the crystal of
    shape lam+mu at depth 4, for each split of the criterion-3 weights."""
    with Budget(4, 30.0):
        for entries, left, right in SPLIT_CASES:
            ctx, lam = context_with_base(entries, left, extra_bases={"mu": right})
            mu = ctx.base("mu") if any(right) else ctx.weight()
            pair = TensorElement(GLSPath.linear(lam), GLSPath.linear(mu))
            tensor_side = generate_from(ctx, pair, 4)
            sum_side = enumerate_crystal(ctx, lam + mu, 4)
            assert hw_crystal_isomorphic(tensor_side, sum_side), (entries, left, right)


def test_criterion_5_non_strictness_and_kill_zone():
    """Raising witnesses around A = (-1).

    With pairing 2 the ambient raising of the straight path survives while
    the crystal-internal raising vanishes.  With pairing 1 the tensor
    square of the straight path is annihilated by the kill zone, while the
    ambient raising of the doubled straight path survives (and its
    crystal-internal raising vanishes)."""
    with Budget(5, 1.0):
        ctx2, lam2 = context_with_base([[-1]], [2])
        top2 = GLSPath.linear(lam2)
        assert apply_e(ctx2, 1, top2.render()) is not None
        assert gls_e(ctx2, 1, top2) is None
        ctx1, lam1 = context_with_base([[-1]], [1])
        pair = TensorElement(GLSPath.linear(lam1), GLSPath.linear(lam1))
        assert pair.e(ctx1, 1) is None
        doubled = GLSPath.linear(2 * lam1)
        assert apply_e(ctx1, 1, doubled.render()) is not None
        assert gls_e(ctx1, 1, doubled) is None


def test_criterion_6_oracle_equivalence():
    """Closed-form operators coincide with the generic path operators on
    every node of every criterion-3 enumeration; zero mismatches."""
    with Budget(6, 60.0):
        for entries, pairings, depth in CHARACTER_CASES:
            ctx, lam = context_with_base(entries, pairings)
            graph = enumerate_crystal(ctx, lam, depth)
            assert check_oracle_equivalence(graph) == [], (entries, pairings)


def test_criterion_7_invariant_suites():
    """Crystal axioms, category B, normality, integrality/monotonicity,
    inversion, lowering iteration, the B_J(infinity) collision lemma, and
    the embedding samples, all with zero violations; membership, the unique
    highest weight and the crystal axioms also on the non-symmetrizable
    matrices."""
    with Budget(7, 120.0):
        for fx in FIXTURES:
            ctx, lam = fixture_context(fx)
            graph = enumerate_crystal(ctx, lam, 3)
            assert check_crystal_axioms(graph) == [], fx[0]
            assert check_ambient_axioms(ctx, lam) == [], fx[0]
            assert check_gls_membership(graph) == [], fx[0]
            assert check_inversion_and_weight_shift(graph) == [], fx[0]
            assert check_operator_iteration(graph) == [], fx[0]
        # membership on the paper's headline setting: matrices not symmetrizable
        for entries in NON_SYMMETRIZABLE:
            for pairings in ([1, 1, 1], [2, 0, 1]):
                graph = enumerate_crystal(*context_with_base(entries, pairings), 4)
                assert check_gls_membership(graph) == [], (entries, pairings)
                assert check_highest_weight_unique(graph) == [], (entries, pairings)
                assert check_crystal_axioms(graph) == [], (entries, pairings)
        ctx, _ = fixture_context(TWO_IMAGINARY)
        seq = GeneratorSequence(3, (), (1, 2, 3))
        assert check_bj_properties(ctx, seq, depth=4) == []
        emb1, lam1 = context_with_base([[2, -1], [-1, -2]], [0, 2],
                                       extra_bases={"mu": [3, 0]})
        assert check_embedding_theorem(emb1, 1, lam1, emb1.base("mu")) == []
        emb2, lam2 = context_with_base([[2, -1], [-1, -2]], [9, 0],
                                       extra_bases={"mu": [0, 3]})
        assert check_embedding_theorem(emb2, 2, lam2, emb2.base("mu")) == []


def test_criterion_8_scope_statement():
    """Only depth-truncated finite-rank instances are checked; the property
    suites above cover exactly the stated battery."""
    with Budget(8, 1.0):
        ran = {(tuple(map(tuple, e)), tuple(p)) for e, p, _ in CHARACTER_CASES}
        required = {((tuple([2]),), (p,)) for p in (1, 2, 3)}
        required |= {((tuple([-k]),), (p,)) for k in (0, 1, 2) for p in (1, 2)}
        required |= {(((2, -1), (-1, -2)), lam) for lam in ((1, 1), (2, 0))}
        required |= {(((2, -1), (-2, -2)), lam) for lam in ((1, 1), (2, 0))}
        assert required <= ran
        # every checked instance is finite rank and depth-truncated
        assert all(len(e) <= 3 and d <= 6 for e, _, d in CHARACTER_CASES)
