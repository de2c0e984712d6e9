"""Test data shared by the test modules: the four non-symmetrizable rank-3
matrices of ROADMAP item 7 (a_12 a_23 a_31 != a_21 a_32 a_13 in each) and a
helper for powers of a reflection."""

# one imaginary index; a_12 = -1 but a_21 = -2
A = [[2, -1, -1], [-2, 2, -1], [-1, -1, -2]]
# one imaginary index and an infinite Weyl group
B = [[2, -2, -1], [-3, 2, -1], [-1, -2, -2]]
# one real index and two imaginary ones
C = [[2, -1, -2], [-1, -1, -1], [-1, -1, -2]]
# all imaginary, with a zero diagonal entry
D = [[-1, -1, -2], [-2, -2, -1], [-1, -1, 0]]


def rpow(ctx, lam, s):
    """r_1^s(lam)."""
    for _ in range(s):
        lam = ctx.reflect(1, lam)
    return lam
