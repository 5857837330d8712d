"""Reference implementations that the differential tests compare against.

They are the earlier, simpler forms of library routines: a reduced row
echelon solve, and the level solver that rebuilds and re-solves its whole
basis for each degree limit.  Only tests use them.
"""

from fractions import Fraction

from cyclade.exact import QPolynomial, euler_phi
from cyclade.measures import basic_measure, density_measure


def rref_solve(rows, rhs):
    """Solve A x = b by reduced row echelon form: the canonical solution with
    free variables zero, None when inconsistent, [] for no rows."""
    m = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    if not m:
        return []
    ncols = len(m[0]) - 1
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = m[i][ncols]
    return sol


def expand_over_level_loop(e, limit):
    """The expansion over uniform measures and degree <= limit densities on
    the divisor supports, with the whole basis built and solved at once."""
    support = e.minimal_support_order()
    if support is None:
        return {}
    n = support // 2
    order = e.order
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    labels = [(0, m) for m in divisors]
    for l in range(1, limit + 1):
        labels += [(l, m) for m in divisors if m > l]
    basis = []
    for l, m in labels:
        if l == 0:
            basis.append(basic_measure("d", m).embed(order))
        else:
            poly = QPolynomial([1] + [0] * (l - 1) + [-1])
            basis.append(density_measure(poly, "d", m).embed(order))
    positions = [t * (order // support) for t in range(support // 4 + 1)]
    phi = euler_phi(order)
    rows, rhs = [], []
    for j in positions:
        for i in range(phi):
            row = [b.reps[j].coeffs[i] for b in basis]
            value = e.reps[j].coeffs[i]
            if any(row) or value:
                rows.append(row)
                rhs.append(value)
    if not rows:
        return {}
    sol = rref_solve(rows, rhs)
    if sol is None:
        return None
    return {lab: c for lab, c in zip(labels, sol) if c != 0}


def level_loop(e):
    """The least limit with a feasible expansion, trying 0, 1, ... in turn."""
    support = e.minimal_support_order()
    if support is None:
        return 0
    for limit in range(support // 2):
        if expand_over_level_loop(e, limit) is not None:
            return limit
    raise ArithmeticError("measure admits no rational expansion")
