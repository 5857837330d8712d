"""Reference implementations that the differential tests compare against.

They are the earlier, simpler forms of library routines: a reduced row
echelon solve, the level solver that rebuilds and re-solves its whole basis
for each degree limit, cyclotomic polynomials by polynomial division, the
two-product loop counts, both theta routes as an integer binomial sum and
as Horner's rule with running alternating sums, the closed-form T series in
Fraction lists, and the T series and the expansion from one moment call per
coefficient.  Only tests use them.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from cyclade.exact import (
    PowerSeries,
    QPolynomial,
    cyclo_as_rational,
    euler_phi,
    series_from_integers,
)
from cyclade.measures import ExpansionResult, basic_measure, density_measure, moment


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


def divide_monic(a, b):
    """The quotient of the integer coefficient list a by the monic list b,
    constant terms first, by long division; the remainder must be zero."""
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        f = rem[shift + len(b) - 1]
        quo[shift] = f
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
    assert not any(rem), "division has a remainder"
    return quo


@lru_cache(maxsize=None)
def _cyclotomic_ints_by_division(order):
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly = divide_monic(poly, _cyclotomic_ints_by_division(d))
    return poly


def cyclotomic_poly_by_division(order):
    """x**order - 1 divided by the cyclotomic polynomials of the lower
    divisors, each a monic integer list, by integer long division."""
    return QPolynomial(_cyclotomic_ints_by_division(order))


def loop_counts_two_products(graph, count):
    """(A^(2k))_rr read off A^(2k) e_r, two products with A per entry."""
    neighbours = [Counter(nbrs).items() for nbrs in graph.neighbours]
    vec = [0] * graph.vertex_count
    vec[graph.root] = 1
    out = [1]
    for _ in range(count):
        for _ in range(2):
            vec = [sum(m * vec[v] for v, m in nbrs) for nbrs in neighbours]
        out.append(vec[graph.root])
    return out


def theta_formula_binomials(counts, order):
    """theta_r = sum_k (-1)^(r-k) 2r/(r+k) C(r+k, r-k) c_k in integers over
    the denominator D of the counts, C(r+k, r-k) built along each row; the
    r = 0 entry is c_0 and D is added at r = 1."""
    c, d = counts.nums[: order + 1], counts.den
    signed = [x if k % 2 == 0 else -x for k, x in enumerate(c)]
    out = [c[0]]
    for r in range(1, order + 1):
        acc = 0
        binom = 1
        for k in range(r + 1):
            acc += 2 * r * binom // (r + k) * signed[k]
            binom = binom * (r + k + 1) * (r - k) // ((2 * k + 1) * (2 * k + 2))
        out.append(acc if r % 2 == 0 else -acc)
    if order >= 1:
        out[1] += d
    return series_from_integers(out, d)


def _over_one_plus_q(a):
    return list(accumulate(a, lambda s, x: x - s))


def theta_subst_alternating_sums(counts, order):
    """q + (1-q)/(1+q) F(q/(1+q)^2) by Horner's rule h <- c_i + g h, each
    division by (1+q) a running alternating sum, in integers over D."""
    c, d = counts.nums[: order + 1], counts.den
    h = []
    for i in range(order, -1, -1):
        h = [c[i]] + _over_one_plus_q(_over_one_plus_q(h))
    out = _over_one_plus_q([x - y for x, y in zip(h, [0] + h)])
    if order >= 1:
        out[1] += d
    return series_from_integers(out, d)


def t_closed_form_by_fractions(poly, n, variant, order):
    """(P(q) +- q^n P(1/q)) / ((1-q)(1 -+ q^n)) in Fraction lists: P padded
    to length n + 1 plus or minus its reversal, truncated or padded to the
    order, then one running sum and one running sum with stride n."""
    sign = 1 if variant == "unprimed" else -1
    p = list(poly.coeffs) + [Fraction(0)] * (n + 1 - len(poly.coeffs))
    out = [p[s] + sign * p[n - s] for s in range(n + 1)]
    out = (out + [Fraction(0)] * order)[: order + 1]
    for i in range(1, order + 1):
        out[i] += out[i - 1]
    for i in range(n, order + 1):
        out[i] += sign * out[i - n]
    return PowerSeries(order, out)


def t_series_by_moments(e, order):
    """Twice moment 2k for k up to min(order, N/2 - 1), one moment call
    each, repeated with period N/2; the first entry less 1, then Fraction
    prefix sums."""
    period = e.order // 2
    block = [2 * cyclo_as_rational(moment(e, 2 * k)) for k in range(min(order, period - 1) + 1)]
    doubled = [block[k % period] for k in range(order + 1)]
    doubled[0] -= 1
    return PowerSeries(order, accumulate(doubled))


def expansion_by_moments(e, n):
    """The expansion over the uniform measure and the densities 1 - u^(2l)
    at support parameter n, from one moment call per row and one RREF solve
    of the whole system; the caller checks that the support order of e
    divides 2n."""
    labels = [0] + list(range(1, n // 2 + 1))
    rows = []
    for k in range(n):
        row = [Fraction(2 if k == 0 else 0) for _ in labels]
        for j, l in enumerate(labels):
            if l and k in (l, n - l):
                row[j] -= 2 if 2 * l == n else 1
        rows.append(row)
    sol = rref_solve(rows, [2 * cyclo_as_rational(moment(e, 2 * k)) for k in range(n)])
    return ExpansionResult(n, {} if sol is None else dict(zip(labels, sol)), sol is not None)
