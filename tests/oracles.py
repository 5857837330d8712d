"""Reference implementations that the differential tests compare against.

They are the earlier, simpler forms of library routines: a reduced row
echelon solve, the level solver that rebuilds and re-solves its whole basis
for each degree limit, cyclotomic polynomials by polynomial division, the
two-product loop counts, both theta routes as an integer binomial sum and
as Horner's rule with running alternating sums, the formula route as an
additions-only recurrence over the rows of its weights, the closed-form T
series in Fraction lists, the T series and the expansion from one moment per
coefficient, each a dense sum over the weights, pushforward moments by
cyclotomic powering, the sign of a real cyclotomic number at 60 digits,
positive semidefiniteness by principal minors, a linear combination of
measures summed in one pass over their moment sequences, a density measure
as one sum over every moment and every coefficient, an expansion rebuilt
by summing whole moment columns, embed as a repeated period reduced again
to lowest terms, the graph measure
table as rows of (coefficient, atom name, base kind, parameter), and the
rooted graphs built family by family, each root where its own
construction put it, from (u, v, multiplicity) edges by a two-colouring
that refuses a disconnected graph, a self-loop or an edge inside one colour;
root_of_unity,
which builds the powers of a root that tests start from, weights_of, all N
weights of a measure, rational_by_constructor, a rational element through the public
constructor, and the series q^k and the truncation to a lower order.  Only
tests use them.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations

import mpmath

from cyclade.exact import (
    CyclotomicNumber,
    OrderMismatch,
    PowerSeries,
    cyclo_as_rational,
    cyclo_from_integers,
    cyclo_make,
    euler_phi,
    series_from_integers,
    _check_order,
    _normalized,
    _over_lcm,
)
from cyclade.graphs import RootedBipartiteGraph, _distances
from cyclade.measures import (
    CyclotomicMeasure,
    ExpansionResult,
    atom_measure,
    basic_measure,
    density_measure,
    _moment_column,
)


def monomial(k, order):
    """The power series q^k truncated at the order, 0 when k > order."""
    _check_order(k, "power")
    _check_order(order)
    cs = [0] * (order + 1)
    if k <= order:
        cs[k] = 1
    return series_from_integers(cs)


def truncate(s, order):
    """The series s cut down to a smaller or equal order."""
    _check_order(order)
    if order > s.order:
        raise OrderMismatch(f"cannot extend order {s.order} to {order}")
    return series_from_integers(s.nums[: order + 1], s.den)


def root_of_unity(order, exponent=1):
    """The exponent-th power of the primitive order-th root of unity."""
    return cyclo_make(order, {exponent: 1})


def weights_of(e):
    """All N weights of the measure e, position j holding the atom at the
    j-th power; reps is read once, as it derives every orbit weight."""
    reps = e.reps
    return [reps[e.orbit(j)] for j in range(e.order)]


def rational_by_constructor(value, order):
    """The rational value in the order-th cyclotomic field, built by the
    public CyclotomicNumber constructor from its full coordinate list."""
    return CyclotomicNumber(order, [Fraction(value)] + [0] * (euler_phi(order) - 1))


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
    the divisor supports, with the whole basis built and solved at once over
    the weight coordinates; a negative limit allows no columns at all."""
    support = e.minimal_support_order()
    if support is None:
        return {}
    n = support // 2
    order = e.order
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    labels = [(0, m) for m in divisors] if limit >= 0 else []
    for l in range(1, limit + 1):
        labels += [(l, m) for m in divisors if m > l]
    basis = []
    for l, m in labels:
        if l == 0:
            basis.append(basic_measure("d", m).embed(order))
        else:
            poly = (1,) + (0,) * (l - 1) + (-1,)
            basis.append(density_measure(poly, "d", m).embed(order))
    positions = [t * (order // support) for t in range(support // 4 + 1)]
    phi = euler_phi(order)
    # reps derives every orbit weight on each read, so each measure's once
    basis_reps, target_reps = [b.reps for b in basis], e.reps
    rows, rhs = [], []
    for j in positions:
        coords = [reps[j].coeffs for reps in basis_reps]
        target = target_reps[j].coeffs
        for i in range(phi):
            row = [c[i] for c in coords]
            value = target[i]
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
    return tuple(_cyclotomic_ints_by_division(order))


def _finish(edges, n, root) -> RootedBipartiteGraph:
    neighbours = [[] for _ in range(n)]
    for u, v, mult in edges:
        neighbours[u] += [v] * mult
        neighbours[v] += [u] * mult
    # two-coloring by the parity of the distance; also certifies connectivity
    dist = _distances(neighbours, root)[0]
    if -1 in dist:
        raise ValueError("graph is not connected")
    for u, v, _ in edges:
        if u == v:
            raise ValueError("self-loop in adjacency")
        if (dist[u] - dist[v]) % 2 == 0:
            raise ValueError("edge inside one parity class")
    return RootedBipartiteGraph(n, tuple(map(tuple, neighbours)), root)


# branch arms (vertex counts beyond the branch vertex), longest first;
# the root sits at the far end of the first arm
_ARMS = {
    "E6": (2, 2, 1),
    "E7": (3, 2, 1),
    "E8": (4, 2, 1),
    "E6tilde": (2, 2, 2),
    "E7tilde": (3, 3, 1),
    "E8tilde": (5, 2, 1),
}


def build_ade_by_cases(family):
    """The rooted graph for the family, one construction per series and one
    for the exceptional graphs, the root at the marked vertex."""
    tag, m = family.tag, family.param
    if tag == "A":
        edges = [(i, i + 1, 1) for i in range(m - 1)]
        return _finish(edges, m, 0)
    if tag == "Atilde":
        if m == 2:
            return _finish([(0, 1, 2)], 2, 0)
        edges = [(i, (i + 1) % m, 1) for i in range(m)]
        return _finish(edges, m, 0)
    if tag == "D":
        # path of m-2 vertices with two tips on its far end, root at the near end
        edges = [(i, i + 1, 1) for i in range(m - 3)]
        edges += [(m - 3, m - 2, 1), (m - 3, m - 1, 1)]
        return _finish(edges, m, 0)
    if tag == "Dtilde":
        # central path of m-3 vertices, a two-tip fork at each end, m+1 vertices
        c = m - 3
        edges = [(i, i + 1, 1) for i in range(c - 1)]
        edges += [(0, c, 1), (0, c + 1, 1), (c - 1, c + 2, 1), (c - 1, c + 3, 1)]
        return _finish(edges, m + 1, c)
    edges = []
    nxt = 1
    arm_ends = []
    for length in _ARMS[tag]:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt, 1))
            prev = nxt
            nxt += 1
        arm_ends.append(prev)
    return _finish(edges, nxt, arm_ends[0])


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


def theta_formula_row_recurrence(counts, order):
    """The alternating binomial sum by rows: row r of its weights is the
    coefficient list of V_r(y) = C_r(y - 2), C_r(2cos t) = 2cos(rt), and
    V_(r+1) = (y - 2) V_r - V_(r-1), so the row sums a_j = sum_k [y^k]V_r
    c_(k+j) obey a'_j = a_(j+1) - 2 a_j - a''_j, a'' the row before, and
    theta_r = a_0, in additions only; c_0 at r = 0 and D added at r = 1."""
    c, d = counts.nums[: order + 1], counts.den
    prev = [x + x for x in c]
    row = [y - x - x for x, y in zip(c, c[1:])]
    out = [c[0]]
    for _ in range(order):
        out.append(row[0])
        row, prev = [y - x - x - z for x, y, z in zip(row, row[1:], prev)], row
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
    p = list(map(Fraction, poly)) + [Fraction(0)] * (n + 1 - len(poly))
    out = [p[s] + sign * p[n - s] for s in range(n + 1)]
    out = (out + [Fraction(0)] * order)[: order + 1]
    for i in range(1, order + 1):
        out[i] += out[i - 1]
    for i in range(n, order + 1):
        out[i] += sign * out[i - n]
    return PowerSeries(order, out)


def moment_by_dense_sum(order, weights, k):
    """Moment k of the measure with the given N = order weights w_j, the sum
    of w_j z^(jk), z the primitive N-th root, in one cyclo_from_integers:
    computed from the weights, not read off a stored moment sequence."""
    den = math.lcm(*[w.den for w in weights])
    return cyclo_from_integers(order, [(i + j * k, v * (den // w.den))
                                         for j, w in enumerate(weights)
                                         for i, v in enumerate(w.nums) if v], den)


def _doubled_moments(e, count):
    """Twice the moments 0, 2, ..., 2 (count - 1) of e as Fractions, each a
    dense sum over its weights."""
    weights = weights_of(e)
    return [2 * cyclo_as_rational(moment_by_dense_sum(e.order, weights, 2 * k))
            for k in range(count)]


def t_series_by_moments(e, order):
    """Twice moment 2k for k up to min(order, N/2 - 1), one dense moment
    sum each, repeated with period N/2; the first entry less 1, then
    Fraction prefix sums."""
    period = e.order // 2
    block = _doubled_moments(e, min(order, period - 1) + 1)
    doubled = [block[k % period] for k in range(order + 1)]
    doubled[0] -= 1
    return PowerSeries(order, accumulate(doubled))


def expansion_by_moments(e, n):
    """The expansion over the uniform measure and the densities 1 - u^(2l)
    at support parameter n, from one dense moment sum per row and one RREF
    solve of the whole system; the caller checks that the support order of
    e divides 2n."""
    labels = [0] + list(range(1, n // 2 + 1))
    rows = []
    for k in range(n):
        row = [Fraction(2 if k == 0 else 0) for _ in labels]
        for j, l in enumerate(labels):
            if l and k in (l, n - l):
                row[j] -= 2 if 2 * l == n else 1
        rows.append(row)
    sol = rref_solve(rows, _doubled_moments(e, n))
    return ExpansionResult(n, {} if sol is None else dict(zip(labels, sol)), sol is not None)


def density_by_per_moment_sum(poly, kind, n):
    """The density measure of P over the base kind, moment 2k the sum of
    c_i (M_(k+i) + M_(k-i)) / 2 over every term of P, for every k of the
    period, M_j the moment 2j of the base measure."""
    base = basic_measure(kind, n)
    pnums, pden = _over_lcm(poly)
    m, period = base.nums, len(base.nums)
    terms = [(i, c) for i, c in enumerate(pnums) if c]
    return _normalized(CyclotomicMeasure, base.order,
                       [sum(c * (m[(k + i) % period] + m[(k - i) % period]) for i, c in terms)
                        for k in range(period)], 2 * pden * base.den)


def reconstruct_by_columns(result):
    """The measure of an expansion result: the whole doubled moment column
    of each nonzero term, k < n, scaled and summed over one common
    denominator."""
    n = result.n
    labels = [l for l, c in result.coefficients.items() if c]
    xs, den = _over_lcm(result.coefficients[l] for l in labels)
    acc = [0] * n
    for l, x in zip(labels, xs):
        acc = [a + x * v for a, v in zip(acc, _moment_column(l, n, n - 1))]
    return _normalized(CyclotomicMeasure, 2 * n, acc, 2 * den)


def embed_renormalized(e, order):
    """e at a multiple of its order: the period repeated, then divided by
    the gcd of the denominator and the repeated sequence."""
    return _normalized(CyclotomicMeasure, order, e.nums * (order // e.order), e.den)


def pushforward_moments_by_powering(real, count):
    """Moments 0..count of a pushforward measure from its atoms, each
    location powered and weighted in the cyclotomic field, at the order of
    its circular measure."""
    out = []
    powers = [cyclo_make(x.order, {0: 1}) for x, _ in real.atoms]
    for _ in range(count + 1):
        total = cyclo_make(real.circular.order, {0: 0})
        for i, (x, w) in enumerate(real.atoms):
            total = total + w * powers[i]
            powers[i] = powers[i] * x
        out.append(total)
    return out


def sign_at_60_digits(z):
    """Sign of a real cyclotomic number from a 60-digit evaluation; raises
    ArithmeticError below 1e-40, where it cannot tell the sign."""
    if z.is_zero():
        return 0
    if not z.is_real():
        raise ValueError("sign is defined for real elements only")
    with mpmath.workdps(60):
        v = mpmath.re(z.numeric(dps=60))
        if abs(v) < mpmath.mpf("1e-40"):
            raise ArithmeticError("cannot certify sign numerically")
        return 1 if v > 0 else -1


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * v * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, v in enumerate(rows[0]) if v)


def is_psd_by_minors(rows):
    """A symmetric matrix is positive semidefinite exactly when every
    principal minor is at least 0."""
    h = len(rows)
    return all(_det([[rows[i][j] for j in idx] for i in idx]) >= 0
               for size in range(1, h + 1) for idx in combinations(range(h), size))


# the measure table as rows of (coefficient, atom name, base kind, parameter)
_H, _T = Fraction(1, 2), Fraction(1, 3)
_EXCEPTIONAL_ROWS = {
    ("E6", "thm71"): [(1, "alpha", "d", 12), (_H, "d", "d", 12), (-_H, "d", "d", 6),
                      (-_H, "d", "d", 4), (_H, "d", "d", 3)],
    ("E6", "thm87"): [(Fraction(1, 6), "d", "ddoubleprime", 2),
                      (_T, "alpha", "ddoubleprime", 2), (_H, "d", "dtripleprime", 1)],
    ("E7", "thm71"): [(1, "beta", "dprime", 9), (_H, "d", "dprime", 1), (-_H, "d", "dprime", 3)],
    ("E7", "thm87"): [(2 * _T, "beta", "ddoubleprime", 3), (_T, "d", "dprime", 1)],
    ("E8", "thm71"): [(1, "alpha", "dprime", 15), (1, "gamma", "dprime", 15),
                      (-_H, "d", "dprime", 5), (-_H, "d", "dprime", 3)],
    ("E8", "thm87"): [(2 * _T, "alpha", "ddoubleprime", 5), (2 * _T, "gamma", "ddoubleprime", 5),
                      (-_T, "d", "ddoubleprime", 1)],
    # the affine-E binary form (d_n + d_3 + d_2 - d_1)/2, n = 3, 4, 5, and
    # the ternary form alpha_(l+1) + (d_l - d_(l+1))/2, l = 2, 3, 5
    **{(tag, "thm71"): [(_H, "d", "d", n), (_H, "d", "d", 3), (_H, "d", "d", 2),
                        (-_H, "d", "d", 1)]
       for tag, n in (("E6tilde", 3), ("E7tilde", 4), ("E8tilde", 5))},
    **{(tag, "thm87"): [(1, "alpha", "d", ell + 1), (_H, "d", "d", ell), (-_H, "d", "d", ell + 1)]
       for tag, ell in (("E6tilde", 2), ("E7tilde", 3), ("E8tilde", 5))},
}


def lincomb(terms):
    """The measure sum c m over the (c, m) terms, c an int or a Fraction, in
    one pass: the moment sequences, each repeated to the lcm of the orders,
    summed in integers over one common denominator."""
    terms = [(Fraction(c), m) for c, m in terms]
    order = math.lcm(*[m.order for _, m in terms])
    den = math.lcm(*[c.denominator * m.den for c, m in terms])
    acc = [0] * (order // 2)
    for c, m in terms:
        lift = c.numerator * (den // (c.denominator * m.den))
        acc = [a + lift * v for a, v in zip(acc, m.nums * (order // m.order))]
    return _normalized(CyclotomicMeasure, order, acc, den)


def measure_rows(family, variant):
    """The measure table entry of the family as rows of (coefficient, atom
    name, base kind, parameter); both variants share the rows of the four
    parametrized series."""
    tag, m = family.tag, family.param
    return {
        "A": [(1, "alpha", "d", m + 1)],
        "Atilde": [(1, "d", "d", m // 2)],
        "D": [(1, "alpha", "dprime", m - 1)],
        "Dtilde": [(_H, "d", "d", m - 2), (_H, "d", "dprime", 1)],
    }.get(tag) or _EXCEPTIONAL_ROWS[tag, variant]


def candidate_measure_by_rows(family, variant):
    """The closed-form circular measure of the family from its measure_rows,
    summed by one lincomb."""
    return lincomb([(c, atom_measure(name, kind, n))
                    for c, name, kind, n in measure_rows(family, variant)])
