"""The finite-field 2F1 sum, binomial coefficients over F_q, and the
norm-restricted Jacobi sum together with its hypergeometric reduction.

The norm fiber {z in F_{q^2} : N(z) = c} is enumerated in O(q) through the
discrete log: z0 = g2^k with k = dlog_base(c) is one solution (the tower
fixes g = N(g2)), and the kernel of the norm is the cyclic group generated
by g2^(q-1), of size q+1; so the fiber is the logs k + (q-1)i, and R walks
them.  A full O(q^2) scan that tests z^(q+1) = c is kept as the oracle; the
hypergeometric suite's norm-fiber check runs it against the log route.

The closed forms of R(D, j) and of the kernel h(D, j) share one 2F1 per D,
read at every j.  hyp2f1_row sums 2F1(A,B;C | .) once for every argument,
and hyp2f1_of_j memoizes the row of (D, D^2 phi, D phi) on the field, keyed
by the index of D: at most q-1 rows of q entries per field, which every task
of one process reuses.  norm_jacobi_row memoizes R(D, .) on the KatzContext,
keyed by the index of D, since R reads the context's octic M8.  Each entry
of either row equals the per-point value exactly; hyp2f1 and
norm_restricted_jacobi stay as the literal oracles.
"""

import operator

from .characters import MultChar, norm_compose, quadratic_char
from .classical_sums import jacobi
from .finite_field import FieldError, FieldTower


def hyp2f1(a: MultChar, b: MultChar, c: MultChar, x) -> complex:
    """2F1(A,B;C | x) = (eps(x)/q) sum_y B(y) (conj(B)C)(y-1) conj(A)(1-x*y)."""
    field = a.field
    if b.field is not field or c.field is not field:
        raise FieldError("2F1 needs all characters on one field")
    x_code = field.element(x).code
    if x_code == 0:
        return 0j
    tb = b.value_table()
    tbc = (b.conj * c).value_table()
    tac = a.conj.value_table()
    neg, om = field.neg, field.one_minus
    mul = field.mul_codes
    total = 0j
    for y in range(1, field.order):
        total += tb[y] * tbc[neg[om[y]]] * tac[om[mul(x_code, y)]]
    return total / field.order


def hyp2f1_row(a: MultChar, b: MultChar, c: MultChar) -> list[complex]:
    """2F1(A,B;C | x) for every code x, indexed by code; entry 0 is 0j.

    The weights B(y) (conj(B)C)(y-1) are formed once, in code order of y.
    conj(A)(1 - x*y) is read from the table by_log[l] = conj(A)(1 - g^l),
    rotated by dlog x, at the logs of y.  Each entry keeps hyp2f1's product
    order and summation order, so it equals hyp2f1's value exactly."""
    field = a.field
    if b.field is not field or c.field is not field:
        raise FieldError("2F1 needs all characters on one field")
    tb = b.value_table()
    tbc = (b.conj * c).value_table()
    tac = a.conj.value_table()
    neg, om, dlog = field.neg, field.one_minus, field.dlog
    ys = range(1, field.order)
    weights = [tb[y] * tbc[neg[om[y]]] for y in ys]
    lys = [dlog[y] for y in ys]
    by_log = [tac[om[e]] for e in field.exp]
    row = [0j]
    for x in ys:
        lx = dlog[x]
        vals = map((by_log[lx:] + by_log[:lx]).__getitem__, lys)
        row.append(sum(map(operator.mul, weights, vals), 0j) / field.order)
    return row


def binom(a: MultChar, b: MultChar) -> complex:
    """Binomial coefficient (A over B) = (B(-1)/q) J(A, conj(B))."""
    if a.field is not b.field:
        raise FieldError("binomial coefficient needs characters on one field")
    return b(-1) * jacobi(a, b.conj) / a.field.order


def fiber_logs(tower: FieldTower, c_code: int) -> range:
    """The logs m, ascending, of the fiber N(g2^m) = c of a nonzero base code:
    m = dlog(c) (mod q-1), since the tower fixes g = N(g2)."""
    return range(tower.base.dlog[c_code], tower.top.order - 1, tower.q - 1)


def norm_fiber(tower: FieldTower, c, scan: bool = False) -> list[int]:
    """Codes of {z in F_{q^2} : N(z) = c} for nonzero c; exactly q+1 of them.

    The codes g2^m of fiber_logs, in log order; scan=True instead tests
    z^(q+1) = c in the top field for every z, in code order, so it does not
    rest on the tower's link g = N(g2)."""
    c_code = tower.base.element(c).code
    if c_code == 0:
        raise ValueError("norm fiber of 0 is just {0}; a nonzero c is required")
    exp2 = tower.top.exp
    if scan:
        n2, dlog2, e = tower.top.order - 1, tower.top.dlog, tower.q + 1
        target = tower.embed_table[c_code]
        return [z for z in range(1, n2 + 1) if exp2[dlog2[z] * e % n2] == target]
    return list(map(exp2.__getitem__, fiber_logs(tower, c_code)))


def norm_restricted_jacobi(ctx, d: MultChar, j, scan: bool = False) -> complex:
    """R(D, j) = sum over N(z) = j^4 of M8(z) * conj(D)N(1 - z), j nonzero.

    The fiber is walked by its logs m, and 1 - g2^m = 1 + g2^(m + n/2) has
    log zech[m + n/2], n = q^2 - 1 (zech reads -1 where 1 - z = 0).  M8 and
    conj(D)N are read from the root tables of their orders (see char_roots).
    scan=True walks the logs of the scanned fiber instead."""
    tower = ctx.tower
    if d.field is not tower.base:
        raise FieldError("norm-restricted Jacobi sum needs a base-field character")
    j = tower.base.element(j)
    if j.code == 0:
        raise ValueError("norm-restricted Jacobi sum requires j != 0")
    top = tower.top
    n2, zech = top.order - 1, top._zech
    half = n2 // 2
    t8, u8, d8 = top.char_roots(ctx.M8.index)
    tdn, udn, ddn = top.char_roots(norm_compose(tower, d.conj).index)
    j4 = (j**4).code
    if scan:
        logs = [top.dlog[z] for z in norm_fiber(tower, j4, scan=True)]
    else:
        logs = fiber_logs(tower, j4)
    total = 0
    for m in logs:
        lg = zech[(m + half) % n2]
        total += t8[u8 * m % d8] * (tdn[udn * lg % ddn] if lg >= 0 else 0j)
    return total


def norm_jacobi_row(ctx, d: MultChar) -> list[complex]:
    """R(D, j) for every code j, indexed by code; entry 0 is 0j, since R
    needs j != 0.  Memoized on the context by the index of D.  j and -j
    share the fiber of j^4, so each fiber is walked once, by
    norm_restricted_jacobi."""
    if d.field is not ctx.tower.base:
        raise FieldError("norm-restricted Jacobi sum needs a base-field character")
    row = ctx._norm_jacobi_rows.get(d.index)
    if row is None:
        base = ctx.tower.base
        by_j4 = {}
        row = [0j]
        for j in range(1, base.order):
            j4 = base.pow_code(j, 4)
            r = by_j4.get(j4)
            if r is None:
                r = by_j4[j4] = norm_restricted_jacobi(ctx, d, j)
            row.append(r)
        ctx._norm_jacobi_rows[d.index] = row
    return row


def hyp2f1_of_j(d: MultChar, j) -> complex | None:
    """2F1(D, D^2 phi; D phi | -((j+1)/(j-1))^2), the factor that the closed
    forms of R(D, j) and of the kernel h(D, j) share; None at j = +-1, where
    both take a Jacobi-sum form instead.  Read from the row of
    (D, D^2 phi, D phi), memoized on the field by the index of D."""
    field = d.field
    j = field.element(j)
    if j.code == 1 or j.code == field.neg[1]:
        return None
    row = field._hyp_rows.get(d.index)
    if row is None:
        phi = quadratic_char(field)
        row = field._hyp_rows[d.index] = hyp2f1_row(d, d**2 * phi, d * phi)
    x = -(((j + 1) / (j - 1)) ** 2)
    return row[x.code]


def norm_jacobi_hyp_deviation(ctx, d: MultChar, j) -> float:
    """Deviation of R(D, j) from its closed form:

    j = +-1:  -conj(D)(4) J(phi D^2, phi)
    else:     -phi(j) q conj(D)^4(j-1) 2F1(D, D^2 phi; D phi | -((j+1)/(j-1))^2)
    """
    base = ctx.tower.base
    j = base.element(j)
    if j.code == 0:
        raise ValueError("norm-restricted Jacobi sum requires j != 0")
    phi = quadratic_char(base)
    lhs = norm_jacobi_row(ctx, d)[j.code]
    hyp = hyp2f1_of_j(d, j)
    if hyp is None:
        rhs = -d.conj(4) * jacobi(phi * d**2, phi)
    else:
        rhs = -phi(j) * base.order * (d.conj**4)(j - 1) * hyp
    return abs(lhs - rhs)
