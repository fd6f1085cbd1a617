"""The finite-field 2F1 sum, binomial coefficients over F_q, and the
norm-restricted Jacobi sum together with its hypergeometric reduction.

The norm fiber {z in F_{q^2} : N(z) = c} is enumerated in O(q) through the
discrete log: z0 = g2^k with k = dlog_base(c) is one solution (the tower
fixes g = N(g2)), and the kernel of the norm is the cyclic group generated
by g2^(q-1), of size q+1; so the fiber is the logs k + (q-1)i.  The oracle
instead tests z^(q+1) = c: one pass over F_{q^2} buckets every z by
z^(q+1), kept in the tower's memo, and each scanned fiber is read from it.

R(D, j) is computed for every D at once: on the fiber of j^4, N(1 - z) =
g^l, so R(., j) is one transform of the histogram of M8(z) over l
(norm_jacobi_table, kept in the KatzContext's memo, since R reads its
octic M8); norm_jacobi_row reads R(D, .) from it.  hyp2f1_row is a cyclic
correlation in log coordinates, one dot product per argument.  The closed
forms of R(D, j) and of the kernel h(D, j) share one 2F1 per D, read at
every j: reduction_row evaluates it only at the arguments it reads and keeps
it in the field's memo, indexed by j and keyed by the index of D, at most
q-1 rows of q entries per field, which every task of one process reuses.
The theorem-4.1 and theorem-5.x suites compare these rows with the rows
of R and h, one D at a time.  Each row agrees with the per-point value up
to rounding; hyp2f1 and norm_restricted_jacobi stay as the literal oracles.
"""

import operator

from .characters import MultChar, norm_compose, quadratic_char
from .classical_sums import jacobi, log_dft
from .finite_field import FieldError, FieldTower, memoized


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
    """2F1(A,B;C | x) for every code x, indexed by code; entry 0 is 0j."""
    return _hyp2f1_at(a, b, c, a.field.exp)


def _hyp2f1_at(a: MultChar, b: MultChar, c: MultChar, xs) -> list[complex]:
    """2F1(A,B;C | x) at each nonzero code x of xs, indexed by code; 0j elsewhere.

    In log coordinates y = g^s, x = g^t, it is a cyclic correlation:
    q 2F1(g^t) = sum_s W[s] F[s + t] with the weights W[s] = B(y)
    (conj(B)C)(y - 1) and the doubled table F[l] = conj(A)(1 - g^l), so
    each entry is one dot product against a slice of F."""
    field = a.field
    if b.field is not field or c.field is not field:
        raise FieldError("2F1 needs all characters on one field")
    tb = b.value_table()
    tbc = (b.conj * c).value_table()
    tac = a.conj.value_table()
    neg, om, exp, dlog = field.neg, field.one_minus, field.exp, field.dlog
    n = field.order - 1
    weights = [tb[y] * tbc[neg[om[y]]] for y in exp]
    by_log = [tac[om[e]] for e in exp] * 2
    row = [0j] * field.order
    for x in xs:
        t = dlog[x]
        row[x] = sum(map(operator.mul, weights, by_log[t : t + n]), 0j) / field.order
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

    The codes g2^m of fiber_logs, in log order; scan=True instead reads the
    codes z with z^(q+1) = c in the top field, in code order, so it does not
    rest on the tower's link g = N(g2).  The first scan of a tower buckets
    every z by z^(q+1) in one pass and keeps the buckets in its memo."""
    c_code = tower.base.element(c).code
    if c_code == 0:
        raise ValueError("norm fiber of 0 is just {0}; a nonzero c is required")
    if scan:
        fibers = memoized(tower.memo, "scanned_fibers", _build_scanned_fibers, tower)
        return list(fibers[tower.embed_table[c_code]])
    return list(map(tower.top.exp.__getitem__, fiber_logs(tower, c_code)))


def _build_scanned_fibers(tower: FieldTower) -> dict[int, list[int]]:
    exp2, n2, e, fibers = tower.top.exp, tower.top.order - 1, tower.q + 1, {}
    for z, lz in enumerate(tower.top.dlog[1:], 1):
        fibers.setdefault(exp2[lz * e % n2], []).append(z)
    return fibers


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
    n2, zech = top.order - 1, top.zech
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


def norm_jacobi_table(ctx) -> dict[int, list[complex]]:
    """R(D, j) for every D, keyed by the code of j^4: table[j^4][d] is
    R(chi_d, j); norm_jacobi_row keeps it in the context's memo.

    The fiber N(z) = j^4 is walked by fiber_logs, and N(1 - g2^m) = g^l
    with l = dlog(1 - g2^m) mod q-1, where 1 - g2^m = 1 + g2^(m + n/2) has
    log zech[m + n/2] (-1 at z = 1), n = q^2 - 1.  So R(chi_d, j) =
    sum_l H[l] w^(-d l) for the histogram H[l] of M8(z), and one log_dft
    of H gives every D, at index -d."""
    tower = ctx.tower
    base, top, n = tower.base, tower.top, tower.q - 1
    n2, zech = top.order - 1, top.zech
    t8, u8, d8 = top.char_roots(ctx.M8.index)
    table = {}
    for j4 in dict.fromkeys(base.pow_code(j, 4) for j in range(1, tower.q)):
        hist = [0j] * n
        for m in fiber_logs(tower, j4):
            lg = zech[(m + n2 // 2) % n2]
            if lg >= 0:
                hist[lg % n] += t8[u8 * m % d8]
        spec = log_dft(base, hist)
        table[j4] = [spec[-d % n] for d in range(n)]
    return table


def norm_jacobi_row(ctx, d: MultChar) -> list[complex]:
    """R(D, j) for every code j, indexed by code; entry 0 is 0j, since R
    needs j != 0.  Read in O(q) from norm_jacobi_table, kept in ctx.memo."""
    if d.field is not ctx.tower.base:
        raise FieldError("norm-restricted Jacobi sum needs a base-field character")
    base, table = ctx.tower.base, memoized(ctx.memo, "norm_jacobi_table", norm_jacobi_table, ctx)
    return [0j] + [table[base.pow_code(j, 4)][d.index] for j in range(1, base.order)]


def reduction_row(d: MultChar) -> list[complex]:
    """2F1(D, D^2 phi; D phi | -((j+1)/(j-1))^2) for every code j, the factor
    that the closed forms of R(D, j) and of the kernel h(D, j) share; 0j at
    j = 0 and j = +-1, where both take a Jacobi-sum form instead.  The 2F1 of
    (D, D^2 phi, D phi) is evaluated only at the (q-3)/2 arguments read, and
    the row is memoized in the field's memo["reduction_row"] by the index of D."""
    return memoized(d.field.memo["reduction_row"], d.index, _build_reduction_row, d)


def _build_reduction_row(d: MultChar) -> list[complex]:
    field, phi = d.field, quadratic_char(d.field)
    neg, add, sub, mul = field.neg, field.add_codes, field.sub_codes, field.mul_codes
    args = [0] * field.order  # the argument at each j; 0, where 2F1 is 0j, at j = 0, +-1
    for j in range(1, field.order):
        jp, jm = add(j, 1), sub(j, 1)
        if jp and jm:
            args[j] = neg[field.pow_code(mul(jp, field.inv_code(jm)), 2)]
    by_x = _hyp2f1_at(d, d**2 * phi, d * phi, {x for x in args if x})
    return list(map(by_x.__getitem__, args))
