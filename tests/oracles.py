"""The literal sums that only tests read: each evaluates one value by its
definition, term by term, and is the oracle of a faster route (see
test_routes.py).  None keeps a memo of its own."""

import cmath

from charsum.characters import norm_compose, quadratic_char
from charsum.classical_sums import jacobi
from charsum.hypergeometric import hyp2f1, norm_fiber


def gauss_literal(a) -> complex:
    """G(A) = sum_y A(y) psi(y)."""
    ta, psi = a.value_table(), a.field.psi_table
    return sum(ta[y] * psi[y] for y in range(1, a.field.order))


def eisenstein_E2(tower, beta) -> complex:
    """E2(beta): the sum of beta over the affine trace-one line z + z^q = 1."""
    return _line_sum(beta, tower.trace_line)


def eisenstein_E(tower, beta) -> complex:
    """E(beta) = sum_{y in F_q} beta(1 + i*y)."""
    return _line_sum(beta, tower.i_line)


def _line_sum(beta, codes) -> complex:
    """The sum of beta over the given element codes, in order, read through
    dlog (beta(0) = 0), so that no q*-entry value table is built for q points."""
    field, k = beta.field, beta.index
    n, roots, dlog = field.order - 1, field.unity_roots, field.dlog
    return sum((roots[k * dlog[z] % n] for z in codes if z), 0j)


def fiber_row_one_pass(tower, kind: str, i: int) -> list[complex]:
    """The fiber row of _fiber_row: each residue class of the list of q^2 - 1
    values of character i over log order, summed with the full root table,
    the values and the order of _fiber_row."""
    top, step = tower.top, tower.q - 1
    n, roots = top.order - 1, top.unity_roots
    if kind == "gauss":
        vals = [roots[i * m % n] * top.psi_table[z] if i else top.psi_table[z]
                for m, z in enumerate(top.exp)]
    else:
        vals = [roots[i * top.zech[(m + n // 2) % n] % n] if m else 0j for m in range(n)]
    return [sum(vals[k::step], 0j) for k in range(step)]


def fiber_sum(ctx, d, fiber) -> complex:
    """R(D, j) = sum of M8(z) conj(D)N(1 - z) over the codes z of the fiber
    N(z) = j^4, in order, from the value tables."""
    tm8, tdn = ctx.M8.value_table(), norm_compose(ctx.tower, d.conj).value_table()
    return sum(tm8[z] * tdn[ctx.tower.top.one_minus[z]] for z in fiber)


def v_scanned(ctx, j) -> complex:
    """V(j) over the scanned fiber of a, in code order, with M8 read from its
    value table: it does not rest on the tower's link g = N(g2)."""
    tower, j = ctx.tower, ctx.tower.base.element(j)
    top, tm8, j2 = tower.top, ctx.M8.value_table(), tower.embed(j * j).code
    fiber = norm_fiber(tower, ctx.a_code, scan=True)
    return ctx.phi(j) * sum(tm8[z] * top.psi_table[top.mul_codes(j2, z)] for z in fiber) / ctx.tau


def p_raw(j, k, a, q=7):
    """Independent evaluation of the mixed sum for prime q: Euler-criterion
    quadratic character and raw exponentials, no package machinery."""

    def phi_int(x):
        x %= q
        if x == 0:
            return 0
        return 1 if pow(x, (q - 1) // 2, q) == 1 else -1

    def psi(x):
        return cmath.exp(2j * cmath.pi * (x % q) / q)

    g_phi = sum(phi_int(y) * psi(y) for y in range(q))
    total = 0j
    for x in range(1, q):
        ax = a * pow(x, q - 2, q) % q
        total += phi_int(ax - x) * psi(x * (j + k) ** 2 + ax * (j - k) ** 2)
    val = total / g_phi
    if j % q == k % q:
        val += 1
    if j % q == (-k) % q:
        val -= 1
    return val


def p_literal(ctx, j, k):
    """P(j, k) by the per-x loop over field arithmetic,
    sum_x phi(a/x - x) psi(x s + (a/x) d) with s = (j+k)^2, d = (j-k)^2:
    the oracle for the trace-linear route of mixed_sum_matrix."""
    base = ctx.tower.base
    add, mul, sub = base.add_codes, base.mul_codes, base.sub_codes
    tphi, psi = ctx.phi.value_table(), base.psi_table
    s = mul(add(j, k), add(j, k))
    d = mul(sub(j, k), sub(j, k))
    acc = 0j
    for x in range(1, base.order):
        ax = mul(ctx.a_code, base.inv_code(x))
        acc += tphi[sub(ax, x)] * psi[add(mul(x, s), mul(ax, d))]
    val = acc * ctx.inv_g_phi
    if j == k:
        val += 1
    if j == base.neg[k]:
        val -= 1
    return val


def kernel_literal(d, j):
    """h(D, j) by the per-x loop over field arithmetic,
    sum_x D(x) phi(1-x) (phi conj(D)^2)(x(j+1)^2 + (j-1)^2):
    the oracle for the memoized rows of kernel_row."""
    field = d.field
    phi = quadratic_char(field)
    td, tphi = d.value_table(), phi.value_table()
    tmix = (phi * d.conj**2).value_table()
    je = field.element(j)
    jp = ((je + 1) ** 2).code
    jm = ((je - 1) ** 2).code
    om = field.one_minus
    mul, add = field.mul_codes, field.add_codes
    total = 0j
    for x in range(1, field.order):
        total += td[x] * tphi[om[x]] * tmix[add(mul(x, jp), jm)]
    return total


def kernel_closed_form(d, j):
    """The closed form of h(D, j) from the literal sums:

    j = +-1:            -phi(j) conj(D)(16) J(D, phi)
    j != +-1, D = eps:  0
    j != +-1, D != eps: (G(phi)G(D)^2/G(phi D^2)) conj(D)^4(j-1) 2F1(D, D^2 phi; D phi | x)

    for x = -((j+1)/(j-1))^2 (reduction_2f1)."""
    field = d.field
    phi = quadratic_char(field)
    j = field.element(j)
    if not (j + 1) or not (j - 1):
        return -phi(j) * d.conj(16) * jacobi(d, phi)
    if d.is_trivial:
        return 0j
    g = gauss_literal(phi) * gauss_literal(d) ** 2 / gauss_literal(phi * d**2)
    return g * (d.conj**4)(j - 1) * reduction_2f1(d, j)


def reduction_literal(d, j):
    """The closed form of R(D, j) from the literal sums:

    j = +-1:  -conj(D)(4) J(phi D^2, phi)
    else:     -phi(j) q conj(D)^4(j-1) 2F1(D, D^2 phi; D phi | -((j+1)/(j-1))^2)
    """
    field = d.field
    phi = quadratic_char(field)
    j = field.element(j)
    if not (j + 1) or not (j - 1):
        return -d.conj(4) * jacobi(phi * d**2, phi)
    return -phi(j) * field.order * (d.conj**4)(j - 1) * reduction_2f1(d, j)


def reduction_2f1(d, j) -> complex:
    """2F1(D, D^2 phi; D phi | -((j+1)/(j-1))^2), the factor of both closed
    forms; 0j at j = 0 and +-1, where neither reads it."""
    phi, j = quadratic_char(d.field), d.field.element(j)
    if not j or not (j + 1) or not (j - 1):
        return 0j
    return hyp2f1(d, d**2 * phi, d * phi, -(((j + 1) / (j - 1)) ** 2))
