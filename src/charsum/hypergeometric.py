"""The finite-field 2F1 sum, binomial coefficients over F_q, and the
norm-restricted Jacobi sum together with its hypergeometric reduction.

The norm fiber {z in F_{q^2} : N(z) = c} is enumerated in O(q) through the
discrete log: z0 = g2^k with k = dlog_base(c) is one solution (the tower
fixes g = N(g2)), and the kernel of the norm is the cyclic group generated
by g2^(q-1), of size q+1.  A full O(q^2) scan is kept as the debug oracle.
"""

from .characters import MultChar, norm_compose, quadratic_char
from .classical_sums import jacobi
from .finite_field import FieldElement, FieldError, FieldTower


def hyp2f1(a: MultChar, b: MultChar, c: MultChar, x) -> complex:
    """2F1(A,B;C | x) = (eps(x)/q) sum_y B(y) (conj(B)C)(y-1) conj(A)(1-x*y)."""
    field = a.field
    if b.field is not field or c.field is not field:
        raise FieldError("2F1 needs all characters on one field")
    if isinstance(x, FieldElement):
        if x.field is not field:
            raise FieldError("2F1 argument lives on a different field")
        x_code = x.code
    else:
        x_code = int(x) % field.p
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


def binom(a: MultChar, b: MultChar) -> complex:
    """Binomial coefficient (A over B) = (B(-1)/q) J(A, conj(B))."""
    if a.field is not b.field:
        raise FieldError("binomial coefficient needs characters on one field")
    return b(-1) * jacobi(a, b.conj) / a.field.order


def norm_fiber(tower: FieldTower, c, scan: bool = False) -> list[int]:
    """Codes of {z in F_{q^2} : N(z) = c} for nonzero c; exactly q+1 of them."""
    c_code = c.code if isinstance(c, FieldElement) else int(c)
    if c_code == 0:
        raise ValueError("norm fiber of 0 is just {0}; a nonzero c is required")
    if scan:
        nt = tower.norm_table
        return [z for z in range(1, tower.top.order) if nt[z] == c_code]
    k = tower.base.dlog[c_code]
    n2 = tower.top.order - 1
    exp2 = tower.top.exp
    step = tower.q - 1
    return [exp2[(k + step * i) % n2] for i in range(tower.q + 1)]


def norm_restricted_jacobi(ctx, d: MultChar, j, scan: bool = False) -> complex:
    """R(D, j) = sum over N(z) = j^4 of M8(z) * conj(D)N(1 - z), j nonzero."""
    tower = ctx.tower
    if d.field is not tower.base:
        raise FieldError("norm-restricted Jacobi sum needs a base-field character")
    j = tower.base.element(j)
    if j.code == 0:
        raise ValueError("norm-restricted Jacobi sum requires j != 0")
    top = tower.top
    n2, roots, dlog2, om = top.order - 1, top.unity_roots, top.dlog, top.one_minus
    m8, dn = ctx.M8.index, norm_compose(tower, d.conj).index
    fiber = norm_fiber(tower, j**4, scan=scan)
    # the values the q^2-entry tables would hold, read at the q+1 fiber points
    return sum(
        roots[m8 * dlog2[z] % n2] * (roots[dn * dlog2[om[z]] % n2] if om[z] else 0j)
        for z in fiber
    )


def norm_jacobi_hyp_deviation(ctx, d: MultChar, j) -> float:
    """Deviation of R(D, j) from its closed form:

    j = +-1:  -conj(D)(4) J(phi D^2, phi)
    else:     -phi(j) q conj(D)^4(j-1) 2F1(D, D^2 phi; D phi | -((j+1)/(j-1))^2)
    """
    tower = ctx.tower
    base = tower.base
    j = base.element(j)
    phi = quadratic_char(base)
    lhs = norm_restricted_jacobi(ctx, d, j)
    if j.code == 1 or j.code == base.neg[1]:
        rhs = -d.conj(4) * jacobi(phi * d**2, phi)
    else:
        x = -(((j + 1) / (j - 1)) ** 2)
        rhs = -phi(j) * base.order * (d.conj**4)(j - 1) * hyp2f1(d, d**2 * phi, d * phi, x)
    return abs(lhs - rhs)
