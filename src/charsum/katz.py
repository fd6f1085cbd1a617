"""Katz's mixed character sums and the identity P(j,k) = V(j)V(k).

The two sides of the identity are the mixed exponential sum

    P(j,k) = d(j,k) + phi(-1) d(j,-k)
             + G(phi)^-1 sum_{x != 0} phi(a/x - x) psi(x(j+k)^2 + (a/x)(j-k)^2)

and the norm-restricted Gauss sums

    V(j) = tau^-1 phi(j) sum_{N(z) = a} M8(z) psi2(j^2 z),

for a fixed nonzero a in F_q, q = 3 (mod 4).  This module evaluates both
sides literally, their single and double Mellin transforms, the kernel sums
h(D, j) that the mixed-side transform reduces to, and the weighted transforms
W and Y that bridge the two sides.  Each identity but the kernel closed form
has a deviation function computing |lhs - rhs| with the two sides obtained
by independent routes; the kernel closed form is checked row by row in the
theorem-5.x suite.

P has one route at every q, which shares nothing with V's.  The trace is
F_p-linear, so psi(x s + (a/x) d) = zeta_p^(Tr(x s) + Tr((a/x) d)): the sum
over x adds lookups in two precomputed rows of traces, one for s and one for
d.  Since phi(-1) = -1, the term of -x is minus the conjugate of the term of
x, so each pair {x, -x} adds phi(a/x - x) 2i Im psi(x s + (a/x) d) and the
sum runs over one member of each pair.  P depends on (j, k) only through the
squares s = (j+k)^2 and d = (j-k)^2, so the full matrix sums F(s, d) once
for each of the ((q+1)/2)^2 pairs of squares: about q^3/8 real terms, with
no field-size limit.  The context memoizes S(chi) and T(chi1, chi2) by
character indices, and the inner sums sum_k chi2(k) P(j,k) by chi2.

The kernel sums h(D, j) do not depend on a.  kernel_row memoizes the whole
row h(D, .) on the field, keyed by the index of D: at most q-1 rows of q
entries per field, which every a-task of one process reuses (a KatzContext
is built per task, so the memo cannot live on it), and kernel_mellin each
sum_j chi(j) h(D, j) there, which W(D) and T's evaluation read.  The
theorem-5.x suite checks each kernel row against its closed-form row, whose
2F1 factor is the row that hypergeometric.reduction_row memoizes on the same
field.  Y(D) reads R(D, .) from norm_jacobi_row, built from the table
memoized on the context, since R reads the context's octic M8 (see
hypergeometric).  Every Jacobi or Gauss sum over F_{q^2} has a lifted
character C N, times M8^e in the Mellin evaluation, and is summed over the
q-1 norm fibers by lifted_jacobi and lifted_gauss, whose fiber rows and
values are memoized on the tower; the Gauss sums over F_q are read from the
field's one transform (see classical_sums).  No top-field value table or
transform is built: the few top-field points read are looked up through
dlog, and each top-field character, of order dividing 4(q-1), reads the
root table of its own order, never the full table of q^2 - 1 roots (see
finite_field.root_table).
"""

import cmath
import math
import operator
from itertools import repeat

from .characters import (
    MultChar,
    char,
    decompose_odd,
    delta,
    norm_compose,
    octic_M8,
    quadratic_char,
)
from .classical_sums import gauss, lifted_gauss, lifted_jacobi
from .finite_field import FieldError, FieldTower, build_tower, construct_field, factor_prime_power
from .hypergeometric import fiber_logs, norm_fiber, norm_jacobi_row
from .report import VerificationReport
from .tolerance import DEFAULT_POLICY, TolerancePolicy


def _sqrt_upper_half(w: complex) -> complex:
    """Square root with the argument halved into [0, pi)."""
    theta = cmath.phase(w)
    if theta < 0:
        theta += 2 * math.pi
    return math.sqrt(abs(w)) * cmath.exp(0.5j * theta)


class KatzContext:
    """A tower with q = 3 (mod 4), the parameter a, a fixed octic M8, and tau.

    tau = -sqrt(q*M8(-a)) with the square-root branch fixed by
    _sqrt_upper_half; every identity below carries tau on both sides (or only
    tau^2), so any fixed branch is consistent.
    """

    def __init__(self, tower: FieldTower, a, m8_variant: int = 1):
        if tower.q % 4 != 3:
            raise ValueError(f"q = {tower.q} is 1 (mod 4); this context needs q = 3 (mod 4)")
        self.tower = tower
        base = tower.base
        self.a = base.element(a)
        if self.a.code == 0:
            raise ValueError("the parameter a must be nonzero")
        self.a_code = self.a.code
        self.m8_variant = m8_variant
        self.M8 = octic_M8(tower, m8_variant)
        self.phi = quadratic_char(base)
        self.tau = -_sqrt_upper_half(tower.q * self.M8(tower.embed(-self.a)))
        self.inv_g_phi = 1 / gauss(self.phi)

        # the logs m of the fiber N(g2^m) = a, each with M8(g2^m)
        tab, u, d = tower.top.char_roots(self.M8.index)
        self._fiber_pairs = [(m, tab[u * m % d]) for m in fiber_logs(tower, self.a_code)]

        # x-loop data for the mixed sum, in log coordinates.  x -> -x flips
        # phi(a/x - x) (phi(-1) = -1) and conjugates psi, so the pair {x, -x}
        # adds phi(a/x - x) 2i Im psi(x s + (a/x) d): keep the member with
        # dlog x < (q-1)/2 of each pair with a/x != x, with the logs of x and
        # a/x and the sign phi(a/x - x) as an offset of 0 or 2p into _roots
        # (phi(w) = -1 iff dlog(w) is odd)
        p, dlog, exp = base.p, base.dlog, base.exp
        terms = []
        for lx in range((tower.q - 1) // 2):
            x = exp[lx]
            ax = base.mul_codes(self.a_code, base.inv_code(x))
            w = base.sub_codes(ax, x)
            if w:
                terms.append((lx, dlog[ax], 2 * p * (dlog[w] % 2)))
        self._s_side = ([t[0] for t in terms], [t[2] for t in terms])
        self._d_side = ([t[1] for t in terms], [0] * len(terms))
        # 2 Im zeta_p^t = zeta_p^t - conj(zeta_p^t), exactly, for t < 2p,
        # and its negative from 2p on
        im = [2 * r.imag for r in base.p_roots] * 2
        self._roots = im + [-v for v in im]
        # Tr(g^k) for k in [0, 2(q-1)), so a sum of two logs needs no modulo
        self._trace_exp = [base.trace_table[e] for e in base.exp] * 2

        self._v = None
        self._pm = None
        # inner[j] = sum_k chi2(k) P(j,k) for every code j, by chi2.index
        self._mixed_inner: dict[int, list[complex]] = {}
        self._mellin, self._mixed = {}, {}  # S by chi.index, T by (chi1, chi2) indices
        # R(., j) for every D by the code of j^4 (see hypergeometric)
        self._norm_jacobi_table: dict[int, list[complex]] | None = None

    def a_index(self) -> int:
        """dlog of a with respect to the tower's base generator."""
        return self.tower.base.dlog[self.a_code]

    def v_vector(self) -> list[complex]:
        """V(j) for every code j in [0, q)."""
        if self._v is None:
            self._v = [norm_restricted_gauss(self, j) for j in range(self.tower.q)]
        return self._v

    def mixed_sum_matrix(self) -> list[list[complex]]:
        """P(j,k) for every pair of codes, cached (rows reused by transforms);
        one value per pair of squares (s, d), shared by every (j, k) on it."""
        if self._pm is None:
            base = self.tower.base
            q = self.tower.q
            sq = [base.mul_codes(c, c) for c in range(q)]
            squares = sorted(set(sq))
            d_rows = {d: self._trace_row(self._d_side, d) for d in squares}
            p_sd = {}
            for s in squares:  # each s-row lives for its own loop only
                s_row = self._trace_row(self._s_side, s)
                p_sd[s] = {d: self._p_value(s, d, s_row, d_row) for d, d_row in d_rows.items()}
            add, sub = base.add_codes, base.sub_codes
            self._pm = [[p_sd[sq[add(j, k)]][sq[sub(j, k)]] for k in range(q)] for j in range(q)]
        return self._pm

    def _trace_row(self, side, c: int) -> list[int]:
        """Tr(y c) plus the side's offset, for y = x (s-side) or a/x (d-side)
        over the x-loop; side is a pair (logs of y, offsets)."""
        logs, offsets = side
        if c == 0:
            return offsets
        tr, lc = self._trace_exp, self.tower.base.dlog[c]
        return [tr[ly + lc] + off for ly, off in zip(logs, offsets)]

    def _p_value(self, s: int, d: int, s_row: list[int], d_row: list[int]) -> complex:
        """P at s = (j+k)^2, d = (j-k)^2 from the trace rows of s and d:
        G(phi)^-1 F(s, d) + [j = k] + phi(-1) [j = -k], where j = k iff d = 0;
        F(s, d) is i times the real sum over the x-pairs."""
        val = 1j * sum(map(self._roots.__getitem__, map(operator.add, s_row, d_row)), 0.0)
        val *= self.inv_g_phi
        if d == 0:
            val += 1.0
        if s == 0:
            val -= 1.0  # phi(-1) = -1 since q = 3 (mod 4)
        return val

    def __repr__(self):
        return f"KatzContext(q={self.tower.q}, a_code={self.a_code}, m8_variant={self.m8_variant})"


def mixed_sum(ctx: KatzContext, j, k) -> complex:
    """P(j, k) at elements (or codes) j, k of the base field."""
    base = ctx.tower.base
    jc, kc = base.element(j).code, base.element(k).code
    s = base.add_codes(jc, kc)
    s = base.mul_codes(s, s)
    d = base.sub_codes(jc, kc)
    d = base.mul_codes(d, d)
    return ctx._p_value(s, d, ctx._trace_row(ctx._s_side, s), ctx._trace_row(ctx._d_side, d))


def norm_restricted_gauss(ctx: KatzContext, j, scan: bool = False) -> complex:
    """V(j) over the norm fiber of a, walked by its logs m: psi2(j^2 g2^m) is
    read at g2^(log j^2 + m); V(0) = 0.  scan=True walks the logs of the
    O(q^2) scanned fiber instead, with M8 read from its value table."""
    tower = ctx.tower
    base, top = tower.base, tower.top
    jc = base.element(j).code
    if jc == 0:
        return 0j
    n2, exp2, dlog2, psi2 = top.order - 1, top.exp, top.dlog, top.psi_table
    lj = dlog2[tower.embed_table[base.mul_codes(jc, jc)]]
    if scan:
        tm8 = ctx.M8.value_table()
        pairs = [(dlog2[z], tm8[z]) for z in norm_fiber(tower, ctx.a_code, scan=True)]
    else:
        pairs = ctx._fiber_pairs
    acc = 0j
    for m, m8v in pairs:
        acc += m8v * psi2[exp2[(lj + m) % n2]]
    tphi = ctx.phi.value_table()
    return tphi[jc] * acc / ctx.tau


# ---------------------------------------------------------------------------
# Mellin transforms of V


def mellin_transform(ctx: KatzContext, chi: MultChar) -> complex:
    """S(chi) = sum_{j != 0} chi(j) V(j), memoized on the context."""
    if chi.field is not ctx.tower.base:
        raise FieldError("the Mellin transform needs a base-field character")
    s = ctx._mellin.get(chi.index)
    if s is None:
        v, t = ctx.v_vector(), chi.value_table()
        s = ctx._mellin[chi.index] = sum(t[j] * v[j] for j in range(1, ctx.tower.q))
    return s


def mellin_single_deviation(ctx: KatzContext, chi: MultChar) -> float:
    """S(chi) against its Gauss-sum evaluation: 0 for even chi, and for odd
    chi = phi*nu^4 the two-term bracket in G2(nu N M8) and G2(nu N M8^5),
    each summed over the norm fibers by lifted_gauss with the twist M8^e."""
    s = mellin_transform(ctx, chi)
    if not chi.is_odd():
        return abs(s)
    tower = ctx.tower
    nu = decompose_odd(chi)
    a = ctx.a
    rhs = (
        nu.conj(a) / ctx.tau * lifted_gauss(tower, nu, ctx.M8)
        + (ctx.phi * nu.conj)(a) / ctx.tau * lifted_gauss(tower, nu, ctx.M8**5)
    )
    return abs(s - rhs)


def double_mellin_product(ctx: KatzContext, chi1: MultChar, chi2: MultChar,
                          literal: bool = False) -> complex:
    """S(chi1, chi2) = sum_{j,k != 0} chi1(j) chi2(k) V(j) V(k).

    Computed as the product S(chi1) S(chi2); literal=True runs the O(q^2)
    double sum instead (the debug oracle).
    """
    if not literal:
        return mellin_transform(ctx, chi1) * mellin_transform(ctx, chi2)
    v = ctx.v_vector()
    t1, t2 = chi1.value_table(), chi2.value_table()
    q = ctx.tower.q
    total = 0j
    for j in range(1, q):
        for k in range(1, q):
            total += t1[j] * t2[k] * v[j] * v[k]
    return total


def _jacobi_bracket(tower: FieldTower, m8: MultChar, nu: MultChar, c: MultChar) -> complex:
    """J2(nu N M8, C N) + J2(nu N M8^5, C N), summed over the norm fibers."""
    nu_n = norm_compose(tower, nu)
    return lifted_jacobi(tower, nu_n * m8, c) + lifted_jacobi(tower, nu_n * m8**5, c)


def double_mellin_product_deviation(ctx: KatzContext, chi1: MultChar, chi2: MultChar) -> float:
    """S(chi1, chi2) against its Gauss/Jacobi evaluation (zero if either is even)."""
    s = double_mellin_product(ctx, chi1, chi2)
    if not (chi1.is_odd() and chi2.is_odd()):
        return abs(s)
    tower = ctx.tower
    q = tower.q
    nu1 = decompose_odd(chi1)
    nu2 = decompose_odd(chi2)
    mu = nu1 * nu2
    rhs = 0j
    for i in (0, 1):
        ch = ctx.phi**i * mu.conj
        bracket = _jacobi_bracket(tower, ctx.M8, nu1, ch)
        rhs += ch(ctx.a) * q / lifted_gauss(tower, ch) * bracket
    return abs(s - rhs)


# ---------------------------------------------------------------------------
# the mixed-side transform and its kernel


def kernel_row(d: MultChar) -> list[complex]:
    """h(D, j) = sum_{x != 0} D(x) phi(1-x) (phi conj(D)^2)(x(j+1)^2 + (j-1)^2)
    for every code j, indexed by code; entry 0 is 0j, since h needs j != 0.
    Memoized on the field by the index of D.

    In log coordinates x = g^s, with the weights W[s] = D(x) phi(1 - x) and
    mix = phi conj(D)^2: for j != +-1, x(j+1)^2 + (j-1)^2 = (j-1)^2 (1 +
    g^(s + r)) with r = dlog((j+1)^2 / (j-1)^2), so h(D, j) = mix((j-1)^2)
    sum_s W[s] U[s + r] for U[l] = mix(1 + g^l), one dot product against a
    slice of U doubled, shared by the j of one r (j and 1/j).  At j = 1 the
    argument is x(j+1)^2 = g^(s + dlog 4), and at j = -1 it is (j-1)^2.
    """
    field = d.field
    row = field._kernel_rows.get(d.index)
    if row is None:
        phi = quadratic_char(field)
        td, tphi = d.value_table(), phi.value_table()
        tmix = (phi * d.conj**2).value_table()
        om, dlog, exp, n = field.one_minus, field.dlog, field.exp, field.order - 1
        weights = [td[x] * tphi[om[x]] for x in exp]
        mix_by_log = [tmix[e] for e in exp] * 2
        shifted = [mix_by_log[z] if z >= 0 else 0j for z in field._zech] * 2  # U[l]
        mul, add, sub = field.mul_codes, field.add_codes, field.sub_codes
        by_shift = {}
        row = [0j]
        for j in range(1, field.order):
            jp, jm = add(j, 1), sub(j, 1)
            jp, jm = mul(jp, jp), mul(jm, jm)
            if jp == 0:  # j = -1
                row.append(tmix[jm] * sum(weights, 0j))
            elif jm == 0:  # j = 1
                lp = dlog[jp]
                row.append(sum(map(operator.mul, weights, mix_by_log[lp : lp + n]), 0j))
            else:
                r = (dlog[jp] - dlog[jm]) % n
                if r not in by_shift:
                    by_shift[r] = sum(map(operator.mul, weights, shifted[r : r + n]), 0j)
                row.append(tmix[jm] * by_shift[r])
        field._kernel_rows[d.index] = row
    return row


def kernel_sum(d: MultChar, j) -> complex:
    """h(D, j) for j != 0, read from kernel_row(D)."""
    j = d.field.element(j)
    if j.code == 0:
        raise ValueError("kernel sum requires j != 0")
    return kernel_row(d)[j.code]


def double_mellin_mixed(ctx: KatzContext, chi1: MultChar, chi2: MultChar) -> complex:
    """T(chi1, chi2) = sum_{j,k != 0} chi1(j) chi2(k) P(j,k), as a literal
    double sum over the context's cached matrix of P values, memoized on the
    context.  The inner sums over k are cached there, one vector per chi2."""
    if chi1.field is not ctx.tower.base or chi2.field is not ctx.tower.base:
        raise FieldError("the double Mellin transform needs base-field characters")
    key = (chi1.index, chi2.index)
    if key in ctx._mixed:
        return ctx._mixed[key]
    inner = ctx._mixed_inner.get(chi2.index)
    if inner is None:
        t2 = chi2.value_table()
        inner = ctx._mixed_inner[chi2.index] = [
            sum(map(operator.mul, t2, row), 0j)  # t2[0] = 0: k = 0 adds 0
            for row in ctx.mixed_sum_matrix()
        ]
    t1 = chi1.value_table()
    total = 0j
    for j in range(1, ctx.tower.q):
        total += t1[j] * inner[j]
    ctx._mixed[key] = total
    return total


def double_mellin_mixed_deviation(ctx: KatzContext, chi1: MultChar, chi2: MultChar) -> float:
    """T(chi1, chi2) against its kernel-sum evaluation (zero if either is even).

    The evaluation weighs the kernel rows of D = mu and D = mu*phi by
    (mu-bar phi^i)(a).  At a square a the two weights are equal, so this check
    sees only the sum of the two rows and cannot tell them apart: serving the
    row of D*phi for D passes here.  The gauss-ratio-bridge of
    verify_master_identity catches that at every a.
    """
    t = double_mellin_mixed(ctx, chi1, chi2)
    if not (chi1.is_odd() and chi2.is_odd()):
        return abs(t)
    q = ctx.tower.q
    nu1 = decompose_odd(chi1)
    nu2 = decompose_odd(chi2)
    mu = nu1 * nu2
    g_ratio = gauss(ctx.phi * mu**2) / gauss(ctx.phi)
    rhs = 0j
    for i in (0, 1):
        dch = mu * ctx.phi**i
        hsum = kernel_mellin(dch, chi1)
        rhs += (mu.conj * ctx.phi**i)(ctx.a) * g_ratio * (hsum + 2 * (q - 1) * delta(dch))
    return abs(t - rhs)


# ---------------------------------------------------------------------------
# weighted transforms bridging the two sides


def kernel_mellin(d: MultChar, chi: MultChar) -> complex:
    """sum_{j != 0} chi(j) h(D, j), memoized on the field by (D, chi) indices."""
    field, key = d.field, (d.index, chi.index)
    val = field._kernel_sums.get(key)
    if val is None:
        t, h = chi.value_table(), kernel_row(d)
        val = field._kernel_sums[key] = sum(t[j] * h[j] for j in range(1, field.order))
    return val


def kernel_transform(d: MultChar, nu: MultChar) -> complex:
    """W(D) = sum_{j != 0} (phi nu^4)(j) h(D, j)."""
    return kernel_mellin(d, quadratic_char(d.field) * nu**4)


def kernel_transform_deviation(ctx: KatzContext, d: MultChar, nu: MultChar) -> float:
    """W(D) against 2 (trivial D) or its two-term Jacobi bracket over F_{q^2}."""
    lhs = kernel_transform(d, nu)
    if d.is_trivial:
        return abs(lhs - 2)
    tower = ctx.tower
    bracket = _jacobi_bracket(tower, ctx.M8, nu, d.conj)
    rhs = -gauss(ctx.phi) * gauss(d) ** 2 / (tower.q * gauss(ctx.phi * d**2)) * bracket
    return abs(lhs - rhs)


def fiber_jacobi_transform(ctx: KatzContext, d: MultChar, nu: MultChar) -> complex:
    """Y(D) = sum_{j != 0} nu^4(j) R(D, j), read from norm_jacobi_row(D)."""
    w = (nu**4).value_table()
    r = norm_jacobi_row(ctx, d)
    return sum(w[j] * r[j] for j in range(1, d.field.order))


def fiber_jacobi_transform_deviation(ctx: KatzContext, d: MultChar, nu: MultChar) -> float:
    """Y(D) against J2(nu N M8, conj(D)N) + J2(nu N M8^5, conj(D)N)."""
    lhs = fiber_jacobi_transform(ctx, d, nu)
    return abs(lhs - _jacobi_bracket(ctx.tower, ctx.M8, nu, d.conj))


def ratio_bracket_deviation(ctx: KatzContext, nu1: MultChar, d: MultChar) -> float:
    """The master bridge between the two Mellin evaluations, for D = mu*phi^i:

    q/G2(conj(D)N) * {J2(nu1 N M8, conj(D)N) + J2(nu1 N M8^5, conj(D)N)}
        = G(phi D^2)/G(phi) * (W(D) + 2(q-1) delta(D)).
    """
    tower = ctx.tower
    q = tower.q
    bracket = _jacobi_bracket(tower, ctx.M8, nu1, d.conj)
    lhs = q / lifted_gauss(tower, d.conj) * bracket
    rhs = gauss(ctx.phi * d**2) / gauss(ctx.phi) * (
        kernel_transform(d, nu1) + 2 * (q - 1) * delta(d)
    )
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# standalone double sums and their integer anchors


def kernel_double_sum(q: int, nu_index: int = 0) -> complex:
    """sum_{j,x != 0} (phi nu^4)(j) phi(x) phi(1-x) phi(x(j+1)^2 + (j-1)^2),
    as a literal double sum over the base field of the q-tower."""
    p, t = factor_prime_power(q)
    if q % 4 != 3:
        raise ValueError("the weighted kernel double sum is studied for q = 3 (mod 4)")
    field = build_tower(p, t).base
    phi = quadratic_char(field)
    tphi = phi.value_table()
    tw = (phi * char(field, nu_index) ** 4).value_table()
    om = field.one_minus
    mul, add = field.mul_codes, field.add_codes
    total = 0j
    for j in range(1, q):
        je = field.element(j)
        jp = ((je + 1) ** 2).code
        jm = ((je - 1) ** 2).code
        inner = 0j
        for x in range(1, q):
            inner += tphi[x] * tphi[om[x]] * tphi[add(mul(x, jp), jm)]
        total += tw[j] * inner
    return total


def kernel_double_sum_deviation(q: int, nu_index: int = 0, m8_variant: int = 1) -> float:
    """The double sum against J2(nu N M8, phi N) + J2(nu N M8^5, phi N)."""
    p, t = factor_prime_power(q)
    tower = build_tower(p, t)
    nu = char(tower.base, nu_index)
    rhs = _jacobi_bracket(tower, octic_M8(tower, m8_variant), nu, quadratic_char(tower.base))
    return abs(kernel_double_sum(q, nu_index) - rhs)


def decompose_q_squared(q: int, p: int) -> tuple[int, int]:
    """The unique (u, v), v > 0, p not dividing u, with q^2 = u^2 + 2 v^2;
    the sign of u is fixed by u = -1 (mod 8).  Requires q = 3 (mod 8)."""
    if q % 8 != 3:
        raise ValueError("the u, v decomposition applies to q = 3 (mod 8)")
    found = []
    for v in range(1, q):
        r = q * q - 2 * v * v
        if r <= 0:
            break
        u = math.isqrt(r)
        if u * u == r and u % p != 0:
            found.append((u, v))
    if len(found) != 1:
        raise ValueError(f"expected exactly one decomposition of {q}^2, found {found}")
    u, v = found[0]
    if u % 8 != 7:
        u = -u
    if u % 8 != 7:
        raise ValueError(f"neither sign of u = {abs(u)} is -1 mod 8")
    return u, v


def kernel_double_sum_anchor(q: int) -> int:
    """Closed form of the trivial-nu double sum: 2q if q = 7 (mod 8), else 2u."""
    if q % 8 == 7:
        return 2 * q
    p, _ = factor_prime_power(q)
    u, _ = decompose_q_squared(q, p)
    return 2 * u


def decompose_q(q: int, p: int) -> tuple[int, int]:
    """The unique (c, d) up to sign with q = c^2 + 2 d^2 and p not dividing c."""
    found = []
    for d in range(0, math.isqrt(q // 2) + 1):
        r = q - 2 * d * d
        c = math.isqrt(r)
        if c > 0 and c * c == r and c % p != 0:
            found.append((c, d))
    if len(found) != 1:
        raise ValueError(f"expected exactly one decomposition of {q}, found {found}")
    return found[0]


def quadratic_kernel_mellin(q: int) -> complex:
    """Z = sum_{j != 0} phi(j) h(phi, j), by literal summation."""
    phi = quadratic_char(construct_field(*factor_prime_power(q)))
    return kernel_mellin(phi, phi)


def quadratic_kernel_expected(q: int) -> int:
    """Evaluation of Z for q = 1 (mod 4): 0, 4q, or 4c^2 depending on p, q mod 8."""
    p, _ = factor_prime_power(q)
    if q % 4 != 1:
        raise ValueError("the evaluation of Z applies to q = 1 (mod 4)")
    if q % 8 == 5:
        return 0
    if p % 8 in (5, 7):
        return 4 * q
    c, _ = decompose_q(q, p)
    return 4 * c * c


# ---------------------------------------------------------------------------
# the master verification sweep


def odd_char_indices(field) -> list[int]:
    return [i for i in range(1, field.order - 1) if i % 2 == 1]


def even_char_indices(field) -> list[int]:
    return [i for i in range(0, field.order - 1) if i % 2 == 0]


def spaced_sample(items: list[int], k: int) -> list[int]:
    """Deterministic evenly spaced sample of at most k items."""
    if len(items) <= k:
        return list(items)
    step = len(items) / k
    return [items[int(i * step)] for i in range(k)]


def select_char_pairs(field) -> list[tuple[int, int]]:
    """Character-index pairs for the double-Mellin sweep: every pair for
    q <= 11, and a deterministic spread (4 odd + 2 even indices per axis)
    above that."""
    q = field.order
    if q <= 11:
        idx = list(range(q - 1))
    else:
        idx = spaced_sample(odd_char_indices(field), 4) + spaced_sample(
            even_char_indices(field), 2
        )
    return [(i1, i2) for i1 in idx for i2 in idx]


def verify_master_identity(
    ctx: KatzContext, policy: TolerancePolicy | None = None
) -> VerificationReport:
    """Check P(j,k) = V(j)V(k) for all j, k (zeros included), the agreement of
    the two double-Mellin transforms over a pair sweep, and the Gauss-ratio
    bridge for D = mu*phi^i.  Failures become report records, not exceptions.
    At q=3, a=1 both nonzero x have x^2 = a, so the x-sum of P is empty and
    point-identity checks only its delta terms and V.
    """
    policy = policy or DEFAULT_POLICY
    base = ctx.tower.base
    q = ctx.tower.q
    rep = VerificationReport("master", q, ctx.a_index())

    v = ctx.v_vector()
    pm = ctx.mixed_sum_matrix()
    rep.family("point-identity", "j={},k={}", policy.abs_tol(q, 4 * q))
    point = rep.families["point-identity"].extend
    for j in range(q):
        vj = v[j]
        point([abs(pjk - vj * vk) for pjk, vk in zip(pm[j], v)], repeat(j, q), range(q))

    match = rep.family("mellin-match", "chi1={},chi2={}", policy.abs_tol(q, q**3))
    bridge_args = set()
    for i1, i2 in select_char_pairs(base):
        chi1, chi2 = char(base, i1), char(base, i2)
        s_val = double_mellin_product(ctx, chi1, chi2)
        t_val = double_mellin_mixed(ctx, chi1, chi2)
        match(abs(s_val - t_val), i1, i2)
        if chi1.is_odd() and chi2.is_odd():
            nu1 = decompose_odd(chi1)
            mu = nu1 * decompose_odd(chi2)
            for i in (0, 1):
                bridge_args.add((nu1.index, (mu * ctx.phi**i).index))
    bridge = rep.family("gauss-ratio-bridge", "nu1={},D={}", policy.abs_tol(q, 4 * q * q))
    for nu1_idx, d_idx in sorted(bridge_args):
        dev = ratio_bracket_deviation(ctx, char(base, nu1_idx), char(base, d_idx))
        bridge(dev, nu1_idx, d_idx)
    return rep
