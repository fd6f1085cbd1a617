"""Katz's mixed character sums and the identity P(j,k) = V(j)V(k).

The two sides of the identity are the mixed exponential sum

    P(j,k) = d(j,k) + phi(-1) d(j,-k)
             + G(phi)^-1 sum_{x != 0} phi(a/x - x) psi(x(j+k)^2 + (a/x)(j-k)^2)

and the norm-restricted Gauss sums

    V(j) = tau^-1 phi(j) sum_{N(z) = a} M8(z) psi2(j^2 z),

for a fixed nonzero a in F_q, q = 3 (mod 4).  This module evaluates both
sides literally, their single and double Mellin transforms, and the kernel
sums h(D, j) that the mixed-side transform reduces to.  The suites (see
harness) check each evaluation against the other side's route, reading
characters by index through char, which returns the one MultChar of each;
this module keeps the one copy of the Jacobi bracket J2(nu N M8, C N) +
J2(nu N M8^5, C N) that five of those checks read, and of the two sides of
the Gauss-ratio bridge (bridge_sides), which mellin sums and theorem-5.x and
master compare; it forms no identity outside verify_master_identity.

P has one route at every q, which shares nothing with V's.  The trace is
F_p-linear, so psi(x s + (a/x) d) = zeta_p^(Tr(x s) + Tr((a/x) d)).  Since
phi(-1) = -1, the term of -x is minus the conjugate of the term of x, so each
pair {x, -x} adds phi(a/x - x) 2i Im psi(x s + (a/x) d) and the sum runs
over one member of each pair.  P depends on (j, k) only through the squares
s = (j+k)^2 and d = (j-k)^2, so the matrix sums F(s, d) once for each of the
((q+1)/2)^2 pairs of squares: about q^3/8 real terms, with no field-size
limit.  For nonzero s = g^(2i) and d = g^(2k), the trace sum of x = g^l
depends only on u = l + 2i and the anti-diagonal c = i + k (mod (q-1)/2), so
each c maps one row of q-1 trace sums through the roots, and the x-sums of
its (q-1)/2 pairs are column sums of stride-2 slices of that row (see
_p_table); mixed_sum adds the same terms in the same order, one pair at a
time, so every entry agrees bit for bit.

Every sum_{j != 0} chi(j) row[j] over a row indexed by code is read by
mellin: S(chi) of V, each inner sum sum_k chi2(k) P(j,k) of a row of P,
T(chi1, chi2) of the inner vector, sum_j chi(j) h(D, j) of a kernel row, and
the double sum of kernel_double_row.  Each sum is memoized in the memo of the
object it depends on (see finite_field.memoized).  V, P, S(chi) and the inner
vectors read a, so the context keeps them by character indices.  The kernel
rows h(D, .) do not: the field keeps them by the index of D, at most q-1 rows
of q entries.  Nor do the bridge's sides: the tower keeps them by (M8, nu1,
D).  So every a-task of one process reuses the rows and the sides.
theorem-5.x checks each kernel row against its closed-form row, whose 2F1
factor is hypergeometric.reduction_row's.
Y(D) reads R(D, .) from norm_jacobi_row (see hypergeometric).  Every Jacobi
or Gauss sum over F_{q^2} has a lifted character C N, times M8^e in the
Mellin evaluation, and is summed over the q-1 norm fibers by the lifted sums
of classical_sums, which the tower keeps; the Gauss sums over F_q are read
from the field's one transform.  No top-field value table or transform is
built: the few top-field points read are looked up through dlog, and each
top-field character, of order dividing 4(q-1), reads the root table of its
own order, never the full table of q^2 - 1 roots (see finite_field.root_table).
"""

import cmath
import math
import operator
from collections import defaultdict
from itertools import repeat

from .characters import MultChar, char, decompose_odd, delta, norm_compose, octic_M8
from .characters import quadratic_char
from .classical_sums import gauss, gauss_sums, lifted_gauss, lifted_jacobi
from .finite_field import FieldError, FieldTower, build_tower, construct_field
from .finite_field import factor_prime_power, memoized
from .hypergeometric import fiber_logs
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
        self.memo = defaultdict(dict)  # the sums that read a or M8 (see memoized)

    def a_index(self) -> int:
        """dlog of a with respect to the tower's base generator."""
        return self.tower.base.dlog[self.a_code]

    def v_vector(self) -> list[complex]:
        """V(j) for every code j in [0, q)."""
        return memoized(self.memo, "v_vector", self._build_v_vector)

    def _build_v_vector(self) -> list[complex]:
        return [norm_restricted_gauss(self, j) for j in range(self.tower.q)]

    def mixed_sum_matrix(self) -> list[list[complex]]:
        """P(j,k) for every pair of codes, cached (rows reused by transforms);
        one value per pair of squares (s, d), shared by every (j, k) on it."""
        return memoized(self.memo, "mixed_sum_matrix", self._build_mixed_sum_matrix)

    def _build_mixed_sum_matrix(self) -> list[list[complex]]:
        base, q = self.tower.base, self.tower.q
        h = (q - 1) // 2
        # the half-log of c^2: i for c^2 = g^(2i), h for c = 0
        sq = [h] + [base.dlog[c] % h for c in range(1, q)]
        tab = self._p_table()
        add, neg = base.add_codes, base.neg  # (j - k)^2 = (j + (-k))^2: r[k] at -k
        rows = ([sq[add(j, k)] for k in range(q)] for j in range(q))
        return [[tab[r[k]][r[neg[k]]] for k in range(q)] for r in rows]

    def _p_table(self) -> list[list[complex]]:
        """P at s = (j+k)^2 and d = (j-k)^2 by their half-logs: tab[i][k] for
        s = g^(2i), d = g^(2k), and index h = (q-1)/2 for a zero square.

        With x = g^l, the term of x at nonzero s and d reads the trace sum
        T[l + 2i] + T[la - l + 2k] (T = _trace_exp, la = dlog a); for u = l + 2i
        and c = i + k (mod h) it is T[u] + T[la + 2c - u], a function of (u, c)
        alone.  So each anti-diagonal c maps one row e_c[u] through _roots, with
        either sign of phi(a/x - x), and F(i, c - i) for every i sums the
        stride-2 slices [l : l + q - 1 : 2] of the kept x: the same terms, in the
        same order, as _p_value.  The zero edges go through _p_value."""
        base, q, p = self.tower.base, self.tower.q, self.tower.base.p
        n, h = q - 1, (q - 1) // 2
        tab = [[0j] * (h + 1) for _ in range(h + 1)]
        s_zero, d_zero = self._trace_row(self._s_side, 0), self._trace_row(self._d_side, 0)
        for i, code in enumerate([base.exp[2 * i] for i in range(h)] + [0]):  # the edges
            tab[h][i] = self._p_value(0, code, s_zero, self._trace_row(self._d_side, code))
            tab[i][h] = self._p_value(code, 0, self._trace_row(self._s_side, code), d_zero)
        plus, minus = self._roots[: 2 * p], self._roots[2 * p :]
        t, la, scale = self._trace_exp, self.a_index(), self.inv_g_phi
        for c in range(h):
            r = (la + 2 * c) % n
            e_c = list(map(operator.add, t[:n], t[r + n : r : -1]))  # T[u] + T[r - u]
            rows = (list(map(plus.__getitem__, e_c)) * 2, list(map(minus.__getitem__, e_c)) * 2)
            slices = [rows[off > 0][l : l + n : 2] for l, off in zip(*self._s_side)]
            sums = map(sum, zip(*slices), repeat(0.0)) if slices else repeat(0.0, h)
            for i, f in enumerate(sums):
                val = 1j * f
                val *= scale
                tab[i][(c - i) % h] = val
        return tab

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


def norm_restricted_gauss(ctx: KatzContext, j) -> complex:
    """V(j) over the norm fiber of a, walked by its logs m: psi2(j^2 g2^m) is
    read at g2^(log j^2 + m); V(0) = 0."""
    tower = ctx.tower
    base, top = tower.base, tower.top
    jc = base.element(j).code
    if jc == 0:
        return 0j
    n2, exp2, psi2 = top.order - 1, top.exp, top.psi_table
    lj = top.dlog[tower.embed_table[base.mul_codes(jc, jc)]]
    acc = 0j
    for m, m8v in ctx._fiber_pairs:
        acc += m8v * psi2[exp2[(lj + m) % n2]]
    tphi = ctx.phi.value_table()
    return tphi[jc] * acc / ctx.tau


# ---------------------------------------------------------------------------
# Mellin transforms of V


def mellin_transform(ctx: KatzContext, chi: MultChar) -> complex:
    """S(chi) = sum_{j != 0} chi(j) V(j), memoized on the context."""
    if chi.field is not ctx.tower.base:
        raise FieldError("the Mellin transform needs a base-field character")
    return memoized(ctx.memo["mellin_transform"], chi.index, mellin, chi, ctx.v_vector())


def mellin(chi: MultChar, row: list[complex]) -> complex:
    """sum_{j != 0} chi(j) row[j] for a row indexed by code, added in code
    order from 0j; chi's value table is 0j at code 0, so row[0] drops out."""
    return sum(map(operator.mul, chi.value_table(), row), 0j)


def double_mellin_product(ctx: KatzContext, chi1: MultChar, chi2: MultChar,
                          literal: bool = False) -> complex:
    """S(chi1, chi2) = sum_{j,k != 0} chi1(j) chi2(k) V(j) V(k).

    Computed as the product S(chi1) S(chi2); literal=True runs the O(q^2)
    double sum instead (the debug oracle).
    """
    if chi1.field is not ctx.tower.base or chi2.field is not ctx.tower.base:
        raise FieldError("the double Mellin transform needs base-field characters")
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
    return memoized(d.field.memo["kernel_row"], d.index, _build_kernel_row, d)


def _build_kernel_row(d: MultChar) -> list[complex]:
    field = d.field
    phi = quadratic_char(field)
    td, tphi = d.value_table(), phi.value_table()
    tmix = (phi * d.conj**2).value_table()
    om, dlog, exp, n = field.one_minus, field.dlog, field.exp, field.order - 1
    weights = [td[x] * tphi[om[x]] for x in exp]
    mix_by_log = [tmix[e] for e in exp] * 2
    shifted = [mix_by_log[z] if z >= 0 else 0j for z in field.zech] * 2  # U[l]
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
    return row


def kernel_sum(d: MultChar, j) -> complex:
    """h(D, j) for j != 0, read from kernel_row(D)."""
    j = d.field.element(j)
    if j.code == 0:
        raise ValueError("kernel sum requires j != 0")
    return kernel_row(d)[j.code]


def double_mellin_mixed(ctx: KatzContext, chi1: MultChar, chi2: MultChar) -> complex:
    """T(chi1, chi2) = sum_{j,k != 0} chi1(j) chi2(k) P(j,k), as a literal
    double sum over the context's cached matrix of P values: one dot product
    with the memoized inner vector of chi2."""
    if chi1.field is not ctx.tower.base or chi2.field is not ctx.tower.base:
        raise FieldError("the double Mellin transform needs base-field characters")
    return mellin(chi1, _mixed_inner(ctx, chi2))


def _mixed_inner(ctx: KatzContext, chi2: MultChar) -> list[complex]:
    """inner[j] = sum_k chi2(k) P(j,k) for every code j, memoized on the context."""
    return memoized(ctx.memo["mixed_inner"], chi2.index, _build_mixed_inner, ctx, chi2)


def _build_mixed_inner(ctx: KatzContext, chi2: MultChar) -> list[complex]:
    return [mellin(chi2, row) for row in ctx.mixed_sum_matrix()]


# ---------------------------------------------------------------------------
# weighted transforms bridging the two sides


def kernel_mellin(d: MultChar, chi: MultChar) -> complex:
    """sum_{j != 0} chi(j) h(D, j), the mellin read of the memoized
    kernel_row(D); W(D) is its value at chi = phi nu^4."""
    if chi.field is not d.field:
        raise FieldError("the kernel transform needs D and chi on one field")
    return mellin(chi, kernel_row(d))


def jacobi_bracket(ctx: KatzContext, nu: MultChar, c: MultChar) -> complex:
    """J2(nu N M8, C N) + J2(nu N M8^5, C N) for base characters nu and C,
    each a lifted_jacobi over the norm fibers."""
    tower, m8, nu_n = ctx.tower, ctx.M8, norm_compose(ctx.tower, nu)
    return lifted_jacobi(tower, nu_n * m8, c) + lifted_jacobi(tower, nu_n * m8**5, c)


def bridge_sides(ctx: KatzContext, nu1: int, d: int) -> tuple[complex, complex]:
    """The two sides of the bridge between the two Mellin evaluations, for
    D = mu*phi^i, with nu1 and D character indices and W(D) read at phi nu1^4:

    q/G2(conj(D)N) * {J2(nu1 N M8, conj(D)N) + J2(nu1 N M8^5, conj(D)N)}
        = G(phi D^2)/G(phi) * (W(D) + 2(q-1) delta(D)).

    Neither side reads a; the pair is memoized on the tower by (M8, nu1, D),
    since its rounding, though not its value, depends on M8."""
    key = (ctx.M8.index, nu1, d)
    return memoized(ctx.tower.memo["bridge_sides"], key, _build_bridge_sides, ctx, nu1, d)


def _build_bridge_sides(ctx: KatzContext, nu1: int, d: int) -> tuple[complex, complex]:
    tower, base, q = ctx.tower, ctx.tower.base, ctx.tower.q
    n, half, g, dc = q - 1, (q - 1) // 2, gauss_sums(base), char(base, d)
    lhs = q / lifted_gauss(tower, dc.conj) * jacobi_bracket(ctx, char(base, nu1), dc.conj)
    rhs = g[(half + 2 * d) % n] / g[half] * (
        kernel_mellin(dc, char(base, (half + 4 * nu1) % n)) + 2 * (q - 1) * delta(dc)
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# standalone double sums and their integer anchors


def kernel_double_row(field) -> list[complex]:
    """sum_{x != 0} phi(x) phi(1-x) phi(x(j+1)^2 + (j-1)^2) for every code j,
    as a literal sum over x.  The oracle of kernel-double-sum: it reads no
    kernel_row and keeps no memo."""
    tphi, om = quadratic_char(field).value_table(), field.one_minus
    mul, add, sub = field.mul_codes, field.add_codes, field.sub_codes
    row = []
    for j in range(field.order):
        jp, jm = mul(add(j, 1), add(j, 1)), mul(sub(j, 1), sub(j, 1))
        row.append(sum((tphi[x] * tphi[om[x]] * tphi[add(mul(x, jp), jm)]
                        for x in range(1, field.order)), 0j))
    return row


def kernel_double_sum(q: int, nu_index: int = 0) -> complex:
    """sum_{j,x != 0} (phi nu^4)(j) phi(x) phi(1-x) phi(x(j+1)^2 + (j-1)^2):
    the mellin read of kernel_double_row over the base field of the q-tower."""
    p, t = factor_prime_power(q)
    if q % 4 != 3:
        raise ValueError("the weighted kernel double sum is studied for q = 3 (mod 4)")
    field = build_tower(p, t).base
    return mellin(quadratic_char(field) * char(field, nu_index) ** 4, kernel_double_row(field))


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


def spaced_sample(items: list[int], k: int) -> list[int]:
    """Deterministic evenly spaced sample of at most k items."""
    if len(items) <= k:
        return list(items)
    step = len(items) / k
    return [items[int(i * step)] for i in range(k)]


def sweeps_every_char(q: int) -> bool:
    """Whether each character sweep over F_q reads every index, not a sample."""
    return q <= 11


def select_char_pairs(field) -> list[tuple[int, int]]:
    """Character-index pairs for the double-Mellin sweep: every pair where
    sweeps_every_char, and a deterministic spread (4 odd + 2 even indices
    per axis) above that."""
    idx = list(range(field.order - 1))
    if not sweeps_every_char(field.order):
        idx = spaced_sample(idx[1::2], 4) + spaced_sample(idx[::2], 2)
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
    point = rep.family("point-identity", "j={},k={}", policy.abs_tol(q, 4 * q))
    for j in range(q):
        vj = v[j]
        point.extend([abs(pjk - vj * vk) for pjk, vk in zip(pm[j], v)], repeat(j, q), range(q))

    pairs = select_char_pairs(base)
    n, chars = q - 1, [char(base, i) for i in range(q - 1)]
    pair_chars = ((chars[i1], chars[i2]) for i1, i2 in pairs)
    rep.family("mellin-match", "chi1={},chi2={}", policy.abs_tol(q, q**3)).extend(
        (abs(double_mellin_product(ctx, *c) - double_mellin_mixed(ctx, *c)) for c in pair_chars),
        *zip(*pairs),
    )
    # (nu1, D = mu phi^i) for odd chi_k = phi nu_k^4 and mu = nu1 nu2, by index
    nus = [decompose_odd(c).index if c.is_odd() else None for c in chars]
    bridge_args = sorted({
        (nus[i1], (nus[i1] + nus[i2] + n // 2 * i) % n)
        for i1, i2 in pairs if i1 % 2 and i2 % 2 for i in (0, 1)
    })
    bridge = rep.family("gauss-ratio-bridge", "nu1={},D={}", policy.abs_tol(q, 4 * q * q))
    sides = (bridge_sides(ctx, nu1, d) for nu1, d in bridge_args)
    bridge.extend((abs(lhs - rhs) for lhs, rhs in sides), *zip(*bridge_args))
    return rep
