"""Gauss, Jacobi and Eisenstein sums, plus their classical closed-form deviations.

Jacobi and Eisenstein sums of one field are computed by literal summation.
Every Gauss sum of a field comes from one discrete Fourier transform in log
coordinates, G(chi_k) = sum_m psi(g^m) e^(2 pi i k m / N) with N = q* - 1,
evaluated by Bluestein's chirp-z algorithm over a radix-2 FFT: `gauss_sums`
returns the whole list and `gauss` reads one entry of it.  `gauss_literal`
sums one character literally and is kept only as the oracle for tests.
The closed forms (the Hasse-Davenport product and lifting relations,
the quartic Gauss-sum evaluation, the Eisenstein/Gauss ratio) appear only
inside deviation functions, which read the transform, so each compares
two independently computed values: literal Jacobi or Eisenstein sums
against transform Gauss sums, or transform values at different indices.

A sum over F_{q^2} whose character is a lifted base character C N, times a
fixed top-field character B, splits over the norm fibers {N z = g^k}:
`lifted_jacobi` and `lifted_gauss` regroup J2(A, C N) and G2(C N B) exactly
into q-1 terms C(g^k) Phi[k], where Phi[k] sums A(1 - z), or B(z) psi2(z),
over the q+1 points of the fiber (Berndt, Evans and Williams, *Gauss and
Jacobi Sums*, 1998).

Sums that do not depend on the parameter a are memoized, and every a-task
of one process reuses them: `gauss_sums` one list of q*-1 values per field,
`jacobi` one value per ordered pair of indices (at most (q*-1)^2), and the
fiber rows Phi, q-1 values each, keyed on the tower by ("jacobi", index of
A) or ("gauss", index of B); katz asks for Gauss rows only at B = 1, M8 and
M8^5, at most five over the four octic variants.
"""

import cmath
import math
import operator

from .characters import MultChar, norm_compose, octic_M8, quadratic_char, restrict_to_base
from .finite_field import FieldError, FieldTower


def gauss_literal(a: MultChar) -> complex:
    """G(A) = sum_y A(y) psi(y), always by literal summation (no memo)."""
    ta = a.value_table()
    psi = a.field.psi_table
    return sum(ta[y] * psi[y] for y in range(1, a.field.order))


def gauss(a: MultChar) -> complex:
    """G(A), read from gauss_sums: the first call on a field computes all."""
    return gauss_sums(a.field)[a.index]


def gauss_sums(field) -> list[complex]:
    """G(chi_k) for every character index k of the field, memoized on it.

    With N = q* - 1 and x_m = psi(g^m), G(chi_k) = sum_m x_m e^(2 pi i k m / N)
    is one length-N DFT, computed on first use, never at field build.
    """
    sums = field._gauss_sums
    if sums is None:
        n = field.order - 1
        psi = field.psi_table
        sums = field._gauss_sums = _bluestein_dft([psi[c] for c in field.exp[:n]])
    return sums


def _bluestein_dft(x: list[complex]) -> list[complex]:
    """X_k = sum_m x_m e^(2 pi i k m / n) for any length n, as a convolution.

    km = (k^2 + m^2 - (k - m)^2) / 2, so X_k = c_k sum_m (x_m c_m) conj(c_(k-m))
    with the chirp c_m = e^(pi i m^2 / n).  The angle is reduced as m^2 mod 2n
    before scaling, so its rounding error does not grow with m.  The
    convolution is cyclic of length L = 2^ceil(log2(2n - 1)), long enough
    that k - m in (-n, n) never wraps onto another term.
    """
    n = len(x)
    chirp = [cmath.exp(1j * math.pi * (m * m % (2 * n)) / n) for m in range(n)]
    size = 1 << (2 * n - 2).bit_length()
    a = [u * c for u, c in zip(x, chirp)] + [0j] * (size - n)
    b = [c.conjugate() for c in chirp]
    b += [0j] * (size - 2 * n + 1) + b[:0:-1]  # b[size - j] = conj(c_j)
    twiddles = [cmath.exp(-2j * math.pi * j / size) for j in range(size // 2)]
    spectrum = [u * v for u, v in zip(_fft(a, twiddles), _fft(b, twiddles))]
    conv = _fft(spectrum, [w.conjugate() for w in twiddles])  # inverse, times size
    return [c * v / size for c, v in zip(chirp, conv)]


def _fft(x: list[complex], twiddles: list[complex]) -> list[complex]:
    """Radix-2 DFT sum_m x_m w^(km) of a power-of-2 length, where twiddles
    holds the first len(x)/2 powers of w, a primitive len(x)-th root of 1."""
    if len(x) <= 2:
        return x if len(x) == 1 else [x[0] + x[1], x[0] - x[1]]
    half = twiddles[::2]
    even = _fft(x[::2], half)
    odd = [w * v for w, v in zip(twiddles, _fft(x[1::2], half))]
    return [e + o for e, o in zip(even, odd)] + [e - o for e, o in zip(even, odd)]


def jacobi(a: MultChar, b: MultChar) -> complex:
    """J(A, B) = sum_y A(y) B(1 - y), memoized on the field by the ordered
    pair of character indices (J(A, B) and J(B, A) are summed separately)."""
    if a.field is not b.field:
        raise FieldError("Jacobi sum needs characters on the same field")
    field = a.field
    key = (a.index, b.index)
    val = field._jacobi_memo.get(key)
    if val is None:
        ta, tb = a.value_table(), b.value_table()
        om = field.one_minus
        val = field._jacobi_memo[key] = sum(ta[y] * tb[om[y]] for y in range(1, field.order))
    return val


def lifted_jacobi(tower: FieldTower, a: MultChar, c: MultChar) -> complex:
    """J2(A, C N) = sum_z A(1 - z) C(N z) over F_{q^2}, for A on the top field
    and C on the base, as sum_k C(g^k) Phi_A[k] over the norm fibers."""
    if a.field is not tower.top:
        raise FieldError("the lifted Jacobi sum needs A on the tower's top field")
    return _fiber_transform(tower, c, _fiber_row(tower, "jacobi", a.index))


def lifted_gauss(tower: FieldTower, c: MultChar, b: MultChar | None = None) -> complex:
    """G2(C N B) = sum_z C(N z) B(z) psi2(z) over F_{q^2}, for C on the base
    field and an optional twist B on the top field (trivial when omitted),
    as sum_k C(g^k) Phi_B[k] over the norm fibers."""
    if b is not None and b.field is not tower.top:
        raise FieldError("the twist of a lifted Gauss sum must be on the tower's top field")
    return _fiber_transform(tower, c, _fiber_row(tower, "gauss", 0 if b is None else b.index))


def _fiber_row(tower: FieldTower, kind: str, index: int) -> list[complex]:
    """Phi[k] for k in [0, q-1): the sum of chi(1 - z) ("jacobi") or of
    chi(z) psi2(z) ("gauss") over the fiber N(z) = g^k, for chi the top-field
    character of the given index; memoized on the tower by (kind, index).

    The fiber of g^k is {g2^m : m = k (mod q-1)}, since the tower fixes
    g = N(g2), so each entry sums one residue class of logs m, ascending; no
    value table is built.  chi(g2^m) is read from the root table of chi's
    order d, as tab[u * m % d].  1 - g2^m = 1 + g2^(m + n/2) has log
    zech[m + n/2], n = q^2 - 1; n/2 = (q-1)(q+1)/2, so the class k of those
    logs is zech[k::q-1] rotated by (q+1)/2.
    """
    key = (kind, index)
    row = tower._fiber_rows.get(key)
    if row is None:
        top = tower.top
        n, step = top.order - 1, tower.q - 1
        tab, u, d = top.char_roots(index)
        row = []
        if kind == "gauss":
            psi, exp = top.psi_table, top.exp
            for k in range(step):
                vals = map(psi.__getitem__, exp[k::step])
                if index:  # the twist B(g2^m); the plain row needs no product
                    vals = [tab[u * m % d] * v for m, v in zip(range(k, n, step), vals)]
                row.append(sum(vals, 0j))
        else:
            h, zech = (tower.q + 1) // 2, top._zech
            for k in range(step):
                col = zech[k::step]
                vals = [tab[u * lg % d] for lg in col[h:] + col[:h]]
                if k == 0:
                    vals[0] = 0j  # z = 1: A(0) = 0
                row.append(sum(vals, 0j))
        tower._fiber_rows[key] = row
    return row


def _fiber_transform(tower: FieldTower, c: MultChar, row: list[complex]) -> complex:
    """sum_k C(g^k) row[k] for a base-field character C."""
    if c.field is not tower.base:
        raise FieldError("a lifted sum needs C on the tower's base field")
    n, roots = tower.q - 1, tower.base.unity_roots
    return sum(map(operator.mul, [roots[c.index * k % n] for k in range(n)], row), 0j)


def eisenstein_E2(tower: FieldTower, beta: MultChar) -> complex:
    """E2(beta): sum of beta over the affine trace-one line z + z^q = 1."""
    if beta.field is not tower.top:
        raise FieldError("E2 needs a character on the tower's top field")
    return _char_sum(beta, tower.trace_line)


def eisenstein_E(tower: FieldTower, beta: MultChar) -> complex:
    """E(beta) = sum_{y in F_q} beta(1 + i*y)."""
    if beta.field is not tower.top:
        raise FieldError("E needs a character on the tower's top field")
    return _char_sum(beta, tower.i_line)


def _char_sum(beta: MultChar, codes: list[int]) -> complex:
    """The sum of beta over the given element codes, in order, read through
    dlog (beta(0) = 0), so that no q*-entry value table is built for q points."""
    field = beta.field
    n, k = field.order - 1, beta.index
    roots, dlog = field.unity_roots, field.dlog
    return sum((roots[k * dlog[z] % n] for z in codes if z), 0j)


# ---------------------------------------------------------------------------
# closed-form cross-checks


def hasse_davenport_product_deviation(a: MultChar) -> float:
    """|A(4) G(A) G(A*phi) - G(A^2) G(phi)|."""
    phi = quadratic_char(a.field)
    g = gauss_sums(a.field)
    lhs = a(4) * g[a.index] * g[(a * phi).index]
    rhs = g[(a**2).index] * g[phi.index]
    return abs(lhs - rhs)


def lifted_gauss_deviation(tower: FieldTower, c: MultChar) -> float:
    """Lifting relation G2(CN) = -G(C)^2, plus the conjugation instance
    G2(CN*M8) = G2((CN*M8)^q)."""
    if c.field is not tower.base:
        raise FieldError("lifted-Gauss check needs a base-field character")
    g, g2 = gauss_sums(tower.base), gauss_sums(tower.top)
    cn = norm_compose(tower, c)
    dev = abs(g2[cn.index] - (-g[c.index] ** 2))
    beta = cn * octic_M8(tower)
    return max(dev, abs(g2[beta.index] - g2[(beta**tower.q).index]))


def quartic_gauss_deviation(tower: FieldTower, c: MultChar) -> float:
    """G2(CN*M4) = G2(CN*conj(M4)) = -(conj(C)^2 phi)(2) G(C^2 phi) G(phi)."""
    if c.field is not tower.base:
        raise FieldError("quartic-Gauss check needs a base-field character")
    if tower.q % 4 != 3:
        raise ValueError("quartic Gauss evaluation requires q = 3 (mod 4)")
    phi = quadratic_char(tower.base)
    m4 = octic_M8(tower) ** 2
    cn = norm_compose(tower, c)
    g, g2 = gauss_sums(tower.base), gauss_sums(tower.top)
    lhs1 = g2[(cn * m4).index]
    lhs2 = g2[(cn * m4.conj).index]
    rhs = -(c.conj**2 * phi)(2) * g[(c**2 * phi).index] * g[phi.index]
    return max(abs(lhs1 - rhs), abs(lhs2 - rhs))


def eisenstein_shift_deviation(tower: FieldTower, beta: MultChar) -> float:
    """|E(beta) - beta(2) E2(beta)|."""
    return abs(eisenstein_E(tower, beta) - beta(2) * eisenstein_E2(tower, beta))


def eisenstein_gauss_deviation(tower: FieldTower, beta: MultChar) -> float:
    """E2 against its Gauss-sum evaluation, for nontrivial beta:
    G2(beta)/G(beta*) if the restriction beta* is nontrivial, else -G2(beta)/q.
    """
    if beta.is_trivial:
        raise ValueError("the Gauss evaluation of E2 needs nontrivial beta")
    star = restrict_to_base(tower, beta)
    lhs = eisenstein_E2(tower, beta)
    g2 = gauss_sums(tower.top)[beta.index]
    if star.is_trivial:
        rhs = -g2 / tower.q
    else:
        rhs = g2 / gauss_sums(tower.base)[star.index]
    return abs(lhs - rhs)
