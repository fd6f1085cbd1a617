"""Gauss, Jacobi and Eisenstein sums.

Every sum that the suites read is an entry of a discrete Fourier transform
in log coordinates, one per fixed argument, and `_transform` runs each one:
Bluestein's chirp-z algorithm over one radix-2 FFT, with a plan per length.
All Gauss sums of a field, G(chi_k) = sum_m psi(g^m) e^(2 pi i k m / N) for
N = q* - 1, are one transform (`gauss_sums`; `gauss` reads one entry); the
Jacobi row J(A, chi_k) = sum_m A(1 - g^m) e^(2 pi i k m / N) is one per A
(`jacobi_row`), and E2 and E of every character of F_{q^2} are q+1 of length
q-1 per line (`eisenstein_sums`); `log_dft` runs those of length q-1.
`gauss_literal`, `jacobi`, `eisenstein_E2` and `eisenstein_E` sum one value
literally and are kept as the oracles of the tests (and `jacobi` for the
few single values the closed forms need).  This module keeps values and
no identities: the Hasse-Davenport, lifting and quartic Gauss relations and
the Jacobi/Gauss and Eisenstein/Gauss evaluations are read row against row,
by index, in the classical and eisenstein suites.  Each compares two
independently computed values: Jacobi rows from A(1 - g^m) or Eisenstein
rows from the points of a line, against Gauss sums from psi(g^m), or
transform values at different indices.

A sum over F_{q^2} whose character is a lifted base character C N, times a
fixed top-field character B, splits over the norm fibers {N z = g^k}:
`lifted_jacobi` and `lifted_gauss` regroup J2(A, C N) and G2(C N B) exactly
into q-1 terms C(g^k) Phi[k], where Phi[k] sums A(1 - z), or B(z) psi2(z),
over the q+1 points of the fiber (Berndt, Evans and Williams, *Gauss and
Jacobi Sums*, 1998).

Sums that do not depend on the parameter a are kept in the memo of their
field or tower, and every a-task of one process reuses them: `gauss_sums`
one list of q*-1 values per field, and the fiber rows Phi, q-1 values each,
by (kind, index of A or B), with each of their transforms by (kind, index,
index of C); katz asks for Gauss rows only at B = 1, M8 and M8^5, at most
five over the four octic variants.  Jacobi and Eisenstein rows are not.
"""

import cmath
import math
import operator

from .characters import MultChar
from .finite_field import FieldError, FieldTower, memoized


def gauss_literal(a: MultChar) -> complex:
    """G(A) = sum_y A(y) psi(y), always by literal summation (no memo)."""
    ta, psi = a.value_table(), a.field.psi_table
    return sum(ta[y] * psi[y] for y in range(1, a.field.order))


def gauss(a: MultChar) -> complex:
    """G(A), read from gauss_sums: the first call on a field computes all."""
    return gauss_sums(a.field)[a.index]


def gauss_sums(field) -> list[complex]:
    """G(chi_k) for every character index k of the field, memoized on it: one
    transform of psi(g^m) on first use.  A field of odd degree runs it as a
    log_dft, whose plan it keeps; one of even degree may be the top F_{q^2}
    of a tower and keeps no plan (a tower's q = 3 (mod 4) has odd degree)."""
    return memoized(field.memo, "gauss_sums", _build_gauss_sums, field)


def _build_gauss_sums(field) -> list[complex]:
    n, psi = field.order - 1, field.psi_table
    x = [psi[c] for c in field.exp[:n]]
    return log_dft(field, x) if field.m % 2 else _transform(_plan(n), x)


def log_dft(field, x: list[complex]) -> list[complex]:
    """X_k = sum_m x_m w^(km) for every k, w = e^(2 pi i / n), n = order - 1,
    by _transform with a plan of length n kept on the field."""
    return _transform(memoized(field.memo, "dft_plan", _plan, field.order - 1), x)


def _plan(n: int) -> tuple[list[complex], list[complex], list[complex]]:
    """(chirp c, twiddles, spectrum) for Bluestein transforms of length n.

    km = (k^2 + m^2 - (k - m)^2) / 2, so X_k = c_k sum_m (x_m c_m) conj(c_(k-m))
    for c_m = e^(pi i m^2 / n), its angle exact mod 2 pi (m^2 mod 2n): a cyclic
    convolution of length L = 2^ceil(log2(2n - 1)), where k - m never wraps.
    twiddles[t] = e^(-2 pi i t / L), t < L/2; spectrum is the FFT of conj(c) / L."""
    chirp = [cmath.exp(1j * math.pi * (m * m % (2 * n)) / n) for m in range(n)]
    size = 1 << (2 * n - 2).bit_length()
    twiddles = [cmath.exp(-2j * math.pi * t / size) for t in range(size // 2)]
    b = [c.conjugate() / size for c in chirp]
    b += [0j] * (size - 2 * n + 1) + b[:0:-1]  # b[size - j] = conj(c_j) / size
    return chirp, twiddles, _fft(b, twiddles)


def _transform(plan, x: list[complex]) -> list[complex]:
    """X_k = sum_m x_m e^(2 pi i k m / n) for the plan's length n, by two FFTs;
    the second runs forward too, so the convolution at j is read at -j mod L.
    X_0 is the plain sum, exact where the x_m are integers."""
    chirp, twiddles, spectrum = plan
    n, size = len(chirp), len(spectrum)
    a = list(map(operator.mul, x, chirp)) + [0j] * (size - n)
    conv = _fft(list(map(operator.mul, _fft(a, twiddles), spectrum)), twiddles)
    return [sum(x, 0j), *map(operator.mul, chirp[1:], conv[: size - n : -1])]


def _fft(x: list[complex], twiddles: list[complex]) -> list[complex]:
    """sum_m x_m w^(km) for every k, of a power-of-2 length L, where twiddles[t]
    = w^t for t < L/2.  Stockham passes, natural order: before each, x[2jh + r]
    holds entry j of the length-s transform of the inputs r (mod 2h), sh = L/2;
    the pass joins r and r + h by twiddles[::h], looping over j or r, the fewer."""
    n, s, h = len(x), 1, len(x) // 2
    while h:
        w, y = twiddles[::h], [0j] * n
        if s <= h:
            for j in range(s):
                e = x[2 * j * h : (2 * j + 1) * h]
                t = list(map(w[j].__mul__, x[(2 * j + 1) * h : (2 * j + 2) * h]))
                y[j * h : (j + 1) * h] = map(operator.add, e, t)
                y[(j + s) * h : (j + s + 1) * h] = map(operator.sub, e, t)
        else:
            for r in range(h):
                e = x[r :: 2 * h]
                t = list(map(operator.mul, w, x[r + h :: 2 * h]))
                y[r : s * h : h] = map(operator.add, e, t)
                y[s * h + r :: h] = map(operator.sub, e, t)
        x, s, h = y, 2 * s, h // 2
    return x


def jacobi(a: MultChar, b: MultChar) -> complex:
    """J(A, B) = sum_y A(y) B(1 - y), by literal summation (no memo)."""
    if a.field is not b.field:
        raise FieldError("Jacobi sum needs characters on the same field")
    field = a.field
    ta, tb = a.value_table(), b.value_table()
    om = field.one_minus
    return sum(ta[y] * tb[om[y]] for y in range(1, field.order))


def jacobi_row(a: MultChar) -> list[complex]:
    """J(A, chi_k) for every character index k, as one log_dft.

    With y = 1 - g^m, J(A, chi_k) = sum_m A(1 - g^m) w^(km); 1 - g^m =
    1 + g^(m + n/2) has log zech[m + n/2], and the term m = 0 is A(0) = 0.
    """
    field = a.field
    n, zech, roots = field.order - 1, field.zech, field.unity_roots
    x = [roots[a.index * zech[(m + n // 2) % n] % n] for m in range(n)]
    x[0] = 0j
    return log_dft(field, x)


def lifted_jacobi(tower: FieldTower, a: MultChar, c: MultChar) -> complex:
    """J2(A, C N) = sum_z A(1 - z) C(N z) over F_{q^2}, for A on the top field
    and C on the base, as sum_k C(g^k) Phi_A[k] over the norm fibers."""
    if a.field is not tower.top:
        raise FieldError("the lifted Jacobi sum needs A on the tower's top field")
    return _fiber_transform(tower, c, "jacobi", a.index)


def lifted_gauss(tower: FieldTower, c: MultChar, b: MultChar | None = None) -> complex:
    """G2(C N B) = sum_z C(N z) B(z) psi2(z) over F_{q^2}, for C on the base
    field and an optional twist B on the top field (trivial when omitted),
    as sum_k C(g^k) Phi_B[k] over the norm fibers."""
    if b is not None and b.field is not tower.top:
        raise FieldError("the twist of a lifted Gauss sum must be on the tower's top field")
    return _fiber_transform(tower, c, "gauss", 0 if b is None else b.index)


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
    return memoized(tower.memo["fiber_row"], (kind, index), _build_fiber_row, tower, kind, index)


def _build_fiber_row(tower: FieldTower, kind: str, index: int) -> list[complex]:
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
        h, zech = (tower.q + 1) // 2, top.zech
        for k in range(step):
            col = zech[k::step]
            vals = [tab[u * lg % d] for lg in col[h:] + col[:h]]
            if k == 0:
                vals[0] = 0j  # z = 1: A(0) = 0
            row.append(sum(vals, 0j))
    return row


def _fiber_transform(tower: FieldTower, c: MultChar, kind: str, index: int) -> complex:
    """sum_k C(g^k) Phi[k] for a base-field character C and the fiber row Phi
    of (kind, index); memoized on the tower by (kind, index, index of C)."""
    if c.field is not tower.base:
        raise FieldError("a lifted sum needs C on the tower's base field")
    key = (kind, index, c.index)
    return memoized(tower.memo["fiber_transform"], key, _build_fiber_transform, tower, *key)


def _build_fiber_transform(tower: FieldTower, kind: str, index: int, c_index: int) -> complex:
    n, roots, row = tower.q - 1, tower.base.unity_roots, _fiber_row(tower, kind, index)
    return sum(map(operator.mul, [roots[c_index * k % n] for k in range(n)], row), 0j)


def eisenstein_E2(tower: FieldTower, beta: MultChar) -> complex:
    """E2(beta): sum of beta over the affine trace-one line z + z^q = 1,
    by literal summation (the oracle of eisenstein_sums)."""
    if beta.field is not tower.top:
        raise FieldError("E2 needs a character on the tower's top field")
    return _char_sum(beta, tower.trace_line)


def eisenstein_E(tower: FieldTower, beta: MultChar) -> complex:
    """E(beta) = sum_{y in F_q} beta(1 + i*y), by literal summation."""
    if beta.field is not tower.top:
        raise FieldError("E needs a character on the tower's top field")
    return _char_sum(beta, tower.i_line)


def _char_sum(beta: MultChar, codes: list[int]) -> complex:
    """The sum of beta over the given element codes, in order, read through
    dlog (beta(0) = 0), so that no q*-entry value table is built for q points."""
    field, k = beta.field, beta.index
    n, roots, dlog = field.order - 1, field.unity_roots, field.dlog
    return sum((roots[k * dlog[z] % n] for z in codes if z), 0j)


def eisenstein_sums(tower: FieldTower) -> tuple[list[complex], list[complex]]:
    """(E2, E): E2(chi_k) and E(chi_k) for every index k of F_{q^2}, each
    _line_sums of its line; not memoized, the eisenstein suite reads them once."""
    return _line_sums(tower, tower.trace_line), _line_sums(tower, tower.i_line)


def _line_sums(tower: FieldTower, codes) -> list[complex]:
    """sum_z chi_k(z) over the given codes, for every index k of F_{q^2}.

    Write k = (q+1) k1 + k2 with k2 < q+1, and m = dlog z.  Since
    w2^(q+1) = w for the roots w2 of F_{q^2} and w of F_q, chi_k(z) =
    w2^(k2 m) w^(k1 m): for each k2 the points fold into the q-1 classes
    m mod q-1, weighted by w2^(k2 m), and one log_dft gives every k1.
    """
    top, q = tower.top, tower.q
    n2, roots2, logs = top.order - 1, top.unity_roots, [top.dlog[z] for z in codes if z]
    out = [0j] * n2
    for k2 in range(q + 1):
        hist = [0j] * (q - 1)
        for m in logs:
            hist[m % (q - 1)] += roots2[k2 * m % n2]
        out[k2 :: q + 1] = log_dft(tower.base, hist)
    return out
