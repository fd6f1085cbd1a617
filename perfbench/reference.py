"""A stdlib-only prime-field reference, written apart from charsum.

Over F_p the quadratic character is Euler's criterion, psi(x) = e^{2 pi i x/p}
and, for p = 3 (mod 4), G(phi) = i sqrt(p).  Sums built only from phi are
integers and are computed exactly.  Closed forms come from this module's own
searches, not from the library's.
"""

import cmath
import math


def legendre(x: int, p: int) -> int:
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def psi(x: int, p: int) -> complex:
    return cmath.exp(2j * math.pi * (x % p) / p)


def gauss_quadratic(p: int) -> complex:
    if p % 4 != 3:
        raise ValueError("G(phi) = i sqrt(p) is used for p = 3 (mod 4)")
    return 1j * math.sqrt(p)


def mixed_sum(p: int, a: int, j: int, k: int) -> complex:
    """Katz's P(j,k) = d(j,k) - d(j,-k)
    + G(phi)^-1 sum_{x != 0} phi(a/x - x) psi(x(j+k)^2 + (a/x)(j-k)^2)."""
    s, d = (j + k) ** 2, (j - k) ** 2
    acc = 0j
    for x in range(1, p):
        ax = a * pow(x, -1, p)
        acc += legendre(ax - x, p) * psi(x * s + ax * d, p)
    val = acc / gauss_quadratic(p)
    if (j - k) % p == 0:
        val += 1
    if (j + k) % p == 0:
        val -= 1
    return val


def kernel_h(p: int, j: int) -> int:
    """h(phi, j) = sum_{x != 0} phi(x) phi(1-x) phi(x(j+1)^2 + (j-1)^2)."""
    jp, jm = (j + 1) ** 2, (j - 1) ** 2
    return sum(
        legendre(x, p) * legendre(1 - x, p) * legendre(x * jp + jm, p) for x in range(1, p)
    )


def double_sum(p: int) -> int:
    """sum_{j != 0} phi(j) h(phi, j): the trivial-nu kernel double sum for
    p = 3 (mod 4), and Z for p = 1 (mod 4)."""
    return sum(legendre(j, p) * kernel_h(p, j) for j in range(1, p))


def double_sum_closed_form(p: int) -> int:
    """2p or 2u (p^2 = u^2 + 2v^2, u = -1 mod 8) for p = 3 (mod 4);
    0 or 4c^2 (p = c^2 + 2d^2) for p = 1 (mod 4)."""
    if p % 8 == 7:
        return 2 * p
    if p % 8 == 5:
        return 0
    if p % 8 == 3:
        for v in range(1, p):
            r = p * p - 2 * v * v
            u = math.isqrt(r)
            if u * u == r and u % p:
                return 2 * (u if u % 8 == 7 else -u)
    for d in range(math.isqrt(p // 2) + 1):
        r = p - 2 * d * d
        c = math.isqrt(r)
        if c * c == r:
            return 4 * c * c
    raise ValueError(f"no closed form found for p = {p}")
